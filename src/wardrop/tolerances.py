"""Numeric tolerances used by every solver and verifier.

All arithmetic is double precision.  This module alone holds the slack
rules: an inequality lhs <= rhs holds when lhs <= rhs + TAU_ABS + rtol*|rhs|
(``close_leq``), and routed flow meets a demand when the two differ by at
most TAU_ABS + rtol*max(1, |demand|) (``demand_matches``).  ``rtol`` is
``tau_rel`` (default 1e-9, overridable through the WARDROP_TOL environment
variable), read once per public call; ``TAU_ABS`` (1e-12) is the floor.
"""

from __future__ import annotations

import os

from .errors import InputError

TAU_REL_DEFAULT = 1e-9
TAU_ABS = 1e-12

ENV_TOL = "WARDROP_TOL"


def tau_rel() -> float:
    """Current relative tolerance; reads WARDROP_TOL when set."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return TAU_REL_DEFAULT
    try:
        value = float(raw)
    except ValueError as exc:
        raise InputError(f"{ENV_TOL} must be a float, got {raw!r}") from exc
    if not value > 0.0:
        raise InputError(f"{ENV_TOL} must be positive, got {value}")
    return value


def close_leq(lhs: float, rhs: float, *, rtol: float) -> bool:
    """lhs <= rhs up to the mixed tolerance TAU_ABS + rtol*|rhs|."""
    return lhs <= rhs + TAU_ABS + rtol * abs(rhs)


def demand_matches(total: float, demand: float, rtol: float) -> bool:
    """|total - demand| <= TAU_ABS + rtol*max(1, |demand|); False for a NaN total."""
    return abs(total - demand) <= TAU_ABS + rtol * max(1.0, abs(demand))
