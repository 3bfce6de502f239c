"""Closed-form inefficiency bounds and sensitivity-density handling.

Bounds come in two flavours.  Stability bounds compare the cost of a
worst-case approximate equilibrium against an exact one; deviation bounds do
the same for equilibria under bounded perceived-cost deviations.  Discrete
forms take per-class demand/sensitivity vectors, continuous forms take a
piecewise-linear sensitivity density; ``discretize_density`` connects the
two.  All demand vectors are normalized internally (the scaling is echoed on
the returned bound) because the closed forms assume unit total demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isfinite, sqrt
from typing import Iterable, Sequence

from .core import SensitivityProfile
from .errors import InputError
from .tolerances import TAU_ABS, demand_matches, tau_rel


@dataclass(frozen=True)
class BoundValue:
    """A named bound: either a finite value or an infinity marker.

    ``requires`` echoes the validity predicate of conditioned bounds; when
    the predicate fails the bound is returned as infinite rather than raised.
    ``note`` carries bookkeeping such as internal demand rescaling.
    """

    name: str
    value: float | None
    infinite: bool = False
    requires: str | None = None
    note: str | None = None

    def __post_init__(self):
        if self.infinite != (self.value is None):
            raise InputError("BoundValue needs exactly one of value / infinite")

    @property
    def as_float(self) -> float:
        return float("inf") if self.infinite else float(self.value)  # type: ignore[arg-type]

    def to_obj(self) -> dict:
        obj: dict = {"name": self.name}
        if self.infinite:
            obj["infinite"] = True
        else:
            obj["value"] = self.value
        if self.requires is not None:
            obj["requires"] = self.requires
        if self.note is not None:
            obj["note"] = self.note
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "BoundValue":
        if not isinstance(obj, dict) or "name" not in obj:
            raise InputError(f"bound object must be a dict with a 'name', got {obj!r}")
        if obj.get("infinite"):
            return cls(str(obj["name"]), None, True, obj.get("requires"), obj.get("note"))
        return cls(
            str(obj["name"]), float(obj["value"]), False, obj.get("requires"), obj.get("note")
        )


def _check_classes(demands: Sequence[float], gammas: Sequence[float]) -> tuple[list[float], str | None]:
    if len(demands) != len(gammas) or not demands:
        raise InputError(
            f"need matching nonempty demand/sensitivity vectors, got {len(demands)}/{len(gammas)}"
        )
    if any(not (isfinite(d) and d >= 0) for d in demands):
        raise InputError(f"class demands must be nonnegative, got {list(demands)}")
    if any(not (isfinite(g) and g >= 0) for g in gammas):
        raise InputError(f"sensitivities must be nonnegative, got {list(gammas)}")
    if any(g1 >= g2 for g1, g2 in zip(gammas, gammas[1:])):
        raise InputError(f"sensitivities must be strictly increasing, got {list(gammas)}")
    total = sum(demands)
    if total <= 0:
        raise InputError("total demand must be positive")
    note = None
    if not demand_matches(total, 1.0, tau_rel()):
        note = f"demands normalized by factor {1.0 / total!r}"
    return [d / total for d in demands], note


def sr_bound_discrete(beta: float, demands: Sequence[float], gammas: Sequence[float]) -> BoundValue:
    """Worst-case cost factor of per-class approximate equilibria:
    1 + beta * sum_j r_j * gamma_j (unit total demand)."""
    _check_beta(beta)
    r, note = _check_classes(demands, gammas)
    value = 1.0 + beta * sum(rj * gj for rj, gj in zip(r, gammas))
    return BoundValue("stability-ratio-discrete", value, note=note)


def dr_tails(demands: Sequence[float], gammas: Sequence[float]) -> tuple[list[float], str | None]:
    """Tails r_j + ... + r_h of the normalized demands, summed from the right,
    and the note; shared with the two-arc generator, which meets the bound."""
    r, note = _check_classes(demands, gammas)
    return list(accumulate(reversed(r)))[::-1], note


def dr_bound_discrete(beta: float, demands: Sequence[float], gammas: Sequence[float]) -> BoundValue:
    """Worst-case cost factor of bounded-deviation equilibria:
    1 + beta * max_j gamma_j * (r_j + ... + r_h) (unit total demand)."""
    _check_beta(beta)
    tails, note = dr_tails(demands, gammas)
    best = max(g * t for g, t in zip(gammas, tails))
    return BoundValue("deviation-ratio-discrete", 1.0 + beta * best, note=note)


def _check_beta(beta: float) -> None:
    if not (isfinite(beta) and beta >= 0):
        raise InputError(f"beta must be a nonnegative float, got {beta}")


# -- continuous sensitivity densities -----------------------------------


@dataclass(frozen=True)
class DensityFn:
    """Piecewise-linear probability density over sensitivities y >= 0.

    Zero outside the breakpoint span; must integrate to one.
    """

    points: tuple[tuple[float, float], ...]

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "DensityFn":
        pts = tuple((float(y), float(v)) for y, v in points)
        if len(pts) < 2:
            raise InputError("density needs at least two breakpoints")
        if not all(isfinite(y) and isfinite(v) for y, v in pts):
            raise InputError(f"density breakpoints must be finite, got {pts}")
        ys = [y for y, _ in pts]
        if ys[0] < 0:
            raise InputError(f"density support must lie in y >= 0, starts at {ys[0]}")
        if any(y1 >= y2 for y1, y2 in zip(ys, ys[1:])):
            raise InputError("density breakpoints must be strictly increasing")
        if any(v < 0 for _, v in pts):
            raise InputError("density values must be nonnegative")
        fn = cls(pts)
        total = fn.mass(ys[0], ys[-1])
        if not demand_matches(total, 1.0, tau_rel()):
            raise InputError(f"density must integrate to 1, integrates to {total}")
        return fn

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "DensityFn":
        if not hi > lo:
            raise InputError(f"uniform density needs hi > lo, got [{lo}, {hi}]")
        h = 1.0 / (hi - lo)
        return cls.from_points([(lo, h), (hi, h)])

    @classmethod
    def triangular(cls, lo: float, peak: float, hi: float) -> "DensityFn":
        if not (lo <= peak <= hi and hi > lo):
            raise InputError(f"triangular density needs lo <= peak <= hi, got {(lo, peak, hi)}")
        h = 2.0 / (hi - lo)
        pts = [(lo, 0.0), (peak, h), (hi, 0.0)]
        if peak == lo:
            pts = [(lo, h), (hi, 0.0)]
        elif peak == hi:
            pts = [(lo, 0.0), (hi, h)]
        return cls.from_points(pts)

    @property
    def support(self) -> tuple[float, float]:
        return (self.points[0][0], self.points[-1][0])

    def value(self, y: float) -> float:
        lo, hi = self.support
        if y < lo or y > hi:
            return 0.0
        pts = self.points
        for (y0, v0), (y1, v1) in zip(pts, pts[1:]):
            if y <= y1:
                return v0 + (v1 - v0) * (y - y0) / (y1 - y0)
        return pts[-1][1]

    def mass(self, a: float, b: float) -> float:
        """Exact integral of the density over [a, b]."""
        lo, hi = self.support
        a = max(a, lo)
        b = min(b, hi)
        if b <= a:
            return 0.0
        total = 0.0
        pts = self.points
        for (y0, v0), (y1, v1) in zip(pts, pts[1:]):
            seg_a = max(a, y0)
            seg_b = min(b, y1)
            if seg_b <= seg_a:
                continue
            va = v0 + (v1 - v0) * (seg_a - y0) / (y1 - y0)
            vb = v0 + (v1 - v0) * (seg_b - y0) / (y1 - y0)
            total += 0.5 * (va + vb) * (seg_b - seg_a)
        return total

    def mean(self) -> float:
        """Exact first moment: integral of y * psi(y)."""
        total = 0.0
        pts = self.points
        for (y0, v0), (y1, v1) in zip(pts, pts[1:]):
            d = (v1 - v0) / (y1 - y0)
            c = v0 - d * y0
            total += c * (y1 * y1 - y0 * y0) / 2.0 + d * (y1**3 - y0**3) / 3.0
        return total

    def tail(self, t: float) -> float:
        """Mass of sensitivities >= t."""
        lo, hi = self.support
        if t <= lo:
            return self.mass(lo, hi)
        return self.mass(t, hi)

    def sup_t_tail(self) -> float:
        """sup over t >= 0 of t * tail(t), solved exactly per linear piece."""
        lo, hi = self.support
        best = lo * 1.0  # t <= lo gives t * 1, maximized at t = lo
        pts = self.points
        # walk pieces right-to-left so the tail beyond each piece is known
        suffix = 0.0
        for (y0, v0), (y1, v1) in reversed(list(zip(pts, pts[1:]))):
            d = (v1 - v0) / (y1 - y0)
            c = v0 - d * y0
            # tail(t) = suffix + c*(y1 - t) + d*(y1^2 - t^2)/2 on [y0, y1]
            # g(t) = t * tail(t); g'(t) = K - 2 c t - 1.5 d t^2, K = suffix + c y1 + d y1^2 / 2
            K = suffix + c * y1 + d * y1 * y1 / 2.0
            candidates = [y0, y1]
            if d == 0.0:
                if c != 0.0:
                    candidates.append(K / (2.0 * c))
            else:
                disc = 4.0 * c * c + 6.0 * d * K
                if disc >= 0.0:
                    root = sqrt(disc)
                    candidates.append((-2.0 * c + root) / (3.0 * d))
                    candidates.append((-2.0 * c - root) / (3.0 * d))
            for t in candidates:
                if y0 <= t <= y1:
                    g = t * (K - c * t - d * t * t / 2.0)
                    best = max(best, g)
            suffix += 0.5 * (v0 + v1) * (y1 - y0)
        return best


def sr_bound_continuous(beta: float, density: DensityFn) -> BoundValue:
    _check_beta(beta)
    return BoundValue("stability-ratio-continuous", 1.0 + beta * density.mean())


def dr_bound_continuous(beta: float, density: DensityFn) -> BoundValue:
    _check_beta(beta)
    return BoundValue("deviation-ratio-continuous", 1.0 + beta * density.sup_t_tail())


def discretize_density(
    density: DensityFn, eps_prime: float, tail_mass: float = 0.0
) -> SensitivityProfile:
    """Bucket a sensitivity density into classes of width ``eps_prime``.

    Classes cover [k*eps_prime, (k+1)*eps_prime) up to the cutoff ``alpha``
    above which exactly ``tail_mass`` probability remains; each class gets
    the bucket's mass at the bucket's *left endpoint* sensitivity.  With
    ``tail_mass`` > 0 one extra class of that demand sits at ``alpha``.
    Returns a single-commodity profile with unit total demand.
    """
    if not eps_prime > 0:
        raise InputError(f"eps_prime must be positive, got {eps_prime}")
    if not 0.0 <= tail_mass < 1.0:
        raise InputError(f"tail_mass must lie in [0, 1), got {tail_mass}")
    lo, hi = density.support
    if tail_mass == 0.0:
        alpha = hi
    else:
        # tail() decreases continuously from 1 to 0 on the support
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if density.tail(mid) > tail_mass:
                a = mid
            else:
                b = mid
        alpha = 0.5 * (a + b)
    if alpha / eps_prime > 10**7:  # ceil(alpha / eps_prime) buckets
        raise InputError("eps_prime produces more than 1e7 classes")
    demands: list[float] = []
    gammas: list[float] = []
    k = 0
    while k * eps_prime < alpha:
        left = k * eps_prime
        right = min((k + 1) * eps_prime, alpha)
        r_k = density.mass(left, right)
        if r_k > TAU_ABS:
            demands.append(r_k)
            gammas.append(left)
        k += 1
    if tail_mass > 0.0:
        demands.append(tail_mass)
        gammas.append(alpha)
    if not demands:
        raise InputError("discretization produced no classes with positive demand")
    total = sum(demands)
    demands = [d / total for d in demands]
    return SensitivityProfile.single_commodity(demands, gammas)


# -- conditioned closed forms -------------------------------------------


def _conditioned(name: str, requires: str, eps: float, q: int) -> BoundValue:
    """(1+eps)/(1-eps*q) while eps*q < 1 (echoed as ``requires``); infinite
    marker otherwise."""
    if not (isfinite(eps) and eps >= 0):
        raise InputError(f"eps must be nonnegative, got {eps}")
    if eps * q >= 1.0:
        return BoundValue(name, None, True, requires)
    return BoundValue(name, (1.0 + eps) / (1.0 - eps * q), requires=requires)


def stability_upper(eps: float, q: int) -> BoundValue:
    """(1+eps)/(1-eps*q), valid while eps*q < 1; infinite marker otherwise."""
    if not (isinstance(q, int) and q >= 0):
        raise InputError(f"q must be a nonnegative integer, got {q!r}")
    return _conditioned("stability-upper", "eps*q < 1", eps, q)


def braess_sup(eps: float, n: int) -> BoundValue:
    """Supremum of the stability ratio over the order-n ladder family.

    ``n`` is the (even) number of nodes, n = 2m with m >= 2.  Below the
    critical tolerance 1/(m-1) the supremum is (1+eps)/(1-eps*(m-1));
    at or above it the family is unbounded.
    """
    if not isinstance(n, int) or n % 2 != 0 or n < 4:
        raise InputError(f"n must be an even integer >= 4, got {n!r}")
    return _conditioned("braess-family-sup", "eps*(n/2 - 1) < 1", eps, n // 2 - 1)


def matroid_dr_bound(beta: float) -> BoundValue:
    """Deviation bound for matroid strategy spaces: 1 + beta, unconditionally."""
    _check_beta(beta)
    return BoundValue("matroid-deviation-upper", 1.0 + beta)


def matroid_sr_lower(eps: float, k: int) -> BoundValue:
    """Largest ratio of the rank-k uniform family: (1+eps)/(1-eps*(k-1)),
    unbounded once eps*(k-1) >= 1."""
    if not isinstance(k, int) or k < 2:
        raise InputError(f"k must be an integer >= 2, got {k!r}")
    return _conditioned("matroid-stability-lower", "eps*(k-1) < 1", eps, k - 1)


def abel_sum_bound(tau: Sequence[float], c: Sequence[float]) -> tuple[float, float]:
    """Summation-by-parts estimate for ordered nonnegative sequences.

    Given tau_0 >= tau_1 >= ... >= tau_{k-1} >= 0 and nonnegative weights
    c_1..c_k, returns (lhs, rhs) with

        lhs = c_1 tau_0 + sum_{i=1}^{k-1} (c_{i+1} - c_i) tau_i,
        rhs = tau_0 * max_i c_i,

    and lhs <= rhs always holds.
    """
    if len(tau) != len(c) or not tau:
        raise InputError(f"need matching nonempty sequences, got {len(tau)}/{len(c)}")
    if any(t < 0 for t in tau) or any(x < 0 for x in c):
        raise InputError("sequences must be nonnegative")
    if any(t0 < t1 for t0, t1 in zip(tau, tau[1:])):
        raise InputError(f"tau must be non-increasing, got {list(tau)}")
    lhs = c[0] * tau[0]
    for i in range(1, len(tau)):
        lhs += (c[i] - c[i - 1]) * tau[i]
    rhs = tau[0] * max(c)
    return lhs, rhs
