"""Congestion games whose strategies are the bases of a uniform matroid.

A rank-k uniform matroid game routes demand over k-subsets of the ground
set; deviations attach per edge and add up along a basis.  Verification can
either enumerate every basis or exploit the exchange property: a basis is
cheapest overall exactly when no single-element swap improves it.  The
module also builds the k-uniform family whose equilibrium degradation
reaches (1+eps)/(1-eps*(k-1)) and grows without bound past the critical
tolerance, and evaluates the two exchange inequalities behind the 1+beta
cost bound for bounded-deviation equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb, isfinite

from .bounds import BoundValue, matroid_dr_bound, matroid_sr_lower
from .core import (
    Commodity,
    DeviationProfile,
    Flow,
    GameInstance,
    Resource,
)
from .equilibria import (
    EquilibriumCertificate,
    ViolationRecord,
    compute_nash_flow,
    verify_approx_nash,
    verify_deviated_nash,
)
from .errors import InputError, InvariantError, RefusalError
from .jsonio import _load_json, dumps_canonical
from .latency import DeviationFn, LatencyFn
from .tolerances import TAU_ABS, close_leq, tau_rel

BASIS_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class UniformMatroidGame:
    """Ground set with latencies, rank, and one commodity of given demand."""

    resources: tuple[Resource, ...]
    rank: int
    demand: float = 1.0
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        ids = [res.id for res in self.resources]
        if len(set(ids)) != len(ids) or not ids:
            raise InputError("ground set needs distinct, nonempty resource ids")
        for res in self.resources:
            res.latency.validate()
        if not isinstance(self.rank, int) or not 1 <= self.rank <= len(ids):
            raise InputError(
                f"rank must be an integer in 1..{len(ids)}, got {self.rank!r}"
            )
        if not (isfinite(self.demand) and self.demand > 0):
            raise InputError(f"demand must be positive, got {self.demand}")

    @property
    def ground_ids(self) -> tuple[str, ...]:
        return tuple(res.id for res in self.resources)

    def basis_count(self) -> int:
        return comb(len(self.resources), self.rank)

    @cached_property
    def bases(self) -> tuple[tuple[str, ...], ...]:
        """All rank-subsets in lexicographic ground-set order."""
        count = self.basis_count()
        if count > BASIS_CAP:
            raise RefusalError(
                f"{count} bases exceed the enumeration cap of {BASIS_CAP}"
            )
        return tuple(combinations(self.ground_ids, self.rank))

    @cached_property
    def instance(self) -> GameInstance:
        """Enumerated-strategy view; cached so flows stay attached to it."""
        return GameInstance(
            resources=self.resources,
            commodities=(Commodity(self.demand, self.bases),),
            graph=None,
            meta=self.meta,
        )


def matroid_nash_flow(game: UniformMatroidGame) -> Flow:
    """Equilibrium flow over the enumerated bases (certificate-checked)."""
    return compute_nash_flow(game.instance)


def _edge_weights(
    game: UniformMatroidGame,
    flow: Flow,
    deviations: DeviationProfile | None,
    gamma: float,
) -> list[float]:
    weights = game.instance.latencies(flow.loads)
    if deviations is not None:
        for k, res in enumerate(game.resources):
            weights[k] += gamma * deviations.edge_value(game.instance, res.id, flow.loads[k])
    return weights


def verify_matroid_deviated(
    game: UniformMatroidGame,
    flow: Flow,
    deviations: DeviationProfile | None = None,
    gamma: float = 1.0,
    *,
    method: str = "swap",
    cross_check: bool = False,
    rtol: float | None = None,
) -> EquilibriumCertificate:
    """Check that used bases minimize latency plus gamma-weighted deviation.

    ``method="swap"`` compares each used basis only against its single-element
    exchanges; by the exchange property of matroids this is equivalent to
    comparing against every basis (``method="full"``), which ``cross_check``
    re-runs as an oracle.  ``deviations=None`` checks the plain equilibrium
    condition.  ``rtol`` defaults to ``tau_rel()``.
    """
    if method not in ("swap", "full"):
        raise InputError(f"method must be 'swap' or 'full', got {method!r}")
    if flow.instance is not game.instance:
        raise InputError("flow was built for a different instance than this game")
    if not (isfinite(gamma) and gamma >= 0):
        raise InputError(f"gamma must be a nonnegative float, got {gamma}")
    if deviations is not None and not deviations.edge_induced:
        raise InputError(
            "matroid deviations must be edge-induced (per-strategy tables do "
            "not define single-swap costs)"
        )
    rtol = tau_rel() if rtol is None else rtol
    if method == "full":
        if deviations is None:
            cert = verify_approx_nash(game.instance, flow, 0.0, rtol=rtol)
        else:
            cert = verify_deviated_nash(game.instance, flow, deviations, gamma, rtol=rtol)
        cert = EquilibriumCertificate("matroid-deviated-full", cert.records, cert.passed, rtol)
    else:
        if deviations is not None:
            deviations.check_membership(game.instance, flow)
        weights = _edge_weights(game, flow, deviations, gamma)
        ground = game.ground_ids
        records: list[ViolationRecord] = []
        for j in range(len(flow.values[0])):
            used = flow.used(0, j)
            if not used:
                continue
            worst = None
            for p in used:
                basis = game.bases[p]
                members = game.instance.strategy_ids[0][p]
                inside = set(members)
                q_basis = sum(weights[k] for k in members)
                out = [k for k in range(len(ground)) if k not in inside]
                if out:
                    # equal weights are ordered by ground-set position
                    drop = max(members, key=lambda k: (weights[k], k))
                    add = min(out, key=lambda k: (weights[k], k))
                    q_swap = q_basis - weights[drop] + weights[add]
                    witness = tuple(ground[k] for k in sorted((inside - {drop}) | {add}))
                    rhs = min(q_basis, q_swap)
                    if rhs == q_basis:
                        witness = basis
                else:
                    rhs = q_basis
                    witness = basis
                slack = rhs - q_basis
                if worst is None or slack < worst[0]:
                    worst = (slack, basis, witness, q_basis, rhs)
            slack, basis, witness, lhs, rhs = worst
            records.append(
                ViolationRecord(
                    commodity=0, cls=j, path=basis, witness=witness,
                    lhs=lhs, rhs=rhs, slack=slack,
                )
            )
        cert = EquilibriumCertificate.from_records("matroid-deviated-swap", records, rtol)
    if cross_check:
        other = verify_matroid_deviated(
            game, flow, deviations, gamma,
            method="full" if method == "swap" else "swap",
            cross_check=False, rtol=rtol,
        )
        if other.passed != cert.passed:
            raise InvariantError(
                "single-swap and full-enumeration verification disagree "
                f"({cert.passed} vs {other.passed}); exchange property violated"
            )
    return cert


def gen_matroid_unbounded(
    k: int, eps: float, M: float | None = None
) -> tuple[UniformMatroidGame, Flow, Flow]:
    """Rank-k game on k+1 resources whose approximate equilibrium costs M
    times the equilibrium.

    Resource e0 has latency 1; e1..ek rise from 0 through ((k-1)/k, 1) to
    (1, M).  The equilibrium z spreads 1/k over the bases containing e0; the
    flow x puts everything on {e1,...,ek} and is eps-approximate exactly when
    k*M <= (1+eps)*(1+(k-1)*M).  Below the critical tolerance M defaults to
    the largest admissible value (1+eps)/(1-eps*(k-1)); above it any M works.
    """
    if not isinstance(k, int) or k < 2:
        raise InputError(f"k must be an integer >= 2, got {k!r}")
    if not (isfinite(eps) and eps >= 0):
        raise InputError(f"eps must be a nonnegative float, got {eps}")
    subcritical = eps * (k - 1) < 1.0
    if M is None:
        if not subcritical:
            raise InputError(
                f"eps={eps} is supercritical for k={k} (eps*(k-1) >= 1): "
                "any ratio is attainable, pass M explicitly"
            )
        M = (1.0 + eps) / (1.0 - eps * (k - 1))
    else:
        M = float(M)
        if not (isfinite(M) and M >= 1.0):
            raise InputError(f"M must be a float >= 1, got {M}")
        lhs, rhs = k * M, (1.0 + eps) * (1.0 + (k - 1) * M)
        if not close_leq(lhs, rhs, rtol=tau_rel()):
            raise InputError(
                f"M={M} breaks the equilibrium condition k*M <= (1+eps)*(1+(k-1)*M) "
                f"({lhs} > {rhs}); the largest admissible value is "
                f"{(1.0 + eps) / (1.0 - eps * (k - 1))}"
            )
    rising = LatencyFn.piecewise_linear(
        [(0.0, 0.0), ((k - 1) / k, 1.0), (1.0, M)], final_slope=k * (M - 1.0)
    )
    resources = [Resource("e0", LatencyFn.constant(1.0))]
    resources += [Resource(f"e{j}", rising) for j in range(1, k + 1)]
    bound = matroid_sr_lower(eps, k)
    game = UniformMatroidGame(
        resources=tuple(resources),
        rank=k,
        demand=1.0,
        meta={
            "family": "matroid-unbounded",
            "params": {"k": k, "eps": eps, "M": M},
            "bound": bound.to_obj(),
            "achieved": M,
        },
    )
    # combinations() omits e_k first and e_0 last: the final basis is x's.
    n_bases = game.basis_count()
    z_vals = [0.0] * n_bases
    for b in range(n_bases - 1):
        z_vals[b] = 1.0 / k
    x_vals = [0.0] * (n_bases - 1) + [1.0]
    x = Flow.single_class(game.instance, [x_vals])
    z = Flow.single_class(game.instance, [z_vals])
    return game, x, z


@dataclass(frozen=True)
class ClaimRecord:
    """One evaluated inequality: ok means lhs <= rhs within tolerance."""

    resource: str | None
    lhs: float
    rhs: float
    margin: float
    ok: bool

    def to_obj(self) -> dict:
        return {
            "resource": self.resource,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ExchangeClaimsReport:
    """Both exchange inequalities behind the 1+beta cost bound.

    Per overloaded resource (x_e > z_e): l_e(x_e) <= (1+beta) * l_e(z_e).
    Aggregate: sum_{x_e>z_e} (x_e-z_e) l_e(x_e)
               <= (1+beta) * sum_{z_e>=x_e} (z_e-x_e) l_e(x_e).
    """

    per_resource: tuple[ClaimRecord, ...]
    aggregate: ClaimRecord
    passed: bool

    def to_obj(self) -> dict:
        return {
            "per_resource": [rec.to_obj() for rec in self.per_resource],
            "aggregate": self.aggregate.to_obj(),
            "pass": self.passed,
        }


def check_matroid_exchange_claims(
    game: UniformMatroidGame,
    x: Flow,
    z: Flow,
    beta: float,
) -> ExchangeClaimsReport:
    """Evaluate the exchange inequalities comparing a bounded-deviation
    equilibrium x with an equilibrium z (both with sensitivity bound beta).

    The caller is expected to have verified x and z; this inspects only
    loads and latencies and reports margins at ``tau_rel()``.
    """
    if not (isfinite(beta) and beta >= 0):
        raise InputError(f"beta must be a nonnegative float, got {beta}")
    if x.instance is not game.instance or z.instance is not game.instance:
        raise InputError("flows were built for a different instance than this game")
    rtol = tau_rel()
    per_resource: list[ClaimRecord] = []
    over_sum = 0.0
    under_sum = 0.0
    passed = True
    for k, res in enumerate(game.resources):
        xe, ze = x.loads[k], z.loads[k]
        lat_x = res.latency(xe)
        if xe > ze + TAU_ABS:
            lhs = lat_x
            rhs = (1.0 + beta) * res.latency(ze)
            ok = close_leq(lhs, rhs, rtol=rtol)
            per_resource.append(ClaimRecord(res.id, lhs, rhs, rhs - lhs, ok))
            passed = passed and ok
            over_sum += (xe - ze) * lat_x
        else:
            under_sum += (ze - xe) * lat_x
    agg_rhs = (1.0 + beta) * under_sum
    agg_ok = close_leq(over_sum, agg_rhs, rtol=rtol)
    aggregate = ClaimRecord(None, over_sum, agg_rhs, agg_rhs - over_sum, agg_ok)
    return ExchangeClaimsReport(
        per_resource=tuple(per_resource),
        aggregate=aggregate,
        passed=passed and agg_ok,
    )


def matroid_cost_ratio_ok(
    game: UniformMatroidGame, x: Flow, z: Flow, beta: float
) -> bool:
    """C(x) <= (1+beta) * C(z) within relative tolerance."""
    cx = sum(x.loads[k] * res.latency(x.loads[k]) for k, res in enumerate(game.resources))
    cz = sum(z.loads[k] * res.latency(z.loads[k]) for k, res in enumerate(game.resources))
    bound: BoundValue = matroid_dr_bound(beta)
    rhs = bound.as_float * cz
    return close_leq(cx, rhs, rtol=tau_rel())


# -- serialization ---------------------------------------------------------


def game_to_obj(
    game: UniformMatroidGame, deviations: DeviationProfile | None = None
) -> dict:
    obj: dict = {
        "ground_set": [
            {"id": res.id, "latency": res.latency.to_obj()} for res in game.resources
        ],
        "rank": game.rank,
        "demand": game.demand,
    }
    if deviations is not None:
        if deviations.edge_fns is None:
            raise InputError("matroid deviations must be edge-induced")
        obj["beta"] = deviations.beta
        obj["edge_deviations"] = {
            rid: fn.to_obj() for rid, fn in deviations.edge_fns.items()
        }
    if game.meta is not None:
        obj["meta"] = game.meta
    return obj


def game_from_obj(obj: dict) -> tuple[UniformMatroidGame, DeviationProfile | None]:
    if not isinstance(obj, dict) or "ground_set" not in obj:
        raise InputError("matroid game object needs a 'ground_set' field")
    try:
        resources = tuple(
            Resource(str(entry["id"]), LatencyFn.from_obj(entry["latency"]))
            for entry in obj["ground_set"]
        )
        game = UniformMatroidGame(
            resources=resources,
            rank=int(obj["rank"]),
            demand=float(obj["demand"]),
            meta=obj.get("meta"),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed matroid game object: {exc}") from exc
    deviations = None
    if "edge_deviations" in obj:
        try:
            deviations = DeviationProfile(
                beta=float(obj.get("beta", 0.0)),
                edge_fns={
                    str(rid): DeviationFn.from_obj(fn)
                    for rid, fn in obj["edge_deviations"].items()
                },
            )
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise InputError(f"malformed edge deviations: {exc}") from exc
    return game, deviations


def write_game(
    path, game: UniformMatroidGame, deviations: DeviationProfile | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_canonical(game_to_obj(game, deviations)))
        handle.write("\n")


def read_game(path) -> tuple[UniformMatroidGame, DeviationProfile | None]:
    return game_from_obj(_load_json(path, "game file"))


__all__ = [
    "BASIS_CAP",
    "UniformMatroidGame",
    "matroid_nash_flow",
    "verify_matroid_deviated",
    "gen_matroid_unbounded",
    "ClaimRecord",
    "ExchangeClaimsReport",
    "check_matroid_exchange_claims",
    "matroid_cost_ratio_ok",
    "game_to_obj",
    "game_from_obj",
    "write_game",
    "read_game",
]
