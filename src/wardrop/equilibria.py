"""Equilibrium solvers and verifiers for enumerated-strategy games.

Solvers
-------
``compute_nash_flow`` minimizes the convex routing potential
sum_e integral_0^{x_e} l_e(u) du on every instance (parallel links,
networks, matroids) by a linearize / best-strategy / line-search loop over
the product of demand simplices, moving mass from the costliest used
strategy to the cheapest strategy of one commodity at a time with an exact
line search: safeguarded Newton steps on the potential's slope, which stop
once the slope is within its own rounding error.  Latencies come from the
instance's compiled ``latency_bank``, one vector per step.  Termination is
by relative duality gap.

``heterogeneous_parallel_equilibrium`` handles several sensitivity classes
under edge-induced deviations by diagonalization (Florian and Spiess, 1982):
with deviations frozen at given loads each class is a commodity of a potential
game, paying gamma_j * delta_e on a private constant resource beside each e.
The frozen loads move toward each solution's by a step that starts at 1 and
halves whenever the worst slack does not shrink, until a solution passes
``verify_deviated_nash``.

Verifiers
---------
``verify_approx_nash`` checks the per-class condition
l_P(f) <= (1 + eps_ij) * l_P'(f) on used strategies;
``verify_deviated_nash`` checks the analogous condition on deviated costs
l_P(f) + gamma_ij * delta_P(f).  Both return a certificate holding the
worst slack per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, isfinite, prod

import numpy as np

from .bounds import BoundValue
from .core import (
    Commodity,
    DeviationProfile,
    Flow,
    GameInstance,
    Resource,
    SensitivityProfile,
    social_cost,
    strategy_latencies,
    require_valid_instance,
)
from .errors import ConvergenceError, InputError, InvariantError, RefusalError
from .latency import LatencyFn
from .tolerances import TAU_ABS, close_leq, demand_matches, tau_rel

SEARCH_VARIABLE_CAP = 8
SEARCH_POINT_CAP = 10**5
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class ViolationRecord:
    """Worst equilibrium-condition slack for one (commodity, class)."""

    commodity: int
    cls: int
    path: tuple[str, ...]
    witness: tuple[str, ...]
    lhs: float
    rhs: float
    slack: float

    def to_obj(self) -> dict:
        return {
            "commodity": self.commodity,
            "class": self.cls,
            "path": list(self.path),
            "witness": list(self.witness),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class EquilibriumCertificate:
    kind: str
    records: tuple[ViolationRecord, ...]
    passed: bool
    rtol: float

    @classmethod
    def from_records(cls, kind: str, records, rtol: float) -> "EquilibriumCertificate":
        """Certificate that passes when every record has lhs <= rhs within tolerance."""
        passed = all(close_leq(rec.lhs, rec.rhs, rtol=rtol) for rec in records)
        return cls(kind, tuple(records), passed, rtol)

    @property
    def worst_slack(self) -> float:
        return min((rec.slack for rec in self.records), default=0.0)

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "worst_violations": [rec.to_obj() for rec in self.records],
            "pass": self.passed,
        }


@dataclass(frozen=True)
class RatioReport:
    """Measured cost ratio next to the bound it is compared against."""

    ratio: float
    bound: BoundValue | None = None
    slack: float | None = None

    def to_obj(self) -> dict:
        return {
            "ratio": self.ratio,
            "bound": None if self.bound is None else self.bound.to_obj(),
            "slack": self.slack,
        }


# -- profile plumbing ----------------------------------------------------


def _resolve_profile(
    instance: GameInstance, flow: Flow, profile: SensitivityProfile | float | None, tau: float
) -> SensitivityProfile:
    """Coerce a profile argument into classes matching the flow's shape;
    class demands match within the relative tolerance ``tau``."""
    if profile is None or isinstance(profile, (int, float)):
        value = 0.0 if profile is None else float(profile)
        if value < 0 or not isfinite(value):
            raise InputError(f"class value must be a nonnegative float, got {profile}")
        return SensitivityProfile(
            tuple(
                tuple((d, value) for d in flow.class_demands[i])
                for i in range(len(instance.commodities))
            )
        )
    profile.validate(instance)
    for i in range(len(instance.commodities)):
        if len(profile.classes[i]) != len(flow.class_demands[i]):
            raise InputError(
                f"commodity {i}: profile has {len(profile.classes[i])} classes, "
                f"flow has {len(flow.class_demands[i])}"
            )
        for j, (dem, _) in enumerate(profile.classes[i]):
            if not demand_matches(flow.class_demands[i][j], dem, tau):
                raise InputError(
                    f"commodity {i} class {j}: profile demand {dem} does not match "
                    f"flow class demand {flow.class_demands[i][j]}"
                )
    return profile


# -- verification ---------------------------------------------------------


def _worst_used(i: int, strategies, costs: np.ndarray, used: np.ndarray, witness, rhs):
    """Per class of commodity i that uses a strategy (mask ``used``), a record
    of its costliest used strategy, the first among equals, against the
    class's ``witness`` and ``rhs``.  ``costs`` has one row per class, or one
    row for all."""
    masked = np.where(used, costs, -np.inf)
    worst = masked.argmax(axis=1)
    lhs = masked[np.arange(len(masked)), worst]
    return [
        ViolationRecord(i, j, strategies[p], strategies[witness[j]], l, rhs[j], rhs[j] - l)
        for j, (p, l) in enumerate(zip(worst.tolist(), lhs.tolist()))
        if l != -np.inf
    ]


def verify_approx_nash(
    instance: GameInstance,
    flow: Flow,
    eps: SensitivityProfile | float,
    *,
    rtol: float | None = None,
) -> EquilibriumCertificate:
    """Check l_P(f) <= (1 + eps_ij) * l_P'(f) for every used P and every P'.

    ``eps`` is either a single factor shared by all classes or a profile
    whose values are read as per-class approximation factors.  ``rtol``
    defaults to ``tau_rel()``.
    """
    tau = tau_rel()
    rtol = tau if rtol is None else rtol
    profile = _resolve_profile(instance, flow, eps, tau)
    records: list[ViolationRecord] = []
    for i, commodity in enumerate(instance.commodities):
        lat = np.array([strategy_latencies(instance, i, flow.loads)])
        witness_p = int(lat.argmin())
        min_lat = float(lat[0, witness_p])
        rhs = [(1.0 + eps_j) * min_lat for _, eps_j in profile.classes[i]]
        records += _worst_used(
            i, commodity.strategies, lat, flow.values[i] > TAU_ABS,
            [witness_p] * len(rhs), rhs,
        )
    return EquilibriumCertificate.from_records("approx-nash", records, rtol)


def verify_deviated_nash(
    instance: GameInstance,
    flow: Flow,
    deviations: DeviationProfile,
    profile: SensitivityProfile | float | None = None,
    *,
    rtol: float | None = None,
) -> EquilibriumCertificate:
    """Check the bounded-deviation equilibrium condition per class:
    used strategies minimize l_P(f) + gamma_ij * delta_P(f).

    Deviations must lie in the bounded set at this flow (InputError if not).
    ``profile`` defaults to homogeneous sensitivity 1, ``rtol`` to ``tau_rel()``.
    """
    tau = tau_rel()
    rtol = tau if rtol is None else rtol
    if profile is None:
        profile = 1.0
    prof = _resolve_profile(instance, flow, profile, tau)
    deviations.check_membership(instance, flow)
    records: list[ViolationRecord] = []
    for i, commodity in enumerate(instance.commodities):
        lat = np.array(strategy_latencies(instance, i, flow.loads))
        dev = np.array(deviations.strategy_deviations(instance, i, flow.loads))
        gammas = np.array([gamma for _, gamma in prof.classes[i]])
        costs = lat + np.multiply.outer(gammas, dev)
        witness = costs.argmin(axis=1)
        rhs = costs[np.arange(len(costs)), witness]
        records += _worst_used(
            i, commodity.strategies, costs, flow.values[i] > TAU_ABS,
            witness.tolist(), rhs.tolist(),
        )
    return EquilibriumCertificate.from_records("deviated-nash", records, rtol)


def deviations_from_approx(
    instance: GameInstance, flow: Flow, eps: float, gamma: float = 1.0
) -> DeviationProfile:
    """Construct explicit deviations that support an approximate equilibrium.

    Single commodity, homogeneous population.  Used strategies receive the
    gap to the costliest used strategy (divided by the sensitivity), unused
    strategies receive the maximal allowed deviation beta * l_P(f) with
    beta = eps / gamma.  The result always passes ``verify_deviated_nash``.
    """
    if len(instance.commodities) != 1 or len(flow.values[0]) != 1:
        raise InputError("deviation construction needs one commodity and one class")
    if not (isfinite(eps) and eps >= 0):
        raise InputError(f"eps must be nonnegative, got {eps}")
    if not (isfinite(gamma) and gamma > 0):
        raise InputError(f"gamma must be positive, got {gamma}")
    cert = verify_approx_nash(instance, flow, eps)
    if not cert.passed:
        raise InputError(
            f"flow is not {eps}-approximate (worst slack {cert.worst_slack})"
        )
    beta = eps / gamma
    lat = strategy_latencies(instance, 0, flow.loads)
    used = set(flow.used(0, 0))
    l_max = max(lat[p] for p in used)
    values = tuple(
        max(0.0, (l_max - v) / gamma) if p in used else beta * v for p, v in enumerate(lat)
    )
    return DeviationProfile(beta=beta, strategy_values=(values,))


def verify_deviation_implies_approx(
    instance: GameInstance,
    flow: Flow,
    deviations: DeviationProfile,
    profile: SensitivityProfile | float | None = None,
) -> EquilibriumCertificate:
    """Re-verify a deviated equilibrium as approximate with eps = beta*gamma.

    Requires the flow to pass ``verify_deviated_nash`` first; the returned
    approximate certificate then holds by inclusion of the deviation model
    in the approximation model.  Both checks use ``tau_rel()``.
    """
    rtol = tau_rel()
    cert = verify_deviated_nash(instance, flow, deviations, profile, rtol=rtol)
    if not cert.passed:
        raise InputError(
            f"flow is not a bounded-deviation equilibrium (worst slack {cert.worst_slack})"
        )
    eps = approx_factors(1.0 if profile is None else profile, deviations.beta)
    return verify_approx_nash(instance, flow, eps, rtol=rtol)


def approx_factors(
    profile: SensitivityProfile | float, beta: float
) -> SensitivityProfile | float:
    """Per-class approximation factors beta * gamma_ij of sensitivities
    ``profile``: a scalar stays a scalar, and beta = 0 gives the scalar 0
    (scaling a profile by zero would tie its class values)."""
    if isinstance(profile, SensitivityProfile):
        return 0.0 if beta == 0.0 else profile.scaled(beta)
    return beta * float(profile)


# -- potential minimization ------------------------------------------------


def _line_search(fns, loads: np.ndarray, delta: np.ndarray, tmax: float) -> float:
    """argmin over t in [0, tmax] of the potential along loads + t*delta.

    Newton's method on the slope dphi(t) = sum_e d_e * l_e(x_e + t*d_e),
    inside the bracket [0, tmax]: an iterate outside the bracket falls back
    to a secant step, then to bisection.  It stops once |dphi(t)| lies within
    its own rounding error k * 2**-52 * sum_e |d_e| * (l_e + l'_e * y_e) over
    the k touched resources at loads y_e = x_e + t*d_e.
    """
    touched = np.flatnonzero(delta)
    # plain floats: the scalar latencies run several times faster on them
    terms = list(zip([fns[e] for e in touched], loads[touched].tolist(), delta[touched].tolist()))
    ulps = len(terms) * 2.0**-52

    def dphi(t: float) -> tuple[float, float, float]:
        """dphi(t), its derivative in t and its rounding error."""
        g = h = err = 0.0
        for fn, x, d in terms:
            y = x + t * d
            v, s = fn.value_slope(y)
            g += d * v
            h += d * d * s
            err += abs(d) * (v + s * y)
        return g, h, ulps * err

    t = 0.0
    g, h, err = dphi(t)
    if g >= 0.0:
        return 0.0
    a, ga, b, gb = t, g, tmax, None  # dphi(a) < 0 <= dphi(b); gb is None until b is evaluated
    for _ in range(100):
        if abs(g) <= err:
            return t
        u = t - g / h if h > 0.0 else (b if g < 0.0 else a)
        if u == t:
            return t  # the Newton correction is below the resolution of t
        if gb is None and u >= b:
            u = b
        elif not a < u < b:
            u = a - ga * (b - a) / (gb - ga)
            if not a < u < b:
                u = 0.5 * (a + b)
                if not a < u < b:
                    return a  # a and b are adjacent doubles
        t = u
        g, h, err = dphi(t)
        if g < 0.0:
            if t == tmax:
                return t
            a, ga = t, g
        else:
            b, gb = t, g
    return a


def _frank_wolfe(
    instance: GameInstance, target_gap: float, max_iter: int, rtol: float,
    start: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], float]:
    """Minimize the routing potential; returns per-commodity strategy flows
    and the achieved relative duality gap.

    Starts from the feasible strategy flows ``start`` when given, otherwise
    from the all-or-nothing assignment at zero load."""
    n = len(instance.resources)
    fns = [res.latency for res in instance.resources]
    bank = instance.latency_bank
    incidences: list[np.ndarray] = []
    demands = [commodity.demand for commodity in instance.commodities]
    for table in instance.strategy_table:
        # one pad column catches the padding, then is dropped
        inc = np.zeros((len(table), n + 1))
        inc[np.arange(len(table))[:, None], table] = 1.0
        incidences.append(np.ascontiguousarray(inc[:, :n]))

    supports: list[np.ndarray] = []  # the flow-carrying strategies, ascending
    if start is None:
        flows = [np.zeros(inc.shape[0]) for inc in incidences]
        loads = np.zeros(n)
        latv = bank(loads)
        for i, inc in enumerate(incidences):
            best = int(np.argmin(inc @ latv))
            flows[i][best] = demands[i]
            supports.append(np.array([best]))
            loads = loads + demands[i] * inc[best]
    else:
        flows = [np.array(f, dtype=float) for f in start]
        # a zero-demand commodity keeps one (empty) strategy in its support
        supports = [np.flatnonzero(f > 0.0) if f.any() else np.zeros(1, np.intp) for f in flows]
        loads = _recompute(incidences, flows, supports, n)

    def strategy_costs() -> list[np.ndarray]:
        latv = bank(loads)
        return [inc @ latv for inc in incidences]

    def progress(costs: list[np.ndarray]) -> tuple[float, bool]:
        """(relative duality gap, whether every flow-carrying strategy is
        within the certificate margin of the cheapest one).

        The aggregate gap alone can hide crumbs of flow on costly strategies.
        """
        gap = 0.0
        cost = 0.0
        settled = True
        for f, c, demand in zip(flows, costs, demands):
            fc = float(f @ c)
            cmin = float(np.min(c))
            cost += fc
            gap += fc - demand * cmin
            active = np.flatnonzero(f > TAU_ABS)
            if active.size:
                worst = float(np.max(c[active]))
                settled = settled and close_leq(worst, cmin, rtol=0.5 * rtol)
        return gap / max(cost, TAU_ABS), settled

    steps = 0
    costs = strategy_costs()
    while True:
        moved = False
        for i, inc in enumerate(incidences):
            # until a step of this pass moves the loads, progress() priced them
            c = inc @ bank(loads) if moved else costs[i]
            best = int(np.argmin(c))
            active = supports[i]
            worst = int(active[np.argmax(c[active])])
            if worst == best or c[worst] - c[best] <= 0.0:
                continue
            delta = inc[best] - inc[worst]
            t = _line_search(fns, loads, delta, float(flows[i][worst]))
            steps += 1
            if t > 0.0:
                flows[i][best] += t
                flows[i][worst] -= t
                if flows[i][worst] < 0.0:
                    flows[i][worst] = 0.0
                supports[i] = np.flatnonzero(flows[i] > 0.0)
                loads = loads + t * delta
                moved = True
            if steps > max_iter:
                loads = _recompute(incidences, flows, supports, n)
                achieved, _ = progress(strategy_costs())
                raise ConvergenceError(
                    f"potential minimization exceeded {max_iter} iterations "
                    f"(relative duality gap {achieved:.3e}, target {target_gap:.3e})",
                    achieved=achieved,
                )
        loads = _recompute(incidences, flows, supports, n)
        np.maximum(loads, 0.0, out=loads)
        costs = strategy_costs()
        rel, settled = progress(costs)
        if rel <= target_gap and settled:
            return flows, rel
        if not moved:
            raise ConvergenceError(
                f"potential minimization stalled at relative duality gap {rel:.3e} "
                f"(target {target_gap:.3e})",
                achieved=rel,
            )


def _recompute(incidences, flows, supports, n) -> np.ndarray:
    """Loads from the flow-carrying strategies alone."""
    loads = np.zeros(n)
    for inc, f, s in zip(incidences, flows, supports):
        loads += f[s] @ inc[s]
    return loads


def relative_duality_gap(instance: GameInstance, flow: Flow) -> float:
    """Relative duality gap of a flow for the routing potential:
    (sum_P f_P l_P - sum_i r_i min_P l_P) / total cost."""
    gap = 0.0
    cost = 0.0
    for i in range(len(instance.commodities)):
        lat = strategy_latencies(instance, i, flow.loads)
        totals = flow.strategy_totals(i)
        commodity_cost = sum(v * lat[p] for p, v in enumerate(totals))
        cost += commodity_cost
        gap += commodity_cost - instance.commodities[i].demand * min(lat)
    return gap / max(cost, TAU_ABS)


def beckmann_potential(instance: GameInstance, flow: Flow) -> float:
    """Value of the routing potential sum_e integral_0^{x_e} l_e."""
    return sum(
        res.latency.integral(flow.loads[k]) for k, res in enumerate(instance.resources)
    )


def compute_nash_flow(
    instance: GameInstance, profile: SensitivityProfile | None = None
) -> Flow:
    """Equilibrium flow of the plain game (deviations ignored), by potential
    minimization to the relative duality gap min(tau_rel, 1e-11).

    The returned flow passes ``verify_approx_nash`` with eps = 0 at the
    relative tolerance.  When ``profile`` is given the equilibrium is split
    across classes pro rata (sensitivities do not matter without
    deviations).
    """
    require_valid_instance(instance)
    if profile is not None:
        profile.validate(instance)
    rtol = tau_rel()
    flows, _ = _frank_wolfe(instance, min(rtol, 1e-11), DEFAULT_MAX_ITER, rtol)
    if profile is None:
        flow = Flow.single_class(instance, flows)
    else:
        flow = Flow.spread_classes(instance, flows, profile)
    cert = verify_approx_nash(instance, flow, 0.0, rtol=rtol)
    if not cert.passed:
        raise ConvergenceError(
            f"solver output fails the equilibrium check (worst slack {cert.worst_slack})",
            achieved=cert.worst_slack,
        )
    return flow


# -- deviated equilibria by diagonalization ----------------------------------


def heterogeneous_parallel_equilibrium(
    instance: GameInstance,
    deviations: DeviationProfile,
    profile: SensitivityProfile,
    *,
    max_rounds: int = DEFAULT_MAX_ITER,
) -> Flow:
    """Multi-class equilibrium under edge-induced deviations, by
    diagonalization (module docstring).  Each round solves to the margin
    tol = max(tau_rel, min(1e-3, |last worst slack| / 10)) and the gap tol / 100,
    but only a flow that passes ``verify_deviated_nash`` at tau_rel is returned;
    after ``max_rounds`` rounds ``ConvergenceError`` carries the last worst slack.
    """
    if not deviations.edge_induced:
        raise InputError("heterogeneous solver requires edge-induced deviations")
    if max_rounds < 1:
        raise InputError(f"max_rounds must be at least 1, got {max_rounds}")
    rtol = tau_rel()
    # the plain equilibrium split pro rata; this also validates the profile
    flow = compute_nash_flow(instance, profile)
    # Class j of commodity i crosses a private resource beside each resource
    # with a deviation function, even where delta_e is 0, so the strategies
    # stay fixed across rounds; tuple ids equal no resource id.
    private: list[tuple[float, int]] = []  # (gamma_j, resource position)
    commodities = []
    for i, commodity in enumerate(instance.commodities):
        for demand, gamma in profile.classes[i]:
            beside = {}
            for k, res in enumerate(instance.resources):
                if gamma > 0.0 and res.id in deviations.edge_fns:
                    beside[res.id] = ("deviation", len(private))
                    private.append((gamma, k))
            commodities.append(Commodity(demand, tuple(
                strat + tuple(beside[rid] for rid in strat if rid in beside)
                for strat in commodity.strategies
            )))

    flows = [row for rows in flow.values for row in rows]
    frozen = np.array(flow.loads)
    slack, step = 0.0, 1.0
    for _ in range(max_rounds):
        delta = [deviations.edge_value(instance, res.id, x)
                 for res, x in zip(instance.resources, frozen.tolist())]
        game = GameInstance(instance.resources + tuple(
            Resource(("deviation", m), LatencyFn.constant(gamma * delta[k]))
            for m, (gamma, k) in enumerate(private)
        ), tuple(commodities))
        tol = max(rtol, min(1e-3, abs(slack) / 10))
        flows, _ = _frank_wolfe(game, 1e-2 * tol, DEFAULT_MAX_ITER, tol, start=flows)
        rows = iter(flows)
        flow = Flow.build(instance, [[next(rows) for _ in c] for c in profile.classes], profile)
        cert = verify_deviated_nash(instance, flow, deviations, profile, rtol=rtol)
        if cert.passed:
            return flow
        if abs(cert.worst_slack) >= abs(slack) > 0.0:
            step *= 0.5
        slack = cert.worst_slack
        frozen += step * (np.array(flow.loads) - frozen)
    raise ConvergenceError(
        f"no certified deviated equilibrium in {max_rounds} rounds (worst slack {slack:.3e})",
        achieved=slack,
    )


# -- exhaustive search and ratios ------------------------------------------


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def worst_approx_search(
    instance: GameInstance,
    eps: SensitivityProfile | float,
    grid: float,
) -> tuple[Flow, RatioReport]:
    """Costliest approximate equilibrium on a demand grid, by enumeration.

    The grid places ``round(demand / grid)`` equal steps per class simplex.
    Refuses instances with more than 8 strategy-class variables or more than
    10^5 grid points.  Ties are broken toward the lexicographically smallest
    flow vector.
    """
    require_valid_instance(instance)
    tau = tau_rel()
    if not (0.0 < grid <= 0.5):
        raise InputError(
            f"grid step must lie in (0, 0.5] (two points per unit demand), got {grid}"
        )
    if isinstance(eps, SensitivityProfile):
        eps.validate(instance)
        class_specs = [list(eps.classes[i]) for i in range(len(instance.commodities))]
        profile: SensitivityProfile | None = eps
    else:
        value = float(eps)
        class_specs = [[(c.demand, value)] for c in instance.commodities]
        profile = None
    dims = sum(
        len(specs) * len(c.strategies)
        for specs, c in zip(class_specs, instance.commodities)
    )
    if dims > SEARCH_VARIABLE_CAP:
        raise RefusalError(
            f"search space has {dims} strategy-class variables, cap is {SEARCH_VARIABLE_CAP}"
        )

    n = len(instance.resources)
    strat_idx = instance.strategy_ids

    # refused before rounding, where a subnormal step overflows demand / grid
    if max(dem for specs in class_specs for dem, _ in specs) / grid > SEARCH_POINT_CAP:
        raise RefusalError(f"grid step {grid} splits a class demand into more than "
                           f"{SEARCH_POINT_CAP} steps, cap is {SEARCH_POINT_CAP}")
    # (commodity, class demand, eps, steps, strategies) per class simplex
    simplices = [
        (i, dem, eps_j, max(1, round(dem / grid)), len(instance.commodities[i].strategies))
        for i, specs in enumerate(class_specs)
        for dem, eps_j in specs
    ]
    points = prod(comb(steps + parts - 1, parts - 1) for *_, steps, parts in simplices)
    if points > SEARCH_POINT_CAP:
        raise RefusalError(f"search grid has {points} points, cap is {SEARCH_POINT_CAP}")
    blocks = [  # (commodity, class demand, eps, candidate rows)
        (i, dem, eps_j, [tuple(dem * k / steps for k in comp)
                         for comp in _compositions(steps, parts)])
        for i, dem, eps_j, steps, parts in simplices
    ]

    best_cost = -1.0
    best_choice = None
    for choice in product(*(rows for _, _, _, rows in blocks)):
        loads = [0.0] * n
        for (i, _, _, _), row in zip(blocks, choice):
            for p, v in enumerate(row):
                if v:
                    for e in strat_idx[i][p]:
                        loads[e] += v
        lat = instance.latencies(loads)
        strat_lat = [
            [sum(lat[e] for e in ids) for ids in strat_idx[i]]
            for i in range(len(instance.commodities))
        ]
        if not all(
            close_leq(strat_lat[i][p], (1.0 + eps_j) * min(strat_lat[i]), rtol=tau)
            for (i, _, eps_j, _), row in zip(blocks, choice)
            for p, v in enumerate(row)
            if v > TAU_ABS
        ):
            continue
        cost = sum(loads[e] * lat[e] for e in range(n))
        if cost > best_cost:
            best_cost = cost
            best_choice = choice
    if best_choice is None:
        raise InvariantError("no grid flow satisfies the approximation condition")

    values: list[list[list[float]]] = [[] for _ in instance.commodities]
    for (i, _, _, _), row in zip(blocks, best_choice):
        values[i].append(list(row))
    flow = Flow.build(instance, values, profile)
    cert = verify_approx_nash(instance, flow, eps, rtol=tau)
    if not cert.passed:
        raise InvariantError(
            "grid search selected a flow that fails verification "
            f"(worst slack {cert.worst_slack})"
        )
    reference = compute_nash_flow(instance)
    return flow, empirical_ratio(instance, flow, reference)


def empirical_ratio(instance: GameInstance, tested: Flow, reference: Flow) -> RatioReport:
    """Cost of the tested flow over the cost of the reference flow.

    Attaches the bound recorded in the instance metadata when present.
    """
    cost_ref = social_cost(instance, reference)
    if cost_ref <= TAU_ABS:
        raise InputError(f"reference flow has near-zero cost {cost_ref}")
    ratio = social_cost(instance, tested) / cost_ref
    bound = None
    slack = None
    if instance.meta and "bound" in instance.meta:
        bound = BoundValue.from_obj(instance.meta["bound"])
        if not bound.infinite:
            slack = bound.as_float - ratio
    return RatioReport(ratio=ratio, bound=bound, slack=slack)
