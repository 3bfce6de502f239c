"""Exact-arithmetic oracle for ``verify_approx_nash`` and ``verify_deviated_nash``.

Loads, latencies, deviations and strategy costs are recomputed in
``fractions`` from a flow's float entries.  For every class record, the float
verdict must equal the exact one, and the record's strategy must be the
exactly costliest used strategy (the first among equals), except where the
exact margin, or the gap to another used strategy, lies within BAND_ULPS ulps
of |rhs|: there float rounding may decide either way.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from wardrop import (
    TAU_ABS,
    compute_nash_flow,
    heterogeneous_parallel_equilibrium,
    verify_approx_nash,
    verify_deviated_nash,
)
from wardrop.tolerances import close_leq

from corpus import measured_eps, random_deviations, random_feasible_flow, seeded_case

BAND_ULPS = 16
FAMILIES = ("parallel", "grid", "random-sp", "matroid", "multicommodity")


def exact_latency(fn, x: Fraction) -> Fraction:
    if fn.kind == "constant":
        return Fraction(fn.coeffs[0])
    if fn.kind == "affine":
        return Fraction(fn.coeffs[0]) + Fraction(fn.coeffs[1]) * x
    if fn.kind == "polynomial":
        acc = Fraction(0)
        for c in reversed(fn.coeffs):
            acc = acc * x + Fraction(c)
        return acc
    pts = [(Fraction(px), Fraction(py)) for px, py in fn.points]
    k = bisect_right([px for px, _ in pts], x) - 1
    if k < 0:
        return pts[0][1]
    if k == len(pts) - 1:
        return pts[-1][1] + Fraction(fn.final_slope) * (x - pts[-1][0])
    (x0, y0), (x1, y1) = pts[k], pts[k + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def exact_deviation(fn, x: Fraction, latency) -> Fraction:
    if fn.kind == "constant":
        return Fraction(fn.value)
    if fn.kind == "scaled":
        return Fraction(fn.factor) * exact_latency(latency, x)
    return exact_latency(fn.fn, x)


def exact_costs(flow, deviations=None):
    """Per commodity, the exact latency and (edge-induced) deviation of every
    strategy at the flow's exact loads."""
    instance = flow.instance
    loads = [Fraction(0)] * len(instance.resources)
    for ids, rows in zip(instance.strategy_ids, flow.values):
        for row in rows.tolist():
            for p, v in enumerate(row):
                for k in ids[p]:
                    loads[k] += Fraction(v)
    lat_e = [exact_latency(res.latency, x) for res, x in zip(instance.resources, loads)]
    dev_e = [Fraction(0)] * len(loads)
    if deviations is not None:
        for k, res in enumerate(instance.resources):
            fn = deviations.edge_fns.get(res.id)
            if fn is not None:
                dev_e[k] = exact_deviation(fn, loads[k], res.latency)
    return [
        ([sum((lat_e[k] for k in s), Fraction(0)) for s in ids],
         [sum((dev_e[k] for k in s), Fraction(0)) for s in ids])
        for ids in instance.strategy_ids
    ]


def check_certificate(cert, flow, class_costs, class_rhs) -> None:
    """Compare each record of ``cert`` with exact costs: ``class_costs(i, j)``
    gives class j's strategy costs and ``class_rhs(i, j, costs)`` its bound."""
    records = iter(cert.records)
    rtol = Fraction(cert.rtol)
    for i, rows in enumerate(flow.values):
        strategies = flow.instance.commodities[i].strategies
        for j, row in enumerate(rows.tolist()):
            used = [p for p, v in enumerate(row) if v > TAU_ABS]
            if not used:
                continue
            rec = next(records)
            assert (rec.commodity, rec.cls) == (i, j)
            costs = class_costs(i, j)
            rhs = class_rhs(i, j, costs)
            band = BAND_ULPS * Fraction(2.0**-52) * abs(rhs)
            worst = max(used, key=costs.__getitem__)
            if all(costs[worst] - costs[p] > band for p in used if p != worst):
                assert rec.path == strategies[worst]
            margin = rhs + Fraction(TAU_ABS) + rtol * abs(rhs) - costs[worst]
            if abs(margin) > band:
                assert close_leq(rec.lhs, rec.rhs, rtol=cert.rtol) == (margin >= 0)
    assert next(records, None) is None


def check_approx(flow, profile_or_eps) -> None:
    cert = verify_approx_nash(flow.instance, flow, profile_or_eps)
    costs = exact_costs(flow)

    def eps(i, j):
        if isinstance(profile_or_eps, float):
            return Fraction(profile_or_eps)
        return Fraction(profile_or_eps.classes[i][j][1])

    check_certificate(
        cert, flow,
        lambda i, j: costs[i][0],
        lambda i, j, c: (1 + eps(i, j)) * min(c),
    )


def check_deviated(flow, deviations, profile) -> None:
    cert = verify_deviated_nash(flow.instance, flow, deviations, profile)
    costs = exact_costs(flow, deviations)

    def class_costs(i, j):
        gamma = Fraction(profile.classes[i][j][1])
        lat, dev = costs[i]
        return [lp + gamma * dp for lp, dp in zip(lat, dev)]

    check_certificate(cert, flow, class_costs, lambda i, j, c: min(c))


def test_verifiers_match_exact_arithmetic_on_seeded_flows():
    for seed in range(8):
        for family in FAMILIES:
            rng, instance, profile = seeded_case(family, 300 + seed)
            x = random_feasible_flow(rng, instance, profile)
            nash = compute_nash_flow(instance, profile)
            check_approx(x, profile)
            check_approx(nash, 0.0)
            # at its measured factor the flow passes by the tolerance alone
            check_approx(x, measured_eps(instance, x))
            deviations = random_deviations(rng, instance, rng.uniform(0.2, 1.0))
            check_deviated(x, deviations, profile)
            check_deviated(nash, deviations, profile)


def test_deviated_verifier_matches_exact_arithmetic_at_equilibrium():
    # diagonalized flows pass with slacks near zero, the verdict's edge
    for seed in range(6):
        rng, instance, profile = seeded_case(("parallel", "random-sp")[seed % 2], 400 + seed)
        deviations = random_deviations(rng, instance, rng.uniform(0.2, 1.0))
        flow = heterogeneous_parallel_equilibrium(instance, deviations, profile)
        check_deviated(flow, deviations, profile)
