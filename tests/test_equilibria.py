"""Solvers, verifiers, and ratio reports."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop import (
    BoundValue,
    Commodity,
    ConvergenceError,
    DensityFn,
    DeviationFn,
    DeviationProfile,
    Flow,
    GameInstance,
    InputError,
    InvariantError,
    LatencyFn,
    RefusalError,
    Resource,
    SensitivityProfile,
    beckmann_potential,
    compute_nash_flow,
    deviations_from_approx,
    discretize_density,
    empirical_ratio,
    gen_braess_subcritical,
    gen_parallel_sr,
    gen_random_sp,
    gen_two_arc_dr,
    heterogeneous_parallel_equilibrium,
    relative_duality_gap,
    strategy_latencies,
    tau_rel,
    verify_approx_nash,
    verify_deviated_nash,
    verify_deviation_implies_approx,
    worst_approx_search,
)

from wardrop.equilibria import _frank_wolfe, _line_search

from corpus import (
    generator_corpus,
    grid_instance,
    measured_eps,
    random_feasible_flow,
    random_latency,
    random_deviations,
    random_parallel_instance,
    random_profile,
    seeded_case,
)


def pigou() -> GameInstance:
    return GameInstance(
        (Resource("e1", LatencyFn.affine(0.0, 1.0)), Resource("e2", LatencyFn.constant(1.0))),
        (Commodity(1.0, (("e1",), ("e2",))),),
    )


# -- approximate verification ----------------------------------------------------


def test_verify_approx_pigou_nash():
    inst = pigou()
    nash = Flow.single_class(inst, [[1.0, 0.0]])
    cert = verify_approx_nash(inst, nash, 0.0)
    assert cert.passed
    assert cert.kind == "approx-nash"
    assert cert.worst_slack == pytest.approx(0.0)


def test_verify_approx_threshold():
    inst = pigou()
    split = Flow.single_class(inst, [[0.5, 0.5]])
    # latencies (0.5, 1.0); the constant arc is used, so eps must reach 1
    assert not verify_approx_nash(inst, split, 0.0).passed
    assert not verify_approx_nash(inst, split, 0.9).passed
    assert verify_approx_nash(inst, split, 1.0).passed


def test_verify_approx_records_worst_pair():
    inst = pigou()
    split = Flow.single_class(inst, [[0.5, 0.5]])
    cert = verify_approx_nash(inst, split, 0.0)
    rec = cert.records[0]
    assert rec.path == ("e2",)  # costliest used strategy
    assert rec.witness == ("e1",)  # cheapest strategy
    assert rec.lhs == pytest.approx(1.0)
    assert rec.rhs == pytest.approx(0.5)
    assert rec.slack == pytest.approx(-0.5)
    obj = cert.to_obj()
    assert obj["pass"] is False
    assert obj["worst_violations"][0]["slack"] == pytest.approx(-0.5)


def test_verify_approx_per_class_eps():
    inst = pigou()
    profile = SensitivityProfile.single_commodity((0.5, 0.5), (0.1, 1.0))
    # both classes split across both arcs; only the high-eps class tolerates it
    flow = Flow.build(inst, [[[0.25, 0.25], [0.25, 0.25]]], profile)
    cert = verify_approx_nash(inst, flow, profile)
    assert not cert.passed
    by_class = {rec.cls: rec for rec in cert.records}
    assert by_class[0].slack < 0.0
    assert by_class[1].slack >= 0.0


def test_verify_approx_eps_validation():
    inst = pigou()
    nash = Flow.single_class(inst, [[1.0, 0.0]])
    with pytest.raises(InputError):
        verify_approx_nash(inst, nash, -0.5)


# -- deviated verification ---------------------------------------------------------


def test_verify_deviated_two_arc_construction():
    instance, profile, deviations, x, z, _ = gen_two_arc_dr(0.5, (0.3, 0.7), (0.4, 1.0))
    cert = verify_deviated_nash(instance, x, deviations, profile)
    assert cert.passed
    assert cert.kind == "deviated-nash"
    # the plain Nash flow is not a deviated equilibrium here: the whole
    # population sits on the deviating arc
    cert_z = verify_deviated_nash(instance, z, deviations, profile)
    assert not cert_z.passed


def test_verify_deviated_membership_guard():
    inst = pigou()
    nash = Flow.single_class(inst, [[1.0, 0.0]])
    too_big = DeviationProfile(0.5, edge_fns={"e1": DeviationFn.constant(2.0)})
    with pytest.raises(InputError):
        verify_deviated_nash(inst, nash, too_big)


def test_verify_deviated_homogeneous_default_topology():
    # constant deviation on the cheap arc pushes everyone to the constant arc
    inst = GameInstance(
        (Resource("e1", LatencyFn.affine(0.0, 1.0)), Resource("e2", LatencyFn.constant(1.0))),
        (Commodity(1.0, (("e1",), ("e2",))),),
    )
    dev = DeviationProfile(1.0, edge_fns={"e1": DeviationFn.scaled(1.0)})
    all_e2 = Flow.single_class(inst, [[0.0, 1.0]])
    # q(e1) = 0 + 1*0 = 0 at load 0, q(e2) = 1: not an equilibrium
    assert not verify_deviated_nash(inst, all_e2, dev).passed
    half = Flow.single_class(inst, [[0.5, 0.5]])
    # q(e1) = 0.5 + 0.5 = 1 = q(e2): exact equilibrium
    assert verify_deviated_nash(inst, half, dev).passed


# -- constructive deviations ---------------------------------------------------------


def test_deviations_from_approx_hand_case():
    inst = GameInstance(
        (
            Resource("a", LatencyFn.constant(1.0)),
            Resource("b", LatencyFn.constant(1.2)),
            Resource("c", LatencyFn.constant(2.0)),
        ),
        (Commodity(1.0, (("a",), ("b",), ("c",))),),
    )
    flow = Flow.single_class(inst, [[0.5, 0.5, 0.0]])
    dev = deviations_from_approx(inst, flow, eps=0.2)
    # used strategies get the gap to the costliest used one, unused get beta*l
    assert dev.beta == pytest.approx(0.2)
    assert dev.strategy_values[0][0] == pytest.approx(0.2)
    assert dev.strategy_values[0][1] == pytest.approx(0.0)
    assert dev.strategy_values[0][2] == pytest.approx(0.4)
    assert verify_deviated_nash(inst, flow, dev).passed


def test_deviations_from_approx_gamma_division():
    inst = GameInstance(
        (Resource("a", LatencyFn.constant(1.0)), Resource("b", LatencyFn.constant(1.2))),
        (Commodity(1.0, (("a",), ("b",))),),
    )
    flow = Flow.single_class(inst, [[0.5, 0.5]])
    dev = deviations_from_approx(inst, flow, eps=0.2, gamma=2.0)
    assert dev.beta == pytest.approx(0.1)
    assert dev.strategy_values[0][0] == pytest.approx(0.1)
    profile = SensitivityProfile.single_commodity((1.0,), (2.0,))
    assert verify_deviated_nash(inst, flow, dev, profile).passed


def test_deviations_from_approx_random_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        inst = random_parallel_instance(rng)
        flow = random_feasible_flow(rng, inst)
        eps = measured_eps(inst, flow)
        dev = deviations_from_approx(inst, flow, eps)
        assert verify_deviated_nash(inst, flow, dev).passed


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(("parallel", "grid", "random-sp")), st.integers(0, 2**32 - 1),
       st.floats(0.1, 4.0))
def test_deviations_from_approx_pass_verify_deviated_nash(family, seed, gamma):
    rng, instance, _ = seeded_case(family, seed)
    # a random support, so that some strategies are unused
    (commodity,) = instance.commodities
    weights = [rng.random() if rng.random() < 0.5 else 0.0 for _ in commodity.strategies]
    weights[rng.randrange(len(weights))] += 1.0
    flow = Flow.single_class(instance, [[commodity.demand * w / sum(weights) for w in weights]])
    deviations = deviations_from_approx(instance, flow, measured_eps(instance, flow), gamma)
    assert verify_deviated_nash(instance, flow, deviations, gamma).passed


def test_deviations_from_approx_errors():
    inst = pigou()
    profile = SensitivityProfile.single_commodity((0.5, 0.5), (1.0, 2.0))
    two_class = Flow.build(inst, [[[0.5, 0.0], [0.0, 0.5]]], profile)
    with pytest.raises(InputError):
        deviations_from_approx(inst, two_class, 1.0)
    split = Flow.single_class(inst, [[0.5, 0.5]])
    with pytest.raises(InputError):
        deviations_from_approx(inst, split, -1.0)
    with pytest.raises(InputError):
        deviations_from_approx(inst, split, 1.0, gamma=0.0)
    with pytest.raises(InputError):
        deviations_from_approx(inst, split, 0.1)  # flow is only 1-approximate


def test_deviation_implies_approx():
    instance, profile, deviations, x, _z, _b = gen_two_arc_dr(
        0.5, (0.3, 0.7), (0.4, 1.0)
    )
    cert = verify_deviation_implies_approx(instance, x, deviations, profile)
    assert cert.passed
    assert cert.kind == "approx-nash"

    inst = pigou()
    nash = Flow.single_class(inst, [[1.0, 0.0]])
    bad = Flow.single_class(inst, [[0.0, 1.0]])
    dev = DeviationProfile(0.5, edge_fns={})
    assert verify_deviation_implies_approx(inst, nash, dev).passed
    with pytest.raises(InputError):
        verify_deviation_implies_approx(inst, bad, dev)


# -- plain Nash solver ----------------------------------------------------------------


def test_compute_nash_pigou():
    inst = pigou()
    flow = compute_nash_flow(inst)
    assert flow.loads[0] == pytest.approx(1.0, abs=1e-9)
    cert = verify_approx_nash(inst, flow, 0.0, rtol=tau_rel())
    assert cert.passed


def test_nash_used_latencies_level():
    for case in generator_corpus():
        if case["kind"] not in ("random-sp", "random-parallel"):
            continue
        inst = case["instance"]
        flow = compute_nash_flow(inst)
        for i in range(len(inst.commodities)):
            lats = strategy_latencies(inst, i, flow.loads)
            level = min(lats)
            for p in flow.used(i, 0):
                assert lats[p] <= level * (1.0 + tau_rel()) + 1e-12


def test_potential_optimality_spot_check():
    rng = random.Random(2718)
    for seed in (1, 2, 3):
        inst = random_parallel_instance(random.Random(seed))
        flow = compute_nash_flow(inst)
        base = beckmann_potential(inst, flow)
        scale = max(1.0, abs(base))
        for _ in range(100):
            other = random_feasible_flow(rng, inst)
            assert base <= beckmann_potential(inst, other) + tau_rel() * scale


def _slope(fns, loads, delta, t):
    """Derivative of the potential along loads + t*delta, summed in the
    order the line search uses."""
    total = 0.0
    for e in np.flatnonzero(delta):
        d = float(delta[e])
        total += d * fns[e](float(loads[e]) + t * d)
    return total


def test_line_search_lands_on_a_sign_change():
    rng = random.Random(1618)
    searched = {True: 0, False: 0}  # all touched latencies piecewise?
    for _ in range(1000):
        n = rng.randint(2, 25)
        fns = [random_latency(rng) for _ in range(n)]
        loads = np.array([rng.uniform(0.05, 2.0) for _ in range(n)])
        ids = rng.sample(range(n), rng.randint(2, n))
        cut = rng.randint(1, len(ids) - 1)
        delta = np.zeros(n)
        delta[ids[:cut]] = 1.0
        delta[ids[cut:]] = -1.0
        # as in Frank-Wolfe, the step never drives a load below zero
        tmax = rng.uniform(0.1, 1.0) * float(min(loads[ids[cut:]]))
        t = _line_search(fns, loads, delta, tmax)
        assert 0.0 <= t <= tmax
        if t == 0.0:
            assert _slope(fns, loads, delta, 0.0) >= 0.0
            continue
        if t == tmax and _slope(fns, loads, delta, tmax) <= 0.0:
            continue
        w = 1e-9 * tmax
        lo, hi = max(0.0, t - w), min(tmax, t + w)
        assert _slope(fns, loads, delta, lo) < 0.0 <= _slope(fns, loads, delta, hi)
        searched[all(fns[e].kind != "polynomial" for e in ids)] += 1
    assert min(searched.values()) >= 30


@pytest.fixture
def slope_calls(monkeypatch) -> list[int]:
    """Counts the calls of ``LatencyFn.value_slope`` in its one entry."""
    calls = [0]
    value_slope = LatencyFn.value_slope

    def counted(fn, x):
        calls[0] += 1
        return value_slope(fn, x)

    monkeypatch.setattr(LatencyFn, "value_slope", counted)
    return calls


@pytest.mark.parametrize("kinds", [
    ("affine", "constant"),
    ("affine", "constant", "piecewise-linear"),
    ("piecewise-linear",),
])
def test_line_search_slope_evaluations_are_bounded(slope_calls, kinds):
    """Newton is exact on each linear piece of the slope: with affine and
    constant terms only a search evaluates the slope at most twice, and each
    kink in (0, tmax) of a piecewise-linear term costs at most one more."""
    rng = random.Random(31415)
    kinked = 0
    for _ in range(1000):
        n = rng.randint(2, 25)
        fns = [random_latency(rng, rng.choice(kinds)) for _ in range(n)]
        loads = np.array([rng.uniform(0.05, 2.0) for _ in range(n)])
        ids = rng.sample(range(n), rng.randint(2, n))
        cut = rng.randint(1, len(ids) - 1)
        delta = np.zeros(n)
        delta[ids[:cut]] = 1.0
        delta[ids[cut:]] = -1.0
        tmax = rng.uniform(0.1, 1.0) * float(min(loads[ids[cut:]]))
        kinks = {
            t for e in ids for x, _ in fns[e].points
            if 0.0 < (t := (x - loads[e]) / delta[e]) < tmax
        }
        kinked += bool(kinks)
        slope_calls[0] = 0
        _line_search(fns, loads, delta, tmax)
        assert slope_calls[0] % len(ids) == 0  # whole slope evaluations
        assert slope_calls[0] // len(ids) <= len(kinks) + 2
    assert kinked >= (200 if "piecewise-linear" in kinds else 0)


@pytest.mark.parametrize("steep", [1e6, 1e9])
def test_line_search_stops_at_the_resolution_of_t(slope_calls, steep):
    """A steep latency on a resource the step almost empties makes the slope
    change by more than its rounding error within one ulp of t; the search
    then stops when the Newton correction rounds to zero."""
    fns = [LatencyFn.affine(0.0, 1.0), LatencyFn.affine(0.0, steep)]
    loads = np.array([0.0, 1.0 + 1.0 / steep])
    delta = np.array([1.0, -1.0])
    t = _line_search(fns, loads, delta, float(loads[1]))
    assert t == pytest.approx(1.0, rel=4 * 2.0**-52)  # l_0(t) = l_1(1 + 1/steep - t)
    assert slope_calls[0] <= 3 * len(fns)


def _beckmann_loads(instance: GameInstance) -> np.ndarray:
    """Loads of a path-flow minimizer of the routing potential, from SLSQP."""
    from scipy import optimize
    fns = [res.latency for res in instance.resources]
    paths = instance.strategy_ids[0]
    inc = np.zeros((len(paths), len(fns)))
    for p, ids in enumerate(paths):
        inc[p, list(ids)] = 1.0
    demand = instance.commodities[0].demand

    def loads_of(f):
        return np.maximum(f @ inc, 0.0)

    def potential(f):
        return sum(fn.integral(x) for fn, x in zip(fns, loads_of(f)))

    def gradient(f):
        return inc @ np.array([fn(x) for fn, x in zip(fns, loads_of(f))])

    result = optimize.minimize(
        potential,
        np.full(len(paths), demand / len(paths)),
        jac=gradient,
        method="SLSQP",
        bounds=[(0.0, None)] * len(paths),
        constraints=[{"type": "eq", "fun": lambda f: f.sum() - demand,
                      "jac": lambda f: np.ones(len(paths))}],
        options={"ftol": 1e-15, "maxiter": 2000},
    )
    assert result.success, result.message
    return loads_of(result.x)


@pytest.mark.parametrize(
    "instance",
    [grid_instance(random.Random(seed), k, family)
     for seed, k, family in ((5, 4, "affine"), (6, 4, "polynomial"), (7, 5, "piecewise-linear"))]
    + [gen_random_sp(seed, depth=5, max_leaves=16)[0] for seed in (0, 6, 22, 24)]
    + [random_parallel_instance(random.Random(seed)) for seed in (1, 2, 3, 314, 2718)]
    + [gen_parallel_sr(0.5, (0.2, 0.3, 0.5), (0.2, 0.6, 0.9))[0],
       gen_two_arc_dr(0.5, (0.3, 0.7), (0.4, 1.0))[0]],
)
def test_frank_wolfe_matches_scipy_beckmann(instance):
    pytest.importorskip("scipy.optimize")
    flow = compute_nash_flow(instance)
    reference = _beckmann_loads(instance)
    # loads are unique on strictly increasing latencies; constants may trade load
    for k, res in enumerate(instance.resources):
        if res.latency.kind != "constant":
            assert flow.loads[k] == pytest.approx(reference[k], abs=1e-5)
    ours = beckmann_potential(instance, flow)
    theirs = sum(res.latency.integral(x) for res, x in zip(instance.resources, reference))
    assert ours <= theirs + 1e-9


def test_compute_nash_profile_split():
    inst = pigou()
    profile = SensitivityProfile.single_commodity((0.25, 0.75), (1.0, 2.0))
    flow = compute_nash_flow(inst, profile)
    assert len(flow.values[0]) == 2
    assert sum(flow.values[0][0]) == pytest.approx(0.25)
    assert flow.loads[0] == pytest.approx(1.0, abs=1e-9)


def test_compute_nash_rejects_a_profile_of_the_wrong_shape():
    inst, *_ = gen_braess_subcritical(2, 0.5)
    with pytest.raises(InvariantError):
        compute_nash_flow(inst, SensitivityProfile(()))


def test_compute_nash_nonconvergence_raises():
    inst, *_ = gen_braess_subcritical(3, 0.25)
    with pytest.raises(ConvergenceError) as err:
        _frank_wolfe(inst, 1e-11, max_iter=1, rtol=tau_rel())
    assert err.value.achieved is not None


def test_relative_duality_gap_behaviour():
    inst, _x, z, _b = gen_braess_subcritical(3, 0.25)
    assert relative_duality_gap(inst, z) <= 1e-12
    lopsided = Flow.single_class(
        inst, [[1.0] + [0.0] * (len(inst.commodities[0].strategies) - 1)]
    )
    assert relative_duality_gap(inst, lopsided) > 0.01


# -- heterogeneous solver ----------------------------------------------------------------


def test_heterogeneous_reproduces_two_arc_split():
    for demands, gammas in (
        ((1.0,), (1.0,)),
        ((0.3, 0.7), (0.4, 1.0)),
        ((0.2, 0.3, 0.5), (0.2, 0.6, 0.9)),
    ):
        instance, profile, deviations, x, _z, _b = gen_two_arc_dr(0.5, demands, gammas)
        flow = heterogeneous_parallel_equilibrium(instance, deviations, profile)
        assert verify_deviated_nash(
            instance, flow, deviations, profile, rtol=tau_rel()
        ).passed
        for a, b in zip(flow.loads, x.loads):
            assert abs(a - b) <= 1e-6


def test_heterogeneous_zero_deviations_match_nash():
    # dominated second arc keeps the equilibrium at a vertex
    inst = GameInstance(
        (Resource("e0", LatencyFn.constant(1.0)), Resource("e1", LatencyFn.affine(1.5, 1.0))),
        (Commodity(1.0, (("e0",), ("e1",))),),
    )
    profile = SensitivityProfile.single_commodity((0.4, 0.6), (0.3, 0.9))
    dev = DeviationProfile(0.7, edge_fns={})
    flow = heterogeneous_parallel_equilibrium(inst, dev, profile)
    nash = compute_nash_flow(inst)
    for a, b in zip(flow.loads, nash.loads):
        assert abs(a - b) <= tau_rel() * max(1.0, abs(b))


def test_heterogeneous_matches_discretized_construction():
    profile0 = discretize_density(DensityFn.uniform(0.0, 1.0), 0.25)
    demands = tuple(d for d, _ in profile0.classes[0])
    gammas = tuple(g for _, g in profile0.classes[0])
    instance, profile, deviations, x, _z, _b = gen_two_arc_dr(1.0, demands, gammas)
    flow = heterogeneous_parallel_equilibrium(instance, deviations, profile)
    for a, b in zip(flow.loads, x.loads):
        assert abs(a - b) <= 1e-6


def test_heterogeneous_validation_and_nonconvergence():
    instance, profile, deviations, *_ = gen_two_arc_dr(0.5, (0.3, 0.7), (0.4, 1.0))
    table = DeviationProfile(0.5, strategy_values=((0.0, 0.0),))
    with pytest.raises(InputError):
        heterogeneous_parallel_equilibrium(instance, table, profile)
    with pytest.raises(InputError):
        heterogeneous_parallel_equilibrium(instance, deviations, profile, max_rounds=0)
    # a Braess ladder is no parallel-link instance, and is solved all the same
    ladder, *_ = gen_braess_subcritical(2, 0.5)
    scaled = DeviationProfile(
        0.5, edge_fns={res.id: DeviationFn.scaled(0.4) for res in ladder.resources}
    )
    classes = SensitivityProfile.single_commodity((0.4, 0.6), (0.5, 1.2))
    flow = heterogeneous_parallel_equilibrium(ladder, scaled, classes)
    assert verify_deviated_nash(ladder, flow, scaled, classes).passed
    # load-dependent deviations need more than the one round allowed
    rng = random.Random(9)
    inst = random_parallel_instance(rng)
    classes = random_profile(rng, inst, max_classes=4)
    dev = random_deviations(rng, inst, rng.uniform(0.2, 1.0))
    with pytest.raises(ConvergenceError) as err:
        heterogeneous_parallel_equilibrium(inst, dev, classes, max_rounds=1)
    assert err.value.achieved is not None and err.value.achieved < 0.0


# -- worst-case grid search ----------------------------------------------------------------


def test_worst_approx_search_parallel_sr():
    instance, _prof, _x, _z, _b = gen_parallel_sr(1.0, (1.0,), (1.0,))
    flow, report = worst_approx_search(instance, 1.0, 0.01)
    assert report.ratio == pytest.approx(2.0, abs=1e-9)
    assert flow.loads[0] == pytest.approx(0.0, abs=1e-9)


def test_worst_approx_search_eps_zero_is_nash():
    inst = pigou()
    _flow, report = worst_approx_search(inst, 0.0, 0.05)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_worst_approx_search_pigou_half():
    inst = pigou()
    _flow, report = worst_approx_search(inst, 0.5, 0.001)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_worst_approx_search_within_grid_of_closed_form():
    instance, profile, _x, _z, bound = gen_parallel_sr(0.5, (0.4, 0.6), (0.5, 1.0))
    eps_profile = profile.scaled(0.5)  # eps = beta * gamma per class
    _flow, report = worst_approx_search(instance, eps_profile, 0.05)
    assert abs(report.ratio - bound.as_float) <= 2 * 0.05


def test_worst_approx_search_refusal_and_validation():
    rng = random.Random(8)
    inst = random_parallel_instance(rng, n_links=3)
    profile = SensitivityProfile.single_commodity(
        (inst.commodities[0].demand / 3,) * 3, (0.5, 1.0, 1.5)
    )
    with pytest.raises(RefusalError):
        worst_approx_search(inst, profile, 0.25)  # 9 variables
    with pytest.raises(InputError):
        worst_approx_search(inst, 0.5, 0.0)
    with pytest.raises(InputError):
        worst_approx_search(inst, 0.5, 0.7)


# -- ratio reports ----------------------------------------------------------------------


def test_empirical_ratio_identity():
    inst, _x, z, _b = gen_braess_subcritical(2, 0.5)
    report = empirical_ratio(inst, z, z)
    assert report.ratio == pytest.approx(1.0)


def test_empirical_ratio_attaches_generator_bound():
    inst, x, z, bound = gen_braess_subcritical(3, 0.25)
    report = empirical_ratio(inst, x, z)
    assert report.ratio == pytest.approx(bound.as_float, rel=1e-9)
    assert report.bound is not None
    assert report.bound.value == pytest.approx(bound.as_float)
    assert report.slack == pytest.approx(0.0, abs=1e-9)


def test_empirical_ratio_two_arc_value():
    beta, demands, gammas = 1.0, (0.5, 0.5), (1.0, 2.0)
    instance, _p, _d, x, z, bound = gen_two_arc_dr(beta, demands, gammas)
    report = empirical_ratio(instance, x, z)
    # 1 + beta * gamma_j * tail_j with j picked to maximize it: 1 + 2*0.5
    assert report.ratio == pytest.approx(2.0, rel=1e-9)
    assert bound.as_float == pytest.approx(2.0)


def test_empirical_ratio_zero_reference():
    inst = GameInstance(
        (Resource("e1", LatencyFn.constant(0.0)),),
        (Commodity(1.0, (("e1",),)),),
    )
    flow = Flow.single_class(inst, [[1.0]])
    with pytest.raises(InputError):
        empirical_ratio(inst, flow, flow)


def test_ratio_report_to_obj():
    report = empirical_ratio(*_ratio_args())
    obj = report.to_obj()
    assert set(obj) == {"ratio", "bound", "slack"}


def _ratio_args():
    inst, _x, z, _b = gen_braess_subcritical(2, 0.5)
    return inst, z, z
