"""Domain types and evaluation primitives: flows, costs, validation,
profiles, deviations."""

import copy
import json
import math
import pickle
import random
import sys

import pytest

from wardrop import (
    Commodity,
    DeviationFn,
    DeviationProfile,
    Flow,
    GameInstance,
    InputError,
    InvariantError,
    LatencyFn,
    NetworkAnnotation,
    Resource,
    SensitivityProfile,
    compute_nash_flow,
    gen_braess_subcritical,
    gen_parallel_sr,
    gen_two_arc_dr,
    social_cost,
    strategy_latencies,
    validate_instance,
    verify_approx_nash,
)
from wardrop import core, tolerances
from wardrop.core import require_valid_instance

from corpus import (
    generator_corpus,
    matroid_corpus,
    random_feasible_flow,
    random_parallel_instance,
    random_profile,
    seeded_case,
)


def pigou() -> GameInstance:
    return GameInstance(
        (Resource("e1", LatencyFn.affine(0.0, 1.0)), Resource("e2", LatencyFn.constant(1.0))),
        (Commodity(1.0, (("e1",), ("e2",))),),
    )


# -- path latency -------------------------------------------------------------


def test_path_latency_pigou():
    inst = pigou()
    flow = Flow.single_class(inst, [[1.0, 0.0]])
    assert strategy_latencies(inst, 0, flow.loads)[0] == 1.0


def test_path_latency_constant_paths_at_zero_load():
    inst = GameInstance(
        (Resource("a", LatencyFn.constant(0.3)), Resource("b", LatencyFn.constant(0.9))),
        (Commodity(1.0, (("a", "b"),)),),
    )
    assert strategy_latencies(inst, 0, (0.0, 0.0)) == [pytest.approx(1.2)]


def test_strategy_latencies():
    inst = pigou()
    assert strategy_latencies(inst, 0, (0.25, 0.0)) == [0.25, 1.0]


# -- social cost --------------------------------------------------------------


def test_social_cost_braess_nash_is_one():
    for m in (2, 3, 4):
        instance, _x, z, _bound = gen_braess_subcritical(m, 0.1)
        assert social_cost(instance, z) == pytest.approx(1.0, rel=1e-12)


def test_social_cost_pigou_split():
    inst = pigou()
    flow = Flow.single_class(inst, [[0.5, 0.5]])
    assert social_cost(inst, flow) == pytest.approx(0.75)


def test_social_cost_zero_demand_is_zero():
    # not a valid instance (demands must be positive) but the cost of an
    # empty flow is still well defined
    inst = GameInstance(
        (Resource("e1", LatencyFn.constant(1.0)),),
        (Commodity(0.0, (("e1",),)),),
    )
    flow = Flow.single_class(inst, [[0.0]])
    assert social_cost(inst, flow) == 0.0


def test_social_cost_rejects_foreign_flow():
    inst_a = pigou()
    inst_b = GameInstance(
        (Resource("e1", LatencyFn.affine(0.0, 2.0)), Resource("e2", LatencyFn.constant(1.0))),
        (Commodity(1.0, (("e1",), ("e2",))),),
    )
    flow = Flow.single_class(inst_b, [[1.0, 0.0]])
    with pytest.raises(InputError):
        social_cost(inst_a, flow)


def test_social_cost_accepts_equal_valued_instance_copy():
    inst_a = pigou()
    inst_b = pigou()
    flow = Flow.single_class(inst_b, [[1.0, 0.0]])
    assert social_cost(inst_a, flow) == 1.0


def test_social_cost_edgewise_equals_pathwise():
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        inst = random_parallel_instance(rng)
        profile = random_profile(rng, inst)
        flow = random_feasible_flow(rng, inst, profile)
        edgewise = social_cost(inst, flow)
        pathwise = 0.0
        for i, commodity in enumerate(inst.commodities):
            lats = strategy_latencies(inst, i, flow.loads)
            for row in flow.values[i]:
                pathwise += sum(v * lats[p] for p, v in enumerate(row))
        assert pathwise == pytest.approx(edgewise, rel=1e-9)
        checked += 1


# -- flow construction and load cache -----------------------------------------


def test_flow_cache_reproduces_bit_for_bit():
    rng = random.Random(7)
    for _ in range(200):
        inst = random_parallel_instance(rng)
        flow = random_feasible_flow(rng, inst)
        assert flow.recompute_loads() == flow.loads


def reference_loads(flow: Flow) -> tuple[float, ...]:
    """Per-resource loads by the row-by-row loop: within a commodity, class
    by class, strategy by strategy, resource by resource (zeros skipped);
    then across commodities."""
    instance = flow.instance
    n = len(instance.resources)
    totals = [0.0] * n
    for ids, rows in zip(instance.strategy_ids, flow.values):
        loads_i = [0.0] * n
        for row in rows.tolist():
            for p, v in enumerate(row):
                if v != 0.0:
                    for k in ids[p]:
                        loads_i[k] += v
        for k in range(n):
            totals[k] += loads_i[k]
    return tuple(totals)


def test_loads_match_reference_loop_bit_for_bit():
    # The array summation adds classes before resources.  That is the loop's
    # order on single-class flows and wherever each resource lies in one
    # strategy (parallel links), so there the bits must agree.
    flows = []
    for case in generator_corpus():
        flows.append(compute_nash_flow(case["instance"]))
        flows += [case[key] for key in ("x", "z") if case[key] is not None]
    for case in matroid_corpus():
        flows += [compute_nash_flow(case["game"].instance), case["x"], case["z"]]
    for seed in range(12):
        for family in ("grid", "random-sp", "matroid", "multicommodity"):
            rng, instance, _profile = seeded_case(family, seed)
            flows.append(random_feasible_flow(rng, instance))
        rng = random.Random(seed)
        instance = random_parallel_instance(rng, n_links=rng.choice((1, 4)))
        flows.append(random_feasible_flow(rng, instance, random_profile(rng, instance, 25)))
    flows.append(gen_parallel_sr(1.0, [1.0 + k % 7 for k in range(60)], range(60))[2])
    assert any(len(flow.values[0]) > 20 for flow in flows)
    for flow in flows:
        if len(flow.values[0]) > 1:
            assert all(len(ids) == 1 for ids in flow.instance.strategy_ids[0])
        assert list(map(float.hex, flow.loads)) == list(map(float.hex, reference_loads(flow)))


def test_flow_values_are_read_only():
    flow = Flow.single_class(pigou(), [[0.5, 0.5]])
    with pytest.raises(ValueError):
        flow.values[0][0, 0] = 1.0


def test_flow_cache_close_under_reordered_summation():
    rng = random.Random(8)
    for case in generator_corpus():
        flow = case["x"]
        if flow is None:
            continue
        inst = case["instance"]
        index = inst.resource_index()
        alt = [0.0] * len(inst.resources)
        for i in reversed(range(len(inst.commodities))):
            strategies = inst.commodities[i].strategies
            for row in reversed(flow.values[i]):
                for p in reversed(range(len(strategies))):
                    if row[p] != 0.0:
                        for rid in reversed(strategies[p]):
                            alt[index[rid]] += row[p]
        assert all(abs(a - b) <= 1e-12 for a, b in zip(alt, flow.loads))
    del rng


def test_flow_build_rejects_negative_entry():
    inst = pigou()
    with pytest.raises(InvariantError):
        Flow.single_class(inst, [[1.0, -0.001]])


def test_flow_build_rejects_non_finite_entry():
    inst = pigou()
    for row in ([math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]):
        with pytest.raises(InputError):
            Flow.single_class(inst, [row])


def test_flow_build_clamps_tiny_negative():
    inst = pigou()
    flow = Flow.single_class(inst, [[1.0 + 1e-13, -1e-13]])
    assert flow.values[0][0][1] == 0.0


def test_flow_build_rejects_demand_mismatch():
    inst = pigou()
    with pytest.raises(InvariantError):
        Flow.single_class(inst, [[0.4, 0.4]])


def test_flow_build_rejects_wrong_shapes():
    inst = pigou()
    with pytest.raises(InputError):
        Flow.build(inst, [])  # no commodities
    with pytest.raises(InputError):
        Flow.single_class(inst, [[1.0]])  # one strategy flow for two strategies
    profile = SensitivityProfile.single_commodity((0.5, 0.5), (1.0, 2.0))
    with pytest.raises(InputError):
        Flow.build(inst, [[[1.0, 0.0]]], profile)  # one class row for two classes


def test_spread_classes_pro_rata():
    inst = pigou()
    profile = SensitivityProfile.single_commodity((0.25, 0.75), (1.0, 2.0))
    flow = Flow.spread_classes(inst, [[0.8, 0.2]], profile)
    assert flow.values[0][0] == pytest.approx((0.2, 0.05))
    assert flow.values[0][1] == pytest.approx((0.6, 0.15))
    assert flow.loads == pytest.approx((0.8, 0.2))


def test_used_and_strategy_totals():
    inst = pigou()
    profile = SensitivityProfile.single_commodity((0.5, 0.5), (1.0, 2.0))
    flow = Flow.build(inst, [[[0.5, 0.0], [0.0, 0.5]]], profile)
    assert flow.used(0, 0) == [0]
    assert flow.used(0, 1) == [1]
    assert flow.strategy_totals(0) == pytest.approx((0.5, 0.5))


# -- instance validation -------------------------------------------------------


def test_validate_instance_well_formed():
    assert validate_instance(pigou()) == []


def test_validate_instance_unknown_resource():
    inst = GameInstance(pigou().resources, (Commodity(1.0, (("e1",), ("nope",))),))
    report = validate_instance(inst)
    assert len(report) == 1
    assert "unknown resource" in report[0]


def test_validate_instance_bad_latency():
    wonky = LatencyFn(kind="piecewise-linear", points=((0.0, 2.0), (1.0, 1.0)))
    inst = GameInstance((Resource("e1", wonky),), (Commodity(1.0, (("e1",),)),))
    report = validate_instance(inst)
    assert any("non-decreasing" in msg for msg in report)


def test_validate_instance_collects_multiple_violations():
    wonky = LatencyFn(kind="piecewise-linear", points=((0.0, 2.0), (1.0, 1.0)))
    inst = GameInstance(
        (Resource("e1", wonky),),
        (Commodity(-1.0, (("e1",), ("ghost",))),),
    )
    report = validate_instance(inst)
    assert len(report) >= 3


def test_validate_instance_duplicate_resource():
    inst = GameInstance(
        (Resource("e1", LatencyFn.constant(1.0)), Resource("e1", LatencyFn.constant(2.0))),
        (Commodity(1.0, (("e1",),)),),
    )
    assert any("duplicate" in msg for msg in validate_instance(inst))


def test_validate_instance_duplicate_strategy():
    inst = GameInstance(
        pigou().resources,
        (Commodity(1.0, (("e1", "e2"), ("e2", "e1"))),),
    )
    assert any("twice" in msg for msg in validate_instance(inst))


def test_validate_instance_graph_violations():
    res = pigou().resources
    graph = NetworkAnnotation(("s", "t"), (("e1", "s", "t"),), "s", "t")
    inst = GameInstance(res, (Commodity(1.0, (("e1",), ("e2",))),), graph=graph)
    assert any("one-to-one" in msg for msg in validate_instance(inst))

    graph2 = NetworkAnnotation(
        ("s", "m", "t"), (("e1", "s", "m"), ("e2", "s", "t")), "s", "t"
    )
    inst2 = GameInstance(res, (Commodity(1.0, (("e1",), ("e2",))),), graph=graph2)
    assert any("sink" in msg for msg in validate_instance(inst2))


def test_validation_report_is_computed_once(monkeypatch):
    instance, *_ = gen_braess_subcritical(3, 0.25)
    calls = []
    check = core._path_violation
    monkeypatch.setattr(core, "_path_violation", lambda *a: calls.append(a) or check(*a))
    assert validate_instance(instance) == []
    assert validate_instance(instance) == []
    compute_nash_flow(instance)
    assert len(calls) == len(instance.commodities[0].strategies)


def test_validation_report_copies_are_independent():
    inst = GameInstance(pigou().resources, (Commodity(-1.0, (("e1",), ("ghost",))),))
    report = validate_instance(inst)
    assert len(report) == 2
    report.clear()
    assert len(validate_instance(inst)) == 2


def test_validation_report_survives_copy_and_pickle():
    ghost = GameInstance(pigou().resources, (Commodity(1.0, (("e1",), ("ghost",))),))
    for inst in (ghost, gen_braess_subcritical(3, 0.25)[0]):
        fresh = [copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))]
        report = validate_instance(inst)
        cached = [copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))]
        for other in fresh + cached:
            assert other == inst
            assert validate_instance(other) == report


def test_require_valid_instance_raises():
    inst = GameInstance(pigou().resources, (Commodity(1.0, (("nope",),)),))
    with pytest.raises(InvariantError):
        require_valid_instance(inst)
    require_valid_instance(pigou())


# -- sensitivity profiles ------------------------------------------------------


def test_profile_validate_accepts_matching():
    inst = pigou()
    SensitivityProfile.single_commodity((0.5, 0.5), (1.0, 2.0)).validate(inst)


def test_profile_validate_rejects_commodity_count():
    inst = pigou()
    profile = SensitivityProfile((((0.5, 1.0),), ((0.5, 1.0),)))
    with pytest.raises(InvariantError):
        profile.validate(inst)


def test_profile_validate_rejects_nonincreasing_values():
    inst = pigou()
    profile = SensitivityProfile.single_commodity((0.5, 0.5), (2.0, 1.0))
    with pytest.raises(InvariantError):
        profile.validate(inst)
    tied = SensitivityProfile.single_commodity((0.5, 0.5), (1.0, 1.0))
    with pytest.raises(InvariantError):
        tied.validate(inst)


def test_profile_validate_rejects_demand_mismatch():
    inst = pigou()
    profile = SensitivityProfile.single_commodity((0.5, 0.4), (1.0, 2.0))
    with pytest.raises(InvariantError):
        profile.validate(inst)


def test_profile_homogeneous_and_scaled():
    # a scalar profile argument is the one-class profile with that value
    inst = pigou()
    flow = Flow.single_class(inst, [[0.5, 0.5]])
    profile = SensitivityProfile((((1.0, 2.0),),))
    assert verify_approx_nash(inst, flow, profile) == verify_approx_nash(inst, flow, 2.0)
    assert profile.scaled(0.5).classes == (((1.0, 1.0),),)


def test_profile_single_commodity_length_mismatch():
    with pytest.raises(InputError):
        SensitivityProfile.single_commodity((0.5,), (1.0, 2.0))


# -- deviation profiles ---------------------------------------------------------


def test_deviation_profile_requires_exactly_one_representation():
    with pytest.raises(InputError):
        DeviationProfile(0.5)
    with pytest.raises(InputError):
        DeviationProfile(
            0.5,
            strategy_values=((0.0,),),
            edge_fns={"e1": DeviationFn.zero()},
        )
    with pytest.raises(InputError):
        DeviationProfile(-0.5, edge_fns={"e1": DeviationFn.zero()})


def test_deviation_profile_rejects_non_finite_values():
    with pytest.raises(InputError):
        DeviationProfile(1.0, strategy_values=((math.nan, 0.0),))
    with pytest.raises(InputError):
        DeviationProfile(1.0, strategy_values=((0.0, math.inf),))
    # Python's json accepts a bare NaN, so the reader must reject it itself
    obj = json.loads('{"beta": 1.0, "strategies": [[NaN, 0.0]]}')
    with pytest.raises(InputError):
        DeviationProfile.from_obj(obj)


def test_deviation_strategy_value_edge_induced():
    inst = pigou()
    dev = DeviationProfile(
        1.0, edge_fns={"e1": DeviationFn.constant(0.25), "e2": DeviationFn.scaled(0.5)}
    )
    loads = (1.0, 0.0)
    assert dev.strategy_deviations(inst, 0, loads) == [pytest.approx(0.25), pytest.approx(0.5)]
    assert dev.edge_value(inst, "unlisted", 1.0) == 0.0


def test_deviation_strategy_value_explicit():
    inst = pigou()
    dev = DeviationProfile(1.0, strategy_values=((0.1, 0.2),))
    assert dev.strategy_deviations(inst, 0, (0.0, 0.0))[1] == 0.2


def test_deviation_membership_pass_and_fail():
    inst = pigou()
    flow = Flow.single_class(inst, [[1.0, 0.0]])
    DeviationProfile(1.0, edge_fns={"e1": DeviationFn.constant(0.5)}).check_membership(
        inst, flow
    )
    # l_e1(1.0) = 1.0, so 1.5 > beta * 1.0
    with pytest.raises(InputError):
        DeviationProfile(
            1.0, edge_fns={"e1": DeviationFn.constant(1.5)}
        ).check_membership(inst, flow)
    with pytest.raises(InputError):
        DeviationProfile(
            1.0, edge_fns={"ghost": DeviationFn.zero()}
        ).check_membership(inst, flow)
    with pytest.raises(InputError):
        DeviationProfile(1.0, strategy_values=((-0.5, 0.0),)).check_membership(
            inst, flow
        )


def test_deviation_profile_round_trip():
    edge = DeviationProfile(
        0.75, edge_fns={"e1": DeviationFn.scaled(0.5), "e2": DeviationFn.constant(0.1)}
    )
    back = DeviationProfile.from_obj(edge.to_obj())
    assert back.beta == edge.beta
    assert dict(back.edge_fns) == dict(edge.edge_fns)

    explicit = DeviationProfile(0.5, strategy_values=((0.1, 0.0),))
    back2 = DeviationProfile.from_obj(explicit.to_obj())
    assert back2.strategy_values == explicit.strategy_values
    with pytest.raises(InputError):
        DeviationProfile.from_obj({"beta": 0.5})


# -- misc instance helpers -------------------------------------------------------


def test_latency_of_unknown():
    with pytest.raises(InputError):
        pigou().latency_of("ghost")


# -- compiled instance view and tolerance reads -----------------------------------


def test_strategy_ids_match_resource_index():
    for case in generator_corpus():
        inst = case["instance"]
        index = inst.resource_index()
        for i, commodity in enumerate(inst.commodities):
            for p, strat in enumerate(commodity.strategies):
                assert list(inst.strategy_ids[i][p]) == [index[rid] for rid in strat]


def test_resource_index_is_read_only():
    inst = pigou()
    index = inst.resource_index()
    with pytest.raises(TypeError):
        index["ghost"] = 2
    assert dict(inst.resource_index()) == {"e1": 0, "e2": 1}


@pytest.fixture
def tau_rel_reads(monkeypatch):
    """List that grows by one on every read of tau_rel inside wardrop."""
    reads = []
    original = tolerances.tau_rel

    def counted():
        reads.append(None)
        return original()

    for name, module in list(sys.modules.items()):
        if name == "wardrop" or name.startswith("wardrop."):
            if getattr(module, "tau_rel", None) is original:
                monkeypatch.setattr(module, "tau_rel", counted)
    return reads


def test_flow_build_reads_tolerance_a_fixed_number_of_times(tau_rel_reads):
    counts = {}
    for h in (10, 1000):
        instance, profile, _dev, x, _z, _b = gen_two_arc_dr(
            0.5, [1.0] * h, [(c + 1) / h for c in range(h)]
        )
        tau_rel_reads.clear()
        Flow.build(instance, x.values, profile)
        counts[h] = len(tau_rel_reads)
    assert counts[1000] == counts[10] <= 2
