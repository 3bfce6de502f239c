"""Network structures, tightness generators, and alternating paths."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop import (
    Commodity,
    Flow,
    GameInstance,
    InputError,
    LatencyFn,
    NetworkAnnotation,
    Resource,
    SPTree,
    TAU_ABS,
    braess_strategies,
    build_braess_graph,
    compute_alternating_path,
    compute_nash_flow,
    empirical_ratio,
    enumerate_st_paths,
    gen_braess_subcritical,
    gen_braess_supercritical,
    gen_parallel_sr,
    gen_random_sp,
    gen_two_arc_dr,
    is_series_parallel,
    social_cost,
    validate_instance,
    verify_approx_nash,
)

from wardrop import graphs

from corpus import generator_corpus, grid_instance, random_feasible_flow


def oracle_min_backward(instance, x, z, tol=TAU_ABS):
    """Exhaustive minimum backward-arc count over all simple mixed paths."""
    graph = instance.graph
    index = instance.resource_index()
    edges = []
    for rid, tail, head in graph.arcs:
        k = index[rid]
        xa, za = x.loads[k], z.loads[k]
        if xa <= tol and za <= tol:
            continue
        if za >= xa - tol and za > tol:
            edges.append((tail, head, 0))
        else:
            edges.append((head, tail, 1))
    best = math.inf

    def walk(node, visited, backward):
        nonlocal best
        if backward >= best:
            return
        if node == graph.sink:
            best = backward
            return
        for frm, to, w in edges:
            if frm == node and to not in visited:
                walk(to, visited | {to}, backward + w)

    walk(graph.source, {graph.source}, 0)
    return best


# -- ladder structure -------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 13))
def test_ladder_counts(m):
    graph = build_braess_graph(m)
    assert len(graph.nodes) == 2 * m
    assert len(graph.arcs) == 4 * m - 3
    strategies = braess_strategies(m)
    assert len(strategies) == 2 * m - 1
    assert sorted(strategies) == sorted(enumerate_st_paths(graph))


@pytest.mark.parametrize("m", range(2, 9))
def test_ladder_not_series_parallel(m):
    assert not is_series_parallel(build_braess_graph(m))


def test_ladder_instances_validate():
    for m, eps in ((2, 0.4), (4, 0.2)):
        inst, *_ = gen_braess_subcritical(m, eps)
        assert validate_instance(inst) == []


# -- subcritical family -----------------------------------------------------


@pytest.mark.parametrize("m,eps", [(2, 0.5), (3, 0.25), (5, 0.12)])
def test_subcritical_certificates(m, eps):
    instance, x, z, bound = gen_braess_subcritical(m, eps)
    assert verify_approx_nash(instance, z, 0.0).passed
    assert verify_approx_nash(instance, x, eps).passed
    assert not verify_approx_nash(instance, x, eps * 0.9).passed
    ratio = empirical_ratio(instance, x, z).ratio
    assert ratio == pytest.approx((1 + eps) / (1 - eps * (m - 1)), rel=1e-9)


def test_subcritical_equilibrium_cost_is_one():
    instance, _x, z, _b = gen_braess_subcritical(4, 0.2)
    assert social_cost(instance, z) == pytest.approx(1.0, rel=1e-12)


def test_subcritical_family_bound_dominates():
    for m in range(2, 7):
        for frac in (0.1, 0.5, 0.9):
            eps = frac / (m - 1)
            instance, x, z, bound = gen_braess_subcritical(m, eps)
            ratio = empirical_ratio(instance, x, z).ratio
            assert ratio <= bound.as_float + 1e-9


# -- supercritical family ---------------------------------------------------


@pytest.mark.parametrize("tau", [1.0, 10.0, 100.0])
def test_supercritical_growth(tau):
    m, eps = 3, 0.5
    instance, x, z, bound = gen_braess_supercritical(m, eps, tau)
    assert verify_approx_nash(instance, z, 0.0).passed
    assert verify_approx_nash(instance, x, eps).passed
    ratio = empirical_ratio(instance, x, z).ratio
    assert ratio == pytest.approx((1 + eps) * (1 + (m - 1) * tau), rel=1e-9)
    assert instance.meta["achieved"] == pytest.approx(ratio, rel=1e-9)
    assert bound.infinite


def test_supercritical_exceeds_any_target():
    instance, x, z, _b = gen_braess_supercritical(3, 0.5, 1000.0)
    assert empirical_ratio(instance, x, z).ratio > 1000.0


# -- parallel tightness families --------------------------------------------


def test_parallel_sr_flows_and_ratio():
    beta, r, g = 0.5, (0.4, 0.6), (0.5, 1.0)
    instance, profile, x, z, bound = gen_parallel_sr(beta, r, g)
    assert verify_approx_nash(instance, z, 0.0).passed
    eps_profile = profile.scaled(beta)
    cert = verify_approx_nash(instance, x, eps_profile)
    assert cert.passed
    assert cert.worst_slack == pytest.approx(0.0, abs=1e-12)
    ratio = empirical_ratio(instance, x, z).ratio
    expected = 1 + beta * sum(ri * gi for ri, gi in zip(r, g))
    assert ratio == pytest.approx(expected, rel=1e-12)
    assert ratio == pytest.approx(bound.as_float, rel=1e-12)


def test_two_arc_degenerate_beta_zero():
    instance, _p, _d, x, z, bound = gen_two_arc_dr(0.0, (0.5, 0.5), (1.0, 2.0))
    assert bound.as_float == pytest.approx(1.0)
    assert instance.meta["achieved"] == pytest.approx(1.0)
    for a, b in zip(x.loads, z.loads):
        assert a == pytest.approx(b)
    assert empirical_ratio(instance, x, z).ratio == pytest.approx(1.0)


def test_two_arc_demand_rescaling():
    instance, profile, _d, x, _z, _b = gen_two_arc_dr(0.5, (3.0, 7.0), (0.4, 1.0))
    assert instance.commodities[0].demand == pytest.approx(1.0)
    assert instance.meta["params"]["demand_scale"] == pytest.approx(10.0)
    assert sum(sum(row) for row in x.values[0]) == pytest.approx(1.0)


def test_two_arc_achieved_equals_bound_exactly():
    # the generator and the bound share one tails computation, so the cost
    # the family attains is the bound's value bit for bit
    rng = random.Random(20)
    for _ in range(200):
        h = int(10 ** rng.uniform(0.0, 3.0))
        demands = [rng.uniform(0.01, 1.0) for _ in range(h)]
        gammas = sorted(rng.sample(range(1, 10_000), h))
        beta = rng.uniform(0.1, 2.0)
        instance, *_, bound = gen_two_arc_dr(beta, demands, [g / 1000 for g in gammas])
        assert instance.meta["achieved"] == bound.value


def test_generator_validation():
    with pytest.raises(InputError):
        build_braess_graph(1)
    with pytest.raises(InputError):
        gen_braess_subcritical(3, 0.5)  # eps*(m-1) = 1, not subcritical
    with pytest.raises(InputError):
        gen_braess_subcritical(2, -0.1)
    with pytest.raises(InputError):
        gen_braess_supercritical(3, 0.25, 10.0)  # below the critical point
    with pytest.raises(InputError):
        gen_braess_supercritical(3, 0.5, -1.0)
    with pytest.raises(InputError):
        gen_parallel_sr(-0.5, (1.0,), (1.0,))
    with pytest.raises(InputError):
        gen_parallel_sr(0.5, (1.0,), (1.0, 2.0))
    with pytest.raises(InputError):
        gen_parallel_sr(0.5, (0.5, 0.5), (1.0, 1.0))  # gammas must increase
    with pytest.raises(InputError):
        gen_two_arc_dr(0.5, (0.5, 0.5), (1.0, 2.0), j=3)
    with pytest.raises(InputError):
        gen_two_arc_dr(0.5, (0.5, 0.5), (1.0, 2.0), eps_prime=1.0)  # >= beta*gamma_j
    with pytest.raises(InputError):
        gen_two_arc_dr(0.5, (0.5, -0.5), (1.0, 2.0))


# -- alternating paths -------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 7))
def test_alternating_path_ladder_q(m):
    instance, x, z, _b = gen_braess_subcritical(m, 0.5 / (m - 1))
    path = compute_alternating_path(instance, x, z)
    assert path.q == m - 1
    assert path.q == sum(1 for _, fwd in path.steps if not fwd)
    assert path.q == oracle_min_backward(instance, x, z)
    # never worse than half the node count
    assert path.q <= len(instance.graph.nodes) // 2 - 1


def test_alternating_path_matches_oracle_on_corpus():
    rng = random.Random(4242)
    for case in generator_corpus():
        instance = case["instance"]
        if instance.graph is None:
            continue
        if case["x"] is not None:
            x, z = case["x"], case["z"]
        else:
            z = compute_nash_flow(instance)
            x = random_feasible_flow(rng, instance)
        path = compute_alternating_path(instance, x, z)
        assert path.q == oracle_min_backward(instance, x, z)
        assert path.q == sum(1 for _, fwd in path.steps if not fwd)


def test_alternating_path_two_arc():
    instance, _p, _d, x, z, _b = gen_two_arc_dr(1.0, (0.5, 0.5), (1.0, 2.0))
    path = compute_alternating_path(instance, x, z)
    assert path.q == 0
    assert path.steps == (("a1", True),)
    assert path.arcs() == ("a1",)


def test_alternating_path_needs_annotation():
    inst = GameInstance(
        (Resource("e1", LatencyFn.constant(1.0)),),
        (Commodity(1.0, (("e1",),)),),
    )
    flow = Flow.single_class(inst, [[1.0]])
    with pytest.raises(InputError):
        compute_alternating_path(inst, flow, flow)


def test_z_dominant_path():
    # a path within the arcs where z dominates x is an alternating path with q = 0
    instance, _p, _d, x, z, _b = gen_two_arc_dr(1.0, (0.5, 0.5), (1.0, 2.0))
    path = compute_alternating_path(instance, x, z)
    assert (path.q, path.arcs()) == (0, ("a1",))
    ladder, x2, z2, _b2 = gen_braess_subcritical(3, 0.25)
    assert compute_alternating_path(ladder, x2, z2).q > 0


# -- series-parallel recognition and random instances ------------------------


def test_is_series_parallel_positives():
    two_link = NetworkAnnotation(
        ("s", "t"), (("a", "s", "t"), ("b", "s", "t")), "s", "t"
    )
    assert is_series_parallel(two_link)
    chain = NetworkAnnotation(
        ("s", "v", "t"), (("a", "s", "v"), ("b", "v", "t")), "s", "t"
    )
    assert is_series_parallel(chain)


def test_is_series_parallel_wheatstone():
    wheatstone = NetworkAnnotation(
        ("s", "u", "v", "t"),
        (
            ("a", "s", "u"),
            ("b", "s", "v"),
            ("c", "u", "v"),
            ("d", "u", "t"),
            ("e", "v", "t"),
        ),
        "s",
        "t",
    )
    assert not is_series_parallel(wheatstone)


def test_sptree_paths_and_annotation():
    r1 = Resource("e0", LatencyFn.constant(1.0))
    r2 = Resource("e1", LatencyFn.constant(1.0))
    r3 = Resource("e2", LatencyFn.constant(1.0))
    tree = SPTree.series(SPTree.leaf(r1), SPTree.parallel(SPTree.leaf(r2), SPTree.leaf(r3)))
    assert [r.id for r in tree.leaves()] == ["e0", "e1", "e2"]
    assert tree.paths() == [("e0", "e1"), ("e0", "e2")]
    annotation = tree.to_annotation()
    assert is_series_parallel(annotation)
    assert sorted(tree.paths()) == sorted(enumerate_st_paths(annotation))


def test_sptree_validation():
    r1 = Resource("e0", LatencyFn.constant(1.0))
    with pytest.raises(InputError):
        SPTree("leaf")
    with pytest.raises(InputError):
        SPTree("series", children=(SPTree.leaf(r1),))
    with pytest.raises(InputError):
        SPTree("ring", children=(SPTree.leaf(r1), SPTree.leaf(r1)))


def test_gen_random_sp_deterministic_and_valid():
    for seed in (7, 19, 31):
        inst1, tree1 = gen_random_sp(seed, depth=3)
        inst2, _tree2 = gen_random_sp(seed, depth=3)
        assert inst1 == inst2
        assert validate_instance(inst1) == []
        assert is_series_parallel(inst1.graph)
        assert sorted(inst1.commodities[0].strategies) == sorted(
            enumerate_st_paths(inst1.graph)
        )
        assert tree1.to_annotation() == inst1.graph


def test_gen_random_sp_validation():
    with pytest.raises(InputError):
        gen_random_sp(1, depth=0)
    with pytest.raises(InputError):
        gen_random_sp(1, max_leaves=1)
    with pytest.raises(InputError):
        gen_random_sp(1, latency_family="fourier")


def _random_digraph(rng: random.Random) -> NetworkAnnotation:
    """Six nodes, random arcs in both directions (so cycles, arcs into the
    source and out of the sink) and some parallel arcs."""
    nodes = ("s", "a", "b", "c", "d", "t")
    arcs = []
    for tail in nodes:
        for head in nodes:
            while tail != head and rng.random() < 0.4:
                arcs.append((f"x{len(arcs)}", tail, head))
    return NetworkAnnotation(nodes, tuple(arcs), "s", "t")


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(("ladder", "grid", "random-sp", "cyclic")), st.integers(0, 2**32 - 1))
def test_enumerate_st_paths_matches_networkx(family, seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    if family == "ladder":
        graph = build_braess_graph(rng.randint(2, 12))
    elif family == "grid":
        graph = grid_instance(rng, rng.randint(2, 5)).graph
    elif family == "random-sp":
        instance, _ = gen_random_sp(seed, depth=rng.randint(1, 8), max_leaves=rng.randint(2, 24))
        graph = instance.graph
    else:
        graph = _random_digraph(rng)
    multi = nx.MultiDiGraph()
    multi.add_nodes_from(graph.nodes)
    for rid, tail, head in graph.arcs:
        multi.add_edge(tail, head, key=rid)
    oracle = nx.all_simple_edge_paths(multi, graph.source, graph.sink)
    paths = enumerate_st_paths(graph)
    assert len(set(paths)) == len(paths)
    assert sorted(paths) == sorted(tuple(key for _, _, key in path) for path in oracle)


def test_enumerate_paths_cap(monkeypatch):
    graph = build_braess_graph(4)
    monkeypatch.setattr(graphs, "PATH_CAP", 3)
    with pytest.raises(InputError):
        enumerate_st_paths(graph)
