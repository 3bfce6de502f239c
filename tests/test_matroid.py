"""Uniform-matroid games: verification, tight family, exchange claims."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop import (
    DeviationProfile,
    Flow,
    InputError,
    LatencyFn,
    RefusalError,
    Resource,
    SensitivityProfile,
    UniformMatroidGame,
    check_matroid_exchange_claims,
    empirical_ratio,
    gen_matroid_unbounded,
    heterogeneous_parallel_equilibrium,
    matroid_nash_flow,
    strategy_latencies,
    tau_rel,
    verify_approx_nash,
    verify_matroid_deviated,
)
from wardrop.latency import DeviationFn
from wardrop.matroid import (
    game_from_obj,
    game_to_obj,
    matroid_cost_ratio_ok,
    read_game,
    write_game,
)

from corpus import matroid_corpus, random_deviations, random_feasible_flow, random_latency


def small_game(rank=2) -> UniformMatroidGame:
    return UniformMatroidGame(
        resources=(
            Resource("e0", LatencyFn.constant(1.0)),
            Resource("e1", LatencyFn.affine(0.2, 1.0)),
            Resource("e2", LatencyFn.affine(0.5, 0.5)),
            Resource("e3", LatencyFn.polynomial((0.1, 0.0, 1.0))),
        ),
        rank=rank,
    )


def two_link_game(second: LatencyFn) -> UniformMatroidGame:
    return UniformMatroidGame(
        resources=(Resource("e0", LatencyFn.constant(1.0)), Resource("e1", second)),
        rank=1,
    )


# -- structure ----------------------------------------------------------------


def test_bases_enumeration_order():
    game = small_game()
    assert game.basis_count() == comb(4, 2)
    assert game.bases == tuple(combinations(("e0", "e1", "e2", "e3"), 2))
    inst = game.instance
    assert inst.commodities[0].strategies == game.bases
    assert game.instance is inst  # cached, so flows stay attached


def test_rank_one_bases_are_singletons():
    game = two_link_game(LatencyFn.affine(0.0, 1.0))
    assert game.bases == (("e0",), ("e1",))


def test_basis_cap_refusal():
    resources = tuple(
        Resource(f"e{i}", LatencyFn.constant(1.0)) for i in range(50)
    )
    game = UniformMatroidGame(resources=resources, rank=25)
    assert game.basis_count() == comb(50, 25)
    with pytest.raises(RefusalError):
        _ = game.bases


def test_game_validation():
    r = (Resource("e0", LatencyFn.constant(1.0)), Resource("e1", LatencyFn.constant(1.0)))
    with pytest.raises(InputError):
        UniformMatroidGame(resources=r, rank=0)
    with pytest.raises(InputError):
        UniformMatroidGame(resources=r, rank=3)
    with pytest.raises(InputError):
        UniformMatroidGame(resources=r, rank=1, demand=0.0)
    with pytest.raises(InputError):
        UniformMatroidGame(
            resources=(r[0], Resource("e0", LatencyFn.constant(2.0))), rank=1
        )


# -- solver and verification -----------------------------------------------------


def test_nash_flow_passes_both_verifiers():
    game = small_game()
    flow = matroid_nash_flow(game)
    cert = verify_matroid_deviated(
        game, flow, rtol=tau_rel(), cross_check=True
    )
    assert cert.passed
    assert cert.kind == "matroid-deviated-swap"


def test_swap_equals_full_on_rank_one():
    game = two_link_game(LatencyFn.affine(0.0, 1.0))
    flow = Flow.single_class(game.instance, [[1.0, 0.0]])
    # constant deviation on e0 makes the even split the exact equilibrium
    dev = DeviationProfile(1.0, edge_fns={"e1": DeviationFn.scaled(1.0)})
    for candidate, expect in ((flow, False), (None, True)):
        if candidate is None:
            candidate = Flow.single_class(game.instance, [[0.5, 0.5]])
        swap = verify_matroid_deviated(game, candidate, dev, method="swap")
        full = verify_matroid_deviated(game, candidate, dev, method="full")
        assert swap.passed is expect
        assert full.passed is expect
        assert swap.records[0].slack == pytest.approx(full.records[0].slack)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.floats(0.0, 1.0), st.booleans())
def test_swap_equals_full_on_random_uniform_matroids(seed, rank, mix, plain):
    # the candidate mixes the deviated equilibrium (mix = 0, passes) with the
    # plain equilibrium or a random feasible flow (mix = 1, mostly fails); the
    # equilibria use few bases, where a wrong single swap can miss a cheaper one
    rng = random.Random(seed)
    n = rng.randint(rank + 1, 7)
    game = UniformMatroidGame(
        tuple(Resource(f"e{k}", random_latency(rng)) for k in range(n)), rank=rank
    )
    inst = game.instance
    dev = random_deviations(rng, inst, rng.uniform(0.2, 1.0))
    profile = SensitivityProfile.single_commodity((game.demand,), (1.0,))
    eq = heterogeneous_parallel_equilibrium(inst, dev, profile).strategy_totals(0)
    other = matroid_nash_flow(game) if plain else random_feasible_flow(rng, inst)
    other = other.strategy_totals(0)
    flow = Flow.single_class(inst, [[(1 - mix) * a + mix * b for a, b in zip(eq, other)]])
    swap = verify_matroid_deviated(game, flow, dev, method="swap")
    full = verify_matroid_deviated(game, flow, dev, method="full")
    assert swap.passed is full.passed


def test_verify_guards():
    game = small_game()
    flow = matroid_nash_flow(game)
    with pytest.raises(InputError):
        verify_matroid_deviated(game, flow, method="greedy")
    with pytest.raises(InputError):
        verify_matroid_deviated(game, flow, gamma=-1.0)
    table = DeviationProfile(0.5, strategy_values=(tuple(0.0 for _ in game.bases),))
    with pytest.raises(InputError):
        verify_matroid_deviated(game, flow, table)
    other = small_game()
    foreign = matroid_nash_flow(other)
    with pytest.raises(InputError):
        verify_matroid_deviated(game, foreign)


# -- the unbounded family ---------------------------------------------------------


@pytest.mark.parametrize("k,eps", [(2, 0.4), (3, 0.25), (4, 0.2)])
def test_unbounded_family_subcritical(k, eps):
    game, x, z, = gen_matroid_unbounded(k, eps)
    M = (1 + eps) / (1 - eps * (k - 1))
    # at the equilibrium every basis costs exactly k
    lats = strategy_latencies(game.instance, 0, z.loads)
    for lat in lats:
        assert lat == pytest.approx(float(k), rel=1e-12)
    assert verify_matroid_deviated(game, z, cross_check=True).passed
    assert verify_approx_nash(game.instance, x, eps).passed
    report = empirical_ratio(game.instance, x, z)
    assert report.ratio == pytest.approx(M, rel=1e-9)
    assert game.meta["achieved"] == pytest.approx(M, rel=1e-12)


def test_unbounded_family_supercritical_takes_any_m():
    for M in (10.0, 1000.0):
        game, x, z = gen_matroid_unbounded(3, 0.5, M)
        assert verify_approx_nash(game.instance, x, 0.5).passed
        assert empirical_ratio(game.instance, x, z).ratio == pytest.approx(M, rel=1e-9)


def test_unbounded_family_validation():
    with pytest.raises(InputError):
        gen_matroid_unbounded(1, 0.5)
    with pytest.raises(InputError):
        gen_matroid_unbounded(3, -0.1)
    with pytest.raises(InputError):
        gen_matroid_unbounded(3, 0.5)  # supercritical needs explicit M
    with pytest.raises(InputError):
        gen_matroid_unbounded(3, 0.25, M=0.5)
    with pytest.raises(InputError):
        gen_matroid_unbounded(3, 0.25, M=1e6)  # breaks k*M <= (1+eps)(1+(k-1)M)


def test_corpus_games_verify():
    for case in matroid_corpus():
        game, x, z = case["game"], case["x"], case["z"]
        assert verify_matroid_deviated(game, z, cross_check=True).passed
        assert verify_approx_nash(game.instance, x, case["params"]["eps"]).passed


# -- exchange claims -----------------------------------------------------------------


def test_claims_identical_flows_are_trivially_tight():
    game, x, z = gen_matroid_unbounded(2, 0.4)
    report = check_matroid_exchange_claims(game, z, z, 0.4)
    assert report.passed
    assert report.per_resource == ()
    assert report.aggregate.lhs == pytest.approx(0.0)
    assert report.aggregate.margin == pytest.approx(0.0)


def test_claims_hand_case_dominated_arc():
    game = two_link_game(LatencyFn.affine(2.0, 1.0))
    z = Flow.single_class(game.instance, [[1.0, 0.0]])
    x = Flow.single_class(game.instance, [[0.0, 1.0]])
    # overloaded arc: l(x)=3 vs (1+beta)*l(z-load)= (1+beta)*2
    bad = check_matroid_exchange_claims(game, x, z, 0.0)
    assert not bad.passed
    assert not bad.per_resource[0].ok
    half = check_matroid_exchange_claims(game, x, z, 0.5)
    assert half.per_resource[0].ok  # 3 <= 1.5 * 2 exactly
    assert not half.aggregate.ok  # 3 > 1.5 * 1
    assert not half.passed
    full = check_matroid_exchange_claims(game, x, z, 2.0)
    assert full.passed
    assert full.aggregate.margin == pytest.approx(0.0)
    assert full.to_obj()["pass"] is True


def test_claims_validation():
    game, x, z = gen_matroid_unbounded(2, 0.4)
    with pytest.raises(InputError):
        check_matroid_exchange_claims(game, x, z, -1.0)
    other, x2, _z2 = gen_matroid_unbounded(2, 0.4)
    with pytest.raises(InputError):
        check_matroid_exchange_claims(game, x2, z, 0.4)


def test_cost_ratio_helper():
    game = two_link_game(LatencyFn.affine(2.0, 1.0))
    z = Flow.single_class(game.instance, [[1.0, 0.0]])
    x = Flow.single_class(game.instance, [[0.0, 1.0]])
    assert matroid_cost_ratio_ok(game, z, z, 0.0)
    assert not matroid_cost_ratio_ok(game, x, z, 0.5)
    assert matroid_cost_ratio_ok(game, x, z, 2.0)


# -- serialization ---------------------------------------------------------------


def test_game_round_trip(tmp_path):
    game, _x, _z = gen_matroid_unbounded(3, 0.25)
    dev = DeviationProfile(
        0.3, edge_fns={"e0": DeviationFn.constant(0.2), "e1": DeviationFn.scaled(0.3)}
    )
    path = tmp_path / "game.json"
    write_game(path, game, dev)
    loaded, dev2 = read_game(path)
    assert loaded.ground_ids == game.ground_ids
    assert loaded.rank == game.rank
    assert loaded.demand == game.demand
    assert dev2.beta == pytest.approx(0.3)
    assert dev2.edge_fns["e0"].to_obj() == dev.edge_fns["e0"].to_obj()
    path2 = tmp_path / "game2.json"
    write_game(path2, loaded, dev2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_game_rejects_missing_and_invalid_files(tmp_path):
    with pytest.raises(InputError, match="cannot read game file"):
        read_game(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="is not valid JSON"):
        read_game(bad)


def test_game_round_trip_without_deviations(tmp_path):
    game = small_game()
    obj = game_to_obj(game)
    loaded, dev = game_from_obj(obj)
    assert dev is None
    assert loaded.bases == game.bases


def test_game_from_obj_errors():
    with pytest.raises(InputError):
        game_from_obj({"rank": 2})
    with pytest.raises(InputError):
        game_from_obj({"ground_set": [{"id": "e0"}], "rank": 1, "demand": 1.0})
    with pytest.raises(InputError):
        game_from_obj(
            {
                "ground_set": [
                    {"id": "e0", "latency": {"kind": "constant", "value": 1.0}}
                ],
                "rank": "half",
                "demand": 1.0,
            }
        )
    good = {
        "ground_set": [
            {"id": "e0", "latency": {"kind": "constant", "value": 1.0}},
            {"id": "e1", "latency": {"kind": "constant", "value": 2.0}},
        ],
        "rank": 1,
        "demand": 1.0,
        "edge_deviations": {"e0": {"kind": "constant", "value": 0.1}},
    }
    game, dev = game_from_obj(good)
    assert dev.beta == 0.0  # beta defaults when absent
    short_point = {"kind": "piecewise-linear", "points": [[0.0]]}
    with pytest.raises(InputError):
        game_from_obj({**good, "ground_set": [{"id": "e0", "latency": short_point}]})
    with pytest.raises(InputError):
        game_from_obj({**good, "edge_deviations": {"e0": short_point}})
    with pytest.raises(InputError):
        game_from_obj({**good, "edge_deviations": [short_point]})
    with pytest.raises(InputError):
        game_to_obj(game, DeviationProfile(0.5, strategy_values=((0.0, 0.0),)))


def test_solver_output_passes_the_default_tolerance():
    # C(14, 6) = 3003 bases; the worst slack is about -1e-10, inside tau_rel
    rng = random.Random(3)
    game = UniformMatroidGame(
        tuple(Resource(f"e{k}", random_latency(rng)) for k in range(14)), rank=6
    )
    flow = matroid_nash_flow(game)
    assert verify_approx_nash(game.instance, flow, 0.0).passed
    assert verify_matroid_deviated(game, flow).passed
    assert verify_matroid_deviated(game, flow, method="full").passed
