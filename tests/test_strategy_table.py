"""The compiled strategy table against per-strategy Python references:
``validate_instance`` reports, strategy latencies, explicit deviation caps
and edge-induced strategy deviations."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wardrop import (
    Commodity,
    DeviationProfile,
    GameInstance,
    InputError,
    LatencyFn,
    NetworkAnnotation,
    Resource,
    UniformMatroidGame,
    gen_random_sp,
    strategy_latencies,
    validate_instance,
)
from wardrop.core import TABLE_MIN_STRATEGIES

from corpus import (
    generator_corpus,
    grid_instance,
    matroid_corpus,
    random_deviations,
    random_feasible_flow,
    random_latency,
)
from validate_oracle import oracle_validate_instance


def _cyclic_instance() -> GameInstance:
    """s -> a <-> b -> t with a direct a -> t: the walk sa, ab, ba, at
    revisits a without repeating an arc."""
    arcs = (("sa", "s", "a"), ("ab", "a", "b"), ("ba", "b", "a"),
            ("at", "a", "t"), ("bt", "b", "t"))
    rng = random.Random(5)
    resources = tuple(Resource(rid, random_latency(rng)) for rid, _, _ in arcs)
    graph = NetworkAnnotation(("s", "a", "b", "t"), arcs, "s", "t")
    return GameInstance(resources, (Commodity(1.0, (("sa", "at"), ("sa", "ab", "bt"))),),
                        graph=graph)


def _multi_commodity_instance(k: int) -> GameInstance:
    """A k x k grid with a second commodity over every other path, reversed
    in order so that the two tables differ."""
    base = grid_instance(random.Random(9), k)
    paths = base.commodities[0].strategies
    second = Commodity(0.5, tuple(paths[::2][::-1]))
    return GameInstance(base.resources, (base.commodities[0], second), graph=base.graph)


# Instances on both sides of TABLE_MIN_STRATEGIES: the small ones take the
# per-strategy loops, the large ones the table.
SMALL = [case["instance"] for case in generator_corpus()]
SMALL += [case["game"].instance for case in matroid_corpus()]
SMALL += [_cyclic_instance(), _multi_commodity_instance(3)]
LARGE = [
    grid_instance(random.Random(4), 5),
    gen_random_sp(15, depth=6, max_leaves=32)[0],
    gen_random_sp(34, depth=6, max_leaves=32)[0],
    UniformMatroidGame(tuple(Resource(f"e{k}", LatencyFn.affine(1.0, 0.5 + k)) for k in range(8)),
                       4).instance,
    _multi_commodity_instance(5),
]
BASES = SMALL + LARGE


def test_bases_lie_on_both_sides_of_the_table_threshold():
    def total(inst):
        return sum(len(c.strategies) for c in inst.commodities)

    assert all(total(inst) < TABLE_MIN_STRATEGIES for inst in SMALL)
    assert all(total(inst) >= TABLE_MIN_STRATEGIES for inst in LARGE)


def test_strategy_table_is_padded_read_only_strategy_ids():
    for instance in BASES:
        n = len(instance.resources)
        for table, ids in zip(instance.strategy_table, instance.strategy_ids):
            assert table.shape == (len(ids), max(map(len, ids)))
            assert table.tolist() == [list(row) + [n] * (table.shape[1] - len(row)) for row in ids]
            with pytest.raises(ValueError):
                table[0, 0] = 0


# -- differential test of validate_instance ----------------------------------


MUTATIONS = (
    "walk", "truncate", "swap", "repeat", "duplicate", "unknown", "empty",
    "duplicate-id", "back-arc", "dead-end", "drop-graph", "drop-arc",
)


@st.composite
def mutated_instances(draw):
    base = draw(st.sampled_from(SMALL) | st.sampled_from(LARGE))
    resources = list(base.resources)
    strategies = [list(map(list, c.strategies)) for c in base.commodities]
    demands = [c.demand for c in base.commodities]
    graph = base.graph
    arcs = None if graph is None else list(graph.arcs)
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=4)):
        i = draw(st.integers(0, len(strategies) - 1))
        rows = strategies[i]
        p = draw(st.integers(0, max(0, len(rows) - 1)))
        row = rows[p] if rows else []
        if kind == "walk" and arcs:
            # a random walk from a random node: non-contiguous starts, wrong
            # ends, and revisits or repeated arcs where the graph has a cycle
            out_arcs: dict[str, list[str]] = {}
            for rid, tail, _head in arcs:
                out_arcs.setdefault(tail, []).append(rid)
            heads = {rid: head for rid, _tail, head in arcs}
            starts = sorted({t for _, t, _ in arcs})
            at = graph.source if draw(st.booleans()) else draw(st.sampled_from(starts))
            walk = []
            for _ in range(draw(st.integers(1, 12))):
                if at not in out_arcs:
                    break
                rid = draw(st.sampled_from(out_arcs[at]))
                walk.append(rid)
                at = heads[rid]
            if rows:
                rows[p] = walk
        elif kind == "truncate" and row:
            rows[p] = row[:-1]
        elif kind == "swap" and len(row) > 1:
            a = draw(st.integers(0, len(row) - 2))
            row[a], row[a + 1] = row[a + 1], row[a]
        elif kind == "repeat" and row:
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(row)))
        elif kind == "duplicate" and row:
            copy = list(row)
            if draw(st.booleans()):
                copy.reverse()
            if draw(st.booleans()):  # the same resource set, one resource twice
                copy.insert(draw(st.integers(0, len(copy))), draw(st.sampled_from(copy)))
            rows.insert(draw(st.integers(0, len(rows))), copy)
        elif kind == "unknown" and row:
            row[draw(st.integers(0, len(row) - 1))] = "zz-unknown"
        elif kind == "empty":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif kind == "duplicate-id":
            src = draw(st.sampled_from(resources))
            resources.insert(draw(st.integers(0, len(resources))), Resource(src.id, src.latency))
        elif kind == "back-arc" and arcs:
            rid, tail, head = draw(st.sampled_from(arcs))
            new = f"{rid}-back"
            if all(r.id != new for r in resources):
                resources.append(Resource(new, LatencyFn.constant(1.0)))
                arcs.append((new, head, tail))
                if row and rid in row:
                    k = row.index(rid)
                    row[k + 1:k + 1] = [new, rid]
        elif kind == "dead-end" and arcs and row:
            # same length, contiguous, but the last arc leaves the sink's path
            tails = {rid: tail for rid, tail, _head in arcs}
            if row[-1] in tails:
                new = f"{row[-1]}-dead"
                if all(r.id != new for r in resources):
                    resources.append(Resource(new, LatencyFn.constant(1.0)))
                    arcs.append((new, tails[row[-1]], "dead"))
                row[-1] = new
        elif kind == "drop-graph":
            arcs = None
        elif kind == "drop-arc" and arcs:
            arcs.pop(draw(st.integers(0, len(arcs) - 1)))
    new_graph = None
    if arcs is not None:
        new_graph = NetworkAnnotation(graph.nodes, tuple(arcs), graph.source, graph.sink)
    commodities = tuple(
        Commodity(d, tuple(map(tuple, rows))) for d, rows in zip(demands, strategies)
    )
    return GameInstance(tuple(resources), commodities, graph=new_graph)


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_instances())
def test_validate_instance_matches_per_strategy_oracle(instance):
    assert validate_instance(instance) == oracle_validate_instance(instance)


def test_validate_instance_matches_oracle_on_unmutated_bases():
    for instance in BASES:
        assert validate_instance(instance) == oracle_validate_instance(instance) == []


# -- bit-identity of the strategy sums ----------------------------------------


def _cases():
    """(instance, loads) pairs: the base instances at a random feasible flow."""
    rng = random.Random(17)
    return [(inst, random_feasible_flow(rng, inst).loads) for inst in BASES]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_strategy_latencies_equal_python_sums_bit_for_bit():
    for instance, loads in _cases():
        lat = [res.latency(x) for res, x in zip(instance.resources, loads)]
        for i, ids in enumerate(instance.strategy_ids):
            expected = [sum(lat[k] for k in row) for row in ids]
            assert _hex(strategy_latencies(instance, i, loads)) == _hex(expected)


def test_explicit_deviation_caps_equal_python_sums_bit_for_bit():
    beta = 0.7
    for instance in BASES:
        flow = random_feasible_flow(random.Random(3), instance)
        lat = instance.latencies(flow.loads)
        for i, ids in enumerate(instance.strategy_ids):
            for p in range(0, len(ids), max(1, len(ids) // 5)):
                cap = beta * sum(lat[k] for k in ids[p])
                values = [
                    tuple((2.0 * cap + 1.0) if (c, q) == (i, p) else 0.0
                          for q in range(len(row)))
                    for c, row in enumerate(instance.strategy_ids)
                ]
                dev = DeviationProfile(beta, strategy_values=tuple(values))
                with pytest.raises(InputError) as err:
                    dev.check_membership(instance, flow)
                assert str(err.value).endswith(f"outside [0, {cap}]")


def test_edge_induced_deviations_equal_python_sums_bit_for_bit():
    rng = random.Random(23)
    for instance, loads in _cases():
        dev = random_deviations(rng, instance, 0.8)
        for i, ids in enumerate(instance.strategy_ids):
            strategies = instance.commodities[i].strategies
            expected = [
                sum(dev.edge_value(instance, rid, loads[k]) for rid, k in zip(strat, row))
                for strat, row in zip(strategies, ids)
            ]
            got = dev.strategy_deviations(instance, i, loads)
            assert _hex(got) == _hex(expected)
