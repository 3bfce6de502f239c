"""Deterministic instance builders shared across the test suite.

Every randomized builder takes an explicit ``random.Random`` so test runs
are reproducible; ``generator_corpus`` and ``matroid_corpus`` rebuild the
same cases on every call.
"""

from __future__ import annotations

import random

from wardrop import (
    Commodity,
    DeviationFn,
    DeviationProfile,
    Flow,
    GameInstance,
    LatencyFn,
    NetworkAnnotation,
    Resource,
    SensitivityProfile,
    UniformMatroidGame,
    gen_braess_subcritical,
    gen_braess_supercritical,
    gen_matroid_unbounded,
    gen_parallel_sr,
    gen_random_sp,
    gen_two_arc_dr,
    enumerate_st_paths,
    strategy_latencies,
)

LATENCY_KINDS = ("constant", "affine", "polynomial", "piecewise-linear")


def random_latency(rng: random.Random, family: str = "mixed") -> LatencyFn:
    """A random valid latency, bounded away from zero at load 0."""
    kind = rng.choice(LATENCY_KINDS) if family == "mixed" else family
    if kind == "constant":
        return LatencyFn.constant(rng.uniform(0.1, 3.0))
    if kind == "affine":
        return LatencyFn.affine(rng.uniform(0.05, 2.0), rng.uniform(0.1, 2.0))
    if kind == "polynomial":
        degree = rng.randint(1, 3)
        coeffs = [rng.uniform(0.05, 1.0)] + [
            rng.uniform(0.0, 1.5) for _ in range(degree)
        ]
        return LatencyFn.polynomial(tuple(coeffs))
    v0 = rng.uniform(0.05, 1.5)
    x1 = rng.uniform(0.3, 2.0)
    rise = rng.uniform(0.0, 2.0)
    return LatencyFn.piecewise_linear(
        ((0.0, v0), (x1, v0 + rise)), final_slope=rng.uniform(0.0, 2.0)
    )


def random_parallel_instance(
    rng: random.Random,
    n_links: int | None = None,
    demand: float | None = None,
    family: str = "mixed",
) -> GameInstance:
    n = n_links if n_links is not None else rng.randint(2, 6)
    d = demand if demand is not None else rng.uniform(0.5, 3.0)
    resources = tuple(
        Resource(f"e{i}", random_latency(rng, family)) for i in range(n)
    )
    graph = NetworkAnnotation(
        nodes=("s", "t"),
        arcs=tuple((f"e{i}", "s", "t") for i in range(n)),
        source="s",
        sink="t",
    )
    commodity = Commodity(d, tuple((f"e{i}",) for i in range(n)))
    return GameInstance(resources, (commodity,), graph=graph)


def grid_instance(rng: random.Random, k: int, family: str = "mixed") -> GameInstance:
    """k x k grid DAG (arcs right and down), unit demand over every
    source-sink path."""
    nodes, arcs, resources = [], [], []
    for i in range(k):
        for j in range(k):
            nodes.append(f"n{i}_{j}")
            for tag, a, b in (("r", i, j + 1), ("d", i + 1, j)):
                if a < k and b < k:
                    rid = f"{tag}{i}_{j}"
                    arcs.append((rid, f"n{i}_{j}", f"n{a}_{b}"))
                    resources.append(Resource(rid, random_latency(rng, family)))
    graph = NetworkAnnotation(tuple(nodes), tuple(arcs), "n0_0", f"n{k - 1}_{k - 1}")
    paths = tuple(enumerate_st_paths(graph))
    return GameInstance(tuple(resources), (Commodity(1.0, paths),), graph=graph)


def random_multicommodity_instance(rng: random.Random) -> GameInstance:
    """Two or three commodities whose strategies are random sets of one to
    three resources from a shared pool (no graph annotation)."""
    resources = tuple(
        Resource(f"e{i}", random_latency(rng)) for i in range(rng.randint(3, 6))
    )
    ids = [res.id for res in resources]
    commodities = []
    for _ in range(rng.randint(2, 3)):
        strategies = {
            tuple(sorted(rng.sample(ids, rng.randint(1, 3))))
            for _ in range(rng.randint(2, 4))
        }
        commodities.append(Commodity(rng.uniform(0.5, 2.0), tuple(sorted(strategies))))
    return GameInstance(resources, tuple(commodities))


def random_profile(
    rng: random.Random, instance: GameInstance, max_classes: int = 3
) -> SensitivityProfile:
    """Random per-commodity classes: exact demand split, distinct gammas."""
    classes = []
    for commodity in instance.commodities:
        h = rng.randint(1, max_classes)
        gammas = sorted(rng.sample([round(0.1 * g, 1) for g in range(1, 31)], h))
        weights = [rng.uniform(0.2, 1.0) for _ in range(h)]
        total = sum(weights)
        parts = [commodity.demand * w / total for w in weights[:-1]]
        parts.append(commodity.demand - sum(parts))
        classes.append(tuple(zip(parts, gammas)))
    return SensitivityProfile(tuple(classes))


def random_deviations(
    rng: random.Random, instance: GameInstance, beta: float
) -> DeviationProfile:
    """Edge-induced deviations valid at every load: constants stay under
    beta * l_e(0), scale factors under beta."""
    fns = {}
    for res in instance.resources:
        pick = rng.random()
        if pick < 0.3:
            fns[res.id] = DeviationFn.zero()
        elif pick < 0.65:
            fns[res.id] = DeviationFn.constant(rng.uniform(0.0, beta * res.latency(0.0)))
        else:
            fns[res.id] = DeviationFn.scaled(rng.uniform(0.0, beta))
    return DeviationProfile(beta, edge_fns=fns)


def random_feasible_flow(
    rng: random.Random,
    instance: GameInstance,
    profile: SensitivityProfile | None = None,
) -> Flow:
    values = []
    if profile is not None:
        demands = [[d for d, _ in cls_] for cls_ in profile.classes]
    else:
        demands = [[c.demand] for c in instance.commodities]
    for i, commodity in enumerate(instance.commodities):
        rows = []
        for class_demand in demands[i]:
            weights = [rng.random() for _ in commodity.strategies]
            total = sum(weights)
            rows.append([class_demand * w / total for w in weights])
        values.append(rows)
    return Flow.build(instance, values, profile)


def seeded_case(family: str, seed: int, max_classes: int = 3):
    """(rng, instance, profile) for one seeded instance of a family:
    parallel, grid, random-sp, matroid or multicommodity."""
    rng = random.Random(seed)
    if family == "parallel":
        instance = random_parallel_instance(rng)
    elif family == "grid":
        instance = grid_instance(rng, rng.choice((3, 4)))
    elif family == "random-sp":
        instance, _ = gen_random_sp(seed, depth=rng.randint(1, 5), max_leaves=rng.randint(2, 16))
    elif family == "matroid":
        n = rng.randint(3, 6)
        resources = tuple(Resource(f"e{k}", random_latency(rng)) for k in range(n))
        instance = UniformMatroidGame(resources, rank=rng.randint(1, n - 1)).instance
    else:
        instance = random_multicommodity_instance(rng)
    return rng, instance, random_profile(rng, instance, max_classes)


def measured_eps(instance: GameInstance, flow: Flow) -> float:
    """Smallest eps for which the flow is eps-approximate (per commodity,
    over all classes)."""
    worst = 0.0
    for i, _ in enumerate(instance.commodities):
        lats = strategy_latencies(instance, i, flow.loads)
        lmin = min(lats)
        for j in range(len(flow.values[i])):
            for p in flow.used(i, j):
                if lmin <= 0.0:
                    continue
                worst = max(worst, lats[p] / lmin - 1.0)
    return worst


# -- named corpora -----------------------------------------------------------

BRAESS_SUB_PARAMS = ((2, 0.5), (3, 0.25), (4, 0.2), (5, 0.12))
BRAESS_SUPER_PARAMS = ((3, 0.5, 10.0), (4, 0.4, 5.0), (5, 0.3, 2.0))
PARALLEL_SR_PARAMS = (
    (1.0, (1.0,), (1.0,)),
    (0.5, (0.4, 0.6), (0.5, 1.0)),
    (1.0, (0.25, 0.5, 0.25), (0.2, 1.0, 2.0)),
)
TWO_ARC_PARAMS = (
    (1.0, (0.5, 0.5), (1.0, 2.0)),
    (0.5, (0.3, 0.7), (0.4, 1.0)),
    (0.8, (0.2, 0.3, 0.5), (0.25, 0.6, 1.2)),
    (0.0, (0.5, 0.5), (1.0, 2.0)),
)
RANDOM_SP_SEEDS = (11, 23, 37, 41, 53, 67)
RANDOM_PARALLEL_SEEDS = (101, 102, 103, 104, 105, 106, 107, 108)


def generator_corpus() -> list[dict]:
    """All non-matroid corpus cases as dicts with a uniform key set:
    name, kind, instance, profile, deviations, x, z, bound, params."""
    cases: list[dict] = []

    for m, eps in BRAESS_SUB_PARAMS:
        instance, x, z, bound = gen_braess_subcritical(m, eps)
        cases.append(
            dict(name=f"braess-sub-m{m}", kind="braess-sub", instance=instance,
                 profile=None, deviations=None, x=x, z=z, bound=bound,
                 params={"m": m, "eps": eps})
        )
    for m, eps, tau in BRAESS_SUPER_PARAMS:
        instance, x, z, bound = gen_braess_supercritical(m, eps, tau)
        cases.append(
            dict(name=f"braess-super-m{m}", kind="braess-super", instance=instance,
                 profile=None, deviations=None, x=x, z=z, bound=bound,
                 params={"m": m, "eps": eps, "tau": tau})
        )
    for beta, demands, gammas in PARALLEL_SR_PARAMS:
        instance, profile, x, z, bound = gen_parallel_sr(beta, demands, gammas)
        cases.append(
            dict(name=f"parallel-sr-h{len(gammas)}-b{beta}", kind="parallel-sr",
                 instance=instance, profile=profile, deviations=None,
                 x=x, z=z, bound=bound,
                 params={"beta": beta, "demands": demands, "gammas": gammas})
        )
    for beta, demands, gammas in TWO_ARC_PARAMS:
        instance, profile, deviations, x, z, bound = gen_two_arc_dr(
            beta, demands, gammas
        )
        cases.append(
            dict(name=f"two-arc-dr-h{len(gammas)}-b{beta}", kind="two-arc-dr",
                 instance=instance, profile=profile, deviations=deviations,
                 x=x, z=z, bound=bound,
                 params={"beta": beta, "demands": demands, "gammas": gammas})
        )
    for seed in RANDOM_SP_SEEDS:
        instance, _tree = gen_random_sp(seed, depth=3)
        cases.append(
            dict(name=f"random-sp-{seed}", kind="random-sp", instance=instance,
                 profile=None, deviations=None, x=None, z=None, bound=None,
                 params={"seed": seed})
        )
    for seed in RANDOM_PARALLEL_SEEDS:
        rng = random.Random(seed)
        instance = random_parallel_instance(rng)
        cases.append(
            dict(name=f"random-parallel-{seed}", kind="random-parallel",
                 instance=instance, profile=None, deviations=None,
                 x=None, z=None, bound=None, params={"seed": seed})
        )
    return cases


MATROID_PARAMS = (
    (2, 0.4, None),
    (3, 0.25, None),
    (4, 0.2, None),
    (3, 0.5, 40.0),
)


def matroid_corpus() -> list[dict]:
    cases = []
    for k, eps, M in MATROID_PARAMS:
        game, x, z = gen_matroid_unbounded(k, eps, M)
        regime = "sub" if M is None else "super"
        cases.append(
            dict(name=f"matroid-k{k}-{regime}", game=game, x=x, z=z,
                 params={"k": k, "eps": eps, "M": M})
        )
    return cases
