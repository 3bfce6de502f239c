"""Network instance families and graph-side diagnostics.

Contains the two-terminal series-parallel machinery (composition trees,
recognition by reduction, a seeded random generator), the ladder family of
instances whose approximate equilibria degrade as sharply as the number of
backward arcs allows, tight parallel-link families for the class-resolved
bounds, and the alternating-path diagnostic that counts how many arcs a
comparison flow uses "against" an equilibrium flow.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

import numpy as np

from .bounds import BoundValue, braess_sup, dr_bound_discrete, dr_tails, sr_bound_discrete
from .core import (
    Commodity,
    DeviationProfile,
    Flow,
    GameInstance,
    NetworkAnnotation,
    Resource,
    SensitivityProfile,
)
from .errors import InputError, InvariantError
from .latency import DeviationFn, LatencyFn
from .tolerances import TAU_ABS

PATH_CAP = 100_000


# -- series-parallel composition trees -----------------------------------


@dataclass(frozen=True)
class SPTree:
    """Two-terminal series-parallel composition tree over resources."""

    kind: str  # "leaf" | "series" | "parallel"
    resource: Resource | None = None
    children: tuple["SPTree", ...] = ()

    @classmethod
    def leaf(cls, resource: Resource) -> "SPTree":
        return cls("leaf", resource=resource)

    @classmethod
    def series(cls, first: "SPTree", second: "SPTree") -> "SPTree":
        return cls("series", children=(first, second))

    @classmethod
    def parallel(cls, first: "SPTree", second: "SPTree") -> "SPTree":
        return cls("parallel", children=(first, second))

    def __post_init__(self):
        if self.kind == "leaf":
            if self.resource is None or self.children:
                raise InputError("leaf nodes carry a resource and no children")
        elif self.kind in ("series", "parallel"):
            if self.resource is not None or len(self.children) != 2:
                raise InputError(f"{self.kind} nodes need exactly two children")
        else:
            raise InputError(f"unknown tree kind {self.kind!r}")

    def leaves(self) -> list[Resource]:
        if self.kind == "leaf":
            return [self.resource]  # type: ignore[list-item]
        return self.children[0].leaves() + self.children[1].leaves()

    def paths(self) -> list[tuple[str, ...]]:
        """Source-sink paths as resource-id tuples, in tree order."""
        if self.kind == "leaf":
            return [(self.resource.id,)]  # type: ignore[union-attr]
        left = self.children[0].paths()
        right = self.children[1].paths()
        if self.kind == "parallel":
            return left + right
        return [a + b for a in left for b in right]

    def to_annotation(self) -> NetworkAnnotation:
        """Embed the tree between the terminals "s" and "t"; series nodes
        become n0, n1, ... in depth-first order."""
        nodes: list[str] = ["s", "t"]
        arcs: list[tuple[str, str, str]] = []
        counter = [0]

        def embed(tree: "SPTree", tail: str, head: str) -> None:
            if tree.kind == "leaf":
                arcs.append((tree.resource.id, tail, head))  # type: ignore[union-attr]
            elif tree.kind == "series":
                mid = f"n{counter[0]}"
                counter[0] += 1
                nodes.append(mid)
                embed(tree.children[0], tail, mid)
                embed(tree.children[1], mid, head)
            else:
                embed(tree.children[0], tail, head)
                embed(tree.children[1], tail, head)

        embed(self, "s", "t")
        return NetworkAnnotation(nodes=tuple(nodes), arcs=tuple(arcs), source="s", sink="t")


def is_series_parallel(annotation: NetworkAnnotation) -> bool:
    """Recognize two-terminal series-parallel graphs by reduction.

    Repeatedly merges parallel arcs and contracts internal nodes with one
    incoming and one outgoing arc; the graph is series-parallel iff a single
    source-sink arc remains.
    """
    arcs = [(tail, head) for _, tail, head in annotation.arcs]
    s, t = annotation.source, annotation.sink
    changed = True
    while changed:
        changed = False
        seen: set[tuple[str, str]] = set()
        merged: list[tuple[str, str]] = []
        for arc in arcs:
            if arc in seen:
                changed = True
                continue
            seen.add(arc)
            merged.append(arc)
        arcs = merged
        nodes = {s, t}
        for tail, head in arcs:
            nodes.add(tail)
            nodes.add(head)
        for v in sorted(nodes - {s, t}):
            ins = [a for a in arcs if a[1] == v]
            outs = [a for a in arcs if a[0] == v]
            if len(ins) == 1 and len(outs) == 1:
                u, w = ins[0][0], outs[0][1]
                if u == w:
                    continue
                arcs = [a for a in arcs if a not in (ins[0], outs[0])]
                arcs.append((u, w))
                changed = True
                break
    return arcs == [(s, t)]


def gen_random_sp(
    seed: int,
    depth: int = 4,
    latency_family: str = "mixed",
    max_leaves: int = 10,
) -> tuple[GameInstance, SPTree]:
    """Seed-deterministic random series-parallel instance, unit demand."""
    if not 1 <= depth <= 8:
        raise InputError(f"depth must lie in 1..8, got {depth}")
    if not 2 <= max_leaves <= 64:
        raise InputError(f"max_leaves must lie in 2..64, got {max_leaves}")
    if latency_family not in ("affine", "polynomial", "piecewise-linear", "constant", "mixed"):
        raise InputError(f"unknown latency family {latency_family!r}")
    rng = random.Random(seed)
    counter = [0]

    def make_latency() -> LatencyFn:
        family = latency_family
        if family == "mixed":
            family = rng.choice(("affine", "polynomial", "piecewise-linear", "constant"))
        if family == "constant":
            return LatencyFn.constant(rng.uniform(0.5, 2.0))
        if family == "affine":
            return LatencyFn.affine(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        if family == "polynomial":
            degree = rng.randint(1, 3)
            return LatencyFn.polynomial(
                [rng.uniform(0.1, 1.0)] + [rng.uniform(0.0, 1.0) for _ in range(degree)]
            )
        x1 = rng.uniform(0.2, 0.8)
        y0 = rng.uniform(0.1, 1.0)
        y1 = y0 + rng.uniform(0.0, 1.0)
        y2 = y1 + rng.uniform(0.1, 1.0)
        return LatencyFn.piecewise_linear(
            [(0.0, y0), (x1, y1), (x1 + rng.uniform(0.2, 0.8), y2)],
            final_slope=rng.uniform(0.1, 2.0),
        )

    def make_leaf() -> SPTree:
        rid = f"e{counter[0]}"
        counter[0] += 1
        return SPTree.leaf(Resource(rid, make_latency()))

    def build(budget: int, level: int) -> SPTree:
        if budget == 1 or level >= depth:
            return make_leaf()
        split = rng.randint(1, budget - 1)
        kind = rng.choice(("series", "parallel"))
        left = build(split, level + 1)
        right = build(budget - split, level + 1)
        return SPTree.series(left, right) if kind == "series" else SPTree.parallel(left, right)

    leaves = rng.randint(2, max_leaves)
    tree = build(leaves, 0)
    annotation = tree.to_annotation()
    instance = GameInstance(
        resources=tuple(tree.leaves()),
        commodities=(Commodity(1.0, tuple(tree.paths())),),
        graph=annotation,
        meta={
            "family": "random-sp",
            "params": {"seed": seed, "depth": depth, "latency_family": latency_family},
        },
    )
    return instance, tree


def enumerate_st_paths(annotation: NetworkAnnotation) -> list[tuple[str, ...]]:
    """All simple source-sink paths as arc-id tuples, in DFS order over
    arc ids sorted per tail node; InputError past ``PATH_CAP`` paths."""
    outgoing: dict[str, list[tuple[str, str]]] = {}
    for rid, tail, head in annotation.arcs:
        outgoing.setdefault(tail, []).append((rid, head))
    for lst in outgoing.values():
        lst.sort()
    paths: list[tuple[str, ...]] = []

    def walk(at: str, visited: frozenset[str], trail: tuple[str, ...]) -> None:
        if at == annotation.sink:
            paths.append(trail)
            if len(paths) > PATH_CAP:
                raise InputError(f"more than {PATH_CAP} source-sink paths")
            return
        for rid, head in outgoing.get(at, ()):
            if head not in visited:
                walk(head, visited | {head}, trail + (rid,))

    walk(annotation.source, frozenset({annotation.source}), ())
    return paths


# -- ladder family ---------------------------------------------------------


def build_braess_graph(m: int) -> NetworkAnnotation:
    """Order-m ladder: 2m nodes, 4m-3 arcs, 2m-1 source-sink paths."""
    if not isinstance(m, int) or m < 2:
        raise InputError(f"m must be an integer >= 2, got {m!r}")
    nodes = ["s"] + [f"v{j}" for j in range(1, m)] + [f"w{j}" for j in range(1, m)] + ["t"]
    arcs: list[tuple[str, str, str]] = []
    for j in range(1, m):
        arcs.append((f"sv{j}", "s", f"v{j}"))
        arcs.append((f"v{j}w{j}", f"v{j}", f"w{j}"))
        arcs.append((f"w{j}t", f"w{j}", "t"))
    for j in range(2, m):
        arcs.append((f"v{j}w{j-1}", f"v{j}", f"w{j-1}"))
    arcs.append(("v1t", "v1", "t"))
    arcs.append((f"sw{m-1}", "s", f"w{m-1}"))
    return NetworkAnnotation(nodes=tuple(nodes), arcs=tuple(arcs), source="s", sink="t")


def braess_strategies(m: int) -> tuple[tuple[str, ...], ...]:
    """Path list for the order-m ladder: the m single-unit paths first,
    then the m-1 rung paths."""
    unit: list[tuple[str, ...]] = [("sv1", "v1t")]
    for j in range(2, m):
        unit.append((f"sv{j}", f"v{j}w{j-1}", f"w{j-1}t"))
    unit.append((f"sw{m-1}", f"w{m-1}t"))
    rung = [(f"sv{j}", f"v{j}w{j}", f"w{j}t") for j in range(1, m)]
    return tuple(unit + rung)


def _braess_instance(m: int, rising: LatencyFn, rung_latency: LatencyFn, meta: dict) -> GameInstance:
    annotation = build_braess_graph(m)

    def scaled(factor: float) -> LatencyFn:
        points = tuple((x, factor * y) for x, y in rising.points)
        return LatencyFn.piecewise_linear(points, factor * rising.final_slope)

    latencies: dict[str, LatencyFn] = {}
    for j in range(1, m):
        latencies[f"sv{j}"] = scaled(float(m - j))
        latencies[f"w{j}t"] = scaled(float(j))
        latencies[f"v{j}w{j}"] = rung_latency
    for j in range(2, m):
        latencies[f"v{j}w{j-1}"] = LatencyFn.constant(1.0)
    latencies["v1t"] = LatencyFn.constant(1.0)
    latencies[f"sw{m-1}"] = LatencyFn.constant(1.0)
    resources = tuple(Resource(rid, latencies[rid]) for rid, _, _ in annotation.arcs)
    return GameInstance(
        resources=resources,
        commodities=(Commodity(1.0, braess_strategies(m)),),
        graph=annotation,
        meta=meta,
    )


def _braess_flows(instance: GameInstance, m: int) -> tuple[Flow, Flow]:
    n_paths = 2 * m - 1
    z_vals = [1.0 / m] * m + [0.0] * (m - 1)
    x_vals = [0.0] * m + [1.0 / (m - 1)] * (m - 1)
    z = Flow.single_class(instance, [z_vals[:n_paths]])
    x = Flow.single_class(instance, [x_vals[:n_paths]])
    return x, z


def gen_braess_subcritical(m: int, eps: float) -> tuple[GameInstance, Flow, Flow, BoundValue]:
    """Ladder instance below the critical tolerance: the rung flow is an
    eps-approximate equilibrium costing (1+eps)/(1-eps*(m-1)) times the
    equilibrium.  Returns (instance, rung flow x, equilibrium flow z, bound).
    """
    if not isinstance(m, int) or m < 2:
        raise InputError(f"m must be an integer >= 2, got {m!r}")
    if not 0.0 <= eps:
        raise InputError(f"eps must be nonnegative, got {eps}")
    if eps * (m - 1) >= 1.0:
        raise InputError(
            f"eps={eps} is not subcritical for m={m}: requires eps*(m-1) < 1"
        )
    target = eps / (1.0 - eps * (m - 1))
    rising = LatencyFn.piecewise_linear(
        [(0.0, 0.0), (1.0 / m, 0.0), (1.0 / (m - 1), target)],
        final_slope=target * m * (m - 1),
    )
    bound = braess_sup(eps, 2 * m)
    meta = {
        "family": "braess-sub",
        "params": {"m": m, "eps": eps},
        "bound": bound.to_obj(),
    }
    instance = _braess_instance(m, rising, LatencyFn.constant(1.0), meta)
    x, z = _braess_flows(instance, m)
    return instance, x, z, bound


def gen_braess_supercritical(
    m: int, eps: float, tau: float
) -> tuple[GameInstance, Flow, Flow, BoundValue]:
    """Ladder instance at or above the critical tolerance; the rung flow's
    cost (1+eps)*(1+(m-1)*tau) grows without bound in tau.
    Returns (instance, rung flow x, equilibrium flow z, bound)."""
    if not isinstance(m, int) or m < 2:
        raise InputError(f"m must be an integer >= 2, got {m!r}")
    if not eps * (m - 1) >= 1.0:
        raise InputError(
            f"eps={eps} is not supercritical for m={m}: requires eps*(m-1) >= 1"
        )
    if not tau >= 0.0:
        raise InputError(f"tau must be nonnegative, got {tau}")
    rising = LatencyFn.piecewise_linear(
        [(0.0, 0.0), (1.0 / m, 0.0), (1.0 / (m - 1), tau)],
        final_slope=tau * m * (m - 1),
    )
    plateau = (1.0 + eps) + ((m - 1) * eps - 1.0) * tau
    bound = braess_sup(eps, 2 * m)
    meta = {
        "family": "braess-super",
        "params": {"m": m, "eps": eps, "tau": tau},
        "bound": bound.to_obj(),
        "achieved": (1.0 + eps) * (1.0 + (m - 1) * tau),
    }
    instance = _braess_instance(m, rising, LatencyFn.constant(plateau), meta)
    x, z = _braess_flows(instance, m)
    return instance, x, z, bound


# -- parallel-link tightness families ---------------------------------------


def _normalize_demands(demands, gammas) -> tuple[list[float], list[float], float]:
    demands = [float(d) for d in demands]
    gammas = [float(g) for g in gammas]
    if len(demands) != len(gammas) or not demands:
        raise InputError("need matching nonempty demand/sensitivity vectors")
    if any(d <= 0 for d in demands):
        raise InputError(f"class demands must be positive, got {demands}")
    if any(g < 0 for g in gammas):
        raise InputError(f"sensitivities must be nonnegative, got {gammas}")
    if any(g1 >= g2 for g1, g2 in zip(gammas, gammas[1:])):
        raise InputError(f"sensitivities must be strictly increasing, got {gammas}")
    total = sum(demands)
    return [d / total for d in demands], gammas, total


def _parallel_annotation(ids: list[str]) -> NetworkAnnotation:
    return NetworkAnnotation(
        nodes=("s", "t"),
        arcs=tuple((rid, "s", "t") for rid in ids),
        source="s",
        sink="t",
    )


def gen_parallel_sr(
    beta: float, demands, gammas
) -> tuple[GameInstance, SensitivityProfile, Flow, Flow, BoundValue]:
    """Parallel-link family where the class-resolved approximate flow is as
    costly as the discrete stability bound allows.

    Link 0 has latency 1; link j has constant latency 1 + beta*gamma_j.
    Returns (instance, profile, class flow x, equilibrium flow z, bound);
    x routes class j on link j, z routes everything on link 0.
    """
    if not beta >= 0:
        raise InputError(f"beta must be nonnegative, got {beta}")
    r, g, total = _normalize_demands(demands, gammas)
    h = len(r)
    ids = [f"a{j}" for j in range(h + 1)]
    resources = [Resource("a0", LatencyFn.constant(1.0))]
    for j in range(1, h + 1):
        resources.append(Resource(f"a{j}", LatencyFn.constant(1.0 + beta * g[j - 1])))
    bound = sr_bound_discrete(beta, r, g)
    meta = {
        "family": "parallel-sr",
        "params": {"beta": beta, "r": list(r), "gamma": list(g)},
        "bound": bound.to_obj(),
    }
    if total != 1.0:
        meta["params"]["demand_scale"] = total
    instance = GameInstance(
        resources=tuple(resources),
        commodities=(Commodity(1.0, tuple((rid,) for rid in ids)),),
        graph=_parallel_annotation(ids),
        meta=meta,
    )
    profile = SensitivityProfile.single_commodity(r, g)
    x_values = np.zeros((h, h + 1))
    x_values[np.arange(h), np.arange(1, h + 1)] = r
    x = Flow.build(instance, [x_values], profile)
    z = Flow.spread_classes(instance, [[1.0] + [0.0] * h], profile)
    return instance, profile, x, z, bound


def gen_two_arc_dr(
    beta: float,
    demands,
    gammas,
    j: int | None = None,
    eps_prime: float | None = None,
) -> tuple[GameInstance, SensitivityProfile, DeviationProfile, Flow, Flow, BoundValue]:
    """Two-link family where a bounded-deviation equilibrium is as costly as
    the discrete deviation bound allows.

    Link 1: latency 1, deviation beta.  Link 2: no deviation, latency rising
    from 1 + eps_prime at load 0 to 1 + beta*gamma_j at the tail demand
    r_j + ... + r_h (then slope 1).  Classes j..h move to link 2 at
    equilibrium; the split flow x costs 1 + beta*gamma_j*(r_j+...+r_h).
    ``j`` is 1-based and defaults to the argmax of gamma_j * tail_j.
    Returns (instance, profile, deviations, x, z, bound).
    """
    if not beta >= 0:
        raise InputError(f"beta must be nonnegative, got {beta}")
    r, g, total = _normalize_demands(demands, gammas)
    h = len(r)
    tails, _ = dr_tails(r, g)
    if j is None:
        j = 1 + max(range(h), key=lambda p: g[p] * tails[p])
    if not isinstance(j, int) or not 1 <= j <= h:
        raise InputError(f"j must be an integer in 1..{h}, got {j!r}")
    tail = tails[j - 1]
    rise = beta * g[j - 1]
    if rise <= TAU_ABS:
        eps_local = 1e-6 if eps_prime is None else float(eps_prime)
        if not eps_local > 0:
            raise InputError(f"eps_prime must be positive, got {eps_prime}")
        second = LatencyFn.piecewise_linear([(0.0, 1.0 + eps_local)], final_slope=1.0)
        degenerate = True
    else:
        eps_local = 1e-6 * rise if eps_prime is None else float(eps_prime)
        if not 0.0 < eps_local < rise:
            raise InputError(
                f"eps_prime must lie in (0, beta*gamma_j) = (0, {rise}), got {eps_local}"
            )
        second = LatencyFn.piecewise_linear(
            [(0.0, 1.0 + eps_local), (tail, 1.0 + rise)], final_slope=1.0
        )
        degenerate = False
    bound = dr_bound_discrete(beta, r, g)
    meta = {
        "family": "two-arc-dr",
        "params": {
            "beta": beta,
            "r": list(r),
            "gamma": list(g),
            "j": j,
            "eps_prime": eps_local,
        },
        "bound": bound.to_obj(),
        "achieved": 1.0 if degenerate else 1.0 + beta * (g[j - 1] * tail),
    }
    if total != 1.0:
        meta["params"]["demand_scale"] = total
    instance = GameInstance(
        resources=(Resource("a1", LatencyFn.constant(1.0)), Resource("a2", second)),
        commodities=(Commodity(1.0, (("a1",), ("a2",))),),
        graph=_parallel_annotation(["a1", "a2"]),
        meta=meta,
    )
    profile = SensitivityProfile.single_commodity(r, g)
    deviations = DeviationProfile(
        beta=beta,
        edge_fns={"a1": DeviationFn.constant(beta), "a2": DeviationFn.zero()},
    )
    x_values = [[[r[p], 0.0] if (degenerate or p < j - 1) else [0.0, r[p]] for p in range(h)]]
    x = Flow.build(instance, x_values, profile)
    z = Flow.spread_classes(instance, [[1.0, 0.0]], profile)
    return instance, profile, deviations, x, z, bound


# -- alternating paths -------------------------------------------------------


@dataclass(frozen=True)
class AlternatingPath:
    """Mixed-direction source-sink path: forward arcs carry at least as much
    equilibrium flow as comparison flow, backward arcs the opposite.  ``q``
    counts the backward arcs."""

    steps: tuple[tuple[str, bool], ...]  # (resource id, traversed forward)
    q: int

    def arcs(self) -> tuple[str, ...]:
        return tuple(rid for rid, _ in self.steps)


def _classify_arcs(instance: GameInstance, x: Flow, z: Flow) -> list[tuple[str, str, str, bool]]:
    """(rid, from, to, forward) edges of the mixed graph; arcs that neither
    flow loads beyond TAU_ABS are dropped."""
    if instance.graph is None:
        raise InputError("alternating paths need a graph annotation")
    if len(instance.commodities) != 1:
        raise InputError("alternating paths are defined for single-commodity instances")
    index = instance.resource_index()
    edges = []
    for rid, tail, head in instance.graph.arcs:
        k = index[rid]
        xa, za = x.loads[k], z.loads[k]
        if xa <= TAU_ABS and za <= TAU_ABS:
            continue
        if za >= xa - TAU_ABS and za > TAU_ABS:
            edges.append((rid, tail, head, True))
        else:
            edges.append((rid, head, tail, False))
    return edges


def compute_alternating_path(instance: GameInstance, x: Flow, z: Flow) -> AlternatingPath:
    """Minimum-backward-arc alternating path from source to sink.

    Arcs where the equilibrium flow z carries at least the comparison flow x
    (and is positive) are traversed forward, the rest backward; arcs unused
    by both are removed.  Computed as a 0/1-weight shortest path, so the
    returned q is minimal; q == 0 exactly when some source-sink path uses
    only arcs where z dominates x.
    """
    edges = _classify_arcs(instance, x, z)
    graph = instance.graph
    adjacency: dict[str, list[tuple[int, str, str, bool]]] = {}
    for rid, frm, to, forward in sorted(edges):
        adjacency.setdefault(frm, []).append((0 if forward else 1, rid, to, forward))
    for lst in adjacency.values():
        lst.sort()
    dist: dict[str, int] = {graph.source: 0}
    parent: dict[str, tuple[str, str, bool]] = {}
    heap: list[tuple[int, int, str]] = [(0, 0, graph.source)]
    seq = 0
    settled: set[str] = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == graph.sink:
            break
        for w, rid, to, forward in adjacency.get(node, ()):
            nd = d + w
            if to not in dist or nd < dist[to]:
                dist[to] = nd
                parent[to] = (node, rid, forward)
                seq += 1
                heapq.heappush(heap, (nd, seq, to))
    if graph.sink not in settled:
        raise InvariantError(
            "no alternating source-sink path: the mixed graph built from the "
            "two flows does not connect the terminals"
        )
    steps: list[tuple[str, bool]] = []
    node = graph.sink
    while node != graph.source:
        prev, rid, forward = parent[node]
        steps.append((rid, forward))
        node = prev
    steps.reverse()
    return AlternatingPath(steps=tuple(steps), q=dist[graph.sink])

