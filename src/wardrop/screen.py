"""Vectorized screen of the strategy table for ``core.validate_instance``.

The screen flags every strategy that may break a strategy or path rule, so
that only those are checked one by one.  ``validate_instance`` imports this
module only for instances with at least ``TABLE_MIN_STRATEGIES`` strategies:
a CLI process run without cached bytecode compiles every module it imports,
and the small instances never need this one.
"""

from __future__ import annotations

import random

import numpy as np

from .core import GameInstance


def screen(instance: GameInstance) -> list[tuple[list[int], set[int]]] | None:
    """Per commodity: the strategies that may violate a strategy or path rule
    (a superset of those that do), and those whose resource set an earlier
    strategy already has (exactly).  None when a strategy names an unknown
    resource.  Resource ids must be unique and graph arcs must match them."""
    try:
        tables = instance.strategy_table
    except KeyError:  # a strategy names an unknown resource
        return None
    n = len(instance.resources)
    # Row keys: sums of random 40-bit weights (the pad's is 0) do not
    # overflow, and rows without repeats have equal keys iff equal sets.
    weights = np.frombuffer(random.Random(0).randbytes(8 * (n + 1)), dtype=np.int64) >> 24
    weights[n] = 0
    paths = None if instance.graph is None else _path_screen(instance)
    screens = []
    for table, commodity in zip(tables, instance.commodities):
        if table.shape[1] == 0:
            odd = np.ones(len(table), dtype=bool)
        elif paths is None:
            odd = table[:, 0] == n
            for c in range(1, table.shape[1]):
                col = table[:, c]
                odd |= (table[:, :c] == col[:, None]).any(axis=1) & (col != n)
        else:
            tail, head, back, source, sink = paths
            t, h = tail[table], head[table]
            bad = back[table]
            bad[:, 0] |= (t[:, 0] != source) | (table[:, 0] == n)
            bad[:, 1:] |= t[:, 1:] != h[:, :-1]
            bad[:, -1] |= h[:, -1] != sink
            odd = bad.any(axis=1)
        suspects = np.flatnonzero(odd).tolist()
        keys = weights[table].sum(axis=1).tolist()
        repeated = set()
        # A suspect may repeat a resource, and then its key is not its set's.
        if suspects or len(set(keys)) < len(keys):
            canon = set()
            for p, strat in enumerate(commodity.strategies):
                key = frozenset(strat)
                if key in canon:
                    repeated.add(p)
                canon.add(key)
        screens.append((sorted(repeated.union(suspects)), repeated))
    return screens


def _path_screen(instance: GameInstance):
    """Node arrays over resource positions for the vectorized path checks:
    (tail, head, back, source, sink).  The pad position is a loop at the
    sink, so a padded row passes only if its last arc ends at the sink.  An
    arc is ``back`` unless it climbs a topological rank; a contiguous walk
    of non-back arcs revisits no node."""
    graph = instance.graph
    assert graph is not None
    index = instance._positions
    names: dict[str, int] = {}
    source = names.setdefault(graph.source, len(names))
    sink = names.setdefault(graph.sink, len(names))
    n = len(instance.resources)
    tail, head = [sink] * (n + 1), [sink] * (n + 1)
    for rid, t, h in graph.arcs:
        k = index[rid]
        tail[k] = names.setdefault(t, len(names))
        head[k] = names.setdefault(h, len(names))
    rank = _topological_rank(len(names), tail[:n], head[:n])
    back = [rank[h] <= rank[t] for t, h in zip(tail[:n], head[:n])] + [False]
    return np.array(tail), np.array(head), np.array(back), source, sink


def _topological_rank(count: int, tails: list[int], heads: list[int]) -> list[int]:
    """Kahn's order of the nodes; nodes on or after a cycle all rank
    ``count``, so the arcs among them are back arcs."""
    out: list[list[int]] = [[] for _ in range(count)]
    indegree = [0] * count
    for t, h in zip(tails, heads):
        out[t].append(h)
        indegree[h] += 1
    rank = [count] * count
    ready = [v for v in range(count) if indegree[v] == 0]
    for r, v in enumerate(ready):  # ``ready`` grows while it is walked
        rank[v] = r
        for w in out[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return rank
