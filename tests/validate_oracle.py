"""Reference implementation of ``validate_instance``: every strategy checked
one by one, in Python.  The library's report, cached on the instance, must
equal this one exactly.  (A path naming an unknown resource is skipped by
both; the per-strategy check reports it.)"""

from __future__ import annotations

from math import isfinite

from wardrop.core import GameInstance
from wardrop.errors import WardropError


def oracle_validate_instance(instance: GameInstance) -> list[str]:
    """Collect every violated instance invariant; empty list iff well formed."""
    report: list[str] = []
    seen: set[str] = set()
    for res in instance.resources:
        if not res.id:
            report.append("resource ids must be nonempty strings")
        if res.id in seen:
            report.append(f"duplicate resource id {res.id!r}")
        seen.add(res.id)
        try:
            res.latency.validate()
        except WardropError as exc:
            report.append(f"resource {res.id!r}: {exc}")
    if not instance.commodities:
        report.append("instance has no commodities")
    for i, commodity in enumerate(instance.commodities):
        if not (isfinite(commodity.demand) and commodity.demand > 0):
            report.append(f"commodity {i} demand must be positive, got {commodity.demand}")
        if not commodity.strategies:
            report.append(f"commodity {i} has no strategies")
        canon = set()
        for strat in commodity.strategies:
            if not strat:
                report.append(f"commodity {i} has an empty strategy")
                continue
            if len(set(strat)) != len(strat):
                report.append(f"commodity {i} strategy {strat} repeats a resource")
            missing = [rid for rid in strat if rid not in seen]
            if missing:
                report.append(
                    f"commodity {i} strategy uses unknown resource {missing[0]!r}"
                )
            key = frozenset(strat)
            if key in canon:
                report.append(f"commodity {i} lists strategy {sorted(strat)} twice")
            canon.add(key)
    if instance.graph is not None:
        report.extend(_graph_violations(instance))
    return report


def _graph_violations(instance: GameInstance) -> list[str]:
    graph = instance.graph
    assert graph is not None
    report: list[str] = []
    node_set = set(graph.nodes)
    if len(node_set) != len(graph.nodes):
        report.append("graph annotation repeats a node")
    if graph.source not in node_set or graph.sink not in node_set:
        report.append("graph terminals must be listed nodes")
    if graph.source == graph.sink:
        report.append("graph source and sink must differ")
    arc_ids = [rid for rid, _, _ in graph.arcs]
    if set(arc_ids) != {res.id for res in instance.resources} or len(arc_ids) != len(
        set(arc_ids)
    ):
        # Path checks below would chase missing arcs; stop at the mismatch.
        report.append("graph arcs must match the resource set one-to-one")
        return report
    arc_map = graph.arc_map()
    for rid, tail, head in graph.arcs:
        if tail not in node_set or head not in node_set:
            report.append(f"arc {rid!r} references an unknown node")
    for i, commodity in enumerate(instance.commodities):
        for strat in commodity.strategies:
            msg = _path_violation(arc_map, strat, graph.source, graph.sink, i)
            if msg:
                report.append(msg)
    return report


def _path_violation(
    arc_map: dict[str, tuple[str, str]],
    strat: tuple[str, ...],
    source: str,
    sink: str,
    commodity: int,
) -> str | None:
    at = source
    visited = {source}
    for rid in strat:
        if rid not in arc_map:
            return None  # already reported as an unknown resource
        tail, head = arc_map[rid]
        if tail != at:
            return (
                f"commodity {commodity} strategy {strat} is not a contiguous "
                f"source-sink path (arc {rid!r} starts at {tail!r}, expected {at!r})"
            )
        if head in visited:
            return f"commodity {commodity} strategy {strat} revisits node {head!r}"
        visited.add(head)
        at = head
    if at != sink:
        return f"commodity {commodity} strategy {strat} ends at {at!r}, not the sink"
    return None
