"""Core data model: game instances, sensitivity classes, flows, deviations.

An instance is a finite set of resources with load-dependent latencies plus
one commodity per traffic population.  A commodity carries a demand and an
explicitly enumerated list of strategies; each strategy is a set of resource
ids (a path when a graph annotation is attached, a matroid basis otherwise).

A population may be split into sensitivity classes: pairs (class demand,
sensitivity) with strictly increasing sensitivities inside a commodity.  The
same container doubles as a per-class tolerance profile when the second
member is read as an approximation factor instead of a sensitivity.

Solvers and verifiers share one compiled view that ``GameInstance`` caches
on first use: the read-only ``resource_index()``, ``violations`` (the
report of ``validate_instance``), ``strategy_ids`` (each strategy as a tuple
of resource positions), ``strategy_table`` (the same positions as one padded
integer array per commodity), ``latencies(loads)``, which evaluates every
resource once, and ``latency_bank``, the same evaluation compiled for numpy
load vectors.  A ``Flow`` holds one read-only float64 array of shape
(classes, strategies) per commodity, with its loads summed at construction.

All types are immutable; operations are pure functions of their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isfinite
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, InvariantError, WardropError
from .latency import DeviationFn, LatencyBank, LatencyFn
from .tolerances import TAU_ABS, close_leq, demand_matches, tau_rel

# Commodities with fewer strategies than this take the per-strategy Python
# sums instead of ``strategy_table``: there the loops cost less than the
# table's fixed numpy overhead (crossover near 20 strategies), and a
# short-lived CLI process touches no extra numpy code pages.
TABLE_MIN_STRATEGIES = 64


@dataclass(frozen=True)
class Resource:
    id: str
    latency: LatencyFn


@dataclass(frozen=True)
class NetworkAnnotation:
    """Optional directed-graph view: one arc per resource, two terminals."""

    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str, str], ...]  # (resource id, tail, head)
    source: str
    sink: str

    def arc_map(self) -> dict[str, tuple[str, str]]:
        return {rid: (tail, head) for rid, tail, head in self.arcs}


@dataclass(frozen=True)
class Commodity:
    demand: float
    strategies: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class GameInstance:
    resources: tuple[Resource, ...]
    commodities: tuple[Commodity, ...]
    graph: NetworkAnnotation | None = None
    meta: Mapping | None = None

    @cached_property
    def _positions(self) -> dict[str, int]:
        # plain dict in the cache so instances still pickle and deep-copy
        return {res.id: k for k, res in enumerate(self.resources)}

    def resource_index(self) -> Mapping[str, int]:
        """Read-only map from resource id to its position in ``resources``."""
        return MappingProxyType(self._positions)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Every violated instance invariant, empty iff the instance is well
        formed; ``validate_instance`` returns a list copy."""
        return tuple(_violations(self))

    @cached_property
    def strategy_ids(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``strategy_ids[i][p]``: positions of the resources of strategy p of
        commodity i, in the strategy's own order."""
        position = self._positions.__getitem__
        return tuple(
            tuple(tuple(map(position, strat)) for strat in commodity.strategies)
            for commodity in self.commodities
        )

    @cached_property
    def strategy_table(self) -> tuple[np.ndarray, ...]:
        """``strategy_table[i]``: read-only (P, L) integer array whose row p
        is ``strategy_ids[i][p]`` padded with ``len(resources)``, where L is
        the length of the longest strategy of commodity i."""
        n = len(self.resources)
        tables = []
        for ids in self.strategy_ids:
            lengths = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
            table = np.full((len(ids), int(lengths.max(initial=0))), n, dtype=np.intp)
            table[np.arange(table.shape[1]) < lengths[:, None]] = np.fromiter(
                chain.from_iterable(ids), dtype=np.intp, count=int(lengths.sum())
            )
            table.flags.writeable = False
            tables.append(table)
        return tuple(tables)

    def latencies(self, loads: Sequence[float]) -> list[float]:
        """Latency of every resource at the given per-resource loads."""
        return [res.latency(x) for res, x in zip(self.resources, loads)]

    @cached_property
    def latency_bank(self) -> LatencyBank:
        """``latencies`` compiled for numpy load vectors (same values)."""
        return LatencyBank([res.latency for res in self.resources])

    def latency_of(self, rid: str) -> LatencyFn:
        k = self._positions.get(rid)
        if k is None:
            raise InputError(f"unknown resource id {rid!r}")
        return self.resources[k].latency


@dataclass(frozen=True)
class SensitivityProfile:
    """Per commodity: classes of (demand, value), values strictly increasing.

    ``values`` are deviation sensitivities by default; several verifiers read
    them as per-class approximation factors instead.
    """

    classes: tuple[tuple[tuple[float, float], ...], ...]

    @classmethod
    def single_commodity(
        cls, demands: Sequence[float], values: Sequence[float]
    ) -> "SensitivityProfile":
        if len(demands) != len(values):
            raise InputError(
                f"class demands and values differ in length: {len(demands)} vs {len(values)}"
            )
        return cls((tuple(zip(map(float, demands), map(float, values))),))

    def validate(self, instance: GameInstance) -> None:
        if len(self.classes) != len(instance.commodities):
            raise InvariantError(
                f"profile covers {len(self.classes)} commodities, "
                f"instance has {len(instance.commodities)}"
            )
        rtol = tau_rel()
        for i, (classes, commodity) in enumerate(zip(self.classes, instance.commodities)):
            if not classes:
                raise InvariantError(f"commodity {i} has no sensitivity classes")
            total = 0.0
            for j, (dem, val) in enumerate(classes):
                if not (isfinite(dem) and isfinite(val)):
                    raise InvariantError(f"commodity {i} class {j} has non-finite entries")
                if dem < 0:
                    raise InvariantError(f"commodity {i} class {j} demand {dem} is negative")
                if val < 0:
                    raise InvariantError(f"commodity {i} class {j} value {val} is negative")
                total += dem
            values = [val for _, val in classes]
            if any(v1 >= v2 for v1, v2 in zip(values, values[1:])):
                raise InvariantError(
                    f"commodity {i} class values must be strictly increasing, got {values}"
                )
            if not demand_matches(total, commodity.demand, rtol):
                raise InvariantError(
                    f"commodity {i} class demands sum to {total}, expected {commodity.demand}"
                )

    def scaled(self, factor: float) -> "SensitivityProfile":
        """Same classes with every value multiplied by ``factor``."""
        return SensitivityProfile(
            tuple(tuple((d, factor * v) for d, v in cls_) for cls_ in self.classes)
        )


def validate_instance(instance: GameInstance) -> list[str]:
    """Collect every violated instance invariant; empty list iff well formed.

    The report is computed once per instance, strategy by strategy, and
    cached as ``GameInstance.violations``; each call returns a fresh list.
    """
    return list(instance.violations)


def _violations(instance: GameInstance) -> list[str]:
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
            unique = set(strat)
            if len(unique) != len(strat):
                report.append(f"commodity {i} strategy {strat} repeats a resource")
            missing = [rid for rid in strat if rid not in seen]
            if missing:
                report.append(
                    f"commodity {i} strategy uses unknown resource {missing[0]!r}"
                )
            # a sorted tuple is the resource set's key at a fraction of a
            # frozenset's memory
            key = tuple(sorted(unique))
            if key in canon:
                report.append(f"commodity {i} lists strategy {sorted(strat)} twice")
            canon.add(key)
    if instance.graph is not None:
        report.extend(_graph_violations(instance))
    return report


def require_valid_instance(instance: GameInstance) -> None:
    """Raise InvariantError carrying the first violation, if any."""
    report = validate_instance(instance)
    if report:
        raise InvariantError(report[0])


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


@dataclass(frozen=True, eq=False)
class Flow:
    """Class-resolved strategy flows with cached per-resource loads.

    ``values[i]`` is a read-only float64 array of shape (classes, strategies):
    ``values[i][j, p]`` is the amount class j of commodity i routes over
    strategy p.  ``loads``, a tuple of floats, is summed at construction: per
    commodity the classes in class order, then onto the resources in
    strategy order, then across commodities.  ``recompute_loads`` repeats
    that order so the cache can be audited bit for bit.  Flows compare by
    identity, since arrays have no single truth value.
    """

    instance: GameInstance
    values: tuple[np.ndarray, ...]
    class_demands: tuple[tuple[float, ...], ...]
    loads: tuple[float, ...]

    @classmethod
    def build(
        cls,
        instance: GameInstance,
        values: Sequence[Sequence[Sequence[float]]],
        profile: SensitivityProfile | None = None,
    ) -> "Flow":
        """Check rows in order (length, first bad entry, demand) and freeze
        them; entries in [-TAU_ABS, 0) become 0.0."""
        if len(values) != len(instance.commodities):
            raise InputError(
                f"flow covers {len(values)} commodities, instance has {len(instance.commodities)}"
            )
        if profile is not None:
            profile.validate(instance)
            demands = tuple(tuple(d for d, _ in cl) for cl in profile.classes)
        else:
            demands = tuple((c.demand,) for c in instance.commodities)
        rtol = tau_rel()
        arrays = []
        for i, commodity in enumerate(instance.commodities):
            per_class = values[i]
            if len(per_class) != len(demands[i]):
                raise InputError(
                    f"commodity {i}: flow has {len(per_class)} classes, profile has {len(demands[i])}"
                )
            n = len(commodity.strategies)
            try:
                array = np.array(per_class, dtype=float)
                if array.shape != (len(per_class), n):
                    raise ValueError(array.shape)
            except ValueError:  # a row of the wrong length: the rows ahead of it fail first
                j = next((j for j, row in enumerate(per_class) if len(row) != n), len(per_class))
                _check_rows(i, np.array(per_class[:j], dtype=float).reshape(j, n), demands[i], rtol)
                raise InputError(
                    f"commodity {i} class {j}: {len(per_class[j])} strategy flows for {n} strategies"
                ) from None
            _check_rows(i, array, demands[i], rtol)
            array.flags.writeable = False
            arrays.append(array)
        values_t = tuple(arrays)
        return cls(instance, values_t, demands, _edge_loads(instance, values_t))

    @classmethod
    def single_class(
        cls, instance: GameInstance, per_commodity: Sequence[Sequence[float]]
    ) -> "Flow":
        return cls.build(instance, [[row] for row in per_commodity])

    @classmethod
    def spread_classes(
        cls,
        instance: GameInstance,
        per_commodity: Sequence[Sequence[float]],
        profile: SensitivityProfile,
    ) -> "Flow":
        """Split commodity-level strategy flows across classes pro rata."""
        values = [
            np.multiply.outer(np.array([dem for dem, _ in classes]) / commodity.demand, row)
            for commodity, classes, row in zip(
                instance.commodities, profile.classes, per_commodity
            )
        ]
        return cls.build(instance, values, profile)

    def strategy_totals(self, i: int) -> tuple[float, ...]:
        """Commodity-level flow per strategy (classes summed in order)."""
        return tuple(_class_totals(self.values[i]).tolist())

    def recompute_loads(self) -> tuple[float, ...]:
        """Re-derive total loads with the construction-time summation order."""
        return _edge_loads(self.instance, self.values)

    def used(self, i: int, j: int) -> list[int]:
        """Strategies on which class j of commodity i routes more than TAU_ABS."""
        return np.flatnonzero(self.values[i][j] > TAU_ABS).tolist()


def _check_rows(i: int, array: np.ndarray, demands: Sequence[float], rtol: float) -> None:
    """Raise for the first failing row of commodity i: its first non-finite
    or negative entry, else its sum off its class demand.  Clips entries in
    [-TAU_ABS, 0) of ``array`` to 0.0 in place."""
    low = array.min(initial=0.0)  # NaN when some entry is
    last = len(array)  # rows ahead of the first bad entry
    if not (low >= -TAU_ABS and array.max(initial=0.0) < np.inf):
        bad = np.flatnonzero(~(np.isfinite(array) & (array >= -TAU_ABS)))[0]
        last, p = divmod(int(bad), array.shape[1])
    head = array[:last]
    if not low >= 0.0:
        np.maximum(head, 0.0, out=head)
    for j, total in enumerate(head.sum(axis=1).tolist()):
        if not demand_matches(total, demands[j], rtol):
            raise InvariantError(f"commodity {i} class {j} routes {total}, demand is {demands[j]}")
    if last < len(array):
        v = float(array[last, p])
        if not isfinite(v):
            raise InputError(f"commodity {i} class {last} strategy {p} flow {v} is not finite")
        raise InvariantError(f"commodity {i} class {last} strategy {p} flow {v} is negative")


def _class_totals(array: np.ndarray) -> np.ndarray:
    """Per strategy, its flows added in class order (numpy's sum would add a
    lone column pairwise)."""
    return array.sum(axis=0) if array.shape[1] != 1 else np.cumsum(array, axis=0)[-1]


def _edge_loads(instance: GameInstance, values: tuple[np.ndarray, ...]) -> tuple[float, ...]:
    """Per-resource loads: per commodity, the class totals of each strategy
    added onto its resources in strategy order; then across commodities."""
    n = len(instance.resources)
    loads = np.zeros(n + 1)
    for table, array in zip(instance.strategy_table, values):
        weights = _class_totals(array).repeat(table.shape[1])
        loads += np.bincount(table.ravel(), weights, minlength=n + 1)
    return tuple(loads[:n].tolist())


def strategy_latencies(instance: GameInstance, i: int, loads: Sequence[float]) -> list[float]:
    """Latency of every strategy of commodity i under the given loads."""
    return _strategy_sums(instance, i, instance.latencies(loads))


def _strategy_sums(instance: GameInstance, i: int, values: list[float]) -> list[float]:
    """Per strategy of commodity i, the sum of the per-resource ``values``
    over its resources, added left to right in strategy order.  The table's
    column sums start from 0.0 and add in the same order as
    ``sum(values[k] for k in ids)``, so both give the same doubles."""
    ids = instance.strategy_ids[i]
    if len(ids) < TABLE_MIN_STRATEGIES:
        return [sum(values[k] for k in row) for row in ids]
    table = instance.strategy_table[i]
    padded = np.append(values, 0.0)
    out = np.zeros(len(table))
    for col in table.T:
        out += padded[col]
    return out.tolist()


def social_cost(instance: GameInstance, flow: Flow) -> float:
    """Total travel cost: sum over resources of load * latency(load)."""
    _check_feasible(instance, flow)
    total = 0.0
    for k, res in enumerate(instance.resources):
        load = flow.loads[k]
        total += load * res.latency(load)
    return total


def _check_feasible(instance: GameInstance, flow: Flow) -> None:
    if flow.instance is not instance and flow.instance != instance:
        raise InputError("flow was built for a different instance")
    rtol = tau_rel()
    for i, commodity in enumerate(instance.commodities):
        routed = float(flow.values[i].sum())
        if not demand_matches(routed, commodity.demand, rtol):
            raise InvariantError(
                f"commodity {i} routes {routed}, demand is {commodity.demand}"
            )


@dataclass(frozen=True)
class DeviationProfile:
    """Bounded strategy deviations.

    Two representations:
      * explicit -- ``strategy_values[i][p]`` is the deviation of strategy p
        of commodity i *at the flow under inspection*;
      * edge-induced -- ``edge_fns[rid]`` gives a per-resource deviation
        function and a strategy's deviation is the sum over its resources.

    Membership in the bounded set requires 0 <= delta_P <= beta * latency_P
    at the inspected flow (checked per resource in the edge-induced case).
    """

    beta: float
    strategy_values: tuple[tuple[float, ...], ...] | None = None
    edge_fns: Mapping[str, DeviationFn] | None = None

    def __post_init__(self):
        if (self.strategy_values is None) == (self.edge_fns is None):
            raise InputError("exactly one of strategy_values / edge_fns must be given")
        if not (isfinite(self.beta) and self.beta >= 0):
            raise InputError(f"beta must be a nonnegative float, got {self.beta}")
        if self.strategy_values is not None and not all(
            isfinite(v) for row in self.strategy_values for v in row
        ):
            raise InputError("explicit strategy deviations must be finite")

    @property
    def edge_induced(self) -> bool:
        return self.edge_fns is not None

    def edge_value(self, instance: GameInstance, rid: str, load: float) -> float:
        assert self.edge_fns is not None
        fn = self.edge_fns.get(rid)
        if fn is None:
            return 0.0
        return fn(load, instance.latency_of(rid))

    def strategy_deviations(
        self, instance: GameInstance, i: int, loads: Sequence[float]
    ) -> list[float]:
        """Deviation of every strategy of commodity i at the given loads; an
        edge-induced one sums the per-resource deviations in strategy order."""
        if self.strategy_values is not None:
            return list(self.strategy_values[i])
        per_resource = [
            self.edge_value(instance, res.id, x) for res, x in zip(instance.resources, loads)
        ]
        return _strategy_sums(instance, i, per_resource)

    def check_membership(self, instance: GameInstance, flow: Flow) -> None:
        """Raise InputError when some deviation leaves [0, beta * latency]."""
        rtol = tau_rel()
        if self.edge_fns is not None:
            index = instance.resource_index()
            for rid in sorted(self.edge_fns):
                k = index.get(rid)
                if k is None:
                    raise InputError(f"deviation references unknown resource {rid!r}")
                load = flow.loads[k]
                dv = self.edge_fns[rid](load, instance.resources[k].latency)
                cap = self.beta * instance.resources[k].latency(load)
                if dv < -TAU_ABS or not close_leq(dv, cap, rtol=rtol):
                    raise InputError(
                        f"deviation on resource {rid!r} is {dv} at load {load}, "
                        f"outside [0, {cap}]"
                    )
            return
        assert self.strategy_values is not None
        if len(self.strategy_values) != len(instance.commodities):
            raise InputError("explicit deviations do not match the commodity list")
        for i, commodity in enumerate(instance.commodities):
            if len(self.strategy_values[i]) != len(commodity.strategies):
                raise InputError(f"commodity {i}: deviation list does not match strategies")
            lat = strategy_latencies(instance, i, flow.loads)
            for p, strat in enumerate(commodity.strategies):
                dv = self.strategy_values[i][p]
                cap = self.beta * lat[p]
                if dv < -TAU_ABS or not close_leq(dv, cap, rtol=rtol):
                    raise InputError(
                        f"deviation on commodity {i} strategy {list(strat)} is {dv}, "
                        f"outside [0, {cap}]"
                    )

    def to_obj(self) -> dict:
        if self.edge_fns is not None:
            return {
                "beta": self.beta,
                "edges": {rid: fn.to_obj() for rid, fn in sorted(self.edge_fns.items())},
            }
        return {
            "beta": self.beta,
            "strategies": [list(row) for row in self.strategy_values],  # type: ignore[union-attr]
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "DeviationProfile":
        if not isinstance(obj, dict) or "beta" not in obj:
            raise InputError("deviation block must be a dict with a 'beta'")
        if "edges" in obj:
            fns = {rid: DeviationFn.from_obj(o) for rid, o in obj["edges"].items()}
            return cls(beta=float(obj["beta"]), edge_fns=fns)
        if "strategies" in obj:
            vals = tuple(tuple(map(float, row)) for row in obj["strategies"])
            return cls(beta=float(obj["beta"]), strategy_values=vals)
        raise InputError("deviation block needs 'edges' or 'strategies'")
