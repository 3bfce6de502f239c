"""Deterministic JSON reading/writing for instances and flows.

Writing is byte-deterministic: dict keys are emitted in construction order
(constructors below always build them the same way) and every float is
rendered with 17 significant digits, enough to round-trip IEEE doubles
exactly.  ``parse(serialize(x))`` reproduces ``x``.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import Any, Sequence

from .core import (
    Commodity,
    DeviationProfile,
    Flow,
    GameInstance,
    NetworkAnnotation,
    Resource,
    SensitivityProfile,
)
from .errors import InputError
from .latency import LatencyFn

INSTANCE_SCHEMA = "congestion-instance/1"


def format_float(x: float) -> str:
    if not isfinite(x):
        raise InputError(f"cannot serialize non-finite number {x}")
    text = format(float(x), ".17g")
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def dumps_canonical(obj: Any) -> str:
    """Serialize dict/list/str/num/bool/None with deterministic bytes."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(",")
            if not isinstance(key, str):
                raise InputError(f"JSON object keys must be strings, got {key!r}")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _write(value, out)
        out.append("}")
    else:
        raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def _load_json(path: str, what: str) -> Any:
    """Parse the JSON file at ``path``; ``what`` names it in the InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc


# -- instances ---------------------------------------------------------


def instance_to_obj(
    instance: GameInstance,
    profile: SensitivityProfile | None = None,
    deviations: DeviationProfile | None = None,
) -> dict:
    obj: dict[str, Any] = {"schema": INSTANCE_SCHEMA}
    obj["resources"] = [
        {"id": res.id, "latency": res.latency.to_obj()} for res in instance.resources
    ]
    commodities = []
    for i, commodity in enumerate(instance.commodities):
        entry: dict[str, Any] = {
            "demand": commodity.demand,
            "strategies": [list(s) for s in commodity.strategies],
        }
        if profile is not None:
            entry["classes"] = [
                {"demand": d, "value": v} for d, v in profile.classes[i]
            ]
        commodities.append(entry)
    obj["commodities"] = commodities
    if instance.graph is not None:
        graph = instance.graph
        obj["graph"] = {
            "nodes": list(graph.nodes),
            "arcs": [{"id": rid, "tail": tail, "head": head} for rid, tail, head in graph.arcs],
            "source": graph.source,
            "sink": graph.sink,
        }
    if deviations is not None:
        obj["deviations"] = deviations.to_obj()
    if instance.meta:
        obj["meta"] = dict(instance.meta)
    return obj


def instance_from_obj(
    obj: dict,
) -> tuple[GameInstance, SensitivityProfile | None, DeviationProfile | None]:
    if not isinstance(obj, dict):
        raise InputError("instance file must contain a JSON object")
    try:
        return _instance_from_obj(obj)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise InputError(f"malformed instance object: {exc!r}") from exc


def _instance_from_obj(
    obj: dict,
) -> tuple[GameInstance, SensitivityProfile | None, DeviationProfile | None]:
    resources = tuple(
        Resource(id=str(r["id"]), latency=LatencyFn.from_obj(r["latency"]))
        for r in obj["resources"]
    )
    commodities = []
    class_rows: list[tuple[tuple[float, float], ...] | None] = []
    for c in obj["commodities"]:
        commodities.append(
            Commodity(
                demand=float(c["demand"]),
                strategies=tuple(tuple(str(r) for r in s) for s in c["strategies"]),
            )
        )
        if "classes" in c:
            rows = tuple((float(k["demand"]), float(k["value"])) for k in c["classes"])
            if not all(isfinite(d) and isfinite(v) for d, v in rows):
                raise InputError(
                    f"commodity {len(class_rows)}: class demands and values must be finite"
                )
            class_rows.append(rows)
        else:
            class_rows.append(None)
    graph = None
    if "graph" in obj:
        g = obj["graph"]
        graph = NetworkAnnotation(
            nodes=tuple(str(n) for n in g["nodes"]),
            arcs=tuple((str(a["id"]), str(a["tail"]), str(a["head"])) for a in g["arcs"]),
            source=str(g["source"]),
            sink=str(g["sink"]),
        )
    meta = obj.get("meta")
    instance = GameInstance(
        resources=resources, commodities=tuple(commodities), graph=graph, meta=meta
    )
    profile = None
    if any(rows is not None for rows in class_rows):
        if any(rows is None for rows in class_rows):
            raise InputError("either every commodity lists classes or none does")
        profile = SensitivityProfile(tuple(rows for rows in class_rows))  # type: ignore[misc]
    deviations = None
    if "deviations" in obj:
        deviations = DeviationProfile.from_obj(obj["deviations"])
    return instance, profile, deviations


def write_instance(
    path: str,
    instance: GameInstance,
    profile: SensitivityProfile | None = None,
    deviations: DeviationProfile | None = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(instance_to_obj(instance, profile, deviations)))
        fh.write("\n")


def read_instance(
    path: str,
) -> tuple[GameInstance, SensitivityProfile | None, DeviationProfile | None]:
    return instance_from_obj(_load_json(path, "instance file"))


# -- flows -------------------------------------------------------------


def flow_to_obj(flow: Flow) -> list[dict]:
    return [
        {"commodity": i, "class": j, "path": list(commodity.strategies[p]), "value": value}
        for i, commodity in enumerate(flow.instance.commodities)
        for j, row in enumerate(flow.values[i].tolist())
        for p, value in enumerate(row)
        if value != 0.0
    ]


def flow_from_obj(
    obj: Any, instance: GameInstance, profile: SensitivityProfile | None = None
) -> Flow:
    if isinstance(obj, dict) and "records" in obj:
        obj = obj["records"]
    if not isinstance(obj, list):
        raise InputError("flow file must contain a list of records")
    if profile is not None:
        shape = [len(cl) for cl in profile.classes]
    else:
        shape = [1] * len(instance.commodities)
    values = [
        [[0.0] * len(c.strategies) for _ in range(shape[i])]
        for i, c in enumerate(instance.commodities)
    ]
    lookup = [
        {frozenset(s): p for p, s in enumerate(c.strategies)} for c in instance.commodities
    ]
    for rec in obj:
        try:
            i = int(rec["commodity"])
            j = int(rec["class"])
            path = tuple(str(r) for r in rec["path"])
            value = float(rec["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed flow record {rec!r}") from exc
        if not 0 <= i < len(instance.commodities):
            raise InputError(f"flow record names unknown commodity {i}")
        if not 0 <= j < shape[i]:
            raise InputError(f"flow record names unknown class {j} of commodity {i}")
        p = lookup[i].get(frozenset(path))
        if p is None:
            raise InputError(f"flow record path {list(path)} is not a strategy of commodity {i}")
        values[i][j][p] += value
    return Flow.build(instance, values, profile)


def write_flow(path: str, flow: Flow) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(flow_to_obj(flow)))
        fh.write("\n")


def read_flow(
    path: str, instance: GameInstance, profile: SensitivityProfile | None = None
) -> Flow:
    return flow_from_obj(_load_json(path, "flow file"), instance, profile)
