"""Byte-deterministic serialization: float formatting, canonical dumps,
instance and flow round trips."""

import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop import (
    DeviationProfile,
    Flow,
    InputError,
    dumps_canonical,
    flow_from_obj,
    flow_to_obj,
    gen_two_arc_dr,
    instance_from_obj,
    instance_to_obj,
    read_flow,
    read_instance,
)
from wardrop.jsonio import format_float, write_flow, write_instance

from corpus import (
    generator_corpus,
    random_deviations,
    random_feasible_flow,
    random_parallel_instance,
    random_profile,
    seeded_case,
)


# -- float formatting ----------------------------------------------------------


def same_values(f, g) -> bool:
    """Exact equality of two flows' class arrays."""
    return len(f.values) == len(g.values) and all(
        np.array_equal(a, b) for a, b in zip(f.values, g.values)
    )


def test_format_float_plain_values():
    assert format_float(1.0) == "1.0"
    assert format_float(0.5) == "0.5"
    assert format_float(-2.0) == "-2.0"
    assert format_float(100.0) == "100.0"


def test_format_float_round_trips_doubles():
    rng = random.Random(31337)
    for _ in range(2000):
        # random bit patterns, filtered to finite doubles
        bits = rng.getrandbits(64)
        (x,) = struct.unpack("<d", struct.pack("<Q", bits))
        if not math.isfinite(x):
            continue
        assert float(format_float(x)) == x


def test_format_float_rejects_nonfinite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InputError):
            format_float(bad)


# -- canonical dumps -------------------------------------------------------------


def test_dumps_canonical_basic_shapes():
    assert dumps_canonical({"a": 1, "b": [1.5, None, True, False, "x"]}) == (
        '{"a":1,"b":[1.5,null,true,false,"x"]}'
    )


def test_dumps_canonical_preserves_insertion_order():
    assert dumps_canonical({"z": 1, "a": 2}) == '{"z":1,"a":2}'


def test_dumps_canonical_rejects_bad_keys_and_types():
    with pytest.raises(InputError):
        dumps_canonical({1: "x"})
    with pytest.raises(InputError):
        dumps_canonical({"x": object()})


def test_dumps_canonical_is_valid_json():
    obj = {"nested": {"list": [1, 2.25, "s"], "flag": True}, "v": 0.1}
    assert json.loads(dumps_canonical(obj)) == obj


# -- instance round trips ---------------------------------------------------------


def test_instance_round_trip_bytes_identical():
    for case in generator_corpus():
        obj = instance_to_obj(case["instance"], case["profile"], case["deviations"])
        text = dumps_canonical(obj)
        instance2, profile2, deviations2 = instance_from_obj(json.loads(text))
        obj2 = instance_to_obj(instance2, profile2, deviations2)
        assert dumps_canonical(obj2) == text


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(("parallel", "grid", "random-sp", "matroid", "multicommodity")),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
def test_random_round_trips_are_byte_identical(family, seed, classes, edge_induced):
    rng, instance, profile = seeded_case(family, seed)
    if not classes:
        profile = None
    beta = rng.uniform(0.0, 2.0)
    if edge_induced:
        deviations = random_deviations(rng, instance, beta)
    else:
        deviations = DeviationProfile(beta, strategy_values=tuple(
            tuple(rng.uniform(0.0, 3.0) for _ in c.strategies) for c in instance.commodities
        ))
    text = dumps_canonical(instance_to_obj(instance, profile, deviations))
    instance2, profile2, deviations2 = instance_from_obj(json.loads(text))
    assert dumps_canonical(instance_to_obj(instance2, profile2, deviations2)) == text
    flow = random_feasible_flow(rng, instance, profile)
    flow_text = dumps_canonical(flow_to_obj(flow))
    flow2 = flow_from_obj(json.loads(flow_text), instance2, profile2)
    assert same_values(flow2, flow)
    assert dumps_canonical(flow_to_obj(flow2)) == flow_text


def test_instance_round_trip_preserves_values():
    instance, profile, deviations, x, z, _ = gen_two_arc_dr(
        0.5, (0.3, 0.7), (0.4, 1.0)
    )
    obj = instance_to_obj(instance, profile, deviations)
    instance2, profile2, deviations2 = instance_from_obj(json.loads(dumps_canonical(obj)))
    assert instance2.resources == instance.resources
    assert instance2.commodities == instance.commodities
    assert profile2.classes == profile.classes
    assert deviations2.beta == deviations.beta
    del x, z


def test_instance_classes_all_or_none():
    inst = random_parallel_instance(random.Random(3), n_links=2)
    obj = instance_to_obj(inst)
    obj["commodities"] = obj["commodities"] * 2  # two commodities
    obj["commodities"][0] = dict(obj["commodities"][0])
    obj["commodities"][0]["classes"] = [
        {"demand": obj["commodities"][0]["demand"], "value": 1.0}
    ]
    del obj["graph"]
    with pytest.raises(InputError):
        instance_from_obj(obj)


def test_instance_from_obj_malformed():
    with pytest.raises(InputError):
        instance_from_obj([1, 2, 3])
    with pytest.raises(InputError):
        instance_from_obj({"resources": [{"id": "a"}], "commodities": []})
    instance, profile, deviations, *_ = gen_two_arc_dr(1.0, (0.5, 0.5), (1.0, 2.0), 2)
    text = json.dumps(instance_to_obj(instance, profile, deviations))
    assert json.loads(text)["resources"][0]["latency"]["kind"] == "constant"
    # each edit once escaped the reader as a ValueError, IndexError,
    # TypeError or AttributeError
    edits = [
        (("commodities", 0, "demand"), "one"),
        (("commodities", 0, "classes", 0, "value"), "one"),
        (("resources", 0, "latency", "value"), "one"),
        (("resources", 1, "latency", "points"), [[0.0]]),
        (("deviations", "beta"), "one"),
        (("deviations", "edges", "a1"), {"kind": "piecewise-linear", "points": [1]}),
        (("deviations", "edges"), [{"kind": "constant", "value": 1.0}]),
    ]
    for (*parents, last), value in edits:
        obj = json.loads(text)
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(InputError, match="malformed instance object"):
            instance_from_obj(obj)


def test_write_read_instance(tmp_path):
    instance, profile, deviations, *_ = gen_two_arc_dr(0.5, (0.3, 0.7), (0.4, 1.0))
    path = str(tmp_path / "inst.json")
    write_instance(path, instance, profile, deviations)
    instance2, profile2, deviations2 = read_instance(path)
    assert instance2.resources == instance.resources
    assert profile2.classes == profile.classes
    assert deviations2.beta == deviations.beta
    # a second write of the parsed objects is byte-identical
    path2 = str(tmp_path / "inst2.json")
    write_instance(path2, instance2, profile2, deviations2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_read_instance_bad_file(tmp_path):
    with pytest.raises(InputError):
        read_instance(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        read_instance(str(bad))


# -- flow round trips ---------------------------------------------------------------


def test_flow_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        inst = random_parallel_instance(rng)
        profile = random_profile(rng, inst)
        flow = random_feasible_flow(rng, inst, profile)
        obj = flow_to_obj(flow)
        text = dumps_canonical(obj)
        flow2 = flow_from_obj(json.loads(text), inst, profile)
        assert same_values(flow2, flow)
        assert dumps_canonical(flow_to_obj(flow2)) == text


def test_flow_records_skip_zeros():
    inst = random_parallel_instance(random.Random(4), n_links=3)
    flow = Flow.single_class(inst, [[inst.commodities[0].demand, 0.0, 0.0]])
    assert len(flow_to_obj(flow)) == 1


def test_flow_duplicate_records_summed():
    inst = random_parallel_instance(random.Random(5), n_links=2)
    d = inst.commodities[0].demand
    records = [
        {"commodity": 0, "class": 0, "path": ["e0"], "value": d / 2},
        {"commodity": 0, "class": 0, "path": ["e0"], "value": d / 2},
    ]
    flow = flow_from_obj(records, inst)
    assert flow.values[0][0][0] == pytest.approx(d)


def test_flow_from_obj_errors():
    inst = random_parallel_instance(random.Random(6), n_links=2)
    d = inst.commodities[0].demand
    with pytest.raises(InputError):
        flow_from_obj({"no": "records"}, inst)
    with pytest.raises(InputError):
        flow_from_obj([{"commodity": 5, "class": 0, "path": ["e0"], "value": d}], inst)
    with pytest.raises(InputError):
        flow_from_obj([{"commodity": 0, "class": 2, "path": ["e0"], "value": d}], inst)
    with pytest.raises(InputError):
        flow_from_obj([{"commodity": 0, "class": 0, "path": ["zz"], "value": d}], inst)
    with pytest.raises(InputError):
        flow_from_obj([{"commodity": 0, "class": 0}], inst)
    nan_record = json.loads('[{"commodity": 0, "class": 0, "path": ["e0"], "value": NaN}]')
    with pytest.raises(InputError):
        flow_from_obj(nan_record, inst)


def test_write_read_flow(tmp_path):
    instance, profile, _dev, x, _z, _b = gen_two_arc_dr(0.5, (0.3, 0.7), (0.4, 1.0))
    path = str(tmp_path / "flow.json")
    write_flow(path, x)
    x2 = read_flow(path, instance, profile)
    assert same_values(x2, x)
