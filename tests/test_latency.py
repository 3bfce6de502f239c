"""Latency and deviation function behavior: evaluation, integrals,
validation, and serialization."""

import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from wardrop import DeviationFn, InputError, InvariantError, LatencyFn
from wardrop.latency import LatencyBank

from corpus import generator_corpus, random_latency


def test_constant_evaluation():
    fn = LatencyFn.constant(1.5)
    assert fn(0.0) == 1.5
    assert fn(10.0) == 1.5


def test_affine_evaluation():
    fn = LatencyFn.affine(1.0, 2.0)
    assert fn(0.0) == 1.0
    assert fn(0.5) == 2.0


def test_polynomial_evaluation():
    fn = LatencyFn.polynomial((1.0, 0.0, 3.0))
    assert fn(2.0) == pytest.approx(1.0 + 12.0)


def test_piecewise_linear_interpolation_and_extension():
    fn = LatencyFn.piecewise_linear(((0.5, 1.0), (1.5, 3.0)), final_slope=4.0)
    # constant left of the first breakpoint
    assert fn(0.0) == 1.0
    assert fn(0.25) == 1.0
    # interior interpolation
    assert fn(1.0) == pytest.approx(2.0)
    # breakpoints exactly
    assert fn(0.5) == 1.0
    assert fn(1.5) == 3.0
    # final-slope extrapolation
    assert fn(2.0) == pytest.approx(3.0 + 4.0 * 0.5)


def test_random_latencies_nonneg_and_monotone():
    rng = random.Random(42)
    for _ in range(300):
        fn = random_latency(rng)
        fn.validate()
        xs = sorted(rng.uniform(0.0, 5.0) for _ in range(6))
        vals = [fn(x) for x in xs]
        assert all(v >= 0.0 for v in vals)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_integral_matches_quadrature():
    rng = random.Random(7)
    for _ in range(120):
        fn = random_latency(rng)
        upper = rng.uniform(0.1, 4.0)
        expected, err = quad(
            fn, 0.0, upper, points=[x for x, _ in fn.points if x < upper],
            limit=200,
        )
        got = fn.integral(upper)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_integral_zero_and_negative_load():
    fn = LatencyFn.affine(1.0, 1.0)
    assert fn.integral(0.0) == 0.0
    with pytest.raises(InputError):
        fn.integral(-0.1)


def test_pwl_integral_left_of_first_breakpoint():
    fn = LatencyFn.piecewise_linear(((1.0, 2.0), (2.0, 4.0)))
    assert fn.integral(0.5) == pytest.approx(1.0)  # constant 2.0 over [0, 0.5]


def test_validate_rejects_negative_constant():
    with pytest.raises(InvariantError):
        LatencyFn.constant(-1.0).validate()


def test_validate_rejects_negative_affine():
    with pytest.raises(InvariantError):
        LatencyFn.affine(1.0, -0.5).validate()
    with pytest.raises(InvariantError):
        LatencyFn.affine(-1.0, 0.5).validate()


def test_validate_rejects_negative_poly_coeff():
    with pytest.raises(InvariantError):
        LatencyFn.polynomial((1.0, -0.1)).validate()


def test_validate_rejects_decreasing_pwl():
    fn = LatencyFn.piecewise_linear(((0.0, 2.0), (1.0, 1.0)))
    with pytest.raises(InvariantError):
        fn.validate()


def test_validate_rejects_negative_final_slope():
    fn = LatencyFn.piecewise_linear(((0.0, 0.0), (1.0, 1.0)), final_slope=-1.0)
    with pytest.raises(InvariantError):
        fn.validate()


def test_validate_rejects_unsorted_breakpoints():
    fn = LatencyFn.piecewise_linear(((1.0, 1.0), (0.5, 2.0)))
    with pytest.raises(InvariantError):
        fn.validate()


def test_constructors_reject_nonfinite():
    with pytest.raises(InputError):
        LatencyFn.constant(math.nan)
    with pytest.raises(InputError):
        LatencyFn.affine(math.inf, 1.0)
    with pytest.raises(InputError):
        LatencyFn.polynomial(())
    with pytest.raises(InputError):
        LatencyFn.piecewise_linear(())


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        LatencyFn(kind="cubic-spline")


def test_latency_round_trip():
    rng = random.Random(99)
    for _ in range(80):
        fn = random_latency(rng)
        assert LatencyFn.from_obj(fn.to_obj()) == fn


def test_latency_from_obj_errors():
    with pytest.raises(InputError):
        LatencyFn.from_obj({"kind": "mystery"})
    with pytest.raises(InputError):
        LatencyFn.from_obj({"kind": "affine", "offset": 1.0})  # slope missing
    with pytest.raises(InputError):
        LatencyFn.from_obj("not a dict")


def test_latency_bank_matches_scalar_bit_for_bit():
    fns = [res.latency for case in generator_corpus() for res in case["instance"].resources]
    rng = random.Random(4242)
    fns += [random_latency(rng) for _ in range(40)]
    fns += [
        LatencyFn.piecewise_linear(((0.5, 1.0),), final_slope=2.0),
        LatencyFn.piecewise_linear(((0.75, 0.25),)),
        LatencyFn.piecewise_linear(((0.3, 0.5), (0.9, 1.25), (1.5, 4.0)), final_slope=0.5),
    ]
    assert {fn.kind for fn in fns} == {"constant", "affine", "polynomial", "piecewise-linear"}
    bank = LatencyBank(fns)
    pwl = [fn for fn in fns if fn.kind == "piecewise-linear"]
    probes = [np.zeros(len(fns))]
    for fn in pwl:
        for x, _ in fn.points:  # exactly on a breakpoint, and just below it
            probes += [np.full(len(fns), x), np.full(len(fns), np.nextafter(x, -1.0))]
    probes += [np.array([rng.uniform(0.0, 3.0) for _ in fns]) for _ in range(50)]
    assert any(fn.points[0][0] > 0.0 for fn in pwl)  # the zero probe lies below it
    for loads in probes:
        got = bank(loads)
        want = np.array([fn(x) for fn, x in zip(fns, loads.tolist())])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _exact_slope(fn: LatencyFn, x: float) -> float:
    """Derivative of the polynomial, or the slope of the segment holding x."""
    if fn.kind == "constant":
        return 0.0
    if fn.kind == "affine":
        return fn.coeffs[1]
    if fn.kind == "polynomial":
        return sum(i * c * x ** (i - 1) for i, c in enumerate(fn.coeffs) if i)
    pts = fn.points
    if x < pts[0][0]:
        return 0.0
    for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
        if xa <= x < xb:
            return (yb - ya) / (xb - xa)
    return fn.final_slope


def test_value_slope_matches_call_and_derivative():
    rng = random.Random(2718)
    fns = [random_latency(rng) for _ in range(200)] + [
        LatencyFn.piecewise_linear(((0.5, 1.0),), final_slope=2.0),
        LatencyFn.piecewise_linear(((0.3, 0.5), (0.9, 1.25), (1.5, 4.0)), final_slope=0.5),
    ]
    assert {fn.kind for fn in fns} == {"constant", "affine", "polynomial", "piecewise-linear"}
    h = 1e-6
    for fn in fns:
        kinks = [x for x, _ in fn.points]
        probes = [rng.uniform(0.0, 3.0) for _ in range(10)]
        for x in kinks:  # exactly on a breakpoint, and one ulp below it
            probes += [x, math.nextafter(x, -math.inf)]
        for x in probes:
            value, slope = fn.value_slope(x)
            assert value.hex() == fn(x).hex()
            if fn.kind == "polynomial":
                assert slope == pytest.approx(_exact_slope(fn, x), rel=1e-13)
            else:
                assert slope == _exact_slope(fn, x)
            if all(abs(x - k) > 2 * h for k in kinks):
                central = (fn(x + h) - fn(x - h)) / (2 * h)
                assert slope == pytest.approx(central, rel=1e-6, abs=1e-7)


def test_latency_bank_single_kind_and_empty():
    smooth = [LatencyFn.constant(2.0), LatencyFn.polynomial((1.0, 0.0, 0.5))]
    assert LatencyBank(smooth)(np.array([1.0, 2.0])).tolist() == [2.0, 3.0]
    pwl = [LatencyFn.piecewise_linear(((1.0, 1.0), (2.0, 3.0)))]
    assert LatencyBank(pwl)(np.array([0.5])).tolist() == [1.0]
    assert LatencyBank([])(np.zeros(0)).shape == (0,)


# -- deviation functions ------------------------------------------------------


def test_deviation_zero_and_constant():
    lat = LatencyFn.affine(1.0, 1.0)
    assert DeviationFn.zero()(3.0, lat) == 0.0
    assert DeviationFn.constant(0.25)(3.0, lat) == 0.25


def test_deviation_scaled_tracks_latency():
    lat = LatencyFn.affine(1.0, 1.0)
    dev = DeviationFn.scaled(0.5)
    assert dev(0.0, lat) == pytest.approx(0.5)
    assert dev(2.0, lat) == pytest.approx(1.5)


def test_deviation_piecewise_need_not_be_monotone():
    dev = DeviationFn.piecewise_linear(((0.0, 1.0), (1.0, 0.0)))
    lat = LatencyFn.constant(5.0)
    assert dev(0.0, lat) == 1.0
    assert dev(1.0, lat) == 0.0
    assert dev(0.5, lat) == pytest.approx(0.5)


def test_deviation_rejects_negatives():
    with pytest.raises(InputError):
        DeviationFn.constant(-0.1)
    with pytest.raises(InputError):
        DeviationFn.scaled(-0.1)
    with pytest.raises(InputError):
        DeviationFn.piecewise_linear(((0.0, -1.0), (1.0, 0.0)))


def test_deviation_round_trip():
    for dev in (
        DeviationFn.zero(),
        DeviationFn.constant(0.7),
        DeviationFn.scaled(0.3),
        DeviationFn.piecewise_linear(((0.0, 1.0), (2.0, 0.5)), final_slope=0.1),
    ):
        assert DeviationFn.from_obj(dev.to_obj()) == dev


def test_deviation_from_obj_unknown_kind():
    with pytest.raises(InputError):
        DeviationFn.from_obj({"kind": "exotic"})


def test_deviation_from_obj_missing_field():
    for obj in ({"kind": "constant"}, {"kind": "scaled"}, {"kind": "piecewise-linear"}):
        with pytest.raises(InputError, match="missing field"):
            DeviationFn.from_obj(obj)
