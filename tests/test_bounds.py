"""Closed-form bounds, sensitivity densities, and the discretization
bridge between them."""

import math
import random

import pytest
from scipy.integrate import quad

from wardrop import (
    BoundValue,
    DensityFn,
    InputError,
    abel_sum_bound,
    braess_sup,
    discretize_density,
    dr_bound_continuous,
    dr_bound_discrete,
    matroid_dr_bound,
    matroid_sr_lower,
    sr_bound_continuous,
    sr_bound_discrete,
    stability_upper,
)


# -- discrete bounds -----------------------------------------------------------


def test_sr_bound_discrete_hand_value():
    bound = sr_bound_discrete(1.0, (0.5, 0.5), (1.0, 2.0))
    assert bound.name == "stability-ratio-discrete"
    assert bound.as_float == pytest.approx(2.5)
    assert sr_bound_discrete(0.0, (0.5, 0.5), (1.0, 2.0)).as_float == 1.0


def test_dr_bound_discrete_hand_value():
    bound = dr_bound_discrete(1.0, (0.5, 0.5), (1.0, 2.0))
    assert bound.name == "deviation-ratio-discrete"
    # max(1.0 * 1.0, 2.0 * 0.5) = 1.0
    assert bound.as_float == pytest.approx(2.0)


def test_discrete_bounds_normalize_demands():
    plain = sr_bound_discrete(1.0, (0.5, 0.5), (1.0, 2.0))
    scaled = sr_bound_discrete(1.0, (2.0, 2.0), (1.0, 2.0))
    assert scaled.as_float == pytest.approx(plain.as_float)
    assert scaled.note is not None and "normalized" in scaled.note
    assert plain.note is None


def test_discrete_bounds_validation():
    with pytest.raises(InputError):
        sr_bound_discrete(1.0, (0.5,), (1.0, 2.0))
    with pytest.raises(InputError):
        sr_bound_discrete(1.0, (0.5, -0.5), (1.0, 2.0))
    with pytest.raises(InputError):
        sr_bound_discrete(1.0, (0.5, 0.5), (2.0, 1.0))
    with pytest.raises(InputError):
        sr_bound_discrete(1.0, (0.0, 0.0), (1.0, 2.0))
    with pytest.raises(InputError):
        sr_bound_discrete(-1.0, (1.0,), (1.0,))
    with pytest.raises(InputError):
        dr_bound_discrete(math.nan, (1.0,), (1.0,))


def test_dominance_spot_checks():
    rng = random.Random(12)
    for _ in range(200):
        h = rng.randint(1, 5)
        demands = [rng.uniform(0.05, 1.0) for _ in range(h)]
        gammas = sorted(rng.sample([0.05 * k for k in range(1, 61)], h))
        beta = rng.uniform(0.0, 2.0)
        dr = dr_bound_discrete(beta, demands, gammas).as_float
        sr = sr_bound_discrete(beta, demands, gammas).as_float
        assert dr <= sr + 1e-12


# -- densities ------------------------------------------------------------------


def random_density(rng: random.Random) -> DensityFn:
    n = rng.randint(2, 5)
    ys = sorted(rng.sample([0.1 * k for k in range(31)], n))
    vals = [rng.uniform(0.0, 2.0) for _ in range(n)]
    if sum(vals) == 0.0:
        vals[0] = 1.0
    raw = DensityFn(tuple(zip(ys, vals)))
    total = raw.mass(ys[0], ys[-1])
    if total <= 0.0:
        return random_density(rng)
    return DensityFn.from_points([(y, v / total) for y, v in zip(ys, vals)])


def test_uniform_density_exact_values():
    dens = DensityFn.uniform(0.0, 1.0)
    assert dens.mass(0.0, 1.0) == pytest.approx(1.0)
    assert dens.mass(0.2, 0.7) == pytest.approx(0.5)
    assert dens.mean() == pytest.approx(0.5)
    assert dens.tail(0.25) == pytest.approx(0.75)
    assert dens.sup_t_tail() == pytest.approx(0.25)  # t(1-t) at t=1/2
    assert dens.value(0.5) == pytest.approx(1.0)
    assert dens.value(2.0) == 0.0


def test_uniform_density_shifted_support():
    dens = DensityFn.uniform(0.5, 1.0)
    # for t <= 0.5 the objective is t itself; the interior maximum equals it
    assert dens.sup_t_tail() == pytest.approx(0.5)


def test_triangular_density_exact_values():
    dens = DensityFn.triangular(0.0, 1.0, 2.0)
    assert dens.mass(0.0, 2.0) == pytest.approx(1.0)
    assert dens.mean() == pytest.approx(1.0)
    half = DensityFn.triangular(0.0, 0.0, 1.0)  # decreasing ramp
    assert half.mean() == pytest.approx(1.0 / 3.0)


def test_density_mass_and_mean_match_quadrature():
    rng = random.Random(5)
    for _ in range(60):
        dens = random_density(rng)
        lo, hi = dens.support
        bps = [y for y, _ in dens.points]
        got_mean, _ = quad(lambda y: y * dens.value(y), lo, hi, points=bps, limit=200)
        assert dens.mean() == pytest.approx(got_mean, rel=1e-9, abs=1e-12)
        a = rng.uniform(lo, hi)
        b = rng.uniform(a, hi)
        got_mass, _ = quad(dens.value, a, b, points=[p for p in bps if a < p < b], limit=200)
        assert dens.mass(a, b) == pytest.approx(got_mass, rel=1e-9, abs=1e-12)


def test_sup_t_tail_matches_grid_oracle():
    rng = random.Random(6)
    for _ in range(40):
        dens = random_density(rng)
        lo, hi = dens.support
        grid_best = max(
            t * dens.tail(t)
            for k in range(10001)
            for t in [lo + (hi - lo) * k / 10000.0]
        )
        exact = dens.sup_t_tail()
        assert exact >= grid_best - 1e-12
        assert exact <= grid_best + 5e-4 * max(1.0, hi)


def test_density_validation():
    with pytest.raises(InputError):
        DensityFn.from_points([(0.0, 1.0)])  # one point
    with pytest.raises(InputError):
        DensityFn.from_points([(-0.5, 1.0), (0.5, 1.0)])  # negative support
    with pytest.raises(InputError):
        DensityFn.from_points([(0.5, 1.0), (0.5, 2.0)])  # repeated breakpoint
    with pytest.raises(InputError):
        DensityFn.from_points([(0.0, -1.0), (1.0, 2.0)])  # negative value
    with pytest.raises(InputError):
        DensityFn.from_points([(0.0, 2.0), (1.0, 2.0)])  # integrates to 2
    with pytest.raises(InputError):
        DensityFn.uniform(1.0, 1.0)
    with pytest.raises(InputError):
        DensityFn.uniform(0.0, math.inf)  # zero height: the mass 0 * inf is NaN
    with pytest.raises(InputError):
        DensityFn.triangular(1.0, 0.5, 2.0)


# -- continuous bounds and discretization ------------------------------------------


def test_continuous_bounds_uniform_unit():
    dens = DensityFn.uniform(0.0, 1.0)
    assert sr_bound_continuous(1.0, dens).as_float == pytest.approx(1.5)
    assert dr_bound_continuous(1.0, dens).as_float == pytest.approx(1.25)


def test_continuous_reduces_to_discrete_under_spikes():
    r = (0.3, 0.45, 0.25)
    g = (0.4, 1.0, 1.6)
    beta = 0.8
    sr_d = sr_bound_discrete(beta, r, g).as_float
    dr_d = dr_bound_discrete(beta, r, g).as_float
    prev_gap = None
    for width in (0.05, 0.005):
        pts = []
        for rj, gj in zip(r, g):
            pts += [(gj - width, 0.0), (gj, rj / width), (gj + width, 0.0)]
        dens = DensityFn.from_points(pts)
        # symmetric spikes keep the mean exact
        assert sr_bound_continuous(beta, dens).as_float == pytest.approx(sr_d, abs=1e-9)
        gap = abs(dr_bound_continuous(beta, dens).as_float - dr_d)
        assert gap <= 2.0 * beta * width
        if prev_gap is not None:
            assert gap <= prev_gap / 5.0 * 1.5  # linear in width
        prev_gap = gap


def test_discretize_uniform_quarter():
    profile = discretize_density(DensityFn.uniform(0.0, 1.0), 0.25)
    classes = profile.classes[0]
    assert [g for _, g in classes] == pytest.approx([0.0, 0.25, 0.5, 0.75])
    assert [d for d, _ in classes] == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_discretize_with_tail_mass():
    profile = discretize_density(DensityFn.uniform(0.0, 1.0), 0.45, tail_mass=0.1)
    classes = profile.classes[0]
    gammas = [g for _, g in classes]
    demands = [d for d, _ in classes]
    assert gammas[-1] == pytest.approx(0.9, abs=1e-9)  # tail(0.9) = 0.1
    assert demands[-1] == pytest.approx(0.1)
    assert sum(demands) == pytest.approx(1.0)
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


def test_discretize_bound_convergence():
    dens = DensityFn.uniform(0.0, 1.0)
    prev_sr_gap = None
    for eps_prime in (0.1, 0.01):
        profile = discretize_density(dens, eps_prime)
        classes = profile.classes[0]
        demands = [d for d, _ in classes]
        gammas = [g for _, g in classes]
        sr_gap = abs(
            sr_bound_discrete(1.0, demands, gammas).as_float
            - sr_bound_continuous(1.0, dens).as_float
        )
        assert sr_gap <= 2.0 * eps_prime
        if prev_sr_gap is not None:
            assert sr_gap < prev_sr_gap
        prev_sr_gap = sr_gap


def test_discretize_validation():
    dens = DensityFn.uniform(0.0, 1.0)
    with pytest.raises(InputError):
        discretize_density(dens, 0.0)
    with pytest.raises(InputError):
        discretize_density(dens, 0.1, tail_mass=1.0)
    with pytest.raises(InputError):
        discretize_density(dens, 0.1, tail_mass=-0.1)


# -- conditioned closed forms --------------------------------------------------------


def test_stability_upper_values():
    assert stability_upper(0.5, 1).as_float == pytest.approx(3.0)
    assert stability_upper(0.25, 2).as_float == pytest.approx(2.5)
    assert stability_upper(0.0, 10).as_float == 1.0
    inf_bound = stability_upper(0.5, 2)
    assert inf_bound.infinite and inf_bound.as_float == math.inf
    assert inf_bound.requires == "eps*q < 1"


def test_stability_upper_validation():
    with pytest.raises(InputError):
        stability_upper(-0.1, 1)
    with pytest.raises(InputError):
        stability_upper(0.5, -1)
    with pytest.raises(InputError):
        stability_upper(0.5, 1.5)


def test_braess_sup_equals_stability_upper():
    for m in range(2, 9):
        for eps in (0.05, 0.2, 1.0 / m, 2.0):
            a = braess_sup(eps, 2 * m)
            b = stability_upper(eps, m - 1)
            assert a.infinite == b.infinite
            if not a.infinite:
                assert a.as_float == pytest.approx(b.as_float, rel=1e-12)


def test_braess_sup_validation():
    with pytest.raises(InputError):
        braess_sup(0.5, 5)  # odd
    with pytest.raises(InputError):
        braess_sup(0.5, 2)  # m < 2
    with pytest.raises(InputError):
        braess_sup(-0.5, 6)


def test_matroid_bounds():
    assert matroid_dr_bound(0.5).as_float == pytest.approx(1.5)
    assert matroid_sr_lower(0.5, 2).as_float == pytest.approx(3.0)
    assert matroid_sr_lower(0.0, 4).as_float == 1.0
    assert matroid_sr_lower(0.5, 3).infinite
    with pytest.raises(InputError):
        matroid_sr_lower(0.5, 1)
    with pytest.raises(InputError):
        matroid_dr_bound(-1.0)


# -- summation-by-parts estimate ---------------------------------------------------


def test_abel_sum_bound_base_case():
    lhs, rhs = abel_sum_bound((0.7,), (1.3,))
    assert lhs == pytest.approx(0.7 * 1.3)
    assert rhs == pytest.approx(0.7 * 1.3)


def test_abel_sum_bound_constant_tau():
    lhs, rhs = abel_sum_bound((1.0, 1.0), (1.0, 2.0))
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(2.0)


def test_abel_sum_bound_validation():
    with pytest.raises(InputError):
        abel_sum_bound((1.0,), (1.0, 2.0))
    with pytest.raises(InputError):
        abel_sum_bound((), ())
    with pytest.raises(InputError):
        abel_sum_bound((0.5, 1.0), (1.0, 1.0))  # increasing tau
    with pytest.raises(InputError):
        abel_sum_bound((1.0, -0.5), (1.0, 1.0))
    with pytest.raises(InputError):
        abel_sum_bound((1.0, 0.5), (1.0, -1.0))


# -- BoundValue ---------------------------------------------------------------------


def test_bound_value_shape():
    with pytest.raises(InputError):
        BoundValue("x", None, False)
    with pytest.raises(InputError):
        BoundValue("x", 1.0, True)
    b = BoundValue("x", None, True, requires="p < 1", note="n")
    assert b.as_float == math.inf


def test_bound_value_round_trip():
    for b in (
        BoundValue("finite", 2.5),
        BoundValue("cond", 3.0, requires="eps*q < 1"),
        BoundValue("unbounded", None, True, requires="eps < 1", note="scaled"),
    ):
        assert BoundValue.from_obj(b.to_obj()) == b
    with pytest.raises(InputError):
        BoundValue.from_obj({"value": 1.0})
