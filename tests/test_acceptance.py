"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``ACCEPTANCE n <label>: PASS/FAIL`` line (with the
elapsed time for context); the assertions carry the actual tolerances.
"""

import random
import time
from contextlib import contextmanager

import pytest

from wardrop import (
    DensityFn,
    DeviationFn,
    DeviationProfile,
    Flow,
    LatencyFn,
    Resource,
    UniformMatroidGame,
    abel_sum_bound,
    check_matroid_exchange_claims,
    compute_alternating_path,
    compute_nash_flow,
    deviations_from_approx,
    discretize_density,
    dr_bound_continuous,
    gen_braess_subcritical,
    gen_braess_supercritical,
    gen_matroid_unbounded,
    gen_parallel_sr,
    gen_random_sp,
    gen_two_arc_dr,
    matroid_nash_flow,
    relative_duality_gap,
    social_cost,
    sr_bound_continuous,
    sr_bound_discrete,
    dr_bound_discrete,
    tau_rel,
    verify_approx_nash,
    verify_deviated_nash,
    verify_deviation_implies_approx,
    verify_matroid_deviated,
)

from corpus import (
    generator_corpus,
    matroid_corpus,
    measured_eps,
    random_feasible_flow,
    random_parallel_instance,
)
from test_graphs import oracle_min_backward


@contextmanager
def acceptance(capsys, n, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {label}: PASS ({elapsed:.2f}s)")


def test_acceptance_01_subcritical_ladder_ratios(capsys):
    with acceptance(capsys, 1, "subcritical ladder ratios"):
        for m in range(2, 9):
            for frac in (0.1, 0.5, 0.9):
                eps = frac / (m - 1)
                instance, x, z, _bound = gen_braess_subcritical(m, eps)
                ratio = social_cost(instance, x) / social_cost(instance, z)
                expected = (1 + eps) / (1 - eps * (m - 1))
                assert abs(ratio - expected) <= 1e-9 * expected, (m, eps)


def test_acceptance_02_supercritical_unbounded(capsys):
    with acceptance(capsys, 2, "supercritical ladder growth"):
        m, eps = 3, 0.5
        last = 0.0
        for tau in (1.0, 10.0, 100.0, 1000.0):
            instance, x, z, _bound = gen_braess_supercritical(m, eps, tau)
            ratio = social_cost(instance, x) / social_cost(instance, z)
            expected = (1 + eps) * (1 + (m - 1) * tau)
            assert abs(ratio - expected) <= 1e-9 * expected, tau
            last = ratio
        assert last > 1e3


def test_acceptance_03_tight_parallel_families(capsys):
    with acceptance(capsys, 3, "tight two-arc and parallel families"):
        rng = random.Random(20240815)
        for _ in range(20):
            h = rng.randint(1, 5)
            gammas = sorted(rng.sample([0.1 * k for k in range(1, 31)], h))
            demands = [rng.uniform(0.1, 1.0) for _ in range(h)]
            beta = rng.uniform(0.1, 1.5)

            instance, _p, _d, x, z, bound = gen_two_arc_dr(beta, demands, gammas)
            ratio = social_cost(instance, x) / social_cost(instance, z)
            assert abs(ratio - bound.as_float) <= 1e-6 * max(1.0, bound.as_float)

            instance, _p, x, z, bound = gen_parallel_sr(beta, demands, gammas)
            ratio = social_cost(instance, x) / social_cost(instance, z)
            assert abs(ratio - bound.as_float) <= 1e-9 * max(1.0, bound.as_float)


def test_acceptance_04_deviation_bound_dominated(capsys):
    with acceptance(capsys, 4, "deviation bound never exceeds stability bound"):
        rng = random.Random(44)
        violations = 0
        for _ in range(10_000):
            h = rng.randint(1, 6)
            gammas = sorted(rng.sample([0.05 * k for k in range(1, 81)], h))
            demands = [rng.uniform(0.05, 1.0) for _ in range(h)]
            beta = rng.uniform(0.0, 2.0)
            dr = dr_bound_discrete(beta, demands, gammas).as_float
            sr = sr_bound_discrete(beta, demands, gammas).as_float
            if dr > sr:
                violations += 1
        assert violations == 0


def test_acceptance_05_deviated_implies_approx(capsys):
    with acceptance(capsys, 5, "deviated equilibria are approximate equilibria"):
        for case in generator_corpus():
            if case["deviations"] is None or case["x"] is None:
                continue
            instance, profile = case["instance"], case["profile"]
            deviations, x = case["deviations"], case["x"]
            assert verify_deviated_nash(instance, x, deviations, profile).passed, case["name"]
            cert = verify_deviation_implies_approx(instance, x, deviations, profile)
            assert cert.passed, case["name"]

        rng = random.Random(555)
        for trial in range(1000):
            instance = random_parallel_instance(rng)
            flow = random_feasible_flow(rng, instance)
            eps = measured_eps(instance, flow)
            deviations = deviations_from_approx(instance, flow, eps)
            assert verify_deviated_nash(instance, flow, deviations).passed, trial
            assert verify_deviation_implies_approx(instance, flow, deviations).passed, trial


def test_acceptance_06_series_parallel_ratio_bound(capsys):
    with acceptance(capsys, 6, "series-parallel approximate flows obey the q-bound"):
        rng = random.Random(60606)
        checks = 0
        for seed in range(500):
            instance, _tree = gen_random_sp(seed, depth=3, max_leaves=8)
            z = compute_nash_flow(instance)
            z_vals = list(z.values[0][0])
            r_vals = list(random_feasible_flow(rng, instance).values[0][0])
            cost_z = social_cost(instance, z)
            for t in (0.0, 0.1, 0.3, 0.6):
                vals = [(1 - t) * a + t * b for a, b in zip(z_vals, r_vals)]
                flow = Flow.single_class(instance, [vals])
                for eps in (0.05, 0.1, 0.2):
                    if not verify_approx_nash(instance, flow, eps).passed:
                        continue
                    q = compute_alternating_path(instance, flow, z).q
                    if eps * q >= 1.0:
                        continue
                    ratio = social_cost(instance, flow) / cost_z
                    assert ratio <= (1 + eps) / (1 - eps * q) + 1e-9, (seed, t, eps)
                    checks += 1
        assert checks >= 500


def test_acceptance_07_alternating_path_minimality(capsys):
    with acceptance(capsys, 7, "alternating paths use the fewest backward arcs"):
        rng = random.Random(777)
        for case in generator_corpus():
            instance = case["instance"]
            if instance.graph is None:
                continue
            assert len(instance.graph.arcs) <= 20, case["name"]
            if case["x"] is not None:
                x, z = case["x"], case["z"]
            else:
                z = compute_nash_flow(instance)
                x = random_feasible_flow(rng, instance)
            path = compute_alternating_path(instance, x, z)
            assert path.q == oracle_min_backward(instance, x, z), case["name"]
        instance, x, z, _bound = gen_braess_subcritical(5, 0.1)
        assert compute_alternating_path(instance, x, z).q == 4


def test_acceptance_08_matroid_family_and_cost_bound(capsys):
    with acceptance(capsys, 8, "matroid tight family and 1+beta cost bound"):
        for k in range(2, 7):
            for frac in (0.1, 0.5, 0.9):
                eps = frac / (k - 1)
                game, x, z = gen_matroid_unbounded(k, eps)
                ratio = social_cost(game.instance, x) / social_cost(game.instance, z)
                expected = (1 + eps) / (1 - eps * (k - 1))
                assert abs(ratio - expected) <= 1e-9 * expected, (k, eps)
                if k == 2:
                    assert ratio <= (1 + eps) / (1 - eps) + 1e-9

        rng = random.Random(888)
        for trial in range(500):
            n = rng.randint(4, 5)
            beta = rng.uniform(0.1, 1.0)
            base = [(rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.5)) for _ in range(n)]
            game = UniformMatroidGame(
                resources=tuple(
                    Resource(f"e{i}", LatencyFn.affine(a, b))
                    for i, (a, b) in enumerate(base)
                ),
                rank=2,
            )
            # a deviated equilibrium is a plain equilibrium of the game whose
            # latencies absorb the deviations (gamma = 1)
            edge_fns, modified = {}, []
            for i, (a, b) in enumerate(base):
                draw = rng.random()
                if draw < 0.3:
                    modified.append((a, b))
                elif draw < 0.65:
                    c = rng.uniform(0.0, beta * a)
                    edge_fns[f"e{i}"] = DeviationFn.constant(c)
                    modified.append((a + c, b))
                else:
                    s = rng.uniform(0.0, beta)
                    edge_fns[f"e{i}"] = DeviationFn.scaled(s)
                    modified.append(((1 + s) * a, (1 + s) * b))
            deviations = DeviationProfile(beta, edge_fns=edge_fns)
            shifted = UniformMatroidGame(
                resources=tuple(
                    Resource(f"e{i}", LatencyFn.affine(a, b))
                    for i, (a, b) in enumerate(modified)
                ),
                rank=2,
            )
            solved = compute_nash_flow(shifted.instance)
            x = Flow.single_class(game.instance, [list(solved.values[0][0])])
            cert = verify_matroid_deviated(
                game, x, deviations, 1.0, rtol=tau_rel(), cross_check=True
            )
            assert cert.passed, trial
            z = matroid_nash_flow(game)
            ratio = social_cost(game.instance, x) / social_cost(game.instance, z)
            assert ratio <= 1 + beta + 1e-9, trial
            assert check_matroid_exchange_claims(game, x, z, beta).passed, trial


def test_acceptance_09_summation_by_parts(capsys):
    with acceptance(capsys, 9, "summation-by-parts estimate"):
        rng = random.Random(99)
        randrange = rng.randrange
        violations = 0
        for _ in range(100_000):
            k = randrange(1, 9)
            # dyadic rationals make every product and sum exact in doubles
            tau = sorted((randrange(641) / 64.0 for _ in range(k)), reverse=True)
            c = [randrange(641) / 64.0 for _ in range(k)]
            lhs, rhs = abel_sum_bound(tau, c)
            if lhs > rhs:
                violations += 1
        assert violations == 0


def test_acceptance_10_density_discretization(capsys):
    with acceptance(capsys, 10, "density discretization converges to 3/2 and 5/4"):
        density = DensityFn.uniform(0.0, 1.0)
        sr_cont = sr_bound_continuous(1.0, density).as_float
        dr_cont = dr_bound_continuous(1.0, density).as_float
        assert sr_cont == pytest.approx(1.5, rel=1e-12)
        assert dr_cont == pytest.approx(1.25, rel=1e-12)
        for eps_prime in (0.1, 0.01, 0.001):
            profile = discretize_density(density, eps_prime)
            r = [d for d, _ in profile.classes[0]]
            g = [v for _, v in profile.classes[0]]
            sr_gap = sr_cont - sr_bound_discrete(1.0, r, g).as_float
            dr_gap = dr_cont - dr_bound_discrete(1.0, r, g).as_float
            assert -1e-12 <= sr_gap <= 2 * eps_prime + 1e-12, eps_prime
            assert -1e-12 <= dr_gap <= 2 * eps_prime + 1e-12, eps_prime


def test_acceptance_11_potential_solver_duality_gap(capsys):
    with acceptance(capsys, 11, "potential solver reaches 1e-9 duality gap"):
        instances = [
            (case["instance"], case["profile"], case["name"])
            for case in generator_corpus()
        ]
        instances += [
            (case["game"].instance, None, case["name"]) for case in matroid_corpus()
        ]
        for instance, profile, name in instances:
            flow = compute_nash_flow(instance, profile)
            assert relative_duality_gap(instance, flow) <= 1e-9, name
