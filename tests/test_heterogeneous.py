"""The deviated-equilibrium solver on parallel links, grid DAGs, uniform
matroids and multi-commodity instances: every returned flow is certified."""

from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop import (
    DeviationFn,
    DeviationProfile,
    heterogeneous_parallel_equilibrium,
    verify_deviated_nash,
    verify_deviation_implies_approx,
)

from corpus import random_deviations, seeded_case

# a failed property raises ConvergenceError instead of running for long
MAX_ROUNDS = 200
FAMILIES = ("parallel", "grid", "matroid", "multicommodity")
PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)


@PROPERTY
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_deviated_equilibrium_is_certified_and_approximate(family, seed, max_classes):
    rng, instance, profile = seeded_case(family, seed, max_classes)
    deviations = random_deviations(rng, instance, rng.uniform(0.2, 1.0))
    flow = heterogeneous_parallel_equilibrium(
        instance, deviations, profile, max_rounds=MAX_ROUNDS
    )
    assert verify_deviated_nash(instance, flow, deviations, profile).passed
    # a deviated equilibrium is (beta * gamma)-approximate
    assert verify_deviation_implies_approx(instance, flow, deviations, profile).passed


@PROPERTY
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_constant_deviations_take_one_round(family, seed, max_classes):
    rng, instance, profile = seeded_case(family, seed, max_classes)
    beta = rng.uniform(0.2, 1.0)
    deviations = DeviationProfile(beta, edge_fns={
        res.id: DeviationFn.constant(rng.uniform(0.0, beta * res.latency(0.0)))
        for res in instance.resources
    })
    flow = heterogeneous_parallel_equilibrium(instance, deviations, profile, max_rounds=1)
    assert verify_deviated_nash(instance, flow, deviations, profile).passed


def test_certifies_seeded_parallel_corpus_and_grids():
    cases = [seeded_case("parallel", seed, 4) for seed in range(40)]
    cases += [seeded_case("grid", 1000 + seed, 4) for seed in range(10)]
    for rng, instance, profile in cases:
        deviations = random_deviations(rng, instance, rng.uniform(0.2, 1.0))
        flow = heterogeneous_parallel_equilibrium(
            instance, deviations, profile, max_rounds=MAX_ROUNDS
        )
        assert verify_deviated_nash(instance, flow, deviations, profile).passed
