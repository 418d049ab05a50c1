import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmix import spectral
from ringmix.mixing import (
    build_ring_matrix,
    build_uniform_matrix,
    conjugate_by_permutation,
    sample_permutation,
)
from ringmix.seeding import TAG_TRIAL, stream
from ringmix.spectral import (
    expected_gram,
    fixed_consensus_curve,
    fixed_mixing_consensus_bound,
    frobenius_norm,
    monte_carlo_consensus,
    randomized_consensus_bound,
    randomized_frobenius_expectation,
    second_eigenvalue_ring,
    spectral_norm,
    spectral_rho,
)


@pytest.mark.parametrize("L", [3, 4, 5, 8, 16, 64])
def test_second_eigenvalue_matches_eigendecomposition(L):
    report = spectral_rho(build_ring_matrix(L))
    assert abs(report.rho - second_eigenvalue_ring(L)) <= 1e-12


def test_rho_values_pin_down():
    assert second_eigenvalue_ring(3) == pytest.approx(0.0, abs=1e-15)
    assert second_eigenvalue_ring(4) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert second_eigenvalue_ring(16) == pytest.approx(0.949253021674191, abs=1e-12)


def test_spectral_rho_of_uniform_is_zero():
    report = spectral_rho(build_uniform_matrix(6))
    assert report.rho == pytest.approx(0.0, abs=1e-12)
    assert report.spectral_gap == pytest.approx(1.0, abs=1e-12)
    assert report.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)


def test_spectral_rho_warns_on_asymmetry():
    T = build_ring_matrix(5).copy()
    T[0, 1] += 1e-6
    with pytest.warns(UserWarning):
        spectral_rho(T)


def test_negative_branch_never_dominates():
    # rho comes from the second-largest eigenvalue for every ring size:
    # the most negative eigenvalue stays at or above -1/3 in magnitude.
    for L in range(3, 129):
        eigs = spectral_rho(build_ring_matrix(L)).eigenvalues
        assert abs(eigs[-1]) <= second_eigenvalue_ring(L) + 1e-12


def test_fixed_power_distance_is_exactly_rho_k():
    # Symmetry makes the bound tight, not just an upper envelope.
    for L in (5, 12):
        rho = second_eigenvalue_ring(L)
        curve = fixed_consensus_curve(L, 10)
        for i, k in enumerate(curve.steps):
            assert curve.distances[i] == pytest.approx(rho ** k, abs=1e-12)


def test_fixed_bound_formula():
    assert fixed_mixing_consensus_bound(8, 0) == 1.0
    rho = second_eigenvalue_ring(8)
    assert fixed_mixing_consensus_bound(8, 3) == pytest.approx(rho**3, rel=1e-15)


def test_expected_gram_matches_enumeration():
    L = 4
    T = build_ring_matrix(L)
    total = np.zeros((L, L))
    for perm in itertools.permutations(range(L)):
        C = conjugate_by_permutation(T, np.array(perm))
        total += C.T @ C
    enumerated = total / math.factorial(L)
    assert np.allclose(enumerated, expected_gram(L), atol=1e-14)


def test_randomized_expectation_matches_pair_enumeration():
    # Exact oracle at depth 2: average ||T2' T1' - U||_F^2 over all
    # ordered permutation pairs, against the closed form.
    L = 4
    T = build_ring_matrix(L)
    U = build_uniform_matrix(L)
    perms = [np.array(p) for p in itertools.permutations(range(L))]
    acc = 0.0
    for p1 in perms:
        A = conjugate_by_permutation(T, p1)
        for p2 in perms:
            B = A @ conjugate_by_permutation(T, p2)
            acc += frobenius_norm(B - U) ** 2
    mean = acc / len(perms) ** 2
    assert mean == pytest.approx(randomized_frobenius_expectation(L, 2), rel=1e-12)


def test_randomized_expectation_single_step_via_enumeration():
    # Exact oracle at depth 1: average ||T' - U||_F^2 over all L! relabellings.
    for L in (4, 5):
        T = build_ring_matrix(L)
        U = build_uniform_matrix(L)
        perms = [np.array(p) for p in itertools.permutations(range(L))]
        assert len(perms) == math.factorial(L)
        mean = sum(frobenius_norm(conjugate_by_permutation(T, p) - U) ** 2 for p in perms)
        mean /= len(perms)
        assert mean == pytest.approx(randomized_frobenius_expectation(L, 1), rel=1e-12)


def test_randomized_expectation_degenerate_l3_is_zero():
    # One uniform-equivalent step reaches consensus exactly.
    for k in (1, 2, 5):
        assert randomized_frobenius_expectation(3, k) == pytest.approx(0.0, abs=1e-15)


def test_randomized_bound_formula():
    assert randomized_consensus_bound(4, 2) == pytest.approx(np.sqrt(3.0) / 3.0, rel=1e-15)
    assert randomized_consensus_bound(9, 4) == pytest.approx(np.sqrt(8.0) / 9.0, rel=1e-15)


def test_monte_carlo_replays_and_reports_uncertainty():
    a = monte_carlo_consensus(6, 4, trials=50, seed=3)
    b = monte_carlo_consensus(6, 4, trials=50, seed=3)
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.squared_halfwidths, b.squared_halfwidths)
    assert a.norm_kind == "frobenius"
    assert np.all(a.halfwidths[1:] > 0)
    c = monte_carlo_consensus(6, 4, trials=50, seed=4)
    assert not np.array_equal(a.distances, c.distances)


def test_monte_carlo_spectral_mode():
    curve = monte_carlo_consensus(6, 3, trials=30, seed=0, norm_kind="spectral")
    assert curve.norm_kind == "spectral"
    assert curve.squared_distances is None
    assert np.all(np.diff(curve.distances) < 0)


def test_monte_carlo_input_validation():
    with pytest.raises(ValueError):
        monte_carlo_consensus(6, 0, trials=10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_consensus(6, 3, trials=1, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_consensus(6, 3, trials=10, seed=0, norm_kind="nuclear")


def test_norm_helpers():
    D = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert frobenius_norm(D) == pytest.approx(5.0, rel=1e-15)
    assert spectral_norm(D) == pytest.approx(5.0, rel=1e-12)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def _trial_by_trial(L, k_max, trials, seed, norm_kind):
    """Reference Monte Carlo loop: one trial, one step and one 2-d norm at
    a time."""
    T0 = build_ring_matrix(L)
    U = build_uniform_matrix(L)
    measure = spectral_norm if norm_kind == "spectral" else frobenius_norm
    values = np.empty((trials, k_max))
    for t in range(trials):
        rng = stream(seed, TAG_TRIAL, t)
        product = np.eye(L)
        for k in range(k_max):
            Tk = conjugate_by_permutation(T0, sample_permutation(L, rng))
            product = product @ Tk
            values[t, k] = measure(product - U)
    return values


def _curve_bytes(curve):
    arrays = (curve.steps, curve.distances, curve.halfwidths,
              curve.squared_distances, curve.squared_halfwidths)
    return (curve.norm_kind, curve.trials,
            *(None if a is None else a.tobytes() for a in arrays))


@settings(max_examples=150, deadline=None)
@given(
    L=st.integers(3, 70),
    k_max=st.integers(1, 6),
    kinds=st.sampled_from([
        ("frobenius",), ("spectral",), ("frobenius", "spectral"), ("spectral", "frobenius"),
    ]),
    seed=st.one_of(st.integers(0, 50), st.integers(2**32, 2**64)),
    data=st.data(),
)
def test_batched_monte_carlo_equals_trial_by_trial_loop(L, k_max, kinds, seed, data):
    # Chunks of the real byte budget, and of one to three trials so that
    # small rings cross chunk boundaries too.
    budget_chunk = max(1, spectral._CHUNK_BYTES // (8 * L * L))
    chunk = data.draw(st.sampled_from([budget_chunk, 1, 2, 3]), label="chunk")
    trials = data.draw(st.integers(2, min(chunk, 40) + 3), label="trials")
    with mock.patch.object(spectral, "_CHUNK_BYTES", chunk * 8 * L * L):
        values = spectral._trial_distances(
            build_ring_matrix(L), build_uniform_matrix(L), k_max, trials, seed, kinds
        )
        one_pass = spectral._monte_carlo_curves(L, k_max, trials, seed, kinds)
        separate = [monte_carlo_consensus(L, k_max, trials, seed, norm_kind=k) for k in kinds]
    assert values.shape == (len(kinds), trials, k_max)
    for kind, row, curve, alone in zip(kinds, values, one_pass, separate):
        expected = _trial_by_trial(L, k_max, trials, seed, kind)
        assert row.tobytes() == expected.tobytes()
        assert curve.distances.tobytes() == expected.mean(axis=0).tobytes()
        assert _curve_bytes(curve) == _curve_bytes(alone)
