import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmix.mixing import (
    apply_mixing,
    build_ring_matrix,
    build_uniform_matrix,
    conjugate_by_permutation,
    permutation_for_step,
    sample_permutation,
    verify_doubly_stochastic,
)
from ringmix.seeding import stream


def test_ring_structure():
    L = 7
    T = build_ring_matrix(L)
    third = 1.0 / 3.0
    for i in range(L):
        for j in range(L):
            if j in (i, (i + 1) % L, (i - 1) % L):
                assert T[i, j] == third
            else:
                assert T[i, j] == 0.0


def test_ring_l3_is_dense_uniform():
    # At L=3 every learner neighbors every other, so the ring weights
    # coincide entry-for-entry with the uniform matrix.
    assert np.array_equal(build_ring_matrix(3), build_uniform_matrix(3))


def test_ring_rejects_degenerate_sizes():
    for L in (0, 1, 2):
        with pytest.raises(ValueError):
            build_ring_matrix(L)


def test_uniform_entries():
    U = build_uniform_matrix(5)
    assert np.all(U == 0.2)


@pytest.mark.parametrize("L", [3, 4, 5, 8, 16, 33, 64])
def test_ring_and_uniform_doubly_stochastic(L):
    for T in (build_ring_matrix(L), build_uniform_matrix(L)):
        report = verify_doubly_stochastic(T)
        assert report.ok
        assert report.max_row_error <= 1e-12
        assert report.max_col_error <= 1e-12
        assert report.min_entry >= 0.0


def test_verify_reports_failure_without_raising():
    bad = np.array([[0.9, 0.0], [0.1, 1.0]])
    report = verify_doubly_stochastic(bad)
    assert not report.ok
    assert report.max_row_error > 1e-12


def test_sample_permutation_is_valid_and_replays():
    rng = stream(5, 1, 0)
    p = sample_permutation(10, rng)
    assert np.array_equal(np.sort(p), np.arange(10))
    q = sample_permutation(10, stream(5, 1, 0))
    assert np.array_equal(p, q)


def test_permutation_for_step_is_pure_and_varies():
    a = permutation_for_step(8, 123, 4)
    b = permutation_for_step(8, 123, 4)
    assert np.array_equal(a, b)
    distinct = {tuple(permutation_for_step(8, 123, k)) for k in range(10)}
    assert len(distinct) > 1


def test_conjugation_matches_dense_oracle():
    L = 6
    T = build_ring_matrix(L)
    perm = permutation_for_step(L, 9, 0)
    P = np.zeros((L, L))
    P[perm, np.arange(L)] = 1.0
    # Relabelling learners by perm is conjugation by the permutation matrix.
    direct = conjugate_by_permutation(T, perm)
    assert np.allclose(direct, P.T @ T @ P, atol=1e-15)
    report = verify_doubly_stochastic(direct)
    assert report.ok


def test_conjugation_rejects_non_permutation():
    T = build_ring_matrix(4)
    with pytest.raises(ValueError):
        conjugate_by_permutation(T, np.array([0, 1, 1, 2]))


def test_apply_mixing_matches_matmul_on_ring():
    L = 8
    T = build_ring_matrix(L)
    W = stream(2, 6, 0).standard_normal((5, L))
    assert np.array_equal(apply_mixing(W, T), W @ T)


def test_apply_mixing_uniform_collapses_exactly():
    L = 8
    U = build_uniform_matrix(L)
    W = stream(2, 6, 1).standard_normal((5, L))
    mixed = apply_mixing(W, U)
    # Exact column-mean broadcast: all columns bitwise identical.
    assert np.all(mixed == mixed[:, :1])
    assert np.allclose(mixed, W @ U, atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(perm=st.integers(3, 40).flatmap(lambda L: st.permutations(range(L))))
def test_relabelled_ring_is_doubly_stochastic_with_the_ring_spectrum(perm):
    # The training step relabels the ring by fancy indexing; the public
    # conjugation must give the same matrix bit for bit.
    p = np.array(perm)
    T0 = build_ring_matrix(len(p))
    T = T0[np.ix_(p, p)]
    assert T.tobytes() == conjugate_by_permutation(T0, p).tobytes()
    assert verify_doubly_stochastic(T, tol=1e-12).ok
    spectrum = np.linalg.eigvalsh(T)
    assert np.allclose(spectrum, np.linalg.eigvalsh(T0), rtol=0, atol=1e-12)
