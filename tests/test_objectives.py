import math

import numpy as np
import pytest

from ringmix.objectives import (
    BatchDescriptor,
    LogisticObjective,
    QuadraticObjective,
    gradient_check,
    logistic_oracle,
    quadratic_oracle,
)
from ringmix.seeding import stream


def test_quadratic_oracle_spectrum():
    oracle = quadratic_oracle(dimension=6, condition_number=50.0, seed=1)
    eigs = oracle.eigenvalues
    assert eigs[0] == pytest.approx(1.0, rel=1e-12)
    assert eigs[-1] == pytest.approx(50.0, rel=1e-12)
    assert np.all(np.diff(eigs) > 0)
    assert oracle.loss(oracle.optimum) == pytest.approx(0.0, abs=1e-15)


def test_quadratic_oracle_determinism_and_explicit_optimum():
    a = quadratic_oracle(dimension=4, condition_number=10.0, seed=9)
    b = quadratic_oracle(dimension=4, condition_number=10.0, seed=9)
    assert np.array_equal(a.optimum, b.optimum)
    c = quadratic_oracle(dimension=4, optimum=np.zeros(4))
    assert np.array_equal(c.optimum, np.zeros(4))


def test_quadratic_oracle_validation():
    with pytest.raises(ValueError):
        quadratic_oracle(dimension=0)
    with pytest.raises(ValueError):
        quadratic_oracle(dimension=3, condition_number=0.5)
    with pytest.raises(ValueError):
        QuadraticObjective(np.array([1.0, -1.0]), np.zeros(2), 0.0)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: quadratic_oracle(4, condition_number=math.nan), "condition_number"),
        (lambda: quadratic_oracle(4, noise_scale=math.nan), "noise_scale"),
        (lambda: QuadraticObjective(np.array([1.0, math.nan]), np.zeros(2), 0.0), "eigenvalues"),
        (lambda: logistic_oracle(3, 8, separation=math.nan), "separation"),
        (lambda: logistic_oracle(3, 8, separation=-1.0), "separation"),
        (lambda: logistic_oracle(3, 8, 1.0, ridge=math.nan), "ridge"),
        (lambda: logistic_oracle(3, 8, 1.0, ridge=-1.0), "ridge"),
    ],
    ids=["condition_number_nan", "noise_scale_nan", "eigenvalue_nan", "separation_nan",
         "separation_negative", "ridge_nan", "ridge_negative"],
)
def test_oracle_constructors_reject_nan_and_out_of_range(build, name):
    with pytest.raises(ValueError, match=name):
        build()


def test_quadratic_gradient_against_finite_differences():
    oracle = quadratic_oracle(dimension=8, condition_number=20.0, seed=2)
    w = stream(3, 0).standard_normal(8)
    assert gradient_check(oracle, w) <= 1e-7


def test_loss_columns_matches_per_column_loss():
    oracle = quadratic_oracle(dimension=5, condition_number=4.0, seed=4)
    W = stream(3, 1).standard_normal((5, 7))
    per = oracle.loss_columns(W)
    for l in range(7):
        assert per[l] == pytest.approx(oracle.loss(W[:, l]), rel=1e-12)


def test_quadratic_stochastic_gradient_noise_free_limit():
    oracle = quadratic_oracle(dimension=5, condition_number=4.0, seed=4, noise_scale=0.0)
    w = stream(3, 2).standard_normal(5)
    batch = BatchDescriptor(8, (1, 0, 0, 0))
    assert np.array_equal(oracle.stochastic_gradient(w, batch), oracle.gradient(w))


def test_quadratic_stochastic_gradient_replays_and_averages_out():
    oracle = quadratic_oracle(dimension=8, condition_number=10.0, seed=2, noise_scale=1.0)
    w = stream(3, 3).standard_normal(8)
    b = BatchDescriptor(4, (1, 0, 5, 2))
    g1 = oracle.stochastic_gradient(w, b)
    g2 = oracle.stochastic_gradient(w, b)
    assert np.array_equal(g1, g2)
    # Noise sd per coordinate is noise_scale / sqrt(batch); the average
    # of n independent draws concentrates around the exact gradient.
    n = 4000
    acc = np.zeros(8)
    for i in range(n):
        acc += oracle.stochastic_gradient(w, BatchDescriptor(4, (1, 0, i, 0)))
    dev = np.abs(acc / n - oracle.gradient(w))
    se = 1.0 / np.sqrt(4) / np.sqrt(n)
    assert dev.max() <= 5 * se


def test_batch_descriptor_validation():
    with pytest.raises(ValueError):
        BatchDescriptor(0, (1, 2))


def test_logistic_oracle_shape_and_balance():
    oracle = logistic_oracle(dimension=6, n_samples=40, separation=2.0, seed=5)
    assert oracle.features.shape == (40, 6)
    assert set(np.unique(oracle.labels)) == {-1.0, 1.0}
    assert np.sum(oracle.labels > 0) == 20


def test_logistic_gradient_against_finite_differences():
    oracle = logistic_oracle(dimension=6, n_samples=64, separation=1.5, seed=6)
    w = 0.3 * stream(4, 0).standard_normal(6)
    assert gradient_check(oracle, w) <= 1e-5


def test_finite_difference_error_shrinks_with_step():
    # Central differences carry O(step^2) truncation error; the
    # logistic loss has nonzero higher derivatives, so halving the step
    # by 10 must cut the measured error well above the rounding floor.
    oracle = logistic_oracle(dimension=6, n_samples=64, separation=1.5, seed=6)
    w = 0.3 * stream(4, 1).standard_normal(6)
    coarse = gradient_check(oracle, w, step=1e-2)
    fine = gradient_check(oracle, w, step=1e-3)
    assert coarse > fine > 0


def test_logistic_shards_partition_the_dataset():
    oracle = logistic_oracle(dimension=4, n_samples=30, separation=1.0, seed=7)
    count = 4
    drawn = [oracle._sample_indices(stream(5, i), 2000, (i, count)) for i in range(count)]
    assert np.array_equal(np.unique(np.concatenate(drawn)), np.arange(30))
    for i, picks in enumerate(drawn):
        assert np.array_equal(picks % count, np.full(len(picks), i))
        # Same draws as indexing the shard's explicit index pool.
        pool = np.arange(i, 30, count)
        assert np.array_equal(picks, pool[stream(5, i).integers(0, len(pool), 2000)])


def test_logistic_stochastic_gradient_unbiased_on_full_pool():
    oracle = logistic_oracle(dimension=5, n_samples=32, separation=1.0, seed=8)
    w = 0.2 * stream(4, 2).standard_normal(5)
    n = 3000
    acc = np.zeros(5)
    for i in range(n):
        acc += oracle.stochastic_gradient(w, BatchDescriptor(4, (2, 0, i, 0)))
    dev = np.linalg.norm(acc / n - oracle.gradient(w))
    assert dev <= 0.05


def test_logistic_shard_restricts_sampling():
    oracle = logistic_oracle(dimension=4, n_samples=16, separation=1.0, seed=9)
    # Zero out every feature outside shard 0; a shard-0 gradient then
    # only sees zero features, so it reduces to the ridge term.
    feats = oracle.features.copy()
    mask = np.arange(16) % 2 != 0
    feats[mask] = 0.0
    shard_oracle = LogisticObjective(feats, oracle.labels, ridge=0.0)
    w = stream(4, 3).standard_normal(4)
    g = shard_oracle.stochastic_gradient(w, BatchDescriptor(6, (3, 0, 0, 0)), shard=(1, 2))
    assert np.array_equal(g, np.zeros(4))


def test_logistic_validation():
    with pytest.raises(ValueError):
        logistic_oracle(dimension=0, n_samples=10, separation=1.0)
    with pytest.raises(ValueError):
        LogisticObjective(np.zeros((4, 2)), np.array([1.0, 1.0, -1.0, 2.0]))
    oracle = logistic_oracle(dimension=3, n_samples=8, separation=1.0)
    with pytest.raises(ValueError, match="shard index"):
        oracle.stochastic_gradient(np.zeros(3), BatchDescriptor(2, (0,)), shard=(5, 4))


def test_evaluate_loss_and_gradient_check_validation():
    oracle = quadratic_oracle(dimension=3, seed=0)
    w = np.ones(3)
    # Full-batch loss is deterministic for a fixed oracle.
    assert oracle.loss(w) == quadratic_oracle(dimension=3, seed=0).loss(w.copy())
    with pytest.raises(ValueError):
        gradient_check(oracle, w, step=0.0)
