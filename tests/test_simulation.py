import math
import pickle
import re
import typing
import warnings
import weakref
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringmix import objectives, seeding, simulation
from ringmix.mixing import (
    apply_mixing,
    build_ring_matrix,
    build_uniform_matrix,
    permutation_for_step,
    sample_permutation,
)
from ringmix.objectives import QuadraticObjective, logistic_oracle, quadratic_oracle
from ringmix.seeding import TAG_CLOCK, stream
from ringmix.simulation import (
    DIVERGENCE_THRESHOLD,
    CostModel,
    RunConfig,
    SimState,
    Strategy,
    advance_clock,
    consensus_distance,
    gradient_matrix,
    initial_state,
    learning_rate,
    mixing_rho,
    run_training,
    step_adpsgd_fixed,
    step_d1d,
    step_dpsgd_fixed,
    step_rand_psgd,
    step_spsgd,
)
from ringmix.spectral import (
    fixed_consensus_curve,
    fixed_mixing_consensus_bound,
    monte_carlo_consensus,
    second_eigenvalue_ring,
)


def _oracle(d=6, noise=1.0, seed=2):
    return quadratic_oracle(dimension=d, condition_number=10.0, noise_scale=noise, seed=seed)


def _cfg(**kw):
    base = dict(n_learners=4, iterations=5, lr=0.1, batch_size=2, seed=5)
    base.update(kw)
    return RunConfig(**base)


def test_initial_state_broadcasts_one_model():
    cfg = _cfg(n_learners=6)
    state = initial_state(_oracle(), cfg)
    assert state.weights.shape == (6, 6)
    assert np.all(state.weights == state.weights[:, :1])
    assert np.array_equal(state.weights, state.prev_weights)
    zero = initial_state(_oracle(), _cfg(init_scale=0.0))
    assert np.all(zero.weights == 0.0)


def test_learning_rate_warmup_ramp():
    cfg = _cfg(lr=0.2, warmup_iters=4)
    assert learning_rate(cfg, 0) == pytest.approx(0.05)
    assert learning_rate(cfg, 3) == pytest.approx(0.2)
    assert learning_rate(cfg, 10) == 0.2
    assert learning_rate(_cfg(lr=0.2), 0) == 0.2


def test_gradient_matrix_is_strategy_free_and_replays():
    oracle = _oracle()
    cfg = _cfg()
    Phi = stream(8, 0).standard_normal((6, 4))
    a = gradient_matrix(oracle, Phi, cfg, 3)
    b = gradient_matrix(oracle, Phi, cfg, 3)
    assert np.array_equal(a, b)
    c = gradient_matrix(oracle, Phi, cfg, 4)
    assert not np.array_equal(a, c)


def test_gradient_matrix_checks_its_iteration():
    Phi = np.zeros((6, 4))
    for k, message in ((-1, "k: must be >= 0"), (1.5, "k: expected int, got 1.5"),
                       (True, "k: expected int, got True")):
        with pytest.raises(ValueError, match=re.escape(message)):
            gradient_matrix(_oracle(), Phi, _cfg(), k)


@pytest.mark.parametrize("partition", ["shared", "sharded"])
def test_gradient_matrix_equals_per_learner_streams_across_blocks(reference, partition):
    # gradient_matrix derives its learners' states a block of iterations at
    # a time; the reference's per-learner streams are drawn one by one.
    cfg = _cfg(n_learners=3, seed=2**40 + 1, data_partition=partition)
    Phi = stream(8, 0).standard_normal((4, 3))
    for oracle in (_oracle(d=4), logistic_oracle(dimension=4, n_samples=30, separation=1.0)):
        for k in (0, 63, 64, 130, 63):
            expected = reference.gradient_matrix(oracle, Phi, cfg, k)
            assert np.array_equal(gradient_matrix(oracle, Phi, cfg, k), expected)


def test_spsgd_matches_hand_rolled_update(reference):
    oracle = _oracle()
    cfg = _cfg()
    state = initial_state(oracle, cfg)
    w = state.weights[:, 0].copy()
    for k in range(3):
        state = step_spsgd(state, oracle, cfg)
        G = reference.gradient_matrix(oracle, np.tile(w[:, None], (1, cfg.n_learners)), cfg, k)
        w = w - cfg.lr * G.mean(axis=1)
        assert np.all(state.weights == state.weights[:, :1])
        assert np.allclose(state.weights[:, 0], w, rtol=0, atol=1e-15)


def test_spsgd_rejects_disagreeing_learners():
    oracle = _oracle()
    cfg = _cfg()
    state = initial_state(oracle, cfg)
    state.weights[0, 1] += 1.0
    with pytest.raises(ValueError, match="^SPSGD requires identical weights on all learners$"):
        step_spsgd(state, oracle, cfg)


def test_dpsgd_l3_first_step_bitwise_equals_d1d():
    # The three-learner ring weights equal the uniform weights entry for
    # entry, so every ring strategy takes the exact column-mean path and
    # the shared gradient streams make the first step bitwise identical.
    # With stale gradients, as d1d has, whole runs are identical.
    oracle = _oracle()
    cfg = _cfg(n_learners=3)
    sync = replace(cfg, staleness_mode="sync")
    d1d = step_d1d(initial_state(oracle, cfg), oracle, cfg)
    for step, c in ((step_dpsgd_fixed, cfg), (step_rand_psgd, sync)):
        first = step(initial_state(oracle, c), oracle, c)
        assert np.array_equal(first.weights, d1d.weights)
        assert not np.array_equal(step(first, oracle, c).weights, step_d1d(d1d, oracle, c).weights)
    cfg = _cfg(n_learners=3, iterations=40)
    ref = run_training(Strategy.D1D, oracle, cfg)
    for strategy in (Strategy.ADPSGD_FIXED, Strategy.RAND_PSGD):
        run = run_training(strategy, oracle, cfg)
        for name in ("weights", "prev_weights", "last_gradients"):
            assert np.array_equal(getattr(run.state, name), getattr(ref.state, name))
        assert [(r.mean_loss, r.avg_model_loss, r.consensus_dist) for r in run.records] == [
            (r.mean_loss, r.avg_model_loss, r.consensus_dist) for r in ref.records
        ]


def test_stale_and_sync_agree_only_on_first_step():
    oracle = _oracle()
    cfg = _cfg(n_learners=5)
    sync = step_dpsgd_fixed(initial_state(oracle, cfg), oracle, cfg)
    stale = step_adpsgd_fixed(initial_state(oracle, cfg), oracle, cfg)
    assert np.array_equal(sync.weights, stale.weights)
    sync2 = step_dpsgd_fixed(sync, oracle, cfg)
    stale2 = step_adpsgd_fixed(stale, oracle, cfg)
    assert not np.array_equal(sync2.weights, stale2.weights)


def test_rand_psgd_matches_manual_conjugation():
    oracle = _oracle()
    cfg = _cfg(n_learners=5)
    state = initial_state(oracle, cfg)
    state = step_rand_psgd(state, oracle, cfg)
    state2 = step_rand_psgd(state, oracle, cfg)

    perm = permutation_for_step(5, cfg.seed, 1)
    ring3 = np.zeros((5, 5))
    for i in range(5):
        for j in (i - 1, i, i + 1):
            ring3[i, j % 5] = 1.0 / 3.0
    T = ring3[np.ix_(perm, perm)]
    G = gradient_matrix(oracle, state.prev_weights, cfg, 1)
    expected = state.weights @ T - cfg.lr * G
    assert np.allclose(state2.weights, expected, rtol=0, atol=1e-15)


def test_rand_psgd_permutations_equal_permutation_for_step_across_blocks():
    # step_rand_psgd takes p_k and its gradient draws from the cached block
    # that holds k, whose permutation rows must draw what
    # mixing.permutation_for_step, the reference, draws.  run_training reads
    # the same rows (test_stepping_equals_run_training_under_any_row_budget).
    oracle = _oracle()
    for L, seed in ((5, 11), (8, 2**40 + 9)):
        cfg = _cfg(n_learners=L, seed=seed, staleness_mode="sync")
        W = stream(8, L).standard_normal((6, L))
        state = replace(initial_state(oracle, cfg), weights=W, prev_weights=W)
        for k in (0, 62, 63, 64, 65, 127, 128, 63):
            perm = permutation_for_step(L, seed, k)
            T = build_ring_matrix(L)[np.ix_(perm, perm)]
            G = gradient_matrix(oracle, W, cfg, k)
            stepped = step_rand_psgd(replace(state, iteration=k), oracle, cfg)
            assert np.array_equal(stepped.weights, W @ T - learning_rate(cfg, k) * G)


def test_rand_psgd_staleness_override():
    oracle = _oracle()
    cfg = _cfg(n_learners=5, staleness_mode="async")
    s1 = step_rand_psgd(initial_state(oracle, cfg), oracle, cfg)
    a = step_rand_psgd(s1, oracle, replace(cfg, staleness_mode="sync"))
    b = step_rand_psgd(s1, oracle, cfg)
    assert not np.array_equal(a.weights, b.weights)
    with pytest.raises(ValueError):
        replace(cfg, staleness_mode="eventually")


def test_d1d_consensus_is_exact_after_averaging():
    oracle = _oracle(noise=2.0)
    cfg = _cfg(n_learners=6, iterations=10)
    state = initial_state(oracle, cfg)
    U = build_uniform_matrix(6)
    for _ in range(10):
        averaged = apply_mixing(state.weights, U)
        assert np.all(averaged == averaged[:, :1])
        assert consensus_distance(averaged) <= 1e-12
        state = step_d1d(state, oracle, cfg)


_STEPS = {
    Strategy.SPSGD: step_spsgd,
    Strategy.DPSGD_FIXED: step_dpsgd_fixed,
    Strategy.ADPSGD_FIXED: step_adpsgd_fixed,
    Strategy.RAND_PSGD: step_rand_psgd,
    Strategy.D1D: step_d1d,
}


@settings(max_examples=150, deadline=None)
@given(
    strategy=st.sampled_from(list(Strategy)),
    n_learners=st.integers(3, 12),
    oracle_kind=st.sampled_from(["quadratic", "logistic"]),
    staleness_mode=st.sampled_from(["sync", "async"]),
    data_partition=st.sampled_from(["shared", "sharded"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_mixing_preserves_learner_average(
    strategy, n_learners, oracle_kind, staleness_mode, data_partition, seed
):
    # Mixing is doubly stochastic, so a step moves the column mean by
    # exactly lr x the mean gradient, up to rounding at the weights' scale.
    if oracle_kind == "quadratic":
        oracle = _oracle(noise=2.0)
    else:
        oracle = logistic_oracle(dimension=5, n_samples=48, separation=2.0, seed=3)
    cfg = _cfg(n_learners=n_learners, seed=seed, staleness_mode=staleness_mode,
               data_partition=data_partition)
    state = initial_state(oracle, cfg)
    for _ in range(5):
        before = state.weights.mean(axis=1)
        new = _STEPS[strategy](state, oracle, cfg)
        moved = new.weights.mean(axis=1)
        step = cfg.lr * new.last_gradients.mean(axis=1)
        scale = np.abs(state.weights).max() + cfg.lr * np.abs(new.last_gradients).max()
        tol = 4 * n_learners * np.finfo(float).eps * scale
        assert np.all(np.abs(moved - (before - step)) <= tol)
        state = new


def test_cost_model_values_and_validation():
    cm = CostModel()
    assert cm.allreduce_time(4) == pytest.approx(0.0132, rel=1e-12)
    with pytest.raises(ValueError):
        CostModel(message_size_bytes=0.0)
    with pytest.raises(ValueError):
        CostModel(bandwidth_bytes_per_s=-1.0)
    with pytest.raises(ValueError):
        CostModel(compute_sigma=-0.1)
    with pytest.raises(ValueError):
        CostModel(compute_scale=(1.0, 0.0))
    for key in ("message_size_bytes", "bandwidth_bytes_per_s", "compute_mu", "compute_sigma"):
        with pytest.raises(ValueError):
            CostModel(**{key: math.nan})
    for value in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="compute_mu: must be finite"):
            CostModel(compute_mu=value)
    with pytest.raises(ValueError, match=r"^compute_scale\[1\]: must be > 0$"):
        CostModel(compute_scale=(1.0, math.nan))
    # Each factor must be a float: neither inf nor an int too large for one.
    for factor in (math.inf, 10**400):
        with pytest.raises(ValueError, match=r"^compute_scale\[0\]: must be finite$"):
            CostModel(compute_scale=(factor, 1, 1))
    with pytest.raises(ValueError, match=r"^compute_scale\[2\]: must be > 0$"):
        CostModel(compute_scale=(1, 1, -math.inf))
    # Both finite, but the exchange time 2 m / b overflows.
    with pytest.raises(ValueError, match="^message_size_bytes, bandwidth_bytes_per_s: "):
        CostModel(message_size_bytes=1e306, bandwidth_bytes_per_s=1e-191)
    # An int may stand for a float, but not one that overflows a float.
    for key in ("message_size_bytes", "bandwidth_bytes_per_s", "compute_mu"):
        with pytest.raises(ValueError, match=f"^{key}: must be finite$"):
            CostModel(**{key: 10**400})
    largest = CostModel(message_size_bytes=8e307, bandwidth_bytes_per_s=1.0)
    assert largest.allreduce_time(4) < math.inf
    # compute_scale is a sequence of factors, each a float that is not a bool.
    with pytest.raises(ValueError, match=r"^compute_scale: expected a sequence of factors, "
                                         r"got 2\.0$"):
        CostModel(compute_scale=2.0)
    with pytest.raises(ValueError, match=r"^compute_scale\[0\]: expected float, got True$"):
        CostModel(compute_scale=(True, 1.0))
    cm2 = CostModel(compute_scale=(1.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        cm2.sample_compute_times(4, stream(0, TAG_CLOCK, 0))


def test_cost_model_holds_the_compute_scale_it_checked():
    # A tuple of Python floats: a later write to the caller's array reaches
    # neither the checks nor the clock.
    assert CostModel(compute_scale=(np.float32(2.0), 1)).compute_scale == (2.0, 1.0)
    scale = np.ones(4)
    cm = CostModel(compute_scale=scale)
    assert type(cm.compute_scale) is tuple
    assert [type(factor) for factor in cm.compute_scale] == [float] * 4
    cfg = _cfg(cost_model=cm)
    expected = _outcome(Strategy.D1D, _oracle(), cfg)
    for value in (-5.0, math.nan):
        scale[0] = value
        assert _outcome(Strategy.D1D, _oracle(), cfg) == expected, value


def test_advance_clock_formulas():
    oracle = _oracle()
    cfg = _cfg(n_learners=4)
    state = initial_state(oracle, cfg)
    cm = CostModel(compute_scale=(3.0, 1.0, 1.0, 1.0))
    rng_draw = cm.sample_compute_times(4, stream(cfg.seed, TAG_CLOCK, 0))

    barrier, dt_b = advance_clock(state, Strategy.D1D, cm, stream(cfg.seed, TAG_CLOCK, 0))
    assert dt_b == pytest.approx(rng_draw.max() + cm.allreduce_time(4), rel=1e-15)
    assert np.allclose(barrier.compute_time_s, rng_draw, rtol=0, atol=0)

    gossip, dt_g = advance_clock(state, Strategy.RAND_PSGD, cm, stream(cfg.seed, TAG_CLOCK, 0))
    expected = np.maximum(rng_draw, cm.allreduce_time(4)).mean()
    assert dt_g == pytest.approx(expected, rel=1e-15)
    assert gossip.sim_time_s == pytest.approx(dt_g, rel=1e-15)


def test_block_clock_equals_advance_clock_row_by_row():
    # run_training draws a block's clock in one (n, L) array; each row's
    # duration and running totals must equal one advance_clock call's, bit
    # for bit, across the pairwise-summation block sizes of 8 and 128.
    for L in range(1, 301):
        cm = CostModel(compute_sigma=0.5, compute_scale=tuple(stream(L, 9).uniform(0.5, 20, L)))
        start = SimState(np.zeros((1, L)), np.zeros((1, L)), 7, stream(L, 8).uniform(0, 50, L),
                         sim_time_s=float(stream(L, 7).uniform(0, 50)))
        times = np.array([cm.sample_compute_times(L, stream(L, TAG_CLOCK, k)) for k in range(3)])
        for strategy in (Strategy.D1D, Strategy.RAND_PSGD):
            compute, sim, durations = simulation._clock(
                strategy, cm, times, start.compute_time_s, start.sim_time_s,
            )
            state = start
            for k in range(3):
                draw = cm.sample_compute_times(L, stream(L, TAG_CLOCK, k))
                if strategy.uses_ring:
                    expected = float(np.maximum(draw, cm.allreduce_time(L)).mean())
                else:
                    expected = float(draw.max()) + cm.allreduce_time(L)
                state, duration = advance_clock(state, strategy, cm, stream(L, TAG_CLOCK, k))
                assert duration == expected == durations[k], (L, strategy, k)
                assert np.array_equal(state.compute_time_s, compute[k + 1])
                assert state.sim_time_s == sim[k + 1] and type(state.sim_time_s) is float


def test_mixing_rho_per_strategy():
    assert mixing_rho(Strategy.SPSGD, 16) == 0.0
    assert mixing_rho(Strategy.D1D, 16) == 0.0
    rho = second_eigenvalue_ring(16)
    for s in (Strategy.DPSGD_FIXED, Strategy.ADPSGD_FIXED, Strategy.RAND_PSGD):
        assert mixing_rho(s, 16) == rho


def test_strategy_facts_are_pinned_and_handled():
    # seed_id feeds every cell seed: renumbering changes every sweep's output.
    assert {s.value: s.seed_id for s in Strategy} == {
        "spsgd": 0, "dpsgd_fixed": 1, "adpsgd_fixed": 2, "rand_psgd": 3, "d1d": 4,
    }
    for s in Strategy:
        assert s.mixing in ("none", "ring", "relabelled", "mean"), s
        assert s.gradient in ("fresh", "stale", "staleness_mode"), s
        assert Strategy(s.value) is s


@pytest.mark.parametrize("shape", [
    (5, 3, 4, 6), (7, 1, 9), (2, 9, 1), (12, 24, 2), (8, 17, 3), (1, 33, 33)])
def test_consensus_distance_takes_stacks_slice_by_slice(reference, shape):
    # Each slice's bits are those of the one-model expression, and one
    # model's distance is a float.
    Ws = 3.0 * stream(11, 2).standard_normal(shape)
    stacked = consensus_distance(Ws)
    assert stacked.shape == shape[:-2]
    for idx in np.ndindex(shape[:-2]):
        one = consensus_distance(Ws[idx])
        assert type(one) is float
        expected = np.float64(reference.consensus_distance(Ws[idx])).tobytes()
        assert np.float64(stacked[idx]).tobytes() == np.float64(one).tobytes() == expected


def test_consensus_distance_hand_case():
    W = np.array([[1.0, 3.0], [0.0, 0.0]])
    # Mean column is (2, 0); both columns sit at distance 1.
    assert consensus_distance(W) == pytest.approx(1.0, rel=1e-15)
    assert consensus_distance(np.ones((3, 4))) == 0.0


def test_run_training_record_cadence():
    oracle = _oracle()
    cfg = _cfg(iterations=7, log_every=3)
    result = run_training(Strategy.DPSGD_FIXED, oracle, cfg)
    assert [r.iteration for r in result.records] == [3, 6, 7]
    dense = run_training(Strategy.DPSGD_FIXED, oracle, _cfg(iterations=4, log_every=1))
    assert [r.iteration for r in dense.records] == [1, 2, 3, 4]
    assert all(r.rho == second_eigenvalue_ring(4) for r in dense.records)
    d1d = run_training(Strategy.D1D, oracle, _cfg(iterations=4, log_every=1))
    assert all(r.rho == 0.0 for r in d1d.records)


def test_run_training_sim_time_accumulates():
    oracle = _oracle()
    cfg = _cfg(iterations=6, log_every=1)
    result = run_training(Strategy.D1D, oracle, cfg)
    times = [r.sim_time_s for r in result.records]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert result.state.sim_time_s == pytest.approx(times[-1], rel=1e-15)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_run_training_clock_equals_clock_stream_across_blocks(strategy, monkeypatch):
    # The loop draws each block's clock streams at the block's start, from
    # the one Generator its gradient and permutation streams reseat too.
    # Replayed here on fresh clock streams, across blocks of 16 iterations.
    monkeypatch.setattr(simulation, "_ROW_BUDGET", 16 * 5)
    oracle = _oracle(d=4)
    cfg = _cfg(n_learners=5, iterations=70, log_every=1, lr=0.05)
    result = run_training(strategy, oracle, cfg)
    assert len(result.records) == cfg.iterations
    state = initial_state(oracle, cfg)
    for k, record in enumerate(result.records):
        state, _ = advance_clock(state, strategy, cfg.cost_model, stream(cfg.seed, TAG_CLOCK, k))
        assert record.sim_time_s == state.sim_time_s
    assert np.array_equal(result.state.compute_time_s, state.compute_time_s)


def test_run_training_divergence_keeps_partial_trace():
    oracle = _oracle(noise=0.5)
    cfg = _cfg(n_learners=4, iterations=100, lr=50.0, log_every=1)
    result = run_training(Strategy.DPSGD_FIXED, oracle, cfg)
    assert result.diverged
    assert len(result.records) < 100
    for r in result.records:
        assert np.isfinite(r.mean_loss)
        assert np.isfinite(r.consensus_dist)
    assert np.all(np.abs(result.state.weights) <= DIVERGENCE_THRESHOLD)


class _PoisonedOracle:
    """A quadratic oracle whose gradients all become `value` from call `at` on."""

    def __init__(self, value, at):
        self._inner = _oracle()
        self.dimension = self._inner.dimension
        self.value, self.at, self.calls = value, at, 0

    def draw(self, rows, batch_size, shards=None):
        return self._inner.draw(rows, batch_size, shards)

    def gradients(self, Phi, draws, batch_size):
        G = self._inner.gradients(Phi, draws, batch_size)
        self.calls += 1
        return np.full_like(G, self.value) if self.calls > self.at else G

    def loss_columns(self, W):
        return self._inner.loss_columns(W)

    def loss(self, w):
        return self._inner.loss(w)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e14])
@pytest.mark.parametrize("log_every", [1, 3])
def test_run_training_divergence_ends_trace_at_last_healthy_iteration(strategy, value, log_every):
    oracle = _PoisonedOracle(value, at=5)
    result = run_training(strategy, oracle, _cfg(iterations=10, log_every=log_every))
    assert result.diverged
    assert result.state.iteration == 5
    assert [r.iteration for r in result.records] == ([1, 2, 3, 4, 5] if log_every == 1 else [3, 5])
    assert all(np.isfinite(r.mean_loss) for r in result.records)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e14])
def test_diverged_state_equals_a_run_that_stops_at_the_last_healthy_iteration(strategy, value):
    result = run_training(strategy, _PoisonedOracle(value, at=5), _cfg(iterations=10))
    assert result.diverged
    k = result.state.iteration
    healthy = run_training(strategy, _PoisonedOracle(value, at=5), _cfg(iterations=k))
    assert not healthy.diverged
    for name in ("weights", "prev_weights", "last_gradients", "compute_time_s"):
        assert np.array_equal(getattr(result.state, name), getattr(healthy.state, name)), name
    assert result.state.sim_time_s == healthy.state.sim_time_s
    assert result.state.iteration == healthy.state.iteration == k


@pytest.mark.parametrize("iterations, logged", [(3, [2, 3]), (4, [2, 4]), (5, [2, 4, 5])])
def test_a_final_record_whose_loss_overflows_is_inf_and_not_warned(iterations, logged):
    # lr 0 keeps the start model, whose loss overflows: the off-cadence final
    # record is taken under the same errstate as the records on the cadence.
    oracle = quadratic_oracle(4, condition_number=1e300)
    cfg = _cfg(iterations=iterations, lr=0.0, init_scale=1e5, log_every=2)
    result = run_training(Strategy.D1D, oracle, cfg)  # the suite turns warnings into errors
    assert [r.iteration for r in result.records] == logged
    assert all(r.mean_loss == r.avg_model_loss == math.inf for r in result.records)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("at, logged", [(0, []), (5, [3, 5]), (8, [3, 6, 8])])
def test_a_diverged_trace_ends_with_its_last_healthy_iteration(strategy, at, logged, monkeypatch):
    # Blocks of 8 iterations at L = 4: a divergence at iteration 8 is the
    # first of the second block, whose final record is that block's row 0.
    monkeypatch.setattr(simulation, "_ROW_BUDGET", 4 * 8)
    cfg = _cfg(iterations=12, log_every=3)
    result = run_training(strategy, _PoisonedOracle(math.nan, at=at), cfg)
    assert result.diverged and [r.iteration for r in result.records] == logged
    if at:
        healthy = run_training(strategy, _PoisonedOracle(math.nan, at=at), replace(cfg, iterations=at))
        assert result.records == healthy.records


def _outcome(strategy, oracle, cfg, run=run_training):
    """Everything `run` (by default run_training) returns, as bytes and reprs,
    or its error."""
    try:
        result = run(strategy, oracle, cfg)
    except ValueError as exc:
        return str(exc)
    s = result.state
    arrays = (s.weights, s.prev_weights, s.compute_time_s, s.last_gradients)
    assert all(type(r.sim_time_s) is float for r in result.records)
    return (repr(result.records), result.diverged, s.iteration, repr(s.sim_time_s),
            [None if a is None else a.tobytes() for a in arrays])


@st.composite
def _runs(draw, max_iterations):
    """An oracle and a run config, over L from 3 to 12, log_every, warmup,
    lr up to 20 (so some runs diverge), both oracles, partitions and
    staleness modes, and a default, a straggler and an overflowing clock."""
    n_learners = draw(st.integers(3, 12))
    if draw(st.sampled_from(["quadratic", "logistic"])) == "quadratic":
        oracle = _oracle(noise=2.0)
    else:
        oracle = logistic_oracle(dimension=5, n_samples=48, separation=2.0, seed=3)
    factor = draw(st.sampled_from([None, 10.0, 1.7976931348623157e308]))
    cost_model = CostModel(compute_scale=None if factor is None else
                           (factor,) + (1.0,) * (n_learners - 1))
    cfg = _cfg(
        n_learners=n_learners,
        iterations=draw(st.integers(1, max_iterations)),
        log_every=draw(st.integers(1, 7)),
        warmup_iters=draw(st.integers(0, 8)),
        lr=draw(st.sampled_from([0.05, 0.5, 20.0])),
        data_partition=draw(st.sampled_from(["shared", "sharded"])),
        staleness_mode=draw(st.sampled_from(["sync", "async"])),
        cost_model=cost_model,
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return oracle, cfg


@settings(max_examples=40, deadline=None)
@given(strategy=st.sampled_from(list(Strategy)), run=_runs(max_iterations=30))
def test_run_training_is_identical_under_any_row_budget(strategy, run):
    # Stream blocks of 1, 1, 2 and (by default) all iterations give the same
    # run, divergence and clock overflow included.
    oracle, cfg = run
    expected = _outcome(strategy, oracle, cfg)
    for budget in (1, cfg.n_learners, 2 * cfg.n_learners + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_ROW_BUDGET", budget)
            assert _outcome(strategy, oracle, cfg) == expected, budget


@settings(max_examples=50, deadline=None)
@given(run=_runs(max_iterations=20))
def test_run_training_equals_the_one_learner_at_a_time_reference(reference, run):
    # tests/reference.py steps each learner on its own public stream; every
    # strategy's records, diverged flag, state and clock overflow must match.
    oracle, cfg = run
    for strategy in Strategy:
        expected = _outcome(strategy, oracle, cfg, reference.run_training)
        assert _outcome(strategy, oracle, cfg) == expected, strategy


def _stack_bytes(models, oracle, cfg):
    """A `simulation._STACK_BYTES` that holds `models` logged weight matrices."""
    return models * 8 * oracle.dimension * cfg.n_learners


@pytest.mark.parametrize("oracle", [
    _oracle(noise=2.0), logistic_oracle(dimension=5, n_samples=48, separation=2.0, seed=3)],
    ids=["quadratic", "logistic"])
@pytest.mark.parametrize("log_every", [1, 2, 5])
def test_stacked_records_equal_the_per_record_reference(reference, oracle, log_every, monkeypatch):
    # Blocks of 7 iterations at L = 4 and a stack of 3 logged models: the
    # stack is recorded when full, mid-block, and at each block's end, and at
    # log_every = 5 the final iteration, 38, is a stack of one.  The logistic
    # losses take the stack's models two at a time.  The reference records one
    # model at a time by the one-model expressions.
    cfg = _cfg(iterations=38, log_every=log_every, lr=0.05, data_partition="sharded")
    monkeypatch.setattr(simulation, "_ROW_BUDGET", 4 * 7)
    monkeypatch.setattr(simulation, "_STACK_BYTES", _stack_bytes(3, oracle, cfg))
    monkeypatch.setattr(objectives, "_LOSS_CHUNK_BYTES", 2 * 8 * 48 * 4)
    for strategy in Strategy:
        expected = _outcome(strategy, oracle, cfg, reference.run_training)
        assert _outcome(strategy, oracle, cfg) == expected, strategy


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("at", [4, 5, 6])
def test_a_divergence_mid_stack_records_the_healthy_iterations_first(strategy, at, monkeypatch):
    # A stack of 3 logged models: the divergence at iteration at + 1 finds
    # at % 3 of them not yet recorded, and the trace still ends at `at`.
    cfg = _cfg(iterations=10)
    monkeypatch.setattr(simulation, "_STACK_BYTES", _stack_bytes(3, _oracle(), cfg))
    result = run_training(strategy, _PoisonedOracle(math.nan, at=at), cfg)
    assert result.diverged and result.state.iteration == at
    assert [r.iteration for r in result.records] == list(range(1, at + 1))
    healthy = run_training(strategy, _PoisonedOracle(math.nan, at=at), replace(cfg, iterations=at))
    assert not healthy.diverged
    assert repr(result.records) == repr(healthy.records)


@pytest.mark.parametrize("models, flushes", [(None, 1), (5, 5), (1, 24)])
def test_a_logged_run_calls_each_loss_once_per_recorded_stack(models, flushes, monkeypatch):
    # 24 iterations logged every one: one stack by default, ceil(24 / 5) of
    # at most 5 models, or 24 stacks of one.
    oracle, cfg = _oracle(), _cfg(iterations=24, log_every=1)
    if models is not None:
        monkeypatch.setattr(simulation, "_STACK_BYTES", _stack_bytes(models, oracle, cfg))
    with mock.patch.object(QuadraticObjective, "loss_columns", autospec=True,
                           side_effect=QuadraticObjective.loss_columns) as columns, \
            mock.patch.object(QuadraticObjective, "loss", autospec=True,
                              side_effect=QuadraticObjective.loss) as loss:
        result = run_training(Strategy.RAND_PSGD, oracle, cfg)
    assert [r.iteration for r in result.records] == list(range(1, 25))
    assert columns.call_count == loss.call_count == flushes
    assert columns.call_args_list[0].args[1].shape == (min(models or 24, 24), 6, 4)


@settings(max_examples=30, deadline=None)
@given(strategy=st.sampled_from(list(Strategy)), run=_runs(max_iterations=30))
def test_stepping_equals_run_training_under_any_row_budget(strategy, run):
    # The step_* functions index the block that run_training loops over; for
    # a run that does not diverge, stepping from the start model gives its
    # state byte for byte, whatever the block size.
    oracle, cfg = run
    cfg = replace(cfg, lr=min(cfg.lr, 0.5), cost_model=CostModel())
    expected = run_training(strategy, oracle, cfg)
    assume(not expected.diverged)
    L = cfg.n_learners
    for budget in (1, L, 2 * L + 1, simulation._ROW_BUDGET):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_ROW_BUDGET", budget)
            state = initial_state(oracle, cfg)
            for _ in range(cfg.iterations):
                state = _STEPS[strategy](state, oracle, cfg)
        for name in ("weights", "prev_weights", "last_gradients"):
            assert getattr(state, name).tobytes() == getattr(expected.state, name).tobytes(), (
                budget, name)


def _arrays(state):
    """The result arrays of a state that a later run or step could write into."""
    return [a for a in (state.weights, state.prev_weights, state.last_gradients) if a is not None]


_LOGISTIC = logistic_oracle(dimension=6, n_samples=40, separation=1.0, seed=3)


@pytest.mark.parametrize("oracle, iterations, lr", [
    (_oracle(), 7, 0.1), (_oracle(), 8, 0.1), (_oracle(), 40, 1.0), (_LOGISTIC, 7, 0.1),
    (_LOGISTIC, 8, 0.1)], ids=["odd", "even", "diverging", "logistic-odd", "logistic-even"])
def test_run_results_share_no_memory_and_replay_after_other_runs(oracle, iterations, lr):
    # run_training steps on rotating weight buffers: whatever the last
    # buffer written, divergence included, a result's arrays are its own,
    # and a run repeated after every other strategy's run gives its bytes.
    cfg = _cfg(iterations=iterations, lr=lr)
    results = {strategy: run_training(strategy, oracle, cfg) for strategy in Strategy}
    assert all(result.diverged == (lr == 1.0) for result in results.values())
    arrays = [a for result in results.values() for a in _arrays(result.state)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), i
    for strategy in reversed(Strategy):
        expected = _outcome(strategy, oracle, cfg, lambda *_: results[strategy])
        assert _outcome(strategy, oracle, cfg) == expected, strategy


@pytest.mark.parametrize("strategy", list(Strategy))
def test_a_step_leaves_its_input_state_unchanged(strategy):
    # Each step_* call returns fresh arrays, from the start model and from a
    # run's result (stepping past its last iteration) alike, and never
    # writes into the state it was given.
    oracle, cfg = _oracle(), _cfg(iterations=6)
    for state in (initial_state(oracle, cfg), run_training(strategy, oracle, cfg).state):
        for _ in range(3):
            before = [a.copy() for a in _arrays(state)]
            stepped = _STEPS[strategy](state, oracle, cfg)
            assert [a.tobytes() for a in _arrays(state)] == [a.tobytes() for a in before]
            assert stepped.prev_weights is state.weights
            for a in (stepped.weights, stepped.last_gradients):
                assert not any(np.shares_memory(a, b) for b in _arrays(state))
            assert not np.shares_memory(stepped.weights, stepped.last_gradients)
            state = stepped


@pytest.mark.parametrize("n_learners", [1, 2])
@pytest.mark.parametrize("oracle", [_oracle(), _LOGISTIC], ids=["quadratic", "logistic"])
def test_barrier_strategies_run_and_step_below_the_smallest_ring(reference, oracle, n_learners):
    # Only a ring strategy needs n_learners >= 3: spsgd and d1d at L = 1 and
    # 2 run as the one-learner-at-a-time reference does, and stepping them
    # reaches the same state; the ring strategies still refuse such an L.
    cfg = _cfg(n_learners=n_learners, iterations=6, warmup_iters=3)
    for strategy in (Strategy.SPSGD, Strategy.D1D):
        expected = _outcome(strategy, oracle, cfg, reference.run_training)
        assert _outcome(strategy, oracle, cfg) == expected, strategy
        state, final = initial_state(oracle, cfg), run_training(strategy, oracle, cfg).state
        for _ in range(cfg.iterations):
            state = _STEPS[strategy](state, oracle, cfg)
        assert [a.tobytes() for a in _arrays(state)] == [a.tobytes() for a in _arrays(final)]
    for strategy in (Strategy.DPSGD_FIXED, Strategy.ADPSGD_FIXED, Strategy.RAND_PSGD):
        with pytest.raises(ValueError, match="n_learners"):
            run_training(strategy, oracle, cfg)
        with pytest.raises(ValueError, match="n_learners"):
            _STEPS[strategy](initial_state(oracle, cfg), oracle, cfg)


class _CountingOracle:
    """A quadratic oracle that logs each `draw` call in `calls` (shared by the
    oracles given the same list) as whether the block cache was empty then.
    Every _CountingOracle is equal to every other, so none is hashable."""

    def __init__(self, calls=None):
        self._inner = _oracle()
        self.dimension = self._inner.dimension
        self.calls = [] if calls is None else calls

    def __eq__(self, other):
        return isinstance(other, _CountingOracle)

    def draw(self, rows, batch_size, shards=None):
        self.calls.append(simulation._last_draws is None)
        return self._inner.draw(rows, batch_size, shards)

    def gradients(self, Phi, draws, batch_size):
        return self._inner.gradients(Phi, draws, batch_size)

    def loss_columns(self, W):
        return self._inner.loss_columns(W)

    def loss(self, w):
        return self._inner.loss(w)


def test_strategies_paired_on_a_seed_draw_the_gradient_block_once():
    # The run fits one stream block: the first strategy draws it, the other
    # four reuse it and return what a run on a fresh oracle returns.
    oracle, cfg = _CountingOracle(), _cfg(iterations=40, data_partition="sharded")
    outcomes = [_outcome(strategy, oracle, cfg) for strategy in Strategy]
    assert oracle.calls == [True]
    for strategy, outcome in zip(Strategy, outcomes):
        assert _outcome(strategy, _CountingOracle(), cfg) == outcome, strategy


@pytest.mark.parametrize("strategy", list(Strategy))
def test_steps_draw_once_per_block_and_gradient_matrix_reads_the_held_block(strategy, monkeypatch):
    # Blocks of 8 iterations at L = 4: 16 steps cross into a second block.
    monkeypatch.setattr(simulation, "_ROW_BUDGET", 4 * 8)
    oracle, cfg = _CountingOracle(), _cfg(iterations=16)
    state = initial_state(oracle, cfg)
    for _ in range(cfg.iterations):
        state = _STEPS[strategy](state, oracle, cfg)
    assert oracle.calls == [True, True]
    for k in range(8, 16):
        gradient_matrix(oracle, state.weights, cfg, k)
    assert oracle.calls == [True, True]


def test_rand_psgd_after_another_strategy_on_its_block_derives_no_stream_rows(monkeypatch):
    # The held block carries the permutation rows with the gradient draws and
    # the compute times, so a paired rand_psgd run derives none of its own.
    oracle, cfg = _oracle(), _cfg(iterations=40)
    run_training(Strategy.D1D, oracle, cfg)
    stream_states = mock.Mock(wraps=seeding.stream_states)
    monkeypatch.setattr(seeding, "stream_states", stream_states)
    expected = _outcome(Strategy.RAND_PSGD, oracle, cfg)
    assert stream_states.call_count == 0
    monkeypatch.undo()
    assert _outcome(Strategy.RAND_PSGD, _oracle(), cfg) == expected


def test_a_paired_run_on_a_held_block_draws_no_compute_time_and_scales_no_noise():
    # The held block holds its clock's compute times and the quadratic's
    # scaled noise as values: a paired run draws and scales nothing, and
    # returns what a run on a fresh oracle returns.
    oracle = _oracle()
    cfg = _cfg(iterations=40, cost_model=CostModel(compute_scale=(3.0, 1.0, 1.0, 1.0)))
    run_training(Strategy.D1D, oracle, cfg)
    sample = mock.patch.object(CostModel, "sample_compute_times", autospec=True,
                               side_effect=CostModel.sample_compute_times)
    # The quadratic's gradients add the drawn noise as it is: only `draw` scales.
    draw = mock.patch.object(QuadraticObjective, "draw", autospec=True,
                             side_effect=QuadraticObjective.draw)
    with sample as sample_calls, draw as draw_calls:
        outcomes = {strategy: _outcome(strategy, oracle, cfg) for strategy in Strategy}
    assert (sample_calls.call_count, draw_calls.call_count) == (0, 0)
    for strategy, outcome in outcomes.items():
        with sample as sample_calls, draw as draw_calls:
            assert _outcome(strategy, _oracle(), cfg) == outcome, strategy
        # A miss draws each iteration's compute times and its block's noise once.
        assert (sample_calls.call_count, draw_calls.call_count) == (cfg.iterations, 1)


def test_step_rand_psgd_over_a_held_block_builds_no_stream(monkeypatch):
    oracle, cfg = _oracle(), _cfg(n_learners=5, iterations=12)
    state = initial_state(oracle, cfg)
    gradient_matrix(oracle, state.weights, cfg, 0)  # holds the run's one block
    stream = mock.Mock(wraps=seeding.stream)
    monkeypatch.setattr(seeding, "stream", stream)
    for _ in range(cfg.iterations):
        state = step_rand_psgd(state, oracle, cfg)
    assert stream.call_count == 0
    monkeypatch.undo()
    assert state.weights.tobytes() == run_training(
        Strategy.RAND_PSGD, oracle, cfg).state.weights.tobytes()


# A changed value for every RunConfig field.
_CHANGED = {"n_learners": 5, "iterations": 6, "lr": 0.2, "batch_size": 3, "seed": 6,
            "warmup_iters": 2, "staleness_mode": "sync", "init_scale": 0.5,
            "data_partition": "sharded", "log_every": 2, "cost_model": CostModel(compute_sigma=0.2)}


def test_the_ring_cache_holds_one_ring_size():
    simulation._ring.cache_clear()
    for L in (4, 16, 8):
        run_training(Strategy.DPSGD_FIXED, _oracle(), _cfg(n_learners=L, iterations=2))
    held = simulation._ring.cache_info()
    assert held.currsize == 1
    assert np.array_equal(simulation._ring(8), build_ring_matrix(8))
    assert simulation._ring.cache_info().hits == held.hits + 1  # the last size is the one held


@pytest.mark.parametrize("change", [*_CHANGED, "oracle"])
def test_a_run_that_changes_one_key_field_draws_its_block_again(change):
    assert set(_CHANGED) == {f.name for f in fields(RunConfig)}
    calls = []
    oracle, cfg = _CountingOracle(calls), _cfg()
    if change == "oracle":
        other, other_cfg = _CountingOracle(calls), cfg  # equal, but another object
        assert other == oracle
    else:
        other, other_cfg = oracle, replace(cfg, **{change: _CHANGED[change]})
    for run in ((oracle, cfg), (oracle, cfg), (other, other_cfg), (other, other_cfg),
                (oracle, cfg)):
        run_training(Strategy.D1D, *run)
    # Each miss draws with the cache already emptied: one block held at most.
    assert calls == [True] * 3


def test_equal_configs_built_apart_share_one_draw_per_block():
    a, b = (RunConfig(n_learners=4, iterations=1, lr=0.1, batch_size=1, seed=0) for _ in "ab")
    assert a is not b and a == b and hash(a) == hash(b)
    calls = []
    oracle = _CountingOracle(calls)
    scales = [(2, 1, 1, 1), (2.0, np.float32(1), 1.0, 1)]
    a, b = (_cfg(iterations=40, cost_model=CostModel(compute_scale=scale)) for scale in scales)
    assert a.cost_model is not b.cost_model and a == b and hash(a) == hash(b)
    run_training(Strategy.D1D, oracle, a)
    run_training(Strategy.RAND_PSGD, oracle, b)
    gradient_matrix(oracle, np.zeros((oracle.dimension, 4)), replace(a), 39)
    assert calls == [True]


class _ReleaseCheckingOracle(_CountingOracle):
    """A counting oracle that logs in `alive`, at each `draw`, whether the
    draws that `previous` (a weak reference, once set) points to are alive."""

    def __init__(self):
        super().__init__()
        self.previous, self.alive = None, []

    def draw(self, rows, batch_size, shards=None):
        self.alive.append(self.previous is not None and self.previous() is not None)
        return super().draw(rows, batch_size, shards)


def test_the_held_block_is_released_before_the_next_block_is_drawn(monkeypatch):
    # Holding the old block while the next is drawn would double the cache's
    # peak memory.  Blocks of 8 iterations at L = 4.
    monkeypatch.setattr(simulation, "_ROW_BUDGET", 4 * 8)
    oracle, cfg = _ReleaseCheckingOracle(), _cfg(iterations=16)
    Phi = np.zeros((oracle.dimension, 4))
    gradient_matrix(oracle, Phi, cfg, 0)
    oracle.previous = weakref.ref(simulation._last_draws[2][1])
    gradient_matrix(oracle, Phi, cfg, 8)
    assert oracle.previous() is None
    assert (oracle.alive, oracle.calls) == ([False, False], [True, True])


class _EachBlockReleaseCheckingOracle(_ReleaseCheckingOracle):
    """A release-checking oracle whose `previous` points at each array its
    `draw` returns, so that any view of a block's draws keeps it alive."""

    def draw(self, rows, batch_size, shards=None):
        draws = super().draw(rows, batch_size, shards)
        self.previous = weakref.ref(draws)
        return draws


@pytest.mark.parametrize("strategy", list(Strategy))
def test_run_training_lets_go_of_each_block_before_it_draws_the_next(strategy, monkeypatch):
    # The loop's references to a block (its rows included) are dropped at the
    # block's end, so a run holds one block at its peak.  Blocks of 8
    # iterations at L = 4: a 24-iteration run draws three.
    monkeypatch.setattr(simulation, "_ROW_BUDGET", 4 * 8)
    oracle = _EachBlockReleaseCheckingOracle()
    run_training(strategy, oracle, _cfg(iterations=24))
    assert (oracle.alive, oracle.calls) == ([False] * 3, [True] * 3)


class _WritingOracle(_CountingOracle):
    """An oracle whose `gradients` scales its draws in place."""

    def gradients(self, Phi, draws, batch_size):
        draws *= 1.0
        return super().gradients(Phi, draws, batch_size)


def test_the_cached_gradient_draws_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        run_training(Strategy.DPSGD_FIXED, _WritingOracle(), _cfg())


def test_divergence_threshold_is_inclusive():
    # From zero weights at lr 1, d1d's first step leaves every weight at
    # exactly -value: the threshold itself is healthy, the next float is not.
    cfg = _cfg(iterations=1, lr=1.0, init_scale=0.0)
    above = np.nextafter(DIVERGENCE_THRESHOLD, np.inf)
    for value, diverged in ((DIVERGENCE_THRESHOLD, False), (above, True)):
        result = run_training(Strategy.D1D, _PoisonedOracle(value, at=0), cfg)
        assert result.diverged is diverged


def _ulps_around(x, n=3):
    """x and the n floats on each side of it, with both signs."""
    near = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(n):
            y = np.nextafter(y, direction)
            near.append(y)
    return [sign * float(v) for v in near for sign in (1.0, -1.0)]


# Weights where the sum of squares and the abs-max verdict could part: signed
# zeros, subnormals, the threshold and sqrt(_HEALTHY_SQUARES) to a few ulps,
# non-finite values and finite values whose squares overflow.
_EDGE_WEIGHTS = sorted({0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf,
                        1e200, -1e200, 1.7976931348623157e308,
                        *_ulps_around(DIVERGENCE_THRESHOLD),
                        *_ulps_around(math.sqrt(simulation._HEALTHY_SQUARES))}) + [math.nan]


@settings(max_examples=400, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), transpose=st.booleans(),
       scale=st.sampled_from([1.0, 1e10, 4e10, 1e11]), data=st.data())
def test_healthy_is_the_abs_max_verdict(shape, transpose, scale, data):
    # Healthy weights up to `scale`, whose squares may still sum past the
    # bound, with up to four set to an edge weight or to any float.
    size = shape[0] * shape[1]
    W = scale * np.array(data.draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size)))
    edge = st.one_of(st.sampled_from(_EDGE_WEIGHTS), st.floats(-2e12, 2e12), st.floats(width=64))
    for i in data.draw(st.lists(st.integers(0, size - 1), max_size=4)):
        W[i] = data.draw(edge)
    W = W.reshape(shape).T if transpose else W.reshape(shape)  # a non-contiguous view too
    want = bool(np.abs(W).max() <= DIVERGENCE_THRESHOLD)
    with np.errstate(over="ignore"):  # as the run loop calls it: a square may overflow
        assert simulation._healthy(W, np.empty_like(W)) is want


def test_healthy_takes_the_abs_max_pass_only_past_the_sum_of_squares_bound():
    near = math.sqrt(simulation._HEALTHY_SQUARES)
    with mock.patch.object(np, "abs", wraps=np.abs) as abs_:
        assert simulation._healthy(np.full((2, 2), near / 4), np.empty((2, 2)))
        assert not abs_.called
        assert simulation._healthy(np.full((2, 2), near), np.empty((2, 2)))
        assert abs_.call_count == 1


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("value", [math.nan, math.inf, 1e14])
def test_only_the_diverging_iteration_takes_the_abs_max_pass(strategy, value):
    # np.abs is called by `_healthy`'s exact pass alone on a quadratic run.
    with mock.patch.object(np, "abs", wraps=np.abs) as abs_:
        healthy = run_training(strategy, _oracle(), _cfg(iterations=40))
        assert not healthy.diverged and not abs_.called
        result = run_training(strategy, _PoisonedOracle(value, at=5), _cfg(iterations=10))
    assert result.diverged and result.state.iteration == 5
    assert abs_.call_count == 1
    exploded = abs_.call_args.args[0]  # the buffer iteration 5 wrote into
    assert not np.abs(exploded).max() <= DIVERGENCE_THRESHOLD


_STRAGGLER = CostModel(compute_scale=(1.7976931348623157e308, 1, 1, 1))
# A straggler whose factor times its compute time overflows as it is drawn.
_OVERFLOWING_STRAGGLER = replace(_STRAGGLER, compute_mu=1.0)


@pytest.mark.parametrize("cost_model, strategy, iteration, total", [
    (_STRAGGLER, Strategy.D1D, 11, "sim_time_s"),
    (CostModel(compute_sigma=1e300), Strategy.D1D, 1, "sim_time_s"),
    (_OVERFLOWING_STRAGGLER, Strategy.D1D, 1, "sim_time_s"),
    # Gossip records the mean over learners, so sim_time_s stays finite
    # while the straggler's own compute total overflows.
    (_STRAGGLER, Strategy.DPSGD_FIXED, 11, "compute_time_s[0]"),
    (_STRAGGLER, Strategy.ADPSGD_FIXED, 11, "compute_time_s[0]"),
    (_STRAGGLER, Strategy.RAND_PSGD, 11, "compute_time_s[0]"),
], ids=["straggler_factor_max_float", "compute_sigma_1e300", "straggler_overflowing_as_drawn",
        "straggler_dpsgd_fixed", "straggler_adpsgd_fixed", "straggler_rand_psgd"])
def test_run_training_rejects_an_overflowed_clock(cost_model, strategy, iteration, total):
    cfg = _cfg(iterations=12, cost_model=cost_model)
    message = rf"^simulated clock overflowed at iteration {iteration}: {re.escape(total)} = inf$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            run_training(strategy, _oracle(), cfg)
        if iteration > 1:
            # One iteration fewer, every clock total is still finite and the run completes.
            state = run_training(strategy, _oracle(), replace(cfg, iterations=iteration - 1)).state
            assert state.sim_time_s < math.inf and state.compute_time_s.max() < math.inf


@pytest.mark.parametrize("cost_model", [_STRAGGLER, _OVERFLOWING_STRAGGLER],
                         ids=["straggler", "overflowing_straggler"])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_steps_and_gradient_matrix_draw_a_straggler_clock_without_a_warning(strategy, cost_model):
    # _block draws the clock's compute times with the gradient draws, so
    # stepping and gradient_matrix draw them too, under the same errstate.
    cfg = _cfg(iterations=12, cost_model=cost_model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gradient_matrix(_oracle(), np.zeros((6, 4)), cfg, 11)  # a new oracle: a miss
        oracle = _oracle()
        state = initial_state(oracle, cfg)
        for _ in range(cfg.iterations):
            state = _STEPS[strategy](state, oracle, cfg)
    if cost_model is _OVERFLOWING_STRAGGLER:
        assert np.isinf(simulation._last_draws[2][2][:, 0]).all()  # the draw overflowed


@pytest.mark.parametrize("strategy", list(Strategy))
def test_a_quadratic_with_a_largest_float_noise_scale_diverges_without_a_warning(strategy):
    # Its draw overflows as _block scales it; the run diverges at its first update.
    oracle = quadratic_oracle(dimension=6, condition_number=10.0, noise_scale=1e308, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_training(strategy, oracle, _cfg(batch_size=1))
    assert np.isinf(simulation._last_draws[2][1]).any()
    assert result.diverged and result.state.iteration == 0 and result.records == ()


@pytest.mark.parametrize("strategy, total", [
    (Strategy.D1D, "sim_time_s"), (Strategy.DPSGD_FIXED, "compute_time_s[0]"),
    (Strategy.RAND_PSGD, "compute_time_s[0]")])
@pytest.mark.parametrize("budget", [None, 4 * 8, 4 * 11, 4])
def test_divergence_wins_over_a_clock_overflow_only_at_an_earlier_iteration(
        strategy, total, budget, monkeypatch):
    # _STRAGGLER's clock overflows at iteration 11.  The update of iteration
    # 11 is poisoned at call 10 (the run diverges first) and healthy at call
    # 11 (the overflow is raised), whichever stream block iteration 11 is in.
    if budget is not None:
        monkeypatch.setattr(simulation, "_ROW_BUDGET", budget)
    cfg = _cfg(iterations=12, cost_model=_STRAGGLER)
    result = run_training(strategy, _PoisonedOracle(math.nan, at=10), cfg)
    assert result.diverged and result.state.iteration == 10
    message = rf"^simulated clock overflowed at iteration 11: {re.escape(total)} = inf$"
    with pytest.raises(ValueError, match=message):
        run_training(strategy, _PoisonedOracle(math.nan, at=11), cfg)


def test_an_overflowing_run_does_no_update_after_its_overflow_iteration(monkeypatch):
    # The clock is judged before a block's iterations run: the 1000-iteration
    # run, healthy but for its clock, stops at the iteration that overflows.
    oracle = _oracle(d=32)
    gradients = mock.Mock(wraps=oracle.gradients)
    monkeypatch.setattr(oracle, "gradients", gradients)
    cfg = _cfg(iterations=1000, lr=0.01, seed=3, cost_model=_STRAGGLER)
    message = r"^simulated clock overflowed at iteration 11: compute_time_s\[0\] = inf$"
    with pytest.raises(ValueError, match=message):
        run_training(Strategy.DPSGD_FIXED, oracle, cfg)
    assert gradients.call_count == 11


def test_sharded_logistic_run_completes():
    oracle = logistic_oracle(dimension=5, n_samples=48, separation=2.0, seed=3)
    cfg = _cfg(n_learners=4, iterations=20, lr=0.5, batch_size=4, data_partition="sharded")
    result = run_training(Strategy.RAND_PSGD, oracle, cfg)
    assert not result.diverged
    assert result.records[-1].mean_loss < result.records[0].mean_loss
    shared = run_training(
        Strategy.RAND_PSGD,
        oracle,
        _cfg(n_learners=4, iterations=20, lr=0.5, batch_size=4, data_partition="shared"),
    )
    assert shared.records[-1].mean_loss != result.records[-1].mean_loss


def test_homogeneous_clock_ratio_matches_closed_form():
    # With near-constant compute c and fast links, a barrier round costs
    # c + allreduce while a gossip round costs c, so the ratio is
    # (c + 0.0132) / c for the default link model.
    oracle = _oracle()
    cm = CostModel(compute_mu=float(np.log(2.0)), compute_sigma=1e-4)
    cfg = _cfg(n_learners=16, iterations=150, batch_size=2, log_every=150, cost_model=cm)
    t_d1d = run_training(Strategy.D1D, oracle, cfg).state.sim_time_s
    t_rand = run_training(Strategy.RAND_PSGD, oracle, cfg).state.sim_time_s
    assert t_d1d > t_rand
    assert t_d1d / t_rand == pytest.approx(2.0132 / 2.0, rel=1e-2)


def test_run_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_learners=0)
    with pytest.raises(ValueError):
        _cfg(iterations=0)
    with pytest.raises(ValueError):
        _cfg(lr=-0.1)
    with pytest.raises(ValueError):
        _cfg(batch_size=0)
    with pytest.raises(ValueError):
        _cfg(warmup_iters=-1)
    with pytest.raises(ValueError):
        _cfg(staleness_mode="later")
    with pytest.raises(ValueError):
        _cfg(init_scale=-1.0)
    with pytest.raises(ValueError):
        _cfg(data_partition="split")
    with pytest.raises(ValueError):
        _cfg(log_every=0)
    with pytest.raises(ValueError, match="seed: must be >= 0"):
        _cfg(seed=-1)
    for key in ("lr", "init_scale"):
        with pytest.raises(ValueError):
            _cfg(**{key: math.nan})
    assert _cfg(lr=0.0).lr == 0.0
    with pytest.raises(ValueError, match="lr: must be finite"):
        _cfg(lr=math.inf)
    for key in ("lr", "init_scale"):
        with pytest.raises(ValueError, match=f"^{key}: must be finite$"):
            _cfg(**{key: 10**400})
    assert _cfg(seed=10**400).seed == 10**400  # an int field takes any size
    with pytest.raises(ValueError, match="^cost_model: expected CostModel, got None$"):
        _cfg(cost_model=None)


# Every checked argument: (name, kind, check, build), where build(value)
# calls with that one value and every other argument valid.  RunConfig's and
# CostModel's are read from their `_checked` fields; the rest are the
# arguments that the oracles, mixing, spectral and seeding check.
_ARGUMENTS = [
    (f.name, typing.get_type_hints(cls)[f.name], f.metadata["check"],
     lambda v, build=build, name=f.name: build(**{name: v}))
    for cls, build in ((RunConfig, _cfg), (CostModel, CostModel))
    for f in fields(cls) if "check" in f.metadata
] + [
    ("dimension", int, ">= 1", lambda v: quadratic_oracle(v)),
    ("condition_number", float, ">= 1", lambda v: quadratic_oracle(3, condition_number=v)),
    ("noise_scale", float, ">= 0", lambda v: quadratic_oracle(3, noise_scale=v)),
    ("dimension", int, ">= 1", lambda v: logistic_oracle(v, 8, 1.0)),
    ("n_samples", int, ">= 2", lambda v: logistic_oracle(3, v, 1.0)),
    ("separation", float, ">= 0", lambda v: logistic_oracle(3, 8, v)),
    ("ridge", float, ">= 0", lambda v: logistic_oracle(3, 8, 1.0, ridge=v)),
    ("batch_size", int, ">= 1",
     lambda v: quadratic_oracle(3, noise_scale=1.0).stochastic_gradient(np.zeros(3), stream(0), v)),
    ("batch_size", int, ">= 1",
     lambda v: logistic_oracle(3, 8, 1.0).stochastic_gradient(np.zeros(3), stream(0), v)),
    ("n_learners", int, ">= 3", lambda v: build_ring_matrix(v)),
    ("n_learners", int, ">= 1", lambda v: build_uniform_matrix(v)),
    ("n", int, ">= 1", lambda v: sample_permutation(v, stream(0))),
    ("n_learners", int, ">= 3", lambda v: second_eigenvalue_ring(v)),
    ("k", int, ">= 0", lambda v: fixed_mixing_consensus_bound(8, v)),
    ("k_max", int, ">= 1", lambda v: fixed_consensus_curve(8, v)),
    ("k_max", int, ">= 1", lambda v: monte_carlo_consensus(8, v, 2, 0)),
    ("trials", int, ">= 2", lambda v: monte_carlo_consensus(8, 2, v, 0)),
    ("seed", int, ">= 0", lambda v: monte_carlo_consensus(8, 2, 2, v)),
    ("norm_kind", str, ("spectral", "frobenius"),
     lambda v: monte_carlo_consensus(8, 2, 2, 0, v)),
    ("entropy", int, ">= 0", lambda v: stream(v)),
]
_WRONG_KIND = {int: [2.5, -2.5, 5.0, np.float64(3.0), True, np.True_, "5", None],
               float: [True, False, np.True_, "1.0", None],
               str: [5, 1.5, True, None]}
_NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def test_checked_arguments_cover_both_dataclasses_and_both_factories():
    # RunConfig declares 10 checked fields and CostModel 4, compute_mu included;
    # the oracles check 9 arguments, mixing 3, spectral 7 and seeding 1.
    names = {name for name, *_ in _ARGUMENTS}
    assert {"n_learners", "batch_size", "log_every", "staleness_mode", "compute_mu",
            "compute_sigma", "n_samples", "ridge", "k", "norm_kind", "entropy"} <= names
    assert len(_ARGUMENTS) == 10 + 4 + 9 + 3 + 7 + 1


@settings(max_examples=300, deadline=None)
@given(argument=st.sampled_from(_ARGUMENTS), data=st.data())
def test_every_checked_argument_checks_kind_then_range_then_finiteness(argument, data):
    name, kind, check, build = argument
    wrong = data.draw(st.sampled_from(_WRONG_KIND[kind]), label="wrong")
    message = f"^{re.escape(name)}: expected {kind.__name__}, got {re.escape(repr(wrong))}$"
    with pytest.raises(ValueError, match=message):
        build(wrong)
    if kind is str:
        return
    # A float's range comes before its finiteness: -inf fails the range if any.
    if kind is float:
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: must be "
                                             f"{re.escape(check) if check else 'finite'}$"):
            build(-math.inf)
    # A numpy scalar of a value in range is accepted, and no numpy warning fires.
    low = 0 if check is None else int(float(check.split()[1])) + 1
    value = low + data.draw(st.integers(0, 5), label="offset")
    scalar = data.draw(st.sampled_from(_NUMPY_INTS + [np.float16, np.float32, np.float64]
                                       if kind is float else _NUMPY_INTS), label="type")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = build(scalar(value))
        if kind is float:
            for too_large in (10**400, np.float32("inf"), np.float64("inf")):
                with pytest.raises(ValueError, match=f"^{re.escape(name)}: must be finite$"):
                    build(too_large)
    # Held as its Python equal; the oracles hold their float arguments as floats.
    if hasattr(built, name):
        held = getattr(built, name)
        assert held == value
        python_type = float if name in ("noise_scale", "ridge") else type(scalar(value).item())
        assert type(held) is python_type


@settings(max_examples=10, deadline=None)
@given(strategy=st.sampled_from(list(Strategy)), scalar=st.sampled_from(_NUMPY_INTS))
def test_a_numpy_learner_count_runs_byte_identical(strategy, scalar):
    oracle = _oracle(d=4)
    plain, numpy = (run_training(strategy, oracle, _cfg(n_learners=L, iterations=6))
                    for L in (32, scalar(32)))
    assert pickle.dumps((plain.records, plain.state)) == pickle.dumps((numpy.records, numpy.state))


def test_run_config_rejects_a_compute_scale_of_another_length():
    # CostModel does not know L; RunConfig does, so the mismatch fails at
    # construction, not at the first clock draw.
    for scale in ((1.0, 2.0, 1.0), (1.0,) * 5):
        message = rf"^cost_model.compute_scale: has {len(scale)} entries, expected n_learners = 4$"
        with pytest.raises(ValueError, match=message):
            _cfg(n_learners=4, cost_model=CostModel(compute_scale=scale))
    assert _cfg(n_learners=4, cost_model=CostModel(compute_scale=np.ones(4))).n_learners == 4
