import numpy as np
import pytest

from ringmix.mixing import apply_mixing, build_uniform_matrix, permutation_for_step
from ringmix.objectives import BatchDescriptor, logistic_oracle, quadratic_oracle
from ringmix.seeding import TAG_CLOCK, TAG_GRADIENT, stream
from ringmix.simulation import (
    CostModel,
    RunConfig,
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
from ringmix.spectral import second_eigenvalue_ring


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


@pytest.mark.parametrize("partition", ["shared", "sharded"])
def test_gradient_matrix_equals_per_learner_streams_across_blocks(partition):
    # gradient_matrix derives its learners' states a block of iterations at
    # a time; per-learner BatchDescriptor streams are the reference.
    cfg = _cfg(n_learners=3, seed=2**40 + 1, data_partition=partition)
    Phi = stream(8, 0).standard_normal((4, 3))
    for oracle in (_oracle(d=4), logistic_oracle(dimension=4, n_samples=30, separation=1.0)):
        for k in (0, 63, 64, 130, 63):
            expected = np.stack(
                [
                    oracle.stochastic_gradient(
                        Phi[:, l],
                        BatchDescriptor(cfg.batch_size, (cfg.seed, TAG_GRADIENT, k, l)),
                        (l, 3) if partition == "sharded" else None,
                    )
                    for l in range(3)
                ],
                axis=1,
            )
            assert np.array_equal(gradient_matrix(oracle, Phi, cfg, k), expected)


def test_spsgd_matches_hand_rolled_update():
    oracle = _oracle()
    cfg = _cfg()
    state = initial_state(oracle, cfg)
    w = state.weights[:, 0].copy()
    for k in range(3):
        state = step_spsgd(state, oracle, cfg)
        G = np.stack(
            [
                oracle.stochastic_gradient(
                    w, BatchDescriptor(cfg.batch_size, (cfg.seed, TAG_GRADIENT, k, l))
                )
                for l in range(cfg.n_learners)
            ],
            axis=1,
        )
        w = w - cfg.lr * G.mean(axis=1)
        assert np.all(state.weights == state.weights[:, :1])
        assert np.allclose(state.weights[:, 0], w, rtol=0, atol=1e-15)


def test_spsgd_rejects_disagreeing_learners():
    oracle = _oracle()
    cfg = _cfg()
    state = initial_state(oracle, cfg)
    state.weights[0, 1] += 1.0
    with pytest.raises(ValueError):
        step_spsgd(state, oracle, cfg)


def test_dpsgd_l3_first_step_bitwise_equals_d1d():
    # The three-learner ring weights equal the uniform weights entry for
    # entry, so both strategies take the exact column-mean path and the
    # shared gradient streams make the first step bitwise identical.
    oracle = _oracle()
    cfg = _cfg(n_learners=3)
    a = step_dpsgd_fixed(initial_state(oracle, cfg), oracle, cfg)
    b = step_d1d(initial_state(oracle, cfg), oracle, cfg)
    assert np.array_equal(a.weights, b.weights)


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


def test_rand_psgd_staleness_override():
    oracle = _oracle()
    cfg = _cfg(n_learners=5, staleness_mode="async")
    s1 = step_rand_psgd(initial_state(oracle, cfg), oracle, cfg)
    a = step_rand_psgd(s1, oracle, cfg, staleness_mode="sync")
    b = step_rand_psgd(s1, oracle, cfg, staleness_mode="async")
    assert not np.array_equal(a.weights, b.weights)
    with pytest.raises(ValueError):
        step_rand_psgd(s1, oracle, cfg, staleness_mode="eventually")


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


def test_mixing_preserves_learner_average():
    oracle = _oracle(noise=2.0)
    cfg = _cfg(n_learners=6)
    for step in (step_dpsgd_fixed, step_adpsgd_fixed, step_rand_psgd, step_d1d):
        state = initial_state(oracle, cfg)
        for _ in range(5):
            before = state.weights.mean(axis=1)
            new = step(state, oracle, cfg)
            moved = new.weights.mean(axis=1)
            expected = before - cfg.lr * new.last_gradients.mean(axis=1)
            assert np.allclose(moved, expected, rtol=0, atol=1e-12)
            state = new


def test_cost_model_values_and_validation():
    cm = CostModel()
    assert cm.comm_times(4) == pytest.approx(np.full(4, 2 * 165e6 / 25e9), rel=1e-15)
    assert cm.allreduce_time(4) == pytest.approx(0.0132, rel=1e-12)
    with pytest.raises(ValueError):
        CostModel(message_size_bytes=0.0)
    with pytest.raises(ValueError):
        CostModel(bandwidth_bytes_per_s=-1.0)
    with pytest.raises(ValueError):
        CostModel(compute_sigma=-0.1)
    with pytest.raises(ValueError):
        CostModel(compute_scale=(1.0, 0.0))
    cm2 = CostModel(compute_scale=(1.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        cm2.sample_compute_times(4, stream(0, TAG_CLOCK, 0))


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
    expected = np.maximum(rng_draw, cm.comm_times(4)).mean()
    assert dt_g == pytest.approx(expected, rel=1e-15)
    assert gossip.sim_time_s == pytest.approx(dt_g, rel=1e-15)


def test_mixing_rho_per_strategy():
    assert mixing_rho(Strategy.SPSGD, 16) == 0.0
    assert mixing_rho(Strategy.D1D, 16) == 0.0
    rho = second_eigenvalue_ring(16)
    for s in (Strategy.DPSGD_FIXED, Strategy.ADPSGD_FIXED, Strategy.RAND_PSGD):
        assert mixing_rho(s, 16) == rho


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


def test_run_training_divergence_keeps_partial_trace():
    oracle = _oracle(noise=0.5)
    cfg = _cfg(n_learners=4, iterations=100, lr=50.0, log_every=1)
    result = run_training(Strategy.DPSGD_FIXED, oracle, cfg)
    assert result.diverged
    assert len(result.records) < 100
    for r in result.records:
        assert np.isfinite(r.mean_loss)
        assert np.isfinite(r.consensus_dist)
    assert np.all(np.abs(result.state.weights) <= cfg.divergence_threshold)


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
    with pytest.raises(ValueError):
        _cfg(divergence_threshold=0.0)
    assert _cfg(lr=0.0).lr == 0.0
