"""Slow references of the optimized paths: `simulation.run_training` and
the stacked logistic gradients, one learner at a time, the Monte Carlo
trials of `spectral`, one trial and one step at a time, and the oracles'
losses and the consensus distance, one model at a time.

They are built from the per-stream pieces (public, except the logistic
`_sample_indices` and `_sigmoid`) and follow the docstrings, not the
optimized code:

- learner l's gradient at iteration k is `stochastic_gradient` of its own
  column on the stream `seeding.stream(seed, TAG_GRADIENT, k, l)`
  (`gradient_matrix`);
- a logistic minibatch gradient is written out by hand, one learner at a
  time, from `_sample_indices` (`logistic_gradients`);
- rand_psgd mixes with `conjugate_by_permutation(T0, permutation_for_step
  (L, seed, k))`, and every mixing goes through `apply_mixing`;
- iteration k's clock is `advance_clock` on `stream(seed, TAG_CLOCK, k)`;
- Monte Carlo trial t relabels the ring by `sample_permutation` on its own
  stream `stream(seed, TAG_TRIAL, t)`;
- a trace record takes each statistic of one logged model at a time, by
  the one-model expressions (`loss`, `loss_columns`, `consensus_distance`)
  that the library had before it took stacks.

Tests compare them with the optimized paths byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from ringmix import seeding
from ringmix.mixing import (
    apply_mixing,
    build_ring_matrix,
    build_uniform_matrix,
    conjugate_by_permutation,
    permutation_for_step,
    sample_permutation,
)
from ringmix.objectives import _sigmoid
from ringmix.simulation import (
    DIVERGENCE_THRESHOLD,
    RunResult,
    SimState,
    TraceRecord,
    advance_clock,
)
from ringmix.spectral import frobenius_norm, second_eigenvalue_ring, spectral_norm


def gradient_matrix(oracle, Phi, cfg, k):
    """Each learner's stochastic gradient at its column of Phi at iteration
    k, one by one."""
    L = cfg.n_learners
    columns = []
    for l in range(L):
        rng = seeding.stream(cfg.seed, seeding.TAG_GRADIENT, k, l)
        shard = (l, L) if cfg.data_partition == "sharded" else None
        columns.append(oracle.stochastic_gradient(Phi[:, l], rng, cfg.batch_size, shard))
    return np.stack(columns, axis=1)


def logistic_gradients(oracle, Phi, batch_size, rngs, shards=None):
    """A logistic oracle's minibatch gradients of the columns of Phi as a
    learner-by-learner loop, column l sampling with the l-th rng from the
    l-th shard: the reference the stacked `gradients` must match bit for bit."""
    Phi = np.asarray(Phi, dtype=float)
    G = np.empty_like(Phi)
    if shards is None:
        shards = [None] * Phi.shape[1]
    for l, (rng, shard) in enumerate(zip(rngs, shards, strict=True)):
        w = Phi[:, l]
        picks = oracle._sample_indices(rng, batch_size, shard)
        X = oracle.features[picks]
        y = oracle.labels[picks]
        margins = y * (X @ w)
        coeff = -y * _sigmoid(-margins)
        G[:, l] = (X.T @ coeff) / batch_size + oracle.ridge * w
    return G


def loss(oracle, w):
    """One model's full-batch loss, as a float, by the expressions the
    oracles used before their losses broadcast over stacks."""
    w = np.asarray(w, dtype=float)
    if hasattr(oracle, "eigenvalues"):
        dev = w - oracle.optimum
        return 0.5 * float(np.sum(oracle.eigenvalues * dev * dev))
    margins = oracle.labels * (oracle.features @ w)
    data_term = float(np.mean(np.logaddexp(0.0, -margins)))
    return data_term + 0.5 * oracle.ridge * float(np.dot(w, w))


def loss_columns(oracle, W):
    """Each column's full-batch loss of one (d, L) matrix, by the same
    earlier expressions as `loss`."""
    if hasattr(oracle, "eigenvalues"):
        dev = W - oracle.optimum[:, None]
        return 0.5 * np.einsum("i,il,il->l", oracle.eigenvalues, dev, dev)
    margins = oracle.labels[:, None] * (oracle.features @ W)
    data_term = np.mean(np.logaddexp(0.0, -margins), axis=0)
    return data_term + 0.5 * oracle.ridge * np.einsum("il,il->l", W, W)


def consensus_distance(W):
    """One (d, L) model's consensus distance, by the expression
    `simulation.consensus_distance` had before it took stacks."""
    dev = W - W.mean(axis=1, keepdims=True)
    return float(np.sqrt((dev * dev).sum(axis=0).max()))


def _record(oracle, W, iteration, sim_time_s, rho):
    return TraceRecord(
        iteration=iteration,
        sim_time_s=sim_time_s,
        mean_loss=float(loss_columns(oracle, W).mean()),
        avg_model_loss=float(loss(oracle, W.mean(axis=1))),
        consensus_dist=consensus_distance(W),
        rho=rho,
    )


def run_training(strategy, oracle, cfg) -> RunResult:
    """What `simulation.run_training` returns, or the ValueError it raises."""
    L = cfg.n_learners
    w0 = cfg.init_scale * seeding.stream(cfg.seed, seeding.TAG_INIT).standard_normal(
        oracle.dimension
    )
    W = np.tile(w0[:, None], (1, L))
    state = SimState(W, W.copy(), 0, np.zeros(L))
    rho = second_eigenvalue_ring(L) if strategy.value in ("dpsgd_fixed", "adpsgd_fixed",
                                                          "rand_psgd") else 0.0
    stale = strategy.value in ("adpsgd_fixed", "d1d") or (
        strategy.value == "rand_psgd" and cfg.staleness_mode == "async")
    records, diverged = [], False
    for k in range(cfg.iterations):
        G = gradient_matrix(oracle, state.prev_weights if stale else state.weights, cfg, k)
        lr = cfg.lr * (k + 1) / cfg.warmup_iters if k < cfg.warmup_iters else cfg.lr
        W = state.weights
        with np.errstate(over="ignore", invalid="ignore"):
            if strategy.value == "spsgd":
                W_next = W - lr * G.mean(axis=1, keepdims=True)
            elif strategy.value == "d1d":
                W_next = apply_mixing(W, build_uniform_matrix(L)) - lr * G
            else:
                T = build_ring_matrix(L)
                if strategy.value == "rand_psgd":
                    T = conjugate_by_permutation(T, permutation_for_step(L, cfg.seed, k))
                W_next = apply_mixing(W, T) - lr * G
        if not np.all(np.abs(W_next) <= DIVERGENCE_THRESHOLD):
            diverged = True
            break
        with np.errstate(over="ignore", invalid="ignore"):
            clock = seeding.stream(cfg.seed, seeding.TAG_CLOCK, k)
            state, _ = advance_clock(state, strategy, cfg.cost_model, clock)
        if not math.isfinite(state.sim_time_s):
            raise ValueError(f"simulated clock overflowed at iteration {k + 1}: "
                             f"sim_time_s = {state.sim_time_s}")
        for l, total in enumerate(state.compute_time_s):
            if not math.isfinite(total):
                raise ValueError(f"simulated clock overflowed at iteration {k + 1}: "
                                 f"compute_time_s[{l}] = {total}")
        state.weights, state.prev_weights = W_next, W
        state.iteration, state.last_gradients = k + 1, G
        if state.iteration % cfg.log_every == 0:
            records.append(_record(oracle, W_next, state.iteration, state.sim_time_s, rho))
    if state.iteration != (records[-1].iteration if records else 0):
        records.append(_record(oracle, state.weights, state.iteration, state.sim_time_s, rho))
    return RunResult(records=tuple(records), diverged=diverged, state=state)


def trial_distances(L, k_max, trials, seed, norm_kind):
    """Each Monte Carlo trial's distance from consensus after each step,
    shaped (trials, k_max): one trial, one step and one 2-d norm at a time."""
    T0 = build_ring_matrix(L)
    U = build_uniform_matrix(L)
    measure = spectral_norm if norm_kind == "spectral" else frobenius_norm
    values = np.empty((trials, k_max))
    for t in range(trials):
        rng = seeding.stream(seed, seeding.TAG_TRIAL, t)
        product = np.eye(L)
        for k in range(k_max):
            Tk = conjugate_by_permutation(T0, sample_permutation(L, rng))
            product = product @ Tk
            values[t, k] = measure(product - U)
    return values
