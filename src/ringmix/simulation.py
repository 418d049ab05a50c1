"""Decentralized SGD strategies on a simulated cluster clock.

Five training strategies over L learners holding a d x L weights
matrix W (one column per learner):

- SPSGD: synchronous SGD; one shared model, gradients averaged over
  all learners each step (effective batch L x per-learner batch).
- DPSGD_FIXED: fixed-ring gossip, synchronous gradients,
  W_{k+1} = W_k T0 - lr G(W_k).
- ADPSGD_FIXED: fixed-ring gossip with one-step-stale gradients,
  W_{k+1} = W_k T0 - lr G(W_{k-1}).  Staleness models asynchrony:
  gradient computation overlaps communication, so the gradient a
  learner applies was computed on the previous model.
- RAND_PSGD: the ring is relabelled by a fresh uniform permutation
  every iteration, derived by every learner from a shared seed (no
  coordination needed); staleness selectable sync/async.
- D1D: delay-one uniform averaging; W_k is averaged exactly to the
  column mean (allreduce) while gradients are computed on W_{k-1},
  concurrently: W_{k+1} = mean(W_k) - lr G(W_{k-1}).

All strategies share the minibatch noise streams: two strategies run
with the same config and seed draw identical gradients at the same
(iteration, learner), which makes paired comparisons sharp and
equivalence tests exact.

The simulated clock follows a simple cost model: per-learner compute
times are lognormal (with optional per-learner slowdown factors), a
model exchange costs 2 x message_size / bandwidth.  Barrier
strategies (SPSGD, D1D) pay the slowest learner plus an allreduce
bounded by the slowest link; gossip strategies overlap compute and
communication per learner and pay the mean over learners, so a single
straggler is amortized instead of serializing everyone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import seeding
from .mixing import apply_mixing, build_ring_matrix, build_uniform_matrix, sample_permutation
from .spectral import second_eigenvalue_ring


class Strategy(Enum):
    SPSGD = "spsgd"
    DPSGD_FIXED = "dpsgd_fixed"
    ADPSGD_FIXED = "adpsgd_fixed"
    RAND_PSGD = "rand_psgd"
    D1D = "d1d"

    @property
    def uses_ring(self) -> bool:
        """True if the strategy gossips over a ring and pays its spectral gap;
        False if it averages exactly behind a barrier (SPSGD, D1D)."""
        return self not in (Strategy.SPSGD, Strategy.D1D)


# Stable small integers for seed derivation; never renumber.
STRATEGY_IDS = {
    Strategy.SPSGD: 0,
    Strategy.DPSGD_FIXED: 1,
    Strategy.ADPSGD_FIXED: 2,
    Strategy.RAND_PSGD: 3,
    Strategy.D1D: 4,
}


# A run diverges when its weights go non-finite or any magnitude exceeds this.
DIVERGENCE_THRESHOLD = 1e12


@dataclass(frozen=True, eq=False)
class CostModel:
    """Per-iteration timing model.

    compute: per-learner gradient time ~ lognormal(compute_mu,
    compute_sigma) seconds, optionally scaled per learner by
    compute_scale (a 10x straggler is compute_scale[i] = 10).
    communication: sending one model costs message_size_bytes /
    bandwidth; an exchange (send + receive) costs twice that.
    """

    message_size_bytes: float = 165e6
    bandwidth_bytes_per_s: float = 25e9
    compute_mu: float = math.log(0.1)
    compute_sigma: float = 0.1
    compute_scale: np.ndarray | None = None

    def __post_init__(self):
        # Each check passes only when its bound holds, so NaN fails.
        if not self.message_size_bytes > 0:
            raise ValueError("message_size_bytes must be > 0")
        if not self.bandwidth_bytes_per_s > 0:
            raise ValueError("bandwidth must be strictly positive")
        if not self.compute_sigma >= 0:
            raise ValueError("compute_sigma must be >= 0")
        if self.compute_scale is not None and not np.all(np.asarray(self.compute_scale) > 0):
            raise ValueError("compute_scale entries must be strictly positive")

    def comm_times(self, n_learners: int) -> np.ndarray:
        """Per-learner exchange time: 2 x message / bandwidth."""
        return np.full(n_learners, 2.0 * self.message_size_bytes / self.bandwidth_bytes_per_s)

    def allreduce_time(self, n_learners: int) -> float:
        """Global allreduce: one exchange over the (uniform) link bandwidth."""
        return float(2.0 * self.message_size_bytes / self.bandwidth_bytes_per_s)

    def sample_compute_times(self, n_learners: int, rng: np.random.Generator) -> np.ndarray:
        times = rng.lognormal(self.compute_mu, self.compute_sigma, n_learners)
        if self.compute_scale is not None:
            scale = np.asarray(self.compute_scale, dtype=float)
            if scale.shape != (n_learners,):
                raise ValueError(
                    f"compute_scale has length {len(scale)}, expected {n_learners}"
                )
            times = times * scale
        return times


@dataclass(frozen=True)
class TraceRecord:
    """One logged point of a training run.

    mean_loss: full-batch loss averaged over learners, each evaluated
    at its own column.  avg_model_loss: full-batch loss of the
    column-mean model.  consensus_dist: max over learners of
    ||w_l - mean||_2.  rho: second-largest eigenvalue magnitude of the
    run's mixing matrix (0 for strategies that average exactly).
    """

    iteration: int
    sim_time_s: float
    mean_loss: float
    avg_model_loss: float
    consensus_dist: float
    rho: float


@dataclass
class SimState:
    """Mutable simulation state: weights, staleness source, clocks."""

    weights: np.ndarray        # (d, L)
    prev_weights: np.ndarray   # (d, L): the one-step-stale model
    iteration: int
    compute_time_s: np.ndarray  # (L,) accumulated per-learner compute seconds
    sim_time_s: float = 0.0
    last_gradients: np.ndarray | None = None


@dataclass(frozen=True)
class RunConfig:
    """Per-run parameters; a run is a pure function of (config, oracle)."""

    n_learners: int
    iterations: int
    lr: float
    batch_size: int                 # per learner
    seed: int
    warmup_iters: int = 0           # linear warmup to lr; 0 disables
    staleness_mode: str = "async"   # RAND_PSGD only: "sync" | "async"
    init_scale: float = 1.0
    data_partition: str = "shared"  # "shared" | "sharded"
    log_every: int = 1
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        # Float checks pass only when their bound holds, so NaN fails.
        if self.n_learners < 1:
            raise ValueError("n_learners must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.lr >= 0:
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.warmup_iters < 0:
            raise ValueError("warmup_iters must be >= 0")
        if self.staleness_mode not in ("sync", "async"):
            raise ValueError(f"staleness_mode must be sync|async, got {self.staleness_mode!r}")
        if not self.init_scale >= 0:
            raise ValueError("init_scale must be >= 0")
        if self.data_partition not in ("shared", "sharded"):
            raise ValueError(
                f"data_partition must be shared|sharded, got {self.data_partition!r}"
            )
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass(frozen=True)
class RunResult:
    records: tuple[TraceRecord, ...]
    diverged: bool
    state: SimState


def initial_state(oracle, cfg: RunConfig) -> SimState:
    """Broadcast start: every learner holds the same drawn model."""
    w0 = cfg.init_scale * seeding.stream(cfg.seed, seeding.TAG_INIT).standard_normal(
        oracle.dimension
    )
    W = np.tile(w0[:, None], (1, cfg.n_learners))
    return SimState(
        weights=W,
        prev_weights=W.copy(),
        iteration=0,
        compute_time_s=np.zeros(cfg.n_learners),
    )


def learning_rate(cfg: RunConfig, k: int) -> float:
    """Constant lr, optionally ramped linearly over the first warmup_iters steps."""
    if cfg.warmup_iters > 0 and k < cfg.warmup_iters:
        return cfg.lr * (k + 1) / cfg.warmup_iters
    return cfg.lr


# Iterations whose stream states are derived together; one block is cached.
_BLOCK = 64


@functools.lru_cache(maxsize=1)
def _stream_block(seed: int, n_learners: int, block: int) -> dict[int, np.ndarray]:
    """Seed words of the streams of iterations block*_BLOCK up to the next block.

    By tag: (seed, TAG_GRADIENT, k, l) for every learner l, shaped
    (_BLOCK, n_learners, 4), and (seed, TAG_CLOCK, k) and
    (seed, TAG_PERMUTATION, k), shaped (_BLOCK, 1, 4).
    """
    k = np.arange(block * _BLOCK, (block + 1) * _BLOCK)
    learner_rows = np.stack(np.meshgrid(k, np.arange(n_learners), indexing="ij"), axis=-1)
    words = {
        seeding.TAG_GRADIENT: seeding.seed_words(
            (seed, seeding.TAG_GRADIENT), learner_rows.reshape(-1, 2)
        ).reshape(_BLOCK, n_learners, 4),
    }
    for tag in (seeding.TAG_CLOCK, seeding.TAG_PERMUTATION):
        words[tag] = seeding.seed_words((seed, tag), k[:, None]).reshape(_BLOCK, 1, 4)
    for w in words.values():
        w.setflags(write=False)
    return words


def _stream_words(seed: int, n_learners: int, tag: int, k: int) -> np.ndarray:
    """Seed words (n, 4) of iteration k's streams under `tag`: row l seeds
    the stream of seeding.stream(seed, tag, k[, l])."""
    return _stream_block(seed, n_learners, k // _BLOCK)[tag][k % _BLOCK]


def gradient_matrix(oracle, Phi: np.ndarray, cfg: RunConfig, k: int) -> np.ndarray:
    """Stochastic gradients of all learners at their staleness-resolved weights.

    Learner l draws from the stream (seed, gradient-tag, k, l): pure in
    (seed, k, l) and independent of the strategy, so strategies sharing
    a seed share gradient noise.
    """
    L = cfg.n_learners
    rngs = map(seeding.generator, _stream_words(cfg.seed, L, seeding.TAG_GRADIENT, k))
    shards = [(l, L) for l in range(L)] if cfg.data_partition == "sharded" else None
    return oracle.stochastic_gradients(Phi, cfg.batch_size, rngs, shards)


def _advance(state: SimState, W_next: np.ndarray, G: np.ndarray) -> SimState:
    return replace(
        state,
        weights=W_next,
        prev_weights=state.weights,
        iteration=state.iteration + 1,
        last_gradients=G,
    )


def step_spsgd(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """One synchronous SGD step on the shared model (effective batch L x M)."""
    W = state.weights
    if np.any(W != W[:, :1]):
        raise ValueError("SPSGD requires identical weights on all learners")
    k = state.iteration
    G = gradient_matrix(oracle, W, cfg, k)
    mean_grad = G.mean(axis=1, keepdims=True)
    W_next = W - learning_rate(cfg, k) * np.tile(mean_grad, (1, cfg.n_learners))
    return _advance(state, W_next, G)


def _gossip_step(state: SimState, oracle, cfg: RunConfig, T: np.ndarray, stale: bool) -> SimState:
    k = state.iteration
    Phi = state.prev_weights if stale else state.weights
    G = gradient_matrix(oracle, Phi, cfg, k)
    W_next = apply_mixing(state.weights, T) - learning_rate(cfg, k) * G
    return _advance(state, W_next, G)


def step_dpsgd_fixed(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """Fixed-ring gossip with synchronous gradients: W T0 - lr G(W)."""
    return _gossip_step(state, oracle, cfg, _ring(cfg.n_learners), stale=False)


def step_adpsgd_fixed(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """Fixed-ring gossip with one-step-stale gradients: W T0 - lr G(W_prev).

    At iteration 0 the stale model equals the start model, so the first
    step coincides with the synchronous variant.
    """
    return _gossip_step(state, oracle, cfg, _ring(cfg.n_learners), stale=True)


def step_rand_psgd(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """Randomized-ring gossip: T_k = T0[p_k, p_k], p_k shared-seed derived.

    The permutation for iteration k is a pure function of (cfg.seed, k):
    every learner computes the same relabelling locally.  Gradient
    staleness follows `cfg.staleness_mode`.
    """
    L = cfg.n_learners
    perm = _permutation(L, cfg.seed, state.iteration)
    T = _ring(L)[np.ix_(perm, perm)]
    return _gossip_step(state, oracle, cfg, T, stale=(cfg.staleness_mode == "async"))


def _permutation(n_learners: int, seed: int, k: int) -> np.ndarray:
    """`mixing.permutation_for_step(n_learners, seed, k)`, its stream taken
    from the cached block."""
    words = _stream_words(seed, n_learners, seeding.TAG_PERMUTATION, k)
    return sample_permutation(n_learners, seeding.generator(words[0]))


def step_d1d(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """Delay-one uniform averaging: mean(W) - lr G(W_prev).

    The averaging is realized as the exact column-mean broadcast (the
    allreduce path of `apply_mixing`), so consensus after averaging is
    exact; the gradient applies one step late because it is computed
    concurrently with the allreduce.
    """
    return _gossip_step(state, oracle, cfg, _uniform(cfg.n_learners), stale=True)


_STEP_FUNCTIONS = {
    Strategy.SPSGD: step_spsgd,
    Strategy.DPSGD_FIXED: step_dpsgd_fixed,
    Strategy.ADPSGD_FIXED: step_adpsgd_fixed,
    Strategy.RAND_PSGD: step_rand_psgd,
    Strategy.D1D: step_d1d,
}


def _read_only(T: np.ndarray) -> np.ndarray:
    T.setflags(write=False)
    return T


@functools.cache
def _ring(L: int) -> np.ndarray:
    return _read_only(build_ring_matrix(L))


@functools.cache
def _uniform(L: int) -> np.ndarray:
    return _read_only(build_uniform_matrix(L))


def mixing_rho(strategy: Strategy, n_learners: int) -> float:
    """rho of the strategy's mixing matrix.

    Ring strategies share the ring's spectrum (relabelling preserves
    it); exact-averaging strategies collapse all non-principal
    eigenvalues to 0.
    """
    return second_eigenvalue_ring(n_learners) if strategy.uses_ring else 0.0


def consensus_distance(W: np.ndarray) -> float:
    """max over learners of ||w_l - column mean||_2."""
    dev = W - W.mean(axis=1, keepdims=True)
    return float(np.sqrt((dev * dev).sum(axis=0).max()))


def advance_clock(
    state: SimState, strategy: Strategy, cost_model: CostModel, rng: np.random.Generator
) -> tuple[SimState, float]:
    """Account one iteration of simulated wall-clock time.

    Barrier strategies (not `strategy.uses_ring`) wait for the slowest
    learner's compute, then pay a slowest-link allreduce.  Ring (gossip)
    strategies overlap compute with their own exchanges: each learner's
    iteration costs max(compute, own exchange), and the recorded duration
    is the mean over learners.
    """
    L = len(state.compute_time_s)
    compute = cost_model.sample_compute_times(L, rng)
    if strategy.uses_ring:
        duration = float(np.maximum(compute, cost_model.comm_times(L)).mean())
    else:
        duration = float(compute.max()) + cost_model.allreduce_time(L)
    new_state = replace(
        state,
        compute_time_s=state.compute_time_s + compute,
        sim_time_s=state.sim_time_s + duration,
    )
    return new_state, duration


def _record(state: SimState, oracle, rho: float) -> TraceRecord:
    W = state.weights
    mean_loss = float(oracle.loss_columns(W).mean())
    avg_model_loss = float(oracle.loss(W.mean(axis=1)))
    return TraceRecord(
        iteration=state.iteration,
        sim_time_s=state.sim_time_s,
        mean_loss=mean_loss,
        avg_model_loss=avg_model_loss,
        consensus_dist=consensus_distance(W),
        rho=rho,
    )


def run_training(strategy: Strategy, oracle, cfg: RunConfig) -> RunResult:
    """Run one strategy to completion (or divergence).

    Records a trace point every `log_every` iterations and always at
    the final iteration.  On divergence the partial trace up to the
    last healthy iteration is returned with the diverged flag set; the
    exploded weights are not logged.
    """
    step = _STEP_FUNCTIONS[strategy]
    rho = mixing_rho(strategy, cfg.n_learners)
    state = initial_state(oracle, cfg)
    records: list[TraceRecord] = []
    diverged = False
    last_recorded = 0
    for k in range(cfg.iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            new_state = step(state, oracle, cfg)
        W = new_state.weights
        if not np.all(np.isfinite(W)) or np.abs(W).max() > DIVERGENCE_THRESHOLD:
            diverged = True
            break
        state = new_state
        clock_words = _stream_words(cfg.seed, cfg.n_learners, seeding.TAG_CLOCK, k)
        clock = seeding.generator(clock_words[0])
        state, _ = advance_clock(state, strategy, cfg.cost_model, clock)
        if state.iteration % cfg.log_every == 0 or k == cfg.iterations - 1:
            records.append(_record(state, oracle, rho))
            last_recorded = state.iteration
    if state.iteration > 0 and last_recorded != state.iteration:
        records.append(_record(state, oracle, rho))
    return RunResult(records=tuple(records), diverged=diverged, state=state)
