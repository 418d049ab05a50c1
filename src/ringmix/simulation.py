"""Decentralized SGD strategies on a simulated cluster clock.

Five training strategies over L learners holding a d x L weights
matrix W (one column per learner) differ in two facts, which each
`Strategy` member carries: how the models are mixed, and whether the
gradient is taken at W_k (fresh) or at W_{k-1} (stale).  The clock
follows the mixing: the ring strategies gossip, the others average
exactly behind a barrier.

    strategy      mixing                        gradient        clock
    spsgd         none: one model, G averaged   fresh           barrier
    dpsgd_fixed   ring T0                       fresh           gossip
    adpsgd_fixed  ring T0                       stale           gossip
    rand_psgd     relabelled ring T0[p_k, p_k]  staleness_mode  gossip
    d1d           mean: exact column mean       stale           barrier

A stale gradient models asynchrony: gradient computation overlaps
communication (for d1d, the allreduce), so the gradient a learner
applies was computed on the previous model.  rand_psgd's permutation
p_k is derived by every learner from a shared seed (no coordination
needed), and `RunConfig.staleness_mode` picks its gradient (async is
stale).  At L = 3 every ring weight is 1/3 = 1/L, so the ring
strategies average exactly, like d1d.

All strategies share the minibatch noise streams: two strategies run
with the same config and seed draw identical gradients at the same
(iteration, learner), which makes paired comparisons sharp and
equivalence tests exact.

The simulated clock follows a simple cost model: per-learner compute
times are lognormal (with optional per-learner slowdown factors), a
model exchange costs 2 x message_size / bandwidth.  Barrier
strategies pay the slowest learner plus an allreduce bounded by the
slowest link; gossip strategies overlap compute and communication per
learner and pay the mean over learners, so a single straggler is
amortized instead of serializing everyone.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum

import numpy as np

from . import seeding
# apply_mixing is unused here; perfbench's tracer wraps this attribute.
from .mixing import apply_mixing, build_ring_matrix, sample_permutation
from .spectral import second_eigenvalue_ring


class Strategy(Enum):
    """(value, mixing, gradient, seed_id): the module docstring's table, and
    the stable small integer that cell seeds derive from (never renumber)."""

    SPSGD = ("spsgd", "none", "fresh", 0)
    DPSGD_FIXED = ("dpsgd_fixed", "ring", "fresh", 1)
    ADPSGD_FIXED = ("adpsgd_fixed", "ring", "stale", 2)
    RAND_PSGD = ("rand_psgd", "relabelled", "staleness_mode", 3)
    D1D = ("d1d", "mean", "stale", 4)

    def __new__(cls, value: str, mixing: str, gradient: str, seed_id: int):
        member = object.__new__(cls)
        member._value_ = value
        member.mixing, member.gradient, member.seed_id = mixing, gradient, seed_id
        return member

    @property
    def uses_ring(self) -> bool:
        """True if the strategy gossips over a ring and pays its spectral gap;
        False if it averages exactly behind a barrier."""
        return self.mixing in ("ring", "relabelled")


# A run diverges when its weights go non-finite or any magnitude exceeds this.
DIVERGENCE_THRESHOLD = 1e12

_PASSES = {">=": operator.ge, ">": operator.gt}  # op(value, bound) must hold; NaN never does


def _checked(default=MISSING, check=None, **metadata):
    """A dataclass field whose value must pass `check`: ">= bound", "> bound"
    or a tuple of choices (None: unchecked).  Extra metadata rides along."""
    return field(default=default, metadata={"check": check, **metadata})


def _check_failure(value, check) -> str | None:
    """Why `value` fails `check`, or None when it passes."""
    if isinstance(check, tuple):
        if value not in check:
            return f"expected {'|'.join(check)}, got {value!r}"
    elif check is not None:
        op, bound = check.split()
        if not _PASSES[op](value, float(bound)):
            return f"must be {check}"
        if value == math.inf:  # not math.isfinite: it overflows on huge ints
            return "must be finite"
    return None


def _check_fields(obj) -> None:
    """Raise ValueError, led by the field's name, at the first field of the
    dataclass `obj` that fails its declared check."""
    for f in fields(obj):
        failure = _check_failure(getattr(obj, f.name), f.metadata.get("check"))
        if failure:
            raise ValueError(f"{f.name}: {failure}")


@dataclass(frozen=True, eq=False)
class CostModel:
    """Per-iteration timing model.

    compute: per-learner gradient time ~ lognormal(compute_mu,
    compute_sigma) seconds, optionally scaled per learner by
    compute_scale, a sequence with one positive factor per learner
    (a 10x straggler is compute_scale[i] = 10; None scales nobody).
    communication: sending one model costs message_size_bytes /
    bandwidth; an exchange (send + receive) costs twice that.
    """

    message_size_bytes: float = _checked(165e6, "> 0")
    bandwidth_bytes_per_s: float = _checked(25e9, "> 0")
    compute_mu: float = math.log(0.1)
    compute_sigma: float = _checked(0.1, ">= 0")
    compute_scale: Sequence[float] | None = None

    def __post_init__(self):
        _check_fields(self)
        if not -math.inf < self.compute_mu < math.inf:
            raise ValueError("compute_mu: must be finite")
        if not self.allreduce_time(1) < math.inf:  # each is finite; 2 m / b may overflow
            raise ValueError(
                "message_size_bytes, bandwidth_bytes_per_s: exchange time must be finite"
            )
        if self.compute_scale is not None and not np.all(np.asarray(self.compute_scale) > 0):
            raise ValueError("compute_scale entries must be strictly positive")

    def allreduce_time(self, n_learners: int) -> float:
        """One exchange over the (uniform) link bandwidth: a gossip learner's
        exchange, and the barrier's global allreduce."""
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
    """Per-run parameters; a run is a pure function of (config, oracle).

    Each field declares its range; an experiment config's key for the
    same parameter takes its default and range from here.  The INI's
    `lr` is stricter (> 0): a run with lr = 0 is valid but trains nothing.
    """

    n_learners: int = _checked(check=">= 1")
    iterations: int = _checked(check=">= 1")
    lr: float = _checked(check=">= 0")
    batch_size: int = _checked(check=">= 1")                    # per learner
    seed: int
    warmup_iters: int = _checked(0, ">= 0")                     # linear warmup to lr; 0 disables
    staleness_mode: str = _checked("async", ("sync", "async"))  # RAND_PSGD only
    init_scale: float = _checked(1.0, ">= 0")
    data_partition: str = _checked("shared", ("shared", "sharded"))
    log_every: int = _checked(1, ">= 1")
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        _check_fields(self)


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


def _step(strategy: Strategy, state: SimState, oracle, cfg: RunConfig) -> SimState:
    """One iteration of `strategy`, as its mixing and gradient say."""
    mixing, gradient = strategy.mixing, strategy.gradient
    if gradient == "staleness_mode":
        gradient = "stale" if cfg.staleness_mode == "async" else "fresh"
    k, W, L = state.iteration, state.weights, cfg.n_learners
    if mixing == "none" and np.any(W != W[:, :1]):
        raise ValueError("SPSGD requires identical weights on all learners")
    if L == 3 and strategy.uses_ring:
        mixing = "mean"  # the 3-ring's weights are all 1/L, as in apply_mixing
    G = gradient_matrix(oracle, state.prev_weights if gradient == "stale" else W, cfg, k)
    lr = learning_rate(cfg, k)
    if mixing == "none":
        W_next = W - lr * G.mean(axis=1, keepdims=True)
    elif mixing == "mean":
        W_next = W.mean(axis=1, keepdims=True) - lr * G
    else:
        T = _ring(L)
        if mixing == "relabelled":
            # = mixing.permutation_for_step(L, cfg.seed, k), from the cached block
            words = _stream_words(cfg.seed, L, seeding.TAG_PERMUTATION, k)
            perm = sample_permutation(L, seeding.generator(words[0]))
            T = T[np.ix_(perm, perm)]
        W_next = W @ T - lr * G
    return replace(state, weights=W_next, prev_weights=W, iteration=k + 1, last_gradients=G)


def step_spsgd(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """One synchronous SGD step on the shared model (effective batch L x M)."""
    return _step(Strategy.SPSGD, state, oracle, cfg)


def step_dpsgd_fixed(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """Fixed-ring gossip with synchronous gradients: W T0 - lr G(W)."""
    return _step(Strategy.DPSGD_FIXED, state, oracle, cfg)


def step_adpsgd_fixed(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """Fixed-ring gossip with one-step-stale gradients: W T0 - lr G(W_prev).

    At iteration 0 the stale model equals the start model, so the first
    step coincides with the synchronous variant.
    """
    return _step(Strategy.ADPSGD_FIXED, state, oracle, cfg)


def step_rand_psgd(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """Randomized-ring gossip: T_k = T0[p_k, p_k], p_k shared-seed derived.

    The permutation for iteration k is a pure function of (cfg.seed, k):
    every learner computes the same relabelling locally.  Gradient
    staleness follows `cfg.staleness_mode`.
    """
    return _step(Strategy.RAND_PSGD, state, oracle, cfg)


def step_d1d(state: SimState, oracle, cfg: RunConfig) -> SimState:
    """Delay-one uniform averaging: mean(W) - lr G(W_prev).

    The averaging is the exact column-mean broadcast, so consensus after
    averaging is exact; the gradient applies one step late because it is
    computed concurrently with the allreduce.
    """
    return _step(Strategy.D1D, state, oracle, cfg)


_STEP_FUNCTIONS = {
    Strategy.SPSGD: step_spsgd,
    Strategy.DPSGD_FIXED: step_dpsgd_fixed,
    Strategy.ADPSGD_FIXED: step_adpsgd_fixed,
    Strategy.RAND_PSGD: step_rand_psgd,
    Strategy.D1D: step_d1d,
}


@functools.cache
def _ring(L: int) -> np.ndarray:
    T = build_ring_matrix(L)
    T.setflags(write=False)
    return T


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
        duration = float(np.maximum(compute, cost_model.allreduce_time(L)).mean())
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


def _overflowed_clock(state: SimState) -> str | None:
    """The first simulated-clock total that is not finite, as "name = value",
    or None.  Gossip records the mean over learners as sim_time_s, so one
    learner's compute total can overflow while sim_time_s stays finite."""
    if not state.sim_time_s < math.inf:
        return f"sim_time_s = {state.sim_time_s}"
    if not state.compute_time_s.max() < math.inf:
        learner = int(np.argmax(state.compute_time_s))
        return f"compute_time_s[{learner}] = {state.compute_time_s[learner]}"
    return None


def run_training(strategy: Strategy, oracle, cfg: RunConfig) -> RunResult:
    """Run one strategy to completion (or divergence).

    Records a trace point every `log_every` iterations and always at
    the final iteration.  On divergence the partial trace up to the
    last healthy iteration is returned with the diverged flag set; the
    exploded weights are not logged.  Raises ValueError, naming the
    iteration and the total, if the simulated clock overflows: sim_time_s
    or a learner's compute_time_s is not finite.
    """
    step = _STEP_FUNCTIONS[strategy]
    rho = mixing_rho(strategy, cfg.n_learners)
    state = initial_state(oracle, cfg)
    records: list[TraceRecord] = []
    diverged = False
    for k in range(cfg.iterations):
        clock_words = _stream_words(cfg.seed, cfg.n_learners, seeding.TAG_CLOCK, k)
        clock = seeding.generator(clock_words[0])
        with np.errstate(over="ignore", invalid="ignore"):
            new_state = step(state, oracle, cfg)
            # A clock overflow is raised below as an error, not warned about.
            new_state, _ = advance_clock(new_state, strategy, cfg.cost_model, clock)
        # One reduction: NaN and +-inf fail the comparison too.
        if not np.abs(new_state.weights).max() <= DIVERGENCE_THRESHOLD:
            diverged = True
            break
        overflowed = _overflowed_clock(new_state)
        if overflowed:
            raise ValueError(
                f"simulated clock overflowed at iteration {new_state.iteration}: {overflowed}"
            )
        state = new_state
        if state.iteration % cfg.log_every == 0:
            records.append(_record(state, oracle, rho))
    if state.iteration != (records[-1].iteration if records else 0):
        records.append(_record(state, oracle, rho))
    return RunResult(records=tuple(records), diverged=diverged, state=state)
