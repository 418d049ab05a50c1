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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import seeding
from ._checks import _check_fields, _checked, _require
# apply_mixing is unused here; perfbench's tracer wraps this attribute.
from .mixing import apply_mixing, build_ring_matrix
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


# A run diverges when its weights go non-finite or any magnitude exceeds this;
# a sum of squares of at most _HEALTHY_SQUARES rules that out (`_healthy`).
DIVERGENCE_THRESHOLD = 1e12
_HEALTHY_SQUARES = DIVERGENCE_THRESHOLD**2 / 10


@dataclass(frozen=True)
class CostModel:
    """Per-iteration timing model.

    compute: per-learner gradient time ~ lognormal(compute_mu,
    compute_sigma) seconds, optionally scaled per learner by
    compute_scale, one positive factor per learner, held as a tuple of
    floats (a 10x straggler is compute_scale[i] = 10; None scales nobody).
    communication: sending one model costs message_size_bytes /
    bandwidth; an exchange (send + receive) costs twice that.
    """

    message_size_bytes: float = _checked(165e6, "> 0")
    bandwidth_bytes_per_s: float = _checked(25e9, "> 0")
    compute_mu: float = _checked(math.log(0.1))
    compute_sigma: float = _checked(0.1, ">= 0")
    compute_scale: Sequence[float] | None = None

    def __post_init__(self):
        _check_fields(self)
        if not self.allreduce_time(1) < math.inf:  # each is finite; 2 m / b may overflow
            raise ValueError(
                "message_size_bytes, bandwidth_bytes_per_s: exchange time must be finite"
            )
        scale = self.compute_scale
        if scale is not None and np.ndim(scale) != 1:
            raise ValueError(f"compute_scale: expected a sequence of factors, got {scale!r}")
        if scale is not None:  # held as checked, out of reach of the caller's later writes
            object.__setattr__(self, "compute_scale", tuple(float(_require(
                f"compute_scale[{i}]", factor, "> 0", float)) for i, factor in enumerate(scale)))

    def allreduce_time(self, n_learners: int) -> float:
        """One exchange over the (uniform) link bandwidth: a gossip learner's
        exchange, and the barrier's global allreduce."""
        return float(2.0 * self.message_size_bytes / self.bandwidth_bytes_per_s)

    def sample_compute_times(self, n_learners: int, rng: "np.random.Generator") -> np.ndarray:
        scale = self.compute_scale
        if scale is not None and len(scale) != n_learners:
            raise ValueError(f"compute_scale has length {len(scale)}, expected {n_learners}")
        times = rng.lognormal(self.compute_mu, self.compute_sigma, n_learners)
        return times if scale is None else times * np.array(scale)


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
    seed: int = _checked(check=">= 0")
    warmup_iters: int = _checked(0, ">= 0")                     # linear warmup to lr; 0 disables
    staleness_mode: str = _checked("async", ("sync", "async"))  # RAND_PSGD only
    init_scale: float = _checked(1.0, ">= 0")
    data_partition: str = _checked("shared", ("shared", "sharded"))
    log_every: int = _checked(1, ">= 1")
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        _require("cost_model", self.cost_model, None, CostModel)
        _check_fields(self)
        scale = self.cost_model.compute_scale
        if scale is not None and len(scale) != self.n_learners:
            raise ValueError(f"cost_model.compute_scale: has {len(scale)} entries, "
                             f"expected n_learners = {self.n_learners}")


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


# Gradient streams per stream block (`_block`), and the bytes of the stack of
# logged weights that `run_training` records at once (`_records`).
_ROW_BUDGET, _STACK_BYTES = 4096, 128 * 1024

# `_block`'s one cached block, or None: (oracle, (cfg, start, stop), block).
_last_draws = None


@np.errstate(over="ignore", invalid="ignore")
def _block(oracle, cfg: RunConfig, k: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The stream block holding iteration k: its first iteration, every
    learner's gradient draws at its iterations, (n, L, ...), the compute
    times `cfg.cost_model` draws from its clock streams, (n, L), and the
    state rows of rand_psgd's permutation streams, (n, 4), all drawn with
    overflow judged by value, not warned.  Blocks hold max(1, _ROW_BUDGET //
    L) iterations from 0, the last one cut at the run's end; a k past the
    run gets a whole block.  Learner l's draws at iteration k come from the
    stream (seed, TAG_GRADIENT, k, l), so strategies sharing a seed share
    gradient noise.  The last block is kept, read-only, and returned again
    for the same oracle (by identity), an equal config and the same bounds."""
    global _last_draws
    L = cfg.n_learners
    size = max(1, _ROW_BUDGET // L)
    start = k - k % size
    stop = start + size if k >= cfg.iterations else min(start + size, cfg.iterations)
    key = (cfg, start, stop)
    last = _last_draws  # read once, so another thread's write cannot swap the block returned
    if last is not None and last[0] is oracle and last[1] == key:
        return last[2]
    _last_draws = last = None  # hold at most one block, even while drawing the next
    n, iterations = stop - start, np.arange(start, stop)
    rows = seeding.stream_states((cfg.seed, seeding.TAG_GRADIENT), iterations[:, None], range(L))
    shards = [(l, L) for l in range(L)] * n if cfg.data_partition == "sharded" else None
    clock, perm_rows = seeding.stream_states(
        (cfg.seed,), [[seeding.TAG_CLOCK], [seeding.TAG_PERMUTATION]], iterations)
    draws = oracle.draw(rows.reshape(n * L, 4), cfg.batch_size, shards).reshape(n, L, -1)
    times = np.array([cfg.cost_model.sample_compute_times(L, r) for r in seeding._reseated(clock)])
    for array in (draws, times, perm_rows):
        array.setflags(write=False)
    block = start, draws, times, perm_rows
    _last_draws = (oracle, key, block)
    return block


def gradient_matrix(oracle, Phi: np.ndarray, cfg: RunConfig, k: int) -> np.ndarray:
    """Stochastic gradients of all learners at their staleness-resolved weights.

    Learner l draws from the stream (seed, gradient-tag, k, l): pure in
    (seed, k, l) and independent of the strategy, so strategies sharing
    a seed share gradient noise.  The draws are row k of `_block`'s.
    """
    k = _require("k", k, ">= 0", int)
    start, draws, *_ = _block(oracle, cfg, k)
    return oracle.gradients(Phi, draws[k - start], cfg.batch_size)


def _healthy(W: np.ndarray, tmp: np.ndarray) -> bool:
    """`np.abs(W).max() <= DIVERGENCE_THRESHOLD`, with tmp (shaped as W) as
    scratch: True at once when W's sum of squares, one BLAS dot, is at most
    _HEALTHY_SQUARES (about 1e23), else the abs-max verdict itself.

    The verdicts agree on every input.  Each term w*w is nonnegative, so
    under round-to-nearest every partial sum, in any order and with split
    accumulators or FMA, is at least the rounded square of each term it
    holds: one |w| > 1e12 puts the sum at 1e24 or more.  A NaN makes the
    sum NaN, and a +-inf or a square that overflows makes it inf; neither
    passes the comparison, so those fall through to the abs-max pass too.
    The run loop calls this under its errstate, so that overflow is not warned."""
    flat = W.ravel()
    if flat.dot(flat) <= _HEALTHY_SQUARES:
        return True
    return bool(np.abs(W, out=tmp).max() <= DIVERGENCE_THRESHOLD)


def _update(strategy: Strategy, oracle, cfg: RunConfig):
    """`strategy`'s update for a run of `cfg` on `oracle`, its staleness, the
    3-ring's exact mean and a ring strategy's ring resolved once:
    update(W, W_prev, k, draws, perm_row, out=None, tmp=None) is iteration k
    from the weights, the stale ones and row k of `_block`'s two row arrays:
    (next weights, gradients), written into out, with lr times the gradient
    term into tmp, (d, L) floats that alias no input (fresh when None)."""
    stale = {"stale": True, "staleness_mode": cfg.staleness_mode == "async"}.get(strategy.gradient)
    L, batch_size = cfg.n_learners, cfg.batch_size
    gradients, T = oracle.gradients, _ring(L) if strategy.uses_ring else None
    mixing = "mean" if L == 3 and strategy.uses_ring else strategy.mixing  # 3-ring: all 1/L

    def update(W, W_prev, k, draws, perm_row, out=None, tmp=None):
        G = term = gradients(W_prev if stale else W, draws, batch_size)
        if mixing == "none":
            mixed, term = W, np.add.reduce(G, axis=1, keepdims=True)
            term /= L  # the sum and division of `ndarray.mean`, bit for bit
        elif mixing == "mean":
            mixed = np.add.reduce(W, axis=1, keepdims=True, dtype=float)
            mixed /= L
        elif mixing == "relabelled":
            perm = next(seeding._reseated(perm_row[None])).permutation(L)
            mixed = np.matmul(W, T.take(perm, 0).take(perm, 1), out=out)  # T conjugated by perm
        else:
            mixed = np.matmul(W, T, out=out)
        return np.subtract(mixed, np.multiply(term, learning_rate(cfg, k), out=tmp), out=out), G

    return update


def _step(strategy: Strategy, state: SimState, oracle, cfg: RunConfig) -> SimState:
    """One iteration of `strategy` on `state`: `_update` on row k of `_block`'s
    draws and permutation rows (rand_psgd's p_k as `mixing.permutation_for_step`
    draws it).  SPSGD's one model must be the same in every column."""
    k, W = state.iteration, state.weights
    if strategy.mixing == "none" and np.any(W != W[:, :1]):
        raise ValueError("SPSGD requires identical weights on all learners")
    start, draws, _, perm_rows = _block(oracle, cfg, k)
    W_next, G = _update(strategy, oracle, cfg)(W, state.prev_weights, k, draws[k - start],
                                               perm_rows[k - start])
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


# _STEP_FUNCTIONS is unused here; perfbench's tracer wraps its entries.
_STEP_FUNCTIONS = {
    Strategy.SPSGD: step_spsgd,
    Strategy.DPSGD_FIXED: step_dpsgd_fixed,
    Strategy.ADPSGD_FIXED: step_adpsgd_fixed,
    Strategy.RAND_PSGD: step_rand_psgd,
    Strategy.D1D: step_d1d,
}


@functools.lru_cache(maxsize=1)  # one ring size, as `_block` holds one run key
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


def consensus_distance(W: np.ndarray) -> float | np.ndarray:
    """max over learners of ||w_l - column mean||_2 per (d, L) slice; one model's is a float."""
    dev = W - W.mean(axis=-1, keepdims=True)
    dist = np.sqrt(np.add.reduce(dev * dev, axis=-2).max(axis=-1))
    return float(dist) if dist.ndim == 0 else dist


def _clock(
    strategy: Strategy, cost_model: CostModel, times, compute_time_s: np.ndarray, sim_time_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulated wall-clock time of n iterations whose per-learner compute
    times are the rows of `times`, shaped (n, L): running totals of the
    per-learner compute and of the simulated seconds, from the totals given
    as row 0, shaped (n + 1, L) and (n + 1,); and the iterations' durations.

    Barrier strategies (not `strategy.uses_ring`) wait for the slowest
    learner's compute, then pay a slowest-link allreduce.  Ring (gossip)
    strategies overlap compute with their own exchanges: each learner's
    iteration costs max(compute, own exchange), and the recorded duration
    is the mean over learners.
    """
    compute = np.vstack((compute_time_s, times))
    exchange = cost_model.allreduce_time(len(compute_time_s))
    if strategy.uses_ring:
        durations = np.maximum(compute[1:], exchange).mean(axis=1)
    else:
        durations = compute[1:].max(axis=1) + exchange
    return np.cumsum(compute, axis=0), np.cumsum(np.r_[sim_time_s, durations]), durations


def advance_clock(
    state: SimState, strategy: Strategy, cost_model: CostModel, rng: "np.random.Generator"
) -> tuple[SimState, float]:
    """Account one iteration of simulated wall-clock time (`_clock`)."""
    times = cost_model.sample_compute_times(len(state.compute_time_s), rng)[None]
    compute, sim, durations = _clock(strategy, cost_model, times, state.compute_time_s,
                                     state.sim_time_s)
    return replace(state, compute_time_s=compute[1], sim_time_s=float(sim[1])), float(durations[0])


def _check_clock(compute: np.ndarray, sim: np.ndarray, start: int) -> tuple[int, str | None]:
    """(j, message) for the first row j of `_clock` totals with a total that
    is not finite, the ValueError message naming iteration start + j and that
    total; (n, None) if n iterations' totals are all finite.  Row j holds the
    totals after iteration start + j.  Gossip records the mean over learners
    as sim_time_s, so one learner's compute total can overflow alone."""
    finite = (sim < math.inf) & (compute.max(axis=1) < math.inf)
    if finite.all():
        return len(sim) - 1, None
    j = int(finite.argmin())
    learner = int(np.argmax(compute[j]))
    total = (f"sim_time_s = {sim[j]}" if not sim[j] < math.inf
             else f"compute_time_s[{learner}] = {compute[j, learner]}")
    return j, f"simulated clock overflowed at iteration {start + j}: {total}"


def _records(Ws: np.ndarray, points: list, oracle, rho: float) -> list[TraceRecord]:
    """Trace records of the stack Ws, (m, d, L), with points[j] = (iteration,
    sim_time_s) of Ws[j]: each statistic one call on Ws, bit for bit per slice."""
    mean_loss, avg_model_loss = oracle.loss_columns(Ws).mean(axis=-1), oracle.loss(Ws.mean(axis=-1))
    return [TraceRecord(k, t, *stats, rho) for (k, t), *stats in zip(
        points, mean_loss.tolist(), avg_model_loss.tolist(), consensus_distance(Ws).tolist())]


def run_training(strategy: Strategy, oracle, cfg: RunConfig) -> RunResult:
    """Run one strategy to completion (or divergence).

    Records a trace point every `log_every` iterations and always at
    the final iteration.  On divergence the partial trace up to the
    last healthy iteration is returned with the diverged flag set, and
    the state is that iteration's; the exploded weights are not logged.
    Raises ValueError, naming the iteration and the total, if the
    simulated clock overflows: sim_time_s or a learner's compute_time_s
    is not finite.

    A run resolves its update once (`_update`) and keeps its state in arrays,
    building a `SimState` only for the result: an iteration writes its
    weights into the buffer of those from two iterations back (three rotate)
    and lr G into a scratch one.  At the start of each stream block it draws
    the block's randomness (`_block`) and clock totals (`_clock`), and runs
    the iterations up to the first non-finite total, raising its overflow if
    the last update is healthy (`_healthy`).  Logged weights, and the final
    ones when they are off the cadence, are copied into a stack of at most
    _STACK_BYTES and recorded in one pass (`_records`) when it is full and at
    the end of each block's loop: under the block's one errstate (overflow
    and invalid ignored, judged by value), before a divergence or an
    overflow is acted on.

    The last block stays cached after the run (`_block`), and
    `gradient_matrix` and the `step_*` functions read it too: at most
    max(L, 4096) rows of draws (8 d bytes a row for the quadratic, 8
    batch_size for the logistic) and 8 L + 32 bytes of compute times and
    permutation state per iteration (1 MiB + 36 KiB at L = d = 32); the loop
    lets go of a block before drawing the next.  Strategies run on one oracle
    and an equal config draw a block once, so an oracle's `draw` must depend
    only on its arguments, its `gradients` not write into them, and a custom
    oracle must not change once it has run: blocks are keyed by its identity
    (the built-in oracles refuse assignment to their data).
    """
    rho = mixing_rho(strategy, cfg.n_learners)
    state = initial_state(oracle, cfg)
    W, W_prev, G = state.weights, state.prev_weights, state.last_gradients
    spare, tmp = np.empty_like(W), np.empty_like(W)  # the next weights' buffer, lr G's
    update = _update(strategy, oracle, cfg)
    compute, sim = state.compute_time_s[None], np.array([state.sim_time_s])
    logs = max(1, min(_STACK_BYTES // W.nbytes, cfg.iterations // cfg.log_every))
    logged, points = np.empty((logs,) + W.shape), []  # weights not yet recorded, their points
    records: list[TraceRecord] = []
    done, diverged = 0, False  # done: healthy iterations
    while done < cfg.iterations and not diverged:
        start, block, times, perm_rows = _block(oracle, cfg, done)  # start == done
        # Overflow and invalid are judged by value: divergence, the clock's first non-finite row.
        with np.errstate(over="ignore", invalid="ignore"):
            compute, sim, _ = _clock(strategy, cfg.cost_model, times, compute[-1], sim[-1])
            n, overflow = _check_clock(compute, sim, start)
            for k, (draws, perm_row) in enumerate(zip(block[:n], perm_rows[:n]), start):
                W_next, G_next = update(W, W_prev, k, draws, perm_row, spare, tmp)
                if not _healthy(W_next, tmp):
                    diverged = True
                    break
                W_prev, W, spare, G, done = W, W_next, W_prev, G_next, k + 1
                if done % cfg.log_every == 0:
                    logged[len(points)] = W
                    points.append((done, float(sim[done - start])))
                    if len(points) == logs:
                        records += _records(logged[:len(points)], points, oracle, rho)
                        points = []
            if (done == cfg.iterations or diverged) and done % cfg.log_every:  # the final record
                logged[len(points)] = W
                points.append((done, float(sim[done - start])))
            if points:  # before a divergence or an overflow is acted on
                records += _records(logged[:len(points)], points, oracle, rho)
                points = []
        block = times = perm_rows = draws = perm_row = None  # the next block's draw may free it
        # The clock overflows at an iteration only if its update was healthy.
        if overflow and not diverged:
            raise ValueError(overflow)
    state = SimState(W, W_prev, done, compute[done - start].copy(), float(sim[done - start]), G)
    return RunResult(records=tuple(records), diverged=diverged, state=state)
