"""Synthetic training objectives with exactly reproducible stochastic gradients.

Two oracle families:

- quadratic: f(w) = 1/2 (w - w*)' A (w - w*) with A diagonal and
  eigenvalues log-spaced in [1, condition_number].  Stochastic
  gradients add i.i.d. Gaussian noise with per-coordinate standard
  deviation noise_scale / sqrt(batch_size), the usual minibatch
  variance scaling.
- logistic: l2-regularized logistic regression on a synthetic
  two-class Gaussian dataset (class means +-separation/2 along a
  random unit direction).  Minibatches are drawn with replacement, so
  the stochastic gradient is exactly unbiased for the full-batch one.

Both oracles take a stochastic gradient in two steps, since their
randomness does not depend on the model.  `draw(rows, batch_size,
shards)` makes each learner's draws from the stream of its PCG64 state
row (`seeding.stream_states`): the quadratic's noise, already times
noise_scale / sqrt(batch_size), and the logistic's minibatch indices, in
one vectorized pass (`seeding.bounded_integers`, which computes every
row's raw PCG64 outputs in closed form and reseats only a row it redraws
through `integers`), mapped into each row's shard by one gather from a
table of the distinct shards.  `gradients(Phi, draws, batch_size)` does
the math on them for a (d, L) Phi, the logistic's stacked over chunks of
learners and bit-identical to a learner-by-learner loop.
`stochastic_gradient(w, rng, batch_size, shard)` is the two on one column,
drawn from a caller's Generator: the same rng state always yields the same
gradient, bit for bit, and a stream's Generator that of its row.

Both losses broadcast over leading axes, (..., d) -> (...) for `loss` and
(..., d, L) -> (..., L) for `loss_columns`, each slice bit-identical to the
call on it alone and one model's `loss` a float, so the training loop
records a stack of logged models in one call.  `gradient_check` closes the
loop between the loss and gradient code with central finite differences.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from . import seeding
from ._checks import _require

LOGISTIC_RIDGE = 1e-4  # fixed l2 coefficient for the logistic objective

# LogisticObjective's byte caps on a chunk's stack: (chunk, batch_size, d)
# minibatch features in `gradients`, (chunk, n_samples, L) margins in the losses.
_CHUNK_BYTES, _LOSS_CHUNK_BYTES = 32 * 1024, 128 * 1024

# Learner l's data shard is shards[l]: (index, count), or None for all data.
_Shards = Sequence[tuple[int, int] | None] | None


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |z| in both directions
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _columns(Phi) -> np.ndarray:  # Phi as floats, once checked to be the (d, L) `gradients` takes
    if (Phi := np.asarray(Phi, dtype=float)).ndim != 2:
        raise ValueError(f"Phi: expected a (d, L) matrix, got shape {Phi.shape}")
    return Phi


def _one_gradient(oracle, w: np.ndarray, batch_size: int,
                  sample: Callable[[int], np.ndarray]) -> np.ndarray:
    """`oracle`'s stochastic gradient at w: `gradients` on w as the one
    column, its one row of draws `sample(batch_size)`, taken once
    batch_size has passed its check."""
    batch_size = _require("batch_size", batch_size, ">= 1", int)
    draws = sample(batch_size)[None]
    return oracle.gradients(np.asarray(w, dtype=float)[:, None], draws, batch_size)[:, 0]


def _held(array) -> np.ndarray:
    """A read-only float copy of array, out of reach of the caller's later writes."""
    held = np.array(array, dtype=float)
    held.setflags(write=False)
    return held


class _Held:
    """An oracle that holds what its constructor checked: each of its `_DATA`
    attributes is set once, in `__init__` (arrays as `_held` copies), and
    then refuses assignment and deletion, so the oracle's identity is a sound
    key for `simulation._block`'s held draws.  A copy or an unpickled oracle
    holds its arrays as `_held` copies too.  Methods stay patchable."""

    _DATA: tuple[str, ...] = ()

    def __setstate__(self, state):
        for name, value in state.items():
            super().__setattr__(name, _held(value) if isinstance(value, np.ndarray) else value)

    def __setattr__(self, name, value):
        if name in self._DATA and name in vars(self):
            raise AttributeError(f"{type(self).__name__}.{name} is held as constructed")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        if name in self._DATA:
            raise AttributeError(f"{type(self).__name__}.{name} is held as constructed")
        super().__delattr__(name)


class QuadraticObjective(_Held):
    """1/2 (w - w*)' A (w - w*) with diagonal A and additive gradient noise."""

    _DATA = ("eigenvalues", "optimum", "noise_scale", "dimension")

    def __init__(self, eigenvalues: np.ndarray, optimum: np.ndarray, noise_scale: float):
        self.eigenvalues, self.optimum = _held(eigenvalues), _held(optimum)
        self.noise_scale = float(_require("noise_scale", noise_scale, ">= 0", float))
        if self.eigenvalues.ndim != 1 or self.optimum.shape != self.eigenvalues.shape:
            raise ValueError("eigenvalues and optimum must be 1-d with equal length")
        if not np.isfinite(self.optimum).all():
            raise ValueError("optimum must be finite")
        # Written as `not x > b` so that NaN fails too.
        if not np.all((self.eigenvalues > 0) & (self.eigenvalues < np.inf)):
            raise ValueError("eigenvalues must be strictly positive and finite")
        self.dimension = len(self.eigenvalues)

    def loss(self, w: np.ndarray) -> float | np.ndarray:
        dev = np.asarray(w, dtype=float) - self.optimum
        loss = 0.5 * np.add.reduce(self.eigenvalues * dev * dev, axis=-1)
        return float(loss) if np.ndim(loss) == 0 else loss  # one model's loss: a float

    def loss_columns(self, W: np.ndarray) -> np.ndarray:
        dev = W - self.optimum[:, None]
        return 0.5 * np.einsum("i,...il,...il->...l", self.eigenvalues, dev, dev)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.eigenvalues * (np.asarray(w, dtype=float) - self.optimum)

    def stochastic_gradient(self, w: np.ndarray, rng, batch_size: int, shard=None) -> np.ndarray:
        return _one_gradient(self, w, batch_size, lambda b: rng.standard_normal(self.dimension)
                             * (self.noise_scale / math.sqrt(b)))  # as `draw` scales its rows

    def draw(self, rows: np.ndarray, batch_size: int, shards: _Shards = None) -> np.ndarray:
        """(n, d) scaled noise for the n state rows: row l is the standard
        normals of the l-th row's stream times noise_scale / sqrt(batch_size).

        Pure noise model: the sampled batch only sets the noise
        magnitude, so neither it nor a shard assignment is drawn here.
        """
        batch_size = _require("batch_size", batch_size, ">= 1", int)
        noise = np.empty((len(rows), self.dimension))
        for row, rng in zip(noise, seeding._reseated(rows)):
            rng.standard_normal(out=row)
        noise *= self.noise_scale / math.sqrt(batch_size)  # a float: numpy scalars are slower
        return noise

    def gradients(self, Phi: np.ndarray, draws: np.ndarray, batch_size: int) -> np.ndarray:
        """Gradients of the columns of Phi plus row l of the `draw`n scaled
        noise in column l, each operation in place on one fresh array."""
        G = np.subtract(_columns(Phi), self.optimum[:, None])
        G *= self.eigenvalues[:, None]
        G += draws.T
        return G


class LogisticObjective(_Held):
    """l2-regularized logistic regression on a fixed synthetic dataset."""

    _DATA = ("features", "labels", "ridge", "n_samples", "dimension")

    def __init__(self, features: np.ndarray, labels: np.ndarray, ridge: float = LOGISTIC_RIDGE):
        self.features, self.labels = _held(features), _held(labels)
        self.ridge = float(_require("ridge", ridge, ">= 0", float))
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (n, d) with labels (n,)")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be +-1")
        self.n_samples, self.dimension = self.features.shape

    def loss(self, w: np.ndarray) -> float | np.ndarray:
        w = np.asarray(w, dtype=float)
        squares = (w[..., None, :] @ w[..., None])[..., 0, 0]  # per model, `np.dot(w, w)`'s ddot
        loss = self._data_term(w[..., None])[..., 0] + 0.5 * self.ridge * squares
        return float(loss) if np.ndim(loss) == 0 else loss

    def loss_columns(self, W: np.ndarray) -> np.ndarray:
        return self._data_term(W) + 0.5 * self.ridge * np.einsum("...il,...il->...l", W, W)

    def _data_term(self, W: np.ndarray) -> np.ndarray:
        """Mean logaddexp(0, -margin), (..., d, L) -> (..., L), over chunks of
        models with margins in _LOSS_CHUNK_BYTES; per model its own `X @ W`,
        the exact negation in the labels, and `ndarray.mean`'s sum and division."""
        *lead, d, L = np.shape(W)
        models = np.reshape(W, (-1, d, L))
        out = np.empty((len(models), L))
        chunk = max(1, _LOSS_CHUNK_BYTES // (8 * self.n_samples * L))
        for start in range(0, len(models), chunk):
            margins = self.features @ models[start:start + chunk]
            margins *= -self.labels[:, None]
            np.logaddexp(0.0, margins, out=margins)
            np.add.reduce(margins, axis=-2, out=out[start:start + chunk])
        return (out / self.n_samples).reshape(*lead, L)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        margins = self.labels * (self.features @ w)
        coeff = -self.labels * _sigmoid(-margins)
        return (self.features.T @ coeff) / self.n_samples + self.ridge * w

    def _shard(self, shard: tuple[int, int] | None) -> tuple[int, int, int]:
        """(index, count, size) of a shard: it holds the samples index +
        count j for j in range(size) (all data when None)."""
        if shard is None:
            return 0, 1, self.n_samples
        index, count = shard
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} outside 0..{count - 1}")
        size = len(range(index, self.n_samples, count))
        if not size:
            raise ValueError(f"shard {index} of {count} holds no sample "
                             f"(n_samples = {self.n_samples})")
        return index, count, size

    def _sample_indices(
        self, rng: np.random.Generator, batch_size: int, shard: tuple[int, int] | None
    ) -> np.ndarray:
        """batch_size sample indices drawn uniformly, with replacement, from
        the shard by one `integers` call on rng."""
        index, count, size = self._shard(shard)
        return index + count * rng.integers(0, size, batch_size)

    def stochastic_gradient(self, w: np.ndarray, rng, batch_size: int, shard=None) -> np.ndarray:
        return _one_gradient(self, w, batch_size,
                             lambda b: self._sample_indices(rng, b, shard))

    def draw(self, rows: np.ndarray, batch_size: int, shards: _Shards = None) -> np.ndarray:
        """(n, batch_size) sample indices for the n state rows: row l is the
        minibatch `_sample_indices` draws from the l-th shard (all data when
        None) with the Generator of the l-th row's stream.  Each distinct
        shard is checked once, before any draw, into one row of a layout
        table that every row gathers from."""
        batch_size = _require("batch_size", batch_size, ">= 1", int)
        n = len(rows)
        if shards is None:
            shards = [None] * n
        elif len(shards) != n:
            raise ValueError(f"shards: has {len(shards)} entries, expected one for each "
                             f"of the {n} rows")
        position = {shard: p for p, shard in enumerate(dict.fromkeys(shards))}
        layout = np.array([self._shard(shard) for shard in position], dtype=np.int64).reshape(-1, 3)
        index, count, size = layout[np.fromiter(map(position.__getitem__, shards), np.intp, n)].T
        return index[:, None] + count[:, None] * seeding.bounded_integers(rows, size, batch_size)

    def gradients(self, Phi: np.ndarray, draws: np.ndarray, batch_size: int) -> np.ndarray:
        """Minibatch gradients of the columns of Phi, column l on the samples
        in row l of the `draw`n indices.

        The math is stacked over chunks of learners whose (chunk,
        batch_size, d) feature stack fits in _CHUNK_BYTES (one learner per
        chunk when even one does not).  Each slice of a stacked matmul is
        the same BLAS call, on the same strides, as one learner's `X @ w`
        and `X.T @ coeff`, so the result is bit-identical to a
        learner-by-learner loop.  (einsum would sum in another order and
        change the last bits.)
        """
        Phi = _columns(Phi)
        d, L = Phi.shape
        G = np.empty_like(Phi)
        chunk = max(1, _CHUNK_BYTES // (Phi.itemsize * batch_size * d))
        for start in range(0, L, chunk):
            cols = slice(start, start + chunk)
            X = self.features[draws[cols]]
            y = self.labels[draws[cols]]
            Phi_c = Phi[:, cols]
            margins = y * (X @ Phi_c.T[:, :, None])[:, :, 0]
            coeff = -y * _sigmoid(-margins)
            G[:, cols] = (
                (X.transpose(0, 2, 1) @ coeff[:, :, None])[:, :, 0].T / batch_size
                + self.ridge * Phi_c
            )
        return G


def quadratic_oracle(
    dimension: int,
    condition_number: float = 1.0,
    optimum: np.ndarray | None = None,
    noise_scale: float = 0.0,
    seed: int = 0,
) -> QuadraticObjective:
    """Quadratic objective with log-spaced spectrum in [1, condition_number].

    When `optimum` is omitted it is drawn once from the seed's init
    stream, making the whole oracle a pure function of its arguments.
    """
    _require("dimension", dimension, ">= 1", int)
    _require("condition_number", condition_number, ">= 1", float)
    eigenvalues = np.logspace(0.0, np.log10(float(condition_number)), dimension)
    if optimum is None:
        optimum = seeding.stream(seed, seeding.TAG_DATA).standard_normal(dimension)
    return QuadraticObjective(eigenvalues, optimum, noise_scale)


def logistic_oracle(
    dimension: int,
    n_samples: int,
    separation: float,
    seed: int = 0,
    ridge: float = LOGISTIC_RIDGE,
) -> LogisticObjective:
    """Two-class Gaussian logistic problem, fully determined by the seed.

    Class means sit at +-separation/2 along a random unit direction;
    features are unit-variance Gaussian around their class mean; labels
    are balanced (+1 for the first half, -1 for the rest).
    """
    _require("dimension", dimension, ">= 1", int)
    _require("n_samples", n_samples, ">= 2", int)
    separation = _require("separation", separation, ">= 0", float)
    rng = seeding.stream(seed, seeding.TAG_DATA)
    direction = rng.standard_normal(dimension)
    direction /= np.linalg.norm(direction)
    labels = np.ones(n_samples)
    labels[n_samples // 2 :] = -1.0
    features = rng.standard_normal((n_samples, dimension))
    features += np.outer(labels * (separation / 2.0), direction)
    return LogisticObjective(features, labels, ridge)


# Oracle kind -> factory; the [oracle] keys of a kind are its arguments.
ORACLES = {"quadratic": quadratic_oracle, "logistic": logistic_oracle}


def gradient_check(oracle, w: np.ndarray, step: float = 1e-5) -> float:
    """Relative error between the analytic gradient and central differences.

    Independent route through the loss code only:
    (f(w + h e_i) - f(w - h e_i)) / 2h per coordinate.  Returns
    ||fd - grad|| / max(||grad||, 1e-12).
    """
    _require("step", step, "> 0", float)
    w = np.asarray(w, dtype=float)
    grad = oracle.gradient(w)
    fd = np.empty_like(grad)
    for i in range(len(w)):
        bump = np.zeros_like(w)
        bump[i] = step
        fd[i] = (oracle.loss(w + bump) - oracle.loss(w - bump)) / (2.0 * step)
    denom = max(float(np.linalg.norm(grad)), 1e-12)
    return float(np.linalg.norm(fd - grad)) / denom
