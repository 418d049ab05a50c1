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

A minibatch is identified by a BatchDescriptor; the same descriptor
always yields the same samples and the same gradient, bit for bit.
`gradient_check` closes the loop between the loss and gradient code
paths with central finite differences.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import seeding

LOGISTIC_RIDGE = 1e-4  # fixed l2 coefficient for the logistic objective


@dataclass(frozen=True)
class BatchDescriptor:
    """Identity of one minibatch: its size and its sample stream.

    sample_seed is an entropy tuple in the library-wide counter-based
    scheme; equal descriptors reproduce the exact same draw.
    """

    batch_size: int
    sample_seed: tuple[int, ...]

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def rng(self) -> np.random.Generator:
        return seeding.stream(*self.sample_seed)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |z| in both directions
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class QuadraticObjective:
    """1/2 (w - w*)' A (w - w*) with diagonal A and additive gradient noise."""

    kind = "quadratic"

    def __init__(self, eigenvalues: np.ndarray, optimum: np.ndarray, noise_scale: float):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.optimum = np.asarray(optimum, dtype=float)
        self.noise_scale = float(noise_scale)
        if self.eigenvalues.ndim != 1 or self.optimum.shape != self.eigenvalues.shape:
            raise ValueError("eigenvalues and optimum must be 1-d with equal length")
        # Written as `not x >= b` so that NaN fails too.
        if not np.all(self.eigenvalues > 0):
            raise ValueError("eigenvalues must be strictly positive")
        if not self.noise_scale >= 0:
            raise ValueError("noise_scale must be >= 0")
        self.dimension = len(self.eigenvalues)

    def loss(self, w: np.ndarray) -> float:
        dev = np.asarray(w, dtype=float) - self.optimum
        return 0.5 * float(np.sum(self.eigenvalues * dev * dev))

    def loss_columns(self, W: np.ndarray) -> np.ndarray:
        dev = W - self.optimum[:, None]
        return 0.5 * np.einsum("i,il,il->l", self.eigenvalues, dev, dev)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.eigenvalues * (np.asarray(w, dtype=float) - self.optimum)

    def stochastic_gradient(
        self, w: np.ndarray, batch: BatchDescriptor, shard: tuple[int, int] | None = None
    ) -> np.ndarray:
        column = np.asarray(w, dtype=float)[:, None]
        return self.stochastic_gradients(column, batch.batch_size, [batch.rng()], [shard])[:, 0]

    def stochastic_gradients(
        self,
        Phi: np.ndarray,
        batch_size: int,
        rngs: Iterable[np.random.Generator],
        shards: Sequence[tuple[int, int] | None] | None = None,
    ) -> np.ndarray:
        """Stochastic gradients of the columns of Phi, column l drawing from the l-th rng.

        Pure noise model: the sampled batch only sets the noise
        magnitude, so a shard assignment changes nothing here.
        """
        Phi = np.asarray(Phi, dtype=float)
        noise = np.empty((Phi.shape[1], self.dimension))
        for row, rng in zip(noise, rngs, strict=True):
            rng.standard_normal(out=row)
        noise_sd = self.noise_scale / np.sqrt(batch_size)
        return self.eigenvalues[:, None] * (Phi - self.optimum[:, None]) + noise_sd * noise.T


class LogisticObjective:
    """l2-regularized logistic regression on a fixed synthetic dataset."""

    kind = "logistic"

    def __init__(self, features: np.ndarray, labels: np.ndarray, ridge: float = LOGISTIC_RIDGE):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        self.ridge = float(ridge)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (n, d) with labels (n,)")
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be +-1")
        if not self.ridge >= 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")
        self.n_samples, self.dimension = self.features.shape

    def loss(self, w: np.ndarray) -> float:
        margins = self.labels * (self.features @ np.asarray(w, dtype=float))
        data_term = float(np.mean(np.logaddexp(0.0, -margins)))
        return data_term + 0.5 * self.ridge * float(np.dot(w, w))

    def loss_columns(self, W: np.ndarray) -> np.ndarray:
        margins = self.labels[:, None] * (self.features @ W)
        data_term = np.mean(np.logaddexp(0.0, -margins), axis=0)
        return data_term + 0.5 * self.ridge * np.einsum("il,il->l", W, W)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        margins = self.labels * (self.features @ w)
        coeff = -self.labels * _sigmoid(-margins)
        return (self.features.T @ coeff) / self.n_samples + self.ridge * w

    def _sample_indices(
        self, rng: np.random.Generator, batch_size: int, shard: tuple[int, int] | None
    ) -> np.ndarray:
        """batch_size sample indices drawn uniformly, with replacement, from
        the shard: samples index, index + count, ... (all data when None)."""
        if shard is None:
            return rng.integers(0, self.n_samples, batch_size)
        index, count = shard
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} outside 0..{count - 1}")
        return index + count * rng.integers(0, len(range(index, self.n_samples, count)), batch_size)

    def stochastic_gradient(
        self, w: np.ndarray, batch: BatchDescriptor, shard: tuple[int, int] | None = None
    ) -> np.ndarray:
        column = np.asarray(w, dtype=float)[:, None]
        return self.stochastic_gradients(column, batch.batch_size, [batch.rng()], [shard])[:, 0]

    def stochastic_gradients(
        self,
        Phi: np.ndarray,
        batch_size: int,
        rngs: Iterable[np.random.Generator],
        shards: Sequence[tuple[int, int] | None] | None = None,
    ) -> np.ndarray:
        """Stochastic gradients of the columns of Phi, column l sampling its
        minibatch with the l-th rng from its shard (all data when None)."""
        Phi = np.asarray(Phi, dtype=float)
        G = np.empty_like(Phi)
        if shards is None:
            shards = [None] * Phi.shape[1]
        for l, (rng, shard) in enumerate(zip(rngs, shards, strict=True)):
            w = Phi[:, l]
            picks = self._sample_indices(rng, batch_size, shard)
            X = self.features[picks]
            y = self.labels[picks]
            margins = y * (X @ w)
            coeff = -y * _sigmoid(-margins)
            G[:, l] = (X.T @ coeff) / batch_size + self.ridge * w
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
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not condition_number >= 1:
        raise ValueError(f"condition_number must be >= 1, got {condition_number}")
    eigenvalues = np.logspace(0.0, np.log10(condition_number), dimension)
    if optimum is None:
        optimum = seeding.stream(seed, seeding.TAG_DATA).standard_normal(dimension)
    return QuadraticObjective(eigenvalues, np.asarray(optimum, dtype=float), noise_scale)


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
    if dimension < 1 or n_samples < 2:
        raise ValueError("need dimension >= 1 and n_samples >= 2")
    if not separation >= 0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    rng = seeding.stream(seed, seeding.TAG_DATA)
    direction = rng.standard_normal(dimension)
    direction /= np.linalg.norm(direction)
    labels = np.ones(n_samples)
    labels[n_samples // 2 :] = -1.0
    features = rng.standard_normal((n_samples, dimension))
    features += np.outer(labels * (separation / 2.0), direction)
    return LogisticObjective(features, labels, ridge)


def gradient_check(oracle, w: np.ndarray, step: float = 1e-5) -> float:
    """Relative error between the analytic gradient and central differences.

    Independent route through the loss code only:
    (f(w + h e_i) - f(w - h e_i)) / 2h per coordinate.  Returns
    ||fd - grad|| / max(||grad||, 1e-12).
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    w = np.asarray(w, dtype=float)
    grad = oracle.gradient(w)
    fd = np.empty_like(grad)
    for i in range(len(w)):
        bump = np.zeros_like(w)
        bump[i] = step
        fd[i] = (oracle.loss(w + bump) - oracle.loss(w - bump)) / (2.0 * step)
    denom = max(float(np.linalg.norm(grad)), 1e-12)
    return float(np.linalg.norm(fd - grad)) / denom
