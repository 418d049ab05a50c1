"""Doubly stochastic mixing matrices for gossip averaging on a ring.

Weights live in a d x L matrix W, one column per learner.  A mixing
step replaces each column with a convex combination of columns,
W -> W @ T, where T is doubly stochastic: column-stochasticity makes
every new column a weighted average, row-stochasticity preserves the
column mean (so averaging never moves the fleet's mean model).

Provided here:

- the ring matrix: each learner averages itself and its two ring
  neighbours with weight 1/3,
- the uniform matrix (1/L everywhere), equivalent to a global
  allreduce-and-divide,
- uniform random permutations and conjugation T -> T[p, p], which
  relabels which learner sits at which ring position while keeping the
  spectrum intact,
- `apply_mixing`, with an exact column-mean broadcast fast path for the
  uniform matrix,
- a non-throwing double-stochasticity checker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from ._checks import _require


@dataclass(frozen=True)
class StochasticityReport:
    """Result of `verify_doubly_stochastic`.  Reports, never raises."""

    max_row_error: float    # max |row sum - 1|
    max_col_error: float    # max |column sum - 1|
    min_entry: float        # most negative entry (>= -tol required)
    tol: float
    ok: bool


def _check_ring_size(n_learners: int) -> int:
    """`n_learners` as a ring's size, checked by `_require`."""
    return _require("n_learners", n_learners, ">= 3", int)


def build_ring_matrix(n_learners: int) -> np.ndarray:
    """Mixing matrix of the 1/3-weighted ring on `n_learners` nodes.

    Entry (i, j) is 1/3 when j is i or an immediate ring neighbour of i
    (indices mod L), else 0.  Symmetric and doubly stochastic.  A ring
    needs at least three distinct positions; L < 3 is a degenerate
    topology (at L = 2 "left" and "right" neighbour coincide) and is
    rejected.
    """
    n_learners = _check_ring_size(n_learners)
    third = 1.0 / 3.0
    T = np.zeros((n_learners, n_learners))
    idx = np.arange(n_learners)
    T[idx, idx] = third
    T[idx, (idx + 1) % n_learners] = third
    T[idx, (idx - 1) % n_learners] = third
    return T


def build_uniform_matrix(n_learners: int) -> np.ndarray:
    """All-entries-1/L matrix: one application averages every column to the mean."""
    n_learners = _require("n_learners", n_learners, ">= 1", int)
    return np.full((n_learners, n_learners), 1.0 / n_learners)


def sample_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of range(n) drawn from `rng`."""
    return rng.permutation(_require("n", n, ">= 1", int))


def permutation_for_step(n: int, shared_seed: int, step: int) -> np.ndarray:
    """Permutation for iteration `step`, a pure function of (shared_seed, step).

    Every learner holding the same shared seed derives the same
    permutation for the same step without communicating, which is what
    lets a randomized ring re-wire itself each iteration for free.
    """
    return sample_permutation(n, seeding.stream(shared_seed, seeding.TAG_PERMUTATION, step))


def conjugate_by_permutation(T: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relabelled matrix with entry (i, j) = T[perm[i], perm[j]].

    Orthogonal similarity transform: the eigenvalue multiset is
    preserved exactly, double stochasticity too.  For a ring matrix the
    result is the ring re-wired so that learner i's neighbours are the
    learners mapped next to it.
    """
    T, perm = np.asarray(T), np.asarray(perm)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"mixing matrix must be square, got {T.shape}")
    n = len(T)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm is not a permutation of range(n)")
    return T[np.ix_(perm, perm)]


def apply_mixing(W: np.ndarray, T: np.ndarray) -> np.ndarray:
    """One averaging step: returns W @ T (columns of W are learner models).

    The uniform matrix is applied as an exact column-mean broadcast
    instead of a general matmul.  That realizes it the way a real
    system does (allreduce, then divide), collapses consensus distance
    to exactly zero, and keeps the arithmetic identical for any matrix
    whose entries all equal 1/L, however it was built.
    """
    W, T = np.asarray(W), np.asarray(T)
    if W.ndim != 2 or T.ndim != 2 or T.shape[0] != T.shape[1] or not T.size:
        raise ValueError(f"expected W (d, L) and square nonempty T, got {W.shape} and {T.shape}")
    if W.shape[1] != T.shape[0]:
        raise ValueError(
            f"size mismatch: W has {W.shape[1]} columns, T is {T.shape[0]}x{T.shape[0]}"
        )
    L = T.shape[0]
    if np.all(T == 1.0 / L):
        mean = W.mean(axis=1, keepdims=True)
        return np.tile(mean, (1, L))
    return W @ T


def verify_doubly_stochastic(T: np.ndarray, tol: float = 1e-12) -> StochasticityReport:
    """Check row sums, column sums and non-negativity to `tol`.

    Diagnostic: returns a report and never raises, so it can run on
    deliberately broken inputs.
    """
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or not T.size:
        return StochasticityReport(np.inf, np.inf, -np.inf, tol, False)
    row_err = float(np.max(np.abs(T.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(T.sum(axis=0) - 1.0)))
    min_entry = float(T.min())
    ok = row_err <= tol and col_err <= tol and min_entry >= -tol
    return StochasticityReport(row_err, col_err, min_entry, tol, ok)
