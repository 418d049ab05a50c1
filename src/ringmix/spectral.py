"""Spectral analysis of ring mixing and randomized-ring consensus rates.

How fast repeated mixing pulls L learner models to their common mean is
governed by rho, the second-largest eigenvalue magnitude of the mixing
matrix: after k steps of the fixed ring the distance to the uniform
matrix is exactly rho^k in spectral norm.  For the 1/3-weighted ring

    rho(L) = 1/3 + (2/3) cos(2 pi / L),

which crawls toward 1 as L grows: a large fixed ring mixes slowly.

Re-drawing the ring's node labels uniformly at random each step changes
the picture.  With T_k = T0[p_k, p_k] for i.i.d. uniform permutations
p_k, the expected Gram matrix E[T_k' T_k] has diagonal 1/3 and
off-diagonal 2/(3(L-1)), and the expected squared Frobenius distance of
the k-step product from the uniform matrix is

    E ||T_1 ... T_k - U||_F^2 = -1 + tr(G^k) = (L-1) a^k,
    a = 1/3 - 2/(3(L-1)) < 1/3,

so consensus now decays geometrically at a rate bounded away from 1
independent of L.  The induced spectral-norm bound is
sqrt(L-1) / sqrt(3)^k.

This module provides the closed forms, eigendecomposition-based
measurement, and Monte-Carlo estimators.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import seeding
from .mixing import _check_ring_size, build_ring_matrix, build_uniform_matrix
# Unused here; perfbench's tracer wraps these attributes by name.
from .mixing import conjugate_by_permutation, sample_permutation

Z95 = 1.959963984540054  # two-sided 95% quantile of the standard normal
_SYMMETRY_TOL = 1e-10  # spectral_rho warns when max |T - T'| exceeds this


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary of a mixing matrix.

    rho is the largest magnitude among the non-principal eigenvalues,
    max(|lambda_2|, |lambda_L|) with eigenvalues sorted descending;
    spectral_gap = 1 - rho.  eigenvalues is the full descending list.
    """

    rho: float
    spectral_gap: float
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class ConsensusCurve:
    """Distance-to-uniform per step count.

    distances[i] is the (mean, for Monte-Carlo) distance after
    steps[i] mixing steps in the norm named by norm_kind ("spectral"
    or "frobenius").  Monte-Carlo curves carry 95% confidence
    half-widths and, for the Frobenius norm, the squared-distance
    statistics alongside (the randomized closed form predicts the
    squared mean).  Exact (fixed-ring) curves carry no half-widths.
    """

    steps: np.ndarray
    distances: np.ndarray
    norm_kind: str
    halfwidths: np.ndarray | None = None
    squared_distances: np.ndarray | None = None
    squared_halfwidths: np.ndarray | None = None
    trials: int | None = None


def _check_ring(n_learners: int, k: int = 0) -> None:
    """Reject a negative step count k, then a ring of fewer than 3 learners."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    _check_ring_size(n_learners)


def second_eigenvalue_ring(n_learners: int) -> float:
    """Closed-form second eigenvalue 1/3 + (2/3) cos(2 pi / L) of the ring.

    Equals rho for every ring size: the most negative eigenvalue is
    never below -1/3 in magnitude while lambda_2 >= 1/3 for L >= 4
    (and everything is 0 at L = 3).
    """
    _check_ring(n_learners)
    return 1.0 / 3.0 + (2.0 / 3.0) * math.cos(2.0 * math.pi / n_learners)


def spectral_rho(T: np.ndarray) -> SpectralReport:
    """Measure rho and the spectral gap of a mixing matrix by eigendecomposition.

    Expects a symmetric matrix; an asymmetric input is symmetrized to
    (T + T') / 2 with a warning when max |T - T'| exceeds 1e-10.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"mixing matrix must be square, got {T.shape}")
    asym = float(np.max(np.abs(T - T.T))) if T.size else 0.0
    if asym > _SYMMETRY_TOL:
        warnings.warn(
            f"mixing matrix asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL:.1e}; "
            "symmetrizing before eigendecomposition",
            stacklevel=2,
        )
    sym = 0.5 * (T + T.T)
    eigenvalues = np.sort(np.linalg.eigvalsh(sym))[::-1]
    if len(eigenvalues) < 2:
        rho = 0.0
    else:
        rho = max(abs(float(eigenvalues[1])), abs(float(eigenvalues[-1])))
    return SpectralReport(rho=rho, spectral_gap=1.0 - rho, eigenvalues=eigenvalues)


def fixed_mixing_consensus_bound(n_learners: int, k: int) -> float:
    """rho(L)^k: spectral-norm distance of the k-step fixed ring from uniform."""
    _check_ring(n_learners, k)
    return second_eigenvalue_ring(n_learners) ** k


def expected_gram(n_learners: int) -> np.ndarray:
    """Expected Gram matrix E[T' T] of a uniformly relabelled ring.

    Diagonal 1/3 (each column of the ring has squared norm 1/3),
    off-diagonal 2/(3(L-1)) (average off-diagonal mass of the ring's
    Gram spread uniformly by the random relabelling).  Doubly
    stochastic with eigenvalues {1, a, ..., a},
    a = 1/3 - 2/(3(L-1)).
    """
    _check_ring(n_learners)
    L = n_learners
    off = 2.0 / (3.0 * (L - 1))
    G = np.full((L, L), off)
    np.fill_diagonal(G, 1.0 / 3.0)
    return G


def _gram_decay(n_learners: int) -> float:
    return 1.0 / 3.0 - 2.0 / (3.0 * (n_learners - 1))


def randomized_frobenius_expectation(n_learners: int, k: int) -> float:
    """E ||T_1 ... T_k - U||_F^2 = (L-1) (1/3 - 2/(3(L-1)))^k, exactly.

    Equal to -1 + tr(G^k) for the expected Gram matrix G; bounded above
    by (L-1)/3^k.
    """
    _check_ring(n_learners, k)
    return (n_learners - 1) * _gram_decay(n_learners) ** k


def randomized_consensus_bound(n_learners: int, k: int) -> float:
    """sqrt(L-1) / sqrt(3)^k: upper bound on the expected spectral distance.

    Follows from the Frobenius expectation via Jensen and
    ||.||_2 <= ||.||_F.
    """
    _check_ring(n_learners, k)
    return math.sqrt(n_learners - 1) / 3.0 ** (k / 2.0)


def spectral_norm(D: np.ndarray) -> float:
    """||D||_2 via the symmetric eigendecomposition of D' D.

    Works for the non-symmetric differences produced by randomized
    products; sqrt of the largest (clipped at 0) Gram eigenvalue.
    """
    D = np.asarray(D, dtype=float)
    gram_eigs = np.linalg.eigvalsh(D.T @ D)
    return float(np.sqrt(max(float(gram_eigs[-1]), 0.0)))


def frobenius_norm(D: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(D, dtype=float)))


def fixed_consensus_curve(n_learners: int, k_max: int) -> ConsensusCurve:
    """Spectral-norm distance ||T0^k - U||_2 for k = 1..k_max.

    T0^k is the relabelled-ring product with every label left in place,
    so this is the Monte Carlo product loop run on one trial whose every
    step is T0 itself.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    T0 = build_ring_matrix(n_learners)
    U = build_uniform_matrix(n_learners)
    distances = _product_distances([T0[None]] * k_max, U, ("spectral",))[0, 0]
    return ConsensusCurve(
        steps=np.arange(1, k_max + 1), distances=distances, norm_kind="spectral"
    )


def _stacked_norms(D: np.ndarray, norm_kind: str) -> np.ndarray:
    """Norms of the stacked matrices D[i], each bit-identical to
    `spectral_norm(D[i])` or `frobenius_norm(D[i])`.

    The stacked matmul, D' D and eigvalsh run the same BLAS/LAPACK call
    per matrix as their two-dimensional forms, and the Frobenius norm is
    the same vector dot; `np.linalg.norm(axis=...)` and `einsum` sum in
    another order and are avoided.
    """
    if norm_kind == "spectral":
        gram_eigs = np.linalg.eigvalsh(np.swapaxes(D, 1, 2) @ D)
        return np.sqrt(np.maximum(gram_eigs[:, -1], 0.0))
    flat = D.reshape(len(D), 1, -1)
    return np.sqrt((flat @ np.swapaxes(flat, 1, 2))[:, 0, 0])


# Bytes of one (trials, L, L) stack in the Monte Carlo loop: trials are
# advanced together in chunks of at most this size.  Larger chunks run a
# little faster (about 6% at 64 KiB over L = 8..64) but hold more memory
# than the trial-by-trial loop did; at 32 KiB they hold less.
_CHUNK_BYTES = 32 * 1024


def _product_distances(
    rings: Iterable[np.ndarray], U: np.ndarray, kinds: tuple[str, ...]
) -> np.ndarray:
    """Distance from U of each trial's prefix products in each norm of
    `kinds`, shaped (kinds, trials, k_max).

    rings yields each step's (trials, L, L) stack of ring matrices; each
    step is one stacked matmul and one stacked norm of product - U per kind.
    """
    steps, product = [], None
    # Not enumerate(rings): its reused result tuple would keep Tk alive.
    for Tk in rings:
        product = Tk if product is None else product @ Tk
        del Tk  # one stack fewer alive while the norms are taken
        D = product - U
        steps.append([_stacked_norms(D, kind) for kind in kinds])
    return np.array(steps).transpose(1, 2, 0)


def _trial_distances(
    T0: np.ndarray, U: np.ndarray, k_max: int, trials: int, seed: int, kinds: tuple[str, ...]
) -> np.ndarray:
    """Distance of every trial's k-step product from U in each norm of
    `kinds`, shaped (kinds, trials, k_max).

    Trial t relabels T0 by k_max permutations drawn from the stream
    (seed, TAG_TRIAL, t) by one `permuted` call over k_max rows of labels:
    the same permutations, leaving the stream in the same state, as k_max
    `sample_permutation` calls.  Trials are drawn and multiplied in chunks
    of at most _CHUNK_BYTES per (trials, L, L) stack.
    """
    L = T0.shape[0]
    values = np.empty((len(kinds), trials, k_max))
    chunk = max(1, _CHUNK_BYTES // (T0.itemsize * L * L))
    words = seeding.seed_words((seed, seeding.TAG_TRIAL), np.arange(trials)[:, None])
    labels = np.broadcast_to(np.arange(L), (k_max, L))
    for start in range(0, trials, chunk):
        rngs = map(seeding.generator, words[start : start + chunk])
        perms = np.empty((min(chunk, trials - start), k_max, L), dtype=np.intp)
        for i, rng in enumerate(rngs):
            rng.permuted(labels, axis=1, out=perms[i])
        rings = (T0[p[:, :, None], p[:, None, :]] for p in perms.swapaxes(0, 1))
        values[:, start : start + chunk] = _product_distances(rings, U, kinds)
    return values


def _mean_halfwidth(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step mean over the trials (rows) of x and its 95% normal half-width."""
    return x.mean(axis=0), Z95 * x.std(axis=0, ddof=1) / math.sqrt(len(x))


def _monte_carlo_curves(
    n_learners: int, k_max: int, trials: int, seed: int, kinds: tuple[str, ...]
) -> tuple[ConsensusCurve, ...]:
    """`monte_carlo_consensus` for each norm of `kinds`, from one product pass."""
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    for kind in kinds:
        if kind not in ("spectral", "frobenius"):
            raise ValueError(f"unknown norm_kind {kind!r}; use 'spectral' or 'frobenius'")
    T0 = build_ring_matrix(n_learners)
    U = build_uniform_matrix(n_learners)
    if trials < 2:
        raise ValueError(f"need trials >= 2 for error bars, got {trials}")
    curves = []
    for kind, values in zip(kinds, _trial_distances(T0, U, k_max, trials, seed, kinds)):
        distances, halfwidths = _mean_halfwidth(values)
        squared = _mean_halfwidth(values**2) if kind == "frobenius" else (None, None)
        curves.append(ConsensusCurve(
            steps=np.arange(1, k_max + 1),
            distances=distances,
            norm_kind=kind,
            halfwidths=halfwidths,
            squared_distances=squared[0],
            squared_halfwidths=squared[1],
            trials=trials,
        ))
    return tuple(curves)


def monte_carlo_consensus(
    n_learners: int,
    k_max: int,
    trials: int,
    seed: int,
    norm_kind: str = "frobenius",
) -> ConsensusCurve:
    """Estimate E ||T_1 ... T_k - U|| for k = 1..k_max over randomized rings.

    Each trial draws k_max fresh independent uniform permutations, in
    order, from its own stream (seed, TAG_TRIAL, trial index), all in one
    `permuted` call, so a trial's numbers do not depend on how many
    trials run or in which order.  It forms the running product of
    relabelled ring matrices and measures the distance to the uniform
    matrix at every prefix.  This is the module's one product loop: the
    fixed ring runs it with T0 at every step, and one pass can measure
    several norms (verify-bounds takes both from it).  Trials are
    advanced together in chunks, one stacked matmul and one stacked norm
    per step; a chunk's (trials, L, L) stack is capped at 32 KiB (64
    trials at L = 8, 4 at L = 32, one at a time from L = 46), so memory
    does not grow with `trials`.  The result is bit-identical to
    evaluating trial after trial.  Returns per-step means with 95% normal
    half-widths; for the Frobenius norm the squared distances are
    aggregated too, since the closed form predicts the squared mean.
    """
    return _monte_carlo_curves(n_learners, k_max, trials, seed, (norm_kind,))[0]
