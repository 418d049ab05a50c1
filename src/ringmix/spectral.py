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
measurement, and Monte-Carlo estimators (with an exact enumeration
mode for single steps at small L).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import seeding
# conjugate_by_permutation is unused here; perfbench's tracer wraps this attribute.
from .mixing import build_ring_matrix, build_uniform_matrix, conjugate_by_permutation, sample_permutation

Z95 = 1.959963984540054  # two-sided 95% quantile of the standard normal


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
    squared mean).  Exact curves have zero half-widths.
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
    if n_learners < 3:
        raise ValueError(f"degenerate ring topology: need L >= 3, got {n_learners}")


def second_eigenvalue_ring(n_learners: int) -> float:
    """Closed-form second eigenvalue 1/3 + (2/3) cos(2 pi / L) of the ring.

    Equals rho for every ring size: the most negative eigenvalue is
    never below -1/3 in magnitude while lambda_2 >= 1/3 for L >= 4
    (and everything is 0 at L = 3).
    """
    _check_ring(n_learners)
    return 1.0 / 3.0 + (2.0 / 3.0) * math.cos(2.0 * math.pi / n_learners)


def spectral_rho(T: np.ndarray, symmetry_tol: float = 1e-10) -> SpectralReport:
    """Measure rho and the spectral gap of a mixing matrix by eigendecomposition.

    Expects a symmetric matrix; an asymmetric input is symmetrized to
    (T + T') / 2 with a warning when the asymmetry exceeds
    `symmetry_tol`.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"mixing matrix must be square, got {T.shape}")
    asym = float(np.max(np.abs(T - T.T))) if T.size else 0.0
    if asym > symmetry_tol:
        warnings.warn(
            f"mixing matrix asymmetry {asym:.3e} exceeds {symmetry_tol:.1e}; "
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
    """Spectral-norm distance ||T0^k - U||_2 for k = 1..k_max by explicit powering."""
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    T0 = build_ring_matrix(n_learners)
    U = build_uniform_matrix(n_learners)
    distances = np.empty(k_max)
    power = np.eye(n_learners)
    for k in range(1, k_max + 1):
        power = power @ T0
        distances[k - 1] = spectral_norm(power - U)
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
    T0: np.ndarray, U: np.ndarray, perms: np.ndarray, norm_kind: str
) -> np.ndarray:
    """Distance from U of each trial's prefix products, shaped (trials, k_max).

    perms is (trials, k_max, L): row t relabels T0 by perms[t, k] at step
    k.  Each step is one gather of the relabelled rings, one stacked
    matmul and one stacked norm.
    """
    values = np.empty(perms.shape[:2])
    for k in range(perms.shape[1]):
        p = perms[:, k]
        Tk = T0[p[:, :, None], p[:, None, :]]
        product = Tk if k == 0 else product @ Tk
        del Tk  # one stack fewer alive while the norms are taken
        values[:, k] = _stacked_norms(product - U, norm_kind)
    return values


def _trial_distances(
    T0: np.ndarray, U: np.ndarray, k_max: int, trials: int, seed: int, norm_kind: str
) -> np.ndarray:
    """Distance of every trial's k-step product from U, shaped (trials, k_max).

    Trial t relabels T0 by k_max permutations drawn in order from the
    stream (seed, TAG_TRIAL, t); trials are drawn and multiplied in
    chunks of at most _CHUNK_BYTES per (trials, L, L) stack.
    """
    L = T0.shape[0]
    values = np.empty((trials, k_max))
    chunk = max(1, _CHUNK_BYTES // (T0.itemsize * L * L))
    words = seeding.seed_words((seed, seeding.TAG_TRIAL), np.arange(trials)[:, None])
    for start in range(0, trials, chunk):
        rngs = map(seeding.generator, words[start : start + chunk])
        perms = np.empty((min(chunk, trials - start), k_max, L), dtype=np.intp)
        for i, rng in enumerate(rngs):
            for k in range(k_max):
                perms[i, k] = sample_permutation(L, rng)
        values[start : start + chunk] = _product_distances(T0, U, perms, norm_kind)
    return values


def _mean_halfwidth(x: np.ndarray, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-step mean over the trials (rows) of x and its 95% normal
    half-width; an exact enumeration has zero half-widths."""
    if exact:
        return x.mean(axis=0), np.zeros(x.shape[1])
    return x.mean(axis=0), Z95 * x.std(axis=0, ddof=1) / math.sqrt(len(x))


def monte_carlo_consensus(
    n_learners: int,
    k_max: int,
    trials: int,
    seed: int,
    norm_kind: str = "frobenius",
    exhaustive: bool = False,
) -> ConsensusCurve:
    """Estimate E ||T_1 ... T_k - U|| for k = 1..k_max over randomized rings.

    Each trial draws k_max fresh independent uniform permutations, in
    order, from its own stream (seed, TAG_TRIAL, trial index), so a
    trial's numbers do not depend on how many trials run or in which
    order.  It forms the running product of relabelled ring matrices and
    measures the distance to the uniform matrix at every prefix.  Trials
    are advanced together in chunks, one stacked matmul and one stacked
    norm per step; a chunk's (trials, L, L) stack is capped at 32 KiB
    (64 trials at L = 8, 4 at L = 32, one at a time from L = 46), so
    memory does not grow with `trials`.  The result is bit-identical to
    evaluating trial after trial.  Returns per-step means with 95% normal
    half-widths; for the Frobenius norm the squared distances are
    aggregated too, since the closed form predicts the squared mean.

    With `exhaustive=True` (single step only, L! <= 720) sampling is
    replaced by exact enumeration of all L! permutations: the returned
    means are exact expectations and the half-widths are zero.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    if norm_kind not in ("spectral", "frobenius"):
        raise ValueError(f"unknown norm_kind {norm_kind!r}; use 'spectral' or 'frobenius'")
    T0 = build_ring_matrix(n_learners)
    U = build_uniform_matrix(n_learners)

    if exhaustive:
        if k_max != 1:
            raise ValueError("exhaustive enumeration covers single steps only (k_max = 1)")
        if math.factorial(n_learners) > 720:
            raise ValueError(
                f"exhaustive enumeration needs L! <= 720, got L = {n_learners}"
            )
        perms = np.array(list(itertools.permutations(range(n_learners))), dtype=np.intp)
        values = _product_distances(T0, U, perms[:, None, :], norm_kind)
    else:
        if trials < 2:
            raise ValueError(f"need trials >= 2 for error bars, got {trials}")
        values = _trial_distances(T0, U, k_max, trials, seed, norm_kind)

    distances, halfwidths = _mean_halfwidth(values, exhaustive)
    squared = {}
    if norm_kind == "frobenius":
        sq_mean, sq_half = _mean_halfwidth(values**2, exhaustive)
        squared = dict(squared_distances=sq_mean, squared_halfwidths=sq_half)
    return ConsensusCurve(
        steps=np.arange(1, k_max + 1),
        distances=distances,
        norm_kind=norm_kind,
        halfwidths=halfwidths,
        trials=len(values),
        **squared,
    )
