"""Sample chi-squared and the paired pair-cumulant estimator.

The one sample divergence is the histogram chi-squared, the binned form of
the weighted L2 distance the rate predictions are made in, with its
closed-form additive bias removed.  Its standard error comes from bootstrap
over replicas, never over pooled tuples, because tuples cut from one replica
are correlated.  chi_squared_from_samples and divergence_report_from_samples
share one binning and bootstrap pass; each keeps its own Philox stream.

paired_pair_cumulant_difference combines per-replica pair statistics of two
coupled systems into an unbiased estimate of the difference of their pair
cumulants, with a leave-one-replica-out jackknife error.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .core import GridField, check_density, product_field
from .pde import _weighted_sq

__all__ = [
    "weighted_l2_error",
    "bin_masses",
    "histogram_bins",
    "chi_squared_from_samples",
    "paired_pair_cumulant_difference",
    "DivergenceReport",
    "divergence_report_from_samples",
]


def weighted_l2_error(gamma: GridField, rho: GridField) -> float:
    """Weighted squared distance  integral |gamma / rho^j|^2 rho^j  by quadrature.

    gamma has arity j; rho is the weight, a density that passes
    core.check_density on gamma's grid.
    """
    check_density(rho, "weight density")
    if rho.grid != gamma.grid:
        raise ValueError("fields must share a grid")
    w = product_field(rho, gamma.arity).values
    return _weighted_sq(gamma.values, w, gamma.grid.h, gamma.arity)


# ---------------------------------------------------------------------------
# histogram machinery for sample-based estimates


def _bin_matrix(M: int, bins: int) -> np.ndarray:
    """(bins, M) matrix whose row b integrates over [b/bins, (b+1)/bins) the
    trigonometric interpolant of values at the M grid points.

    Mode m of the interpolant integrates over the first bin to
    I_m = (e^{2 pi i m/bins} - 1)/(2 pi i m), so row 0 is the inverse real
    transform of conj(I_m); an even M's Nyquist mode integrates to zero over
    every bin, because bins divides M.  One bin is M/bins grid points, so
    row b is row 0 rolled by b M/bins.  Phases are reduced as integers mod
    bins before they reach exp, so the matrix is accurate to roundoff at
    every M.
    """
    m = np.arange(1, M // 2 + 1)
    spectrum = np.empty(M // 2 + 1, dtype=complex)
    spectrum[0] = 1.0 / bins
    spectrum[1:] = (np.exp(-2j * np.pi * (m % bins) / bins) - 1) / (-2j * np.pi * m)
    if M % 2 == 0:
        spectrum[-1] = 0.0
    row = np.fft.irfft(spectrum, n=M)
    return row[(np.arange(M) - M // bins * np.arange(bins)[:, None]) % M]


def bin_masses(reference: GridField, bins: int) -> np.ndarray:
    """Cell masses of a grid field on a bins^axes histogram.

    Each mass is the exact integral over its cell of the field's
    trigonometric interpolant: one (bins, M) matrix applied along every
    axis.  The grid size must be a multiple of bins.
    """
    grid = reference.grid
    if bins < 1 or grid.M % bins:
        raise ValueError("bins must divide the grid size")
    mat = _bin_matrix(grid.M, bins)
    v = reference.values
    for _ in range(reference.arity):
        v = np.tensordot(v, mat, axes=(0, 1))  # contracts the leading axis, appends its bins
    return v


def histogram_bins(bins: int, j: int) -> int:
    """Bins per axis of the j-particle histogram: bins for j = 1, else bins // 4 (at least 2)."""
    return bins if j == 1 else max(2, bins // 4)


def _cell_indices(samples, bins):
    x = np.asarray(samples, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    n, j, d = x.shape
    flat = x.reshape(n, j * d)
    if not (flat.min() >= 0 and flat.max() < 1.0):  # a NaN fails both
        raise ValueError("sample coordinates must lie in [0, 1)")
    idx = np.minimum((flat * bins).astype(int), bins - 1)
    ravel = np.zeros(n, dtype=np.int64)
    for a in range(j * d):
        ravel = ravel * bins + idx[:, a]
    return ravel, j * d


def _replica_count_matrix(ravel, replica_ids, n_cells):
    """Per-replica histogram rows (R, n_cells) from per-sample cell indices, in sorted label order."""
    reps, inv = np.unique(replica_ids, return_inverse=True)
    R = len(reps)
    return np.bincount(inv.reshape(-1) * n_cells + ravel, minlength=R * n_cells).reshape(R, n_cells)


_N_BOOTSTRAP = 200  # replica resamples behind every standard error
_BOOTSTRAP_BLOCK = 2 ** 14  # replica draws per block of resamples: W's working set stays ~0.4 MB


def _chi2_stat(counts, q):
    """Bias-corrected chi-squared of each row of counts (rows, cells) against the cell masses q.

    Under the null the raw statistic carries an additive bias of
    (cells - 1)/n for a row of total n, which is subtracted.
    """
    n = counts.sum(axis=1)
    phat = counts / n[:, None]
    return ((phat - q) ** 2 / q).sum(axis=1) - (len(q) - 1) / n


def _binned_bootstrap(samples, reference, bins, replica_ids, seed, tag):
    """Chi-squared of the binned samples against the binned reference, with its resamples.

    Returns (estimate, boots, n, R): boots[b] is the chi-squared of the b-th
    of _N_BOOTSTRAP bootstrap resamples of whole replicas, drawn from the
    Philox stream (seed, tag).  The cell count is capped at n/50 so every
    cell is populated in expectation.  The draws come a block of resamples
    per call: the bit generator carries its state from value to value, so
    they are the values one call of size R per resample would give.  Row b
    of W counts how often the b-th draw picked each replica, so the
    resamples' cell counts are the rows of W @ mat.  Every entry is an
    integer below 2^53, so the float product is exact whatever order BLAS
    sums in.
    """
    ravel, axes = _cell_indices(samples, bins)
    n = len(ravel)
    n_cells = bins ** axes
    if n_cells > n / 50:
        raise ValueError(
            f"too many cells: {bins}^{axes} = {n_cells} exceeds n/50 = {n / 50:.0f}"
        )
    q = bin_masses(reference, bins).reshape(-1)
    low = int(q.argmin())
    if not q[low] > 0:  # a reference that is not smooth rings below 0; argmin finds a nan
        cell = tuple(int(i) for i in np.unravel_index(low, (bins,) * axes))
        raise ValueError(f"reference mass that is not positive: {q[low]:.3g}, "
                         f"in cell {cell} of {bins}^{axes}")
    if replica_ids is None:
        replica_ids = np.arange(n)
    est = _chi2_stat(np.bincount(ravel, minlength=n_cells)[None], q)[0]

    mat = _replica_count_matrix(ravel, replica_ids, n_cells).astype(float)
    R = mat.shape[0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, tag))))
    counts = np.empty((_N_BOOTSTRAP, n_cells))
    block = max(1, _BOOTSTRAP_BLOCK // R)
    for b in range(0, _N_BOOTSTRAP, block):
        picks = rng.integers(0, R, size=(min(block, _N_BOOTSTRAP - b), R))
        picks += np.arange(0, picks.size, R)[:, None]
        W = np.bincount(picks.ravel(), minlength=picks.size).reshape(picks.shape)
        counts[b:b + len(W)] = W.astype(float) @ mat
    return est, _chi2_stat(counts, q), n, R


def chi_squared_from_samples(samples: np.ndarray, reference: GridField, bins: int,
                             replica_ids: np.ndarray | None = None, seed: int = 0):
    """Bias-corrected histogram chi-squared of samples against a reference field.

    Returns (estimate, standard_error); the error is the spread of the
    replica bootstrap of _binned_bootstrap.  More cells than n/50, or a
    reference cell mass that is not positive, is a ValueError.
    """
    est, boots, _, _ = _binned_bootstrap(samples, reference, bins, replica_ids, seed, 0xC2)
    return float(est), float(boots.std(ddof=1))


# ---------------------------------------------------------------------------
# pair cumulants


def _estimate_and_loo(u: np.ndarray, abar: np.ndarray, bbar: np.ndarray):
    """The combination mean(u) - mean(abar) mean(bbar) + cov(abar, bbar)/R over
    all R replicas, and the array of its R leave-one-replica-out values."""

    def combine(R, tu, ta, tb, tab):  # from the sums of u, abar, bbar, abar*bbar
        U = tu / R
        va, vb = ta / R, tb / R
        cov = (tab - R * va * vb) / (R - 1)
        return U - va * vb + cov / R

    terms = (u, abar, bbar, abar * bbar)
    sums = [t.sum() for t in terms]
    R = len(u)
    return combine(R, *sums), combine(R - 1, *(s - t for s, t in zip(sums, terms)))


def _jackknife_se(loo: np.ndarray) -> float:
    R = len(loo)
    return math.sqrt((R - 1) / R * ((loo - loo.mean()) ** 2).sum())


def paired_pair_cumulant_difference(
    u_a: np.ndarray,
    abar_a: np.ndarray,
    bbar_a: np.ndarray,
    u_b: np.ndarray,
    abar_b: np.ndarray,
    bbar_b: np.ndarray,
):
    """Difference of two pair-cumulant estimates built on coupled replicas.

    For each system, u[r] is an unbiased within-replica estimate of the
    distinct-slot cross moment E[a(X_1) b(X_2)] and abar[r], bbar[r] are the
    replica means of the two observables.  Correcting the product of grand
    means by the between-replica covariance of the replica means makes

        mean(u) - mean(abar) mean(bbar) + cov(abar, bbar)/R

    exactly unbiased for the covariance.  The two statistic triples come from
    the same replicas (e.g. a system and a synchronously-coupled control
    whose true cumulant is known to vanish), so the difference of the two
    estimates removes the noise they share; the standard error is a
    leave-one-replica-out jackknife of that difference, which keeps the
    pairing intact.  An all-zero control gives the single-system estimate
    and its jackknife error.  Returns (estimate, jackknife se).
    """
    stats = [np.asarray(a, dtype=float) for a in (u_a, abar_a, bbar_a, u_b, abar_b, bbar_b)]
    R = len(stats[0])
    if any(len(s) != R for s in stats):
        raise ValueError("all replica statistic arrays must share a length")
    if R < 3:
        raise ValueError("need at least three replicas")
    est_a, loo_a = _estimate_and_loo(*stats[:3])
    est_b, loo_b = _estimate_and_loo(*stats[3:])
    return float(est_a - est_b), _jackknife_se(loo_a - loo_b)


# ---------------------------------------------------------------------------
# aggregated report


class DivergenceReport(NamedTuple):
    """Histogram chi-squared of a sample cloud against a reference density."""

    chi_squared: float
    se_chi_squared: float
    bins: int
    n_samples: int
    n_replicas: int

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=1)


def divergence_report_from_samples(samples: np.ndarray, reference: GridField, bins: int,
                                   replica_ids: np.ndarray | None = None,
                                   seed: int = 0) -> DivergenceReport:
    """Bias-corrected chi-squared of a binned sample cloud against the binned
    reference, with its replica-bootstrap standard error and the sizes it
    was taken over."""
    est, boots, n, R = _binned_bootstrap(samples, reference, bins, replica_ids, seed, 0xD1)
    return DivergenceReport(float(est), float(boots.std(ddof=1)), bins, n, R)
