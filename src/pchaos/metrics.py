"""Divergence and cumulant estimators against reference densities.

Grid-to-grid divergences are plain quadrature.  Sample-based estimates use
histogram binning with the closed-form additive chi-squared bias removed, and
standard errors come from bootstrap over replicas, never over pooled tuples,
because tuples cut from one replica are correlated.

joint_cumulant is an exactly unbiased k-statistic for any order j <= 4: for
each partition of the observable slots, the product of block moments is
estimated by a distinct-row symmetric mean (rows never shared between
blocks), expanded by inclusion-exclusion over row coincidences, and the
signed partition sum then inverts moments to cumulants.  For tuples that
share replicas (correlated rows) a grouped pair estimator handles j = 2,
combining within-replica distinct-particle products with an exact correction
for the replica-mean covariance.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import GridField, product_field, trig_interp
from .partitions import enumerate_partitions, mobius_weight

__all__ = [
    "weighted_l2_error",
    "chi_squared_grid",
    "relative_entropy_grid",
    "total_variation_grid",
    "bin_masses",
    "bin_samples",
    "chi_squared_from_samples",
    "joint_cumulant",
    "pair_cumulant_from_replica_stats",
    "paired_pair_cumulant_difference",
    "DivergenceReport",
    "divergence_report_from_samples",
]


def weighted_l2_error(gamma: GridField, rho: GridField) -> float:
    """Weighted squared distance  integral |gamma / rho^j|^2 rho^j  by quadrature.

    gamma has arity j; rho is the arity-1 weight density, required strictly
    positive on the grid.
    """
    if rho.arity != 1:
        raise ValueError("weight must be an arity-1 density")
    if rho.grid != gamma.grid:
        raise ValueError("fields must share a grid")
    if rho.values.min() <= 0:
        raise ValueError("weight density must be strictly positive")
    w = product_field(rho, gamma.arity).values
    h = gamma.grid.h
    return float(h ** (gamma.grid.dim * gamma.arity) * (gamma.values ** 2 / w).sum())


def _density_pair(p: GridField, q: GridField):
    if p.grid != q.grid or p.arity != q.arity:
        raise ValueError("fields must share grid and arity")
    pv = np.asarray(p.values, dtype=float)
    qv = np.asarray(q.values, dtype=float)
    if pv.min() < -1e-12 or qv.min() < -1e-12:
        raise ValueError("densities must be nonnegative")
    h = p.grid.h ** (p.grid.dim * p.arity)
    return np.clip(pv, 0.0, None), np.clip(qv, 0.0, None), h


def chi_squared_grid(p: GridField, q: GridField) -> float:
    """chi^2(p | q) = integral (p - q)^2 / q; q must be strictly positive."""
    pv, qv, h = _density_pair(p, q)
    if qv.min() <= 0:
        raise ValueError("reference must be strictly positive")
    return float(h * ((pv - qv) ** 2 / qv).sum())


def relative_entropy_grid(p: GridField, q: GridField) -> float:
    """integral p log(p/q) with 0 log 0 = 0; rejects p > 0 where q = 0."""
    pv, qv, h = _density_pair(p, q)
    pos = pv > 0
    if np.any(qv[pos] <= 0):
        raise ValueError("support violation: p > 0 where q = 0")
    out = np.zeros_like(pv)
    out[pos] = pv[pos] * np.log(pv[pos] / qv[pos])
    return float(h * out.sum())


def total_variation_grid(p: GridField, q: GridField) -> float:
    """(1/2) integral |p - q|."""
    pv, qv, h = _density_pair(p, q)
    return float(0.5 * h * np.abs(pv - qv).sum())


# ---------------------------------------------------------------------------
# histogram machinery for sample-based estimates


def bin_masses(reference: GridField, bins: int) -> np.ndarray:
    """Cell probability masses of a grid field on a bins^axes histogram.

    The grid size must be a multiple of bins so cells align with grid points.
    """
    grid = reference.grid
    if bins < 1 or grid.M % bins:
        raise ValueError("bins must divide the grid size")
    axes = grid.dim * reference.arity
    per = grid.M // bins
    vals = reference.values
    shape = []
    for _ in range(axes):
        shape.extend([bins, per])
    v = vals.reshape(shape)
    for ax in reversed(range(1, 2 * axes, 2)):
        v = v.sum(axis=ax)
    return v * grid.h ** axes


def _cell_indices(samples, bins):
    x = np.asarray(samples, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    n, j, d = x.shape
    flat = x.reshape(n, j * d)
    if flat.min() < 0 or flat.max() >= 1.0:
        raise ValueError("sample coordinates must lie in [0, 1)")
    idx = np.minimum((flat * bins).astype(int), bins - 1)
    ravel = np.zeros(n, dtype=np.int64)
    for a in range(j * d):
        ravel = ravel * bins + idx[:, a]
    return ravel, j * d


def bin_samples(samples: np.ndarray, bins: int) -> np.ndarray:
    """Flat cell counts of (n, j, d) samples on the bins^(j*d) lattice."""
    ravel, axes = _cell_indices(samples, bins)
    return np.bincount(ravel, minlength=bins ** axes)


def _replica_count_matrix(ravel, replica_ids, n_cells):
    """Per-replica histogram rows (R, n_cells) from per-sample cell indices."""
    reps, inv = np.unique(replica_ids, return_inverse=True)
    mat = np.zeros((len(reps), n_cells), dtype=np.int64)
    np.add.at(mat, (inv, ravel), 1)
    return mat


def _chi2_stat(counts, n, q, n_cells):
    phat = counts / n
    return float(((phat - q) ** 2 / q).sum() - (n_cells - 1) / n)


def chi_squared_from_samples(
    samples: np.ndarray,
    reference: GridField,
    bins: int,
    replica_ids: np.ndarray | None = None,
    n_bootstrap: int = 200,
    seed: int = 0,
):
    """Bias-corrected histogram chi-squared of samples against a reference field.

    Returns (estimate, standard_error).  The raw histogram statistic carries
    an additive bias of (cells - 1)/n under the null, which is subtracted;
    the standard error comes from bootstrap resampling whole replicas.  The
    cell count is capped at n/50 so every cell is populated in expectation.
    """
    ravel, axes = _cell_indices(samples, bins)
    n = len(ravel)
    n_cells = bins ** axes
    if n_cells > n / 50:
        raise ValueError(
            f"too many cells: {bins}^{axes} = {n_cells} exceeds n/50 = {n / 50:.0f}"
        )
    q = bin_masses(reference, bins).reshape(-1)
    if q.min() <= 0:
        raise ValueError("reference assigns zero mass to some cell")
    if replica_ids is None:
        replica_ids = np.arange(n)
    counts = np.bincount(ravel, minlength=n_cells)
    est = _chi2_stat(counts, n, q, n_cells)

    mat = _replica_count_matrix(ravel, replica_ids, n_cells)
    R = mat.shape[0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xC2))))
    boots = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        pick = rng.integers(0, R, size=R)
        c = mat[pick].sum(axis=0)
        boots[b] = _chi2_stat(c, c.sum(), q, n_cells)
    return est, float(boots.std(ddof=1))


# ---------------------------------------------------------------------------
# joint cumulants


def _observable_values(samples: np.ndarray, observables) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    n, j, d = x.shape
    if len(observables) != j:
        raise ValueError("need one observable per tuple slot")
    vals = np.empty((n, j))
    for a, phi in enumerate(observables):
        coords = x[:, a, 0] if d == 1 else x[:, a, :]
        if isinstance(phi, GridField):
            if d != 1:
                raise ValueError("grid-field observables are one-dimensional")
            vals[:, a] = trig_interp(phi, coords)
        else:
            vals[:, a] = phi(coords)
    return vals


def _distinct_product_mean(vals: np.ndarray, blocks) -> float:
    """Unbiased estimate of prod_B E[prod_{i in B} v_i] using distinct rows.

    The sum over pairwise-distinct row assignments (one row per block) is
    expanded by inclusion-exclusion over which blocks coincide on a row:
    merging a group C of blocks contributes (-1)^(|C|-1) (|C|-1)! times the
    plain sum of the merged column product.
    """
    n = vals.shape[0]
    p = len(blocks)
    if n < p:
        raise ValueError(f"need at least {p} rows for a {p}-block moment")
    col = [vals[:, [i - 1 for i in B]].prod(axis=1) for B in blocks]
    total = 0.0
    for sigma in enumerate_partitions(p):
        coef = 1.0
        term = 1.0
        for C in sigma.blocks:
            coef *= (-1.0) ** (len(C) - 1) * math.factorial(len(C) - 1)
            merged = np.ones(n)
            for t in C:
                merged = merged * col[t - 1]
            term *= merged.sum()
        total += coef * term
    denom = 1.0
    for m in range(p):
        denom *= n - m
    return total / denom


def _kstat(vals: np.ndarray) -> float:
    """Unbiased joint cumulant of the columns of vals over i.i.d. rows."""
    j = vals.shape[1]
    out = 0.0
    for pi in enumerate_partitions(j):
        out += mobius_weight(pi) * _distinct_product_mean(vals, pi.blocks)
    return float(out)


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


def pair_cumulant_from_replica_stats(u: np.ndarray, abar: np.ndarray, bbar: np.ndarray):
    """Combine per-replica pair statistics into an unbiased covariance estimate.

    u[r] is an unbiased within-replica estimate of the distinct-slot cross
    moment E[a(X_1) b(X_2)]; abar[r], bbar[r] are the replica means of the
    two observables.  The product of grand means is corrected by the
    between-replica covariance of the replica means, which makes

        mean(u) - mean(abar) mean(bbar) + cov(abar, bbar)/R

    exactly unbiased for the covariance.  Returns (estimate, jackknife se).
    """
    u = np.asarray(u, dtype=float)
    abar = np.asarray(abar, dtype=float)
    bbar = np.asarray(bbar, dtype=float)
    R = len(u)
    if R < 3:
        raise ValueError("need at least three replicas")

    est, loo = _estimate_and_loo(u, abar, bbar)
    return float(est), _jackknife_se(loo)


def paired_pair_cumulant_difference(
    u_a: np.ndarray,
    abar_a: np.ndarray,
    bbar_a: np.ndarray,
    u_b: np.ndarray,
    abar_b: np.ndarray,
    bbar_b: np.ndarray,
):
    """Difference of two pair-cumulant estimates built on coupled replicas.

    The two statistic triples come from the same replicas (e.g. a system and
    a synchronously-coupled control whose true cumulant is known to vanish),
    so the difference of the per-system estimates removes the noise they
    share.  The point estimate is the difference of the two unbiased
    combinations from :func:`pair_cumulant_from_replica_stats`; the standard
    error is a leave-one-replica-out jackknife of that difference, which
    keeps the pairing intact.  Returns (estimate, jackknife se).
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


def _grouped_pair_cumulant(vals: np.ndarray, replica_ids: np.ndarray):
    """Grouped estimator of cov(v_1, v_2) for replica-correlated 2-tuples."""
    a, b = vals[:, 0], vals[:, 1]
    _, inv, cnt = np.unique(replica_ids, return_inverse=True, return_counts=True)
    if cnt.min() < 2:
        raise ValueError("every replica needs at least two tuples for the pair path")
    sa = np.bincount(inv, weights=a)
    sb = np.bincount(inv, weights=b)
    sab = np.bincount(inv, weights=a * b)
    m = cnt.astype(float)
    u = (sa * sb - sab) / (m * (m - 1))   # within-replica distinct-pair mean
    return pair_cumulant_from_replica_stats(u, sa / m, sb / m)


def joint_cumulant(
    samples: np.ndarray,
    observables,
    replica_ids: np.ndarray | None = None,
    n_bootstrap: int = 200,
    seed: int = 0,
):
    """Unbiased joint cumulant of observables over tuple slots; (estimate, se).

    samples has shape (n, j) or (n, j, d); observables is a list of j
    callables or arity-1 grid fields evaluated at the matching slot.  Rows
    from distinct replicas are i.i.d. and use the full k-statistic; if
    replica_ids shows repeated replicas, only j = 2 is supported, via the
    grouped within-replica pair estimator with jackknife errors.
    """
    vals = _observable_values(samples, observables)
    n, j = vals.shape
    if j > 4:
        raise ValueError("joint cumulants supported for j <= 4 only")
    if n <= j:
        raise ValueError("need more tuples than the cumulant order")
    if replica_ids is not None and len(np.unique(replica_ids)) < len(replica_ids):
        if j != 2:
            raise ValueError("correlated tuples are supported for pair cumulants only")
        return _grouped_pair_cumulant(vals, np.asarray(replica_ids))

    est = _kstat(vals)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xCE))))
    boots = np.empty(n_bootstrap)
    for bidx in range(n_bootstrap):
        boots[bidx] = _kstat(vals[rng.integers(0, n, size=n)])
    return float(est), float(boots.std(ddof=1))


# ---------------------------------------------------------------------------
# aggregated report


@dataclass
class DivergenceReport:
    """Histogram divergences of a sample cloud against a reference density."""

    chi_squared: float
    relative_entropy: float
    total_variation: float
    se_chi_squared: float
    se_relative_entropy: float
    se_total_variation: float
    bins: int
    n_samples: int
    n_replicas: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "DivergenceReport":
        return cls(**json.loads(text))

    def pinsker_margins(self):
        """Slack in total_variation^2 <= relative_entropy/2 <= chi_squared/2."""
        return (
            self.relative_entropy / 2 - self.total_variation ** 2,
            self.chi_squared / 2 - self.relative_entropy / 2,
        )


def _hist_divergences(counts, n, q, n_cells):
    phat = counts / n
    chi2 = float(((phat - q) ** 2 / q).sum() - (n_cells - 1) / n)
    pos = phat > 0
    re = float((phat[pos] * np.log(phat[pos] / q[pos])).sum())
    tv = float(0.5 * np.abs(phat - q).sum())
    return chi2, re, tv


def divergence_report_from_samples(
    samples: np.ndarray,
    reference: GridField,
    bins: int,
    replica_ids: np.ndarray | None = None,
    n_bootstrap: int = 200,
    seed: int = 0,
) -> DivergenceReport:
    """Chi-squared (bias-corrected), relative entropy, and total variation of a
    binned sample cloud against the binned reference, with replica-bootstrap
    standard errors."""
    ravel, axes = _cell_indices(samples, bins)
    n = len(ravel)
    n_cells = bins ** axes
    if n_cells > n / 50:
        raise ValueError(
            f"too many cells: {bins}^{axes} = {n_cells} exceeds n/50 = {n / 50:.0f}"
        )
    q = bin_masses(reference, bins).reshape(-1)
    if q.min() <= 0:
        raise ValueError("reference assigns zero mass to some cell")
    if replica_ids is None:
        replica_ids = np.arange(n)
    counts = np.bincount(ravel, minlength=n_cells)
    chi2, re, tv = _hist_divergences(counts, n, q, n_cells)

    mat = _replica_count_matrix(ravel, replica_ids, n_cells)
    R = mat.shape[0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xD1))))
    boots = np.empty((n_bootstrap, 3))
    for b in range(n_bootstrap):
        pick = rng.integers(0, R, size=R)
        c = mat[pick].sum(axis=0)
        boots[b] = _hist_divergences(c, c.sum(), q, n_cells)
    ses = boots.std(axis=0, ddof=1)
    return DivergenceReport(
        chi_squared=chi2,
        relative_entropy=re,
        total_variation=tv,
        se_chi_squared=float(ses[0]),
        se_relative_entropy=float(ses[1]),
        se_total_variation=float(ses[2]),
        bins=bins,
        n_samples=n,
        n_replicas=R,
    )
