"""Replica bootstrap one resample at a time: a cross-check of metrics._binned_bootstrap.

The package draws the replica indices of a block of resamples in one call,
turns them into a matrix of resample counts and forms the resamples' cell
counts as one product with the per-replica histogram rows; the chi-squared
then acts on all resamples at once.  This oracle is the loop that form
replaced: one draw of R indices per call, then per draw it sums the picked
histogram rows and evaluates the chi-squared on that one count vector.  It
reads the same Philox stream (seed, tag) and shares no statistic code with
pchaos.metrics, so the two must agree bit for bit.
"""
import numpy as np


def chi2_stat(counts, n, q, n_cells):
    phat = counts / n
    return float(((phat - q) ** 2 / q).sum() - (n_cells - 1) / n)


def bootstrap_loop(mat, q, n_bootstrap, seed, tag):
    """Chi-squared of each resample of the rows of mat (R, n_cells)."""
    R, n_cells = mat.shape
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, tag))))
    boots = []
    for _ in range(n_bootstrap):
        pick = rng.integers(0, R, size=R)
        c = mat[pick].sum(axis=0)
        boots.append(chi2_stat(c, c.sum(), q, n_cells))
    return np.array(boots)
