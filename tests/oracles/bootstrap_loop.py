"""Replica bootstrap one resample at a time: a cross-check of metrics._binned_bootstrap.

The package draws the replica indices of a block of resamples in one call,
turns them into a matrix of resample counts and forms the resamples' cell
counts as one product with the per-replica histogram rows; its statistics
then act on all resamples at once.  This oracle is the loop that form
replaced: one draw of R indices per call, then per draw it sums the picked
histogram rows and evaluates the statistic on that one count vector, with
the relative entropy summed over the populated cells alone.  It reads the
same Philox stream (seed, tag) and shares no statistic code with
pchaos.metrics, so the two must agree bit for bit.
"""
import numpy as np


def chi2_stat(counts, n, q, n_cells):
    phat = counts / n
    return float(((phat - q) ** 2 / q).sum() - (n_cells - 1) / n)


def hist_divergences(counts, n, q, n_cells):
    phat = counts / n
    pos = phat > 0
    re = float((phat[pos] * np.log(phat[pos] / q[pos])).sum())
    tv = float(0.5 * np.abs(phat - q).sum())
    return chi2_stat(counts, n, q, n_cells), re, tv


def bootstrap_loop(mat, q, n_bootstrap, seed, tag, stat):
    """(boots, counts): stat of each resample of the rows of mat (R, n_cells), and its cell counts."""
    R, n_cells = mat.shape
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, tag))))
    boots, counts = [], []
    for _ in range(n_bootstrap):
        pick = rng.integers(0, R, size=R)
        c = mat[pick].sum(axis=0)
        boots.append(stat(c, c.sum(), q, n_cells))
        counts.append(c)
    return np.array(boots), np.array(counts)
