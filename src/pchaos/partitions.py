"""Exact set-partition combinatorics and the one partition-product sum on arrays.

A partition of {1..j} is a tuple of blocks, each a sorted tuple of elements,
ordered by least element.  _partition_sum carries the cluster expansion
f_j = sum over partitions of prod over blocks B of g_|B|(x_B), its Moebius
inversion (cluster_moment, clusters_from_moments), and the correction fields
f^i_j from the cluster corrections g^i_j on T = {(i, j): 1 <= j <= i + 1}
(assemble_correction).  Fields are plain arrays of shape (M,) * arity.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .core import GridField

__all__ = ["in_triangle", "solve_order", "enumerate_partitions", "assemble_correction",
           "cluster_moment", "clusters_from_moments", "evaluate_block_product", "max_asymmetry"]

MAX_GRID_ARITY = 4     # dense M^j products; arity 4 is for order-3 entries and f_4 as a BBGKY level


@lru_cache(maxsize=None)
def enumerate_partitions(j: int) -> tuple:
    """All partitions of {1..j} exactly once, as tuples of sorted blocks.

    Element j joins each block of a partition of {1..j-1} in turn, then opens
    a new block.  That is lexicographic order of the restricted-growth strings
    (element -> index of its block), the order every sum here runs in.
    """
    if j < 1:
        raise ValueError(f"partitions need j >= 1, got {j}")
    if j == 1:
        return (((1,),),)
    out = []
    for p in enumerate_partitions(j - 1):
        out += [p[:k] + (p[k] + (j,),) + p[k + 1:] for k in range(len(p))]
        out.append(p + ((j,),))
    return tuple(out)


def _compositions(total: int, parts: int):
    """Non-negative integer tuples of given length summing to total, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def in_triangle(i: int, j: int) -> bool:
    return 1 <= j <= i + 1


def solve_order(i_max: int) -> list:
    """All (i, j) pairs in T with i <= i_max, in dependency order (i asc, j desc)."""
    return [(i, j) for i in range(i_max + 1) for j in range(i + 1, 0, -1)]


# ---------------------------------------------------------------------------
# grid-product assembly


def evaluate_block_product(j: int, factors, out=None) -> np.ndarray:
    """Dense product of arrays routed onto blocks of {1..j}, in out if given, else a new array.

    factors is a list of (array, coords): coords a tuple of 1-based coordinates
    (axis order follows the sorted block, immaterial for exchangeable factors),
    the array of shape (M,) * len(coords) for one M.  The coords must be
    disjoint and cover {1..j}.  Smallest factors multiply first, so only the
    last multiply is full size.
    """
    if j > MAX_GRID_ARITY:
        raise ValueError(f"grid assembly capped at arity {MAX_GRID_ARITY}, got {j}")
    covered = sorted(c for _, coords in factors for c in coords)
    if covered != list(range(1, j + 1)):
        raise ValueError(f"factor coordinates {covered} do not partition 1..{j}")
    M = factors[0][0].shape[0]
    routed = []
    for vals, coords in sorted(factors, key=lambda fc: len(fc[1])):
        if vals.shape != (M,) * len(coords):
            raise ValueError(f"factor of shape {vals.shape} does not fit block {coords}, M = {M}")
        routed.append(vals.reshape([M if k in coords else 1 for k in range(1, j + 1)]))
    return np.multiply(reduce(np.multiply, routed[:-1], 1.0), routed[-1], out=out)


def _partition_sum(j: int, M: int, terms) -> np.ndarray:
    """Sum over partitions of {1..j} of the block products of each factor list terms(blocks) yields."""
    out, term = np.zeros((M,) * j), np.empty((M,) * j)
    for blocks in enumerate_partitions(j):
        for factors in terms(blocks):
            out += evaluate_block_product(j, factors, term)
    return out


def cluster_moment(j: int, clusters: dict) -> np.ndarray:
    """f_j = sum over partitions of {1..j} of prod over blocks B of g_|B|(x_B).

    clusters maps arity a -> symmetric array g_a and must hold g_1; an arity
    it lacks is a zero cluster, so every term with such a block vanishes.
    """
    def terms(blocks):
        if all(len(b) in clusters for b in blocks):
            yield [(clusters[len(b)], b) for b in blocks]

    return _partition_sum(j, clusters[1].shape[0], terms)


def clusters_from_moments(moments: dict) -> dict:
    """Cluster functions g_1..g_J of symmetric marginals f_1..f_J (moments: a -> f_a).

    Moebius inversion of cluster_moment, level by level: g_1 = f_1 and
    g_a = f_a - cluster_moment(a, {g_1..g_(a-1)}), the expansion without its
    one-block term.
    """
    clusters = {1: moments[1]}
    for a in range(2, max(moments) + 1):
        clusters[a] = moments[a] - cluster_moment(a, clusters)
    return clusters


def assemble_correction(i: int, j: int, g_table: dict) -> np.ndarray:
    """Correction f^i_j as the full partition/order-composition sum.

    g_table maps (order, arity) -> array.  Products whose factor indices fall
    outside T vanish and are skipped.
    """
    if i < 0:
        raise ValueError("total order must be non-negative")
    missing = [key for key in solve_order(i) if key not in g_table]
    if missing:
        raise ValueError(f"correction table is missing entry {missing[0]}")

    def terms(blocks):
        for orders in _compositions(i, len(blocks)):
            if all(in_triangle(order, len(b)) for b, order in zip(blocks, orders)):
                yield [(g_table[(order, len(b))], b) for b, order in zip(blocks, orders)]

    return _partition_sum(j, g_table[(0, 1)].shape[0], terms)


def max_asymmetry(f: GridField) -> float:
    """Exchangeability defect: largest deviation under adjacent coordinate swaps."""
    if f.arity < 2:
        return 0.0
    worst = 0.0
    for k in range(f.arity - 1):
        swapped = np.swapaxes(f.values, k, k + 1)
        worst = max(worst, float(np.abs(f.values - swapped).max()))
    return worst
