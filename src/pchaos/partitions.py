"""Exact set-partition combinatorics and the grid sums over partitions.

Partitions of {1..j} are stored canonically as restricted-growth strings
(element -> block label, blocks numbered by first appearance).  On top of the
enumeration sit order compositions over blocks, the solve order of the
triangular index set T = {(i, j): 1 <= j <= i + 1}, the plain cluster
expansion f_j = sum over partitions of {1..j} of prod over blocks B of
g_|B|(x_B) with its Moebius inversion (cluster_moment, clusters_from_moments),
and the assembly of the 1/N-expansion correction fields f^i_j from a table of
cluster corrections g^i_j indexed by T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .core import GridField

__all__ = [
    "Partition",
    "in_triangle",
    "solve_order",
    "enumerate_partitions",
    "iter_partition_labels",
    "enumerate_order_compositions",
    "assemble_correction",
    "cluster_moment",
    "clusters_from_moments",
    "evaluate_block_product",
    "max_asymmetry",
]

MAX_ENUM = 12          # Bell(13) is ~27M; enumeration is capped here
MAX_GRID_ARITY = 4     # dense M^j products; arity 4 is for order-3 entries and f_4 as a BBGKY level


@dataclass(frozen=True)
class Partition:
    """Set partition of {1..j} in restricted-growth form.

    labels[k] is the block index of element k+1; labels[0] == 0 and each
    label is at most 1 + max of the earlier labels.
    """

    labels: tuple

    def __post_init__(self):
        labels = tuple(int(v) for v in self.labels)
        if not labels:
            raise ValueError("empty partition")
        if labels[0] != 0:
            raise ValueError("restricted growth requires first label 0")
        top = 0
        for v in labels[1:]:
            if v < 0 or v > top + 1:
                raise ValueError(f"labels {labels} violate restricted growth")
            top = max(top, v)
        object.__setattr__(self, "labels", labels)

    @property
    def j(self) -> int:
        return len(self.labels)

    @property
    def block_count(self) -> int:
        return 1 + max(self.labels)

    @cached_property
    def blocks(self) -> tuple:
        """Blocks as sorted tuples of 1-based elements, ordered by first appearance."""
        out = [[] for _ in range(self.block_count)]
        for elem, lab in enumerate(self.labels, start=1):
            out[lab].append(elem)
        return tuple(tuple(b) for b in out)

    def __str__(self) -> str:
        return "|".join(str(v) for v in self.labels)


def iter_partition_labels(j: int):
    """Yield restricted-growth label tuples for all partitions of {1..j}, lexicographically."""
    if not 1 <= j <= MAX_ENUM:
        raise ValueError(f"partition enumeration supports 1 <= j <= {MAX_ENUM}, got {j}")
    labels = [0] * j
    tops = [0] * j  # tops[k] = max(labels[:k+1])

    k = j - 1
    yield tuple(labels)
    while True:
        # advance position k to the next admissible label, backtracking as needed
        while k > 0 and labels[k] >= tops[k - 1] + 1:
            labels[k] = 0
            k -= 1
        if k == 0:
            return
        labels[k] += 1
        tops[k] = max(tops[k - 1], labels[k])
        for m in range(k + 1, j):
            labels[m] = 0
            tops[m] = tops[k]
        k = j - 1
        yield tuple(labels)


@lru_cache(maxsize=MAX_GRID_ARITY)
def enumerate_partitions(j: int) -> tuple:
    """All partitions of {1..j} exactly once, lexicographic in restricted-growth form."""
    return tuple(Partition(lbl) for lbl in iter_partition_labels(j))


def _compositions(total: int, parts: int):
    """Non-negative integer tuples of given length summing to total, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_order_compositions(p: Partition, i: int) -> list:
    """All maps block -> order >= 0 with total order i, as order tuples over p's
    blocks; count C(i+|pi|-1, |pi|-1)."""
    if i < 0:
        raise ValueError("total order must be non-negative")
    return list(_compositions(i, p.block_count))


def in_triangle(i: int, j: int) -> bool:
    return 1 <= j <= i + 1


def solve_order(i_max: int) -> list:
    """All (i, j) pairs in T with i <= i_max, in dependency order (i asc, j desc)."""
    return [(i, j) for i in range(i_max + 1) for j in range(i + 1, 0, -1)]


# ---------------------------------------------------------------------------
# grid-product assembly


def evaluate_block_product(grid, j: int, factors, out=None) -> np.ndarray:
    """Dense product of fields routed onto blocks of {1..j}, in out if given, else a new array.

    factors is a list of (GridField, coords) with coords a tuple of 1-based
    coordinates (sorted routing: axis order of each field follows the sorted
    block, immaterial for exchangeable factors).  The coords must be disjoint
    and cover {1..j}.  The factors are multiplied smallest first, so only the
    last multiply is full size.
    """
    if j > MAX_GRID_ARITY:
        raise ValueError(f"grid assembly capped at arity {MAX_GRID_ARITY}, got {j}")
    covered = sorted(c for _, coords in factors for c in coords)
    if covered != list(range(1, j + 1)):
        raise ValueError(f"factor coordinates {covered} do not partition 1..{j}")
    M = factors[0][0].grid.M
    routed = []
    for f, coords in sorted(factors, key=lambda fc: fc[0].arity):
        if f.grid.M != M:
            raise ValueError("all fields must share one grid")
        if f.arity != len(coords):
            raise ValueError("factor arity does not match its coordinate block")
        routed.append(f.values.reshape([M if k in coords else 1 for k in range(1, j + 1)]))
    return np.multiply(reduce(np.multiply, routed[:-1], 1.0), routed[-1], out=out)


def cluster_moment(j: int, clusters: dict) -> GridField:
    """f_j = sum over partitions of {1..j} of prod over blocks B of g_|B|(x_B).

    clusters maps arity a -> symmetric GridField g_a and must hold g_1; an
    arity it lacks is a zero cluster, so every term with such a block vanishes.
    """
    grid = clusters[1].grid
    out, term = np.zeros((grid.M,) * j), np.empty((grid.M,) * j)
    for p in enumerate_partitions(j):
        if all(len(b) in clusters for b in p.blocks):
            out += evaluate_block_product(grid, j, [(clusters[len(b)], b) for b in p.blocks], term)
    return GridField(grid, j, out)


def clusters_from_moments(moments: dict) -> dict:
    """Cluster functions g_1..g_J of symmetric marginals f_1..f_J (moments: a -> f_a).

    Moebius inversion of cluster_moment, level by level: g_1 = f_1 and
    g_a = f_a - cluster_moment(a, {g_1..g_(a-1)}), the expansion without its
    one-block term.
    """
    clusters = {1: moments[1]}
    for a in range(2, max(moments) + 1):
        f = moments[a]
        clusters[a] = GridField(f.grid, a, f.values - cluster_moment(a, clusters).values)
    return clusters


def _check_g_table(g_table: dict, i: int) -> None:
    for k in range(i + 1):
        for a in range(1, k + 2):
            if (k, a) not in g_table:
                raise ValueError(f"correction table is missing entry ({k}, {a})")


def assemble_correction(i: int, j: int, g_table: dict) -> GridField:
    """Correction f^i_j as the full partition/order-composition sum.

    Products whose factor indices fall outside T vanish and are skipped.
    """
    _check_g_table(g_table, i)
    grid = g_table[(0, 1)].grid
    out = np.zeros((grid.M,) * j)
    for p in enumerate_partitions(j):
        blocks = p.blocks
        for orders in enumerate_order_compositions(p, i):
            factors = []
            for block, order in zip(blocks, orders):
                if not in_triangle(order, len(block)):
                    factors = None
                    break
                factors.append((g_table[(order, len(block))], block))
            if factors is not None:
                out += evaluate_block_product(grid, j, factors)
    return GridField(grid, j, out)


def max_asymmetry(f: GridField) -> float:
    """Exchangeability defect: largest deviation under adjacent coordinate swaps."""
    if f.arity < 2:
        return 0.0
    worst = 0.0
    for k in range(f.arity - 1):
        swapped = np.swapaxes(f.values, k, k + 1)
        worst = max(worst, float(np.abs(f.values - swapped).max()))
    return worst
