"""Exact set-partition combinatorics and cluster/correction assembly.

Partitions of {1..j} are stored canonically as restricted-growth strings
(element -> block label, blocks numbered by first appearance).  On top of the
enumeration sit the Moebius weights of the cluster expansion, the
cluster <-> marginal transforms, order compositions over blocks, and the
assembly of the 1/N-expansion correction fields from a table of cluster
corrections indexed by the triangular set T = {(i, j): 1 <= j <= i + 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridField

__all__ = [
    "Partition",
    "OrderComposition",
    "TriangularIndex",
    "in_triangle",
    "solve_order",
    "enumerate_partitions",
    "iter_partition_labels",
    "mobius_weight",
    "combinings",
    "mobius_sum_identity",
    "enumerate_order_compositions",
    "cluster_from_marginals",
    "marginals_from_clusters",
    "assemble_correction",
    "evaluate_block_product",
    "max_asymmetry",
]

MAX_ENUM = 12          # Bell(13) is ~27M; enumeration is capped here
MAX_GRID_ARITY = 4     # dense M^j products; arity 4 is needed by the closure


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

    @property
    def blocks(self) -> tuple:
        """Blocks as sorted tuples of 1-based elements, ordered by first appearance."""
        out = [[] for _ in range(self.block_count)]
        for elem, lab in enumerate(self.labels, start=1):
            out[lab].append(elem)
        return tuple(tuple(b) for b in out)

    def __str__(self) -> str:
        return "|".join(str(v) for v in self.labels)

    @classmethod
    def from_blocks(cls, blocks) -> "Partition":
        elems = sorted(e for b in blocks for e in b)
        if elems != list(range(1, len(elems) + 1)):
            raise ValueError("blocks must partition {1..j}")
        label_of = {}
        next_lab = 0
        labels = []
        first_of_block = {min(b): tuple(sorted(b)) for b in blocks}
        for e in range(1, len(elems) + 1):
            if e in first_of_block:
                for member in first_of_block[e]:
                    label_of[member] = next_lab
                next_lab += 1
            labels.append(label_of[e])
        return cls(tuple(labels))


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


def enumerate_partitions(j: int) -> list:
    """All partitions of {1..j} exactly once, lexicographic in restricted-growth form."""
    return [Partition(lbl) for lbl in iter_partition_labels(j)]


def mobius_weight(p: Partition) -> int:
    """Cluster-expansion weight (-1)^(|pi|-1) (|pi|-1)!."""
    n = p.block_count
    return (-1) ** (n - 1) * math.factorial(n - 1)


def combinings(p: Partition) -> list:
    """All partitions sigma of the same ground set with every block of p inside a block of sigma.

    Coarsenings are in bijection with partitions of p's block set.
    """
    blocks = p.blocks
    out = []
    for outer in iter_partition_labels(p.block_count):
        merged: dict[int, list] = {}
        for block_idx, lab in enumerate(outer):
            merged.setdefault(lab, []).extend(blocks[block_idx])
        out.append(Partition.from_blocks(list(merged.values())))
    return out


def mobius_sum_identity(p: Partition) -> int:
    """Sum of mobius_weight over all coarsenings of p: 1 if p has one block, else 0."""
    return sum(mobius_weight(s) for s in combinings(p))


@dataclass(frozen=True)
class OrderComposition:
    """Assignment of a non-negative order to each block of a partition."""

    partition: Partition
    orders: tuple

    def __post_init__(self):
        orders = tuple(int(v) for v in self.orders)
        if len(orders) != self.partition.block_count:
            raise ValueError("one order per block required")
        if any(v < 0 for v in orders):
            raise ValueError("orders must be non-negative")
        object.__setattr__(self, "orders", orders)

    @property
    def total(self) -> int:
        return sum(self.orders)


def _compositions(total: int, parts: int):
    """Non-negative integer tuples of given length summing to total, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_order_compositions(p: Partition, i: int) -> list:
    """All maps block -> order >= 0 with total order i; count C(i+|pi|-1, |pi|-1)."""
    if i < 0:
        raise ValueError("total order must be non-negative")
    return [OrderComposition(p, c) for c in _compositions(i, p.block_count)]


@dataclass(frozen=True, order=False)
class TriangularIndex:
    """Index (i, j) of the correction hierarchy; member of T iff 1 <= j <= i + 1."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 0 or self.j < 1:
            raise ValueError(f"invalid index ({self.i}, {self.j})")

    @property
    def in_T(self) -> bool:
        return in_triangle(self.i, self.j)

    def __lt__(self, other: "TriangularIndex") -> bool:
        # solve order: lower correction order first; within an order, larger arity first
        return (self.i, -self.j) < (other.i, -other.j)

    def __le__(self, other: "TriangularIndex") -> bool:
        return self == other or self < other


def in_triangle(i: int, j: int) -> bool:
    return 1 <= j <= i + 1


def solve_order(i_max: int) -> list:
    """All (i, j) in T with i <= i_max, in dependency order (i asc, j desc)."""
    return [TriangularIndex(i, j) for i in range(i_max + 1) for j in range(i + 1, 0, -1)]


# ---------------------------------------------------------------------------
# grid-product assembly


def _check_common_grid(fields) -> None:
    grids = {(f.grid.M, f.grid.dim) for f in fields}
    if len(grids) > 1:
        raise ValueError("all fields must share one grid")
    (M, dim), = grids
    if dim != 1:
        raise ValueError("multi-arity products are implemented for 1-d torus grids")


def evaluate_block_product(grid, j: int, factors) -> np.ndarray:
    """Dense product of fields routed onto blocks of {1..j}.

    factors is a list of (GridField, coords) with coords a tuple of 1-based
    coordinates (sorted routing: axis order of each field follows the sorted
    block, immaterial for exchangeable factors).  The coords must be disjoint
    and cover {1..j}.
    """
    if j > MAX_GRID_ARITY:
        raise ValueError(f"grid assembly capped at arity {MAX_GRID_ARITY}, got {j}")
    covered = sorted(c for _, coords in factors for c in coords)
    if covered != list(range(1, j + 1)):
        raise ValueError(f"factor coordinates {covered} do not partition 1..{j}")
    _check_common_grid([f for f, _ in factors])
    M = factors[0][0].grid.M
    out = np.ones((M,) * j)
    for f, coords in factors:
        coords = tuple(sorted(coords))
        if f.arity != len(coords):
            raise ValueError("factor arity does not match its coordinate block")
        shape = tuple(M if (k + 1) in coords else 1 for k in range(j))
        out = out * f.values.reshape(shape)
    return out


def _require_arities(table: dict, j: int, what: str) -> None:
    for a in range(1, j + 1):
        if a not in table:
            raise ValueError(f"{what} table is missing arity {a}")
        if table[a].arity != a:
            raise ValueError(f"{what} table entry {a} has arity {table[a].arity}")


def cluster_from_marginals(f_table: dict, j: int) -> GridField:
    """Cluster function g_j = sum over partitions of Moebius-weighted marginal products."""
    _require_arities(f_table, j, "marginal")
    grid = f_table[1].grid
    out = np.zeros((grid.M,) * j)
    for p in enumerate_partitions(j):
        w = mobius_weight(p)
        factors = [(f_table[len(b)], b) for b in p.blocks]
        out += w * evaluate_block_product(grid, j, factors)
    return GridField(grid, j, out)


def marginals_from_clusters(g_table: dict, j: int) -> GridField:
    """Marginal f_j = sum over partitions of cluster products (inverse transform)."""
    _require_arities(g_table, j, "cluster")
    grid = g_table[1].grid
    out = np.zeros((grid.M,) * j)
    for p in enumerate_partitions(j):
        factors = [(g_table[len(b)], b) for b in p.blocks]
        out += evaluate_block_product(grid, j, factors)
    return GridField(grid, j, out)


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
        for comp in enumerate_order_compositions(p, i):
            factors = []
            for block, order in zip(blocks, comp.orders):
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
    if f.grid.dim != 1:
        raise ValueError("asymmetry diagnostic implemented for 1-d torus grids")
    worst = 0.0
    for k in range(f.arity - 1):
        swapped = np.swapaxes(f.values, k, k + 1)
        worst = max(worst, float(np.abs(f.values - swapped).max()))
    return worst
