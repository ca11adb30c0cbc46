"""Sparse assembly of the correction fields f^i_j: a cross-check of the dense sum.

The package assembles f^i_j as the full sum over set partitions of {1..j}
and over order compositions of i onto their blocks, where every block of
order 0 is a factor rho.  This oracle organises the same sum the other way
round: first choose the correlated coordinates P (at most 2i of them, since
a cluster of order m spans at most m + 1 coordinates), then a partition of P
whose blocks all carry order >= 1, and let every coordinate outside P carry
rho.  The two orderings visit the same products, so they must agree to
roundoff (test_assemble_correction_dense_vs_sparse demands 1e-12).

It shares only the enumeration and the dense block product of
pchaos.partitions with the package, not the composition loop being checked.
"""
import itertools as it

import numpy as np

from pchaos.partitions import enumerate_partitions, evaluate_block_product, in_triangle


def _compositions(total: int, parts: int):
    """Non-negative integer tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def assemble_correction_sparse(i: int, j: int, g_table: dict) -> np.ndarray:
    """f^i_j via the sparse form: correlated coordinates P with |P| <= 2i, rest carries rho.

    Each term is rho^(j - |P|) times a product of clusters with all orders >= 1
    summing to i over the blocks of a partition of P.
    """
    rho = g_table[(0, 1)]
    out = np.zeros(rho.shape * j)
    universe = list(range(1, j + 1))
    for size in range(0, min(2 * i, j) + 1):
        for P in it.combinations(universe, size):
            rest = [c for c in universe if c not in P]
            rho_factors = [(rho, (c,)) for c in rest]
            if size == 0:
                if i == 0:
                    out += evaluate_block_product(j, rho_factors)
                continue
            if i == 0:
                continue
            for p in enumerate_partitions(size):
                nblocks = len(p)
                if nblocks > i:
                    continue  # every block carries order >= 1
                blocks = [tuple(P[e - 1] for e in b) for b in p]
                for extra in _compositions(i - nblocks, nblocks):
                    orders = [1 + e for e in extra]
                    factors = list(rho_factors)
                    ok = True
                    for block, order in zip(blocks, orders):
                        if not in_triangle(order, len(block)):
                            ok = False
                            break
                        factors.append((g_table[(order, len(block))], block))
                    if ok:
                        out += evaluate_block_product(j, factors)
    return out
