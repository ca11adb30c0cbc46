"""The BBGKY reference's level-4 closure, written out term by term.

Before the closure was taken from pchaos.partitions (clusters_from_moments,
then cluster_moment at level 4), solve_bbgky_reference built it here by hand:
the three cluster functions of a consistent triple f_1, f_2, f_3 by exact
algebra, and f_4 as the 14 partition terms of {1..4} whose blocks all have
size <= 3 (g_4 = 0), each an outer product moved onto its coordinates.  It
shares no code with the package, so the partition-built closure is checked
against it (test_partition_closure_matches_dense_oracle).
"""
import itertools as it

import numpy as np


def _cluster3(f1, f2, f3):
    """Cluster functions g_1, g_2, g_3 of a consistent triple (dense, exact algebra)."""
    g1 = f1
    g2 = f2 - np.multiply.outer(f1, f1)
    prod3 = np.multiply.outer(np.multiply.outer(f1, f1), f1)
    s12 = np.multiply.outer(g2, f1)                       # g2(x1,x2) f1(x3)
    s13 = np.swapaxes(s12, 1, 2)                          # g2(x1,x3) f1(x2)
    s23 = np.moveaxis(s12, (0, 1, 2), (1, 2, 0))          # g2(x2,x3) f1(x1)
    g3 = f3 - s12 - s13 - s23 - prod3
    return g1, g2, g3


def closure_f4(f1, f2, f3):
    """f_4 of the product closure: the cluster expansion of g_1, g_2, g_3 with g_4 = 0."""
    M = f1.shape[0]
    g1, g2, g3 = _cluster3(f1, f2, f3)
    out = np.zeros((M,) * 4)
    pairs = list(it.combinations(range(4), 2))
    # partitions of {1..4} with all blocks of size <= 3, assembled from g's
    # 1+1+1+1
    out += np.multiply.outer(np.multiply.outer(np.multiply.outer(g1, g1), g1), g1)
    # 2+1+1 (6 ways) and 2+2 (3 ways) and 3+1 (4 ways)
    for (a, b) in pairs:
        restc = [c for c in range(4) if c not in (a, b)]
        block = np.multiply.outer(g2, np.multiply.outer(g1, g1))
        out += np.moveaxis(block, (0, 1, 2, 3), (a, b) + tuple(restc))
    for (a, b) in ((0, 1), (0, 2), (0, 3)):
        c, d = [x for x in range(4) if x not in (a, b)]
        block = np.multiply.outer(g2, g2)
        out += np.moveaxis(block, (0, 1, 2, 3), (a, b, c, d))
    for rest in range(4):
        trip = [x for x in range(4) if x != rest]
        block = np.multiply.outer(g3, g1)
        out += np.moveaxis(block, (0, 1, 2, 3), tuple(trip) + (rest,))
    return out
