"""Set-partition combinatorics, order compositions, and correction assembly.

Integer expectations (partition counts, block census) are frozen from
tests/oracles/bell_triangle.py; algebraic identities are checked exactly.
"""
import itertools as it

import numpy as np
import pytest

from pchaos.core import GridField, TorusGrid, fourier_field, product_field
from pchaos.partitions import (
    assemble_correction,
    enumerate_partitions,
    evaluate_block_product,
    in_triangle,
    max_asymmetry,
    solve_order,
)

from field_synth import random_exchangeable_triple
from oracles.sparse_correction import assemble_correction_sparse

# frozen from tests/oracles/bell_triangle.py
BELL = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
CENSUS_4 = [1, 7, 6, 1]
CENSUS_8 = [1, 127, 966, 1701, 1050, 266, 28, 1]


def test_partition_counts_match_bell_triangle():
    for j, want in enumerate(BELL[:8], start=1):
        assert len(enumerate_partitions(j)) == want


def test_block_count_census():
    for j, want in ((4, CENSUS_4), (8, CENSUS_8)):
        census = [0] * j
        for p in enumerate_partitions(j):
            census[len(p) - 1] += 1
        assert census == want


def _growth_string_blocks(labels):
    """Blocks of a restricted-growth string, ordered by first appearance."""
    blocks = {}
    for elem, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(elem)
    return tuple(tuple(b) for b in blocks.values())


def test_enumeration_is_sorted_growth_strings():
    # every string with labels[k] <= 1 + max(labels[:k]), sorted, as blocks:
    # the order every partition sum runs in
    for j in range(1, 7):
        strings = sorted(lbl for lbl in it.product(range(j), repeat=j)
                         if all(lbl[k] <= max(lbl[:k], default=-1) + 1 for k in range(j)))
        assert len(strings) == BELL[j - 1]
        assert enumerate_partitions(j) == tuple(_growth_string_blocks(lbl) for lbl in strings)


def test_triangle_membership_and_solve_order():
    assert in_triangle(0, 1) and in_triangle(2, 3) and in_triangle(2, 1)
    assert not in_triangle(0, 2) and not in_triangle(1, 3)
    order = solve_order(2)
    assert order == [(0, 1), (1, 2), (1, 1), (2, 3), (2, 2), (2, 1)]
    # dependency order: every index is preceded by all indices it may reference
    for pos, (i, _) in enumerate(order):
        earlier = set(order[:pos])
        for k in range(i):
            for a in range(1, k + 2):
                assert (k, a) in earlier


def test_evaluate_block_product_routing():
    g = TorusGrid(8)
    r = fourier_field(g, [1.0, 0.3])
    s = fourier_field(g, [1.0, 0.0, -0.2])
    pair = np.multiply.outer(r.values, r.values)
    vals = evaluate_block_product(3, [(pair, (1, 3)), (s.values, (2,))])
    i, j, l = 2, 5, 7
    assert vals[i, j, l] == pytest.approx(r.values[i] * r.values[l] * s.values[j], rel=1e-14)


def test_evaluate_block_product_errors():
    g = TorusGrid(8)
    r = fourier_field(g, [1.0, 0.3]).values
    with pytest.raises(ValueError, match="partition"):
        evaluate_block_product(2, [(r, (1,))])
    with pytest.raises(ValueError, match=r"shape \(8,\) does not fit block \(1, 2\)"):
        evaluate_block_product(2, [(r, (1, 2))])
    with pytest.raises(ValueError, match="capped"):
        evaluate_block_product(5, [(r, (k,)) for k in range(1, 6)])
    other = fourier_field(TorusGrid(16), [1.0]).values
    with pytest.raises(ValueError, match=r"shape \(16,\) does not fit block \(2,\), M = 8"):
        evaluate_block_product(2, [(r, (1,)), (other, (2,))])


def _random_correction_table(grid, i_max, rng):
    """Correction table on the triangular set with exchangeable random entries."""
    tbl = {}
    for k in range(i_max + 1):
        for a in range(1, k + 2):
            f = random_exchangeable_triple(grid, rng)[min(a, 3)]
            vals = f.values if a <= 3 else np.ones(grid.shape(a))
            tbl[(k, a)] = vals - (0.0 if (k, a) == (0, 1) else vals.mean())
    return tbl


def test_assemble_correction_dense_vs_sparse():
    rng = np.random.default_rng(21)
    g = TorusGrid(12)
    tbl = _random_correction_table(g, 2, rng)
    for i in (0, 1, 2):
        for j in (1, 2, 3):
            dense = assemble_correction(i, j, tbl)
            sparse = assemble_correction_sparse(i, j, tbl)
            assert np.max(np.abs(dense - sparse)) < 1e-12


def test_assemble_correction_order_zero_is_product():
    rng = np.random.default_rng(4)
    g = TorusGrid(12)
    tbl = _random_correction_table(g, 1, rng)
    rho = GridField(g, 1, tbl[(0, 1)])
    for j in (1, 2, 3):
        f0 = assemble_correction(0, j, tbl)
        assert np.allclose(f0, product_field(rho, j).values, atol=1e-13)


def test_assemble_correction_missing_entry():
    g = TorusGrid(8)
    rho = fourier_field(g, [1.0])
    with pytest.raises(ValueError, match="missing entry"):
        assemble_correction(1, 1, {(0, 1): rho.values})
    with pytest.raises(ValueError, match="non-negative"):
        assemble_correction(-1, 1, {(0, 1): rho.values})


def test_max_asymmetry():
    g = TorusGrid(8)
    rng = np.random.default_rng(6)
    sym = random_exchangeable_triple(g, rng)[2]
    assert max_asymmetry(sym) < 1e-14
    skew = GridField(g, 2, np.multiply.outer(g.points, np.ones(8)))
    assert max_asymmetry(skew) > 0.1
