"""Set-partition combinatorics, Moebius weights, and cluster assembly.

Integer expectations (partition counts, block census) are frozen from
tests/oracles/bell_triangle.py; algebraic identities are checked exactly.
"""
import math

import numpy as np
import pytest

from pchaos.core import GridField, TorusGrid, fourier_field, product_field
from pchaos.partitions import (
    OrderComposition,
    Partition,
    TriangularIndex,
    assemble_correction,
    cluster_from_marginals,
    combinings,
    enumerate_order_compositions,
    enumerate_partitions,
    evaluate_block_product,
    in_triangle,
    iter_partition_labels,
    marginals_from_clusters,
    max_asymmetry,
    mobius_sum_identity,
    mobius_weight,
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
            census[p.block_count - 1] += 1
        assert census == want


def test_enumeration_is_canonical_and_unique():
    labels = list(iter_partition_labels(5))
    assert len(set(labels)) == len(labels) == BELL[4]
    assert labels == sorted(labels)          # lexicographic
    for lbl in labels:
        assert lbl[0] == 0
        top = 0
        for v in lbl[1:]:
            assert 0 <= v <= top + 1         # restricted growth
            top = max(top, v)


def test_partition_blocks_and_roundtrip():
    p = Partition((0, 1, 0, 2, 1))
    assert p.j == 5 and p.block_count == 3
    assert p.blocks == ((1, 3), (2, 5), (4,))
    assert Partition.from_blocks([(4,), (2, 5), (1, 3)]) == p
    assert str(p) == "0|1|0|2|1"


def test_partition_validation():
    with pytest.raises(ValueError, match="empty"):
        Partition(())
    with pytest.raises(ValueError, match="first label"):
        Partition((1, 0))
    with pytest.raises(ValueError, match="restricted growth"):
        Partition((0, 2))
    with pytest.raises(ValueError, match="partition"):
        Partition.from_blocks([(1,), (3,)])


def test_mobius_weight_values():
    # (-1)^{n-1} (n-1)! for n blocks
    weights = {1: 1, 2: -1, 3: 2, 4: -6, 5: 24}
    for p in enumerate_partitions(4):
        assert mobius_weight(p) == weights[p.block_count]


def test_combinings_are_coarsenings():
    p = Partition((0, 1, 0))        # {1,3},{2}
    cs = combinings(p)
    assert len(cs) == BELL[1]       # partitions of the 2-element block set
    assert set(cs) == {Partition((0, 1, 0)), Partition((0, 0, 0))}
    # the discrete partition coarsens to everything
    singletons = Partition((0, 1, 2, 3))
    assert len(combinings(singletons)) == BELL[3]


def test_mobius_sum_identity_small():
    for j in range(1, 7):
        for p in enumerate_partitions(j):
            val = mobius_sum_identity(p)
            assert isinstance(val, int)
            assert val == (1 if p.block_count == 1 else 0)


def test_order_compositions_count_and_content():
    p = Partition((0, 1, 0))
    comps = enumerate_order_compositions(p, 3)
    assert len(comps) == math.comb(3 + 1, 1)     # C(i + n - 1, n - 1), n = 2
    assert all(c.total == 3 for c in comps)
    assert len({c.orders for c in comps}) == len(comps)
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_order_compositions(p, -1)
    with pytest.raises(ValueError, match="one order per block"):
        OrderComposition(p, (1, 2, 3))


def test_triangle_membership_and_solve_order():
    assert in_triangle(0, 1) and in_triangle(2, 3) and in_triangle(2, 1)
    assert not in_triangle(0, 2) and not in_triangle(1, 3)
    order = solve_order(2)
    assert [(ix.i, ix.j) for ix in order] == [
        (0, 1), (1, 2), (1, 1), (2, 3), (2, 2), (2, 1),
    ]
    # dependency order: every index is preceded by all indices it may reference
    for pos, ix in enumerate(order):
        earlier = {(e.i, e.j) for e in order[:pos]}
        for k in range(ix.i):
            for a in range(1, k + 2):
                assert (k, a) in earlier
    assert TriangularIndex(1, 2) < TriangularIndex(1, 1) < TriangularIndex(2, 3)


def test_evaluate_block_product_routing():
    g = TorusGrid(8)
    r = fourier_field(g, [1.0, 0.3])
    s = fourier_field(g, [1.0, 0.0, -0.2])
    pair = GridField(g, 2, np.multiply.outer(r.values, r.values))
    vals = evaluate_block_product(g, 3, [(pair, (1, 3)), (s, (2,))])
    i, j, l = 2, 5, 7
    assert vals[i, j, l] == pytest.approx(r.values[i] * r.values[l] * s.values[j], rel=1e-14)


def test_evaluate_block_product_errors():
    g = TorusGrid(8)
    r = fourier_field(g, [1.0, 0.3])
    with pytest.raises(ValueError, match="partition"):
        evaluate_block_product(g, 2, [(r, (1,))])
    with pytest.raises(ValueError, match="arity"):
        evaluate_block_product(g, 2, [(r, (1, 2))])
    with pytest.raises(ValueError, match="capped"):
        evaluate_block_product(g, 5, [(r, (k,)) for k in range(1, 6)])
    other = fourier_field(TorusGrid(16), [1.0])
    with pytest.raises(ValueError, match="one grid"):
        evaluate_block_product(g, 2, [(r, (1,)), (other, (2,))])


def test_cluster_of_product_law_vanishes():
    g = TorusGrid(16)
    rho = fourier_field(g, [1.0, 0.4], [0.0, -0.2])
    f_table = {a: product_field(rho, a) for a in (1, 2, 3)}
    assert np.allclose(cluster_from_marginals(f_table, 1).values, rho.values)
    for j in (2, 3):
        gj = cluster_from_marginals(f_table, j)
        assert np.max(np.abs(gj.values)) < 1e-13


def test_cluster_hand_formula_arity_two():
    rng = np.random.default_rng(2)
    g = TorusGrid(16)
    tbl = random_exchangeable_triple(g, rng)
    g2 = cluster_from_marginals(tbl, 2)
    want = tbl[2].values - np.multiply.outer(tbl[1].values, tbl[1].values)
    assert np.allclose(g2.values, want, atol=1e-13)


def test_cluster_marginal_roundtrip_small():
    rng = np.random.default_rng(9)
    g = TorusGrid(16)
    for _ in range(3):
        f_table = random_exchangeable_triple(g, rng)
        g_table = {a: cluster_from_marginals(f_table, a) for a in (1, 2, 3)}
        back = {a: marginals_from_clusters(g_table, a) for a in (1, 2, 3)}
        for a in (1, 2, 3):
            assert np.max(np.abs(back[a].values - f_table[a].values)) < 1e-12
        # and the other direction, starting from clusters
        f2 = {a: marginals_from_clusters(g_table, a) for a in (1, 2, 3)}
        g_back = {a: cluster_from_marginals(f2, a) for a in (1, 2, 3)}
        for a in (1, 2, 3):
            assert np.max(np.abs(g_back[a].values - g_table[a].values)) < 1e-12


def test_transform_tables_validated():
    g = TorusGrid(8)
    rho = fourier_field(g, [1.0])
    with pytest.raises(ValueError, match="missing arity"):
        cluster_from_marginals({1: rho}, 2)
    with pytest.raises(ValueError, match="arity"):
        marginals_from_clusters({1: rho, 2: rho}, 2)


def _random_correction_table(grid, i_max, rng):
    """Correction table on the triangular set with exchangeable random entries."""
    tbl = {}
    for k in range(i_max + 1):
        for a in range(1, k + 2):
            f = random_exchangeable_triple(grid, rng)[min(a, 3)]
            vals = f.values if a <= 3 else np.ones(grid.shape(a))
            tbl[(k, a)] = GridField(grid, a, vals - (0.0 if (k, a) == (0, 1) else vals.mean()))
    return tbl


def test_assemble_correction_dense_vs_sparse():
    rng = np.random.default_rng(21)
    g = TorusGrid(12)
    tbl = _random_correction_table(g, 2, rng)
    for i in (0, 1, 2):
        for j in (1, 2, 3):
            dense = assemble_correction(i, j, tbl)
            sparse = assemble_correction_sparse(i, j, tbl)
            assert np.max(np.abs(dense.values - sparse.values)) < 1e-12


def test_assemble_correction_order_zero_is_product():
    rng = np.random.default_rng(4)
    g = TorusGrid(12)
    tbl = _random_correction_table(g, 1, rng)
    rho = tbl[(0, 1)]
    for j in (1, 2, 3):
        f0 = assemble_correction(0, j, tbl)
        assert np.allclose(f0.values, product_field(rho, j).values, atol=1e-13)


def test_assemble_correction_missing_entry():
    g = TorusGrid(8)
    rho = fourier_field(g, [1.0])
    with pytest.raises(ValueError, match="missing entry"):
        assemble_correction(1, 1, {(0, 1): rho})


def test_max_asymmetry():
    g = TorusGrid(8)
    rng = np.random.default_rng(6)
    sym = random_exchangeable_triple(g, rng)[2]
    assert max_asymmetry(sym) < 1e-14
    skew = GridField(g, 2, np.multiply.outer(g.points, np.ones(8)))
    assert max_asymmetry(skew) > 0.1
