"""Synthetic smooth fields shared by the combinatorics and acceptance tests."""
import itertools as it
import math

import numpy as np

from pchaos.core import GridField, TorusGrid, fourier_field


def random_smooth_field(grid: TorusGrid, arity: int, rng: np.random.Generator,
                        band: int = 3, scale: float = 0.4) -> GridField:
    """Random band-limited field of the given arity, symmetrized over coordinates.

    Built as a mean-one mixture of separable trigonometric products and then
    averaged over all coordinate permutations, so the result is exchangeable
    and smooth with spectrum inside the grid band.
    """
    vals = np.ones(grid.shape(arity))
    for _ in range(3):
        term = np.ones(grid.shape(arity))
        for axis in range(arity):
            coeff_c = np.zeros(band + 1)
            coeff_s = np.zeros(band + 1)
            coeff_c[0] = 1.0
            m = rng.integers(1, band + 1)
            coeff_c[m] = scale * rng.standard_normal()
            coeff_s[m] = scale * rng.standard_normal()
            axis_vals = fourier_field(grid, coeff_c, coeff_s).values
            shape = [1] * arity
            shape[axis] = grid.M
            term = term * axis_vals.reshape(shape)
        vals = vals + scale * rng.standard_normal() * (term - 1.0)
    sym = np.zeros_like(vals)
    for perm in it.permutations(range(arity)):
        sym += np.transpose(vals, perm)
    sym /= math.factorial(arity)
    return GridField(grid, arity, sym)


def random_exchangeable_triple(grid: TorusGrid, rng: np.random.Generator) -> dict:
    """Arity -> field table for arities 1..3, each exchangeable and smooth."""
    return {a: random_smooth_field(grid, a, rng) for a in (1, 2, 3)}


def random_consistent_triple(grid: TorusGrid, rng: np.random.Generator) -> dict:
    """Arity -> marginals f_1, f_2, f_3 of one exchangeable law: int f_{a+1} dx = f_a.

    f_1 is a random smooth field of mean one; f_2 and f_3 are its cluster
    expansions with random smooth exchangeable clusters g_2, g_3 whose
    integral along every axis is zero.
    """
    f1 = random_smooth_field(grid, 1, rng).values
    f1 = f1 / f1.mean()
    g = {}
    for a in (2, 3):
        vals = random_smooth_field(grid, a, rng).values
        for axis in range(a):
            vals = vals - vals.mean(axis=axis, keepdims=True)
        g[a] = vals
    f2 = np.multiply.outer(f1, f1) + g[2]
    f3 = (np.einsum("a,b,c->abc", f1, f1, f1) + np.einsum("ab,c->abc", g[2], f1)
          + np.einsum("ac,b->abc", g[2], f1) + np.einsum("bc,a->abc", g[2], f1) + g[3])
    return {a: GridField(grid, a, v) for a, v in ((1, f1), (2, f2), (3, f3))}
