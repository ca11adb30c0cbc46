"""One-order recurrence residual: a cross-check of bounds.recurrence_residual_sweep.

The damping integrals satisfy

    I^ell_j(t) = beta j int_0^t e^{-beta j (t-s)} I^{ell-1}_{j+1}(s) ds,

and the residual is the absolute difference of the two sides, with the
integrand values taken from the evaluator under test.  The package computes
every order of a lattice column at once on one shared node set; this oracle
computes a single order, on its own Gauss-Legendre panels (one per unit of
beta j t / 2, so the exponential factor varies by at most e^2 on each) at a
default of 64 nodes per panel, and shares no quadrature code with pchaos.bounds.
"""
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from pchaos.bounds import eval_I, eval_I_table


def recurrence_residual(ell: int, j: int, beta: float, t: float, order: int = 64) -> float:
    """|I^ell_j(t) - beta j int_0^t e^{-beta j (t-s)} I^{ell-1}_{j+1}(s) ds|, ell >= 1."""
    if t == 0:
        return eval_I(ell, j, beta, 0.0)
    nodes, weights = leggauss(order)
    panels = max(1, math.ceil(beta * j * t / 2.0))
    edges = np.linspace(0.0, t, panels + 1)
    integral = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ss = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        inner = eval_I_table(j + 1, ell - 1, beta, ss)[ell - 1]
        integral += 0.5 * (b - a) * float(np.sum(weights * np.exp(-beta * j * (t - ss)) * inner))
    return abs(eval_I(ell, j, beta, t) - beta * j * integral)
