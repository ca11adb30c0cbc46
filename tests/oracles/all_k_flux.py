"""Every flux component of a hierarchy entry, straight from its full term table.

The package keeps only the k = 1 terms of an entry's table and derives
flux_k by swapping x_1 and x_k, which is exact only when every stored entry
is symmetric and the table itself is.  This assembler evaluates all j
components term by term, routing each factor onto the j-lattice on the fly,
so test_flux_k_is_flux_1_with_axes_swapped can check both premises: flux_k
from the k-th terms equals flux_1 with axes 0 and k-1 swapped, and flux_1
equals the package's compiled flux.  A wrong coefficient or coordinate in a
k != 1 term of compile_entry_terms shows up here and nowhere else.

bbgky_fluxes does the same for the BBGKY-shaped flux behind the remainder
and the BBGKY reference, from a dense upper marginal: the package compiles
flux_1 alone, and for the reference's top level never forms that marginal.
"""
import numpy as np

from pchaos.operators import STAR, _Interaction, _route, compile_entry_terms


def entry_fluxes(i: int, j: int, op: _Interaction, state: dict) -> list:
    """[flux_1, ..., flux_j] of entry (i, j), i >= 1, at the given state."""
    M = op.M
    fluxes = [np.zeros((M,) * j) for _ in range(j)]
    for t in compile_entry_terms(i, j):
        if t.kind == "H":
            prod = None
            for order, coords in t.factors:
                vals = state[(order, len(coords))]
                if STAR in coords:
                    part = op.starred(vals @ op.U, op.starred_route(coords, t.k, j))
                else:
                    part = _route(vals, coords, j, M)
                prod = part if prod is None else prod * part
        else:
            prod = op.pair(t.k, t.l, j)
            for order, coords in t.factors:
                prod = prod * _route(state[(order, len(coords))], coords, j, M)
        # the table holds d/dt g - Lap g = sum coef * Op(...); the stepper
        # subtracts flux divergences, so the flux carries the opposite sign
        fluxes[t.k - 1] -= t.coef * prod
    return fluxes


def bbgky_fluxes(upper: np.ndarray, u: np.ndarray, c_upper: float, c_self: float,
                 op: _Interaction) -> list:
    """[flux_1, ..., flux_a] of c_upper H_k upper + c_self sum_l S_{k,l} u, u of arity a."""
    a = u.ndim
    full = tuple(range(1, a + 1))
    return [c_upper * op.starred(upper @ op.U, op.starred_route(full + (STAR,), k, a))
            + c_self * sum(op.pair(k, l, a) for l in full) * u for k in full]
