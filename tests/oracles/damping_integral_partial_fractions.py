"""Partial-fraction oracle for the iterated damping integrals.

I^ell_j(t) is the probability that a sum of independent exponential waiting
times with the distinct rates beta*j, ..., beta*(j+ell-1) is at most t, so
the partial-fraction expansion of its Laplace transform gives the exact sum

    I^ell_j(t) = 1 - sum_{m=j}^{j+ell-1} e^{-beta*m*t} prod_{n != m} n / (n - m).

The products are binomial-sized with alternating signs, so the sum cancels
catastrophically in floating point.  Here the coefficients are exact
rationals, the sum is taken in mpmath, and the working precision doubles
until two consecutive sweeps agree to a relative tolerance at every order;
each value is rounded to a double once at the end.  No special functions and
no order statistics: a mechanism independent of the package's closed form.

Run:  python3 tests/oracles/damping_integral_partial_fractions.py
"""
from functools import lru_cache

import mpmath as mp
import numpy as np

DPS_START = 60
DPS_LIMIT = 4000


@lru_cache(maxsize=None)
def fraction_coeffs(j: int, ell: int):
    """Exact (numerator, denominator) of c_m = prod_{n != m} n/(n-m), m = j..j+ell-1."""
    out = []
    for m in range(j, j + ell):
        num, den = 1, 1
        for n in range(j, j + ell):
            if n != m:
                num *= n
                den *= n - m
        out.append((num, den))
    return tuple(out)


def _table_mp(j: int, ell_max: int, beta: float, t: float, dps: int):
    """[I^L_j(t) for L = 0..ell_max] as mpf values at working precision dps."""
    with mp.workdps(dps):
        b, tt = mp.mpf(beta), mp.mpf(t)
        exps = [mp.exp(-b * m * tt) for m in range(j, j + ell_max)]
        rows = [mp.mpf(1)]
        for L in range(1, ell_max + 1):
            acc = mp.mpf(1)
            for (num, den), e in zip(fraction_coeffs(j, L), exps):
                acc -= mp.mpf(num) / den * e
            rows.append(acc)
        return rows


def damping_integral_table(j: int, ell_max: int, beta: float, t: float,
                           rel_tol: float = 1e-15) -> np.ndarray:
    """I^L_j(t) for L = 0..ell_max, certified by doubling the working precision.

    Precision doubles until two consecutive sweeps agree to rel_tol relative
    at every order (exact zeros, as at t = 0, must agree exactly); failure to
    settle below DPS_LIMIT digits raises.
    """
    dps = DPS_START
    prev = _table_mp(j, ell_max, beta, t, dps)
    while dps * 2 <= DPS_LIMIT:
        dps *= 2
        cur = _table_mp(j, ell_max, beta, t, dps)
        with mp.workdps(dps):
            ok = all(abs(a - c) <= rel_tol * abs(c) for a, c in zip(prev, cur))
        if ok:
            return np.array([float(v) for v in cur])
        prev = cur
    raise ArithmeticError(f"no agreement below {DPS_LIMIT} digits (j={j}, ell_max={ell_max}, t={t})")


def main():
    print("(ell, j, beta, t) -> I")
    for ell, j, beta, t in [
        (1, 1, 1.0, 1.0),
        (2, 1, 1.0, 1.0),
        (8, 4, 1.0, 1.0),
        (16, 1, 1.0, 3.0),
        (32, 4, 1.0, 0.1),
        (37, 16, 1.0, 0.001),
        (64, 16, 1.0, 3.0),
    ]:
        val = damping_integral_table(j, ell, beta, t)[ell]
        print(f"  ({ell:2d}, {j:2d}, {beta}, {t}) -> {val:.16e}")


if __name__ == "__main__":
    main()
