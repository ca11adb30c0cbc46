"""Special-function oracle for the iterated damping integrals.

I^ell_j(t) is the probability that at least ell of j+ell-1 independent
Exp(beta) clocks have rung by t, so it is the regularized incomplete beta
function

    I^ell_j(t) = betainc(ell, j, p),   p = 1 - e^{-beta t} = -expm1(-beta t),

with I^0_j = 1.  This is the package's former evaluator: scipy's betainc
(continued fractions and power series, no finite binomial sum), kept here as
an independent cross-check of the finite sum in pchaos.bounds.

Run:  python3 tests/oracles/damping_integral_betainc.py
"""
import numpy as np
from scipy.special import betainc


def damping_integral_betainc(ell, j: int, beta: float, ts) -> np.ndarray:
    """I^ell_j at every time in ts; ell and ts broadcast, I^0 = 1."""
    ell = np.asarray(ell)
    p = -np.expm1(-beta * np.asarray(ts, dtype=float))
    return np.where(ell == 0, 1.0, betainc(np.maximum(ell, 1), j, p))


def damping_integral_betainc_table(j: int, ell_max: int, beta: float, ts) -> np.ndarray:
    """I^L_j at every time in ts for L = 0..ell_max, shape (ell_max+1, len(ts))."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return damping_integral_betainc(np.arange(ell_max + 1)[:, None], j, beta, ts)


def main():
    print("(ell, j, beta, t) -> I")
    for ell, j, beta, t in [(1, 1, 1.0, 1.0), (8, 4, 1.0, 1.0), (37, 16, 1.0, 0.001),
                            (64, 16, 1.0, 3.0), (128, 1000, 1.0, 0.01)]:
        val = float(damping_integral_betainc(ell, j, beta, [t])[0])
        print(f"  ({ell:3d}, {j:4d}, {beta}, {t}) -> {val:.16e}")


if __name__ == "__main__":
    main()
