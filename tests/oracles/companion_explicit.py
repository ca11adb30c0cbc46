"""The rate worker's companion terms in their explicit leave-one-out form.

The package folds each kernel mode's moments into two per-step coefficients
and writes the leave-one-out forcing through per-replica moment residuals
(experiments._companion_terms).  This evaluator keeps the textbook form: the
drift b + khat * law expanded over the chain moments C[m], S[m], its
derivative term by term, and each particle's forcing built from the moment
discrepancies ecm, esm with that particle's own contribution removed.  The
two must agree to roundoff.
"""
import numpy as np


def companion_terms_explicit(kernel, y, C, S):
    """(drift, jac, force) of the (R, N) companion block y at chain moments C, S."""
    N = y.shape[-1]
    b = np.full_like(y, kernel.b_cos[0])
    fy = np.full_like(y, kernel.k_cos[0] * C[0])
    force = np.zeros_like(y)
    jac = np.zeros_like(y)
    for m, bc, bs, kc, ks in kernel.mode_table:
        w = 2 * np.pi * m
        cy = np.cos(w * y)
        sy = np.sin(w * y)
        b += bc * cy + bs * sy
        jac += w * (bs * cy - bc * sy)
        if kc == 0.0 and ks == 0.0:
            continue
        Cn, Sn = C[m], S[m]
        fy += kc * (cy * Cn + sy * Sn) + ks * (sy * Cn - cy * Sn)
        jac += w * (kc * (cy * Sn - sy * Cn) + ks * (cy * Cn + sy * Sn))
        ecm = (cy.mean(axis=-1, keepdims=True) - Cn) - (cy - Cn) / N
        esm = (sy.mean(axis=-1, keepdims=True) - Sn) - (sy - Sn) / N
        force += kc * (cy * ecm + sy * esm) + ks * (sy * ecm - cy * esm)
    return b + fy, jac, force
