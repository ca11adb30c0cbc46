"""The companion chain's moment table by an (M, M) Gaussian transfer matrix.

This is the package's former evaluator of experiments._chain_moments: the
chain density is kept at cell midpoints and each step applies the periodic
Gaussian transition as a dense matrix, an image sum of M^2 exp values (of
erf differences on the first step, which integrate the transition over the
sampler's constant cells), followed by a matrix-vector product.  The package
now steps the same Nystrom chain in Fourier space, where the transition is a
diagonal heat factor; the two agree to roundoff.  _erf is the standard
library's erf, so a test can swap in another erf and measure the difference.
"""
import math

import numpy as np

from pchaos.core import GridField, KernelSpec
from pchaos.particles import mode_sum_drift

_ERF_UFUNC = np.frompyfunc(math.erf, 1, 1)


def _erf(z: np.ndarray) -> np.ndarray:
    """Elementwise math.erf."""
    return _ERF_UFUNC(z).astype(float)


def chain_moments_transfer_matrix(kernel: KernelSpec, sample_density: GridField, dt: float,
                                  n_steps: int, min_refine: int = 1):
    """(C, S), each (n_steps + 1, modes): the chain's per-step trig moments."""
    n_modes = max(len(kernel.k_cos), 1)
    sigma = math.sqrt(2.0 * dt)
    grid = sample_density.grid
    masses = sample_density.values * grid.h
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    cum[-1] = 1.0
    masses = np.diff(cum)
    # refine cells until the one-step heat kernel is spectrally resolved
    refine = max(min_refine, math.ceil(4.0 / (sigma * grid.M)))
    M = grid.M * refine
    h = 1.0 / M
    masses = np.repeat(masses, refine) / refine
    mid = (np.arange(M) + 0.5) * h
    images = range(-max(1, math.ceil(6.0 * sigma)), max(1, math.ceil(6.0 * sigma)) + 1)

    Cdt = np.zeros((n_steps + 1, n_modes))
    Sdt = np.zeros((n_steps + 1, n_modes))
    Cdt[:, 0] = 1.0
    for m in range(1, n_modes):
        # cell averages of the trig monomials against the exact cell masses
        damp = math.sin(math.pi * m * h) / (math.pi * m * h)
        Cdt[0, m] = damp * float((masses * np.cos(2 * np.pi * m * mid)).sum())
        Sdt[0, m] = damp * float((masses * np.sin(2 * np.pi * m * mid)).sum())
    if n_steps == 0:
        return Cdt, Sdt

    # the (M, M) step arrays are reused: fresh ones cost more than the arithmetic
    w, t, G = np.empty((M, M)), np.empty((M, M)), np.zeros((M, M))

    def displaced(n):
        np.subtract(mid[:, None], (mid + dt * mode_sum_drift(kernel, mid, Cdt[n], Sdt[n]))[None, :],
                    out=w)
        np.subtract(w, np.round(w, out=t), out=w)

    displaced(0)
    root2 = math.sqrt(2.0)
    for k in images:
        G += 0.5 * (
            _erf((w + k + 0.5 * h) / (sigma * root2))
            - _erf((w + k - 0.5 * h) / (sigma * root2))
        )
    p = G @ (masses / h)
    norm = h / (sigma * math.sqrt(2.0 * math.pi))
    for n in range(1, n_steps + 1):
        for m in range(1, n_modes):
            Cdt[n, m] = h * float((p * np.cos(2 * np.pi * m * mid)).sum())
            Sdt[n, m] = h * float((p * np.sin(2 * np.pi * m * mid)).sum())
        if n == n_steps:
            break
        displaced(n)
        for k in images:  # G = sum_k exp(-((w + k) / sigma)^2 / 2)
            np.add(w, k, out=t)
            t /= sigma
            np.square(t, out=t)
            t *= -0.5
            if k == images[0]:
                np.exp(t, out=G)
            else:
                G += np.exp(t, out=t)
        p = (G @ p) * norm
    return Cdt, Sdt
