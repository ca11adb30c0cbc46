"""The whole N-particle forward equation on the grid, for small N.

The law F(x_1, ..., x_N) of the particle system solves

    dF/dt = sum_k Lap_k F - sum_k d/dx_k [(b(x_k) + (1/N) sum_l khat(x_k - x_l)) F],

with the l = k term included, as the simulator and the BBGKY hierarchy
have it.  This solver steps F itself on the M^N grid: one complex fftn over
all N axes per flux, exponential Euler (the heat part exact, the transport
part integrated with the phi_1 weight), and the 2/3 rule on every axis, the
time discretization pde.solve_bbgky_reference uses.  Its marginals are
therefore the exact ones of that discretization, with no closure.  It builds
its own multipliers and drift and shares only core._series (the kernel's
trigonometric evaluator) with the package, so a fault in the hierarchy's
flux code cannot pass both sides at once.  Cost grows as M^N: N = 4 at
M = 12 is ~4 ms a step.
"""
import numpy as np

from pchaos.core import _series


def n_particle_marginals(kernel, f0: np.ndarray, N: int, dt: float, n_steps: int) -> tuple:
    """(f_1, f_2) at t = n_steps dt, from F(0) = prod_k f0(x_k) on the grid x = i/M."""
    M = len(f0)
    x = np.ix_(*[np.arange(M) / M] * N)
    drifts = [_series(kernel.b_cos, kernel.b_sin, x[k])
              + sum(_series(kernel.k_cos, kernel.k_sin, x[k] - x[l]) for l in range(N)) / N
              for k in range(N)]
    freqs = np.ix_(*[np.fft.fftfreq(M, d=1.0 / M)] * N)
    lam = sum(4.0 * np.pi ** 2 * f ** 2 for f in freqs)
    keep = np.ones((M,) * N, dtype=bool)
    for f in freqs:
        keep &= np.abs(f) <= M // 3
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(lam == 0.0, dt, -np.expm1(-lam * dt) / lam)
    heat = np.exp(-lam * dt)
    forces = [np.where(keep, -weight, 0.0) * 2j * np.pi * freqs[k] for k in range(N)]

    F = f0.reshape((M,) + (1,) * (N - 1))
    for k in range(1, N):
        F = F * f0.reshape((1,) * k + (M,) + (1,) * (N - 1 - k))
    F_hat = np.fft.fftn(F)
    for _ in range(n_steps):
        F_hat = heat * F_hat + sum(force * np.fft.fftn(drift * F)
                                   for force, drift in zip(forces, drifts))
        F = np.fft.ifftn(F_hat).real
    h = 1.0 / M
    f2 = F.sum(axis=tuple(range(2, N))) * h ** (N - 2)
    return f2.sum(axis=1) * h, f2
