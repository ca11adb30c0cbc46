"""Exponential-Euler step that takes flux_k's transform from flux_1's by an axis swap.

The package's _SpectralOps.step(u, flux1) solves the update with only the
d/dx_1 flux_1 divergence and 1/j of the heat part, using real transforms,
and sums its j copies with x_1 and x_k swapped in real space.  That is exact
only because the heat and phi_1 multipliers are invariant under coordinate
permutations and u is symmetric.  This stepper assembles the divergence in
Fourier space instead: one complex fftn of flux_1, whose spectrum with axes
0 and k-1 swapped is flux_k's, and the full heat update of u.  It builds its
own multipliers and shares no code with the package, so
test_spectral_step_matches_fourier_swap_step can compare the two steps on
symmetric inputs.
"""
import numpy as np


class FourierSwapStep:
    """Exponential Euler on (T^1)^arity; flux_k = flux_1 with x_1 and x_k swapped."""

    def __init__(self, M: int, arity: int, dt: float):
        freqs = np.fft.fftfreq(M, d=1.0 / M)  # integer mode numbers
        lam = np.zeros((M,) * arity)
        deriv = []
        mask = np.ones((M,) * arity, dtype=bool)
        keep = np.abs(freqs) <= M // 3  # 2/3-rule dealiasing
        for ax in range(arity):
            shape = [1] * arity
            shape[ax] = M
            kx = freqs.reshape(shape)
            lam = lam + 4.0 * np.pi ** 2 * kx ** 2
            deriv.append(2j * np.pi * kx)
            mask &= keep.reshape(shape)
        self.half = M // 2 + 1
        lam = lam[..., : self.half]
        self.deriv = [d[..., : self.half] for d in deriv]
        self.heat = np.exp(-lam * dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -np.expm1(-lam * dt) / lam
        # the flux divergence enters with a minus sign and dealiased: both go into its weight
        self.force = np.where(mask[..., : self.half], -np.where(lam == 0.0, dt, w), 0.0)

    def step(self, u: np.ndarray, flux1: np.ndarray) -> np.ndarray:
        """One step of du/dt = Lap u - sum_k d/dx_k flux_k."""
        F1 = np.fft.fftn(flux1)
        div = self.deriv[0] * F1[..., : self.half]
        for ax in range(1, u.ndim):
            div += self.deriv[ax] * np.swapaxes(F1, 0, ax)[..., : self.half]
        out = self.heat * np.fft.rfftn(u) + self.force * div
        return np.fft.irfftn(out, s=u.shape, axes=range(u.ndim))
