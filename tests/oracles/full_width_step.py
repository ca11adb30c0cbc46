"""The half-spectrum stepper at full width: the reference for operators._SpectralOps.

The package carries each unknown's half spectrum only up to a column H
(operators._SpectralOps), because the 2/3-rule dealiasing zeroes every
forced mode above M//3 and an unknown that starts at zero never gets one.
This stepper carries all M//2 + 1 columns of rfftn, transforms every column
of flux_1 with np.fft alone and adds the swapped spectra of flux_k over the
whole half spectrum, as the package did before it dropped columns.  It
shares no code with the package, so test_pde.py can step both side by side:
bit for bit where the package's last-axis transforms are pocketfft's too,
and to 1e-14 of the field's max where they are DFT matrix products
(operators._DFT_MAX_M).
"""
import functools
import math

import numpy as np


@functools.lru_cache(maxsize=None)
def mirror_index(shape: tuple, ax: int) -> np.ndarray:
    """Flat indices into a full half spectrum of the rows a >= M//2 + 1 of its swap with ax."""
    M, H = shape[0], shape[-1]
    full = tuple(range(ax))
    flat = np.arange(math.prod(shape)).reshape(shape)
    mirror = np.roll(np.flip(flat[..., M - H:0:-1], full), 1, full)
    return np.ascontiguousarray(np.swapaxes(mirror[:H], 0, ax))


def add_swapped(acc: np.ndarray, F: np.ndarray, ax: int) -> None:
    """acc += rfftn of f with axes 0 and ax swapped, given the full half spectrum F = rfftn(f)."""
    if ax < F.ndim - 1:
        acc += np.swapaxes(F, 0, ax)
        return
    H = F.shape[-1]
    acc[:H] += np.swapaxes(F[:H], 0, ax)
    mirror = F.take(mirror_index(F.shape, ax))
    acc[H:] += np.conjugate(mirror, out=mirror)


class FullWidthStep:
    """Exponential Euler on (T^1)^arity carrying u_hat = rfftn(u) with all M//2 + 1 columns."""

    def __init__(self, M: int, arity: int, dt: float):
        freqs = np.fft.fftfreq(M, d=1.0 / M)  # integer mode numbers
        lam = np.zeros((M,) * arity)
        mask = np.ones((M,) * arity, dtype=bool)
        keep = np.abs(freqs) <= M // 3  # 2/3-rule dealiasing
        for ax in range(arity):
            shape = [1] * arity
            shape[ax] = M
            lam = lam + 4.0 * np.pi ** 2 * freqs.reshape(shape) ** 2
            mask &= keep.reshape(shape)
        half = M // 2 + 1
        lam = lam[..., :half]
        deriv1 = (2j * np.pi * freqs).reshape((M,) + (1,) * (arity - 1))[..., :half]
        self.M = M
        self.heat = np.exp(-lam * dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -np.expm1(-lam * dt) / lam
        self.force = np.where(mask[..., :half], -np.where(lam == 0.0, dt, w), 0.0) * deriv1
        self._work = np.empty(lam.shape, dtype=complex)

    def step(self, u_hat: np.ndarray, flux1: np.ndarray) -> np.ndarray:
        """Advance u_hat in place by one step; return the new field."""
        F = self._work
        np.fft.rfft(flux1, axis=-1, out=F)
        for ax in range(F.ndim - 2, -1, -1):
            np.fft.fft(F, axis=ax, out=F)
        F *= self.force
        u_hat *= self.heat
        u_hat += F
        for ax in range(1, F.ndim):
            add_swapped(u_hat, F, ax)
        np.copyto(F, u_hat)
        for ax in range(F.ndim - 1):
            np.fft.ifft(F, axis=ax, out=F)
        return np.fft.irfft(F, n=self.M, axis=-1)
