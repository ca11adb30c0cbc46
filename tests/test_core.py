"""Grids, fields, band-limited kernels, and spectral quadrature."""
import numpy as np
import pytest

from pchaos.core import (MAX_KERNEL_MODE, GridField, KernelSpec, TorusGrid, check_density,
                         fourier_field, product_field, step_count)
from pchaos.operators import _EntrySolver, _Interaction, compile_entry_terms


def test_grid_basics():
    g = TorusGrid(8)
    assert g.h == 0.125
    assert np.array_equal(g.points, np.arange(8) / 8)
    assert g.shape(3) == (8, 8, 8)
    assert g.cell_volume(2) == 0.125 ** 2


def test_grid_validation():
    with pytest.raises(ValueError, match="at least 2"):
        TorusGrid(1)


def test_field_rejects_misshapen_input():
    g = TorusGrid(4)
    assert GridField(g, 2, np.ones((4, 4))).values.shape == (4, 4)
    for bad in (np.arange(16.0), np.arange(15.0), np.ones((4, 4, 1))):
        with pytest.raises(ValueError, match=r"expected \(4, 4\) for arity 2 on M=4"):
            GridField(g, 2, bad)


def test_integrate_exact_for_trig_polynomials():
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.3, 0.0, -0.2], [0.0, 0.1, 0.4, 0.0])
    # every nonconstant mode integrates to zero on the full period
    assert f.integrate() == pytest.approx(1.0, abs=1e-15)


def test_is_probability_density():
    # check_density is the one test of every density the package takes in
    g = TorusGrid(32)
    check_density(fourier_field(g, [1.0, 0.5]), "weight")
    for f, message in ((fourier_field(g, [2.0]), "integrate to 1"),
                       (fourier_field(g, [1.0, 1.5]), "strictly positive"),  # negative part
                       (fourier_field(g, [1.0, 1.0]), "strictly positive"),  # zero at x = 1/2
                       (GridField(g, 1, np.full(32, np.nan)), "strictly positive"),
                       (GridField(g, 2, np.ones((32, 32))), "arity-1")):
        with pytest.raises(ValueError, match=message):
            check_density(f, "weight")


def test_fourier_field_empty_sine_list_means_no_sine_terms():
    g = TorusGrid(16)
    want = fourier_field(g, [1.0, 0.5]).values
    for sins in (None, [], (), np.zeros(0)):
        assert np.array_equal(fourier_field(g, [1.0, 0.5], sins).values, want)


def test_step_count():
    assert step_count(0.5, 1e-3) == 500
    assert step_count(0.0, 0.1) == 0
    for T in (2.5e-4, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="integer multiple of dt"):
            step_count(T, 1e-3)
    with pytest.raises(ValueError, match="dt must be positive"):
        step_count(1.0, 0.0)


def test_kernel_eval_matches_series(default_kernel):
    rng = np.random.default_rng(7)
    x = rng.random(64)
    y = rng.random(64)
    want = 0.75 * np.cos(2 * np.pi * x) + 0.25 * np.sin(2 * np.pi * (x - y))
    got = default_kernel.eval(x, y)
    assert np.allclose(got, want, atol=1e-14)
    assert default_kernel.sup_norm_bound == 1.0
    assert default_kernel.band == 1
    assert KernelSpec.from_tables().sup_norm_bound == 0.0
    assert KernelSpec.from_tables().mode_table == ()


def test_kernel_text_roundtrip_preserves_floats():
    rng = np.random.default_rng(3)
    k = KernelSpec.from_tables(
        b={0: (rng.random(), 0.0), 2: (rng.random(), -rng.random())},
        khat={1: (0.0, rng.random()), 3: (rng.random() * 1e-7, rng.random())},
    )
    k2 = KernelSpec.from_text(k.to_text())
    for name in ("b_cos", "b_sin", "k_cos", "k_sin"):
        assert np.array_equal(getattr(k, name), getattr(k2, name))


@pytest.mark.parametrize(
    "line, message",
    [
        ("b 1 0.5", "4 fields"),
        ("c 1 0.5 0.0", "unknown part"),
        ("b -1 0.5 0.0", "negative mode"),
        ("khat 65537 1.0 0.0", "line 1: mode 65537 exceeds the largest supported mode 65536"),
        ("b 0 0.5 0.3", "mode 0 sin"),
        ("b 1 0.5 0.0\nb 1 0.2 0.0", "duplicate"),
        ("b one 0.5 0.0", "invalid literal"),
        ("b 1 nan 0.0", "non-finite"),
    ],
)
def test_kernel_text_errors(line, message):
    with pytest.raises(ValueError, match=message):
        KernelSpec.from_text(line)


def test_kernel_mode_cap_is_inclusive():
    assert KernelSpec.from_text(f"khat {MAX_KERNEL_MODE} 0.5 0.0\n").band == MAX_KERNEL_MODE


def test_kernel_text_ignores_comments_and_blanks(default_kernel):
    text = "# stock kernel\n\nb 1 0.75 0.0   # confinement\nkhat 1 0.0 0.25\n"
    k = KernelSpec.from_text(text)
    assert np.array_equal(k.b_cos, default_kernel.b_cos)
    assert np.array_equal(k.k_sin, default_kernel.k_sin)


def test_kernel_mode0_sine_rejected_in_constructor():
    with pytest.raises(ValueError, match="mode-0 sine"):
        KernelSpec([0.0], [0.1], [0.0], [0.0])


def test_check_band_rejects_unresolved_kernel():
    k = KernelSpec.from_tables(b={1: (0.4, -0.2), 2: (0.0, 0.1)}, khat={2: (0.3, 0.0)})
    k._check_band(5)
    with pytest.raises(ValueError, match="Nyquist"):
        k._check_band(4)


def mean_field_flux(kernel: KernelSpec, grid: TorusGrid, rho: np.ndarray) -> np.ndarray:
    """The compiled flux of entry (0, 1), the mean-field transport (K * rho) rho."""
    solver = _EntrySolver(compile_entry_terms(0, 1), 1, _Interaction(kernel, grid))
    return solver.flux1({(0, 1): rho}, {}).copy()


def test_convolve_density_equals_direct_sum():
    # the mean-field flux (K * rho) rho, through the kernel factors, against
    # the direct quadrature sum of K(x_i, y_j) rho(y_j)
    rng = np.random.default_rng(11)
    g = TorusGrid(32)
    k = KernelSpec.from_tables(b={0: (0.2, 0.0), 1: (0.5, 0.1)},
                               khat={1: (-0.3, 0.4), 5: (0.2, 0.2)})
    rho = GridField(g, 1, 1.0 + 0.5 * rng.standard_normal(32))
    x = g.points
    direct = g.h * np.array([np.sum(k.eval(xi, x) * rho.values) for xi in x])
    flux = mean_field_flux(k, g, rho.values)
    assert np.allclose(flux, direct * rho.values, atol=1e-13)


def test_convolve_density_mass_and_zero_kernel():
    g = TorusGrid(16)
    rho = fourier_field(g, [1.0, 0.5])
    assert np.allclose(mean_field_flux(KernelSpec.from_tables(), g, rho.values), 0.0)
    k = KernelSpec.from_tables(b={0: (2.0, 0.0)})   # K * rho = 2 mass(rho) = 2
    flux = mean_field_flux(k, g, rho.values)
    assert np.allclose(flux, 2.0 * rho.values, atol=1e-14)


def test_fourier_field_band_check():
    with pytest.raises(ValueError, match="Nyquist"):
        fourier_field(TorusGrid(4), [1.0, 0.1, 0.1])
    with pytest.raises(ValueError, match="equal length"):
        fourier_field(TorusGrid(8), [1.0, 0.1], [0.0])


def test_product_field_values():
    g = TorusGrid(8)
    rho = fourier_field(g, [1.0, 0.25])
    p3 = product_field(rho, 3)
    assert p3.arity == 3
    i, j, l = 1, 5, 2
    assert p3.values[i, j, l] == pytest.approx(
        rho.values[i] * rho.values[j] * rho.values[l], rel=1e-15
    )
    assert p3.integrate() == pytest.approx(1.0, abs=1e-14)

