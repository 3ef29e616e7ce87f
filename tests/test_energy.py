"""Energy quadrature oracles: closed forms, scaling laws, the sharp constant."""

import itertools
import math

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.signal import fftconvolve
from scipy.special import gamma

from invpos import energy
from invpos.energy import (
    el_residual,
    energy_direct,
    gaussian_field,
    rayleigh_quotient,
    riesz_potential,
    sharp_constant,
)
from invpos.fields import (
    Field,
    KernelParams,
    box_grid,
    extremizer_spec,
    lp_norm,
    make_extremizer,
)


def test_sharp_constant_closed_forms():
    # N=1, lambda=1/2: H = Gamma(1/4)/Gamma(3/4).
    kp = KernelParams(dim=1, lam=0.5)
    assert np.isclose(sharp_constant(kp), gamma(0.25) / gamma(0.75), rtol=1e-12)
    # N=3, lambda=1 (the Coulomb case).
    kp3 = KernelParams(dim=3, lam=1.0)
    expect = (
        np.pi ** 0.5
        * gamma(1.0)
        / gamma(2.5)
        * (gamma(3.0) / gamma(1.5)) ** (1.0 - 1.0 / 3.0)
    )
    assert np.isclose(sharp_constant(kp3), expect, rtol=1e-12)
    assert abs(sharp_constant(kp3) - 2.2940) < 2e-4


def test_indicator_energy_closed_form_1d():
    # I_(1/2)[chi_[0,1], chi_[0,1]] = int_0^1 int_0^1 |x-y|^(-1/2) = 8/3.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([0.0], [1.0], 512)
    f = Field(g, np.ones(512))
    res = energy_direct(f, f, kp)
    assert abs(res.value - 8.0 / 3.0) < 1e-8
    assert abs(res.value - 8.0 / 3.0) < max(res.est_error, 1e-9) * 10


def test_energy_scaling_law():
    # I_lambda[f_s, f_s] = s^(2N - lambda) I_lambda[f, f] for f_s(x) = f(x/s).
    kp = KernelParams(dim=1, lam=0.5)
    g1 = box_grid([0.0], [1.0], 256)
    g2 = box_grid([0.0], [2.0], 512)
    f1 = Field(g1, np.ones(256))
    f2 = Field(g2, np.ones(512))
    r1 = energy_direct(f1, f1, kp)
    r2 = energy_direct(f2, f2, kp)
    assert abs(r2.value / r1.value - 2.0 ** 1.5) < 1e-8


def test_energy_is_symmetric_and_bilinear():
    kp = KernelParams(dim=2, lam=1.0)
    g = box_grid([-3.0, -3.0], [3.0, 3.0], 64)
    rng = np.random.default_rng(5)
    f = Field(g, rng.uniform(size=(64, 64)))
    h = Field(g, rng.uniform(size=(64, 64)))
    assert np.isclose(energy_direct(f, h, kp).value, energy_direct(h, f, kp).value, rtol=1e-12)
    both = Field(g, f.values + h.values)
    lhs = energy_direct(both, both, kp).value
    rhs = (
        energy_direct(f, f, kp).value
        + 2.0 * energy_direct(f, h, kp).value
        + energy_direct(h, h, kp).value
    )
    assert np.isclose(lhs, rhs, rtol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_energy_is_symmetric_bit_for_bit(dim):
    kp = KernelParams(dim=dim, lam=0.4 * dim)
    n = {1: 96, 2: 24, 3: 10}[dim]
    g = box_grid([-2.0] * dim, [2.0] * dim, n)
    rng = np.random.default_rng(dim)
    f = Field(g, rng.uniform(size=g.shape))
    h = Field(g, rng.normal(size=g.shape))
    assert energy_direct(f, h, kp) == energy_direct(h, f, kp)


def test_gaussian_energy_against_closed_form_3d():
    kp = KernelParams(dim=3, lam=1.0)
    g = box_grid([-6.0] * 3, [6.0] * 3, 48)
    f = gaussian_field(g, [0.0] * 3, 1.0)
    res = energy_direct(f, f, kp)
    # Closed form via the Fourier side (|x|^(-1) has transform 4 pi |k|^(-2)):
    # I = 16 pi^2 int_0^inf e^(-k^2) dk = 8 pi^(5/2).
    assert abs(res.value - 8.0 * np.pi ** 2.5) < 5e-3 * res.value


def test_est_error_is_a_sane_bound_for_smooth_fields():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-10.0], [10.0], 1024)
    f = gaussian_field(g, [0.0], 1.0)
    res = energy_direct(f, f, kp)
    # The Richardson estimate should bound the true error to the converged
    # value (computed at double resolution) within a small factor.
    g2 = box_grid([-10.0], [10.0], 2048)
    f2 = gaussian_field(g2, [0.0], 1.0)
    res2 = energy_direct(f2, f2, kp)
    assert abs(res.value - res2.value) < 4.0 * (res.est_error + res2.est_error)


def test_riesz_potential_of_point_mass_profile():
    # The potential of a narrow bump approximates |x - x0|^(-lambda) far away.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-8.0], [8.0], 1024)
    x = g.axis_centers(0)
    f = Field(g, np.where(np.abs(x) < 0.05, 1.0, 0.0))
    mass = float(np.sum(f.values)) * g.cell_volume()
    pot = riesz_potential(f, kp)
    i = np.argmin(np.abs(x - 5.0))
    # The bump has finite width 0.1, so the far field differs from the
    # point-mass law by a second-moment correction of order 3e-5 relative.
    assert abs(pot[i] - mass * 5.0 ** (-0.5)) < 1e-3 * mass


def test_rayleigh_quotient_below_sharp_constant():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-12.0], [12.0], 512)
    f = gaussian_field(g, [0.0], 1.0)
    assert rayleigh_quotient(f, kp) < sharp_constant(kp)


def test_el_residual_small_for_extremizer_large_for_gaussian():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-40.0], [40.0], 2048)
    f = make_extremizer(extremizer_spec(kp), kp, g)
    res_ext = el_residual(f, kp)
    res_gau = el_residual(gaussian_field(g, [0.0], 1.0), kp)
    assert res_ext < 0.1 * res_gau


# --- the cached Riesz operator against the uncached rules it replaced ---


def _window_conv(values, kern):
    """The linear convolution window that the cached operator must reproduce."""
    conv = fftconvolve(values, kern, mode="full")
    return conv[tuple(slice(n - 1, 2 * n - 1) for n in values.shape)]


def _dense_reflected_kernel(shape, h, lo_n, lam):
    axes = [h * np.arange(-(n - 1), n) for n in shape[:-1]]
    t = 2.0 * lo_n + h * (np.arange(2 * shape[-1] - 1) + 1.0)
    mesh = np.meshgrid(*axes, t, indexing="ij")
    return sum(m * m for m in mesh) ** (-lam / 2.0)


def _dense_cell_pair_constant(dim, lam, offset):
    xu, wu = np.polynomial.legendre.leggauss(8)
    xv, wv = np.polynomial.legendre.leggauss(9)
    xu, wu, xv, wv = 0.5 * (xu + 1.0), 0.5 * wu, 0.5 * (xv + 1.0), 0.5 * wv
    u = np.stack([g.ravel() for g in np.meshgrid(*([xu] * dim), indexing="ij")], axis=-1)
    v = np.stack([g.ravel() for g in np.meshgrid(*([xv] * dim), indexing="ij")], axis=-1)
    w_u = np.prod(np.meshgrid(*([wu] * dim), indexing="ij"), axis=0).ravel()
    w_v = np.prod(np.meshgrid(*([wv] * dim), indexing="ij"), axis=0).ravel()
    d = np.linalg.norm(u[:, None, :] - v[None, :, :] + np.asarray(offset, dtype=float), axis=-1)
    return float(w_u @ d ** (-lam) @ w_v)


@pytest.mark.parametrize("shape", [(37,), (13, 9), (7, 6, 5)])
@pytest.mark.parametrize("lam", [0.4, 0.9])
def test_cached_operator_matches_window_convolution(shape, lam):
    values = np.random.default_rng(len(shape)).uniform(0.1, 1.0, size=shape)
    h, lo_n = 0.3, 0.15
    direct = energy.apply_kernel(values, energy.kernel_spectrum(shape, h, lam))
    want = _window_conv(values, energy._offset_kernel(shape, h, lam))
    assert np.max(np.abs(direct - want) / np.abs(want)) < 1e-13
    reflected = energy.apply_kernel(values, energy.kernel_spectrum(shape, h, lam, lo_n))
    want = _window_conv(values, _dense_reflected_kernel(shape, h, lo_n, lam))
    assert np.max(np.abs(reflected - want) / np.abs(want)) < 1e-13


@pytest.mark.parametrize(
    "shape, lengths", [((41,), (81,)), ((37,), (75,)), ((48,), (96,)), ((13, 9), (25, 18)), ((7, 6, 5), (15, 12, 9)), ((41, 8), (81, 15))]
)
@pytest.mark.parametrize("same", [True, False])
def test_forward_only_pair_sum_matches_window_convolution(shape, lengths, same):
    # Even and odd FFT lengths on the last axis: the half-spectrum weights
    # differ in the Nyquist bin.
    assert energy._fast_shape(shape) == lengths
    lam, h = 0.7, 0.3
    grid = box_grid([0.0] * len(shape), [h * n for n in shape], list(shape))
    rng = np.random.default_rng(len(shape))
    f = Field(grid, rng.uniform(0.1, 1.0, size=shape))
    g = f if same else Field(grid, rng.uniform(0.1, 1.0, size=shape))
    off_diag = np.sum(g.values * _window_conv(f.values, energy._offset_kernel(shape, h, lam))) * h ** (2 * len(shape))
    diag = np.sum(f.values * g.values) * energy._diag_cell_constant(len(shape), lam) * h ** (2 * len(shape) - lam)
    want = off_diag + diag
    assert abs(energy._pair_sum(f, g, lam) - want) <= 1e-13 * abs(want)


def test_value_only_energy_is_bit_identical():
    kp = KernelParams(dim=2, lam=1.0)
    g = box_grid([-3.0, -3.0], [3.0, 3.0], 32)
    rng = np.random.default_rng(3)
    f, h = Field(g, rng.uniform(size=g.shape)), Field(g, rng.uniform(size=g.shape))
    full = energy_direct(f, h, kp)
    bare = energy_direct(f, h, kp, estimate=False)
    assert bare.value == full.value and full.est_error > 0
    assert math.isnan(bare.est_error)


def test_estimate_kind_names_how_est_error_was_obtained():
    kp = KernelParams(dim=1, lam=0.5)
    f = Field(box_grid([0.0], [1.0], 64), np.ones(64))
    assert energy_direct(f, f, kp).est_kind == "richardson"
    assert energy_direct(f, f, kp, estimate=False).est_kind == "none"
    # Three cells cannot be coarsened: the 1 % fallback is labelled guessed.
    tiny = Field(box_grid([0.0], [1.0], 3), np.ones(3))
    res = energy_direct(tiny, tiny, kp)
    assert res.est_kind == "guessed"
    assert res.est_error == abs(res.value) * 1e-2


def test_cache_hit_and_miss_are_bit_identical():
    kp = KernelParams(dim=3, lam=1.3)
    g = box_grid([-2.0] * 3, [2.0] * 3, 12)
    f = gaussian_field(g, [0.2, 0.0, -0.1], 0.7)
    energy.kernel_spectrum.cache_clear()
    miss = energy_direct(f, f, kp)
    hits = energy.kernel_spectrum.cache_info().hits
    hit = energy_direct(f, f, kp)
    assert energy.kernel_spectrum.cache_info().hits > hits
    energy.kernel_spectrum.cache_clear()
    again = energy_direct(f, f, kp)
    assert miss == hit == again


def test_spectrum_cache_stays_bounded():
    g = box_grid([-2.0, -2.0], [2.0, 2.0], 16)
    f = gaussian_field(g, [0.0, 0.0], 0.8)
    for lam in np.linspace(0.2, 1.8, 12):
        energy_direct(f, f, KernelParams(dim=2, lam=float(lam)))
    # The near-field constants are keyed by lambda too.
    for cache in (energy.kernel_spectrum, energy._cell_pair_constant, energy._diag_cell_constant):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    with pytest.raises(ValueError):
        energy.kernel_spectrum((16, 16), g.spacing, 1.0)[0, 0] = 0.0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [0.3, 1.0, 1.7])
def test_separable_cell_pair_constant_matches_dense_rule(dim, lam):
    for offset in [(0,) * dim, (0,) * (dim - 1) + (1,), (1,) * dim, (0,) * (dim - 1) + (2,), (1,) + (2,) * (dim - 1)]:
        got = energy._cell_pair_constant(dim, lam, offset)
        want = _dense_cell_pair_constant(dim, lam, offset)
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [0.3, 1.0, 1.7, 1.95])
def test_folded_cell_pair_constant_matches_dense_rule_on_every_near_offset(dim, lam):
    # Every sorted offset the kernel asks for: all mirror and swap folds.
    for offset in sorted({tuple(sorted(o)) for o in itertools.product(range(3), repeat=dim)}):
        got = energy._cell_pair_constant(dim, lam, offset)
        want = _dense_cell_pair_constant(dim, lam, offset)
        assert abs(got - want) <= 1e-14 * want, offset


def _octant_kernel_at_every_offset(shape, spacing, lam):
    """The octant kernel with its far formula evaluated on the meshgrid of offsets."""
    dim = len(shape)
    mesh = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    k2 = sum(m * m for m in mesh).astype(float)
    origin = (0,) * dim
    k2[origin] = 1.0
    kern = k2 ** (-lam / 2.0) + (lam * (lam + 2.0 - dim) / 12.0) * k2 ** (-(lam + 2.0) / 2.0)
    if dim == 1:
        k = mesh[0].astype(float)
        near = (k >= 1) & (k <= energy._EXACT_1D_MAX)
        a = 2.0 - lam
        kn = k[near]
        kern[near] = ((kn + 1.0) ** a - 2.0 * kn**a + (kn - 1.0) ** a) / ((1.0 - lam) * (2.0 - lam))
    else:
        for off in itertools.product(range(energy._NEAR_RADIUS + 1), repeat=dim):
            if off != origin and all(o < n for o, n in zip(off, shape)):
                kern[off] = energy._cell_pair_constant(dim, lam, tuple(sorted(off)))
    kern[origin] = 0.0
    return kern * spacing ** (-lam)


@pytest.mark.parametrize("shape", [(1,), (5,), (100,), (2, 2), (7, 7), (24, 16), (2, 2, 2), (3, 3, 3), (12, 8, 5), (20, 20, 20)])
@pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
def test_octant_kernel_by_squared_offset_matches_every_offset(shape, share):
    lam = share * len(shape)
    got = energy._octant_kernel(shape, 0.3, lam)
    assert np.array_equal(got, _octant_kernel_at_every_offset(shape, 0.3, lam))


def _rfftn_kernel_spectrum(shape, h, lam):
    """The direct kernel spectrum as one rfftn of the kernel gathered at full length."""
    size = energy._fast_shape(shape)
    rows = [np.minimum(np.minimum(c, n_fft - c), n) for c, n_fft, n in zip(map(np.arange, size), size, shape)]
    kern = np.pad(energy._octant_kernel(shape, h, lam), [(0, 1)] * len(shape))[np.ix_(*rows)]
    return sfft.rfftn(kern).real * (energy._half_spectrum_weights(size[-1]) / math.prod(size))


def _unfold(spectrum, shape):
    """A folded kernel spectrum spread over the half spectrum of ``_fast_shape(shape)``: bin c reads bin min(c, L - c)."""
    size = energy._fast_shape(shape)
    return spectrum[np.ix_(*[np.minimum(c, n_fft - c) for c, n_fft in zip(map(np.arange, size[:-1]), size[:-1])])]


SPECTRUM_SHAPES = [(41,), (37,), (48,), (13, 9), (7, 6, 5), (41, 8), (24, 24, 24)]


@pytest.mark.parametrize("shape", SPECTRUM_SHAPES)
@pytest.mark.parametrize("lam", [0.4, 1.9])
def test_separable_kernel_spectrum_matches_full_rfftn(shape, lam):
    # Odd and even FFT lengths on every axis; 1-D takes the same single rfft.
    folded = energy.kernel_spectrum(shape, 0.3, lam)
    assert folded.shape == tuple(n_fft // 2 + 1 for n_fft in energy._fast_shape(shape))
    got = _unfold(folded, shape)
    want = _rfftn_kernel_spectrum(shape, 0.3, lam)
    assert got.shape == want.shape
    if len(shape) == 1:
        assert np.array_equal(got, want)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", SPECTRUM_SHAPES)
@pytest.mark.parametrize("dtype", [float, complex])
def test_mirrored_multiply_matches_the_gathered_spectrum_bit_for_bit(shape, dtype):
    # Odd and even lengths on every axis: the mirrored views must meet each
    # bin with the same float as the full layout.
    folded = energy.kernel_spectrum(shape, 0.3, 1.1)
    half = energy._half_shape(energy._fast_shape(shape))
    rng = np.random.default_rng(len(shape))
    target = rng.standard_normal(half).astype(dtype)
    if dtype is complex:
        target.imag = rng.standard_normal(half)
    want = target * _unfold(folded, shape)
    energy._multiply_spectrum(target, folded)
    assert np.array_equal(target, want)


@pytest.mark.parametrize("shape", [(41,), (13, 9), (96, 96), (7, 6, 5), (24, 24, 24), (32, 32, 4)])
def test_padded_spectrum_is_bit_identical_to_padded_ffts(shape):
    # The in-place corner transform against rfft, then fft(n=...) per axis.
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    size = energy._fast_shape(shape)
    want = sfft.rfft(values, n=size[-1], axis=-1)
    for axis in range(len(shape) - 2, -1, -1):
        want = sfft.fft(want, n=size[axis], axis=axis)
    got = energy._padded_spectrum(values, size, np.empty(energy._half_shape(size), dtype=complex))
    assert got.shape == want.shape and np.array_equal(got, want)


# --- the work arrays kept per padded size and thread ---


def _fresh_pair_sum(f, g, lam):
    """``_pair_sum`` on freshly allocated spectra, with the product formed in one expression."""
    h, dim = f.grid.spacing, f.dim
    size = energy._fast_shape(f.grid.shape)
    fs = energy._padded_spectrum(f.values, size, np.empty(energy._half_shape(size), dtype=complex))
    gs = fs if g is f else energy._padded_spectrum(g.values, size, np.empty(energy._half_shape(size), dtype=complex))
    spectrum = _unfold(energy.kernel_spectrum(f.grid.shape, h, lam), f.grid.shape)
    off_diag = float(np.sum(spectrum * (fs.real * gs.real + fs.imag * gs.imag))) * h ** (2 * dim)
    return off_diag + float(np.sum(f.values * g.values)) * energy._diag_cell_constant(dim, lam) * h ** (2 * dim - lam)


def _fresh_apply_kernel(values, spectrum):
    """``apply_kernel`` on a freshly allocated spectrum, with a folded kernel spectrum unfolded first."""
    size = energy._fast_shape(values.shape)
    if not np.iscomplexobj(spectrum):
        spectrum = _unfold(spectrum, values.shape)
    unweighted = spectrum / energy._half_spectrum_weights(size[-1])
    spec = energy._padded_spectrum(values, size, np.empty(energy._half_shape(size), dtype=complex))
    conv = sfft.irfftn(spec * unweighted, s=size, norm="forward")
    return conv[tuple(slice(0, n) for n in values.shape)]


def test_pair_sum_on_kept_work_arrays_matches_fresh_arrays_bit_for_bit():
    # More padded sizes than are kept, interleaved, so that arrays are reused
    # after other sizes, dropped and allocated again; a stale corner or
    # padding from the last use of a size would show.
    shapes = [(37,), (13, 9), (7, 6, 5), (64,), (16, 16), (12, 12, 12), (41, 8), (6, 7, 8)]
    assert len({energy._fast_shape(s) for s in shapes}) > energy._WORK_SIZES
    rng = np.random.default_rng(20)
    lam = 0.7
    for shape in shapes * 3 + shapes[::-1]:
        grid = box_grid([0.0] * len(shape), [0.3 * n for n in shape], list(shape))
        f = Field(grid, rng.standard_normal(shape))
        g = Field(grid, rng.standard_normal(shape))
        assert energy._pair_sum(f, f, lam) == _fresh_pair_sum(f, f, lam)
        assert energy._pair_sum(f, g, lam) == _fresh_pair_sum(f, g, lam)
        assert energy._pair_sum(g, f, lam) == _fresh_pair_sum(g, f, lam)
        # apply_kernel shares the arrays, with the cell-averaged (real) and
        # the reflected (complex) spectra.
        for spectrum in (energy.kernel_spectrum(shape, 0.3, lam), energy.kernel_spectrum(shape, 0.3, lam, 0.15)):
            assert np.array_equal(energy.apply_kernel(g.values, spectrum), _fresh_apply_kernel(g.values, spectrum))


def test_pair_sum_work_arrays_are_per_thread():
    # More threads than cores on one padded size, switching often: arrays
    # shared between threads would mix their spectra.
    import sys
    import threading

    shape, lam = (24, 24, 24), 1.3
    grid = box_grid([0.0] * 3, [0.25 * n for n in shape], list(shape))
    rng = np.random.default_rng(21)
    fields = [Field(grid, rng.standard_normal(shape)) for _ in range(4)]
    pairs = [(a, b) for a in fields for b in fields]
    want = [_fresh_pair_sum(a, b, lam) for a, b in pairs]
    start = threading.Barrier(4, timeout=60)
    got = {}

    def work(name):
        order = np.random.default_rng(name).permutation(len(pairs))
        start.wait()
        got[name] = [(i, energy._pair_sum(*pairs[i], lam)) for _ in range(3) for i in order]

    threads = [threading.Thread(target=work, args=(name,)) for name in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for name in range(4):
        assert len(got[name]) == 3 * len(pairs)
        assert all(value == want[i] for i, value in got[name])


# --- memory held by the kernel cache and the work arrays ---


def test_kernel_spectrum_and_work_arrays_hold_their_stated_sizes():
    # The 48^3 spectrum is the real octant of its 96^3 padded grid, and a
    # padded size keeps two complex half spectra and one real one.
    assert energy.kernel_spectrum((48,) * 3, 1.0 / 3.0, 1.23).nbytes == 49**3 * 8
    half = energy._half_shape((96, 96, 96))
    arrays = energy._work_arrays((96, 96, 96))
    assert sorted((a.shape, a.dtype) for a in arrays) == sorted([(half, np.dtype(complex))] * 2 + [(half, np.dtype(float))])


def test_positivity_defects_at_48_cubed_stay_within_their_memory_bound():
    # Criterion 3's grid with two Gaussians and an axis plane on a cell edge.
    # A fresh thread allocates its own work arrays inside the trace, and each
    # lambda builds a fresh fine and coarse kernel.  The octant spectra and
    # three work arrays peak near 35 MB; full-layout spectra and a fourth
    # work array peaked near 52 MB.
    import threading
    import tracemalloc

    from invpos.geometry import HalfSpace
    from invpos.positivity import positivity_defect

    grid = box_grid([-8.0] * 3, [8.0] * 3, 48)
    pts = grid.points()
    bumps = [(np.array([0.5, -0.3, 0.2]), 0.9, 1.0), (np.array([-1.0, 0.8, -0.4]), 0.7, 0.6)]
    values = sum(a * np.exp(-np.sum((pts - c) ** 2, axis=-1) / (2.0 * w * w)) for c, w, a in bumps)
    f = Field(grid, values.reshape(grid.shape))
    plane = HalfSpace(normal=[1.0, 0.0, 0.0], offset=float(grid.lo[0] + 24 * grid.spacing))
    defects = []

    def work():
        for lam in (1.0517, 1.1517, 1.3517, 1.5517, 1.7517, 1.9517):
            defects.append(positivity_defect(plane, f, KernelParams(dim=3, lam=lam)).defect)

    tracemalloc.start()
    try:
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(defects) == 6 and all(np.isfinite(defects))
    assert peak < 44e6, f"peak {peak / 1e6:.1f} MB"
