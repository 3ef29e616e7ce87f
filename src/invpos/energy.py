"""The bilinear Riesz energy, sharp constant, and related diagnostics.

The double midpoint sum over a uniform grid is a discrete convolution in the
index offset.  Zero-padded so that no offset wraps, it is the quadratic form
<g, K f> = (1/M) sum_xi K^(xi) Re(conj(G^(xi)) F^(xi)) over the M bins of
the padded spectrum, so an energy takes one forward transform per distinct
field and no inverse transform; the result agrees to rounding with the
literal pair loop.  The offset kernel is even on every axis, so its spectrum
is real and even: it is built on one octant of offsets, transformed once per
grid shape, spacing and lambda one axis at a time on the real bins that the
later axes leave, and a small cache keeps the last few spectra as that real
octant of bins, with the half-spectrum weights and 1/M folded in.  A product
with a field's half spectrum reads the octant through mirrored views.  The
forward transform of a field skips the lines of the padded array that hold
only zeros, and writes into work arrays in one buffer per thread, so that a
pair sum allocates no spectrum-sized array.  The form <Theta g, g> of an
index mirror takes one transform of g: the mirror is a phase on reversed
bins.  The
singular self-cell and its near neighbours take cell-cell averages: closed
forms in 1D, and in 2D/3D a Gauss-Legendre product rule folded by its mirror
and axis-swap symmetries, which leave about a quarter of the 3D node pairs.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.special import gammaln

from .fields import Field, KernelParams, coarsen, lp_norm


# How an est_error was obtained: "richardson" measured against the
# factor-2 coarsened grid, "guessed" a fixed fraction of the value where the
# grid is too small to coarsen, "none" not estimated (est_error NaN).
EST_KINDS = ("richardson", "guessed", "none")


@dataclass(frozen=True)
class EnergyResult:
    value: float
    quadrature: str
    est_error: float
    est_kind: str

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("energy value must be finite")
        if self.est_error < 0:
            raise ValueError("est_error must be non-negative")
        if self.est_kind not in EST_KINDS:
            raise ValueError(f"est_kind must be one of {', '.join(EST_KINDS)}")


# Room for the fine and coarse kernels of a few (grid, lambda) pairs: one
# 48^3 spectrum takes 0.94 MB, one of the 128 x 128 x 16 witness grid 2.3 MB.
_SPECTRUM_CACHE_SIZE = 8
# Room for the near-field constants of every lambda the spectrum cache can
# hold: a 3D kernel takes ten, and its coarse grid shares them.
_CELL_CACHE_SIZE = 10 * _SPECTRUM_CACHE_SIZE


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def _diag_cell_constant(dim: int, lam: float) -> float:
    """Unit-cell self-integral C = int_{[0,1]^N x [0,1]^N} |u-v|^(-lam).

    Closed form in 1D; in higher dimensions the Gauss-Legendre product rule
    of ``_cell_pair_constant``.
    """
    if dim == 1:
        return 2.0 / ((1.0 - lam) * (2.0 - lam))
    return _cell_pair_constant(dim, lam, (0,) * dim)


@functools.lru_cache(maxsize=None)
def _axis_pairs(offset: int, mult: int):
    """Squared distances and weights of the product rule on ``mult`` axes of equal ``offset``.

    One axis pairs 8 Gauss-Legendre nodes u_i with 9 nodes v_j, squared
    distance ((u_i - v_j) / 2 + offset)^2 and weight w_i w_j / 4.  The nodes
    are symmetric about 0, so at offset 0 the pair (i, j) and its mirror
    (7 - i, 8 - j) agree, and the 36 pairs with i < 4 stand for the 72 at
    double weight.
    The axes of a group can be swapped, so only sorted index tuples are
    kept, each weighted by its number of orderings, m! / (r + 1)! for r
    equal neighbours (m = ``mult`` <= 3).  Both tables are flat, independent
    of lambda and read-only.
    """
    xu, wu = np.polynomial.legendre.leggauss(8)
    xv, wv = np.polynomial.legendre.leggauss(9)
    d2 = ((0.5 * (xu[:, None] - xv[None, :]) + offset) ** 2).ravel()
    w = np.multiply.outer(0.5 * wu, 0.5 * wv).ravel()
    if offset == 0:
        d2, w = d2[:36], 2.0 * w[:36]
    idx = np.indices((d2.size,) * mult, dtype=np.int16).reshape(mult, -1)
    idx = idx[:, np.all(idx[:-1] <= idx[1:], axis=0)]
    ties = np.sum(idx[:-1] == idx[1:], axis=0)
    orderings = np.array([math.factorial(mult) // math.factorial(r + 1) for r in range(mult)])[ties]
    tables = (np.sum(d2[idx], axis=0), orderings * np.prod(w[idx], axis=0))
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def _cell_pair_constant(dim: int, lam: float, offset) -> float:
    """Average of |u - v + offset|^(-lam) over u, v in the unit cell.

    Gauss-Legendre product rule with different orders for u and v, so nodes
    never coincide on the integrable singularity of touching cells: 8 x 9
    node pairs per axis, 72^N in all.  The squared distance is a sum over
    axes, so the rule is folded by its exact symmetries: the axes of each
    group of equal offsets take the folded tables of ``_axis_pairs``, whose
    outer sum is raised to -lam/2 and contracted with one weight vector per
    group.
    """
    tables = [_axis_pairs(o, offset.count(o)) for o in sorted(set(offset))]
    val = functools.reduce(np.add.outer, [d2 for d2, _ in tables]) ** (-lam / 2.0)
    for _, w in reversed(tables):
        val = val @ w
    return float(val)


_NEAR_RADIUS = 2
_EXACT_1D_MAX = 64


def _octant_kernel(shape, spacing: float, lam: float) -> np.ndarray:
    """Cell-pair averaged kernel at the index offsets 0 .. n - 1 of each axis; 0 at 0.

    Far pairs use the midpoint value plus the second-order cell-average
    correction (h^2/12) Delta |x|^(-lam); near pairs use exact averages (1D
    closed form; Gauss-Legendre products in 2D/3D) where the midpoint rule
    is badly biased by the convex singularity.  The kernel depends on the
    offsets through their absolute values only, so this octant holds it all.
    The far formula depends on the integer |k|^2 alone: where the integers
    up to the largest |k|^2 are fewer than the offsets (3D grids), it is
    evaluated once per integer and gathered by |k|^2, the same floats as at
    each offset.
    """
    dim = len(shape)
    k2 = sum((np.arange(n) ** 2).reshape((-1,) + (1,) * (dim - 1 - axis)) for axis, n in enumerate(shape))
    squares = int(k2.max()) + 1
    x = np.arange(squares, dtype=float) if squares < k2.size else k2.astype(float)
    origin = (0,) * dim
    x.flat[0] = 1.0
    kern = x ** (-lam / 2.0) + (lam * (lam + 2.0 - dim) / 12.0) * x ** (-(lam + 2.0) / 2.0)
    if squares < k2.size:
        kern = kern[k2]
    if dim == 1:
        k = np.arange(shape[0], dtype=float)
        near = (k >= 1) & (k <= _EXACT_1D_MAX)
        a = 2.0 - lam
        kn = k[near]
        kern[near] = ((kn + 1.0) ** a - 2.0 * kn**a + (kn - 1.0) ** a) / ((1.0 - lam) * (2.0 - lam))
    else:
        for off in itertools.product(range(_NEAR_RADIUS + 1), repeat=dim):
            if off != origin and all(o < n for o, n in zip(off, shape)):
                kern[off] = _cell_pair_constant(dim, lam, tuple(sorted(off)))
    kern[origin] = 0.0
    return kern * spacing ** (-lam)


def _gather(kern: np.ndarray, rows) -> np.ndarray:
    """kern at the outer product of per-axis index ``rows``; index n on an axis of length n reads 0."""
    padded = np.zeros(tuple(n + 1 for n in kern.shape))
    padded[tuple(slice(0, n) for n in kern.shape)] = kern
    return padded[np.ix_(*rows)]


def _offset_kernel(shape, spacing: float, lam: float) -> np.ndarray:
    """The cell-pair averaged kernel at offsets -(n - 1) .. n - 1, offset d at index d + n - 1."""
    return _gather(_octant_kernel(shape, spacing, lam), [np.abs(np.arange(1 - n, n)) for n in shape])


def _reflected_kernel(shape, spacing: float, lo_n: float, lam: float) -> np.ndarray:
    """|x - y|^(-lam) with the last axis of y reflected, by index offset.

    The first N - 1 axes hold the offsets i - j; the last holds the index
    sum of the flipped axis, at x_N + y_N = 2 lo_n + h (k + 1).
    """
    axes = [spacing * np.arange(-(n - 1), n) for n in shape[:-1]]
    t = 2.0 * lo_n + spacing * (np.arange(2 * shape[-1] - 1) + 1.0)
    mesh = np.meshgrid(*axes, t, indexing="ij")
    d2 = sum(m * m for m in mesh[:-1]) + mesh[-1] ** 2 if len(mesh) > 1 else mesh[0] ** 2
    return d2 ** (-lam / 2.0)


def _fast_shape(shape) -> tuple:
    """FFT length per axis at which a circular convolution of n values with
    2n - 1 kernel entries reproduces every offset i - j without wrapping."""
    return tuple(sfft.next_fast_len(2 * n - 1, real=True) for n in shape)


def _half_spectrum_weights(length: int) -> np.ndarray:
    """Weight of each rfft bin of the last axis in a sum over the full spectrum.

    Bin 0 and, for an even length, bin length / 2 are their own conjugate
    partners; every other bin also stands for its partner.
    """
    w = np.full(length // 2 + 1, 2.0)
    w[0] = 1.0
    if length % 2 == 0:
        w[-1] = 1.0
    return w


def _half_shape(size) -> tuple:
    """Shape of the rfftn of an array of shape ``size``."""
    return tuple(size[:-1]) + (size[-1] // 2 + 1,)


_work = threading.local()


def _work_arrays(size):
    """(spectrum, spectrum, product) work arrays of a padded ``size``, this thread's own.

    Two complex arrays of shape ``_half_shape(size)`` and one real array of
    that shape, views into one float buffer per thread of 5 floats per bin.
    The buffer is grown to the largest size seen: the old one is released
    before the new one is allocated, so the two are never held at once.  A
    48^3 grid pads to 96^3, whose arrays take 18 MB.  The views never leave
    this module: every caller reduces them to a number or copies out of them
    before it returns, and no caller holds them across another call.
    """
    half = _half_shape(size)
    bins = math.prod(half)
    buffer = getattr(_work, "buffer", None)
    if buffer is None or buffer.size < 5 * bins:
        buffer = _work.buffer = None
        buffer = _work.buffer = np.empty(5 * bins)
    spectra = buffer[: 4 * bins].view(complex)
    return spectra[:bins].reshape(half), spectra[bins:].reshape(half), buffer[4 * bins : 5 * bins].reshape(half)


def _padded_spectrum(values: np.ndarray, size, spec: np.ndarray) -> np.ndarray:
    """rfftn of ``values`` zero-padded to ``size``, written into the half spectrum ``spec``.

    The values fill one corner of the half spectrum: the last axis is
    transformed on the n_0 ... n_{N-2} lines that hold them, and each earlier
    axis in place, only on the lines that the later transforms filled.  Before
    the transform along an axis, its lines beyond the corner are zeroed; over
    all axes these slabs are the whole padding.
    """
    corner = tuple(slice(0, n) for n in values.shape[:-1])
    for axis, n in enumerate(values.shape[:-1]):
        spec[corner[:axis] + (slice(n, None),)] = 0.0
    spec[corner] = sfft.rfft(values, n=size[-1], axis=-1)
    for axis in range(values.ndim - 2, -1, -1):
        sfft.fft(spec[corner[:axis]], axis=axis, overwrite_x=True)
    return spec


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _mirror_blocks(half) -> tuple:
    """(target, source) index pairs that spread a folded spectrum over a half spectrum of shape ``half``.

    On each axis but the last, of length L, bins 0 .. L // 2 read the octant
    directly and bins L // 2 + 1 .. L - 1 read its bins L - L // 2 - 1 .. 1,
    reversed: bin c reads bin L - c, for odd and even L alike.  The last axis
    is already half.  Empty blocks (L <= 2) are left out.  Cached for as
    many shapes as the kernel spectra.
    """
    axes = []
    for length in half[:-1]:
        mid = length // 2 + 1
        low, high = (slice(0, mid),) * 2, (slice(mid, length), slice(length - mid, 0, -1))
        axes.append((low, high) if mid < length else (low,))
    return tuple(tuple(zip(*block, (slice(None),) * 2)) for block in itertools.product(*axes))


def _multiply_spectrum(target: np.ndarray, spectrum: np.ndarray) -> None:
    """target *= spectrum in place, where ``spectrum`` is either of target's shape or a folded octant.

    A folded spectrum (``kernel_spectrum`` of the cell-averaged kernel) is
    read through the mirrored views of ``_mirror_blocks``: each bin meets
    the same float as in the full layout, so the product is bit-identical.
    """
    if spectrum.shape == target.shape:
        target *= spectrum
        return
    for dst, src in _mirror_blocks(target.shape):
        target[dst] *= spectrum[src]


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def kernel_spectrum(shape: tuple, spacing: float, lam: float, reflect_lo=None) -> np.ndarray:
    """Weighted half spectrum of an offset kernel at the lengths L of ``_fast_shape(shape)``.

    With ``reflect_lo`` None the kernel is the cell-averaged |x - y|^(-lam)
    of ``_offset_kernel``; otherwise it is the reflected kernel
    |x' - y', x_N + y_N|^(-lam) of a grid whose last axis starts at
    ``reflect_lo``.  The kernel entry for offset d = i - j sits at index
    d mod L, so the cell-averaged kernel, which is even on every axis, has a
    real and even spectrum.  It is transformed one axis at a time, the last
    first: each rfft keeps the L // 2 + 1 real bins of its axis and the next
    axis transforms only those.  It is stored as that real octant, of shape
    L // 2 + 1 on every axis; bin c of an earlier axis equals bin L - c, and
    ``_multiply_spectrum`` reads it so.  The reflected kernel's spectrum is
    complex and stored as the full half spectrum of ``_half_shape``.  The
    bins carry the weights of ``_half_spectrum_weights`` and 1/M,
    M = prod(L), so that a sum over the half spectrum is the normalised sum
    over the full spectrum.  The returned array is shared between callers
    and is read-only.
    """
    size = _fast_shape(shape)
    steps = [np.arange(length) for length in size]
    weights = _half_spectrum_weights(size[-1]) / math.prod(size)
    if reflect_lo is None:
        # Offset min(c, L - c) at index c; offsets of n and more read the
        # appended zero.  Bin c equals bin L - c the same way, so the rfft's
        # bins 0 .. L // 2 hold the whole axis.
        mirror = [np.minimum(c, length - c) for c, length in zip(steps, size)]
        spec = np.pad(_octant_kernel(shape, spacing, lam), [(0, 1)] * len(shape))
        for axis in range(len(shape) - 1, -1, -1):
            spec = sfft.rfft(np.take(spec, np.minimum(mirror[axis], shape[axis]), axis=axis), axis=axis).real
        spec = spec * weights
    else:
        # Window index d + n - 1 at index d mod L; indices of 2n - 1 and more read 0.
        rows = [np.minimum((c + n - 1) % length, 2 * n - 1) for c, length, n in zip(steps, size, shape)]
        spec = sfft.rfftn(_gather(_reflected_kernel(shape, spacing, reflect_lo, lam), rows)) * weights
    spec.flags.writeable = False
    return spec


def apply_kernel(values: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """sum_j kern[i - j + n - 1] values[j] at every index i of ``values``.

    ``spectrum`` is a ``kernel_spectrum`` of the same grid shape: its kernel holds
    2n - 1 entries on each axis where ``values`` holds n.  The FFT length L is
    at least 2n - 1, so no offset i - j in (-n, n) wraps onto another modulo
    L, and the circular convolution equals the linear one on the window.
    Dividing out the power-of-two bin weights is exact, and the inverse
    transform is left unscaled because the spectrum carries the 1/M.
    """
    size = _fast_shape(values.shape)
    spec, cwork, _ = _work_arrays(size)
    _padded_spectrum(values, size, spec)
    # A reflected kernel's spectrum is complex and full; a cell-averaged one
    # is a real octant, whose quotient is octant-sized.
    out = cwork if np.iscomplexobj(spectrum) else None
    _multiply_spectrum(spec, np.divide(spectrum, _half_spectrum_weights(size[-1]), out=out))
    conv = sfft.irfftn(spec, s=size, norm="forward")
    return conv[tuple(slice(0, n) for n in values.shape)]


def richardson(quadrature: str, evaluate, *fields: Field, estimate: bool = True) -> EnergyResult:
    """evaluate(*fields) with the change on factor-2 coarsened fields as error.

    When a grid is too small to coarsen, the estimate falls back to 1% of
    the value and est_kind says "guessed".  With ``estimate`` False the
    coarse evaluation is skipped and est_error is NaN (est_kind "none"): no
    estimate was made, which 0 would misreport.
    """
    value = evaluate(*fields)
    if not estimate:
        return EnergyResult(value=value, quadrature=quadrature, est_error=float("nan"), est_kind="none")
    try:
        # Each distinct field is coarsened once, so evaluate(f, f) gets one
        # coarse field twice and keeps its `g is f` reuse.
        distinct = {id(f): f for f in fields}
        coarse = {key: coarsen(f) for key, f in distinct.items()}
        est, kind = abs(value - evaluate(*(coarse[id(f)] for f in fields))), "richardson"
    except ValueError:
        est, kind = abs(value) * 1e-2, "guessed"
    return EnergyResult(value=value, quadrature=quadrature, est_error=est, est_kind=kind)


def _weighted_form(fs: np.ndarray, gs: np.ndarray, prod: np.ndarray, spectrum: np.ndarray) -> float:
    """sum of K^ Re(conj(G^) F^) over the half spectra ``fs`` and ``gs``, through the work array ``prod``.

    Re(conj(G^) F^) is taken as Re F^ Re G^ + Im F^ Im G^, the same floats
    with f and g exchanged, so the form is symmetric bit for bit; Im F^ Im G^
    is written over Im F^, which is spent by then.  The sum is numpy's
    pairwise one: a BLAS dot, which adds the terms in sequence, lost 3e-14
    of a 64^2 energy.
    """
    np.multiply(fs.real, gs.real, out=prod)
    prod += np.multiply(fs.imag, gs.imag, out=fs.imag)
    _multiply_spectrum(prod, spectrum)
    return float(np.sum(prod))


def _pair_sum(f: Field, g: Field, lam: float) -> float:
    """<g, K f> without an inverse transform: ``_weighted_form`` of the two padded spectra.

    The spectrum of f is reused when g is f.
    """
    spacing, dim = f.grid.spacing, f.dim
    spectrum = kernel_spectrum(f.grid.shape, spacing, lam)
    size = _fast_shape(f.grid.shape)
    fs, gs, prod = _work_arrays(size)
    _padded_spectrum(f.values, size, fs)
    gs = fs if g is f else _padded_spectrum(g.values, size, gs)
    off_diag = _weighted_form(fs, gs, prod, spectrum) * spacing ** (2 * dim)
    diag = float(np.sum(f.values * g.values)) * _diag_cell_constant(dim, lam) * spacing ** (2 * dim - lam)
    return off_diag + diag


def _mirror_pair_sum(g: Field, axis: int, edge: int, lam: float) -> float:
    """<Theta g, K g> for the index mirror Theta of cell j onto cell 2 edge - 1 - j along ``axis``, from one transform of g.

    Theta g must lie on g's grid.  With r = 2 edge - 1 and L the FFT length
    of the axis, the spectrum of Theta g is e^(-2 pi i r k_a / L) G^(-k_a,
    k_rest); on the last (rfft) axis G^(-k_a, k_rest) = conj(G^(k_a,
    -k_rest)).  The bins are reversed by slice copies into the second work
    array, bin 0 kept and bin c read from bin L - c: along the axis, or
    along every other axis when it is the last one.  g and Theta g have
    disjoint supports, so there is no self-cell term.
    """
    spacing, dim = g.grid.spacing, g.dim
    spectrum = kernel_spectrum(g.grid.shape, spacing, lam)
    size = _fast_shape(g.grid.shape)
    gs, ts, prod = _work_arrays(size)
    _padded_spectrum(g.values, size, gs)
    last = axis == dim - 1
    flipped = range(dim - 1) if last else (axis,)
    blocks = [
        ((slice(0, 1),) * 2, (slice(1, n), slice(n - 1, 0, -1))) if k in flipped and n > 1 else ((slice(None),) * 2,)
        for k, n in enumerate(gs.shape)
    ]
    # On the last axis the reversed bins take the conjugate phase and the
    # product is conjugated in place: conj(R) e^(-i t) = conj(R e^(i t)).
    length = size[axis]
    steps = (2 * edge - 1) * np.arange(gs.shape[axis]) % length
    phase = np.exp((1 if last else -1) * 2j * np.pi / length * steps).reshape((-1,) + (1,) * (dim - 1 - axis))
    for block in itertools.product(*blocks):
        dst, src = zip(*block)
        np.multiply(gs[src], phase[dst[axis]], out=ts[dst])
    if last:
        np.negative(ts.imag, out=ts.imag)
    return _weighted_form(gs, ts, prod, spectrum) * spacing ** (2 * dim)


def energy_direct(f: Field, g: Field, kp: KernelParams, estimate: bool = True) -> EnergyResult:
    """I_lambda[f, g] by the double midpoint sum with self-cell correction.

    The error estimate compares against the same evaluation at spacing 2h
    (block-averaged fields).  ``estimate=False`` skips it for callers that
    discard it; est_error is then NaN.
    """
    if f.grid != g.grid:
        raise ValueError("energy_direct requires f and g on the same grid")
    return richardson("direct", lambda a, b: _pair_sum(a, b, kp.lam), f, g, estimate=estimate)


def riesz_potential(f: Field, kp: KernelParams) -> np.ndarray:
    """(|x|^-lambda * f) at the cell centers, with self-cell correction."""
    g = f.grid
    pot = apply_kernel(f.values, kernel_spectrum(g.shape, g.spacing, kp.lam)) * g.spacing**g.dim
    pot = pot + f.values * _diag_cell_constant(g.dim, kp.lam) * g.spacing ** (g.dim - kp.lam)
    return pot


def sharp_constant(kp: KernelParams) -> float:
    """Best constant in the diagonal-case inequality, via gamma functions."""
    n, lam = kp.dim, kp.lam
    log_c = (
        0.5 * lam * np.log(np.pi)
        + gammaln((n - lam) / 2.0)
        - gammaln(n - lam / 2.0)
        + (1.0 - lam / n) * (gammaln(n) - gammaln(n / 2.0))
    )
    return float(np.exp(log_c))


def rayleigh_quotient(f: Field, kp: KernelParams) -> float:
    """I_lambda[f, f] / ||f||_p^2; approaches sharp_constant for extremizers."""
    norm = lp_norm(f, kp.p)
    if norm == 0.0:
        raise ValueError("rayleigh quotient undefined for the zero field")
    return energy_direct(f, f, kp, estimate=False).value / norm**2


def gaussian_field(grid, center, width: float, amplitude: float = 1.0) -> Field:
    pts = grid.points()
    d2 = np.sum((pts - np.atleast_1d(center)) ** 2, axis=-1)
    return Field(grid, (amplitude * np.exp(-d2 / (2.0 * width**2))).reshape(grid.shape))


def el_residual(f: Field, kp: KernelParams) -> float:
    """Coefficient of variation of (K * f) / f^(p-1) over the grid interior.

    Near zero for extremizers, where the ratio is the constant
    Euler-Lagrange multiplier.  Scale invariant.
    """
    if np.any(f.values < 0) or not np.any(f.values > 0):
        raise ValueError("el_residual requires f >= 0, f not identically 0")
    pot = riesz_potential(f, kp)
    fp = f.values ** (kp.p - 1.0)
    interior = np.zeros(f.grid.shape, dtype=bool)
    interior[tuple(slice(n // 4, 3 * n // 4) for n in f.grid.shape)] = True
    good = interior & (fp >= 1e-12 * fp.max())
    ratios = pot[good] / fp[good]
    return float(np.std(ratios) / np.mean(ratios))
