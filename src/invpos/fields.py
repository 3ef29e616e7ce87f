"""Grid-sampled functions on R^N and the lifted conformal operators.

Grids are uniform and cell-centered: sample i sits at lo + (i + 1/2) h, so
default configurations never place a sample exactly on a sphere or plane of
inversion.  A Field may carry an analytic tail (the extremizer family), used
when a conformal map sends sample points outside the grid's bounding box.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.ndimage import map_coordinates
from scipy.optimize import leastsq

from .geometry import Ball, HalfSpace, inversion_factor, signed_distance


@dataclass(frozen=True)
class KernelParams:
    """Dimension N, kernel power lambda, and the diagonal exponent p."""

    dim: int
    lam: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if not (0.0 < self.lam < self.dim):
            raise ValueError(f"lambda must lie in (0, {self.dim})")

    @property
    def p(self) -> float:
        return 2.0 * self.dim / (2.0 * self.dim - self.lam)

    @property
    def positivity_valid(self) -> bool:
        """True if the positivity theorem applies (N <= 2, or lambda >= N - 2)."""
        return self.dim <= 2 or self.lam >= self.dim - 2

    @property
    def lift_power(self) -> float:
        """Exponent 2N - lambda of the conformal weight on functions."""
        return 2.0 * self.dim - self.lam


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-centered grid: lo + (i + 1/2) h per axis."""

    lo: np.ndarray
    spacing: float
    shape: tuple

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.shape == other.shape
            and self.spacing == other.spacing
            and np.array_equal(self.lo, other.lo)
        )

    def __hash__(self):
        return hash((self.shape, self.spacing, self.lo.tobytes()))

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if self.spacing <= 0 or not np.isfinite(self.spacing):
            raise ValueError("grid spacing must be positive")
        if len(self.shape) != lo.shape[0] or any(n < 1 for n in self.shape):
            raise ValueError("grid shape must match dim and be positive")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def shape_text(self) -> str:
        """The shape as it is reported, e.g. "128x128x16"."""
        return "x".join(str(n) for n in self.shape)

    @functools.cached_property
    def hi(self) -> np.ndarray:
        """The upper corner, built once per grid: the mass searches read it at every evaluation."""
        hi = self.lo + self.spacing * np.asarray(self.shape)
        hi.setflags(write=False)
        return hi

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return self.lo[axis] + self.spacing * (np.arange(n) + 0.5)

    @functools.cached_property
    def open_axes(self) -> tuple:
        """The cell centres of each axis as read-only open arrays, axis k of shape (1, ..., n_k, ..., 1), built once per grid."""
        axes = np.ix_(*(self.axis_centers(k) for k in range(self.dim)))
        for x in axes:
            x.setflags(write=False)
        return axes

    def points(self) -> np.ndarray:
        """All cell centers, shape (size, dim), row-major order."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_volume(self) -> float:
        return self.spacing**self.dim


def centered_grid(dim: int, halfwidth: float, points_per_axis: int) -> Grid:
    """Grid covering [-halfwidth, halfwidth]^dim."""
    h = 2.0 * halfwidth / points_per_axis
    return Grid(lo=np.full(dim, -halfwidth), spacing=h, shape=(points_per_axis,) * dim)


def box_grid(lo, hi, points_per_axis) -> Grid:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    shape = tuple(np.broadcast_to(points_per_axis, lo.shape).astype(int))
    widths = (hi - lo) / np.asarray(shape)
    if not np.allclose(widths, widths[0], rtol=1e-12, atol=0.0):
        raise ValueError("box must give a uniform spacing on all axes")
    return Grid(lo=lo, spacing=float(widths[0]), shape=shape)


@dataclass(frozen=True)
class ExtremizerSpec:
    """Parameters of alpha (beta + |x - center|^2)^(-power)."""

    alpha: float
    beta: float
    center: np.ndarray
    power: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        d2 = np.sum((pts - self.center) ** 2, axis=-1)
        return self.alpha * (self.beta + d2) ** (-self.power)


_EPS = float(np.finfo(float).eps)
# Residual evaluations ``fit_family`` may make: far above the 4 to 8 that an
# in-tree fit makes, so the budget never ends one.
_FIT_EVALS = 500


class _AtRounding(Exception):
    """Raised by ``fit_family``'s residual to stop MINPACK at the parameters it carries."""

    def __init__(self, params):
        super().__init__()
        self.params = params


def fit_family(values: np.ndarray, grid: Grid, power: float, alpha0: float, beta0: float, center0) -> tuple:
    """Levenberg-Marquardt fit of alpha (beta + |x - center|^2)^(-power) to samples.

    ``values`` are taken at the cell centres of ``grid`` (grid-shaped or
    raveled in row-major order).  The model is evaluated on the grid's
    per-axis coordinate arrays, never on its point array.  The fit runs over
    p = (log alpha, log beta, center), with residuals scaled by max |values|,
    by MINPACK's Levenberg-Marquardt (``leastsq``, with the tolerances of
    ``least_squares(method="lm")``) on the analytic Jacobian: with
    b = beta + |x - c|^2 and m = alpha b^(-power),

        dm/dp_0 = m,  dm/dp_1 = -power m beta / b,  dm/dc_k = 2 power m (x_k - c_k) / b,

    each divided by the residual scale.  The residual and the Jacobian at one
    p share one evaluation of b and m.  At most ``_FIT_EVALS`` residuals are
    evaluated.  The fit stops at the first p whose scaled residual is at
    rounding level, root mean square at most the machine epsilon: MINPACK
    would go on rejecting steps there until its step-size test stops it.
    Returns (alpha, beta, center).
    """
    values = np.asarray(values, dtype=float).ravel()
    scale = np.max(np.abs(values))
    coords = grid.open_axes
    last = {}

    def model(params):
        """(x_k - c_k per axis, b, m) at ``params``, kept for the next call at the same point."""
        key = params.tobytes()
        if key not in last:
            deltas = [x - c for x, c in zip(coords, params[2:])]
            b = np.exp(params[1]) + sum(d * d for d in deltas)
            last.clear()
            last[key] = deltas, b, np.exp(params[0]) * b ** (-power)
        return last[key]

    def resid(params):
        r = (model(params)[2].ravel() - values) / scale
        if r @ r <= r.size * _EPS**2:
            raise _AtRounding(params.copy())
        return r

    def jac(params):
        deltas, b, m = model(params)
        # C-order (params, cells) rows: with col_deriv, MINPACK reads them as
        # its Fortran-order (cells, params) matrix, with no transpose.
        rows = np.empty((params.size,) + grid.shape)
        np.divide(m, scale, out=rows[0])
        t = (power / scale) * m / b
        np.multiply(t, -np.exp(params[1]), out=rows[1])
        for k, d in enumerate(deltas):
            np.multiply(t, 2.0 * d, out=rows[2 + k])
        return rows.reshape(params.size, -1)

    x0 = np.concatenate([[np.log(alpha0), np.log(beta0)], center0])
    # Full output returns the last iterate, without a warning, when the budget runs out.
    try:
        x = leastsq(resid, x0, Dfun=jac, full_output=True, col_deriv=True, ftol=1e-8, xtol=1e-8, gtol=1e-8, maxfev=_FIT_EVALS)[0]
    except _AtRounding as stop:
        x = stop.params
    return float(np.exp(x[0])), float(np.exp(x[1])), x[2:]


@dataclass(frozen=True)
class Field:
    """Values sampled at the cell centers of a grid, plus an optional tail."""

    grid: Grid
    values: np.ndarray
    tail: Optional[ExtremizerSpec] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.grid.dim


def make_extremizer(spec: ExtremizerSpec, kp: KernelParams, grid: Grid) -> Field:
    """Sample the HLS extremizer family member on the grid.

    The exponent is (2N - lambda)/2 unless ``spec.power`` already says
    otherwise (the Li-Zhu densities use power N).
    """
    if not (np.all(spec.center >= grid.lo) and np.all(spec.center <= grid.hi)):
        raise ValueError("grid bounding box must cover the extremizer center")
    vals = spec(grid.points()).reshape(grid.shape)
    return Field(grid, vals, tail=spec)


def extremizer_spec(kp: KernelParams, alpha: float = 1.0, beta: float = 1.0, center=None) -> ExtremizerSpec:
    if center is None:
        center = np.zeros(kp.dim)
    return ExtremizerSpec(alpha=alpha, beta=beta, center=center, power=kp.lift_power / 2.0)


def lp_norm(f: Field, p: float) -> float:
    """Midpoint-rule L^p norm, (sum |f_i|^p h^N)^(1/p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.sum(np.abs(f.values) ** p) ** (1.0 / p) * f.grid.cell_volume() ** (1.0 / p))


def _pull_back(f: Field, coords) -> np.ndarray:
    """Multilinear interpolation of ``f`` at the points with axis-k coordinates ``coords[k]``.

    The coordinate arrays broadcast to the shape of the result, so a map
    that moves one axis passes the other axes as open arrays, and the in-box
    mask and fractional indices are computed on those before they are
    broadcast.  Outside the grid bounding box the analytic tail is used if
    present, otherwise 0.
    """
    g = f.grid
    lo, hi = g.lo, g.hi
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    inside = np.ones(shape, dtype=bool)
    for k, c in enumerate(coords):
        inside &= (c >= lo[k]) & (c <= hi[k])
    out = np.zeros(shape)
    if f.tail is not None and not np.all(inside):
        out[~inside] = f.tail(np.stack([np.broadcast_to(c, shape)[~inside] for c in coords], axis=-1))
    if np.any(inside):
        # Fractional indices relative to the cell centers; mode="nearest"
        # holds the edge value in the half cell between the outermost centers
        # and the box edge.  They are written into the (N, cells) array that
        # map_coordinates reads, which saves the copy that stacking a list
        # of per-axis arrays would make.
        t = np.empty((g.dim, int(np.count_nonzero(inside))))
        for k, c in enumerate(coords):
            t[k] = np.broadcast_to((c - (lo[k] + 0.5 * g.spacing)) / g.spacing, shape)[inside]
        out[inside] = map_coordinates(f.values, t, order=1, mode="nearest")
    return out


def eval_field(f: Field, pts) -> np.ndarray:
    """Multilinear interpolation of ``f`` at arbitrary points.

    Outside the grid bounding box the analytic tail is used if present,
    otherwise 0.
    """
    pts = np.asarray(pts, dtype=float)
    squeeze = pts.ndim == 1
    out = _pull_back(f, np.atleast_2d(pts).T)
    return out[0] if squeeze else out


def _center_deltas(b: Ball, g: Grid) -> tuple:
    """(x_k - c_k of the cell centres as open arrays, their squared distances from c summed in axis order, the distances)."""
    deltas = [x - c for x, c in zip(g.open_axes, np.broadcast_to(b.center, (g.dim,)))]
    dist2 = sum(dk * dk for dk in deltas)
    return deltas, dist2, np.sqrt(dist2)


def apply_inversion(b: Ball, f: Field, kp: KernelParams, centred=None) -> Field:
    """Lifted inversion (r/|x-a|)^(2N-lambda) f(Theta_B(x)) on f's grid.

    Samples inside the cell containing the center are masked to 0; their
    quadrature contribution vanishes under refinement since 2N - lambda < 2N.
    Distances and mapped points are built from per-axis offsets of the cell
    centres, summed in axis order: the floats of ``invert_point`` on the
    point array.  ``centred`` is ``_center_deltas(b, f.grid)`` when the
    caller has it.
    """
    g = f.grid
    deltas, dist2, d = _center_deltas(b, g) if centred is None else centred
    mask = d < 0.5 * g.spacing
    scale = inversion_factor(b, np.where(mask, np.inf, dist2))
    mapped = [c + scale * dk for c, dk in zip(np.broadcast_to(b.center, (g.dim,)), deltas)]
    weight = (b.radius / np.where(mask, b.radius, d)) ** kp.lift_power
    return Field(g, np.where(mask, 0.0, weight * _pull_back(f, mapped)))


# A plane is taken to lie on a cell edge when it is within this many cells of
# one.  The flip then differs from interpolating at the mirrored centres by at
# most twice that fraction of the largest step between neighbouring cells,
# far below the O(h^2) interpolation error of an off-edge plane, while the
# rounding of an edge offset lo + e h is of order 1e-15 cells.
_EDGE_TOL = 1e-9


def _edge_mirror(h: HalfSpace, grid: Grid):
    """(k, e) when H maps the grid's cell centres onto each other, else None.

    That is when the normal of H is +-e_k and its plane lies on the cell edge
    with index e of axis k, the faces of the box included: the mirror of cell
    j is then cell 2e - 1 - j.  Python floats carry a far-off plane to inf,
    not a warning.
    """
    axes = np.flatnonzero(h.normal)
    if len(axes) != 1 or abs(h.normal[axes[0]]) != 1.0:
        return None
    k = int(axes[0])
    edge = (float(h.normal[k]) * h.offset - float(grid.lo[k])) / float(grid.spacing)
    if not -_EDGE_TOL <= edge <= grid.shape[k] + _EDGE_TOL or abs(edge - round(edge)) > _EDGE_TOL:
        return None
    return k, round(edge)


def _mirror_closed(f: Field, axis: int, edge: int) -> Field:
    """f padded along ``axis`` to the grid symmetric about its cell edge ``edge``.

    The padded grid holds the box and its mirror, so the index mirror about
    the edge permutes its cells.  The low pad is rounded up to an even count,
    which keeps the block pairs of ``coarsen`` those of the box, and the high
    pad follows from the symmetry.  Padded cells take the tail at their
    centres, or 0; the tail is kept.
    """
    g = f.grid
    n = g.shape[axis]
    pad_lo = max(0, n - 2 * edge)
    pad_lo += pad_lo % 2
    pad_hi = 2 * edge + pad_lo - n
    if pad_lo == pad_hi == 0:
        return f
    lo = g.lo.copy()
    lo[axis] -= pad_lo * g.spacing
    shape = list(g.shape)
    shape[axis] += pad_lo + pad_hi
    grid = Grid(lo, g.spacing, tuple(shape))
    pads = [(0, 0)] * g.dim
    pads[axis] = (pad_lo, pad_hi)
    values = np.pad(f.values, pads)
    if f.tail is not None:
        outside = np.r_[0:pad_lo, pad_lo + n : shape[axis]]
        coords = list(grid.open_axes)
        coords[axis] = np.take(coords[axis], outside, axis=axis)
        values[(slice(None),) * axis + (outside,)] = _pull_back(f, coords)
    return Field(grid, values, tail=f.tail)


def apply_reflection(h: HalfSpace, f: Field) -> Field:
    """Lifted reflection f(Theta_H(x)) on f's grid.

    The mirrored coordinates x_k - 2 s n_k, with s the ``signed_distance``
    of the cell centres, are built on the grid's open per-axis arrays, the
    floats of ``reflect_point``; an axis where n_k = 0 keeps its own array.
    A plane normal to an axis and on a cell edge maps cell centres onto cell
    centres, so the pullback is an index flip; a cell whose mirror leaves the
    grid takes the tail at its reflected point, or 0, as the interpolation
    would.  Every other plane interpolates.
    """
    g = f.grid
    coords = list(g.open_axes)
    s = signed_distance(h.normal, h.offset, coords)
    for k, n in enumerate(h.normal.tolist()):
        if n != 0:
            coords[k] = coords[k] - 2.0 * s * n
    mirror = _edge_mirror(h, g)
    if mirror is None:
        return Field(g, _pull_back(f, coords))
    k, edge = mirror
    n = g.shape[k]
    src = 2 * edge - 1 - np.arange(n)
    vals = np.take(f.values, np.clip(src, 0, n - 1), axis=k)
    outside = np.flatnonzero((src < 0) | (src >= n))
    if outside.size:
        coords[k] = np.take(coords[k], outside, axis=k)
        vals[(slice(None),) * k + (outside,)] = _pull_back(f, coords)
    return Field(g, vals)


def region_mask(region, grid: Grid) -> np.ndarray:
    """Boolean mask of cell centers lying in the region, shape = grid.shape.

    Decided on the grid's open per-axis arrays, with the floats of
    ``region.contains`` on the point array: a ball by its distances, a
    half-space by its ``signed_distance`` s > 0.
    """
    if isinstance(region, Ball):
        return _center_deltas(region, grid)[2] < region.radius
    inside = signed_distance(region.normal, region.offset, grid.open_axes) > 0
    return np.broadcast_to(inside, grid.shape).copy()


def apply_region_map(region, f: Field, kp: KernelParams, centred=None) -> Field:
    """Theta f for a Ball (``centred`` as in ``apply_inversion``) or a HalfSpace."""
    if isinstance(region, Ball):
        return apply_inversion(region, f, kp, centred)
    if isinstance(region, HalfSpace):
        return apply_reflection(region, f)
    raise TypeError(f"unsupported region type {type(region)!r}")


def split_in_out(region, f: Field, kp: KernelParams) -> tuple:
    """Inside/outside splices of f with its conformal image: (f^i, f^o, Theta f, inside).

    f^i keeps f inside the region and the lifted image outside; f^o is the
    complement; ``inside`` is the boolean mask of cell centers in the region.
    The splices preserve the p-norm only when the region bisects the |f|^p
    mass.  A ball's cell-centre distances are built once, for the map and
    the mask.
    """
    if isinstance(region, Ball):
        centred = _center_deltas(region, f.grid)
        theta_f = apply_region_map(region, f, kp, centred)
        inside = centred[2] < region.radius
    else:
        theta_f = apply_region_map(region, f, kp)
        inside = region_mask(region, f.grid)
    fi = Field(f.grid, np.where(inside, f.values, theta_f.values))
    fo = Field(f.grid, np.where(inside, theta_f.values, f.values))
    return fi, fo, theta_f, inside


def coarsen(f: Field) -> Field:
    """Block-average 2^N cells at a time onto a grid with twice the spacing.

    An odd last cell of an axis is dropped.  Each axis in turn takes the
    mean of its cell pairs as 0.5 (a + b), the same floats as numpy's mean
    (a + b) / 2, on strided views of the whole array.
    """
    g = f.grid
    new_shape = tuple(n // 2 for n in g.shape)
    if any(n < 2 for n in new_shape):
        raise ValueError("grid too small to coarsen")
    v = f.values[tuple(slice(0, n * 2) for n in new_shape)]
    for axis in range(g.dim):
        lead = (slice(None),) * axis
        v = 0.5 * (v[lead + (slice(0, None, 2),)] + v[lead + (slice(1, None, 2),)])
    return Field(Grid(g.lo, g.spacing * 2, new_shape), v, tail=f.tail)


# --- CSV serialization (CLI interchange format) ---


def write_field_csv(f: Field, path) -> None:
    g = f.grid
    with open(path, "w") as fh:
        fh.write(f"dim,{g.dim}\n")
        fh.write("origin," + ",".join(format(float(x), ".17g") for x in g.lo) + "\n")
        fh.write(f"spacing,{format(float(g.spacing), '.17g')}\n")
        fh.write("extent," + ",".join(str(int(n)) for n in g.shape) + "\n")
        if f.tail is not None:
            t = f.tail
            nums = [t.alpha, t.beta, t.power] + list(t.center)
            fh.write("tail," + ",".join(format(float(v), ".17g") for v in nums) + "\n")
        for v in f.values.ravel():
            fh.write(f"{format(float(v), '.17g')}\n")


def read_field_csv(path) -> Field:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    n_header = 5 if len(lines) > 4 and lines[4].startswith("tail,") else 4
    header = {}
    for ln in lines[:n_header]:
        key, _, rest = ln.partition(",")
        header[key] = rest
    try:
        dim = int(header["dim"])
        lo = np.array([float(x) for x in header["origin"].split(",")])
        spacing = float(header["spacing"])
        shape = tuple(int(x) for x in header["extent"].split(","))
        tail = None
        if "tail" in header:
            nums = [float(x) for x in header["tail"].split(",")]
            if len(nums) != 3 + dim:
                raise ValueError("tail header needs alpha, beta, power and a center")
            tail = ExtremizerSpec(alpha=nums[0], beta=nums[1], power=nums[2], center=np.array(nums[3:]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed field CSV header in {path}") from exc
    if len(lo) != dim or len(shape) != dim:
        raise ValueError("field CSV header is inconsistent")
    values = np.array([float(ln) for ln in lines[n_header:]])
    return Field(Grid(lo, spacing, shape), values, tail=tail)
