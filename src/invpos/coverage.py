"""Mass of grid densities over balls, half-spaces and boxes.

Boundary cells get a fractional weight from a 3^N subsample with a linear
ramp at the interface, so the mass is continuous and monotone in the region
parameter; the half-mass search on it converges to arbitrary tolerance.  The
hemi-ball searches of ``symmetrize`` and ``lizhu`` weigh their densities
with ``density_mass`` and find centred half-mass radii with
``half_mass_radius``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import Callable, Optional

import numpy as np
from scipy.special import beta as beta_fn, betainc, hyp2f1

from .fields import ExtremizerSpec, Field, Grid
from .geometry import Ball, signed_distance

SUBSAMPLE = 3
# Steps the half-mass search may take beyond plain halving to reach a given bracket width.
SLACK = 3


class BracketingError(RuntimeError):
    """Half-mass search could not bracket the target inside the grid."""


def bisect_increasing(
    excess: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_hi: Optional[float] = None,
    f_lo: Optional[float] = None,
    f_hi: Optional[float] = None,
) -> float:
    """Zero of an increasing function, such as a mass minus half the total mass.

    hi is evaluated first, unless the caller knows its value and passes it
    as ``f_hi``.  With ``max_hi`` set, hi doubles until excess(hi) >= 0,
    each failed hi becoming lo, and BracketingError is raised once hi passes
    max_hi or overflows to inf (max_hi itself may be inf for a huge grid);
    without it [lo, hi] is taken as a bracket.  The given lo is never
    evaluated (it may be a degenerate end such as radius 0): its value is
    ``f_lo`` when the caller knows it, and otherwise the steps halve the
    bracket until lo carries a value.  From then on each step is a
    regula-falsi one on the two end values with the Illinois rule (an end
    kept twice in a row has its value halved), so it uses the mass, not
    just its sign.  The step point is pulled toward the
    midpoint as far as needed to keep the bracket after k steps within
    2^(SLACK - k) of its starting width, so a step that shrinks the bracket
    too slowly is followed by halving, and any width is reached within
    SLACK steps of plain halving.  At most 120 steps are taken, stopping
    when |excess| < tol or the bracket is narrower than 1e-14 max(1, |hi|).
    The half-mass searches pass tol = 1e-9 of the total mass.
    """
    if f_hi is None:
        f_hi = excess(hi)
    if max_hi is not None:
        while f_hi < 0:
            lo, f_lo = hi, f_hi
            hi *= 2.0
            if hi > max_hi or hi == np.inf:
                raise BracketingError(f"could not bracket half the mass below {max_hi:.6g}")
            f_hi = excess(hi)
    if abs(f_hi) < tol:
        return hi
    width0, kept = hi - lo, None
    for k in range(120):
        mid = 0.5 * (lo + hi)
        x = mid
        if f_lo is not None and f_lo < 0 < f_hi:
            r = max(0.0, math.ldexp(width0, SLACK - k - 1) - 0.5 * (hi - lo))
            x = min(max(lo - f_lo * ((hi - lo) / (f_hi - f_lo)), mid - r), mid + r)
            if not lo < x < hi:
                x = mid
        e = excess(x)
        if abs(e) < tol or hi - lo < 1e-14 * max(1.0, abs(hi)):
            return x
        if e < 0:
            lo, f_lo = x, e
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = x, e
            if kept == "lo" and f_lo is not None:
                f_lo *= 0.5
            kept = "lo"
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=64)
def _sub_steps(h: float) -> np.ndarray:
    """Offsets of the SUBSAMPLE subsample points from a cell center along one axis, read-only and built once per spacing."""
    steps = (np.arange(SUBSAMPLE) - (SUBSAMPLE - 1) / 2.0) * (h / SUBSAMPLE)
    steps.setflags(write=False)
    return steps


@functools.lru_cache(maxsize=64)
def _sub_steps_list(h: float) -> tuple:
    """``_sub_steps(h)`` as Python floats, built once per spacing."""
    return tuple(_sub_steps(h).tolist())


def sub_offsets(dim: int, h: float) -> np.ndarray:
    """Offsets of the SUBSAMPLE^dim subsample points from a cell center."""
    combos = list(itertools.product(_sub_steps(h), repeat=dim))
    return np.asarray(combos)


def _window(c: float, reach: float, lo: float, n: int, h: float) -> tuple:
    """(i0, i1, slack): the cells i0 <= i < i1 of an axis whose centres may lie within reach of c.

    Cell i is within reach when |lo + h (i + 1/2) - c| <= reach.  The slack
    is one cell plus a bound on the rounding of these sums, which passes a
    cell only once |c| / h nears 2^50.  The quotients are clamped to [0, n]
    in floats, so that a huge or infinite one is harmless.
    """
    slack = min(1.5 + (abs(c) + abs(reach) + abs(lo) + n * h) * 2.0**-50 / h, n)
    i0 = int(min(max((c - reach - lo) / h - slack, 0.0), n))
    i1 = int(min(max((c + reach - lo) / h + slack, 0.0), n))
    return i0, i1, slack


def ball_coverage(grid: Grid, center, radius: float) -> np.ndarray:
    """Fraction of each cell inside the ball, shape = grid.shape.

    Only cells whose center lies, per axis, within reach = radius + half_diag
    of the ball's center can be inside or on the shell; the rest stay 0, so
    the work is the ball's bounding box, not the grid.  Each axis's index
    window comes from (c -+ reach - lo) / h, clamped to the grid in floats so
    that a huge or infinite quotient is harmless, and widened by a slack that
    covers its rounding; a slack cell lies beyond the reach and stays 0.
    Distances are per-axis squares summed in axis order, the same floats as
    the norm of the full point array.  Lengths are compared in units of the
    power of two just above the reach, so that no square overflows or
    underflows for a huge, tiny or infinite ball; the rescaling is exact, so
    the fractions are the same floats.  A scalar or one-element center is spread
    over every axis.  A 1-D grid takes ``_ball_coverage_1d``, which gives the
    same floats.
    """
    h = grid.spacing
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape == (1,):
        center = center.repeat(grid.dim)
    elif center.shape != (grid.dim,):
        raise ValueError(f"a ball centre of shape {center.shape} on a {grid.dim}-D grid")
    center = center.tolist()
    radius = float(radius)
    half_diag = 0.5 * h * math.sqrt(grid.dim) + 0.5 * h / SUBSAMPLE
    reach = radius + half_diag
    down = math.ldexp(1.0, -math.frexp(min(reach, sys.float_info.max))[1])
    # A subsample step that underflows to 0 (h below 2^-1072 of the reach)
    # is left to the array body, which takes the ramp's limit, a step.
    if grid.dim == 1 and h / SUBSAMPLE * down > 0.0:
        return _ball_coverage_1d(grid, center[0], radius, half_diag, reach, down)
    cov = np.zeros(grid.shape)
    box, xs, deltas = [], [], []
    for k, c in enumerate(center):
        lo, n = float(grid.lo[k]), grid.shape[k]
        i0, i1, _ = _window(c, reach, lo, n, h)
        if i1 <= i0:
            return cov
        x = lo + h * (np.arange(i0, i1) + 0.5)
        box.append(slice(i0, i1))
        xs.append(x)
        deltas.append((x - c) * down)
    d = np.sqrt(sum(dk.reshape((-1,) + (1,) * (grid.dim - 1 - k)) ** 2 for k, dk in enumerate(deltas)))
    inbox = cov[tuple(box)]
    radius, half_diag, sub_h = radius * down, half_diag * down, h / SUBSAMPLE * down
    inbox[d <= radius - half_diag] = 1.0
    shell = np.abs(d - radius) < half_diag
    if shell.any():
        # Squared distance of subsample (a_0, ..., a_{N-1}) of a shell cell:
        # per-axis tables (x + step_a - c)^2 gathered and summed in axis order,
        # laid out as the rows of sub_offsets.
        steps = _sub_steps(h)
        terms = []
        for k, (x, i) in enumerate(zip(xs, np.nonzero(shell))):
            tab = ((x[:, None] + steps - center[k]) * down) ** 2
            terms.append(tab[i].reshape((-1,) + (1,) * k + (SUBSAMPLE,) + (1,) * (grid.dim - 1 - k)))
        gap = radius - np.sqrt(sum(terms)).reshape(len(terms[0]), -1)
        if sub_h > 0.0:
            ramp = np.minimum(np.maximum(gap / sub_h + 0.5, 0.0), 1.0)
        else:
            # The ramp's limit as sub_h underflows to 0: a step, 0.5 at
            # exactly the radius (where every subsample of a shell cell
            # then lies) instead of 0 / 0.
            ramp = 0.5 + 0.5 * np.sign(gap)
        inbox[shell] = ramp.sum(axis=1) / ramp.shape[1]
    return cov


def _ball_coverage_1d(grid: Grid, c: float, radius: float, half_diag: float, reach: float, down: float) -> np.ndarray:
    """``ball_coverage`` on a 1-D grid by index arithmetic, with the same floats.

    Of the reach window, the cells whose centres lie within
    radius - half_diag - h of c, by more than the window's slack, are
    certainly inside and are set to 1 with one slice; the bounds are clamped
    to the window in floats before they are rounded to indices.  Only the
    few other cells, at the two ends of the window, are classified one by
    one, with the expressions of the array body on Python floats: the
    distance sqrt(t t) of t = (x - c) down, inside when it is at most
    radius - half_diag, and on the shell the subsample ramps summed in order,
    ((r0 + r1) + r2) / 3, as numpy sums a row of three.
    """
    h, lo, n = grid.spacing, float(grid.lo[0]), grid.shape[0]
    cov = np.zeros(n)
    i0, i1, slack = _window(c, reach, lo, n, h)
    if i1 <= i0:
        return cov
    inner = radius - half_diag - h
    j0 = math.ceil(min(max((c - inner - lo) / h + slack, i0), i1))
    j1 = math.floor(min(max((c + inner - lo) / h - slack + 1.0, j0), i1))
    cov[j0:j1] = 1.0
    radius, half_diag, sub_h = radius * down, half_diag * down, h / SUBSAMPLE * down
    inside, steps = radius - half_diag, _sub_steps_list(h)
    for i in itertools.chain(range(i0, j0), range(j1, i1)):
        x = lo + h * (i + 0.5)
        t = (x - c) * down
        d = math.sqrt(t * t)
        if d <= inside:
            cov[i] = 1.0
        elif abs(d - radius) < half_diag:
            ramps = []
            for step in steps:
                u = (x + step - c) * down
                ramps.append(min(max((radius - math.sqrt(u * u)) / sub_h + 0.5, 0.0), 1.0))
            r0, r1, r2 = ramps
            cov[i] = ((r0 + r1) + r2) / SUBSAMPLE
    return cov


def halfspace_coverage(grid: Grid, normal, offset: float) -> np.ndarray:
    """Fraction of each cell inside {x . normal > offset}.

    Cells whose centres lie within half_diag of the plane get the mean of
    the ramps of their subsample points; the others are 0 or 1.  The signed
    distances of the cell centres and of the subsample points are
    ``signed_distance`` on per-axis arrays, so they keep size 1 on every
    axis where n_k = 0: there the sum over all axes would add only exact
    zeros.  The subsample ramps of each slab cell are copied along those
    axes into the rows of sub_offsets and averaged with numpy's row sum, and
    the result is broadcast to a writable array of the grid's shape.
    """
    h, dim = grid.spacing, grid.dim
    axes = grid.open_axes
    s = signed_distance(normal, offset, axes)
    half_diag = 0.5 * h * math.sqrt(dim) + 0.5 * h / SUBSAMPLE
    cov = np.where(s >= half_diag, 1.0, 0.0)
    slab = np.abs(s) < half_diag
    cells = np.nonzero(slab)
    if cells[0].size:
        # Coordinates of subsample (a_0, ..., a_{N-1}) of slab cell c along
        # axis k, x_k(c) + step_{a_k}, as open arrays over (c, a_0, ..., a_{N-1}).
        steps = _sub_steps(h)
        sub = [
            (x.ravel()[i, None] + steps).reshape((-1,) + (1,) * k + (SUBSAMPLE,) + (1,) * (dim - 1 - k)) if n else x
            for k, (x, i, n) in enumerate(zip(axes, cells, np.atleast_1d(normal).tolist()))
        ]
        ramp = np.minimum(np.maximum(signed_distance(normal, offset, sub) / (h / SUBSAMPLE) + 0.5, 0.0), 1.0)
        rows = np.broadcast_to(ramp, (len(ramp),) + (SUBSAMPLE,) * dim).reshape(len(ramp), -1)
        cov[slab] = rows.sum(axis=1) / rows.shape[1]
    out = np.empty(grid.shape)
    out[...] = cov
    return out


def box_coverage(grid: Grid, lo, hi) -> np.ndarray:
    """Fraction of each cell inside the axis-aligned box [lo, hi]."""
    pts = grid.points()
    h = grid.spacing
    lo = np.atleast_1d(lo)
    hi = np.atleast_1d(hi)
    # Per-axis overlap of the cell [c - h/2, c + h/2] with [lo_k, hi_k].
    left = np.maximum(pts - 0.5 * h, lo)
    right = np.minimum(pts + 0.5 * h, hi)
    frac = np.clip((right - left) / h, 0.0, 1.0)
    return np.prod(frac, axis=-1).reshape(grid.shape)


def grid_mass(grid: Grid, density: np.ndarray, coverage=None) -> float:
    if coverage is None:
        return float(density.sum()) * grid.cell_volume()
    return float(np.sum(density * coverage)) * grid.cell_volume()


def _tail_piece(beta: float, q: float, a: float, b: float) -> float:
    """Integral of (beta + y^2)^(-q) over the piece a < y < b.

    For q > 1/2 the mass beyond |y| = s on one side is the share
    I_{beta / (beta + s^2)}(q - 1/2, 1/2) of the half mass
    beta^(1/2 - q) B(1/2, q - 1/2) / 2, and each side of 0 is measured by
    these complements, so a far piece is a difference of two small shares,
    not of two numbers near the total.  For q <= 1/2 the mass of an
    unbounded piece is infinite, and a bounded one is the difference of the
    antiderivative y beta^(-q) 2F1(q, 1/2; 3/2; -y^2 / beta).
    """
    if q <= 0.5:
        if math.isinf(a) or math.isinf(b):
            raise ValueError(f"a 1-D tail (beta + y^2)^(-{q:g}) of power <= 1/2 has infinite mass")
        return float(b * hyp2f1(q, 0.5, 1.5, -b * b / beta) - a * hyp2f1(q, 0.5, 1.5, -a * a / beta)) * beta**-q

    def beyond(s: float) -> float:
        return float(betainc(q - 0.5, 0.5, beta / (beta + s * s)))

    if a >= 0.0:
        share = beyond(a) - beyond(b)
    elif b <= 0.0:
        share = beyond(-b) - beyond(-a)
    else:
        share = 2.0 - beyond(-a) - beyond(b)
    return 0.5 * beta ** (0.5 - q) * float(beta_fn(0.5, q - 0.5)) * share


def tail_mass_1d(tail: ExtremizerSpec, grid: Grid, within=None) -> float:
    """Mass of the analytic tail outside a 1D grid's bounding box, in closed form.

    ``within`` optionally restricts to an interval (a ball or half-space
    trace on the line).  Every 1-D mass of a density with a tail adds this
    (``density_mass``).  ValueError is raised for an unbounded piece of a
    tail whose power is at most 1/2, where the mass is infinite.
    """
    if grid.dim != 1:
        raise ValueError("analytic tail mass correction is 1D only")
    lo, hi, c = float(grid.lo[0]), float(grid.hi[0]), float(tail.center[0])
    total = 0.0
    for a, b in ((-math.inf, lo), (hi, math.inf)):
        if within is not None:
            a, b = max(a, float(within[0])), min(b, float(within[1]))
        if a < b and tail.alpha != 0:
            total += _tail_piece(float(tail.beta), float(tail.power), a - c, b - c)
    return float(tail.alpha) * total


def density_mass(f: Field, region=None) -> float:
    """Mass of the density f in a Ball or HalfSpace, or in all space for None.

    The grid values are weighted by the region's cell coverage; a 1-D field
    with an analytic tail adds the tail's mass over the region's trace on
    the line.
    """
    g = f.grid
    if region is None:
        m, within = grid_mass(g, f.values), None
    elif isinstance(region, Ball):
        m = grid_mass(g, f.values, ball_coverage(g, region.center, region.radius))
        within = (region.center[0] - region.radius, region.center[0] + region.radius)
    else:
        m = grid_mass(g, f.values, halfspace_coverage(g, region.normal, region.offset))
        within = (region.offset, np.inf) if region.normal[0] > 0 else (-np.inf, -region.offset)
    if f.tail is not None and f.dim == 1:
        m += tail_mass_1d(f.tail, g, within=within)
    return m


def half_mass_radius(f: Field, a, total: float) -> float:
    """Radius r with mass total / 2 of the density f in the ball B_r(a).

    The bracket starts at [0, span / 16], span the grid's widest side, so
    the radii of a density that fills its grid are bracketed in a doubling
    or two; it doubles its upper end, and BracketingError is raised past
    64 spans.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))

    def excess(r: float) -> float:
        return density_mass(f, Ball(a, r)) - 0.5 * total

    span = float(np.max(f.grid.hi - f.grid.lo))
    return bisect_increasing(excess, 0.0, span / 16.0, 1e-9 * total, max_hi=64.0 * span, f_lo=-0.5 * total)
