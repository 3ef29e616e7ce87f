"""Fractional cell coverage of balls, half-spaces, boxes, and analytic tails."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from invpos import coverage, lizhu, positivity
from invpos.coverage import (
    SLACK,
    SUBSAMPLE,
    BracketingError,
    ball_coverage,
    bisect_increasing,
    box_coverage,
    grid_mass,
    half_mass_radius,
    halfspace_coverage,
    sub_offsets,
    tail_mass_1d,
)
from invpos.fields import ExtremizerSpec, Field, Grid, KernelParams, box_grid
from invpos.geometry import unit_vector
from invpos.lizhu import Measure, solve_mapping_ball


def _full_grid_ball_coverage(grid, center, radius):
    """The ball coverage computed on every cell of the grid, for comparison."""
    pts = grid.points()
    h = grid.spacing
    d = np.linalg.norm(pts - np.atleast_1d(center), axis=-1)
    half_diag = 0.5 * h * np.sqrt(grid.dim) + 0.5 * h / SUBSAMPLE
    cov = np.zeros(len(pts))
    cov[d <= radius - half_diag] = 1.0
    boundary = np.abs(d - radius) < half_diag
    if np.any(boundary):
        sub = pts[boundary][:, None, :] + sub_offsets(grid.dim, h)[None, :, :]
        dsub = np.linalg.norm(sub - np.atleast_1d(center), axis=-1)
        ramp = np.clip((radius - dsub) / (h / SUBSAMPLE) + 0.5, 0.0, 1.0)
        cov[boundary] = ramp.mean(axis=1)
    return cov.reshape(grid.shape)


def _full_grid_halfspace_coverage(grid, normal, offset):
    """The half-space coverage from every cell centre's dot product with the normal."""
    pts = grid.points()
    h = grid.spacing
    s = pts @ np.atleast_1d(normal) - offset
    half_diag = 0.5 * h * np.sqrt(grid.dim) + 0.5 * h / SUBSAMPLE
    cov = np.zeros(len(pts))
    cov[s >= half_diag] = 1.0
    boundary = np.abs(s) < half_diag
    if np.any(boundary):
        ssub = (pts[boundary][:, None, :] + sub_offsets(grid.dim, h)[None, :, :]) @ np.atleast_1d(normal) - offset
        ramp = np.clip(ssub / (h / SUBSAMPLE) + 0.5, 0.0, 1.0)
        cov[boundary] = ramp.mean(axis=1)
    return cov.reshape(grid.shape)


_GRIDS = {
    1: box_grid([-20.0], [20.0], 2048),
    2: box_grid([-1.0, -3.0], [3.0, 1.0], 37),
    3: box_grid([-1.25, -1.25, 0.75], [1.25, 1.25, 3.25], 20),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_coverage_matches_the_full_grid_formula(dim):
    g = _GRIDS[dim]
    h = g.spacing
    half_diag = 0.5 * h * np.sqrt(dim) + 0.5 * h / SUBSAMPLE
    span = float(np.max(g.hi - g.lo))
    rng = np.random.default_rng(dim)
    balls = []
    for _ in range(60):
        # Centres inside and up to half a box width outside the grid.
        c = g.lo + (g.hi - g.lo) * rng.uniform(-0.5, 1.5, dim)
        balls += [(c, rng.uniform(0.0, span)), (c, rng.uniform(0.0, half_diag)), (c, 0.0)]
        # Centres and radii on cell centres and edges.
        balls.append((g.lo + 0.5 * h * rng.integers(0, 2 * g.shape[0] + 1, dim), 0.5 * h * rng.integers(0, 12)))
    # Balls that miss the grid, and one that covers it.
    balls += [(g.hi + 1.0, 0.5), (g.lo - 2.0 * h, h), (g.lo - 1.0, 0.9), (0.5 * (g.lo + g.hi), 2.0 * span)]
    # A scalar or one-element centre is spread over every axis.
    balls += [(0.5, 0.4 * span), ([0.5], 0.4 * span), (-0.25, 3.0 * h)]
    for c, r in balls:
        assert np.array_equal(ball_coverage(g, c, r), _full_grid_ball_coverage(g, c, r)), (c, r)
    if dim == 1:
        # The 1-D path, on more grids than the one above.
        for g, c, r in _one_d_balls(np.random.default_rng(16), 5000):
            assert np.array_equal(ball_coverage(g, c, r), _full_grid_ball_coverage(g, c, r)), (g.lo, g.spacing, g.shape, c, r)


def _one_d_balls(rng, count):
    """(grid, centre, radius) of random 1-D balls on grids of 1, 2, 3 and 2048 cells.

    Spacings run from 2^-20 to 2^20, the left edge and the centre reach
    2^56 cells from 0, where cell centres round to several cells, and the
    centre lies on the grid, on a cell centre or edge, or off the grid on
    either side.  Radii are 0, below h/3, below the half diagonal, negative,
    past the grid, a multiple of h/2 or random.
    """
    for _ in range(count):
        n = int(rng.choice([1, 2, 3, 2048]))
        h = float(2.0 ** rng.uniform(-20.0, 20.0))
        far = [0.0, rng.uniform(-1.0, 1.0) * 2.0**45, rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(45.0, 56.0)]
        lo = h * float(far[int(rng.integers(3))] - rng.uniform(0.0, n))
        g = Grid(np.array([lo]), h, (n,))
        half_diag = 0.5 * h + 0.5 * h / SUBSAMPLE
        r = [
            0.0,
            rng.uniform(0.0, h / SUBSAMPLE),
            rng.uniform(0.0, half_diag),
            -rng.uniform(0.0, 3.0 * n * h),
            rng.uniform(n * h, 3.0 * n * h),
            0.5 * h * int(rng.integers(0, 12)),
            rng.uniform(0.0, n * h),
        ][int(rng.integers(7))]
        c = [
            lo + 0.5 * h * int(rng.integers(-4, 2 * n + 5)),
            lo + n * h * rng.uniform(-1.0, 0.0),
            lo + n * h * rng.uniform(1.0, 2.0),
            rng.uniform(-1.0, 1.0) * 2.0 ** rng.uniform(0.0, 56.0) * h,
            lo + n * h * rng.uniform(0.0, 1.0),
        ][int(rng.integers(5))]
        yield g, float(c), float(r)


def test_ball_coverage_rejects_a_centre_of_the_wrong_length():
    with pytest.raises(ValueError):
        ball_coverage(_GRIDS[2], [0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        ball_coverage(_GRIDS[3], [0.0, 0.0], 1.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_coverage_far_out_balls_raise_nothing(dim):
    g = _GRIDS[dim]
    mid = 0.5 * (g.lo + g.hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e300, -1e300):
            assert not ball_coverage(g, np.full(dim, big), 1.0).any()
            assert not ball_coverage(g, np.full(dim, big), 0.0).any()
            assert not ball_coverage(g, np.full(dim, big), -1e300).any()
        assert not ball_coverage(g, mid, -1e300).any()
        assert np.all(ball_coverage(g, mid, 1e300) == 1.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_coverage_window_of_an_overflowing_quotient_raises_nothing(dim):
    # (c - reach - lo) / h or (c + reach - lo) / h overflows to -inf or inf.
    g = _GRIDS[dim]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e308, -1e308):
            cov = ball_coverage(g, np.full(dim, big), 1e308)
            assert np.all((cov >= 0.0) & (cov <= 1.0))
            # An infinite ball covers every cell; its squares are scaled too.
            assert np.all(ball_coverage(g, np.full(dim, big), math.inf) == 1.0)


@pytest.mark.parametrize("lo", [[1e300], [1e300, 0.0]], ids=["1d", "2d"])
def test_ball_coverage_of_an_underflowing_subsample_step_is_a_step(lo):
    # h / 3, scaled to the reach, underflows to 0: every cell centre and
    # subsample lies at distance exactly 1e300, so each cell is half inside,
    # and the radii one ulp away leave it out or take it in.
    g = Grid(lo=lo, spacing=8e-24, shape=(4,) * len(lo))
    c = np.zeros(len(lo))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(ball_coverage(g, c, 1e300) == 0.5)
        assert np.all(ball_coverage(g, c, math.nextafter(1e300, 0.0)) == 0.0)
        assert np.all(ball_coverage(g, c, math.nextafter(1e300, math.inf)) == 1.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("exp2", [900, -900])
def test_ball_coverage_is_invariant_under_a_power_of_two_scale(dim, exp2):
    # Squared distances of a ball scaled by 2^900 overflow and by 2^-900
    # underflow; grid, centre and radius scaled together must give the same
    # fractions, bit for bit and without a warning.
    g = _GRIDS[dim]
    scale = 2.0**exp2
    big = box_grid(g.lo * scale, g.hi * scale, g.shape[0])
    rng = np.random.default_rng(dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            c = g.lo + (g.hi - g.lo) * rng.uniform(0.0, 1.0, dim)
            r = rng.uniform(0.1, 0.6) * float(np.max(g.hi - g.lo))
            expect = ball_coverage(g, c, r)
            assert expect.any()
            assert np.array_equal(ball_coverage(big, c * scale, r * scale), expect)


def test_newton_zero_overlap_unchanged_by_the_bounding_box():
    kp = KernelParams(dim=3, lam=1.0)
    boxed = positivity.newton_zero_overlap(kp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(positivity, "ball_coverage", _full_grid_ball_coverage)
        full = positivity.newton_zero_overlap(kp)
    assert np.array_equal(boxed.field.values, full.field.values)
    assert boxed.overlap == full.overlap


def test_ball_coverage_area_2d():
    g = box_grid([-2.0, -2.0], [2.0, 2.0], 256)
    cov = ball_coverage(g, np.array([0.3, -0.2]), 1.1)
    area = grid_mass(g, cov)
    assert abs(area - np.pi * 1.1**2) < 2e-3


def test_ball_coverage_is_binary_away_from_the_boundary():
    g = box_grid([-2.0], [2.0], 128)
    cov = ball_coverage(g, np.array([0.0]), 1.0)
    x = g.axis_centers(0)
    assert np.all(cov[np.abs(x) < 0.9] == 1.0)
    assert np.all(cov[np.abs(x) > 1.1] == 0.0)


def test_halfspace_coverage_volume_1d():
    g = box_grid([-2.0], [2.0], 256)
    cov = halfspace_coverage(g, np.array([1.0]), 0.37)
    assert abs(grid_mass(g, cov) - (2.0 - 0.37)) < 1e-4


def test_halfspace_coverage_oblique_2d():
    g = box_grid([-1.0, -1.0], [1.0, 1.0], 128)
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    cov = halfspace_coverage(g, n, 0.0)
    # The diagonal half of the square has half its area.
    assert abs(grid_mass(g, cov) - 2.0) < 2e-3


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_halfspace_coverage_matches_the_full_grid_formula(dim):
    # Per-axis projections round differently from the dot product in the
    # last bit, so the fractions agree to 1e-14 of a cell, not bit for bit.
    g = _GRIDS[dim]
    rng = np.random.default_rng(dim)
    mid, span = 0.5 * (g.lo + g.hi), float(np.max(g.hi - g.lo))
    planes = [(np.eye(dim)[k] * sign, sign * float(g.lo[k] + e * g.spacing)) for k in range(dim) for sign in (1.0, -1.0) for e in (0, 3)]
    for _ in range(60):
        normal = unit_vector(rng.normal(size=dim))
        planes.append((normal, float(mid @ normal + rng.uniform(-0.7, 0.7) * span)))
    slabs = 0
    for normal, offset in planes:
        got, want = halfspace_coverage(g, normal, offset), _full_grid_halfspace_coverage(g, normal, offset)
        assert np.max(np.abs(got - want)) <= 1e-14, (normal, offset)
        slabs += np.any((want > 0.0) & (want < 1.0))
    assert slabs > len(planes) // 2


def _nd_halfspace_coverage(grid, normal, offset):
    """The half-space coverage summed over every axis, zero entries of the normal included, as the N-D body had it."""
    h = grid.spacing
    half_diag = 0.5 * h * np.sqrt(grid.dim) + 0.5 * h / SUBSAMPLE
    steps = (np.arange(SUBSAMPLE) - (SUBSAMPLE - 1) / 2.0) * (h / SUBSAMPLE)
    xs = [grid.axis_centers(k) for k in range(grid.dim)]
    s = sum((x * normal[k]).reshape((-1,) + (1,) * (grid.dim - 1 - k)) for k, x in enumerate(xs)) - offset
    cov = np.where(s >= half_diag, 1.0, 0.0)
    slab = np.abs(s) < half_diag
    if slab.any():
        terms = []
        for k, (x, i) in enumerate(zip(xs, np.nonzero(slab))):
            tab = (x[:, None] + steps) * normal[k]
            terms.append(tab[i].reshape((-1,) + (1,) * k + (SUBSAMPLE,) + (1,) * (grid.dim - 1 - k)))
        ssub = (sum(terms) - offset).reshape(len(terms[0]), -1)
        ramp = np.minimum(np.maximum(ssub / (h / SUBSAMPLE) + 0.5, 0.0), 1.0)
        cov[slab] = ramp.sum(axis=1) / ramp.shape[1]
    return cov


@pytest.mark.parametrize("dim", [2, 3])
def test_axis_normal_halfspace_coverage_matches_the_nd_body_bit_for_bit(dim):
    g = _GRIDS[dim]
    h = g.spacing
    rng = np.random.default_rng(10 + dim)
    planes = 0
    for k in range(dim):
        for scale in (1.0, -1.0, 0.5, -0.5, 3.0, float(rng.uniform(-2.0, 2.0))):
            normal = np.zeros(dim)
            normal[k] = scale
            # Planes on cell edges and centres, off them, outside the grid
            # on either side, and through the origin.
            edges = g.lo[k] + 0.5 * h * np.arange(-3, 2 * g.shape[k] + 4)
            offsets = [scale * x for x in edges] + [scale * x for x in rng.uniform(g.lo[k] - 1.0, g.hi[k] + 1.0, 12)] + [0.0]
            for offset in offsets:
                got = halfspace_coverage(g, normal, offset)
                assert got.flags.writeable and np.array_equal(got, _nd_halfspace_coverage(g, normal, offset)), (normal, offset)
                planes += 1
    # A -0.0 entry is a zero: the normal still lies along one axis.
    normal = np.zeros(dim)
    normal[0], normal[-1] = -0.0, 0.5
    offset = 0.5 * float(g.lo[-1] + 2.5 * h)
    assert np.array_equal(halfspace_coverage(g, normal, offset), _nd_halfspace_coverage(g, normal, offset))
    assert planes > 100


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_halfspace_coverage_with_zero_normal_entries_matches_the_nd_body_bit_for_bit(dim):
    # Skipping an axis where n_k = 0 leaves out only exact zeros, for any
    # normal, not only for one along an axis.
    g = _GRIDS[dim]
    rng = np.random.default_rng(20 + dim)
    mid, span = 0.5 * (g.lo + g.hi), float(np.max(g.hi - g.lo))
    slabs = 0
    for _ in range(300):
        normal = rng.normal(size=dim) * rng.choice([0.0, -0.0, 1.0], size=dim)
        if not np.any(normal):
            normal[rng.integers(dim)] = rng.uniform(0.5, 2.0)
        offset = float(mid @ normal + rng.uniform(-0.6, 0.6) * span * np.max(np.abs(normal)))
        got, want = halfspace_coverage(g, normal, offset), _nd_halfspace_coverage(g, normal, offset)
        assert got.shape == g.shape and got.flags.writeable and np.array_equal(got, want), (normal, offset)
        slabs += np.any((want > 0.0) & (want < 1.0))
    assert slabs > 200


@pytest.mark.parametrize(
    "dim, normal, message",
    [
        (1, [0.0, 1.0], "dimension 2 for points of dimension 1"),
        (3, [0.6, 0.8], "dimension 2 for points of dimension 3"),
        (2, [0.0, -0.0], "non-zero"),
    ],
    ids=["2-D-on-1-D", "2-D-on-3-D", "zero"],
)
def test_halfspace_coverage_rejects_a_normal_of_the_wrong_length_or_zero(dim, normal, message):
    with pytest.raises(ValueError, match=message):
        halfspace_coverage(_GRIDS[dim], np.array(normal), 0.3)


def test_box_coverage_partial_cells():
    g = box_grid([0.0], [1.0], 10)
    cov = box_coverage(g, [0.25], [0.65])
    assert abs(grid_mass(g, cov) - 0.4) < 0.04


def test_tail_mass_full_line():
    # Tail of (1+x^2)^(-1) beyond [-20, 20]: pi - 2 arctan(20).
    g = box_grid([-20.0], [20.0], 256)
    tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=1.0)
    expect = np.pi - 2.0 * np.arctan(20.0)
    assert abs(tail_mass_1d(tail, g) - expect) < 1e-10


def test_tail_mass_within_window():
    g = box_grid([-20.0], [20.0], 256)
    tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=1.0)
    # Window covering one side only: arctan(30) - arctan(20).
    expect = np.arctan(30.0) - np.arctan(20.0)
    assert abs(tail_mass_1d(tail, g, within=(-5.0, 30.0)) - expect) < 1e-10
    # Window inside the box has no tail contribution.
    assert tail_mass_1d(tail, g, within=(-5.0, 5.0)) == 0.0


def _quad_tail(beta, q, c, a, b):
    """Integral of (beta + (x - c)^2)^(-q) over (a, b) by adaptive quadrature, split at c."""
    f = lambda x: (beta + (x - c) ** 2) ** (-q)
    parts = [(a, min(b, c)), (max(a, c), b)]
    return sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0] for lo, hi in parts if lo < hi)


@pytest.mark.parametrize("q", [0.55, 0.75, 1.0, 1.25, 1.5])
@pytest.mark.parametrize("beta", [0.3, 1.0, 4.0])
def test_tail_piece_closed_form_matches_quad(q, beta):
    for c in (0.0, 1.3, -2.0):
        pieces = (
            (25.0, 31.0), (-1e3, -30.0), (40.0, math.inf), (-math.inf, -40.0),  # far
            (c - 3.0, c + 2.5), (c - 0.1, c + 30.0),  # straddling the centre
            (c, c + 4.0), (c + 0.5, math.inf), (-math.inf, c - 0.5), (-math.inf, c),  # one-sided
            (-math.inf, math.inf),  # the whole line
        )
        for a, b in pieces:
            got = coverage._tail_piece(beta, q, a - c, b - c)
            want = _quad_tail(beta, q, c, a, b)
            assert abs(got - want) <= 1e-11 * want, (c, a, b, got, want)


def test_tail_mass_matches_quad_outside_the_grid():
    # The grid [4, 6] puts the centre in the left tail, so that piece straddles it.
    for g in (box_grid([-20.0], [20.0], 256), box_grid([4.0], [6.0], 16)):
        for c in (0.0, 1.3, -2.0):
            tail = ExtremizerSpec(alpha=2.5, beta=0.3, center=np.array([c]), power=0.75)
            for within in (None, (-30.0, 25.0), (-math.inf, c), (c + 0.2, math.inf), (-3.0, 3.0)):
                a, b = (-math.inf, math.inf) if within is None else within
                pieces = [(a, min(b, g.lo[0])), (max(a, g.hi[0]), b)]
                want = 2.5 * sum(_quad_tail(0.3, 0.75, c, lo, hi) for lo, hi in pieces if lo < hi)
                assert abs(tail_mass_1d(tail, g, within=within) - want) <= 1e-11 * abs(want), (g.lo, c, within)


def test_tail_of_power_at_most_half_has_infinite_mass():
    g = box_grid([-20.0], [20.0], 256)
    for q in (0.4, 0.5, 0.0, -1.0):
        tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=q)
        for within in (None, (-math.inf, -30.0), (25.0, math.inf)):
            with pytest.raises(ValueError, match="infinite mass"):
                tail_mass_1d(tail, g, within=within)
        # A bounded piece still has a finite mass.
        want = _quad_tail(1.0, q, 0.0, -50.0, -20.0) + _quad_tail(1.0, q, 0.0, 20.0, 30.0)
        assert abs(tail_mass_1d(tail, g, within=(-50.0, 30.0)) - want) <= 1e-11 * want
    # A zero tail has no mass.
    assert tail_mass_1d(ExtremizerSpec(alpha=0.0, beta=1.0, center=np.array([0.0]), power=0.4), g) == 0.0


def test_bracket_that_overflows_raises():
    # 64 spans of a grid wider than about 3e306 is inf, so the doubled
    # bracket must stop at the float overflow, not evaluate an infinite radius.
    seen = []

    def excess(r):
        assert np.isfinite(r) and len(seen) < 2000
        seen.append(r)
        return -1.0

    with pytest.raises(BracketingError):
        bisect_increasing(excess, 0.0, 1.0, 1.0, max_hi=np.inf)


def _halving(excess, lo, hi, tol, max_hi=None):
    """(zero, evaluations) of the search by plain halving, for comparison."""
    seen = []

    def counted(x):
        seen.append(x)
        return excess(x)

    if max_hi is not None:
        while counted(hi) < 0:
            hi *= 2.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        e = counted(mid)
        if abs(e) < tol or hi - lo < 1e-14 * max(1.0, abs(hi)):
            return mid, len(seen)
        lo, hi = (mid, hi) if e < 0 else (lo, mid)
    return 0.5 * (lo + hi), len(seen)


# Increasing functions with their zero at r: smooth, a step 1e-13 wide, a
# vertical tangent, an exponential, and a slope that jumps by 1e12 at r.  On
# the last, regula falsi with the Illinois rule alone creeps up the flat side
# and hits the step cap; the pull toward the midpoint prevents it.
_SEARCH_FUNCTIONS = {
    "linear": lambda x, r: x - r,
    "ramp step": lambda x, r: min(max((x - r) / 1e-13, -1.0), 1.0),
    "ninth root": lambda x, r: math.copysign(abs(x - r) ** (1.0 / 9.0), x - r),
    "exp(40x)": lambda x, r: math.exp(40.0 * x) - math.exp(40.0 * r),
    "flat then steep": lambda x, r: x - r if x < r else 1e12 * (x - r),
}


@pytest.mark.parametrize("name", sorted(_SEARCH_FUNCTIONS))
@pytest.mark.parametrize("max_hi", [None, 64.0])
def test_search_meets_the_stop_rule_within_a_few_steps_of_halving(name, max_hi):
    fn = _SEARCH_FUNCTIONS[name]
    # With max_hi the bracket starts at [0, 1/64] and doubles.
    hi = 1.0 if max_hi is None else 1.0 / 64.0
    for r in (0.3, 1.0 / 3.0, 0.7, 1e-3, 0.999):
        for tol in (1e-9, 1e-3):
            seen = []

            def excess(x):
                seen.append(x)
                return fn(x, r)

            x = bisect_increasing(excess, 0.0, hi, tol, max_hi=max_hi)
            assert abs(fn(x, r)) < tol or abs(x - r) < 1e-14, (r, tol, x)
            # SLACK steps behind halving at worst, plus the first
            # evaluation of hi.
            _, halving = _halving(lambda x: fn(x, r), 0.0, hi, tol, max_hi=max_hi)
            assert len(seen) <= halving + SLACK + 1, (r, tol, len(seen), halving)


@pytest.mark.parametrize("max_hi", [None, 1e3])
def test_search_never_evaluates_lo(max_hi):
    # lo may be a degenerate end, such as a ball of radius 0.
    def excess(x):
        if x == 0.0:
            raise AssertionError("lo was evaluated")
        return x - 0.25

    # A hi below the zero is doubled only with max_hi.
    for hi in (1.0, 0.25 + 1e-12) + ((1e-2,) if max_hi else ()):
        assert abs(bisect_increasing(excess, 0.0, hi, 1e-12, max_hi=max_hi) - 0.25) < 1e-12


@pytest.mark.parametrize("max_hi", [None, 1e3])
def test_search_takes_known_end_values(max_hi):
    seen = []

    def excess(x):
        seen.append(x)
        return x - 0.3

    plain = bisect_increasing(excess, 0.0, 1.0, 1e-12, max_hi=max_hi)
    n_plain = len(seen)
    # A known excess at hi is not evaluated again, and the search is the same.
    seen.clear()
    assert bisect_increasing(excess, 0.0, 1.0, 1e-12, max_hi=max_hi, f_hi=0.7) == plain
    assert 1.0 not in seen and len(seen) == n_plain - 1
    # A known excess at lo lets the first step be a regula-falsi one, which
    # lands on the zero of a straight line.
    seen.clear()
    assert abs(bisect_increasing(excess, 0.0, 1.0, 1e-12, max_hi=max_hi, f_lo=-0.3) - 0.3) < 1e-12
    assert len(seen) == 2


def test_half_mass_radius_starts_from_the_empty_ball():
    # The excess at radius 0 is minus half the total: the centred search on
    # (1 + x^2)^(-1) steps by regula falsi at once instead of halving.
    g = box_grid([-20.0], [20.0], 2048)
    x = g.axis_centers(0)
    dens = Field(g, (1.0 + x**2) ** -1.0, tail=ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=1.0))
    total = coverage.density_mass(dens)
    radii = []
    cover = coverage.ball_coverage

    def counted(grid, center, radius):
        radii.append(radius)
        return cover(grid, center, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverage, "ball_coverage", counted)
        r = half_mass_radius(dens, [0.0], total)
    assert abs(r - 1.0) < 1e-4
    assert len(radii) <= 8


def test_search_stops_doubling_past_max_hi():
    seen = []

    def excess(x):
        seen.append(x)
        return x - 100.0

    with pytest.raises(BracketingError, match="could not bracket half the mass below 50"):
        bisect_increasing(excess, 0.0, 1.0, 1e-9, max_hi=50.0)
    assert seen == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def test_mapping_ball_search_makes_few_mass_evaluations():
    # The density of the hemiball-1d benchmark: each mapping ball took about
    # 1 300 ball coverages by halving.
    g = box_grid([-20.0], [20.0], 2048)
    x = g.axis_centers(0)
    tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=1.0)
    m = Measure(density=Field(g, (1.0 + x**2) ** (-1.0), tail=tail))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverage, "ball_coverage", lambda *a: calls.append(1) or ball_coverage(*a))
        for s, t in ((0.0, 0.5), (0.5, 2.0), (0.1, 3.0), (2.5, 2.6)):
            calls.clear()
            res = solve_mapping_ball(m, np.array([1.0]), s, t)
            c = (s * t - 1.0) / (s + t)
            assert abs(res.center[0] - c) < 5e-3 and abs(res.radius - math.hypot(1.0, c)) < 5e-3
            assert len(calls) < 600, (s, t, len(calls))


def test_mass_identity_makes_few_mass_evaluations_per_search():
    # The density of the hemiball-1d benchmark, at most 8 ball coverages per
    # search on average; a bracket that started at one cell took 12-16, 7-9
    # of them doubling it.
    g = box_grid([-20.0], [20.0], 2048)
    x = g.axis_centers(0)
    tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=1.0)
    density = Field(g, (1.0 + x**2) ** (-1.0), tail=tail)
    calls, per_search = [], []

    def search(*args):
        start = len(calls)
        r = half_mass_radius(*args)
        per_search.append(len(calls) - start)
        return r

    centers = [np.array([a]) for a in np.linspace(-3.0, 3.0, 10)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverage, "ball_coverage", lambda *a: calls.append(1) or ball_coverage(*a))
        mp.setattr(lizhu, "half_mass_radius", search)
        cv = lizhu.check_mass_identity(density, centers)
    assert cv < 1e-3
    assert len(per_search) == 10 and sum(per_search) <= 8 * 10, per_search
