"""Grids, sampled fields, conformal pullbacks, and the field CSV format."""

import itertools

import numpy as np
import pytest
from scipy.optimize import least_squares

from invpos import fields
from invpos.fields import (
    ExtremizerSpec,
    Field,
    Grid,
    KernelParams,
    apply_inversion,
    apply_reflection,
    apply_region_map,
    box_grid,
    coarsen,
    eval_field,
    extremizer_spec,
    lp_norm,
    make_extremizer,
    read_field_csv,
    write_field_csv,
)
from invpos.geometry import Ball, HalfSpace, invert_point, reflect_point
from invpos.symmetrize import SymmetrizationConfig, run_symmetrization


def test_kernel_params_validation_and_exponent():
    kp = KernelParams(dim=1, lam=0.5)
    assert np.isclose(kp.p, 2.0 * 1 / (2.0 * 1 - 0.5))
    with pytest.raises(ValueError):
        KernelParams(dim=3, lam=3.5)
    with pytest.raises(ValueError):
        KernelParams(dim=2, lam=0.0)


def test_positivity_validity_threshold():
    assert KernelParams(dim=1, lam=0.25).positivity_valid
    assert KernelParams(dim=3, lam=1.0).positivity_valid
    assert not KernelParams(dim=3, lam=0.5).positivity_valid


def test_extremizer_lp_norm_matches_closed_form_on_the_box():
    # N=1, lambda=1/2: p = 4/3 and |f|^p = (1+x^2)^(-1), whose integral over
    # [-20, 20] is 2 arctan 20.  lp_norm is deliberately box-only; analytic
    # tails are accounted for separately by the mass bisection routines.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-20.0], [20.0], 2048)
    f = make_extremizer(extremizer_spec(kp), kp, g)
    norm = lp_norm(f, kp.p)
    assert abs(norm - (2.0 * np.arctan(20.0)) ** (1.0 / kp.p)) < 1e-4


def test_eval_field_uses_tail_outside_the_box():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-4.0], [4.0], 256)
    f = make_extremizer(extremizer_spec(kp), kp, g)
    far = np.array([[25.0]])
    assert np.isclose(float(eval_field(f, far)[0]), (1.0 + 625.0) ** (-0.75), rtol=1e-12)


def test_eval_field_interpolates_inside():
    g = box_grid([-2.0], [2.0], 512)
    x = g.axis_centers(0)
    f = Field(g, x**2)
    assert abs(float(eval_field(f, np.array([[0.7]]))[0]) - 0.49) < 1e-4


def _corner_loop(f, pts):
    """Reference multilinear interpolation: an explicit loop over the 2^N cell corners.

    Indices are clipped to the grid, so the half cell between the outermost
    centers and the box edge holds the edge value; outside the box the tail
    is used if present, otherwise 0.
    """
    g = f.grid
    h = g.spacing
    t = (pts - (g.lo + 0.5 * h)) / h
    inside = np.all((pts >= g.lo) & (pts <= g.hi), axis=-1)
    out = np.zeros(len(pts))
    if f.tail is not None:
        out[~inside] = f.tail(pts[~inside])
    ti = t[inside]
    top = np.asarray(g.shape) - 1
    i0 = np.clip(np.floor(ti).astype(int), 0, top)
    i1 = np.minimum(i0 + 1, top)
    w = np.clip(ti - i0, 0.0, 1.0)
    acc = np.zeros(len(ti))
    for corner in itertools.product((0, 1), repeat=g.dim):
        idx = tuple(np.where(c, i1[:, k], i0[:, k]) for k, c in enumerate(corner))
        weight = np.prod(np.stack([w[:, k] if c else 1.0 - w[:, k] for k, c in enumerate(corner)], axis=0), axis=0)
        acc += weight * f.values[idx]
    out[inside] = acc
    return out


@pytest.mark.parametrize("with_tail", [False, True])
@pytest.mark.parametrize("dim, n", [(1, 9), (1, 64), (2, 7), (2, 24), (3, 5), (3, 12)])
def test_eval_field_matches_the_corner_loop(dim, n, with_tail):
    rng = np.random.default_rng(dim * 100 + n)
    g = box_grid([-3.0] * dim, [3.0] * dim, n)
    tail = ExtremizerSpec(alpha=0.7, beta=1.5, center=np.full(dim, 0.2), power=1.3) if with_tail else None
    f = Field(g, rng.normal(size=g.shape), tail=tail)
    h = g.spacing
    # Points in the half cell next to each box face, one coordinate at a time.
    border = np.where(
        rng.random((400, dim)) < 0.5, g.lo + h * rng.uniform(0.0, 0.5, (400, dim)), g.hi - h * rng.uniform(0.0, 0.5, (400, dim))
    )
    some_axes = rng.random((400, dim)) < 0.5
    pts = np.concatenate(
        [
            g.points(),
            g.lo + h * rng.integers(0, n + 1, size=(400, dim)),  # cell edges, box faces included
            border,
            np.where(some_axes, border, rng.uniform(-3.0, 3.0, (400, dim))),
            rng.uniform(-3.0, 3.0, (400, dim)),
            rng.uniform(-4.5, 4.5, (400, dim)),  # about half of them outside the box
        ]
    )
    got = eval_field(f, pts)
    ref = _corner_loop(f, pts)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(f.values))
    if dim == 1:
        # Bit-identical, except within half a cell of the first center, where
        # the second weight is taken as 1 - (1 - t), not as the fractional
        # index t itself, and rounds differently.
        t = (pts[:, 0] - (g.lo[0] + 0.5 * h)) / h
        exact = (t < -0.5) | (t >= 0.5)
        assert np.count_nonzero(exact) > len(pts) // 2
        assert np.array_equal(got[exact], ref[exact])


def test_reflection_pullback_moves_support():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-8.0], [8.0], 512)
    x = g.axis_centers(0)
    f = Field(g, np.exp(-((x - 2.0) ** 2)))
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    rf = apply_reflection(h, f)
    i_orig = np.argmax(f.values)
    i_refl = np.argmax(rf.values)
    assert np.isclose(x[i_refl], -x[i_orig], atol=g.spacing)


def _interpolated_reflection(h, f):
    return eval_field(f, reflect_point(h, f.grid.points())).reshape(f.grid.shape)


@pytest.mark.parametrize("dim, shape", [(1, (13,)), (2, (10, 7)), (3, (8, 6, 5))])
def test_axis_plane_on_a_cell_edge_is_an_index_flip(dim, shape, monkeypatch):
    g = Grid(lo=np.array([-1.3, -0.7, 0.2][:dim]), spacing=0.3, shape=shape)
    f = Field(g, np.random.default_rng(dim).uniform(-1.0, 1.0, size=shape))
    cases = []
    for k, n in enumerate(shape):
        # Box faces, the edges next to them, and interior edges.
        for e in sorted({0, 1, 2, n // 2, n - 2, n - 1, n}):
            for sign in (1.0, -1.0):
                normal = np.zeros(dim)
                normal[k] = sign
                h = HalfSpace(normal, sign * (g.lo[k] + e * g.spacing))
                cases.append((h, _interpolated_reflection(h, f)))

    def no_interpolation(*args):
        raise AssertionError("an edge plane must not interpolate")

    monkeypatch.setattr(fields, "eval_field", no_interpolation)
    for h, ref in cases:
        assert np.max(np.abs(apply_reflection(h, f).values - ref)) <= 1e-14 * np.max(np.abs(f.values)), h


def test_index_flip_takes_the_tail_where_mirrors_leave_the_box():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-3.0], [4.0], 35)
    f = make_extremizer(extremizer_spec(kp, center=[0.5]), kp, g)
    for e, sign in [(3, 1.0), (3, -1.0), (30, 1.0), (0, 1.0), (35, -1.0)]:
        h = HalfSpace(np.array([sign]), sign * (g.lo[0] + e * g.spacing))
        got = apply_reflection(h, f).values
        ref = _interpolated_reflection(h, f)
        mirror = 2 * e - 1 - np.arange(35)
        left = (mirror < 0) | (mirror >= 35)
        assert left.any() and np.all(got[left] > 0.0)
        assert np.array_equal(got[left], ref[left])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(f.values)


def test_off_edge_and_oblique_planes_still_interpolate():
    g = Grid(lo=np.array([-1.3, -0.7, 0.2]), spacing=0.3, shape=(8, 6, 5))
    f = Field(g, np.random.default_rng(3).uniform(-1.0, 1.0, size=g.shape))
    planes = [
        HalfSpace(np.array([0.0, 1.0, 0.0]), float(g.lo[1] + 2.4 * g.spacing)),
        HalfSpace(np.array([0.0, 0.0, -1.0]), -float(g.lo[2] + 3.0 * g.spacing + 1e-6)),
        HalfSpace(np.array([0.6, 0.8, 0.0]), float(g.lo[0] + 4.0 * g.spacing)),
        # Whole numbers of cells from the box, far out: every mirror leaves it.
        HalfSpace(np.array([1.0, 0.0, 0.0]), 1e300),
        HalfSpace(np.array([0.0, -1.0, 0.0]), float(-g.lo[1] + 3.0 * g.spacing)),
    ]
    for h in planes:
        # A flip would differ from the interpolated values, by about 7e-6 of a
        # neighbour step even for the plane 1e-6 (3e-6 cells) off the edge.
        assert np.array_equal(apply_reflection(h, f).values, _interpolated_reflection(h, f))


def test_inversion_pullback_is_an_involution_on_compact_support():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-8.0], [8.0], 2048)
    x = g.axis_centers(0)
    f = Field(g, np.exp(-((x - 2.0) ** 2) / 0.25))
    # A large, nearby ball keeps the inverted image well resolved; the
    # residual is pure interpolation error of the intermediate resampling.
    b = Ball(center=np.array([-2.0]), radius=2.0)
    back = apply_inversion(b, apply_inversion(b, f, kp), kp)
    sel = f.values > 1e-8
    assert np.max(np.abs(back.values[sel] - f.values[sel])) < 1e-2


def test_inversion_pullback_preserves_p_norm():
    # The Jacobian-power weight is exactly the one making the p-norm invariant.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-8.0], [8.0], 2048)
    x = g.axis_centers(0)
    f = Field(g, np.exp(-((x - 2.0) ** 2) / 0.25))
    b = Ball(center=np.array([-3.0]), radius=1.0)
    tf = apply_inversion(b, f, kp)
    assert abs(lp_norm(tf, kp.p) - lp_norm(f, kp.p)) < 2e-3 * lp_norm(f, kp.p)


def _inversion_on_points(b, f, kp):
    """The lifted inversion evaluated on the (size, N) array of cell centres."""
    pts = f.grid.points()
    d = np.linalg.norm(pts - b.center, axis=-1)
    mask = d < 0.5 * f.grid.spacing
    safe_pts = np.where(mask[:, None], pts + 2.0 * b.radius, pts)
    weight = (b.radius / np.where(mask, b.radius, d)) ** kp.lift_power
    return np.where(mask, 0.0, weight * eval_field(f, invert_point(b, safe_pts))).reshape(f.grid.shape)


def _flip_on_points(h, f, k, edge):
    """The index flip across the cell edge ``edge`` of axis k, with the tail at reflected points off the grid."""
    g = f.grid
    n = g.shape[k]
    src = 2 * edge - 1 - np.arange(n)
    vals = np.take(f.values, np.clip(src, 0, n - 1), axis=k)
    cells = np.broadcast_to(((src < 0) | (src >= n)).reshape((1,) * k + (n,) + (1,) * (g.dim - 1 - k)), g.shape)
    if cells.any():
        vals[cells] = 0.0 if f.tail is None else f.tail(reflect_point(h, g.points()[cells.ravel()]))
    return vals


def _mask_on_points(region, grid):
    return region.contains(grid.points()).reshape(grid.shape)


_PULLBACK_GRIDS = {1: ((-1.3,), (11,)), 2: ((-1.3, -0.7), (10, 7)), 3: ((-1.3, -0.7, 0.2), (8, 6, 5))}


def _pullback_field(dim, with_tail):
    lo, shape = _PULLBACK_GRIDS[dim]
    g = Grid(lo=np.array(lo), spacing=0.3, shape=shape)
    tail = ExtremizerSpec(alpha=0.7, beta=1.5, center=np.full(dim, 0.2), power=1.3) if with_tail else None
    return Field(g, np.random.default_rng(dim).uniform(0.0, 1.0, size=shape), tail=tail)


@pytest.mark.parametrize("with_tail", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_per_axis_inversion_and_ball_mask_match_the_point_array(dim, with_tail):
    f = _pullback_field(dim, with_tail)
    g, kp = f.grid, KernelParams(dim=dim, lam=0.7 * dim)
    cell = g.lo + g.spacing * (np.arange(dim) % 3 + 2.5)
    centers = [
        cell,  # on a cell centre: that cell is masked to 0
        cell + 0.3 * g.spacing,  # inside a cell, off its centre
        g.lo,  # a corner of the box
        g.hi + 2.0,  # outside the box
        g.lo - np.arange(1, dim + 1) * 5.0,
    ]
    for c in centers:
        for r in (0.1, 0.4, 1.1, 3.0, 40.0):
            b = Ball(c, r)
            assert np.array_equal(apply_inversion(b, f, kp).values, _inversion_on_points(b, f, kp)), (c, r)
            assert np.array_equal(fields.region_mask(b, g), _mask_on_points(b, g)), (c, r)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_splices_share_the_distances_of_map_and_mask(dim, monkeypatch):
    f = _pullback_field(dim, True)
    g, kp = f.grid, KernelParams(dim=dim, lam=0.7 * dim)
    calls = []
    region_map = fields.apply_region_map
    monkeypatch.setattr(fields, "apply_region_map", lambda *a: calls.append(1) or region_map(*a))
    for c in (g.lo + g.spacing * 2.3, g.hi + 2.0):
        for r in (0.4, 1.1, 40.0):
            b = Ball(c, r)
            fi, fo, theta_f, inside = fields.split_in_out(b, f, kp)
            theta = _inversion_on_points(b, f, kp)
            mask = _mask_on_points(b, g)
            assert np.array_equal(theta_f.values, theta) and np.array_equal(inside, mask), (c, r)
            assert np.array_equal(fi.values, np.where(mask, f.values, theta))
            assert np.array_equal(fo.values, np.where(mask, theta, f.values))
    # Every splice still pulls back through apply_region_map.
    assert len(calls) == 6


@pytest.mark.parametrize("with_tail", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_per_axis_reflection_and_plane_mask_match_the_point_array(dim, with_tail):
    f = _pullback_field(dim, with_tail)
    g = f.grid
    for k, n in enumerate(g.shape):
        for sign in (1.0, -1.0):
            normal = np.zeros(dim)
            normal[k] = sign
            # Edges: box faces, their neighbours, an interior edge.
            for e in (0, 1, n // 2, n - 1, n):
                h = HalfSpace(normal, sign * (g.lo[k] + e * g.spacing))
                assert np.array_equal(apply_reflection(h, f).values, _flip_on_points(h, f, k, e)), h
                assert np.array_equal(fields.region_mask(h, g), _mask_on_points(h, g)), h
            # Off the edges, inside the box and beyond it on either side.
            for e in (0.37, n // 2 + 0.5, n - 0.2, -2.0, -1.6, n + 3.5, 2 * n + 0.5):
                h = HalfSpace(normal, sign * (g.lo[k] + e * g.spacing))
                assert np.array_equal(apply_reflection(h, f).values, _interpolated_reflection(h, f)), h
                assert np.array_equal(fields.region_mask(h, g), _mask_on_points(h, g)), h


def test_oblique_plane_mask_matches_the_point_array():
    f = _pullback_field(3, True)
    for normal in ([0.6, 0.8, 0.0], [0.0, -0.6, 0.8], [2.0 / 3, -1.0 / 3, 2.0 / 3]):
        h = HalfSpace(np.array(normal), 0.1)
        assert np.array_equal(fields.region_mask(h, f.grid), _mask_on_points(h, f.grid))
        assert np.array_equal(apply_reflection(h, f).values, _interpolated_reflection(h, f))


def test_region_mask_rejects_a_plane_of_another_dimension():
    g = Grid(lo=np.zeros(3), spacing=0.5, shape=(4, 5, 6))
    with pytest.raises(ValueError, match="dimension 2 for points of dimension 3"):
        fields.region_mask(HalfSpace(np.array([0.6, 0.8]), 0.1), g)


def test_apply_reflection_rejects_a_plane_of_another_dimension():
    f = _pullback_field(1, True)
    with pytest.raises(ValueError, match="dimension 2 for points of dimension 1"):
        apply_reflection(HalfSpace(np.array([0.0, 1.0]), 0.3), f)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inversion_in_a_huge_ball_raises(dim):
    # Cells within CENTER_CUTOFF r = 1 of the centre are not masked, and 1e300 squared overflows.
    g = box_grid([-2.0] * dim, [2.0] * dim, 16)
    f = Field(g, np.ones(g.shape))
    kp = KernelParams(dim=dim, lam=0.5)
    with pytest.raises(ValueError, match="undefined at the ball center"):
        apply_inversion(Ball(np.zeros(dim), 1e14), f, kp)
    with pytest.raises(ValueError, match="squared overflows"):
        apply_inversion(Ball(np.zeros(dim), 1e300), f, kp)


def test_apply_region_map_dispatches():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-4.0], [4.0], 128)
    x = g.axis_centers(0)
    f = Field(g, np.exp(-(x**2)))
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    assert np.allclose(apply_region_map(h, f, kp).values, apply_reflection(h, f).values)


def test_coarsen_preserves_cell_averages():
    g = box_grid([0.0], [4.0], 8)
    f = Field(g, np.arange(8, dtype=float))
    c = coarsen(f)
    assert c.grid.shape == (4,)
    assert np.allclose(c.values, [0.5, 2.5, 4.5, 6.5])


def _reshape_mean_coarsen(values):
    """Block averages by a reshape and numpy's mean per axis, after trimming each axis to an even length."""
    v = values[tuple(slice(0, n - n % 2) for n in values.shape)]
    for axis in range(v.ndim):
        v = v.reshape(v.shape[:axis] + (v.shape[axis] // 2, 2) + v.shape[axis + 1 :]).mean(axis=axis + 1)
    return v


@pytest.mark.parametrize("shape", [(4,), (9,), (64,), (5, 4), (8, 11), (96, 96), (4, 5, 6), (7, 9, 5), (12, 12, 12)])
def test_coarsen_matches_the_reshape_mean_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    g = Grid(np.array([-1.0] * len(shape)), 0.125, shape)
    # Spread magnitudes, with subnormal values, where halving rounds, and
    # pairs whose sum nears the largest float.
    for scale in (1.0, 1e-310, 8e307):
        values = rng.uniform(-1.0, 1.0, shape) * scale * 10.0 ** rng.uniform(-5, 0, size=shape)
        c = coarsen(Field(g, values))
        assert c.grid == Grid(g.lo, 0.25, tuple(n // 2 for n in shape))
        assert np.array_equal(c.values, _reshape_mean_coarsen(values))


def test_field_csv_round_trip_with_tail(tmp_path):
    g = box_grid([-3.0, -3.0], [3.0, 3.0], 16)
    rng = np.random.default_rng(0)
    tail = ExtremizerSpec(alpha=1.3, beta=0.7, center=np.array([0.1, -0.2]), power=2.0)
    f = Field(g, rng.uniform(size=(16, 16)), tail=tail)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    f2 = read_field_csv(path)
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)
    assert f2.tail is not None
    assert (f2.tail.alpha, f2.tail.beta, f2.tail.power) == (1.3, 0.7, 2.0)
    assert np.array_equal(f2.tail.center, tail.center)


def test_field_csv_round_trip_without_tail(tmp_path):
    g = box_grid([-1.0], [1.0], 32)
    f = Field(g, np.linspace(0.0, 1.0, 32))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    f2 = read_field_csv(path)
    assert f2.tail is None
    assert np.array_equal(f2.values, f.values)


def test_field_csv_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dim,1\norigin,zero\nspacing,0.1\nextent,4\n1\n2\n3\n4\n")
    with pytest.raises(ValueError):
        read_field_csv(path)


def _finite_difference_fit(values, grid, power, alpha0, beta0, center0, max_nfev):
    """The fit as it was before the analytic Jacobian: MINPACK's finite differences over ``grid.points()``."""
    pts = grid.points()
    vals = values.ravel()
    scale = np.max(np.abs(vals))

    def resid(params):
        d2 = np.sum((pts - params[2:]) ** 2, axis=-1)
        return (np.exp(params[0]) * (np.exp(params[1]) + d2) ** (-power) - vals) / scale

    x0 = np.concatenate([[np.log(alpha0), np.log(beta0)], center0])
    sol = least_squares(resid, x0, method="lm", max_nfev=max_nfev)
    return float(np.exp(sol.x[0])), float(np.exp(sol.x[1])), sol.x[2:]


def _symmetrized_box_2d():
    g = box_grid([-12.0] * 2, [12.0] * 2, 64)
    x, y = (g.axis_centers(k) for k in range(2))
    box = ((x >= -1.5) & (x <= 0.4))[:, None] & ((y >= -0.6) & (y <= 1.3))[None, :]
    kp = KernelParams(dim=2, lam=1.0)
    trace = run_symmetrization(Field(g, box.astype(float)), kp, SymmetrizationConfig(max_sweeps=1))
    return trace.final_field.values, g, kp.lift_power / 2.0


def _noisy_family_member(dim, points, halfwidth, lam, center, seed):
    g = box_grid([-halfwidth] * dim, [halfwidth] * dim, points)
    spec = ExtremizerSpec(alpha=1.7, beta=1.4, center=np.array(center), power=(2.0 * dim - lam) / 2.0)
    noise = 1.0 + 0.02 * np.random.default_rng(seed).standard_normal(g.size)
    return (spec(g.points()) * noise).reshape(g.shape), g, spec.power


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(_symmetrized_box_2d, id="symmetrized-box-2d"),
        pytest.param(lambda: _noisy_family_member(1, 512, 20.0, 0.5, [0.4], 1), id="noisy-1d"),
        pytest.param(lambda: _noisy_family_member(3, 24, 6.0, 1.5, [0.3, -0.2, 0.1], 3), id="noisy-3d-24"),
    ],
)
def test_fit_family_matches_the_finite_difference_fit_on_the_point_array(case):
    # Both fits start from a rough guess and must reach the same least-squares
    # minimum, whose residual is not zero.
    values, g, power = case()
    center0 = (values.ravel() @ g.points()) / values.sum()
    start = (float(values.max()), 1.0, center0)
    alpha, beta, center = fields.fit_family(values, g, power, *start)
    ref_alpha, ref_beta, ref_center = _finite_difference_fit(values, g, power, *start, max_nfev=400)
    assert abs(alpha - ref_alpha) <= 1e-6 * ref_alpha
    assert abs(beta - ref_beta) <= 1e-6 * ref_beta
    assert np.all(np.abs(center - ref_center) <= 1e-6 * max(np.linalg.norm(ref_center), np.sqrt(ref_beta)))
    # The minimum leaves a residual (2 % noise, or a field the family does not hold).
    model = ExtremizerSpec(alpha, beta, center, power)(g.points())
    assert 0.01 < np.linalg.norm(model - values.ravel()) / np.linalg.norm(values) < 0.25


def test_fit_family_stops_once_the_residual_is_at_rounding_level(tmp_path, monkeypatch):
    # The exact density (1 + x^2)^(-1), read back from CSV, is a member of the
    # family: the fit reaches a residual at rounding level within a few steps,
    # where MINPACK alone goes on rejecting steps until its step-size test
    # stops it, after 30 residual evaluations.
    from invpos.lizhu import fit_invariant_density

    g = box_grid([-20.0], [20.0], 2048)
    x = g.axis_centers(0)
    tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=1.0)
    write_field_csv(Field(g, (1.0 + x**2) ** (-1.0), tail=tail), tmp_path / "density.csv")
    v = read_field_csv(tmp_path / "density.csv")
    calls = {"resid": 0}
    leastsq = fields.leastsq

    def counting(func, x0, **kw):
        def resid(p):
            calls["resid"] += 1
            return func(p)

        return leastsq(resid, x0, **kw)

    monkeypatch.setattr(fields, "leastsq", counting)
    fit = fit_invariant_density(v)
    assert calls["resid"] <= 10
    assert abs(fit.alpha - 1.0) <= 1e-12 and abs(fit.beta - 1.0) <= 1e-12 and abs(fit.center[0]) <= 1e-12
