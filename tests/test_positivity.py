"""Inversion positivity: defects, the representation oracle, boundary examples."""

import numpy as np
import pytest
from scipy.special import gamma, kv

from invpos.energy import energy_direct, gaussian_field
from invpos.fields import Field, KernelParams, box_grid
from invpos.geometry import Ball, HalfSpace
from invpos.positivity import (
    SearchFailureError,
    _branch_cut_rule,
    _cell_laplace,
    _legendre_rule,
    find_negative_defect,
    halfspace_representation,
    newton_zero_overlap,
    positivity_defect,
    reflected_energy,
)


def _halfline_field(n=512, hi=16.0, center=2.0, width=0.7):
    g = box_grid([0.0], [hi], n)
    x = g.axis_centers(0)
    return Field(g, np.exp(-((x - center) ** 2) / (2.0 * width**2)))


def test_defect_nonnegative_for_halfspace():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-16.0], [16.0], 512)
    f = gaussian_field(g, [1.0], 1.0)
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    rep = positivity_defect(h, f, kp)
    assert rep.defect >= -rep.est_error
    assert not rep.strict_flag


def test_defect_vanishes_for_symmetric_field():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-16.0], [16.0], 512)
    f = gaussian_field(g, [0.0], 1.0)
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    rep = positivity_defect(h, f, kp)
    assert rep.strict_flag
    assert abs(rep.defect) <= 3.0 * rep.est_error


def test_defect_and_g_form_agree():
    # The defect equals I[g, Theta g] for g = (f - Theta f) restricted to one
    # side; the two independent computations must agree.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-16.0], [16.0], 512)
    f = gaussian_field(g, [1.5], 0.8)
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    rep = positivity_defect(h, f, kp)
    assert abs(rep.defect - rep.defect_via_g) <= 3.0 * rep.est_error


def test_defect_oracle_consistency_1d_halfspace():
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-16.0], [16.0], 512)
    f = gaussian_field(g, [2.0], 0.7)
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    rep = positivity_defect(h, f, kp)
    assert rep.oracle_value is not None
    assert abs(rep.defect_via_g - rep.oracle_value) <= 5.0 * rep.est_error + 1e-3 * abs(rep.oracle_value)


def test_defect_nonnegative_for_ball_region_2d():
    kp = KernelParams(dim=2, lam=1.0)
    g = box_grid([-8.0, -8.0], [8.0, 8.0], 128)
    f = gaussian_field(g, [2.0, 0.5], 0.8)
    b = Ball(center=np.array([-3.0, 0.0]), radius=1.5)
    rep = positivity_defect(b, f, kp)
    assert rep.defect >= -rep.est_error


def test_defect_estimate_parts_and_kind():
    kp = KernelParams(dim=1, lam=0.5)
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    g = box_grid([-16.0], [16.0], 512)
    rep = positivity_defect(h, gaussian_field(g, [1.5], 0.8), kp)
    assert rep.est_kind == "richardson"
    assert rep.est_error == rep.est_defect + rep.est_via_g
    assert rep.est_defect > 0 and rep.est_via_g > 0
    # Three cells cannot be coarsened: the estimate is guessed and says so.
    tiny = box_grid([-1.5], [1.5], 3)
    rep = positivity_defect(h, Field(tiny, np.array([0.2, 1.0, 0.5])), kp)
    assert rep.est_kind == "guessed"
    assert rep.est_error == rep.est_defect + rep.est_via_g


def test_defect_oracle_finite_when_the_plane_is_off_a_cell_edge():
    # Offset 0.3 puts the plane inside a cell of the 256-point grid, so g is
    # non-zero on a cell that straddles it.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-16.0], [16.0], 256)
    rep = positivity_defect(HalfSpace(normal=np.array([1.0]), offset=0.3), gaussian_field(g, [1.0], 1.0), kp)
    assert np.isfinite(rep.oracle_value)
    assert abs(rep.oracle_value - rep.defect_via_g) <= 3.0 * rep.est_error


@pytest.mark.parametrize("offset", [0.0, 0.3, 1.0, -0.75])
def test_plane_with_normal_minus_one_gives_the_numbers_of_the_mirrored_field(offset):
    # x -> -x maps f and {-x > t} onto f(-x) and {x > t}.  On a grid symmetric
    # about 0 the oracle sees the same cells, so its value is the same float;
    # the pair sums add the mirrored cells in another order.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([-16.0], [16.0], 256)
    f = gaussian_field(g, [-1.5], 0.8)
    down = positivity_defect(HalfSpace(normal=np.array([-1.0]), offset=offset), f, kp)
    up = positivity_defect(HalfSpace(normal=np.array([1.0]), offset=offset), Field(g, f.values[::-1].copy()), kp)
    assert down.oracle_value is not None
    assert down.oracle_value == up.oracle_value
    assert down.defect == pytest.approx(up.defect, rel=1e-14, abs=0)
    assert down.defect_via_g == pytest.approx(up.defect_via_g, rel=1e-14, abs=0)


@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_k_matches_bessel_closed_form(dim):
    # The half-space kernel K(xi, t) = 2 sin(pi (N - lambda)/2)
    # int_xi^inf e^(-t tau) (tau^2 - xi^2)^((a-1)/2) dtau
    # = 2 sin(pi (N - lambda)/2) Gamma((a+1)/2) / sqrt(pi) (2 xi / t)^(a/2) K_(a/2)(t xi)
    # (DLMF 10.32), with a = 1 - N + lambda; a near -1 is the endpoint-singular
    # end.  The rule stops where e^(-t tau) is e^(-45) times its value at tau = xi.
    grid = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 20.0)
    for a in np.arange(-0.95, 0.99, 0.05):
        lam = dim - 1 + a
        pref = 2.0 * np.sin(0.5 * np.pi * (dim - lam)) * gamma(0.5 * (a + 1.0)) / np.sqrt(np.pi)
        for xi in grid:
            for t in grid:
                expect = pref * (2.0 * xi / t) ** (0.5 * a) * kv(0.5 * a, t * xi)
                taus, ws = _branch_cut_rule(xi, np.arccosh(1.0 + 45.0 / (t * xi)), 1.0 - dim + lam)
                got = 2.0 * np.sin(0.5 * np.pi * (dim - lam)) * (ws @ np.exp(-t * taus))
                assert abs(got - expect) <= 1e-5 * expect, (lam, xi, t)


def test_representation_closed_form_indicator():
    # f = chi_[0,1], lambda = 1/2: I[Theta_H f, f] = (2 sqrt(2) - 2)/0.75.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([0.0], [16.0], 1024)
    x = g.axis_centers(0)
    f = Field(g, np.where(x <= 1.0, 1.0, 0.0))
    value = halfspace_representation(f, kp)
    expect = (2.0 ** 1.5 - 2.0) / 0.75
    assert abs(value - expect) < 0.005 * expect


def test_cell_laplace_matches_indicator_transform():
    # chi_[0,1] on 64 cells: F(tau) = (1 - e^(-tau))/tau exactly, also where
    # tau h is far below rounding of 1 - e^(-tau h).
    g = box_grid([0.0], [16.0], 1024)
    x = g.axis_centers(0)
    inside = x <= 1.0
    h = g.spacing
    taus = np.geomspace(1e-8, 1e4, 241)
    got = _cell_laplace(x[inside] - 0.5 * h, np.ones(int(inside.sum())), h, taus)
    expect = -np.expm1(-taus) / taus
    assert np.max(np.abs(got - expect) / expect) < 1e-13


def test_cell_laplace_folds_a_cell_that_straddles_zero():
    # Cell [-0.03, 0.095] with h = 0.125: int e^(-tau |x|) over it is
    # (2 - e^(-0.03 tau) - e^(-0.095 tau)) / tau, bounded for every tau.
    h, left = 0.125, np.array([-0.03, 0.095])
    taus = np.geomspace(1e-3, 1e4, 71)
    got = _cell_laplace(left, np.array([1.0, 0.0]), h, taus)
    expect = (2.0 - np.exp(-0.03 * taus) - np.exp(-0.095 * taus)) / taus
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - expect) / expect) < 1e-9
    both = _cell_laplace(left, np.array([1.0, 2.0]), h, taus)
    assert np.allclose(both, expect + 2.0 * np.exp(-0.095 * taus) * -np.expm1(-h * taus) / taus, rtol=1e-12)


def _cell_laplace_longdouble(left, values, h, taus):
    """Per-cell long-double transform: (sum of the terms, sum of their moduli)."""
    t = taus.astype(np.longdouble)[:, None]
    lo = left.astype(np.longdouble)
    pos = np.maximum(lo, 0)
    # int over [max(lo, 0), lo + h] of e^(-t x), plus int over [lo, 0] of e^(t x).
    cell = (np.exp(-t * pos) * -np.expm1(-t * (lo + np.longdouble(h) - pos)) - np.expm1(t * np.minimum(lo, 0))) / t
    terms = cell * values.astype(np.longdouble)
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17, reason="long double is no wider than double")
@pytest.mark.parametrize("n", [1, 2, 3, 17, 511, 512, 1025, 2048])
@pytest.mark.parametrize("first", ["0", "-0.3h", "0.7", "5", "15"])
def test_cell_laplace_matches_a_long_double_sum_over_cells(n, first):
    # The blocked factorisation against every cell summed on its own.
    h = 1.0 / 27.0
    left0 = -0.3 * h if first == "-0.3h" else float(first)
    left = left0 + h * np.arange(n)
    values = np.random.default_rng(n).standard_normal(n)
    taus = np.geomspace(1e-8, 1e4, 301)
    got = _cell_laplace(left, values, h, taus)
    want, scale = _cell_laplace_longdouble(left, values, h, taus)
    seen = scale > 1e-250
    assert seen.any()
    assert np.max(np.abs(got[seen] - want[seen]) / scale[seen]) < 2e-13


def test_cell_laplace_rejects_cells_that_are_not_consecutive():
    taus = np.geomspace(1e-3, 1e3, 11)
    with pytest.raises(ValueError, match="consecutive"):
        _cell_laplace(np.array([0.0, 0.1, 0.3]), np.ones(3), 0.1, taus)
    with pytest.raises(ValueError, match="consecutive"):
        _cell_laplace(np.array([0.0, 0.1, 0.2]), np.ones(3), 0.2, taus)


def test_cached_legendre_rule_is_read_only():
    x, w = _legendre_rule()
    assert _legendre_rule() is _legendre_rule() and len(x) == len(w) == 16
    assert not x.flags.writeable and not w.flags.writeable


def test_representation_closed_form_indicator_tight():
    # The cell transform is exact for chi_[0,1], so what is left is the
    # error of the tau quadrature.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([0.0], [16.0], 1024)
    x = g.axis_centers(0)
    value = halfspace_representation(Field(g, np.where(x <= 1.0, 1.0, 0.0)), kp)
    expect = (2.0 ** 1.5 - 2.0) / 0.75
    assert abs(value - expect) < 1e-5 * expect


def test_representation_matches_direct_1d():
    kp = KernelParams(dim=1, lam=0.75)
    f = _halfline_field()
    value = halfspace_representation(f, kp)
    direct = reflected_energy(f, f, kp)
    assert abs(value - direct.value) <= 3.0 * direct.est_error + 2e-3 * abs(value)


def test_representation_is_nonnegative_for_signed_fields():
    # The representation is a weighted square, hence non-negative even when
    # f changes sign.
    kp = KernelParams(dim=1, lam=0.5)
    g = box_grid([0.0], [16.0], 512)
    x = g.axis_centers(0)
    f = Field(g, np.sin(x) * np.exp(-((x - 3.0) ** 2)))
    assert halfspace_representation(f, kp) >= 0.0


def test_representation_matches_direct_2d_radial():
    kp = KernelParams(dim=2, lam=1.5)
    g = box_grid([-6.0, 0.0], [6.0, 12.0], 64)
    pts = g.points().reshape(64, 64, 2)
    vals = np.exp(-(pts[..., 0] ** 2) / 2.0) * np.exp(-((pts[..., 1] - 2.0) ** 2) / 2.0)
    f = Field(g, vals)
    value = halfspace_representation(f, kp)
    direct = reflected_energy(f, f, kp)
    assert abs(value - direct.value) <= 3.0 * direct.est_error + 5e-3 * abs(value)


def test_representation_matches_direct_2d_radial_small_lambda():
    # lambda = 0.3: the rho integrand grows like rho^(-0.7) at 0 and the
    # inner integrand like sinh(u)^(-0.7).
    kp = KernelParams(dim=2, lam=0.3)
    g = box_grid([-6.0, 0.0], [6.0, 12.0], 64)
    x, y = g.axis_centers(0), g.axis_centers(1)
    f = Field(g, np.exp(-(x[:, None] ** 2) / 2.0) * np.exp(-((y[None, :] - 2.0) ** 2) / 2.0))
    value = halfspace_representation(f, kp)
    direct = reflected_energy(f, f, kp)
    assert abs(value - direct.value) <= 3.0 * direct.est_error + 5e-3 * abs(value)


def test_representation_gap_2d_radial_shrinks_with_the_grid():
    # The oracle's rho quadrature carries an O(h^2) bias: its gap to the
    # direct sum falls by about 3.5 per halving of h (0.033, 0.0090, 0.0026
    # at 32^2, 64^2, 128^2), so the 64^2 gap is a grid error, not a bad est.
    kp = KernelParams(dim=2, lam=1.5)
    gaps = []
    for n in (32, 64, 128):
        g = box_grid([-6.0, 0.0], [6.0, 12.0], n)
        x, y = g.axis_centers(0), g.axis_centers(1)
        f = Field(g, np.exp(-(x[:, None] ** 2) / 2.0) * np.exp(-((y[None, :] - 2.0) ** 2) / 2.0))
        gaps.append(abs(halfspace_representation(f, kp) - reflected_energy(f, f, kp, estimate=False).value))
    assert gaps[0] >= 3.0 * gaps[1]
    assert gaps[1] >= 3.0 * gaps[2]


@pytest.mark.parametrize("lam", [1.0, 1.5, 1.05, 1.2])
def test_representation_matches_direct_3d_separable(lam):
    # lambda = 1 = N - 2 takes the residue branch, the others the branch-cut
    # integral, whose endpoint power sinh(u)^(lambda - 2) is nearly
    # non-integrable at lambda = 1.05.
    kp = KernelParams(dim=3, lam=lam)
    g = box_grid([-6.0, -6.0, 0.0], [6.0, 6.0, 12.0], 32)
    pts = g.points().reshape(32, 32, 32, 3)
    vals = np.exp(-(pts[..., 0] ** 2 + pts[..., 1] ** 2) / 2.0) * np.exp(-((pts[..., 2] - 2.0) ** 2) / 2.0)
    f = Field(g, vals)
    value = halfspace_representation(f, kp)
    direct = reflected_energy(f, f, kp)
    assert abs(value - direct.value) <= 3.0 * direct.est_error + 5e-3 * abs(value)


def test_representation_rejects_nonradial_2d():
    kp = KernelParams(dim=2, lam=1.5)
    g = box_grid([-6.0, 0.0], [6.0, 12.0], 64)
    pts = g.points().reshape(64, 64, 2)
    vals = np.exp(-((pts[..., 0] - 0.5) ** 2) / 2.0) * np.exp(-((pts[..., 1] - 2.0) ** 2) / 2.0)
    with pytest.raises(ValueError):
        halfspace_representation(Field(g, vals), kp)


@pytest.mark.parametrize(
    "u",
    [
        lambda x1, x2: np.exp(-((x1 - 0.5) ** 2 + x2**2) / 2.0),
        lambda x1, x2: np.exp(-(x1**2) / 2.0 - x2**2 / 4.0),
    ],
    ids=["shifted", "elliptic"],
)
def test_representation_rejects_nonradial_3d(u):
    # Both are separable; the elliptic u is even in x1 and x2, so only the
    # cells at equal radius off the axes tell it from a radial one.
    kp = KernelParams(dim=3, lam=1.5)
    g = box_grid([-6.0, -6.0, 0.0], [6.0, 6.0, 12.0], 24)
    pts = g.points().reshape(24, 24, 24, 3)
    vals = u(pts[..., 0], pts[..., 1]) * np.exp(-((pts[..., 2] - 2.0) ** 2) / 2.0)
    with pytest.raises(ValueError, match="radial in x'"):
        halfspace_representation(Field(g, vals), kp)


def test_newton_zero_overlap():
    kp = KernelParams(dim=3, lam=1.0)
    res = newton_zero_overlap(kp)
    assert abs(res.overlap) <= res.est_error
    assert res.self_energy > 100.0 * res.est_error


def test_newton_example_rejects_wrong_parameters():
    with pytest.raises(ValueError):
        newton_zero_overlap(KernelParams(dim=3, lam=1.5))


def test_find_negative_defect_below_threshold():
    kp = KernelParams(dim=3, lam=0.5)
    wit = find_negative_defect(kp)
    assert wit.negative_defect < -3.0 * wit.est_error
    assert wit.positive_defect > 3.0 * wit.est_error


def test_find_negative_defect_fails_at_the_boundary():
    # At lambda = N - 2 the form is positive semi-definite: the search must
    # come back empty-handed rather than fabricate a witness.
    kp = KernelParams(dim=3, lam=1.0)
    with pytest.raises(SearchFailureError):
        find_negative_defect(kp)
