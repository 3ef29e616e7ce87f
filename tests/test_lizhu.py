"""Hemi-balls of measures and the inversion-invariant density checks."""

import numpy as np
import pytest

from invpos.fields import ExtremizerSpec, Field, box_grid
from invpos.geometry import Ball, HalfSpace, invert_point
from invpos.lizhu import (
    Measure,
    check_mass_identity,
    check_pointwise_invariance,
    check_radial_derivative,
    fit_invariant_density,
    hemiball_on_ray,
    solve_mapping_ball,
)
from invpos.symmetrize import BracketingError


def _standard_density_1d(n=2048, halfwidth=20.0):
    g = box_grid([-halfwidth], [halfwidth], n)
    x = g.axis_centers(0)
    tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=1.0)
    return Field(g, (1.0 + x**2) ** (-1.0), tail=tail)


def _standard_density_2d(n=256, halfwidth=12.0):
    g = box_grid([-halfwidth] * 2, [halfwidth] * 2, n)
    X, Y = np.meshgrid(g.axis_centers(0), g.axis_centers(1), indexing="ij")
    return Field(g, (1.0 + X**2 + Y**2) ** (-2.0))


def test_density_total_mass_with_tail():
    m = Measure(density=_standard_density_1d())
    assert abs(m.total_mass - np.pi) < 1e-6


def test_density_tail_clipped_to_the_region_1d():
    # (1 + x^2)^(-1) on [-4, 4]: most of each region's mass lies in the
    # tail, clipped to the ball's interval or to one side of the plane.
    m = Measure(density=_standard_density_1d(n=512, halfwidth=4.0))
    assert abs(m.mass_in_ball(Ball(center=np.array([3.0]), radius=5.0)) - (np.arctan(8.0) - np.arctan(-2.0))) < 5e-5
    for t in (-5.0, 0.4, 5.0):
        above = m.mass_in_halfspace(HalfSpace(normal=np.array([1.0]), offset=t))
        below = m.mass_in_halfspace(HalfSpace(normal=np.array([-1.0]), offset=t))
        assert abs(above - (0.5 * np.pi - np.arctan(t))) < 5e-5
        assert abs(below - (0.5 * np.pi + np.arctan(-t))) < 5e-5


def test_hemiball_on_ray_antipodal_oracle_1d():
    # For the standard density the hemi-interval through u contains the
    # antipodal point -1/u: arctan(u) + arctan(1/u) = pi/2 for every u > 0.
    m = Measure(density=_standard_density_1d())
    for u in (0.7, 1.0, 2.0, 3.5):
        res = hemiball_on_ray(m, np.array([1.0]), u=u)
        expect_center = 0.5 * (u - 1.0 / u)
        expect_radius = 0.5 * (u + 1.0 / u)
        assert abs(res.center[0] - expect_center) < 2e-4
        assert abs(res.radius - expect_radius) < 2e-4


def test_hemiball_on_ray_antipodal_oracle_2d():
    m = Measure(density=_standard_density_2d())
    res = hemiball_on_ray(m, np.array([1.0, 0.0]), u=2.0)
    assert abs(res.center[0] - 0.75) < 5e-3
    assert abs(res.radius - 1.25) < 5e-3


def test_hemiball_on_ray_requires_balanced_measure():
    g = box_grid([-10.0], [10.0], 512)
    x = g.axis_centers(0)
    lopsided = Field(g, np.exp(-((x - 3.0) ** 2)))
    with pytest.raises(ValueError):
        hemiball_on_ray(Measure(density=lopsided), np.array([1.0]), u=2.0)


def test_solve_mapping_ball_unit_sphere_oracle():
    # The unit ball bisects the standard measure and its inversion maps
    # s = 1/2 to t = 2; the solver must find it.
    m = Measure(density=_standard_density_2d())
    res = solve_mapping_ball(m, np.array([1.0, 0.0]), s=0.5, t=2.0)
    assert abs(res.center[0]) < 5e-3
    assert abs(res.radius - 1.0) < 5e-3
    image = invert_point(
        Ball(center=res.center, radius=res.radius), np.array([[0.5, 0.0]])
    )
    assert abs(image[0, 0] - 2.0) < 2e-2


@pytest.mark.parametrize("s, t", [(0.0, 0.3), (0.0, 3.0), (0.01, 0.02), (0.5, 2.0), (2.9, 3.0)])
def test_solve_mapping_ball_closed_form_1d(s, t):
    # For (1 + x^2)^(-1) the interval of center a and radius sqrt(1 + a^2)
    # holds half the mass, and it maps s to t when a = (st - 1) / (s + t).
    m = Measure(density=_standard_density_1d())
    res = solve_mapping_ball(m, np.array([1.0]), s=s, t=t)
    a = (s * t - 1.0) / (s + t)
    assert abs(res.center[0] - a) < 5e-3
    assert abs(res.radius - np.sqrt(1.0 + a * a)) < 5e-3


def test_solve_mapping_ball_raises_for_a_bump_between_s_and_t():
    # No ball through s holds half of a bump that lies right of s, and the
    # hemi-ball through t misses s: no mapping ball exists.
    g = box_grid([-10.0], [10.0], 1024)
    x = g.axis_centers(0)
    bump = Field(g, np.exp(-((x - 1.5) ** 2) / 0.18))
    with pytest.raises(BracketingError):
        solve_mapping_ball(Measure(density=bump), np.array([1.0]), s=0.5, t=3.0)


def test_solve_mapping_ball_names_the_share_above_an_unbalanced_plane():
    # The density is twice as high above x = 0 as below it, so two thirds of
    # the mass lies above and the plane is not balanced.
    g = box_grid([-8.0], [8.0], 16)
    m = Measure(density=Field(g, np.where(g.axis_centers(0) > 0, 2.0, 1.0)))
    with pytest.raises(BracketingError, match="0.666667 of its mass lies above"):
        solve_mapping_ball(m, np.array([1.0]), s=0.5, t=2.0)


def test_pointwise_invariance_matched_vs_witness():
    v = _standard_density_1d()
    matched = check_pointwise_invariance(v, Ball(center=np.array([0.0]), radius=1.0))
    assert matched < 1e-3
    g = v.grid
    x = g.axis_centers(0)
    witness = Field(g, np.exp(-(x**2)))
    dev = check_pointwise_invariance(witness, Ball(center=np.array([0.0]), radius=1.0))
    assert dev > 1e-1


def test_mass_identity_cv_small_for_invariant_family():
    v = _standard_density_1d()
    centers = [np.array([c]) for c in np.linspace(-0.8, 0.8, 10)]
    assert check_mass_identity(v, centers) < 1e-3


def test_mass_identity_cv_large_for_gaussian():
    g = box_grid([-20.0], [20.0], 2048)
    x = g.axis_centers(0)
    v = Field(g, np.exp(-(x**2) / 2.0))
    centers = [np.array([c]) for c in np.linspace(-0.8, 0.8, 10)]
    assert check_mass_identity(v, centers) > 1e-1


def test_radial_derivative_identity():
    # dv/dr = -N v / rho with rho the hemi-ball radius through the point.
    v = _standard_density_2d(n=512)
    fd, pred = check_radial_derivative(v, np.array([0.7, -0.3]))
    assert abs(fd - pred) < 0.02 * abs(pred)


def test_fit_invariant_density_recovers_parameters():
    fit = fit_invariant_density(_standard_density_2d())
    assert abs(fit.alpha - 1.0) < 1e-6
    assert abs(fit.beta - 1.0) < 1e-6
    assert np.linalg.norm(fit.center) < 1e-6
    assert fit.fit_error < 1e-6
    assert not fit.mass_divergence


@pytest.mark.parametrize("dim, points, halfwidth", [(1, 2048, 20.0), (3, 32, 6.0)])
def test_fit_invariant_density_recovers_parameters_in_1d_and_3d(dim, points, halfwidth):
    g = box_grid([-halfwidth] * dim, [halfwidth] * dim, points)
    center = np.array([0.4, -0.3, 0.2][:dim])
    spec = ExtremizerSpec(alpha=2.5, beta=1.5, center=center, power=float(dim))
    fit = fit_invariant_density(Field(g, spec(g.points()).reshape(g.shape)))
    assert abs(fit.alpha - 2.5) < 1e-6
    assert abs(fit.beta - 1.5) < 1e-6
    assert np.all(np.abs(fit.center - center) < 1e-6)
    assert fit.fit_error < 1e-6
    assert not fit.mass_divergence


def test_fit_flags_concentrated_density():
    g = box_grid([-12.0] * 2, [12.0] * 2, 64)
    vals = np.zeros((64, 64))
    vals[32, 32] = 1.0
    fit = fit_invariant_density(Field(g, vals))
    assert fit.mass_divergence
