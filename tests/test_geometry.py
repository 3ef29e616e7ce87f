"""Point-level conformal maps: inversions and reflections."""

import re

import numpy as np
import pytest

from invpos.geometry import (
    Ball,
    HalfSpace,
    invert_point,
    reflect_point,
    signed_distance,
    unit_vector,
)


def test_inversion_is_an_involution():
    rng = np.random.default_rng(7)
    b = Ball(center=np.array([0.5, -1.0, 2.0]), radius=1.7)
    pts = rng.normal(size=(50, 3)) * 3.0 + b.center
    twice = invert_point(b, invert_point(b, pts))
    assert np.allclose(twice, pts, atol=1e-12)


def test_inversion_fixes_the_sphere():
    b = Ball(center=np.array([1.0, 0.0]), radius=2.0)
    angles = np.linspace(0.0, 2.0 * np.pi, 17)
    sphere = b.center + b.radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    assert np.allclose(invert_point(b, sphere), sphere, atol=1e-12)


def test_inversion_swaps_inside_and_outside():
    b = Ball(center=np.zeros(2), radius=1.0)
    outside = np.array([[3.0, 4.0]])
    image = invert_point(b, outside)
    assert np.linalg.norm(image) < 1.0
    # |x| |Theta x| = r^2 for a centered ball
    assert np.isclose(np.linalg.norm(outside) * np.linalg.norm(image), 1.0)


def test_reflection_is_an_involution_and_fixes_the_plane():
    h = HalfSpace(normal=np.array([1.0, 1.0]) / np.sqrt(2.0), offset=0.5)
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(30, 2))
    assert np.allclose(reflect_point(h, reflect_point(h, pts)), pts, atol=1e-12)
    on_plane = np.array([[0.5 * np.sqrt(2.0), 0.0], [0.0, 0.5 * np.sqrt(2.0)]])
    assert np.allclose(reflect_point(h, on_plane), on_plane, atol=1e-12)


def test_reflection_reverses_signed_distance():
    h = HalfSpace(normal=np.array([0.0, 1.0]), offset=-1.0)
    p = np.array([[2.0, 3.0]])
    q = reflect_point(h, p)
    assert np.isclose(q[0, 1] - (-1.0), -(p[0, 1] - (-1.0)))
    assert np.isclose(q[0, 0], p[0, 0])


def test_region_contains():
    b = Ball(center=np.zeros(1), radius=1.0)
    assert bool(b.contains(np.array([[0.5]]))[0])
    assert not bool(b.contains(np.array([[1.5]]))[0])
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    assert bool(h.contains(np.array([[0.5]]))[0])
    assert not bool(h.contains(np.array([[-0.5]]))[0])


def test_signed_distance_skips_the_axes_the_plane_does_not_touch():
    rng = np.random.default_rng(21)
    axes = [rng.normal(size=n).reshape((1,) * k + (n,) + (1,) * (2 - k)) for k, n in enumerate((4, 5, 6))]
    s = signed_distance(np.array([0.6, 0.0, -0.8]), 0.25, axes)
    assert s.shape == (4, 1, 6)
    assert np.array_equal(s, (axes[0] * 0.6 + axes[2] * -0.8) - 0.25)
    # The point maps use the same floats as the per-axis arrays.
    h = HalfSpace(np.array([0.6, 0.0, -0.8]), 0.25)
    pts = np.stack(np.broadcast_arrays(*axes), axis=-1)
    assert np.array_equal(h.contains(pts), np.broadcast_to(s > 0, pts.shape[:-1]))
    assert np.array_equal(reflect_point(h, pts)[..., 0], np.broadcast_to(axes[0] - 2.0 * s * 0.6, pts.shape[:-1]))


@pytest.mark.parametrize(
    "normal, dim, message",
    [
        ([0.0, 1.0], 1, "dimension 2 for points of dimension 1"),
        ([0.6, 0.8], 3, "dimension 2 for points of dimension 3"),
        ([0.0, -0.0], 2, "non-zero"),
    ],
    ids=["2-D-on-1-D", "2-D-on-3-D", "zero"],
)
def test_signed_distance_rejects_a_normal_of_another_dimension_or_zero(normal, dim, message):
    with pytest.raises(ValueError, match=message):
        signed_distance(np.array(normal), 0.0, list(np.zeros((dim, 3))))
    if any(normal):
        h = HalfSpace(np.array(normal), 0.0)
        with pytest.raises(ValueError, match=message):
            h.contains(np.zeros((3, dim)))
        with pytest.raises(ValueError, match=message):
            reflect_point(h, np.zeros((3, dim)))


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(center=np.zeros(2), radius=-1.0)


@pytest.mark.parametrize(
    "center, message",
    [
        ([np.nan], "finite coordinates"),
        ([0.0, np.inf], "finite coordinates"),
        ([1.0, 2.0, -np.inf], "finite coordinates"),
        (np.zeros(4), "1 to 3 coordinates, got 4"),
        (np.zeros(0), "1 to 3 coordinates, got 0"),
    ],
)
def test_region_rejects_a_bad_point(center, message):
    with pytest.raises(ValueError, match=message):
        Ball(center=center, radius=1.0)
    with pytest.raises(ValueError, match=message):
        HalfSpace(normal=center, offset=0.0)


@pytest.mark.parametrize("radius", [0.0, -0.0, -1.0, -np.inf, np.inf, np.nan])
def test_ball_rejects_a_radius_that_is_not_positive_and_finite(radius):
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        Ball(center=np.zeros(2), radius=radius)


def test_regions_store_the_given_floats():
    b = Ball(center=[0.1, -0.2, 0.3], radius=0.7)
    assert b.center.dtype == float and np.array_equal(b.center, [0.1, -0.2, 0.3]) and b.radius == 0.7
    assert np.array_equal(Ball(center=2.5, radius=1.0).center, [2.5])
    n = unit_vector([1.0, 2.0, 3.0])
    h = HalfSpace(normal=n, offset=1)
    assert np.array_equal(h.normal, n) and h.offset == 1.0 and isinstance(h.offset, float)


def test_halfspace_rejects_a_normal_that_is_not_a_unit_vector():
    for normal, norm in (([2.0, 0.0], 2.0), ([0.6, 0.6, 0.6], np.linalg.norm([0.6, 0.6, 0.6]))):
        with pytest.raises(ValueError, match=rf"^normal must be a unit vector, \|n\| = {re.escape(str(norm))}$"):
            HalfSpace(normal=np.array(normal), offset=0.0)
    # The tolerance is 1e-12 in |n|, decided by np.linalg.norm on both sides of it.
    HalfSpace(normal=np.array([1.0 + 0.995e-12]), offset=0.0)
    HalfSpace(normal=np.array([0.0, -(1.0 - 0.995e-12)]), offset=0.0)
    for bad in (1.0 + 1.005e-12, 1.0 - 1.005e-12):
        with pytest.raises(ValueError, match="unit vector"):
            HalfSpace(normal=np.array([bad]), offset=0.0)
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        for _ in range(200):
            HalfSpace(normal=unit_vector(rng.normal(size=dim)), offset=0.0)


def test_unit_vector_is_v_over_its_norm_at_every_scale():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3):
        for _ in range(500):
            v = rng.normal(size=dim) * 10.0 ** rng.uniform(-100, 100)
            assert np.array_equal(unit_vector(v), v / np.linalg.norm(v))
    # Where the plain norm overflows or underflows the result is unchanged.
    for big in (2.0**1000, 2.0**-1000, 2.0**-1074, 2.0**1023):
        assert np.array_equal(unit_vector([big, -big]), unit_vector([1.0, -1.0]))
    for bad in ([0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            unit_vector(bad)


def test_unit_vector_of_equal_entries_at_extreme_scales():
    # Outside (2^-500, 2^500) v is divided by its largest entry, so [c, c]
    # and [c, -c] are exactly [1, 1] and [1, -1] before normalizing.
    for c in (1e-300, 3e-300, 1e300, 2.0**-1074):
        assert np.array_equal(unit_vector([c, c]), unit_vector([1.0, 1.0]))
        assert np.array_equal(unit_vector([c, -c]), unit_vector([1.0, -1.0]))
