"""Balls, half-spaces and the two conformal point maps.

Points are plain numpy arrays of length N (N = 1, 2 or 3).  All maps are
involutions and act on single points or on stacked arrays of shape (..., N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 3

# Relative distance below which a point counts as the inversion center.
CENTER_CUTOFF = 1e-14


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    if not (1 <= x.shape[-1] <= MAX_DIM):
        raise ValueError(f"points must have 1 to {MAX_DIM} coordinates, got {x.shape[-1]}")
    # A single point of at most MAX_DIM coordinates is checked with scalar
    # calls: regions are built at every step of the half-mass searches.
    if not (all(map(math.isfinite, x.tolist())) if x.ndim == 1 else np.all(np.isfinite(x))):
        raise ValueError("points must have finite coordinates")
    return x


def unit_vector(v) -> np.ndarray:
    """v / |v| for a non-zero finite vector, with no overflow or underflow.

    Where the largest entry lies in (2^-500, 2^500) no square overflows or
    underflows, and the result is v / |v| itself.  Outside that range v is
    first divided by its largest entry, so that [c, c] becomes exactly
    [1, 1] and names the same unit vector for every c.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    top = float(np.max(np.abs(v)))
    if not (top > 0 and np.isfinite(top)):
        raise ValueError("cannot normalize a zero or non-finite vector")
    if not 2.0**-500 < top < 2.0**500:
        v = v / top
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class Ball:
    """Open ball |x - center| < radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_points(self.center).reshape(-1))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, x) -> np.ndarray:
        x = _as_points(x)
        return np.linalg.norm(x - self.center, axis=-1) < self.radius


@dataclass(frozen=True)
class HalfSpace:
    """Open half-space x . normal > offset, with unit interior normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = _as_points(self.normal).reshape(-1)
        # The plain sum of squares differs from the norm below by a few ulps,
        # so a normal it puts well inside the tolerance is a unit vector; any
        # other takes np.linalg.norm, which decides and is reported.
        if not abs(math.sqrt(sum(v * v for v in n.tolist())) - 1.0) <= 0.99e-12:
            norm = np.linalg.norm(n)
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"normal must be a unit vector, |n| = {norm}")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def contains(self, x) -> np.ndarray:
        x = _as_points(x)
        return signed_distance(self.normal, self.offset, np.moveaxis(x, -1, 0)) > 0


def invert_point(b: Ball, x) -> np.ndarray:
    """Inversion through the sphere bounding ``b``.

    x |-> center + r^2 (x - center) / |x - center|^2.  Points within
    CENTER_CUTOFF * r of the center and an r^2 that overflows raise ValueError.
    """
    x = _as_points(x)
    d = x - b.center
    return b.center + inversion_factor(b, np.sum(d * d, axis=-1))[..., None] * d


def inversion_factor(b: Ball, dist2) -> np.ndarray:
    """r^2 / dist2, the factor by which inversion in ``b`` scales x - center.

    ``dist2`` holds squared distances from the center.  An r^2 that
    overflows and a distance below CENTER_CUTOFF * r raise ValueError.
    """
    if not math.isfinite(float(b.radius) * float(b.radius)):
        raise ValueError(f"inversion radius {b.radius:.6g} squared overflows")
    if np.any(dist2 < (CENTER_CUTOFF * b.radius) ** 2):
        raise ValueError("inversion undefined at the ball center")
    return b.radius**2 / dist2


def signed_distance(normal, offset: float, coords):
    """x . normal - offset of the points whose axis-k coordinates are ``coords[k]``.

    The products x_k n_k are summed in axis order, skipping every axis where
    n_k = 0, which would add only exact zeros.  The coordinate arrays
    broadcast together: on a grid's open per-axis arrays the result keeps
    size 1 on every axis the plane does not touch.  Every half-space routine
    takes its sides, distances and mirrors from here, so they all see the
    same floats.  A normal whose length is not the number of coordinates,
    or that is zero, raises ValueError.
    """
    normal = np.atleast_1d(normal)
    if normal.shape != (len(coords),):
        raise ValueError(f"a normal of dimension {normal.size} for points of dimension {len(coords)}")
    s = None
    for x, n in zip(coords, normal.tolist()):
        if n != 0:
            s = x * n if s is None else s + x * n
    if s is None:
        raise ValueError("a half-space normal must be non-zero")
    return s - offset


def reflect_point(h: HalfSpace, x) -> np.ndarray:
    """Reflection through the boundary hyperplane of ``h``: x - 2 s n with s = ``signed_distance``."""
    x = _as_points(x)
    s = signed_distance(h.normal, h.offset, np.moveaxis(x, -1, 0))
    return x - (2.0 * s)[..., None] * h.normal

