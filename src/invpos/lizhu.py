"""Hemi-balls of measures and the characterization of inversion-invariant ones.

A Measure is a non-negative grid density.  The module constructs hemi-balls
on rays, solves for balls mapping one axis point to another, and runs the
four numerical checks whose joint success is the signature of the invariant
family alpha (beta + |x - y|^2)^(-N).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coverage import BracketingError, bisect_increasing, density_mass, half_mass_radius
from .fields import Ball, ExtremizerSpec, Field, HalfSpace, eval_field, fit_family
from .geometry import invert_point, unit_vector


@dataclass(frozen=True)
class Measure:
    """Finite non-negative measure given by a grid density."""

    density: Field

    def __post_init__(self):
        if np.any(self.density.values < 0):
            raise ValueError("density must be non-negative")
        if not self.total_mass > 0:
            raise ValueError("measure must have positive total mass")

    @functools.cached_property
    def total_mass(self) -> float:
        # Computed once, since every hemi-ball search reads it.
        return density_mass(self.density)

    def mass_in_ball(self, ball: Ball) -> float:
        return density_mass(self.density, ball)

    def mass_in_halfspace(self, hs: HalfSpace) -> float:
        return density_mass(self.density, hs)


@dataclass(frozen=True)
class HemiBallResult:
    center: np.ndarray
    radius: float
    mass_imbalance: float


def _half_mass_ball_on_ray(m: Measure, e: np.ndarray, u: float) -> HemiBallResult:
    """Half-mass search over rho on the monotone map rho -> mu(B_rho((u - rho) e))."""
    total = m.total_mass

    # Cached, so the imbalance at the returned rho is not weighed again.
    @functools.lru_cache(maxsize=None)
    def excess(rho: float) -> float:
        return m.mass_in_ball(Ball(center=(u - rho) * e, radius=rho)) - 0.5 * total

    hi = max(u, 1.0)
    rho = bisect_increasing(excess, 1e-12, hi, 1e-9 * total, max_hi=hi * 2.0**60)
    return HemiBallResult(center=(u - rho) * e, radius=rho, mass_imbalance=excess(rho))


def _share_above_plane(m: Measure, e: np.ndarray) -> float:
    """Share of the mass in {x . e > 0}; m balances the plane when it is within 1.01e-4 of 1/2."""
    return m.mass_in_halfspace(HalfSpace(normal=e, offset=0.0)) / m.total_mass


def hemiball_on_ray(m: Measure, e, u: float) -> HemiBallResult:
    """Hemi-ball through u e with center on the e-axis.

    Requires the measure to balance the plane {x . e = 0} (the symmetrized
    setting in which the center stays on the axis).
    """
    e = unit_vector(e)
    if u <= 0:
        raise ValueError("u must be positive")
    if abs(_share_above_plane(m, e) - 0.5) > 1.01e-4:
        raise ValueError("measure must bisect the plane through the origin normal to e")
    res = _half_mass_ball_on_ray(m, e, u)
    if abs(res.mass_imbalance) > 1e-6 * m.total_mass:
        raise BracketingError("half-mass bisection did not converge")
    return res


def solve_mapping_ball(m: Measure, e, s: float, t: float) -> HemiBallResult:
    """Hemi-ball B with center on the e-axis and Theta_B(s e) = t e.

    Root of f(u) = |t e - a_u| |s e - a_u| - rho_u^2 over u in (s, t], found
    by ``coverage.bisect_increasing`` on -f.  At u = s the hemi-ball is
    B(s - rho, rho), so f(s) = rho (t - s) > 0; f(t) <= 0 exactly when s
    lies in the hemi-ball through t, which holds for a measure that balances
    the plane {x . e = 0}.
    BracketingError names the share of the mass above an unbalanced plane,
    or end values that do not bracket a root.
    """
    e = unit_vector(e)
    if not (0 <= s < t):
        raise ValueError("need 0 <= s < t")
    share = _share_above_plane(m, e)
    if abs(share - 0.5) > 1.01e-4:
        raise BracketingError(f"measure does not balance the plane normal to e: {share:.6g} of its mass lies above it")

    # Cached: the search evaluates t again after the sign check, and the
    # ball at its root is one it has already found.
    ball_at = functools.lru_cache(maxsize=None)(lambda u: _half_mass_ball_on_ray(m, e, u))

    def neg_f(u: float) -> float:
        res = ball_at(u)
        a = u - res.radius
        return res.radius**2 - abs(t - a) * abs(s - a)

    u_lo = s if s > 0 else 1e-3 * t
    f_lo, f_hi = -neg_f(u_lo), -neg_f(t)
    if not f_lo > 0 >= f_hi:
        raise BracketingError(f"f(u) does not change sign on [{u_lo:.6g}, {t:.6g}]: f = {f_lo:.6g} and {f_hi:.6g}")
    return ball_at(bisect_increasing(neg_f, u_lo, t, 1e-12 * max(1.0, t * t)))


def check_pointwise_invariance(v: Field, b: Ball) -> float:
    """Max relative deviation of v from its inversion image with weight 2N.

    Samples with both endpoints of the inversion inside the grid box are
    compared; near 0 exactly when the density is invariant under the ball.
    """
    if np.any(v.values < 0):
        raise ValueError("density must be non-negative")
    g = v.grid
    pts = g.points()
    d = np.linalg.norm(pts - b.center, axis=-1)
    ok = d > g.spacing
    mapped = np.full_like(pts, np.nan)
    mapped[ok] = invert_point(b, pts[ok])
    in_box = ok & np.all((mapped >= g.lo) & (mapped <= g.hi), axis=-1)
    vx = v.values.ravel()[in_box]
    weight = (b.radius / d[in_box]) ** (2 * g.dim)
    vmapped = eval_field(v, mapped[in_box])
    floor = 1e-12 * float(v.values.max())
    dev = np.abs(vx - weight * vmapped) / np.maximum(vx, floor)
    return float(dev.max())


def check_mass_identity(v: Field, centers) -> float:
    """Coefficient of variation of r_a^(2N) v(a) over the given centers.

    r_a is the radius of the hemi-ball of the density centered at a (found
    by ``coverage.half_mass_radius``); near 0 for the invariant family.
    """
    total = Measure(density=v).total_mass
    vals = []
    for a in centers:
        a = np.atleast_1d(np.asarray(a, dtype=float))
        r_a = half_mass_radius(v, a, total)
        va = float(eval_field(v, a))
        vals.append(r_a ** (2 * v.dim) * va)
    vals = np.asarray(vals)
    if len(vals) < 2:
        return 0.0
    return float(np.std(vals) / np.mean(vals))


def check_radial_derivative(v: Field, x) -> tuple:
    """(finite-difference radial derivative, -N v(x) / rho) at x.

    rho is the radius of the hemi-ball through x with center on the ray; the
    two sides agree for the invariant family (Step-5 geometry).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    if r == 0:
        raise ValueError("x must be away from the origin")
    e = x / r
    g = v.grid
    h = g.spacing
    x_plus = (r + h) * e
    x_minus = (r - h) * e
    if np.any(x_plus > g.hi) or np.any(x_minus < g.lo) or np.any(x_plus < g.lo) or np.any(x_minus > g.hi):
        raise ValueError("finite-difference stencil leaves the grid")
    lhs = float((eval_field(v, x_plus) - eval_field(v, x_minus)) / (2.0 * h))
    m = Measure(density=v)
    ball = hemiball_on_ray(m, e, r)
    rho = ball.radius
    rhs = float(-v.dim * eval_field(v, x) / rho)
    return lhs, rhs


@dataclass(frozen=True)
class InvariantDensityFit:
    alpha: float
    beta: float
    center: np.ndarray
    fit_error: float
    mass_divergence: bool


def fit_invariant_density(v: Field) -> InvariantDensityFit:
    """Least-squares fit of alpha (beta + |x - y|^2)^(-N) to a density.

    fit_error is the relative L1 residual; mass_divergence flags densities
    whose mass concentrates in a near-singular cell (non-integrable spike),
    for which the finite-measure hypothesis fails.
    """
    if np.any(v.values < 0):
        raise ValueError("density must be non-negative")
    g = v.grid
    n = g.dim
    pts = g.points()
    vals = v.values.ravel()
    total = vals.sum() * g.cell_volume()
    if total <= 0:
        raise ValueError("density must have positive mass")
    peak_frac = float(vals.max()) * g.cell_volume() / total
    diverges = peak_frac > 0.05
    center0 = (vals @ pts) / vals.sum()
    beta0 = max(half_mass_radius(v, center0, total), 1e-6) ** 2
    alpha0 = max(float(vals.max()), 1e-300) * beta0**n
    alpha, beta, center = fit_family(vals, g, n, alpha0, beta0, center0)
    if not np.isfinite(alpha) or not np.isfinite(beta):
        raise RuntimeError("degenerate invariant-density fit")
    model = ExtremizerSpec(alpha, beta, center, n)(pts)
    err = float(np.sum(np.abs(model - vals)) / np.sum(np.abs(vals)))
    return InvariantDensityFit(alpha=alpha, beta=beta, center=center, fit_error=err, mass_divergence=diverges)
