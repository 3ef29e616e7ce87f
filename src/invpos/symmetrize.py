"""Iterative inversion/reflection symmetrization toward the extremizer family.

Each step bisects the |f|^p mass with a ball or half-space, splices f with
its conformal image both ways, and keeps the splice with the larger Rayleigh
quotient.  The sweep schedule is deterministic (coordinate axes plus
centroid-offset balls); a seeded random schedule is available via config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .coverage import BracketingError, bisect_increasing, density_mass, half_mass_radius
from .energy import EnergyResult, energy_direct
from .fields import Ball, ExtremizerSpec, Field, HalfSpace, KernelParams, fit_family, lp_norm, split_in_out
from .geometry import unit_vector


def _lp_density(f: Field, kp: KernelParams) -> tuple:
    """|f|^p as a density Field, with its analytic 1-D tail, and its total mass."""
    tail = None
    if f.tail is not None and f.dim == 1:
        # |f|^p of an extremizer tail is again a family member, with power N.
        t = f.tail
        tail = ExtremizerSpec(alpha=abs(t.alpha) ** kp.p, beta=t.beta, center=t.center, power=kp.p * t.power)
    dens = Field(f.grid, np.abs(f.values) ** kp.p, tail=tail)
    total = density_mass(dens)
    if total <= 0:
        raise ValueError("zero field has no half-mass region")
    return dens, total


def hemiball_radius(f: Field, kp: KernelParams, a) -> float:
    """Radius r with int_{B_r(a)} |f|^p = half the total |f|^p mass.

    The half-mass search (``coverage.half_mass_radius``) on the monotone
    coverage-weighted mass profile: it stops once the imbalance is below
    1e-9 of the total mass or the radius bracket is narrower than
    1e-14 max(1, r), after at most 120 steps.
    """
    dens, total = _lp_density(f, kp)
    return half_mass_radius(dens, a, total)


def hemispace_offset(f: Field, kp: KernelParams, e) -> float:
    """Offset t with int_{x.e > t} |f|^p = half the total |f|^p mass."""
    e = unit_vector(e)
    dens, total = _lp_density(f, kp)

    def excess(t: float) -> float:
        # Half the total minus the mass above t, which increases with t.
        return 0.5 * total - density_mass(dens, HalfSpace(e, t))

    h = f.grid.spacing
    proj = f.grid.points() @ e
    lo, hi = float(proj.min()) - h, float(proj.max()) + h
    # Every cell centre lies at least h below the plane at hi, so no cell is
    # covered there and the excess is exactly half the total, unless a 1-D
    # tail puts mass beyond hi or the coordinates are so large against h
    # that the rounding of a projection nears a tenth of a cell.
    known = dens.tail is None and max(abs(lo), abs(hi)) < 2.0**40 * h
    return bisect_increasing(excess, lo, hi, 1e-9 * total, f_hi=0.5 * total if known else None)


@dataclass(frozen=True)
class StepRecord:
    region: object
    quotient_before: float
    quotient_after: float
    choice: str  # "i", "o", or "none"
    est_error: float
    # Energy and squared p-norm of the field the step kept, for the next step.
    energy: Optional[EnergyResult] = None
    norm2: Optional[float] = None


def symmetrization_step(
    f: Field, kp: KernelParams, region, energy: Optional[EnergyResult] = None, norm2: Optional[float] = None
) -> tuple:
    """Replace f by the better of the two splices against the region.

    ``energy`` (``energy_direct(f, f, kp)``) and ``norm2`` (the squared
    p-norm of f) are computed unless the caller has them; the returned
    record holds the same two numbers for the field the step keeps, so a
    sequence of steps passes them on instead of evaluating them again.
    """
    fi, fo, _, _ = split_in_out(region, f, kp)
    e_f = energy_direct(f, f, kp) if energy is None else energy
    e_i = energy_direct(fi, fi, kp)
    e_o = energy_direct(fo, fo, kp)
    n_f = lp_norm(f, kp.p) ** 2 if norm2 is None else norm2
    n_i, n_o = (lp_norm(g, kp.p) ** 2 for g in (fi, fo))
    q_f = e_f.value / n_f
    # A splice with zero p-norm is not a candidate.
    q_i = e_i.value / n_i if n_i > 0 else -np.inf
    q_o = e_o.value / n_o if n_o > 0 else -np.inf
    est = (e_f.est_error + max(e_i.est_error, e_o.est_error)) / n_f
    if max(q_i, q_o) <= q_f:
        return f, StepRecord(region, q_f, q_f, "none", est, e_f, n_f)
    if q_i >= q_o:
        return fi, StepRecord(region, q_f, q_i, "i", est, e_i, n_i)
    return fo, StepRecord(region, q_f, q_o, "o", est, e_o, n_o)


@dataclass(frozen=True)
class ExtremizerFit:
    alpha: float
    beta: float
    center: np.ndarray
    fit_error: float


# Regions drawn per sweep by the seeded random schedule.
_STEPS_PER_RANDOM_SWEEP = 4


@dataclass
class SymmetrizationConfig:
    max_sweeps: int = 50
    tol_stop: float = 1e-5
    seed: Optional[int] = None  # if set, random sweep directions/centers


@dataclass
class SymmetrizationTrace:
    steps: List[StepRecord] = field(default_factory=list)
    final_fit: Optional[ExtremizerFit] = None
    converged: bool = False
    final_field: Optional[Field] = None


def _centroid(f: Field, kp: KernelParams) -> np.ndarray:
    """Centroid of |f|^p over the grid cells."""
    dens = (np.abs(f.values) ** kp.p).ravel()
    pts = f.grid.points()
    return (dens @ pts) / dens.sum()


def fit_extremizer(f: Field, kp: KernelParams) -> ExtremizerFit:
    """Nonlinear least-squares fit of the extremizer family to f.

    Initialized from the |f|^p centroid and half-mass radius; the fit error
    is the relative L^p residual.
    """
    y0 = _centroid(f, kp)
    r_half = hemiball_radius(f, kp, y0)
    # For the model, |f|^p is proportional to (beta + d^2)^(-N); the unit
    # sphere exchanges ball and complement of (1 + |x|^2)^(-N) with equal
    # mass, so the half-mass radius is sqrt(beta).
    beta0 = max(r_half, 1e-3) ** 2
    power = kp.lift_power / 2.0
    alpha0 = float(np.max(f.values)) * beta0**power
    pts = f.grid.points()
    alpha, beta, center = fit_family(f.values, f.grid, power, max(alpha0, 1e-12), beta0, y0)
    model = Field(f.grid, ExtremizerSpec(alpha, beta, center, power)(pts).reshape(f.grid.shape))
    diff = Field(f.grid, model.values - f.values)
    err = lp_norm(diff, kp.p) / lp_norm(f, kp.p)
    return ExtremizerFit(alpha=alpha, beta=beta, center=center, fit_error=float(err))


def run_symmetrization(f0: Field, kp: KernelParams, config: Optional[SymmetrizationConfig] = None) -> SymmetrizationTrace:
    """Sweep hemi-space and hemi-ball steps until the quotient stalls.

    Convergence is empirical; a stalled or max_sweeps run is reported in the
    trace, not raised.
    """
    if np.any(f0.values < 0):
        raise ValueError("symmetrization requires f0 >= 0")
    if lp_norm(f0, kp.p) == 0:
        raise ValueError("symmetrization requires a non-trivial field")
    cfg = config or SymmetrizationConfig()
    rng = np.random.default_rng(cfg.seed) if cfg.seed is not None else None
    trace = SymmetrizationTrace()
    f = f0
    dim = f0.dim
    h = f0.grid.spacing
    last_q = None
    energy = norm2 = None
    for _ in range(cfg.max_sweeps):
        regions = []
        if rng is None:
            for k in range(dim):
                e = np.zeros(dim)
                e[k] = 1.0
                regions.append(("space", e))
            c = _centroid(f, kp)
            centers = [c]
            for k in range(dim):
                off = np.zeros(dim)
                off[k] = h
                centers.extend([c + off, c - off])
            for a in centers:
                regions.append(("ball", a))
        else:
            for _ in range(_STEPS_PER_RANDOM_SWEEP):
                if rng.random() < 0.5:
                    regions.append(("space", unit_vector(rng.normal(size=dim))))
                else:
                    c = _centroid(f, kp) + rng.normal(scale=2 * h, size=dim)
                    regions.append(("ball", c))
        sweep_start_q = None
        for kind, param in regions:
            if kind == "space":
                t = hemispace_offset(f, kp, param)
                region = HalfSpace(param, t)
            else:
                try:
                    r = hemiball_radius(f, kp, param)
                except BracketingError:
                    continue
                region = Ball(param, r)
            f, rec = symmetrization_step(f, kp, region, energy, norm2)
            energy, norm2 = rec.energy, rec.norm2
            trace.steps.append(rec)
            if sweep_start_q is None:
                sweep_start_q = rec.quotient_before
            last_q = rec.quotient_after
        if sweep_start_q is not None and last_q is not None:
            gain = (last_q - sweep_start_q) / max(abs(sweep_start_q), 1e-300)
            if gain < cfg.tol_stop:
                trace.converged = True
                break
    trace.final_field = f
    trace.final_fit = fit_extremizer(f, kp)
    return trace
