"""Inversion/reflection positivity: defect, exact oracle, counterexamples.

The defect of a field against a ball or half-space is
(I[f^i] + I[f^o])/2 - I[f]; it is non-negative for lambda >= N - 2 and is
checked here two ways: through the splices and through the equivalent
quadratic form I[Theta g, g] with g the inside-restricted difference
f - Theta f.  The half-space oracle evaluates the exact Fourier-Laplace
representation of I[Theta_H f, f], which is a weighted square.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gamma, gammaln

from .coverage import ball_coverage, grid_mass
from .energy import EnergyResult, apply_kernel, energy_direct, kernel_spectrum, richardson
from .fields import Field, Grid, HalfSpace, KernelParams, apply_region_map, box_grid, coarsen, split_in_out


class SearchFailureError(RuntimeError):
    """A documented witness search found nothing at the configured resolution."""


@dataclass(frozen=True)
class PositivityReport:
    defect: float
    defect_via_g: float
    oracle_value: Optional[float]
    strict_flag: bool
    est_defect: float
    est_via_g: float
    est_kind: str

    @property
    def est_error(self) -> float:
        return self.est_defect + self.est_via_g


def _defect_core(region, f: Field, kp: KernelParams) -> tuple:
    """(defect, g-form value, g-field, Theta f) of f against the region at one resolution.

    The fourth value is the conformal image Theta f, which positivity_defect
    compares with f for the strict flag.  The energies carry no estimates of
    their own: positivity_defect estimates the error of the combination
    instead.
    """
    fi, fo, theta_f, inside = split_in_out(region, f, kp)
    e_f = energy_direct(f, f, kp, estimate=False)
    e_i = energy_direct(fi, fi, kp, estimate=False)
    e_o = energy_direct(fo, fo, kp, estimate=False)
    defect = 0.5 * (e_i.value + e_o.value) - e_f.value
    g = Field(f.grid, np.where(inside, f.values - theta_f.values, 0.0))
    theta_g = apply_region_map(region, g, kp)
    e_g = energy_direct(theta_g, g, kp, estimate=False)
    return defect, e_g.value, g, theta_f


def positivity_defect(region, f: Field, kp: KernelParams) -> PositivityReport:
    """Defect of f against the region, with the internal g-form cross-check.

    est_error is a Richardson estimate of the defect itself (the whole
    quantity is recomputed on the factor-2 coarsened field): the four energy
    integrals share most of their quadrature bias, which cancels in the
    combination, so per-integral error bounds would be wildly pessimistic.
    It is the sum of its two parts, est_defect = |change of the defect| and
    est_via_g = |change of the g-form|.  On a grid too small to coarsen each
    part is guessed as a tenth of its value and est_kind says "guessed".

    strict_flag is True when f agrees with its conformal image within
    interpolation tolerance (relative p-norm 1e-3), in which case the defect
    vanishes up to quadrature error.
    """
    defect, via_g, g, theta_f = _defect_core(region, f, kp)
    try:
        defect_c, via_g_c, _, _ = _defect_core(region, coarsen(f), kp)
        est_defect, est_via_g, kind = abs(defect - defect_c), abs(via_g - via_g_c), "richardson"
    except ValueError:
        est_defect, est_via_g, kind = 0.1 * abs(defect) + 5e-13, 0.1 * abs(via_g) + 5e-13, "guessed"
    oracle = None
    if isinstance(region, HalfSpace) and f.dim == 1:
        oracle = halfspace_representation(_standardize_1d(g, region), kp)
    diff = np.abs(f.values - theta_f.values) ** kp.p
    base = np.abs(f.values) ** kp.p
    strict = diff.sum() <= (1e-3**kp.p) * base.sum()
    return PositivityReport(
        defect=defect,
        defect_via_g=via_g,
        oracle_value=oracle,
        strict_flag=bool(strict),
        est_defect=est_defect,
        est_via_g=est_via_g,
        est_kind=kind,
    )


def _standardize_1d(g: Field, region: HalfSpace) -> Field:
    """Move a 1D half-space-supported field to the canonical {s > 0} frame.

    s = e x - t maps the half-space {e x > t} onto the positive half-line;
    cell geometry is unchanged (translation plus possible flip), so energies
    against the reflected kernel are preserved exactly.
    """
    e = float(region.normal[0])
    t = region.offset
    grid = g.grid
    if e > 0:
        lo = np.asarray([grid.lo[0] - t])
        values = g.values
    else:
        lo = np.asarray([-t - grid.hi[0]])
        values = g.values[::-1]
    new_grid = Grid(lo=lo, spacing=grid.spacing, shape=grid.shape)
    return Field(new_grid, values)


# --- the representation formula of the quadratic form J ---


# Gauss-Legendre nodes per panel; the _GRADED_PANELS panels of the
# branch-cut rule shrink by _GRADING towards its endpoint.
_PANEL_NODES = 16
_GRADED_PANELS = 40
_GRADING = 0.7


@functools.lru_cache(maxsize=None)
def _legendre_rule() -> tuple:
    """The Gauss-Legendre rule of every panel, built on first use and read-only."""
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panels(edges: np.ndarray, power: float = 1.0):
    """Nodes x and weights for int x^(power - 1) q(x) dx with q smooth.

    The substitution x = w^(1/power) absorbs the power: Gauss-Legendre
    panels lie in w between consecutive ``edges``.  The panels run along the
    last axis of ``edges`` and the leading axes are kept, so a stack of panel
    sets (one per rho, say) gives a stack of rules.
    """
    x, w = _legendre_rule()
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    shape = edges.shape[:-1] + (-1,)
    return (mid + half * x).reshape(shape) ** (1.0 / power), (half * w).reshape(shape) / power


def _branch_cut_rule(xi, umax, a: float):
    """Nodes tau and weights for int_xi^inf q(tau) (tau^2 - xi^2)^((a-1)/2) dtau.

    ``a`` = 1 - N + lambda in (-1, 1).  tau = xi cosh u turns the weight into
    xi^a sinh(u)^a du on [0, umax], cut into panels graded geometrically
    towards the endpoint, where the power u^a is absorbed.  Array xi and
    umax give one rule per entry along a new last axis.
    """
    xi = np.asarray(xi, dtype=float)[..., None]
    grading = np.append(_GRADING ** np.arange(_GRADED_PANELS), 0.0)[::-1]
    u, w = _gauss_panels((np.asarray(umax, dtype=float)[..., None] * grading) ** (1.0 + a), 1.0 + a)
    return xi * np.cosh(u), w * xi**a * (np.sinh(u) / u) ** a


def _cell_laplace(left: np.ndarray, values: np.ndarray, h: float, taus: np.ndarray) -> np.ndarray:
    """F(tau) = int e^(-tau |x|) f(x) dx for the piecewise-constant interpolant, exact.

    Cell j covers [left_j, left_j + h] with value v_j, left_0 > -h and left_j =
    left_0 + j h within 1e-9 h, else ValueError.  A cell in x >= 0 gives
    v_j e^(-tau left_j) c(h), c(w) = -expm1(-tau w) / tau; a cell across 0 is folded
    onto x >= 0 by the |x| as c(left_j + h) + c(-left_j), keeping its mass.  From the
    first left_k = s >= 0 on, cell k + aB + b (B = ceil(sqrt(m)) for m cells) has
    e^(-tau left) = P[tau, a] Q[tau, b] = e^(-tau (s + aBh)) e^(-tau bh), so the sum
    is the row sum of P o (Q V^T), V[a, b] the zero-padded values: O(sqrt(m)) exponentials.
    """
    n = len(left)
    if n and np.max(np.abs(left - (left[0] + h * np.arange(n)))) > 1e-9 * h:
        raise ValueError("cells must be consecutive, of width h")

    def c(widths) -> np.ndarray:
        return -np.expm1(-np.outer(taus, widths)) / taus[:, None]

    k = np.count_nonzero(left < 0)
    lap = (c(left[:k] + h) + c(-left[:k])) @ values[:k]
    if n > k:
        b = int(np.ceil(np.sqrt(n - k)))
        v = np.pad(values[k:], (0, -(n - k) % b)).reshape(-1, b)
        p = np.exp(-np.outer(taus, left[k] + h * b * np.arange(len(v))))
        q = np.exp(-np.outer(taus, h * np.arange(b)))
        lap = lap + np.sum(p * (q @ v.T), axis=1) * c([h])[:, 0]
    return lap


def _tau_quadrature(lam: float):
    """Nodes/weights for int_0^inf tau^(lam-1) q(tau) dtau with q smooth.

    On [0, 1] the substitution tau = u^(1/lam) absorbs the power; on
    [1, 1e4] log-spaced Gauss-Legendre panels are used with the power
    folded into the weights.
    """
    u, w = _gauss_panels(np.linspace(0.0, 1.0, 24 + 1), lam)
    t, v = _gauss_panels(np.geomspace(1.0, 1e4, 30 + 1))
    return np.concatenate([u, t]), np.concatenate([w, v * t ** (lam - 1.0)])


def _c_repr(kp: KernelParams) -> float:
    n, lam = kp.dim, kp.lam
    log_c = (
        (n + 1.0 - lam) * np.log(2.0)
        + 0.5 * (n - 4.0) * np.log(np.pi)
        + gammaln((n - lam) / 2.0)
        - gammaln(lam / 2.0)
    )
    return float(np.sin(0.5 * np.pi * (n - lam)) * np.exp(log_c))


def _check_halfspace_support(f: Field) -> None:
    centers = f.grid.axis_centers(f.dim - 1)
    below = centers < 0
    if np.any(below):
        vmax = np.max(np.abs(f.values))
        idx = [slice(None)] * f.dim
        idx[f.dim - 1] = below
        if vmax > 0 and np.max(np.abs(f.values[tuple(idx)])) > 1e-14 * vmax:
            raise ValueError("field must vanish outside the closed upper half-space")


def _separate(f: Field) -> np.ndarray:
    """u of the rank-1 factorization f(x', x_N) = u(x') v(x_N), or raise."""
    n_last = f.grid.shape[-1]
    mat = f.values.reshape(-1, n_last)
    u_mat, s, vt = np.linalg.svd(mat, full_matrices=False)
    if len(s) > 1 and s[1] > 1e-10 * max(s[0], 1e-300):
        raise ValueError("representation oracle for N >= 2 needs separable f(x') v(x_N)")
    u = u_mat[:, 0] * s[0]
    if np.sum(vt[0]) < 0:
        u = -u
    # Radial-in-x' check: equal values at equal primed radius.  A run of
    # sorted radii, each within 1e-9 of the one before, counts as one radius.
    mesh = np.meshgrid(*[f.grid.axis_centers(k) for k in range(f.dim - 1)], indexing="ij")
    r = np.sqrt(sum(m * m for m in mesh)).ravel()
    order = np.argsort(r)
    r_sorted, u_sorted = r[order], u[order]
    starts = np.flatnonzero(np.diff(r_sorted, prepend=-np.inf) >= 1e-9)
    spread = np.maximum.reduceat(u_sorted, starts) - np.minimum.reduceat(u_sorted, starts)
    if np.any(spread > 1e-8 * (np.max(np.abs(u)) + 1e-300)):
        raise ValueError("representation oracle for N >= 2 needs u radial in x'")
    return u


def halfspace_representation(f: Field, kp: KernelParams) -> float:
    """Exact representation of I_lambda[Theta_H f, f] for f supported in x_N >= 0.

    Returns a manifestly non-negative weighted square over Fourier-Laplace
    variables.  N = 1 handles any field; N = 2, 3 require separable
    (radial-in-x') inputs.
    """
    _check_halfspace_support(f)
    h = f.grid.spacing
    if kp.dim == 1:
        x = f.grid.axis_centers(0)
        keep = x > 0
        taus, ws = _tau_quadrature(kp.lam)
        lap = _cell_laplace(x[keep] - 0.5 * h, f.values[keep], h, taus)
        return float(ws @ lap**2 / gamma(kp.lam))
    u = _separate(f)
    xn = f.grid.axis_centers(f.dim - 1)
    keep = xn > 0
    # Recover v from the factorization: values = outer(u, v).
    mat = f.values.reshape(-1, f.grid.shape[-1])
    ref = int(np.argmax(np.abs(u)))
    v_vals = mat[ref] / u[ref]

    # Dense tabulation of the v-profile Laplace transform, interpolated on a
    # log-tau axis inside the outer integrals.
    tau_cap = 2e3
    tau_dense = np.geomspace(1e-6, tau_cap, 3000)
    lap_dense = _cell_laplace(xn[keep] - 0.5 * h, v_vals[keep], h, tau_dense)

    def lap(taus: np.ndarray) -> np.ndarray:
        return np.interp(np.log(np.clip(taus, tau_dense[0], tau_dense[-1])), np.log(tau_dense), lap_dense)

    def u_hat(rhos: np.ndarray) -> np.ndarray:
        cell = h ** (f.dim - 1)
        mesh = np.meshgrid(*[f.grid.axis_centers(k) for k in range(f.dim - 1)], indexing="ij")
        first = mesh[0].ravel()
        phase = np.cos(np.outer(rhos, first))
        return (2.0 * np.pi) ** (-(f.dim - 1) / 2.0) * cell * (phase @ u)

    rho_max = np.pi / h
    # The rho integrand behaves like rho^(p - 1), p = min(lambda, N - 1),
    # near 0, so panels are log-spaced down to 1e-8 and the last panel, which
    # reaches 0, absorbs the power.
    p = min(kp.lam, kp.dim - 1.0)
    rhos, rws = _gauss_panels(np.append(0.0, np.geomspace(1e-8, rho_max, 40 + 1)) ** p, p)
    rws = rws * rhos ** (1.0 - p)
    uh = u_hat(rhos)
    omega = 2.0 if kp.dim == 2 else 2.0 * np.pi

    if kp.dim >= 3 and abs(kp.lam - (kp.dim - 2)) < 1e-12:
        integrand = rhos ** (kp.dim - 3) * uh**2 * lap(rhos) ** 2
        pref = 4.0 * np.pi ** ((kp.dim - 2) / 2.0) / gamma((kp.dim - 2) / 2.0)
        return float(pref * (np.pi / 2.0) * omega * (rws @ integrand))

    a = 1.0 - kp.dim + kp.lam
    taus, ws = _branch_cut_rule(rhos, np.arccosh(np.maximum(2.0, tau_cap / rhos)), a)
    inner = np.sum(ws * lap(taus) ** 2, axis=-1)
    integrand = rhos ** (kp.dim - 2) * uh**2 * inner
    return float(_c_repr(kp) * (np.pi / 2.0) * omega * (rws @ integrand))


# --- reflected-kernel energy over the standard half-space {x_N > 0} ---


def reflected_energy(f: Field, g: Field, kp: KernelParams, estimate: bool = True) -> EnergyResult:
    """I_lambda[Theta_H f, g] for fields supported in {x_N > 0}, H standard.

    The kernel depends on x' - y' and x_N + y_N, so the pair sum is a
    convolution after reversing the last axis of f.  ``estimate=False``
    skips the Richardson estimate (est_error is then NaN).
    """
    if f.grid != g.grid:
        raise ValueError("fields must share a grid")
    if f.grid.lo[-1] < -1e-12:
        _check_halfspace_support(f)
        _check_halfspace_support(g)

    def compute(ff: Field, gg: Field) -> float:
        grid = ff.grid
        spectrum = kernel_spectrum(grid.shape, grid.spacing, kp.lam, float(grid.lo[-1]))
        conv = apply_kernel(np.flip(ff.values, axis=-1), spectrum)
        return float(np.sum(gg.values * conv)) * grid.spacing ** (2 * ff.dim)

    return richardson("direct", compute, f, g, estimate=estimate)


# --- the paper's two boundary examples ---


@dataclass(frozen=True)
class NewtonZeroResult:
    field: Field
    overlap: float
    est_error: float
    est_kind: str
    self_energy: float
    self_est_error: float


def newton_zero_overlap(kp: KernelParams, points_per_axis: int = 40) -> NewtonZeroResult:
    """Radial zero-mean field above the plane with vanishing reflected overlap.

    Difference of two mass-normalized ball indicators (radii 0.5 and 1)
    centered at (0, 0, 2); by Newton's theorem its potential vanishes on the
    reflected support, so I_(N-2)[Theta_H f, f] = 0 exactly in the continuum.
    """
    if kp.dim != 3 or abs(kp.lam - 1.0) > 1e-12:
        raise ValueError("the Newton example needs N = 3, lambda = N - 2 = 1")
    a = np.array([0.0, 0.0, 2.0])
    grid = box_grid([-1.25, -1.25, 0.75], [1.25, 1.25, 3.25], points_per_axis)
    cov_in = ball_coverage(grid, a, 0.5)
    cov_out = ball_coverage(grid, a, 1.0)
    vals = cov_in / grid_mass(grid, cov_in) - cov_out / grid_mass(grid, cov_out)
    f = Field(grid, vals)
    overlap = reflected_energy(f, f, kp)
    self_e = energy_direct(f, f, kp)
    return NewtonZeroResult(
        field=f,
        overlap=overlap.value,
        est_error=overlap.est_error,
        est_kind=overlap.est_kind,
        self_energy=self_e.value,
        self_est_error=self_e.est_error,
    )


@dataclass(frozen=True)
class DefectWitnesses:
    negative_field: Field
    negative_defect: float
    positive_field: Field
    positive_defect: float
    est_error: float
    est_kind: str


def find_negative_defect(kp: KernelParams, points_per_axis: int = 128) -> DefectWitnesses:
    """Search for sign-indefinite half-space defects when lambda < N - 2.

    Scans a fixed documented family of transversely modulated Gaussian
    bumps on the x_N axis and returns one witness of each sign beyond
    3 est_error, or raises SearchFailureError.
    """
    if kp.dim != 3 or kp.lam > kp.dim - 2 + 1e-12:
        raise ValueError("counterexample search needs N = 3 and lambda <= N - 2")
    # Sign-indefiniteness needs transverse oscillation: the quadratic form
    # restricted to e^(i xi' x') phi(x_N) profiles has the kernel
    # k_(lambda, xi'), which for lambda < N - 2 is not the Laplace
    # transform of a one-signed measure.  Plain positive bumps on the axis
    # concentrate their spectrum at xi' = 0 and never see the effect.
    heights = [0.2, 0.5, 0.8, 1.16, 1.5]
    width = 0.2
    modulation = 0.5
    envelope = 4.0
    n = points_per_axis
    grid = Grid(lo=np.asarray([-8.0, -8.0, 0.0]), spacing=16.0 / n, shape=(n, n, n // 8))
    pts = grid.points()
    transverse = (
        np.cos(modulation * pts[:, 0]) * np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2) / envelope**2)
    ).reshape(grid.shape)
    cands = [
        Field(grid, transverse * np.exp(-((pts[:, 2] - t) ** 2) / (2.0 * width**2)).reshape(grid.shape))
        for t in heights
    ]
    m = len(cands)
    gram = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            res = reflected_energy(cands[i], cands[j], kp, estimate=False)
            gram[i, j] = gram[j, i] = res.value
    # The most negative direction of the family's quadratic form; the
    # assembled witness is re-evaluated whole, so its error estimate sees
    # the strongly correlated discretization errors of the Gram entries
    # cancel instead of summing a worst-case triangle bound.
    _, evecs = np.linalg.eigh(gram)
    coeffs = evecs[:, 0] / np.max(np.abs(evecs[:, 0]))
    neg_field = Field(grid, sum(c * f.values for c, f in zip(coeffs, cands)))
    neg = reflected_energy(neg_field, neg_field, kp)
    if neg.value >= -3.0 * neg.est_error:
        raise SearchFailureError(
            f"no negative-defect witness beyond 3 est_error on the {grid.shape_text} grid; "
            f"best candidate defect {neg.value:.3e} vs est {neg.est_error:.3e}"
        )
    # Any single bump has a strictly positive reflected overlap.
    k = int(np.argmax(np.diag(gram)))
    pos = reflected_energy(cands[k], cands[k], kp)
    if pos.value <= 3.0 * pos.est_error:
        raise SearchFailureError(f"no positive-defect witness beyond 3 est_error on the {grid.shape_text} grid")
    return DefectWitnesses(
        negative_field=neg_field,
        negative_defect=neg.value,
        positive_field=cands[k],
        positive_defect=pos.value,
        est_error=max(neg.est_error, pos.est_error),
        est_kind="guessed" if "guessed" in (neg.est_kind, pos.est_kind) else "richardson",
    )
