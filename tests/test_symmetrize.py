"""Mass bisection, the replace-by-better-half step, and the sweep optimizer."""

import numpy as np
import pytest

from invpos import coverage, symmetrize
from invpos.coverage import box_coverage
from invpos.energy import energy_direct, gaussian_field, rayleigh_quotient, sharp_constant
from invpos.fields import (
    Field,
    Grid,
    KernelParams,
    box_grid,
    extremizer_spec,
    lp_norm,
    make_extremizer,
)
from invpos.geometry import Ball, HalfSpace
from invpos.symmetrize import (
    BracketingError,
    SymmetrizationConfig,
    fit_extremizer,
    hemiball_radius,
    hemispace_offset,
    run_symmetrization,
    symmetrization_step,
)

KP = KernelParams(dim=1, lam=0.5)


def _extremizer_field(n=2048, halfwidth=20.0, beta=1.0, center=0.0):
    g = box_grid([-halfwidth], [halfwidth], n)
    return make_extremizer(
        extremizer_spec(KP, beta=beta, center=np.array([center])), KP, g
    )


def test_hemiball_radius_closed_forms():
    # |f|^p = (1+x^2)^(-1): half mass in [-r, r] gives r = 1; the ball at
    # a = 1 with half mass has radius sqrt(2) (arctan addition).
    f = _extremizer_field()
    assert abs(hemiball_radius(f, KP, np.array([0.0])) - 1.0) < 1e-4
    assert abs(hemiball_radius(f, KP, np.array([1.0])) - np.sqrt(2.0)) < 1e-4


def test_hemiball_radius_shifts_with_the_field():
    f = _extremizer_field(center=0.5)
    assert abs(hemiball_radius(f, KP, np.array([0.5])) - 1.0) < 1e-4


def test_hemispace_offset_at_the_median():
    f = _extremizer_field()
    assert abs(hemispace_offset(f, KP, np.array([1.0]))) < 1e-4
    f2 = _extremizer_field(center=0.7)
    assert abs(hemispace_offset(f2, KP, np.array([1.0])) - 0.7) < 1e-4


def test_hemi_regions_reach_into_the_tail():
    # The ball B_r(3) holds half of (1 + x^2)^(-1) at r = sqrt(10), which
    # leaves the [-4, 4] grid; {-x > t} holds half at t = -center.
    f = _extremizer_field(n=512, halfwidth=4.0)
    assert abs(hemiball_radius(f, KP, np.array([3.0])) - np.sqrt(10.0)) < 5e-5
    f2 = _extremizer_field(center=0.7)
    assert abs(hemispace_offset(f2, KP, np.array([-1.0])) + 0.7) < 5e-5


def test_hemiball_bracketing_failure_on_tiny_grid():
    g = box_grid([-0.1], [0.1], 16)
    x = g.axis_centers(0)
    f = Field(g, np.ones(16))
    # All mass inside the box; a ball centered far away cannot be bracketed.
    with pytest.raises(BracketingError):
        hemiball_radius(f, KP, np.array([1e9]))


def test_step_never_decreases_the_quotient():
    g = box_grid([-20.0], [20.0], 1024)
    x = g.axis_centers(0)
    f = Field(g, np.where(np.abs(x) <= 1.0, 1.0, 0.0))
    h = HalfSpace(normal=np.array([1.0]), offset=0.3)
    new_f, rec = symmetrization_step(f, KP, h)
    assert rec.quotient_after >= rec.quotient_before - 2.0 * rec.est_error
    b = Ball(center=np.array([0.1]), radius=0.8)
    new_f2, rec2 = symmetrization_step(new_f, KP, b)
    assert rec2.quotient_after >= rec2.quotient_before - 2.0 * rec2.est_error


def test_step_fixes_an_invariant_field():
    # A symmetric field is already reflection-invariant across its median
    # plane: the step must not change the quotient materially.
    g = box_grid([-20.0], [20.0], 1024)
    f = gaussian_field(g, [0.0], 1.0)
    h = HalfSpace(normal=np.array([1.0]), offset=0.0)
    _, rec = symmetrization_step(f, KP, h)
    assert rec.quotient_after - rec.quotient_before <= 2.0 * rec.est_error


def test_step_skips_a_splice_with_zero_norm():
    # f is one half-covered cell at the grid's edge and the ball is centered
    # on it: f^o takes the image inside the ball, masked to 0 at the center,
    # and f outside, which is 0 there, so f^o is identically 0.
    g = box_grid([-8.0], [8.0], 16)
    f = Field(g, box_coverage(g, [7.5], [8.0]).reshape(g.shape))
    region = Ball(np.array([7.5]), 0.25)
    new, rec = symmetrization_step(f, KP, region)
    assert rec.choice == "i"
    assert np.isfinite(rec.quotient_after) and rec.quotient_after > rec.quotient_before
    assert np.any(new.values) and not np.array_equal(new.values, f.values)


def test_fit_extremizer_recovers_exact_parameters():
    f = _extremizer_field(beta=2.0, center=0.3)
    fit = fit_extremizer(f, KP)
    assert abs(fit.beta - 2.0) < 1e-6
    assert abs(fit.center[0] - 0.3) < 1e-6
    assert fit.fit_error < 1e-8


@pytest.mark.parametrize("dim, lam, points, halfwidth", [(2, 1.0, 96, 12.0), (3, 2.0, 32, 8.0)])
def test_fit_extremizer_recovers_exact_parameters_in_2d_and_3d(dim, lam, points, halfwidth):
    kp = KernelParams(dim=dim, lam=lam)
    center = np.array([0.3, -0.2, 0.1][:dim])
    g = box_grid([-halfwidth] * dim, [halfwidth] * dim, points)
    fit = fit_extremizer(make_extremizer(extremizer_spec(kp, alpha=1.7, beta=2.0, center=center), kp, g), kp)
    assert abs(fit.alpha - 1.7) < 1e-6
    assert abs(fit.beta - 2.0) < 1e-6
    assert np.all(np.abs(fit.center - center) < 1e-6)
    assert fit.fit_error < 1e-8


def test_run_symmetrization_from_indicator_converges():
    g = box_grid([-160.0], [160.0], 4096)
    x = g.axis_centers(0)
    f0 = Field(g, np.where(np.abs(x) <= 1.0, 1.0, 0.0))
    trace = run_symmetrization(f0, KP)
    assert trace.converged
    assert trace.final_fit is not None
    assert trace.final_fit.fit_error < 0.05
    # Quotient trace non-decreasing up to tolerance.
    for rec in trace.steps:
        assert rec.quotient_after >= rec.quotient_before - 2.0 * rec.est_error
    # The final quotient approaches the sharp constant from below.
    final_q = trace.steps[-1].quotient_after
    assert final_q < sharp_constant(KP)
    assert final_q > 0.995 * sharp_constant(KP)


def test_run_symmetrization_respects_sweep_budget():
    g = box_grid([-40.0], [40.0], 512)
    x = g.axis_centers(0)
    f0 = Field(g, np.where(np.abs(x) <= 1.0, 1.0, 0.0))
    cfg = SymmetrizationConfig(max_sweeps=2, tol_stop=0.0)
    trace = run_symmetrization(f0, KP, cfg)
    assert len(trace.steps) <= 2 * 4  # at most four regions per sweep in 1D


def test_run_symmetrization_random_schedule_is_seeded():
    g = box_grid([-40.0], [40.0], 512)
    x = g.axis_centers(0)
    f0 = Field(g, np.where(np.abs(x) <= 1.0, 1.0, 0.0))
    cfg = SymmetrizationConfig(max_sweeps=3, seed=42)
    t1 = run_symmetrization(f0, KP, cfg)
    t2 = run_symmetrization(f0, KP, cfg)
    assert len(t1.steps) == len(t2.steps)
    for a, b in zip(t1.steps, t2.steps):
        assert a.quotient_after == b.quotient_after


def test_hemispace_offset_for_huge_and_tiny_normals():
    # [1e300, 1e300] overflows and [1e-300, 1e-300] underflows a plain
    # norm; both name the same direction as [1, 1].
    kp = KernelParams(dim=2, lam=1.0)
    g = box_grid([-4.0, -4.0], [4.0, 4.0], 32)
    f = make_extremizer(extremizer_spec(kp, center=np.array([0.3, -0.5])), kp, g)
    expect = hemispace_offset(f, kp, np.array([1.0, 1.0]))
    for scale in (1e300, 1e-300):
        assert hemispace_offset(f, kp, np.array([scale, scale])) == expect


def test_step_returns_the_energy_and_norm_of_the_kept_field():
    g = box_grid([-20.0], [20.0], 1024)
    x = g.axis_centers(0)
    f = Field(g, np.where(np.abs(x) <= 1.0, 1.0, 0.0))
    for region in (HalfSpace(normal=np.array([1.0]), offset=0.3), Ball(center=np.array([0.1]), radius=0.8)):
        kept, rec = symmetrization_step(f, KP, region)
        assert rec.energy == energy_direct(kept, kept, KP)
        assert rec.norm2 == lp_norm(kept, KP.p) ** 2
        # Handing them over gives the same step.
        again, rec2 = symmetrization_step(f, KP, region, energy_direct(f, f, KP), lp_norm(f, KP.p) ** 2)
        assert np.array_equal(again.values, kept.values) and rec2 == rec


def _region_params(region):
    if isinstance(region, Ball):
        return ("ball", region.center.tolist(), region.radius)
    return ("space", region.normal.tolist(), region.offset)


def test_run_symmetrization_carries_each_kept_energy_into_the_next_step(monkeypatch):
    kp = KernelParams(dim=2, lam=1.0)
    g = box_grid([-4.0, -4.0], [4.0, 4.0], 24)
    f0 = Field(g, box_coverage(g, [-1.0, -0.5], [0.6, 1.2]).reshape(g.shape))
    cfg = SymmetrizationConfig(max_sweeps=2, tol_stop=0.0)
    calls = []
    original = symmetrize.energy_direct

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(symmetrize, "energy_direct", counted)
    carried = run_symmetrization(f0, kp, cfg)
    assert len(carried.steps) == 14
    assert len(calls) == 2 * len(carried.steps) + 1
    # The same run by the three-argument step, which evaluates f afresh each time.
    step = symmetrize.symmetrization_step
    monkeypatch.setattr(symmetrize, "symmetrization_step", lambda f, kp, region, *known: step(f, kp, region))
    fresh = run_symmetrization(f0, kp, cfg)
    assert len(calls) == 2 * len(carried.steps) + 1 + 3 * len(fresh.steps)
    assert len(fresh.steps) == len(carried.steps)
    for a, b in zip(carried.steps, fresh.steps):
        assert _region_params(a.region) == _region_params(b.region)
        assert (a.quotient_before, a.quotient_after, a.choice, a.est_error) == (
            b.quotient_before,
            b.quotient_after,
            b.choice,
            b.est_error,
        )
        assert (a.energy, a.norm2) == (b.energy, b.norm2)
    assert {s.choice for s in carried.steps} >= {"none"} and len({s.choice for s in carried.steps}) > 1
    assert np.array_equal(carried.final_field.values, fresh.final_field.values)
    assert carried.final_fit.fit_error == fresh.final_fit.fit_error


def test_hemispace_offset_does_not_weigh_its_empty_end(monkeypatch):
    # Without a 1-D tail the excess at the upper end is half the total mass,
    # so the search starts from it; the offset is the same as when it weighs it.
    calls, known_ends = [], []
    cover = coverage.halfspace_coverage
    original = symmetrize.bisect_increasing

    def counted(*args):
        calls.append(1)
        return cover(*args)

    def recording(*args, f_hi=None, **kwargs):
        known_ends.append(f_hi)
        return original(*args, f_hi=f_hi, **kwargs)

    def weighing(*args, f_hi=None, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(coverage, "halfspace_coverage", counted)
    monkeypatch.setattr(symmetrize, "bisect_increasing", recording)
    kp = KernelParams(dim=2, lam=1.0)
    g = box_grid([-4.0, -4.0], [4.0, 4.0], 32)
    f2 = make_extremizer(extremizer_spec(kp, center=np.array([0.3, -0.5])), kp, g)
    # Coordinates of 1e17 cells, where cell centres round together and the
    # plane at the upper end can cut cells: that end is weighed.
    far = Field(Grid(lo=np.array([1e10, -1e10]), spacing=1e-7, shape=(8, 8)), np.ones((8, 8)))
    cases = (
        (f2, kp, [1.0, 0.0], True),
        (f2, kp, [0.6, -0.8], True),
        (far, kp, [0.6, -0.8], False),
        (_extremizer_field(center=0.7), KP, [1.0], False),
    )
    for f, k, e, knows in cases:
        calls.clear()
        offset = hemispace_offset(f, k, np.array(e))
        n_known = len(calls)
        assert (known_ends.pop() is not None) == knows
        with monkeypatch.context() as mp:
            mp.setattr(symmetrize, "bisect_increasing", weighing)
            calls.clear()
            assert hemispace_offset(f, k, np.array(e)) == offset
        assert len(calls) == n_known + knows
