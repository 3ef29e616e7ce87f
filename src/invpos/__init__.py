"""Desk-scale verification of inversion positivity for the sharp HLS energy.

Submodules: geometry (balls, half-spaces, conformal maps), fields (grids,
sampled functions, lifted transforms), coverage (cell-overlap quadrature,
region masses and the centred half-mass search), energy (direct Riesz
energy, sharp constant), positivity (defects, representation oracle,
counterexamples), symmetrize (iterative inversion symmetrization), lizhu
(hemi-balls and invariant measures), cli (batch front-end).

Top-level names are imported lazily so the command-line entry point can pin
thread counts before any numerical library loads.
"""

import importlib

_EXPORTS = {
    "geometry": ["Ball", "HalfSpace", "invert_point", "reflect_point"],
    "fields": [
        "KernelParams",
        "Grid",
        "Field",
        "ExtremizerSpec",
        "centered_grid",
        "box_grid",
        "make_extremizer",
        "extremizer_spec",
        "lp_norm",
        "eval_field",
        "apply_inversion",
        "apply_reflection",
        "apply_region_map",
        "region_mask",
        "split_in_out",
        "coarsen",
        "write_field_csv",
        "read_field_csv",
    ],
    "coverage": [
        "BracketingError",
        "ball_coverage",
        "halfspace_coverage",
        "box_coverage",
        "grid_mass",
        "tail_mass_1d",
        "density_mass",
        "half_mass_radius",
    ],
    "energy": [
        "EnergyResult",
        "energy_direct",
        "riesz_potential",
        "sharp_constant",
        "rayleigh_quotient",
        "el_residual",
        "gaussian_field",
    ],
    "positivity": [
        "SearchFailureError",
        "PositivityReport",
        "positivity_defect",
        "halfspace_representation",
        "reflected_energy",
        "NewtonZeroResult",
        "newton_zero_overlap",
        "DefectWitnesses",
        "find_negative_defect",
    ],
    "symmetrize": [
        "hemiball_radius",
        "hemispace_offset",
        "symmetrization_step",
        "StepRecord",
        "ExtremizerFit",
        "SymmetrizationConfig",
        "SymmetrizationTrace",
        "fit_extremizer",
        "run_symmetrization",
    ],
    "lizhu": [
        "Measure",
        "HemiBallResult",
        "hemiball_on_ray",
        "solve_mapping_ball",
        "check_pointwise_invariance",
        "check_mass_identity",
        "check_radial_derivative",
        "InvariantDensityFit",
        "fit_invariant_density",
    ],
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
