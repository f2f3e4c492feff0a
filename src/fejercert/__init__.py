"""Certification toolkit and reference-model simulator for Fejér-filtered
sampling on block one-hot spaces.

The package computes mixer-envelope distributions, applies the positive
Fejér filter to wrapped cost phases, evaluates the closed-form success,
depth, shot, feasibility, and dither-averaged bounds, and simulates the
encoded circuit on a statevector.  The test suite validates all of them
against brute-force oracles at desk scale.
"""

from .fejer import (
    FilteredLaw,
    fejer_coefficients,
    fejer_kernel,
    filtered_distribution,
    offpeak_bound,
    offpeak_bound_loose,
    success_probability,
)
from .instance import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    GapScope,
    InstanceFormatError,
    PhaseModel,
    ProblemInstance,
    collision_penalty,
    load_instance,
    load_instance_file,
    phase_gap,
    wrap_angle,
)
from .mixer import (
    Envelope,
    TransitionKernel,
    apply_block_kernel,
    averaged_block_kernel,
    envelope_mass,
    external_envelope,
    is_primitive,
    mixer_envelope,
    second_eigenvalue,
    single_block_kernel,
    uniform_envelope,
)
from .planner import (
    Certificate,
    Regime,
    RegimeReport,
    build_certificate,
    classify_regime,
    cmin_curve,
    depth_for_target,
    gamma_safe,
    lipschitz_envelope_bound,
    main_lobe_constant,
    order_reduction,
    ratio_bounds,
    ratio_parameter,
    shot_budget,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
