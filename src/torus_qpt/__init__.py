"""Boundary-coupling phase transition diagnostics for flux-threaded tight-binding tori.

The package builds brick-wall honeycomb and square lattices on a torus
with one tunable boundary bond per row, reduces them to momentum-block
ring Hamiltonians, and analyzes the avoided crossing of the near-zero
modes: degenerate perturbation theory for the midgap pair, ground-state
energy curvature sweeps, finite-size scaling of the curvature peak, and
fidelity-susceptibility curves, plus a self-check suite and a CLI.
"""

import os
import sys

# Every dense solve here is a ring or lattice of a few hundred rows at most, where a second
# BLAS thread only spins; OpenBLAS sizes its pool when NumPy loads, so set it before that.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")

from .blocks import (
    blocks_to_csv,
    critical_modes,
    peierls_ring,
    ring_lams,
    ring_levels,
    ring_stack,
    square_ring,
    union_eigenvalues,
)
from .criticality import (
    FidelityCurve,
    SweepResult,
    d2_analytic,
    exact_midgap_gap,
    fidelity_exact,
    fidelity_to_csv,
    golden_section_min,
    ground_energy_exact,
    linear_fit,
    scaling_scan,
    sweep,
    sweep_to_csv,
)
from .eigensolve import square_ring_closed_form
from .models import HermitianOperator, ModelSpec, build_lattice
from .ssh import (
    CONVENTIONS,
    MidgapSolution,
    ZeroModePair,
    build_h0_hprime,
    corner_coupling,
    fidelity_at_minimum,
    fidelity_perturbative,
    midgap_perturbation,
    omega_factor,
    zero_modes,
)
from .validate import DEFAULT_TOLERANCES, run_validation

__version__ = "0.1.0"

__all__ = [
    "CONVENTIONS",
    "DEFAULT_TOLERANCES",
    "FidelityCurve",
    "HermitianOperator",
    "MidgapSolution",
    "ModelSpec",
    "SweepResult",
    "ZeroModePair",
    "__version__",
    "blocks_to_csv",
    "build_h0_hprime",
    "build_lattice",
    "corner_coupling",
    "critical_modes",
    "d2_analytic",
    "exact_midgap_gap",
    "fidelity_at_minimum",
    "fidelity_exact",
    "fidelity_perturbative",
    "fidelity_to_csv",
    "golden_section_min",
    "ground_energy_exact",
    "linear_fit",
    "midgap_perturbation",
    "omega_factor",
    "peierls_ring",
    "ring_lams",
    "ring_levels",
    "ring_stack",
    "run_validation",
    "scaling_scan",
    "square_ring",
    "square_ring_closed_form",
    "sweep",
    "sweep_to_csv",
    "union_eigenvalues",
    "zero_modes",
]
