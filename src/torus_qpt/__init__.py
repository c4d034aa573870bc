"""Boundary-coupling phase transition diagnostics for flux-threaded tight-binding tori.

The package builds brick-wall honeycomb and square lattices on a torus
with one tunable boundary bond per row, reduces them to momentum-block
ring Hamiltonians, and analyzes the avoided crossing of the near-zero
modes: degenerate perturbation theory for the midgap pair, ground-state
energy curvature sweeps, finite-size scaling of the curvature peak, and
fidelity-susceptibility curves, plus a self-check suite and a CLI.
Every energy, in and out, is in units of the hopping t: the model has no
other energy scale, so t = 1 throughout.
"""

import gc
import os
import sys

# Every dense solve here is a ring or lattice of a few hundred rows at most, where a second
# BLAS thread only spins; OpenBLAS sizes its pool when NumPy loads, so set it before that.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")

# Everything the imports below allocate (NumPy and the package's modules) lives as long as the
# process, so the ~30 collections that loading them would trigger free nothing. Suspend the
# collector while they load and give the caller back the state it had.
_collecting = gc.isenabled()
gc.disable()
try:
    from .blocks import (
        blocks_to_csv,
        critical_modes,
        peierls_ring,
        ring_lams,
        ring_stack,
        square_ring,
    )
    from .criticality import (
        SweepResult,
        fidelity_exact,
        linear_fit,
        scaling_scan,
        sweep,
        sweep_to_csv,
    )
    from .eigensolve import ring_levels, square_ring_modes
    from .models import ModelSpec, build_lattice
    from .ssh import (
        MidgapSolution,
        analytic_curvature,
        corner_coupling,
        fidelity_perturbative,
        midgap_perturbation,
        omega_factor,
        zero_modes,
    )
    from .validate import CONVENTIONS, run_validation
finally:
    if _collecting:
        gc.enable()
del _collecting

__version__ = "0.1.0"

__all__ = [
    "CONVENTIONS",
    "MidgapSolution",
    "ModelSpec",
    "SweepResult",
    "__version__",
    "analytic_curvature",
    "blocks_to_csv",
    "build_lattice",
    "corner_coupling",
    "critical_modes",
    "fidelity_exact",
    "fidelity_perturbative",
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
    "square_ring_modes",
    "sweep",
    "sweep_to_csv",
    "zero_modes",
]
