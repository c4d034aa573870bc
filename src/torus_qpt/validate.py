"""Self-check suite behind the `validate` CLI command.

Each check computes a single scalar `measured` (a worst-case deviation)
and compares it against a tolerance. The suite covers the block-union
property for both lattices, exact zero-mode annihilation, the square
closed-form spectra, perturbation theory against dense diagonalization,
the gap-minimum location, curvature consistency, and the fidelity
relations. Tolerances can be overridden per check; the exponent
convention is threaded through so a 'sites' run demonstrably fails the
convention-sensitive checks.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .blocks import ring_levels, union_eigenvalues
from .criticality import exact_midgap_gap, fidelity_exact, golden_section_min
from .eigensolve import square_ring_closed_form
from .models import ModelSpec, build_lattice
from .ssh import (
    build_h0_hprime,
    corner_coupling,
    fidelity_perturbative,
    midgap_perturbation,
    zero_modes,
)


def _union_deviation(specs: list[ModelSpec]) -> float:
    worst = 0.0
    for spec in specs:
        full = np.linalg.eigvalsh(build_lattice(spec).entries)
        union = union_eigenvalues(spec)
        worst = max(worst, float(np.max(np.abs(full - union))) / spec.t)
    return worst


def check_block_union_honeycomb(convention: str) -> float:
    specs = [
        ModelSpec("honeycomb", 3, 4, 1.0, 1.0, 0.0),
        ModelSpec("honeycomb", 3, 4, 1.0, 1.0, math.pi / 4),
        ModelSpec("honeycomb", 7, 20, 1.0, 0.5, math.pi / 4),
        ModelSpec("honeycomb", 5, 8, 2.0, 0.3, math.pi / 2),
    ]
    return _union_deviation(specs)


def check_block_union_square(convention: str) -> float:
    specs = [
        ModelSpec("square", 2, 2, 1.0, 1.0, math.pi / 3),
        ModelSpec("square", 3, 8, 1.0, 0.5, math.pi / 4),
        ModelSpec("square", 5, 6, 2.0, 1.0, math.pi / 2),
    ]
    return _union_deviation(specs)


def check_zero_mode_residual(convention: str) -> float:
    worst = 0.0
    for lam in (0.2, -0.2, 0.5, -0.5, 0.9, -0.9):
        for n in (4, 8, 12, 20, 40):
            h0, _ = build_h0_hprime(lam, n, 0.0, 0.0, convention)
            pair = zero_modes(lam, n, convention)
            worst = max(
                worst,
                float(np.linalg.norm(h0 @ pair.a_plus)),
                float(np.linalg.norm(h0 @ pair.a_minus)),
            )
    return worst


def check_square_closed_form(convention: str) -> float:
    # The open ring (eta = 0) has no flux, so it is solved once per N, not once per phi. Each
    # (eta, phi) is one stacked solve of its 3 rings; stacking all 12 of an N adds 2.4 MB of peak RSS.
    lams, phis = (-2.0, 0.0, 1.0), (0.0, math.pi / 4, math.pi / 2)
    worst = 0.0
    for n in range(2, 65):
        for eta, phi in [(0.0, 0.0)] + [(1.0, phi) for phi in phis]:
            dense = ring_levels("square", lams, n, [eta], phi)[0]
            closed = np.array([square_ring_closed_form(n, phi, lam2k, eta, 1.0) for lam2k in lams])
            worst = max(worst, float(np.max(np.abs(closed - dense))))
    return worst


_LAM, _N, _PHI = 0.5, 20, math.pi / 4


def check_perturbation_vs_oracle(convention: str) -> float:
    c = corner_coupling(_LAM, _N, convention)
    etas = np.linspace(0.0, 5.0 * c, 21).tolist()
    pairs = ring_levels("honeycomb", [_LAM], _N, etas, _PHI)[:, 0, _N // 2 - 1 : _N // 2 + 1]
    worst = 0.0
    for eta, (lower, upper) in zip(etas, pairs.tolist()):
        sol = midgap_perturbation(_LAM, _N, eta, _PHI, 1.0, convention, warn=False)
        worst = max(worst, abs(sol.eps_minus - lower), abs(sol.eps_plus - upper))
    return worst


def check_gap_minimum_location(convention: str) -> float:
    eta_star = midgap_perturbation(_LAM, _N, 0.0, _PHI, 1.0, convention, warn=False).eta_star
    bracket_hi = 4.0 * corner_coupling(_LAM, _N, "cells") * math.cos(_PHI)
    located = golden_section_min(
        lambda x: exact_midgap_gap(_LAM, _N, x, _PHI, 1.0), 0.0, bracket_hi, tol=1e-12
    )
    return abs(located - eta_star)


def check_curvature_consistency(convention: str) -> float:
    sol = midgap_perturbation(_LAM, _N, 0.0, _PHI, 1.0, convention, warn=False)
    eta_star = sol.eta_star
    step = corner_coupling(_LAM, _N, "cells") * abs(math.sin(_PHI)) / 100.0

    etas = [eta_star + step, eta_star, eta_star - step]
    up, mid, down = ring_levels("honeycomb", [_LAM], _N, etas, _PHI)[:, 0, _N // 2 - 1].tolist()
    fd = (up - 2.0 * mid + down) / (step * step)
    return abs((fd - sol.curvature_max) / sol.curvature_max)


def check_fidelity_closed_form(convention: str) -> float:
    c = corner_coupling(_LAM, _N, convention)
    eta_star = c * math.cos(_PHI)
    b = abs(c * math.sin(_PHI))
    value = fidelity_perturbative(_LAM, _N, eta_star, b, _PHI, 1.0, convention, warn=False)
    return abs(value - 1.0 / math.sqrt(2.0))


def check_fidelity_exact_vs_perturbative(convention: str) -> float:
    c = corner_coupling(_LAM, _N, convention)
    eta_star = c * math.cos(_PHI)
    deltas = np.geomspace(c / 10.0, 10.0 * c, 13)
    curve = fidelity_exact(_LAM, _N, _PHI, 1.0, eta_star, deltas, convention)
    return float(np.max(np.abs(curve.f_exact - curve.f_perturbative)))


# (name, check, default tolerance), in report order
CHECKS = (
    ("block-union-honeycomb", check_block_union_honeycomb, 1e-10),
    ("block-union-square", check_block_union_square, 1e-10),
    ("zero-mode-residual", check_zero_mode_residual, 1e-13),
    ("square-closed-form", check_square_closed_form, 1e-10),
    ("perturbation-vs-oracle", check_perturbation_vs_oracle, 1e-5),
    ("gap-minimum-location", check_gap_minimum_location, 1e-6),
    ("curvature-consistency", check_curvature_consistency, 2e-2),
    ("fidelity-closed-form", check_fidelity_closed_form, 1e-8),
    ("fidelity-exact-vs-perturbative", check_fidelity_exact_vs_perturbative, 1e-3),
)
DEFAULT_TOLERANCES = {name: tol for name, _, tol in CHECKS}


def run_validation(convention: str = "cells", tolerances: dict | None = None) -> dict:
    """Run every check and return the machine-readable report.

    `tolerances` overrides individual check tolerances by name; unknown
    names raise ValueError.
    """
    tolerances = tolerances or {}
    unknown = set(tolerances) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ValueError(f"unknown check names in tolerance overrides: {sorted(unknown)}")
    start = time.perf_counter()
    checks = []
    for name, check, default in CHECKS:
        measured, tol = float(check(convention)), float(tolerances.get(name, default))
        checks.append({"name": name, "pass": bool(measured <= tol), "measured": measured, "tolerance": tol})
    return {
        "checks": checks,
        "pass": all(entry["pass"] for entry in checks),
        "runtime_s": time.perf_counter() - start,
    }
