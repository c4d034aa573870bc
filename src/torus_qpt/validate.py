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

from .blocks import ring_lams, ring_levels, sin_cos
from .criticality import fidelity_exact
from .eigensolve import square_ring_closed_form
from .models import ModelSpec, build_lattice
from .ssh import build_h0, corner_coupling, fidelity_perturbative, golden_section_min, midgap_perturbation, zero_modes


def _union_deviation(specs: list[ModelSpec]) -> float:
    worst = 0.0
    for spec in specs:
        full = np.linalg.eigvalsh(build_lattice(spec))
        levels = spec.t * ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [spec.eta], spec.phi)
        worst = max(worst, float(np.max(np.abs(full - np.sort(levels.ravel())))) / spec.t)
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
            h0 = build_h0(lam, n, convention)
            worst = max(worst, *(float(np.linalg.norm(h0 @ a)) for a in zero_modes(lam, n)))
    return worst


def check_square_closed_form(convention: str) -> float:
    # The open ring (eta = 0) has no flux, so it is solved only with phi = 0, in the same call as
    # that phi's closed ring. Stacking all 12 rings of an N in one call adds 2.4 MB of peak RSS.
    lams = (-2.0, 0.0, 1.0)
    worst = 0.0
    for n in range(2, 65):
        for phi, etas in ((0.0, (0.0, 1.0)), (math.pi / 4, (1.0,)), (math.pi / 2, (1.0,))):
            dense = ring_levels("square", lams, n, etas, phi)
            closed = [[square_ring_closed_form(n, phi, lam2k, eta) for lam2k in lams] for eta in etas]
            worst = max(worst, float(np.max(np.abs(np.array(closed) - dense))))
    return worst


_LAM, _N, _PHI = 0.5, 20, math.pi / 4
_SIN, _COS = sin_cos(_PHI)


def check_perturbation_vs_oracle(convention: str) -> float:
    c = corner_coupling(_LAM, _N, convention)
    etas = np.linspace(0.0, 5.0 * c, 21).tolist()
    pairs = ring_levels("honeycomb", [_LAM], _N, etas, _PHI)[:, 0, _N // 2 - 1 : _N // 2 + 1]
    worst = 0.0
    for eta, (lower, upper) in zip(etas, pairs.tolist()):
        sol = midgap_perturbation(_LAM, _N, eta, _PHI, convention)
        worst = max(worst, abs(sol.eps_minus - lower), abs(sol.eps_plus - upper))
    return worst


def check_gap_minimum_location(convention: str) -> float:
    eta_star = midgap_perturbation(_LAM, _N, 0.0, _PHI, convention).eta_star
    bracket_hi = 4.0 * corner_coupling(_LAM, _N, "cells") * _COS

    def exact_gap(eta: float) -> float:
        levels = ring_levels("honeycomb", [_LAM], _N, [eta], _PHI)[0, 0]
        return float(levels[_N // 2] - levels[_N // 2 - 1])

    located = golden_section_min(exact_gap, 0.0, bracket_hi, tol=1e-12)
    return abs(located - eta_star)


def check_curvature_consistency(convention: str) -> float:
    sol = midgap_perturbation(_LAM, _N, 0.0, _PHI, convention)
    eta_star = sol.eta_star
    step = corner_coupling(_LAM, _N, "cells") * abs(_SIN) / 100.0

    etas = [eta_star + step, eta_star, eta_star - step]
    up, mid, down = ring_levels("honeycomb", [_LAM], _N, etas, _PHI)[:, 0, _N // 2 - 1].tolist()
    fd = (up - 2.0 * mid + down) / (step * step)
    return abs((fd - sol.curvature_max) / sol.curvature_max)


def check_fidelity_closed_form(convention: str) -> float:
    c = corner_coupling(_LAM, _N, convention)
    eta_star = c * _COS
    b = abs(c * _SIN)
    value = fidelity_perturbative(_LAM, _N, eta_star, b, _PHI, convention)
    return abs(value - 1.0 / math.sqrt(2.0))


def check_fidelity_exact_vs_perturbative(convention: str) -> float:
    c = corner_coupling(_LAM, _N, convention)
    eta_star = c * _COS
    deltas = np.geomspace(c / 10.0, 10.0 * c, 13)
    f_exact = fidelity_exact(_LAM, _N, _PHI, eta_star, deltas)
    return float(np.max(np.abs(f_exact - fidelity_perturbative(_LAM, _N, eta_star, deltas, _PHI, convention))))


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
