"""Self-check suite behind the `validate` CLI command.

Each check computes a single scalar `measured` (a worst-case deviation)
and compares it against a tolerance. The suite covers the block-union
property for both lattices, exact zero-mode annihilation, the square
closed-form spectra, perturbation theory against dense diagonalization,
the gap-minimum location (Newton on the exact gap's Hellmann-Feynman
slope, one eigh per step), curvature consistency, and the fidelity
relations. Each tolerance is fixed in CHECKS. Every ring a check reads
comes from `blocks.ring_stack`, the zero-mode check's h0 too: the ring
closed by the bond eta = c at phi = 0 is -h0 (see `ssh`), with c the
convention's corner.

The corner convention is the suite's one knob. 'cells' is the physical
corner c = lambda^(N/2) that every closed form of `ssh` reads. 'sites'
counts sites, c = lambda^N, and fails the convention-sensitive checks by
design: each of them evaluates its perturbative side at `_corner_length`,
the 2N-site ring under 'sites' (whose physical corner, and so Omega, is
the N-site sites corner, bit for bit), while its exact side stays at N.

The square closed-form check makes no eigensolve. It holds every ring H
that `blocks.ring_stack` builds (sites 1..N, flux on the (N, 1) bond)
against the eigenpairs (eps, U) of `eigensolve.square_ring_modes`, in the
same gauge: for a unitary U, ||H - U diag(eps - lambda) U^H||_F equals the
eigenpair residual ||H U - U diag(eps - lambda)||_F and, by the
Hoffman-Wielandt inequality, bounds the deviation of H's sorted levels
from the closed form, so its `measured` bounds the dense-solve deviation
the tests compute. It also catches a wrong eigenvector or a flux of the
wrong orientation.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .blocks import ring_lams, ring_stack, sin_cos
from .criticality import fidelity_exact
from .eigensolve import ring_levels, square_ring_modes
from .models import ModelSpec, build_lattice
from .ssh import _refine_peak, corner_coupling, fidelity_perturbative, midgap_perturbation, zero_modes

CONVENTIONS = ("cells", "sites")


def _corner_length(n: int, convention: str) -> int:
    """The length whose physical corner is the n-site ring's under `convention`."""
    return 2 * n if convention == "sites" else n


def _union_deviation(specs: list[ModelSpec]) -> float:
    worst = 0.0
    for spec in specs:
        full = np.linalg.eigvalsh(build_lattice(spec))
        levels = ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [spec.eta], spec.phi)
        worst = max(worst, float(np.max(np.abs(full - np.sort(levels.ravel())))))
    return worst


def check_block_union_honeycomb(convention: str) -> float:
    specs = [
        ModelSpec("honeycomb", 3, 4, 1.0, 0.0),
        ModelSpec("honeycomb", 3, 4, 1.0, math.pi / 4),
        ModelSpec("honeycomb", 7, 20, 0.5, math.pi / 4),
        ModelSpec("honeycomb", 5, 8, 0.3, math.pi / 2),
    ]
    return _union_deviation(specs)


def check_block_union_square(convention: str) -> float:
    specs = [
        ModelSpec("square", 2, 2, 1.0, math.pi / 3),
        ModelSpec("square", 3, 8, 0.5, math.pi / 4),
        ModelSpec("square", 5, 6, 1.0, math.pi / 2),
    ]
    return _union_deviation(specs)


def check_zero_mode_residual(convention: str) -> float:
    # ring_stack's ring closed by the bond eta = c at phi = 0 is -h0 (see ssh), and the norm does
    # not see the sign; a contiguous real copy keeps the product one BLAS dgemv
    worst = 0.0
    for lam in (0.2, -0.2, 0.5, -0.5, 0.9, -0.9):
        for n in (4, 8, 12, 20, 40):
            c = corner_coupling(lam, _corner_length(n, convention))
            ring = next(ring_stack("honeycomb", [lam], n, [c], 0.0))[0].real.copy()
            worst = max(worst, *(float(np.linalg.norm(ring @ a)) for a in zero_modes(lam, n)))
    return worst


def _squared_residual(n: int, phi: float, etas, lams) -> float:
    """Largest ||H - U diag(eps - lambda) U^H||_F^2 over ring_stack's rings of (n, phi, etas, lams).
    U diag(eps) U^H takes one product per eta and serves every lambda, as H - (U diag(eps) U^H -
    lambda I); each ring becomes its residual in place."""
    closed = np.empty((len(etas), n, n), dtype=np.complex128)
    for out, eta in zip(closed, etas):
        levels, vectors = square_ring_modes(n, phi, eta)
        np.matmul(vectors * levels, vectors.conj().T, out=out)
    worst = 0.0
    first = 0  # index of the chunk's first ring, eta-major and lambda minor as ring_stack yields them
    for chunk in ring_stack("square", lams, n, etas, phi):
        for ring, h in enumerate(chunk, first):
            h -= closed[ring // len(lams)]
            h.ravel()[:: n + 1] += lams[ring % len(lams)]
            worst = max(worst, np.vdot(h, h).real)
        first += len(chunk)
        del chunk, h  # freed before ring_stack builds the next chunk
    return worst


def check_square_closed_form(convention: str) -> float:
    # measured is the largest ||H - U diag(eps - lambda) U^H||_F over the rings (see the module
    # docstring). The open ring (eta = 0) has no flux, so it runs only with phi = 0, in the same
    # stack as that phi's closed ring.
    lams = (-2.0, 0.0, 1.0)
    cases = ((0.0, (0.0, 1.0)), (math.pi / 4, (1.0,)), (math.pi / 2, (1.0,)))
    return math.sqrt(max(_squared_residual(n, phi, etas, lams) for n in range(2, 65) for phi, etas in cases))


_LAM, _N, _PHI = 0.5, 20, math.pi / 4
_SIN, _COS = sin_cos(_PHI)


def check_perturbation_vs_oracle(convention: str) -> float:
    n = _corner_length(_N, convention)
    c = corner_coupling(_LAM, n)
    etas = np.linspace(0.0, 5.0 * c, 21).tolist()
    pairs = ring_levels("honeycomb", [_LAM], _N, etas, _PHI)[:, 0, _N // 2 - 1 : _N // 2 + 1]
    worst = 0.0
    for eta, (lower, upper) in zip(etas, pairs.tolist()):
        sol = midgap_perturbation(_LAM, n, eta, _PHI)
        worst = max(worst, abs(sol.eps_minus - lower), abs(sol.eps_plus - upper))
    return worst


def _gap_slopes(eta: float) -> tuple[float, float]:
    """The exact midgap gap's slope and its derivative at eta, from one eigh:
    per doublet level, <n|V|n> (Hellmann-Feynman) and 2*sum_m |<m|V|n>|^2/(eps_n
    - eps_m), with V = dH/deta: -e^{i phi} at (N, 1), its conjugate at (1, N)."""
    levels, vectors = np.linalg.eigh(next(ring_stack("honeycomb", [_LAM], _N, [eta], _PHI))[0])
    v = -complex(_COS, _SIN) * np.outer(vectors[-1].conj(), vectors[0])
    v += v.conj().T  # <m|V|n>
    pair = [_N // 2 - 1, _N // 2]
    splits = levels[pair, None] - levels
    splits[[0, 1], pair] = np.inf
    curves = 2.0 * (np.abs(v[:, pair].T) ** 2 / splits).sum(axis=1)
    return float(v[pair[1], pair[1]].real - v[pair[0], pair[0]].real), float(curves[1] - curves[0])


def check_gap_minimum_location(convention: str) -> float:
    eta_star = midgap_perturbation(_LAM, _corner_length(_N, convention), 0.0, _PHI).eta_star
    located = _refine_peak(_gap_slopes, eta_star, 0.0, 4.0 * corner_coupling(_LAM, _N) * _COS, 1.0, True)
    return abs(located - eta_star)


def check_curvature_consistency(convention: str) -> float:
    sol = midgap_perturbation(_LAM, _corner_length(_N, convention), 0.0, _PHI)
    eta_star = sol.eta_star
    step = corner_coupling(_LAM, _N) * abs(_SIN) / 100.0

    etas = [eta_star + step, eta_star, eta_star - step]
    up, mid, down = ring_levels("honeycomb", [_LAM], _N, etas, _PHI)[:, 0, _N // 2 - 1].tolist()
    fd = (up - 2.0 * mid + down) / (step * step)
    return abs((fd - sol.curvature_max) / sol.curvature_max)


def check_fidelity_closed_form(convention: str) -> float:
    n = _corner_length(_N, convention)
    c = corner_coupling(_LAM, n)
    eta_star = c * _COS
    b = abs(c * _SIN)
    value = fidelity_perturbative(_LAM, n, eta_star, b, _PHI)
    return abs(value - 1.0 / math.sqrt(2.0))


def check_fidelity_exact_vs_perturbative(convention: str) -> float:
    n = _corner_length(_N, convention)
    c = corner_coupling(_LAM, n)
    eta_star = c * _COS
    deltas = np.geomspace(c / 10.0, 10.0 * c, 13)
    f_exact = fidelity_exact(_LAM, _N, _PHI, eta_star, deltas)
    return float(np.max(np.abs(f_exact - fidelity_perturbative(_LAM, n, eta_star, deltas, _PHI))))


# (name, check, tolerance), in report order
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


def run_validation(convention: str = "cells") -> dict:
    """Run every check and return the machine-readable report."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown exponent convention {convention!r}; expected one of {CONVENTIONS}")
    start = time.perf_counter()
    checks = []
    for name, check, tol in CHECKS:
        measured = float(check(convention))
        checks.append({"name": name, "pass": bool(measured <= tol), "measured": measured, "tolerance": tol})
    return {
        "checks": checks,
        "pass": all(entry["pass"] for entry in checks),
        "runtime_s": time.perf_counter() - start,
    }
