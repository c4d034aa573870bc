"""Reference computations that only the tests read: the reference matrix
h0 of ssh's split, filled entry by entry (the package builds no h0: its
zero-mode check reads the ring blocks.ring_stack closes at eta = c), the
dense ground energies the spectral-shift engine is held against, the
full-lattice ground energy, the closed-form curvature evaluated one eta at
a time from its formula alone (nothing of it comes from torus_qpt's closed forms),
the closed-form perturbative fidelity at the gap minimum, a
golden-section minimizer that compares values only (none of the package's
derivatives), and the sorted square-ring spectrum the dense solves are
held against."""

import cmath
import math

import numpy as np

from torus_qpt import (
    ModelSpec,
    build_lattice,
    corner_coupling,
    critical_modes,
    omega_factor,
    ring_lams,
    ring_levels,
    square_ring_modes,
)


def build_h0(lam: float, N: int) -> np.ndarray:
    """The reference matrix h0 of an even N-site ring, a writable (N, N) float64
    array: -lam on the within-cell bonds (1,2), (3,4), ..., +1 on the between-cell
    bonds, and the corner compensation c = lambda^(N/2) at (1,N) and (N,1)."""
    h0 = np.zeros((N, N))
    for i in range(N - 1):
        h0[i, i + 1] = h0[i + 1, i] = -lam if i % 2 == 0 else 1.0
    h0[0, N - 1] = h0[N - 1, 0] = corner_coupling(lam, N)
    return h0


def ground_energies(spec: ModelSpec, etas) -> np.ndarray:
    """E_g at each eta from the dense ring levels: each block's negative
    levels summed, then the blocks added in ascending mode order."""
    levels = ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, etas, spec.phi)
    negative = np.count_nonzero(levels < 0.0, axis=-1)
    sums = np.empty(negative.shape)
    for k in set(negative.ravel().tolist()):
        rings = negative == k
        sums[rings] = levels[rings, :k].sum(axis=-1)
    total = np.zeros(len(etas))
    for column in sums.T:
        total += column
    return total


def ground_energy_exact(spec: ModelSpec) -> float:
    """E_g at spec.eta: the sum of all negative levels of the full lattice
    (exact zero modes contribute nothing)."""
    evals = np.linalg.eigvalsh(build_lattice(spec))
    return float(evals[evals < 0.0].sum())


def d2_analytic(spec: ModelSpec, eta: float, modes=None) -> float:
    """The closed-form curvature of E_g at one eta, summed over `modes`
    (default: the critical window) whose physical corner c_k = lambda_k^(N/2)
    is nonzero: each lower midgap level -(1/Omega_k)|eta*e^{i phi} - c_k| has the second
    eta-derivative -(1/Omega_k)*c_k^2*sin^2(phi)/|eta*e^{i phi} - c_k|^3,
    evaluated as -(1/Omega_k)*(c_k*sin(phi)/z)^2/z with z = |eta*e^{i phi} - c_k|,
    since z^3 leaves double range from N = 584 on (M = 7, phi = pi/4).
    Undefined on an exact crossing (sin(phi) = 0 and eta = c_k). ValueError
    for a square spec, which has no midgap doublet."""
    if spec.kind != "honeycomb":
        raise ValueError("analytic curvature is defined for honeycomb specs only")
    total = 0.0
    for lam in ring_lams(spec.kind, spec.M, critical_modes(spec.M) if modes is None else modes):
        c = corner_coupling(lam, spec.N)
        if c != 0.0:
            z = abs(eta * cmath.exp(1j * spec.phi) - c)
            total -= 1.0 / omega_factor(lam, spec.N) * (c * math.sin(spec.phi) / z) ** 2 / z
    return total


def fidelity_at_minimum(lam: float, N: int, delta: float, phi: float) -> float:
    """Closed-form fidelity at eta = eta_star: b/sqrt(delta^2 + b^2)
    with b = |c*sin(phi)| at the physical corner c; equals 1 at delta = 0
    and 0 across an exact crossing (sin(phi) = 0, delta > 0). The oracle
    that test_ssh and test_acceptance compare fidelity_perturbative against."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0.0:
        return 1.0
    c = corner_coupling(lam, N)
    b = abs(c * math.sin(phi))
    if b == 0.0:
        return 0.0
    return b / math.hypot(delta, b)


def golden_section_min(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Golden-section minimizer of a unimodal f on [a, b]; returns the
    midpoint of the final bracket, once its width is <= tol or after 500
    steps (a bracket stops shrinking at the float spacing, which a tol
    below it undercuts). It places a smooth extremum only to about sqrt(eps)
    of the bracket, as it compares values of a flat minimum."""
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(500):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def square_ring_closed_form(N: int, phi: float, lam2k: float, eta) -> np.ndarray:
    """Analytic spectrum of the uniform flux ring at eta = 0 or 1, sorted:
    square_ring_modes' levels minus lam2k."""
    return np.sort(square_ring_modes(N, phi, eta)[0]) - lam2k
