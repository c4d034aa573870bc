"""Reference computations that only the tests read: the dense ground
energies the spectral-shift engine is held against, the full-lattice
ground energy, the closed-form curvature evaluated one eta at a time
from its formula alone (nothing here comes from torus_qpt's closed forms),
and the closed-form perturbative fidelity at the gap minimum."""

import cmath
import math

import numpy as np

from torus_qpt import ModelSpec, build_lattice, corner_coupling, critical_modes, omega_factor, ring_lams, ring_levels


def ground_energies(spec: ModelSpec, etas) -> np.ndarray:
    """E_g at each eta from the dense ring levels at t = 1: each block's
    negative levels summed, then the blocks added in ascending mode order,
    then the sum multiplied by spec.t."""
    levels = ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, etas, spec.phi)
    negative = np.count_nonzero(levels < 0.0, axis=-1)
    sums = np.empty(negative.shape)
    for k in set(negative.ravel().tolist()):
        rings = negative == k
        sums[rings] = levels[rings, :k].sum(axis=-1)
    total = np.zeros(len(etas))
    for column in sums.T:
        total += column
    return spec.t * total


def ground_energy_exact(spec: ModelSpec) -> float:
    """E_g at spec.eta: the sum of all negative levels of the full lattice
    (exact zero modes contribute nothing)."""
    evals = np.linalg.eigvalsh(build_lattice(spec))
    return float(evals[evals < 0.0].sum())


def d2_analytic(spec: ModelSpec, eta: float, convention: str = "cells", modes=None) -> float:
    """The closed-form curvature of E_g at one eta, summed over `modes`
    (default: the critical window) whose corner c_k is nonzero: each lower
    midgap level -(t/Omega_k)|eta*e^{i phi} - c_k| has the second
    eta-derivative -(t/Omega_k)*c_k^2*sin^2(phi)/|eta*e^{i phi} - c_k|^3.
    Undefined on an exact crossing (sin(phi) = 0 and eta = c_k). ValueError
    for a square spec, which has no midgap doublet."""
    if spec.kind != "honeycomb":
        raise ValueError("analytic curvature is defined for honeycomb specs only")
    total = 0.0
    for lam in ring_lams(spec.kind, spec.M, critical_modes(spec.M) if modes is None else modes):
        c = corner_coupling(lam, spec.N, convention)
        if c != 0.0:
            z = abs(eta * cmath.exp(1j * spec.phi) - c)
            total -= spec.t / omega_factor(lam, spec.N, convention) * c * c * math.sin(spec.phi) ** 2 / z ** 3
    return total


def fidelity_at_minimum(lam: float, N: int, delta: float, phi: float, convention: str = "cells") -> float:
    """Closed-form fidelity at eta = eta_star: b/sqrt(delta^2 + b^2)
    with b = |c*sin(phi)|; equals 1 at delta = 0 and 0 across an exact
    crossing (sin(phi) = 0, delta > 0). The oracle that test_ssh and
    test_acceptance compare fidelity_perturbative against."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0.0:
        return 1.0
    c = corner_coupling(lam, N, convention)
    b = abs(c * math.sin(phi))
    if b == 0.0:
        return 0.0
    return b / math.hypot(delta, b)
