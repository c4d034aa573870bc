"""Reference computations that only the tests read: the dense ground
energies the spectral-shift engine is held against, the full-lattice
ground energy, and the closed-form curvature evaluated one eta at a time."""

import numpy as np

from torus_qpt import ModelSpec, build_lattice, corner_coupling, critical_modes, omega_factor, ring_lams, ring_levels
from torus_qpt.criticality import _d2_sum


def ground_energies(spec: ModelSpec, etas) -> np.ndarray:
    """E_g at each eta from the dense ring levels: each block's negative
    levels summed, then the blocks added in ascending mode order."""
    levels = ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, etas, spec.phi, spec.t)
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


def d2_analytic(spec: ModelSpec, eta: float, convention: str = "cells", modes=None) -> float:
    """The closed-form curvature of E_g at one eta, summed over `modes`
    (default: the critical window), through the sweep's own per-mode sum.
    ValueError for a square spec, which has no midgap doublet."""
    if spec.kind != "honeycomb":
        raise ValueError("analytic curvature is defined for honeycomb specs only")
    lams = ring_lams(spec.kind, spec.M, critical_modes(spec.M) if modes is None else modes)
    couplings = [(lam, corner_coupling(lam, spec.N, convention)) for lam in lams]
    return _d2_sum(spec, [(c, omega_factor(lam, spec.N, convention)) for lam, c in couplings if c != 0.0], eta)
