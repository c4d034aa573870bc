"""Edge-state analytics for the dimerized flux ring.

For |lambda| < 1 the open alternating chain hosts two exponentially
localized zero-energy modes, one per sublattice (`zero_modes`). Closing
the ring through a weak boundary bond hybridizes them into a midgap
doublet. First-order degenerate perturbation theory in the boundary
coupling gives its scalars (`midgap_perturbation`: the doublet energies,
the avoided-crossing minimum and its location, the curvature of the
lower branch) and the overlap (fidelity) between upper doublet vectors
at neighbouring couplings (`fidelity_perturbative`, the one place the
doublet vectors are built).

Conventions. The dimensionless reference matrix h0 (`build_h0`) is the
open alternating ring (bonds -lambda within cells, +1 between cells:
minus the bands of `blocks.peierls_ring` at t = 1) plus a corner
compensation entry c at (1,N)/(N,1). The physical ring block equals
-t*(h0 + h'), where h' holds only the corner remainders
eta*e^{i phi} - c at (N,1) and eta*e^{-i phi} - c at (1,N). The corner
exponent is switchable: 'cells' uses c = lambda^(N/2), which makes h0
annihilate the zero-mode vectors exactly; 'sites' uses c = lambda^N and
is kept for comparison runs (its residual is the measured difference
|lambda^N - lambda^(N/2)|).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blocks import peierls_ring

CONVENTIONS = ("cells", "sites")


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown exponent convention {convention!r}; expected one of {CONVENTIONS}")


def _check_chain(lam: float, N: int) -> None:
    if N < 4 or N % 2 != 0:
        raise ValueError(f"chain length must be even and >= 4, got N={N}")
    if not abs(lam) < 1.0:
        raise ValueError(f"localized zero modes require |lambda| < 1, got lambda={lam}")


def corner_coupling(lam: float, N: int, convention: str = "cells") -> float:
    """Corner compensation entry c of the reference matrix h0.

    'cells' counts unit cells: c = lambda^(N/2). 'sites' counts sites:
    c = lambda^N.
    """
    _check_convention(convention)
    exponent = N // 2 if convention == "cells" else N
    return float(lam) ** exponent


def omega_factor(lam: float, N: int, convention: str = "cells") -> float:
    """Normalization Omega = (1 - c^2)/(1 - lambda^2), the exact finite
    geometric sum; under 'cells' it equals the squared norm of the
    unnormalized zero-mode vectors."""
    _check_convention(convention)
    c = corner_coupling(lam, N, convention)
    return (1.0 - c * c) / (1.0 - lam * lam)


def zero_modes(lam: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only unit zero-mode pair (a_plus, a_minus) of h0.

    a_plus lives on odd sites (1, 3, ...) with amplitudes lambda^j;
    a_minus mirrors it on even sites from the opposite end. Both are
    normalized by the norm of the raw vectors, whose square is
    omega_factor(lam, N, 'cells').
    """
    _check_chain(lam, N)
    cells = N // 2
    u_plus = np.zeros(N)
    u_minus = np.zeros(N)
    for j in range(cells):
        u_plus[2 * j] = lam ** j
        u_minus[2 * j + 1] = lam ** (cells - 1 - j)
    norm = float(np.linalg.norm(u_plus))
    pair = (u_plus / norm, u_minus / norm)
    for vector in pair:
        vector.setflags(write=False)
    return pair


def build_h0(lam: float, N: int, convention: str = "cells") -> np.ndarray:
    """The reference matrix h0: minus the open ring's bonds at t = 1 (-lam
    within cells, +1 between cells) and the corner compensation c at (1,N)
    and (N,1)."""
    h0 = np.zeros(N * N)  # row-major: (i, i + 1) is entry 1 + i*(N + 1), (i + 1, i) is N + i*(N + 1)
    h0[1 :: N + 1] = h0[N :: N + 1] = -peierls_ring(lam, N)[1]  # checks N
    h0 = h0.reshape(N, N)
    c = corner_coupling(lam, N, convention)
    h0[0, N - 1] = c
    h0[N - 1, 0] = c
    return h0


@dataclass(frozen=True)
class MidgapSolution:
    """First-order midgap doublet of the weakly closed ring.

    eps_plus/eps_minus are the doublet energies, gap_min the
    avoided-crossing minimum over eta, eta_star its location, and
    curvature_max the curvature of the lower branch at eta_star (-inf
    when sin(phi) = 0).
    """

    eps_plus: float
    eps_minus: float
    gap_min: float
    eta_star: float
    curvature_max: float


def midgap_perturbation(
    lam: float,
    N: int,
    eta: float,
    phi: float,
    t: float = 1.0,
    convention: str = "cells",
) -> MidgapSolution:
    """Degenerate perturbation theory for the midgap doublet.

    With c = corner_coupling, Omega = omega_factor and
    z = eta*e^{i phi} - c: eps_+- = +-(t/Omega)*|z|. The minimum gap over
    eta is 2*(t/Omega)*|c*sin(phi)| at eta_star = c*cos(phi), where the
    lower branch has curvature -t/(|c|*Omega*|sin(phi)|).
    """
    _check_chain(lam, N)
    c = corner_coupling(lam, N, convention)
    omega = omega_factor(lam, N, convention)
    eps = t * abs(eta * cmath.exp(1j * phi) - c) / omega
    sin_phi = math.sin(phi)
    gap_min = 2.0 * t * abs(c * sin_phi) / omega
    if c != 0.0 and sin_phi != 0.0:
        curvature_max = -t / (abs(c) * omega * abs(sin_phi))
    else:
        curvature_max = float("-inf")
    return MidgapSolution(
        eps_plus=eps,
        eps_minus=-eps,
        gap_min=gap_min,
        eta_star=c * math.cos(phi),
        curvature_max=curvature_max,
    )


def fidelity_perturbative(
    lam: float,
    N: int,
    eta: float,
    delta: float | np.ndarray,
    phi: float,
    convention: str = "cells",
) -> float | np.ndarray:
    """Overlap magnitude |<v_plus(eta-delta), v_plus(eta+delta)>| of the
    upper doublet vectors v_plus = (a_plus - e^{i arg z}*a_minus)/sqrt(2),
    z = eta*e^{i phi} - c, from one zero-mode pair. The branch phase
    e^{i arg z} is evaluated directly from arg z, so no square-root branch
    cut is crossed. No energy scale enters: the vectors are scale free.

    delta is one separation (the result is a float) or a sequence of them
    (the result is an array, one overlap each); the zero-mode pair is built
    once for all of them.

    Gauge invariant: multiplying either doublet vector by a unit phase
    leaves the value unchanged.
    """
    deltas = np.asarray(delta, dtype=np.float64)
    if np.any(deltas < 0):
        raise ValueError(f"delta must be >= 0, got {delta}")
    a_plus, a_minus = zero_modes(lam, N)
    c = corner_coupling(lam, N, convention)

    def v_plus(x: float) -> np.ndarray:
        mix = cmath.exp(1j * cmath.phase(x * cmath.exp(1j * phi) - c))
        return (a_plus - mix * a_minus) / math.sqrt(2.0)

    overlaps = [abs(np.vdot(v_plus(eta - d), v_plus(eta + d))) for d in deltas.ravel().tolist()]
    return float(overlaps[0]) if deltas.ndim == 0 else np.array(overlaps, dtype=np.float64).reshape(deltas.shape)


def fidelity_at_minimum(
    lam: float, N: int, delta: float, phi: float, convention: str = "cells"
) -> float:
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
