"""Edge-state analytics for the dimerized flux ring.

For |lambda| < 1 the open alternating chain hosts two exponentially
localized zero-energy modes, one per sublattice (`zero_modes`). Closing
the ring through a weak boundary bond hybridizes them into a midgap
doublet. First-order degenerate perturbation theory in the boundary
coupling gives its scalars (`midgap_perturbation`: the doublet energies,
the avoided-crossing minimum and its location, the curvature of the
lower branch) and the overlap (fidelity) between upper doublet vectors
at neighbouring couplings (`fidelity_perturbative`, the one place the
doublet vectors are built). On the torus each critical mode k carries
such a doublet (`critical_doublets`), and the closed-form curvature sum
over them (`analytic_curvature`, minimized by `golden_section_min`) is the
perturbative comparison of a curvature sweep. Every closed form here
reads the flux through `blocks.sin_cos`, and every energy is in units of
the hopping t except `analytic_curvature`'s, which reads spec.t.

Conventions. The dimensionless reference matrix h0 (`build_h0`) is the
open alternating ring (bonds -lambda within cells, +1 between cells:
minus the bands of `blocks.peierls_ring`) plus a corner compensation
entry c at (1,N)/(N,1). The ring block of `blocks.ring_stack` equals
-(h0 + h'), where h' holds only the corner remainders
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

from .blocks import critical_modes, peierls_ring, ring_lams, sin_cos
from .models import ModelSpec

CONVENTIONS = ("cells", "sites")

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    """The reference matrix h0: minus the open ring's bonds (-lam
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


def midgap_perturbation(lam: float, N: int, eta: float, phi: float, convention: str = "cells") -> MidgapSolution:
    """Degenerate perturbation theory for the midgap doublet, in units of t.

    With c = corner_coupling, Omega = omega_factor and
    z = eta*e^{i phi} - c: eps_+- = +-|z|/Omega. The minimum gap over
    eta is 2*|c*sin(phi)|/Omega at eta_star = c*cos(phi), where the
    lower branch has curvature -1/(|c|*Omega*|sin(phi)|).
    """
    _check_chain(lam, N)
    c = corner_coupling(lam, N, convention)
    omega = omega_factor(lam, N, convention)
    sin_phi, cos_phi = sin_cos(phi)
    eps = abs(eta * complex(cos_phi, sin_phi) - c) / omega
    gap_min = 2.0 * abs(c * sin_phi) / omega
    if c != 0.0 and sin_phi != 0.0:
        curvature_max = -1.0 / (abs(c) * omega * abs(sin_phi))
    else:
        curvature_max = float("-inf")
    return MidgapSolution(
        eps_plus=eps,
        eps_minus=-eps,
        gap_min=gap_min,
        eta_star=c * cos_phi,
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
    sin_phi, cos_phi = sin_cos(phi)
    phase = complex(cos_phi, sin_phi)

    def v_plus(x: float) -> np.ndarray:
        mix = cmath.exp(1j * cmath.phase(x * phase - c))
        return (a_plus - mix * a_minus) / math.sqrt(2.0)

    overlaps = [abs(np.vdot(v_plus(eta - d), v_plus(eta + d))) for d in deltas.ravel().tolist()]
    return float(overlaps[0]) if deltas.ndim == 0 else np.array(overlaps, dtype=np.float64).reshape(deltas.shape)


def critical_doublets(spec: ModelSpec, convention: str = "cells") -> list[tuple[float, float]]:
    """(c_k, Omega_k) of each critical mode of a honeycomb spec with c_k != 0;
    empty on the square lattice, which has no midgap doublet."""
    if spec.kind != "honeycomb":
        return []
    doublets = []
    for lam in ring_lams(spec.kind, spec.M, critical_modes(spec.M)):
        c = corner_coupling(lam, spec.N, convention)
        if c != 0.0:
            doublets.append((c, omega_factor(lam, spec.N, convention)))
    return doublets


def _d2_sum(spec: ModelSpec, doublets: list[tuple[float, float]], eta: float) -> float:
    """Closed-form curvature of E_g at eta from the modes' (c_k, Omega_k):
    the sum of the lower midgap levels' exact second derivatives
    -(t/Omega_k)*r_k^2/|z_k|, |z_k| = |eta*e^{i phi} - c_k| and
    r_k = c_k*sin(phi)/|z_k|, so the value is negative. |r_k| <= 1, so no
    power of the tiny |z_k| is formed (its cube would underflow from N = 584
    at M = 7, phi = pi/4). At sin(phi) = 0 it is 0 away from the crossings
    and -inf at one."""
    sin_phi, cos_phi = sin_cos(spec.phi)
    total = 0.0
    for c, om in doublets:
        absz = math.hypot(eta - c * cos_phi, c * sin_phi)
        if absz == 0.0:
            return float("-inf")
        r = c * sin_phi / absz
        total -= spec.t / om * r * r / absz
    return total


def golden_section_min(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Golden-section minimizer of a unimodal f on [a, b]; returns the
    midpoint of the final bracket, once its width is <= tol or after 500
    steps (a bracket stops shrinking at the float spacing, which sweep's
    tol of 1e-12 of a range narrower than about 1e-4 of its ends undercuts)."""
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(500):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def analytic_curvature(spec: ModelSpec, grid, convention: str = "cells") -> tuple[np.ndarray, tuple | None]:
    """The perturbative comparison of a sweep: the closed-form curvature sum
    of the critical modes (see _d2_sum) at each eta of `grid`, and its
    golden-section extremum (eta_m_analytic, peak_analytic) on [grid[0],
    grid[-1]], to 1e-12 of that range. `convention` selects the corners
    c_k of the terms, each computed once.

    On the square lattice, which has no midgap doublet, the column is NaN
    and there is no extremum; nor is there one at sin(phi) = 0 (phi within
    one ulp of a multiple of pi) or when no critical mode has a nonzero
    corner.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if spec.kind != "honeycomb":
        return np.full(len(grid), np.nan), None
    doublets = critical_doublets(spec, convention)
    column = np.array([_d2_sum(spec, doublets, x) for x in grid.tolist()])
    if sin_cos(spec.phi)[0] == 0.0 or not doublets:
        return column, None
    lo, hi = float(grid[0]), float(grid[-1])
    tol = 1e-12 * (hi - lo)  # relative: an absolute 1e-12 is wider than eta_m from N = 72 on (M = 7)
    eta_m = float(golden_section_min(lambda x: _d2_sum(spec, doublets, x), lo, hi, tol=tol))
    return column, (eta_m, float(_d2_sum(spec, doublets, eta_m)))
