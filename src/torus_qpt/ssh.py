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
over them (`analytic_curvature`) is the perturbative comparison of a
curvature sweep. `_refine_peak` is the package's one extremum finder: it
places that sum's extremum, the sweep's peak and `validate`'s gap minimum.
Every closed form here reads the flux through `blocks.sin_cos`, and every
energy is in units of the hopping t.

Conventions. The dimensionless reference matrix h0 is the open
alternating ring (bonds -lambda within cells, +1 between cells: minus
the bands of `blocks.peierls_ring`) plus a corner compensation entry c
at (1,N)/(N,1). The ring block of `blocks.ring_stack` equals
-(h0 + h'), where h' holds only the corner remainders
eta*e^{i phi} - c at (N,1) and eta*e^{-i phi} - c at (1,N); so the ring
that ring_stack closes with the bond eta = c at phi = 0 is -h0, entry for
entry, and `validate`'s zero-mode check reads h0 from there. Every closed
form here reads the physical corner c = lambda^(N/2), which makes h0
annihilate the zero-mode vectors exactly. `validate --convention sites`
evaluates them on the 2N-site ring, whose physical corner lambda^N is the
sites corner of the N-site ring.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .blocks import critical_modes, ring_lams, sin_cos
from .models import ModelSpec, Record


def _check_chain(lam: float, N: int) -> None:
    if N < 4 or N % 2 != 0:
        raise ValueError(f"chain length must be even and >= 4, got N={N}")
    if not abs(lam) < 1.0:
        raise ValueError(f"localized zero modes require |lambda| < 1, got lambda={lam}")


def corner_coupling(lam: float, N: int) -> float:
    """Corner compensation entry c = lambda^(N/2) of the reference matrix
    h0: lambda to the number of unit cells."""
    return float(lam) ** (N // 2)


def omega_factor(lam: float, N: int) -> float:
    """Normalization Omega = (1 - c^2)/(1 - lambda^2), the exact finite
    geometric sum: the squared norm of the unnormalized zero-mode vectors."""
    c = corner_coupling(lam, N)
    return (1.0 - c * c) / (1.0 - lam * lam)


def zero_modes(lam: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only unit zero-mode pair (a_plus, a_minus) of h0.

    a_plus lives on odd sites (1, 3, ...) with amplitudes lambda^j;
    a_minus mirrors it on even sites from the opposite end. Both are
    normalized by the norm of the raw vectors, whose square is
    omega_factor(lam, N).
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


class MidgapSolution(Record):
    """First-order midgap doublet of the weakly closed ring.

    eps_plus/eps_minus are the doublet energies, gap_min the
    avoided-crossing minimum over eta, eta_star its location, and
    curvature_max the curvature of the lower branch at eta_star (-inf
    when sin(phi) = 0).
    """

    __slots__ = ("eps_plus", "eps_minus", "gap_min", "eta_star", "curvature_max")

    def __init__(self, eps_plus: float, eps_minus: float, gap_min: float, eta_star: float,
                 curvature_max: float) -> None:
        self._set_fields(eps_plus, eps_minus, gap_min, eta_star, curvature_max)


def midgap_perturbation(lam: float, N: int, eta: float, phi: float) -> MidgapSolution:
    """Degenerate perturbation theory for the midgap doublet, in units of t.

    With c = corner_coupling, Omega = omega_factor and
    z = eta*e^{i phi} - c: eps_+- = +-|z|/Omega. The minimum gap over
    eta is 2*|c*sin(phi)|/Omega at eta_star = c*cos(phi), where the
    lower branch has curvature -1/(|c|*Omega*|sin(phi)|).
    """
    _check_chain(lam, N)
    c = corner_coupling(lam, N)
    omega = omega_factor(lam, N)
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
    c = corner_coupling(lam, N)
    sin_phi, cos_phi = sin_cos(phi)
    phase = complex(cos_phi, sin_phi)

    def v_plus(x: float) -> np.ndarray:
        mix = cmath.exp(1j * cmath.phase(x * phase - c))
        return (a_plus - mix * a_minus) / math.sqrt(2.0)

    overlaps = [abs(np.vdot(v_plus(eta - d), v_plus(eta + d))) for d in deltas.ravel().tolist()]
    return float(overlaps[0]) if deltas.ndim == 0 else np.array(overlaps, dtype=np.float64).reshape(deltas.shape)


def critical_doublets(spec: ModelSpec) -> list[tuple[float, float]]:
    """(c_k, Omega_k) at the physical corner c_k = lambda_k^(N/2) of each critical
    mode of a honeycomb spec with c_k != 0; empty on the square lattice."""
    if spec.kind != "honeycomb":
        return []
    doublets = []
    for lam in ring_lams(spec.kind, spec.M, critical_modes(spec.M)):
        c = corner_coupling(lam, spec.N)
        if c != 0.0:
            doublets.append((c, omega_factor(lam, spec.N)))
    return doublets


def _d2_sum(spec: ModelSpec, doublets: list[tuple[float, float]], eta: float) -> float:
    """Closed-form curvature of E_g at eta from the modes' (c_k, Omega_k):
    the sum of the lower midgap levels' exact second derivatives
    -(1/Omega_k)*r_k^2/|z_k|, |z_k| = |eta*e^{i phi} - c_k| and r_k =
    c_k*sin(phi)/|z_k|, so the value is negative. |r_k| <= 1: no power of
    the tiny |z_k| is formed (its cube underflows from N = 584 at M = 7).
    At sin(phi) = 0 it is 0 away from the crossings and -inf at one."""
    sin_phi, cos_phi = sin_cos(spec.phi)
    total = 0.0
    for c, om in doublets:
        absz = math.hypot(eta - c * cos_phi, c * sin_phi)
        if absz == 0.0:
            return float("-inf")
        r = c * sin_phi / absz
        total -= 1.0 / om * r * r / absz
    return total


def _d2_slopes(spec: ModelSpec, doublets: list[tuple[float, float]], eta: float, h: float) -> tuple[float, float]:
    """h^3 and h^4 times _d2_sum's first and second eta-derivatives, both over
    3h: with u_k = (eta - c_k*cos(phi))/|z_k| and t_k = h/|z_k|, the terms
    r^2*u*t^2/Omega and r^2*(r^2 - 4u^2)*t^3/Omega. No power of the tiny
    |z_k| is formed (the fourth derivative alone is 1e438 at N = 832)."""
    sin_phi, cos_phi = sin_cos(spec.phi)
    slope = curve = 0.0
    for c, om in doublets:
        x = eta - c * cos_phi
        absz = math.hypot(x, c * sin_phi)
        r, u, t = c * sin_phi / absz, x / absz, h / absz
        w = r * r * t * t / om
        slope += w * u
        curve += w * t * (r * r - 4.0 * u * u)
    return slope, curve


def _refine_peak(slopes, eta: float, lo: float, hi: float, h: float, rising: bool) -> float:
    """The extremum in [lo, hi], from eta, of a function whose slope g rises
    through zero there when `rising` (a minimum) and falls otherwise; slopes(x)
    is (h^3*g(x), h^4*g'(x)) up to one positive factor. Newton steps (2 to 5),
    kept by bisection inside the bracket that each sign of g shrinks; the first
    step of at most 4 ulp of eta is the last (g is then below its roundoff)."""
    for _ in range(100):
        g, dg = slopes(eta)
        if (g < 0.0) == rising:
            lo = eta
        else:
            hi = eta
        step = -h * (g / dg) if dg != 0.0 else math.inf
        if abs(step) > 4.0 * math.ulp(eta) and not lo < eta + step < hi:
            step = 0.5 * (lo + hi) - eta
        if abs(step) <= 4.0 * math.ulp(eta):
            return eta + step
        eta += step
    return eta


def analytic_curvature(spec: ModelSpec, grid) -> tuple[np.ndarray, tuple | None]:
    """The perturbative comparison of a sweep: the closed-form curvature sum
    of the critical modes (see _d2_sum) at each eta of `grid`, and its
    extremum (eta_m_analytic, peak_analytic) on [grid[0], grid[-1]]: the
    deepest of the range's ends and of each mode's extremum c_k*cos(phi) in
    range, refined within |c_k*sin(phi)|/2 (_refine_peak on _d2_slopes).

    On the square lattice, which has no midgap doublet, the column is NaN
    and there is no extremum; nor is there one at sin(phi) = 0 (phi within
    one ulp of a multiple of pi) or when no critical mode has a nonzero
    corner.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if spec.kind != "honeycomb":
        return np.full(len(grid), np.nan), None
    doublets = critical_doublets(spec)
    column = np.array([_d2_sum(spec, doublets, x) for x in grid.tolist()])
    sin_phi, cos_phi = sin_cos(spec.phi)
    if sin_phi == 0.0 or not doublets:
        return column, None
    lo, hi = float(grid[0]), float(grid[-1])
    candidates = [lo, hi]
    for c, _ in doublets:
        eta, h = c * cos_phi, 0.5 * abs(c * sin_phi)
        if lo <= eta <= hi:
            bracket = max(lo, eta - h), min(hi, eta + h)
            candidates.append(_refine_peak(lambda x: _d2_slopes(spec, doublets, x, h), eta, *bracket, h, True))
    peak, eta_m = min((_d2_sum(spec, doublets, x), x) for x in candidates)
    return column, (eta_m, peak)
