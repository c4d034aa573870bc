"""Edge-state analytics for the dimerized flux ring.

For |lambda| < 1 the open alternating chain hosts two exponentially
localized zero-energy modes, one per sublattice. Closing the ring
through a weak boundary bond hybridizes them into a midgap doublet;
first-order degenerate perturbation theory in the boundary coupling
gives the doublet energies, the avoided-crossing minimum, the curvature
of the lower branch, and the overlap (fidelity) between doublet states
at neighbouring couplings.

Conventions. The dimensionless reference matrix h0 is the alternating
ring (bonds -lambda within cells, +1 between cells) plus a corner
compensation entry c at (1,N)/(N,1); the physical ring block equals
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
import warnings
from dataclasses import dataclass, field

import numpy as np

CONVENTIONS = ("cells", "sites")

SOFT_WINDOW_FACTOR = 0.2


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


@dataclass(frozen=True)
class ZeroModePair:
    """Normalized zero modes of the reference matrix h0.

    a_plus lives on odd sites (1, 3, ...) with amplitudes lambda^j;
    a_minus mirrors it on even sites from the opposite end. omega is the
    squared norm of the unnormalized vectors (under 'cells') and corner
    is the h0 compensation entry c.
    """

    lam: float
    n_sites: int
    a_plus: np.ndarray = field(repr=False)
    a_minus: np.ndarray = field(repr=False)
    omega: float
    corner: float

    def __post_init__(self) -> None:
        for name in ("a_plus", "a_minus"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def zero_modes(lam: float, N: int, convention: str = "cells") -> ZeroModePair:
    """Construct the localized zero-mode pair of the alternating chain.

    Parameters
    ----------
    lam : float
        Within-cell/between-cell hopping ratio, |lam| < 1.
    N : int
        Number of sites, even and >= 4.
    convention : {'cells', 'sites'}
        Exponent convention for the corner entry and omega.

    Returns
    -------
    ZeroModePair
        Unit-norm vectors supported on disjoint sublattices.
    """
    _check_chain(lam, N)
    _check_convention(convention)
    cells = N // 2
    u_plus = np.zeros(N)
    u_minus = np.zeros(N)
    for j in range(cells):
        u_plus[2 * j] = lam ** j
        u_minus[2 * j + 1] = lam ** (cells - 1 - j)
    norm = float(np.linalg.norm(u_plus))
    return ZeroModePair(
        lam=float(lam),
        n_sites=N,
        a_plus=u_plus / norm,
        a_minus=u_minus / norm,
        omega=omega_factor(lam, N, convention),
        corner=corner_coupling(lam, N, convention),
    )


def build_h0_hprime(
    lam: float, N: int, eta: float, phi: float, convention: str = "cells"
) -> tuple[np.ndarray, np.ndarray]:
    """Split the dimensionless ring matrix into h0 + h'.

    h0 carries the alternating bonds (-lam within cells, +1 between
    cells) and the corner compensation c at (1,N) and (N,1); h' carries
    only the corner remainders eta*e^{i phi} - c at (N,1) and its
    conjugate at (1,N), so it has rank <= 2. By construction
    -t*(h0 + h') is the physical ring block.
    """
    if N < 4 or N % 2 != 0:
        raise ValueError(f"chain length must be even and >= 4, got N={N}")
    c = corner_coupling(lam, N, convention)
    h0 = np.zeros((N, N))
    for l in range(N - 1):
        amp = -lam if l % 2 == 0 else 1.0
        h0[l, l + 1] = amp
        h0[l + 1, l] = amp
    h0[0, N - 1] = c
    h0[N - 1, 0] = c
    h1 = np.zeros((N, N), dtype=np.complex128)
    corner = eta * cmath.exp(1j * phi) - c
    h1[N - 1, 0] = corner
    h1[0, N - 1] = corner.conjugate()
    return h0, h1


@dataclass(frozen=True)
class MidgapSolution:
    """First-order midgap doublet of the weakly closed ring.

    eps_plus/eps_minus are the doublet energies, v_plus/v_minus the
    corresponding mixed vectors, gap_min the avoided-crossing minimum
    over eta, eta_star its location, curvature_max the curvature of the
    lower branch at eta_star (-inf when sin(phi) = 0), and at_crossing
    marks the exactly degenerate point (sin(phi) = 0 and eta = c).
    """

    eps_plus: float
    eps_minus: float
    v_plus: np.ndarray = field(repr=False)
    v_minus: np.ndarray = field(repr=False)
    gap_min: float
    eta_star: float
    curvature_max: float
    at_crossing: bool = False

    def __post_init__(self) -> None:
        for name in ("v_plus", "v_minus"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def midgap_perturbation(
    lam: float,
    N: int,
    eta: float,
    phi: float,
    t: float = 1.0,
    convention: str = "cells",
    warn: bool = True,
) -> MidgapSolution:
    """Degenerate perturbation theory for the midgap doublet.

    With c and Omega from `zero_modes` and z = eta*e^{i phi} - c:
    eps_+- = +-(t/Omega)*|z|, and the doublet vectors are
    (a_plus -+ e^{i arg z} * a_minus)/sqrt(2). The branch phase
    e^{i arg z} is evaluated directly from arg z, so no square-root
    branch cut is crossed. The minimum gap over eta is
    2*(t/Omega)*|c*sin(phi)| at eta_star = c*cos(phi), where the lower
    branch has curvature -t/(|c|*Omega*|sin(phi)|).

    A soft validity warning (never an error) fires for
    eta > 0.2*(1-|lam|)*t so that sweeps may deliberately leave the
    perturbative window; pass warn=False to silence it.
    """
    zm = zero_modes(lam, N, convention)
    if warn:
        window = SOFT_WINDOW_FACTOR * (1.0 - abs(lam)) * t
        if eta > window:
            warnings.warn(
                f"eta={eta:.6g} exceeds the soft perturbative window {window:.6g}; "
                "first-order results are extrapolations there",
                UserWarning,
                stacklevel=2,
            )
    c = zm.corner
    omega = zm.omega
    z = eta * cmath.exp(1j * phi) - c
    absz = abs(z)
    eps = t * absz / omega
    theta = cmath.phase(z)
    mix = cmath.exp(1j * theta)
    v_plus = (zm.a_plus - mix * zm.a_minus) / math.sqrt(2.0)
    v_minus = (zm.a_plus + mix * zm.a_minus) / math.sqrt(2.0)
    sin_phi = math.sin(phi)
    gap_min = 2.0 * t * abs(c * sin_phi) / omega
    if c != 0.0 and sin_phi != 0.0:
        curvature_max = -t / (abs(c) * omega * abs(sin_phi))
    else:
        curvature_max = float("-inf")
    return MidgapSolution(
        eps_plus=eps,
        eps_minus=-eps,
        v_plus=v_plus,
        v_minus=v_minus,
        gap_min=gap_min,
        eta_star=c * math.cos(phi),
        curvature_max=curvature_max,
        at_crossing=(absz == 0.0),
    )


def fidelity_perturbative(
    lam: float,
    N: int,
    eta: float,
    delta: float,
    phi: float,
    t: float = 1.0,
    convention: str = "cells",
    warn: bool = True,
) -> float:
    """Overlap magnitude |<v_plus(eta-delta), v_plus(eta+delta)>|.

    Gauge invariant: multiplying either doublet vector by a unit phase
    leaves the value unchanged.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    lo = midgap_perturbation(lam, N, eta - delta, phi, t, convention, warn=warn)
    hi = midgap_perturbation(lam, N, eta + delta, phi, t, convention, warn=warn)
    return float(abs(np.vdot(lo.v_plus, hi.v_plus)))


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
