"""Ground-state assembly, curvature sweeps, scaling fits, and fidelity.

The half-filled ground-state energy E_g(eta) is the sum of all negative
single-particle levels. Its second derivative in the boundary coupling
develops a sharpening negative peak at the pseudo-critical point eta_m
on the honeycomb torus (driven by the midgap doublets of the critical
momentum window), while the square torus shows no such growth. This
module locates the peak, fits its finite-size scaling, and computes the
midgap fidelity from exact eigenvectors.

Energies along sweeps are assembled from the momentum blocks, which
carry the same multiset spectrum as the full lattice (block-union
property, validated to 1e-10*t); `ground_energy_exact`, the tests'
oracle, diagonalizes the full lattice. Every ring coupling comes from
`blocks.ring_lams`, every stack of rings from `blocks.ring_stack`, and
every dense ring level from `blocks.ring_levels`, the one dense
ring-solve path.

Sweeps use a spectral-shift engine. The boundary bond is a rank-2 change
V of the eta-independent open ring H0, so by Lloyd's formula (Lloyd,
Proc. Phys. Soc. 90, 207 (1967); Krein's spectral shift) each block adds

    dE(eta) = -(1/pi) int_0^inf ln|q(y, eta)| dy,
    q = det(1 - G0(iy) V) = 1 + A*eta + B*eta^2,

with A = 2t*cos(phi)*G_1N and B = t^2*(G_1N^2 - G_11*G_NN) from the
boundary entries of G0(iy) = (iy - H0)^-1. The curvature d2E/deta2 is
the same integral over d2/deta2 ln|q| = Re[(2B*q - (A + 2B*eta)^2)/q^2],
with no finite difference. E_g(eta) = E_g(0) + sum_k dE_k(eta), where
E_g(0) sums the dense levels of the open rings. The three G0 entries come
from O(N) continued fractions, once per distinct mode (m and M - m share
them) on one node set, and serve every eta of the sweep. The quadrature
is 10-point Gauss-Legendre on unit panels of s = ln(y/t) over [ln y_lo,
ln(1e5*(4 + max eta))], y_lo <= 1e-14 below every midgap gap, plus the
end terms y*f(y) at both cuts (the tail falls like 1/y^2).

The nodes come in two kinds. A near node has |A|*max eta + |B|*(max
eta)^2 <= 1/4, so |q - 1| <= 1/4 for every eta of the range, and ln|q| is
log1p(q - 1). Near nodes are most of the table (85 % at M = 7, N = 8..32),
and their summed ln|q| and curvature are analytic in eta on |eta| < 2*max
eta. So the table keeps those two sums only at 33 Chebyshev points of
[0, max eta], each computed exactly, and an eta reads them back by
barycentric interpolation (relative error below 1e-15). A far node's
ln|q| comes from the factored q, so neither large y nor a level crossing
zero loses digits, and it is evaluated at every eta. A sweep therefore
costs O(near nodes * 33 + far nodes * etas) instead of one O(N^3)
eigensolve per eta. Against the dense sums, |E_g - dense| <= 1e-14 *
sum|eps| on every tested case (honeycomb and square, M = 2..31, N =
2..80, eta up to MAX_ETA = 100, exact crossings at phi = 0).
`_ground_energies`, the dense path over `ring_levels`, serves the eta = 0
term and the tests' oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blocks import critical_modes, ring_lams, ring_levels, ring_stack
from .models import ModelSpec, build_lattice
from .output import csv_text
from .ssh import (
    corner_coupling,
    fidelity_perturbative,
    midgap_perturbation,
    omega_factor,
)

DEFAULT_STEPS = 200

MIN_STEPS = 64

MAX_ETA = 100.0  # largest eta a sweep accepts: the engine's error bound is verified up to it

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Spectral-shift quadrature: _GAUSS_POINTS-point Gauss-Legendre on unit
# panels of s = ln(y/t), from y = _Y_LO*t to at least _Y_HI*(4 + max eta)*t.
_GAUSS_POINTS = 10
# Chebyshev samples of the near-node sums on [0, eta_max]; error O(rho^-K), rho = 3 + sqrt(8).
_CHEB_POINTS = 33
_Y_LO = 1e-14
_Y_HI = 1e5
# Largest number of entries in one (eta, node) temporary (128 KiB complex).
_BLOCK_ENTRIES = 2**13


# ---------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class SweepResult:
    """Curvature sweep over a uniform eta grid.

    d2_numeric holds the exact curvature d2E_g/deta2 from the spectral-shift
    table (NaN at the grid endpoints; the kink of a level crossing zero is
    not in it); d2_analytic the closed-form curvature sum (NaN for square
    lattices). eta_m/peak locate the refined numeric extremum;
    eta_m_analytic/peak_analytic locate the analytic one when defined.
    flags may contain 'first-order-crossing', 'peak-not-bracketed' and
    'level-crossing'.
    """

    eta_grid: np.ndarray = field(repr=False)
    e_g_curve: np.ndarray = field(repr=False)
    d2_numeric: np.ndarray = field(repr=False)
    d2_analytic: np.ndarray = field(repr=False)
    eta_m: float
    peak: float
    eta_m_analytic: float | None
    peak_analytic: float | None
    flags: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in ("eta_grid", "e_g_curve", "d2_numeric", "d2_analytic"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class FidelityCurve:
    """Midgap fidelity versus half-separation delta at fixed center."""

    delta_grid: np.ndarray = field(repr=False)
    f_perturbative: np.ndarray = field(repr=False)
    f_exact: np.ndarray = field(repr=False)
    eta_center: float

    def __post_init__(self) -> None:
        for name in ("delta_grid", "f_perturbative", "f_exact"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# ground-state energy


def _ground_energies(spec: ModelSpec, etas) -> np.ndarray:
    """E_g at each eta: each block's negative levels summed, then the blocks
    added in ascending mode order.

    Sweeps take only the eta = 0 term from here; the dense sums at other
    etas are the oracle of the spectral-shift engine."""
    levels = ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, etas, spec.phi, spec.t)
    negative = np.count_nonzero(levels < 0.0, axis=-1)
    sums = np.empty(negative.shape)
    for k in set(negative.ravel().tolist()):  # np.unique would import numpy.ma (+1.7 MB)
        rings = negative == k
        sums[rings] = levels[rings, :k].sum(axis=-1)
    total = np.zeros(len(etas))
    for column in sums.T:
        total += column
    return total


def exact_midgap_gap(lam: float, N: int, eta: float, phi: float, t: float = 1.0) -> float:
    """Gap between the two levels closest to zero in the exact ring block."""
    evals = ring_levels("honeycomb", [lam], N, [eta], phi, t)[0, 0]
    return float(evals[N // 2] - evals[N // 2 - 1])


def ground_energy_exact(spec: ModelSpec) -> float:
    """E_g at spec.eta: the sum of all negative levels of the full lattice
    (exact zero modes contribute nothing). Its callers are test_criticality's
    block-union and band/midgap-split checks, which need a full-lattice E_g."""
    evals = np.linalg.eigvalsh(build_lattice(spec).entries)
    return float(evals[evals < 0.0].sum())


# ---------------------------------------------------------------------------
# analytic curvature


def d2_analytic(spec: ModelSpec, eta: float, convention: str = "cells", modes: list[int] | None = None) -> float:
    """Closed-form curvature of E_g in eta from the critical-window sum:
    sum_k t^4 c_k^2 sin^2(phi) / (Omega_k^4 (eps_k^-)^3), each term the
    exact second derivative of the perturbative lower midgap level.

    The (eps^-)^3 < 0 factor carries the sign, so the value is negative
    and matches the finite-difference curve without any sign fix. At
    sin(phi) = 0 the value is 0 away from the crossings and -inf at one
    (the peak degenerates into a delta spike there). Restricting `modes`
    isolates single-momentum contributions.
    """
    return _d2_sum(spec, _d2_terms(spec, convention, modes), eta)


def _d2_terms(spec: ModelSpec, convention: str, modes: list[int] | None = None) -> list[tuple[float, float]]:
    """(c_k, Omega_k) of each mode (default: the critical window) with c_k != 0."""
    if spec.kind != "honeycomb":
        raise ValueError("analytic curvature is defined for honeycomb specs only")
    terms = []
    for lam in ring_lams(spec.kind, spec.M, critical_modes(spec.M) if modes is None else modes):
        c = corner_coupling(lam, spec.N, convention)
        if c != 0.0:
            terms.append((c, omega_factor(lam, spec.N, convention)))
    return terms


def _d2_sum(spec: ModelSpec, terms: list[tuple[float, float]], eta: float) -> float:
    # Scalar math on purpose: NumPy's vectorized ** rounds differently from Python's.
    sin_phi = math.sin(spec.phi)
    s2 = sin_phi * sin_phi
    total = 0.0
    for c, om in terms:
        absz2 = (eta - c * math.cos(spec.phi)) ** 2 + c * c * s2
        if s2 == 0.0:
            if absz2 == 0.0:
                return float("-inf")
            continue
        cube = (-spec.t * math.sqrt(absz2) / om) ** 3  # (eps^-)^3
        if cube == 0.0:
            raise RuntimeError(f"analytic curvature out of double range: (eps^-)^3 underflows to 0 at eta={eta:.6g} "
                               f"for the mode with c_k={c:.3g}")
        total += (spec.t ** 4) * c * c * s2 / (om ** 4 * cube)
    return total


# ---------------------------------------------------------------------------
# spectral-shift sweep engine


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """_GAUSS_POINTS-point Gauss-Legendre nodes and weights on [0, 1], by
    Newton's method on the Legendre three-term recurrence."""
    n = _GAUSS_POINTS
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        one_minus_x2 = (1.0 - x) * (1.0 + x)  # not 1 - x*x, which cancels near the ends
        dp = n * (p0 - x * p1) / one_minus_x2
        x = x - p1 / dp
    nodes, weights = 0.5 * (1.0 + x), 1.0 / (one_minus_x2 * dp * dp)
    nodes.setflags(write=False)  # cached: every caller shares them
    weights.setflags(write=False)
    return nodes, weights


def _boundary_green(rings: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G_11, G_NN and G_1N of (z - ring)^-1, one row per ring of a stack of
    real tridiagonal (open) rings and one column per z, by continued
    fractions over the sites.

    Each running value is a resolvent entry of a sub-chain, so at z = iy
    none exceeds 1/y in size."""
    a = rings.diagonal(0, 1, 2).real.T[:, :, None]
    b = rings.diagonal(1, 1, 2).real.T[:, :, None]
    g = 1.0 / (z - a[0])
    g1n = g
    for j in range(1, len(a)):
        g = 1.0 / (z - a[j] - b[j - 1] * b[j - 1] * g)
        g1n = g1n * b[j - 1] * g
    gnn = g
    g = 1.0 / (z - a[-1])
    for j in range(len(a) - 2, -1, -1):
        g = 1.0 / (z - a[j] - b[j] * b[j] * g)
    return g, gnn, g1n


def _shift_table(spec: ModelSpec, eta_max: float, y_lo: float = _Y_LO):
    """Everything a sweep needs for E_g(eta) = E_g(0) + dE(eta) and its
    curvature at 0 <= eta <= eta_max: E_g(0) and the quadrature terms of
    ln|q(y, eta)|, where q = 1 + A*eta + B*eta^2 = det(1 - G0(iy) V) on the
    boundary sites {1, N}, on the nodes of modes m <= M/2 and m = M. Mode
    M - m has mode m's entries (square: equal lambdas; honeycomb: lambda ->
    -lambda is the gauge diag(+1,-1,-1,+1,...), which fixes both boundary
    sites as N % 4 == 0), so the weights count each other mode twice."""
    s_lo = math.log(y_lo)
    panels = math.ceil(math.log(_Y_HI * (4.0 + eta_max)) - s_lo)
    x, w = _gauss_legendre()
    s = np.concatenate(([s_lo], (s_lo + np.arange(panels)[:, None] + x).ravel(), [s_lo + panels]))
    y = spec.t * np.exp(s)
    # end terms: int_0^y_lo f ~ y_lo*f(y_lo); the tail f ~ C/y^2 integrates to y_hi*f(y_hi)
    weights = y * np.concatenate(([1.0], np.tile(w, panels), [1.0]))
    t, cos_phi, s2, M = spec.t, math.cos(spec.phi), math.sin(spec.phi) ** 2, spec.M
    modes = [*range(1, M // 2 + 1), M]
    rings = np.concatenate(list(ring_stack(spec.kind, ring_lams(spec.kind, M, modes), spec.N, [0.0], spec.phi, t)))
    g11, gnn, g1n = (g.ravel() for g in _boundary_green(rings, 1j * y))
    a = 2.0 * t * cos_phi * g1n
    b = t * t * (g1n * g1n - g11 * gnn)
    d4 = t * t * (g11 * gnn - s2 * g1n * g1n)  # (A^2 - 4B)/4, formed without cancellation
    weights = np.concatenate([weights if 2 * m == M or m == M else 2.0 * weights for m in modes])
    lowest = np.arange(len(a)) % len(y) == 0  # each mode's node y = y_lo*t
    return float(_ground_energies(spec, [0.0])[0]), _mode_terms(spec.kind, a, b, d4, weights, eta_max, lowest)


def _in_double_range(step):
    """Run a step of the engine with NumPy raising on overflow, invalid values
    and division by zero, and report those as a sweep out of double range."""
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return step(*args, **kwargs)
        except FloatingPointError as exc:
            raise RuntimeError(f"the spectral-shift engine is out of double range ({exc})") from None
    return functools.wraps(step)(run)


class _ShiftTerms(NamedTuple):
    """The quadrature terms of a shift table (see _mode_terms)."""

    points: np.ndarray  # _CHEB_POINTS Chebyshev points of the second kind on [0, eta_max]
    bary: np.ndarray  # their barycentric weights
    near: np.ndarray  # (2, _CHEB_POINTS): near-node sums of ln|q| and of d2 ln|q| at the points
    w_far: np.ndarray  # far-node quadrature weights
    far: tuple  # factored far q, as _far_nodes reads it
    lowest: np.ndarray  # far-node positions of the modes' nodes at y = y_lo*t


@_in_double_range
def _mode_terms(kind: str, a: np.ndarray, b: np.ndarray, d4: np.ndarray, weights: np.ndarray, eta_max: float,
                lowest: np.ndarray) -> _ShiftTerms:
    """Split the nodes in two. Where |A|*eta_max + |B|*eta_max^2 <= 1/4,
    |q - 1| <= 1/4 for every eta in range and ln|q| is log1p(q - 1);
    elsewhere it comes from a factored q, which keeps its relative accuracy
    where q nears 0 (a level crossing zero). The near nodes' weighted sums
    are analytic in eta for |eta| < 2*eta_max, so they are kept only at
    _CHEB_POINTS Chebyshev points and interpolated; `lowest` marks the
    nodes whose sign of Re q the level-crossing check reads."""
    near = np.abs(a) * eta_max + np.abs(b) * (eta_max * eta_max) <= 0.25
    far = ~near
    if kind == "honeycomb":
        a, b = a.real, b.real
    j = np.arange(_CHEB_POINTS)
    points = eta_max * (0.5 - 0.5 * np.cos(np.pi * j / (_CHEB_POINTS - 1)))  # 0 and eta_max exactly
    bary = np.where(j % 2 == 0, 1.0, -1.0)
    bary[[0, -1]] *= 0.5
    w_near, a_near, b_near = weights[near], a[near], b[near]
    sums = np.empty((2, _CHEB_POINTS))
    rows = max(1, _BLOCK_ENTRIES // max(1, len(w_near)))
    for start in range(0, _CHEB_POINTS, rows):
        part = slice(start, start + rows)
        for i, value in enumerate(_near_nodes(kind, a_near, b_near, points[part, None])):
            sums[i, part] = (value * w_near).sum(axis=1)
    factored = _factor(kind, a[far], b[far], d4[far])
    return _ShiftTerms(points, bary, sums, weights[far], factored, np.flatnonzero(lowest[far]))


def _factor(kind: str, a: np.ndarray, b: np.ndarray, d4: np.ndarray) -> tuple:
    """The factored q of far nodes, as _far_nodes reads it."""
    if kind == "honeycomb":
        # bipartite ring at imaginary energy: A, B > 0 and d4 < 0 are real
        # and q = B*(eta - R)^2 + J with R = -A/(2B), J = -d4/B > 0
        return -0.5 * a / b, b, -d4.real / b
    # q = (B*eta - Q)(Q*eta - 1)/Q with Q the larger root of Q^2 + A*Q + B;
    # Q = 0 only where A = B = 0, and such nodes are near
    root = np.sqrt(d4)
    root[(a.conj() * root).real < 0.0] *= -1.0
    big = -(0.5 * a + root)
    return b, big, np.log(np.abs(big))


def _near_nodes(kind: str, a: np.ndarray, b: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln|q| = log1p(q - 1) and its exact second eta-derivative
    Re[(2B*q - (A + 2B*eta)^2)/q^2] at each node, for a column of etas."""
    p = eta * (a + b * eta)  # q - 1
    q, slope = 1.0 + p, a + 2.0 * b * eta
    d2 = (2.0 * b * q - slope * slope) / (q * q)
    if kind == "honeycomb":
        return np.log1p(p), d2
    return 0.5 * np.log1p(2.0 * p.real + (p.real * p.real + p.imag * p.imag)), d2.real


def _far_nodes(kind: str, factored: tuple, eta: np.ndarray, logs: bool = True):
    """ln|q| (None unless `logs`) and its exact second eta-derivative at each
    node from the factored q, for a column of etas."""
    f0, f1, f2 = factored
    if kind == "honeycomb":
        d = eta - f0
        bd2 = f1 * (d * d)
        q = bd2 + f2
        return np.log(q) if logs else None, 2.0 * f1 * (f2 - bd2) / q**2
    x1, x2 = f0 * eta - f1, f1 * eta - 1.0
    u, v = f0 / x1, f1 / x2
    return np.log(np.abs(x1 * x2)) - f2 if logs else None, -(u * u + v * v).real


def _near_sums(terms: _ShiftTerms, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The near nodes' sums of ln|q| and of its curvature for a column of
    etas, by barycentric interpolation in the Chebyshev samples (the sample
    itself where eta is a point)."""
    d = eta - terms.points
    row, col = np.nonzero(d == 0.0)
    d[row, col] = 1.0
    c = terms.bary / d
    scale = c.sum(axis=1)
    ln, d2 = ((c * values).sum(axis=1) / scale for values in terms.near)
    ln[row], d2[row] = terms.near[:, col]
    return ln, d2


@_in_double_range
def _mode_shift(kind: str, terms: _ShiftTerms, eta: np.ndarray, logs: bool = True):
    """Quadrature sums of ln|q(y, eta)| (None unless `logs`) and of its exact
    second eta-derivative over the table's nodes, for a column of etas: the
    near sums interpolated, the far nodes summed."""
    near_ln, near_d2 = _near_sums(terms, eta)
    far_ln, far_d2 = _far_nodes(kind, terms.far, eta, logs)
    d2 = near_d2 + (far_d2 * terms.w_far).sum(axis=1)
    return (near_ln + (far_ln * terms.w_far).sum(axis=1) if logs else None), d2


def _shifted_energies(spec: ModelSpec, table, etas) -> tuple[np.ndarray, np.ndarray]:
    """E_g(eta) = E_g(0) - (1/pi) * sum_k int_0^inf ln|q_k(y, eta)| dy and
    its exact curvature, the same integral over d^2/deta^2 ln|q_k|. An
    eta's values depend on that eta and the table alone (row sums)."""
    e0, terms = table
    etas = np.asarray(etas, dtype=np.float64)
    shift, curvature = np.zeros(len(etas)), np.zeros(len(etas))
    rows = max(1, _BLOCK_ENTRIES // (len(terms.w_far) + _CHEB_POINTS))
    for start in range(0, len(etas), rows):
        part = slice(start, start + rows)
        shift[part], curvature[part] = _mode_shift(spec.kind, terms, etas[part, None])
    return e0 - shift / math.pi, -curvature / math.pi


def _shifted_curvature(spec: ModelSpec, table, eta: float) -> float:
    """_shifted_energies(spec, table, [eta])[1][0], without the logarithms."""
    return float(-_mode_shift(spec.kind, table[1], np.array([[eta]]), logs=False)[1][0] / math.pi)


def _level_crossing(kind: str, terms: _ShiftTerms, grid: np.ndarray) -> bool:
    """Whether Re q at some mode's node y = y_lo*t changes sign between
    adjacent etas of the grid: a ring level crossing zero there. A near node
    keeps Re q >= 3/4, and a honeycomb ring's q = B*(eta - R)^2 + J stays
    positive, so only the square lattice's far nodes are read."""
    if kind == "honeycomb":
        return False
    f0, f1, _ = (f[terms.lowest] for f in terms.far)
    negative = ((f0 * grid[:, None] - f1) * (f1 * grid[:, None] - 1.0) / f1).real < 0.0
    return bool((negative[1:] != negative[:-1]).any())


# ---------------------------------------------------------------------------
# sweeps


def golden_section_min(f, a: float, b: float, tol: float = 1e-12, max_iter: int = 500) -> float:
    """Golden-section minimizer of a unimodal f on [a, b]; returns the
    midpoint of the final bracket (width <= tol or max_iter reached)."""
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
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


def sweep(
    spec: ModelSpec,
    eta_min: float | None = None,
    eta_max: float | None = None,
    steps: int | None = None,
    convention: str = "cells",
) -> SweepResult:
    """Sweep E_g and its exact curvature over a uniform eta grid and locate
    the curvature peak.

    The grid has `steps` + 1 points on [eta_min, eta_max]. A bound left as
    None takes its default: eta_min = 0, and eta_max = 3*max_k c_k*cos(phi)
    clipped to [0, 1] on the honeycomb lattice (1 when that is empty or on
    the square lattice). ValueError, before any work, unless steps >=
    MIN_STEPS and 0 <= eta_min < eta_max <= MAX_ETA.

    E_g and d2E_g/deta2 come from one spectral-shift table (see the module
    docstring), whose lower cut y_lo*t, y_lo = min(1e-14, 1e-4*min_k
    |c_k*sin(phi)|/Omega_k) over the critical modes, is below every midgap
    gap. The peak is the interior grid argmax of |d2_numeric|, refined by
    golden-section search on |d2| within one step (to 1e-6 of a step). An
    argmax on the first or last interior point is flagged
    'peak-not-bracketed' and left unrefined; sin(phi) = 0 on the honeycomb
    lattice marks the sweep 'first-order-crossing' (the spike is a level
    crossing, a kink of E_g) and also skips refinement. 'level-crossing'
    reports that some ring level crosses zero between two grid points (Re q
    changes sign at a mode's node y = y_lo*t): E_g has a kink there, whose
    delta-function curvature d2_numeric does not hold. It does not change
    the refinement. When the analytic curve applies (honeycomb, sin(phi) !=
    0, some critical mode with c_k != 0), its golden-section extremum (to
    1e-12 of the range) is reported alongside as (eta_m_analytic,
    peak_analytic); else both are None. The d2_analytic column sums
    per-mode constants computed once, bit for bit equal to one d2_analytic
    call per eta.

    RuntimeError when the engine leaves double range (M = 7, N = 800, say):
    its array arithmetic overflows, divides by zero or turns invalid (NumPy
    raises there instead of warning), E_g, an interior d2_numeric value or
    the peak is not finite, or a mode's (eps^-)^3 underflows to 0.
    """
    steps = DEFAULT_STEPS if steps is None else int(steps)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}, got {steps}")
    terms = _d2_terms(spec, convention) if spec.kind == "honeycomb" else []
    lo = 0.0 if eta_min is None else float(eta_min)
    if eta_max is not None:
        hi = float(eta_max)
    else:
        hi = 3.0 * max(abs(c) for c, _ in terms) * math.cos(spec.phi) if terms else 1.0
        hi = min(hi, 1.0) if hi > 0.0 else 1.0
    if not 0.0 <= lo < hi <= MAX_ETA:
        raise ValueError(f"need finite 0 <= eta_min < eta_max <= {MAX_ETA:g}, got [{lo}, {hi}]")

    gaps = [abs(c * math.sin(spec.phi)) / om for c, om in terms]
    table = _shift_table(spec, hi, min([_Y_LO] + [1e-4 * gap for gap in gaps if gap > 0.0]))
    grid = np.linspace(lo, hi, steps + 1)
    h = (hi - lo) / steps
    e_curve, d2_num = _shifted_energies(spec, table, grid)
    d2_num[[0, -1]] = np.nan  # at eta = 0 a square ring's zero level puts ~ -1/y_lo here
    if not (np.isfinite(e_curve).all() and np.isfinite(d2_num[1:steps]).all()):
        raise RuntimeError(f"E_g or its curvature is not finite on the grid at M={spec.M}, N={spec.N}: "
                           "the spectral-shift engine is out of double range")

    if spec.kind == "honeycomb":
        d2_ana = np.array([_d2_sum(spec, terms, x) for x in grid.tolist()])
    else:
        d2_ana = np.full(steps + 1, np.nan)

    flags: list[str] = []
    first_order = spec.kind == "honeycomb" and math.sin(spec.phi) == 0.0
    if first_order:
        flags.append("first-order-crossing")

    i_star = 1 + int(np.argmax(np.abs(d2_num[1:steps])))
    if i_star == 1 or i_star == steps - 1:
        flags.append("peak-not-bracketed")

    eta_m = float(grid[i_star])
    if not flags:
        eta_m = golden_section_min(lambda x: -abs(_shifted_curvature(spec, table, x)), eta_m - h, eta_m + h,
                                   tol=1e-6 * h)
    peak = _shifted_curvature(spec, table, eta_m)
    if not math.isfinite(peak):
        raise RuntimeError(f"curvature peak is not finite at eta={eta_m:.6g} (M={spec.M}, N={spec.N})")
    if _level_crossing(spec.kind, table[1], grid):
        flags.append("level-crossing")  # reported only: the refinement above does not depend on it

    eta_m_analytic = peak_analytic = None
    if spec.kind == "honeycomb" and not first_order and terms:
        tol = 1e-12 * (hi - lo)  # relative: an absolute 1e-12 is wider than eta_m from N = 72 on (M = 7)
        eta_m_analytic = float(golden_section_min(lambda x: _d2_sum(spec, terms, x), lo, hi, tol=tol))
        peak_analytic = float(_d2_sum(spec, terms, eta_m_analytic))

    return SweepResult(
        eta_grid=grid,
        e_g_curve=e_curve,
        d2_numeric=d2_num,
        d2_analytic=d2_ana,
        eta_m=eta_m,
        peak=peak,
        eta_m_analytic=eta_m_analytic,
        peak_analytic=peak_analytic,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# scaling


def linear_fit(x, y) -> dict:
    """Ordinary least-squares line y = slope*x + intercept with R^2, as
    {"slope", "intercept", "r2"}."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("linear_fit needs two same-length vectors with >= 2 points")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r2": float(r2)}


REFERENCE_SLOPE_ETA = -1.0 / 5.0
REFERENCE_INTERCEPT_ETA = -6.0 / 5.0
REFERENCE_SLOPE_PEAK = 4.0 / 25.0
REFERENCE_INTERCEPT_PEAK = -6.0 / 5.0


def scaling_scan(
    M: int,
    phi: float,
    t: float,
    n_list,
    steps: int = 128,
    convention: str = "cells",
) -> dict:
    """Finite-size scaling of the curvature peak on the honeycomb torus.

    Runs one sweep per ring length N (eta = 0 spec, auto range), then
    fits ln(eta_m) and ln|peak| against N by ordinary least squares.
    Returns the scaling.json document: n_values, ln_eta_m, ln_abs_peak,
    the fits fit_eta and fit_peak (linear_fit's), and paper_comparison,
    external reference constants attached for comparison only (they are
    not a pass/fail gate).

    ValueError rejects the input before any sweep: sin(phi) = 0, fewer
    than two distinct ring lengths, or an (M, N) that ModelSpec rejects
    (every spec is built first). RuntimeError reports a sweep whose
    curvature peak is not bracketed by its grid (M = 11 at N = 8, say).
    """
    if math.sin(phi) == 0.0:
        raise ValueError("scaling scan needs sin(phi) != 0 (otherwise the transition is first order)")
    n_values = sorted(set(int(n) for n in n_list))
    if len(n_values) < 2:
        raise ValueError(f"a scaling fit needs at least two distinct ring lengths, got {n_values}")
    specs = [ModelSpec("honeycomb", M, n, t, 0.0, phi) for n in n_values]

    eta_ms = []
    peaks = []
    for spec in specs:
        result = sweep(spec, steps=steps, convention=convention)
        if "peak-not-bracketed" in result.flags:
            raise RuntimeError(f"curvature peak not bracketed for N={spec.N}; widen the eta range")
        eta_ms.append(result.eta_m)
        peaks.append(result.peak)

    ln_eta = [math.log(v) for v in eta_ms]
    ln_peak = [math.log(abs(v)) for v in peaks]
    fit_eta = linear_fit(n_values, ln_eta)
    fit_peak = linear_fit(n_values, ln_peak)
    comparison = {
        "slope_ref": REFERENCE_SLOPE_ETA,
        "intercept_ref": REFERENCE_INTERCEPT_ETA,
        "slope_ref2": REFERENCE_SLOPE_PEAK,
        "intercept_ref2": REFERENCE_INTERCEPT_PEAK,
        "deviations": {
            "eta_slope": fit_eta["slope"] - REFERENCE_SLOPE_ETA,
            "eta_intercept": fit_eta["intercept"] - REFERENCE_INTERCEPT_ETA,
            "peak_slope": fit_peak["slope"] - REFERENCE_SLOPE_PEAK,
            "peak_intercept": fit_peak["intercept"] - REFERENCE_INTERCEPT_PEAK,
        },
    }
    return {
        "n_values": n_values,
        "ln_eta_m": ln_eta,
        "ln_abs_peak": ln_peak,
        "fit_eta": fit_eta,
        "fit_peak": fit_peak,
        "paper_comparison": comparison,
    }


# ---------------------------------------------------------------------------
# fidelity


def fidelity_exact(
    lam: float,
    N: int,
    phi: float,
    t: float,
    eta_center: float,
    delta_grid,
    convention: str = "cells",
) -> FidelityCurve:
    """Midgap fidelity |<v(eta-delta), v(eta+delta)>| from exact ring
    eigenvectors (upper midgap level), next to its perturbative twin.

    The midgap doublet must be separated from the bands by at least 10x
    the avoided-crossing gap at eta_center; otherwise the upper midgap
    vector is not a meaningful object and a RuntimeError reports the
    separation-to-gap ratio. When the doublet at either displaced point
    is degenerate within 1e-9*t, the overlap falls back to the principal
    angle between the two-dimensional midgap subspaces.
    """
    deltas = np.sort(np.asarray(delta_grid, dtype=np.float64))
    if deltas.size == 0 or deltas[0] <= 0.0:
        raise ValueError("delta_grid must contain positive values only")

    center = midgap_perturbation(lam, N, eta_center, phi, t, convention, warn=False)
    evals = ring_levels("honeycomb", [lam], N, [eta_center], phi, t)[0, 0]
    band_sep = float(min(evals[N // 2 + 1] - evals[N // 2], evals[N // 2 - 1] - evals[N // 2 - 2]))
    if band_sep < 10.0 * center.gap_min:
        ratio = band_sep / center.gap_min if center.gap_min > 0 else math.inf
        raise RuntimeError(
            "midgap doublet not isolable from the bands: "
            f"separation {band_sep:.6g} < 10*gap_min {center.gap_min:.6g} "
            f"(separation/gap_min = {ratio:.3g})"
        )

    f_exact = np.empty(deltas.size)
    f_pert = np.empty(deltas.size)
    for i, delta in enumerate(deltas):
        pair = ring_stack("honeycomb", [lam], N, [eta_center - delta, eta_center + delta], phi, t)
        (w1, w2), (v1, v2) = np.linalg.eigh(np.concatenate(list(pair)))
        degenerate = (w1[N // 2] - w1[N // 2 - 1] <= 1e-9 * t) or (w2[N // 2] - w2[N // 2 - 1] <= 1e-9 * t)
        if degenerate:
            u1 = v1[:, N // 2 - 1 : N // 2 + 1]
            u2 = v2[:, N // 2 - 1 : N // 2 + 1]
            singvals = np.linalg.svd(u1.conj().T @ u2, compute_uv=False)
            f_exact[i] = float(singvals[-1])
        else:
            f_exact[i] = float(abs(np.vdot(v1[:, N // 2], v2[:, N // 2])))
        f_pert[i] = fidelity_perturbative(lam, N, eta_center, float(delta), phi, t, convention, warn=False)

    return FidelityCurve(delta_grid=deltas, f_perturbative=f_pert, f_exact=f_exact, eta_center=float(eta_center))


# ---------------------------------------------------------------------------
# serialization


def sweep_to_csv(result: SweepResult) -> str:
    header = ["eta", "e_g", "d2_numeric", "d2_analytic"]
    rows = zip(result.eta_grid, result.e_g_curve, result.d2_numeric, result.d2_analytic)
    return csv_text(header, rows)


def fidelity_to_csv(curve: FidelityCurve) -> str:
    header = ["delta", "f_exact", "f_perturbative"]
    rows = zip(curve.delta_grid, curve.f_exact, curve.f_perturbative)
    return csv_text(header, rows)
