"""Ground-state assembly, curvature sweeps, scaling fits, and fidelity.

The half-filled ground-state energy E_g(eta) is the sum of all negative
single-particle levels. Its second derivative in the boundary coupling
develops a sharpening negative peak at the pseudo-critical point eta_m
on the honeycomb torus (driven by the midgap doublets of the critical
momentum window), while the square torus shows no such growth. This
module locates the peak, fits its finite-size scaling, and computes the
midgap fidelity from exact eigenvectors. It is the exact engine alone:
perturbation theory lives in `ssh`, which gives it only the physical
critical doublets (a sweep's default range and quadrature cut),
`midgap_perturbation` (the guards of `fidelity_exact`) and the package's
one extremum finder, `_refine_peak`.

Energies along sweeps are assembled from the momentum blocks, which
carry the same multiset spectrum as the full lattice (block-union
property, validated to 1e-10). Every level, vector and resolvent entry
of a ring comes from `eigensolve`.

Every energy is in units of the hopping t. In both entry points (`sweep`
and `fidelity_exact`) NumPy raises on overflow, invalid values and
division by zero.

Sweeps use a spectral-shift engine. The boundary bond is a rank-2 change
V of the eta-independent open ring H0, so by Lloyd's formula (Lloyd,
Proc. Phys. Soc. 90, 207 (1967); Krein's spectral shift) each block adds

    dE(eta) = -(1/pi) int_0^inf ln|q(y, eta)| dy,
    q = det(1 - G0(iy) V) = 1 + A*eta + B*eta^2,

with A = 2*cos(phi)*G_1N and B = G_1N^2 - G_11*G_NN from the
boundary entries of G0(iy) = (iy - H0)^-1. The curvature d2E/deta2 is
the same integral over d2/deta2 ln|q| = Re[(2B*q - (A + 2B*eta)^2)/q^2],
with no finite difference. E_g(eta) = E_g(0) + sum_k dE_k(eta), where
E_g(0) sums the dense levels of the open rings. G_1N and G_NN^2 =
G_11*G_NN come from eigensolve.boundary_green once per distinct mode (m
and M - m share them) on one node set, and serve every eta of the sweep.
The quadrature is 10-point Gauss-Legendre on unit panels of s = ln(y)
over [ln y_lo, ln(1e5*(4 + max eta))], y_lo <= 1e-14 below every midgap
gap, plus the end terms y*f(y) at both cuts (the tail falls like 1/y^2).

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
`_open_ground_energy`, one `ring_levels` call at eta = 0, gives E_g(0).
One immutable record, `_ShiftTable`, holds the table and its lattice kind:
`_shift_table` builds it whole, `_shifted_energies` evaluates it, and
`_node_slopes` and `_level_crossing` read it.

The peak eta_m is a zero of the curvature's slope -D3/pi, D3 = sum
w*d3/deta3 ln|q|: ssh._refine_peak's Newton steps with D4 = sum w*d4/deta4
ln|q| evaluate every node exactly at one eta (the near nodes too, whose
Chebyshev samples hold no derivative beyond the second), so the root is
located to D3's roundoff, not to the sqrt(eps) of a search by values.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .blocks import critical_modes, ring_lams, row_blocks, sin_cos
from .eigensolve import boundary_green, midgap_doublets, ring_levels
from .models import ModelSpec, Record
from .output import csv_text
from .ssh import _refine_peak, critical_doublets, midgap_perturbation

DEFAULT_STEPS = 200

MIN_STEPS = 64

MAX_ETA = 100.0  # largest eta a sweep accepts: the engine's error bound is verified up to it

# Spectral-shift quadrature: _GAUSS_POINTS-point Gauss-Legendre on unit
# panels of s = ln(y), from y = y_lo <= _Y_LO to at least _Y_HI*(4 + max eta).
_GAUSS_POINTS = 10
# Chebyshev samples of the near-node sums on [0, eta_max]; error O(rho^-K), rho = 3 + sqrt(8).
_CHEB_POINTS = 33
_Y_LO = 1e-14
_Y_HI = 1e5


# ---------------------------------------------------------------------------
# result records


class SweepResult(Record):
    """Curvature sweep over a uniform eta grid.

    d2_numeric holds the exact curvature d2E_g/deta2 from the spectral-shift
    table (NaN at the grid endpoints; the kink of a level crossing zero is
    not in it). eta_m/peak locate the refined numeric extremum. flags may
    contain 'first-order-crossing', 'peak-not-bracketed' and
    'level-crossing'. The three arrays are stored as read-only float64.
    """

    __slots__ = ("eta_grid", "e_g_curve", "d2_numeric", "eta_m", "peak", "flags")

    def __init__(self, eta_grid: np.ndarray, e_g_curve: np.ndarray, d2_numeric: np.ndarray,
                 eta_m: float, peak: float, flags: tuple[str, ...]) -> None:
        arrays = [np.asarray(values, dtype=np.float64) for values in (eta_grid, e_g_curve, d2_numeric)]
        for arr in arrays:
            arr.setflags(write=False)
        self._set_fields(*arrays, eta_m, peak, flags)

    def __repr__(self) -> str:  # the arrays are left out
        return f"SweepResult(eta_m={self.eta_m!r}, peak={self.peak!r}, flags={self.flags!r})"


# ---------------------------------------------------------------------------
# ground-state energy


def _open_ground_energy(spec: ModelSpec) -> float:
    """E_g(0): each open ring's negative levels summed, then the rings added
    in ascending mode order."""
    total = 0.0
    for levels in ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [0.0], spec.phi)[0]:
        total += levels[: np.count_nonzero(levels < 0.0)].sum()
    return float(total)


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


class _ShiftTable(Record):
    """A sweep's spectral-shift table (see _shift_table): the lattice kind,
    E_g(0), the Chebyshev points on [0, eta_max], their barycentric weights
    and the near-node sums of ln|q| and d2 ln|q| there; the near nodes'
    weights and (A, B); the far nodes' weights and factored q; the far
    positions of the modes' nodes y = y_lo."""

    __slots__ = ("kind", "e0", "points", "bary", "near", "w_near", "near_ab", "w_far", "far", "lowest")

    def __init__(self, *fields) -> None:
        self._set_fields(*fields)


def _shift_table(spec: ModelSpec, eta_max: float) -> _ShiftTable:
    """Everything a sweep needs for E_g(eta) = E_g(0) + dE(eta) and its
    curvature at 0 <= eta <= eta_max: E_g(0) and the quadrature terms of
    ln|q(y, eta)|, where q = 1 + A*eta + B*eta^2 = det(1 - G0(iy) V) on the
    boundary sites {1, N}, on the nodes of modes m <= M/2 and m = M. Mode
    M - m has mode m's entries (square: equal lambdas; honeycomb: lambda ->
    -lambda is the gauge diag(+1,-1,-1,+1,...), which fixes both boundary
    sites as N % 4 == 0), so the weights count each other mode twice.

    The nodes split in two. Where |A|*eta_max + |B|*eta_max^2 <= 1/4,
    |q - 1| <= 1/4 for every eta in range and ln|q| is log1p(q - 1);
    elsewhere it comes from a factored q, which keeps its relative accuracy
    where q nears 0 (a level crossing zero). The near nodes' weighted sums
    are analytic in eta for |eta| < 2*eta_max, so they are kept only at
    _CHEB_POINTS Chebyshev points and interpolated; `lowest` marks the far
    nodes whose sign of Re q the level-crossing check reads. The lower cut
    y_lo = min(_Y_LO, 1e-4*min_k |c_k*sin(phi)|/Omega_k) lies below every
    midgap gap (ssh.critical_doublets)."""
    sin_phi, cos_phi = sin_cos(spec.phi)
    gaps = [abs(c * sin_phi) / om for c, om in critical_doublets(spec)]
    s_lo = math.log(min([_Y_LO] + [1e-4 * gap for gap in gaps if gap > 0.0]))
    panels = math.ceil(math.log(_Y_HI * (4.0 + eta_max)) - s_lo)
    x, w = _gauss_legendre()
    s = np.concatenate(([s_lo], (s_lo + np.arange(panels)[:, None] + x).ravel(), [s_lo + panels]))
    y = np.exp(s)
    # end terms: int_0^y_lo f ~ y_lo*f(y_lo); the tail f ~ C/y^2 integrates to y_hi*f(y_hi)
    weights = y * np.concatenate(([1.0], np.tile(w, panels), [1.0]))
    s2, M, kind = sin_phi ** 2, spec.M, spec.kind
    modes = [*range(1, M // 2 + 1), M]
    g1n, gnn2 = (g.ravel() for g in boundary_green(kind, ring_lams(kind, M, modes), spec.N, y))  # real on honeycomb
    a = 2.0 * cos_phi * g1n
    b = g1n * g1n - gnn2  # G_11 = G_NN
    d4 = gnn2 - s2 * g1n * g1n  # (A^2 - 4B)/4, formed without cancellation
    weights = np.concatenate([weights if 2 * m == M or m == M else 2.0 * weights for m in modes])
    near = np.abs(a) * eta_max + np.abs(b) * (eta_max * eta_max) <= 0.25
    far = ~near
    j = np.arange(_CHEB_POINTS)
    points = eta_max * (0.5 - 0.5 * np.cos(np.pi * j / (_CHEB_POINTS - 1)))  # 0 and eta_max exactly
    bary = np.where(j % 2 == 0, 1.0, -1.0)
    bary[[0, -1]] *= 0.5
    w_near, a_near, b_near = weights[near], a[near], b[near]
    sums = np.empty((2, _CHEB_POINTS))
    for part in row_blocks(_CHEB_POINTS, len(w_near)):
        for i, value in enumerate(_near_nodes(kind, a_near, b_near, points[part, None])):
            sums[i, part] = (value * w_near).sum(axis=1)
    lowest = np.flatnonzero(np.arange(len(a))[far] % len(y) == 0)  # each mode's node y = y_lo
    return _ShiftTable(kind, _open_ground_energy(spec), points, bary, sums, w_near, (a_near, b_near), weights[far],
                       _factor(kind, a[far], b[far], d4[far]), lowest)


def _factor(kind: str, a: np.ndarray, b: np.ndarray, d4: np.ndarray) -> tuple:
    """The factored q of far nodes, as _far_nodes reads it."""
    if kind == "honeycomb":
        # bipartite ring at imaginary energy: A, B > 0 and d4 < 0 are real
        # and q = B*(eta - R)^2 + J with R = -A/(2B), J = -d4/B > 0
        return -0.5 * a / b, b, -d4 / b
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


def _far_nodes(kind: str, factored: tuple, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln|q| and its exact second eta-derivative at each node from the
    factored q, for a column of etas."""
    f0, f1, f2 = factored
    if kind == "honeycomb":
        d = eta - f0
        bd2 = f1 * (d * d)
        q = bd2 + f2
        return np.log(q), 2.0 * f1 * (f2 - bd2) / q**2
    x1, x2 = f0 * eta - f1, f1 * eta - 1.0
    u, v = f0 / x1, f1 / x2
    return np.log(np.abs(x1 * x2)) - f2, -(u * u + v * v).real


def _shifted_energies(table: _ShiftTable, etas) -> tuple[np.ndarray, np.ndarray]:
    """E_g(eta) = E_g(0) - (1/pi) * sum_k int_0^inf ln|q_k(y, eta)| dy and
    its exact curvature, the same integral over d^2/deta^2 ln|q_k|: the near
    sums by barycentric interpolation in the Chebyshev samples (the sample
    itself where eta is a point), the far nodes summed. An eta's values
    depend on that eta and the table alone (row sums)."""
    etas = np.asarray(etas, dtype=np.float64)
    shift, curvature = np.zeros(len(etas)), np.zeros(len(etas))
    for part in row_blocks(len(etas), len(table.w_far) + _CHEB_POINTS):
        eta = etas[part, None]
        d = eta - table.points
        row, col = np.nonzero(d == 0.0)
        d[row, col] = 1.0
        c = table.bary / d
        scale = c.sum(axis=1)
        near_ln, near_d2 = ((c * values).sum(axis=1) / scale for values in table.near)
        near_ln[row], near_d2[row] = table.near[:, col]
        far_ln, far_d2 = _far_nodes(table.kind, table.far, eta)
        shift[part] = near_ln + (far_ln * table.w_far).sum(axis=1)
        curvature[part] = near_d2 + (far_d2 * table.w_far).sum(axis=1)
        del d, c, far_ln, far_d2  # so the next block's temporaries do not add to this block's in the peak
    return table.e0 - shift / math.pi, -curvature / math.pi


def _node_slopes(table: _ShiftTable, eta: float, h: float):
    """h^3 and h^4 times the exact third and fourth eta-derivatives of ln|q|
    at one eta, for the near nodes and then the far nodes. Per node, with s
    = q'/q and t = 2B/q, d3 ln q = s*(2s^2 - 3t) and d4 ln q = -3*(2s^4 -
    4t*s^2 + t^2); a square far node's factors add u = B/(B*eta - Q) and v
    = Q/(Q*eta - 1), d3 = 2*Re(u^3 + v^3) and d4 = -6*Re(u^4 + v^4). The
    powers of h keep s^4 in range where the peak is narrow (N = 600)."""
    a, b = table.near_ab
    q = 1.0 + eta * (a + b * eta)
    near = _slopes(h * (a + 2.0 * b * eta) / q, (2.0 * h * h) * b / q)
    f0, f1, f2 = table.far
    if table.kind == "honeycomb":
        d = eta - f0
        hb = h * f1 / (f1 * (d * d) + f2)
        return near, _slopes(2.0 * hb * d, 2.0 * hb * h)
    hu, hv = h * f0 / (f0 * eta - f1), h * f1 / (f1 * eta - 1.0)
    hu2, hv2 = hu * hu, hv * hv
    return near, (2.0 * (hu2 * hu + hv2 * hv).real, -6.0 * (hu2 * hu2 + hv2 * hv2).real)


def _slopes(hs, ht) -> tuple[np.ndarray, np.ndarray]:
    """h^3*d3 ln q and h^4*d4 ln q from hs = h*q'/q and ht = h^2*2B/q (their real parts)."""
    s2 = hs * hs
    return (hs * (2.0 * s2 - 3.0 * ht)).real, (-3.0 * (s2 * (2.0 * s2 - 4.0 * ht) + ht * ht)).real


def _level_crossing(table: _ShiftTable, grid: np.ndarray) -> bool:
    """Whether Re q at some mode's node y = y_lo changes sign between
    adjacent etas of the grid: a ring level crossing zero there. A near node
    keeps Re q >= 3/4, and a honeycomb ring's q = B*(eta - R)^2 + J stays
    positive, so only the square lattice's far nodes are read."""
    if table.kind == "honeycomb":
        return False
    f0, f1, _ = (f[table.lowest] for f in table.far)
    negative = ((f0 * grid[:, None] - f1) * (f1 * grid[:, None] - 1.0) / f1).real < 0.0
    return bool((negative[1:] != negative[:-1]).any())


# ---------------------------------------------------------------------------
# sweeps


def _in_double_range(what: str):
    """Decorate an entry point of the engine: run it with NumPy raising on
    overflow, invalid values and division by zero, and report those as a
    RuntimeError that says `what` is out of double range."""
    def decorate(entry):
        def run(*args, **kwargs):
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    return entry(*args, **kwargs)
            except FloatingPointError as exc:
                raise RuntimeError(f"{what} is out of double range ({exc})") from None
        return functools.wraps(entry)(run)
    return decorate


@_in_double_range("the spectral-shift engine")
def sweep(
    spec: ModelSpec,
    eta_min: float | None = None,
    eta_max: float | None = None,
    steps: int | None = None,
) -> SweepResult:
    """Sweep E_g and its exact curvature over a uniform eta grid and locate
    the curvature peak. Every output reads the physical corners
    c_k = lambda_k^(N/2) of the critical modes (ssh.critical_doublets).

    The grid has `steps` + 1 points on [eta_min, eta_max]. A bound left as
    None takes its default: eta_min = 0, and eta_max = 3*max_k c_k*cos(phi)
    clipped to [0, 1] on the honeycomb lattice (1 when that is empty or on
    the square lattice). ValueError, before any work, unless steps >=
    MIN_STEPS and 0 <= eta_min < eta_max <= MAX_ETA.

    E_g and d2E_g/deta2 come from one spectral-shift table (see the module
    docstring and _shift_table), whose lower cut is below every midgap
    gap. The peak is the interior grid argmax of |d2_numeric|, refined
    within one step to the zero of the curvature's exact third derivative
    (Newton steps, see ssh._refine_peak), so eta_m does not depend on the
    grid; `peak` is the curvature there. An argmax on the first or last
    interior point is flagged 'peak-not-bracketed' and left unrefined;
    sin(phi) = 0 on the honeycomb lattice marks the sweep
    'first-order-crossing' (the spike is a level crossing, a kink of E_g)
    and also skips refinement. A phi
    within one ulp of a multiple of pi/2 counts as exactly that multiple
    (sin and cos are exactly 0 or +-1).
    'level-crossing' reports that some ring level crosses zero between two
    grid points (Re q changes sign at a mode's node y = y_lo): E_g has a
    kink there, whose delta-function curvature d2_numeric does not hold. It
    does not change the refinement.

    RuntimeError when the engine leaves double range (M = 61, N = 128): its
    array arithmetic overflows, divides by zero or turns invalid, where
    NumPy raises instead of warning.
    """
    steps = DEFAULT_STEPS if steps is None else int(steps)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}, got {steps}")
    sin_phi, cos_phi = sin_cos(spec.phi)
    doublets = critical_doublets(spec)
    lo = 0.0 if eta_min is None else float(eta_min)
    if eta_max is not None:
        hi = float(eta_max)
    else:
        hi = 3.0 * max(abs(c) for c, _ in doublets) * cos_phi if doublets else 1.0
        hi = min(hi, 1.0) if hi > 0.0 else 1.0
    if not 0.0 <= lo < hi <= MAX_ETA:
        raise ValueError(f"need finite 0 <= eta_min < eta_max <= {MAX_ETA:g}, got [{lo}, {hi}]")

    table = _shift_table(spec, hi)
    grid = np.linspace(lo, hi, steps + 1)
    h = (hi - lo) / steps
    e_curve, d2_num = _shifted_energies(table, grid)
    d2_num[[0, -1]] = np.nan  # at eta = 0 a square ring's zero level puts ~ -1/y_lo here

    flags: list[str] = []
    if spec.kind == "honeycomb" and sin_phi == 0.0:
        flags.append("first-order-crossing")

    i_star = 1 + int(np.argmax(np.abs(d2_num[1:steps])))
    if i_star == 1 or i_star == steps - 1:
        flags.append("peak-not-bracketed")

    eta_m = float(grid[i_star])
    if not flags:
        def slopes(eta):  # pi times the curvature's slope and its derivative, in units of h: -h^3*D3, -h^4*D4
            (n3, n4), (f3, f4) = _node_slopes(table, eta, h)
            w_near, w_far = table.w_near, table.w_far
            return -float((n3 * w_near).sum() + (f3 * w_far).sum()), -float((n4 * w_near).sum() + (f4 * w_far).sum())

        eta_m = _refine_peak(slopes, eta_m, eta_m - h, eta_m + h, h, d2_num[i_star] < 0.0)
    peak = _shifted_energies(table, [eta_m])[1][0]
    if _level_crossing(table, grid):
        flags.append("level-crossing")  # reported only: the refinement above does not depend on it

    return SweepResult(grid, e_curve, d2_num, eta_m, float(peak), tuple(flags))


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
    n_list,
    steps: int,
) -> dict:
    """Finite-size scaling of the curvature peak on the honeycomb torus.

    Runs one sweep per ring length N (eta = 0 spec, auto range), then
    fits ln(eta_m) and ln|peak| against N by ordinary least squares. It
    reads only the sweeps' exact outputs: no perturbative term is computed.
    Returns the scaling.json document: n_values, ln_eta_m, ln_abs_peak,
    the fits fit_eta and fit_peak (linear_fit's), and paper_comparison,
    external reference constants attached for comparison only (they are
    not a pass/fail gate).

    ValueError rejects the input before any sweep: sin(phi) = 0 (phi within
    one ulp of a multiple of pi counts), fewer than two distinct ring
    lengths, an (M, N) that ModelSpec rejects (every spec is built first),
    or an M none of whose critical modes has lambda != 0 (M = 3, 4 and 6:
    no peak to fit at any N). RuntimeError reports a sweep whose curvature
    peak is not bracketed by its grid (M = 11 at N = 8, say).
    """
    if sin_cos(phi)[0] == 0.0:
        raise ValueError("scaling scan needs sin(phi) != 0 (otherwise the transition is first order)")
    n_values = sorted(set(int(n) for n in n_list))
    if len(n_values) < 2:
        raise ValueError(f"a scaling fit needs at least two distinct ring lengths, got {n_values}")
    specs = [ModelSpec("honeycomb", M, n, 0.0, phi) for n in n_values]
    if not any(ring_lams("honeycomb", M, critical_modes(M))):
        raise ValueError(f"scaling scan needs a critical mode with lambda != 0; M={M} has none")

    eta_ms = []
    peaks = []
    for spec in specs:
        result = sweep(spec, steps=steps)
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


@_in_double_range("the midgap fidelity")
def fidelity_exact(lam: float, N: int, phi: float, eta_center: float, delta_grid) -> np.ndarray:
    """Midgap fidelity |<v(eta-delta), v(eta+delta)>| from exact ring
    eigenvectors (upper midgap level) at eta = eta_center: one value per
    delta of `delta_grid`, in its order. Its perturbative twin is
    ssh.fidelity_perturbative.

    ValueError unless every delta is positive. The guards read the physical
    corner c = lambda^(N/2) and its Omega. The floor of the dense solve is
    eps*(1 + |lambda|)*t, the roundoff of a ring level. A RuntimeError
    reports the ratio when the doublet's splitting scale 2*eps_plus =
    2*(t/Omega)*|eta*e^{i phi} - c| of midgap_perturbation at some
    displaced point eta = eta_center -+ delta is above 0 but below 1e3
    floors (a midgap doublet below double resolution: at lambda = 0.5 and
    the default deltas around c*cos(phi), from N = 86 on); a scale of
    exactly 0 is an exact crossing, which the subspace fallback below
    handles. The doublet must also be separated from the bands by at least
    10x the avoided-crossing gap at eta_center; otherwise the upper midgap
    vector is not a meaningful object and a RuntimeError reports the
    separation-to-gap ratio. At every displaced point the doublet must split
    by less than its separation from the bands, or a RuntimeError names that
    eta. When the doublet at either displaced point splits by at most 64
    floors, the overlap falls back to the principal angle between the
    two-dimensional midgap subspaces. The centre and every displaced ring
    are solved in one pass (eigensolve.midgap_doublets). Arithmetic out of
    double range is a RuntimeError too.
    """
    deltas = np.asarray(delta_grid, dtype=np.float64)
    if deltas.size == 0 or not (deltas > 0.0).all():
        raise ValueError("delta_grid must contain positive values only")

    center = midgap_perturbation(lam, N, eta_center, phi)  # checks lam and N first
    floor = np.finfo(np.float64).eps * (1.0 + abs(lam))
    etas = np.concatenate([eta_center - deltas, eta_center + deltas]).tolist()
    for eta in etas:
        split = 2.0 * midgap_perturbation(lam, N, eta, phi).eps_plus
        if 0.0 < split < 1e3 * floor:
            raise RuntimeError(
                f"midgap doublet below double resolution at eta={eta:.6g}: its splitting scale "
                f"2(t/Omega)|eta*e^(i phi) - c| = {split:.3g} is {split / floor:.3g} x eps*(1 + |lambda|)*t, "
                f"below 1e3 (lambda={lam:g}, N={N})"
            )
    levels, vectors = midgap_doublets(lam, N, [eta_center, *etas], phi)
    w, levels, vectors = levels[0], levels[1:], vectors[1:]  # the centre ring's levels, then the displaced rings
    band_sep = float(min(w[3] - w[2], w[1] - w[0]))
    if band_sep < 10.0 * center.gap_min:
        raise RuntimeError(
            "midgap doublet not isolable from the bands: "
            f"separation {band_sep:.6g} < 10*gap_min = {10.0 * center.gap_min:.6g} "
            f"(separation/gap_min = {band_sep / center.gap_min:.3g})"
        )
    for eta, w in zip(etas, levels):
        split, separation = w[2] - w[1], min(w[3] - w[2], w[1] - w[0])
        if not split < separation:
            raise RuntimeError(f"midgap doublet not isolable from the bands at eta={eta:.6g}: "
                               f"it splits by {split:.6g}, not below its separation {separation:.6g}")
    f_exact = np.empty(deltas.size)
    for i in range(deltas.size):
        (w1, w2), (u1, u2) = levels[[i, deltas.size + i], 1:3], vectors[[i, deltas.size + i]]  # eta_center -+ delta
        if min(w1[1] - w1[0], w2[1] - w2[0]) <= 64.0 * floor:
            singvals = np.linalg.svd(u1.conj().T @ u2, compute_uv=False)
            f_exact[i] = float(singvals[-1])
        else:
            f_exact[i] = float(abs(np.vdot(u1[:, 1], u2[:, 1])))
    return f_exact


# ---------------------------------------------------------------------------
# serialization


def sweep_to_csv(result: SweepResult, d2_analytic) -> str:
    """sweep.csv: the sweep's grid, E_g and exact curvature, and the
    closed-form column of ssh.analytic_curvature."""
    header = ["eta", "e_g", "d2_numeric", "d2_analytic"]
    return csv_text(header, zip(result.eta_grid, result.e_g_curve, result.d2_numeric, d2_analytic))
