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
property, validated to 1e-10*t); `ground_energy_exact` itself
diagonalizes the full lattice. Sweeps build each open ring once, stamp
the boundary bond per eta (`ring_stack`) and call eigvalsh once per
chunk of at most 2^14 complex entries of the (eta, mode) stack; the
energies equal the one-ring-at-a-time sums bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import critical_modes, peierls_ring, ring_stack
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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class GroundStateResult:
    """Half-filling energy split E_g = E_b + E_m.

    e_m collects the lower midgap level of every critical-window block
    (zero for the square lattice, which has no critical window); e_b is
    the band remainder. method records how e_g was assembled.
    """

    e_g: float
    e_m: float
    e_b: float
    occupied_count: int
    method: str


@dataclass(frozen=True)
class SweepResult:
    """Curvature sweep over a uniform eta grid.

    d2_numeric holds second central differences of e_g_curve (NaN at the
    grid endpoints); d2_analytic the closed-form curvature sum (NaN for
    square lattices). eta_m/peak locate the refined numeric extremum;
    eta_m_analytic/peak_analytic locate the analytic one when defined.
    flags may contain 'peak-not-bracketed' and 'first-order-crossing'.
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
class LinearFit:
    slope: float
    intercept: float
    r2: float

    def as_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept, "r2": self.r2}


@dataclass(frozen=True)
class ScalingReport:
    """Finite-size scaling of the pseudo-critical point and peak height."""

    n_values: tuple[int, ...]
    ln_eta_m: tuple[float, ...]
    ln_abs_peak: tuple[float, ...]
    fit_eta: LinearFit
    fit_peak: LinearFit
    paper_comparison: dict


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


def _ring_lams(spec: ModelSpec, modes=None) -> list[float]:
    """Ring couplings of `modes` (default: all, m = 1..M ascending)."""
    modes = range(1, spec.M + 1) if modes is None else modes
    if spec.kind == "honeycomb":
        return [2.0 * math.cos(math.pi * m / spec.M) for m in modes]
    return [2.0 * math.cos(2.0 * math.pi * m / spec.M) for m in modes]


def _ground_energies(spec: ModelSpec, etas) -> np.ndarray:
    """E_g at each eta: each block's negative levels summed, then the blocks
    added in ascending mode order; one eigvalsh call per ring_stack chunk."""
    lams = _ring_lams(spec)
    sums = []
    for chunk in ring_stack(spec.kind, lams, spec.N, etas, spec.phi, spec.t):
        evals = np.linalg.eigvalsh(chunk)
        negative = np.count_nonzero(evals < 0.0, axis=-1)
        part = np.empty(len(evals))
        for k in set(negative.tolist()):  # np.unique would import numpy.ma (+1.7 MB)
            rows = negative == k
            part[rows] = evals[rows, :k].sum(axis=-1)
        sums.append(part)
    total = np.zeros(len(etas))
    for column in np.concatenate(sums).reshape(len(etas), len(lams)).T:
        total += column
    return total


def exact_midgap_gap(lam: float, N: int, eta: float, phi: float, t: float = 1.0) -> float:
    """Gap between the two levels closest to zero in the exact ring block."""
    evals = np.linalg.eigvalsh(peierls_ring(lam, N, eta, phi, t))
    return float(evals[N // 2] - evals[N // 2 - 1])


def ground_energy_exact(spec: ModelSpec) -> GroundStateResult:
    """Half-filling ground state from the full-lattice spectrum.

    E_g sums all negative eigenvalues (exact zero modes contribute
    nothing). E_m sums the lower midgap level of each critical-window
    block; E_b = E_g - E_m.
    """
    op = build_lattice(spec)
    evals = np.linalg.eigvalsh(op.entries)
    e_g = float(evals[evals < 0.0].sum())
    occupied = int(np.count_nonzero(evals < 0.0))
    e_m = 0.0
    if spec.kind == "honeycomb":
        for lam in _ring_lams(spec, critical_modes(spec.M)):
            block_evals = np.linalg.eigvalsh(peierls_ring(lam, spec.N, spec.eta, spec.phi, spec.t))
            e_m += float(block_evals[spec.N // 2 - 1])
    return GroundStateResult(e_g=e_g, e_m=e_m, e_b=e_g - e_m, occupied_count=occupied, method="exact")


def ground_energy_perturbative(spec: ModelSpec, convention: str = "cells") -> GroundStateResult:
    """Half-filling energy with the midgap part replaced by perturbation
    theory: E_g(eta) = E_b(0) + sum of perturbative lower midgap levels.

    The band part is frozen at eta = 0, where it is computed exactly
    from the blocks; its residual eta-dependence is part of the method's
    error budget. Honeycomb only.
    """
    if spec.kind != "honeycomb":
        raise ValueError("the perturbative-midgap split is defined for honeycomb specs only")
    lams = _ring_lams(spec, critical_modes(spec.M))
    e_g0 = float(_ground_energies(spec, [0.0])[0])
    e_m0 = 0.0
    for lam in lams:
        block_evals = np.linalg.eigvalsh(peierls_ring(lam, spec.N, 0.0, spec.phi, spec.t))
        e_m0 += float(block_evals[spec.N // 2 - 1])
    e_b = e_g0 - e_m0
    e_m = 0.0
    for lam in lams:
        sol = midgap_perturbation(lam, spec.N, spec.eta, spec.phi, spec.t, convention, warn=False)
        e_m += sol.eps_minus
    return GroundStateResult(
        e_g=e_b + e_m,
        e_m=e_m,
        e_b=e_b,
        occupied_count=spec.M * spec.N // 2,
        method="perturbative-midgap",
    )


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
    for lam in _ring_lams(spec, critical_modes(spec.M) if modes is None else modes):
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
        eps_minus = -spec.t * math.sqrt(absz2) / om
        total += (spec.t ** 4) * c * c * s2 / (om ** 4 * eps_minus ** 3)
    return total


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
    """Sweep E_g over a uniform eta grid and locate the curvature peak.

    The default range is [0, 3*max_k c_k*cos(phi)] clipped to [0, 1]
    (falling back to [0, 1] when that is empty), with `steps` + 1 grid
    points. The peak is the interior grid argmax of |d2_numeric|,
    refined by a 3-point parabola; the reported peak value is a
    Richardson extrapolation over steps h and h/2 at the refined point.
    An argmax on the first or last interior point is flagged
    'peak-not-bracketed' and left unrefined; sin(phi) = 0 on the
    honeycomb lattice marks the sweep 'first-order-crossing' (the spike
    is a level crossing, not a smooth peak) and also skips refinement.
    When the analytic curve applies, its golden-section extremum is
    reported alongside as (eta_m_analytic, peak_analytic).

    E_g comes from stacked solves (see the module docstring) and the
    analytic curve from per-mode constants computed once, both bit for
    bit equal to evaluating one ring and one d2_analytic call at a time.
    """
    steps = DEFAULT_STEPS if steps is None else int(steps)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}, got {steps}")
    terms = _d2_terms(spec, convention) if spec.kind == "honeycomb" else []
    lo, hi = 0.0, 1.0
    if terms:
        hi = 3.0 * max(abs(c) for c, _ in terms) * math.cos(spec.phi)
        hi = min(hi, 1.0) if hi > 0.0 else 1.0
    if eta_min is not None:
        lo = float(eta_min)
    if eta_max is not None:
        hi = float(eta_max)
    if not (hi > lo >= 0.0):
        raise ValueError(f"need 0 <= eta_min < eta_max, got [{lo}, {hi}]")

    grid = np.linspace(lo, hi, steps + 1)
    h = (hi - lo) / steps
    e_curve = _ground_energies(spec, grid)
    d2_num = np.full(steps + 1, np.nan)
    d2_num[1:-1] = (e_curve[2:] - 2.0 * e_curve[1:-1] + e_curve[:-2]) / (h * h)

    if spec.kind == "honeycomb":
        d2_ana = np.array([_d2_sum(spec, terms, x) for x in grid])
    else:
        d2_ana = np.full(steps + 1, np.nan)

    flags: list[str] = []
    first_order = spec.kind == "honeycomb" and math.sin(spec.phi) == 0.0
    if first_order:
        flags.append("first-order-crossing")

    i_star = 1 + int(np.argmax(np.abs(d2_num[1:steps])))
    if i_star == 1 or i_star == steps - 1:
        flags.append("peak-not-bracketed")

    if flags:
        eta_m = float(grid[i_star])
        peak = float(d2_num[i_star])
    else:
        y0, y1, y2 = np.abs(d2_num[i_star - 1 : i_star + 2])
        denom = y0 - 2.0 * y1 + y2
        dx = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        dx = min(1.0, max(-1.0, dx))
        eta_m = float(grid[i_star] + dx * h)
        h2 = 0.5 * h
        points = [eta_m, eta_m + h, eta_m - h, eta_m + h2, eta_m - h2]
        e_c, e_up, e_down, e_up2, e_down2 = _ground_energies(spec, points).tolist()
        d_h = (e_up - 2.0 * e_c + e_down) / (h * h)
        d_h2 = (e_up2 - 2.0 * e_c + e_down2) / (h2 * h2)
        peak = float((4.0 * d_h2 - d_h) / 3.0)

    eta_m_analytic = peak_analytic = None
    if spec.kind == "honeycomb" and not first_order and critical_modes(spec.M):
        eta_m_analytic = float(golden_section_min(lambda x: _d2_sum(spec, terms, x), lo, hi, tol=1e-12))
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


def linear_fit(x, y) -> LinearFit:
    """Ordinary least-squares line y = slope*x + intercept with R^2."""
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
    return LinearFit(float(slope), float(intercept), float(r2))


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
) -> ScalingReport:
    """Finite-size scaling of the curvature peak on the honeycomb torus.

    Runs one sweep per ring length N (eta = 0 spec, auto range), then
    fits ln(eta_m) and ln|peak| against N by ordinary least squares.
    External reference constants are attached for comparison only; they
    are not a pass/fail gate.
    """
    if not isinstance(M, int) or M < 3:
        raise ValueError(f"need integer M >= 3, got {M!r}")
    if math.sin(phi) == 0.0:
        raise ValueError("scaling scan needs sin(phi) != 0 (otherwise the transition is first order)")
    n_values = sorted(set(int(n) for n in n_list))
    if not n_values:
        raise ValueError("n_list must not be empty")
    bad = [n for n in n_values if n % 4 != 0 or n < 4]
    if bad:
        raise ValueError(f"ring lengths must be positive multiples of 4, got {bad}")

    eta_ms = []
    peaks = []
    for n in n_values:
        spec = ModelSpec("honeycomb", M, n, t, 0.0, phi)
        result = sweep(spec, steps=steps, convention=convention)
        if "peak-not-bracketed" in result.flags:
            raise ValueError(f"curvature peak not bracketed for N={n}; widen the eta range")
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
            "eta_slope": fit_eta.slope - REFERENCE_SLOPE_ETA,
            "eta_intercept": fit_eta.intercept - REFERENCE_INTERCEPT_ETA,
            "peak_slope": fit_peak.slope - REFERENCE_SLOPE_PEAK,
            "peak_intercept": fit_peak.intercept - REFERENCE_INTERCEPT_PEAK,
        },
    }
    return ScalingReport(
        n_values=tuple(n_values),
        ln_eta_m=tuple(ln_eta),
        ln_abs_peak=tuple(ln_peak),
        fit_eta=fit_eta,
        fit_peak=fit_peak,
        paper_comparison=comparison,
    )


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
    vector is not a meaningful object and a ValueError reports the
    separation-to-gap ratio. When the doublet at either displaced point
    is degenerate within 1e-9*t, the overlap falls back to the principal
    angle between the two-dimensional midgap subspaces.
    """
    deltas = np.sort(np.asarray(delta_grid, dtype=np.float64))
    if deltas.size == 0 or deltas[0] <= 0.0:
        raise ValueError("delta_grid must contain positive values only")

    center = midgap_perturbation(lam, N, eta_center, phi, t, convention, warn=False)
    evals = np.linalg.eigvalsh(peierls_ring(lam, N, eta_center, phi, t))
    band_sep = float(min(evals[N // 2 + 1] - evals[N // 2], evals[N // 2 - 1] - evals[N // 2 - 2]))
    if band_sep < 10.0 * center.gap_min:
        ratio = band_sep / center.gap_min if center.gap_min > 0 else math.inf
        raise ValueError(
            "midgap doublet not isolable from the bands: "
            f"separation {band_sep:.6g} < 10*gap_min {center.gap_min:.6g} "
            f"(separation/gap_min = {ratio:.3g})"
        )

    def midgap_vectors(eta_val: float):
        w, v = np.linalg.eigh(peierls_ring(lam, N, eta_val, phi, t))
        return w, v

    f_exact = np.empty(deltas.size)
    f_pert = np.empty(deltas.size)
    for i, delta in enumerate(deltas):
        w1, v1 = midgap_vectors(eta_center - delta)
        w2, v2 = midgap_vectors(eta_center + delta)
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


def scaling_to_json_dict(report: ScalingReport) -> dict:
    return {
        "n_values": list(report.n_values),
        "ln_eta_m": list(report.ln_eta_m),
        "ln_abs_peak": list(report.ln_abs_peak),
        "fit_eta": report.fit_eta.as_dict(),
        "fit_peak": report.fit_peak.as_dict(),
        "paper_comparison": report.paper_comparison,
    }
