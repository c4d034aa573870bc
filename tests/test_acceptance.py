"""End-to-end acceptance gate: eleven numbered criteria, each printing
one PASS/FAIL line with its measured value and pinned tolerance."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from conftest import dense_ring, record_criterion
from oracles import d2_analytic, fidelity_at_minimum
from torus_qpt import (
    ModelSpec,
    build_h0,
    build_lattice,
    corner_coupling,
    fidelity_exact,
    fidelity_perturbative,
    golden_section_min,
    midgap_perturbation,
    omega_factor,
    ring_lams,
    ring_levels,
    scaling_scan,
    sweep,
    zero_modes,
)

PHI = math.pi / 4
LAM_3_7 = 2.0 * math.cos(3.0 * math.pi / 7.0)


def check(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record_criterion(f"{status} criterion {number:2d} {title}: {detail}")
    assert ok, f"criterion {number} {title}: {detail}"


def test_criterion_01_block_union_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for kind in ("honeycomb", "square"):
        for M in (3, 5, 7):
            for N in (4, 8, 12, 20):
                for eta in (0.0, 0.5, 1.0):
                    for phi in (0.0, PHI):
                        spec = ModelSpec(kind, M, N, 1.0, eta, phi)
                        full = np.linalg.eigvalsh(build_lattice(spec))
                        levels = spec.t * ring_levels(kind, ring_lams(kind, M), N, [eta], phi)
                        union = np.sort(levels.ravel())
                        worst = max(worst, float(np.max(np.abs(full - union))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    check(
        1,
        "block-union equivalence",
        ok,
        f"max |delta eps| = {worst:.3e} <= 1e-10*t over 144 specs, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_02_zero_mode_exactness():
    lams = (-0.9, -0.5, -0.2, 0.2, 0.5, 0.9)
    sizes = tuple(range(4, 41, 2))
    worst_cells = 0.0
    worst_sites = 0.0
    for lam in lams:
        for N in sizes:
            a_plus, a_minus = zero_modes(lam, N)
            h0_c = build_h0(lam, N, "cells")
            res_c = max(
                float(np.linalg.norm(h0_c @ a_plus)),
                float(np.linalg.norm(h0_c @ a_minus)),
            )
            worst_cells = max(worst_cells, res_c)
            h0_s = build_h0(lam, N, "sites")
            res_s = max(
                float(np.linalg.norm(h0_s @ a_plus)),
                float(np.linalg.norm(h0_s @ a_minus)),
            )
            worst_sites = max(worst_sites, res_s)
    ok = worst_cells <= 1e-13 and worst_sites > 1e-13
    check(
        2,
        "zero-mode exactness",
        ok,
        f"cells residual = {worst_cells:.3e} <= 1e-13; "
        f"sites residual = {worst_sites:.3e} (fails as designed, ~|lam^N - lam^(N/2)|)",
    )


def test_criterion_03_perturbation_accuracy():
    lam, N, t = 0.5, 20, 1.0
    c = corner_coupling(lam, N)
    omega = omega_factor(lam, N)
    worst = 0.0
    for eta in np.linspace(0.0, 5.0 * c, 21):
        sol = midgap_perturbation(lam, N, float(eta), PHI)
        evals = np.linalg.eigvalsh(dense_ring("honeycomb", lam, N, float(eta), PHI))
        worst = max(
            worst,
            abs(sol.eps_plus - float(evals[N // 2])),
            abs(sol.eps_minus - float(evals[N // 2 - 1])),
        )
    gap_target = 2.0 * (t / omega) * c * abs(math.sin(PHI))
    evals = np.linalg.eigvalsh(dense_ring("honeycomb", lam, N, c * math.cos(PHI), PHI))
    gap_exact = float(evals[N // 2] - evals[N // 2 - 1])
    gap_dev = abs(gap_exact - gap_target) / gap_target
    ok = worst <= 1e-5 and gap_dev <= 0.01
    check(
        3,
        "perturbation accuracy",
        ok,
        f"max |eps_pert - eps_exact| = {worst:.3e} <= 1e-5*t over eta in [0, 5c]; "
        f"gap at eta_m dev = {gap_dev:.3e} <= 1% of 2(t/Omega)c|sin phi|",
    )


def test_criterion_04_extremum_and_curvature():
    lam, N, t = 0.5, 20, 1.0
    c = corner_coupling(lam, N)
    omega = omega_factor(lam, N)
    eta_star = c * math.cos(PHI)

    def exact_gap(eta):
        evals = np.linalg.eigvalsh(dense_ring("honeycomb", lam, N, eta, PHI))
        return float(evals[N // 2] - evals[N // 2 - 1])

    eta_min = golden_section_min(exact_gap, 0.0, 4.0 * eta_star, tol=1e-12)
    loc_dev = abs(eta_min - eta_star)

    h = abs(c * math.sin(PHI)) / 100.0

    def lower(eta):
        return float(np.linalg.eigvalsh(dense_ring("honeycomb", lam, N, eta, PHI))[N // 2 - 1])

    curv_fd = (lower(eta_star + h) - 2.0 * lower(eta_star) + lower(eta_star - h)) / (h * h)
    curv_target = -t / (c * omega * abs(math.sin(PHI)))
    curv_dev = abs(curv_fd - curv_target) / abs(curv_target)
    ok = loc_dev <= 1e-6 and curv_dev <= 0.02
    check(
        4,
        "extremum and curvature",
        ok,
        f"|eta_min - c*cos(phi)| = {loc_dev:.3e} <= 1e-6; "
        f"curvature dev = {curv_dev:.3e} <= 2% of -t/(c*Omega*|sin phi|)",
    )


def test_criterion_05_square_closed_forms():
    from torus_qpt import square_ring_closed_form

    worst = 0.0
    for N in range(2, 65):
        for phi in (0.0, PHI, math.pi / 2):
            for lam2k in (-2.0, 0.0, 1.0):
                for eta in (0, 1):
                    analytic = square_ring_closed_form(N, phi, lam2k, eta)
                    dense = np.linalg.eigvalsh(dense_ring("square", lam2k, N, float(eta), phi))
                    worst = max(worst, float(np.max(np.abs(analytic - dense))))
    ok = worst <= 1e-10
    check(
        5,
        "square closed forms",
        ok,
        f"max |delta eps| = {worst:.3e} <= 1e-10*t over N<=64, phi in {{0, pi/4, pi/2}}, "
        "lam in {-2, 0, 1}, eta in {0, 1}",
    )


def test_criterion_06_second_order_scaling():
    start = time.perf_counter()
    report = scaling_scan(M=7, phi=PHI, t=1.0, n_list=[8, 12, 16, 20, 24], steps=128)
    elapsed = time.perf_counter() - start
    fit_eta, fit_peak = report["fit_eta"], report["fit_peak"]
    ln_eta_m, ln_abs_peak = report["ln_eta_m"], report["ln_abs_peak"]
    eta_decreasing = all(a > b for a, b in zip(ln_eta_m, ln_eta_m[1:]))
    peak_increasing = all(a < b for a, b in zip(ln_abs_peak, ln_abs_peak[1:]))
    target = math.log(abs(LAM_3_7)) / 2.0
    slope_dev = abs(fit_eta["slope"] - target) / abs(target)
    comparison_present = {"slope_ref", "intercept_ref", "slope_ref2", "intercept_ref2"} <= set(
        report["paper_comparison"]
    )
    ok = (
        fit_eta["r2"] >= 0.99
        and fit_peak["r2"] >= 0.99
        and eta_decreasing
        and peak_increasing
        and slope_dev <= 0.05
        and comparison_present
        and elapsed < 30.0
    )
    check(
        6,
        "second-order scaling",
        ok,
        f"R2(eta) = {fit_eta['r2']:.6f}, R2(peak) = {fit_peak['r2']:.6f} >= 0.99; "
        f"eta_m decreasing = {eta_decreasing}, |peak| increasing = {peak_increasing}; "
        f"slope dev = {slope_dev:.3e} <= 5% of ln|2cos(3pi/7)|/2; "
        f"reference constants in report = {comparison_present}; runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_07_first_order_at_phi_zero():
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    evals = np.linalg.eigvalsh(dense_ring("honeycomb", lam, N, c, 0.0))
    gap = float(evals[N // 2] - evals[N // 2 - 1])
    drop = float(fidelity_exact(lam, N, 0.0, c, [c])[0])
    ok = gap <= 1e-10 and drop < 0.1
    check(
        7,
        "first-order degeneration at phi=0",
        ok,
        f"exact gap at eta=c is {gap:.3e} <= 1e-10*t; fidelity across the crossing = {drop:.3e} < 0.1",
    )


def test_criterion_08_fidelity():
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    eta_star = c * math.cos(PHI)
    b = abs(c * math.sin(PHI))
    f_half = fidelity_perturbative(lam, N, eta_star, b, PHI)
    half_dev = abs(f_half - 1.0 / math.sqrt(2.0))
    closed_dev = abs(fidelity_at_minimum(lam, N, b, PHI) - 1.0 / math.sqrt(2.0))
    deltas = np.geomspace(c / 10.0, 10.0 * c, 13)
    f_exact = fidelity_exact(lam, N, PHI, eta_star, deltas)
    pert_dev = float(np.max(np.abs(f_exact - fidelity_perturbative(lam, N, eta_star, deltas, PHI))))
    ok = half_dev <= 1e-8 and closed_dev <= 1e-8 and pert_dev <= 1e-3
    check(
        8,
        "fidelity",
        ok,
        f"|F(eta_m, delta=c|sin phi|) - 1/sqrt(2)| = {half_dev:.3e} <= 1e-8; "
        f"max |F_exact - F_pert| = {pert_dev:.3e} <= 1e-3 over delta in [c/10, 10c]",
    )


def test_criterion_09_square_null_result():
    peaks = []
    for N in (8, 16, 32):
        spec = ModelSpec("square", 3, N, 1.0, 0.0, PHI)
        result = sweep(spec, eta_min=0.0, eta_max=1.0, steps=128)
        peaks.append(abs(result.peak))
    ratio = max(peaks) / min(peaks)
    ok = ratio <= 2.0
    check(
        9,
        "square-lattice null result",
        ok,
        f"peak |d2 E_g| ratio across N in {{8,16,32}} = {ratio:.3f} <= 2 (no divergence)",
    )


def test_criterion_10_analytic_vs_numeric_curvature():
    spec = ModelSpec("honeycomb", 7, 20, 1.0, 0.0, PHI)
    result = sweep(spec)
    analytic = d2_analytic(spec, result.eta_m)
    rel_dev = abs(result.peak - analytic) / abs(analytic)
    ok = rel_dev <= 0.02
    check(
        10,
        "analytic vs numeric curvature",
        ok,
        f"relative deviation at eta_m = {rel_dev:.3e} <= 2% "
        f"(numeric {result.peak:.6g}, analytic {analytic:.6g})",
    )


def test_criterion_11_validate_command(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "torus_qpt", "validate", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    report = json.loads((tmp_path / "validate.json").read_text())
    all_pass = report["pass"] and all(entry["pass"] for entry in report["checks"])
    ok = proc.returncode == 0 and elapsed <= 60.0 and all_pass and len(report["checks"]) == 9
    check(
        11,
        "validate command",
        ok,
        f"exit code {proc.returncode} == 0, {len(report['checks'])} checks all pass, "
        f"runtime {elapsed:.1f}s <= 60s",
    )
