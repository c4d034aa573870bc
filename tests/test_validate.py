import numpy as np
import pytest

from conftest import dense_ring
from torus_qpt import corner_coupling, omega_factor, ring_stack, run_validation, validate

TOLERANCES = {name: tol for name, _, tol in validate.CHECKS}

EXPECTED_CHECKS = [
    "block-union-honeycomb",
    "block-union-square",
    "zero-mode-residual",
    "square-closed-form",
    "perturbation-vs-oracle",
    "gap-minimum-location",
    "curvature-consistency",
    "fidelity-closed-form",
    "fidelity-exact-vs-perturbative",
]


def test_default_suite_passes():
    report = run_validation()
    assert report["pass"] is True
    assert [c["name"] for c in report["checks"]] == EXPECTED_CHECKS
    assert all(c["pass"] for c in report["checks"])
    assert all(c["measured"] <= c["tolerance"] for c in report["checks"])
    assert report["runtime_s"] >= 0.0


def test_tolerances_match_defaults():
    report = run_validation()
    for entry in report["checks"]:
        assert entry["tolerance"] == TOLERANCES[entry["name"]]


def test_sites_convention_fails_known_checks():
    report = run_validation(convention="sites")
    assert report["pass"] is False
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "zero-mode-residual" in failed
    assert "perturbation-vs-oracle" in failed
    # the closed-form fidelity identity is scale-free in c and still holds
    passed = {c["name"] for c in report["checks"] if c["pass"]}
    assert "fidelity-closed-form" in passed
    assert "block-union-honeycomb" in passed  # convention-independent


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        run_validation(convention="bonds")


@pytest.mark.parametrize("lam", [-0.9, -0.5, -0.2, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("n", [4, 8, 12, 20, 40])
def test_sites_corner_is_the_physical_corner_of_the_doubled_ring(lam, n):
    # the 'sites' corner lambda^n of an n-site ring, and the Omega and h0 it sets, bit for bit: the ring
    # the zero-mode check reads, ring_stack's ring closed by the bond eta = lambda^n at phi = 0, is -h0
    corner = float(lam) ** n
    assert validate._corner_length(n, "sites") == 2 * n and validate._corner_length(n, "cells") == n
    assert corner_coupling(lam, 2 * n) == corner
    assert omega_factor(lam, 2 * n) == (1.0 - corner * corner) / (1.0 - lam * lam)
    h0 = np.zeros((n, n))
    for i in range(n - 1):
        h0[i, i + 1] = h0[i + 1, i] = -lam if i % 2 == 0 else 1.0  # -lam within cells, +1 between them
    h0[0, n - 1] = h0[n - 1, 0] = corner
    assert np.array_equal(next(ring_stack("honeycomb", [lam], n, [corner], 0.0))[0], -h0)


def _conjugate_boundary(chunk):
    # the flux in the wrong orientation: e^{-i phi} on the (N, 1) bond, e^{i phi} on (1, N)
    n = chunk.shape[-1]
    chunk[:, n - 1, 0], chunk[:, 0, n - 1] = chunk[:, 0, n - 1].copy(), chunk[:, n - 1, 0].copy()


def _move_one_entry(chunk):
    if chunk.shape[-1] == 33:
        chunk[0, 5, 6] += 1e-8


@pytest.mark.parametrize("corrupt", [_conjugate_boundary, _move_one_entry])
def test_square_closed_form_catches_a_faulty_builder(monkeypatch, corrupt):
    assert validate.check_square_closed_form("cells") <= TOLERANCES["square-closed-form"]
    ring_stack = validate.ring_stack

    def faulty(*args):
        for chunk in ring_stack(*args):
            corrupt(chunk)
            yield chunk

    monkeypatch.setattr(validate, "ring_stack", faulty)
    assert validate.check_square_closed_form("cells") > TOLERANCES["square-closed-form"]


def test_zero_mode_residual_catches_a_faulty_builder(monkeypatch):
    assert validate.check_zero_mode_residual("cells") <= TOLERANCES["zero-mode-residual"]
    ring_stack = validate.ring_stack

    def faulty(*args):
        for chunk in ring_stack(*args):
            chunk[:, -1, 0] += 1e-8  # the (N, 1) corner
            yield chunk

    monkeypatch.setattr(validate, "ring_stack", faulty)
    assert validate.check_zero_mode_residual("cells") > TOLERANCES["zero-mode-residual"]


def test_square_closed_form_makes_no_eigensolve(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _solve=solve, **kwargs: calls.append(1) or _solve(*args))
    measured = validate.check_square_closed_form("cells")
    assert calls == []
    assert 0.0 < measured <= 1e-13


def _hf_gap_slope(eta):
    """d(gap)/d(eta) of the check's ring from Hellmann-Feynman, <n|V|n> of each doublet level, with V the
    ring at eta = 1 minus the ring at eta = 0 (the boundary bond is linear in eta)."""
    lam, n, phi = validate._LAM, validate._N, validate._PHI
    v = dense_ring("honeycomb", lam, n, 1.0, phi) - dense_ring("honeycomb", lam, n, 0.0, phi)
    vectors = np.linalg.eigh(dense_ring("honeycomb", lam, n, eta, phi))[1][:, [n // 2 - 1, n // 2]]
    lower, upper = (np.vdot(x, v @ x).real for x in vectors.T)
    return upper - lower


def test_gap_minimum_location_is_a_sign_change_of_the_exact_slope_in_few_solves(monkeypatch):
    # Newton from the perturbative eta* on the Hellmann-Feynman slope, one eigh per step, where a
    # golden-section search made 48 dense solves and stopped where the slope was -4.2e-8
    calls, located = [], []
    eigh, refine = np.linalg.eigh, validate._refine_peak
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: calls.append(1) or eigh(*args, **kwargs))
    monkeypatch.setattr(validate, "_refine_peak", lambda *args: located.append(refine(*args)) or located[-1])
    measured = validate.check_gap_minimum_location("cells")
    assert len(calls) <= 4 and measured <= TOLERANCES["gap-minimum-location"]
    (eta,) = located
    assert _hf_gap_slope(eta - 1e-11) < 0.0 < _hf_gap_slope(eta + 1e-11)
    assert abs(_hf_gap_slope(eta)) <= 1e-13
