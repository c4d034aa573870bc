import numpy as np
import pytest

from torus_qpt import run_validation, validate

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


def test_square_closed_form_makes_no_eigensolve(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _solve=solve, **kwargs: calls.append(1) or _solve(*args))
    measured = validate.check_square_closed_form("cells")
    assert calls == []
    assert 0.0 < measured <= 1e-13
