import math
import sys

import numpy as np
import pytest

from conftest import dense_ring
from oracles import square_ring_closed_form
from outputs import read_table
from torus_qpt import ring_lams, ring_stack, square_ring_modes
from torus_qpt.cli import main
from torus_qpt.eigensolve import boundary_green

# open 4-site alternating chain at lam = 1: +/- golden ratio levels
GOLDEN = (-1.618033988749895, -0.6180339887498949, 0.6180339887498949, 1.618033988749895)


def test_eigh_open_chain_golden_ratio():
    H = dense_ring("honeycomb", 1.0, 4, 0.0, 0.0)
    assert np.linalg.eigvalsh(H) == pytest.approx(GOLDEN, abs=1e-14)


@pytest.mark.parametrize("N", [2, 3, 8, 33])
@pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("lam2k", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("eta", [0, 1])
def test_square_closed_form_matches_eigh(N, phi, lam2k, eta):
    closed = square_ring_closed_form(N, phi, lam2k, eta)
    dense = np.linalg.eigvalsh(dense_ring("square", lam2k, N, float(eta), phi))
    assert np.max(np.abs(closed - dense)) <= 1e-10


def test_square_closed_form_rejects_other_eta():
    with pytest.raises(ValueError):
        square_ring_closed_form(4, 0.0, 0.0, 0.5)


# every (phi, eta) case of validate's square-closed-form check
CASES = [(0.0, 0), (0.0, 1), (math.pi / 4, 1), (math.pi / 2, 1)]


@pytest.mark.parametrize("phi,eta", CASES)
def test_square_ring_modes_are_orthonormal_and_give_the_closed_form(phi, eta):
    for N in range(2, 65):
        levels, vectors = square_ring_modes(N, phi, eta)
        assert levels.shape == (N,) and vectors.shape == (N, N)
        assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(N)) <= 1e-14, N
        assert np.array_equal(np.sort(levels), square_ring_closed_form(N, phi, 0.0, eta))
        assert np.array_equal(np.sort(levels) - 1.0, square_ring_closed_form(N, phi, 1.0, eta))


def _residual_bound(ring, levels, vectors, lam2k):
    """validate's measure of one ring: ||H - U diag(eps - lambda) U^H||_F."""
    return np.linalg.norm(ring - (vectors * (levels - lam2k)) @ vectors.conj().T)


@pytest.mark.parametrize("N", [2, 3, 8, 33, 64])
@pytest.mark.parametrize("phi,eta", CASES)
def test_residual_bounds_the_level_deviation(N, phi, eta):
    # Hoffman-Wielandt: the sorted levels of H lie within the residual of the closed form, for the
    # builder's rings and for rings moved off them by a random Hermitian perturbation of size 1e-9.
    # eigvalsh and the closed form round too, by up to half an ulp of ||H||_2 here, so the computed
    # deviation may exceed the bound by that much.
    rng = np.random.default_rng(N)
    levels, vectors = square_ring_modes(N, phi, eta)
    for lam2k in (-2.0, 0.0, 1.0):
        noise = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        for ring in (dense_ring("square", lam2k, N, float(eta), phi),
                     dense_ring("square", lam2k, N, float(eta), phi) + 1e-9 * (noise + noise.conj().T)):
            deviation = np.max(np.abs(np.linalg.eigvalsh(ring) - square_ring_closed_form(N, phi, lam2k, eta)))
            rounding = 2.0 * np.finfo(np.float64).eps * np.linalg.norm(ring, 2)
            assert deviation <= _residual_bound(ring, levels, vectors, lam2k) + rounding


def test_residual_equals_the_eigenpair_residual():
    # for a unitary U, ||H - U D U^H||_F = ||H U - U D||_F: validate's form is the eigenpair residual
    for phi, eta in CASES:
        levels, vectors = square_ring_modes(33, phi, eta)
        ring = dense_ring("square", 1.0, 33, float(eta), phi)
        ring[3, 4] += 1e-6
        eigenpair = np.linalg.norm(ring @ vectors - vectors * (levels - 1.0))
        assert _residual_bound(ring, levels, vectors, 1.0) == pytest.approx(eigenpair, rel=1e-8)


@pytest.mark.parametrize("N,eta", [(1, 1), (0, 0), (4, 0.5), (4, 2)])
def test_square_ring_modes_rejects_what_has_no_closed_form(N, eta):
    with pytest.raises(ValueError):
        square_ring_modes(N, 0.0, eta)


@pytest.mark.parametrize("kind,M,N", [("honeycomb", M, N) for M in (7, 31) for N in (4, 8, 20, 40)]
                         + [("square", M, N) for M in (2, 5, 7) for N in (2, 12, 33)])
def test_boundary_green_is_the_corner_of_the_dense_resolvent(kind, M, N):
    # the continued fraction's G_1N and G_NN^2 against inv(iy - H0), H0 ring_stack's open ring of every mode;
    # G_11^2 is held against G_NN^2 too, as the shift engine reads one for the other (worst seen: 1.1e-14)
    lams, y = ring_lams(kind, M), np.geomspace(1e-3, 1e3, 25)
    g1n, gnn2 = boundary_green(kind, lams, N, y)
    assert g1n.shape == gnn2.shape == (M, len(y))
    rings = np.concatenate(list(ring_stack(kind, lams, N, [0.0], 0.0)))
    dense = np.moveaxis(np.linalg.inv(1j * y[:, None, None, None] * np.eye(N) - rings), 0, 1)  # (rings, y, N, N)
    for got, want in ((g1n, dense[..., 0, N - 1]), (gnn2, dense[..., N - 1, N - 1] ** 2), (gnn2, dense[..., 0, 0] ** 2)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_every_lapack_call_of_the_readme_lines_comes_from_eigensolve(monkeypatch, tmp_path, capsys):
    # as the benchmark tracer's NumPy boundary does, each eigvalsh/eigh call is attributed to the module and
    # function of the frame that makes it; only validate's two oracles solve outside eigensolve
    calls = []
    for name in ("eigvalsh", "eigh"):
        def recorded(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            caller = sys._getframe(1)
            calls.append((_name, caller.f_globals["__name__"], caller.f_code.co_name))
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    by_command = {}
    for row in read_table("readme"):
        calls.clear()
        assert main([*row.args, "--out", str(tmp_path / row.name)]) == row.exit, row.line
        by_command.setdefault(row.args[0], set()).update(calls)
    capsys.readouterr()
    oracles = {("torus_qpt.validate", "_union_deviation"), ("torus_qpt.validate", "_gap_slopes")}
    callers = {(module, function) for command in by_command.values() for _, module, function in command}
    assert {module for module, _ in callers - oracles} == {"torus_qpt.eigensolve"}
    assert oracles <= callers
    assert {name for name, _, _ in by_command["fidelity"]} == {"eigh"}
