import math

import numpy as np
import pytest

from conftest import dense_ring
from oracles import square_ring_closed_form
from torus_qpt import square_ring_modes

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
