import cmath
import math

import numpy as np
import pytest

from conftest import dense_ring
from oracles import build_h0, fidelity_at_minimum
from torus_qpt import (
    corner_coupling,
    fidelity_perturbative,
    midgap_perturbation,
    omega_factor,
    run_validation,
    zero_modes,
)
from torus_qpt.ssh import _refine_peak

PHI = math.pi / 4


def hprime(lam, N, eta, phi):
    """h' of the split -(h0 + h') of the ring block: the corner remainder
    eta*e^{i phi} - c at (N,1) and its conjugate at (1,N)."""
    h1 = np.zeros((N, N), dtype=np.complex128)
    h1[N - 1, 0] = eta * cmath.exp(1j * phi) - corner_coupling(lam, N)
    h1[0, N - 1] = h1[N - 1, 0].conjugate()
    return h1


def test_corner_coupling_conventions():
    assert corner_coupling(0.5, 20) == 0.5**10
    assert corner_coupling(0.5, 2 * 20) == 0.5**20  # the sites corner of 20 sites is the physical one of 40
    assert corner_coupling(-0.5, 4) == 0.25
    assert corner_coupling(-0.5, 6) == -(0.5**3)
    with pytest.raises(ValueError):
        run_validation("bonds")


def test_omega_factor_values():
    assert omega_factor(0.5, 20) == pytest.approx(1.3333320617675781, rel=1e-14)
    assert omega_factor(0.9, 40) == pytest.approx(5.18536377399245, rel=1e-13)
    # geometric-sum identity: Omega is the squared norm of the raw mode
    lam, N = 0.7, 12
    powers = sum(lam ** (2 * j) for j in range(N // 2))
    assert omega_factor(lam, N) == pytest.approx(powers, rel=1e-14)


def test_zero_modes_structure():
    a_plus, a_minus = zero_modes(0.5, 4)
    norm = math.sqrt(1.25)
    assert a_plus == pytest.approx(np.array([1.0, 0.0, 0.5, 0.0]) / norm)
    assert a_minus == pytest.approx(np.array([0.0, 0.5, 0.0, 1.0]) / norm)
    assert omega_factor(0.5, 4) == pytest.approx(1.25, rel=1e-15)
    assert corner_coupling(0.5, 4) == 0.25
    assert np.linalg.norm(a_plus) == pytest.approx(1.0, rel=1e-15)
    assert np.linalg.norm(a_minus) == pytest.approx(1.0, rel=1e-15)
    assert np.vdot(a_plus, a_minus) == 0.0  # disjoint sublattices


def test_zero_modes_read_only_and_validation():
    a_plus, a_minus = zero_modes(0.3, 8)
    for vector in (a_plus, a_minus):
        with pytest.raises(ValueError):
            vector[0] = 2.0
    with pytest.raises(ValueError):
        zero_modes(1.0, 8)
    with pytest.raises(ValueError):
        zero_modes(0.5, 6 + 1)
    with pytest.raises(ValueError):
        zero_modes(0.5, 2)


@pytest.mark.parametrize("lam", [-0.9, -0.5, -0.2, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("N", [4, 8, 12, 20, 40])
def test_cells_convention_annihilates_exactly(lam, N):
    a_plus, a_minus = zero_modes(lam, N)
    h0 = build_h0(lam, N)
    assert np.linalg.norm(h0 @ a_plus) <= 1e-13
    assert np.linalg.norm(h0 @ a_minus) <= 1e-13


def test_sites_convention_leaves_known_residual():
    lam, N = 0.5, 8
    a_plus, _ = zero_modes(lam, N)
    h0 = build_h0(lam, N)
    h0[0, N - 1] = h0[N - 1, 0] = lam**N  # the sites corner
    expected = abs(lam**N - lam ** (N // 2)) / math.sqrt(omega_factor(lam, N))
    residual = np.linalg.norm(h0 @ a_plus)
    assert residual == pytest.approx(expected, rel=1e-12)
    assert residual > 1e-13


def test_split_reassembles_the_ring_block():
    lam, N, eta, phi = 0.5, 8, 0.3, 1.1
    h0, h1 = build_h0(lam, N), hprime(lam, N, eta, phi)
    assert np.max(np.abs(-(h0 + h1) - dense_ring("honeycomb", lam, N, eta, phi))) < 1e-14


def test_hprime_is_rank_two_corner_remainder():
    lam, N = 0.5, 8
    c = corner_coupling(lam, N)
    h0, h1 = build_h0(lam, N), hprime(lam, N, 0.4, PHI)
    assert np.linalg.matrix_rank(h1) == 2
    assert h1[N - 1, 0] == pytest.approx(0.4 * cmath.exp(1j * PHI) - c)
    assert h1[0, N - 1] == pytest.approx(np.conj(h1[N - 1, 0]))
    assert np.count_nonzero(h1) == 2
    # h0 corners carry the compensation entry
    assert h0[0, N - 1] == c and h0[N - 1, 0] == c


def test_midgap_known_point():
    # lam = 0.5, N = 4: c = 1/4, Omega = 5/4, eta at the avoided crossing
    eta_star = 0.25 * math.cos(PHI)
    sol = midgap_perturbation(0.5, 4, eta_star, PHI)
    assert sol.eps_plus == pytest.approx(0.1414213562373095, rel=1e-14)
    assert sol.eps_minus == -sol.eps_plus
    assert sol.gap_min == pytest.approx(0.282842712474619, rel=1e-14)
    assert sol.eta_star == pytest.approx(eta_star, rel=1e-14)
    assert sol.curvature_max == pytest.approx(-4.525483399593905, rel=1e-14)


def test_midgap_vectors_are_rayleigh_optimal():
    lam, N, eta, phi = 0.5, 12, 0.01, PHI
    sol = midgap_perturbation(lam, N, eta, phi)
    block = -(build_h0(lam, N) + hprime(lam, N, eta, phi))
    # v_-+ = (a_plus +- e^{i arg z} * a_minus)/sqrt(2), z = eta*e^{i phi} - c
    a_plus, a_minus = zero_modes(lam, N)
    mix = cmath.exp(1j * cmath.phase(eta * cmath.exp(1j * phi) - corner_coupling(lam, N)))
    v_plus, v_minus = (a_plus - mix * a_minus) / math.sqrt(2.0), (a_plus + mix * a_minus) / math.sqrt(2.0)
    # the doublet vectors diagonalize the block exactly within their span
    assert np.vdot(v_plus, block @ v_plus).real == pytest.approx(sol.eps_plus, rel=1e-12)
    assert np.vdot(v_minus, block @ v_minus).real == pytest.approx(sol.eps_minus, rel=1e-12)
    assert abs(np.vdot(v_plus, block @ v_minus)) < 1e-14
    assert np.linalg.norm(v_plus) == pytest.approx(1.0, rel=1e-14)
    assert abs(np.vdot(v_plus, v_minus)) < 1e-14


def test_midgap_first_order_crossing():
    lam, N = 0.5, 8
    c = corner_coupling(lam, N)
    sol = midgap_perturbation(lam, N, c, 0.0)
    assert sol.eps_plus == 0.0
    assert sol.gap_min == 0.0
    assert sol.curvature_max == -math.inf
    off = midgap_perturbation(lam, N, c / 2, 0.0)
    assert off.curvature_max == -math.inf  # sin(phi) = 0 keeps the crossing exact


@pytest.mark.parametrize("phi", [math.pi, 2.0 * math.pi])
def test_midgap_reads_the_flux_through_sin_cos(phi):
    # math.sin(pi) is 1.2e-16: read raw, it gave gap_min 1.8e-19 and curvature_max -6.3e18 here
    sol, at_zero = midgap_perturbation(0.5, 20, 0.0, phi), midgap_perturbation(0.5, 20, 0.0, 0.0)
    assert sol.gap_min == at_zero.gap_min == 0.0
    assert sol.curvature_max == at_zero.curvature_max == -math.inf
    assert sol.eta_star == corner_coupling(0.5, 20) * (1.0 if phi == 2.0 * math.pi else -1.0)


def test_perturbative_gap_tracks_exact_block():
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    eta_star = c * math.cos(PHI)
    sol = midgap_perturbation(lam, N, eta_star, PHI)
    evals = np.linalg.eigvalsh(dense_ring("honeycomb", lam, N, eta_star, PHI))
    exact = float(evals[N // 2] - evals[N // 2 - 1])
    assert sol.gap_min == pytest.approx(exact, rel=1e-2)


def test_fidelity_perturbative_matches_closed_form():
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    eta_star = c * math.cos(PHI)
    b = abs(c * math.sin(PHI))
    for delta in (b / 10, b, 5 * b):
        f = fidelity_perturbative(lam, N, eta_star, delta, PHI)
        assert f == pytest.approx(fidelity_at_minimum(lam, N, delta, PHI), rel=1e-12)
    assert fidelity_perturbative(lam, N, eta_star, 0.0, PHI) == pytest.approx(1.0)


@pytest.mark.parametrize("convention", ["cells", "sites"])
@pytest.mark.parametrize("lam", [0.3, -0.5, 0.9])
@pytest.mark.parametrize("eta", [0.0, 0.5, 2.0])
def test_fidelity_perturbative_away_from_minimum(lam, eta, convention):
    # |<v_+(eta - delta), v_+(eta + delta)>| = |cos((theta(eta + delta) - theta(eta - delta))/2)|
    # with theta = arg(eta*e^{i phi} - c), since a_plus and a_minus are orthonormal;
    # the 'sites' corner lambda^12 is the physical corner of the 24-site ring
    N = 12 if convention == "cells" else 24
    c = corner_coupling(lam, N)
    theta = lambda x: cmath.phase(x * cmath.exp(1j * PHI) - c)  # noqa: E731
    for delta in (1e-3, 0.1, 0.7):
        want = abs(math.cos((theta(eta + delta) - theta(eta - delta)) / 2.0))
        got = fidelity_perturbative(lam, N, eta, delta, PHI)
        assert abs(got - want) <= 2e-15


def test_fidelity_perturbative_of_many_deltas_builds_the_pair_once(monkeypatch):
    import torus_qpt.ssh as ssh

    calls = []
    monkeypatch.setattr(ssh, "zero_modes", lambda lam, N: calls.append(N) or zero_modes(lam, N))
    deltas = np.geomspace(1e-4, 0.5, 25)
    curve = fidelity_perturbative(0.5, 20, 0.01, deltas, PHI)
    assert calls == [20]
    # the same bits as one call per delta
    assert curve.shape == (25,) and curve.tolist() == [fidelity_perturbative(0.5, 20, 0.01, d, PHI) for d in deltas]
    with pytest.raises(ValueError):
        fidelity_perturbative(0.5, 20, 0.01, [0.1, -0.1], PHI)


def test_fidelity_at_minimum_anchor_points():
    lam, N = 0.5, 20
    b = abs(corner_coupling(lam, N) * math.sin(PHI))
    assert fidelity_at_minimum(lam, N, b, PHI) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert fidelity_at_minimum(lam, N, 0.0, PHI) == 1.0
    # exact crossing at sin(phi) = 0: any separation is a dead drop
    assert fidelity_at_minimum(lam, N, 1e-9, 0.0) == 0.0


def test_fidelity_rejects_negative_delta():
    with pytest.raises(ValueError):
        fidelity_perturbative(0.5, 8, 0.0, -0.1, PHI)
    with pytest.raises(ValueError):
        fidelity_at_minimum(0.5, 8, -0.1, PHI)


def test_fidelity_gauge_invariance_under_lambda_sign():
    # flipping the sign of lambda relabels sublattice amplitudes only
    f_pos = fidelity_perturbative(0.5, 12, 0.001, 0.0005, PHI)
    f_neg = fidelity_perturbative(-0.5, 12, 0.001, 0.0005, PHI)
    assert 0.0 <= f_pos <= 1.0
    assert 0.0 <= f_neg <= 1.0


@pytest.mark.parametrize("start", [0.3, 2.0, -0.9])
@pytest.mark.parametrize("rising", [True, False])
def test_refine_peak_locates_an_extremum_from_its_slope(start, rising):
    # sqrt(1 + (x - 0.25)^2) has its minimum at 0.25 (its negative a maximum there). Newton on its
    # slope maps an offset d to -d^3, so from |d| > 1 it overshoots and only the bisection brings
    # it back; slopes are given in units of h = 0.5, times one positive factor (7)
    sign, h, calls = (1.0 if rising else -1.0), 0.5, []

    def slopes(x):
        calls.append(x)
        d = x - 0.25
        return 7.0 * sign * h**3 * d / math.hypot(1.0, d), 7.0 * sign * h**4 / math.hypot(1.0, d) ** 3

    found = _refine_peak(slopes, start, -1.5, 3.0, h, rising)
    assert found == pytest.approx(0.25, abs=1e-15) and len(calls) <= 60
    assert all(-1.5 <= x <= 3.0 for x in calls)
