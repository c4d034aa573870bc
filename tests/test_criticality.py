import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from conftest import dense_ring
from oracles import d2_analytic, ground_energies, ground_energy_exact
from torus_qpt import (
    ModelSpec,
    SweepResult,
    analytic_curvature,
    build_lattice,
    corner_coupling,
    critical_modes,
    fidelity_exact,
    fidelity_perturbative,
    golden_section_min,
    linear_fit,
    midgap_perturbation,
    ring_lams,
    ring_levels,
    ring_stack,
    scaling_scan,
    sweep,
    sweep_to_csv,
)
from torus_qpt import criticality, ssh
from torus_qpt.blocks import CHUNK_ENTRIES, sin_cos
from torus_qpt.criticality import (
    MAX_ETA,
    _factor,
    _far_nodes,
    _level_crossing,
    _mode_terms,
    _near_nodes,
    _near_sums,
    _shift_table,
    _shifted_energies,
)
from torus_qpt.ssh import _d2_sum, critical_doublets

PHI = math.pi / 4
LAM_3_7 = 2.0 * math.cos(3.0 * math.pi / 7.0)


def test_exact_midgap_gap_positive_and_small():
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    evals = np.linalg.eigvalsh(dense_ring("honeycomb", lam, N, c * math.cos(PHI), PHI))
    gap = float(evals[N // 2] - evals[N // 2 - 1])
    assert 0 < gap < 0.01


def _midgap_part(spec):
    """E_m: the lower midgap level of each critical-window ring, summed."""
    lams = ring_lams(spec.kind, spec.M, critical_modes(spec.M))
    rings = (dense_ring("honeycomb", lam, spec.N, spec.eta, spec.phi) for lam in lams)
    return spec.t * sum(float(np.linalg.eigvalsh(ring)[spec.N // 2 - 1]) for ring in rings)


def test_ground_energy_exact_split():
    spec = ModelSpec("honeycomb", 7, 8, eta=0.02, phi=PHI)
    e_g = ground_energy_exact(spec)
    # E_g is the sum of negative full-lattice levels, and so of negative block levels
    evals = np.linalg.eigvalsh(build_lattice(spec))
    assert e_g == pytest.approx(float(evals[evals < 0].sum()), rel=1e-14)
    union = np.sort(spec.t * ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [spec.eta], spec.phi).ravel())
    assert e_g == pytest.approx(float(union[union < 0].sum()), rel=1e-12)
    # the midgap part is negative, and so is the band remainder
    e_m = _midgap_part(spec)
    assert e_m < 0 and e_g - e_m < 0


def test_ground_energy_square_has_no_midgap_part():
    # the square lattice has no critical window, so E_g is the negative block levels alone
    spec = ModelSpec("square", 3, 8, eta=0.5, phi=PHI)
    union = np.sort(spec.t * ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [spec.eta], spec.phi).ravel())
    assert ground_energy_exact(spec) == pytest.approx(float(union[union < 0].sum()), rel=1e-12)


def test_band_part_curvature_is_negligible_at_peak():
    # the midgap doublet drives the curvature peak; the band remainder
    # contributes under 10% (measured ~3.5e-4) of the midgap curvature
    spec = ModelSpec("honeycomb", 7, 20, phi=PHI)
    eta_m = sweep(spec).eta_m
    h = eta_m / 4

    def parts(eta):
        at = dataclasses.replace(spec, eta=eta)
        e_m = _midgap_part(at)
        return ground_energy_exact(at) - e_m, e_m

    (b_hi, m_hi), (b_0, m_0), (b_lo, m_lo) = parts(eta_m + h), parts(eta_m), parts(eta_m - h)
    d2_band = abs((b_hi - 2 * b_0 + b_lo) / h**2)
    d2_midgap = abs((m_hi - 2 * m_0 + m_lo) / h**2)
    assert d2_band <= 0.1 * d2_midgap


def _scalar_d2(spec, eta, convention="cells"):
    """The closed-form curvature at one eta through analytic_curvature's own per-mode sum."""
    return _d2_sum(spec, critical_doublets(spec, convention), eta)


def test_d2_analytic_rejects_square():
    spec = ModelSpec("square", 3, 8)
    with pytest.raises(ValueError):
        d2_analytic(spec, 0.1)
    column, extremum = analytic_curvature(spec, [0.0, 0.1, 0.2])
    assert np.isnan(column).all() and len(column) == 3 and extremum is None


def test_d2_analytic_is_second_derivative_of_midgap_energy():
    spec = ModelSpec("honeycomb", 7, 12, phi=PHI)
    eta0, h = 0.01, 1e-4

    lams = ring_lams(spec.kind, spec.M, critical_modes(spec.M))

    def e_m(eta):
        return spec.t * sum(midgap_perturbation(lam, spec.N, eta, spec.phi).eps_minus for lam in lams)

    fd = (e_m(eta0 + h) - 2 * e_m(eta0) + e_m(eta0 - h)) / h**2
    ana = d2_analytic(spec, eta0)
    assert ana < 0
    assert fd == pytest.approx(ana, rel=1e-3)


def test_d2_analytic_mode_restriction_sums():
    # the critical window of M = 7 is the modes 3 and 4, each term taken from the formula alone
    spec = ModelSpec("honeycomb", 7, 12, phi=PHI)
    full = analytic_curvature(spec, [0.0, 0.01])[0][1]
    parts = d2_analytic(spec, 0.01, modes=[3]) + d2_analytic(spec, 0.01, modes=[4])
    assert full == pytest.approx(parts, rel=1e-14)
    assert d2_analytic(spec, 0.01) == pytest.approx(parts, rel=1e-14)


def test_d2_analytic_first_order_branches():
    # sin(phi) = 0, exactly or within one ulp: 0 away from the crossing, -inf on it, no extremum
    for phi in (0.0, math.pi, 2.0 * math.pi):
        spec = ModelSpec("honeycomb", 7, 12, phi=phi)
        crossing = corner_coupling(LAM_3_7, 12) * sin_cos(phi)[1]
        column, extremum = analytic_curvature(spec, [0.5 * crossing, crossing])
        assert column.tolist() == [0.0, -math.inf] and extremum is None, phi


def test_sin_cos_is_exact_at_multiples_of_half_pi():
    assert math.sin(2.0 * math.pi) != 0.0 and math.cos(0.5 * math.pi) != 0.0
    for k, want in ((0, (0.0, 1.0)), (1, (1.0, 0.0)), (2, (0.0, -1.0)), (3, (-1.0, 0.0)), (4, (0.0, 1.0)),
                    (-1, (-1.0, 0.0)), (-2, (0.0, -1.0)), (200, (0.0, 1.0))):
        phi = k * 0.5 * math.pi
        for x in (phi, math.nextafter(phi, math.inf), math.nextafter(phi, -math.inf)):
            assert sin_cos(x) == want, (k, x)
    for phi in (PHI, 1.1, -2.5, 1e-300, math.nextafter(math.pi, 0.0) - 1e-15):
        assert sin_cos(phi) == (math.sin(phi), math.cos(phi))


@pytest.mark.parametrize("convention", ["cells", "sites"])
@pytest.mark.parametrize("phi", [PHI, 1.1, 0.3, 2.5])
def test_analytic_curvature_matches_the_closed_form_oracle(phi, convention):
    # the oracle is the formula alone, with complex arithmetic; analytic_curvature sums Python
    # scalars in its own order, so the two agree to roundoff and not bit for bit
    for M in (5, 7, 10, 13, 31):
        for N in (8, 20, 40, 64):
            spec = ModelSpec("honeycomb", M, N, phi=phi)
            lams = ring_lams("honeycomb", M, critical_modes(M))
            grid = np.linspace(0.0, 2.0 * max(abs(corner_coupling(lam, N, convention)) for lam in lams), 65)
            column, extremum = analytic_curvature(spec, grid, convention)
            want = np.array([d2_analytic(spec, x, convention) for x in grid])
            assert np.max(np.abs(column - want) / np.abs(want)) <= 1e-14, (M, N)
            eta_m, peak = extremum
            assert peak == pytest.approx(d2_analytic(spec, eta_m, convention), rel=1e-14, abs=0.0)
            assert grid[0] <= eta_m <= grid[-1]


def _per_ring_energies(spec, etas):
    """Reference E_g: one eigvalsh call per ring at t = 1, negative levels
    summed block by block in ascending mode order, the sum multiplied by
    spec.t; also the negative counts and t*sum |eps| over every level, the
    roundoff scale of E_g."""
    # lambda is exactly 0 where the cosine's argument is an odd multiple of pi/2
    M = spec.M
    if spec.kind == "honeycomb":
        lams = [0.0 if 2 * m == M else 2.0 * math.cos(math.pi * m / M) for m in range(1, M + 1)]
    else:
        lams = [0.0 if 4 * m in (M, 3 * M) else 2.0 * math.cos(2.0 * math.pi * m / M) for m in range(1, M + 1)]
    energies, counts, scales = [], set(), []
    for eta in etas:
        total = scale = 0.0
        for lam in lams:
            evals = np.linalg.eigvalsh(dense_ring(spec.kind, lam, spec.N, eta, spec.phi))
            total += float(evals[evals < 0.0].sum())
            scale += float(np.abs(evals).sum())
            counts.add(int(np.count_nonzero(evals < 0.0)))
        energies.append(total)
        scales.append(scale)
    return spec.t * np.array(energies), counts, spec.t * np.array(scales)


def _c3_7(N):
    return corner_coupling(LAM_3_7, N)


@pytest.mark.parametrize(
    "spec,etas",
    [
        # 13 etas x 7 modes = 91 rings in chunks of 40: the last chunk is partial
        (ModelSpec("honeycomb", 7, 20, phi=PHI), np.linspace(0.0, 3 * _c3_7(20), 13)),
        (ModelSpec("honeycomb", 7, 20, t=0.7, phi=PHI), [2.155e-4, 2.155e-4 + 1e-6, 2.155e-4 - 1e-6, 0.0, 1.0]),
        # at phi = 0 and eta = c_k the midgap doublet crosses zero
        (ModelSpec("honeycomb", 7, 12, phi=0.0), [_c3_7(12), 0.5 * _c3_7(12), _c3_7(12), 0.0, 0.2]),
        (ModelSpec("square", 5, 12, phi=0.3 * math.pi), np.linspace(0.0, 1.0, 29)),
        (ModelSpec("square", 4, 2, phi=PHI), np.linspace(0.0, 1.0, 9)),
    ],
)
def test_ground_energies_equal_per_ring_reference(spec, etas):
    expected, counts, _ = _per_ring_energies(spec, etas)
    assert np.array_equal(ground_energies(spec, etas), expected)
    if spec.phi == 0.0 or spec.kind == "square":
        assert counts != {spec.N // 2}


def test_open_ground_energy_equals_the_dense_oracle_bit_for_bit():
    # E_g(0) of the sweeps against the oracle's eta = 0 column, over every M = 2..31 of both kinds
    specs = [
        ModelSpec(kind, M, N, 1.0, 0.0, phi)
        for phi in (0.0, PHI, 1.1)
        for kind, ns in (("honeycomb", (4, 20, 36, 80)), ("square", (2, 5, 17, 33, 80)))
        for M in range(2 if kind == "square" else 3, 32)
        for N in ns
        if N < 80 or M in (3, 7, 31)
    ]
    assert len(specs) == 639
    differ = [spec for spec in specs if criticality._open_ground_energy(spec) != ground_energies(spec, [0.0])[0]]
    assert differ == []


def _assert_dense_close(spec, etas, e_g):
    """|E_g - dense E_g| <= 1e-14 * sum|eps| at every eta."""
    err = np.abs(np.asarray(e_g) - ground_energies(spec, etas))
    assert np.all(err <= 1e-14 * _per_ring_energies(spec, etas)[2]), err.max()


@pytest.mark.parametrize(
    "spec,etas",
    [
        *[
            (ModelSpec("honeycomb", 7, N, phi=PHI), np.concatenate([np.linspace(0.0, 3 * _c3_7(N), 25), [0.1, 0.5, 1.0]]))
            for N in (8, 20, 32)
        ],
        # at phi = 0 and eta = c_k the midgap doublet crosses zero
        (ModelSpec("honeycomb", 7, 12, phi=0.0), [_c3_7(12), 0.5 * _c3_7(12), 0.0, 0.2, 2 * _c3_7(12)]),
        # M = 9 has the |lambda| = 1 modes m = 3 and 6
        (ModelSpec("honeycomb", 9, 16, phi=0.0), np.linspace(0.0, 1.0, 41)),
        (ModelSpec("honeycomb", 5, 8, t=2.0, phi=math.pi / 2), np.linspace(0.0, 1.0, 21)),
        (ModelSpec("honeycomb", 3, 4, phi=PHI), np.linspace(0.0, 3.0, 31)),
        (ModelSpec("honeycomb", 31, 64, phi=PHI), [0.0, 1e-4, 0.003, 0.02, 0.1, 1.0]),
        (ModelSpec("honeycomb", 7, 56, phi=PHI), np.linspace(0.0, 1e-9, 11)),
        (ModelSpec("honeycomb", 7, 80, phi=PHI), np.linspace(0.0, 1e-9, 11)),
        # the upper quadrature cut grows with the largest eta
        (ModelSpec("honeycomb", 7, 20, phi=PHI), [0.0, 0.5, 3.0, 10.0, 100.0, 1e3]),
        # at N = 2 the boundary bond stacks on the -t bond
        *[
            (ModelSpec("square", 5, N, phi=phi), np.linspace(0.0, 1.0, 21))
            for N in (2, 3, 12)
            for phi in (0.0, PHI)
        ],
        # even M: the folded table counts modes M/2 and M once, the others twice
        *[(ModelSpec("honeycomb", M, 12, phi=PHI), np.linspace(0.0, 1.0, 21)) for M in (4, 6, 8)],
        *[(ModelSpec("square", M, 5, phi=PHI), np.linspace(0.0, 1.0, 21)) for M in (2, 4, 6)],
        # the largest eta a sweep accepts, on the specs whose error grows fastest with eta
        (ModelSpec("square", 2, 2, phi=2.0), np.linspace(0.0, MAX_ETA, 41)),
        (ModelSpec("square", 5, 2, phi=0.0), np.linspace(0.0, MAX_ETA, 41)),
    ],
)
def test_shift_engine_matches_dense_energies(spec, etas):
    # the engine works in units of t; sweep scales its energies by spec.t
    table = _shift_table(spec, float(np.max(etas)))
    _assert_dense_close(spec, etas, spec.t * _shifted_energies(spec, table, etas)[0])


@pytest.mark.parametrize(
    "kind,a,b",
    [
        # real A and B > A^2/4, as on the bipartite honeycomb ring
        ("honeycomb", [0.01, 0.3, -0.3, -2.0, 5.0], [0.01, 0.5, 0.5, 1.5, 7.0]),
        # B = 0 with A of either sign, and A = B = 0 (q = 1)
        ("square", [0.01j, 1.0, -0.7, 0.3 + 0.4j, -2.0 - 1.0j, 0.0], [0.01, 0.0, 0.0, 0.2 - 0.1j, 1.5 + 0.5j, 0.0]),
    ],
)
def test_mode_shift_is_ln_abs_q(kind, a, b):
    # the per-node forms the table sums: log1p(q - 1) where |q - 1| <= 1/4
    # (near), and the factored q (far) wherever Q != 0, against ln|q| and
    # d^2/deta^2 ln|q| = Re[(2B*q - (A + 2B*eta)^2)/q^2]
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    etas = np.linspace(0.0, 2.0, 9)[:, None]
    q = 1.0 + a * etas + b * etas**2
    ln_q, d2_ln_q = np.log(np.abs(q)), ((2.0 * b * q - (a + 2.0 * b * etas) ** 2) / q**2).real
    if kind == "honeycomb":  # the engine keeps the real parts of a bipartite ring's A and B
        a, b = a.real, b.real
    near = np.abs(q - 1.0) <= 0.25
    assert near.any() and not near.all()
    ln, d2 = _near_nodes(kind, a, b, etas)
    assert np.allclose(ln[near], ln_q[near], rtol=0.0, atol=1e-14)
    assert np.allclose(d2[near], d2_ln_q[near], rtol=1e-13, atol=1e-13)
    far = (a != 0.0) | (b != 0.0)
    d4 = 0.25 * a[far] ** 2 - b[far] + 0j  # (A^2 - 4B)/4
    ln, d2 = _far_nodes(kind, _factor(kind, a[far], b[far], d4), etas)
    assert np.allclose(ln, ln_q[:, far], rtol=0.0, atol=1e-14)
    assert np.allclose(d2, d2_ln_q[:, far], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize(
    "spec,eta_max",
    [
        *[
            (ModelSpec("honeycomb", 7, N, phi=PHI), eta_max)
            for N in (8, 32, 80)
            for eta_max in (1e-6, 0.1, 1.0, 100.0)
        ],
        (ModelSpec("honeycomb", 31, 64, phi=PHI), 0.1),
        (ModelSpec("honeycomb", 7, 12, phi=0.0), 1.0),
        *[
            (ModelSpec("square", M, N, phi=0.7), eta_max)
            for M, N in ((5, 12), (2, 2), (5, 2))
            for eta_max in (1.0, 100.0)
        ],
    ],
)
def test_near_sums_interpolate_the_exact_sums(monkeypatch, spec, eta_max):
    # the table keeps the near nodes' sums at the Chebyshev points only; read
    # back between them they match the sums over every near node
    nodes = {}

    def keep_nodes(kind, a, b, d4, weights, eta_max, lowest):
        nodes.update(a=a, b=b, weights=weights)
        return _mode_terms(kind, a, b, d4, weights, eta_max, lowest)

    monkeypatch.setattr(criticality, "_mode_terms", keep_nodes)
    terms = _shift_table(spec, eta_max)[1]
    a, b, weights = nodes["a"], nodes["b"], nodes["weights"]
    near = np.abs(a) * eta_max + np.abs(b) * eta_max**2 <= 0.25
    if spec.kind == "honeycomb":
        a, b = a.real, b.real
    etas = np.linspace(0.0, eta_max, 97)[:, None]
    exact = [(value * weights[near]).sum(axis=1) for value in _near_nodes(spec.kind, a[near], b[near], etas)]
    for got, want in zip(_near_sums(terms, etas), exact):
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


def test_shift_engine_is_deterministic():
    # an eta's energy depends on that eta and the table only, and repeats bit for bit
    for spec in (ModelSpec("honeycomb", 7, 20, phi=PHI), ModelSpec("square", 5, 3, phi=PHI)):
        etas = np.linspace(0.0, 0.7, 57)
        table = _shift_table(spec, 0.7)
        curve, d2 = _shifted_energies(spec, table, etas)
        assert np.array_equal(curve, _shifted_energies(spec, _shift_table(spec, 0.7), etas)[0])
        assert np.array_equal(curve, [_shifted_energies(spec, table, [eta])[0][0] for eta in etas])
        assert np.array_equal(d2, [_shifted_energies(spec, table, [eta])[1][0] for eta in etas])
    first, second = sweep(ModelSpec("honeycomb", 7, 20, phi=PHI)), sweep(ModelSpec("honeycomb", 7, 20, phi=PHI))
    assert np.array_equal(first.e_g_curve, second.e_g_curve)
    assert (first.eta_m, first.peak) == (second.eta_m, second.peak)


@pytest.mark.parametrize("N", [8, 16])
def test_sweep_curves_equal_per_eta_reference(N):
    # on these grids NumPy's vectorized ** would round some d2_analytic terms differently
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    res = sweep(spec, steps=200)
    _assert_dense_close(spec, res.eta_grid, res.e_g_curve)
    column, (eta_m, peak) = analytic_curvature(spec, res.eta_grid)
    assert np.array_equal(column, np.array([_scalar_d2(spec, x) for x in res.eta_grid]))
    lo, hi = res.eta_grid[0], res.eta_grid[-1]
    eta_a = golden_section_min(lambda x: _scalar_d2(spec, x), float(lo), float(hi), tol=1e-12 * float(hi - lo))
    assert eta_m == eta_a
    assert peak == _scalar_d2(spec, eta_a)


def test_golden_section_min():
    x = golden_section_min(lambda v: (v - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-9)
    # a tol below the float spacing of the bracket, which never shrinks to it, still ends (after 500 steps)
    x = golden_section_min(lambda v: (v - 99.999995) ** 2, 99.99999, 100.0, tol=1e-17)
    assert x == pytest.approx(99.999995, abs=1e-12)
    with pytest.raises(ValueError):
        golden_section_min(lambda v: v, 1.0, 1.0)


def test_linear_fit_exact_line():
    fit = linear_fit([1, 2, 3, 4], [3.0, 5.0, 7.0, 9.0])
    assert list(fit) == ["slope", "intercept", "r2"]
    assert fit["slope"] == pytest.approx(2.0, rel=1e-12)
    assert fit["intercept"] == pytest.approx(1.0, rel=1e-12)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
    assert all(type(value) is float for value in fit.values())


def test_linear_fit_validation():
    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [1.0, 2.0, 3.0])


def test_sweep_honeycomb_pinpoints_known_peak():
    spec = ModelSpec("honeycomb", 7, 20, phi=PHI)
    res = sweep(spec)
    assert res.flags == ()
    assert res.eta_m == pytest.approx(2.155252e-4, rel=1e-3)
    assert res.peak == pytest.approx(-7444.37, rel=1e-3)
    eta_m, peak = analytic_curvature(spec, res.eta_grid)[1]
    assert eta_m == pytest.approx(res.eta_m, rel=1e-2)
    assert peak == pytest.approx(res.peak, rel=1e-2)


@pytest.mark.parametrize("M,N", [(7, 20), (31, 64)])
def test_sweep_exact_outputs_do_not_read_the_convention(M, N):
    # the physical corners lambda_k^(N/2) set the range and the cut; 'sites' moves only the analytic comparison
    assert "convention" not in inspect.signature(sweep).parameters
    assert "convention" not in inspect.signature(fidelity_exact).parameters
    assert [field.name for field in dataclasses.fields(SweepResult)] == [
        "eta_grid", "e_g_curve", "d2_numeric", "eta_m", "peak", "flags"]
    spec = ModelSpec("honeycomb", M, N, phi=PHI)
    grid = sweep(spec).eta_grid
    (cells, cells_extremum), (sites, sites_extremum) = (analytic_curvature(spec, grid, c) for c in ("cells", "sites"))
    assert not np.array_equal(sites, cells)
    assert sites_extremum != cells_extremum


@pytest.mark.parametrize("N", [56, 72, 80])
def test_sweep_analytic_extremum_below_1e_minus_12(N):
    # eta* = c*cos(phi) is 1.01e-10, 1.56e-13 and 6.10e-15: an absolute
    # golden-section tolerance of 1e-12 stopped 50 % off at N = 72 and 80.
    # A minimizer that compares values places a smooth extremum only to about
    # sqrt(eps) of its width c*|sin(phi)| (measured 1.5e-8 relative here).
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    eta_m, peak = analytic_curvature(spec, sweep(spec).eta_grid)[1]
    eta_star = corner_coupling(LAM_3_7, N) * math.cos(PHI)
    assert eta_m == pytest.approx(eta_star, rel=1e-7)
    assert peak == _scalar_d2(spec, eta_m)
    assert peak == pytest.approx(d2_analytic(spec, eta_star), rel=1e-13)


@pytest.mark.parametrize("N", [56, 72, 80])
def test_sweep_exact_peak_far_below_roundoff_of_e_g(N):
    # here the roundoff of E_g over any grid step squared exceeds |peak|, so
    # only an exact curvature resolves the peak; it agrees with perturbation
    # theory, whose error falls with the midgap scale c_k
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    res = sweep(spec)
    eta_m, peak = analytic_curvature(spec, res.eta_grid)[1]
    assert res.flags == ()
    assert res.eta_m == pytest.approx(eta_m, rel=1e-6)
    assert res.peak == pytest.approx(peak, rel=1e-8)


@pytest.mark.parametrize(
    "spec,lo,hi",
    [
        (ModelSpec("honeycomb", 7, 8, phi=PHI), 0.0, 0.08),
        (ModelSpec("honeycomb", 7, 20, phi=PHI), 0.0, 1e-3),
        (ModelSpec("square", 3, 16, phi=PHI), 0.2, 1.0),
    ],
)
def test_sweep_curvature_matches_dense_second_differences(spec, lo, hi):
    # Richardson over steps h and h/2 of dense second differences, on ranges
    # where no level crosses zero (a crossing is a kink of E_g, which the
    # pointwise curvature omits)
    res = sweep(spec, eta_min=lo, eta_max=hi, steps=64)
    etas, h = res.eta_grid[2:-2:4], (hi - lo) / 64
    energies = ground_energies(spec, np.concatenate([etas + k * h for k in (-1.0, -0.5, 0.0, 0.5, 1.0)]))
    down, down2, center, up2, up = energies.reshape(5, -1)
    d_h = (up - 2.0 * center + down) / h**2
    d_h2 = (up2 - 2.0 * center + down2) / (h / 2) ** 2
    richardson = (4.0 * d_h2 - d_h) / 3.0
    assert np.max(np.abs(res.d2_numeric[2:-2:4] - richardson)) <= 1e-5 * abs(res.peak)


def test_sweep_grid_structure():
    spec = ModelSpec("honeycomb", 7, 8, phi=PHI)
    res = sweep(spec, steps=64)
    assert res.eta_grid.shape == (65,)
    assert res.e_g_curve.shape == (65,)
    assert math.isnan(res.d2_numeric[0]) and math.isnan(res.d2_numeric[-1])
    assert not np.isnan(res.d2_numeric[1:-1]).any()
    assert not np.isnan(analytic_curvature(spec, res.eta_grid)[0]).any()
    assert res.eta_grid[0] == 0.0
    # default range is 3*max_k c_k * cos(phi), clipped to [0, 1]
    expected_hi = 3.0 * corner_coupling(LAM_3_7, 8) * math.cos(PHI)
    assert res.eta_grid[-1] == pytest.approx(expected_hi, rel=1e-12)


def test_sweep_explicit_range_and_validation():
    spec = ModelSpec("honeycomb", 7, 8, phi=PHI)
    res = sweep(spec, eta_min=0.0, eta_max=0.5, steps=64)
    assert res.eta_grid[-1] == 0.5
    with pytest.raises(ValueError):
        sweep(spec, steps=32)
    with pytest.raises(ValueError):
        sweep(spec, eta_min=0.4, eta_max=0.2)
    with pytest.raises(ValueError):
        sweep(spec, eta_min=-0.1, eta_max=0.5)


@pytest.mark.parametrize(
    "bounds", [dict(eta_max=math.inf), dict(eta_min=math.nan), dict(eta_min=0.1, eta_max=math.nan),
               dict(eta_min=-math.inf, eta_max=0.5), dict(eta_min=math.inf),
               # finite but past MAX_ETA, where the engine is not verified
               dict(eta_max=100.5), dict(eta_max=1e200), dict(eta_max=1e308)],
)
def test_sweep_rejects_non_finite_bounds_before_any_work(monkeypatch, bounds):
    def no_table(*args):
        raise AssertionError("the shift table was built")

    monkeypatch.setattr(criticality, "_shift_table", no_table)
    with pytest.raises(ValueError, match="finite"):
        sweep(ModelSpec("honeycomb", 7, 8, phi=PHI), steps=64, **bounds)


def test_sweep_first_order_flag():
    spec = ModelSpec("honeycomb", 7, 8, phi=0.0)
    res = sweep(spec, steps=64)
    assert "first-order-crossing" in res.flags
    assert analytic_curvature(spec, res.eta_grid)[1] is None
    # sin(2*pi) is -2.4e-16, not 0: phi = 2*pi is phi = 0, bit for bit
    wrapped = sweep(dataclasses.replace(spec, phi=2.0 * math.pi), steps=64)
    assert wrapped.flags == res.flags and (wrapped.eta_m, wrapped.peak) == (res.eta_m, res.peak)
    assert wrapped.e_g_curve.tobytes() == res.e_g_curve.tobytes()
    assert wrapped.d2_numeric.tobytes() == res.d2_numeric.tobytes()


def test_sweep_at_half_pi_takes_the_full_default_range():
    # cos(pi/2) is 6.1e-17, not 0: the default range 3*max c_k*cos(phi) shrank to [0, 5.5e-20], and
    # eta_m was its largest roundoff value, unflagged; now the range is [0, 1] and the flag fires
    res = sweep(ModelSpec("honeycomb", 7, 20, phi=math.pi / 2))
    assert res.eta_grid[-1] == 1.0
    assert res.flags == ("peak-not-bracketed",)


def test_level_crossing_flag_marks_the_dense_count_change():
    # the lambda = -1.618 rings of the M = 5 square torus change their number
    # of negative levels near eta = 0.72; Re q at the lowest node changes
    # sign on the same grid interval, and only there
    spec = ModelSpec("square", 5, 12, phi=0.7)
    res = sweep(spec, eta_min=0.0, eta_max=1.0, steps=128)
    assert "level-crossing" in res.flags
    lams = ring_lams("square", 5)
    counts = np.concatenate([np.count_nonzero(np.linalg.eigvalsh(chunk) < 0.0, axis=-1)
                             for chunk in ring_stack("square", lams, 12, res.eta_grid, 0.7)]).reshape(-1, 5)
    changes = np.flatnonzero((counts[1:] != counts[:-1]).any(axis=1)).tolist()
    terms = _shift_table(spec, 1.0)[1]
    flagged = [i for i in range(128) if _level_crossing("square", terms, res.eta_grid[i : i + 2])]
    assert flagged == changes and len(changes) == 1
    assert 0.71 < res.eta_grid[changes[0]] < 0.73
    assert "level-crossing" not in sweep(ModelSpec("honeycomb", 7, 20, phi=PHI)).flags


@pytest.mark.parametrize("M", [4, 10, 12])
def test_sweep_even_m_zero_coupling_mode(M):
    # mode m = M/2 has lambda = 2cos(pi/2) = 0 exactly and so c = 0; rounded
    # to 1.2e-16 it gave c ~ 1e-192, a lower cut that overflowed the Green's
    # functions, and a ZeroDivisionError in the analytic curve
    spec = ModelSpec("honeycomb", M, 24, phi=PHI)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sweep(spec)
    _assert_dense_close(spec, res.eta_grid, res.e_g_curve)
    column, extremum = analytic_curvature(spec, res.eta_grid)
    if M == 4:  # the one critical mode is m = 2, so there is no analytic extremum
        assert extremum is None
        assert np.array_equal(column, np.zeros(len(res.eta_grid)))
    else:
        assert res.flags == ()
        assert res.eta_m == pytest.approx(extremum[0], rel=1e-4)
        assert res.peak == pytest.approx(extremum[1], rel=1e-2)


def test_sweep_square_lattice_is_tame():
    spec = ModelSpec("square", 3, 8, phi=PHI)
    res = sweep(spec, eta_min=0.0, eta_max=1.0, steps=64)
    column, extremum = analytic_curvature(spec, res.eta_grid)
    assert np.isnan(column).all() and extremum is None
    assert abs(res.peak) < 10.0


@pytest.mark.parametrize("t", [2.0, 1e-300, 1e300])
def test_sweep_scales_its_energies_by_t_once(t):
    # the engine works at t = 1: eta_m and the flags do not depend on t, and each energy is t times
    # the t = 1 value after one rounding (exactly twice it at t = 2)
    for spec in (ModelSpec("honeycomb", 7, 20, phi=PHI), ModelSpec("square", 5, 12, phi=0.7)):
        unit, scaled = sweep(spec), sweep(dataclasses.replace(spec, t=t))
        assert (scaled.eta_m, scaled.flags) == (unit.eta_m, unit.flags)
        assert np.array_equal(scaled.eta_grid, unit.eta_grid)
        assert np.array_equal(scaled.e_g_curve, t * unit.e_g_curve)
        assert np.array_equal(scaled.d2_numeric, t * unit.d2_numeric, equal_nan=True)
        assert scaled.peak == t * unit.peak


def test_sweep_result_arrays_read_only():
    res = sweep(ModelSpec("honeycomb", 7, 8, phi=PHI), steps=64)
    with pytest.raises(ValueError):
        res.e_g_curve[0] = 0.0


def test_scaling_scan_small():
    report = scaling_scan(M=7, phi=PHI, t=1.0, n_list=[8, 12, 16], steps=128)
    assert report["n_values"] == [8, 12, 16]
    # eta_m decreasing, |peak| increasing with N
    ln_eta_m, ln_abs_peak = report["ln_eta_m"], report["ln_abs_peak"]
    assert ln_eta_m[0] > ln_eta_m[1] > ln_eta_m[2]
    assert ln_abs_peak[0] < ln_abs_peak[1] < ln_abs_peak[2]
    assert report["fit_eta"]["r2"] > 0.99 and report["fit_peak"]["r2"] > 0.99
    target = math.log(abs(LAM_3_7)) / 2.0
    assert report["fit_eta"]["slope"] == pytest.approx(target, rel=0.05)
    comp = report["paper_comparison"]
    assert comp["slope_ref"] == -0.2 and comp["intercept_ref"] == -1.2
    assert comp["slope_ref2"] == 0.16 and comp["intercept_ref2"] == -1.2
    assert set(comp["deviations"]) == {"eta_slope", "eta_intercept", "peak_slope", "peak_intercept"}
    assert comp["deviations"]["eta_slope"] == pytest.approx(report["fit_eta"]["slope"] + 0.2, rel=1e-12)


def test_scaling_scan_reaches_n_80():
    # from N = 40 on, second differences of E_g would drown in roundoff
    report = scaling_scan(M=7, phi=PHI, t=1.0, n_list=[24, 32, 40, 48, 56, 64, 72, 80], steps=128)
    assert report["fit_eta"]["slope"] == pytest.approx(math.log(abs(LAM_3_7)) / 2.0, abs=1e-8)


def test_scaling_scan_reads_no_closed_form_term(monkeypatch):
    # the scan reads the exact engine alone: no closed-form term can stop it (at N = 600 and 620 the old
    # (eps^-)^3 form underflowed), and it makes no _d2_sum call
    calls = []
    monkeypatch.setattr(ssh, "_d2_sum", lambda *args: calls.append(args) or _d2_sum(*args))
    report = scaling_scan(M=7, phi=PHI, t=1.0, n_list=[600, 620], steps=128)
    assert abs(report["fit_eta"]["slope"] - math.log(abs(LAM_3_7)) / 2.0) <= 1e-12
    assert calls == []


@pytest.mark.parametrize("N", [400, 600, 800])
def test_analytic_extremum_stays_in_double_range(N):
    # each term is -(t/Omega)*r^2/|z| with |r| <= 1: a cube of the tiny |z| was subnormal near eta* from
    # N = 584 on (it moved the N = 600 extremum by 6.1e-4) and 0 at N = 800, which stopped that sweep
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    doublets = critical_doublets(spec)
    eta_star = max(abs(c) for c, _ in doublets) * math.cos(PHI)
    column, (eta_m, peak) = analytic_curvature(spec, np.linspace(0.0, 3.0 * eta_star, 201))
    assert np.isfinite(column).all() and (column < 0.0).all()
    assert eta_m == pytest.approx(eta_star, rel=3e-8, abs=0.0)  # a flat extremum is located to ~sqrt(eps)
    want = -sum(spec.t / (om * abs(c * math.sin(PHI))) for c, om in doublets)
    assert peak == pytest.approx(want, rel=1e-15, abs=0.0)


def test_scaling_scan_dedupes_and_sorts():
    report = scaling_scan(M=7, phi=PHI, t=1.0, n_list=[12, 8, 12], steps=128)
    assert report["n_values"] == [8, 12]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(M=2, phi=PHI, t=1.0, n_list=[8, 12]),
        dict(M=7.0, phi=PHI, t=1.0, n_list=[8, 12]),
        dict(M=7, phi=0.0, t=1.0, n_list=[8]),
        dict(M=7, phi=PHI, t=1.0, n_list=[]),
        dict(M=7, phi=PHI, t=1.0, n_list=[8, 8]),
        dict(M=7, phi=PHI, t=1.0, n_list=[8, 10]),
        # sin(pi) and sin(2*pi) are 1.2e-16 and -2.4e-16, not 0: both are rejected as phi = 0 is
        dict(M=7, phi=math.pi, t=1.0, n_list=[8, 12]),
        dict(M=7, phi=2.0 * math.pi, t=1.0, n_list=[8, 12]),
    ],
)
def test_scaling_scan_validation(monkeypatch, kwargs):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(criticality, "sweep", no_sweep)
    with pytest.raises(ValueError):
        scaling_scan(**kwargs)


def test_scaling_scan_unbracketed_peak_is_a_runtime_error():
    # M = 11, N = 8: the grid argmax sits on the grid edge, so no fit is possible
    with pytest.raises(RuntimeError, match="not bracketed for N=8"):
        scaling_scan(M=11, phi=PHI, t=1.0, n_list=[8, 12])


def test_fidelity_exact_matches_perturbative():
    # N = 60 and 80: the doublet splits by 1e-9*t to 1e-12*t, above the degenerate fallback's 64 roundoffs
    lam = 0.5
    for N, tol in ((20, 1e-3), (60, 1e-6), (80, 1e-6)):
        c = corner_coupling(lam, N)
        deltas = np.geomspace(c / 10, 10 * c, 7)
        f_exact = fidelity_exact(lam, N, PHI, c * math.cos(PHI), deltas)
        assert np.max(np.abs(f_exact - fidelity_perturbative(lam, N, c * math.cos(PHI), deltas, PHI))) <= tol, N
        assert np.all((f_exact >= 0) & (f_exact <= 1 + 1e-12))


def test_fidelity_exact_keeps_the_order_of_its_deltas():
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    deltas = np.geomspace(c / 10, 10 * c, 7)
    forward = fidelity_exact(lam, N, PHI, c * math.cos(PHI), deltas)
    shuffled = fidelity_exact(lam, N, PHI, c * math.cos(PHI), deltas[[3, 0, 6, 1, 5, 2, 4]])
    assert shuffled.tobytes() == forward[[3, 0, 6, 1, 5, 2, 4]].tobytes()


def test_fidelity_exact_solves_all_rings_in_one_stack_bit_for_bit():
    # 25 deltas are 50 rings of 400 entries: two ring_stack chunks of 40. Each pair's f_exact equals
    # a dense eigh of its two rings, read with the same vdot/SVD rule, to the last bit.
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    deltas = np.geomspace(c / 100.0, 10.0 * c, 25)
    assert 2 * deltas.size > CHUNK_ENTRIES // (N * N) >= deltas.size
    f_exact = fidelity_exact(lam, N, PHI, c * math.cos(PHI), deltas)
    floor = np.finfo(np.float64).eps * (1.0 + abs(lam))
    want = []
    for delta in deltas:
        (w1, v1), (w2, v2) = (np.linalg.eigh(dense_ring("honeycomb", lam, N, eta, PHI))
                              for eta in (c * math.cos(PHI) - delta, c * math.cos(PHI) + delta))
        if min(w1[N // 2] - w1[N // 2 - 1], w2[N // 2] - w2[N // 2 - 1]) <= 64.0 * floor:
            u1, u2 = v1[:, N // 2 - 1 : N // 2 + 1], v2[:, N // 2 - 1 : N // 2 + 1]
            want.append(float(np.linalg.svd(u1.conj().T @ u2, compute_uv=False)[-1]))
        else:
            want.append(float(abs(np.vdot(v1[:, N // 2], v2[:, N // 2]))))
    assert f_exact.tobytes() == np.array(want).tobytes()


def test_fidelity_exact_asymptote():
    # far from the crossing the overlap decays like b/delta
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    b = abs(c * math.sin(PHI))
    delta = 100.0 * b
    f_exact = fidelity_exact(lam, N, PHI, c * math.cos(PHI), [delta])
    assert fidelity_perturbative(lam, N, c * math.cos(PHI), delta, PHI) == pytest.approx(b / delta, rel=1e-4)
    assert f_exact[0] == pytest.approx(b / delta, rel=5e-2)


def test_fidelity_exact_rejects_bad_grid():
    with pytest.raises(ValueError):
        fidelity_exact(0.5, 20, PHI, 0.001, [])
    with pytest.raises(ValueError):
        fidelity_exact(0.5, 20, PHI, 0.001, [0.0, 0.001])
    with pytest.raises(ValueError):
        fidelity_exact(0.5, 20, PHI, 0.001, [-0.001])
    with pytest.raises(ValueError):
        fidelity_exact(0.5, 20, PHI, 0.001, [0.001, 0.0])


def test_fidelity_exact_requires_isolated_doublet():
    # N = 4 at phi = pi/2: band separation only 2.5x the midgap gap
    with pytest.raises(RuntimeError, match="isolable"):
        fidelity_exact(0.5, 4, math.pi / 2, 0.0, [0.01])
    # N = 100: at eta = c*cos(phi) -+ c the splitting scales are near 2(t/Omega)c = 1.3e-15, a few
    # roundoffs of a ring level
    c = corner_coupling(0.5, 100)
    with pytest.raises(RuntimeError, match="below double resolution"):
        fidelity_exact(0.5, 100, PHI, c * math.cos(PHI), [c])


def test_fidelity_exact_checks_the_resolution_of_each_point():
    # at eta = 0.01 -+ delta every doublet splits by ~1e-2*t, so N = 100 is resolvable; its corner
    # c = 8.9e-16 then moves nothing a double holds, and N = 80 (c = 9.1e-13) gives the same f_exact
    deltas = [1e-3, math.sqrt(5e-6), 5e-3]
    n100 = fidelity_exact(0.5, 100, PHI, 0.01, deltas)
    n80 = fidelity_exact(0.5, 80, PHI, 0.01, deltas)
    assert np.max(np.abs(n100 - n80)) <= 1e-12
    # one displaced point on the crossing, where the splitting scale is 2(t/Omega)c|sin phi|, is refused
    c = corner_coupling(0.5, 100)
    with pytest.raises(RuntimeError, match="below double resolution at eta="):
        fidelity_exact(0.5, 100, PHI, 0.01, [0.01 - c * math.cos(PHI)])


def test_fidelity_exact_crossing_drop():
    # first-order crossing at phi = 0: straddling overlap collapses
    lam, N = 0.5, 12
    c = corner_coupling(lam, N)
    assert fidelity_exact(lam, N, 0.0, c, [c])[0] < 0.1


def test_fidelity_exact_degenerate_endpoint_uses_subspace_angle():
    # eta - delta lands exactly on the crossing; the SVD fallback keeps
    # the overlap finite and sensible
    lam, N = 0.5, 12
    c = corner_coupling(lam, N)
    f_exact = fidelity_exact(lam, N, 0.0, 2 * c, [c])
    assert 0.0 <= f_exact[0] <= 1.0
    assert f_exact[0] > 0.9


def test_sweep_to_csv_format():
    spec = ModelSpec("honeycomb", 7, 8, phi=PHI)
    res = sweep(spec, steps=64)
    lines = sweep_to_csv(res, analytic_curvature(spec, res.eta_grid)[0]).strip().split("\n")
    assert lines[0] == "eta,e_g,d2_numeric,d2_analytic"
    assert len(lines) == 66
    assert lines[1].split(",")[2] == "nan"


def test_scaling_scan_report_round_trips_json():
    import json

    report = scaling_scan(M=7, phi=PHI, t=1.0, n_list=[8, 12], steps=128)
    assert list(report) == ["n_values", "ln_eta_m", "ln_abs_peak", "fit_eta", "fit_peak", "paper_comparison"]
    assert json.loads(json.dumps(report)) == report
