import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import dense_ring
from oracles import (
    curvature_sum_over_states,
    d2_analytic,
    golden_section_min,
    ground_energies,
    ground_energy_exact,
    lowest_levels,
)
from torus_qpt import (
    ModelSpec,
    SweepResult,
    analytic_curvature,
    build_lattice,
    corner_coupling,
    critical_modes,
    fidelity_exact,
    fidelity_perturbative,
    linear_fit,
    midgap_perturbation,
    ring_lams,
    ring_levels,
    ring_stack,
    scaling_scan,
    sweep,
    sweep_to_csv,
)
from torus_qpt import blocks, criticality, ssh
from torus_qpt.blocks import CHUNK_ENTRIES, ring_bands, sin_cos
from torus_qpt.criticality import (
    MAX_ETA,
    _d2,
    _factor,
    _far_nodes,
    _gauss_legendre,
    _level_crossing,
    _level_floor,
    _near_nodes,
    _node_slopes,
    _shift_table,
    _shifted_energies,
)
from torus_qpt.eigensolve import _boundary_green, _honeycomb_green
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
    return sum(float(np.linalg.eigvalsh(ring)[spec.N // 2 - 1]) for ring in rings)


def test_ground_energy_exact_split():
    spec = ModelSpec("honeycomb", 7, 8, eta=0.02, phi=PHI)
    e_g = ground_energy_exact(spec)
    # E_g is the sum of negative full-lattice levels, and so of negative block levels
    evals = np.linalg.eigvalsh(build_lattice(spec))
    assert e_g == pytest.approx(float(evals[evals < 0].sum()), rel=1e-14)
    union = np.sort(ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [spec.eta], spec.phi).ravel())
    assert e_g == pytest.approx(float(union[union < 0].sum()), rel=1e-12)
    # the midgap part is negative, and so is the band remainder
    e_m = _midgap_part(spec)
    assert e_m < 0 and e_g - e_m < 0


def test_ground_energy_square_has_no_midgap_part():
    # the square lattice has no critical window, so E_g is the negative block levels alone
    spec = ModelSpec("square", 3, 8, eta=0.5, phi=PHI)
    union = np.sort(ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [spec.eta], spec.phi).ravel())
    assert ground_energy_exact(spec) == pytest.approx(float(union[union < 0].sum()), rel=1e-12)


def test_band_part_curvature_is_negligible_at_peak():
    # the midgap doublet drives the curvature peak; the band remainder
    # contributes under 10% (measured ~3.5e-4) of the midgap curvature
    spec = ModelSpec("honeycomb", 7, 20, phi=PHI)
    eta_m = sweep(spec).eta_m
    h = eta_m / 4

    def parts(eta):
        at = ModelSpec(spec.kind, spec.M, spec.N, eta=eta, phi=spec.phi)
        e_m = _midgap_part(at)
        return ground_energy_exact(at) - e_m, e_m

    (b_hi, m_hi), (b_0, m_0), (b_lo, m_lo) = parts(eta_m + h), parts(eta_m), parts(eta_m - h)
    d2_band = abs((b_hi - 2 * b_0 + b_lo) / h**2)
    d2_midgap = abs((m_hi - 2 * m_0 + m_lo) / h**2)
    assert d2_band <= 0.1 * d2_midgap


def _scalar_d2(spec, eta):
    """The closed-form curvature at one eta through analytic_curvature's own per-mode sum."""
    return _d2_sum(spec, critical_doublets(spec), eta)


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
        return sum(midgap_perturbation(lam, spec.N, eta, spec.phi).eps_minus for lam in lams)

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


@pytest.mark.parametrize("phi", [PHI, 1.1, 0.3, 2.5], ids=lambda phi: f"{phi}-cells")
def test_analytic_curvature_matches_the_closed_form_oracle(phi):
    # the oracle is the formula alone, with complex arithmetic; analytic_curvature sums Python
    # scalars in its own order, so the two agree to roundoff and not bit for bit; both read the
    # physical corners lambda^(N/2) (the ids keep the name of that convention)
    for M in (5, 7, 10, 13, 31):
        for N in (8, 20, 40, 64):
            spec = ModelSpec("honeycomb", M, N, phi=phi)
            lams = ring_lams("honeycomb", M, critical_modes(M))
            grid = np.linspace(0.0, 2.0 * max(abs(corner_coupling(lam, N)) for lam in lams), 65)
            column, extremum = analytic_curvature(spec, grid)
            want = np.array([d2_analytic(spec, x) for x in grid])
            assert np.max(np.abs(column - want) / np.abs(want)) <= 1e-14, (M, N)
            eta_m, peak = extremum
            assert peak == pytest.approx(d2_analytic(spec, eta_m), rel=1e-14, abs=0.0)
            assert grid[0] <= eta_m <= grid[-1]


def _per_ring_energies(spec, etas):
    """Reference E_g: one eigvalsh call per ring, negative levels summed
    block by block in ascending mode order; also the negative counts and
    sum |eps| over every level, the roundoff scale of E_g."""
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
    return np.array(energies), counts, np.array(scales)


def _c3_7(N):
    return corner_coupling(LAM_3_7, N)


@pytest.mark.parametrize(
    "spec,etas",
    [
        # 13 etas x 7 modes = 91 rings in chunks of 40: the last chunk is partial
        (ModelSpec("honeycomb", 7, 20, phi=PHI), np.linspace(0.0, 3 * _c3_7(20), 13)),
        (ModelSpec("honeycomb", 7, 20, phi=PHI), [2.155e-4, 2.155e-4 + 1e-6, 2.155e-4 - 1e-6, 0.0, 1.0]),
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
        ModelSpec(kind, M, N, 0.0, phi)
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
        (ModelSpec("honeycomb", 5, 8, phi=math.pi / 2), np.linspace(0.0, 1.0, 21)),
        (ModelSpec("honeycomb", 3, 4, phi=PHI), np.linspace(0.0, 3.0, 31)),
        (ModelSpec("honeycomb", 31, 64, phi=PHI), [0.0, 1e-4, 0.003, 0.02, 0.1, 1.0]),
        (ModelSpec("honeycomb", 7, 56, phi=PHI), np.linspace(0.0, 1e-9, 11)),
        (ModelSpec("honeycomb", 7, 80, phi=PHI), np.linspace(0.0, 1e-9, 11)),
        # the upper quadrature cut grows with the largest eta
        (ModelSpec("honeycomb", 7, 20, phi=PHI), [0.0, 0.5, 3.0, 10.0, 100.0, 1e3]),
        # mode 2's ring (lambda = 1.247) comes within the level floor of zero at eta = 9.089
        (ModelSpec("honeycomb", 7, 20, phi=0.01), np.linspace(8.0, 10.0, 41)),
        # the lambda = 0 ring leaves sites 1 and N isolated: ln|q| is log-singular at y = 0
        (ModelSpec("honeycomb", 10, 24, phi=PHI), np.linspace(0.0, 1.0, 21)),
        # modes 3 and 6 have |lambda| = 1 up to rounding
        (ModelSpec("honeycomb", 9, 24, phi=PHI), np.linspace(0.0, 1.0, 21)),
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
    table = _shift_table(spec, float(np.max(etas)))
    _assert_dense_close(spec, etas, _shifted_energies(table, etas)[0])


@pytest.mark.parametrize("n", [2, 6, 8, 10])
def test_gauss_legendre_integrates_polynomials_exactly(n):
    # the n-point rule on [0, 1] is exact up to degree 2n - 1, with ascending nodes inside the interval
    x, w = _gauss_legendre(n)
    assert 0.0 < x[0] and x[-1] < 1.0 and (np.diff(x) > 0.0).all()
    for k in range(2 * n):
        assert (w * x**k).sum() == pytest.approx(1.0 / (k + 1), rel=1e-14)
    assert _gauss_legendre(n) is _gauss_legendre(n)


@pytest.mark.parametrize("M", [5, 7, 9, 11, 13])
def test_level_floor_bounds_every_ring_level(M):
    # no level of any ring, closed at any eta or open, lies closer to zero than _level_floor's sigma; mode
    # k's ring comes down to its own bound near eta = |c_k|*cos(phi) (|lambda_k| < 1, to rounding) or
    # |c_k|/cos(phi) (|lambda_k| > 1), which the grid holds
    lams = ring_lams("honeycomb", M, [*range(1, M // 2 + 1), M])  # modes M - m repeat mode m's levels
    for N in (8, 16, 24, 40):
        for phi in (0.01, PHI, 1.2):
            sigma = _level_floor(ModelSpec("honeycomb", M, N, phi=phi))
            corners = [abs(lam) ** (N // 2) for lam in lams]
            minima = [eta for c in corners for eta in (c * math.cos(phi), c / math.cos(phi)) if eta <= MAX_ETA]
            etas = np.union1d(np.linspace(0.0, MAX_ETA, 2001), minima)
            floor = min(lowest_levels(lam, N, etas, phi).min() for lam in lams)
            assert 0.0 < sigma <= floor * (1.0 + 1e-12), (N, phi)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("honeycomb", 10, 24, phi=PHI),  # an exact lambda = 0 ring
        ModelSpec("square", 5, 12, phi=0.7),
        ModelSpec("honeycomb", 7, 20, phi=0.0),
        ModelSpec("honeycomb", 7, 20, phi=math.pi),
        # every bound underflows; formed from lambda_k^(N/2), mode 1's corner 1.8^2000 overflowed
        ModelSpec("honeycomb", 7, 4000, phi=PHI),
    ],
)
def test_level_floor_falls_back_where_no_bound_holds(spec):
    assert _level_floor(spec) == 0.0


def test_level_floor_is_the_doublet_half_gap():
    # away from the fallbacks sigma is the smallest |c_k*sin(phi)|/Omega_k over every mode
    spec = ModelSpec("honeycomb", 7, 20, phi=0.01)
    half_gaps = [abs(corner_coupling(lam, 20) * math.sin(0.01)) / ssh.omega_factor(lam, 20)
                 for lam in ring_lams("honeycomb", 7)]
    assert _level_floor(spec) == pytest.approx(min(half_gaps), rel=1e-13)


def test_shift_table_nodes_per_sweep():
    # M = 7, phi = pi/4 at each sweep's own range: the end rules leave at most 900 nodes per table
    counts = []
    for N in range(8, 33, 4):
        spec = ModelSpec("honeycomb", 7, N, phi=PHI)
        c = max(abs(c) for c, _ in critical_doublets(spec))
        table = _shift_table(spec, min(3.0 * c * math.cos(PHI), 1.0))  # the sweep's default range
        counts.append(len(table.w_near) + len(table.w_far))
    assert max(counts) <= 900, counts


@pytest.mark.parametrize("N", [56, 72])
def test_peak_matches_the_sum_over_states(N):
    # the dense sum-over-states curvature at the sweep's own eta_m; an end term
    # y_lo*f(y_lo) at the lower cut biased |peak| low by 4.3e-13 here
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    res = sweep(spec)
    reference = curvature_sum_over_states(spec, res.eta_m)
    assert abs(res.peak - reference) <= 2e-13 * abs(reference)


@pytest.mark.parametrize(
    "M,N,bounds,flags",
    [(31, 256, dict(steps=400), ()), (61, 128, {}, ("peak-not-bracketed",)),
     (7, 800, dict(eta_min=0.99, eta_max=1.01), ("peak-not-bracketed",))],
)
def test_sweeps_past_the_old_curvature_overflow_match_the_sum_over_states(M, N, bounds, flags):
    # each far node's d2 = Re(t - s^2) forms no q^2, which overflowed in these
    # three sweeps of the CLI table (a far node's q reaches 1e155)
    spec = ModelSpec("honeycomb", M, N, phi=PHI)
    res = sweep(spec, **bounds)
    assert res.flags == flags
    reference = curvature_sum_over_states(spec, res.eta_m)
    assert abs(res.peak - reference) <= 1e-12 * abs(reference)


def test_first_order_sweep_matches_the_sum_over_states():
    # at sin(phi) = 0 the doublet's terms of size 1/(Omega*|eta - c|) (~4e5 against a
    # curvature of -2.6) nearly cancel, so the peak is only good to about 1e-9 relative
    # (6.9e-10 here); the sweep keeps its flag
    spec = ModelSpec("honeycomb", 7, 20, phi=2.0 * math.pi)
    res = sweep(spec)
    assert "first-order-crossing" in res.flags
    reference = curvature_sum_over_states(spec, res.eta_m)
    assert abs(res.peak - reference) <= 2e-9 * abs(reference)


NODE_CASES = [
    # real A and B > A^2/4, as on the bipartite honeycomb ring
    ("honeycomb", [0.01, 0.3, -0.3, -2.0, 5.0], [0.01, 0.5, 0.5, 1.5, 7.0]),
    # B = 0 with A of either sign, and A = B = 0 (q = 1)
    ("square", [0.01j, 1.0, -0.7, 0.3 + 0.4j, -2.0 - 1.0j, 0.0], [0.01, 0.0, 0.0, 0.2 - 0.1j, 1.5 + 0.5j, 0.0]),
    # next to an ordinary node, the lowest node of M = 7, N = 440, phi = pi/4 on [0, 1]: q
    # reaches 1e155, so q^2 leaves double range; the engine keeps such a node far (|B| > 1e100)
    ("honeycomb", [0.3, -3.1792354165514507e77], [0.5, 5.053780170364318e154]),
]


def _node_arrays(kind, a, b):
    """A and B as the engine holds them (real on the honeycomb lattice), the
    far-form mask (Q != 0), the near-form mask (|B| < 1e100) and the factored q."""
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    if kind == "honeycomb":
        a, b = a.real, b.real
    far = (a != 0.0) | (b != 0.0)
    d4 = 0.25 * a[far] ** 2 - b[far]  # (A^2 - 4B)/4, real on the honeycomb lattice
    return a, b, far, np.abs(b) < 1e100, _factor(kind, a[far], b[far], d4)


@pytest.mark.parametrize("kind,a,b", NODE_CASES)
def test_node_slopes_are_derivatives_of_the_curvature(kind, a, b):
    # the refinement's d3 and d4 of ln|q|, from the near and the far forms' (s, t),
    # against central differences of the exact d2 and d3 at step 1e-5 (error below
    # 1e-6 relative); no term leaves double range
    a, b, far, near, factored = _node_arrays(kind, a, b)
    table = criticality._ShiftTable(kind, None, None, None, None, None, (a[near], b[near]), None, factored, None)
    delta, h = 1e-5, 0.5

    def d2(eta):  # the near and the far forms' exact d2
        return _d2(*_near_nodes(a[near], b[near], eta)[1:]), _d2(*_far_nodes(kind, factored, eta)[1:])

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for eta in (0.1, 0.6, 1.1, 1.7):
            slopes = _node_slopes(table, eta, h)
            d2_lo, d2_hi = d2(eta - delta), d2(eta + delta)
            d3_lo, d3_hi = (_node_slopes(table, eta + k * delta, h) for k in (-1, 1))
            for form in (0, 1):  # near, far
                d3, d4 = slopes[form]
                assert d3 == pytest.approx((d2_hi[form] - d2_lo[form]) / (2.0 * delta) * h**3, rel=1e-6, abs=1e-9)
                assert d4 == pytest.approx((d3_hi[form][0] - d3_lo[form][0]) / (2.0 * delta) * h, rel=1e-6, abs=1e-9)
            for n, f in zip(*slopes):
                assert f[near[far]] == pytest.approx(n[far[near]], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind,a,b", NODE_CASES)
def test_mode_shift_is_ln_abs_q(kind, a, b):
    # the per-node forms the table sums: log1p(q - 1) where |q - 1| <= 1/4
    # (near), and the factored q (far) wherever Q != 0, against ln|q| and
    # d^2/deta^2 ln|q| = Re[(2B*q - (A + 2B*eta)^2)/q^2]; the reference is
    # formed in q/C, C = max(1, |B|), so that none of its terms leaves double range
    a, b, far, near_form, factored = _node_arrays(kind, a, b)
    c = np.maximum(1.0, np.abs(b))
    etas = np.linspace(0.0, 2.0, 9)[:, None]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        q = 1.0 / c + (a / c) * etas + (b / c) * etas**2
        ln_q = np.log(np.abs(q)) + np.log(c)
        d2_ln_q = ((2.0 * (b / c) * q - ((a + 2.0 * b * etas) / c) ** 2) / q**2).real
        near = (np.abs(q - 1.0 / c) <= 0.25 / c) & near_form
        assert near.any() and not near.all()
        rows, cols = np.nonzero(near)
        ln, s, t = _near_nodes(a[cols], b[cols], etas[rows, 0])
        assert np.allclose(ln, ln_q[near], rtol=0.0, atol=1e-14)
        assert np.allclose(_d2(s, t), d2_ln_q[near], rtol=1e-13, atol=1e-13)
        ln, s, t = _far_nodes(kind, factored, etas)
        assert (np.abs(ln - ln_q[:, far]) <= 1e-14 * np.maximum(1.0, 0.1 * np.abs(ln_q[:, far]))).all()
        # at eta = 0 the large node's d2 = 2B - A^2 is 4.5e5 times smaller than either
        # term, so rounding its inputs moves it by 1e-10 relative, the reference's too
        checked = (np.abs(b[far]) < 1e100) | (etas > 0.0)
        assert np.allclose(_d2(s, t)[checked], d2_ln_q[:, far][checked], rtol=1e-13, atol=1e-13)


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
def test_near_sums_interpolate_the_exact_sums(spec, eta_max):
    # the table keeps the near nodes' sums at the Chebyshev points only; read
    # back between them (by a table with no far node and E_g(0) = 0, in the
    # units -1/pi of _shifted_energies) they match the sums over every near node
    table = _shift_table(spec, eta_max)
    (a, b), weights = table.near_ab, table.w_near
    assert (np.abs(a) * eta_max + np.abs(b) * (eta_max * eta_max) <= 0.25).all()
    near_only = criticality._ShiftTable(table.kind, 0.0, table.points, table.bary, table.near, weights, (a, b),
                                        table.w_far[:0], tuple(f[:0] for f in table.far), table.lowest[:0])
    etas = np.linspace(0.0, eta_max, 97)
    ln, s, t = _near_nodes(a, b, etas[:, None])
    exact = [-(value * weights).sum(axis=1) / math.pi for value in (ln, _d2(s, t))]
    for got, want in zip(_shifted_energies(near_only, etas), exact):
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


def test_shift_engine_is_deterministic():
    # an eta's energy depends on that eta and the table only, and repeats bit for bit
    for spec in (ModelSpec("honeycomb", 7, 20, phi=PHI), ModelSpec("square", 5, 3, phi=PHI)):
        etas = np.linspace(0.0, 0.7, 57)
        table = _shift_table(spec, 0.7)
        curve, d2 = _shifted_energies(table, etas)
        assert np.array_equal(curve, _shifted_energies(_shift_table(spec, 0.7), etas)[0])
        assert np.array_equal(curve, [_shifted_energies(table, [eta])[0][0] for eta in etas])
        assert np.array_equal(d2, [_shifted_energies(table, [eta])[1][0] for eta in etas])
    first, second = sweep(ModelSpec("honeycomb", 7, 20, phi=PHI)), sweep(ModelSpec("honeycomb", 7, 20, phi=PHI))
    assert np.array_equal(first.e_g_curve, second.e_g_curve)
    assert (first.eta_m, first.peak) == (second.eta_m, second.peak)


@pytest.mark.parametrize(
    "spec,bounds",
    [
        (ModelSpec("honeycomb", 7, 20, phi=PHI), {}),
        (ModelSpec("square", 5, 12, phi=0.7), dict(eta_min=0.0, eta_max=1.0, steps=128)),  # flagged level-crossing
        (ModelSpec("honeycomb", 31, 64, phi=PHI), dict(steps=400)),
    ],
    ids=["honeycomb-M7-N20", "square-M5-N12", "honeycomb-M31-N64"],
)
def test_sweep_outputs_do_not_depend_on_the_block_size(monkeypatch, spec, bounds):
    # every stacked temporary (the Chebyshev build, the eta rows and the dense rings of E_g(0)) is cut
    # into blocks of blocks.CHUNK_ENTRIES entries; every block size, one row per block or all rows in
    # one, gives the same bits
    def outputs():
        res = sweep(spec, **bounds)
        return [res.e_g_curve.tobytes(), res.d2_numeric.tobytes(), res.eta_m, res.peak, res.flags]

    default = outputs()
    for entries in (1, 2**20):
        monkeypatch.setattr(blocks, "CHUNK_ENTRIES", entries)
        assert outputs() == default


def test_shifted_energies_memory_is_bounded_by_the_block_rule():
    # every (eta, node) temporary lives one block of at most blocks.CHUNK_ENTRIES entries at a time, so
    # 10x the etas grows the peak by the two output arrays alone; 1 KiB covers the allocator's bookkeeping,
    # while one block for all etas would add megabytes
    for spec, eta_max in ((ModelSpec("honeycomb", 7, 20, phi=PHI), 0.7), (ModelSpec("square", 5, 12, phi=0.7), 1.0)):
        table = _shift_table(spec, eta_max)
        _shifted_energies(table, np.linspace(0.0, eta_max, 257))
        peaks = []
        for n in (257, 2570):
            etas = np.linspace(0.0, eta_max, n)
            tracemalloc.start()
            try:
                _shifted_energies(table, etas)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2 * (2570 - 257) * np.dtype(np.float64).itemsize + 1024, spec


@pytest.mark.parametrize("N", [4, 20, 392, 872])
def test_honeycomb_resolvent_in_real_arithmetic_is_the_complex_fraction(N):
    # a zero diagonal makes the fraction at z = iy real: G_NN = -i*gamma and G_1N = (-i)^N * p = p;
    # y spans every cut a sweep takes (1e-160 at N = 872, where the products underflow to zero, whose
    # sign neither arithmetic defines and no later operation reads)
    bonds = ring_bands("honeycomb", ring_lams("honeycomb", 7, [1, 2, 3, 7]), N)[1]
    y = np.geomspace(1e-160, 5e5, 400)
    gnn, g1n = _boundary_green(np.zeros((4, N)), bonds, 1j * y)
    gamma, p = _honeycomb_green(bonds, y)
    assert np.array_equal(gnn.imag, -gamma) and not gnn.real.any()
    assert np.array_equal(g1n.real, p) and not g1n.imag.any()
    assert gamma.tobytes() == (-gnn.imag).tobytes()


def _refinements(monkeypatch):
    """Record each peak refinement of the sweeps that follow: its sweep's
    table (the last one built), step h, result and number of evaluations
    of the slope function the sweep passes."""
    runs, tables = [], []
    build, refine = criticality._shift_table, criticality._refine_peak

    def built(*args):
        tables.append(build(*args))
        return tables[-1]

    def recorded(slopes, eta, lo, hi, h, rising):
        assert (lo, hi) == (eta - h, eta + h)
        run = dict(table=tables[-1], h=h, evaluations=0)
        runs.append(run)

        def counted(x):
            run["evaluations"] += 1
            return slopes(x)

        run["eta_m"] = refine(counted, eta, lo, hi, h, rising)
        return run["eta_m"]

    monkeypatch.setattr(criticality, "_shift_table", built)
    monkeypatch.setattr(criticality, "_refine_peak", recorded)
    return runs


def _slope_sums(table, eta, h):
    """D3 and D4 (in units of h) at eta, and the sums of |w*d3| and |w*d4| over the nodes."""
    (n3, n4), (f3, f4) = _node_slopes(table, eta, h)
    sums = [(n * table.w_near).sum() + (f * table.w_far).sum() for n, f in ((n3, f3), (n4, f4))]
    return sums + [(np.abs(n) * table.w_near).sum() + (np.abs(f) * table.w_far).sum() for n, f in ((n3, f3), (n4, f4))]


GRID_FREE_SPECS = [ModelSpec("honeycomb", M, N, phi=phi) for M in (7, 10, 31) for N in (8, 20, 32, 64)
                   for phi in (PHI, 0.7, 1.2)]


@pytest.mark.parametrize("spec", GRID_FREE_SPECS, ids=lambda s: f"M{s.M}-N{s.N}-phi{s.phi:.2f}")
def test_refined_peak_is_the_root_of_the_exact_third_derivative(monkeypatch, spec):
    # eta_m is where D3 = sum w*d3 ln|q| changes sign, to its roundoff: the curvature
    # is extremal there, and another grid around it finds the same eta_m
    runs = _refinements(monkeypatch)
    res = sweep(spec)
    if res.flags:  # M = 31 puts the peak on the grid's edge at most of these (N, phi): no refinement
        assert res.flags == ("peak-not-bracketed",) and runs == []
        return
    (run,) = runs
    assert run["eta_m"] == res.eta_m and run["evaluations"] <= 8
    eps = np.finfo(np.float64).eps
    below, above = (_slope_sums(run["table"], res.eta_m * (1.0 + k * eps), run["h"])[0] for k in (-8.0, 8.0))
    d3, _, d3_abs, d4_abs = _slope_sums(run["table"], res.eta_m, run["h"])
    # D3's roundoff: its terms' own, and eta's rounding times D4 (in units of h)
    assert below * above < 0.0 or abs(d3) <= 4.0 * eps * (d3_abs + res.eta_m / run["h"] * d4_abs)
    # on the first grid eta_m is a grid point (up to rounding), on the second it is not
    for lo, hi, steps in ((0.5, 1.7, 300), (1.0 / 3.0, 1.9, 257)):
        other = sweep(spec, eta_min=lo * res.eta_m, eta_max=hi * res.eta_m, steps=steps)
        assert other.flags == () and other.eta_m == pytest.approx(res.eta_m, rel=1e-14, abs=0.0)
    assert all(run["evaluations"] <= 8 for run in runs)


@pytest.mark.parametrize("N", [600, 620, 800])
def test_refinement_stays_in_double_range_at_large_n(monkeypatch, N):
    # the peak narrows like c_k = lambda^(N/2) (1e-141 at N = 800); the derivatives in units
    # of the grid step keep s^4 in range, and eta_m and the peak meet their closed forms
    runs = _refinements(monkeypatch)
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    res = sweep(spec)
    assert res.flags == () and len(runs) == 1 and runs[0]["evaluations"] <= 8
    doublets = critical_doublets(spec)
    eta_star = max(abs(c) for c, _ in doublets) * math.cos(PHI)
    assert res.eta_m == pytest.approx(eta_star, rel=1e-13, abs=0.0)
    want = -sum(1.0 / (om * abs(c * math.sin(PHI))) for c, om in doublets)
    assert res.peak == pytest.approx(want, rel=1e-11, abs=0.0)


def test_one_refinement_takes_few_table_evaluations(monkeypatch):
    # the golden-section search it replaces made 34 sequential evaluations per sweep
    runs = _refinements(monkeypatch)
    scaling_scan(M=7, phi=PHI, n_list=[8, 12, 16, 20, 24, 28, 32], steps=256)
    assert len(runs) == 7 and all(run["evaluations"] <= 8 for run in runs), [run["evaluations"] for run in runs]


@pytest.mark.parametrize("N", [8, 16])
def test_sweep_curves_equal_per_eta_reference(N):
    # on these grids NumPy's vectorized ** would round some d2_analytic terms differently
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    res = sweep(spec, steps=200)
    _assert_dense_close(spec, res.eta_grid, res.e_g_curve)
    column, (eta_m, peak) = analytic_curvature(spec, res.eta_grid)
    assert np.array_equal(column, np.array([_scalar_d2(spec, x) for x in res.eta_grid]))
    assert peak == _scalar_d2(spec, eta_m)
    # a search that compares values finds the same extremum, to its sqrt(eps), and no deeper value
    lo, hi = res.eta_grid[0], res.eta_grid[-1]
    eta_a = golden_section_min(lambda x: _scalar_d2(spec, x), float(lo), float(hi), tol=1e-12 * float(hi - lo))
    assert eta_m == pytest.approx(eta_a, rel=1e-7) and peak <= _scalar_d2(spec, eta_a)


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
    # the physical corners lambda_k^(N/2) set the range, the cut and the analytic comparison;
    # 'sites' corners reach only validate's single-ring checks, which read them on the 2N ring,
    # so no public callable of ssh takes a convention
    public = [value for name, value in vars(ssh).items()
              if callable(value) and not name.startswith("_") and value.__module__ == ssh.__name__]
    assert {"corner_coupling", "omega_factor", "midgap_perturbation"} <= {f.__name__ for f in public}
    for function in (sweep, fidelity_exact, *public):
        assert "convention" not in inspect.signature(function).parameters, function.__name__
    assert list(inspect.signature(SweepResult).parameters) == [
        "eta_grid", "e_g_curve", "d2_numeric", "eta_m", "peak", "flags"]
    spec = ModelSpec("honeycomb", M, N, phi=PHI)
    corners = [corner_coupling(lam, N) for lam in ring_lams("honeycomb", M, critical_modes(M))]
    assert [c for c, _ in critical_doublets(spec)] == [c for c in corners if c != 0.0]
    assert sweep(spec).eta_grid[-1] == min(1.0, 3.0 * max(map(abs, corners)) * math.cos(PHI))


@pytest.mark.parametrize("N", [56, 72, 80])
def test_sweep_analytic_extremum_below_1e_minus_12(N):
    # eta* = c*cos(phi) is 1.01e-10, 1.56e-13 and 6.10e-15: an absolute
    # golden-section tolerance of 1e-12 stopped 50 % off at N = 72 and 80.
    # A minimizer that compares values places a smooth extremum only to about
    # sqrt(eps) of its width c*|sin(phi)| (1.5e-8 relative here); Newton on the
    # closed-form slope places it to its roundoff.
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    eta_m, peak = analytic_curvature(spec, sweep(spec).eta_grid)[1]
    eta_star = corner_coupling(LAM_3_7, N) * math.cos(PHI)
    assert eta_m == pytest.approx(eta_star, rel=1e-12)
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
    wrapped = sweep(ModelSpec(spec.kind, spec.M, spec.N, eta=spec.eta, phi=2.0 * math.pi), steps=64)
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
    table = _shift_table(spec, 1.0)
    flagged = [i for i in range(128) if _level_crossing(table, res.eta_grid[i : i + 2])]
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


def test_sweep_result_arrays_read_only():
    res = sweep(ModelSpec("honeycomb", 7, 8, phi=PHI), steps=64)
    with pytest.raises(ValueError):
        res.e_g_curve[0] = 0.0


def test_scaling_scan_small():
    report = scaling_scan(M=7, phi=PHI, n_list=[8, 12, 16], steps=128)
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
    report = scaling_scan(M=7, phi=PHI, n_list=[24, 32, 40, 48, 56, 64, 72, 80], steps=128)
    assert report["fit_eta"]["slope"] == pytest.approx(math.log(abs(LAM_3_7)) / 2.0, abs=1e-8)


def test_scaling_scan_reads_no_closed_form_term(monkeypatch):
    # the scan reads the exact engine alone: no closed-form term can stop it (at N = 600 and 620 the old
    # (eps^-)^3 form underflowed), and it makes no _d2_sum call
    calls = []
    monkeypatch.setattr(ssh, "_d2_sum", lambda *args: calls.append(args) or _d2_sum(*args))
    report = scaling_scan(M=7, phi=PHI, n_list=[600, 620], steps=128)
    assert abs(report["fit_eta"]["slope"] - math.log(abs(LAM_3_7)) / 2.0) <= 1e-12
    assert calls == []


@pytest.mark.parametrize("M,N,phi,top", [
    (13, 8, PHI, "2c"),  # several modes share the range: a search of the whole range found a shallow one
    (11, 16, PHI, None),  # the default range printed -4.07 at 0.161; the column reaches -6.0e4 at 3.05e-5
    (31, 64, PHI, None),  # printed -36.85 at 0.0122; the deepest mode reaches -1.85e32 at 1.07e-32
    (7, 400, PHI, 1.0),  # eta* = 3.4e-71 is far below the grid's first step
    (7, 20, math.pi / 2, None),  # eta* = 0 is the range's first end
    (7, 20, 2.0, None),  # cos(phi) < 0: every eta* is negative, only the ends are candidates
], ids=lambda value: f"{value:.3g}" if isinstance(value, float) else str(value))
def test_analytic_peak_is_never_above_its_column(M, N, phi, top):
    # the analytic extremum is at least as deep as the closed-form column on a fine grid of the
    # sweep's range (the default one where top is None), and is that column's own value
    spec = ModelSpec("honeycomb", M, N, phi=phi)
    if top == "2c":
        top = 2.0 * max(abs(c) for c, _ in critical_doublets(spec))
    grid = np.linspace(0.0, sweep(spec, steps=64).eta_grid[-1] if top is None else top, 4001)
    column, (eta_m, peak) = analytic_curvature(spec, grid)
    assert peak <= column.min(), (eta_m, peak, grid[np.argmin(column)], column.min())
    assert grid[0] <= eta_m <= grid[-1] and peak == _scalar_d2(spec, eta_m)


@pytest.mark.parametrize("N", [400, 600, 800])
def test_analytic_extremum_stays_in_double_range(N):
    # each term is -(1/Omega)*r^2/|z| with |r| <= 1: a cube of the tiny |z| was subnormal near eta* from
    # N = 584 on (it moved the N = 600 extremum by 6.1e-4) and 0 at N = 800, which stopped that sweep
    spec = ModelSpec("honeycomb", 7, N, phi=PHI)
    doublets = critical_doublets(spec)
    eta_star = max(abs(c) for c, _ in doublets) * math.cos(PHI)
    grid = np.linspace(0.0, 3.0 * eta_star, 201)
    column, (eta_m, peak) = analytic_curvature(spec, grid)
    assert np.isfinite(column).all() and (column < 0.0).all()
    assert eta_m == pytest.approx(eta_star, rel=1e-12, abs=0.0)  # both modes share |c|: one extremum, at eta*
    want = -sum(1.0 / (om * abs(c * math.sin(PHI))) for c, om in doublets)
    assert peak == pytest.approx(want, rel=1e-15, abs=0.0)
    # the oracle follows the curvature there too: its terms form no cube of |z| either
    assert column == pytest.approx([d2_analytic(spec, x) for x in grid], rel=1e-14, abs=0.0)
    assert peak == pytest.approx(d2_analytic(spec, eta_m), rel=1e-14, abs=0.0)


def test_scaling_scan_dedupes_and_sorts():
    report = scaling_scan(M=7, phi=PHI, n_list=[12, 8, 12], steps=128)
    assert report["n_values"] == [8, 12]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(M=2, phi=PHI, n_list=[8, 12], steps=128),
        # no critical mode has lambda != 0: the window is empty at M = 3, its one lambda is 0 at M = 4 and 6
        dict(M=3, phi=PHI, n_list=[4, 8, 12], steps=128),
        dict(M=4, phi=PHI, n_list=[8, 12], steps=128),
        dict(M=6, phi=PHI, n_list=[8, 12, 16], steps=128),
        dict(M=7.0, phi=PHI, n_list=[8, 12], steps=128),
        dict(M=7, phi=0.0, n_list=[8], steps=128),
        dict(M=7, phi=PHI, n_list=[], steps=128),
        dict(M=7, phi=PHI, n_list=[8, 8], steps=128),
        dict(M=7, phi=PHI, n_list=[8, 10], steps=128),
        # sin(pi) and sin(2*pi) are 1.2e-16 and -2.4e-16, not 0: both are rejected as phi = 0 is
        dict(M=7, phi=math.pi, n_list=[8, 12], steps=128),
        dict(M=7, phi=2.0 * math.pi, n_list=[8, 12], steps=128),
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
        scaling_scan(M=11, phi=PHI, n_list=[8, 12], steps=128)


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
    # 25 deltas are 50 rings of 400 entries, more than one ring_stack chunk of CHUNK_ENTRIES // 400.
    # Each pair's f_exact equals a dense eigh of its two rings, read with the same vdot/SVD rule, to
    # the last bit.
    lam, N = 0.5, 20
    c = corner_coupling(lam, N)
    deltas = np.geomspace(c / 100.0, 10.0 * c, 25)
    assert 2 * deltas.size > CHUNK_ENTRIES // (N * N)
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


def test_fidelity_exact_requires_an_isolated_doublet_at_every_displaced_point():
    # at eta = c*cos(phi) - 1 the exact "doublet" splits by 1.05 and the bands lie 0.044 away: the
    # upper midgap vector belongs to no doublet (f_exact read 0.609 against f_perturbative's 6.9e-4)
    c = corner_coupling(0.5, 20)
    with pytest.raises(RuntimeError, match=r"not isolable from the bands at eta=-0\.999309: it splits by 1\.05"):
        fidelity_exact(0.5, 20, PHI, c * math.cos(PHI), np.geomspace(1.0, 1e6, 25))


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

    report = scaling_scan(M=7, phi=PHI, n_list=[8, 12], steps=128)
    assert list(report) == ["n_values", "ln_eta_m", "ln_abs_peak", "fit_eta", "fit_peak", "paper_comparison"]
    assert json.loads(json.dumps(report)) == report
