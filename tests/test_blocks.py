import cmath
import collections
import math
import tracemalloc

import numpy as np
import pytest

from conftest import dense_ring
from torus_qpt import (
    ModelSpec,
    blocks_to_csv,
    build_lattice,
    critical_modes,
    peierls_ring,
    ring_lams,
    ring_levels,
    ring_stack,
    square_ring,
)
from torus_qpt.blocks import CHUNK_ENTRIES, ring_bands

# 2*cos(3*pi/7), the critical-window lambda of the M=7 block m=3
LAM_3_7 = 0.4450418679126289


def test_peierls_ring_entries():
    diag, bonds = peierls_ring(0.5, 6)
    assert diag.dtype == bonds.dtype == np.float64
    assert diag.tolist() == [0.0] * 6
    assert bonds.tolist() == [0.5, -1.0, 0.5, -1.0, 0.5]  # +lam within cells, -1 between them
    assert peierls_ring(1, 4)[1].dtype == np.float64  # an integer lambda still gives float bands


def test_peierls_ring_rejects_odd_or_short():
    with pytest.raises(ValueError):
        peierls_ring(0.5, 5)
    with pytest.raises(ValueError):
        peierls_ring(0.5, 2)


def test_square_ring_entries():
    diag, bonds = square_ring(1.2, 4)
    assert diag.dtype == bonds.dtype == np.float64
    assert diag.tolist() == [-1.2] * 4
    assert bonds.tolist() == [-1.0] * 3
    with pytest.raises(ValueError):
        square_ring(1.2, 1)


def test_square_ring_n2_accumulation():
    # the two-site ring's boundary bond lands on its only bond
    H = next(ring_stack("square", [0.0], 2, [1.0], 0.0))[0]
    assert H[0, 1] == -2.0


def test_ring_bands_stack_one_builder_call_per_lambda():
    diag, bonds = ring_bands("honeycomb", [0.5, -0.3, 0.0], 8)
    assert diag.shape == (3, 8) and bonds.shape == (3, 7)
    for row, lam in enumerate([0.5, -0.3, 0.0]):
        want_diag, want_bonds = peierls_ring(lam, 8)
        assert np.array_equal(diag[row], want_diag) and np.array_equal(bonds[row], want_bonds)
    diag, bonds = ring_bands("square", [1.2, -2.0], 3)
    assert diag.tolist() == [[-1.2] * 3, [2.0] * 3] and bonds.tolist() == [[-1.0] * 2] * 2


@pytest.mark.parametrize("kind", ["honeycomb", "square"])
def test_ring_bands_are_palindromic_bit_for_bit(kind):
    # the shift engine takes G_11 as G_NN, which holds bit for bit only on palindromic bands
    lengths = range(4, 81, 2) if kind == "honeycomb" else range(2, 81)  # square includes odd N
    for M in range(2, 32):
        lams = ring_lams(kind, M)
        for N in lengths:
            for band in ring_bands(kind, lams, N):
                assert band.tobytes() == np.flip(band, axis=1).tobytes(), (kind, M, N)


def _same_bits(a, b):
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _written_ring(kind, lam, N, eta, phi):
    """A ring block written out entry by entry: the chain's bonds and
    diagonal, then the boundary bond -eta*e^{i phi} added at (N,1) and
    its conjugate at (1,N), onto +0.0 or, for a two-site ring, the bond."""
    H = np.zeros((N, N), dtype=np.complex128)
    for l in range(N - 1):
        H[l, l + 1] = H[l + 1, l] = lam if kind == "honeycomb" and l % 2 == 0 else -1.0
    if kind != "honeycomb":
        H[np.diag_indices(N)] = -lam
    bond = -eta * cmath.exp(1j * phi)
    H[N - 1, 0] += bond
    H[0, N - 1] += bond.conjugate()
    return H


def test_ring_stack_writes_small_rings_out():
    honeycomb = next(ring_stack("honeycomb", [0.5], 4, [0.5], 0.0))[0]
    want = [[0, 0.5, 0, -0.5], [0.5, 0, -1, 0], [0, -1, 0, 0.5], [-0.5, 0, 0.5, 0]]
    assert _same_bits(honeycomb, np.array(want, dtype=complex))
    square = next(ring_stack("square", [1.5], 2, [1.0], 0.0))[0]
    assert _same_bits(square, np.array([[-1.5, -2], [-2, -1.5]], dtype=complex))


@pytest.mark.parametrize("phi", [0.0, math.pi / 4, 3 * math.pi / 4])
@pytest.mark.parametrize("kind,N", [("honeycomb", 4), ("honeycomb", 20), ("square", 2), ("square", 12)])
def test_ring_stack_matches_scalar_builders(kind, N, phi):
    M = 7
    if kind == "honeycomb":
        lams = [2.0 * math.cos(math.pi * m / M) for m in range(1, M + 1)]
    else:
        lams = [2.0 * math.cos(2.0 * math.pi * m / M) for m in range(1, M + 1)]
    # grid values arrive as NumPy floats, refinement points as Python floats
    etas = list(np.linspace(0.0, 1.0, 11)) + [0.0, 2.155e-4, 0.3]
    chunks = list(ring_stack(kind, lams, N, etas, phi))
    assert all(c.size <= CHUNK_ENTRIES or len(c) == 1 for c in chunks)
    stack = np.concatenate(chunks).reshape(len(etas), M, N, N)
    for i, eta in enumerate(etas):
        for j, lam in enumerate(lams):
            assert _same_bits(stack[i, j], _written_ring(kind, lam, N, eta, phi)), (i, j)


@pytest.mark.parametrize("quarters", [1, 2, 3, 4])
def test_ring_stack_reads_the_flux_through_sin_cos(quarters):
    # cmath.exp(1j*pi/2) has the real part 6.1e-17, which would stamp -6.1e-17*eta on the bond
    N, eta = 8, 0.7
    ring = next(ring_stack("honeycomb", [0.5], N, [eta], quarters * math.pi / 2))[0]
    sin_phi, cos_phi = ((1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0))[quarters - 1]
    assert ring[N - 1, 0] == complex(-eta * cos_phi, -eta * sin_phi)
    assert ring[0, N - 1] == ring[N - 1, 0].conjugate()


def test_ring_stack_chunks_split_eta_rows():
    # 40 rings of 20 sites fill a chunk; 13 etas x 7 lambdas = 91 rings,
    # so chunk edges fall inside an eta's row of lambdas
    lams = [0.5, -0.5, 0.2, 1.5, -1.9, 0.0, 0.9]
    etas = np.linspace(0.0, 0.4, 13)
    chunks = list(ring_stack("honeycomb", lams, 20, etas, math.pi / 3))
    assert [len(c) for c in chunks] == [40, 40, 11]
    stack = np.concatenate(chunks).reshape(13, 7, 20, 20)
    assert _same_bits(stack[5, 5], _written_ring("honeycomb", 0.0, 20, etas[5], math.pi / 3))
    assert _same_bits(stack[12, 6], _written_ring("honeycomb", 0.9, 20, etas[12], math.pi / 3))


def test_ring_stack_drops_each_chunk_before_building_the_next():
    # a consumer that keeps no chunk sees one chunk of memory, not two
    tracemalloc.start()
    try:
        collections.deque(ring_stack("honeycomb", [0.5, -0.5], 20, np.linspace(0.0, 0.4, 200), math.pi / 3), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * CHUNK_ENTRIES * np.dtype(np.complex128).itemsize


@pytest.mark.parametrize(
    "kind,N,n_etas,chunks", [("honeycomb", 20, 13, 3), ("square", 12, 20, 2), ("square", 2, 3, 1)]
)
def test_ring_levels_equal_per_ring_solves_across_chunk_edges(kind, N, n_etas, chunks):
    # 7 lambdas per eta; a chunk holds 40 honeycomb rings of 20 sites or 113 square rings of 12
    lams, etas, phi = ring_lams(kind, 7), np.linspace(0.0, 0.4, n_etas), math.pi / 3
    assert len(list(ring_stack(kind, lams, N, etas, phi))) == chunks
    levels = ring_levels(kind, lams, N, etas, phi)
    assert levels.shape == (n_etas, 7, N)
    for i, eta in enumerate(etas):
        for j, lam in enumerate(lams):
            assert np.array_equal(levels[i, j], np.linalg.eigvalsh(dense_ring(kind, lam, N, eta, phi))), (i, j)


def test_ring_levels_solves_one_chunk_at_a_time():
    # 400 rings of 20 sites fill 10 chunks; only one of them, and the levels, may be alive at once
    etas = np.linspace(0.0, 0.4, 200)
    tracemalloc.start()
    try:
        levels = ring_levels("honeycomb", [0.5, -0.5], 20, etas, math.pi / 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the solved parts and their concatenation are two copies of the levels
    assert peak < 1.5 * CHUNK_ENTRIES * np.dtype(np.complex128).itemsize + 2 * levels.nbytes


def test_open_rings_are_solved_in_real_arithmetic_to_the_same_bits(monkeypatch):
    # with every eta 0 no ring has a boundary bond: ring_levels hands eigvalsh the real parts of the
    # rings, and their levels are the complex solve's, bit for bit
    cases = [("square", (-2.0, 0.0, 1.0), N) for N in range(2, 65)]
    cases += [("honeycomb", ring_lams("honeycomb", M), N) for M in (3, 7, 31) for N in (8, 20, 64)]
    solve, dtypes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda rings: dtypes.append(rings.dtype) or solve(rings))
    for kind, lams, N in cases:
        complex_levels = np.concatenate([solve(chunk) for chunk in ring_stack(kind, lams, N, [0.0], math.pi / 3)])
        assert ring_levels(kind, lams, N, [0.0], math.pi / 3)[0].tobytes() == complex_levels.tobytes(), (kind, N)
    assert set(dtypes) == {np.dtype(np.float64)}
    ring_levels("square", [0.0], 4, [0.0, 0.5], math.pi / 3)  # one ring with a boundary bond: complex
    assert dtypes[-1] == np.complex128


def test_honeycomb_block_lambdas():
    lams = ring_lams("honeycomb", 7)
    assert lams == pytest.approx([2.0 * math.cos(math.pi * m / 7) for m in range(1, 8)])
    assert lams[2] == pytest.approx(LAM_3_7, abs=1e-15)
    assert lams[-1] == pytest.approx(-2.0)
    assert ring_lams("honeycomb", 7, [3, 4]) == lams[2:4]


def test_ring_lams_are_exactly_zero_at_odd_multiples_of_half_pi():
    assert ring_lams("honeycomb", 10, [5]) == [0.0]
    assert ring_lams("square", 4, [1, 3]) == [0.0, 0.0]
    assert ring_lams("square", 8, [2, 6]) == [0.0, 0.0]
    assert 0.0 not in ring_lams("honeycomb", 7) + ring_lams("honeycomb", 12, range(1, 6)) + ring_lams("square", 6)


def test_square_block_lambdas():
    lams = ring_lams("square", 4)
    assert lams == pytest.approx([2.0 * math.cos(2 * math.pi * m / 4) for m in range(1, 5)])
    assert ring_lams("square", 4, [2]) == [lams[1]]


@pytest.mark.parametrize("kind", ["honeycomb", "square"])
@pytest.mark.parametrize("M", [3, 5])
@pytest.mark.parametrize("eta,phi", [(0.0, 0.0), (0.5, math.pi / 4), (1.0, 2.0)])
def test_block_union_matches_full_lattice(kind, M, eta, phi):
    N = 8 if kind == "honeycomb" else 6
    spec = ModelSpec(kind, M, N, t=1.0, eta=eta, phi=phi)
    full = np.linalg.eigvalsh(build_lattice(spec))
    union = np.sort(spec.t * ring_levels(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [spec.eta], spec.phi).ravel())
    assert np.max(np.abs(full - union)) <= 1e-10


def test_critical_modes_m7():
    assert critical_modes(7) == [3, 4]


def test_critical_modes_exclude_edges_when_divisible_by_3():
    # 3m = M and 3m = 2M give |lambda| = 1 exactly; they must be dropped.
    assert critical_modes(6) == [3]
    assert critical_modes(9) == [4, 5]
    assert critical_modes(12) == [5, 6, 7]


def test_critical_modes_match_lambda_window():
    for M in range(3, 40):
        expected = [
            m for m in range(1, M + 1) if abs(round(2 * math.cos(math.pi * m / M), 12)) < 1.0
        ]
        assert critical_modes(M) == expected


def test_critical_modes_logs_edge_exclusion(caplog):
    with caplog.at_level("INFO", logger="torus_qpt.blocks"):
        critical_modes(6)
    assert any("excluded" in rec.message for rec in caplog.records)


def test_blocks_to_csv_shape():
    spec = ModelSpec("square", 2, 3, eta=1.0, phi=0.5)
    text = blocks_to_csv(spec)
    lines = text.strip().split("\n")
    assert len(lines) == 3  # header + 2 blocks
    assert lines[0].startswith("k,lambda,re_1_1,im_1_1")
    assert len(lines[0].split(",")) == 2 + 2 * 9

