import collections
import math
import tracemalloc

import numpy as np
import pytest

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
    union_eigenvalues,
)
from torus_qpt.blocks import CHUNK_ENTRIES

# 2*cos(3*pi/7), the critical-window lambda of the M=7 block m=3
LAM_3_7 = 0.4450418679126289


def test_peierls_ring_entries():
    H = peierls_ring(0.5, 6, 0.3, math.pi / 4, t=2.0)
    assert H[0, 1] == 1.0  # +lam*t within cell
    assert H[1, 2] == -2.0  # -t between cells
    assert H[2, 3] == 1.0
    amp = -0.3 * 2.0 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    assert H[5, 0] == pytest.approx(amp)
    assert H[0, 5] == pytest.approx(amp.conjugate())
    assert np.all(np.diag(H) == 0)


def test_peierls_ring_rejects_odd_or_short():
    with pytest.raises(ValueError):
        peierls_ring(0.5, 5, 0.0, 0.0)
    with pytest.raises(ValueError):
        peierls_ring(0.5, 2, 0.0, 0.0)


def test_square_ring_entries():
    H = square_ring(1.2, 4, 1.0, 0.0, t=1.0)
    assert np.all(np.diag(H) == -1.2)
    assert H[0, 1] == -1.0 and H[2, 3] == -1.0
    assert H[3, 0] == -1.0


def test_square_ring_n2_accumulation():
    H = square_ring(0.0, 2, 1.0, 0.0)
    assert H[0, 1] == -2.0


def _same_bits(a, b):
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


@pytest.mark.parametrize("phi", [0.0, math.pi / 4, 3 * math.pi / 4])
@pytest.mark.parametrize("kind,N", [("honeycomb", 4), ("honeycomb", 20), ("square", 2), ("square", 12)])
def test_ring_stack_matches_scalar_builders(kind, N, phi):
    M, t = 7, 1.3
    if kind == "honeycomb":
        builder, lams = peierls_ring, [2.0 * math.cos(math.pi * m / M) for m in range(1, M + 1)]
    else:
        builder, lams = square_ring, [2.0 * math.cos(2.0 * math.pi * m / M) for m in range(1, M + 1)]
    # grid values arrive as NumPy floats, refinement points as Python floats
    etas = list(np.linspace(0.0, 1.0, 11)) + [0.0, 2.155e-4, 0.3]
    chunks = list(ring_stack(kind, lams, N, etas, phi, t))
    assert all(c.size <= CHUNK_ENTRIES or len(c) == 1 for c in chunks)
    stack = np.concatenate(chunks).reshape(len(etas), M, N, N)
    for i, eta in enumerate(etas):
        for j, lam in enumerate(lams):
            assert _same_bits(stack[i, j], builder(lam, N, eta, phi, t)), (i, j)


def test_ring_stack_chunks_split_eta_rows():
    # 40 rings of 20 sites fill a chunk; 13 etas x 7 lambdas = 91 rings,
    # so chunk edges fall inside an eta's row of lambdas
    lams = [0.5, -0.5, 0.2, 1.5, -1.9, 0.0, 0.9]
    etas = np.linspace(0.0, 0.4, 13)
    chunks = list(ring_stack("honeycomb", lams, 20, etas, math.pi / 3))
    assert [len(c) for c in chunks] == [40, 40, 11]
    stack = np.concatenate(chunks).reshape(13, 7, 20, 20)
    assert _same_bits(stack[5, 5], peierls_ring(0.0, 20, etas[5], math.pi / 3))
    assert _same_bits(stack[12, 6], peierls_ring(0.9, 20, etas[12], math.pi / 3))


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
    builder = peierls_ring if kind == "honeycomb" else square_ring
    lams, etas, phi, t = ring_lams(kind, 7), np.linspace(0.0, 0.4, n_etas), math.pi / 3, 1.3
    assert len(list(ring_stack(kind, lams, N, etas, phi, t))) == chunks
    levels = ring_levels(kind, lams, N, etas, phi, t)
    assert levels.shape == (n_etas, 7, N)
    for i, eta in enumerate(etas):
        for j, lam in enumerate(lams):
            assert np.array_equal(levels[i, j], np.linalg.eigvalsh(builder(lam, N, eta, phi, t))), (i, j)


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
    full = np.linalg.eigvalsh(build_lattice(spec).entries)
    union = union_eigenvalues(spec)
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

