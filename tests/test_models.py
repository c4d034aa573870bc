import math

import numpy as np
import pytest

from torus_qpt import HermitianOperator, ModelSpec, build_lattice


def test_spec_defaults_and_dim():
    spec = ModelSpec("honeycomb", 3, 8)
    assert spec.t == 1.0 and spec.eta == 0.0 and spec.phi == 0.0
    assert spec.dim == 24


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="triangular", M=3, N=8),
        dict(kind="honeycomb", M=2, N=8),
        dict(kind="honeycomb", M=3, N=6),
        dict(kind="honeycomb", M=3, N=0),
        dict(kind="square", M=1, N=4),
        dict(kind="square", M=2, N=1),
        dict(kind="honeycomb", M=3, N=8, t=0.0),
        dict(kind="honeycomb", M=3, N=8, t=-1.0),
        dict(kind="honeycomb", M=3, N=8, eta=-0.1),
        dict(kind="honeycomb", M=3, N=8, phi=math.inf),
        dict(kind="honeycomb", M=3.0, N=8),
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ModelSpec(**kwargs)


def test_operator_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        HermitianOperator(2, bad)


def test_operator_entries_read_only():
    spec = ModelSpec("square", 2, 2)
    op = build_lattice(spec)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 1.0


def test_honeycomb_bond_pattern():
    # M=3, N=8: intra-row chains, staggered rungs on columns 1-2 and 4-3.
    spec = ModelSpec("honeycomb", 3, 8, t=1.0, eta=0.5, phi=math.pi / 3)
    H = build_lattice(spec).entries

    def idx(m, n):
        return (m - 1) * spec.N + (n - 1)

    for n in range(1, spec.N):
        assert H[idx(1, n), idx(1, n + 1)] == -1.0
    # boundary bond with the Peierls phase, row (m,N) column (m,1)
    amp = -0.5 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    assert H[idx(2, spec.N), idx(2, 1)] == pytest.approx(amp)
    assert H[idx(2, 1), idx(2, spec.N)] == pytest.approx(amp.conjugate())
    # staggered inter-row bonds: (m,4)-(m+1,3), (m,1)-(m+1,2), wrapping mod M
    assert H[idx(1, 4), idx(2, 3)] == -1.0
    assert H[idx(1, 1), idx(2, 2)] == -1.0
    assert H[idx(3, 8), idx(1, 7)] == -1.0
    assert H[idx(3, 5), idx(1, 6)] == -1.0
    # no vertical bond on the unstitched pairs
    assert H[idx(1, 2), idx(2, 2)] == 0.0
    assert H[idx(1, 3), idx(2, 3)] == 0.0
    # three bonds per site everywhere
    counts = (np.abs(H) > 0).sum(axis=1)
    assert set(counts.tolist()) == {3}


def test_square_bond_pattern():
    spec = ModelSpec("square", 3, 4, eta=1.0, phi=0.0)
    H = build_lattice(spec).entries

    def idx(m, n):
        return (m - 1) * spec.N + (n - 1)

    assert H[idx(2, 1), idx(2, 2)] == -1.0
    assert H[idx(1, 2), idx(2, 2)] == -1.0
    assert H[idx(3, 2), idx(1, 2)] == -1.0
    assert H[idx(1, 4), idx(1, 1)] == -1.0  # eta=1, phi=0 boundary
    counts = (np.abs(H) > 0).sum(axis=1)
    assert set(counts.tolist()) == {4}


def test_square_m2_doubles_wrapped_vertical_bonds():
    # With M=2 the bond m->m+1 and its wrap coincide and must accumulate.
    H = build_lattice(ModelSpec("square", 2, 3)).entries
    assert H[0, 3] == -2.0
    assert H[3, 0] == -2.0


def test_square_n2_boundary_accumulates_with_intra_bond():
    # With N=2 the boundary bond (m,2)->(m,1) lands on the intra-row bond.
    H = build_lattice(ModelSpec("square", 3, 2, eta=1.0, phi=0.0)).entries
    assert H[0, 1] == -2.0
    H = build_lattice(ModelSpec("square", 3, 2, eta=1.0, phi=math.pi)).entries
    assert H[0, 1] == pytest.approx(0.0)


def test_eta_zero_cuts_the_ring():
    H = build_lattice(ModelSpec("honeycomb", 3, 8, eta=0.0, phi=1.0)).entries
    assert H[7, 0] == 0.0 and H[0, 7] == 0.0


def test_lattices_are_hermitian():
    for spec in (
        ModelSpec("honeycomb", 5, 12, eta=0.7, phi=2.1),
        ModelSpec("square", 4, 5, eta=0.7, phi=2.1),
    ):
        H = build_lattice(spec).entries
        assert np.array_equal(H, H.conj().T)
