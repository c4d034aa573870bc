import functools
import inspect
import math
import pickle

import numpy as np
import pytest

from torus_qpt import MidgapSolution, ModelSpec, SweepResult, build_lattice


def test_spec_defaults_and_dim():
    spec = ModelSpec("honeycomb", 3, 8)
    assert spec.eta == 0.0 and spec.phi == 0.0
    assert build_lattice(spec).shape == (24, 24)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="triangular", M=3, N=8),
        dict(kind="honeycomb", M=2, N=8),
        dict(kind="honeycomb", M=3, N=6),
        dict(kind="honeycomb", M=3, N=0),
        dict(kind="square", M=1, N=4),
        dict(kind="square", M=2, N=1),
        dict(kind="honeycomb", M=3, N=8, eta=math.nan),
        dict(kind="honeycomb", M=3, N=8, phi=math.nan),
        dict(kind="honeycomb", M=3, N=8, eta=-0.1),
        dict(kind="honeycomb", M=3, N=8, phi=math.inf),
        dict(kind="honeycomb", M=3.0, N=8),
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ModelSpec(**kwargs)


@pytest.mark.parametrize(
    "args,message",
    [
        (("triangular", 3, 8), "unknown lattice kind 'triangular'; expected one of ('honeycomb', 'square')"),
        (("honeycomb", 3.0, 8), "M and N must be integers"),
        (("honeycomb", 2, 8), "honeycomb lattice needs M >= 3, got M=2"),
        (("honeycomb", 3, 6), "honeycomb lattice needs N >= 4 with N % 4 == 0, got N=6"),
        (("square", 1, 4), "square lattice needs M >= 2 and N >= 2, got M=1, N=4"),
        (("honeycomb", 3, 8, -0.1), "eta must be a nonnegative finite real, got -0.1"),
        (("honeycomb", 3, 8, 0.0, math.inf), "phi must be a finite real, got inf"),
    ],
)
def test_spec_validation_messages(args, message):
    with pytest.raises(ValueError) as info:
        ModelSpec(*args)
    assert str(info.value) == message


def test_spec_is_a_value():
    spec = ModelSpec("honeycomb", 7, 20, eta=0.25, phi=0.7)
    same = ModelSpec("honeycomb", 7, 20, 0.25, 0.7)
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != ModelSpec("honeycomb", 7, 20, eta=0.25)
    assert spec != ("honeycomb", 7, 20, 0.25, 0.7)
    assert repr(spec) == "ModelSpec(kind='honeycomb', M=7, N=20, eta=0.25, phi=0.7)"
    assert pickle.loads(pickle.dumps(spec)) == spec


RECORDS = {
    "ModelSpec": (ModelSpec, ("honeycomb", 7, 20, 0.25, 0.7)),
    "SweepResult": (SweepResult, ([0.0, 0.5, 1.0], np.ones(3), [np.nan, -2.0, np.nan], 0.5, -2.0, ("level-crossing",))),
    "MidgapSolution": (MidgapSolution, (0.5, -0.5, 0.1, 0.02, -3.0)),
}


def _assert_fields(record, args):
    names = list(inspect.signature(type(record)).parameters)
    assert list(type(record).__slots__) == names
    for name, value in zip(names, args, strict=True):
        np.testing.assert_array_equal(getattr(record, name), value)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    cls, args = RECORDS[name]
    record = cls(*args)
    _assert_fields(record, args)
    for field in inspect.signature(cls).parameters:
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    _assert_fields(record, args)


@pytest.mark.parametrize("name", RECORDS)
def test_records_build_under_a_wrapped_init(monkeypatch, name):
    # The benchmark's tracer wraps each record's cls.__init__ from outside and calls the original with
    # the same arguments; a NamedTuple, built by __new__, would hand them to object.__init__, which raises.
    cls, args = RECORDS[name]
    original, built = cls.__init__, []

    @functools.wraps(original)
    def traced(*a, **kw):
        built.append(a[0])
        return original(*a, **kw)

    monkeypatch.setattr(cls, "__init__", traced)
    record = cls(*args)
    assert len(built) == 1 and built[0] is record
    _assert_fields(record, args)


def test_sweep_result_stores_read_only_float64():
    cls, args = RECORDS["SweepResult"]
    res = cls(*args)
    for array in (res.eta_grid, res.e_g_curve, res.d2_numeric):
        assert array.dtype == np.float64 and not array.flags.writeable
    assert repr(res) == "SweepResult(eta_m=0.5, peak=-2.0, flags=('level-crossing',))"


def test_operator_entries_read_only():
    H = build_lattice(ModelSpec("square", 2, 2))
    with pytest.raises(ValueError):
        H[0, 0] = 1.0


def test_honeycomb_bond_pattern():
    # M=3, N=8: intra-row chains, staggered rungs on columns 1-2 and 4-3.
    spec = ModelSpec("honeycomb", 3, 8, eta=0.5, phi=math.pi / 3)
    H = build_lattice(spec)

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
    H = build_lattice(spec)

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
    H = build_lattice(ModelSpec("square", 2, 3))
    assert H[0, 3] == -2.0
    assert H[3, 0] == -2.0


def test_square_n2_boundary_accumulates_with_intra_bond():
    # With N=2 the boundary bond (m,2)->(m,1) lands on the intra-row bond.
    H = build_lattice(ModelSpec("square", 3, 2, eta=1.0, phi=0.0))
    assert H[0, 1] == -2.0
    H = build_lattice(ModelSpec("square", 3, 2, eta=1.0, phi=math.pi))
    assert H[0, 1] == pytest.approx(0.0)


def test_eta_zero_cuts_the_ring():
    H = build_lattice(ModelSpec("honeycomb", 3, 8, eta=0.0, phi=1.0))
    assert H[7, 0] == 0.0 and H[0, 7] == 0.0


def test_lattices_are_hermitian():
    for spec in (
        ModelSpec("honeycomb", 5, 12, eta=0.7, phi=2.1),
        ModelSpec("square", 4, 5, eta=0.7, phi=2.1),
    ):
        H = build_lattice(spec)
        assert np.array_equal(H, H.conj().T)
