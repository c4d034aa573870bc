"""Dense tight-binding builders for flux-threaded torus lattices.

Two lattice kinds are supported, both closed into a torus. The row
direction (index m, length M) is fully periodic; the ring direction
(index n, length N) closes through a single boundary bond per row that
carries a Peierls phase:

* ``honeycomb``: brick-wall pattern. Every row is a chain of N sites;
  rows are stitched together on the staggered columns 4j-3 -> 4j-2 and
  4j -> 4j-1, which requires N divisible by 4.
* ``square``: uniform nearest-neighbour grid, rows stitched on every
  column.

Every bond carries -1: energies are in units of the hopping t. The
boundary bond (m, N) -> (m, 1) has amplitude -eta * e^{i phi} in every
row. eta = 0 cuts the rings open (a tube), eta = 1 restores the uniform
torus; phi is the flux phase threading the rings.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

KINDS = ("honeycomb", "square")


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields in __slots__ and sets them once, in its own
    __init__, through _set_fields; after that, assigning or deleting an
    attribute raises AttributeError. Records compare and hash by their
    field values, in field order, and pickle through their constructor.
    """

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ModelSpec(Record):
    """Parameters of a flux-threaded torus model.

    Parameters
    ----------
    kind : {'honeycomb', 'square'}
        Lattice geometry.
    M : int
        Number of rows (periodic circumference). Honeycomb needs M >= 3,
        square M >= 2.
    N : int
        Ring length (number of columns). Honeycomb needs N >= 4 with
        N divisible by 4; square needs N >= 2.
    eta : float, optional
        Dimensionless boundary-bond coupling, >= 0. Default 0.0.
    phi : float, optional
        Flux phase in radians on the boundary bond. Default 0.0.
    """

    __slots__ = ("kind", "M", "N", "eta", "phi")

    def __init__(self, kind: str, M: int, N: int, eta: float = 0.0, phi: float = 0.0) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown lattice kind {kind!r}; expected one of {KINDS}")
        if not isinstance(M, int) or not isinstance(N, int):
            raise ValueError("M and N must be integers")
        if kind == "honeycomb":
            if M < 3:
                raise ValueError(f"honeycomb lattice needs M >= 3, got M={M}")
            if N < 4 or N % 4 != 0:
                raise ValueError(f"honeycomb lattice needs N >= 4 with N % 4 == 0, got N={N}")
        else:
            if M < 2 or N < 2:
                raise ValueError(f"square lattice needs M >= 2 and N >= 2, got M={M}, N={N}")
        if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta >= 0):
            raise ValueError(f"eta must be a nonnegative finite real, got {eta!r}")
        if not (isinstance(phi, (int, float)) and math.isfinite(phi)):
            raise ValueError(f"phi must be a finite real, got {phi!r}")
        self._set_fields(kind, M, N, eta, phi)


def build_lattice(spec: ModelSpec) -> np.ndarray:
    """Assemble the torus Hamiltonian from its bond list, as a read-only
    dense complex (M*N, M*N) array.

    Site (m, n), 1-based, has index (m-1)*N + (n-1); the row index wraps
    mod M. Bonds carry -1: intra-row (m,n)-(m,n+1) for n = 1..N-1, and
    inter-row (m,n)-(m+1,n) for every n on the square lattice, only the
    staggered pairs (m,4j)-(m+1,4j-1) and (m,4j-3)-(m+1,4j-2) on the
    honeycomb lattice. The boundary bond (m,N)->(m,1) carries
    -eta*e^{i phi} in the (row (m,N), column (m,1)) orientation.
    Coinciding bonds accumulate (np.add.at): square M = 2 doubles the
    vertical amplitude and square N = 2 adds the boundary bond to the
    intra-row one, as the periodic sum dictates.

    This builder shares no code with the ring blocks, so the block-union
    checks compare two independent constructions.
    """
    M, N = spec.M, spec.N
    sites = np.arange(M * N).reshape(M, N)
    below = np.roll(sites, -1, axis=0)  # row m+1 (mod M) under row m
    if spec.kind == "honeycomb":
        cols = np.arange(0, N, 4)  # 0-based 4j-4
        upper = np.stack([sites[:, cols + 3], sites[:, cols]])
        lower = np.stack([below[:, cols + 2], below[:, cols + 1]])
    else:
        upper, lower = sites, below
    rows = np.concatenate([sites[:, :-1].ravel(), upper.ravel()])
    columns = np.concatenate([sites[:, 1:].ravel(), lower.ravel()])
    H = np.zeros((M * N, M * N), dtype=np.complex128)
    np.add.at(H, (rows, columns), -1.0)
    np.add.at(H, (columns, rows), -1.0)
    boundary = -spec.eta * cmath.exp(1j * spec.phi)
    np.add.at(H, (sites[:, -1], sites[:, 0]), boundary)
    np.add.at(H, (sites[:, 0], sites[:, -1]), boundary.conjugate())
    H.setflags(write=False)
    return H
