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

The boundary bond (m, N) -> (m, 1) has amplitude -eta * t * e^{i phi}
in every row. eta = 0 cuts the rings open (a tube), eta = 1 restores
the uniform torus; phi is the flux phase threading the rings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

KINDS = ("honeycomb", "square")


@dataclass(frozen=True)
class ModelSpec:
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
    t : float, optional
        Hopping energy unit, strictly positive. Default 1.0.
    eta : float, optional
        Dimensionless boundary-bond coupling, >= 0. Default 0.0.
    phi : float, optional
        Flux phase in radians on the boundary bond. Default 0.0.
    """

    kind: str
    M: int
    N: int
    t: float = 1.0
    eta: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.M, int) or not isinstance(self.N, int):
            raise ValueError("M and N must be integers")
        if self.kind == "honeycomb":
            if self.M < 3:
                raise ValueError(f"honeycomb lattice needs M >= 3, got M={self.M}")
            if self.N < 4 or self.N % 4 != 0:
                raise ValueError(f"honeycomb lattice needs N >= 4 with N % 4 == 0, got N={self.N}")
        else:
            if self.M < 2 or self.N < 2:
                raise ValueError(f"square lattice needs M >= 2 and N >= 2, got M={self.M}, N={self.N}")
        if not (isinstance(self.t, (int, float)) and math.isfinite(self.t) and self.t > 0):
            raise ValueError(f"t must be a positive finite real, got {self.t!r}")
        if not (isinstance(self.eta, (int, float)) and math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be a nonnegative finite real, got {self.eta!r}")
        if not (isinstance(self.phi, (int, float)) and math.isfinite(self.phi)):
            raise ValueError(f"phi must be a finite real, got {self.phi!r}")

    @property
    def dim(self) -> int:
        return self.M * self.N


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian matrix, checked on construction and read-only."""

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries shape {entries.shape} does not match dim {self.dim}")
        scale = max(1.0, float(np.max(np.abs(entries))) if self.dim else 1.0)
        dev = float(np.max(np.abs(entries - entries.conj().T))) if self.dim else 0.0
        if dev > 1e-12 * scale:
            raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def build_lattice(spec: ModelSpec) -> HermitianOperator:
    """Assemble the torus Hamiltonian from its bond list.

    Site (m, n), 1-based, has index (m-1)*N + (n-1); the row index wraps
    mod M. Bonds carry -t: intra-row (m,n)-(m,n+1) for n = 1..N-1, and
    inter-row (m,n)-(m+1,n) for every n on the square lattice, only the
    staggered pairs (m,4j)-(m+1,4j-1) and (m,4j-3)-(m+1,4j-2) on the
    honeycomb lattice. The boundary bond (m,N)->(m,1) carries
    -eta*t*e^{i phi} in the (row (m,N), column (m,1)) orientation.
    Coinciding bonds accumulate (np.add.at): square M = 2 doubles the
    vertical amplitude and square N = 2 adds the boundary bond to the
    intra-row one, as the periodic sum dictates.

    This builder shares no code with the ring blocks, so the block-union
    checks compare two independent constructions.
    """
    M, N, t = spec.M, spec.N, spec.t
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
    np.add.at(H, (rows, columns), -t)
    np.add.at(H, (columns, rows), -t)
    boundary = -spec.eta * t * cmath.exp(1j * spec.phi)
    np.add.at(H, (sites[:, -1], sites[:, 0]), boundary)
    np.add.at(H, (sites[:, 0], sites[:, -1]), boundary.conjugate())
    return HermitianOperator(M * N, H)
