"""Momentum-space reduction of the torus models into independent rings.

Translational symmetry around the circumference (row index m) block-
diagonalizes the M*N lattice Hamiltonian into M independent N x N ring
blocks, one per momentum k = 2*pi*m/M with m = 1..M:

* honeycomb: an alternating ring whose within-cell bond strength is set
  by lambda_k = 2*cos(k/2) and whose boundary bond keeps the Peierls
  phase (the ring is a flux-threaded dimerized chain);
* square: a uniform ring with constant on-site shift -lambda_{2k},
  lambda_{2k} = 2*cos(k).

`ring_lams` is the one place the coupling lambda of mode m is written
down. Every momentum block is an open real tridiagonal chain closed by
one boundary bond: `peierls_ring` and `square_ring` return that chain's
bands (diagonal, bonds), and `ring_bands` stacks them, one builder call
per lambda. The shift engine and the reference matrix `ssh.build_h0` read
the bands; `ring_stack` alone puts them into dense complex rings and adds
the boundary bond, in chunks. The one dense ring-solve path,
`ring_levels`, solves those chunks for every ring level of the package
(spectrum, ground energies, validate), in real arithmetic when no ring
has a boundary bond, and `blocks_to_csv` writes them out. `sin_cos` is
the one reader of the flux phi: `ring_stack`'s boundary phase and every
closed form of `ssh` take sin(phi) and cos(phi) from it.

The gauge factors absorbed by the Fourier transformation never appear
in the output; their correctness is validated by the block-union
property (concatenated block spectra = full lattice spectrum of the
independent builder `models.build_lattice`).

Every ring here is in units of the hopping t: a ring at hopping t has t
times the levels of its t = 1 ring, so the commands (and `blocks_to_csv`)
multiply by t where energies leave the library. Sign convention for the
honeycomb block: within-cell bonds carry +lambda_k and between-cell
bonds -1. Flipping the within-cell sign is the sublattice gauge
diag(+1,-1,-1,+1,...) and leaves every spectrum unchanged; this choice
is the one for which the reference split h = h0 + h' of the analytics
module reproduces the block entrywise.
"""

from __future__ import annotations

import math

import numpy as np

from .models import ModelSpec
from .output import csv_text


def sin_cos(phi: float) -> tuple[float, float]:
    """sin(phi) and cos(phi), exactly 0 and +-1 where phi is within one ulp
    of a multiple of pi/2: math.sin(2*pi) is -2.4e-16, which would hide a
    first-order crossing, and math.cos(pi/2) is 6.1e-17."""
    quarter = round(phi / (0.5 * math.pi))
    if abs(phi - quarter * (0.5 * math.pi)) <= math.ulp(phi):
        return ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0))[quarter % 4]
    return math.sin(phi), math.cos(phi)


def peierls_ring(lam: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Bands (diagonal, bonds) of the open alternating (dimerized) N-site
    chain: a zero diagonal, +lam on bonds (1,2), (3,4), ... (within-cell)
    and -1 on bonds (2,3), (4,5), ... (between-cell)."""
    if N < 4 or N % 2 != 0:
        raise ValueError(f"ring length must be even and >= 4, got N={N}")
    return np.zeros(N), np.tile([float(lam), -1.0], N // 2)[:-1]


def square_ring(lam2k: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Bands (diagonal, bonds) of the open uniform N-site chain: -lam2k
    on the diagonal, -1 on every bond."""
    if N < 2:
        raise ValueError(f"ring length must be >= 2, got N={N}")
    return np.full(N, -lam2k, dtype=np.float64), np.full(N - 1, -1.0)


def ring_bands(kind: str, lams, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The open rings' bands stacked over `lams`, shapes (len(lams), N) and
    (len(lams), N - 1): one peierls_ring (honeycomb) or square_ring (any
    other kind) call per lambda. Every row of both bands reads the same
    backwards, which lets criticality._boundary_green take G_11 as G_NN."""
    build = peierls_ring if kind == "honeycomb" else square_ring
    diagonals, bonds = zip(*(build(lam, N) for lam in lams))
    return np.stack(diagonals), np.stack(bonds)


# Largest number of complex entries ring_stack puts in one chunk (256 KiB).
CHUNK_ENTRIES = 2**14


def ring_stack(kind: str, lams, N: int, etas, phi: float):
    """Yield the rings of every (eta, lambda) pair, in chunks.

    The full stack has shape (len(etas), len(lams), N, N); it is yielded
    flattened over its first two axes (eta-major, lambda in the given
    order) in chunks of shape (n, N, N) holding at most CHUNK_ENTRIES
    complex entries (one ring when a single ring is larger). The generator
    drops each chunk before it builds the next, so a consumer that keeps
    no reference (ring_levels) has one chunk alive at a time.

    Each lambda's bands (ring_bands) go into its dense open ring once, with
    a corner of exactly +0.0 (the bond -1 for a two-site square ring).
    Every chunk copies open rings and adds the boundary bond
    -eta*e^{i phi} at (N,1) and its conjugate at (1,N), its phase from
    sin_cos; this is the one place a ring gets its boundary bond.
    """
    diagonals, bonds = ring_bands(kind, lams, N)
    n_lams = len(diagonals)
    rings = np.zeros((n_lams, N * N), dtype=np.complex128)
    # row-major, (i, i) is entry i*(N + 1), (i, i + 1) is 1 + i*(N + 1) and (i + 1, i) is N + i*(N + 1)
    rings[:, :: N + 1] = diagonals
    rings[:, 1 :: N + 1] = rings[:, N :: N + 1] = bonds
    rings = rings.reshape(n_lams, N, N)
    sin_phi, cos_phi = sin_cos(phi)
    phase = complex(cos_phi, sin_phi)
    boundary = np.array([-eta * phase for eta in etas], dtype=np.complex128)
    pairs = len(boundary) * n_lams
    size = max(1, CHUNK_ENTRIES // (N * N))
    for start in range(0, pairs, size):
        index = np.arange(start, min(start + size, pairs))
        chunk = rings[index % n_lams]
        bond = boundary[index // n_lams]
        chunk[:, N - 1, 0] += bond
        chunk[:, 0, N - 1] += bond.conj()
        yield chunk
        del chunk  # freed before the next chunk is built, unless the consumer holds it


def ring_levels(kind: str, lams, N: int, etas, phi: float) -> np.ndarray:
    """Sorted levels of every ring of ring_stack, shape (len(etas), len(lams), N):
    one eigvalsh call per chunk, and map keeps no chunk once it is solved.
    With every eta 0 no ring has a boundary bond, and the real rings are solved."""
    chunks = ring_stack(kind, lams, N, etas, phi)
    levels = map(np.linalg.eigvalsh, chunks if np.any(etas) else map(np.real, chunks))
    return np.concatenate(list(levels)).reshape(len(etas), -1, N)


def ring_lams(kind: str, M: int, modes=None) -> list[float]:
    """Ring couplings of `modes` (default: all, m = 1..M ascending):
    lambda_k = 2*cos(k/2) for honeycomb, lambda_{2k} = 2*cos(k) for square,
    with k = 2*pi*m/M. Where the cosine's argument is an odd multiple of
    pi/2 (honeycomb 2m = M, square 4m = M or 3M) lambda is exactly 0.0,
    not the 1.2e-16 of the rounded cosine."""
    modes = range(1, M + 1) if modes is None else modes
    if kind == "honeycomb":
        return [0.0 if 2 * m == M else 2.0 * math.cos(math.pi * m / M) for m in modes]
    return [0.0 if 4 * m in (M, 3 * M) else 2.0 * math.cos(2.0 * math.pi * m / M) for m in modes]


def critical_modes(M: int) -> list[int]:
    """Mode indices m in 1..M whose momentum lies in the critical window.

    Uses the exact integer form M < 3m < 2M of the strict inequalities,
    so edge modes (3m = M or 3m = 2M, possible only when 3 divides M)
    are excluded without floating-point ambiguity.
    """
    out = []
    for m in range(1, M + 1):
        if 3 * m == M or 3 * m == 2 * M:
            import logging  # imported here: the package's one log line, which most runs never reach

            logging.getLogger(__name__).info(
                "mode m=%d of M=%d sits on the critical-window edge (|lambda|=1); excluded", m, M
            )
            continue
        if M < 3 * m < 2 * M:
            out.append(m)
    return out


def blocks_to_csv(spec: ModelSpec) -> str:
    """Debug CSV: one row per block m = 1..M with k = 2*pi*m/M, lambda, then
    Re/Im of all entries at hopping spec.t in row-major order."""
    M, N = spec.M, spec.N
    header = ["k", "lambda"]
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lams = ring_lams(spec.kind, M)
    rings = np.concatenate(list(ring_stack(spec.kind, lams, N, [spec.eta], spec.phi)))
    # complex rings viewed as float64 list Re, Im of each entry in row-major order; scaling that view
    # by t, not the complex entries, keeps the sign of every zero
    entries = spec.t * rings.view(np.float64)
    rows = [[2.0 * math.pi * m / M, lam, *ring.ravel()] for m, lam, ring in zip(range(1, M + 1), lams, entries)]
    return csv_text(header, rows)
