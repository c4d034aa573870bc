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
per lambda. `ring_stack` alone makes them dense rings, in chunks, and
alone adds the boundary bond: its chunks are real when no ring has one
(every eta 0), complex otherwise. `row_blocks` cuts every stacked
temporary (these chunks, the shift engine's rows) into blocks of at most
CHUNK_ENTRIES entries. `blocks_to_csv` writes ring_stack's rings out, as
complex entries at every eta. `eigensolve` computes each ring's
spectral data from these bands and rings.
`sin_cos` is the one reader of the flux phi: `ring_stack`'s boundary
phase and every closed form of `ssh` take sin(phi) and cos(phi) from it.

The gauge factors absorbed by the Fourier transformation never appear
in the output; their correctness is validated by the block-union
property (concatenated block spectra = full lattice spectrum of the
independent builder `models.build_lattice`).

Every ring here, and every level it yields, is in units of the hopping t.
Sign convention for the honeycomb block: within-cell bonds carry
+lambda_k and between-cell bonds -1. Flipping the within-cell sign is the
sublattice gauge diag(+1,-1,-1,+1,...) and leaves every spectrum
unchanged; this choice is the one for which the reference split
h = h0 + h' of the analytics module reproduces the block entrywise.
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
    backwards, which lets eigensolve.boundary_green take G_11 as G_NN."""
    build = peierls_ring if kind == "honeycomb" else square_ring
    diagonals, bonds = zip(*(build(lam, N) for lam in lams))
    return np.stack(diagonals), np.stack(bonds)


# Largest number of entries in one block of a stacked temporary (128 KiB complex).
CHUNK_ENTRIES = 2**13


def row_blocks(rows: int, width: int):
    """Slices covering range(rows), each of at most CHUNK_ENTRIES // width rows
    (at least one): the one rule that cuts a stack of rows `width` entries wide."""
    step = max(1, CHUNK_ENTRIES // max(1, width))
    return (slice(start, start + step) for start in range(0, rows, step))


def ring_stack(kind: str, lams, N: int, etas, phi: float):
    """Yield the rings of every (eta, lambda) pair, in chunks.

    The full stack has shape (len(etas), len(lams), N, N); it is yielded
    flattened over its first two axes (eta-major, lambda in the given
    order) in chunks of shape (n, N, N) cut by row_blocks (one ring when
    a single ring is larger). The generator drops each chunk before it
    builds the next, so a consumer that keeps no reference (eigensolve's)
    has one chunk alive at a time.

    This is the package's one dense fill of a ring: each chunk is filled
    from ring_bands, every other entry +0.0 (the corner too, but for a
    two-site square ring's bond -1). With every eta 0 no ring has a
    boundary bond and the chunks are real (float64). Otherwise they are
    complex, and each ring gets the boundary bond -eta*e^{i phi} at (N,1)
    and its conjugate at (1,N), its phase from sin_cos.
    """
    diagonals, bonds = ring_bands(kind, lams, N)
    closed = np.any(etas)
    sin_phi, cos_phi = sin_cos(phi)
    phase = complex(cos_phi, sin_phi)
    boundary = np.array([-eta * phase for eta in etas], dtype=np.complex128)
    pairs = np.arange(len(boundary) * len(diagonals))
    for part in row_blocks(len(pairs), N * N):
        index = pairs[part]
        rows = index % len(diagonals)
        chunk = np.zeros((len(index), N * N), dtype=np.complex128 if closed else np.float64)
        # row-major, (i, i) is entry i*(N + 1), (i, i + 1) is 1 + i*(N + 1) and (i + 1, i) is N + i*(N + 1)
        chunk[:, :: N + 1] = diagonals[rows]
        chunk[:, 1 :: N + 1] = chunk[:, N :: N + 1] = bonds[rows]
        chunk = chunk.reshape(-1, N, N)
        if closed:
            bond = boundary[index // len(diagonals)]
            chunk[:, N - 1, 0] += bond
            chunk[:, 0, N - 1] += bond.conj()
        yield chunk
        del chunk  # freed before the next chunk is built, unless the consumer holds it


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
    return [m for m in range(1, M + 1) if M < 3 * m < 2 * M]


def blocks_to_csv(spec: ModelSpec) -> str:
    """Debug CSV: one row per block m = 1..M with k = 2*pi*m/M, lambda, then
    Re/Im of all entries in row-major order."""
    M, N = spec.M, spec.N
    header = ["k", "lambda"]
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lams = ring_lams(spec.kind, M)
    stack = ring_stack(spec.kind, lams, N, [spec.eta], spec.phi)
    rings = np.concatenate(list(stack)).astype(np.complex128, copy=False)  # real at eta = 0
    # complex rings viewed as float64 list Re, Im of each entry in row-major order
    entries = rings.view(np.float64)
    rows = [[2.0 * math.pi * m / M, lam, *ring.ravel()] for m, lam, ring in zip(range(1, M + 1), lams, entries)]
    return csv_text(header, rows)
