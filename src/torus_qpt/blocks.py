"""Momentum-space reduction of the torus models into independent rings.

Translational symmetry around the circumference (row index m) block-
diagonalizes the M*N lattice Hamiltonian into M independent N x N ring
blocks, one per momentum k = 2*pi*m/M with m = 1..M:

* honeycomb: an alternating ring whose within-cell bond strength is set
  by lambda_k = 2*cos(k/2) and whose boundary bond keeps the Peierls
  phase (the ring is a flux-threaded dimerized chain);
* square: a uniform ring with constant on-site shift -lambda_{2k}*t,
  lambda_{2k} = 2*cos(k).

`ring_lams` is the one place the coupling lambda of mode m is written
down. `peierls_ring` and `square_ring` are the only ring builders;
`ring_stack` stacks their rings for batched solves and serves every
multi-ring consumer (`cmd_spectrum`, the dense ground energies,
`union_eigenvalues`, `blocks_to_csv`, the `validate` ring checks).

The gauge factors absorbed by the Fourier transformation never appear
in the output; their correctness is validated by the block-union
property (concatenated block spectra = full lattice spectrum of the
independent builder `models.build_lattice`).

Sign convention for the honeycomb block: within-cell bonds carry
+lambda_k*t and between-cell bonds -t. Flipping the within-cell sign is
the sublattice gauge diag(+1,-1,-1,+1,...) and leaves every spectrum
unchanged; this choice is the one for which the reference split
h = h0 + h' of the analytics module reproduces the block entrywise.
"""

from __future__ import annotations

import cmath
import logging
import math

import numpy as np

from .models import ModelSpec
from .output import csv_text

logger = logging.getLogger(__name__)

def peierls_ring(lam: float, N: int, eta: float, phi: float, t: float = 1.0) -> np.ndarray:
    """Alternating (dimerized) N-site ring with a flux-carrying boundary bond.

    Entries: +lam*t on bonds (1,2), (3,4), ... (within-cell),
    -t on bonds (2,3), (4,5), ... (between-cell), and
    -eta*t*e^{i phi} at (N,1) with its conjugate at (1,N). Zero diagonal.
    """
    if N < 4 or N % 2 != 0:
        raise ValueError(f"ring length must be even and >= 4, got N={N}")
    H = np.zeros((N, N), dtype=np.complex128)
    for l in range(N - 1):
        amp = lam * t if l % 2 == 0 else -t
        H[l, l + 1] = amp
        H[l + 1, l] = amp
    boundary = -eta * t * cmath.exp(1j * phi)
    H[N - 1, 0] += boundary
    H[0, N - 1] += boundary.conjugate()
    return H


def square_ring(lam2k: float, N: int, eta: float, phi: float, t: float = 1.0) -> np.ndarray:
    """Uniform N-site ring: -t bonds, -lam2k*t diagonal, flux boundary bond."""
    if N < 2:
        raise ValueError(f"ring length must be >= 2, got N={N}")
    H = np.zeros((N, N), dtype=np.complex128)
    for l in range(N - 1):
        H[l, l + 1] += -t
        H[l + 1, l] += -t
    boundary = -eta * t * cmath.exp(1j * phi)
    H[N - 1, 0] += boundary
    H[0, N - 1] += boundary.conjugate()
    H[np.diag_indices(N)] = -lam2k * t
    return H


# Largest number of complex entries ring_stack puts in one chunk (256 KiB).
CHUNK_ENTRIES = 2**14


def ring_stack(kind: str, lams, N: int, etas, phi: float, t: float = 1.0):
    """Yield the rings of every (eta, lambda) pair, in chunks.

    The full stack has shape (len(etas), len(lams), N, N); it is yielded
    flattened over its first two axes (eta-major, lambda in the given
    order) in chunks of shape (n, N, N) holding at most CHUNK_ENTRIES
    complex entries (one ring when a single ring is larger). The generator
    drops each chunk before it builds the next, so a consumer that keeps
    no reference (map(np.linalg.eigvalsh, ...)) has one chunk alive at a
    time.

    Each open ring (eta = 0) is built once per lambda by peierls_ring
    (honeycomb) or square_ring (any other kind). Only the two corner
    entries depend on eta, so every chunk copies open rings and adds the
    boundary bond -eta*t*e^{i phi} at (N,1) and its conjugate at (1,N).
    An open ring's corner is exactly +0.0 (-t for a two-site square
    ring), so every entry equals the scalar builder's bit for bit.
    """
    build = peierls_ring if kind == "honeycomb" else square_ring
    rings = np.stack([build(lam, N, 0.0, phi, t) for lam in lams])
    phase = cmath.exp(1j * phi)
    bonds = np.array([-eta * t * phase for eta in etas], dtype=np.complex128)
    n_lams = len(rings)
    pairs = len(bonds) * n_lams
    size = max(1, CHUNK_ENTRIES // (N * N))
    for start in range(0, pairs, size):
        index = np.arange(start, min(start + size, pairs))
        chunk = rings[index % n_lams]
        bond = bonds[index // n_lams]
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
    out = []
    for m in range(1, M + 1):
        if 3 * m == M or 3 * m == 2 * M:
            logger.info("mode m=%d of M=%d sits on the critical-window edge (|lambda|=1); excluded", m, M)
            continue
        if M < 3 * m < 2 * M:
            out.append(m)
    return out


def union_eigenvalues(spec: ModelSpec) -> np.ndarray:
    """Sorted concatenation of all block eigenvalues (full-lattice multiset)."""
    stack = ring_stack(spec.kind, ring_lams(spec.kind, spec.M), spec.N, [spec.eta], spec.phi, spec.t)
    return np.sort(np.concatenate([levels.ravel() for levels in map(np.linalg.eigvalsh, stack)]))


def blocks_to_csv(spec: ModelSpec) -> str:
    """Debug CSV: one row per block m = 1..M with k = 2*pi*m/M, lambda, then
    Re/Im of all entries in row-major order."""
    M, N = spec.M, spec.N
    header = ["k", "lambda"]
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lams = ring_lams(spec.kind, M)
    rings = np.concatenate(list(ring_stack(spec.kind, lams, N, [spec.eta], spec.phi, spec.t)))
    # a complex ring viewed as float64 lists Re, Im of each entry in row-major order
    rows = [
        [2.0 * math.pi * m / M, lam, *ring.view(np.float64).ravel()]
        for m, lam, ring in zip(range(1, M + 1), lams, rings)
    ]
    return csv_text(header, rows)
