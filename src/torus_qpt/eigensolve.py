"""Spectral data of single rings, in units of t; callers see no method.

`ring_levels` (every level) and `midgap_doublets` (the four central levels
and two midgap vectors of honeycomb rings) are the package's dense ring
solves, one `eigvalsh` or `eigh` per chunk of `blocks.ring_stack`.
`boundary_green` gives the open rings' boundary resolvent at imaginary
energy by a continued fraction over `blocks.ring_bands`, real on the
honeycomb lattice. `square_ring_modes` gives the uniform square ring's
eigenpairs at eta = 0 and 1 (its one closed form) in `ring_stack`'s gauge:
sites 1..N, bonds -1, flux on the bond -eta*e^{i phi} at (N, 1).

The validate suite checks the ring builder through those eigenpairs: for a
Hermitian H and a unitary U, Hoffman and Wielandt (Duke Math. J. 20, 37
(1953)) bound the distance between the sorted levels of H and the sorted
eps by the residual ||H U - U diag(eps)||_F = ||H - U diag(eps) U^H||_F,
so matrix products replace eigensolves (Parlett, The Symmetric Eigenvalue
Problem, ch. 11).
"""

from __future__ import annotations

import numpy as np

from .blocks import ring_bands, ring_stack


def ring_levels(kind: str, lams, N: int, etas, phi: float) -> np.ndarray:
    """Sorted levels of every ring of ring_stack, shape (len(etas), len(lams), N):
    one eigvalsh call per chunk (in real arithmetic when every eta is 0), and
    map keeps no chunk once it is solved."""
    levels = map(np.linalg.eigvalsh, ring_stack(kind, lams, N, etas, phi))
    return np.concatenate(list(levels)).reshape(len(etas), -1, N)


def midgap_doublets(lam: float, N: int, etas, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The four central levels, shape (len(etas), 4), and the two midgap
    vectors as columns, shape (len(etas), N, 2), of the honeycomb ring of
    coupling lam at each eta: one eigh per chunk of ring_stack, whose
    eigenbasis dies with the chunk."""
    def doublet(chunk):
        w, v = np.linalg.eigh(chunk)
        return w[:, N // 2 - 2 : N // 2 + 2].copy(), v[:, :, N // 2 - 1 : N // 2 + 1].copy()

    return tuple(map(np.concatenate, zip(*map(doublet, ring_stack("honeycomb", [lam], N, etas, phi)))))


def boundary_green(kind: str, lams, N: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G_1N and G_NN^2 of G0(iy) = (iy - H0)^-1, H0 the open ring of each
    lambda, shape (len(lams), len(y)) each. Every row of ring_bands reads
    the same backwards, so G_11 is G_NN bit for bit. Both are real on the
    honeycomb lattice (N % 4 == 0): _honeycomb_green's fraction."""
    diagonals, bonds = ring_bands(kind, lams, N)
    if kind == "honeycomb":
        gamma, g1n = _honeycomb_green(bonds, y)
        return g1n, -(gamma * gamma)
    gnn, g1n = _boundary_green(diagonals, bonds, 1j * y)
    return g1n, gnn * gnn


def _boundary_green(diag: np.ndarray, bonds: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G_NN and G_1N of (z - H0)^-1, one row per open ring of a stack of
    bands (diag (rings, N), bonds (rings, N - 1)) and one column per z, by a
    continued fraction over the sites. Each running value is a resolvent
    entry of a sub-chain, so at z = iy none exceeds 1/y in size."""
    a = diag.T[:, :, None]
    b = bonds.T[:, :, None]
    g = 1.0 / (z - a[0])
    g1n = g
    for j in range(1, len(a)):
        g = 1.0 / (z - a[j] - b[j - 1] * b[j - 1] * g)
        g1n = g1n * b[j - 1] * g
    return g, g1n


def _honeycomb_green(bonds: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gamma and p of honeycomb rings at z = iy, in real arithmetic: G_NN =
    -i*gamma and G_1N = (-i)^N * p, which is p itself as N % 4 == 0. The
    diagonal is zero, so _boundary_green's fraction is gamma_j = 1/(y +
    b^2*gamma_(j-1)), and these are its nonzero parts, rounded alike (a
    product that underflows may give a zero of the other sign)."""
    g = g1n = 1.0 / y
    for b in bonds.T[:, :, None]:
        g = 1.0 / (y + b * b * g)
        g1n = g1n * b * g
    return g, g1n


def square_ring_modes(N: int, phi: float, eta) -> tuple[np.ndarray, np.ndarray]:
    """Levels at lambda = 0 in mode order m = 1..N, shape (N,), and the
    orthonormal eigenvectors as columns, shape (N, N), of the uniform flux
    ring at eta = 1 or 0, in ring_stack's gauge (flux on the (N, 1) bond).

    eta = 1: eps_m = -2*cos(k_m), psi_j = e^{i k_m j}/sqrt(N), k_m = (2*pi*m + phi)/N.
    eta = 0: eps_m = -2*cos(pi*m/(N+1)), psi_j = sqrt(2/(N+1))*sin(pi*m*j/(N+1)).
    The phases come from one table over a period, indexed by (j*m) mod
    period, so no argument grows with j*m. Closed forms exist only at these
    two endpoints.
    """
    if N < 2:
        raise ValueError(f"ring length must be >= 2, got N={N}")
    sites = np.arange(1, N + 1)
    products = np.outer(sites, sites)
    if eta == 1:
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        vectors = roots[products % N] * (np.exp(1j * phi * sites / N) / np.sqrt(N))[:, None]
        return -2.0 * np.cos((2.0 * np.pi * sites + phi) / N), vectors
    if eta == 0:
        sines = np.sin(np.pi * np.arange(2 * (N + 1)) / (N + 1))
        return -2.0 * np.cos(np.pi * sites / (N + 1)), np.sqrt(2.0 / (N + 1)) * sines[products % (2 * (N + 1))]
    raise ValueError(f"closed forms exist only for eta in {{0, 1}}, got eta={eta!r}")
