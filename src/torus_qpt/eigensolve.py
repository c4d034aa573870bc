"""Closed-form eigenpairs of the uniform square ring.

`square_ring_modes` gives the levels and the orthonormal eigenvectors of
the uniform ring, in units of the hopping t and at lambda = 0, at the two
boundary endpoints eta = 1 (plane waves picking up the flux phase) and
eta = 0 (open-chain standing waves). Its gauge is `blocks.ring_stack`'s:
sites j = 1..N, bonds -1, and the flux on the boundary bond -eta*e^{i phi}
at (N, 1). It is the package's one closed form of the square ring.

The validate suite checks the ring builder through the eigenpairs: for a
Hermitian H and a unitary U, Hoffman and Wielandt (Duke Math. J. 20, 37
(1953)) bound the distance between the sorted levels of H and the sorted
eps by the residual ||H U - U diag(eps)||_F = ||H - U diag(eps) U^H||_F,
so matrix products replace eigensolves (Parlett, The Symmetric Eigenvalue
Problem, ch. 11). Every dense solve for ring levels goes through
`blocks.ring_levels`.
"""

from __future__ import annotations

import numpy as np


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
