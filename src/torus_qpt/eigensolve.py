"""Closed-form spectra of the uniform square ring.

`square_ring_closed_form` evaluates the analytic spectra of the uniform
ring at the two boundary endpoints eta = 1 (plane waves picking up the
flux phase) and eta = 0 (open-chain standing waves); the validate suite
and the acceptance tests hold dense solves of the square ring blocks
against them. Every dense solve for ring levels goes through
`blocks.ring_levels`.
"""

from __future__ import annotations

import math

import numpy as np


def square_ring_closed_form(N: int, phi: float, lam2k: float, eta, t: float = 1.0) -> np.ndarray:
    """Analytic spectrum of the uniform flux ring at eta = 0 or 1, sorted.

    eta = 1: eps_n = -2t*cos((2*pi*n + phi)/N) - lam2k*t, n = 1..N.
    eta = 0: eps_n = -2t*cos(pi*n/(N+1)) - lam2k*t, n = 1..N.
    Closed forms exist only at these two endpoints.
    """
    if N < 2:
        raise ValueError(f"ring length must be >= 2, got N={N}")
    if eta == 1:
        evals = [-2.0 * t * math.cos((2.0 * math.pi * n + phi) / N) - lam2k * t for n in range(1, N + 1)]
    elif eta == 0:
        evals = [-2.0 * t * math.cos(math.pi * n / (N + 1)) - lam2k * t for n in range(1, N + 1)]
    else:
        raise ValueError(f"closed forms exist only for eta in {{0, 1}}, got eta={eta!r}")
    return np.sort(np.asarray(evals))
