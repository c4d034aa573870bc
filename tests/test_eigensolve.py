import math

import numpy as np
import pytest

from conftest import dense_ring
from torus_qpt import square_ring_closed_form

# open 4-site alternating chain at lam = 1: +/- golden ratio levels
GOLDEN = (-1.618033988749895, -0.6180339887498949, 0.6180339887498949, 1.618033988749895)


def test_eigh_open_chain_golden_ratio():
    H = dense_ring("honeycomb", 1.0, 4, 0.0, 0.0)
    assert np.linalg.eigvalsh(H) == pytest.approx(GOLDEN, abs=1e-14)


@pytest.mark.parametrize("N", [2, 3, 8, 33])
@pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("lam2k", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("eta", [0, 1])
def test_square_closed_form_matches_eigh(N, phi, lam2k, eta):
    closed = square_ring_closed_form(N, phi, lam2k, eta)
    dense = np.linalg.eigvalsh(dense_ring("square", lam2k, N, float(eta), phi))
    assert np.max(np.abs(closed - dense)) <= 1e-10


def test_square_closed_form_rejects_other_eta():
    with pytest.raises(ValueError):
        square_ring_closed_form(4, 0.0, 0.0, 0.5)
