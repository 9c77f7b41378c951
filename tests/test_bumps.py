"""The bump factor table F[e, q](u) = d^q/du^q [u^e / e! zeta(u)]."""

from functools import lru_cache
from math import factorial

import numpy as np
import pytest

from alignstat.bumps import bump_factors
from alignstat.holder import HolderParams, bump_basis

R0, ORDER = 3, 5


def test_each_row_is_the_central_difference_of_the_row_below():
    # h = 1e-6: truncation h^2 / 6 |F[e, q + 3]| (|F[0, 7]| peaks near 7e12)
    # and rounding 2^-52 |F[e, q]| / h stay below 2e-8 of each row's
    # largest entry up to q + 1 = 5
    h = 1e-6
    u = np.concatenate([np.random.default_rng(0).uniform(-0.5, 0.5, 2000),
                        [-0.25, 0.25, -0.25 - 2 * h, 0.25 + 2 * h, 0.0]])
    mid, up, down = (bump_factors(v, R0, ORDER) for v in (u, u + h, u - h))
    diff = (up[:, :-1] - down[:, :-1]) / (2 * h)
    scale = np.max(np.abs(mid[:, 1:]), axis=2, keepdims=True)
    assert np.all(np.abs(diff - mid[:, 1:]) <= 1e-6 * scale)


def test_kronecker_at_zero():
    table = bump_factors(np.zeros(1), R0, ORDER)[:, :, 0]
    assert np.array_equal(table, np.eye(R0 + 1, ORDER + 1))


def test_exact_zeros_off_the_support():
    u = np.array([0.5, -0.5, np.nextafter(0.5, 1.0), -0.5000001, 0.7, -3.0, 40.0])
    assert not np.any(bump_factors(u, R0, ORDER))


def test_monomials_on_the_plateau():
    u = np.concatenate([np.linspace(-0.25, 0.25, 101), [np.nextafter(0.25, 0.0)]])
    table = bump_factors(u, R0, ORDER)
    for e in range(R0 + 1):
        for q in range(ORDER + 1):
            want = u ** (e - q) / factorial(e - q) if q <= e else np.zeros_like(u)
            assert table[e, q] == pytest.approx(want, rel=1e-14, abs=0.0)


@lru_cache(maxsize=None)
def fine_maxima() -> np.ndarray:
    """max |F[e, q]| over 2,000,001 points of [-1/2, 1/2], e <= 4, q <= 5."""
    peak = np.zeros((5, 6))
    for part in np.array_split(np.linspace(-0.5, 0.5, 2_000_001), 16):
        peak = np.maximum(peak, np.max(np.abs(bump_factors(part, 4, 5)), axis=2))
    return peak


@pytest.mark.parametrize("alpha", [2.0, 3.0, 3.5, 4.0, 5.0])
def test_padded_norms_cover_the_fine_grid_maxima(alpha):
    # every factor the basis uses, orders q <= r + 1, with r0 = r
    params = HolderParams(1, 2, alpha, 1.0, int(np.ceil(alpha)) - 1)
    basis = bump_basis(params)
    peak = fine_maxima()
    for (s, t), norm in basis.norms.items():
        assert norm >= peak[s[0], t[0]], (s, t, norm, peak[s[0], t[0]])
