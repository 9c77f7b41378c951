"""Closed-form and brute-force oracles the benchmark checks outputs against.

Nothing here calls into ``alignstat``: each quantity is re-derived from
the definitions, so a later change to the generators or the statistics
cannot move the oracle along with the code it checks.

Greedy-count null law (the classical occupancy problem, Feller Vol. I).
A null sample passes the cell box with probability q and then lands in
even cell c with probability |c| (the cell's volume, truncated at the
cube's edge).  Samples are independent, so the greedy count -- the number
of even cells hit -- has

    E[count]   = sum_c 1 - (1 - q|c|)^n
    Cov(c, c') = (1 - q|c| - q|c'|)^n - (1 - q|c|)^n (1 - q|c'|)^n.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# Cell scaling the CLI uses by default ("experiment": 1 + 1e-6).
EXPERIMENT_C2 = 1.0 + 1e-6

# |z| above which a Monte Carlo mean fails its oracle.  Five standard
# errors keep the false-alarm rate of a correct program below ~1e-5 per
# check even for the skewed, small-mean counts of the (1,3) sweep.
Z_BOUND = 5.0


def multi_indices(k: int, r0: int) -> list[tuple[int, ...]]:
    """Multi-indices s in N^k with |s| <= r0."""
    return [s for s in product(range(r0 + 1), repeat=k) if sum(s) <= r0]


def balance_eps(k: int, d: int, alpha: float, r0: int, n: int) -> float:
    """eps(n) = n^(-alpha / (k + alpha (d-k) w)), w = sum (1 - |s|/alpha)."""
    w = sum(1.0 - sum(s) / alpha for s in multi_indices(k, r0))
    return float(n) ** (-alpha / (k + alpha * (d - k) * w))


def _overlap(lo: float, hi: float, null_lo: float, null_hi: float) -> float:
    return max(0.0, min(hi, null_hi) - max(lo, null_lo)) / (null_hi - null_lo)


def box_probability(problem: str, k: int, d: int, alpha: float, beta: float, r0: int,
                    eps: float) -> float:
    """Probability q that one null sample passes the cell box.

    Box: value row in [eps/2, eps], weight-|s| rows in [0, eps^(1-|s|/alpha)],
    each for all d-k output coordinates.  Null jets: value uniform on [0,1],
    derivative rows uniform on [-beta, beta].  Null oriented (k=1, d=2): the
    value is a location coordinate, the slope tan(theta) of a uniform line,
    so P(0 <= slope <= h) = arctan(h) / pi.
    """
    q = 1.0
    for s in multi_indices(k, r0):
        if sum(s) == 0:
            factor = _overlap(eps / 2.0, eps, 0.0, 1.0)
        else:
            hi = eps ** (1.0 - sum(s) / alpha)
            if problem == "jets":
                factor = _overlap(0.0, hi, -beta, beta)
            elif (k, d, alpha, r0) == (1, 2, 2.0, 1):
                factor = math.atan(hi) / math.pi
            else:
                raise ValueError("the oriented oracle covers (k, d) = (1, 2) only")
        q *= factor ** (d - k)
    return q


def even_cell_volumes(k: int, eps: float, alpha: float, c2: float = EXPERIMENT_C2):
    """(volumes of the even cells, cell width) of the eps'-grid on [0,1]^k.

    A width above 1/2 clamps to the whole cube as one cell.
    """
    width = (c2 * eps) ** (1.0 / alpha)
    if width > 0.5:
        width = 1.0
    grid_max = math.floor(1.0 / width)
    lengths = [min((c + 1) * width, 1.0) - c * width for c in range(0, grid_max + 1, 2)]
    lengths = np.clip(np.array(lengths), 0.0, None)
    vols = np.ones(1)
    for _ in range(k):
        vols = np.outer(vols, lengths).reshape(-1)
    return vols, width


def occupancy_moments(q: float, volumes, n: int) -> tuple[float, float]:
    """Exact mean and variance of the number of cells hit by n samples."""
    p = q * np.asarray(volumes, dtype=float)
    miss = np.exp(n * np.log1p(-p))  # P(cell c empty)
    with np.errstate(divide="ignore"):  # two cells can take all the mass
        both = np.exp(n * np.log1p(-np.minimum(p[:, None] + p[None, :], 1.0)))
    np.fill_diagonal(both, miss)
    cov = both - miss[:, None] * miss[None, :]
    return float(np.sum(1.0 - miss)), float(np.sum(cov))


def greedy_null_moments(problem: str, k: int, d: int, alpha: float, beta: float, r0: int,
                        n: int, c2: float = EXPERIMENT_C2) -> dict:
    """Exact null mean/variance of the greedy count at sample size n."""
    eps = balance_eps(k, d, alpha, r0, n)
    q = box_probability(problem, k, d, alpha, beta, r0, eps)
    vols, width = even_cell_volumes(k, eps, alpha, c2)
    mean, var = occupancy_moments(q, vols, n)
    return {"eps": eps, "q": q, "cells": len(vols), "width": width, "mean": mean, "var": var}


def mean_z(values, mean: float, var: float) -> float:
    """z-score of the sample mean of ``values`` under the exact law."""
    values = np.asarray(values, dtype=float)
    return float((values.mean() - mean) / math.sqrt(var / values.size))


def occupancy_moments_enumerated(q: float, volumes, n: int) -> tuple[float, float]:
    """Mean and variance of the cells hit, summed over every assignment of
    n samples: each misses every cell (probability 1 - q sum|c|) or lands
    in cell c (probability q|c|).  Exponential in n; small cases only."""
    probs = [1.0 - q * float(np.sum(volumes))] + [q * float(v) for v in volumes]
    first = second = 0.0
    for outcome in product(range(len(probs)), repeat=n):
        weight = math.prod(probs[o] for o in outcome)
        hit = len({o for o in outcome if o > 0})
        first += weight * hit
        second += weight * hit * hit
    return first, second - first * first


# ---------------------------------------------------------------------------
# Tube DP by path enumeration
# ---------------------------------------------------------------------------


def brute_force_tube_dp(xs, ys, beta: float, eps: float) -> int:
    """Max samples covered by one admissible profile, by listing every path.

    ``xs`` is (n, 1), ``ys`` is (n, 2, m): value and slope per output
    coordinate.  A profile fixes in each x-cell of width sqrt(eps) a value
    level j (step eps, 0 <= j <= 1/eps) and a slope level i (step sqrt(eps),
    |i| sqrt(eps) <= beta) per coordinate.  It covers a sample when every
    coordinate has |y0 - (j eps + i sqrt(eps) dx)| <= eps and
    |y1 - i sqrt(eps)| <= sqrt(eps).  Neighbouring cells need
    |j' - j - i| <= floor(beta) and |i' - i| <= floor(beta) per coordinate.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = ys.shape[2]
    delta = math.sqrt(eps)
    n_cells = max(1, math.ceil(1.0 / delta))
    levels = [(j, i) for j in range(math.floor(1.0 / eps) + 1)
              for i in range(-math.floor(beta / delta), math.floor(beta / delta) + 1)]
    states = list(product(levels, repeat=m))
    radius = math.floor(beta)
    cells = np.clip(np.floor(xs[:, 0] / delta).astype(int), 0, n_cells - 1)

    def covers(state, idx) -> bool:
        dx = xs[idx, 0] - cells[idx] * delta
        return all(
            abs(ys[idx, 0, comp] - (j * eps + i * delta * dx)) <= eps
            and abs(ys[idx, 1, comp] - i * delta) <= delta
            for comp, (j, i) in enumerate(state)
        )

    weight = [
        {s: sum(covers(s, idx) for idx in np.flatnonzero(cells == c)) for s in states}
        for c in range(n_cells)
    ]

    def step_ok(a, b) -> bool:
        return all(abs(jb - ja - ia) <= radius and abs(ib - ia) <= radius
                   for (ja, ia), (jb, ib) in zip(a, b))

    best = 0
    for path in product(states, repeat=n_cells):
        if all(step_ok(path[c], path[c + 1]) for c in range(n_cells - 1)):
            best = max(best, sum(weight[c][path[c]] for c in range(n_cells)))
    return best
