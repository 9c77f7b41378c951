"""Shared test oracles: finite differences, exhaustive scans, KS helpers.

These deliberately re-derive quantities through routes independent of the
library implementation (finite differences vs chain rule, exhaustive
enumeration vs vectorized selection, closed forms vs Monte Carlo).
"""

import numpy as np


def fd_jet(value_fn, x, t, step=1e-5):
    """Central finite-difference derivative of multi-order t at point x.

    value_fn maps (npts, k) -> (npts, dim_out).  Applies central second
    differences per coordinate, iterated per derivative order.
    """
    x = np.asarray(x, dtype=float)

    def deriv(fn, axis):
        def bumped(pts):
            e = np.zeros_like(pts)
            e[:, axis] = step
            return (fn(pts + e) - fn(pts - e)) / (2 * step)

        return bumped

    fn = value_fn
    for axis, order in enumerate(t):
        for _ in range(order):
            fn = deriv(fn, axis)
    return fn(x[None, :])[0]


def value_map(f, k):
    """The values of a jet-evaluable map f on [0,1]^k as a value_fn for fd_jet."""
    return lambda pts: f.jet_grid(pts, [(0,) * k])[:, 0]


def tangent_space(lift, x):
    """Tangent plane of a graph lift at x: the span of (e_i, d_i g(x)),
    orthonormalized by SVD (``GraphLift.tangent_frames`` uses Gram-Schmidt)."""
    from alignstat.grassmann import orthonormalize

    return orthonormalize(lift.raw_tangents(np.reshape(x, (1, -1)))[0])


def angle_margin(lift, xs):
    """min over points x and axes s of the angle between the tangent d_s f
    and the span of the other tangents d_t f, t != s; needs k >= 2."""
    from alignstat.grassmann import canonical_angle, orthonormalize

    worst = np.pi / 2
    for cols in lift.raw_tangents(xs):
        for s in range(cols.shape[1]):
            others = orthonormalize(np.delete(cols, s, axis=1))
            worst = min(worst, canonical_angle(orthonormalize(cols[:, s : s + 1]), others))
    return worst


def ks_statistic_uniform(values, lo=0.0, hi=1.0):
    """One-sample Kolmogorov-Smirnov statistic against Uniform(lo, hi)."""
    u = np.sort((np.asarray(values) - lo) / (hi - lo))
    n = u.size
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - u, u - (grid - 1.0 / n))))


def random_nodes(params, eps, eps_prime, count, rng):
    """Nodes in distinct even cells with jets drawn inside their boxes.

    Returns a list of JetPoint; the admissible boxes are re-derived here
    (value in [eps/2, eps], weight-s rows in [0, eps^(1-|s|/alpha)]).
    """
    import itertools

    from alignstat.holder import JetPoint

    k = params.k
    gmax = int(np.floor(1.0 / eps_prime))
    evens = [m for m in range(0, gmax + 1, 2)]
    cells = list(itertools.product(evens, repeat=k))
    rng.shuffle(cells)
    nodes = []
    for cell in cells[: min(count, len(cells))]:
        lo = np.array(cell) * eps_prime
        width = np.minimum((np.array(cell) + 1) * eps_prime, 1.0) - lo
        if np.any(width <= 0):
            continue
        x = lo + rng.random(k) * width
        y = np.empty((len(params.index_set()), params.dim_out))
        for row, s in enumerate(params.index_set()):
            if sum(s) == 0:
                y[row] = rng.uniform(eps / 2, eps, size=params.dim_out)
            else:
                hi = eps ** (1.0 - sum(s) / params.alpha)
                y[row] = rng.uniform(0.0, hi, size=params.dim_out)
        nodes.append(JetPoint(x, y))
    return nodes


def brute_cell_scan(samples, params, eps, eps_prime):
    """Exhaustive reimplementation of the greedy cell selection.

    Loops cells x samples directly with no vectorized filtering; used as
    an independent oracle against greedy_cell_statistic.  Only locations
    in [0, 1]^k, the paper's domain, are scanned.
    """
    import itertools
    import math

    k = params.k
    gmax = math.floor(1.0 / eps_prime)
    evens = [m for m in range(0, gmax + 1, 2)]
    bounds = []
    for s in params.index_set():
        if sum(s) == 0:
            bounds.append((eps / 2.0, eps))
        else:
            bounds.append((0.0, eps ** (1.0 - sum(s) / params.alpha)))
    chosen = {}
    for cell in itertools.product(evens, repeat=k):
        for i in range(len(samples)):
            x = samples.xs[i]
            if not all(0.0 <= x[a] <= 1.0 for a in range(k)):
                continue
            if any(
                not (cell[a] * eps_prime <= x[a] < (cell[a] + 1) * eps_prime)
                for a in range(k)
            ):
                continue
            ok = True
            for row, (lo, hi) in enumerate(bounds):
                vals = samples.ys[i, row, :]
                if np.any(vals < lo) or np.any(vals > hi):
                    ok = False
                    break
            if ok:
                chosen[cell] = i
                break
    return chosen
