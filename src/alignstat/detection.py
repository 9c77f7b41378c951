"""Data generators, test statistics, and the scaling-exponent toolkit.

Two hypothesis-testing problems share this module:

* the jet problem: observations (X, Y^S) in [0,1]^k x R^{(d-k)|S|},
  uniform under the null, partly interpolated by a class member under the
  alternative;
* the oriented problem: observations (Z, W) in [0,1]^d x G(k, d), reduced
  to the jet problem with alpha = 2, r0 = 1 through the graph chart.

The operational statistics are the greedy cell count (the constructive
lower-bound object: one admissible jet per even grid cell, certified by an
actual interpolant through the selected nodes) and, for k = 1, a dynamic
program maximizing the number of samples inside the discrepancy tube of a
quantized jet profile (the computable surrogate of the net upper bound).
The smoothness rules hold per output coordinate, so one separable DP
serves every d - k.  Its ``_DP_STATE_CAP`` bounds the state count, not
its memory: the weights table holds one int count per (x-cell, state)
pair, up to ceil(eps^(-1/2)) times ``_DP_STATE_CAP`` counts, with no
temporary of the same size; each chunk of samples adds its covered
indices into it, so n does not change the memory.
Under the null both grow like n^rho with rho = k / (k + alpha (d-k) w).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateFit,
    NotInClass,
    ParamOrder,
    Unsupported,
)
from .grassmann import chart_slopes, sample_uniform_frames
from .holder import (
    CellGrid,
    GraphLift,
    HolderParams,
    JetSamples,
    build_interpolant,
    cell_grid,
    holder_membership_check,
    multi_index_set,
    phi_tube_radii,
)
from .nets import MeasureEstimate

# ---------------------------------------------------------------------------
# Scaling exponents (exact rational arithmetic)
# ---------------------------------------------------------------------------


@functools.lru_cache(typed=True)
def exponent_rho(k: int, d: int, alpha, r0: int) -> tuple[Fraction, Fraction]:
    """(w, rho) with w = sum_{s<=r0} (1 - s/alpha) C(s+k-1, k-1) and
    rho = k / (k + alpha (d-k) w), both exact when alpha is rational.

    Cached, since every trial evaluates it; ``typed`` keeps a float k from
    hitting the entry of the equal int."""
    if not (isinstance(k, int) and isinstance(d, int) and isinstance(r0, int)):
        raise ParamOrder("k, d, r0 must be integers")
    a = Fraction(alpha)
    if not (1 <= k < d):
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    r = math.ceil(a) - 1
    if not (1 <= r0 <= r and r < a):
        raise ParamOrder(f"need 1 <= r0 <= r < alpha, got r0={r0}, r={r}, alpha={alpha}")
    w = sum((1 - Fraction(s, 1) / a) * math.comb(s + k - 1, k - 1) for s in range(r0 + 1))
    rho = Fraction(k) / (k + a * (d - k) * w)
    return w, rho


def exponent_rho_dir(k: int, d: int) -> Fraction:
    """rho for the oriented problem: k / (k + (d-k)(k+2))."""
    if not (1 <= k < d):
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    return Fraction(k, k + (d - k) * (k + 2))


def statistic_eps(params: HolderParams, n: int) -> float:
    """The balance point eps(n) = n^(-alpha / (k + alpha (d-k) w))."""
    if n < 1:
        raise ParamOrder(f"need n >= 1 (it sets the cell scale), got n={n}")
    w, _ = exponent_rho(params.k, params.d, params.alpha, params.r0)
    expo = params.alpha / (params.k + params.alpha * (params.d - params.k) * float(w))
    return float(n) ** (-expo)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_null_jets(n: int, params: HolderParams, rng: np.random.Generator) -> JetSamples:
    """Uniform draws on [0,1]^k x [0,1]^{d-k} x [-beta, beta]^{(d-k)(|S|-1)}."""
    if n < 0:
        raise ParamOrder("n must be >= 0")
    n_idx = len(params.index_set())
    xs = rng.random((n, params.k))
    ys = np.empty((n, n_idx, params.dim_out))
    ys[:, 0, :] = rng.random((n, params.dim_out))
    if n_idx > 1:
        ys[:, 1:, :] = rng.uniform(-params.beta, params.beta, size=(n, n_idx - 1, params.dim_out))
    return JetSamples(params, xs, ys)


def generate_alt_jets(
    n: int,
    n1: int,
    f,
    params: HolderParams,
    rng: np.random.Generator,
    check: bool = True,
) -> JetSamples:
    """Null draws except for n1 points carrying the jets of ``f``."""
    if not 0 <= n1 <= n:
        raise ParamOrder(f"need 0 <= n1 <= n, got n1={n1}, n={n}")
    if check and n1 > 0:
        report = holder_membership_check(f, params)
        if not report.passed:
            raise NotInClass("planted function fails the class membership check")
    background = generate_null_jets(n - n1, params, rng)
    xs1 = rng.random((n1, params.k))
    ys1 = f.jet_grid(xs1, params.index_set())
    xs = np.concatenate([background.xs, xs1], axis=0)
    ys = np.concatenate([background.ys, ys1], axis=0)
    perm = rng.permutation(n)
    return JetSamples(params, xs[perm], ys[perm])


class OrientedSamples:
    """Batch of (location, orientation) observations.

    ``frames[i]`` is any basis of the i-th k-plane, shape (d, k): only its
    span is read, through the graph chart.  The generators store
    orthonormal frames.
    """

    def __init__(self, z: np.ndarray, frames: np.ndarray):
        z = np.asarray(z, dtype=float)
        frames = np.asarray(frames, dtype=float)
        if z.ndim != 2 or frames.ndim != 3 or z.shape[0] != frames.shape[0]:
            raise ParamOrder("z must be (n, d) and frames (n, d, k)")
        if z.shape[1] != frames.shape[1]:
            raise ParamOrder("location and frame ambient dimensions differ")
        self.z = z
        self.frames = frames

    @property
    def k(self) -> int:
        return self.frames.shape[2]

    @property
    def d(self) -> int:
        return self.frames.shape[1]

    def __len__(self) -> int:
        return self.z.shape[0]


def generate_null_oriented(n: int, k: int, d: int, rng: np.random.Generator) -> OrientedSamples:
    """Locations uniform on the cube, orientations uniform on G(k, d)."""
    if n < 0:
        raise ParamOrder("n must be >= 0")
    z = rng.random((n, d))
    frames = sample_uniform_frames(rng, n, k, d)
    return OrientedSamples(z, frames)


def generate_alt_oriented(
    n: int, n1: int, f: GraphLift, rng: np.random.Generator
) -> OrientedSamples:
    """Null draws except for n1 points tangent to the lifted graph."""
    if not 0 <= n1 <= n:
        raise ParamOrder(f"need 0 <= n1 <= n, got n1={n1}, n={n}")
    background = generate_null_oriented(n - n1, f.k, f.d, rng)
    xs1 = rng.random((n1, f.k))
    z = np.concatenate([background.z, f.point_grid(xs1)], axis=0)
    frames = np.concatenate([background.frames, f.tangent_frames(xs1)], axis=0)
    perm = rng.permutation(n)
    return OrientedSamples(z[perm], frames[perm])


def oriented_to_jets(
    samples: OrientedSamples, params: HolderParams
) -> tuple[JetSamples, int]:
    """Reduce oriented observations to first-order jets via the graph chart.

    X is the first k coordinates of Z, the value rows the last d-k, and
    the slope rows come from the chart of W, read from whatever basis
    ``samples.frames`` holds.  Chart-singular draws (a null event) are
    dropped; the count of drops is returned alongside.
    """
    if params.alpha != 2 or params.r0 != 1:
        raise ParamOrder("the oriented reduction produces (alpha=2, r0=1) jets")
    if (params.k, params.d) != (samples.k, samples.d):
        raise ParamOrder("params dimensions do not match the samples")
    yt, ok = chart_slopes(samples.frames)
    dropped = int(len(samples) - np.count_nonzero(ok))
    return chart_jets(params, samples.z, yt, ok), dropped


def chart_jets(params: HolderParams, z: np.ndarray, yt: np.ndarray, ok: np.ndarray) -> JetSamples:
    """The jets of :func:`oriented_to_jets` from locations ``z`` (n, d) and
    the ``chart_slopes`` output ``(yt, ok)`` of their orientations: the
    chart-regular rows, each as (z[:k], z[k:], yt)."""
    z = z[ok]
    k = params.k
    ys = np.empty((z.shape[0], len(params.index_set()), params.dim_out))
    ys[:, 0, :] = z[:, k:]
    ys[:, 1:, :] = yt
    return JetSamples(params, z[:, :k], ys)


# ---------------------------------------------------------------------------
# Greedy cell statistic
# ---------------------------------------------------------------------------


@dataclass
class CellSelection:
    """Output of the greedy statistic: one chosen sample per occupied cell."""

    eps: float
    eps_prime: float
    c2: float
    selected: dict[tuple[int, ...], int]
    count: int
    cells_total: int
    eps_clamped: bool = False
    interpolant: object | None = None


def _box_cells(grid: CellGrid, xs: np.ndarray, ys: np.ndarray):
    """The samples whose jet fits the box and whose cell is even: their
    indices (increasing) and flat even-cell keys, both 1-D."""
    # Filter progressively: the value box has selectivity ~eps/2 per output
    # coordinate, so later rows only touch a small survivor set.
    alive = np.arange(len(ys))
    for row, (lo, hi) in enumerate(grid.bounds):
        vals = ys[alive, row, :]
        alive = alive[np.all((vals >= lo) & (vals <= hi), axis=1)]
        if alive.size == 0:
            break
    alive = np.concatenate([alive, np.arange(len(ys), len(xs))])
    # per axis: even cell inside the grid, and the key's next digit c // 2;
    # take and compress are the fast forms of these gathers
    keep, key = True, 0
    for c in grid.cells(np.take(xs, alive, axis=0)).T:
        keep = keep & ((c & 1) == 0) & (c >= 0) & (c <= grid.grid_max)
        key = key * grid.per_axis + (c >> 1)
    return np.compress(keep, alive), np.compress(keep, key)


def cell_counts(
    grid: CellGrid, xs: np.ndarray, ys: np.ndarray, owner: np.ndarray, owners: int
) -> np.ndarray:
    """The greedy count of many sample sets at once, from one box filter.

    ``owner[i]`` in [0, owners) names the set sample i belongs to; the
    result holds, per set, the number of distinct even cells with an
    admissible sample.  Locations in ``xs`` past ``len(ys)`` carry no jet
    and count by their cell alone, as a planted in-box jet would.  The
    distinct (set, cell) pairs come from a sort and an adjacent difference.
    """
    alive, key = _box_cells(grid, xs, ys)
    pair = np.sort(np.take(owner, alive) * grid.cells_total + key)
    new = np.ones(pair.size, dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=new[1:])
    return np.bincount(np.compress(new, pair) // grid.cells_total, minlength=owners)


def greedy_cell_statistic(
    samples: JetSamples,
    params: HolderParams,
    n: int,
    c2: float | None = None,
    materialize: bool = False,
    clamp: bool = False,
) -> CellSelection:
    """Count even grid cells holding a sample whose jet fits the cell box.

    The grid is ``holder.cell_grid`` at eps = ``statistic_eps(params, n)``
    (c2 and ``clamp`` as there), and within each even-indexed cell the
    lowest-index admissible sample wins.  With ``materialize`` the
    selected nodes are fed to build_interpolant, which reads the same
    grid, certifying the count as a lower bound for the maximal
    interpolation number; a clamped grid cannot be certified
    (EpsTooLarge).

    c2 defaults to the class-certifying construction constant; pass an
    explicit value above 1 (e.g. just above) to trade the same-beta
    certificate for practical cell counts.
    """
    grid = cell_grid(params, statistic_eps(params, n), c2, clamp)
    alive, key = _box_cells(grid, samples.xs, samples.ys)

    # First survivor per cell, kept in first-seen order (materialize feeds
    # the nodes in this order): unique flat cell keys, first indices sorted;
    # only those survivors get their cell multi-index.  Most null trials
    # have no survivor left, so skip the numpy calls then.
    selected: dict[tuple[int, ...], int] = {}
    if alive.size:
        first = alive[np.sort(np.unique(key, return_index=True)[1])]
        cells = grid.cells(samples.xs[first])
        selected = dict(zip(map(tuple, cells.tolist()), first.tolist()))

    interpolant = None
    if materialize:
        nodes = [samples[i] for i in selected.values()]
        interpolant = build_interpolant(nodes, params, grid.eps, c2=grid.c2)
    return CellSelection(
        eps=grid.eps,
        eps_prime=grid.eps_prime,
        c2=grid.c2,
        selected=selected,
        count=len(selected),
        cells_total=grid.cells_total,
        eps_clamped=grid.clamped,
        interpolant=interpolant,
    )


# ---------------------------------------------------------------------------
# Tube dynamic program (k = 1, alpha = 2, r0 = 1)
# ---------------------------------------------------------------------------


def _sliding_max(arr: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Window maximum with the given radius along one axis: out[i] is the
    max of arr[j] over |j - i| <= radius, j inside the array."""
    out = arr.copy()
    lead = (slice(None),) * axis
    covered = 0  # out[i] is the max over |j - i| <= covered
    while covered < radius:
        # a shift past covered + 1 would miss entries near the ends
        step = min(covered + 1, radius - covered)
        later, earlier = lead + (slice(step, None),), lead + (slice(None, -step),)
        np.maximum(out[later], out[earlier], out=out[later])
        np.maximum(out[earlier], out[later], out=out[earlier])
        covered += step
    return out


def _predecessor_step(shape: tuple[int, ...], radius: int):
    """The DP transition along one output coordinate, for tables of
    ``shape`` = (nv, nu) * (d - k) that hold a value level j and a slope
    index i + nu // 2 per coordinate.  ``step(dp, comp)`` returns out with
    out[.., j', i', ..] the max of dp[.., j, i, ..] over
    |j' - j - i| <= radius and |i' - i| <= radius on the axes of
    coordinate ``comp``, -inf where no entry qualifies.

    A[j', i] = max_{|j' - j - i| <= R} dp[j, i] is a radius-R window of
    dp[:, i] centered at j' - i.  The center can fall outside [0, nv)
    while the window still reaches inside, so a step window-maxes over a
    -inf-padded j axis first, gathers at the shifted centers, then
    window-maxes over i.  The padded buffer and the flat gather index are
    built once here; a step only refills the buffer's middle rows.
    """
    nv, nu = shape[:2]
    pad = nu // 2
    padded = np.full((nv + 2 * pad,) + shape[1:], -np.inf)
    # (j', i) reads padded row j' - (i - pad) + pad of column i
    cols = np.arange(nu)
    index = ((np.arange(nv)[:, None] - cols + 2 * pad) * nu + cols).ravel()

    def step(dp: np.ndarray, comp: int) -> np.ndarray:
        axes = (2 * comp, 2 * comp + 1)
        padded[pad : pad + nv] = np.moveaxis(dp, axes, (0, 1))
        window = _sliding_max(padded, radius, axis=0).reshape((-1,) + shape[2:])
        best = np.take(window, index, axis=0).reshape(shape)
        return np.moveaxis(_sliding_max(best, radius, axis=1), (0, 1), axes)

    return step


# Tube-DP samples per chunk at d - k = 1, divided by 4^(d-k-1) beyond:
# the 4^(d-k) candidates of a chunk's samples take a few megabytes at any
# d - k.  The samples a chunk leaves to the exact rule go through in
# sub-chunks of _DP_CHUNK // 9^(d-k-1), which keeps its 9^(d-k)
# candidates at the same size even when every sample sits on a level
# boundary.  All chunks fill one int table of ceil(eps^(-1/2)) x states
# counts.
_DP_CHUNK = 2**12

# Largest product-state count (nv nu)^(d-k) the tube DP accepts.
_DP_STATE_CAP = 250_000

# A level fraction closer than this to 0 sends its sample to the exact
# rule; :func:`_nearest_levels` shows why the band is wide enough.
_TIE_BAND = 1e-6


def _nearest_levels(y0, y1, dx, delta, eps, nv, nu_half):
    """One output coordinate's candidate states from the two nearest
    levels: ``(state, valid, tie)``, the first two of shape (4, n) with
    the sample axis last, ``tie`` the samples this rule cannot decide.

    With r = y1 / delta, i0 = rint(r) and the fraction f = r - i0 in
    [-1/2, 1/2], the slope rule |y1 - i delta| <= delta holds for i0 and
    for i0 + sign(f) and fails for every other level.  For each of the two
    slope levels i, t = y0 / eps - i (dx delta / eps), j0 = rint(t) and
    g = t - j0 pick the value levels j0 and j0 + sign(g) the same way, by
    the rule |y0 - (j eps + i delta dx)| <= eps.
    So only the range checks are left, unless |f| or |g| is below
    ``_TIE_BAND`` (or is not finite): the far neighbour then sits on the
    rule's boundary, and ``tie`` sends the sample to :func:`_exact_levels`.

    Why the band is wide enough: let a candidate pass the range checks, so
    |i| <= nu_half and 0 <= j < nv.  It lies within one level of the
    sample, so |y1| <= (nu_half + 1) delta; for x in [0, 1] (the caller
    sends other locations to the exact rule) |dx| <= delta, so
    |i delta dx| <= nu_half eps, |t| <= nv and |y0| <= (nv + nu_half) eps.
    Every term of either rule is then at most (nv + nu) level units, and
    nv + nu <= nv nu + 1 <= ``_DP_STATE_CAP`` + 1.  Each of the few
    roundings in r, t, f, g and in the float rule errs by at most 2^-53 of
    such a term, below 3e-11 units, so the fractions and the float rule
    stay within 1e-9 units of exact arithmetic: outside the band the sign
    of the fraction decides the float rule exactly.
    """
    nu = 2 * nu_half + 1
    r = y1 / delta
    i0 = np.rint(r)
    f = r - i0
    i = np.stack([i0, i0 + np.sign(f)])
    t = y0 / eps - i * (dx * (delta / eps))
    j0 = np.rint(t)
    g = t - j0
    tie = ~(np.minimum(np.abs(f), np.abs(g).min(axis=0)) >= _TIE_BAND)
    # j nu + i + nu_half for j0 and j0 + sign(g); with i in range, the
    # state is in [0, nv nu) exactly when j is in [0, nv)
    base = j0 * nu + (i + nu_half)
    state = np.stack([base, base + np.sign(g) * nu])  # (value, slope, sample)
    valid = (state >= 0) & (state < nv * nu) & (np.abs(i) <= nu_half)
    return state.reshape(4, -1), valid.reshape(4, -1), tie


def _exact_levels(y0, y1, dx, delta, eps, nv, nu_half):
    """One output coordinate's candidate states by the tube rule itself,
    ``(state, valid, False)`` with the first two of shape (9, n).

    A covered level lies within one level of the sample's nearest level,
    so the 3 slope levels around it and, for each, the 3 value levels
    around its nearest value level hold every covered (j, i) pair, also
    when a value sits on a level boundary.  Each candidate is tested with
    the float rule, so boundary values count exactly as the rule says.
    """
    nu = 2 * nu_half + 1
    around = np.arange(-1.0, 2.0)
    i = np.rint(y1 / delta) + around[:, None]
    i_ok = (np.abs(y1 - i * delta) <= delta) & (np.abs(i) <= nu_half)
    tilt = i * delta * dx
    j = np.rint((y0 - tilt) / eps) + around[:, None, None]  # (value, slope, sample)
    valid = (np.abs(y0 - (j * eps + tilt)) <= eps) & i_ok & (j >= 0) & (j < nv)
    return (j * nu + (i + nu_half)).reshape(9, -1), valid.reshape(9, -1), False


def _tube_weights(xs, ys, delta, eps, n_cells, nv, nu_half) -> np.ndarray:
    """The DP's weights, flat over (x-cell, product state): how many
    samples each cell's state covers.

    Per sample the flat index ((cell S + s_1) S + s_2) ...,  S = nv nu,
    s = j nu + i + nu_half, grows by broadcasting over the candidates of
    each coordinate: 4 from :func:`_nearest_levels`, so 4^(d-k) indices
    per sample, and 9 from :func:`_exact_levels` for the samples it
    leaves, in their own sub-chunks.  Each batch adds its valid indices
    into the table.
    """
    dim_out = ys.shape[2]
    size = nv * (2 * nu_half + 1)
    weights = np.zeros(n_cells * size**dim_out, dtype=np.int64)

    def add(rule, xs, ys, defer):
        """Add a batch's covered indices, except those of the samples
        ``defer`` marks or the rule leaves; return the union of both."""
        cells = np.clip(np.floor(xs / delta), 0, n_cells - 1)
        dx = xs - cells * delta
        flat, ok = cells[None], np.ones((1, len(xs)), dtype=bool)
        for comp in range(dim_out):
            state, valid, tie = rule(ys[:, 0, comp], ys[:, 1, comp], dx, delta, eps, nv, nu_half)
            flat = (flat[:, None] * size + state).reshape(-1, len(xs))
            ok = (ok[:, None] & valid).reshape(-1, len(xs))
            defer = defer | tie
        np.add.at(weights, flat[ok & ~defer].astype(np.int64), 1)
        return defer

    chunk = max(1, _DP_CHUNK // 4 ** (dim_out - 1))
    exact_chunk = max(1, _DP_CHUNK // 9 ** (dim_out - 1))
    for start in range(0, len(xs), chunk):
        x, y = xs[start : start + chunk], ys[start : start + chunk]
        exact = np.flatnonzero(add(_nearest_levels, x, y, ~((x >= 0) & (x <= 1))))
        for s in range(0, exact.size, exact_chunk):
            part = exact[s : s + exact_chunk]
            add(_exact_levels, x[part], y[part], np.zeros(part.size, dtype=bool))
    return weights


def tube_dp_statistic(
    samples: JetSamples,
    beta: float,
    eps: float,
) -> int:
    """Max number of samples inside the discrepancy tube of a quantized profile.

    Profiles are piecewise linear over x-cells of width sqrt(eps): per
    cell and output coordinate a value level j (step eps on [0, 1]) and a
    slope level i (step sqrt(eps) on [-beta, beta]).  A sample (x, y0, y1)
    is covered when |y0 - (v + u (x - cell_left))| <= eps and
    |y1 - u| <= sqrt(eps) in every output coordinate.  Adjacent cells must
    satisfy the smoothness increments |v' - v - u dx| <= beta dx^2 and
    |u' - u| <= beta dx in every coordinate, which in level units reduce
    to the integer rules |j' - j - i| <= beta and |i' - i| <= beta.  The
    maximum over admissible profiles is the longest path in the
    cell-by-cell lattice of the (nv nu)^(d-k) product states, whose count
    ``_DP_STATE_CAP`` bounds.  Profiles live on [0, 1], so samples located
    outside it are dropped, as ``greedy_cell_statistic`` drops them.
    """
    params = samples.params
    if params.k != 1 or params.alpha != 2.0 or params.r0 != 1:
        raise Unsupported("the tube DP is implemented for k=1, alpha=2, r0=1 jets only")
    if not 0 < eps < math.inf:
        raise ParamOrder(f"need finite eps > 0, got eps={eps}")
    if not 0 <= beta < math.inf:
        raise ParamOrder(f"need finite beta >= 0, got beta={beta}")
    dim_out = params.dim_out
    delta = math.sqrt(eps)
    n_cells = max(1, math.ceil(1.0 / delta))
    nv = int(math.floor(1.0 / eps)) + 1
    nu_half = int(math.floor(beta / delta))
    nu = 2 * nu_half + 1
    n_states = (nv * nu) ** dim_out
    if n_states > _DP_STATE_CAP:
        raise BudgetExceeded(f"state count {n_states} exceeds cap {_DP_STATE_CAP}")
    xs, ys = samples.xs[:, 0], samples.ys
    inside = (xs >= 0.0) & (xs <= 1.0)
    if not inside.all():
        xs, ys = xs[inside], ys[inside]
    if len(xs) == 0:
        return 0
    step_radius = int(math.floor(beta))
    weights = _tube_weights(xs, ys, delta, eps, n_cells, nv, nu_half)
    weights = weights.reshape((n_cells,) + (nv, nu) * dim_out)

    # Compatibility is a per-coordinate condition, so the max over
    # predecessors is the transition along each coordinate's axes in turn.
    step = _predecessor_step(weights.shape[1:], step_radius)
    dp = weights[0]
    for c in range(1, n_cells):
        for comp in range(dim_out):
            dp = step(dp, comp)
        dp = dp + weights[c]
    return int(round(float(np.max(dp))))


# ---------------------------------------------------------------------------
# Coupon-collector moments, binomial tail, slope fitting
# ---------------------------------------------------------------------------


def coupon_moments(l: int, kk: int) -> tuple[float, float]:
    """Exact mean and variance of the number of empty cells.

    S = empty cells among l after kk uniform throws:
    E S = l (1 - 1/l)^kk and
    Var S = l((1-1/l)^kk - (1-1/l)^(2 kk))
          + l(l-1)((1-2/l)^kk - (1-1/l)^(2 kk)).
    Evaluated in exact rational arithmetic, returned as floats.
    """
    if l < 1 or kk < 0:
        raise ParamOrder(f"need l >= 1 and kk >= 0, got l={l}, kk={kk}")
    q1 = Fraction(l - 1, l) ** kk
    q2 = Fraction(l - 2, l) ** kk if l >= 2 else Fraction(0) ** kk
    mean = l * q1
    var = l * (q1 - q1 * q1) + l * (l - 1) * (q2 - q1 * q1)
    return float(mean), float(var)


@dataclass
class TailCheck:
    exact_tail: float
    bound: float
    holds: bool


def binomial_tail_check(n: int, p: float, b: float, c: float) -> TailCheck:
    """Exact P(Bin(n, p) > b) against the exponential bound exp(-c b).

    Valid for 0 < p < 1/2 and b > 2 n p.  The tail is summed stably in
    log space.
    """
    if not 0 < p < 0.5:
        raise ParamOrder(f"need 0 < p < 1/2, got p={p}")
    if not b > 2 * n * p:
        raise ParamOrder(f"need b > 2 n p = {2 * n * p}, got b={b}")
    j0 = int(math.floor(b)) + 1
    bound = math.exp(-c * b)
    if j0 > n:
        return TailCheck(0.0, bound, True)
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    logs = [
        lg_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q
        for j in range(j0, n + 1)
    ]
    top = max(logs)
    tail = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    return TailCheck(tail, bound, tail <= bound)


@dataclass
class FitResult:
    slope: float
    stderr: float
    intercept: float


def fit_scaling_exponent(points) -> FitResult:
    """OLS of log(statistic) on log(n) with the standard slope error.

    Needs at least three distinct n values and positive statistics (the
    log must exist; sweep means below 1 are fine).
    """
    pts = [(float(n), float(s)) for n, s in points]
    if len({n for n, _ in pts}) < 3:
        raise DegenerateFit("need at least 3 distinct n values")
    if any(s <= 0 for _, s in pts):
        raise DegenerateFit("statistics must be positive for a log-log fit")
    x = np.log([n for n, _ in pts])
    y = np.log([s for _, s in pts])
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateFit("no spread in n")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(pts) - 2
    sigma2 = float(np.sum(resid**2) / dof) if dof > 0 else 0.0
    return FitResult(slope, float(np.sqrt(sigma2 / sxx)), intercept)


# ---------------------------------------------------------------------------
# Tube-measure estimation (graph of a class member)
# ---------------------------------------------------------------------------


def tube_hit_fraction(
    f, params: HolderParams, eps: float, trials: int, rng: np.random.Generator
) -> MeasureEstimate:
    """Fraction of null draws within discrepancy eps of the graph of f.

    The tube condition splits per index weight: the row-s gap must not
    exceed eps^(1 - |s|/alpha).
    """
    samples = generate_null_jets(trials, params, rng)
    jets = f.jet_grid(samples.xs, params.index_set())
    inside = np.ones(trials, dtype=bool)
    for row, radius in enumerate(phi_tube_radii(params, eps)):
        gaps = np.max(np.abs(samples.ys[:, row, :] - jets[:, row, :]), axis=1)
        inside &= gaps <= radius
    hits = int(np.sum(inside))
    p = hits / trials
    return MeasureEstimate(p, float(np.sqrt(p * (1 - p) / trials)), trials, hits)
