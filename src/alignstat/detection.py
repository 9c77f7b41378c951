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
temporary of the same size; each chunk of samples adds its low-corner
counts into it, so n does not change the memory.
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
    z = samples.z[ok]
    ys = np.empty((z.shape[0], len(params.index_set()), params.dim_out))
    ys[:, 0, :] = z[:, params.k :]
    ys[:, 1:, :] = yt
    return JetSamples(params, z[:, : params.k], ys), len(samples) - z.shape[0]


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


# Largest flat even-cell key, or (set, cell) key of ``cell_counts``: the
# keys are int64, so a grid or a batch whose keys would pass it is refused
# before any key is formed, where numpy would wrap them silently.
_KEY_MAX = np.iinfo(np.int64).max

# Largest (set, cell) table ``cell_counts`` builds, in entries per counted
# point: past it, it sorts the keys instead.
_TABLE_PER_POINT = 4


def _box_rows(grid: CellGrid, ys: np.ndarray) -> np.ndarray:
    """The indices (increasing) of the samples whose jet fits the box."""
    # Filter progressively: the value box has selectivity ~eps/2 per output
    # coordinate, so later rows only touch a small survivor set.
    (lo, hi), *rows = grid.bounds
    vals = ys[:, 0, :]
    alive = np.flatnonzero(np.all((vals >= lo) & (vals <= hi), axis=1))
    for row, (lo, hi) in enumerate(rows, start=1):
        if alive.size == 0:
            break
        vals = ys[alive, row, :]
        alive = alive[np.all((vals >= lo) & (vals <= hi), axis=1)]
    return alive


def _box_cells(grid: CellGrid, xs: np.ndarray, ys: np.ndarray):
    """The samples whose jet fits the box and whose cell is even: their
    indices (increasing) and flat even-cell keys, both 1-D."""
    if grid.cells_total > _KEY_MAX:
        raise BudgetExceeded(f"{grid.cells_total} even cells overflow the int64 cell keys")
    alive = np.concatenate([_box_rows(grid, ys), np.arange(len(ys), len(xs))])
    # per axis: even cell inside the grid, and the key's next digit c // 2;
    # take and compress are the fast forms of these gathers
    keep, key = True, 0
    for c in grid.cells(np.take(xs, alive, axis=0)).T:
        keep = keep & ((c & 1) == 0) & (c >= 0) & (c <= grid.grid_max)
        key = key * grid.per_axis + (c >> 1)
    return np.compress(keep, alive), np.compress(keep, key)


def _raw_cell_keys(grid: CellGrid, xs: np.ndarray, owner: np.ndarray, out: np.ndarray) -> None:
    """Write owner s^k + the flat raw cell of each location into ``out``:
    per axis floor(x / eps') clipped to [-1, grid_max + 1] and shifted by
    one, a digit in [0, s), s = grid_max + 3.  fmax sends NaN to -1."""
    side = grid.grid_max + 3
    cells = np.floor(xs / grid.eps_prime)
    np.fmax(cells, -1.0, out=cells)
    np.fmin(cells, grid.grid_max + 1.0, out=cells)
    cells += 1.0
    np.copyto(out, owner)
    for c in cells.T:
        out *= side
        out += c.astype(np.int64)


def cell_counts(
    grid: CellGrid, xs: np.ndarray, ys: np.ndarray, owner: np.ndarray, owners: int
) -> np.ndarray:
    """The greedy count of many sample sets at once, from one box filter.

    ``owner[i]`` in [0, owners) names the set sample i belongs to; the
    result holds, per set, the number of distinct even cells with an
    admissible sample.  Locations in ``xs`` past ``len(ys)`` carry no jet
    and count by their cell alone, as a planted in-box jet would.

    Each counted location gets the key owner s^k + its raw cell
    (``_raw_cell_keys``), with no parity or range test per point: a raw
    digit c + 1 is odd and at most grid_max + 1 exactly when cell c is
    even and inside the grid.  When the owners s^k table has at most
    ``_TABLE_PER_POINT`` entries per key, one bincount of the keys fills
    it and a set counts the nonzero entries of its slice 1, 3, ...,
    grid_max + 1 on every axis.  Otherwise, as when many sets share a few
    box survivors or the grid is too fine for any table, the digits of
    the sorted distinct keys are tested instead.
    """
    k = xs.shape[1]
    side = grid.grid_max + 3
    size = side**k
    # side > per_axis, so this also refuses cells_total past the keys
    if max(owners, 1) * size > _KEY_MAX:
        raise BudgetExceeded(
            f"{owners} sets of {grid.cells_total} even cells overflow the int64 (set, cell) keys"
        )
    alive = _box_rows(grid, ys)
    key = np.empty(alive.size + len(xs) - len(ys), dtype=np.int64)
    _raw_cell_keys(grid, np.take(xs, alive, axis=0), np.take(owner, alive), key[: alive.size])
    _raw_cell_keys(grid, xs[len(ys) :], owner[len(ys) :], key[alive.size :])
    if owners * size <= _TABLE_PER_POINT * key.size:
        table = np.bincount(key, minlength=owners * size).reshape((owners,) + (side,) * k)
        even = (slice(None),) + (slice(1, grid.grid_max + 2, 2),) * k
        return np.count_nonzero(table[even], axis=tuple(range(1, k + 1)))
    # distinct keys by a sort and an adjacent difference: np.unique's first
    # call maps about 1.7 MB more of numpy
    pair = np.sort(key)
    new = np.ones(pair.size, dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=new[1:])
    rest, keep = np.compress(new, pair), True
    for _ in range(k):
        rest, digit = np.divmod(rest, side)
        keep = keep & (digit & 1 == 1) & (digit <= grid.grid_max + 1)
    return np.bincount(rest[keep], minlength=owners)


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
    (EpsTooLarge).  A grid of more even cells than an int64 key holds
    raises BudgetExceeded.

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


# Tube-DP samples per chunk at d - k = 1, halved for each further output
# coordinate: the 2^(d-k) low-corner counts of a chunk's samples take
# 64 kB.  The samples the fast rule leaves to the exact rule go through
# after the conversion, chunk by chunk, in sub-chunks of _DP_CHUNK // 9^(d-k-1),
# which keeps their 9^(d-k) candidates at a few megabytes even when every
# sample sits on a level boundary.  All chunks fill one int table of
# about ceil(eps^(-1/2)) x states counts.
_DP_CHUNK = 2**12

# Largest product-state count (nv nu)^(d-k) the tube DP accepts.
_DP_STATE_CAP = 250_000

# A level fraction closer than this to an integer sends its sample to the
# exact rule; :func:`_tube_weights` shows why the band is wide enough.
_TIE_BAND = 1e-6


def _exact_levels(y0, y1, dx, delta, eps, nv, nu_half):
    """One output coordinate's candidate states by the tube rule itself,
    ``(state, valid)``, both of shape (9, n) with the sample axis last.

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
    return (j * nu + (i + nu_half)).reshape(9, -1), valid.reshape(9, -1)


def _tube_weights(xs, ys, delta, eps, n_cells, nv, nu_half) -> np.ndarray:
    """The DP's weights, flat over (x-cell, product state): how many
    samples each cell's state covers, with s = j nu + i + nu_half per
    coordinate and the flat index ((cell S + s_1) S + s_2) ..., S = nv nu.

    Per output coordinate the tube rule covers two slope levels, floor(r)
    and floor(r) + 1 with r = y1 / delta, and for each slope level i two
    value levels, floor(t) and floor(t) + 1 with
    t = y0 / eps - i (dx delta / eps), by the rules |y1 - i delta| <= delta
    and |y0 - (j eps + i delta dx)| <= eps.  So pass 1 counts each sample
    once per combination of slope levels, 2^(d-k) counts, at its low
    corner: value index floor(t) + 1 on an axis padded to nv + 1 entries.
    After the last chunk the two-tap sum w[j] = h[j] + h[j + 1] along each
    value axis turns the low-corner counts into the covered-state counts,
    one x-cell at a time, in place: a cell's counts move down to its
    unpadded offset, below every cell not yet converted.

    That holds unless a fraction of r or t lies within ``_TIE_BAND`` of an
    integer (or is not finite): a neighbour then sits on the rule's
    boundary.  Pass 1 marks those samples, and those located outside
    [0, 1], one byte each; pass 2 adds the states :func:`_exact_levels`
    finds for them into the converted table, in sub-chunks.

    Why the band is wide enough: let a level pass the range checks, so
    |i| <= nu_half and 0 <= j < nv.  It lies within one level of the
    sample, so |y1| <= (nu_half + 1) delta; for x in [0, 1] |dx| <= delta,
    so |i delta dx| <= nu_half eps, |t| <= nv and |y0| <= (nv + nu_half) eps.
    Every term of either rule is then at most (nv + nu) level units, and
    nv + nu <= nv nu + 1 <= ``_DP_STATE_CAP`` + 1.  Each of the few
    roundings in r, t, their fractions and the float rule errs by at most
    2^-53 of such a term, below 3e-11 units, so the fractions and the
    float rule stay within 1e-9 units of exact arithmetic: outside the
    band the floors decide the float rule exactly.
    """
    dim_out = ys.shape[2]
    nu = 2 * nu_half + 1
    size, padded = nv * nu, (nv + 1) * nu
    per_cell, padded_cell = size**dim_out, padded**dim_out
    # one more entry past the cells takes the counts pass 1 does not keep
    trash = n_cells * padded_cell
    table = np.zeros(trash + 1, dtype=np.int64)
    exact = ~((xs >= 0) & (xs <= 1))
    corners = np.arange(2.0)[:, None]
    near = 0.5 - _TIE_BAND  # |fraction - 1/2| <= near: outside the band
    # (j + 1) nu + i + nu_half per coordinate: the constant parts of all
    # coordinates go into the cell term
    base = (nu + nu_half) * sum(padded**c for c in range(dim_out))

    chunk = max(1, _DP_CHUNK >> (dim_out - 1))
    for start in range(0, len(xs), chunk):
        part = slice(start, start + chunk)
        x, y = xs[part], ys[part]
        # dx delta / eps = dx / delta, the cell fraction of x / delta
        q = x / delta
        cells = np.minimum(np.floor(q), n_cells - 1)
        tilt = q - cells
        flat = cells * padded_cell + base
        ok, clear = None, ~exact[part]
        frac = np.empty((3, len(x)))  # r, then t at both slope levels
        for comp in range(dim_out):
            r = np.divide(y[:, 1, comp], delta, out=frac[0])
            i = np.floor(r) + corners  # (slope, sample)
            t = np.multiply(i, tilt, out=frac[1:])
            np.subtract(y[:, 0, comp] / eps, t, out=t)
            low = np.floor(frac)
            frac -= low
            frac -= 0.5
            clear &= np.abs(frac, out=frac).max(axis=0) <= near
            j = low[1:]
            valid = (j >= -1) & (j < nv) & (np.abs(i) <= nu_half)
            step = j * nu
            step += i
            if comp < dim_out - 1:
                step *= padded ** (dim_out - 1 - comp)
            flat = flat[..., None, :] + step
            ok = valid if ok is None else ok[..., None, :] & valid
        exact[part] = ~clear
        ok &= clear
        np.copyto(flat, trash, where=~ok)
        np.add.at(table, flat.astype(np.int64).ravel(), 1)

    weights = table[: n_cells * per_cell]
    for c in range(n_cells):
        w = table[c * padded_cell : (c + 1) * padded_cell].reshape((nv + 1, nu) * dim_out)
        out = weights[c * per_cell : (c + 1) * per_cell].reshape((nv, nu) * dim_out)
        for axis in range(0, 2 * dim_out, 2):
            lead = (slice(None),) * axis
            low, high = w[lead + (slice(None, -1),)], w[lead + (slice(1, None),)]
            # the last sum lands in place: numpy buffers inputs that out overlaps
            w = np.add(low, high, out=out if axis == 2 * dim_out - 2 else None)

    exact_chunk = max(1, _DP_CHUNK // 9 ** (dim_out - 1))
    for start in range(0, len(xs), chunk):
        rows = start + np.flatnonzero(exact[start : start + chunk])
        for s in range(0, rows.size, exact_chunk):
            part = rows[s : s + exact_chunk]
            x = xs[part]
            cells = np.clip(np.floor(x / delta), 0, n_cells - 1)
            dx = x - cells * delta
            flat, ok = cells[None], np.ones((1, part.size), dtype=bool)
            for comp in range(dim_out):
                y0, y1 = ys[part, 0, comp], ys[part, 1, comp]
                state, valid = _exact_levels(y0, y1, dx, delta, eps, nv, nu_half)
                flat = (flat[:, None] * size + state).reshape(-1, part.size)
                ok = (ok[:, None] & valid).reshape(-1, part.size)
            np.add.at(weights, flat[ok].astype(np.int64), 1)
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
