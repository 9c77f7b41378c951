"""Smoothness classes, jets, and the piecewise bump interpolant.

A jet attaches to a location x in [0,1]^k the values of all partial
derivatives indexed by multi-indices of weight at most r0.  The class
H(alpha, beta) consists of maps [0,1]^k -> [0,1]^{d-k} whose derivatives
up to order r = max{m : m < alpha} are bounded by beta and whose order-r
increments satisfy |f^(s)(x) - f^(s)(y)| <= beta |x - y|_inf^(alpha - r).

The interpolant built here places one scaled bump per occupied grid cell;
cells are even-indexed so supports never overlap, and the bump basis has
exact Kronecker derivatives at the cell node, so the construction
reproduces each node's jet to rounding error.

There is one bump, the zeta-bump of ``bumps.bump_factors``.  Each piece
is g_m(u) = sum_s c_{m,s} prod_i u_i^{s_i} / s_i! zeta(u_i), so a partial
derivative of order t factors as d^t g_m = sum_s c_{m,s} prod_i
F_i[s_i, t_i], with F[e, q] = d^q/du^q [u^e / e! zeta(u)] that table;
``BumpBasis`` takes the sup norms behind the class constant c2 from the
same table, so c2 is derived for the function evaluated.  Supports are
disjoint, so each point lies in at most one node's support, found from
the point's cell by a lookup in the sorted node cells; jets at many
points are then evaluated together, from one such table per coordinate
over every point that lies in a support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import ceil, comb, factorial, inf

import numpy as np

from .bumps import bump_factors
from .errors import (
    BoxViolation,
    CellCollision,
    DimensionMismatch,
    EpsTooLarge,
    NotInClass,
    OutOfDomain,
    ParamOrder,
)
from .grassmann import orthonormal_frames

MultiIndex = tuple[int, ...]

# Relative slack used when asserting class membership of constructed maps.
MEMBERSHIP_TOL = 1e-6

# Grid pairs in one row block of the all-pairs membership increment scan,
# which only alpha - r < 1 reaches; the scan holds three float planes of
# this size.  Tuned on a (3,4) interpolant at grid_n = 13 when alpha = 2
# still took this scan: 2^16 and 2^17 ran fastest; 2^14 took 1.2 times as
# long and 2^20, whose planes no longer fit in cache, 1.4 times.
_MEMBERSHIP_PAIR_BUDGET = 2**16


def strict_floor(alpha: float) -> int:
    """Largest integer strictly below alpha (so 2.0 -> 1, 2.5 -> 2)."""
    return ceil(alpha) - 1


@lru_cache(maxsize=None)
def multi_index_set(k: int, r0: int) -> tuple[MultiIndex, ...]:
    """All k-tuples of nonnegative integers with weight <= r0, graded order.

    Sorted by weight, then lexicographically descending within a weight, so
    for k = 2, r0 = 1 the order is (0,0), (1,0), (0,1).
    """
    if k < 1 or r0 < 0:
        raise ParamOrder(f"need k >= 1 and r0 >= 0, got k={k}, r0={r0}")
    idx = [s for s in product(range(r0 + 1), repeat=k) if sum(s) <= r0]
    idx.sort(key=lambda s: (sum(s), tuple(-e for e in s)))
    return tuple(idx)


def mi_binom(t: MultiIndex, tp: MultiIndex) -> int:
    out = 1
    for a, b in zip(t, tp):
        out *= comb(a, b)
    return out


def mi_leq(a: MultiIndex, b: MultiIndex) -> bool:
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class HolderParams:
    """Parameters of the jet interpolation problem.

    d is the ambient dimension; maps go [0,1]^k -> [0,1]^{d-k}.  r is
    derived from alpha by the strict-floor convention r = max{m : m < alpha},
    so alpha = 2 gives r = 1.
    """

    k: int
    d: int
    alpha: float
    beta: float
    r0: int

    def __post_init__(self):
        if self.k < 1 or self.d <= self.k:
            raise ParamOrder(f"need 1 <= k < d, got k={self.k}, d={self.d}")
        if not 1 < self.alpha < inf:
            raise ParamOrder(f"need finite alpha > 1, got {self.alpha}")
        if not 0 < self.beta < inf:
            raise ParamOrder(f"need finite beta > 0, got {self.beta}")
        if not 1 <= self.r0 <= self.r:
            raise ParamOrder(
                f"need 1 <= r0 <= r = {self.r}, got r0={self.r0} (alpha={self.alpha})"
            )

    @property
    def r(self) -> int:
        return strict_floor(self.alpha)

    @property
    def dim_out(self) -> int:
        return self.d - self.k

    def index_set(self) -> tuple[MultiIndex, ...]:
        return multi_index_set(self.k, self.r0)


@dataclass(frozen=True, eq=False)
class JetPoint:
    """One observation: location x plus derivative data over the index set.

    ``y`` has shape (|S|, d-k), rows aligned with multi_index_set order;
    row 0 is the function value.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float).reshape(-1)
        y = np.array(self.y, dtype=float)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class JetSamples:
    """A batch of jet observations stored as dense arrays.

    Behaves as a sequence of JetPoint while keeping (n, k) locations and
    (n, |S|, d-k) jets contiguous for the vectorized statistics.
    """

    def __init__(self, params: HolderParams, xs: np.ndarray, ys: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != params.k:
            raise ParamOrder(f"xs must have shape (n, {params.k})")
        n_idx = len(params.index_set())
        if ys.shape != (xs.shape[0], n_idx, params.dim_out):
            raise ParamOrder(f"ys must have shape (n, {n_idx}, {params.dim_out})")
        self.params = params
        self.xs = xs
        self.ys = ys

    def __len__(self) -> int:
        return self.xs.shape[0]

    def __getitem__(self, i: int) -> JetPoint:
        return JetPoint(self.xs[i], self.ys[i])


def discrepancy_phi(y1: np.ndarray, y2: np.ndarray, params: HolderParams) -> float:
    """Jet discrepancy: max over s of |y1^s - y2^s|_inf^(alpha/(alpha-|s|))."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.ndim == 1:
        y1 = y1.reshape(-1, 1)
    if y2.ndim == 1:
        y2 = y2.reshape(-1, 1)
    best = 0.0
    for row, s in enumerate(params.index_set()):
        gap = float(np.max(np.abs(y1[row] - y2[row])))
        expo = params.alpha / (params.alpha - sum(s))
        best = max(best, gap**expo)
    return best


def phi_tube_radii(params: HolderParams, eps: float) -> np.ndarray:
    """Per-index-row thresholds: Phi <= eps iff each gap <= eps^(1-|s|/alpha)."""
    return np.array(
        [eps ** ((params.alpha - sum(s)) / params.alpha) for s in params.index_set()]
    )


# ---------------------------------------------------------------------------
# Bump basis
# ---------------------------------------------------------------------------


class BumpBasis:
    """The family psi_s(x) = (x^s / s!) * prod_i zeta(x_i) for s in S: the
    zeta-bumps of ``bumps.bump_factors``, psi_s^(t)(x) = prod_i
    F[s_i, t_i](x_i), which ``HolderInterpolant.jet_grid`` evaluates.

    Supported in [-1/2, 1/2]^k with exact Kronecker jet conditions at 0:
    the derivative of psi_s of multi-order t vanishes at 0 unless t == s,
    where it equals 1.  Each factor's sup norm is its maximum on a grid of
    1001 points on [-1/2, 1/2], padded by a 1.1 safety factor; the norms
    of psi_s are products of these, and feed the construction constants
    c3 and c2.  The pad is a measured cover, not a proof: on a
    2,000,001-point grid no factor with e <= 4 and q <= 5 exceeds its
    1001-point maximum by more than 0.4%.
    """

    SAFETY = 1.1
    NORM_POINTS = 1001

    def __init__(self, k: int, r0: int, r: int):
        self.k = k
        self.r0 = r0
        self.r = r
        self.index_set = multi_index_set(k, r0)
        self.deriv_set = multi_index_set(k, r + 1)
        table = bump_factors(np.linspace(-0.5, 0.5, self.NORM_POINTS), r0, r + 1)
        factor_sup = np.max(np.abs(table), axis=2) * self.SAFETY
        self.norms: dict[tuple[MultiIndex, MultiIndex], float] = {}
        for s in self.index_set:
            for t in self.deriv_set:
                self.norms[(s, t)] = float(np.prod([factor_sup[s[i], t[i]] for i in range(k)]))

    def construction_c3(self) -> float:
        """Bound constant from the zeta-bump norms: sup_t of the Leibniz norm sum, doubled.

        Derived from |g^(t)| <= Y0 sum_{t'<=t} C(t,t') |psi_0^(t')|
        * sum_s (eps')^|s| (Y^s / Y0) |psi_s^(t-t')| with the coefficient
        ratio bounded by 2 c2^{r/alpha}.
        """
        zero = self.index_set[0]
        best = 0.0
        for t in self.deriv_set:
            total = 0.0
            for tp in multi_index_set(self.k, sum(t)):
                if not mi_leq(tp, t):
                    continue
                rest = tuple(a - b for a, b in zip(t, tp))
                inner = sum(self.norms[(s, rest)] for s in self.index_set)
                total += mi_binom(t, tp) * self.norms[(zero, tp)] * inner
            best = max(best, total)
        return 2.0 * best


_BASES: dict[tuple[int, int, int], BumpBasis] = {}


def bump_basis(params: HolderParams) -> BumpBasis:
    """The bump basis of ``params``, built once per (k, r0, r)."""
    key = (params.k, params.r0, params.r)
    if key not in _BASES:
        _BASES[key] = BumpBasis(*key)
    return _BASES[key]


@lru_cache(maxsize=None)
def construction_c2(params: HolderParams) -> float:
    """The class-certifying cell-scaling constant for these parameters:
    the smallest c2 > 1 with c3 c2^(r/alpha - 1) <= beta; inf on overflow."""
    c3 = bump_basis(params).construction_c3()
    try:
        return max(1.0 + 1e-6, (c3 / params.beta) ** (params.alpha / (params.alpha - params.r)))
    except OverflowError:
        return inf


@dataclass(frozen=True)
class CellGrid:
    """The cell rule at one eps, read by the interpolant and by the greedy
    count it certifies: cells of width eps' = (c2 eps)^(1/alpha), one node
    per even cell (so bump supports never overlap), and the admissible
    jet box ``bounds``, one (lo, hi) per index row: the value row in
    [eps/2, eps], weight-|s| rows in [0, eps^(1-|s|/alpha)].  A
    ``clamped`` grid is the whole cube as one cell (eps' = 1), which no
    interpolant accepts."""

    eps: float
    c2: float
    eps_prime: float
    clamped: bool
    grid_max: int
    per_axis: int
    cells_total: int
    bounds: tuple[tuple[float, float], ...]

    def cells(self, xs: np.ndarray) -> np.ndarray:
        """Integer cell multi-indices floor(x / eps') of the locations xs."""
        return np.floor(xs / self.eps_prime).astype(np.int64)


def cell_grid(
    params: HolderParams, eps: float, c2: float | None = None, clamp: bool = False
) -> CellGrid:
    """The cell grid at eps; c2 defaults to ``construction_c2(params)`` and
    must be finite and exceed 1.

    When eps' would exceed 1/2, raises EpsTooLarge unless ``clamp`` is
    set, in which case the whole cube is one cell and the grid is flagged.
    """
    if c2 is None:
        c2 = construction_c2(params)
    if not 1 < c2 < inf:
        raise ParamOrder(f"need finite c2 > 1, got c2={c2}")
    if not eps > 0:
        raise ParamOrder(f"need eps > 0, got eps={eps}")
    eps_prime = (c2 * eps) ** (1.0 / params.alpha)
    clamped = eps_prime > 0.5
    if clamped and not clamp:
        raise EpsTooLarge(f"cell width {eps_prime:.4g} > 1/2; decrease eps (or increase beta)")
    if clamped:
        eps_prime = 1.0
    grid_max = int(np.floor(1.0 / eps_prime))
    per_axis = grid_max // 2 + 1
    bounds = []
    for s in params.index_set():
        if sum(s) == 0:
            bounds.append((eps / 2.0, eps))
        else:
            bounds.append((0.0, eps ** (1.0 - sum(s) / params.alpha)))
    cells_total = per_axis**params.k
    return CellGrid(
        float(eps), float(c2), eps_prime, clamped, grid_max, per_axis, cells_total, tuple(bounds)
    )


# ---------------------------------------------------------------------------
# Interpolant
# ---------------------------------------------------------------------------


def _jet_query(k: int, xs, t_list) -> np.ndarray:
    """The points xs of a jet_grid call as an (npts, k) float array.

    Raises DimensionMismatch unless xs has k columns and every multi-index
    in t_list has k entries.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != k:
        raise DimensionMismatch(f"points have shape {xs.shape}, need (npts, {k})")
    for t in t_list:
        if len(t) != k:
            raise DimensionMismatch(f"multi-index {tuple(t)} has {len(t)} entries, need {k}")
    return xs


class HolderInterpolant:
    """Disjoint-support bump interpolant through a set of node jets.

    Each node contributes h_m(x) = g_m((x - X_m) / eps'), where g_m is the
    bump expansion with coefficients (eps')^|s| Y^s; since the plateau is
    flat at 0, evaluate at the node reproduces its jet exactly.

    Nodes must sit in pairwise-distinct even cells of the grid
    (CellCollision otherwise): ``jet_grid`` finds each point's one
    candidate node from its cell.  ``cells`` lists each node's cell, read
    off the grid.
    """

    def __init__(self, params: HolderParams, grid: CellGrid, nodes: list[JetPoint]):
        self.params = params
        self.eps = grid.eps
        self.c2 = grid.c2
        self.eps_prime = grid.eps_prime
        self.nodes = list(nodes)
        self._per_axis = grid.per_axis
        self._mis = params.index_set()
        self._pow = np.array([self.eps_prime ** sum(s) for s in self._mis])
        self._xs = np.reshape([p.x for p in self.nodes], (-1, params.k))
        raw = np.reshape([p.y for p in self.nodes], (-1, len(self._mis), params.dim_out))
        self._coefs = raw * self._pow[None, :, None]
        node_cells = grid.cells(self._xs)
        self.cells: list[MultiIndex] = [tuple(c) for c in node_cells.tolist()]
        off = np.any((node_cells & 1) | (node_cells < 0) | (node_cells > grid.grid_max), axis=1)
        if off.any():
            cell = tuple(node_cells[np.argmax(off)].tolist())
            raise CellCollision(f"node cell {cell} is not on the even grid")
        # node lookup, one sorted level per axis: level i holds the distinct
        # keys rank * per_axis + c_i // 2 of the nodes' cell prefixes, rank
        # being the prefix's place in level i - 1, so keys stay below
        # nodes * per_axis however fine the grid and memory is O(nodes)
        rank = np.zeros(len(self.nodes), dtype=np.int64)
        self._levels = []
        for half in (node_cells >> 1).T:
            level, rank = np.unique(rank * self._per_axis + half, return_inverse=True)
            self._levels.append(level)
        counts = np.bincount(rank, minlength=1)
        if counts.max() > 1:
            cell = tuple(node_cells[rank == np.argmax(counts)][0].tolist())
            raise CellCollision(f"two nodes share cell {cell}")
        self._node_of = np.empty(len(self.nodes), dtype=np.int64)
        self._node_of[rank] = np.arange(len(self.nodes))

    def jet_grid(self, xs: np.ndarray, t_list=None) -> np.ndarray:
        """Derivative values at many points: shape (npts, len(t_list), d-k).

        xs has shape (npts, k); t_list defaults to the parameter index set,
        and any multi-index order is accepted, in any order and with
        repeats (DimensionMismatch on any other width).

        Supports are disjoint, so each point has one candidate node: node
        X in even cell c on an axis has support |x - X| <= eps'/2 inside
        (c - 1/2, c + 3/2) eps', so u = x / eps' in its support gives
        c = 2 floor((u + 1/2) / 2), an interval holding one even integer.
        Rounding can flip that choice only within rounding of a support
        boundary, where zeta and all its derivatives are exactly 0 (below
        the underflow cutoff of ``bumps``).  All points inside a support
        are then evaluated together: one ``bump_factors`` table per
        coordinate (see the module docstring), gathered per point and
        contracted with the point's node coefficients, summing over s in
        index order.
        """
        if t_list is None:
            t_list = self._mis
        k, r0 = self.params.k, self.params.r0
        xs = _jet_query(k, xs, t_list)
        out = np.zeros((xs.shape[0], len(t_list), self.params.dim_out))
        if not (self.nodes and len(t_list)):
            return out
        half = np.floor((xs / self.eps_prime + 0.5) / 2.0)
        pts = np.flatnonzero(np.all((half >= 0) & (half < self._per_axis), axis=1))
        rank = np.zeros(pts.size, dtype=np.int64)
        for i, level in enumerate(self._levels):
            key = rank * self._per_axis + half[pts, i].astype(np.int64)
            pos = np.searchsorted(level, key)
            found = np.take(level, pos, mode="clip") == key
            pts, rank = pts[found], pos[found]
        node = self._node_of[rank]
        rel = (xs[pts] - self._xs[node]) / self.eps_prime
        inside = np.max(np.abs(rel), axis=1) <= 0.5
        pts, node, u = pts[inside], node[inside], rel[inside]
        if not pts.size:
            return out
        max_ord = max(max(t) for t in t_list)
        pow_t = np.array([self.eps_prime ** sum(t) for t in t_list])
        # (i, s) exponents and (i, t) orders, for one gather per coordinate
        s_idx = np.array(self._mis).T
        t_idx = np.array(t_list).T
        terms = 1.0
        for i in range(k):
            table = bump_factors(u[:, i], r0, max_ord)
            terms = terms * table[np.ix_(s_idx[i], t_idx[i])]  # (|S|, |T|, npts)
        coefs = self._coefs[node]  # (npts, |S|, d-k)
        jets = coefs[:, 0, None, :] * terms[0].T[:, :, None]
        for s in range(1, len(self._mis)):
            jets += coefs[:, s, None, :] * terms[s].T[:, :, None]
        out[pts] = jets / pow_t[None, :, None]
        return out


def build_interpolant(
    nodes,
    params: HolderParams,
    eps: float,
    c2: float | None = None,
) -> HolderInterpolant:
    """Assemble the disjoint-support interpolant through the given nodes.

    Nodes must have a location in [0, 1]^k and a jet of shape
    (|S|, d-k), and sit in pairwise-distinct, even-indexed cells of the
    eps'-grid, with jets inside the admissible box of their cell.  With no
    nodes this returns the zero map, which is trivially in the class.
    """
    grid = cell_grid(params, eps, c2)
    nodes = list(nodes)
    jet_shape = (len(params.index_set()), params.dim_out)
    for p in nodes:
        if p.x.shape != (params.k,) or p.y.shape != jet_shape:
            raise DimensionMismatch(
                f"node has location shape {p.x.shape} and jet shape {p.y.shape}, "
                f"need ({params.k},) and {jet_shape}"
            )
        if np.any(p.x < 0.0) or np.any(p.x > 1.0):
            raise OutOfDomain(f"node location {p.x} outside the unit cube")
        for row, (lo, hi) in enumerate(grid.bounds):
            if np.any(p.y[row] < lo) or np.any(p.y[row] > hi):
                raise BoxViolation(
                    f"jet row {row} = {p.y[row]} outside box [{lo:.4g}, {hi:.4g}]"
                )
    return HolderInterpolant(params, grid, nodes)


# ---------------------------------------------------------------------------
# Plain jet-evaluable functions
# ---------------------------------------------------------------------------


@dataclass
class PolyJetFunction:
    """Polynomial map with analytic jets, for planted signals and tests.

    ``coeffs`` maps exponent multi-indices to coefficient vectors of length
    d - k; g(x) = sum_e coeffs[e] * x^e.
    """

    k: int
    dim_out: int
    coeffs: dict[MultiIndex, np.ndarray] = field(default_factory=dict)

    def jet_grid(self, xs: np.ndarray, t_list) -> np.ndarray:
        xs = _jet_query(self.k, xs, t_list)
        out = np.zeros((xs.shape[0], len(t_list), self.dim_out))
        for row, t in enumerate(t_list):
            for e, c in self.coeffs.items():
                if not mi_leq(t, e):
                    continue
                scale = 1.0
                mono = np.ones(xs.shape[0])
                for i in range(self.k):
                    scale *= factorial(e[i]) / factorial(e[i] - t[i])
                    mono = mono * xs[:, i] ** (e[i] - t[i])
                out[:, row, :] += scale * mono[:, None] * np.asarray(c, dtype=float)[None, :]
        return out


def constant_function(k: int, value: np.ndarray | float, dim_out: int | None = None) -> PolyJetFunction:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if dim_out is None:
        dim_out = value.shape[0]
    return PolyJetFunction(k, dim_out, {tuple([0] * k): np.broadcast_to(value, (dim_out,)).copy()})


def random_class_function(params: HolderParams, rng: np.random.Generator) -> PolyJetFunction:
    """Seeded smooth class member: centered quadratic with safe coefficients.

    Coefficient budgets keep values inside [0,1], first derivatives below
    0.8 beta and second derivatives below 0.8 beta, so membership holds
    with margin for any alpha in (1, 2].
    """
    k, dim_out, beta = params.k, params.dim_out, params.beta
    lin_cap = min(0.8 * beta, 0.5) / k
    quad_cap = min(0.8 * beta, 1.0) / k
    coeffs: dict[MultiIndex, np.ndarray] = {}
    zero = tuple([0] * k)
    const = np.full(dim_out, 0.5)
    for i in range(k):
        e1 = tuple(1 if j == i else 0 for j in range(k))
        e2 = tuple(2 if j == i else 0 for j in range(k))
        b = rng.uniform(-lin_cap, lin_cap, size=dim_out)
        c = rng.uniform(-quad_cap, quad_cap, size=dim_out)
        # expand b (x - 1/2) + c (x - 1/2)^2 / 2 into monomials
        coeffs[e1] = coeffs.get(e1, np.zeros(dim_out)) + b - c * 0.5
        coeffs[e2] = coeffs.get(e2, np.zeros(dim_out)) + c * 0.5
        const = const - b * 0.5 + c * 0.125
    coeffs[zero] = const
    return PolyJetFunction(k, dim_out, coeffs)


# ---------------------------------------------------------------------------
# Class membership
# ---------------------------------------------------------------------------


@dataclass
class MembershipReport:
    beta: float
    tol_rel: float
    norms: dict[MultiIndex, float]
    max_holder_ratio: float
    passed: bool


def holder_membership_check(
    f,
    params: HolderParams,
    grid_n: int | None = None,
    tol_rel: float = MEMBERSHIP_TOL,
) -> MembershipReport:
    """Grid check of derivative norms and the order-r increment bound.

    Evaluates all derivatives up to order r on a uniform grid (grid_n
    points per axis, default 101 for k = 1 and 21 for k >= 2), records the
    sup norms and the worst increment ratio
    |D^r f(a) - D^r f(b)|_inf / |a - b|_inf^(alpha - r) over all grid pairs,
    and passes when everything is below beta * (1 + tol_rel).

    When alpha - r = 1 (every integer alpha) only king-move neighbours,
    pairs one grid step apart in the sup norm, are scanned: (3^k - 1) / 2
    offsets of about N = grid_n^k pairs each, in O(N) memory beyond the
    jets.  That is the all-pairs maximum: points m steps apart are joined
    by a king path of m steps of sup length one step h each, and the
    triangle inequality bounds their increment by the sum of the m
    neighbour increments, so by the worst neighbour ratio times
    m h = |a - b|_inf.

    When alpha - r < 1 the power |.|^(alpha - r) does not add up along a
    path, and the scan visits each of the N^2 / 2 unordered pairs once,
    in row blocks of the upper triangle of at most max(N, 2^16) pairs;
    memory is O(N * block) beyond the jets, never O(N^2).

    Either way each visited ratio is the same float as in a dense N-by-N
    scan, since |a - b| = |b - a| exactly.  Where a far pair ties a
    neighbour pair in exact arithmetic (an affine D^r f), rounding can
    leave the neighbour maximum an ulp below the dense one, far inside
    tol_rel.
    """
    if grid_n is None:
        grid_n = 101 if params.k == 1 else 21
    if grid_n < 2:
        raise ParamOrder("grid_n must be at least 2")
    axes = [np.linspace(0.0, 1.0, grid_n)] * params.k
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    t_all = multi_index_set(params.k, params.r)
    jets = f.jet_grid(xs, t_all)
    tol = params.beta * (1.0 + tol_rel)
    norms = {}
    for row, t in enumerate(t_all):
        norms[t] = float(np.max(np.abs(jets[:, row, :])))
    # one contiguous row per coordinate, so each block reads whole planes
    coords = xs.T.copy()
    order_r = [jets[:, row, :].T.copy() for row, t in enumerate(t_all) if sum(t) == params.r]
    gamma = params.alpha - params.r
    if gamma == 1:
        max_ratio = _neighbour_max_ratio(coords, order_r, grid_n, gamma)
    else:
        max_ratio = _blocked_max_ratio(coords, order_r, gamma)
    passed = all(v <= tol for v in norms.values()) and max_ratio <= tol
    return MembershipReport(params.beta, tol_rel, norms, max_ratio, passed)


def _neighbour_max_ratio(
    coords: np.ndarray, order_r: list[np.ndarray], grid_n: int, gamma: float
) -> float:
    """Worst increment ratio over the king-move neighbour pairs of the grid.

    ``coords`` and each of ``order_r`` hold one grid point per column, in
    the C order of the (grid_n,) * k grid.  Each offset in {-1, 0, 1}^k
    whose first nonzero entry is +1 pairs two shifted slices, so every
    unordered neighbour pair is visited once.
    """
    shape = (grid_n,) * coords.shape[0]
    coords = coords.reshape((-1,) + shape)
    planes = [vals.reshape((-1,) + shape) for vals in order_r]
    max_ratio = 0.0
    for off in product((-1, 0, 1), repeat=len(shape)):
        if next((o for o in off if o), -1) != 1:
            continue
        a = (slice(None),) + tuple(slice(max(0, -o), grid_n - max(0, o)) for o in off)
        b = (slice(None),) + tuple(slice(max(0, o), grid_n - max(0, -o)) for o in off)
        denom = np.max(np.abs(coords[a] - coords[b]), axis=0) ** gamma
        for vals in planes:
            gaps = np.max(np.abs(vals[a] - vals[b]), axis=0)
            max_ratio = max(max_ratio, float(np.max(gaps / denom)))
    return max_ratio


def _blocked_max_ratio(coords: np.ndarray, order_r: list[np.ndarray], gamma: float) -> float:
    """Worst increment ratio over all grid pairs, in row blocks of the upper triangle."""
    n_pts = coords.shape[1]
    step = max(1, _MEMBERSHIP_PAIR_BUDGET // n_pts)
    acc, tmp = np.empty(step * n_pts), np.empty(step * n_pts)
    max_ratio = 0.0
    for i0 in range(0, n_pts, step):
        i1 = min(n_pts, i0 + step)
        dx = _block_sup_gaps(coords, i0, i1, acc, tmp)
        np.fill_diagonal(dx, np.inf)
        denom = dx ** gamma
        for vals in order_r:
            gaps = _block_sup_gaps(vals, i0, i1, acc, tmp)
            np.divide(gaps, denom, out=gaps)
            max_ratio = max(max_ratio, float(np.max(gaps)))
    return max_ratio


def _block_sup_gaps(
    coords: np.ndarray, i0: int, i1: int, acc: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """max_j |coords[j, a] - coords[j, b]| for points a in i0:i1 and b in i0:.

    ``coords`` holds one point per column.  The (i1 - i0, n - i0) result
    is a view of ``acc``, so the next call overwrites it; ``tmp`` is
    scratch.  Each coordinate is one plane folded in with np.maximum,
    which is several times faster than a max over a short trailing axis.
    """
    shape = (i1 - i0, coords.shape[1] - i0)
    out = acc[: shape[0] * shape[1]].reshape(shape)
    plane = tmp[: shape[0] * shape[1]].reshape(shape)
    for j, row in enumerate(coords):
        dst = out if j == 0 else plane
        np.subtract(row[i0:i1, None], row[None, i0:], out=dst)
        np.abs(dst, out=dst)
        if j:
            np.maximum(out, plane, out=out)
    return out


# ---------------------------------------------------------------------------
# Graph lifts into the oriented class
# ---------------------------------------------------------------------------


class GraphLift:
    """The map x -> (x, g(x)) with its tangent frames.

    The tangent space at x is spanned by (e_i, d_i g(x)); the identity
    block is produced analytically, and the stacked frame always has full
    rank, so lifts never have degenerate tangents.
    """

    def __init__(self, g, params: HolderParams):
        self.g = g
        self.params = params
        self._weight1 = [t for t in params.index_set() if sum(t) == 1]

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def d(self) -> int:
        return self.params.d

    def point_grid(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        zero = tuple([0] * self.params.k)
        vals = self.g.jet_grid(xs, [zero])[:, 0, :]
        return np.concatenate([xs, vals], axis=1)

    def raw_tangents(self, xs: np.ndarray) -> np.ndarray:
        """Un-normalized tangent frames (npts, d, k): columns (e_i, d_i g)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        jac = self.g.jet_grid(xs, self._weight1)  # (npts, k, dim_out)
        eye = np.broadcast_to(np.eye(self.k), (len(xs), self.k, self.k))
        return np.concatenate([eye, jac.transpose(0, 2, 1)], axis=1)

    def tangent_frames(self, xs: np.ndarray) -> np.ndarray:
        """Orthonormalized tangent frames, shape (npts, d, k): the Q factors
        of the raw tangents with R's diagonal positive."""
        return orthonormal_frames(self.raw_tangents(xs))


def graph_lift(g, params: HolderParams, check: bool = True) -> GraphLift:
    """Lift a class member to the oriented problem; verifies membership.

    Requires alpha = 2 (the oriented class is of second order).  Raises
    NotInClass when the membership check fails.
    """
    if params.alpha != 2 or params.r0 < 1:
        raise ParamOrder("graph lifts are defined for alpha = 2 with r0 >= 1")
    if check:
        report = holder_membership_check(g, params)
        if not report.passed:
            raise NotInClass(
                f"membership failed: norms up to {max(report.norms.values()):.4g}, "
                f"ratio {report.max_holder_ratio:.4g} vs beta {params.beta:.4g}"
            )
    return GraphLift(g, params)
