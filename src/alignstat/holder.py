"""Smoothness classes, jets, and the piecewise bump interpolant.

A jet attaches to a location x in [0,1]^k the values of all partial
derivatives indexed by multi-indices of weight at most r0.  The class
H(alpha, beta) consists of maps [0,1]^k -> [0,1]^{d-k} whose derivatives
up to order r = max{m : m < alpha} are bounded by beta and whose order-r
increments satisfy |f^(s)(x) - f^(s)(y)| <= beta |x - y|_inf^(alpha - r).

The interpolant built here places one scaled bump per occupied grid cell;
cells are even-indexed so supports never overlap, and the bump basis has
exact Kronecker derivatives at the cell node, so the construction
reproduces each node's jet to rounding error while staying in the class
(for the construction constant c2 chosen from the bump derivative norms).

Each piece is g_m(u) = sum_s c_{m,s} prod_i u_i^{s_i} / s_i! zeta^2(u_i),
so every term is a product over coordinates and a partial derivative of
order t factors as d^t g_m = sum_s c_{m,s} prod_i F_i[s_i, t_i], where
F[e, q] = d^q/du^q [u^e / e! zeta^2(u)] is the one-dimensional Leibniz
table of ``bumps.monomial_leibniz``.  Jets are evaluated from one such
table per coordinate and node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import ceil, comb, factorial, inf

import numpy as np

from .bumps import monomial_leibniz, monomial_plateau_derivs, plateau_sq_derivs
from .errors import (
    BoxViolation,
    CellCollision,
    DimensionMismatch,
    EpsTooLarge,
    NotInClass,
    OutOfDomain,
    ParamOrder,
)

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
    """The family psi_s(x) = (x^s / s!) * prod_i zeta(x_i) for s in S.

    Supported in [-1/2, 1/2]^k with exact Kronecker jet conditions at 0:
    the derivative of psi_s of multi-order t vanishes at 0 unless t == s,
    where it equals 1.  Derivative sup norms are estimated on a grid of
    101 points per axis and padded by a 1.1 safety factor; those padded
    norms feed the construction constants c3 and c2.
    """

    SAFETY = 1.1

    def __init__(self, k: int, r0: int, r: int):
        self.k = k
        self.r0 = r0
        self.r = r
        self.index_set = multi_index_set(k, r0)
        self.deriv_set = multi_index_set(k, r + 1)
        ts = np.linspace(-0.5, 0.5, 101)
        # sup of |d^q/dt^q (t^m/m! zeta)| per coordinate factor, padded
        factor_sup = np.empty((r0 + 1, r + 2))
        for m in range(r0 + 1):
            tab = monomial_plateau_derivs(ts, m, r + 1)
            factor_sup[m] = np.max(np.abs(tab), axis=1)
        self._factor_sup = factor_sup * self.SAFETY
        self.norms: dict[tuple[MultiIndex, MultiIndex], float] = {}
        for s in self.index_set:
            for t in self.deriv_set:
                self.norms[(s, t)] = float(
                    np.prod([self._factor_sup[s[i], t[i]] for i in range(k)])
                )

    def psi_jet(self, s: MultiIndex, t: MultiIndex, xs: np.ndarray) -> np.ndarray:
        """Values of the t-derivative of psi_s at points xs (npts, k)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        out = np.ones(xs.shape[0])
        for i in range(self.k):
            tab = monomial_plateau_derivs(xs[:, i], s[i], t[i])
            out = out * tab[t[i]]
        return out

    def construction_c3(self) -> float:
        """Bound constant: sup_t of the Leibniz norm sum, doubled.

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


class HolderInterpolant:
    """Disjoint-support bump interpolant through a set of node jets.

    Each node contributes h_m(x) = g_m((x - X_m) / eps'), where g_m is the
    bump expansion with coefficients (eps')^|s| Y^s; since the plateau is
    flat at 0, evaluate at the node reproduces its jet exactly.
    """

    def __init__(
        self,
        params: HolderParams,
        grid: CellGrid,
        nodes: list[JetPoint],
        cells: list[MultiIndex],
    ):
        self.params = params
        self.eps = grid.eps
        self.c2 = grid.c2
        self.eps_prime = grid.eps_prime
        self.nodes = list(nodes)
        self.cells = list(cells)
        self._mis = params.index_set()
        self._pow = np.array([self.eps_prime ** sum(s) for s in self._mis])
        self._xs = np.reshape([p.x for p in self.nodes], (-1, params.k))
        raw = np.reshape([p.y for p in self.nodes], (-1, len(self._mis), params.dim_out))
        self._coefs = raw * self._pow[None, :, None]

    def jet_grid(self, xs: np.ndarray, t_list=None) -> np.ndarray:
        """Derivative values at many points: shape (npts, len(t_list), d-k).

        t_list defaults to the parameter index set; any multi-index order
        is accepted (one Leibniz table per node and coordinate; see the
        module docstring).
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if t_list is None:
            t_list = self._mis
        k, r0 = self.params.k, self.params.r0
        out = np.zeros((xs.shape[0], len(t_list), self.params.dim_out))
        max_ord = max(max(t) for t in t_list)
        pow_t = np.array([self.eps_prime ** sum(t) for t in t_list])
        # (i, s) exponents and (i, t) orders, for one gather per coordinate
        s_idx = np.array(self._mis).T
        t_idx = np.array(t_list).T
        for m in range(self._xs.shape[0]):
            rel = (xs - self._xs[m]) / self.eps_prime
            mask = np.max(np.abs(rel), axis=1) <= 0.5
            if not mask.any():
                continue
            u = rel[mask]
            terms = 1.0
            for i in range(k):
                zsq = plateau_sq_derivs(u[:, i], max_ord)
                table = np.stack([monomial_leibniz(u[:, i], e, zsq) for e in range(r0 + 1)])
                terms = terms * table[np.ix_(s_idx[i], t_idx[i])]  # (|S|, |T|, npts)
            jets = np.tensordot(self._coefs[m], terms, axes=([0], [0]))  # (dim_out, |T|, npts)
            out[mask] += jets.transpose(2, 1, 0) / pow_t[None, :, None]
        return out

    def jet_at(self, x: np.ndarray, t_list=None) -> np.ndarray:
        return self.jet_grid(np.asarray(x, dtype=float)[None, :], t_list)[0]

    def value_grid(self, xs: np.ndarray) -> np.ndarray:
        zero = tuple([0] * self.params.k)
        return self.jet_grid(xs, [zero])[:, 0, :]


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
    cells: list[MultiIndex] = []
    seen: set[MultiIndex] = set()
    jet_shape = (len(params.index_set()), params.dim_out)
    for p in nodes:
        if p.x.shape != (params.k,) or p.y.shape != jet_shape:
            raise DimensionMismatch(
                f"node has location shape {p.x.shape} and jet shape {p.y.shape}, "
                f"need ({params.k},) and {jet_shape}"
            )
        if np.any(p.x < 0.0) or np.any(p.x > 1.0):
            raise OutOfDomain(f"node location {p.x} outside the unit cube")
        cell = tuple(grid.cells(p.x).tolist())
        if any(c % 2 != 0 for c in cell):
            raise CellCollision(f"node cell {cell} is not on the even grid")
        if cell in seen:
            raise CellCollision(f"two nodes share cell {cell}")
        seen.add(cell)
        cells.append(cell)
        for row, (lo, hi) in enumerate(grid.bounds):
            if np.any(p.y[row] < lo) or np.any(p.y[row] > hi):
                raise BoxViolation(
                    f"jet row {row} = {p.y[row]} outside box [{lo:.4g}, {hi:.4g}]"
                )
    return HolderInterpolant(params, grid, nodes, cells)


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
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
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
        npts = xs.shape[0]
        frames = np.zeros((npts, self.params.d, self.params.k))
        frames[:, : self.params.k, :] = np.eye(self.params.k)[None, :, :]
        for i in range(self.params.k):
            frames[:, self.params.k :, i] = jac[:, i, :]
        return frames

    def tangent_frames(self, xs: np.ndarray) -> np.ndarray:
        """Orthonormalized tangent frames, shape (npts, d, k)."""
        raw = self.raw_tangents(xs)
        q, _ = np.linalg.qr(raw)
        return q


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
