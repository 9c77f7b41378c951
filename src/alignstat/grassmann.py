"""Metric and measure primitives on the space of k-dimensional subspaces.

A subspace of R^d is stored as a d-by-k matrix with orthonormal columns.
The frame is not unique; the subspace is the datum, and equality is always
decided through :func:`canonical_angle`, never through frame comparison.

The distance used throughout is the largest canonical angle

    ang(H, K) = max_{u in H} min_{v in K} acos(<u, v> / |u||v|),

which equals acos of the smallest singular value of F_H^T F_K and is a
metric on subspaces of fixed dimension.  Its sine is the largest singular
value of N_K^T F_H, with N_K an orthonormal basis of the complement of K.
The scalar :func:`canonical_angle` is the reference: it takes small
angles through arcsin of the sine and the rest through arccos of the
cosine.  Every batched angle a command takes goes through one blocked
kernel, :func:`min_canonical_angle`, which takes arctan2(sine, cosine),
accurate at both ends, with both extreme singular values in closed form
(plain square roots, no hypot) for vector and 2-by-2 blocks, the largest
also for 2-by-s and s-by-2 blocks, and one batched QR completion per
chunk of centers.  :func:`batch_canonical_angle` runs the same products
for the benchmark and the tests only.  The nearest-member search first
screens every pair by one GEMM of packed projectors: the Frobenius
distance ||sin Theta||_F^2 = k1 - <A A^T, B B^T>_F brackets the squared
sine of the largest angle within a factor k1, so only pairs inside the
bracket of each center's nearest can win.  Those pairs get their exact
sine from the complement rows N^T A, and each center's winner its exact
arctan2 angle; a center whose winning sine exceeds ``_COS_SWITCH``,
where the sine no longer separates angles finely, is ranked again over
its kept pairs by the full angle.

Every uniform plane comes from one Gaussian draw,
:func:`sample_uniform_bases`, an (m, d, k) stack of independent standard
normals, whose span is uniform on G(k, d) (Chikuse 2003).
:func:`sample_uniform_frames` reads it as orthonormal frames (one frame
gives :func:`sample_uniform_subspace`, one d-by-d frame
:func:`sample_orthogonal_matrix`), :func:`sample_uniform_charts` as graph
charts, and :func:`sample_uniform_angles` as angles to one plane (the
charts of the draw rotated onto the plane, read by :func:`chart_angles`).
One kernel, :func:`orthonormal_frames`, orthonormalizes every frame stack.

Graph charts go through one kernel too: :func:`chart_slopes` takes a
stack of bases to its chart-regular mask (:func:`chart_regular`) and the
transposed charts B A^{-1}, in closed form for k <= 2.  The chart does
not depend on the basis, so the oriented reduction reads it from
orthonormal frames, while the trial engine, the chart-cube measure and
the angle reading take it straight from the raw Gaussian draw; the
trial engine keeps the raw bases of many trials and reads their charts
in one call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, RankDeficient

# Orthonormality of stored frames, entrywise on frame^T frame - I.
ORTHO_TOL = 1e-10
# Smallest singular value accepted before declaring rank deficiency.
RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Subspace:
    """A point of G(k, d), represented by an orthonormal d-by-k frame."""

    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] < frame.shape[1] or frame.shape[1] < 1:
            raise DimensionMismatch(f"expected a tall d-by-k frame, got shape {frame.shape}")
        gram = frame.T @ frame
        if np.max(np.abs(gram - np.eye(frame.shape[1]))) > ORTHO_TOL:
            raise RankDeficient("frame columns are not orthonormal to within 1e-10")
        frame = frame.copy()
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def dim_ambient(self) -> int:
        return self.frame.shape[0]

    @property
    def dim_sub(self) -> int:
        return self.frame.shape[1]

    def __repr__(self) -> str:
        return f"Subspace(d={self.dim_ambient}, k={self.dim_sub})"


def orthonormalize(raw: np.ndarray) -> Subspace:
    """Return the subspace spanned by the columns of ``raw``.

    Raises RankDeficient when the smallest singular value is at or below
    1e-12, i.e. the columns do not span a k-dimensional space.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] < raw.shape[1]:
        raise DimensionMismatch(f"expected a tall matrix, got shape {raw.shape}")
    u, s, _ = np.linalg.svd(raw, full_matrices=False)
    if s[-1] <= RANK_TOL:
        raise RankDeficient(f"smallest singular value {s[-1]:.3e} <= {RANK_TOL:.0e}")
    return Subspace(u)


# Above this cosine the acos route loses precision (error ~ ulp / sin);
# switch to asin of the projection residual, which is exact near zero.
# Likewise above this sine the sine resolves angles more coarsely than
# arctan2 does, so the nearest-member screen ranks those centers again.
_COS_SWITCH = 0.7


def canonical_angle(h: Subspace, kk: Subspace) -> float:
    """Largest canonical angle between ``h`` and ``kk``, in [0, pi/2].

    Requires dim(h) <= dim(kk); returns ~1e-16 (not ~1e-8) for equal
    subspaces because small angles are computed through the sine of the
    projection residual rather than acos of a cosine pinned at 1.
    Cosines/sines are clamped into [0, 1] so the endpoints never NaN.
    """
    if h.dim_ambient != kk.dim_ambient:
        raise DimensionMismatch(
            f"ambient dimensions differ: {h.dim_ambient} vs {kk.dim_ambient}"
        )
    if h.dim_sub > kk.dim_sub:
        raise DimensionMismatch(
            f"first argument must not have larger dimension ({h.dim_sub} > {kk.dim_sub})"
        )
    m = h.frame.T @ kk.frame
    smin = np.linalg.svd(m, compute_uv=False)[-1]
    if smin <= _COS_SWITCH:
        return float(np.arccos(np.clip(smin, 0.0, 1.0)))
    resid = h.frame - kk.frame @ m.T
    smax = np.linalg.svd(resid, compute_uv=False)[0]
    return float(np.arcsin(np.clip(smax, 0.0, 1.0)))


def sample_uniform_subspace(rng: np.random.Generator, k: int, d: int) -> Subspace:
    """One draw from the rotation-invariant distribution on G(k, d): the
    single frame of :func:`sample_uniform_frames`."""
    return Subspace(sample_uniform_frames(rng, 1, k, d)[0])


def sample_uniform_bases(rng: np.random.Generator, m: int, k: int, d: int) -> np.ndarray:
    """Bases of ``m`` uniform k-planes, shape (m, d, k): the package's one
    Gaussian draw, every entry an independent standard normal.

    The span of a Gaussian d-by-k matrix is uniform on G(k, d) (Chikuse
    2003); the other samplers read the draw as frames, charts or angles.
    """
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}, d={d}")
    return rng.standard_normal((m, d, k))


def orthonormal_frames(raw: np.ndarray) -> np.ndarray:
    """Q factors, R's diagonal positive, of a full-rank stack (m, d, k).

    Gram-Schmidt over the k columns, each projected off the earlier ones
    twice ("twice is enough"), vectorized over the stack; rank is not
    tested (:func:`orthonormalize` tests it on user input).
    """
    # one contiguous (d, m) plane per column, a copy
    cols = np.array(raw.transpose(2, 1, 0), order="C")
    for j in range(cols.shape[0]):
        v = cols[j]
        for _ in range(2):
            for i in range(j):
                v -= cols[i] * np.einsum("dt,dt->t", cols[i], v)
        v /= np.sqrt(np.einsum("dt,dt->t", v, v))
    return np.ascontiguousarray(cols.transpose(2, 1, 0))


def sample_uniform_frames(rng: np.random.Generator, trials: int, k: int, d: int) -> np.ndarray:
    """Batch of ``trials`` uniform frames, shape (trials, d, k).

    The frame reading of the package's one Gaussian draw; used wherever
    the frame itself is needed (covering probes, the oriented generators,
    and, as single draws, :func:`sample_uniform_subspace` and
    :func:`sample_orthogonal_matrix`).  The frame is the Q factor of a
    Gaussian d-by-k matrix with R's diagonal positive, the sign convention
    that makes the distribution exactly invariant.
    """
    return orthonormal_frames(sample_uniform_bases(rng, trials, k, d))


def sample_uniform_charts(
    rng: np.random.Generator, m: int, k: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Graph charts of ``m`` uniform k-planes: ``chart_slopes`` of the draw.

    Makes exactly the draw :func:`sample_uniform_frames` makes, so the
    stream advances the same, and skips the orthonormalization: the span
    of a Gaussian d-by-k matrix is uniform on G(k, d), and the chart
    B A^{-1} of a plane does not depend on the basis it is read from
    (Chikuse 2003).  The charts equal those of the frames up to rounding.
    """
    return chart_slopes(sample_uniform_bases(rng, m, k, d))


def sample_uniform_angles(rng: np.random.Generator, m: int, h: Subspace) -> np.ndarray:
    """Largest canonical angle from each of ``m`` uniform k-planes to ``h``.

    Makes exactly the draw G of :func:`sample_uniform_frames`, builds no
    frame, and reads the chart Y = (N^T G)(B^T G)^{-1}, [B, N] the
    completed basis of ``h``: the draw rotated so that ``h`` is the
    coordinate plane, whose angles :func:`chart_angles` takes.
    """
    d, k = h.frame.shape
    qt = _complete_bases(h.frame[None])[0].T
    # the contiguous (d, k, m) layout that chart_slopes reads for k = 2
    g = sample_uniform_bases(rng, m, k, d).transpose(1, 2, 0).reshape(d, k * m)
    return chart_angles(*chart_slopes((qt @ g).reshape(d, k, m).transpose(2, 0, 1)))


def chart_angles(yt: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Largest canonical angle from each plane of a ``chart_slopes`` result
    to the coordinate plane span(e_1, ..., e_k).

    tan theta_i = sigma_i(Y) for the chart Y (Bjorck & Golub 1973), so
    theta = arctan sigma_max(Y); a chart-singular plane (``ok`` False)
    holds a direction orthogonal to the coordinate plane and gets pi/2.
    """
    theta = np.full(ok.shape, np.pi / 2)
    theta[ok] = np.arctan(_extreme_singular_value(yt.transpose(1, 2, 0), largest=True))
    return theta


# (center, frame) pairs whose d-by-k1 products one block of the angle
# kernel holds at a time: large enough to amortize the per-block numpy
# calls, small enough that the temporaries stay around a megabyte.  A
# block of the nearest-member screen holds as many floats, _PAIR_BUDGET
# d k1, as projector inner products.
_PAIR_BUDGET = 2**13

# Absolute slack of the nearest-member screen on ||sin Theta||_F^2: far
# above the rounding of the sines and of G, a dot product of d(d+1)/2
# packed projector entries of size at most 1, at any d this package uses.
_SCREEN_MARGIN = 1e-12


def _check_pair_shapes(frames: np.ndarray, centers: np.ndarray, later_only: bool = False) -> None:
    if frames.shape[1] != centers.shape[1]:
        raise DimensionMismatch("ambient dimensions differ")
    if frames.shape[2] > centers.shape[2]:
        raise DimensionMismatch("batch frames must not have larger dimension")
    if later_only and frames.shape != centers.shape:
        raise DimensionMismatch(
            f"later_only measures one stack against itself, got shapes "
            f"{frames.shape} and {centers.shape}"
        )


def _complete_bases(centers: np.ndarray) -> np.ndarray:
    """Orthonormal bases Q_j = [B_j, N_j] of R^d, shape (c, d, d).

    The first k columns are the centers themselves, so the top block of
    Q_j^T A is exactly B_j^T A; N_j spans the orthogonal complement.
    """
    q = np.linalg.qr(centers, mode="complete")[0]
    q[:, :, : centers.shape[2]] = centers
    return q


def _extreme_singular_value(block: np.ndarray, largest: bool) -> np.ndarray:
    """Largest or smallest singular value of each matrix of a stack.

    ``block`` has shape (r, s, ...), the matrix axes first, so that each
    entry block[a, b] is one contiguous array over the stack.  Closed
    forms for vectors and 2-by-2 blocks, and for the largest value of
    2-by-s and s-by-2 blocks; a batched SVD otherwise.  An empty block
    gives 0.  The smallest is taken over min(r, s) values.

    For [[a, b], [c, e]] the largest value is
    (sqrt((a+e)^2 + (b-c)^2) + sqrt((a-e)^2 + (b+c)^2)) / 2, taken with
    plain squares: entries of orthonormal frames or their products are
    at most 1, and of charts of Gaussian draws at most |B| / RANK_TOL, so
    nothing overflows.  The smallest is |det| / largest, accurate when tiny.
    For a 2-by-s or s-by-2 block the largest value squared is the larger
    eigenvalue of its 2-by-2 Gram [[p, g], [g, q]],
    (p + q) / 2 + sqrt(((p - q) / 2)^2 + g^2), a sum of nonnegative terms
    and so accurate to rounding; the smallest stays with the SVD, since
    the Gram's determinant would lose half the digits of a tiny value.
    """
    r, s = block.shape[:2]
    if r == 0 or s == 0:
        return np.zeros(block.shape[2:])
    if r == 1 or s == 1:
        return np.sqrt(np.sum(block * block, axis=(0, 1)))
    if largest and 2 in (r, s) and r != s:
        # the two long rows (r = 2) or columns (s = 2) of each matrix
        u, v = (block[0], block[1]) if r == 2 else (block[:, 0], block[:, 1])
        p = np.sum(u * u, axis=0)
        q = np.sum(v * v, axis=0)
        g = np.sum(u * v, axis=0)
        half = 0.5 * (p - q)
        return np.sqrt(0.5 * (p + q) + np.sqrt(half * half + g * g))
    if r == 2 and s == 2:
        a, b, c, e = block[0, 0], block[0, 1], block[1, 0], block[1, 1]
        u = a + e
        v = b - c
        smax = np.sqrt(np.add(np.square(u, out=u), np.square(v, out=v), out=u))
        u = a - e
        v = b + c
        smax += np.sqrt(np.add(np.square(u, out=u), np.square(v, out=v), out=u))
        smax *= 0.5
        if largest:
            return smax
        # a zero block gives 0
        det = np.abs(a * e - b * c)
        return np.divide(det, smax, out=np.zeros_like(det), where=smax > 0.0)
    svals = np.linalg.svd(np.moveaxis(block, (0, 1), (-2, -1)), compute_uv=False)
    return svals[..., 0] if largest else svals[..., -1]


def _pair_products(qt: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Products P = Q_j^T A_i of every (center, frame) pair, shape (r, k1, c, t).

    ``qt`` holds c transposed bases, shape (c, r, d), ``frames`` shape
    (t, d, k1); one matmul covers the whole block, and the matrix axes
    come first, as :func:`_extreme_singular_value` reads them.
    """
    c, r, d = qt.shape
    t, _, k1 = frames.shape
    flat = frames.transpose(1, 2, 0).reshape(d, k1 * t)
    return (qt @ flat).reshape(c, r, k1, t).transpose(1, 2, 0, 3)


def _product_angle(prod: np.ndarray, k2: int) -> np.ndarray:
    """Largest canonical angle from products P = Q^T A, shape (d, k1, ...).

    cos of the angle is the smallest singular value of the top k2-by-k1
    block and sin the largest of the bottom (d-k2)-by-k1 block; the angle
    is arctan2(sin, cos), which is accurate at both ends: sin carries
    near-coincident pairs and cos nearly orthogonal ones, and no clipping
    is needed.
    """
    cos = _extreme_singular_value(prod[:k2], largest=False)
    sin = _extreme_singular_value(prod[k2:], largest=True)
    return np.arctan2(sin, cos, out=sin)


def batch_canonical_angle(frames: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Largest canonical angle from each frame in a batch to one frame.

    ``frames`` has shape (t, d, k1), ``center`` shape (d, k2) with
    k1 <= k2.  Returns shape (t,).  The center is completed to an
    orthonormal basis [B, N] of R^d, cos comes from B^T A and sin from
    N^T A (Bjorck & Golub 1973), so small angles keep full accuracy as in
    :func:`canonical_angle`.  Frames are processed ``_PAIR_BUDGET`` at a
    time, which bounds the temporaries.  No command calls this: the
    benchmark traces it, as ``tests/test_trace_targets.py`` requires, and
    the tests check the ball estimator against it as the frame-route
    reference.  It goes with the benchmark's move off it (ROADMAP item 5).
    """
    centers = center[None]
    _check_pair_shapes(frames, centers)
    qt = _complete_bases(centers).transpose(0, 2, 1)
    out = np.empty(frames.shape[0])
    for start in range(0, frames.shape[0], _PAIR_BUDGET):
        prod = _pair_products(qt, frames[start : start + _PAIR_BUDGET])
        out[start : start + _PAIR_BUDGET] = _product_angle(prod, center.shape[1])[0]
    return out


def _packed_projectors(frames: np.ndarray) -> np.ndarray:
    """Projectors A A^T of a frame stack (t, d, k), packed: shape (d(d+1)/2, t).

    Column i holds the upper triangle of A_i A_i^T, its off-diagonal
    entries scaled by sqrt(2), so the dot product of two columns is the
    Frobenius inner product <A A^T, B B^T>_F = ||B^T A||_F^2.
    """
    d, k = frames.shape[1:]
    iu, ju = np.triu_indices(d)
    # entry (a, j) of every frame as one contiguous run over the stack
    entries = np.ascontiguousarray(frames.transpose(1, 2, 0))
    packed = entries[iu, 0] * entries[ju, 0]
    for j in range(1, k):
        packed += entries[iu, j] * entries[ju, j]
    packed *= np.where(iu == ju, 1.0, np.sqrt(2.0))[:, None]
    return packed


def _bracket_screen(
    frames: np.ndarray, centers: np.ndarray, first: int, later_only: bool
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches of the (center, frame) pairs that the Frobenius bracket keeps.

    ``centers`` are rows ``first, first + 1, ...`` of their stack, which
    ``later_only`` compares with the frame indices.  With
    G = <A A^T, B B^T>_F from one GEMM of packed projectors per block and
    rowmax each center's largest G so far, a pair is kept when
    G >= k1 - k1 (k1 - rowmax) - _SCREEN_MARGIN.  Yields the kept pairs'
    positions in ``centers`` and their frame indices, in no set order,
    whenever ``_PAIR_BUDGET`` of them are held, and once at the end.
    """
    t, d, k1 = frames.shape
    c = len(centers)
    block = _PAIR_BUDGET * d * k1
    # frames packed at a time: the k1 products of d(d+1)/2 rows fill a block
    frame_step = max(1, block // (k1 * d * (d + 1) // 2))
    center_step = max(1, block // max(1, min(t, frame_step)))

    def floor(rowmax):
        return k1 - k1 * (k1 - rowmax) - _SCREEN_MARGIN

    def batch():
        rows, cols, gram = (np.concatenate(part) for part in zip(*kept))
        # the running row max only grew since these pairs were kept
        again = gram >= floor(rowmax[rows])
        return rows[again], cols[again]

    packed = _packed_projectors(centers)
    rowmax = np.full(c, -np.inf)
    kept, held = [], 0
    for f0 in range(first + 1 if later_only else 0, t, frame_step):
        f1 = min(t, f0 + frame_step)
        frame_packed = _packed_projectors(frames[f0:f1])
        for g0 in range(0, c, center_step):
            g1 = min(c, g0 + center_step)
            # with later_only, center first + g sees frames from first + g + 1 on
            lo = max(f0, first + g0 + 1) if later_only else f0
            if lo >= f1:
                break
            gram = packed[:, g0:g1].T @ frame_packed[:, lo - f0 :]
            if later_only:
                # frames at or below the diagonal, all among the first g1 - g0 columns
                width = min(g1 - g0, f1 - lo)
                below = np.tri(g1 - g0, width, first + g0 - lo, dtype=bool)
                np.copyto(gram[:, :width], -np.inf, where=below)
            np.maximum(rowmax[g0:g1], gram.max(axis=1), out=rowmax[g0:g1])
            keep = gram >= floor(rowmax[g0:g1])[:, None]
            if later_only:
                # a row with no frame left has rowmax -inf and keeps no pair
                np.copyto(keep[:, :width], False, where=below)
            flat = np.flatnonzero(keep)
            i, j = np.divmod(flat, f1 - lo)
            kept.append((i + g0, j + lo, gram.ravel()[flat]))
            held += len(flat)
            if held >= _PAIR_BUDGET:
                yield batch()
                kept, held = [], 0
    if kept:
        yield batch()


def _pair_values(
    qt: np.ndarray,
    frames: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    value: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``value`` of the product Q_j^T A_i of each listed pair, shape (n,).

    Pair n joins basis ``qt[rows[n]]`` and frame ``frames[cols[n]]``; the
    products reach ``value`` with the matrix axes first, ``_PAIR_BUDGET``
    pairs at a time.
    """
    out = np.empty(len(rows))
    for s0 in range(0, len(rows), _PAIR_BUDGET):
        part = slice(s0, s0 + _PAIR_BUDGET)
        out[part] = value((qt[rows[part]] @ frames[cols[part]]).transpose(1, 2, 0))
    return out


# the column of a row that no pair has reached yet
_NO_COLUMN = np.iinfo(np.int64).max


def _fold_least(
    least: np.ndarray, col: np.ndarray, rows: np.ndarray, score: np.ndarray, cols: np.ndarray
) -> None:
    """Fold scored pairs into each row's least score and its lowest column
    among ties, in place; ``least`` starts at inf, ``col`` at _NO_COLUMN."""
    before = least[rows]
    np.minimum.at(least, rows, score)
    now = least[rows]
    col[rows[now < before]] = _NO_COLUMN
    hit = score == now
    np.minimum.at(col, rows[hit], cols[hit])


def min_canonical_angle(
    frames: np.ndarray, centers: np.ndarray, later_only: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest frame to each center: minimum largest canonical angle and argmin.

    ``frames`` has shape (t, d, k1), ``centers`` shape (c, d, k2) with
    k1 <= k2; returns ``(angles, index)``, both of shape (c,).  Ties keep
    the lowest frame index.  With ``later_only`` (a family measured
    against itself, so ``frames`` and ``centers`` must have one shape)
    center j only looks at frames i > j; a center with no such frame gets
    angle inf and index -1.

    Two stages find the nearest frame.  The screen bounds every pair at
    once: with G = <A A^T, B B^T>_F = ||B^T A||_F^2, the sines of the k1
    canonical angles have squares summing to F = k1 - G (Conway, Hardin &
    Sloane 1996), so F / k1 <= sin^2 theta_max <= F.  One GEMM of
    projectors packed to d(d+1)/2 floats gives G for a block of pairs,
    blocks holding ``_PAIR_BUDGET`` d k1 floats.  Let F_min be a center's
    least F.  Its frame has sin^2 <= F_min, so a frame with
    F > k1 F_min has sin^2 >= F / k1 > F_min and is not the nearest.
    The screen keeps the pairs with F <= k1 F_min + ``_SCREEN_MARGIN``;
    the margin makes every dropped pair's sine exceed the row's least by
    more than 5e-13 / k1, far above the rounding of G and of the sines,
    so the kept set holds the argmin of the computed sine with all its
    ties.  F_min is a running minimum over frame blocks, which only
    widens the kept set.

    The centers are completed to orthonormal bases [B, N] by one batched
    QR per chunk of at most ``_PAIR_BUDGET`` centers.  The kept pairs get
    their exact sine, the largest singular value of N^T A, a batch of
    about ``_PAIR_BUDGET`` pairs at a time, so memory stays flat even
    where many frames tie; each center keeps the least sine, the lowest
    frame index among ties, and then its exact arctan2 angle from its own
    product.  Above ``_COS_SWITCH`` the sine separates angles less finely
    than arctan2 does (sin(pi/2 - delta) rounds to 1 for delta below
    about 1e-8), so a center whose least sine exceeds it is ranked by the
    full angle over its kept pairs: the angle increases with the true
    sine, so the same margin keeps its argmin too.  A batch's pairs get
    the full angle while their center's least sine so far exceeds
    ``_COS_SWITCH``; that least only falls, so a center that ends above
    it has had every kept pair ranked by the angle.
    """
    _check_pair_shapes(frames, centers, later_only)
    c, k2 = centers.shape[0], centers.shape[2]
    best = np.full(c, np.inf)
    arg = np.full(c, -1, dtype=np.int64)

    def sine(prod):
        return _extreme_singular_value(prod, largest=True)

    def angle(prod):
        return _product_angle(prod, k2)

    for c0 in range(0, c, _PAIR_BUDGET):
        chunk = centers[c0 : c0 + _PAIR_BUDGET]
        qt = _complete_bases(chunk).transpose(0, 2, 1)
        least_sin, least_angle = np.full(len(chunk), np.inf), np.full(len(chunk), np.inf)
        by_sin, by_angle = np.full(len(chunk), _NO_COLUMN), np.full(len(chunk), _NO_COLUMN)
        for rows, cols in _bracket_screen(frames, chunk, c0, later_only):
            sin = _pair_values(qt[:, k2:], frames, rows, cols, sine)
            _fold_least(least_sin, by_sin, rows, sin, cols)
            coarse = np.flatnonzero(least_sin[rows] > _COS_SWITCH)
            if len(coarse):
                rows, cols = rows[coarse], cols[coarse]
                full = _pair_values(qt, frames, rows, cols, angle)
                _fold_least(least_angle, by_angle, rows, full, cols)
        found = np.flatnonzero(np.isfinite(least_sin))
        col = np.where(least_sin > _COS_SWITCH, by_angle, by_sin)[found]
        best[c0 + found] = _pair_values(qt, frames, found, col, angle)
        arg[c0 + found] = col
    return best, arg


def sample_orthogonal_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d-by-d orthogonal matrix: the k = d case of
    :func:`sample_uniform_frames`."""
    return sample_uniform_frames(rng, 1, d, d)[0]


def chart_regular(a: np.ndarray) -> np.ndarray:
    """Whether each k-by-k block of a stack (m, k, k) admits a graph chart.

    True where the smallest singular value exceeds RANK_TOL: |a| for
    k = 1, the closed form |det| / sigma_max for k = 2, a batched SVD
    otherwise.  The one chart-singularity criterion of the package.  For
    the top block of an orthonormal frame RANK_TOL is a fixed tolerance;
    for a block of a non-orthonormal basis (the raw Gaussian draws of
    :func:`sample_uniform_charts`) the singular value scales with the
    basis, and the test only screens out a null event.
    """
    if a.shape[1] == 1:
        return np.abs(a[:, 0, 0]) > RANK_TOL
    return _extreme_singular_value(a.transpose(1, 2, 0), largest=False) > RANK_TOL


def chart_slopes(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transposed graph charts of a frame stack: ``(yt, ok)``.

    ``frames`` has shape (m, d, k), any basis of each plane; A is the top
    k-by-k and B the bottom (d-k)-by-k block of each frame.
    ``ok = chart_regular(A)``, and for the frames where it holds
    ``yt = A^{-T} B^T``, shape (sum(ok), k, d-k), the transpose of the
    chart y = B A^{-1}: row j of yt[i] is the slope vector of axis j.
    Closed forms b / a for k = 1 and the 2-by-2 adjugate over the
    determinant for k = 2, a batched solve otherwise.  The one chart
    kernel of the package.
    """
    k = frames.shape[2]
    if k == 2:
        # one contiguous (d, 2, m) plane stack, so every entry a[:, i, j]
        # and every column b[:, :, j] is a contiguous run over the frames
        planes = np.ascontiguousarray(frames.transpose(1, 2, 0))
        ok = chart_regular(planes[:2].transpose(2, 0, 1))
        if not ok.all():
            planes = planes[:, :, ok]
        (a00, a01), (a10, a11) = planes[0], planes[1]
        b0, b1 = planes[2:, 0], planes[2:, 1]
        det = a00 * a11 - a01 * a10
        # yt[:, 0] = (a11 b0 - a10 b1) / det, yt[:, 1] = (a00 b1 - a01 b0) / det,
        # evaluated in place with one temporary
        yt = np.empty((2,) + b0.shape)
        tmp = np.empty_like(b0)
        np.multiply(a11, b0, out=yt[0])
        yt[0] -= np.multiply(a10, b1, out=tmp)
        np.multiply(a00, b1, out=yt[1])
        yt[1] -= np.multiply(a01, b0, out=tmp)
        yt /= det
        return yt.transpose(2, 0, 1), ok
    a = frames[:, :k, :]
    b = frames[:, k:, :]
    ok = chart_regular(a)
    if not ok.all():
        a, b = a[ok], b[ok]
    if k == 1:
        return (b / a).transpose(0, 2, 1), ok
    return np.linalg.solve(a.transpose(0, 2, 1), b.transpose(0, 2, 1)), ok


# Relative margin within which two pivot minors count as tied; far above
# the rounding of a k-by-k determinant of an orthonormal frame's rows.
_PIVOT_TIE_RTOL = 1e-13


def span_normal_form(h: Subspace) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Maximal-volume graph normal form of a subspace.

    Returns ``(sigma, xi, bound)`` such that h is spanned by the vectors

        e_{sigma[i]} + sum_j xi[j, i] * e_{sigma[k + j]},   i = 0..k-1,

    with ``bound = max |xi| <= 1``.  The pivot axes sigma[:k] are the k
    rows of the frame F whose k-by-k minor A has the largest |det|, found
    from all binom(d, k) minors in one batched determinant; ties (within a
    relative 1e-13) go to the lexicographically lowest subset, and both
    the pivots and the remaining axes sigma[k:] are increasing.  With B
    the remaining rows, xi = B A^{-1}, and by Cramer's rule each entry is
    a ratio of two k-by-k minors of F, the denominator the largest, so
    |xi| <= 1 (the maximal-volume lemma).  Always succeeds for a valid
    subspace.
    """
    frame = h.frame
    d, k = frame.shape
    subsets = list(combinations(range(d), k))
    volumes = np.abs(np.linalg.det(frame[np.array(subsets)]))
    pivots = subsets[int(np.argmax(volumes >= volumes.max() * (1.0 - _PIVOT_TIE_RTOL)))]
    rest = tuple(i for i in range(d) if i not in pivots)
    xi = np.linalg.solve(frame[list(pivots)].T, frame[list(rest)].T).T
    bound = float(np.max(np.abs(xi))) if xi.size else 0.0
    return pivots + rest, xi, bound


def subspace_from_normal_form(sigma: tuple[int, ...], xi: np.ndarray, d: int) -> Subspace:
    """Rebuild the subspace described by a normal form (round-trip utility)."""
    xi = np.asarray(xi, dtype=float)
    k = d - xi.shape[0]
    mat = np.zeros((d, k))
    mat[list(sigma[:k]), range(k)] = 1.0
    mat[list(sigma[k:])] = xi
    return orthonormalize(mat)

