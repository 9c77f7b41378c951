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
(plain square roots, no hypot) for vector and 2-by-2 blocks, and one
batched QR completion per chunk of centers.  :func:`batch_canonical_angle`
runs the same blocks for the benchmark and the tests only.  The
nearest-member search ranks pairs by the sine alone, which needs only
the complement rows N^T A, then takes the exact arctan2 angle of each
center's winning pair; a center whose winning sine exceeds
``_COS_SWITCH``, where the sine no longer separates angles finely, is
ranked again by the full angle.

Every uniform plane comes from one Gaussian draw, an (m, d, k) stack of
independent standard normals, whose span is uniform on G(k, d)
(Chikuse 2003).  :func:`sample_uniform_frames` reads it as orthonormal
frames (one frame gives :func:`sample_uniform_subspace`, one d-by-d frame
:func:`sample_orthogonal_matrix`), :func:`sample_uniform_charts` as graph
charts, and :func:`sample_uniform_angles` as angles to one plane.

Graph charts go through one kernel too: :func:`chart_slopes` takes a
stack of bases to its chart-regular mask (:func:`chart_regular`) and the
transposed charts B A^{-1}, in closed form for k <= 2.  The chart does
not depend on the basis, so the oriented reduction reads it from
orthonormal frames, while the trial engine, the chart-cube measure and
the angle reading take it straight from the raw Gaussian draw.
"""

from __future__ import annotations

from collections.abc import Callable
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


def sample_uniform_frames(rng: np.random.Generator, trials: int, k: int, d: int) -> np.ndarray:
    """Batch of ``trials`` uniform frames, shape (trials, d, k).

    The frame reading of the package's one Gaussian draw; used wherever
    the frame itself is needed (covering probes, the oriented generators,
    and, as single draws, :func:`sample_uniform_subspace` and
    :func:`sample_orthogonal_matrix`).  The frame is the Q factor of a
    Gaussian d-by-k matrix with R's diagonal positive, the sign convention
    that makes the distribution exactly invariant.  For k >= 2 it comes
    from Gram-Schmidt over the k columns, each projected off the earlier
    ones twice ("twice is enough"), vectorized over the whole batch.
    """
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}, d={d}")
    g = rng.standard_normal((trials, d, k))
    if k == 1:
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        return g / norms
    # one contiguous (d, trials) plane per column
    cols = np.ascontiguousarray(g.transpose(2, 1, 0))
    for j in range(k):
        v = cols[j]
        for _ in range(2):
            for i in range(j):
                v -= cols[i] * np.einsum("dt,dt->t", cols[i], v)
        v /= np.sqrt(np.einsum("dt,dt->t", v, v))
    return np.ascontiguousarray(cols.transpose(2, 1, 0))


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
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}, d={d}")
    return chart_slopes(rng.standard_normal((m, d, k)))


def sample_uniform_angles(rng: np.random.Generator, m: int, h: Subspace) -> np.ndarray:
    """Largest canonical angle from each of ``m`` uniform k-planes to ``h``.

    Makes exactly the draw G of :func:`sample_uniform_frames`, builds no
    frame, and reads the chart Y = (N^T G)(B^T G)^{-1}, [B, N] the
    completed basis of ``h``: tan theta_i = sigma_i(Y) (Bjorck & Golub
    1973), so theta = arctan sigma_max(Y).  A chart-singular draw (a null
    event) holds a direction orthogonal to ``h`` and gets pi/2.
    """
    d, k = h.frame.shape
    qt = _complete_bases(h.frame[None])[0].T
    # the contiguous (d, k, m) layout that chart_slopes reads for k = 2
    g = rng.standard_normal((m, d, k)).transpose(1, 2, 0).reshape(d, k * m)
    yt, ok = chart_slopes((qt @ g).reshape(d, k, m).transpose(2, 0, 1))
    theta = np.full(m, np.pi / 2)
    theta[ok] = np.arctan(_extreme_singular_value(yt.transpose(1, 2, 0), largest=True))
    return theta


# (center, frame) pairs whose d-by-k1 products one block of the angle
# kernel holds at a time: large enough to amortize the per-block numpy
# calls, small enough that the temporaries stay around a megabyte.
_PAIR_BUDGET = 2**13


def _check_pair_shapes(frames: np.ndarray, centers: np.ndarray) -> None:
    if frames.shape[1] != centers.shape[1]:
        raise DimensionMismatch("ambient dimensions differ")
    if frames.shape[2] > centers.shape[2]:
        raise DimensionMismatch("batch frames must not have larger dimension")


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
    forms for vectors and 2-by-2 blocks, a batched SVD otherwise; an
    empty block gives 0.  The smallest is taken over min(r, s) values.

    For [[a, b], [c, e]] the largest value is
    (sqrt((a+e)^2 + (b-c)^2) + sqrt((a-e)^2 + (b+c)^2)) / 2, taken with
    plain squares: entries of orthonormal frames or their products are
    at most 1, and of charts of Gaussian draws at most |B| / RANK_TOL, so
    nothing overflows.  The smallest is |det| / largest, accurate when tiny.
    """
    r, s = block.shape[:2]
    if r == 0 or s == 0:
        return np.zeros(block.shape[2:])
    if r == 1 or s == 1:
        return np.sqrt(np.sum(block * block, axis=(0, 1)))
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


def _angle_block(qt: np.ndarray, k2: int, frames: np.ndarray) -> np.ndarray:
    """Largest canonical angle of every (center, frame) pair, shape (c, t).

    ``qt`` holds the transposed complete bases of c centers of dimension
    k2, shape (c, d, d), ``frames`` shape (t, d, k1).
    """
    return _product_angle(_pair_products(qt, frames), k2)


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
        stop = start + _PAIR_BUDGET
        out[start:stop] = _angle_block(qt, center.shape[1], frames[start:stop])[0]
    return out


def _blocked_argmin(
    score: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bases: np.ndarray,
    frames: np.ndarray,
    rows: np.ndarray,
    later_only: bool,
    center_step: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Least score over the frames for each center, and its lowest index.

    ``score(bases[g0:g1], frames[f0:f1])`` gives the (g, f) scores of one
    block of at most ``_PAIR_BUDGET`` pairs: ``center_step`` centers
    against ``_PAIR_BUDGET // center_step`` frames.  ``rows`` (increasing)
    are the centers' indices in their stack, which ``later_only`` compares
    with the frame indices; a center with no frame left gets inf and -1.
    """
    t = frames.shape[0]
    frame_step = _PAIR_BUDGET // center_step
    best = np.full(len(rows), np.inf)
    arg = np.full(len(rows), -1, dtype=np.int64)
    for g0 in range(0, len(rows), center_step):
        g1 = min(len(rows), g0 + center_step)
        group = rows[g0:g1]
        for f0 in range(group[0] + 1 if later_only else 0, t, frame_step):
            f1 = min(t, f0 + frame_step)
            scores = score(bases[g0:g1], frames[f0:f1])
            if later_only:
                scores[np.arange(f0, f1)[None, :] <= group[:, None]] = np.inf
            pos = np.argmin(scores, axis=1)
            val = scores[np.arange(g1 - g0), pos]
            better = val < best[g0:g1]
            best[g0:g1][better] = val[better]
            arg[g0:g1][better] = pos[better] + f0
    return best, arg


def min_canonical_angle(
    frames: np.ndarray, centers: np.ndarray, later_only: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest frame to each center: minimum largest canonical angle and argmin.

    ``frames`` has shape (t, d, k1), ``centers`` shape (c, d, k2) with
    k1 <= k2; returns ``(angles, index)``, both of shape (c,).  Ties keep
    the lowest frame index.  With ``later_only`` (a family measured
    against itself, frames and centers the same stack) center j only
    looks at frames i > j; a center with no such frame gets angle inf and
    index -1.

    The centers are completed to orthonormal bases [B, N] by one batched
    QR per chunk of at most ``_PAIR_BUDGET`` centers, whose bases take at
    most ``_PAIR_BUDGET`` d^2 floats.  A screen ranks the pairs by the
    sine alone, the largest singular value of N^T A, in blocks of at most
    ``_PAIR_BUDGET`` pairs: on [0, pi/2] the angle increases with its
    sine, so this picks the nearest frame up to ties within rounding, at
    the cost of the d-k2 complement rows only.  Each center's winning pair
    then gets its exact arctan2 angle from its own product.  Above
    ``_COS_SWITCH`` the sine separates angles less finely than arctan2
    does (sin(pi/2 - delta) rounds to 1 for delta below about 1e-8), so a
    center whose winning sine exceeds it is ranked again by the full angle.
    """
    _check_pair_shapes(frames, centers)
    t, c, k2 = frames.shape[0], centers.shape[0], centers.shape[2]
    best = np.full(c, np.inf)
    arg = np.full(c, -1, dtype=np.int64)
    center_step = _PAIR_BUDGET // max(1, min(t, _PAIR_BUDGET))
    chunk = _PAIR_BUDGET // center_step * center_step
    for c0 in range(0, c, chunk):
        rows = np.arange(c0, min(c, c0 + chunk))
        qt = _complete_bases(centers[c0 : c0 + chunk]).transpose(0, 2, 1)
        # the screen: sin = sigma_max(N^T A) from the complement rows alone
        sin, idx = _blocked_argmin(
            lambda n, f: _extreme_singular_value(_pair_products(n, f), largest=True),
            np.ascontiguousarray(qt[:, k2:]), frames, rows, later_only, center_step,
        )
        found = idx >= 0
        prod = qt[found] @ frames[idx[found]]
        best[rows[found]] = _product_angle(prod.transpose(1, 2, 0), k2)
        arg[rows] = idx
        coarse = found & (sin > _COS_SWITCH)
        if coarse.any():
            best[rows[coarse]], arg[rows[coarse]] = _blocked_argmin(
                lambda q, f: _angle_block(q, k2, f),
                qt[coarse], frames, rows[coarse], later_only, center_step,
            )
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

