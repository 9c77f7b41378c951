"""Metric and measure primitives on the space of k-dimensional subspaces.

A subspace of R^d is stored as a d-by-k matrix with orthonormal columns.
The frame is not unique; the subspace is the datum, and equality is always
decided through :func:`canonical_angle`, never through frame comparison.

The distance used throughout is the largest canonical angle

    ang(H, K) = max_{u in H} min_{v in K} acos(<u, v> / |u||v|),

which equals acos of the smallest singular value of F_H^T F_K and is a
metric on subspaces of fixed dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartSingular, DimensionMismatch, OutOfDomain, RankDeficient

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


@dataclass(frozen=True, eq=False)
class OrientedPoint:
    """A location in the unit cube together with a k-dimensional orientation."""

    z: np.ndarray
    w: Subspace

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).reshape(-1)
        if z.shape[0] != self.w.dim_ambient:
            raise DimensionMismatch("location and orientation ambient dimensions differ")
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise OutOfDomain("location coordinates must lie in [0, 1]")
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


@dataclass(frozen=True, eq=False)
class ChartMatrix:
    """Graph-chart coordinates of a subspace over the first k axes.

    Column j holds the vector attached to the j-th weight-one multi-index,
    i.e. the subspace is spanned by e_i + sum_j y[j, i] e_{k+j}.
    """

    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 2:
            raise DimensionMismatch(f"chart matrix must be 2-d, got shape {y.shape}")
        y = y.copy()
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def dim_sub(self) -> int:
        return self.y.shape[1]

    @property
    def dim_ambient(self) -> int:
        return self.y.shape[0] + self.y.shape[1]


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
    """Draw from the rotation-invariant distribution on G(k, d).

    Realized by orthonormalizing a d-by-k matrix of independent standard
    normals; invariance follows from the rotation invariance of the
    Gaussian ensemble.
    """
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}, d={d}")
    for _ in range(8):
        try:
            return orthonormalize(rng.standard_normal((d, k)))
        except RankDeficient:  # pragma: no cover - probability-zero draw
            continue
    raise RankDeficient("repeated rank-deficient Gaussian draws")  # pragma: no cover


def sample_uniform_frames(rng: np.random.Generator, trials: int, k: int, d: int) -> np.ndarray:
    """Batch of ``trials`` uniform frames, shape (trials, d, k).

    Equivalent in distribution to repeated :func:`sample_uniform_subspace`
    but vectorized; used by the Monte Carlo estimators.
    """
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}, d={d}")
    g = rng.standard_normal((trials, d, k))
    if k == 1:
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        return g / norms
    q, r = np.linalg.qr(g)
    # Fix the sign convention so the distribution is exactly invariant.
    signs = np.sign(np.einsum("tkk->tk", r))
    signs[signs == 0.0] = 1.0
    return q * signs[:, None, :]


def batch_canonical_angle(frames: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Largest canonical angle from each frame in a batch to one frame.

    ``frames`` has shape (t, d, k1), ``center`` shape (d, k2) with
    k1 <= k2.  Returns shape (t,).  Small angles go through the sine of
    the projection residual, matching :func:`canonical_angle`.
    """
    if frames.shape[1] != center.shape[0]:
        raise DimensionMismatch("ambient dimensions differ")
    if frames.shape[2] > center.shape[1]:
        raise DimensionMismatch("batch frames must not have larger dimension")
    m = np.einsum("tdk,dj->tkj", frames, center)
    if m.shape[1] == 1 and m.shape[2] == 1:
        smin = np.abs(m[:, 0, 0])
    elif m.shape[1] == 1 or m.shape[2] == 1:
        smin = np.linalg.norm(m.reshape(m.shape[0], -1), axis=1)
    else:
        smin = np.linalg.svd(m, compute_uv=False)[:, -1]
    out = np.arccos(np.clip(smin, 0.0, 1.0))
    close = smin > _COS_SWITCH
    if np.any(close):
        resid = frames[close] - np.einsum("dj,tkj->tdk", center, m[close])
        if resid.shape[2] == 1:
            smax = np.linalg.norm(resid[:, :, 0], axis=1)
        else:
            smax = np.linalg.svd(resid, compute_uv=False)[:, 0]
        out[close] = np.arcsin(np.clip(smax, 0.0, 1.0))
    return out


def sample_orthogonal_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d-by-d orthogonal matrix (QR with sign fix)."""
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def graph_chart(w: Subspace) -> ChartMatrix:
    """Express ``w`` as a graph over the first k coordinate axes.

    With A the top k-by-k block and B the bottom (d-k)-by-k block of the
    frame, the chart is y = B A^{-1}.  Fails with ChartSingular when A is
    numerically singular, which happens on a null set of subspaces.
    """
    k = w.dim_sub
    a = w.frame[:k, :]
    b = w.frame[k:, :]
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= RANK_TOL:
        raise ChartSingular("top k-by-k block of the frame is numerically singular")
    y = np.linalg.solve(a.T, b.T).T
    return ChartMatrix(y)


def chart_to_subspace(y: ChartMatrix | np.ndarray) -> Subspace:
    """Subspace spanned by the columns of [I_k ; y]."""
    arr = y.y if isinstance(y, ChartMatrix) else np.asarray(y, dtype=float)
    k = arr.shape[1]
    stacked = np.vstack([np.eye(k), arr])
    return orthonormalize(stacked)


def span_normal_form(h: Subspace) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Permuted graph normal form of a subspace.

    Returns ``(sigma, xi, bound)`` such that h is spanned by the vectors

        e_{sigma[i]} + sum_j xi[j, i] * e_{sigma[k + j]},   i = 0..k-1,

    with ``bound = max |xi|``.  ``sigma`` is a permutation of 0..d-1 found
    by column-pivoted elimination: each column picks, among the axes still
    available, the one carrying its largest remaining inner product.
    Always succeeds for a valid subspace.
    """
    frame = np.array(h.frame, dtype=float)
    d, k = frame.shape
    available = list(range(d))
    pivots: list[int] = []
    for col in range(k):
        rows = np.array(available)
        vals = np.abs(frame[rows, col])
        # ties (to within rounding) break toward the lower axis index
        j = rows[int(np.argmax(vals >= vals.max() * (1.0 - 1e-12)))]
        pivots.append(int(j))
        available.remove(int(j))
        pivot_val = frame[j, col]
        for other in range(k):
            if other == col:
                continue
            factor = frame[j, other] / pivot_val
            frame[:, other] -= factor * frame[:, col]
    for col in range(k):
        frame[:, col] /= frame[pivots[col], col]
    rest = sorted(available)
    sigma = tuple(pivots + rest)
    xi = frame[np.array(rest, dtype=int), :] if rest else np.zeros((0, k))
    bound = float(np.max(np.abs(xi))) if xi.size else 0.0
    return sigma, xi, bound


def subspace_from_normal_form(sigma: tuple[int, ...], xi: np.ndarray, d: int) -> Subspace:
    """Rebuild the subspace described by a normal form (round-trip utility)."""
    xi = np.asarray(xi, dtype=float)
    k = d - xi.shape[0]
    mat = np.zeros((d, k))
    for i in range(k):
        mat[sigma[i], i] = 1.0
        for j in range(xi.shape[0]):
            mat[sigma[k + j], i] = xi[j, i]
    return orthonormalize(mat)


def discrepancy_psi(a: OrientedPoint, b: OrientedPoint) -> float:
    """max of location sup-distance and squared subspace angle."""
    if a.z.shape != b.z.shape or a.w.dim_sub != b.w.dim_sub:
        raise DimensionMismatch("oriented points have mismatched dimensions")
    loc = float(np.max(np.abs(a.z - b.z)))
    ang = canonical_angle(a.w, b.w)
    return max(loc, ang * ang)
