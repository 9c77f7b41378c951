"""Explicit packings and coverings of G(k, d), and ball-volume estimates.

Packing members are graphs over the first k axes with slopes on a grid of
step eps; any two distinct grid points are at angle >= c * eps, so the
family is an eps-scale packing and its cardinality grows like
eps^{-(d-k)k}.

Covering members repeat the construction over every pivot subset of k
axes, with signed slopes eps * n, |n| < 2 / eps.  The covering is proven,
not estimated: ``grassmann.span_normal_form`` writes every subspace as a
graph xi over its maximal-volume pivot subset sigma, and the
maximal-volume lemma gives |xi| <= 1.  The member with the same sigma and
n = rint(xi / eps) is in the family, its slopes are within eps / 2 of xi
entrywise, and the sine of its angle to the subspace is at most the
spectral norm of the slope difference, so every subspace lies within
arcsin(eps sqrt((d-k)k) / 2) of a member.  Signed slopes are needed:
normal forms have entries of either sign.

Members are built as one (m, d, k) grid stack and orthonormalized by one
batched SVD.  Packing separation and covering probes are minima of the
largest canonical angle over all member pairs and over all (probe,
member) pairs; both go through ``grassmann.min_canonical_angle``, which
completes each center to an orthonormal basis [B, N] of R^d, reads cos
from B^T A and sin from N^T A for a whole block of pairs at once, and
holds at most a fixed pair budget of products in memory.

Monte Carlo estimators for the invariant measure of metric balls and of
chart-coordinate cubes live here too; both scale like eps^{(d-k)k}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, EmptyFamily, ParamOrder, RankDeficient
from .grassmann import (
    RANK_TOL,
    Subspace,
    batch_canonical_angle,
    chart_regular,
    min_canonical_angle,
    sample_uniform_frames,
)

DEFAULT_FAMILY_CAP = 10**6

# Largest packing whose minimum pairwise angle is measured, about 33 M
# member pairs.  With one BLAS thread on a 2-vCPU host the blocked angle
# kernel measured 8100 lines in R^3 in 1.4 s and 6561 planes in R^4 in 3.5 s.
_SEPARATION_MEMBER_CAP = 2**13


@dataclass
class SubspaceFamily:
    """A finite family of subspaces with its generating grid metadata.

    ``meta[i]`` records the (sigma, n) pair that produced member i: the
    axis permutation and the integer slope tuple.  For packings,
    ``separation`` is the measured minimum pairwise angle (None when the
    family was too large to measure exhaustively).
    """

    eps: float
    kind: str  # "packing" | "covering"
    members: list[Subspace]
    meta: list[tuple[tuple[int, ...], tuple[int, ...]]]
    separation: float | None = None
    c1: float | None = None
    # running covering radius: every probe tested so far lies within this
    # angle of some member (None until a probe has been run)
    probe_radius: float | None = None
    _stack: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.members)

    def frame_stack(self) -> np.ndarray:
        if self._stack is None:
            self._stack = np.stack([m.frame for m in self.members])
        return self._stack


def _grid_members(
    d: int, k: int, eps: float, sigmas: list[tuple[int, ...]], n_tuples: list[tuple[int, ...]]
) -> tuple[list[Subspace], np.ndarray]:
    """Members spanned by e_{sigma[i]} + sum_j eps n[j, i] e_{sigma[k+j]}.

    One member per (sigma, n), sigma in the outer order; returns the
    members and their frame stack, orthonormalized by one batched SVD.
    The stack is read-only and each member's frame is a view of its row.
    """
    slopes = eps * np.array(n_tuples, dtype=float).reshape(len(n_tuples), d - k, k)
    raw = np.zeros((len(sigmas), len(n_tuples), d, k))
    for block, sigma in zip(raw, sigmas):
        block[:, np.array(sigma[:k]), np.arange(k)] = 1.0
        block[:, np.array(sigma[k:]), :] = slopes
    frames, svals, _ = np.linalg.svd(raw.reshape(-1, d, k), full_matrices=False)
    if np.any(svals[:, -1] <= RANK_TOL):
        raise RankDeficient(f"a grid member has singular value <= {RANK_TOL:.0e}")
    frames.setflags(write=False)
    return [Subspace._from_orthonormal(f) for f in frames], frames


def packing_family(k: int, d: int, eps: float, cap: int = DEFAULT_FAMILY_CAP) -> SubspaceFamily:
    """Grid packing: slopes eps * n with n in {0, ..., floor(1/eps)}^(d-k)k.

    Member count is exactly (floor(1/eps) + 1)^((d-k)k); the measured
    minimum pairwise angle is recorded when the family is small enough to
    check exhaustively (<= 8192 members).
    """
    if not 0 < eps <= 1:
        raise ParamOrder(f"need 0 < eps <= 1, got {eps}")
    if not 1 <= k < d:
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    per_entry = int(np.floor(1.0 / eps)) + 1
    n_entries = (d - k) * k
    count = per_entry**n_entries
    if count > cap:
        raise BudgetExceeded(f"packing would have {count} members > cap {cap}")
    identity = tuple(range(d))
    n_tuples = list(product(range(per_entry), repeat=n_entries))
    members, stack = _grid_members(d, k, eps, [identity], n_tuples)
    meta = [(identity, n_tuple) for n_tuple in n_tuples]
    fam = SubspaceFamily(eps=eps, kind="packing", members=members, meta=meta, _stack=stack)
    if len(members) <= _SEPARATION_MEMBER_CAP:
        fam.separation = _min_pairwise_angle(fam)
    return fam


def _min_pairwise_angle(fam: SubspaceFamily) -> float:
    stack = fam.frame_stack()
    angles, _ = min_canonical_angle(stack, stack, later_only=True)
    return float(np.min(angles))


def estimate_span_bound(k: int, d: int) -> float:
    """The normal-form entry bound c1(k, d): 1.0, proven for every (k, d).

    ``grassmann.span_normal_form`` pivots on the maximal-volume minor, so
    every entry of a normal form has |xi| <= 1.  Kept only under its old
    name for callers that still ask for it.
    """
    if not 1 <= k < d:
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    return 1.0


def covering_family(
    k: int,
    d: int,
    eps: float,
    c1: float = 1.0,
    cap: int = DEFAULT_FAMILY_CAP,
) -> SubspaceFamily:
    """Grid covering: all pivot subsets, slopes eps * n with |n| < (c1+1)/eps.

    c1 bounds the normal-form entries the grid must reach; the default
    1.0 is the maximal-volume bound, which every subspace meets, so the
    default family covers G(k, d) within arcsin(eps sqrt((d-k)k) / 2)
    (see the module docstring).  Count equals
    binom(d, k) * (2 * ceil((c1+1)/eps) - 1)^((d-k)k) exactly; members are
    not deduplicated, so a few coincide as subspaces.
    """
    if not 0 < eps <= 1:
        raise ParamOrder(f"need 0 < eps <= 1, got {eps}")
    if not 1 <= k < d:
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    if c1 <= 0:
        raise ParamOrder(f"need c1 > 0, got {c1}")
    reach = int(np.ceil((c1 + 1.0) / eps))
    n_entries = (d - k) * k
    count = comb(d, k) * (2 * reach - 1) ** n_entries
    if count > cap:
        raise BudgetExceeded(f"covering would have {count} members > cap {cap}")
    sigmas = [
        pivots + tuple(i for i in range(d) if i not in pivots)
        for pivots in combinations(range(d), k)
    ]
    n_tuples = list(product(range(-(reach - 1), reach), repeat=n_entries))
    members, stack = _grid_members(d, k, eps, sigmas, n_tuples)
    meta = [(sigma, n_tuple) for sigma in sigmas for n_tuple in n_tuples]
    return SubspaceFamily(
        eps=eps, kind="covering", members=members, meta=meta, c1=c1, _stack=stack
    )


def nearest_in_family(h: Subspace, fam: SubspaceFamily) -> tuple[int, float]:
    """Index and angle of the closest family member; ties keep the lowest index."""
    if len(fam.members) == 0:
        raise EmptyFamily("family has no members")
    if fam.members[0].frame.shape != h.frame.shape:
        raise DimensionMismatch("probe and family dimensions differ")
    angles, idx = min_canonical_angle(fam.frame_stack(), h.frame[None])
    return int(idx[0]), float(angles[0])


def covering_radius_estimate(
    fam: SubspaceFamily, probes: int, rng: np.random.Generator
) -> float:
    """Max over uniform probes of the nearest-member angle.

    Also folds the result into ``fam.probe_radius``, the running radius
    within which every probe tested so far has found a member.
    """
    if probes < 1:
        raise ParamOrder(f"need probes >= 1, got {probes}")
    if len(fam.members) == 0:
        raise EmptyFamily("family has no members")
    d, k = fam.members[0].frame.shape
    frames = sample_uniform_frames(rng, probes, k, d)
    nearest, _ = min_canonical_angle(fam.frame_stack(), frames)
    worst = float(np.max(nearest, initial=0.0))
    fam.probe_radius = worst if fam.probe_radius is None else max(fam.probe_radius, worst)
    return worst


@dataclass
class MeasureEstimate:
    p_hat: float
    stderr: float
    trials: int
    hits: int
    singular: int = 0


def _shard_sizes(trials: int, shards: int) -> list[int]:
    base, rem = divmod(trials, shards)
    return [base + (1 if i < rem else 0) for i in range(shards)]


def ball_measure_estimate(
    h: Subspace, eps: float, trials: int, rng: np.random.Generator, shards: int = 1
) -> MeasureEstimate:
    """Fraction of uniform subspaces within angle eps of ``h``.

    With shards > 1 the trials are split over independent substreams
    spawned from ``rng`` and combined by summation; the result is a pure
    function of (generator state, shard count).
    """
    if trials < 1:
        raise ParamOrder("trials must be >= 1")
    k, d = h.dim_sub, h.dim_ambient
    streams = rng.spawn(shards) if shards > 1 else [rng]
    hits = 0
    for sub_rng, size in zip(streams, _shard_sizes(trials, len(streams))):
        if size == 0:
            continue
        frames = sample_uniform_frames(sub_rng, size, k, d)
        angles = batch_canonical_angle(frames, h.frame)
        hits += int(np.sum(angles <= eps))
    p = hits / trials
    return MeasureEstimate(p, float(np.sqrt(p * (1 - p) / trials)), trials, hits)


def chart_cube_measure_estimate(
    k: int, d: int, eps: float, trials: int, rng: np.random.Generator, shards: int = 1
) -> MeasureEstimate:
    """Fraction of uniform subspaces whose chart entries all lie in [0, eps].

    Chart-singular draws (a null event) count as misses and are reported
    in the ``singular`` field.
    """
    if trials < 1:
        raise ParamOrder("trials must be >= 1")
    streams = rng.spawn(shards) if shards > 1 else [rng]
    hits = 0
    singular = 0
    for sub_rng, size in zip(streams, _shard_sizes(trials, len(streams))):
        if size == 0:
            continue
        frames = sample_uniform_frames(sub_rng, size, k, d)
        a = frames[:, :k, :]
        b = frames[:, k:, :]
        ok = chart_regular(a)
        singular += int(np.sum(~ok))
        if np.any(ok):
            y = np.linalg.solve(a[ok].transpose(0, 2, 1), b[ok].transpose(0, 2, 1))
            flat = y.reshape(y.shape[0], -1)
            inside = np.all((flat >= 0.0) & (flat <= eps), axis=1)
            hits += int(np.sum(inside))
    p = hits / trials
    return MeasureEstimate(p, float(np.sqrt(p * (1 - p) / trials)), trials, hits, singular)


def export_family_csv(fam: SubspaceFamily, path) -> None:
    """One row per member: index, grid metadata, then the frame row-major."""
    d, k = fam.members[0].frame.shape if fam.members else (0, 0)
    header = ["index", "kind", "eps", "sigma", "n"] + [
        f"f{r}{c}" for r in range(d) for c in range(k)
    ]
    lines = [",".join(header)]
    for i, (member, (sigma, n_tuple)) in enumerate(zip(fam.members, fam.meta)):
        flat = [repr(float(v)) for v in member.frame.reshape(-1)]
        sigma_s = "|".join(str(s) for s in sigma)
        n_s = "|".join(str(v) for v in n_tuple)
        lines.append(",".join([str(i), fam.kind, repr(float(fam.eps)), sigma_s, n_s] + flat))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
