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
completes each center to an orthonormal basis [B, N] of R^d and ranks a
whole block of pairs at once by the sine alone, the largest singular
value of N^T A, holding at most a fixed pair budget of products in
memory.  Each center's winning pair then gets its exact angle
arctan2(sin, cos), with cos from B^T A; a center whose winning sine
exceeds 0.7 (about 44 degrees), where sines of nearby angles round
alike, is ranked again by the full angle.

Monte Carlo estimators for the invariant measure of metric balls and of
chart-coordinate cubes live here too; both scale like eps^{(d-k)k}.  Each
counts a whole eps grid on one draw, 2^16 planes at a time, by sorting
one number per plane, so its rows are nested, positively correlated
events.  Neither builds a frame: both read the chart of each Gaussian
draw, the ball estimator after rotating the draw onto the center.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf

import numpy as np

from .errors import BudgetExceeded, EmptyFamily, ParamOrder
from .grassmann import (
    Subspace,
    min_canonical_angle,
    sample_uniform_angles,
    sample_uniform_charts,
    sample_uniform_frames,
)

DEFAULT_FAMILY_CAP = 10**6

# Largest packing whose minimum pairwise angle is measured, about 33 M
# member pairs.  With one BLAS thread on a 2-vCPU host the sine-screened
# angle kernel measured 8100 lines in R^3 in 0.4-0.6 s and 6561 planes in
# R^4 in 0.7-0.8 s (packing construction included, best of 3), where
# ranking every pair by its full angle took 1.0 s and 1.5 s.
_SEPARATION_MEMBER_CAP = 2**13


@dataclass
class SubspaceFamily:
    """A finite family of subspaces held as arrays.

    Member i has the orthonormal frame ``frames[i]`` (the stack is
    read-only) and was generated by the axis permutation ``sigma[i]`` and
    the integer slopes ``n[i]``; ``fam[i]`` builds it as a ``Subspace``.
    For packings, ``separation`` is the measured minimum pairwise angle
    (None when the family was too large to measure exhaustively).
    ``covering_radius_estimate`` returns a radius and stores none.
    """

    eps: float
    kind: str  # "packing" | "covering"
    frames: np.ndarray  # (m, d, k)
    sigma: np.ndarray  # (m, d) integer
    n: np.ndarray  # (m, (d-k)k) integer
    separation: float | None = None

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i: int) -> Subspace:
        return Subspace(self.frames[i])


def _grid_family(
    kind: str, d: int, k: int, eps: float, sigmas: list[tuple[int, ...]], levels: np.ndarray
) -> SubspaceFamily:
    """Members spanned by e_{sigma[i]} + sum_j eps n[j, i] e_{sigma[k+j]}.

    One member per sigma and n in levels^((d-k)k), sigma in the outer
    order and n in lexicographic order, orthonormalized by one batched
    SVD.  Each raw frame holds I_k on its pivot rows, so |raw v| >= |v|
    and every member has full rank.
    """
    n_entries = (d - k) * k
    n_grid = np.stack(np.meshgrid(*[levels] * n_entries, indexing="ij"), axis=-1)
    n_grid = n_grid.reshape(-1, n_entries)
    slopes = eps * n_grid.reshape(-1, d - k, k)
    raw = np.zeros((len(sigmas), len(n_grid), d, k))
    for block, sigma in zip(raw, sigmas):
        block[:, np.array(sigma[:k]), np.arange(k)] = 1.0
        block[:, np.array(sigma[k:]), :] = slopes
    frames = np.linalg.svd(raw.reshape(-1, d, k), full_matrices=False)[0]
    frames.setflags(write=False)
    return SubspaceFamily(
        eps=eps,
        kind=kind,
        frames=frames,
        sigma=np.repeat(np.array(sigmas), len(n_grid), axis=0),
        n=np.tile(n_grid, (len(sigmas), 1)),
    )


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
    fam = _grid_family("packing", d, k, eps, [tuple(range(d))], np.arange(per_entry))
    if len(fam) <= _SEPARATION_MEMBER_CAP:
        angles, _ = min_canonical_angle(fam.frames, fam.frames, later_only=True)
        fam.separation = float(np.min(angles))
    return fam


def estimate_span_bound(k: int, d: int) -> float:
    """The normal-form entry bound c1(k, d): 1.0, proven for every (k, d).

    ``grassmann.span_normal_form`` pivots on the maximal-volume minor, so
    every entry of a normal form has |xi| <= 1.  No command calls this:
    the benchmark imports and traces it, as ``tests/test_trace_targets.py``
    requires, and it goes with the benchmark's move off it (ROADMAP item 5).
    """
    if not 1 <= k < d:
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    return 1.0


def covering_family(k: int, d: int, eps: float, cap: int = DEFAULT_FAMILY_CAP) -> SubspaceFamily:
    """Grid covering: all pivot subsets, slopes eps * n with |n| < 2/eps.

    The grid reaches every normal-form entry, |xi| <= 1, so the family
    covers G(k, d) within arcsin(eps sqrt((d-k)k) / 2) (see the module
    docstring).  Count equals binom(d, k) * (2 * ceil(2/eps) - 1)^((d-k)k)
    exactly; members are not deduplicated, so a few coincide as subspaces.
    """
    if not 0 < eps <= 1:
        raise ParamOrder(f"need 0 < eps <= 1, got {eps}")
    if not 1 <= k < d:
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    reach = int(np.ceil(2.0 / eps))
    n_entries = (d - k) * k
    count = comb(d, k) * (2 * reach - 1) ** n_entries
    if count > cap:
        raise BudgetExceeded(f"covering would have {count} members > cap {cap}")
    sigmas = [
        pivots + tuple(i for i in range(d) if i not in pivots)
        for pivots in combinations(range(d), k)
    ]
    return _grid_family("covering", d, k, eps, sigmas, np.arange(1 - reach, reach))


def covering_radius_estimate(
    fam: SubspaceFamily, probes: int, rng: np.random.Generator
) -> float:
    """Max over uniform probes of the nearest-member angle."""
    if probes < 1:
        raise ParamOrder(f"need probes >= 1, got {probes}")
    if len(fam) == 0:
        raise EmptyFamily("family has no members")
    d, k = fam.frames.shape[1:]
    worst = 0.0
    for size in _chunk_sizes(probes):
        nearest, _ = min_canonical_angle(fam.frames, sample_uniform_frames(rng, size, k, d))
        worst = max(worst, float(np.max(nearest)))
    return worst


# Planes per draw in the covering probes and the measure estimators, so
# memory stays flat at any probe or trial count; chunked draws take the
# stream exactly as one draw does.
_MEASURE_CHUNK = 2**16


def _chunk_sizes(trials: int) -> list[int]:
    return [min(_MEASURE_CHUNK, trials - start) for start in range(0, trials, _MEASURE_CHUNK)]


@dataclass
class MeasureEstimate:
    p_hat: float
    stderr: float
    trials: int
    hits: int
    singular: int = 0


def _radii(eps_grid, trials: int) -> np.ndarray:
    radii = np.asarray(eps_grid, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ParamOrder(f"need a non-empty 1-d eps grid, got {eps_grid!r}")
    if not np.all((radii > 0) & (radii < inf)):
        raise ParamOrder(f"need every eps finite and > 0, got {eps_grid!r}")
    if trials < 1:
        raise ParamOrder("trials must be >= 1")
    return radii


def _estimates(hits: np.ndarray, trials: int, singular: int = 0) -> list[MeasureEstimate]:
    p = hits / trials
    stderr = np.sqrt(p * (1 - p) / trials)
    return [MeasureEstimate(float(q), float(e), trials, int(h), singular)
            for q, e, h in zip(p, stderr, hits)]


def ball_measure_estimate(
    h: Subspace, eps_grid, trials: int, rng: np.random.Generator
) -> list[MeasureEstimate]:
    """Fraction of uniform subspaces within angle eps of ``h``, per eps,
    all counted on the angles of one draw (``sample_uniform_angles``)."""
    radii = _radii(eps_grid, trials)
    hits = 0
    for size in _chunk_sizes(trials):
        angles = np.sort(sample_uniform_angles(rng, size, h))
        hits = hits + np.searchsorted(angles, radii, side="right")
    return _estimates(hits, trials)


def chart_cube_measure_estimate(
    k: int, d: int, eps_grid, trials: int, rng: np.random.Generator
) -> list[MeasureEstimate]:
    """Fraction of uniform subspaces whose chart entries all lie in [0, eps],
    per eps, all counted on the charts of one draw (``sample_uniform_charts``).

    A chart with no negative entry hits every eps from its largest entry
    up.  Chart-singular draws (a null event) count as misses and are
    reported in the ``singular`` field.
    """
    if not 1 <= k < d:
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    radii = _radii(eps_grid, trials)
    hits = regular = 0
    for size in _chunk_sizes(trials):
        yt, ok = sample_uniform_charts(rng, size, k, d)
        regular += int(np.count_nonzero(ok))
        top = np.max(yt, axis=(1, 2))
        top[np.min(yt, axis=(1, 2)) < 0.0] = inf
        hits = hits + np.searchsorted(np.sort(top), radii, side="right")
    return _estimates(hits, trials, trials - regular)


def export_family_csv(fam: SubspaceFamily, path) -> None:
    """One row per member: index, grid metadata, then the frame row-major."""
    d, k = fam.frames.shape[1:]
    header = ["index", "kind", "eps", "sigma", "n"] + [
        f"f{r}{c}" for r in range(d) for c in range(k)
    ]
    lines = [",".join(header)]
    eps_s = repr(float(fam.eps))
    rows = zip(fam.sigma.tolist(), fam.n.tolist(), fam.frames.reshape(len(fam), -1).tolist())
    for i, (sigma, n_tuple, flat) in enumerate(rows):
        sigma_s = "|".join(str(s) for s in sigma)
        n_s = "|".join(str(v) for v in n_tuple)
        lines.append(",".join([str(i), fam.kind, eps_s, sigma_s, n_s] + [repr(v) for v in flat]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
