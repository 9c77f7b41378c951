"""Explicit packings and coverings of G(k, d), and ball-volume estimates.

Packing members are graphs over the first k axes with slopes on a grid of
step eps; any two distinct grid points are at angle >= c * eps, so the
family is an eps-scale packing and its cardinality grows like
eps^{-(d-k)k}.

Covering members repeat the construction over every pivot subset of k
axes, with signed slopes eps * n, |n| <= floor(1/eps + 1/2).  The
covering is proven, not estimated: ``grassmann.span_normal_form`` writes
every subspace as a graph xi over its maximal-volume pivot subset sigma,
and the maximal-volume lemma gives |xi| <= 1.  The member with the same
sigma and n = rint(xi / eps) is in the family, its slopes are within
eps / 2 of xi entrywise, and the sine of its angle to the subspace is at
most the spectral norm of the slope difference, so every subspace lies
within arcsin(eps sqrt((d-k)k) / 2) of a member.  The lemma holds to
rounding only (pivot ties break at a relative 1e-13, and the solve
rounds), so the reach assumes |xi| <= 1 + 1e-9.  Signed slopes are
needed: normal forms have entries of either sign.

Members are built as one (m, d, k) grid stack and orthonormalized by
``grassmann.orthonormal_frames``.  Packing separation and covering probes
are minima of the largest canonical angle over all member and all (probe,
member) pairs, both through ``grassmann.min_canonical_angle``.  It
screens a whole block of pairs at once by one GEMM of packed projectors:
the chordal distance ||sin Theta||_F^2 = k - <A A^T, B B^T>_F (Conway,
Hardin & Sloane 1996) brackets the squared sine of the largest angle
between itself / k and itself, so a pair whose lower end exceeds the
upper end of the center's nearest pair cannot win.  Only the pairs
inside that bracket, a few per center, get the exact sine, the largest
singular value of N^T A with [B, N] the center's completed basis; each
center's winning pair then gets its exact angle arctan2(sin, cos), with
cos from B^T A.  A center whose winning sine exceeds 0.7 (about 44
degrees), where sines of nearby angles round alike, is ranked again by
the full angle over its kept pairs.  Memory stays flat: a block holds a
fixed number of floats, projectors are packed one block of members at a
time, and kept pairs reach the exact sine in bounded batches.

Monte Carlo estimators for the invariant measure of metric balls and of
chart-coordinate cubes live here too; both scale like eps^{(d-k)k}.  Each
counts a whole eps grid on one draw, 2^16 planes at a time, by sorting
one number per plane, so its rows are nested, positively correlated
events.  Neither builds a frame: both read the chart of each Gaussian
draw, the ball estimator after rotating the draw onto the center.
``volume_measure_estimates`` counts the ball about the coordinate plane,
where that rotation is the identity, and the cube on the charts of one
shared draw, so a ball row and a cube row are correlated too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf, log10

import numpy as np

from .errors import BudgetExceeded, EmptyFamily, ParamOrder
from .grassmann import (
    Subspace,
    chart_angles,
    min_canonical_angle,
    orthonormal_frames,
    sample_uniform_angles,
    sample_uniform_charts,
    sample_uniform_frames,
)

DEFAULT_FAMILY_CAP = 10**6

# Largest packing whose minimum pairwise angle is measured, about 33 M
# member pairs.  With one BLAS thread on a shared 2-vCPU Xeon host the
# projector-screened angle kernel measured 8100 lines in R^3 in 0.11-0.17 s
# and 6561 planes in R^4 in 0.09 s (packing construction included, best
# of 3, over four runs), where a sine of every pair took 0.38-0.43 s and
# 0.51-0.66 s.
_SEPARATION_MEMBER_CAP = 2**13

# Relative slack on the normal-form bound |xi| <= 1 (module docstring).
_XI_SLACK = 1e-9


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
    order and n in lexicographic order, orthonormalized by
    ``orthonormal_frames``.  Each raw frame holds I_k on its pivot rows, so
    |raw v| >= |v| and every member has full rank.
    """
    n_entries = (d - k) * k
    n_grid = np.stack(np.meshgrid(*[levels] * n_entries, indexing="ij"), axis=-1)
    n_grid = n_grid.reshape(-1, n_entries)
    slopes = eps * n_grid.reshape(-1, d - k, k)
    raw = np.zeros((len(sigmas), len(n_grid), d, k))
    for block, sigma in zip(raw, sigmas):
        block[:, np.array(sigma[:k]), np.arange(k)] = 1.0
        block[:, np.array(sigma[k:]), :] = slopes
    frames = orthonormal_frames(raw.reshape(-1, d, k))
    frames.setflags(write=False)
    return SubspaceFamily(
        eps=eps,
        kind=kind,
        frames=frames,
        sigma=np.repeat(np.array(sigmas), len(n_grid), axis=0),
        n=np.tile(n_grid, (len(sigmas), 1)),
    )


def _covering_reach(eps: float) -> int:
    """The covering's largest slope level |n|: floor((1 + slack)/eps + 1/2)."""
    return int(np.floor((1.0 + _XI_SLACK) / eps + 0.5))


def family_size(kind: str, k: int, d: int, eps: float, cap: int = DEFAULT_FAMILY_CAP) -> int:
    """The exact member count of the grid packing or covering at eps.

    A packing has (floor(1/eps) + 1)^((d-k)k) members and a covering,
    up to a rounding slack, binom(d, k) * (2 floor(1/eps + 1/2) + 1)^((d-k)k).
    Raises ParamOrder unless 0 < eps <= 1 and 1 <= k < d, and
    BudgetExceeded when the count exceeds ``cap``, so a caller can reject
    a family before building it.

    A count whose lower bound (1/eps)^((d-k)k), or binom(d, k) (2/eps)^((d-k)k)
    for a covering, is over ten times the cap is rejected as a power of
    ten without forming it: 1/eps overflows at a subnormal eps, and such
    a count is too long to print.
    """
    if not 0 < eps <= 1:
        raise ParamOrder(f"need 0 < eps <= 1, got {eps}")
    if not 1 <= k < d:
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    n_entries = (d - k) * k
    if kind not in ("packing", "covering"):
        raise ParamOrder(f"unknown family kind {kind!r}")
    ways, base = (1, 1.0) if kind == "packing" else (comb(d, k), 2.0)
    magnitude = log10(ways) + n_entries * (log10(base) - log10(eps))
    if magnitude > log10(cap) + 1:
        raise BudgetExceeded(f"{kind} would have over 10^{int(magnitude)} members > cap {cap}")
    if kind == "packing":
        count = (int(np.floor(1.0 / eps)) + 1) ** n_entries
    else:
        count = ways * (2 * _covering_reach(eps) + 1) ** n_entries
    if count > cap:
        raise BudgetExceeded(f"{kind} would have {count} members > cap {cap}")
    return count


def packing_family(k: int, d: int, eps: float, cap: int = DEFAULT_FAMILY_CAP) -> SubspaceFamily:
    """Grid packing: slopes eps * n with n in {0, ..., floor(1/eps)}^(d-k)k.

    Its member count is ``family_size("packing", ...)``; the measured
    minimum pairwise angle is recorded when the family is small enough to
    check exhaustively (<= 8192 members).
    """
    family_size("packing", k, d, eps, cap)
    per_entry = int(np.floor(1.0 / eps)) + 1
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
    """Grid covering: all pivot subsets, slopes eps * n with |n| <= floor(1/eps + 1/2).

    The grid holds n = rint(xi / eps) for every normal-form entry, |xi| <= 1,
    so the family covers G(k, d) within arcsin(eps sqrt((d-k)k) / 2) (see
    the module docstring).  Its member count is ``family_size("covering",
    ...)``; members are not deduplicated, so a few coincide as subspaces.
    """
    family_size("covering", k, d, eps, cap)
    reach = _covering_reach(eps)
    sigmas = [
        pivots + tuple(i for i in range(d) if i not in pivots)
        for pivots in combinations(range(d), k)
    ]
    return _grid_family("covering", d, k, eps, sigmas, np.arange(-reach, reach + 1))


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


def volume_measure_estimates(
    k: int, d: int, eps_grid, trials: int, rng: np.random.Generator
) -> tuple[list[MeasureEstimate], list[MeasureEstimate]]:
    """Ball and chart-cube measures per eps, both counted on the charts of
    one draw (``sample_uniform_charts``): ``(ball, cube)``.

    The ball is centred on E = span(e_1, ..., e_k), whose completed basis
    is the identity, so the chart Y of a plane is the chart the ball
    estimator reads after its rotation, and the ball rows equal
    ``ball_measure_estimate(E, ...)`` on the same generator hit for hit
    (``grassmann.chart_angles``; a chart-singular plane is at pi/2).  A
    chart with no negative entry hits every cube eps from its largest
    entry up; chart-singular planes are cube misses, reported in the cube
    rows' ``singular`` field.  Both kinds of row read the same planes, so
    a ball row and a cube row are correlated.
    """
    if not 1 <= k < d:
        raise ParamOrder(f"need 1 <= k < d, got k={k}, d={d}")
    radii = _radii(eps_grid, trials)
    ball_hits = cube_hits = regular = 0
    for size in _chunk_sizes(trials):
        yt, ok = sample_uniform_charts(rng, size, k, d)
        regular += int(np.count_nonzero(ok))
        theta = np.sort(chart_angles(yt, ok))
        ball_hits = ball_hits + np.searchsorted(theta, radii, side="right")
        top = np.max(yt, axis=(1, 2))
        top[np.min(yt, axis=(1, 2)) < 0.0] = inf
        cube_hits = cube_hits + np.searchsorted(np.sort(top), radii, side="right")
    return _estimates(ball_hits, trials), _estimates(cube_hits, trials, trials - regular)


def chart_cube_measure_estimate(
    k: int, d: int, eps_grid, trials: int, rng: np.random.Generator
) -> list[MeasureEstimate]:
    """Fraction of uniform subspaces whose chart entries all lie in [0, eps]:
    the cube half of :func:`volume_measure_estimates`."""
    return volume_measure_estimates(k, d, eps_grid, trials, rng)[1]


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
