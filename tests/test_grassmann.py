"""Subspace primitives: angles, charts, normal forms, uniform sampling."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from alignstat import grassmann, nets
from alignstat.errors import DimensionMismatch, RankDeficient
from alignstat.grassmann import (
    Subspace,
    batch_canonical_angle,
    canonical_angle,
    chart_regular,
    chart_slopes,
    min_canonical_angle,
    orthonormalize,
    sample_orthogonal_matrix,
    sample_uniform_angles,
    sample_uniform_bases,
    sample_uniform_charts,
    sample_uniform_frames,
    sample_uniform_subspace,
    span_normal_form,
    subspace_from_normal_form,
)
from alignstat.holder import HolderParams, graph_lift, random_class_function
from alignstat.nets import covering_family, packing_family


def line(*coords):
    v = np.asarray(coords, dtype=float)
    return orthonormalize(v.reshape(-1, 1))


class TestOrthonormalize:
    def test_identity_block_unchanged(self):
        raw = np.eye(3)[:, :2]
        sub = orthonormalize(raw)
        assert np.allclose(np.abs(sub.frame), raw)

    def test_scaling_invariance(self):
        raw = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        sub = orthonormalize(raw)
        target = Subspace(np.eye(3)[:, :2])
        assert canonical_angle(sub, target) == 0.0

    def test_random_gaussian_frame_is_orthonormal(self):
        rng = np.random.default_rng(0)
        sub = orthonormalize(rng.standard_normal((5, 2)))
        gram = sub.frame.T @ sub.frame
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_rank_deficient_raises(self):
        raw = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(RankDeficient):
            orthonormalize(raw)


class TestCanonicalAngle:
    def test_identical_lines(self):
        assert canonical_angle(line(1, 0), line(1, 0)) == 0.0

    def test_orthogonal_lines(self):
        assert canonical_angle(line(1, 0), line(0, 1)) == pytest.approx(np.pi / 2)

    def test_diagonal_line(self):
        # oracle: acos of the normalized inner product directly
        expected = np.arccos(np.dot([1, 1] / np.sqrt(2), [1, 0]))
        got = canonical_angle(line(1, 1), line(1, 0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(np.pi / 4, abs=1e-12)

    def test_containment_gives_zero(self):
        h = line(1, 0, 0)
        kk = orthonormalize(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert canonical_angle(h, kk) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            canonical_angle(line(1, 0), line(1, 0, 0))
        big = orthonormalize(np.eye(3)[:, :2])
        with pytest.raises(DimensionMismatch):
            canonical_angle(big, line(1, 0, 0))

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a = sample_uniform_subspace(rng, 2, 4)
            b = sample_uniform_subspace(rng, 2, 4)
            c = sample_uniform_subspace(rng, 2, 4)
            ab = canonical_angle(a, b)
            ba = canonical_angle(b, a)
            assert ab == pytest.approx(ba, abs=1e-10)
            assert ab <= canonical_angle(a, c) + canonical_angle(c, b) + 1e-8

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = sample_uniform_subspace(rng, 2, 5)
            kk = sample_uniform_subspace(rng, 2, 5)
            q = sample_orthogonal_matrix(rng, 5)
            rotated = canonical_angle(Subspace(q @ h.frame), Subspace(q @ kk.frame))
            assert rotated == pytest.approx(canonical_angle(h, kk), abs=1e-8)


# (k1, k2, d): every block shape of the kernel's closed forms and its SVD path
KERNEL_SHAPES = [
    (1, 1, 2), (1, 1, 3), (2, 2, 3), (2, 2, 4), (1, 2, 3), (2, 3, 5), (3, 3, 5),
    # k > d - k: a vector or a 3-by-3 sine block against a 3-by-3 cosine block
    (3, 3, 4), (1, 3, 4), (3, 3, 6),
]


def _scalar_angles(frames, centers):
    """Oracle: (c, t) matrix of canonical_angle over every (center, frame) pair."""
    return np.array(
        [[canonical_angle(Subspace(f), Subspace(c)) for f in frames] for c in centers]
    )


class TestAngleKernel:
    @pytest.mark.parametrize("k1,k2,d", KERNEL_SHAPES)
    def test_matches_scalar_oracle(self, k1, k2, d):
        rng = np.random.default_rng(40 + 10 * k1 + d)
        frames = sample_uniform_frames(rng, 60, k1, d)
        centers = sample_uniform_frames(rng, 8, k2, d)
        want = _scalar_angles(frames, centers)
        for j, center in enumerate(centers):
            assert np.max(np.abs(batch_canonical_angle(frames, center) - want[j])) < 1e-12
        angles, idx = min_canonical_angle(frames, centers)
        assert np.max(np.abs(angles - want.min(axis=1))) < 1e-12
        assert np.array_equal(idx, want.argmin(axis=1))

    @pytest.mark.parametrize("k1,k2,d", KERNEL_SHAPES)
    def test_near_coincident_pairs(self, k1, k2, d):
        # angles ~1e-9: the sine route keeps them to rounding, where acos
        # of a cosine pinned near 1 would be off by ~1e-8
        rng = np.random.default_rng(50 + 10 * k1 + d)
        for center in sample_uniform_frames(rng, 20, k2, d):
            frame = orthonormalize(center[:, :k1] + 1e-9 * rng.standard_normal((d, k1)))
            want = canonical_angle(frame, Subspace(center))
            assert abs(batch_canonical_angle(frame.frame[None], center)[0] - want) < 1e-15

    def test_orthogonal_pairs_and_full_space(self):
        eye = np.eye(4)
        assert batch_canonical_angle(eye[None, :, :2], eye[:, 2:])[0] == pytest.approx(
            np.pi / 2, abs=1e-15
        )
        assert batch_canonical_angle(eye[None, :, :1], eye[:, 1:2])[0] == pytest.approx(
            np.pi / 2, abs=1e-15
        )
        rng = np.random.default_rng(60)
        for k in (1, 2, 3):
            frames = sample_uniform_frames(rng, 30, k, 4)
            assert np.all(batch_canonical_angle(frames, sample_orthogonal_matrix(rng, 4)) == 0.0)

    def test_later_only_is_the_upper_triangle(self):
        rng = np.random.default_rng(61)
        stack = sample_uniform_frames(rng, 40, 2, 4)
        want = _scalar_angles(stack, stack)
        angles, idx = min_canonical_angle(stack, stack, later_only=True)
        for j in range(39):
            assert angles[j] == pytest.approx(want[j, j + 1 :].min(), abs=1e-12)
            assert idx[j] == j + 1 + int(want[j, j + 1 :].argmin())
        assert angles[-1] == np.inf and idx[-1] == -1

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 4)])
    def test_near_orthogonal_members_are_ranked_by_the_full_angle(self, k, d):
        # members at pi/2 - 1e-9 and pi/2 - 2e-9 from the center: their
        # sines agree to rounding (on the axes both round to exactly 1),
        # so the sine screen cannot tell them apart and the re-rank by
        # arctan2 must return the second
        eye = np.eye(d)
        for rot in (eye, sample_orthogonal_matrix(np.random.default_rng(66 + d), d)):
            center = rot @ eye[:, :k]
            members = []
            for delta in (1e-9, 2e-9):
                # e_0 tilted towards the complement axis e_k: largest angle pi/2 - delta
                frame = eye[:, :k].copy()
                frame[:, 0] = np.sin(delta) * eye[:, 0] + np.cos(delta) * eye[:, k]
                members.append(rot @ frame)
            members = np.array(members)
            want = canonical_angle(Subspace(members[1]), Subspace(center))
            assert want == pytest.approx(np.pi / 2 - 2e-9, abs=1e-15)
            angles, idx = min_canonical_angle(members, center[None])
            assert idx[0] == 1 and abs(angles[0] - want) < 1e-15
            # the same pairs in one stack measured against itself
            stack = np.concatenate([center[None], members])
            angles, idx = min_canonical_angle(stack, stack, later_only=True)
            assert idx[0] == 2 and abs(angles[0] - want) < 1e-15
            assert idx[1] == 2 and angles[1] == pytest.approx(1e-9, rel=1e-6)
            assert angles[2] == np.inf and idx[2] == -1

    def test_k3_svd_sees_only_the_winning_pairs(self, monkeypatch):
        # at (3,4) the sine block N^T A is a 1-by-3 vector in closed form;
        # only each center's winning 3-by-3 cosine block reaches the SVD
        rng = np.random.default_rng(65)
        frames = sample_uniform_frames(rng, 400, 3, 4)
        centers = sample_uniform_frames(rng, 25, 3, 4)
        want = _scalar_angles(frames, centers).min(axis=1)
        svd = np.linalg.svd
        stacks = []

        def counting_svd(a, *args, **kwargs):
            stacks.append(a.shape[:-2])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(grassmann.np.linalg, "svd", counting_svd)
        angles, _ = min_canonical_angle(frames, centers)
        # no center goes through the re-rank pass, which would take every pair
        assert np.sin(angles).max() < grassmann._COS_SWITCH
        assert sum(int(np.prod(shape)) for shape in stacks) == len(centers)
        assert np.max(np.abs(angles - want)) < 1e-15

    @pytest.mark.parametrize("budget", [1, 3, 5])
    def test_pair_budget_is_identical(self, monkeypatch, budget):
        # 7 centers and 50 frames: no budget divides them, so the last
        # block and the last chunk of centers are short; 2 frames give
        # blocks of 2 centers and, at budget 5, chunks of 4
        rng = np.random.default_rng(62)
        frames = sample_uniform_frames(rng, 50, 2, 4)
        centers = sample_uniform_frames(rng, 6, 2, 4)
        # a seventh center spanned by a vector orthogonal to frames[0] and
        # one orthogonal to frames[1]: at angle pi/2 from both, so the
        # re-rank pass ranks it against frames[:2]
        perps = [np.linalg.qr(f, mode="complete")[0][:, 2] for f in frames[:2]]
        centers = np.concatenate([centers, np.linalg.qr(np.array(perps).T)[0][None]])
        near, _ = min_canonical_angle(frames[:2], centers)
        assert np.sin(near[-1]) > grassmann._COS_SWITCH

        def run():
            return (
                batch_canonical_angle(frames, centers[0]),
                *min_canonical_angle(frames, centers),
                *min_canonical_angle(frames[:2], centers),
                *min_canonical_angle(frames, frames, later_only=True),
            )

        default = run()
        monkeypatch.setattr(grassmann, "_PAIR_BUDGET", budget)
        for want, got in zip(default, run()):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize(
        "k1,k2,d", [(1, 1, 2), (1, 2, 3), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6)]
    )
    def test_closed_form_shapes_never_call_svd(self, monkeypatch, k1, k2, d):
        # at (2,5) and (2,6) the sine block N^T A is 3-by-2 or 4-by-2 and
        # the angle chart 2-by-3 or 2-by-4: the Gram closed form takes both
        rng = np.random.default_rng(64)
        frames = sample_uniform_frames(rng, 30, k1, d)
        centers = sample_uniform_frames(rng, 4, k2, d)

        def no_svd(*args, **kwargs):
            raise AssertionError("closed-form block fell back to np.linalg.svd")

        monkeypatch.setattr(grassmann.np.linalg, "svd", no_svd)
        batch_canonical_angle(frames, centers[0])
        min_canonical_angle(frames, centers)
        sample_uniform_angles(rng, 30, Subspace(centers[0]))
        if k1 == k2:
            min_canonical_angle(frames, frames, later_only=True)
        if k1 == 2:
            chart_regular(frames[:, :2, :])

    def test_shape_checks(self):
        frames = np.zeros((3, 4, 2))
        with pytest.raises(DimensionMismatch):
            min_canonical_angle(frames, np.zeros((1, 3, 2)))
        with pytest.raises(DimensionMismatch):
            min_canonical_angle(frames, np.zeros((1, 4, 1)))
        with pytest.raises(DimensionMismatch):
            batch_canonical_angle(frames, np.zeros((4, 1)))

    @pytest.mark.parametrize("shape", [(2, 4, 2), (5, 4, 2), (3, 4, 3)])
    def test_later_only_needs_one_stack(self, shape):
        # later_only compares center and frame indices of one stack; two
        # stacks of different shapes would give a triangle over unrelated pairs
        rng = np.random.default_rng(67)
        frames = sample_uniform_frames(rng, 3, 2, 4)
        centers = sample_uniform_frames(rng, *shape[::2], 4)
        with pytest.raises(DimensionMismatch, match="later_only"):
            min_canonical_angle(frames, centers, later_only=True)
        min_canonical_angle(frames, centers)


def _dense_nearest(frames, centers, later_only=False):
    """Oracle for the screen: the sine of every (center, frame) pair, the
    least per center with the lowest index on ties, and a re-rank of
    every pair by the full angle where the winning sine exceeds
    _COS_SWITCH.  The same per-pair arithmetic as the kernel, no screen."""
    t, c, k2 = len(frames), len(centers), centers.shape[2]
    qt = grassmann._complete_bases(centers).transpose(0, 2, 1)
    rows, cols = np.repeat(np.arange(c), t), np.tile(np.arange(t), c)
    # the sine from the complement rows alone, as the kernel takes it:
    # a 1-by-d row block goes through another BLAS routine and rounds apart
    sin_prod = (qt[rows, k2:] @ frames[cols]).transpose(1, 2, 0)
    sin = grassmann._extreme_singular_value(sin_prod, largest=True).reshape(c, t)
    prod = (qt[rows] @ frames[cols]).transpose(1, 2, 0)
    angle = grassmann._product_angle(prod, k2).reshape(c, t)
    if later_only:
        sin[np.tri(c, t, dtype=bool)] = np.inf
        angle[np.tri(c, t, dtype=bool)] = np.inf
    idx = np.argmin(sin, axis=1)
    coarse = sin[np.arange(c), idx] > grassmann._COS_SWITCH
    idx[coarse] = np.argmin(angle[coarse], axis=1)
    best = angle[np.arange(c), idx]
    empty = np.isinf(best)
    idx[empty] = -1
    return best, idx


def _near_copies(rng, frames, delta):
    """Each frame moved to a plane at angle about ``delta`` from it."""
    moved = frames + delta * rng.standard_normal(frames.shape) / np.sqrt(frames[0].size)
    return np.linalg.qr(moved)[0]


# (k1, k2, d) of the screen cases beyond KERNEL_SHAPES: k1 < k2, d = 5 and 6
SCREEN_SHAPES = [(1, 2, 5), (2, 3, 5), (2, 2, 5), (1, 3, 6), (2, 4, 6), (3, 3, 6)]


class TestNearestMemberScreen:
    """The Frobenius-bracket screen of min_canonical_angle drops no pair
    that the dense per-pair argmin of the sine could choose."""

    # fixed before the first run: angles of the kernel against the scalar
    # reference, which rounds differently
    ANGLE_TOL = 1e-12

    @staticmethod
    def _check(frames, centers, later_only=False):
        angles, idx = min_canonical_angle(frames, centers, later_only)
        want, want_idx = _dense_nearest(frames, centers, later_only)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(angles, want)
        return angles, idx

    @pytest.mark.parametrize("k1,k2,d", KERNEL_SHAPES + SCREEN_SHAPES)
    def test_random_frames_match_the_dense_argmin_and_the_scalar_oracle(self, k1, k2, d):
        rng = np.random.default_rng(200 + 10 * k1 + k2 + 100 * d)
        frames = sample_uniform_frames(rng, 70, k1, d)
        centers = sample_uniform_frames(rng, 12, k2, d)
        angles, idx = self._check(frames, centers)
        scalar = _scalar_angles(frames, centers)
        assert np.max(np.abs(angles - scalar.min(axis=1))) < self.ANGLE_TOL
        assert np.max(np.abs(scalar[np.arange(12), idx] - scalar.min(axis=1))) < self.ANGLE_TOL
        if k1 == k2:
            self._check(frames, frames, later_only=True)

    @pytest.mark.parametrize("k,d", [(1, 3), (2, 4), (2, 5), (3, 6)])
    def test_duplicates_and_near_duplicates(self, k, d):
        # every frame three more times: exactly, and moved by 1e-9 and 1e-15
        rng = np.random.default_rng(210 + 10 * k + d)
        base = sample_uniform_frames(rng, 15, k, d)
        stack = np.concatenate(
            [base, base, _near_copies(rng, base, 1e-9), _near_copies(rng, base, 1e-15)]
        )
        order = rng.permutation(len(stack))
        stack = np.ascontiguousarray(stack[order])
        angles, idx = self._check(stack, stack, later_only=True)
        # each copy finds a later copy of itself, except the last copy of each
        assert np.sum(angles < 1e-8) == 3 * 15
        probes = np.concatenate([base, _near_copies(rng, base, 1e-12)])
        angles, idx = self._check(stack, probes)
        assert np.all(angles < 1e-8)
        assert np.array_equal(order[idx] % 15, np.tile(np.arange(15), 2))

    @pytest.mark.parametrize("k,d,eps", [(2, 3, 0.1), (3, 4, 0.34), (1, 3, 0.25), (2, 4, 0.5)])
    def test_grid_packings_whose_pairs_tie(self, k, d, eps):
        # neighbours along different grid axes sit at one angle in exact
        # arithmetic, so rounding decides the ties, and the screen must keep them
        frames = packing_family(k, d, eps).frames
        angles, _ = self._check(frames, frames, later_only=True)
        assert np.isinf(angles[-1])
        probes = sample_uniform_frames(np.random.default_rng(220 + d), 40, k, d)
        self._check(frames, probes)

    def test_coarse_centers_rank_their_kept_pairs_by_the_full_angle(self):
        # random 3-planes in R^6 lie far apart: most winning sines exceed
        # _COS_SWITCH, so most centers go through the re-rank
        rng = np.random.default_rng(230)
        frames = sample_uniform_frames(rng, 30, 3, 6)
        centers = sample_uniform_frames(rng, 20, 3, 6)
        angles, _ = self._check(frames, centers)
        assert np.mean(np.sin(angles) > grassmann._COS_SWITCH) > 0.5
        angles, _ = self._check(frames, frames, later_only=True)
        assert np.mean(np.sin(angles[:-1]) > grassmann._COS_SWITCH) > 0.5

    def test_empty_rows_and_fewer_frames_than_centers(self):
        rng = np.random.default_rng(240)
        frames = sample_uniform_frames(rng, 4, 2, 4)
        centers = sample_uniform_frames(rng, 25, 2, 4)
        self._check(frames, centers)
        self._check(frames[:1], centers)
        angles, idx = min_canonical_angle(frames[:0], centers)
        assert np.all(np.isinf(angles)) and np.all(idx == -1)
        angles, idx = self._check(frames[:1], frames[:1], later_only=True)
        assert np.isinf(angles[0]) and idx[0] == -1

    @pytest.mark.parametrize("budget", [1, 2, 7])
    def test_small_blocks_keep_the_same_pairs(self, monkeypatch, budget):
        # blocks of a few frames: the running row max starts low, and
        # later_only blocks straddle the diagonal at every offset
        monkeypatch.setattr(grassmann, "_PAIR_BUDGET", budget)
        frames = packing_family(2, 3, 0.25).frames
        self._check(frames, frames, later_only=True)
        self._check(frames, sample_uniform_frames(np.random.default_rng(250), 9, 2, 3))

    @pytest.mark.parametrize(
        "k,d,eps,separation",
        [
            (2, 4, 0.2, "0x1.548be67e8f637p-4"),
            (2, 3, 0.4, "0x1.05c4ee28d97a4p-2"),
            (2, 3, 0.2, "0x1.9c5c14f10b6cfp-4"),
            (1, 3, 0.05, "0x1.88a50cf8c88bcp-6"),
        ],
    )
    def test_packing_separations_are_pinned(self, k, d, eps, separation):
        # the separations the dense sine screen measured, bit for bit
        assert packing_family(k, d, eps).separation == float.fromhex(separation)

    def test_memory_stays_flat_when_one_center_spans_many_blocks(self):
        # 3 probes against 300,000 planes: the screen packs one block of
        # frames at a time, so no (c, t) array and no O(t d^2) copy is
        # made; the frames themselves take 19.2 MB.  Bound fixed before
        # the first run.
        frames = sample_uniform_frames(np.random.default_rng(260), 300_000, 2, 4)
        probes = sample_uniform_frames(np.random.default_rng(261), 3, 2, 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            angles, idx = min_canonical_angle(frames, probes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        for probe, angle, i in zip(probes, angles, idx):
            assert abs(batch_canonical_angle(frames, probe).min() - angle) < self.ANGLE_TOL
            assert batch_canonical_angle(frames[i : i + 1], probe)[0] == pytest.approx(angle)

    def test_memory_stays_flat_at_the_separation_cap(self):
        # 6,561 members at (2,4) eps = 0.125, the largest packing whose
        # separation is measured: 21.5 M pairs, a dense (c, t) array of
        # 344 MB.  Bound fixed before the first run.
        fam = packing_family(2, 4, 0.125)
        assert len(fam) == 6561 <= nets._SEPARATION_MEMBER_CAP
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            angles, _ = min_canonical_angle(fam.frames, fam.frames, later_only=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert float(np.min(angles)) == fam.separation

    def test_memory_stays_flat_when_every_pair_ties(self):
        # 2,000 copies of one plane: the bracket keeps all 2 M pairs, so
        # holding them at once would take 48 MB; they reach the exact sine
        # in bounded batches instead.  Bound fixed before the first run.
        stack = np.repeat(sample_uniform_frames(np.random.default_rng(270), 1, 2, 4), 2000, axis=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            angles, idx = min_canonical_angle(stack, stack, later_only=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        # every copy's sines tie exactly, so the next copy wins
        assert np.array_equal(idx, np.r_[np.arange(1, 2000), -1])
        assert np.all(angles[:-1] < 1e-15)


# the closed forms' error bound, fixed before their first comparison
_SVAL_RTOL = 2e-15


class TestExtremeSingularValue:
    @staticmethod
    def _stacks(r, s):
        """Random, near-rank-1, tiny, zero and orthogonal (m, r, s) stacks."""
        rng = np.random.default_rng(70 + 10 * r + s)
        rank1 = rng.uniform(-1, 1, (300, r, 1)) * rng.uniform(-1, 1, (300, 1, s))
        if min(r, s) == 1:
            orthogonal = [sample_uniform_frames(rng, 50, 1, max(r, s)).reshape(50, r, s)]
        elif r != s:
            # orthonormal columns (s = 2) or rows (r = 2)
            frames = sample_uniform_frames(rng, 50, 2, max(r, s))
            orthogonal = [frames if s == 2 else frames.transpose(0, 2, 1)]
        else:
            theta = rng.uniform(0, 2 * np.pi, 50)
            rot = np.stack([np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)])
            rot = rot.T.reshape(50, 2, 2)
            orthogonal = [rot, rot * np.array([1.0, -1.0]), np.array([[[0.0, 1.0], [1.0, 0.0]]])]
        return [
            rng.uniform(-1, 1, (300, r, s)),
            rank1 + 1e-10 * rng.standard_normal((300, r, s)),
            1e-9 * rng.uniform(-1, 1, (300, r, s)),
            np.zeros((5, r, s)),
            *orthogonal,
        ]

    @pytest.mark.parametrize(
        "r,s", [(1, 1), (1, 3), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2), (2, 5), (4, 2)]
    )
    def test_matches_svd(self, r, s):
        for stack in self._stacks(r, s):
            svals = np.linalg.svd(stack, compute_uv=False)
            block = np.ascontiguousarray(stack.transpose(1, 2, 0))
            smax = grassmann._extreme_singular_value(block, largest=True)
            smin = grassmann._extreme_singular_value(block, largest=False)
            tol = _SVAL_RTOL * svals[:, 0]
            assert np.all(np.abs(smax - svals[:, 0]) <= tol)
            assert np.all(np.abs(smin - svals[:, -1]) <= tol)


class TestPerturbationLemmas:
    def test_angle_lipschitz_in_frame_perturbation(self):
        """ang(span u, span v) / max|u_i - v_i| stays bounded as eps -> 0."""
        rng = np.random.default_rng(3)
        k, d = 2, 4
        ratios = {}
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            worst = 0.0
            for _ in range(40):
                u = rng.standard_normal((d, k))
                u /= np.linalg.norm(u, axis=0)
                delta = rng.uniform(-eps, eps, size=(d, k))
                v = u + delta
                ang = canonical_angle(orthonormalize(u), orthonormalize(v))
                worst = max(worst, ang / np.max(np.abs(delta)))
            ratios[eps] = worst
        # bounded by a single constant across four decades
        assert max(ratios.values()) < 50.0
        assert max(ratios.values()) < 4 * min(ratios.values()) + 1.0

    def test_escape_angle_lower_bound(self):
        """ang(sum xi_i u_i, span{u_1..u_k}) >= c min(|xi_{k+1}|, 1)."""
        rng = np.random.default_rng(11)
        d, k = 5, 3
        cs = []
        for _ in range(200):
            q = sample_orthogonal_matrix(rng, d)
            u = q[:, : k + 1]  # well-separated: orthonormal
            xi = rng.uniform(-1.5, 1.5, size=k + 1)
            if abs(xi[k]) < 1e-3:
                continue
            v = u @ xi
            ang = canonical_angle(
                orthonormalize(v.reshape(-1, 1)), orthonormalize(u[:, :k])
            )
            cs.append(ang / min(abs(xi[k]), 1.0))
        assert min(cs) > 0.05


class TestUniformSampling:
    def test_line_angle_uniform_on_g12(self):
        rng = np.random.default_rng(1)
        frames = sample_uniform_frames(rng, 10**4, 1, 2)
        angles = np.mod(np.arctan2(frames[:, 1, 0], frames[:, 0, 0]), np.pi)
        from conftest import ks_statistic_uniform

        assert ks_statistic_uniform(angles, 0.0, np.pi) < 0.02

    def test_full_space_is_single_point(self):
        rng = np.random.default_rng(2)
        sub = sample_uniform_subspace(rng, 3, 3)
        assert canonical_angle(sub, Subspace(np.eye(3))) < 1e-10

    def test_rotation_invariance_two_sample_ks(self):
        rng = np.random.default_rng(5)
        h = Subspace(np.eye(4)[:, :2])
        frames = sample_uniform_frames(rng, 10**4, 2, 4)
        q = sample_orthogonal_matrix(rng, 4)
        rotated = np.einsum("ij,tjk->tik", q, frames)
        a1 = batch_canonical_angle(frames, h.frame)
        a2 = batch_canonical_angle(rotated, h.frame)
        assert stats.ks_2samp(a1, a2).pvalue > 0.01

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_frames_are_the_sign_fixed_qr_factor(self, k):
        for d in (k, k + 1, k + 3):
            frames = sample_uniform_frames(np.random.default_rng(60 + d), 2000, k, d)
            g = np.random.default_rng(60 + d).standard_normal((2000, d, k))
            q, r = np.linalg.qr(g)
            want = q * np.sign(np.einsum("tkk->tk", r))[:, None, :]
            assert np.max(np.abs(frames - want)) < 1e-12
            gram = np.einsum("tdi,tdj->tij", frames, frames)
            assert np.max(np.abs(gram - np.eye(k))) < 1e-13

    @pytest.mark.parametrize("k,d", [(1, 2), (1, 4), (2, 4), (3, 3)])
    def test_one_subspace_is_one_batch_frame(self, k, d):
        # one Gaussian draw behind every sampler: same frame, same stream position
        a, b = np.random.default_rng(70 + d), np.random.default_rng(70 + d)
        assert np.array_equal(
            sample_uniform_subspace(a, k, d).frame, sample_uniform_frames(b, 1, k, d)[0]
        )
        assert np.array_equal(a.standard_normal(3), b.standard_normal(3))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_orthogonal_matrix_is_one_square_frame(self, d):
        a, b = np.random.default_rng(80 + d), np.random.default_rng(80 + d)
        q = sample_orthogonal_matrix(a, d)
        assert np.array_equal(q, sample_uniform_frames(b, 1, d, d)[0])
        assert np.array_equal(a.standard_normal(3), b.standard_normal(3))
        assert np.max(np.abs(q @ q.T - np.eye(d))) < 1e-13

    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 6), (2, 2)])
    def test_angles_are_the_frames_angles_on_the_same_draw(self, k, d):
        # the chart of the rotated draw against the angle kernel on the
        # frames of the same draw: same angles, same stream position
        random_center = sample_uniform_subspace(np.random.default_rng(d), k, d)
        for h in (Subspace(np.eye(d)[:, :k]), random_center):
            a, b = np.random.default_rng(90 + d), np.random.default_rng(90 + d)
            got = sample_uniform_angles(a, 3000, h)
            want = batch_canonical_angle(sample_uniform_frames(b, 3000, k, d), h.frame)
            assert np.max(np.abs(got - want)) < 1e-13
            assert np.array_equal(a.standard_normal(3), b.standard_normal(3))

    def test_batch_matches_single_distribution(self):
        rng = np.random.default_rng(6)
        frames = sample_uniform_frames(rng, 200, 2, 4)
        for i in range(200):
            gram = frames[i].T @ frames[i]
            assert np.max(np.abs(gram - np.eye(2))) < 1e-10


def _grid_raw(fam):
    """The raw grid stack of a packing or covering, rebuilt from each
    member's sigma and n: I_k on the pivot rows, eps n on the rest."""
    m, d, k = fam.frames.shape
    raw = np.zeros((m, d, k))
    rows = np.arange(m)[:, None]
    raw[rows, fam.sigma[:, :k], np.arange(k)] = 1.0
    raw[rows, fam.sigma[:, k:]] = fam.eps * fam.n.reshape(m, d - k, k)
    return raw


def _lift_stack(k):
    params = HolderParams(k, k + 2, 2.0, 1.0, 1)
    rng = np.random.default_rng(90 + k)
    lift = graph_lift(random_class_function(params, rng), params, check=False)
    xs = rng.random((500, k))
    return lift.raw_tangents(xs), lift.tangent_frames(xs)


def _kernel_stacks():
    """(raw, frames) stacks from every caller of orthonormal_frames."""
    for k in (1, 2, 3, 4):
        for d in (k, k + 1, k + 3):
            raw = sample_uniform_bases(np.random.default_rng(10 * k + d), 2000, k, d)
            frames = sample_uniform_frames(np.random.default_rng(10 * k + d), 2000, k, d)
            yield f"gaussian-{k}-{d}", raw, frames
    for fam in (packing_family(1, 3, 0.1), packing_family(2, 4, 0.25),
                covering_family(1, 3, 0.25), covering_family(2, 4, 0.5)):
        yield f"{fam.kind}-{fam.frames.shape}", _grid_raw(fam), fam.frames
    for k in (1, 2, 3):
        yield (f"lift-{k}", *_lift_stack(k))


class TestOrthonormalFrames:
    # fixed before the first run: entrywise on F^T F - I and on the
    # projector difference, and on the strict lower triangle of F^T raw
    # relative to its column's norm
    ORTHO_TOL = 1e-13
    TRIANGLE_TOL = 1e-13
    PROJECTOR_TOL = 1e-12

    @pytest.mark.parametrize("name,raw,frames", list(_kernel_stacks()))
    def test_frames_are_the_positive_qr_factor_of_their_stack(self, name, raw, frames):
        k = raw.shape[2]
        assert np.array_equal(frames, grassmann.orthonormal_frames(raw))
        gram = np.einsum("tdi,tdj->tij", frames, frames)
        assert np.max(np.abs(gram - np.eye(k))) < self.ORTHO_TOL
        r = np.einsum("tdi,tdj->tij", frames, raw)
        lower = np.abs(np.tril(r, -1)) / np.linalg.norm(raw, axis=1)[:, None, :]
        assert np.max(lower, initial=0.0) < self.TRIANGLE_TOL
        assert np.all(np.einsum("tkk->tk", r) > 0.0)
        # the SVD oracle: the left singular vectors span the same plane
        u = np.linalg.svd(raw, full_matrices=False)[0]
        proj = np.einsum("tdi,tei->tde", frames, frames)
        want = np.einsum("tdi,tei->tde", u, u)
        assert np.max(np.abs(proj - want)) < self.PROJECTOR_TOL

    def test_input_is_left_untouched(self):
        # a view laid out as the kernel's own (k, d, m) planes, which a
        # no-copy transpose would write into
        planes = sample_uniform_bases(np.random.default_rng(3), 50, 2, 4).transpose(2, 1, 0)
        raw = np.ascontiguousarray(planes).transpose(2, 1, 0)
        kept = raw.copy()
        grassmann.orthonormal_frames(raw)
        assert np.array_equal(raw, kept)


def chart(w):
    """The chart y = B A^{-1} of one chart-regular subspace."""
    yt, ok = chart_slopes(w.frame[None])
    assert ok[0]
    return yt[0].T


class TestGraphChart:
    def test_read_off_line(self):
        assert chart(line(1, 2, -1)) == pytest.approx(np.array([[2.0], [-1.0]]))

    def test_horizontal_subspace_zero_chart(self):
        w = Subspace(np.eye(4)[:, :2])
        assert np.allclose(chart(w), 0.0)

    def test_axis_aligned_is_singular(self):
        yt, ok = chart_slopes(line(0, 1).frame[None])
        assert not ok[0] and len(yt) == 0

    def test_round_trip_on_uniform_samples(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            w = sample_uniform_subspace(rng, 2, 4)
            back = subspace_from_normal_form(tuple(range(4)), chart(w), 4)
            assert canonical_angle(back, w) < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chart_regular_agrees_with_graph_chart_at_the_threshold(self, k):
        # frames [U diag(s) V^T ; W diag(sqrt(1 - s^2)) V^T] in R^2k have a
        # top block with smallest singular value s[-1], set 1% off RANK_TOL;
        # the other values 0.6 put |det| below RANK_TOL either way
        rng = np.random.default_rng(70 + k)
        for factor, regular in ((1.01, True), (0.99, False)):
            s = np.full(k, 0.6)
            s[-1] = factor * grassmann.RANK_TOL
            for _ in range(20):
                u, v, w = (sample_orthogonal_matrix(rng, k) for _ in range(3))
                top = u @ np.diag(s) @ v.T
                bottom = w @ np.diag(np.sqrt(1.0 - s * s)) @ v.T
                sub = Subspace(np.vstack([top, bottom]))
                assert chart_regular(sub.frame[None, :k, :])[0] == regular
                assert chart_slopes(sub.frame[None])[1][0] == regular


def _near_singular_frames(rng, m, k, d):
    """Frames whose top k-by-k block has condition number up to about 1e9,
    plus a few with an exactly singular top block."""
    raw = rng.standard_normal((m, d, k))
    s = np.ones((m, k))
    s[:, -1] = 10.0 ** -rng.uniform(1.0, 9.0, size=m)
    s[:3, -1] = 0.0
    for i in range(m):
        u, v = sample_orthogonal_matrix(rng, k), sample_orthogonal_matrix(rng, k)
        raw[i, :k] = u @ np.diag(s[i]) @ v.T
    return np.linalg.qr(raw)[0]


class TestChartSlopes:
    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 6)])
    def test_matches_per_matrix_solve(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        frames = np.concatenate(
            [sample_uniform_frames(rng, 300, k, d), _near_singular_frames(rng, 300, k, d)]
        )
        yt, ok = chart_slopes(frames)
        assert np.array_equal(ok, chart_regular(frames[:, :k, :]))
        assert 0 < np.count_nonzero(~ok) < 10
        assert yt.shape == (np.count_nonzero(ok), k, d - k)
        for got, f in zip(yt, frames[ok]):
            a, b = f[:k], f[k:]
            ref = np.linalg.solve(a.T, b.T)
            scale = np.linalg.cond(a) * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 3), (2, 4), (3, 5)])
    def test_graph_chart_unchanged(self, k, d):
        # the chart y = B A^{-1} by one solve per subspace, as it was
        # computed before the shared kernel
        rng = np.random.default_rng(7 * d + k)
        for _ in range(1000):
            w = sample_uniform_subspace(rng, k, d)
            a, b = w.frame[:k], w.frame[k:]
            ref = np.linalg.solve(a.T, b.T).T
            y = chart(w)
            assert y.shape == ref.shape
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.linalg.cond(a) * max(
                1.0, np.max(np.abs(ref))
            )

    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)])
    def test_raw_draw_charts_match_the_frames(self, k, d):
        # the chart of a plane does not depend on its basis, so charts read
        # off the raw Gaussian draw equal those of the orthonormalized
        # frames up to rounding; tolerance fixed before the first run
        tol = 1e-9
        raw_rng, frame_rng = np.random.default_rng(60 + d), np.random.default_rng(60 + d)
        yt, ok = sample_uniform_charts(raw_rng, 20_000, k, d)
        ref, ref_ok = chart_slopes(sample_uniform_frames(frame_rng, 20_000, k, d))
        assert np.array_equal(ok, ref_ok)
        assert yt.shape == ref.shape == (np.count_nonzero(ok), k, d - k)
        assert np.all(np.abs(yt - ref) <= tol * np.maximum(1.0, np.abs(ref)))
        # both generators stand at the same stream position
        assert raw_rng.random() == frame_rng.random()

    @pytest.mark.parametrize("k,d", [(0, 2), (3, 2)])
    def test_raw_draw_charts_check_dimensions(self, k, d):
        with pytest.raises(DimensionMismatch):
            sample_uniform_charts(np.random.default_rng(0), 5, k, d)

    def test_all_singular_stack(self):
        frames = np.zeros((4, 3, 2))
        frames[:, 2, 0] = 1.0
        frames[:, 1, 1] = 1.0
        yt, ok = chart_slopes(frames)
        assert not ok.any()
        assert yt.shape == (0, 2, 1)


class TestSpanNormalForm:
    def test_axis_line_swaps(self):
        sigma, xi, bound = span_normal_form(line(0, 1))
        assert sigma == (1, 0)
        assert bound == 0.0

    def test_diagonal_line(self):
        sigma, xi, bound = span_normal_form(line(1, 1))
        assert sigma == (0, 1)
        assert xi == pytest.approx(np.array([[1.0]]))

    def test_reproduces_subspace_and_bound_stability(self):
        worst = {}
        for seed in (21, 22):
            rng = np.random.default_rng(seed)
            bounds = []
            for _ in range(1000):
                h = sample_uniform_subspace(rng, 2, 4)
                sigma, xi, bound = span_normal_form(h)
                rebuilt = subspace_from_normal_form(sigma, xi, 4)
                assert canonical_angle(rebuilt, h) < 1e-8
                bounds.append(bound)
            worst[seed] = np.quantile(bounds, 0.99)
        assert np.isfinite(list(worst.values())).all()
        lo, hi = sorted(worst.values())
        assert hi / lo < 1.5  # stable 99th percentile across seeds

    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5)])
    def test_maximal_volume_bound_and_round_trip(self, k, d):
        # maximal-volume lemma: every entry of the normal form is at most 1
        frames = sample_uniform_frames(np.random.default_rng(40 + 10 * k + d), 10**4, k, d)
        for frame in frames:
            sigma, xi, bound = span_normal_form(Subspace(frame))
            assert bound <= 1.0 + 1e-12
            assert sorted(sigma) == list(range(d))
            assert list(sigma[:k]) == sorted(sigma[:k]) and list(sigma[k:]) == sorted(sigma[k:])
            rebuilt = subspace_from_normal_form(sigma, xi, d).frame
            # the rebuilt frame spans the same subspace: projecting onto it
            # reproduces the original frame
            assert np.max(np.abs(rebuilt @ (rebuilt.T @ frame) - frame)) < 1e-10

    def test_pivots_are_the_largest_minor_lowest_on_ties(self):
        # span{e0 + e1 + 2 e2}: the minors are 1, 1, 2, so the pivot is axis 2
        sigma, xi, bound = span_normal_form(line(1, 1, 2))
        assert sigma == (2, 0, 1)
        assert xi == pytest.approx(np.array([[0.5], [0.5]]))
        # span{e0 + e2, e1 - e2}: minors {0,1} 1, {0,2} -1, {1,2} 1 tie at 1
        plane = orthonormalize(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]))
        sigma, xi, bound = span_normal_form(plane)
        assert sigma == (0, 1, 2)
        assert xi == pytest.approx(np.array([[1.0, -1.0]]))
        assert bound == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: Subspace(np.ones((2, 3))), DimensionMismatch),
        (lambda: Subspace(np.array([[1.0], [1.0]])), RankDeficient),
        (lambda: orthonormalize(np.ones((2, 3))), DimensionMismatch),
        (lambda: sample_uniform_frames(np.random.default_rng(0), 4, 3, 2), DimensionMismatch),
    ],
    ids=["wide-frame", "non-orthonormal-frame", "orthonormalize-wide",
         "frames-k-above-d"],
)
def test_input_checks(call, error):
    with pytest.raises(error):
        call()


class _DrawSites(ast.NodeVisitor):
    """The innermost enclosing function of every ``standard_normal``
    attribute in a module, ``<module>`` outside any function."""

    def __init__(self):
        self.scope, self.sites = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if node.attr == "standard_normal":
            self.sites.append(self.scope[-1])
        self.generic_visit(node)


def test_the_gaussian_draw_is_made_only_by_the_draw_readings():
    # every uniform plane comes from one Gaussian draw, sample_uniform_bases,
    # read as frames, charts or angles; no other function draws normals
    readings = {"sample_uniform_bases"}
    sites = []
    for path in sorted(Path(grassmann.__file__).parent.glob("*.py")):
        visitor = _DrawSites()
        visitor.visit(ast.parse(path.read_text()))
        sites += [(path.stem, name) for name in visitor.sites]
    assert {name for mod, name in sites if mod == "grassmann"} == readings
    assert all(mod == "grassmann" and name in readings for mod, name in sites), sites
