"""Packing/covering families and measure estimation on G(k, d)."""

import tracemalloc
from itertools import combinations
from math import comb, floor

import numpy as np
import pytest

from alignstat import nets
from alignstat.errors import BudgetExceeded, EmptyFamily, ParamOrder
from alignstat.grassmann import (
    Subspace,
    batch_canonical_angle,
    canonical_angle,
    min_canonical_angle,
    orthonormalize,
    sample_uniform_frames,
    sample_uniform_subspace,
    span_normal_form,
)
from alignstat.nets import (
    ball_measure_estimate,
    chart_cube_measure_estimate,
    covering_family,
    covering_radius_estimate,
    estimate_span_bound,
    export_family_csv,
    family_size,
    packing_family,
    volume_measure_estimates,
)


def line(*coords):
    return orthonormalize(np.asarray(coords, dtype=float).reshape(-1, 1))


class TestPackingFamily:
    def test_three_lines_at_half(self):
        fam = packing_family(1, 2, 0.5)
        assert len(fam) == 3
        targets = [line(1, 0), line(1, 0.5), line(1, 1)]
        for member, target in zip(fam, targets):
            assert canonical_angle(member, target) < 1e-10
        # oracle: the three explicit pairwise angles
        angles = [
            np.arctan(0.5) - 0.0,
            np.arctan(1.0) - 0.0,
            np.arctan(1.0) - np.arctan(0.5),
        ]
        assert fam.separation == pytest.approx(min(angles), abs=1e-12)
        assert fam.separation == pytest.approx(0.3217505543966422, abs=1e-12)

    def test_two_members_at_eps_one(self):
        fam = packing_family(1, 2, 1.0)
        assert len(fam) == 2
        assert fam.separation == pytest.approx(np.pi / 4)

    def test_nine_members_in_r3(self):
        fam = packing_family(1, 3, 0.5)
        assert len(fam) == 9
        # exhaustive pairwise check
        for i in range(9):
            for j in range(i + 1, 9):
                assert canonical_angle(fam[i], fam[j]) >= 0.2

    def test_count_matches_grid_cardinality(self):
        for k, d, eps in [(1, 2, 0.3), (1, 3, 0.4), (2, 3, 0.5), (2, 4, 0.9)]:
            fam = packing_family(k, d, eps)
            assert len(fam) == (int(np.floor(1 / eps)) + 1) ** ((d - k) * k)
            # the packing lemma's cardinality assertion
            assert len(fam) > 0.5 * eps ** (-(d - k) * k)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            packing_family(2, 4, 0.01)

    def test_separation_scales_linearly(self):
        # a full decade of eps
        ratios = [
            packing_family(1, 2, e).separation / e for e in (0.5, 0.25, 0.1, 0.05)
        ]
        assert max(ratios) < 2 * min(ratios)


class TestCoveringFamily:
    def test_count_closed_form(self):
        # signed grid: binom(d,k) * (2*floor(1/eps + 1/2) + 1)^((d-k)k)
        fam = covering_family(1, 2, 0.5)
        assert len(fam) == 2 * (2 * 2 + 1)
        fam = covering_family(1, 3, 0.5)
        assert len(fam) == 3 * (2 * 2 + 1) ** 2

    def test_axis_probe_has_exact_member(self):
        fam = covering_family(1, 2, 0.5)
        (angle,), (idx,) = min_canonical_angle(fam.frames, line(0, 1).frame[None])
        assert angle < 1e-10
        assert fam.sigma[idx].tolist() == [1, 0] and fam.n[idx].tolist() == [0]

    def test_negative_slope_probe_is_covered(self):
        # the sign gap this guards against: span{e1 - 0.35 e2}
        fam = covering_family(1, 2, 0.1)
        (angle,), _ = min_canonical_angle(fam.frames, line(1, -0.35).frame[None])
        assert angle < 3 * 0.1

    def test_covering_radius_stable_across_seeds(self):
        fam = covering_family(2, 3, 0.2)
        radii = [
            covering_radius_estimate(fam, 500, np.random.default_rng(seed))
            for seed in (1, 2)
        ]
        assert max(radii) / 0.2 < 2.0
        assert max(radii) / min(radii) < 1.5

    @pytest.mark.parametrize("k,d,eps", [(1, 2, 0.3), (1, 3, 0.4), (2, 3, 0.2), (2, 4, 0.5)])
    def test_default_count_is_the_c1_one_grid(self, k, d, eps):
        fam = covering_family(k, d, eps)
        assert len(fam) == comb(d, k) * (2 * floor(1 / eps + 1 / 2) + 1) ** ((d - k) * k)

    @pytest.mark.parametrize(
        "k,d,eps",
        [(1, 2, 0.1), (1, 3, 0.2), (2, 3, 0.3), (2, 4, 0.4), (3, 4, 0.5)]
        # 1/eps a half-integer, or within rounding of one
        + [(1, 2, 0.4), (1, 2, np.nextafter(0.4, 0.0)), (1, 2, np.nextafter(0.4, 1.0)),
           (2, 3, 2 / 7), (1, 3, 1 / (4.5 - 1e-15)), (1, 3, 1 / (4.5 + 1e-15))],
    )
    def test_normal_form_names_a_member_within_the_proven_radius(self, k, d, eps):
        # deterministic covering certificate: sigma from the normal form and
        # n = rint(xi / eps) index a member, whose slopes differ from xi by
        # at most eps / 2 entrywise, and sin(angle) <= ||xi - eps n||_2;
        # |xi| <= 1 up to rounding, so |n| <= floor(1/eps + 1/2) up to the
        # covering's slack
        fam = covering_family(k, d, eps)
        reach = floor((1 + nets._XI_SLACK) / eps + 1 / 2)
        assert np.max(np.abs(fam.n)) == reach
        index = {(tuple(s), tuple(n)): i for i, (s, n) in enumerate(zip(fam.sigma, fam.n))}
        radius = np.arcsin(eps * np.sqrt((d - k) * k) / 2)
        frames = sample_uniform_frames(np.random.default_rng(90 + d), 2000, k, d)
        # subspaces whose normal forms have entries +-1, the lemma's extreme
        signs = np.random.default_rng(d).choice([-1.0, 1.0], (50, d - k, k))
        raw = np.concatenate([np.broadcast_to(np.eye(k), (50, k, k)), signs], axis=1)
        for frame in list(frames) + [orthonormalize(m).frame for m in raw]:
            probe = Subspace(frame)
            sigma, xi, _ = span_normal_form(probe)
            n = np.rint(xi / eps).astype(int)
            assert np.max(np.abs(n)) <= reach
            member = fam[index[(sigma, tuple(n.reshape(-1)))]]
            slack = np.linalg.norm(xi - eps * n, 2)
            angle = canonical_angle(probe, member)
            assert np.sin(angle) <= slack + 1e-12
            assert angle <= radius + 1e-12

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            covering_family(2, 4, 0.02)

    def test_2_4_at_eps_0_2_fits_under_the_cap(self):
        # |n| <= floor(1/eps + 1/2) = 5: 6 * 11^4 = 87,846 members; the grid
        # |n| < 2/eps gave 6 * 19^4 = 781,926, and the old empirical
        # c1 = 2.54 gave 6 * 35^4 = 9,003,750
        with pytest.raises(BudgetExceeded, match="87846 members"):
            covering_family(2, 4, 0.2, cap=87845)

    def test_fewer_than_one_probe(self):
        fam = covering_family(1, 2, 0.5)
        for probes in (0, -5):
            with pytest.raises(ParamOrder):
                covering_radius_estimate(fam, probes, np.random.default_rng(0))


class TestScalarOracles:
    """Separation and covering radius against scalar loops over canonical_angle."""

    @pytest.mark.parametrize(
        "k,d,eps", [(1, 2, 0.25), (1, 3, 0.5), (2, 3, 0.5), (2, 4, 1.0), (3, 5, 1.0)]
    )
    def test_separation_matches_double_loop(self, k, d, eps):
        fam = packing_family(k, d, eps)
        want = min(canonical_angle(a, b) for a, b in combinations(fam, 2))
        assert fam.separation == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("k,d,eps", [(1, 2, 0.25), (1, 3, 0.5), (2, 3, 0.8), (2, 4, 1.0)])
    def test_covering_radius_matches_double_loop(self, k, d, eps):
        fam = covering_family(k, d, eps)
        radius = covering_radius_estimate(fam, 12, np.random.default_rng(8))
        probes = sample_uniform_frames(np.random.default_rng(8), 12, k, d)
        want = max(min(canonical_angle(Subspace(p), m) for m in fam) for p in probes)
        assert radius == pytest.approx(want, abs=1e-12)

    def test_3_4_probes_find_the_nearest_member_within_the_proven_radius(self):
        fam = covering_family(3, 4, 0.2)
        radius = covering_radius_estimate(fam, 300, np.random.default_rng(5))
        probes = sample_uniform_frames(np.random.default_rng(5), 300, 3, 4)
        angles, idx = min_canonical_angle(fam.frames, probes)
        assert radius == angles.max() <= np.arcsin(0.2 * np.sqrt(3) / 2)
        # The scalar oracle runs on the members that can be nearest: with
        # r = |P_probe - P_member|_F / sqrt(2), sin of the largest angle
        # lies in [r / sqrt(k), r], so a member whose lower end exceeds the
        # least upper end is farther than some other member.  Ties between
        # coinciding members may swap, so angles are compared, not indices.
        proj = fam.frames @ fam.frames.transpose(0, 2, 1)
        for probe, angle, i in zip(probes, angles, idx):
            r = np.linalg.norm(proj - probe @ probe.T, axis=(1, 2)) / np.sqrt(2)
            near = np.flatnonzero(r / np.sqrt(3) <= r.min() + 1e-12)
            want = min(canonical_angle(Subspace(probe), fam[j]) for j in near)
            assert abs(canonical_angle(Subspace(probe), fam[i]) - want) <= 1e-15
            assert abs(angle - want) <= 1e-15

    def test_chunked_probes_match_one_draw(self, monkeypatch):
        # 40 probes in chunks of 7: the stream and the angles do not change
        def estimate():
            fam = covering_family(2, 3, 0.5)
            return covering_radius_estimate(fam, 40, np.random.default_rng(9))

        whole = estimate()
        monkeypatch.setattr(nets, "_MEASURE_CHUNK", 7)
        assert estimate() == whole


class TestNearest:
    def test_member_itself(self):
        fam = packing_family(1, 2, 0.5)
        (angle,), (idx,) = min_canonical_angle(fam.frames, fam[1].frame[None])
        assert idx == 1
        assert angle < 1e-8

    def test_closer_of_two_adjacent(self):
        fam = packing_family(1, 2, 1.0)  # members at angles 0 and pi/4
        probe = line(np.cos(0.1), np.sin(0.1))
        (angle,), (idx,) = min_canonical_angle(fam.frames, probe.frame[None])
        assert idx == 0
        assert angle == pytest.approx(0.1, abs=1e-10)
        probe = line(np.cos(0.7), np.sin(0.7))
        _, (idx,) = min_canonical_angle(fam.frames, probe.frame[None])
        assert idx == 1

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(17)
        fam = covering_family(1, 3, 0.4)
        for _ in range(100):
            probe = sample_uniform_subspace(rng, 1, 3)
            (angle,), (idx,) = min_canonical_angle(fam.frames, probe.frame[None])
            # independent scalar-loop reimplementation
            best_i, best_a = 0, np.inf
            for i, member in enumerate(fam):
                a = canonical_angle(probe, member)
                if a < best_a - 1e-15:
                    best_i, best_a = i, a
            assert idx == best_i
            assert angle == pytest.approx(best_a, abs=1e-12)


class TestBallMeasure:
    def test_g12_exact_value(self):
        # P(ang <= eps) = 2 eps / pi exactly on G(1, 2)
        rng = np.random.default_rng(23)
        est = ball_measure_estimate(line(1, 0), [np.pi / 4], 10**5, rng)[0]
        assert abs(est.p_hat - 0.5) <= 3 * est.stderr

    def test_whole_space(self):
        rng = np.random.default_rng(3)
        est = ball_measure_estimate(line(1, 0, 0), [np.pi / 2], 2000, rng)[0]
        assert est.p_hat == 1.0

    def test_center_independence(self):
        rng = np.random.default_rng(29)
        h1 = sample_uniform_subspace(rng, 2, 4)
        h2 = sample_uniform_subspace(rng, 2, 4)
        e1 = ball_measure_estimate(h1, [0.5], 10**5, np.random.default_rng(101))[0]
        e2 = ball_measure_estimate(h2, [0.5], 10**5, np.random.default_rng(102))[0]
        joint = np.hypot(e1.stderr, e2.stderr)
        assert abs(e1.p_hat - e2.p_hat) < 4 * joint

    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 6)])
    def test_hits_equal_the_angle_kernel_on_frames(self, k, d):
        # the chart route against the frame route on the same draw, with
        # radii below, at and above pi/2
        eps_grid = [0.2, 0.5, 0.9, 1.3, 1.5, np.pi / 2, 1.6]
        centers = [Subspace(np.eye(d)[:, :k])]
        centers += [sample_uniform_subspace(np.random.default_rng(60 + s), k, d) for s in (1, 2)]
        for h in centers:
            got = ball_measure_estimate(h, eps_grid, 4000, np.random.default_rng(61))
            frames = sample_uniform_frames(np.random.default_rng(61), 4000, k, d)
            angles = batch_canonical_angle(frames, h.frame)
            assert [est.hits for est in got] == [
                int(np.count_nonzero(angles <= eps)) for eps in eps_grid
            ]
            assert got[-1].hits == 4000


class TestChartCubeMeasure:
    def test_g12_closed_form(self):
        # nu([0, eps]) = atan(eps) / pi for lines in the plane
        rng = np.random.default_rng(31)
        eps = 0.3
        est = chart_cube_measure_estimate(1, 2, [eps], 10**5, rng)[0]
        assert abs(est.p_hat - np.arctan(eps) / np.pi) <= 3 * est.stderr

    def test_sign_symmetry_limit(self):
        # eps -> inf: P(all chart entries >= 0) = 2^-(d-k) for k = 1
        rng = np.random.default_rng(37)
        est2 = chart_cube_measure_estimate(1, 2, [1e9], 10**5, rng)[0]
        assert abs(est2.p_hat - 0.5) <= 4 * est2.stderr
        est3 = chart_cube_measure_estimate(1, 3, [1e9], 10**5, rng)[0]
        assert abs(est3.p_hat - 0.25) <= 4 * est3.stderr

    def test_loglog_slope_g13(self):
        rng = np.random.default_rng(41)
        eps_grid = [0.4, 0.2, 0.1, 0.05]
        ps = [
            chart_cube_measure_estimate(1, 3, [e], 10**5, rng)[0].p_hat for e in eps_grid
        ]
        slope = np.polyfit(np.log(eps_grid), np.log(ps), 1)[0]
        assert slope == pytest.approx(2.0, rel=0.10)


class TestVolumeMeasures:
    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (3, 6)])
    def test_ball_hits_equal_the_ball_estimator_at_the_coordinate_plane(self, k, d):
        # two chunks, radii below, at and above pi/2
        eps_grid = [0.1, 0.4, 0.8, 1.2, np.pi / 2, 1.6]
        for seed in (1, 2, 3):
            ball = volume_measure_estimates(k, d, eps_grid, 70_000, np.random.default_rng(seed))[0]
            expected = ball_measure_estimate(
                Subspace(np.eye(d)[:, :k]), eps_grid, 70_000, np.random.default_rng(seed)
            )
            assert ball == expected

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 4), (3, 5)])
    def test_both_halves_count_the_planes_of_one_draw(self, k, d):
        # per plane of the raw draw G: the chart Y = B A^{-1}, its largest
        # angle to the coordinate plane arctan sigma_max(Y), and the cube test
        eps, trials = 1.0, 5000
        g = np.random.default_rng(5).standard_normal((trials, d, k))
        yt = np.linalg.solve(g[:, :k, :].transpose(0, 2, 1), g[:, k:, :].transpose(0, 2, 1))
        theta = np.arctan(np.linalg.svd(yt, compute_uv=False)[:, 0])
        in_cube = np.all((yt >= 0) & (yt <= eps), axis=(1, 2))
        ball, cube = volume_measure_estimates(k, d, [eps], trials, np.random.default_rng(5))
        assert ball[0].hits == int(np.count_nonzero(theta <= eps))
        assert cube[0].hits == int(np.count_nonzero(in_cube)) > 0


@pytest.mark.parametrize("k,d", [(1, 2), (2, 3), (2, 4), (3, 5)])
def test_measure_estimates_do_not_depend_on_the_chunk(monkeypatch, k, d):
    # the estimators draw from one generator, one after another, so each
    # later one also sees where the chunked draws left the stream
    def estimates():
        rng = np.random.default_rng(47)
        ball = ball_measure_estimate(Subspace(np.eye(d)[:, :k]), [1.2, 1.4, 2.0], 200, rng)
        cube = chart_cube_measure_estimate(k, d, [3.0, 6.0, 20.0], 200, rng)
        shared = volume_measure_estimates(k, d, [1.4, 6.0, 20.0], 2000, rng)
        return ball + cube + shared[0] + shared[1]

    whole = estimates()
    assert all(est.hits > 0 for est in whole)
    monkeypatch.setattr(nets, "_MEASURE_CHUNK", 7)
    assert estimates() == whole


def _grid_estimators(k, d):
    h = Subspace(np.eye(d)[:, :k])
    return [
        lambda grid, trials, rng: ball_measure_estimate(h, grid, trials, rng),
        lambda grid, trials, rng: chart_cube_measure_estimate(k, d, grid, trials, rng),
        # the ball half of the shared draw; its cube half is the line above
        lambda grid, trials, rng: volume_measure_estimates(k, d, grid, trials, rng)[0],
    ]


@pytest.mark.parametrize("k,d", [(1, 2), (2, 4), (3, 5)])
def test_grid_rows_are_one_element_calls_on_the_same_stream(k, d):
    eps_grid = [0.9, 0.3, 1.6, 0.6, 2.5]
    for estimate in _grid_estimators(k, d):
        rows = estimate(eps_grid, 3000, np.random.default_rng(48))
        for eps, row in zip(eps_grid, rows):
            assert row == estimate([eps], 3000, np.random.default_rng(48))[0]
        # hits grow with eps: the rows are nested events on one draw
        hits = [row.hits for eps, row in sorted(zip(eps_grid, rows))]
        assert hits == sorted(hits) and hits[-1] > hits[0]


def test_grid_estimates_hold_one_chunk_in_memory():
    # 2^18 (2,4) planes in chunks of 2^16: one chunk's draw is 4.2 MB and
    # a whole draw 16.8 MB, before any copy of it
    eps_grid = np.linspace(0.1, 1.5, 8)
    for estimate in _grid_estimators(2, 4):
        rng = np.random.default_rng(49)
        tracemalloc.start()
        try:
            estimate(eps_grid, 2**18, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


@pytest.mark.parametrize("eps_grid", [[], [[0.1, 0.2]], 0.1])
def test_measure_grid_must_be_a_nonempty_list(eps_grid):
    for estimate in _grid_estimators(1, 2):
        with pytest.raises(ParamOrder, match="eps grid"):
            estimate(eps_grid, 10, np.random.default_rng(50))


@pytest.mark.parametrize("eps", [-0.1, 0.0, np.nan, np.inf])
def test_measure_radius_must_be_finite_and_positive(eps):
    rng = np.random.default_rng(43)
    with pytest.raises(ParamOrder):
        ball_measure_estimate(line(1, 0), [0.1, eps], 10, rng)
    with pytest.raises(ParamOrder):
        chart_cube_measure_estimate(1, 2, [0.1, eps], 10, rng)


@pytest.mark.parametrize("k,d", [(0, 2), (2, 2), (3, 2)])
def test_chart_cube_needs_a_proper_subspace_dimension(k, d):
    # k = d has an empty chart, which every draw would hit
    with pytest.raises(ParamOrder, match="need 1 <= k < d"):
        chart_cube_measure_estimate(k, d, [0.1], 100, np.random.default_rng(44))


def test_span_bound_deterministic_and_modest():
    # the maximal-volume normal form proves c1 = 1 for every (k, d)
    for k, d in [(1, 2), (2, 3), (2, 4), (3, 4), (3, 7)]:
        assert estimate_span_bound(k, d) == 1.0
    for k, d in [(0, 2), (2, 2), (3, 2)]:
        with pytest.raises(ParamOrder):
            estimate_span_bound(k, d)


def test_export_family_csv(tmp_path):
    fam = packing_family(1, 2, 0.5)
    path = tmp_path / "fam.csv"
    export_family_csv(fam, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(fam)
    header = lines[0].split(",")
    assert header[:5] == ["index", "kind", "eps", "sigma", "n"]
    frame0 = np.array([float(v) for v in lines[1].split(",")[5:]]).reshape(2, 1)
    assert np.allclose(frame0, fam[0].frame)


def test_members_are_built_on_demand_from_the_read_only_stack(tmp_path):
    fam = covering_family(2, 3, 0.4)
    assert not fam.frames.flags.writeable
    assert fam.frames.shape == (len(fam), 3, 2)
    assert fam.sigma.shape == (len(fam), 3) and fam.n.shape == (len(fam), 2)
    for i, member in enumerate(fam):
        assert isinstance(member, Subspace)
        assert np.array_equal(member.frame, fam.frames[i])
    # sigma in the outer order, n lexicographic inside each pivot subset
    assert [tuple(s) for s in fam.sigma[:: len(fam) // 3]] == [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
    assert fam.n[:3].tolist() == [[-3, -3], [-3, -2], [-3, -1]]
    # export rows are the arrays, the frame entries exact through repr
    export_family_csv(fam, tmp_path / "fam.csv")
    rows = (tmp_path / "fam.csv").read_text().splitlines()[1:]
    for i in (0, len(fam) // 2, len(fam) - 1):
        cells = rows[i].split(",")
        assert cells[3] == "|".join(map(str, fam.sigma[i]))
        assert cells[4] == "|".join(map(str, fam.n[i]))
        assert [float(v) for v in cells[5:]] == fam.frames[i].reshape(-1).tolist()


@pytest.mark.parametrize("kind", ["packing", "covering"])
@pytest.mark.parametrize("eps", [5e-324, 1e-300])
def test_family_size_gives_a_vast_count_as_a_power_of_ten(kind, eps):
    # 1/eps overflows a float at the subnormal eps, and the count at 1e-300
    # has 301 digits
    with pytest.raises(BudgetExceeded, match=r"would have over 10\^(29\d|3\d\d) members") as info:
        family_size(kind, 1, 2, eps)
    assert len(str(info.value)) < 80


@pytest.mark.parametrize("kind", ["packing", "covering"])
@pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 4)])
def test_family_size_rejects_exactly_the_counts_over_the_cap(kind, k, d):
    # the power-of-ten shortcut never rejects a count the cap admits
    n_entries = (d - k) * k
    for eps in np.geomspace(1e-8, 1.0, 400):
        per_entry = (floor(1 / eps) + 1 if kind == "packing"
                     else 2 * floor((1 + 1e-9) / eps + 0.5) + 1)
        count = (1 if kind == "packing" else comb(d, k)) * per_entry**n_entries
        if count <= 10**6:
            assert family_size(kind, k, d, eps) == count
        else:
            with pytest.raises(BudgetExceeded):
                family_size(kind, k, d, eps)


@pytest.mark.parametrize("build", [packing_family, covering_family])
@pytest.mark.parametrize("k,d,eps", [(1, 2, 0.0), (1, 2, 1.5), (2, 2, 0.5), (0, 2, 0.5)])
def test_families_check_eps_and_dimensions(build, k, d, eps):
    with pytest.raises(ParamOrder):
        build(k, d, eps)


def test_covering_radius_needs_members():
    empty = nets.SubspaceFamily(
        0.5, "covering", np.zeros((0, 2, 1)), np.zeros((0, 2), int), np.zeros((0, 1), int)
    )
    with pytest.raises(EmptyFamily):
        covering_radius_estimate(empty, 5, np.random.default_rng(0))


@pytest.mark.parametrize(
    "estimate",
    [
        lambda rng: ball_measure_estimate(Subspace(np.eye(2)[:, :1]), [0.1], 0, rng),
        lambda rng: chart_cube_measure_estimate(1, 2, [0.1], 0, rng),
    ],
    ids=["ball", "chart-cube"],
)
def test_measure_estimates_need_a_trial(estimate):
    with pytest.raises(ParamOrder, match="trials"):
        estimate(np.random.default_rng(0))
