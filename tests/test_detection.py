"""Generators, both statistics, exponent formulas, moments, tail, fit."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import brute_cell_scan, ks_statistic_uniform, tangent_space
from scipy import stats as sps

from alignstat import detection
from alignstat.detection import (
    binomial_tail_check,
    coupon_moments,
    exponent_rho,
    exponent_rho_dir,
    fit_scaling_exponent,
    generate_alt_jets,
    generate_alt_oriented,
    generate_null_jets,
    generate_null_oriented,
    greedy_cell_statistic,
    oriented_to_jets,
    statistic_eps,
    tube_dp_statistic,
    tube_hit_fraction,
)
from alignstat.errors import (
    BudgetExceeded,
    DegenerateFit,
    EpsTooLarge,
    NotInClass,
    ParamOrder,
    Unsupported,
)
from alignstat.grassmann import canonical_angle, orthonormalize
from alignstat.holder import (
    GraphLift,
    HolderParams,
    JetPoint,
    JetSamples,
    PolyJetFunction,
    cell_grid,
    constant_function,
    discrepancy_phi,
    graph_lift,
    random_class_function,
)

P12 = HolderParams(1, 2, 2.0, 1.0, 1)
UNIT_C2 = 1.0 + 1e-6


class TestExponents:
    def test_planar_quarter(self):
        w, rho = exponent_rho(1, 2, 2, 1)
        assert w == Fraction(3, 2)
        assert rho == Fraction(1, 4)

    def test_line_in_r3(self):
        w, rho = exponent_rho(1, 3, 2, 1)
        assert w == Fraction(3, 2)
        assert rho == Fraction(1, 7)

    def test_surface_in_r3(self):
        w, rho = exponent_rho(2, 3, 2, 1)
        assert w == Fraction(2)
        assert rho == Fraction(1, 3)

    def test_symbolic_cross_check(self):
        # independent reduction: for alpha=2, r0=1, w = 1 + k/2 and
        # rho = k / (k + (d-k)(k+2))
        for k in range(1, 5):
            for d in range(k + 1, 8):
                w, rho = exponent_rho(k, d, 2, 1)
                assert w == 1 + Fraction(k, 2)
                assert rho == Fraction(k, k + (d - k) * (k + 2))

    def test_dir_examples(self):
        assert exponent_rho_dir(1, 2) == Fraction(1, 4)
        assert exponent_rho_dir(1, 3) == Fraction(1, 7)

    def test_dir_identity_sweep(self):
        for d in range(2, 9):
            for k in range(1, d):
                assert exponent_rho(k, d, 2, 1)[1] == exponent_rho_dir(k, d)

    def test_fractional_alpha(self):
        # alpha = 5/2, r = 2: w = 1 + 3/5 + 1/5, rho = 1/(1 + (5/2)*2*(9/5))
        w, rho = exponent_rho(1, 3, Fraction(5, 2), 2)
        assert w == Fraction(9, 5)
        assert rho == Fraction(1, 10)

    def test_param_order(self):
        with pytest.raises(ParamOrder):
            exponent_rho(2, 2, 2, 1)
        with pytest.raises(ParamOrder):
            exponent_rho(1, 2, 2, 2)  # r0 > r


@pytest.mark.parametrize("n", [0, -4])
def test_statistic_eps_needs_a_positive_n(n):
    with pytest.raises(ParamOrder):
        statistic_eps(P12, n)


class TestNullJets:
    def test_empty(self):
        assert len(generate_null_jets(0, P12, np.random.default_rng(0))) == 0

    def test_marginals_uniform(self):
        params = HolderParams(1, 3, 2.0, 1.0, 1)
        samples = generate_null_jets(10**4, params, np.random.default_rng(1))
        assert ks_statistic_uniform(samples.xs[:, 0]) < 0.02
        for j in range(2):
            assert ks_statistic_uniform(samples.ys[:, 0, j]) < 0.02
            assert ks_statistic_uniform(samples.ys[:, 1, j], -1.0, 1.0) < 0.02

    def test_seed_determinism(self):
        a = generate_null_jets(100, P12, np.random.default_rng(5))
        b = generate_null_jets(100, P12, np.random.default_rng(5))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


class TestAltJets:
    def test_zero_planted_matches_null_distribution(self):
        a = generate_alt_jets(500, 0, constant_function(1, 0.5), P12, np.random.default_rng(3))
        assert len(a) == 500

    def test_all_planted_constant(self):
        c = 0.4
        samples = generate_alt_jets(
            50, 50, constant_function(1, c), P12, np.random.default_rng(4)
        )
        assert np.all(samples.ys[:, 0, 0] == c)
        assert np.all(samples.ys[:, 1, 0] == 0.0)

    def test_planted_points_are_interpolated(self):
        params = HolderParams(1, 2, 2.0, 1.0, 1)
        g = random_class_function(params, np.random.default_rng(6))
        samples = generate_alt_jets(40, 40, g, params, np.random.default_rng(7))
        for i in range(len(samples)):
            jet = g.jet_grid(samples.xs[i][None], params.index_set())[0]
            assert discrepancy_phi(samples.ys[i], jet, params) == 0.0

    def test_not_in_class(self):
        bad = PolyJetFunction(1, 1, {(2,): np.array([50.0])})
        with pytest.raises(NotInClass):
            generate_alt_jets(10, 5, bad, P12, np.random.default_rng(8))


class TestOriented:
    def test_null_shapes_and_orthonormal(self):
        s = generate_null_oriented(50, 2, 4, np.random.default_rng(1))
        assert s.z.shape == (50, 4) and s.frames.shape == (50, 4, 2)
        for i in range(50):
            gram = s.frames[i].T @ s.frames[i]
            assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 4)])
    def test_empty_draws_have_stack_shapes(self, k, d):
        rng = np.random.default_rng(3)
        null = generate_null_oriented(0, k, d, rng)
        assert null.z.shape == (0, d) and null.frames.shape == (0, d, k)
        lift = GraphLift(constant_function(k, np.full(d - k, 0.3)), HolderParams(k, d, 2.0, 1.0, 1))
        for n1 in (0, 5):
            s = generate_alt_oriented(5, n1, lift, rng)
            assert s.z.shape == (5, d) and s.frames.shape == (5, d, k)

    def test_planted_point_on_graph_with_tangent(self):
        params = HolderParams(1, 2, 2.0, 4.0, 1)
        g = PolyJetFunction(1, 1, {(0,): np.array([0.3]), (2,): np.array([0.5])})
        lift = graph_lift(g, params)
        s = generate_alt_oriented(30, 30, lift, np.random.default_rng(2))
        for i in range(30):
            x = s.z[i, :1]
            z_expected = lift.point_grid(x[None, :])[0]
            assert np.allclose(s.z[i], z_expected, atol=1e-12)
            w = orthonormalize(s.frames[i])
            assert canonical_angle(w, tangent_space(lift, x)) < 1e-8

    def test_reduction_read_off(self):
        z = np.array([[0.3, 0.7]])
        frame = np.array([[1.0], [2.0]]) / np.sqrt(5.0)
        from alignstat.detection import OrientedSamples

        jets, dropped = oriented_to_jets(OrientedSamples(z, frame[None, :, :]), P12)
        assert dropped == 0
        assert jets.xs[0, 0] == pytest.approx(0.3)
        assert jets.ys[0, 0, 0] == pytest.approx(0.7)
        assert jets.ys[0, 1, 0] == pytest.approx(2.0)

    def test_axis_aligned_dropped(self):
        from alignstat.detection import OrientedSamples

        z = np.array([[0.5, 0.5]])
        frame = np.array([[0.0], [1.0]])
        jets, dropped = oriented_to_jets(OrientedSamples(z, frame[None, :, :]), P12)
        assert dropped == 1 and len(jets) == 0

    def test_plant_then_reduce_interpolates(self):
        params = HolderParams(1, 3, 2.0, 2.0, 1)
        g = random_class_function(params, np.random.default_rng(9))
        lift = graph_lift(g, params)
        oriented = generate_alt_oriented(25, 25, lift, np.random.default_rng(10))
        jets, dropped = oriented_to_jets(oriented, params)
        assert dropped == 0
        for i in range(len(jets)):
            expected = g.jet_grid(jets.xs[i][None], params.index_set())[0]
            assert discrepancy_phi(jets.ys[i], expected, params) < 1e-16

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 3), (2, 4)])
    @pytest.mark.parametrize("kind", ["constant", "random"])
    def test_planted_frames_reduce_to_the_map_jets(self, k, d, kind):
        # the tangent space of x -> (x, g(x)) has graph chart Dg(x): planting
        # frames and reducing them gives the jets planted directly, from the
        # same draws
        params = HolderParams(k, d, 2.0, 2.0, 1)
        if kind == "constant":
            g = constant_function(k, np.full(d - k, 0.3))
        else:
            g = random_class_function(params, np.random.default_rng(10 * k + d))
        n1 = 400
        lift = GraphLift(g, params)
        oriented = generate_alt_oriented(n1, n1, lift, np.random.default_rng(k + d))
        jets, dropped = oriented_to_jets(oriented, params)
        direct = generate_alt_jets(n1, n1, g, params, np.random.default_rng(k + d), check=False)
        assert dropped == 0
        assert np.array_equal(jets.xs, direct.xs)
        assert np.max(np.abs(jets.ys - direct.ys)) <= 1e-12 * np.max(np.abs(direct.ys))


class TestGreedyStatistic:
    def test_empty_samples(self):
        empty = JetSamples(P12, np.zeros((0, 1)), np.zeros((0, 2, 1)))
        sel = greedy_cell_statistic(empty, P12, 100, c2=UNIT_C2)
        assert sel.count == 0

    def test_hand_placed_sample_certified(self):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        n = 100
        eps = statistic_eps(params, n)  # 0.1
        xs = np.array([[0.05]])
        ys = np.array([[[0.75 * eps], [0.3 * math.sqrt(eps)]]])
        sel = greedy_cell_statistic(
            JetSamples(params, xs, ys), params, n, materialize=True
        )
        assert sel.count == 1
        jet = sel.interpolant.jet_grid(np.array([[0.05]]))[0]
        assert np.max(np.abs(jet - ys[0])) < 1e-9 * np.max(ys[0])

    def test_matches_exhaustive_cell_scan(self):
        rng = np.random.default_rng(11)
        p23 = HolderParams(2, 3, 2.0, 0.3, 1)
        for params, n in [(P12, 40), (P12, 100), (P12, 200), (p23, 1000), (p23, 3000)]:
            samples = generate_null_jets(n, params, rng)
            sel = greedy_cell_statistic(samples, params, n, c2=UNIT_C2)
            oracle = brute_cell_scan(samples, params, sel.eps, sel.eps_prime)
            assert sel.selected == oracle
            # first-seen order: materialize feeds the nodes in this order
            assert list(sel.selected.values()) == sorted(oracle.values())

    # _TABLE_PER_POINT picks the route: at 10^12 entries per point every
    # table is small enough, at 0 none is
    ROUTES = pytest.mark.parametrize("per_point", [10**12, 0], ids=["table", "sort"])

    @ROUTES
    def test_cell_counts_match_the_exhaustive_scan_per_owner(self, monkeypatch, per_point):
        monkeypatch.setattr(detection, "_TABLE_PER_POINT", per_point)
        # unsorted owner labels; owner 5 has no sample; values drawn in the
        # box, so that the slope rows decide
        rng = np.random.default_rng(16)
        p23 = HolderParams(2, 3, 2.0, 0.3, 1)
        # three axes: eps' = 0.289 at n = 20000, two even cells per axis
        p34 = HolderParams(3, 4, 2.0, 0.3, 1)
        for params, n, m in [(P12, 2000, 300), (p23, 30000, 600), (p34, 20000, 1000)]:
            grid = cell_grid(params, statistic_eps(params, n), UNIT_C2)
            samples = generate_null_jets(m, params, rng)
            samples.ys[:, 0, :] = rng.uniform(*grid.bounds[0], size=(m, params.dim_out))
            owner = rng.integers(0, 5, size=m)
            assert not grid.clamped

            def exhaustive(xs, ys, owner):
                return [len(brute_cell_scan(JetSamples(params, xs[owner == o], ys[owner == o]),
                                            params, grid.eps, grid.eps_prime)) for o in range(6)]

            want = exhaustive(samples.xs, samples.ys, owner)
            assert detection.cell_counts(grid, samples.xs, samples.ys, owner, 6).tolist() == want
            assert sum(want) > 5
            # trailing locations count as the in-box jet (0.75 eps, zero
            # slopes) the oracle gives them; they reach two cells past the
            # grid on both sides and fall in odd cells too
            reach = 3 * grid.eps_prime
            xs1 = rng.uniform(-reach, 1 + reach, size=(m // 4, params.k))
            ys1 = np.zeros((m // 4,) + samples.ys.shape[1:])
            ys1[:, 0, :] = 0.75 * grid.eps
            xs = np.concatenate([samples.xs, xs1])
            owner = np.concatenate([owner, rng.integers(0, 5, size=m // 4)])
            with_trailing = exhaustive(xs, np.concatenate([samples.ys, ys1]), owner)
            assert detection.cell_counts(grid, xs, samples.ys, owner, 6).tolist() == with_trailing
            assert sum(with_trailing) > sum(want)
            cells = grid.cells(xs1)
            assert np.any(cells < -1) and np.any(cells > grid.grid_max + 1)
            assert np.any(cells % 2 == 1)

    def test_small_sample_oracle_all_subsets(self):
        # <= 12 samples on a fixed coarse grid (n=50 sets the scale)
        rng = np.random.default_rng(13)
        samples = generate_null_jets(12, P12, rng)
        sel = greedy_cell_statistic(samples, P12, 50, c2=UNIT_C2)
        oracle = brute_cell_scan(samples, P12, sel.eps, sel.eps_prime)
        assert sel.count == len(oracle)
        assert sel.selected == oracle

    def test_eps_too_large_raises_then_clamps(self):
        samples = generate_null_jets(50, P12, np.random.default_rng(14))
        with pytest.raises(EpsTooLarge):
            greedy_cell_statistic(samples, P12, 50)  # certifying c2, beta=1
        sel = greedy_cell_statistic(samples, P12, 50, clamp=True)
        assert sel.eps_clamped and sel.cells_total == 1 and sel.count in (0, 1)
        with pytest.raises(EpsTooLarge):
            greedy_cell_statistic(samples, P12, 50, clamp=True, materialize=True)

    def test_cell_keys_past_int64_are_refused(self):
        # k = 3 at n = 1e56: eps' = 1e-7, 5e6 even cells per axis and
        # 1.25e20 in all, past 2^63; the flat key of the second cell is the
        # first's plus exactly 2^64, so int64 keys would make them one cell
        params = HolderParams(3, 4, 2.0, 1.0, 1)
        n = 10**56
        grid = cell_grid(params, statistic_eps(params, n), UNIT_C2)
        per_axis = grid.per_axis
        assert grid.cells_total > 2**63
        a = 2**64 // per_axis**2
        b, c = divmod(2**64 - a * per_axis**2, per_axis)
        xs = (2 * np.array([[0, 0, 0], [a, b, c]]) + 0.5) * grid.eps_prime
        ys = np.zeros((2, len(params.index_set()), 1))
        ys[:, 0, 0] = 0.75 * grid.eps
        samples = JetSamples(params, xs, ys)
        count = str(grid.cells_total)
        with pytest.raises(BudgetExceeded, match=count):
            detection._box_cells(grid, xs, ys)
        with pytest.raises(BudgetExceeded, match=count):
            detection.cell_counts(grid, xs, ys, np.zeros(2, dtype=np.int64), 1)
        with pytest.raises(BudgetExceeded, match=count):
            greedy_cell_statistic(samples, params, n, c2=UNIT_C2)

    def test_set_cell_keys_past_int64_are_refused(self):
        # eps' = 1e-3: about 500^3 even cells fit in the keys, but not once
        # per set of 2^63 / cells_total + 1 sets
        params = HolderParams(3, 4, 2.0, 1.0, 1)
        grid = cell_grid(params, 1e-6 / UNIT_C2, UNIT_C2)
        samples = generate_null_jets(200, params, np.random.default_rng(15))
        samples.ys[:, 0, 0] = 0.75 * grid.eps
        samples.ys[:, 1:, 0] = 0.0
        owner = np.arange(200) % 2
        counts = detection.cell_counts(grid, samples.xs, samples.ys, owner, 2)
        # every jet is in the box, so a set counts its distinct all-even cells
        cells = grid.cells(samples.xs)
        even = np.all(cells % 2 == 0, axis=1)
        want = [len({tuple(c) for c in cells[even & (owner == o)]}) for o in (0, 1)]
        assert counts.tolist() == want and min(want) > 0
        owners = (2**63 - 1) // grid.cells_total + 1
        with pytest.raises(BudgetExceeded, match=str(grid.cells_total)):
            detection.cell_counts(grid, samples.xs, samples.ys, owner, owners)

    def test_raw_cell_keys_past_int64_are_refused(self):
        # the (set, raw cell) keys span owners (grid_max + 3)^3 values,
        # about 8 times owners cells_total: refused even where the
        # even-cell keys would fit
        params = HolderParams(3, 4, 2.0, 1.0, 1)
        grid = cell_grid(params, 1e-6 / UNIT_C2, UNIT_C2)
        owners = (2**63 - 1) // (grid.grid_max + 3) ** 3 + 1
        assert owners * grid.cells_total <= 2**63 - 1
        samples = generate_null_jets(2, params, np.random.default_rng(19))
        with pytest.raises(BudgetExceeded, match=str(grid.cells_total)):
            detection.cell_counts(grid, samples.xs, samples.ys, np.zeros(2, dtype=np.int64), owners)

    def test_materialized_interpolant_reads_the_statistic_grid(self):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        n, m = 10_000, 40
        eps = statistic_eps(params, n)  # eps' just above 0.1
        rng = np.random.default_rng(18)
        ys = np.stack(
            [rng.uniform(eps / 2, eps, (m, 1)), rng.uniform(0.0, math.sqrt(eps), (m, 1))], axis=1
        )
        samples = JetSamples(params, rng.random((m, 1)), ys)
        sel = greedy_cell_statistic(samples, params, n, materialize=True)
        itp = sel.interpolant
        assert sel.count >= 3
        assert (itp.eps, itp.c2, itp.eps_prime) == (sel.eps, sel.c2, sel.eps_prime)
        assert itp.cells == list(sel.selected)

    def test_monotone_in_samples(self):
        rng = np.random.default_rng(15)
        samples = generate_null_jets(300, P12, rng)
        prev = 0
        for m in range(0, 301, 25):
            head = JetSamples(P12, samples.xs[:m], samples.ys[:m])
            sel = greedy_cell_statistic(head, P12, 300, c2=UNIT_C2)
            assert sel.count >= prev
            prev = sel.count


class TestTubeDP:
    def test_no_samples(self):
        empty = JetSamples(P12, np.zeros((0, 1)), np.zeros((0, 2, 1)))
        assert tube_dp_statistic(empty, 1.0, 0.1) == 0

    def test_all_planted_covered(self):
        rng = np.random.default_rng(16)
        n = 80
        params = HolderParams(1, 2, 2.0, 1.0, 1)
        g = random_class_function(params, rng)
        samples = generate_alt_jets(n, n, g, params, rng)
        assert tube_dp_statistic(samples, 1.0, 0.16) == n

    def test_unsupported_k2(self):
        # the DP reads k, alpha and r0 from the samples' parameters
        params = HolderParams(2, 3, 2.0, 1.0, 1)
        empty = JetSamples(params, np.zeros((0, 2)), np.zeros((0, 3, 1)))
        with pytest.raises(Unsupported):
            tube_dp_statistic(empty, 1.0, 0.1)
        third_order = HolderParams(1, 2, 3.0, 1.0, 1)
        samples = generate_null_jets(5, third_order, np.random.default_rng(0))
        with pytest.raises(Unsupported):
            tube_dp_statistic(samples, 1.0, 0.1)

    def test_state_budget(self):
        from alignstat.errors import BudgetExceeded

        samples = generate_null_jets(5, P12, np.random.default_rng(30))
        with pytest.raises(BudgetExceeded):
            tube_dp_statistic(samples, 1000.0, 1e-4)

    @pytest.mark.parametrize("radius", [0, 1, 3, 9, 12])
    def test_window_max_matches_brute_force(self, radius):
        # axis lengths 9 and 7: radius 9 and 12 reach past both ends
        rng = np.random.default_rng(23)
        arr = rng.normal(size=(9, 7, 2))
        arr[rng.random(arr.shape) < 0.3] = -np.inf
        for axis in (0, 1):
            moved = np.moveaxis(arr, axis, 0)
            want = np.stack([
                moved[max(0, i - radius) : i + radius + 1].max(axis=0) for i in range(len(moved))
            ])
            got = detection._sliding_max(arr, radius, axis)
            assert np.array_equal(got, np.moveaxis(want, 0, axis))

    @pytest.mark.parametrize("radius", [0, 1, 3])
    def test_predecessor_step_matches_scalar_loop(self, radius):
        # nu = 5, so radius 3 reaches past both ends of the slope axis
        rng = np.random.default_rng(24)
        nv, nu = 6, 5
        shape = (nv, nu, nv, nu)
        step = detection._predecessor_step(shape, radius)
        for _ in range(2):
            dp = rng.normal(size=shape)
            dp[rng.random(shape) < 0.3] = -np.inf
            for comp in (0, 1):
                axes = (2 * comp, 2 * comp + 1)
                moved = np.moveaxis(dp, axes, (0, 1))
                want = np.full(moved.shape, -np.inf)
                for j2, i2, j, i in product(range(nv), range(nu), range(nv), range(nu)):
                    if abs(j2 - j - (i - nu // 2)) <= radius and abs(i2 - i) <= radius:
                        want[j2, i2] = np.maximum(want[j2, i2], moved[j, i])
                assert np.array_equal(step(dp, comp), np.moveaxis(want, (0, 1), axes))

    def test_dominates_greedy(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(30, 200))
            samples = generate_null_jets(n, P12, rng)
            sel = greedy_cell_statistic(samples, P12, n, c2=UNIT_C2)
            assert tube_dp_statistic(samples, 1.0, sel.eps) >= sel.count

    @pytest.mark.parametrize("beta,eps", [(0.5, 0.25), (1.0, 0.3), (2.3, 0.3)])
    def test_matches_brute_force_paths(self, beta, eps):
        rng = np.random.default_rng(18)
        params = HolderParams(1, 2, 2.0, beta, 1)
        for _ in range(15):
            n = int(rng.integers(1, 13))
            samples = generate_null_jets(n, params, rng)
            got = tube_dp_statistic(samples, beta, eps)
            assert got == _brute_force_dp(samples, beta, eps)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            beta = float(rng.uniform(0.3, 3.5))
            eps = float(rng.uniform(0.12, 0.45))
            params = HolderParams(1, 2, 2.0, beta, 1)
            samples = generate_null_jets(int(rng.integers(1, 13)), params, rng)
            got = tube_dp_statistic(samples, beta, eps)
            assert got == _brute_force_dp(samples, beta, eps), (beta, eps)

    @pytest.mark.parametrize("beta,eps", [(0.5, 0.2), (0.5, 0.25), (1.0, 0.3), (1.3, 0.4)])
    def test_matches_brute_force_paths_two_outputs(self, beta, eps):
        # d - k = 2: the per-coordinate transition and the product weights
        rng = np.random.default_rng(19)
        params = HolderParams(1, 3, 2.0, beta, 1)
        for _ in range(5):
            samples = generate_null_jets(int(rng.integers(1, 13)), params, rng)
            got = tube_dp_statistic(samples, beta, eps)
            assert got == _brute_force_dp(samples, beta, eps)

    @pytest.mark.parametrize("d", [2, 3])
    def test_chunked_weights_match_one_chunk(self, d, monkeypatch):
        rng = np.random.default_rng(21)
        params = HolderParams(1, d, 2.0, 1.0, 1)
        cases = [
            (generate_null_jets(int(rng.integers(50, 400)), params, rng), float(eps))
            for eps in rng.uniform(0.05, 0.3, size=6)
        ]
        whole = [tube_dp_statistic(samples, 1.0, eps) for samples, eps in cases]
        monkeypatch.setattr(detection, "_DP_CHUNK", 3)
        assert [tube_dp_statistic(samples, 1.0, eps) for samples, eps in cases] == whole
        assert max(whole) > 1

    def test_boundary_values_follow_the_tube_rule(self):
        # 1.2 sits exactly on a value-level boundary at eps = 0.3; the
        # exhaustive enumeration admits no profile covering both samples
        beta, eps = 1.0, 0.3
        slope = math.sqrt(eps)
        samples = JetSamples(
            P12, np.array([[0.1], [0.0]]), np.array([[[0.9], [slope]], [[1.2], [-slope]]])
        )
        assert _brute_force_dp(samples, beta, eps) == 1
        assert tube_dp_statistic(samples, beta, eps) == 1

    def test_boundary_values_follow_the_tube_rule_two_outputs(self):
        # the same two samples as a second output coordinate, behind a
        # first coordinate that one state covers for both
        beta, eps = 1.0, 0.3
        slope = math.sqrt(eps)
        samples = JetSamples(
            HolderParams(1, 3, 2.0, beta, 1),
            np.array([[0.1], [0.0]]),
            np.array([[[0.5, 0.9], [0.0, slope]], [[0.5, 1.2], [0.0, -slope]]]),
        )
        assert _brute_force_dp(samples, beta, eps) == 1
        assert tube_dp_statistic(samples, beta, eps) == 1

    @pytest.mark.parametrize("chunk", [detection._DP_CHUNK, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_weights_match_the_tube_rule_at_level_ties(self, d, chunk, monkeypatch):
        # the nearest-level weights against the float tube rule over all
        # levels, on samples at and near level boundaries; with chunk 3
        # the samples left to the exact rule fall on both sides of chunk
        # boundaries
        monkeypatch.setattr(detection, "_DP_CHUNK", chunk)
        exact_rows = _spy_exact_rule(monkeypatch)
        rng = np.random.default_rng(40 + d)
        for beta, eps in [(1.0, 0.2), (0.7, 0.3), (2.0, 0.15)]:
            params = HolderParams(1, d, 2.0, beta, 1)
            samples = _level_samples(params, beta, eps, 300, rng)
            exact_rows.clear()
            got = _dp_weights(samples, beta, eps)
            assert np.array_equal(got, _brute_force_weights(samples, beta, eps)), (beta, eps)
            assert 0 < sum(exact_rows) < (d - 1) * len(samples)

    @pytest.mark.parametrize("d", [2, 3])
    def test_samples_outside_the_unit_interval_are_dropped(self, d):
        params = HolderParams(1, d, 2.0, 1.0, 1)
        rng = np.random.default_rng(45 + d)
        inside = generate_null_jets(40, params, rng)
        # the extra samples copy in-range jets, so they would count if kept
        far = np.array([-0.2, 1.3, -1e9, 3e7])
        xs = np.concatenate([inside.xs, far[:, None]])
        ys = np.concatenate([inside.ys, inside.ys[:4]])
        mixed = JetSamples(params, xs, ys)
        for beta, eps in [(1.0, 0.2), (0.7, 0.3)]:
            assert tube_dp_statistic(mixed, beta, eps) == tube_dp_statistic(inside, beta, eps)
        outside = JetSamples(params, far[:, None], inside.ys[:4])
        assert tube_dp_statistic(outside, 1.0, 0.2) == 0

    @pytest.mark.parametrize(
        "d,n,seed,eps,want",
        [(2, 10_000, 41, None, 51), (2, 30_000, 42, None, 71), (2, 100_000, 43, None, 92),
         (3, 760, 44, 0.15, 24)],
    )
    def test_pinned_values_at_certify_scale(self, d, n, seed, eps, want):
        # computed by the three-level weight step (9 candidates per
        # coordinate, each tested with the float rule) of commit f923fc9,
        # before the nearest-level rewrite
        params = HolderParams(1, d, 2.0, 1.0, 1)
        samples = generate_null_jets(n, params, np.random.default_rng(seed))
        eps = statistic_eps(params, n) if eps is None else eps
        assert tube_dp_statistic(samples, 1.0, eps) == want

    @pytest.mark.parametrize(
        "beta,eps",
        [(-1.0, 0.1), (math.inf, 0.1), (math.nan, 0.1), (1.0, 0.0), (1.0, -0.1),
         (1.0, math.inf), (1.0, math.nan)],
    )
    def test_bad_beta_or_eps(self, beta, eps):
        samples = generate_null_jets(5, P12, np.random.default_rng(31))
        with pytest.raises(ParamOrder):
            tube_dp_statistic(samples, beta, eps)

    def test_zero_beta_is_a_valid_dp(self):
        samples = generate_null_jets(8, P12, np.random.default_rng(32))
        assert tube_dp_statistic(samples, 0.0, 0.2) == _brute_force_dp(samples, 0.0, 0.2)

    def test_weights_peak_is_one_table(self):
        # one int count per (x-cell, state) pair and no temporary of that size
        eps = 1e-3
        samples = generate_null_jets(1000, P12, np.random.default_rng(33))
        delta = math.sqrt(eps)
        n_states = (int(1 / eps) + 1) * (2 * int(1 / delta) + 1)
        table_bytes = math.ceil(1 / delta) * n_states * 8
        tracemalloc.start()
        try:
            tube_dp_statistic(samples, 1.0, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * table_bytes

    def test_covered_indices_are_added_into_the_table(self):
        # (1,3) at eps 0.15: a table of 3 x 35^2 counts and about ten
        # covered indices per sample; held for one final bincount, the
        # indices of these 2e5 samples peaked at 35 MB
        params = HolderParams(1, 3, 2.0, 1.0, 1)
        samples = generate_null_jets(200_000, params, np.random.default_rng(34))
        tracemalloc.start()
        try:
            tube_dp_statistic(samples, 1.0, 0.15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_tie_samples_stay_in_bounded_memory(self, monkeypatch):
        # every sample on a slope level, so all 2e5 take the exact rule,
        # in its own sub-chunks; the bound is the one of the test above
        params = HolderParams(1, 3, 2.0, 1.0, 1)
        eps = 0.15
        rng = np.random.default_rng(35)
        samples = generate_null_jets(200_000, params, rng)
        nuh = int(1.0 / math.sqrt(eps))
        samples.ys[:, 1, :] = rng.integers(-nuh, nuh + 1, (200_000, 2)) * math.sqrt(eps)
        exact_rows = _spy_exact_rule(monkeypatch)
        tracemalloc.start()
        try:
            tube_dp_statistic(samples, 1.0, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(exact_rows) == 2 * 200_000
        assert peak < 8e6

    def test_tie_samples_add_into_the_one_table(self, monkeypatch):
        # the table and bound of test_weights_peak_is_one_table, with every
        # slope on a level: all samples take the exact rule after the
        # low-corner counts are converted, into the same table
        eps = 1e-3
        rng = np.random.default_rng(36)
        samples = generate_null_jets(1000, P12, rng)
        delta = math.sqrt(eps)
        nuh = int(1 / delta)
        samples.ys[:, 1, 0] = rng.integers(-nuh, nuh + 1, 1000) * delta
        n_states = (int(1 / eps) + 1) * (2 * nuh + 1)
        table_bytes = math.ceil(1 / delta) * n_states * 8
        exact_rows = _spy_exact_rule(monkeypatch)
        tracemalloc.start()
        try:
            tube_dp_statistic(samples, 1.0, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(exact_rows) == 1000
        assert peak < 1.6 * table_bytes

    @pytest.mark.parametrize("d", [2, 3])
    def test_fast_rule_adds_one_count_per_slope_combination(self, d, monkeypatch):
        # tie-free null jets: each sample hands the table at most 2^(d-k)
        # counts, one per combination of slope levels, where it covers up
        # to 4^(d-k) states
        beta, eps = 1.0, 0.15
        params = HolderParams(1, d, 2.0, beta, 1)
        samples = generate_null_jets(300, params, np.random.default_rng(37))
        exact_rows = _spy_exact_rule(monkeypatch)
        real_add, counts = np.add, []

        class AddSpy:
            def __call__(self, *args, **kwargs):
                return real_add(*args, **kwargs)

            def at(self, table, index, value):
                counts.append(np.size(index))
                real_add.at(table, index, value)

        monkeypatch.setattr(np, "add", AddSpy())
        got = _dp_weights(samples, beta, eps)
        monkeypatch.undo()
        assert exact_rows == []
        assert 0 < sum(counts) <= 2 ** (d - 1) * len(samples)
        want = _brute_force_weights(samples, beta, eps)
        assert np.array_equal(got, want)
        assert want.sum() > 1.5 * sum(counts)


def _spy_exact_rule(monkeypatch):
    """Record the sample count of every call the DP makes to its exact
    rule, in the returned list."""
    exact_rule, rows = detection._exact_levels, []

    def spy(y0, *args):
        rows.append(len(y0))
        return exact_rule(y0, *args)

    monkeypatch.setattr(detection, "_exact_levels", spy)
    return rows


def _dp_weights(samples, beta, eps):
    """The DP's flat weight table, with the DP's own level grid."""
    delta = math.sqrt(eps)
    return detection._tube_weights(
        samples.xs[:, 0], samples.ys, delta, eps, max(1, math.ceil(1.0 / delta)),
        int(math.floor(1.0 / eps)) + 1, int(math.floor(beta / delta)),
    )


def _brute_force_weights(samples, beta, eps):
    """The weight table by the float tube rule over every level pair: per
    (x-cell, product state) the number of samples it covers."""
    delta = math.sqrt(eps)
    n_cells = max(1, math.ceil(1.0 / delta))
    nv = int(math.floor(1.0 / eps)) + 1
    nuh = int(math.floor(beta / delta))
    nu = 2 * nuh + 1
    weights = np.zeros(n_cells * (nv * nu) ** samples.params.dim_out, dtype=np.int64)
    for x, y in zip(samples.xs[:, 0], samples.ys):
        cell = min(max(math.floor(x / delta), 0), n_cells - 1)
        dx = x - cell * delta
        per_coord = [
            [j * nu + i + nuh for j in range(nv) for i in range(-nuh, nuh + 1)
             if abs(y0 - (j * eps + i * delta * dx)) <= eps and abs(y1 - i * delta) <= delta]
            for y0, y1 in zip(y[0], y[1])
        ]
        for states in product(*per_coord):
            flat = cell
            for s in states:
                flat = flat * nv * nu + s
            weights[flat] += 1
    return weights


def _level_samples(params, beta, eps, n, rng):
    """Null jets with locations moved onto cell edges and out of [0, 1],
    and per coordinate slopes and values moved onto level boundaries, 1e-9
    and 2.5e-6 level units off them (inside and just outside the tie
    band), and out of the level ranges."""
    samples = generate_null_jets(n, params, rng)
    xs, ys = samples.xs, samples.ys
    delta = math.sqrt(eps)
    n_cells = max(1, math.ceil(1.0 / delta))
    nuh = int(math.floor(beta / delta))
    edge = rng.random(n) < 0.1
    xs[edge, 0] = np.minimum(rng.integers(0, n_cells + 1, edge.sum()) * delta, 1.0)
    out = rng.random(n) < 0.05
    xs[out, 0] = rng.choice([-0.2, 1.3, -1e9, 3e7], out.sum())
    dx = xs[:, 0] - np.clip(np.floor(xs[:, 0] / delta), 0, n_cells - 1) * delta
    for comp in range(params.dim_out):
        kind = rng.integers(0, 6, n)
        off = rng.choice([0.0, 0.0, 1e-9, -1e-9, 2.5e-6, -2.5e-6], n)
        slope = np.isin(kind, (0, 2))
        i = rng.integers(-nuh - 1, nuh + 2, n)
        ys[slope, 1, comp] = (i[slope] + off[slope]) * delta
        value = np.isin(kind, (1, 2))
        i = np.rint(ys[:, 1, comp] / delta) + rng.integers(-1, 2, n)
        j = rng.integers(-1, int(1.0 / eps) + 2, n)
        ys[value, 0, comp] = ((j + off) * eps + i * delta * dx)[value]
        wide = kind == 3
        sign = rng.choice([-1.0, 1.0], n)
        ys[wide, 1, comp] = (sign * (beta + rng.uniform(0, 2, n) * delta))[wide]
        high = kind == 4
        ys[high, 0, comp] = rng.choice([-2 * eps, -0.5 * eps, 1 + 0.5 * eps, 1 + 2 * eps], n)[high]
    return samples


def _brute_force_dp(samples, beta, eps):
    """Exhaustive enumeration over all admissible state paths.

    A state holds one (value level, slope level) pair per output coordinate.
    """
    m = samples.params.dim_out
    delta = math.sqrt(eps)
    n_cells = max(1, math.ceil(1.0 / delta))
    nv = int(math.floor(1.0 / eps)) + 1
    nuh = int(math.floor(beta / delta))
    radius = int(math.floor(beta))
    levels = [(j, i) for j in range(nv) for i in range(-nuh, nuh + 1)]
    states = list(product(levels, repeat=m))
    cells = np.clip(np.floor(samples.xs[:, 0] / delta).astype(int), 0, n_cells - 1)

    def covers(state, idx):
        dx = samples.xs[idx, 0] - cells[idx] * delta
        return all(
            abs(samples.ys[idx, 0, comp] - (j * eps + i * delta * dx)) <= eps
            and abs(samples.ys[idx, 1, comp] - i * delta) <= delta
            for comp, (j, i) in enumerate(state)
        )

    weight = [
        {s: sum(covers(s, idx) for idx in np.flatnonzero(cells == c)) for s in states}
        for c in range(n_cells)
    ]

    def step_ok(a, b):
        return all(
            abs(jb - ja - ia) <= radius and abs(ib - ia) <= radius
            for (ja, ia), (jb, ib) in zip(a, b)
        )

    successors = {a: [b for b in states if step_ok(a, b)] for a in states}

    def best_path(c, state, total):
        total += weight[c][state]
        if c == n_cells - 1:
            return total
        # a state with no admissible successor ends no full path
        return max(
            (best_path(c + 1, nxt, total) for nxt in successors[state]), default=-1
        )

    return max(best_path(0, s, 0) for s in states)


class TestCouponMoments:
    def test_two_cells_one_throw(self):
        mean, var = coupon_moments(2, 1)
        assert mean == 1.0 and var == 0.0

    def test_three_cells_two_throws(self):
        mean, var = coupon_moments(3, 2)
        assert mean == pytest.approx(4 / 3)
        assert var == pytest.approx(2 / 9)

    def test_nothing_thrown(self):
        for l in (1, 5, 50):
            mean, var = coupon_moments(l, 0)
            assert mean == float(l) and var == 0.0

    def test_exact_enumeration_small(self):
        for l in range(1, 5):
            for kk in range(0, 5):
                mean_f, var_f = coupon_moments(l, kk)
                mean_e, var_e = _enumerate_coupon(l, kk)
                assert mean_f == pytest.approx(float(mean_e), abs=1e-14)
                assert var_f == pytest.approx(float(var_e), abs=1e-14)

    def test_simulation_agreement(self):
        rng = np.random.default_rng(20)
        for l, kk in [(50, 60), (100, 50)]:
            mean, var = coupon_moments(l, kk)
            trials = 10**5
            throws = rng.integers(0, l, size=(trials, kk))
            empty = l - np.array([np.unique(row).size for row in throws])
            sample_mean = empty.mean()
            stderr = empty.std(ddof=1) / math.sqrt(trials)
            assert abs(sample_mean - mean) <= 4 * stderr


def _enumerate_coupon(l, kk):
    from fractions import Fraction as F

    total = l**kk
    mean = F(0)
    second = F(0)
    for outcome in product(range(l), repeat=kk):
        s = l - len(set(outcome))
        mean += F(s, total)
        second += F(s * s, total)
    return mean, second - mean * mean


class TestBinomialTail:
    def test_example_holds(self):
        res = binomial_tail_check(100, 0.01, 10, 0.1)
        assert res.holds
        assert res.exact_tail == pytest.approx(
            float(sps.binom.sf(10, 100, 0.01)), rel=1e-9
        )

    def test_b_at_least_n_trivial(self):
        res = binomial_tail_check(50, 0.01, 50, 0.1)
        assert res.exact_tail == 0.0 and res.holds

    def test_sweep_against_scipy(self):
        for n in (100, 1000, 10000):
            for p in (1e-3, 1e-2, 0.1):
                b = math.ceil(2.5 * n * p)
                res = binomial_tail_check(n, p, b, 0.1)
                assert res.holds
                assert res.exact_tail == pytest.approx(
                    float(sps.binom.sf(b, n, p)), rel=1e-8
                )

    def test_param_order(self):
        with pytest.raises(ParamOrder):
            binomial_tail_check(100, 0.6, 200, 0.1)
        with pytest.raises(ParamOrder):
            binomial_tail_check(100, 0.1, 15, 0.1)  # b <= 2np


class TestFitScalingExponent:
    def test_exact_power_law(self):
        pts = [(n, n**0.25) for n in (100, 1000, 10000)]
        fit = fit_scaling_exponent(pts)
        assert fit.slope == pytest.approx(0.25, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_constant_statistic(self):
        fit = fit_scaling_exponent([(100, 2.0), (1000, 2.0), (10000, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law_within_two_stderr(self):
        rng = np.random.default_rng(21)
        ns = np.geomspace(100, 10**5, 12)
        stats_vals = ns**0.4 * np.exp(rng.normal(0, 0.1, size=ns.size))
        fit = fit_scaling_exponent(list(zip(ns, stats_vals)))
        assert abs(fit.slope - 0.4) <= 2 * fit.stderr + 1e-12

    def test_matches_scipy_linregress(self):
        rng = np.random.default_rng(24)
        ns = np.geomspace(50, 10**4, 9)
        vals = ns**0.7 * np.exp(rng.normal(0, 0.3, size=ns.size))
        fit = fit_scaling_exponent(list(zip(ns, vals)))
        ref = sps.linregress(np.log(ns), np.log(vals))
        assert fit.slope == pytest.approx(ref.slope, rel=1e-12)
        assert fit.intercept == pytest.approx(ref.intercept, rel=1e-12)
        assert fit.stderr == pytest.approx(ref.stderr, rel=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_scaling_exponent([(100, 1.0), (100, 2.0), (100, 3.0)])
        with pytest.raises(DegenerateFit):
            fit_scaling_exponent([(100, 1.0), (1000, 0.0), (10000, 2.0)])


class TestTubeHitFraction:
    def test_closed_form_for_gentle_function(self):
        # g(x) = 0.5 + 0.2 x (1 - x): no boundary clipping for eps <= 0.4,
        # so p = 2 eps * sqrt(eps) / beta exactly
        params = HolderParams(1, 2, 2.0, 1.0, 1)
        g = PolyJetFunction(
            1, 1, {(0,): np.array([0.5]), (1,): np.array([0.2]), (2,): np.array([-0.2])}
        )
        rng = np.random.default_rng(22)
        for eps in (0.2, 0.1):
            est = tube_hit_fraction(g, params, eps, 10**5, rng)
            assert abs(est.p_hat - 2 * eps ** 1.5) <= 4 * est.stderr


class TestPipelineConsistency:
    def test_oriented_equals_induced_jet_pipeline(self):
        params = P12
        rng = np.random.default_rng(23)
        oriented = generate_null_oriented(500, 1, 2, rng)
        jets, _ = oriented_to_jets(oriented, params)
        sel_a = greedy_cell_statistic(jets, params, 500, c2=UNIT_C2)
        sel_b = greedy_cell_statistic(
            JetSamples(params, jets.xs.copy(), jets.ys.copy()), params, 500, c2=UNIT_C2
        )
        assert sel_a.selected == sel_b.selected


def _samples12(n=3):
    return detection.OrientedSamples(np.full((n, 2), 0.5), np.full((n, 2, 1), np.sqrt(0.5)))


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: exponent_rho(1.0, 2, 2, 1), "integers"),
        (lambda: exponent_rho_dir(2, 2), "k < d"),
        (lambda: generate_null_jets(-1, P12, np.random.default_rng(0)), "n must be"),
        (lambda: generate_null_oriented(-1, 1, 2, np.random.default_rng(0)), "n must be"),
        (
            lambda: generate_alt_jets(3, 4, constant_function(1, 0.5), P12,
                                      np.random.default_rng(0)),
            "n1 <= n",
        ),
        (
            lambda: generate_alt_oriented(3, 4, GraphLift(constant_function(1, 0.5), P12),
                                          np.random.default_rng(0)),
            "n1 <= n",
        ),
        (lambda: detection.OrientedSamples(np.zeros((3, 2)), np.zeros((2, 2, 1))), "must be"),
        (lambda: detection.OrientedSamples(np.zeros((3, 2)), np.zeros((3, 3, 1))), "ambient"),
        (lambda: oriented_to_jets(_samples12(), HolderParams(1, 2, 3.0, 1.0, 1)), "alpha=2"),
        (lambda: oriented_to_jets(_samples12(), HolderParams(1, 3, 2.0, 1.0, 1)), "dimensions"),
        (lambda: coupon_moments(0, 3), "l >= 1"),
    ],
    ids=["rho-float-k", "rho-dir-k-equals-d", "null-jets-negative-n",
         "null-oriented-negative-n", "alt-jets-n1-above-n", "alt-oriented-n1-above-n",
         "oriented-samples-counts", "oriented-samples-ambient", "reduce-alpha-3",
         "reduce-dims", "coupon-no-cells"],
)
def test_input_checks_raise_param_order(call, match):
    with pytest.raises(ParamOrder, match=match):
        call()
