"""Jets, bump basis, interpolant construction, membership, graph lifts."""

import os
import subprocess
import sys
from itertools import product
from math import comb, inf, nan
from pathlib import Path

import numpy as np
import pytest
from conftest import angle_margin, fd_jet, random_nodes, value_map

import alignstat
from alignstat import holder
from alignstat.bumps import bump_factors, plateau_derivs
from alignstat.errors import (
    BoxViolation,
    CellCollision,
    DimensionMismatch,
    EpsTooLarge,
    NotInClass,
    OutOfDomain,
    ParamOrder,
)
from alignstat.grassmann import Subspace, canonical_angle, orthonormalize
from alignstat.holder import (
    HolderInterpolant,
    HolderParams,
    JetPoint,
    JetSamples,
    PolyJetFunction,
    build_interpolant,
    bump_basis,
    cell_grid,
    constant_function,
    construction_c2,
    discrepancy_phi,
    graph_lift,
    holder_membership_check,
    multi_index_set,
    random_class_function,
)

P12 = HolderParams(1, 2, 2.0, 1.0, 1)

# (k, d, alpha, r0): k = 1, 2, 3 at r0 = 1 (alpha = 2) and r0 = 2 (alpha = 3)
EDGE_CASES = [(1, 2, 2.0, 1), (2, 3, 2.0, 1), (3, 4, 2.0, 1),
              (1, 2, 3.0, 2), (2, 3, 3.0, 2), (3, 4, 3.0, 2)]


class TestMultiIndexSet:
    def test_k1_r1(self):
        assert multi_index_set(1, 1) == ((0,), (1,))

    def test_k2_r1_order(self):
        assert multi_index_set(2, 1) == ((0, 0), (1, 0), (0, 1))

    def test_counts_match_binomial_sum(self):
        for k in (1, 2, 3):
            for r0 in (0, 1, 2, 3):
                got = len(multi_index_set(k, r0))
                expected = sum(comb(s + k - 1, k - 1) for s in range(r0 + 1))
                assert got == expected

    def test_k2_r2_size(self):
        assert len(multi_index_set(2, 2)) == 6


class TestHolderParams:
    def test_strict_floor_convention(self):
        assert HolderParams(1, 2, 2.0, 1.0, 1).r == 1
        assert HolderParams(1, 2, 2.5, 1.0, 2).r == 2
        assert HolderParams(1, 2, 3.0, 1.0, 1).r == 2

    def test_r0_must_fit_under_r(self):
        with pytest.raises(ParamOrder):
            HolderParams(1, 2, 2.0, 1.0, 2)  # r0=2 > r=1

    @pytest.mark.parametrize(
        "alpha,beta", [(inf, 1.0), (nan, 1.0), (1.0, 1.0), (2.0, inf), (2.0, nan), (2.0, 0.0)]
    )
    def test_alpha_and_beta_must_be_finite(self, alpha, beta):
        with pytest.raises(ParamOrder):
            HolderParams(1, 2, alpha, beta, 1)

    @pytest.mark.parametrize("c2", [inf, nan, 1.0])
    def test_cell_grid_needs_a_finite_c2_above_one(self, c2):
        with pytest.raises(ParamOrder):
            cell_grid(HolderParams(1, 2, 2.0, 1.0, 1), 0.01, c2, clamp=True)


class TestDiscrepancyPhi:
    def test_equal_jets(self):
        y = np.array([[0.3], [0.1]])
        assert discrepancy_phi(y, y, P12) == 0.0

    def test_value_gap_only(self):
        y1 = np.array([[0.3], [0.1]])
        y2 = np.array([[0.4], [0.1]])
        assert discrepancy_phi(y1, y2, P12) == pytest.approx(0.1)

    def test_slope_gap_squares(self):
        y1 = np.array([[0.3], [0.1]])
        y2 = np.array([[0.3], [0.4]])
        assert discrepancy_phi(y1, y2, P12) == pytest.approx(0.09)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        y1, y2 = rng.random((2, 2, 1))
        assert discrepancy_phi(y1, y2, P12) == discrepancy_phi(y2, y1, P12)


def psi_jet(basis, s, t, xs):
    """The t-derivative of the basis bump psi_s at points xs (npts, k): the
    product over coordinates of the ``bump_factors`` entries F[s_i, t_i]."""
    out = np.ones(len(xs))
    for i in range(basis.k):
        out = out * bump_factors(xs[:, i], basis.r0, max(t))[s[i], t[i]]
    return out


class TestBumpBasis:
    def test_kronecker_conditions_at_zero(self):
        basis = bump_basis(HolderParams(2, 4, 2.0, 1.0, 1))
        zero = np.zeros((1, 2))
        for s in basis.index_set:
            for t in basis.index_set:
                val = psi_jet(basis, s, t, zero)[0]
                assert val == (1.0 if s == t else 0.0)

    def test_psi1_value_and_slope(self):
        basis = bump_basis(P12)
        xs = np.array([[0.1], [0.2], [0.0]])
        vals = psi_jet(basis, (1,), (0,), xs)
        # psi_1(x) = x on the plateau |x| <= 1/4
        assert vals == pytest.approx([0.1, 0.2, 0.0])
        slopes = psi_jet(basis, (1,), (1,), xs)
        assert slopes == pytest.approx([1.0, 1.0, 1.0])

    def test_support_vanishes_outside(self):
        basis = bump_basis(HolderParams(2, 3, 2.0, 1.0, 1))
        edge = np.array([[0.5, 0.0], [-0.5, 0.3], [0.7, 0.7], [0.0, -0.62]])
        for s in basis.index_set:
            assert np.all(psi_jet(basis, s, (0, 0), edge) == 0.0)

    def test_norms_cover_observed_sup(self):
        basis = bump_basis(P12)
        xs = np.linspace(-0.5, 0.5, 1009).reshape(-1, 1)
        for s in basis.index_set:
            for t in basis.deriv_set:
                observed = np.max(np.abs(psi_jet(basis, s, t, xs)))
                assert observed <= basis.norms[(s, t)] * 1.001

    @pytest.mark.parametrize("k,d,alpha,r0", [(1, 2, 2.0, 1), (2, 3, 3.0, 2), (3, 4, 2.0, 1)])
    def test_norms_are_the_padded_maxima_of_the_evaluated_table(self, k, d, alpha, r0):
        # the norms behind c2 come from the table jet_grid evaluates: a node
        # whose scaled jet is the unit jet e_s evaluates to psi_s itself
        params = HolderParams(k, d, alpha, 1.0, r0)
        basis = bump_basis(params)
        table = bump_factors(np.linspace(-0.5, 0.5, basis.NORM_POINTS), r0, params.r + 1)
        peak = np.max(np.abs(table), axis=2)
        for s in basis.index_set:
            for t in basis.deriv_set:
                want = np.prod([basis.SAFETY * peak[s[i], t[i]] for i in range(k)])
                assert basis.norms[(s, t)] == want
        eps = 0.2**alpha / construction_c2(params)
        grid = cell_grid(params, eps)
        x = np.full(k, 0.5 * grid.eps_prime)
        u = np.random.default_rng(k).uniform(-0.5, 0.5, (200, k))
        t_all = list(basis.deriv_set)
        for row, s in enumerate(basis.index_set):
            y = np.zeros((len(basis.index_set), d - k))
            y[row] = grid.eps_prime ** -sum(s)
            itp = HolderInterpolant(params, grid, [JetPoint(x, y)])
            got = itp.jet_grid(x + grid.eps_prime * u, t_all)[:, :, 0]
            for col, t in enumerate(t_all):
                want = psi_jet(basis, s, t, u) / grid.eps_prime ** sum(t)
                scale = np.max(np.abs(want))
                assert got[:, col] == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


class TestBuildInterpolant:
    def test_empty_is_zero_function(self):
        itp = build_interpolant([], P12, 1e-7)
        xs = np.linspace(0, 1, 50).reshape(-1, 1)
        assert np.all(itp.jet_grid(xs) == 0.0)
        assert holder_membership_check(itp, P12).passed

    def test_single_node_spec_example(self):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        itp = build_interpolant([JetPoint([0.1], [[0.008], [0.05]])], params, 0.01)
        jet = itp.jet_grid(np.array([[0.1]]))[0]
        assert abs(jet[0, 0] - 0.008) <= 1e-9 * 0.008
        assert abs(jet[1, 0] - 0.05) <= 1e-9 * 0.05

    def test_two_nodes_supports_disjoint(self):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        eps = 0.01
        n0 = JetPoint([0.05], [[0.008], [0.05]])
        n2 = JetPoint([0.25], [[0.006], [0.02]])
        piece0 = build_interpolant([n0], params, eps)
        piece2 = build_interpolant([n2], params, eps)
        both = build_interpolant([n0, n2], params, eps)
        assert both.cells == [(0,), (2,)]
        xs = np.linspace(0, 1, 10**4).reshape(-1, 1)
        v0 = piece0.jet_grid(xs, [(0,)])[:, 0, 0]
        v2 = piece2.jet_grid(xs, [(0,)])[:, 0, 0]
        assert not np.any((v0 != 0.0) & (v2 != 0.0))
        assert both.jet_grid(xs, [(0,)])[:, 0, 0] == pytest.approx(v0 + v2, abs=1e-15)

    def test_cell_collision(self):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        nodes = [
            JetPoint([0.05], [[0.008], [0.05]]),
            JetPoint([0.06], [[0.007], [0.01]]),
        ]
        with pytest.raises(CellCollision):
            build_interpolant(nodes, params, 0.01)

    def test_odd_cell_rejected(self):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        with pytest.raises(CellCollision):
            build_interpolant([JetPoint([0.15], [[0.008], [0.05]])], params, 0.01)

    def test_box_violation(self):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        with pytest.raises(BoxViolation):
            build_interpolant([JetPoint([0.05], [[0.5], [0.05]])], params, 0.01)
        with pytest.raises(BoxViolation):
            build_interpolant([JetPoint([0.05], [[0.008], [-0.01]])], params, 0.01)

    @pytest.mark.parametrize(
        "x,y,error",
        [
            ([nan], [[0.008], [0.05]], OutOfDomain),
            ([0.05], [[nan], [0.05]], BoxViolation),
            ([0.05], [[0.008], [nan]], BoxViolation),
        ],
    )
    def test_nan_node_is_refused(self, x, y, error):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        with pytest.raises(error, match="outside"):
            build_interpolant([JetPoint(x, y)], params, 0.01)

    @pytest.mark.parametrize(
        "index,x,y,error",
        [
            (2, 0.15, [[0.008], [0.05]], CellCollision),  # odd cell 1
            (3, 0.26, [[0.007], [0.01]], CellCollision),  # cell 2, as node 1
            (2, 0.45, [[0.5], [0.05]], BoxViolation),  # value above eps
        ],
    )
    def test_bad_node_after_good_ones(self, index, x, y, error):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)  # eps' just above 0.1
        nodes = [JetPoint([x0], [[0.008], [0.05]]) for x0 in (0.05, 0.25, 0.45, 0.65)]
        assert build_interpolant(nodes, params, 0.01).cells == [(0,), (2,), (4,), (6,)]
        nodes[index] = JetPoint([x], y)
        with pytest.raises(error):
            build_interpolant(nodes, params, 0.01)

    @pytest.mark.parametrize("xs,match", [([[0.05], [0.06]], "share cell"),
                                          ([[0.05], [0.15]], "not on the even grid"),
                                          ([[0.05], [-0.05]], "not on the even grid")])
    def test_direct_construction_rejects_shared_and_off_grid_cells(self, xs, match):
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        grid = cell_grid(params, 0.01)
        nodes = [JetPoint(x, [[0.008], [0.05]]) for x in xs]
        with pytest.raises(CellCollision, match=match):
            HolderInterpolant(params, grid, nodes)

    def test_cells_past_int64_keys_stay_apart(self):
        # 4166667 even cells per axis: 7.2e19 cells in all, past 2^63, and
        # the second cell's flat index is the first's plus exactly 2^64
        params = HolderParams(3, 4, 2.0, 1.0, 1)
        eps = 1.2e-7**2 / construction_c2(params)
        grid = cell_grid(params, eps)
        per_axis = grid.per_axis
        assert grid.cells_total > 2**63
        a = 2**64 // per_axis**2
        b, c = divmod(2**64 - a * per_axis**2, per_axis)
        y = np.array([[0.75 * eps], [0.0], [0.0], [0.0]])
        nodes = [JetPoint((2 * np.array(h) + 0.5) * grid.eps_prime, y)
                 for h in [(0, 0, 0), (a, b, c)]]
        itp = build_interpolant(nodes, params, eps)
        assert itp.cells[1] == (2 * a, 2 * b, 2 * c)
        for node in nodes:
            assert itp.jet_grid(node.x[None])[0, :, 0] == pytest.approx(y[:, 0], rel=1e-9, abs=1e-300)

    def test_eps_too_large(self):
        with pytest.raises(EpsTooLarge):
            build_interpolant([], P12, 0.3)  # certifying c2 makes eps' huge


class TestEvaluateJet:
    def test_reproduces_node_jets(self):
        params = HolderParams(1, 3, 2.0, 5000.0, 1)
        eps = 0.004
        rng = np.random.default_rng(12)
        nodes = random_nodes(params, eps, (1.000001 * eps) ** 0.5, 4, rng)
        itp = build_interpolant(nodes, params, eps)
        for node in itp.nodes:
            jet = itp.jet_grid(node.x[None])[0]
            assert np.max(np.abs(jet - node.y)) <= 1e-9 * max(np.max(np.abs(node.y)), 1e-300)

    def test_zero_function_zero_jet(self):
        itp = build_interpolant([], P12, 1e-7)
        assert np.all(itp.jet_grid(np.array([[0.4]]), P12.index_set())[0] == 0.0)

    def test_finite_difference_agreement_first_order(self):
        # eps sized so the oracle's own truncation (|h'''| step^2 / 6 at
        # step 1e-5) stays a factor below the 1e-6 tolerance
        params = HolderParams(1, 2, 2.0, 2000.0, 1)
        eps = 0.09
        rng = np.random.default_rng(5)
        nodes = random_nodes(params, eps, ((1.000001) * eps) ** 0.5, 2, rng)
        itp = build_interpolant(nodes, params, eps)
        values = value_map(itp, 1)
        for x in rng.random(100):
            analytic = itp.jet_grid(np.array([[x]]))[0, 1, 0]
            numeric = fd_jet(values, np.array([x]), (1,))[0]
            assert abs(analytic - numeric) < 1e-6
            tighter = fd_jet(values, np.array([x]), (1,), step=1e-6)[0]
            assert abs(analytic - tighter) < 3e-8

    def test_finite_difference_agreement_order_two_alpha3(self):
        params = HolderParams(1, 2, 3.0, 5000.0, 2)
        eps = 1e-5  # certifying c2 ~ 3e3 at this beta; eps' ~ 0.31
        rng = np.random.default_rng(6)
        epsp = (construction_c2(params) * eps) ** (1.0 / 3.0)
        nodes = random_nodes(params, eps, epsp, 2, rng)
        itp = build_interpolant(nodes, params, eps)
        assert itp.params.r == 2
        values = value_map(itp, 1)
        for x in rng.random(30):
            analytic = itp.jet_grid(np.array([[x]]), [(2,)])[0, 0, 0]
            numeric = fd_jet(values, np.array([x]), (2,), step=1e-4)[0]
            assert abs(analytic - numeric) < 1e-4

    @pytest.mark.parametrize(
        "k,d,alpha,beta,r0,t_list,step,tol",
        [
            (2, 3, 3.0, 5000.0, 2, [(1, 1), (2, 0), (0, 2)], 1e-4, 1e-3),
            (3, 4, 2.0, 1.0, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1e-5, 1e-5),
        ],
    )
    def test_finite_difference_mixed_partials(self, k, d, alpha, beta, r0, t_list, step, tol):
        params = HolderParams(k, d, alpha, beta, r0)
        eps = 0.3**alpha / construction_c2(params)  # eps' = 0.3
        rng = np.random.default_rng(9)
        itp = build_interpolant(random_nodes(params, eps, 0.3, 4, rng), params, eps)
        # points inside the node supports, away from the cube's faces
        xs = np.concatenate(
            [node.x + itp.eps_prime * rng.uniform(-0.5, 0.5, (10, k)) for node in itp.nodes]
        )
        xs = np.clip(xs, 2 * step, 1 - 2 * step)
        analytic = itp.jet_grid(xs, t_list)
        values = value_map(itp, k)
        for row, t in enumerate(t_list):
            numeric = np.array([fd_jet(values, x, t, step=step) for x in xs])
            scale = np.max(np.abs(analytic[:, row]))
            assert scale > 0
            assert np.max(np.abs(analytic[:, row] - numeric)) <= tol * scale

    @pytest.mark.parametrize(
        "k,d,alpha,r0",
        [(1, 2, 2.0, 1), (2, 3, 2.0, 1), (3, 4, 2.0, 1), (1, 2, 3.0, 2), (2, 4, 3.0, 2),
         (1, 3, 2.5, 1)],
    )
    def test_matches_leibniz_reference(self, k, d, alpha, r0):
        params = HolderParams(k, d, alpha, 1.0, r0)
        eps = 0.2**alpha / construction_c2(params)  # eps' = 0.2
        rng = np.random.default_rng(10 * k + d)
        itp = build_interpolant(random_nodes(params, eps, 0.2, 6, rng), params, eps)
        xs = rng.random((1000, k))
        t_all = multi_index_set(k, params.r + 1)
        got = itp.jet_grid(xs, t_all)
        want = leibniz_jet_grid(itp, xs, t_all)
        scale = np.max(np.abs(want), axis=(0, 2), keepdims=True)
        assert np.all(scale > 0)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("k,d,alpha,r0", EDGE_CASES)
    def test_edges_match_leibniz_reference(self, k, d, alpha, r0):
        itp = edge_interpolant(HolderParams(k, d, alpha, 1.0, r0))
        t_all = multi_index_set(k, itp.params.r + 1)
        xs = edge_points(itp, np.random.default_rng(k + 10 * r0))
        got = itp.jet_grid(xs, t_all)
        want = leibniz_jet_grid(itp, xs, t_all)
        scale = np.max(np.abs(want), axis=(0, 2), keepdims=True)
        assert np.all(scale > 0)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("k,d,alpha,r0", EDGE_CASES)
    def test_unsorted_repeated_orders(self, k, d, alpha, r0):
        itp = edge_interpolant(HolderParams(k, d, alpha, 1.0, r0))
        t_all = multi_index_set(k, itp.params.r + 1)
        rows = [len(t_all) - 1, 0, 2, len(t_all) - 1, 1, 0]
        t_list = [t_all[row] for row in rows]
        xs = edge_points(itp, np.random.default_rng(3))
        got = itp.jet_grid(xs, t_list)
        want = leibniz_jet_grid(itp, xs, t_list)
        scale = np.max(np.abs(want), axis=(0, 2), keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert np.array_equal(got, itp.jet_grid(xs, t_all)[:, rows])

    @pytest.mark.parametrize("k,d,alpha,r0", EDGE_CASES)
    def test_zero_node_map_matches_leibniz_reference(self, k, d, alpha, r0):
        params = HolderParams(k, d, alpha, 1.0, r0)
        itp = build_interpolant([], params, 0.2**alpha / construction_c2(params))
        xs = edge_points(edge_interpolant(params), np.random.default_rng(4))
        t_all = multi_index_set(k, params.r + 1)
        got = itp.jet_grid(xs, t_all)
        assert got.shape == (len(xs), len(t_all), d - k)
        assert np.array_equal(got, leibniz_jet_grid(itp, xs, t_all))
        assert not np.any(got)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 6, 40])
    def test_one_pass_over_nodes(self, monkeypatch, k, count):
        params = HolderParams(k, k + 1, 2.0, 1.0, 1)
        eps = 0.012**2 / construction_c2(params)  # 42 even cells per axis
        rng = np.random.default_rng(count + k)
        itp = build_interpolant(random_nodes(params, eps, 0.012, count, rng), params, eps)
        assert len(itp.nodes) == count
        at = np.array([node.x for node in itp.nodes])
        xs = np.concatenate([at, at + 0.3 * itp.eps_prime, rng.random((50, k))])
        calls = []

        def counted(u, r0, order):
            calls.append(u.size)
            return bump_factors(u, r0, order)

        monkeypatch.setattr(holder, "bump_factors", counted)
        jets = itp.jet_grid(xs)
        assert len(calls) == k
        assert np.count_nonzero(np.any(jets != 0.0, axis=(1, 2))) >= 2 * count


def cell_edge(grid, cell, high):
    """The smallest location in ``cell`` (largest, if ``high``) by the
    grid's own rounding of x / eps'."""
    x = cell * grid.eps_prime if not high else (cell + 1) * grid.eps_prime
    toward = -np.inf if high else np.inf
    while grid.cells(np.array([x]))[0] != cell:
        x = np.nextafter(x, toward)
    while grid.cells(np.array([np.nextafter(x, -toward)]))[0] == cell:
        x = np.nextafter(x, -toward)
    return x


def edge_interpolant(params):
    """Nodes in even cells of a width-0.2 grid, each coordinate at the low
    edge of its cell or at the largest float below the high edge."""
    eps = 0.2**params.alpha / construction_c2(params)
    grid = cell_grid(params, eps)
    rng = np.random.default_rng(params.k)
    cells = [(0,) * params.k, (2,) * params.k, (4,) * params.k,
             (0, 4, 2)[: params.k], (4, 2, 0)[: params.k]]
    nodes = []
    for j, cell in enumerate(dict.fromkeys(cells)):
        x = [cell_edge(grid, c, high=(i + j) % 2 == 1) for i, c in enumerate(cell)]
        y = [rng.uniform(lo, hi, params.dim_out) for lo, hi in grid.bounds]
        nodes.append(JetPoint(x, y))
    return build_interpolant(nodes, params, eps)


def edge_points(itp, rng):
    """Points on and about the node supports' edges: exactly at X +- eps'/2
    on one axis and on all, just inside on one axis, where u + 1/2 is an
    even integer (between two candidate cells), outside [0,1]^k inside and
    beyond the supports, and uniform points in [-0.1, 1.1]^k."""
    k, half = itp.params.k, itp.eps_prime / 2
    pts = []
    for x in (node.x for node in itp.nodes):
        for sign in (-1.0, 1.0):
            pts.append(x + sign * half)
            for i in range(k):
                for frac in (0.5, 0.48, 0.4):
                    pts.append(x + sign * frac * itp.eps_prime * np.eye(k)[i])
        for j in range(4):
            pts.append(np.where(np.arange(k) == j % k, (2 * j - 0.5) * itp.eps_prime, x))
    pts += [np.full(k, -0.05), np.full(k, 1.05), np.full(k, -1.0), np.full(k, 2.0)]
    return np.concatenate([np.array(pts), rng.uniform(-0.1, 1.1, (400, k))])


def leibniz_jet_grid(itp, xs, t_list):
    """Reference: the interpolant's jets by the k-dimensional Leibniz rule,

        d^t g = sum_{t' <= t} C(t, t') d^{t'} [prod_i zeta(u_i)]
                * d^{t - t'} [sum_s c_s u^s / s!],

    looping over every sub-multi-index t' of t instead of factorizing
    over coordinates.
    """
    params = itp.params
    k, r0 = params.k, params.r0
    mis = params.index_set()
    out = np.zeros((xs.shape[0], len(t_list), params.dim_out))
    max_ord = max(max(t) for t in t_list)
    pow_s = np.array([itp.eps_prime ** sum(s) for s in mis])
    for node in itp.nodes:
        coefs = node.y * pow_s[:, None]
        rel = (xs - node.x) / itp.eps_prime
        mask = np.max(np.abs(rel), axis=1) <= 0.5
        if not mask.any():
            continue
        u = rel[mask]
        npts = u.shape[0]
        zeta = [plateau_derivs(u[:, i], max_ord) for i in range(k)]
        upow = []  # upow[i][e] = u_i^e / e!
        for i in range(k):
            tab = np.empty((r0 + 1, npts))
            tab[0] = 1.0
            for e in range(1, r0 + 1):
                tab[e] = tab[e - 1] * u[:, i] / e
            upow.append(tab)
        for row, t in enumerate(t_list):
            acc = np.zeros((npts, params.dim_out))
            for tp in product(*(range(a + 1) for a in t)):
                plateau_part = np.ones(npts)
                for i in range(k):
                    plateau_part = plateau_part * zeta[i][tp[i]]
                rest = tuple(a - b for a, b in zip(t, tp))
                poly = np.zeros((npts, params.dim_out))
                for srow, s in enumerate(mis):
                    if any(q > e for q, e in zip(rest, s)):
                        continue
                    mono = np.ones(npts)
                    for i in range(k):
                        mono = mono * upow[i][s[i] - rest[i]]
                    poly += mono[:, None] * coefs[srow][None, :]
                binom = np.prod([comb(a, b) for a, b in zip(t, tp)])
                acc += binom * plateau_part[:, None] * poly
            out[mask, row, :] += acc / itp.eps_prime ** sum(t)
    return out


class TestMembership:
    def test_zero_function_passes(self):
        report = holder_membership_check(constant_function(1, 0.0), P12)
        assert report.passed
        assert all(v == 0.0 for v in report.norms.values())

    def test_linear_at_the_edge_passes(self):
        beta = 1.0
        f = PolyJetFunction(1, 1, {(0,): np.array([0.0]), (1,): np.array([beta])})
        report = holder_membership_check(f, P12)
        assert report.passed
        assert report.norms[(1,)] == pytest.approx(beta)

    def test_quadratic_fails_increment_bound(self):
        beta = 1.0
        f = PolyJetFunction(1, 1, {(2,): np.array([2 * beta])})
        report = holder_membership_check(f, P12)
        assert not report.passed
        assert report.max_holder_ratio == pytest.approx(4 * beta, rel=1e-9)

    def test_constructed_interpolants_stay_in_class(self):
        params = HolderParams(1, 2, 2.0, 1.0, 1)
        c2 = construction_c2(params)
        eps = 1e-9
        epsp = (c2 * eps) ** 0.5
        rng = np.random.default_rng(77)
        for _ in range(5):
            nodes = random_nodes(params, eps, epsp, 3, rng)
            itp = build_interpolant(nodes, params, eps)
            assert holder_membership_check(itp, params).passed

    @pytest.mark.parametrize(
        "k,d,alpha,grid_n,budget",
        [
            case + (budget,)
            for case in [
                (1, 2, 2.0, 41),
                (1, 3, 3.0, 41),
                (2, 3, 2.0, 9),
                (2, 3, 2.5, 9),
                (2, 4, 2.0, 9),
                (3, 4, 2.0, 6),
            ]
            for budget in [1, 500, holder._MEMBERSHIP_PAIR_BUDGET]
        ]
        # certify's grid, once: the neighbour scan of alpha = 2 reads no budget
        + [(3, 4, 2.0, 13, holder._MEMBERSHIP_PAIR_BUDGET)],
    )
    def test_blocked_scan_equals_dense_scan(self, monkeypatch, k, d, alpha, grid_n, budget):
        monkeypatch.setattr(holder, "_MEMBERSHIP_PAIR_BUDGET", budget)
        params = HolderParams(k, d, alpha, 1.0, 1)
        rng = np.random.default_rng(100 * k + d)
        c2 = construction_c2(params)
        eps = 0.05 / c2
        epsp = (c2 * eps) ** (1 / alpha)
        maps = [random_class_function(params, rng) for _ in range(2)]
        maps += [
            build_interpolant(random_nodes(params, eps, epsp, 3, rng), params, eps)
            for _ in range(2)
        ]
        quadratic = PolyJetFunction(k, d - k, {(2,) + (0,) * (k - 1): np.full(d - k, 2.0)})
        maps.append(quadratic)
        for f in maps:
            report = holder_membership_check(f, params, grid_n=grid_n)
            assert report.max_holder_ratio == dense_max_holder_ratio(f, params, grid_n)
        assert not holder_membership_check(quadratic, params, grid_n=grid_n).passed

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
    @pytest.mark.parametrize("alpha", [2.0, 2.5])
    def test_default_grid_3_4_in_bounded_memory(self, alpha):
        # N = 21^3 = 9261 grid points: one dense N-by-N-by-3 pair array
        # would be 2 GB.  alpha = 2 takes the neighbour scan and alpha = 2.5
        # the blocked all-pairs scan.  The child reads its own peak from
        # VmHWM: getrusage's ru_maxrss of a spawned child starts from the
        # spawning process's peak, which here is the whole test session's.
        code = (
            "import numpy as np\n"
            "from alignstat.holder import HolderParams, holder_membership_check, "
            "random_class_function\n"
            f"params = HolderParams(3, 4, {alpha!r}, 1.0, 1)\n"
            "g = random_class_function(params, np.random.default_rng(34))\n"
            "assert holder_membership_check(g, params).passed\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:')))\n"
        )
        src = str(Path(alignstat.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert int(child.stdout) / 1024 < 150  # VmHWM is in kB


def dense_max_holder_ratio(f, params, grid_n):
    """Reference: the N-by-N increment scan, one dense pair matrix per row."""
    axes = [np.linspace(0.0, 1.0, grid_n)] * params.k
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    t_all = multi_index_set(params.k, params.r)
    jets = f.jet_grid(xs, t_all)
    dx = np.max(np.abs(xs[:, None, :] - xs[None, :, :]), axis=2)
    np.fill_diagonal(dx, np.inf)
    denom = dx ** (params.alpha - params.r)
    max_ratio = 0.0
    for row, t in enumerate(t_all):
        if sum(t) != params.r:
            continue
        vals = jets[:, row, :]
        gaps = np.max(np.abs(vals[:, None, :] - vals[None, :, :]), axis=2)
        max_ratio = max(max_ratio, float(np.max(gaps / denom)))
    return max_ratio


class TestGraphLift:
    def test_flat_lift_is_horizontal(self):
        params = HolderParams(2, 4, 2.0, 1.0, 1)
        lift = graph_lift(constant_function(2, [0.5, 0.5]), params)
        sub = Subspace(lift.tangent_frames(np.array([[0.3, 0.7]]))[0])
        target = orthonormalize(np.eye(4)[:, :2])
        assert canonical_angle(sub, target) < 1e-12
        assert angle_margin(lift, np.array([[0.2, 0.2]])) == pytest.approx(np.pi / 2)

    def test_affine_lift_constant_tangent(self):
        params = HolderParams(1, 2, 2.0, 1.0, 1)
        g = PolyJetFunction(1, 1, {(0,): np.array([0.2]), (1,): np.array([0.5])})
        lift = graph_lift(g, params)
        expected = orthonormalize(np.array([[2.0], [1.0]]))
        for x in (0.0, 0.3, 0.9):
            sub = Subspace(lift.tangent_frames(np.array([[x]]))[0])
            assert canonical_angle(sub, expected) < 1e-12

    def test_not_in_class_raises(self):
        params = HolderParams(1, 2, 2.0, 1.0, 1)
        too_steep = PolyJetFunction(1, 1, {(2,): np.array([5.0])})
        with pytest.raises(NotInClass):
            graph_lift(too_steep, params)

    def test_random_lifts_satisfy_angle_condition(self):
        params = HolderParams(2, 4, 2.0, 1.0, 1)
        c2 = construction_c2(params)
        eps = 0.2 / c2  # eps' ~ 0.45
        epsp = (c2 * eps) ** 0.5
        rng = np.random.default_rng(55)
        floor = 1.0 / (2 * params.beta * params.dim_out)
        for _ in range(100):
            nodes = random_nodes(params, eps, epsp, 2, rng)
            itp = build_interpolant(nodes, params, eps)
            lift = graph_lift(itp, params, check=False)
            assert angle_margin(lift, rng.random((20, 2))) >= floor

    def test_tangent_continuity_linear_rate(self):
        params = HolderParams(1, 2, 2.0, 4.0, 1)
        g = PolyJetFunction(1, 1, {(0,): np.array([0.3]), (2,): np.array([0.4])})
        lift = graph_lift(g, params)
        x0 = np.array([0.31])
        gaps = []
        for h in (1e-2, 1e-3, 1e-4):
            a = Subspace(lift.tangent_frames(x0[None])[0])
            b = Subspace(lift.tangent_frames((x0 + h)[None])[0])
            gaps.append(canonical_angle(a, b))
        assert gaps[0] == pytest.approx(10 * gaps[1], rel=0.05)
        assert gaps[1] == pytest.approx(10 * gaps[2], rel=0.05)


class TestTangentAngleVsJetGap:
    def test_tangent_angle_bounded_by_derivative_gap(self):
        """ang(lift tangent f, lift tangent g) <= c * max_s |d_s f - d_s g|,
        with c stable as the derivative gap refines."""
        params = HolderParams(2, 4, 2.0, 1.0, 1)
        rng = np.random.default_rng(61)
        base = random_class_function(params, rng)
        lift_f = graph_lift(base, params, check=False)
        ratios_by_scale = {}
        for scale in (0.3, 0.1, 0.03, 0.01):
            worst = 0.0
            for _ in range(25):
                bump = random_class_function(params, rng)
                shifted = PolyJetFunction(2, 2, dict(base.coeffs))
                for e, c in bump.coeffs.items():
                    shifted.coeffs[e] = shifted.coeffs.get(e, np.zeros(2)) + scale * c
                lift_g = graph_lift(shifted, params, check=False)
                xs = rng.random((10, 2))
                jf = lift_f.raw_tangents(xs)
                jg = lift_g.raw_tangents(xs)
                for row in range(10):
                    gap = np.max(np.abs(jf[row] - jg[row]))
                    if gap < 1e-12:
                        continue
                    ang = canonical_angle(
                        orthonormalize(jf[row]), orthonormalize(jg[row])
                    )
                    worst = max(worst, ang / gap)
            ratios_by_scale[scale] = worst
        vals = list(ratios_by_scale.values())
        assert max(vals) < 20.0
        assert max(vals) <= 3 * min(vals)


class TestRandomClassFunction:
    @pytest.mark.parametrize("k,d", [(1, 2), (2, 3), (2, 4)])
    def test_membership(self, k, d):
        params = HolderParams(k, d, 2.0, 1.0, 1)
        rng = np.random.default_rng(k * 10 + d)
        for _ in range(5):
            g = random_class_function(params, rng)
            assert holder_membership_check(g, params).passed


def test_build_rejects_misshapen_nodes():
    params = HolderParams(1, 2, 2.0, 2000.0, 1)
    with pytest.raises(DimensionMismatch, match="jet shape"):
        build_interpolant([JetPoint([0.05], [[0.008]])], params, 0.01)
    with pytest.raises(DimensionMismatch, match="location shape"):
        build_interpolant([JetPoint([0.05, 0.5], [[0.008], [0.05]])], params, 0.01)


def test_jet_samples_iterate_as_jet_points_in_order():
    rng = np.random.default_rng(4)
    xs, ys = rng.random((5, 1)), rng.random((5, 2, 1))
    points = list(JetSamples(P12, xs, ys))
    assert len(points) == 5
    for i, point in enumerate(points):
        assert isinstance(point, JetPoint)
        assert np.array_equal(point.x, xs[i]) and np.array_equal(point.y, ys[i])


def _jet_maps_3_4():
    """A one-node (3,4) interpolant and a polynomial class member."""
    params = HolderParams(3, 4, 2.0, 1.0, 1)
    eps = 0.2**2 / construction_c2(params)
    rng = np.random.default_rng(8)
    itp = build_interpolant(random_nodes(params, eps, 0.2, 1, rng), params, eps)
    return itp, random_class_function(params, rng)


@pytest.mark.parametrize("which", [0, 1], ids=["interpolant", "polynomial"])
@pytest.mark.parametrize(
    "xs,t_list,match",
    [
        (np.full((1, 1), 0.5), None, "points"),
        (np.full((2, 4), 0.5), None, "points"),
        (np.full((2, 3, 1), 0.5), None, "points"),
        (np.full((2, 3), 0.5), [(0, 0, 0), (1, 0)], "multi-index"),
        (np.full((2, 3), 5.0), [(0, 0, 0, 0)], "multi-index"),
    ],
    ids=["one-column", "four-columns", "three-dim", "short-order", "long-order-off-support"],
)
def test_jet_grid_rejects_misshapen_queries(which, xs, t_list, match):
    f = _jet_maps_3_4()[which]
    with pytest.raises(DimensionMismatch, match=match):
        f.jet_grid(xs, multi_index_set(3, 1) if t_list is None else t_list)


@pytest.mark.parametrize("which", [0, 1], ids=["interpolant", "polynomial"])
def test_empty_order_list_gives_no_rows(which):
    f = _jet_maps_3_4()[which]
    xs = np.concatenate([f.nodes[0].x[None, :] if which == 0 else np.zeros((1, 3)),
                         np.full((4, 3), 0.5)])
    assert f.jet_grid(xs, []).shape == (5, 0, 1)


def test_one_dimensional_jets_are_one_output_column():
    assert JetPoint([0.5], [0.3, 0.1]).y.shape == (2, 1)
    a, b = np.array([0.3, 0.1]), np.array([0.2, 0.4])
    assert discrepancy_phi(a, b, P12) == discrepancy_phi(a[:, None], b[:, None], P12)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: multi_index_set(0, 1), ParamOrder, "k >= 1"),
        (lambda: JetSamples(P12, np.zeros((3, 2)), np.zeros((3, 2, 1))), ParamOrder, "xs"),
        (lambda: JetSamples(P12, np.zeros((3, 1)), np.zeros((3, 3, 1))), ParamOrder, "ys"),
        (lambda: cell_grid(P12, 0.0), ParamOrder, "eps > 0"),
        (
            lambda: build_interpolant([JetPoint([1.5], [[0.008], [0.05]])],
                                      HolderParams(1, 2, 2.0, 2000.0, 1), 0.01),
            OutOfDomain,
            "outside",
        ),
        (lambda: holder_membership_check(constant_function(1, 0.5), P12, grid_n=1),
         ParamOrder, "grid_n"),
        (lambda: graph_lift(constant_function(1, 0.5), HolderParams(1, 2, 3.0, 1.0, 1)),
         ParamOrder, "alpha = 2"),
    ],
    ids=["index-set-k-0", "samples-xs-shape", "samples-ys-shape", "cell-grid-eps-0",
         "node-outside-cube", "membership-grid-1", "lift-alpha-3"],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
