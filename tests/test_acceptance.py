"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every Monte Carlo check runs from a frozen seed, so outcomes
are reproducible; tolerances are the criteria's, not recalibrations.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import fd_jet, random_nodes, value_map

from alignstat.detection import (
    binomial_tail_check,
    coupon_moments,
    exponent_rho,
    exponent_rho_dir,
    generate_alt_jets,
    generate_null_jets,
    greedy_cell_statistic,
    statistic_eps,
    tube_dp_statistic,
    tube_hit_fraction,
)
from alignstat.experiments import (
    EXPERIMENT_C2,
    ExperimentConfig,
    default_alternative,
    records_to_csv,
    run_sweep,
)
from alignstat.grassmann import Subspace
from alignstat.holder import (
    HolderParams,
    build_interpolant,
    construction_c2,
    holder_membership_check,
    random_class_function,
)
from alignstat.nets import (
    ball_measure_estimate,
    covering_family,
    covering_radius_estimate,
    packing_family,
)


def report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_01_oriented_planar_exponent():
    """Oriented (k=1, d=2) greedy slope in [0.17, 0.33] around 1/4."""
    t0 = time.time()
    cfg = ExperimentConfig("oriented", 1, 2, 2.0, 1.0, 1, 0, 0, 20240, 400)
    res = run_sweep(cfg, [1000, 3000, 10000, 30000, 100000], trials=400)
    elapsed = time.time() - t0
    ok = 0.17 <= res.fit.slope <= 0.33 and elapsed < 600
    report(
        f"ACCEPTANCE 1 (oriented planar exponent): {'PASS' if ok else 'FAIL'} — "
        f"slope={res.fit.slope:.4f} in [0.17, 0.33] (target 0.25), "
        f"elapsed={elapsed:.0f}s < 600s"
    )
    assert 0.17 <= res.fit.slope <= 0.33
    assert elapsed < 600


def test_criterion_02_jet_exponents():
    """Jets (1,2) slope within 0.08 of 1/4; (1,3) within 0.05 of 1/7."""
    t0 = time.time()
    cfg12 = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 0, 0, 777, 400)
    res12 = run_sweep(cfg12, [1000, 3000, 10000, 30000, 100000], trials=400)
    t12 = time.time() - t0
    ok12 = abs(res12.fit.slope - 0.25) <= 0.08 and t12 < 1200

    t0 = time.time()
    cfg13 = ExperimentConfig("jets", 1, 3, 2.0, 1.0, 1, 0, 0, 555, 2500)
    res13 = run_sweep(
        cfg13, [10000, 20000, 40000, 80000, 160000, 300000], trials=2500
    )
    t13 = time.time() - t0
    target13 = 1.0 / 7.0
    ok13 = abs(res13.fit.slope - target13) <= 0.05 and t13 < 1200
    report(
        f"ACCEPTANCE 2 (jet exponents): {'PASS' if ok12 and ok13 else 'FAIL'} — "
        f"(1,2) slope={res12.fit.slope:.4f} (|Δ|={abs(res12.fit.slope - 0.25):.4f} <= 0.08, "
        f"{t12:.0f}s); (1,3) slope={res13.fit.slope:.4f} "
        f"(|Δ|={abs(res13.fit.slope - target13):.4f} <= 0.05, {t13:.0f}s)"
    )
    assert abs(res12.fit.slope - 0.25) <= 0.08
    assert t12 < 1200
    assert abs(res13.fit.slope - target13) <= 0.05
    assert t13 < 1200


def test_criterion_03_exponent_identity():
    """exponent_rho(k,d,2,1) == exponent_rho_dir(k,d) exactly, k < d <= 8."""
    checked = 0
    for d in range(2, 9):
        for k in range(1, d):
            w, rho = exponent_rho(k, d, 2, 1)
            assert isinstance(rho, Fraction)
            assert rho == exponent_rho_dir(k, d)
            checked += 1
    report(
        f"ACCEPTANCE 3 (exponent identity): PASS — exact rational equality "
        f"on all {checked} pairs k < d <= 8"
    )


def test_criterion_04_grassmann_volume_law():
    """Ball measure log-log slope = (d-k)k within 10%; (1,2) exact 2eps/pi."""
    grids = {
        (1, 2): [0.4, 0.2, 0.1, 0.05],
        (1, 3): [0.4, 0.2, 0.1, 0.05],
        (2, 3): [0.4, 0.2, 0.1, 0.05],
        (2, 4): [0.6, 0.45, 0.35, 0.29],
    }
    lines = []
    all_ok = True
    for (k, d), eps_grid in grids.items():
        rng = np.random.default_rng(np.random.SeedSequence([4040, k, d]))
        center = Subspace(np.eye(d)[:, :k])
        ps = []
        for eps in eps_grid:
            est = ball_measure_estimate(center, [eps], 10**5, rng)[0]
            ps.append(est.p_hat)
            if (k, d) == (1, 2):
                exact = 2 * eps / np.pi
                assert abs(est.p_hat - exact) <= 3 * max(est.stderr, 1e-12)
        slope = float(np.polyfit(np.log(eps_grid), np.log(ps), 1)[0])
        target = (d - k) * k
        ok = abs(slope - target) <= 0.1 * target
        all_ok &= ok
        lines.append(f"({k},{d}): slope={slope:.3f} target={target}")
        assert ok, f"({k},{d}): slope {slope} vs {target}"
    report(
        f"ACCEPTANCE 4 (volume law): {'PASS' if all_ok else 'FAIL'} — "
        + "; ".join(lines)
        + " (each within 10%; (1,2) matches 2eps/pi within 3 stderr)"
    )


def test_criterion_05_packing_covering_certification():
    """Packing min-angle/eps in a factor-2 band; covering radius/eps bounded."""
    lines = []
    for k, d in [(1, 2), (1, 3), (2, 3)]:
        rng = np.random.default_rng(np.random.SeedSequence([5050, k, d]))
        pack_ratios = []
        cover_ratios = []
        for eps in (0.4, 0.2, 0.1):
            pf = packing_family(k, d, eps)
            assert pf.separation is not None and pf.separation > 0
            pack_ratios.append(pf.separation / eps)
            cf = covering_family(k, d, eps, cap=4 * 10**6)
            radius = covering_radius_estimate(cf, 1000, rng)
            cover_ratios.append(radius / eps)
        assert max(pack_ratios) <= 2 * min(pack_ratios), (k, d, pack_ratios)
        assert max(cover_ratios) <= 2 * min(cover_ratios), (k, d, cover_ratios)
        # the sign-gap failure mode would double this ratio per halving
        assert cover_ratios[-1] <= 2 * cover_ratios[0], (k, d, cover_ratios)
        lines.append(
            f"({k},{d}): pack {min(pack_ratios):.2f}-{max(pack_ratios):.2f}, "
            f"cover {min(cover_ratios):.2f}-{max(cover_ratios):.2f}"
        )
    report(
        "ACCEPTANCE 5 (packing/covering): PASS — min-angle/eps and radius/eps "
        "within factor-2 bands over eps in {0.4, 0.2, 0.1}: " + "; ".join(lines)
    )


def test_criterion_06_interpolant_exactness_and_membership():
    """200 random node sets: exact jets, class membership, FD agreement."""
    combos = [(1, 2), (1, 3), (2, 3), (2, 4)]  # (k, d) with d-k in {1, 2}
    sets_per_combo = 50
    checked = 0
    worst_rel = 0.0
    worst_fd = 0.0
    for k, d in combos:
        params = HolderParams(k, d, 2.0, 1.0, 1)
        c2 = construction_c2(params)
        eps = 0.04 / c2  # cell width exactly 0.2
        eps_prime = (c2 * eps) ** 0.5
        rng = np.random.default_rng(np.random.SeedSequence([6060, k, d]))
        for _ in range(sets_per_combo):
            nodes = random_nodes(params, eps, eps_prime, 3, rng)
            itp = build_interpolant(nodes, params, eps)
            for node in nodes:
                jet = itp.jet_grid(node.x[None])[0]
                rel = np.max(np.abs(jet - node.y) / np.maximum(np.abs(node.y), 1e-300))
                worst_rel = max(worst_rel, float(rel))
            rep = holder_membership_check(itp, params, tol_rel=1e-6)
            assert rep.passed, (k, d, rep.norms, rep.max_holder_ratio)
            for x in rng.random((5, k)):
                for axis in range(k):
                    t = tuple(1 if a == axis else 0 for a in range(k))
                    row = params.index_set().index(t)
                    analytic = itp.jet_grid(x[None])[0, row]
                    numeric = fd_jet(value_map(itp, k), x, t)
                    worst_fd = max(worst_fd, float(np.max(np.abs(analytic - numeric))))
            checked += 1
    assert checked == 200
    assert worst_rel <= 1e-9
    assert worst_fd <= 1e-6
    report(
        f"ACCEPTANCE 6 (interpolant): PASS — 200 node sets; max relative jet "
        f"error {worst_rel:.2e} <= 1e-9; membership at beta(1+1e-6); max "
        f"first-order FD gap {worst_fd:.2e} <= 1e-6"
    )


def test_criterion_07_tube_measure_law():
    """Empirical tube probability slope within 10% of (d-k)w = 3/2."""
    params = HolderParams(1, 2, 2.0, 1.0, 1)
    rng = np.random.default_rng(7070)
    slopes = []
    for _ in range(3):
        f = random_class_function(params, rng)
        eps_grid = [0.4, 0.2, 0.1, 0.05]
        ps = [tube_hit_fraction(f, params, e, 10**5, rng).p_hat for e in eps_grid]
        slopes.append(float(np.polyfit(np.log(eps_grid), np.log(ps), 1)[0]))
    ok = all(abs(s - 1.5) <= 0.15 for s in slopes)
    report(
        f"ACCEPTANCE 7 (tube measure law): {'PASS' if ok else 'FAIL'} — slopes "
        + ", ".join(f"{s:.3f}" for s in slopes)
        + " each within 10% of 1.5"
    )
    for s in slopes:
        assert abs(s - 1.5) <= 0.15


def test_criterion_08_coupon_collector():
    """Formulas match exact enumeration (l, kk <= 4) and simulation."""
    for l in range(1, 5):
        for kk in range(0, 5):
            mean_f, var_f = coupon_moments(l, kk)
            total = l**kk
            mean_e = 0.0
            second = 0.0
            for outcome in product(range(l), repeat=kk):
                s = l - len(set(outcome))
                mean_e += s / total
                second += s * s / total
            assert mean_f == pytest.approx(mean_e, abs=1e-12)
            assert var_f == pytest.approx(second - mean_e**2, abs=1e-12)
    rng = np.random.default_rng(8080)
    sims = []
    for l, kk in [(50, 60), (100, 50)]:
        mean, _ = coupon_moments(l, kk)
        trials = 10**5
        throws = rng.integers(0, l, size=(trials, kk))
        empty = l - np.array([np.unique(row).size for row in throws])
        stderr = empty.std(ddof=1) / math.sqrt(trials)
        gap = abs(empty.mean() - mean)
        assert gap <= 4 * stderr
        sims.append(f"(l={l},kk={kk}): |Δ|={gap:.4f} <= 4·{stderr:.4f}")
    report(
        "ACCEPTANCE 8 (coupon collector): PASS — exact enumeration l,kk <= 4; "
        + "; ".join(sims)
    )


def test_criterion_09_binomial_tail():
    """c = 0.1 bound holds across the exact-CDF parameter sweep."""
    checked = 0
    for n in (100, 1000, 10000):
        for p in (1e-3, 1e-2, 0.1):
            b = math.ceil(2.5 * n * p)
            res = binomial_tail_check(n, p, b, 0.1)
            assert res.holds, (n, p, b, res.exact_tail, res.bound)
            checked += 1
    report(
        f"ACCEPTANCE 9 (binomial tail): PASS — exp(-0.1 b) dominates the exact "
        f"tail on all {checked} (n, p) pairs with b = ceil(2.5 n p)"
    )


def test_criterion_10_dp_greedy_bracket():
    """DP dominates the certified greedy count; DP == brute force on tiny grids."""
    params = HolderParams(1, 2, 2.0, 2000.0, 1)  # certifying c2 is 1 + 1e-6
    dominated = 0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([1010, seed]))
        n = 30 + int(seed * 170 / 99)
        cfg = ExperimentConfig("jets", 1, 2, 2.0, 2000.0, 1, n, n // 2, 0, 1)
        if seed % 2 == 0:
            samples = generate_null_jets(n, params, rng)
        else:
            samples = generate_alt_jets(
                n, n // 2, default_alternative(cfg), params, rng, check=False
            )
        sel = greedy_cell_statistic(samples, params, n, materialize=True)
        if sel.interpolant is not None and sel.count > 0:
            assert holder_membership_check(sel.interpolant, params).passed
        # dominance holds for any slope budget: the selected jets sit in the
        # zero profile's tube; beta=1 keeps the state lattice small
        dp = tube_dp_statistic(samples, 1.0, sel.eps)
        assert dp >= sel.count, (seed, dp, sel.count)
        dominated += 1

    from test_detection import _brute_force_dp

    params_small = HolderParams(1, 2, 2.0, 0.5, 1)
    matched = 0
    for seed in range(40):
        rng = np.random.default_rng(np.random.SeedSequence([1011, seed]))
        n = int(rng.integers(1, 13))
        samples = generate_null_jets(n, params_small, rng)
        got = tube_dp_statistic(samples, 0.5, 0.25)
        assert got == _brute_force_dp(samples, 0.5, 0.25)
        matched += 1
    report(
        f"ACCEPTANCE 10 (DP/greedy bracket): PASS — DP >= certified greedy on "
        f"{dominated} instances (n <= 200); DP == path enumeration on "
        f"{matched} tiny-grid instances (<= 12 samples)"
    )


def test_criterion_11_determinism_across_workers(tmp_path):
    """Sweep reruns with different worker counts are byte-identical."""
    cfg = ExperimentConfig("oriented", 1, 2, 2.0, 1.0, 1, 0, 0, 1111, 10)
    grid = [500, 1000, 2000]
    csv_texts = {
        workers: records_to_csv(run_sweep(cfg, grid, trials=10, workers=workers).records)
        for workers in (1, 2, 4)
    }
    assert csv_texts[1] == csv_texts[2] == csv_texts[4]

    from alignstat.cli import main

    for workers, sub in ((1, "a"), (3, "b")):
        rc = main(
            [
                "exponent-sweep",
                "--problem",
                "jets",
                "--n-grid",
                "400,800,1600",
                "--trials",
                "6",
                "--seed",
                "2024",
                "--workers",
                str(workers),
                "--out-dir",
                str(tmp_path / sub),
            ]
        )
        assert rc == 0
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a == b
    report(
        "ACCEPTANCE 11 (determinism): PASS — byte-identical sweep CSVs for "
        "worker counts {1, 2, 4} (library) and {1, 3} (CLI)"
    )
