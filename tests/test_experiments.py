"""Sweep drivers: reproducibility, calibration level, power, CSV schema."""

import concurrent.futures
import csv
import io
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from alignstat.detection import (
    OrientedSamples,
    generate_alt_jets,
    generate_null_jets,
    generate_null_oriented,
    greedy_cell_statistic,
    oriented_to_jets,
    statistic_eps,
)
from alignstat import experiments
from alignstat.errors import BudgetExceeded, ParamOrder
from alignstat.experiments import (
    CSV_COLUMNS,
    EXPERIMENT_C2,
    ExperimentConfig,
    Threshold,
    default_alternative,
    null_quantile_threshold,
    power_estimate,
    records_to_csv,
    run_sweep,
    run_trial,
)
from alignstat.holder import HolderParams, JetSamples, cell_grid, holder_membership_check


def small_config(problem="jets", n=400, n1=0, seed=99, trials=30):
    return ExperimentConfig(problem, 1, 2, 2.0, 1.0, 1, n, n1, seed, trials)


def key_rng(seed, n_index, trial):
    """The stream of key (seed, n_index, trial), built by numpy itself."""
    return np.random.default_rng(np.random.SeedSequence([seed, n_index, trial]))


class TestConfig:
    def test_oriented_forces_second_order(self):
        with pytest.raises(ParamOrder):
            ExperimentConfig("oriented", 1, 3, 3.0, 1.0, 1, 10, 0, 0, 1)

    def test_n1_bounds(self):
        with pytest.raises(ParamOrder):
            ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 10, 11, 0, 1)

    def test_unknown_problem(self):
        with pytest.raises(ParamOrder):
            ExperimentConfig("waves", 1, 2, 2.0, 1.0, 1, 10, 0, 0, 1)

    def test_negative_seed(self):
        with pytest.raises(ParamOrder, match="seed"):
            ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 10, 0, -1, 1)


class TestSweep:
    def test_worker_count_does_not_change_records(self):
        cfg = small_config()
        grid = [300, 600, 1200]
        seq = run_sweep(cfg, grid, trials=8, workers=1)
        par = run_sweep(cfg, grid, trials=8, workers=3)
        assert records_to_csv(seq.records) == records_to_csv(par.records)

    def test_rerun_is_bit_identical(self):
        cfg = small_config()
        a = run_sweep(cfg, [300, 900], trials=6)
        b = run_sweep(cfg, [300, 900], trials=6)
        assert records_to_csv(a.records) == records_to_csv(b.records)

    def test_csv_schema(self):
        cfg = small_config()
        res = run_sweep(cfg, [300], trials=3)
        lines = records_to_csv(res.records).strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 3
        row = lines[1].split(",")
        assert row[1] == "jets"
        assert row[-1] == "0"  # millis column is zeroed for determinism

    def test_plant_monotonicity_paired_seeds(self):
        # expected statistic nondecreasing in n1 at fixed n, paired seeds
        n = 600
        grids = []
        for n1 in (0, 60, 300):
            cfg = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, n, n1, 31, 40)
            res = run_sweep(cfg, [n], trials=40)
            grids.append(res.means[0][1])
        assert grids[0] <= grids[1] + 1e-12
        assert grids[1] <= grids[2] + 1e-12


class TestDefaultAlternative:
    def test_constant_is_in_class_and_in_box(self):
        cfg = small_config(n=1000)
        params = cfg.params()
        f = default_alternative(cfg)
        assert holder_membership_check(f, params).passed
        eps = statistic_eps(params, cfg.n)
        val = f.jet_grid(np.array([[0.5]]), params.index_set())[0, 0, 0]
        assert eps / 2 <= val <= eps

    def test_oriented_variant_is_lift(self):
        cfg = small_config(problem="oriented", n=1000)
        lift = default_alternative(cfg)
        z = lift.point_grid(np.array([[0.25]]))
        assert z.shape == (1, 2)

    @pytest.mark.parametrize("alpha,r0", [(2.0, 1), (3.0, 2)])
    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 3)])
    def test_jet_lies_in_every_box(self, k, d, alpha, r0):
        # the block engine counts planted points by their cell alone
        acceptance = [500, 1000, 2000, 3000, 10000, 20000, 30000, 40000, 80000, 100000,
                      160000, 300000]
        clamped = []
        for n in [1, 2, 3, 4] + acceptance:
            cfg = ExperimentConfig("jets", k, d, alpha, 1.0, r0, n, 1, 0, 1)
            params = cfg.params()
            jets = default_alternative(cfg).jet_grid(np.random.default_rng(n).random((20, k)),
                                                     params.index_set())
            for c2 in (EXPERIMENT_C2, None):
                grid = cell_grid(params, statistic_eps(params, n), c2, clamp=True)
                clamped.append(grid.clamped)
                for row, (lo, hi) in enumerate(grid.bounds):
                    assert np.all((lo <= jets[:, row]) & (jets[:, row] <= hi)), (n, c2, row)
        assert any(clamped) and not all(clamped)

    @pytest.mark.parametrize("k,d,n", [(1, 2, 3000), (2, 3, 30000), (3, 4, 20000)])
    def test_trailing_locations_count_as_its_jets(self, k, d, n):
        cfg = ExperimentConfig("jets", k, d, 2.0, 1.0, 1, n, 1, 0, 1)
        params = cfg.params()
        grid = cell_grid(params, statistic_eps(params, n), EXPERIMENT_C2)
        assert not grid.clamped
        rng = np.random.default_rng(40 + k)
        null = generate_null_jets(400, params, rng)
        null.ys[:, 0, :] = rng.uniform(*grid.bounds[0], size=(400, params.dim_out))
        # slopes on [-hi, hi]: about half of each entry passes its box
        hi = grid.bounds[1][1]
        null.ys[:, 1:, :] = rng.uniform(-hi, hi, size=(400, k, params.dim_out))
        # past the cube on both sides, so past grid_max too; odd cells too
        xs1 = rng.uniform(-0.1, 1.2, size=(40, k))
        ys1 = default_alternative(cfg).jet_grid(xs1, params.index_set())
        owner = rng.integers(0, 5, size=440)  # unsorted; owner 5 has no sample
        xs = np.concatenate([null.xs, xs1])
        got = experiments.cell_counts(grid, xs, null.ys, owner, 6)
        want = experiments.cell_counts(grid, xs, np.concatenate([null.ys, ys1]), owner, 6)
        assert got.tolist() == want.tolist()
        cells = grid.cells(xs1)
        assert np.any(cells > grid.grid_max) and np.any(cells % 2 == 1)
        alone = experiments.cell_counts(grid, xs1, ys1[:0], owner[400:], 6)
        assert 0 < alone.sum() < want.sum() and want[5] == 0


class TestCalibrationAndPower:
    def test_null_rejection_rate_matches_level(self):
        cfg = small_config(n=1000, trials=400)
        thr = null_quantile_threshold(cfg, 0.05, 400)
        # re-simulated null rejection rate equals the level (randomized rule)
        power = power_estimate(cfg, thr, 800)
        stderr = max(power.stderr, np.sqrt(0.05 * 0.95 / 800))
        assert abs(power.power - 0.05) <= 3 * stderr

    def test_full_plant_has_high_power(self):
        cfg = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 1000, 1000, 7, 200)
        thr = null_quantile_threshold(cfg, 0.05, 200)
        power = power_estimate(cfg, thr, 200)
        assert power.power >= 0.99

    def test_zero_plant_power_is_level(self):
        cfg = small_config(n=800, n1=0, trials=300)
        thr = null_quantile_threshold(cfg, 0.1, 300)
        power = power_estimate(cfg, thr, 600)
        assert abs(power.power - 0.1) <= 4 * max(power.stderr, 0.0125)

    def test_oriented_plant_power(self):
        cfg = ExperimentConfig("oriented", 1, 2, 2.0, 1.0, 1, 1000, 1000, 12, 150)
        thr = null_quantile_threshold(cfg, 0.05, 150)
        power = power_estimate(cfg, thr, 150)
        assert power.power >= 0.99


def test_calibration_needs_100_trials_and_power_one():
    config = small_config()
    with pytest.raises(ParamOrder, match="100 calibration"):
        null_quantile_threshold(config, 0.05, 99)
    with pytest.raises(ParamOrder, match="trials"):
        power_estimate(config, Threshold(1.0, 0.0, 0.05, 100), 0)


class TestKeyedEngine:
    """Calibration and power run on run_sweep's (seed, n_index, trial) keys."""

    def test_calibration_runs_the_null_sweep_trials(self, monkeypatch):
        cfg = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 2000, 50, 17, 120)
        want = [r.statistic for r in run_sweep(replace(cfg, n1=0), [cfg.n], trials=120).records]
        seen = []
        cell_counts = experiments.cell_counts

        def recording(*args, **kwargs):
            counts = cell_counts(*args, **kwargs)
            seen.extend(counts.tolist())
            return counts

        monkeypatch.setattr(experiments, "cell_counts", recording)
        thr = null_quantile_threshold(cfg, 0.05, 120)
        assert seen == want
        assert thr.trials == 120
        stats = np.array(want)
        tail = np.mean(stats > thr.value)
        assert tail <= 0.05 <= tail + np.mean(stats == thr.value)
        assert tail + thr.tie_gamma * np.mean(stats == thr.value) == pytest.approx(0.05)

    def test_calibration_and_power_keys_are_disjoint(self, monkeypatch):
        cfg = ExperimentConfig("oriented", 1, 2, 2.0, 1.0, 1, 1000, 20, 23, 100)
        keys = []

        def recording(seed, n_index, trials):
            keys.extend((seed, n_index, trial) for trial in trials)
            return key_states(seed, n_index, trials)

        key_states = experiments._key_states
        monkeypatch.setattr(experiments, "_key_states", recording)
        thr = null_quantile_threshold(cfg, 0.05, 100)
        calibration, keys[:] = list(keys), []
        power_estimate(cfg, thr, 60)
        assert calibration == [(23, 0, t) for t in range(100)]
        assert keys == [(23, 0, t) for t in range(100, 160)]

    def test_power_is_the_mean_rejection_weight(self, monkeypatch):
        counts = [0, 3, 2, 2, 5, 1, 2, 4]
        it = iter(counts)
        monkeypatch.setattr(
            experiments,
            "cell_counts",
            lambda grid, xs, ys, owner, owners: np.array([next(it) for _ in range(owners)]),
        )
        thr = Threshold(value=2.0, tie_gamma=0.25, level=0.05, trials=100)
        power = power_estimate(small_config(), thr, len(counts))
        # weights 0, 1, .25, .25, 1, 0, .25, 1
        assert power.power == pytest.approx(3.75 / 8, abs=1e-15)
        assert power.stderr == pytest.approx(math.sqrt(power.power * (1 - power.power) / 8))
        assert power.trials == 8

    def test_planted_trial_plants_at_its_own_n(self):
        cfg = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 100_000, 200, 1, 20)
        for problem in ("jets", "oriented"):
            cfg = replace(cfg, problem=problem)
            for n in (1000, 10_000):
                got = run_trial(cfg, n, np.random.default_rng(n)).count
                want = run_trial(replace(cfg, n=n), n, np.random.default_rng(n)).count
                assert got == want
                assert got >= 1  # the planted points fill cells

    def test_no_module_spawns_generators(self):
        import alignstat

        for path in Path(alignstat.__file__).parent.glob("*.py"):
            assert ".spawn(" not in path.read_text(), path.name


class TestBlockEngine:
    """_run_trials counts a block of keys with one box filter; every trial
    must keep the count run_trial gives on its own key."""

    @pytest.mark.parametrize(
        "problem,k,d,alpha,r0,n1,grid",
        [
            ("jets", 1, 2, 2.0, 1, 0, [300, 3000, 30000]),
            ("jets", 1, 3, 2.0, 1, 0, [3000, 30000]),
            ("jets", 2, 3, 2.0, 1, 0, [2000, 20000]),
            ("jets", 1, 2, 2.0, 1, 40, [1000, 10000]),
            ("oriented", 1, 2, 2.0, 1, 0, [1000, 10000]),
            ("oriented", 1, 2, 2.0, 1, 25, [1000, 10000]),
            ("oriented", 2, 3, 2.0, 1, 30, [2000, 20000]),
            ("jets", 1, 2, 2.0, 1, 1, [2, 3, 4]),  # eps' > 1/2: one clamped cell
            ("oriented", 2, 4, 2.0, 1, 30, [2000, 20000]),
            # more than two jet rows: 3 at k = 1, 6 at k = 2
            ("jets", 1, 2, 3.0, 2, 15, [1000, 10000]),
            ("jets", 2, 3, 3.0, 2, 30, [10000, 100000]),
        ],
    )
    def test_block_counts_equal_run_trial(self, problem, k, d, alpha, r0, n1, grid):
        config = ExperimentConfig(problem, k, d, alpha, 1.0, r0, max(grid), n1, 13, 25)
        records = run_sweep(config, grid).records
        assert len(records) == len(grid) * 25
        for record in records:
            n_index = grid.index(record.n)
            sel = run_trial(config, record.n, key_rng(config.seed, n_index, record.trial))
            assert record.statistic == sel.count
            assert (record.grid.eps, record.grid.cells_total, record.grid.clamped) == (
                sel.eps, sel.cells_total, sel.eps_clamped)
        assert any(r.grid.clamped for r in records) == (grid == [2, 3, 4])
        assert sum(r.statistic for r in records) > 0

    def test_block_budget_and_cut_are_identical(self, monkeypatch):
        configs = [
            ExperimentConfig("oriented", 1, 2, 2.0, 1.0, 1, 10_000, 20, 5, 40),
            ExperimentConfig("jets", 2, 3, 3.0, 1.0, 2, 10_000, 20, 5, 40),
            # three location axes, and two output coordinates
            ExperimentConfig("jets", 3, 4, 2.0, 1.0, 1, 10_000, 20, 5, 40),
            ExperimentConfig("oriented", 2, 4, 2.0, 1.0, 1, 10_000, 20, 5, 40),
        ]

        def run(config, workers):
            records = run_sweep(config, [1000, 10_000], trials=20, workers=workers).records
            return np.array([(r.n, r.trial, r.statistic, r.grid.cells_total) for r in records])

        defaults = [run(config, 1) for config in configs]
        for config, default in zip(configs, defaults):
            assert default[:, 2].sum() > 0
            assert np.array_equal(default, run(config, 2))  # the pool gets blocks of 2 trials
        monkeypatch.setattr(experiments, "_BLOCK_SAMPLES", 1)  # one count per trial
        for config, default in zip(configs, defaults):
            assert np.array_equal(default, run(config, 1))

    @pytest.mark.parametrize("call", ["sweep", "calibration", "power"])
    def test_records_past_the_budget_are_refused_before_the_first_key(self, monkeypatch, call):
        class Ran(Exception):
            pass

        def run_trials(config, keys, *args):
            raise Ran(f"{len(keys)} keys")

        monkeypatch.setattr(experiments, "_run_trials", run_trials)
        monkeypatch.setattr(experiments, "RECORD_BUDGET", 120)
        config = small_config()
        records = {
            "sweep": lambda t: run_sweep(config, [1000, 2000, 3000], trials=t // 3),
            "calibration": lambda t: null_quantile_threshold(config, 0.05, t),
            "power": lambda t: power_estimate(config, Threshold(1.0, 0.0, 0.05, 100), t),
        }[call]
        with pytest.raises(Ran, match="^120 keys$"):  # at the budget, the trials run
            records(120)
        with pytest.raises(BudgetExceeded, match="123 trial records > budget 120"):
            records(123)

    @pytest.mark.parametrize(
        "n1,grid,match",
        [(0, [1000, 3000, -5], "n >= 1"), (2000, [3000, 1000], "n1 <= n")],
        ids=["n-below-1", "n1-above-a-later-n"],
    )
    def test_every_n_is_checked_before_the_first_trial(self, monkeypatch, n1, grid, match):
        blocks = []
        monkeypatch.setattr(experiments, "_run_block", lambda payload: blocks.append(payload) or [])
        config = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, max(grid), n1, 3, 20)
        with pytest.raises(ParamOrder, match=match):
            run_sweep(config, grid)
        assert blocks == []

    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        configs = [ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 3000, 0, 8, trials)
                   for trials in (30, 1)]
        serial = [run_sweep(config, [1000, 3000]).records for config in configs]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for config, want in zip(configs, serial):
            assert run_sweep(config, [1000, 3000], workers=5000).records == want
        # 30 trials: 4 processes; 1 trial per n: 2 blocks, one process each
        assert pools == [4, 2]

    @pytest.mark.parametrize(
        "problem,k,d,alpha,r0",
        [
            pytest.param("jets", 1, 2, 2.0, 1, id="jets-1-2"),
            pytest.param("oriented", 1, 2, 2.0, 1, id="oriented-1-2"),
            pytest.param("oriented", 2, 3, 2.0, 1, id="oriented-2-3"),
            # more than two jet rows, and the widest oriented draw
            pytest.param("jets", 1, 2, 3.0, 2, id="jets-1-2-alpha3"),
            pytest.param("jets", 2, 3, 3.0, 2, id="jets-2-3-alpha3"),
            pytest.param("oriented", 2, 4, 2.0, 1, id="oriented-2-4"),
        ],
    )
    @pytest.mark.parametrize("n1", [1, 25, 3000])
    def test_count_does_not_depend_on_planted_order(self, problem, k, d, alpha, r0, n1):
        """The engine plants in draw order; generate_alt_jets permutes all
        points with one last draw.  The counts must agree key by key with
        this reference, which draws through the public generators."""
        config = ExperimentConfig(problem, k, d, alpha, 1.0, r0, 6000, n1, 19, 8)
        params = config.params()
        grid = cell_grid(params, statistic_eps(params, config.n), EXPERIMENT_C2, clamp=True)
        f = default_alternative(config)
        g = f if problem == "jets" else f.g
        lo, hi = grid.bounds[0]
        records = run_sweep(config, [config.n]).records
        for record in records:
            rng = key_rng(config.seed, 0, record.trial)
            m = int(rng.binomial(config.n - n1, (hi - lo) ** params.dim_out))
            values = rng.uniform(lo, hi, size=(m, params.dim_out))
            if problem == "jets":
                null = generate_null_jets(m, params, rng)
                null.ys[:, 0, :] = values
            else:
                oriented = generate_null_oriented(m, k, d, rng)
                oriented.z[:, k:] = values
                null, _ = oriented_to_jets(oriented, params)
            planted = generate_alt_jets(n1, n1, g, params, rng, check=False)
            samples = JetSamples(
                params,
                np.concatenate([null.xs, planted.xs]),
                np.concatenate([null.ys, planted.ys]),
            )
            sel = greedy_cell_statistic(samples, params, config.n, c2=EXPERIMENT_C2, clamp=True)
            assert record.statistic == sel.count
        assert sum(r.statistic for r in records) > 0  # the planted points fill cells


class TestKeyStreams:
    """A block sets one generator to each key's state; every state must be
    the one numpy's SeedSequence gives the key."""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**70])
    @pytest.mark.parametrize("n_index", [0, 2**33])
    def test_states_equal_numpy_seed_sequence(self, seed, n_index):
        trials = list(range(100)) + [2**32 - 1, 2**32]  # one and two words in one call
        want = [np.random.PCG64(np.random.SeedSequence([seed, n_index, t])).state for t in trials]
        assert list(experiments._key_states(seed, n_index, trials)) == want

    def test_block_draws_equal_the_key_streams(self, monkeypatch):
        """Every generator call a block makes, replayed call for call on
        numpy's own generator for the key, returns the same values."""
        calls = []

        class Recording(np.random.Generator):
            def __getattribute__(self, name):
                method = super().__getattribute__(name)
                if name not in ("binomial", "random", "standard_normal"):
                    return method

                def recorded(*args, **kwargs):
                    out = method(*args, **kwargs)
                    calls.append((name, args, kwargs, np.copy(out)))
                    return out

                return recorded

        monkeypatch.setattr(np.random, "Generator", Recording)
        monkeypatch.setattr(experiments, "_KEY_CHUNK", 7)  # keys hashed 7 at a time
        for problem, n1 in (("jets", 0), ("jets", 3), ("oriented", 3)):
            config = small_config(problem, n1=n1, seed=2**40 + 7, trials=50)
            calls.clear()
            records = run_sweep(config, [config.n]).records
            starts = [i for i, call in enumerate(calls) if call[0] == "binomial"]
            assert len(starts) == len(records) == 50
            # per trial: the binomial, one random call, the bases (oriented), the plants
            assert len(calls) == 50 * (2 + (problem == "oriented") + (n1 > 0))
            assert sum(call[3].size for call in calls if call[0] == "random") > 50
            for trial, (start, stop) in enumerate(zip(starts, starts[1:] + [len(calls)])):
                rng = key_rng(config.seed, 0, trial)
                for name, args, kwargs, out in calls[start:stop]:
                    assert np.array_equal(getattr(rng, name)(*args, **kwargs), out), (
                        problem, trial, name)

    def test_engine_stream_identities(self):
        """The block engine draws a trial's uniforms in one call and scales
        them itself; both steps rest on numpy identities checked here."""
        params = HolderParams(1, 3, 2.0, 1.0, 1)
        boxes = [cell_grid(params, statistic_eps(params, n), EXPERIMENT_C2).bounds[0]
                 for n in (10_000, 300_000)]
        for seed in range(5):
            for lo, hi in boxes + [(-1.0, 1.0), (-1.5, 1.5)]:
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = a.uniform(lo, hi, size=(700, 3))
                assert np.array_equal(got, lo + (hi - lo) * b.random((700, 3))), (
                    f"Generator.uniform({lo!r}, {hi!r}) is no longer lo + (hi - lo) * random()"
                    " bit for bit: the block engine's scaling would change the jets")
                assert a.bit_generator.state == b.bit_generator.state, (
                    "Generator.uniform and Generator.random no longer take one draw per double")
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            flat = a.random(7 * 2 + 7 + 7 * 2 + 7 * 2 * 2)
            parts = [b.random((7, 2)), b.random((7, 1)), b.random((7, 2)), b.random((7, 2, 2))]
            assert np.array_equal(flat, np.concatenate([p.ravel() for p in parts])), (
                "one flat Generator.random(a + b) is no longer random(a) followed by random(b):"
                " the block engine's one call per trial would shift the stream")
            assert a.bit_generator.state == b.bit_generator.state, (
                "one flat Generator.random call no longer advances the stream as its parts do")

    def test_one_generator_per_block(self, monkeypatch):
        made = []
        generator = np.random.Generator

        def counting(bit_generator):
            made.append(bit_generator)
            return generator(bit_generator)

        monkeypatch.setattr(np.random, "Generator", counting)
        run_sweep(small_config(trials=30), [300, 400])  # one block per n
        assert len(made) == 2


class TestRecords:
    """A record refers to its run's config and its n's cell grid."""

    def test_records_refer_to_config_and_grid(self):
        config = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 3000, 10, 21, 6)
        params = config.params()
        for workers in (1, 2):
            records = run_sweep(config, [1000, 3000], workers=workers).records
            assert [(r.n, r.trial) for r in records] == [
                (n, t) for n in (1000, 3000) for t in range(6)]
            for record in records:
                assert record.config == config
                eps = statistic_eps(params, record.n)
                assert record.grid == cell_grid(params, eps, EXPERIMENT_C2, clamp=True)

    def test_csv_rows_come_from_their_own_config(self):
        jets = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 500, 0, 31, 2)
        oriented = ExperimentConfig("oriented", 1, 3, 2.0, 1.5, 1, 700, 5, 32, 2)
        records = run_sweep(jets, [500]).records + run_sweep(oriented, [700]).records
        rows = [line.split(",") for line in records_to_csv(records).splitlines()[1:]]
        for row, record in zip(rows, records):
            c = record.config
            want = [c.problem, c.k, c.d, repr(c.alpha), repr(c.beta), c.r0, record.n, c.n1]
            assert row[1:9] == [str(v) for v in want]
            assert row[12] == str(c.seed)
        assert [row[1] for row in rows] == ["jets"] * 2 + ["oriented"] * 2


    def test_csv_equals_csv_writer(self):
        configs = [
            ExperimentConfig("jets", 1, 2, 2.0, 1.5, 1, 3000, 0, 31, 3),
            ExperimentConfig("oriented", 1, 3, 2.0, 1.5, 1, 7000, 5, 32, 2),
            ExperimentConfig("jets", 2, 3, 2.5, 0.1 + 0.2, 1, 9000, 2, 33, 2),
        ]
        records = [r for config in configs for r in run_sweep(config, [700, config.n]).records]
        records += run_sweep(configs[0], [3000]).records  # back to an earlier config
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            c = r.config
            writer.writerow([r.trial, c.problem, c.k, c.d, repr(float(c.alpha)),
                             repr(float(c.beta)), c.r0, r.n, c.n1, repr(float(r.grid.eps)),
                             r.statistic, r.grid.cells_total, c.seed, 0])
        text = records_to_csv(records)
        assert text == buf.getvalue()
        assert "0.30000000000000004" in text and ",1.5," in text
        assert records_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"


class TestThinnedTrial:
    """run_trial generates only the null draws that can pass the value box;
    its count must keep the law it has on n full draws."""

    N = 5000
    TRIALS = 1500

    @staticmethod
    def exact_mean(config, n):
        """Occupancy law (k = 1): E count = sum over even cells c of
        1 - (1 - q |c|)^n, q the null probability of the whole jet box."""
        params = config.params()
        eps = statistic_eps(params, n)
        width = (EXPERIMENT_C2 * eps) ** (1.0 / params.alpha)
        assert width <= 0.5  # no clamped single cell at these n
        left = np.arange(0, math.floor(1.0 / width) + 1, 2) * width
        volumes = np.minimum(left + width, 1.0) - left
        if config.problem == "oriented":
            slope = math.atan(math.sqrt(eps)) / math.pi  # Cauchy chart slope
        else:
            slope = min(math.sqrt(eps), params.beta) / (2 * params.beta)
        q = (eps / 2 * slope) ** params.dim_out
        return float(np.sum(1 - (1 - q * volumes) ** n))

    def full_counts(self, config, n, seed):
        """Greedy counts on the full generators, drawn n samples at a time."""
        params = config.params()
        rng = np.random.default_rng(seed)
        counts = []
        for _ in range(self.TRIALS):
            if config.problem == "oriented":
                oriented = generate_null_oriented(n, config.k, config.d, rng)
                samples, _ = oriented_to_jets(oriented, params)
            elif config.n1 > 0:
                f = default_alternative(config)
                samples = generate_alt_jets(n, config.n1, f, params, rng, check=False)
            else:
                samples = generate_null_jets(n, params, rng)
            sel = greedy_cell_statistic(samples, params, n, c2=EXPERIMENT_C2, clamp=True)
            counts.append(sel.count)
        return np.array(counts)

    @staticmethod
    def same_law_pvalue(a, b):
        """Chi-square two-sample test on the count histograms, with the
        sparse upper tail pooled until its column holds 10 trials."""
        top = int(max(a.max(), b.max()))
        table = np.array([np.bincount(a, minlength=top + 1), np.bincount(b, minlength=top + 1)])
        while table.shape[1] > 2 and table[:, -1].sum() < 10:
            table[:, -2] += table[:, -1]
            table = table[:, :-1]
        return sps.chi2_contingency(table).pvalue

    @pytest.mark.parametrize(
        "problem,d,n1", [("jets", 2, 0), ("jets", 3, 0), ("oriented", 2, 0), ("jets", 2, 3)]
    )
    def test_count_law_matches_full_generators(self, problem, d, n1):
        n = self.N
        config = ExperimentConfig(problem, 1, d, 2.0, 1.0, 1, n, n1, 41, self.TRIALS)
        thinned = np.array([r.statistic for r in run_sweep(config, [n]).records])
        if n1 == 0:
            stderr = thinned.std(ddof=1) / math.sqrt(self.TRIALS)
            assert abs(thinned.mean() - self.exact_mean(config, n)) <= 5 * stderr
        full = self.full_counts(config, n, seed=42)
        assert self.same_law_pvalue(thinned, full) > 1e-3

    @pytest.mark.parametrize("n", [0, 5])
    def test_bad_sample_size_is_param_order(self, n):
        config = ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 100, 10, 0, 1)
        with pytest.raises(ParamOrder):
            run_trial(config, n, np.random.default_rng(0))


def frame_route_trial(config, n, rng):
    """An oriented planted trial with the planted points drawn as frames
    on the lift and reduced through the chart together with the null
    draws: run_trial's route before it planted jets."""
    params = config.params()
    eps = statistic_eps(params, n)
    lo, hi = eps / 2.0, eps  # the value row of the cell box
    m = int(rng.binomial(n - config.n1, (hi - lo) ** params.dim_out))
    values = rng.uniform(lo, hi, size=(m, params.dim_out))
    oriented = generate_null_oriented(m, config.k, config.d, rng)
    oriented.z[:, config.k :] = values
    lift = default_alternative(replace(config, n=n))
    xs1 = rng.random((config.n1, config.k))
    oriented = OrientedSamples(
        np.concatenate([oriented.z, lift.point_grid(xs1)]),
        np.concatenate([oriented.frames, lift.tangent_frames(xs1)]),
    )
    samples, _ = oriented_to_jets(oriented, params)
    return greedy_cell_statistic(samples, params, n, c2=EXPERIMENT_C2, clamp=True)


@pytest.mark.parametrize("k,d", [(1, 2), (2, 3)])
def test_planted_jets_match_the_frame_route(k, d):
    config = ExperimentConfig("oriented", k, d, 2.0, 1.0, 1, 20_000, 5, 17, 100)
    counts = []
    for trial in range(100):
        new = run_trial(config, config.n, key_rng(config.seed, 0, trial))
        old = frame_route_trial(config, config.n, key_rng(config.seed, 0, trial))
        assert new.count == old.count
        assert new.selected == old.selected
        counts.append(new.count)
    assert len(set(counts)) > 1  # the null draws move the count
