"""Tests of the benchmark's own logic: oracles, span arithmetic, inputs.

    python3 -m pytest perfbench -q
"""

import json
import math
import time

import numpy as np
import pytest

import run

run._import_alignstat()

import oracle  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from alignstat import detection  # noqa: E402
from alignstat.holder import HolderParams  # noqa: E402


@pytest.mark.parametrize(
    "q, volumes, n",
    [
        (0.5, [1.0], 3),
        (0.3, [0.4, 0.4], 4),
        (0.9, [0.3, 0.3, 0.1], 4),  # truncated last cell
        (0.02, [0.25, 0.25, 0.25, 0.25], 5),
    ],
)
def test_occupancy_moments_match_enumeration(q, volumes, n):
    mean, var = oracle.occupancy_moments(q, volumes, n)
    want_mean, want_var = oracle.occupancy_moments_enumerated(q, volumes, n)
    assert mean == pytest.approx(want_mean, rel=1e-12, abs=1e-15)
    assert var == pytest.approx(want_var, rel=1e-9, abs=1e-15)


def test_occupancy_mean_reproduces_exact_jet_means():
    # closed-form means of the (1,2) jets null on the acceptance-2 grid
    means = [oracle.greedy_null_moments("jets", 1, 2, 2.0, 1.0, 1, n)["mean"]
             for n in (1000, 3000, 10000, 30000, 100000)]
    assert means == pytest.approx([0.664, 0.885, 1.106, 1.548, 1.991], abs=5e-4)


@pytest.mark.parametrize("k, d, n", [(1, 2, 1000), (1, 3, 300000), (2, 3, 5000), (1, 2, 30)])
def test_oracle_grid_matches_library(k, d, n):
    params = HolderParams(k, d, 2.0, 1.0, 1)
    law = oracle.greedy_null_moments("jets", k, d, 2.0, 1.0, 1, n)
    samples = workloads.null_jets(np.random.default_rng(0), params, 10)
    sel = detection.greedy_cell_statistic(samples, params, n, c2=oracle.EXPERIMENT_C2, clamp=True)
    assert law["eps"] == pytest.approx(sel.eps, rel=1e-12)
    assert law["cells"] == sel.cells_total


def test_box_probability_oriented_slope_factor():
    eps = 0.01
    q = oracle.box_probability("oriented", 1, 2, 2.0, 1.0, 1, eps)
    assert q == pytest.approx(eps / 2 * math.atan(math.sqrt(eps)) / math.pi)


def test_brute_force_dp_agrees_with_library():
    for params, beta, eps in workloads.TINY_DP_CASES:
        samples = workloads.null_jets(np.random.default_rng(5), params, 5)
        assert oracle.brute_force_tube_dp(samples.xs, samples.ys, beta, eps) == \
            detection.tube_dp_statistic(samples, beta, eps)


def test_self_time_subtracts_child_spans():
    S = tracing.Span
    spans = [
        S(0, "a", 0.0, 10.0, None),
        S(1, "b", 1.0, 4.0, 0),
        S(2, "c", 5.0, 9.0, 0),
        S(3, "d", 6.0, 8.0, 2),
        S(4, "b", 11.0, 12.5, None),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"a": 3.0, "b": 4.5, "c": 2.0, "d": 2.0})


def test_tracer_records_nested_spans_and_restores_originals():
    from alignstat import experiments

    original = detection.generate_null_jets
    tracer = tracing.Tracer()
    with tracer.recording():
        assert experiments.generate_null_jets is not original
        params = HolderParams(1, 2, 2.0, 1.0, 1)
        samples = detection.generate_alt_jets(
            50, 10, experiments.default_alternative(
                experiments.ExperimentConfig("jets", 1, 2, 2.0, 1.0, 1, 50, 10, 0, 1)),
            params, np.random.default_rng(1), check=False)
    assert detection.generate_null_jets is original
    assert experiments.generate_null_jets is original
    names = [sp.name for sp in tracer.spans]
    assert names == ["detection.generate_alt_jets", "detection.generate_null_jets"]
    assert tracer.spans[1].parent == tracer.spans[0].sid
    # the nested background draw is not counted twice
    assert tracer.counts["detection.samples_generated"] == len(samples) == 50


def test_certify_inputs_depend_only_on_seed():
    a, b, c = (workloads.make_certify_inputs(s) for s in (7, 7, 8))

    def flat(inp):
        arrays = [s.xs for s in inp["dp12"]] + [s.ys for s in inp["dp12"]]
        arrays += [inp["dp13"].ys, inp["wide"].ys, inp["wide"].xs]
        arrays += [p.x for p in inp["nodes34"]] + [p.y for p in inp["nodes34"]]
        return np.concatenate([x.ravel() for x in arrays])

    assert np.array_equal(flat(a), flat(b))
    assert a["eps34"] == b["eps34"]
    assert not np.array_equal(flat(a), flat(c))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(m, u) for m, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, u) for m, u, _ in run.PER_LAYER]


def test_missing_trace_target_is_skipped(monkeypatch, capsys):
    extra = [("nets", "no_such_function", None, None), ("holder", "NoSuchClass.method", None, None)]
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + extra)
    original = detection.greedy_cell_statistic
    with tracing.Tracer().recording():
        assert detection.greedy_cell_statistic is not original
    assert detection.greedy_cell_statistic is original
    err = capsys.readouterr().err
    assert "no nets.no_such_function" in err and "no holder.NoSuchClass.method" in err


def test_timer_divides_each_call_by_the_speed_while_it_ran():
    sampler = reference.SpeedSampler()
    nominal = reference.NOMINAL
    sampler.samples = [(1.0, nominal), (2.0, 3 * nominal), (3.0, 2 * nominal), (9.0, nominal)]
    timer = workloads.Timer(sampler)
    timer.add(1.5, 0.5, 0.25)  # the samples at 1, 2 and 3: factor 2
    timer.add(2.0, 1.0, 1.0)  # at 1, 2, 3 and 9: factor 1.75
    timer.add(3.5, 0.5, 0.5)  # at 3 and 9: factor 1.5
    assert (timer.wall, timer.cpu) == (2.0, 1.75)
    assert timer.norm_wall == pytest.approx(0.25 + 1.0 / 1.75 + 0.5 / 1.5)
    assert timer.norm_cpu == pytest.approx(0.125 + 1.0 / 1.75 + 0.5 / 1.5)
    assert timer.mean_factor == pytest.approx(2.0 / timer.norm_wall)


def test_speed_sampler_samples_in_the_background_and_stops():
    with reference.SpeedSampler(period=0.001) as sampler:
        time.sleep(0.05)
    assert not sampler._thread.is_alive()
    assert len(sampler.samples) >= 2
    now = time.perf_counter()
    assert 0 < sampler.factor(now - 1, now) < 1e3
