"""alignstat benchmark: one workload per run, fixed work repeated for --seconds.

    python3 perfbench/run.py --workload sweep_jets --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

Each run is one fresh process, a closed loop from a single client with
workers = 1.  It checks that the CLI's sweep.csv is byte-identical for 1
and 2 workers, times set-up in fresh interpreters, runs the workload's
untimed oracle checks, then repeats the workload's fixed work and checks
every output.  Human-readable lines come first; the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 alternate
iterations run with spans around alignstat's public functions and the
metrics are the per-layer ones (see PER_LAYER).

Times are normalized to nominal machine speed by the reference loop of
reference.py, timed in the background while the calls run; the raw
seconds are printed beside them.  BLAS and OpenMP pools get one thread
unless the caller sets their variables, so a run uses one core.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
MIN_ITERATIONS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = [
    ("norm_wall_s", "s", "median seconds of one iteration's fixed work, at nominal speed"),
    ("norm_cpu_s", "s", "median user+sys CPU seconds of one iteration, children included, "
     "at nominal speed"),
    ("setup_s", "s", "median seconds for a fresh interpreter to import alignstat and fill "
     "the caches, at nominal speed"),
    ("peak_rss_mb", "MB", "peak resident memory of the run's own process"),
]

_SWEEP, _POWER, _CERT, _NETS = ("sweep_jets", "power_oriented", "certify", "nets")
# (metric, unit, the end-to-end metric and workloads it should move)
PER_LAYER = [
    ("harness.raw_wall_s", "s", "nothing: median raw seconds of one untraced iteration"),
    ("harness.ref_factor", "ratio", "nothing: how much slower than nominal the machine ran"),
    ("experiments.run_sweep.self_s", "s", f"norm_wall_s on {_SWEEP}"),
    ("experiments.run_trial.calls", "count", f"norm_wall_s on {_SWEEP} (base for ratios)"),
    ("experiments.null_quantile_threshold.self_s", "s", f"norm_wall_s on {_POWER}"),
    ("experiments.power_estimate.self_s", "s", f"norm_wall_s on {_POWER}"),
    ("detection.generate_null_jets.self_s", "s", f"norm_wall_s on {_SWEEP}"),
    ("detection.samples_generated", "count", f"norm_wall_s, peak_rss_mb on {_SWEEP}"),
    ("detection.generated_mb", "MB", f"norm_wall_s, peak_rss_mb on {_SWEEP}"),
    ("detection.generate_null_oriented.self_s", "s", f"norm_wall_s on {_POWER}"),
    ("detection.generate_alt_oriented.self_s", "s", f"norm_wall_s on {_POWER}"),
    ("detection.oriented_to_jets.self_s", "s", f"norm_wall_s on {_POWER}"),
    ("detection.oriented_to_jets.dropped", "count", f"norm_wall_s on {_POWER}"),
    ("detection.greedy_cell_statistic.self_s", "s",
     f"norm_wall_s on {_SWEEP} (heavy), {_POWER} (light)"),
    ("detection.greedy.selected", "count", f"norm_wall_s on {_SWEEP}, {_POWER}"),
    ("detection.greedy.useful_ratio", "ratio", f"norm_wall_s on {_SWEEP}, {_POWER}"),
    ("detection.greedy.clamped_trials", "count", f"norm_wall_s on {_SWEEP}, {_POWER}"),
    ("detection.tube_dp_statistic.d1.self_s", "s", f"norm_wall_s on {_CERT}"),
    ("detection.tube_dp_statistic.d2.self_s", "s", f"norm_wall_s on {_CERT}"),
    ("detection.tube_dp.state_updates", "count", f"norm_wall_s on {_CERT}"),
    ("grassmann.sample_uniform_frames.self_s", "s", f"norm_wall_s on {_POWER}, {_NETS}"),
    ("grassmann.sample_uniform_frames.frames", "count", f"norm_wall_s on {_POWER}, {_NETS}"),
    ("grassmann.batch_canonical_angle.self_s", "s", f"norm_wall_s on {_NETS}"),
    ("grassmann.batch_canonical_angle.pairs", "count", f"norm_wall_s on {_NETS}"),
    ("holder.GraphLift.tangent_frames.self_s", "s", f"norm_wall_s on {_POWER}"),
    ("holder.build_interpolant.self_s", "s", f"norm_wall_s on {_CERT}"),
    ("holder.HolderInterpolant.jet_grid.self_s", "s", f"norm_wall_s on {_CERT}"),
    ("bumps.plateau_sq_derivs.calls", "count", f"norm_wall_s on {_CERT}"),
    ("holder.holder_membership_check.self_s", "s", f"norm_wall_s, peak_rss_mb on {_CERT}"),
    ("holder.membership.pairs", "count", f"norm_wall_s, peak_rss_mb on {_CERT}"),
    ("holder.membership.pair_mb", "MB", f"norm_wall_s, peak_rss_mb on {_CERT}"),
    ("holder.bump_basis.self_s", "s", f"setup_s on {_CERT}"),
    ("nets.estimate_span_bound.self_s", "s", f"setup_s on {_NETS}"),
    ("nets.packing_family.self_s", "s", f"norm_wall_s on {_NETS}"),
    ("nets.packing.pairs", "count", f"norm_wall_s on {_NETS}"),
    ("nets.covering_family.self_s", "s", f"norm_wall_s on {_NETS}"),
    ("nets.covering.members", "count", f"norm_wall_s on {_NETS}"),
    ("nets.covering_radius_estimate.self_s", "s", f"norm_wall_s on {_NETS}"),
    ("nets.probe_pairs", "count", f"norm_wall_s on {_NETS}"),
    ("nets.ball_measure_estimate.self_s", "s", f"norm_wall_s on {_NETS}"),
    ("nets.chart_cube_measure_estimate.self_s", "s", f"norm_wall_s on {_NETS}"),
    ("cli.main.self_s", "s", f"norm_wall_s on {_SWEEP}, {_POWER}, {_NETS}"),
    ("cli.bytes_written", "B", f"norm_wall_s on {_SWEEP}, {_POWER}, {_NETS}"),
    ("experiments.failed", "count", "failed_frac on every workload"),
    ("detection.failed", "count", "failed_frac on every workload"),
    ("grassmann.failed", "count", "failed_frac on every workload"),
    ("holder.failed", "count", "failed_frac on every workload"),
    ("bumps.failed", "count", "failed_frac on every workload"),
    ("nets.failed", "count", "failed_frac on every workload"),
    ("cli.failed", "count", "failed_frac on every workload"),
    ("trace.overhead_s", "s", "nothing: traced minus untraced norm_wall_s of one iteration"),
]
# Cached on first use, so their cost lands in set-up: measured over the
# traced in-process set-up plus one iteration.
SETUP_LAYERS = ("holder.bump_basis.self_s", "nets.estimate_span_bound.self_s")


def _import_alignstat():
    """Import alignstat from this checkout's src/, and only from there."""
    sys.path[:0] = [str(HERE), str(SRC)]
    try:
        import alignstat
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import alignstat from {SRC}: {exc}") from exc
    if Path(alignstat.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: alignstat was imported from {alignstat.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "processes": 1,
        "workers": 1,
        "determinism_check_workers": [1, 2],
    }


def time_setup(code: str, ops, sampler) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has run ``code``:
    raw, and divided by the machine's speed factor while it ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, norm_times = [], []

    def once():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        norm_times.append(times[-1] / sampler.factor(t0, t1))
        return proc

    for rep in range(SETUP_REPS):
        ops.call(f"set-up {rep}", once,
                 lambda p: [] if p.returncode == 0 else [f"exit {p.returncode}: {p.stderr[-500:]}"])
    return times, norm_times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl
    from reference import SpeedSampler
    from tracing import Tracer

    out_dir = HERE / "out" / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = wl.Ops()
    tracer = Tracer() if trace else None
    ctx = wl.Context(seed, out_dir, tracer)
    workload = wl.WORKLOADS[name](ctx)
    try:
        wl.determinism_check(ctx, ops)  # forks a pool: before the sampler thread starts
        with SpeedSampler() as sampler:
            result = timed_run(workload, seconds, ops, tracer, sampler)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["peak_rss_mb"] = peak
    if tracer:
        trace_file = HERE / "out" / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps([sp.__dict__ for sp in tracer.spans]))
        result["trace_file"] = trace_file
    return result


def timed_run(workload, seconds: float, ops, tracer, sampler) -> dict:
    """Set-up, the untimed checks, then the timed loop, with ``sampler`` running."""
    import workloads as wl

    recording = tracer.recording if tracer else contextlib.nullcontext
    setup_times, norm_setup_times = time_setup(workload.setup_code, ops, sampler)
    setup_mark = tracer and tracer.mark()
    t0 = time.perf_counter()
    with recording():
        exec(workload.setup_code, {})
    setup_factor = sampler.factor(t0, time.perf_counter())
    workload.prepare(ops)

    timers, traced_timers, traced = [], [], []
    t_start = time.perf_counter()
    for done in itertools.count(1):
        timer = wl.Timer(sampler)
        if tracer and done % 2 == 0:  # traced runs alternate: untraced, traced, ...
            mark = tracer.mark()
            with recording():
                workload.iteration(ops, timer)
            traced_timers.append(timer)
            self_s, counts = tracer.since(mark)
            traced.append(({k: v / timer.mean_factor for k, v in self_s.items()}, counts))
        else:
            workload.iteration(ops, timer)
            timers.append(timer)
        # stop before an iteration of average length would overrun --seconds
        elapsed = time.perf_counter() - t_start
        if done >= MIN_ITERATIONS and elapsed * (done + 1) / done > seconds:
            break

    def median(attr, of=timers):
        return statistics.median(getattr(t, attr) for t in of)

    result = {
        "ops": ops,
        "iterations": len(timers),
        "norm_wall_s": median("norm_wall"),
        "norm_cpu_s": median("norm_cpu"),
        "setup_s": statistics.median(norm_setup_times),
        "raw": {"wall_s": median("wall"), "cpu_s": median("cpu"),
                "setup_s": statistics.median(setup_times),
                "ref_factor": median("mean_factor")},
    }
    if tracer:
        harness = {"harness.raw_wall_s": result["raw"]["wall_s"],
                   "harness.ref_factor": result["raw"]["ref_factor"],
                   "trace.overhead_s": median("norm_wall", traced_timers) - result["norm_wall_s"]}
        result["layers"] = layer_metrics(tracer, setup_mark, setup_factor, traced, harness)
        result["traced_iterations"] = len(traced)
        result["failures"] = dict(tracer.failures)
    result["spans"] = len(tracer.spans) if tracer else 0
    return result


def layer_metrics(tracer, setup_mark, setup_factor, traced, harness) -> dict:
    """Per-layer values: medians over traced iterations (identical work).

    Self times are at nominal speed, like the end-to-end times: each
    traced iteration's are divided by its mean speed factor.
    """
    setup_self = {k: v / setup_factor for k, v in tracer.since(setup_mark)[0].items()}

    def median_of(key, table):  # table 0: self times, 1: counts (see Tracer.since)
        return statistics.median(it[table].get(key, 0) for it in traced)

    out = {}
    for metric, _unit, _moves in PER_LAYER:
        if metric in harness:
            value = harness[metric]
        elif metric.endswith(".self_s"):
            span = metric[: -len(".self_s")]
            value = median_of(span, 0)
            if metric in SETUP_LAYERS:
                value += setup_self.get(span, 0.0)
        elif metric.endswith(".failed"):
            module = metric[: -len(".failed")]
            value = sum(n for (mod, _cls), n in tracer.failures.items() if mod == module)
        elif metric == "detection.greedy.useful_ratio":
            generated = median_of("detection.samples_generated", 1)
            value = median_of("detection.greedy.selected", 1) / generated if generated else 0.0
        else:
            value = median_of(metric, 1)
        out[metric] = value
    return out


def report(name: str, seed: int, trace: bool, res: dict) -> dict:
    ops = res["ops"]
    print(f"== perfbench {name} seed={seed} trace={int(trace)}")
    print("provenance " + json.dumps(provenance(name, seed)))
    print(f"operations attempted={ops.attempted} failed={ops.failed} "
          f"failed_frac={ops.failed / ops.attempted:.6g} ratio")
    for problem in ops.problems:
        print(f"FAILED {problem}")
    print(f"iterations untraced={res['iterations']} traced={res.get('traced_iterations', 0)}; "
          f"spans recorded={res['spans']}")
    raw = res["raw"]
    for metric, unit, what in END_TO_END:
        if metric == "peak_rss_mb":
            note = what
        elif metric == "setup_s":
            note = f"median of {SETUP_REPS} fresh interpreters; raw {raw['setup_s']:.6f} s"
        else:
            note = f"median of {res['iterations']} iterations; raw {raw[metric[5:]]:.6f} s"
        print(f"{metric:44s} {res[metric]:14.6f} {unit:6s} ({note})")
    print(f"{'speed factor':44s} {raw['ref_factor']:14.6f} ratio  "
          f"(median over iterations; 1.0 = nominal speed)")
    if trace:
        print(f"per-layer, median of {res['traced_iterations']} traced iterations; self time is "
              f"span time minus child spans; spans in {res['trace_file'].relative_to(ROOT)}")
        for metric, unit, moves in PER_LAYER:
            kind = "timed" if unit == "s" else "measured" if metric.startswith("harness.") else \
                "counted" if metric.endswith((".calls", ".failed")) else "computed"
            print(f"{metric:44s} {res['layers'][metric]:14.6g} {unit:6s} {kind:8s} "
                  f"should move {moves}")
        for (module, cls), count in sorted(res["failures"].items()):
            print(f"failed {module}.{cls} {count}")
    table = PER_LAYER if trace else END_TO_END
    values = res["layers"] if trace else res
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u, _ in table},
    }


def run_all(args) -> int:
    """Every workload, each in a fresh process; the last line sums them up."""
    import workloads as wl

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep_jets", "power_oriented", "certify", "nets", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for var in THREAD_VARS:  # before numpy loads: one core, no oversubscribed pools
        os.environ.setdefault(var, "1")
    _import_alignstat()
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
