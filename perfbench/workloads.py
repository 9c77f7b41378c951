"""The four benchmark workloads: their fixed work and their output checks.

Every workload repeats one fixed unit of work per iteration, with inputs
that depend only on the benchmark seed, so iterations within a run are
identical and their computed counts repeat exactly.  ``prepare`` runs the
untimed once-per-run oracle checks; ``iteration`` runs the timed work,
each library or CLI call through ``Ops.call`` with its check.

Checks never depend on the random stream: they compare against closed
forms (the occupancy law of the greedy count, exact Grassmannian
measures), against brute-force enumeration, or against certified
inequalities (DP >= greedy count, membership of every interpolant).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import resource
import time
import traceback
from pathlib import Path

import numpy as np

import oracle

from alignstat import cli, detection, experiments, holder, nets
from alignstat.holder import HolderParams, JetPoint, JetSamples

# (1,3) sweep grid of acceptance criterion 2.
SWEEP_GRID = (10_000, 20_000, 40_000, 80_000, 160_000, 300_000)
# 100 trials per n: every n's mean is then positive (exponent-sweep exits
# 3 on a zero mean) except with probability < 1e-5 per sweep.
SWEEP_TRIALS = 100
POWER_N, POWER_N1, POWER_TRIALS, POWER_LEVEL = 100_000, 3_000, 100, 0.05
# Untimed null trials checking the oriented calibration law.
POWER_ORACLE_TRIALS = 100
CERTIFY_DP_SIZES = (10_000, 30_000, 100_000)
# n = 760 puts the (1,3) balance eps at 0.150 for the product-state DP.
CERTIFY_PRODUCT_N = 760
CERTIFY_MATERIALIZE_N = 2_000
CERTIFY_MEMBERSHIP_GRID = 13
NETS_EPS = (0.4, 0.2)
NETS_PROBES = 300
VOLUME_TRIALS = 20_000
# acceptance criterion 5: ratios to eps stay within a factor 2 over eps
BAND_FACTOR = 2.0


def _cpu() -> float:
    """User + sys CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Timer:
    """Wall and CPU seconds spent inside timed calls of one iteration.

    ``norm_wall`` and ``norm_cpu`` divide each call's seconds by the
    machine's speed factor while it ran (see reference.py).
    """

    def __init__(self, sampler):
        self.sampler = sampler
        self.wall = 0.0
        self.cpu = 0.0
        self.norm_wall = 0.0
        self.norm_cpu = 0.0

    def add(self, start: float, wall: float, cpu: float) -> None:
        factor = self.sampler.factor(start, start + wall)
        self.wall += wall
        self.cpu += cpu
        self.norm_wall += wall / factor
        self.norm_cpu += cpu / factor

    @property
    def mean_factor(self) -> float:
        """The factor by which this iteration's calls were divided, on average."""
        return self.wall / self.norm_wall if self.norm_wall else 1.0


class Ops:
    """Counts operations; one fails when it raises or its check objects."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, label: str, fn, check=None, timer: Timer | None = None):
        self.attempted += 1
        t0, c0 = time.perf_counter(), _cpu()
        try:
            result = fn()
        except Exception as exc:  # the benchmark reports failures, it does not stop on them
            self.failed += 1
            self.problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None
        finally:
            if timer is not None:
                timer.add(t0, time.perf_counter() - t0, _cpu() - c0)
        problems = check(result) if check else []
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return result


class Context:
    """What a workload needs from the harness: seed, output dir, tracer."""

    def __init__(self, seed: int, out_dir: Path, tracer=None):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer

    def run_cli(self, argv: list[str], sub: str) -> int:
        """One in-process ``alignstat`` command writing into its own directory."""
        out = self.out_dir / sub
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out-dir", str(out)])
        if self.tracer is not None and self.tracer.active:
            self.tracer.count("cli.bytes_written", sum(f.stat().st_size for f in out.iterdir()))
            if rc != 0:
                self.tracer.failures[("cli", f"exit{rc}")] += 1
        return rc


def _exit_ok(rc) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep_csv(path: Path, problem: str, k: int, d: int, grid, trials: int) -> list[str]:
    """Per n: exact eps and cell count, and the mean within Z_BOUND of the law."""
    rows = _read_csv(path)
    problems = []
    for n in grid:
        got = [r for r in rows if int(r["n"]) == n]
        law = oracle.greedy_null_moments(problem, k, d, 2.0, 1.0, 1, n)
        if len(got) != trials:
            problems.append(f"n={n}: {len(got)} records, expected {trials}")
            continue
        if any(abs(float(r["eps"]) / law["eps"] - 1) > 1e-9 for r in got):
            problems.append(f"n={n}: eps differs from the balance point {law['eps']!r}")
        if any(int(r["cells_total"]) != law["cells"] for r in got):
            problems.append(f"n={n}: cells_total differs from {law['cells']}")
        z = oracle.mean_z([int(r["statistic"]) for r in got], law["mean"], law["var"])
        if abs(z) > oracle.Z_BOUND:
            problems.append(f"n={n}: mean is {z:+.2f} standard errors from {law['mean']:.4f}")
    return problems


def null_jets(rng: np.random.Generator, params: HolderParams, n: int) -> JetSamples:
    """Uniform null jets drawn by the benchmark itself (value in [0,1],
    derivative rows in [-beta, beta])."""
    rows = len(oracle.multi_indices(params.k, params.r0))
    ys = np.empty((n, rows, params.dim_out))
    ys[:, 0] = rng.random((n, params.dim_out))
    ys[:, 1:] = rng.uniform(-params.beta, params.beta, (n, rows - 1, params.dim_out))
    return JetSamples(params, rng.random((n, params.k)), ys)


# ---------------------------------------------------------------------------


class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name = ""
    # Run by a fresh interpreter to measure setup_s, and in-process before
    # timing: imports plus the one-time caches this workload needs.
    setup_code = "import alignstat.cli"

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self, ops: Ops) -> None:
        """Untimed, once per run: inputs and oracle checks."""

    def iteration(self, ops: Ops, timer: Timer) -> None:
        raise NotImplementedError


class SweepJets(Workload):
    name = "sweep_jets"

    def iteration(self, ops, timer):
        argv = ["exponent-sweep", "--problem", "jets", "--k", "1", "--d", "3",
                "--n-grid", ",".join(map(str, SWEEP_GRID)), "--trials", str(SWEEP_TRIALS),
                "--seed", str(self.ctx.seed), "--workers", "1"]

        def check(rc):
            return _exit_ok(rc) or check_sweep_csv(
                self.ctx.out_dir / "sweep" / "sweep.csv", "jets", 1, 3, SWEEP_GRID, SWEEP_TRIALS)

        ops.call("exponent-sweep jets (1,3)", lambda: self.ctx.run_cli(argv, "sweep"),
                 check, timer)


class PowerOriented(Workload):
    name = "power_oriented"

    def prepare(self, ops):
        # The calibration null of `power` runs the same null trials as this
        # sweep; its mean is checked against the occupancy law.
        cfg = experiments.ExperimentConfig("oriented", 1, 2, 2.0, 1.0, 1, POWER_N, 0,
                                           self.ctx.seed, POWER_ORACLE_TRIALS)
        law = oracle.greedy_null_moments("oriented", 1, 2, 2.0, 1.0, 1, POWER_N)

        def check(res):
            z = oracle.mean_z([r.statistic for r in res.records], law["mean"], law["var"])
            if abs(z) > oracle.Z_BOUND:
                return [f"null mean is {z:+.2f} standard errors from {law['mean']:.4f}"]
            return []

        ops.call("oriented null law at n=1e5",
                 lambda: experiments.run_sweep(cfg, [POWER_N], trials=POWER_ORACLE_TRIALS), check)

    def iteration(self, ops, timer):
        argv = ["power", "--problem", "oriented", "--k", "1", "--d", "2", "--n", str(POWER_N),
                "--n1", str(POWER_N1), "--trials", str(POWER_TRIALS),
                "--level", repr(POWER_LEVEL), "--seed", str(self.ctx.seed)]

        def check(rc):
            if rc != 0:
                return _exit_ok(rc)
            (row,) = _read_csv(self.ctx.out_dir / "power" / "power.csv")
            problems = []
            if not 0.0 <= float(row["tie_gamma"]) <= 1.0:
                problems.append(f"tie_gamma {row['tie_gamma']} outside [0, 1]")
            if float(row["power"]) < POWER_LEVEL:
                problems.append(f"power {row['power']} below the level {POWER_LEVEL}")
            return problems

        ops.call("power oriented (1,2)", lambda: self.ctx.run_cli(argv, "power"), check, timer)


class Certify(Workload):
    name = "certify"
    setup_code = (
        "import alignstat.cli\n"
        "from alignstat.holder import HolderParams, construction_c2\n"
        "for k, d, beta in ((1, 2, 2000.0), (3, 4, 1.0)):\n"
        "    construction_c2(HolderParams(k, d, 2.0, beta, 1))\n"
    )

    P12 = HolderParams(1, 2, 2.0, 1.0, 1)
    P13 = HolderParams(1, 3, 2.0, 1.0, 1)
    P12_WIDE = HolderParams(1, 2, 2.0, 2000.0, 1)  # certifying c2 is 1 + 1e-6
    P34 = HolderParams(3, 4, 2.0, 1.0, 1)

    def prepare(self, ops):
        self.inputs = make_certify_inputs(self.ctx.seed)
        rng = np.random.default_rng(np.random.SeedSequence([self.ctx.seed, 90]))
        for case, (params, beta, eps) in enumerate(TINY_DP_CASES):
            samples = null_jets(rng, params, int(rng.integers(1, 7)))
            want = oracle.brute_force_tube_dp(samples.xs, samples.ys, beta, eps)

            def check(got, want=want):
                return [] if got == want else [f"DP {got} != path enumeration {want}"]

            ops.call(f"tiny DP {case} vs path enumeration",
                     lambda s=samples, b=beta, e=eps: detection.tube_dp_statistic(s, b, e), check)

    def _bracket(self, ops, timer, label, samples, params, n, c2, materialize=False):
        """Greedy count, then the DP at the matched eps; DP must dominate."""
        sel = ops.call(
            f"greedy {label}",
            lambda: detection.greedy_cell_statistic(samples, params, n, c2=c2, clamp=not materialize,
                                                    materialize=materialize),
            lambda s: [] if not materialize or s.interpolant is not None else ["no interpolant"],
            timer)
        if sel is None:
            return None
        ops.call(f"tube DP {label}", lambda: detection.tube_dp_statistic(samples, 1.0, sel.eps),
                 lambda dp: [] if sel.count <= dp <= len(samples)
                 else [f"DP {dp} outside [greedy {sel.count}, n {len(samples)}]"], timer)
        return sel

    def iteration(self, ops, timer):
        inp = self.inputs
        for n, samples in zip(CERTIFY_DP_SIZES, inp["dp12"]):
            self._bracket(ops, timer, f"(1,2) n={n}", samples, self.P12, n, oracle.EXPERIMENT_C2)
        self._bracket(ops, timer, f"(1,3) n={CERTIFY_PRODUCT_N}", inp["dp13"], self.P13,
                      CERTIFY_PRODUCT_N, oracle.EXPERIMENT_C2)
        sel = self._bracket(ops, timer, "materialized beta=2000", inp["wide"], self.P12_WIDE,
                            CERTIFY_MATERIALIZE_N, None, materialize=True)
        if sel is not None and sel.interpolant is not None:
            ops.call("membership beta=2000 interpolant",
                     lambda: holder.holder_membership_check(sel.interpolant, self.P12_WIDE),
                     _membership_ok, timer)
        itp = ops.call("interpolant (3,4)",
                       lambda: holder.build_interpolant(inp["nodes34"], self.P34, inp["eps34"]),
                       None, timer)
        if itp is not None:
            ops.call("membership (3,4) interpolant",
                     lambda: holder.holder_membership_check(itp, self.P34,
                                                            grid_n=CERTIFY_MEMBERSHIP_GRID),
                     _membership_ok, timer)


def _membership_ok(report) -> list[str]:
    return [] if report.passed else [f"membership failed, ratio {report.max_holder_ratio:.4g}"]


# (params, beta, eps) of the brute-force DP cases: d-k = 1 and d-k = 2.
TINY_DP_CASES = [
    (HolderParams(1, 2, 2.0, 0.5, 1), 0.5, 0.25),
    (HolderParams(1, 2, 2.0, 1.0, 1), 1.0, 0.2),
    (HolderParams(1, 2, 2.0, 2.5, 1), 2.5, 0.3),
    (HolderParams(1, 3, 2.0, 0.5, 1), 0.5, 0.25),
]


def make_certify_inputs(seed: int) -> dict:
    """Every input of the certify workload, a pure function of the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 91]))
    dp12 = [null_jets(rng, Certify.P12, n) for n in CERTIFY_DP_SIZES]
    dp13 = null_jets(rng, Certify.P13, CERTIFY_PRODUCT_N)
    # Half null, half on the constant map at 0.75 eps(n) (slope 0), whose
    # jets sit inside every cell box, so the materialized selection is
    # non-empty.
    n = CERTIFY_MATERIALIZE_N
    wide = null_jets(rng, Certify.P12_WIDE, n)
    planted = rng.permutation(n)[: n // 2]
    wide.ys[planted, 0, 0] = 0.75 * oracle.balance_eps(1, 2, 2.0, 1, n)
    wide.ys[planted, 1, 0] = 0.0
    # (3,4) nodes in random even cells of a width-0.2 grid, jets in the box.
    params = Certify.P34
    eps = 0.04 / holder.construction_c2(params)
    width = 0.2
    cells = list(itertools.product(range(0, 5, 2), repeat=params.k))
    nodes = []
    for cell in (cells[i] for i in rng.permutation(len(cells))[:12]):
        x = (np.array(cell) + rng.uniform(0.001, 0.999, params.k)) * width
        y = np.empty((params.k + 1, params.dim_out))
        y[0] = rng.uniform(eps / 2, eps, params.dim_out)
        y[1:] = rng.uniform(0.0, math.sqrt(eps), (params.k, params.dim_out))
        nodes.append(JetPoint(x, y))
    return {"dp12": dp12, "dp13": dp13, "wide": wide, "nodes34": nodes, "eps34": eps}


class Nets(Workload):
    name = "nets"
    setup_code = (
        "import alignstat.cli\n"
        "from alignstat.nets import estimate_span_bound\n"
        "estimate_span_bound(2, 3)\n"
    )

    def iteration(self, ops, timer):
        seed = str(self.ctx.seed)
        demo = ["nets-demo", "--k", "2", "--d", "3", "--eps-grid", ",".join(map(repr, NETS_EPS)),
                "--probes", str(NETS_PROBES), "--seed", seed]
        rc = ops.call("nets-demo (2,3)", lambda: self.ctx.run_cli(demo, "nets"), _exit_ok, timer)
        # nets-demo would also build the (2,4) covering, which exceeds the
        # member cap at eps 0.2, so the (2,4) packing is a library call.
        pack24 = ops.call("packing (2,4) eps=0.2", lambda: nets.packing_family(2, 4, 0.2),
                          lambda f: [] if len(f) == 6**4 and f.separation else ["bad family"],
                          timer)
        if rc == 0 and pack24 is not None:
            ops.call("nets bands", lambda: self._bands(pack24), lambda p: p)
        for k, d, grid in ((2, 4, "0.6,0.45,0.35,0.29"), (1, 2, "0.4,0.2,0.1")):
            argv = ["volume-scan", "--k", str(k), "--d", str(d), "--eps-grid", grid,
                    "--trials", str(VOLUME_TRIALS), "--seed", seed]
            sub = f"volume{k}{d}"
            ops.call(f"volume-scan ({k},{d})", lambda a=argv, s=sub: self.ctx.run_cli(a, s),
                     lambda rc, s=sub, kd=(k, d): _exit_ok(rc) or self._volume(s, kd), timer)

    def _bands(self, pack24) -> list[str]:
        rows = _read_csv(self.ctx.out_dir / "nets" / "nets.csv")
        problems = []
        pack = [float(r["ratio_to_eps"]) for r in rows if r["kind"] == "packing"]
        pack.append(pack24.separation / 0.2)
        cover = [float(r["ratio_to_eps"]) for r in rows if r["kind"] == "covering"]
        for kind, ratios in (("packing separation", pack), ("covering radius", cover)):
            if len(ratios) < 2 or not min(ratios) > 0 or max(ratios) > BAND_FACTOR * min(ratios):
                problems.append(f"{kind} / eps = {ratios} not within a factor {BAND_FACTOR}")
        for r in rows:
            if r["kind"] == "packing":
                per = math.floor(1.0 / float(r["eps"])) + 1
                if int(r["members"]) != per**2:
                    problems.append(f"packing at eps {r['eps']}: {r['members']} != {per**2} members")
        return problems

    def _volume(self, sub: str, kd) -> list[str]:
        rows = _read_csv(self.ctx.out_dir / sub / "volume.csv")
        problems = []
        for r in rows:
            p, eps = float(r["p_hat"]), float(r["eps"])
            if int(r["trials"]) != VOLUME_TRIALS or not 0.0 <= p <= 1.0:
                problems.append(f"{r['kind']} eps={eps}: bad row")
            if kd != (1, 2):
                continue
            # (1,2): the angle between lines is uniform on [0, pi/2] and the
            # chart slope is tan of a uniform angle.
            exact = 2 * eps / math.pi if r["kind"] == "ball" else math.atan(eps) / math.pi
            z = (p - exact) / math.sqrt(exact * (1 - exact) / VOLUME_TRIALS)
            if abs(z) > oracle.Z_BOUND:
                problems.append(f"{r['kind']} eps={eps}: {z:+.2f} standard errors from {exact:.5f}")
        return problems


WORKLOADS = {w.name: w for w in (SweepJets, PowerOriented, Certify, Nets)}


def determinism_check(ctx: Context, ops: Ops) -> None:
    """A small sweep's CSV must be byte-identical for 1 and 2 workers."""
    argv = ["exponent-sweep", "--problem", "jets", "--k", "1", "--d", "2",
            "--n-grid", "1000,2000,4000", "--trials", "40", "--seed", str(ctx.seed)]
    for workers in (1, 2):
        ops.call(f"determinism sweep, {workers} worker(s)",
                 lambda w=workers: ctx.run_cli(argv + ["--workers", str(w)], f"det{w}"), _exit_ok)

    def same() -> list[str]:
        a, b = ((ctx.out_dir / f"det{w}" / "sweep.csv").read_bytes() for w in (1, 2))
        return [] if a == b else ["sweep.csv differs between 1 and 2 workers"]

    ops.call("determinism byte identity", same, lambda p: p)

