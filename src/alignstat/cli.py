"""Command-line driver: stimuli, sweeps, volume scans, net demos, power.

Commands and their options
--------------------------
render-stimulus   SVG of n oriented segments in the unit square (d=2, k=1):
                  --n --n1 --beta --segment-length
exponent-sweep    statistic means over an n grid + log-log slope report:
                  --problem --k --d --alpha --beta --r0 --n1 --n-grid
                  --trials --workers --c2
volume-scan       ball and chart-cube measures over an eps grid, one draw each:
                  --k --d --trials --eps-grid
nets-demo         packing/covering families: sizes, separation, radius:
                  --k --d --eps-grid --probes --export-members
power             null-calibrated threshold and power under the alternative:
                  --problem --k --d --alpha --beta --r0 --n --n1 --trials
                  --level

Every command also takes --seed, --out-dir and --config, and rejects any
option it does not read.  A config file is ``key = value`` text that goes
through the same parser as the flags: each line becomes ``--key=value``
ahead of the command line, so flags override the file, and an unknown key
or a bad value is the same error as a bad flag.  A boolean takes 1, true,
yes or on, or 0, false, no or off.  Every run that completes (exit 0) or
stops on a numerical error (exit 3) writes a manifest echoing the full
effective configuration (a manifest is itself a valid config file, so
re-running from it reproduces the outputs byte for byte).  Its first line
is a ``#`` comment naming the alignstat, numpy and Python versions.  A
rejected configuration (exit 2) writes no file at all, and removes the
output directories it created while they are empty.

Exit codes: 0 success, 2 configuration error (a size budget exceeded by the
requested sizes counts as one), 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import math
import platform
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .detection import generate_alt_oriented, generate_null_oriented
from .errors import (
    AlignstatError,
    BudgetExceeded,
    CliConfigError,
    DegenerateFit,
    DimensionMismatch,
    ParamOrder,
)
from .experiments import (
    DRAW_BUDGET,
    EXPERIMENT_C2,
    ExperimentConfig,
    null_quantile_threshold,
    power_estimate,
    run_sweep,
    write_records_csv,
)
from .grassmann import Subspace
from .holder import HolderParams, graph_lift, random_class_function
from .nets import (
    ball_measure_estimate,
    chart_cube_measure_estimate,
    covering_family,
    covering_radius_estimate,
    export_family_csv,
    family_size,
    packing_family,
)


def _truth(text: str) -> bool:
    """A boolean option's value, from a flag or a config file."""
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


# Every option of every command; COMMANDS names the ones each command reads.
_OPTIONS = dict(
    seed=dict(type=int, default=0, help="master seed"),
    out_dir=dict(default="out", help="output directory"),
    config=dict(help="key = value config file"),
    problem=dict(choices=("jets", "oriented"), default="jets"),
    k=dict(type=int, default=1),
    d=dict(type=int, default=2),
    alpha=dict(type=float, default=2.0),
    beta=dict(type=float, default=1.0),
    r0=dict(type=int, default=1),
    n=dict(type=int),
    n1=dict(type=int, default=0),
    n_grid=dict(default="1000,3000,10000,30000,100000"),
    trials=dict(type=int, default=100, help="Monte Carlo trials"),
    eps_grid=dict(),
    segment_length=dict(type=float, default=0.05),
    workers=dict(type=int, default=1),
    c2=dict(default="experiment", help="cell scaling: 'experiment' (1 + 1e-6), 'class', or a float"),
    probes=dict(type=int, default=1000),
    export_members=dict(type=_truth, nargs="?", const=True, default=False, metavar="BOOL"),
    level=dict(type=float, default=0.05),
)

class _Parser(argparse.ArgumentParser):
    """A parser whose every error, from a flag or a config key, exits 2."""

    def error(self, message):
        raise CliConfigError(message)


@functools.cache  # built once per process; parsing never mutates it
def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: an unknown key such as `eps` must not match --eps-grid
    parser = _Parser(
        prog="alignstat", description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (names, defaults, _) in COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        for name in ("seed", "out_dir", "config") + names:
            p.add_argument("--" + name.replace("_", "-"), dest=name, **_OPTIONS[name])
        p.set_defaults(**defaults)
    return parser


def _config_tokens(path: str, command: str) -> list[str]:
    """A config file's ``key = value`` lines as ``--key=value`` flags."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliConfigError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "command":
            tokens.append(f"--{key.replace('_', '-')}={value}")
        elif value != command:
            raise CliConfigError(f"config file is for command {value!r}, invoked {command!r}")
    return tokens


def parse_args(argv) -> argparse.Namespace:
    argv = list(argv)
    if argv and argv[0] in COMMANDS:
        path = None  # the last --config wins, as in argparse
        for i, token in enumerate(argv):
            if token == "--config" and i + 1 < len(argv) and not argv[i + 1].startswith("-"):
                path = argv[i + 1]
            elif token.startswith("--config="):
                path = token[len("--config="):]
        if path is not None:
            # file values first, so that argparse's last-wins lets flags override them
            argv[1:1] = _config_tokens(path, argv[0])
    args = _build_parser().parse_args(argv)
    if args.seed < 0:
        raise CliConfigError(f"need seed >= 0, got seed={args.seed}")
    return args


def _provenance() -> str:
    """The manifest's first line, a comment the config parser skips."""
    return f"# alignstat {__version__} numpy {np.__version__} python {platform.python_version()}"


def _write_manifest(args: argparse.Namespace, out_dir: Path) -> None:
    lines = [_provenance(), f"command = {args.command}"]
    lines += [f"{key} = {value}" for key, value in sorted(vars(args).items())
              if key not in ("command", "config")]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _number_list(text: str, kind: type) -> list:
    """Comma-separated numbers; a list with no entry is a config error."""
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CliConfigError(f"bad {kind.__name__} list {text!r}") from exc
    if not values:
        raise CliConfigError(f"empty {kind.__name__} list {text!r}")
    return values


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _svg_segments(z: np.ndarray, frames: np.ndarray, length: float) -> str:
    half = length / 2.0
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
        '<rect width="1000" height="1000" fill="white"/>',
    ]
    for i in range(z.shape[0]):
        direction = frames[i, :, 0]
        x1, y1 = (z[i] - half * direction) * 1000.0
        x2, y2 = (z[i] + half * direction) * 1000.0
        lines.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="black" stroke-width="2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# Every parameter reaching the library from a command came from the command
# line or a config file, so a violated ordering or dimension rule, or a size
# over its budget, is a configuration error (exit 2).
_CONFIG_ERRORS = (CliConfigError, ParamOrder, DimensionMismatch, BudgetExceeded)


def cmd_render_stimulus(args, out_dir: Path) -> int:
    if not 0 <= args.n1 <= args.n:
        raise ParamOrder(f"need 0 <= n1 <= n, got n1={args.n1}, n={args.n}")
    if not 0 < args.segment_length < math.inf:
        raise ParamOrder(f"need finite segment length > 0, got {args.segment_length}")
    # the planted map's values reach 0.5, so it fails membership below beta ~ 0.6
    if not 1 <= args.beta < math.inf:
        raise ParamOrder(f"need finite beta >= 1, got beta={args.beta}")
    # a segment draws its location and its orientation's basis: 4 doubles
    if 4 * args.n > DRAW_BUDGET:
        raise BudgetExceeded(
            f"{args.n} segments would draw {4 * args.n} doubles > budget {DRAW_BUDGET}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0]))
    if args.n1 > 0:
        params = HolderParams(1, 2, 2.0, args.beta, 1)
        lift = graph_lift(random_class_function(params, rng), params)
        samples = generate_alt_oriented(args.n, args.n1, lift, rng)
    else:
        samples = generate_null_oriented(args.n, 1, 2, rng)
    svg = _svg_segments(samples.z, samples.frames, args.segment_length)
    path = out_dir / "stimulus.svg"
    path.write_text(svg)
    print(f"wrote {path} ({args.n} segments, {args.n1} planted)")
    return 0


def _resolve_c2(text: str) -> float | None:
    if text == "experiment":
        return EXPERIMENT_C2
    if text == "class":
        return None  # cell_grid derives the class-certifying value
    try:
        return float(text)
    except ValueError as exc:
        raise CliConfigError(f"bad --c2 value {text!r}") from exc


def _experiment_config(args, n: int) -> ExperimentConfig:
    """The command's options as a run config at sample size n."""
    names = [f.name for f in fields(ExperimentConfig) if f.name != "n"]
    return ExperimentConfig(n=n, **{name: getattr(args, name) for name in names})


def cmd_exponent_sweep(args, out_dir: Path) -> int:
    n_grid = _number_list(args.n_grid, int)
    config = _experiment_config(args, max(n_grid))
    result = run_sweep(config, n_grid, workers=args.workers, c2=_resolve_c2(args.c2))
    write_records_csv(result.records, out_dir / "sweep.csv")
    report = [
        f"problem = {args.problem}",
        f"target_rho = {result.target_rho!r}",
        "means = " + ", ".join(f"({n}, {m!r})" for n, m in result.means),
    ]
    # per n, the regimes a slope hides: trials with no count, and trials
    # whose cell width fell back to one clamped cell
    for name, flags in (
        ("zero_fraction", [r.statistic == 0 for r in result.records]),
        ("clamped_fraction", [r.grid.clamped for r in result.records]),
    ):
        fractions = np.reshape(flags, (len(n_grid), -1)).mean(axis=1).tolist()
        report.append(f"{name} = " + ", ".join(f"({n}, {f!r})" for n, f in zip(n_grid, fractions)))
    if result.fit is None:
        distinct = len(set(n_grid))
        if distinct < 3:
            reason = f"{distinct} distinct n value(s), need 3"
        else:
            reason = "zero mean at n = " + ", ".join(str(n) for n, m in result.means if m <= 0)
        report.append(f"slope = none ({reason})")
    else:
        report += [
            f"slope = {result.fit.slope!r}",
            f"stderr = {result.fit.stderr!r}",
            f"intercept = {result.fit.intercept!r}",
            f"slope_minus_target = {result.fit.slope - result.target_rho!r}",
        ]
    (out_dir / "report.txt").write_text("\n".join(report) + "\n")
    print("\n".join(report))
    if result.fit is None:
        # the degenerate regime keeps its per-n report, then exits 3
        raise DegenerateFit(f"cannot fit a slope: {reason}")
    print(f"wrote {out_dir / 'sweep.csv'} ({len(result.records)} records, "
          f"{result.elapsed_s:.1f}s)")
    return 0


def cmd_volume_scan(args, out_dir: Path) -> int:
    if not 1 <= args.k < args.d:
        raise ParamOrder(f"need 1 <= k < d, got k={args.k}, d={args.d}")
    eps_grid = _number_list(args.eps_grid, float)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 1]))
    center = Subspace(np.eye(args.d)[:, : args.k])
    rows = ["kind,k,d,eps,trials,p_hat,stderr,singular"]
    ball = ball_measure_estimate(center, eps_grid, args.trials, rng)
    cube = chart_cube_measure_estimate(args.k, args.d, eps_grid, args.trials, rng)
    for kind, estimates in (("ball", ball), ("cube", cube)):
        for eps, est in zip(eps_grid, estimates):
            rows.append(f"{kind},{args.k},{args.d},{eps!r},{est.trials},{est.p_hat!r},"
                        f"{est.stderr!r},{est.singular}")
    (out_dir / "volume.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    print(f"target log-log slope: (d-k)k = {(args.d - args.k) * args.k}")
    return 0


def cmd_nets_demo(args, out_dir: Path) -> int:
    eps_grid = _number_list(args.eps_grid, float)
    # every family size is closed-form, so the whole configuration is
    # checked before the first family is built or exported
    if args.probes < 1:
        raise ParamOrder(f"need probes >= 1, got {args.probes}")
    for kind in ("packing", "covering"):
        for eps in eps_grid:
            family_size(kind, args.k, args.d, eps)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 2]))
    rows = ["kind,k,d,eps,members,separation,cover_radius,ratio_to_eps"]
    for eps in eps_grid:
        fam = packing_family(args.k, args.d, eps)
        sep = fam.separation if fam.separation is not None else float("nan")
        rows.append(f"packing,{args.k},{args.d},{eps!r},{len(fam)},{sep!r},,{sep / eps!r}")
        if args.export_members:
            export_family_csv(fam, out_dir / f"packing_{eps!r}.csv")
    for eps in eps_grid:
        fam = covering_family(args.k, args.d, eps)
        radius = covering_radius_estimate(fam, args.probes, rng)
        rows.append(
            f"covering,{args.k},{args.d},{eps!r},{len(fam)},,{radius!r},{radius / eps!r}"
        )
        if args.export_members:
            export_family_csv(fam, out_dir / f"covering_{eps!r}.csv")
    (out_dir / "nets.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


def cmd_power(args, out_dir: Path) -> int:
    config = _experiment_config(args, args.n)
    threshold = null_quantile_threshold(config, args.level, args.trials)
    power = power_estimate(config, threshold, args.trials)
    rows = [
        "problem,k,d,n,n1,level,threshold,tie_gamma,power,stderr,trials",
        f"{args.problem},{args.k},{args.d},{args.n},{args.n1},{args.level!r},"
        f"{threshold.value!r},{threshold.tie_gamma!r},{power.power!r},"
        f"{power.stderr!r},{power.trials}",
    ]
    (out_dir / "power.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


# command -> (the options it reads besides seed, out_dir and config, its
# defaults for the options whose default differs between commands, its
# handler)
COMMANDS = {
    "render-stimulus": (("n", "n1", "beta", "segment_length"), dict(n=100), cmd_render_stimulus),
    "exponent-sweep": (
        ("problem", "k", "d", "alpha", "beta", "r0", "n1", "n_grid", "trials", "workers", "c2"),
        {},
        cmd_exponent_sweep,
    ),
    "volume-scan": (
        ("k", "d", "trials", "eps_grid"), dict(eps_grid="0.4,0.2,0.1,0.05"), cmd_volume_scan
    ),
    "nets-demo": (
        ("k", "d", "eps_grid", "probes", "export_members"), dict(eps_grid="0.4,0.2,0.1"),
        cmd_nets_demo,
    ),
    "power": (
        ("problem", "k", "d", "alpha", "beta", "r0", "n", "n1", "trials", "level"), dict(n=1000),
        cmd_power,
    ),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
    except CliConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    out_dir = Path(args.out_dir)
    # the directories this run creates, innermost first, removed again if it is rejected
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        code = COMMANDS[args.command][2](args, out_dir)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        # a rejected run has written no file; a directory that is not
        # empty holds someone else's files and stays, and so do its parents
        for path in created:
            try:
                path.rmdir()
            except OSError:
                break
        return 2
    except AlignstatError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        code = 3
    # a rejected configuration ran nothing, so only a run that ran gets a manifest
    _write_manifest(args, out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
