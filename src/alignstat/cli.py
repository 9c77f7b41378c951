"""Command-line driver: stimuli, sweeps, volume scans, net demos, power.

Commands
--------
render-stimulus   SVG of n oriented segments in the unit square (d=2, k=1)
exponent-sweep    statistic means over an n grid + log-log slope report
volume-scan       ball and chart-cube measure estimates over an eps grid
nets-demo         packing/covering families: sizes, separation, radius
power             null-calibrated threshold and power under the alternative

Configuration is ``key = value`` text; command-line flags override file
values, unknown keys are a hard error, and every run writes a manifest
echoing the full effective configuration (a manifest is itself a valid
config file, so re-running from it reproduces the outputs byte for byte).
Its first line is a ``#`` comment naming the alignstat, numpy and Python
versions.

Exit codes: 0 success, 2 configuration error (a size budget exceeded by the
requested sizes counts as one), 3 numerical error.
"""

from __future__ import annotations

import argparse
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
    UnsupportedDims,
)
from .experiments import (
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
    packing_family,
)

COMMANDS = ("render-stimulus", "exponent-sweep", "volume-scan", "nets-demo", "power")

# Option dests shared by every command (the common-flag contract).
_COMMON = dict(
    seed=dict(type=int, default=0, help="master seed"),
    out_dir=dict(type=str, default="out", help="output directory"),
    config=dict(type=str, default=None, help="key = value config file"),
    trials=dict(type=int, default=100, help="Monte Carlo trials"),
    k=dict(type=int, default=1),
    d=dict(type=int, default=2),
    alpha=dict(type=float, default=2.0),
    beta=dict(type=float, default=1.0),
    r0=dict(type=int, default=1),
    n_grid=dict(type=str, default="1000,3000,10000,30000,100000"),
    n1=dict(type=int, default=0),
)


def _build_parser(defaults=None) -> argparse.ArgumentParser:
    """The full parser; ``defaults`` (dest -> value) replace the built-in
    defaults of every command, so that flags still override them."""
    parser = argparse.ArgumentParser(prog="alignstat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        for dest, kw in _COMMON.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **kw)

    p = sub.add_parser("render-stimulus", help="draw oriented segments as SVG")
    add_common(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--segment-length", dest="segment_length", type=float, default=0.05)

    p = sub.add_parser("exponent-sweep", help="statistic scaling over an n grid")
    add_common(p)
    p.add_argument("--problem", choices=("jets", "oriented"), default="jets")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--c2",
        type=str,
        default="experiment",
        help="cell scaling: 'experiment' (1 + 1e-6), 'class', or a float",
    )

    p = sub.add_parser("volume-scan", help="ball and chart-cube measures vs eps")
    add_common(p)
    p.add_argument("--eps-grid", dest="eps_grid", type=str, default="0.4,0.2,0.1,0.05")

    p = sub.add_parser("nets-demo", help="packing and covering families vs eps")
    add_common(p)
    p.add_argument("--eps-grid", dest="eps_grid", type=str, default="0.4,0.2,0.1")
    p.add_argument("--probes", type=int, default=1000)
    p.add_argument("--export-members", dest="export_members", action="store_true")

    p = sub.add_parser("power", help="calibrated threshold and power")
    add_common(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--problem", choices=("jets", "oriented"), default="jets")
    for p in sub.choices.values():
        p.set_defaults(**(defaults or {}))
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _coerce(key: str, value: str, like) -> object:
    """A config file's ``value`` for ``key``, as the type of its default ``like``."""
    if isinstance(like, bool):
        return value.lower() in ("1", "true", "yes", "on")
    if isinstance(like, (int, float)):
        try:
            return type(like)(value)
        except ValueError as exc:
            raise CliConfigError(f"bad {type(like).__name__} {value!r} for {key!r}") from exc
    return value


def parse_args(argv) -> argparse.Namespace:
    args = _build_parser().parse_args(argv)
    if args.config:
        file_values = _parse_config_file(args.config)
        known = set(vars(args))
        cmd = file_values.pop("command", None)
        if cmd is not None and cmd != args.command:
            raise CliConfigError(
                f"config file is for command {cmd!r}, invoked {args.command!r}"
            )
        for key in file_values:
            if key not in known:
                raise CliConfigError(f"unknown config key {key!r}")
        # flags override the file: re-parse with file values as defaults
        defaults = {
            key: _coerce(key, val, vars(args)[key]) if vars(args)[key] is not None else val
            for key, val in file_values.items()
        }
        args = _build_parser(defaults).parse_args(argv)
    return args


def _provenance() -> str:
    """The manifest's first line, a comment the config parser skips."""
    return f"# alignstat {__version__} numpy {np.__version__} python {platform.python_version()}"


def _write_manifest(args: argparse.Namespace, out_dir: Path) -> None:
    skip = {"config"}
    lines = [_provenance(), f"command = {args.command}"]
    for key in sorted(vars(args)):
        if key in skip or key == "command":
            continue
        lines.append(f"{key} = {vars(args)[key]}")
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


def cmd_render_stimulus(args, out_dir: Path) -> int:
    if args.d != 2 or args.k != 1:
        raise UnsupportedDims("stimulus rendering requires d=2, k=1")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0]))
    if args.n1 > 0:
        params = HolderParams(1, 2, 2.0, max(args.beta, 1.0), 1)
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
    for eps in eps_grid:
        est = ball_measure_estimate(center, eps, args.trials, rng)
        rows.append(
            f"ball,{args.k},{args.d},{eps!r},{est.trials},{est.p_hat!r},"
            f"{est.stderr!r},0"
        )
    for eps in eps_grid:
        est = chart_cube_measure_estimate(args.k, args.d, eps, args.trials, rng)
        rows.append(
            f"cube,{args.k},{args.d},{eps!r},{est.trials},{est.p_hat!r},"
            f"{est.stderr!r},{est.singular}"
        )
    (out_dir / "volume.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    print(f"target log-log slope: (d-k)k = {(args.d - args.k) * args.k}")
    return 0


def cmd_nets_demo(args, out_dir: Path) -> int:
    eps_grid = _number_list(args.eps_grid, float)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 2]))
    rows = ["kind,k,d,eps,members,separation,cover_radius,ratio_to_eps"]
    for eps in eps_grid:
        fam = packing_family(args.k, args.d, eps)
        sep = fam.separation if fam.separation is not None else float("nan")
        rows.append(
            f"packing,{args.k},{args.d},{eps!r},{len(fam)},{sep!r},,{sep / eps!r}"
        )
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
    except CliConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(args, out_dir)
        handler = {
            "render-stimulus": cmd_render_stimulus,
            "exponent-sweep": cmd_exponent_sweep,
            "volume-scan": cmd_volume_scan,
            "nets-demo": cmd_nets_demo,
            "power": cmd_power,
        }[args.command]
        return handler(args, out_dir)
    except (
        CliConfigError, UnsupportedDims, ParamOrder, DimensionMismatch, BudgetExceeded
    ) as exc:
        # Every parameter reaching the library here came from the command
        # line or a config file, so a violated ordering or dimension rule,
        # or a size over its budget, is a configuration error.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AlignstatError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
