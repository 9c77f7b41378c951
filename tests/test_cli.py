"""Command-line driver: outputs, exit codes, manifest round-trips."""

import csv
import platform
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

import alignstat
from alignstat.cli import COMMANDS, main, parse_args


def run_cli(args):
    return main([str(a) for a in args])


class TestRenderStimulus:
    def test_null_stimulus_line_count(self, tmp_path):
        rc = run_cli(
            ["render-stimulus", "--n", 100, "--n1", 0, "--seed", 3, "--out-dir", tmp_path]
        )
        assert rc == 0
        svg = (tmp_path / "stimulus.svg").read_text()
        assert svg.count("<line") == 100
        assert 'viewBox="0 0 1000 1000"' in svg

    def test_planted_stimulus_same_style(self, tmp_path):
        rc = run_cli(
            ["render-stimulus", "--n", 100, "--n1", 40, "--seed", 4, "--out-dir", tmp_path]
        )
        assert rc == 0
        svg = (tmp_path / "stimulus.svg").read_text()
        assert svg.count("<line") == 100
        assert svg.count('stroke="black"') == 100  # planted indistinguishable

    def test_empty_canvas(self, tmp_path):
        rc = run_cli(["render-stimulus", "--n", 0, "--out-dir", tmp_path])
        assert rc == 0
        assert (tmp_path / "stimulus.svg").read_text().count("<line") == 0

    def test_unsupported_dims(self, tmp_path, capsys):
        # the stimulus is always (k, d) = (1, 2), so the command has no --d
        rc = run_cli(["render-stimulus", "--d", 3, "--out-dir", tmp_path])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestExponentSweep:
    def test_writes_csv_and_report(self, tmp_path):
        rc = run_cli(
            [
                "exponent-sweep",
                "--problem",
                "jets",
                "--n-grid",
                "300,600,1200",
                "--trials",
                8,
                "--seed",
                11,
                "--out-dir",
                tmp_path,
            ]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 8
        report = (tmp_path / "report.txt").read_text()
        assert "target_rho = 0.25" in report
        assert "slope = " in report

    def test_report_has_per_n_fractions(self, tmp_path):
        # eps' > 1/2 up to n = 16 at (1, 2): the first three n are one clamped cell
        argv = ["exponent-sweep", "--n-grid", "2,3,4,300", "--n1", 1, "--trials", 20,
                "--seed", 5, "--out-dir", tmp_path]
        assert run_cli(argv) == 0
        zeros = dict.fromkeys((2, 3, 4, 300), 0)
        with open(tmp_path / "sweep.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                zeros[int(row["n"])] += row["statistic"] == "0"
        report = dict(
            line.split(" = ", 1) for line in (tmp_path / "report.txt").read_text().splitlines()
        )
        assert report["zero_fraction"] == ", ".join(f"({n}, {z / 20!r})" for n, z in zeros.items())
        assert report["clamped_fraction"] == "(2, 1.0), (3, 1.0), (4, 1.0), (300, 0.0)"
        assert "slope" in report

    def test_degenerate_grid_exits_nonzero(self, tmp_path):
        rc = run_cli(
            ["exponent-sweep", "--n-grid", "1000", "--trials", 4, "--out-dir", tmp_path]
        )
        assert rc == 3
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert report[0] == "problem = jets"
        assert report[-1] == "slope = none (1 distinct n value(s), need 3)"

    def test_zero_count_sweep_keeps_its_report(self, tmp_path):
        rc = run_cli(
            [
                "exponent-sweep", "--problem", "oriented", "--k", 2, "--d", 4, "--n1", 0,
                "--n-grid", "2000,8000,32000", "--trials", 30, "--out-dir", tmp_path,
            ]
        )
        assert rc == 3
        zeros = {2000: 0, 8000: 0, 32000: 0}
        with open(tmp_path / "sweep.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                zeros[int(row["n"])] += row["statistic"] == "0"
        report = dict(
            line.split(" = ", 1) for line in (tmp_path / "report.txt").read_text().splitlines()
        )
        assert report["zero_fraction"] == ", ".join(
            f"({n}, {z / 30!r})" for n, z in zeros.items()
        )
        empty = ", ".join(str(n) for n, z in zeros.items() if z == 30)
        assert empty
        assert report["slope"] == f"none (zero mean at n = {empty})"

    def test_worker_counts_byte_identical(self, tmp_path):
        common = [
            "exponent-sweep",
            "--problem",
            "oriented",
            "--n-grid",
            "300,600,1200",
            "--trials",
            6,
            "--seed",
            21,
        ]
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            assert run_cli(common + ["--workers", workers, "--out-dir", out]) == 0
        a = (tmp_path / "w1" / "sweep.csv").read_bytes()
        assert a == (tmp_path / "w2" / "sweep.csv").read_bytes()
        assert a == (tmp_path / "w4" / "sweep.csv").read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        args = [
            "exponent-sweep",
            "--n-grid",
            "300,600,1200",
            "--trials",
            5,
            "--seed",
            31,
            "--out-dir",
            first,
        ]
        assert run_cli(args) == 0
        rc = run_cli(
            ["exponent-sweep", "--config", first / "manifest.txt", "--out-dir", second]
        )
        assert rc == 0
        assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()
        provenance = (
            f"# alignstat {alignstat.__version__} numpy {np.__version__} "
            f"python {platform.python_version()}"
        )
        manifests = []
        for out in (first, second):
            lines = (out / "manifest.txt").read_text().splitlines()
            assert lines[0] == provenance
            manifests.append([ln for ln in lines if not ln.startswith("out_dir = ")])
        assert manifests[0] == manifests[1]

    def test_flag_overrides_config(self, tmp_path):
        first = tmp_path / "first"
        assert (
            run_cli(
                [
                    "exponent-sweep",
                    "--n-grid",
                    "300,600,1200",
                    "--trials",
                    5,
                    "--seed",
                    31,
                    "--out-dir",
                    first,
                ]
            )
            == 0
        )
        second = tmp_path / "second"
        rc = run_cli(
            [
                "exponent-sweep",
                "--config",
                first / "manifest.txt",
                "--seed",
                32,
                "--out-dir",
                second,
            ]
        )
        assert rc == 0
        assert (first / "sweep.csv").read_bytes() != (second / "sweep.csv").read_bytes()

    def test_unknown_config_key_is_hard_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery_knob = 7\n")
        rc = run_cli(["exponent-sweep", "--config", cfg, "--out-dir", tmp_path])
        assert rc == 2

    def test_wrong_command_in_config(self, tmp_path):
        cfg = tmp_path / "other.cfg"
        cfg.write_text("command = power\n")
        rc = run_cli(["exponent-sweep", "--config", cfg, "--out-dir", tmp_path])
        assert rc == 2

    @pytest.mark.parametrize(
        "command,line",
        [("power", "trials = abc"), ("volume-scan", "k = 1.5"), ("power", "trials 5")],
    )
    def test_unparsable_config_value_is_config_error(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = run_cli([command, "--config", cfg, "--out-dir", tmp_path])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestVolumeScan:
    def test_writes_rows(self, tmp_path):
        rc = run_cli(
            [
                "volume-scan",
                "--k",
                1,
                "--d",
                2,
                "--eps-grid",
                "0.4,0.2",
                "--trials",
                2000,
                "--out-dir",
                tmp_path,
            ]
        )
        assert rc == 0
        lines = (tmp_path / "volume.csv").read_text().strip().splitlines()
        assert lines[0].startswith("kind,k,d,eps")
        assert len(lines) == 1 + 4  # ball x2 + cube x2


class TestNetsDemo:
    def test_writes_rows_and_members(self, tmp_path):
        rc = run_cli(
            [
                "nets-demo",
                "--k",
                1,
                "--d",
                2,
                "--eps-grid",
                "0.5",
                "--probes",
                50,
                "--export-members",
                "--out-dir",
                tmp_path,
            ]
        )
        assert rc == 0
        lines = (tmp_path / "nets.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + packing + covering
        assert (tmp_path / "packing_0.5.csv").exists()

    def test_packing_over_4096_members_gets_a_separation(self, tmp_path):
        argv = ["nets-demo", "--k", 1, "--d", 3, "--eps-grid", 0.015, "--probes", 1]
        assert run_cli(argv + ["--out-dir", tmp_path]) == 0
        packing = (tmp_path / "nets.csv").read_text().splitlines()[1].split(",")
        assert packing[:5] == ["packing", "1", "3", "0.015", "4489"]
        assert np.isfinite(float(packing[5])) and np.isfinite(float(packing[7]))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", 2, "--d", 4],  # the default eps = 0.1 covering is over the cap
            ["--k", 2, "--d", 4, "--eps-grid", "0.5,0.02"],  # the packing at 0.02 is over
            ["--eps-grid", "0.5,1.5"],
            ["--probes", 0],
        ],
        ids=["default-2-4", "later-eps-over-cap", "later-eps-above-1", "no-probes"],
    )
    def test_rejects_before_building_any_family(self, tmp_path, monkeypatch, flags):
        built = []
        monkeypatch.setattr(alignstat.nets, "_grid_family", lambda *args: built.append(args))
        out = tmp_path / "out"
        assert run_cli(["nets-demo", *flags, "--export-members", "--out-dir", out]) == 2
        assert built == []
        assert list(tmp_path.iterdir()) == []


class TestPower:
    def test_power_csv(self, tmp_path):
        rc = run_cli(
            [
                "power",
                "--n",
                400,
                "--n1",
                400,
                "--trials",
                120,
                "--seed",
                5,
                "--out-dir",
                tmp_path,
            ]
        )
        assert rc == 0
        lines = (tmp_path / "power.csv").read_text().strip().splitlines()
        header, row = lines
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["power"]) >= 0.95

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["power", "--n", 2000, "--n1", 4, "--trials", 100, "--seed", 3]
        for sub in ("a", "b"):
            assert run_cli(argv + ["--out-dir", tmp_path / sub]) == 0
        a = (tmp_path / "a" / "power.csv").read_bytes()
        assert a == (tmp_path / "b" / "power.csv").read_bytes()
        power = float(a.decode().splitlines()[1].split(",")[8])
        assert 0.0 < power < 1.0  # a weak plant, so not every weight is the same


@pytest.mark.parametrize(
    "argv",
    [
        ["exponent-sweep", "--trials", 0],
        ["exponent-sweep", "--k", 2, "--d", 2],
        ["power", "--level", 1.5],
        ["volume-scan", "--k", 3, "--d", 2],
        ["volume-scan", "--k", 2, "--d", 2],
        ["nets-demo", "--probes", 0],
        ["nets-demo", "--probes", -5],
        ["nets-demo", "--k", 2, "--d", 4, "--eps-grid", 0.02],
        ["exponent-sweep", "--n-grid", ","],
        ["volume-scan", "--eps-grid", ","],
        ["exponent-sweep", "--workers", 0],
        ["exponent-sweep", "--workers", -2],
        ["exponent-sweep", "--c2", 0],
        ["exponent-sweep", "--c2", 0.5],
        ["volume-scan", "--eps-grid", -0.1],
        ["volume-scan", "--eps-grid", "0.2,0"],
        ["volume-scan", "--eps-grid", "nan"],
        ["volume-scan", "--eps-grid", "inf"],
        ["nets-demo", "--seed", -1],
        ["volume-scan", "--seed", -1],
        ["render-stimulus", "--seed", -1],
        ["render-stimulus", "--n", 5, "--n1", -3],
        ["render-stimulus", "--segment-length", "nan"],
        ["exponent-sweep", "--c2", "inf"],
        ["exponent-sweep", "--beta", "inf"],
        ["exponent-sweep", "--alpha", "inf"],
        ["exponent-sweep", "--problem", "oriented", "--beta", "inf"],
        ["power", "--beta", "inf"],
        ["power", "--alpha", "inf"],
        ["power", "--problem", "oriented", "--beta", "inf"],
        ["exponent-sweep", "--c2", "class", "--beta", 1e-200, "--trials", 2,
         "--n-grid", "100,200,300"],
        ["render-stimulus", "--n", 10, "--n1", 5, "--beta", -5],
        ["render-stimulus", "--beta", 0.9],
        ["render-stimulus", "--beta", "nan"],
        ["nets-demo", "--export-members=maybe"],
        ["exponent-sweep", "--n-grid", "1000,abc"],
        ["exponent-sweep", "--c2", "huge"],
        # n past int64: its cell grid would also pass the int64 cell keys
        ["exponent-sweep", "--k", 3, "--d", 4, "--trials", 1, "--n-grid", 10**56],
        ["power", "--n", 10**56, "--trials", 100],
    ],
)
def test_bad_parameters_exit_config_error(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out-dir", tmp_path]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["exponent-sweep", "--n-grid", 2**63 - 1, "--trials", 1],  # 45 GiB of null draws
        ["power", "--n", 10**18],  # 15 GiB
        ["render-stimulus", "--n", 10**12],  # 29 TiB of segments
    ],
    ids=["exponent-sweep", "power", "render-stimulus"],
)
def test_a_draw_past_the_budget_exits_2_before_drawing(tmp_path, capsys, monkeypatch, argv):
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built before the size was checked")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    start = time.perf_counter()
    assert run_cli(argv + ["--out-dir", tmp_path / "out"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "budget" in err
    assert list(tmp_path.iterdir()) == []


# The options each command stopped accepting, with a value it would once
# have taken, and the keys each command's manifest must hold.
_UNREAD = {
    "render-stimulus": dict(trials=100, alpha=2.0, r0=1, n_grid="1000,3000", k=1, d=2),
    "volume-scan": dict(alpha=2.0, beta=1.0, r0=1, n_grid="1000,3000", n1=0),
    "nets-demo": dict(trials=100, alpha=2.0, beta=1.0, r0=1, n_grid="1000,3000", n1=0),
    "power": dict(n_grid="1000,3000"),
}
_MANIFEST_KEYS = {
    "render-stimulus": "beta n n1 out_dir seed segment_length",
    "exponent-sweep": "alpha beta c2 d k n1 n_grid out_dir problem r0 seed trials workers",
    "volume-scan": "d eps_grid k out_dir seed trials",
    "nets-demo": "d eps_grid export_members k out_dir probes seed",
    "power": "alpha beta d k level n n1 out_dir problem r0 seed trials",
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "command,key,value", [(c, k, v) for c, opts in _UNREAD.items() for k, v in opts.items()]
)
def test_option_the_command_does_not_read_is_config_error(
    tmp_path, capsys, command, key, value, via
):
    if via == "flag":
        argv = [command, "--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = [command, "--config", cfg]
    assert run_cli(argv + ["--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_abbreviated_option_is_config_error(tmp_path, capsys, via):
    # `eps` is a prefix of eps_grid, and `prob` of probes
    for command, key in (("volume-scan", "eps"), ("nets-demo", "prob")):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0.1\n")
        argv = [command, f"--{key}", "0.1"] if via == "flag" else [command, "--config", cfg]
        assert run_cli(argv + ["--out-dir", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("config error:")


_CHEAP_RUNS = {
    "render-stimulus": (["--n", 60, "--n1", 20, "--beta", 1.5, "--segment-length", 0.03],
                        ["stimulus.svg"]),
    "exponent-sweep": (["--n-grid", "300,600,1200", "--trials", 5], ["sweep.csv", "report.txt"]),
    "volume-scan": (["--k", 2, "--d", 3, "--eps-grid", "0.5,0.3", "--trials", 3000],
                    ["volume.csv"]),
    "nets-demo": (["--eps-grid", "0.5", "--probes", 50, "--export-members"],
                  ["nets.csv", "packing_0.5.csv", "covering_0.5.csv"]),
    "power": (["--n", 400, "--n1", 40, "--trials", 100, "--level", 0.1], ["power.csv"]),
}


@pytest.mark.parametrize("command", list(_CHEAP_RUNS))
def test_manifest_lists_exactly_the_command_options_and_reruns_it(tmp_path, command):
    extra, outputs = _CHEAP_RUNS[command]
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli([command, *extra, "--seed", 9, "--out-dir", first]) == 0
    lines = (first / "manifest.txt").read_text().splitlines()
    assert lines[1] == f"command = {command}"
    assert [ln.split(" = ")[0] for ln in lines[2:]] == _MANIFEST_KEYS[command].split()
    assert run_cli([command, "--config", first / "manifest.txt", "--out-dir", second]) == 0
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert (second / "manifest.txt").read_text() == "\n".join(lines).replace(
        f"out_dir = {first}", f"out_dir = {second}") + "\n"


@pytest.mark.parametrize(
    "line,flags,members",
    [
        ("export_members = maybe", [], None),
        ("export_members = 2", [], None),
        ("export_members = yes", [], True),
        ("export_members = off", [], False),
        ("export_members = False", ["--export-members"], True),
        ("export_members = true", ["--export-members=0"], False),
    ],
)
def test_config_boolean_needs_a_true_or_false_spelling(tmp_path, capsys, line, flags, members):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = ["nets-demo", "--config", cfg, "--eps-grid", 0.5, "--probes", 5, *flags]
    rc = run_cli(argv + ["--out-dir", out])
    if members is None:
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
    else:
        assert rc == 0
        assert (out / "packing_0.5.csv").exists() is members
        assert f"export_members = {members}" in (out / "manifest.txt").read_text()


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", _README, flags=re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    examples = [shlex.split(ln)[1:] for ln in lines if ln.startswith("alignstat ")]
    assert sorted(argv[0] for argv in examples) == sorted(COMMANDS)
    for argv in examples:
        assert parse_args(argv).command == argv[0]


@pytest.mark.parametrize(
    "text,start,stop",
    [
        (_README, "beyond those:", "A config file is flat"),
        (alignstat.cli.__doc__, "Commands and their options", "Every command also takes"),
    ],
    ids=["readme", "docstring"],
)
def test_documented_options_match_the_table(text, start, stop):
    section = text[text.index(start) : text.index(stop)]
    commands = "|".join(map(re.escape, COMMANDS))
    parts = re.split(rf"^\W*({commands})\W", section, flags=re.M)[1:]
    documented = {
        command: set(re.findall(r"--[a-z0-9-]+", body))
        for command, body in zip(parts[::2], parts[1::2])
    }
    assert documented == {
        command: {"--" + name.replace("_", "-") for name in names}
        for command, (names, *_) in COMMANDS.items()
    }


def test_two_runs_build_one_parser(tmp_path):
    alignstat.cli._build_parser.cache_clear()
    for name in ("a", "b"):
        assert run_cli(["render-stimulus", "--n", 3, "--out-dir", tmp_path / name]) == 0
    info = alignstat.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["render-stimulus", "--n", 10, "--n1", 5, "--beta", -5], 2),
        (["volume-scan", "--k", 3, "--d", 2], 2),
        (["exponent-sweep", "--n-grid", "1000", "--trials", 4], 3),
        # the second eps is over the member cap
        (["nets-demo", "--k", 2, "--d", 4, "--eps-grid", "0.5,0.02", "--export-members"], 2),
    ],
)
def test_only_a_run_that_ran_writes_a_manifest(tmp_path, argv, code):
    # the second output directory does not exist yet, nor does its parent
    for out in (tmp_path, tmp_path / "new" / "out"):
        assert run_cli(argv + ["--out-dir", out]) == code
        if code == 2:
            # a rejected configuration ran nothing and leaves no directory of its own
            assert list(tmp_path.iterdir()) == []
        else:
            # a degenerate sweep keeps its outputs
            written = {path.name for path in out.iterdir()}
            assert written == {"manifest.txt", "report.txt", "sweep.csv"}


@pytest.mark.parametrize("form", ["separate", "equals"])
def test_config_path_in_either_form_is_read(tmp_path, capsys, form):
    cfg = tmp_path / "run.cfg"
    for text, code in ((None, 2), ("n = abc", 2), ("n = 7", 0)):
        if text is not None:
            cfg.write_text(text + "\n")
        config = ["--config", cfg] if form == "separate" else [f"--config={cfg}"]
        out = tmp_path / f"out{code}"
        assert run_cli(["render-stimulus", *config, "--out-dir", out]) == code
    # a missing file and a bad value are config errors; a good file sets n
    assert capsys.readouterr().err.count("config error:") == 2
    assert (out / "stimulus.svg").read_text().count("<line") == 7


@pytest.mark.parametrize("argv", [["-h"], ["power", "-h"]])
def test_help_exits_zero(capsys, argv):
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.startswith("usage: alignstat")
