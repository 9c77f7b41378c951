"""Command-line driver: outputs, exit codes, manifest round-trips."""

import csv
import platform

import numpy as np
import pytest

import alignstat
from alignstat.cli import main


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

    def test_unsupported_dims(self, tmp_path):
        rc = run_cli(["render-stimulus", "--d", 3, "--out-dir", tmp_path])
        assert rc == 2


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
        "command,line", [("power", "trials = abc"), ("volume-scan", "k = 1.5")]
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
    ],
)
def test_bad_parameters_exit_config_error(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out-dir", tmp_path]) == 2
    assert capsys.readouterr().err.startswith("config error:")
