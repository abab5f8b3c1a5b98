import argparse
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heunqdot import cli
from heunqdot.cli import (DEFAULTS, build_parser, main, parse_grid, parse_plain,
                          parse_range)
from heunqdot.report import PUBLISHED_L, PUBLISHED_N, q6
from heunqdot.termination import solve_termination

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("HEUNQDOT_OUT", raising=False)


def run(args):
    assert main(args) == 0


class TestParsers:
    def test_range_forms(self):
        assert parse_range("2..5") == [2, 3, 4, 5]
        assert parse_range("3") == [3]
        assert parse_range("2,4,4") == [2, 4]
        assert parse_range("5..2") == []

    def test_default_grid_is_the_published_one(self):
        """The default --n and --l are the published grid, written once."""
        assert parse_range(DEFAULTS["n"]) == list(PUBLISHED_N)
        assert parse_range(DEFAULTS["l"]) == list(PUBLISHED_L)
        assert (DEFAULTS["n"], DEFAULTS["l"]) == ("2..5", "0..1")

    def test_grid(self):
        assert parse_grid("0:30:1000") == (0.0, 30.0, 1000)
        with pytest.raises(ValueError):
            parse_grid("5:1:100")
        with pytest.raises(ValueError, match="bad grid 'foo'"):
            parse_grid("foo")


class TestRoots:
    def test_csv_schema_and_values(self, tmp_path):
        run(["roots", "--n", "2..5", "--l", "0..1", "--out", str(tmp_path)])
        lines = (tmp_path / "roots.csv").read_text().splitlines()
        assert lines[0] == "n,l,convention,t_star,omega,eta,effective_degree"
        assert len(lines) == 13  # 12 roots + header
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "0"
        assert float(first[3]) == pytest.approx(16 ** (1 / 3), rel=1e-6)

    def test_json_round_trip(self, tmp_path):
        run(["roots", "--n", "2..3", "--l", "0", "--format", "json",
             "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "roots.json").read_text())
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["convention"] == "table"
        assert {"version", "convention", "precision"} <= set(payload["meta"])
        rows = payload["rows"]
        assert [r["n"] for r in rows] == [2, 3]
        # values survive a serialization round trip unchanged
        again = json.loads(json.dumps(payload))
        assert again == payload

    @pytest.mark.parametrize("convention", ["table", "literal"])
    def test_root_states_have_degree_n_minus_1(self, tmp_path, convention):
        # A_n vanishes exactly at every root and A_(n-1) does not, so the
        # degree is n - 1 on every row; a float cutoff on the chain printed
        # n at 16 table roots with n >= 26 (t* >= 282.6)
        run(["roots", "--n", "2..30", "--l", "0..3", "--format", "json",
             "--convention", convention, "--out", str(tmp_path)])
        rows = json.loads((tmp_path / "roots.json").read_text())["rows"]
        assert len(rows) == 900
        assert all(r["effective_degree"] == r["n"] - 1 for r in rows)

    def test_literal_convention_flag(self, tmp_path):
        run(["roots", "--n", "3", "--l", "0", "--convention", "literal",
             "--out", str(tmp_path)])
        row = (tmp_path / "roots.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "literal"
        assert float(row[3]) == pytest.approx(6.38516, rel=1e-5)

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["roots", "--n", "2..5", "--l", "0..1", "--out", str(out)])
            run(["tables", "--out", str(out)])
        assert (a / "roots.csv").read_bytes() == (b / "roots.csv").read_bytes()
        assert (a / "tables.csv").read_bytes() == (b / "tables.csv").read_bytes()


@pytest.mark.parametrize("command", ["roots", "spectrum", "tables", "moments",
                                     "validate"])
def test_default_grid_matches_golden_file(tmp_path, command):
    # tests/golden holds the default-grid files written before the states
    # were shared between sections; any byte that moves is a change in the
    # results, not in the plumbing
    run([command, "--out", str(tmp_path)])
    golden = Path(__file__).parent / "golden" / f"{command}.csv"
    assert (tmp_path / f"{command}.csv").read_bytes() == golden.read_bytes()


def test_default_grid_report_text_matches_golden_file(tmp_path):
    # the dossier's text, whose verdict rows print the ODE residual and
    # whose roots section prints the refined brackets' midpoints
    run(["report", "--out", str(tmp_path)])
    golden = Path(__file__).parent / "golden" / "report.txt"
    assert (tmp_path / "report.txt").read_bytes() == golden.read_bytes()


class TestSpectrum:
    def test_total_energy_column(self, tmp_path):
        # E = eta + epsilon = 3 omega + 4 omega (n_R + 1) at the n = 2, l = 0
        # root, omega = 2^(-8/3)
        for n_R, total in ((0, 1.102430), (2, 2.362352)):
            out = tmp_path / f"nr{n_R}"
            run(["spectrum", "--n", "2", "--l", "0", "--nr", str(n_R),
                 "--out", str(out)])
            header, row = (out / "spectrum.csv").read_text().splitlines()
            cols = dict(zip(header.split(","), row.split(",")))
            omega = float(cols["omega"])
            # columns are quantized to %.6e independently
            assert int(cols["n_R"]) == n_R
            assert float(cols["Omega"]) == pytest.approx(2 * omega, rel=1e-6)
            assert float(cols["omega_R"]) == pytest.approx(4 * omega, rel=1e-6)
            assert float(cols["epsilon_cm"]) == pytest.approx(
                4 * omega * (n_R + 1), rel=1e-6)
            assert float(cols["E_total"]) == pytest.approx(
                float(cols["eta"]) + float(cols["epsilon_cm"]), rel=1e-6)
            assert float(cols["E_total"]) == pytest.approx(total, abs=5e-6)


class TestWavefunction:
    def test_boundary_values(self, tmp_path):
        run(["wavefunction", "--n", "2", "--l", "0..1", "--grid", "0:30:61",
             "--out", str(tmp_path)])
        l0 = (tmp_path / "wavefunction_n2_l0_root0.csv").read_text().splitlines()
        assert l0[0] == "r,u,R"
        r0 = l0[1].split(",")
        assert float(r0[0]) == 0.0
        assert float(r0[1]) == 0.0               # u(0) = 0
        assert float(r0[2]) == pytest.approx(0.240357, abs=1e-5)  # R(0) = N y(0)
        l1 = (tmp_path / "wavefunction_n2_l1_root0.csv").read_text().splitlines()
        assert float(l1[1].split(",")[2]) == 0.0  # r^l kills R at 0 for l=1
        # Gaussian decay at the far end
        R_vals = [abs(float(line.split(",")[2])) for line in l0[1:]]
        assert R_vals[-1] < 1e-10 * max(R_vals)

    def test_no_roots_message(self, tmp_path, capsys):
        run(["wavefunction", "--n", "1", "--l", "0", "--out", str(tmp_path)])
        assert "no roots for (n=1, l=0)" in capsys.readouterr().out

    def test_omega_override(self, tmp_path):
        run(["wavefunction", "--n", "3", "--l", "0", "--omega", "0.01",
             "--grid", "0:30:11", "--out", str(tmp_path)])
        assert (tmp_path / "wavefunction_n3_l0_omega0.01.csv").exists()

    def test_gnuplot_script(self, tmp_path):
        run(["wavefunction", "--n", "2", "--l", "0", "--grid", "0:30:11",
             "--gnuplot", "--out", str(tmp_path)])
        text = (tmp_path / "wavefunction.gp").read_text()
        assert "wavefunction_n2_l0_root0.csv" in text


class TestMoments:
    def test_values(self, tmp_path):
        run(["moments", "--n", "2", "--l", "0", "--k", "0,1",
             "--out", str(tmp_path)])
        lines = (tmp_path / "moments.csv").read_text().splitlines()
        assert lines[0] == "n,l,convention,t_star,omega,k,value"
        k0 = float(lines[1].split(",")[-1])
        k1 = float(lines[2].split(",")[-1])
        assert k0 == pytest.approx(1.0, abs=1e-10)
        assert k1 == pytest.approx(3.667579, abs=1e-5)

    @pytest.mark.parametrize("k, rows", [("2,1,1", ["1", "2"]),
                                         ("1..3", ["1", "2", "3"])])
    def test_powers_parse_as_a_range(self, tmp_path, k, rows):
        """--k is parsed as --n and --l are: sorted, without repeats."""
        run(["moments", "--n", "2", "--l", "0", "--k", k,
             "--out", str(tmp_path)])
        lines = (tmp_path / "moments.csv").read_text().splitlines()
        assert [line.split(",")[5] for line in lines[1:]] == rows


class TestTables:
    def test_exit_zero_with_mismatches(self, tmp_path):
        run(["tables", "--out", str(tmp_path)])
        lines = (tmp_path / "tables.csv").read_text().splitlines()
        assert lines[0] == ("table_id,row_key,paper_value,computed_value,"
                            "abs_delta,classification")
        classes = {line.split(",")[-1] for line in lines[1:]}
        assert "match" in classes
        assert "reference_only" in classes
        # the defective published entry is documented, not fatal
        mismatches = [l for l in lines[1:] if l.endswith(",mismatch")]
        assert any("table2,n5.root1" in l for l in mismatches)


class TestValidateCommand:
    def test_smoke(self, tmp_path):
        run(["validate", "--n", "2", "--l", "0", "--out", str(tmp_path)])
        lines = (tmp_path / "validate.csv").read_text().splitlines()
        assert lines[0].startswith("n,l,convention,t_star,eta_analytic")
        assert lines[1].split(",")[-1] in ("CONFIRMED", "NEAR", "DISCREPANT")

    @pytest.mark.parametrize("convention, n_range, first, last", [
        ("table", "9..11", 9, 11), ("literal", "20..22", 20, 22)])
    def test_states_past_the_closed_form_norm(self, tmp_path, convention,
                                              n_range, first, last):
        # the Gamma sum refuses to normalize table n = 10 and literal n = 21
        # at l = 0; the verdict reads no norm, so every root gets a row
        run(["validate", "--convention", convention, "--n", n_range,
             "--l", "0", "--format", "json", "--out", str(tmp_path)])
        rows = json.loads((tmp_path / "validate.json").read_text())["rows"]
        roots = [(n, r.t_star) for n in range(first, last + 1)
                 for r in solve_termination(n, 0, convention).rootset.roots]
        assert [(row["n"], row["t_star"]) for row in rows] == [
            (n, q6(t)) for n, t in roots]
        assert all(math.isfinite(row["residual"]) for row in rows)


class TestReportCommand:
    def test_empty_range_is_valid(self, tmp_path):
        run(["report", "--n", "5..2", "--l", "0", "--out", str(tmp_path)])
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["roots"] == []
        assert rep["oracle"] == []
        assert rep["caveats"]

    def test_format_flag_is_refused(self, tmp_path, capsys):
        """report always writes json and text, so --format is a usage
        error rather than a flag it accepts and ignores."""
        with pytest.raises(SystemExit) as stop:
            main(["report", "--n", "2", "--l", "0", "--format", "csv",
                  "--out", str(tmp_path)])
        assert stop.value.code == 2
        assert ("unrecognized arguments: --format csv"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_config_format_is_ignored(self, tmp_path):
        """The config file is shared by every command, so its format key
        stays legal for report, which ignores it."""
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {tmp_path}\nformat = json\n")
        run(["report", "--n", "2", "--l", "0", "--config", str(conf)])
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.txt").exists()
        assert not list(tmp_path.glob("*.csv"))


COMMANDS = ["roots", "spectrum", "wavefunction", "moments", "validate",
            "tables", "report"]


# a value each flag takes, as a command line spells it
SAMPLE = {"config": "run.conf", "out": "outdir", "convention": "literal",
          "format": "json", "n": "2..5", "l": "0,1",
          "nr": "2", "grid": "0:10:5", "k": "1..3", "omega": "0.25"}


def _plain_lines(command):
    """The bare command, each of its flags in both spellings (--gnuplot
    bare), all of its flags together, and one flag given twice."""
    flags = sorted(set(vars(build_parser().parse_args([command])))
                   - {"command", "run"})
    spelled = {flag: ["--gnuplot"] if flag == "gnuplot"
               else [f"--{flag}", SAMPLE[flag]] for flag in flags}
    lines = [[command]]
    for flag in flags:
        lines.append([command] + spelled[flag])
        if flag != "gnuplot":
            lines.append([command, f"--{flag}={SAMPLE[flag]}"])
    lines.append([command] + [tok for flag in flags for tok in spelled[flag]])
    lines.append([command, "--out", "first", "--out", "second"])
    return lines


class TestPlainParse:
    """main reads a plain command line without argparse; what it reads is
    what argparse reads, and whatever it cannot be sure of goes to argparse."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_same_namespace_as_argparse(self, command):
        parser = build_parser()
        for argv in _plain_lines(command):
            plain = parse_plain(argv)
            assert plain is not None, argv
            assert vars(plain) == vars(parser.parse_args(argv)), argv

    @pytest.mark.parametrize("argv", [
        [], ["--version"], ["bogus"], ["report", "--help"], ["report", "-h"],
        ["roots", "--conv", "literal"], ["roots", "--n", "2", "--l=-1"],
        ["spectrum", "--omega", "-1"], ["roots", "--", "--n", "2"],
        ["roots", "--bogus", "1"], ["roots", "--n"], ["roots", "extra"],
        ["roots", "--convention", "bogus"], ["moments", "--omega", "x"],
        ["report", "--format", "csv"], ["tables", "--n", "2"],
        ["wavefunction", "--gnuplot=1"]])
    def test_declines_what_argparse_must_answer(self, argv):
        assert parse_plain(argv) is None

    def test_plain_run_builds_no_parser(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        run(["report", "--n", "2", "--l", "0", "--out", str(tmp_path)])
        assert built == []
        assert (tmp_path / "report.json").exists()

        # a flag report does not take is argparse's usage error, as before
        with pytest.raises(SystemExit) as stop:
            main(["report", "--n", "2", "--l", "0", "--format", "csv",
                  "--out", str(tmp_path / "refused")])
        assert stop.value.code == 2
        assert built.count("heunqdot") == 1
        assert capsys.readouterr().err.endswith(
            "heunqdot: error: unrecognized arguments: --format csv\n")
        assert not (tmp_path / "refused").exists()

    def test_runs_the_rebound_command(self, tmp_path, monkeypatch):
        """cmd_report is looked up when the line is parsed, so a rebound
        module attribute (as perfbench's tracing makes) is what runs."""
        ran = []
        monkeypatch.setattr(cli, "cmd_report", ran.append)
        run(["report", "--n", "2", "--l", "0", "--out", str(tmp_path)])
        assert [(args.command, args.n, args.l) for args in ran] == [
            ("report", [2], [0])]
        assert not (tmp_path / "report.json").exists()


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {tmp_path}\nconvention = literal\n")
        run(["roots", "--n", "3", "--l", "0", "--config", str(conf)])
        row = (tmp_path / "roots.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "literal"

    def test_cli_beats_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {tmp_path}\nconvention = literal\n")
        run(["roots", "--n", "3", "--l", "0", "--config", str(conf),
             "--convention", "table"])
        row = (tmp_path / "roots.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "table"

    def test_config_file_supplies_ranges(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {tmp_path}\nn = 3\nl = 0\n")
        run(["roots", "--config", str(conf)])
        rows = (tmp_path / "roots.csv").read_text().splitlines()[1:]
        assert rows
        assert {tuple(row.split(",")[:2]) for row in rows} == {("3", "0")}
        run(["roots", "--config", str(conf), "--n", "2"])
        rows = (tmp_path / "roots.csv").read_text().splitlines()[1:]
        assert {tuple(row.split(",")[:2]) for row in rows} == {("2", "0")}

    @pytest.mark.parametrize("line", ["precison = 1e-9", "steps = 4000",
                                      "precision = 1e-9"])
    def test_unknown_config_key_rejected(self, tmp_path, line, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {tmp_path}\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(SystemExit) as stop:
            main(["roots", "--n", "3", "--l", "0", "--config", str(conf)])
        assert stop.value.code == 2
        assert f"error: unknown config key(s) '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "roots.csv").exists()

    @pytest.mark.parametrize("line, args, message", [
        ("format = xml", ["roots", "--n", "3", "--l", "0"],
         "format must be csv or json"),
        ("", ["wavefunction", "--n", "2", "--l", "0", "--grid", "foo"],
         "bad grid 'foo'"),
        ("", ["wavefunction", "--n", "2", "--l", "0", "--grid", "0:inf:5"],
         "bad grid '0:inf:5'"),
        ("", ["wavefunction", "--n", "2", "--l", "0", "--grid", "0:1e400:5"],
         "bad grid '0:1e400:5'"),
        # the refinement width is fixed, so there is no --precision
        ("", ["roots", "--n", "2", "--l", "0", "--precision", "1e-3"],
         "unrecognized arguments: --precision 1e-3"),
        ("", ["roots", "--n", "0", "--l", "0"], "n must be at least 1, got 0"),
        ("", ["roots", "--n", "2", "--l=-1"], "l must be at least 0, got -1"),
        ("", ["moments", "--n", "2", "--l", "0", "--k=-1"],
         "moment power k must be at least 0, got -1"),
        ("", ["spectrum", "--n", "2", "--l", "0", "--nr=-1"],
         "n_R must be at least 0, got -1"),
        ("", ["moments", "--omega", "nan"],
         "omega override must be finite and positive, got nan"),
        ("", ["spectrum", "--omega", "inf"],
         "omega override must be finite and positive, got inf"),
        ("convention =", ["roots", "--n", "3", "--l", "0"],
         "empty value for config key(s) 'convention'"),
        ("format =", ["roots", "--n", "3", "--l", "0"],
         "empty value for config key(s) 'format'"),
        # states whose float chain, coefficients or integrals overflow
        ("", ["moments", "--n", "120", "--l", "0", "--omega", "0.02"],
         "n=120, l=0, omega=0.02: the polynomial coefficients are outside "
         "the float range"),
        ("", ["wavefunction", "--n", "120", "--l", "0", "--omega", "0.02"],
         "n=120, l=0, omega=0.02: the polynomial coefficients are outside "
         "the float range"),
        ("", ["moments", "--n", "60", "--l", "0", "--omega", "1e-6"],
         "n=60, l=0, omega=1e-06: int r^0 u^2 dr is outside the float range"),
        ("", ["moments", "--n", "2", "--l", "0", "--k", "400"],
         "n=2, l=0, omega=0.15749: int r^400 u^2 dr is outside the float "
         "range"),
        ("", ["spectrum", "--n", "171", "--l", "0", "--omega", "0.02"],
         "n=171, l=0, omega=0.02: the polynomial coefficients are outside "
         "the float range"),
        # a finite norm integral whose alternating terms cancel
        ("", ["moments", "--n", "60", "--l", "0", "--omega", "1e-3"],
         "n=60, l=0, omega=0.001: int r^0 u^2 dr is lost to cancellation"),
        ("", ["wavefunction", "--n", "60", "--l", "0", "--omega", "1e-3"],
         "n=60, l=0, omega=0.001: int r^0 u^2 dr is lost to cancellation"),
        # a value that does not convert is named with its option
        ("", ["roots", "--n", "x", "--l", "0"], "bad n 'x'"),
        ("", ["moments", "--n", "2", "--l", "0", "--k", "a"], "bad k 'a'"),
        ("convention = bogus", ["roots", "--n", "2", "--l", "0"],
         "bad convention 'bogus'"),
        ("", ["roots", "--n", "5..2", "--l", "0"],
         "roots requires non-empty n and l ranges"),
        ("", ["moments", "--n", "2", "--l", "0", "--k", ","],
         "moments requires a non-empty k list"),
        ("", ["moments", "--n", "2", "--l", "0", "--k", ""],
         "moments requires a non-empty k list"),
        # the gnuplot script plots csv files only; with json it was a bare plot
        ("", ["wavefunction", "--n", "2", "--l", "0", "--grid", "0:30:11",
              "--gnuplot", "--format", "json"],
         "--gnuplot needs format csv, got json"),
        ("format = json", ["wavefunction", "--n", "2", "--l", "0", "--grid",
                           "0:30:11", "--gnuplot"],
         "--gnuplot needs format csv, got json"),
        # an l past the oracle's basis table
        ("", ["validate", "--n", "2", "--l", "80"],
         "l = 80 is past the oracle's basis table at Galerkin size 40: it "
         "reaches l <= 79"),
        # 39 states at roots with omega <= 6.2e-6, which the Galerkin sizes
        # cannot self-converge
        ("", ["validate", "--n", "38", "--l", "0"],
         "39 states not self-converged by Galerkin size 135"),
    ], ids=["format = xml", "--grid foo", "--grid 0:inf:5",
            "--grid 0:1e400:5", "--precision 1e-3",
            "--n 0", "--l=-1", "--k=-1", "--nr=-1",
            "--omega nan", "--omega inf", "convention =", "format =",
            "moments --n 120", "wavefunction --n 120", "--omega 1e-6",
            "--k 400", "spectrum --n 171", "moments cancellation",
            "wavefunction cancellation", "--n x", "--k a",
            "convention = bogus", "--n 5..2",
            "--k ,", "--k ''",
            "--gnuplot --format json", "--gnuplot format = json",
            "validate --l 80", "validate --n 38"])
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, line, args,
                                        message):
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {tmp_path}\n{line}\n")
        with pytest.raises(SystemExit) as stop:
            main(args + ["--config", str(conf)])
        assert stop.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        assert not list(tmp_path.glob("wavefunction*"))

    def test_missing_config_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.conf"
        with pytest.raises(SystemExit) as stop:
            main(["roots", "--n", "2", "--l", "0", "--config", str(missing),
                  "--out", str(tmp_path)])
        assert stop.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"heunqdot: error: cannot read config file "
                               f"'{missing}'")
        assert not list(tmp_path.glob("*.csv"))

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEUNQDOT_OUT", str(tmp_path / "envdir"))
        run(["roots", "--n", "2", "--l", "0"])
        assert (tmp_path / "envdir" / "roots.csv").exists()

    def test_env_beats_config_out(self, tmp_path, monkeypatch):
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {tmp_path / 'confdir'}\n")
        monkeypatch.setenv("HEUNQDOT_OUT", str(tmp_path / "envdir"))
        run(["roots", "--n", "2", "--l", "0", "--config", str(conf)])
        assert (tmp_path / "envdir" / "roots.csv").exists()
        assert not (tmp_path / "confdir").exists()

    def test_cli_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEUNQDOT_OUT", str(tmp_path / "envdir"))
        run(["roots", "--n", "2", "--l", "0", "--out", str(tmp_path / "cli")])
        assert (tmp_path / "cli" / "roots.csv").exists()
        assert not (tmp_path / "envdir").exists()

    @pytest.mark.parametrize("command", ["roots", "report"])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_unusable_output_directory_is_a_usage_error(
            self, tmp_path, capsys, command, under):
        """An output path that is a file, or lies under one, is refused
        before any work, and nothing is written."""
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / under if under else taken
        with pytest.raises(SystemExit) as stop:
            main([command, "--n", "2", "--l", "0", "--out", str(out)])
        assert stop.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"heunqdot: error: cannot create output "
                               f"directory '{out}'")
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "kept\n"


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module, absent, then", [
    # scipy.special and scipy.integrate would add to every command's start-up,
    # and so would dataclasses, whose generated methods cost about 1 ms a
    # class, and locale, which a built argparse parser imports through gettext
    ("heunqdot.cli", ("scipy.special", "scipy.integrate", "dataclasses",
                      "locale"), ""),
    # the eigensolve needs numpy and the model only; the verdict layer imports
    # the rest when it is called
    ("heunqdot.oracle",
     ("heunqdot.termination", "heunqdot.ratpoly", "heunqdot.wavefunction",
      "fractions", "logging", "dataclasses"),
     "from heunqdot import oracle\n"
     "spectrum = oracle.oscillator_spectrum(1)\n"
     "assert oracle.validate_oscillator(1, 1, spectrum).classification"
     " == 'CONFIRMED'\n"),
    # the exact root stack, dense determinant check included, runs without
    # numpy
    ("heunqdot.termination", ("numpy",),
     "from fractions import Fraction\n"
     "from heunqdot import termination\n"
     "assert termination.dense_determinant_check(3, 0, Fraction(2))\n"),
    ("heunqdot", tuple(sorted(f"heunqdot.{p.stem}"
                              for p in (_SRC / "heunqdot").glob("*.py")
                              if p.stem != "__init__")), ""),
], ids=["cli", "oracle", "termination", "package"])
def test_import_leaves_modules_unloaded(module, absent, then):
    """A fresh import of the module loads none of absent, whose imports would
    add to the start-up of every process that imports it; then runs after
    the check, to show that the deferred imports still work."""
    code = (f"import sys, {module}\n"
            f"loaded = sorted(m for m in {absent!r} if m in sys.modules)\n"
            f"{then}"
            f"print(loaded)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_builds_no_oracle_basis():
    """Importing the CLI leaves every oracle cache empty: the recurrence
    table is decoded, and the bases (recurrence and matrices, one build)
    built, by the first solve that needs them, never at start-up."""
    code = ("import heunqdot.cli\n"
            "from heunqdot import oracle\n"
            "print(sorted((name, f.cache_info().currsize)\n"
            "             for name, f in vars(oracle).items()\n"
            "             if hasattr(f, 'cache_info')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str([(name, 0) for name in
                               ("_basis", "_hermite")])

_NO_SCIPY = """
import sys

attempts = []


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            attempts.append(name)
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NoScipy())
import heunqdot.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
for cmd in ("roots", "validate", "report"):
    code = heunqdot.cli.main([cmd, "--n", "2..3", "--l", "0..1",
                              "--out", sys.argv[1]])
    assert code == 0, (cmd, code)
from heunqdot import wavefunction
from heunqdot.termination import solve_termination
root = solve_termination(3, 1).rootset.roots[0]
solution = wavefunction.assemble_polynomial(3, 1, root.t_star)
state = wavefunction.normalize(solution)
assert abs(wavefunction.norm_integral_quad(solution)
           / wavefunction.norm_integral_closed(solution) - 1) < 1e-12
assert abs(wavefunction.moment_quad(state, 2)
           / wavefunction.moment(state, 2) - 1) < 1e-12
print(attempts)
"""


def test_cli_runs_without_scipy(tmp_path):
    """The commands run, oracle included, in an interpreter that cannot
    import scipy, and none of them tries to; nor do the quadrature
    cross-checks of wavefunction."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    lines = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
                           env=env, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    assert lines[0] == "[]"  # loaded by the import
    assert lines[-1] == "[]"  # imports tried by the commands
    assert (tmp_path / "report.json").exists()


def test_no_unused_imports_in_src():
    """Every name a module of the package imports is used in it. A name used
    only in an annotation (string annotations included) counts as used;
    from __future__ imports are exempt."""
    unused = []
    for path in sorted((Path(__file__).parents[1] / "src" / "heunqdot").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        annotations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.arg | ast.AnnAssign):
                annotations.append(node.annotation)
            elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
                annotations.append(node.returns)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for annotation in filter(None, annotations):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used |= {name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(name, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


# public names that only the tests read; each docstring names its reader
_TEST_ONLY_API = {"dense_determinant_check", "norm_integral_quad",
                  "moment_quad", "map_magnetic"}


def test_no_public_name_without_a_reader():
    """No API that nothing uses: every module-level function, class and
    constant of the package, private ones included, is read by another
    statement of the package or by a perfbench file, except the public
    names of _TEST_ONLY_API. A read is a name, an attribute or an import of
    the same name; strings do not count."""
    root = Path(__file__).parents[1]
    src = sorted((root / "src" / "heunqdot").glob("*.py"))
    defined, reads = [], []
    for path in src + sorted((root / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Import | ast.ImportFrom):
                    names |= {alias.name for alias in node.names}
            reads.append((stmt, names))
            if path not in src:
                continue
            if isinstance(stmt, ast.FunctionDef | ast.ClassDef):
                targets = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign):
                targets = [getattr(stmt.target, "id", "_")]
            else:
                targets = []
            defined += [(name, stmt) for name in targets]
    unread = {name for name, stmt in defined
              if not any(name in names for other, names in reads
                         if other is not stmt)}
    assert unread == _TEST_ONLY_API
