import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heunqdot.cli import main, parse_grid, parse_range

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


class TestSpectrum:
    def test_total_energy_column(self, tmp_path):
        run(["spectrum", "--n", "2", "--l", "0", "--nr", "0",
             "--out", str(tmp_path)])
        header, row = (tmp_path / "spectrum.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        omega = float(cols["omega"])
        # columns are quantized to %.6e independently
        assert float(cols["omega_R"]) == pytest.approx(4 * omega, rel=1e-6)
        assert float(cols["E_total"]) == pytest.approx(
            float(cols["eta"]) + float(cols["epsilon_cm"]), rel=1e-6)


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


class TestReportCommand:
    def test_empty_range_is_valid(self, tmp_path):
        run(["report", "--n", "5..2", "--l", "0", "--out", str(tmp_path)])
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["roots"] == []
        assert rep["oracle"] == []
        assert rep["caveats"]


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

    @pytest.mark.parametrize("line", ["precison = 1e-9", "steps = 4000"])
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
        ("", ["roots", "--n", "2", "--l", "0", "--precision", "1e-3"],
         "precision must lie in [1e-14, 1e-06], got 0.001"),
        ("precision = 1e-15", ["tables"],
         "precision must lie in [1e-14, 1e-06], got 1e-15"),
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
        ("precision = abc", ["roots", "--n", "2", "--l", "0"],
         "bad precision 'abc'"),
        ("convention = bogus", ["roots", "--n", "2", "--l", "0"],
         "bad convention 'bogus'"),
        ("", ["roots", "--n", "5..2", "--l", "0"],
         "roots requires non-empty n and l ranges"),
        # the gnuplot script plots csv files only; with json it was a bare plot
        ("", ["wavefunction", "--n", "2", "--l", "0", "--grid", "0:30:11",
              "--gnuplot", "--format", "json"],
         "--gnuplot needs format csv, got json"),
        ("format = json", ["wavefunction", "--n", "2", "--l", "0", "--grid",
                           "0:30:11", "--gnuplot"],
         "--gnuplot needs format csv, got json"),
    ], ids=["format = xml", "--grid foo", "--grid 0:inf:5",
            "--grid 0:1e400:5", "--precision 1e-3",
            "precision = 1e-15", "--n 0", "--l=-1", "--k=-1", "--nr=-1",
            "--omega nan", "--omega inf", "convention =", "format =",
            "moments --n 120", "wavefunction --n 120", "--omega 1e-6",
            "--k 400", "spectrum --n 171", "moments cancellation",
            "wavefunction cancellation", "--n x", "--k a",
            "precision = abc", "convention = bogus", "--n 5..2",
            "--gnuplot --format json", "--gnuplot format = json"])
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


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module, absent, then", [
    # scipy.special and scipy.integrate would add to every command's start-up
    ("heunqdot.cli", ("scipy.special", "scipy.integrate"), ""),
    # the eigensolve needs numpy and the model only; the verdict layer imports
    # the rest when it is called
    ("heunqdot.oracle",
     ("heunqdot.termination", "heunqdot.ratpoly", "heunqdot.wavefunction",
      "fractions", "logging"),
     "from heunqdot import oracle\n"
     "assert oracle.validate_oscillator(1, 1).classification == 'CONFIRMED'\n"),
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
    """Importing the CLI leaves every oracle cache empty: Gauss rules and
    bases (recurrence and matrices, one build) are built by the first solve
    that needs them, never at start-up."""
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
                               ("_basis", "_measure")])

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
