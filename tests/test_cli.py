import json

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

    @pytest.mark.parametrize("line", ["precison = 1e-9", "steps = 4000"])
    def test_unknown_config_key_rejected(self, tmp_path, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {tmp_path}\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=key):
            main(["roots", "--n", "3", "--l", "0", "--config", str(conf)])
        assert not (tmp_path / "roots.csv").exists()

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEUNQDOT_OUT", str(tmp_path / "envdir"))
        run(["roots", "--n", "2", "--l", "0"])
        assert (tmp_path / "envdir" / "roots.csv").exists()

    def test_cli_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEUNQDOT_OUT", str(tmp_path / "envdir"))
        run(["roots", "--n", "2", "--l", "0", "--out", str(tmp_path / "cli")])
        assert (tmp_path / "cli" / "roots.csv").exists()
        assert not (tmp_path / "envdir").exists()
