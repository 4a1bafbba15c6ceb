import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import dimwitness
from dimwitness.cli import main
from dimwitness.errors import NumericalIntegrityError
from dimwitness.sphere import load_net
from dimwitness.schemas import (
    APPENDIX_REPORT_SCHEMA,
    BOUND_REPORT_SCHEMA,
    NET_HEADER_SCHEMA,
    SEESAW_RESULT_SCHEMA,
    TSIRELSON_REPORT_SCHEMA,
    WITNESS_REPORT_SCHEMA,
)

CHSH_CSV = "1.0,1.0\n1.0,-1.0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_volatile(doc):
    if isinstance(doc, dict):
        manifest = doc.get("manifest")
        if manifest:
            manifest.pop("timestamp", None)
            manifest.pop("duration_s", None)
    return doc


class TestBoundCommand:
    def test_three_two(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "3", "2")
        assert code == 0
        bound = dimwitness.kg_lower_bound(3, 2).bound
        assert f">= {bound!r}\n" in out
        assert abs(bound - 32 / (3 * math.pi**2)) <= 2e-15

    def test_equal_dims(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "5", "5")
        assert code == 0
        assert ">= 1.0" in out

    def test_domain_error_message(self, capsys):
        code, out, err = run_cli(capsys, "bound", "2", "3")
        assert code == 2
        assert "m must satisfy m ≤ n" in err

    def test_out_without_json_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "bound", "3", "2", "--out", str(out_path))
        assert code == 2
        assert out == "" and "--out requires --json" in err
        assert not out_path.exists()

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "3", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, BOUND_REPORT_SCHEMA)
        assert doc["bound"] == pytest.approx(32 / (3 * math.pi**2), abs=1e-12)


class TestNetCommand:
    def test_two_point_net(self, capsys, tmp_path):
        prefix = str(tmp_path / "net1")
        code, out, _ = run_cli(capsys, "net", "1", "0.5", "--seed", "3",
                               "--out", prefix)
        assert code == 0
        rows = (tmp_path / "net1.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        header = json.loads((tmp_path / "net1.json").read_text())
        jsonschema.validate(header, NET_HEADER_SCHEMA)
        assert header["size"] == 2

    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(capsys, "net", "3", "0.3", "--seed", "7", "--out", a)
        run_cli(capsys, "net", "3", "0.3", "--seed", "7", "--out", b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        ha = strip_volatile(json.loads((tmp_path / "a.json").read_text()))
        hb = strip_volatile(json.loads((tmp_path / "b.json").read_text()))
        ha["manifest"].pop("argv")
        hb["manifest"].pop("argv")
        assert ha == hb

    def test_volume_bound(self, capsys, tmp_path):
        prefix = str(tmp_path / "net3")
        code, _, _ = run_cli(capsys, "net", "3", "0.3", "--seed", "0",
                             "--out", prefix)
        assert code == 0
        header = json.loads((tmp_path / "net3.json").read_text())
        assert header["size"] <= 1000

    def test_header_carries_covering_radius(self, capsys, tmp_path):
        prefix = str(tmp_path / "net2")
        code, _, _ = run_cli(capsys, "net", "2", "0.5", "--out", prefix)
        assert code == 0
        header = json.loads((tmp_path / "net2.json").read_text())
        jsonschema.validate(header, NET_HEADER_SCHEMA)
        # the greedy net's hull computes its covering radius, at most eps
        assert 0.0 < header["covering_radius"] <= 0.5
        assert load_net(prefix + ".csv").covering_radius == header["covering_radius"]


class TestSeesawCommand:
    def test_chsh_signs(self, capsys, tmp_path):
        matrix = tmp_path / "chsh.csv"
        matrix.write_text(CHSH_CSV)
        code, out, _ = run_cli(capsys, "seesaw", str(matrix), "1", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SEESAW_RESULT_SCHEMA)
        assert doc["value"] == pytest.approx(2.0, abs=1e-9)

    def test_chsh_vectors(self, capsys, tmp_path):
        matrix = tmp_path / "chsh.csv"
        matrix.write_text(CHSH_CSV)
        code, out, _ = run_cli(capsys, "seesaw", str(matrix), "2", "--seed", "1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-7)

    def test_scaled_chsh(self, capsys, tmp_path):
        matrix = tmp_path / "chsh.csv"
        matrix.write_text("1e200,1e200\n1e200,-1e200\n")
        code, out, _ = run_cli(capsys, "seesaw", str(matrix), "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2 * math.sqrt(2) * 1e200, rel=1e-12)

    def test_value_beyond_float64_refused(self, capsys, tmp_path):
        big = repr(math.ldexp(1.0, 1023))
        matrix = tmp_path / "chsh.csv"
        matrix.write_text(f"{big},{big}\n{big},-{big}\n")
        code, out, err = run_cli(capsys, "seesaw", str(matrix), "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "too large" in err
        assert "Traceback" not in err

    def test_malformed_csv(self, capsys, tmp_path):
        matrix = tmp_path / "bad.csv"
        matrix.write_text("1.0,oops\n")
        code, _, err = run_cli(capsys, "seesaw", str(matrix), "1")
        assert code == 2
        assert "line 1" in err

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code, out, err = run_cli(capsys, "seesaw", str(missing), "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(missing) in err


class TestOutputPath:
    def test_missing_directory_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "no_dir" / "x.json"
        code, out, err = run_cli(capsys, "bound", "3", "2", "--json",
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(out_path) in err
        assert not out_path.parent.exists()


class TestTsirelsonCommand:
    def test_exactness_report(self, capsys):
        code, out, _ = run_cli(capsys, "tsirelson", "8", "--pairs", "1000")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, TSIRELSON_REPORT_SCHEMA)
        assert doc["max_deviation"] <= 1e-10
        assert doc["local_dim"] == 16

    def test_pauli_case(self, capsys):
        code, out, _ = run_cli(capsys, "tsirelson", "2", "--pairs", "200")
        assert code == 0
        assert json.loads(out)["max_deviation"] <= 1e-14

    def test_cap_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tsirelson", "17")
        assert code == 2
        assert "16" in err

    def test_no_pairs_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "tsirelson", "3", "--pairs", "0")
        assert code == 2
        assert out == ""
        assert "--pairs" in err


class TestWitnessCommand:
    def test_baseline(self, capsys, tmp_path):
        out_path = str(tmp_path / "report.json")
        code, _, _ = run_cli(capsys, "witness", "3", "1", "0.2", "--seed", "1",
                             "--out", out_path)
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        jsonschema.validate(doc, WITNESS_REPORT_SCHEMA)
        assert doc["verdict"] == "consistent_but_uncertified"
        assert all(c["holds"] for c in doc["chain_checks"])

    def test_small_n_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "witness", "2", "1", "0.1")
        assert code == 2
        assert "2*d^2" in err

    def test_small_n_override(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "2", "1", "0.2",
                               "--allow-small-n", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["k_lower"] == 1.0
        assert doc["verdict"] == "consistent_but_uncertified"

    def test_deep_gate(self, capsys):
        # a net this fine needs --deep; without it the size estimate trips
        code, _, err = run_cli(capsys, "witness", "3", "1", "0.004", "--seed", "0")
        assert code == 3
        assert "exceeds" in err or "exceeded" in err


class TestAppendixCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "appendix-check", "--nmax", "10000")
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_failed_certification_is_reported(self, capsys, monkeypatch):
        def uncertified(x):
            raise NumericalIntegrityError(f"factorial bracket failed at x={x}")

        monkeypatch.setattr("dimwitness.cli.robbins_bounds", uncertified)
        code, out, _ = run_cli(capsys, "appendix-check", "--nmax", "2000")
        assert code == 4
        assert "factorial bracket" in out and "FAIL" in out
        assert out.count("PASS") == 3

    def test_out_without_json_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "y.json"
        code, out, err = run_cli(capsys, "appendix-check", "--nmax", "2000",
                                 "--out", str(out_path))
        assert code == 2
        assert out == "" and "--out requires --json" in err
        assert not out_path.exists()

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "appendix-check", "--nmax", "2000", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, APPENDIX_REPORT_SCHEMA)
        assert doc["all_passed"] is True


class TestDeterminism:
    def test_bound_json_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "bound", "10", "4", "--json")
        _, out2, _ = run_cli(capsys, "bound", "10", "4", "--json")
        a = strip_volatile(json.loads(out1))
        b = strip_volatile(json.loads(out2))
        assert a == b

    def test_witness_json_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "witness", "3", "1", "0.3", "--seed", "4")
        _, out2, _ = run_cli(capsys, "witness", "3", "1", "0.3", "--seed", "4")
        a = strip_volatile(json.loads(out1))
        b = strip_volatile(json.loads(out2))
        assert a == b

    def test_seed_changes_output(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(capsys, "net", "2", "0.3", "--seed", "1", "--out", a)
        run_cli(capsys, "net", "2", "0.3", "--seed", "2", "--out", b)
        assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


class TestImportCost:
    # scipy.spatial alone adds 0.35 s and 32 MB to every run's start-up, and
    # scipy.optimize about 0.5 s and 44 MB
    @staticmethod
    def scipy_modules_after(statement):
        src = str(Path(dimwitness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            f"import sys, dimwitness, dimwitness.cli; {statement}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        return out.strip().splitlines()[-1]

    def test_no_scipy_at_import(self):
        assert self.scipy_modules_after("pass") == "[]"

    def test_no_scipy_in_n3_witness(self):
        statement = "dimwitness.run_witness(dimwitness.WitnessConfig(3, 1, 0.3))"
        assert self.scipy_modules_after(statement) == "[]"

    def test_no_scipy_in_n5_witness(self):
        statement = "dimwitness.run_witness(dimwitness.WitnessConfig(5, 1, 0.7))"
        assert self.scipy_modules_after(statement) == "[]"

    def test_no_scipy_in_greedy_nets(self, tmp_path):
        # the hull that certifies a greedy net's covering radius is numpy only
        prefix = str(tmp_path / "net5")
        statement = ("dimwitness.build_eps_net(4, 0.5); "
                     f"dimwitness.cli.main(['net', '5', '0.7', '--out', {prefix!r}])")
        assert self.scipy_modules_after(statement) == "[]"

    def test_no_scipy_in_tsirelson_command(self):
        statement = "dimwitness.cli.main(['tsirelson', '16', '--pairs', '10'])"
        assert self.scipy_modules_after(statement) == "[]"

    def test_no_scipy_in_log_gamma(self):
        statement = "import numpy; dimwitness.log_gamma(numpy.linspace(0.5, 1e6, 1000))"
        assert self.scipy_modules_after(statement) == "[]"

    def test_no_mpmath_at_import_or_in_runs(self):
        # mpmath adds 20-30 ms to start-up; only the factorial and log1p
        # brackets import it, on their first call
        src = str(Path(dimwitness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        steps = [
            "pass",
            "dimwitness.run_witness(dimwitness.WitnessConfig(3, 1, 0.3))",
            "dimwitness.run_witness(dimwitness.WitnessConfig(5, 1, 0.7))",
            "dimwitness.cli.main(['tsirelson', '16', '--pairs', '10'])",
        ]
        report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
        code = "import sys, dimwitness, dimwitness.cli\n" + "".join(
            f"{step}\n{report}\n" for step in steps
        ) + "dimwitness.robbins_bounds(3.0)\n" + report
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert lines[:-1] == ["[]"] * len(steps)
        assert "'mpmath'" in lines[-1]  # the check sees mpmath once it loads

    def test_no_scipy_in_seesaw_command(self, tmp_path):
        matrix = tmp_path / "chsh.csv"
        matrix.write_text(CHSH_CSV)
        statement = f"dimwitness.cli.main(['seesaw', {str(matrix)!r}, '2'])"
        assert self.scipy_modules_after(statement) == "[]"
