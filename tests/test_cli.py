import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import dimwitness
from dimwitness.cli import main
from dimwitness.errors import NumericalIntegrityError
from dimwitness.sphere import load_net
from dimwitness.witness import WitnessConfig
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

    def test_n_past_float_range(self, capsys):
        # n = 10^400 took float(n) and exited 1 with an OverflowError
        code, out, _ = run_cli(capsys, "bound", str(10**400), "2")
        assert code == 0
        assert f">= {dimwitness.kg_lower_bound(10**400, 2).bound!r}\n" in out
        assert "asymptotic estim.  1.25\n" in out

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
        # the bound is a formula: it draws nothing and records no seed
        assert doc["manifest"]["seed"] is None

    def test_seed_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bound", "3", "2", "--seed", "1")
        assert code == 2
        assert out == "" and "unrecognized arguments: --seed 1" in err


class TestNetCommand:
    def test_two_point_net(self, capsys, tmp_path):
        prefix = str(tmp_path / "net1")
        code, out, _ = run_cli(capsys, "net", "1", "0.5", "--out", prefix)
        assert code == 0
        rows = (tmp_path / "net1.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        header = json.loads((tmp_path / "net1.json").read_text())
        jsonschema.validate(header, NET_HEADER_SCHEMA)
        assert header["size"] == 2

    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(capsys, "net", "3", "0.3", "--out", a)
        run_cli(capsys, "net", "3", "0.3", "--out", b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        ha = strip_volatile(json.loads((tmp_path / "a.json").read_text()))
        hb = strip_volatile(json.loads((tmp_path / "b.json").read_text()))
        ha["manifest"].pop("argv")
        hb["manifest"].pop("argv")
        assert ha == hb

    def test_volume_bound(self, capsys, tmp_path):
        prefix = str(tmp_path / "net3")
        code, _, _ = run_cli(capsys, "net", "3", "0.3", "--out", prefix)
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
        assert "seed" not in header
        # a net draws nothing, so its manifest records no seed
        assert header["manifest"]["seed"] is None

    def test_default_prefix_names_dim_and_eps(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "net", "2", "0.5")
        assert code == 0
        assert out == "wrote 12 points to net_d2_e0.5.csv (header net_d2_e0.5.json)\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net_d2_e0.5.csv",
                                                              "net_d2_e0.5.json"]

    def test_seed_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        # a net depends only on (dim, eps), so `net` takes no --seed
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "net", "3", "0.5", "--seed", "7")
        assert code == 2
        assert "unrecognized arguments: --seed 7" in err
        assert not list(tmp_path.iterdir())


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
    # the report is the table bound ||T - I||_2 of `quantum.tsirelson_deviation`;
    # the command draws nothing, so it takes no --seed and records a null seed
    @staticmethod
    def report(capsys, n):
        code, out, _ = run_cli(capsys, "tsirelson", str(n))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, TSIRELSON_REPORT_SCHEMA)
        assert doc["schema"] == 2
        assert doc["manifest"]["seed"] is None
        assert doc["deviation_bound"] == dimwitness.quantum.tsirelson_deviation(n)
        return doc

    def test_exactness_report(self, capsys):
        doc = self.report(capsys, 8)
        assert doc["deviation_bound"] <= 1e-10
        assert doc["local_dim"] == 16

    def test_pauli_case(self, capsys):
        assert self.report(capsys, 2)["deviation_bound"] <= 1e-14

    def test_sixteen_generators(self, capsys):
        doc = self.report(capsys, 16)
        assert doc["deviation_bound"] <= 1e-10
        assert doc["local_dim"] == 256
        assert set(doc) == {"schema", "kind", "n", "local_dim", "deviation_bound",
                            "manifest"}

    def test_the_strategy_is_built_once(self, capsys, monkeypatch):
        builds = []
        jordan_wigner = dimwitness.quantum._jordan_wigner

        def counted(n):
            builds.append(n)
            return jordan_wigner(n)

        monkeypatch.setattr(dimwitness.quantum, "_jordan_wigner", counted)
        code, out, _ = run_cli(capsys, "tsirelson", "16")
        assert code == 0 and json.loads(out)["local_dim"] == 256
        assert builds == [16]

    def test_cap_is_resource_error(self, capsys):
        code, out, err = run_cli(capsys, "tsirelson", "17")
        assert code == 3 and out == ""
        assert "resource error: n must satisfy n ≤ 16" in err

    def test_no_pairs_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "tsirelson", "3", "--pairs", "10")
        assert code == 2
        assert out == "" and "unrecognized arguments: --pairs 10" in err

    def test_no_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "tsirelson", "3", "--seed", "1")
        assert code == 2
        assert out == "" and "unrecognized arguments: --seed 1" in err

    def test_a_bent_strategy_fails_the_command(self, capsys, monkeypatch, bent_strategy):
        monkeypatch.setattr(dimwitness.quantum, "tsirelson_strategy", bent_strategy)
        with pytest.raises(NumericalIntegrityError, match="deviates by up to 5.000e-01"):
            main(["tsirelson", "5"])
        assert capsys.readouterr().out == ""


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
        # a net this fine needs more points than even --deep allows: its
        # covering floor, 2.50e+05 points, is refused with no --deep hint
        code, _, err = run_cli(capsys, "witness", "3", "1", "0.004", "--seed", "0")
        assert code == 3
        assert "needs at least 2.50e+05 points (covering floor)" in err
        assert "--deep" not in err
        # at eps 0.01 the net (59 292 points) passes the shallow cap but fits
        # the deep one: the refusal names --deep, which then runs
        code, _, err = run_cli(capsys, "witness", "3", "1", "0.01", "--seed", "0")
        assert code == 3
        assert "max_points=50000" in err
        assert f"--deep raises the cap to {WitnessConfig.max_net_points}" in err
        code, out, _ = run_cli(capsys, "witness", "3", "1", "0.01", "--seed", "0", "--deep")
        assert code == 0
        assert json.loads(out)["config"]["max_net_points"] == WitnessConfig.max_net_points

    def test_deep_hint_on_a_kept_net(self, capsys, monkeypatch):
        # a base net kept from an earlier build and larger than the shallow
        # cap is refused with the text the --deep hint looks for
        size = dimwitness.build_eps_net(4, 0.5).size
        monkeypatch.setattr(dimwitness.cli, "_SHALLOW_NET_POINTS", size - 1)
        code, _, err = run_cli(capsys, "witness", "4", "1", "0.5", "--seed", "0")
        assert code == 3
        assert f"net exceeded max_points={size - 1}" in err
        assert f"--deep raises the cap to {WitnessConfig.max_net_points}" in err

    def test_covering_bound_refuses_n5_at_eps_01(self, capsys):
        # the covering bound puts a net on S^4 at eps 0.1 above 53 000
        # points, past the shallow cap, before any insertion
        code, _, err = run_cli(capsys, "witness", "5", "1", "0.1", "--seed", "0")
        assert code == 3
        assert "needs at least 5.32e+04 points (covering floor)" in err
        assert "--deep raises the cap" in err

    @pytest.mark.parametrize("argv", [
        "net 51 9.6e-07", "net 1000000 0.5", "witness 3 1 1e-160", "witness 3 1 1e-300",
        "witness 16 1 0.001", "net 33 0.0001", "net 100 0.001", "net 4 1e-160", "net 3 1e-300",
    ])
    def test_a_floor_past_every_cap_exits_3_without_a_hint(self, capsys, tmp_path, argv):
        # each overflowed a float or divided by zero (exit 1) until the
        # floor was kept in logs; none fits --deep, so none is offered it
        code, out, err = run_cli(capsys, *argv.split(), "--out", str(tmp_path / "out"))
        assert code == 3 and out == ""
        assert err.startswith("resource error: an eps-covering of S^") and err.count("\n") == 1
        assert "points (covering floor), which exceeds max_points=" in err
        assert "--deep" not in err
        assert not any(tmp_path.iterdir())

    def test_past_16_generators_a_witness_exits_3_without_a_hint(self, capsys, tmp_path):
        # refused by the Tsirelson check, before any net is built
        code, out, err = run_cli(capsys, "witness", "17", "1", "0.99",
                                 "--out", str(tmp_path / "out"))
        assert code == 3 and out == ""
        assert err == "resource error: n must satisfy n ≤ 16\n"
        assert not any(tmp_path.iterdir())

    def test_a_start_simplex_past_the_facet_bound_exits_3(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "net", "410", "0.99", "--out", str(tmp_path / "out"))
        assert code == 3 and out == ""
        assert err == ("resource error: the hull of 411 points has 411 facets, past its bound "
                       "of 399 at dim 410 (_HULL_MAX_FACET_DIMS2 = 67108864 facets x dim^2)\n")

    def test_a_hull_past_its_bound_exits_3(self, capsys, monkeypatch):
        # the (5, 0.7) hull ends with about 37 500 facets x dim^2
        monkeypatch.setattr(dimwitness.sphere, "_HULL_MAX_FACET_DIMS2", 10_000)
        code, out, err = run_cli(capsys, "witness", "5", "1", "0.7", "--seed", "0")
        assert code == 3 and out == ""
        assert "past its bound of 400 at dim 5 (_HULL_MAX_FACET_DIMS2 = 10000" in err
        assert "--deep" not in err

    def test_manifest_records_numpy_blas_and_threads(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        code, out, _ = run_cli(capsys, "witness", "5", "1", "0.7", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, WITNESS_REPORT_SCHEMA)
        manifest = doc["manifest"]
        assert manifest["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert manifest["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": "2"}
        # numpy before 1.26 has no dict mode: its show_config takes no argument
        monkeypatch.setattr(np, "show_config", lambda: None)
        code, out, _ = run_cli(capsys, "witness", "5", "1", "0.7", "--seed", "0")
        doc = json.loads(out)
        jsonschema.validate(doc, WITNESS_REPORT_SCHEMA)
        assert code == 0 and doc["manifest"]["blas"] is None


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

    def test_second_call_writes_the_lone_report(self, capsys, tmp_path):
        # main builds its parser once per process: a witness call after
        # other calls writes the report of a call in a fresh process
        out = tmp_path / "report.json"
        argv = ["witness", "3", "1", "0.3", "--seed", "6", "--out", str(out)]
        src = str(Path(dimwitness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "dimwitness.cli", *argv],
            env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120,
        )
        lone = strip_volatile(json.loads(out.read_text()))
        out.unlink()
        assert run_cli(capsys, "bound", "3", "2")[0] == 0
        assert run_cli(capsys, *argv)[0] == 0
        assert run_cli(capsys, *argv)[0] == 0
        assert strip_volatile(json.loads(out.read_text())) == lone

    def test_seed_changes_output(self, capsys):
        # off n = 3 the seed draws the moment samples on the one net
        _, out1, _ = run_cli(capsys, "witness", "4", "1", "0.5", "--seed", "1")
        _, out2, _ = run_cli(capsys, "witness", "4", "1", "0.5", "--seed", "2")
        a, b = json.loads(out1), json.loads(out2)
        assert a["net_size"] == b["net_size"]
        assert a["b_finite_quantum"] != b["b_finite_quantum"]


class TestImportCost:
    @staticmethod
    def fresh(code):
        """The lines `code` prints in a fresh interpreter that imports this
        package."""
        src = str(Path(dimwitness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout.strip().splitlines()

    # scipy.spatial alone adds 0.35 s and 32 MB to every run's start-up, and
    # scipy.optimize about 0.5 s and 44 MB
    @classmethod
    def scipy_modules_after(cls, statement):
        return cls.fresh(
            f"import sys, dimwitness, dimwitness.cli; {statement}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )[-1]

    # without a bytecode cache a process compiles every module it loads, so
    # a name should load only its home module and what that imports
    @classmethod
    def own_modules_after(cls, statement):
        return cls.fresh(
            f"import sys, dimwitness; {statement}; "
            "print(sorted(m for m in sys.modules if m.startswith('dimwitness.')))"
        )[-1]

    def test_import_loads_no_submodule_and_no_numpy(self):
        assert self.fresh(
            "import sys, dimwitness; "
            "print([m for m in sys.modules if m.startswith('dimwitness.')], 'numpy' in sys.modules)"
        ) == ["[] False"]

    def test_theory_loads_only_its_modules(self):
        statement = "dimwitness.kg_lower_bound(3, 2); dimwitness.tsirelson_strategy(3)"
        assert self.own_modules_after(statement) == (
            "['dimwitness.analytic_bounds', 'dimwitness.errors', 'dimwitness.quantum']")

    def test_a_net_loads_only_its_modules(self):
        assert self.own_modules_after("dimwitness.build_eps_net(3, 0.5)") == (
            "['dimwitness.errors', 'dimwitness.seeding', 'dimwitness.sphere']")

    def test_the_cli_loads_every_module(self):
        # on purpose: a program that imports the CLI, as the benchmark does,
        # compiles every module before it times anything, not in its first
        # timed call.  The schemas describe the CLI's documents to their
        # readers; the CLI itself never reads them
        every = sorted(f"dimwitness.{info.name}"
                       for info in pkgutil.iter_modules(dimwitness.__path__)
                       if info.name != "schemas")
        assert self.own_modules_after("import dimwitness.cli") == repr(every)

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
        statement = "dimwitness.cli.main(['tsirelson', '16'])"
        assert self.scipy_modules_after(statement) == "[]"

    def test_no_scipy_in_log_gamma(self):
        statement = "import numpy; dimwitness.log_gamma(numpy.linspace(0.5, 1e6, 1000))"
        assert self.scipy_modules_after(statement) == "[]"

    def test_no_mpmath_at_import_or_in_runs(self):
        # mpmath adds 20-30 ms to start-up; only the factorial and log1p
        # brackets import it, on their first call
        steps = [
            "pass",
            "dimwitness.run_witness(dimwitness.WitnessConfig(3, 1, 0.3))",
            "dimwitness.run_witness(dimwitness.WitnessConfig(5, 1, 0.7))",
            "dimwitness.cli.main(['tsirelson', '16'])",
        ]
        report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
        code = "import sys, dimwitness, dimwitness.cli\n" + "".join(
            f"{step}\n{report}\n" for step in steps
        ) + "dimwitness.robbins_bounds(3.0)\n" + report
        lines = [line for line in self.fresh(code) if line.startswith("[")]
        assert lines[:-1] == ["[]"] * len(steps)
        assert "'mpmath'" in lines[-1]  # the check sees mpmath once it loads

    def test_no_scipy_in_seesaw_command(self, tmp_path):
        matrix = tmp_path / "chsh.csv"
        matrix.write_text(CHSH_CSV)
        statement = f"dimwitness.cli.main(['seesaw', {str(matrix)!r}, '2'])"
        assert self.scipy_modules_after(statement) == "[]"

    def test_no_numpy_ma_in_appendix_check(self):
        # np.unique's first call imports numpy.ma, about 14 ms
        code = (
            "import contextlib, io, sys, dimwitness.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = dimwitness.cli.main(['appendix-check'])\n"
            "print(code, 'numpy.ma' in sys.modules)"
        )
        assert self.fresh(code)[-1] == "0 False"
