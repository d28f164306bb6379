"""CLI tests: exit codes, determinism, schema conformance of reports."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
import scipy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import quclab
from quclab import cordes
from quclab.cli import main
from quclab.integrands import (
    bounded_power_profile,
    constant_profile,
    power_profile,
    uhlenbeck_indices,
)
from quclab.utils import worker_count

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO_ROOT / "src" / "quclab" / "schemas"
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def validate(payload_path: Path, schema_name: str):
    schema = json.loads((SCHEMA_DIR / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(json.loads(payload_path.read_text()), schema)


# a valid small solve config; malformed cases override one entry
_CONFIG = {"version": 1, "problem": {
    "integrand": {"name": "power", "dim": 2, "params": {"p": 3.0}}, "cells": 8}}
_CONFIG_3D = {"version": 1, "problem": {
    "integrand": {"name": "power", "dim": 3, "params": {"p": 3.0}}, "cells": 4,
    "boundary": {"kind": "radial_power", "params": {"p": 3.0}},
    "source": {"kind": "constant", "params": {"value": 1.0}}}}


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


class TestMatrixCheck:
    def test_runs_and_validates(self, tmp_path):
        code, out = run(tmp_path, "matrix-check", "--trials", "500", "--seed", "7",
                        "--dims", "2,3")
        assert code == 0
        validate(out / "report.json", "matrix_check_report")
        validate(out / "manifest.json", "manifest")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scipy_version"] == scipy.__version__
        assert manifest["workers"] == worker_count()

    def test_deterministic_reports(self, tmp_path):
        _, out1 = run(tmp_path / "a", "matrix-check", "--trials", "1000", "--seed", "7")
        _, out2 = run(tmp_path / "b", "matrix-check", "--trials", "1000", "--seed", "7")
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_changes_content(self, tmp_path):
        _, out1 = run(tmp_path / "a", "matrix-check", "--trials", "500", "--seed", "1")
        _, out2 = run(tmp_path / "b", "matrix-check", "--trials", "500", "--seed", "2")
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["dims"] != r2["dims"]
        assert r1["pass"] and r2["pass"]


# one small run of every subcommand; solve reads {tmp}/config.json
_SOLVE_16 = {"version": 1, "problem": {
    "integrand": {"name": "power", "dim": 2, "params": {"p": 3}}, "cells": 16,
    "boundary": {"kind": "radial_power", "params": {"p": 3}},
    "source": {"kind": "constant", "params": {"value": 1.0}}},
    "schedule": {"stages": [[0.02, 1e-4], [0.0, 0.0]]}}
# the bench's 128^2 cascade, on the default schedule
_CASCADE_128 = {"version": 1, "problem": dict(_SOLVE_16["problem"], cells=128)}
_SUBCOMMANDS = {
    "matrix-check": ["--trials", "500", "--seed", "7", "--dims", "2,3"],
    "integrand": ["--name", "power", "--param", "p=3", "--samples", "1000"],
    "cordes": ["--N", "2", "--m", "2", "--K", "1.1"],
    "riesz-check": ["--n", "32", "--fields", "3", "--kmax", "4"],
    "solve": ["--config", "{tmp}/config.json"],
    "radial": ["--p", "3", "--N", "2"],
    "cpprime-sweep": ["--p-grid", "2,3", "--m", "4"],
    "cantor": ["--levels", "4..6", "--bumps", "4", "--n-grid", "256"],
    "report": [],
}


class TestDeterminism:
    @pytest.mark.parametrize("subcommand", list(_SUBCOMMANDS))
    def test_reports_byte_identical_across_thread_caps(self, tmp_path, monkeypatch,
                                                       subcommand):
        (tmp_path / "config.json").write_text(json.dumps(_SOLVE_16))
        argv = [subcommand] + [a.format(tmp=tmp_path) for a in _SUBCOMMANDS[subcommand]]
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("QUC_THREADS", threads)
            code, out = run(tmp_path / threads, *argv)
            assert code == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                            if f.name != "manifest.json"})
        assert outputs[0] and outputs[0] == outputs[1]

    def test_solve_bytes_independent_of_blas_threads(self, tmp_path):
        # numpy hands a long 1-D dot or norm to BLAS, whose partial sums
        # follow its thread count, read once at load: hence the subprocesses
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_CASCADE_128))
        src = str(Path(quclab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs = []
        for threads in ("1", "2"):
            subprocess.run([sys.executable, "-m", "quclab.cli", "solve", "--config",
                            str(config), "--out", str(tmp_path / threads)],
                           env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                           timeout=600)
            outputs.append({name: (tmp_path / threads / name).read_bytes() for name in
                            ("report.json", "stages.csv", "solution.txt", "stress.txt")})
        assert outputs[0] == outputs[1]


# (row id, argv, report files) of the reports committed in tests/golden/<row id>;
# `python tests/regen_golden.py [ROW ...]` rewrites them from this table.  The
# rows run from the repo root, so a solve report records its config's
# repo-relative path
_SOLVE_GOLDEN = ["report.json", "stages.csv", "solution.txt", "stress.txt"]
_GOLDEN = [
    ("matrix-check", ["matrix-check", *_SUBCOMMANDS["matrix-check"]], ["report.json"]),
    ("integrand", ["integrand", *_SUBCOMMANDS["integrand"]], ["report.json"]),
    ("cordes", ["cordes", *_SUBCOMMANDS["cordes"]], ["report.json"]),
    ("riesz-check", ["riesz-check", "--n", "32", "--fields", "3", "--kmax", "4",
                     "--seed", "3"], ["residuals.csv", "summary.json"]),
    ("cantor", ["cantor", "--levels", "6..9", "--bumps", "4", "--n-grid", "64",
                "--seed", "3"], ["blowup.csv", "residuals.csv", "report.json"]),
    ("radial", ["radial", *_SUBCOMMANDS["radial"]], ["report.json", "profile.csv"]),
    ("cpprime-sweep", ["cpprime-sweep", *_SUBCOMMANDS["cpprime-sweep"]],
     ["report.json", "sweep.csv"]),
    ("report", ["report"], ["report.json"]),
    # the default p = 3 radial_power cascade at 32^2 and at 8^3
    ("solve-2d", ["solve", "--config", "tests/golden/solve-2d/config.json"], _SOLVE_GOLDEN),
    ("solve-3d", ["solve", "--config", "tests/golden/solve-3d/config.json"], _SOLVE_GOLDEN),
]


class TestGolden:
    """Reports committed in tests/golden: they pin the RNG stream, its draw
    order and the arithmetic across versions, which runs of one version
    cannot see."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("row, argv, files", _GOLDEN, ids=[g[0] for g in _GOLDEN])
    def test_matches_committed_reports(self, tmp_path, monkeypatch, threads,
                                       row, argv, files):
        monkeypatch.setenv("QUC_THREADS", threads)
        monkeypatch.chdir(REPO_ROOT)
        code, out = run(tmp_path, *argv)
        assert code == 0
        moved = []
        for name in files:
            got, want = (out / name).read_bytes(), (GOLDEN_DIR / row / name).read_bytes()
            if got != want:
                moved += _moved_fields(name, got, want) or [f"{name}: bytes differ, "
                                                            "no field moved"]
        if moved:
            pytest.fail("moved from tests/golden:\n" + "\n".join(moved), pytrace=False)

    def test_mismatch_names_the_moved_field(self):
        golden = (GOLDEN_DIR / "cantor" / "blowup.csv").read_bytes()
        rows = golden.decode().split("\r\n")
        cells = rows[2].split(",")
        cells[3] = repr(float(cells[3]) * (1.0 + 1e-8))
        rows[2] = ",".join(cells)
        [line] = _moved_fields("blowup.csv", "\r\n".join(rows).encode(), golden)
        assert line.startswith("blowup.csv[1].l15_quotient: ") and "(rel 1.0e-08)" in line
        report = json.loads((GOLDEN_DIR / "cantor" / "report.json").read_text())
        report["ball_center"][1] = 1.0
        [line] = _moved_fields("report.json", json.dumps(report).encode(),
                               (GOLDEN_DIR / "cantor" / "report.json").read_bytes())
        assert line == "report.json.ball_center[1]: 0.0 -> 1.0 (rel inf)"


def _report_fields(name: str, data: bytes) -> dict:
    """Each value of a report file by its place: a JSON path, or the CSV row
    (from 0, below the header) and column."""
    text = data.decode()
    if name.endswith(".json"):
        return dict(_json_items(json.loads(text), name))
    header, *rows = csv.reader(text.splitlines())
    return {f"{name}[{i}].{column}": cell
            for i, row in enumerate(rows) for column, cell in zip(header, row)}


def _json_items(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_items(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_items(value, f"{path}[{i}]")
    else:
        yield path, node


def _moved_fields(name: str, got: bytes, want: bytes) -> list[str]:
    """One line per value of a report file that differs from the golden
    file: its place, both values and, for numbers, the relative change."""
    got, want = _report_fields(name, got), _report_fields(name, want)
    moved = []
    for key in list(want) + [key for key in got if key not in want]:
        if key not in got:
            moved.append(f"{key}: {want[key]!r} -> (missing)")
        elif key not in want:
            moved.append(f"{key}: (new) -> {got[key]!r}")
        elif got[key] != want[key]:
            moved.append(f"{key}: {want[key]!r} -> {got[key]!r}"
                         f"{_relative_change(got[key], want[key])}")
    return moved


def _relative_change(got, want) -> str:
    if isinstance(got, bool) or isinstance(want, bool):
        return ""
    try:
        a, b = float(got), float(want)
    except (TypeError, ValueError):
        return ""
    return f" (rel {abs(a - b) / abs(b) if b else float('inf'):.1e})"


_NON_FINITE = ("nan", "inf", "-inf")


class TestFailClosed:
    @pytest.mark.parametrize("subcommand", list(_SUBCOMMANDS))
    def test_passing_report_holds_only_finite_numbers(self, tmp_path, subcommand):
        (tmp_path / "config.json").write_text(json.dumps(_SOLVE_16))
        argv = [subcommand] + [a.format(tmp=tmp_path) for a in _SUBCOMMANDS[subcommand]]
        code, out = run(tmp_path, *argv)
        [report] = [f for f in out.glob("*.json") if f.name != "manifest.json"]
        payload = json.loads(report.read_text())
        assert payload["pass"] is (code == 0)
        if code == 0:
            # write_json spells a non-finite float as a string, csv as its repr
            assert not [v for v in _json_values(payload) if v in _NON_FINITE]
            for table in out.glob("*.csv"):
                cells = table.read_text().replace("\n", ",").split(",")
                assert not [c for c in cells if c in _NON_FINITE], table.name

    def test_non_finite_number_fails_any_gate(self, tmp_path, monkeypatch):
        # cordes has no numeric gate of its own: only the finiteness check can fail it
        rep = cordes.cordes_report(2, 2.0, K=1.1)
        monkeypatch.setattr(cordes, "cordes_report",
                            lambda *a, **k: dataclasses.replace(rep, delta0=float("nan")))
        code, out = run(tmp_path, "cordes", "--N", "2", "--m", "2", "--K", "1.1")
        assert code == 1
        payload = json.loads((out / "report.json").read_text())
        assert payload["delta0"] == "nan" and payload["pass"] is False


def _json_values(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from _json_values(value)
    else:
        yield node


class TestCordes:
    def test_hand_value_and_schema(self, tmp_path):
        code, out = run(tmp_path, "cordes", "--N", "2", "--m", "2", "--K", "1.1")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["K0"] == pytest.approx(1.0 / (1.0 - 1.0 / (4.0 * 2.0 ** 0.5)),
                                          abs=1e-12)
        assert rep["admissible_by_K0"] is True
        assert rep["delta0"] > 0
        validate(out / "report.json", "cordes_report")


class TestIntegrand:
    def test_power_report(self, tmp_path):
        code, out = run(tmp_path, "integrand", "--name", "power", "--param", "p=3")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["estimated_K"] == pytest.approx(2.0, rel=1e-6)
        assert rep["growth"]["holds"]
        validate(out / "report.json", "integrand_report")

    def test_unknown_name_is_input_error(self, tmp_path):
        code, _ = run(tmp_path, "integrand", "--name", "nonsense", "--param", "p=3")
        assert code == 2

    @pytest.mark.parametrize("profile, params", [
        ("power", ["--param", "p=3"]), ("constant", []),
        ("bounded_power", ["--param", "p=3"])])
    def test_uhlenbeck_indices_of_each_profile(self, tmp_path, profile, params):
        code, out = run(tmp_path, "integrand", "--name", "uhlenbeck", "--param",
                        f"profile={profile}", *params, "--samples", "200")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        maker = {"power": lambda: power_profile(3.0), "constant": constant_profile,
                 "bounded_power": lambda: bounded_power_profile(3.0)}[profile]
        assert rep["uhlenbeck_indices"] == uhlenbeck_indices(maker())


class TestRieszCheck:
    def test_csv_and_summary(self, tmp_path):
        code, out = run(tmp_path, "riesz-check", "--n", "32", "--fields", "5",
                        "--kmax", "4")
        assert code == 0
        lines = (out / "residuals.csv").read_text().strip().splitlines()
        assert lines[0].startswith("field,identity_residual,roundtrip_error")
        assert len(lines) == 6
        validate(out / "summary.json", "riesz_summary")


class TestSolve:
    def test_solve_roundtrip(self, tmp_path):
        cfg = {
            "version": 1,
            "problem": {
                "integrand": {"name": "power", "dim": 2, "params": {"p": 3}},
                "cells": 16,
                "boundary": {"kind": "radial_power", "params": {"p": 3}},
                "source": {"kind": "constant", "params": {"value": 1.0}},
            },
            "schedule": {"stages": [[0.02, 1e-4], [0.0, 0.0]]},
            "report": {"ball_center": [0.1, 0.1], "ball_radius": 0.1, "m": 2.0},
        }
        cfg_path = tmp_path / "prob.json"
        cfg_path.write_text(json.dumps(cfg))
        schema = json.loads((SCHEMA_DIR / "solve_config.schema.json").read_text())
        jsonschema.validate(cfg, schema)
        code, out = run(tmp_path, "solve", "--config", str(cfg_path))
        assert code == 0
        validate(out / "report.json", "solve_report")
        assert (out / "solution.txt").exists()
        assert (out / "stress.txt").exists()
        assert (out / "stages.csv").read_text().startswith("stage,eps,mu")

    def test_report_records_linear_solves_and_warm_start(self, tmp_path):
        cfg_path = tmp_path / "prob.json"
        cfg_path.write_text(json.dumps({"version": 1, "problem": {
            "integrand": {"name": "power", "dim": 2, "params": {"p": 3}},
            "cells": 16, "boundary": {"kind": "radial_power", "params": {"p": 3}},
            "source": {"kind": "constant", "params": {"value": 1.0}}}}))
        code, out = run(tmp_path, "solve", "--config", str(cfg_path))
        assert code == 0
        validate(out / "report.json", "solve_report")
        rep = json.loads((out / "report.json").read_text())
        assert rep["warm_start"] == "ok"
        # 16 cells coarsen once, so every Newton step takes a few PCG iterations
        for stage in rep["stages"]:
            assert stage["lu_fallbacks"] == 0
            assert stage["iterations"] < stage["linear_iterations"] \
                <= 25 * stage["iterations"]
        lines = (out / "stages.csv").read_text().splitlines()
        assert lines[0].endswith(",boundary_term,linear_iterations,lu_fallbacks")
        assert [int(line.split(",")[-2]) for line in lines[1:]] == \
            [stage["linear_iterations"] for stage in rep["stages"]]

    def test_bad_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"version": 1, "problem": {
            "integrand": {"name": "power", "params": {"p": 3}}, "mystery": True}}))
        code, _ = run(tmp_path, "solve", "--config", str(cfg_path))
        assert code == 2


class TestRadial:
    def test_stress_column_matches_flux_formula(self, tmp_path):
        code, out = run(tmp_path, "radial", "--p", "3", "--f-kind", "const",
                        "--N", "2")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stress_check_max_error"] < 1e-10
        assert rep["holder_exponent"] == pytest.approx(0.5, abs=0.05)
        validate(out / "report.json", "radial_report")
        header = (out / "profile.csv").read_text().splitlines()[0]
        assert header == "r,flux,v_prime,v"

    @pytest.mark.parametrize("dim", [5, 6])
    def test_stress_check_in_high_dimension(self, tmp_path, dim):
        # the cube [-R/2, R/2]^N reaches past the ball |x| <= R once N >= 5
        code, out = run(tmp_path, "radial", "--p", "3", "--N", str(dim))
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stress_check_max_error"] < 1e-10


    @pytest.mark.parametrize("argv", [["--N", "8"], ["--N", "50"],
                                      ["--r-max", "1e-13"], ["--r-max", "1e-100"],
                                      ["--N", "100"]])
    def test_valid_extremes_exit_0(self, tmp_path, argv):
        code, out = run(tmp_path, "radial", "--p", "3", *argv)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stress_check_max_error"] < 1e-10


class TestCpPrimeSweep:
    def test_sweep(self, tmp_path):
        code, out = run(tmp_path, "cpprime-sweep", "--p-grid", "2,3", "--m", "4")
        assert code == 0
        validate(out / "report.json", "cpprime_report")
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 3


class TestCantor:
    def test_small_run(self, tmp_path):
        code, out = run(tmp_path, "cantor", "--levels", "4..6", "--bumps", "4",
                        "--n-grid", "256")
        assert code == 0
        validate(out / "report.json", "cantor_report")
        blowup = (out / "blowup.csv").read_text().strip().splitlines()
        assert len(blowup) == 4
        with (out / "residuals.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["level"]) for row in rows] == [4, 5, 6]
        report = json.loads((out / "report.json").read_text())
        bounds = [float(row["quadrature_bound"]) for row in rows]
        assert report["worst_quadrature_bound"] == max(bounds) > 0.0
        assert report["quadrature_nodes"] == 4 * (64 * 32 + 48 * 24)

    def test_one_worker_runs_a_multi_chunk_table(self, tmp_path):
        # --n-grid 256 spans two grid chunks; a table that waited on its
        # chunk tasks from inside a one-worker pool would hang, hence the
        # subprocess and its timeout
        src = str(Path(quclab.__file__).resolve().parents[1])
        env = dict(os.environ, QUC_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "quclab.cli", "cantor", "--levels",
                               "4..5", "--bumps", "4", "--n-grid", "256", "--out",
                               str(tmp_path / "out")], env=env, timeout=60)
        assert proc.returncode == 0


class TestAggregate:
    def test_report(self, tmp_path):
        code, out = run(tmp_path, "report")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["pass"] and all(rep["checks"].values())
        validate(out / "report.json", "aggregate_report")


class TestUsage:
    def test_unknown_flag_exit_2(self, tmp_path):
        assert main(["cordes", "--N", "2", "--m", "2", "--wat", "1"]) == 2

    def test_missing_subcommand_exit_2(self):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", ["cordes --N 2 --m 2", "solve --config c.json",
                                      "radial --p 3", "cpprime-sweep"],
                             ids=["cordes", "solve", "radial", "cpprime-sweep"])
    def test_seed_only_where_read(self, tmp_path, capsys, argv):
        # --seed exists only on the subcommands whose work it changes
        code, _ = run(tmp_path, *argv.split(), "--seed", "3")
        assert code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ["matrix-check", "integrand --name power --param p=3"],
                             ids=["matrix-check", "integrand"])
    def test_no_format_option(self, tmp_path, capsys, argv):
        # reports are always JSON; there is no CSV switch
        code, _ = run(tmp_path, *argv.split(), "--format", "csv")
        assert code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    # malformed input at the boundary: exit 2 with a message, not a traceback;
    # a config case writes its JSON to {tmp}/config.json
    @pytest.mark.parametrize("env, config, argv, message", [
        ({"QUC_THREADS": "abc"}, None, ["cantor", "--levels", "4..5", "--bumps", "2",
                                        "--n-grid", "64"], ""),
        ({}, None, ["cantor", "--levels", "3..x"], ""),
        ({}, None, ["solve", "--config", "{tmp}/missing.json"], ""),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "cells": "x"}},
         ["solve", "--config", "{tmp}/config.json"], "cells"),
        ({}, {**_CONFIG, "schedule": {"stages": [[0.1]]}},
         ["solve", "--config", "{tmp}/config.json"], "schedule"),
        ({}, [1, 2], ["solve", "--config", "{tmp}/config.json"],
         "config must be a JSON object"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"],
                                     "boundary": {"kind": "constant"}}},
         ["solve", "--config", "{tmp}/config.json"], "boundary"),
        ({}, {**_CONFIG, "solver": {"tol": "x"}},
         ["solve", "--config", "{tmp}/config.json"], "tol"),
        ({}, None, ["cpprime-sweep", "--p-grid", ""], "--p-grid"),
        ({}, None, ["cpprime-sweep", "--p-grid", "2,x"], "--p-grid"),
        ({}, None, ["matrix-check", "--dims", "2,x"], "--dims"),
        ({}, None, ["matrix-check", "--dims", "0", "--trials", "10"], "dimension"),
        ({}, None, ["matrix-check", "--dims", "1", "--trials", "10"], "dimension"),
        ({}, None, ["riesz-check", "--n", "32", "--fields", "0"], "--fields"),
        ({}, None, ["riesz-check", "--n", "32", "--fields", "-3"], "--fields"),
        ({}, None, ["cantor", "--levels", "4..5", "--bumps", "0"], "--bumps"),
        ({}, None, ["cantor", "--levels", ","], "--levels"),
        ({}, None, ["cantor", "--levels", "12..11"], "levels must be non-empty"),
        ({}, None, ["radial", "--p", "3", "--r-max", "inf"], "finite"),
        ({}, None, ["radial", "--p", "3", "--r-max", "1e-300"], "sample point"),
        ({}, None, ["cordes", "--N", "2", "--m", "nan"], "--m must be finite"),
        ({}, None, ["cordes", "--N", "2", "--m", "inf"], "--m must be finite"),
        ({}, None, ["cordes", "--N", "2", "--m", "2", "--K", "inf"], "--K must be finite"),
        ({}, None, ["cordes", "--N", "2", "--m", "2", "--window", "nan", "4"],
         "--window must be finite"),
        ({}, None, ["cordes", "--N", "2", "--m", "3", "--window", "2", "1"],
         "window must satisfy"),
        ({}, None, ["radial", "--p", "3", "--m", "nan"], "--m must be finite"),
        ({}, None, ["radial", "--p", "3", "--m", "inf"], "--m must be finite"),
        ({}, None, ["cpprime-sweep", "--p-grid", "3", "--m", "nan"], "--m must be finite"),
        ({}, None, ["integrand", "--name", "power", "--param", "p=3", "--r-max", "1e400"],
         "--r-max must be finite"),
        ({}, None, ["riesz-check", "--n", "16", "--fields", "1", "--seed", "-1"], "--seed"),
        ({}, None, ["matrix-check", "--trials", "10", "--seed", "-3"], "--seed"),
        ({}, None, ["cantor", "--levels", "4..5", "--bumps", "2", "--n-grid", "0"], "n_grid"),
        ({}, None, ["cantor", "--levels", "4..5", "--bumps", "2", "--n-grid", "-4"], "n_grid"),
        ({}, None, ["cantor", "--levels", "4..5", "--bumps", "2", "--n-grid", "1"], "n_grid"),
        ({}, None, ["cantor", "--levels", "4..5", "--bumps", "2", "--n-grid", "3"], "n_grid"),
        ({}, None, ["integrand", "--name", "power", "--param", "p=x"], "malformed"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "cells": float("inf")}},
         ["solve", "--config", "{tmp}/config.json"], "cells"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "half_width": 0.0}},
         ["solve", "--config", "{tmp}/config.json"], "half_width"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "cells": 8.7}},
         ["solve", "--config", "{tmp}/config.json"], "cells must be an integer"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "integrand": {
            "name": "power", "dim": 2.7, "params": {"p": 3.0}}}},
         ["solve", "--config", "{tmp}/config.json"], "dim must be an integer"),
        ({}, None, ["integrand", "--name", "cantor", "--param", "level=12.5"],
         "level must be an integer"),
        ({}, {**_CONFIG, "solver": {"max_iter": 20.5}},
         ["solve", "--config", "{tmp}/config.json"], "max_iter must be an integer"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "boundary": {
            "kind": "radial_power", "params": {"p": 3.0, "dim": 2.5}}}},
         ["solve", "--config", "{tmp}/config.json"], "dim must be an integer"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "half_width": "1"}},
         ["solve", "--config", "{tmp}/config.json"], "half_width must be a finite number"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "half_width": True}},
         ["solve", "--config", "{tmp}/config.json"], "half_width must be a finite number"),
        ({}, {**_CONFIG, "solver": {"tol": "1e-8"}},
         ["solve", "--config", "{tmp}/config.json"], "tol must be a finite number"),
        ({}, {**_CONFIG, "report": {"ball_radius": "0.1"}},
         ["solve", "--config", "{tmp}/config.json"], "ball_radius must be a finite number"),
        ({}, {**_CONFIG, "schedule": {"stages": [["0.01", "1e-3"], [0, 0]]}},
         ["solve", "--config", "{tmp}/config.json"], "eps must be a finite number"),
        ({}, {**_CONFIG, "solver": {"tol": float("nan")}},
         ["solve", "--config", "{tmp}/config.json"], "tol must be a finite number"),
        ({}, {**_CONFIG, "schedule": {"stages": [[float("nan"), 1e-2], [0, 0]]}},
         ["solve", "--config", "{tmp}/config.json"], "eps must be a finite number"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "boundary": {
            "kind": "zero", "params": {"value": 5}}}},
         ["solve", "--config", "{tmp}/config.json"], "unknown parameters ['value']"),
        ({}, {**_CONFIG, "report": {"ball_radius": 0.0}},
         ["solve", "--config", "{tmp}/config.json"], "ball_radius must be > 0"),
        ({}, {**_CONFIG, "report": {"ball_radius": -0.1}},
         ["solve", "--config", "{tmp}/config.json"], "ball_radius must be > 0"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "source": {
            "kind": "constant", "params": {"value": 1, "slope": 2}}}},
         ["solve", "--config", "{tmp}/config.json"], "source: kind 'constant'"),
        ({}, {**_CONFIG, "report": {"ball_center": [0.1]}},
         ["solve", "--config", "{tmp}/config.json"], "ball_center"),
        ({}, {**_CONFIG, "report": {"ball_center": [0.1, 0.1, 0.1]}},
         ["solve", "--config", "{tmp}/config.json"], "ball_center"),
        ({}, {**_CONFIG, "report": {"ball_center": []}},
         ["solve", "--config", "{tmp}/config.json"], "ball_center"),
        ({}, {**_CONFIG_3D, "report": {"ball_center": [0.1, 0.2, 0.3], "m": 3.0}},
         ["solve", "--config", "{tmp}/config.json"], "report"),
        ({}, {**_CONFIG_3D, "problem": {**_CONFIG_3D["problem"], "boundary": {
            "kind": "radial_power", "params": {"p": 3.0, "dim": 2}}}},
         ["solve", "--config", "{tmp}/config.json"], "radial_power dim 2"),
        ({}, None, ["integrand", "--name", "uhlenbeck", "--param", "profile=constant",
                    "--param", "bogus=1"], "unknown parameters ['bogus']"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "mystery": 1}},
         ["solve", "--config", "{tmp}/config.json"], "unknown keys ['mystery'] in problem"),
        ({}, {**_CONFIG, "version": 99},
         ["solve", "--config", "{tmp}/config.json"], "config version must be 1"),
        ({}, {**_CONFIG, "problem": {**_CONFIG["problem"], "source_exponent": 3.0}},
         ["solve", "--config", "{tmp}/config.json"],
         "unknown keys ['source_exponent'] in problem"),
        ({}, None, ["radial", "--p", "3", "--f-kind", "power", "--f-value", "-2"],
         "N + a > 0"),
        ({}, None, ["radial", "--p", "1.5", "--f-kind", "power", "--f-value", "-1.8"],
         "p + a > 0"),
    ], ids=["quc-threads", "levels", "missing-config", "config-cells",
            "config-stage", "config-list", "config-boundary", "config-tol",
            "p-grid-empty", "p-grid-token", "dims-token", "dims-zero", "dims-one",
            "fields-zero",
            "fields-negative", "bumps-zero", "levels-empty", "levels-reversed",
            "r-max-inf", "r-max-tiny", "cordes-m-nan", "cordes-m-inf", "cordes-k-inf",
            "cordes-window-nan", "cordes-window-order", "radial-m-nan", "radial-m-inf",
            "cpprime-m-nan",
            "integrand-r-max-overflow", "riesz-seed-negative", "matrix-seed-negative",
            "n-grid-zero", "n-grid-negative", "n-grid-one", "n-grid-three",
            "param-token", "config-cells-inf", "config-half-width-zero",
            "config-cells-fraction", "config-dim-fraction", "param-level-fraction",
            "config-max-iter-fraction", "config-boundary-dim-fraction",
            "config-half-width-string", "config-half-width-bool", "config-tol-string",
            "config-ball-radius-string", "config-stage-strings", "config-tol-nan",
            "config-stage-nan",
            "config-zero-boundary-params", "config-ball-radius-zero",
            "config-ball-radius-negative", "config-source-params",
            "config-ball-center-one", "config-ball-center-three",
            "config-ball-center-empty", "config-3d-report", "config-3d-boundary-dim",
            "uhlenbeck-leftover-param", "config-unknown-key", "config-version",
            "config-source-exponent", "radial-source-not-integrable",
            "radial-source-unbounded-v"])
    def test_malformed_input_exit_2(self, tmp_path, monkeypatch, capsys, env, config,
                                    argv, message):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
        code, _ = run(tmp_path, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        err = capsys.readouterr().err
        assert "input error:" in err and message in err

    @pytest.mark.parametrize("row", ["config-ball-center-one", "config-ball-center-three",
                                     "config-ball-center-empty", "config-ball-radius-zero",
                                     "config-ball-radius-negative"])
    def test_rejected_report_ball_fails_schema(self, row):
        # the configs of test_malformed_input_exit_2's report-ball rows, which
        # the parser rejects, fail the schema too; a two-entry ball passes it
        [mark] = [m for m in TestUsage.test_malformed_input_exit_2.pytestmark
                  if m.name == "parametrize"]
        _, config, _, _ = dict(zip(mark.kwargs["ids"], mark.args[1]))[row]
        schema = json.loads((SCHEMA_DIR / "solve_config.schema.json").read_text())
        jsonschema.validate({**_CONFIG, "report": {"ball_center": [0.1, 0.1],
                                                   "ball_radius": 0.1}}, schema)
        with pytest.raises(jsonschema.ValidationError, match="ball_"):
            jsonschema.validate(config, schema)


# fuzz: one option value of a small valid run, or one leaf of a small valid
# solve config, replaced by a malformed token
_FUZZ_ARGV = {
    "matrix-check": "--trials 50 --dims 2,3 --seed 0",
    "integrand": "--name power --param p=3 --samples 200 --r-min 0.3 --r-max 3 --seed 0",
    "cordes": "--N 2 --m 2 --K 1.1 --window 1.5 4",
    "riesz-check": "--n 16 --fields 1 --kmax 4 --seed 0",
    "solve": "--config {tmp}/config.json",
    "radial": "--p 3 --N 2 --f-kind const --f-value 1 --m 2 --r-max 1",
    "cpprime-sweep": "--p-grid 2,3 --N 2 --m 4",
    "cantor": "--levels 4..5 --bumps 2 --n-grid 64 --seed 0",
    "report": "--seed 0",
}
_FUZZ_CONFIG = {"version": 1, "problem": {
    "integrand": {"name": "power", "dim": 2, "params": {"p": 3.0}}, "cells": 8,
    "half_width": 1.0,
    "boundary": {"kind": "radial_power", "params": {"p": 3.0}},
    "source": {"kind": "constant", "params": {"value": 1.0}}},
    "schedule": {"stages": [[0.1, 0.01], [0.0, 0.0]]},
    "solver": {"tol": 1e-10, "max_iter": 60}}
_FUZZ_TOKENS = ["", "x", "nan", "inf", "-inf", "-1", "0", "1e400", ",", "..", "3..",
                "1,,2"]


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


_FUZZ_CASES = ([(sub, flag) for sub, text in _FUZZ_ARGV.items()
                for flag in text.split() if flag.startswith("--")]
               + [("config", path) for path in _leaves(_FUZZ_CONFIG)])


def _fuzzed(case, token, tmp: Path) -> list[str]:
    """The argv of the case with its slot set to the token; writes the config."""
    config = json.loads(json.dumps(_FUZZ_CONFIG))
    sub, slot = case
    if sub == "config":
        sub, node = "solve", config
        for key in slot[:-1]:
            node = node[key]
        try:
            node[slot[-1]] = float(token)
        except ValueError:
            node[slot[-1]] = token
    (tmp / "config.json").write_text(json.dumps(config))
    argv = _FUZZ_ARGV[sub].format(tmp=tmp).split()
    if slot in argv:
        i = argv.index(slot) + 1
        key, eq, _ = argv[i].rpartition("=")
        argv[i] = key + eq + token
    return [sub] + argv + ["--out", str(tmp / "out")]


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_FUZZ_CASES), token=st.sampled_from(_FUZZ_TOKENS))
@example(case=("cantor", "--n-grid"), token="0")
@example(case=("riesz-check", "--seed"), token="-1")
def test_fuzz_malformed_value_never_raises(monkeypatch, case, token):
    monkeypatch.setenv("QUC_THREADS", "1")
    with tempfile.TemporaryDirectory() as tmp:
        assert main(_fuzzed(case, token, Path(tmp))) in (0, 1, 2)
