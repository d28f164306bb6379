"""Smoke runs of every scripts/*.py entry point on its smallest arguments.

A script calls the package API directly, so an API change that breaks one
fails here.  Each run takes about a second or less.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# argv after the script name ({tmp} is the test's directory) and the tables
# the run must write
RUNS = {
    "cordes_thresholds": (
        ["--dims", "2", "--ms", "2", "--ks", "1.1", "--probe-trials", "2",
         "--out", "{tmp}/cordes_thresholds.csv"],
        ["cordes_thresholds.csv"]),
    "solver_convergence": (
        ["--cells", "16,32", "--out", "{tmp}/solver_convergence.csv"],
        ["solver_convergence.csv"]),
}


def test_every_script_has_a_run():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_main_writes_its_tables(name, tmp_path, monkeypatch, capsys):
    argv, tables = RUNS[name]
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    monkeypatch.setattr(sys, "argv", [name] + [a.format(tmp=tmp_path) for a in argv])
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert "wrote" in capsys.readouterr().out
    for table in tables:
        rows = (tmp_path / table).read_text().splitlines()
        assert len(rows) >= 2, table  # a header and at least one row
