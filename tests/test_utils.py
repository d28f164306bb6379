"""Tests for worker caps, the pool map, number inputs, package exports and
deterministic report writing."""

import ast
import importlib
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import quclab
from quclab.errors import InputError
from quclab.integrands.profiles import bounded_power_profile, power_profile
from quclab.solver import radial_power_solution
from quclab.solver.mesh import BoxMesh
from quclab.utils import (Manifest, check_p, pool_map, strict_float, worker_count,
                          write_csv, write_grid_txt, write_json)


class TestWorkerCount:
    def test_env_cap_respected(self, monkeypatch):
        monkeypatch.setenv("QUC_THREADS", "2")
        assert worker_count() == 2

    def test_floor_at_one(self, monkeypatch):
        monkeypatch.setenv("QUC_THREADS", "0")
        assert worker_count() == 1

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("QUC_THREADS", raising=False)
        assert worker_count() >= 1


class TestPoolMap:
    """pool_map opens its own pool and keeps at most worker_count() tasks in
    flight; the tests set that cap through QUC_THREADS."""

    def test_results_in_input_order(self, monkeypatch):
        monkeypatch.setenv("QUC_THREADS", "4")

        # the early items sleep longest, so the tasks finish in reverse order
        def task(x):
            time.sleep(0.002 * (8 - x))
            return x * x

        assert list(pool_map(task, range(8))) == [x * x for x in range(8)]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_draws_lazily(self, monkeypatch, depth):
        monkeypatch.setenv("QUC_THREADS", str(depth))
        drawn = []

        def items():
            for i in range(10):
                drawn.append(i)
                yield i

        results = pool_map(abs, items())
        assert next(results) == 0
        assert len(drawn) <= depth + 1
        assert list(results) == list(range(1, 10))

    def test_at_most_depth_tasks_running(self, monkeypatch):
        monkeypatch.setenv("QUC_THREADS", "2")
        lock = threading.Lock()
        running, peak = 0, 0

        def task(x):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.002)
            with lock:
                running -= 1
            return x

        assert list(pool_map(task, range(20))) == list(range(20))
        assert 1 <= peak <= 2

    def test_task_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setenv("QUC_THREADS", "2")

        def task(x):
            if x == 3:
                raise ValueError(f"task {x} failed")
            return x

        with pytest.raises(ValueError, match="task 3 failed"):
            list(pool_map(task, range(6)))

    def test_pool_has_one_home(self):
        # no module but utils opens a thread pool; callers pass pool_map
        src = Path(quclab.__file__).parent
        importers = set()
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "concurrent" for name in names):
                    importers.add(path.relative_to(src).as_posix())
        assert importers == {"utils.py"}


class TestNumberInputs:
    def test_strict_float_takes_numbers(self):
        for value in (2, 2.5, np.int64(2), np.float32(0.5), 1.7976931348623157e308):
            assert strict_float(value, "x") == float(value)

    @pytest.mark.parametrize("value", ["1", True, None, [1.0], float("nan"), float("-inf")])
    def test_strict_float_rejects_non_numbers(self, value):
        with pytest.raises(InputError, match="x must be a finite number"):
            strict_float(value, "x")

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), 1.0, 0.5])
    @pytest.mark.parametrize("make", [check_p, power_profile, bounded_power_profile,
                                      radial_power_solution],
                             ids=["check_p", "power_profile", "bounded_power_profile",
                                  "radial_power_solution"])
    def test_growth_exponent_rejected(self, make, p):
        with pytest.raises(InputError, match="p > 1"):
            make(p)


class TestPackageExports:
    @pytest.mark.parametrize("package", ["quclab.integrands", "quclab.solver"])
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


class TestWriters:
    def test_json_deterministic_and_numpy_safe(self, tmp_path):
        payload = {"b": np.float64(1.5), "a": np.int32(3),
                   "arr": np.array([1.0, np.inf]), "flag": np.bool_(True)}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, payload)
        write_json(p2, dict(reversed(list(payload.items()))))
        assert p1.read_bytes() == p2.read_bytes()
        loaded = json.loads(p1.read_text())
        assert loaded["arr"] == [1.0, "inf"]

    def test_txt_matches_savetxt_bytes(self, tmp_path, rng):
        # nodal values on the node grid and dim columns on the cell centers
        for dim, cells in ((2, 6), (3, 4)):
            mesh = BoxMesh(dim=dim, cells=cells, half_width=1.3)
            for axis, coords, columns in ((mesh.node_axis, mesh.node_coords(), 1),
                                          (mesh.center_axis, mesh.cell_centers(), dim)):
                shape = (len(coords), columns)
                values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
                values.flat[:8] = [-0.0, np.nan, np.inf, -np.inf,
                                   0.1 + 0.2, 1e-320, 2.0 ** 60, -1.0]
                write_grid_txt(tmp_path / "a.txt", axis, dim, values)
                np.savetxt(tmp_path / "b.txt", np.column_stack([coords, values]),
                           fmt="%.17g")
                assert (tmp_path / "a.txt").read_bytes() == \
                    (tmp_path / "b.txt").read_bytes(), (dim, columns)

    def test_csv_float_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[0.1 + 0.2]])
        assert path.read_text().splitlines()[1] == repr(0.1 + 0.2)

    def test_manifest_lists_outputs(self, tmp_path):
        man = Manifest("demo", ["--x"], seed=5)
        man.add(tmp_path / "out.json")
        man.write(tmp_path)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["outputs"] == ["out.json"]
        assert data["seed"] == 5 and data["wall_time_s"] >= 0.0

    def test_manifest_workers_null_on_malformed_quc_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUC_THREADS", "abc")
        Manifest("demo", [], seed=None).write(tmp_path)
        assert json.loads((tmp_path / "manifest.json").read_text())["workers"] is None
