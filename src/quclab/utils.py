"""Shared plumbing: worker caps, number inputs, deterministic report writing,
manifests."""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError


def worker_count(tasks: int | None = None) -> int:
    """Worker cap from QUC_THREADS (default: cpu count), floored at 1."""
    env = os.environ.get("QUC_THREADS", "").strip()
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        raise InputError(f"QUC_THREADS must be an integer, got {env!r}") from None
    cap = max(1, cap)
    if tasks is not None:
        cap = min(cap, max(1, tasks))
    return cap


def pool_map(pool, fn, items):
    """pool.map in input order that draws items lazily, in the caller's
    thread, and keeps at most worker_count() tasks in flight, so a
    generator of large items holds at most that many of them."""
    depth = worker_count()
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) >= depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def strict_int(value, what: str) -> int:
    """An int, or a float with an integral value, as an int; InputError for
    anything else (a fractional or non-finite number, a bool, a string)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def strict_float(value, what: str) -> float:
    """A finite int or float as a float; InputError for anything else (a
    non-finite number, a bool, a string, None), OverflowError for an int
    beyond the float range."""
    numeric = (int, float, np.integer, np.floating)
    if isinstance(value, numeric) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise InputError(f"{what} must be a finite number, got {value!r}")


def check_p(p: float) -> None:
    """InputError unless the growth exponent p is finite and > 1."""
    if not np.isfinite(p) or p <= 1.0:
        raise InputError(f"growth exponent must satisfy p > 1, got {p}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: Path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _format_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def write_grid_txt(path: Path, axis: np.ndarray, dim: int, values: np.ndarray) -> None:
    """Grid snapshot as "%.17g" text: one row per point of the axis^dim grid
    in row-major ("ij") order, its coordinates then its values, the bytes
    np.savetxt(np.column_stack([coords, values]), fmt="%.17g") writes.

    Each axis coordinate is formatted once, into the rows' format string,
    and one string operation formats the values alone.
    """
    values = np.asarray(values, float).reshape(len(axis) ** dim, -1)
    coords = ["%.17g " % c for c in axis.tolist()]
    # "\0" marks each row's start, where every outer axis puts its coordinate
    fmt = "\0" + " ".join(["%.17g"] * values.shape[1]) + "\n"
    for _ in range(dim):
        fmt = "".join([fmt.replace("\0", "\0" + c) for c in coords])
    Path(path).write_text(fmt.replace("\0", "") % tuple(values.ravel().tolist()))


class Manifest:
    """Run metadata written beside each subcommand's outputs.

    Contains wall time, so the manifest itself is exempt from the
    byte-identical determinism contract that the report files obey.
    """

    def __init__(self, subcommand: str, argv: list[str], seed: int | None):
        self.subcommand = subcommand
        self.argv = list(argv)
        self.seed = seed
        self.outputs: list[str] = []
        self._t0 = time.perf_counter()

    def add(self, path: Path) -> Path:
        self.outputs.append(str(Path(path).name))
        return Path(path)

    def write(self, out_dir: Path) -> None:
        import scipy  # the CLI has it loaded with the solver
        try:
            workers = worker_count()
        except InputError:  # a malformed QUC_THREADS, which the run exits 2 on
            workers = None
        payload = {
            "subcommand": self.subcommand,
            "argv": self.argv,
            "seed": self.seed,
            "outputs": sorted(self.outputs),
            "package_version": __version__,
            "numpy_version": np.__version__,
            "python_version": sys.version.split()[0],
            "scipy_version": scipy.__version__,
            "workers": workers,
            "wall_time_s": round(time.perf_counter() - self._t0, 6),
        }
        write_json(Path(out_dir) / "manifest.json", payload)
