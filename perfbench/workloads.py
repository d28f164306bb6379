"""The four workloads: generated inputs, argv per task, and oracle checks.

Each workload is a fixed list of CLI tasks run as a closed loop.  The seed
reaches the program only through ``--seed`` of riesz-check, whose work does
not depend on it.  The solve workloads are fixed oracle problems, and cantor
keeps the CLI's default bump bank (seed 0): the bank sets the quadtree work,
which differs by up to 23 % between seeds 1..10 (672k to 829k cells at
level 12), so a seeded bank would make run_s measure the input, not the
speed.  Oracle references were recorded from the reports of commit 4486f07
(see reference.json).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# The last cascade stage is the unique exact discrete minimizer, so its
# energy may move only by round-off when the cascade path changes.
ENERGY_RTOL = 1e-8
# Nodal error against the closed form may not grow beyond round-off.
NODAL_RTOL = 1e-8
# Blow-up table rows: deterministic grid sums, compared to round-off.
BLOWUP_RTOL = 1e-9

P = 3.0


@dataclass(frozen=True)
class Task:
    name: str
    argv: tuple[str, ...]
    # oracle beyond the exit code, which carries the subcommand's own gate
    check: Callable[[Path], list[str]] | None = None


def _solve_config(cells: int, stages=None) -> dict:
    cfg = {
        "version": 1,
        "problem": {
            "integrand": {"name": "power", "dim": 2, "params": {"p": P}},
            "cells": cells,
            "boundary": {"kind": "radial_power", "params": {"p": P}},
            "source": {"kind": "constant", "params": {"value": 1.0}},
        },
    }
    if stages is not None:
        cfg["schedule"] = {"stages": stages}
    return cfg


def radial_power_exact(xy: np.ndarray) -> np.ndarray:
    """u = (p-1)/p N^(-1/(p-1)) |x|^(p/(p-1)), the solution of Div(|Du|^(p-2) Du) = 1."""
    coef = (P - 1.0) / P * 2.0 ** (-1.0 / (P - 1.0))
    return coef * np.linalg.norm(xy, axis=1) ** (P / (P - 1.0))


def _solve_check(ref: dict) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text())
        energy = report["energy"]
        fails = []
        if not abs(energy - ref["energy"]) <= ENERGY_RTOL * abs(ref["energy"]):
            fails.append(f"final energy {energy!r} differs from the reference "
                         f"{ref['energy']!r} beyond rtol {ENERGY_RTOL:g}")
        snap = np.loadtxt(out / "solution.txt")
        err = float(np.max(np.abs(snap[:, 2] - radial_power_exact(snap[:, :2]))))
        if not err <= ref["nodal_error"] * (1.0 + NODAL_RTOL):
            fails.append(f"nodal error {err!r} exceeds the reference "
                         f"{ref['nodal_error']!r}")
        return fails

    return check


def newton_iters(out: Path) -> int:
    """Newton steps summed over the cascade stages of a solve report."""
    report = json.loads((out / "report.json").read_text())
    return sum(int(stage["iterations"]) for stage in report["stages"])


def _blowup_check(out: Path) -> list[str]:
    with (out / "blowup.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    ref_rows = REFERENCE["cantor-12-13"]["blowup"]
    if len(rows) != len(ref_rows):
        return [f"blow-up table has {len(rows)} rows, reference {len(ref_rows)}"]
    fails = []
    for row, ref in zip(rows, ref_rows):
        for key, want in ref.items():
            got = float(row[key])
            if not math.isclose(got, want, rel_tol=BLOWUP_RTOL, abs_tol=0.0):
                fails.append(f"blow-up level {row['level']} {key}: {got!r} vs {want!r}")
    return fails


WORKLOADS = ("cascade-p3-128", "tilt-p3-256", "riesz-radial", "cantor-12-13")


def build(workload: str, seed: int, work_dir: Path) -> list[Task]:
    """Write the workload's inputs under work_dir and return its task list."""
    if workload == "cascade-p3-128":
        cfg = work_dir / "cascade-p3-128.json"
        cfg.write_text(json.dumps(_solve_config(128), indent=2))
        return [Task("solve", ("solve", "--config", str(cfg)),
                     _solve_check(REFERENCE[workload]))]
    if workload == "tilt-p3-256":
        cfg = work_dir / "tilt-p3-256.json"
        stages = [[0.0, 1e-2], [0.0, 1e-4], [0.0, 0.0]]
        cfg.write_text(json.dumps(_solve_config(256, stages), indent=2))
        return [Task("solve", ("solve", "--config", str(cfg)),
                     _solve_check(REFERENCE[workload]))]
    if workload == "riesz-radial":
        # The radial tasks are scalar-quad, interpreter-bound work whose wall
        # time spreads about 30 % from run to run on a shared 2-vCPU host,
        # against about 10 % for riesz-check at 512^2; they are kept to about
        # a sixth of the list so that run_s stays within its bound.  Two p
        # values still give cpprime-sweep two pool workers.
        return [
            Task("riesz-check", ("riesz-check", "--n", "512", "--fields", "10",
                                 "--kmax", "8", "--seed", str(seed))),
            Task("cpprime-sweep", ("cpprime-sweep", "--p-grid", "2,3")),
            Task("radial", ("radial", "--p", "3")),
        ]
    if workload == "cantor-12-13":
        return [Task("cantor", ("cantor", "--levels", "12..13", "--bumps", "50",
                                "--n-grid", "1024", "--seed", "0"),
                     _blowup_check)]
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
