"""Benchmark of the quclab laboratory through its public entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process by calling
``quclab.cli.main(argv)`` with generated inputs, as a closed loop: a task
starts only after the previous one has finished.  Every task's outputs are
checked against oracles, and every report file except manifest.json must
be byte-identical across the task lists of one run.

--trace 0 repeats the task list until S seconds have passed (at least
twice) and reports the end-to-end metrics: setup_s (median set-up time:
import quclab and generate the inputs), run_s (the wall time of the task
list: each task's median over the lists, summed over the tasks) and
peak_rss_mb.  --trace 1 runs the task list once untraced and once
with the layer wrappers of tracer.py, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  All files are written under perfbench/.work
(removed at exit) and perfbench/results (span dumps).
"""

from __future__ import annotations

import os

# The pool size is fixed and BLAS is pinned to one thread, before numpy loads.
THREAD_ENV = {"QUC_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
# the scipy subpackages quclab imports; loaded here so set-up times quclab alone
import scipy.integrate  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401
import scipy.sparse.linalg  # noqa: E402,F401
import scipy.special  # noqa: E402,F401
import scipy.stats  # noqa: E402,F401

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]
# bytecode of modules imported from here on goes under the benchmark's own
# directory, so a run writes nothing into src/
sys.pycache_prefix = str(BENCH_DIR / ".pycache")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_BEFORE_FIRST_TASK = 8
# the determinism check compares every task list with the first one
MIN_TASK_LISTS = 2


def fresh_quclab():
    """Import quclab anew from the checkout's src/, as a new CLI process would."""
    for name in [m for m in sys.modules if m == "quclab" or m.startswith("quclab.")]:
        del sys.modules[name]
    cli = importlib.import_module("quclab.cli")
    origin = Path(sys.modules["quclab"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"quclab imported from {origin}, not from {SRC}")
    mods = {m: sys.modules[m] for m in list(sys.modules)
            if m == "quclab" or m.startswith("quclab.")}
    return cli, mods


def set_up(workload, seed, work_dir, samples):
    """Import quclab and generate the inputs; the time goes into samples."""
    gc.collect()
    t0 = time.perf_counter()
    cli, mods = fresh_quclab()
    tasks = workloads.build(workload, seed, work_dir)
    samples.append(time.perf_counter() - t0)
    return cli, mods, tasks


def digest_reports(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


class Runner:
    """Runs task lists, checks them, and keeps the tallies of one run."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: dict[str, dict[str, str]] = {}
        self.newton_iters = 0

    def task_list(self, cli, tasks, label, trace=None) -> list[float]:
        """Run the tasks in order; returns the wall time of each."""
        rep_dir = self.work_dir / label
        outcome = []
        gc.collect()
        for task in tasks:
            out = rep_dir / task.name
            if trace is not None:
                trace.task = task.name
            t0 = time.perf_counter()
            try:
                code = cli.main([*task.argv, "--out", str(out)])
            except Exception:  # a crash is a failed task, not a failed run
                traceback.print_exc(file=sys.stderr)
                code = "exception"
            outcome.append((task, out, code, time.perf_counter() - t0))
        for task, out, code, seconds in outcome:
            self.attempted += 1
            fails = self.check(task, out, code)
            if trace is not None and not fails and task.argv[0] == "solve":
                self.newton_iters += workloads.newton_iters(out)
            status = "ok" if not fails else "FAILED: " + "; ".join(fails)
            print(f"  {label} {task.name} {seconds:.3f} s: {status}")
            if fails:
                self.failures.append(f"{label} {task.name}: {'; '.join(fails)}")
        shutil.rmtree(rep_dir, ignore_errors=True)
        return [seconds for *_, seconds in outcome]

    def check(self, task, out, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            fails = task.check(out) if task.check else []
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable report: {exc!r}"]
        digests = digest_reports(out)
        first = self.first_digests.setdefault(task.name, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests)
                             if first.get(k) != digests.get(k))
            fails.append(f"reports differ from the first task list: {changed}")
        return fails


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        **{k: os.environ.get(k) for k in THREAD_ENV},
    }


def emit(correct, attempted, failed, metrics, units) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quclab" / "cli.py").is_file():
        print(f"quclab sources not found under {SRC}", file=sys.stderr)
        return 2
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tempfile.tempdir = str(work_dir)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir: Path) -> int:
    setup_samples: list[float] = []
    try:
        for _ in range(SETUPS_BEFORE_FIRST_TASK):
            set_up(args.workload, args.seed, work_dir, setup_samples)
    except ImportError as exc:
        print(f"cannot import quclab: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    runner = Runner(work_dir)

    if args.trace == 0:
        task_times = []  # one row of per-task wall times per task list
        start = time.perf_counter()
        while len(task_times) < MIN_TASK_LISTS or time.perf_counter() - start < args.seconds:
            cli, _, tasks = set_up(args.workload, args.seed, work_dir, setup_samples)
            task_times.append(runner.task_list(cli, tasks, f"list{len(task_times) + 1}"))
        run_times = [sum(row) for row in task_times]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            # each task's median over the lists, summed over the tasks
            "run_s": sum(statistics.median(col) for col in zip(*task_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
        print(f"task lists: {len(run_times)}; list wall times: "
              + ", ".join(f"{t:.4f}" for t in run_times))
    else:
        cli, _, tasks = set_up(args.workload, args.seed, work_dir, setup_samples)
        untraced = sum(runner.task_list(cli, tasks, "untraced"))
        cli, mods, tasks = set_up(args.workload, args.seed, work_dir, setup_samples)
        trace = tracing.Tracer()
        trace.install(mods)
        try:
            traced = sum(runner.task_list(cli, tasks, "traced", trace=trace))
        finally:
            trace.restore()
        metrics = trace.layer_metrics(runner.newton_iters, traced, traced - untraced)
        units = dict(tracing.PER_LAYER)
        metrics = {name: metrics[name] for name, _ in tracing.PER_LAYER}
        report_trace(args, env, trace, metrics, untraced, traced)

    failed = len(runner.failures)
    print(f"error_rate = {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} tasks failed)")
    for line in runner.failures:
        print("failure: " + line)
    emit(failed == 0, runner.attempted, failed, metrics, units)
    return 0


def report_trace(args, env, trace, metrics, untraced, traced) -> None:
    """Print the intent checks and unmeasured spans; dump the spans to results/."""
    intent = trace.intent(args.workload, traced)
    for row in intent:
        print(f"intent {row['layer']}: busy/run_s = {row['share']:.3f} "
              f"(want {row['want']}) " + ("held" if row["held"] else "NOT MET"))
    unmeasured = {**trace.unmeasured, **trace.missing_spans(args.workload)}
    for name, why in sorted(unmeasured.items()):
        print(f"unmeasured {name}: {why}")
    print(f"tracing overhead: traced run_s {traced:.4f} - untraced {untraced:.4f} "
          f"= {traced - untraced:+.4f} s")
    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": env,
        "untraced_run_s": untraced, "traced_run_s": traced, "metrics": metrics,
        "intent": intent, "unmeasured": unmeasured, "spans": trace.dump(),
    }, indent=1) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
