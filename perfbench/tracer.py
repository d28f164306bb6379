"""Span tracing of quclab's layers, applied from outside the package.

The tracer patches public functions of the freshly imported quclab modules
with timing wrappers.  Spans are kept in memory: each records its name,
start, end, parent span, task id and thread.  Worker threads started by
the CLI's thread pools do not inherit context, so the task id is held on
the tracer itself; the harness runs one task at a time, which makes that
attribution exact.  Counters (points evaluated, FFT calls, SuperLU fill)
are accumulated at the same boundaries.

A wrapper target that no longer exists is recorded as unmeasured and its
metrics read 0; it never stops the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

# Span names expected to fire on each workload.  A span that does not fire
# although its target exists is reported as unmeasured, not as a failure.
EXPECTED_SPANS = {
    "cascade-p3-128": ("solver.minimize", "solver.factor",
                       "solver.energy", "solver.assemble", "solver.reports",
                       "integrands.value", "integrands.gradient",
                       "integrands.hessian", "integrands.mollify", "cli.io"),
    "tilt-p3-256": ("solver.minimize", "solver.factor",
                    "solver.energy", "solver.assemble", "solver.reports",
                    "integrands.value", "integrands.gradient",
                    "integrands.hessian", "cli.io"),
    "riesz-radial": ("spectral.gradient_tensor", "spectral.divcurl_reconstruct",
                     "spectral.verify_lm_bound", "spectral.identity",
                     "cordes.estimate_T_norm", "radial.solve_radial",
                     "radial.cp_prime_verify", "radial.post", "cli.io"),
    "cantor-12-13": ("counterexamples.weak_residual", "counterexamples.blowup",
                     "quadrature", "cantorfn.h", "cli.io"),
}

# The layers each workload is meant to stress: (label, span prefixes,
# comparison, share of the traced run_s taken by their busy time).
INTENT = {
    "cascade-p3-128": [("integrands", ("integrands.",), ">=", 1 / 2)],
    "tilt-p3-256": [("integrands", ("integrands.",), "<=", 1 / 10),
                    ("solver.factor", ("solver.factor",), ">=", 1 / 2)],
    "riesz-radial": [("spectral+cordes", ("spectral.", "cordes."), ">=", 1 / 2),
                     ("radial", ("radial.",), ">=", 1 / 10)],
    "cantor-12-13": [("quadrature", ("quadrature",), ">=", 1 / 2)],
}

# (metric, unit) in report order; units follow BENCHMARK.json.
PER_LAYER = (
    ("integrands.value.s", "s"), ("integrands.gradient.s", "s"),
    ("integrands.hessian.s", "s"), ("integrands.mollify.s", "s"),
    ("integrands.points", "count"), ("integrands.us_per_point", "us"),
    ("solver.minimize.s", "s"), ("solver.minimize.self_s", "s"),
    ("solver.factor.s", "s"), ("solver.factor.calls", "count"),
    ("solver.factor.fill_nnz", "count"), ("solver.assemble.s", "s"),
    ("solver.energy.s", "s"), ("solver.energy.calls", "count"),
    ("solver.newton_iters", "count"), ("solver.linesearch.accept_ratio", "ratio"),
    ("solver.reports.s", "s"),
    ("spectral.gradient_tensor.s", "s"), ("spectral.divcurl_reconstruct.s", "s"),
    ("spectral.verify_lm_bound.s", "s"), ("spectral.identity.s", "s"),
    ("spectral.fft.calls", "count"), ("spectral.fft.points", "count"),
    ("spectral.fft.bytes_computed", "bytes"), ("cordes.estimate_T_norm.s", "s"),
    ("radial.solve_radial.s", "s"), ("radial.quad.calls", "count"),
    ("radial.post.s", "s"), ("radial.overlap", "ratio"),
    ("counterexamples.weak_residual.s", "s"), ("counterexamples.blowup.s", "s"),
    ("counterexamples.overlap", "ratio"),
    ("quadrature.s", "s"), ("quadrature.calls", "count"),
    ("quadrature.cells", "count"), ("quadrature.points", "count"),
    ("quadrature.depth_cap_hits", "count"),
    ("cantorfn.h.s", "s"), ("cantorfn.h.points", "count"),
    ("cli.io.s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_s", "s"),
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: str | None
    thread: int


def _points(z) -> int:
    shape = np.shape(z)
    return int(np.prod(shape[:-1])) if len(shape) else 1


class _ModuleProxy:
    """Stands in for a module inside one quclab module, overriding a few names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unmeasured: dict[str, str] = {}
        self.task: str | None = None
        # per-thread span stacks and counters, so recording takes no lock;
        # list.append and next() on itertools.count are atomic under the GIL
        self._local = threading.local()
        self._thread_counts: list[dict[str, float]] = []
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.task,
                                   threading.get_ident()))

    def count(self, key: str, amount: float = 1.0) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(float)
            self._thread_counts.append(counts)
        counts[key] += amount

    @property
    def counts(self) -> dict[str, float]:
        total = defaultdict(float)
        for counts in self._thread_counts:
            for key, value in counts.items():
                total[key] += value
        return total

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; after(result, args, kwargs) records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None, make=None) -> None:
        """Replace owner.attr by a traced version; a missing target is unmeasured."""
        # getattr_static: the plain function, also when a class inherits it
        original = inspect.getattr_static(owner, attr, None)
        if original is None:
            label = getattr(owner, "__name__", "(missing)")
            self.unmeasured.setdefault(name, f"target {label}.{attr} not found")
            return
        wrapped = make(original) if make else self.timed(name, original, after)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self, modules: dict) -> None:
        """Patch the layers of the quclab modules given by dotted name -> module.

        Modules are looked up by dotted name: quclab.solver re-exports the
        function `minimize`, which shadows the module quclab.solver.minimize
        as an attribute.  A module or class that is gone patches nothing.
        """
        mod = modules.get
        cli = mod("quclab.cli")
        solver_min = mod("quclab.solver.minimize")

        self.patch(cli, "minimize", "solver.minimize")
        self.patch(solver_min, "_stage_newton", "solver.linesearch.accept_ratio",
                   make=self._count_stages)
        self.patch(solver_min, "splu", "solver.factor", after=self._after_factor)
        self.patch(solver_min, "assemble_energy", "solver.energy")
        self.patch(solver_min, "mollify", "integrands.mollify",
                   make=self._wrap_mollify)
        mesh_cls = getattr(mod("quclab.solver.mesh"), "BoxMesh", None)
        for attr in ("assemble_hessian", "scatter_gradient", "simplex_gradients"):
            self.patch(mesh_cls, attr, "solver.assemble")
        self.patch(cli, "sobolev_report", "solver.reports")
        self.patch(cli, "euler_lagrange_residual", "solver.reports")

        integrand_cls = getattr(mod("quclab.integrands.base"), "Integrand", None)
        for attr in ("value", "gradient", "hessian"):
            self.patch(integrand_cls, attr, f"integrands.{attr}",
                       after=self._after_points("integrands.points"))

        spectral = mod("quclab.spectral")
        self.patch(spectral, "gradient_tensor", "spectral.gradient_tensor")
        self.patch(spectral, "divcurl_reconstruct", "spectral.divcurl_reconstruct")
        self.patch(spectral, "verify_lm_bound", "spectral.verify_lm_bound")
        self.patch(spectral, "divcurl_identity_residual", "spectral.identity")
        self._count_fft(spectral)
        self.patch(mod("quclab.cordes"), "estimate_T_norm", "cordes.estimate_T_norm")

        radial = mod("quclab.radial")
        self.patch(radial, "solve_radial", "radial.solve_radial")
        self.patch(radial, "cp_prime_verify", "radial.cp_prime_verify")
        for attr in ("holder_exponent", "stress_wm_norm", "source_lm_norm"):
            self.patch(radial, attr, "radial.post")
        self._count_quad(radial)

        cex = mod("quclab.counterexamples")
        self.patch(cex, "weak_divergence_residual", "counterexamples.weak_residual")
        self.patch(cex, "sobolev_blowup_diagnostic", "counterexamples.blowup")
        for owner in (cex, mod("quclab.quadrature")):
            self.patch(owner, "adaptive_quad_2d", "quadrature",
                       make=self._wrap_quadrature)
        profile_cls = getattr(mod("quclab.cantorfn"), "CantorProfile", None)
        self.patch(profile_cls, "h", "cantorfn.h",
                   after=lambda r, a, k: self.count("cantorfn.h.points", np.size(a[1])))

        for owner in (cli, mod("quclab.utils")):
            self.patch(owner, "write_json", "cli.io")
        self.patch(cli, "write_csv", "cli.io")
        # numpy itself, not a stand-in module in cli: cli's hot source
        # lambdas look up np.* on every quadrature point
        self.patch(getattr(cli, "np", np), "savetxt", "cli.io")

    def _after_points(self, key):
        return lambda r, a, k: self.count(key, _points(a[1] if len(a) > 1 else k["z"]))

    def _count_stages(self, original):
        """Counts stages and accepted Newton steps without a span, so a stage's
        own work (COO->CSR, interior slicing) stays in solver.minimize.self_s."""

        @functools.wraps(original)
        def stage(*args, **kwargs):
            result = original(*args, **kwargs)
            self.count("solver.stage.calls")
            self.count("solver.stage.accepted", result[1])
            return result

        return stage

    def _after_factor(self, lu, args, kwargs):
        self.count("solver.factor.calls")
        # L and U are built as copies on access; the tracer's own span keeps
        # that cost out of the solver's self time
        try:
            fill = self._call("trace.fill_nnz", lambda: lu.L.nnz + lu.U.nnz, (), {})
        except AttributeError:
            self.unmeasured.setdefault("solver.factor.fill_nnz",
                                       "factor object has no L/U")
            return
        self.count("solver.factor.fill_nnz", fill)

    def _wrap_mollify(self, original):
        def mollify(*args, **kwargs):
            f = original(*args, **kwargs)
            fields = {}
            for attr in ("value_fn", "gradient_fn", "hessian_fn"):
                fn = getattr(f, attr, None)
                if fn is not None:
                    fields[attr] = self.timed("integrands.mollify", fn)
            try:
                return dataclasses.replace(f, **fields)
            except (TypeError, ValueError):
                self.unmeasured.setdefault(
                    "integrands.mollify", "mollified integrand has no *_fn fields")
                return f

        return functools.wraps(original)(mollify)

    def _wrap_quadrature(self, original):
        try:
            default_depth = inspect.signature(original).parameters["max_depth"].default
        except (KeyError, ValueError, TypeError):
            default_depth = None

        def after(result, args, kwargs):
            self.count("quadrature.calls")
            self.count("quadrature.cells", getattr(result, "cells_used", 0))
            cap = kwargs.get("max_depth", args[4] if len(args) > 4 else default_depth)
            reached = getattr(result, "depth_reached", None)
            if cap is not None and reached is not None and reached >= cap:
                self.count("quadrature.depth_cap_hits")

        timed = self.timed("quadrature", original, after)

        def adaptive_quad_2d(fn, *args, **kwargs):
            def counted(pts):
                self.count("quadrature.points", len(pts))
                return fn(pts)

            return timed(counted, *args, **kwargs)

        return functools.wraps(original)(adaptive_quad_2d)

    def _count_fft(self, spectral):
        np_mod = getattr(spectral, "np", None)
        fft = getattr(np_mod, "fft", None)
        if fft is None:
            self.unmeasured.setdefault("spectral.fft", "spectral has no np.fft")
            return

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                self.count("spectral.fft.calls")
                self.count("spectral.fft.points", np.size(out))
                self.count("spectral.fft.bytes_computed",
                           np.asarray(a).nbytes + out.nbytes)
                return out

            return wrapper

        names = [n for n in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft",
                             "rfftn", "irfftn", "fft2", "ifft2") if hasattr(fft, n)]
        fft_proxy = _ModuleProxy(fft, **{n: counted(getattr(fft, n)) for n in names})
        spectral.np = _ModuleProxy(np_mod, fft=fft_proxy)
        self._undo.append((spectral, "np", np_mod))

    def _count_quad(self, radial):
        integrate = getattr(radial, "integrate", None)
        quad = getattr(integrate, "quad", None)
        if quad is None:
            self.unmeasured.setdefault("radial.quad", "radial has no integrate.quad")
            return

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            self.count("radial.quad.calls")
            return quad(*args, **kwargs)

        radial.integrate = _ModuleProxy(integrate, quad=counted)
        self._undo.append((radial, "integrate", integrate))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return {s.id: (s.end - s.start) - child[s.id] for s in self.spans}

    def busy(self, prefixes: tuple[str, ...]) -> float:
        """Inclusive time of the outermost spans whose name starts with a prefix."""
        by_id = {s.id: s for s in self.spans}

        def inside(span):
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name.startswith(prefixes):
                    return True
                parent = by_id.get(parent.parent)
            return False

        return sum(s.end - s.start for s in self.spans
                   if s.name.startswith(prefixes) and not inside(s))

    def overlap(self, name: str) -> float:
        """Busy / wall of the worker-thread spans of one name (0 if none)."""
        spans = [s for s in self.spans if s.name == name and s.thread != self._main]
        if not spans:
            return 0.0
        wall = max(s.end for s in spans) - min(s.start for s in spans)
        return sum(s.end - s.start for s in spans) / wall if wall > 0 else 0.0

    def layer_metrics(self, newton_iters: int, run_s: float,
                      overhead_s: float) -> dict[str, float]:
        own = self.self_times()
        by_name = defaultdict(float)
        calls = defaultdict(int)
        for s in self.spans:
            by_name[s.name] += own[s.id]
            calls[s.name] += 1
        c = self.counts
        integrand_s = sum(by_name[f"integrands.{k}"]
                          for k in ("value", "gradient", "hessian", "mollify"))
        points = c["integrands.points"]
        energy_calls = calls["solver.energy"]
        # every stage evaluates its start energy once and minimize evaluates
        # the final energy once; every other evaluation is a line-search trial
        trials = energy_calls - c["solver.stage.calls"] - calls["solver.minimize"]
        if energy_calls and not c["solver.stage.calls"]:
            self.unmeasured.setdefault("solver.linesearch.accept_ratio",
                                       "no Newton stage returned through the wrapper")
        out = {
            "integrands.value.s": by_name["integrands.value"],
            "integrands.gradient.s": by_name["integrands.gradient"],
            "integrands.hessian.s": by_name["integrands.hessian"],
            "integrands.mollify.s": by_name["integrands.mollify"],
            "integrands.points": points,
            "integrands.us_per_point": 1e6 * integrand_s / points if points else 0.0,
            "solver.minimize.s": sum(s.end - s.start for s in self.spans
                                     if s.name == "solver.minimize"),
            "solver.minimize.self_s": by_name["solver.minimize"],
            "solver.factor.s": by_name["solver.factor"],
            "solver.factor.calls": c["solver.factor.calls"],
            "solver.factor.fill_nnz": c["solver.factor.fill_nnz"],
            "solver.assemble.s": by_name["solver.assemble"],
            "solver.energy.s": by_name["solver.energy"],
            "solver.energy.calls": energy_calls,
            "solver.newton_iters": newton_iters,
            "solver.linesearch.accept_ratio":
                c["solver.stage.accepted"] / trials if trials > 0 else 0.0,
            "solver.reports.s": by_name["solver.reports"],
            "spectral.gradient_tensor.s": by_name["spectral.gradient_tensor"],
            "spectral.divcurl_reconstruct.s": by_name["spectral.divcurl_reconstruct"],
            "spectral.verify_lm_bound.s": by_name["spectral.verify_lm_bound"],
            "spectral.identity.s": by_name["spectral.identity"],
            "spectral.fft.calls": c["spectral.fft.calls"],
            "spectral.fft.points": c["spectral.fft.points"],
            "spectral.fft.bytes_computed": c["spectral.fft.bytes_computed"],
            "cordes.estimate_T_norm.s": by_name["cordes.estimate_T_norm"],
            "radial.solve_radial.s": by_name["radial.solve_radial"],
            "radial.quad.calls": c["radial.quad.calls"],
            "radial.post.s": by_name["radial.post"],
            "radial.overlap": self.overlap("radial.cp_prime_verify"),
            "counterexamples.weak_residual.s": by_name["counterexamples.weak_residual"],
            "counterexamples.blowup.s": by_name["counterexamples.blowup"],
            "counterexamples.overlap": self.overlap("counterexamples.weak_residual"),
            "quadrature.s": by_name["quadrature"],
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.cells": c["quadrature.cells"],
            "quadrature.points": c["quadrature.points"],
            "quadrature.depth_cap_hits": c["quadrature.depth_cap_hits"],
            "cantorfn.h.s": by_name["cantorfn.h"],
            "cantorfn.h.points": c["cantorfn.h.points"],
            "cli.io.s": by_name["cli.io"],
            "trace.run_s": run_s,
            "trace.overhead_s": overhead_s,
        }
        return {k: float(v) for k, v in out.items()}

    def intent(self, workload: str, run_s: float) -> list[dict]:
        """Whether each layer the workload targets took its intended share."""
        out = []
        for label, prefixes, op, share in INTENT[workload]:
            got = self.busy(prefixes) / run_s
            held = got >= share if op == ">=" else got <= share
            out.append({"layer": label, "share": got, "want": f"{op} {share:.3g}",
                        "held": held})
        return out

    def missing_spans(self, workload: str) -> dict[str, str]:
        """Expected spans that did not fire, with the reason."""
        fired = {s.name for s in self.spans}
        out = {}
        for name in EXPECTED_SPANS[workload]:
            if name not in fired:
                out[name] = self.unmeasured.get(name, "target exists but never fired")
        return out

    def dump(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]
