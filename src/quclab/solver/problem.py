"""Problem descriptions, schedules, and the JSON solve config with its rules."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import InputError, PreconditionError
from ..integrands import Integrand, integrand_from_config
from ..utils import check_p, strict_float, strict_int
from .mesh import BoxMesh

CONFIG_VERSION = 1


def radial_power_solution(p: float, dim: int = 2) -> Callable[[np.ndarray], np.ndarray]:
    """u(x) = (p-1)/p N^(-1/(p-1)) |x|^(p/(p-1)), solving Div(|Du|^(p-2) Du) = 1."""
    check_p(p)
    coef = (p - 1.0) / p * dim ** (-1.0 / (p - 1.0))

    def u(x):
        r = np.linalg.norm(np.asarray(x, float), axis=-1)
        return coef * r ** (p / (p - 1.0))

    return u


def radial_power_gradient(p: float, dim: int = 2) -> Callable[[np.ndarray], np.ndarray]:
    def du(x):
        x = np.asarray(x, float)
        r = np.linalg.norm(x, axis=-1)
        rs = np.maximum(r, 1e-300)
        mag = (rs / dim) ** (1.0 / (p - 1.0))
        return (mag / rs)[..., None] * x

    return du


_BOUNDARY_KINDS = ("zero", "constant", "affine", "quadratic", "radial_power")
_SOURCE_KINDS = ("zero", "constant")


def make_boundary(kind: str, **params) -> Callable[[np.ndarray], np.ndarray]:
    """Trace functions for the JSON config; evaluated at boundary nodes."""
    if kind == "zero":
        maker = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    elif kind == "constant":
        value = strict_float(params.pop("value"), "value")
        maker = lambda x: np.full(np.asarray(x, float).shape[:-1], value)
    elif kind == "affine":
        slope = np.array([strict_float(v, "slope") for v in params.pop("slope")])
        maker = lambda x: np.asarray(x, float) @ slope
    elif kind == "quadratic":
        maker = lambda x: np.sum(np.asarray(x, float) ** 2, axis=-1)
        scale = strict_float(params.pop("scale", 1.0), "scale")
        if scale != 1.0:
            inner = maker
            maker = lambda x: scale * inner(x)
    elif kind == "radial_power":
        p = strict_float(params.pop("p"), "p")
        maker = radial_power_solution(p, strict_int(params.pop("dim", 2), "dim"))
    else:
        raise InputError(f"unknown boundary kind {kind!r} (known: {_BOUNDARY_KINDS})")
    if params:
        raise InputError(f"kind {kind!r}: unknown parameters {sorted(params)}")
    return maker


def make_source(kind: str, **params) -> Callable[[np.ndarray], np.ndarray]:
    """Source functions for the JSON config: the zero and constant kinds of
    :func:`make_boundary`."""
    if kind not in _SOURCE_KINDS:
        raise InputError(f"unknown source kind {kind!r} (known: {_SOURCE_KINDS})")
    return make_boundary(kind, **params)


@dataclass(frozen=True)
class ProblemSpec:
    """Dirichlet minimization of  J(w) = int F(Dw) + f w  on [-L, L]^dim.

    The minimizer solves Div(DF(Du)) = f weakly (the discrete first-order
    condition is sum_s vol (DF(Du), Dphi_i) + sum w f phi_i = 0 per interior
    hat function).  The spec builds its mesh, which checks cells and half_width,
    and checks its finite nodal data there: ``f_nodes`` and ``boundary_values``.
    """

    integrand: Integrand
    boundary: Callable[[np.ndarray], np.ndarray]
    source: Callable[[np.ndarray], np.ndarray]
    cells: int = 64
    half_width: float = 1.0
    mesh: BoxMesh = field(init=False, repr=False, compare=False)
    f_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    boundary_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mesh = BoxMesh(self.dim, self.cells, self.half_width)
        coords = mesh.node_coords()
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            f_nodes = np.asarray(self.source(coords), float)
            trace = np.asarray(self.boundary(coords[mesh.boundary_mask]), float)
        if f_nodes.shape != (mesh.n_nodes,):
            raise InputError("source must evaluate to one value per node")
        if not np.all(np.isfinite(f_nodes)):
            raise InputError("source has non-finite nodal values")
        if not np.all(np.isfinite(trace)):
            raise InputError("boundary data has non-finite values")
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "f_nodes", f_nodes)
        object.__setattr__(self, "boundary_values", trace)

    @property
    def dim(self) -> int:
        return self.integrand.dim


@dataclass(frozen=True)
class RegularizationSchedule:
    """Stages (eps_n, mu_n), both nonincreasing to zero.

    eps is the integrand mollification radius, mu the quadratic tilt.  A
    final (0, 0) stage realizes the limit problem; the cascade monitors the
    coupling mu^(p-1) max(Lip, 1)^(2-p) -> 0 and the stagewise energy convergence.
    """

    stages: tuple = ((0.08, 1e-2), (0.02, 1e-4), (0.005, 1e-7), (0.0, 0.0))

    def __post_init__(self):
        stages = tuple((strict_float(e, "eps"), strict_float(m, "mu"))
                       for e, m in self.stages)
        if not stages:
            raise InputError("schedule needs at least one stage")
        eps = [s[0] for s in stages]
        mus = [s[1] for s in stages]
        if any(e < 0 for e in eps) or any(m < 0 for m in mus):
            raise InputError("eps and mu must be >= 0")
        if any(a < b for a, b in zip(eps, eps[1:])) or any(a < b for a, b in zip(mus, mus[1:])):
            raise InputError("eps and mu must be nonincreasing along the schedule")
        object.__setattr__(self, "stages", stages)


def check_report_ball(spec: ProblemSpec, ball_center, ball_radius: float, m: float,
                      theta: float | None = None):
    """The rules of a localized report on the problem's domain: a 2-D problem,
    a 2-entry center, a positive radius, 4B inside the domain and
    0 < theta <= m, theta defaulting to min{p/(q-1), 1} from the declared
    growth exponents, else 1.  Returns (center array, theta)."""
    if spec.dim != 2:
        raise InputError(f"report: the regularity report is 2-D only, not {spec.dim}-D")
    c = np.asarray(ball_center, float)
    if c.shape != (2,):
        raise InputError(f"ball_center must have 2 entries, got {c.tolist()}")
    if not ball_radius > 0.0:
        raise InputError(f"ball_radius must be > 0, got {ball_radius}")
    if np.any(np.abs(c) + 4.0 * ball_radius > spec.half_width + 1e-12):
        raise PreconditionError("4B must be contained in the domain")
    if theta is None:
        p, q = spec.integrand.growth_p, spec.integrand.growth_q
        theta = 1.0 if p is None or q is None or q <= 1.0 else min(p / (q - 1.0), 1.0)
    if not 0.0 < theta <= m:
        raise InputError("need 0 < theta <= m")
    return c, float(theta)


# -- JSON config ----------------------------------------------------------------

_TOP_KEYS = {"version", "problem", "schedule", "solver", "report"}
_PROBLEM_KEYS = {"integrand", "cells", "half_width", "boundary", "source"}
_SOLVER_TYPES = {"tol": strict_float, "max_iter": strict_int}
_REPORT_TYPES = {"ball_center": lambda v, what: [strict_float(x, what) for x in v],
                 "ball_radius": strict_float, "m": strict_float,
                 "theta": lambda v, what: None if v is None else strict_float(v, what)}


def _check_keys(d: dict, allowed: set, where: str):
    extra = set(d) - allowed
    if extra:
        raise InputError(f"unknown keys {sorted(extra)} in {where} "
                         f"(allowed: {sorted(allowed)})")


def _section(d: dict, key: str, allowed: set | None, default: dict | None = None) -> dict:
    """Copy of the JSON object ``d[key]``; keys are checked unless ``allowed`` is None."""
    value = d.get(key, {} if default is None else default)
    if not isinstance(value, dict):
        raise InputError(f"{key} must be a JSON object, got {value!r}")
    if allowed is not None:
        _check_keys(value, allowed, key)
    return dict(value)


def _parse(what: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), reporting a malformed config value as an InputError
    that names ``what``."""
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None
    except KeyError as exc:
        raise InputError(f"malformed {what}: missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {what}: {exc}") from None


def load_problem_config(cfg: dict | str | Path):
    """Parse and validate a solver config; unknown keys are rejected.

    Every malformed value raises :class:`InputError`, so a returned config
    runs.  Returns (ProblemSpec, RegularizationSchedule, solver_options,
    report_options); a 2-D problem's report options are sobolev_report's
    keywords, defaulting to ball (0, 0), radius half_width / 5 and m = 2.
    """
    if isinstance(cfg, (str, Path)):
        try:
            cfg = json.loads(Path(cfg).read_text())
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read config {cfg}: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    if cfg.get("version") != CONFIG_VERSION:
        raise InputError(f"config version must be {CONFIG_VERSION}")
    if "problem" not in cfg:
        raise InputError("config requires a 'problem' section")
    prob = _section(cfg, "problem", _PROBLEM_KEYS)
    zero = {"kind": "zero", "params": {}}
    bdesc = _section(prob, "boundary", {"kind", "params"}, zero)
    sdesc = _section(prob, "source", {"kind", "params"}, zero)
    integrand = _parse("integrand", integrand_from_config,
                       _section(prob, "integrand", None))
    bparams = _section(bdesc, "params", None)
    if bdesc.get("kind") == "radial_power":
        bparams.setdefault("dim", integrand.dim)
    spec = ProblemSpec(
        integrand=integrand,
        cells=_parse("cells", strict_int, prob.get("cells", 64), "cells"),
        half_width=_parse("half_width", strict_float, prob.get("half_width", 1.0),
                          "half_width"),
        boundary=_parse("boundary", make_boundary, bdesc.get("kind"), **bparams),
        source=_parse("source", make_source, sdesc.get("kind"),
                      **_section(sdesc, "params", None)),
    )
    if bparams.get("dim", spec.dim) != spec.dim:
        raise InputError(f"boundary: radial_power dim {bparams['dim']} is not {spec.dim}")
    sched_cfg = _section(cfg, "schedule", {"stages"})
    if "stages" in sched_cfg:
        schedule = _parse("schedule", RegularizationSchedule, sched_cfg["stages"])
    else:
        schedule = RegularizationSchedule()
    solver_opts = {key: _parse(key, _SOLVER_TYPES[key], value, key)
                   for key, value in _section(cfg, "solver", set(_SOLVER_TYPES)).items()}
    for key, value in solver_opts.items():
        if not value > 0:
            raise InputError(f"{key} must be > 0, got {value}")
    report_opts = {key: _parse(key, _REPORT_TYPES[key], value, key)
                   for key, value in _section(cfg, "report", set(_REPORT_TYPES)).items()}
    if spec.dim == 2 or "report" in cfg:
        report_opts = {"ball_center": [0.0, 0.0], "ball_radius": spec.half_width / 5.0,
                       "m": 2.0, **report_opts}
        check_report_ball(spec, **report_opts)
    return spec, schedule, solver_opts, report_opts
