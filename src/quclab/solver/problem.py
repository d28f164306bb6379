"""Problem descriptions, schedules, and the JSON configuration schema."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import InputError
from ..integrands import Integrand, integrand_from_config
from ..utils import check_p, strict_float, strict_int

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
    hat function).
    """

    integrand: Integrand
    boundary: Callable[[np.ndarray], np.ndarray]
    source: Callable[[np.ndarray], np.ndarray]
    cells: int = 64
    half_width: float = 1.0

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

    Every malformed value raises :class:`InputError`.  Returns
    (ProblemSpec, RegularizationSchedule, solver_options, report_options).
    """
    if not isinstance(cfg, dict):
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
    if "report" in cfg and spec.dim != 2:
        raise InputError(f"report: the regularity report is 2-D only, not {spec.dim}-D")
    report_opts = {key: _parse(key, _REPORT_TYPES[key], value, key)
                   for key, value in _section(cfg, "report", set(_REPORT_TYPES)).items()}
    return spec, schedule, solver_opts, report_opts
