"""Sampled convexity diagnostics: ratio-bound estimation and growth checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, NumericError
from .base import Integrand, eigen_ratio_batch

# Samples closer than this to a declared singular point are excluded; the
# eigenvalue-ratio bound is an almost-everywhere statement and the gallery
# records its measure-zero degeneracies explicitly.
_SKIP_RADIUS = 1e-9

GROWTH_C_MAX = 1e12  # largest growth constant C that verify_growth tries


@dataclass(frozen=True)
class AnnulusSampler:
    """Log-radial shells crossed with random sphere directions."""

    r_min: float
    r_max: float
    shells: int = 40
    directions: int = 25
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise InputError("need 0 < r_min < r_max")
        if self.shells * self.directions < 1:
            raise InputError("empty sampler")

    @property
    def count(self) -> int:
        return self.shells * self.directions

    def points(self, dim: int, center=None) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        radii = np.logspace(np.log10(self.r_min), np.log10(self.r_max), self.shells)
        dirs = rng.standard_normal((self.directions, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = radii[:, None, None] * dirs[None, :, :]
        pts = pts.reshape(-1, dim)
        if center is not None:
            pts = pts + np.asarray(center, float)
        return pts


def _drop_singular(f: Integrand, pts: np.ndarray) -> np.ndarray:
    keep = np.ones(len(pts), dtype=bool)
    for s in f.singular_points:
        keep &= np.linalg.norm(pts - np.asarray(s, float), axis=1) > _SKIP_RADIUS
    return pts[keep]


def estimate_K(f: Integrand, sampler: AnnulusSampler) -> float:
    """Empirical supremum of the Hessian eigenvalue ratio over the annulus.

    Samples are centered at the integrand's minimizer; declared singular
    points are skipped and degenerate Hessians are dropped.  Raises
    :class:`NumericError` when no sample survives.
    """
    if sampler.count < 1000:
        raise InputError("sampler must provide at least 1000 points")
    pts = _drop_singular(f, sampler.points(f.dim, center=f.minimizer))
    if len(pts) == 0:
        raise NumericError("all sample points were singular")
    ratios = eigen_ratio_batch(f, pts)
    finite = ratios[np.isfinite(ratios)]
    if finite.size == 0:
        raise NumericError("all sampled Hessians were degenerate")
    return float(finite.max())


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of the (p, q)-growth search over a log grid of constants."""

    p: float
    q: float
    C_lower: float | None
    C_upper: float | None
    holds: bool


def verify_growth(f: Integrand, K: float) -> GrowthReport:
    """Search a finite constant C for the two-sided growth bounds.

    With p = 1 + 1/K and q = 1 + K, checks on all samples z (centered at the
    minimizer; 60 log-radial shells in [1e-3, 1e7] times 12 directions of
    seed 3)

        C^-1 |z|^p - C <= F(z) <= C (|z|^q + 1),
        C^-1 |z|^(p-1) - C <= |DF(z)| <= C (|z|^(q-1) + 1),

    scanning C over a log grid up to GROWTH_C_MAX.  Failure beyond it means
    the declared K is too small for the integrand.
    """
    if K < 1.0:
        raise InputError("K must be >= 1")
    p = 1.0 + 1.0 / K
    q = 1.0 + K
    sampler = AnnulusSampler(1e-3, 1e7, shells=60, directions=12, seed=3)
    pts = _drop_singular(f, sampler.points(f.dim, center=f.minimizer))
    rad = np.linalg.norm(pts - f.minimizer, axis=1)
    fv = np.asarray(f.value(pts), float)
    dfv = np.linalg.norm(np.asarray(f.gradient(pts), float), axis=-1)

    grid = np.logspace(0.0, np.log10(GROWTH_C_MAX), 49)
    with np.errstate(over="ignore"):  # an overflowed |z|^q = +inf is the exact bound
        upper_f, upper_df = rad ** q + 1.0, rad ** (q - 1.0) + 1.0

    def lower_ok(c):
        return np.all(rad ** p / c - c <= fv) and np.all(rad ** (p - 1.0) / c - c <= dfv)

    def upper_ok(c):
        return np.all(fv <= c * upper_f) and np.all(dfv <= c * upper_df)

    c_lower = next((float(c) for c in grid if lower_ok(c)), None)
    c_upper = next((float(c) for c in grid if upper_ok(c)), None)
    return GrowthReport(p=p, q=q, C_lower=c_lower, C_upper=c_upper,
                        holds=c_lower is not None and c_upper is not None)
