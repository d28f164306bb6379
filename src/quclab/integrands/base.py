"""Integrand container and pointwise convexity diagnostics.

An :class:`Integrand` bundles one batched evaluator, the jet, with declared
metadata: the eigenvalue-ratio bound K (when known), the growth exponents
p = 1 + 1/K and q = 1 + K derived from it, the minimizer location, the
points where the Hessian is singular and should be skipped by
almost-everywhere samplers, whether F is a smooth radial profile
f(|z|) about the origin (which lets the mollifier work in one dimension),
and for the Uhlenbeck class the indices of its profile a.

The jet contract: ``jet_fn(z, order)`` maps points of shape (..., N) to
``(F,)``, ``(F, DF)`` or ``(F, DF, D2F)`` for ``order`` 0, 1 or 2, with
shapes (...), (..., N) and (..., N, N).  Every order is computed in one
call, so |z|, powers and projections are shared and each of the three
combinators (``tilted``, ``mollify``, ``moreau_yosida``) wraps one
function.  ``value``, ``gradient`` and ``hessian`` are accessors over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .. import matrixcore
from ..errors import InputError, NumericError


def _as_points(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != dim:
        raise InputError(f"points have dimension {z.shape[-1]}, integrand expects {dim}")
    return z


@dataclass(frozen=True)
class Integrand:
    """Convex integrand with a batched jet evaluator and declared metadata."""

    name: str
    dim: int
    jet_fn: Callable[[np.ndarray, int], tuple]
    declared_K: float | None = None
    minimizer: np.ndarray = None
    singular_points: tuple = ()
    params: dict = field(default_factory=dict)
    # F(z) = f(|z|) with f smooth on r > 0 (the Uhlenbeck class).  The tilt
    # keeps it; mollify and moreau_yosida build integrands without it.
    radial: bool = False
    # uhlenbeck_indices of the profile a of an ``uhlenbeck`` integrand; the
    # combinators change a, so their integrands do not carry them
    indices: dict | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if self.declared_K is not None and self.declared_K < 1.0:
            raise InputError("declared_K must be >= 1")
        z0 = np.zeros(self.dim) if self.minimizer is None else np.asarray(self.minimizer, float)
        object.__setattr__(self, "minimizer", z0)

    # -- evaluators --------------------------------------------------------

    def jet(self, z, order: int) -> tuple:
        """(F,), (F, DF) or (F, DF, D2F) at z for order 0, 1 or 2."""
        if order not in (0, 1, 2):
            raise InputError(f"jet order must be 0, 1 or 2, got {order}")
        return self.jet_fn(_as_points(z, self.dim), order)

    def value(self, z):
        return self.jet(z, 0)[0]

    def gradient(self, z):
        return self.jet(z, 1)[1]

    def hessian(self, z):
        return self.jet(z, 2)[2]

    # -- declared growth ----------------------------------------------------

    @property
    def growth_p(self) -> float | None:
        return None if self.declared_K is None else 1.0 + 1.0 / self.declared_K

    @property
    def growth_q(self) -> float | None:
        return None if self.declared_K is None else 1.0 + self.declared_K

    # -- combinators --------------------------------------------------------

    def tilted(self, mu: float) -> "Integrand":
        """F + (mu/2)|z|^2.  Shifts both extreme Hessian eigenvalues by mu,
        so a declared ratio bound K is preserved."""
        if mu < 0:
            raise InputError("mu must be >= 0")
        if mu == 0.0:
            return self
        eye = np.eye(self.dim)

        def jet(z, order):
            tilt = (0.5 * mu * np.sum(z * z, axis=-1), mu * z, mu * eye)
            return tuple(a + b for a, b in zip(self.jet_fn(z, order), tilt))

        return replace(
            self,
            name=f"{self.name}+{mu:g}/2|z|^2",
            jet_fn=jet,
            indices=None,
        )


def eigen_ratio_batch(f: Integrand, z: np.ndarray) -> np.ndarray:
    """Vectorized eigenvalue ratios at a batch of points (LAPACK path).

    Degenerate or non-finite Hessians yield ``inf``.
    """
    z = _as_points(z, f.dim)
    hess = np.asarray(f.hessian(z), dtype=float)
    flat = hess.reshape(-1, f.dim, f.dim)
    ratios = np.full(flat.shape[0], np.inf)
    finite = np.all(np.isfinite(flat), axis=(1, 2))
    ratios[finite] = matrixcore.eigen_ratios(flat[finite])[2]
    return ratios.reshape(z.shape[:-1])


def validate_integrand(f: Integrand, rng: np.random.Generator) -> None:
    """Consistency checks: midpoint convexity, DF(z0) ~ 0, DF matches FD of F,
    on 64 point pairs z0 + 2 N(0, I).

    Raises :class:`NumericError` on violation; used by the test-suite, not at
    construction time.
    """
    z1 = f.minimizer + 2.0 * rng.standard_normal((64, f.dim))
    z2 = f.minimizer + 2.0 * rng.standard_normal((64, f.dim))
    mid = 0.5 * (z1 + z2)
    gap = 0.5 * (f.value(z1) + f.value(z2)) - f.value(mid)
    scale = 1.0 + np.abs(f.value(z1)) + np.abs(f.value(z2))
    if np.any(gap < -1e-9 * scale):
        raise NumericError(f"midpoint convexity violated for {f.name}")
    g0 = np.linalg.norm(f.gradient(f.minimizer))
    if g0 > 1e-8 * (1.0 + abs(float(f.value(f.minimizer)))):
        raise NumericError(f"gradient at declared minimizer is {g0:.2e} for {f.name}")
    h = 1e-6 * (1.0 + np.linalg.norm(z1, axis=-1, keepdims=True))
    for j in range(f.dim):
        e = np.zeros(f.dim)
        e[j] = 1.0
        fd = (f.value(z1 + h * e) - f.value(z1 - h * e)) / (2.0 * h[..., 0])
        an = f.gradient(z1)[..., j]
        err = np.abs(fd - an) / (1.0 + np.abs(an))
        if np.any(err > 1e-5):
            raise NumericError(f"gradient of {f.name} inconsistent with F "
                               f"(max rel err {err.max():.2e})")
