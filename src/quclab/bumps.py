"""Compactly supported bumps with analytic derivatives.

``SmoothBump`` is the C^oo exponential bump exp(1 - 1/(1 - s)) of the
squared scaled radius s = |x - c|^2 / rho^2, zero for |x - c| >= rho; the
test-suite uses it as a cutoff for ``spectral.cutoff_identity_check``.
``PlateauBump`` is the C^2 radial cutoff of ``integrands.extend_local``.
``QuinticBump`` is the C^2 test function of the weak-form residuals
(``counterexamples.weak_divergence_residuals`` and the "bump" mode of
``solver.euler_lagrange_residual``).  Both C^2 bumps are built on
``smoothstep``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matrixcore import radial_hessian

# s values this close to 1 are treated as outside; exp(1 - 1/(1-s)) is below
# the double-precision minimum long before that.
_S_CUT = 1.0 - 1e-9


def smoothstep(t, order: int = 2):
    """Quintic C^2 transition 0 -> 1 on [0, 1] with s', s'' vanishing at
    both ends; t is clipped to [0, 1].

    Returns (s,), (s, s') or (s, s', s'') for order 0, 1 or 2, the same
    contract as an integrand jet.
    """
    t = np.clip(t, 0.0, 1.0)
    out = (t * t * t * (10.0 - 15.0 * t + 6.0 * t * t),)
    if order >= 1:
        out += (30.0 * t * t * (1.0 - t) ** 2,)
    if order == 2:
        out += (60.0 * t * (1.0 - 3.0 * t + 2.0 * t * t),)
    return out


@dataclass(frozen=True)
class SmoothBump:
    """exp(1 - 1/(1 - |x-c|^2/rho^2)) on the ball B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, float))
        if self.radius <= 0.0:
            raise InputError("radius must be > 0")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _s(self, x):
        d = np.asarray(x, float) - self.center
        return np.sum(d * d, axis=-1) / self.radius ** 2, d

    def value(self, x):
        s, _ = self._s(x)
        inside = s < _S_CUT
        with np.errstate(divide="ignore", over="ignore"):
            val = np.where(inside, np.exp(1.0 - 1.0 / np.where(inside, 1.0 - s, 1.0)), 0.0)
        return val

    def gradient(self, x):
        s, d = self._s(x)
        inside = s < _S_CUT
        one_m = np.where(inside, 1.0 - s, 1.0)
        g = np.where(inside, np.exp(1.0 - 1.0 / one_m), 0.0)
        dg_ds = -g / one_m ** 2
        return (2.0 / self.radius ** 2) * dg_ds[..., None] * d

    def hessian(self, x):
        s, d = self._s(x)
        inside = s < _S_CUT
        one_m = np.where(inside, 1.0 - s, 1.0)
        g = np.where(inside, np.exp(1.0 - 1.0 / one_m), 0.0)
        dg = -g / one_m ** 2
        d2g = g / one_m ** 4 - 2.0 * g / one_m ** 3
        eye = np.eye(self.dim)
        outer = d[..., :, None] * d[..., None, :]
        return (4.0 / self.radius ** 4) * d2g[..., None, None] * outer \
            + (2.0 / self.radius ** 2) * dg[..., None, None] * eye


@dataclass(frozen=True)
class PlateauBump:
    """Radial cutoff: 1 on B(center, r_in), quintic decay to 0 at r_out.

    C^2 everywhere; useful when an identity needs a cutoff that is exactly
    one on the support of the field being localized.
    """

    center: np.ndarray
    r_in: float
    r_out: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, float))
        if not 0.0 < self.r_in < self.r_out:
            raise InputError("need 0 < r_in < r_out")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _radial(self, x):
        d = np.asarray(x, float) - self.center
        return np.linalg.norm(d, axis=-1), d

    def _profile(self, r):
        width = self.r_out - self.r_in
        s, ds, d2s = smoothstep((r - self.r_in) / width)
        return 1.0 - s, -(ds / width), -(d2s / width ** 2)

    def value(self, x):
        r, _ = self._radial(x)
        return self._profile(r)[0]

    def gradient(self, x):
        r, d = self._radial(x)
        _, dv, _ = self._profile(r)
        rs = np.maximum(r, 1e-300)
        return (dv / rs)[..., None] * d

    def hessian(self, x):
        r, d = self._radial(x)
        _, dv, d2v = self._profile(r)
        rs = np.maximum(r, 1e-300)
        return radial_hessian(d / rs[..., None], d2v, dv / rs)


@dataclass(frozen=True)
class QuinticBump:
    """C^2 polynomial bump s(1 - r^2/rho^2) with the quintic smoothstep s.

    Cheaper than :class:`SmoothBump` and exactly piecewise polynomial; enough
    regularity for weak formulations requiring C^2 test functions.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, float))
        if self.radius <= 0.0:
            raise InputError("radius must be > 0")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _t(self, x):
        # column by column: numpy loops over a short last axis (broadcast or
        # reduced) are several times slower than over the point axis
        x = np.asarray(x, float)
        d = np.empty_like(x)  # keeps a column-major x's contiguous columns
        for i in range(self.dim):
            np.subtract(x[..., i], self.center[i], out=d[..., i])
        sq = d[..., 0] * d[..., 0]
        for i in range(1, self.dim):
            sq += d[..., i] * d[..., i]
        return 1.0 - sq / self.radius ** 2, d

    def value(self, x):
        t, _ = self._t(x)
        return smoothstep(t, 0)[0]

    def gradient(self, x):
        t, d = self._t(x)
        # s'(t) of the smoothstep alone; smoothstep(t, 1) also forms s
        t = np.clip(t, 0.0, 1.0)
        scale = 30.0 * t * t * (1.0 - t) ** 2 * (-2.0 / self.radius ** 2)
        for i in range(self.dim):
            d[..., i] *= scale
        return d

    def hessian(self, x):
        t, d = self._t(x)
        _, ds, d2s = smoothstep(t)
        eye = np.eye(self.dim)
        outer = d[..., :, None] * d[..., None, :]
        return (4.0 / self.radius ** 4) * d2s[..., None, None] * outer \
            + (-2.0 / self.radius ** 2) * ds[..., None, None] * eye
