"""Regularization toolkit: mollification, proximal map and Moreau-Yosida.

The mollifier kernel is the polynomial bump phi(y) = c_N (1 - |y|^2)^4 on
the unit ball (unit mass), scaled to radius eps.  Convolutions are realized
as a fixed positive quadrature rule (nodes y_k, weights w_k > 0 summing to
one), a product of a Gauss-Jacobi rule in s = |y|^2 and a symmetric
angular rule: 8, 64 and 512 nodes in dimension 1, 2 and 3, integrating
polynomial integrands up to degree 15 exactly against the kernel.  Because
the discrete rule is a convex combination of translates, every pointwise
eigenvalue-ratio bound of D2F transfers verbatim to the mollified Hessian:
lambda_min is concave and lambda_max convex under positive-weight
averaging.

A radial integrand F(z) = f(|z|) (``Integrand.radial``: ``power`` about
the origin, ``uhlenbeck`` and their tilts) mollifies to a radial g(|z|),
whose jet follows from g, g' and g''.  ``mollify`` tabulates those once,
on a 1-D knot sequence graded with eps, each knot a convex combination of
translated jets over a finer 8 x 64 rule (Stroud 1971), and interpolates
them by C^2 quintic Hermite pieces (de Boor 1978).  At a knot, g'' is a
diagonal entry of a convex combination of translated Hessians and g'/r
(g'(0) = 0) the mean of such entries over [0, r], so the ratio bound holds
there up to the fine rule's quadrature error, and between knots up to the
interpolation error as well.  Non-radial integrands (``two_center``,
``gh``, ``mixed``, ``orthotropic``, ``cantor`` and ``moreau_yosida``
results) keep the kernel sweep over the 64 / 512-node rule at every
evaluation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn, roots_jacobi

from ..errors import InputError, NumericError
from ..matrixcore import radial_hessian
from .base import Integrand

_KERNEL_POWER = 4  # exponent in (1 - |y|^2)^4
_SAFE_MIN = 1e-300
_PROX_MAX_ITER = 200  # damped Newton steps of prox_point


def kernel_second_moment(dim: int, eps: float) -> float:
    """Exact int |y|^2 phi_eps(y) dy = eps^2 B(dim/2 + 1, 5) / B(dim/2, 5)."""
    return eps * eps * beta_fn(dim / 2.0 + 1.0, _KERNEL_POWER + 1.0) \
        / beta_fn(dim / 2.0, _KERNEL_POWER + 1.0)


@dataclass(frozen=True)
class MollifierRule:
    """Positive quadrature rule for the unit-ball bump kernel.

    ``nodes``: (M, dim) points in the unit ball, ``weights``: (M,) positive
    weights with sum exactly normalized to 1.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, dim: int, radial: int = 4, angular: int = 16) -> "MollifierRule":
        """Symmetric (dim=1), polar (dim=2) or spherical (dim=3) product rule.

        In s = r^2 the kernel's radial measure r^(dim-1) (1-r^2)^4 dr is
        (1-s)^4 s^(dim/2-1) ds / 2, so the radial factor is Gauss-Jacobi
        in s with ``radial`` nodes, exact for even radial polynomials of
        degree <= 4*radial - 2.  The angular factor (``angular`` equally
        spaced angles; in 3-D also 8 Gauss-Legendre nodes in cos(theta)) is
        exact for spherical harmonics of degree <= 15, and the rule is
        symmetric under y -> -y, so odd moments vanish.  With the defaults
        (4 radial nodes: 8 / 64 / 512 nodes in dim 1 / 2 / 3) every
        polynomial of degree <= 15 is integrated exactly against the kernel.
        Other dimensions raise :class:`InputError`.
        """
        if dim not in (1, 2, 3):
            raise InputError(f"mollifier rule is built for dim 1, 2 or 3, got {dim}")
        x, wr = roots_jacobi(radial, float(_KERNEL_POWER), dim / 2.0 - 1.0)
        r = np.sqrt(0.5 * (x + 1.0))
        if dim == 1:
            dirs, wdir = np.array([[-1.0], [1.0]]), np.ones(2)
        elif dim == 2:
            theta = 2.0 * np.pi * np.arange(angular) / angular
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            wdir = np.ones(angular)
        else:
            mu, wmu = np.polynomial.legendre.leggauss(8)
            phi_ang = 2.0 * np.pi * np.arange(angular) / angular
            sin_t = np.sqrt(1.0 - mu * mu)
            dirs = np.stack([
                np.outer(sin_t, np.cos(phi_ang)),
                np.outer(sin_t, np.sin(phi_ang)),
                np.broadcast_to(mu[:, None], (8, angular)),
            ], axis=-1).reshape(-1, dim)
            wdir = np.broadcast_to(wmu[:, None], (8, angular)).reshape(-1)
        nodes = (r[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
        w = (wr[:, None] * wdir[None, :]).reshape(-1)
        w = w / w.sum()
        return cls(dim=dim, nodes=nodes, weights=w)


_RULES: dict[int, MollifierRule] = {}


def _rule(dim: int) -> MollifierRule:
    if dim not in _RULES:
        _RULES[dim] = MollifierRule.build(dim)
    return _RULES[dim]


# the table's profile rule (512 nodes in 2-D, 4096 in 3-D) and the number of
# points per jet call while filling it
_TABLE_RULE = dict(radial=8, angular=64)
_TABLE_CHUNK = 1 << 16


class _RadialTable:
    """Profile g(r) of F * phi_eps for a radial F, on a graded 1-D table.

    The knots r_0 = 0, r_{j+1} = r_j + max(eps/10, r_j/25) depend on eps
    alone.  At each knot the fine rule gives g = (F * phi_eps)(r e_1),
    g' = e_1 . DF and g'' = e_1^t D2F e_1 (a convex combination of
    translated jets), with g'(0) = 0 by symmetry.  Between knots g is the
    quintic Hermite interpolant of (g, g', g''), a C^2 function of r, and
    the jet of g(|z|) is formed from it.  The table grows along the same
    knot sequence when a point lies past its last knot and never recomputes
    an entry, so a jet value does not depend on the call history.
    """

    def __init__(self, f: Integrand, eps: float):
        self._jet_fn = f.jet_fn
        self._eps = eps
        rule = MollifierRule.build(f.dim, **_TABLE_RULE)
        self._offsets = eps * rule.nodes
        self._weights = rule.weights
        self._lock = threading.Lock()
        # knot profiles (g, g', g''); knots, and per interval the width and
        # the coefficients c_0..c_5 of g in t = (r - r_j)/h_j
        self._profile = np.empty((3, 0))
        self._data = (np.empty(0), np.empty(0), np.empty((6, 0)))

    def _profiles(self, radii: np.ndarray) -> np.ndarray:
        """(g, g', g'') at the given radii, rows in that order."""
        e1 = np.zeros(self._offsets.shape[1])
        e1[0] = 1.0
        step = max(1, _TABLE_CHUNK // len(self._weights))
        out = np.empty((3, len(radii)))
        for lo in range(0, len(radii), step):
            r = radii[lo:lo + step]
            pts = r[:, None, None] * e1 - self._offsets
            val, df, d2f = self._jet_fn(pts, 2)
            # one contiguous row per knot: each sum sees the same numbers in
            # the same order whatever the batch
            out[0, lo:lo + step] = np.sum(val * self._weights, axis=-1)
            out[1, lo:lo + step] = np.sum(df[..., 0] * self._weights, axis=-1)
            out[2, lo:lo + step] = np.sum(d2f[..., 0, 0] * self._weights, axis=-1)
        if not np.all(np.isfinite(out)):
            raise NumericError("mollification produced non-finite values")
        return out

    def _grow(self, reach: float) -> None:
        old_knots, widths, coefs = self._data
        knots = old_knots.tolist() or [0.0]
        while len(knots) < 2 or knots[-1] < reach:
            knots.append(knots[-1] + max(0.1 * self._eps, 0.04 * knots[-1]))
        knots = np.array(knots)
        new = self._profiles(knots[len(old_knots):])
        if len(old_knots) == 0:
            new[1, 0] = 0.0
        profile = np.concatenate([self._profile, new], axis=1)
        # the intervals that end at a new knot
        first = max(len(old_knots) - 1, 0)
        h = np.diff(knots[first:])
        g, dg, d2g = profile[:, first:]
        d0, d1 = h * dg[:-1], h * dg[1:]
        s0, s1 = h * h * d2g[:-1], h * h * d2g[1:]
        c2 = 0.5 * s0
        # the quintic part q(t) = c3 t^3 + c4 t^4 + c5 t^5 meets
        # q(1) = dv, q'(1) = dd and q''(1) = ds
        dv = g[1:] - g[:-1] - d0 - c2
        dd = d1 - d0 - s0
        ds = s1 - s0
        coef = np.stack([g[:-1], d0, c2,
                         10.0 * dv - 4.0 * dd + 0.5 * ds,
                         -15.0 * dv + 7.0 * dd - ds,
                         6.0 * dv - 3.0 * dd + 0.5 * ds])
        self._profile = profile
        self._data = (knots, np.concatenate([widths, h]),
                      np.concatenate([coefs, coef], axis=1))

    def _covering(self, r_max: float) -> tuple:
        """The table's arrays, grown to 2 r_max when r_max lies past them."""
        with self._lock:
            knots = self._data[0]
            if len(knots) < 2 or knots[-1] < r_max:
                self._grow(2.0 * r_max)
            return self._data

    def jet(self, z, order):
        with np.errstate(over="ignore"):
            r = np.linalg.norm(z, axis=-1)
        if not np.all(np.isfinite(r)):
            raise NumericError("mollification produced non-finite values")
        knots, widths, coefs = self._covering(float(np.max(r, initial=0.0)))
        idx = np.minimum(np.searchsorted(knots, r, side="right") - 1, len(widths) - 1)
        h = widths[idx]
        t = (r - knots[idx]) / h
        c0, c1, c2, c3, c4, c5 = (c[idx] for c in coefs)
        out = (c0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5)))),)
        if order == 0:
            return out
        # g'(r)/r; on the first interval c1 = h g'(0) = 0, so it is q/h^2,
        # finite at r = 0 where it equals g''(0)
        q = 2.0 * c2 + t * (3.0 * c3 + t * (4.0 * c4 + t * (5.0 * c5)))
        rs = np.maximum(r, _SAFE_MIN)
        slope = np.where(idx == 0, q / (h * h), (c1 + t * q) / (h * rs))
        out += (slope[..., None] * z,)
        if order == 2:
            second = (2.0 * c2 + t * (6.0 * c3 + t * (12.0 * c4 + t * (20.0 * c5)))) / (h * h)
            out += (radial_hessian(z / rs[..., None], second, slope),)
        return out


def mollify(f: Integrand, eps: float) -> Integrand:
    """Convolution F * phi_eps realized by a positive quadrature rule.

    A radial integrand (``f.radial``: ``power`` about the origin,
    ``uhlenbeck`` and their tilts) mollifies to a radial g(|z|).  Its jet
    comes from a 1-D table of g, g', g'' built once per call of ``mollify``
    with the fine 8 x 64 rule (:class:`_RadialTable`).  Every other
    integrand sums the translated jets over the nodes of the 64 / 512-node
    kernel rule at every evaluation.

    The kernel sweep preserves any declared eigenvalue-ratio bound exactly
    (a convex combination of translated Hessians).  The table's knot values
    are built from such combinations, so it preserves the bound up to the
    fine rule's quadrature error at its knots and up to the interpolation
    error between them.  Either way F * phi_eps converges to F in C^1 on
    compacts as eps -> 0, and a quadratic integrand shifts by the constant
    ``kernel_second_moment(dim, eps) / 2``.
    """
    if eps <= 0.0:
        raise InputError("eps must be > 0")
    if f.radial:
        jet = _RadialTable(f, eps).jet
    else:
        jet = _sweep_jet(f, eps, _rule(f.dim))

    return Integrand(
        name=f"mollified[{f.name},eps={eps:g}]",
        dim=f.dim,
        jet_fn=jet,
        declared_K=f.declared_K,
        minimizer=f.minimizer,
        singular_points=(),
        params=f.params,
    )


def _sweep_jet(f: Integrand, eps: float, rule: MollifierRule):
    offsets = eps * rule.nodes
    weights = rule.weights

    def jet(z, order):
        # one pass over the offsets; each order accumulates in place, in rule order
        out = None
        for y, w in zip(offsets, weights):
            terms = f.jet_fn(z - y, order)
            if out is None:
                out = [w * np.asarray(t, dtype=float) for t in terms]
            else:
                for k, t in enumerate(terms):
                    out[k] += w * t
        if not all(np.all(np.isfinite(acc)) for acc in out):
            raise NumericError("mollification produced non-finite values")
        return tuple(out)

    return jet


def prox_point(f: Integrand, delta: float, z) -> np.ndarray:
    """Solve P + delta DF(P) = z by damped Newton (batched over points).

    The residual target is 1e-12 (1 + |z|) per point, within _PROX_MAX_ITER
    steps.  The map G(P) = P + delta DF(P) is strongly monotone with
    constant 1, so the returned point is within the residual of the exact
    proximal point and the map is 1-Lipschitz in z.
    """
    if delta <= 0.0:
        raise InputError("delta must be > 0")
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = z[None, :] if single else z.reshape(-1, f.dim)
    p = pts.copy()
    target = 1e-12 * (1.0 + np.linalg.norm(pts, axis=1))
    eye = np.eye(f.dim)

    def residual(pcur):
        return pcur + delta * np.asarray(f.gradient(pcur), float) - pts

    res = residual(p)
    res_norm = np.linalg.norm(res, axis=1)
    for _ in range(_PROX_MAX_ITER):
        active = res_norm > target
        if not np.any(active):
            break
        pa = p[active]
        ra = res[active]
        jac = eye + delta * np.asarray(f.hessian(pa), float)
        step = np.linalg.solve(jac, ra[..., None])[..., 0]
        t = np.ones(len(pa))
        cur_norm = res_norm[active]
        for _bt in range(40):
            trial = pa - t[:, None] * step
            rtrial = trial + delta * np.asarray(f.gradient(trial), float) - pts[active]
            ntrial = np.linalg.norm(rtrial, axis=1)
            good = ntrial <= (1.0 - 1e-4 * t) * cur_norm
            if np.all(good):
                break
            t = np.where(good, t, 0.5 * t)
        p[active] = pa - t[:, None] * step
        res = residual(p)
        res_norm = np.linalg.norm(res, axis=1)
    if np.any(res_norm > target):
        raise NumericError(f"prox Newton did not converge ({_PROX_MAX_ITER} iterations, "
                           f"worst residual {float(res_norm.max()):.3e})")
    out = p.reshape(z.shape)
    return out[0] if single and out.ndim == 2 else out


def moreau_yosida(f: Integrand, delta: float) -> Integrand:
    """F_delta(z) = inf_y F(y) + |y-z|^2/(2 delta), wired through the prox.

    Gradient DF_delta(z) = DF(P_delta(z)) = (z - P_delta(z))/delta; Hessian
    D2F(P)(I + delta D2F(P))^-1, whose eigenvalues l/(1 + delta l) preserve
    any declared ratio bound.
    """
    if delta <= 0.0:
        raise InputError("delta must be > 0")
    eye = np.eye(f.dim)

    def jet(z, order):
        p = prox_point(f, delta, z)
        gap = z - p
        base = f.jet(p, 2 if order == 2 else 0)
        out = (np.asarray(base[0], float) + np.sum(gap * gap, axis=-1) / (2.0 * delta),)
        if order >= 1:
            out += (gap / delta,)
        if order == 2:
            b = np.asarray(base[2], float)
            hess = np.linalg.solve(eye + delta * b, b)
            out += (0.5 * (hess + np.swapaxes(hess, -1, -2)),)
        return out

    return Integrand(
        name=f"moreau_yosida[{f.name},delta={delta:g}]",
        dim=f.dim,
        jet_fn=jet,
        declared_K=f.declared_K,
        minimizer=f.minimizer,
        singular_points=(),
        params=f.params,
    )

