"""Executable counterexamples: the arctan solution and the Cantor stress.

On any ball B inside the right half-plane, u(x, y) = arctan(y/x) solves
Div(DF(Du)) = 0 weakly for every radial C^2 integrand F: the product
D2F(Du) D2u has zero trace pointwise.  Instantiated with the Cantor
integrand F(t) = t^2/2 + H_L(t) this produces the stress field

    V_L(z) = z_perp/|z|^2 + h_L(1/|z|) z_perp/|z|,

whose level-L eigenvalue-ratio bound degrades like (3/2)^L while the limit
field's distributional derivative develops a purely singular (Cantor) part:
the almost-everywhere ratio bound alone does not yield a Sobolev stress.
The smooth part Du = z_perp/|z|^2 is the control column of the blow-up
table, and the weak residuals pair V_L with ``QuinticBump`` test functions.

``cantor_stress_fields(levels)`` evaluates every level at once: r, 1/r and
1/r^2 are formed once, and ``cantorfn.h_levels`` looks up a finer level
only where the coarser one leaves a ramp or lies within a few ulps of a
gap's end (on a gap, every finer h_L has the same dyadic value), so each
row equals the one-level stack bit for bit.  The blow-up table evaluates
the control and every level in one such stack, one grid chunk per ``map``
task, and each task returns only its chunk's sums and maxima.

Numerical caveat recorded here for honesty: fields of the form psi(|z|)
z_perp are tangential to circles and hence weakly divergence-free for any
bounded radial profile, so the weak residual is zero at every level rather
than an O(2^-L) quantity.  V.Dphi = psi(r) d_theta phi, and the polar rule
of ``weak_divergence_residuals`` integrates d_theta phi over each circle's
arc, at whose ends phi vanishes, so the measured residual is round-off
(about 1e-16) whatever the kinks of h_L.  Since h_L(1/r) is monotone along
rays, the L^1 difference quotients of V_L telescope to a level-independent
total-variation value instead of blowing up.  The m > 1 quotient columns
are the honest finite-level witnesses of the forming singular part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .cantorfn import cantor_profile, h_levels
from .errors import InputError, NumericError
from .utils import strict_int


# -- the arctan solution -------------------------------------------------------

def arctan_value(z):
    z = np.asarray(z, float)
    return np.arctan2(z[..., 1], z[..., 0])


def arctan_gradient(z):
    """Du = z_perp / |z|^2 for u = arctan(y/x), column by column."""
    z = np.asarray(z, float)
    x, y = z[..., 0], z[..., 1]
    r2 = x * x
    r2 += y * y
    out = np.empty_like(z)  # keeps a column-major z's contiguous columns
    np.divide(np.negative(y, out=out[..., 0]), r2, out=out[..., 0])
    np.divide(x, r2, out=out[..., 1])
    return out


# -- the Cantor stress ---------------------------------------------------------

def _cantor_stress(profiles, z):
    """V_L(z) of each profile as a (k, M, 2) array whose components are contiguous."""
    z = np.asarray(z, float)
    x, y = z.reshape(-1, 2).T  # a view for (M, 2) points
    if np.any(x <= 0.0):
        raise InputError("points must lie in the right half-plane {x > 0}")
    # 1/r^2 + h(1/r)/r, in place: fresh arrays of the point count cost more
    # than the arithmetic; tmp holds 1/r, then 1/r^2, then -y
    r = x * x
    r += y * y
    np.sqrt(r, out=r)
    tmp = np.divide(1.0, r)
    scalar = h_levels(profiles, tmp)
    scalar /= r
    np.multiply(r, r, out=tmp)
    scalar += np.divide(1.0, tmp, out=tmp)
    out = np.empty((len(profiles), 2, len(r)))
    np.multiply(scalar, np.negative(y, out=tmp), out=out[:, 0])
    np.multiply(scalar, x, out=out[:, 1])
    return out.swapaxes(1, 2).reshape((len(profiles),) + z.shape)


def cantor_stress_fields(levels) -> Callable[[np.ndarray], np.ndarray]:
    """Batched evaluator of V_L(z) = z_perp/|z|^2 + h_L(1/|z|) z_perp/|z| for
    every level at once: (M, 2) points give a (k, M, 2) array.

    r, 1/r and 1/r^2 are formed once for all levels, and ``h_levels`` looks
    up the finer levels only where the coarser ones leave a ramp; row i is
    ``cantor_stress_fields([levels[i]])`` bit for bit.
    """
    profiles = [cantor_profile(level) for level in check_levels(levels)]
    return partial(_cantor_stress, profiles)


# The ball B inside {x > 0} of the weak residuals and the blow-up table.
BALL_CENTER, BALL_RADIUS = (1.5, 0.0), 0.4


@dataclass(frozen=True)
class QuinticBump:
    """C^2 test function s(1 - |x - center|^2/radius^2) of the weak
    residuals, with the quintic smoothstep s(t) = t^3 (10 - 15 t + 6 t^2)
    of t clipped to [0, 1]; zero outside the ball, exactly piecewise
    polynomial."""

    center: np.ndarray
    radius: float

    def _t(self, x):
        # column by column: numpy loops over a short last axis (broadcast or
        # reduced) are several times slower than over the point axis
        x = np.asarray(x, float)
        d = np.empty_like(x)  # keeps a column-major x's contiguous columns
        for i in range(len(self.center)):
            np.subtract(x[..., i], self.center[i], out=d[..., i])
        sq = d[..., 0] * d[..., 0]
        for i in range(1, len(self.center)):
            sq += d[..., i] * d[..., i]
        return np.clip(1.0 - sq / self.radius ** 2, 0.0, 1.0), d

    def value(self, x):
        t, _ = self._t(x)
        return t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)

    def gradient(self, x):
        t, d = self._t(x)
        scale = 30.0 * t * t * (1.0 - t) ** 2 * (-2.0 / self.radius ** 2)
        for i in range(len(self.center)):
            d[..., i] *= scale
        return d


def _bump_bank(count: int, seed: int):
    rng = np.random.default_rng(seed)
    c = np.asarray(BALL_CENTER, float)
    bumps = []
    while len(bumps) < count:
        offset = rng.uniform(-0.6, 0.6, size=2) * BALL_RADIUS
        rho = rng.uniform(0.2, 0.38) * BALL_RADIUS
        if np.linalg.norm(offset) + rho < 0.97 * BALL_RADIUS:
            bumps.append(QuinticBump(center=c + offset, radius=rho))
    return bumps


# (r, theta) node counts of the polar rule and of the coarser rule whose
# difference from it bounds the quadrature error
_POLAR_ORDERS = ((64, 32), (48, 24))
_POLAR_NODES = sum(n_r * n_t for n_r, n_t in _POLAR_ORDERS)  # per bump, both rules


@dataclass(frozen=True)
class WeakResiduals:
    residuals: list[float]  # per field: max over bumps of |int (V, Dphi)| / ||Dphi||_1
    bounds: list[float]     # per field: max over bumps of |I_64x32 - I_48x24| / ||Dphi||_1
    nodes: int              # quadrature nodes, both rules, summed over the bumps


@cache
def _gauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(n)


def _polar_rule(dist, phase, rho, n_r, n_t):
    """(2, M) points and (M,) weights of the n_r x n_t Gauss product rule in
    polar coordinates about the origin over the disk B(dist e^{i phase},
    rho), dist > rho: Gauss-Legendre in r on [dist - rho, dist + rho] and,
    on each circle, in theta on the disk's arc phase +- alpha(r)."""
    (x_r, w_r), (x_t, w_t) = _gauss(n_r), _gauss(n_t)
    r = dist + rho * x_r
    cos_alpha = (r * r + (dist * dist - rho * rho)) / (2.0 * dist * r)
    alpha = np.arccos(np.clip(cos_alpha, -1.0, 1.0))
    theta = phase + alpha[:, None] * x_t
    pts = np.stack([r[:, None] * np.cos(theta), r[:, None] * np.sin(theta)])
    return pts.reshape(2, -1), np.outer(rho * w_r * r * alpha, w_t).ravel()


def _weak_pairings(fields, bump):
    """(k,) integrals of (V, Dphi) over the bump's disk, for each field V of
    the stack, on the 64 x 32 polar rule, and (k,) their distances from the
    48 x 24 rule's.

    V.Dphi = psi(r) d_theta phi for a field psi(|z|) z_perp, and phi
    vanishes at both ends of each circle's arc, so the theta rule integrates
    it to round-off whatever the kinks of psi.  InputError unless the disk
    excludes the origin (the arc is one interval only then); NumericError
    unless the integrals and distances are finite.
    """
    (cx, cy), rho = bump.center, bump.radius
    dist = float(np.hypot(cx, cy))
    if not dist > rho:
        raise InputError(f"the polar rule needs a bump disk that excludes the origin: "
                         f"|center| = {dist!r}, radius = {rho!r}")
    rules = [_polar_rule(dist, float(np.arctan2(cy, cx)), rho, *orders)
             for orders in _POLAR_ORDERS]
    # (M, 2) points with contiguous columns: the fields and the bump work
    # column by column
    pts = np.concatenate([p for p, _ in rules], axis=1).T
    g, v = bump.gradient(pts), fields(pts)
    pairing, other = v[..., 0], v[..., 1]
    pairing *= g[:, 0]
    other *= g[:, 1]
    pairing += other
    # einsum, not a BLAS dot, so the sums ignore the BLAS thread count
    split = len(rules[0][1])
    fine = np.einsum("km,m->k", pairing[:, :split], rules[0][1])
    bound = np.abs(fine - np.einsum("km,m->k", pairing[:, split:], rules[1][1]))
    if not (np.all(np.isfinite(fine)) and np.all(np.isfinite(bound))):
        raise NumericError(f"non-finite weak pairing on the bump at {bump.center.tolist()} "
                           f"of radius {rho!r}")
    return fine, bound


def weak_divergence_residuals(fields, n_bumps: int = 50, seed: int = 0,
                              map=map) -> WeakResiduals:
    """Per field of a stack, max over C^2 bumps phi in the ball
    B(BALL_CENTER, BALL_RADIUS) of |int (V, Dphi)| / ||Dphi||_1.

    ``fields`` maps (M, 2) points to a new (k, M, 2) stack of k fields, as
    ``cantor_stress_fields`` does; the pairings overwrite that array.  Each
    bump integrates every field's pairing on one polar Gauss rule about the
    origin (``_weak_pairings``), and its bound is the distance from a
    coarser rule's.  phi is radial and decreasing, so ||Dphi||_1 = 2 pi
    int_0^rho phi = 320 pi rho / 231.  The bumps are independent tasks
    handed to ``map`` (utils.pool_map runs them in parallel); the
    result does not depend on its schedule.
    """
    def per_bump(bump):
        value, bound = _weak_pairings(fields, bump)
        den = 320.0 * np.pi * bump.radius / 231.0
        return np.abs(value) / den, bound / den

    ratios, bounds = zip(*map(per_bump, _bump_bank(n_bumps, seed)))
    return WeakResiduals(np.max(ratios, axis=0).tolist(), np.max(bounds, axis=0).tolist(),
                         _POLAR_NODES * n_bumps)


# -- finite-level Sobolev diagnostics -------------------------------------------

_GRID_CHUNK = 1 << 14  # grid points per task of the blow-up table


@dataclass(frozen=True)
class BlowupRow:
    level: int
    w11_quotient: float      # sup_e int_B |V(x+de) - V(x)|/d dx  (bounded: see module doc)
    sup_quotient: float      # max_x |V(x+de) - V(x)|/d   (resolves (3/2)^L while d ~ 3^-L)
    l15_quotient: float      # m = 1.5 difference-quotient seminorm (grows with L)
    control_w11: float       # same W^{1,1} diagnostic for the smooth part


def check_levels(levels) -> list[int]:
    """Integral levels as ints; InputError unless non-empty and increasing."""
    levels = [strict_int(l, "level") for l in levels]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise InputError("levels must be non-empty and strictly increasing")
    return levels


def check_n_grid(n_grid) -> int:
    """Integral n_grid as an int; InputError unless its grid meets the ball.

    The table keeps the grid points within R - 2 delta of the center, with
    delta = 2R/n_grid.  The nearest grid point lies at 0 (odd n_grid) or at
    delta/sqrt(2) (even n_grid), so for every R some point is kept exactly
    when n_grid >= 5.
    """
    n_grid = strict_int(n_grid, "n_grid")
    if n_grid < 5:
        raise InputError(f"n_grid must be >= 5 to put a grid point in the ball, "
                         f"got {n_grid}")
    return n_grid


def sobolev_blowup_diagnostic(levels, n_grid: int = 1024, map=map) -> list[BlowupRow]:
    """Difference-quotient table at matched resolution across levels, on the
    ball B(BALL_CENTER, BALL_RADIUS).

    The grid step delta = (2 BALL_RADIUS)/n_grid is the quotient scale; the
    four lattice directions (axes and diagonals) are scanned and the worst
    taken.  See the module docstring for why the W^{1,1} column saturates at
    the total-variation value while the m > 1 columns grow.  Each grid chunk
    is one ``map`` task, which returns only its partial sums and maxima.
    """
    levels = check_levels(levels)
    n_grid = check_n_grid(n_grid)
    c = np.asarray(BALL_CENTER, float)
    delta = 2.0 * BALL_RADIUS / n_grid
    axis = np.linspace(-BALL_RADIUS, BALL_RADIUS, n_grid, endpoint=False) + delta / 2.0
    xs, ys = c[0] + axis, c[1] + axis
    # the in-ball points of the n_grid^2 grid, row by row in meshgrid "ij"
    # order; sqrt(dx^2 + dy^2) is np.linalg.norm(pt - c) bit for bit, so the
    # boundary rows keep exactly the same points
    dx, dy = xs - c[0], ys - c[1]
    dx2, dy2 = dx * dx, dy * dy
    limit = BALL_RADIUS - 2.0 * delta
    cols = [ys[np.sqrt(sq + dy2) <= limit] for sq in dx2]
    counts = [len(col) for col in cols]
    # each coordinate contiguous, like the fields' outputs; pts + e keeps
    # that layout, so every step's arithmetic runs contiguous
    pts = np.empty((2, sum(counts))).T
    np.concatenate(cols, out=pts[:, 1])
    del cols  # before np.repeat's temporary, to keep the peak low
    pts[:, 0] = np.repeat(xs, counts)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0],
                     [1.0, 1.0], [1.0, -1.0]])
    dirs = delta * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    area = delta * delta
    fields = cantor_stress_fields(levels)

    def stack(z):
        # the control as row 0 and every level below it, each component contiguous
        out = np.empty((len(levels) + 1, 2, len(z))).transpose(0, 2, 1)
        out[0], out[1:] = arctan_gradient(z), fields(z)
        return out

    def chunk_stats(z):
        # per direction: the sum, the max and the 1.5-power sum, per row, of
        # |V(x + e) - V(x)|/delta over the chunk's points
        base, stats = stack(z), []
        for e in dirs:
            step = stack(z + e)
            step -= base
            # np.linalg.norm(step, axis=-1) bit for bit, in place, and faster
            step *= step
            diff = step[..., 0]
            diff += step[..., 1]
            np.sqrt(diff, out=diff)
            diff /= delta
            stats.append([diff.sum(axis=1), diff.max(axis=1), (diff ** 1.5).sum(axis=1)])
        return stats

    # (chunk, direction, statistic, row); the partials are added in chunk
    # order, so no schedule moves them
    chunks = (pts[lo:lo + _GRID_CHUNK] for lo in range(0, len(pts), _GRID_CHUNK))
    parts = np.array(list(map(chunk_stats, chunks)))
    sums = parts[:, :, 0::2].sum(axis=0) * area  # (direction, W^{1,1} | 1.5-power, row)
    w11, sup_q = sums[:, 0].max(axis=0), parts[:, :, 1].max(axis=(0, 1))
    l15 = [max(float(s) ** (1.0 / 1.5) for s in col) for col in sums[:, 1].T]
    return [BlowupRow(level=level, w11_quotient=float(w11[i]), sup_quotient=float(sup_q[i]),
                      l15_quotient=l15[i], control_w11=float(w11[0]))
            for i, level in enumerate(levels, start=1)]
