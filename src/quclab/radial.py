"""Closed-form radial solver for the p-Laplace problem

    Div(|Du|^(p-2) Du) = f = c r^a  in B_R,      u = 0  on the boundary of B_R,

on the ball B_R about the origin, and the C^{p'} diagnostics.

For radial u(x) = v(|x|) the equation reduces to the flux identity

    r^(N-1) T(r) = int_0^r s^(N-1) f(s) ds,      T = |v'|^(p-2) v',

which integrates exactly for the power sources f = c r^a:

    T = c r^(1+a)/(N+a),      v' = sign(T) |T|^(1/(p-1)),
    v = k (r^b - R^b)/b,      b = (p+a)/(p-1),  k = sign(c) (|c|/(N+a))^(1/(p-1)).

The source needs N + a > 0 (f integrable against r^(N-1)) and p + a > 0
(v bounded at the origin).  For f = 1, b = p' and u attains the exponent p'
exactly; the solver serves as an oracle for the grid solvers.

The stress field is V(x) = (T(|x|)/|x|) x = h x, h = c r^a/(N+a), with the
analytic gradient DV = h I + r h' (x/r)(x/r)^t = T' P + h (I - P),
T' = (1+a) h, which is symmetric: radial stress fields are curl-free.  So
|V| = |h| r, |DV|_F = |h| sqrt(N-1+(1+a)^2) and |f| = (N+a) |h|, each of the
form coef r^g, and every L^m norm on a ball B_rho is a single power:

    (|S^(N-1)| int_0^rho r^(N-1) (coef r^g)^m dr)^(1/m)
        = coef (|S^(N-1)| rho^e / e)^(1/m),      e = N + g m,

finite iff e > 0; for |DV| and f that is N + a m > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma, stdtrit

from .errors import InputError, PreconditionError
from .matrixcore import radial_hessian
from .utils import check_p

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def sphere_area(dim: int) -> float:
    if dim not in _SPHERE_AREA:
        return float(2.0 * np.pi ** (dim / 2.0) / gamma(dim / 2.0))
    return _SPHERE_AREA[dim]


@dataclass(frozen=True)
class RadialProblem:
    """Div(|Du|^(p-2) Du) = c r^a on [0, R], R = r_max, v(R) = 0."""

    dim: int
    p: float
    r_max: float
    c: float
    a: float

    def __post_init__(self):
        check_p(self.p)
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if not 0.0 < self.r_max < np.inf:
            raise InputError("need 0 < r_max < inf")
        if not self.dim + self.a > 0.0:
            raise InputError(f"source r^a is not integrable against r^(N-1): need "
                             f"N + a > 0, got N + a = {self.dim + self.a:g}")
        if not self.p + self.a > 0.0:
            raise InputError(f"v is unbounded at the origin: need p + a > 0, "
                             f"got p + a = {self.p + self.a:g}")
        # log10 of the closed form's largest magnitudes R^(1+a), R^b, T(R), v'(R) =
        # |T(R)|^q, v(0) = -R v'(R)/b (c = 0 counts as 1); 1e300 leaves room for b
        q, log_r = 1.0 / (self.p - 1.0), np.log10(self.r_max)
        log_t = np.log10(abs(self.c) / (self.dim + self.a) or 1.0) + (1.0 + self.a) * log_r
        b = (self.p + self.a) * q
        worst = max((1.0 + self.a) * log_r, b * log_r, log_t, q * log_t,
                    q * log_t + log_r - np.log10(b))
        if worst > 300.0:
            raise InputError(f"the closed form would overflow: a magnitude of 10^{worst:.4g} "
                             f"exceeds the bound 1e300")


@dataclass(frozen=True)
class RadialSolution:
    problem: RadialProblem
    r: np.ndarray
    flux: np.ndarray        # T(r) = |v'|^(p-2) v'
    v_prime: np.ndarray
    v: np.ndarray


def solve_radial(prob: RadialProblem, num: int = 4097) -> RadialSolution:
    """The closed form on num radii from 0 to R, with T(0) = 0."""
    r = np.linspace(0.0, prob.r_max, num)
    n_a, q = prob.dim + prob.a, 1.0 / (prob.p - 1.0)
    flux = np.zeros(num)
    flux[1:] = prob.c * r[1:] ** (1.0 + prob.a) / n_a
    v_prime = np.sign(flux) * np.abs(flux) ** q
    beta = (prob.p + prob.a) * q
    k = np.sign(prob.c) * (abs(prob.c) / n_a) ** q
    v = k * (r ** beta - prob.r_max ** beta) / beta
    return RadialSolution(problem=prob, r=r, flux=flux, v_prime=v_prime, v=v)


def flux_identity_defect(sol: RadialSolution) -> tuple[float, float]:
    """(max_r |r^(N-1) T(r) - int_0^r c s^(N-1+a) ds|, the largest |integral|
    floored at 1) over 33 radii, by an independent re-quadrature; the
    defect over that scale is the identity's relative error."""
    prob = sol.problem
    idx = np.linspace(0, len(sol.r) - 1, 33).astype(int)
    r_checked = sol.r[idx]
    worst, scale = 0.0, 1.0
    integrand = lambda s: prob.c * s ** (prob.dim - 1 + prob.a)
    for r_i, t_i in zip(r_checked, sol.flux[idx]):
        ref, _ = integrate.quad(integrand, 0.0, r_i, epsabs=1e-13, epsrel=1e-12)
        worst = max(worst, abs(r_i ** (prob.dim - 1) * t_i - ref))
        scale = max(scale, abs(ref))
    return worst, scale


# -- gridded stress field ----------------------------------------------------

@dataclass(frozen=True)
class StressGrid:
    values: np.ndarray      # (M, dim), V(x) = h(|x|) x
    gradients: np.ndarray   # (M, dim, dim), analytic DV


def stress_of(prob: RadialProblem, points: np.ndarray) -> StressGrid:
    """V = h x and DV = T' P + h (I - P) in closed form at the points x:
    h = c r^a/(N+a) and T' = (1+a) h at r = |x|, P = (x/r)(x/r)^t."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != prob.dim:
        raise InputError("points dimension mismatch")
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r < 1e-14 * prob.r_max) or np.any(r > prob.r_max + 1e-12):
        raise InputError("points outside the solved radial range")
    h = prob.c * r ** prob.a / (prob.dim + prob.a)
    values = h[..., None] * pts
    gradients = radial_hessian(pts / r[..., None], (1.0 + prob.a) * h, h)
    return StressGrid(values=values, gradients=gradients)


# -- Holder exponent fits ------------------------------------------------------

@dataclass(frozen=True)
class HolderFit:
    exponent: float
    ci95: float
    scales: np.ndarray
    moduli: np.ndarray
    degenerate: bool = False


HOLDER_SCALES = 32  # log2-uniform scales of a Holder fit


def holder_exponent(r: np.ndarray, values: np.ndarray) -> HolderFit:
    """Least-squares slope of log sup-modulus of continuity vs log scale.

    HOLDER_SCALES scales are log2-uniform in the window [grid step, span/8];
    the modulus at scale d is max_i |g(r_i + d) - g(r_i)| over the grid, with
    g(r + d) linearly interpolated.  A window too narrow for them is
    rejected.  A constant input short-circuits to exponent 1 with the
    degenerate flag set.
    """
    r = np.asarray(r, float)
    values = np.asarray(values, float)
    if r.ndim != 1 or r.shape != values.shape:
        raise InputError("need matching 1-D abscissae and values")
    lo, hi = np.min(np.diff(r)), (r[-1] - r[0]) / 8.0
    if hi <= lo:
        raise InputError("empty scale window")
    if hi / lo < 2.0 ** ((HOLDER_SCALES - 1) / 8.0):
        raise PreconditionError(
            f"window [{lo:g}, {hi:g}] cannot host {HOLDER_SCALES} log2-uniform scales")
    scales = np.exp2(np.linspace(np.log2(lo), np.log2(hi), HOLDER_SCALES))
    moduli = np.empty(HOLDER_SCALES)
    for i, d in enumerate(scales):
        mask = r + d <= r[-1] + 1e-15
        shifted = np.interp(r[mask] + d, r, values)
        moduli[i] = np.max(np.abs(shifted - values[mask]))
    if np.max(moduli) <= 1e-300:
        return HolderFit(exponent=1.0, ci95=0.0, scales=scales, moduli=moduli,
                         degenerate=True)
    # the least-squares slope and its standard error, as scipy.stats.linregress
    # forms them (r clipped to [-1, 1] against roundoff)
    (sxx, sxy), (_, syy) = np.cov(np.log(scales), np.log(np.maximum(moduli, 1e-300)),
                                  bias=1)
    r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0) if syy > 0.0 else 0.0
    stderr = np.sqrt((1.0 - r**2) * syy / sxx / (HOLDER_SCALES - 2))
    tval = stdtrit(HOLDER_SCALES - 2, 0.975)
    return HolderFit(exponent=float(sxy / sxx), ci95=float(tval * stderr),
                     scales=scales, moduli=moduli)


# -- localized Sobolev norms of the radial stress ------------------------------

def _power_lm_norm(prob: RadialProblem, coef: float, g: float, m: float,
                   radius: float) -> float:
    """(|S^(N-1)| int_0^radius r^(N-1) (coef r^g)^m dr)^(1/m), coef >= 0, formed
    in logs so that a large m does not overflow."""
    if not m > 0.0:
        raise InputError("m must be > 0")
    e = prob.dim + g * m
    if not e > 0.0:
        raise InputError(f"the L^{m:g} norm diverges at the origin: need N + a m > 0, "
                         f"got N + a m = {prob.dim + prob.a * m:g}")
    log_integral = np.log(sphere_area(prob.dim) / e) + e * np.log(radius)
    worst = (log_integral / m + np.log(coef or 1.0)) / np.log(10.0)  # c = 0 counts as 1
    if worst > 300.0:
        raise InputError(f"the L^{m:g} norm would overflow: a magnitude of 10^{worst:.4g} "
                         f"exceeds the bound 1e300")
    return float(coef * np.exp(log_integral / m))


def stress_wm_norm(prob: RadialProblem, m: float, radius: float) -> dict:
    """||V||_{W^{1,m}(B_radius)} in closed form: |V| = |h| r and
    |DV|_F = |h| sqrt(N-1+(1+a)^2), |h| = |c| r^a/(N+a)."""
    k = abs(prob.c) / (prob.dim + prob.a)
    lm = _power_lm_norm(prob, k, 1.0 + prob.a, m, radius)
    sem = _power_lm_norm(prob, k * np.sqrt(prob.dim - 1.0 + (1.0 + prob.a) ** 2),
                         prob.a, m, radius)
    top = max(lm, sem) or 1.0
    return {"lm": lm, "seminorm": sem,
            "w1m": float(top * ((lm / top) ** m + (sem / top) ** m) ** (1.0 / m))}


def source_lm_norm(prob: RadialProblem, m: float, radius: float) -> float:
    """||f||_{L^m(B_radius)} in closed form, |f| = |c| r^a."""
    return _power_lm_norm(prob, abs(prob.c), prob.a, m, radius)


@dataclass(frozen=True)
class CpPrimeReport:
    p: float
    p_prime: float
    m: float
    stress_w1m: float
    rhs_norms: dict
    ratio: float
    gradient_exponent: float
    solution_exponent: float
    target: float
    meets_target: bool


def cp_prime_verify(p: float, m: float, dim: int = 2, a: float = 0.0,
                    num: int = 8193) -> CpPrimeReport:
    """Solve the radial p-Poisson problem with source f = r^a on the unit
    ball B_R, R = 1, and measure the C^{p'} diagnostics.

    Computes ||V||_{W^{1,m}(B_{R/2})} and the right-hand-side norms
    ||f||_{L^m(B_R)} + ||V||_{L^1(B_R)} in closed form, and the fitted Holder
    exponent of v'; asserts 1 + exponent(Du) >= min{p', 2} - 0.1 for bounded
    sources.  num sets only the sampled profile v' and so the Holder fit.
    """
    prob = RadialProblem(dim=dim, p=p, r_max=1.0, c=1.0, a=a)
    norms = stress_wm_norm(prob, m, 0.5)
    f_norm = source_lm_norm(prob, m, 1.0)
    v_l1 = stress_wm_norm(prob, 1.0, 1.0)["lm"]
    ratio = norms["w1m"] / max(f_norm + v_l1, 1e-300)
    sol = solve_radial(prob, num=num)
    fit = holder_exponent(sol.r, sol.v_prime)
    p_prime = p / (p - 1.0)
    grad_expo = min(fit.exponent, 1.0)
    sol_expo = 1.0 + grad_expo
    target = min(p_prime, 2.0) - 0.1
    return CpPrimeReport(p=p, p_prime=p_prime, m=m, stress_w1m=norms["w1m"],
                         rhs_norms={"f_lm": f_norm, "v_l1": v_l1},
                         ratio=float(ratio), gradient_exponent=float(grad_expo),
                         solution_exponent=float(sol_expo), target=float(target),
                         meets_target=bool(sol_expo >= target))


# -- admissibility arithmetic ---------------------------------------------------

@dataclass(frozen=True)
class AlphaPReport:
    dim: int
    p: float
    m_p: float          # inf at p = 2
    alpha_p: float
    admissible: bool
    m_p_above_dim: bool
    cordes_margin: float  # sqrt(2) N^2 (m_p - 1)(1 - 1/K_p), < 1 when admissible


def alpha_p(dim: int, p: float) -> AlphaPReport:
    """Exponent table for the p-Laplacian near p = 2.

    m_p = 1/(2 N^2 |p-2|); admissible iff |p-2| < 1/(2 N^3); Holder exponent
    alpha_p = (1 - 2 N^3 (p-2))/(p-1) for p >= 2 and 1 - 2 N^3 (2-p) below.
    """
    if dim < 2:
        raise InputError("dim must be >= 2")
    check_p(p)
    gap = abs(p - 2.0)
    admissible = gap < 1.0 / (2.0 * dim ** 3)
    m_p = np.inf if gap == 0.0 else 1.0 / (2.0 * dim ** 2 * gap)
    if p >= 2.0:
        alpha = (1.0 - 2.0 * dim ** 3 * (p - 2.0)) / (p - 1.0)
    else:
        alpha = 1.0 - 2.0 * dim ** 3 * (2.0 - p)
    k_p = max(p - 1.0, 1.0 / (p - 1.0))
    if np.isinf(m_p):
        margin = 0.0
    else:
        margin = np.sqrt(2.0) * dim ** 2 * (m_p - 1.0) * (1.0 - 1.0 / k_p)
    return AlphaPReport(dim=dim, p=p, m_p=float(m_p), alpha_p=float(alpha),
                        admissible=bool(admissible),
                        m_p_above_dim=bool(m_p > dim),
                        cordes_margin=float(margin))
