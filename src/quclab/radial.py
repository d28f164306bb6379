"""Closed-form-accurate radial solver for the p-Laplace problem

    Div(|Du|^(p-2) Du) = f  in B_R,      u = 0  on the boundary of B_R,

on the ball B_R about the origin, and the C^{p'} diagnostics.

For radial u(x) = v(|x|) the equation reduces to the flux identity

    r^(N-1) T(r) = int_0^r s^(N-1) f(s) ds,      T = |v'|^(p-2) v'.

The integral takes adaptive Gauss-Kronrod panels on all grid segments at
once and the flux is inverted in closed form, v' = sign(T) |T|^(1/(p-1)),
so the solver is exact up to 1-D quadrature tolerances and serves as an
oracle for the grid solvers.

The stress field is V(x) = (T(|x|)/|x|) x with the analytic gradient
DV = h I + r h' (x/r)(x/r)^t, h = T/r, which is symmetric: radial stress
fields are curl-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, stats

from .errors import InputError, NumericError, PreconditionError
from .matrixcore import radial_hessian
from .utils import check_p

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def sphere_area(dim: int) -> float:
    if dim not in _SPHERE_AREA:
        from scipy.special import gamma
        return float(2.0 * np.pi ** (dim / 2.0) / gamma(dim / 2.0))
    return _SPHERE_AREA[dim]


@dataclass(frozen=True)
class RadialProblem:
    """Div(|Du|^(p-2) Du) = f with radial data on [0, R], v(R) = 0."""

    dim: int
    p: float
    source: Callable[[np.ndarray], np.ndarray]
    r_max: float

    def __post_init__(self):
        check_p(self.p)
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if not 0.0 < self.r_max < np.inf:
            raise InputError("need 0 < r_max < inf")


@dataclass(frozen=True)
class RadialSolution:
    problem: RadialProblem
    r: np.ndarray
    flux: np.ndarray        # T(r) = |v'|^(p-2) v'
    v_prime: np.ndarray
    v: np.ndarray
    flux_prime: np.ndarray = field(repr=False, default=None)


# QUADPACK's 15-point Kronrod rule on [-1, 1], nodes (first row) and weights
# from -1 to 0, mirrored; its embedded 7-point Gauss rule uses every other node
_K15 = np.array([
    [0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
     0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0],
    [0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
     0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782]])
_XK, _WK = np.r_[-_K15[0], _K15[0, -2::-1]], np.r_[_K15[1], _K15[1, -2::-1]]
_WG = np.zeros(15)
_WG[1::2] = np.polynomial.legendre.leggauss(7)[1]


def _source_on(prob: RadialProblem, s: np.ndarray) -> np.ndarray:
    """f(s) as a float array shaped like s; a source may return a scalar."""
    return np.broadcast_to(np.asarray(prob.source(s.ravel()), float), s.size).reshape(s.shape)


def _cumulative_source_integral(prob: RadialProblem, r: np.ndarray) -> np.ndarray:
    """int_0^{r_i} s^(N-1) f(s) ds on the increasing grid r, r[0] = 0.

    Each level puts the Kronrod and Gauss rules on all open panels, with one
    source call per 1024 panels; a panel's tolerance is 1e-12 of its
    int |s^(N-1) f|.  A segment is done when its panels' rule differences add
    up to their tolerances, else its panels that miss their own are bisected.
    """
    lo, hi = r[:-1], r[1:]
    n = len(lo)
    seg = np.arange(n)
    value, slack = np.zeros(n), np.zeros(n)  # over the accepted panels
    for _ in range(100):
        half = 0.5 * (hi - lo)
        rules = np.empty((3, len(lo)))
        for b in range(0, len(lo), 1024):  # bounds the temporaries
            blk = slice(b, b + 1024)
            s = (lo[blk] + half[blk])[:, None] + half[blk, None] * _XK
            f = s ** (prob.dim - 1) * _source_on(prob, s)
            rules[:, blk] = np.array([f @ _WK, f @ _WG, np.abs(f) @ _WK]) * half[blk]
        kronrod, err, tol = rules[0], np.abs(rules[0] - rules[1]), 1e-12 * rules[2]
        if not np.all(np.isfinite(err)):
            raise InputError("source is not integrable against r^(N-1)")
        # the sum test ends the bisection at an integrable endpoint singularity
        done = (np.bincount(seg, err - tol, minlength=n) <= slack)[seg] | (err <= tol)
        value += np.bincount(seg[done], kronrod[done], minlength=n)
        slack += np.bincount(seg[done], (tol - err)[done], minlength=n)
        if done.all():
            return np.r_[0.0, np.cumsum(value)]
        lo, hi, seg = lo[~done], hi[~done], seg[~done]
        mid = 0.5 * (lo + hi)
        lo, hi, seg = np.r_[lo, mid], np.r_[mid, hi], np.r_[seg, seg]
    raise NumericError("source integral not converged after 100 bisections")


def solve_radial(prob: RadialProblem, num: int = 4097) -> RadialSolution:
    """Flux quadrature + closed-form inversion + cumulative integration of v'."""
    r = np.linspace(0.0, prob.r_max, num)
    src_int = _cumulative_source_integral(prob, r)
    flux = src_int / np.where(r > 0.0, r ** (prob.dim - 1), np.inf)
    v_prime = np.sign(flux) * np.abs(flux) ** (1.0 / (prob.p - 1.0))
    v_rel = integrate.cumulative_simpson(v_prime, x=r, initial=0.0)
    v = v_rel - v_rel[-1]
    f_vals = _source_on(prob, r)
    with np.errstate(invalid="ignore"):
        flux_prime = f_vals - (prob.dim - 1) * flux / np.where(r > 0.0, r, np.inf)
    flux_prime[0] = f_vals[0] / prob.dim
    return RadialSolution(problem=prob, r=r, flux=flux, v_prime=v_prime,
                          v=v, flux_prime=flux_prime)


def flux_identity_defect(sol: RadialSolution) -> float:
    """max_r |r^(N-1) T(r) - int_0^r s^(N-1) f ds| (independent re-quadrature)."""
    prob = sol.problem
    idx = np.linspace(0, len(sol.r) - 1, 33).astype(int)
    r_checked = sol.r[idx]
    worst = 0.0
    integrand = lambda s: s ** (prob.dim - 1) * float(prob.source(np.asarray(s)))
    for r_i, t_i in zip(r_checked, sol.flux[idx]):
        ref, _ = integrate.quad(integrand, 0.0, r_i, epsabs=1e-13, epsrel=1e-12)
        worst = max(worst, abs(r_i ** (prob.dim - 1) * t_i - ref))
    return worst


# -- gridded stress field ----------------------------------------------------

@dataclass(frozen=True)
class StressGrid:
    points: np.ndarray      # (M, dim)
    values: np.ndarray      # (M, dim), V(x) = h(|x|) x
    gradients: np.ndarray   # (M, dim, dim), analytic DV


def stress_of(sol: RadialSolution, points: np.ndarray) -> StressGrid:
    """V = T(r) unit and its analytic gradient DV = T' P + (T/r)(I - P).

    P = unit unit^t and T' = f - (N-1) T / r from the flux differential
    identity; this equals h I + r h' P with h = T/r.
    """
    pts = np.asarray(points, dtype=float)
    dim = sol.problem.dim
    if pts.shape[-1] != dim:
        raise InputError("points dimension mismatch")
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r < 1e-14 * sol.problem.r_max) or np.any(r > sol.problem.r_max + 1e-12):
        raise InputError("points outside the solved radial range")
    t_prime = np.interp(r, sol.r, sol.flux_prime)
    h = np.interp(r, sol.r, sol.flux) / r
    values = h[..., None] * pts
    gradients = radial_hessian(pts / r[..., None], t_prime, h)
    return StressGrid(points=pts, values=values, gradients=gradients)


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
    res = stats.linregress(np.log(scales), np.log(np.maximum(moduli, 1e-300)))
    tval = stats.t.ppf(0.975, HOLDER_SCALES - 2)
    return HolderFit(exponent=float(res.slope), ci95=float(tval * res.stderr),
                     scales=scales, moduli=moduli)


# -- localized Sobolev norms of the radial stress ------------------------------

def stress_wm_norm(sol: RadialSolution, m: float, r_lo: float, r_hi: float) -> dict:
    """||V||_{W^{1,m}} on the annulus/ball {r_lo <= |x| <= r_hi} by radial
    quadrature: |V| = |T| and |DV|_F^2 = (N-1) h^2 + (T')^2."""
    if m <= 0.0:
        raise InputError("m must be > 0")
    prob = sol.problem
    area = sphere_area(prob.dim)
    mask = (sol.r >= r_lo) & (sol.r <= r_hi)
    r = sol.r[mask]
    if len(r) < 8:
        raise InputError("radial window too thin for quadrature")
    t_flux = sol.flux[mask]
    t_prime = sol.flux_prime[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(r > 0, t_flux / r, t_prime)
    dv_frob = np.sqrt((prob.dim - 1) * h * h + t_prime * t_prime)
    w = r ** (prob.dim - 1)
    lm = (area * integrate.simpson(np.abs(t_flux) ** m * w, x=r)) ** (1.0 / m)
    sem = (area * integrate.simpson(dv_frob ** m * w, x=r)) ** (1.0 / m)
    return {"lm": float(lm), "seminorm": float(sem),
            "w1m": float((lm ** m + sem ** m) ** (1.0 / m))}


def source_lm_norm(prob: RadialProblem, m: float, r_lo: float, r_hi: float) -> float:
    """||f||_{L^m} on {r_lo <= |x| <= r_hi} by Simpson's rule on 2049 radii."""
    r = np.linspace(max(r_lo, 0.0), min(r_hi, prob.r_max), 2049)
    f_vals = _source_on(prob, r)
    area = sphere_area(prob.dim)
    return float((area * integrate.simpson(np.abs(f_vals) ** m * r ** (prob.dim - 1), x=r))
                 ** (1.0 / m))


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


def cp_prime_verify(p: float, f_source, m: float, dim: int = 2,
                    num: int = 8193) -> CpPrimeReport:
    """Solve the radial p-Poisson problem on the unit ball B_R, R = 1, and
    measure the C^{p'} diagnostics.

    Computes ||V||_{W^{1,m}(B_{R/2})} from the analytic DV formula, the
    right-hand-side norms ||f||_{L^m(B_R)} + ||V||_{L^1(B_R)}, and the fitted
    Holder exponent of v'; asserts 1 + exponent(Du) >= min{p', 2} - 0.1 for
    bounded sources.
    """
    prob = RadialProblem(dim=dim, p=p, source=f_source, r_max=1.0)
    sol = solve_radial(prob, num=num)
    norms = stress_wm_norm(sol, m, 0.0, 0.5)
    f_norm = source_lm_norm(prob, m, 0.0, 1.0)
    v_l1 = stress_wm_norm(sol, 1.0, 0.0, 1.0)["lm"]
    ratio = norms["w1m"] / max(f_norm + v_l1, 1e-300)
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
