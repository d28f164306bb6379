"""Pointwise matrix kernel for curl reabsorption.

For X = P S with P symmetric positive definite and S symmetric, the skew
part of X is controlled by

    |X - X^t|_F^2  <=  2 * phi(lmin/lmax) * |X|_F^2,
    phi(t) = (1 - t)^2 / (1 + t^2),

where lmin, lmax are the extreme eigenvalues of P.  This module provides
the scalar ingredients (phi, skew defect, eigenvalue summaries), a dense
per-pair verifier (LAPACK ``eigvalsh``) and the mass trial of the
certification run, which evaluates the bound in closed form in P's eigenbasis.

All matrix norms are Frobenius norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError

# Relative floor under which the smallest eigenvalue is treated as zero and
# the eigenvalue ratio is reported as unbounded instead of raising.
SPD_RTOL = 1e-12

# Absolute symmetry tolerance for inputs declared symmetric.
SYMMETRY_ATOL = 1e-14

# Relative slack of the skew-defect bound checks.
SKEW_RTOL = 1e-10

# Entries of S per chunk of the mass trial, so that its memory is bounded at any dim.
_CHUNK_ENTRIES = 2**20


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a matrix (or batch, reduced over the last two axes)."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


def check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix has non-finite entries")
    return a


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a; InputError beyond SYMMETRY_ATOL max(1, max |a_ij|)."""
    a = check_square(a)
    defect = np.max(np.abs(a - a.T)) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if defect > SYMMETRY_ATOL * scale:
        raise InputError(f"matrix is not symmetric (defect {defect:.3e})")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class EigenSummary:
    """Extreme eigenvalues of a symmetric matrix and their ratio.

    ``ratio`` is lambda_max/lambda_min when the matrix is positive definite
    (lambda_min > SPD_RTOL * lambda_max) and ``inf`` otherwise; degeneracy is
    flagged through ``definite`` rather than raised.
    """

    lambda_min: float
    lambda_max: float
    ratio: float
    definite: bool


def eigen_ratios(p: np.ndarray):
    """(lambda_min, lambda_max, ratio, definite) of a batch (..., n, n) of
    symmetric matrices by the batched LAPACK ``eigvalsh``; see
    :class:`EigenSummary` for the ratio and the definiteness test."""
    eig = np.linalg.eigvalsh(p)
    lmin, lmax = eig[..., 0], eig[..., -1]
    definite = lmin > SPD_RTOL * np.maximum(lmax, 0.0)
    ratio = np.divide(lmax, lmin, out=np.full(lmin.shape, np.inf), where=definite)
    return lmin, lmax, ratio, definite


def eigen_summary(p: np.ndarray) -> EigenSummary:
    """Extreme eigenvalues of one symmetric matrix and their ratio."""
    lmin, lmax, ratio, definite = eigen_ratios(check_symmetric(p))
    return EigenSummary(lambda_min=float(lmin), lambda_max=float(lmax),
                        ratio=float(ratio), definite=bool(definite))


def radial_hessian(unit, second, slope):
    """Hessian F'' P + (F'/r)(I - P), P = unit unit^t, of a radial F(|z|).

    ``unit`` is the batch of unit vectors z/|z|; ``second`` = F''(r) and
    ``slope`` = F'(r)/r on the batch shape.  Callers handle r = 0.
    """
    # entry by entry: broadcasting a batch over the two small trailing axes
    # is several times slower than the same arithmetic on (batch,) arrays.
    # Each entry is stored contiguously over the batch, the layout the
    # solver's assembly einsum is fast on.
    dim = unit.shape[-1]
    out = np.moveaxis(np.empty((dim, dim) + unit.shape[:-1]), (0, 1), (-2, -1))
    for i in range(dim):
        for j in range(i + 1):
            proj = unit[..., i] * unit[..., j]
            out[..., i, j] = out[..., j, i] = second * proj + slope * (float(i == j) - proj)
    return out


def phi(t):
    """phi(t) = (1-t)^2/(1+t^2) on [0, 1]; nonincreasing, phi(0)=1, phi(1)=0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise InputError("phi is only defined on [0, 1]")
    out = (1.0 - t) ** 2 / (1.0 + t * t)
    return float(out) if out.ndim == 0 else out


def skew_defect(x: np.ndarray) -> float:
    """Frobenius norm of X - X^t; zero exactly when X is symmetric."""
    x = check_square(x)
    return float(frobenius(x - x.T))


@dataclass(frozen=True)
class SkewBoundReport:
    lhs: float
    rhs: float
    holds: bool
    eigen: EigenSummary


def verify_skew_bound(p: np.ndarray, s: np.ndarray) -> SkewBoundReport:
    """Check the skew-defect bound for X = P S with P SPD, S symmetric.

    lhs = |X - X^t|_F^2, rhs = 2 phi(lmin/lmax) |X|_F^2; the bound holds
    when lhs <= rhs (1 + SKEW_RTOL).
    """
    p = check_symmetric(p)
    s = check_symmetric(s)
    summary = eigen_summary(p)
    if not summary.definite:
        raise PreconditionError(
            f"P is not positive definite (lambda_min = {summary.lambda_min:.3e})"
        )
    x = p @ s
    lhs = skew_defect(x) ** 2
    rhs = 2.0 * phi(summary.lambda_min / summary.lambda_max) * frobenius(x) ** 2
    return SkewBoundReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1.0 + SKEW_RTOL)), eigen=summary)


@dataclass(frozen=True)
class MassTrialReport:
    dim: int
    trials: int
    worst_slack: float      # max over trials of lhs/rhs - 1 (negative when strict)
    violations: int         # trials with lhs > rhs * (1 + SKEW_RTOL)

    @property
    def holds(self) -> bool:
        return self.violations == 0


def eigenbasis_terms(lam: np.ndarray, s: np.ndarray):
    """(lhs, rhs) of the bound for batches P = diag(lam), S symmetric: X_ij = lam_i s_ij, so
    lhs = sum_ij (lam_i - lam_j)^2 s_ij^2 and rhs = 2 phi(lmin/lmax) sum_ij lam_i^2 s_ij^2."""
    s2 = s * s
    lhs = np.einsum("bij,bij->b", (lam[:, :, None] - lam[:, None, :]) ** 2, s2)
    return lhs, 2.0 * phi(lam.min(axis=1) / lam.max(axis=1)) * np.einsum("bi,bij->b", lam * lam, s2)


def batch_skew_check(rng: np.random.Generator, trials: int, dim: int) -> MassTrialReport:
    """Vectorized mass trial of the skew-defect bound with slack SKEW_RTOL.

    A trial draws P's spectrum lam (log lam uniform on [-2, 2]) and S = (G + G^t)/2,
    G standard Gaussian, and takes :func:`eigenbasis_terms`.  Both sides are invariant
    under joint conjugation and the law of S (the Gaussian orthogonal ensemble) under
    S -> Q^t S Q, so this is the law of the dense trial (Q diag(lam) Q^t, S), Q Haar.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if dim < 2:
        raise InputError(f"dimension must be >= 2, got {dim}")
    chunk = max(1, _CHUNK_ENTRIES // (dim * dim))
    worst, violations = -np.inf, 0
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        lam = np.exp(rng.uniform(-2.0, 2.0, size=(m, dim)))
        gauss = rng.standard_normal((m, dim, dim))
        lhs, rhs = eigenbasis_terms(lam, 0.5 * (gauss + np.transpose(gauss, (0, 2, 1))))
        worst = max(worst, float(np.max(lhs / rhs - 1.0)))
        violations += int(np.count_nonzero(lhs > rhs * (1.0 + SKEW_RTOL)))
    return MassTrialReport(dim=dim, trials=trials, worst_slack=worst, violations=violations)


def extremal_pair(dim: int = 2, lam_min: float = 1.0, lam_max: float = 4.0):
    """The pair attaining equality: P = diag(lmin,..,lmax), S = e1 en^t + en e1^t."""
    if dim < 2:
        raise InputError("dim must be >= 2")
    lam = np.linspace(lam_min, lam_max, dim)
    p = np.diag(lam)
    s = np.zeros((dim, dim))
    s[0, -1] = s[-1, 0] = 1.0
    return p, s
