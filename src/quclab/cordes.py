"""Cordes-type admissibility thresholds and the div-curl operator norm probe.

Two regimes make the curl term reabsorbable in the L^m gradient estimate:

* ratio bound close to one:  sqrt(2) N^2 (mhat - 1) (1 - 1/K) < 1, giving
  the threshold K0(N, m) = 1 / (1 - 1/(sqrt(2) N^2 (mhat - 1)));
* exponent close to two: interpolating the solution operator T(f, G) = DV of
  Div V = f, curl V = sqrt(2) G between its exact L^2 isometry and a
  certified endpoint bound yields eta(m) -> 0 as m -> 2, and the largest
  half-width delta0(K, N) with (1 + eta(m)) (1 - 1/K) < 1 for |m - 2| <=
  delta0 is positive for every finite K.

The certified endpoint bound is 2 sqrt(2) N^2 (mhat - 1), obtained from the
L^m div-curl inequality together with elementary norm comparisons on the
product space; it is an over-estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import InputError
from .spectral import PeriodicGrid, SpectralField, lm_matrix_norm, mhat


def cordes_K0(dim: int, m: float) -> float:
    """Largest ratio bound K admissible at exponent m (strictly below)."""
    if dim < 2:
        raise InputError("dim must be >= 2")
    amp = np.sqrt(2.0) * dim ** 2 * (mhat(m) - 1.0)
    # amp > 1 always holds for dim >= 2 since mhat >= 2
    return 1.0 / (1.0 - 1.0 / amp)


def default_T_bound(dim: int, m: float) -> float:
    """Certified upper bound for ||T|| on L^m x L^m -> L^m (see module doc)."""
    return 2.0 * np.sqrt(2.0) * dim ** 2 * (mhat(m) - 1.0)


@dataclass(frozen=True)
class CordesThresholds:
    dim: int
    m: float
    mhat: float
    K0: float
    delta0: float | None = None
    K: float | None = None
    admissible_by_K0: bool | None = None
    admissible_by_delta0: bool | None = None


WINDOW = (4.0 / 3.0, 4.0)  # default interpolation endpoints (m_lo, m_hi)


def _theta_for(eta_max: float, t_bound: float) -> float:
    """Interpolation parameter where T_bound^theta = 1 + eta_max."""
    if t_bound <= 1.0:
        return 1.0
    return float(np.log1p(eta_max) / np.log(t_bound))


def _check_window(window: tuple[float, float]) -> tuple[float, float]:
    """(m_lo, m_hi); InputError unless 1 < m_lo < 2 < m_hi."""
    m_lo, m_hi = window
    if not (1.0 < m_lo < 2.0 < m_hi):
        raise InputError("window must satisfy 1 < m_lo < 2 < m_hi")
    return m_lo, m_hi


def cordes_delta0(K: float, dim: int, window: tuple[float, float] = WINDOW,
                  probe_trials: int | None = None) -> float:
    """Largest delta with (1 + eta(m)) (1 - 1/K) < 1 for all |m - 2| <= delta.

    ``window = (m_lo, m_hi)`` are the interpolation endpoints with
    m_lo < 2 < m_hi.  The endpoint bound for ||T|| is the certified
    :func:`default_T_bound` when ``probe_trials`` is None; an int substitutes
    the randomized probe with that many trials at seed 0 (which yields only
    a lower bound on ||T||, so the resulting delta0 is an optimistic
    diagnostic, not a certificate).
    """
    if K < 1.0:
        raise InputError("K must be >= 1")
    m_lo, m_hi = _check_window(window)
    half_lo, half_hi = 2.0 - m_lo, m_hi - 2.0
    if K == 1.0:
        return min(half_lo, half_hi)

    def endpoint_bound(m_end: float) -> float:
        if probe_trials is None:
            return default_T_bound(dim, m_end)
        return max(estimate_T_norm(m_end, probe_trials, dim=dim), 1.0)

    # reabsorption needs eta < 1/(K-1)
    eta_max = 1.0 / (K - 1.0)

    # side m in [2, m_hi]: 1/m = (1-theta)/2 + theta/m_hi
    theta_hi = min(_theta_for(eta_max, endpoint_bound(m_hi)), 1.0)
    inv_m = 0.5 + theta_hi * (1.0 / m_hi - 0.5)
    delta_hi = min(1.0 / inv_m - 2.0, half_hi)

    # side m in [m_lo, 2]
    theta_lo = min(_theta_for(eta_max, endpoint_bound(m_lo)), 1.0)
    inv_m = 0.5 + theta_lo * (1.0 / m_lo - 0.5)
    delta_lo = min(2.0 - 1.0 / inv_m, half_lo)

    return float(min(delta_hi, delta_lo))


def cordes_report(dim: int, m: float, K: float | None = None,
                  window: tuple[float, float] = WINDOW) -> CordesThresholds:
    _check_window(window)
    k0 = cordes_K0(dim, m)
    delta0 = None
    adm_k0 = adm_d0 = None
    if K is not None:
        delta0 = cordes_delta0(K, dim, window=window)
        adm_k0 = bool(K < k0)
        adm_d0 = bool(abs(m - 2.0) < delta0)
    return CordesThresholds(dim=dim, m=m, mhat=mhat(m), K0=k0, delta0=delta0,
                            K=K, admissible_by_K0=adm_k0, admissible_by_delta0=adm_d0)


def apply_T(f: SpectralField, g: SpectralField) -> np.ndarray:
    """T(f, G) = DV for Div V = f, curl V = sqrt(2) G; physical matrix field."""
    dv = spectral.divcurl_reconstruct(f, g.scaled(np.sqrt(2.0)))
    d = f.grid.dim
    return dv.values.reshape((d, d) + f.grid.shape)


def estimate_T_norm(m: float, trials: int, dim: int = 2, n: int = 64,
                    kmax: int = 8, seed: int | np.random.SeedSequence = 0,
                    map=map) -> float:
    """Randomized lower bound for ||T||: max ratio over band-limited data.

    Zero inputs are skipped.  At m = 2 the operator is an isometry on
    compatible data, so the estimate sits at 1 up to grid roundoff.
    ``seed`` is an int or a SeedSequence (riesz-check passes its own stream
    for the probe).  The trials' half boxes are drawn in the calling thread
    in stream order, and each trial is a task handed to ``map``
    (utils.pool_map runs them in parallel); the result does not depend on
    its schedule.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    grid = PeriodicGrid(dim=dim, n=n)
    rng = np.random.default_rng(seed)
    vol = grid.cell_volume

    def ratio(noise):
        f = SpectralField.band_limited(grid, "scalar", noise[0])
        g = SpectralField.band_limited(grid, "skew", noise[1])
        gmag = np.sqrt(2.0 * np.sum(g.values * g.values, axis=0))
        denom_m = (np.sum(np.abs(f.values) ** m) + np.sum(gmag ** m)) * vol
        if denom_m <= 1e-280:
            return 0.0
        return lm_matrix_norm(apply_T(f, g), m, vol) / denom_m ** (1.0 / m)

    draws = ((SpectralField.noise(grid, "scalar", kmax, rng),
              SpectralField.noise(grid, "skew", kmax, rng)) for _ in range(trials))
    return float(max([0.0, *map(ratio, draws)]))
