"""Radial coefficient profiles a(t) for Div(a(|Du|) Du) structure.

The ellipticity indices

    i_a = inf_{t>0} t a'(t)/a(t),     s_a = sup_{t>0} t a'(t)/a(t)

control the eigenvalue-ratio bound K = max{1/(1+i_a), 1+s_a} of the induced
integrand F(z) = int_0^{|z|} t a(t) dt and the coercivity exponent
p = min{2+i_a, (2+s_a)/(1+s_a)}.  Admissibility requires -1 < i_a <= s_a < oo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import InputError
from ..utils import check_p


@dataclass(frozen=True)
class UhlenbeckProfile:
    """Profile a(t) with derivative, exact primitive of t*a(t) and exact indices."""

    name: str
    a: Callable[[np.ndarray], np.ndarray]
    da: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]
    exact_i_a: float
    exact_s_a: float
    params: dict | None = None


def power_profile(p: float) -> UhlenbeckProfile:
    """a(t) = t^(p-2); the induced integrand is |z|^p / p."""
    check_p(p)
    return UhlenbeckProfile(
        name=f"power[p={p:g}]",
        a=lambda t: np.asarray(t, float) ** (p - 2.0),
        da=lambda t: (p - 2.0) * np.asarray(t, float) ** (p - 3.0),
        primitive=lambda t: np.asarray(t, float) ** p / p,
        exact_i_a=p - 2.0,
        exact_s_a=p - 2.0,
        params={"p": p},
    )


def constant_profile() -> UhlenbeckProfile:
    """a = 1 (the Laplacian); indices 0, K = 1."""
    return UhlenbeckProfile(
        name="constant",
        a=lambda t: np.ones_like(np.asarray(t, float)),
        da=lambda t: np.zeros_like(np.asarray(t, float)),
        primitive=lambda t: 0.5 * np.asarray(t, float) ** 2,
        exact_i_a=0.0,
        exact_s_a=0.0,
        params={},
    )


def bounded_power_profile(p: float) -> UhlenbeckProfile:
    """a(t) = (1+t^2)^((p-2)/2); index field (p-2) t^2/(1+t^2) in (0, p-2)."""
    check_p(p)

    def a(t):
        t = np.asarray(t, float)
        return (1.0 + t * t) ** ((p - 2.0) / 2.0)

    def da(t):
        t = np.asarray(t, float)
        return (p - 2.0) * t * (1.0 + t * t) ** ((p - 4.0) / 2.0)

    def primitive(t):
        # ((1 + t^2)^(p/2) - 1)/p without the cancellation at small t, which
        # leaves an absolute error of about 1e-17 in a value of size t^2/2
        t = np.asarray(t, float)
        return np.expm1(0.5 * p * np.log1p(t * t)) / p

    lo, hi = sorted((0.0, p - 2.0))
    return UhlenbeckProfile(
        name=f"bounded_power[p={p:g}]",
        a=a, da=da, primitive=primitive,
        exact_i_a=lo, exact_s_a=hi,
        params={"p": p},
    )


def indices_to_K(i_a: float, s_a: float) -> float:
    return max(1.0 / (1.0 + i_a), 1.0 + s_a)


def indices_to_p(i_a: float, s_a: float) -> float:
    return min(2.0 + i_a, (2.0 + s_a) / (1.0 + s_a))


def uhlenbeck_indices(profile: UhlenbeckProfile) -> dict:
    """The profile's exact (i_a, s_a) and the induced K and coercivity
    exponent p; InputError unless the profile is admissible."""
    i_a, s_a = profile.exact_i_a, profile.exact_s_a
    if i_a <= -1.0 or not np.isfinite(s_a):
        raise InputError(f"profile {profile.name} is inadmissible: (i_a, s_a) = ({i_a}, {s_a})")
    return {
        "i_a": i_a,
        "s_a": s_a,
        "K": indices_to_K(i_a, s_a),
        "p": indices_to_p(i_a, s_a),
    }
