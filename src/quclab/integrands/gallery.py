"""Gallery of concrete integrands.

Available names:

``power``        |z - c|^p / p, ratio bound K = max{p-1, 1/(p-1)}
``two_center``   |z - z0|^p + |z + z0|^p, same K (sum rule)
``mixed``        |z|^p / p + |z_1|^q / q  (no global ratio bound)
``uhlenbeck``    int_0^{|z|} t a(t) dt for an admissible profile a
``gh``           |B z|^p / p, gauge composed with a power; K <= cond(B)^2 K_p
``cantor``       |z|^2/2 + H_L(|z|) with the level-L Cantor antiderivative;
                 ratio bound 1 + (3/2)^L
``orthotropic``  sum_i |z_i|^p (control case; ratio unbounded for p != 2)
"""

from __future__ import annotations

import numpy as np

from ..cantorfn import cantor_profile
from ..errors import InputError
from ..matrixcore import radial_hessian
from ..utils import check_p, strict_int
from .base import Integrand
from .profiles import (
    UhlenbeckProfile,
    bounded_power_profile,
    constant_profile,
    power_profile,
    uhlenbeck_indices,
)

_SAFE_MIN = 1e-300


def _norm(z):
    with np.errstate(over="ignore"):
        r = np.linalg.norm(z, axis=-1)
    if np.isinf(r).any():
        # |z|^2 overflowed: rescale by the largest component before squaring
        m = np.max(np.abs(z), axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            safe = m[..., 0] * np.linalg.norm(z / m, axis=-1)
        r = np.where(np.isfinite(safe), safe, r)
    return r


def _power_K(p: float) -> float:
    return max(p - 1.0, 1.0 / (p - 1.0))


def _radial_jet(w, order, value, slope, second):
    """Jet in w of the radial phi(|w|), from its profile.

    ``value(r)`` is phi(r) at the exact radius.  ``slope(rs)`` = phi'(r)/r
    and ``second(rs, slope)`` = phi''(r) take the radius clamped away from
    zero, so the gradient slope * w is finite at w = 0.
    """
    r = _norm(w)
    out = (value(r),)
    if order == 0:
        return out
    rs = np.maximum(r, _SAFE_MIN)
    a = slope(rs)
    out += (a[..., None] * w,)
    if order == 2:
        with np.errstate(divide="ignore", over="ignore"):
            b = second(rs, a)
        out += (radial_hessian(w / rs[..., None], b, a),)
    return out


def _power_jet(w, order, p):
    """Jet of |w|^p / p.

    One power a = |w|^(p-2) serves every order: F = r (r a) / p at each
    order, so ``jet(z, k)[0]`` is the same number for every k, r = 0 gives
    F = 0 exactly, and multiplying r into a one factor at a time keeps F
    finite wherever r^p is.
    """
    r = _norm(w)
    rs = np.maximum(r, _SAFE_MIN)
    a = rs ** (p - 2.0)
    out = (r * (r * a) / p,)
    if order >= 1:
        out += (a[..., None] * w,)
    if order == 2:
        out += (radial_hessian(w / rs[..., None], (p - 1.0) * a, a),)
    return out


def power(p: float, dim: int = 2, center=None) -> Integrand:
    check_p(p)
    c = np.zeros(dim) if center is None else np.asarray(center, float)
    return Integrand(
        name=f"power[p={p:g}]", dim=dim,
        jet_fn=lambda z, order: _power_jet(z - c, order, p),
        declared_K=_power_K(p), minimizer=c,
        singular_points=(tuple(c),) if p != 2.0 else (),
        params={"p": p, "center": list(np.asarray(c, float))},
        radial=not np.any(c),
    )


def two_center(p: float, z0, dim: int = 2) -> Integrand:
    check_p(p)
    z0 = np.asarray(z0, float)
    if z0.shape != (dim,):
        raise InputError(f"z0 must have shape ({dim},)")

    def term(w, order):
        # |w|^p without the 1/p factor
        return _radial_jet(w, order, lambda r: r ** p, lambda rs: p * rs ** (p - 2.0),
                           lambda rs, a: p * (p - 1.0) * rs ** (p - 2.0))

    def jet(z, order):
        return tuple(a + b for a, b in zip(term(z - z0, order), term(z + z0, order)))

    singular = (tuple(z0), tuple(-z0)) if p != 2.0 else ()
    return Integrand(
        name=f"two_center[p={p:g}]", dim=dim, jet_fn=jet,
        declared_K=_power_K(p), minimizer=np.zeros(dim),
        singular_points=singular,
        params={"p": p, "z0": list(z0)},
    )


def mixed(p: float, q: float, dim: int = 2) -> Integrand:
    """|z|^p/p + |z_1|^q/q.  Globally of (p, q)-growth but not ratio-bounded."""
    check_p(p)
    check_p(q)

    def jet(z, order):
        out = list(_power_jet(z, order, p))
        x = z[..., 0]
        out[0] = out[0] + np.abs(x) ** q / q
        if order >= 1:
            extra = np.zeros_like(out[1])
            extra[..., 0] = np.abs(x) ** (q - 2.0) * x
            out[1] = out[1] + extra
        if order == 2:
            out[2][..., 0, 0] += (q - 1.0) * np.abs(x) ** (q - 2.0)
        return tuple(out)

    return Integrand(
        name=f"mixed[p={p:g},q={q:g}]", dim=dim, jet_fn=jet,
        declared_K=None, minimizer=np.zeros(dim),
        singular_points=((0.0,) * dim,),
        params={"p": p, "q": q},
    )


def uhlenbeck(profile: UhlenbeckProfile, dim: int = 2) -> Integrand:
    """F(z) = int_0^{|z|} t a(t) dt; requires an admissible profile."""
    indices = uhlenbeck_indices(profile)

    def jet(z, order):
        return _radial_jet(z, order, profile.primitive, profile.a,
                           lambda rs, a: a + rs * profile.da(rs))

    singular = ((0.0,) * dim,) if (indices["i_a"], indices["s_a"]) != (0.0, 0.0) else ()
    return Integrand(
        name=f"uhlenbeck[{profile.name}]", dim=dim, jet_fn=jet,
        declared_K=indices["K"], minimizer=np.zeros(dim),
        singular_points=singular,
        params={"profile": profile.name.split("[", 1)[0], **(profile.params or {})},
        radial=True, indices=indices,
    )


def gh(p: float, matrix, dim: int = 2) -> Integrand:
    """G(H(z)) with G(t) = t^p/p and H the gauge |B z|.

    The ratio bound cond(B)^2 * max{p-1, 1/(p-1)} is declared (an upper
    bound, not necessarily attained).
    """
    check_p(p)
    b = np.asarray(matrix, float)
    if b.shape != (dim, dim):
        raise InputError(f"matrix must have shape ({dim},{dim})")
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= 0:
        raise InputError("matrix must be invertible")
    cond2 = (sv[0] / sv[-1]) ** 2

    def jet(z, order):
        # chain rule through w = B z: DF = B^t DG(w), D2F = B^t D2G(w) B
        out = list(_power_jet(z @ b.T, order, p))
        if order >= 1:
            out[1] = out[1] @ b
        if order == 2:
            out[2] = np.einsum("ji,...jk,kl->...il", b, out[2], b)
        return tuple(out)

    return Integrand(
        name=f"gh[p={p:g}]", dim=dim, jet_fn=jet,
        declared_K=cond2 * _power_K(p), minimizer=np.zeros(dim),
        singular_points=((0.0,) * dim,) if p != 2.0 else (),
        params={"p": p, "matrix": [list(row) for row in b]},
    )


def cantor(level: int = 12, dim: int = 2) -> Integrand:
    """|z|^2/2 + H_L(|z|), strictly convex with kinked second derivative.

    At level L the radial second derivative is 1 + h_L'(t) in {1, 1+(3/2)^L}
    and the transversal eigenvalue is 1 + h_L(t)/t, so the eigenvalue ratio
    is bounded by 1 + (3/2)^L on all of R^N; the bound degrades to infinity
    as L grows, which is the point of the example.  F is radial, but its
    second derivative jumps on the Cantor set's scale 3^-L, so it does not
    set ``radial`` and its mollification keeps the kernel sweep.
    """
    profile = cantor_profile(level)

    def jet(z, order):
        return _radial_jet(z, order, lambda r: 0.5 * r * r + profile.H(r),
                           lambda rs: (rs + profile.h(rs)) / rs,
                           lambda rs, a: 1.0 + profile.h_prime(rs))

    return Integrand(
        name=f"cantor[L={level}]", dim=dim, jet_fn=jet,
        declared_K=1.0 + 1.5 ** level, minimizer=np.zeros(dim),
        singular_points=((0.0,) * dim,),
        params={"level": level},
    )


def orthotropic(p: float, dim: int = 2) -> Integrand:
    """sum_i |z_i|^p: the control case whose eigenvalue ratio diverges."""
    check_p(p)

    def jet(z, order):
        az = np.abs(z)
        out = (np.sum(az ** p, axis=-1),)
        if order >= 1:
            out += (p * az ** (p - 2.0) * z,)
        if order == 2:
            with np.errstate(divide="ignore", over="ignore"):
                diag = p * (p - 1.0) * az ** (p - 2.0)
            hess = np.zeros(z.shape + (z.shape[-1],))
            idx = np.arange(z.shape[-1])
            hess[..., idx, idx] = diag
            out += (hess,)
        return out

    return Integrand(
        name=f"orthotropic[p={p:g}]", dim=dim, jet_fn=jet,
        declared_K=None if p != 2.0 else 1.0, minimizer=np.zeros(dim),
        singular_points=(),
        params={"p": p},
    )


# each maker pops its own parameters; gallery rejects what is left
PROFILES = {
    "power": lambda params: power_profile(params.pop("p")),
    "constant": lambda params: constant_profile(),
    "bounded_power": lambda params: bounded_power_profile(params.pop("p")),
}


def gallery(name: str, **params) -> Integrand:
    """Factory for the named integrands; see the module docstring.

    Unknown names and malformed or leftover parameters are rejected with
    InputError (fail-closed).
    """
    try:
        dim = strict_int(params.pop("dim", 2), "dim")
        if name == "power":
            out = power(params.pop("p"), dim=dim, center=params.pop("center", None))
        elif name == "two_center":
            out = two_center(params.pop("p"), params.pop("z0"), dim=dim)
        elif name == "mixed":
            out = mixed(params.pop("p"), params.pop("q"), dim=dim)
        elif name == "uhlenbeck":
            prof_name = params.pop("profile", "power")
            maker = PROFILES.get(prof_name)
            if maker is None:
                raise InputError(f"unknown profile {prof_name!r}")
            out = uhlenbeck(maker(params), dim=dim)
        elif name == "gh":
            out = gh(params.pop("p"), params.pop("matrix"), dim=dim)
        elif name == "cantor":
            out = cantor(strict_int(params.pop("level", 12), "level"), dim=dim)
        elif name == "orthotropic":
            out = orthotropic(params.pop("p"), dim=dim)
        else:
            raise InputError(f"unknown gallery integrand {name!r}")
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"gallery({name!r}) is missing parameter {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"gallery({name!r}): malformed parameter: {exc}") from None
    if params:
        raise InputError(f"gallery({name!r}) got unknown parameters {sorted(params)}")
    return out


def integrand_to_config(f: Integrand) -> dict:
    """JSON-serializable descriptor {name, dim, params} of a gallery integrand;
    InputError for any other, so a tilt or a mollifier is never dropped."""
    cfg = {"name": f.name.split("[", 1)[0], "dim": f.dim, "params": dict(f.params)}
    if integrand_from_config(cfg).name != f.name:
        raise InputError(f"{f.name!r} is not a gallery integrand and has no descriptor")
    return cfg


def integrand_from_config(cfg: dict) -> Integrand:
    extra = set(cfg) - {"name", "dim", "params"}
    if extra:
        raise InputError(f"unknown integrand config keys {sorted(extra)}")
    if "name" not in cfg:
        raise InputError("integrand config requires a 'name'")
    kwargs = dict(cfg.get("params", {}))
    kwargs["dim"] = strict_int(cfg.get("dim", 2), "dim")
    return gallery(cfg["name"], **kwargs)
