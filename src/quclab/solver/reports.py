"""Localized norm reports for discrete solutions (2-D).

Balls are rasterized on the cell-center lattice with fractional weights for
boundary cells (sub-sampled midpoints, second-order accurate areas).  The
stress gradient DV is formed by forward differences between adjacent cell
centers, living on the half-shifted (n-1)^2 lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ..bumps import QuinticBump
from ..errors import InputError, PreconditionError
from .mesh import BoxMesh
from .minimize import DiscreteSolution


def disk_cell_weights(centers: np.ndarray, h: float, ball_center, radius: float) -> np.ndarray:
    """Area fraction of each h x h cell inside the disk (0..1 per cell); a
    border cell counts its 8 x 8 sub-cell midpoints."""
    c = np.asarray(ball_center, float)
    d = np.linalg.norm(centers - c, axis=1)
    half_diag = 0.5 * h * np.sqrt(2.0)
    w = np.zeros(len(centers))
    w[d <= radius - half_diag] = 1.0
    border = (d > radius - half_diag) & (d < radius + half_diag)
    if np.any(border):
        offs = (np.arange(8) + 0.5) / 8 - 0.5
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        shift = np.stack([ox.ravel(), oy.ravel()], axis=1) * h
        pts = centers[border][:, None, :] + shift[None, :, :]
        inside = np.linalg.norm(pts - c, axis=2) <= radius
        w[border] = inside.mean(axis=1)
    return w


def _weighted_lm(values_mag: np.ndarray, weights: np.ndarray, cell_area: float,
                 m: float) -> float:
    if m <= 0.0:
        raise InputError("m must be > 0")
    return float((np.sum(weights * values_mag ** m) * cell_area) ** (1.0 / m))


def _require_2d(mesh: BoxMesh):
    if mesh.dim != 2:
        raise InputError("localized reports are implemented for 2-D meshes")


def _stress_and_gradient_lattices(sol: DiscreteSolution):
    """V on cell centers and forward-difference DV on the shifted lattice."""
    mesh = sol.mesh
    n = mesh.cells
    v = sol.stress_cells.reshape(n, n, 2)
    h = mesh.h
    dv = np.empty((n - 1, n - 1, 2, 2))
    for k in range(2):
        dv[:, :, k, 0] = (v[1:, :-1, k] - v[:-1, :-1, k]) / h
        dv[:, :, k, 1] = (v[:-1, 1:, k] - v[:-1, :-1, k]) / h
    centers = mesh.cell_centers()
    dv_points = centers.reshape(n, n, 2)[:-1, :-1].reshape(-1, 2) + 0.5 * h
    return v, centers, dv.reshape(-1, 2, 2), dv_points


@dataclass(frozen=True)
class RegularityReport:
    m: float
    theta: float
    ball_center: tuple
    ball_radius: float
    v_ltheta_2b: float
    v_lm_2b: float
    f_lm_2b: float
    v_lm_b: float
    dv_lm_b: float
    v_w1m_b: float
    c_meas: float


def default_theta(sol: DiscreteSolution, m: float) -> float:
    """theta = min{p/(q-1), 1} from the declared growth exponents, else 1."""
    p, q = sol.spec.integrand.growth_p, sol.spec.integrand.growth_q
    if p is None or q is None or q <= 1.0:
        return 1.0
    return float(min(p / (q - 1.0), 1.0))


def sobolev_report(sol: DiscreteSolution, ball_center, ball_radius: float,
                   m: float, theta: float | None = None) -> RegularityReport:
    """Localized norms behind the W^{1,m} stress estimate.

    c_meas = ||V||_{W^{1,m}(B)} / (||f||_{L^m(2B)} + ||V||_{L^theta(2B)});
    requires a positive radius and 4B inside the domain.
    """
    _require_2d(sol.mesh)
    mesh = sol.mesh
    c = np.asarray(ball_center, float)
    if not ball_radius > 0.0:
        raise InputError(f"ball_radius must be > 0, got {ball_radius}")
    if np.any(np.abs(c) + 4.0 * ball_radius > mesh.half_width + 1e-12):
        raise PreconditionError("4B must be contained in the domain")
    if theta is None:
        theta = default_theta(sol, m)
    if not 0.0 < theta <= m:
        raise InputError("need 0 < theta <= m")

    v, centers, dv, dv_points = _stress_and_gradient_lattices(sol)
    h = mesh.h
    area = h * h
    vmag = np.linalg.norm(v.reshape(-1, 2), axis=1)
    dvmag = np.sqrt(np.sum(dv ** 2, axis=(1, 2)))

    w_2b = disk_cell_weights(centers, h, c, 2.0 * ball_radius)
    w_b = disk_cell_weights(centers, h, c, ball_radius)
    w_dv = disk_cell_weights(dv_points, h, c, ball_radius)

    f_cells = np.asarray(sol.spec.source(centers), float)

    v_ltheta_2b = _weighted_lm(vmag, w_2b, area, theta)
    v_lm_2b = _weighted_lm(vmag, w_2b, area, m)
    f_lm_2b = _weighted_lm(np.abs(f_cells), w_2b, area, m)
    v_lm_b = _weighted_lm(vmag, w_b, area, m)
    dv_lm_b = _weighted_lm(dvmag, w_dv, area, m)
    w1m = (v_lm_b ** m + dv_lm_b ** m) ** (1.0 / m)
    denom = f_lm_2b + v_ltheta_2b
    c_meas = w1m / denom if denom > 0 else np.inf
    return RegularityReport(m=m, theta=float(theta), ball_center=tuple(c),
                            ball_radius=float(ball_radius),
                            v_ltheta_2b=v_ltheta_2b, v_lm_2b=v_lm_2b,
                            f_lm_2b=f_lm_2b, v_lm_b=v_lm_b, dv_lm_b=dv_lm_b,
                            v_w1m_b=float(w1m), c_meas=float(c_meas))


@dataclass(frozen=True)
class CaccioppoliReport:
    r: float
    s: float
    big_r: float
    lhs: float                  # int_{B_r} |DV|^2
    annulus_term: float         # (s-r)^-2 int_{B_s \ B_r} |V|^2
    source_term: float          # int_{B_2R} f^2
    c_theory: float             # 1/(1 - relaxed/2) from the declared K
    c_emp: float                # lhs / (annulus_term + source_term)
    c_raw: float                # lhs / (int_ann |V|^2 + source_term)
    holds_with_theory: bool


def caccioppoli_check(sol: DiscreteSolution, r: float, s: float,
                      big_r: float) -> CaccioppoliReport:
    """Empirical constants for the localized gradient-energy bound on balls
    about the origin

        int_{B_r} |DV|^2 <= C/(s-r)^2 int_{B_s \\ B_r} |V|^2 + C int_{B_2R} f^2.
    """
    _require_2d(sol.mesh)
    mesh = sol.mesh
    if not (big_r <= r < s <= 2.0 * big_r):
        raise InputError("need R <= r < s <= 2R")
    if s - r < 4.0 * mesh.h:
        raise InputError("annulus thinner than 4 cells")
    c = np.zeros(2)
    if 2.0 * big_r > mesh.half_width + 1e-12:
        raise InputError("B_2R must sit inside the domain")

    v, centers, dv, dv_points = _stress_and_gradient_lattices(sol)
    h = mesh.h
    area = h * h
    vmag2 = np.sum(v.reshape(-1, 2) ** 2, axis=1)
    dvmag2 = np.sum(dv ** 2, axis=(1, 2))

    w_r = disk_cell_weights(dv_points, h, c, r)
    lhs = float(np.sum(w_r * dvmag2) * area)
    w_ann = disk_cell_weights(centers, h, c, s) - disk_cell_weights(centers, h, c, r)
    ann_int = float(np.sum(np.clip(w_ann, 0.0, 1.0) * vmag2) * area)
    f_cells = np.asarray(sol.spec.source(centers), float)
    w_2r = disk_cell_weights(centers, h, c, 2.0 * big_r)
    src = float(np.sum(w_2r * f_cells ** 2) * area)

    annulus_term = ann_int / (s - r) ** 2
    k = sol.spec.integrand.declared_K
    if k is None or k <= 1.0:
        c_theory = 1.0
    else:
        relaxed = 2.0 * (1.0 - 1.0 / k) ** 2
        c_theory = 1.0 / (1.0 - relaxed / 2.0)
    denom = annulus_term + src
    c_emp = lhs / denom if denom > 0 else np.inf
    raw_denom = ann_int + src
    c_raw = lhs / raw_denom if raw_denom > 0 else np.inf
    return CaccioppoliReport(r=r, s=s, big_r=big_r, lhs=lhs,
                             annulus_term=annulus_term, source_term=src,
                             c_theory=c_theory, c_emp=float(c_emp),
                             c_raw=float(c_raw),
                             holds_with_theory=bool(lhs <= c_theory * denom))


def hat_norm_w1p(mesh: BoxMesh, p: float) -> float:
    """W^{1,p} norm of one interior hat function (all are congruent).

    The hat of node (1, ..., 1) is the barycentric coordinate of its vertex
    slot k on every simplex of its support: there int phi^p = vol dim! /
    ((p+1)...(p+dim)) and Dphi is column k of the simplex's gradient table.
    """
    node = int(np.sum((mesh.cells + 1) ** np.arange(mesh.dim)))
    perm, vertex, _ = np.nonzero(mesh._vertex_ids == node)
    grads = np.linalg.norm(mesh._gmats[perm, :, vertex], axis=1)
    vol = mesh.simplex_volume
    val_int = (perm.size * vol * factorial(mesh.dim)
               / np.prod(p + np.arange(1, mesh.dim + 1)))
    grad_int = vol * float(np.sum(grads ** p))
    return float((val_int + grad_int) ** (1.0 / p))


def euler_lagrange_residual(sol: DiscreteSolution, mode: str = "hat") -> float:
    """Weak-form residual  max_phi |int (V, Dphi) + int f phi| / ||phi||_{W^{1,p}},
    with p the integrand's growth exponent (2 when undeclared).

    mode "hat": discrete hat-function basis; vanishes (up to solver
    tolerance) at the exact discrete minimizer of the unregularized energy.
    mode "bump": a mesh-independent bank of 3 x 3 C^2 bumps of radius
    0.35 L centered on [-0.45 L, 0.45 L]^2 (L the half-width); measures the
    discretization error of the weak form and decreases under refinement.
    """
    mesh = sol.mesh
    p = sol.spec.integrand.growth_p or 2.0
    f_nodes = sol.f_nodes
    if mode == "hat":
        g = mesh.simplex_gradients(sol.u)
        df = np.asarray(sol.spec.integrand.gradient(g), float)
        grad_full = mesh.scatter_gradient(df) + mesh.node_weights * f_nodes
        res = np.abs(grad_full[mesh.interior_mask])
        return float(res.max() / hat_norm_w1p(mesh, p))
    if mode != "bump":
        raise InputError("mode must be 'hat' or 'bump'")
    _require_2d(mesh)
    half = mesh.half_width
    radius = 0.35 * half
    lin = np.linspace(-0.45 * half, 0.45 * half, 3)
    centroids = mesh.simplex_centroids()
    g = mesh.simplex_gradients(sol.u)
    v_simplex = np.asarray(sol.spec.integrand.gradient(g), float)
    vol = mesh.simplex_volume
    coords = mesh.node_coords()
    worst = 0.0
    for cx in lin:
        for cy in lin:
            bump = QuinticBump(center=[cx, cy], radius=radius)
            dphi = bump.gradient(centroids)
            pairing = vol * float(np.sum(v_simplex * dphi))
            load = float(np.sum(mesh.node_weights * f_nodes * bump.value(coords)))
            dphi_mag = np.linalg.norm(dphi, axis=1)
            norm = (vol * np.sum(bump.value(centroids) ** p)
                    + vol * np.sum(dphi_mag ** p)) ** (1.0 / p)
            if norm < 1e-12:
                continue
            worst = max(worst, abs(pairing + load) / norm)
    return float(worst)


def w1p_error(sol: DiscreteSolution, exact_u, exact_grad, p: float) -> float:
    """||u_h - u||_p + |u_h - u|_{1,p} against callables (centroid quadrature)."""
    mesh = sol.mesh
    coords = mesh.node_coords()
    du_err = mesh.simplex_gradients(sol.u) - np.asarray(
        exact_grad(mesh.simplex_centroids()), float)
    grad_term = mesh.simplex_volume * np.sum(np.linalg.norm(du_err, axis=1) ** p)
    u_err = np.abs(sol.u - np.asarray(exact_u(coords), float))
    val_term = np.sum(mesh.node_weights * u_err ** p)
    return float((val_term + grad_term) ** (1.0 / p))
