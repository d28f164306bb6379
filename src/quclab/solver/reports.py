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
    requires a 2-entry center, a positive radius and 4B inside the domain.
    """
    _require_2d(sol.mesh)
    mesh = sol.mesh
    c = np.asarray(ball_center, float)
    if c.shape != (2,):
        raise InputError(f"ball_center must have 2 entries, got {c.tolist()}")
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


def euler_lagrange_residual(sol: DiscreteSolution) -> float:
    """Weak-form residual  max_phi |int (V, Dphi) + int f phi| / ||phi||_{W^{1,p}}
    over the discrete hat-function basis, with p the integrand's growth
    exponent (2 when undeclared); vanishes (up to solver tolerance) at the
    exact discrete minimizer of the unregularized energy.
    """
    mesh = sol.mesh
    p = sol.spec.integrand.growth_p or 2.0
    g = mesh.simplex_gradients(sol.u)
    df = np.asarray(sol.spec.integrand.gradient(g), float)
    grad_full = mesh.scatter_gradient(df) + mesh.node_weights * sol.f_nodes
    res = np.abs(grad_full[mesh.interior_mask])
    return float(res.max() / hat_norm_w1p(mesh, p))


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
