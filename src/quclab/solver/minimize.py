"""Damped Newton minimization and the regularization cascade.

Stage n minimizes the strictly convex discrete functional

    J_n(w) = sum_s vol (F * phi_{eps_n})(Dw|_s) + (mu_n/2) |Dw|_s|^2
             + sum_i w_i f_n(x_i) w_i

over interior nodes with Dirichlet data, warm-starting from the previous
stage.  Within a stage the energy decreases along accepted Newton steps
(Armijo backtracking, up to round-off once the test has stalled there);
across stages the cascade logs the Lipschitz proxy
A_n = max |Dv_n| and the coupling term mu_n^(p-1) max(A_n, 1)^(2-p), which
must decay for the approximating minimizers to converge to the
unregularized minimizer, together with the stage energies whose limit is
monitored against the final energy.  Here p = 1 + 1/K <= 2, so the clamp
makes the logged term an upper bound of mu_n^(p-1) A_n^(2-p), equal to it
once A_n >= 1: a stage with small gradients cannot report a decay that the
tilt mu_n did not bring.

The Newton step runs PCG in float64 under a float32 multigrid V-cycle: the
float64 residual, iterate and stop keep the cycle's round-off out of the
accepted steps, and the coarsest LU stays float64, as does the exact LU
cycle of a mesh that does not coarsen, which PCG then needs once.  Dots and
norms are einsums, whose sums, unlike BLAS ddot's, ignore the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ..errors import NumericError
from ..integrands import Integrand, mollify
from .mesh import BoxMesh
from .problem import ProblemSpec, RegularizationSchedule

ARMIJO = 1e-4
# Armijo slack in ulps of |e0| once the plain test stalls at round-off
STALL_SLACK = 64
# the Newton step's linear solve: weighted Jacobi smoothing with equal pre-
# and post-sweeps keeps the V-cycle symmetric, as CG needs
JACOBI_WEIGHT = 0.7
SWEEPS = 2
PCG_RTOL = 1e-10
PCG_MAX_ITER = 50
_dot = partial(np.einsum, "i,i->")


def assemble_energy(mesh: BoxMesh, f_obj: Integrand, u: np.ndarray,
                    f_nodes: np.ndarray) -> float:
    """J(u) = sum_s vol F(Du|_s) + sum_i w_i f_i u_i."""
    g = mesh.simplex_gradients(u)
    vals = np.asarray(f_obj.value(g), float)
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite energy density")
    return float(mesh.simplex_volume * vals.sum()
                 + np.sum(mesh.node_weights * f_nodes * u))


def _factorize(mesh: BoxMesh, block: sparse.spmatrix):
    """Sparse LU of the mesh's interior block, permuted into its nested-
    dissection order, as a solve in natural order; a singular factorization
    gets a Levenberg bump, the documented fallback."""
    order = mesh.nd_order
    permuted = sparse.csr_matrix(block)[order][:, order].tocsc()
    options = dict(SymmetricMode=True)
    try:
        lu = splu(permuted, permc_spec="NATURAL", options=options)
    except RuntimeError:
        diag_scale = max(float(np.abs(permuted.diagonal()).max()), 1.0)
        bumped = permuted + 1e-12 * diag_scale * sparse.identity(order.size,
                                                                 format="csc")
        lu = splu(bumped, permc_spec="NATURAL", options=options)
    rank = np.argsort(order)
    return lambda rhs: lu.solve(rhs[order])[rank]


def _cycle(levels: tuple, r: np.ndarray) -> np.ndarray:
    """One float32 V-cycle on levels[0]: (block, Jacobi weights, P^T, P) per
    level down the hierarchy, and the coarsest level's float64 LU solve last."""
    if len(levels) == 1:
        return levels[0](r).astype(np.float32)
    a, w, restrict, prolong = levels[0]
    x = w * r
    for _ in range(SWEEPS - 1):
        x += w * (r - a @ x)
    x += prolong @ _cycle(levels[1:], restrict @ (r - a @ x))
    for _ in range(SWEEPS):
        x += w * (r - a @ x)
    return x


def _vcycle(mesh: BoxMesh, d2f: np.ndarray, block: sparse.dia_matrix):
    """One multigrid V-cycle for block, the mesh's assembly of d2f, as a map
    from float64 residual to correction, or None if a level's float32 Jacobi
    weights are not all finite and nonzero (D2F beyond float32's range).

    Each coarse operator is the coarse mesh's assembly of the child-averaged
    D2F, equal to the Galerkin product P^T A P; the coarsest is factored
    once, and with no coarse level the cycle is the LU solve of block.  It
    holds no reference to itself, so it dies with its last reference.
    """
    if not mesh.levels:
        return _factorize(mesh, block) if block.diagonal().all() else None
    levels = []
    for coarse, prolong, restrict in mesh.levels:
        with np.errstate(divide="ignore", over="ignore"):
            a = block.astype(np.float32)
            w = np.float32(JACOBI_WEIGHT) / a.diagonal()
        if not (np.isfinite(w).all() and w.all()):
            return None
        levels.append((a, w, restrict, prolong))
        d2f = mesh.child_mean(d2f)
        mesh, block = coarse, coarse.assemble_hessian(d2f)
    levels = tuple(levels) + (_factorize(mesh, block),)
    return lambda r: _cycle(levels, r.astype(np.float32)).astype(float)


def _solve_step(mesh: BoxMesh, d2f: np.ndarray,
                rhs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Solve the mesh's interior block for d2f (natural order): the Newton step.

    CG from x = 0 to ||b - A x|| < PCG_RTOL ||b||, in the recurrences of
    scipy's ``cg``, preconditioned by one V-cycle on the mesh hierarchy; if
    it misses, or a level has no Jacobi smoother, the LU solve of the block.
    Returns (x, PCG iterations, whether the step was solved by LU instead).
    """
    block = mesh.assemble_hessian(d2f)
    cycle = _vcycle(mesh, d2f, block)
    x, r, p, rho = np.zeros_like(rhs), rhs.copy(), None, 1.0
    stop = PCG_RTOL * np.sqrt(_dot(rhs, rhs))
    for iteration in range(PCG_MAX_ITER if cycle else 0):
        norm = np.sqrt(_dot(r, r))
        if norm < stop or not norm:
            return x, iteration, False
        z = cycle(r)
        rho, rho_prev = _dot(r, z), rho
        p = z if p is None else z + (rho / rho_prev) * p
        q = block @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
    return _factorize(mesh, block)(rhs), PCG_MAX_ITER if cycle else 0, True


class StageResult(NamedTuple):
    u: np.ndarray
    iterations: int             # accepted Newton steps
    grad_norm: float
    energies: list
    linear_iterations: int      # PCG iterations over all steps
    lu_fallbacks: int           # steps solved by LU after a PCG miss


def _stage_newton(mesh: BoxMesh, f_obj: Integrand, f_nodes: np.ndarray,
                  u: np.ndarray, tol: float, max_iter: int) -> StageResult:
    """Damped Newton for one stage, from u until the interior gradient norm
    is at most tol.

    Each step solves the interior Hessian block by :func:`_solve_step`,
    whose LU fallbacks are counted in ``lu_fallbacks``.  Armijo backtracking
    accepts the step; once it has cut a step whose predicted decrease is
    below the round-off of the energy, it allows ``STALL_SLACK`` ulps of the
    energy for the rest of the stage.
    """
    interior = mesh.interior_mask
    energies = [assemble_energy(mesh, f_obj, u, f_nodes)]
    grad_norm = np.inf
    load = mesh.node_weights * f_nodes
    linear_iterations = lu_fallbacks = 0
    slack = 0.0

    for iteration in range(max_iter):
        # DF and D2F from one sweep; the line search below needs F only
        _, df, d2f = f_obj.jet(mesh.simplex_gradients(u), 2)
        grad_full = mesh.scatter_gradient(np.asarray(df, float)) + load
        grad = grad_full[interior]
        grad_norm = float(np.sqrt(_dot(grad, grad)))
        if grad_norm <= tol:
            return StageResult(u, iteration, grad_norm, energies,
                               linear_iterations, lu_fallbacks)

        step, pcg_iterations, fell_back = _solve_step(
            mesh, np.asarray(d2f, float), grad)
        linear_iterations += pcg_iterations
        lu_fallbacks += fell_back
        direction = -step

        slope = float(_dot(grad, direction))
        if slope >= 0.0:
            raise NumericError(
                f"Newton step is not a descent direction at iteration "
                f"{iteration} (grad norm {grad_norm:.3e})")

        t = 1.0
        e0 = energies[-1]
        for _ in range(50):
            trial = u.copy()
            trial[interior] += t * direction
            try:
                e_trial = assemble_energy(mesh, f_obj, trial, f_nodes)
            except NumericError:
                e_trial = np.inf
            if e_trial <= e0 + ARMIJO * t * slope + slack:
                break
            t *= 0.5
        else:
            raise NumericError(
                f"line search stalled at iteration {iteration} "
                f"(grad norm {grad_norm:.3e})")
        roundoff = STALL_SLACK * np.finfo(float).eps * abs(e0)
        if t < 1.0 and -slope <= roundoff:
            # the test cut a step whose predicted decrease is below the
            # round-off of e0, where it only sees noise and Newton spins;
            # from the next step on it allows that round-off (the
            # approximate Wolfe test of Hager & Zhang, SIAM J. Optim. 16,
            # 2005, sec. 4)
            slack = roundoff
        u = trial
        energies.append(e_trial)
    raise NumericError(f"Newton did not reach tol {tol:.1e} in {max_iter} "
                       f"iterations (grad norm {grad_norm:.3e})")


@dataclass(frozen=True)
class StageRecord:
    index: int
    eps: float
    mu: float
    iterations: int
    energy: float
    grad_norm: float
    lipschitz: float            # A_n = max |Dv_n|
    coupling_term: float        # mu^(p-1) max(A_n, 1)^(2-p)
    boundary_term: float        # mu * ||D u_0||_2^2 of the warm start
    linear_iterations: int      # PCG iterations over the stage's Newton steps
    lu_fallbacks: int           # Newton steps solved by LU after a PCG miss
    energies: list = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class DiscreteSolution:
    spec: ProblemSpec
    schedule: RegularizationSchedule
    mesh: BoxMesh
    u: np.ndarray               # nodal potential, flattened
    stress_cells: np.ndarray    # V = DF(Du) at cell centers
    energy: float               # unregularized energy at the final iterate
    history: tuple
    warm_start: str             # "ok", or why the harmonic start failed


def _harmonic_warm_start(mesh: BoxMesh, u0: np.ndarray, f_nodes: np.ndarray) -> np.ndarray:
    """One linear solve of the quadratic-energy problem as initialization."""
    from ..integrands.gallery import power
    quad = power(2.0, dim=mesh.dim)
    return _stage_newton(mesh, quad, f_nodes, u0, tol=1e-9, max_iter=4).u


def minimize(spec: ProblemSpec, schedule: RegularizationSchedule | None = None,
             tol: float = 1e-10, max_iter: int = 60) -> DiscreteSolution:
    """Run the regularization cascade and return the final-stage solution.

    Raises :class:`NumericError` with stage diagnostics when a stage fails
    to converge.
    """
    schedule = schedule or RegularizationSchedule()
    mesh, f_nodes = spec.mesh, spec.f_nodes
    u = np.zeros(mesh.n_nodes)
    u[mesh.boundary_mask] = spec.boundary_values

    try:
        u = _harmonic_warm_start(mesh, u, f_nodes)
        start = "ok"
    except NumericError as exc:  # the flat extension stays, and is reported
        start = str(exc)
    boundary_grad_sq = float(np.sum(mesh.simplex_gradients(u) ** 2)
                             * mesh.simplex_volume)

    growth_p = spec.integrand.growth_p if spec.integrand.growth_p is not None else 2.0
    history = []
    for idx, (eps, mu) in enumerate(schedule.stages):
        f_stage = mollify(spec.integrand, eps) if eps > 0.0 else spec.integrand
        f_stage = f_stage.tilted(mu)
        # data mollification f * phi_{1/n}: grid sources generated from smooth
        # callables are used as-is; rough gridded data should be smoothed by
        # the caller before building the spec
        try:
            # the quadratic tilt already sits inside the stage Hessian; a
            # Levenberg bump covers the rare singular factorization at mu = 0
            stage = _stage_newton(mesh, f_stage, f_nodes, u, tol=tol,
                                  max_iter=max_iter)
        except NumericError as exc:
            raise NumericError(f"stage {idx} (eps={eps:g}, mu={mu:g}): {exc}") from exc
        u = stage.u
        lipschitz = float(np.max(np.linalg.norm(mesh.simplex_gradients(u), axis=1)))
        coupling = mu ** (growth_p - 1.0) * max(lipschitz, 1.0) ** (2.0 - growth_p)
        history.append(StageRecord(
            index=idx, eps=eps, mu=mu, iterations=stage.iterations,
            energy=stage.energies[-1], grad_norm=stage.grad_norm,
            lipschitz=lipschitz, coupling_term=float(coupling),
            boundary_term=float(mu * boundary_grad_sq),
            linear_iterations=stage.linear_iterations,
            lu_fallbacks=stage.lu_fallbacks, energies=stage.energies))

    du_cells = mesh.cell_mean_gradients(u)
    stress = np.asarray(spec.integrand.gradient(du_cells), float)
    final_energy = assemble_energy(mesh, spec.integrand, u, f_nodes)
    return DiscreteSolution(spec=spec, schedule=schedule, mesh=mesh, u=u,
                            stress_cells=stress,
                            energy=final_energy, history=tuple(history),
                            warm_start=start)
