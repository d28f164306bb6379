"""Tests for the simplicial mesh, the Newton cascade, and the norm reports."""

import gc
import importlib
import warnings
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

from quclab.errors import InputError, NumericError, PreconditionError
from quclab.integrands import gallery
from quclab.solver import (
    BoxMesh,
    ProblemSpec,
    RegularizationSchedule,
    assemble_energy,
    disk_cell_weights,
    euler_lagrange_residual,
    load_problem_config,
    make_boundary,
    make_source,
    minimize,
    radial_power_solution,
    sobolev_report,
    w1p_error,
)
from quclab.solver.problem import radial_power_gradient
from quclab.solver.reports import hat_norm_w1p

# the package re-exports the function `minimize`, which shadows the module
newton = importlib.import_module("quclab.solver.minimize")


def five_point_solution(n, f_const, boundary_fn):
    """Independent 5-point Poisson oracle on the [-1,1]^2 node grid."""
    h = 2.0 / n
    m = n + 1
    axis = -1.0 + np.arange(m) * h
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    coords = np.stack([xx.ravel(), yy.ravel()], axis=1)
    interior = np.zeros((m, m), bool)
    interior[1:-1, 1:-1] = True
    idx = np.arange(m * m).reshape(m, m)
    u = boundary_fn(coords).astype(float)
    rows, cols, vals = [], [], []
    b = np.full(m * m, -h * h * f_const)
    for i in range(1, m - 1):
        for j in range(1, m - 1):
            r = idx[i, j]
            rows.append(r), cols.append(r), vals.append(4.0)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                cidx = idx[i + di, j + dj]
                if interior[i + di, j + dj]:
                    rows.append(r), cols.append(cidx), vals.append(-1.0)
                else:
                    b[r] += u[cidx]
    a_mat = sparse.coo_matrix((vals, (rows, cols)), shape=(m * m, m * m)).tocsr()
    mask = interior.ravel()
    out = u.copy()
    out[mask] = spsolve(a_mat[mask][:, mask], b[mask])
    return out


def radial_spec(p, n):
    return ProblemSpec(integrand=gallery("power", p=p), cells=n,
                       boundary=make_boundary("radial_power", p=p),
                       source=make_source("constant", value=1.0))


@pytest.fixture(scope="module")
def p3_solution():
    return minimize(radial_spec(3.0, 48))


class TestMesh:
    def test_counts(self):
        mesh = BoxMesh(dim=2, cells=8, half_width=1.0)
        assert mesh.n_nodes == 81
        assert mesh.n_simplices == 128
        assert mesh.simplex_volume == pytest.approx(mesh.h ** 2 / 2.0)

    def test_affine_gradient_exact(self, rng):
        mesh = BoxMesh(dim=2, cells=8, half_width=1.0)
        slope = np.array([0.7, -1.3])
        u = mesh.node_coords() @ slope
        g = mesh.simplex_gradients(u)
        assert np.allclose(g, slope, atol=1e-13)
        assert np.allclose(mesh.cell_mean_gradients(u), slope, atol=1e-13)

    def test_3d_affine_gradient(self):
        mesh = BoxMesh(dim=3, cells=4, half_width=1.0)
        slope = np.array([0.5, 2.0, -1.0])
        u = mesh.node_coords() @ slope
        assert np.allclose(mesh.simplex_gradients(u), slope, atol=1e-13)
        assert mesh.n_simplices == 4 ** 3 * 6

    def test_node_weights_integrate_constants(self):
        mesh = BoxMesh(dim=2, cells=16, half_width=1.0)
        assert mesh.node_weights.sum() == pytest.approx(4.0, rel=1e-13)

    def test_quadratic_hessian_is_five_point_stencil(self):
        # for F = |z|^2/2 every interior row of the assembled Hessian is the
        # classical (4, -1, -1, -1, -1) stencil, less its boundary neighbours
        mesh = BoxMesh(dim=2, cells=6, half_width=1.0)
        m = 7
        d2f = np.broadcast_to(np.eye(2), (mesh.n_simplices, 2, 2))
        block = mesh.assemble_hessian(np.array(d2f)).toarray()
        # node id -> position in the block's natural order, -1 on the boundary
        position = np.full(mesh.n_nodes, -1)
        position[mesh.interior_mask] = np.arange(block.shape[0])
        idx = position.reshape(m, m)
        for i, j in ((2, 3), (3, 3), (1, 1)):
            row = block[idx[i, j]]
            assert row[idx[i, j]] == pytest.approx(4.0, rel=1e-13)
            neighbours = [idx[i + di, j + dj]
                          for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))]
            inside = [k for k in neighbours if k >= 0]
            for k in inside:
                assert row[k] == pytest.approx(-1.0, rel=1e-13)
            assert np.count_nonzero(np.abs(row) > 1e-13) == 1 + len(inside)


def random_spd_d2f(rng, mesh):
    a = rng.standard_normal((mesh.n_simplices, mesh.dim, mesh.dim))
    return np.einsum("sij,skj->sik", a, a) + 0.1 * np.eye(mesh.dim)


def barycentric_gradients(mesh):
    """Vertex ids (simplex-major, as d2f) and P1 gradients from the coordinates."""
    coords = mesh.node_coords()
    ids = np.concatenate(mesh._vertex_ids, axis=1).T
    ones = np.ones((len(ids), mesh.dim + 1, 1))
    bary = np.linalg.inv(np.concatenate([ones, coords[ids]], axis=2))
    return ids, bary[:, 1:]                             # (dim, dim+1) per simplex


def dense_hessian(mesh, d2f):
    """Sum of vol G^T D2F G over simplices, with G from the vertex coordinates."""
    out = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for vertices, g, d in zip(*barycentric_gradients(mesh), d2f):
        out[np.ix_(vertices, vertices)] += mesh.simplex_volume * g.T @ d @ g
    return out


# dyadic and non-dyadic mesh widths h in 2-D and 3-D
_OPERATOR_MESHES = [(2, 8, 1.0), (2, 10, 1.3), (3, 4, 1.0), (3, 6, 1.41)]


class TestGradientOperator:
    @pytest.mark.parametrize("dim, cells, half_width", _OPERATOR_MESHES)
    def test_scatter_is_adjoint_of_gradient(self, rng, dim, cells, half_width):
        # <B^T(vol w), u> = vol <w, B u>
        mesh = BoxMesh(dim=dim, cells=cells, half_width=half_width)
        u = rng.standard_normal(mesh.n_nodes)
        w = rng.standard_normal((mesh.n_simplices, dim))
        g = mesh.simplex_gradients(u)
        lhs = mesh.scatter_gradient(w) @ u
        rhs = mesh.simplex_volume * np.sum(w * g)
        scale = mesh.simplex_volume * np.sum(np.abs(w * g))
        assert abs(lhs - rhs) <= 1e-13 * scale

    @pytest.mark.parametrize("cells, half_width", [(4, 1.0), (5, 1.41)])
    def test_gradients_match_barycentric_3d(self, rng, cells, half_width):
        mesh = BoxMesh(dim=3, cells=cells, half_width=half_width)
        u = rng.standard_normal(mesh.n_nodes)
        ids, bary = barycentric_gradients(mesh)
        ref = np.einsum("sak,sk->sa", bary, u[ids])
        np.testing.assert_allclose(mesh.simplex_gradients(u), ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("dim, cells, half_width", _OPERATOR_MESHES)
    def test_centroids_are_vertex_means(self, dim, cells, half_width):
        mesh = BoxMesh(dim=dim, cells=cells, half_width=half_width)
        ids, _ = barycentric_gradients(mesh)
        np.testing.assert_allclose(mesh.simplex_centroids(),
                                   mesh.node_coords()[ids].mean(axis=1),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim, cells, half_width", _OPERATOR_MESHES)
    def test_operators_equal_per_permutation_loops(self, rng, dim, cells, half_width):
        # the loops sum in the same order, so the batched operators keep every bit
        mesh = BoxMesh(dim=dim, cells=cells, half_width=half_width)
        u = rng.standard_normal(mesh.n_nodes)
        df = rng.standard_normal((mesh.n_simplices, dim))
        tables = list(zip(mesh._vertex_ids, mesh._gmats))
        grads = np.concatenate([(g @ u[ids]).T for ids, g in tables], axis=0)
        scatter = np.zeros(mesh.n_nodes)
        for (ids, g), dfp in zip(tables, df.reshape(len(tables), mesh.n_cells, dim)):
            contrib = mesh.simplex_volume * dfp @ g
            for a in range(dim + 1):
                np.add.at(scatter, ids[a], contrib[:, a])
        assert np.array_equal(mesh.simplex_gradients(u), grads)
        assert np.array_equal(mesh.scatter_gradient(df), scatter)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradient_components_are_contiguous(self, rng, dim):
        mesh = BoxMesh(dim=dim, cells=4, half_width=1.0)
        g = mesh.simplex_gradients(rng.standard_normal(mesh.n_nodes))
        assert g.shape == (mesh.n_simplices, dim) and g.flags.f_contiguous


@pytest.mark.parametrize("dim, cells", [(2, 6), (2, 15), (3, 4)])
class TestHessianPattern:
    def test_assembly_matches_dense_reference(self, rng, dim, cells):
        mesh = BoxMesh(dim=dim, cells=cells, half_width=1.0)
        a = rng.standard_normal((mesh.n_simplices, dim, dim))
        d2f = a + a.transpose(0, 2, 1)
        interior = mesh.interior_mask
        ref = dense_hessian(mesh, d2f)[np.ix_(interior, interior)]
        block = mesh.assemble_hessian(d2f)
        assert isinstance(block, sparse.dia_matrix)
        np.testing.assert_allclose(block.toarray(), ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max())

    def test_stencil_has_7_diagonals_in_2d_and_15_in_3d(self, dim, cells):
        # node x couples with x +- e_S for the nonempty sets S of axes
        mesh = BoxMesh(dim=dim, cells=cells, half_width=1.0)
        strides = (cells - 1) ** np.arange(dim - 1, -1, -1)
        sums = [strides @ np.array(s) for s in np.ndindex((2,) * dim)]
        offsets = mesh.assemble_hessian(random_spd_d2f(np.random.default_rng(0),
                                                       mesh)).offsets
        assert len(offsets) == {2: 7, 3: 15}[dim]
        assert sorted(offsets) == sorted({sign * v for v in sums for sign in (1, -1)})

    def test_order_is_permutation_of_interior(self, dim, cells):
        mesh = BoxMesh(dim=dim, cells=cells, half_width=1.0)
        assert np.array_equal(np.sort(mesh.nd_order), np.arange(mesh.n_interior))

    def test_newton_step_matches_direct_solve(self, rng, dim, cells):
        # the LU of the block permuted into nested-dissection order, solved
        # in natural order
        mesh = BoxMesh(dim=dim, cells=cells, half_width=1.0)
        d2f = random_spd_d2f(rng, mesh)
        grad = rng.standard_normal(mesh.n_nodes)
        interior = mesh.interior_mask
        step = newton._factorize(mesh, mesh.assemble_hessian(d2f))(grad[interior])
        ref = np.linalg.solve(dense_hessian(mesh, d2f)[np.ix_(interior, interior)],
                              grad[interior])
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def test_singular_factorization_takes_levenberg_bump(monkeypatch):
    # the interior Laplacian block with one row and column zeroed is exactly
    # singular; the solve must go through the bumped system
    mesh = BoxMesh(dim=2, cells=6, half_width=1.0)
    d2f = np.broadcast_to(np.eye(2), (mesh.n_simplices, 2, 2))
    lap = mesh.assemble_hessian(d2f)
    keep = np.ones(lap.shape[0])
    keep[7] = 0.0
    block = (sparse.diags(keep) @ lap @ sparse.diags(keep)).tocsc()
    outcomes = []

    def counted_splu(matrix, **kwargs):
        try:
            lu = splu(matrix, **kwargs)
        except RuntimeError:
            outcomes.append("singular")
            raise
        outcomes.append("factored")
        return lu

    monkeypatch.setattr(newton, "splu", counted_splu)
    rhs = np.linspace(1.0, 2.0, lap.shape[0])
    x = newton._factorize(mesh, block)(rhs)
    assert outcomes == ["singular", "factored"]
    assert np.all(np.isfinite(x))
    # the bump is 1e-12 times the largest diagonal entry, 4 for this stencil
    bumped = block + 1e-12 * 4.0 * sparse.identity(block.shape[0])
    assert np.linalg.norm(bumped @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


class TestMultigridStep:
    @pytest.mark.parametrize("dim, cells", [(2, 16), (2, 32), (3, 16)])
    def test_pcg_step_matches_direct_solve(self, rng, dim, cells):
        mesh = BoxMesh(dim=dim, cells=cells, half_width=1.0)
        assert mesh.levels
        d2f = random_spd_d2f(rng, mesh)
        block = mesh.assemble_hessian(d2f)
        rhs = rng.standard_normal(block.shape[0])
        step, iterations, fell_back = newton._solve_step(mesh, d2f, rhs)
        ref = spsolve(block.tocsc(), rhs)
        assert not fell_back and 1 < iterations <= newton.PCG_MAX_ITER
        assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_prolongation_is_exact_on_the_kuhn_hierarchy(self, rng):
        # the Galerkin product of a fine block is the coarse mesh's own
        # assembly of the child-averaged D2F, for any SPD D2F
        for dim, cells in ((2, 32), (3, 16)):
            fine = BoxMesh(dim=dim, cells=cells, half_width=1.0)
            (coarse, prol, restrict), *_ = fine.levels
            assert coarse.cells == cells // 2
            assert prol.shape == ((cells - 1) ** dim, (cells // 2 - 1) ** dim)
            assert (restrict != prol.T).nnz == 0
            d2f = random_spd_d2f(rng, fine)
            galerkin = (restrict @ fine.assemble_hessian(d2f) @ prol).toarray()
            child = coarse.assemble_hessian(fine.child_mean(d2f)).toarray()
            np.testing.assert_allclose(child, galerkin, rtol=0,
                                       atol=1e-13 * np.abs(galerkin).max())

    @pytest.mark.parametrize("cells, levels", [(8, 0), (12, 1), (15, 0),
                                               (64, 3), (100, 2)])
    def test_coarsening_halves_even_counts_above_8(self, cells, levels):
        mesh = BoxMesh(dim=2, cells=cells, half_width=1.0)
        assert len(mesh.levels) == levels

    @pytest.mark.parametrize("name, params", [
        ("power", {"p": 3.0}), ("mixed", {"p": 2.0, "q": 4.0}),
        ("mixed", {"p": 3.0, "q": 4.0}), ("orthotropic", {"p": 4.0})])
    def test_iterations_per_step_bounded(self, monkeypatch, name, params):
        solve_step = newton._solve_step
        steps = []

        def recorded(*args):
            out = solve_step(*args)
            steps.append(out[1:])
            return out

        monkeypatch.setattr(newton, "_solve_step", recorded)
        spec = ProblemSpec(integrand=gallery(name, **params), cells=32,
                           boundary=make_boundary("radial_power", p=3.0),
                           source=make_source("constant", value=1.0))
        sol = minimize(spec)
        assert steps and max(its for its, _ in steps) <= 25
        assert not any(fell_back for _, fell_back in steps)
        # the stage records carry the PCG totals of their Newton steps
        stage_steps = sum(rec.iterations for rec in sol.history)
        assert sum(rec.linear_iterations for rec in sol.history) == \
            sum(its for its, _ in steps[-stage_steps:])
        assert [rec.lu_fallbacks for rec in sol.history] == [0] * 4

    def test_odd_cells_take_one_lu_iteration(self, rng):
        mesh = BoxMesh(dim=2, cells=15, half_width=1.0)
        assert mesh.levels == ()
        d2f = random_spd_d2f(rng, mesh)
        rhs = rng.standard_normal(mesh.n_interior)
        step, iterations, fell_back = newton._solve_step(mesh, d2f, rhs)
        ref = newton._factorize(mesh, mesh.assemble_hessian(d2f))(rhs)
        assert (iterations, fell_back) == (1, False)
        assert np.linalg.norm(step - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_cap_miss_falls_back_to_lu_and_is_counted(self, monkeypatch):
        # one PCG iteration cannot solve a coarsening mesh's system; the
        # quadratic energy's single Newton step is then exactly the LU step
        mesh = BoxMesh(dim=2, cells=16, half_width=1.0)
        quad = gallery("power", p=2.0)
        f_nodes = np.ones(mesh.n_nodes)
        u0 = np.zeros(mesh.n_nodes)
        monkeypatch.setattr(newton, "PCG_MAX_ITER", 1)
        result = newton._stage_newton(mesh, quad, f_nodes, u0, tol=1e-8, max_iter=2)
        assert (result.iterations, result.linear_iterations,
                result.lu_fallbacks) == (1, 1, 1)
        _, df, d2f = quad.jet(mesh.simplex_gradients(u0), 2)
        grad = mesh.scatter_gradient(df) + mesh.node_weights * f_nodes
        interior = mesh.interior_mask
        lu_step = np.zeros(mesh.n_nodes)
        lu_step[interior] = newton._factorize(mesh, mesh.assemble_hessian(d2f))(
            grad[interior])
        np.testing.assert_array_equal(result.u, u0 - lu_step)


    @pytest.mark.parametrize("cells", [6, 16])
    def test_zero_diagonal_goes_straight_to_lu(self, monkeypatch, cells):
        # D2F zeroed on the simplices around one node zeroes its row and
        # column, which leaves no Jacobi smoother: the step is the bumped LU
        # solve of the block, factored once, with no PCG iteration
        mesh = BoxMesh(dim=2, cells=cells, half_width=1.0)
        node = 2 * (cells + 1) + 3                       # the interior node (2, 3)
        d2f = np.array(np.broadcast_to(np.eye(2), (mesh.n_simplices, 2, 2)))
        d2f[(mesh._vertex_ids == node).any(axis=1).ravel()] = 0.0
        block = mesh.assemble_hessian(d2f)
        assert np.count_nonzero(block.diagonal() == 0.0) == 1
        rhs = np.linspace(1.0, 2.0, block.shape[0])
        outcomes = []

        def counted_splu(matrix, **kwargs):
            outcomes.append(matrix.shape[0])
            return splu(matrix, **kwargs)

        monkeypatch.setattr(newton, "splu", counted_splu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step, iterations, fell_back = newton._solve_step(mesh, d2f, rhs)
        # the singular attempt and the bumped factorization, both of the block
        assert outcomes == [block.shape[0]] * 2
        assert (iterations, fell_back) == (0, True)
        np.testing.assert_array_equal(step, newton._factorize(mesh, block)(rhs))

    @pytest.mark.parametrize("scale", [1e-46, 1e40])
    def test_d2f_beyond_float32_goes_straight_to_lu(self, rng, scale):
        # float32 flushes the block's diagonal to zero (underflow) or to
        # infinity (overflow), which leaves the float32 V-cycle no Jacobi
        # smoother: the step is the block's LU solve, with no PCG iteration
        mesh = BoxMesh(dim=2, cells=16, half_width=1.0)
        d2f = scale * np.broadcast_to(np.eye(2), (mesh.n_simplices, 2, 2))
        block = mesh.assemble_hessian(d2f)
        rhs = rng.standard_normal(block.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step, iterations, fell_back = newton._solve_step(mesh, d2f, rhs)
        assert (iterations, fell_back) == (0, True)
        np.testing.assert_array_equal(step, newton._factorize(mesh, block)(rhs))

    def test_vcycle_is_freed_without_the_cycle_collector(self, rng):
        # the cycle holds its levels (blocks, smoothers, coarsest LU) by
        # reference only, so dropping it frees every Newton step's operators
        mesh = BoxMesh(dim=2, cells=32, half_width=1.0)
        d2f = random_spd_d2f(rng, mesh)
        gc.disable()
        try:
            cycle = newton._vcycle(mesh, d2f, mesh.assemble_hessian(d2f))
            ref = weakref.ref(cycle)
            assert cycle(np.ones(mesh.n_interior)).shape == (mesh.n_interior,)
            del cycle
            assert ref() is None
        finally:
            gc.enable()


class TestHatNorm:
    @pytest.mark.parametrize("cells, half_width", [(4, 1.0), (16, 1.0), (10, 1.3)])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_2d_closed_form(self, cells, half_width, p):
        # six triangles: |Dphi| = 1/h on four, sqrt(2)/h on two
        mesh = BoxMesh(dim=2, cells=cells, half_width=half_width)
        h, vol = mesh.h, mesh.simplex_volume
        grads = np.array([1.0, 1.0, np.sqrt(2.0)] * 2) / h
        ref = (6 * vol * 2.0 / ((p + 1.0) * (p + 2.0))
               + vol * np.sum(grads ** p)) ** (1.0 / p)
        assert hat_norm_w1p(mesh, p) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_3d_matches_sum_over_the_24_tetrahedra(self, p):
        mesh = BoxMesh(dim=3, cells=4, half_width=1.0)
        node = 2 * (25 + 5 + 1)                          # the center (2, 2, 2)
        ids, grads = barycentric_gradients(mesh)
        coords = mesh.node_coords()
        simplex, slot = np.nonzero(ids == node)
        assert simplex.size == 24
        total = 0.0
        for s, k in zip(simplex, slot):
            vol = abs(np.linalg.det(coords[ids[s, 1:]] - coords[ids[s, 0]])) / 6.0
            # int lambda^p over a tetrahedron = vol 3! / ((p+1)(p+2)(p+3))
            total += vol * 6.0 / ((p + 1.0) * (p + 2.0) * (p + 3.0))
            total += vol * np.linalg.norm(grads[s][:, k]) ** p
        assert hat_norm_w1p(mesh, p) == pytest.approx(total ** (1.0 / p), rel=1e-13)


class TestEnergyAssembly:
    def test_affine_on_unit_box(self):
        # F = |z|^2/2, w = x1 on [-1,1]^2, f = 0: energy = |Omega|/2 = 2
        mesh = BoxMesh(dim=2, cells=16, half_width=1.0)
        u = mesh.node_coords()[:, 0]
        e = assemble_energy(mesh, gallery("power", p=2), u,
                            np.zeros(mesh.n_nodes))
        assert e == pytest.approx(2.0, rel=1e-13)

    def test_zero_boundary_harmonic(self):
        mesh = BoxMesh(dim=2, cells=8, half_width=1.0)
        e = assemble_energy(mesh, gallery("power", p=2),
                            np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
        assert e == 0.0

    def test_radial_energy_matches_radial_quadrature(self):
        # int_{B_0.9} |D(c r^{p'})|^p / p dx by the 1-D radial oracle, against
        # simplex quadrature with fractional disk weights on a fine mesh
        from scipy.integrate import quad
        p = 3.0
        mesh = BoxMesh(dim=2, cells=4096, half_width=1.0)
        u = radial_power_solution(p)(mesh.node_coords())
        g = mesh.simplex_gradients(u)
        dens = np.linalg.norm(g, axis=1) ** p / p
        cell_dens = dens.reshape(2, mesh.n_cells).mean(axis=0)
        w = disk_cell_weights(mesh.cell_centers(), mesh.h, (0.0, 0.0), 0.9)
        fem_val = float(np.sum(w * cell_dens) * mesh.h ** 2)
        integrand = lambda r: (r / 2.0) ** (p / (p - 1.0)) / p * 2 * np.pi * r
        ref = quad(integrand, 0.0, 0.9)[0]
        assert fem_val == pytest.approx(ref, rel=1e-6)


class TestMinimize:
    def test_poisson_matches_five_point_oracle(self):
        # Delta u = f with f = 4, g = |x|^2: exact solution u = |x|^2; the
        # discrete minimizer must coincide with the 5-point solve
        n = 24
        spec = ProblemSpec(integrand=gallery("power", p=2), cells=n,
                           boundary=make_boundary("quadratic"),
                           source=make_source("constant", value=4.0))
        sol = minimize(spec)
        oracle = five_point_solution(n, 4.0, make_boundary("quadratic"))
        assert np.max(np.abs(sol.u - oracle)) < 1e-10
        exact = np.sum(sol.mesh.node_coords() ** 2, axis=1)
        assert np.max(np.abs(sol.u - exact)) < 1e-10

    def test_quadratic_stages_single_newton_step(self):
        spec = ProblemSpec(integrand=gallery("power", p=2), cells=16,
                           boundary=make_boundary("quadratic"),
                           source=make_source("constant", value=4.0))
        sol = minimize(spec)
        assert all(rec.iterations <= 1 for rec in sol.history)

    def test_affine_data_affine_solution(self, rng):
        # f = 0 with affine boundary: the affine extension minimizes, and the
        # stress is the constant DF(slope)
        slope = np.array([0.8, -0.4])
        spec = ProblemSpec(integrand=gallery("power", p=3), cells=16,
                           boundary=make_boundary("affine", slope=list(slope)),
                           source=make_source("zero"))
        sol = minimize(spec)
        expected = sol.mesh.node_coords() @ slope
        assert np.max(np.abs(sol.u - expected)) < 1e-9
        v = sol.stress_cells
        df = gallery("power", p=3).gradient(slope)
        assert np.max(np.abs(v - df)) < 1e-8

    def test_energy_monotone_within_stages(self, p3_solution):
        for rec in p3_solution.history:
            diffs = np.diff(rec.energies)
            assert np.all(diffs <= 1e-12)

    def test_coupling_terms_decay(self, p3_solution):
        terms = [rec.coupling_term for rec in p3_solution.history]
        assert all(a >= b for a, b in zip(terms, terms[1:]))
        assert terms[-1] < 1e-3

    def test_boundary_terms_vanish(self, p3_solution):
        terms = [rec.boundary_term for rec in p3_solution.history]
        assert all(a >= b for a, b in zip(terms, terms[1:]))
        assert terms[-1] == 0.0

    def test_stage_energies_approach_limit(self, p3_solution):
        # limsup J_n(v_n) <= J(u): late-stage energies must not exceed the
        # final energy by more than the vanishing regularization terms
        stage_e = [rec.energy for rec in p3_solution.history]
        assert stage_e[-1] == pytest.approx(p3_solution.energy, abs=1e-12)
        gaps = [abs(e - p3_solution.energy) for e in stage_e]
        assert gaps[-2] < gaps[0]

    def test_p3_w1p_error_halves(self):
        errs = []
        for n in (16, 32, 64):
            sol = minimize(radial_spec(3.0, n))
            errs.append(w1p_error(sol, radial_power_solution(3.0),
                                  radial_power_gradient(3.0), 3.0))
        assert errs[0] / errs[1] > 1.5
        assert errs[1] / errs[2] > 1.5

    def test_p3_3d_cascade_matches_radial_oracle(self):
        # the advertised N = 3 path, end to end, on meshes that include 12^3
        # (where the kernel-sweep cascade once spun in its line search)
        exact = radial_power_solution(3.0, dim=3)
        errs = []
        for cells in (12, 16):
            spec = ProblemSpec(integrand=gallery("power", p=3.0, dim=3), cells=cells,
                               boundary=make_boundary("radial_power", p=3.0, dim=3),
                               source=make_source("constant", value=1.0))
            sol = minimize(spec)  # raises NumericError if a stage fails
            assert [rec.grad_norm <= 1e-10 for rec in sol.history] == [True] * 4
            errs.append(float(np.max(np.abs(sol.u - exact(sol.mesh.node_coords())))))
        assert errs[1] < errs[0] < 1e-2

    def test_p3_3d_cascade_32_matches_radial_oracle(self):
        # 32^3 coarsens twice (32 -> 16 -> 8): every stage converges with
        # no LU fallback, and the nodal error falls from 16^3
        exact = radial_power_solution(3.0, dim=3)
        errs = []
        for cells in (16, 32):
            spec = ProblemSpec(integrand=gallery("power", p=3.0, dim=3), cells=cells,
                               boundary=make_boundary("radial_power", p=3.0, dim=3),
                               source=make_source("constant", value=1.0))
            sol = minimize(spec)
            assert [rec.grad_norm <= 1e-10 for rec in sol.history] == [True] * 4
            assert [rec.lu_fallbacks for rec in sol.history] == [0] * 4
            assert sol.warm_start == "ok"
            errs.append(float(np.max(np.abs(sol.u - exact(sol.mesh.node_coords())))))
        assert errs[1] < errs[0] < 1e-2

    def test_anisotropic_cascade_converges_at_roundoff(self):
        # stage 1 of this cascade at 48^2 reaches the round-off of its energy
        # with the gradient norm still above tol; under the plain Armijo test
        # Newton then takes noise steps of t ~ 1e-6 until max_iter
        spec = ProblemSpec(integrand=gallery("mixed", p=2.2, q=3.5), cells=48,
                           boundary=make_boundary("radial_power", p=3.0),
                           source=make_source("constant", value=1.0))
        sol = minimize(spec)
        assert [rec.grad_norm <= 1e-10 for rec in sol.history] == [True] * 4
        assert [rec.lu_fallbacks for rec in sol.history] == [0] * 4
        assert sol.energy == pytest.approx(1.947731584731311, rel=1e-12)

    def test_failed_warm_start_is_reported(self, monkeypatch):
        def fail(*args):
            raise NumericError("line search stalled at iteration 0")

        monkeypatch.setattr(newton, "_harmonic_warm_start", fail)
        sol = minimize(radial_spec(3.0, 16))
        assert sol.warm_start == "line search stalled at iteration 0"

    def test_ascent_step_raises(self, monkeypatch):
        # a step that does not descend ends the solve with its iteration and grad norm
        solve = newton._solve_step

        def negated(*args):
            step, iterations, fell_back = solve(*args)
            return -step, iterations, fell_back

        monkeypatch.setattr(newton, "_solve_step", negated)
        with pytest.raises(NumericError, match=r"stage 0 .*not a descent direction "
                                               r"at iteration 0 \(grad norm"):
            minimize(radial_spec(3.0, 16))

    def test_el_residual_small_at_minimizer(self, p3_solution):
        assert euler_lagrange_residual(p3_solution) < 1e-8

    def test_el_residual_large_at_perturbation(self, p3_solution):
        import dataclasses
        bad_u = p3_solution.u.copy()
        interior = p3_solution.mesh.interior_mask
        rng = np.random.default_rng(0)
        bad_u[interior] += 0.05 * rng.standard_normal(interior.sum())
        bad = dataclasses.replace(p3_solution, u=bad_u)
        assert euler_lagrange_residual(bad) > 1e3 * \
            euler_lagrange_residual(p3_solution)

    def test_bad_schedule_rejected(self):
        with pytest.raises(InputError):
            RegularizationSchedule(((0.01, 0.01), (0.1, 0.0)))


class TestDiskWeights:
    def test_total_area(self):
        mesh = BoxMesh(dim=2, cells=128, half_width=1.0)
        w = disk_cell_weights(mesh.cell_centers(), mesh.h, (0.1, -0.2), 0.5)
        area = w.sum() * mesh.h ** 2
        assert area == pytest.approx(np.pi * 0.25, rel=1e-4)

    def test_indicator_limits(self):
        mesh = BoxMesh(dim=2, cells=32, half_width=1.0)
        w = disk_cell_weights(mesh.cell_centers(), mesh.h, (0.0, 0.0), 0.5)
        assert np.all((w >= 0.0) & (w <= 1.0))


class TestSobolevReport:
    def test_affine_solution_zero_seminorm(self):
        slope = np.array([0.8, -0.4])
        spec = ProblemSpec(integrand=gallery("power", p=3), cells=32,
                           boundary=make_boundary("affine", slope=list(slope)),
                           source=make_source("zero"))
        sol = minimize(spec)
        rep = sobolev_report(sol, (0.0, 0.0), 0.2, m=2.0)
        assert rep.dv_lm_b < 1e-8
        assert rep.c_meas == pytest.approx(rep.v_lm_b / rep.v_ltheta_2b, rel=1e-10)
        assert np.isfinite(rep.c_meas)

    def test_p3_c_meas_stable(self):
        cs = []
        for n in (32, 64, 128):
            sol = minimize(radial_spec(3.0, n))
            cs.append(sobolev_report(sol, (0.2, 0.1), 0.15, m=2.0).c_meas)
        assert cs[0] >= cs[1] >= cs[2]
        assert cs[0] - cs[2] < 0.05 * cs[0]

    def test_c_meas_nondecreasing_in_ratio_bound(self):
        # spot check on the power family at a fixed theta: constants for the
        # better-conditioned integrands sit at or below the worse ones
        cs = []
        for p in (2.0, 2.5, 3.0):
            spec = ProblemSpec(integrand=gallery("power", p=p), cells=64,
                               boundary=make_boundary("radial_power", p=p),
                               source=make_source("constant", value=1.0))
            sol = minimize(spec)
            cs.append(sobolev_report(sol, (0.2, 0.1), 0.15, m=2.0, theta=0.75).c_meas)
        assert cs[0] <= cs[1] * (1.0 + 1e-9) <= cs[2] * (1.0 + 1e-9)

    def test_p2_smooth_source_c_meas_stable(self):
        # classical case: quadratic integrand, smooth data
        cs = []
        for n in (64, 128):
            spec = ProblemSpec(integrand=gallery("power", p=2), cells=n,
                               boundary=make_boundary("quadratic"),
                               source=make_source("constant", value=4.0))
            sol = minimize(spec)
            cs.append(sobolev_report(sol, (0.2, 0.1), 0.15, m=2.0).c_meas)
        assert cs[0] == pytest.approx(cs[1], rel=0.02)

    def test_default_theta_from_growth(self, p3_solution):
        rep = sobolev_report(p3_solution, (0.2, 0.1), 0.15, m=2.0)
        # K = 2 gives p = 1.5, q = 3: theta = min{p/(q-1), 1} = 0.75
        assert rep.theta == pytest.approx(0.75)

    def test_4b_containment_enforced(self, p3_solution):
        with pytest.raises(PreconditionError):
            sobolev_report(p3_solution, (0.5, 0.5), 0.3, m=2.0)


class TestConfig:
    def test_radial_power_trace_takes_the_problem_dimension(self, rng):
        cfg = {"version": 1, "problem": {
            "integrand": {"name": "power", "dim": 3, "params": {"p": 3.0}},
            "boundary": {"kind": "radial_power", "params": {"p": 3.0}}}}
        x = rng.uniform(-1.0, 1.0, (20, 3))
        trace = load_problem_config(cfg)[0].boundary(x)
        assert np.array_equal(trace, radial_power_solution(3.0, dim=3)(x))
        assert not np.allclose(trace, radial_power_solution(3.0)(x))

    @pytest.mark.parametrize("cfg", [[1, 2], 3.5, None])
    def test_config_of_the_wrong_type_is_an_input_error(self, cfg):
        # only a str or Path names a file; any other non-dict is malformed
        with pytest.raises(InputError, match="config must be a JSON object"):
            load_problem_config(cfg)
