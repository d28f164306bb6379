"""Tests for the closed-form radial solver and C^{p'} diagnostics."""

import numpy as np
import pytest
from scipy import integrate

from quclab.errors import InputError, PreconditionError
from quclab import radial


def problem(p, dim=2, c=1.0, a=0.0, r_max=1.0):
    return radial.RadialProblem(dim=dim, p=p, r_max=r_max, c=c, a=a)


def psolve(p, dim=2, num=4097, c=1.0, a=0.0, r_max=1.0):
    return radial.solve_radial(problem(p, dim, c, a, r_max), num=num)


class TestSolveRadial:
    def test_power_const_source_hand_integration(self):
        # a(t) = t^(p-2), f = 1, r0 = 0: T = r/N, v' = (r/N)^(1/(p-1)),
        # v = (p-1)/p N^(-1/(p-1)) r^(p/(p-1)) + const
        p, dim = 3.0, 2
        sol = psolve(p, dim)
        r = sol.r
        assert np.allclose(sol.flux, r / dim, atol=1e-12)
        assert np.allclose(sol.v_prime, (r / dim) ** (1.0 / (p - 1.0)), atol=1e-12)
        expected_v = (p - 1.0) / p * dim ** (-1.0 / (p - 1.0)) * r ** (p / (p - 1.0))
        assert np.allclose(sol.v - sol.v[-1], expected_v - expected_v[-1], atol=1e-8)

    def test_cross_check_p_laplacian_of_power(self):
        # Delta_p(c r^{p'}) = N (c p')^{p-1} = 1 picks c = ((p-1)/p) N^{-1/(p-1)}
        p, dim = 3.0, 2
        c = (p - 1.0) / p * dim ** (-1.0 / (p - 1.0))
        assert dim * (c * p / (p - 1.0)) ** (p - 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_zero_source_constant_solution(self):
        sol = psolve(2.5, c=0.0)
        assert np.max(np.abs(sol.flux)) == 0.0
        assert np.max(np.abs(sol.v - sol.v[0])) < 1e-14

    def test_laplacian_paraboloid(self):
        sol = psolve(2.0, dim=3)
        expected = sol.r ** 2 / 6.0
        assert np.allclose(sol.v - sol.v[-1], expected - expected[-1], atol=1e-10)

    def test_flux_identity_defect(self):
        for p in (1.2, 2.0, 3.0):
            sol = psolve(p)
            assert radial.flux_identity_defect(sol)[0] < 1e-10

    @pytest.mark.parametrize("p", [3.0, 6.0])
    def test_origin_value_is_exact(self, p):
        # f = 1 in 2-D: v(0) = -(p-1)/p 2^(-1/(p-1)), where v' ~ r^(1/(p-1))
        # is least smooth
        sol = psolve(p)
        exact = -(p - 1.0) / p * 2.0 ** (-1.0 / (p - 1.0))
        assert sol.v[0] == pytest.approx(exact, rel=1e-14)


class TestSourceIntegral:
    # the closed-form flux against scipy's quad of c s^(N-1+a) on 33 radii
    @pytest.mark.parametrize("c, a", [(0.0, 0.0), (1.0, 0.0), (1.0, -0.5), (1.0, 0.5),
                                      (1.0, 2.0)],
                             ids=["zero", "one", "power-minus-half", "power-half",
                                  "power-two"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_flux_identity_defect(self, dim, c, a):
        sol = psolve(2.0, dim=dim, c=c, a=a)
        assert radial.flux_identity_defect(sol)[0] < 1e-10

    @pytest.mark.parametrize("a", [-3.0, -2.0])
    def test_non_integrable_source_raises(self, a):
        # s^(N-1) f = s^(a+1) is not integrable at 0 in 2-D
        with pytest.raises(InputError, match="N \\+ a > 0"):
            psolve(2.0, a=a)

    def test_no_scalar_quad_on_solve_path(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("scalar quad on the solve path")

        monkeypatch.setattr(radial.integrate, "quad", no_quad)
        psolve(3.0, num=8193)


class TestStress:
    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 6.0])
    def test_stress_is_x_over_n(self, p, rng):
        # Delta_p u = 1 gives V = x / N for every p
        prob = problem(p)
        pts = rng.uniform(-0.5, 0.5, size=(200, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.05]
        grid = radial.stress_of(prob, pts)
        assert np.max(np.abs(grid.values - pts / 2.0)) < 1e-10

    def test_gradient_symmetric(self, rng):
        prob = problem(3.0, a=0.5)
        pts = rng.uniform(-0.6, 0.6, size=(100, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.1]
        grid = radial.stress_of(prob, pts)
        skew = grid.gradients - np.swapaxes(grid.gradients, -1, -2)
        assert np.max(np.abs(skew)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        prob = problem(3.0)
        pts = np.array([[0.3, 0.1], [0.2, -0.4], [0.5, 0.5]])
        grid = radial.stress_of(prob, pts)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1.0
            vp = radial.stress_of(prob, pts + h * e).values
            vm = radial.stress_of(prob, pts - h * e).values
            fd = (vp - vm) / (2.0 * h)
            assert np.allclose(fd, grid.gradients[:, :, j], atol=1e-5)

    def test_takes_the_problem_and_solves_nothing(self, monkeypatch, rng):
        # the closed form reads only the problem: no sampled profile is built
        monkeypatch.setattr(radial, "solve_radial",
                            lambda *a, **k: pytest.fail("stress_of solved the profile"))
        pts = rng.uniform(0.1, 0.5, size=(20, 3))
        grid = radial.stress_of(radial.RadialProblem(dim=3, p=3.0, r_max=1.0, c=1.0, a=0.0),
                                pts)
        assert np.max(np.abs(grid.values - pts / 3.0)) < 1e-15

    def test_zero_source_zero_stress(self, rng):
        prob = problem(3.0, c=0.0)
        pts = rng.uniform(0.1, 0.5, size=(20, 2))
        assert np.max(np.abs(radial.stress_of(prob, pts).values)) == 0.0

    @pytest.mark.parametrize("dim, a", [(2, 0.5), (2, -0.5), (3, 2.0)])
    def test_closed_form_values_and_radial_gradient(self, dim, a, rng):
        # V = h x with h = c r^a/(N+a), and DV x/r = T' x/r with T' = (1+a) h
        prob = problem(3.0, dim=dim, a=a)
        pts = rng.uniform(-0.55, 0.55, size=(300, dim))
        r = np.linalg.norm(pts, axis=1)
        pts, r = pts[(r > 0.05) & (r <= 1.0)], r[(r > 0.05) & (r <= 1.0)]
        grid = radial.stress_of(prob, pts)
        h = r ** a / (dim + a)
        np.testing.assert_allclose(grid.values, h[:, None] * pts, rtol=1e-13, atol=0.0)
        radial_part = np.einsum("mij,mj->mi", grid.gradients, pts / r[:, None])
        np.testing.assert_allclose(radial_part, ((1.0 + a) * h / r)[:, None] * pts,
                                   rtol=1e-13, atol=1e-13 * np.max(np.abs(h)))


class TestStressNorms:
    # the closed-form norms against scipy's quad of r^(N-1) (coef r^g)^m
    @staticmethod
    def quad_norm(dim, coef, g, m, radius):
        val, _ = integrate.quad(lambda r: r ** (dim - 1) * (coef * r ** g) ** m, 0.0,
                                radius, epsabs=0.0, epsrel=1e-13, limit=200)
        return (radial.sphere_area(dim) * val) ** (1.0 / m)

    @pytest.mark.parametrize("p, m, a, dim", [(3.0, 2.0, 0.0, 2), (3.0, 4.0, 0.0, 2),
                                              (3.0, 1.5, 0.5, 3), (3.0, 2.0, -0.225, 2),
                                              (3.0, 3.9, -0.5, 2)])
    def test_matches_quad(self, p, m, a, dim):
        prob = radial.RadialProblem(dim=dim, p=p, r_max=1.0, c=1.0, a=a)
        k = 1.0 / (dim + a)
        norms = radial.stress_wm_norm(prob, m, 0.5)
        assert norms["lm"] == pytest.approx(self.quad_norm(dim, k, 1.0 + a, m, 0.5),
                                            rel=1e-12)
        frob = k * np.sqrt(dim - 1.0 + (1.0 + a) ** 2)
        assert norms["seminorm"] == pytest.approx(self.quad_norm(dim, frob, a, m, 0.5),
                                                  rel=1e-12)
        assert radial.source_lm_norm(prob, m, 1.0) == pytest.approx(
            self.quad_norm(dim, 1.0, a, m, 1.0), rel=1e-12)


class TestHolderExponent:
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    def test_recovers_pure_powers(self, gamma):
        r = np.linspace(0.0, 1.0, 8193)
        fit = radial.holder_exponent(r, r ** gamma)
        assert fit.exponent == pytest.approx(gamma, abs=0.03)

    def test_affine_is_lipschitz(self):
        r = np.linspace(0.0, 1.0, 4097)
        fit = radial.holder_exponent(r, 3.0 * r - 1.0)
        assert fit.exponent == pytest.approx(1.0, abs=0.01)

    def test_constant_degenerate(self):
        r = np.linspace(0.0, 1.0, 4097)
        fit = radial.holder_exponent(r, np.ones_like(r))
        assert fit.degenerate and fit.exponent == 1.0

    def test_p3_gradient_exponent_half(self):
        sol = psolve(3.0, num=8193)
        fit = radial.holder_exponent(sol.r, sol.v_prime)
        assert fit.exponent == pytest.approx(0.5, abs=0.05)

    def test_u_exponent_is_p_prime(self):
        # u = c r^{p'} has Du exponent 1/(p-1) = p' - 1, so u sits in C^{p'}
        p = 3.0
        sol = psolve(p, num=8193)
        fit = radial.holder_exponent(sol.r, sol.v_prime)
        assert 1.0 + fit.exponent == pytest.approx(p / (p - 1.0), abs=0.05)

    def test_too_narrow_window_rejected(self):
        r = np.linspace(0.0, 1.0, 64)
        with pytest.raises(PreconditionError):
            radial.holder_exponent(r, r ** 0.5)


class TestCpPrimeVerify:
    def test_p3_bounded_source(self):
        rep = radial.cp_prime_verify(3.0, m=4.0)
        assert rep.meets_target
        assert rep.gradient_exponent == pytest.approx(0.5, abs=0.05)
        assert np.isfinite(rep.stress_w1m) and rep.stress_w1m > 0.0

    def test_p15_clamps_at_lipschitz(self):
        rep = radial.cp_prime_verify(1.5, m=4.0)
        assert rep.meets_target
        assert rep.gradient_exponent == pytest.approx(1.0, abs=0.05)
        assert rep.solution_exponent >= 1.9

    def test_barely_integrable_source_stable_ratio(self):
        # f(r) = r^(-beta) with beta m < N keeps f in L^m; the W^{1,m} ratio
        # should be stable under radial refinement
        m, dim = 2.0, 2
        beta = 0.45 * dim / m
        r1 = radial.cp_prime_verify(3.0, m=m, a=-beta, num=4097)
        r2 = radial.cp_prime_verify(3.0, m=m, a=-beta, num=8193)
        assert np.isfinite(r1.stress_w1m) and np.isfinite(r2.stress_w1m)
        assert r1.ratio == pytest.approx(r2.ratio, rel=0.02)


class TestAlphaP:
    def test_p2_classical(self):
        rep = radial.alpha_p(2, 2.0)
        assert rep.admissible and np.isinf(rep.m_p)
        assert rep.alpha_p == pytest.approx(1.0)

    def test_hand_value_p201(self):
        rep = radial.alpha_p(2, 2.01)
        assert rep.m_p == pytest.approx(12.5, rel=1e-12)
        assert rep.alpha_p == pytest.approx((1.0 - 0.16) / 1.01, rel=1e-12)
        assert rep.alpha_p == pytest.approx(0.8317, abs=2e-4)
        assert rep.admissible and rep.m_p_above_dim
        assert rep.cordes_margin < 1.0

    def test_admissibility_flip_at_sixteenth(self):
        assert radial.alpha_p(2, 2.0624).admissible
        assert not radial.alpha_p(2, 2.0626).admissible
        assert not radial.alpha_p(2, 2.0 + 1.0 / 16.0).admissible
        assert radial.alpha_p(2, 2.0 - 0.0624).admissible

    def test_p_below_two_branch(self):
        rep = radial.alpha_p(2, 1.95)
        assert rep.alpha_p == pytest.approx(1.0 - 16.0 * 0.05, rel=1e-10)
        assert rep.admissible
