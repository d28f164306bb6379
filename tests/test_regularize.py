"""Tests for mollification, proximal map, Moreau-Yosida and local extension."""

import itertools

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import beta as beta_fn, gamma

from quclab.errors import InputError, PreconditionError
from quclab.integrands import (
    AnnulusSampler,
    MollifierRule,
    eigen_ratio_batch,
    estimate_K,
    extend_local,
    gallery,
    kernel_second_moment,
    mollify,
    moreau_yosida,
    prox_point,
)


class TestKernelRule:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_weights_positive_unit_mass(self, dim):
        rule = MollifierRule.build(dim)
        assert np.all(rule.weights > 0.0)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.linalg.norm(rule.nodes, axis=1) < 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_second_moment_matches_beta_formula(self, dim):
        rule = MollifierRule.build(dim)
        quad_moment = np.sum(rule.weights * np.sum(rule.nodes ** 2, axis=1))
        assert quad_moment == pytest.approx(kernel_second_moment(dim, 1.0), rel=1e-14)

    def test_polynomial_exactness_degree_six(self, rng):
        # spot check: an even degree-6 polynomial integrates exactly against
        # the kernel (odd parts vanish by symmetry of the rule)
        rule = MollifierRule.build(2)
        x, y = rule.nodes[:, 0], rule.nodes[:, 1]
        quad_val = np.sum(rule.weights * x ** 2 * y ** 4)
        # polar oracle: int r^6 cos^2 sin^4 * c2 (1-r^2)^4 r dr dtheta
        from scipy.integrate import quad
        c2 = 5.0 / np.pi
        radial = quad(lambda r: r ** 7 * (1 - r * r) ** 4, 0.0, 1.0)[0]
        angular = quad(lambda t: np.cos(t) ** 2 * np.sin(t) ** 4, 0.0, 2 * np.pi)[0]
        assert quad_val == pytest.approx(c2 * radial * angular, rel=1e-13)


def _kernel_moment(alpha) -> float:
    """Closed-form E[y^alpha] under the normalized kernel (1 - |y|^2)^4 on the unit ball."""
    if any(a % 2 for a in alpha):
        return 0.0
    n, deg = len(alpha), sum(alpha)
    sphere = np.prod([gamma((a + 1) / 2.0) for a in alpha]) / gamma((deg + n) / 2.0)
    mass = gamma(0.5) ** n / gamma(n / 2.0) * beta_fn(n / 2.0, 5.0)
    return sphere * beta_fn((deg + n) / 2.0, 5.0) / mass


class TestKernelRuleExactness:
    @pytest.mark.parametrize("dim, nodes", [(1, 8), (2, 64), (3, 512)])
    def test_moments_exact_to_degree_15(self, dim, nodes):
        rule = MollifierRule.build(dim)
        assert rule.nodes.shape == (nodes, dim)
        for alpha in itertools.product(range(16), repeat=dim):
            if sum(alpha) > 15:
                continue
            got = np.sum(rule.weights * np.prod(rule.nodes ** np.array(alpha), axis=1))
            want = _kernel_moment(alpha)
            if want == 0.0:
                assert abs(got) <= 1e-15, alpha
            else:
                assert got == pytest.approx(want, rel=1e-13), alpha

    @pytest.mark.parametrize("dim", [0, 4])
    def test_unsupported_dimension_rejected(self, dim):
        with pytest.raises(InputError):
            MollifierRule.build(dim)


class TestMollify:
    def test_quadratic_constant_shift(self, rng):
        f = gallery("power", p=2)
        eps = 0.3
        g = mollify(f, eps)
        z = rng.standard_normal((20, 2))
        shift = g.value(z) - f.value(z)
        expected = 0.5 * kernel_second_moment(2, eps)
        assert np.allclose(shift, expected, rtol=1e-13)
        assert np.allclose(g.gradient(z), f.gradient(z), atol=1e-14)

    def test_c1_convergence_monotone(self):
        z = np.array([1.3, -0.4])
        for f in (gallery("power", p=3), gallery("cantor", level=6)):
            gaps = []
            for eps in (0.4, 0.2, 0.1, 0.05, 0.025):
                g = mollify(f, eps)
                gaps.append(abs(float(g.value(z)) - float(f.value(z))))
            # convex integrand: the mollification gap is nonnegative and
            # nonincreasing along a decreasing eps sequence
            assert all(g >= -1e-15 for g in gaps)
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-2

    def test_cantor_ratio_preserved(self):
        f = gallery("cantor", level=8)
        g = mollify(f, 0.1)
        pts = AnnulusSampler(0.5, 2.5, shells=40, directions=25, seed=2).points(2)
        ratios = eigen_ratio_batch(g, pts)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() <= f.declared_K + 1e-3

    def test_gallery_ratio_preserved(self):
        for f in (gallery("power", p=3), gallery("power", p=1.5),
                  gallery("two_center", p=2.5, z0=[0.4, 0.0]),
                  gallery("uhlenbeck", profile="bounded_power", p=4)):
            g = mollify(f, 0.05)
            est = estimate_K(g, AnnulusSampler(0.5, 2.5, shells=40, directions=25, seed=4))
            assert est <= f.declared_K + 1e-3, f.name

    def test_bad_eps_rejected(self):
        with pytest.raises(InputError):
            mollify(gallery("power", p=2), 0.0)


class TestProx:
    def test_quadratic_halves(self, rng):
        f = gallery("power", p=2)
        z = rng.standard_normal((6, 2))
        assert np.allclose(prox_point(f, 1.0, z), 0.5 * z, atol=1e-12)

    def test_minimizer_fixed_point(self):
        f = gallery("two_center", p=2.5, z0=[0.3, 0.1])
        assert np.allclose(prox_point(f, 0.7, f.minimizer), f.minimizer, atol=1e-12)

    def test_quartic_scalar_root(self):
        # P + 0.5 |P|^2 P = (1, 0): radial scalar equation t + 0.5 t^3 = 1
        f = gallery("power", p=4)
        t_star = brentq(lambda t: t + 0.5 * t ** 3 - 1.0, 0.0, 1.0, xtol=1e-15)
        p = prox_point(f, 0.5, np.array([1.0, 0.0]))
        assert p[1] == pytest.approx(0.0, abs=1e-14)
        assert p[0] == pytest.approx(t_star, abs=1e-11)
        assert t_star == pytest.approx(0.7709, abs=2e-4)

    def test_one_lipschitz(self, rng):
        for f in (gallery("power", p=3), gallery("cantor", level=6),
                  gallery("two_center", p=1.5, z0=[0.5, 0.0])):
            z1 = 2.0 * rng.standard_normal((400, 2))
            z2 = 2.0 * rng.standard_normal((400, 2))
            p1 = prox_point(f, 0.8, z1)
            p2 = prox_point(f, 0.8, z2)
            lhs = np.linalg.norm(p1 - p2, axis=1)
            rhs = np.linalg.norm(z1 - z2, axis=1)
            assert np.all(lhs <= rhs * (1.0 + 1e-9) + 1e-11), f.name


class TestMoreauYosida:
    def test_quadratic_closed_form(self, rng):
        f = gallery("power", p=2)
        g = moreau_yosida(f, 1.0)
        z = rng.standard_normal((10, 2))
        assert np.allclose(g.value(z), 0.25 * np.sum(z * z, axis=-1), atol=1e-12)

    def test_hessian_eigenvalue_map(self):
        # integrand with D2F = 2 I; at delta = 0.5 the regularized eigenvalue
        # is 2 / (1 + 0.5 * 2) = 1
        f = gallery("gh", p=2, matrix=[[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]])
        g = moreau_yosida(f, 0.5)
        eig = np.linalg.eigvalsh(g.hessian(np.array([0.7, -0.2])))
        assert np.allclose(eig, 1.0, atol=1e-10)

    def test_ratio_never_above_base(self, rng):
        f = gallery("power", p=3)
        g = moreau_yosida(f, 0.4)
        pts = AnnulusSampler(0.4, 2.0, shells=30, directions=20, seed=7).points(2)
        ratios = eigen_ratio_batch(g, pts)
        assert np.all(ratios <= f.declared_K + 1e-3)

    def test_ratio_pointwise_below_base_at_prox(self):
        # the eigenvalue map l -> l/(1 + delta l) shrinks ratios pointwise,
        # so the regularized ratio at z sits below the base ratio at P(z)
        f = gallery("uhlenbeck", profile="bounded_power", p=4)
        g = moreau_yosida(f, 0.4)
        pts = AnnulusSampler(0.4, 2.0, shells=20, directions=10, seed=3).points(2)
        r_my = eigen_ratio_batch(g, pts)
        r_base = eigen_ratio_batch(f, prox_point(f, 0.4, pts))
        assert np.all(r_my <= r_base * (1.0 + 1e-9))

    def test_gradient_matches_fd(self, rng):
        f = gallery("power", p=3)
        g = moreau_yosida(f, 0.6)
        z = rng.standard_normal((30, 2)) * 1.5
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1.0
            fd = (g.value(z + h * e) - g.value(z - h * e)) / (2.0 * h)
            an = g.gradient(z)[:, j]
            assert np.allclose(fd, an, rtol=1e-5, atol=1e-7)


class TestExtendLocal:
    def test_agreement_region_exact(self, rng):
        f = gallery("mixed", p=3, q=4)
        g = extend_local(f, R=2.0, sigma=0.5, eps_floor=1e-6)
        z = rng.standard_normal((50, 2))
        z = z / np.linalg.norm(z, axis=1, keepdims=True) * \
            rng.uniform(0.05, 0.99, size=(50, 1))  # inside B_{sigma R}
        assert np.array_equal(g.value(z), f.value(z))
        assert np.array_equal(g.gradient(z), f.gradient(z))

    def test_quadratic_growth_on_rays(self):
        f = gallery("mixed", p=3, q=4)
        g = extend_local(f, R=2.0, sigma=0.5, eps_floor=1e-6)
        for direction in (np.array([1.0, 0.0]), np.array([0.6, -0.8])):
            radii = np.array([4.0, 8.0, 16.0, 64.0])
            vals = g.value(radii[:, None] * direction)
            assert np.all(vals >= 0.2 * radii ** 2)

    def test_extended_ratio_finite(self, rng):
        f = gallery("mixed", p=3, q=4)
        g = extend_local(f, R=2.0, sigma=0.5, eps_floor=1e-6)
        pts = np.concatenate([
            AnnulusSampler(0.05, 1.9, shells=30, directions=20, seed=1).points(2),
            AnnulusSampler(2.1, 50.0, shells=30, directions=20, seed=2).points(2),
        ])
        ratios = eigen_ratio_batch(g, pts)
        finite = ratios[np.isfinite(ratios)]
        assert finite.max() < 1e4
        assert np.isfinite(ratios).mean() > 0.99

    def test_convexity_preserved(self, rng):
        f = gallery("mixed", p=3, q=4)
        g = extend_local(f, R=2.0, sigma=0.5, eps_floor=1e-6)
        z = 30.0 * rng.standard_normal((300, 2))
        eig = np.linalg.eigvalsh(g.hessian(z))
        assert eig[:, 0].min() > 0.0

    def test_floor_violation_rejected(self):
        # the orthotropic Hessian degenerates along the axes
        f = gallery("orthotropic", p=4)
        with pytest.raises(PreconditionError):
            extend_local(f, R=2.0, sigma=0.5, eps_floor=1e-6)
