"""Tests for mollification, proximal map and Moreau-Yosida."""

import dataclasses
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import beta as beta_fn, gamma, roots_jacobi

from quclab.errors import InputError, NumericError
from quclab.integrands import (
    AnnulusSampler,
    MollifierRule,
    eigen_ratio_batch,
    estimate_K,
    gallery,
    kernel_second_moment,
    mollify,
    moreau_yosida,
    prox_point,
)
from quclab.matrixcore import radial_hessian


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


TABLE_CASES = {
    "power-1.5": lambda dim: gallery("power", p=1.5, dim=dim),
    "power-3": lambda dim: gallery("power", p=3, dim=dim),
    "uhlenbeck-bp4": lambda dim: gallery("uhlenbeck", profile="bounded_power", p=4, dim=dim),
}


def _exact_radial_mollification(f, eps, z, radial=16, angular=256):
    """Jet of F * phi_eps for a radial F, from its profile along the ray.

    The convolution of a radial F is radial, and along the ray r e_1 its
    integrand depends on |y| and on the angle to the ray only, so all the
    nodes go into a 2-D product rule: Gauss-Jacobi in |y|^2 times
    Gauss-Legendre in cos(angle) (3-D) or the midpoint rule in the angle
    (2-D).  This is far more accurate than any rule over the ball with as
    many nodes; the 8 x 64 ball rule in 3-D, for one, shares its 8 cos(theta)
    nodes with the default rule and is anisotropic by about 4e-7 in D2F at
    |z| = eps/2 for eps = 0.005 and p = 3.
    """
    dim = z.shape[-1]
    x, w_rad = roots_jacobi(radial, 4.0, dim / 2.0 - 1.0)
    rho = np.sqrt(0.5 * (x + 1.0))
    if dim == 3:
        mu, w_ang = np.polynomial.legendre.leggauss(angular)
    else:
        mu, w_ang = np.cos(np.pi * (np.arange(angular) + 0.5) / angular), np.ones(angular)
    w = (w_rad[:, None] * w_ang).ravel()
    w /= w.sum()
    along, across = (rho[:, None] * mu).ravel(), (rho[:, None] * np.sqrt(1.0 - mu * mu)).ravel()
    r = np.linalg.norm(z, axis=-1)
    radii, where = np.unique(r, return_inverse=True)
    profile = np.empty((3, len(radii)))
    for lo in range(0, len(radii), 32):
        pts = np.zeros((len(radii[lo:lo + 32]), len(w), dim))
        pts[..., 0] = radii[lo:lo + 32, None] - eps * along
        pts[..., 1] = -eps * across
        val, df, d2f = f.jet(pts, 2)
        for row, t in zip(profile, (val, df[..., 0], d2f[..., 0, 0])):
            row[lo:lo + 32] = np.sum(t * w, axis=-1)
    g, dg, d2g = profile[:, where]
    slope = dg / r
    return g, slope[:, None] * z, radial_hessian(z / r[:, None], d2g, slope)


class TestRadialTable:
    """The 1-D table that mollifies radial integrands."""

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    @pytest.mark.parametrize("eps", [0.08, 0.02, 0.005])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_at_least_as_accurate_as_kernel_sweep(self, dim, eps, case):
        # against the exact mollification, the table may deviate by no more
        # than the default 64 / 512-node sweep does, or by 1e-12 relative
        # where that sweep is exact (bounded_power p=4 is a polynomial)
        # 4000 points: 500 radii in (eps/3, 1), each in 8 random directions
        f = TABLE_CASES[case](dim)
        rng = np.random.default_rng(31)
        dirs = rng.standard_normal((4000, dim))
        radii = np.repeat(rng.uniform(eps / 3.0, 1.0, size=500), 8)
        z = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None]
        table = mollify(f, eps).jet(z, 2)
        sweep = mollify(dataclasses.replace(f, radial=False), eps).jet(z, 2)
        exact = _exact_radial_mollification(f, eps, z)
        for name, got, coarse, want in zip(("F", "DF", "D2F"), table, sweep, exact):
            allowed = max(np.abs(coarse - want).max(), 1e-12 * np.abs(want).max())
            assert np.abs(got - want).max() <= allowed, name

    def test_growth_keeps_jets_bit_identical(self, rng):
        f = gallery("power", p=3)
        g = mollify(f, 0.02)
        z = 0.5 * rng.standard_normal((300, 2))
        far = np.array([[40.0, -3.0]])
        before = g.jet(z, 2)
        g.jet(far, 2)  # grows the table far past z
        after = g.jet(z, 2)
        fresh = mollify(f, 0.02).jet(np.concatenate([far, z]), 2)
        for b, a, c in zip(before, after, fresh):
            assert np.array_equal(b, a)
            assert np.array_equal(b, c[1:])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_origin_and_tiny_radius(self, dim):
        g = mollify(gallery("power", p=1.5, dim=dim), 0.02)
        z = np.zeros((2, dim))
        z[1, 0] = 1e-300
        val, df, d2f = g.jet(z, 2)
        assert np.all(np.isfinite(val)) and np.all(np.isfinite(df)) and np.all(np.isfinite(d2f))
        assert np.array_equal(df[0], np.zeros(dim))
        # D2F(0) = g''(0) I, and the tiny radius sits next to it
        assert np.allclose(d2f[0], d2f[0, 0, 0] * np.eye(dim), rtol=0.0, atol=0.0)
        assert np.allclose(d2f[1], d2f[0], rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_point_raises(self, bad):
        g = mollify(gallery("power", p=3), 0.02)
        with pytest.raises(NumericError):
            g.jet(np.array([[0.3, 0.1], [bad, 0.0]]), 2)

    def test_jet_fn_not_called_once_table_covers(self, rng):
        # cost guard: after the first call builds the table, jets at radii it
        # already covers cost no call of the integrand's jet (the kernel sweep
        # makes 64 per evaluation)
        base = gallery("power", p=3)
        points = [0]

        def counted(z, order):
            points[0] += np.size(z) // base.dim
            return base.jet_fn(z, order)

        g = mollify(dataclasses.replace(base, jet_fn=counted), 0.02)
        z = rng.standard_normal((5000, 2))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1.0)
        g.jet(z, 2)
        assert 0 < points[0] <= 200 * 512  # at most 200 knots of the 8 x 64 rule
        points[0] = 0
        for order in (0, 1, 2):
            g.jet(0.5 * z, order)
            g.jet(z[:7], order)
            g.value(z[0])
        assert points[0] == 0

    def test_marker_only_on_radial_integrands(self):
        assert gallery("power", p=3).radial
        assert gallery("power", p=3).tilted(0.5).radial
        assert gallery("uhlenbeck", profile="constant").radial
        assert not gallery("power", p=3, center=[0.1, 0.0]).radial
        for f in (gallery("two_center", p=2.5, z0=[0.3, 0.0]), gallery("cantor", level=6),
                  gallery("gh", p=3, matrix=[[2.0, 0.3], [0.0, 1.0]]),
                  gallery("mixed", p=3, q=4), gallery("orthotropic", p=3),
                  mollify(gallery("power", p=3), 0.05),
                  moreau_yosida(gallery("power", p=3), 0.4)):
            assert not f.radial, f.name

    def test_unmarked_radial_integrand_keeps_kernel_sweep(self, rng):
        f = gallery("power", p=3)
        rule = MollifierRule.build(2)
        z = rng.standard_normal((50, 2))
        got = mollify(dataclasses.replace(f, radial=False), 0.05).jet(z, 2)
        want = [0.0, 0.0, 0.0]
        for y, w in zip(0.05 * rule.nodes, rule.weights):
            want = [acc + w * t for acc, t in zip(want, f.jet(z - y, 2))]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_concurrent_growth_matches_serial(self, rng):
        # threads that grow one table at once get the jets of a serial run
        f = gallery("power", p=3)
        batches = [s * rng.standard_normal((400, 2)) for s in (0.2, 1.0, 3.0, 8.0, 0.5, 20.0)]
        serial = [mollify(f, 0.02).jet(z, 2) for z in batches]
        shared = mollify(f, 0.02)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(lambda z: shared.jet(z, 2), batches, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


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

