"""Tests for the integrand gallery and sampled convexity diagnostics."""

import dataclasses

import numpy as np
import pytest

from quclab.errors import InputError
from quclab.integrands import (
    AnnulusSampler,
    eigen_ratio_batch,
    estimate_K,
    gallery,
    integrand_from_config,
    integrand_to_config,
    mollify,
    moreau_yosida,
    uhlenbeck_indices,
    validate_integrand,
    verify_growth,
)
from quclab.integrands.gallery import uhlenbeck
from quclab.integrands.profiles import (
    UhlenbeckProfile,
    bounded_power_profile,
    constant_profile,
    power_profile,
)
from quclab.radial import RadialProblem

SAMPLER = AnnulusSampler(0.3, 3.0, shells=50, directions=25, seed=5)

# the seven gallery integrands (power at two exponents) and the three combinators
JET_CASES = {
    "power-3": lambda: gallery("power", p=3),
    "power-1.5": lambda: gallery("power", p=1.5),
    "two_center": lambda: gallery("two_center", p=1.5, z0=[0.5, 0.0]),
    "mixed": lambda: gallery("mixed", p=2.2, q=3.5),
    "uhlenbeck": lambda: gallery("uhlenbeck", profile="bounded_power", p=4),
    "cantor": lambda: gallery("cantor", level=6),
    "gh": lambda: gallery("gh", p=3, matrix=[[2.0, 0.3], [0.0, 1.0]]),
    "orthotropic": lambda: gallery("orthotropic", p=4),
    "tilted": lambda: gallery("uhlenbeck", profile="bounded_power", p=4).tilted(0.3),
    "mollify": lambda: mollify(gallery("power", p=3), 0.05),
    "moreau_yosida": lambda: moreau_yosida(gallery("power", p=3), 0.4),
}


def fd_hessian(f, z):
    """Central differences of DF, step eps^(1/3) (1 + |z|), symmetrized."""
    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(z, axis=-1))
    rows = []
    for e in np.eye(f.dim):
        dz = h[..., None] * e
        rows.append((f.gradient(z + dz) - f.gradient(z - dz)) / (2.0 * h[..., None]))
    hess = np.stack(rows, axis=-2)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


class TestGalleryConstruction:
    def test_power_hessian_example(self):
        f = gallery("power", p=3)
        eig = np.linalg.eigvalsh(f.hessian(np.array([1.0, 0.0])))
        assert np.allclose(eig, [1.0, 2.0], atol=1e-14)
        assert f.declared_K == pytest.approx(2.0)

    def test_two_center_quadratic(self, rng):
        f = gallery("two_center", p=2, z0=[0.3, -0.7])
        z = rng.standard_normal((8, 2))
        assert np.allclose(f.hessian(z), 4.0 * np.eye(2), atol=1e-13)
        assert eigen_ratio_batch(f, np.array([1.0, 2.0])) == pytest.approx(1.0)

    def test_mixed_eigen_bounds(self):
        p, q = 3.0, 4.0
        f = gallery("mixed", p=p, q=q)
        z = np.array([1.0, 1.0])
        eig = np.linalg.eigvalsh(f.hessian(z))
        r = np.linalg.norm(z)
        assert eig[0] >= r ** (p - 2.0) - 1e-12
        assert eig[-1] <= (p - 1.0) * r ** (p - 2.0) + (q - 1.0) * abs(z[0]) ** (q - 2.0) + 1e-12

    def test_bad_exponent_rejected(self):
        with pytest.raises(InputError):
            gallery("power", p=0.9)

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError):
            gallery("spaghetti", p=3)

    def test_unknown_param_rejected(self):
        with pytest.raises(InputError):
            gallery("power", p=3, banana=1)

    def test_config_round_trip(self):
        for f in (gallery("power", p=2.5), gallery("mixed", p=2, q=4),
                  gallery("cantor", level=6), gallery("two_center", p=1.5, z0=[1.0, 0.0]),
                  gallery("uhlenbeck", profile="bounded_power", p=4)):
            g = integrand_from_config(integrand_to_config(f))
            pts = np.random.default_rng(0).standard_normal((16, 2)) * 1.3
            assert np.allclose(f.value(pts), g.value(pts), rtol=1e-13)
        # no descriptor names a tilt or a mollifier, so neither may be
        # dropped on the way out
        for f in (gallery("power", p=3).tilted(0.1), mollify(gallery("power", p=3), 0.05)):
            with pytest.raises(InputError):
                integrand_to_config(f)

    @pytest.mark.parametrize("case", list(JET_CASES))
    def test_gallery_consistency(self, case, rng):
        f = JET_CASES[case]()
        validate_integrand(f, rng)
        z = 1.5 * rng.standard_normal((16, f.dim))
        accessors = (f.value(z), f.gradient(z), f.hessian(z))
        for order in range(3):
            jet = f.jet(z, order)
            assert len(jet) == order + 1
            for got, want in zip(jet, accessors):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", list(JET_CASES))
    def test_analytic_vs_fd_hessian(self, case, rng):
        f = JET_CASES[case]()
        # radii in (1.4, 1.6) avoid every singular point and keep |z| on the
        # middle plateau of the Cantor function, where D2F is continuous
        dirs = rng.standard_normal((12, f.dim))
        z = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) \
            * rng.uniform(1.4, 1.6, size=(12, 1))
        assert np.allclose(fd_hessian(f, z), f.hessian(z), rtol=1e-6, atol=1e-8)

    def test_jet_order_validated(self):
        with pytest.raises(InputError):
            gallery("power", p=3).jet(np.zeros(2), 3)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_power_value_guard(self, p, rng):
        f = gallery("power", p=p)
        z = rng.standard_normal((2000, 2)) * rng.uniform(1e-3, 1e3, size=(2000, 1))
        r = np.linalg.norm(z, axis=1)
        np.testing.assert_allclose(f.value(z), r ** p / p, rtol=1e-15, atol=0.0)
        assert f.value(np.zeros(2)) == 0.0
        if p == 1.5:
            # r^2 overflows here; F must multiply r in one factor at a time
            big = np.array([1e200, 0.0])
            assert np.isfinite(f.value(big))
            assert f.value(big) == pytest.approx(1e200 ** p / p, rel=1e-15)


class TestEigenRatio:
    def test_isotropic_quadratic(self, rng):
        f = gallery("power", p=2)
        z = rng.standard_normal(2)
        assert eigen_ratio_batch(f, z) == pytest.approx(1.0, abs=1e-12)

    def test_quartic_ratio_three(self, rng):
        # D2(|z|^4/4) = |z|^2 (I + 2 unit unit^t): eigenvalues {r^2, 3 r^2}
        f = gallery("power", p=4)
        for _ in range(10):
            z = rng.standard_normal(2)
            assert eigen_ratio_batch(f, z) == pytest.approx(3.0, rel=1e-10)

    def test_orthotropic_divergence(self):
        f = gallery("orthotropic", p=4)
        t = 1e-3
        ratio = eigen_ratio_batch(f, np.array([1.0, t]))
        assert ratio == pytest.approx(t ** -2, rel=1e-8)

    def test_degenerate_flagged(self):
        f = gallery("power", p=4)
        assert eigen_ratio_batch(f, np.zeros(2)) == np.inf


class TestEstimateK:
    def test_power_p3(self):
        assert estimate_K(gallery("power", p=3), SAMPLER) == pytest.approx(2.0, rel=1e-9)

    def test_two_center_quadratic(self):
        assert estimate_K(gallery("two_center", p=2, z0=[0.4, 0.1]), SAMPLER) \
            == pytest.approx(1.0, abs=1e-10)

    def test_declared_bound_never_exceeded(self):
        for f in (gallery("power", p=3), gallery("power", p=1.5),
                  gallery("two_center", p=1.5, z0=[0.5, 0.0]),
                  gallery("uhlenbeck", profile="bounded_power", p=4),
                  gallery("gh", p=3, matrix=[[2.0, 0.0], [0.0, 1.0]]),
                  gallery("cantor", level=8)):
            est = estimate_K(f, AnnulusSampler(0.3, 3.0, shells=100, directions=100, seed=9))
            assert est <= f.declared_K * (1.0 + 1e-6), f.name

    def test_small_sampler_rejected(self):
        with pytest.raises(InputError):
            estimate_K(gallery("power", p=3), AnnulusSampler(0.5, 2.0, shells=5, directions=5))


class TestSumRatio:
    def test_pairwise_sums_bounded_by_max_K(self, rng):
        # 1000 random pairs from the ratio-bounded gallery members, with
        # randomized exponents and centers
        def random_member():
            kind = rng.integers(3)
            p = float(rng.uniform(1.3, 4.0))
            if kind == 0:
                return gallery("power", p=p, center=list(rng.uniform(-0.5, 0.5, 2)))
            if kind == 1:
                return gallery("two_center", p=p, z0=list(rng.uniform(-0.5, 0.5, 2)))
            return gallery("uhlenbeck", profile="bounded_power", p=p)

        pts = AnnulusSampler(0.4, 2.5, shells=20, directions=10, seed=13).points(2)
        for _ in range(1000):
            f1, f2 = random_member(), random_member()
            summed = dataclasses.replace(f1, jet_fn=lambda z, order: tuple(
                a + b for a, b in zip(f1.jet_fn(z, order), f2.jet_fn(z, order))))
            ratios = eigen_ratio_batch(summed, pts)
            finite = ratios[np.isfinite(ratios)]
            assert finite.max() <= max(f1.declared_K, f2.declared_K) * (1.0 + 1e-6)


class TestVerifyGrowth:
    def test_power_p3_with_k2(self):
        rep = verify_growth(gallery("power", p=3), K=2.0)
        assert rep.holds
        assert rep.p == pytest.approx(1.5) and rep.q == pytest.approx(3.0)

    def test_two_center_quadratic_k1(self):
        rep = verify_growth(gallery("two_center", p=2, z0=[0.2, 0.0]), K=1.0)
        assert rep.holds and rep.p == pytest.approx(2.0) and rep.q == pytest.approx(2.0)

    def test_mixed_fails_with_k1(self):
        # |z1|^4 growth cannot sit below C(|z|^2 + 1) out to radius 1e7
        rep = verify_growth(gallery("mixed", p=2, q=4), K=1.0)
        assert not rep.holds

    def test_all_declared_gallery_growth(self):
        for f in (gallery("power", p=3), gallery("power", p=1.5),
                  gallery("two_center", p=1.5, z0=[0.5, 0.0]),
                  gallery("uhlenbeck", profile="bounded_power", p=4)):
            assert verify_growth(f, K=f.declared_K).holds, f.name


class TestUhlenbeckIndices:
    def test_power_profile(self):
        out = uhlenbeck_indices(power_profile(3.0))
        assert out["i_a"] == pytest.approx(1.0, abs=1e-9)
        assert out["s_a"] == pytest.approx(1.0, abs=1e-9)
        assert out["K"] == pytest.approx(2.0, abs=1e-9)

    def test_constant_profile(self):
        out = uhlenbeck_indices(constant_profile())
        assert out["i_a"] == pytest.approx(0.0, abs=1e-12)
        assert out["K"] == pytest.approx(1.0, abs=1e-9)
        assert out["p"] == pytest.approx(2.0, abs=1e-9)

    def test_bounded_profile(self):
        out = uhlenbeck_indices(bounded_power_profile(4.0))
        assert out["i_a"] == pytest.approx(0.0, abs=1e-6)
        assert out["s_a"] == pytest.approx(2.0, abs=1e-6)
        assert out["K"] == pytest.approx(3.0, abs=1e-5)

    def test_inadmissible_detected(self):
        bad = UhlenbeckProfile(
            name="bad", a=lambda t: np.asarray(t, float) ** -1.5,
            da=lambda t: -1.5 * np.asarray(t, float) ** -2.5,
            primitive=lambda t: -2.0 * np.asarray(t, float) ** -0.5,
            exact_i_a=-1.5, exact_s_a=-1.5)
        with pytest.raises(InputError):
            uhlenbeck_indices(bad)

    def test_gallery_integrand_carries_profile_indices(self):
        f = gallery("uhlenbeck", profile="bounded_power", p=4)
        assert f.indices == uhlenbeck_indices(bounded_power_profile(4.0))
        assert f.tilted(0.1).indices is None and gallery("power", p=3).indices is None

    def test_unbounded_s_a_rejected_by_gallery_and_radial_solver(self):
        # one admissibility rule, -1 < i_a <= s_a < oo, for both consumers; the
        # radial solver's profile t^(p-2) has i_a = s_a = p - 2, so it needs p > 1
        base = power_profile(3.0)
        unbounded = UhlenbeckProfile(name="unbounded", a=base.a, da=base.da,
                                     primitive=base.primitive,
                                     exact_i_a=1.0, exact_s_a=np.inf)
        with pytest.raises(InputError, match="inadmissible"):
            uhlenbeck(unbounded)
        for p in (1.0, np.nan, np.inf):
            with pytest.raises(InputError, match="p > 1"):
                RadialProblem(dim=2, p=p, r_max=1.0, c=0.0, a=0.0)
