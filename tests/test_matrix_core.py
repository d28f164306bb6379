"""Tests for the curl-reabsorption matrix kernel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

from quclab import matrixcore as mc
from quclab.errors import InputError, PreconditionError


class TestEigenSummary:
    def test_identity(self):
        s = mc.eigen_summary(np.eye(3))
        assert s.lambda_min == pytest.approx(1.0, abs=1e-14)
        assert s.lambda_max == pytest.approx(1.0, abs=1e-14)
        assert s.ratio == pytest.approx(1.0, abs=1e-13)

    def test_diag(self):
        s = mc.eigen_summary(np.diag([1.0, 4.0]))
        assert (s.lambda_min, s.lambda_max, s.ratio) == (1.0, 4.0, 4.0)

    def test_extremal_pairs_exact(self):
        # the diagonal P of the equality pair gives its extremes bit for bit
        for dim in range(2, 9):
            s = mc.eigen_summary(mc.extremal_pair(dim)[0])
            assert (s.lambda_min, s.lambda_max, s.ratio) == (1.0, 4.0, 4.0)

    def test_random_spd_5x5(self, rng):
        q = ortho_group.rvs(5, random_state=rng)
        p = (q * np.exp(rng.uniform(-2.0, 2.0, 5))) @ q.T
        s = mc.eigen_summary(p)
        ref = np.linalg.eigvalsh(p)
        assert s.lambda_min == pytest.approx(ref[0], rel=1e-11)
        assert s.lambda_max == pytest.approx(ref[-1], rel=1e-11)
        assert s.definite and s.ratio >= 1.0

    def test_degenerate_flagged_not_fatal(self):
        s = mc.eigen_summary(np.diag([0.0, 1.0]))
        assert not s.definite and s.ratio == np.inf

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            mc.eigen_summary(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPhi:
    def test_boundary_values(self):
        assert mc.phi(1.0) == 0.0
        assert mc.phi(0.0) == 1.0

    def test_hand_value(self):
        # (1 - 1/4)^2 / (1 + 1/16) = (9/16)/(17/16)
        assert mc.phi(0.25) == pytest.approx(9.0 / 17.0, rel=1e-15)

    def test_monotone_on_grid(self):
        t = np.linspace(0.0, 1.0, 10_000)
        v = mc.phi(t)
        assert np.all(np.diff(v) <= 1e-15)

    def test_domain_checked(self):
        with pytest.raises(InputError):
            mc.phi(1.5)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_property_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert mc.phi(hi) <= mc.phi(lo) + 1e-15


class TestSkewDefect:
    def test_symmetric_is_zero(self, rng):
        a = rng.standard_normal((4, 4))
        assert mc.skew_defect(a + a.T) == 0.0

    def test_hand_value(self):
        assert mc.skew_defect(np.array([[0.0, 1.0], [4.0, 0.0]])) \
            == pytest.approx(np.sqrt(18.0), rel=1e-15)

    def test_wedge_product(self):
        v = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        wedge = np.outer(v, w) - np.outer(w, v)
        # the wedge is already skew, so the defect doubles its norm
        assert mc.skew_defect(wedge) == pytest.approx(2.0 * mc.frobenius(wedge), rel=1e-15)


class TestVerifySkewBound:
    def test_identity_p_makes_symmetric(self, rng):
        s = rng.standard_normal((3, 3))
        s = s + s.T
        rep = mc.verify_skew_bound(np.eye(3), s)
        assert rep.lhs == pytest.approx(0.0, abs=1e-25)
        assert rep.holds

    def test_extremal_equality(self):
        p, s = mc.extremal_pair(2, 1.0, 4.0)
        rep = mc.verify_skew_bound(p, s)
        assert rep.lhs == pytest.approx(18.0, rel=1e-12)
        assert rep.rhs == pytest.approx(18.0, rel=1e-12)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_extremal_equality_higher_dim(self):
        p, s = mc.extremal_pair(5, 0.5, 7.0)
        rep = mc.verify_skew_bound(p, s)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_not_spd_rejected(self):
        with pytest.raises(PreconditionError):
            mc.verify_skew_bound(np.diag([-1.0, 1.0]), np.eye(2))

    def test_randomized_single_pairs(self, rng):
        for n in (2, 3, 5):
            for _ in range(150):
                q = ortho_group.rvs(n, random_state=rng)
                p = (q * np.exp(rng.uniform(-2.0, 2.0, n))) @ q.T
                g = rng.standard_normal((n, n))
                assert mc.verify_skew_bound(p, g + g.T).holds

    def test_batch_driver(self, rng):
        rep = mc.batch_skew_check(rng, trials=5000, dim=4)
        assert rep.holds
        assert rep.worst_slack <= 1e-10

    def test_batch_memory_is_bounded_by_chunk(self):
        # 4000 trials at dim 64 in one chunk would hold about half a gigabyte
        tracemalloc.start()
        try:
            mc.batch_skew_check(np.random.default_rng(0), trials=4000, dim=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestEigenbasisTerms:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_dense_conjugated_pair(self, rng, dim):
        # both sides are invariant under joint conjugation by a Haar Q
        lam = np.exp(rng.uniform(-2.0, 2.0, (20, dim)))
        g = rng.standard_normal((20, dim, dim))
        s = 0.5 * (g + np.transpose(g, (0, 2, 1)))
        lhs, rhs = mc.eigenbasis_terms(lam, s)
        for b in range(20):
            q = ortho_group.rvs(dim, random_state=rng)
            rep = mc.verify_skew_bound((q * lam[b]) @ q.T, q @ s[b] @ q.T)
            # the dense X - X^t cancels: its round-off scales with |X|^2, not lhs
            x2 = np.sum((lam[b][:, None] * s[b]) ** 2)
            assert rep.lhs == pytest.approx(lhs[b], rel=1e-12, abs=1e-12 * x2)
            assert rep.rhs == pytest.approx(rhs[b], rel=1e-12)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_extremal_pair_has_zero_slack(self, dim):
        p, s = mc.extremal_pair(dim)
        lhs, rhs = mc.eigenbasis_terms(np.diag(p)[None], s[None])
        assert lhs[0] / rhs[0] - 1.0 == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_property_skew_bound_random(dim, seed):
    rng = np.random.default_rng(seed)
    q = ortho_group.rvs(dim, random_state=rng)
    p = (q * np.exp(rng.uniform(-2.0, 2.0, dim))) @ q.T
    g = rng.standard_normal((dim, dim))
    rep = mc.verify_skew_bound(p, g + g.T)
    assert rep.holds
