"""Tests for the curl-reabsorption matrix kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        p = mc.random_spd_batch(rng, 1, 5)[0]
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
                p = mc.random_spd_batch(rng, 1, n)[0]
                s = mc.random_symmetric_batch(rng, 1, n)[0]
                assert mc.verify_skew_bound(p, s).holds

    def test_batch_driver(self, rng):
        rep = mc.batch_skew_check(rng, trials=5000, dim=4)
        assert rep.holds
        assert rep.worst_slack <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_property_skew_bound_random(dim, seed):
    rng = np.random.default_rng(seed)
    p = mc.random_spd_batch(rng, 1, dim)[0]
    s = mc.random_symmetric_batch(rng, 1, dim)[0]
    rep = mc.verify_skew_bound(p, s)
    assert rep.holds
