"""Tests for the Cordes thresholds and the div-curl operator norm probe."""

import numpy as np
import pytest

from quclab import cordes
from quclab.errors import InputError
from quclab.utils import pool_map


class TestK0:
    def test_n2_m2_closed_form(self):
        # K0 = 1 / (1 - 1/(4 sqrt 2)) for N = 2, m = 2 (mhat = 2)
        expected = 1.0 / (1.0 - 1.0 / (4.0 * np.sqrt(2.0)))
        assert cordes.cordes_K0(2, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_n2_m4_closed_form(self):
        expected = 1.0 / (1.0 - 1.0 / (np.sqrt(2.0) * 4.0 * 3.0))
        assert cordes.cordes_K0(2, 4.0) == pytest.approx(expected, abs=1e-12)
        assert cordes.cordes_K0(2, 4.0) == pytest.approx(1.0626, abs=5e-4)

    def test_maximal_at_m2(self):
        k0_at_2 = cordes.cordes_K0(2, 2.0)
        for m in (1.2, 1.7, 2.3, 3.0, 6.0):
            assert cordes.cordes_K0(2, m) <= k0_at_2 + 1e-15

    def test_decreasing_in_mhat_and_dim(self):
        ms = (2.0, 2.5, 3.0, 4.0, 8.0)
        vals = [cordes.cordes_K0(2, m) for m in ms]
        assert np.all(np.diff(vals) < 0.0)
        dual = [cordes.cordes_K0(2, m / (m - 1.0)) for m in ms]
        assert np.allclose(vals, dual, rtol=1e-13)  # depends on m only via mhat
        assert cordes.cordes_K0(3, 2.0) < cordes.cordes_K0(2, 2.0)
        assert all(cordes.cordes_K0(n, 2.0) > 1.0 for n in (2, 3, 5, 8))


class TestDelta0:
    def test_positive_for_every_finite_k(self):
        for k in (1.0, 1.05, 1.2, 1.5, 2.0, 10.0, 1e3):
            assert cordes.cordes_delta0(k, 2) > 0.0

    def test_k1_gets_whole_window(self):
        assert cordes.cordes_delta0(1.0, 2, window=(4.0 / 3.0, 4.0)) \
            == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_decreasing_in_k(self):
        ks = (1.05, 1.2, 1.5, 2.0, 4.0)
        vals = [cordes.cordes_delta0(k, 2) for k in ks]
        assert np.all(np.diff(vals) < 0.0)

    def test_closed_form_example(self):
        # K = 2, window (4/3, 4), default endpoint bound 24 sqrt 2 at both
        # ends: reabsorption needs eta < 1, i.e. theta* = ln 2 / ln(24 sqrt 2);
        # delta0 is the smaller |m - 2| of the two interpolation sides at theta*
        t_bound = 24.0 * np.sqrt(2.0)
        theta_star = np.log(2.0) / np.log(t_bound)
        m_hi = 1.0 / (0.5 + theta_star * (0.25 - 0.5))
        m_lo = 1.0 / (0.5 + theta_star * (0.75 - 0.5))
        expected = min(m_hi - 2.0, 2.0 - m_lo)
        got = cordes.cordes_delta0(2.0, 2, window=(4.0 / 3.0, 4.0))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_default_bound_matches_manual(self):
        # the default endpoint bound is 2 sqrt 2 N^2 (mhat - 1), 24 sqrt 2 at
        # both ends of the default window
        assert cordes.default_T_bound(2, 4.0) == pytest.approx(24.0 * np.sqrt(2.0), rel=1e-14)
        assert cordes.default_T_bound(2, 4.0 / 3.0) == pytest.approx(
            24.0 * np.sqrt(2.0), rel=1e-14)

    def test_bad_window_rejected(self):
        with pytest.raises(InputError):
            cordes.cordes_delta0(1.5, 2, window=(2.5, 4.0))

    def test_report_bundle(self):
        rep = cordes.cordes_report(2, 2.0, K=1.1)
        assert rep.K0 > 1.1 and rep.admissible_by_K0
        assert rep.delta0 > 0.0 and rep.admissible_by_delta0
        assert rep.mhat == 2.0


class TestTNormProbe:
    def test_m2_isometry(self):
        est = cordes.estimate_T_norm(2.0, trials=100, n=64, kmax=8, seed=1)
        assert 0.9 <= est <= 1.0 + 1e-9

    def test_m4_below_certified_bound(self):
        est = cordes.estimate_T_norm(4.0, trials=40, n=64, kmax=8, seed=2)
        bound = 2.0 ** 2 * (cordes.mhat(4.0) - 1.0) * (1.0 + np.sqrt(2.0))
        assert 0.0 < est <= bound

    def test_only_the_m2_probe_is_grid_independent(self):
        # at m = 2 the probe's integrals are quadratic in band-kmax fields, so
        # every grid with n > 2 kmax sums them exactly; at m = 3 they are not
        ulp = np.spacing(1.0)
        m2 = [cordes.estimate_T_norm(2.0, trials=4, n=n, kmax=8, seed=0) for n in (32, 256)]
        m3 = [cordes.estimate_T_norm(3.0, trials=4, n=n, kmax=8, seed=0) for n in (32, 256)]
        assert all(abs(t - 1.0) <= 4 * ulp for t in m2), m2
        assert abs(m3[0] - m3[1]) > 1e-4, m3

    def test_trials_validated(self):
        with pytest.raises(InputError):
            cordes.estimate_T_norm(2.0, trials=0)

    def test_pooled_trials_match_serial_bit_for_bit(self, monkeypatch):
        monkeypatch.setenv("QUC_THREADS", "3")
        serial = cordes.estimate_T_norm(3.0, trials=7, n=32, kmax=4, seed=5)
        pooled = cordes.estimate_T_norm(3.0, trials=7, n=32, kmax=4, seed=5, map=pool_map)
        assert pooled == serial

    def test_empirical_mode_runs(self):
        # the probe bounds ||T|| from below, so its delta0 exceeds the certified one
        d0 = cordes.cordes_delta0(1.5, 2, probe_trials=5)
        assert d0 > cordes.cordes_delta0(1.5, 2) > 0.0
