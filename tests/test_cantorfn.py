"""Tests for the finite-level Cantor function tables."""

import numpy as np
import pytest
from scipy.integrate import quad

from quclab import cantorfn
from quclab.cantorfn import CantorProfile, cantor_profile, h_levels
from quclab.counterexamples import cantor_stress_fields, sobolev_blowup_diagnostic
from quclab.errors import InputError


class TestValues:
    def test_endpoints(self):
        assert cantor_profile(8).h(0.0) == 0.0
        assert cantor_profile(8).h(1.0) == 1.0

    def test_middle_plateau(self):
        assert cantor_profile(8).h(0.5) == pytest.approx(0.5, abs=1e-14)

    def test_first_removed_interval_edge(self):
        assert cantor_profile(8).h(1.0 / 3.0) == pytest.approx(0.5, abs=1e-12)

    def test_self_similarity(self):
        # h(t/3) = h(t)/2 for the exact function; at level L the left copy
        # of h_{L} restricted to [0,1/3] is h_{L-1}(3t)/2 evaluated one level up
        prof_hi = CantorProfile(9)
        prof_lo = CantorProfile(8)
        t = np.linspace(0.0, 1.0, 1001)
        assert np.allclose(prof_hi.h(t / 3.0), 0.5 * prof_lo.h(t), atol=1e-12)

    def test_integer_extension(self):
        prof = CantorProfile(6)
        t = np.linspace(0.0, 1.0, 257)
        for k in (1, 2, 5):
            assert np.allclose(prof.h(t + k), k + prof.h(t), atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            cantor_profile(4).h(-0.5)
        prof = CantorProfile(4)
        for name in ("h", "h_prime", "H"):
            for t in (-0.5, np.array([0.5, -1e-300])):
                with pytest.raises(InputError):
                    getattr(prof, name)(t)


class TestInvariants:
    def test_nondecreasing(self):
        prof = CantorProfile(10)
        t = np.linspace(0.0, 3.0, 10_000)
        assert np.all(np.diff(prof.h(t)) >= -1e-15)

    def test_level_convergence(self):
        t = np.linspace(0.0, 1.0, 10_000)
        for level in (4, 6, 8):
            gap = np.max(np.abs(cantor_profile(level).h(t) - cantor_profile(level + 4).h(t)))
            assert gap <= 2.0 ** -level

    def test_range(self):
        prof = CantorProfile(12)
        t = np.linspace(0.0, 1.0, 5000)
        v = prof.h(t)
        assert v.min() >= 0.0 and v.max() <= 1.0


class TestAntiderivative:
    def test_unit_integral_by_symmetry(self):
        assert CantorProfile(10).H(1.0) == pytest.approx(0.5, abs=1e-13)

    def test_matches_adaptive_quadrature(self):
        # split the quadrature at the kink abscissae so the oracle is exact
        prof = CantorProfile(6)
        kinks = prof.breakpoints_in(0.0, 1.0)
        for t in (0.2, 1.0 / 3.0, 0.5, 0.9):
            edges = np.concatenate([[0.0], kinks[kinks < t], [t]])
            ref = sum(quad(prof.h, a, b)[0] for a, b in zip(edges[:-1], edges[1:]))
            assert prof.H(t) == pytest.approx(ref, abs=1e-10)

    def test_self_similar_hand_values(self):
        # H(1/3) = 1/12 and H(1/2) = 1/6 hold exactly at every level, and the
        # integer extension gives H(2.5) = 1/2 + 3/2 + 1 + H(1/2) = 19/6
        for level in (1, 5, 12):
            prof = CantorProfile(level)
            assert prof.H(1.0 / 3.0) == pytest.approx(1.0 / 12.0, abs=1e-13)
            assert prof.H(0.5) == pytest.approx(1.0 / 6.0, abs=1e-13)
            assert prof.H(2.5) == pytest.approx(19.0 / 6.0, abs=1e-12)

    def test_derivative_consistency(self):
        prof = CantorProfile(8)
        t = np.linspace(0.05, 2.95, 700)
        dt = 1e-7
        fd = (prof.H(t + dt) - prof.H(t - dt)) / (2.0 * dt)
        assert np.allclose(fd, prof.h(t), atol=1e-5)


class TestSlopes:
    def test_plateau_and_ramp(self):
        prof = CantorProfile(4)
        assert prof.h_prime(0.5) == 0.0
        assert prof.h_prime(0.5 * 3.0 ** -4) == pytest.approx(1.5 ** 4)

    def test_breakpoints_listing(self):
        # each of the 2^L ramps contributes two kink edges; t = 1 coincides
        # with the last ramp's right edge, giving 2^(L+1) distinct points
        prof = CantorProfile(3)
        pts = prof.breakpoints_in(0.0, 1.0)
        assert len(pts) == 2 ** 4
        assert np.all((pts >= 0.0) & (pts <= 1.0))


class _ClippedProfile(CantorProfile):
    """Reference piece lookup with the index clipped into the table."""

    def _pieces(self, frac):
        return np.clip(np.searchsorted(self._breaks, frac, side="right") - 1,
                       0, len(self._breaks) - 1)


class TestPieceLookup:
    @pytest.mark.parametrize("level", [1, 4, 12, 13, 14])
    def test_unclipped_lookup_matches_clipped_reference(self, level):
        prof, ref = CantorProfile(level), _ClippedProfile(level)
        b = prof._breaks
        edges = np.concatenate([b, np.nextafter(b, 2.0), np.nextafter(b[1:], 0.0)])
        near_one = 1.0 - np.random.default_rng(level).random(100_000) * 3.0 ** -level
        t = np.concatenate([np.random.default_rng(0).uniform(0.0, 4.0, 1_000_000),
                            edges, edges + 1.0, edges + 7.0, near_one, near_one + 2.0,
                            [np.nextafter(1.0, 0.0)], np.arange(0.0, 8.0),
                            [1e6, np.nan, np.inf]])
        with np.errstate(invalid="ignore"):  # inf - floor(inf) is NaN
            for name in ("h", "h_prime", "H"):
                got, want = getattr(prof, name)(t), getattr(ref, name)(t)
                assert got.tobytes() == want.tobytes(), name
            assert np.isnan(prof.h(np.inf)) and np.isnan(prof.h(np.nan))

    def test_cell_table_layout(self):
        # one uint16 entry per cell of width 3^-L, each naming the piece that
        # holds the cell, plus a last entry (for NaN) naming the sentinel
        prof = CantorProfile(3)
        tab = prof._tab
        assert tab.dtype == np.uint16 and len(tab) == 3 ** 3 + 1
        mid = (np.arange(3 ** 3) + 0.5) / 3 ** 3
        assert np.array_equal(tab[:-1], np.searchsorted(prof._breaks, mid, side="right") - 1)
        assert tab[-1] == len(prof._breaks) - 1

    def test_one_profile_per_level(self):
        def profile_of(fields):
            [profile] = fields.args[0]  # the partial's profile list
            return profile

        a, b = profile_of(cantor_stress_fields([13])), profile_of(cantor_stress_fields([13]))
        assert a is b and a._tab is b._tab
        assert cantorfn.cantor_profile(13) is a
        assert profile_of(cantor_stress_fields([12])) is not a

    def test_default_cantor_range_builds_each_level_once(self):
        # a default cantor run asks for levels 4..12 from the stress
        # evaluator and then from the blow-up table
        cantorfn.cantor_profile.cache_clear()
        cantor_stress_fields(range(4, 13))
        sobolev_blowup_diagnostic(range(4, 13), 64)
        assert cantorfn.cantor_profile.cache_info().misses == 9


def _edge_points(profiles):
    """Every breakpoint of each coarser level, 1-4 ulps either side of it,
    random points of [0, 3) and the integers 0..3."""
    rng = np.random.default_rng(23)
    t = [rng.uniform(0.0, 3.0, 200_000), np.arange(0.0, 4.0)]
    for profile in profiles[:-1]:
        below = above = profile._breaks
        t.append(profile._breaks)
        for _ in range(4):
            below, above = np.nextafter(below, -1.0), np.nextafter(above, 2.0)
            t += [np.abs(below), above]
    return np.concatenate(t)


class TestLevels:
    profiles = [CantorProfile(level) for level in range(4, 14)]

    def test_rows_match_each_level_bit_for_bit(self):
        t = _edge_points(self.profiles)
        rows = h_levels(self.profiles, t)
        assert rows.shape == (len(self.profiles), len(t))
        for row, profile in zip(rows, self.profiles):
            assert np.array_equal(row, profile.h(t)), profile.level

    def test_ramp_only_refinement_is_caught(self, monkeypatch):
        # adjacent levels' float breakpoints differ by an ulp at some ramp
        # ends, so a lookup that refines only the ramp points differs there
        monkeypatch.setattr(cantorfn, "_EDGE_TOL", -np.inf)
        ramp_only = [CantorProfile(profile.level) for profile in self.profiles]
        t = _edge_points(ramp_only)
        rows = h_levels(ramp_only, t)
        assert not all(np.array_equal(row, profile.h(t))
                       for row, profile in zip(rows, ramp_only))

    def test_shapes_and_level_order(self):
        pair = [cantor_profile(6), cantor_profile(9)]
        assert h_levels(pair, 0.5).shape == (2,)
        assert np.array_equal(h_levels(pair, np.full((3, 4), 1.5)), np.full((2, 3, 4), 1.5))
        with pytest.raises(InputError):
            h_levels(pair[::-1], 0.5)
        with pytest.raises(InputError):
            h_levels(pair, np.array([0.5, -1e-300]))
