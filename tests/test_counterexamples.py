"""Tests for the arctan solution and the Cantor stress diagnostics."""

import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from quclab import counterexamples as ce
from quclab.errors import InputError, NumericError
from quclab.utils import pool_map, worker_count


@pytest.fixture
def half_plane_points(rng):
    return np.stack([rng.uniform(1.1, 1.9, 300), rng.uniform(-0.4, 0.4, 300)], axis=1)


class TestArctan:
    def test_gradient_closed_form(self, half_plane_points):
        z = half_plane_points
        du = ce.arctan_gradient(z)
        # finite-difference oracle on arctan(y/x)
        h = 1e-7
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1.0
            fd = (ce.arctan_value(z + h * e) - ce.arctan_value(z - h * e)) / (2 * h)
            assert np.allclose(du[:, j], fd, atol=1e-7)


class TestCantorStress:
    def test_point_on_unit_circle(self):
        # coefficient 1/|z| + h(1/|z|) = 1 + h(1) = 2 at z = (1, 0)
        v = ce.cantor_stress_fields([8])(np.array([1.0, 0.0]))[0]
        assert np.allclose(v, [0.0, 2.0], atol=1e-12)

    def test_point_at_radius_two(self):
        # coefficient 1/2 + h(1/2) = 1: V = (0, 1).  (Plugging into
        # F'(t) = t + h(t): |Du| = 1/2, unit direction z_perp/|z|.)
        v = ce.cantor_stress_fields([8])(np.array([2.0, 0.0]))[0]
        assert np.allclose(v, [0.0, 1.0], atol=1e-12)

    def test_decay_along_axis(self):
        radii = np.array([5.0, 50.0, 500.0, 5000.0])
        pts = np.stack([radii, np.zeros_like(radii)], axis=1)
        mags = np.linalg.norm(ce.cantor_stress_fields([8])(pts)[0], axis=1)
        assert np.all(np.diff(mags) < 0.0)
        assert mags[-1] < 1e-2

    def test_left_half_plane_rejected(self):
        with pytest.raises(InputError):
            ce.cantor_stress_fields([6])(np.array([-1.0, 0.0]))[0]

    def test_stack_rows_match_one_level_fields(self, half_plane_points):
        levels = range(4, 14)
        stack = ce.cantor_stress_fields(levels)(half_plane_points)
        assert stack.shape == (len(levels), len(half_plane_points), 2)
        assert stack[..., 0].strides[-1] == stack.itemsize  # contiguous components
        for row, level in zip(stack, levels):
            assert np.array_equal(row, ce.cantor_stress_fields([level])(half_plane_points)[0])

    def test_tangential_structure(self, half_plane_points):
        v = ce.cantor_stress_fields([10])(half_plane_points)[0]
        radial_component = np.sum(v * half_plane_points, axis=1)
        assert np.max(np.abs(radial_component)) < 1e-12


class TestQuinticBump:
    def test_gradient_matches_central_differences(self, rng):
        # inside, on and outside the support: the bump is C^2 across its rim
        bump = ce.QuinticBump(center=np.array([1.5, 0.0]), radius=0.12)
        dist = 0.12 * np.concatenate([rng.uniform(0.0, 1.0, 100), np.ones(100),
                                      rng.uniform(1.01, 2.0, 100)])
        angle = rng.uniform(0.0, 2.0 * np.pi, dist.size)
        z = bump.center + dist[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        grad = bump.gradient(z)
        scale = np.abs(grad).max()
        assert scale > 10.0
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (bump.value(z + e) - bump.value(z - e)) / (2 * h)
            assert np.allclose(grad[:, j], fd, rtol=0.0, atol=1e-7 * scale)
        assert np.all(grad[200:] == 0.0)


def _one(field):
    """A one-field stack: (M, 2) points to a (1, M, 2) array."""
    return lambda z: field(z)[None]


def _residuals(fields, **kw):
    return ce.weak_divergence_residuals(fields, **kw).residuals


class TestWeakDivergence:
    def test_harmonic_stream_exact(self):
        [res] = _residuals(_one(ce.arctan_gradient), n_bumps=8, seed=3)
        assert res < 1e-9

    def test_cantor_level12_below_threshold(self):
        [res] = _residuals(ce.cantor_stress_fields([12]), n_bumps=8, seed=3)
        assert res <= 1e-3

    def test_pooled_run_matches_serial_run_bit_for_bit(self):
        fields = ce.cantor_stress_fields([8, 12])
        serial = ce.weak_divergence_residuals(fields, n_bumps=4, seed=3)
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = ce.weak_divergence_residuals(fields, n_bumps=4, seed=3,
                                                  map=pool.map)
        assert pooled == serial
        assert serial.nodes == 4 * (64 * 32 + 48 * 24)

    def test_stack_of_copies_gives_one_row_per_copy(self):
        # each row of the stack is summed on its own, so each row's residual
        # and bound, and the node count, are the one-field call's
        field = ce.cantor_stress_fields([9])
        one = ce.weak_divergence_residuals(field, n_bumps=4, seed=3)
        for k in (2, 3):
            stack = ce.weak_divergence_residuals(lambda z: np.concatenate([field(z)] * k),
                                                 n_bumps=4, seed=3)
            assert stack.residuals == one.residuals * k
            assert stack.bounds == one.bounds * k
            assert stack.nodes == one.nodes

    def test_stacked_levels_match_one_level_calls_bit_for_bit(self):
        levels = [6, 10, 13]
        stack = ce.weak_divergence_residuals(ce.cantor_stress_fields(levels),
                                             n_bumps=4, seed=3)
        for i, level in enumerate(levels):
            one = ce.weak_divergence_residuals(ce.cantor_stress_fields([level]),
                                               n_bumps=4, seed=3)
            assert (one.residuals, one.bounds) == ([stack.residuals[i]], [stack.bounds[i]])

    def test_closed_form_dphi_l1_matches_quadrature(self):
        # ||Dphi||_1 = 2 pi int_0^rho |phi'(s)| s ds = 320 pi rho / 231 for the
        # quintic bump; the integrand is a degree-10 polynomial in s, which a
        # 16-node Gauss rule integrates exactly
        x, w = np.polynomial.legendre.leggauss(16)
        for bump in ce._bump_bank(3, 0):
            rho = bump.radius
            s = 0.5 * rho * (x + 1.0)
            pts = bump.center + s[:, None] * np.array([1.0, 0.0])
            slope = np.linalg.norm(bump.gradient(pts), axis=1)
            norm = 2.0 * np.pi * 0.5 * rho * np.sum(w * slope * s)
            assert norm == pytest.approx(320.0 * np.pi * rho / 231.0, rel=1e-14)

    def test_divergent_field_flagged(self):
        # V = x has weak divergence 2: the residual stays away from zero
        [res] = _residuals(_one(lambda z: np.array(z, float)), n_bumps=8, seed=3)
        assert res > 1e-2

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_radial_perturbation_read_within_its_bound(self, eps):
        # eps x/|x| has divergence eps/|x|, so the residual is
        # max over bumps of eps int phi/|x| / ||Dphi||_1, which the reference
        # integrates in polar coordinates about each bump's centre: Gauss in
        # the radius, the periodic trapezoid rule in the angle
        level12 = ce.cantor_stress_fields([12])

        def fields(z):
            v = level12(z)
            r = np.hypot(z[:, 0], z[:, 1])
            v[0] += eps * z / r[:, None]
            return v

        weak = ce.weak_divergence_residuals(fields)
        x, w = np.polynomial.legendre.leggauss(64)
        angle = 2.0 * np.pi * np.arange(256) / 256
        circle = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        refs = []
        for bump in ce._bump_bank(50, 0):
            rho = bump.radius
            s = 0.5 * rho * (x + 1.0)
            pts = (bump.center + s[:, None, None] * circle).reshape(-1, 2)
            f = (bump.value(pts) / np.hypot(pts[:, 0], pts[:, 1])).reshape(len(s), -1)
            integral = 0.5 * rho * np.sum(w * s * f.mean(axis=1)) * 2.0 * np.pi
            refs.append(eps * integral / (320.0 * np.pi * rho / 231.0))
        [res], [bound] = weak.residuals, weak.bounds
        assert abs(res - max(refs)) <= bound
        assert res == pytest.approx(4.0406e-2 * eps, rel=1e-4)

    def test_disk_through_the_origin_rejected(self):
        bump = ce.QuinticBump(center=np.array([0.1, 0.0]), radius=0.2)
        with pytest.raises(InputError, match="excludes the origin"):
            ce._weak_pairings(_one(ce.arctan_gradient), bump)

    def test_non_finite_pairing_raises(self):
        [bump] = ce._bump_bank(1, 0)
        with pytest.raises(NumericError, match="non-finite weak pairing"):
            ce._weak_pairings(lambda z: np.full((1, len(z), 2), np.nan), bump)


@pytest.fixture(scope="module")
def table():
    return ce.sobolev_blowup_diagnostic(range(3, 9), n_grid=384)


class TestBlowupDiagnostic:
    def test_control_column_constant(self, table):
        vals = {row.control_w11 for row in table}
        assert len(vals) == 1

    def test_w11_saturates_at_total_variation(self, table):
        # monotone h_L(1/r) telescopes along rays: the W^{1,1} quotient is
        # bounded uniformly in the level (it cannot witness the Cantor part)
        w11 = np.array([row.w11_quotient for row in table])
        assert w11.max() / w11.min() < 1.1
        assert np.all(w11 > table[0].control_w11)

    def test_sup_quotient_grows_while_resolved(self, table):
        # the max slope (3/2)^L is visible while the grid step resolves the
        # level-L ramps (ramp width 3^-L above ~2 grid steps), then saturates
        sup = np.array([row.sup_quotient for row in table])
        assert sup[2] > sup[0]
        delta = 2.0 * 0.4 / 384
        for i, row in enumerate(table):
            if 3.0 ** -row.level >= 2.0 * delta:
                ratio = sup[i] / 1.5 ** row.level
                assert 0.5 <= ratio <= 1.3, f"level {row.level}: ratio {ratio}"

    def test_l15_quotient_exceeds_smooth_baseline(self, table):
        rows_l15 = np.array([row.l15_quotient for row in table])
        assert np.all(np.diff(rows_l15[:3]) > 0.0)  # grows in the resolved regime

    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_pooled_table_matches_serial_table_bit_for_bit(self, table, monkeypatch,
                                                            threads):
        # n_grid = 384 keeps about 113k points in the ball: full grid chunks
        # and a partial last one, which the golden cantor row (one chunk)
        # cannot see; 4 workers and a short switch interval stress the
        # chunk tasks' partials and the order they are added in
        monkeypatch.setenv("QUC_THREADS", threads)
        sizes, stacked = set(), ce.cantor_stress_fields

        def recording(levels):
            fields = stacked(levels)
            return lambda z: sizes.add(len(z)) or fields(z)

        monkeypatch.setattr(ce, "cantor_stress_fields", recording)
        levels = [4, 8]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=worker_count()) as pool:
                pooled = ce.sobolev_blowup_diagnostic(levels, n_grid=384,
                                                      map=partial(pool_map, pool))
        finally:
            sys.setswitchinterval(interval)
        assert len(sizes) == 2 and ce._GRID_CHUNK in sizes
        assert pooled == [row for row in table if row.level in levels]

    def test_levels_must_increase(self):
        with pytest.raises(InputError):
            ce.sobolev_blowup_diagnostic([4, 4, 5])

    def test_fractional_level_and_grid_rejected(self):
        # not truncated to levels [4, 6] and a 64-point grid
        with pytest.raises(InputError, match="level must be an integer"):
            ce.check_levels([4.5, 6.9])
        with pytest.raises(InputError, match="n_grid must be an integer"):
            ce.check_n_grid(64.7)
