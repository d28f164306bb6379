"""Tests for the periodic FFT engine: div-curl, identities, norms."""

import tracemalloc

import numpy as np
import pytest

from quclab.cli import main
from quclab.cordes import apply_T
from quclab.errors import InputError
from quclab import spectral as sp


def grid2(n=64):
    return sp.PeriodicGrid(dim=2, n=n)


def trig_field(grid, modes):
    """Band-1 vector field whose component comp holds c e^{i xi x} for each
    {(comp, position): c}, plus its conjugate where xi_2 > 0; positions index
    the (3, 2) half box, where leading position 2 is xi_1 = -1."""
    half = np.zeros((2, 3, 2), complex)
    for index, c in modes.items():
        half[index] = c * grid.n ** 2
    return sp.SpectralField(grid, "vector", half, 1)


def cos_x1(grid):
    """V = (cos x1, 0): the modes xi = +-e1 of component 0, each 1/2."""
    return trig_field(grid, {(0, 1, 0): 0.5, (0, 2, 0): 0.5})


class TestGridAndFields:
    def test_grid_validation(self):
        with pytest.raises(InputError):
            sp.PeriodicGrid(dim=4, n=16)
        with pytest.raises(InputError):
            sp.PeriodicGrid(dim=2, n=48)

    def test_band_limited_mean_zero(self, rng):
        grid = grid2(32)
        f = sp.SpectralField.random_band_limited(grid, "vector", 4, rng)
        assert np.all(f.half[:, 0, 0] == 0.0)
        assert np.max(np.abs(np.mean(f.values, axis=grid.fft_axes))) < 1e-13
        # the xi_2 = 0 line is Hermitian, so the field is real as drawn
        assert np.array_equal(f.half[..., :1], np.conj(sp.plane_at_minus_xi(f.half)))


class TestDivCurlReconstruct:
    def test_gradient_field_example(self):
        # V = Dg for g = sin(x1): f = Div V = -sin(x1), curl V = 0,
        # and DV = diag(-sin x1, 0)
        grid = grid2(64)
        x = grid.mesh()
        vf = cos_x1(grid)
        assert np.allclose(vf.physical(), [np.cos(x[0]), np.zeros(grid.shape)], atol=1e-15)
        f = sp.divergence(vf)
        assert np.allclose(f.physical()[0], -np.sin(x[0]), atol=1e-12)
        g = sp.curl(vf)
        assert np.max(np.abs(g.physical())) < 1e-12
        dv = sp.matrix_physical(sp.divcurl_reconstruct(f, g))
        assert np.allclose(dv[0, 0], -np.sin(x[0]), atol=1e-11)
        assert np.max(np.abs(dv[0, 1])) < 1e-11
        assert np.max(np.abs(dv[1, 1])) < 1e-11

    def test_zero_data(self):
        grid = grid2(16)
        f = sp.SpectralField(grid, "scalar", np.zeros((1, 5, 3), complex), 2)
        g = sp.SpectralField(grid, "skew", np.zeros((1, 5, 3), complex), 2)
        dv = sp.matrix_physical(sp.divcurl_reconstruct(f, g))
        assert np.max(np.abs(dv)) == 0.0

    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 16)])
    def test_round_trip(self, dim, n, rng):
        grid = sp.PeriodicGrid(dim=dim, n=n)
        for _ in range(5):
            v = sp.SpectralField.random_band_limited(grid, "vector", n // 8, rng)
            dv_direct = sp.matrix_physical(sp.gradient_tensor(v))
            rec = sp.matrix_physical(sp.divcurl_reconstruct(sp.divergence(v), sp.curl(v)))
            scale = np.sqrt(np.sum(dv_direct ** 2)) or 1.0
            assert np.sqrt(np.sum((rec - dv_direct) ** 2)) / scale < 1e-10

    def test_incompatible_grids_rejected(self, rng):
        f = sp.SpectralField.random_band_limited(grid2(16), "scalar", 2, rng)
        g = sp.SpectralField.random_band_limited(grid2(32), "skew", 2, rng)
        with pytest.raises(InputError):
            sp.divcurl_reconstruct(f, g)


class TestEnergyIdentity:
    def test_hand_computed_field(self):
        # V = (cos x1, 0): int |DV|^2 = int sin^2 x1 = int (Div V)^2, curl = 0
        grid = grid2(64)
        v = cos_x1(grid)
        assert sp.divcurl_identity_residual(v) < 1e-12
        dv = sp.matrix_physical(sp.gradient_tensor(v))
        lhs = np.sum(dv * dv) * grid.cell_volume
        assert lhs == pytest.approx(0.5 * (2 * np.pi) ** 2, rel=1e-12)

    def test_rotational_field(self):
        # V = (-sin x2, 0): curl carries half the energy
        grid = grid2(64)
        x = grid.mesh()
        # -sin x2 = (i/2) e^{i x2} + conj: the mode xi = e2 of component 0,
        # whose mirror xi = -e2 lies outside the half box
        v = trig_field(grid, {(0, 0, 1): 0.5j})
        assert np.allclose(v.physical(), [-np.sin(x[1]), np.zeros(grid.shape)], atol=1e-15)
        assert sp.divcurl_identity_residual(v) < 1e-10

    def test_zero_field(self):
        grid = grid2(16)
        v = sp.SpectralField(grid, "vector", np.zeros((2, 5, 3), complex), 2)
        assert sp.divcurl_identity_residual(v) == 0.0

    def test_random_fields(self, rng):
        grid = grid2(64)
        for _ in range(20):
            v = sp.SpectralField.random_band_limited(grid, "vector", 8, rng)
            assert sp.divcurl_identity_residual(v) < 1e-10


class TestLmNorms:
    def test_constant_identity_matrix(self):
        grid = grid2(16)
        m_field = np.zeros((2, 2) + grid.shape)
        m_field[0, 0] = 1.0
        m_field[1, 1] = 1.0
        val = sp.lm_matrix_norm(m_field, 2.0, grid.cell_volume)
        assert val == pytest.approx(np.sqrt(2.0 * (2 * np.pi) ** 2), rel=1e-12)

    def test_zero(self):
        grid = grid2(16)
        assert sp.lm_matrix_norm(np.zeros((2, 2) + grid.shape), 2.0, grid.cell_volume) == 0.0

    def test_homogeneity(self, rng):
        grid = grid2(16)
        m_field = rng.standard_normal((2, 2) + grid.shape)
        c = 3.7
        for m in (0.5, 1.5, 2.0, 6.0):
            assert sp.lm_matrix_norm(c * m_field, m, grid.cell_volume) == pytest.approx(
                c * sp.lm_matrix_norm(m_field, m, grid.cell_volume), rel=1e-12)


class TestLmBound:
    def test_m2_identity_slack(self, rng):
        grid = grid2(64)
        v = sp.SpectralField.random_band_limited(grid, "vector", 8, rng)
        rep = sp.verify_lm_bound(v, 2.0)
        assert rep.holds
        # at m = 2 the exact identity makes the constant-4 bound very loose
        assert rep.lhs <= rep.div_norm + rep.curl_norm

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 6.0])
    def test_random_fields(self, m, rng):
        grid = grid2(64)
        for _ in range(25):
            v = sp.SpectralField.random_band_limited(grid, "vector", 8, rng)
            assert sp.verify_lm_bound(v, m).holds

    def test_gradient_field_second_order_riesz_probe(self, rng):
        # curl-free fields probe the pure second-order Riesz norm at m = 4
        grid = grid2(64)
        m = 4.0
        worst = 0.0
        for _ in range(20):
            u = sp.SpectralField.random_band_limited(grid, "scalar", 8, rng)
            k = grid.box_wavenumbers(u.band)
            vcoef = np.stack([1j * k[j] * u.half[0] for j in range(2)])
            v = sp.SpectralField(grid, "vector", vcoef, u.band)
            rep = sp.verify_lm_bound(v, m)
            assert rep.curl_norm < 1e-10 * max(rep.lhs, 1.0)
            worst = max(worst, rep.lhs / rep.div_norm)
        assert worst <= grid.dim ** 2 * (sp.mhat(m) - 1.0)


class TestOnePassDerivatives:
    """The half-box paths against the reference irfftn of the whole grid on
    white noise at band n/2 - 1, which fills every non-Nyquist mode."""

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (3, 8)])
    def test_white_noise_matches_full_complex_path(self, dim, n, rng):
        grid = sp.PeriodicGrid(dim=dim, n=n)
        band = n // 2 - 1

        def noise(kind, ncomp):
            shape = (ncomp,) + (2 * band + 1,) * (dim - 1) + (band + 1,)
            half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return sp.SpectralField(grid, kind, half, band)

        v = noise("vector", dim)
        dv, div, curl = v.derivatives
        self.assert_close(dv, sp.matrix_physical(sp.gradient_tensor(v)))
        self.assert_close(div, sp.divergence(v).physical()[0])
        self.assert_close(curl, sp.curl(v).physical())
        self.assert_close(v.values, v.physical())

        rec = sp.divcurl_reconstruct(sp.divergence(v), sp.curl(v))
        self.assert_close(rec.values.reshape(dv.shape), sp.matrix_physical(rec))
        f, g = noise("scalar", 1), noise("skew", dim * (dim - 1) // 2)
        rec = sp.divcurl_reconstruct(f, g)
        self.assert_close(rec.values.reshape(dv.shape), sp.matrix_physical(rec))
        self.assert_close(apply_T(f, g), sp.matrix_physical(
            sp.divcurl_reconstruct(f, g.scaled(np.sqrt(2.0)))))

    def test_band_limited_values_match_physical(self, rng):
        grid = sp.PeriodicGrid(dim=3, n=16)
        v = sp.SpectralField.random_band_limited(grid, "vector", 4, rng)
        self.assert_close(v.values, v.physical())

    def test_scalar_field_has_no_derivatives(self, rng):
        u = sp.SpectralField.random_band_limited(grid2(16), "scalar", 2, rng)
        with pytest.raises(InputError):
            u.derivatives


class _Proxy:
    """Module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def test_riesz_check_fft_budget_per_field(tmp_path, monkeypatch):
    # cost in complex n^2 transforms, a real-input or real-output transform
    # counting half: re-deriving DV, Div V and curl V for the identity, the
    # round trip and each of the four L^m checks costs 42 per field
    n = 32
    cost = [0.0]

    def counted(fn, weight):
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            cost[0] += weight * max(np.size(a), np.size(out)) / n ** 2
            return out
        return wrapper

    names = [name for name in dir(np.fft)
             if name.endswith(("fft", "fftn", "fft2")) and not name.startswith("_")]
    fft = _Proxy(np.fft, **{name: counted(getattr(np.fft, name),
                                          0.5 if name.startswith(("r", "ir")) else 1.0)
                            for name in names})
    monkeypatch.setattr(sp, "np", _Proxy(np, fft=fft))

    def run(fields):
        cost[0] = 0.0
        code = main(["riesz-check", "--n", str(n), "--kmax", "8", "--fields", str(fields),
                     "--out", str(tmp_path / str(fields))])
        assert code == 0
        return cost[0]

    # the T-norm probe runs max(10, fields) trials either way
    assert run(2) - run(1) <= 8


class TestBand:
    """A field is its half box of band kmax: the box paths skip only the
    all-zero lines of the reference irfftn, so both give the same bits."""

    CASES = [(2, 32, 1), (2, 32, 8), (3, 16, 1), (3, 16, 4)]

    @staticmethod
    def assert_same(a, b):
        assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("dim,n,kmax", CASES)
    def test_draw_is_a_hermitian_half_box(self, dim, n, kmax):
        grid = sp.PeriodicGrid(dim=dim, n=n)
        c = sp.SpectralField.noise(grid, "vector", kmax, np.random.default_rng(5))
        assert c.shape == (dim,) + (2 * kmax + 1,) * (dim - 1) + (kmax + 1,)
        self.assert_same(c[..., :1], np.conj(sp.plane_at_minus_xi(c)))
        assert np.all(c[(slice(None),) + (0,) * dim] == 0.0)
        v = sp.SpectralField.band_limited(grid, "vector", c)
        assert v.band == kmax
        assert np.max(np.abs(v.values - v.physical())) <= 1e-14
        assert np.all(v.half[(slice(None),) + (0,) * dim] == 0.0)
        assert np.max(np.abs(v.values)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("dim,n,kmax", [(2, 32, 4), (3, 16, 2)])
    def test_plane_and_off_plane_modes_share_their_law(self, dim, n, kmax):
        # |c|^2 of a standard complex normal is Exp(1): the mean over M
        # independent values has standard deviation 1/sqrt(M).  A plane mode
        # and its conjugate are one value, so the plane has half as many.
        grid = sp.PeriodicGrid(dim=dim, n=n)
        rng = np.random.default_rng(17)
        draws = 2000
        c = np.stack([sp.SpectralField.noise(grid, "scalar", kmax, rng)[0]
                      for _ in range(draws)])
        on_plane = np.zeros(c.shape[1:], bool)
        on_plane[..., 0] = True
        on_plane[(0,) * dim] = False  # the mean mode, zero by construction
        off_plane = np.ones(c.shape[1:], bool)
        off_plane[..., 0] = False
        for modes, count in ((on_plane, on_plane.sum() // 2), (off_plane, off_plane.sum())):
            sd = 1.0 / np.sqrt(count * draws)
            assert abs(np.mean(np.abs(c[:, modes]) ** 2) - 1.0) <= 5.0 * sd
            # circular: E c^2 = 0; Re c^2 and Im c^2 have variance 1 each
            assert abs(np.mean(c[:, modes] ** 2)) <= 5.0 * sd

    @pytest.mark.parametrize("dim,n,kmax", CASES)
    def test_box_path_is_bit_identical(self, dim, n, kmax):
        grid = sp.PeriodicGrid(dim=dim, n=n)
        rng = np.random.default_rng(11)
        v, f, g = (sp.SpectralField.random_band_limited(grid, kind, kmax, rng)
                   for kind in ("vector", "scalar", "skew"))
        self.assert_same(grid.irfft_box(v.half), v.physical())
        # a fresh field forms its values instead of reading the stored ones
        fresh = sp.SpectralField(grid, "vector", v.half, kmax)
        self.assert_same(fresh.values, v.physical())
        self.assert_same(fresh.derivatives[0], sp.matrix_physical(sp.gradient_tensor(v)))
        for op in (sp.divergence, sp.curl, lambda u: u.scaled(-1.7)):
            self.assert_same(op(fresh).values, op(v).physical())
        rec = sp.divcurl_reconstruct(sp.divergence(v), sp.curl(v))
        self.assert_same(rec.values, rec.physical())
        self.assert_same(apply_T(f, g), sp.matrix_physical(
            sp.divcurl_reconstruct(f, g.scaled(np.sqrt(2.0)))))

    def test_band_propagates(self, rng):
        v = sp.SpectralField.random_band_limited(grid2(32), "vector", 4, rng)
        assert v.band == 4
        assert v.scaled(2.0).band == 4
        div, cg = sp.divergence(v), sp.curl(v)
        assert div.band == cg.band == 4
        assert sp.gradient_tensor(v).band == 4
        assert sp.divcurl_reconstruct(div, cg).band == 4
        # the reconstruction takes one band
        f = sp.SpectralField.random_band_limited(grid2(32), "scalar", 2, rng)
        with pytest.raises(InputError):
            sp.divcurl_reconstruct(f, cg)

    @pytest.mark.parametrize("band", [-1, 8, None])
    def test_band_out_of_range_rejected(self, band, rng):
        u = sp.SpectralField.random_band_limited(grid2(16), "scalar", 2, rng)
        with pytest.raises(InputError):
            sp.SpectralField(u.grid, "scalar", u.half, band)

    def test_half_box_shape_checked(self, rng):
        u = sp.SpectralField.random_band_limited(grid2(16), "scalar", 2, rng)
        with pytest.raises(InputError):
            sp.SpectralField(u.grid, "scalar", u.half, 3)
        with pytest.raises(InputError):
            sp.SpectralField(u.grid, "vector", u.half, 2)


def test_field_check_memory_512():
    # one 512^2 riesz-check field: the draw, DV, Div V and curl V, the Div and
    # curl fields and the reconstruction's values.  The real grid arrays come
    # to 24 MB; a full (ncomp, n, n) complex spectrum per field adds 32 MB.
    grid = sp.PeriodicGrid(dim=2, n=512)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        v = sp.SpectralField.random_band_limited(grid, "vector", 8, rng)
        dv = v.derivatives[0]
        rec = sp.divcurl_reconstruct(sp.divergence(v), sp.curl(v)).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.shape == (4,) + grid.shape and dv.shape == (2, 2) + grid.shape
    assert peak < 28 * 2 ** 20
