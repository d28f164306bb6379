"""Periodic FFT engine: Riesz reconstruction, div-curl machinery, L^m norms.

Fields live on the 2 pi torus in dimension 2 or 3, where integration by
parts is exact and differentiation is a Fourier multiplier.  The torus
stands in for compactly supported fields on R^N.  The zero Fourier mode is
annihilated by the Riesz convention and all div-curl data is required to
be mean-free.

Conventions: (DV)_{k h} = d_h V_k and (curl V)_{k j} = d_j V_k - d_k V_j,
so curl V = DV - DV^t.  Matrix norms are Frobenius norms; skew fields store
the N(N-1)/2 independent upper-triangle components.

Band: a field may carry the largest max_j |xi_j| of its nonzero
coefficients.  band_limited sets it to kmax (its noise is drawn on the half
box, never on the grid); scaled, divergence, curl and divcurl_reconstruct
pass it on; fields built from coefficients or from grid values carry None,
the whole spectrum.  With a band, spectral products are formed on the
(2 band + 1)^(N-1) x (band + 1) box only, and the transforms skip only
lines that hold nothing but zeros: every array is bit-identical to the
whole-spectrum path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError

PERIOD = 2.0 * np.pi


def skew_pairs(dim: int) -> list[tuple[int, int]]:
    return [(k, j) for k in range(dim) for j in range(k + 1, dim)]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform tensor grid on [0, 2pi)^dim with a power-of-two resolution."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise InputError("field dimension must be 2 or 3")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise InputError("points per axis must be a power of two, >= 8")

    @property
    def h(self) -> float:
        return PERIOD / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*[np.arange(self.n) * self.h] * self.dim, indexing="ij")

    @property
    def fft_axes(self) -> tuple[int, ...]:
        """Grid axes of a (ncomp, n, ..., n) component stack."""
        return tuple(range(1, self.dim + 1))

    def wavenumbers(self) -> np.ndarray:
        """Integer frequencies, shape (dim, n, ..., n); read-only, built once."""
        return self._wavenumbers

    @cached_property
    def _wavenumbers(self) -> np.ndarray:
        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n)
        k = np.stack(np.meshgrid(*([k1] * self.dim), indexing="ij"))
        k.setflags(write=False)
        return k

    def box(self, band: int | None, half: bool = False) -> tuple:
        """Index of the wavenumbers with max_j |xi_j| <= band in a
        (ncomp, n, ..., n) stack, of all of them when band is None; ``half``
        keeps xi >= 0 on the last axis.  Along a box axis of m positions,
        position p holds xi = p mod m in the symmetric range."""
        lines = np.arange(self.n) if band is None else \
            np.r_[0:band + 1, self.n - band:self.n]
        last = lines[:len(lines) // 2 + 1] if half else lines
        return (slice(None),) + np.ix_(*[lines] * (self.dim - 1), last)

    def irfft_box(self, half: np.ndarray, band: int | None) -> np.ndarray:
        """Real grid values of a (ncomp, box...) half spectrum on
        box(band, half=True): irfftn of the zero-padded spectrum, whose ifft
        along each leading axis, in irfftn's order, runs only on the nonzero
        last-axis columns; irfft pads those columns with zeros."""
        lines = np.zeros(half.shape[:1] + self.shape[:-1] + half.shape[-1:], complex)
        lines[self.box(band, half=True)] = half
        for axis in self.fft_axes[:-1]:
            lines = np.fft.ifft(lines, axis=axis)
        return np.fft.irfft(lines, n=self.n, axis=-1)

    def _at_minus_xi(self, c: np.ndarray, last: slice) -> np.ndarray:
        """c(-xi) of a stack in box coordinates (m positions per leading
        axis, -xi at -p mod m), for the xi whose last-axis positions are
        ``last``; c must hold the entries read."""
        m = c.shape[1]
        neg = -np.arange(m) % m
        return c[(slice(None),) + np.ix_(*([neg] * (self.dim - 1) + [neg[last]]))]


_NCOMP = {"scalar": lambda d: 1, "vector": lambda d: d,
          "skew": lambda d: d * (d - 1) // 2, "matrix": lambda d: d * d}


@dataclass(frozen=True)
class SpectralField:
    """Field stored as Fourier coefficients, one block per component.

    ``coeffs`` has shape (ncomp, n, ..., n) even for scalars (ncomp = 1).
    Real-valuedness is maintained by construction from real grid data.
    ``band`` bounds max_j |xi_j| over the nonzero coefficients (None: no
    bound is known).  Fields are immutable: ``values``, ``derivatives`` and
    ``magnitudes`` are formed once.
    """

    grid: PeriodicGrid
    kind: str
    coeffs: np.ndarray
    band: int | None = None

    def __post_init__(self):
        if self.kind not in _NCOMP:
            raise InputError(f"unknown field kind {self.kind!r}")
        want = _NCOMP[self.kind](self.grid.dim)
        if self.coeffs.shape != (want,) + self.grid.shape:
            raise InputError(
                f"coefficient block for {self.kind} must have shape "
                f"{(want,) + self.grid.shape}, got {self.coeffs.shape}")
        if self.band is not None and not 0 <= self.band < self.grid.n // 2:
            raise InputError(f"band must lie in [0, n/2), got {self.band}")

    @classmethod
    def from_physical(cls, grid: PeriodicGrid, values: np.ndarray, kind: str) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if kind == "scalar" and values.shape == grid.shape:
            values = values[None]
        coeffs = np.fft.fftn(values, axes=grid.fft_axes)
        return cls(grid=grid, kind=kind, coeffs=coeffs)

    @classmethod
    def on_box(cls, grid: PeriodicGrid, kind: str, block: np.ndarray,
               band: int | None) -> "SpectralField":
        """Field whose coefficients are ``block`` on grid.box(band), zero elsewhere."""
        coeffs = np.zeros(block.shape[:1] + grid.shape, complex)
        coeffs[grid.box(band)] = block
        return cls(grid, kind, coeffs, band)

    def physical(self) -> np.ndarray:
        """Real part of the full complex inverse transform (the reference path)."""
        out = np.fft.ifftn(self.coeffs, axes=self.grid.fft_axes)
        return np.real(out)

    @cached_property
    def values(self) -> np.ndarray:
        """physical(), formed once through one inverse real FFT.

        The half spectrum is replaced by its Hermitian part, the part whose
        transform physical() keeps, so the two agree for any coefficients.
        band_limited stores the values it forms anyway.
        """
        grid = self.grid
        c = self.coeffs[grid.box(self.band)]
        cols = c.shape[-1] // 2 + 1
        herm = np.conj(grid._at_minus_xi(c, slice(0, cols)))
        herm += c[..., :cols]
        herm *= 0.5
        return grid.irfft_box(herm, self.band)

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(DV, Div V, curl V) of a real vector field on the grid, formed once.

        DV (d, d, *shape) is one inverse real FFT of the d^2 half-spectrum
        blocks i xi_h V^_k with each Nyquist plane zeroed: that first-order
        term is the imaginary part that np.real(ifftn(...)) discards, so on a
        real field DV equals matrix_physical(gradient_tensor(v)).  Div V =
        trace DV and curl V = DV - DV^t (skew storage) are physical products.
        """
        if self.kind != "vector":
            raise InputError("derivatives are formed for vector fields")
        grid = self.grid
        d = grid.dim
        half = grid.box(self.band, half=True)
        k = grid.wavenumbers()[half]
        k = np.where(k == -(grid.n // 2), 0.0, k)
        blocks = 1j * k[None] * self.coeffs[half][:, None]
        dv = grid.irfft_box(blocks.reshape((d * d,) + blocks.shape[2:]),
                            self.band).reshape((d, d) + grid.shape)
        curl_v = np.stack([dv[a, b] - dv[b, a] for a, b in skew_pairs(d)])
        return dv, np.trace(dv), curl_v

    @cached_property
    def magnitudes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(|DV|, |Div V|, |curl V|) pointwise, formed once from derivatives;
        |curl V| is the Frobenius norm over both triangles."""
        dv, div, cg = self.derivatives
        return (np.sqrt(np.sum(dv ** 2, axis=(0, 1))), np.abs(div),
                np.sqrt(2.0 * np.sum(cg * cg, axis=0)))

    def hermitian_error(self) -> float:
        """Departure from real-valuedness after inverse transform."""
        out = np.fft.ifftn(self.coeffs, axes=self.grid.fft_axes)
        scale = np.max(np.abs(out)) or 1.0
        return float(np.max(np.abs(np.imag(out))) / scale)

    def mean_values(self) -> np.ndarray:
        zero = (slice(None),) + (0,) * self.grid.dim
        return np.real(self.coeffs[zero]) / self.grid.n ** self.grid.dim

    def scaled(self, factor: float) -> "SpectralField":
        box = self.grid.box(self.band)
        return SpectralField.on_box(self.grid, self.kind, factor * self.coeffs[box],
                                    self.band)

    @staticmethod
    def noise(grid: PeriodicGrid, kind: str, kmax: int, rng: np.random.Generator) -> np.ndarray:
        """box(kmax, half=True) of real white noise's DFT, up to n^(N/2): standard
        complex normals from rng, c <- (c + conj c(-xi)) / sqrt 2 on the xi_last = 0
        plane (exactly Hermitian, each mode's law kept) and the mean mode zero."""
        if kmax < 1 or kmax > grid.n // 4:
            raise InputError("kmax must lie in [1, n/4] to keep products alias-free")
        shape = (_NCOMP[kind](grid.dim),) + (2 * kmax + 1,) * (grid.dim - 1) + (kmax + 1,)
        c = rng.standard_normal(shape + (2,)).view(complex)[..., 0] * np.sqrt(0.5)
        c[..., :1] = (c[..., :1] + np.conj(grid._at_minus_xi(c, slice(0, 1)))) * np.sqrt(0.5)
        c[(slice(None),) + (0,) * grid.dim] = 0.0
        return c

    @classmethod
    def random_band_limited(cls, grid: PeriodicGrid, kind: str, kmax: int,
                            rng: np.random.Generator) -> "SpectralField":
        """band_limited of one noise draw from rng."""
        return cls.band_limited(grid, kind, cls.noise(grid, kind, kmax, rng))

    @classmethod
    def band_limited(cls, grid: PeriodicGrid, kind: str, noise: np.ndarray) -> "SpectralField":
        """A noise() draw as the mean-free field of band kmax with max |values| = 1."""
        kmax = noise.shape[-1] - 1
        # the xi_last = 0 plane is Hermitian: the inverse real FFT is exact,
        # and the xi_last < 0 coefficients are the conjugate mirror
        values = grid.irfft_box(noise, kmax)
        factor = 1.0 / (np.max(np.abs(values)) or 1.0)
        half = noise * factor
        values *= factor
        mirror = np.conj(grid._at_minus_xi(half, slice(kmax + 1, None)))
        field = cls.on_box(grid, kind, np.concatenate([half, mirror], axis=-1), kmax)
        field.__dict__["values"] = values
        return field


def gradient_tensor(v: SpectralField) -> SpectralField:
    """(DV)_{k h} = d_h V_k as a matrix field."""
    if v.kind != "vector":
        raise InputError("gradient_tensor acts on vector fields")
    coeffs = 1j * v.grid.wavenumbers()[None] * v.coeffs[:, None]
    return SpectralField(v.grid, "matrix", coeffs.reshape((-1,) + v.grid.shape))


def divergence(v: SpectralField) -> SpectralField:
    if v.kind != "vector":
        raise InputError("divergence acts on vector fields")
    box = v.grid.box(v.band)
    k = v.grid.wavenumbers()[box]
    coeffs = np.sum(1j * k * v.coeffs[box], axis=0, keepdims=True)
    return SpectralField.on_box(v.grid, "scalar", coeffs, v.band)


def curl(v: SpectralField) -> SpectralField:
    """Skew field (curl V)_{k j} = d_j V_k - d_k V_j, upper-triangle storage."""
    if v.kind != "vector":
        raise InputError("curl acts on vector fields")
    box = v.grid.box(v.band)
    k, c = v.grid.wavenumbers()[box], v.coeffs[box]
    comps = [1j * (k[b] * c[a] - k[a] * c[b]) for a, b in skew_pairs(v.grid.dim)]
    return SpectralField.on_box(v.grid, "skew", np.stack(comps), v.band)


def matrix_physical(m: SpectralField) -> np.ndarray:
    """Physical (d, d, *shape) array of a matrix field."""
    if m.kind != "matrix":
        raise InputError("expected a matrix field")
    d = m.grid.dim
    return m.physical().reshape((d, d) + m.grid.shape)


def divcurl_reconstruct(f: SpectralField, g: SpectralField) -> SpectralField:
    """Gradient matrix of the mean-free solution of Div V = f, curl V = G.

    Component formula (Fourier side):
        (DV)_{k h} = xi_h xi_k / |xi|^2 f^ + sum_j xi_h xi_j / |xi|^2 G^_{k j},
    which realizes D_h V_k = -R_h R_k Div V - sum_j R_h R_j curl_{k j} V.
    """
    if f.kind != "scalar" or g.kind != "skew":
        raise InputError("divcurl_reconstruct takes (scalar, skew) data")
    if f.grid != g.grid:
        raise InputError("incompatible grids")
    grid = f.grid
    d = grid.dim
    # the larger band covers both fields; an unbanded one takes the whole spectrum
    band = None if None in (f.band, g.band) else max(f.band, g.band)
    box = grid.box(band)
    k, g_hat = grid.wavenumbers()[box], g.coeffs[box]
    mag2 = np.sum(k * k, axis=0)
    mag2[(0,) * d] = 1.0  # the numerators vanish at the zero mode
    # q_k = (xi_k f^ + sum_j xi_j G^_{k j}) / |xi|^2, then (DV)_{k h} = xi_h q_k
    q = k * f.coeffs[box]
    for idx, (a, b) in enumerate(skew_pairs(d)):
        q[a] += k[b] * g_hat[idx]
        q[b] -= k[a] * g_hat[idx]
    q /= mag2
    coeffs = k[None] * q[:, None]
    return SpectralField.on_box(grid, "matrix", coeffs.reshape((d * d,) + k.shape[1:]), band)


# -- integral norms on the grid (midpoint rule; spectrally accurate) ----------

def lm_scalar_norm(values: np.ndarray, m: float, cell_volume: float) -> float:
    if m <= 0.0:
        raise InputError("m must be > 0")
    return float((np.sum(np.abs(values) ** m) * cell_volume) ** (1.0 / m))


def lm_matrix_norm(values: np.ndarray, m: float, cell_volume: float) -> float:
    """(int |M(x)|_F^m dx)^(1/m); for m in (0,1) this is only positively
    1-homogeneous, which is all the small-exponent diagnostics use."""
    if values.ndim < 3:
        raise InputError("expected a (d, d, grid...) matrix field")
    mag = np.sqrt(np.sum(values ** 2, axis=(0, 1)))
    return lm_scalar_norm(mag, m, cell_volume)


def mhat(m: float) -> float:
    if m <= 1.0:
        raise InputError("m must be > 1")
    return max(m, m / (m - 1.0))


def divcurl_identity_residual(v: SpectralField) -> float:
    """Relative defect of  int |DV|^2 = 1/2 int |curl V|^2 + int (Div V)^2.

    With A = DV the pointwise defect is 2 sum_{i<j} (a_ij a_ji - a_ii a_jj),
    which integrates to zero only by parts; the check stays an integral one.
    """
    vol = v.grid.cell_volume
    dv, div, cg = v.derivatives
    lhs = np.sum(dv * dv) * vol
    curl_sq = 2.0 * np.sum(cg * cg) * vol  # both triangles of the skew matrix
    rhs = 0.5 * curl_sq + np.sum(div * div) * vol
    scale = max(lhs, 1e-300)
    return float(abs(lhs - rhs) / scale)


@dataclass(frozen=True)
class LmBoundReport:
    m: float
    lhs: float
    rhs: float
    holds: bool
    div_norm: float
    curl_norm: float


def verify_lm_bound(v: SpectralField, m: float) -> LmBoundReport:
    """Check  ||DV||_m <= N^2 (mhat - 1) (||Div V||_m + ||curl V||_m)."""
    grid = v.grid
    vol = grid.cell_volume
    dv_mag, div_mag, curl_mag = v.magnitudes
    lhs = lm_scalar_norm(dv_mag, m, vol)
    div_norm = lm_scalar_norm(div_mag, m, vol)
    curl_norm = lm_scalar_norm(curl_mag, m, vol)
    rhs = grid.dim ** 2 * (mhat(m) - 1.0) * (div_norm + curl_norm)
    return LmBoundReport(m=m, lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1.0 + 1e-12)),
                         div_norm=div_norm, curl_norm=curl_norm)

