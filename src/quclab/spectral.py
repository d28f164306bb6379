"""Periodic FFT engine: Riesz reconstruction, div-curl machinery, L^m norms.

Fields live on the 2 pi torus in dimension 2 or 3, where integration by
parts is exact and differentiation is a Fourier multiplier.  The torus
stands in for compactly supported fields on R^N.  The zero Fourier mode is
annihilated by the Riesz convention and all div-curl data is required to
be mean-free.

Conventions: (DV)_{k h} = d_h V_k and (curl V)_{k j} = d_j V_k - d_k V_j,
so curl V = DV - DV^t.  Matrix norms are Frobenius norms; skew fields store
the N(N-1)/2 independent upper-triangle components.

Band: every field is real and band-limited, and is stored as its half box,
the coefficients with max_j |xi_j| <= band and xi_N >= 0, a
(2 band + 1)^(N-1) x (band + 1) block per component; the xi_N < 0 half is
the conjugate mirror, and no coefficient outside the box is nonzero.
band_limited sets the band to kmax (its noise is drawn on the half box,
never on the grid); scaled, divergence, curl, gradient_tensor and
divcurl_reconstruct act on the block and keep the band.  The inverse FFTs
run only on the box's lines; physical() is the reference, irfftn of the
half spectrum zero-padded to the whole grid.
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

    def box(self, band: int) -> tuple:
        """Index of the half box max_j |xi_j| <= band, xi_N >= 0, in a
        (ncomp, n, ..., n, m) half spectrum (m > band).  Along a leading box
        axis of 2 band + 1 positions, position p holds xi = p mod (2 band + 1)
        in the symmetric range; along the last, position p holds xi = p."""
        lines = np.r_[0:band + 1, self.n - band:self.n]
        return (slice(None),) + np.ix_(*[lines] * (self.dim - 1), lines[:band + 1])

    def box_wavenumbers(self, band: int) -> np.ndarray:
        """Integer frequencies on the half box, shape (dim, 2 band + 1, ..., band + 1)."""
        lines = np.r_[0:band + 1, -band:0].astype(float)
        return np.stack(np.meshgrid(*[lines] * (self.dim - 1), lines[:band + 1],
                                    indexing="ij"))

    def irfft_box(self, half: np.ndarray) -> np.ndarray:
        """Real grid values of a (ncomp, box...) half box of band
        half.shape[-1] - 1: irfftn of the zero-padded spectrum, whose ifft
        along each leading axis, in irfftn's order, runs only on the band + 1
        last-axis columns; irfft pads those columns with zeros."""
        lines = np.zeros(half.shape[:1] + self.shape[:-1] + half.shape[-1:], complex)
        lines[self.box(half.shape[-1] - 1)] = half
        for axis in self.fft_axes[:-1]:
            lines = np.fft.ifft(lines, axis=axis)
        return np.fft.irfft(lines, n=self.n, axis=-1)


def plane_at_minus_xi(c: np.ndarray) -> np.ndarray:
    """c(-xi) on the xi_N = 0 plane of a (ncomp, box...) half box, where -xi
    sits at -p mod (2 band + 1) along each leading axis; shape (ncomp, ..., 1)."""
    m = c.shape[1]
    neg = -np.arange(m) % m
    return c[(slice(None),) + np.ix_(*[neg] * (c.ndim - 2), [0])]


_NCOMP = {"scalar": lambda d: 1, "vector": lambda d: d,
          "skew": lambda d: d * (d - 1) // 2, "matrix": lambda d: d * d}


@dataclass(frozen=True)
class SpectralField:
    """Real field of band ``band`` stored as its half box.

    ``half`` has shape (ncomp, 2 band + 1, ..., 2 band + 1, band + 1), even
    for scalars (ncomp = 1): the coefficients on grid.box(band).  The
    xi_N < 0 coefficients are the conjugate mirror and those outside the box
    are zero; the inverse real FFT reads only the Hermitian part of the
    xi_N = 0 plane.  ``band`` is an int in [0, n/2), so the box holds no
    Nyquist line.  Fields are immutable: ``values``, ``derivatives`` and
    ``magnitudes`` are formed once.
    """

    grid: PeriodicGrid
    kind: str
    half: np.ndarray
    band: int

    def __post_init__(self):
        if self.kind not in _NCOMP:
            raise InputError(f"unknown field kind {self.kind!r}")
        if not (isinstance(self.band, int) and 0 <= self.band < self.grid.n // 2):
            raise InputError(f"band must be an int in [0, n/2), got {self.band!r}")
        b, d = self.band, self.grid.dim
        want = (_NCOMP[self.kind](d),) + (2 * b + 1,) * (d - 1) + (b + 1,)
        if self.half.shape != want:
            raise InputError(
                f"half box for {self.kind} of band {b} must have shape {want}, "
                f"got {self.half.shape}")

    def physical(self) -> np.ndarray:
        """irfftn of the half spectrum zero-padded to the whole grid (the reference path)."""
        grid = self.grid
        spectrum = np.zeros(self.half.shape[:1] + grid.shape[:-1] + (grid.n // 2 + 1,),
                            complex)
        spectrum[grid.box(self.band)] = self.half
        return np.fft.irfftn(spectrum, s=grid.shape, axes=grid.fft_axes)

    @cached_property
    def values(self) -> np.ndarray:
        """physical(), formed once by irfft_box; band_limited stores the values
        it forms anyway."""
        return self.grid.irfft_box(self.half)

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(DV, Div V, curl V) of a vector field on the grid, formed once.

        DV (d, d, *shape) is one irfft_box of the d^2 half-box blocks
        i xi_h V^_k; Div V = trace DV and curl V = DV - DV^t (skew storage)
        are physical products.
        """
        if self.kind != "vector":
            raise InputError("derivatives are formed for vector fields")
        grid = self.grid
        d = grid.dim
        k = grid.box_wavenumbers(self.band)
        blocks = 1j * k[None] * self.half[:, None]
        dv = grid.irfft_box(blocks.reshape((d * d,) + blocks.shape[2:])) \
            .reshape((d, d) + grid.shape)
        curl_v = np.stack([dv[a, b] - dv[b, a] for a, b in skew_pairs(d)])
        return dv, np.trace(dv), curl_v

    @cached_property
    def magnitudes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(|DV|, |Div V|, |curl V|) pointwise, formed once from derivatives;
        |curl V| is the Frobenius norm over both triangles."""
        dv, div, cg = self.derivatives
        return (np.sqrt(np.sum(dv ** 2, axis=(0, 1))), np.abs(div),
                np.sqrt(2.0 * np.sum(cg * cg, axis=0)))

    def scaled(self, factor: float) -> "SpectralField":
        return SpectralField(self.grid, self.kind, factor * self.half, self.band)

    @staticmethod
    def noise(grid: PeriodicGrid, kind: str, kmax: int, rng: np.random.Generator) -> np.ndarray:
        """box(kmax) of real white noise's DFT, up to n^(N/2): standard complex
        normals from rng, c <- (c + conj c(-xi)) / sqrt 2 on the xi_N = 0 plane
        (exactly Hermitian, each mode's law kept) and the mean mode zero."""
        if kmax < 1 or kmax > grid.n // 4:
            raise InputError("kmax must lie in [1, n/4] to keep products alias-free")
        shape = (_NCOMP[kind](grid.dim),) + (2 * kmax + 1,) * (grid.dim - 1) + (kmax + 1,)
        c = rng.standard_normal(shape + (2,)).view(complex)[..., 0] * np.sqrt(0.5)
        c[..., :1] = (c[..., :1] + np.conj(plane_at_minus_xi(c))) * np.sqrt(0.5)
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
        values = grid.irfft_box(noise)
        factor = 1.0 / (np.max(np.abs(values)) or 1.0)
        values *= factor
        field = cls(grid, kind, noise * factor, noise.shape[-1] - 1)
        field.__dict__["values"] = values
        return field


def gradient_tensor(v: SpectralField) -> SpectralField:
    """(DV)_{k h} = d_h V_k as a matrix field."""
    if v.kind != "vector":
        raise InputError("gradient_tensor acts on vector fields")
    k = v.grid.box_wavenumbers(v.band)
    blocks = 1j * k[None] * v.half[:, None]
    return SpectralField(v.grid, "matrix", blocks.reshape((-1,) + k.shape[1:]), v.band)


def divergence(v: SpectralField) -> SpectralField:
    if v.kind != "vector":
        raise InputError("divergence acts on vector fields")
    k = v.grid.box_wavenumbers(v.band)
    return SpectralField(v.grid, "scalar", np.sum(1j * k * v.half, axis=0, keepdims=True),
                         v.band)


def curl(v: SpectralField) -> SpectralField:
    """Skew field (curl V)_{k j} = d_j V_k - d_k V_j, upper-triangle storage."""
    if v.kind != "vector":
        raise InputError("curl acts on vector fields")
    k, c = v.grid.box_wavenumbers(v.band), v.half
    comps = [1j * (k[b] * c[a] - k[a] * c[b]) for a, b in skew_pairs(v.grid.dim)]
    return SpectralField(v.grid, "skew", np.stack(comps), v.band)


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
    f and G must share the grid and the band.
    """
    if f.kind != "scalar" or g.kind != "skew":
        raise InputError("divcurl_reconstruct takes (scalar, skew) data")
    if f.grid != g.grid:
        raise InputError("incompatible grids")
    if f.band != g.band:
        raise InputError(f"divcurl_reconstruct takes one band, got {f.band} and {g.band}")
    d = f.grid.dim
    k = f.grid.box_wavenumbers(f.band)
    mag2 = np.sum(k * k, axis=0)
    mag2[(0,) * d] = 1.0  # the numerators vanish at the zero mode
    # q_k = (xi_k f^ + sum_j xi_j G^_{k j}) / |xi|^2, then (DV)_{k h} = xi_h q_k
    q = k * f.half
    for idx, (a, b) in enumerate(skew_pairs(d)):
        q[a] += k[b] * g.half[idx]
        q[b] -= k[a] * g.half[idx]
    q /= mag2
    blocks = k[None] * q[:, None]
    return SpectralField(f.grid, "matrix", blocks.reshape((d * d,) + k.shape[1:]), f.band)


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

