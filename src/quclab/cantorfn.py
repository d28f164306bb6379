"""Finite-level Cantor (devil's staircase) function with exact piece tables.

``CantorProfile(level)`` realizes the level-L middle-thirds approximant
h_L : [0,1] -> [0,1] as an explicit piecewise-affine table (2^L ramps of
width 3^-L and slope (3/2)^L, flat in the removed gaps), extended to all
t >= 0 by h(t + k) = k + h(t).  The antiderivative H_L(t) = int_0^t h_L is
evaluated in closed form per piece, so downstream integrands built from
H_L carry no quadrature error.

sup_t |h_L - h_{L+1}| = 2^-L / 6, hence |h_L - h| <= 2^-L / 3.

Piece lookup.  Every ramp and every gap is a union of cells of width 3^-L,
so a cell table maps floor(3^L s) straight to the piece that holds s in
[0, 1); the float breakpoints sit within a few ulps of the cell edges, so
one comparison with each neighbour finds the piece that a binary search
over the breakpoints finds, bit for bit.  The table holds 3^L + 1 uint16
entries (3.2 MB at L = 13, 9.6 MB at L = 14); uint16 holds the 2^(L+1) + 1
piece indices only up to L = 14, which caps the level (a lab run resolves
level-L ramps with about 3^L grid points per axis and asks for L <= 13).
``cantor_profile`` builds each level's tables once per process.

Several levels at once.  The gaps are nested: a gap of level L is a removed
interval of every finer level too, and h_L' takes there the same dyadic
value (exact in floating point) for every L' >= L.  ``h_levels`` therefore
looks every point up at the coarsest level and each finer level only at the
points that the previous level left in a ramp, bit for bit the rows of the
per-level ``h``.  The float breakpoints of two levels at one real breakpoint
can differ by an ulp (at 381 of the 4,096 level-12 ramp ends against level
13), so a gap point within a few ulps of its gap's ends is looked up again
as well; a ramp-only test would miss those points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError

_TABLE_MAX_LEVEL = 14  # 2^15 + 1 piece indices still fit in uint16

# Two levels' float breakpoints at one real breakpoint differ by at most one
# ulp of 1 (levels 1..14); a gap point this close to an end of its gap is
# looked up again at the next level.
_EDGE_TOL = 4.0 * np.finfo(float).eps


def _build_tables(level: int):
    """Breakpoints, left values, slopes and cumulative integrals on [0, 1].

    Pieces alternate ramp / gap: ramp starts are the left endpoints of the
    level-L Cantor intervals (ternary digits in {0, 2}), enumerated by an
    L-bit counter.
    """
    n_ramps = 1 << level
    bits = ((np.arange(n_ramps)[:, None] >> np.arange(level - 1, -1, -1)) & 1).astype(float)
    pow3 = 3.0 ** -np.arange(1, level + 1)
    pow2 = 2.0 ** -np.arange(1, level + 1)
    ramp_left = (2.0 * bits * pow3).sum(axis=1)
    ramp_val = (bits * pow2).sum(axis=1)
    width = 3.0 ** -level
    slope = 1.5 ** level

    order = np.argsort(ramp_left)
    ramp_left = ramp_left[order]
    ramp_val = ramp_val[order]

    # Interleave ramps with the gaps that follow them; the final "gap" is the
    # single point t = 1, kept as a zero-length sentinel piece of value 1.
    breaks = np.empty(2 * n_ramps + 1)
    vals = np.empty(2 * n_ramps + 1)
    slopes = np.empty(2 * n_ramps + 1)
    breaks[0::2][:n_ramps] = ramp_left
    breaks[1::2] = ramp_left + width
    breaks[-1] = 1.0
    vals[0::2][:n_ramps] = ramp_val
    vals[1::2] = ramp_val + 2.0 ** -level
    vals[-1] = 1.0
    slopes[0::2][:n_ramps] = slope
    slopes[1::2] = 0.0
    slopes[-1] = 0.0

    seg = np.diff(breaks, append=1.0)
    seg_int = vals * seg + 0.5 * slopes * seg * seg
    cumint = np.concatenate([[0.0], np.cumsum(seg_int)])[:-1]
    return breaks, vals, slopes, cumint


def _cell_table(level: int) -> np.ndarray:
    """Piece index of each cell [c, c+1) 3^-L, plus one entry for NaN.

    Ramp r fills the cell whose ternary digits are twice the bits of r and
    the gap after it fills the cells up to the next ramp; the last gap is
    empty and the extra entry sends NaN to the t = 1 sentinel piece.
    """
    n_ramps = 1 << level
    bits = (np.arange(n_ramps)[:, None] >> np.arange(level - 1, -1, -1)) & 1
    cells = (2 * bits) @ 3 ** np.arange(level - 1, -1, -1)
    runs = np.ones(2 * n_ramps + 1, dtype=np.int64)
    runs[1::2] = np.diff(cells, append=3 ** level) - 1
    return np.repeat(np.arange(len(runs), dtype=np.uint16), runs)


def _split(t):
    """t >= 0 as its integer part and its fraction in [0, 1)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise InputError("the profile is defined for t >= 0")
    k = np.floor(t)
    return k, t - k


@dataclass(frozen=True)
class CantorProfile:
    """Level-L Cantor function, its slope field and exact antiderivative."""

    level: int
    _breaks: np.ndarray = field(repr=False, default=None)
    _vals: np.ndarray = field(repr=False, default=None)
    _slopes: np.ndarray = field(repr=False, default=None)
    _cumint: np.ndarray = field(repr=False, default=None)
    _upper: np.ndarray = field(repr=False, default=None)
    _tab: np.ndarray = field(repr=False, default=None)
    _settled: tuple = field(repr=False, default=None)

    def __post_init__(self):
        if self.level < 1:
            raise InputError("level must be >= 1")
        if self.level > _TABLE_MAX_LEVEL:
            raise InputError(f"level must be <= {_TABLE_MAX_LEVEL}, the cell table's cap, "
                             f"got {self.level}")
        breaks, vals, slopes, cumint = _build_tables(self.level)
        object.__setattr__(self, "_breaks", breaks)
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_cumint", cumint)
        # right end of each piece; the sentinel's is +inf
        upper = np.append(breaks[1:], np.inf)
        object.__setattr__(self, "_upper", upper)
        # open interval of each piece whose points keep their value at every
        # finer level: a gap less _EDGE_TOL at each end, empty for a ramp
        gap = slopes == 0.0
        object.__setattr__(self, "_settled", (np.where(gap, breaks + _EDGE_TOL, np.inf),
                                              np.where(gap, upper - _EDGE_TOL, -np.inf)))
        object.__setattr__(self, "_tab", _cell_table(self.level))

    def _pieces(self, frac: np.ndarray) -> np.ndarray:
        """Index of the piece holding each frac in [0, 1]; NaN and 1 go to the sentinel."""
        n_cells = len(self._tab) - 1
        # fmin sends NaN to the table's last entry, the sentinel
        j = self._tab[np.fmin(frac * n_cells, n_cells).astype(np.intp)].astype(np.intp)
        j -= frac < self._breaks[j]
        j += frac >= self._upper[j]
        return j

    def _unit_h(self, frac: np.ndarray, j: np.ndarray) -> np.ndarray:
        """h_L(frac) on [0, 1] from the pieces j that hold frac."""
        # vals + slopes (frac - breaks), in place: fresh arrays of the
        # point count cost more than the arithmetic
        val = np.asarray(frac - self._breaks[j])  # an array also for one point
        val *= self._slopes[j]
        val += self._vals[j]
        return np.minimum(val, 1.0, out=val)

    def h(self, t):
        """h_L(t) for t >= 0 (integer-shift extension h(t+k) = k + h(t))."""
        k, frac = _split(t)
        out = k + self._unit_h(frac, self._pieces(frac))
        return float(out) if out.ndim == 0 else out

    def h_prime(self, t):
        """Slope of h_L; right-continuous at breakpoints ((3/2)^L on ramps, 0 in gaps)."""
        _, frac = _split(t)
        out = self._slopes[self._pieces(frac)]
        return float(out) if np.ndim(out) == 0 else out

    def H(self, t):
        """H_L(t) = int_0^t h_L, exact per affine/flat piece.

        For t = k + s with integer k and s in [0,1):
        H(t) = k(k-1)/2 + k H(1) + k s + H(s), with H(1) = 1/2 by symmetry.
        """
        k, s = _split(t)
        j = self._pieces(s)
        ds = s - self._breaks[j]
        h_unit = self._cumint[j] + self._vals[j] * ds + 0.5 * self._slopes[j] * ds * ds
        out = 0.5 * k * (k - 1.0) + 0.5 * k + k * s + h_unit
        return float(out) if out.ndim == 0 else out

    def breakpoints_in(self, lo: float, hi: float) -> np.ndarray:
        """All kink abscissae of h_L inside [lo, hi] (for quadrature splitting)."""
        if hi <= lo:
            return np.empty(0)
        out = []
        for k in range(int(np.floor(lo)), int(np.floor(hi)) + 1):
            b = k + self._breaks
            out.append(b[(b >= lo) & (b <= hi)])
        return np.unique(np.concatenate(out)) if out else np.empty(0)


@lru_cache(maxsize=16)
def cantor_profile(level: int) -> CantorProfile:
    """The level-L profile, built once and shared (it is immutable).  The
    cache holds the default ``cantor`` range 4..12 whole, so the blow-up
    table reuses the profiles the stress evaluator built."""
    return CantorProfile(level)


def h_levels(profiles, t) -> np.ndarray:
    """h_L(t) of each profile, levels increasing, as a (k, M) array for (M,) t.

    Row i equals ``profiles[i].h(t)`` bit for bit.  Every point is looked up
    at the coarsest level; a finer level looks up only the points that the
    previous one placed in a ramp or within _EDGE_TOL of a gap's end, and
    the others keep the previous row's value: on a gap of level L, h_L' is
    the same dyadic number for every L' >= L.
    """
    levels = [profile.level for profile in profiles]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise InputError("levels must be non-empty and strictly increasing")
    k, frac = _split(t)
    shape = frac.shape
    k, frac = k.ravel(), frac.ravel()
    out = np.empty((len(profiles), frac.size))
    idx = None  # the points looked up at this level; None for all of them
    for i, profile in enumerate(profiles):
        j = profile._pieces(frac)
        if idx is None:
            np.add(k, profile._unit_h(frac, j), out=out[i])
        else:
            out[i] = out[i - 1]
            out[i, idx] = k + profile._unit_h(frac, j)
        if i + 1 < len(profiles):
            lo, hi = profile._settled
            again = (frac <= lo[j]) | (frac >= hi[j])
            idx = np.flatnonzero(again) if idx is None else idx[again]
            k, frac = k[again], frac[again]
    return out.reshape((len(profiles),) + shape)
