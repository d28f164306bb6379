"""Adaptive 2-D quadrature on a quadtree with tensor Gauss panels.

Each active cell is integrated with tensor Gauss-Legendre rules of orders 3
and 5; their difference drives refinement.  Cells are processed in blocks of
at most ``_BLOCK_CELLS``, and each block's 9 + 25 nodes go to the integrand
in one call, so it sees large point arrays while its temporaries stay
bounded.  The integrand must be pointwise; the block size then does not
change any sum.  Refinement is bounded by a depth cap and a global cell
budget, and the achieved error estimate is returned alongside the value.

Point layout: ``fn`` receives an (M, 2) float array whose rows are the
points, cell by cell and node by node within a cell.  It is the transpose
of a C-contiguous (2, M) block, so ``pts[:, 0]`` and ``pts[:, 1]`` are
contiguous and ``np.empty_like(pts)`` keeps that layout for outputs.  An
integrand that needs C order may copy; the values are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

_G3 = np.polynomial.legendre.leggauss(3)
_G5 = np.polynomial.legendre.leggauss(5)


def _tensor_rule(rule):
    x, w = rule
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    return np.stack([xx.ravel(), yy.ravel()], axis=1), ww.ravel()


_PTS3, _W3 = _tensor_rule(_G3)
_PTS5, _W5 = _tensor_rule(_G5)
_NODES = np.concatenate([_PTS3, _PTS5])  # (9 + 25, 2) on [-1, 1]^2
_N3 = len(_PTS3)
_BLOCK_CELLS = 1024


@dataclass(frozen=True)
class QuadResult:
    value: float | np.ndarray           # (k,) for a (k, M) integrand
    error_estimate: float | np.ndarray  # likewise
    cells_used: int
    depth_reached: int


def adaptive_quad_2d(fn, box, tol_cell: float = 1e-12, max_depth: int = 10,
                     max_cells: int = 200_000) -> QuadResult:
    """Integrate a batched callable fn((M, 2)) -> (M,) over box = (x0, x1, y0, y1).

    An fn returning (k, M) gives k integrals on one quadtree, refined while
    any of them has a cell error above tol_cell, and (k,) value and error."""
    x0, x1, y0, y1 = box
    if not (x1 > x0 and y1 > y0):
        raise InputError("empty integration box")

    centers = np.array([[0.5 * (x0 + x1), 0.5 * (y0 + y1)]])
    half = np.array([0.5 * (x1 - x0), 0.5 * (y1 - y0)])  # the same for every cell
    total = err_acc = 0.0
    cells_used = depth = 0
    while len(centers):
        area_w = half[0] * half[1]
        i3, i5 = [], []
        for lo in range(0, len(centers), _BLOCK_CELLS):
            c = centers[lo:lo + _BLOCK_CELLS]
            # center + half * node, one coordinate at a time: broadcasting
            # over a last axis of length 2 is several times slower
            pts = np.stack([c[:, k, None] + half[k] * _NODES[:, k] for k in range(2)])
            f = np.asarray(fn(pts.reshape(2, -1).T), float)
            vector = f.ndim == 2
            f = f.reshape(-1, len(c), len(_NODES))  # (k, cells, nodes)
            i3.append(f[..., :_N3] @ _W3)
            i5.append(f[..., _N3:] @ _W5)
        i3 = np.concatenate(i3, axis=1) * area_w
        i5 = np.concatenate(i5, axis=1) * area_w
        err = np.abs(i5 - i3)
        done = (err.max(axis=0) <= tol_cell) | (depth >= max_depth)
        if cells_used + 4 * np.count_nonzero(~done) > max_cells:
            done = np.ones(len(centers), bool)  # budget exhausted: accept all
        # 1-D sums are pairwise, as for a scalar integrand; axis-1 sums are not
        total += np.array([row.sum() for row in i5[:, done]])
        err_acc += np.array([row.sum() for row in err[:, done]])
        cells_used += int(done.sum())
        centers = centers[~done]
        if len(centers):
            half = 0.5 * half
            offs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], float)
            centers = (centers[:, None, :] + half * offs).reshape(-1, 2)
            depth += 1
    if not vector:
        total, err_acc = float(total[0]), float(err_acc[0])
    return QuadResult(value=total, error_estimate=err_acc,
                      cells_used=cells_used, depth_reached=depth)
