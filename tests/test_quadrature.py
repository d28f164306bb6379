"""Tests for the adaptive quadtree cubature."""

import numpy as np

from quclab import quadrature
from quclab.quadrature import QuadResult, adaptive_quad_2d


def _integrand(pts):
    # pointwise, with only +, * and /: no sum depends on the batch layout
    x, y = pts[:, 0], pts[:, 1]
    y2 = y * y
    return x * y2 * y2 * y2 + 1.0 / (0.01 + (x - 0.3) * (x - 0.3))


def test_blocked_evaluation_matches_one_block(monkeypatch):
    sizes = []

    def recorded(pts):
        sizes.append(len(pts))
        return _integrand(pts)

    kw = dict(box=(0.0, 1.0, 0.0, 1.0), tol_cell=1e-15, max_depth=6)
    blocked = adaptive_quad_2d(recorded, **kw)
    # the deepest level has more cells than one block holds
    assert max(sizes) == quadrature._BLOCK_CELLS * 34
    assert len(sizes) > blocked.depth_reached + 1
    monkeypatch.setattr(quadrature, "_BLOCK_CELLS", 10 ** 9)
    whole = adaptive_quad_2d(_integrand, **kw)
    assert isinstance(blocked, QuadResult) and blocked == whole
    assert np.isfinite(whole.value)


def test_column_major_points_match_a_c_contiguous_copy():
    layouts = []

    def direct(pts):
        layouts.append((pts.ndim, pts.shape[-1], pts.dtype.name,
                        pts[:, 0].flags.c_contiguous, pts[:, 1].flags.c_contiguous))
        return _integrand(pts)

    kw = dict(box=(0.0, 1.0, 0.0, 1.0), tol_cell=1e-15, max_depth=6)
    viewed = adaptive_quad_2d(direct, **kw)
    copied = adaptive_quad_2d(lambda pts: _integrand(np.ascontiguousarray(pts)), **kw)
    assert viewed == copied
    assert np.float64(viewed.value).tobytes() == np.float64(copied.value).tobytes()
    assert np.float64(viewed.error_estimate).tobytes() == \
        np.float64(copied.error_estimate).tobytes()
    # (M, 2) float points whose two columns are each contiguous
    assert set(layouts) == {(2, 2, "float64", True, True)}
