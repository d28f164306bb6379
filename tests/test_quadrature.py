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
