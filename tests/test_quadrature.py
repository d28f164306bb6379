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


def _peaked(pts):
    # smooth, with a narrow peak that _integrand lacks: the two refine apart
    x, y = pts[:, 0], pts[:, 1]
    return 1.0 / (1e-3 + (x - 0.7) * (x - 0.7) + (y - 0.2) * (y - 0.2))


_KW = dict(box=(0.0, 1.0, 0.0, 1.0), tol_cell=1e-9, max_depth=7)


def test_copies_of_one_integrand_give_equal_rows_bit_for_bit():
    scalar = adaptive_quad_2d(_integrand, **_KW)
    rows = adaptive_quad_2d(lambda pts: np.stack([_integrand(pts)] * 3), **_KW)
    assert rows.value.shape == rows.error_estimate.shape == (3,)
    assert rows.value.tobytes() == np.full(3, scalar.value).tobytes()
    assert rows.error_estimate.tobytes() == np.full(3, scalar.error_estimate).tobytes()
    assert (rows.cells_used, rows.depth_reached) == \
        (scalar.cells_used, scalar.depth_reached)


def test_rows_refine_on_the_larger_error():
    own = [adaptive_quad_2d(f, **_KW) for f in (_integrand, _peaked)]
    both = adaptive_quad_2d(lambda pts: np.stack([_integrand(pts), _peaked(pts)]), **_KW)
    assert own[0].cells_used != own[1].cells_used
    assert both.cells_used >= max(r.cells_used for r in own)


def test_blocked_rows_match_one_block(monkeypatch):
    def rows(pts):
        return np.stack([_integrand(pts), _peaked(pts)])

    kw = dict(box=(0.0, 1.0, 0.0, 1.0), tol_cell=1e-15, max_depth=6)
    blocked = adaptive_quad_2d(rows, **kw)
    monkeypatch.setattr(quadrature, "_BLOCK_CELLS", 10 ** 9)
    whole = adaptive_quad_2d(rows, **kw)
    assert blocked.value.tobytes() == whole.value.tobytes()
    assert blocked.error_estimate.tobytes() == whole.error_estimate.tobytes()
    assert (blocked.cells_used, blocked.depth_reached) == \
        (whole.cells_used, whole.depth_reached)
