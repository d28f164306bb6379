"""Simplicial discretization of the box [-L, L]^N on a uniform node grid.

Each grid cell is split into N! Kuhn simplices (2 triangles per square,
6 tetrahedra per cube), on which the potential is affine and its gradient
constant.  The discrete energy sum_s vol F(Dw|_s) + sum_i w_i f_i w_i is
then convex whenever F is, with a unique minimizer under Dirichlet data,
and for F = |z|^2/2 its Euler-Lagrange system is exactly the classical
(2N+1)-point Laplacian, e.g. the 5-point scheme in 2-D.

Gradients are evaluated per simplex for assembly; cell-centered gradients
(the per-cell average, which in 2-D equals the bilinear mid-cell gradient)
feed the stress-field reports.

The Hessian's sparsity depends on the mesh only, so it is built once per
mesh, on first use (:attr:`BoxMesh.hessian_pattern`): the CSC pattern of the
full-node Hessian, the slot of every local (simplex, a, b) entry in it, and
the interior block in a geometric nested-dissection order (George, SIAM J.
Numer. Anal. 10, 1973).  That order bisects the longest axis of the interior
grid, orders both halves recursively and numbers the separator plane last;
on the (2N+1)-point stencil it is near-optimal for the fill of a sparse LU,
so the interior block is factored in this order with no further column
permutation.  Assembly is then one ``np.bincount`` into the fixed pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from math import factorial

import numpy as np
from scipy import sparse

from ..errors import InputError


@dataclass(frozen=True, eq=False)
class HessianPattern:
    """Sparsity of the Hessian of a :class:`BoxMesh`, fixed by the mesh alone.

    ``indices``/``indptr`` are the CSC pattern of the full-node Hessian and
    ``slot[k]`` is the position in its data array of the k-th local entry in
    :meth:`BoxMesh.assemble_hessian`'s (permutation, cell, a, b) order.
    ``order`` lists the interior node ids in nested-dissection order;
    ``block_gather`` reads the interior block, rows and columns in that
    order, out of the full data array into the CSC pattern
    ``block_indices``/``block_indptr``.
    """

    indices: np.ndarray
    indptr: np.ndarray
    slot: np.ndarray
    order: np.ndarray
    block_gather: np.ndarray
    block_indices: np.ndarray
    block_indptr: np.ndarray

    def __post_init__(self):
        # every assembled Hessian shares these arrays
        for array in vars(self).values():
            array.setflags(write=False)

    def interior_block(self, data: np.ndarray) -> sparse.csc_matrix:
        """The interior block, in nested-dissection order, of a full data array."""
        n = self.order.size
        return sparse.csc_matrix((data[self.block_gather], self.block_indices,
                                  self.block_indptr), shape=(n, n))


def _csc_pattern(rows: np.ndarray, cols: np.ndarray, n: int):
    """Sorted CSC pattern of the (row, col) pairs and each pair's slot in it."""
    keys, slot = np.unique(cols * n + rows, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    return (keys % n).astype(np.int32), indptr.astype(np.int32), slot


def _nested_dissection(ids: np.ndarray) -> np.ndarray:
    """Node ids of a box grid in nested-dissection order, separators last."""
    if max(ids.shape) <= 3:
        return ids.ravel()
    ids = np.moveaxis(ids, int(np.argmax(ids.shape)), 0)
    mid = len(ids) // 2
    return np.concatenate([_nested_dissection(ids[:mid]),
                           _nested_dissection(ids[mid + 1:]), ids[mid].ravel()])


@dataclass(frozen=True)
class BoxMesh:
    dim: int
    cells: int          # cells per axis
    half_width: float

    _vertex_ids: list = field(repr=False, default=None, compare=False)
    _gmats: list = field(repr=False, default=None, compare=False)
    _boundary: np.ndarray = field(repr=False, default=None, compare=False)
    _node_weights: np.ndarray = field(repr=False, default=None, compare=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise InputError("mesh dimension must be 2 or 3")
        if self.cells < 4:
            raise InputError("need at least 4 cells per axis")
        n, d, h = self.cells, self.dim, self.h
        shape = (n + 1,) * d
        strides = np.array([(n + 1) ** (d - 1 - ax) for ax in range(d)])
        cell_idx = np.indices((n,) * d).reshape(d, -1)
        base = (strides[:, None] * cell_idx).sum(axis=0)

        vertex_ids = []
        gmats = []
        for perm in permutations(range(d)):
            ids = np.empty((d + 1, base.size), dtype=np.int64)
            ids[0] = base
            acc = base.copy()
            for k, axis in enumerate(perm):
                acc = acc + strides[axis]
                ids[k + 1] = acc
            vertex_ids.append(ids)
            g = np.zeros((d, d + 1))
            for k, axis in enumerate(perm):
                g[axis, k + 1] = 1.0 / h
                g[axis, k] = -1.0 / h
            gmats.append(g)

        node_idx = np.indices(shape).reshape(d, -1)
        boundary = np.any((node_idx == 0) | (node_idx == n), axis=0)

        w = np.ones(node_idx.shape[1])
        for ax in range(d):
            w *= np.where((node_idx[ax] == 0) | (node_idx[ax] == n), 0.5, 1.0)
        w *= h ** d

        object.__setattr__(self, "_vertex_ids", vertex_ids)
        object.__setattr__(self, "_gmats", gmats)
        object.__setattr__(self, "_boundary", boundary)
        object.__setattr__(self, "_node_weights", w)

    # -- geometry ------------------------------------------------------------

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.cells

    @property
    def n_nodes(self) -> int:
        return (self.cells + 1) ** self.dim

    @property
    def n_cells(self) -> int:
        return self.cells ** self.dim

    @property
    def n_simplices(self) -> int:
        return self.n_cells * factorial(self.dim)

    @property
    def simplex_volume(self) -> float:
        return self.h ** self.dim / factorial(self.dim)

    @property
    def boundary_mask(self) -> np.ndarray:
        return self._boundary

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self._boundary

    @property
    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights for nodal integrals."""
        return self._node_weights

    def node_coords(self) -> np.ndarray:
        n, d = self.cells, self.dim
        axis = -self.half_width + np.arange(n + 1) * self.h
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def cell_centers(self) -> np.ndarray:
        n, d = self.cells, self.dim
        axis = -self.half_width + (np.arange(n) + 0.5) * self.h
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def simplex_centroids(self) -> np.ndarray:
        coords = self.node_coords()
        out = []
        for ids in self._vertex_ids:
            out.append(coords[ids].mean(axis=0))
        return np.concatenate(out, axis=0)

    # -- differential operators ----------------------------------------------

    def simplex_gradients(self, u: np.ndarray) -> np.ndarray:
        """Constant gradient per simplex, shape (n_simplices, dim)."""
        out = []
        for ids, g in zip(self._vertex_ids, self._gmats):
            out.append((g @ u[ids]).T)
        return np.concatenate(out, axis=0)

    def cell_mean_gradients(self, u: np.ndarray) -> np.ndarray:
        """Average simplex gradient per cell (= mid-cell bilinear gradient in 2-D)."""
        g = self.simplex_gradients(u)
        nperm = factorial(self.dim)
        return g.reshape(nperm, self.n_cells, self.dim).mean(axis=0)

    # -- assembly --------------------------------------------------------------

    def scatter_gradient(self, df: np.ndarray) -> np.ndarray:
        """Nodal gradient of sum_s vol F(Dw|_s) given DF at simplex gradients."""
        vol = self.simplex_volume
        out = np.zeros(self.n_nodes)
        nperm = factorial(self.dim)
        per_perm = df.reshape(nperm, self.n_cells, self.dim)
        for ids, g, dfp in zip(self._vertex_ids, self._gmats, per_perm):
            contrib = vol * dfp @ g  # (cells, dim+1)
            for a in range(self.dim + 1):
                np.add.at(out, ids[a], contrib[:, a])
        return out

    @cached_property
    def hessian_pattern(self) -> HessianPattern:
        """The Hessian's sparsity and interior elimination order, built on first use."""
        n, d = self.n_nodes, self.dim
        vertex = np.stack(self._vertex_ids).transpose(0, 2, 1)   # (perm, cell, a)
        rows = np.repeat(vertex, d + 1, axis=2)          # vertex a of entry (a, b)
        cols = np.tile(vertex, d + 1)                    # vertex b of entry (a, b)
        indices, indptr, slot = _csc_pattern(rows.ravel(), cols.ravel(), n)

        interior_ids = np.arange(n).reshape((self.cells + 1,) * d)[
            (slice(1, -1),) * d]
        order = _nested_dissection(interior_ids)
        position = np.full(n, -1)
        position[order] = np.arange(order.size)
        entry_rows = position[indices]
        entry_cols = position[np.repeat(np.arange(n), np.diff(indptr))]
        inside = np.flatnonzero((entry_rows >= 0) & (entry_cols >= 0))
        block_indices, block_indptr, block_slot = _csc_pattern(
            entry_rows[inside], entry_cols[inside], order.size)
        block_gather = np.empty_like(inside)
        block_gather[block_slot] = inside
        return HessianPattern(indices=indices, indptr=indptr, slot=slot,
                              order=order, block_gather=block_gather,
                              block_indices=block_indices,
                              block_indptr=block_indptr)

    def assemble_hessian(self, d2f: np.ndarray) -> sparse.csc_matrix:
        """Sparse Hessian of the gradient energy given D2F per simplex."""
        d = self.dim
        # local[s, a, b] = vol * sum_ij G[i, a] D2F_s[i, j] G[j, b]: one batched
        # product with kron(G, G) per permutation
        kron = np.stack([np.kron(g, g) for g in self._gmats])
        local = np.matmul(d2f.reshape(len(kron), self.n_cells, d * d), kron)
        local *= self.simplex_volume
        pattern = self.hessian_pattern
        n = self.n_nodes
        data = np.bincount(pattern.slot, weights=local.ravel(),
                           minlength=pattern.indices.size)
        return sparse.csc_matrix((data, pattern.indices, pattern.indptr),
                                 shape=(n, n))
