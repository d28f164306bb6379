"""Simplicial discretization of the box [-L, L]^N on a uniform node grid.

Each grid cell is split into N! Kuhn simplices (2 triangles per square,
6 tetrahedra per cube), on which the potential is affine and its gradient
constant.  The discrete energy sum_s vol F(Dw|_s) + sum_i w_i f_i w_i is
then convex whenever F is, with a unique minimizer under Dirichlet data,
and for F = |z|^2/2 its Euler-Lagrange system is exactly the classical
(2N+1)-point Laplacian, e.g. the 5-point scheme in 2-D.

One vertex table V[perm, k, cell] (the node k steps along the Kuhn path
from the cell's base) and one gradient table G[perm, axis, k] hold the P1
gradient B and serve every operator: B u = G u[V], the energy gradient
B^T(vol DF) is one ``np.bincount`` over V, the Hessian B^T(vol D2F)B goes
through kron(G, G), and centroids are vertex means.  Cell-centered
gradients (the per-cell average, in 2-D the bilinear mid-cell gradient)
feed the stress-field reports.

Newton steps use only the Hessian's interior block.  Its sparsity depends
on the mesh alone, so one CSC pattern is built per mesh, on first use
(:attr:`BoxMesh.hessian_pattern`), with the slot of every local (simplex,
a, b) entry in it; an entry that touches a boundary node goes to a spare
bin past the end, and assembly is one ``np.bincount`` that drops that bin.
Rows and columns follow a geometric nested-dissection order (George, SIAM
J. Numer. Anal. 10, 1973): bisect the longest axis of the interior grid,
order both halves recursively, number the separator plane last.  An LU of
the block (the coarsest multigrid level below, or a Newton step's fallback)
then needs no column permutation, and the order stays because on a mesh
that does not coarsen ``splu`` (``SymmetricMode``, p-Laplacian block) is
1.9-2.8 times slower in scipy's own orders: 0.25 s (fill 4.6M) against
0.48 s for MMD_AT_PLUS_A (5.2M) and 0.72 s for COLAMD (8.8M) at 255^2, and
0.34 s against 0.97 s and 1.83 s at 25^3.  Only the 25^2 coarsest level of
100 -> 50 -> 25 barely cares (1.1 ms against 1.5 ms).

Kuhn meshes nest: halving the cell count coarsens the triangulation, and
on the coarse mesh's edges (the 0/1 steps s) the P1 prolongation is exact,
with fine node 2c + s the mean of coarse nodes c and c + s.
:attr:`BoxMesh.prolongations` holds these maps between interior nodes, each
level in nested-dissection order, halving while the cell count is even and
above 8.  Each Newton step solves the interior block by conjugate
gradients preconditioned with one multigrid V-cycle on that hierarchy
(Hackbusch, Multi-Grid Methods and Applications, 1985; Bramble, Pasciak &
Xu, Math. Comp. 55, 1990), whose coarse operators are the Galerkin
products P^T A P and whose coarsest level is a sparse LU.  A mesh that does
not coarsen (odd, or 8 cells or fewer) is that one level: its V-cycle is
the LU solve itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial

import numpy as np
from scipy import sparse

from ..errors import InputError


@dataclass(frozen=True, eq=False)
class HessianPattern:
    """Sparsity of a :class:`BoxMesh`'s interior Hessian block.

    ``order`` lists the interior node ids in nested-dissection order, the
    order of the block's rows and columns, and ``indices``/``indptr`` are
    the block's CSC pattern.  ``slot[k]`` is the position in its data array
    of the k-th local entry in :meth:`BoxMesh.assemble_hessian`'s
    (permutation, cell, a, b) order; an entry that touches a boundary node
    goes to the spare bin ``indptr[-1]`` past the end.
    """

    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    slot: np.ndarray

    def __post_init__(self):
        # every assembled Hessian shares these arrays
        for array in vars(self).values():
            array.setflags(write=False)


def _nested_dissection(ids: np.ndarray) -> np.ndarray:
    """Node ids of a box grid in nested-dissection order, separators last."""
    if max(ids.shape) <= 3:
        return ids.ravel()
    ids = np.moveaxis(ids, int(np.argmax(ids.shape)), 0)
    mid = len(ids) // 2
    return np.concatenate([_nested_dissection(ids[:mid]),
                           _nested_dissection(ids[mid + 1:]), ids[mid].ravel()])


def _interior_order(dim: int, cells: int) -> np.ndarray:
    """Interior node ids of the (cells + 1)^dim grid in nested-dissection order."""
    ids = np.arange((cells + 1) ** dim).reshape((cells + 1,) * dim)
    return _nested_dissection(ids[(slice(1, -1),) * dim])


def _prolongation(dim: int, cells: int, fine: np.ndarray,
                  coarse: np.ndarray) -> sparse.csr_matrix:
    """P1 prolongation from the Kuhn mesh of cells/2 to that of cells.

    Row i is the interior node fine[i], column j the coarse interior node
    coarse[j]: fine node 2c + s, s in {0,1}^dim, is the mean of coarse nodes
    c and c + s; coarse boundary nodes carry no correction and are dropped.
    """
    c, s = np.divmod(np.indices((cells + 1,) * dim).reshape(dim, -1)[:, fine], 2)
    position = np.full((cells // 2 + 1) ** dim, -1)
    position[coarse] = np.arange(coarse.size)
    strides = (cells // 2 + 1) ** np.arange(dim - 1, -1, -1)
    cols = position[strides @ np.stack([c, c + s])]
    rows = np.broadcast_to(np.arange(fine.size), cols.shape)
    keep = cols >= 0
    # s = 0 lists coarse node c twice, and the duplicates add up to 1
    return sparse.csr_matrix((np.full(np.count_nonzero(keep), 0.5),
                              (rows[keep], cols[keep])),
                             shape=(fine.size, coarse.size))


@dataclass(frozen=True)
class BoxMesh:
    dim: int
    cells: int          # cells per axis
    half_width: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise InputError("mesh dimension must be 2 or 3")
        if self.cells < 4:
            raise InputError("need at least 4 cells per axis")

    # -- the P1 gradient operator ----------------------------------------------

    @cached_property
    def _perms(self) -> np.ndarray:
        """The Kuhn simplices of a cell: row p lists the axes in stepping order."""
        return np.array(list(permutations(range(self.dim))))

    @cached_property
    def _vertex_ids(self) -> np.ndarray:
        """Vertex table V[perm, k, cell]: node id after k steps from the cell's base."""
        n, d = self.cells, self.dim
        strides = (n + 1) ** np.arange(d - 1, -1, -1)
        base = strides @ np.indices((n,) * d).reshape(d, -1)
        path = np.cumsum(strides[self._perms], axis=1)
        offsets = np.hstack([np.zeros((len(path), 1), path.dtype), path])
        return base + offsets[:, :, None]

    @cached_property
    def _gmats(self) -> np.ndarray:
        """Gradient table G[perm, axis, k]: axis steps from vertex k to k + 1."""
        eye = np.eye(self.dim + 1)
        step = np.argsort(self._perms, axis=1)
        return (eye[step + 1] - eye[step]) / self.h

    def _on_face(self) -> np.ndarray:
        """Per axis and node: does the node's index lie at either end of the axis?"""
        idx = np.indices((self.cells + 1,) * self.dim).reshape(self.dim, -1)
        return (idx == 0) | (idx == self.cells)

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

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        return self._on_face().any(axis=0)

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights for nodal integrals."""
        return np.where(self._on_face(), 0.5, 1.0).prod(axis=0) * self.h ** self.dim

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
        return self.node_coords()[self._vertex_ids].mean(axis=1).reshape(-1, self.dim)

    # -- differential operators ----------------------------------------------

    def simplex_gradients(self, u: np.ndarray) -> np.ndarray:
        """Constant gradient per simplex, shape (n_simplices, dim), F-ordered:
        each component is contiguous over the simplices."""
        return np.concatenate(self._gmats @ u[self._vertex_ids], axis=1).T

    def cell_mean_gradients(self, u: np.ndarray) -> np.ndarray:
        """Average simplex gradient per cell (= mid-cell bilinear gradient in 2-D)."""
        g = self.simplex_gradients(u)
        return g.reshape(len(self._perms), self.n_cells, self.dim).mean(axis=0)

    # -- assembly --------------------------------------------------------------

    def scatter_gradient(self, df: np.ndarray) -> np.ndarray:
        """Nodal gradient of sum_s vol F(Dw|_s) given DF at simplex gradients."""
        vol_df = self.simplex_volume * df.reshape(len(self._perms), self.n_cells, self.dim)
        # G^T (vol DF)^T is laid out (perm, vertex, cell), the order of the sums
        local = self._gmats.transpose(0, 2, 1) @ vol_df.transpose(0, 2, 1)
        return np.bincount(self._vertex_ids.ravel(), weights=local.ravel(),
                           minlength=self.n_nodes)

    @cached_property
    def hessian_pattern(self) -> HessianPattern:
        """The interior block's sparsity and elimination order, built on first use."""
        order = _interior_order(self.dim, self.cells)
        d, n = self.dim, order.size
        position = np.full(self.n_nodes, -1)
        position[order] = np.arange(n)
        vertex = position[self._vertex_ids.transpose(0, 2, 1)]   # (perm, cell, a)
        rows = np.repeat(vertex, d + 1, axis=2).ravel()          # vertex a of entry (a, b)
        cols = np.tile(vertex, d + 1).ravel()                    # vertex b of entry (a, b)
        inside = (rows >= 0) & (cols >= 0)
        keys, block_slot = np.unique(cols[inside] * n + rows[inside],
                                     return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
        slot = np.full(rows.size, keys.size)                     # the spare bin
        slot[inside] = block_slot
        return HessianPattern(order=order, indices=(keys % n).astype(np.int32),
                              indptr=indptr.astype(np.int32), slot=slot)

    @cached_property
    def prolongations(self) -> tuple:
        """P1 prolongations down the halving hierarchy, finest first, built on
        first use; the first one's rows follow ``hessian_pattern.order``."""
        out = []
        cells, fine = self.cells, self.hessian_pattern.order
        while cells % 2 == 0 and cells > 8:
            coarse = _interior_order(self.dim, cells // 2)
            out.append(_prolongation(self.dim, cells, fine, coarse))
            cells, fine = cells // 2, coarse
        return tuple(out)

    def assemble_hessian(self, d2f: np.ndarray) -> sparse.csc_matrix:
        """Interior block of the Hessian of the gradient energy given D2F per
        simplex, rows and columns in ``hessian_pattern.order``."""
        d, g = self.dim, self._gmats
        # local[s, a, b] = vol * sum_ij G[i, a] D2F_s[i, j] G[j, b]: one batched
        # product with kron(G, G) per permutation
        kron = np.einsum("pia,pjb->pijab", g, g).reshape(len(g), d * d, -1)
        local = np.matmul(d2f.reshape(len(g), self.n_cells, d * d), kron)
        local *= self.simplex_volume
        pattern = self.hessian_pattern
        n = pattern.order.size
        data = np.bincount(pattern.slot, weights=local.ravel(),
                           minlength=pattern.indices.size + 1)[:-1]
        return sparse.csc_matrix((data, pattern.indices, pattern.indptr),
                                 shape=(n, n))
