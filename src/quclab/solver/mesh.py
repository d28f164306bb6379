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

Newton steps use only the Hessian's interior block, in natural (row-major)
order.  On a Kuhn mesh node x couples only with x +- e_S, S a nonempty set
of axes, so the block is a ``dia_matrix`` of 7 stencil diagonals in 2-D
and 15 in 3-D.  The diagonal of a local (simplex, a, b) entry is fixed per
Kuhn permutation, so assembly is one ``np.bincount`` into slot
diagonal * n + column; an entry that touches a boundary node goes to a
spare bin past the end.

Kuhn meshes nest: halving the cell count makes each coarse simplex the
union of 2^N fine ones, and the P1 prolongation P is exact, fine node
2c + s (s in {0,1}^N) being the mean of coarse nodes c and c + s.  A
coarse hat is affine on each of those children, so the Galerkin product
P^T A P is the coarse mesh's own assembly with each coarse simplex's D2F
the mean over its children (Hackbusch, Multi-Grid Methods and
Applications, 1985, sec. 3.7).  Each Newton step solves the block by
conjugate gradients preconditioned with one multigrid V-cycle on these
levels (Bramble, Pasciak & Xu, Math. Comp. 55, 1990), halving while the
cell count is even and above 8, with a sparse LU on the coarsest; a mesh
that does not coarsen is that LU alone.  The cycle above the coarsest
level runs in float32 (mixed-precision multigrid, Goeddeke, Strzodka &
Turek, Int. J. Parallel Emergent Distrib. Syst. 22, 2007), which halves
the bytes each smoothing matvec moves; P and P^T are built in float32
once per mesh, their entries 0.5 and 1 being exact there.  Every LU first
permutes its block into a geometric nested-dissection order (George, SIAM
J. Numer. Anal. 10, 1973: bisect the longest axis, separator plane last),
built only for the meshes where one runs.  On a mesh that does not
coarsen (``SymmetricMode``, p-Laplacian block) ``splu`` is 1.9-2.8 times
slower in scipy's own orders: 0.25 s (fill 4.6M) against 0.48 s for
MMD_AT_PLUS_A (5.2M) and 0.72 s for COLAMD (8.8M) at 255^2, and 0.34 s
against 0.97 s and 1.83 s at 25^3; only the 25^2 coarsest level of
100 -> 50 -> 25 barely cares (1.1 ms vs 1.5 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import factorial, inf

import numpy as np
from scipy import sparse

from ..errors import InputError


def _nested_dissection(ids: np.ndarray) -> np.ndarray:
    """Node ids of a box grid in nested-dissection order, separators last."""
    if max(ids.shape) <= 3:
        return ids.ravel()
    ids = np.moveaxis(ids, int(np.argmax(ids.shape)), 0)
    mid = len(ids) // 2
    return np.concatenate([_nested_dissection(ids[:mid]),
                           _nested_dissection(ids[mid + 1:]), ids[mid].ravel()])


def _prolongation(fine: BoxMesh, coarse: BoxMesh) -> sparse.csr_matrix:
    """P1 prolongation from the Kuhn mesh of cells/2 to that of cells.

    Row i is fine interior node i, column j coarse interior node j (natural
    order): fine node 2c + s, s in {0,1}^dim, is the mean of coarse nodes c
    and c + s; coarse boundary nodes carry no correction and are dropped.
    The entries, 0.5 and 1, are exact in float32, the V-cycle's precision.
    """
    dim = fine.dim
    grid = np.indices((fine.cells + 1,) * dim).reshape(dim, -1)[:, fine.interior_mask]
    c, s = np.divmod(grid, 2)
    strides = (coarse.cells + 1) ** np.arange(dim - 1, -1, -1)
    cols = coarse._interior_index[strides @ np.stack([c, c + s])]
    rows = np.broadcast_to(np.arange(fine.n_interior), cols.shape)
    keep = cols >= 0
    # s = 0 lists coarse node c twice, and the duplicates add up to 1
    return sparse.csr_matrix((np.full(np.count_nonzero(keep), 0.5, np.float32),
                              (rows[keep], cols[keep])),
                             shape=(fine.n_interior, coarse.n_interior))


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
        if not (0.0 < self.h < inf and 1.0 / float(self.h) < inf):
            raise InputError("half_width must be finite and > 0, with a finite 1/h")

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
    def n_interior(self) -> int:
        return (self.cells - 1) ** self.dim

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
    def _interior_index(self) -> np.ndarray:
        """Each node's position in the natural interior order, -1 on the boundary."""
        return np.where(self.interior_mask, np.cumsum(self.interior_mask) - 1, -1)

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights for nodal integrals."""
        return np.where(self._on_face(), 0.5, 1.0).prod(axis=0) * self.h ** self.dim

    @property
    def node_axis(self) -> np.ndarray:
        """The node coordinates along each axis."""
        return -self.half_width + np.arange(self.cells + 1) * self.h

    @property
    def center_axis(self) -> np.ndarray:
        """The cell-center coordinates along each axis."""
        return -self.half_width + (np.arange(self.cells) + 0.5) * self.h

    def _grid(self, axis: np.ndarray) -> np.ndarray:
        """The points of the axis grid in row-major ("ij") order, (n^dim, dim)."""
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def node_coords(self) -> np.ndarray:
        return self._grid(self.node_axis)

    def cell_centers(self) -> np.ndarray:
        return self._grid(self.center_axis)

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
    def _stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal offsets of the interior block and, per local (permutation,
        cell, a, b) entry, its slot diagonal * n_interior + column in the DIA
        data; an entry that touches a boundary node gets the spare slot past
        the end.  Built on first use."""
        d, n = self.dim, self.n_interior
        strides = (self.cells - 1) ** np.arange(d - 1, -1, -1)
        path = np.cumsum(strides[self._perms], axis=1)
        steps = np.hstack([np.zeros((len(path), 1), path.dtype), path])
        # vertex b minus vertex a in interior positions, fixed per permutation
        offsets, diagonal = np.unique(steps[:, None, :] - steps[:, :, None],
                                      return_inverse=True)
        column = self._interior_index[self._vertex_ids.transpose(0, 2, 1)]
        slot = diagonal.reshape(len(path), 1, d + 1, d + 1) * n + column[:, :, None, :]
        inside = (column[:, :, :, None] >= 0) & (column[:, :, None, :] >= 0)
        return offsets, np.where(inside, slot, offsets.size * n).ravel()

    def assemble_hessian(self, d2f: np.ndarray) -> sparse.dia_matrix:
        """Interior block of the Hessian of the gradient energy given D2F per
        simplex, as stencil diagonals in natural interior order."""
        d, g = self.dim, self._gmats
        # local[s, a, b] = vol * sum_ij G[i, a] D2F_s[i, j] G[j, b]: one batched
        # product with kron(G, G) per permutation
        kron = np.einsum("pia,pjb->pijab", g, g).reshape(len(g), d * d, -1)
        local = np.matmul(d2f.reshape(len(g), self.n_cells, d * d), kron)
        local *= self.simplex_volume
        (offsets, slot), n = self._stencil, self.n_interior
        data = np.bincount(slot, weights=local.ravel(),
                           minlength=offsets.size * n + 1)[:-1]
        return sparse.dia_matrix((data.reshape(offsets.size, n), offsets),
                                 shape=(n, n))

    # -- the multigrid hierarchy -----------------------------------------------

    @cached_property
    def levels(self) -> tuple:
        """(coarse mesh, P, P^T) down the halving hierarchy, finest first,
        built on first use; P maps the coarse interior nodes to the fine ones,
        both in natural order, and P and P^T are float32 CSR matrices."""
        out, fine = [], self
        while fine.cells % 2 == 0 and fine.cells > 8:
            coarse = BoxMesh(self.dim, fine.cells // 2, self.half_width)
            prolong = _prolongation(fine, coarse)
            out.append((coarse, prolong, prolong.T.tocsr()))
            fine = coarse
        return tuple(out)

    @cached_property
    def _children(self) -> list:
        """(coarse permutation, fine permutation, child cell s) of the 2^dim
        fine simplices in each Kuhn simplex of the mesh of cells/2: fine
        simplex q of child cell 2c + s lies in the coarse simplex that orders
        the axes as its centroid's coordinates s + t_q, largest first."""
        d, perms = self.dim, self._perms
        lookup = {tuple(p): i for i, p in enumerate(perms)}
        centroid = (d - np.argsort(perms, axis=1)) / (d + 1)     # t_q per axis
        return [(lookup[tuple(np.argsort(-(s + centroid[q])))], q, s)
                for s in product((0, 1), repeat=d) for q in range(len(perms))]

    def child_mean(self, d2f: np.ndarray) -> np.ndarray:
        """D2F per simplex of the mesh of cells/2, the mean over each coarse
        simplex's 2^dim children.  The coarse mesh's :meth:`assemble_hessian`
        of it is the Galerkin product P^T A P of this mesh's block A."""
        d, perms = self.dim, len(self._perms)
        fine = d2f.reshape((perms,) + (self.cells // 2, 2) * d + (d, d))
        out = np.zeros((perms,) + (self.cells // 2,) * d + (d, d))
        for p, q, s in self._children:
            out[p] += fine[(q,) + sum(((slice(None), k) for k in s), ())]
        return out.reshape(-1, d, d) / 2 ** d

    @cached_property
    def nd_order(self) -> np.ndarray:
        """Natural interior positions in nested-dissection order, the order of
        every LU of the block; built on first use."""
        grid = np.arange(self.n_interior).reshape((self.cells - 1,) * self.dim)
        return _nested_dissection(grid)
