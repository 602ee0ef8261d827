"""Sparse assembly of all blocks of the smoothing saddle-point system.

For the nodal basis {phi_j} of the continuous space and the biorthogonal
dual basis {mu_i} (see `dual_basis`), the blocks are

    K      stiffness            int grad phi_j . grad phi_i
    mass   scalar mass          int phi_j phi_i
    c      Gram diagonal        int mu_j phi_j            (off-diagonals vanish)
    B_k    dual grad coupling   int d_k phi_j mu_i
    W_k    primal grad coupling int d_k phi_j phi_i
    P      point evaluation     P[i, j] = phi_j(x_i)
    R, f   data term            R = P^T P,  f = P^T z

The vector-valued stiffness and mass forms decouple componentwise, so K and
mass stand in for their d diagonal blocks.

Every element is an affine image of its reference cell, so each local block
is a reference-cell tensor, integrated with the reference rule, contracted
with its type's det J (and J^-1 where a gradient enters), for example

    K_e[i, j] = ref[i, j, m, n] (det J J^-1 J^-T)_t[m, n],  t the type of e,
    ref[i, j, m, n] = int dphi_i/dxhat_m dphi_j/dxhat_n

(the reference-tensor form of Kirby & Logg, ACM TOMS 2006).

The dual basis is built from element duals mu_a^T, each supported on one
element. An interior vertex glues those of its node over the elements
around it. A boundary vertex combines the element duals of a strip of
cells, two deep along each boundary normal, so that it stays biorthogonal
with the same Gram diagonal and recovers the gradient of every quadratic
exactly (in the spirit of Lamichhane & Wohlmuth, Math. Comp. 2007). Its
rows of B therefore reach two cells inward, outside the mass pattern. A
mesh with a single cell along some axis keeps the standard duals.

Every block is one sparse product, glue @ L. The element rows L, an
(E n_loc) x n matrix, hold row a of element e's local block at the columns
of its vertices. The glue, n x (E n_loc), sums element rows into global
test functions: the nodal glue (a 1 per element node) for the nodal tests
of K, mass and W_k, the dual glue of `dual_basis` for the dual tests of
B_k and the Gram matrix. A vector of element moments goes through the
same glue.

Every element of one type has the same local blocks (per-type geometry),
and a boundary dual reaches two cells inward and no further. So on a
structured grid a row of K, mass, c, B_k or W_k depends only on its
vertex's class along each axis: depth 0, 1 or 2 from either side, or
interior, and `assemble_system` element-assembles them only on a reference
grid of min(c_k, 6) cells per axis and gives every vertex its reference
vertex's row (`_reference_tiling`, the one tile map, which
`system.condense` uses for S_h too). The public `assemble_*` functions
stay element assembly on the whole mesh: the primitive the tiles copy
from, and an independent check of them.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elements import quadrature
from .errors import BiorthogonalityError
from .mesh import Domain, build_structured_mesh, locate_points

# Exact for every reference tensor: the integrands are products of two
# (multi)linear functions or their gradients.
QUAD_DEGREE = 2

# Cells per axis of the reference grid: vertex 3 of 0..6 lies at depth 3
# from both sides, so the grid holds every row class of the mesh-only
# blocks and of the condensed operator.
REFERENCE_CELLS = 6


@dataclass(frozen=True)
class ScatteredData:
    """Measurement sites and values: z_i observed at points x_i."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vals = np.asarray(self.values, dtype=float).ravel()
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values must have equal length")
        if pts.shape[1] not in (2, 3):
            raise ValueError("points must be in R^2 or R^3")
        if not (np.isfinite(pts).all() and np.isfinite(vals).all()):
            raise ValueError("points and values must be finite")
        pts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values)

    @property
    def dim(self):
        return self.points.shape[1]

    def affine_rank(self):
        """Dimension of the affine span of the sites."""
        centered = self.points - self.points.mean(axis=0)
        if len(centered) == 0:
            return 0
        s = np.linalg.svd(centered, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > 1e-12 * s[0]))

    def admissible(self):
        """True when the sites contain d+1 affinely independent points."""
        return self.n >= self.dim + 1 and self.affine_rank() == self.dim


def _element_matrices(mesh, test, trial, geometry=None):
    """Local matrices A[e, i, j] = ref[i, j, s, t] * geometry[type of e, s, t].

    ref[i, j, s, t] = int test[i, s] trial[j, t] over the reference cell, for
    the bases 'phi' and 'mu' (s = 1) or 'grad', the reference gradient of phi
    (s = d). `geometry` holds the affine factors of each element type; it
    defaults to det J. The contraction runs once per type, and
    `mesh.per_element` repeats its blocks over the elements.
    """
    if np.any(mesh.det_jacobians <= 0):
        raise ValueError("mesh contains a degenerate element")
    pair = mesh.element_pair
    rule = quadrature(mesh.cell_kind, QUAD_DEGREE)
    tables = {"phi": pair.nodal_eval(rule.points)[:, :, None],
              "mu": pair.dual_eval(rule.points)[:, :, None],
              "grad": pair.nodal_grad(rule.points)}
    ref = np.einsum("q,qis,qjt->ijst", rule.weights, tables[test], tables[trial])
    if geometry is None:
        geometry = mesh.det_jacobians
    nl = ref.shape[0]
    flat = geometry.reshape(len(geometry), -1) @ ref.reshape(nl * nl, -1).T
    return mesh.per_element(flat.reshape(-1, nl, nl))


def _rows(cols, vals, n_cols):
    """CSR matrix whose row i holds vals[i] at the columns cols[i].

    Every row has the same number of entries, so indptr is a range: the
    matrix is built directly, with no sort and no duplicate pass.
    """
    m, k = cols.shape
    return sp.csr_matrix((np.ravel(vals), cols.ravel(), np.arange(0, m * k + 1, k)),
                         shape=(m, n_cols))


def _element_rows(mesh, local):
    """Element rows L, (E n_loc) x n: row (e, a) holds local[e, a, :] at elements[e]."""
    nl = mesh.elements.shape[1]
    return _rows(np.repeat(mesh.elements, nl, axis=0), local, mesh.n_vertices)


def _nodal_glue(mesh):
    """Nodal glue, n x (E n_loc): a 1 at (elements[e, a], e n_loc + a)."""
    owner = mesh.elements.reshape(-1, 1)
    return _rows(owner, np.ones(len(owner)), mesh.n_vertices).T.tocsr()


# Cells of a boundary vertex's strip along one axis, as offsets from its grid
# index, for a vertex on the lower side, inside, or on the upper side.
_STRIP_OFFSETS = ((0, 1), (-1, 0), (-1, -2))


def dual_basis(mesh):
    """The dual glue C of the mesh: element duals glued, modified at the boundary.

    C is n x (E n_loc); row i holds the weights of the dual mu_i over the
    element duals, column e n_loc + a standing for mu_a^e, the element dual
    of local node a on element e (zero off e). An interior vertex keeps the
    standard dual, the sum of the element duals of its node over the
    elements around it: its row is that of the nodal glue. A boundary
    vertex i gets mu_i = sum over its strip S_i of beta_{T,a} mu_a^T, where
    S_i holds the two cells inward of i along each boundary normal and the
    cells touching i along the other axes. beta is the closest to the
    standard coefficients such that int mu_i phi_j = c_i delta_ij with the
    standard c_i, and int mu_i d_k(I_h q) = c_i d_k q(x_i) for every
    quadratic q; see `_class_weights`. The strip's element ids are those of
    its cells, each cell's in `mesh.cell_elements` order.

    With a single cell along some axis no dual is exact along it; such a
    mesh keeps the standard duals at every vertex.
    """
    cells = np.asarray(mesh.cells_per_axis)
    if cells.min() < 2:
        return _nodal_glue(mesh)
    nl = mesh.elements.shape[1]
    n, d = mesh.n_vertices, mesh.dim
    grid = np.stack(np.unravel_index(np.arange(n), cells + 1), axis=1)
    side = (grid > 0).astype(np.int64) + (grid == cells)
    boundary = (side != 1).any(axis=1)
    owner = mesh.elements.ravel()
    glued = np.flatnonzero(~boundary[owner])
    rows, cols, vals = [owner[glued]], [glued], [np.ones(len(glued))]
    code = np.ravel_multi_index(side.T, (3,) * d)
    table = _class_weights(mesh.kind, d)
    for cls in np.unique(code[boundary]):
        members = np.flatnonzero(code == cls)
        offsets, beta = table[cls]
        strips = mesh.cell_elements(grid[members][:, None, :] + offsets)
        rows.append(np.repeat(members, beta.size))
        cols.append((strips.reshape(len(members), -1, 1) * nl + np.arange(nl)).ravel())
        vals.append(np.tile(beta.ravel(), len(members)))
    # group the entries by row; within a row they keep the order listed
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((np.concatenate(vals)[order], np.concatenate(cols)[order], indptr),
                         shape=(n, len(owner)))


@functools.lru_cache(maxsize=None)
def _class_weights(kind, dim):
    """Strip cell offsets and beta for each boundary class of a mesh kind.

    A class is the side (lower, inside, upper) of the box a vertex lies on
    along each axis, coded base 3; there are 3^d - 1 boundary classes. The
    structured meshes are translation invariant and the conditions on beta
    are invariant under affine maps, so beta depends only on the class and
    is solved once, on a grid of three unit cells per axis. Returns
    {code: (offsets (cells, d), beta (cells * elements per cell, n_loc))},
    the rows of beta in `mesh.cell_elements` order of the offset cells.
    """
    ref = build_structured_mesh(Domain(np.zeros(dim), np.full(dim, 3.0)), (3,) * dim, kind)
    gram = _element_matrices(ref, "mu", "phi")
    grad = np.stack(_grad_matrices(ref, "mu"))
    table = {}
    for sides in itertools.product(range(3), repeat=dim):
        if all(s == 1 for s in sides):
            continue
        grid = np.array([(0, 1, 3)[s] for s in sides])
        offsets = np.array(list(itertools.product(*(_STRIP_OFFSETS[s] for s in sides))))
        strip = ref.cell_elements(grid + offsets).ravel()
        vertex = int(np.ravel_multi_index(grid, (4,) * dim))
        beta = _strip_weights(ref, vertex, strip, gram[strip], grad[:, strip])
        offsets.setflags(write=False)
        beta.setflags(write=False)
        table[int(np.ravel_multi_index(sides, (3,) * dim))] = (offsets, beta)
    return table


def _strip_weights(mesh, vertex, strip, gram, grad):
    """Coefficients beta[t, a] of the modified dual of `vertex` over `strip`.

    `gram[t]` and `grad[k, t]` hold the element blocks int mu_a phi_b and
    int mu_a d_k phi_b of the strip. beta is the minimum-norm change of the
    standard coefficients that meets the biorthogonality and
    quadratic-exactness conditions of `dual_basis`.
    """
    elems = mesh.elements[strip]
    nl, d = elems.shape[1], mesh.dim
    verts, local = np.unique(elems, return_inverse=True)
    local = local.reshape(elems.shape)
    # biorthogonality: row j is int mu phi_j as a function of beta
    onehot = np.eye(len(verts))[local]  # (t, b, j)
    biorth = np.einsum("tab,tbj->jta", gram, onehot).reshape(len(verts), -1)
    # exactness for the quadratics centred at the vertex, whose gradient
    # vanishes there (constants and linears follow from biorthogonality)
    x = mesh.vertices[verts] - mesh.vertices[vertex]
    p, q = np.triu_indices(d)
    quad = (x[:, p] * x[:, q])[local]  # (t, b, m)
    exact = np.einsum("ktab,tbm->kmta", grad, quad).reshape(-1, len(strip) * nl)
    A = np.vstack([biorth, exact])
    standard = (elems == vertex).ravel().astype(float)
    own = np.searchsorted(verts, vertex)
    target = np.zeros(len(A))
    target[own] = biorth[own] @ standard
    # rows scaled to unit norm; a row that vanishes up to rounding against
    # its block (an interpolated quadratic with no slope along k) is no
    # condition
    norm = np.linalg.norm(A, axis=1)
    floor = 1e-12 * np.repeat([np.abs(biorth).max(), np.abs(exact).max()],
                              [len(biorth), len(exact)])
    live = norm > floor
    A, target = A[live] / norm[live, None], target[live] / norm[live]
    # the conditions are dependent (1 to 6 singular values vanish up to
    # rounding); the explicit cutoff keeps those directions out of beta
    beta = standard
    for _ in range(2):  # the second pass refines the first to rounding
        beta = beta + np.linalg.lstsq(A, target - A @ beta, rcond=1e-10)[0]
    if np.abs(A @ beta - target).max() > 1e-10:
        raise BiorthogonalityError(
            f"no boundary dual at vertex {vertex} meets the exactness conditions"
        )
    return beta.reshape(len(strip), nl)


def _stiffness(mesh, nodal):
    invj = mesh.inv_jacobians
    geometry = mesh.det_jacobians[:, None, None] * (invj @ invj.transpose(0, 2, 1))
    return nodal @ _element_rows(mesh, _element_matrices(mesh, "grad", "grad", geometry))


def _mass(mesh, nodal):
    return nodal @ _element_rows(mesh, _element_matrices(mesh, "phi", "phi"))


def _gram_diagonal(mesh, dual):
    local = _element_matrices(mesh, "mu", "phi").sum(axis=2)
    diag = dual @ local.ravel()
    if np.any(diag <= 0):
        raise BiorthogonalityError("nonpositive Gram diagonal entry")
    return diag


def _grad_matrices(mesh, basis):
    """Local matrices of int d_k phi_j m_i, m = phi or mu, one per component k."""
    # d_k phi_j = dphi_j/dxhat_m (J^-1)[m, k]
    det_invj = mesh.det_jacobians[:, None, None] * mesh.inv_jacobians
    return [_element_matrices(mesh, basis, "grad", det_invj[:, :, k]) for k in range(mesh.dim)]


def _grad_coupling(mesh, basis, glue):
    return tuple(glue @ _element_rows(mesh, local) for local in _grad_matrices(mesh, basis))


def _element_blocks(mesh):
    """K, mass, c, B and W of the whole mesh, each glue built once."""
    nodal, dual = _nodal_glue(mesh), dual_basis(mesh)
    return (_stiffness(mesh, nodal), _mass(mesh, nodal), _gram_diagonal(mesh, dual),
            _grad_coupling(mesh, "mu", dual), _grad_coupling(mesh, "phi", nodal))


def _reference_tiling(mesh):
    """The mesh's reference grid, and the map that tiles its rows onto the mesh.

    The reference grid has min(c_k, 6) cells per axis, the mesh's kind and
    its cell widths. Along each axis the reference vertex of grid index g is
    g within 2 of the lower side, 3 inside, and g - (c - 6) within 2 of the
    upper side; an axis of c <= 6 cells is its own reference.

    Returns (ref, tile). tile(a) gives every mesh vertex the row of its
    reference vertex: a gather for a vector over the reference vertices,
    and for a reference CSR matrix the reference row with its columns moved
    by the real grid's strides.
    """
    cells = np.asarray(mesh.cells_per_axis)
    ref_cells = np.minimum(cells, REFERENCE_CELLS)
    extents = mesh.domain.extents
    # an axis that is its own reference keeps its extent, so its width is exact
    ref_extents = np.where(ref_cells == cells, extents, ref_cells * (extents / cells))
    ref = build_structured_mesh(Domain(np.zeros(mesh.dim), ref_extents), ref_cells, mesh.kind)
    shape, ref_shape, mid = cells + 1, ref_cells + 1, REFERENCE_CELLS // 2
    axes = [np.where(g < mid, g, np.maximum(mid, g - (c - rc)))
            for g, c, rc in zip(map(np.arange, shape), cells, ref_cells)]
    ref_of = np.ravel_multi_index(np.meshgrid(*axes, indexing="ij"), ref_shape).ravel()
    ref_index = np.stack(np.unravel_index(np.arange(ref.n_vertices), ref_shape), axis=1)
    strides = np.cumprod(np.r_[1, shape[:0:-1]])[::-1]
    n = mesh.n_vertices

    def tile(a):
        if not sp.issparse(a):
            return a[ref_of]
        # column offset of each reference entry from its row, in real strides
        ref_row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        offset = (ref_index[a.indices] - ref_index[ref_row]) @ strides
        # entry k of real row i is entry k of its reference row; summed in
        # place, since a fresh nnz-sized temporary costs more than the sum
        counts = np.diff(a.indptr)[ref_of]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        entry = np.repeat(a.indptr[ref_of] - indptr[:-1], counts)
        entry += np.arange(indptr[-1])
        indices = offset[entry]
        indices += np.repeat(np.arange(n), counts)
        return sp.csr_matrix((a.data[entry], indices, indptr), shape=(n, n))

    return ref, tile


def _mesh_blocks(mesh):
    """K, mass, c, B and W of a mesh, tiled from its reference grid.

    On a mesh that is its own reference grid they are bit for bit the
    public `assemble_*` blocks. A wider axis gets the reference extent
    6 (extent / c), whose cell width can round, so elsewhere they agree
    with the whole-mesh assembly up to that rounding (bit for bit on the
    128^2 simplex and 16^3 hex grids).
    """
    ref, tile = _reference_tiling(mesh)
    K, mass, c, B, W = _element_blocks(ref)
    return (tile(K), tile(mass), tile(c),
            tuple(map(tile, B)), tuple(map(tile, W)))


def assemble_stiffness(mesh):
    """Scalar stiffness matrix; symmetric, constants in the kernel."""
    return _stiffness(mesh, _nodal_glue(mesh))


def assemble_mass(mesh):
    """Scalar mass matrix of the nodal basis."""
    return _mass(mesh, _nodal_glue(mesh))


def assemble_gram_full(mesh):
    """Full dual/primal coupling int mu_i phi_j (row i dual, column j primal).

    Diagonal by construction of the bases; assembled in full only to verify
    that.
    """
    return dual_basis(mesh) @ _element_rows(mesh, _element_matrices(mesh, "mu", "phi"))


def assemble_gram_diagonal(mesh):
    """Diagonal c of the dual/primal coupling, c_j = int mu_j phi_j > 0.

    Computed as the row sum int mu_j = sum_k int mu_j phi_k, which is c_j
    for a biorthogonal pair (`assemble_gram_full` gives the whole coupling).
    """
    return _gram_diagonal(mesh, dual_basis(mesh))


def assemble_grad_coupling(mesh, test="dual"):
    """Per-component coupling blocks of grad(u) against dual or primal tests.

    Returns a tuple of d CSR matrices; block k holds int d_k phi_j * m_i
    with m the dual basis (test='dual', the B blocks) or the nodal basis
    (test='primal', the W blocks).
    """
    if test not in ("dual", "primal"):
        raise ValueError(f"test must be 'dual' or 'primal', got {test!r}")
    if test == "dual":
        return _grad_coupling(mesh, "mu", dual_basis(mesh))
    return _grad_coupling(mesh, "phi", _nodal_glue(mesh))


def evaluation_matrix(mesh, points):
    """Sparse N x n matrix of nodal basis values at the given points.

    Row i holds the basis values of the element containing x_i at that
    element's vertices, so (P u)_i = u_h(x_i). Points on element interfaces
    use the smallest containing element id, which fixes the assembly
    deterministically.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eids, refs = locate_points(mesh, pts)
    return _rows(mesh.elements[eids], mesh.element_pair.nodal_eval(refs), mesh.n_vertices)


def assemble_data_term(P, z):
    """Normal-equation pieces of the data misfit: R = P^T P and f = P^T z."""
    z = np.asarray(z, dtype=float).ravel()
    if P.shape[0] != z.shape[0]:
        raise ValueError(
            f"evaluation matrix has {P.shape[0]} rows but {z.shape[0]} values given"
        )
    R = (P.T @ P).tocsr()
    f = P.T @ z
    return R, f


@dataclass(frozen=True)
class SystemBlocks:
    """All assembled blocks for one mesh + data set.

    The vector stiffness and vector mass are d copies of `K` and `mass`;
    they are kept scalar here and expanded blockwise where needed.
    """

    mesh: object
    K: sp.csr_matrix
    mass: sp.csr_matrix
    gram_diag: np.ndarray
    B: tuple
    W: tuple
    P: sp.csr_matrix
    R: sp.csr_matrix
    f: np.ndarray

    @property
    def n(self):
        return self.K.shape[0]

    @property
    def dim(self):
        return self.mesh.dim


def assemble_system(mesh, data):
    """Assemble every block needed by the condensed solve for one data set."""
    if not isinstance(data, ScatteredData):
        raise TypeError("data must be a ScatteredData")
    if data.dim != mesh.dim:
        raise ValueError("data dimension does not match mesh dimension")
    K, mass, c, B, W = _mesh_blocks(mesh)
    P = evaluation_matrix(mesh, data.points)
    R, f = assemble_data_term(P, data.values)
    return SystemBlocks(mesh=mesh, K=K, mass=mass, gram_diag=c, B=B, W=W, P=P, R=R, f=f)
