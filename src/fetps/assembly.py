"""Sparse assembly of all blocks of the smoothing saddle-point system.

For the nodal basis {phi_j} of the continuous space and the biorthogonal
dual basis {mu_i}, the blocks are

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
with the element's det J (and J^-1 where a gradient enters), for example

    K_e[i, j] = ref[i, j, m, n] (det J J^-1 J^-T)_e[m, n],
    ref[i, j, m, n] = int dphi_i/dxhat_m dphi_j/dxhat_n

(the reference-tensor form of Kirby & Logg, ACM TOMS 2006).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elements import quadrature
from .errors import BiorthogonalityError
from .mesh import locate_points

DEFAULT_QUAD_DEGREE = 2


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


def _element_matrices(mesh, degree, test, trial, geometry=None):
    """Local matrices A[e, i, j] = ref[i, j, s, t] * geometry[e, s, t].

    ref[i, j, s, t] = int test[i, s] trial[j, t] over the reference cell, for
    the bases 'phi' and 'mu' (s = 1) or 'grad', the reference gradient of phi
    (s = d). `geometry` holds each element's affine factors; it defaults to
    det J.
    """
    if np.any(mesh.det_jacobians <= 0):
        raise ValueError("mesh contains a degenerate element")
    pair = mesh.element_pair
    rule = quadrature(mesh.cell_kind, degree)
    tables = {"phi": pair.nodal_eval(rule.points)[:, :, None],
              "mu": pair.dual_eval(rule.points)[:, :, None],
              "grad": pair.nodal_grad(rule.points)}
    ref = np.einsum("q,qis,qjt->ijst", rule.weights, tables[test], tables[trial])
    if geometry is None:
        geometry = mesh.det_jacobians
    nl = ref.shape[0]
    flat = geometry.reshape(len(geometry), -1) @ ref.reshape(nl * nl, -1).T
    return flat.reshape(-1, nl, nl)


def _scatter(mesh, local):
    """COO-accumulate (e, i, j) local matrices into a CSR matrix."""
    elems = mesh.elements
    nl = elems.shape[1]
    rows = np.repeat(elems, nl, axis=1).ravel()
    cols = np.tile(elems, (1, nl)).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    ).tocsr()
    mat.sum_duplicates()
    return mat


def assemble_stiffness(mesh, degree=DEFAULT_QUAD_DEGREE):
    """Scalar stiffness matrix; symmetric, constants in the kernel."""
    invj = mesh.inv_jacobians
    geometry = mesh.det_jacobians[:, None, None] * (invj @ invj.transpose(0, 2, 1))
    return _scatter(mesh, _element_matrices(mesh, degree, "grad", "grad", geometry))


def assemble_mass(mesh, degree=DEFAULT_QUAD_DEGREE, space="primal"):
    """Scalar mass matrix of the primal (default) or dual basis."""
    b = "phi" if space == "primal" else "mu"
    return _scatter(mesh, _element_matrices(mesh, degree, b, b))


def assemble_gram_full(mesh, degree=DEFAULT_QUAD_DEGREE):
    """Full dual/primal coupling int mu_i phi_j (row i dual, column j primal).

    Diagonal by construction of the bases; assembled in full only to verify
    that.
    """
    return _scatter(mesh, _element_matrices(mesh, degree, "mu", "phi"))


def assemble_gram_diagonal(mesh, degree=DEFAULT_QUAD_DEGREE, check=False):
    """Diagonal c of the dual/primal coupling, c_j = int mu_j phi_j > 0.

    With check=True the full coupling is assembled and its off-diagonal
    entries are required to vanish to roundoff; a violation means the dual
    basis is broken and raises BiorthogonalityError.
    """
    if check:
        gram = assemble_gram_full(mesh, degree)
        diag = gram.diagonal().copy()
        off = gram - sp.diags(diag)
        max_off = np.abs(off.data).max() if off.nnz else 0.0
        if max_off >= 1e-13 * diag.max():
            raise BiorthogonalityError(
                f"dual/primal coupling has off-diagonal {max_off:.3e} "
                f"(max diagonal {diag.max():.3e})"
            )
    else:
        local = _element_matrices(mesh, degree, "mu", "phi").diagonal(axis1=1, axis2=2)
        diag = np.bincount(
            mesh.elements.ravel(), weights=local.ravel(), minlength=mesh.n_vertices
        )
    if np.any(diag <= 0):
        raise BiorthogonalityError("nonpositive Gram diagonal entry")
    return diag


def assemble_grad_coupling(mesh, test="dual", degree=DEFAULT_QUAD_DEGREE):
    """Per-component coupling blocks of grad(u) against dual or primal tests.

    Returns a tuple of d CSR matrices; block k holds int d_k phi_j * m_i
    with m the dual basis (test='dual', the B blocks) or the nodal basis
    (test='primal', the W blocks).
    """
    if test not in ("dual", "primal"):
        raise ValueError(f"test must be 'dual' or 'primal', got {test!r}")
    basis = "mu" if test == "dual" else "phi"
    # d_k phi_j = dphi_j/dxhat_m (J^-1)[m, k]
    det_invj = mesh.det_jacobians[:, None, None] * mesh.inv_jacobians
    return tuple(
        _scatter(mesh, _element_matrices(mesh, degree, basis, "grad", det_invj[:, :, k]))
        for k in range(mesh.dim)
    )


def evaluation_matrix(mesh, points):
    """Sparse N x n matrix of nodal basis values at the given points.

    Row i holds the basis values of the element containing x_i, so
    (P u)_i = u_h(x_i). Accepts a ScatteredData or a raw point array.
    Points on element interfaces use the smallest containing element id,
    which fixes the assembly deterministically.
    """
    if isinstance(points, ScatteredData):
        points = points.points
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eids, refs = locate_points(mesh, pts)
    vals = mesh.element_pair.nodal_eval(refs)  # (N, nl)
    cols = mesh.elements[eids]
    nl = cols.shape[1]
    rows = np.repeat(np.arange(len(pts)), nl)
    mat = sp.coo_matrix(
        (vals.ravel(), (rows, cols.ravel())), shape=(len(pts), mesh.n_vertices)
    ).tocsr()
    mat.sum_duplicates()
    return mat


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


def assemble_system(mesh, data, check_gram=False):
    """Assemble every block needed by the condensed solve for one data set."""
    if not isinstance(data, ScatteredData):
        raise TypeError("data must be a ScatteredData")
    if data.dim != mesh.dim:
        raise ValueError("data dimension does not match mesh dimension")
    K = assemble_stiffness(mesh)
    mass = assemble_mass(mesh)
    c = assemble_gram_diagonal(mesh, check=check_gram)
    B = assemble_grad_coupling(mesh, test="dual")
    W = assemble_grad_coupling(mesh, test="primal")
    P = evaluation_matrix(mesh, data.points)
    R, f = assemble_data_term(P, data.values)
    return SystemBlocks(mesh=mesh, K=K, mass=mass, gram_diag=c, B=B, W=W, P=P, R=R, f=f)


def dump_matrix_market(matrix, path, comment=""):
    """Write a sparse matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite

    mmwrite(str(path), sp.coo_matrix(matrix), comment=comment)
