from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

import fetps.smoother
from fetps.assembly import assemble_gram_full
from fetps.elements import quadrature
from fetps.errors import SingularSystemError
from fetps.mesh import Domain, build_structured_mesh
from fetps.system import STABILIZATION_R, SolutionTriple


@pytest.fixture
def unit_square():
    return Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


@pytest.fixture
def unit_cube():
    return Domain(np.zeros(3), np.ones(3))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def stalled_solve(monkeypatch):
    """Make `fit`'s solve report a residual of 1e-8, above the default rtol."""
    solve = fetps.smoother.solve_reduced

    def stalled(op, f, cfg=None, return_stats=False):
        u, stats = solve(op, f, cfg, return_stats=True)
        return u, dict(stats, residual=1e-8)

    monkeypatch.setattr(fetps.smoother, "solve_reduced", stalled)


def make_mesh(domain, cells, kind):
    return build_structured_mesh(domain, cells, kind)


@dataclass(frozen=True)
class Box:
    """Cells per axis on the box lower..upper (the unit box by default)."""

    cells: tuple
    lower: tuple = None
    upper: tuple = None


# Offset, anisotropic boxes: J is not a multiple of the identity there, so a
# transposed J^-1 contraction fails the assembly oracle comparisons.
OFFSET_2D = dict(lower=(-1.0, 0.5), upper=(2.0, 0.75))
OFFSET_3D = dict(lower=(0.0, -1.0, 0.0), upper=(2.0, 0.0, 0.5))

SMALL_MESHES = [
    ("simplex", Box((2, 2))),
    ("parallelotope", Box((2, 2))),
    ("simplex", Box((1, 1, 1))),
    ("parallelotope", Box((1, 1, 2))),
    ("simplex", Box((3, 2), **OFFSET_2D)),
    ("parallelotope", Box((3, 2), **OFFSET_2D)),
    ("simplex", Box((1, 2, 1), **OFFSET_3D)),
    ("parallelotope", Box((1, 2, 1), **OFFSET_3D)),
]


def small_mesh(kind, box):
    dim = len(box.cells)
    lower = np.zeros(dim) if box.lower is None else np.asarray(box.lower)
    upper = np.ones(dim) if box.upper is None else np.asarray(box.upper)
    return build_structured_mesh(Domain(lower, upper), box.cells, kind)


@dataclass(frozen=True)
class Patch:
    """Elements whose closures touch the closure of the center element."""

    center: int
    members: tuple


def element_patch(mesh, eid):
    """All elements whose closure intersects the closure of element `eid`.

    On a conforming mesh that is exactly the set of elements sharing at
    least one vertex with `eid` (itself included).
    """
    if not 0 <= eid < mesh.n_elements:
        raise ValueError(f"element id {eid} out of range")
    members = np.flatnonzero(np.isin(mesh.elements, mesh.elements[eid]).any(axis=1))
    return Patch(center=int(eid), members=tuple(members.tolist()))


def fe_value_on_element(mesh, coeffs, eid, points):
    """Evaluate the FE function restricted to one element (closure included)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eids = np.full(len(pts), eid, dtype=np.int64)
    refs = mesh.map_to_reference(eids, pts)
    vals = mesh.element_pair.nodal_eval(refs)
    return (vals * np.asarray(coeffs)[mesh.elements[eids]]).sum(axis=1)


def brute_force_matrix(mesh, kernel, degree=4, dual=None):
    """Dense assembly oracle: direct quadrature, plain Python element loop.

    kernel(i, j, xq, phi, grad, mu) -> integrand values at the quadrature
    points of one element, for local trial j and test i. With a dual glue
    `dual` (the matrix of `dual_basis`), the test functions are its global
    duals: the integral for local test i on element e goes, times each
    weight, to every row of column e * n_loc + i of `dual`.
    """
    pair = mesh.element_pair
    rule = quadrature(mesh.cell_kind, degree)
    n = mesh.n_vertices
    out = np.zeros((n, n))
    phi = pair.nodal_eval(rule.points)
    dphi = pair.nodal_grad(rule.points)
    mu = pair.dual_eval(rule.points)
    # (element, local test) -> [(row, weight)]
    if dual is None:
        test_rows = {(e, i): [(int(v), 1.0)]
                     for e, conn in enumerate(mesh.elements) for i, v in enumerate(conn)}
    else:
        cols = sp.csc_matrix(dual)
        test_rows = {}
        for col in range(cols.shape[1]):
            span = slice(cols.indptr[col], cols.indptr[col + 1])
            test_rows[divmod(col, pair.n_loc)] = [
                (int(row), float(weight))
                for row, weight in zip(cols.indices[span], cols.data[span])
            ]
    for e in range(mesh.n_elements):
        det = mesh.det_jacobians[e]
        invj = mesh.inv_jacobians[e]
        xq = mesh.element_origin[e] + rule.points @ mesh.jacobians[e].T
        grad = np.einsum("qim,mk->qik", dphi, invj)
        conn = mesh.elements[e]
        for i in range(pair.n_loc):
            for j in range(pair.n_loc):
                val = det * float(rule.weights @ kernel(i, j, xq, phi, grad, mu))
                for row, weight in test_rows.get((e, i), ()):
                    out[row, conn[j]] += weight * val
    return out


def stiffness_kernel(i, j, xq, phi, grad, mu):
    return (grad[:, i, :] * grad[:, j, :]).sum(axis=1)


def mass_kernel(i, j, xq, phi, grad, mu):
    return phi[:, i] * phi[:, j]


def gram_kernel(i, j, xq, phi, grad, mu):
    return mu[:, i] * phi[:, j]


def grad_dual_kernel(k):
    def kernel(i, j, xq, phi, grad, mu):
        return grad[:, j, k] * mu[:, i]
    return kernel


def grad_primal_kernel(k):
    def kernel(i, j, xq, phi, grad, mu):
        return grad[:, j, k] * phi[:, i]
    return kernel


def assert_biorthogonal(mesh, gram_diag):
    """The full dual/primal coupling is diagonal to roundoff, with diagonal gram_diag."""
    gram = assemble_gram_full(mesh)
    diag = gram.diagonal()
    off = gram - sp.diags(diag)
    max_off = np.abs(off.data).max() if off.nnz else 0.0
    assert max_off < 1e-13 * diag.max(), f"off-diagonal {max_off:.3e}, max diagonal {diag.max():.3e}"
    assert np.abs(gram_diag - diag).max() <= 1e-13 * diag.max()


# -- dense three-block oracle ------------------------------------------------

DENSE_ORACLE_CAP = 3000
# A backward stable solve stays within a small multiple of the unit
# roundoff; the oracle's solves measure 2e-17..4e-16, alpha up to 1e6.
BACKWARD_ERROR_CUT = 1e-14


def backward_error(A, x, b):
    """Normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||), infinity norms."""
    norm = lambda v: np.linalg.norm(v, np.inf)
    scale = norm(A) * norm(x) + norm(b)
    return norm(A @ x - b) / scale if scale else 0.0  # x = b = 0 is exact


def saddle_matrix_dense(blocks, alpha):
    """Dense (1+2d)n x (1+2d)n symmetric indefinite three-block matrix."""
    d, r = blocks.dim, STABILIZATION_R
    D = sp.diags(blocks.gram_diag)
    inner = alpha * blocks.K + r * blocks.mass
    grid = [[None] * (1 + 2 * d) for _ in range(1 + 2 * d)]
    grid[0][0] = blocks.R + r * blocks.K
    for k in range(d):
        grid[0][1 + k] = -r * blocks.W[k].T
        grid[0][1 + d + k] = -blocks.B[k].T
        grid[1 + k][0] = -r * blocks.W[k]
        grid[1 + k][1 + k] = inner
        grid[1 + k][1 + d + k] = D
        grid[1 + d + k][0] = -blocks.B[k]
        grid[1 + d + k][1 + k] = D
    return sp.bmat(grid, format="csr").toarray()


def scaled_saddle_matrix(blocks, alpha):
    """The congruence E A E of the three-block matrix A, and the diagonal e of E.

    E scales the gradient unknowns by 1e-3 / max(1, alpha) and keeps the
    others, which leaves the Schur complement on u unchanged. Partial
    pivoting then takes the D rows first; pivoting on alpha*K + rM instead
    loses up to 1e-9 of max|S| at alpha = 1e6 (checked at 40 digits).
    """
    n, d = blocks.n, blocks.dim
    e = np.ones((1 + 2 * d) * n)
    e[n:(1 + d) * n] = 1e-3 / max(1.0, alpha)
    return saddle_matrix_dense(blocks, alpha) * np.outer(e, e), e


def solve_saddle_dense(blocks, alpha):
    """Direct dense solve of the full three-block system.

    The system is singular exactly when the reduced operator is singular on
    the affine functions Z = [1, x] at the vertices, where it is Z^T R Z =
    (P Z)^T (P Z): so data whose P Z is rank deficient (fewer than d+1
    affinely independent sites) raise SingularSystemError. The solve runs on
    `scaled_saddle_matrix`, and its normwise backward error against A must
    stay at rounding level.
    """
    d, n = blocks.dim, blocks.n
    total = (1 + 2 * d) * n
    if total > DENSE_ORACLE_CAP:
        raise ValueError(f"dense saddle solve refused: {total} unknowns exceeds {DENSE_ORACLE_CAP}")
    Z = np.column_stack([np.ones(n), blocks.mesh.vertices])
    if np.linalg.matrix_rank(blocks.P @ Z) < d + 1:
        raise SingularSystemError(
            "saddle matrix singular: scattered data lack d+1 affinely independent points"
        )
    rhs = np.zeros(total)
    rhs[:n] = blocks.f
    scaled, e = scaled_saddle_matrix(blocks, alpha)
    sol = e * np.linalg.solve(scaled, e * rhs)
    error = backward_error(saddle_matrix_dense(blocks, alpha), sol, rhs)
    if error > BACKWARD_ERROR_CUT:
        raise SingularSystemError(f"dense saddle solve backward error {error:.3e}")
    return SolutionTriple(u=sol[:n], sigma=sol[n:(1 + d) * n].reshape(d, n),
                          phi=sol[(1 + d) * n:].reshape(d, n))
