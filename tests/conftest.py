from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

import fetps.smoother
from fetps.assembly import (
    assemble_grad_coupling,
    assemble_gram_diagonal,
    assemble_gram_full,
    assemble_mass,
    assemble_stiffness,
)
from fetps.elements import CELL_VOLUMES, quadrature
from fetps.errors import SingularSystemError
from fetps.mesh import Domain, build_structured_mesh, locate_points
from fetps.smoother import element_quadrature
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


# Boxes wider than the 6-cell reference grid of `assembly._reference_tiling`
# on some axis: 6 cells on an axis is the reference grid itself; 7, 8 and
# 13 are tiled from it.
TILED_MESHES = [
    ("simplex", Box((6, 13))),
    ("parallelotope", Box((13, 7))),
    ("parallelotope", Box((8, 13), **OFFSET_2D)),
    ("simplex", Box((7, 2, 8))),
    ("parallelotope", Box((6, 8, 7), **OFFSET_3D)),
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


def map_to_physical(mesh, elem_ids, ref_points):
    """x_e0 + J_t (xhat - xhat_0) for per-point element ids; both arrays length m."""
    eid = np.asarray(elem_ids, dtype=np.int64)
    ref = np.atleast_2d(np.asarray(ref_points, dtype=float))
    return mesh.vertices[mesh.elements[eid, 0]] + np.einsum(
        "mkd,md->mk", mesh.per_element(mesh.jacobians, eid), ref - mesh.element_pair.nodes[0]
    )


def element_volumes(mesh):
    """Volume of every element: det J_t times the reference cell's volume."""
    return mesh.per_element(mesh.det_jacobians * CELL_VOLUMES[mesh.cell_kind])


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
    det, invj = mesh.per_element(mesh.det_jacobians), mesh.per_element(mesh.inv_jacobians)
    for e in range(mesh.n_elements):
        xq = map_to_physical(mesh, np.full(len(rule.points), e), rule.points)
        grad = np.einsum("qim,mk->qik", dphi, invj[e])
        conn = mesh.elements[e]
        for i in range(pair.n_loc):
            for j in range(pair.n_loc):
                val = det[e] * float(rule.weights @ kernel(i, j, xq, phi, grad, mu))
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


# -- quadrature oracle of the energy norm ------------------------------------

def integrate(mesh, func, degree=5):
    """Integrate a pointwise field over the mesh by elementwise quadrature."""
    _, points, weights = element_quadrature(mesh, degree)
    vals = np.asarray(func(points.reshape(-1, mesh.dim)), dtype=float)
    return float(weights.ravel() @ vals)


def fe_gradient_on_elements(mesh, coeffs, eids, refs):
    """Broken gradient of an FE function at reference points of given elements."""
    grads = mesh.element_pair.nodal_grad(np.atleast_2d(refs))  # (m, nl, dref)
    # physical gradient: invJ^T action
    phys = np.einsum("mik,mkd->mid", grads, mesh.per_element(mesh.inv_jacobians, eids))
    local = np.asarray(coeffs)[mesh.elements[eids]]  # (m, nl)
    return np.einsum("mi,mid->md", local, phys)


def fe_gradient(mesh, coeffs, points):
    """Broken elementwise gradient of the FE function at given points."""
    eids, refs = locate_points(mesh, np.atleast_2d(np.asarray(points, dtype=float)))
    return fe_gradient_on_elements(mesh, coeffs, eids, refs)


def energy_norm_by_quadrature(mesh, data_points, alpha, u, grad_u, sigma, jac_sigma, degree=5):
    """Energy norm of a (u, sigma) pair of callables, by located-point quadrature.

    sqrt( sum_i u(x_i)^2 + alpha * |sigma|_{H1}^2 + ||sigma - grad u||_{L2}^2 )

    with the H1 seminorm integrated elementwise. `u` maps points to values,
    `grad_u` and `sigma` map points to (m, d), `jac_sigma` maps points to
    (m, d, d) component derivatives. The oracle of `fetps.smoother.energy_norm`.
    """
    data_points = np.atleast_2d(np.asarray(data_points, dtype=float))
    pterm = float(np.sum(np.asarray(u(data_points), dtype=float) ** 2))

    def h1_density(pts):
        jac = np.asarray(jac_sigma(pts), dtype=float)
        return (jac ** 2).sum(axis=(1, 2))

    def constraint_density(pts):
        diff = np.asarray(sigma(pts), dtype=float) - np.asarray(grad_u(pts), dtype=float)
        return (diff ** 2).sum(axis=1)

    h1 = integrate(mesh, h1_density, degree)
    cons = integrate(mesh, constraint_density, degree)
    return float(np.sqrt(max(pterm + alpha * h1 + cons, 0.0)))


def smoother_pair_fields(s):
    """The four field callables of a fitted smoother for energy_norm_by_quadrature."""
    def u(pts):
        return s.evaluate(pts)

    def grad_u(pts):
        return fe_gradient(s.mesh, s.u, pts)

    def sigma(pts):
        return s.evaluate_gradient(pts)

    def jac_sigma(pts):
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        eids, refs = locate_points(s.mesh, p)
        rows = [
            fe_gradient_on_elements(s.mesh, s.sigma[k], eids, refs)
            for k in range(s.mesh.dim)
        ]
        return np.stack(rows, axis=1)  # (m, d, d): row k = grad sigma_k

    return u, grad_u, sigma, jac_sigma


# -- block-formula oracle of the condensed operator ---------------------------

def whole_mesh_blocks(mesh):
    """K, mass, c, B and W from the public per-block functions.

    Each is element-assembled on the whole mesh, not tiled from a reference
    grid: an independent oracle for the blocks of `assemble_system`.
    """
    return (assemble_stiffness(mesh), assemble_mass(mesh), assemble_gram_diagonal(mesh),
            assemble_grad_coupling(mesh, "dual"), assemble_grad_coupling(mesh, "primal"))


def condensed_block_formula(mesh, alpha, r=STABILIZATION_R):
    """S_h = T + T^T of the whole mesh's blocks, with R = 0, as sparse products.

    T = rK/2 + G_k^T V_k, V_k = (alpha K + rM) G_k/2 - r W_k, G_k = D^-1 B_k
    (see `fetps.system`): the data-free part of the reduced operator,
    formed from `whole_mesh_blocks` rather than tiled from a reference grid.
    """
    K, mass, c, B, W = whole_mesh_blocks(mesh)
    G = [sp.csr_matrix(Bk.multiply((1.0 / c)[:, None])) for Bk in B]
    half_inner = 0.5 * (alpha * K + r * mass)
    V = sp.vstack([half_inner @ Gk - r * Wk for Gk, Wk in zip(G, W)], format="csr")
    T = 0.5 * r * K + sp.vstack(G, format="csr").T @ V
    return (T + T.T).tocsr()


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
