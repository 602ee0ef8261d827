"""High-level fitting API, quasi-projection, interpolation, and norms.

`fit` composes assembly, static condensation, the CG solve and recovery into
a `Smoother` (see `model`) that can be evaluated, with its recovered
gradient, anywhere in the domain. The quasi-projection uses the
biorthogonal dual basis:

    (Q v)_i = (int mu_i v) / c_i,

which restricts to the identity on the finite element space and acts as a
local gradient-recovery operator when applied to broken gradients.

The energy norm of a vertex-coefficient pair (u, sigma) is the quadratic
form of the assembled blocks P, K, mass and W_k (see `energy_norm`); the
norm of the difference of two fits is taken on the finer of two nested
meshes (see `energy_norm_difference`).
"""

import math
import warnings

import numpy as np

from .assembly import (
    _grad_coupling,
    _gram_diagonal,
    assemble_grad_coupling,
    assemble_mass,
    assemble_stiffness,
    assemble_system,
    dual_basis,
    evaluation_matrix,
)
from .elements import quadrature
from .errors import SingularSystemError
# the model half of the API lives in `model`; its names stay importable from here
from .model import FitConfig, Smoother, fe_value  # noqa: F401
from .system import (
    SolverConfig,
    condense,
    recover_auxiliary,
    recover_gradient,
    solve_reduced,
)


def fit(data, mesh, cfg, solver=None):
    """Fit the smoothing spline to scattered data on a mesh.

    Parameters
    ----------
    data : ScatteredData
        Needs d+1 affinely independent sites inside the closed domain.
    mesh : Mesh
    cfg : FitConfig
    solver : SolverConfig, optional

    The returned smoother keeps the assembled blocks and the reduced
    operator, so functional evaluations reuse them.

    Warns (RuntimeWarning) when the solve returns a residual that is not at
    or below the solver's rtol; the smoother's `residual` then says by how
    much.
    """
    solver = solver or SolverConfig()
    if not data.admissible():
        raise SingularSystemError(
            f"scattered data is not admissible: need at least {mesh.dim + 1} "
            f"affinely independent points, got affine rank {data.affine_rank()} "
            f"from {data.n} points"
        )
    blocks = assemble_system(mesh, data)
    op = condense(blocks, cfg.alpha)
    u, stats = solve_reduced(op, blocks.f, solver, return_stats=True)
    if not stats["residual"] <= solver.rtol:
        warnings.warn(
            f"residual {stats['residual']:.2e} is above rtol {solver.rtol:g}; "
            "the solve stalled before reaching the tolerance",
            RuntimeWarning,
            stacklevel=2,
        )
    triple = recover_auxiliary(blocks, u, cfg.alpha)
    return Smoother(
        mesh=mesh,
        u=triple.u,
        sigma=triple.sigma,
        phi=triple.phi,
        alpha=cfg.alpha,
        iterations=stats["iterations"],
        residual=stats["residual"],
        blocks=blocks,
        reduced=op,
    )


# -- quadrature on the mesh ---------------------------------------------------

def element_quadrature(mesh, degree):
    """A reference rule mapped to every element.

    Returns the rule, the physical points x_e0 + J_t (xhat_q - xhat_0),
    shape (e, q, d), and the weights w_q * det J_t, shape (e, q).
    """
    rule = quadrature(mesh.cell_kind, degree)
    offsets = (rule.points - mesh.element_pair.nodes[0]) @ mesh.jacobians.transpose(0, 2, 1)
    points = mesh.vertices[mesh.elements[:, :1]] + mesh.per_element(offsets)
    weights = mesh.per_element(rule.weights * mesh.det_jacobians[:, None])
    return rule, points, weights


def fe_at_quadrature(mesh, coeffs, rule):
    """Values and gradients of FE functions at a rule's points on every element.

    `coeffs` holds vertex coefficients in its last axis, shape (..., n);
    returns values (..., e, q) and gradients (..., e, q, d), the latter from
    the reference gradients and J^-1.
    """
    pair = mesh.element_pair
    local = np.asarray(coeffs, dtype=float)[..., mesh.elements]  # (..., e, nl)
    values = local @ pair.nodal_eval(rule.points).T
    ref_grads = np.einsum("...ei,qim->...eqm", local, pair.nodal_grad(rule.points))
    return values, ref_grads @ mesh.per_element(mesh.inv_jacobians)


# -- quasi-projection and interpolation -------------------------------------

def quasi_project(mesh, v, degree=5):
    """Coefficients of the dual-moment projection of a scalar field.

    Coefficient i equals (int mu_i v) / c_i, with the boundary-modified
    duals of `assembly.dual_basis`; fields already in the FE space are
    reproduced exactly up to quadrature. `v` maps an (m, d) array of points
    to m values.
    """
    rule, points, weights = element_quadrature(mesh, degree)
    vals = np.asarray(v(points.reshape(-1, mesh.dim)), dtype=float)
    local = (weights * vals.reshape(weights.shape)) @ mesh.element_pair.dual_eval(rule.points)
    dual = dual_basis(mesh)
    return (dual @ local.ravel()) / _gram_diagonal(mesh, dual)


def quasi_project_gradient(mesh, coeffs):
    """Recovered-gradient coefficients of an FE function: Q applied to grad.

    Returns a (d, n) array, row k = D^-1 B_k u: the dual moments of d_k u_h
    scaled by 1/c, the same operator the fit uses to recover sigma.
    """
    dual = dual_basis(mesh)
    return recover_gradient(_grad_coupling(mesh, "mu", dual), _gram_diagonal(mesh, dual), coeffs)


def lagrange_interpolate(mesh, v):
    """Vertex interpolant coefficients: coefficient j = v(vertex_j)."""
    return np.asarray(v(mesh.vertices), dtype=float).ravel()


# -- norms and functionals ---------------------------------------------------

def energy_norm(mesh, data_points, alpha, u, sigma):
    """Energy norm of a pair of FE fields with vertex coefficients (u, sigma).

    sqrt( sum_i u(x_i)^2 + alpha |sigma|_{H1}^2 + ||sigma - grad u||_{L2}^2 )

    evaluated exactly as the quadratic form of the assembled blocks:
    |P u|^2 + u^T K u + sum_k (alpha s_k^T K s_k + s_k^T M s_k - 2 s_k^T W_k u),
    where ||sigma - grad u||^2 expands through (W_k)_ij = int phi_i d_k phi_j.
    `u` has shape (n,) and `sigma` shape (d, n).
    """
    u = np.asarray(u, dtype=float)
    pu = evaluation_matrix(mesh, data_points) @ u
    K, M = assemble_stiffness(mesh), assemble_mass(mesh)
    W = assemble_grad_coupling(mesh, "primal")
    total = float(pu @ pu + u @ (K @ u))
    for s_k, W_k in zip(np.asarray(sigma, dtype=float), W):
        total += float(alpha * (s_k @ (K @ s_k)) + s_k @ (M @ s_k) - 2.0 * (s_k @ (W_k @ u)))
    return math.sqrt(max(total, 0.0))


def energy_norm_difference(s_coarse, s_fine, data_points, alpha):
    """Energy norm of the pairwise difference of two fitted smoothers.

    The meshes must be nested: the same domain and kind, and the finer
    mesh's cell count on each axis an integer multiple of the coarser one's
    (ValueError otherwise). Then the coarser fit lies in the finer FE space,
    so its values and recovered gradient at the finer mesh's vertices are
    its coefficients there, and `energy_norm` on that mesh is exact.
    """
    coarse, fine = sorted((s_coarse, s_fine), key=lambda s: s.mesh.n_vertices)
    mc, mf = coarse.mesh, fine.mesh
    if not (mc.kind == mf.kind
            and np.array_equal(mc.domain.lower, mf.domain.lower)
            and np.array_equal(mc.domain.upper, mf.domain.upper)
            and all(f % c == 0 for c, f in zip(mc.cells_per_axis, mf.cells_per_axis))):
        raise ValueError(f"energy_norm_difference needs nested meshes, got {mc} and {mf}")
    value, grad = coarse.evaluate_with_gradient(mf.vertices)
    return energy_norm(mf, data_points, alpha, value - fine.u, grad.T - fine.sigma)


def functional_value(s, data, coeffs=None):
    """Discrete objective J(v) = v^T S v - 2 f^T v for the fitted system.

    Defaults to the smoother's own coefficients; at the minimizer the energy
    identity J(u) = -f^T u = -||u||_P^2 holds. Pass `coeffs` to probe
    perturbations. The data must be the set the smoother was fitted to.
    """
    if s.blocks is None or s.reduced is None:
        blocks = assemble_system(s.mesh, data)
        reduced = condense(blocks, s.alpha)
    else:
        blocks, reduced = s.blocks, s.reduced
    v = s.u if coeffs is None else np.asarray(coeffs, dtype=float).ravel()
    return float(v @ (reduced.matrix @ v) - 2.0 * (blocks.f @ v))
