from dataclasses import dataclass

import numpy as np
import pytest

from fetps.elements import quadrature
from fetps.mesh import Domain, build_structured_mesh


@pytest.fixture
def unit_square():
    return Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


@pytest.fixture
def unit_cube():
    return Domain(np.zeros(3), np.ones(3))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


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
    members = set()
    for v in mesh.elements[eid]:
        members.update(mesh.vertex_elements(int(v)).tolist())
    return Patch(center=int(eid), members=tuple(sorted(members)))


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
    points of one element, for local trial j and test i. With a DualBasis
    `dual`, the test functions are its global duals: the integral for
    local test i on element e goes, times each weight, to every row whose
    dual contains that element dual.
    """
    pair = mesh.element_pair
    rule = quadrature(mesh.cell_kind, degree)
    n = mesh.n_vertices
    out = np.zeros((n, n))
    phi = pair.nodal_eval(rule.points)
    dphi = pair.nodal_grad(rule.points)
    mu = pair.dual_eval(rule.points)
    # (element, local test) -> [(row, weight)]
    test_rows = {}
    for e, conn in enumerate(mesh.elements):
        for i, v in enumerate(conn):
            if dual is None or dual.glued[v]:
                test_rows[e, i] = [(int(v), 1.0)]
    if dual is not None:
        for row, e, weights in zip(dual.rows, dual.elements, dual.weights):
            for i, weight in enumerate(weights):
                test_rows.setdefault((int(e), i), []).append((int(row), float(weight)))
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
