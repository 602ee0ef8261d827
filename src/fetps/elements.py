"""Reference-element machinery: nodal bases, biorthogonal dual bases, quadrature.

Four reference cells are supported:

* ``triangle`` -- unit simplex {x, y > 0, x + y < 1}
* ``tet``      -- unit simplex {x, y, z > 0, x + y + z < 1}
* ``quad``     -- (-1, 1)^2
* ``hex``      -- (-1, 1)^3

For each cell an :class:`ElementPair` bundles the linear/multilinear nodal
basis of the primal space with a dual basis chosen so that the two are
biorthogonal on the reference cell:

    integral( mu_i * phi_j ) = c_hat * delta_ij,   c_hat > 0.

On simplices the dual with this property is the affine combination
``mu_i = (d + 2) * phi_i - 1`` (then c_hat = |ref cell| / (d + 1)); on
parallelotopes it is the tensor product of the one-dimensional dual pair,
which is derived here by solving the 2x2 local mass system instead of
hard-coding the coefficients.

These element duals, each supported on one element, are the building
blocks of the global dual basis. An interior vertex glues those of its
node; a boundary vertex combines those of a strip of cells reaching two
cells inward, which keeps biorthogonality and makes the gradient recovery
exact for quadratics up to the boundary. A mesh with a single cell along
some axis keeps the glued duals everywhere. See `assembly.dual_basis`.
"""

from dataclasses import dataclass

import numpy as np

SIMPLEX_CELLS = ("triangle", "tet")
CELL_DIMS = {"triangle": 2, "tet": 3, "quad": 2, "hex": 3}

# Reference volumes: 1/d! for simplices, 2^d for boxes.
CELL_VOLUMES = {"triangle": 0.5, "tet": 1.0 / 6.0, "quad": 4.0, "hex": 8.0}

# Corner sign patterns for the boxes, in VTK vertex order.
_QUAD_SIGNS = np.array(
    [[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float
)
_HEX_SIGNS = np.array(
    [
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ],
    dtype=float,
)


def _dual_coefficients_1d():
    """Coefficients of the 1D dual pair on (-1, 1) in the nodal basis.

    Solves  M_loc @ coeffs.T = diag(int phi_j)  where M_loc is the 1D
    two-node mass matrix, so that int mu_i phi_j = delta_ij * int phi_j.
    """
    mass = np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
    target = np.diag([1.0, 1.0])  # int of each hat over (-1, 1)
    return np.linalg.solve(mass, target).T


_DUAL_1D = _dual_coefficients_1d()  # rows: dual index, cols: nodal index


def _hat_1d(t):
    """Values of the two 1D hats at t, shape (..., 2)."""
    t = np.asarray(t, dtype=float)
    return np.stack([(1.0 - t) / 2.0, (1.0 + t) / 2.0], axis=-1)


def _dual_1d(t):
    """Values of the two 1D duals at t, shape (..., 2)."""
    return _hat_1d(t) @ _DUAL_1D.T


@dataclass(frozen=True)
class ElementPair:
    """Nodal basis, its gradients, and the biorthogonal dual basis.

    Attributes
    ----------
    kind : str
        One of 'triangle', 'tet', 'quad', 'hex'.
    dim : int
        Reference dimension.
    n_loc : int
        Local node count (d+1 for simplices, 2^d for boxes).
    nodes : ndarray, shape (n_loc, dim)
        Reference node coordinates; basis i is associated with node i.
    c_hat : float
        Reference biorthogonality scale: int mu_i phi_j = c_hat delta_ij.
    """

    kind: str
    dim: int
    n_loc: int
    nodes: np.ndarray
    c_hat: float

    def nodal_eval(self, points):
        """Nodal basis values at reference points, shape (m, n_loc)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind in SIMPLEX_CELLS:
            first = 1.0 - pts.sum(axis=1)
            return np.column_stack([first, pts])
        signs = _QUAD_SIGNS if self.kind == "quad" else _HEX_SIGNS
        # product over axes of (1 + s_k t_k)/2
        return np.prod((1.0 + pts[:, None, :] * signs[None, :, :]) / 2.0, axis=2)

    def nodal_grad(self, points):
        """Nodal basis gradients at reference points, shape (m, n_loc, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = pts.shape[0]
        if self.kind in SIMPLEX_CELLS:
            g = np.zeros((self.n_loc, self.dim))
            g[0, :] = -1.0
            g[1:, :] = np.eye(self.dim)
            return np.broadcast_to(g, (m, self.n_loc, self.dim)).copy()
        signs = _QUAD_SIGNS if self.kind == "quad" else _HEX_SIGNS
        factors = (1.0 + pts[:, None, :] * signs[None, :, :]) / 2.0  # (m, nl, d)
        grad = np.empty((m, self.n_loc, self.dim))
        for k in range(self.dim):
            others = [a for a in range(self.dim) if a != k]
            grad[:, :, k] = (signs[None, :, k] / 2.0) * np.prod(
                factors[:, :, others], axis=2
            )
        return grad

    def dual_eval(self, points):
        """Dual basis values at reference points, shape (m, n_loc)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind in SIMPLEX_CELLS:
            return (self.dim + 2.0) * self.nodal_eval(pts) - 1.0
        signs = _QUAD_SIGNS if self.kind == "quad" else _HEX_SIGNS
        # tensor product of the 1D duals, matched to the corner signs
        vals = np.ones((pts.shape[0], self.n_loc))
        for k in range(self.dim):
            d1 = _dual_1d(pts[:, k])  # (m, 2) in node order (-1, +1)
            idx = (signs[:, k] > 0).astype(int)
            vals *= d1[:, idx]
        return vals


def make_element_pair(kind):
    """Build the biorthogonal primal/dual pair for a reference cell.

    `kind` is 'triangle', 'tet', 'quad' or 'hex'; it fixes the dimension.
    """
    if kind not in CELL_DIMS:
        raise ValueError(f"unsupported element kind {kind!r}")
    dim = CELL_DIMS[kind]
    if kind in SIMPLEX_CELLS:
        nodes = np.vstack([np.zeros(dim), np.eye(dim)])
        c_hat = CELL_VOLUMES[kind] / (dim + 1)
    else:
        nodes = (_QUAD_SIGNS if kind == "quad" else _HEX_SIGNS).copy()
        c_hat = 1.0
    nodes.setflags(write=False)
    return ElementPair(kind=kind, dim=dim, n_loc=len(nodes), nodes=nodes, c_hat=c_hat)


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-cell quadrature: positive weights summing to the cell volume."""

    kind: str
    degree: int
    points: np.ndarray
    weights: np.ndarray


def _gauss(m, a=0):
    """Gauss nodes/weights on (-1, 1) for the weight (1-x)^a: Legendre at a=0."""
    # imported here: loading the package and evaluating a model need no scipy
    from scipy.special import roots_jacobi, roots_legendre

    return roots_legendre(m) if a == 0 else roots_jacobi(m, a, 0.0)


def _gauss_jacobi_01(m, a):
    """Nodes/weights on (0, 1) integrating (1-u)^a g(u) exactly for deg g <= 2m-1."""
    x, w = _gauss(m, a)
    return (x + 1.0) / 2.0, w / 2.0 ** (a + 1)


def _simplex_rule(dim, degree):
    """Conical-product rule on the unit simplex, exact to `degree`.

    Iterated substitution x_i = u_i * prod_{j<i} (1 - u_j) turns the simplex
    integral into a product of weighted 1D integrals with weights
    (1-u_i)^(dim-i); Gauss-Jacobi handles each factor with positive weights.
    """
    m = (degree + 2) // 2
    axes = [_gauss_jacobi_01(m, dim - 1 - k) for k in range(dim)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    pts = np.empty_like(u)
    scale = np.ones(len(u))
    for k in range(dim):
        pts[:, k] = u[:, k] * scale
        scale = scale * (1.0 - u[:, k])
    return pts, w


def _box_rule(dim, degree):
    """Tensor Gauss-Legendre rule on (-1, 1)^dim, exact to `degree` per axis."""
    x, w = _gauss((degree + 2) // 2)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return pts, wts


def quadrature(kind, degree):
    """Quadrature rule on a reference cell, exact for polynomials to `degree`.

    The Gauss roots come from scipy.special, imported on the first call.
    Assembly and the quadrature-based norms call this; building a mesh and
    evaluating a model do not.
    """
    if kind not in CELL_DIMS:
        raise ValueError(f"unsupported element kind {kind!r}")
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise ValueError(f"quadrature degree must be a positive integer, got {degree!r}")
    dim = CELL_DIMS[kind]
    if kind in SIMPLEX_CELLS:
        pts, wts = _simplex_rule(dim, degree)
    else:
        pts, wts = _box_rule(dim, degree)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(kind=kind, degree=int(degree), points=pts, weights=wts)
