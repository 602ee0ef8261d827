"""Structured meshes of simplices or axis-aligned parallelotopes in 2D/3D.

Meshes are built over an axis-aligned box domain by splitting a tensor grid
of cells. Parallelotope meshes keep the grid cells; simplex meshes split
each cell into 2 triangles (2D) or 6 tetrahedra (3D, Kuhn split). All
element maps are affine: x = origin_T + J_T @ xhat, with xhat in the unit
simplex or in (-1, 1)^d.

Meshes are immutable after construction and safe to share across threads.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .elements import make_element_pair
from .errors import DataFormatError, OutOfDomainError

KINDS = ("simplex", "parallelotope")

# Kuhn split of the unit cube: one tet per permutation of the axes, walking
# from corner 0 to corner 7; vertices are re-ordered where needed so every
# affine map has positive determinant.
_KUHN_PERMS = list(itertools.permutations(range(3)))


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box domain [lower, upper] in R^d, d in {2, 3}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("domain corners must be 1D arrays of equal length")
        if lo.size not in (2, 3):
            raise ValueError(f"domain dimension must be 2 or 3, got {lo.size}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("domain corners must be finite")
        if not np.all(hi > lo):
            raise ValueError("domain upper corner must exceed lower corner componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.size

    @property
    def extents(self):
        return self.upper - self.lower

    @property
    def volume(self):
        return float(np.prod(self.extents))


class Mesh:
    """Conforming structured mesh with per-element affine geometry.

    Attributes
    ----------
    dim : int
    kind : str
        'simplex' or 'parallelotope'.
    cell_kind : str
        Reference cell name: 'triangle', 'tet', 'quad' or 'hex'.
    vertices : ndarray (n_vertices, dim)
    elements : ndarray (n_elements, n_loc) int
    h : float
        Max element diameter: the diagonal of a grid cell, which every
        element of the grid spans (a cell, or a simplex holding its main
        diagonal).
    """

    def __init__(self, domain, cells_per_axis, kind, vertices, elements):
        if kind not in KINDS:
            raise ValueError(f"unknown mesh kind {kind!r}")
        self.domain = domain
        self.cells_per_axis = tuple(int(c) for c in cells_per_axis)
        self.h = float(np.linalg.norm(domain.extents / np.asarray(self.cells_per_axis)))
        self.kind = kind
        self.dim = domain.dim
        self.cell_kind = _cell_kind(kind, self.dim)
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        self.n_vertices = len(self.vertices)
        self.n_elements = len(self.elements)
        if self.elements.ndim != 2 or (
            self.n_elements and (self.elements.min() < 0
                                 or self.elements.max() >= self.n_vertices)
        ):
            raise ValueError("element connectivity indexes nonexistent vertices")
        self._pair = make_element_pair(self.cell_kind)
        self._build_geometry()
        self.vertices.setflags(write=False)
        self.elements.setflags(write=False)

    # -- construction helpers -------------------------------------------

    def _build_geometry(self):
        verts = self.vertices[self.elements]  # (ne, nl, d)
        d = self.dim
        if self.kind == "simplex":
            origin = verts[:, 0, :]
            jac = np.stack([verts[:, k + 1, :] - origin for k in range(d)], axis=2)
            ref_vol = 1.0 / np.prod(np.arange(1, d + 1))
        else:
            # parallelotope corners: affine map from (-1,1)^d
            origin = verts.mean(axis=1)
            axis_corner = [1, 3, 4]  # corners sharing an edge with corner 0
            jac = np.stack(
                [(verts[:, axis_corner[k], :] - verts[:, 0, :]) / 2.0 for k in range(d)],
                axis=2,
            )
            ref_vol = 2.0 ** d
        det = np.linalg.det(jac)
        if np.any(det <= 0):
            raise ValueError("mesh contains an element with nonpositive volume")
        self.element_origin = origin
        self.jacobians = jac
        self.inv_jacobians = np.linalg.inv(jac)
        self.det_jacobians = det
        self.volumes = det * ref_vol
        for arr in (self.element_origin, self.jacobians, self.inv_jacobians,
                    self.det_jacobians, self.volumes):
            arr.setflags(write=False)

    # -- queries ---------------------------------------------------------

    @property
    def element_pair(self):
        return self._pair

    def map_to_physical(self, elem_ids, ref_points):
        """F_T(xhat) for per-point element ids; both arrays length m."""
        eid = np.asarray(elem_ids, dtype=np.int64)
        ref = np.atleast_2d(np.asarray(ref_points, dtype=float))
        return self.element_origin[eid] + np.einsum(
            "mkd,md->mk", self.jacobians[eid], ref
        )

    def map_to_reference(self, elem_ids, points):
        """Inverse affine map, per-point element ids."""
        eid = np.asarray(elem_ids, dtype=np.int64)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum(
            "mdk,mk->md", self.inv_jacobians[eid], pts - self.element_origin[eid]
        )

    def __repr__(self):
        cells = "x".join(str(c) for c in self.cells_per_axis)
        return (f"Mesh({self.kind}, {self.dim}D, cells={cells}, "
                f"{self.n_elements} elements, {self.n_vertices} vertices, h={self.h:.4g})")


def _cell_kind(kind, dim):
    if kind == "simplex":
        return "triangle" if dim == 2 else "tet"
    return "quad" if dim == 2 else "hex"


def build_structured_mesh(domain, cells_per_axis, kind):
    """Mesh an axis-aligned box with a structured grid of cells.

    Parameters
    ----------
    domain : Domain
    cells_per_axis : sequence of int, length d, all >= 1
    kind : str
        'parallelotope' keeps the grid cells; 'simplex' splits every cell
        into 2 triangles (2D) or 6 tetrahedra (3D).
    """
    cells = tuple(int(c) for c in cells_per_axis)
    if len(cells) != domain.dim:
        raise ValueError("cells_per_axis length must match domain dimension")
    if any(c < 1 for c in cells):
        raise ValueError(f"cells_per_axis must all be >= 1, got {cells}")
    d = domain.dim
    axes = [np.linspace(domain.lower[k], domain.upper[k], cells[k] + 1) for k in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    vertices = np.stack([g.ravel() for g in grids], axis=1)

    nv = [cells[k] + 1 for k in range(d)]

    def vid(idx):
        # flat vertex id from d-index (ij indexing, x fastest-varying last)
        out = idx[0]
        for k in range(1, d):
            out = out * nv[k] + idx[k]
        return out

    cell_ranges = [np.arange(c) for c in cells]
    cgrid = np.meshgrid(*cell_ranges, indexing="ij")
    cidx = np.stack([g.ravel() for g in cgrid], axis=1)  # (ncells, d)

    if d == 2:
        i, j = cidx[:, 0], cidx[:, 1]
        v00 = vid((i, j))
        v10 = vid((i + 1, j))
        v11 = vid((i + 1, j + 1))
        v01 = vid((i, j + 1))
        if kind == "parallelotope":
            elements = np.stack([v00, v10, v11, v01], axis=1)
        else:
            tri1 = np.stack([v00, v10, v11], axis=1)
            tri2 = np.stack([v00, v11, v01], axis=1)
            elements = np.empty((2 * len(cidx), 3), dtype=np.int64)
            elements[0::2] = tri1
            elements[1::2] = tri2
    else:
        i, j, k = cidx[:, 0], cidx[:, 1], cidx[:, 2]
        corners = {}
        for di, dj, dk in itertools.product((0, 1), repeat=3):
            corners[(di, dj, dk)] = vid((i + di, j + dj, k + dk))
        if kind == "parallelotope":
            elements = np.stack(
                [
                    corners[0, 0, 0], corners[1, 0, 0], corners[1, 1, 0], corners[0, 1, 0],
                    corners[0, 0, 1], corners[1, 0, 1], corners[1, 1, 1], corners[0, 1, 1],
                ],
                axis=1,
            )
        else:
            tets = []
            for perm in _KUHN_PERMS:
                walk = [(0, 0, 0)]
                cur = [0, 0, 0]
                for axis in perm:
                    cur = cur.copy()
                    cur[axis] += 1
                    walk.append(tuple(cur))
                # odd permutations give a negative determinant; swap to fix
                sign = _perm_sign(perm)
                if sign < 0:
                    walk[1], walk[2] = walk[2], walk[1]
                tets.append(np.stack([corners[w] for w in walk], axis=1))
            elements = np.empty((6 * len(cidx), 4), dtype=np.int64)
            for t, tet in enumerate(tets):
                elements[t::6] = tet
    return Mesh(domain, cells, kind, vertices, elements)


def _perm_sign(perm):
    sign = 1
    p = list(perm)
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            if p[a] > p[b]:
                sign = -sign
    return sign


def refine_uniform(mesh):
    """Halve every grid cell; h drops by exactly 2 on structured meshes."""
    cells = tuple(2 * c for c in mesh.cells_per_axis)
    return build_structured_mesh(mesh.domain, cells, mesh.kind)


# -- point location -------------------------------------------------------

# A point belongs to an element when its reference coordinates lie in the
# reference cell up to this tolerance.
_REF_TOL = 1e-10


def locate_points(mesh, points):
    """Find the containing element and reference coordinates of each point.

    Location is closed form on the structured grid. frac is a point's
    coordinate in cell widths from the domain's lower corner, and cell_tol
    is the reference-cell tolerance in cell widths. The cell on each axis
    is clip(ceil(frac - cell_tol) - 1, 0, cells - 1), so a point on grid
    plane b goes to cell b - 1. In a simplex cell, the sub-simplex is the
    first, in element order, whose axis order y_p0 >= y_p1 >= ... holds up
    to cell_tol for the local coordinates y = frac - cell. Together the two
    rules give a point on shared faces or vertices the smallest containing
    element id, one axis at a time. Raises OutOfDomainError (with offending
    indices) for points outside the closed domain or with a non-finite
    coordinate.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != mesh.dim:
        raise ValueError("point dimension does not match mesh dimension")
    dom = mesh.domain
    tol = 1e-12 * float(dom.extents.max())
    # Every comparison with NaN is false, so test finiteness on its own.
    bad = np.nonzero(
        ~np.isfinite(pts).all(axis=1)
        | (pts < dom.lower - tol).any(axis=1) | (pts > dom.upper + tol).any(axis=1)
    )[0]
    if bad.size:
        raise OutOfDomainError(
            f"{bad.size} point(s) outside the domain or not finite "
            f"(first at index {bad[0]})",
            indices=bad,
        )
    cells = np.asarray(mesh.cells_per_axis)
    frac = (pts - dom.lower) / (dom.extents / cells)
    # A simplex's reference coordinates are differences of the local
    # coordinates y, a parallelotope's are 2 y - 1.
    cell_tol = _REF_TOL if mesh.kind == "simplex" else _REF_TOL / 2.0
    cell = np.clip(np.ceil(frac - cell_tol).astype(np.int64) - 1, 0, cells - 1)
    eids = _flat_cell(mesh, cell)
    if mesh.kind == "simplex":
        # A cell's simplices, in element order, hold y_p0 >= y_p1 >= ... for
        # the axis orders p of permutations(range(d)) (_KUHN_PERMS in 3D).
        # The descending order of y always holds, so argmax finds one.
        y = frac - cell
        perms = list(itertools.permutations(range(mesh.dim)))
        holds = np.stack([(y[:, p[:-1]] - y[:, p[1:]] >= -cell_tol).all(axis=1)
                          for p in perms], axis=1)
        eids = eids * len(perms) + np.argmax(holds, axis=1)
    return eids, mesh.map_to_reference(eids, pts)


def _flat_cell(mesh, cidx):
    cells = mesh.cells_per_axis
    out = cidx[..., 0]
    for k in range(1, mesh.dim):
        out = out * cells[k] + cidx[..., k]
    return out


# -- persistence -----------------------------------------------------------

def mesh_to_dict(mesh):
    """JSON-ready description of the structured grid: kind, dim, domain, cells.

    The grid fixes the mesh, so no vertices or elements are stored;
    `mesh_from_dict` rebuilds them with `build_structured_mesh`.
    """
    return {
        "kind": mesh.kind,
        "dim": mesh.dim,
        "structured": {
            "lower": mesh.domain.lower.tolist(),
            "upper": mesh.domain.upper.tolist(),
            "cells_per_axis": list(mesh.cells_per_axis),
        },
    }


def grid_from_dict(data):
    """Validated (domain, cells, kind) of a `mesh_to_dict` description.

    Checks the description without building the mesh: a known kind, a 2D
    or 3D box with finite corners and lower < upper on every axis, and dim
    integer cell counts >= 1. Older descriptions that also list vertices
    and elements are read the same way; those lists are ignored. Raises
    DataFormatError.
    """
    if not isinstance(data, dict):
        raise DataFormatError("mesh description must be a JSON object")
    try:
        kind, dim, grid = data["kind"], data["dim"], data["structured"]
        lower = np.asarray(grid["lower"], dtype=float)
        upper = np.asarray(grid["upper"], dtype=float)
        cells = grid["cells_per_axis"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid mesh description: {exc}") from exc
    if kind not in KINDS:
        raise DataFormatError(f"unknown mesh kind {kind!r}")
    if dim not in (2, 3):
        raise DataFormatError(f"mesh dim must be 2 or 3, got {dim!r}")
    if lower.shape != (dim,) or upper.shape != (dim,):
        raise DataFormatError(f"mesh lower and upper must hold {dim} numbers")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all() and (lower < upper).all()):
        raise DataFormatError("mesh lower and upper must be finite with lower < upper")
    if not (isinstance(cells, list) and len(cells) == dim and all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 1 for c in cells)):
        raise DataFormatError(
            f"mesh cells_per_axis must hold {dim} integers >= 1, got {cells!r}"
        )
    return Domain(lower, upper), tuple(cells), kind


def mesh_from_dict(data):
    """Rebuild the mesh of a `mesh_to_dict` description (see `grid_from_dict`)."""
    return build_structured_mesh(*grid_from_dict(data))
