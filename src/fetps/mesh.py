"""Structured meshes of simplices or axis-aligned parallelotopes in 2D/3D.

A mesh is built only from a grid: an axis-aligned box domain split into a
tensor grid of cells. Every cell is split the same way, by one cell
pattern: parallelotope meshes keep the grid cells; simplex meshes split
each cell into 2 triangles (2D) or 6 tetrahedra (3D, Kuhn split). Elements
of the same pattern entry (type) are translates of each other, so the
geometry is computed and stored once per type: element e has type
e mod T, T the number of elements per cell. All element maps are affine,
measured from the element's first vertex: x = x_e0 + J_t (xhat - xhat_0),
with xhat in the unit simplex or in (-1, 1)^d and xhat_0 the reference
node of that vertex.

Meshes are immutable after construction and safe to share across threads.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .elements import make_element_pair
from .errors import DataFormatError, OutOfDomainError

KINDS = ("simplex", "parallelotope")


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


def _axis_orders(dim):
    """Axis orders of the Kuhn simplices of a cell, in element order."""
    return list(itertools.permutations(range(dim)))


def _cell_pattern(kind, nodes):
    """Corner offsets in {0, 1}^d of the elements of one grid cell.

    Returns (elements per cell, n_loc, d) int. A parallelotope is the cell
    itself, its corners in the order of the reference nodes. The simplices
    walk from corner 0 to the far corner, one step along each axis in the
    order of `_axis_orders`; where that walk has negative orientation,
    vertices 1 and 2 are swapped.
    """
    d = nodes.shape[1]
    if kind == "parallelotope":
        return ((nodes[None] + 1) // 2).astype(np.int64)
    steps = np.eye(d, dtype=np.int64)[_axis_orders(d)]
    walks = np.concatenate([np.zeros((len(steps), 1, d), np.int64),
                            np.cumsum(steps, axis=1)], axis=1)
    flip = np.linalg.det(steps) < 0
    swap = np.r_[0, 2, 1, 3:d + 1]
    walks[flip] = walks[flip][:, swap]
    return walks


class Mesh:
    """Structured mesh of a grid over a box, with per-type affine geometry.

    Cell c of the grid (flat in C order) owns the elements
    c * T .. c * T + T - 1, one per entry of the cell pattern of T = 1, 2
    or 6 element types; `cell_elements` gives those ids. The geometry is a
    table with one row per type; `per_element` gives an element's row.

    Attributes
    ----------
    dim : int
    kind : str
        'simplex' or 'parallelotope'.
    cell_kind : str
        Reference cell name: 'triangle', 'tet', 'quad' or 'hex'.
    vertices : ndarray (n_vertices, dim)
    elements : ndarray (n_elements, n_loc) int
    jacobians, inv_jacobians : ndarray (T, dim, dim)
        J_t and its inverse for each element type t.
    det_jacobians : ndarray (T,)
    h : float
        Max element diameter: the diagonal of a grid cell, which every
        element of the grid spans (a cell, or a simplex holding its main
        diagonal).
    """

    def __init__(self, domain, cells_per_axis, kind):
        if kind not in KINDS:
            raise ValueError(f"unknown mesh kind {kind!r}")
        cells = tuple(int(c) for c in cells_per_axis)
        if len(cells) != domain.dim:
            raise ValueError("cells_per_axis length must match domain dimension")
        if any(c < 1 for c in cells):
            raise ValueError(f"cells_per_axis must all be >= 1, got {cells}")
        d = domain.dim
        self.domain = domain
        self.cells_per_axis = cells
        self.kind = kind
        self.dim = d
        self.cell_kind = _cell_kind(kind, d)
        self._pair = make_element_pair(self.cell_kind)
        width = domain.extents / np.asarray(cells)
        self.h = float(np.linalg.norm(width))

        shape = np.asarray(cells) + 1
        axes = [np.linspace(domain.lower[k], domain.upper[k], shape[k]) for k in range(d)]
        self.vertices = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        pattern = _cell_pattern(kind, self._pair.nodes)
        self._per_cell = len(pattern)
        base = np.ravel_multi_index(np.indices(cells).reshape(d, -1), shape)
        corner = np.ravel_multi_index(np.moveaxis(pattern, -1, 0), shape)
        self.elements = (base[:, None, None] + corner).reshape(-1, pattern.shape[1])
        self.n_vertices = len(self.vertices)
        self.n_elements = len(self.elements)

        # J_t = diag(width) M_t, where xhat -> corner offsets is affine with
        # linear part M_t: simplex column k is corner k+1 - corner 0; a
        # parallelotope maps (-1, 1)^d onto the cell, M = I / 2.
        if kind == "simplex":
            unit = (pattern[:, 1:] - pattern[:, :1]).swapaxes(1, 2)
        else:
            unit = np.eye(d)[None] / 2.0
        self.jacobians = width[:, None] * unit
        self.inv_jacobians = np.linalg.inv(self.jacobians)
        self.det_jacobians = np.linalg.det(self.jacobians)
        for arr in (self.vertices, self.elements, self.jacobians,
                    self.inv_jacobians, self.det_jacobians):
            arr.setflags(write=False)

    # -- queries ---------------------------------------------------------

    @property
    def element_pair(self):
        return self._pair

    def cell_elements(self, cell_index):
        """Element ids of the grid cells at multi-indices cell_index (..., d).

        Returns (..., per_cell): the cell's elements in cell-pattern order.
        """
        first = self._per_cell * np.ravel_multi_index(
            np.moveaxis(np.asarray(cell_index), -1, 0), self.cells_per_axis)
        # summed with the cells on the last axis, which numpy loops over fastest
        return np.moveaxis(np.add.outer(np.arange(self._per_cell), first), 0, -1)

    def per_element(self, table, elem_ids=None):
        """Rows of a per-type table (T, ...) for every element, or for elem_ids."""
        eid = np.arange(self.n_elements) if elem_ids is None else np.asarray(elem_ids)
        return table[eid % self._per_cell]

    def map_to_reference(self, elem_ids, points):
        """xhat_0 + J_t^-1 (x - x_e0) for per-point element ids."""
        eid = np.asarray(elem_ids, dtype=np.int64)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        first = self.vertices[self.elements[eid, 0]]
        return self._pair.nodes[0] + np.einsum(
            "mdk,mk->md", self.per_element(self.inv_jacobians, eid), pts - first
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
    return Mesh(domain, cells_per_axis, kind)


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
    sub = np.zeros(len(pts), dtype=np.int64)
    if mesh.kind == "simplex":
        # A cell's simplices, in element order, hold y_p0 >= y_p1 >= ... for
        # the axis orders p of _axis_orders. The descending order of y
        # always holds, so argmax finds one.
        y = frac - cell
        holds = np.stack([(y[:, p[:-1]] - y[:, p[1:]] >= -cell_tol).all(axis=1)
                          for p in _axis_orders(mesh.dim)], axis=1)
        sub = np.argmax(holds, axis=1)
    eids = mesh.cell_elements(cell)[np.arange(len(pts)), sub]
    return eids, mesh.map_to_reference(eids, pts)


# -- persistence -----------------------------------------------------------

def mesh_to_dict(mesh):
    """JSON-ready description of the structured grid: kind, dim, domain, cells.

    The grid fixes the mesh, so no vertices or elements are stored;
    `build_structured_mesh(*grid_from_dict(d))` rebuilds them.
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
