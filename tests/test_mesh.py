import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_MESHES,
    Box,
    element_patch,
    element_volumes,
    map_to_physical,
    small_mesh,
)
from fetps.errors import DataFormatError, OutOfDomainError
from fetps.mesh import (
    _REF_TOL,
    Domain,
    build_structured_mesh,
    grid_from_dict,
    locate_points,
    mesh_to_dict,
    refine_uniform,
)


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        Domain(np.array([0.0]), np.array([1.0]))


@pytest.mark.parametrize("lower,upper", [
    ([0.0, 0.0], [1.0, np.inf]),
    ([-np.inf, 0.0], [1.0, 1.0]),
    ([0.0, np.nan], [1.0, 1.0]),
    ([0.0, 0.0, 0.0], [1.0, 1.0, np.nan]),
])
def test_domain_rejects_non_finite_corners(lower, upper):
    with pytest.raises(ValueError, match="finite"):
        Domain(np.array(lower), np.array(upper))


def test_smallest_simplex_split(unit_square):
    mesh = build_structured_mesh(unit_square, (1, 1), "simplex")
    assert mesh.n_elements == 2
    assert mesh.n_vertices == 4
    assert element_volumes(mesh).sum() == pytest.approx(1.0, abs=1e-14)


def test_parallelotope_counts_and_h(unit_square):
    mesh = build_structured_mesh(unit_square, (2, 2), "parallelotope")
    assert mesh.n_elements == 4
    assert mesh.n_vertices == 9
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-14)


@pytest.mark.parametrize("kind,box", SMALL_MESHES)
def test_h_is_max_element_diameter(kind, box):
    mesh = small_mesh(kind, box)
    verts = mesh.vertices[mesh.elements]
    diam = np.linalg.norm(verts[:, :, None, :] - verts[:, None, :, :], axis=3).max(axis=(1, 2))
    assert mesh.h == pytest.approx(diam.max(), rel=1e-15)


def test_kuhn_split_volumes(unit_cube):
    mesh = build_structured_mesh(unit_cube, (1, 1, 1), "simplex")
    assert mesh.n_elements == 6
    assert np.allclose(element_volumes(mesh), 1.0 / 6.0, atol=1e-14)
    assert (mesh.det_jacobians > 0).all()


# Model files store only the grid and the smallest-id tie-break of
# locate_points follows the element order, so the layout is fixed here.
@pytest.mark.parametrize("kind,cells,elements", [
    ("simplex", (2, 1), [[0, 2, 3], [0, 3, 1], [2, 4, 5], [2, 5, 3]]),
    ("simplex", (1, 1, 1), [[0, 4, 6, 7], [0, 5, 4, 7], [0, 6, 2, 7],
                            [0, 2, 3, 7], [0, 1, 5, 7], [0, 3, 1, 7]]),
    ("parallelotope", (2, 1), [[0, 2, 3, 1], [2, 4, 5, 3]]),
    ("parallelotope", (1, 1, 1), [[0, 4, 6, 2, 1, 5, 7, 3]]),
])
def test_element_layout_is_pinned(kind, cells, elements):
    dim = len(cells)
    mesh = build_structured_mesh(Domain(np.zeros(dim), np.ones(dim)), cells, kind)
    assert mesh.elements.tolist() == elements
    # cell c (flat in C order) owns the consecutive ids c * per_cell, ...
    every_cell = np.indices(cells).reshape(dim, -1).T
    assert np.array_equal(mesh.cell_elements(every_cell).ravel(), np.arange(len(elements)))


@pytest.mark.parametrize("kind,box", SMALL_MESHES)
def test_per_type_geometry_matches_connectivity(kind, box):
    mesh = small_mesh(kind, box)
    nodes = mesh.element_pair.nodes
    extent = float(mesh.domain.extents.max())
    for e in range(mesh.n_elements):
        mapped = map_to_physical(mesh, np.full(len(nodes), e), nodes)
        assert np.abs(mapped - mesh.vertices[mesh.elements[e]]).max() <= 1e-14 * extent
    assert (mesh.det_jacobians > 0).all()


@pytest.mark.parametrize("kind,box", SMALL_MESHES)
def test_per_element_geometry_matches_vertices(kind, box):
    # the geometry is stored once per element type; per_element repeats it
    mesh = small_mesh(kind, box)
    types = mesh.n_elements // np.prod(mesh.cells_per_axis)
    assert len(mesh.jacobians) == len(mesh.inv_jacobians) == len(mesh.det_jacobians) == types
    # x_a - x_0 = J (xhat_a - xhat_0) at every node a of every element
    nodes = mesh.element_pair.nodes
    corners = mesh.vertices[mesh.elements]
    jac = np.einsum("ja,eak->ekj", np.linalg.pinv(nodes[1:] - nodes[0]),
                    corners[:, 1:] - corners[:, :1])
    extent = float(mesh.domain.extents.max())
    assert np.abs(mesh.per_element(mesh.jacobians) - jac).max() <= 1e-14 * extent
    assert np.abs(mesh.per_element(mesh.inv_jacobians) @ jac - np.eye(mesh.dim)).max() <= 1e-13
    assert np.allclose(mesh.per_element(mesh.det_jacobians), np.linalg.det(jac),
                       rtol=1e-13, atol=0.0)
    eids = np.arange(mesh.n_elements)[::-3]
    assert np.array_equal(mesh.per_element(mesh.jacobians, eids),
                          mesh.per_element(mesh.jacobians)[eids])


def test_rejects_zero_cells(unit_square):
    with pytest.raises(ValueError):
        build_structured_mesh(unit_square, (0, 3), "simplex")


@pytest.mark.parametrize("kind", ["simplex", "parallelotope"])
@pytest.mark.parametrize("dim", [2, 3])
def test_covering_invariant(kind, dim):
    domain = Domain(np.full(dim, -0.5), np.array([2.0, 1.5, 1.0][:dim]))
    mesh = build_structured_mesh(domain, (3, 2, 2)[:dim], kind)
    volume = np.prod(domain.extents)
    assert element_volumes(mesh).sum() == pytest.approx(volume, rel=1e-12)
    fine = refine_uniform(mesh)
    assert element_volumes(fine).sum() == pytest.approx(volume, rel=1e-12)


def test_refine_counts_and_h(unit_square):
    mesh = build_structured_mesh(unit_square, (1, 1), "simplex")
    fine = refine_uniform(mesh)
    assert fine.n_elements == 8
    assert fine.h == pytest.approx(mesh.h / 2.0, abs=1e-15)


@pytest.mark.parametrize("kind,dim", [("simplex", 2), ("parallelotope", 2),
                                      ("simplex", 3), ("parallelotope", 3)])
def test_locate_round_trip(kind, dim, rng):
    domain = Domain(np.zeros(dim), np.ones(dim))
    mesh = build_structured_mesh(domain, (3,) * dim, kind)
    eids = rng.integers(0, mesh.n_elements, 60)
    if kind == "simplex":
        ref = rng.dirichlet(np.ones(dim + 1), size=60)[:, :dim]
    else:
        ref = rng.uniform(-0.95, 0.95, (60, dim))
    pts = map_to_physical(mesh, eids, ref)
    found, refs = locate_points(mesh, pts)
    assert (found == eids).all()
    assert np.abs(map_to_physical(mesh, found, refs) - pts).max() < 1e-12


def test_locate_cell_center_element_zero(unit_square):
    mesh = build_structured_mesh(unit_square, (4, 4), "simplex")
    centroid = mesh.vertices[mesh.elements[0]].mean(axis=0)
    eids, refs = locate_points(mesh, centroid)
    assert eids.tolist() == [0]
    assert np.allclose(refs[0], [1.0 / 3.0, 1.0 / 3.0], atol=1e-13)


def test_locate_vertex_tie_breaks_to_smallest_id(unit_square):
    mesh = build_structured_mesh(unit_square, (4, 4), "simplex")
    # brute-force the containing set for an interior vertex
    x = np.array([0.5, 0.5])
    containing = []
    for e in range(mesh.n_elements):
        ref = mesh.map_to_reference(np.array([e]), x[None, :])[0]
        if ref.min() >= -1e-10 and ref.sum() <= 1 + 1e-10:
            containing.append(e)
    eids, _ = locate_points(mesh, x)
    assert eids.tolist() == [min(containing)]
    # shared-edge midpoints resolve the same way
    mids = (mesh.vertices[mesh.elements[:, 0]] + mesh.vertices[mesh.elements[:, 1]]) / 2.0
    eids, refs = locate_points(mesh, mids)
    back = map_to_physical(mesh, eids, refs)
    assert np.abs(back - mids).max() < 1e-12


def test_locate_outside_raises(unit_square):
    mesh = build_structured_mesh(unit_square, (2, 2), "simplex")
    with pytest.raises(OutOfDomainError) as err:
        locate_points(mesh, np.array([[0.5, 0.5], [1.5, 0.5]]))
    assert err.value.indices == [1]


@pytest.mark.parametrize("kind", ["simplex", "parallelotope"])
def test_locate_rejects_non_finite_points(kind, unit_square):
    # every comparison with NaN is false, so NaN passes a bounds test alone
    mesh = build_structured_mesh(unit_square, (2, 2), kind)
    pts = np.array([[0.5, 0.5], [np.nan, 0.5], [0.2, np.inf], [-np.inf, 0.1], [0.3, 0.3]])
    with pytest.raises(OutOfDomainError) as err:
        locate_points(mesh, pts)
    assert list(err.value.indices) == [1, 2, 3]


def brute_locate(mesh, pts):
    """Smallest id of an element holding each point, over all elements."""
    eids = np.full(len(pts), -1)
    for e in range(mesh.n_elements):
        ref = mesh.map_to_reference(np.full(len(pts), e), pts)
        if mesh.kind == "simplex":
            inside = (ref.min(axis=1) >= -_REF_TOL) & (ref.sum(axis=1) <= 1.0 + _REF_TOL)
        else:
            inside = np.abs(ref).max(axis=1) <= 1.0 + _REF_TOL
        eids[(eids < 0) & inside] = e
    assert (eids >= 0).all()
    return eids


def location_probes(mesh, rng):
    """Random points plus the points where elements meet.

    Means of every subset of an element's vertices (the vertices, edge
    midpoints, face and cell centroids among them), a half-cell raster,
    points on the upper boundary, and the raster moved 1e-12 cell widths
    off the grid planes in both directions.
    """
    lo, hi = mesh.domain.lower, mesh.domain.upper
    width = mesh.domain.extents / np.asarray(mesh.cells_per_axis)
    corners = mesh.vertices[mesh.elements]
    n_loc = corners.shape[1]
    subsets = [corners[:, list(c)].mean(axis=1)
               for r in range(1, n_loc + 1)
               for c in itertools.combinations(range(n_loc), r)]
    axes = [np.linspace(lo[k], hi[k], 2 * c + 1)
            for k, c in enumerate(mesh.cells_per_axis)]
    raster = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, mesh.dim)
    upper = rng.uniform(lo, hi, (40, mesh.dim))
    axis = rng.integers(0, mesh.dim, 40)
    upper[np.arange(40), axis] = hi[axis]
    off = [np.clip(raster + sign * 1e-12 * width * rng.integers(0, 2, raster.shape), lo, hi)
           for sign in (-1.0, 1.0)]
    return np.concatenate(
        [rng.uniform(lo, hi, (200, mesh.dim)), *subsets, raster, upper, *off])


def assert_locates_like_brute_force(mesh, rng):
    pts = location_probes(mesh, rng)
    eids, refs = locate_points(mesh, pts)
    assert np.array_equal(eids, brute_locate(mesh, pts))
    assert np.abs(map_to_physical(mesh, eids, refs) - pts).max() < 1e-12


LOCATE_BOXES = list(dict.fromkeys(box for _, box in SMALL_MESHES)) + [Box((1, 1))]


@pytest.mark.parametrize("box", LOCATE_BOXES)
@pytest.mark.parametrize("kind", ["simplex", "parallelotope"])
def test_locate_matches_brute_force(kind, box, rng):
    assert_locates_like_brute_force(small_mesh(kind, box), rng)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["simplex", "parallelotope"]),
       cells=st.lists(st.integers(1, 4), min_size=2, max_size=3),
       lower=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       extents=st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_locate_matches_brute_force_on_random_boxes(kind, cells, lower, extents, seed):
    dim = len(cells)
    lo = np.asarray(lower[:dim])
    mesh = build_structured_mesh(Domain(lo, lo + np.asarray(extents[:dim])), cells, kind)
    assert_locates_like_brute_force(mesh, np.random.default_rng(seed))


@pytest.mark.parametrize("kind", ["simplex", "parallelotope"])
def test_locate_accepts_points_within_domain_tolerance(kind, unit_square):
    # 1e-12 of the extent is more than the reference tolerance in cell
    # widths at 128 cells; such points pass the domain check, so they must
    # locate in the boundary cell.
    mesh = build_structured_mesh(unit_square, (128, 128), kind)
    pts = np.array([[1.0 + 0.9e-12, 0.5], [0.25, -0.9e-12], [1.0 + 0.9e-12] * 2])
    eids, refs = locate_points(mesh, pts)
    assert np.abs(map_to_physical(mesh, eids, refs) - pts).max() < 1e-15
    assert np.array_equal(eids, locate_points(mesh, np.clip(pts, 0.0, 1.0))[0])


def brute_patch(mesh, eid):
    vc = mesh.vertices[mesh.elements[eid]]
    members = []
    for e in range(mesh.n_elements):
        ve = mesh.vertices[mesh.elements[e]]
        d = np.linalg.norm(vc[:, None, :] - ve[None, :, :], axis=2)
        if d.min() < 1e-12:
            members.append(e)
    return members


@pytest.mark.parametrize("kind,cells", [("simplex", (4, 4)), ("parallelotope", (5, 4)),
                                        ("simplex", (2, 2, 2))])
def test_patch_matches_brute_force(kind, cells):
    dim = len(cells)
    domain = Domain(np.zeros(dim), np.ones(dim))
    mesh = build_structured_mesh(domain, cells, kind)
    assert mesh.n_elements <= 200
    for e in range(mesh.n_elements):
        assert list(element_patch(mesh, e).members) == brute_patch(mesh, e)


def test_interior_triangle_patch_has_13_members(unit_square):
    mesh = build_structured_mesh(unit_square, (4, 4), "simplex")
    sizes = [len(element_patch(mesh, e).members) for e in range(mesh.n_elements)]
    assert max(sizes) == 13
    interior = [e for e in range(mesh.n_elements)
                if len(element_patch(mesh, e).members) == 13]
    assert interior  # the 4x4 grid has interior triangles


def test_corner_cell_patch_is_both_triangles(unit_square):
    mesh = build_structured_mesh(unit_square, (1, 1), "simplex")
    assert element_patch(mesh, 0).members == (0, 1)
    assert element_patch(mesh, 1).members == (0, 1)


def test_patch_symmetry(unit_square):
    mesh = build_structured_mesh(unit_square, (3, 3), "simplex")
    for t in range(mesh.n_elements):
        for t2 in element_patch(mesh, t).members:
            assert t in element_patch(mesh, t2).members


def test_patch_invalid_id(unit_square):
    mesh = build_structured_mesh(unit_square, (1, 1), "simplex")
    with pytest.raises(ValueError):
        element_patch(mesh, 99)


def test_json_round_trip(unit_cube):
    mesh = build_structured_mesh(unit_cube, (2, 1, 2), "parallelotope")
    text = json.dumps(mesh_to_dict(mesh))
    assert set(json.loads(text)) == {"kind", "dim", "structured"}
    loaded = build_structured_mesh(*grid_from_dict(json.loads(text)))
    assert loaded.kind == mesh.kind
    assert np.array_equal(loaded.elements, mesh.elements)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    fine = refine_uniform(loaded)
    assert fine.n_elements == 8 * mesh.n_elements


def test_json_dict_rejects_garbage():
    with pytest.raises(DataFormatError):
        grid_from_dict({"kind": "simplex"})


def grid_dict(**changes):
    grid = {"lower": [0.0, 0.0], "upper": [1.0, 2.0], "cells_per_axis": [2, 3]}
    return {"kind": "simplex", "dim": 2, "structured": {**grid, **changes}}


@pytest.mark.parametrize("data", [
    pytest.param([1, 2], id="not-an-object"),
    pytest.param({**grid_dict(), "kind": "prism"}, id="unknown-kind"),
    pytest.param({**grid_dict(), "dim": 4}, id="dim-4"),
    pytest.param(grid_dict(cells_per_axis=[2]), id="cells-too-few"),
    pytest.param(grid_dict(cells_per_axis=[2, 0]), id="cells-zero"),
    pytest.param(grid_dict(cells_per_axis=[2, 1.5]), id="cells-fraction"),
    pytest.param(grid_dict(cells_per_axis="23"), id="cells-string"),
    pytest.param(grid_dict(upper=[1.0, 0.0]), id="upper-equals-lower"),
    pytest.param(grid_dict(upper=[1.0, float("inf")]), id="upper-infinite"),
    pytest.param(grid_dict(lower=[0.0, 0.0, 0.0]), id="lower-3d"),
    pytest.param(grid_dict(lower=["a", 0.0]), id="lower-not-numbers"),
])
def test_mesh_from_dict_rejects_bad_grids(data):
    with pytest.raises(DataFormatError):
        grid_from_dict(data)
