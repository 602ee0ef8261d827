import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    OFFSET_2D,
    OFFSET_3D,
    SMALL_MESHES,
    TILED_MESHES,
    Box,
    assert_biorthogonal,
    brute_force_matrix,
    element_volumes,
    grad_dual_kernel,
    grad_primal_kernel,
    gram_kernel,
    mass_kernel,
    small_mesh,
    stiffness_kernel,
    whole_mesh_blocks,
)
from fetps.assembly import (
    ScatteredData,
    assemble_data_term,
    assemble_gram_diagonal,
    assemble_gram_full,
    assemble_grad_coupling,
    assemble_mass,
    assemble_stiffness,
    assemble_system,
    dual_basis,
    evaluation_matrix,
)
from fetps.errors import OutOfDomainError
from fetps.mesh import Domain, build_structured_mesh, locate_points, refine_uniform
from fetps.smoother import lagrange_interpolate


@pytest.mark.parametrize("kind,cells", SMALL_MESHES)
def test_stiffness_matches_brute_force(kind, cells):
    mesh = small_mesh(kind, cells)
    assert mesh.n_vertices <= 50
    K = assemble_stiffness(mesh).toarray()
    oracle = brute_force_matrix(mesh, stiffness_kernel)
    assert np.abs(K - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("kind,cells", SMALL_MESHES)
def test_mass_matches_brute_force(kind, cells):
    mesh = small_mesh(kind, cells)
    M = assemble_mass(mesh).toarray()
    oracle = brute_force_matrix(mesh, mass_kernel)
    assert np.abs(M - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("kind,cells", SMALL_MESHES)
def test_gram_matches_brute_force(kind, cells):
    mesh = small_mesh(kind, cells)
    G = assemble_gram_full(mesh).toarray()
    oracle = brute_force_matrix(mesh, gram_kernel)
    assert np.abs(G - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("kind,cells", SMALL_MESHES)
def test_grad_couplings_match_brute_force(kind, cells):
    # the oracle integrates each dual element dual by element dual, with the
    # weights of `dual_basis`
    mesh = small_mesh(kind, cells)
    dual = dual_basis(mesh)
    B = assemble_grad_coupling(mesh, test="dual")
    W = assemble_grad_coupling(mesh, test="primal")
    for k in range(mesh.dim):
        ob = brute_force_matrix(mesh, grad_dual_kernel(k), dual=dual)
        ow = brute_force_matrix(mesh, grad_primal_kernel(k))
        scale = max(np.abs(ob).max(), np.abs(ow).max())
        assert np.abs(B[k].toarray() - ob).max() <= 1e-12 * scale
        assert np.abs(W[k].toarray() - ow).max() <= 1e-12 * scale


def test_stiffness_kernel_contains_constants(unit_square):
    mesh = build_structured_mesh(unit_square, (5, 4), "simplex")
    K = assemble_stiffness(mesh)
    assert np.abs(K @ np.ones(mesh.n_vertices)).max() < 1e-12
    assert np.abs((K - K.T).toarray()).max() < 1e-14


def test_two_triangle_stiffness_hand_values(unit_square):
    # exact P1 stiffness of two unit right triangles sharing the diagonal:
    # per-triangle K_T = |T| * G G^T with constant gradients G
    mesh = build_structured_mesh(unit_square, (1, 1), "simplex")
    K = assemble_stiffness(mesh).toarray()
    oracle = np.zeros((4, 4))
    for e in range(2):
        verts = mesh.vertices[mesh.elements[e]]
        area = element_volumes(mesh)[e]
        J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        G = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ np.linalg.inv(J)
        loc = area * (G @ G.T)
        for a in range(3):
            for b in range(3):
                oracle[mesh.elements[e, a], mesh.elements[e, b]] += loc[a, b]
    assert np.allclose(K, oracle, atol=1e-14)
    # hand integration gives unit diagonal, -1/2 edge couplings, and zero
    # across the diagonal pair
    vals = sorted(set(np.round(K.ravel(), 12)))
    assert vals == [-0.5, 0.0, 1.0]
    assert np.allclose(np.diag(K), 1.0)


def test_stiffness_energy_converges_to_h1_seminorm(unit_square):
    # <K v, v> for interpolated smooth v approaches |v|_H1^2 = pi^2 / 2
    target = np.pi ** 2 / 2.0
    vfun = lambda p: np.sin(np.pi * p[:, 0])
    mesh = build_structured_mesh(unit_square, (4, 4), "simplex")
    errs = []
    for _ in range(3):
        v = lagrange_interpolate(mesh, vfun)
        K = assemble_stiffness(mesh)
        errs.append(abs(float(v @ (K @ v)) - target))
        mesh = refine_uniform(mesh)
    assert errs[0] > errs[1] > errs[2]
    # quadratic convergence: each refinement cuts the error by about 4
    assert errs[2] < 0.3 * errs[1] < 0.1 * errs[0]
    assert errs[2] < 0.005 * target


def test_mass_total_and_diagonal(unit_square):
    mesh = build_structured_mesh(unit_square, (1, 1), "simplex")
    M = assemble_mass(mesh).toarray()
    assert M.sum() == pytest.approx(1.0, abs=1e-13)
    # per-triangle P1 mass diag |T|/6; vertex 0 and the diagonal vertex sit
    # in both triangles
    counts = np.bincount(mesh.elements.ravel(), minlength=4)
    expect = counts * (0.5 / 6.0)
    assert np.allclose(np.diag(M), expect, atol=1e-14)
    assert sorted(np.diag(M)) == pytest.approx([1 / 12, 1 / 12, 1 / 6, 1 / 6])


def test_mass_spd(unit_square):
    mesh = build_structured_mesh(unit_square, (4, 4), "parallelotope")
    assert mesh.n_vertices <= 100
    w = np.linalg.eigvalsh(assemble_mass(mesh).toarray())
    assert w[0] > 0
    assert assemble_mass(mesh).sum() == pytest.approx(1.0, abs=1e-12)


def test_gram_diagonal_values_simplex(unit_square):
    mesh = build_structured_mesh(unit_square, (1, 1), "simplex")
    c = assemble_gram_diagonal(mesh)
    assert_biorthogonal(mesh, c)
    # corner vertices sit in one triangle of area 1/2: c = |T|/3 = 1/6
    counts = np.bincount(mesh.elements.ravel(), minlength=4)
    assert np.allclose(c, counts * (0.5 / 3.0), atol=1e-14)
    assert c.min() == pytest.approx(1.0 / 6.0)


def test_gram_diagonal_proportional_to_support(unit_square):
    for kind, divisor in (("simplex", 3.0), ("parallelotope", 4.0)):
        mesh = build_structured_mesh(unit_square, (4, 3), kind)
        c = assemble_gram_diagonal(mesh)
        assert_biorthogonal(mesh, c)
        support = np.zeros(mesh.n_vertices)
        for e, volume in enumerate(element_volumes(mesh)):
            support[mesh.elements[e]] += volume
        assert np.abs(c - support / divisor).max() < 1e-12 * support.max()


@pytest.mark.parametrize("kind,cells", SMALL_MESHES)
def test_gram_offdiagonal_vanishes(kind, cells):
    mesh = small_mesh(kind, cells)
    G = assemble_gram_full(mesh)
    diag = G.diagonal()
    off = G - sp.diags(diag)
    max_off = np.abs(off.data).max() if off.nnz else 0.0
    assert max_off < 1e-13 * diag.max()
    assert (diag > 0).all()


def test_grad_coupling_annihilates_constants(unit_square):
    mesh = build_structured_mesh(unit_square, (3, 3), "simplex")
    ones = np.ones(mesh.n_vertices)
    for k in range(2):
        assert np.abs(assemble_grad_coupling(mesh, "dual")[k] @ ones).max() < 1e-12
        assert np.abs(assemble_grad_coupling(mesh, "primal")[k] @ ones).max() < 1e-12


def test_grad_coupling_of_linear_gives_gram_diag(unit_square):
    # for v with grad v = e_k, (B_k v)_i = int mu_i = c_i
    mesh = build_structured_mesh(unit_square, (3, 2), "simplex")
    B = assemble_grad_coupling(mesh, "dual")
    c = assemble_gram_diagonal(mesh)
    for k, coord in enumerate(("x", "y")):
        v = mesh.vertices[:, k]
        assert np.abs(B[k] @ v - c).max() < 1e-13


def test_primal_coupling_column_sums(unit_square):
    # sum_i (W_k)_ij = int d_k phi_j by the primal partition of unity
    mesh = build_structured_mesh(unit_square, (2, 2), "simplex")
    W = assemble_grad_coupling(mesh, "primal")
    for k in range(2):
        colsums = np.asarray(W[k].sum(axis=0)).ravel()
        oracle = brute_force_matrix(mesh, grad_primal_kernel(k)).sum(axis=0)
        assert np.abs(colsums - oracle).max() < 1e-12


def test_grad_coupling_rejects_bad_test(unit_square):
    mesh = build_structured_mesh(unit_square, (1, 1), "simplex")
    with pytest.raises(ValueError):
        assemble_grad_coupling(mesh, test="mixed")


def strip_vertices(mesh, v):
    """Vertices of the cells of a boundary vertex's strip: the two cells
    inward along each boundary normal, the cells touching v elsewhere."""
    cells = np.asarray(mesh.cells_per_axis)
    g = np.unravel_index(v, cells + 1)
    axes = [range(0, 3) if gk == 0 else range(ck - 2, ck + 1) if gk == ck
            else range(gk - 1, gk + 2) for gk, ck in zip(g, cells)]
    return {int(np.ravel_multi_index(t, cells + 1)) for t in itertools.product(*axes)}


def on_boundary(mesh, cells):
    """Vertices on the boundary of the box, from their grid indices."""
    grid = np.stack(np.unravel_index(np.arange(mesh.n_vertices), np.asarray(cells) + 1), axis=1)
    return ((grid == 0) | (grid == cells)).any(axis=1)


@pytest.mark.parametrize("kind,cells", SMALL_MESHES)
def test_dual_and_primal_tests_share_support(kind, cells):
    # primal tests and interior duals live on the support of their nodal
    # partner, so their rows stay inside the mass pattern; a boundary dual
    # spans its strip, whose vertices reach two cells inward
    mesh = small_mesh(kind, cells)
    B = assemble_grad_coupling(mesh, "dual")
    W = assemble_grad_coupling(mesh, "primal")
    pm = set(zip(*assemble_mass(mesh).nonzero()))
    modified = on_boundary(mesh, cells.cells) & (min(cells.cells) >= 2)
    beyond_mass = False
    for k in range(mesh.dim):
        # entries can vanish by quadrature cancellation, so patterns are
        # compared by inclusion
        pb = set(zip(*B[k].nonzero()))
        assert set(zip(*W[k].nonzero())) <= pm
        assert {(i, j) for i, j in pb if not modified[i]} <= pm
        for i, j in pb:
            if modified[i]:
                assert j in strip_vertices(mesh, i), (i, j)
                beyond_mass |= (i, j) not in pm
    assert beyond_mass == modified.any()


def nodal_glue(mesh):
    """n x (E n_loc) matrix with a 1 at (elements[e, a], e n_loc + a)."""
    out = np.zeros((mesh.n_vertices, mesh.elements.size))
    out[mesh.elements.ravel(), np.arange(mesh.elements.size)] = 1.0
    return out


@pytest.mark.parametrize("kind,cells", SMALL_MESHES + [
    ("simplex", Box((2, 2, 2))), ("parallelotope", Box((3, 3, 2))),
])
def test_dual_basis_is_the_nodal_glue_off_the_boundary(kind, cells):
    # an interior dual is the sum of the element duals of its node; with a
    # single cell along some axis every dual is
    mesh = small_mesh(kind, cells)
    C = dual_basis(mesh).toarray()
    assert C.shape == (mesh.n_vertices, mesh.elements.size)
    standard = ~on_boundary(mesh, cells.cells) | (min(cells.cells) < 2)
    assert np.array_equal(C[standard], nodal_glue(mesh)[standard])
    # every boundary dual is modified
    assert (C[~standard] != nodal_glue(mesh)[~standard]).any(axis=1).all()


# The bench's fit2d and fit3d grids, wider than the reference grid, on
# which the tiled blocks are still the whole-mesh ones bit for bit
BENCH_GRIDS = [("simplex", Box((128, 128))), ("parallelotope", Box((16, 16, 16)))]


@pytest.mark.parametrize("kind,box", SMALL_MESHES + TILED_MESHES + [
    ("simplex", Box((1, 11))), ("simplex", Box((11, 1))),
] + BENCH_GRIDS)
def test_assemble_system_blocks_equal_public_assembly(kind, box, rng):
    # assemble_system tiles the mesh-only blocks from the reference grid; the
    # public calls element-assemble them on the whole mesh. A mesh that is
    # its own reference grid gets them bit for bit. A wider axis gets the
    # reference extent 6 (extent / c), whose cell width can round, so the
    # values agree up to rounding, and an entry that the whole-mesh product
    # leaves as rounding residue may be an exact zero, not stored, in the tile.
    mesh = small_mesh(kind, box)
    pts = mesh.domain.lower + mesh.domain.extents * rng.uniform(0.0, 1.0, (10, mesh.dim))
    blocks = assemble_system(mesh, ScatteredData(pts, pts[:, 0]))
    K, mass, c, B, W = whole_mesh_blocks(mesh)
    exact = max(box.cells) <= 6 or (kind, box) in BENCH_GRIDS
    assert np.all(np.abs(blocks.gram_diag - c) <= 4 * np.finfo(float).eps * c)
    if exact:
        assert np.array_equal(blocks.gram_diag, c)
    for ours, whole in zip((blocks.K, blocks.mass, *blocks.B, *blocks.W), (K, mass, *B, *W)):
        if exact:  # before the difference below, which sorts both in place
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(ours, attr), getattr(whole, attr))
        assert abs(ours - whole).max() <= 1e-14 * abs(whole).max()


@pytest.mark.parametrize("kind", ["simplex", "parallelotope"])
@pytest.mark.parametrize("dim", [2, 3])
def test_evaluation_matrix_stores_one_entry_per_element_vertex(kind, dim, rng):
    mesh = build_structured_mesh(Domain(np.zeros(dim), np.ones(dim)), (3,) * dim, kind)
    # interior points, vertices (basis values 0 and 1) and a face point
    pts = np.vstack([rng.uniform(0.0, 1.0, (30, dim)), mesh.vertices[[0, 5]],
                     np.full((1, dim), 1.0 / 3.0)])
    P = evaluation_matrix(mesh, pts)
    eids, _ = locate_points(mesh, pts)
    nl = mesh.elements.shape[1]
    assert P.nnz == nl * len(pts)
    assert np.array_equal(np.diff(P.indptr), np.full(len(pts), nl))
    assert np.array_equal(P.indices.reshape(-1, nl), mesh.elements[eids])


def test_evaluation_matrix_rows(unit_square, rng):
    mesh = build_structured_mesh(unit_square, (4, 4), "simplex")
    # vertex rows are unit vectors
    P = evaluation_matrix(mesh, mesh.vertices[[0, 7, 12]])
    dense = P.toarray()
    for r, v in enumerate([0, 7, 12]):
        expect = np.zeros(mesh.n_vertices)
        expect[v] = 1.0
        assert np.allclose(dense[r], expect, atol=1e-12)
    # random interior rows sum to one
    pts = rng.uniform(0.01, 0.99, (40, 2))
    P = evaluation_matrix(mesh, pts)
    assert np.abs(np.asarray(P.sum(axis=1)).ravel() - 1.0).max() < 1e-13


def test_evaluation_matrix_reproduces_linears(unit_square, rng):
    mesh = build_structured_mesh(unit_square, (3, 5), "parallelotope")
    ell = lambda p: 0.7 - 0.3 * p[:, 0] + 1.9 * p[:, 1]
    coeffs = lagrange_interpolate(mesh, ell)
    pts = rng.uniform(0, 1, (50, 2))
    P = evaluation_matrix(mesh, pts)
    assert np.abs(P @ coeffs - ell(pts)).max() < 1e-13


def test_evaluation_matrix_reports_outside_index(unit_square):
    mesh = build_structured_mesh(unit_square, (2, 2), "simplex")
    with pytest.raises(OutOfDomainError) as err:
        evaluation_matrix(mesh, np.array([[0.5, 0.5], [0.5, 1.7]]))
    assert err.value.indices == [1]


def test_data_term(unit_square, rng):
    mesh = build_structured_mesh(unit_square, (3, 3), "simplex")
    pts = rng.uniform(0, 1, (25, 2))
    P = evaluation_matrix(mesh, pts)
    R, f = assemble_data_term(P, np.zeros(25))
    assert np.abs(f).max() == 0.0
    z = rng.normal(size=25)
    R, f = assemble_data_term(P, z)
    u = rng.normal(size=mesh.n_vertices)
    assert float(u @ (R @ u)) == pytest.approx(float(((P @ u) ** 2).sum()), rel=1e-12)
    w = np.linalg.eigvalsh(R.toarray())
    assert w[0] > -1e-12 * abs(w[-1])
    # single data point at a vertex -> single unit diagonal entry
    P1 = evaluation_matrix(mesh, mesh.vertices[[5]])
    R1, _ = assemble_data_term(P1, np.ones(1))
    dense = R1.toarray()
    assert dense[5, 5] == pytest.approx(1.0)
    assert np.abs(dense).sum() == pytest.approx(1.0)


def test_data_term_dimension_mismatch(unit_square):
    mesh = build_structured_mesh(unit_square, (2, 2), "simplex")
    P = evaluation_matrix(mesh, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        assemble_data_term(P, np.zeros(3))


def test_scattered_data_validation():
    with pytest.raises(ValueError):
        ScatteredData(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        ScatteredData(np.array([[np.nan, 0.0]]), np.zeros(1))
    line = ScatteredData(np.column_stack([np.linspace(0, 1, 5), np.zeros(5)]),
                         np.zeros(5))
    assert line.affine_rank() == 1
    assert not line.admissible()
    tri = ScatteredData(np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.8]]), np.zeros(3))
    assert tri.admissible()


def test_inf_sup_witness_stays_bounded(unit_square):
    # smallest singular value of diag(c)^{-1/2} Gram mass^{-1/2} across levels
    for kind in ("simplex", "parallelotope"):
        mesh = build_structured_mesh(unit_square, (2, 2), kind)
        smins = []
        for _ in range(3):
            G = assemble_gram_full(mesh).toarray()
            c = assemble_gram_diagonal(mesh)
            M = assemble_mass(mesh).toarray()
            ev, V = np.linalg.eigh(M)
            m_inv_half = V @ np.diag(ev ** -0.5) @ V.T
            mat = np.diag(c ** -0.5) @ G @ m_inv_half
            smins.append(np.linalg.svd(mat, compute_uv=False).min())
            mesh = refine_uniform(mesh)
        smins = np.array(smins)
        assert smins.min() > 0.3
        assert smins.min() > 0.8 * smins.max()


def test_dual_space_approximation_order(unit_square):
    # best L2 approximation of a smooth field from the span of the glued
    # element duals decays at first order (preasymptotic levels are slower,
    # so check the last ratio)
    from scipy.sparse.linalg import spsolve

    from fetps.smoother import element_quadrature

    target = lambda p: np.sin(np.pi * p[:, 0]) * np.cos(2 * p[:, 1])
    errs = []
    mesh = build_structured_mesh(unit_square, (8, 8), "simplex")
    for _ in range(4):
        rule, phys, wdet = element_quadrature(mesh, 6)
        vals = target(phys.reshape(-1, 2)).reshape(mesh.n_elements, -1)
        mu = mesh.element_pair.dual_eval(rule.points)
        local = np.einsum("eq,qi,qj->eij", wdet, mu, mu)
        rows = np.repeat(mesh.elements, mesh.elements.shape[1], axis=1)
        cols = np.tile(mesh.elements, mesh.elements.shape[1])
        Gmu = sp.csc_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                            shape=(mesh.n_vertices,) * 2)
        b = np.zeros(mesh.n_vertices)
        np.add.at(b, mesh.elements.ravel(),
                  np.einsum("eq,eq,qi->ei", wdet, vals, mu).ravel())
        lam = spsolve(Gmu, b)
        approx = np.einsum("qi,ei->eq", mu, lam[mesh.elements])
        err2 = float(np.einsum("eq,eq->", wdet, (vals - approx) ** 2))
        errs.append(np.sqrt(err2))
        mesh = refine_uniform(mesh)
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert np.log2(errs[2] / errs[3]) >= 0.9


def test_assemble_system_shapes(unit_square, rng):
    mesh = build_structured_mesh(unit_square, (3, 3), "simplex")
    pts = rng.uniform(0, 1, (12, 2))
    data = ScatteredData(pts, rng.normal(size=12))
    blocks = assemble_system(mesh, data)
    assert_biorthogonal(mesh, blocks.gram_diag)
    n = mesh.n_vertices
    assert blocks.K.shape == (n, n)
    assert len(blocks.B) == 2 and len(blocks.W) == 2
    assert blocks.P.shape == (12, n)
    assert blocks.f.shape == (n,)


MULTI_CELL_MESHES = [
    (kind, box)
    for kind in ("simplex", "parallelotope")
    for box in (Box((4, 3)), Box((3, 2), **OFFSET_2D), Box((2, 3, 2), **OFFSET_3D))
]


@pytest.mark.parametrize("kind,cells", MULTI_CELL_MESHES)
def test_recovered_gradient_exact_for_quadratics(kind, cells):
    # D^-1 B I_h q = grad q at every vertex, boundary included, for each
    # quadratic monomial q, on unit and offset anisotropic boxes
    mesh = small_mesh(kind, cells)
    B = assemble_grad_coupling(mesh, "dual")
    c = assemble_gram_diagonal(mesh)
    x = mesh.vertices
    for p, q in itertools.combinations_with_replacement(range(mesh.dim), 2):
        rec = np.stack([Bk @ (x[:, p] * x[:, q]) / c for Bk in B])
        exact = np.zeros_like(rec)
        exact[p] += x[:, q]
        exact[q] += x[:, p]
        assert np.abs(rec - exact).max() < 1e-11 * np.abs(x).max(), (p, q)


@pytest.mark.parametrize("kind,cells", MULTI_CELL_MESHES)
def test_alpha_term_kernel_is_the_affine_functions(kind, cells):
    # sum_k (D^-1 B_k)^T K (D^-1 B_k) vanishes exactly on the d+1 affine
    # functions; a boundary dual that misses a grid mode would add more
    mesh = small_mesh(kind, cells)
    K = assemble_stiffness(mesh)
    c = assemble_gram_diagonal(mesh)
    G = [sp.diags(1.0 / c) @ Bk for Bk in assemble_grad_coupling(mesh, "dual")]
    A = sum((Gk.T @ K @ Gk).toarray() for Gk in G)
    w = np.linalg.eigvalsh(A)
    assert int(np.sum(w < 1e-10 * w.max())) == mesh.dim + 1
