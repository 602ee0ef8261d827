import numpy as np
import pytest

from conftest import (
    SMALL_MESHES,
    Box,
    assert_biorthogonal,
    saddle_matrix_dense,
    scaled_saddle_matrix,
    small_mesh,
    solve_saddle_dense,
)
from fetps.assembly import ScatteredData, assemble_system
from fetps.errors import NoConvergenceError, SingularSystemError
from fetps.mesh import build_structured_mesh
from fetps.smoother import lagrange_interpolate
from fetps.system import (
    SolverConfig,
    condense,
    recover_auxiliary,
    solve_reduced,
)

ALPHAS = (1e-4, 1e-2, 1.0)

# The 3D SMALL_MESHES have a single-cell axis, which keeps the standard
# duals; a (2, 2, 2) box has the boundary-modified ones.
CONDENSE_MESHES = SMALL_MESHES + [
    ("simplex", Box((2, 2, 2))),
    ("parallelotope", Box((2, 2, 2))),
]
CONDENSE_ALPHAS = ALPHAS + (1e6,)


def mesh_blocks(kind, box, rng):
    mesh = small_mesh(kind, box)
    lo, hi = mesh.domain.lower, mesh.domain.upper
    pts = lo + (hi - lo) * rng.uniform(0.0, 1.0, (20, mesh.dim))
    zs = np.sin(2.0 * pts[:, 0]) + pts[:, -1] ** 2
    blocks = assemble_system(mesh, ScatteredData(pts, zs))
    assert_biorthogonal(mesh, blocks.gram_diag)
    return blocks


@pytest.fixture
def small_system(unit_square, rng):
    mesh = build_structured_mesh(unit_square, (2, 2), "simplex")
    pts = rng.uniform(0.0, 1.0, (20, 2))
    zs = np.sin(2.0 * pts[:, 0]) + pts[:, 1] ** 2
    data = ScatteredData(pts, zs)
    blocks = assemble_system(mesh, data)
    assert_biorthogonal(mesh, blocks.gram_diag)
    return blocks, data


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rtol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_condense_requires_positive_alpha(small_system):
    blocks, _ = small_system
    with pytest.raises(ValueError):
        condense(blocks, 0.0)


def test_condense_rejects_nonpositive_gram(small_system):
    from dataclasses import replace

    blocks, _ = small_system
    bad = blocks.gram_diag.copy()
    bad[3] = 0.0
    with pytest.raises(SingularSystemError):
        condense(replace(blocks, gram_diag=bad), 1e-2)


def test_condense_kernel_reduces_to_data_term(small_system):
    # all gradient blocks annihilate constants, so S @ 1 = R @ 1
    blocks, _ = small_system
    ones = np.ones(blocks.n)
    for alpha in ALPHAS:
        op = condense(blocks, alpha)
        assert np.abs(op.matrix @ ones - blocks.R @ ones).max() < 1e-11
        assert (op.matrix != op.matrix.T).nnz == 0


def test_condense_matches_dense_schur_complement(rng):
    for kind, box in CONDENSE_MESHES:
        blocks = mesh_blocks(kind, box, rng)
        n = blocks.n
        for alpha in CONDENSE_ALPHAS:
            A, _ = scaled_saddle_matrix(blocks, alpha)
            oracle = A[:n, :n] - A[:n, n:] @ np.linalg.solve(A[n:, n:], A[n:, :n])
            ours = condense(blocks, alpha).matrix.toarray()
            assert np.abs(ours - oracle).max() <= 1e-11 * np.abs(oracle).max(), (
                kind, box, alpha)


def buffer_size(a):
    """Entries of the memory that `a` keeps alive: its own or its base's."""
    return a.size if a.base is None else a.base.size


@pytest.mark.parametrize("kind,box", CONDENSE_MESHES)
def test_condense_is_exactly_symmetric_and_trimmed(kind, box, rng):
    blocks = mesh_blocks(kind, box, rng)
    for alpha in CONDENSE_ALPHAS:
        S = condense(blocks, alpha).matrix
        assert (S != S.T).nnz == 0
        assert S.data.size == S.nnz
        assert buffer_size(S.data) == buffer_size(S.indices) == S.nnz


def test_condense_alpha_linearity(small_system):
    blocks, _ = small_system
    S1 = condense(blocks, 1.0).matrix
    S2 = condense(blocks, 2.0).matrix
    dinv = 1.0 / blocks.gram_diag
    Q = None
    for k in range(blocks.dim):
        Bs = blocks.B[k].multiply(dinv[:, None]).tocsr()
        T = (Bs.T @ blocks.K @ Bs).toarray()
        Q = T if Q is None else Q + T
    diff = (S2 - S1).toarray() - Q
    assert np.abs(diff).max() <= 1e-12 * np.abs(S1.toarray()).max()


def test_solve_reduced_zero_rhs(small_system):
    blocks, _ = small_system
    op = condense(blocks, 1e-2)
    u = solve_reduced(op, np.zeros(blocks.n))
    assert np.all(u == 0.0)


def test_solve_reduced_meets_tolerance(small_system):
    blocks, _ = small_system
    op = condense(blocks, 1e-2)
    u, stats = solve_reduced(op, blocks.f, SolverConfig(rtol=1e-12), return_stats=True)
    res = np.linalg.norm(op.matrix @ u - blocks.f) / np.linalg.norm(blocks.f)
    assert res < 1e-11
    assert stats["iterations"] >= 1


def test_solve_reduced_interpolates_linear_data(unit_square, rng):
    mesh = build_structured_mesh(unit_square, (3, 3), "simplex")
    pts = rng.uniform(0.0, 1.0, (15, 2))
    ell = lambda p: 0.4 + 1.3 * p[:, 0] - 0.8 * p[:, 1]
    blocks = assemble_system(mesh, ScatteredData(pts, ell(pts)))
    u = solve_reduced(condense(blocks, 1e-2), blocks.f, SolverConfig(rtol=1e-12))
    assert np.abs(u - lagrange_interpolate(mesh, ell)).max() < 1e-8


def test_solve_reduced_matches_dense_solve(small_system):
    blocks, _ = small_system
    for alpha in ALPHAS:
        op = condense(blocks, alpha)
        u = solve_reduced(op, blocks.f, SolverConfig(rtol=1e-13))
        dense = np.linalg.solve(op.matrix.toarray(), blocks.f)
        assert np.linalg.norm(u - dense) <= 1e-8 * np.linalg.norm(dense)


def test_solve_reduced_iteration_cap(small_system):
    blocks, _ = small_system
    op = condense(blocks, 1e-2)
    with pytest.raises(NoConvergenceError) as err:
        solve_reduced(op, blocks.f, SolverConfig(rtol=1e-13, max_iter=2))
    assert err.value.iterations == 2
    assert 0.0 < err.value.residual


def test_recover_zero(small_system):
    blocks, _ = small_system
    triple = recover_auxiliary(blocks, np.zeros(blocks.n), 1e-2)
    assert np.all(triple.sigma == 0.0) and np.all(triple.phi == 0.0)


def test_recover_linear_gradient(unit_square, rng):
    # u linear with slope e_1: sigma_1 = 1, sigma_2 = 0
    mesh = build_structured_mesh(unit_square, (3, 2), "simplex")
    pts = rng.uniform(0.0, 1.0, (10, 2))
    blocks = assemble_system(mesh, ScatteredData(pts, pts[:, 0]))
    u = mesh.vertices[:, 0].copy()
    triple = recover_auxiliary(blocks, u, 1e-2)
    assert np.abs(triple.sigma[0] - 1.0).max() < 1e-12
    assert np.abs(triple.sigma[1]).max() < 1e-12


def test_recovered_triple_satisfies_constraint_and_saddle(small_system):
    blocks, _ = small_system
    for alpha in ALPHAS:
        u = solve_reduced(condense(blocks, alpha), blocks.f,
                          SolverConfig(rtol=1e-12))
        triple = recover_auxiliary(blocks, u, alpha)
        # constraint rows: D sigma_k = B_k u
        for k in range(blocks.dim):
            lhs = blocks.gram_diag * triple.sigma[k]
            rhs = blocks.B[k] @ u
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1e-30)
        # full three-block residual
        A = saddle_matrix_dense(blocks, alpha)
        vec = np.concatenate([triple.u, triple.sigma.ravel(), triple.phi.ravel()])
        rhs_full = np.concatenate([blocks.f, np.zeros(2 * blocks.dim * blocks.n)])
        res = np.linalg.norm(A @ vec - rhs_full) / np.linalg.norm(rhs_full)
        assert res < 1e-8


def test_dense_oracle_matches_reduced_path(small_system):
    blocks, _ = small_system
    for alpha in CONDENSE_ALPHAS:
        u = solve_reduced(condense(blocks, alpha), blocks.f,
                          SolverConfig(rtol=1e-12))
        triple = recover_auxiliary(blocks, u, alpha)
        dense = solve_saddle_dense(blocks, alpha)
        # At alpha = 1e6 the reduced solve meets 7e-17, but u and sigma agree
        # only to 6e-10 and 1e-9: both sides round the alpha-term. phi =
        # D^-1 (r W u - (alpha K + r M) sigma) multiplies the part of the
        # sigma error that K sees by alpha: phi agrees to 3.3e-8 there.
        phi_bound = 1e-8 if alpha <= 1.0 else 1e-6
        for ours, oracle, bound in ((triple.u, dense.u, 1e-8),
                                    (triple.sigma, dense.sigma, 1e-8),
                                    (triple.phi, dense.phi, phi_bound)):
            rel = np.linalg.norm(ours - oracle) / max(np.linalg.norm(oracle), 1e-30)
            assert rel < bound, alpha


def test_dense_oracle_zero_data(unit_square, rng):
    mesh = build_structured_mesh(unit_square, (2, 2), "simplex")
    pts = rng.uniform(0.0, 1.0, (10, 2))
    blocks = assemble_system(mesh, ScatteredData(pts, np.zeros(10)))
    triple = solve_saddle_dense(blocks, 1e-2)
    assert np.abs(triple.u).max() < 1e-12
    assert np.abs(triple.sigma).max() < 1e-12
    assert np.abs(triple.phi).max() < 1e-12


def test_dense_oracle_collinear_data_singular(unit_square):
    mesh = build_structured_mesh(unit_square, (2, 2), "simplex")
    line = np.column_stack([np.linspace(0.1, 0.9, 12), np.full(12, 0.4)])
    blocks = assemble_system(mesh, ScatteredData(line, np.ones(12)))
    with pytest.raises(SingularSystemError):
        solve_saddle_dense(blocks, 1e-2)


def test_reduced_spd_and_collinear_near_null(unit_square, rng):
    mesh = build_structured_mesh(unit_square, (3, 3), "simplex")
    pts = rng.uniform(0.0, 1.0, (30, 2))
    blocks = assemble_system(mesh, ScatteredData(pts, rng.normal(size=30)))
    w = np.linalg.eigvalsh(condense(blocks, 1e-2).matrix.toarray())
    assert w[0] > 0
    line = np.column_stack([np.linspace(0.05, 0.95, 30), np.full(30, 0.55)])
    blocks_bad = assemble_system(mesh, ScatteredData(line, np.zeros(30)))
    wb = np.linalg.eigvalsh(condense(blocks_bad, 1e-2).matrix.toarray())
    assert wb[0] <= 1e-10 * np.abs(wb).max()


def test_energy_identity_and_galerkin_orthogonality(small_system, rng):
    blocks, _ = small_system
    op = condense(blocks, 1e-3)
    u = solve_reduced(op, blocks.f, SolverConfig(rtol=1e-12))
    # energy identity a(u, u) = f(u)
    au = float(u @ (op.matrix @ u))
    fu = float(blocks.f @ u)
    assert au == pytest.approx(fu, rel=1e-8)
    # Galerkin orthogonality against random test vectors
    for _ in range(20):
        v = rng.normal(size=blocks.n)
        av = float(v @ (op.matrix @ u))
        fv = float(blocks.f @ v)
        assert abs(av - fv) <= 1e-8 * max(abs(fv), 1.0)


def test_stabilization_weight_consistency(unit_square, rng):
    # the stabilization weight never changes solutions whose constraint
    # residual vanishes (affine data); general solutions stay r-dependent
    # only through the consistent term, so they converge together
    mesh = build_structured_mesh(unit_square, (3, 3), "simplex")
    pts = rng.uniform(0.0, 1.0, (25, 2))
    ell = lambda p: 0.2 - 0.9 * p[:, 0] + 0.4 * p[:, 1]
    blocks = assemble_system(mesh, ScatteredData(pts, ell(pts)))
    cfg = SolverConfig(rtol=1e-13)
    u1 = solve_reduced(condense(blocks, 1e-2, r=1.0), blocks.f, cfg)
    u2 = solve_reduced(condense(blocks, 1e-2, r=2.0), blocks.f, cfg)
    assert np.abs(u1 - u2).max() < 1e-9

    smooth = lambda p: np.sin(2.0 * p[:, 0]) * p[:, 1]
    diffs = []
    m = mesh
    for _ in range(3):
        b = assemble_system(m, ScatteredData(pts, smooth(pts)))
        v1 = solve_reduced(condense(b, 1e-2, r=1.0), b.f, cfg)
        v2 = solve_reduced(condense(b, 1e-2, r=2.0), b.f, cfg)
        diffs.append(np.abs(v1 - v2).max() / np.abs(v1).max())
        from fetps.mesh import refine_uniform

        m = refine_uniform(m)
    assert diffs[0] < 0.05
    assert diffs[-1] < diffs[0]
