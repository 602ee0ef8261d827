import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fetps.smoother
from conftest import (
    OFFSET_2D,
    SMALL_MESHES,
    TILED_MESHES,
    Box,
    element_patch,
    element_volumes,
    energy_norm_by_quadrature,
    fe_gradient,
    fe_gradient_on_elements,
    fe_value_on_element,
    integrate,
    small_mesh,
    smoother_pair_fields,
    whole_mesh_blocks,
)
from fetps.assembly import (
    ScatteredData,
    SystemBlocks,
    assemble_data_term,
    assemble_system,
    evaluation_matrix,
)
from fetps.errors import DataFormatError, SingularSystemError
from fetps.fields import get_field
from fetps.mesh import Domain, build_structured_mesh, refine_uniform
from fetps.smoother import (
    FitConfig,
    Smoother,
    energy_norm,
    energy_norm_difference,
    fe_value,
    fit,
    functional_value,
    lagrange_interpolate,
    quasi_project,
    quasi_project_gradient,
)
from fetps.study import sample_scattered
from fetps.system import SolverConfig, condense, recover_auxiliary, solve_reduced

TIGHT = SolverConfig(rtol=1e-13)


@pytest.fixture
def mesh8(unit_square):
    return build_structured_mesh(unit_square, (8, 8), "simplex")


@pytest.fixture
def sites(rng):
    return rng.uniform(0.02, 0.98, (40, 2))


def test_fit_config_requires_positive_alpha():
    for alpha in (0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            FitConfig(alpha=alpha)


def test_fit_warns_when_it_misses_rtol(mesh8, sites, stalled_solve):
    data = ScatteredData(sites, np.sin(3.0 * sites[:, 0]) + sites[:, 1])
    with pytest.warns(RuntimeWarning, match="above rtol"):
        s = fit(data, mesh8, FitConfig(alpha=1e-3))
    assert s.residual > SolverConfig().rtol


def test_fit_warns_on_a_nan_residual(mesh8, sites, monkeypatch):
    solve = fetps.smoother.solve_reduced

    def nan_residual(op, f, cfg=None, return_stats=False):
        u, stats = solve(op, f, cfg, return_stats=True)
        return u, dict(stats, residual=np.nan)

    monkeypatch.setattr(fetps.smoother, "solve_reduced", nan_residual)
    data = ScatteredData(sites, np.sin(3.0 * sites[:, 0]) + sites[:, 1])
    with pytest.warns(RuntimeWarning, match="above rtol"):
        fit(data, mesh8, FitConfig(alpha=1e-3))


def test_fit_meets_rtol_at_large_alpha_on_dense_data(unit_square):
    # Jacobi-PCG with residual refinement, before kernel deflation, stalled
    # above the default rtol here (858 iterations, residual 4.9e-9)
    mesh = build_structured_mesh(unit_square, (16, 16), "simplex")
    data = sample_scattered(get_field("franke", 2), unit_square, 5000, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = fit(data, mesh, FitConfig(alpha=1e6))
    assert s.residual <= SolverConfig().rtol


def test_fit_iterations_do_not_grow_with_alpha(unit_square):
    # the alpha-term vanishes on the deflated affine kernel, so the solve
    # sees a spectrum that stops changing once alpha dominates
    mesh = build_structured_mesh(unit_square, (16, 16), "simplex")
    data = sample_scattered(get_field("franke", 2), unit_square, 2000, 7)
    iterations = []
    for alpha in (1e4, 1e8, 1e12, 1e16):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = fit(data, mesh, FitConfig(alpha=alpha))
        assert s.residual <= SolverConfig().rtol
        iterations.append(s.iterations)
    assert max(iterations) <= 1.3 * min(iterations)


def test_converging_fit_emits_no_warning(mesh8, sites):
    data = ScatteredData(sites, np.sin(3.0 * sites[:, 0]) + sites[:, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = fit(data, mesh8, FitConfig(alpha=1e-3))
    assert s.residual <= SolverConfig().rtol


def test_fit_rejects_inadmissible_data(mesh8):
    line = np.column_stack([np.linspace(0.1, 0.9, 6), np.full(6, 0.5)])
    with pytest.raises(SingularSystemError):
        fit(ScatteredData(line, np.zeros(6)), mesh8, FitConfig(alpha=1e-2))


def test_fit_constant_data(mesh8, sites):
    data = ScatteredData(sites, np.full(len(sites), 2.5))
    s = fit(data, mesh8, FitConfig(alpha=1e-2))
    assert np.abs(s.u - 2.5).max() < 1e-8
    pts = np.array([[0.31, 0.77], [0.5, 0.5], [0.99, 0.01]])
    assert np.abs(s.evaluate(pts) - 2.5).max() < 1e-8
    assert np.abs(s.evaluate_gradient(pts)).max() < 1e-7


@pytest.mark.parametrize("alpha", [1e-6, 1.0, 1e6, 1e16])
def test_fit_reproduces_affine_data(mesh8, sites, rng, alpha):
    for _ in range(3):
        coef = rng.uniform(-2, 2, size=3)
        ell = lambda p: coef[0] + p @ coef[1:]
        data = ScatteredData(sites, ell(sites))
        s = fit(data, mesh8, FitConfig(alpha=alpha), solver=TIGHT)
        assert np.abs(s.u - lagrange_interpolate(mesh8, ell)).max() < 1e-8
        assert np.abs(s.sigma[0] - coef[1]).max() < 1e-8
        assert np.abs(s.sigma[1] - coef[2]).max() < 1e-8


@pytest.mark.parametrize("alpha", [1e6, 1e10, 1e16])
def test_fit_large_alpha_approaches_affine_least_squares(mesh8, sites, alpha):
    # as the penalty weight grows the minimizer tends to the affine fit;
    # measured gap is 0.026/alpha, down to a rounding floor of 1.3e-15
    zs = np.sin(2.0 * sites[:, 0]) + 0.5 * sites[:, 1] ** 2
    data = ScatteredData(sites, zs)
    s = fit(data, mesh8, FitConfig(alpha=alpha), solver=TIGHT)
    A = np.column_stack([np.ones(len(sites)), sites])
    coef, *_ = np.linalg.lstsq(A, zs, rcond=None)
    affine = lambda p: coef[0] + p @ coef[1:]
    gap = np.abs(s.u - lagrange_interpolate(mesh8, affine)).max()
    assert gap <= 0.1 / alpha + 1e-14


@pytest.mark.parametrize("alpha", [1e-3, 1e6])
def test_fit_is_invariant_to_translating_the_domain(mesh8, sites, alpha):
    shift = 1e5
    zs = np.sin(3.0 * sites[:, 0]) * sites[:, 1]
    moved = Domain(mesh8.domain.lower + shift, mesh8.domain.upper + shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = fit(ScatteredData(sites, zs), mesh8, FitConfig(alpha=alpha))
        t = fit(ScatteredData(sites + shift, zs),
                build_structured_mesh(moved, (8, 8), "simplex"), FitConfig(alpha=alpha))
    assert np.abs(s.u - t.u).max() <= 1e-9


def fit_without_warning(data, mesh, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit(data, mesh, FitConfig(alpha=alpha))


@pytest.fixture(scope="module")
def franke_sites():
    # 5000 uniform sites on a 64^2 grid at alpha = 1: the Fourier-symbol path
    return np.random.default_rng(1).uniform(0.0, 1.0, (5000, 2))


def test_fourier_fit_is_invariant_to_translating_the_domain(unit_square, franke_sites):
    shift = 1e5
    zs = get_field("franke", 2).value(franke_sites)
    moved = Domain(unit_square.lower + shift, unit_square.upper + shift)
    s = fit_without_warning(ScatteredData(franke_sites, zs),
                            build_structured_mesh(unit_square, (64, 64), "simplex"), 1.0)
    t = fit_without_warning(ScatteredData(franke_sites + shift, zs),
                            build_structured_mesh(moved, (64, 64), "simplex"), 1.0)
    assert s.reduced.preconditioner == t.reduced.preconditioner == "fourier"
    assert np.abs(s.u - t.u).max() <= 1e-9


def test_fourier_fit_reproduces_affine_data(unit_square, franke_sites):
    mesh = build_structured_mesh(unit_square, (64, 64), "simplex")
    coef = np.array([0.4, 1.3, -0.8])
    ell = lambda p: coef[0] + p @ coef[1:]
    s = fit(ScatteredData(franke_sites, ell(franke_sites)), mesh, FitConfig(alpha=1.0),
            solver=TIGHT)
    assert s.reduced.preconditioner == "fourier"
    assert np.abs(s.u - lagrange_interpolate(mesh, ell)).max() < 1e-8
    assert np.abs(s.sigma - coef[1:, None]).max() < 1e-8


def test_fourier_fit_converges_on_clustered_sites(unit_square):
    # the symbol models the data term by its mean over uniform sites; sites
    # drawn from N((0.3, 0.3), 0.1^2) are far from that and still converge
    pts = np.random.default_rng(1).normal(0.3, 0.1, (6000, 2))
    pts = pts[((pts >= 0.0) & (pts <= 1.0)).all(axis=1)][:5000]
    assert len(pts) == 5000
    data = ScatteredData(pts, get_field("franke", 2).value(pts))
    s = fit_without_warning(data, build_structured_mesh(unit_square, (64, 64), "simplex"), 1.0)
    assert s.reduced.preconditioner == "fourier"
    assert s.residual <= SolverConfig().rtol


@pytest.mark.parametrize("kind,box", TILED_MESHES)
def test_fit_matches_the_solve_on_whole_mesh_blocks(kind, box, rng):
    # u depends only on R, f and the tiled S, so it is bit for bit that of
    # the blocks element-assembled on the whole mesh; sigma and phi are
    # recovered from the blocks, which agree up to rounding
    mesh = small_mesh(kind, box)
    pts = mesh.domain.lower + mesh.domain.extents * rng.uniform(0.0, 1.0, (200, mesh.dim))
    data = ScatteredData(pts, np.sin(3.0 * pts[:, 0]) + pts[:, -1] ** 2)
    alpha = 1e-3
    s = fit(data, mesh, FitConfig(alpha))
    P = evaluation_matrix(mesh, data.points)
    R, f = assemble_data_term(P, data.values)
    blocks = SystemBlocks(mesh, *whole_mesh_blocks(mesh), P, R, f)
    triple = recover_auxiliary(blocks, solve_reduced(condense(blocks, alpha), f), alpha)
    assert np.array_equal(s.u, triple.u)
    for ours, whole in ((s.sigma, triple.sigma), (s.phi, triple.phi)):
        assert np.abs(ours - whole).max() <= 1e-12 * np.abs(whole).max()


def test_evaluate_at_vertices_returns_coefficients(mesh8, sites, rng):
    data = ScatteredData(sites, rng.normal(size=len(sites)))
    s = fit(data, mesh8, FitConfig(alpha=1e-3))
    assert np.abs(s.evaluate(mesh8.vertices) - s.u).max() < 1e-12


def test_evaluate_matches_evaluation_matrix(mesh8, sites, rng):
    data = ScatteredData(sites, rng.normal(size=len(sites)))
    s = fit(data, mesh8, FitConfig(alpha=1e-3))
    assert np.abs(s.evaluate(sites) - s.blocks.P @ s.u).max() < 1e-12


def test_recovered_gradient_continuous_across_faces(mesh8, sites, rng):
    data = ScatteredData(sites, np.sin(3 * sites[:, 0]) * sites[:, 1])
    s = fit(data, mesh8, FitConfig(alpha=1e-3))
    # midpoints of shared edges, evaluated from both adjacent elements
    for e in range(0, mesh8.n_elements, 7):
        neighbors = [t for t in element_patch(mesh8, e).members if t != e]
        for t in neighbors:
            shared = sorted(set(mesh8.elements[e]) & set(mesh8.elements[t]))
            if len(shared) != 2:
                continue
            mid = mesh8.vertices[shared].mean(axis=0)[None, :]
            for k in range(2):
                a = fe_value_on_element(mesh8, s.sigma[k], e, mid)
                b = fe_value_on_element(mesh8, s.sigma[k], t, mid)
                assert abs(float(a[0] - b[0])) < 1e-12


def test_raw_gradient_differs_from_recovered(mesh8, sites):
    data = ScatteredData(sites, np.sin(3 * sites[:, 0]) * sites[:, 1])
    s = fit(data, mesh8, FitConfig(alpha=1e-3))
    pts = np.array([[0.4000001, 0.3333333]])
    raw = fe_gradient(s.mesh, s.u, pts)
    rec = s.evaluate_gradient(pts)
    assert np.abs(raw - rec).max() > 1e-6  # genuinely different fields


def test_quasi_project_identity_on_fe_space(mesh8, rng):
    coeffs = rng.normal(size=mesh8.n_vertices)
    v = lambda p: fe_value(mesh8, coeffs, p)
    got = quasi_project(mesh8, v, degree=2)
    assert np.abs(got - coeffs).max() < 1e-12


def test_quasi_project_linear_equals_interpolation(mesh8):
    ell = lambda p: 1.0 - 2.0 * p[:, 0] + 0.5 * p[:, 1]
    got = quasi_project(mesh8, ell, degree=2)
    assert np.abs(got - lagrange_interpolate(mesh8, ell)).max() < 1e-13


def test_quasi_project_locality(mesh8):
    # perturbing the field outside the closure of a patch never changes
    # the projection coefficients at the patch center's vertices
    base = lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2
    center = None
    for e in range(mesh8.n_elements):
        if len(element_patch(mesh8, e).members) == 13:
            center = e
            break
    patch = element_patch(mesh8, center)
    patch_verts = np.unique(mesh8.elements[list(patch.members)].ravel())
    box_lo = mesh8.vertices[patch_verts].min(axis=0)
    box_hi = mesh8.vertices[patch_verts].max(axis=0)

    def perturbed(p):
        outside = ((p < box_lo - 1e-12) | (p > box_hi + 1e-12)).any(axis=1)
        return base(p) + np.where(outside, 10.0 * np.cos(5 * p[:, 0]), 0.0)

    a = quasi_project(mesh8, base, degree=3)
    b = quasi_project(mesh8, perturbed, degree=3)
    for v in mesh8.elements[center]:
        assert a[v] == b[v]
    assert np.abs(a - b).max() > 1.0  # the perturbation itself is visible


def test_quadratic_gradient_projection_is_exact(unit_square):
    # the gradient of a global quadratic is linear, lies in the FE space,
    # and is reproduced by the projection everywhere (boundary included)
    mesh = build_structured_mesh(unit_square, (6, 6), "simplex")
    gq = lambda p: np.stack(
        [2 * p[:, 0] + 0.5 * p[:, 1], 0.5 * p[:, 0] - 2 * p[:, 1]], axis=1
    )
    projected = np.stack(
        [quasi_project(mesh, lambda p: gq(p)[:, k], degree=2) for k in range(2)]
    )
    exact = gq(mesh.vertices)
    assert np.abs(projected.T - exact).max() < 1e-11
    # coefficients exact and both fields linear, so quadrature points agree too
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (50, 2))
    vals = np.stack([fe_value(mesh, projected[k], pts) for k in range(2)], axis=1)
    assert np.abs(vals - gq(pts)).max() < 1e-11


@pytest.mark.parametrize("kind", ["simplex", "parallelotope"])
@pytest.mark.parametrize("dim", [2, 3])
def test_quasi_project_gradient_is_the_fit_recovery(kind, dim, rng):
    # the study's recovered gradient and the fit's sigma are one operator
    mesh = build_structured_mesh(
        Domain(np.zeros(dim), np.linspace(1.0, 2.0, dim)), (3,) * dim, kind
    )
    pts = rng.uniform(0.0, 1.0, (20, dim))
    blocks = assemble_system(mesh, ScatteredData(pts, rng.normal(size=20)))
    for _ in range(3):
        u = rng.normal(size=mesh.n_vertices)
        sigma = recover_auxiliary(blocks, u, alpha=1e-2).sigma
        assert np.array_equal(quasi_project_gradient(mesh, u), sigma)


def test_lagrange_interpolation(mesh8):
    assert np.abs(lagrange_interpolate(mesh8, lambda p: np.full(len(p), 3.0)) - 3.0).max() == 0.0
    got = lagrange_interpolate(mesh8, lambda p: p[:, 0])
    assert np.array_equal(got, mesh8.vertices[:, 0])


def test_lagrange_interpolation_l2_rate(unit_square):
    fld = get_field("sin-product", 2)
    errs, hs = [], []
    mesh = build_structured_mesh(unit_square, (8, 8), "simplex")
    for _ in range(3):
        coeffs = lagrange_interpolate(mesh, fld.value)
        err = integrate(
            mesh,
            lambda p: (np.asarray(fld.value(p)) - fe_value(mesh, coeffs, p)) ** 2,
            degree=6,
        )
        errs.append(np.sqrt(err))
        hs.append(mesh.h)
        mesh = refine_uniform(mesh)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_energy_norm_zero_pair(mesh8):
    zero_s = lambda p: np.zeros(len(np.atleast_2d(p)))
    zero_v = lambda p: np.zeros((len(np.atleast_2d(p)), 2))
    zero_j = lambda p: np.zeros((len(np.atleast_2d(p)), 2, 2))
    val = energy_norm_by_quadrature(
        mesh8, np.array([[0.5, 0.5]]), 1.0, zero_s, zero_v, zero_v, zero_j)
    assert val == 0.0


def test_energy_norm_constant_sigma(mesh8):
    # (u, sigma) = (0, e_1) on the unit square with alpha = 1:
    # only the constraint term survives and equals vol = 1
    zero_s = lambda p: np.zeros(len(np.atleast_2d(p)))
    zero_v = lambda p: np.zeros((len(np.atleast_2d(p)), 2))
    e1 = lambda p: np.tile([1.0, 0.0], (len(np.atleast_2d(p)), 1))
    zero_j = lambda p: np.zeros((len(np.atleast_2d(p)), 2, 2))
    val = energy_norm_by_quadrature(mesh8, np.zeros((0, 2)), 1.0, zero_s, zero_v, e1, zero_j)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_energy_norm_of_fitted_linear_error(mesh8, sites, rng):
    coef = np.array([0.3, 1.1, -0.6])
    ell = lambda p: coef[0] + p @ coef[1:]
    data = ScatteredData(sites, ell(sites))
    s = fit(data, mesh8, FitConfig(alpha=1e-2), solver=TIGHT)
    u, gu, sg, js = smoother_pair_fields(s)
    err = energy_norm_by_quadrature(
        mesh8, sites, 1e-2,
        lambda p: u(p) - ell(p),
        lambda p: gu(p) - np.tile(coef[1:], (len(np.atleast_2d(p)), 1)),
        lambda p: sg(p) - np.tile(coef[1:], (len(np.atleast_2d(p)), 1)),
        js,
    )
    assert err < 1e-7


def test_energy_identity_via_quadrature(mesh8, sites):
    # the algebraic P-norm of the solution equals its quadrature version
    data = ScatteredData(sites, np.sin(2 * sites[:, 0]) + sites[:, 1])
    alpha = 1e-2
    s = fit(data, mesh8, FitConfig(alpha=alpha), solver=TIGHT)
    algebraic = float(s.u @ (s.reduced.matrix @ s.u))
    u, gu, sg, js = smoother_pair_fields(s)
    quadrature_norm = energy_norm_by_quadrature(mesh8, sites, alpha, u, gu, sg, js, degree=2)
    assert quadrature_norm ** 2 == pytest.approx(algebraic, rel=1e-10)
    # the block form of the same norm
    assert energy_norm(mesh8, sites, alpha, s.u, s.sigma) ** 2 == pytest.approx(
        algebraic, rel=1e-12)
    # and the discrete objective agrees with the energy identity
    J = functional_value(s, data)
    assert J == pytest.approx(-algebraic, rel=1e-8)


def test_functional_zero_data(mesh8, sites):
    data = ScatteredData(sites, np.zeros(len(sites)))
    s = fit(data, mesh8, FitConfig(alpha=1e-2))
    assert np.abs(s.u).max() < 1e-12
    assert functional_value(s, data) == pytest.approx(0.0, abs=1e-12)


def test_functional_minimality(mesh8, sites, rng):
    data = ScatteredData(sites, np.cos(sites[:, 0]) * sites[:, 1])
    s = fit(data, mesh8, FitConfig(alpha=1e-3), solver=TIGHT)
    J = functional_value(s, data)
    for _ in range(20):
        delta = rng.normal(0.0, 0.1, mesh8.n_vertices)
        assert functional_value(s, data, s.u + delta) >= J - 1e-10 * abs(J)


def test_functional_of_loaded_smoother(tmp_path, mesh8, sites):
    # a loaded smoother keeps no blocks, so the functional re-assembles them
    data = ScatteredData(sites, np.cos(sites[:, 0]) * sites[:, 1])
    s = fit(data, mesh8, FitConfig(alpha=1e-3))
    path = tmp_path / "model.json"
    s.save(path)
    loaded = Smoother.load(path)
    assert loaded.blocks is None
    assert functional_value(loaded, data) == pytest.approx(functional_value(s, data), rel=1e-12)


def test_energy_norm_difference_of_nested_fits(unit_square, rng):
    fld = get_field("gaussian-bump", 2)
    pts = rng.uniform(0, 1, (300, 2))
    data = ScatteredData(pts, fld.value(pts))
    coarse = build_structured_mesh(unit_square, (4, 4), "simplex")
    fine = refine_uniform(coarse)
    s1 = fit(data, coarse, FitConfig(alpha=1e-3))
    s2 = fit(data, fine, FitConfig(alpha=1e-3))
    d = energy_norm_difference(s1, s2, pts, 1e-3)
    assert d > 0
    same = energy_norm_difference(s1, s1, pts, 1e-3)
    assert same < 1e-10 * max(d, 1.0)


NESTED_PAIRS = [
    ("simplex", Box((4, 4))),
    ("parallelotope", Box((4, 4))),
    ("simplex", Box((2, 2, 2))),
    ("parallelotope", Box((2, 2, 2))),
    ("simplex", Box((3, 2), **OFFSET_2D)),
    ("parallelotope", Box((3, 2), **OFFSET_2D)),
]


@pytest.mark.parametrize("kind, box", NESTED_PAIRS)
def test_energy_norm_difference_matches_quadrature(kind, box, rng):
    # the block form on the finer mesh equals located-point quadrature of
    # the four difference fields, which is exact at degree 2 there
    coarse = small_mesh(kind, box)
    fine = refine_uniform(coarse)
    dim = coarse.dim
    pts = rng.uniform(coarse.domain.lower, coarse.domain.upper, (200, dim))
    data = ScatteredData(pts, np.sin(3.0 * pts[:, 0]) + pts[:, 1] * pts[:, -1])
    alpha = 1e-3
    s1 = fit(data, coarse, FitConfig(alpha), solver=TIGHT)
    s2 = fit(data, fine, FitConfig(alpha), solver=TIGHT)
    (uc, guc, sc, jc), (uf, guf, sf, jf) = smoother_pair_fields(s1), smoother_pair_fields(s2)
    oracle = energy_norm_by_quadrature(
        fine, pts, alpha,
        lambda p: uc(p) - uf(p),
        lambda p: guc(p) - guf(p),
        lambda p: sc(p) - sf(p),
        lambda p: jc(p) - jf(p),
        degree=2,
    )
    got = energy_norm_difference(s1, s2, pts, alpha)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert energy_norm_difference(s2, s1, pts, alpha) == got


def test_energy_norm_difference_rejects_non_nested_meshes(unit_square, rng):
    pts = rng.uniform(0.0, 1.0, (50, 2))
    data = ScatteredData(pts, np.cos(2.0 * pts[:, 0]) * pts[:, 1])

    def fitted(domain, cells, kind="simplex"):
        return fit(data, build_structured_mesh(domain, cells, kind), FitConfig(1e-3))

    base = fitted(unit_square, (8, 8))
    wider = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.5]))
    for other in (fitted(unit_square, (12, 12)),
                  fitted(unit_square, (16, 16), "parallelotope"),
                  fitted(wider, (16, 16))):
        for pair in ((base, other), (other, base)):
            with pytest.raises(ValueError, match="nested"):
                energy_norm_difference(*pair, pts, 1e-3)


def test_qh_l2_stability_bound(unit_square, rng):
    # projection of random piecewise-constant fields stays L2-bounded
    from fetps.mesh import locate_points
    from fetps.assembly import assemble_mass

    for kind in ("simplex", "parallelotope"):
        mesh = build_structured_mesh(unit_square, (6, 6), kind)
        M = assemble_mass(mesh)
        ratios = []
        for _ in range(50):
            cellvals = rng.normal(size=mesh.n_elements)

            def field(p):
                eids, _ = locate_points(mesh, p)
                return cellvals[eids]

            coeffs = quasi_project(mesh, field, degree=2)
            num = np.sqrt(float(coeffs @ (M @ coeffs)))
            den = np.sqrt(float((cellvals ** 2 * element_volumes(mesh)).sum()))
            ratios.append(num / den)
        assert max(ratios) <= 5.0


def test_qh_linf_bound(unit_square, rng):
    # per-element sup of the recovered gradient against the broken gradient
    # over the patch
    mesh = build_structured_mesh(unit_square, (5, 5), "simplex")
    for _ in range(10):
        coeffs = rng.normal(size=mesh.n_vertices)
        rec = quasi_project_gradient(mesh, coeffs)
        # elementwise gradients are constant per simplex
        eids = np.arange(mesh.n_elements)
        refc = np.tile([1.0 / 3.0, 1.0 / 3.0], (mesh.n_elements, 1))
        grads = fe_gradient_on_elements(mesh, coeffs, eids, refc)
        for e in range(0, mesh.n_elements, 9):
            members = list(element_patch(mesh, e).members)
            patch_max = np.abs(grads[members]).max()
            verts = mesh.elements[e]
            rec_max = np.abs(rec[:, verts]).max()
            assert rec_max <= 5.0 * patch_max + 1e-12


def test_p_norm_positivity(mesh8, sites, rng):
    data = ScatteredData(sites, np.zeros(len(sites)))
    from fetps.assembly import assemble_system
    from fetps.system import condense

    blocks = assemble_system(mesh8, data)
    S = condense(blocks, 1e-3).matrix
    for _ in range(100):
        v = rng.normal(size=mesh8.n_vertices)
        assert float(v @ (S @ v)) > 0.0


def test_smoother_persistence_round_trip(tmp_path, mesh8, sites, rng):
    data = ScatteredData(sites, np.sin(sites[:, 0]))
    s = fit(data, mesh8, FitConfig(alpha=1e-3))
    path = tmp_path / "model.json"
    s.save(path)
    loaded = Smoother.load(path)
    pts = rng.uniform(0, 1, (20, 2))
    assert np.abs(loaded.evaluate(pts) - s.evaluate(pts)).max() < 1e-15
    assert np.abs(loaded.evaluate_gradient(pts) - s.evaluate_gradient(pts)).max() < 1e-15
    assert loaded.alpha == s.alpha
    assert loaded.iterations == s.iterations


def test_smoother_load_rejects_corrupt(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"format\": \"something-else\"}")
    with pytest.raises(DataFormatError):
        Smoother.load(path)
    path.write_text("not json at all")
    with pytest.raises(DataFormatError):
        Smoother.load(path)


@pytest.mark.parametrize("content", [
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-past-recursion-limit"),
    pytest.param(b'{"format": "fetps-smoother\xff"}', id="not-utf-8"),
])
def test_smoother_load_rejects_undecodable_json(tmp_path, content):
    # the decoder raises RecursionError and UnicodeDecodeError for these
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match="invalid smoother JSON"):
        Smoother.load(path)


def random_smoother(kind, box, rng):
    mesh = small_mesh(kind, box)
    return Smoother(mesh, rng.normal(size=mesh.n_vertices),
                    rng.normal(size=(mesh.dim, mesh.n_vertices)), None, 0.5)


def probe_points(mesh, rng):
    """Random points plus every vertex (ties between elements)."""
    lo, hi = mesh.domain.lower, mesh.domain.upper
    return np.vstack([lo + rng.uniform(size=(200, mesh.dim)) * (hi - lo), mesh.vertices])


@pytest.mark.parametrize("kind,box", SMALL_MESHES)
def test_model_round_trip_is_bit_identical(tmp_path, kind, box, rng):
    s = random_smoother(kind, box, rng)
    path = tmp_path / "model.json"
    s.save(path)
    data = json.loads(path.read_text())
    assert set(data) == {"format", "version", "alpha", "mesh", "u", "sigma", "diagnostics"}
    assert set(data["mesh"]) == {"kind", "dim", "structured"}
    loaded = Smoother.load(path)
    assert loaded.phi is None
    assert np.array_equal(loaded.mesh.vertices, s.mesh.vertices)
    assert np.array_equal(loaded.mesh.elements, s.mesh.elements)
    pts = probe_points(s.mesh, rng)
    assert np.array_equal(loaded.evaluate(pts), s.evaluate(pts))
    assert np.array_equal(loaded.evaluate_gradient(pts), s.evaluate_gradient(pts))


@pytest.mark.parametrize("kind,box", SMALL_MESHES)
def test_evaluate_with_gradient_matches_separate_calls(kind, box, rng):
    s = random_smoother(kind, box, rng)
    pts = probe_points(s.mesh, rng)
    values, grads = s.evaluate_with_gradient(pts)
    assert np.array_equal(values, s.evaluate(pts))
    assert np.array_equal(grads, s.evaluate_gradient(pts))


def version_1_dict(s):
    """The model layout written before version 2: phi, vertices and elements."""
    data = s.to_dict()
    data["version"] = 1
    data["phi"] = s.phi.tolist()
    data["mesh"] = {"kind": s.mesh.kind, "dim": s.mesh.dim,
                    "vertices": s.mesh.vertices.tolist(),
                    "elements": s.mesh.elements.tolist(),
                    "structured": data["mesh"]["structured"]}
    return json.loads(json.dumps(data))


def test_smoother_loads_version_1_models(franke_fit, rng):
    s = franke_fit[3]
    loaded = Smoother.from_dict(version_1_dict(s))
    pts = probe_points(s.mesh, rng)
    assert np.array_equal(loaded.evaluate(pts), s.evaluate(pts))
    assert np.array_equal(loaded.evaluate_gradient(pts), s.evaluate_gradient(pts))
    assert (loaded.alpha, loaded.iterations, loaded.residual) == (
        s.alpha, s.iterations, s.residual)


def test_smoother_load_checks_grid_before_building_mesh(franke_fit, monkeypatch):
    # a 1e5 x 1e5 grid would allocate 1e10 vertices before any shape check
    def no_build(*args):
        raise AssertionError("mesh built before the coefficients were checked")

    monkeypatch.setattr("fetps.model.build_structured_mesh", no_build)
    data = json.loads(json.dumps(franke_fit[3].to_dict()))
    data["mesh"]["structured"]["cells_per_axis"] = [100_000, 100_000]
    with pytest.raises(DataFormatError, match="shape"):
        Smoother.from_dict(data)


@pytest.fixture(scope="module")
def franke_fit():
    mesh = build_structured_mesh(Domain(np.zeros(2), np.ones(2)), (8, 8), "simplex")
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.02, 0.98, (40, 2))
    z = get_field("franke", 2).value(pts) + 0.01 * rng.normal(size=40)
    s = fit(ScatteredData(pts, z), mesh, FitConfig(alpha=1e-3), solver=TIGHT)
    return mesh, pts, z, s


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-100, 100))
@example(k=-16)
def test_fit_is_linear_in_z_across_scales(franke_fit, k):
    # the solve is tight so that the comparison is not limited by rtol;
    # beyond about 1e+-150 the norms themselves under- or overflow
    mesh, pts, z, base = franke_fit
    scale = 10.0 ** k
    s = fit(ScatteredData(pts, z * scale), mesh, FitConfig(alpha=1e-3), solver=TIGHT)
    assert np.abs(s.u / scale - base.u).max() <= 1e-12 * np.abs(base.u).max()


@pytest.mark.parametrize("name,mutate", [
    pytest.param("u", lambda a: a[:-3], id="u-truncated"),
    pytest.param("u", lambda a: [a, a], id="u-2d"),
    pytest.param("sigma", lambda a: a[0], id="sigma-1d"),
    pytest.param("sigma", lambda a: [row[:-1] for row in a], id="sigma-short-rows"),
    pytest.param("mesh", lambda m: {**m, "structured": {**m["structured"],
                                                         "cells_per_axis": [9, 8]}},
                 id="u-length-vs-cells"),
    pytest.param("mesh", lambda m: {**m, "kind": "prism"}, id="mesh-bad-kind"),
    pytest.param("u", lambda a: [float("nan")] + a[1:], id="u-nan"),
    pytest.param("sigma", lambda a: [[float("inf")] + a[0][1:]] + a[1:], id="sigma-inf"),
    pytest.param("alpha", lambda a: float("nan"), id="alpha-nan"),
    pytest.param("alpha", lambda a: float("inf"), id="alpha-inf"),
    pytest.param("alpha", lambda a: -1.0, id="alpha-negative"),
    pytest.param("alpha", lambda a: 0, id="alpha-zero"),
    pytest.param("alpha", lambda a: True, id="alpha-bool"),
    pytest.param("alpha", lambda a: "1e-3", id="alpha-string"),
    pytest.param("alpha", lambda a: 10 ** 400, id="alpha-huge-int"),
    pytest.param("diagnostics", lambda d: {**d, "iterations": float("inf")},
                 id="iterations-inf"),
    pytest.param("diagnostics", lambda d: {**d, "iterations": -1}, id="iterations-negative"),
    pytest.param("diagnostics", lambda d: {**d, "iterations": 3.5}, id="iterations-float"),
    pytest.param("diagnostics", lambda d: {**d, "iterations": True}, id="iterations-bool"),
    pytest.param("diagnostics", lambda d: {**d, "residual": float("nan")}, id="residual-nan"),
    pytest.param("diagnostics", lambda d: {**d, "residual": -1e-3}, id="residual-negative"),
    pytest.param("diagnostics", lambda d: {**d, "residual": "0"}, id="residual-string"),
])
def test_smoother_load_rejects_inconsistent_coefficients(franke_fit, name, mutate):
    data = json.loads(json.dumps(franke_fit[3].to_dict()))
    data[name] = mutate(data[name])
    with pytest.raises(DataFormatError):
        Smoother.from_dict(data)


def test_fit_3d_smoke(unit_cube, rng):
    mesh = build_structured_mesh(unit_cube, (2, 2, 2), "simplex")
    pts = rng.uniform(0.05, 0.95, (40, 3))
    ell = lambda p: 0.1 + p[:, 0] - 2.0 * p[:, 1] + 0.5 * p[:, 2]
    data = ScatteredData(pts, ell(pts))
    s = fit(data, mesh, FitConfig(alpha=1e-2), solver=TIGHT)
    assert np.abs(s.u - lagrange_interpolate(mesh, ell)).max() < 1e-8
    assert np.abs(s.sigma[2] - 0.5).max() < 1e-8
