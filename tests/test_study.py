import numpy as np
import pytest

from fetps.fields import CATALOG, get_field
from fetps.mesh import build_structured_mesh
from fetps.study import (
    StudyConfig,
    estimate_orders,
    ls_order,
    quasi_projection_errors,
    run_study,
    sample_scattered,
    superconvergence_error,
)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_field_gradients_match_finite_differences(name, rng):
    for dim in CATALOG[name].dims:
        fld = get_field(name, dim)
        pts = rng.uniform(0.1, 0.9, (30, dim))
        grad = np.asarray(fld.gradient(pts))
        step = 1e-6
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = step
            fd = (np.asarray(fld.value(pts + e)) - np.asarray(fld.value(pts - e))) / (2 * step)
            assert np.abs(fd - grad[:, k]).max() < 5e-8


def test_get_field_errors():
    with pytest.raises(ValueError):
        get_field("unknown", 2)
    with pytest.raises(ValueError):
        get_field("franke", 3)


def test_study_config_validation(unit_square):
    with pytest.raises(ValueError):
        StudyConfig(field="linear", domain=unit_square, levels=2)
    with pytest.raises(ValueError):
        StudyConfig(field="linear", domain=unit_square, levels=3, columns=("bogus",))


def test_study_config_rejects_too_few_data_for_fit_energy(unit_square):
    with pytest.raises(ValueError, match="n_data"):
        StudyConfig(field="linear", domain=unit_square, levels=3, n_data=2)
    # without the fit column the data are never sampled
    StudyConfig(field="linear", domain=unit_square, levels=3, n_data=0,
                columns=("qh_l2",))


def test_estimate_orders():
    assert estimate_orders([1.0, 0.25, 0.0625]) == [None, 2.0, 2.0]
    assert estimate_orders([None, 1.0, 0.5])[2] == pytest.approx(1.0)


def test_ls_order():
    hs = [0.4, 0.2, 0.1]
    errs = [0.16, 0.04, 0.01]
    assert ls_order(hs, errs) == pytest.approx(2.0)
    assert ls_order(hs, [None, None, 1.0]) is None


def test_linear_field_study_is_exact(unit_square):
    cfg = StudyConfig(field="linear", domain=unit_square, levels=3, base_cells=4,
                      alpha=1e-2, n_data=60, seed=5)
    rows = run_study(cfg)
    for row in rows:
        for col, err in row.errors.items():
            assert err < 1e-8, (row.level, col, err)


def test_qh_rates_for_smooth_field(unit_square):
    fld = get_field("sin-product", 2)
    l2s, h1s, hs = [], [], []
    cells = 8
    for _ in range(4):
        mesh = build_structured_mesh(unit_square, (cells, cells), "simplex")
        l2, h1 = quasi_projection_errors(mesh, fld)
        l2s.append(l2)
        h1s.append(h1)
        hs.append(mesh.h)
        cells *= 2
    assert 1.8 <= ls_order(hs, l2s) <= 2.2
    assert 0.8 <= ls_order(hs, h1s) <= 1.2


def test_superconvergence_rate_parallelotopes(unit_square):
    # the recovered interpolant gradient is second order up to the boundary
    # with the boundary-modified duals; this field's normal second
    # derivative vanishes on the boundary, so the standard duals reached
    # order 2 here as well
    fld = get_field("sin-product", 2)
    errs, hs = [], []
    cells = 8
    for _ in range(4):
        mesh = build_structured_mesh(unit_square, (cells, cells), "parallelotope")
        errs.append(superconvergence_error(mesh, fld))
        hs.append(mesh.h)
        cells *= 2
    assert 1.8 <= ls_order(hs, errs) <= 2.2


def test_superconvergence_triangles_interior_exactness_and_measured_rate(unit_square):
    # on simplices the recovery is exact for quadratics on the symmetric
    # interior patches and, through the modified duals, on the one-sided
    # boundary strips too, so the global rate is second order
    fld = get_field("sin-product", 2)
    errs, hs = [], []
    cells = 8
    for _ in range(4):
        mesh = build_structured_mesh(unit_square, (cells, cells), "simplex")
        errs.append(superconvergence_error(mesh, fld))
        hs.append(mesh.h)
        cells *= 2
    slope = ls_order(hs, errs)
    assert 1.8 <= slope <= 2.2
    # exactness for a global quadratic: the nodal recovery error vanishes
    # at every vertex, boundary included
    from fetps.smoother import lagrange_interpolate, quasi_project_gradient

    mesh = build_structured_mesh(unit_square, (8, 8), "simplex")
    q = lambda p: p[:, 0] ** 2 + p[:, 0] * p[:, 1]
    iu = lagrange_interpolate(mesh, q)
    rec = quasi_project_gradient(mesh, iu)
    exact = np.stack([2 * mesh.vertices[:, 0] + mesh.vertices[:, 1],
                      mesh.vertices[:, 0]], axis=1)
    assert np.abs(rec.T - exact).max() < 1e-12


def test_fit_energy_column_decays(unit_square):
    cfg = StudyConfig(field="gaussian-bump", domain=unit_square, levels=4,
                      base_cells=4, alpha=1e-3, n_data=400, seed=3,
                      columns=("fit_energy",))
    rows = run_study(cfg)
    errs = [r.errors.get("fit_energy") for r in rows]
    assert errs[0] is None
    vals = [e for e in errs if e is not None]
    assert len(vals) == 3
    assert vals[0] > vals[1] > vals[2]
    hs = [r.h for r in rows if r.errors.get("fit_energy") is not None]
    assert ls_order(hs, vals) >= 0.8


def test_sample_scattered_deterministic(unit_square):
    fld = get_field("franke", 2)
    a = sample_scattered(fld, unit_square, 50, seed=9, noise=0.05)
    b = sample_scattered(fld, unit_square, 50, seed=9, noise=0.05)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.values, b.values)
    c = sample_scattered(fld, unit_square, 50, seed=9, noise=0.0)
    assert np.array_equal(c.values, fld.value(c.points))


def test_superconvergence_column_independent_of_seed(unit_square):
    # the column never touches the scattered data, so reseeding is inert
    base = None
    for seed in (1, 2, 3):
        cfg = StudyConfig(field="sin-product", domain=unit_square, levels=3,
                          base_cells=8, seed=seed, columns=("superconvergence",))
        rows = run_study(cfg)
        errs = [r.errors["superconvergence"] for r in rows]
        if base is None:
            base = errs
        else:
            assert errs == base


def test_run_study_on_row_callback(unit_square):
    cfg = StudyConfig(field="linear", domain=unit_square, levels=3, base_cells=2,
                      alpha=1e-2, n_data=30, seed=1, columns=("qh_l2",))
    seen = []
    run_study(cfg, on_row=seen.append)
    assert [r.level for r in seen] == [0, 1, 2]
