"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import element_volumes, solve_saddle_dense
from fetps.assembly import ScatteredData, assemble_gram_full, assemble_system
from fetps.errors import SingularSystemError
from fetps.fields import get_field
from fetps.mesh import Domain, build_structured_mesh, refine_uniform
from fetps.smoother import (
    FitConfig,
    energy_norm_difference,
    fit,
    functional_value,
    lagrange_interpolate,
)
from fetps.study import (
    ls_order,
    quasi_projection_errors,
    sample_scattered,
    superconvergence_error,
)
from fetps.system import SolverConfig, condense

UNIT_SQUARE = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
UNIT_CUBE = Domain(np.zeros(3), np.ones(3))

# fitted models accumulated by earlier criteria; criterion 8 re-checks all
FITTED = []


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL "
              f"[{time.perf_counter() - start:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_1_biorthogonality():
    cases = [
        (UNIT_SQUARE, (4, 4), "simplex", 3.0),
        (UNIT_SQUARE, (4, 4), "parallelotope", 4.0),
        (UNIT_CUBE, (2, 2, 2), "simplex", 4.0),
        (UNIT_CUBE, (2, 2, 2), "parallelotope", 8.0),
    ]
    with criterion(1, "biorthogonality", 5.0):
        for domain, cells, kind, divisor in cases:
            mesh = build_structured_mesh(domain, cells, kind)
            for _ in range(2):
                gram = assemble_gram_full(mesh)
                c = gram.diagonal()
                off = gram - sp.diags(c)
                max_off = np.abs(off.data).max() if off.nnz else 0.0
                assert max_off < 1e-13 * c.max(), (kind, mesh.cells_per_axis)
                assert (c > 0).all()
                support = np.zeros(mesh.n_vertices)
                for e, volume in enumerate(element_volumes(mesh)):
                    support[mesh.elements[e]] += volume
                assert np.abs(c - support / divisor).max() <= 1e-12 * support.max()
                mesh = refine_uniform(mesh)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence", 5.0):
        mesh = build_structured_mesh(UNIT_SQUARE, (2, 2), "simplex")
        rng = np.random.default_rng(42)
        pts = rng.uniform(0.0, 1.0, (20, 2))
        zs = np.sin(2.0 * pts[:, 0]) + np.cos(3.0 * pts[:, 1])
        data = ScatteredData(pts, zs)
        blocks = assemble_system(mesh, data)
        for alpha in (1e-4, 1e-2, 1.0):
            s = fit(data, mesh, FitConfig(alpha), solver=SolverConfig(rtol=1e-12))
            dense = solve_saddle_dense(blocks, alpha)
            for ours, oracle in ((s.u, dense.u), (s.sigma, dense.sigma),
                                 (s.phi, dense.phi)):
                rel = np.linalg.norm(ours - oracle) / np.linalg.norm(oracle)
                assert rel < 1e-8, (alpha, rel)


def test_criterion_3_exact_reproduction():
    with criterion(3, "exact affine reproduction", 10.0):
        mesh = build_structured_mesh(UNIT_SQUARE, (8, 8), "simplex")
        rng = np.random.default_rng(7)
        sites = rng.uniform(0.0, 1.0, (40, 2))
        solver = SolverConfig(rtol=1e-13)
        for _ in range(5):
            coef = rng.uniform(-2.0, 2.0, size=3)
            ell = lambda p: coef[0] + p @ coef[1:]
            data = ScatteredData(sites, ell(sites))
            expected = lagrange_interpolate(mesh, ell)
            for alpha in (1e-6, 1.0, 1e6):
                s = fit(data, mesh, FitConfig(alpha), solver=solver)
                assert np.abs(s.u - expected).max() < 1e-8, alpha
                assert np.abs(s.sigma[0] - coef[1]).max() < 1e-8
                assert np.abs(s.sigma[1] - coef[2]).max() < 1e-8
                FITTED.append((s, data))


def test_criterion_4_superconvergence_triangles():
    # Global L2 rate of the recovered interpolant gradient on simplicial
    # meshes. The recovery is exact for quadratics at every vertex: on the
    # symmetric interior patches by symmetry, at the boundary through the
    # modified dual basis, so the measured order is 2.
    fld = get_field("sin-product", 2)
    with criterion(4, "superconvergence order on triangles", 30.0):
        errs, hs = [], []
        for cells in (8, 16, 32, 64):
            mesh = build_structured_mesh(UNIT_SQUARE, (cells, cells), "simplex")
            errs.append(superconvergence_error(mesh, fld))
            hs.append(mesh.h)
        order = ls_order(hs, errs)
        print(f"  measured superconvergence errors: "
              + ", ".join(f"{e:.3e}" for e in errs) + f"; order {order:.3f}")
        assert 1.8 <= order <= 2.2, f"measured order {order:.3f}"


def test_criterion_5_quasi_projection_rates():
    fld = get_field("sin-product", 2)
    with criterion(5, "quasi-projection L2/H1 rates", 30.0):
        l2s, h1s, hs = [], [], []
        for cells in (8, 16, 32, 64):
            mesh = build_structured_mesh(UNIT_SQUARE, (cells, cells), "simplex")
            l2, h1 = quasi_projection_errors(mesh, fld)
            l2s.append(l2)
            h1s.append(h1)
            hs.append(mesh.h)
        l2_order = ls_order(hs, l2s)
        h1_order = ls_order(hs, h1s)
        print(f"  L2 order {l2_order:.3f}, H1 order {h1_order:.3f}")
        assert 1.8 <= l2_order <= 2.2
        assert 0.8 <= h1_order <= 1.2


def test_criterion_6_a_priori_rate_proxy():
    fld = get_field("franke", 2)
    alpha = 1e-3
    with criterion(6, "energy-norm rate proxy", 60.0):
        data = sample_scattered(fld, UNIT_SQUARE, 2000, seed=123)
        smoothers = []
        for cells in (8, 16, 32, 64):
            mesh = build_structured_mesh(UNIT_SQUARE, (cells, cells), "simplex")
            s = fit(data, mesh, FitConfig(alpha))
            smoothers.append(s)
            FITTED.append((s, data))
        errs, hs = [], []
        for coarse, fine in zip(smoothers, smoothers[1:]):
            errs.append(energy_norm_difference(coarse, fine, data.points, alpha))
            hs.append(coarse.mesh.h)
        order = ls_order(hs, errs)
        print(f"  successive energy differences: "
              + ", ".join(f"{e:.3e}" for e in errs) + f"; order {order:.3f}")
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert order >= 0.8


def test_criterion_7_spd_and_wellposedness():
    with criterion(7, "SPD and well-posedness", 10.0):
        # 9x9 cells -> exactly 100 vertices
        mesh = build_structured_mesh(UNIT_SQUARE, (9, 9), "simplex")
        assert mesh.n_vertices == 100
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, (60, 2))
        data = ScatteredData(pts, rng.normal(size=60))
        blocks = assemble_system(mesh, data)
        S = condense(blocks, 1e-2).matrix.toarray()
        w = np.linalg.eigvalsh(S)
        assert w[0] > 0.0
        # collinear sites: the dense oracle must flag singularity, and the
        # reduced operator acquires a near-null direction
        line = np.column_stack([np.linspace(0.05, 0.95, 60), np.full(60, 0.4)])
        bad = ScatteredData(line, np.zeros(60))
        small_mesh = build_structured_mesh(UNIT_SQUARE, (3, 3), "simplex")
        bad_blocks = assemble_system(small_mesh, bad)
        with pytest.raises(SingularSystemError):
            solve_saddle_dense(bad_blocks, 1e-2)
        bad_full = assemble_system(mesh, bad)
        wb = np.linalg.eigvalsh(condense(bad_full, 1e-2).matrix.toarray())
        assert wb[0] <= 1e-10 * np.abs(wb).max()


def test_criterion_8_energy_identity_and_minimality():
    rng = np.random.default_rng(99)
    with criterion(8, "energy identity and minimality", 60.0):
        # add fits over the other mesh families to the registry
        extra = [
            (build_structured_mesh(UNIT_SQUARE, (6, 6), "parallelotope"), 2),
            (build_structured_mesh(UNIT_CUBE, (2, 2, 2), "simplex"), 3),
            (build_structured_mesh(UNIT_CUBE, (2, 2, 2), "parallelotope"), 3),
        ]
        for mesh, dim in extra:
            pts = rng.uniform(0.05, 0.95, (50, dim))
            data = ScatteredData(pts, np.sin(2 * pts[:, 0]) + pts[:, 1] ** 2)
            FITTED.append((fit(data, mesh, FitConfig(1e-2)), data))
        assert FITTED, "no fitted models registered by earlier criteria"
        for s, data in FITTED:
            # the block composition evaluates a(u, u) without the rounding
            # bias of the explicit triple products (visible at alpha = 1e6)
            au = float(s.u @ s.reduced.apply(s.u))
            fu = float(s.blocks.f @ s.u)
            assert au == pytest.approx(fu, rel=1e-8)
            J = functional_value(s, data)
            scale = max(abs(J), 1e-12)
            for _ in range(20):
                delta = rng.normal(0.0, 0.1, s.mesh.n_vertices)
                assert functional_value(s, data, s.u + delta) >= J - 1e-10 * scale
        print(f"  checked {len(FITTED)} fitted models")


def test_criterion_9_performance():
    fld = get_field("franke", 2)
    with criterion(9, "performance", 5.0):
        mesh = build_structured_mesh(UNIT_SQUARE, (64, 64), "simplex")
        assert mesh.n_vertices == 4225
        data = sample_scattered(fld, UNIT_SQUARE, 10000, seed=17, noise=0.01)
        start = time.perf_counter()
        s = fit(data, mesh, FitConfig(1e-3))
        elapsed = time.perf_counter() - start
        print(f"  fit wall time {elapsed:.2f}s, {s.iterations} CG iterations")
        assert elapsed < 5.0
        assert s.iterations < 10 * mesh.n_vertices
