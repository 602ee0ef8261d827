"""Convergence-study harness: error columns over uniform refinement levels.

Columns
-------
superconvergence : ||grad u - Q(grad I_h u)||_L2 against the analytic grad u
qh_l2, qh_h1     : L2 and H1 errors of u - Q u
fit_energy       : energy norm of successive-level fit differences
                   ||(u_h - u_{h/2}, sigma_h - sigma_{h/2})||_A

The fitting column compares consecutive levels because the continuous
minimizer has no closed form; its orders are therefore Richardson-style
self-referential estimates, which is reported as such by the CLI. Each
level halves the cells of the one before, so the coarser fit lies in the
finer FE space and the norm is the exact block form on the finer mesh
(`energy_norm_difference`).
"""

import numpy as np
from dataclasses import dataclass, field

from .assembly import ScatteredData
from .fields import get_field
from .mesh import Domain, build_structured_mesh, refine_uniform
from .smoother import (
    FitConfig,
    element_quadrature,
    energy_norm_difference,
    fe_at_quadrature,
    fit,
    lagrange_interpolate,
    quasi_project,
    quasi_project_gradient,
)

ALL_COLUMNS = ("superconvergence", "qh_l2", "qh_h1", "fit_energy")
STUDY_QUAD_DEGREE = 7


@dataclass(frozen=True)
class StudyConfig:
    """Settings for one refinement study."""

    field: str
    domain: Domain
    levels: int
    base_cells: int = 8
    kind: str = "simplex"
    alpha: float = 1e-3
    n_data: int = 2000
    seed: int = 0
    columns: tuple = ALL_COLUMNS

    def __post_init__(self):
        if self.levels < 3:
            raise ValueError("need at least 3 levels to estimate orders")
        FitConfig(self.alpha)  # alpha must be finite and positive
        unknown = set(self.columns) - set(ALL_COLUMNS)
        if unknown:
            raise ValueError(f"unknown study columns: {sorted(unknown)}")
        if "fit_energy" in self.columns and self.n_data < self.domain.dim + 1:
            raise ValueError(
                f"fit_energy needs n_data >= {self.domain.dim + 1}, got {self.n_data}"
            )


@dataclass
class StudyRow:
    level: int
    h: float
    errors: dict = field(default_factory=dict)
    orders: dict = field(default_factory=dict)


def superconvergence_error(mesh, fld):
    """L2 distance between the analytic gradient and the recovered
    gradient of the vertex interpolant."""
    rec = quasi_project_gradient(mesh, lagrange_interpolate(mesh, fld.value))
    rule, points, weights = element_quadrature(mesh, STUDY_QUAD_DEGREE)
    exact = np.asarray(fld.gradient(points.reshape(-1, mesh.dim))).T
    rec_at, _ = fe_at_quadrature(mesh, rec, rule)  # (d, e, q)
    diff2 = ((exact.reshape(rec_at.shape) - rec_at) ** 2).sum(axis=0)
    return float(np.sqrt(np.sum(weights * diff2)))


def quasi_projection_errors(mesh, fld):
    """(L2, H1) errors of the dual-moment projection of the field."""
    q = quasi_project(mesh, fld.value, degree=STUDY_QUAD_DEGREE)
    rule, points, weights = element_quadrature(mesh, STUDY_QUAD_DEGREE)
    flat = points.reshape(-1, mesh.dim)
    qvals, qgrads = fe_at_quadrature(mesh, q, rule)
    uvals = np.asarray(fld.value(flat)).reshape(qvals.shape)
    gexact = np.asarray(fld.gradient(flat)).reshape(qgrads.shape)
    l2sq = float(np.sum(weights * (uvals - qvals) ** 2))
    h1sq = l2sq + float(np.sum(weights * ((gexact - qgrads) ** 2).sum(axis=2)))
    return float(np.sqrt(l2sq)), float(np.sqrt(h1sq))


def sample_scattered(fld, domain, n, seed, noise=0.0):
    """Seeded uniform sites in the domain with field values (plus noise).

    noise is the standard deviation of the added Gaussian noise; it must be
    finite and >= 0 (ValueError otherwise).
    """
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(domain.lower, domain.upper, size=(n, domain.dim))
    vals = np.asarray(fld.value(pts), dtype=float)
    if noise > 0:
        vals = vals + rng.normal(0.0, noise, size=n)
    return ScatteredData(pts, vals)


def estimate_orders(errors):
    """log2 ratios of consecutive errors; None where undefined."""
    orders = [None]
    for a, b in zip(errors, errors[1:]):
        if a is None or b is None or a <= 0 or b <= 0:
            orders.append(None)
        else:
            orders.append(float(np.log2(a / b)))
    return orders


def ls_order(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    pairs = [(h, e) for h, e in zip(hs, errors) if e is not None and e > 0]
    if len(pairs) < 2:
        return None
    hs, es = zip(*pairs)
    return float(np.polyfit(np.log(np.array(hs)), np.log(np.array(es)), 1)[0])


def run_study(config, on_row=None):
    """Run every requested column across refinement levels.

    Returns the row list; `on_row(row)` fires as each level completes so a
    caller can flush partial output if a later level fails.
    """
    fld = get_field(config.field, config.domain.dim)
    meshes = []
    mesh = build_structured_mesh(
        config.domain, (config.base_cells,) * config.domain.dim, config.kind
    )
    for _ in range(config.levels):
        meshes.append(mesh)
        mesh = refine_uniform(mesh)

    want_fit = "fit_energy" in config.columns
    data = None
    if want_fit:
        data = sample_scattered(fld, config.domain, config.n_data, config.seed)

    rows = [StudyRow(level=i, h=m.h) for i, m in enumerate(meshes)]
    smoothers = []
    for i, m in enumerate(meshes):
        row = rows[i]
        if "superconvergence" in config.columns:
            row.errors["superconvergence"] = superconvergence_error(m, fld)
        if "qh_l2" in config.columns or "qh_h1" in config.columns:
            l2, h1 = quasi_projection_errors(m, fld)
            if "qh_l2" in config.columns:
                row.errors["qh_l2"] = l2
            if "qh_h1" in config.columns:
                row.errors["qh_h1"] = h1
        if want_fit:
            smoothers.append(fit(data, m, FitConfig(config.alpha)))
            if i > 0:
                row.errors["fit_energy"] = energy_norm_difference(
                    smoothers[i - 1], smoothers[i], data.points, config.alpha
                )
        _fill_orders(rows[: i + 1], config.columns)
        if on_row is not None:
            on_row(row)
    return rows


def _fill_orders(rows, columns):
    for col in columns:
        errs = [r.errors.get(col) for r in rows]
        orders = estimate_orders(errs)
        for r, o in zip(rows, orders):
            if col in r.errors:
                r.orders[col] = o
