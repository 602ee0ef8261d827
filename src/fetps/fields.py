"""Scattered data and the analytic fields that synthetic data is drawn from.

`ScatteredData` holds the measurement sites and values a fit takes, and
`sample_scattered` draws them from a catalog field. Every field exposes
`value(points)` and `gradient(points)` with points of shape (m, d), and
lists the dimensions it supports in `dims`; `franke` is the classic 2D
scattered-data test surface. The module needs numpy only.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScatteredData:
    """Measurement sites and values: z_i observed at points x_i."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        pts = np.atleast_2d(np.array(self.points, dtype=float))
        vals = np.array(self.values, dtype=float).ravel()
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values must have equal length")
        if pts.shape[1] not in (2, 3):
            raise ValueError("points must be in R^2 or R^3")
        if not (np.isfinite(pts).all() and np.isfinite(vals).all()):
            raise ValueError("points and values must be finite")
        pts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values)

    @property
    def dim(self):
        return self.points.shape[1]

    def affine_rank(self):
        """Dimension of the affine span of the sites."""
        centered = self.points - self.points.mean(axis=0)
        if len(centered) == 0:
            return 0
        s = np.linalg.svd(centered, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > 1e-12 * s[0]))

    def admissible(self):
        """True when the sites contain d+1 affinely independent points."""
        return self.n >= self.dim + 1 and self.affine_rank() == self.dim


@dataclass(frozen=True)
class AnalyticField:
    name: str
    value: object
    gradient: object
    dims: tuple


def _linear_value(p):
    p = np.atleast_2d(p)
    coef = np.array([1.25, -0.75, 0.5])[: p.shape[1]]
    return 0.5 + p @ coef


def _linear_gradient(p):
    p = np.atleast_2d(p)
    coef = np.array([1.25, -0.75, 0.5])[: p.shape[1]]
    return np.broadcast_to(coef, p.shape).copy()


def _quadratic_value(p):
    p = np.atleast_2d(p)
    v = p[:, 0] ** 2 + 0.5 * p[:, 0] * p[:, 1] - p[:, 1] ** 2 + 0.25 * p[:, 1]
    if p.shape[1] == 3:
        v = v + 0.5 * p[:, 2] ** 2 - 0.3 * p[:, 0] * p[:, 2]
    return v


def _quadratic_gradient(p):
    p = np.atleast_2d(p)
    gx = 2.0 * p[:, 0] + 0.5 * p[:, 1]
    gy = 0.5 * p[:, 0] - 2.0 * p[:, 1] + 0.25
    if p.shape[1] == 2:
        return np.stack([gx, gy], axis=1)
    gx = gx - 0.3 * p[:, 2]
    gz = p[:, 2] - 0.3 * p[:, 0]
    return np.stack([gx, gy, gz], axis=1)


def _sin_value(p):
    p = np.atleast_2d(p)
    return np.prod(np.sin(np.pi * p), axis=1)


def _sin_gradient(p):
    p = np.atleast_2d(p)
    s = np.sin(np.pi * p)
    c = np.cos(np.pi * p)
    out = np.empty_like(p)
    for k in range(p.shape[1]):
        others = np.prod(np.delete(s, k, axis=1), axis=1)
        out[:, k] = np.pi * c[:, k] * others
    return out


_BUMP_CENTER = 0.5
_BUMP_WIDTH = 0.15


def _bump_value(p):
    p = np.atleast_2d(p)
    r2 = ((p - _BUMP_CENTER) ** 2).sum(axis=1)
    return np.exp(-r2 / (2.0 * _BUMP_WIDTH ** 2))


def _bump_gradient(p):
    p = np.atleast_2d(p)
    v = _bump_value(p)
    return -(p - _BUMP_CENTER) / _BUMP_WIDTH ** 2 * v[:, None]


def _franke_terms(p):
    x, y = p[:, 0], p[:, 1]
    t1 = 0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4.0)
    t2 = 0.75 * np.exp(-((9 * x + 1) ** 2) / 49.0 - (9 * y + 1) / 10.0)
    t3 = 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4.0)
    t4 = -0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2)
    return t1, t2, t3, t4


def _franke_value(p):
    p = np.atleast_2d(p)
    t1, t2, t3, t4 = _franke_terms(p)
    return t1 + t2 + t3 + t4


def _franke_gradient(p):
    p = np.atleast_2d(p)
    x, y = p[:, 0], p[:, 1]
    t1, t2, t3, t4 = _franke_terms(p)
    gx = (
        t1 * (-4.5 * (9 * x - 2))
        + t2 * (-18.0 * (9 * x + 1) / 49.0)
        + t3 * (-4.5 * (9 * x - 7))
        + t4 * (-18.0 * (9 * x - 4))
    )
    gy = (
        t1 * (-4.5 * (9 * y - 2))
        + t2 * (-0.9)
        + t3 * (-4.5 * (9 * y - 3))
        + t4 * (-18.0 * (9 * y - 7))
    )
    return np.stack([gx, gy], axis=1)


CATALOG = {
    "linear": AnalyticField("linear", _linear_value, _linear_gradient, (2, 3)),
    "quadratic": AnalyticField("quadratic", _quadratic_value, _quadratic_gradient, (2, 3)),
    "sin-product": AnalyticField("sin-product", _sin_value, _sin_gradient, (2, 3)),
    "gaussian-bump": AnalyticField("gaussian-bump", _bump_value, _bump_gradient, (2, 3)),
    "franke": AnalyticField("franke", _franke_value, _franke_gradient, (2,)),
}


def get_field(name, dim):
    """Look up a catalog field, checking dimensional support."""
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown field {name!r}; available: {known}")
    f = CATALOG[name]
    if dim not in f.dims:
        raise ValueError(f"field {name!r} does not support dimension {dim}")
    return f


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
