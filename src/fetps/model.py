"""The fitted model: `Smoother`, its evaluation and its JSON file format.

Loading and evaluating a model needs only vertex coefficients and the
closed-form point location of `mesh`, no sparse algebra, so this module
imports no scipy. Fitting lives in `smoother`.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .mesh import build_structured_mesh, grid_from_dict, locate_points, mesh_to_dict

SMOOTHER_FORMAT = "fetps-smoother"
SMOOTHER_VERSION = 2


@dataclass(frozen=True)
class FitConfig:
    """Smoothing weight for the curvature penalty."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")


class Smoother:
    """Fitted smoothing spline: coefficients plus recovered gradient field.

    `u` holds vertex coefficients of the smoother, `sigma` the recovered
    (continuous) gradient components, `phi` the Lagrange multiplier
    components. Evaluation needs only `u` and `sigma`, so a model file keeps
    no `phi` and a loaded smoother has `phi = None`. Instances are immutable
    and safe for concurrent evaluation.
    """

    def __init__(self, mesh, u, sigma, phi, alpha, iterations=0, residual=0.0,
                 blocks=None, reduced=None):
        self.mesh = mesh
        self.u = np.asarray(u, dtype=float).copy()
        self.sigma = np.asarray(sigma, dtype=float).copy()
        self.phi = None if phi is None else np.asarray(phi, dtype=float).copy()
        self.alpha = float(alpha)
        self.iterations = int(iterations)
        self.residual = float(residual)
        self.blocks = blocks
        self.reduced = reduced
        for arr in (self.u, self.sigma, self.phi):
            if arr is not None:
                arr.setflags(write=False)

    def evaluate(self, points):
        """Smoother values u_h(x) at arbitrary in-domain points."""
        return fe_value(self.mesh, self.u, points)

    def evaluate_gradient(self, points):
        """Recovered gradient sigma_h(x): continuous across element faces."""
        return np.stack(_fe_values(self.mesh, self.sigma, points), axis=1)

    def evaluate_with_gradient(self, points):
        """(u_h(x), sigma_h(x)) from one point location.

        Bit for bit the results of `evaluate` and `evaluate_gradient`.
        """
        value, *grad = _fe_values(self.mesh, [self.u, *self.sigma], points)
        return value, np.stack(grad, axis=1)

    def to_dict(self):
        """JSON-ready model, format version 2: alpha, the grid, u and sigma.

        The mesh is stored as its structured grid (`mesh_to_dict`) and
        rebuilt on load; phi is not stored.
        """
        return {
            "format": SMOOTHER_FORMAT,
            "version": SMOOTHER_VERSION,
            "alpha": self.alpha,
            "mesh": mesh_to_dict(self.mesh),
            "u": self.u.tolist(),
            "sigma": self.sigma.tolist(),
            "diagnostics": {"iterations": self.iterations, "residual": self.residual},
        }

    def save(self, path):
        # json.dumps encodes in C; json.dump would stream through the
        # pure-Python encoder, several times slower on large models.
        text = json.dumps(self.to_dict())
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    @classmethod
    def from_dict(cls, data):
        """Smoother of a version 1 or 2 model dict; raises DataFormatError.

        Version 1 also stored phi and the mesh's vertices and elements;
        they are ignored, and the mesh is rebuilt from its grid. u and sigma
        are checked against the grid's vertex count before the mesh is
        built, so a corrupt grid cannot make the load allocate a huge mesh.
        """
        if not isinstance(data, dict):
            raise DataFormatError("smoother file must hold a JSON object")
        if data.get("format") != SMOOTHER_FORMAT:
            raise DataFormatError(f"not a smoother file (format={data.get('format')!r})")
        if data.get("version") not in (1, SMOOTHER_VERSION):
            raise DataFormatError(f"unsupported smoother version {data.get('version')!r}")
        try:
            domain, cells, kind = grid_from_dict(data["mesh"])
            n, d = math.prod(c + 1 for c in cells), domain.dim
            fields = {k: np.asarray(data[k], dtype=float) for k in ("u", "sigma")}
            for name, shape in (("u", (n,)), ("sigma", (d, n))):
                if fields[name].shape != shape or not np.isfinite(fields[name]).all():
                    raise DataFormatError(f"smoother {name} must be finite with shape "
                                          f"{shape}, got shape {fields[name].shape}")
            diag = data.get("diagnostics", {})
            if not isinstance(diag, dict):
                raise DataFormatError("smoother diagnostics must be a JSON object")
            alpha = data["alpha"]
            iterations = diag.get("iterations", 0)
            residual = diag.get("residual", 0.0)
            if not (_finite_number(alpha) and alpha > 0):
                raise DataFormatError(f"smoother alpha must be a finite number > 0, got {alpha!r}")
            if type(iterations) is not int or iterations < 0:
                raise DataFormatError(
                    f"smoother iterations must be an integer >= 0, got {iterations!r}")
            if not (_finite_number(residual) and residual >= 0):
                raise DataFormatError(
                    f"smoother residual must be a finite number >= 0, got {residual!r}")
            return cls(
                mesh=build_structured_mesh(domain, cells, kind),
                **fields,
                phi=None,
                alpha=alpha,
                iterations=iterations,
                residual=residual,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, DataFormatError):
                raise
            raise DataFormatError(f"invalid smoother description: {exc}") from exc

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            # nesting deeper than the decoder's recursion limit, or bytes
            # that are not UTF-8, are bad input like any other JSON error
            except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
                raise DataFormatError(f"invalid smoother JSON: {exc}") from exc
        return cls.from_dict(data)


def _finite_number(value):
    """True for a finite JSON number: an int or a float, not a bool."""
    return type(value) in (int, float) and math.isfinite(value)


def fe_value(mesh, coeffs, points):
    """Evaluate the FE function with the given vertex coefficients."""
    return _fe_values(mesh, [coeffs], points)[0]


def _fe_values(mesh, coeff_rows, points):
    """Values of several FE functions at the same points, located once.

    Returns one (m,) array per vertex-coefficient vector in `coeff_rows`.
    Each is summed on its own (m, n_loc) table: a stacked (k, m, n_loc)
    sum rounds differently on hexahedra.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eids, refs = locate_points(mesh, pts)
    vals = mesh.element_pair.nodal_eval(refs)
    conn = mesh.elements[eids]
    return [(vals * np.asarray(c)[conn]).sum(axis=1) for c in coeff_rows]
