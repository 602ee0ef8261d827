"""Thin plate spline smoothing of scattered data by a stabilized mixed FEM.

The smoother and its gradient are discretized with continuous linear or
multilinear finite elements; a biorthogonal dual basis makes the coupling
Gram matrix diagonal, so the gradient and multiplier unknowns condense out
into one sparse symmetric positive definite system in the smoother alone.

Sampling data and loading and evaluating a fitted model need numpy only.
`import fetps` loads the mesh, element, field (with `ScatteredData`) and
error modules and the model (`Smoother`, `FitConfig`, `fe_value`), and no
scipy. The names of `assembly`, `system` and `study`, and `smoother`'s
`fit`, `energy_norm*`, `functional_value`, `quasi_project*` and
`lagrange_interpolate`, import scipy on first use. So does the first call
of `quadrature`.
"""

from importlib import import_module as _import_module

from .elements import ElementPair, QuadratureRule, make_element_pair, quadrature
from .errors import (
    BiorthogonalityError,
    DataFormatError,
    NoConvergenceError,
    OutOfDomainError,
    SingularSystemError,
)
from .fields import CATALOG, AnalyticField, ScatteredData, get_field
from .mesh import (
    Domain,
    Mesh,
    build_structured_mesh,
    locate_points,
    mesh_to_dict,
    refine_uniform,
)
from .model import FitConfig, Smoother, fe_value

__version__ = "0.1.0"

# The scipy-backed submodules and their names, imported on first access
# through the module `__getattr__` below (PEP 562).
_FIT_SIDE = {
    "assembly": ("SystemBlocks", "assemble_data_term", "assemble_gram_diagonal",
                 "assemble_gram_full", "assemble_grad_coupling", "assemble_mass",
                 "assemble_stiffness", "assemble_system", "evaluation_matrix"),
    "smoother": ("energy_norm", "energy_norm_difference", "fit", "functional_value",
                 "lagrange_interpolate", "quasi_project", "quasi_project_gradient"),
    "study": ("StudyConfig", "StudyRow", "estimate_orders", "ls_order", "run_study"),
    "system": ("ReducedOperator", "SolutionTriple", "SolverConfig", "condense",
               "recover_auxiliary", "solve_reduced"),
}
_LAZY = {name: module for module, names in _FIT_SIDE.items() for name in (module, *names)}

# `model` is an implementation module; its public names are exported above
__all__ = [name for name in dir() if not name.startswith("_") and name != "model"] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
