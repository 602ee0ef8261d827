"""Thin plate spline smoothing of scattered data by a stabilized mixed FEM.

The smoother and its gradient are discretized with continuous linear or
multilinear finite elements; a biorthogonal dual basis makes the coupling
Gram matrix diagonal, so the gradient and multiplier unknowns condense out
into one sparse symmetric positive definite system in the smoother alone.
"""

from .assembly import (
    ScatteredData,
    SystemBlocks,
    assemble_data_term,
    assemble_gram_diagonal,
    assemble_gram_full,
    assemble_grad_coupling,
    assemble_mass,
    assemble_stiffness,
    assemble_system,
    evaluation_matrix,
)
from .elements import ElementPair, QuadratureRule, make_element_pair, quadrature
from .errors import (
    BiorthogonalityError,
    DataFormatError,
    NoConvergenceError,
    OutOfDomainError,
    SingularSystemError,
)
from .fields import CATALOG, AnalyticField, get_field
from .mesh import (
    Domain,
    Mesh,
    build_structured_mesh,
    locate_points,
    mesh_to_dict,
    refine_uniform,
)
from .smoother import (
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
from .study import StudyConfig, StudyRow, estimate_orders, ls_order, run_study
from .system import (
    ReducedOperator,
    SolutionTriple,
    SolverConfig,
    condense,
    recover_auxiliary,
    solve_reduced,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
