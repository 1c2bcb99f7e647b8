"""Upwind-pair derivative operators for 1D advection-diffusion with IMEX stepping."""

from .imex import (
    EnergyTrace,
    ImexSplitProblem,
    ImexTableau,
    SolverFailure,
    Stepper,
    integrate,
    solve_implicit_stage,
    step,
    tableau_by_name,
    tableau_imex1,
    tableau_imex2,
    tableau_imex3,
)
from .mesh import Mesh1D, physical_nodes, uniform_mesh
from .operators import (
    CertificationReport,
    GlobalOperatorSet,
    SecondDerivativeOperator,
    assemble_first_derivative,
    interface_jumps,
    second_derivative_from,
    verify_axioms,
)
from .problems import (
    AdvDiffConfig,
    Discretization,
    ManufacturedSolution,
    burgers_rhs,
    decay_solution,
    discretize,
    growth_solution,
    initial_condition,
    l2_error,
    make_split_problem,
)
from .ref_element import ReferenceElement, build_lgl

__version__ = "0.1.0"
