"""Concrete PDE problems: linear advection-diffusion and viscous Burgers.

Every problem is posed on DOMAIN = (-pi, pi) with periodic boundary
conditions. The linear problem u_t + a u_x = c u_xx is semi-discretized as

    du/dt = -a D-(theta_adv) u + c D2(theta_diff) u,

with the advective part explicit and the diffusive part implicit. Two closed
form solutions drive the experiments: a decaying wave exp(-c t) sin(x - a t)
and, with a matching source term, the growing profile exp(c t) sin(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .imex import ImexSplitProblem
from .mesh import Mesh1D, physical_nodes, uniform_mesh
from .operators import (
    GlobalOperatorSet,
    SecondDerivativeOperator,
    assemble_first_derivative,
    d2_symbol,
    second_derivative_from,
)
from .ref_element import ReferenceElement, build_lgl

__all__ = [
    "DOMAIN",
    "AdvDiffConfig",
    "ManufacturedSolution",
    "Discretization",
    "decay_solution",
    "growth_solution",
    "solution_by_kind",
    "discretize",
    "make_split_problem",
    "initial_condition",
    "l2_error",
    "burgers_rhs",
]

DOMAIN = (-math.pi, math.pi)


@dataclass(frozen=True)
class AdvDiffConfig:
    """Parameters of a periodic advection-diffusion discretization on DOMAIN."""

    a: float
    c: float
    theta_adv: float
    theta_diff: float
    degree: int
    n_cells: int

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"advective velocity a must be > 0, got {self.a}")
        if not self.c > 0:
            raise ValueError(f"diffusion coefficient c must be > 0, got {self.c}")
        for label, theta in (("theta_adv", self.theta_adv), ("theta_diff", self.theta_diff)):
            if not -0.5 <= theta <= 0.5:
                raise ValueError(f"{label} must lie in [-1/2, 1/2], got {theta}")


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution u(x, t) with its optional source term."""

    u: Callable[[np.ndarray, float], np.ndarray]
    source: Optional[Callable[[np.ndarray, float], np.ndarray]] = None


def decay_solution(a: float, c: float) -> ManufacturedSolution:
    """Decaying wave exp(-c t) sin(x - a t); solves the homogeneous equation."""
    return ManufacturedSolution(
        u=lambda x, t: np.exp(-c * t) * np.sin(x - a * t),
    )


def growth_solution(c: float) -> ManufacturedSolution:
    """Growing profile exp(c t) sin(x) for unit advection velocity.

    The source g = exp(c t) (2 c sin x + cos x) balances u_t + u_x - c u_xx.
    """
    return ManufacturedSolution(
        u=lambda x, t: np.exp(c * t) * np.sin(x),
        source=lambda x, t: np.exp(c * t) * (2.0 * c * np.sin(x) + np.cos(x)),
    )


def solution_by_kind(kind: str, a: float, c: float) -> ManufacturedSolution:
    """The closed form a solution kind names: "decay", or "growth" (a = 1 only)."""
    if kind == "decay":
        return decay_solution(a, c)
    if kind == "growth":
        if a != 1.0:
            raise ValueError("the growth solution is defined for a = 1")
        return growth_solution(c)
    raise ValueError(f"unknown solution kind {kind!r}")


@dataclass(frozen=True)
class Discretization:
    """Assembled spatial machinery for one advection-diffusion config."""

    cfg: AdvDiffConfig
    elem: ReferenceElement
    mesh: Mesh1D
    nodes: np.ndarray
    opset_adv: GlobalOperatorSet
    d2op: SecondDerivativeOperator

    @property
    def m_diag(self) -> np.ndarray:
        return self.opset_adv.m_diag

    @property
    def dx_max(self) -> float:
        return float(np.max(self.mesh.widths))


def _periodic_pair(
    elem: ReferenceElement, mesh: Mesh1D, theta_adv: float, theta_diff: float
) -> tuple[GlobalOperatorSet, SecondDerivativeOperator]:
    """The periodic theta_adv operator set and D2(theta_diff), one assembly if they agree."""
    opset_adv = assemble_first_derivative(elem, mesh, theta_adv, "periodic")
    if theta_diff == theta_adv:
        opset_diff = opset_adv
    else:
        opset_diff = assemble_first_derivative(elem, mesh, theta_diff, "periodic")
    return opset_adv, second_derivative_from(opset_diff)


def discretize(cfg: AdvDiffConfig) -> Discretization:
    """Assemble periodic operators for the advective and diffusive parts."""
    elem = build_lgl(cfg.degree)
    mesh = uniform_mesh(*DOMAIN, cfg.n_cells)
    opset_adv, d2op = _periodic_pair(elem, mesh, cfg.theta_adv, cfg.theta_diff)
    return Discretization(
        cfg=cfg,
        elem=elem,
        mesh=mesh,
        nodes=physical_nodes(mesh, elem),
        opset_adv=opset_adv,
        d2op=d2op,
    )


def make_split_problem(
    disc: Discretization,
    source: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
) -> ImexSplitProblem:
    """Split problem: explicit -a D- u (+ source at stage times), implicit c D2."""
    cfg = disc.cfg
    d_minus = disc.opset_adv.D_minus
    nodes = disc.nodes

    if source is None:
        f_explicit = lambda t, u: -cfg.a * (d_minus @ u)
    else:
        f_explicit = lambda t, u: -cfg.a * (d_minus @ u) + source(nodes, t)

    return ImexSplitProblem(
        dim=nodes.size,
        f_explicit=f_explicit,
        l_implicit=cfg.c * disc.d2op.D2,
        m_diag=disc.m_diag,
    )


def initial_condition(
    solution: ManufacturedSolution, mesh: Mesh1D, elem: ReferenceElement
) -> np.ndarray:
    """Nodal interpolation of the solution at t = 0."""
    return solution.u(physical_nodes(mesh, elem), 0.0)


def l2_error(
    state: np.ndarray,
    solution: ManufacturedSolution,
    t: float,
    nodes: np.ndarray,
    m_diag: np.ndarray,
) -> float:
    """Discrete M-norm of the nodal error against the exact solution."""
    e = state - solution.u(nodes, t)
    return float(np.sqrt(e @ (m_diag * e)))


def burgers_rhs(
    elem: ReferenceElement,
    mesh: Mesh1D,
    theta_adv: float,
    theta_diff: float,
    c: float,
) -> ImexSplitProblem:
    """Viscous Burgers split problem on a periodic mesh.

    Explicit part: -(D+ + D-)/2 applied to the flux u^2/2 plus the interface
    dissipation |u|_inf M^{-1} C u, with the infinity norm recomputed at every
    evaluation; theta_adv = 1/2 makes this the global Lax-Friedrichs variant
    and theta_adv = 0 the central one (C = 0). Implicit part: c D2(theta_diff),
    with its symbol c ``d2_symbol``, on which the stage systems are solved.

    Raises:
        ValueError: if the mesh is not uniform: L is then not block-circulant
            and has no symbol.
    """
    dx = mesh.widths[0]
    if not np.all(mesh.widths == dx):
        raise ValueError("burgers_rhs needs a uniform mesh: its stage systems are solved "
                         "on the symbol of L")
    opset_adv, d2op = _periodic_pair(elem, mesh, theta_adv, theta_diff)

    d_avg = (0.5 * (opset_adv.D_plus + opset_adv.D_minus)).tocsr()
    c_mat = opset_adv.C
    inv_m = 1.0 / opset_adv.m_diag

    def f_explicit(t: float, u: np.ndarray) -> np.ndarray:
        flux = 0.5 * u * u
        out = -(d_avg @ flux)
        if c_mat.nnz:
            out += float(np.max(np.abs(u))) * (inv_m * (c_mat @ u))
        return out

    return ImexSplitProblem(
        dim=mesh.n_cells * elem.n_nodes,
        f_explicit=f_explicit,
        l_implicit=c * d2op.D2,
        m_diag=opset_adv.m_diag,
        l_symbol=c * d2_symbol(elem, theta_diff, mesh.n_cells, dx),
    )
