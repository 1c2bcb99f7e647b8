"""Experiment harness: stability scans, convergence studies, Burgers demo.

A stability scan finds the largest time step for which the discrete energy
(u, u)_M stays non-increasing over the whole run, reported as the normalized
value tau = a^2 dt_max / c. Scans double geometrically from a stable lower
bound, then bisect; a scan still stable at the cap tau = 1e4 is reported as
UNBOUNDED (the "+" outcome). A run's last step is truncated to the horizon
(``step_times``), so every dt >= horizon is one run, a single step of size
horizon, and every probe from tau = horizon a^2 / c (10 for the bare table)
up to the cap would repeat it. A scan therefore reports "+" at its first
stable probe with dt >= horizon: "+" means stable at every step the scan
took, not stable up to tau = 1e4. Convergence studies integrate a closed-form
solution with dt = mu * dx over a sequence of cell counts and report discrete
L2 errors and experimental orders of convergence between successive counts.
Each scan probe, convergence level and ``gsbp solve`` is one ``LinearRun``,
the one setup and energy verdict of a linear run, and no run is scheduled for
more than MAX_STEPS steps. Results are numbers; ``cli`` turns them into CSV text.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .fourier import FourierEngine
from .imex import ENERGY_GROWTH_RTOL, SolverFailure, integrate, tableau_by_name
from .mesh import physical_nodes, uniform_mesh
from .problems import (
    DOMAIN,
    AdvDiffConfig,
    ManufacturedSolution,
    burgers_rhs,
    decay_solution,
    discretize,
    initial_condition,
    l2_error,
    make_split_problem,
    solution_by_kind,
)
from .ref_element import build_lgl

__all__ = [
    "ScanConfig",
    "StabilityScanResult",
    "ConvergenceRow",
    "BurgersRunResult",
    "EnergyMonitor",
    "LinearRun",
    "max_stable_dt",
    "scan_many",
    "run_convergence",
    "run_burgers_demo",
]

DEFAULT_HORIZON = 100.0
DEFAULT_TAU_LO = 1e-2
DEFAULT_TAU_CAP = 1e4
# the bisection stops once its bracket's ends are within this relative distance
RESOLUTION = 1e-3
TAU_FLOOR = 1e-8
# a sourced run is declared unstable once its energy exceeds this multiple
# of the initial energy (the solution itself grows only modestly)
BLOWUP_FACTOR = 1e12
# a Burgers run blows up once its energy exceeds this multiple of the initial
# energy
BURGERS_BLOWUP_FACTOR = 1e3
# no run is scheduled for more steps than this: a sparse step takes 45-80 us
# on a 2-core x86-64 host, so that many take over an hour
MAX_STEPS = 10**8

STABLE, UNSTABLE, SOLVER_FAILURE = "stable", "unstable", "solver_failure"


class EnergyMonitor:
    """``integrate`` observer that halts the run at the first growth of the energy.

    Without ``blowup_factor`` the energy (u, u)_M grows when it exceeds the
    previous step's by more than the relative slack ENERGY_GROWTH_RTOL,
    starting from ``reference``; with it, when it exceeds that multiple of
    ``reference``. A non-finite energy always counts as growth.
    ``first_growth`` is the step where the energy grew (None while it has
    not) and ``growth_ratio`` the energy there over the one it was compared
    with.
    """

    def __init__(self, reference: float, blowup_factor: Optional[float] = None):
        self.base = reference
        self.tracks_previous = blowup_factor is None
        self.factor = 1.0 + ENERGY_GROWTH_RTOL if self.tracks_previous else blowup_factor
        self.first_growth: Optional[int] = None
        self.growth_ratio: Optional[float] = None

    @property
    def grew(self) -> bool:
        return self.first_growth is not None

    def __call__(self, k: int, t: float, energy: float) -> bool:
        if not math.isfinite(energy) or energy > self.base * self.factor:
            self.first_growth = k
            self.growth_ratio = energy / self.base if self.base else math.inf
            return True
        if self.tracks_previous:
            self.base = energy
        return False


@dataclass(frozen=True)
class ScanConfig:
    """One stability-scan grid point."""

    order: int
    cfg: AdvDiffConfig
    horizon: float = DEFAULT_HORIZON

    @property
    def dt_scale(self) -> float:
        """Time step corresponding to tau = 1: c / a^2, inf or 0 when a^2 leaves the floats."""
        try:
            return self.cfg.c / self.cfg.a**2
        except ZeroDivisionError:  # a^2 underflows to 0
            return math.inf
        except OverflowError:  # a^2 overflows
            return 0.0


@dataclass
class StabilityScanResult:
    """Outcome of one maximum-stable-step scan."""

    config: ScanConfig
    tau: Optional[float]
    unbounded: bool = False
    below_bracket: bool = False
    probes: list[tuple[float, str]] = field(default_factory=list)


class LinearRun:
    """The split problem and u0 of a closed-form solution on ``cfg``, and its energy verdict.

    ``run`` halts at per-step energy growth, or with ``blowup_factor`` at energy
    above that multiple of max(E0, 1): a sourced solution's energy may rise.
    """

    def __init__(self, cfg: AdvDiffConfig, solution: ManufacturedSolution):
        self.disc = discretize(cfg)
        self.solution = solution
        self.problem = make_split_problem(self.disc, solution.source)
        self.u0 = initial_condition(solution, self.disc.mesh, self.disc.elem)

    def run(self, tableau, dt: float, t_final: float, blowup_factor=None, problem=None):
        """Integrate ``problem`` (the run's own when None) from u0: (u, trace, grew)."""
        e0 = self.problem.energy(self.u0)
        if blowup_factor is None:
            monitor = EnergyMonitor(e0)
        else:
            monitor = EnergyMonitor(max(e0, 1.0), blowup_factor)
        problem = self.problem if problem is None else problem
        u, trace = integrate(tableau, problem, self.u0, dt, t_final, observer=monitor)
        return u, trace, monitor.grew

    def error(self, u: np.ndarray, t: float) -> float:
        """Discrete L2 error of the state u against the solution at time t."""
        return l2_error(u, self.solution, t, self.disc.nodes, self.disc.m_diag)


class _ProbeContext(LinearRun):
    """The decay run of one scan configuration, probed at many time steps.

    A probe whose step maps are all certified (fourier.CERTIFIED_GROWTH) steps
    the rfft coefficients; every other probe steps the sparse problem.
    """

    def __init__(self, scan_cfg: ScanConfig):
        super().__init__(scan_cfg.cfg, decay_solution(scan_cfg.cfg.a, scan_cfg.cfg.c))
        self.horizon = scan_cfg.horizon
        self.tableau = tableau_by_name(scan_cfg.order)
        self.fourier = FourierEngine(self.disc, self.tableau)

    def probe(self, dt: float) -> str:
        """STABLE iff the decay-problem energy is non-increasing at every step."""
        try:
            fourier = self.fourier.problem(dt, self.horizon)
            grew = self.run(self.tableau, dt, self.horizon, problem=fourier)[2]
        except SolverFailure:
            return SOLVER_FAILURE
        return UNSTABLE if grew else STABLE


def max_stable_dt(
    scan_cfg: ScanConfig, bracket: Optional[tuple[float, float]] = None
) -> StabilityScanResult:
    """Scan for the largest stable time step by doubling, then bisection to RESOLUTION.

    ``bracket`` holds (dt_lo, dt_cap); when omitted, tau in
    [DEFAULT_TAU_LO, DEFAULT_TAU_CAP] is used. An unstable lower bound is
    halved until it is stable; one still unstable at tau = TAU_FLOOR is
    reported as below_bracket. A stable probe at the cap, or at a dt of at
    least the horizon, yields the UNBOUNDED outcome.

    Raises:
        ValueError: if theta_adv < 0: D-(theta_adv) then fails the dissipation
            axiom, and halving toward TAU_FLOOR can double a probe's steps 20 times.
            Also if the step scale c / a^2 is not a positive finite number, or
            if the first probe takes more than MAX_STEPS steps to the horizon.
    """
    if scan_cfg.cfg.theta_adv < 0:
        raise ValueError(
            f"a scan needs theta_adv >= 0, got {scan_cfg.cfg.theta_adv}: "
            "D-(theta_adv) fails the dissipation axiom below 0"
        )
    scale = scan_cfg.dt_scale
    if not 0 < scale < math.inf:
        raise ValueError(f"a scan needs a positive finite step scale c / a^2, got {scale}")
    if bracket is None:
        dt_lo, dt_cap = DEFAULT_TAU_LO * scale, DEFAULT_TAU_CAP * scale
    else:
        dt_lo, dt_cap = bracket
    if scan_cfg.horizon > MAX_STEPS * dt_lo:
        raise ValueError(
            f"a scan's first probe, dt = {dt_lo} up to the horizon {scan_cfg.horizon}, "
            f"takes more than MAX_STEPS = {MAX_STEPS} steps"
        )

    ctx = _ProbeContext(scan_cfg)
    probes: list[tuple[float, str]] = []

    def probe(dt: float) -> str:
        status = ctx.probe(dt)
        probes.append((dt, status))
        return status

    result = StabilityScanResult(scan_cfg, None, probes=probes)

    while probe(dt_lo) != STABLE:
        if dt_lo / scale <= TAU_FLOOR:
            result.below_bracket = True
            return result
        dt_lo /= 2.0

    lo = dt_lo
    hi = None
    # every dt >= horizon is the same one-step run, so a stable one holds up to the cap
    while hi is None and lo < min(dt_cap, scan_cfg.horizon):
        nxt = min(2.0 * lo, dt_cap)
        if probe(nxt) == STABLE:
            lo = nxt
        else:
            hi = nxt
    if hi is None:
        result.unbounded = True
        result.tau = dt_cap / scale
        return result

    while hi / lo > 1.0 + RESOLUTION:
        mid = math.sqrt(lo * hi)
        if probe(mid) == STABLE:
            lo = mid
        else:
            hi = mid

    result.tau = lo / scale
    return result


def scan_many(
    scan_cfgs: Sequence[ScanConfig], workers: int = 1, progress=None
) -> list[StabilityScanResult]:
    """Run independent scans over the default bracket, merging results in input order."""
    results: list[StabilityScanResult] = []
    executor = nullcontext()
    # a pool starts all its processes at once, so it gets no more than there are scans
    workers = min(workers, len(scan_cfgs))
    if workers > 1:
        # imported here so that single-worker runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
    with executor as pool:
        # the module's max_stable_dt as it is at call time, so that a wrapper set there runs
        for res in (pool.map if pool else map)(max_stable_dt, scan_cfgs):
            results.append(res)
            if progress is not None:
                progress(len(results), len(scan_cfgs), res)
    return results


@dataclass
class ConvergenceRow:
    """One refinement level of a convergence study; None marks an unstable run or no EOC."""

    n_cells: int
    error: Optional[float]
    eoc: Optional[float]


def run_convergence(
    base_cfg: AdvDiffConfig,
    order: int,
    mu: float,
    cell_counts: Sequence[int],
    t_final: float = 10.0,
    solution_kind: str = "decay",
) -> list[ConvergenceRow]:
    """Integrate to t_final with dt = mu * dx for each cell count.

    The decay run is marked unstable (dash) on any per-step energy growth
    beyond the roundoff slack; the sourced growth run, whose energy rises
    legitimately, is marked unstable on non-finite values or on energy
    exceeding BLOWUP_FACTOR times the initial energy. A level's EOC is
    log(e_prev / e) / log(K / K_prev) against the level before it; it is
    None when either error is missing, the error is zero or K repeats.
    """
    tableau = tableau_by_name(order)
    solution = solution_by_kind(solution_kind, base_cfg.a, base_cfg.c)

    rows: list[ConvergenceRow] = []
    prev_error: Optional[float] = None
    prev_n: Optional[int] = None
    blowup_factor = None if solution.source is None else BLOWUP_FACTOR
    for n_cells in cell_counts:
        level = LinearRun(replace(base_cfg, n_cells=n_cells), solution)
        dt = mu * level.disc.dx_max
        try:
            u_final, _, unstable = level.run(tableau, dt, t_final, blowup_factor)
        except SolverFailure:
            unstable = True
        error = None if unstable else level.error(u_final, t_final)

        eoc = None
        if error is not None and prev_error is not None and error > 0 and n_cells != prev_n:
            eoc = math.log2(prev_error / error) / math.log2(n_cells / prev_n)
        rows.append(ConvergenceRow(n_cells, error, eoc))
        prev_error, prev_n = error, n_cells
    return rows


@dataclass
class BurgersRunResult:
    """Outcome of one Burgers run: final state (None on blow-up), energy trace, blow-up time."""

    n_cells: int
    blowup_time: Optional[float]
    nodes: np.ndarray
    u_final: Optional[np.ndarray]
    energy: list[tuple[int, float, float]]

    @property
    def blew_up(self) -> bool:
        return self.blowup_time is not None

    @property
    def final_time(self) -> float:
        return self.energy[-1][1]


def run_burgers_demo(
    theta_adv: float,
    theta_diff: float,
    cell_counts: Sequence[int],
    dt: float = 0.1,
    t_final: float = 2.0,
    c: float = 0.1,
    degree: int = 2,
    order: int = 2,
) -> list[BurgersRunResult]:
    """Integrate sin(x) initial data on DOMAIN for each cell count.

    Blow-up halts the run and is recorded with its time: energy above
    BURGERS_BLOWUP_FACTOR times the initial energy or non-finite values at
    the step that shows them, a failed stage solve at the end of the failed
    step. A completed run keeps its state at t_final, even when no step ran.
    """
    tableau = tableau_by_name(order)
    elem = build_lgl(degree)
    results = []
    for n_cells in cell_counts:
        msh = uniform_mesh(*DOMAIN, n_cells)
        problem = burgers_rhs(elem, msh, theta_adv, theta_diff, c)
        nodes = physical_nodes(msh, elem)
        u0 = np.sin(nodes)
        monitor = EnergyMonitor(problem.energy(u0), blowup_factor=BURGERS_BLOWUP_FACTOR)
        try:
            u, trace = integrate(tableau, problem, u0, dt, t_final, observer=monitor)
            blowup_time = trace.steps[-1][1] if monitor.grew else None
        except SolverFailure as exc:
            trace, blowup_time = exc.trace, exc.time
        results.append(
            BurgersRunResult(
                n_cells=n_cells,
                blowup_time=blowup_time,
                nodes=nodes,
                u_final=u if blowup_time is None else None,
                energy=trace.steps,
            )
        )
    return results

