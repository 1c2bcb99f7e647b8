"""Implicit-explicit Runge-Kutta stepping with a linear implicit part.

Tableaux follow the padded convention: an (s+1)-stage explicit scheme paired
with an s-stage DIRK scheme whose Butcher matrix is padded with a zero first
row and column, so both parts share the abscissae c with c_1 = 0. With
explicit coefficients A1, implicit coefficients A2 and implicit operator L,
stage i >= 2 solves the linear system

    (I - dt A2[i,i] L) u_i = u_n + dt sum_{j<i} (A1[i,j] F(u_j) + A2[i,j] L u_j).

A problem that carries the symbol of L on a uniform periodic mesh, where
I - tau L is block-circulant over cells, solves each system as K//2+1
independent blocks I - tau L_hat[k] acting on the rfft over cells, each
inverted once per tau. Any other problem solves it through the M-symmetrized
form (M - tau M L) with SuperLU; that form is symmetric positive definite
when M L is negative semi-definite, and its sparsity pattern and the
tau-free values on it are cached on the problem. ``ImexSplitProblem.factorize``
builds every stage solver: one of these two arms, refined against the
assembled L to SOLVE_RTOL, or for tau = 0 the identity, which factorizes
nothing. Each stepping session caches one solver per stage coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ImexTableau",
    "ImexSplitProblem",
    "EnergyTrace",
    "SolverFailure",
    "Stepper",
    "tableau_imex1",
    "tableau_imex2",
    "tableau_imex3",
    "tableau_by_name",
    "solve_implicit_stage",
    "run_step_plan",
    "step",
    "step_times",
    "integrate",
]

SOLVE_RTOL = 1e-12
# per-step slack on the squared energy before a run's energy counts as grown
ENERGY_GROWTH_RTOL = 1e-12


class SolverFailure(RuntimeError):
    """Implicit stage system failed to factorize or to reach the residual tolerance.

    Raised out of ``integrate``, it carries the run's ``trace`` through the
    last completed step and the failed step's end ``time``; raised outside a
    run, both are None.
    """

    trace: Optional[EnergyTrace] = None
    time: Optional[float] = None


@dataclass(frozen=True)
class ImexTableau:
    """Padded explicit/DIRK Butcher pair sharing the abscissae c."""

    order: int
    a_explicit: np.ndarray
    a_implicit: np.ndarray
    b_explicit: np.ndarray
    b_implicit: np.ndarray
    c: np.ndarray

    @property
    def name(self) -> str:
        return f"imex{self.order}"

    @property
    def n_stages(self) -> int:
        return self.c.size

    @cached_property
    def step_plan(self) -> tuple:
        """The nonzero terms of one step (``_step_plan``), built once per tableau."""
        return _step_plan(self)


def tableau_imex1() -> ImexTableau:
    """First-order pair: forward Euler explicit, backward Euler implicit."""
    return ImexTableau(
        order=1,
        a_explicit=np.array([[0.0, 0.0], [1.0, 0.0]]),
        a_implicit=np.array([[0.0, 0.0], [0.0, 1.0]]),
        b_explicit=np.array([1.0, 0.0]),
        b_implicit=np.array([0.0, 1.0]),
        c=np.array([0.0, 1.0]),
    )


def tableau_imex2() -> ImexTableau:
    """Second-order pair with gamma = 1 - sqrt(2)/2 and gamma - delta = 1."""
    gamma = 1.0 - np.sqrt(2.0) / 2.0
    delta = 1.0 - 1.0 / (2.0 * gamma)
    return ImexTableau(
        order=2,
        a_explicit=np.array(
            [
                [0.0, 0.0, 0.0],
                [gamma, 0.0, 0.0],
                [delta, 1.0 - delta, 0.0],
            ]
        ),
        a_implicit=np.array(
            [
                [0.0, 0.0, 0.0],
                [0.0, gamma, 0.0],
                [0.0, 1.0 - gamma, gamma],
            ]
        ),
        b_explicit=np.array([delta, 1.0 - delta, 0.0]),
        b_implicit=np.array([0.0, 1.0 - gamma, gamma]),
        c=np.array([0.0, gamma, 1.0]),
    )


def _dirk3_gamma() -> float:
    """Middle root of 6 x^3 - 18 x^2 + 9 x - 1, refined to working precision."""
    coeffs = np.array([6.0, -18.0, 9.0, -1.0])
    roots = np.sort(np.roots(coeffs).real)
    g = float(roots[1])
    for _ in range(10):
        f = ((6.0 * g - 18.0) * g + 9.0) * g - 1.0
        df = (18.0 * g - 36.0) * g + 9.0
        step_len = f / df
        g -= step_len
        if abs(step_len) <= 1e-16:
            break
    return g


def tableau_imex3() -> ImexTableau:
    """Third-order pair built on the middle root of 6x^3 - 18x^2 + 9x - 1."""
    g = _dirk3_gamma()
    b1 = -1.5 * g**2 + 4.0 * g - 0.25
    b2 = 1.5 * g**2 - 5.0 * g + 1.25
    a1 = -0.35
    a2 = (1.0 / 3.0 - 2.0 * g**2 - 2.0 * b2 * a1 * g) / (g * (1.0 - g))
    c3 = (1.0 + g) / 2.0
    return ImexTableau(
        order=3,
        a_explicit=np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [g, 0.0, 0.0, 0.0],
                [c3 - a1, a1, 0.0, 0.0],
                [0.0, 1.0 - a2, a2, 0.0],
            ]
        ),
        a_implicit=np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, g, 0.0, 0.0],
                [0.0, (1.0 - g) / 2.0, g, 0.0],
                [0.0, b1, b2, g],
            ]
        ),
        b_explicit=np.array([0.0, b1, b2, g]),
        b_implicit=np.array([0.0, b1, b2, g]),
        c=np.array([0.0, g, c3, 1.0]),
    )


_TABLEAUX = {1: tableau_imex1, 2: tableau_imex2, 3: tableau_imex3}


def tableau_by_name(order: int) -> ImexTableau:
    """The IMEX tableau of order 1, 2 or 3."""
    if order not in _TABLEAUX:
        raise ValueError(f"unknown tableau order {order!r}; choose from 1, 2, 3")
    return _TABLEAUX[order]()


def _step_plan(tableau: ImexTableau) -> tuple:
    """(stages, final): the nonzero terms of one step, coefficients as Python floats.

    A step keeps its stage evaluations in one list: F(u_j) at index j and
    L u_j at index s + j. Each stage is (A2[i,i], c_i, F read, L read,
    start, terms) and ``final``, the sum giving u_{n+1}, is (start, terms):
    the sum adds its terms (value index, coefficient), in the order j = 0,
    1, ..., F before L, to u_n or to the right-hand side of stage ``start``.
    F or L is evaluated at stage i only if some sum reads it there; the
    diagonal A2[i,i] is the stage solve itself, not a read.
    """
    s = tableau.n_stages

    def terms(a_ex, a_im, upto: int) -> tuple[tuple[int, float], ...]:
        out = []
        for j in range(upto):
            if a_ex[j] != 0.0:
                out.append((j, float(a_ex[j])))
            if a_im[j] != 0.0:
                out.append((s + j, float(a_im[j])))
        return tuple(out)

    sums = [terms(tableau.a_explicit[i], tableau.a_implicit[i], i) for i in range(s)]
    sums += [terms(tableau.b_explicit, tableau.b_implicit, s), ()]  # u_n at index -1

    def shared(m: int) -> tuple[int, tuple]:
        """(start, terms): sum m continues its longest stage-sum prefix, else u_n."""
        extended = [j for j in range(min(m, s)) if sums[m][: len(sums[j])] == sums[j]]
        start = max([-1] + extended, key=lambda j: len(sums[j]))
        return start, sums[m][len(sums[start]) :]

    read = {k for terms_m in sums for k, _ in terms_m}
    stages = tuple(
        (
            float(tableau.a_implicit[i, i]),
            float(tableau.c[i]),
            i in read,
            s + i in read,
            *shared(i),
        )
        for i in range(s)
    )
    return stages, shared(s)


@dataclass
class ImexSplitProblem:
    """Split right-hand side du/dt = F_explicit(t, u) + L_implicit u.

    Both parts are always present; a problem without one passes a zero F or
    a zero L. ``m_diag`` is the diagonal of the norm matrix used for energy
    reporting and for symmetrizing the implicit stage systems. ``l_symbol``,
    when given, is the symbol of a block-circulant L on K cells of n nodes,
    shape (K//2+1, n, n), with K n = ``dim``: L maps the rfft over cells of
    u, reshaped (K, n), to ``l_symbol[k] @ u_hat[k]``, and the stage systems
    are solved on it. The tau-free parts of the stage systems (I - tau L) x
    = b are built on first use and shared by every stepping session.
    """

    dim: int
    f_explicit: Callable[[float, np.ndarray], np.ndarray]
    l_implicit: sp.spmatrix | np.ndarray
    m_diag: np.ndarray
    l_symbol: Optional[np.ndarray] = None

    def energy(self, u: np.ndarray) -> float:
        return float(u @ (self.m_diag * u))

    def stepper(self, tableau: ImexTableau) -> "Stepper":
        """The stepping session ``integrate`` drives for this problem."""
        return Stepper(tableau, self)

    @cached_property
    def _csr_l(self) -> tuple[sp.csr_matrix, float]:
        """(L, ||L||_inf): L, sparse or dense, as CSR and its largest absolute row sum."""
        import scipy.sparse as sp

        lmat = self.l_implicit
        lmat = sp.csr_matrix(lmat) if isinstance(lmat, np.ndarray) else lmat.tocsr()
        return lmat, float(np.max(np.abs(lmat).sum(axis=1)))

    @cached_property
    def _pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, m_on, ml_on): the CSC pattern of M - M L and M, M L on it."""
        import scipy.sparse as sp

        m = sp.diags(self.m_diag)
        ml = m @ self._csr_l[0]
        # |M| + |M L| cannot cancel: its nonzeros are those of M and of M L
        pattern = (abs(m) + abs(ml)).tocsc()
        rows = pattern.indices
        cols = np.repeat(np.arange(pattern.shape[1]), np.diff(pattern.indptr))
        m_on = np.where(rows == cols, self.m_diag[rows], 0.0)
        ml_on = np.asarray(ml[rows, cols]).ravel()
        return pattern.indptr, rows, m_on, ml_on

    def system(self, tau: float) -> sp.csc_matrix:
        """M - tau M L as CSC: ``_pattern`` filled with ``m_on - tau * ml_on``.

        The pattern is the union of the nonzeros of M and M L, and exact zeros
        of the filled system are dropped, so the system is bit for bit
        ``(sp.diags(m) - tau * ml).tocsc()``.
        """
        import scipy.sparse as sp

        indptr, indices, m_on, ml_on = self._pattern
        values = m_on - tau * ml_on
        mat = sp.csc_matrix((values, indices, indptr), shape=self._csr_l[0].shape, copy=True)
        mat.eliminate_zeros()
        return mat

    def factorize(self, tau: float) -> Callable[[np.ndarray], tuple]:
        """The refined solver b -> (x, L x) of (I - tau L) x = b, factorized once.

        tau = 0 gives the identity, b -> (a copy of b, None), and factorizes
        nothing. With a symbol, each block I - tau L_hat[k] is inverted and a
        solve is irfft(G_k^-1 rfft(r)) over cells; without one, SuperLU
        factorizes M - tau M L, SPD by the SBP identity. A negative tau raises
        ValueError; a failed factorization (a misassembled operator) or a
        stalled refinement against the assembled L raises ``SolverFailure``.
        """
        if tau < 0:
            raise ValueError(f"stage coefficient tau must be >= 0, got {tau}")
        if tau == 0.0:
            return lambda rhs: (rhs.copy(), None)
        if self.l_symbol is not None:
            n = self.l_symbol.shape[-1]
            n_cells = self.dim // n
            try:
                g_inv = np.linalg.inv(np.eye(n) - tau * self.l_symbol)
            except np.linalg.LinAlgError as exc:  # singular block: misassembled symbol
                raise SolverFailure(f"stage symbol inversion failed: {exc}") from exc

            def base_solve(r: np.ndarray) -> np.ndarray:
                r_hat = np.fft.rfft(r.reshape(n_cells, n), axis=0)
                x_hat = (g_inv @ r_hat[:, :, None])[:, :, 0]
                return np.fft.irfft(x_hat, n=n_cells, axis=0).ravel()
        else:
            # imported here, not at module level, so that runs which never factorize
            # a sparse system (``gsbp verify``, ``gsbp burgers``, certified scan
            # probes) never load scipy.sparse.linalg
            from scipy.sparse.linalg import splu

            m_diag = self.m_diag
            try:
                lu = splu(self.system(tau))
            except Exception as exc:  # singular system: misassembled operator
                raise SolverFailure(f"stage factorization failed: {exc}") from exc

            def base_solve(r: np.ndarray) -> np.ndarray:
                return lu.solve(m_diag * r)

        lmat, row_norm = self._csr_l

        # the residual evaluation itself carries fp noise of order
        # eps * (1 + tau ||L||) * ||x||; below that the target is unmeasurable
        noise_per_x = 64.0 * np.finfo(float).eps * (1.0 + tau * row_norm)

        def solve(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """(x, L x): the refinement check's L x is handed back for reuse.

            Norms are sqrt(v . v), which is what np.linalg.norm computes for a
            contiguous real vector. For b = 0 the first check (0 <= 0) returns.
            """
            b_norm = math.sqrt(rhs.dot(rhs))
            x = base_solve(rhs)
            target = SOLVE_RTOL * b_norm
            # iterative refinement against the unsymmetrized system (I - tau L):
            # up to 5 refinements before the residual counts as stalled
            for refinement in range(6):
                if refinement:
                    x = x + base_solve(residual)
                l_x = lmat @ x
                residual = rhs - (x - tau * l_x)
                r_norm = math.sqrt(residual.dot(residual))
                if r_norm <= target or r_norm <= noise_per_x * math.sqrt(x.dot(x)):
                    return x, l_x
            # b = 0 stalls only on a non-finite x or L x, a misassembled operator
            relative = r_norm / b_norm if b_norm else math.nan
            raise SolverFailure(f"implicit stage residual stalled at {relative:.3e} relative")

        return solve


def solve_implicit_stage(lmat, tau: float, rhs: np.ndarray, m_diag: np.ndarray) -> np.ndarray:
    """Solve (I - tau L) x = rhs with ``ImexSplitProblem.factorize(tau)``.

    The problem has no symbol, so tau > 0 solves the M-symmetrized SPD form
    M - tau M L; tau = 0 returns a copy of rhs, and tau < 0 raises ValueError.
    """
    rhs = np.ascontiguousarray(rhs, dtype=float)
    # F is never evaluated: only the stage systems of L are built
    return ImexSplitProblem(rhs.size, None, lmat, m_diag).factorize(tau)(rhs)[0]


def run_step_plan(plan, u_n, dt, t_n, apply_f, apply_l, solve):
    """One step of ``ImexTableau.step_plan``, in the caller's algebra.

    ``apply_f(t, u)`` is F at time t, ``apply_l(u)`` is L u and
    ``solve(tau, rhs)`` returns (x, L x or None) for (I - tau L) x = rhs
    without modifying ``rhs``, from which later sums continue. ``u_n`` and
    ``dt`` need only broadcast together: the Fourier engine steps a stack of
    identity blocks with an array of step sizes. The terms of each sum are
    added in plan order, which fixes the roundoff.
    """
    stages, (start, final) = plan
    s = len(stages)
    values = [None] * (2 * s)
    sums = [None] * s + [u_n]  # stage right-hand sides, then u_n at index -1
    for i, (a_ii, c_i, f_read, l_read, start_i, terms) in enumerate(stages):
        u_i = sums[i] = _combine(sums[start_i], dt, terms, values)
        u_i, l_x = solve(dt * a_ii, u_i) if a_ii else (u_i, None)
        if f_read:
            values[i] = apply_f(t_n + c_i * dt, u_i)
        if l_read:
            values[s + i] = apply_l(u_i) if l_x is None else l_x
    return _combine(sums[start], dt, final, values)


def _combine(u, dt, terms, values):
    for k, coef in terms:
        u = u + dt * coef * values[k]
    return u


def step(session: Stepper, u_n: np.ndarray, dt: float, t_n: float = 0.0) -> np.ndarray:
    """Advance the session's problem one step of size dt from (t_n, u_n).

    F and L are evaluated only at the stage values some tableau coefficient
    reads, and L u_i comes from the stage solve's refinement check. The
    stage factorizations are the session's.
    """
    if not 0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    problem = session.problem
    apply_l = problem.l_implicit.__matmul__
    return run_step_plan(
        session.tableau.step_plan, u_n, dt, t_n, problem.f_explicit, apply_l, session.solve
    )


class Stepper:
    """Stepping session owning one ``ImexSplitProblem.factorize(tau)`` solver per stage tau.

    ``integrate`` drives any session with this interface: ``state`` maps the
    nodal initial data to the session's state, ``advance`` takes one step,
    ``energy`` is the squared M-norm of a state and ``nodal`` maps it back.
    Here the state is the nodal vector itself.
    """

    def __init__(self, tableau: ImexTableau, problem: ImexSplitProblem):
        self.tableau = tableau
        self.problem = problem
        self._solvers: dict[float, Callable] = {}

    def solve(self, tau: float, rhs: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(x, L x) for (I - tau L) x = rhs from ``factorize(tau)``; L x is None at tau = 0."""
        if tau not in self._solvers:
            self._solvers[tau] = self.problem.factorize(tau)
        return self._solvers[tau](rhs)

    def state(self, u0: np.ndarray) -> np.ndarray:
        return np.asarray(u0, dtype=float).copy()

    def advance(self, u: np.ndarray, dt: float, t: float = 0.0) -> np.ndarray:
        return step(self, u, dt, t)

    def energy(self, u: np.ndarray) -> float:
        return self.problem.energy(u)

    def nodal(self, u: np.ndarray) -> np.ndarray:
        return u


@dataclass
class EnergyTrace:
    """Per-step record of (step index, time, squared M-norm)."""

    steps: list[tuple[int, float, float]] = field(default_factory=list)


def step_times(dt: float, t_final: float):
    """Yield (t, t_next) for each step ``integrate`` takes from 0 to t_final.

    Steps land on multiples of dt, and the last one is truncated to land on
    t_final; the step size t_next - t therefore varies in the last ulp. A
    step ending within 1e-12 t_final of t_final ends on it: the tolerance is
    relative to t_final alone, so any dt takes at least one step when
    t_final > 0.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not 0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    tol = 1e-12 * t_final
    t = 0.0
    k = 0
    while t < t_final - tol:
        t_next = (k + 1) * dt
        if t_next > t_final - tol:
            t_next = t_final
        yield t, t_next
        k += 1
        t = t_next


def integrate(
    tableau: ImexTableau,
    problem,
    u0: np.ndarray,
    dt: float,
    t_final: float,
    observer: Optional[Callable[[int, float, float], bool | None]] = None,
) -> tuple[np.ndarray, EnergyTrace]:
    """Integrate from t = 0 to t_final, truncating the last step to land on it.

    ``problem`` is an ImexSplitProblem or any problem whose ``stepper(tableau)``
    returns a session with the interface of ``Stepper``. The observer is
    called after every step with (step index, time, squared M-norm);
    returning True halts the integration early. ``step_times`` rejects a
    dt or t_final it cannot step with ValueError before the first step. A
    step whose stage solve fails re-raises its ``SolverFailure`` with the
    trace so far and that step's end time set.
    """
    stepper = problem.stepper(tableau)
    advance, energy_of = stepper.advance, stepper.energy
    u = stepper.state(u0)
    trace = EnergyTrace([(0, 0.0, energy_of(u))])
    append = trace.steps.append
    for k, (t, t_next) in enumerate(step_times(dt, t_final), start=1):
        try:
            u = advance(u, t_next - t, t)
        except SolverFailure as exc:
            exc.trace, exc.time = trace, t_next
            raise
        energy = energy_of(u)
        append((k, t_next, energy))
        if observer is not None and observer(k, t_next, energy):
            break
    return stepper.nodal(u), trace
