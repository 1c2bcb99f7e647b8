from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from upwind_gsbp import cli
from upwind_gsbp.imex import (
    SOLVE_RTOL,
    ImexSplitProblem,
    SolverFailure,
    Stepper,
    integrate,
    solve_implicit_stage,
    step,
    step_times,
    tableau_by_name,
    tableau_imex1,
    tableau_imex2,
    tableau_imex3,
)
from upwind_gsbp.mesh import uniform_mesh
from upwind_gsbp.operators import assemble_first_derivative, second_derivative_from
from upwind_gsbp.problems import AdvDiffConfig, burgers_rhs, discretize, make_split_problem
from upwind_gsbp.ref_element import build_lgl

ALL_TABLEAUX = [tableau_imex1, tableau_imex2, tableau_imex3]


def zero_f(t, u):
    """The explicit part of a problem whose right-hand side is all implicit."""
    return np.zeros_like(u)


def one_step(tableau, problem, u_n, dt):
    """One step of a fresh stepping session."""
    return step(Stepper(tableau, problem), u_n, dt)


# ------------------------------------------------------------- tableaux


def tableau_residuals(tb) -> dict[str, float]:
    """Structural residuals: row sums vs c, padding, stiff accuracy."""
    return {
        "row_sum_explicit": np.max(np.abs(tb.a_explicit.sum(axis=1) - tb.c)),
        "row_sum_implicit": np.max(np.abs(tb.a_implicit.sum(axis=1) - tb.c)),
        "implicit_padding": max(
            np.max(np.abs(tb.a_implicit[0, :])), np.max(np.abs(tb.a_implicit[:, 0]))
        ),
        "explicit_strictly_lower": np.max(np.abs(np.triu(tb.a_explicit))),
        "implicit_lower": np.max(np.abs(np.triu(tb.a_implicit, k=1))),
        "stiff_accuracy": np.max(np.abs(tb.a_implicit[-1, 1:] - tb.b_implicit[1:])),
    }


@pytest.mark.parametrize("factory", ALL_TABLEAUX)
def test_tableau_structure(factory):
    tb = factory()
    res = tableau_residuals(tb)
    assert max(res.values()) <= 1e-14, res
    assert tb.c[0] == 0.0
    assert abs(np.sum(tb.b_explicit) - 1.0) <= 1e-14
    assert abs(np.sum(tb.b_implicit) - 1.0) <= 1e-14


def test_imex2_coefficients():
    tb = tableau_imex2()
    gamma = 1.0 - np.sqrt(2.0) / 2.0
    delta = 1.0 - 1.0 / (2.0 * gamma)
    assert tb.a_implicit[1, 1] == pytest.approx(gamma, abs=1e-15)
    assert tb.b_explicit[0] == pytest.approx(delta, abs=1e-15)
    assert gamma - delta == pytest.approx(1.0, abs=1e-15)


def test_imex3_coefficients():
    tb = tableau_imex3()
    g = tb.a_implicit[1, 1]
    assert abs(6 * g**3 - 18 * g**2 + 9 * g - 1) <= 1e-13
    assert g == pytest.approx(0.435866521508459, abs=1e-12)
    # order-1 condition on the implicit weights forces b1 + b2 + gamma = 1
    assert np.sum(tb.b_implicit) == pytest.approx(1.0, abs=1e-14)
    assert tb.a_explicit[2, 1] == pytest.approx(-0.35, abs=1e-15)


def test_tableau_by_name():
    assert tableau_by_name(3).order == 3
    assert tableau_by_name(1).name == "imex1"
    # a tableau is keyed by its order alone
    for bad in ("rk4", "imex2", "2", 4):
        with pytest.raises(ValueError):
            tableau_by_name(bad)


# --------------------------------------------------------- scalar stepping


def test_imex1_reduces_to_forward_euler():
    lam, dt = -0.7, 0.05
    problem = ImexSplitProblem(1, lambda t, u: lam * u, np.zeros((1, 1)), np.ones(1))
    u1 = one_step(tableau_imex1(), problem, np.array([1.0]), dt)
    assert u1[0] == pytest.approx(1 + lam * dt, abs=1e-15)


def test_imex1_reduces_to_backward_euler():
    lam, dt = -3.0, 0.1
    problem = ImexSplitProblem(1, zero_f, np.array([[lam]]), np.ones(1))
    u1 = one_step(tableau_imex1(), problem, np.array([1.0]), dt)
    assert u1[0] == pytest.approx(1 / (1 - lam * dt), abs=1e-14)


def test_zero_dt_is_identity():
    problem = ImexSplitProblem(1, lambda t, u: -u, np.array([[-2.0]]), np.ones(1))
    u1 = one_step(tableau_imex2(), problem, np.array([0.7]), 0.0)
    assert u1[0] == 0.7


def test_no_rhs_is_identity():
    problem = ImexSplitProblem(3, zero_f, np.zeros((3, 3)), np.ones(3))
    u0 = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(one_step(tableau_imex3(), problem, u0, 0.2), u0)


def scalar_split_eoc(factory, lam1=-1.0, lam2=-10.0, t_final=1.0):
    exact = np.exp((lam1 + lam2) * t_final)
    errors = []
    for k in range(4, 11):
        problem = ImexSplitProblem(
            1, lambda t, u: lam1 * u, np.array([[lam2]]), np.ones(1)
        )
        u, _ = integrate(factory(), problem, np.array([1.0]), 2.0**-k, t_final)
        errors.append(abs(u[0] - exact))
    return [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


@pytest.mark.parametrize("factory", ALL_TABLEAUX)
def test_split_ode_order(factory):
    eocs = scalar_split_eoc(factory)
    assert eocs[-1] == pytest.approx(factory().order, abs=0.1)


def test_imex2_fully_implicit_order():
    lam, t_final = -2.0, 1.0
    errors = []
    for k in range(4, 11):
        problem = ImexSplitProblem(1, zero_f, np.array([[lam]]), np.ones(1))
        u, _ = integrate(tableau_imex2(), problem, np.array([1.0]), 2.0**-k, t_final)
        errors.append(abs(u[0] - np.exp(lam * t_final)))
    assert np.log2(errors[-2] / errors[-1]) == pytest.approx(2.0, abs=0.1)


# ------------------------------------------------------- implicit stages


def test_stage_solve_tau_zero():
    rhs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(solve_implicit_stage(np.eye(3), 0.0, rhs, np.ones(3)), rhs)


def test_stage_solve_zero_rhs():
    lmat = np.array([[-2.0, 1.0], [1.0, -2.0]])
    np.testing.assert_array_equal(
        solve_implicit_stage(lmat, 0.5, np.zeros(2), np.ones(2)), np.zeros(2)
    )


def test_stage_solve_constants_in_nullspace():
    # L = c D2 periodic annihilates constants, so (I - tau L) k = k
    cfg = AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 2, 6)
    disc = discretize(cfg)
    lmat = (0.1 * disc.d2op.D2).tocsr()
    rhs = 3.0 * np.ones(disc.nodes.size)
    x = solve_implicit_stage(lmat, 2.0, rhs, disc.m_diag)
    np.testing.assert_allclose(x, rhs, rtol=1e-12)


def test_stage_solve_negative_tau_rejected():
    with pytest.raises(ValueError):
        solve_implicit_stage(np.eye(2), -0.1, np.ones(2), np.ones(2))


def test_stage_solve_residual_contract():
    rng = np.random.default_rng(11)
    cfg = AdvDiffConfig(0.1, 0.1, 0.25, 0.25, 2, 10)
    disc = discretize(cfg)
    lmat = (0.1 * disc.d2op.D2).tocsr()
    rhs = rng.standard_normal(disc.nodes.size)
    for tau in (0.01, 0.5, 5.0):
        x = solve_implicit_stage(lmat, tau, rhs, disc.m_diag)
        res = rhs - (x - tau * (lmat @ x))
        assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(rhs)


def test_singular_sparse_stage_system_raises():
    # tau L = I makes M - tau M L vanish: the factorization must fail loudly
    lmat = 2.0 * sp.identity(4, format="csr")
    m_diag = np.array([0.3, 0.7, 1.1, 0.2])
    with pytest.raises(SolverFailure, match="factorization"):
        solve_implicit_stage(lmat, 0.5, np.ones(4), m_diag)


def _splu_off_by(monkeypatch, rel):
    """Make scipy's splu, which ``factorize`` imports when it runs, solve ``rel`` too large."""
    splu = spla.splu
    calls = []

    def inexact(mat):
        lu = splu(mat)

        def solve(b):
            calls.append(b)
            return (1.0 + rel) * lu.solve(b)

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(spla, "splu", inexact)
    return calls


def test_inexact_stage_solve_is_refined(small_advdiff, monkeypatch):
    # x0 = (1 + 1e-8) x: one refinement leaves an error of 1e-16 relative
    _, disc, problem = small_advdiff
    rhs = np.sin(disc.nodes)
    exact, _ = problem.factorize(0.3)(rhs)
    calls = _splu_off_by(monkeypatch, 1e-8)
    x, l_x = problem.factorize(0.3)(rhs)
    assert len(calls) == 2
    assert np.linalg.norm(x - exact) <= SOLVE_RTOL * np.linalg.norm(exact)
    assert np.linalg.norm(rhs - (x - 0.3 * l_x)) <= SOLVE_RTOL * np.linalg.norm(rhs)
    np.testing.assert_array_equal(l_x, problem.l_implicit @ x)


def test_stalled_stage_refinement_raises(small_advdiff, monkeypatch):
    # x0 = 1.5 x: each refinement only halves the error, so five leave 2^-6
    _, disc, problem = small_advdiff
    calls = _splu_off_by(monkeypatch, 0.5)
    solve = problem.factorize(0.3)
    with pytest.raises(SolverFailure, match=r"residual stalled at \S+ relative"):
        solve(np.sin(disc.nodes))
    assert len(calls) == 6


def test_stage_matrix_smallest_eigenvalue_bound():
    # M + tau (D+)' M D+ is at least as positive definite as M itself
    cfg = AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 2, 5)
    disc = discretize(cfg)
    ops = disc.opset_adv
    m = sp.diags(ops.m_diag)
    tau = 0.7
    system = (m + tau * ops.D_plus.T @ m @ ops.D_plus).toarray()
    smallest = np.linalg.eigvalsh(0.5 * (system + system.T))[0]
    floor = 0.5 * np.min(disc.mesh.widths) * np.min(disc.elem.weights)
    assert smallest >= floor * (1 - 1e-12)


# ------------------------------------------- stage solves on the symbol of L

TABLEAU_DIAGONALS = sorted(
    {float(g) for factory in ALL_TABLEAUX for g in np.diag(factory().a_implicit) if g != 0.0}
)


def relative_residual(problem, tau, rhs, x):
    return np.linalg.norm(rhs - (x - tau * (problem.l_implicit @ x))) / np.linalg.norm(rhs)


@pytest.mark.parametrize("n_cells", [2, 3, 20, 100, 400])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("pair", [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0)])
def test_symbol_stage_solve_matches_superlu(pair, degree, n_cells):
    problem = burgers_rhs(build_lgl(degree), uniform_mesh(-np.pi, np.pi, n_cells), *pair, 0.1)
    assert problem.l_symbol.shape == (n_cells // 2 + 1, degree + 1, degree + 1)
    sparse = replace(problem, l_symbol=None)
    rhs = np.random.default_rng(n_cells).standard_normal(problem.dim)
    for tau in [dt * g for dt in (0.02, 0.1) for g in TABLEAU_DIAGONALS]:
        x, l_x = problem.factorize(tau)(rhs)
        expected, _ = sparse.factorize(tau)(rhs)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        for solution in (x, expected):
            assert relative_residual(problem, tau, rhs, solution) <= SOLVE_RTOL
        np.testing.assert_array_equal(l_x, problem.l_implicit @ x)


def test_singular_symbol_block_raises():
    # tau L_hat[0] = I makes the block I - tau L_hat[0] vanish exactly
    problem = burgers_problem(20)
    symbol = problem.l_symbol.copy()
    symbol[0] = 2.0 * np.eye(3)
    singular = replace(problem, l_symbol=symbol)
    with pytest.raises(SolverFailure, match="stage symbol inversion failed"):
        singular.factorize(0.5)


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_non_finite_symbol_solve_raises_for_any_rhs(b):
    # a nan in one block leaves its inverse all nan, and so x; b = 0 takes
    # the same refinement as any other b and fails it, with no relative size
    problem = burgers_problem(20)
    symbol = problem.l_symbol.copy()
    symbol[1, 0, 0] = np.nan
    solve = replace(problem, l_symbol=symbol).factorize(0.5)
    with pytest.raises(SolverFailure, match="residual stalled at nan relative"):
        solve(np.full(problem.dim, b))


def test_symbol_stage_solve_negative_tau_rejected():
    with pytest.raises(ValueError, match="tau must be >= 0"):
        burgers_problem(20).factorize(-0.1)


@pytest.mark.parametrize("kind", ["sparse", "symbol"])
def test_tau_zero_stage_solver_is_the_identity(monkeypatch, kind):
    # factorize(0) is the one identity solver: it builds no factorization of
    # either arm and hands back a new copy of b with no L x
    def no_factorization(*args, **kwargs):
        raise AssertionError("tau = 0 factorized a stage system")

    monkeypatch.setattr(spla, "splu", no_factorization)
    monkeypatch.setattr(np.linalg, "inv", no_factorization)
    if kind == "sparse":
        problem = make_split_problem(discretize(AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 2, 6)))
    else:
        problem = burgers_problem(20)
    rhs = np.random.default_rng(3).standard_normal(problem.dim)
    x, l_x = problem.factorize(0.0)(rhs)
    np.testing.assert_array_equal(x, rhs)
    assert not np.shares_memory(x, rhs)
    assert l_x is None


# ------------------------------------------------- PDE one-step identities


@pytest.fixture(scope="module")
def small_advdiff():
    cfg = AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 4)
    disc = discretize(cfg)
    return cfg, disc, make_split_problem(disc)


def test_imex1_matches_direct_one_step_matrix(small_advdiff):
    cfg, disc, problem = small_advdiff
    rng = np.random.default_rng(42)
    u = rng.standard_normal(problem.dim)
    dt = 0.3
    d_minus, d2 = disc.opset_adv.D_minus, disc.d2op.D2
    eye = sp.identity(problem.dim, format="csc")
    direct = spla.spsolve(
        (eye - cfg.c * dt * d2).tocsc(), u - cfg.a * dt * (d_minus @ u)
    )
    stepped = one_step(tableau_imex1(), problem, u, dt)
    assert np.max(np.abs(direct - stepped)) <= 1e-12


def test_imex2_matches_two_stage_formulas(small_advdiff):
    cfg, disc, problem = small_advdiff
    rng = np.random.default_rng(43)
    u = rng.standard_normal(problem.dim)
    dt = 0.25
    tb = tableau_imex2()
    gamma, delta = tb.c[1], tb.b_explicit[0]
    d_minus, d2 = disc.opset_adv.D_minus, disc.d2op.D2
    eye = sp.identity(problem.dim, format="csc")
    stage_mat = (eye - gamma * cfg.c * dt * d2).tocsc()
    s1 = spla.spsolve(stage_mat, u - dt * gamma * cfg.a * (d_minus @ u))
    rhs = (
        u
        - dt * (delta * cfg.a * (d_minus @ u) + (1 - delta) * cfg.a * (d_minus @ s1))
        + dt * (1 - gamma) * cfg.c * (d2 @ s1)
    )
    direct = spla.spsolve(stage_mat, rhs)
    stepped = one_step(tb, problem, u, dt)
    assert np.max(np.abs(direct - stepped)) <= 1e-12


class CountingCsr(sp.csr_matrix):
    """CSR matrix that counts its applications to vectors."""

    applications = 0

    def __matmul__(self, other):
        if isinstance(other, np.ndarray) and other.ndim == 1:
            CountingCsr.applications += 1
        return super().__matmul__(other)


# (F evaluations, L applications) per step: F only where a coefficient reads
# it, L only in the refinement check, whose product the step reuses
@pytest.mark.parametrize(
    "factory,f_calls,l_calls",
    [(tableau_imex1, 1, 1), (tableau_imex2, 2, 2), (tableau_imex3, 4, 3)],
)
def test_step_evaluation_counts(small_advdiff, factory, f_calls, l_calls):
    cfg, disc, problem = small_advdiff
    calls = [0]

    def f_explicit(t, u):
        calls[0] += 1
        return problem.f_explicit(t, u)

    counted = ImexSplitProblem(
        problem.dim, f_explicit, CountingCsr(problem.l_implicit), problem.m_diag
    )
    stepper = Stepper(factory(), counted)
    u = np.sin(disc.nodes)
    u = stepper.advance(u, 0.3)  # builds the factorizations
    calls[0] = CountingCsr.applications = 0
    for k in range(3):
        u = stepper.advance(u, 0.3, 0.3 * (k + 1))
    assert (calls[0], CountingCsr.applications) == (3 * f_calls, 3 * l_calls)


def test_step_is_unchanged_by_skipped_evaluations(small_advdiff):
    # the reference recomputes F and L at every stage value, as a step did
    # before it skipped unread evaluations
    cfg, disc, problem = small_advdiff
    u = np.random.default_rng(5).standard_normal(problem.dim)
    lmat, dt = problem.l_implicit, 0.4
    for factory in ALL_TABLEAUX:
        tb = factory()
        s = tb.n_stages
        stages = [u]
        for i in range(1, s):
            rhs = u.copy()
            for j in range(i):
                if tb.a_explicit[i, j] != 0.0:
                    rhs += dt * tb.a_explicit[i, j] * problem.f_explicit(0.0, stages[j])
                if tb.a_implicit[i, j] != 0.0:
                    rhs += dt * tb.a_implicit[i, j] * (lmat @ stages[j])
            stages.append(solve_implicit_stage(lmat, dt * tb.a_implicit[i, i], rhs, problem.m_diag))
        expected = u.copy()
        for j in range(s):
            if tb.b_explicit[j] != 0.0:
                expected += dt * tb.b_explicit[j] * problem.f_explicit(0.0, stages[j])
            if tb.b_implicit[j] != 0.0:
                expected += dt * tb.b_implicit[j] * (lmat @ stages[j])
        np.testing.assert_array_equal(one_step(tb, problem, u, dt), expected)


# ------------------------------------- stage systems: bit-identity reference
#
# Roundoff sets some scan thresholds, so the sparse stage path must keep the
# arithmetic of its reference bit for bit: the stage matrix assembled as
# (diag(M) - tau M L).tocsc() and a step that reads its coefficients from the
# tableau's arrays and measures norms with np.linalg.norm.


def reference_stage_matrix(lmat, m_diag, tau):
    return (sp.diags(m_diag) - tau * (sp.diags(m_diag) @ lmat.tocsr())).tocsc()


def reference_stage_solver(lmat, m_diag, tau):
    base_solve = spla.splu(reference_stage_matrix(lmat, m_diag, tau)).solve
    row_norm = float(np.max(np.abs(lmat).sum(axis=1)))
    noise_per_x = 64.0 * np.finfo(float).eps * (1.0 + tau * row_norm)

    def tolerance(b_norm, x_norm):
        return max(SOLVE_RTOL * b_norm, noise_per_x * x_norm)

    def solve(rhs):
        b_norm = float(np.linalg.norm(rhs))
        x = base_solve(m_diag * rhs)
        if b_norm == 0.0:
            return x, lmat @ x
        for _ in range(5):
            l_x = lmat @ x
            residual = rhs - (x - tau * l_x)
            if np.linalg.norm(residual) <= tolerance(b_norm, float(np.linalg.norm(x))):
                return x, l_x
            x = x + base_solve(m_diag * residual)
        l_x = lmat @ x
        residual = rhs - (x - tau * l_x)
        assert np.linalg.norm(residual) <= tolerance(b_norm, float(np.linalg.norm(x)))
        return x, l_x

    return solve


def reference_step(tableau, problem, u_n, dt, t_n, solvers):
    a_ex, a_im, c = tableau.a_explicit, tableau.a_implicit, tableau.c
    s = tableau.n_stages
    # F or L is read at a stage value that a coefficient below the diagonal, or a weight, reads
    reads_f = (a_ex != 0.0).any(axis=0) | (tableau.b_explicit != 0.0)
    reads_l = (np.tril(a_im, -1) != 0.0).any(axis=0) | (tableau.b_implicit != 0.0)
    lmat = problem.l_implicit
    f_ex = [None] * s
    l_u = [None] * s

    def eval_stage(i, u, l_x):
        if reads_f[i]:
            f_ex[i] = problem.f_explicit(t_n + c[i] * dt, u)
        if reads_l[i]:
            l_u[i] = lmat @ u if l_x is None else l_x

    eval_stage(0, u_n, None)
    for i in range(1, s):
        rhs = u_n.copy()
        for j in range(i):
            if f_ex[j] is not None and a_ex[i, j] != 0.0:
                rhs += dt * a_ex[i, j] * f_ex[j]
            if l_u[j] is not None and a_im[i, j] != 0.0:
                rhs += dt * a_im[i, j] * l_u[j]
        tau = dt * a_im[i, i]
        if tau not in solvers:
            solvers[tau] = reference_stage_solver(lmat, problem.m_diag, tau)
        eval_stage(i, *solvers[tau](rhs))
    u_next = u_n.copy()
    for j in range(s):
        if f_ex[j] is not None and tableau.b_explicit[j] != 0.0:
            u_next += dt * tableau.b_explicit[j] * f_ex[j]
        if l_u[j] is not None and tableau.b_implicit[j] != 0.0:
            u_next += dt * tableau.b_implicit[j] * l_u[j]
    return u_next


def burgers_problem(n_cells):
    return burgers_rhs(build_lgl(2), uniform_mesh(-np.pi, np.pi, n_cells), 0.5, 0.5, 0.1)


def scan_step_sizes(dt, t_final=100.0):
    """The distinct step sizes of a run: multiples of dt differ in the last ulp."""
    return sorted({t_next - t for t, t_next in step_times(dt, t_final)})


def assert_same_system(got, expected):
    assert got.format == expected.format == "csc"
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("n_cells", [2, 3, 20, 80])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 0.0)])
def test_pattern_filled_stage_matrix_is_bit_identical(pair, degree, n_cells):
    problem = make_split_problem(discretize(AdvDiffConfig(0.1, 0.1, *pair, degree, n_cells)))
    sizes = scan_step_sizes(1.213066)  # the order-1, N = 3, K = 20 scan tau, in dt
    assert len(sizes) > 1
    diagonals = [g for tb in (tableau_imex2(), tableau_imex3()) for g in np.diag(tb.a_implicit)]
    steps = sizes + [0.013, 0.37, 10.0]
    taus = sorted({h * g for h in steps for g in diagonals + [1.0] if g != 0.0})
    rhs = np.random.default_rng(3).standard_normal(problem.dim)
    for tau in taus:
        got = problem.system(tau)
        expected = reference_stage_matrix(problem.l_implicit, problem.m_diag, tau)
        assert_same_system(got, expected)
        np.testing.assert_array_equal(spla.splu(got).solve(rhs), spla.splu(expected).solve(rhs))


def test_pattern_filled_burgers_stage_matrix_is_bit_identical():
    problem = burgers_problem(100)
    gamma = float(tableau_imex2().a_implicit[1, 1])
    rhs = np.random.default_rng(4).standard_normal(problem.dim)
    for h in scan_step_sizes(0.02, 20.0) + [0.1]:
        for tau in (h * gamma, h):
            got = problem.system(tau)
            expected = reference_stage_matrix(problem.l_implicit, problem.m_diag, tau)
            assert_same_system(got, expected)
            np.testing.assert_array_equal(spla.splu(got).solve(rhs), spla.splu(expected).solve(rhs))


def test_pattern_filled_matrix_drops_exact_cancellations():
    # tau L = I on the first two nodes: the reference drops the zero entries
    lmat = sp.csr_matrix(np.diag([2.0, 2.0, -1.0, -3.0]) + np.diag([0.5, 0.5, 0.5], 1))
    problem = ImexSplitProblem(4, zero_f, lmat, np.array([0.3, 0.7, 1.1, 0.2]))
    expected = reference_stage_matrix(lmat, problem.m_diag, 0.5)
    assert expected.nnz == 5
    assert_same_system(problem.system(0.5), expected)
    # the pattern survives the fill it was copied into
    assert_same_system(
        problem.system(0.25), reference_stage_matrix(lmat, problem.m_diag, 0.25)
    )


@pytest.mark.parametrize("factory", ALL_TABLEAUX)
@pytest.mark.parametrize("case", ["incompatible", "burgers"])
def test_step_is_bit_identical_to_reference_step(factory, case):
    if case == "burgers":
        # the SuperLU stepping algebra on a nonlinear F with C != 0
        problem, dt = replace(burgers_problem(100), l_symbol=None), 0.02
        u = np.sin(np.linspace(-np.pi, np.pi, problem.dim))
    else:
        disc = discretize(AdvDiffConfig(0.1, 0.1, 0.5, 0.0, 3, 20))
        problem, dt = make_split_problem(disc), 1.213066
        u = np.sin(disc.nodes)
    tableau = factory()
    stepper = Stepper(tableau, problem)
    expected, solvers, sizes = u, {}, set()
    for k, (t, t_next) in zip(range(40), step_times(dt, 100.0)):
        u = stepper.advance(u, t_next - t, t)
        expected = reference_step(tableau, problem, expected, t_next - t, t, solvers)
        np.testing.assert_array_equal(u, expected)
        sizes.add(t_next - t)
    assert len(sizes) > 1  # step sizes that differ in the last ulp


# ------------------------------------------------------------- integrate


NON_FINITE = [float("nan"), float("inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_step_size_is_rejected(bad):
    problem = ImexSplitProblem(1, lambda t, u: -u, np.zeros((1, 1)), np.ones(1))
    u0 = np.array([1.0])
    with pytest.raises(ValueError, match="dt must be finite"):
        integrate(tableau_imex1(), problem, u0, bad, 1.0)
    with pytest.raises(ValueError, match="dt must be finite"):
        one_step(tableau_imex2(), problem, u0, bad)
    with pytest.raises(ValueError, match="dt must be finite"):
        next(step_times(bad, 1.0))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_final_time_is_rejected(bad):
    problem = ImexSplitProblem(1, lambda t, u: -u, np.zeros((1, 1)), np.ones(1))
    with pytest.raises(ValueError, match="t_final must be finite"):
        integrate(tableau_imex1(), problem, np.array([1.0]), 0.1, bad)
    with pytest.raises(ValueError, match="t_final must be finite"):
        next(step_times(0.1, bad))


@pytest.mark.parametrize("dt", [5.0, 1e10, 1e300])
def test_step_above_final_time_takes_one_step_to_it(dt):
    # the end tolerance is relative to t_final alone: one relative to dt
    # would exceed t_final once dt > 1e12 t_final, and no step would be taken
    assert list(step_times(dt, 1e-3)) == [(0.0, 1e-3)]


def test_nan_step_on_implicit_problem_is_not_a_solver_failure():
    problem = ImexSplitProblem(1, lambda t, u: -u, np.array([[-2.0]]), np.ones(1))
    with pytest.raises(ValueError, match="dt must be finite"):
        one_step(tableau_imex2(), problem, np.array([0.7]), float("nan"))


@pytest.mark.parametrize(
    "factory,final_start",
    [(tableau_imex1, 1), (tableau_imex2, 2), (tableau_imex3, -1)],
)
def test_final_sum_continues_a_stage_sum(factory, final_start):
    # imex1 and imex2 (stiffly accurate, F unread at the last stage) end with
    # the last stage's right-hand side plus one L term
    stages, (start, final) = factory().step_plan
    assert start == final_start
    if start >= 0:
        assert len(final) == 1 and final[0][0] == len(stages) + start


def test_integrate_single_step():
    problem = ImexSplitProblem(1, lambda t, u: -u, np.zeros((1, 1)), np.ones(1))
    _, trace = integrate(tableau_imex1(), problem, np.array([1.0]), 0.5, 0.5)
    assert len(trace.steps) == 2  # initial record + one step


def test_integrate_truncates_final_step():
    problem = ImexSplitProblem(1, lambda t, u: -u, np.zeros((1, 1)), np.ones(1))
    _, trace = integrate(tableau_imex1(), problem, np.array([1.0]), 0.4, 1.0)
    times = np.array(trace.steps)[:, 1]
    np.testing.assert_allclose(times, [0.0, 0.4, 0.8, 1.0], atol=1e-15)
    assert times[-1] == 1.0


def test_integrate_observer_early_stop():
    problem = ImexSplitProblem(1, lambda t, u: -u, np.zeros((1, 1)), np.ones(1))
    _, trace = integrate(
        tableau_imex1(),
        problem,
        np.array([1.0]),
        0.1,
        10.0,
        observer=lambda k, t, e: k >= 3,
    )
    assert len(trace.steps) == 4


@pytest.mark.parametrize("k", [1, 7])
def test_failed_step_carries_trace_and_time_out_of_integrate(small_advdiff, monkeypatch, k):
    # every stage solve of step k fails: the failure carries the run's rows
    # 0..k-1 and step k's t_next
    _, disc, problem = small_advdiff
    tableau, u0, dt, t_final = tableau_imex2(), np.sin(disc.nodes), 0.1, 2.0
    _, full = integrate(tableau, problem, u0, dt, t_final)
    solves_per_step = int(np.count_nonzero(np.diag(tableau.a_implicit)))
    calls = [0]
    real_solve = Stepper.solve

    def failing(self, tau, rhs):
        calls[0] += 1
        if calls[0] > (k - 1) * solves_per_step:
            raise SolverFailure("injected")
        return real_solve(self, tau, rhs)

    monkeypatch.setattr(Stepper, "solve", failing)
    with pytest.raises(SolverFailure, match="injected") as info:
        integrate(tableau, problem, u0, dt, t_final)
    assert [row[0] for row in info.value.trace.steps] == list(range(k))
    assert info.value.trace.steps == full.steps[:k]
    assert info.value.time == list(step_times(dt, t_final))[k - 1][1]


def test_failure_outside_a_run_carries_no_trace():
    # tau L = I makes each stage system vanish, as in the singular tests above
    singular_symbol = np.zeros((3, 3, 3)) + 2.0 * np.eye(3)
    failing = [
        lambda: solve_implicit_stage(2.0 * sp.identity(4), 0.5, np.ones(4), np.ones(4)),
        lambda: replace(burgers_problem(4), l_symbol=singular_symbol).factorize(0.5),
    ]
    for fail in failing:
        with pytest.raises(SolverFailure) as info:
            fail()
        assert (info.value.trace, info.value.time) == (None, None)


def test_pure_diffusion_energy_decay():
    cfg = AdvDiffConfig(0.1, 0.1, 0.0, 0.0, 2, 10)
    disc = discretize(cfg)
    problem = ImexSplitProblem(
        disc.nodes.size, zero_f, (cfg.c * disc.d2op.D2).tocsr(), disc.m_diag
    )
    u0 = np.sin(disc.nodes)
    _, trace = integrate(tableau_imex2(), problem, u0, 0.5, 10.0)
    energies = np.array(trace.steps)[:, 2]
    assert np.all(np.diff(energies) < 0)


def test_energy_trace_csv(tmp_path):
    problem = ImexSplitProblem(1, lambda t, u: -u, np.zeros((1, 1)), np.ones(1))
    _, trace = integrate(tableau_imex1(), problem, np.array([1.0]), 0.5, 1.0)
    path = tmp_path / "energy.csv"
    cli._write_energy(path, trace.steps)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t,energy"
    assert len(lines) == 1 + len(trace.steps)


def test_stepper_session_reuses_cache():
    cfg = AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 4)
    disc = discretize(cfg)
    problem = make_split_problem(disc)
    stepper = Stepper(tableau_imex2(), problem)
    u = np.sin(disc.nodes)
    for k in range(3):
        u = stepper.advance(u, 0.5, 0.5 * k)
    assert len(stepper._solvers) == 1  # one tau, factored once


# -------------------------------------------------- energy contracts


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("a,c", [(0.1, 0.1), (0.2, 0.01)])
def test_guaranteed_step_bounds_keep_energy_monotone(theta, a, c):
    # compatible pair at the guaranteed step bounds: energy never grows
    cfg = AdvDiffConfig(a, c, theta, theta, 2, 8)
    disc = discretize(cfg)
    problem = make_split_problem(disc)
    u0 = np.sin(disc.nodes)
    for tb, dt in ((tableau_imex1(), 2 * c / a**2), (tableau_imex2(), c / (11 * a**2))):
        _, trace = integrate(tb, problem, u0, dt, 50.0)
        energies = np.array(trace.steps)[:, 2]
        growth = np.diff(energies) / energies[:-1]
        assert np.max(growth) <= 1e-12
