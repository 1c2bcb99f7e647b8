import numpy as np
import pytest

from upwind_gsbp import problems
from upwind_gsbp.imex import integrate, tableau_imex2
from upwind_gsbp.mesh import Mesh1D, physical_nodes, uniform_mesh
from upwind_gsbp.operators import second_derivative_from
from upwind_gsbp.problems import (
    AdvDiffConfig,
    burgers_rhs,
    decay_solution,
    discretize,
    growth_solution,
    initial_condition,
    l2_error,
    make_split_problem,
    solution_by_kind,
)
from upwind_gsbp.ref_element import build_lgl


# ------------------------------------------------------------- config


@pytest.mark.parametrize("field", ["a", "c"])
def test_config_rejects_nan_coefficient(field):
    values = dict(a=0.1, c=0.1, theta_adv=0.5, theta_diff=0.5, degree=1, n_cells=4)
    values[field] = float("nan")
    with pytest.raises(ValueError, match=f"{field} must be > 0, got nan"):
        AdvDiffConfig(**values)


def test_config_validation():
    with pytest.raises(ValueError):
        AdvDiffConfig(a=0.0, c=0.1, theta_adv=0.5, theta_diff=0.5, degree=1, n_cells=4)
    with pytest.raises(ValueError):
        AdvDiffConfig(a=0.1, c=-1.0, theta_adv=0.5, theta_diff=0.5, degree=1, n_cells=4)
    with pytest.raises(ValueError):
        AdvDiffConfig(a=0.1, c=0.1, theta_adv=0.7, theta_diff=0.5, degree=1, n_cells=4)


# --------------------------------------------------- manufactured solutions


def decay_derivatives(a, c):
    """(u_t, u_x, u_xx) of ``decay_solution(a, c)``, differentiated by hand."""
    return (
        lambda x, t: np.exp(-c * t) * (-c * np.sin(x - a * t) - a * np.cos(x - a * t)),
        lambda x, t: np.exp(-c * t) * np.cos(x - a * t),
        lambda x, t: -np.exp(-c * t) * np.sin(x - a * t),
    )


def growth_derivatives(c):
    """(u_t, u_x, u_xx) of ``growth_solution(c)``, differentiated by hand."""
    return (
        lambda x, t: c * np.exp(c * t) * np.sin(x),
        lambda x, t: np.exp(c * t) * np.cos(x),
        lambda x, t: -np.exp(c * t) * np.sin(x),
    )


def finite_difference_residual(sol, a, c, x, t, h=1e-6):
    # independent check of the closed forms through central differences
    u_t = (sol.u(x, t + h) - sol.u(x, t - h)) / (2 * h)
    u_x = (sol.u(x + h, t) - sol.u(x - h, t)) / (2 * h)
    u_xx = (sol.u(x + h, t) - 2 * sol.u(x, t) + sol.u(x - h, t)) / h**2
    residual = u_t + a * u_x - c * u_xx
    if sol.source is not None:
        residual = residual - sol.source(x, t)
    return residual


@pytest.mark.parametrize("a,c", [(0.1, 0.1), (1.0, 0.1), (0.2, 0.01)])
def test_decay_solution_satisfies_pde(a, c):
    sol = decay_solution(a, c)
    u_t, u_x, u_xx = decay_derivatives(a, c)
    rng = np.random.default_rng(1)
    x = rng.uniform(-np.pi, np.pi, 200)
    t = rng.uniform(0.0, 10.0, 200)
    residual = u_t(x, t) + a * u_x(x, t) - c * u_xx(x, t)
    assert np.max(np.abs(residual)) <= 1e-10
    assert np.max(np.abs(finite_difference_residual(sol, a, c, x, t))) <= 1e-4


def test_growth_solution_satisfies_forced_pde():
    c = 0.1
    sol = growth_solution(c)
    u_t, u_x, u_xx = growth_derivatives(c)
    rng = np.random.default_rng(2)
    x = rng.uniform(-np.pi, np.pi, 200)
    t = rng.uniform(0.0, 10.0, 200)
    residual = u_t(x, t) + u_x(x, t) - c * u_xx(x, t) - sol.source(x, t)
    assert np.max(np.abs(residual)) <= 1e-10
    assert np.max(np.abs(finite_difference_residual(sol, 1.0, c, x, t))) <= 1e-4


def test_derivatives_match_finite_differences():
    # the hand derivatives are those of the package's closed forms
    x = np.linspace(-2.0, 2.0, 7)
    t = 1.3
    h = 1e-6
    for sol, (u_t, u_x, u_xx) in (
        (decay_solution(0.3, 0.05), decay_derivatives(0.3, 0.05)),
        (growth_solution(0.05), growth_derivatives(0.05)),
    ):
        fd_t = (sol.u(x, t + h) - sol.u(x, t - h)) / (2 * h)
        np.testing.assert_allclose(u_t(x, t), fd_t, atol=1e-8)
        fd_x = (sol.u(x + h, t) - sol.u(x - h, t)) / (2 * h)
        np.testing.assert_allclose(u_x(x, t), fd_x, atol=1e-8)
        fd_xx = (sol.u(x + 1e-4, t) - 2 * sol.u(x, t) + sol.u(x - 1e-4, t)) / 1e-8
        np.testing.assert_allclose(u_xx(x, t), fd_xx, atol=1e-6)


def test_solution_kind_names_its_closed_form():
    x, t = np.linspace(-3.0, 3.0, 9), 1.7
    decay = solution_by_kind("decay", 0.3, 0.05)
    assert decay.source is None
    np.testing.assert_array_equal(decay.u(x, t), decay_solution(0.3, 0.05).u(x, t))
    growth = solution_by_kind("growth", 1.0, 0.05)
    np.testing.assert_array_equal(growth.u(x, t), growth_solution(0.05).u(x, t))
    np.testing.assert_array_equal(growth.source(x, t), growth_solution(0.05).source(x, t))
    with pytest.raises(ValueError, match="the growth solution is defined for a = 1"):
        solution_by_kind("growth", 0.5, 0.05)
    with pytest.raises(ValueError, match="unknown solution kind 'wave'"):
        solution_by_kind("wave", 1.0, 0.05)


# ----------------------------------------------------- initial data, error


def test_initial_condition_samples():
    mesh = uniform_mesh(-np.pi, np.pi, 10)
    elem = build_lgl(2)
    sol = decay_solution(0.1, 0.1)
    u0 = initial_condition(sol, mesh, elem)
    np.testing.assert_allclose(u0, np.sin(physical_nodes(mesh, elem)), atol=1e-15)

    grow = growth_solution(0.1)
    np.testing.assert_allclose(
        initial_condition(grow, mesh, elem), np.sin(physical_nodes(mesh, elem)), atol=1e-15
    )


def test_l2_error_exact_state_is_zero():
    cfg = AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 2, 6)
    disc = discretize(cfg)
    sol = decay_solution(cfg.a, cfg.c)
    state = sol.u(disc.nodes, 2.5)
    assert l2_error(state, sol, 2.5, disc.nodes, disc.m_diag) == 0.0


def test_l2_error_single_entry():
    # error vector with one unit entry has M-norm sqrt(dx w_v / 2)
    cfg = AdvDiffConfig(0.1, 0.1, 0.0, 0.0, 2, 4)
    disc = discretize(cfg)
    sol = decay_solution(cfg.a, cfg.c)
    t = 1.0
    state = sol.u(disc.nodes, t)
    v = 5  # second cell, middle node
    state[v] += 1.0
    want = np.sqrt(disc.mesh.widths[1] * disc.elem.weights[2] / 2.0)
    assert l2_error(state, sol, t, disc.nodes, disc.m_diag) == pytest.approx(want, rel=1e-14)


# ------------------------------------------------------- semidiscretization


def test_constants_are_stationary():
    problem = make_split_problem(discretize(AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 2, 6)))
    k = 4.2 * np.ones(problem.dim)
    assert np.max(np.abs(problem.f_explicit(0.0, k))) <= 1e-12
    assert np.max(np.abs(problem.l_implicit @ k)) <= 1e-12


def test_source_is_evaluated_at_stage_times():
    cfg = AdvDiffConfig(1.0, 0.1, 0.0, 0.0, 1, 4)
    disc = discretize(cfg)
    sol = growth_solution(cfg.c)
    problem = make_split_problem(disc, sol.source)
    u = np.zeros(problem.dim)
    f0 = problem.f_explicit(0.0, u)
    f1 = problem.f_explicit(1.0, u)
    np.testing.assert_allclose(f0, sol.source(disc.nodes, 0.0), atol=1e-15)
    np.testing.assert_allclose(f1, sol.source(disc.nodes, 1.0), atol=1e-15)
    assert not np.allclose(f0, f1)


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_semidiscrete_energy_dissipation(theta):
    # d/dt |u|_M^2 = -2a (D-u,u)_M + 2c (D2u,u)_M <= 0 for all states
    cfg = AdvDiffConfig(0.3, 0.2, theta, theta, 2, 6)
    disc = discretize(cfg)
    problem = make_split_problem(disc)
    rng = np.random.default_rng(9)
    for _ in range(30):
        u = rng.standard_normal(problem.dim)
        rate = 2.0 * u @ (disc.m_diag * (problem.f_explicit(0.0, u) + problem.l_implicit @ u))
        assert rate <= 1e-10 * (u @ u)


def test_incompatible_pair_builds_two_opsets(monkeypatch):
    # a compatible pair shares one assembly between D- and D2
    thetas = []
    assemble = problems.assemble_first_derivative

    def counted(elem, mesh, theta, topology):
        thetas.append(theta)
        return assemble(elem, mesh, theta, topology)

    monkeypatch.setattr(problems, "assemble_first_derivative", counted)
    disc = discretize(AdvDiffConfig(0.1, 0.1, 0.5, 0.0, 1, 4))
    assert thetas == [0.5, 0.0]
    assert disc.opset_adv.theta == 0.5
    expected = second_derivative_from(assemble(disc.elem, disc.mesh, 0.0, "periodic")).D2
    assert (disc.d2op.D2 != expected).nnz == 0
    thetas.clear()
    discretize(AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 4))
    assert thetas == [0.5]


# ------------------------------------------------------------- Burgers


@pytest.fixture(scope="module")
def burgers_problem():
    elem = build_lgl(2)
    mesh = uniform_mesh(-np.pi, np.pi, 20)
    problem = burgers_rhs(elem, mesh, 0.5, 0.0, c=0.1)
    return problem, physical_nodes(mesh, elem)


def test_burgers_rhs_refuses_a_non_uniform_mesh():
    # its stage systems are solved on the symbol of L, which only a uniform mesh has
    elem = build_lgl(2)
    mesh = uniform_mesh(-np.pi, np.pi, 8)
    assert burgers_rhs(elem, mesh, 0.5, 0.0, c=0.1).l_symbol.shape == (5, 3, 3)
    widths = mesh.widths * np.array([0.5, 1.5] * 4)
    graded = Mesh1D(-np.pi, np.pi, widths)
    with pytest.raises(ValueError, match="uniform mesh"):
        burgers_rhs(elem, graded, 0.5, 0.0, c=0.1)


def test_burgers_constant_state_is_stationary(burgers_problem):
    problem, _ = burgers_problem
    k = 1.7 * np.ones(problem.dim)
    assert np.max(np.abs(problem.f_explicit(0.0, k))) <= 1e-12
    assert np.max(np.abs(problem.l_implicit @ k)) <= 1e-11


def test_burgers_flux_terms_match_assembled_operators():
    from upwind_gsbp.operators import assemble_first_derivative

    elem = build_lgl(2)
    mesh = uniform_mesh(-np.pi, np.pi, 12)
    central = burgers_rhs(elem, mesh, 0.0, 0.0, c=0.1)
    upwind = burgers_rhs(elem, mesh, 0.5, 0.0, c=0.1)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(central.dim)
    flux = 0.5 * u * u
    # central: C = 0, so the rhs is exactly the conservative part -(D f)
    ops0 = assemble_first_derivative(elem, mesh, 0.0, "periodic")
    conservative0 = -(ops0.D_minus @ flux)
    np.testing.assert_allclose(central.f_explicit(0.0, u), conservative0, atol=1e-13)
    # upwind: conservative part from (D+ + D-)/2 plus |u|_inf M^-1 C u
    ops5 = assemble_first_derivative(elem, mesh, 0.5, "periodic")
    conservative5 = -0.5 * ((ops5.D_plus + ops5.D_minus) @ flux)
    dissipation = np.max(np.abs(u)) * (ops5.C @ u) / ops5.m_diag
    np.testing.assert_allclose(
        upwind.f_explicit(0.0, u), conservative5 + dissipation, atol=1e-12
    )
    assert np.max(np.abs(dissipation)) > 1e-3  # the term is genuinely active


def test_burgers_dissipation_term_sign(burgers_problem):
    problem, _ = burgers_problem
    # u' M (|u|_inf M^-1 C u) = |u|_inf u' C u <= 0: the full rhs cannot
    # pump energy through interfaces beyond the conservative part
    rng = np.random.default_rng(5)
    elem = build_lgl(2)
    mesh = uniform_mesh(-np.pi, np.pi, 20)
    from upwind_gsbp.operators import assemble_first_derivative

    ops = assemble_first_derivative(elem, mesh, 0.5, "periodic")
    for _ in range(20):
        u = rng.standard_normal(ops.dim)
        diss = np.max(np.abs(u)) * (ops.C @ u) / ops.m_diag
        assert u @ (ops.m_diag * diss) <= 1e-12


def test_burgers_mean_conservation(burgers_problem):
    problem, nodes = burgers_problem
    u = np.sin(nodes)
    total = problem.f_explicit(0.0, u) + problem.l_implicit @ u
    assert abs(np.sum(problem.m_diag * total)) <= 1e-11


def test_burgers_short_integration_is_finite(burgers_problem):
    problem, nodes = burgers_problem
    u0 = np.sin(nodes)
    u, trace = integrate(tableau_imex2(), problem, u0, 0.1, 0.5)
    assert np.all(np.isfinite(u))
    assert trace.steps[-1][2] <= trace.steps[0][2]
