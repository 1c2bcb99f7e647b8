"""Block-Fourier stepping, cross-checked against the sparse engine."""

import numpy as np
import pytest

from upwind_gsbp import experiments
from upwind_gsbp.fourier import FourierEngine, FourierProblem
from upwind_gsbp.imex import (
    SolverFailure,
    Stepper,
    integrate,
    step,
    step_times,
    tableau_by_name,
)
from upwind_gsbp.mesh import Mesh1D
from upwind_gsbp.operators import assemble_first_derivative, second_derivative_from
from upwind_gsbp.problems import AdvDiffConfig, discretize, make_split_problem
from upwind_gsbp.ref_element import build_lgl

PAIRS = [(0.5, 0.5), (0.0, 0.0), (0.5, 0.0)]


def build(order, pair, degree, n_cells, max_growth=np.inf):
    cfg = AdvDiffConfig(0.1, 0.1, pair[0], pair[1], degree, n_cells)
    disc = discretize(cfg)
    problem = make_split_problem(disc)
    tableau = tableau_by_name(order)
    engine = FourierEngine(
        -cfg.a * disc.opset_adv.D_minus,
        problem.l_implicit,
        disc.m_diag,
        n_cells,
        tableau,
        max_growth,
    )
    return disc, problem, tableau, engine


# K odd and even: the rfft weights differ between them
@pytest.mark.parametrize("n_cells", [7, 8])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_fourier_step_matches_sparse_step(order, pair, degree, n_cells):
    disc, problem, tableau, engine = build(order, pair, degree, n_cells)
    u = np.random.default_rng(7).standard_normal(problem.dim)
    dt = 0.7
    fourier = engine.problem([dt]).stepper(tableau)
    state = fourier.state(u)
    assert fourier.energy(state) == pytest.approx(problem.energy(u), rel=1e-14)
    np.testing.assert_allclose(fourier.nodal(state), u, rtol=0, atol=1e-14 * np.max(np.abs(u)))
    expected = step(tableau, problem, u, dt)
    stepped = fourier.advance(state, dt)
    got = fourier.nodal(stepped)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert fourier.energy(stepped) == pytest.approx(problem.energy(expected), rel=1e-13)


@pytest.mark.parametrize("n_cells", [5, 8])
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_amplification_matches_dense_norm(order, pair, n_cells):
    disc, problem, tableau, engine = build(order, pair, 2, n_cells)
    dt = 1.3
    stepper = Stepper(tableau, problem)
    dense = np.column_stack([stepper.advance(e, dt) for e in np.eye(problem.dim)])
    m_half = np.sqrt(disc.m_diag)
    expected = np.linalg.norm(m_half[:, None] * dense / m_half[None, :], 2)
    assert abs(engine.amplification(engine.step_map(dt)) - expected) <= 1e-12


# ------------------------------------------------------------------ guards


def test_rejects_operator_that_is_not_block_circulant():
    disc, problem, tableau, _ = build(2, (0.5, 0.5), 2, 6)
    lmat = problem.l_implicit.tolil()
    lmat[7, 7] *= 1.0 + 1e-10
    with pytest.raises(ValueError, match="block-circulant"):
        FourierEngine(disc.opset_adv.D_minus, lmat.tocsr(), disc.m_diag, 6, tableau, np.inf)


def test_accepts_roundoff_in_assembled_products():
    # rows of D2 = D- D+ differ from its first block row in the last ulps
    disc, problem, tableau, _ = build(2, (0.0, 0.0), 2, 5)
    d2 = disc.d2op.D2.toarray()
    first = d2[:3]
    shifted = np.vstack([np.roll(first, 3 * i, axis=1) for i in range(5)])
    assert 0.0 < np.max(np.abs(d2 - shifted)) <= 1e-15 * np.max(np.abs(d2))
    FourierEngine(disc.opset_adv.D_minus, disc.d2op.D2, disc.m_diag, 5, tableau, np.inf)


def test_rejects_non_uniform_norm_matrix():
    elem = build_lgl(2)
    widths = np.full(6, 2.0 * np.pi / 6)
    widths[0] *= 1.2
    widths[1] = 2.0 * np.pi - widths[0] - widths[2:].sum()
    mesh = Mesh1D(-np.pi, np.pi, widths)
    opset = assemble_first_derivative(elem, mesh, 0.5, "periodic")
    d2 = second_derivative_from(opset).D2
    with pytest.raises(ValueError, match="norm matrix"):
        FourierEngine(opset.D_minus, d2, opset.m_diag, 6, tableau_by_name(1), np.inf)


def test_singular_block_solve_is_a_solver_failure():
    disc, problem, tableau, engine = build(1, (0.5, 0.5), 1, 6)
    dt = 0.5
    # I - dt L_hat vanishes on every block
    engine.l_hat = np.broadcast_to(np.eye(2) / dt, engine.l_hat.shape).astype(complex)
    with pytest.raises(SolverFailure):
        engine.step_map(dt)


def test_inaccurate_block_solve_is_a_solver_failure(monkeypatch):
    disc, problem, tableau, engine = build(2, (0.5, 0.5), 2, 6)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda g, b: solve(g, b) * (1.0 + 1e-6))
    with pytest.raises(SolverFailure, match="residual"):
        engine.step_map(0.5)


def test_probe_reports_block_solve_failure():
    scan_cfg = experiments.ScanConfig(1, AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 6), horizon=0.5)
    ctx = experiments._ProbeContext(scan_cfg)
    ctx.fourier.l_hat = np.broadcast_to(np.eye(2) / 0.5, ctx.fourier.l_hat.shape).astype(complex)
    assert ctx.probe(0.5) == experiments.SOLVER_FAILURE


def test_uncertified_step_map_is_never_applied():
    # incompatible pair far above its threshold: the energy can grow
    _, problem, tableau, engine = build(1, (0.5, 0.0), 2, 10, 1.0 + experiments.CERTIFIED_GROWTH)
    u0 = np.sin(np.linspace(-np.pi, np.pi, problem.dim))
    uncertified = engine.problem([50.0])
    assert not uncertified.certified
    with pytest.raises(RuntimeError, match="certified"):
        integrate(tableau, uncertified, u0, 50.0, 100.0)


def test_certified_problem_steps_only_its_own_step_sizes():
    _, problem, tableau, engine = build(2, (0.5, 0.5), 2, 10, 1.0 + experiments.CERTIFIED_GROWTH)
    u0 = np.sin(np.linspace(-np.pi, np.pi, problem.dim))
    certified = engine.problem([0.1])
    assert certified.certified
    with pytest.raises(RuntimeError, match="certified"):
        integrate(tableau, certified, u0, 0.2, 1.0)
    with pytest.raises(ValueError, match="imex2"):
        integrate(tableau_by_name(1), certified, u0, 0.1, 1.0)


def test_integrate_fourier_matches_sparse_trajectory():
    disc, problem, tableau, engine = build(2, (0.5, 0.5), 3, 20, 1.0 + experiments.CERTIFIED_GROWTH)
    u0 = np.sin(disc.nodes)
    dt, t_final = 0.37, 10.0
    fourier = engine.problem(t_next - t for t, t_next in step_times(dt, t_final))
    assert isinstance(fourier, FourierProblem) and fourier.certified
    u_sparse, trace_sparse = integrate(tableau, problem, u0, dt, t_final)
    u_fourier, trace_fourier = integrate(tableau, fourier, u0, dt, t_final)
    assert trace_fourier.times().tolist() == trace_sparse.times().tolist()
    np.testing.assert_allclose(trace_fourier.energies(), trace_sparse.energies(), rtol=1e-12)
    np.testing.assert_allclose(u_fourier, u_sparse, rtol=0, atol=1e-12)


# ------------------------------------------------------ scans, both engines


@pytest.mark.parametrize(
    "order,degree,n_cells,pair",
    [(1, 3, 20, (0.5, 0.0)), (2, 1, 20, (0.5, 0.5)), (3, 2, 10, (0.0, 0.0))],
)
def test_scan_probes_identical_without_fourier(monkeypatch, order, degree, n_cells, pair):
    scan_cfg = experiments.ScanConfig(
        order, AdvDiffConfig(0.1, 0.1, pair[0], pair[1], degree, n_cells)
    )
    engines = []
    real_integrate = experiments.integrate

    def recording(tableau, problem, *args, **kwargs):
        engines.append(type(problem).__name__)
        return real_integrate(tableau, problem, *args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", recording)
    with_fourier = experiments.max_stable_dt(scan_cfg)
    assert "FourierProblem" in engines and "ImexSplitProblem" in engines

    engines.clear()
    # no step map passes a certificate below -infinity
    monkeypatch.setattr(experiments, "CERTIFIED_GROWTH", -np.inf)
    sparse_only = experiments.max_stable_dt(scan_cfg)
    assert set(engines) == {"ImexSplitProblem"}
    assert with_fourier.probes == sparse_only.probes
    assert with_fourier.tau_label == sparse_only.tau_label
