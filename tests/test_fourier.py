"""Block-Fourier stepping, cross-checked against the sparse engine."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from upwind_gsbp import experiments, operators, problems
from upwind_gsbp.fourier import (
    CERTIFIED_GROWTH,
    FourierEngine,
    FourierProblem,
    _checked_solve,
    amplification,
)
from upwind_gsbp.imex import (
    SolverFailure,
    Stepper,
    integrate,
    step,
    step_times,
    tableau_by_name,
)
from upwind_gsbp.mesh import uniform_mesh
from upwind_gsbp.problems import AdvDiffConfig, discretize, make_split_problem

PAIRS = [(0.5, 0.5), (0.0, 0.0), (0.5, 0.0)]

# Largest entry of A - circ(first block row of A), relative to the largest
# entry of A, that still counts as block-circulant. Assembled products carry
# roundoff: the rows of D2 = D- D+ differ from its first block row by about
# 1.5e-16 relative (8.9e-16 on entries of 6.1).
CIRCULANT_RTOL = 1e-13


def _block_symbols(mat, n: int, k_cells: int) -> np.ndarray:
    """Symbols A_hat[k], k = 0..K//2, of a block-circulant matrix, shape (K//2+1, n, n).

    Raises ValueError when ``mat`` is not block-circulant to CIRCULANT_RTOL.
    """
    mat = sp.csr_matrix(mat)
    if mat.shape != (n * k_cells, n * k_cells):
        raise ValueError(f"operator of shape {mat.shape}, expected {n * k_cells} square")
    # blocks[m] = A[0, m], the coupling of cell i to cell i + m
    blocks = mat[:n].toarray().reshape(n, k_cells, n).transpose(1, 0, 2)
    cells = np.arange(k_cells)
    circulant = sp.csr_matrix(mat.shape)
    for m in np.flatnonzero(np.abs(blocks).max(axis=(1, 2))):
        shift = sp.csr_matrix(
            (np.ones(k_cells), (cells, (cells + m) % k_cells)), shape=(k_cells, k_cells)
        )
        circulant = circulant + sp.kron(shift, blocks[m], format="csr")
    scale = float(np.max(np.abs(mat.data))) if mat.nnz else 0.0
    diff = (mat - circulant).tocsr()
    off = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    if off > CIRCULANT_RTOL * scale:
        raise ValueError(
            f"operator is not block-circulant: entries differ by {off:.3e} "
            f"from shifted copies of the first block row (scale {scale:.3e})"
        )
    # sum_m A_m exp(+2 pi i k m / K) is the conjugate of the forward transform
    return np.fft.rfft(blocks, axis=0).conj()


def _reference_step_maps(engine, step_sizes) -> np.ndarray:
    """The step maps of the Fourier engine's own stage loop, before it ran the step plan."""
    tb = engine.tableau
    s = tb.n_stages
    # F or L is read at a stage value that a coefficient below the diagonal, or a weight, reads
    reads_f = (tb.a_explicit != 0.0).any(axis=0) | (tb.b_explicit != 0.0)
    reads_l = (np.tril(tb.a_implicit, -1) != 0.0).any(axis=0) | (tb.b_implicit != 0.0)
    h = np.asarray(step_sizes, dtype=float)[:, None, None, None]
    eye = np.broadcast_to(np.eye(engine.m_cell.size), engine.a_hat.shape)
    start = np.broadcast_to(eye, h.shape[:1] + engine.a_hat.shape).astype(complex)
    f = [None] * s
    lu = [None] * s

    def eval_stage(i, u):
        if reads_f[i]:
            f[i] = engine.a_hat @ u
        if reads_l[i]:
            lu[i] = engine.l_hat @ u

    eval_stage(0, eye)
    for i in range(1, s):
        rhs = start
        for j in range(i):
            if f[j] is not None and tb.a_explicit[i, j] != 0.0:
                rhs = rhs + h * tb.a_explicit[i, j] * f[j]
            if lu[j] is not None and tb.a_implicit[i, j] != 0.0:
                rhs = rhs + h * tb.a_implicit[i, j] * lu[j]
        tau = h * tb.a_implicit[i, i]
        u_i = _checked_solve(eye - tau * engine.l_hat, rhs) if tb.a_implicit[i, i] != 0.0 else rhs
        eval_stage(i, u_i)
    s_map = start
    for j in range(s):
        if f[j] is not None and tb.b_explicit[j] != 0.0:
            s_map = s_map + h * tb.b_explicit[j] * f[j]
        if lu[j] is not None and tb.b_implicit[j] != 0.0:
            s_map = s_map + h * tb.b_implicit[j] * lu[j]
    return s_map


def build(order, pair, degree, n_cells):
    cfg = AdvDiffConfig(0.1, 0.1, pair[0], pair[1], degree, n_cells)
    disc = discretize(cfg)
    problem = make_split_problem(disc)
    tableau = tableau_by_name(order)
    engine = FourierEngine(disc, tableau)
    return disc, problem, tableau, engine


# K = 2: the left and the right neighbour share one block slot
@pytest.mark.parametrize("n_cells", [2, 3, 7, 8, 20, 80])
@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("pair", PAIRS + [(0.25, 0.25)])
def test_symbols_match_assembled_operators(pair, degree, n_cells):
    disc, problem, _, engine = build(1, pair, degree, n_cells)
    n = degree + 1
    assembled = ((engine.a_hat, -0.1 * disc.opset_adv.D_minus), (engine.l_hat, problem.l_implicit))
    for got, mat in assembled:
        expected = _block_symbols(mat, n, n_cells)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    np.testing.assert_array_equal(np.tile(engine.m_cell, n_cells), disc.m_diag)


def _inline_symbols(cfg, elem):
    """(A_hat, L_hat) by the formula FourierEngine computed inline before d_minus_symbol.

    Its dx is the width the engine computed from DOMAIN before it read the mesh.
    """
    dx = (problems.DOMAIN[1] - problems.DOMAIN[0]) / cfg.n_cells
    phase = np.exp(2j * np.pi * np.arange(cfg.n_cells // 2 + 1) / cfg.n_cells)[:, None, None]

    def d_minus_hat(theta):
        a11, a12, a21 = operators.cell_blocks(elem, theta)[:3]
        return (2.0 / dx) * (a11 + a12 * phase + a21 * phase.conj())

    a_hat = -cfg.a * d_minus_hat(cfg.theta_adv)
    return a_hat, cfg.c * (d_minus_hat(cfg.theta_diff) @ d_minus_hat(-cfg.theta_diff))


@pytest.mark.parametrize("n_cells", [2, 3, 20, 80])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("pair", PAIRS + [(0.25, 0.25)])
def test_symbols_are_bit_identical_to_inline_formula(pair, degree, n_cells):
    # scan routing and verdicts hang on these bits; Burgers solves on the same L_hat
    cfg = AdvDiffConfig(0.1, 0.1, pair[0], pair[1], degree, n_cells)
    disc = discretize(cfg)
    elem = disc.elem
    engine = FourierEngine(disc, tableau_by_name(1))
    a_hat, l_hat = _inline_symbols(cfg, elem)
    np.testing.assert_array_equal(engine.a_hat, a_hat)
    np.testing.assert_array_equal(engine.l_hat, l_hat)
    dx = (problems.DOMAIN[1] - problems.DOMAIN[0]) / n_cells
    # the cell norm the engine reads off the assembled one is the (dx/2) w it computed before
    np.testing.assert_array_equal(engine.m_cell, 0.5 * dx * elem.weights)
    np.testing.assert_array_equal(cfg.c * operators.d2_symbol(elem, pair[1], n_cells, dx), l_hat)
    mesh = uniform_mesh(*problems.DOMAIN, n_cells)
    burgers = problems.burgers_rhs(elem, mesh, pair[0], pair[1], cfg.c)
    np.testing.assert_array_equal(burgers.l_symbol, l_hat)


def test_engine_assembles_no_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Fourier engine assembled a global operator")

    disc = discretize(AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 10, 1280))
    for module in (operators, problems):
        monkeypatch.setattr(module, "assemble_first_derivative", refuse)
    monkeypatch.setattr(operators, "_first_derivative_matrix", refuse)
    engine = FourierEngine(disc, tableau_by_name(2))
    assert engine.a_hat.shape == (641, 11, 11)
    assert np.isfinite(amplification(engine.orthonormal_maps([0.01])))


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_step_maps_are_bit_identical_to_reference_loop(order, degree):
    # a run's step sizes differ in the last ulp; 0.7 is a single step
    sizes = sorted({t_next - t for t, t_next in step_times(0.37, 100.0)}) + [0.7]
    assert len(sizes) > 2
    for n_cells in (2, 3, 7, 8, 20, 80):
        for pair in PAIRS + [(0.25, 0.25)]:
            engine = build(order, pair, degree, n_cells)[3]
            got, expected = engine.step_maps(sizes), _reference_step_maps(engine, sizes)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


# K odd and even: the rfft weights differ between them
@pytest.mark.parametrize("n_cells", [7, 8])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_fourier_step_matches_sparse_step(order, pair, degree, n_cells):
    disc, problem, tableau, engine = build(order, pair, degree, n_cells)
    u = np.random.default_rng(7).standard_normal(problem.dim)
    dt = 0.7
    fourier = engine.problem(dt, dt).stepper(tableau)
    state = fourier.state(u)
    assert fourier.energy(state) == pytest.approx(problem.energy(u), rel=1e-14)
    np.testing.assert_allclose(fourier.nodal(state), u, rtol=0, atol=1e-14 * np.max(np.abs(u)))
    expected = step(Stepper(tableau, problem), u, dt)
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
    assert abs(amplification(engine.orthonormal_maps([dt]))[0] - expected) <= 1e-12


# dt = 0.5 and 100 give one step size over the horizon; the others give
# several, which differ in the last ulp except for a truncated last step.
# At dt = 44 the last step is 12, which order 3 does not certify on some
# meshes that certify 44.
ROUTING_STEPS = [0.05, 0.37, 0.5, 1.213066, 7.3, 44.0, 100.0]


def test_certificate_decides_as_the_svd_of_every_map(monkeypatch):
    svd = np.linalg.svd
    svd_maps = [0]

    def counting(a, *args, **kwargs):
        svd_maps[0] += a.shape[0]  # maps come stacked by step size
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    cases = ["svd", "one size", "several sizes", "largest only"]
    decided = dict.fromkeys(cases, 0)
    for order, pair, degree, n_cells in itertools.product([1, 2, 3], PAIRS, [1, 3], [5, 8, 20]):
        engine = build(order, pair, degree, n_cells)[3]
        for dt in ROUTING_STEPS:
            sizes = sorted({t_next - t for t, t_next in step_times(dt, 100.0)})
            svd_maps[0] = 0
            certified = engine.problem(dt, 100.0) is not None
            norms = amplification(engine.orthonormal_maps(sizes))
            assert certified == all(norms**2 <= 1.0 + CERTIFIED_GROWTH)
            decided["svd"] += svd_maps[0] > 0
            decided["one size" if len(sizes) == 1 else "several sizes"] += 1
            decided["largest only"] += not certified and norms[-1] ** 2 <= 1.0 + CERTIFIED_GROWTH
    assert all(count > 0 for count in decided.values()), decided


def test_certified_step_cannot_report_growth():
    # The scan routes a probe on this: from the worst state of each certified map,
    # the top right singular vector of its largest block, one computed step and
    # its two energy sums stay within the monitor's per-step slack.
    worst = []
    for order, pair, degree, n_cells in itertools.product([1, 2, 3], PAIRS, [1, 3], [8, 20]):
        engine = build(order, pair, degree, n_cells)[3]
        for dt in ROUTING_STEPS:
            fourier = engine.problem(dt, 100.0)
            if fourier is None:
                continue
            for size, t_map in fourier._maps.items():
                _, sigma, vh = np.linalg.svd(t_map)
                k = np.argmax(sigma[:, 0])
                v = np.zeros(t_map.shape[:2] + (1,), dtype=complex)
                v[k, :, 0] = vh[k, 0].conj()
                worst.append(fourier.energy(fourier.advance(v, size)) / fourier.energy(v))
    assert worst and max(worst) <= 1.0 + experiments.ENERGY_GROWTH_RTOL


# ------------------------------------------------------------------ guards


def test_singular_block_solve_is_a_solver_failure():
    disc, problem, tableau, engine = build(1, (0.5, 0.5), 1, 6)
    dt = 0.5
    # I - dt L_hat vanishes on every block
    engine.l_hat = np.broadcast_to(np.eye(2) / dt, engine.l_hat.shape).astype(complex)
    with pytest.raises(SolverFailure):
        engine.step_maps([dt])[0]


def test_inaccurate_block_solve_is_a_solver_failure(monkeypatch):
    disc, problem, tableau, engine = build(2, (0.5, 0.5), 2, 6)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda g, b: solve(g, b) * (1.0 + 1e-6))
    with pytest.raises(SolverFailure, match="residual"):
        engine.step_maps([0.5])[0]


def test_probe_reports_block_solve_failure():
    scan_cfg = experiments.ScanConfig(1, AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 6), horizon=0.5)
    ctx = experiments._ProbeContext(scan_cfg)
    ctx.fourier.l_hat = np.broadcast_to(np.eye(2) / 0.5, ctx.fourier.l_hat.shape).astype(complex)
    assert ctx.probe(0.5) == experiments.SOLVER_FAILURE


def test_uncertified_step_map_is_never_applied(monkeypatch):
    # incompatible pair far above its threshold: the energy can grow, so the
    # engine builds no problem and the probe steps the sparse one
    engine = build(1, (0.5, 0.0), 2, 10)[3]
    assert engine.problem(50.0, 100.0) is None
    stepped, real_integrate = [], experiments.integrate

    def recording(tableau, problem, *args, **kwargs):
        stepped.append(type(problem).__name__)
        return real_integrate(tableau, problem, *args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", recording)
    scan_cfg = experiments.ScanConfig(1, AdvDiffConfig(0.1, 0.1, 0.5, 0.0, 2, 10))
    experiments._ProbeContext(scan_cfg).probe(50.0)
    assert stepped == ["ImexSplitProblem"]


def test_certified_problem_steps_only_its_own_step_sizes():
    _, problem, tableau, engine = build(2, (0.5, 0.5), 2, 10)
    u0 = np.sin(np.linspace(-np.pi, np.pi, problem.dim))
    certified = engine.problem(0.1, 1.0)
    assert isinstance(certified, FourierProblem)
    with pytest.raises(RuntimeError, match="certified"):
        integrate(tableau, certified, u0, 0.2, 1.0)
    with pytest.raises(ValueError, match="imex2"):
        integrate(tableau_by_name(1), certified, u0, 0.1, 1.0)


def test_run_with_no_steps_is_certified_and_holds_no_map():
    _, problem, tableau, engine = build(2, (0.5, 0.5), 2, 10)
    u0 = np.sin(np.linspace(-np.pi, np.pi, problem.dim))
    empty = engine.problem(0.1, 0.0)
    assert isinstance(empty, FourierProblem)
    u_final, trace = integrate(tableau, empty, u0, 0.1, 0.0)
    np.testing.assert_allclose(u_final, u0, rtol=0, atol=1e-15)
    assert len(trace.steps) == 1
    with pytest.raises(RuntimeError, match="certified"):
        empty.advance(empty.state(u0), 0.1)


def test_integrate_fourier_matches_sparse_trajectory():
    disc, problem, tableau, engine = build(2, (0.5, 0.5), 3, 20)
    u0 = np.sin(disc.nodes)
    dt, t_final = 0.37, 10.0
    fourier = engine.problem(dt, t_final)
    assert isinstance(fourier, FourierProblem)
    u_sparse, trace_sparse = integrate(tableau, problem, u0, dt, t_final)
    u_fourier, trace_fourier = integrate(tableau, fourier, u0, dt, t_final)
    rows_fourier, rows_sparse = np.array(trace_fourier.steps), np.array(trace_sparse.steps)
    assert rows_fourier[:, :2].tolist() == rows_sparse[:, :2].tolist()
    np.testing.assert_allclose(rows_fourier[:, 2], rows_sparse[:, 2], rtol=1e-12)
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
    monkeypatch.setattr("upwind_gsbp.fourier.CERTIFIED_GROWTH", -np.inf)
    sparse_only = experiments.max_stable_dt(scan_cfg)
    assert set(engines) == {"ImexSplitProblem"}
    assert with_fourier.probes == sparse_only.probes
    assert (with_fourier.tau, with_fourier.unbounded, with_fourier.below_bracket) == (
        sparse_only.tau, sparse_only.unbounded, sparse_only.below_bracket
    )


@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.5, 0.0)])
def test_certified_probe_is_stable(monkeypatch, pair):
    scan_cfg = experiments.ScanConfig(2, AdvDiffConfig(0.1, 0.1, pair[0], pair[1], 2, 20))
    engines = {}
    real_integrate = experiments.integrate

    def recording(tableau, problem, u0, dt, *args, **kwargs):
        engines[dt] = type(problem).__name__
        return real_integrate(tableau, problem, u0, dt, *args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", recording)
    probes = experiments.max_stable_dt(scan_cfg).probes
    verdicts = [status for dt, status in probes if engines.get(dt) == "FourierProblem"]
    assert verdicts and set(verdicts) == {experiments.STABLE}
