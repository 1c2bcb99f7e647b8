import concurrent.futures
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from upwind_gsbp import experiments, imex
from upwind_gsbp.experiments import (
    ConvergenceRow,
    ScanConfig,
    convergence_csv_lines,
    max_stable_dt,
    run_burgers_demo,
    run_convergence,
    scan_many,
    stability_csv_lines,
)
from upwind_gsbp.problems import AdvDiffConfig


def scan_cfg(order, theta_adv, theta_diff, degree=1, n_cells=20, a=0.1, c=0.1, horizon=100.0):
    return ScanConfig(
        order=order,
        cfg=AdvDiffConfig(a, c, theta_adv, theta_diff, degree, n_cells),
        horizon=horizon,
    )


# ------------------------------------------------------------------ probes


def is_stable(scan_cfg, dt):
    """Verdict of one scan probe: the energy is non-increasing at every step."""
    return experiments._ProbeContext(scan_cfg).probe(dt) == experiments.STABLE


def test_theory_floor_is_stable():
    cfg = scan_cfg(1, 0.5, 0.5)
    assert is_stable(cfg, 2 * 0.1 / 0.1**2)  # dt = 2c/a^2


def test_vanishing_step_is_stable():
    cfg = scan_cfg(2, 0.5, 0.0, n_cells=10)
    assert is_stable(cfg, 1e-3 * cfg.dt_scale)


def test_incompatible_pair_probes_bracket_threshold():
    # K=20 carries the 3.3e-1 threshold, K=40 the 1.6e-1 one
    cfg20 = scan_cfg(1, 0.5, 0.0, n_cells=20)
    assert is_stable(cfg20, 0.32 * cfg20.dt_scale)
    cfg40 = scan_cfg(1, 0.5, 0.0, n_cells=40)
    assert is_stable(cfg40, 0.08 * cfg40.dt_scale)
    assert not is_stable(cfg40, 0.32 * cfg40.dt_scale)
    assert not is_stable(cfg40, 2.0 * cfg40.dt_scale)


# ---------------------------------------------------------- energy monitor


def test_energy_monitor_growth_slack_follows_previous_step(monkeypatch):
    monkeypatch.setattr(experiments, "ENERGY_GROWTH_RTOL", 0.5)
    monitor = experiments.EnergyMonitor(4.0)
    assert monitor(1, 0.1, 5.0) is False  # 5 <= 4 * 1.5
    assert monitor(2, 0.2, 3.0) is False
    assert not monitor.grew and monitor.growth_ratio is None
    assert monitor(3, 0.3, 4.8) is True  # 4.8 > 3 * 1.5: above the slack over step 2
    assert monitor.grew
    assert monitor.first_growth == 3
    assert monitor.growth_ratio == pytest.approx(1.6, rel=1e-15)


def test_energy_monitor_blowup_factor_is_fixed():
    monitor = experiments.EnergyMonitor(2.0, blowup_factor=10.0)
    for k, energy in enumerate([5.0, 15.0, 20.0], start=1):
        assert monitor(k, 0.1 * k, energy) is False  # growth, but not above 10 * 2
    assert not monitor.grew
    assert monitor(4, 0.4, 30.0) is True
    assert monitor.first_growth == 4
    assert monitor.growth_ratio == 15.0


@pytest.mark.parametrize("mode", [{}, {"blowup_factor": 1e3}])
def test_energy_monitor_non_finite_energy_is_growth(mode):
    monitor = experiments.EnergyMonitor(1.0, **mode)
    assert monitor(1, 0.1, 0.5) is False
    assert monitor(2, 0.2, float("inf")) is True
    assert monitor.first_growth == 2
    assert monitor.growth_ratio == float("inf")


# ------------------------------------------------------------ max_stable_dt


def test_scan_finds_incompatible_threshold():
    res = max_stable_dt(scan_cfg(1, 0.5, 0.0, n_cells=40))
    assert not res.unbounded and not res.below_bracket
    assert res.tau == pytest.approx(0.16, rel=0.25)
    # monotone probes: no stable step above an unstable one, up to the bisection resolution
    stable = [dt for dt, status in res.probes if status == experiments.STABLE]
    unstable = [dt for dt, status in res.probes if status != experiments.STABLE]
    assert max(stable) <= min(unstable) * (1.0 + experiments.RESOLUTION)


def test_scan_unbounded_at_cap():
    res = max_stable_dt(scan_cfg(1, 0.5, 0.5, n_cells=20), bracket=None)
    assert res.unbounded
    assert res.tau_label == "+"


def test_unbounded_scan_stops_at_its_first_probe_past_the_horizon():
    # every dt >= horizon is one step of size horizon: a later probe repeats it
    cfg = scan_cfg(1, 0.5, 0.5, n_cells=20)
    res = max_stable_dt(cfg)
    assert res.unbounded and res.tau == experiments.DEFAULT_TAU_CAP
    dts = [dt for dt, _ in res.probes]
    assert dts[-1] >= cfg.horizon > dts[-2]
    assert all(status == experiments.STABLE for _, status in res.probes)


def test_scan_below_bracket(monkeypatch):
    # every probe unstable: the lower bound halves down to TAU_FLOOR, default
    # and explicit brackets alike, and only then is the scan below_bracket
    monkeypatch.setattr(experiments._ProbeContext, "probe", lambda self, dt: experiments.UNSTABLE)
    cfg = scan_cfg(1, 0.5, 0.0, n_cells=40)
    scale = cfg.dt_scale
    for tau_lo in (None, 1.0, 5.0):
        bracket = None if tau_lo is None else (tau_lo * scale, 100.0 * scale)
        res = max_stable_dt(cfg, bracket=bracket)
        assert res.below_bracket
        assert res.tau is None
        assert res.tau_label == "below_bracket"
        dt_lo = (experiments.DEFAULT_TAU_LO if tau_lo is None else tau_lo) * scale
        assert [dt for dt, _ in res.probes] == [dt_lo / 2.0**k for k in range(len(res.probes))]
        assert all(status == experiments.UNSTABLE for _, status in res.probes)
        lowest = [dt / scale for dt, _ in res.probes[-2:]]
        assert lowest[0] > experiments.TAU_FLOOR >= lowest[1]


def test_scan_rejects_a_downwind_advection_pair():
    # raised before any probe: at horizon 1 the probes of this pair would
    # all be stable, and at the default horizon halving toward TAU_FLOOR
    # would take about 2e8 steps
    with pytest.raises(ValueError, match="theta_adv.*dissipation axiom"):
        max_stable_dt(scan_cfg(1, -0.5, 0.0, n_cells=4, horizon=1.0))
    assert max_stable_dt(scan_cfg(1, 0.0, -0.5, n_cells=4, horizon=1.0)).unbounded


def test_scan_extends_below_default_tau_lo():
    # threshold sits under the default tau_lo = 0.01: halving must find it
    cfg = scan_cfg(1, 0.5, 0.0, degree=3, n_cells=320)
    res = max_stable_dt(cfg)
    assert not res.below_bracket
    assert res.tau == pytest.approx(6.5e-3, rel=0.3)


def test_scan_explicit_bracket_extends_below_its_lower_bound():
    cfg = scan_cfg(1, 0.5, 0.0, n_cells=40)
    extended = max_stable_dt(cfg, bracket=(1.0 * cfg.dt_scale, 10.0 * cfg.dt_scale))
    assert extended.probes[0] == (1.0 * cfg.dt_scale, experiments.UNSTABLE)
    assert not extended.below_bracket
    assert extended.tau == pytest.approx(0.16, rel=0.25)


def probe_bracket(res):
    """(largest stable, smallest unstable) step size a scan probed."""
    return (
        max(dt for dt, s in res.probes if s == "stable"),
        min(dt for dt, s in res.probes if s != "stable"),
    )


def test_scan_probe_log_is_consistent():
    res = max_stable_dt(scan_cfg(1, 0.5, 0.0, n_cells=40))
    lo, hi = probe_bracket(res)
    assert lo / res.config.dt_scale == res.tau
    assert hi >= lo


def test_scan_determinism():
    a = max_stable_dt(scan_cfg(2, 0.25, 0.25, n_cells=20))
    b = max_stable_dt(scan_cfg(2, 0.25, 0.25, n_cells=20))
    assert a.tau == b.tau and a.probes == b.probes


def test_scan_many_orders_results_deterministically():
    cfgs = [scan_cfg(1, 0.5, 0.0, n_cells=k) for k in (20, 40)]
    serial = scan_many(cfgs, workers=1)
    parallel = scan_many(cfgs, workers=2)
    assert [r.tau for r in serial] == [r.tau for r in parallel]
    lines = stability_csv_lines(serial)
    assert lines[0].startswith("order,N,K")
    assert len(lines) == 3


def test_scan_pool_has_no_more_workers_than_scans(monkeypatch):
    # a pool forks all its workers at its first submit, so none is started here
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "max_stable_dt", lambda cfg: cfg.cfg.n_cells)
    cfgs = [scan_cfg(1, 0.5, 0.0, n_cells=k) for k in (20, 40)]
    assert scan_many(cfgs, workers=64) == [20, 40]
    assert pools == [2]
    assert scan_many(cfgs[:1], workers=64) == [20]
    assert pools == [2]


def record_probes(monkeypatch):
    """Per integrate call of a scan: (tableau, engine, factorized taus, trace times)."""
    runs, built = [], []
    real_factorize = imex.ImexSplitProblem.factorize
    real_integrate = experiments.integrate

    def factorize(problem, tau):
        built.append(tau)
        return real_factorize(problem, tau)

    def recording(tableau, problem, *args, **kwargs):
        built.clear()
        u, trace = real_integrate(tableau, problem, *args, **kwargs)
        runs.append((tableau, type(problem).__name__, list(built), [t for _, t, _ in trace.steps]))
        return u, trace

    monkeypatch.setattr(imex.ImexSplitProblem, "factorize", factorize)
    monkeypatch.setattr(experiments, "integrate", recording)
    return runs


def test_scan_builds_stage_pieces_once(monkeypatch):
    # the tau-free parts of the stage systems (the sparsity pattern of
    # M - M L and the values on it) belong to the problem, which every probe
    # of a scan shares
    calls = []
    real_pattern = imex.ImexSplitProblem._pattern.func

    def counted(problem):
        calls.append(problem)
        return real_pattern(problem)

    pattern = cached_property(counted)
    pattern.__set_name__(imex.ImexSplitProblem, "_pattern")
    monkeypatch.setattr(imex.ImexSplitProblem, "_pattern", pattern)
    runs = record_probes(monkeypatch)
    max_stable_dt(scan_cfg(1, 0.5, 0.0, degree=3, n_cells=20))
    assert sum(engine == "ImexSplitProblem" for _, engine, _, _ in runs) > 1
    assert len(calls) == 1


def test_sparse_probe_factorizes_once_per_stage_coefficient(monkeypatch):
    # step sizes t_next - t of one run differ in the last ulp, and each size
    # gets its own factorization; a fixed step would change the arithmetic
    runs = record_probes(monkeypatch)
    max_stable_dt(scan_cfg(2, 0.5, 0.0, degree=3, n_cells=20))
    sparse = [run for run in runs if run[1] == "ImexSplitProblem"]
    assert sparse
    spread = 0
    for tableau, _, taus, times in sparse:
        sizes = set(np.diff(times).tolist())
        diagonal = {float(g) for g in np.diag(tableau.a_implicit) if g != 0.0}
        assert len(taus) == len(set(taus))
        assert set(taus) == {h * g for h in sizes for g in diagonal}
        spread += len(sizes) > 1
    assert spread > 0


# ------------------------------------------------------------- convergence


def test_convergence_zero_horizon_is_exact():
    base = AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 20)
    rows = run_convergence(base, order=2, mu=25.0, cell_counts=[20, 40], t_final=0.0)
    assert all(row.error == 0.0 for row in rows)


def test_convergence_table_shape():
    base = AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 20)
    rows = run_convergence(base, order=2, mu=25.0, cell_counts=[20, 40, 80])
    assert rows[0].eoc is None
    assert all(row.error is not None for row in rows)
    assert rows[1].eoc == pytest.approx(2.13, abs=0.1)
    csv = convergence_csv_lines([(base, 25.0, rows)])
    assert csv[0] == "N,K,dt_rule,theta_adv,theta_diff,l2_error,eoc"
    assert len(csv) == 4


def test_convergence_unstable_rows_are_dashes():
    # upwind advection with central diffusion at mu = 25 loses stability
    base = AdvDiffConfig(0.1, 0.1, 0.5, 0.0, 1, 20)
    rows = run_convergence(base, order=2, mu=25.0, cell_counts=[40, 80])
    assert all(row.error is None for row in rows)
    assert all(row.error_label() == "-" for row in rows)


def test_convergence_solver_failure_is_a_dash_row(monkeypatch):
    # a failed stage solve marks its level unstable, and the next level has
    # no previous error to take an EOC from
    real_integrate = experiments.integrate
    calls = []

    def failing_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise imex.SolverFailure("injected")
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", failing_second)
    base = AdvDiffConfig(0.1, 0.1, 0.5, 0.5, 1, 20)
    rows = run_convergence(base, order=2, mu=25.0, cell_counts=[20, 40, 80], t_final=1.0)
    assert [row.error is None for row in rows] == [False, True, False]
    assert (rows[1].error_label(), rows[1].eoc_label()) == ("-", "-")
    assert rows[2].error is not None and rows[2].eoc is None


def test_convergence_growth_solution_requires_unit_velocity():
    base = AdvDiffConfig(0.5, 0.1, 0.0, 0.0, 1, 20)
    with pytest.raises(ValueError):
        run_convergence(base, 2, 1.0, [20], solution_kind="growth")


def test_convergence_growth_solution_runs():
    base = AdvDiffConfig(1.0, 0.1, 0.0, 0.0, 2, 20)
    rows = run_convergence(base, order=3, mu=0.5, cell_counts=[20, 40], solution_kind="growth")
    assert all(row.error is not None for row in rows)
    assert rows[1].eoc == pytest.approx(3.0, abs=0.15)


# ----------------------------------------------------------------- Burgers


def test_burgers_demo_blowup_and_stable():
    results = run_burgers_demo(0.5, 0.0, [100], dt=0.1, t_final=2.0)
    assert results[0].blew_up
    assert results[0].blowup_time < 2.0

    ok = run_burgers_demo(0.0, 0.0, [50, 100], dt=0.1, t_final=2.0)
    for res in ok:
        assert not res.blew_up
        assert res.final_time == pytest.approx(2.0)
        assert res.u_final.shape == res.nodes.shape
        assert np.all(np.isfinite(res.u_final))


def test_burgers_solver_failure_is_blowup_at_failed_step(monkeypatch):
    # every stage solve of step k fails: the run blows up at that step's
    # t_next and its energy rows end at step k - 1
    k, dt, t_final = 7, 0.1, 2.0
    solves_per_step = int(np.count_nonzero(np.diag(imex.tableau_imex2().a_implicit)))
    calls = [0]
    real_solve = imex.Stepper.solve

    def failing(self, tau, rhs):
        calls[0] += 1
        if calls[0] > (k - 1) * solves_per_step:
            raise imex.SolverFailure("injected")
        return real_solve(self, tau, rhs)

    monkeypatch.setattr(imex.Stepper, "solve", failing)
    res = run_burgers_demo(0.0, 0.0, [20], dt=dt, t_final=t_final, order=2)[0]
    assert res.blew_up
    assert res.blowup_time == list(imex.step_times(dt, t_final))[k - 1][1]
    assert [row[0] for row in res.energy] == list(range(k))
    assert res.final_time == res.energy[-1][1]
    assert res.u_final is None


def burgers_with_symbol(monkeypatch, edit):
    """Make each Burgers run step the problem ``edit`` makes of its own."""
    real = experiments.burgers_rhs
    monkeypatch.setattr(experiments, "burgers_rhs", lambda *args: edit(real(*args)))


def test_burgers_energy_is_the_same_without_the_symbol(monkeypatch):
    # the golden K = 100 run: the symbol path and SuperLU differ only in roundoff
    run = lambda: run_burgers_demo(0.5, 0.5, [100], dt=0.02, t_final=2.0, order=2)[0]
    fourier = run()
    burgers_with_symbol(monkeypatch, lambda problem: replace(problem, l_symbol=None))
    sparse = run()
    assert not fourier.blew_up and not sparse.blew_up
    assert [row[:2] for row in fourier.energy] == [row[:2] for row in sparse.energy]
    got, expected = (np.array([row[2] for row in res.energy]) for res in (fourier, sparse))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_singular_symbol_block_is_blowup_at_its_step(monkeypatch):
    # imex1 at dt = 1/8 solves I - L_hat / 8, which a block L_hat[0] = 8 I makes zero
    def singular(problem):
        symbol = problem.l_symbol.copy()
        symbol[0] = 8.0 * np.eye(symbol.shape[-1])
        return replace(problem, l_symbol=symbol)

    burgers_with_symbol(monkeypatch, singular)
    res = run_burgers_demo(0.0, 0.0, [20], dt=0.125, t_final=1.0, order=1)[0]
    assert res.blew_up
    assert res.blowup_time == 0.125
    assert [row[0] for row in res.energy] == [0]
    assert res.u_final is None


def test_burgers_demo_diffusion_dominated_is_monotone():
    res = run_burgers_demo(0.0, 0.0, [20], dt=0.01, t_final=0.5, c=1000.0)[0]
    energies = np.array([row[2] for row in res.energy])
    assert not res.blew_up
    # decays toward the mean; non-increasing up to roundoff at the zero floor
    assert np.all(np.diff(energies) <= 1e-12 * energies[:-1])
    assert energies[-1] <= 1e-12 * energies[0]
