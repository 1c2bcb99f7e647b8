"""Benchmark of the ``gsbp`` command line on the scan, burgers and certify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Every workload is a fixed list of ``gsbp`` invocations (see ``workloads.py``)
driven in-process through ``upwind_gsbp.cli.main`` with ``--workers 1``, from
one process with single-threaded BLAS. One pass runs each
invocation once, in the order the seed gives, and every output is checked
against the reference in ``reference/``.

``--trace 0`` reports the end-to-end metrics, with tracing off:

- ``wall_s``: seconds for one pass at the reference host speed. The host's
  speed drifts by up to 1.7x over minutes and 2x within seconds, which moves
  any raw timing between runs by more than a regression bound can allow, so
  the fixed kernel of ``calibrate.py`` is timed before the first invocation
  and after every ``STRETCH_S`` seconds of invocations, and each
  invocation's seconds are scaled by ``REFERENCE_S`` over the mean of the
  two kernel timings around it. ``wall_s`` sums over invocations each one's
  median scaled seconds over the passes that fit in ``--seconds`` (at least
  three). The raw pass seconds (median, quartiles and count) are printed
  beside it.
- ``work_per_s``: work per pass over ``wall_s``: IMEX steps on scan and
  burgers (counted from the energy traces the program returns or writes),
  certified operator sets on certify, which takes no steps.
- ``setup_s``: median over fresh processes of the time to start, import the
  package and finish the workload's warm-up items, scaled to the reference
  speed by the kernel timed just before each process starts and just after
  it ends; the raw median is printed beside it.
- ``peak_rss_mb``: peak resident memory of this process over the warm-up
  and the first MIN_UNTRACED_PASSES passes. Later passes are left out: the
  peak creeps up by a few MB with the number of passes, which the host's
  speed sets.
- ``pass_rate``: share of invocations that exited 0 and passed the output
  check; ``error_rate`` = 1 - ``pass_rate`` is printed beside it.

``--trace 1`` runs each invocation untraced and traced back to back and
reports the per-layer metrics from the spans of ``tracing.py`` (medians over
passes), two isolated timings of the implicit stage solve, and the tracing
overhead: traced minus untraced seconds of a pass, as the median over every
back-to-back pair of an invocation's traced over untraced seconds, less one,
times the median untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--results DIR``
also writes the full record (samples, failures, environment) there, and for
traced runs the spans of the last pass; ``compare.py`` reads two such
directories.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# none imports numpy, which must load only after cap_blas_threads
from calibrate import REFERENCE_S, Kernel
from tracing import Tracer, instrument, layer_metrics, percentile_us, step_counter
from workloads import WORKLOADS, item_key, stage_system

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_SAMPLES = 7
MIN_UNTRACED_PASSES = 3
# least seconds of invocations between two timings of the reference kernel
STRETCH_S = 0.3
STAGE_SOLVE_REPEATS = 15
REFINE_CHECK_BATCH = 200
REFINE_CHECK_BATCHES = 7
BLAS_THREADS = 1


def cap_blas_threads() -> None:
    """Cap BLAS/OpenMP at BLAS_THREADS; must run before numpy loads.

    With two threads, certify's eigensolver needs both CPUs free at once and
    the idle BLAS worker spins: its fastest pass moved 25% between runs,
    against 6% with one thread. The other workloads barely call BLAS.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import upwind_gsbp from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "upwind_gsbp" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import upwind_gsbp

    if not Path(upwind_gsbp.__file__).resolve().is_relative_to(src):
        return None
    return upwind_gsbp


def run_one(cli, argv, out: Path, sink) -> tuple[int | None, float]:
    """Run one invocation into ``out``; (exit status, seconds).

    ``cli.main`` is looked up on every call so that a traced pass reaches the
    wrapped entry point. An invocation that raises has status None.
    """
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            status = cli.main([*argv, "--out", str(out)])
    except (Exception, SystemExit):
        traceback.print_exc()
        status = None
    return status, time.perf_counter() - start


def run_items(cli, items, out_dir: Path) -> tuple[float, list, list[float]]:
    """Run each invocation into its own output directory.

    Returns the pass's wall seconds, the exit statuses and each invocation's
    seconds.
    """
    statuses, seconds = [], []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        start = time.perf_counter()
        for i, argv in enumerate(items):
            status, took = run_one(cli, argv, out_dir / f"{i:02d}", sink)
            statuses.append(status)
            seconds.append(took)
        wall = time.perf_counter() - start
    return wall, statuses, seconds


def run_calibrated(cli, items, out_dir: Path, kernel) -> tuple[list, list[float], list[float]]:
    """Run the invocations as ``run_items`` does, timing the reference kernel between them.

    The kernel runs before the first invocation and after every stretch of
    invocations that took at least STRETCH_S seconds, and after the last.
    Returns the exit statuses, each invocation's seconds, and each
    invocation's seconds at the reference speed: scaled by ``REFERENCE_S``
    over the mean of the two kernel timings around its stretch.
    """
    statuses, seconds, scaled = [], [], []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        before, stretch = kernel(), []
        for i, argv in enumerate(items):
            status, took = run_one(cli, argv, out_dir / f"{i:02d}", sink)
            statuses.append(status)
            seconds.append(took)
            stretch.append(took)
            if sum(stretch) >= STRETCH_S or i == len(items) - 1:
                after = kernel()
                factor = 2.0 * REFERENCE_S / (before + after)
                scaled.extend(took * factor for took in stretch)
                before, stretch = after, []
    return statuses, seconds, scaled


def check_pass(workload, reference, items, out_dir: Path, statuses) -> tuple[list[str], int]:
    """Compare every output with the reference; (failure messages, work read from outputs)."""
    failures = []
    work = 0
    for i, (argv, status) in enumerate(zip(items, statuses)):
        key = item_key(argv)
        if status != 0:
            failures.append(f"{key}: exit status {status}")
            continue
        try:
            got = workload.extract(out_dir / f"{i:02d}")
        except (OSError, ValueError, IndexError) as exc:
            failures.append(f"{key}: unreadable output: {exc}")
            continue
        work += workload.work(got)
        if key not in reference:
            failures.append(f"{key}: no reference output")
        elif (problem := workload.check(reference[key], got)) is not None:
            failures.append(f"{key}: {problem}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return failures, work


def time_setup(workload_name: str, kernel) -> tuple[float, float]:
    """Seconds for a fresh process to start, import the package and run the warm-up items.

    Returns (seconds, seconds at the reference speed, scaled by the kernel
    timed just before the process starts and just after it ends). The probe
    prints the system-wide monotonic clock when its warm-up ends: waiting on
    a process with a timeout polls at up to 50 ms, too coarse to time it by.
    """
    before = kernel()
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload_name],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        print(f"setup probe exited with status {done.returncode}", file=sys.stderr)
        took = time.monotonic() - start
    else:
        took = float(done.stdout.split()[-1]) - start
    after = kernel()
    return took, took * 2.0 * REFERENCE_S / (before + after)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def unit_of(metric: str) -> str:
    for suffix, unit in (
        (".calls", "count"), ("probes", "count"), ("_per_s", "1/s"), ("_us", "us"),
        ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("_share", "ratio"), ("_rate", "ratio"),
    ):
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {metric!r}")


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or "unknown"


def stage_timings(name: str, pkg) -> tuple[float, float]:
    """Isolated costs with no span of their own, at the workload's largest implicit operator.

    Returns (one ``solve_implicit_stage`` call in ms, which factorizes and
    solves; one refinement check in us: ``L @ x``, the residual and two
    norms). Both are 0 on certify, which has no implicit operator.
    """
    import numpy as np

    system = stage_system(name, pkg)
    if system is None:
        return 0.0, 0.0
    lmat, m_diag, tau = system
    rhs = np.sin(np.linspace(-np.pi, np.pi, lmat.shape[0]))
    solve_ms = []
    for _ in range(STAGE_SOLVE_REPEATS):
        start = time.perf_counter()
        x = pkg.solve_implicit_stage(lmat, tau, rhs, m_diag)
        solve_ms.append(1e3 * (time.perf_counter() - start))
    check_us = []
    for _ in range(REFINE_CHECK_BATCHES):
        start = time.perf_counter()
        for _ in range(REFINE_CHECK_BATCH):
            residual = rhs - (x - tau * (lmat @ x))
            np.linalg.norm(residual)
            np.linalg.norm(x)
        check_us.append(1e6 * (time.perf_counter() - start) / REFINE_CHECK_BATCH)
    return statistics.median(solve_ms), statistics.median(check_us)


def measure(budget_s: float, min_count: int, one) -> None:
    """Call ``one`` at least ``min_count`` times, then while another call fits in the budget."""
    start = time.perf_counter()
    durations = []
    while len(durations) < min_count or (
        time.perf_counter() - start + statistics.median(durations) <= budget_s
    ):
        t0 = time.perf_counter()
        one()
        durations.append(time.perf_counter() - t0)


class Run:
    """One benchmark run of one workload: passes, checks and the resulting record."""

    def __init__(self, pkg, workload, seed: int):
        from upwind_gsbp import cli, experiments, imex, problems

        self.pkg = pkg
        self.modules = (cli, experiments, problems, imex)
        self.workload = workload
        self.items = workload.ordered_items(seed)
        self.reference = workload.reference()
        self.attempted = 0
        self.failures: list[str] = []
        self.n_passes = 0
        # seconds of each invocation over the passes, untraced and traced apart
        self.item_seconds = {traced: [[] for _ in self.items] for traced in (False, True)}
        # seconds of each invocation at the reference speed, over the untraced passes
        self.scaled_seconds = [[] for _ in self.items]
        self.kernel = Kernel()
        self.kernel()  # its first call loads the sparse LU solver

    def warm_up(self) -> None:
        """Run the warm-up items untimed; the passes check whatever they break."""
        run_items(self.modules[0], self.workload.warmup, WORK_DIR / "warmup")
        shutil.rmtree(WORK_DIR / "warmup", ignore_errors=True)

    def one_pass(self) -> tuple[float, int]:
        """Run and check one untraced pass; (wall seconds, work done)."""
        out_dir = WORK_DIR / f"pass{self.n_passes:03d}"
        self.n_passes += 1
        steps, counting = step_counter(self.modules[1])
        with counting:
            statuses, seconds, scaled = run_calibrated(
                self.modules[0], self.items, out_dir, self.kernel
            )
        for samples, value in zip(self.item_seconds[False], seconds):
            samples.append(value)
        for samples, value in zip(self.scaled_seconds, scaled):
            samples.append(value)
        failures, work = check_pass(self.workload, self.reference, self.items, out_dir, statuses)
        self.attempted += len(self.items)
        self.failures.extend(failures)
        return sum(seconds), work + steps[0]

    def paired_pass(self, tracer: Tracer) -> tuple[float, float]:
        """Run every invocation untraced and traced back to back; (untraced, traced) seconds.

        The two runs of an invocation see the same host speed, so their
        difference is the tracing overhead even while the host drifts. Which
        runs first alternates between invocations and passes.
        """
        cli = self.modules[0]
        pass_dir = WORK_DIR / f"pass{self.n_passes:03d}"
        totals = {False: 0.0, True: 0.0}
        for i, argv in enumerate(self.items):
            for traced in (False, True) if (self.n_passes + i) % 2 == 0 else (True, False):
                out_dir = pass_dir / f"{i:02d}{'t' if traced else 'u'}"
                with instrument(tracer, *self.modules) if traced else contextlib.nullcontext():
                    _, statuses, (seconds,) = run_items(cli, [argv], out_dir)
                self.item_seconds[traced][i].append(seconds)
                totals[traced] += seconds
                failures, _ = check_pass(self.workload, self.reference, [argv], out_dir, statuses)
                self.attempted += 1
                self.failures.extend(failures)
        self.n_passes += 1
        return totals[False], totals[True]

    def traced_over_untraced(self) -> float:
        """Median over every paired run of an invocation of its traced over untraced seconds.

        A burst of host load within a pair skews one ratio, not the median,
        as it would a difference of pass totals.
        """
        return statistics.median(
            t / u
            for traced, untraced in zip(self.item_seconds[True], self.item_seconds[False])
            for t, u in zip(traced, untraced)
        )

    def scaled_pass_s(self) -> float:
        """Seconds of a pass at the reference speed: each invocation's median, summed."""
        return sum(statistics.median(samples) for samples in self.scaled_seconds)


def end_to_end(run: Run, seconds: int, record: dict) -> dict[str, float]:
    setup_raw, setup = zip(*(time_setup(run.workload.name, run.kernel) for _ in range(SETUP_SAMPLES)))
    run.warm_up()
    walls, works, peak_rss = [], [], []

    def one():
        wall, work = run.one_pass()
        walls.append(wall)
        works.append(work)
        if len(walls) == MIN_UNTRACED_PASSES:
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    measure(seconds, MIN_UNTRACED_PASSES, one)
    wall_s = run.scaled_pass_s()
    record.update(
        wall_s_samples=walls,
        setup_s_samples=list(setup_raw),
        scaled_setup_s_samples=list(setup),
        item_s_samples=run.item_seconds[False],
        scaled_item_s_samples=run.scaled_seconds,
        work_per_pass=works[0],
    )
    return {
        "wall_s": wall_s,
        "work_per_s": statistics.median(works) / wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss[0],
        "pass_rate": 1.0 - len(run.failures) / run.attempted,
    }


def per_layer(run: Run, seconds: int, record: dict, results: Path | None) -> dict[str, float]:
    run.warm_up()
    untraced, traced, uncovered, per_pass, step_self = [], [], [], [], []

    def pair():
        tracer = Tracer()
        untraced_s, traced_s = run.paired_pass(tracer)
        untraced.append(untraced_s)
        traced.append(traced_s)
        uncovered.append((traced_s - tracer.root_time()) / traced_s)
        metrics, selfs = layer_metrics(tracer)
        per_pass.append(metrics)
        step_self.extend(selfs)
        if results is not None:
            tracer.write_csv(results / f"spans-{run.workload.name}-seed{record['seed']}.csv")

    measure(seconds, 1, pair)
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["imex.step.p50_us"] = percentile_us(step_self, 50)
    metrics["imex.step.p99_us"] = percentile_us(step_self, 99)
    solve_ms, check_us = stage_timings(run.workload.name, run.pkg)
    metrics["imex.stage.factorize_solve_ms"] = solve_ms
    metrics["imex.refine_check_us"] = check_us
    step_mean = metrics["imex.step.mean_us"]
    metrics["imex.refine_check_share"] = check_us / step_mean if step_mean else 0.0
    share = run.traced_over_untraced() - 1.0
    metrics["trace.overhead_s"] = share * statistics.median(untraced)
    metrics["trace.overhead_share"] = share
    metrics["trace.uncovered_share"] = statistics.median(uncovered)
    record.update(untraced_wall_s_samples=untraced, traced_wall_s_samples=traced)
    return metrics


def summary_lines(run: Run, record: dict, metrics: dict[str, float]) -> list[str]:
    env = record["environment"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"passes {run.n_passes}  invocations per pass {len(run.items)}",
        "environment " + "  ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for name, value in metrics.items():
        lines.append(f"  {name:34s} {value:.6g} {unit_of(name)}")
    if "wall_s" in metrics:
        q1, q2, q3 = quartiles(record["wall_s_samples"])
        s1, s2, s3 = quartiles(record["setup_s_samples"])
        lines += [
            f"  raw pass seconds q1 / median / q3 {q1:.4f} / {q2:.4f} / {q3:.4f} s over "
            f"n={len(record['wall_s_samples'])} passes",
            f"  raw setup seconds q1 / median / q3 {s1:.4f} / {s2:.4f} / {s3:.4f} s over "
            f"n={len(record['setup_s_samples'])} fresh processes",
            f"  work per pass {record['work_per_pass']} {run.workload.work_unit}",
            f"  error_rate {1.0 - metrics['pass_rate']:.6g} "
            f"({len(run.failures)} of {run.attempted} invocations failed)",
        ]
    lines += [f"  FAILED {message}" for message in run.failures[:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=None,
                        help="directory for the full record of this run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cap_blas_threads()
    pkg = import_package()
    if pkg is None:
        print(f"upwind_gsbp not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        from upwind_gsbp import cli

        _, statuses, _ = run_items(cli, workload.warmup, WORK_DIR / f"setup{os.getpid()}")
        print(time.monotonic())
        shutil.rmtree(WORK_DIR / f"setup{os.getpid()}", ignore_errors=True)
        return 0 if all(status == 0 for status in statuses) else 1

    import numpy
    import scipy

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": time.time(),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_revision": git_revision(),
        },
    }
    if args.results is not None:
        args.results.mkdir(parents=True, exist_ok=True)
    run = Run(pkg, workload, args.seed)
    try:
        if args.trace:
            metrics = per_layer(run, args.seconds, record, args.results)
        else:
            metrics = end_to_end(run, args.seconds, record)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    record.update(
        attempted=run.attempted, failed=len(run.failures), failures=run.failures, metrics=metrics
    )
    print("\n".join(summary_lines(run, record, metrics)))
    if args.results is not None:
        name = f"{workload.name}-trace{args.trace}-seed{args.seed}-{int(record['started_at'])}.json"
        (args.results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
