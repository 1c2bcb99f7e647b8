"""Spans around the package's layer boundaries, recorded from outside the package.

Each public callable is wrapped at the module attribute through which the
package calls it, so ``integrate`` reaches the wrapped ``imex.step`` and
``_scan_job`` the wrapped ``experiments.max_stable_dt``. Spans stay in
memory with their parent's index and are summarised (or written out) when
the run ends. A span's self time is its duration minus the durations of its
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

# every span name; each gives <name>.calls, <name>.self_s and <name>.mean_us
SPAN_NAMES = (
    "cli.main",
    "ref_element.build_lgl",
    "operators.assemble",
    "operators.d2",
    "operators.verify",
    "problems.discretize",
    "problems.rhs",
    "experiments.scan",
    "imex.integrate",
    "imex.step",
)


class Tracer:
    """In-memory spans in flat columns, which the garbage collector need not scan.

    Span i is ``names[i]`` from ``starts[i]`` to ``ends[i]``, caused by span
    ``parents[i]`` (-1 for a root).
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.probes = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        open_spans, clock = self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def root_time(self) -> float:
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )

    def write_csv(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each triple, restoring the originals on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, value in replacements:
        setattr(module, attr, value)
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def step_counter(experiments):
    """Count IMEX steps from the energy traces ``integrate`` returns to the scans.

    Costs one call per probe (279 per scan pass), so it stays on in untraced
    passes to give ``work_per_s``; it records no span.
    """
    count = [0]
    integrate = experiments.integrate

    @functools.wraps(integrate)
    def counted(*args, **kwargs):
        u, trace = integrate(*args, **kwargs)
        count[0] += len(trace.steps) - 1
        return u, trace

    return count, patched([(experiments, "integrate", counted)])


def instrument(tracer: Tracer, cli, experiments, problems, imex):
    """Context manager wrapping every layer boundary the workloads cross."""
    wrap = tracer.wrap

    def with_traced_rhs(make):
        # problems.rhs is the f_explicit of each problem the package builds
        def build(*args, **kwargs):
            problem = make(*args, **kwargs)
            if problem.f_explicit is not None:
                problem.f_explicit = wrap("problems.rhs", problem.f_explicit)
            return problem

        return functools.wraps(make)(build)

    scan = wrap("experiments.scan", experiments.max_stable_dt)

    @functools.wraps(experiments.max_stable_dt)
    def scan_counting_probes(*args, **kwargs):
        result = scan(*args, **kwargs)
        tracer.probes += len(result.probes)
        return result

    return patched(
        [
            (cli, "main", wrap("cli.main", cli.main)),
            (cli, "build_lgl", wrap("ref_element.build_lgl", cli.build_lgl)),
            (cli, "assemble_first_derivative",
             wrap("operators.assemble", cli.assemble_first_derivative)),
            (cli, "verify_axioms", wrap("operators.verify", cli.verify_axioms)),
            (problems, "build_lgl", wrap("ref_element.build_lgl", problems.build_lgl)),
            (problems, "assemble_first_derivative",
             wrap("operators.assemble", problems.assemble_first_derivative)),
            (problems, "second_derivative_from",
             wrap("operators.d2", problems.second_derivative_from)),
            (experiments, "build_lgl", wrap("ref_element.build_lgl", experiments.build_lgl)),
            (experiments, "discretize", wrap("problems.discretize", experiments.discretize)),
            (experiments, "burgers_rhs",
             with_traced_rhs(wrap("problems.discretize", experiments.burgers_rhs))),
            (experiments, "make_split_problem", with_traced_rhs(experiments.make_split_problem)),
            (experiments, "integrate", wrap("imex.integrate", experiments.integrate)),
            (experiments, "max_stable_dt", scan_counting_probes),
            (imex, "step", wrap("imex.step", imex.step)),
        ]
    )


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[float]]:
    """Per-layer calls, self seconds and mean self microseconds of one traced pass.

    Also returns the per-call self times of ``imex.step`` for its percentiles.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    step_self = []
    for name, own in zip(tracer.names, tracer.self_times()):
        calls[name] += 1
        self_s[name] += own
        if name == "imex.step":
            step_self.append(own)
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.mean_us"] = 1e6 * self_s[name] / calls[name] if calls[name] else 0.0
    metrics["experiments.probes"] = tracer.probes
    return metrics, step_self


def percentile_us(values: list[float], q: int) -> float:
    """The q-th percentile in microseconds; 0 when there are too few values."""
    if len(values) < 2:
        return 1e6 * values[0] if values else 0.0
    return 1e6 * statistics.quantiles(values, n=100)[q - 1]
