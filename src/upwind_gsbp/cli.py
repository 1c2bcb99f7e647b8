"""Command-line front end: verify, scan, converge, solve, burgers.

Every flag is a config line: its text is laid over the ``key = value`` texts
of a ``--config`` file, and each key's text is parsed by its row of one key
table. Unknown keys, and keys the subcommand does not read, are a hard
error. Every run writes deterministic CSV files into the output directory.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import traceback
from dataclasses import field, make_dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from . import experiments
from .imex import EnergyTrace, SolverFailure, integrate, tableau_by_name
from .mesh import uniform_mesh
from .operators import CertificationReport, assemble_first_derivative, verify_axioms
from .problems import (
    DOMAIN,
    AdvDiffConfig,
    discretize,
    initial_condition,
    l2_error,
    make_split_problem,
    solution_by_kind,
)
from .ref_element import build_lgl

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "build_run_config",
    "dispatch",
    "main",
]

TABLE1_PAIRS = ((0.5, 0.5), (0.5, 0.0), (0.25, 0.25), (0.0, 0.0))

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    """Invalid configuration file or parameter domain violation."""


def _parse_text(key: str, value: str) -> str:
    return value


def _key_parser(convert: Callable, what: str) -> Callable:
    """(key, text) -> ``convert(text)``; a ValueError becomes a ConfigError naming the key."""
    def parse(key: str, value: str):
        try:
            return convert(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} as {what}") from exc

    return parse


def _list_of(convert: Callable) -> Callable:
    return lambda value: tuple(convert(part) for part in value.split(",") if part.strip())


_parse_float = _key_parser(float, "a number")
_parse_int = _key_parser(int, "an integer")
_parse_int_list = _key_parser(_list_of(int), "integers")
_parse_float_list = _key_parser(_list_of(float), "numbers")


def _parse_pairs(key: str, value: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in value.split(";"):
        parts = _parse_float_list(key, chunk)
        if len(parts) != 2:
            raise ConfigError(f"key {key!r}: each pair needs two values, got {chunk!r}")
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def _join(fmt: Callable, sep: str = ",") -> Callable:
    return lambda values: sep.join(fmt(v) for v in values)


class _Key(NamedTuple):
    """One config key: its name, parser, flag, text form and domain."""

    name: str  # in config files, ``to_text``, the subcommand table and RunConfig
    default: object
    parse: Callable  # (name, text) -> value, for a file line and a flag alike
    text: Callable  # value -> its ``to_text`` form; a None value has no line
    rank: int  # position of the flag in ``--help``
    flag: str
    flag_kw: dict  # argparse arguments of the flag: help, metavar (a word per value token)
    # (holds, phrase): a value v, or each value of a list, needs holds(v), else the
    # error reads "key 'name': phrase, got v!r"; a None value is not checked
    domain: tuple[Callable, str] | None = None


_POSITIVE = (lambda v: v > 0, "must be > 0")
_THETA = (lambda theta: -0.5 <= theta <= 0.5, "theta must lie in [-1/2, 1/2]")
_SCAN_THETA_ADV = (
    lambda theta: 0 <= theta <= 0.5,
    "a scan needs theta_adv in [0, 1/2]: D-(theta_adv) fails the dissipation axiom below 0",
)

# In ``to_text`` order, which is also the order the domains are checked in.
_KEYS = (
    _Key("a", 0.1, _parse_float, repr, 3,
         "--a", dict(help="advective velocity"),
         (lambda a: a > 0, "advective velocity must be > 0")),
    _Key("c", 0.1, _parse_float, repr, 4,
         "--c", dict(help="diffusion coefficient"),
         (lambda c: c > 0, "diffusion coefficient must be > 0")),
    _Key("N", (1, 2, 3), _parse_int_list, _join(str), 5,
         "--N", dict(help="degrees, comma separated"),
         (lambda n: 1 <= n <= 16, "degree must lie in [1, 16]")),
    _Key("K", (20, 40, 80, 160, 320), _parse_int_list, _join(str), 6,
         "--K", dict(help="cell counts, comma separated"),
         (lambda k: k >= 2, "cell count must be >= 2")),
    _Key("pairs", TABLE1_PAIRS, _parse_pairs, _join(_join(repr), ";"), 8,
         "--pair", dict(metavar="THETA_ADV THETA_DIFF", help="flux parameter pair")),
    _Key("theta", (0.0, 0.25, 0.5), _parse_float_list, _join(repr), 9,
         "--theta", dict(help="thetas for verify"), _THETA),
    _Key("order", (1, 2), _parse_int_list, _join(str), 7,
         "--order", dict(help="IMEX orders, comma separated"),
         (lambda order: order in (1, 2, 3), "order must be 1, 2 or 3")),
    _Key("horizon", experiments.DEFAULT_HORIZON, _parse_float, repr, 2,
         "--horizon", dict(help="scan horizon T"), _POSITIVE),
    _Key("T", None, _parse_float, repr, 10,
         "--T", dict(help="final time"),
         (lambda t: t >= 0, "must be >= 0")),
    _Key("dt", None, _parse_float, repr, 11,
         "--dt", dict(help="time step"), _POSITIVE),
    _Key("mu", None, _parse_float, repr, 12,
         "--mu", dict(help="time step rule dt = mu dx"), _POSITIVE),
    _Key("solution", "decay", _parse_text, str, 13,
         "--solution", dict(metavar="{decay,growth}"),
         (lambda kind: kind in ("decay", "growth"), "must be decay or growth")),
    _Key("out", "out", _parse_text, str, 0,
         "--out", dict(help="output directory")),
    _Key("workers", 1, _parse_int, str, 1,
         "--workers", dict(help="worker pool size"),
         (lambda workers: workers >= 1, "must be >= 1")),
)

_FILE_KEYS = {key.name for key in _KEYS}
# the number of value tokens each flag takes: --pair two, every other flag one
_FLAG_WIDTHS = {
    "--config": 1,
    **{key.flag: len(key.flag_kw.get("metavar", "VALUE").split()) for key in _KEYS},
}


def _to_text(self) -> str:
    """Flat key = value listing: the subcommand, then every key that has a value."""
    lines = [f"subcommand = {self.subcommand}"]
    for key in _KEYS:
        value = getattr(self, key.name)
        if value is not None:
            lines.append(f"{key.name} = {key.text(value)}")
    return "\n".join(lines) + "\n"


RunConfig = make_dataclass(
    "RunConfig",
    [("subcommand", str)] + [(key.name, object, field(default=key.default)) for key in _KEYS],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": "Validated parameters of one CLI invocation; its fields come from _KEYS.",
        "to_text": _to_text,
    },
)


def parse_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value file; an unreadable file, unknown and duplicate keys are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:  # missing, a directory (the empty path is "."), unreadable
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"{path}:{lineno}"
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FILE_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _check(name: str, domain: tuple[Callable, str], value) -> None:
    holds, phrase = domain
    if not holds(value):
        raise ConfigError(f"key {name!r}: {phrase}, got {value!r}")


def _plus_zero(value):
    """``value`` with each float -0.0 in it, also inside tuples, made 0.0: no "-0" in outputs."""
    if isinstance(value, tuple):
        return tuple(_plus_zero(v) for v in value)
    return value + 0.0 if isinstance(value, float) else value


def build_run_config(subcommand: str, texts: dict[str, str]) -> RunConfig:
    """The validated RunConfig of a subcommand's ``key = value`` texts.

    Each given key is parsed once by its _KEYS row; a key left unset takes the
    subcommand's run default, else its row's default; a given dt drops mu's run
    default. A given key that the subcommand does not read is an error, and so
    is dt given with mu.
    """
    command = _COMMANDS[subcommand]
    values = dict(command.defaults)
    if "dt" in texts:  # mu's run default is the step rule of a run given no dt
        values.pop("mu", None)
    for key in _KEYS:
        if key.name in texts:
            values[key.name] = key.parse(key.name, texts[key.name])

    fields = {name: _plus_zero(value) for name, value in values.items()}
    cfg = RunConfig(subcommand, **fields)

    for key in _KEYS:
        value = getattr(cfg, key.name)
        if value == ():
            raise ConfigError(f"key {key.name!r}: needs at least one value")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key {key.name!r}: must be finite, got {value}")
        if key.name in command.one_value and len(value) > 1:
            got = key.text(value)
            raise ConfigError(f"key {key.name!r}: {subcommand} takes one value, got {got}")
        if key.domain is not None and value is not None:
            for each in value if isinstance(value, tuple) else (value,):
                _check(key.name, key.domain, each)
    for pair in cfg.pairs:
        _check("theta_adv", _SCAN_THETA_ADV if subcommand == "scan" else _THETA, pair[0])
        _check("theta_diff", _THETA, pair[1])
    if cfg.solution == "growth" and "a" not in texts:
        cfg = replace(cfg, a=1.0)
    elif cfg.solution == "growth" and cfg.a != 1.0:
        raise ConfigError("the growth solution requires a = 1")
    for name in texts:
        if name not in command.reads:
            raise ConfigError(f"key {name!r}: {subcommand} does not read it")
    if "dt" in texts and "mu" in texts:
        raise ConfigError("keys 'dt' and 'mu' are exclusive: give the time step or its rule")
    return cfg


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_snapshot(path: Path, nodes, u) -> None:
    _write_lines(path, ["x,u"] + [f"{x:.12e},{v:.12e}" for x, v in zip(nodes, u)])


def _cmd_verify(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    rows = []
    texts = []
    failed = 0
    meshes = [uniform_mesh(*DOMAIN, n_cells) for n_cells in cfg.K]
    for degree in cfg.N:
        elem = build_lgl(degree)
        for n_cells, msh in zip(cfg.K, meshes):
            for theta in cfg.theta:
                bounded = assemble_first_derivative(elem, msh, theta, "bounded")
                periodic = assemble_first_derivative(elem, msh, theta, "periodic")
                combo_ok = True
                for opset in (bounded, periodic):
                    report = verify_axioms(opset)
                    rows.extend(report.csv_rows())
                    texts.append(report.to_text())
                    if not report.all_pass:
                        failed += 1
                        combo_ok = False
                print(
                    f"verify N={degree} K={n_cells} theta={theta:g}: "
                    f"{'pass' if combo_ok else 'FAIL'}",
                    flush=True,
                )
    lines = [CertificationReport.CSV_HEADER] + [",".join(row) for row in rows]
    _write_lines(out / "certification.csv", lines)
    _write_lines(out / "certification.txt", ["\n".join(texts)])
    if failed:
        print(f"certification failed for {failed} operator set(s)", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _cmd_scan(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    scan_cfgs = [
        experiments.ScanConfig(
            order, AdvDiffConfig(cfg.a, cfg.c, *pair, degree, n_cells), cfg.horizon
        )
        for order in cfg.order
        for degree in cfg.N
        for n_cells in cfg.K
        for pair in cfg.pairs
    ]

    def progress(done, total, res):
        print(
            f"scan {done}/{total}: order={res.config.order} N={res.config.cfg.degree} "
            f"K={res.config.cfg.n_cells} pair=({res.config.cfg.theta_adv:g},"
            f"{res.config.cfg.theta_diff:g}) tau={res.tau_label}",
            flush=True,
        )

    results = experiments.scan_many(scan_cfgs, workers=cfg.workers, progress=progress)
    _write_lines(out / "stability.csv", experiments.stability_csv_lines(results))
    return EXIT_OK


def _cmd_converge(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    order = cfg.order[0]
    degree = cfg.N[0]
    blocks = []
    for theta_adv, theta_diff in cfg.pairs:
        base = AdvDiffConfig(cfg.a, cfg.c, theta_adv, theta_diff, degree, cfg.K[0])
        rows = experiments.run_convergence(base, order, cfg.mu, cfg.K, cfg.T, cfg.solution)
        blocks.append((base, cfg.mu, rows))
        for row in rows:
            print(
                f"converge pair=({theta_adv:g},{theta_diff:g}) K={row.n_cells}: "
                f"error={row.error_label()} eoc={row.eoc_label()}",
                flush=True,
            )
    _write_lines(out / "convergence.csv", experiments.convergence_csv_lines(blocks))
    return EXIT_OK


def _cmd_solve(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    order = cfg.order[0]
    degree = cfg.N[0]
    n_cells = cfg.K[0]
    disc = discretize(AdvDiffConfig(cfg.a, cfg.c, *cfg.pairs[0], degree, n_cells))
    solution = solution_by_kind(cfg.solution, cfg.a, cfg.c)
    problem = make_split_problem(disc, solution.source)
    dt = cfg.dt if cfg.dt is not None else cfg.mu * disc.dx_max
    u0 = initial_condition(solution, disc.mesh, disc.elem)
    tableau = tableau_by_name(order)
    # as for a sourced convergence run: the growth solution's energy rises legitimately
    monitor = experiments.EnergyMonitor(
        max(problem.energy(u0), 1.0), blowup_factor=experiments.BLOWUP_FACTOR
    )
    u_final, trace = integrate(tableau, problem, u0, dt, cfg.T, observer=monitor)
    trace.to_csv(out / "energy.csv")
    summary = f"solve: K={n_cells} N={degree} dt={dt:g} T={cfg.T:g}"
    if monitor.grew:
        print(f"{summary} blow-up detected at t={trace.steps[-1][1]:g}")
        return EXIT_OK
    error = l2_error(u_final, solution, cfg.T, disc.nodes, disc.m_diag)
    _write_snapshot(out / f"solution_t{cfg.T:g}.csv", disc.nodes, u_final)
    print(f"{summary} l2_error={error:.6e}")
    return EXIT_OK


def _cmd_burgers(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    theta_adv, theta_diff = cfg.pairs[0]
    results = experiments.run_burgers_demo(
        theta_adv,
        theta_diff,
        cfg.K,
        dt=cfg.dt,
        t_final=cfg.T,
        c=cfg.c,
        degree=cfg.N[0],
        order=cfg.order[0],
    )
    summary = ["K,theta_adv,theta_diff,outcome,time"]
    for res in results:
        tag = f"K{res.n_cells}"
        if res.u_final is not None:
            _write_snapshot(out / f"burgers_{tag}_t{cfg.T:g}.csv", res.nodes, res.u_final)
        EnergyTrace(res.energy).to_csv(out / f"burgers_energy_{tag}.csv")
        if res.blew_up:
            outcome, time, said = "blowup", res.blowup_time, "blow-up detected at t"
        else:
            outcome, time, said = "completed", res.final_time, "completed T"
        summary.append(f"{res.n_cells},{theta_adv:g},{theta_diff:g},{outcome},{time:.6e}")
        print(f"burgers K={res.n_cells}: {said}={time:g}")
    _write_lines(out / "burgers_summary.csv", summary)
    return EXIT_OK


class _Command(NamedTuple):
    """One subcommand: its runner, help line, read keys, run defaults and single-value keys."""

    run: Callable[[RunConfig], int]
    help: str
    reads: tuple[str, ...]  # any other key given by file or flag is an error
    defaults: dict  # values of unset keys, so that a bare run is a canonical experiment slice
    one_value: tuple[str, ...]  # the list keys of which it runs a single value


_COMMANDS = {
    "verify": _Command(
        _cmd_verify, "certify operator axioms over an (N, K, theta) grid",
        reads=("N", "K", "theta", "out"), defaults={"K": (4, 20)}, one_value=()),
    "scan": _Command(
        _cmd_scan, "maximum stable time step scans",
        reads=("a", "c", "N", "K", "pairs", "order", "horizon", "out", "workers"),
        defaults={}, one_value=()),
    "converge": _Command(
        _cmd_converge, "convergence/EOC study",
        reads=("a", "c", "N", "K", "pairs", "order", "T", "mu", "solution", "out"),
        defaults={"N": (1,), "order": (2,), "T": 10.0, "mu": 25.0}, one_value=("N", "order")),
    "solve": _Command(
        _cmd_solve, "single run with snapshot output",
        reads=("a", "c", "N", "K", "pairs", "order", "T", "dt", "mu", "solution", "out"),
        defaults={"N": (1,), "order": (2,), "K": (40,), "pairs": ((0.5, 0.5),),
                  "T": 10.0, "mu": 25.0},
        one_value=("N", "order", "K", "pairs")),
    "burgers": _Command(
        _cmd_burgers, "viscous Burgers stability demonstration",
        reads=("c", "N", "K", "pairs", "order", "T", "dt", "out"),
        defaults={"N": (2,), "order": (2,), "K": (50, 100), "pairs": ((0.0, 0.0),),
                  "T": 2.0, "dt": 0.1},
        one_value=("N", "order", "pairs")),
}


def dispatch(cfg: RunConfig) -> int:
    """Create the output directory, then run the selected experiment; returns the exit status."""
    try:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'out': cannot create directory {cfg.out!r}: {exc}") from exc
    return _COMMANDS[cfg.subcommand].run(cfg)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed arguments: each given flag's text laid over ``--config``'s."""
    texts = parse_config(args.config) if args.config is not None else {}
    for key in _KEYS:
        value = getattr(args, key.name)
        if value is not None:
            texts[key.name] = value
    return build_run_config(args.subcommand, texts)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads the tokens after a value flag as its value.

    argparse takes a token that starts with "-" for a flag unless it reads as
    a plain negative number like -0.5, so ``--theta -0.25,0.25`` or
    ``--a -1e-3`` would stop with a usage error. Each flag is joined to the
    tokens it takes as ``--flag=v1,v2``, a form argparse reads as given. A
    missing value, or a flag in its place, is left for argparse to report. A
    flag given twice is an error, as a key given twice in a config file is:
    argparse alone would keep the last value.
    """

    def parse_known_args(self, args=None, namespace=None):
        tokens = list(sys.argv[1:] if args is None else args)
        flags = {"-h", "--help", *_FLAG_WIDTHS}
        joined, given = [], set()
        while tokens:
            token = tokens.pop(0)
            width = _FLAG_WIDTHS.get(token, 0)
            values = tokens[:width]
            if width and len(values) == width and not flags & {v.split("=")[0] for v in values}:
                token = f"{token}={','.join(values)}"
                del tokens[:width]
            flag = token.split("=")[0]
            if flag in _FLAG_WIDTHS:
                if flag in given:
                    self.error(f"argument {flag}: given more than once")
                given.add(flag)
            joined.append(token)
        return super().parse_known_args(joined, namespace)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing keeps no state in it."""
    parser = _Parser(
        prog="gsbp",
        description="Upwind-pair derivative operators with IMEX time integration: "
        "operator certification, stability scans, convergence studies and the "
        "viscous Burgers demonstration.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=None, help="flat key = value file")
        for key in sorted(_KEYS, key=lambda key: key.rank):
            p.add_argument(key.flag, dest=key.name, default=None, **key.flag_kw)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return dispatch(_config_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # a bug, not a user mistake: keep the traceback
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL

