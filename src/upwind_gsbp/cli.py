"""Command-line front end: verify, scan, converge, solve, burgers.

Configuration values come from flat ``key = value`` files overridden by
command-line flags; every run writes deterministic CSV files into the
output directory. Unknown config keys are a hard error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import experiments
from .imex import SolverFailure, integrate, tableau_by_name
from .mesh import uniform_mesh
from .operators import assemble_first_derivative, verify_axioms
from .problems import (
    AdvDiffConfig,
    decay_solution,
    discretize,
    growth_solution,
    initial_condition,
    l2_error,
    make_split_problem,
)
from .ref_element import build_lgl

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "build_run_config",
    "run_config_from_text",
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


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation."""

    subcommand: str
    a: float = 0.1
    c: float = 0.1
    degrees: tuple[int, ...] = (1, 2, 3)
    cell_counts: tuple[int, ...] = (20, 40, 80, 160, 320)
    pairs: tuple[tuple[float, float], ...] = TABLE1_PAIRS
    thetas: tuple[float, ...] = (0.0, 0.25, 0.5)
    orders: tuple[int, ...] = (1, 2)
    horizon: float = 100.0
    t_final: float | None = None
    dt: float | None = None
    mu: float | None = None
    solution: str = "decay"
    tau_lo: float = experiments.DEFAULT_TAU_LO
    tau_cap: float = experiments.DEFAULT_TAU_CAP
    resolution: float = experiments.DEFAULT_RESOLUTION
    out: str = "out"
    workers: int = 1
    seed: int = 0

    def to_text(self) -> str:
        """Flat key = value serialization; reparsing yields this config."""
        lines = [f"subcommand = {self.subcommand}"]
        lines.append(f"a = {self.a!r}")
        lines.append(f"c = {self.c!r}")
        lines.append("N = " + ",".join(str(n) for n in self.degrees))
        lines.append("K = " + ",".join(str(k) for k in self.cell_counts))
        lines.append(
            "pairs = " + ";".join(f"{p[0]!r},{p[1]!r}" for p in self.pairs)
        )
        lines.append("theta = " + ",".join(repr(t) for t in self.thetas))
        lines.append("order = " + ",".join(str(o) for o in self.orders))
        lines.append(f"horizon = {self.horizon!r}")
        if self.t_final is not None:
            lines.append(f"T = {self.t_final!r}")
        if self.dt is not None:
            lines.append(f"dt = {self.dt!r}")
        if self.mu is not None:
            lines.append(f"mu = {self.mu!r}")
        lines.append(f"solution = {self.solution}")
        lines.append(f"tau_lo = {self.tau_lo!r}")
        lines.append(f"tau_cap = {self.tau_cap!r}")
        lines.append(f"resolution = {self.resolution!r}")
        lines.append(f"out = {self.out}")
        lines.append(f"workers = {self.workers}")
        lines.append(f"seed = {self.seed}")
        return "\n".join(lines) + "\n"


def run_config_from_text(text: str) -> RunConfig:
    """Rebuild a RunConfig from its ``to_text`` serialization."""
    raw = _parse_lines(text)
    subcommand = raw.pop("subcommand", None)
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return build_run_config(subcommand, raw, {})


_KNOWN_KEYS = {
    "subcommand",
    "a",
    "c",
    "N",
    "K",
    "pairs",
    "theta",
    "theta_adv",
    "theta_diff",
    "order",
    "horizon",
    "T",
    "dt",
    "mu",
    "solution",
    "tau_lo",
    "tau_cap",
    "resolution",
    "out",
    "workers",
    "seed",
}


def _parse_lines(text: str, source: str | Path | None = None) -> dict[str, str]:
    """Flat ``key = value`` lines; unknown and duplicate keys are a hard error.

    Messages name ``source:lineno``, or ``line lineno`` for text with no file.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}" if source is None else f"{source}:{lineno}"
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        raw[key] = value
    return raw


def parse_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value file; unknown and duplicate keys are a hard error."""
    return _parse_lines(Path(path).read_text(encoding="utf-8"), path)


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as a number") from exc


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as an integer") from exc


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as integers") from exc


def _parse_float_list(key: str, value: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as numbers") from exc


def _check_theta(key: str, value: float) -> float:
    if not -0.5 <= value <= 0.5:
        raise ConfigError(f"key {key!r}: theta must lie in [-1/2, 1/2], got {value}")
    return value


def build_run_config(subcommand: str, file_values: dict[str, str], overrides: dict) -> RunConfig:
    """Merge defaults, config-file values and flag overrides, then validate."""
    cfg = RunConfig(subcommand=subcommand)

    updates: dict = {}

    def take(key: str, parse, attr: str):
        if overrides.get(attr) is not None:
            updates[attr] = overrides[attr]
        elif key in file_values:
            updates[attr] = parse(key, file_values[key])

    take("a", _parse_float, "a")
    take("c", _parse_float, "c")
    take("N", _parse_int_list, "degrees")
    take("K", _parse_int_list, "cell_counts")
    take("order", _parse_int_list, "orders")
    take("theta", _parse_float_list, "thetas")
    take("horizon", _parse_float, "horizon")
    take("T", _parse_float, "t_final")
    take("dt", _parse_float, "dt")
    take("mu", _parse_float, "mu")
    take("tau_lo", _parse_float, "tau_lo")
    take("tau_cap", _parse_float, "tau_cap")
    take("resolution", _parse_float, "resolution")
    take("solution", lambda k, v: v, "solution")
    take("out", lambda k, v: v, "out")
    take("workers", _parse_int, "workers")
    take("seed", _parse_int, "seed")

    if overrides.get("pairs") is not None:
        updates["pairs"] = overrides["pairs"]
    elif "pairs" in file_values:
        pairs = []
        for chunk in file_values["pairs"].split(";"):
            parts = _parse_float_list("pairs", chunk)
            if len(parts) != 2:
                raise ConfigError(f"key 'pairs': each pair needs two values, got {chunk!r}")
            pairs.append((parts[0], parts[1]))
        updates["pairs"] = tuple(pairs)
    elif "theta_adv" in file_values or "theta_diff" in file_values:
        if not ("theta_adv" in file_values and "theta_diff" in file_values):
            raise ConfigError("theta_adv and theta_diff must be given together")
        updates["pairs"] = (
            (
                _parse_float("theta_adv", file_values["theta_adv"]),
                _parse_float("theta_diff", file_values["theta_diff"]),
            ),
        )

    # subcommand-specific defaults for fields the user left untouched, so a
    # bare subcommand reproduces a canonical experiment slice
    sub_defaults: dict[str, dict] = {
        "verify": {"cell_counts": (4, 20)},
        "converge": {"degrees": (1,), "orders": (2,)},
        "solve": {
            "degrees": (1,),
            "orders": (2,),
            "cell_counts": (40,),
            "pairs": ((0.5, 0.5),),
            "mu": 25.0,
        },
        "burgers": {
            "degrees": (2,),
            "orders": (2,),
            "cell_counts": (50, 100),
            "pairs": ((0.0, 0.0),),
        },
    }
    for attr, value in sub_defaults.get(subcommand, {}).items():
        if attr not in updates:
            updates[attr] = value

    cfg = replace(cfg, **updates)

    if cfg.a <= 0:
        raise ConfigError(f"key 'a': advective velocity must be > 0, got {cfg.a}")
    if cfg.c <= 0:
        raise ConfigError(f"key 'c': diffusion coefficient must be > 0, got {cfg.c}")
    for n in cfg.degrees:
        if not 1 <= n <= 16:
            raise ConfigError(f"key 'N': degree must lie in [1, 16], got {n}")
    for k in cfg.cell_counts:
        if k < 2:
            raise ConfigError(f"key 'K': cell count must be >= 2, got {k}")
    for order in cfg.orders:
        if order not in (1, 2, 3):
            raise ConfigError(f"key 'order': order must be 1, 2 or 3, got {order}")
    for theta in cfg.thetas:
        _check_theta("theta", theta)
    for pair in cfg.pairs:
        _check_theta("theta_adv", pair[0])
        _check_theta("theta_diff", pair[1])
    if cfg.horizon <= 0:
        raise ConfigError(f"key 'horizon': must be > 0, got {cfg.horizon}")
    if cfg.t_final is not None and cfg.t_final < 0:
        raise ConfigError(f"key 'T': must be >= 0, got {cfg.t_final}")
    if cfg.dt is not None and cfg.dt <= 0:
        raise ConfigError(f"key 'dt': must be > 0, got {cfg.dt}")
    if cfg.mu is not None and cfg.mu <= 0:
        raise ConfigError(f"key 'mu': must be > 0, got {cfg.mu}")
    # the bisection stops once hi / lo <= 1 + resolution, which adjacent
    # floats never reach when resolution <= 0
    if not cfg.tau_lo > 0:
        raise ConfigError(f"key 'tau_lo': must be > 0, got {cfg.tau_lo}")
    if not cfg.tau_cap > cfg.tau_lo:
        raise ConfigError(f"key 'tau_cap': must be > tau_lo = {cfg.tau_lo}, got {cfg.tau_cap}")
    if not cfg.resolution > 0:
        raise ConfigError(f"key 'resolution': must be > 0, got {cfg.resolution}")
    if cfg.workers < 1:
        raise ConfigError(f"key 'workers': must be >= 1, got {cfg.workers}")
    if cfg.solution not in ("decay", "growth"):
        raise ConfigError(f"key 'solution': must be decay or growth, got {cfg.solution!r}")
    if cfg.solution == "growth" and overrides.get("a") is None and "a" not in file_values:
        cfg = replace(cfg, a=1.0)
    elif cfg.solution == "growth" and cfg.a != 1.0:
        raise ConfigError("the growth solution requires a = 1")
    return cfg


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_verify(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    rows = []
    texts = []
    failed = 0
    for degree in cfg.degrees:
        for n_cells in cfg.cell_counts:
            for theta in cfg.thetas:
                elem = build_lgl(degree)
                msh = uniform_mesh(-math.pi, math.pi, n_cells)
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
    header = "N,K,theta,topology,axiom,residual,tolerance,status"
    lines = [header] + [
        ",".join(
            [str(r[0]), str(r[1]), f"{r[2]:g}", r[3], r[4]]
            + ["" if r[5] is None else f"{r[5]:.6e}", f"{r[6]:g}", r[7]]
        )
        for r in rows
    ]
    _write_lines(out / "certification.csv", lines)
    _write_lines(out / "certification.txt", ["\n".join(texts)])
    if failed:
        print(f"certification failed for {failed} operator set(s)", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _cmd_scan(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    scan_cfgs = []
    for order in cfg.orders:
        for degree in cfg.degrees:
            for n_cells in cfg.cell_counts:
                for theta_adv, theta_diff in cfg.pairs:
                    scan_cfgs.append(
                        experiments.ScanConfig(
                            order=order,
                            cfg=AdvDiffConfig(
                                a=cfg.a,
                                c=cfg.c,
                                theta_adv=theta_adv,
                                theta_diff=theta_diff,
                                degree=degree,
                                n_cells=n_cells,
                            ),
                            horizon=cfg.horizon,
                        )
                    )

    scale = cfg.c / cfg.a**2

    def progress(done, total, res):
        print(
            f"scan {done}/{total}: order={res.config.order} N={res.config.cfg.degree} "
            f"K={res.config.cfg.n_cells} pair=({res.config.cfg.theta_adv:g},"
            f"{res.config.cfg.theta_diff:g}) tau={res.tau_label}",
            flush=True,
        )

    results = experiments.scan_many(
        scan_cfgs,
        bracket=(cfg.tau_lo * scale, cfg.tau_cap * scale),
        resolution=cfg.resolution,
        workers=cfg.workers,
        extend_lower=True,
        progress=progress,
    )
    _write_lines(out / "stability.csv", experiments.stability_csv_lines(results))
    return EXIT_OK


def _cmd_converge(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    order = cfg.orders[0]
    mu = cfg.mu if cfg.mu is not None else 25.0
    t_final = cfg.t_final if cfg.t_final is not None else 10.0
    degree = cfg.degrees[0]
    blocks = []
    for theta_adv, theta_diff in cfg.pairs:
        base = AdvDiffConfig(
            a=cfg.a,
            c=cfg.c,
            theta_adv=theta_adv,
            theta_diff=theta_diff,
            degree=degree,
            n_cells=cfg.cell_counts[0],
        )
        rows = experiments.run_convergence(
            base, order, mu, cfg.cell_counts, t_final, cfg.solution
        )
        blocks.append((base, mu, rows))
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
    order = cfg.orders[0]
    degree = cfg.degrees[0]
    n_cells = cfg.cell_counts[0]
    theta_adv, theta_diff = cfg.pairs[0]
    t_final = cfg.t_final if cfg.t_final is not None else 10.0
    adv_cfg = AdvDiffConfig(
        a=cfg.a,
        c=cfg.c,
        theta_adv=theta_adv,
        theta_diff=theta_diff,
        degree=degree,
        n_cells=n_cells,
    )
    disc = discretize(adv_cfg)
    if cfg.solution == "growth":
        solution = growth_solution(cfg.c)
        problem = make_split_problem(disc, solution.source)
    else:
        solution = decay_solution(cfg.a, cfg.c)
        problem = make_split_problem(disc)
    if cfg.dt is not None:
        dt = cfg.dt
    else:
        dt = (cfg.mu if cfg.mu is not None else 1.0) * disc.dx_max
    u0 = initial_condition(solution, disc.mesh, disc.elem)
    tableau = tableau_by_name(order)
    u_final, trace = integrate(tableau, problem, u0, dt, t_final)
    error = l2_error(u_final, solution, t_final, disc.nodes, disc.m_diag)
    snapshot = ["x,u"] + [
        f"{x:.12e},{u:.12e}" for x, u in zip(disc.nodes, u_final)
    ]
    _write_lines(out / f"solution_t{t_final:g}.csv", snapshot)
    trace.to_csv(out / "energy.csv")
    print(f"solve: K={n_cells} N={degree} dt={dt:g} T={t_final:g} l2_error={error:.6e}")
    return EXIT_OK


def _cmd_burgers(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    theta_adv, theta_diff = cfg.pairs[0]
    dt = cfg.dt if cfg.dt is not None else 0.1
    t_final = cfg.t_final if cfg.t_final is not None else 2.0
    results = experiments.run_burgers_demo(
        theta_adv,
        theta_diff,
        cfg.cell_counts,
        dt=dt,
        t_final=t_final,
        c=cfg.c,
        degree=cfg.degrees[0],
        order=cfg.orders[0],
    )
    summary = ["K,theta_adv,theta_diff,outcome,time"]
    for res in results:
        tag = f"K{res.n_cells}"
        for t_snap, u_snap in sorted(res.snapshots.items()):
            lines = ["x,u"] + [
                f"{x:.12e},{u:.12e}" for x, u in zip(res.nodes, u_snap)
            ]
            _write_lines(out / f"burgers_{tag}_t{t_snap:g}.csv", lines)
        energy_lines = ["step,t,energy"] + [
            f"{k},{t:.12e},{e:.12e}" for k, t, e in res.energy
        ]
        _write_lines(out / f"burgers_energy_{tag}.csv", energy_lines)
        if res.blew_up:
            summary.append(
                f"{res.n_cells},{theta_adv:g},{theta_diff:g},blowup,{res.blowup_time:.6e}"
            )
            print(f"burgers K={res.n_cells}: blow-up detected at t={res.blowup_time:g}")
        else:
            summary.append(
                f"{res.n_cells},{theta_adv:g},{theta_diff:g},completed,{res.final_time:.6e}"
            )
            print(f"burgers K={res.n_cells}: completed T={res.final_time:g}")
    _write_lines(out / "burgers_summary.csv", summary)
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "converge": _cmd_converge,
    "solve": _cmd_solve,
    "burgers": _cmd_burgers,
}


def dispatch(cfg: RunConfig) -> int:
    """Run the selected experiment; returns the process exit status."""
    np.random.seed(cfg.seed)
    return _COMMANDS[cfg.subcommand](cfg)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="flat key = value file")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None, help="worker pool size")
    parser.add_argument("--horizon", type=float, default=None, help="scan horizon T")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (property tests)")
    parser.add_argument("--a", type=float, default=None, help="advective velocity")
    parser.add_argument("--c", type=float, default=None, help="diffusion coefficient")
    parser.add_argument("--N", type=str, default=None, help="degrees, comma separated")
    parser.add_argument("--K", type=str, default=None, help="cell counts, comma separated")
    parser.add_argument("--order", type=str, default=None, help="IMEX orders, comma separated")
    parser.add_argument(
        "--pair",
        type=float,
        nargs=2,
        metavar=("THETA_ADV", "THETA_DIFF"),
        default=None,
        help="flux parameter pair",
    )
    parser.add_argument("--theta", type=str, default=None, help="thetas for verify")
    parser.add_argument("--T", type=float, default=None, help="final time")
    parser.add_argument("--dt", type=float, default=None, help="time step")
    parser.add_argument("--mu", type=float, default=None, help="time step rule dt = mu dx")
    parser.add_argument("--solution", type=str, default=None, choices=("decay", "growth"))
    parser.add_argument("--tau-lo", type=float, default=None, help="scan bracket lower tau")
    parser.add_argument("--tau-cap", type=float, default=None, help="scan cap tau")
    parser.add_argument("--resolution", type=float, default=None, help="scan bisection resolution")


def _overrides_from_args(args: argparse.Namespace) -> dict:
    return {
        "a": args.a,
        "c": args.c,
        "degrees": _parse_int_list("N", args.N) if args.N else None,
        "cell_counts": _parse_int_list("K", args.K) if args.K else None,
        "orders": _parse_int_list("order", args.order) if args.order else None,
        "thetas": _parse_float_list("theta", args.theta) if args.theta else None,
        "pairs": ((args.pair[0], args.pair[1]),) if args.pair else None,
        "horizon": args.horizon,
        "t_final": args.T,
        "dt": args.dt,
        "mu": args.mu,
        "solution": args.solution,
        "tau_lo": args.tau_lo,
        "tau_cap": args.tau_cap,
        "resolution": args.resolution,
        "out": args.out,
        "workers": args.workers,
        "seed": args.seed,
    }


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="gsbp",
        description="Upwind-pair derivative operators with IMEX time integration: "
        "operator certification, stability scans, convergence studies and the "
        "viscous Burgers demonstration.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("verify", "certify operator axioms over an (N, K, theta) grid"),
        ("scan", "maximum stable time step scans"),
        ("converge", "convergence/EOC study"),
        ("solve", "single run with snapshot output"),
        ("burgers", "viscous Burgers stability demonstration"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        file_values = parse_config(args.config) if args.config else {}
        cfg = build_run_config(args.subcommand, file_values, _overrides_from_args(args))
        return dispatch(cfg)
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


if __name__ == "__main__":
    raise SystemExit(main())
