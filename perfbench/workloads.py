"""The benchmark's workloads: fixed lists of ``gsbp`` invocations and their checks.

Each workload is a set of command lines for ``upwind_gsbp.cli.main``, run
in-process with ``--workers 1``. The seed only permutes their order, so a
claim can be re-checked on an order not seen while a change was written.
Each invocation writes into its own output directory; ``extract`` reads back
what the check compares against the reference captured by
``capture_reference.py``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# one compatible and the incompatible Table-1 pairing; the other two compatible
# pairings take the same code path and would double the pass, leaving too few
# passes per run to reject the host's speed drift
SCAN_PAIRS = (("0.5", "0.5"), ("0.5", "0"))

# the scan's own bisection resolution (the CLI default): a tau within this
# relative distance of the reference is the same threshold
SCAN_TAU_RTOL = 1e-3
# final Burgers energy after 1000 steps; generous against roundoff from
# reordered sparse arithmetic, far below any change of outcome
BURGERS_ENERGY_RTOL = 1e-8
BURGERS_TIME_RTOL = 1e-12


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _extract_scan(out: Path) -> list[list[str]]:
    return _read_rows(out / "stability.csv")


def _extract_burgers(out: Path) -> list[dict]:
    runs = []
    for k, theta_adv, theta_diff, outcome, time in _read_rows(out / "burgers_summary.csv"):
        energy = _read_rows(out / f"burgers_energy_K{k}.csv")
        runs.append(
            {
                "K": k,
                "pair": [theta_adv, theta_diff],
                "outcome": outcome,
                "time": float(time),
                "steps": len(energy) - 1,
                "final_energy": float(energy[-1][2]),
            }
        )
    return runs


def _extract_certify(out: Path) -> list[list[str]]:
    # N, K, theta, topology, axiom, status: the residual itself is not compared
    return [row[:5] + row[7:] for row in _read_rows(out / "certification.csv")]


def _tau_matches(ref: str, got: str) -> bool:
    if ref in ("+", "below_bracket") or got in ("+", "below_bracket"):
        return ref == got
    return abs(float(got) - float(ref)) <= SCAN_TAU_RTOL * float(ref)


def _check_scan(ref: list, got: list) -> str | None:
    if len(ref) != len(got):
        return f"{len(got)} stability rows, expected {len(ref)}"
    for r, g in zip(ref, got):
        if r[:-1] != g[:-1] or not _tau_matches(r[-1], g[-1]):
            return f"stability row {','.join(g)}, expected {','.join(r)}"
    return None


def _check_burgers(ref: list, got: list) -> str | None:
    if len(ref) != len(got):
        return f"{len(got)} Burgers runs, expected {len(ref)}"
    for r, g in zip(ref, got):
        same = (
            (r["K"], r["pair"], r["outcome"], r["steps"])
            == (g["K"], g["pair"], g["outcome"], g["steps"])
            and math.isclose(g["time"], r["time"], rel_tol=BURGERS_TIME_RTOL)
            and math.isclose(g["final_energy"], r["final_energy"], rel_tol=BURGERS_ENERGY_RTOL)
        )
        if not same:
            return f"Burgers run {g}, expected {r}"
    return None


def _check_certify(ref: list, got: list) -> str | None:
    if ref != got:
        bad = [g for r, g in zip(ref, got) if r != g] or got[len(ref):] or ref[len(got):]
        return f"certification rows differ, first {bad[0]}"
    return None


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is stated in BENCHMARK.json."""

    name: str
    items: tuple[tuple[str, ...], ...]
    # run untimed before measuring, and timed in a fresh process for setup_s:
    # one invocation through every lazily initialised code path
    warmup: tuple[tuple[str, ...], ...]
    work_unit: str
    extract: Callable[[Path], list]
    check: Callable[[list, list], "str | None"]
    # work in one extracted output; scan steps are counted at experiments.integrate
    work: Callable[[list], int]

    def ordered_items(self, seed: int) -> list[tuple[str, ...]]:
        """The workload's invocations in the order the seed gives."""
        order = list(self.items)
        random.Random(seed).shuffle(order)
        return order

    def reference(self) -> dict[str, list]:
        """Expected extracted output per invocation, keyed by its command line."""
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text(encoding="utf-8"))


def item_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


WORKLOADS = {
    "scan": Workload(
        name="scan",
        items=tuple(
            ("scan", "--order", order, "--N", degree, "--K", cells,
             "--pair", theta_adv, theta_diff, "--workers", "1")
            for order in ("1", "2")
            for degree in ("1", "3")
            for cells in ("20", "80")
            for theta_adv, theta_diff in SCAN_PAIRS
        ),
        warmup=(("scan", "--order", "1,2", "--N", "1", "--K", "20", "--pair", "0.5", "0.5",
                 "--workers", "1", "--horizon", "10"),),
        work_unit="imex steps",
        extract=_extract_scan,
        check=_check_scan,
        work=lambda extracted: 0,
    ),
    "burgers": Workload(
        name="burgers",
        items=tuple(
            ("burgers", "--N", "2", "--order", "2", "--dt", "0.02", "--T", "20",
             "--K", "100,400", "--pair", theta_adv, theta_diff)
            for theta_adv, theta_diff in (("0", "0"), ("0.5", "0.5"))
        ),
        warmup=(("burgers", "--N", "2", "--order", "2", "--dt", "0.02", "--T", "1",
                 "--K", "100", "--pair", "0.5", "0.5"),),
        work_unit="imex steps",
        extract=_extract_burgers,
        check=_check_burgers,
        work=lambda extracted: sum(run["steps"] for run in extracted),
    ),
    "certify": Workload(
        name="certify",
        items=tuple(
            ("verify", "--N", degree, "--K", cells, "--theta", theta)
            for degree in ("1", "2", "3")
            for cells in ("4", "20", "80", "320")
            for theta in ("0", "0.25", "0.5")
        ),
        # theta = 0 at K = 320 reaches the dense fallback of the eigensolver
        # above dim 512, whose first call costs about 0.5 s
        warmup=(("verify", "--N", "1", "--K", "4,320", "--theta", "0,0.5"),),
        work_unit="certifications",
        extract=_extract_certify,
        check=_check_certify,
        # certified operator sets: one per (N, K, theta, topology)
        work=lambda extracted: len({tuple(row[:4]) for row in extracted}),
    ),
}


def stage_system(name: str, pkg):
    """(L, M diagonal, stage coefficient) of the workload's largest implicit operator.

    None for certify, which integrates nothing.
    """
    gamma = float(pkg.tableau_imex2().a_implicit[1, 1])
    if name == "scan":
        disc = pkg.discretize(
            pkg.AdvDiffConfig(a=0.1, c=0.1, theta_adv=0.5, theta_diff=0.0, degree=3, n_cells=80)
        )
        problem = pkg.make_split_problem(disc)
        # dt = c / a^2, the tau = 1 step of the scan
        return problem.l_implicit, problem.m_diag, 10.0 * gamma
    if name == "burgers":
        elem = pkg.build_lgl(2)
        mesh = pkg.uniform_mesh(-math.pi, math.pi, 400)
        problem = pkg.burgers_rhs(elem, mesh, 0.0, 0.0, 0.1)
        return problem.l_implicit, problem.m_diag, 0.02 * gamma
    return None
