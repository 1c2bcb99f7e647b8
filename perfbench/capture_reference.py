"""Capture the reference outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/capture_reference.py [workload ...]

Writes ``reference/<workload>.json``: for every invocation of the workload,
keyed by its command line, the extracted output that ``workloads.py``
compares (stability rows, Burgers outcomes and energies, certification
statuses).
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import REFERENCE_DIR, WORKLOADS, item_key


def main(names: list[str]) -> int:
    run.cap_blas_threads()
    if run.import_package() is None:
        print(f"upwind_gsbp not found under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    from upwind_gsbp import cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        out_dir = run.WORK_DIR / f"reference-{name}"
        try:
            _, statuses, _ = run.run_items(cli, workload.items, out_dir)
            if any(status != 0 for status in statuses):
                print(f"{name}: an invocation failed; no reference written", file=sys.stderr)
                return 1
            reference = {
                item_key(argv): workload.extract(out_dir / f"{i:02d}")
                for i, argv in enumerate(workload.items)
            }
        finally:
            shutil.rmtree(run.WORK_DIR, ignore_errors=True)
        # one invocation per line, so a changed reference shows as a small diff
        lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in reference.items()]
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{name}: {len(reference)} invocations -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
