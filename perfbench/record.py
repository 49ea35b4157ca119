"""Take the correctness records the gate compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload's full input set once, in-process and untimed, and
writes ``perfbench/records/<workload>.json``.  Only re-record when a change
to the program is meant to change its output, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
import worker
import workloads


def record(workload: workloads.Workload, workdir: Path) -> dict:
    mods = worker.import_layers()
    if workload.is_verify:
        plan = list(workload.suites)
        observed = worker.run_items(mods, workload, plan, workdir)["observed"]
        return {o.pop("key"): o for o in observed}
    n_params = worker.write_query_inputs(workdir, worker.query_inputs(mods))
    plan = workloads.query_universe(n_params)
    observed = worker.run_items(mods, workload, plan, workdir)["observed"]
    return {
        "params": worker.read_param_index(workdir),
        "queries": {o.pop("key"): o for o in observed},
    }


def main(names: list[str]) -> int:
    gate.RECORDS.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        workdir = worker.ROOT / ".perfbench_work" / "record" / name
        workdir.mkdir(parents=True, exist_ok=True)
        data = record(workloads.WORKLOADS[name], workdir)
        path = gate.RECORDS / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(worker.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
