"""One fresh interpreter: either the set-up of a workload or one timed pass.

    python3 perfbench/worker.py setup --workload W --workdir DIR
    python3 perfbench/worker.py pass --workload W --seed N --index I --workdir DIR [--spans PATH]

Each prints one JSON object on its last stdout line.  ``run.py`` starts
this script once per set-up and once per pass, so nothing computed in one
pass can be reused by the next, as with separate ``hecke-atlas`` runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

LAYERS = ("weil", "params", "support", "hecke", "centralizer", "weyl", "cli")

# Seconds ``reference_s`` takes on the 2-vCPU machine these notes were
# written on (Python 3.11.7) at its usual speed.  Every time the benchmark
# reports is a measured time scaled by REFERENCE_S / (the reference loop's
# time measured next to it), so it reads in seconds at that speed.
REFERENCE_S = 0.015
# the reference loop runs again once the items since the last run of it
# have taken this long
REFERENCE_EVERY_S = 0.1


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def import_layers() -> dict:
    return {name: importlib.import_module(f"hecke_atlas.{name}") for name in LAYERS}


# ---------------------------------------------------------------------------
# host speed


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        g = gcd(num, den)
        self.num, self.den = num // g, den // g


def reference_s() -> float:
    """Time of a fixed pure-Python loop doing what the program mostly does:
    small fractions reduced with ``gcd``, small objects, tuple-keyed dicts.

    The host is shared: how fast it runs Python changes by up to 2x within
    minutes.  Timing this loop next to the program's work measures the speed
    that work ran at.
    """
    start = time.perf_counter()
    q, seen = _Ratio(0, 1), {}
    for i in range(1, 10_000):
        a, b = i % 97 + 1, i % 89 + 2
        q = _Ratio(q.num * b + a * q.den, q.den * b)
        key = (i & 63, q.num % 61)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# inputs of the queries workload


def _ambients(weil, max_dim: int) -> list:
    """Every classical ambient of dimension at most ``max_dim`` (as the
    structural suites use; the program's own helper for this is private)."""
    Family, Desc = weil.Family, weil.DualGroupDescriptor
    out = [Desc(Family.ORTHOGONAL, n) for n in range(1, max_dim + 1)]
    out += [Desc(Family.SYMPLECTIC, n) for n in range(2, max_dim + 1, 2)]
    return out


def query_inputs(mods: dict) -> tuple[list, list[str]]:
    """The inventory and one parameter file text per discrete parameter,
    sorted by content so their numbering does not depend on the order the
    enumerator yields them in."""
    inventory = mods["cli"].standard_inventory()
    inv_json = inventory.to_json_list()
    texts = sorted(
        json.dumps({"inventory": inv_json, "parameter": mods["params"].parameter_to_json_dict(phi)}, sort_keys=True)
        for ambient in _ambients(mods["weil"], workloads.PARAM_MAX_DIM)
        for phi in mods["params"].discrete_parameters(inventory, ambient)
    )
    return inv_json, texts


def write_query_inputs(workdir: Path, inputs: tuple[list, list[str]]) -> int:
    """Write the inventory, the parameter files and their digests."""
    inv_json, texts = inputs
    param_dir = workdir / "params"
    param_dir.mkdir(parents=True, exist_ok=True)
    for i, text in enumerate(texts):
        (param_dir / f"{i:04d}.json").write_text(text + "\n", encoding="utf-8")
    (workdir / "inventory.json").write_text(json.dumps(inv_json) + "\n", encoding="utf-8")
    index = [sha256(text + "\n") for text in texts]
    (workdir / "params.json").write_text(json.dumps(index) + "\n", encoding="utf-8")
    return len(texts)


def read_param_index(workdir: Path) -> list[str]:
    return json.loads((workdir / "params.json").read_text(encoding="utf-8"))


def query_key(query: tuple, param_index: list[str]) -> str:
    """Record key of a query: parameter queries are keyed by file digest."""
    if query[0] in ("supports", "hecke"):
        return f"{query[0]}:{param_index[query[1]]}"
    return ":".join(map(str, query))


def query_argv(query: tuple, workdir: Path, out_path: Path) -> list[str]:
    cmd = query[0]
    if cmd in ("supports", "hecke"):
        return [cmd, "--param", str(workdir / "params" / f"{query[1]:04d}.json")]
    if cmd == "enumerate":
        return [cmd, "--group", query[1], "--rank", str(query[2]),
                "--classes", str(workdir / "inventory.json"), "--out", str(out_path)]
    return [cmd, "--kind", query[1], "--rank", str(query[2])]


# ---------------------------------------------------------------------------
# set-up and passes


def setup(workload: workloads.Workload, workdir: Path) -> dict:
    """Import the program and build the inputs.  Writing the ``queries``
    files is the benchmark's own disk work and is not timed: its time
    varies with the host's disk, not with the program."""
    before = reference_s()
    start = time.perf_counter()
    mods = import_layers()
    inputs = len(workloads.verify_plan(workload, 0, 0)) if workload.is_verify else query_inputs(mods)
    raw = time.perf_counter() - start
    scale = 2 * REFERENCE_S / (before + reference_s())
    n_inputs = inputs if workload.is_verify else write_query_inputs(workdir, inputs)
    return {"setup_s": raw * scale, "raw_setup_s": raw, "inputs": n_inputs}


def run_items(mods: dict, workload: workloads.Workload, plan: list, workdir: Path, tracer=None) -> dict:
    """Run a plan and time each item; outputs are digested after the clock
    stops.  ``reference_s`` runs before the first item and then every
    ``REFERENCE_EVERY_S`` of item time; each item's times are scaled by the
    mean of the two reference runs around it."""
    cli = mods["cli"]
    walls, cpus, raw = [], [], []
    refs, ref_before = [reference_s()], []
    since_ref = 0.0
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, item in enumerate(plan):
        if tracer is not None:
            tracer.item = i
        t0, c0 = time.perf_counter(), time.process_time()
        if workload.is_verify:
            raw.append(cli.run_suite(*item))
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.run(query_argv(item, workdir, out_dir / f"{i}.json"))
            raw.append((rc, buf.getvalue()))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        ref_before.append(len(refs) - 1)
        since_ref += walls[-1]
        if since_ref >= REFERENCE_EVERY_S or i == len(plan) - 1:
            refs.append(reference_s())
            since_ref = 0.0
    scale = [2 * REFERENCE_S / (refs[k] + refs[k + 1]) for k in ref_before]
    latencies = [x * f for x, f in zip(walls, scale)]
    cpu = sum(x * f for x, f in zip(cpus, scale))

    if workload.is_verify:
        observed = [
            {
                "key": workloads.suite_key(*item),
                "cases": [[c["input"], c["status"]] for c in report["cases"]],
                **{k: report[k] for k in ("passed", "failed", "flagged")},
            }
            for item, report in zip(plan, raw)
        ]
        n_items = sum(len(o["cases"]) for o in observed)
    else:
        param_index = read_param_index(workdir)
        observed = []
        for i, (item, (rc, stdout)) in enumerate(zip(plan, raw)):
            out_path = out_dir / f"{i}.json"
            out = None
            if out_path.exists():
                out = sha256(out_path.read_bytes())
                out_path.unlink()
            observed.append({"key": query_key(item, param_index), "rc": rc, "stdout": sha256(stdout), "out": out})
        n_items = len(plan)
    keys = [workloads.suite_key(*item) if workload.is_verify else item[0] for item in plan]
    return {
        "wall_s": sum(latencies),
        "cpu_s": cpu,
        "raw_wall_s": sum(walls),
        "raw_cpu_s": sum(cpus),
        "references": refs,
        "items": n_items,
        "latencies": latencies,
        "keys": keys,
        "observed": observed,
    }


def run_pass(workload: workloads.Workload, seed: int, index: int, workdir: Path, spans: Path | None) -> dict:
    mods = import_layers()
    if workload.is_verify:
        plan = workloads.verify_plan(workload, seed, index)
    else:
        plan = workloads.query_plan(seed, index, len(read_param_index(workdir)), workloads.QUERIES_PER_PASS)
    tracer = None
    if spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mods)
    try:
        result = run_items(mods, workload, plan, workdir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the program's worker-thread count (HECKE_ATLAS_THREADS or cpu_count);
    # a program without the pool runs one thread
    threads = getattr(mods["cli"], "_threads", None)
    result["threads"] = threads() if threads else 1
    result["repeat_share"] = workloads.repeat_share(plan)
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["supports_in_pairs"] = tracer.supports_in_pairs
        result["distinct"] = {name: len(keys) for name, keys in tracer.distinct.items()}
        result["mul_calls"] = tracer.mul_calls()
        result["missing"] = tracer.missing
        tracer.write(spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    # One CPU for the whole process.  The program's pool threads hold the
    # interpreter lock in turn; spread over two vCPUs of a shared host, each
    # hand-off can wait for a vCPU the host has descheduled, and a pass then
    # varies by up to 1.3x in ways the reference loop does not see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.workdir)
    else:
        result = run_pass(workload, args.seed, args.index, args.workdir, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
