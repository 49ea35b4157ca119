"""hecke-atlas benchmark.

    python3 perfbench/run.py --workload {corpus,matrix,weyl,queries,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs passes back to back (a closed loop); every pass
and every set-up is a fresh interpreter started from ``worker.py``, with
``HECKE_ATLAS_THREADS`` unset.  Passes start until ``--seconds`` have gone
by.  Every output is checked against ``perfbench/records``.  Every time is
scaled to a fixed reference speed of the host (``worker.reference_s``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
printed, with the tracing overhead.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_RUN = 9
MIN_PASSES = 3  # of each kind: untraced, and traced when tracing
CHILD_TIMEOUT_S = 150
WORKDIR = ROOT / ".perfbench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

ALL_SUITES = sorted({workloads.suite_key(*s) for w in workloads.WORKLOADS.values() for s in w.suites})
SUBCOMMANDS = ("enumerate", "hecke", "specialize", "supports")


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for name in tracer.SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.total_s", "s")]
    out += [
        ("support.cuspidal_pairs.supports", "count"),
        ("support.build_phi_S.per_pair", "ratio"),
        ("hecke.derived_rows.distinct", "count"),
        ("hecke.derived_rows.distinct_ratio", "ratio"),
        ("weyl.relative_weyl.distinct", "count"),
        ("weyl.relative_weyl.distinct_ratio", "ratio"),
        ("weyl.orbit_stabilizers.max_case_s", "s"),
        ("weyl.SignedPermutation.mul.calls", "count"),
    ]
    out += [(f"cli.run_suite.{key}.wall_s", "s") for key in ALL_SUITES]
    out += [(f"cli.run.{cmd}.self_s", "s") for cmd in SUBCOMMANDS]
    out += [("cli.threads", "count"), ("trace.overhead_s", "s")]
    return out


PER_LAYER = tuple(per_layer_metrics())


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE_ATLAS_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str]) -> dict:
    """Run ``worker.py`` and return the JSON object it prints last."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "hecke_atlas").glob("*.py"))


# ---------------------------------------------------------------------------
# one workload


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds``, check every output."""
    workdir = WORKDIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    base = ["--workload", workload.name, "--workdir", str(workdir)]
    setups = [run_child(["setup", *base]) for _ in range(SETUPS_PER_RUN)]

    record = gate.load_record(workload.name)
    attempted = failed = 0
    if not workload.is_verify:
        attempted, failed = gate.check_param_index(record, json.loads((workdir / "params.json").read_text()))

    plain, traced = [], []
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        use_trace = trace and index % 2 == 1
        args = ["pass", *base, "--seed", str(seed), "--index", str(index)]
        if use_trace:
            args += ["--spans", str(workdir / "spans.tsv")]
        result = run_child(args)
        a, f = gate.check_pass(record, result.pop("observed"), workload.is_verify)
        attempted, failed = attempted + a, failed + f
        (traced if use_trace else plain).append(result)
        index += 1
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and time.monotonic() >= deadline:
            break
    run = {"setups": setups, "plain": plain, "traced": traced, "attempted": attempted, "failed": failed}
    (workdir / "passes.json").write_text(json.dumps(run) + "\n", encoding="utf-8")
    return run


def end_to_end(workload: workloads.Workload, run: dict) -> tuple[dict, dict]:
    plain, setups = run["plain"], run["setups"]
    tails = [quantile(p["latencies"], workload.tail_q) for p in plain]
    values = {
        "setup_s": median(s["setup_s"] for s in setups),
        "wall_s": median(p["wall_s"] for p in plain),
        "cpu_s": median(p["cpu_s"] for p in plain),
        "items_per_s": median(p["items"] / p["wall_s"] for p in plain),
        "latency_p50_ms": 1e3 * median(quantile(p["latencies"], 0.5) for p in plain),
        "latency_p99_ms": 1e3 * median(tails),
        "peak_rss_mb": median(p["maxrss_mb"] for p in plain),
    }
    samples = {
        "setups": len(setups),
        "passes": len(plain),
        "latency_per_pass": len(plain[0]["latencies"]),
        "latency_tail_percentile": round(100 * workload.tail_q, 3),
        "latency_beyond_tail_per_pass": min(
            sum(1 for x in p["latencies"] if x > tail) for p, tail in zip(plain, tails)
        ),
        "references_per_pass": median(len(p["references"]) for p in plain),
        # medians of the times as measured, before scaling to reference speed
        "raw_setup_s": median(s["raw_setup_s"] for s in setups),
        "raw_wall_s": median(p["raw_wall_s"] for p in plain),
        "raw_cpu_s": median(p["raw_cpu_s"] for p in plain),
    }
    return values, samples


def per_layer(workload: workloads.Workload, run: dict) -> tuple[dict, dict]:
    plain, traced = run["plain"], run["traced"]
    first = traced[0]

    def layer(name: str, field: str) -> list[float]:
        """Per traced pass; times are scaled to reference speed as the
        pass's wall time was."""
        return [t["layers"].get(name, {}).get(field, 0) * t["wall_s"] / t["raw_wall_s"] for t in traced]

    values: dict[str, float] = {}
    for name in tracer.SPAN_NAMES:
        values[f"{name}.calls"] = first["layers"].get(name, {}).get("calls", 0)
        values[f"{name}.self_s"] = median(layer(name, "self_s"))
        values[f"{name}.total_s"] = median(layer(name, "total_s"))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    supports = first["supports_in_pairs"]
    values["support.cuspidal_pairs.supports"] = supports
    values["support.build_phi_S.per_pair"] = ratio(values["support.build_phi_S.calls"], supports)
    for name in ("hecke.derived_rows", "weyl.relative_weyl"):
        distinct = first["distinct"].get(name, 0)
        values[f"{name}.distinct"] = distinct
        values[f"{name}.distinct_ratio"] = ratio(distinct, values[f"{name}.calls"])
    values["weyl.orbit_stabilizers.max_case_s"] = median(layer("weyl.orbit_stabilizers", "max_s"))
    values["weyl.SignedPermutation.mul.calls"] = first["mul_calls"]
    for key in ALL_SUITES:  # from the untraced passes
        walls = [x for p in plain for k, x in zip(p["keys"], p["latencies"]) if k == key]
        values[f"cli.run_suite.{key}.wall_s"] = median(walls)
    for cmd in SUBCOMMANDS:
        values[f"cli.run.{cmd}.self_s"] = median(layer(f"cli.run.{cmd}", "self_s"))
    values["cli.threads"] = first["threads"]
    # passes alternate untraced, traced: compare neighbours, so drift in
    # machine speed over the run cancels out
    values["trace.overhead_s"] = median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))

    def counts(t: dict) -> tuple:
        calls = tuple(sorted((k, v["calls"]) for k, v in t["layers"].items()))
        return calls, t["supports_in_pairs"], tuple(sorted(t["distinct"].items())), t["mul_calls"]

    samples = {
        "traced_passes": len(traced),
        "untraced_targets": first["missing"],
        "untraced_passes": len(plain),
        # a queries pass draws its own plan, so its counts repeat only per seed
        "counts_repeat": all(counts(t) == counts(first) for t in traced) if workload.is_verify else None,
    }
    return values, samples


def report(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, metadata)."""
    run = measure(workload, seed, seconds, trace)
    if trace:
        values, samples = per_layer(workload, run)
        units = dict(PER_LAYER)
    else:
        values, samples = end_to_end(workload, run)
        units = dict(END_TO_END)
    plain = run["plain"]
    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": plain[0]["threads"],
        "samples": samples,
        "repeat_share": median(p["repeat_share"] for p in plain),
        "src_lines": src_lines(),
        "error_ratio": run["failed"] / run["attempted"],
    }
    if trace:
        meta["spans_file"] = str((WORKDIR / workload.name / "spans.tsv").relative_to(ROOT))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    return result, meta


def print_report(result: dict, meta: dict, prefix: str = "") -> None:
    print(f"# {meta['workload']}: seed {meta['seed']}, {json.dumps(meta['samples'])}")
    for name, m in result["metrics"].items():
        print(f"{prefix}{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{prefix}{'error_ratio':<44} {meta['error_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    print(json.dumps({"meta": meta}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hecke-atlas benchmark")
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hecke_atlas" / "__init__.py").is_file():
        print(f"error: no hecke_atlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, meta = report(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        print_report(result, meta, prefix)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
