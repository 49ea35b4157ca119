"""The benchmark's own tests, at a tiny size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's default test collection.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = worker.ROOT / ".perfbench_work" / "selftest"
TINY_VERIFY = workloads.Workload("corpus", (("thm31", 6), ("thm33", 12)))


@pytest.fixture(scope="module")
def query_dir():
    workdir = SCRATCH / "queries"
    workdir.mkdir(parents=True, exist_ok=True)
    worker.write_query_inputs(workdir, worker.query_inputs(worker.import_layers()))
    return workdir


def _tiny_run(workload, workdir, monkeypatch, trace: bool) -> dict:
    """Two untraced (and two traced) passes of a tiny plan, as run.measure
    would collect them, checked by the gate."""
    monkeypatch.setattr(workloads, "QUERIES_PER_PASS", 8)
    record = gate.load_record(workload.name)
    out = {"setups": [{"setup_s": 0.1, "raw_setup_s": 0.1}], "plain": [], "traced": [], "attempted": 0, "failed": 0}
    for index in range(4 if trace else 2):
        spans = workdir / "spans.tsv" if trace and index % 2 else None
        result = worker.run_pass(workload, 3, index, workdir, spans)
        a, f = gate.check_pass(record, result.pop("observed"), workload.is_verify)
        out["attempted"] += a
        out["failed"] += f
        out["traced" if spans else "plain"].append(result)
    return out


def _printed(result: dict, meta: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_report(result, meta)
    return buf.getvalue()


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", ["verify", "queries"])
def test_every_metric_prints_with_its_unit(kind, trace, query_dir, monkeypatch):
    workload = TINY_VERIFY if kind == "verify" else workloads.WORKLOADS["queries"]
    workdir = query_dir if kind == "queries" else SCRATCH / "verify"
    workdir.mkdir(parents=True, exist_ok=True)
    measured = _tiny_run(workload, workdir, monkeypatch, trace)
    assert measured["failed"] == 0 and measured["attempted"] > 0
    monkeypatch.setattr(run, "measure", lambda *args: measured)
    result, meta = run.report(workload, 3, 0.0, trace)
    text = _printed(result, meta)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {name for name, _ in expected}
    for name, unit in expected:
        line = next(l for l in text.splitlines() if l.split()[:1] == [name])
        assert line.split()[-1] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    assert json.loads(text.splitlines()[-1])["meta"]["samples"]


def test_same_seed_gives_the_same_draw():
    assert workloads.query_plan(7, 0, 375) == workloads.query_plan(7, 0, 375)
    assert workloads.query_plan(7, 0, 375) != workloads.query_plan(8, 0, 375)
    assert workloads.query_plan(7, 0, 375) != workloads.query_plan(7, 1, 375)
    corpus = workloads.WORKLOADS["corpus"]
    assert workloads.verify_plan(corpus, 7, 2) == workloads.verify_plan(corpus, 7, 2)
    assert sorted(workloads.verify_plan(corpus, 7, 2)) == sorted(corpus.suites)
    draw = workloads.query_plan(7, 0, 375)
    assert set(draw) <= set(workloads.query_universe(375))
    assert 0 < workloads.repeat_share(draw) < 1


def test_corrupted_record_makes_the_gate_report_errors(query_dir):
    mods = worker.import_layers()
    observed = worker.run_items(mods, TINY_VERIFY, list(TINY_VERIFY.suites), SCRATCH)["observed"]
    record = gate.load_record("corpus")
    assert gate.check_pass(record, observed, True)[1] == 0

    bad = copy.deepcopy(record)
    first = bad["thm31_r6"]["cases"][0]
    first[1] = "fail" if first[1] != "fail" else "pass"
    bad["thm33_r12"]["flagged"] += 1
    assert gate.check_pass(bad, observed, True)[1] == 2

    truncated = copy.deepcopy(record)
    truncated["thm33_r12"]["cases"].pop()
    assert gate.check_pass(truncated, observed, True)[1] == 1

    plan = [("supports", 0), ("enumerate", "sp", 2), ("specialize", "sp", 3)]
    observed = worker.run_items(mods, workloads.WORKLOADS["queries"], plan, query_dir)["observed"]
    record = gate.load_record("queries")
    assert gate.check_pass(record, observed, False) == (3, 0)
    for key, field in ((observed[0]["key"], "stdout"), ("enumerate:sp:2", "out"), ("specialize:sp:3", "rc")):
        bad = copy.deepcopy(record)
        bad["queries"][key][field] = "x"
        assert gate.check_pass(bad, observed, False) == (3, 1)
    assert gate.check_param_index(record, worker.read_param_index(query_dir)) == (1, 0)
    assert gate.check_param_index(record, worker.read_param_index(query_dir)[1:]) == (1, 1)


def test_times_are_scaled_to_reference_speed(monkeypatch):
    """A host running the reference loop at half speed halves every time."""
    monkeypatch.setattr(worker, "reference_s", lambda: 2 * worker.REFERENCE_S)
    mods = worker.import_layers()
    measured = worker.run_items(mods, TINY_VERIFY, list(TINY_VERIFY.suites), SCRATCH)
    assert 2 <= len(measured["references"]) <= 3  # before the first item, after the last, maybe between
    assert measured["wall_s"] == pytest.approx(measured["raw_wall_s"] / 2)
    assert measured["cpu_s"] == pytest.approx(measured["raw_cpu_s"] / 2)
    setup = worker.setup(TINY_VERIFY, SCRATCH)
    assert setup["setup_s"] == pytest.approx(setup["raw_setup_s"] / 2)


def test_self_time_subtracts_the_union_of_children():
    t = tracer.Tracer()
    t.spans = [
        (0, "a", 0, 100, -1, 0),
        (1, "b", 10, 50, 0, 0),
        (2, "b", 40, 70, 0, 0),  # overlaps its sibling, as pool threads do
        (3, "c", 20, 30, 1, 0),
    ]
    agg = t.aggregate()
    assert agg["a"]["calls"] == 1 and agg["a"]["self_s"] == pytest.approx(40e-9)
    assert agg["b"]["calls"] == 2 and agg["b"]["total_s"] == pytest.approx(70e-9)
    assert agg["b"]["self_s"] == pytest.approx(60e-9)
    assert agg["c"]["self_s"] == pytest.approx(10e-9)


def test_tracer_restores_every_patched_function():
    mods = worker.import_layers()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    methods = (mods["weil"].UnitMonomial.__init__, mods["weyl"].SignedPermutation.__mul__)
    t = tracer.Tracer()
    t.install(mods)
    assert mods["weyl"].relative_weyl is not before["weyl"]["relative_weyl"]
    t.uninstall()
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == before
    assert (mods["weil"].UnitMonomial.__init__, mods["weyl"].SignedPermutation.__mul__) == methods


def test_tracer_reports_targets_the_program_no_longer_has():
    mods = dict(worker.import_layers())
    params = dict(vars(mods["params"]))
    del params["det_discrepancy"]
    mods["params"] = types.SimpleNamespace(**params)
    t = tracer.Tracer()
    t.install(mods)
    try:
        assert t.missing == ["params.det_discrepancy"]
    finally:
        t.uninstall()


def test_exits_nonzero_without_the_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(worker.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
