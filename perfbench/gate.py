"""Correctness gate: compare a pass's outputs with the committed records.

The records were taken by ``record.py`` from the program itself.  A verify
case matches when its ``(input, status)`` pair does, so a report may gain
fields without tripping the gate; the pass/fail/flagged counts must match
too.  A query matches when its exit code and the sha256 of its stdout and
of its ``--out`` file do.  Every mismatch is one failed item.
"""

from __future__ import annotations

import json
from pathlib import Path

RECORDS = Path(__file__).resolve().parent / "records"
COUNTS = ("passed", "failed", "flagged")


def load_record(workload: str) -> dict:
    return json.loads((RECORDS / f"{workload}.json").read_text(encoding="utf-8"))


def check_suite(record: dict, observed: dict) -> tuple[int, int]:
    """(attempted, failed) for one run_suite call: one item per case."""
    expected = record.get(observed["key"])
    cases = observed["cases"]
    if expected is None:
        return max(len(cases), 1), max(len(cases), 1)
    want = expected["cases"]
    failed = sum(1 for got, ref in zip(cases, want) if got != ref)
    failed += abs(len(cases) - len(want))
    failed += sum(1 for k in COUNTS if observed[k] != expected[k])
    return max(len(cases), len(want)), failed


def check_query(record: dict, observed: dict) -> tuple[int, int]:
    expected = record["queries"].get(observed["key"])
    ok = expected is not None and all(observed[k] == expected[k] for k in ("rc", "stdout", "out"))
    return 1, 0 if ok else 1


def check_pass(record: dict, observed: list[dict], verify: bool) -> tuple[int, int]:
    attempted = failed = 0
    for item in observed:
        a, f = (check_suite if verify else check_query)(record, item)
        attempted += a
        failed += f
    return attempted, failed


def check_param_index(record: dict, index: list[str]) -> tuple[int, int]:
    """The parameter files written in set-up must be the recorded ones."""
    return 1, 0 if index == record["params"] else 1
