"""Top-level acceptance checks, one per contract item.

Each test runs the relevant exhaustive comparison at its full advertised
scale and enforces its wall-clock budget; everything is exact arithmetic,
so there are no tolerances anywhere.
"""

import hashlib
import inspect
import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

import pins
from hecke_atlas.cli import run
from hecke_atlas.params import supercuspidal_corpus
from hecke_atlas.verify import SUITES, run_suite, standard_inventory


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.monotonic() - self.start <= self.seconds


def test_supercuspidal_counts_match_brute_force_on_full_corpus():
    with Budget(10):
        corpus = supercuspidal_corpus(standard_inventory(), 9)
        assert len(corpus) >= 200
        report = run_suite("thm11", 9)
        assert len(report["cases"]) == len(corpus)
        assert report["failed"] == 0 and report["flagged"] == 0


def test_odd_orthogonal_table_matches_derived_factors():
    with Budget(5):
        report = run_suite("thm31", 6)
        assert report["failed"] == 0 and report["flagged"] == 0
        assert len(report["cases"]) == 6


def test_multiplicities_match_sign_count_formula():
    with Budget(10):
        report = run_suite("thm32", 6)
        assert report["failed"] == 0
        for case in report["cases"]:
            if case["status"] == "flagged":
                # only one-sided supports in the odd-rank setting stay open
                kind, _, pair = case["input"].split(":")
                d_plus, d_minus = map(int, pair.removeprefix("pair=").split(","))
                assert kind == "sp" and d_plus * d_minus == 0


def test_unitary_table_matches_derived_enumeration():
    with Budget(10):
        report = run_suite("thm33", 12)
        assert report["failed"] == 0
        for case in report["cases"]:
            if case["status"] == "flagged":
                # bucket routing differs only on one-sided supports up to
                # m = 14 (from m = 16 on two-sided ones too, such as (4, 12));
                # the index sets, algebra factors and total counts all agree
                pair = case["input"].split(":")[-1].removeprefix("pair=")
                d_plus, d_minus = map(int, pair.split(","))
                assert d_plus * d_minus == 0
                assert case["expected"]["factors"] == case["actual"]["factors"]
                assert case["expected"]["total"] == case["actual"]["total"]


def test_matrix_realization_and_round_trip_on_all_discrete_parameters():
    with Budget(10):
        report = run_suite("thm26-matrix", 14)
        assert report["failed"] == 0 and report["flagged"] == 0
        assert len(report["cases"]) == 4049


@pytest.fixture(scope="session")
def levi_reports():
    """lemA3 and lemA4 at rank 5, their default, computed once per session."""
    with Budget(30):
        return {suite: run_suite(suite, 5) for suite in ("lemA3", "lemA4")}


def test_levi_normalizer_characterizations_exhaustively(levi_reports):
    for report in levi_reports.values():
        assert report["failed"] == 0 and report["flagged"] == 0
        assert report["passed"] >= 30


def test_support_structure_and_injectivity():
    with Budget(5):
        tails = run_suite("thm16", 6)
        assert tails["failed"] == 0
        for case in tails["cases"]:
            if case["status"] == "flagged":
                # rank-zero tails leaving several sign characters stay open
                assert case["actual"]["injective"]
        ranks = run_suite("thm18", 6)
        assert ranks["failed"] == 0 and ranks["flagged"] == 0


def test_over_cap_rank_is_refused_before_any_work(capsys):
    for suite, rank in (("lemA3", 7), ("lemA4", 7), ("thm26-matrix", 17), ("thm33", 1)):
        with Budget(1):
            assert run(["verify", "--suite", suite, "--max-rank", str(rank)]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_non_positive_rank_is_refused_before_any_work(suite, capsys):
    for rank in ("0", "-1"):
        with Budget(1):
            assert run(["verify", "--suite", suite, "--max-rank", rank]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {suite}: rank must be positive, got {rank}\n"


# the lowest rank of each suite, written out rather than read from SUITES
LOWEST_RANKS = {suite: 2 if suite == "thm33" else 1 for suite in SUITES}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_runs_at_its_lowest_rank(suite, capsys):
    rank = LOWEST_RANKS[suite]
    report = run_suite(suite, rank)
    assert report["cases"] and report["failed"] == 0
    names = [case["input"] for case in report["cases"]]
    assert len(set(names)) == len(names)
    assert run(["verify", "--suite", suite, "--max-rank", str(rank), "--allow-flagged"]) == 0
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_report_equals_the_json_it_prints(suite):
    # no tuple, no non-string key and no other value that JSON reads back as something else
    report = run_suite(suite, LOWEST_RANKS[suite])
    assert json.loads(json.dumps(report)) == report


def test_every_suite_holds_only_functions_of_verify():
    # a library function held by a record would escape the mutation tests
    # and the benchmark's tracer, which rebind module attributes; the tracer
    # also binds run_suite's arguments by name
    for suite in SUITES.values():
        for field in suite:
            if callable(field):
                assert field.__module__ == "hecke_atlas.verify"
    assert list(inspect.signature(run_suite).parameters) == ["suite", "max_rank"]


def test_a_rank_below_the_lowest_is_refused_with_its_bound(capsys):
    assert run(["verify", "--suite", "thm33", "--max-rank", "1"]) == 2
    assert capsys.readouterr() == ("", "error: thm33: ranks start at 2, got 1\n")


# the fast tier of tests/pins.json, checked in this process; CI runs the
# stretch tier with tests/pins.py
FAST_PINS = [entry["key"] for entry in pins.load() if entry["tier"] == "fast"]


@pytest.mark.parametrize("key", FAST_PINS)
def test_report_bytes_match_golden_digest(key):
    assert pins.check([key]) == []


def test_the_pin_runner_fails_loudly_under_optimized_mode(tmp_path, src_env):
    # a wrong digest and a command that exits 2 each make it exit non-zero,
    # naming the key, and it never hashes an empty or partial output
    entries = {entry["key"]: entry for entry in pins.load()}
    kept, flipped, refused = (dict(entries[key]) for key in ("thm18-r10", "thm31-r12", "thm33-r30"))
    flipped["sha256"] = format(int(flipped["sha256"], 16) ^ 1, "064x")
    refused["argv"] = [["verify", "--suite", "thm33", "--max-rank", "1"]]
    shutil.copy(pins.__file__, tmp_path / "pins.py")
    (tmp_path / "pins.json").write_text(json.dumps([kept, flipped, refused]))
    done = subprocess.run(
        [sys.executable, "-O", str(tmp_path / "pins.py")], capture_output=True, text=True, env=src_env()
    )
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert f"thm31-r12 {flipped['sha256']} {entries['thm31-r12']['sha256']}" in lines
    assert "thm33-r30: verify --suite thm33 --max-rank 1 exited 2" in lines
    assert not any(line.startswith("thm18-r10") for line in lines)
    assert hashlib.sha256(b"").hexdigest() not in done.stdout


def test_every_pin_lives_in_the_manifest():
    workflow = (pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    assert re.search(r"\b[0-9a-f]{64}\b", workflow) is None
    assert "sha256sum" not in workflow and "<<" not in workflow
    assert [line.strip() for line in workflow.splitlines() if "pins.py" in line] == [
        "run: PYTHONPATH=src python -O tests/pins.py"
    ]
    entries = pins.load()
    keys = [entry["key"] for entry in entries]
    assert len(set(keys)) == len(keys)
    assert {entry["tier"] for entry in entries} <= {"fast", "stretch"}
    for entry in entries:
        assert ("argv" in entry) != ("producer" in entry)
        assert "argv" in entry or entry["producer"][0] in pins.PRODUCERS
    stretch = {entry["key"] for entry in entries if entry["tier"] == "stretch"}
    assert set(pins.ONE_PROCESS) <= stretch


REPORT_DIGESTS = """
import hashlib, json, sys
from hecke_atlas.verify import run_suite
for suite in sys.argv[1:]:
    print(suite, hashlib.sha256(json.dumps(run_suite(suite, 6), indent=2).encode()).hexdigest())
"""


def test_run_order_does_not_change_report_bytes(src_env):
    # thm11 and thm16 share cuspidal shapes, and all three the memoized
    # depth pairs, within a process: whichever runs first builds them
    def digests(*suites):
        done = subprocess.run(
            [sys.executable, "-c", REPORT_DIGESTS, *suites], capture_output=True, text=True, env=src_env(), check=True
        )
        return dict(line.split() for line in done.stdout.splitlines())

    alone = {}
    for suite in ("thm11", "thm16", "thm18"):
        alone.update(digests(suite))
    assert len(alone) == 3
    assert digests("thm11", "thm16", "thm18") == alone
    assert digests("thm18", "thm16", "thm11") == alone


@pytest.mark.parametrize("suite", ["thm31", "thm33"])
def test_verify_writes_the_stdlib_indent_2_text_to_stdout_and_report(suite, tmp_path, capsys):
    expected = json.dumps(run_suite(suite), indent=2) + "\n"
    report = tmp_path / "report.json"
    assert run(["verify", "--suite", suite, "--report", str(report), "--allow-flagged"]) == 0
    assert capsys.readouterr().out == expected
    assert report.read_bytes() == expected.encode()
