"""Top-level acceptance checks, one per contract item.

Each test runs the relevant exhaustive comparison at its full advertised
scale and enforces its wall-clock budget; everything is exact arithmetic,
so there are no tolerances anywhere.
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from hecke_atlas.cli import run
from hecke_atlas.params import (
    LDSummand,
    build_ld_parameter,
    parameter_to_json_dict,
    supercuspidal_corpus,
)
from hecke_atlas.verify import SUITES, run_suite, standard_inventory
from hecke_atlas.weil import ONE, DualGroupDescriptor, Family, InertialPoint


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
                # bucket routing differs only on one-sided supports; the
                # index sets, algebra factors and total counts all agree
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
    assert run(["verify", "--suite", suite, "--max-rank", str(rank), "--allow-flagged"]) == 0
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_report_equals_the_json_it_prints(suite):
    # no tuple, no non-string key and no other value that JSON reads back as something else
    report = run_suite(suite, LOWEST_RANKS[suite])
    assert json.loads(json.dumps(report)) == report


def test_a_rank_below_the_lowest_is_refused_with_its_bound(capsys):
    assert run(["verify", "--suite", "thm33", "--max-rank", "1"]) == 2
    assert capsys.readouterr() == ("", "error: thm33: ranks start at 2, got 1\n")


# sha256 of each output, captured before a refactor that must leave every
# output byte-identical: json.dumps(run_suite(suite), indent=2) at the default
# rank; "enumerate:GROUP[:cuspidal]", the --out files of ranks 1-4 in order;
# "specialize:KIND", stdout of ranks 1-6 in order; "supports:..." and
# "hecke:...", stdout on a two-orbit parameter in SO7
GOLDEN_REPORTS = {
    "enumerate:o-even": "27e5acdbcb08117cbc468caf553ed6ab970cdbc4a44dddf672da0aeb173e414c",
    "enumerate:o-even:cuspidal": "a49afe9af60f30edd7c6641c18126c2508d337f6eb45216c74254bd8c067a5e0",
    "enumerate:so-odd": "accba0eee2061573c119988a9954a9992fae18a968b391813948cb63ab5dae16",
    "enumerate:so-odd:cuspidal": "fef04ba58bb2d308649ede2c8255df976be9182d1e7599168cd4cc9ba89a3570",
    "enumerate:sp": "eda2d7769c3f259577f6ec17e7b960a104c17dcea1ee2c523b1d2d2cf6bead58",
    "enumerate:sp:cuspidal": "a5c59a54004376badb56adbd08939f08f0a405d9a8cf71a2c688d4ddcae5f6fd",
    "enumerate:u": "4a2e4a1ac9ba898692976407d94639ae1f6f836f04f65b476e8d5a47332bb2c7",
    "enumerate:u:cuspidal": "4a2e4a1ac9ba898692976407d94639ae1f6f836f04f65b476e8d5a47332bb2c7",
    "hecke:so7-two-orbit": "e8aa75b496cb2802426d7d1e4063725c850bd26205c5c76d56a0a373fdce1557",
    "lemA3": "80098633480119fb759cb7703f55692054ac50627818b2a08042005ccaede9bd",
    "lemA4": "bbda5d413aa03c98a7ff2b44a994ca75306a6fbd32073b68e1fb0e6d5b0cc8c8",
    "specialize:o-even": "8d2ce9569079b8277d8dde0026aa7802a7196b7aea18372d932a053d27b8bf5a",
    "specialize:so-odd": "28b739b2174ea03b67c29a82a1b4108bfb894ab80f681144208ee0e9a720020b",
    "specialize:sp": "57c0e4f097e0497474fade89fe662a09e918c15bb1b3e8fafeb6b616209b926f",
    "specialize:unitary": "453e47da014ae95cd657c2cf5679198595fc2d0a447a0c514890c0a426f0b24b",
    "supports:so7-two-orbit": "ca96ff703d33fe57b63550aac17010438d493f514ff4c6a3f1aae567b1b9aeda",
    "thm11": "a1f99685a5405cc93627e64b7e1cf1ddf7714fcef2a3e32d64620ea4894409f7",
    "thm16": "d433d34a38e11603a86e9d00cc10b3eb87eb7ca88d57adac5823e8ad614429ff",
    "thm18": "5e75491280d3e7c2bce882e905e71b83245ccbd1fe92448cb6dcf933b1004d38",
    "thm26-matrix": "789707290a9a5414aa69bb0fc5e333510d4d45beee956d6f28b081a5bed5f0ae",
    "thm31": "f62062c50e39092922cc98603b55734bc6a2dd891630d4011e3075005cee55f4",
    "thm32": "6deba4a5bdf9d91de77440aa8f91c6bc6e00670a6ccf5a66fa02885c8059eec5",
    "thm33": "ace92327d4861ade8353e4e35706f585e31f317f1cbec1674dbe096af0a8a104",
}


def _golden_output(key, request, tmp_path, capsys, inv) -> str:
    command, _, arg = key.partition(":")
    if command == "specialize":
        capsys.readouterr()
        for rank in range(1, 7):
            assert run(["specialize", "--kind", arg, "--rank", str(rank)]) == 0
        return capsys.readouterr().out
    if command == "enumerate":
        group, _, flag = arg.partition(":")
        classes, out = tmp_path / "inv.json", tmp_path / "out.json"
        standard_inventory().dump(classes)
        texts = []
        for rank in range(1, 5):
            argv = ["enumerate", "--group", group, "--rank", str(rank), "--classes", str(classes)]
            assert run(argv + ["--out", str(out)] + ([f"--{flag}"] if flag else [])) == 0
            texts.append(out.read_text())
        return "".join(texts)
    if command in ("supports", "hecke"):
        phi0 = build_ld_parameter(
            [
                LDSummand(InertialPoint(inv["triv"], ONE), 1, 3),
                LDSummand(InertialPoint(inv["a"], ONE), 1, 2),
            ],
            DualGroupDescriptor(Family.ORTHOGONAL, 7),
        )
        param = tmp_path / "p.json"
        param.write_text(
            json.dumps({"inventory": inv.to_json_list(), "parameter": parameter_to_json_dict(phi0)})
        )
        capsys.readouterr()
        assert run([command, "--param", str(param)]) == 0
        return capsys.readouterr().out
    if command in ("lemA3", "lemA4"):
        return json.dumps(request.getfixturevalue("levi_reports")[command], indent=2)
    return json.dumps(run_suite(key), indent=2)


@pytest.mark.parametrize("key", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden_digest(key, request, tmp_path, capsys, extended_inventory):
    text = _golden_output(key, request, tmp_path, capsys, extended_inventory)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[key]


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
