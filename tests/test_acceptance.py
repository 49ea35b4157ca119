"""Top-level acceptance checks, one per contract item.

Each test runs the relevant exhaustive comparison at its full advertised
scale and enforces its wall-clock budget; everything is exact arithmetic,
so there are no tolerances anywhere.
"""

import hashlib
import json
import time

import pytest

from hecke_atlas.centralizer import centralizer_of_s, enumerate_s_classes
from hecke_atlas.cli import run, run_suite, standard_inventory
from hecke_atlas.params import (
    LDSummand,
    build_ld_parameter,
    supercuspidal_corpus,
)
from hecke_atlas.weil import DualGroupDescriptor, Family, UnitMonomial, orbit_point


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
        report = run_suite("thm26-matrix", 8)
        assert report["failed"] == 0 and report["flagged"] == 0
        assert len(report["cases"]) >= 300


def test_descriptor_comparison_detects_type_and_minus_one():
    with Budget(5):
        inv = standard_inventory()

        def unit(label, family, dim):
            return build_ld_parameter(
                [
                    LDSummand(
                        orbit_point(inv[label], UnitMonomial.one()), 1, dim // inv[label].dim
                    )
                ],
                DualGroupDescriptor(family, dim),
                inv,
            )

        settings = [
            unit("triv", Family.ORTHOGONAL, 4),
            unit("rho_mix", Family.ORTHOGONAL, 8),
            unit("a", Family.SYMPLECTIC, 8),
            unit("triv", Family.SYMPLECTIC, 6),
            unit("rho_mix2", Family.ORTHOGONAL, 8),
            build_ld_parameter(
                [
                    LDSummand(orbit_point(inv["triv"], UnitMonomial.one()), 1, 2),
                    LDSummand(orbit_point(inv["rho_mix"], UnitMonomial.one()), 1, 2),
                ],
                DualGroupDescriptor(Family.ORTHOGONAL, 6),
                inv,
            ),
        ]
        total = 0
        for phi0 in settings:
            for s in enumerate_s_classes(phi0):
                total += 1
                res = centralizer_of_s(phi0, s)
                if res.mixed_blocks:
                    assert res.agree == (res.m_minus_one_mixed == 0)
                else:
                    assert res.agree
        assert total >= 100


def test_levi_normalizer_characterizations_exhaustively():
    with Budget(30):
        for suite in ("lemA3", "lemA4"):
            report = run_suite(suite, 5)
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


def test_over_cap_rank_is_refused_before_any_work():
    for suite in ("lemA3", "lemA4"):
        with Budget(1):
            assert run(["verify", "--suite", suite, "--max-rank", "6"]) == 2


# sha256 of json.dumps(run_suite(suite), indent=2) at the default rank: a
# refactor must leave every report byte-identical
GOLDEN_REPORTS = {
    "thm11": "a1f99685a5405cc93627e64b7e1cf1ddf7714fcef2a3e32d64620ea4894409f7",
    "thm16": "d433d34a38e11603a86e9d00cc10b3eb87eb7ca88d57adac5823e8ad614429ff",
    "thm18": "5e75491280d3e7c2bce882e905e71b83245ccbd1fe92448cb6dcf933b1004d38",
    "thm31": "f62062c50e39092922cc98603b55734bc6a2dd891630d4011e3075005cee55f4",
    "thm32": "6deba4a5bdf9d91de77440aa8f91c6bc6e00670a6ccf5a66fa02885c8059eec5",
    "thm33": "ace92327d4861ade8353e4e35706f585e31f317f1cbec1674dbe096af0a8a104",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden_digest(suite):
    text = json.dumps(run_suite(suite), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[suite]
