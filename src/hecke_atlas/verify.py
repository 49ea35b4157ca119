"""Verification suites: each compares a closed form with an independent
oracle over an exhaustive corpus.  The parameter corpora come from
``hecke_atlas.params``.

A suite is one ``Suite`` record of ``SUITES``: ``inputs(rank)`` lists its
corpus up to a rank, ``cases(input)`` returns the report cases of one input,
each built by ``_case``, and the record gives the default, lowest and
largest rank.  ``run_suite(suite, max_rank)`` runs one suite at a rank (the
suite's default rank when None); a rank outside the suite's range raises
``ValueError`` before any work.  The report lists the cases of every input
in turn, each with its input, expected and actual values and a status (pass,
fail or flagged), followed by the count of each status.

To add a suite, write its ``inputs`` (or reuse one: thm16 and thm18 share
the normed corpus, lemA3 and lemA4 the Levis) and its ``cases`` here, add
its record with its ranks to ``SUITES``, add a mutation that it must fail to
``SUITE_MUTATIONS`` in ``tests/test_cli.py``, and pin its report in
``tests/pins.json``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, NamedTuple

from . import BRUTE_FORCE_CAP, MATRIX_DIM_CAP, CheckError
from .hecke import derived_rows, epsilon_multiplicity, hecke_descriptor, specialize
from .params import (
    alternating_characters,
    brute_force_supercuspidals,
    classical_ambients,
    count_supercuspidals,
    discrete_parameters,
    normed_corpus,
    normed_parameter,
    supercuspidal_corpus,
    t_invariants,
)
from .support import cuspidal_pairs, injectivity_report, supports
from .weil import DualityType, InertialClass, Inventory, NotSelfDual, SelfDual

# centralizer and weyl are imported by the three suites that use them, so a
# process that runs none of those never loads them


def standard_inventory() -> Inventory:
    """Six classes covering every duality-type combination."""
    inv = Inventory()
    inv.add(InertialClass("triv", 1, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL), "1"))
    inv.add(InertialClass("a", 2, 1, SelfDual(DualityType.SYMPLECTIC, DualityType.SYMPLECTIC), "1"))
    inv.add(InertialClass("rho_mix", 2, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.SYMPLECTIC), "eta"))
    inv.add(InertialClass("rho_mix2", 2, 2, SelfDual(DualityType.SYMPLECTIC, DualityType.ORTHOGONAL), "eta2"))
    inv.add(InertialClass("alpha", 1, 1, NotSelfDual("beta"), "alpha"))
    inv.add(InertialClass("beta", 1, 1, NotSelfDual("alpha"), "beta"))
    inv.validate()
    return inv


def _case(name: str, expected, actual, status: str | None = None) -> dict:
    if status is None:
        status = "pass" if expected == actual else "fail"
    return {"input": name, "expected": expected, "actual": actual, "status": status}


def _parameter_case_name(phi) -> str:
    """Family, dimension, then the generator labels."""
    return f"{phi.ambient.family.value}{phi.ambient.ambient_dim}:" + "+".join(phi.generator_labels())


def _orbit_case_name(phi0) -> str:
    return f"{phi0.ambient.family.value}{phi0.ambient.ambient_dim}:" + ",".join(
        f"{s.point.cls.label}^{s.multiplicity}" for s in phi0.summands
    )


def _levi_case_name(n: int, levi) -> str:
    return f"n={n}:blocks={','.join(map(str, levi.composition)) or '-'}:tail={levi.tail_rank}"


def _supercuspidal_inputs(max_rank: int):
    return supercuspidal_corpus(standard_inventory(), max_rank)


def _thm11_cases(phi) -> list[dict]:
    plus = count_supercuspidals(phi, 1)
    minus = count_supercuspidals(phi, -1)
    n_odd, n_even = t_invariants(phi)
    expected = {
        "plus": brute_force_supercuspidals(phi, 1),
        "minus": brute_force_supercuspidals(phi, -1),
        "total": len(alternating_characters(phi)),
    }
    actual = {"plus": plus, "minus": minus, "total": 2 ** (n_odd + n_even)}
    return [_case(_parameter_case_name(phi), expected, actual)]


def _normed_inputs(max_rank: int):
    return normed_corpus(standard_inventory(), max_rank)


def _thm16_cases(phi0) -> list[dict]:
    n = phi0.ambient.ambient_dim
    records = cuspidal_pairs(phi0)
    parities = sorted({p.phi_S.ambient.ambient_dim % 2 for p in records if p.epsilons})
    report = injectivity_report(records)
    ok = parities in ([], [n % 2]) and report["injective_outside_flagged"]
    status = "flagged" if ok and report["flagged"] else ("pass" if ok else "fail")
    expected = {"tail_parity": [n % 2] if report["total"] else [], "injective": True}
    actual = {"tail_parity": parities, "injective": report["injective_outside_flagged"]}
    return [_case(_orbit_case_name(phi0), expected, actual, status)]


def _thm18_cases(phi0) -> list[dict]:
    bad = [
        [label, f.size]
        for S in supports(phi0)
        for label, f in hecke_descriptor(phi0, S)
        if f.family == "SO" and not f.extended and f.size % 2 == 0
    ]
    return [_case(_orbit_case_name(phi0), {"even_rank_cases": []}, {"even_rank_cases": bad})]


def _thm31_cases(d: int) -> list[dict]:
    table, derived = (
        {(r.pair, r.factor, r.bucket): r.multiplicity for r in rows}
        for rows in (specialize("so_odd", d), derived_rows("so_odd", d))
    )
    same = table == derived
    return [
        _case(f"so-odd:d={d}", {"rows": len(table)}, {"rows": len(derived), "match": same}, "pass" if same else "fail")
    ]


def _thm32_inputs(max_rank: int):
    return [(kind, d) for kind in ("sp", "o_even") for d in range(1, max_rank + 1)]


def _thm32_cases(kind_d) -> list[dict]:
    kind, d = kind_d
    # (S, epsilon) counts per table cell (pair, eps_Z), summed over factors
    cells: Counter[tuple[tuple[int, int], int]] = Counter()
    for pair, _factor, eps_Z, n in derived_rows(kind, d):
        cells[pair, eps_Z] += n
    cases = []
    for pair in sorted({r.pair for r in specialize(kind, d)}):
        name = f"{kind}:d={d}:pair={pair[0]},{pair[1]}"
        if pair[0] * pair[1] == 0 and kind == "sp":
            # the uniform multiplicity-2 statement does not separate the
            # two sign buckets when one side of the support is empty
            derived = [cells[pair, s] for s in (1, -1)]
            cases.append(_case(name, {"documented": True}, {"derived": derived}, "flagged"))
        else:
            cases.append(
                _case(
                    name,
                    {str(s): epsilon_multiplicity(*pair, s) for s in (1, -1)},
                    {str(s): cells[pair, s] for s in (1, -1)},
                )
            )
    return cases


def _unitary_summary(rows, pair) -> dict:
    rows = [r for r in rows if r.pair == pair]
    return {
        "factors": sorted(str(r.factor) for r in rows),
        "total": sum(r.multiplicity for r in rows),
        "buckets": sorted([r.bucket, r.multiplicity] for r in rows),
    }


def _thm33_cases(m: int) -> list[dict]:
    table = specialize("unitary", m)
    derived = derived_rows("unitary", m)
    cases = []
    for pair in sorted({r.pair for r in (*table, *derived)}):
        expected, actual = _unitary_summary(table, pair), _unitary_summary(derived, pair)
        # bucket routing of the stated table disagrees, up to m = 14 only on
        # pairs with an empty side, from m = 16 also on two-sided pairs such
        # as (4, 12); the index set and sizes still match
        flagged = expected != actual and all(expected[k] == actual[k] for k in ("factors", "total"))
        cases.append(_case(f"u:m={m}:pair={pair[0]},{pair[1]}", expected, actual, "flagged" if flagged else None))
    return cases


def _discrete_inputs(max_rank: int):
    inv = standard_inventory()
    return (phi for ambient in classical_ambients(max_rank) for phi in discrete_parameters(inv, ambient))


def _thm26_matrix_cases(phi) -> list[dict]:
    from . import centralizer

    try:
        centralizer.check_matrices(phi)
        phi0 = normed_parameter(phi)
        round_trip = centralizer.triple_to_parameter(centralizer.parameter_to_triple(phi, phi0), phi0) == phi
        actual = {"matrix_checks": True, "round_trip": round_trip}
    except (CheckError, ValueError) as exc:
        actual = {"error": str(exc)}
    return [_case(_parameter_case_name(phi), {"matrix_checks": True, "round_trip": True}, actual)]


def _levi_inputs(max_rank: int):
    from . import weyl

    return ((n, levi) for n in range(1, max_rank + 1) for levi in weyl.enumerate_levis(n))


def _lemA3_cases(n_levi) -> list[dict]:
    """Equality of the two relative Weyl groups holds exactly when the Levi
    has a tail or only even blocks."""
    from . import weyl

    n, levi = n_levi
    predicted = levi.tail_rank >= 1 or all(k % 2 == 0 for k in levi.composition)
    return [_case(_levi_case_name(n, levi), {"equal": predicted}, {"equal": weyl.relative_weyl(levi, n).equal})]


def _lemA4_cases(n_levi) -> list[dict]:
    """Decorated version: equality fails exactly for tailless Levis carrying
    a self-dual orbit on an odd block; the semidirect splitting is also
    checked on every case.  A Levi with no blocks has no decoration."""
    from . import weyl

    n, levi = n_levi
    if not levi.composition:
        return []
    rel = weyl.relative_weyl(levi, n)
    cases = []
    for dec in weyl.enumerate_decorations(levi):
        st = weyl.orbit_stabilizers(dec, rel)
        odd_self_dual = any(k % 2 == 1 and sd for k, (_, sd) in zip(dec.composition, dec.decorations))
        predicted = dec.tail_rank >= 1 or not odd_self_dual
        name = _levi_case_name(n, dec) + ":dec=" + ";".join(
            f"{label}{'*' if sd else ''}" for label, sd in dec.decorations
        )
        cases.append(
            _case(name, {"equal": predicted, "semidirect": True}, {"equal": st.equal, "semidirect": st.semidirect_ok})
        )
    return cases


class Suite(NamedTuple):
    """One verification suite: ``inputs(rank)`` is its corpus up to a rank,
    ``cases(input)`` the report cases of one input, each built by ``_case``,
    and its ranks run from ``lowest`` to ``cap`` (None: unbounded).

    Both functions are defined in this module and look every library
    function up when called, in this module's globals or on the module
    ``centralizer`` or ``weyl``, never holding one: the tests patch
    ``verify.specialize`` and the like, and the benchmark's tracer rebinds
    module attributes."""

    inputs: Callable[[int], Iterable]
    cases: Callable[[Any], list[dict]]
    default_rank: int
    lowest: int = 1
    cap: int | None = None


SUITES: dict[str, Suite] = {
    "thm11": Suite(_supercuspidal_inputs, _thm11_cases, 9),
    "thm16": Suite(_normed_inputs, _thm16_cases, 6),
    "thm18": Suite(_normed_inputs, _thm18_cases, 6),
    "thm31": Suite(lambda rank: range(1, rank + 1), _thm31_cases, 6),
    "thm32": Suite(_thm32_inputs, _thm32_cases, 6),
    "thm33": Suite(lambda rank: range(2, rank + 1), _thm33_cases, 12, lowest=2),
    "thm26-matrix": Suite(_discrete_inputs, _thm26_matrix_cases, 10, cap=MATRIX_DIM_CAP),
    "lemA3": Suite(_levi_inputs, _lemA3_cases, 5, cap=BRUTE_FORCE_CAP),
    "lemA4": Suite(_levi_inputs, _lemA4_cases, 5, cap=BRUTE_FORCE_CAP),
}


def run_suite(suite: str, max_rank: int | None = None) -> dict:
    s = SUITES[suite]
    rank = s.default_rank if max_rank is None else max_rank
    if rank < 1:
        raise ValueError(f"{suite}: rank must be positive, got {rank}")
    if rank < s.lowest:
        raise ValueError(f"{suite}: ranks start at {s.lowest}, got {rank}")
    if s.cap is not None and rank > s.cap:
        raise ValueError(f"{suite}: rank capped at {s.cap}, got {rank}")
    cases = [c for x in s.inputs(rank) for c in s.cases(x)]
    counts = Counter(c["status"] for c in cases)
    return {
        "suite": suite,
        "cases": cases,
        "passed": counts["pass"],
        "failed": counts["fail"],
        "flagged": counts["flagged"],
    }
