import inspect
import subprocess
import sys

import pytest

from hecke_atlas import CheckError, support
from hecke_atlas.params import (
    LDSummand,
    SignCharacter,
    alternating_characters,
    build_ld_parameter,
    is_discrete,
    normed_corpus,
    parameter_to_json_dict,
    supercuspidal_corpus,
)
from hecke_atlas.support import (
    SupportDatum,
    build_phi_S,
    cuspidal_pairs,
    injectivity_report,
    supports,
)
from hecke_atlas.verify import standard_inventory
from hecke_atlas.weil import (
    ONE,
    DualGroupDescriptor,
    DualityType,
    Family,
    InertialClass,
    InertialPoint,
    SelfDual,
)


def triv_parameter(inv, family, dim):
    ambient = DualGroupDescriptor(family, dim)
    point = InertialPoint(inv["triv"], ONE)
    return build_ld_parameter([LDSummand(point, 1, dim)], ambient)


@pytest.fixture
def so7_setting(extended_inventory):
    # dual side Sp_6, six copies of the trivial character
    return triv_parameter(extended_inventory, Family.SYMPLECTIC, 6)


@pytest.fixture
def sp4_setting(extended_inventory):
    # dual side SO_5, five copies of the trivial character
    return triv_parameter(extended_inventory, Family.ORTHOGONAL, 5)


def depth_pairs(data):
    return sorted(dict(d.entries)["triv"] for d in data)


def test_supports_so7(so7_setting):
    assert depth_pairs(supports(so7_setting)) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_supports_sp4(sp4_setting):
    assert depth_pairs(supports(sp4_setting)) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_supports_empty(extended_inventory):
    inv = extended_inventory
    g2 = DualGroupDescriptor(Family.ORTHOGONAL, 2)
    phi0 = build_ld_parameter(
        [
            LDSummand(InertialPoint(inv["alpha"], ONE), 1),
            LDSummand(InertialPoint(inv["beta"], ONE), 1),
        ],
        g2,
    )
    data = supports(phi0)
    assert len(data) == 1
    assert data[0].entries == ()


def test_supports_rejects_unnormed(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [LDSummand(InertialPoint(inv["triv"], ONE), 2)],
        DualGroupDescriptor(Family.SYMPLECTIC, 2),
    )
    with pytest.raises(ValueError):
        supports(phi)


def test_build_phi_S_so7(so7_setting):
    S = SupportDatum((("triv", (1, 0)),))
    phi_S, L_S, l_S, d_S = build_phi_S(so7_setting, S)
    assert L_S == 2 and l_S == 1 and d_S == 1
    assert [(s.point.cls.label, s.sl2_dim) for s in phi_S.summands] == [("triv", 2)]
    assert is_discrete(phi_S)


def test_build_phi_S_sp4(sp4_setting):
    S = SupportDatum((("triv", (1, 0)),))
    phi_S, L_S, l_S, d_S = build_phi_S(sp4_setting, S)
    assert L_S == 1 and l_S == 0 and d_S == 1
    assert [(s.point.cls.label, s.sl2_dim) for s in phi_S.summands] == [("triv", 1)]


def test_build_phi_S_minus_point_flips_det(so7_setting, extended_inventory):
    S = SupportDatum((("triv", (0, 1)),))
    phi_S, L_S, l_S, d_S = build_phi_S(so7_setting, S)
    assert L_S == 2 and d_S == 1  # f=-1 with sl2-dim 2 contributes (-1)**2
    S2 = SupportDatum((("triv", (0, 1)),))
    phi_S2, L_S2, _, d_S2 = build_phi_S(sp4_setting_param(extended_inventory), S2)
    assert L_S2 == 1
    assert d_S2 == -1  # f=-1 with sl2-dim 1 contributes (-1)**1


def sp4_setting_param(inv):
    return triv_parameter(inv, Family.ORTHOGONAL, 5)


def test_build_phi_S_all_zero(so7_setting):
    S = SupportDatum((("triv", (0, 0)),))
    phi_S, L_S, l_S, d_S = build_phi_S(so7_setting, S)
    assert phi_S.summands == () and L_S == 0 and l_S == 0 and d_S == 1


def test_build_phi_S_rejects_bad_support(so7_setting):
    with pytest.raises(ValueError):
        build_phi_S(so7_setting, SupportDatum((("triv", (3, 0)),)))


def test_build_phi_S_names_a_label_that_is_no_self_dual_orbit(extended_inventory):
    inv = extended_inventory
    phi0 = build_ld_parameter(
        [LDSummand(InertialPoint(inv[label], ONE), 1, 2) for label in ("alpha", "beta", "triv")],
        DualGroupDescriptor(Family.ORTHOGONAL, 6),
    )
    for label in ("alpha", "beta", "a"):  # a dual pair, its partner side, a class phi0 lacks
        with pytest.raises(ValueError, match=f"support names '{label}', which labels no self-dual orbit"):
            build_phi_S(phi0, SupportDatum(((label, (0, 0)),)))


def power_parameter(cls, m):
    """``m`` copies of the base point of ``cls``, filling an orthogonal ambient."""
    point = InertialPoint(cls, ONE)
    return build_ld_parameter([LDSummand(point, 1, m)], DualGroupDescriptor(Family.ORTHOGONAL, m * cls.dim))


def test_the_tail_memo_tells_classes_of_one_label_apart():
    # the tail is built once per process; its key holds the classes by value, not by label
    O, Sp = DualityType.ORTHOGONAL, DualityType.SYMPLECTIC
    base = InertialClass("c", 1, 1, SelfDual(O, O), "1")
    others = [
        InertialClass("c", 2, 1, SelfDual(O, O), "1"),
        InertialClass("c", 1, 1, SelfDual(O, Sp), "1"),
        InertialClass("c", 1, 1, SelfDual(O, O), "eta"),
        InertialClass("c", 1, 2, SelfDual(O, O), "1"),
    ]
    S = SupportDatum((("c", (1, 0)),))
    first = build_phi_S(power_parameter(base, 3), S)
    for cls in others:
        phi_S, L_S, l_S, _ = build_phi_S(power_parameter(cls, 3), S)
        point = InertialPoint(cls, ONE)
        expected = build_ld_parameter([LDSummand(point, 1)], DualGroupDescriptor(Family.ORTHOGONAL, cls.dim))
        assert phi_S == expected != first[0]
        assert (L_S, l_S) == (cls.dim, cls.dim // 2)
        assert build_phi_S(power_parameter(cls, 3), S)[0] is phi_S
    assert build_phi_S(power_parameter(base, 3), S) == first
    assert build_phi_S(power_parameter(base, 3), S)[0] is first[0]
    # an orbit of depths (0, 0) adds nothing, so the tail is the same one
    other = InertialClass("d", 1, 1, SelfDual(O, O), "1")
    phi0 = build_ld_parameter(
        [LDSummand(InertialPoint(base, ONE), 1, 3), LDSummand(InertialPoint(other, ONE), 1, 2)],
        DualGroupDescriptor(Family.ORTHOGONAL, 5),
    )
    assert build_phi_S(phi0, SupportDatum((("c", (1, 0)), ("d", (0, 0)))))[0] is first[0]


def test_a_cached_tail_does_not_lift_the_bound_or_parity_check():
    cls = InertialClass("c", 1, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL), "1")
    S = SupportDatum((("c", (2, 0)),))  # staircase dims 1 and 3: cost 4
    phi_S, L_S, _, _ = build_phi_S(power_parameter(cls, 4), S)
    assert [s.sl2_dim for s in phi_S.summands] == [1, 3] and L_S == 4
    for m in (1, 2, 3, 5):  # cost above m, or of the other parity
        with pytest.raises(ValueError, match="support violates the bound or parity at orbit 'c'"):
            build_phi_S(power_parameter(cls, m), S)
    assert build_phi_S(power_parameter(cls, 6), S)[0] is phi_S


def levi_of(phi0, S):
    """The one Levi ``(gl_factors, tail, tail rank)`` that ``cuspidal_pairs``
    reports for the support ``S``."""
    (levi,) = {(p.gl_factors, p.phi_S.ambient, p.l_S) for p in cuspidal_pairs(phi0) if p.S == S}
    return levi


def test_build_levi_so7(so7_setting):
    gl_factors, tail, tail_rank = levi_of(so7_setting, SupportDatum((("triv", (1, 0)),)))
    assert gl_factors == ((1, 2),)
    assert tail.family is Family.SYMPLECTIC and tail.ambient_dim == 2
    assert tail_rank == 1


def test_build_levi_full_support(sp4_setting):
    gl_factors, tail, tail_rank = levi_of(sp4_setting, SupportDatum((("triv", (2, 1)),)))
    assert gl_factors == ()
    assert tail.ambient_dim == 5 and tail_rank == 2


def test_build_levi_non_self_dual(extended_inventory):
    inv = extended_inventory
    g6 = DualGroupDescriptor(Family.ORTHOGONAL, 6)
    phi0 = build_ld_parameter(
        [
            LDSummand(InertialPoint(inv["alpha"], ONE), 1, 3),
            LDSummand(InertialPoint(inv["beta"], ONE), 1, 3),
        ],
        g6,
    )
    gl_factors, tail, _ = levi_of(phi0, SupportDatum(()))
    assert gl_factors == ((1, 3),)
    assert tail.ambient_dim == 0


def test_cuspidal_pairs_so7(so7_setting):
    records = cuspidal_pairs(so7_setting)
    assert len(records) == 6
    assert sum(len(p.epsilons) for p in records) == 6  # one alternating character per support
    report = injectivity_report(records)
    assert report["duplicates"] == [] and report["flagged"] == []
    assert report["injective_outside_flagged"]


def test_cuspidal_pairs_sp4(sp4_setting):
    records = cuspidal_pairs(sp4_setting)
    # depth-1 supports carry 2 characters, depth-(2,1) supports carry 4
    counts = {}
    for p in records:
        depths = dict(p.S.entries)["triv"]
        counts[depths] = counts.get(depths, 0) + len(p.epsilons)
    assert counts == {(1, 0): 2, (0, 1): 2, (2, 1): 4, (1, 2): 4}
    pairs = [p for p in records for _ in p.epsilons]
    assert len(pairs) == 12
    report = injectivity_report(records)
    assert report["total"] == 12 and report["duplicates"] == []
    # the rank-zero tails with two surviving characters are flagged
    flagged_supports = {dict(pairs[i].S.entries)["triv"] for i in report["flagged"]}
    assert flagged_supports == {(1, 0), (0, 1)}
    assert report["injective_outside_flagged"]


def test_L_S_parity(so7_setting, sp4_setting):
    for phi0 in (so7_setting, sp4_setting):
        for S in supports(phi0):
            _, L_S, _, _ = build_phi_S(phi0, S)
            assert L_S % 2 == phi0.ambient.ambient_dim % 2


def support_to_json_dict(p, epsilon) -> dict:
    """The pair of support ``p`` and its character ``epsilon``: the reference
    dict that the ``supports`` writer is pinned to (tests/test_cli.py)."""
    tail = p.phi_S.ambient
    return {
        "S": {label: list(pair) for label, pair in p.S.entries},
        "phiS": parameter_to_json_dict(p.phi_S),
        "LS": tail.ambient_dim,
        "lS": p.l_S,
        "dS": "+" if p.d_S == 1 else "-",
        "levi": {
            "gl": [list(f) for f in p.gl_factors],
            "tail": {"family": tail.family.value, "dim": tail.ambient_dim, "rank": p.l_S},
        },
        "epsilon": {gen: v for gen, v in epsilon.values},
        "epsZ": epsilon.eps_Z,
    }


def test_support_json(so7_setting):
    pairs = cuspidal_pairs(so7_setting)
    data = support_to_json_dict(pairs[1], pairs[1].epsilons[0])
    assert set(data) == {"S", "phiS", "LS", "lS", "dS", "levi", "epsilon", "epsZ"}
    assert data["dS"] in "+-"
    assert data["levi"]["tail"]["family"] == "symplectic"


def test_cuspidal_pairs_builds_each_tail_once(extended_inventory, monkeypatch):
    inv = extended_inventory
    ambient = DualGroupDescriptor(Family.ORTHOGONAL, 7)
    phi0 = build_ld_parameter(
        [
            LDSummand(InertialPoint(inv["triv"], ONE), 1, 3),
            LDSummand(InertialPoint(inv["a"], ONE), 1, 2),
        ],
        ambient,
    )
    calls = []

    def counted(*args):
        calls.append(args[1])
        return build_phi_S(*args)

    monkeypatch.setattr(support, "build_phi_S", counted)
    data = supports(phi0)
    assert len(data) > 1 and len({label for S in data for label, _ in S.entries}) == 2
    pairs = cuspidal_pairs(phi0)
    assert calls == data
    # each GL block and its dual plus the tail fill the ambient
    assert all(2 * sum(d * k for d, k in p.gl_factors) + p.phi_S.ambient.ambient_dim == 7 for p in pairs)


def flattened_tails(phi0, S):
    """``build_phi_S`` with each tail summand ``p (x) sp(a)`` replaced by ``a``
    copies of ``p``: a staircase of even steps is then no staircase at all."""
    phi_S, L_S, l_S, d_S = build_phi_S(phi0, S)
    flat = [LDSummand(s.point, 1, s.sl2_dim * s.multiplicity) for s in phi_S.summands]
    return build_ld_parameter(flat, phi_S.ambient), L_S, l_S, d_S


def test_a_tail_of_the_wrong_shape_fails_the_check(so7_setting, monkeypatch):
    # every tail of Sp_6 with six trivial characters is a staircase of even steps
    monkeypatch.setattr(support, "build_phi_S", flattened_tails)
    with pytest.raises(CheckError, match="tail parameter is not of supercuspidal shape"):
        cuspidal_pairs(so7_setting)


def test_the_tail_shape_check_survives_optimized_mode(src_env):
    script = "\n".join(
        [
            "import sys",
            "from hecke_atlas import CheckError, support",
            "from hecke_atlas.params import LDSummand, build_ld_parameter",
            "from hecke_atlas.support import build_phi_S",
            "from hecke_atlas.verify import standard_inventory",
            "from hecke_atlas.weil import ONE, DualGroupDescriptor, Family, InertialPoint",
            inspect.getsource(triv_parameter),
            inspect.getsource(flattened_tails),
            "support.build_phi_S = flattened_tails",
            "try:",
            "    support.cuspidal_pairs(triv_parameter(standard_inventory(), Family.SYMPLECTIC, 6))",
            "except CheckError as exc:",
            "    print(sys.flags.optimize, exc)",
        ]
    )
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env(), check=True)
    assert done.stdout == "1 tail parameter is not of supercuspidal shape\n"


def summed_levi(phi0, phi_S, L_S, l_S):
    """The Levi ``(gl_factors, tail, tail rank)``, each orbit's tail share
    summed over the tail's summands."""
    gl = []
    for orbit in phi0.orbits:
        cls, m = orbit.cls, orbit.multiplicity
        if orbit.types is None:
            gl.append((cls.dim, m))
            continue
        m_pm = sum(s.sl2_dim * s.multiplicity for s in phi_S.summands if s.point.cls.label == cls.label)
        if (m - m_pm) % 2 != 0:
            raise ValueError(f"non-integral GL multiplicity at orbit {cls.label!r}")
        if m > m_pm:
            gl.append((cls.dim, (m - m_pm) // 2))
    gl.sort()
    return tuple(gl), DualGroupDescriptor(phi0.ambient.family, L_S), l_S


def test_each_levi_matches_the_summed_tail_shares():
    count = 0
    for phi0 in normed_corpus(standard_inventory(), 10):
        for p in cuspidal_pairs(phi0):
            tail = p.phi_S.ambient
            assert (p.gl_factors, tail, p.l_S) == summed_levi(phi0, p.phi_S, tail.ambient_dim, p.l_S)
            count += 1
    assert count > 1000


def test_each_tail_is_the_shared_cuspidal_shape_of_the_corpus():
    # thm11 counts the same parameters that thm16's tails are, so both reach one object per shape
    corpus = supercuspidal_corpus(standard_inventory(), 8)
    shapes = {phi: phi for phi in corpus}
    assert len(shapes) == len(corpus)
    count = 0
    for phi0 in normed_corpus(standard_inventory(), 8):
        for p in cuspidal_pairs(phi0):
            if p.phi_S.summands:
                assert shapes[p.phi_S] is p.phi_S
                count += 1
    assert count == 855 - 76  # the supports of all depths zero have the empty tail


def reference_pairs(phi0, characters=lambda chars: chars):
    """The flat pairs ``(S, phi_S, L_S, l_S, d_S, levi, epsilon)`` as the
    per-pair loop lists them, each tail's characters passed through ``characters``."""
    out = []
    for S in supports(phi0):
        phi_S, L_S, l_S, d_S = build_phi_S(phi0, S)
        levi = summed_levi(phi0, phi_S, L_S, l_S)
        chars = alternating_characters(phi_S) if phi_S.summands else [SignCharacter(())]
        out.extend((S, phi_S, L_S, l_S, d_S, levi, eps) for eps in characters(chars))
    return out


def reference_injectivity_report(pairs):
    """``injectivity_report`` on flat pairs, counting each support's characters."""
    by_key, eps_count = {}, {}
    for i, (S, phi_S, _, _, _, levi, eps) in enumerate(pairs):
        by_key.setdefault((levi, phi_S, eps), []).append(i)
        eps_count[S.entries] = eps_count.get(S.entries, 0) + 1
    duplicates = [idx for idx in by_key.values() if len(idx) > 1]
    flagged = [i for i, (S, _, _, l_S, *_) in enumerate(pairs) if l_S == 0 and eps_count[S.entries] > 1]
    return {
        "total": len(pairs),
        "duplicates": duplicates,
        "flagged": flagged,
        "injective_outside_flagged": not any(set(idx) - set(flagged) for idx in duplicates),
    }


def flattened(records):
    """The records as ``reference_pairs`` lists them, the Levi in full."""
    out = []
    for p in records:
        tail = p.phi_S.ambient
        levi = (p.gl_factors, tail, p.l_S)
        out.extend((p.S, p.phi_S, tail.ambient_dim, p.l_S, p.d_S, levi, eps) for eps in p.epsilons)
    return out


def first_repeated(chars):
    return [chars[0]] * len(chars)


def test_the_records_flatten_to_the_per_pair_loop(monkeypatch):
    corpus = normed_corpus(standard_inventory(), 8)
    n_supports = n_pairs = n_flagged = 0
    for phi0 in corpus:
        records = cuspidal_pairs(phi0)
        pairs = reference_pairs(phi0)
        assert flattened(records) == pairs
        assert injectivity_report(records) == reference_injectivity_report(pairs)
        n_supports += len(records)
        n_pairs += len(pairs)
        n_flagged += sum(p.l_S == 0 and len(p.epsilons) > 1 for p in records)
    assert (len(corpus), n_supports, n_pairs, n_flagged) == (306, 855, 2354, 38)

    # every support keeps its number of characters, but they all coincide
    monkeypatch.setattr(support, "_epsilons", lambda phi_S, epsilons=support._epsilons: first_repeated(epsilons(phi_S)))
    duplicated = 0
    for phi0 in corpus:
        records = cuspidal_pairs(phi0)
        pairs = reference_pairs(phi0, first_repeated)
        assert flattened(records) == pairs
        report = injectivity_report(records)
        assert report == reference_injectivity_report(pairs)
        duplicated += not report["injective_outside_flagged"]
    assert duplicated > 0
