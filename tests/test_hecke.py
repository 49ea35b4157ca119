import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecke_atlas import hecke, params, support
from hecke_atlas.hecke import (
    UNIT_KINDS,
    HeckeFactor,
    SpecialRow,
    derived_rows,
    epsilon_multiplicity,
    factor_to_json_dict,
    hecke_descriptor,
    hecke_factor,
    sp_normalization,
    specialize,
    unipotent_reduction,
    unit_setting,
)
from hecke_atlas.params import LDSummand, build_ld_parameter, count_supercuspidals, normed_corpus, supercuspidal_corpus
from hecke_atlas.support import SupportDatum, supports
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


def so7_setting(inv):
    point = InertialPoint(inv["triv"], ONE)
    return build_ld_parameter(
        [LDSummand(point, 1, 6)], DualGroupDescriptor(Family.SYMPLECTIC, 6)
    )


def sp4_setting(inv):
    point = InertialPoint(inv["triv"], ONE)
    return build_ld_parameter(
        [LDSummand(point, 1, 5)], DualGroupDescriptor(Family.ORTHOGONAL, 5)
    )


def gl_setting(inv):
    return build_ld_parameter(
        [
            LDSummand(InertialPoint(inv["alpha"], ONE), 1, 3),
            LDSummand(InertialPoint(inv["beta"], ONE), 1, 3),
        ],
        DualGroupDescriptor(Family.ORTHOGONAL, 6),
    )


def test_hecke_factor_gl(extended_inventory):
    f = hecke_factor(gl_setting(extended_inventory), SupportDatum(()), "alpha")
    assert f.family == "GL" and f.size == 3 and f.internal == f.end_long == f.end_short
    assert f.internal == Fraction(1)


def test_hecke_factor_names_a_label_that_is_no_orbit_representative(extended_inventory):
    phi0 = gl_setting(extended_inventory)
    for label in ("beta", "triv"):
        with pytest.raises(ValueError, match=f"'{label}' labels no orbit representative"):
            hecke_factor(phi0, SupportDatum(()), label)


def test_hecke_factor_names_an_orbit_the_support_omits():
    with pytest.raises(ValueError, match="support has no staircase depths for orbit '1'"):
        hecke_factor(unit_setting("so_odd", 3), SupportDatum(()), "1")


def test_hecke_factor_so7_case3(extended_inventory):
    phi0 = so7_setting(extended_inventory)
    f = hecke_factor(phi0, SupportDatum((("triv", (1, 0)),)), "triv")
    assert (f.family, f.size) == ("SO", 5)
    assert (f.internal, f.end_long, f.end_short) == (1, 2, 1)


def test_hecke_factor_sp4_case3(extended_inventory):
    phi0 = sp4_setting(extended_inventory)
    f = hecke_factor(phi0, SupportDatum((("triv", (1, 0)),)), "triv")
    assert (f.family, f.size) == ("SO", 5)
    assert (f.internal, f.end_long, f.end_short) == (1, 1, 1)
    assert f.internal == f.end_long == f.end_short


def test_hecke_factor_case2(extended_inventory):
    phi0 = build_ld_parameter(
        [LDSummand(InertialPoint(extended_inventory["triv"], ONE), 1, 4)],
        DualGroupDescriptor(Family.ORTHOGONAL, 4),
    )
    f = hecke_factor(phi0, SupportDatum((("triv", (0, 0)),)), "triv")
    assert (f.family, f.size, f.extended) == ("SO", 4, True)
    assert f.internal == f.end_long == f.end_short


def test_sp_normalization(extended_inventory):
    phi0 = so7_setting(extended_inventory)
    f = hecke_factor(phi0, SupportDatum((("triv", (0, 0)),)), "triv")
    assert (f.family, f.size, f.end_short) == ("SO", 7, 0)
    g = sp_normalization(f)
    assert (g.family, g.size) == ("Sp", 6)
    assert g.internal == g.end_long == g.end_short and g.internal == 1
    # identity on anything else
    h = hecke_factor(phi0, SupportDatum((("triv", (1, 0)),)), "triv")
    assert sp_normalization(h) == h
    gl = HeckeFactor("GL", 3, False, 2, Fraction(2), Fraction(2), Fraction(2))
    assert sp_normalization(gl) == gl


def test_case3_odd_size_everywhere(extended_inventory):
    for phi0 in (so7_setting(extended_inventory), sp4_setting(extended_inventory)):
        for S in supports(phi0):
            f = hecke_factor(phi0, S, "triv")
            if not f.extended and f.family == "SO":
                assert f.size % 2 == 1


def test_specialize_so_odd_d2():
    rows = specialize("so_odd", 2)
    pairs = {r.pair for r in rows}
    assert pairs == {(0, 0), (2, 0), (0, 2), (2, 2)}
    buckets = {r.pair: r.bucket for r in rows}
    assert buckets == {(0, 0): 1, (2, 2): 1, (2, 0): -1, (0, 2): -1}
    row = next(r for r in rows if r.pair == (2, 0))
    assert (row.factor.family, row.factor.size) == ("SO", 3)
    assert (row.factor.end_long, row.factor.end_short) == (2, 1)
    zero = next(r for r in rows if r.pair == (0, 0))
    assert (zero.factor.family, zero.factor.size) == ("Sp", 4)


def test_specialize_sp_d2():
    rows = specialize("sp", 2)
    assert {r.pair for r in rows} == {(1, 0), (0, 1), (4, 1), (1, 4)}
    assert all(r.multiplicity == 2 and r.bucket == 0 for r in rows)


def test_specialize_unitary_m5():
    rows = specialize("unitary", 5)
    pairs = {r.pair for r in rows}
    assert pairs == {(1, 0), (1, 2)}
    for r in rows:
        assert r.multiplicity == 1 and r.bucket in (1, -1)
    f = next(r.factor for r in rows if r.pair == (1, 0))
    assert (f.family, f.size) == ("SO", 5)
    assert (f.end_long, f.end_short) == (Fraction(3, 2), Fraction(1, 2))


def test_specialize_unitary_even_zero_pair():
    rows = specialize("unitary", 4)
    zero = next(r for r in rows if r.pair == (0, 0))
    assert (zero.factor.family, zero.factor.size) == ("SO", 5)
    assert zero.factor.end_long == zero.factor.end_short == Fraction(1, 2)
    assert zero.multiplicity == 1 and zero.bucket == 1


def test_epsilon_multiplicity_table():
    assert epsilon_multiplicity(4, 4, 1) == 4
    assert epsilon_multiplicity(4, 4, -1) == 0
    assert epsilon_multiplicity(0, 0, 1) == 1
    assert epsilon_multiplicity(0, 0, -1) == 0
    assert epsilon_multiplicity(4, 0, 1) == 0
    assert epsilon_multiplicity(4, 0, -1) == 2
    assert epsilon_multiplicity(1, 1, 1) == 2
    assert epsilon_multiplicity(1, 1, -1) == 2
    assert epsilon_multiplicity(16, 0, 1) == 2
    assert epsilon_multiplicity(16, 0, -1) == 0
    with pytest.raises(ValueError):
        epsilon_multiplicity(3, 0, 1)


def derived_cells(kind, rank):
    """(S, epsilon) counts per table cell (pair, eps_Z), summed over factors."""
    cells = {}
    for pair, _factor, eps_Z, n in derived_rows(kind, rank):
        cells[pair, eps_Z] = cells.get((pair, eps_Z), 0) + n
    return cells


def test_derived_multiplicity_examples():
    so_odd, sp, o_even = (derived_cells(kind, 2) for kind in ("so_odd", "sp", "o_even"))
    assert so_odd.get(((2, 0), -1), 0) == 1
    assert so_odd.get(((2, 0), 1), 0) == 0
    assert sp.get(((1, 0), 1), 0) + sp.get(((1, 0), -1), 0) == 2
    assert o_even.get(((0, 0), 1), 0) == 1
    assert o_even.get(((0, 0), -1), 0) == 0


def test_derived_matches_epsilon_for_nonzero_products():
    for kind, rank in (("sp", 3), ("o_even", 3)):
        cells = derived_cells(kind, rank)
        for pair in {r.pair for r in specialize(kind, rank)}:
            if pair[0] * pair[1] == 0:
                continue
            for sign in (1, -1):
                assert cells.get((pair, sign), 0) == epsilon_multiplicity(*pair, sign)


def test_derived_rows_match_so_odd_table():
    for d in range(1, 5):
        rows = derived_rows("so_odd", d)
        assert rows and all(isinstance(r, SpecialRow) for r in rows)
        table = {(r.pair, r.factor, r.bucket): r.multiplicity for r in specialize("so_odd", d)}
        assert {(r.pair, r.factor, r.bucket): r.multiplicity for r in rows} == table


def test_unit_setting_shapes():
    phi0 = unit_setting("unitary", 4)
    assert phi0.ambient.family is Family.UNITARY_L
    assert sum(s.dim for s in phi0.summands) == 4
    with pytest.raises(ValueError):
        unit_setting("nope", 2)


def test_unipotent_reduction(extended_inventory):
    inv = extended_inventory
    phi0 = build_ld_parameter(
        [
            LDSummand(InertialPoint(inv["alpha"], ONE), 1, 3),
            LDSummand(InertialPoint(inv["beta"], ONE), 1, 3),
            LDSummand(InertialPoint(inv["triv"], ONE), 1, 5),
            LDSummand(InertialPoint(inv["rho_mix"], ONE), 1, 2),
        ],
        DualGroupDescriptor(Family.ORTHOGONAL, 15),
    )
    assert unipotent_reduction(phi0) == [("GL", 3, 1), ("Sp", 4, 1), ("U", 2, 1)]
    # not-of-type orbits give an odd orthogonal group
    phi1 = so7_setting(inv)
    assert unipotent_reduction(phi1) == [("SO", 7, 1)]
    # both of type with even multiplicity
    phi2 = build_ld_parameter(
        [LDSummand(InertialPoint(inv["triv"], ONE), 1, 4)],
        DualGroupDescriptor(Family.ORTHOGONAL, 4),
    )
    assert unipotent_reduction(phi2) == [("O", 4, 1)]


def test_descriptor_and_json(extended_inventory):
    phi0 = so7_setting(extended_inventory)
    S = SupportDatum((("triv", (1, 0)),))
    desc = hecke_descriptor(phi0, S)
    assert [label for label, _ in desc] == ["triv"]
    data = factor_to_json_dict(desc[0][1])
    assert data == {
        "family": "SO",
        "size": 5,
        "extended": False,
        "t": 1,
        "internal": "2/2",
        "endLong": "4/2",
        "endShort": "2/2",
    }


def reference_factor(m, t, types, a_plus, a_minus):
    """The unequal-parameter factor with its exponents built in Fractions."""
    plus_type, minus_type = types
    if plus_type and minus_type and a_plus == 0 and a_minus == 0:
        return HeckeFactor("SO", m, True, t, Fraction(t), Fraction(t), Fraction(t))
    kappa_plus = 0 if plus_type else 1
    kappa_minus = 0 if minus_type else 1
    m_pm = a_plus * (a_plus + kappa_plus) + a_minus * (a_minus + kappa_minus)
    size = m - m_pm + 1
    if size % 2 != 1:
        raise ValueError("odd-rank invariant violated in the unequal-parameter case")
    long = Fraction(t) * (a_plus + a_minus + Fraction(kappa_plus + kappa_minus, 2))
    short = Fraction(t) * abs(a_plus - a_minus + Fraction(kappa_plus - kappa_minus, 2))
    return HeckeFactor("SO", size, False, t, Fraction(t), long, short)


@given(
    t=st.integers(1, 4),
    types=st.tuples(st.booleans(), st.booleans()),
    a_plus=st.integers(0, 5),
    a_minus=st.integers(0, 5),
    spare=st.integers(0, 5),
)
def test_hecke_factor_matches_the_fraction_formula(t, types, a_plus, a_minus, spare):
    # the orbit's multiplicity m covers both staircases, with ``spare`` left over
    kinds = [DualityType.ORTHOGONAL if of_type else DualityType.SYMPLECTIC for of_type in types]
    cls = InertialClass("c", 1, t, SelfDual(*kinds), "1")
    m = max(1, sum(a * (a + (not of_type)) for a, of_type in zip((a_plus, a_minus), types)) + spare)
    phi0 = build_ld_parameter(
        [LDSummand(InertialPoint(cls, ONE), 1, m)], DualGroupDescriptor(Family.ORTHOGONAL, m)
    )
    assert phi0.orbits[0].types == types
    S = SupportDatum((("c", (a_plus, a_minus)),))
    try:
        expected = reference_factor(m, t, types, a_plus, a_minus)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            hecke_factor(phi0, S, "c")
        return
    got = hecke_factor(phi0, S, "c")
    assert got == expected and repr(got) == repr(expected)
    assert all(type(e) is Fraction for e in (got.internal, got.end_long, got.end_short))


def test_hecke_descriptor_matches_the_reference_factors_on_the_normed_corpus():
    count = 0
    for phi0 in normed_corpus(standard_inventory(), 10):
        for S in supports(phi0):
            depths = dict(S.entries)
            expected = []
            for o in phi0.orbits:
                m, t = o.multiplicity, o.cls.torsion
                if o.types is None:
                    factor = HeckeFactor("GL", m, False, t, Fraction(t), Fraction(t), Fraction(t))
                else:
                    factor = reference_factor(m, t, o.types, *depths[o.cls.label])
                expected.append((o.cls.label, factor))
            got = hecke_descriptor(phi0, S)
            assert got == tuple(expected) and repr(got) == repr(tuple(expected))
            count += 1
    assert count > 1000


def _derived_road_reached(*args, **kwargs):
    raise RuntimeError("derived road reached")


def _rebind(monkeypatch, originals, replacement):
    """Rebind, in every loaded package module, each name bound to one of
    ``originals``; return the names of the modules patched."""
    patched = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("hecke_atlas"):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, attr, replacement)
                patched.add(name)
    return patched


@pytest.mark.parametrize(
    "broken", ["staircase", "self_dual_factor", "orbit_by_label", "derived_hecke_road", "unit_ambients"]
)
def test_closed_form_road_does_not_reach_the_derived_road(monkeypatch, broken):
    # thm31-33 compare specialize against derived_rows, and thm11/thm32 the
    # closed counts (count_supercuspidals, epsilon_multiplicity) against the
    # derived road, so no closed form may call into it: with any one piece of
    # the derived road broken, each closed form gives what it gave before and
    # derived_rows fails for every kind
    tables = {(kind, r): specialize(kind, r) for kind in UNIT_KINDS for r in range(1, 7)}
    eps = {(dp, dm, s): epsilon_multiplicity(dp, dm, s) for dp in (0, 1, 4, 9) for dm in (0, 1, 4, 9) for s in (1, -1)}
    corpus = supercuspidal_corpus(standard_inventory(), 6)
    counts = [(count_supercuspidals(phi, 1), count_supercuspidals(phi, -1)) for phi in corpus]

    if broken == "staircase":
        patched = _rebind(monkeypatch, [params.staircase], _derived_road_reached)
        assert {"hecke_atlas.params", "hecke_atlas.support", "hecke_atlas.hecke"} <= patched
    elif broken == "self_dual_factor":  # the cached Hecke factor core
        monkeypatch.setattr(hecke, "_self_dual_factor", _derived_road_reached)
    elif broken == "orbit_by_label":
        monkeypatch.setattr(params.LDParameter, "orbit_by_label", property(_derived_road_reached))
    elif broken == "derived_hecke_road":
        originals = [hecke.hecke_factor, hecke.sp_normalization, support._epsilons, support.cuspidal_pairs]
        _rebind(monkeypatch, originals, _derived_road_reached)
    else:  # the dual ambients that unit_setting reads
        _rebind(monkeypatch, [hecke.UNIT_AMBIENTS], dict.fromkeys(UNIT_KINDS, _derived_road_reached))

    assert {(k, r): specialize(k, r) for k, r in tables} == tables
    assert {key: epsilon_multiplicity(*key) for key in eps} == eps
    assert [(count_supercuspidals(phi, 1), count_supercuspidals(phi, -1)) for phi in corpus] == counts
    for kind in UNIT_KINDS:
        with pytest.raises(RuntimeError, match="derived road reached"):
            derived_rows(kind, 2)
