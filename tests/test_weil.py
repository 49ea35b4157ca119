import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hecke_atlas.params import LDSummand, build_ld_parameter
from hecke_atlas.weil import (
    MINUS_ONE,
    ONE,
    DualGroupDescriptor,
    DualityType,
    Family,
    InertialClass,
    InertialPoint,
    Inventory,
    NotSelfDual,
    SelfDual,
    UnitMonomial,
    is_of_type,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
halves = st.integers(min_value=-8, max_value=8).map(lambda n: Fraction(n, 2))
monomials = st.builds(UnitMonomial, fractions, halves)


@given(monomials)
def test_monomial_inverse_round_trip(m):
    assert m * m.inverse() == ONE
    assert m.inverse().inverse() == m


@given(monomials, monomials)
def test_monomial_product_commutes(a, b):
    assert a * b == b * a


@given(monomials)
def test_monomial_root_normalized(m):
    assert 0 <= m.root < 1


def test_monomial_rejects_third_of_q_power():
    with pytest.raises(ValueError):
        UnitMonomial(Fraction(0), Fraction(1, 3))


raw_roots = st.integers(min_value=-30, max_value=30) | st.fractions(min_value=-7, max_value=7, max_denominator=24)


@given(raw_roots, halves, st.integers(min_value=-3, max_value=3))
def test_monomial_kernel_matches_fraction_definition(r, e, shift):
    """The integer kernel agrees with ``Fraction(r) % 1`` and the ``==``-based predicates."""
    root = Fraction(r) % 1
    first = UnitMonomial(r, e)
    for m in (first, UnitMonomial(str(r), str(e)), UnitMonomial(Fraction(r) + shift, e)):
        assert m.root == root and type(m.root) is Fraction and type(m.q_exponent) is Fraction
        assert m == first and hash(m) == hash(first)
    assert first.is_one == (root == 0 and e == 0)
    assert first.is_minus_one == (root == Fraction(1, 2) and e == 0)
    assert first.is_sign == (first.is_one or first.is_minus_one)
    if first.is_sign:
        assert first.sign == (1 if root == 0 else -1)
    else:
        with pytest.raises(ValueError):
            first.sign
    with pytest.raises(ValueError):
        UnitMonomial(r, e + Fraction(1, 3))


def test_shared_sign_constants():
    assert ONE == UnitMonomial(Fraction(0), Fraction(0))
    assert MINUS_ONE == UnitMonomial("-1/2", 0)


@given(monomials)
def test_monomial_json_round_trip(m):
    assert UnitMonomial.from_json_dict(m.to_json_dict()) == m


def test_monomial_json_shape():
    d = UnitMonomial(Fraction(1, 2), Fraction(3, 2)).to_json_dict()
    assert d == {"root": "1/2", "qexp": "3/2"}
    assert ONE.to_json_dict() == {"root": "0/1", "qexp": "0/2"}


def test_signs():
    assert ONE.sign == 1
    assert MINUS_ONE.sign == -1
    assert (MINUS_ONE * MINUS_ONE).is_one
    with pytest.raises(ValueError):
        UnitMonomial(Fraction(1, 4), 0).sign


def reference(root, qexp) -> tuple[Fraction, Fraction]:
    """The Fraction definition of a monomial: the root reduced into [0, 1)
    and the q-exponent, compared lexicographically."""
    return Fraction(root) % 1, Fraction(qexp)


def reference_str(root: Fraction, qexp: Fraction) -> str:
    if (root, qexp) == (0, 0):
        return "1"
    if (root, qexp) == (Fraction(1, 2), 0):
        return "-1"
    return f"zeta^({root})*q^({qexp})"


pairs = st.tuples(fractions, halves)


@given(pairs, pairs, st.integers(min_value=-7, max_value=7))
def test_integer_kernel_matches_fraction_reference(x, y, n):
    a, b = UnitMonomial(*x), UnitMonomial(*y)
    (ra, ea), (rb, eb) = reference(*x), reference(*y)
    assert (a.root, a.q_exponent) == (ra, ea)
    assert (type(a.root), type(a.q_exponent)) == (Fraction, Fraction)
    assert ((a * b).root, (a * b).q_exponent) == reference(ra + rb, ea + eb)
    assert (a.inverse().root, a.inverse().q_exponent) == reference(-ra, -ea)
    assert ((a**n).root, (a**n).q_exponent) == reference(ra * n, ea * n)
    key_a, key_b = (ra, ea), (rb, eb)
    assert (a == b, a != b) == (key_a == key_b, key_a != key_b)
    assert (a < b, a <= b, a > b, a >= b) == (key_a < key_b, key_a <= key_b, key_a > key_b, key_a >= key_b)
    assert str(a) == reference_str(ra, ea)
    assert repr(a) == f"UnitMonomial(root={ra!r}, q_exponent={ea!r})"
    assert a.to_json_dict() == {"root": f"{ra.numerator}/{ra.denominator}", "qexp": f"{int(2 * ea)}/2"}
    point = InertialPoint(small_inventory()["triv"], a)
    assert point.sort_key() == ("triv", ra.numerator, ra.denominator, ea.numerator, ea.denominator)


@given(st.lists(pairs, max_size=12))
def test_integer_kernel_sorts_like_fraction_reference(xs):
    ordered = sorted(UnitMonomial(*x) for x in xs)
    assert [(m.root, m.q_exponent) for m in ordered] == sorted(reference(*x) for x in xs)


@given(monomials)
def test_monomial_copies_round_trip_and_refuse_mutation(m):
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(twin) is UnitMonomial and twin == m and hash(twin) == hash(m)
        assert (twin.root, twin.q_exponent) == (m.root, m.q_exponent)
    for name in ("root", "q_exponent", "rn", "d", "e2"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
        with pytest.raises(AttributeError):
            delattr(m, name)


def test_monomial_compares_only_with_monomials():
    m = ONE
    assert m != (m.root, m.q_exponent) and m != 1
    with pytest.raises(TypeError):
        m < Fraction(1)


def test_inertial_values_hash_consistently_with_equality():
    tags = SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL)
    cls = InertialClass("triv", 1, 1, tags, "1")
    twin = InertialClass("triv", 1, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL), "1")
    wide = InertialClass("triv", 2, 1, tags, "1")
    assert cls == twin and hash(cls) == hash(twin)
    assert cls != wide and {cls: "narrow", wide: "wide"} == {twin: "narrow", wide: "wide"}
    f = UnitMonomial("1/3", "1/2")
    p, q = InertialPoint(cls, f), InertialPoint(twin, UnitMonomial("-2/3", "1/2"))
    assert p == q and hash(p) == hash(q)
    other = InertialPoint(wide, f)
    assert p != other and len({p: 0, other: 1}) == 2
    s, t = LDSummand(p, 2, 3), LDSummand(q, 2, 3)
    assert s == t and hash(s) == hash(t)
    assert len({s, t, LDSummand(other, 2, 3), LDSummand(p, 2, 1)}) == 3


def test_point_sort_key_puts_whole_q_powers_before_halves():
    cls = small_inventory()["triv"]
    whole, half = InertialPoint(cls, UnitMonomial(0, 1)), InertialPoint(cls, UnitMonomial(0, Fraction(1, 2)))
    assert (whole.sort_key(), half.sort_key()) == (("triv", 0, 1, 1, 1), ("triv", 0, 1, 1, 2))
    assert sorted([half, whole], key=InertialPoint.sort_key) == [whole, half]


# ---------------------------------------------------------------------------


def small_inventory():
    inv = Inventory()
    inv.add(InertialClass("triv", 1, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL), "1"))
    inv.add(InertialClass("a", 2, 1, SelfDual(DualityType.SYMPLECTIC, DualityType.SYMPLECTIC), "1"))
    inv.add(InertialClass("alpha", 1, 1, NotSelfDual("beta"), "alpha"))
    inv.add(InertialClass("beta", 1, 1, NotSelfDual("alpha"), "beta"))
    inv.validate()
    return inv


O2 = DualGroupDescriptor(Family.ORTHOGONAL, 2)


def test_dual_point_involution_self_dual():
    # the dual of a twisted self-dual point is its inverse on the same class
    inv = small_inventory()
    p = InertialPoint(inv["triv"], UnitMonomial(Fraction(1, 3), Fraction(1, 2)))
    q = InertialPoint(inv["triv"], p.f.inverse())
    with pytest.raises(ValueError, match="not closed under duality"):
        build_ld_parameter([LDSummand(p, 1, 2)], O2)
    phi = build_ld_parameter([LDSummand(p, 1), LDSummand(q, 1)], O2)
    assert phi == build_ld_parameter([LDSummand(q, 1), LDSummand(p, 1)], O2)


def test_dual_point_swaps_partner():
    # alpha's partner is read from the summands: no inventory is needed
    inv = small_inventory()
    p = InertialPoint(inv["alpha"], MINUS_ONE)
    q = InertialPoint(inv["beta"], MINUS_ONE)
    phi = build_ld_parameter([LDSummand(p, 1), LDSummand(q, 1)], O2)
    assert [s.point.cls.label for s in phi.summands] == ["alpha", "beta"]
    twisted = InertialPoint(inv["alpha"], UnitMonomial(0, Fraction(1, 2)))
    with pytest.raises(ValueError, match="not closed under duality"):
        build_ld_parameter([LDSummand(twisted, 1), LDSummand(q, 1)], O2)


def test_dual_point_needs_partner_summand():
    inv = small_inventory()
    p = InertialPoint(inv["alpha"], ONE)
    with pytest.raises(ValueError, match="not closed under duality at alpha"):
        build_ld_parameter([LDSummand(p, 1, 2)], O2)


def test_dual_point_partner_must_name_class_back():
    # a summand labelled like alpha's partner that does not pair back with alpha
    inv = small_inventory()
    alpha = InertialPoint(inv["alpha"], ONE)
    impostor = InertialClass("beta", 1, 1, NotSelfDual("gamma"), "beta")
    with pytest.raises(ValueError, match="not closed under duality at alpha"):
        build_ld_parameter([LDSummand(alpha, 1), LDSummand(InertialPoint(impostor, ONE), 1)], O2)
    self_dual = InertialClass("beta", 1, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL))
    with pytest.raises(ValueError, match="not closed under duality at alpha"):
        build_ld_parameter([LDSummand(alpha, 1), LDSummand(InertialPoint(self_dual, ONE), 1)], O2)


@given(monomials)
def test_only_sign_points_are_self_dual(f):
    inv = small_inventory()
    p = InertialPoint(inv["triv"], f)
    assert p.is_self_dual_point == (f.is_sign)


def test_is_of_type_classical():
    inv = small_inventory()
    so_odd = DualGroupDescriptor(Family.ORTHOGONAL, 5)
    sp = DualGroupDescriptor(Family.SYMPLECTIC, 4)
    triv_plus = InertialPoint(inv["triv"], ONE)
    a_minus = InertialPoint(inv["a"], MINUS_ONE)
    assert is_of_type(triv_plus, so_odd)
    assert not is_of_type(triv_plus, sp)
    assert is_of_type(a_minus, sp)
    assert not is_of_type(a_minus, so_odd)


def test_is_of_type_unitary():
    rho = InertialClass(
        "u", 1, 1, SelfDual(DualityType.CONJUGATE_ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC), "1"
    )
    p = InertialPoint(rho, ONE)
    m = InertialPoint(rho, MINUS_ONE)
    u_odd = DualGroupDescriptor(Family.UNITARY_L, 3)
    u_even = DualGroupDescriptor(Family.UNITARY_L, 4)
    assert is_of_type(p, u_odd)
    assert not is_of_type(p, u_even)
    assert is_of_type(m, u_even)
    assert not is_of_type(m, u_odd)
    # plain classical tags in a unitary ambient are a usage error
    inv = small_inventory()
    with pytest.raises(ValueError):
        is_of_type(InertialPoint(inv["triv"], ONE), u_odd)
    with pytest.raises(ValueError):
        is_of_type(p, DualGroupDescriptor(Family.ORTHOGONAL, 5))


def test_is_of_type_rejects_non_sign_point():
    inv = small_inventory()
    p = InertialPoint(inv["triv"], UnitMonomial(Fraction(1, 3), 0))
    with pytest.raises(ValueError):
        is_of_type(p, DualGroupDescriptor(Family.ORTHOGONAL, 5))


def test_mixed_duality_tags_rejected():
    with pytest.raises(ValueError):
        InertialClass(
            "bad", 1, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC)
        )


_O = SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL)


@pytest.mark.parametrize(
    "args, error, message",
    [
        (("c", 0, 1, _O), ValueError, "dim must be positive"),
        (("c", 1, 0, _O), ValueError, "torsion must be positive"),
        (
            ("c", 1, 1, SelfDual(DualityType.CONJUGATE_ORTHOGONAL, DualityType.SYMPLECTIC)),
            ValueError,
            "cannot mix conjugate-dual and plain self-dual type tags",
        ),
        (("c", 1, 1, NotSelfDual("")), ValueError, "a non-self-dual class needs a partner label"),
        (("c", 1, 1, ("orthogonal", "orthogonal")), TypeError, "duality must be NotSelfDual or SelfDual"),
    ],
    ids=["dim", "torsion", "tag-flavours", "partner-label", "duality-kind"],
)
def test_a_directly_built_invalid_class_raises(args, error, message):
    with pytest.raises(error, match=message):
        InertialClass(*args)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        DualGroupDescriptor(Family.SYMPLECTIC, 5)
    # the group under an odd orthogonal dual group is symplectic, under an even one it is not
    for dim, symplectic_base in ((7, True), (6, False)):
        g = DualGroupDescriptor(Family.ORTHOGONAL, dim)
        assert (g.family is Family.ORTHOGONAL and g.ambient_dim % 2 == 1) is symplectic_base


def test_inventory_json_round_trip(tmp_path):
    inv = small_inventory()
    path = tmp_path / "inv.json"
    inv.dump(path)
    data = json.loads(path.read_text())
    assert data[0]["label"] == "a"
    assert data[0]["duality"] == {
        "kind": "self_dual",
        "type_plus": "symplectic",
        "type_minus": "symplectic",
    }
    assert data[1]["duality"] == {"kind": "not_self_dual", "partner": "beta"}
    inv2 = Inventory.load(path)
    assert inv2.to_json_list() == inv.to_json_list()


def test_inventory_detects_asymmetric_partner():
    inv = Inventory()
    inv.add(InertialClass("x", 1, 1, NotSelfDual("y")))
    inv.add(InertialClass("y", 1, 1, NotSelfDual("x2")))
    with pytest.raises((ValueError, KeyError)):
        inv.validate()


def test_inventory_refuses_a_class_that_is_its_own_partner():
    inv = Inventory()
    inv.add(InertialClass("alpha", 1, 1, NotSelfDual("alpha")))
    with pytest.raises(ValueError, match="'alpha' names itself as its partner"):
        inv.validate()


def test_inventory_unknown_label_message():
    inv = small_inventory()
    with pytest.raises(KeyError) as info:
        inv["zzz"]
    assert info.value.args == ("class 'zzz' not registered",)


def test_inventory_rejects_duplicates():
    inv = small_inventory()
    with pytest.raises(ValueError):
        inv.add(InertialClass("triv", 1, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL)))
