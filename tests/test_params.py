import functools
import importlib
import inspect
import itertools
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import hecke_atlas
from hecke_atlas import params
from hecke_atlas.params import (
    LDParameter,
    LDSummand,
    SignCharacter,
    alternating_characters,
    brute_force_supercuspidals,
    build_ld_parameter,
    component_group,
    count_supercuspidals,
    det_discrepancy,
    discrete_parameters,
    is_discrete,
    is_supercuspidal_shape,
    normed_corpus,
    parameter_from_json_dict,
    parameter_to_json_dict,
    staircase,
    summand_type,
    supercuspidal_corpus,
    supercuspidal_shapes,
    t_invariants,
)
from hecke_atlas.support import build_phi_S, supports
from hecke_atlas.verify import standard_inventory
from hecke_atlas.weil import (
    MINUS_ONE,
    ONE,
    DualGroupDescriptor,
    DualityType,
    Family,
    InertialClass,
    InertialPoint,
    Inventory,
    SelfDual,
    UnitMonomial,
    is_of_type,
)


SO5 = DualGroupDescriptor(Family.ORTHOGONAL, 5)
SP6 = DualGroupDescriptor(Family.SYMPLECTIC, 6)
SP2 = DualGroupDescriptor(Family.SYMPLECTIC, 2)


def pt(inv, label, f=ONE):
    return InertialPoint(inv[label], f)


def test_summand_type_flips_with_even_sl2(extended_inventory):
    triv = pt(extended_inventory, "triv")
    assert summand_type(triv, 2, SP6)  # orthogonal point, even sl2, symplectic ambient
    assert not summand_type(triv, 1, SP6)
    assert summand_type(triv, 3, SO5)
    assert not summand_type(triv, 2, SO5)


def test_build_parameter_validates(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [
            LDSummand(pt(inv, "triv"), 1),
            LDSummand(pt(inv, "triv"), 3),
            LDSummand(pt(inv, "chi"), 1),
        ],
        SO5,
    )
    assert sum(s.dim for s in phi.summands) == 5
    with pytest.raises(ValueError):
        build_ld_parameter([LDSummand(pt(inv, "triv"), 2)], SO5)
    with pytest.raises(ValueError):
        build_ld_parameter(
            [LDSummand(InertialPoint(inv["triv"], UnitMonomial(Fraction(1, 4), 0)), 1)],
            DualGroupDescriptor(Family.ORTHOGONAL, 1),
        )


def test_build_parameter_merges_and_is_idempotent(extended_inventory):
    inv = extended_inventory
    s = LDSummand(pt(inv, "triv"), 1)
    phi = build_ld_parameter([s, s, LDSummand(pt(inv, "triv"), 3)], SO5)
    assert phi.summands[0].multiplicity == 2
    again = build_ld_parameter(phi.summands, phi.ambient)
    assert again == phi


def test_nonselfdual_closure_needs_partner(extended_inventory):
    inv = extended_inventory
    g2 = DualGroupDescriptor(Family.ORTHOGONAL, 2)
    phi = build_ld_parameter(
        [LDSummand(pt(inv, "alpha"), 1), LDSummand(pt(inv, "beta"), 1)], g2
    )
    assert sum(s.dim for s in phi.summands) == 2
    with pytest.raises(ValueError):
        build_ld_parameter([LDSummand(pt(inv, "alpha"), 1), LDSummand(pt(inv, "alpha"), 1)], g2)


def so5_example(inv):
    return build_ld_parameter(
        [
            LDSummand(pt(inv, "triv"), 1),
            LDSummand(pt(inv, "triv"), 3),
            LDSummand(pt(inv, "chi"), 1),
        ],
        SO5,
    )


def test_supercuspidal_shape_examples(extended_inventory):
    inv = extended_inventory
    assert is_supercuspidal_shape(so5_example(inv))
    # missing sp(1) step of the staircase
    broken = build_ld_parameter(
        [LDSummand(pt(inv, "triv"), 3)], DualGroupDescriptor(Family.ORTHOGONAL, 3)
    )
    assert not is_supercuspidal_shape(broken)
    single = build_ld_parameter(
        [LDSummand(pt(inv, "triv"), 1)], DualGroupDescriptor(Family.ORTHOGONAL, 1)
    )
    assert is_supercuspidal_shape(single)


def test_component_group_orders(extended_inventory):
    inv = extended_inventory
    assert component_group(so5_example(inv)).order == 8
    single = build_ld_parameter(
        [LDSummand(pt(inv, "triv"), 1)], DualGroupDescriptor(Family.ORTHOGONAL, 1)
    )
    assert component_group(single).order == 2
    doubled = build_ld_parameter(
        [LDSummand(pt(inv, "triv"), 1, 2)], DualGroupDescriptor(Family.ORTHOGONAL, 2)
    )
    with pytest.raises(ValueError):
        component_group(doubled)


def test_alternating_characters_so5(extended_inventory):
    inv = extended_inventory
    phi = so5_example(inv)
    chars = alternating_characters(phi)
    assert len(chars) == 4
    # within the depth-2 staircase of triv the signs alternate
    for eps in chars:
        values = dict(eps.values)
        assert values["triv+:sp3"] == -values["triv+:sp1"]
    # with an odd-type block present the two forms split evenly
    assert count_supercuspidals(phi, 1) == 2
    assert count_supercuspidals(phi, -1) == 2
    assert t_invariants(phi) == (1, 1)


def test_not_of_type_first_step_forced(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter([LDSummand(pt(inv, "triv"), 2)], SP2)
    chars = alternating_characters(phi)
    assert len(chars) == 1
    assert dict(chars[0].values)["triv+:sp2"] == -1


def test_so3_degenerate_counts(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter([LDSummand(pt(inv, "triv"), 2)], SP2)
    assert count_supercuspidals(phi, 1) == 0
    assert count_supercuspidals(phi, -1) == 1
    assert brute_force_supercuspidals(phi, 1) == 0
    assert brute_force_supercuspidals(phi, -1) == 1


def test_sp6_example_counts(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [
            LDSummand(pt(inv, "triv"), 2),
            LDSummand(pt(inv, "chi"), 2),
            LDSummand(pt(inv, "a"), 1),
        ],
        SP6,
    )
    assert count_supercuspidals(phi, 1) == 1
    assert count_supercuspidals(phi, -1) == 1


@given(st.integers(min_value=1, max_value=12))
def test_block_sign_closed_forms(a):
    prod = 1
    for k in range(1, a + 1):
        prod *= (-1) ** (k - 1)
    assert prod * (-1) ** a == (-1) ** (a * (a + 1) // 2)
    if a % 2 == 0:
        assert (-1) ** (a * (a - 1) // 2) == (-1) ** (a // 2)


def test_corpus_counts_match_brute_force(six_class_inventory):
    corpus = supercuspidal_corpus(six_class_inventory, 9)
    assert len(corpus) >= 200
    for phi in corpus:
        n_odd, n_even = t_invariants(phi)
        plus = count_supercuspidals(phi, 1)
        minus = count_supercuspidals(phi, -1)
        assert plus == brute_force_supercuspidals(phi, 1)
        assert minus == brute_force_supercuspidals(phi, -1)
        assert plus + minus == 2 ** (n_odd + n_even)
        assert plus + minus == len(alternating_characters(phi))


def test_symplectic_base_group_always_has_odd_type_block(six_class_inventory):
    for dim in (1, 3, 5, 7, 9):
        ambient = DualGroupDescriptor(Family.ORTHOGONAL, dim)
        for phi in supercuspidal_shapes(six_class_inventory, ambient):
            n_odd, _ = t_invariants(phi)
            assert n_odd >= 1


def test_is_discrete(extended_inventory):
    inv = extended_inventory
    assert is_discrete(so5_example(inv))
    doubled = build_ld_parameter(
        [LDSummand(pt(inv, "triv"), 1, 2)], DualGroupDescriptor(Family.ORTHOGONAL, 2)
    )
    assert not is_discrete(doubled)
    mixed = build_ld_parameter(
        [LDSummand(pt(inv, "alpha"), 1), LDSummand(pt(inv, "beta"), 1)],
        DualGroupDescriptor(Family.ORTHOGONAL, 2),
    )
    assert not is_discrete(mixed)
    # sp(2) flips the type: of ambient type in Sp_2, not in O_2
    assert is_discrete(build_ld_parameter([LDSummand(pt(inv, "triv"), 2)], SP2))
    assert not is_discrete(
        build_ld_parameter([LDSummand(pt(inv, "triv"), 2)], DualGroupDescriptor(Family.ORTHOGONAL, 2))
    )


def test_det_discrepancy(extended_inventory):
    inv = extended_inventory
    phi = so5_example(inv)
    assert det_discrepancy(phi, phi) == 1
    # swap the chi (x) sp(1) piece for the unramified-twisted trivial point
    other = build_ld_parameter(
        [
            LDSummand(pt(inv, "triv"), 1),
            LDSummand(pt(inv, "triv"), 3),
            LDSummand(pt(inv, "chi", MINUS_ONE), 1),
        ],
        SO5,
    )
    assert det_discrepancy(other, phi) == -1
    # a dim-2 class at f=-1 contributes (-1)**2 = +1
    g4 = DualGroupDescriptor(Family.ORTHOGONAL, 4)
    base = build_ld_parameter([LDSummand(pt(inv, "a"), 2)], g4)
    twisted = build_ld_parameter([LDSummand(pt(inv, "a", MINUS_ONE), 2)], g4)
    assert det_discrepancy(twisted, base) == 1
    # odd exponent difference on a ramified determinant base is an error
    bad = build_ld_parameter([LDSummand(pt(inv, "chi"), 1), LDSummand(pt(inv, "triv"), 3)], g4)
    good = build_ld_parameter([LDSummand(pt(inv, "triv"), 2), LDSummand(pt(inv, "a"), 1)], g4)
    with pytest.raises(ValueError):
        det_discrepancy(bad, good)


def reference_det_discrepancy(phi, phi0):
    """``det_discrepancy`` as it was, worked out afresh from both parameters' summands."""
    unram = ONE
    ram = {}
    for parameter, expo_sign in ((phi, 1), (phi0, -1)):
        for s in parameter.summands:
            cls = s.point.cls
            e = s.sl2_dim * s.multiplicity
            unram = unram * (s.point.f ** (cls.dim * e * expo_sign))
            if cls.is_self_dual:
                key = (cls.label, True)
                orient = 1
            else:
                key = (cls.orbit_label, False)
                orient = 1 if cls.label == cls.orbit_label else -1
            ram[key] = ram.get(key, 0) + orient * expo_sign * e
    for (label, self_dual), e in ram.items():
        bad = (e % 2 != 0) if self_dual else (e != 0)
        if bad:
            raise ValueError(f"determinant of orbit {label!r} does not cancel (exponent {e})")
    if not unram.is_sign:
        raise ValueError(f"determinant discrepancy {unram} is not a sign")
    return unram.sign


def fresh(phi):
    """An equal parameter with nothing cached yet."""
    return LDParameter(phi.ambient, phi.summands)


def test_det_discrepancy_matches_the_per_call_formula_on_every_corpus_support():
    count = 0
    for phi0 in normed_corpus(standard_inventory(), 8):
        for S in supports(phi0):
            phi_S = build_phi_S(phi0, S)[0]
            expected = outcome(reference_det_discrepancy, phi_S, phi0)
            assert expected[0] == "value"
            cold = fresh(phi_S), fresh(phi0)
            # both cold, both warm, then the memoized tail with the parameter in use
            for pair in (cold, cold, (phi_S, phi0)):
                assert outcome(det_discrepancy, *pair) == expected
            count += 1
    assert count == 855


def test_det_discrepancy_matches_the_per_call_formula_on_pairs_that_do_not_cancel(extended_inventory):
    inv = extended_inventory
    O = functools.partial(DualGroupDescriptor, Family.ORTHOGONAL)
    f = UnitMonomial(Fraction(1, 3), Fraction(1, 2))
    half = UnitMonomial(0, Fraction(1, 2))
    phis = [
        *discrete_parameters(inv, O(4))[:12],
        build_ld_parameter([LDSummand(pt(inv, "alpha", f), 1), LDSummand(pt(inv, "beta", f.inverse()), 1)], O(2)),
        build_ld_parameter(
            [LDSummand(pt(inv, "alpha"), 2), LDSummand(pt(inv, "beta"), 2), LDSummand(pt(inv, "chi"), 1)], O(5)
        ),
        build_ld_parameter([LDSummand(pt(inv, "rho_mix2", MINUS_ONE), 1), LDSummand(pt(inv, "chi"), 1, 3)], O(5)),
        # built without the duality check, so the unramified part need not be a sign
        LDParameter(O(1), (LDSummand(pt(inv, "triv", half), 1),)),
        LDParameter(O(2), (LDSummand(pt(inv, "triv", half), 1, 2),)),
        LDParameter(O(2), (LDSummand(pt(inv, "alpha", f), 1), LDSummand(pt(inv, "chi", half), 1))),
        LDParameter(O(1), (LDSummand(pt(inv, "beta"), 1),)),
    ]
    seen = set()
    for phi, phi0 in itertools.product(phis, repeat=2):
        expected = outcome(reference_det_discrepancy, phi, phi0)
        seen.add(expected[1] if expected[0] == "value" else "not a sign" if "sign" in expected[1] else "no cancel")
        phi, phi0 = fresh(phi), fresh(phi0)
        for _ in range(2):  # cold, then warm
            assert outcome(det_discrepancy, phi, phi0) == expected
    # both signs, an orbit that does not cancel, and a discrepancy that is not a sign
    assert seen == {1, -1, "no cancel", "not a sign"}


def test_parameter_json_round_trip(extended_inventory):
    inv = extended_inventory
    phi = so5_example(inv)
    data = parameter_to_json_dict(phi)
    assert data["ambient"] == {"family": "orthogonal", "dim": 5}
    assert data["summands"][0] == {"class": "chi", "f": {"root": "0/1", "qexp": "0/2"}, "a": 1, "mult": 1}
    assert parameter_from_json_dict(data, inv) == phi


def test_only_enumerators_and_the_json_reader_take_an_inventory():
    # a parameter resolves its own dual partners, so no other layer needs the registry
    takers = set()
    for info in pkgutil.iter_modules(hecke_atlas.__path__):
        module = importlib.import_module(f"hecke_atlas.{info.name}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__:
                if "inventory" in inspect.signature(fn).parameters:
                    takers.add(f"{info.name}.{name}")
    assert takers == {
        "params.parameter_from_json_dict",
        "params.discrete_parameters",
        "params.supercuspidal_shapes",
        "params.supercuspidal_corpus",
        "params.normed_corpus",
    }


# Reference road for ``test_staircase_view_matches_the_grouping_it_replaced``:
# every function groups and types the summands afresh, with nothing cached.


def reference_groups(phi):
    groups = {}
    for s in phi.summands:
        groups.setdefault(s.point, []).append(s)
    return groups


def reference_shape(phi):
    if not phi.summands:
        return False
    for point, group in reference_groups(phi).items():
        if not point.is_self_dual_point:
            return False
        if any(s.multiplicity != 1 for s in group):
            return False
        dims = sorted(s.sl2_dim for s in group)
        if dims != list(staircase(len(dims), is_of_type(point, phi.ambient))[0]):
            return False
    return True


def reference_blocks(phi):
    groups = reference_groups(phi)
    return [(point, sorted(groups[point], key=lambda s: s.sl2_dim)) for point in sorted(groups, key=InertialPoint.sort_key)]


def reference_characters(phi):
    if not reference_shape(phi):
        raise ValueError("alternating characters are defined for cuspidal shapes")
    block_values = []
    for point, group in reference_blocks(phi):
        labels = [params._summand_label(s) for s in group]
        firsts = (1, -1) if is_of_type(point, phi.ambient) else (-1,)
        block_values.append([tuple((label, first * (-1) ** k) for k, label in enumerate(labels)) for first in firsts])
    return [SignCharacter(tuple(itertools.chain.from_iterable(c))) for c in itertools.product(*block_values)]


def reference_t_invariants(phi):
    n_odd = n_even = 0
    for point, group in reference_blocks(phi):
        if is_of_type(point, phi.ambient):
            if len(group) % 2 == 1:
                n_odd += 1
            else:
                n_even += 1
    return n_odd, n_even


def reference_count(phi, form):
    if form not in (1, -1):
        raise ValueError("form must be +1 or -1")
    if not reference_shape(phi):
        raise ValueError("count requires a cuspidal shape")
    n_odd, n_even = reference_t_invariants(phi)
    total = 2 ** (n_odd + n_even)
    if n_odd >= 1:
        plus = total // 2
    else:
        fixed = 1
        for point, group in reference_blocks(phi):
            fixed *= params._fixed_block_sign(len(group), is_of_type(point, phi.ambient))
        plus = total if fixed == 1 else 0
    return plus if form == 1 else total - plus


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_staircase_view_matches_the_grouping_it_replaced(extended_inventory):
    inv = Inventory(dict(extended_inventory.classes))
    CO, CS = DualityType.CONJUGATE_ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC
    inv.add(InertialClass("u", 1, 1, SelfDual(CO, CS), "1"))
    inv.add(InertialClass("v", 2, 1, SelfDual(CS, CS), "1"))
    O = functools.partial(DualGroupDescriptor, Family.ORTHOGONAL)
    U = functools.partial(DualGroupDescriptor, Family.UNITARY_L)
    ambients = [*params.classical_ambients(8), *(U(n) for n in range(1, 7))]
    phis = [phi for ambient in ambients for phi in discrete_parameters(inv, ambient)]
    half = UnitMonomial(0, Fraction(1, 2))
    chi = LDSummand(pt(inv, "chi"), 1)
    others = [
        # a point that is not a sign: the shape test says no, t_invariants cannot type it
        ([LDSummand(pt(inv, "triv", half), 1), LDSummand(pt(inv, "triv", half.inverse()), 1), chi], O(3)),
        ([LDSummand(pt(inv, "alpha"), 1), LDSummand(pt(inv, "beta"), 1)], O(2)),  # a dual pair
        ([LDSummand(pt(inv, "triv"), 1, 2)], O(2)),  # a multiplicity
        ([], O(0)),
    ]
    phis += [build_ld_parameter(summands, ambient) for summands, ambient in others]
    assert len(phis) > 1000
    seen = set()
    for phi in phis:
        expected = [
            outcome(reference_shape, phi),
            outcome(reference_t_invariants, phi),
            outcome(reference_count, phi, 1),
            outcome(reference_count, phi, -1),
            outcome(reference_characters, phi),
        ]
        seen.update(kind for kind, _ in expected)
        for _ in range(2):  # with the view cold, then warm
            chars = outcome(alternating_characters, phi)
            assert [
                outcome(is_supercuspidal_shape, phi),
                outcome(t_invariants, phi),
                outcome(count_supercuspidals, phi, 1),
                outcome(count_supercuspidals, phi, -1),
                chars,
            ] == expected
            if chars[0] == "value":
                chars[1].append(chars[1][0])  # the next call gets a fresh list
                alternating_characters(phi).clear()
    assert seen == {"value", "ValueError"}


def test_a_class_with_type_tags_of_the_wrong_flavour_is_refused(extended_inventory):
    """Plain tags in a unitary ambient, or conjugate-dual tags elsewhere, are
    refused when the parameter is built, whichever point sorts first."""
    inv = Inventory(dict(extended_inventory.classes))
    CO, CS = DualityType.CONJUGATE_ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC
    inv.add(InertialClass("u", 1, 1, SelfDual(CO, CS), "1"))
    O = functools.partial(DualGroupDescriptor, Family.ORTHOGONAL)
    U = functools.partial(DualGroupDescriptor, Family.UNITARY_L)
    triv, chi, u = (LDSummand(pt(inv, label), 1) for label in ("triv", "chi", "u"))
    plain = "class {!r} has plain type tags, wrong for the unitary_l family"
    conjugate = "class 'u' has conjugate-dual type tags, wrong for the {} family"
    cases = [
        # the five parameters of this kind that the staircase view test once built
        ([triv, u], U(2), plain.format("triv")),
        ([LDSummand(pt(inv, "a"), 1, 2), triv], U(5), plain.format("a")),
        ([chi, LDSummand(pt(inv, "triv"), 1, 2)], U(3), plain.format("chi")),
        ([u], O(1), conjugate.format("orthogonal")),
        ([LDSummand(pt(inv, "triv"), 1, 2), u], O(3), conjugate.format("orthogonal")),
        ([LDSummand(pt(inv, "u"), 1, 2)], DualGroupDescriptor(Family.SYMPLECTIC, 2), conjugate.format("symplectic")),
    ]
    for summands, ambient, message in cases:
        with pytest.raises(ValueError) as err:
            build_ld_parameter(summands, ambient)
        assert str(err.value) == message
    # a dual pair carries no type tags, so any ambient takes it
    phi = build_ld_parameter([LDSummand(pt(inv, "alpha"), 1), LDSummand(pt(inv, "beta"), 1)], U(2))
    assert sum(s.dim for s in phi.summands) == 2


def uncached_shape(phi):
    """The shape test run in full on every call: the reference for the cached one."""
    if not phi.summands:
        return False
    for st in phi.staircases:
        if not st.point.is_self_dual_point:
            return False
        if any(s.multiplicity != 1 for s in st.summands):
            return False
        if [s.sl2_dim for s in st.summands] != list(staircase(len(st.summands), st.of_type)[0]):
            return False
    return True


def test_the_cached_shape_test_matches_the_uncached_one(extended_inventory):
    inv = standard_inventory()
    phis = supercuspidal_corpus(inv, 9)
    phis += [build_phi_S(phi0, S)[0] for phi0 in normed_corpus(inv, 10) for S in supports(phi0)]
    O = functools.partial(DualGroupDescriptor, Family.ORTHOGONAL)
    half = UnitMonomial(0, Fraction(1, 2))
    e = extended_inventory
    not_cuspidal = [
        ([LDSummand(pt(e, "triv"), 1), LDSummand(pt(e, "triv"), 5)], O(6)),  # a step missing
        ([LDSummand(pt(e, "triv"), 2), LDSummand(pt(e, "triv"), 4)], O(6)),  # steps of the other parity
        ([LDSummand(pt(e, "triv"), 3)], O(3)),  # a staircase not starting at the bottom
        ([LDSummand(pt(e, "triv"), 1, 3)], O(3)),  # a multiplicity
        ([LDSummand(pt(e, "triv", half), 1), LDSummand(pt(e, "triv", half.inverse()), 1)], O(2)),  # not a sign
        ([LDSummand(pt(e, "alpha"), 1), LDSummand(pt(e, "beta"), 1)], O(2)),  # a dual pair
        ([LDSummand(pt(e, "triv"), 1), LDSummand(pt(e, "chi"), 2)], O(3)),  # one good staircase, one bad
        ([], O(0)),
    ]
    phis += [build_ld_parameter(summands, ambient) for summands, ambient in not_cuspidal]
    shapes = [uncached_shape(phi) for phi in phis]
    assert True in shapes and not any(shapes[-len(not_cuspidal):])
    for phi, shape in zip(phis, shapes):
        assert is_supercuspidal_shape(phi) is shape
        assert is_supercuspidal_shape(phi) is shape  # warm


def test_a_shape_test_that_raises_raises_on_every_call(extended_inventory):
    # conjugate-dual tags in an orthogonal ambient, which build_ld_parameter
    # would refuse: typing the point raises, and no answer is kept
    inv = Inventory(dict(extended_inventory.classes))
    inv.add(InertialClass("u", 1, 1, SelfDual(DualityType.CONJUGATE_ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC), "1"))
    phi = LDParameter(DualGroupDescriptor(Family.ORTHOGONAL, 1), (LDSummand(pt(inv, "u"), 1),))
    for _ in range(3):
        with pytest.raises(ValueError, match="conjugate-dual type tags need a unitary ambient group"):
            is_supercuspidal_shape(phi)


def hashing_corpus():
    """Parameters of every corpus over the standard inventory: normed ones,
    cuspidal shapes, discrete ones and the tails of the normed ones."""
    inv = standard_inventory()
    normed = normed_corpus(inv, 6)
    tails = [build_phi_S(phi0, S)[0] for phi0 in normed for S in supports(phi0)]
    return normed + supercuspidal_corpus(inv, 6) + discrete_parameters(inv, SP6) + tails


@given(st.sampled_from(hashing_corpus()), st.randoms(use_true_random=False))
def test_parameters_built_from_permuted_summand_lists_are_equal_and_hash_equal(phi, rng):
    # every summand spelled out once per multiplicity, so the merge also runs
    spelled = [LDSummand(s.point, s.sl2_dim) for s in phi.summands for _ in range(s.multiplicity)]
    a, b = (build_ld_parameter(rng.sample(spelled, len(spelled)), phi.ambient) for _ in range(2))
    assert a == b == phi and a is not b
    assert hash(a) == hash(b) == hash(phi) == hash((phi.ambient, phi.summands))


def test_a_pickled_parameter_keeps_its_cached_views_but_not_its_hash():
    phi = normed_corpus(standard_inventory(), 6)[-1]
    hash(phi)

    def views(p):  # a Staircase compares by identity, so by its fields here
        staircases = [(st.point, st.summands, st.ambient) for st in p.staircases]
        return p.orbits, p.orbit_by_label, staircases, p._cuspidal_shape, p._determinant

    cached = views(phi)
    assert "_hash" in phi.__dict__
    twin = pickle.loads(pickle.dumps(phi))
    assert "_hash" not in twin.__dict__
    assert set(twin.__dict__) == set(phi.__dict__) - {"_hash"}
    assert views(twin) == cached
    assert twin == phi and hash(twin) == hash(phi)


PICKLED_IN_ANOTHER_PROCESS = """
import pickle, sys
from hecke_atlas.params import normed_corpus
from hecke_atlas.verify import standard_inventory
phi = normed_corpus(standard_inventory(), 6)[-1]
print(hash(phi), hash("triv"))  # the hash is cached before the pickle is taken
sys.stdout.flush()
sys.stdout.buffer.write(pickle.dumps(phi))
"""


def test_a_parameter_pickled_under_another_hash_seed_hashes_afresh(src_env):
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    done = subprocess.run(
        [sys.executable, "-c", PICKLED_IN_ANOTHER_PROCESS], capture_output=True, env=src_env(PYTHONHASHSEED=seed), check=True
    )
    line, data = done.stdout.split(b"\n", 1)
    their_hash, their_str_hash = map(int, line.split())
    fresh = normed_corpus(standard_inventory(), 6)[-1]
    assert their_str_hash != hash("triv")  # the other process hashes strs differently
    assert their_hash != hash(fresh)  # so a hash carried over would be stale
    twin = pickle.loads(data)
    assert "_hash" not in twin.__dict__
    assert twin == fresh and hash(twin) == hash(fresh)
    assert {fresh: "found"}[twin] == "found" and {twin: "found"}[fresh] == "found"
