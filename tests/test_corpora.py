"""The corpus enumerators of ``hecke_atlas.params`` against a reference copy.

The reference below is the enumeration as it stood before the corpora shared
one ambient list, one admissibility rule and one parameter builder: each
enumerator carries its own filter and its own loop over choices.  The new
code must give the same parameters in the same order.
"""

import functools
import itertools

from hypothesis import example, given, settings, strategies as st

from hecke_atlas import params
from hecke_atlas.params import LDSummand, build_ld_parameter, staircase, summand_type
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
    NotSelfDual,
    SelfDual,
    sign_types,
)

U = functools.partial(DualGroupDescriptor, Family.UNITARY_L)


def reference_bounded_choices(slots, total):
    def walk(i, remaining, chosen):
        if i == len(slots):
            if remaining == 0:
                yield chosen
            return
        for cost, value in slots[i]:
            if cost <= remaining:
                yield from walk(i + 1, remaining - cost, chosen + (value,))

    return walk(0, total, ())


def reference_classical_ambients(max_dim):
    out = [DualGroupDescriptor(Family.ORTHOGONAL, n) for n in range(1, max_dim + 1)]
    out += [DualGroupDescriptor(Family.SYMPLECTIC, n) for n in range(2, max_dim + 1, 2)]
    return out


def reference_supercuspidal_shapes(inventory, ambient):
    conjugate = ambient.family is Family.UNITARY_L
    target = ambient.ambient_dim
    slots = []
    for cls in sorted(inventory, key=lambda c: c.label):
        if not cls.is_self_dual:
            continue
        if cls.duality.type_at_plus.conjugate_flavour != conjugate:
            continue
        for f, of_type in zip((ONE, MINUS_ONE), sign_types(cls, ambient)):
            point = InertialPoint(cls, f)
            options = []
            for depth in itertools.count():
                dims, cost = staircase(depth, of_type)
                if cls.dim * cost > target:
                    break
                options.append((cls.dim * cost, [LDSummand(point, a) for a in dims]))
            slots.append(options)
    for choice in reference_bounded_choices(slots, target):
        summands = [s for group in choice for s in group]
        if summands:
            yield build_ld_parameter(summands, ambient)


def reference_supercuspidal_corpus(inventory, max_ambient_dim):
    out = []
    for dim in range(1, max_ambient_dim + 1):
        out.extend(reference_supercuspidal_shapes(inventory, DualGroupDescriptor(Family.ORTHOGONAL, dim)))
        if dim % 2 == 0:
            out.extend(reference_supercuspidal_shapes(inventory, DualGroupDescriptor(Family.SYMPLECTIC, dim)))
    return out


def reference_discrete_parameters(inventory, ambient):
    conjugate = ambient.family is Family.UNITARY_L
    slots = []
    for cls in sorted(inventory, key=lambda c: c.label):
        if not cls.is_self_dual:
            continue
        if cls.duality.type_at_plus.conjugate_flavour != conjugate:
            continue
        for f in (ONE, MINUS_ONE):
            point = InertialPoint(cls, f)
            a = 1
            while cls.dim * a <= ambient.ambient_dim:
                if summand_type(point, a, ambient):
                    s = LDSummand(point, a)
                    slots.append(((s.dim, s), (0, None)))
                a += 1
    out = []
    for choice in reference_bounded_choices(slots, ambient.ambient_dim):
        chosen = [s for s in choice if s is not None]
        if chosen:
            out.append(build_ld_parameter(chosen, ambient))
    return out


def reference_normed_corpus(inventory, max_ambient_dim):
    self_dual = sorted((c.label,) for c in inventory if c.is_self_dual)
    pairs = sorted({tuple(sorted((c.label, c.duality.partner_label))) for c in inventory if not c.is_self_dual})
    orbits = [[InertialPoint(inventory[label], ONE) for label in labels] for labels in self_dual + pairs]
    out = []
    for ambient in reference_classical_ambients(max_ambient_dim):
        n = ambient.ambient_dim
        conjugate = ambient.family is Family.UNITARY_L
        slots = []
        for points in orbits:
            cls = points[0].cls
            if cls.is_self_dual and cls.duality.type_at_plus.conjugate_flavour != conjugate:
                continue
            d = sum(p.cls.dim for p in points)
            slots.append([(m * d, [LDSummand(p, 1, m) for p in points if m]) for m in range(n // d + 1)])
        for choice in reference_bounded_choices(slots, n):
            summands = [s for group in choice for s in group]
            if summands:
                out.append(build_ld_parameter(summands, ambient))
    return out


def assert_enumerators_match(inv, max_dim, unitary_dims):
    """Every enumerator equals its reference, in content and in order; the
    zero-dimensional ambient has only the empty choice, which gives nothing."""
    assert params.classical_ambients(max_dim) == reference_classical_ambients(max_dim)
    ambients = [
        DualGroupDescriptor(Family.ORTHOGONAL, 0),
        *reference_classical_ambients(max_dim),
        *(U(n) for n in unitary_dims),
    ]
    for ambient in ambients:
        assert params.discrete_parameters(inv, ambient) == reference_discrete_parameters(inv, ambient)
        assert list(params.supercuspidal_shapes(inv, ambient)) == list(reference_supercuspidal_shapes(inv, ambient))
    assert params.supercuspidal_corpus(inv, max_dim) == reference_supercuspidal_corpus(inv, max_dim)
    assert params.normed_corpus(inv, max_dim) == reference_normed_corpus(inv, max_dim)


def test_enumerators_match_the_reference_on_the_fixture_inventories(extended_inventory):
    for inv in (standard_inventory(), extended_inventory):
        assert_enumerators_match(inv, 7, ())
    assert params.classical_ambients(0) == []


PLAIN = (DualityType.ORTHOGONAL, DualityType.SYMPLECTIC)
CONJUGATE = (DualityType.CONJUGATE_ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC)
self_dual_entries = st.tuples(
    st.just("self_dual"),
    st.integers(1, 2),
    st.sampled_from([PLAIN, CONJUGATE]).flatmap(lambda tags: st.tuples(st.sampled_from(tags), st.sampled_from(tags))),
)
pair_entries = st.tuples(st.just("pair"), st.integers(1, 2), st.none())


@st.composite
def inventories(draw):
    """1-4 classes: self-dual ones with plain or conjugate-dual tags, and
    dual pairs, of dimension 1-2, under labels drawn in any order."""
    labels = list(draw(st.permutations("abcd")))
    entries = draw(
        st.lists(st.one_of(self_dual_entries, pair_entries), min_size=1, max_size=4).filter(
            lambda es: sum(2 if kind == "pair" else 1 for kind, _, _ in es) <= 4
        )
    )
    inv = Inventory()
    for kind, dim, tags in entries:
        if kind == "pair":
            first, second = labels.pop(), labels.pop()
            inv.add(InertialClass(first, dim, 1, NotSelfDual(second)))
            inv.add(InertialClass(second, dim, 1, NotSelfDual(first)))
        else:
            inv.add(InertialClass(labels.pop(), dim, 1, SelfDual(*tags)))
    inv.validate()
    return inv


@settings(deadline=None)
@given(inventories())
def test_enumerators_match_the_reference_on_drawn_inventories(inv):
    assert_enumerators_match(inv, 6, range(1, 7))


@st.composite
def slot_lists(draw):
    """0-5 slots of 0-4 options with costs 0-4, so empty slots, zero costs
    and repeated costs all turn up; each value names its slot and option, so
    the order of the choices shows."""
    costs = draw(st.lists(st.lists(st.integers(0, 4), max_size=4), max_size=5))
    return [[(cost, (i, j)) for j, cost in enumerate(options)] for i, options in enumerate(costs)]


@given(slot_lists(), st.integers(-1, 14))
@example([], 0)
@example([], 1)
@example([[]], 0)
@example([[(0, "a"), (0, "b")], [(0, "c"), (2, "d"), (2, "e")]], 0)  # zero costs, total 0
@example([[(0, "a"), (2, "b"), (2, "c")], [(2, "d"), (2, "e")]], 4)  # repeated costs
@example([[(2, "a"), (4, "b")], [(2, "c")]], 5)  # an unreachable total below the largest sum
@example([[(1, "a")], [], [(0, "b")]], 1)  # an empty slot in the middle
def test_the_pruned_walk_matches_the_reference_walk(slots, total):
    assert list(params._bounded_choices(slots, total)) == list(reference_bounded_choices(slots, total))
