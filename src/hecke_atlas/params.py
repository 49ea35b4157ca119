"""Langlands-Deligne parameters as canonical multisets of summands.

A parameter is a multiset of summands ``point (x) sp(a)`` inside a fixed
ambient dual group.  This module provides the supercuspidal shape test,
the summand component group with its alternating sign characters, the
closed-form counting of supercuspidal representations on the two forms of
the group, an independent brute-force count used as an oracle, and the
parameter corpora the verification suites run over.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import cached_view
from .weil import (
    MINUS_ONE,
    ONE,
    DualGroupDescriptor,
    Family,
    InertialClass,
    InertialPoint,
    Inventory,
    NotSelfDual,
    UnitMonomial,
    is_of_type,
    json_field,
    json_typed,
    json_value,
    sign_types,
)

__all__ = [
    "LDSummand",
    "LDParameter",
    "Orbit",
    "Staircase",
    "staircase",
    "depth_pairs",
    "ComponentGroup",
    "SignCharacter",
    "summand_type",
    "build_ld_parameter",
    "is_supercuspidal_shape",
    "component_group",
    "alternating_characters",
    "t_invariants",
    "count_supercuspidals",
    "brute_force_supercuspidals",
    "is_discrete",
    "det_discrepancy",
    "classical_ambients",
    "supercuspidal_corpus",
    "supercuspidal_shapes",
    "cuspidal_shape",
    "discrete_parameters",
    "normed_corpus",
    "normed_parameter",
    "parameter_to_json_dict",
    "parameter_from_json_dict",
]


@dataclass(frozen=True)  # a dataclass: __post_init__ validates the dimensions
class LDSummand:
    """One summand ``point (x) sp(sl2_dim)`` with a multiplicity."""

    point: InertialPoint
    sl2_dim: int
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.sl2_dim < 1:
            raise ValueError("sl2_dim must be >= 1")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")

    @property
    def dim(self) -> int:
        return self.point.cls.dim * self.sl2_dim * self.multiplicity

    def sort_key(self):
        return (*self.point.sort_key(), self.sl2_dim)


class Orbit(NamedTuple):
    """One orbit of a parameter, a dual pair counting once.

    ``cls`` is the representative class, ``multiplicity`` the summed
    ``sl2_dim * multiplicity`` of its summands, and ``types`` says whether
    the +1 and -1 points have the ambient's type (``None`` for a dual pair).
    """

    cls: InertialClass
    multiplicity: int
    types: tuple[bool, bool] | None


@dataclass(frozen=True)  # a dataclass: it caches views of itself
class LDParameter:
    """Canonicalized parameter: ambient group plus sorted summand tuple.

    Equality is field-wise; the hash is that of the fields, worked out once
    per parameter.  Str hashes are seeded per process, so a pickle leaves
    the cached hash behind and the copy works it out afresh.
    """

    ambient: DualGroupDescriptor
    summands: tuple[LDSummand, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_view
    def _hash(self) -> int:
        return hash((self.ambient, self.summands))

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    def generator_labels(self) -> list[str]:
        return [_summand_label(s) for s in self.summands]

    @cached_view
    def orbits(self) -> tuple[Orbit, ...]:
        """The orbits of the summands, sorted by representative label;
        worked out once per parameter."""
        classes: dict[str, InertialClass] = {}
        mult: dict[str, int] = {}
        for s in self.summands:
            cls = s.point.cls
            if cls.label == cls.orbit_label:
                classes[cls.label] = cls
                mult[cls.label] = mult.get(cls.label, 0) + s.sl2_dim * s.multiplicity
        return tuple(
            Orbit(cls, mult[label], sign_types(cls, self.ambient) if cls.is_self_dual else None)
            for label, cls in sorted(classes.items())
        )

    @cached_view
    def orbit_by_label(self) -> dict[str, Orbit]:
        """The orbits keyed by representative label, in ``orbits`` order;
        worked out once per parameter."""
        return {orbit.cls.label: orbit for orbit in self.orbits}

    @cached_view
    def staircases(self) -> tuple[Staircase, ...]:
        """The summands grouped by point, in point order, each group sorted
        by ``sl2_dim``; worked out once per parameter."""
        groups: dict[InertialPoint, list[LDSummand]] = {}
        for s in self.summands:
            groups.setdefault(s.point, []).append(s)
        return tuple(
            Staircase(point, tuple(sorted(groups[point], key=lambda s: s.sl2_dim)), self.ambient)
            for point in sorted(groups, key=InertialPoint.sort_key)
        )

    @cached_view
    def _cuspidal_shape(self) -> bool:
        """``is_supercuspidal_shape`` of this parameter, worked out once; a
        test that raises caches nothing and raises again on the next call."""
        if not self.summands:
            return False
        for st in self.staircases:
            if not st.point.is_self_dual_point:
                return False
            if any(s.multiplicity != 1 for s in st.summands):
                return False
            if [s.sl2_dim for s in st.summands] != list(staircase(len(st.summands), st.of_type)[0]):
                return False
        return True

    @cached_view
    def _determinant(self) -> tuple[UnitMonomial, UnitMonomial, dict[tuple[str, bool], int]]:
        """This parameter's share of ``det_discrepancy``: the unramified
        monomial and its inverse, and the ramified exponent per ``(orbit
        label, self_dual)`` in summand order; worked out once per parameter."""
        unram = ONE
        ram: dict[tuple[str, bool], int] = {}
        for s in self.summands:
            cls = s.point.cls
            e = s.sl2_dim * s.multiplicity
            unram = unram * s.point.f ** (cls.dim * e)
            if cls.is_self_dual:
                key = (cls.label, True)
                orient = 1
            else:
                key = (cls.orbit_label, False)
                orient = 1 if cls.label == cls.orbit_label else -1
            ram[key] = ram.get(key, 0) + orient * e
        return unram, unram.inverse(), ram

    @cached_view
    def _characters(self) -> tuple[SignCharacter, ...]:
        """The alternating characters of a cuspidal-shape parameter,
        enumerated once per parameter (see ``alternating_characters``)."""
        # per staircase, its (label, sign) values for each allowed first-step sign
        block_values = []
        for st in self.staircases:
            labels = [_summand_label(s) for s in st.summands]
            firsts = (1, -1) if st.of_type else (-1,)
            block_values.append(
                [tuple((label, first * (-1) ** k) for k, label in enumerate(labels)) for first in firsts]
            )
        return tuple(
            SignCharacter(tuple(itertools.chain.from_iterable(choice)))
            for choice in itertools.product(*block_values)
        )


@dataclass(frozen=True, repr=False, eq=False)  # a dataclass: it caches a view of itself
class Staircase:
    """The summands of a parameter at one point, sorted by ``sl2_dim``; a
    staircase when the parameter has cuspidal shape."""

    point: InertialPoint
    summands: tuple[LDSummand, ...]
    ambient: DualGroupDescriptor

    @cached_view
    def of_type(self) -> bool:
        """``is_of_type`` of the point, asked once; it raises as that does."""
        return is_of_type(self.point, self.ambient)


def _summand_label(s: LDSummand) -> str:
    f = s.point.f
    if f.is_sign:
        tag = "+" if f.sign == 1 else "-"
    else:
        tag = f"({f})"
    return f"{s.point.cls.label}{tag}:sp{s.sl2_dim}"


@cache
def staircase(depth: int, of_type: bool) -> tuple[range, int]:
    """SL2 dimensions ``2k - kappa'`` (k = 1..depth) of a staircase, and their
    sum ``depth * (depth + 1) - kappa' * depth``; ``kappa'`` is 1 when the
    point has the ambient's type.  Both are immutable, so each is built once
    per process."""
    return range(2 - of_type, 2 * depth + 1 - of_type, 2), depth * (depth + 1 - of_type)


@cache
def depth_pairs(types: tuple[bool, bool], bound: int) -> tuple[tuple[int, int, int], ...]:
    """``(cost, a_plus, a_minus)`` for each pair of staircase depths at the +1
    and -1 points of sign types ``types`` whose summed sizes ``cost`` are at
    most ``bound``, in lexicographic order of the depths; built once per process."""
    depths = range(math.isqrt(bound) + 1)  # a staircase of depth a has size at least a**2
    return tuple(
        (cost, a_plus, a_minus)
        for a_plus in depths
        for a_minus in depths
        if (cost := staircase(a_plus, types[0])[1] + staircase(a_minus, types[1])[1]) <= bound
    )


def summand_type(p: InertialPoint, a: int, g: DualGroupDescriptor) -> bool:
    """Type of ``p (x) sp(a)``: the type of ``p`` flips when ``a`` is even."""
    if a < 1:
        raise ValueError("a must be >= 1")
    return is_of_type(p, g) != (a % 2 == 0)


def build_ld_parameter(summands: Iterable[LDSummand], ambient: DualGroupDescriptor) -> LDParameter:
    """Canonicalize a summand list and validate the parameter invariants.

    Equal ``(point, sl2_dim)`` entries are merged by adding multiplicities.
    The total dimension must match the ambient dimension, a self-dual class
    must carry conjugate-dual type tags exactly when the ambient is unitary
    (checked once per class), and the multiset must be closed under
    contragredients.  The dual of ``(cls, f)`` is ``(cls, f**-1)`` for a
    self-dual class; for a dual pair it is ``(partner, f**-1)``, where
    ``partner`` is the summand class labelled ``cls.duality.partner_label``,
    which must name ``cls`` back.
    """
    merged: dict[tuple, LDSummand] = {}
    for s in summands:
        key = (s.point, s.sl2_dim)
        old = merged.get(key)
        merged[key] = s if old is None else LDSummand(s.point, s.sl2_dim, old.multiplicity + s.multiplicity)
    canonical = tuple(sorted(merged.values(), key=LDSummand.sort_key))

    total = sum(s.dim for s in canonical)
    if total != ambient.ambient_dim:
        raise ValueError(
            f"summand dimension {total} does not match ambient dimension {ambient.ambient_dim}"
        )

    classes = {s.point.cls.label: s.point.cls for s in canonical}
    conjugate = ambient.family is Family.UNITARY_L
    for cls in classes.values():
        if cls.is_self_dual and cls.duality.type_at_plus.conjugate_flavour is not conjugate:
            tags = "plain" if conjugate else "conjugate-dual"
            raise ValueError(f"class {cls.label!r} has {tags} type tags, wrong for the {ambient.family.value} family")
    for s in canonical:
        cls, f = s.point.cls, s.point.f
        if cls.is_self_dual:
            if f.is_sign:  # its own dual
                continue
        else:
            partner = classes.get(cls.duality.partner_label)
            named_back = partner is not None and partner.duality == NotSelfDual(cls.label)
            cls = partner if named_back else None
        dual = merged.get((InertialPoint(cls, f.inverse()), s.sl2_dim)) if cls is not None else None
        if dual is None or dual.multiplicity != s.multiplicity:
            raise ValueError(f"multiset is not closed under duality at {_summand_label(LDSummand(s.point, s.sl2_dim))}")

    return LDParameter(ambient, canonical)


def is_supercuspidal_shape(phi: LDParameter) -> bool:
    """Whether the summands form the parity staircases of a cuspidal shape.

    Every point must be a self-dual sign point with multiplicity-one
    summands, and the sl2-dimensions at a point must be exactly
    ``{2,4,...,2a}`` (point not of ambient type) or ``{1,3,...,2a-1}``
    (point of ambient type) for some depth ``a >= 1``.  The answer is worked
    out once per parameter (``LDParameter._cuspidal_shape``).
    """
    return phi._cuspidal_shape


def is_discrete(phi: LDParameter) -> bool:
    """Multiplicity-free with every summand self-dual of the ambient type."""
    for s in phi.summands:
        if s.multiplicity != 1:
            return False
        if not s.point.is_self_dual_point:
            return False
        if not summand_type(s.point, s.sl2_dim, phi.ambient):
            return False
    return True


class ComponentGroup(NamedTuple):
    """Free F2-vector space on summand generators; -id maps to all-ones."""

    generators: tuple[str, ...]

    @property
    def order(self) -> int:
        return 2 ** len(self.generators)


def component_group(phi: LDParameter) -> ComponentGroup:
    if any(s.multiplicity != 1 for s in phi.summands):
        raise ValueError("component group requires a multiplicity-free parameter")
    return ComponentGroup(tuple(phi.generator_labels()))


class SignCharacter(NamedTuple):
    """A sign character of the summand component group."""

    values: tuple[tuple[str, int], ...]

    @property
    def eps_Z(self) -> int:
        out = 1
        for _, v in self.values:
            out *= v
        return out


def alternating_characters(phi: LDParameter) -> list[SignCharacter]:
    """All alternating sign characters of the summand component group.

    Within the staircase of a point the signs alternate starting from the
    first-step value; that value is forced to ``-1`` when the point is not
    of the ambient type and is free otherwise.
    """
    if not is_supercuspidal_shape(phi):
        raise ValueError("alternating characters are defined for cuspidal shapes")
    return list(phi._characters)


def t_invariants(phi: LDParameter) -> tuple[int, int]:
    """Counts of ambient-type points with odd / even staircase depth."""
    n_odd = n_even = 0
    for st in phi.staircases:
        if st.of_type:
            if len(st.summands) % 2 == 1:
                n_odd += 1
            else:
                n_even += 1
    return n_odd, n_even


def _fixed_block_sign(depth: int, of_type: bool) -> int:
    """Value on -id of the (forced part of the) character on one staircase."""
    if of_type:
        if depth % 2 == 1:
            raise ValueError("odd-depth ambient-type staircases carry a free sign")
        return -1 if depth % 4 == 2 else 1
    return (-1) ** (depth * (depth + 1) // 2)


def count_supercuspidals(phi: LDParameter, form: int) -> int:
    """Closed-form count of supercuspidal members on one form of the group.

    Characters are routed to the quasi-split form when their value on the
    image of ``-id`` is ``+1`` and to the companion form otherwise.
    """
    if form not in (1, -1):
        raise ValueError("form must be +1 or -1")
    if not is_supercuspidal_shape(phi):
        raise ValueError("count requires a cuspidal shape")
    n_odd, n_even = t_invariants(phi)
    total = 2 ** (n_odd + n_even)
    if n_odd >= 1:
        plus = total // 2
    else:
        fixed = 1
        for st in phi.staircases:
            fixed *= _fixed_block_sign(len(st.summands), st.of_type)
        plus = total if fixed == 1 else 0
    return plus if form == 1 else total - plus


def brute_force_supercuspidals(phi: LDParameter, form: int) -> int:
    """Oracle count: enumerate alternating characters and route by eps_Z."""
    if form not in (1, -1):
        raise ValueError("form must be +1 or -1")
    return sum(1 for eps in alternating_characters(phi) if eps.eps_Z == form)


def det_discrepancy(phi: LDParameter, phi0: LDParameter) -> int:
    """Compare determinants; ``+1`` iff the unramified parts agree.

    Each summand contributes ``f**(dim * a * mult)`` to the unramified part
    and exponents of its orbit label to the ramified bookkeeping.
    Self-dual labels (determinant of order at most two) must cancel modulo
    two; a dual pair carries mutually inverse determinants, so its two sides
    enter with opposite orientations and must cancel exactly.  Each
    parameter's own share is worked out once (``LDParameter._determinant``),
    with the inverse of its unramified monomial, with which ``phi0`` enters.
    """
    unram, _, ram = phi._determinant
    _, inverse0, ram0 = phi0._determinant
    ram = dict(ram)  # phi's orbits first, then those only phi0 has
    for key, e in ram0.items():
        ram[key] = ram.get(key, 0) - e
    for (label, self_dual), e in ram.items():
        bad = (e % 2 != 0) if self_dual else (e != 0)
        if bad:
            raise ValueError(f"determinant of orbit {label!r} does not cancel (exponent {e})")
    unram = unram * inverse0
    if not unram.is_sign:
        raise ValueError(f"determinant discrepancy {unram} is not a sign")
    return unram.sign


# ---------------------------------------------------------------------------
# corpus generation


def _bounded_choices(slots: Sequence[Sequence[tuple[int, object]]], total: int) -> Iterator[tuple]:
    """Depth first, every choice of one option per slot whose costs add up to
    exactly ``total``; each slot lists its ``(cost, value)`` options in order
    and costs are non-negative.

    ``reach[i]`` has bit ``t`` set when slots ``i..`` can add up to exactly
    ``t <= total``, so the walk enters an option only if the rest can still
    be completed.
    """
    if total < 0:
        return
    n, mask = len(slots), (1 << total + 1) - 1
    reach = [0] * n + [1]
    for i in reversed(range(n)):
        for cost, _ in slots[i]:
            reach[i] |= reach[i + 1] << cost & mask
    if not reach[0] >> total & 1:
        return
    if not n:
        yield ()
        return
    chosen: list = []
    stack = [(iter(slots[0]), total)]  # per slot entered: its options left, and what it and the rest must add up to
    while stack:
        options, remaining = stack[-1]
        i = len(chosen)
        for cost, value in options:
            rest = remaining - cost
            if rest >= 0 and reach[i + 1] >> rest & 1:
                break
        else:  # slot i is spent: step back to slot i - 1
            stack.pop()
            del chosen[-1:]
            continue
        if i + 1 == n:
            yield (*chosen, value)
        else:
            chosen.append(value)
            stack.append((iter(slots[i + 1]), rest))


def classical_ambients(max_dim: int) -> list[DualGroupDescriptor]:
    """The classical ambients up to dimension ``max_dim``: O1 ... On, then
    Sp2, Sp4 ... Spn."""
    out = [DualGroupDescriptor(Family.ORTHOGONAL, n) for n in range(1, max_dim + 1)]
    out += [DualGroupDescriptor(Family.SYMPLECTIC, n) for n in range(2, max_dim + 1, 2)]
    return out


def _self_dual_classes(inventory: Inventory, ambient: DualGroupDescriptor) -> list[InertialClass]:
    """The self-dual classes admissible in ``ambient``, sorted by label:
    those whose type tags are conjugate-dual exactly when it is unitary."""
    conjugate = ambient.family is Family.UNITARY_L
    return sorted(
        (c for c in inventory if c.is_self_dual and c.duality.type_at_plus.conjugate_flavour is conjugate),
        key=lambda c: c.label,
    )


def supercuspidal_shapes(inventory: Inventory, ambient: DualGroupDescriptor) -> Iterator[LDParameter]:
    """All cuspidal-shape parameters in ``ambient`` over ``inventory``, each
    the shared ``cuspidal_shape`` object of its depths."""
    n = ambient.ambient_dim
    slots = []  # per class: (cost, key entry) per pair of depths
    for cls in _self_dual_classes(inventory, ambient):
        types = sign_types(cls, ambient)
        slots.append([(cls.dim * cost, (cls, types, *pair)) for cost, *pair in depth_pairs(types, n // cls.dim)])
    for choice in _bounded_choices(slots, n):
        if key := tuple(entry for entry in choice if entry[2] or entry[3]):  # the all-zero choice is no shape
            yield cuspidal_shape(ambient.family, key)


@cache
def cuspidal_shape(family: Family, key: tuple) -> LDParameter:
    """The cuspidal shape in ``family`` at the summed dimension whose key
    holds, per orbit of nonzero depth in label order, ``(cls, types, a_plus,
    a_minus)``: staircase depths at the +1 and -1 points of ``cls``, of sign
    types ``types``.  One object per key and process, with its cached views."""
    summands = [s for entry in key for s in _staircase_summands(*entry)]
    return build_ld_parameter(summands, DualGroupDescriptor(family, sum(s.dim for s in summands)))


@cache
def _staircase_summands(
    cls: InertialClass, types: tuple[bool, bool], a_plus: int, a_minus: int
) -> tuple[LDSummand, ...]:
    """One entry of a ``cuspidal_shape`` key as summands, built once per
    entry: many shapes share an orbit's depths."""
    return tuple(
        LDSummand(InertialPoint(cls, f), a)
        for f, depth, of_type in zip((ONE, MINUS_ONE), (a_plus, a_minus), types)
        for a in staircase(depth, of_type)[0]
    )


def supercuspidal_corpus(inventory: Inventory, max_ambient_dim: int) -> list[LDParameter]:
    """Cuspidal-shape parameters for every classical ambient up to a bound,
    by ambient dimension."""
    ambients = sorted(classical_ambients(max_ambient_dim), key=lambda g: g.ambient_dim)
    return [phi for ambient in ambients for phi in supercuspidal_shapes(inventory, ambient)]


def discrete_parameters(inventory: Inventory, ambient: DualGroupDescriptor) -> list[LDParameter]:
    """All discrete parameters in ``ambient``: multiplicity-free sums of
    self-dual sign points tensored with SL2 factors of the ambient type."""
    slots = []  # per admissible summand: take it, or leave it out
    for cls in _self_dual_classes(inventory, ambient):
        for f in (ONE, MINUS_ONE):
            point = InertialPoint(cls, f)
            for a in range(1, ambient.ambient_dim // cls.dim + 1):
                if summand_type(point, a, ambient):
                    s = LDSummand(point, a)
                    slots.append(((s.dim, [s]), (0, [])))
    out = []
    for choice in _bounded_choices(slots, ambient.ambient_dim):
        if summands := [s for group in choice for s in group]:
            out.append(build_ld_parameter(summands, ambient))
    return out


def normed_corpus(inventory: Inventory, max_ambient_dim: int) -> list[LDParameter]:
    """All base-point-only parameters (every factor at f=1, no internal
    twisting) over the inventory, for every classical ambient group.  Each
    is the shared ``_normed`` object of its value, the one
    ``normed_parameter`` returns for it."""
    pairs: dict[str, list[InertialPoint]] = {}  # dual pairs by orbit label, sides in label order
    for cls in sorted(inventory, key=lambda c: c.label):
        if not cls.is_self_dual:
            pairs.setdefault(cls.orbit_label, []).append(InertialPoint(cls, ONE))
    out: list[LDParameter] = []
    for ambient in classical_ambients(max_ambient_dim):
        n = ambient.ambient_dim
        orbits = [[InertialPoint(c, ONE)] for c in _self_dual_classes(inventory, ambient)]
        slots = []  # per orbit: (dimension, key entries) for each multiplicity m
        for points in orbits + list(pairs.values()):
            d = sum(p.cls.dim for p in points)
            slots.append([(m * d, [(p, m) for p in points if m]) for m in range(n // d + 1)])
        for choice in _bounded_choices(slots, n):
            if entries := [entry for group in choice for entry in group]:
                out.append(_normed(ambient, tuple(sorted(entries, key=lambda entry: entry[0].cls.label))))
    return out


def normed_parameter(phi: LDParameter) -> LDParameter:
    """The associated normed Weil parameter: per class, the base point with
    the dimension-weighted orbit multiplicity, trivial on the SL2 side.  It
    is the shared ``_normed`` object of its value, so a ``normed_corpus``
    entry is its own normed parameter."""
    bases: dict[str, InertialPoint] = {}
    counts: dict[str, int] = {}
    for s in phi.summands:
        label = s.point.cls.label
        if label not in bases:
            bases[label] = s.point if s.point.f.is_one else InertialPoint(s.point.cls, ONE)
        counts[label] = counts.get(label, 0) + s.sl2_dim * s.multiplicity
    # the summands are sorted by point, so the labels come in label order
    return _normed(phi.ambient, tuple((bases[label], m) for label, m in counts.items()))


@cache
def _normed(ambient: DualGroupDescriptor, key: tuple[tuple[InertialPoint, int], ...]) -> LDParameter:
    """The normed parameter in ``ambient`` whose key holds, per class in
    label order, ``(base point, multiplicity)``.  One object per key and
    process, with its cached views: many parameters share one."""
    return build_ld_parameter([LDSummand(point, 1, m) for point, m in key], ambient)


# ---------------------------------------------------------------------------
# serialization


def parameter_to_json_dict(phi: LDParameter) -> dict:
    return {
        "ambient": {"family": phi.ambient.family.value, "dim": phi.ambient.ambient_dim},
        "summands": [
            {
                "class": s.point.cls.label,
                "f": s.point.f.to_json_dict(),
                "a": s.sl2_dim,
                "mult": s.multiplicity,
            }
            for s in phi.summands
        ],
    }


def parameter_from_json_dict(data: Mapping, inventory: Inventory) -> LDParameter:
    data = json_typed(data, dict, "parameter")
    raw = json_typed(json_field(data, "ambient", "parameter"), dict, "parameter.ambient")
    ambient = DualGroupDescriptor(
        json_value(json_field(raw, "family", "parameter.ambient"), Family, "parameter.ambient", "family"),
        json_value(json_field(raw, "dim", "parameter.ambient"), int, "parameter.ambient", "dim"),
    )
    summands = []
    for i, s in enumerate(json_typed(json_field(data, "summands", "parameter"), list, "parameter.summands")):
        at = ("parameter.summands", i)
        json_typed(s, dict, at)
        label = json_typed(json_field(s, "class", at), str, at, "class")
        cls = inventory.classes.get(label)
        if cls is None:
            raise ValueError(f"parameter.summands[{i}].class names no registered class: {label!r}")
        f = UnitMonomial.from_json_dict(json_field(s, "f", at), ("parameter.summands", i, "f"))
        a = json_value(json_field(s, "a", at), int, at, "a")
        mult = json_value(s.get("mult", 1), int, at, "mult")
        summands.append(LDSummand(InertialPoint(cls, f), a, mult))
    return build_ld_parameter(summands, ambient)
