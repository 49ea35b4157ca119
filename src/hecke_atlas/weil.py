"""Symbolic inertial classes of irreducible Weil-group representations.

An inertial class is described by purely combinatorial data (dimension,
torsion number, duality behaviour).  A point of its unramified twisting
orbit is tagged by an exact unit monomial ``c * q**e`` (``c`` a root of
unity, ``e`` a half-integer), held as three integers with ``Fraction``
views.  An orbit's base point, with invariant ``+1``, is input data (a
choice, never computed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Mapping, NamedTuple, Union

__all__ = [
    "Family",
    "DualityType",
    "DualGroupDescriptor",
    "NotSelfDual",
    "SelfDual",
    "InertialClass",
    "UnitMonomial",
    "InertialPoint",
    "Inventory",
    "ONE",
    "MINUS_ONE",
    "is_of_type",
    "sign_types",
    "half_integer_str",
    "read_json_file",
    "json_typed",
    "json_field",
    "json_value",
]


def _path_text(path: str | tuple, key: str | None = None) -> str:
    """A JSON path as text: ``("inventory", 0)`` with key ``"dim"`` is
    ``inventory[0].dim``; a str path is taken as it is.

    The decoders pass a path as its parts and build the text only for an
    error message.
    """
    if isinstance(path, tuple):
        parts, path = path[1:], path[0]
        for part in parts:
            path += f"[{part}]" if type(part) is int else f".{part}"
    return path if key is None else f"{path}.{key}"


def json_typed(value, kind: type, path: str | tuple, key: str | None = None):
    """``value`` if it is a ``kind`` (dict, list or str), else a ValueError
    naming ``path`` (``path.key`` when a key is given)."""
    if not isinstance(value, kind):
        raise ValueError(f"{_path_text(path, key)} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def read_json_file(path, what: str):
    """The JSON value in the file at ``path``; a ValueError naming the file
    as ``what`` if it nests too deeply to decode."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError(f"{what} nests too deeply to decode") from None


def json_field(data: Mapping, key: str, path: str | tuple):
    """``data[key]``; a missing key is a ValueError naming ``path`` and ``key``."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{_path_text(path)}: missing key {key!r}") from None


def json_value(value, kind: type, path: str | tuple, key: str | None = None):
    """``value`` as an int or an Enum member (looked up by value); a bad value
    is a ValueError naming ``path`` (``path.key`` when a key is given).

    An int field takes only a JSON integer: a bool, float or string is refused.
    """
    if kind is int:
        if type(value) is int:
            return value
    else:
        try:
            member = kind._value2member_map_.get(value)
        except TypeError:  # unhashable
            member = None
        if member is not None:
            return member
    raise ValueError(f"{_path_text(path, key)} is not a valid {kind.__name__}: {value!r}")


# the largest decimal exponent of a fraction string: CPython's default limit on
# the digits of an int read from a string
_MAX_EXPONENT = 4300


def _json_fraction(value, path: str | tuple, key: str) -> tuple[int, int]:
    """A JSON int, or a string ``Fraction`` accepts, as ``(numerator, denominator)``
    with a positive denominator; a bad value is a ValueError naming ``path.key``.

    A string ``-?digits/digits`` (ASCII digits) is read with ``int`` alone and
    is not reduced; any other string goes through ``Fraction`` unless its
    decimal exponent exceeds ``_MAX_EXPONENT`` in size.  A bool or a float
    is refused.
    """
    try:
        if type(value) is int:
            return value, 1
        if type(value) is str:
            num, slash, den = value.partition("/")
            if slash and value.isascii() and den.isdigit() and (num[1:] if num[:1] == "-" else num).isdigit():
                d = int(den)
                if d:
                    return int(num), d
            e = max(value.rfind("e"), value.rfind("E"))
            if e >= 0 and abs(int(value[e + 1 :])) > _MAX_EXPONENT:
                raise ValueError
            f = Fraction(value)
            return f.numerator, f.denominator
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{_path_text(path, key)} is not a valid Fraction: {value!r}")


class Family(str, Enum):
    """Families of ambient dual groups."""

    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"
    UNITARY_L = "unitary_l"


class DualityType(str, Enum):
    """Self-duality type of an irreducible representation."""

    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"
    CONJUGATE_ORTHOGONAL = "conjugate_orthogonal"
    CONJUGATE_SYMPLECTIC = "conjugate_symplectic"

    @property
    def conjugate_flavour(self) -> bool:
        return self in (
            DualityType.CONJUGATE_ORTHOGONAL,
            DualityType.CONJUGATE_SYMPLECTIC,
        )


@dataclass(frozen=True)  # a dataclass: __post_init__ validates the dimension
class DualGroupDescriptor:
    """Ambient (dual) group receiving parameters, with its standard embedding.

    ``ambient_dim`` is the size N of the standard representation.  For the
    symplectic family N must be even; the orthogonal family covers both the
    odd case (dual of a symplectic group) and the even case.
    """

    family: Family
    ambient_dim: int

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError("ambient_dim must be >= 0")
        if self.family is Family.SYMPLECTIC and self.ambient_dim % 2 != 0:
            raise ValueError("symplectic ambient dimension must be even")


class NotSelfDual(NamedTuple):
    partner_label: str


class SelfDual(NamedTuple):
    type_at_plus: DualityType
    type_at_minus: DualityType


Duality = Union[NotSelfDual, SelfDual]


@total_ordering
class UnitMonomial:
    """Exact value ``exp(2*pi*i*root) * q**q_exponent``.

    Held as three ints: the root ``rn/d``, reduced with ``0 <= rn < d``, and
    the doubled q-exponent ``e2``.  ``root`` and ``q_exponent`` are their
    ``Fraction`` views.  All arithmetic is exact, so equality is decidable;
    the order is that of ``(root, q_exponent)``.
    """

    __slots__ = ("rn", "d", "e2")

    def __init__(self, root: Fraction | int | str, q_exponent: Fraction | int | str) -> None:
        root, qexp = Fraction(root), Fraction(q_exponent)
        if qexp.denominator not in (1, 2):
            raise ValueError("q_exponent must be a half-integer")
        _set_rn(self, root.numerator % root.denominator)  # still coprime to d
        _set_d(self, root.denominator)
        _set_e2(self, 2 * qexp.numerator // qexp.denominator)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _monomial, (self.rn, self.d, self.e2)

    @property
    def root(self) -> Fraction:
        return Fraction(self.rn, self.d)

    @property
    def q_exponent(self) -> Fraction:
        return Fraction(self.e2, 2)

    # -- comparison: cross-multiplied roots, then q-exponents -----------
    def __eq__(self, other):
        if type(other) is not UnitMonomial:
            return NotImplemented
        return self.rn == other.rn and self.d == other.d and self.e2 == other.e2

    def __hash__(self) -> int:
        return hash((self.rn, self.d, self.e2))

    def __lt__(self, other):
        if type(other) is not UnitMonomial:
            return NotImplemented
        return (self.rn * other.d, self.e2) < (other.rn * self.d, other.e2)

    # -- arithmetic ---------------------------------------------------
    def __mul__(self, other: "UnitMonomial") -> "UnitMonomial":
        d, od = self.d, other.d
        return _monomial(self.rn * od + other.rn * d, d * od, self.e2 + other.e2)

    def inverse(self) -> "UnitMonomial":
        return _monomial(-self.rn, self.d, -self.e2)

    def __pow__(self, n: int) -> "UnitMonomial":
        return _monomial(self.rn * n, self.d, self.e2 * n)

    # -- predicates ---------------------------------------------------
    @property
    def is_one(self) -> bool:
        return not self.rn and not self.e2

    @property
    def is_minus_one(self) -> bool:
        # the root is reduced and in [0, 1), so denominator 2 means root = 1/2
        return self.d == 2 and not self.e2

    @property
    def is_sign(self) -> bool:
        # the reduced root in [0, 1) is 0 or 1/2 exactly when d is 1 or 2
        return not self.e2 and self.d <= 2

    @property
    def sign(self) -> int:
        """Return +1/-1 for the two sign values; error otherwise."""
        if self.e2 or self.d > 2:
            raise ValueError(f"{self!r} is not a sign")
        return 1 if self.d == 1 else -1

    # -- serialization ------------------------------------------------
    def to_json_dict(self) -> dict:
        return {"root": f"{self.rn}/{self.d}", "qexp": f"{self.e2}/2"}

    @staticmethod
    def from_json_dict(data: Mapping, path: str | tuple = "monomial") -> "UnitMonomial":
        """Read ``{"root": ..., "qexp": ...}``; ``path`` (a str, or parts as
        for ``json_typed``) names the dict in errors."""
        json_typed(data, dict, path)
        rn, rd = _json_fraction(json_field(data, "root", path), path, "root")
        qn, qd = _json_fraction(json_field(data, "qexp", path), path, "qexp")
        if 2 * qn % qd:
            raise ValueError("q_exponent must be a half-integer")
        return _monomial(rn, rd, 2 * qn // qd)

    def __repr__(self) -> str:
        return f"UnitMonomial(root={self.root!r}, q_exponent={self.q_exponent!r})"

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        if self.is_minus_one:
            return "-1"
        return f"zeta^({self.root})*q^({self.q_exponent})"


_set_rn, _set_d, _set_e2 = (UnitMonomial.__dict__[s].__set__ for s in UnitMonomial.__slots__)  # skip __setattr__


def _monomial(n: int, d: int, e2: int) -> UnitMonomial:
    """``zeta^(n/d) * q^(e2/2)`` for any ints with ``d > 0``, built from ints alone."""
    g = gcd(n, d)
    d //= g
    m = object.__new__(UnitMonomial)
    _set_rn(m, n // g % d)
    _set_d(m, d)
    _set_e2(m, e2)
    return m


# +1 and -1, shared because the class is immutable
ONE = UnitMonomial(Fraction(0), Fraction(0))
MINUS_ONE = UnitMonomial(Fraction(1, 2), Fraction(0))


@dataclass(frozen=True)  # a dataclass: __post_init__ validates and sets the orbit data
class InertialClass:
    """An inertial class of an irreducible Weil-group representation.

    ``dim`` is the dimension of any member, ``torsion`` the order of the
    stabilizer of the class under unramified twisting.  ``det_base`` is an
    opaque identifier for the inertial data of the determinant character;
    nothing in the package reads it.  It only passes through the inventory
    JSON: the determinant bookkeeping (``LDParameter._determinant``) keys
    the ramified exponents by orbit label.

    Construction checks the data: ``dim`` and ``torsion`` positive, a
    partner label for a dual pair, type tags of one flavour for a self-dual
    class, and a ``duality`` of one of the two kinds (else ``TypeError``).
    ``is_self_dual`` and ``orbit_label`` (the label of the orbit's
    representative: the class itself, or the smaller label of a dual pair)
    are set once at construction; they are not fields, so equality, hash
    and repr see only the five fields.
    """

    label: str
    dim: int
    torsion: int
    duality: Duality
    det_base: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.torsion < 1:
            raise ValueError("torsion must be positive")
        duality = self.duality
        if isinstance(duality, NotSelfDual):
            if not duality.partner_label:
                raise ValueError("a non-self-dual class needs a partner label")
            is_self_dual, orbit_label = False, min(self.label, duality.partner_label)
        elif isinstance(duality, SelfDual):
            if duality.type_at_plus.conjugate_flavour is not duality.type_at_minus.conjugate_flavour:
                raise ValueError("cannot mix conjugate-dual and plain self-dual type tags")
            is_self_dual, orbit_label = True, self.label
        else:
            raise TypeError("duality must be NotSelfDual or SelfDual")
        object.__setattr__(self, "is_self_dual", is_self_dual)
        object.__setattr__(self, "orbit_label", orbit_label)

    def __hash__(self) -> int:
        return hash(self.label)


class InertialPoint(NamedTuple):
    """A point of the twisting orbit of an inertial class: the unique orbit
    element with twisting invariant ``f``."""

    cls: InertialClass
    f: UnitMonomial

    @property
    def is_self_dual_point(self) -> bool:
        return self.cls.is_self_dual and self.f.is_sign

    def __hash__(self) -> int:
        f = self.f
        return hash((self.cls.label, f.rn, f.d, f.e2))

    def sort_key(self):
        """Label, root and q-exponent as (numerator, denominator): q^1 sorts before q^(1/2)."""
        f, half = self.f, self.f.e2 % 2
        return (self.cls.label, f.rn, f.d, f.e2 if half else f.e2 // 2, 1 + half)


def is_of_type(p: InertialPoint, g: DualGroupDescriptor) -> bool:
    """Whether the (self-dual) point has the same type as the ambient group."""
    if not isinstance(p.cls.duality, SelfDual):
        raise ValueError(f"point of class {p.cls.label!r} is not self-dual")
    if not p.f.is_sign:
        raise ValueError(f"point with f={p.f} is not self-dual")
    return _tag_is_of_type(p.cls.duality.type_at_plus if p.f.sign == 1 else p.cls.duality.type_at_minus, g)


def _tag_is_of_type(tag: DualityType, g: DualGroupDescriptor) -> bool:
    """Whether a self-dual representation with type ``tag`` has the ambient's type."""
    if g.family is Family.UNITARY_L:
        if not tag.conjugate_flavour:
            raise ValueError("a unitary ambient group needs conjugate-dual type tags")
        if g.ambient_dim % 2 == 0:
            return tag is DualityType.CONJUGATE_SYMPLECTIC
        return tag is DualityType.CONJUGATE_ORTHOGONAL
    if tag.conjugate_flavour:
        raise ValueError("conjugate-dual type tags need a unitary ambient group")
    if g.family is Family.ORTHOGONAL:
        return tag is DualityType.ORTHOGONAL
    return tag is DualityType.SYMPLECTIC


def sign_types(cls: InertialClass, g: DualGroupDescriptor) -> tuple[bool, bool]:
    """Whether the +1 and the -1 point of a self-dual class have the ambient's type."""
    if not isinstance(cls.duality, SelfDual):
        raise ValueError(f"point of class {cls.label!r} is not self-dual")
    return _tag_is_of_type(cls.duality.type_at_plus, g), _tag_is_of_type(cls.duality.type_at_minus, g)


def half_integer_str(e: Fraction) -> str:
    """A half-integer as the string ``"n/2"``."""
    return f"{2 * e.numerator // e.denominator}/2"


@dataclass(repr=False, eq=False)  # a dataclass: a mutable registry
class Inventory:
    """A registry of inertial classes, keyed by label."""

    classes: dict[str, InertialClass] = field(default_factory=dict)

    def add(self, cls: InertialClass) -> InertialClass:
        if cls.label in self.classes:
            raise ValueError(f"duplicate class label {cls.label!r}")
        self.classes[cls.label] = cls
        return cls

    def __getitem__(self, label: str) -> InertialClass:
        try:
            return self.classes[label]
        except KeyError:
            raise KeyError(f"class {label!r} not registered") from None

    def __contains__(self, label: str) -> bool:
        return label in self.classes

    def __iter__(self):
        return iter(self.classes.values())

    def validate(self) -> None:
        """Check that non-self-dual partner references name another class
        and are symmetric."""
        for cls in self:
            if isinstance(cls.duality, NotSelfDual):
                if cls.duality.partner_label == cls.label:
                    raise ValueError(f"non-self-dual class {cls.label!r} names itself as its partner")
                partner = self[cls.duality.partner_label]
                if not isinstance(partner.duality, NotSelfDual):
                    raise ValueError(f"partner of {cls.label!r} must be non-self-dual")
                if partner.duality.partner_label != cls.label:
                    raise ValueError(f"partner references of {cls.label!r} are not symmetric")
                if partner.dim != cls.dim or partner.torsion != cls.torsion:
                    raise ValueError(f"partner of {cls.label!r} has mismatched dim/torsion")

    # -- serialization ------------------------------------------------
    def to_json_list(self) -> list:
        out = []
        for cls in sorted(self, key=lambda c: c.label):
            if isinstance(cls.duality, NotSelfDual):
                duality = {"kind": "not_self_dual", "partner": cls.duality.partner_label}
            else:
                duality = {
                    "kind": "self_dual",
                    "type_plus": cls.duality.type_at_plus.value,
                    "type_minus": cls.duality.type_at_minus.value,
                }
            out.append(
                {
                    "label": cls.label,
                    "dim": cls.dim,
                    "torsion": cls.torsion,
                    "duality": duality,
                    "det_base": cls.det_base,
                }
            )
        return out

    @staticmethod
    def from_json_list(data: list) -> "Inventory":
        inv = Inventory()
        for i, entry in enumerate(json_typed(data, list, "inventory")):
            at, duality_at = ("inventory", i), ("inventory", i, "duality")
            json_typed(entry, dict, at)
            raw = json_typed(json_field(entry, "duality", at), dict, duality_at)
            kind = json_field(raw, "kind", duality_at)
            duality: Duality
            if kind == "not_self_dual":
                partner = json_field(raw, "partner", duality_at)
                duality = NotSelfDual(json_typed(partner, str, duality_at, "partner"))
            elif kind == "self_dual":
                plus = json_value(json_field(raw, "type_plus", duality_at), DualityType, duality_at, "type_plus")
                minus = json_value(json_field(raw, "type_minus", duality_at), DualityType, duality_at, "type_minus")
                duality = SelfDual(plus, minus)
            else:
                raise ValueError(f"inventory[{i}].duality.kind must be 'self_dual' or 'not_self_dual', got {kind!r}")
            inv.add(
                InertialClass(
                    json_typed(json_field(entry, "label", at), str, at, "label"),
                    json_value(json_field(entry, "dim", at), int, at, "dim"),
                    json_value(json_field(entry, "torsion", at), int, at, "torsion"),
                    duality,
                    json_typed(entry.get("det_base", ""), str, at, "det_base"),
                )
            )
        for i, cls in enumerate(inv):
            partner = getattr(cls.duality, "partner_label", None)
            if partner is not None and partner not in inv.classes:
                raise ValueError(f"inventory[{i}].duality.partner names no registered class: {partner!r}")
            if partner == cls.label:
                raise ValueError(f"inventory[{i}].duality.partner names the class itself: {partner!r}")
        inv.validate()
        return inv

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_list(), handle, indent=2)
            handle.write("\n")

    @staticmethod
    def load(path) -> "Inventory":
        return Inventory.from_json_list(read_json_file(path, "inventory file"))
