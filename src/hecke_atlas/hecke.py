"""Affine Hecke algebra descriptors attached to supercuspidal supports.

Per orbit of a normed parameter, a support determines a factor of an
extended affine Hecke algebra: a general-linear or classical root datum
together with exact q-power parameters (stored as half-integer exponent
multiples of the orbit torsion).  The explicit rank-by-rank tables for the
four unit settings are synthesized independently, with their sign buckets
and multiplicities, so the two roads can be compared.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from .params import LDParameter, LDSummand, build_ld_parameter, staircase
from .support import SupportDatum, cuspidal_pairs
from .weil import (
    ONE,
    DualGroupDescriptor,
    DualityType,
    Family,
    InertialClass,
    InertialPoint,
    SelfDual,
    half_integer_str,
)

__all__ = [
    "HeckeFactor",
    "SpecialRow",
    "hecke_factor",
    "hecke_descriptor",
    "sp_normalization",
    "specialize",
    "epsilon_multiplicity",
    "derived_rows",
    "unit_setting",
    "unipotent_reduction",
    "factor_to_json_dict",
]

# unit-setting kind -> its dual ambient at a rank
UNIT_AMBIENTS = {
    "so_odd": lambda rank: DualGroupDescriptor(Family.SYMPLECTIC, 2 * rank),
    "sp": lambda rank: DualGroupDescriptor(Family.ORTHOGONAL, 2 * rank + 1),
    "o_even": lambda rank: DualGroupDescriptor(Family.ORTHOGONAL, 2 * rank),
    "unitary": lambda rank: DualGroupDescriptor(Family.UNITARY_L, rank),
}
UNIT_KINDS = tuple(UNIT_AMBIENTS)


class HeckeFactor(NamedTuple):
    """One factor: root datum, optional Z/2 extension, exact parameters.

    Exponents are Fractions; an equal-parameter factor has all three equal.
    """

    family: str  # "GL" | "SO" | "Sp"
    size: int
    extended: bool
    t: int
    internal: Fraction
    end_long: Fraction
    end_short: Fraction


@functools.cache
def _equal(family: str, size: int, t: int, extended: bool = False) -> HeckeFactor:
    e = Fraction(t)
    return HeckeFactor(family, size, extended, t, e, e, e)


def hecke_factor(phi0: LDParameter, S: SupportDatum, orbit_label: str) -> HeckeFactor:
    """The algebra factor contributed by one orbit for one support.

    A factor depends only on a few ints, so each distinct one is built once
    per process (``_equal``, ``_self_dual_factor``) and shared; it is frozen.
    """
    orbit = phi0.orbit_by_label.get(orbit_label)
    if orbit is None:
        raise ValueError(f"{orbit_label!r} labels no orbit representative of the parameter")
    if orbit.types is None:
        return _equal("GL", orbit.multiplicity, orbit.cls.torsion)
    depths = next((d for label, d in S.entries if label == orbit_label), None)
    if depths is None:
        raise ValueError(f"support has no staircase depths for orbit {orbit_label!r}")
    return _self_dual_factor(orbit.multiplicity, orbit.cls.torsion, orbit.types, *depths)


@functools.cache
def _self_dual_factor(m: int, t: int, types: tuple[bool, bool], a_plus: int, a_minus: int) -> HeckeFactor:
    """The factor of a self-dual orbit of multiplicity ``m`` and torsion
    ``t`` whose +1 and -1 points have ``types``, at staircase depths
    ``(a_plus, a_minus)``."""
    plus_type, minus_type = types
    if plus_type and minus_type and a_plus == 0 and a_minus == 0:
        return _equal("SO", m, t, extended=True)

    kappa_plus = 0 if plus_type else 1
    kappa_minus = 0 if minus_type else 1
    m_pm = staircase(a_plus, plus_type)[1] + staircase(a_minus, minus_type)[1]
    size = m - m_pm + 1
    if size % 2 != 1:
        raise ValueError("odd-rank invariant violated in the unequal-parameter case")
    # t * (a_plus + a_minus + (kappa_plus + kappa_minus) / 2), likewise short, on ints
    long = Fraction(t * (2 * (a_plus + a_minus) + kappa_plus + kappa_minus), 2)
    short = Fraction(t * abs(2 * (a_plus - a_minus) + kappa_plus - kappa_minus), 2)
    return HeckeFactor("SO", size, False, t, Fraction(t), long, short)


def hecke_descriptor(phi0: LDParameter, S: SupportDatum) -> tuple[tuple[str, HeckeFactor], ...]:
    """One ``(orbit label, factor)`` pair per orbit of the parameter (dual
    pairs count once)."""
    return tuple((o.cls.label, hecke_factor(phi0, S, o.cls.label)) for o in phi0.orbits)


def sp_normalization(f: HeckeFactor) -> HeckeFactor:
    """Rewrite the zero-depth unequal-parameter factor on its Sp root datum.

    That factor has odd orthogonal type with end exponents (t, 0); the
    equivalent datum is Sp of one less rank with equal parameters.  All
    other factors pass through unchanged.
    """
    if f.family == "SO" and not f.extended and f.end_short == 0 and f.end_long == f.internal == f.t:
        return _equal("Sp", f.size - 1, f.t)
    return f


# ---------------------------------------------------------------------------
# explicit rank-by-rank tables


class SpecialRow(NamedTuple):
    pair: tuple[int, int]
    factor: HeckeFactor
    bucket: int  # +1 / -1 sign bucket, 0 when the table is unbucketed
    multiplicity: int


def _check_unit(kind: str, rank: int) -> None:
    """The input check of both roads: a known kind and a rank of at least 1."""
    if kind not in UNIT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if rank < 1:
        raise ValueError("rank must be >= 1")


def _indices(bound: int, kappa: int) -> Iterator[tuple[int, int]]:
    """(a, a(a+kappa)) with a(a+kappa) <= bound."""
    a = 0
    while a * (a + kappa) <= bound:
        yield a, a * (a + kappa)
        a += 1


def epsilon_multiplicity(d_plus: int, d_minus: int, sign: int) -> int:
    """Closed-form multiplicities for the square-indexed settings."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for d in (d_plus, d_minus):
        if d < 0 or math.isqrt(d) ** 2 != d:
            raise ValueError("indices must be perfect squares")
    if sign == 1:
        if d_plus == 0 and d_minus == 0:
            return 1
        s = d_plus + d_minus
        if d_plus % 2 == 0 and s % 8 == 0 and d_plus * d_minus != 0:
            return 4
        if d_plus % 2 == 0 and s % 4 == 0 and s % 8 != 0:
            return 0
        return 2
    if d_plus == 0 and d_minus == 0:
        return 0
    plus = epsilon_multiplicity(d_plus, d_minus, 1)
    if d_plus * d_minus != 0:
        return 4 - plus
    return 2 - plus


def specialize(kind: str, rank: int) -> list[SpecialRow]:
    """Explicit table of one unit setting: pairs, factors, buckets, counts."""
    _check_unit(kind, rank)

    def unequal(size: int, long, short) -> HeckeFactor:
        return HeckeFactor("SO", size, False, 1, Fraction(1), Fraction(long), Fraction(short))

    rows: list[SpecialRow] = []
    if kind == "so_odd":
        n = 2 * rank
        for a_plus, d_plus in _indices(n, 1):
            for a_minus, d_minus in _indices(n - d_plus, 1):
                s = d_plus + d_minus
                if s == 0:
                    factor = _equal("Sp", n, 1)
                else:
                    factor = unequal(n + 1 - s, a_plus + a_minus + 1, abs(a_plus - a_minus))
                bucket = 1 if (s // 2) % 2 == 0 else -1
                rows.append(SpecialRow((d_plus, d_minus), factor, bucket, 1))

    elif kind in ("sp", "o_even"):
        n = 2 * rank + 1 if kind == "sp" else 2 * rank
        for a_plus, d_plus in _indices(n, 0):
            for a_minus, d_minus in _indices(n - d_plus, 0):
                s = d_plus + d_minus
                if s % 2 != n % 2:
                    continue
                if kind == "o_even" and s == 0:
                    factor = _equal("SO", n, 1, extended=True)
                else:
                    size = n + 1 - s if s % 2 == 0 else n + 2 - s
                    factor = unequal(size, a_plus + a_minus, abs(a_plus - a_minus))
                if kind == "sp":
                    rows.append(SpecialRow((d_plus, d_minus), factor, 0, 2))
                else:
                    for sign in (1, -1):
                        mult = epsilon_multiplicity(d_plus, d_minus, sign)
                        if mult:
                            rows.append(SpecialRow((d_plus, d_minus), factor, sign, mult))

    else:  # unitary, rank = m
        m = rank
        for a_plus, d_plus in _indices(m, 0):
            if d_plus % 2 != m % 2:
                continue
            for a_minus, d_minus in _indices(m - d_plus, 1):
                s = d_plus + d_minus
                # s has the parity of m, so this is SO of rank (m - s + 1) // 2
                # in both the odd and the even case
                factor = unequal(m + 1 - s, a_plus + a_minus + Fraction(1, 2), abs(a_plus - a_minus - Fraction(1, 2)))
                if m % 2 == 1:
                    for sign in (1, -1):
                        rows.append(SpecialRow((d_plus, d_minus), factor, sign, 1))
                else:
                    bucket = 1 if (d_plus // 2) % 2 == 0 else -1
                    rows.append(SpecialRow((d_plus, d_minus), factor, bucket, 2 if d_plus else 1))

    rows.sort(key=lambda r: (r.pair, -r.bucket))
    return rows


# ---------------------------------------------------------------------------
# derived side: the unit settings built from first principles


def unit_setting(kind: str, rank: int) -> LDParameter:
    """Normed parameter of a unit (trivial-class) setting."""
    _check_unit(kind, rank)
    if kind != "unitary":
        duality = SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL)
    elif rank % 2 == 0:
        duality = SelfDual(DualityType.CONJUGATE_SYMPLECTIC, DualityType.CONJUGATE_ORTHOGONAL)
    else:
        duality = SelfDual(DualityType.CONJUGATE_ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC)
    ambient = UNIT_AMBIENTS[kind](rank)
    cls = InertialClass("1", 1, 1, duality, "1")
    return build_ld_parameter([LDSummand(InertialPoint(cls, ONE), 1, ambient.ambient_dim)], ambient)


def _support_pair(phi0: LDParameter, S: SupportDatum) -> tuple[int, int]:
    (orbit,) = phi0.orbits
    a_plus, a_minus = dict(S.entries)[orbit.cls.label]
    plus_type, minus_type = orbit.types
    return staircase(a_plus, plus_type)[1], staircase(a_minus, minus_type)[1]


def derived_rows(kind: str, rank: int) -> list[SpecialRow]:
    """First-principles table of one unit setting, in ``specialize``'s rows.

    One row per (pair, normalized factor, eps_Z) that some support's
    alternating characters reach, its multiplicity the number of them;
    sorted as tuples.
    """
    phi0 = unit_setting(kind, rank)
    counts: dict[tuple, int] = {}
    for p in cuspidal_pairs(phi0):
        pair = _support_pair(phi0, p.S)
        factor = sp_normalization(hecke_factor(phi0, p.S, "1"))
        for eps in p.epsilons:
            key = (pair, factor, eps.eps_Z)
            counts[key] = counts.get(key, 0) + 1
    return sorted(SpecialRow(pair, factor, sign, n) for (pair, factor, sign), n in counts.items())


# ---------------------------------------------------------------------------
# unipotent reduction


def unipotent_reduction(phi0: LDParameter) -> list[tuple[str, int, int]]:
    """Per orbit: the reductive group over the unramified extension.

    Returns (family tag, size, extension degree) triples: general linear
    for non-self-dual orbits, odd orthogonal / symplectic / even orthogonal
    for the pure self-dual cases split by the orbit multiplicity parity,
    and unramified quasi-split unitary in the mixed-type case.
    """
    out: list[tuple[str, int, int]] = []
    for orbit in phi0.orbits:
        m = orbit.multiplicity
        t = orbit.cls.torsion
        if orbit.types is None:
            out.append(("GL", m, t))
            continue
        plus_type, minus_type = orbit.types
        if plus_type and minus_type:
            out.append(("Sp", m - 1, t) if m % 2 == 1 else ("O", m, t))
        elif not plus_type and not minus_type:
            out.append(("SO", m + 1, t))
        else:
            out.append(("U", m, t))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# serialization


def factor_to_json_dict(f: HeckeFactor) -> dict:
    return {
        "family": f.family,
        "size": f.size,
        "extended": f.extended,
        "t": f.t,
        "internal": half_integer_str(f.internal),
        "endLong": half_integer_str(f.end_long),
        "endShort": half_integer_str(f.end_short),
    }
