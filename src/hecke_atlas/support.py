"""Enumeration of supercuspidal supports of a normed Weil parameter.

Starting from a normed parameter (every point at f = 1, trivial SL2 side),
we enumerate the admissible staircase-depth data ``S``, build the discrete
parameter ``phi^S`` carried by the classical tail of the Levi subgroup,
and form one record per support carrying the alternating characters
epsilon of its tail: the cuspidal pairs (S, epsilon) are each record's
characters in turn.  An injectivity report checks the pairs.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from . import CheckError
from .params import (
    LDParameter,
    SignCharacter,
    cuspidal_shape,
    depth_pairs,
    det_discrepancy,
    is_supercuspidal_shape,
    staircase,
)
from .weil import Family

__all__ = [
    "SupportDatum",
    "CuspidalSupport",
    "supports",
    "build_phi_S",
    "cuspidal_pairs",
    "injectivity_report",
]


class SupportDatum(NamedTuple):
    """Per self-dual orbit, staircase depths (a_plus, a_minus)."""

    entries: tuple[tuple[str, tuple[int, int]], ...]


class CuspidalSupport(NamedTuple):
    """A support with its tail data and the tail's alternating characters;
    each character makes one cuspidal pair (S, epsilon).

    The Levi is the GL blocks ``gl_factors`` (sizes with multiplicities)
    times the classical tail ``phi_S.ambient``, of dimension L_S and rank
    ``l_S``.
    """

    S: SupportDatum
    phi_S: LDParameter
    l_S: int
    d_S: int
    gl_factors: tuple[tuple[int, int], ...]
    epsilons: tuple[SignCharacter, ...]


def _check_normed(phi0: LDParameter) -> None:
    for s in phi0.summands:
        if not s.point.f.is_one:
            raise ValueError("parameter is not normed (a point has f != 1)")
        if s.sl2_dim != 1:
            raise ValueError("parameter has a nontrivial SL2 side")


def supports(phi0: LDParameter) -> list[SupportDatum]:
    """All admissible depth data, ordered lexicographically.

    Per orbit the staircase costs must not exceed the orbit multiplicity
    and must match its parity.
    """
    _check_normed(phi0)
    per_orbit: dict[str, list[tuple[int, int]]] = {}  # depth pairs by orbit label, in label order
    for orbit in phi0.orbits:
        if orbit.types is not None:
            m = orbit.multiplicity
            per_orbit[orbit.cls.label] = [(a, b) for cost, a, b in depth_pairs(orbit.types, m) if cost % 2 == m % 2]
    # the product of the sorted per-orbit lists, in label order, is lexicographic
    return [SupportDatum(tuple(zip(per_orbit, combo))) for combo in itertools.product(*per_orbit.values())]


def build_phi_S(phi0: LDParameter, S: SupportDatum) -> tuple[LDParameter, int, int]:
    """The discrete tail parameter of a support, with (l_S, d_S); L_S is
    ``phi_S.ambient.ambient_dim``.

    The tail depends only on the family and, per orbit of nonzero depth, on
    the class, its sign types and the depths: it is that key's
    ``cuspidal_shape``, one object per process, shared with the cuspidal
    shapes of the same key.  The checks and d_S run on every call.
    """
    _check_normed(phi0)
    key = []
    for label, (a_plus, a_minus) in S.entries:
        orbit = phi0.orbit_by_label.get(label)
        if orbit is None or orbit.types is None:
            raise ValueError(f"support names {label!r}, which labels no self-dual orbit of the parameter")
        m = orbit.multiplicity
        cost = staircase(a_plus, orbit.types[0])[1] + staircase(a_minus, orbit.types[1])[1]
        if cost > m or cost % 2 != m % 2:
            raise ValueError(f"support violates the bound or parity at orbit {label!r}")
        if a_plus or a_minus:  # an orbit of depths (0, 0) adds nothing to the tail
            key.append((orbit.cls, orbit.types, a_plus, a_minus))
    phi_S = cuspidal_shape(phi0.ambient.family, tuple(key))
    L_S = phi_S.ambient.ambient_dim
    l_S = L_S if phi0.ambient.family is Family.UNITARY_L else L_S // 2  # the rank of the tail group
    return phi_S, l_S, det_discrepancy(phi_S, phi0)


def _gl_factors(phi0: LDParameter, phi_S: LDParameter) -> tuple[tuple[int, int], ...]:
    """The Levi's GL block sizes with multiplicities, sorted; each orbit's
    share of the tail is that orbit's multiplicity in the tail."""
    gl: list[tuple[int, int]] = []
    for orbit in phi0.orbits:
        cls, m = orbit.cls, orbit.multiplicity
        if orbit.types is None:
            gl.append((cls.dim, m))
            continue
        share = phi_S.orbit_by_label.get(cls.label)
        m_pm = share.multiplicity if share is not None else 0
        if (m - m_pm) % 2 != 0:
            raise ValueError(f"non-integral GL multiplicity at orbit {cls.label!r}")
        if m > m_pm:
            gl.append((cls.dim, (m - m_pm) // 2))
    gl.sort()
    return tuple(gl)


def _epsilons(phi_S: LDParameter) -> tuple[SignCharacter, ...]:
    if not phi_S.summands:
        return (SignCharacter(()),)
    if not is_supercuspidal_shape(phi_S):
        raise CheckError("tail parameter is not of supercuspidal shape")
    return phi_S._characters


def cuspidal_pairs(phi0: LDParameter) -> list[CuspidalSupport]:
    """One record per support, in support order, carrying the alternating
    characters of its tail parameter; the cuspidal pairs (S, epsilon) are
    each record's characters in turn."""
    out: list[CuspidalSupport] = []
    for S in supports(phi0):
        phi_S, l_S, d_S = build_phi_S(phi0, S)
        out.append(CuspidalSupport(S, phi_S, l_S, d_S, _gl_factors(phi0, phi_S), tuple(_epsilons(phi_S))))
    return out


def injectivity_report(records: Sequence[CuspidalSupport]) -> dict:
    """Duplicate (GL factors, tail parameter, epsilon) keys, and degenerate
    flags; the tail parameter carries the rest of the Levi.

    Indices count the pairs (S, epsilon) in support order, each support's
    characters in turn.  Every pair of a support is flagged when the tail
    rank vanishes while more than one alternating character survives:
    distinctness of those supports is left open rather than decided.
    """
    pairs = [(p, eps) for p in records for eps in p.epsilons]
    by_key: dict[tuple, list[int]] = {}
    for i, (p, eps) in enumerate(pairs):
        by_key.setdefault((p.gl_factors, p.phi_S, eps), []).append(i)
    duplicates = [idx for idx in by_key.values() if len(idx) > 1]
    flagged = [i for i, (p, _) in enumerate(pairs) if p.l_S == 0 and len(p.epsilons) > 1]
    flagged_set = set(flagged)
    return {
        "total": len(pairs),
        "duplicates": duplicates,
        "flagged": flagged,
        "injective_outside_flagged": not any(set(idx) - flagged_set for idx in duplicates),
    }
