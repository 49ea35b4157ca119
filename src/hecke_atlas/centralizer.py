"""Centralizer calculus in products of complex classical groups.

Everything is decided on canonical combinatorial forms — eigenvalue
multisets and partitions — with an exact integer matrix oracle on the
side.  One rule, ``_family_at``, names the family (O, Sp or GL) at an
eigenvalue of an orbit block.  ``centralizer_of_s`` builds from it, in one
pass, the two descriptors H and H' of a semisimple element (differing at
eigenvalue -1 on orbits whose two sign points have different types) and
the modified centralizer C'.  An (s, u) triple carries the orbit blocks of
its base parameter, so its component group reads each block's family and
class dimension from the triple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import CheckError
from .params import LDParameter, LDSummand, Orbit, build_ld_parameter, summand_type
from .weil import (
    DualityType,
    Family,
    Inventory,
    SelfDual,
    UnitMonomial,
    orbit_point,
)

__all__ = [
    "ClassicalGroupDescriptor",
    "ImageCentralizer",
    "SemisimpleClassDescriptor",
    "SCentralizerResult",
    "Triple",
    "TripleComponentGroup",
    "centralizer_of_image",
    "s_phi",
    "enumerate_s_classes",
    "centralizer_of_s",
    "c_prime",
    "parameter_to_triple",
    "triple_to_parameter",
    "component_group_of_triple",
    "realize_matrices",
    "triple_to_json_dict",
]


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class ClassicalGroupDescriptor:
    """Product of classical factors, each tagged by an eigenvalue block."""

    factors: tuple[tuple[str, int, str], ...]  # (family, size, block label)


@dataclass(frozen=True)
class ImageCentralizer:
    """Centralizer of a parameter image, with the ambient GL companion."""

    descriptor: ClassicalGroupDescriptor
    gl_descriptor: ClassicalGroupDescriptor
    has_det_restriction: bool


def _canonical_value(x: UnitMonomial) -> UnitMonomial:
    return min(x, x.inverse())


def centralizer_of_image(phi: LDParameter) -> ImageCentralizer:
    """Factor-by-factor centralizer of the image, per distinct summand.

    Self-dual summands of the ambient type give an orthogonal factor,
    self-dual summands of the other type a symplectic one; a summand and
    its contragredient share one general-linear factor.
    """
    factors: list[tuple[str, int, str]] = []
    gl_factors: list[tuple[str, int, str]] = []
    seen: set[tuple] = set()
    for s in phi.summands:
        cls = s.point.cls
        self_dual_pt = s.point.is_self_dual_point
        if self_dual_pt:
            key = (cls.label, s.point.f, s.sl2_dim)
        else:
            key = (cls.orbit_label, _canonical_value(s.point.f), s.sl2_dim)
        if key in seen:
            continue
        seen.add(key)
        label = f"{key[0]}@{key[1]}:sp{s.sl2_dim}"
        m = s.multiplicity
        if self_dual_pt:
            fam = "O" if summand_type(s.point, s.sl2_dim, phi.ambient) else "Sp"
            factors.append((fam, m, label))
            gl_factors.append(("GL", m, label))
        else:
            factors.append(("GL", m, label))
            gl_factors.append(("GL", m, label))
            gl_factors.append(("GL", m, label + "*"))
    return ImageCentralizer(
        ClassicalGroupDescriptor(tuple(sorted(factors))),
        ClassicalGroupDescriptor(tuple(sorted(gl_factors))),
        has_det_restriction=phi.ambient.family is Family.ORTHOGONAL,
    )


@dataclass(frozen=True)
class SemisimpleClassDescriptor:
    """Per orbit block, an eigenvalue multiset (value, multiplicity)."""

    blocks: tuple[tuple[str, tuple[tuple[UnitMonomial, int], ...]], ...]

    def block(self, label: str) -> tuple[tuple[UnitMonomial, int], ...]:
        for lab, values in self.blocks:
            if lab == label:
                return values
        return ()

    @staticmethod
    def build(raw: Mapping[str, Iterable[tuple[UnitMonomial, int]]]) -> "SemisimpleClassDescriptor":
        blocks = []
        for label in sorted(raw):
            merged: dict[UnitMonomial, int] = {}
            for x, m in raw[label]:
                merged[x] = merged.get(x, 0) + m
            blocks.append((label, tuple(sorted(merged.items()))))
        return SemisimpleClassDescriptor(tuple(blocks))


def s_phi(phi: LDParameter) -> SemisimpleClassDescriptor:
    """The semisimple class collecting the f-values of a Weil parameter."""
    raw: dict[str, list[tuple[UnitMonomial, int]]] = {}
    for s in phi.summands:
        if s.sl2_dim != 1:
            raise ValueError("s_phi expects a parameter trivial on the SL2 side")
        cls = s.point.cls
        if cls.label != cls.orbit_label:
            continue  # only the representative side of a dual pair
        raw.setdefault(cls.label, []).append((s.point.f, s.multiplicity))
    return SemisimpleClassDescriptor.build(raw)


def _family_at(orbit: Orbit, x: UnitMonomial) -> str:
    """Family of the centralizer factor at eigenvalue ``x`` of an orbit block:
    general linear on a dual pair and off the sign points, otherwise
    orthogonal or symplectic as the sign point has the ambient's type."""
    if orbit.types is None or not x.is_sign:
        return "GL"
    return "O" if orbit.types[x.sign == -1] else "Sp"


@dataclass(frozen=True)
class SCentralizerResult:
    h: ClassicalGroupDescriptor
    h_prime: ClassicalGroupDescriptor
    c_prime: ClassicalGroupDescriptor
    mixed_blocks: tuple[str, ...]
    m_minus_one_mixed: int

    @property
    def agree(self) -> bool:
        return self.h == self.h_prime


def centralizer_of_s(phi0: LDParameter, s: SemisimpleClassDescriptor) -> SCentralizerResult:
    """Centralizer of a semisimple class inside the image centralizer.

    ``h`` places at eigenvalue -1 the family of the -1 point of each orbit
    (the centralizer of the twisted parameter's image); ``h_prime`` keeps
    the ambient factor's family there.  They can only differ on orbits
    whose two sign points have different types, and then exactly when -1
    occurs as an eigenvalue.  ``c_prime`` is the modified centralizer: on
    those mixed-type orbits the unitary-dual rule is substituted
    (orthogonal at 1, symplectic at -1, general linear elsewhere); all
    other orbits keep the factors of ``h``.
    """
    one, minus_one = UnitMonomial.one(), UnitMonomial.minus_one()
    h: list[tuple[str, int, str]] = []
    hp: list[tuple[str, int, str]] = []
    cp: list[tuple[str, int, str]] = []
    mixed: list[str] = []
    m_minus_mixed = 0
    for orbit in phi0.orbits:
        label, m = orbit.cls.label, orbit.multiplicity
        values = dict(s.block(label))
        if sum(values.values()) != m:
            raise ValueError(f"eigenvalue multiplicities at block {label!r} do not sum to {m}")
        is_mixed = _family_at(orbit, one) != _family_at(orbit, minus_one)
        if is_mixed:
            mixed.append(label)
            m_minus_mixed += values.get(minus_one, 0)
        for x, mx in sorted(values.items()):
            if orbit.types is not None and not x.is_sign:
                if values.get(x.inverse(), 0) != mx:
                    raise ValueError(
                        f"eigenvalues at block {label!r} are not closed under inversion"
                    )
                if x != _canonical_value(x):
                    continue  # counted with its inverse
            fam = _family_at(orbit, x)
            at = f"{label}@{x}"
            h.append((fam, mx, at))
            hp.append((_family_at(orbit, one) if x.is_sign else fam, mx, at))
            if is_mixed and x.is_sign:
                fam = "O" if x == one else "Sp"
            cp.append((fam, mx, at))
    return SCentralizerResult(
        ClassicalGroupDescriptor(tuple(sorted(h))),
        ClassicalGroupDescriptor(tuple(sorted(hp))),
        ClassicalGroupDescriptor(tuple(sorted(cp))),
        tuple(mixed),
        m_minus_mixed,
    )


def c_prime(phi0: LDParameter, s: SemisimpleClassDescriptor) -> ClassicalGroupDescriptor:
    """The modified centralizer C' of ``centralizer_of_s``."""
    return centralizer_of_s(phi0, s).c_prime


PAIR_PALETTE = (
    UnitMonomial.of(0, Fraction(1, 2)),  # q**(1/2), paired with q**(-1/2)
    UnitMonomial.of(Fraction(1, 4), 0),  # i, paired with -i
)


def enumerate_s_classes(phi0: LDParameter, max_pair_mult: int = 2) -> list[SemisimpleClassDescriptor]:
    """Deterministic family of semisimple classes centralizing the image.

    Per orbit block the eigenvalue 1/-1 multiplicities and a few inverse
    pairs from a fixed palette are enumerated exhaustively.
    """
    blocks = phi0.orbits

    def block_choices(m: int) -> list[list[tuple[UnitMonomial, int]]]:
        out = []
        for p0 in range(0, min(max_pair_mult, m // 2) + 1):
            for p1 in range(0, min(max_pair_mult, (m - 2 * p0) // 2) + 1):
                rest = m - 2 * (p0 + p1)
                for m1 in range(rest + 1):
                    values: list[tuple[UnitMonomial, int]] = []
                    if m1:
                        values.append((UnitMonomial.one(), m1))
                    if rest - m1:
                        values.append((UnitMonomial.minus_one(), rest - m1))
                    for k, pk in ((0, p0), (1, p1)):
                        if pk:
                            values.append((PAIR_PALETTE[k], pk))
                            values.append((PAIR_PALETTE[k].inverse(), pk))
                    out.append(values)
        return out

    per_block = [block_choices(orbit.multiplicity) for orbit in blocks]
    out = []
    for combo in itertools.product(*per_block):
        out.append(
            SemisimpleClassDescriptor.build(
                {orbit.cls.label: values for orbit, values in zip(blocks, combo)}
            )
        )
    return out


# ---------------------------------------------------------------------------
# (s, u) triples


@dataclass(frozen=True)
class Triple:
    group: ClassicalGroupDescriptor
    s: SemisimpleClassDescriptor
    u_by_eigenblock: tuple[tuple[tuple[str, UnitMonomial], tuple[int, ...]], ...]
    orbits: tuple[Orbit, ...]  # the base parameter's orbit blocks


def _partition_ok(parts: Sequence[int], family: str) -> bool:
    if family == "GL":
        return True
    bad_parity = 0 if family == "O" else 1  # parts of this parity need even multiplicity
    counts: dict[int, int] = {}
    for a in parts:
        counts[a] = counts.get(a, 0) + 1
    return all(c % 2 == 0 for a, c in counts.items() if a % 2 == bad_parity)


def parameter_to_triple(phi: LDParameter, phi0: LDParameter) -> Triple:
    """Collect eigenvalue ladders and Jordan parts of a parameter.

    Per summand ``point (x) sp(a)`` the semisimple part receives the ladder
    ``f*q**((a-1)/2 - j)`` and the unipotent part of the f-eigenblock a part
    ``a``; partition parities are validated against the block families.
    """
    blocks = {orbit.cls.label: orbit for orbit in phi0.orbits}
    raw_s: dict[str, list[tuple[UnitMonomial, int]]] = {label: [] for label in blocks}
    raw_u: dict[tuple[str, UnitMonomial], list[int]] = {}
    for s in phi.summands:
        cls = s.point.cls
        label = cls.orbit_label
        if label not in blocks:
            raise ValueError(f"summand orbit {label!r} does not occur in the base parameter")
        if cls.label != label:
            continue  # the partner side of a dual pair mirrors the representative side
        a, x = s.sl2_dim, s.point.f
        for j in range(a):
            step = UnitMonomial.of(0, Fraction(a - 1, 2) - j)
            raw_s[label].append((x * step, s.multiplicity))
        if cls.is_self_dual and x != _canonical_value(x):
            continue  # the inverse value carries the same parts
        raw_u.setdefault((label, x), []).extend([a] * s.multiplicity)

    for label, orbit in blocks.items():
        total = sum(mult for _, mult in raw_s[label])
        if total != orbit.multiplicity:
            raise ValueError(
                f"block {label!r} has Weil multiplicity {total}, expected {orbit.multiplicity}"
            )

    u = tuple(
        (key, tuple(sorted(parts, reverse=True)))
        for key, parts in sorted(raw_u.items())
    )
    for (label, x), parts in u:
        if not _partition_ok(parts, _family_at(blocks[label], x)):
            raise ValueError(f"partition parity violated at block {label!r}, eigenvalue {x}")
    return Triple(
        centralizer_of_image(phi0).descriptor,
        SemisimpleClassDescriptor.build(raw_s),
        u,
        phi0.orbits,
    )


def triple_to_parameter(t: Triple, phi0: LDParameter, inventory: Inventory | None = None) -> LDParameter:
    """Rebuild the parameter from Jordan data; the semisimple part must
    match the ladders implied by the unipotent part exactly."""
    classes = {orbit.cls.label: orbit.cls for orbit in phi0.orbits}
    summands: list[LDSummand] = []
    for (label, x), parts in t.u_by_eigenblock:
        cls = classes[label]
        counts: dict[int, int] = {}
        for a in parts:
            counts[a] = counts.get(a, 0) + 1
        for a, mult in sorted(counts.items()):
            summands.append(LDSummand(orbit_point(cls, x), a, mult))
            if cls.is_self_dual:
                if not x.is_sign:
                    summands.append(LDSummand(orbit_point(cls, x.inverse()), a, mult))
            else:
                partner_label = cls.duality.partner_label
                if inventory is None:
                    raise ValueError("an inventory is required to rebuild dual-pair orbits")
                summands.append(LDSummand(orbit_point(inventory[partner_label], x.inverse()), a, mult))
    phi = build_ld_parameter(summands, phi0.ambient, inventory)
    rebuilt = parameter_to_triple(phi, phi0)
    if rebuilt.s != t.s:
        raise ValueError("semisimple part violates the q-scaling relation of the Jordan data")
    return phi


@dataclass(frozen=True)
class TripleComponentGroup:
    """Elementary abelian 2-group on eigenblock-partition generators."""

    generators: tuple[str, ...]
    det_signs: tuple[int, ...]

    @property
    def order(self) -> int:
        return 2 ** len(self.generators)

    @property
    def plus_order(self) -> int:
        """Order of the determinant-one subgroup."""
        if -1 in self.det_signs:
            return self.order // 2
        return self.order


def component_group_of_triple(t: Triple) -> TripleComponentGroup:
    """One Z/2 per distinct part of the relevant parity in each O/Sp block.

    Orthogonal blocks contribute their distinct odd parts, symplectic
    blocks their distinct even parts; each generator carries the sign
    ``(-1)**(dim * part)`` used for the determinant-one restriction, with
    ``dim`` the dimension of the block's class.
    """
    orbits = {orbit.cls.label: orbit for orbit in t.orbits}
    gens: list[str] = []
    dets: list[int] = []
    for (label, x), parts in t.u_by_eigenblock:
        orbit = orbits[label]
        fam = _family_at(orbit, x)
        if fam == "GL":
            continue
        want_parity = 1 if fam == "O" else 0
        for a in sorted(set(parts)):
            if a % 2 == want_parity:
                gens.append(f"{label}@{x}:part{a}")
                dets.append((-1) ** (orbit.cls.dim * a))
    return TripleComponentGroup(tuple(gens), tuple(dets))


# ---------------------------------------------------------------------------
# exact matrix oracle


# an integer matrix; the oracle's rational matrices are integer matrices M
# over one common denominator d, with value M / d
Matrix = list[list[int]]


def _diagonal(values: Sequence[int]) -> Matrix:
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _scaled(a: Matrix, c: int) -> Matrix:
    return [[c * v for v in row] for row in a]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            if a[i][t]:
                for j in range(m):
                    if b[t][j]:
                        out[i][j] += a[i][t] * b[t][j]
    return out


def _mat_pow(a: Matrix, e: int) -> Matrix:
    out = _diagonal([1] * len(a))
    base = a
    while e:
        if e % 2:
            out = _mat_mul(out, base)
        base = _mat_mul(base, base)
        e //= 2
    return out


def _kron(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    out = [[0] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(len(a[0])):
            if a[i][j]:
                for k in range(nb):
                    for l in range(len(b[0])):
                        out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def _transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def _block_diag(blocks: Sequence[Matrix]) -> Matrix:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out


def _exp_nilpotent(n_mat: Matrix, t: int) -> Matrix:
    """t! exp(N) for a nilpotent N of size at most t + 1: the series of
    (t!/k!) N**k, integral because N**k vanishes for k > t."""
    n = len(n_mat)
    out = _diagonal([math.factorial(t)] * n)
    term = _diagonal([1] * n)
    for k in range(1, n):
        term = _mat_mul(term, n_mat)
        if all(all(v == 0 for v in row) for row in term):
            break
        c = math.factorial(t) // math.factorial(k)
        for i in range(n):
            for j in range(n):
                out[i][j] += c * term[i][j]
    return out


# the matrix oracle's value of q: a square, so half-integral q-powers stay rational
SQRT_Q = 2
Q = SQRT_Q * SQRT_Q
MATRIX_DIM_CAP = 12  # largest ambient dimension the matrix oracle takes


def realize_matrices(phi: LDParameter) -> tuple[list[list[Fraction | int]], ...]:
    """Exact block matrices (s, u, gram) witnessing the q-scaling relation
    at q = ``Q``.

    With t the largest SL2 dimension minus one, s = S / SQRT_Q**t,
    s**-1 = T / SQRT_Q**t and u = U / t! for integer matrices S, T and U;
    the Gram matrix G is integral.  Raises ``CheckError`` unless
    s u s**-1 = u**q and both s and u preserve G, and unless G is symmetric
    or alternating as the ambient family requires (the independent check of
    the tensor type rule); each check is a dense integer product of the
    block-diagonal matrices, cross-multiplied by the denominators.  The
    returned entries are ``Fraction``s, with ``0`` for zero.
    """
    if phi.ambient.ambient_dim > MATRIX_DIM_CAP:
        raise ValueError(f"matrix oracle capped at ambient dimension {MATRIX_DIM_CAP}")
    if phi.ambient.family is Family.UNITARY_L:
        raise ValueError("matrix oracle covers the classical ambients only")
    if not phi.summands:
        return [], [], []

    t = max(summand.sl2_dim for summand in phi.summands) - 1
    s_blocks: list[Matrix] = []
    u_blocks: list[Matrix] = []
    g_blocks: list[Matrix] = []
    for summand in phi.summands:
        cls = summand.point.cls
        a = summand.sl2_dim
        if not summand.point.is_self_dual_point:
            raise ValueError("matrix oracle needs self-dual sign points")
        if not isinstance(cls.duality, SelfDual):  # pragma: no cover - guarded above
            raise ValueError("self-dual class required")
        f = summand.point.f.sign
        tag = cls.duality.type_at_plus if f == 1 else cls.duality.type_at_minus
        k = cls.dim * summand.multiplicity
        # the ladder f q**((a-1)/2 - j), times SQRT_Q**t
        s_a = _diagonal([f * SQRT_Q ** (t + a - 1 - 2 * j) for j in range(a)])
        n_a = [[int(j == i + 1) for j in range(a)] for i in range(a)]
        u_a = _exp_nilpotent(n_a, t)
        g_a = [[0] * a for _ in range(a)]
        for i in range(a):
            g_a[i][a - 1 - i] = (-1) ** i
        ident_k = _diagonal([1] * k)
        if tag is DualityType.ORTHOGONAL:
            g_k = ident_k
        elif tag is DualityType.SYMPLECTIC:
            if k % 2 != 0:
                raise ValueError("symplectic representation dimension must be even")
            g_k = [[0] * k for _ in range(k)]
            for i in range(k):
                g_k[i][k - 1 - i] = 1 if i < k // 2 else -1
        else:  # pragma: no cover - unitary ambients rejected earlier
            raise ValueError("conjugate-dual tags have no classical Gram form")
        s_blocks.append(_kron(s_a, ident_k))
        u_blocks.append(_kron(u_a, ident_k))
        g_blocks.append(_kron(g_a, g_k))

    s_mat = _block_diag(s_blocks)
    u_mat = _block_diag(u_blocks)
    g_mat = _block_diag(g_blocks)
    s_den, u_den = SQRT_Q**t, math.factorial(t)

    t_mat = _diagonal([s_den * s_den // s_mat[i][i] for i in range(len(s_mat))])
    left = _scaled(_mat_mul(_mat_mul(s_mat, u_mat), t_mat), u_den**Q)
    right = _scaled(_mat_pow(u_mat, Q), s_den * s_den * u_den)
    if left != right:
        raise CheckError("q-scaling relation fails")

    for m, den in ((s_mat, s_den), (u_mat, u_den)):
        if _mat_mul(_mat_mul(_transpose(m), g_mat), m) != _scaled(g_mat, den * den):
            raise CheckError("Gram form not preserved")

    gt = _transpose(g_mat)
    if phi.ambient.family is Family.ORTHOGONAL:
        if gt != g_mat:
            raise CheckError("expected a symmetric form")
    elif gt != _scaled(g_mat, -1):
        raise CheckError("expected an alternating form")
    return tuple(
        [[Fraction(v, den) if v else 0 for v in row] for row in m]
        for m, den in ((s_mat, s_den), (u_mat, u_den), (g_mat, 1))
    )


# ---------------------------------------------------------------------------
# serialization


def triple_to_json_dict(t: Triple) -> dict:
    return {
        "group": [list(f) for f in t.group.factors],
        "eigenvalues": [
            {"block": label, "values": [{"value": x.to_json_dict(), "mult": m} for x, m in values]}
            for label, values in t.s.blocks
        ],
        "partitions": {
            f"{label}@{x}": list(parts) for (label, x), parts in t.u_by_eigenblock
        },
    }
