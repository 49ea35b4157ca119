"""(s, u) triples of parameters, their component groups, and an exact
matrix oracle.

The triple of a parameter holds, per orbit block of its base parameter,
the eigenvalue multiset of the semisimple part s and the Jordan parts of
the unipotent part u at each eigenvalue; ``triple_to_parameter`` rebuilds
the parameter from it.  Everything is decided on canonical combinatorial
forms — eigenvalue multisets and partitions — with an exact integer
matrix oracle on the side.  One rule, ``_family_at``, names the family
(O, Sp or GL) of the centralizer factor at an eigenvalue of an orbit
block: the partition parities and the component group read it.  The
component group reads each block's family and class dimension from the
base parameter, as ``triple_to_parameter`` reads its classes there.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import MATRIX_DIM_CAP, CheckError
from .params import LDParameter, LDSummand, Orbit, build_ld_parameter, summand_type
from .weil import DualityType, Family, InertialPoint, UnitMonomial, _monomial

__all__ = [
    "Triple",
    "TripleComponentGroup",
    "parameter_to_triple",
    "triple_to_parameter",
    "component_group_of_triple",
    "CheckedBlocks",
    "check_matrices",
    "realize_matrices",
]


# ---------------------------------------------------------------------------
# (s, u) triples


def _canonical_value(x: UnitMonomial) -> UnitMonomial:
    return min(x, x.inverse())


def _family_at(orbit: Orbit, x: UnitMonomial) -> str:
    """Family of the centralizer factor at eigenvalue ``x`` of an orbit block:
    general linear on a dual pair and off the sign points, otherwise
    orthogonal or symplectic as the sign point has the ambient's type."""
    if orbit.types is None or not x.is_sign:
        return "GL"
    return "O" if orbit.types[x.sign == -1] else "Sp"


class Triple(NamedTuple):
    """Jordan data of a parameter: the semisimple class ``s``, per orbit
    block ``(block label, ((eigenvalue, multiplicity), ...))`` sorted by
    eigenvalue (the merged eigenvalue ladders, against which
    ``triple_to_parameter`` checks the ladders its Jordan parts imply), and
    the Jordan parts of each eigenblock.  Built by ``parameter_to_triple``."""

    s: tuple[tuple[str, tuple[tuple[UnitMonomial, int], ...]], ...]
    u_by_eigenblock: tuple[tuple[tuple[str, UnitMonomial], tuple[int, ...]], ...]


def _partition_ok(parts: Sequence[int], family: str) -> bool:
    if family == "GL":
        return True
    bad_parity = 0 if family == "O" else 1  # parts of this parity need even multiplicity
    return all(parts.count(a) % 2 == 0 for a in set(parts) if a % 2 == bad_parity)


def parameter_to_triple(phi: LDParameter, phi0: LDParameter) -> Triple:
    """Collect eigenvalue ladders and Jordan parts of a parameter.

    Per summand ``point (x) sp(a)`` the semisimple part receives the ladder
    ``f*q**((a-1)/2 - j)`` and the unipotent part of the f-eigenblock a part
    ``a``; block multiplicities and partition parities are validated against
    the orbit blocks of the base parameter ``phi0``.  Each ladder is walked
    by its doubled q-exponents and merged into its block's counts, keyed by
    the monomial's ints, as it is walked; a monomial is built once per
    distinct eigenvalue of a block."""
    blocks = phi0.orbit_by_label
    counts: dict[str, dict[tuple[int, int, int], int]] = {label: {} for label in blocks}
    raw_u: dict[tuple[str, UnitMonomial], list[int]] = {}
    for s in phi.summands:
        cls = s.point.cls
        label = cls.orbit_label
        if label not in blocks:
            raise ValueError(f"summand orbit {label!r} does not occur in the base parameter")
        if cls.label != label:
            continue  # the partner side of a dual pair mirrors the representative side
        a, x, mult = s.sl2_dim, s.point.f, s.multiplicity
        block, rn, d = counts[label], x.rn, x.d
        for e2 in range(x.e2 - a + 1, x.e2 + a, 2):  # the ladder x*q**((a-1)/2 - j), j < a
            block[rn, d, e2] = block.get((rn, d, e2), 0) + mult
        if cls.is_self_dual and not x.is_sign and x != _canonical_value(x):
            continue  # the inverse value carries the same parts
        raw_u.setdefault((label, x), []).extend([a] * mult)

    merged = []
    for label, orbit in blocks.items():
        block = counts[label]
        if sum(block.values()) != orbit.multiplicity:
            raise ValueError(
                f"block {label!r} has Weil multiplicity {sum(block.values())}, expected {orbit.multiplicity}"
            )
        values = sorted(((_monomial(*key), m) for key, m in block.items()), key=itemgetter(0))
        merged.append((label, tuple(values)))

    u = tuple((key, tuple(sorted(parts, reverse=True))) for key, parts in sorted(raw_u.items()))
    for (label, x), parts in u:
        if not _partition_ok(parts, _family_at(blocks[label], x)):
            raise ValueError(f"partition parity violated at block {label!r}, eigenvalue {x}")
    return Triple(tuple(merged), u)


def triple_to_parameter(t: Triple, phi0: LDParameter) -> LDParameter:
    """Rebuild the parameter from Jordan data; the semisimple part must
    match the ladders implied by the unipotent part exactly.

    A part ``a`` at eigenvalue ``x`` of block ``cls`` gives the summand
    ``(cls, x) (x) sp(a)`` and, unless ``x`` is a sign of a self-dual class,
    its contragredient at ``x**-1``: on ``cls`` itself, or on the partner
    class of a dual pair, read from the summands of ``phi0``.  The rebuilt
    summands' ladders, multiplicities and partition parities are checked
    by ``parameter_to_triple``."""
    classes = {s.point.cls.label: s.point.cls for s in phi0.summands}
    summands: list[LDSummand] = []
    for (label, x), parts in t.u_by_eigenblock:
        cls = classes.get(label)
        if cls is None:
            raise ValueError(f"triple block {label!r} does not occur in the base parameter")
        points = [InertialPoint(cls, x)]
        if not cls.is_self_dual:
            points.append(InertialPoint(classes[cls.duality.partner_label], x.inverse()))
        elif not x.is_sign:
            points.append(InertialPoint(cls, x.inverse()))
        for a in sorted(set(parts)):
            summands += [LDSummand(point, a, parts.count(a)) for point in points]
    phi = build_ld_parameter(summands, phi0.ambient)
    if parameter_to_triple(phi, phi0).s != t.s:
        raise ValueError("semisimple part violates the q-scaling relation of the Jordan data")
    return phi


class TripleComponentGroup(NamedTuple):
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


def component_group_of_triple(t: Triple, phi0: LDParameter) -> TripleComponentGroup:
    """One Z/2 per distinct part of the relevant parity in each O/Sp block.

    Orthogonal blocks contribute their distinct odd parts, symplectic
    blocks their distinct even parts; each generator carries the sign
    ``(-1)**(dim * part)`` used for the determinant-one restriction, with
    ``dim`` the dimension of the block's class.  The blocks are the orbit
    blocks of the base parameter ``phi0`` the triple was built against.
    """
    orbits = phi0.orbit_by_label
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
# a building block of the oracle, built once per shape and shared: a tuple of
# tuples, never mutated, and no check result
Block = tuple[tuple[int, ...], ...]


def _diagonal(values: Sequence[int]) -> Matrix:
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _scaled(a: Matrix, c: int) -> Matrix:
    return [[c * v for v in row] for row in a]


def _rescaled(left: Sequence[int], a: Matrix, right: Sequence[int]) -> Matrix:
    """diag(left) * a * diag(right): row i scaled by left[i], column j by right[j]."""
    return [[li * v * rj for v, rj in zip(row, right)] for li, row in zip(left, a)]


def _nonzero_columns(b: Matrix | Block) -> list[list[int]]:
    """The columns of the nonzero entries of each row of ``b``."""
    return [[j for j, v in enumerate(row) if v] for row in b]


@functools.cache
def _block_nonzero_columns(b: Block) -> tuple[tuple[int, ...], ...]:
    """``_nonzero_columns`` of a shared block, built once per block and shared."""
    return tuple(map(tuple, _nonzero_columns(b)))


def _mat_mul(a: Matrix | Block, b: Matrix | Block) -> Matrix:
    """a * b, walking each row of b through its nonzero columns (once per shared block)."""
    m = len(b[0])
    columns = _block_nonzero_columns(b) if type(b) is tuple else _nonzero_columns(b)
    out = []
    for row in a:
        acc = [0] * m
        for x, b_row, b_columns in zip(row, b, columns):
            if x:
                for j in b_columns:
                    acc[j] += x * b_row[j]
        out.append(acc)
    return out


def _mat_pow(a: Matrix, e: int) -> Matrix:
    """a**e by repeated squaring, as a new matrix: the identity for e = 0."""
    out = None
    base = a
    while e:
        if e % 2:
            out = base if out is None else _mat_mul(out, base)
        e //= 2
        if e:
            base = _mat_mul(base, base)
    if out is None:
        return _diagonal([1] * len(a))
    return [list(row) for row in a] if out is a else out


def _kron(a: Matrix, b: Matrix) -> Matrix:
    nb = len(b)
    b_entries = [(k, l, v) for k, row in enumerate(b) for l, v in enumerate(row) if v]
    out = [[0] * (len(a) * nb) for _ in range(len(a) * nb)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                for k, l, v in b_entries:
                    out[i * nb + k][j * nb + l] = x * v
    return out


def _transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


@functools.cache
def _unipotent(a: int, t: int, k: int) -> Block:
    """kron(t! exp(N), I_k) for the nilpotent Jordan block N of size
    a <= t + 1: t! exp(N) is the integer t!/(j-i)! at (i, j) on and above
    the diagonal."""
    u_a = [[math.factorial(t) // math.factorial(j - i) if j >= i else 0 for j in range(a)] for i in range(a)]
    return tuple(map(tuple, _kron(u_a, _diagonal([1] * k))))


@functools.cache
def _gram(a: int, k: int, alternating: bool) -> Block:
    """kron(g_a, g_k): g_a has the signs (-1)**i on the antidiagonal, g_k is
    the identity, or the standard alternating form (1 above the middle of
    the antidiagonal, -1 below) when ``alternating``."""
    g_a = [[(-1) ** i if i + j == a - 1 else 0 for j in range(a)] for i in range(a)]
    if not alternating:
        g_k = _diagonal([1] * k)
    else:
        g_k = [[(1 if i < k // 2 else -1) if i + j == k - 1 else 0 for j in range(k)] for i in range(k)]
    return tuple(map(tuple, _kron(g_a, g_k)))


def _assemble(blocks: Sequence[Matrix | Block], den: int) -> list[list[Fraction | int]]:
    """The block-diagonal matrix of ``blocks`` over ``den``, with one
    ``Fraction`` per distinct value and ``0`` for zero."""
    value = {v: Fraction(v, den) if v else 0 for v in {v for b in blocks for row in b for v in row}}
    n = sum(map(len, blocks))
    out = []
    off = 0
    for b in blocks:
        end = off + len(b)
        for row in b:
            full = [0] * n
            full[off:end] = map(value.__getitem__, row)
            out.append(full)
        off = end
    return out


# the matrix oracle's value of q: a square, so half-integral q-powers stay rational
SQRT_Q = 2
Q = SQRT_Q * SQRT_Q


class CheckedBlocks(NamedTuple):
    """The summand blocks of s, u and the Gram matrix G, one per summand:
    s = diag(``s_diag``) / ``s_den``, u = U / ``u_den`` with U block
    diagonal on ``u_blocks``, and G block diagonal on ``g_blocks``."""

    s_diag: list[int]
    s_den: int
    u_blocks: list[Block]
    u_den: int
    g_blocks: list[Block]


def check_matrices(phi: LDParameter) -> CheckedBlocks:
    """Check, block by block, exact matrices (s, u, gram) witnessing the
    q-scaling relation at q = ``Q``, and return the checked blocks.

    With t the largest SL2 dimension minus one, s = S / SQRT_Q**t,
    s**-1 = T / SQRT_Q**t and u = U / t! for integer matrices S, T and U;
    the Gram matrix G is integral.  Raises ``CheckError`` unless
    s u s**-1 = u**q and both s and u preserve G, and unless G is symmetric
    or alternating as the ambient family requires (the independent check of
    the tensor type rule).  The k = dim * multiplicity copies of a summand
    carry the form of its class's type tag, except that a summand which
    ``summand_type`` puts off the ambient's type and which has an even
    multiplicity carries a hyperbolic form on its multiplicity space; that
    gives the copies a form of the other parity, and the oracle takes the
    standard form of that parity (s and u act on the copies as scalars, so
    they preserve any form there).  With an odd multiplicity no such form
    exists, and the symmetry check fails.  S is diagonal and U and G are
    block diagonal, one block per summand, so each check holds on the whole
    matrices exactly when it holds on every block, and no matrix is
    assembled.  Each check is cross-multiplied by the denominators, whose
    products are worked out once per call: ``S U T`` (u_den**Q folded into
    T) against s_den**2 u_den ``U**Q``, ``S^T G S`` against s_den**2 G and
    ``U^T G U`` against u_den**2 G.  The products with S are row and column
    scalings, ``U**Q`` (by repeated squaring) and ``U^T G U`` sparse integer
    products.  The blocks of U and G, and the columns of their rows' nonzero
    entries, depend only on the block's shape: each is built once per
    process and shared, as tuples.  Every product, power, transpose and
    check runs on every block of every call, and the diagonal of S reads
    ``SQRT_Q`` on every call.  Raises ``ValueError`` on an ambient above
    ``MATRIX_DIM_CAP``, a unitary ambient, a summand off the self-dual sign
    points, or an odd-dimensional symplectic representation.
    """
    if phi.ambient.ambient_dim > MATRIX_DIM_CAP:
        raise ValueError(f"matrix oracle capped at ambient dimension {MATRIX_DIM_CAP}")
    if phi.ambient.family is Family.UNITARY_L:
        raise ValueError("matrix oracle covers the classical ambients only")
    if not phi.summands:
        return CheckedBlocks([], 1, [], 1, [])

    t = max(summand.sl2_dim for summand in phi.summands) - 1
    s_den, u_den = SQRT_Q**t, math.factorial(t)
    s_den2, u_den2 = s_den * s_den, u_den * u_den
    t_num, u_pow_den = s_den2 * u_den**Q, s_den2 * u_den
    form_sign = 1 if phi.ambient.family is Family.ORTHOGONAL else -1
    s_diag: list[int] = []
    u_blocks: list[Block] = []
    g_blocks: list[Block] = []
    for summand in phi.summands:
        cls = summand.point.cls
        a = summand.sl2_dim
        if not summand.point.is_self_dual_point:
            raise ValueError("matrix oracle needs self-dual sign points")
        f = summand.point.f.sign
        tag = cls.duality.type_at_plus if f == 1 else cls.duality.type_at_minus
        k = cls.dim * summand.multiplicity
        if tag is DualityType.SYMPLECTIC:
            if k % 2 != 0:
                raise ValueError("symplectic representation dimension must be even")
        elif tag is not DualityType.ORTHOGONAL:  # pragma: no cover - unitary ambients rejected earlier
            raise ValueError("conjugate-dual tags have no classical Gram form")
        # the ladder f q**((a-1)/2 - j), times SQRT_Q**t, each value k times
        s_b = [f * SQRT_Q ** (t + a - 1 - 2 * j) for j in range(a) for _ in range(k)]
        # a hyperbolic form on the multiplicity space flips the parity
        alternating = tag is DualityType.SYMPLECTIC
        if summand.multiplicity % 2 == 0 and not summand_type(summand.point, a, phi.ambient):
            alternating = not alternating
        u_b = _unipotent(a, t, k)
        g_b = _gram(a, k, alternating)

        # s**-1 is the diagonal T = s_den**2 / S, here times u_den**Q
        t_b = [t_num // v for v in s_b]
        if _rescaled(s_b, u_b, t_b) != _scaled(_mat_pow(u_b, Q), u_pow_den):
            raise CheckError("q-scaling relation fails")

        if _rescaled(s_b, g_b, s_b) != _scaled(g_b, s_den2):
            raise CheckError("Gram form not preserved")
        if _mat_mul(_mat_mul(_transpose(u_b), g_b), u_b) != _scaled(g_b, u_den2):
            raise CheckError("Gram form not preserved")

        # G^T = G or G^T = -G, both sides as lists of lists
        if _transpose(g_b) != _scaled(g_b, form_sign):
            raise CheckError("expected a symmetric form" if form_sign == 1 else "expected an alternating form")
        s_diag += s_b
        u_blocks.append(u_b)
        g_blocks.append(g_b)
    return CheckedBlocks(s_diag, s_den, u_blocks, u_den, g_blocks)


def realize_matrices(phi: LDParameter) -> tuple[list[list[Fraction | int]], ...]:
    """Exact matrices (s, u, gram) witnessing the q-scaling relation at
    q = ``Q``: the blocks of ``check_matrices``, checked as it checks them
    and with its errors, assembled into block-diagonal matrices.  The
    entries are ``Fraction``s, with ``0`` for zero; every call returns new
    lists."""
    b = check_matrices(phi)
    # s is diagonal: its blocks are 1 x 1
    return (
        _assemble([[[v]] for v in b.s_diag], b.s_den),
        _assemble(b.u_blocks, b.u_den),
        _assemble(b.g_blocks, 1),
    )
