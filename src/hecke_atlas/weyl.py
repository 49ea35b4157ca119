"""Signed-permutation Weyl group combinatorics for even orthogonal groups.

Brute-force verification playground: the full group W of signed
permutations (with its index-2 subgroup W0 of even sign changes), relative
Weyl groups of standard Levis, stabilizers of orbit decorations, and the
semidirect decomposition of the latter into a reflection part and a
positivity-preserving complement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import CheckError

__all__ = [
    "SignedPermutation",
    "LeviDescriptor",
    "RelativeWeyl",
    "OrbitStabilizers",
    "weyl_group",
    "relative_weyl",
    "orbit_stabilizers",
    "enumerate_levis",
    "enumerate_decorations",
]

BRUTE_FORCE_CAP = 5


@dataclass(frozen=True, order=True)
class SignedPermutation:
    """e_i |-> signs[i] * e_{perm[i]} on coordinates 1..n (0-indexed storage)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        # (self*other) acts by other first
        perm, signs = self.perm, self.signs
        return SignedPermutation(
            tuple([perm[p] for p in other.perm]),
            tuple([s * signs[p] for s, p in zip(other.signs, other.perm)]),
        )

    def inverse(self) -> "SignedPermutation":
        n = len(self.perm)
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPermutation(tuple(perm), tuple(signs))

    @property
    def is_even(self) -> bool:
        return self.signs.count(-1) % 2 == 0

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(n)), (1,) * n)


def _check_cap(n: int) -> None:
    if not 1 <= n <= BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_CAP}")


def weyl_group(n: int, full: bool = True) -> list[SignedPermutation]:
    """All signed permutations of n letters; W0 when ``full`` is false."""
    _check_cap(n)
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            w = SignedPermutation(perm, signs)
            if full or w.is_even:
                out.append(w)
    return out


@dataclass(frozen=True)
class LeviDescriptor:
    """GL blocks (sizes, in coordinate order) followed by a classical tail.

    ``decorations`` optionally attaches to each block an orbit label and a
    self-duality flag; equal labels must sit on equal-size blocks and agree
    on the flag.
    """

    composition: tuple[int, ...]
    tail_rank: int
    decorations: Optional[tuple[tuple[str, bool], ...]] = None

    def __post_init__(self) -> None:
        if any(k < 1 for k in self.composition):
            raise ValueError("block sizes must be positive")
        if self.tail_rank < 0:
            raise ValueError("tail rank must be nonnegative")
        if self.decorations is not None:
            if len(self.decorations) != len(self.composition):
                raise ValueError("one decoration per block required")
            by_label: dict[str, tuple[int, bool]] = {}
            for k, (label, sd) in zip(self.composition, self.decorations):
                if label in by_label and by_label[label] != (k, sd):
                    raise ValueError(f"label {label!r} decorates inconsistent blocks")
                by_label[label] = (k, sd)

    @property
    def rank(self) -> int:
        return sum(self.composition) + self.tail_rank

    def blocks(self) -> list[range]:
        out = []
        start = 0
        for k in self.composition:
            out.append(range(start, start + k))
            start += k
        return out


def _min_lift_parity(move: SignedPermutation, levi: LeviDescriptor) -> int:
    """Parity of the least number of sign changes among lifts of a move."""
    return sum(k for k, s in zip(levi.composition, move.signs) if s == -1) % 2


@dataclass(frozen=True)
class RelativeWeyl:
    cosets: tuple[SignedPermutation, ...]  # block moves = W^M cosets in N(M)
    even_cosets: tuple[SignedPermutation, ...]

    @property
    def equal(self) -> bool:
        return set(self.cosets) == set(self.even_cosets)


def relative_weyl(levi: LeviDescriptor, n: int) -> RelativeWeyl:
    """Normalizer cosets of a Levi, with their even-liftable part.

    Brute force over all of W: an element normalizes the Levi when it maps
    tail coordinates to tail coordinates and each block onto an equal-size
    block with one sign; its coset is the induced signed permutation of the
    blocks.  The permutation part of that test does not look at signs, so a
    permutation that fails it rejects all of its 2**n elements at once.
    """
    if levi.rank != n:
        raise ValueError("Levi rank does not match n")
    _check_cap(n)
    blocks = [tuple(blk) for blk in levi.blocks()]
    block_of = [-1] * n
    for bi, blk in enumerate(blocks):
        for c in blk:
            block_of[c] = bi
    tail = range(n - levi.tail_rank, n)
    all_signs = list(itertools.product((1, -1), repeat=n))
    moves: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for perm in itertools.permutations(range(n)):
        if any(block_of[perm[c]] != -1 for c in tail):
            continue
        targets = []
        for blk in blocks:
            bj = block_of[perm[blk[0]]]
            if bj == -1 or len(blocks[bj]) != len(blk) or any(block_of[perm[c]] != bj for c in blk):
                break
            targets.append(bj)
        else:
            block_perm = tuple(targets)
            for signs in all_signs:
                if all(signs[c] == signs[blk[0]] for blk in blocks for c in blk):
                    moves.add((block_perm, tuple(signs[blk[0]] for blk in blocks)))
    cosets = tuple(SignedPermutation(perm, signs) for perm, signs in sorted(moves))
    even = tuple(m for m in cosets if levi.tail_rank >= 1 or _min_lift_parity(m, levi) == 0)
    return RelativeWeyl(cosets, even)


def _stabilizes_decorations(move: SignedPermutation, levi: LeviDescriptor) -> bool:
    if levi.decorations is None:
        raise CheckError("decorations required")
    for i, (label, self_dual) in enumerate(levi.decorations):
        j = move.perm[i]
        if levi.decorations[j][0] != label:
            return False
        if move.signs[i] == -1 and not self_dual:
            return False
    return True


# -- block-axis root system (type B positive system) ------------------------


def _roots(r: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(r):
        v = [0] * r
        v[i] = 1
        out.append(tuple(v))
        for j in range(i + 1, r):
            for sj in (1, -1):
                v = [0] * r
                v[i], v[j] = 1, sj
                out.append(tuple(v))
    return out  # positive roots only


def _apply(move: SignedPermutation, root: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(root)
    for i, c in enumerate(root):
        if c:
            out[move.perm[i]] += c * move.signs[i]
    return tuple(out)


def _reflection(root: Sequence[int], r: int) -> SignedPermutation:
    support = [i for i, c in enumerate(root) if c]
    perm = list(range(r))
    signs = [1] * r
    if len(support) == 1:
        signs[support[0]] = -1
    else:
        i, j = support
        perm[i], perm[j] = j, i
        if root[i] == root[j]:  # e_i + e_j
            signs[i] = signs[j] = -1
    return SignedPermutation(tuple(perm), tuple(signs))


def _closure(generators: Iterable[SignedPermutation], r: int) -> set[SignedPermutation]:
    """The group generated: breadth-first over right products by a generator."""
    gens = list(generators)
    frontier = [SignedPermutation.identity(r)]
    group = set(frontier)
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                x = g * s
                if x not in group:
                    group.add(x)
                    new.append(x)
        frontier = new
    return group


def _non_normalizing(
    q: Iterable[SignedPermutation], gens: Sequence[SignedPermutation], group: set[SignedPermutation]
) -> Optional[SignedPermutation]:
    """The first m of q with m*s*m^-1 outside ``group`` for a generator s of
    it, or None.  Generators suffice: conjugation by m is an automorphism, so
    it maps the group generated into ``group`` once it maps each generator
    there."""
    for m in q:
        mi = m.inverse()
        if any(m * s * mi not in group for s in gens):
            return m
    return None


def _factorizes(
    target: set[SignedPermutation], w0_o: set[SignedPermutation], complement: Sequence[SignedPermutation]
) -> tuple[bool, Optional[SignedPermutation]]:
    """Whether ``target`` is the set of products x*rho (x in w0_o, rho in the
    complement), each hit once; if not, an element it misses or overshoots
    (None when only a repeated product is wrong)."""
    products = {x * rho for x in w0_o for rho in complement}
    if products == target and len(products) == len(w0_o) * len(complement):
        return True, None
    return False, min(products ^ target, default=None)


@dataclass(frozen=True)
class OrbitStabilizers:
    group: tuple[SignedPermutation, ...]  # W(M, O) as block moves
    even_group: tuple[SignedPermutation, ...]  # W0(M, O)
    reflection_part: tuple[SignedPermutation, ...]  # W0_O
    complement: tuple[SignedPermutation, ...]  # R(O)
    even_complement: tuple[SignedPermutation, ...]  # R0(O)
    semidirect_ok: bool
    counterexample: Optional[SignedPermutation]

    @property
    def equal(self) -> bool:
        return set(self.group) == set(self.even_group)


def orbit_stabilizers(levi: LeviDescriptor, rel: RelativeWeyl) -> OrbitStabilizers:
    """Stabilizer of the decoration data, with its semidirect splitting.

    ``rel`` is the relative Weyl group of the undecorated Levi, so one
    ``relative_weyl`` scan serves every decoration of it.
    """
    if levi.decorations is None:
        raise ValueError("decorations required")
    even = set(rel.even_cosets)
    q = sorted(m for m in rel.cosets if _stabilizes_decorations(m, levi))
    q0 = [m for m in q if m in even]
    q0_set = set(q0)
    r = len(levi.composition)

    sigma_pos = []
    gens = []
    for root in _roots(r):
        s = _reflection(root, r)
        if s in q0_set:
            sigma_pos.append(root)
            gens.append(s)
    w0_o = _closure(gens, r)

    # R(O): the moves sending each positive root of sigma to one (sigma_pos
    # holds positive roots only, so membership is the positivity test too)
    sigma = set(sigma_pos)
    complement = [m for m in q if all(_apply(m, root) in sigma for root in sigma_pos)]
    even_complement = [m for m in complement if m in q0_set]

    # normality of the reflection part, then unique factorization of the
    # stabilizer and of its even part
    bad = _non_normalizing(q, gens, w0_o)
    ok = bad is None
    if ok:
        ok, bad = _factorizes(set(q), w0_o, complement)
    if ok:
        ok, bad = _factorizes(q0_set, w0_o, even_complement)

    return OrbitStabilizers(
        tuple(q),
        tuple(q0),
        tuple(sorted(w0_o)),
        tuple(complement),
        tuple(even_complement),
        ok,
        bad,
    )


# ---------------------------------------------------------------------------
# enumeration of Levis and decorations


def enumerate_levis(n: int) -> list[LeviDescriptor]:
    out = []
    for tail in range(n + 1):
        rest = n - tail

        def comps(total: int) -> list[tuple[int, ...]]:
            if total == 0:
                return [()]
            result = []
            for first in range(1, total + 1):
                for more in comps(total - first):
                    result.append((first,) + more)
            return result

        for comp in comps(rest):
            if comp or tail:
                out.append(LeviDescriptor(comp, tail))
    return out


def enumerate_decorations(levi: LeviDescriptor, max_labels: int = 3) -> list[LeviDescriptor]:
    """All decoration assignments with up to ``max_labels`` labels, up to
    renaming; equal labels must sit on equal-size blocks."""
    r = len(levi.composition)
    if r == 0:
        return [LeviDescriptor(levi.composition, levi.tail_rank, ())]
    out = []
    seen = set()
    for labels in itertools.product(range(max_labels), repeat=r):
        # canonical by first occurrence
        remap: dict[int, int] = {}
        canon = []
        for l in labels:
            if l not in remap:
                remap[l] = len(remap)
            canon.append(remap[l])
        canon_t = tuple(canon)
        if canon_t != labels:
            continue
        sizes: dict[int, int] = {}
        consistent = True
        for k, l in zip(levi.composition, canon_t):
            if sizes.setdefault(l, k) != k:
                consistent = False
                break
        if not consistent:
            continue
        used = sorted(set(canon_t))
        for flags in itertools.product((False, True), repeat=len(used)):
            flag_of = dict(zip(used, flags))
            dec = tuple((f"o{l}", flag_of[l]) for l in canon_t)
            key = (canon_t, flags)
            if key in seen:
                continue
            seen.add(key)
            out.append(LeviDescriptor(levi.composition, levi.tail_rank, dec))
    return out
