"""Signed-permutation Weyl group combinatorics for even orthogonal groups.

Brute-force verification playground: the full group W of signed
permutations (with its index-2 subgroup W0 of even sign changes), relative
Weyl groups of standard Levis, stabilizers of orbit decorations, and the
semidirect decomposition of the latter into a reflection part and a
positivity-preserving complement.

An element is one tuple ``img`` of signed images: entry i is ``+(j + 1)``
or ``-(j + 1)`` when e_i goes to ``+e_j`` or ``-e_j``.  The relative Weyl
groups, the stabilizers and their parts are tuples of these, and the group
checks run on them (``_mul``, ``_inverse``, ordered by ``_sort_key``).
``SignedPermutation`` wraps one such tuple, with ``perm`` and ``signs`` as
views of it; it is the element type of ``weyl_group``.

What stays brute force: ``relative_weyl`` accepts or rejects every element
of W (every permutation, against the sign vectors that are constant on the
blocks, found once per Levi by scanning all 2**n of them); a stabilizer is
every coset that preserves the decorations; the reflection part is the
closure of its reflections; normality of the reflection part is checked by
conjugation on a generating set of the stabilizer, grown by right products;
and each factorization is checked by forming every product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, total_ordering
from typing import Iterable, Optional, Sequence

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

BRUTE_FORCE_CAP = 6
MAX_LABELS = 3  # orbit labels per decoration, up to renaming


@total_ordering
class SignedPermutation:
    """e_i |-> signs[i] * e_{perm[i]} on coordinates 1..n (0-indexed ``perm``).

    Held as ``img``, with ``img[i] = signs[i] * (perm[i] + 1)``.  Immutable;
    the order is that of ``(perm, signs)``.
    """

    __slots__ = ("img",)

    def __init__(self, perm: Sequence[int], signs: Sequence[int]) -> None:
        perm, signs = tuple(perm), tuple(signs)
        if sorted(perm) != list(range(len(perm))) or len(signs) != len(perm) or not set(signs) <= {1, -1}:
            raise ValueError(f"not a signed permutation: perm={perm!r}, signs={signs!r}")
        _set_img(self, tuple([s * (p + 1) for p, s in zip(perm, signs)]))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _signed, (self.img,)

    @property
    def perm(self) -> tuple[int, ...]:
        return tuple([abs(x) - 1 for x in self.img])

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple([1 if x > 0 else -1 for x in self.img])

    def sort_key(self) -> tuple[int, ...]:
        return _sort_key(self.img)

    def __eq__(self, other):
        if type(other) is not SignedPermutation:
            return NotImplemented
        return self.img == other.img

    def __hash__(self) -> int:
        return hash(self.img)

    def __lt__(self, other):
        if type(other) is not SignedPermutation:
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"SignedPermutation(perm={self.perm!r}, signs={self.signs!r})"

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return _signed(_mul(self.img, other.img))

    def inverse(self) -> "SignedPermutation":
        return _signed(_inverse(self.img))

    @property
    def is_even(self) -> bool:
        return sum(x < 0 for x in self.img) % 2 == 0

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return _signed(tuple(range(1, n + 1)))


_set_img = SignedPermutation.__dict__["img"].__set__  # skip __setattr__


def _signed(img: tuple[int, ...]) -> SignedPermutation:
    """The signed permutation with signed images ``img``, taken unchecked."""
    m = object.__new__(SignedPermutation)
    _set_img(m, img)
    return m


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The signed images of a*b, which acts by b first."""
    return tuple([a[x - 1] if x > 0 else -a[-x - 1] for x in b])


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a, 1):
        if x > 0:
            out[x - 1] = i
        else:
            out[-x - 1] = -i
    return tuple(out)


def _sort_key(img: tuple[int, ...]) -> tuple[int, ...]:
    """``|img|`` then ``img``: the order of ``(perm, signs)``, since for
    equal ``perm`` the sign -1 gives the smaller signed image."""
    return tuple(map(abs, img)) + img


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


def _min_lift_parity(move: tuple[int, ...], levi: LeviDescriptor) -> int:
    """Parity of the least number of sign changes among lifts of a move."""
    return sum(k for k, x in zip(levi.composition, move) if x < 0) % 2


@dataclass(frozen=True)
class RelativeWeyl:
    # block moves = W^M cosets in N(M), as signed images of the blocks,
    # sorted by ``_sort_key``; then those that an even element lifts
    cosets: tuple[tuple[int, ...], ...]
    even_cosets: tuple[tuple[int, ...], ...]

    @property
    def equal(self) -> bool:
        return set(self.cosets) == self.even_imgs

    @cached_property
    def by_block_perm(self) -> dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]:
        """The cosets by block permutation ``|img|``, each with the bit mask
        of the blocks it negates.  The cosets are sorted by ``_sort_key``,
        which orders by ``|img|`` first, so the groups come in that order
        and any run of them, concatenated, stays sorted."""
        groups = {}
        for m in sorted(self.cosets, key=_sort_key):
            negated = sum(1 << i for i, x in enumerate(m) if x < 0)
            groups.setdefault(tuple(map(abs, m)), []).append((negated, m))
        return groups

    @cached_property
    def even_imgs(self) -> frozenset[tuple[int, ...]]:
        """The even cosets, as a set."""
        return frozenset(self.even_cosets)


def relative_weyl(levi: LeviDescriptor, n: int) -> RelativeWeyl:
    """Normalizer cosets of a Levi, with their even-liftable part.

    Brute force over all of W: an element normalizes the Levi when it maps
    tail coordinates to tail coordinates and each block onto an equal-size
    block with one sign; its coset is the induced signed permutation of the
    blocks.  The test splits into a permutation part and a sign part: a
    permutation that fails its part rejects all of its 2**n elements at
    once, and the sign vectors that pass theirs (one sign per block) do not
    depend on the permutation, so they are found once per Levi.
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
    block_signs = {
        tuple(signs[blk[0]] for blk in blocks)
        for signs in itertools.product((1, -1), repeat=n)
        if all(signs[c] == signs[blk[0]] for blk in blocks for c in blk)
    }
    block_perms: set[tuple[int, ...]] = set()
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
            block_perms.add(tuple(targets))
    # sorted as (perm, signs) pairs, which is the order of the moves
    cosets = tuple(
        tuple([s * (p + 1) for p, s in zip(perm, signs)])
        for perm, signs in sorted(itertools.product(block_perms, block_signs))
    )
    even = tuple(m for m in cosets if levi.tail_rank >= 1 or _min_lift_parity(m, levi) == 0)
    return RelativeWeyl(cosets, even)


def _decorated_cosets(
    decorations: Sequence[tuple[str, bool]],
    by_block_perm: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]],
) -> list[tuple[int, ...]]:
    """The cosets that keep the decorations: each block goes to a block with
    the same label, negated only if that label is self-dual.  The label test
    runs once per block permutation, the sign test per coset that passes it;
    the cosets come in the order of ``by_block_perm``."""
    labels = [label for label, _ in decorations]
    label_at = [None, *labels].__getitem__  # 1-based, as perm is
    fixed = sum(1 << i for i, (_, self_dual) in enumerate(decorations) if not self_dual)
    out = []
    for perm, group in by_block_perm.items():
        if list(map(label_at, perm)) == labels:
            out += [m for negated, m in group if not negated & fixed]
    return out


# -- block-axis root system (type B positive system) ------------------------


@cache
def _reflections(r: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each positive root, as its signed coordinates, with the signed images
    of its reflection: for each a in 1..r, e_a, then for each b > a, e_a + e_b
    and e_a - e_b.  A root sum of c_i e_i has the signed coordinates
    ``(i + 1) * c_i`` for its nonzero c_i, in the order of i."""
    one = list(range(1, r + 1))
    out = []
    for a in one:
        img = one.copy()
        img[a - 1] = -a
        out.append(((a,), tuple(img)))
        for b in one[a:]:
            for s in (1, -1):  # e_a + e_b swaps and negates both; e_a - e_b swaps
                img = one.copy()
                img[a - 1], img[b - 1] = -s * b, -s * a
                out.append(((a, s * b), tuple(img)))
    return tuple(out)


def _grow(group: set[tuple[int, ...]], gens: list[tuple[int, ...]], g: tuple[int, ...]) -> None:
    """Extend ``group``, generated by ``gens``, to the group generated by
    ``gens`` and ``g`` (not in ``group``), in place; ``g`` joins ``gens``.

    The new group is a union of right cosets ``group * x``, found by right
    products of their representatives by a generator (Dimino's algorithm):
    ``group`` itself is closed under the old generators, so the search
    starts from the coset of ``g``.
    """
    old = list(group)
    gens.append(g)
    group.update([_mul(h, g) for h in old])
    reps = [g]
    for x in reps:
        for s in gens:
            y = _mul(x, s)
            if y not in group:
                group.update([_mul(h, y) for h in old])
                reps.append(y)


def _closure(generators: Iterable[tuple[int, ...]], r: int) -> set[tuple[int, ...]]:
    """The group generated, one generator at a time."""
    group = {tuple(range(1, r + 1))}
    gens: list[tuple[int, ...]] = []
    for g in generators:
        if g not in group:
            _grow(group, gens, g)
    return group


def _non_normalizing(
    q: Iterable[tuple[int, ...]], gens: Sequence[tuple[int, ...]], group: set[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """The first m of q with m*s*m^-1 outside ``group`` for a generator s of
    it, or None; ``group`` is the group ``gens`` generate.

    Generators of ``group`` suffice: conjugation by m is an automorphism, so
    it maps the group generated into ``group`` once it maps each generator
    there.  And only a generating set of q is conjugated: the elements that
    normalize ``group`` form a group.  An element of q becomes a generator
    when it lies outside the span of the generators before it, so each
    element before the first failing generator lies in the span of passing
    ones and passes too: that generator is the first failing element of q.
    """
    span: set[tuple[int, ...]] = set()
    picked: list[tuple[int, ...]] = []
    for m in q:
        if not span:
            span.add(tuple(range(1, len(m) + 1)))
        if m in span:
            continue
        mi = _inverse(m)
        if any(_mul(_mul(m, s), mi) not in group for s in gens):
            return m
        _grow(span, picked, m)
    return None


def _factorizes(
    target: set[tuple[int, ...]], w0_o: set[tuple[int, ...]], complement: Sequence[tuple[int, ...]]
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether ``target`` is the set of products x*rho (x in w0_o, rho in the
    complement), each hit once; if not, the least element it misses or
    overshoots (None when only a repeated product is wrong)."""
    products = {_mul(x, rho) for x in w0_o for rho in complement}
    if products == target and len(products) == len(w0_o) * len(complement):
        return True, None
    return False, min(products ^ target, key=_sort_key, default=None)


def _complement(q: Iterable[tuple[int, ...]], sigma_pos: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """R(O): the moves of q that send each positive root of sigma, given in
    ``sigma_pos`` as signed coordinates, to a positive root of sigma.

    A move maps signed coordinates as it maps signed images, so the image of
    a root is ``_mul(m, root)``, with its coordinates in either order.
    ``sigma_pos`` holds positive roots only, so membership is the positivity
    test too.
    """
    sigma = {*sigma_pos, *[root[::-1] for root in sigma_pos]}
    return [m for m in q if all(_mul(m, root) in sigma for root in sigma_pos)]


@dataclass(frozen=True)
class OrbitStabilizers:
    # each part as the signed images of its block moves, in ``_sort_key`` order
    group: tuple[tuple[int, ...], ...]  # W(M, O)
    even_group: tuple[tuple[int, ...], ...]  # W0(M, O)
    reflection_part: tuple[tuple[int, ...], ...]  # W0_O
    complement: tuple[tuple[int, ...], ...]  # R(O)
    even_complement: tuple[tuple[int, ...], ...]  # R0(O)
    semidirect_ok: bool
    counterexample: Optional[tuple[int, ...]]  # where the splitting first fails

    @property
    def equal(self) -> bool:
        return set(self.group) == set(self.even_group)


def orbit_stabilizers(levi: LeviDescriptor, rel: RelativeWeyl) -> OrbitStabilizers:
    """Stabilizer of the decoration data, with its semidirect splitting.

    ``rel`` is the relative Weyl group of the undecorated Levi, so one
    ``relative_weyl`` scan serves every decoration of it; a ``rel`` whose
    cosets move another number of blocks raises ``ValueError``.
    """
    if levi.decorations is None:
        raise ValueError("decorations required")
    r = len(levi.composition)
    if any(len(perm) != r for perm in rel.by_block_perm):
        raise ValueError(f"rel is not the relative Weyl group of a Levi with {r} blocks")
    q = _decorated_cosets(levi.decorations, rel.by_block_perm)
    q0 = [m for m in q if m in rel.even_imgs]
    q0_set = set(q0)

    sigma_pos = []
    gens = []
    for root, s in _reflections(r):
        if s in q0_set:
            sigma_pos.append(root)
            gens.append(s)
    w0_o = _closure(gens, r)
    complement = _complement(q, sigma_pos)
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
        tuple(sorted(w0_o, key=_sort_key)),
        tuple(complement),
        tuple(even_complement),
        ok,
        bad,
    )


# ---------------------------------------------------------------------------
# enumeration of Levis and decorations


def _compositions(total: int) -> list[tuple[int, ...]]:
    """The ordered sums of positive parts to ``total``, by first part."""
    if total == 0:
        return [()]
    return [(first, *more) for first in range(1, total + 1) for more in _compositions(total - first)]


def enumerate_levis(n: int) -> list[LeviDescriptor]:
    return [LeviDescriptor(comp, tail) for tail in range(n + 1) for comp in _compositions(n - tail) if comp or tail]


def enumerate_decorations(levi: LeviDescriptor) -> list[LeviDescriptor]:
    """All decoration assignments with up to ``MAX_LABELS`` labels, up to
    renaming; equal labels must sit on equal-size blocks.

    The label sequences are numbered by first occurrence (label l appears
    only after 0..l-1) and come in lexicographic order, each followed by
    every choice of self-duality flags for its labels.
    """
    composition = levi.composition
    out = []

    def walk(labels: tuple[int, ...], sizes: tuple[int, ...]) -> None:
        # sizes[l] is the block size that label l sits on
        if len(labels) == len(composition):
            for flags in itertools.product((False, True), repeat=len(sizes)):
                dec = tuple((f"o{l}", flags[l]) for l in labels)
                out.append(LeviDescriptor(composition, levi.tail_rank, dec))
            return
        k = composition[len(labels)]
        for l, size in enumerate(sizes):
            if size == k:
                walk((*labels, l), sizes)
        if len(sizes) < MAX_LABELS:
            walk((*labels, len(sizes)), (*sizes, k))

    walk((), ())
    return out
