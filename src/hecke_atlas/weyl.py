"""Signed-permutation Weyl group combinatorics for even orthogonal groups.

Brute-force verification playground: the full group W of signed
permutations (with its index-2 subgroup W0 of even sign changes), relative
Weyl groups of standard Levis, stabilizers of orbit decorations, and the
semidirect decomposition of the latter into a reflection part and a
positivity-preserving complement.

An element is one tuple ``img`` of signed images: entry i is ``+(j + 1)``
or ``-(j + 1)`` when e_i goes to ``+e_j`` or ``-e_j``.  The relative Weyl
groups, the stabilizers and their parts are tuples of these, ordered by
``_sort_key`` (``_mul`` and ``_inverse`` are their product and inverse).
``SignedPermutation``, a frozen dataclass over one such tuple with ``perm``
and ``signs`` as views of it, is the element type of ``weyl_group``.

The stabilizer checks run on mirrored tuples instead (``_mirror``):
``(0, *img, *-reversed(img))``, which indexed by a signed coordinate gives
its signed image, so a product is one ``itemgetter`` call, with the getter
of the right factor built once and reused.  ``RelativeWeyl.mirrors`` holds
each coset's mirror, built once per Levi for all of its decorations; every
result is turned back into signed images.

What stays brute force: ``relative_weyl`` accepts or rejects every
permutation of W, by the least and greatest image of each block span (the
sign vectors that pass are those constant on the blocks, one for each
tuple of block signs, so the block signs are listed directly); a
stabilizer is every coset that preserves the decorations; the reflection
part is the closure of its reflections; normality of the reflection part
is checked by conjugation on a generating set of the stabilizer, grown by
right products; and each factorization is checked by forming every
product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, total_ordering
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from . import BRUTE_FORCE_CAP, cached_view

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

MAX_LABELS = 3  # orbit labels per decoration, up to renaming


@total_ordering
@dataclass(frozen=True, init=False, repr=False)  # a dataclass: it validates (perm, signs); perfbench patches __mul__
class SignedPermutation:
    """e_i |-> signs[i] * e_{perm[i]} on coordinates 1..n (0-indexed ``perm``).

    A frozen dataclass over ``img``, with ``img[i] = signs[i] * (perm[i] + 1)``;
    the order is that of ``(perm, signs)``.
    """

    img: tuple[int, ...]

    def __init__(self, perm: Sequence[int], signs: Sequence[int]) -> None:
        perm, signs = tuple(perm), tuple(signs)
        if sorted(perm) != list(range(len(perm))) or len(signs) != len(perm) or not set(signs) <= {1, -1}:
            raise ValueError(f"not a signed permutation: perm={perm!r}, signs={signs!r}")
        object.__setattr__(self, "img", tuple([s * (p + 1) for p, s in zip(perm, signs)]))

    @property
    def perm(self) -> tuple[int, ...]:
        return tuple([abs(x) - 1 for x in self.img])

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple([1 if x > 0 else -1 for x in self.img])

    def sort_key(self) -> tuple[int, ...]:
        return _sort_key(self.img)

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


def _signed(img: tuple[int, ...]) -> SignedPermutation:
    """The signed permutation with signed images ``img``, taken unchecked."""
    m = object.__new__(SignedPermutation)
    object.__setattr__(m, "img", img)
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


def _mirror(img: tuple[int, ...]) -> tuple[int, ...]:
    """``img`` mirrored: ``(0, *img, *-reversed(img))``, which, indexed by a
    signed coordinate x (negative ones from the end), gives the signed
    image of x.  So ``itemgetter(*_mirror(b))(_mirror(a)) == _mirror(a*b)``."""
    return (0, *img, *[-x for x in reversed(img)])


def _unmirror(m: tuple[int, ...]) -> tuple[int, ...]:
    return m[1 : len(m) // 2 + 1]


def _sort_key(img: tuple[int, ...]) -> tuple[int, ...]:
    """``|img|`` then ``img``: the order of ``(perm, signs)``, since for
    equal ``perm`` the sign -1 gives the smaller signed image.  It orders
    the mirrors of signed images as it orders the images."""
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


@dataclass(frozen=True, repr=False)  # a dataclass: __post_init__ validates the blocks
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


def _min_lift_parity(signs: tuple[int, ...], levi: LeviDescriptor) -> int:
    """Parity of the least number of sign changes among lifts of a move
    with block signs ``signs``: the summed size of the negated blocks."""
    return sum(k for k, s in zip(levi.composition, signs) if s < 0) % 2


@dataclass(frozen=True, repr=False, eq=False)  # a dataclass: it caches views of itself
class RelativeWeyl:
    """The block moves of a Levi (the W^M cosets in N(M)) as signed images
    of the blocks, in ``_sort_key`` order, as ``relative_weyl`` returns
    them; then those that an even element lifts."""

    cosets: tuple[tuple[int, ...], ...]
    even_cosets: tuple[tuple[int, ...], ...]

    @property
    def equal(self) -> bool:
        return set(self.cosets) == self.even_imgs

    @cached_view
    def by_block_perm(self) -> dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]:
        """The cosets by block permutation ``|img|``, each with the bit mask
        of the blocks it negates.  The cosets come in ``_sort_key`` order,
        which orders by ``|img|`` first, so the groups come in that order
        and any run of them, concatenated, stays sorted."""
        groups = {}
        for m in self.cosets:
            negated = sum(1 << i for i, x in enumerate(m) if x < 0)
            groups.setdefault(tuple(map(abs, m)), []).append((negated, m))
        return groups

    @cached_view
    def even_imgs(self) -> frozenset[tuple[int, ...]]:
        """The even cosets, as a set."""
        return frozenset(self.even_cosets)

    @cached_view
    def mirrors(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each coset's mirror (see ``_mirror``), the form the stabilizer
        checks compute on."""
        return {m: _mirror(m) for m in self.cosets}


def relative_weyl(levi: LeviDescriptor, n: int) -> RelativeWeyl:
    """Normalizer cosets of a Levi, with their even-liftable part.

    Brute force over the permutations of W: an element normalizes the Levi
    when it maps tail coordinates to tail coordinates and each block onto
    an equal-size block with one sign; its coset is the induced signed
    permutation of the blocks.  The test splits into a permutation part and
    a sign part: a permutation that fails its part rejects all of its 2**n
    elements at once, and the sign vectors that pass theirs are those
    constant on each block, whatever the permutation.  Each tuple of block
    signs lifts to one of them, so the block signs are all of {±1}^blocks,
    listed directly, with the parity of each, which reads only the signs.
    A permutation passes when the least image of the tail lies in the tail
    and the least and greatest images of each block span are the first and
    last coordinate of a block of its size: the images are distinct, so
    they are then that block.
    """
    if levi.rank != n:
        raise ValueError("Levi rank does not match n")
    _check_cap(n)
    blocks = levi.blocks()
    t0 = n - levi.tail_rank
    # each block span, the offset of its last coordinate, and each block of
    # its size by first coordinate
    spans = [
        (blk.start, blk.stop, len(blk) - 1, {b.start: bj for bj, b in enumerate(blocks) if len(b) == len(blk)})
        for blk in blocks
    ]
    block_perms: set[tuple[int, ...]] = set()
    for perm in itertools.permutations(range(n)):
        if t0 < n and min(perm[t0:]) < t0:
            continue
        targets = []
        for b0, e, last, starts in spans:
            images = perm[b0:e]
            lo = min(images)
            if lo not in starts or max(images) != lo + last:
                break
            targets.append(starts[lo])
        else:
            block_perms.add(tuple(targets))
    # every tuple of block signs (each lifts to the sign vector constant on
    # the blocks), in the order of (perm, signs) pairs, which is the order
    # of the moves; the parity reads only the signs
    signs_in_order = list(itertools.product((-1, 1), repeat=len(blocks)))
    lifts_evenly = [levi.tail_rank >= 1 or _min_lift_parity(signs, levi) == 0 for signs in signs_in_order]
    cosets: list[tuple[int, ...]] = []
    even: list[tuple[int, ...]] = []
    for perm in sorted(block_perms):
        images = [p + 1 for p in perm]
        moves = [tuple(map(mul, signs, images)) for signs in signs_in_order]
        cosets += moves
        even += itertools.compress(moves, lifts_evenly)
    return RelativeWeyl(tuple(cosets), tuple(even))


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
    All are mirrored.

    The new group is a union of right cosets ``group * x``, found by right
    products of their representatives by a generator (Dimino's algorithm):
    ``group`` itself is closed under the old generators, so the search
    starts from the coset of ``g``.
    """
    old = list(group)
    gens.append(g)
    times = [itemgetter(*s) for s in gens]  # times[i](x) is x * gens[i]
    group.update(map(itemgetter(*g), old))
    reps = [g]
    for x in reps:
        for by in times:
            y = by(x)
            if y not in group:
                group.update(map(itemgetter(*y), old))
                reps.append(y)


def _closure(generators: Iterable[tuple[int, ...]], r: int) -> set[tuple[int, ...]]:
    """The group generated, one generator at a time, on mirrored elements."""
    group = {_mirror(tuple(range(1, r + 1)))}
    gens: list[tuple[int, ...]] = []
    for g in generators:
        if g not in group:
            _grow(group, gens, g)
    return group


def _non_normalizing(
    q: Iterable[tuple[int, ...]], gens: Sequence[tuple[int, ...]], group: set[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """The first m of q with m*s*m^-1 outside ``group`` for a generator s of
    it, or None; ``group`` is the group ``gens`` generate.  All are mirrored.

    Generators of ``group`` suffice: conjugation by m is an automorphism, so
    it maps the group generated into ``group`` once it maps each generator
    there.  And only a generating set of q is conjugated: the elements that
    normalize ``group`` form a group.  An element of q becomes a generator
    when it lies outside the span of the generators before it, so each
    element before the first failing generator lies in the span of passing
    ones and passes too: that generator is the first failing element of q.
    """
    times = [itemgetter(*s) for s in gens]
    span: set[tuple[int, ...]] = set()
    picked: list[tuple[int, ...]] = []
    for m in q:
        if not span:
            span.add(_mirror(tuple(range(1, len(m) // 2 + 1))))
        if m in span:
            continue
        by_inverse = itemgetter(*_mirror(_inverse(_unmirror(m))))
        if any(by_inverse(by(m)) not in group for by in times):
            return m
        _grow(span, picked, m)
    return None


def _factorizes(
    target: set[tuple[int, ...]], w0_o: set[tuple[int, ...]], complement: Sequence[tuple[int, ...]]
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether ``target`` is the set of products x*rho (x in w0_o, rho in the
    complement), each hit once; if not, the least element it misses or
    overshoots (None when only a repeated product is wrong).  All are
    mirrored."""
    products: set[tuple[int, ...]] = set()
    for rho in complement:
        products.update(map(itemgetter(*rho), w0_o))
    if products == target and len(products) == len(w0_o) * len(complement):
        return True, None
    return False, min(products ^ target, key=_sort_key, default=None)


def _complement(q: Iterable[tuple[int, ...]], sigma_pos: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """R(O): the moves of q (mirrored) that send each positive root of
    sigma, given in ``sigma_pos`` as signed coordinates, to a positive root
    of sigma.

    A move maps signed coordinates as it maps signed images, so the image of
    a root is its coordinates looked up in the mirrored move, in either
    order.  ``sigma_pos`` holds positive roots only, so membership is the
    positivity test too.
    """
    images = [itemgetter(*root) for root in sigma_pos]
    # itemgetter gives a number for a root of one coordinate, so sigma does
    sigma = {root if len(root) > 1 else root[0] for root in (*sigma_pos, *[root[::-1] for root in sigma_pos])}
    kept = list(q)
    for image in images:
        kept = [m for m in kept if image(m) in sigma]
    return kept


class OrbitStabilizers(NamedTuple):
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
    if not set(map(len, rel.by_block_perm)) <= {r}:
        raise ValueError(f"rel is not the relative Weyl group of a Levi with {r} blocks")
    q = _decorated_cosets(levi.decorations, rel.by_block_perm)
    q0 = [m for m in q if m in rel.even_imgs]
    q0_set = set(q0)
    # the checks run on mirrors, the parts are returned as signed images
    mirrors = rel.mirrors
    qm = [mirrors[m] for m in q]
    q0m = {mirrors[m] for m in q0}

    sigma_pos = []
    gens = []
    for root, s in _reflections(r):
        if s in q0_set:
            sigma_pos.append(root)
            gens.append(mirrors[s])
    w0_o = _closure(gens, r)
    complement = _complement(qm, sigma_pos)
    even_complement = [m for m in complement if m in q0m]

    # normality of the reflection part, then unique factorization of the
    # stabilizer and of its even part
    bad = _non_normalizing(qm, gens, w0_o)
    ok = bad is None
    if ok:
        ok, bad = _factorizes(set(qm), w0_o, complement)
    if ok:
        ok, bad = _factorizes(q0m, w0_o, even_complement)

    return OrbitStabilizers(
        tuple(q),
        tuple(q0),
        tuple(map(_unmirror, sorted(w0_o, key=_sort_key))),
        tuple(map(_unmirror, complement)),
        tuple(map(_unmirror, even_complement)),
        ok,
        None if bad is None else _unmirror(bad),
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
