import copy
import hashlib
import itertools
import pickle
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from hecke_atlas import weyl
from hecke_atlas.verify import run_suite
from hecke_atlas.weyl import (
    BRUTE_FORCE_CAP,
    MAX_LABELS,
    LeviDescriptor,
    RelativeWeyl,
    SignedPermutation,
    _closure,
    _inverse,
    _mirror,
    _mul,
    _non_normalizing,
    _reflections,
    _sort_key,
    _unmirror,
    enumerate_decorations,
    enumerate_levis,
    orbit_stabilizers,
    relative_weyl,
    weyl_group,
)


def test_group_sizes():
    assert len(weyl_group(1, full=True)) == 2
    assert len(weyl_group(1, full=False)) == 1
    assert len(weyl_group(2, full=True)) == 8
    assert len(weyl_group(3, full=True)) == 48
    assert len(weyl_group(3, full=False)) == 24


def test_cap():
    with pytest.raises(ValueError):
        weyl_group(7)


def test_multiplication_and_inverse():
    g = SignedPermutation((1, 0), (1, -1))
    h = SignedPermutation((0, 1), (-1, 1))
    # (g*h) e_0 = g(-e_0) = -e_1
    assert (g * h).perm == (1, 0)
    assert (g * h).signs == (-1, -1)
    for w in weyl_group(3):
        assert w * w.inverse() == SignedPermutation.identity(3)
    evens = set(weyl_group(3, full=False))
    for a in list(evens)[:10]:
        for b in list(evens)[:10]:
            assert (a * b) in evens


# -- the signed-image representation against a (perm, signs) reference -----


def _ref_mul(a, b):
    """a after b, on (perm, signs) pairs."""
    (pa, sa), (pb, sb) = a, b
    return tuple(pa[p] for p in pb), tuple(s * sa[p] for s, p in zip(sb, pb))


def _perm_signs(img):
    """The (perm, signs) pair of a tuple of signed images."""
    return tuple(abs(x) - 1 for x in img), tuple(1 if x > 0 else -1 for x in img)


def _ref_inverse(a):
    perm, signs = a
    inv_perm, inv_signs = [0] * len(perm), [1] * len(perm)
    for i, (p, s) in enumerate(zip(perm, signs)):
        inv_perm[p], inv_signs[p] = i, s
    return tuple(inv_perm), tuple(inv_signs)


def _pairs_of_size(n):
    return st.tuples(
        st.permutations(range(n)).map(tuple),
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(tuple),
    )


perm_sign_pairs = st.integers(1, 5).flatmap(lambda n: st.tuples(_pairs_of_size(n), _pairs_of_size(n)))


@given(perm_sign_pairs)
def test_signed_images_match_the_perm_signs_reference(pair):
    a, b = pair
    x, y = SignedPermutation(*a), SignedPermutation(*b)
    n = len(a[0])
    assert (x.perm, x.signs) == a
    assert x.img == tuple(s * (p + 1) for p, s in zip(*a))
    assert ((x * y).perm, (x * y).signs) == _ref_mul(a, b)
    assert (x.inverse().perm, x.inverse().signs) == _ref_inverse(a)
    assert x.is_even == (a[1].count(-1) % 2 == 0)
    one = SignedPermutation.identity(n)
    assert (one.perm, one.signs) == (tuple(range(n)), (1,) * n)
    assert one * x == x == x * one and x * x.inverse() == one
    assert (x == y, x != y) == (a == b, a != b)
    assert hash(x) == hash(SignedPermutation(*a))
    assert (x < y, x <= y, x > y, x >= y) == (a < b, a <= b, a > b, a >= b)
    assert repr(x) == f"SignedPermutation(perm={a[0]!r}, signs={a[1]!r})"
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is SignedPermutation and twin == x and hash(twin) == hash(x)
        assert (twin.perm, twin.signs) == a


@given(st.lists(st.integers(1, 5).flatmap(_pairs_of_size), max_size=12))
def test_sorting_follows_perm_then_signs(xs):
    ws = [SignedPermutation(*a) for a in xs]
    for ordered in (sorted(ws), sorted(ws, key=SignedPermutation.sort_key)):
        assert [(w.perm, w.signs) for w in ordered] == sorted(xs)


def _check_mirrored_kernel(a, b):
    """The mirrored forms of signed images a and b against ``_mul`` and
    ``_inverse``, as the stabilizer checks use them."""
    r = len(a)
    one = tuple(range(1, r + 1))
    ma, mb = _mirror(a), _mirror(b)
    assert _unmirror(ma) == a and _mirror(_unmirror(ma)) == ma
    # indexed by a signed coordinate, the mirror gives its signed image
    assert [ma[x] for x in range(-r, r + 1)] == [-y for y in reversed(a)] + [0, *a]
    # _sort_key orders the mirrors as it orders the images
    assert (_sort_key(ma) < _sort_key(mb)) == (_sort_key(a) < _sort_key(b))
    # a product is one itemgetter call, its right factor the getter
    assert itemgetter(*mb)(ma) == _mirror(_mul(a, b))
    # the inverse, mirrored, undoes a on both sides, and conjugation by it is _mul's
    mi = _mirror(_inverse(a))
    assert itemgetter(*mi)(ma) == itemgetter(*ma)(mi) == _mirror(one)
    assert itemgetter(*mi)(itemgetter(*mb)(ma)) == _mirror(_mul(_mul(a, b), _inverse(a)))


def test_mirrored_products_match_mul_and_inverse():
    for r in range(1, 4):
        group = [w.img for w in weyl_group(r)]
        for a, b in itertools.product(group, repeat=2):
            _check_mirrored_kernel(a, b)


@given(st.integers(1, BRUTE_FORCE_CAP).flatmap(lambda n: st.tuples(_pairs_of_size(n), _pairs_of_size(n))))
def test_mirrored_products_match_mul_and_inverse_on_drawn_pairs(pair):
    a, b = (SignedPermutation(*x).img for x in pair)
    _check_mirrored_kernel(a, b)


def test_constructor_refuses_what_is_not_a_signed_permutation():
    # too few signs, a repeated letter, a sign that is not +-1
    for perm, signs in (((0, 1), (1,)), ((0, 0), (1, 1)), ((0, 1), (2, 1))):
        with pytest.raises(ValueError):
            SignedPermutation(perm, signs)


def test_signed_permutations_are_immutable_and_compare_only_with_their_kind():
    w = SignedPermutation((1, 0), (1, -1))
    for name in ("img", "perm", "signs"):
        with pytest.raises(AttributeError):
            setattr(w, name, (1, 2))
        with pytest.raises(AttributeError):
            delattr(w, name)
    assert w != w.img and w != (w.perm, w.signs)
    with pytest.raises(TypeError):
        w < (w.perm, w.signs)


def test_levi_validation():
    with pytest.raises(ValueError):
        LeviDescriptor((0,), 1)
    with pytest.raises(ValueError):
        LeviDescriptor((1, 1), 0, (("x", True),))
    with pytest.raises(ValueError):
        LeviDescriptor((1, 2), 0, (("x", True), ("x", True)))
    with pytest.raises(ValueError):
        relative_weyl(LeviDescriptor((1,), 0), 3)


def test_relative_weyl_strict_vs_equal():
    strict = relative_weyl(LeviDescriptor((1, 1), 0), 2)
    assert not strict.equal
    assert len(strict.cosets) == 8 and len(strict.even_cosets) == 4

    equal = relative_weyl(LeviDescriptor((2,), 0), 2)
    assert equal.equal

    tailed = relative_weyl(LeviDescriptor((1,), 2), 3)
    assert tailed.equal


def test_relative_weyl_single_block_moves():
    # one GL block, no tail: block moves are identity and inversion
    rel = relative_weyl(LeviDescriptor((3,), 0), 3)
    assert len(rel.cosets) == 2
    assert len(rel.even_cosets) == 1  # size-3 inversion is odd


def test_orbit_stabilizer_self_dual_odd_block():
    levi = LeviDescriptor((1,), 0, (("rho", True),))
    st = orbit_stabilizers(levi, relative_weyl(levi, 1))
    assert not st.equal
    assert len(st.group) == 2 and len(st.even_group) == 1
    assert st.semidirect_ok and st.counterexample is None


def test_orbit_stabilizer_labels_split_blocks():
    # distinct labels forbid swapping the two blocks
    levi = LeviDescriptor((1, 1), 0, (("a", False), ("b", False)))
    st = orbit_stabilizers(levi, relative_weyl(levi, 2))
    assert len(st.group) == 1
    levi2 = LeviDescriptor((1, 1), 0, (("a", False), ("a", False)))
    st2 = orbit_stabilizers(levi2, relative_weyl(levi2, 2))
    assert len(st2.group) == 2 and st2.equal  # swap is even-liftable


def test_orbit_stabilizer_semidirect_structure():
    levi = LeviDescriptor((1, 1), 1, (("rho", True), ("rho", True)))
    st = orbit_stabilizers(levi, relative_weyl(levi, 3))
    # full signed group on two axes, all even-liftable thanks to the tail
    assert len(st.group) == 8 and st.equal
    assert len(st.reflection_part) * len(st.complement) == len(st.group)
    assert st.semidirect_ok


def test_enumerate_levis_counts():
    levis = enumerate_levis(2)
    assert LeviDescriptor((1, 1), 0) in levis
    assert LeviDescriptor((), 2) in levis
    assert len(levis) == 4  # (1,1), (2), (1)+tail1, tail2


def test_enumerate_decorations_consistency():
    decs = enumerate_decorations(LeviDescriptor((1, 2), 0))
    # distinct sizes force distinct labels
    assert all(d.decorations[0][0] != d.decorations[1][0] for d in decs)
    assert len(decs) == 4


def test_orbit_stabilizers_refuses_the_relative_weyl_group_of_another_levi():
    both_a = LeviDescriptor((1, 1), 0, (("a", True), ("a", True)))
    assert len(orbit_stabilizers(both_a, relative_weyl(LeviDescriptor((1, 1), 0), 2)).group) == 8
    # cosets on one block for a Levi of two, and on two blocks for a Levi of one
    with pytest.raises(ValueError):
        orbit_stabilizers(both_a, relative_weyl(LeviDescriptor((2,), 0), 2))
    with pytest.raises(ValueError):
        orbit_stabilizers(LeviDescriptor((1,), 0, (("a", True),)), relative_weyl(LeviDescriptor((1, 1), 0), 2))


def _reference_levis(n):
    """The enumerator the Levis were first built with: compositions by a
    recursion defined anew for each tail rank."""
    out = []
    for tail in range(n + 1):
        rest = n - tail

        def comps(total):
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


def _reference_decorations(levi, max_labels):
    """The enumerator the decorations were first built with: every label
    tuple, kept when it is numbered by first occurrence and puts each label
    on blocks of one size."""
    r = len(levi.composition)
    if r == 0:
        return [LeviDescriptor(levi.composition, levi.tail_rank, ())]
    out = []
    seen = set()
    for labels in itertools.product(range(max_labels), repeat=r):
        remap = {}
        canon = []
        for l in labels:
            if l not in remap:
                remap[l] = len(remap)
            canon.append(remap[l])
        canon_t = tuple(canon)
        if canon_t != labels:
            continue
        sizes = {}
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


def test_enumerators_match_the_scan_and_filter_reference():
    counts = []
    for n in range(BRUTE_FORCE_CAP + 1):
        levis = enumerate_levis(n)
        assert levis == _reference_levis(n)
        for levi in levis:
            decs = enumerate_decorations(levi)
            assert decs == _reference_decorations(levi, MAX_LABELS)
            counts.append(len(decs))
    # lemA4's 3006 cases at rank 6, and one decoration of each tail-only Levi
    assert len(counts) == 126 and sum(counts) == 3006 + 6


def test_normalizer_equality_characterization():
    cases = run_suite("lemA3", 4)["cases"]
    assert cases and all(c["status"] == "pass" for c in cases)


def test_decorated_equality_characterization():
    cases = run_suite("lemA4", 3)["cases"]
    assert cases and all(c["status"] == "pass" for c in cases)


def _signed_block_permutations(composition):
    """Closed form of the relative Weyl group: permutations of equal-size
    blocks, each block with an arbitrary sign."""
    r = len(composition)
    return {
        SignedPermutation(perm, signs)
        for perm in itertools.permutations(range(r))
        if all(composition[perm[i]] == composition[i] for i in range(r))
        for signs in itertools.product((1, -1), repeat=r)
    }


def _parent_relative_weyl(levi, n):
    """The relative Weyl group as the scan first split into a permutation
    and a sign part: each permutation tested coordinate by coordinate
    against a block lookup, the parity taken once per coset."""
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
    block_perms = set()
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
    cosets = tuple(
        tuple([s * (p + 1) for p, s in zip(perm, signs)])
        for perm, signs in sorted(itertools.product(block_perms, block_signs))
    )
    even = tuple(
        m
        for m in cosets
        if levi.tail_rank >= 1 or sum(k for k, x in zip(levi.composition, m) if x < 0) % 2 == 0
    )
    return RelativeWeyl(cosets, even)


def test_relative_weyl_matches_the_parent_scan():
    for n in range(1, BRUTE_FORCE_CAP + 1):
        for levi in enumerate_levis(n):
            rel, ref = relative_weyl(levi, n), _parent_relative_weyl(levi, n)
            assert rel.cosets == ref.cosets
            assert rel.even_cosets == ref.even_cosets


def test_relative_weyl_returns_its_cosets_in_sort_key_order():
    # RelativeWeyl.by_block_perm, and so every stabilizer part, keeps the order the cosets come in
    levis = [(levi, n) for n in range(1, BRUTE_FORCE_CAP + 1) for levi in enumerate_levis(n)]
    assert len(levis) == 126
    for levi, n in levis:
        cosets = relative_weyl(levi, n).cosets
        assert list(cosets) == sorted(cosets, key=_sort_key)


def test_relative_weyl_matches_closed_form():
    for n in range(1, 6):
        for levi in enumerate_levis(n):
            rel = relative_weyl(levi, n)
            assert set(rel.cosets) == {m.img for m in _signed_block_permutations(levi.composition)}
            assert list(rel.cosets) == sorted(rel.cosets, key=_sort_key)


def _induced_block_moves(levi, group):
    """The block moves induced by the elements of ``group`` that normalize
    the Levi: each block goes onto an equal-size block with one sign, and
    the tail into the tail."""
    blocks = levi.blocks()
    block_at = {blk.start: bj for bj, blk in enumerate(blocks)}
    t0 = levi.rank - levi.tail_rank
    moves = set()
    for w in group:
        if any(abs(x) <= t0 for x in w.img[t0:]):
            continue
        move = []
        for blk in blocks:
            images = [w.img[c] for c in blk]
            targets = sorted(abs(x) - 1 for x in images)
            bj = block_at.get(targets[0])
            if bj is None or targets != list(blocks[bj]) or len({x > 0 for x in images}) != 1:
                break
            move.append(bj + 1 if images[0] > 0 else -(bj + 1))
        else:
            moves.add(tuple(move))
    return moves


def test_even_cosets_are_the_block_moves_of_w0():
    # lemA3's even cosets come from a parity rule; here they come from the
    # elements of W0 themselves, and the cosets from those of W
    for n in range(1, 6):
        full, even = weyl_group(n), weyl_group(n, full=False)
        for levi in enumerate_levis(n):
            rel = relative_weyl(levi, n)
            assert _induced_block_moves(levi, full) == set(rel.cosets)
            assert _induced_block_moves(levi, even) == set(rel.even_cosets)


def _two_sided_closure(generators, r):
    """The earlier closure: products on both sides with every element found
    so far, on elements written as tuples of signed images e_i -> +-e_j."""

    def mul(a, b):  # a after b
        return tuple([a[x - 1] if x > 0 else -a[-x - 1] for x in b])

    group = {tuple(range(1, r + 1))}
    frontier = set(generators)
    group |= frontier
    while frontier:
        new = set()
        for g in frontier:
            for h in list(group):
                for x in (mul(g, h), mul(h, g)):
                    if x not in group:
                        new.add(x)
        group |= new
        frontier = new
    return group


def test_closure_matches_two_sided_search():
    # _closure computes on mirrored elements, the reference on signed images
    for r in range(1, 4):
        reflections = [s for _, s in _reflections(r)]
        for k in range(len(reflections) + 1):
            for gens in itertools.combinations(reflections, k):
                assert _closure(map(_mirror, gens), r) == set(map(_mirror, _two_sided_closure(gens, r)))


def test_normality_check_names_the_first_failing_element():
    # against conjugating every generator by every element of q, in q's order
    for r in range(1, 4):
        reflections = [s for _, s in _reflections(r)]
        for q in (sorted(weyl_group(r)), sorted(weyl_group(r, full=False))):
            for k in range(4):
                for gens in itertools.combinations(reflections, k):
                    mirrored = [_mirror(s) for s in gens]
                    group = _closure(mirrored, r)
                    ws = [SignedPermutation(*_perm_signs(s)) for s in gens]
                    first = next(
                        (m for m in q if any(_mirror((m * w * m.inverse()).img) not in group for w in ws)), None
                    )
                    found = _non_normalizing([_mirror(m.img) for m in q], mirrored, group)
                    assert found == (None if first is None else _mirror(first.img))


def test_normality_check_on_generators_can_fail():
    b2 = sorted(weyl_group(2))
    one = SignedPermutation.identity(2)
    # <s_{e1}> is not normal in B2: the swap conjugates it to <s_{e2}>
    s_e1 = SignedPermutation((0, 1), (-1, 1))
    b2_mirrors = [_mirror(m.img) for m in b2]
    bad_img = _non_normalizing(b2_mirrors, [_mirror(s_e1.img)], {_mirror(one.img), _mirror(s_e1.img)})
    bad = next((m for m in b2 if _mirror(m.img) == bad_img), None)
    assert bad is not None and bad * s_e1 * bad.inverse() not in {one, s_e1}
    # W(D2) = <s_{e1-e2}, s_{e1+e2}> is normal in B2
    d2_gens = [_mirror(SignedPermutation((1, 0), (1, 1)).img), _mirror(SignedPermutation((1, 0), (-1, -1)).img)]
    assert _non_normalizing(b2_mirrors, d2_gens, _closure(d2_gens, 2)) is None

    # a hand-built relative Weyl group whose even part is only <s_{e1}>
    levi = LeviDescriptor((1, 1), 0, (("rho", True), ("rho", True)))
    st = orbit_stabilizers(levi, RelativeWeyl(tuple(m.img for m in b2), (one.img, s_e1.img)))
    assert st.reflection_part == tuple(m.img for m in sorted({one, s_e1}))
    assert not st.semidirect_ok and st.counterexample == bad.img


def _reference_decorated(levi, rel):
    """The per-coset decoration filter the stabilizer was first built with:
    each block's signed image must lie in its set of allowed images, a block
    with the same label, negated only if self-dual."""
    images = []
    for label, self_dual in levi.decorations:
        same = [j + 1 for j, (other, _) in enumerate(levi.decorations) if other == label]
        images.append(frozenset(same + [-j for j in same] if self_dual else same))
    q = [m for m in rel.cosets if all(map(frozenset.__contains__, images, m))]
    q.sort(key=_sort_key)
    even = set(rel.even_cosets)
    return q, [m for m in q if m in even]


def test_decoration_filter_matches_the_per_coset_reference():
    cases = []
    for n in range(1, 6):
        for levi in enumerate_levis(n):
            if levi.composition:
                rel = relative_weyl(levi, n)
                cases += [(dec, rel) for dec in enumerate_decorations(levi)]
    b2 = [m.img for m in sorted(weyl_group(2))]
    one, s_e1 = SignedPermutation.identity(2).img, SignedPermutation((0, 1), (-1, 1)).img
    # the hand-built group above; a RelativeWeyl takes its cosets in
    # ``_sort_key`` order (test_relative_weyl_returns_its_cosets_in_sort_key_order)
    hand_built = RelativeWeyl(tuple(b2), (one, s_e1))
    cases += [(dec, hand_built) for dec in enumerate_decorations(LeviDescriptor((1, 1), 0))]
    assert len(cases) == 862 + 6  # lemA4's cases up to rank 5, and six for the hand-built group
    for dec, rel in cases:
        st = orbit_stabilizers(dec, rel)
        q, q0 = _reference_decorated(dec, rel)
        assert list(st.group) == q
        assert list(st.even_group) == q0


def _reflection_of(root):
    """s(v) = v - 2 (v.root) / (root.root) root, on each basis vector."""
    norm = sum(c * c for c in root)
    perm, signs = [], []
    for k in range(len(root)):
        image = [int(i == k) - 2 * root[k] * c // norm for i, c in enumerate(root)]
        (j,) = [i for i, c in enumerate(image) if c]
        perm.append(j)
        signs.append(image[j])
    return SignedPermutation(perm, signs)


def _moved_root(m, root):
    perm, signs = _perm_signs(m)
    out = [0] * len(root)
    for i, c in enumerate(root):
        out[perm[i]] += signs[i] * c
    return tuple(out)


def test_reflections_match_the_vector_formula():
    for r in range(1, BRUTE_FORCE_CAP + 1):
        # the positive roots as vectors: e_i, then e_i + e_j and e_i - e_j for each j > i
        roots = []
        for i in range(r):
            roots.append(tuple(int(k == i) for k in range(r)))
            for j, sj in itertools.product(range(i + 1, r), (1, -1)):
                roots.append(tuple(int(k == i) + sj * int(k == j) for k in range(r)))
        assert len(roots) == r * r
        expected = [(tuple((i + 1) * c for i, c in enumerate(v) if c), _reflection_of(v).img) for v in roots]
        assert list(_reflections(r)) == expected


def test_stabilizer_parts_match_an_independent_reference():
    # the lemA4 reports carry only `equal` and `semidirect`, so the parts are
    # checked here: roots as vectors, reflections from their formula, the
    # two-sided closure, and products on (perm, signs) pairs
    cases = []
    for n in range(1, 5):
        for levi in enumerate_levis(n):
            if levi.composition:
                rel = relative_weyl(levi, n)
                cases += [(dec, rel) for dec in enumerate_decorations(levi)]
    assert len(cases) == 226
    # the hand-built group whose reflection part is not normal
    b2 = [m.img for m in sorted(weyl_group(2))]
    hand_built = RelativeWeyl(tuple(b2), (SignedPermutation.identity(2).img, SignedPermutation((0, 1), (-1, 1)).img))
    cases += [(dec, hand_built) for dec in enumerate_decorations(LeviDescriptor((1, 1), 0))]

    pair = _perm_signs

    splittings = set()
    for dec, rel in cases:
        st = orbit_stabilizers(dec, rel)
        r = len(dec.composition)
        positive = [
            v for v in itertools.product((-1, 0, 1), repeat=r) if sum(map(abs, v)) in (1, 2) and max(v, key=abs) == 1
        ]
        sigma_pos = [root for root in positive if _reflection_of(root).img in st.even_group]
        gens = [_reflection_of(root).img for root in sigma_pos]
        w0_o = _two_sided_closure(gens, r)
        assert set(st.reflection_part) == w0_o and len(st.reflection_part) == len(w0_o)
        assert [pair(m) for m in st.reflection_part] == sorted(map(pair, st.reflection_part))

        def preserves(m):
            return all(_moved_root(m, root) in sigma_pos for root in sigma_pos)

        assert st.complement == tuple(m for m in st.group if preserves(m))
        assert st.even_complement == tuple(m for m in st.even_group if preserves(m))

        w0 = set(map(pair, st.reflection_part))
        normal = all(_ref_mul(_ref_mul(pair(m), pair(s)), _ref_inverse(pair(m))) in w0 for m in st.group for s in gens)

        def splits(target, complement):
            products = [_ref_mul(x, pair(rho)) for x in w0 for rho in complement]
            return set(products) == set(map(pair, target)) and len(set(products)) == len(products)

        ok = normal and splits(st.group, st.complement) and splits(st.even_group, st.even_complement)
        assert st.semidirect_ok == ok
        splittings.add(ok)
    assert splittings == {True, False}


# sha256 of the reprs of ``orbit_stabilizers`` on every decoration of rank
# <= 4 and on the hand-built group, one per line, as the signed-image code
# first gave them: unpatched, with a reflection part that is only the
# identity (the counterexample comes from the normality check), with every
# move kept as a complement element, and with only the first move kept (the
# counterexample is the least product missed)
STABILIZER_DIGESTS = {
    "plain": "9e09f1e368356585c581d7919d8ae22707ef17028796d7759b025785120c5e67",
    "closure": "e29753a32a926e8847cdc3b8d74769bf160bf399ddcb6c6f581b8fb4e8d93fea",
    "complement": "8cb830c05c03b984df224c9d2990b7727753d008701c97e5a7708ba4860a85cd",
    "complement-first": "e662291c11988af413ae544c04206be7f8ad9de7b89db03eb68968846a39c98c",
}


@pytest.mark.parametrize("mode", sorted(STABILIZER_DIGESTS))
def test_stabilizer_parts_match_their_pinned_digest(mode, monkeypatch):
    if mode == "closure":
        monkeypatch.setattr(weyl, "_closure", lambda generators, r: {_mirror(tuple(range(1, r + 1)))})
    elif mode == "complement":
        monkeypatch.setattr(weyl, "_complement", lambda q, sigma_pos: list(q))
    elif mode == "complement-first":
        monkeypatch.setattr(weyl, "_complement", lambda q, sigma_pos: list(q)[:1])
    cases = []
    for n in range(1, 5):
        for levi in enumerate_levis(n):
            if levi.composition:
                rel = relative_weyl(levi, n)
                cases += [(dec, rel) for dec in enumerate_decorations(levi)]
    b2 = tuple(m.img for m in sorted(weyl_group(2)))
    hand_built = RelativeWeyl(b2, (SignedPermutation.identity(2).img, SignedPermutation((0, 1), (-1, 1)).img))
    cases += [(dec, hand_built) for dec in enumerate_decorations(LeviDescriptor((1, 1), 0))]
    text = "\n".join(repr(orbit_stabilizers(dec, rel)) for dec, rel in cases)
    assert hashlib.sha256(text.encode()).hexdigest() == STABILIZER_DIGESTS[mode]
