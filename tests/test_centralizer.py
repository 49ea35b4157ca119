import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hecke_atlas import CheckError, centralizer

from hecke_atlas.centralizer import (
    component_group_of_triple,
    parameter_to_triple,
    realize_matrices,
    triple_to_parameter,
)
from hecke_atlas.params import (
    LDSummand,
    build_ld_parameter,
    classical_ambients,
    component_group,
    discrete_parameters,
    normed_parameter,
)
from hecke_atlas.verify import standard_inventory
from hecke_atlas.weil import (
    MINUS_ONE,
    ONE,
    DualGroupDescriptor,
    DualityType,
    Family,
    InertialClass,
    InertialPoint,
    Inventory,
    SelfDual,
    UnitMonomial,
)

Q_HALF = UnitMonomial(0, Fraction(1, 2))
I_UNIT = UnitMonomial(Fraction(1, 4), 0)


def unit_phi0(inv, label, family, dim):
    return build_ld_parameter(
        [LDSummand(InertialPoint(inv[label], ONE), 1, dim // inv[label].dim)],
        DualGroupDescriptor(family, dim),
    )


def test_round_trip_examples(extended_inventory):
    inv = extended_inventory
    sp4 = DualGroupDescriptor(Family.SYMPLECTIC, 4)
    phi = build_ld_parameter([LDSummand(InertialPoint(inv["triv"], ONE), 4)], sp4)
    phi0 = normed_parameter(phi)
    t = parameter_to_triple(phi, phi0)
    ladder = dict(t.s)["triv"]
    assert {x.q_exponent for x, _ in ladder} == {
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-3, 2),
    }
    assert dict(t.u_by_eigenblock)[("triv", ONE)] == (4,)
    assert triple_to_parameter(t, phi0) == phi

    phi2 = build_ld_parameter(
        [
            LDSummand(InertialPoint(inv["triv"], ONE), 2),
            LDSummand(InertialPoint(inv["triv"], MINUS_ONE), 2),
        ],
        sp4,
    )
    t2 = parameter_to_triple(phi2, phi0)
    assert dict(t2.u_by_eigenblock) == {("triv", ONE): (2,), ("triv", MINUS_ONE): (2,)}
    assert triple_to_parameter(t2, phi0) == phi2

    # the same Jordan data with s = 1: the ladder q**(3/2), ..., q**(-3/2) is missing
    flat = t._replace(s=(("triv", ((ONE, 4),)),))
    with pytest.raises(ValueError, match="q-scaling relation"):
        triple_to_parameter(flat, phi0)


def test_round_trip_all_discrete_small(extended_inventory):
    inv = extended_inventory
    for dim in range(1, 7):
        ambients = [DualGroupDescriptor(Family.ORTHOGONAL, dim)]
        if dim % 2 == 0:
            ambients.append(DualGroupDescriptor(Family.SYMPLECTIC, dim))
        for ambient in ambients:
            for phi in discrete_parameters(inv, ambient):
                phi0 = normed_parameter(phi)
                t = parameter_to_triple(phi, phi0)
                assert triple_to_parameter(t, phi0) == phi



def test_round_trip_dual_pairs(extended_inventory):
    # the partner side of each pair is rebuilt from the base parameter alone
    alpha, beta, triv = (extended_inventory[label] for label in ("alpha", "beta", "triv"))
    cases = [
        (Family.ORTHOGONAL, 4, [(alpha, ONE, 2), (beta, ONE, 2)]),
        (Family.ORTHOGONAL, 5, [(alpha, Q_HALF, 1), (beta, Q_HALF.inverse(), 1), (triv, ONE, 3)]),
        (Family.SYMPLECTIC, 6, [(alpha, I_UNIT, 3), (beta, I_UNIT.inverse(), 3)]),
    ]
    for family, dim, points in cases:
        summands = [LDSummand(InertialPoint(cls, f), a) for cls, f, a in points]
        phi = build_ld_parameter(summands, DualGroupDescriptor(family, dim))
        phi0 = normed_parameter(phi)
        assert triple_to_parameter(parameter_to_triple(phi, phi0), phi0) == phi


def test_jordan_data_errors_reach_both_directions(extended_inventory):
    inv = extended_inventory

    def param(family, dim, *summands):
        return build_ld_parameter(
            [LDSummand(InertialPoint(inv[c], f), a, m) for c, f, a, m in summands], DualGroupDescriptor(family, dim)
        )

    def with_parts(phi0, *u):
        return parameter_to_triple(phi0, phi0)._replace(u_by_eigenblock=u)

    o = Family.ORTHOGONAL
    triv2 = unit_phi0(inv, "triv", o, 2)
    triv_chi = param(o, 4, ("triv", ONE, 1, 2), ("chi", ONE, 1, 2))
    triv3 = unit_phi0(inv, "triv", o, 3)
    # parameter -> triple: a class off the base parameter, a block of the
    # wrong size, and the even part 2 once at an orthogonal eigenvalue
    forward = [
        (param(o, 2, ("triv", ONE, 1, 1), ("chi", ONE, 1, 1)), triv2, "summand orbit 'chi' does not occur in the base parameter"),
        (unit_phi0(inv, "triv", o, 4), triv2, "block 'triv' has Weil multiplicity 4, expected 2"),
        (param(o, 3, ("triv", ONE, 2, 1), ("triv", ONE, 1, 1)), triv3, "partition parity violated at block 'triv', eigenvalue 1"),
    ]
    for phi, phi0, message in forward:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parameter_to_triple(phi, phi0)
    # triple -> parameter: the same three faults in the Jordan parts (the
    # first a label no class has, which once raised a bare KeyError); the
    # rebuilt summands fill the ambient, so only the Jordan data can object
    backward = [
        (with_parts(triv2, (("nosuch", 1), (1, 1))), triv2, "triple block 'nosuch' does not occur in the base parameter"),
        (with_parts(triv_chi, (("chi", ONE), (1,)), (("triv", ONE), (1, 1, 1))), triv_chi, "block 'chi' has Weil multiplicity 1, expected 2"),
        (with_parts(triv3, (("triv", ONE), (2, 1))), triv3, "partition parity violated at block 'triv', eigenvalue 1"),
    ]
    for t, phi0, message in backward:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            triple_to_parameter(t, phi0)


# ---------------------------------------------------------------------------
# a reference for the Jordan data: each ladder built one monomial per step
# from Fractions, then merged and sorted per block


def _reference_ladder(x, a):
    return [UnitMonomial(x.root, x.q_exponent + Fraction(a - 1 - 2 * j, 2)) for j in range(a)]


def _reference_family_at(orbit, x):
    if orbit.types is None or not x.is_sign:
        return "GL"
    return "O" if orbit.types[x.sign == -1] else "Sp"


def _reference_partition_ok(parts, family):
    if family == "GL":
        return True
    bad_parity = 0 if family == "O" else 1
    counts = {}
    for a in parts:
        counts[a] = counts.get(a, 0) + 1
    return all(c % 2 == 0 for a, c in counts.items() if a % 2 == bad_parity)


def _reference_build(raw):
    blocks = []
    for label in sorted(raw):
        merged = {}
        for x, m in raw[label]:
            merged[x] = merged.get(x, 0) + m
        blocks.append((label, tuple(sorted(merged.items(), key=lambda item: item[0]))))
    return tuple(blocks)


def _reference_jordan_data(summands, phi0):
    blocks = phi0.orbit_by_label
    raw_s = {label: [] for label in blocks}
    raw_u = {}
    for s in summands:
        cls = s.point.cls
        label = cls.orbit_label
        if label not in blocks:
            raise ValueError(f"summand orbit {label!r} does not occur in the base parameter")
        if cls.label != label:
            continue
        a, x = s.sl2_dim, s.point.f
        raw_s[label].extend((y, s.multiplicity) for y in _reference_ladder(x, a))
        if cls.is_self_dual and not x.is_sign and x != min(x, x.inverse()):
            continue
        raw_u.setdefault((label, x), []).extend([a] * s.multiplicity)
    for label, orbit in blocks.items():
        total = sum(mult for _, mult in raw_s[label])
        if total != orbit.multiplicity:
            raise ValueError(f"block {label!r} has Weil multiplicity {total}, expected {orbit.multiplicity}")
    u = tuple((key, tuple(sorted(parts, reverse=True))) for key, parts in sorted(raw_u.items()))
    for (label, x), parts in u:
        if not _reference_partition_ok(parts, _reference_family_at(blocks[label], x)):
            raise ValueError(f"partition parity violated at block {label!r}, eigenvalue {x}")
    return _reference_build(raw_s), u


DRAWN_INVENTORY = standard_inventory()
# the sign points, q**(1/2) and i, and a point that is both twisted and scaled
DRAWN_VALUES = (ONE, MINUS_ONE, Q_HALF, I_UNIT, MINUS_ONE * Q_HALF, I_UNIT * Q_HALF.inverse())


@st.composite
def drawn_parameters(draw):
    """A parameter of an orthogonal or symplectic ambient on 1-4 drawn
    summands ``(cls, f) (x) sp(a)`` of multiplicity m, each with its
    contragredient: at ``f**-1`` on the partner class of a dual pair, at
    ``f**-1`` on the class itself off the sign points."""
    summands = []
    entries = st.tuples(
        st.sampled_from(sorted(DRAWN_INVENTORY.classes)), st.sampled_from(DRAWN_VALUES), st.integers(1, 4), st.integers(1, 3)
    )
    for label, f, a, m in draw(st.lists(entries, min_size=1, max_size=4)):
        cls = DRAWN_INVENTORY[label]
        summands.append(LDSummand(InertialPoint(cls, f), a, m))
        if not cls.is_self_dual:
            summands.append(LDSummand(InertialPoint(DRAWN_INVENTORY[cls.duality.partner_label], f.inverse()), a, m))
        elif not f.is_sign:
            summands.append(LDSummand(InertialPoint(cls, f.inverse()), a, m))
    dim = sum(s.dim for s in summands)
    family = draw(st.sampled_from([Family.ORTHOGONAL, Family.SYMPLECTIC][: 2 - dim % 2]))
    return build_ld_parameter(summands, DualGroupDescriptor(family, dim))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None)
@given(drawn_parameters())
@example(build_ld_parameter(  # a dual pair off the sign points, with an SL2 part, next to the pair i, -i twice
    [
        LDSummand(InertialPoint(DRAWN_INVENTORY["alpha"], Q_HALF), 3, 2),
        LDSummand(InertialPoint(DRAWN_INVENTORY["beta"], Q_HALF.inverse()), 3, 2),
        LDSummand(InertialPoint(DRAWN_INVENTORY["rho_mix"], I_UNIT), 2, 2),
        LDSummand(InertialPoint(DRAWN_INVENTORY["rho_mix"], I_UNIT.inverse()), 2, 2),
        LDSummand(InertialPoint(DRAWN_INVENTORY["triv"], MINUS_ONE), 2, 2),
    ],
    DualGroupDescriptor(Family.SYMPLECTIC, 32),
))
def test_triples_match_the_reference_jordan_data(phi):
    phi0 = normed_parameter(phi)
    t = _outcome(parameter_to_triple, phi, phi0)
    expected = _outcome(_reference_jordan_data, phi.summands, phi0)
    if isinstance(expected, str):
        assert t == expected
        return
    assert (t.s, t.u_by_eigenblock) == expected
    assert triple_to_parameter(t, phi0) == phi


def test_component_group_of_triple(extended_inventory):
    inv = extended_inventory
    sp4 = DualGroupDescriptor(Family.SYMPLECTIC, 4)
    # connected centralizer: regular unipotent has one even part
    phi = build_ld_parameter([LDSummand(InertialPoint(inv["triv"], ONE), 4)], sp4)
    phi0 = normed_parameter(phi)
    g = component_group_of_triple(parameter_to_triple(phi, phi0), phi0)
    assert g.order == 2

    trivial_u = build_ld_parameter([LDSummand(InertialPoint(inv["triv"], ONE), 1, 4)], sp4)
    g0 = component_group_of_triple(parameter_to_triple(trivial_u, phi0), phi0)
    assert g0.order == 1  # Sp block, no even parts

    o6 = DualGroupDescriptor(Family.ORTHOGONAL, 6)
    phi51 = build_ld_parameter(
        [
            LDSummand(InertialPoint(inv["triv"], ONE), 5),
            LDSummand(InertialPoint(inv["triv"], ONE), 1),
        ],
        o6,
    )
    phi0_o6 = normed_parameter(phi51)
    g2 = component_group_of_triple(parameter_to_triple(phi51, phi0_o6), phi0_o6)
    assert g2.order == 4
    assert g2.det_signs == (-1, -1)
    assert g2.plus_order == 2

    # a class of dimension 2: the generator of the odd part 3 has determinant 1
    mix3 = build_ld_parameter([LDSummand(InertialPoint(inv["rho_mix"], ONE), 3)], o6)
    phi0_mix3 = normed_parameter(mix3)
    g3 = component_group_of_triple(parameter_to_triple(mix3, phi0_mix3), phi0_mix3)
    assert g3.det_signs == (1,)
    assert g3.plus_order == 2


def test_component_group_matches_summand_model(extended_inventory):
    # every discrete parameter up to dimension 10, orthogonal and symplectic;
    # the base parameter's orbit blocks are all the triple's component group reads
    checked = 0
    for ambient in classical_ambients(10):
        for phi in discrete_parameters(extended_inventory, ambient):
            phi0 = normed_parameter(phi)
            t = parameter_to_triple(phi, phi0)
            assert component_group_of_triple(t, phi0).order == component_group(phi).order, phi
            checked += 1
    assert checked == 3438


def test_realize_matrices_sp2(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [LDSummand(InertialPoint(inv["triv"], ONE), 2)],
        DualGroupDescriptor(Family.SYMPLECTIC, 2),
    )
    s, u, g = realize_matrices(phi)
    assert s == [[Fraction(2), 0], [0, Fraction(1, 2)]]
    assert u == [[1, 1], [0, 1]]
    # the preserved form is alternating: orthogonal point, even SL2 factor
    assert g[0][1] == -g[1][0] and g[0][0] == g[1][1] == 0


def test_realize_matrices_checks_that_s_preserves_the_gram_form(six_class_inventory, monkeypatch):
    # a (2-dim symplectic class) x SL2(2), twice: k = 4 copies of each
    # ladder step, at s entries j*4 + c, with the alternating form on the copies
    phi = build_ld_parameter(
        [LDSummand(InertialPoint(six_class_inventory["a"], ONE), 2, 2)],
        DualGroupDescriptor(Family.ORTHOGONAL, 8),
    )
    realize_matrices(phi)
    # S -> S D with D = -1 on copy c = 0: D commutes with u, so s u s^-1 = u^q
    # still holds, but the form pairs copy 0 with copy 3, so D breaks it
    flip = [-1 if i % 4 == 0 else 1 for i in range(8)]
    rescaled = centralizer._rescaled

    def flipped(left, m, right):
        return rescaled([d * v for d, v in zip(flip, left)], m, [d * v for d, v in zip(flip, right)])

    monkeypatch.setattr(centralizer, "_rescaled", flipped)
    with pytest.raises(CheckError, match="Gram form not preserved"):
        realize_matrices(phi)


def _fmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _fkron(a, b):
    nb = len(b)
    n = len(a) * nb
    return [[a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(n)] for i in range(n)]


def _fblock_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(b)] = row
        off += len(b)
    return out


def _fraction_oracle(phi):
    """s, u and the Gram form of ``phi`` at q = 4, built over Fraction from
    their definitions: the ladder diagonal f q**((a-1)/2 - j), the series
    sum N**k / k! and the block Gram form (antidiagonal signs on the SL2
    factor, tensored with the identity or the standard alternating form)."""
    s_blocks, u_blocks, g_blocks = [], [], []
    for summand in phi.summands:
        a, f = summand.sl2_dim, summand.point.f.sign
        k = summand.point.cls.dim * summand.multiplicity
        duality = summand.point.cls.duality
        tag = duality.type_at_plus if f == 1 else duality.type_at_minus
        ident = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        ladder = [f * Fraction(2) ** (a - 1 - 2 * j) for j in range(a)]
        s_a = [[ladder[i] if i == j else Fraction(0) for j in range(a)] for i in range(a)]
        u_a = [[Fraction(1, math.factorial(j - i)) if j >= i else Fraction(0) for j in range(a)] for i in range(a)]
        g_a = [[Fraction((-1) ** i) if i + j == a - 1 else Fraction(0) for j in range(a)] for i in range(a)]
        if tag is DualityType.ORTHOGONAL:
            g_k = ident
        else:
            g_k = [[Fraction(1 if i < k // 2 else -1) if i + j == k - 1 else Fraction(0) for j in range(k)] for i in range(k)]
        s_blocks.append(_fkron(s_a, ident))
        u_blocks.append(_fkron(u_a, ident))
        g_blocks.append(_fkron(g_a, g_k))
    return _fblock_diag(s_blocks), _fblock_diag(u_blocks), _fblock_diag(g_blocks)


def test_realize_matrices_matches_a_fraction_oracle():
    inv = standard_inventory()
    count = 0
    for ambient in classical_ambients(8):
        for phi in discrete_parameters(inv, ambient):
            s, u, g = _fraction_oracle(phi)
            # the assembled blocks, zero padding included
            assert realize_matrices(phi) == (s, u, g)
            if ambient.ambient_dim <= 6:
                s_inv = [[1 / v if v else v for v in row] for row in s]
                u4 = _fmul(_fmul(u, u), _fmul(u, u))
                assert _fmul(_fmul(s, u), s_inv) == u4
            count += 1
    assert count == 375


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.integers(0, 9),
)
def test_mat_pow_matches_repeated_products(a, e):
    expected = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(e):
        expected = centralizer._mat_mul(expected, a)
    assert centralizer._mat_pow(a, e) == expected


def _int_matrices(rows, cols):
    # entries drawn from a few values, zero among them, so zero rows and
    # columns and all-zero matrices occur
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda nkm: st.tuples(_int_matrices(nkm[0], nkm[1]), _int_matrices(nkm[1], nkm[2]))
    )
)
@example(([[0, 0]], [[0, 0, 0], [0, 0, 0]]))
@example(([[1, 0], [0, 0], [2, -1]], [[0, 3], [0, 0]]))
def test_mat_mul_matches_a_triple_loop(ab):
    a, b = ab
    n, k, m = len(a), len(b), len(b[0])
    expected = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    assert centralizer._mat_mul(a, b) == expected
    # as a shared block, b is walked through nonzero columns kept per block
    block = tuple(map(tuple, b))
    assert centralizer._mat_mul(a, block) == centralizer._mat_mul(tuple(map(tuple, a)), block) == expected
    assert centralizer._block_nonzero_columns(block) == tuple(map(tuple, centralizer._nonzero_columns(b)))


def test_realize_matrices_caps_dimension(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [LDSummand(InertialPoint(inv["triv"], ONE), 17)],
        DualGroupDescriptor(Family.ORTHOGONAL, 17),
    )
    with pytest.raises(ValueError):
        realize_matrices(phi)



def _raised(f, phi):
    try:
        f(phi)
    except (CheckError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def test_check_matrices_raises_what_realize_matrices_raises(extended_inventory, monkeypatch):
    inv = Inventory(dict(extended_inventory.classes))
    co, cs = DualityType.CONJUGATE_ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC
    inv.add(InertialClass("u1", 1, 1, SelfDual(co, cs), "u1"))
    inv.add(InertialClass("sp1", 1, 1, SelfDual(DualityType.SYMPLECTIC, DualityType.SYMPLECTIC), "sp1"))
    half = UnitMonomial(0, Fraction(1, 2))

    def param(family, dim, *summands):
        return build_ld_parameter([LDSummand(InertialPoint(inv[c], f), a, m) for c, f, a, m in summands], DualGroupDescriptor(family, dim))

    o, sp = Family.ORTHOGONAL, Family.SYMPLECTIC
    sl2_pair = param(o, 6, ("triv", ONE, 3, 1), ("triv", MINUS_ONE, 3, 1))
    odd_ladder = param(sp, 6, ("a", ONE, 3, 1))
    # parameters of the wrong tensor type, which build_ld_parameter leaves to the oracle
    symplectic_in_o = param(o, 4, ("triv", ONE, 2, 1), ("triv", MINUS_ONE, 2, 1))
    orthogonal_in_sp = param(sp, 2, ("triv", ONE, 1, 1), ("triv", MINUS_ONE, 1, 1))
    cases = [
        (param(o, 17, ("triv", ONE, 17, 1)), "matrix oracle capped at ambient dimension 16"),
        (param(Family.UNITARY_L, 1, ("u1", ONE, 1, 1)), "matrix oracle covers the classical ambients only"),
        (param(o, 2, ("triv", half, 1, 1), ("triv", half.inverse(), 1, 1)), "matrix oracle needs self-dual sign points"),
        (param(o, 1, ("sp1", ONE, 1, 1)), "symplectic representation dimension must be even"),
        (param(o, 3, ("triv", ONE, 1, 2), ("sp1", ONE, 1, 1)), "symplectic representation dimension must be even"),
    ]
    for phi, message in cases:
        assert _raised(centralizer.check_matrices, phi) == _raised(realize_matrices, phi) == (ValueError, message)
    for phi, message in ((symplectic_in_o, "expected a symmetric form"), (orthogonal_in_sp, "expected an alternating form")):
        assert _raised(centralizer.check_matrices, phi) == _raised(realize_matrices, phi) == (CheckError, message)
    for phi in (sl2_pair, odd_ladder):
        assert _raised(centralizer.check_matrices, phi) is _raised(realize_matrices, phi) is None
    with monkeypatch.context() as patch:
        patch.setattr(centralizer, "SQRT_Q", 3)
        for phi in (sl2_pair, odd_ladder):
            expected = (CheckError, "q-scaling relation fails")
            assert _raised(centralizer.check_matrices, phi) == _raised(realize_matrices, phi) == expected
    with monkeypatch.context() as patch:
        patch.setattr(centralizer, "_transpose", lambda a: [[-v for v in row] for row in zip(*a)])
        for phi in (sl2_pair, odd_ladder):
            expected = (CheckError, "Gram form not preserved")
            assert _raised(centralizer.check_matrices, phi) == _raised(realize_matrices, phi) == expected


def test_a_summand_off_the_ambient_type_gets_a_hyperbolic_form(six_class_inventory):
    # of even multiplicity, such a summand is valid: its multiplicity space
    # carries a hyperbolic form, so the Gram form has the ambient's parity
    inv = six_class_inventory
    o, sp = Family.ORTHOGONAL, Family.SYMPLECTIC
    cases = [
        (o, 4, "triv", ONE, 2, 2),  # symplectic summand in O4
        (sp, 2, "triv", ONE, 1, 2),  # orthogonal summand in Sp2
        (o, 8, "triv", MINUS_ONE, 2, 4),
        (o, 8, "a", ONE, 1, 4),  # a symplectic class of dimension 2
        (sp, 8, "rho_mix", MINUS_ONE, 2, 2),
        # ambient-type summands of multiplicity above 1, which passed before
        (o, 2, "triv", ONE, 1, 2),
        (sp, 4, "a", ONE, 1, 2),
        (sp, 6, "triv", ONE, 3, 2),
    ]
    for family, dim, label, f, a, mult in cases:
        phi = build_ld_parameter([LDSummand(InertialPoint(inv[label], f), a, mult)], DualGroupDescriptor(family, dim))
        s, u, g = realize_matrices(phi)
        sign = 1 if family is o else -1
        assert [list(col) for col in zip(*g)] == [[sign * v for v in row] for row in g]
        # one nonzero entry in each row and each column, so nondegenerate
        assert all(sum(map(bool, line)) == 1 for line in [*g, *zip(*g)])
        u_t = [list(col) for col in zip(*u)]
        assert _fmul(_fmul(u_t, g), u) == g
        assert _fmul(_fmul(s, g), s) == g
        s_inv = [[1 / v if v else v for v in row] for row in s]
        assert _fmul(_fmul(s, u), s_inv) == _fmul(_fmul(u, u), _fmul(u, u))
        assert centralizer.check_matrices(phi).g_blocks == [tuple(tuple(int(v) for v in row) for row in g)]


def test_realize_matrices_returns_new_matrices_on_every_call(six_class_inventory):
    # two summands of one shape and one of another, so that shared blocks occur twice in a call
    inv = six_class_inventory
    phi = build_ld_parameter(
        [
            LDSummand(InertialPoint(inv["a"], ONE), 2, 1),
            LDSummand(InertialPoint(inv["rho_mix"], MINUS_ONE), 2, 1),
            LDSummand(InertialPoint(inv["triv"], ONE), 3, 1),
        ],
        DualGroupDescriptor(Family.ORTHOGONAL, 11),
    )
    first = realize_matrices(phi)
    second = realize_matrices(phi)
    assert first == second
    kept = [[list(row) for row in m] for m in second]
    for m in first:
        for row in m:
            row[:] = [v + 1 for v in row]
    assert second == tuple(kept)
    assert realize_matrices(phi) == second
    assert centralizer.check_matrices(phi).u_blocks[0] is centralizer.check_matrices(phi).u_blocks[1]
