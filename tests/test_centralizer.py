import math
from fractions import Fraction

import pytest

from hecke_atlas.centralizer import (
    SemisimpleClassDescriptor,
    c_prime,
    centralizer_of_image,
    centralizer_of_s,
    component_group_of_triple,
    parameter_to_triple,
    realize_matrices,
    s_phi,
    triple_to_json_dict,
    triple_to_parameter,
)
from hecke_atlas.params import (
    LDSummand,
    build_ld_parameter,
    component_group,
    discrete_parameters,
    is_supercuspidal_shape,
    normed_parameter,
)
from hecke_atlas.verify import _classical_ambients, standard_inventory
from hecke_atlas.weil import (
    DualGroupDescriptor,
    DualityType,
    Family,
    Inventory,
    SelfDual,
    UnitMonomial,
    make_inertial_class,
    orbit_point,
)

ONE = UnitMonomial.one()
MINUS = UnitMonomial.minus_one()
Q_HALF = UnitMonomial.of(0, Fraction(1, 2))
I_UNIT = UnitMonomial.of(Fraction(1, 4), 0)


def unit_phi0(inv, label, family, dim):
    return build_ld_parameter(
        [LDSummand(orbit_point(inv[label], ONE), 1, dim // inv[label].dim)],
        DualGroupDescriptor(family, dim),
        inv,
    )


def test_centralizer_of_image_full_group(extended_inventory):
    phi0 = unit_phi0(extended_inventory, "triv", Family.SYMPLECTIC, 6)
    c = centralizer_of_image(phi0)
    assert c.descriptor.factors == (("Sp", 6, "triv@1:sp1"),)
    assert not c.has_det_restriction


def test_centralizer_of_image_orthogonal(extended_inventory):
    phi0 = unit_phi0(extended_inventory, "triv", Family.ORTHOGONAL, 5)
    c = centralizer_of_image(phi0)
    assert c.descriptor.factors == (("O", 5, "triv@1:sp1"),)
    assert c.has_det_restriction
    assert c.gl_descriptor.factors == (("GL", 5, "triv@1:sp1"),)


def test_centralizer_of_image_dual_pair(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [
            LDSummand(orbit_point(inv["alpha"], ONE), 1, 2),
            LDSummand(orbit_point(inv["beta"], ONE), 1, 2),
        ],
        DualGroupDescriptor(Family.ORTHOGONAL, 4),
        inv,
    )
    c = centralizer_of_image(phi)
    assert c.descriptor.factors == (("GL", 2, "alpha@1:sp1"),)
    assert ("GL", 2, "alpha@1:sp1*") in c.gl_descriptor.factors


def test_s_phi(extended_inventory):
    inv = extended_inventory
    phi0 = unit_phi0(inv, "triv", Family.ORTHOGONAL, 5)
    s0 = s_phi(phi0)
    assert s0.blocks == (("triv", ((ONE, 5),)),)
    twisted = build_ld_parameter(
        [
            LDSummand(orbit_point(inv["triv"], I_UNIT), 1, 2),
            LDSummand(orbit_point(inv["triv"], I_UNIT.inverse()), 1, 2),
            LDSummand(orbit_point(inv["triv"], ONE), 1, 1),
        ],
        DualGroupDescriptor(Family.ORTHOGONAL, 5),
        inv,
    )
    st = s_phi(twisted)
    assert dict(st.blocks)["triv"] == tuple(sorted(((ONE, 1), (I_UNIT, 2), (I_UNIT.inverse(), 2))))


def test_centralizer_of_s_identity(extended_inventory):
    phi0 = unit_phi0(extended_inventory, "triv", Family.ORTHOGONAL, 5)
    res = centralizer_of_s(phi0, s_phi(phi0))
    assert res.h.factors == (("O", 5, "triv@1"),)
    assert res.agree and res.mixed_blocks == ()


def test_centralizer_of_s_mixed_orbit_minus_one(extended_inventory):
    inv = extended_inventory
    # 3 copies of a mixed-type orbit: of ambient type at 1, not at -1
    phi0 = build_ld_parameter(
        [LDSummand(orbit_point(inv["rho_mix"], ONE), 1, 3)],
        DualGroupDescriptor(Family.ORTHOGONAL, 6),
        inv,
    )
    s = SemisimpleClassDescriptor.build(
        {"rho_mix": [(Q_HALF, 1), (Q_HALF.inverse(), 1), (ONE, 1)]}
    )
    res = centralizer_of_s(phi0, s)
    assert res.h.factors == (("GL", 1, "rho_mix@zeta^(0)*q^(-1/2)"), ("O", 1, "rho_mix@1"))
    assert res.mixed_blocks == ("rho_mix",)
    assert res.m_minus_one_mixed == 0 and res.agree

    s2 = SemisimpleClassDescriptor.build({"rho_mix": [(MINUS, 2), (ONE, 1)]})
    res2 = centralizer_of_s(phi0, s2)
    assert ("Sp", 2, "rho_mix@-1") in res2.h.factors
    assert ("O", 2, "rho_mix@-1") in res2.h_prime.factors
    assert res2.m_minus_one_mixed == 2 and not res2.agree


def test_centralizer_of_s_rejects_bad_multiplicity(extended_inventory):
    phi0 = unit_phi0(extended_inventory, "triv", Family.ORTHOGONAL, 5)
    bad = SemisimpleClassDescriptor.build({"triv": [(ONE, 4)]})
    with pytest.raises(ValueError):
        centralizer_of_s(phi0, bad)
    unpaired = SemisimpleClassDescriptor.build({"triv": [(I_UNIT, 3), (I_UNIT.inverse(), 1), (ONE, 1)]})
    with pytest.raises(ValueError):
        centralizer_of_s(phi0, unpaired)


def test_c_prime(extended_inventory):
    inv = extended_inventory
    phi0 = unit_phi0(inv, "triv", Family.ORTHOGONAL, 5)
    s = SemisimpleClassDescriptor.build({"triv": [(ONE, 3), (MINUS, 2)]})
    assert c_prime(phi0, s) == centralizer_of_s(phi0, s).h

    mixed = build_ld_parameter(
        [LDSummand(orbit_point(inv["rho_mix"], ONE), 1, 5)],
        DualGroupDescriptor(Family.ORTHOGONAL, 10),
        inv,
    )
    s2 = SemisimpleClassDescriptor.build({"rho_mix": [(ONE, 3), (MINUS, 2)]})
    cp = c_prime(mixed, s2)
    assert ("O", 3, "rho_mix@1") in cp.factors
    assert ("Sp", 2, "rho_mix@-1") in cp.factors


def test_c_prime_on_a_label_containing_at():
    inv = Inventory()
    inv.add(make_inertial_class("m@x", 2, 1, SelfDual(DualityType.SYMPLECTIC, DualityType.ORTHOGONAL)))
    phi0 = unit_phi0(inv, "m@x", Family.ORTHOGONAL, 8)
    s = SemisimpleClassDescriptor.build({"m@x": [(ONE, 2), (MINUS, 2)]})
    assert c_prime(phi0, s).factors == (("O", 2, "m@x@1"), ("Sp", 2, "m@x@-1"))


def test_round_trip_examples(extended_inventory):
    inv = extended_inventory
    sp4 = DualGroupDescriptor(Family.SYMPLECTIC, 4)
    phi = build_ld_parameter([LDSummand(orbit_point(inv["triv"], ONE), 4)], sp4, inv)
    phi0 = normed_parameter(phi, inv)
    t = parameter_to_triple(phi, phi0)
    ladder = dict(t.s.blocks)["triv"]
    assert {x.q_exponent for x, _ in ladder} == {
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-3, 2),
    }
    assert dict(t.u_by_eigenblock)[("triv", ONE)] == (4,)
    assert triple_to_parameter(t, phi0, inv) == phi

    phi2 = build_ld_parameter(
        [
            LDSummand(orbit_point(inv["triv"], ONE), 2),
            LDSummand(orbit_point(inv["triv"], MINUS), 2),
        ],
        sp4,
        inv,
    )
    t2 = parameter_to_triple(phi2, phi0)
    assert dict(t2.u_by_eigenblock) == {("triv", ONE): (2,), ("triv", MINUS): (2,)}
    assert triple_to_parameter(t2, phi0, inv) == phi2


def test_round_trip_all_discrete_small(extended_inventory):
    inv = extended_inventory
    for dim in range(1, 7):
        ambients = [DualGroupDescriptor(Family.ORTHOGONAL, dim)]
        if dim % 2 == 0:
            ambients.append(DualGroupDescriptor(Family.SYMPLECTIC, dim))
        for ambient in ambients:
            for phi in discrete_parameters(inv, ambient):
                phi0 = normed_parameter(phi, inv)
                t = parameter_to_triple(phi, phi0)
                assert triple_to_parameter(t, phi0, inv) == phi


def test_component_group_of_triple(extended_inventory):
    inv = extended_inventory
    sp4 = DualGroupDescriptor(Family.SYMPLECTIC, 4)
    # connected centralizer: regular unipotent has one even part
    phi = build_ld_parameter([LDSummand(orbit_point(inv["triv"], ONE), 4)], sp4, inv)
    phi0 = normed_parameter(phi, inv)
    g = component_group_of_triple(parameter_to_triple(phi, phi0))
    assert g.order == 2

    trivial_u = build_ld_parameter([LDSummand(orbit_point(inv["triv"], ONE), 1, 4)], sp4, inv)
    g0 = component_group_of_triple(parameter_to_triple(trivial_u, phi0))
    assert g0.order == 1  # Sp block, no even parts

    o6 = DualGroupDescriptor(Family.ORTHOGONAL, 6)
    phi51 = build_ld_parameter(
        [
            LDSummand(orbit_point(inv["triv"], ONE), 5),
            LDSummand(orbit_point(inv["triv"], ONE), 1),
        ],
        o6,
        inv,
    )
    phi0_o6 = normed_parameter(phi51, inv)
    g2 = component_group_of_triple(parameter_to_triple(phi51, phi0_o6))
    assert g2.order == 4
    assert g2.det_signs == (-1, -1)
    assert g2.plus_order == 2

    # a class of dimension 2: the generator of the odd part 3 has determinant 1
    mix3 = build_ld_parameter([LDSummand(orbit_point(inv["rho_mix"], ONE), 3)], o6, inv)
    g3 = component_group_of_triple(parameter_to_triple(mix3, normed_parameter(mix3, inv)))
    assert g3.det_signs == (1,)
    assert g3.plus_order == 2


def test_component_group_matches_summand_model(extended_inventory):
    inv = extended_inventory
    for dim in range(1, 7):
        for phi in discrete_parameters(inv, DualGroupDescriptor(Family.ORTHOGONAL, dim)):
            if not is_supercuspidal_shape(phi):
                continue
            phi0 = normed_parameter(phi, inv)
            t = parameter_to_triple(phi, phi0)
            g = component_group_of_triple(t)
            assert g.order == component_group(phi).order


def test_realize_matrices_sp2(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [LDSummand(orbit_point(inv["triv"], ONE), 2)],
        DualGroupDescriptor(Family.SYMPLECTIC, 2),
        inv,
    )
    s, u, g = realize_matrices(phi)
    assert s == [[Fraction(2), 0], [0, Fraction(1, 2)]]
    assert u == [[1, 1], [0, 1]]
    # the preserved form is alternating: orthogonal point, even SL2 factor
    assert g[0][1] == -g[1][0] and g[0][0] == g[1][1] == 0


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
    for ambient in _classical_ambients(6):
        for phi in discrete_parameters(inv, ambient):
            s, u, g = _fraction_oracle(phi)
            assert realize_matrices(phi) == (s, u, g)
            s_inv = [[1 / v if v else v for v in row] for row in s]
            u4 = _fmul(_fmul(u, u), _fmul(u, u))
            assert _fmul(_fmul(s, u), s_inv) == u4
            count += 1
    assert count > 100


def test_realize_matrices_caps_dimension(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [LDSummand(orbit_point(inv["triv"], ONE), 13)],
        DualGroupDescriptor(Family.ORTHOGONAL, 13),
        inv,
    )
    with pytest.raises(ValueError):
        realize_matrices(phi)


def test_triple_json(extended_inventory):
    inv = extended_inventory
    phi = build_ld_parameter(
        [LDSummand(orbit_point(inv["triv"], ONE), 4)],
        DualGroupDescriptor(Family.SYMPLECTIC, 4),
        inv,
    )
    phi0 = normed_parameter(phi, inv)
    data = triple_to_json_dict(parameter_to_triple(phi, phi0))
    assert set(data) == {"group", "eigenvalues", "partitions"}
    assert data["partitions"] == {"triv@1": [4]}
