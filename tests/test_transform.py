"""Derivation maps: images, transport homomorphism, commutation checks."""

import random

import pytest

from _helpers import random_poly_from, reference_miura_mix_images, transportable_jets
from jetcalc.diffalg import RatExpr, is_zero, substitute_jet
from jetcalc.exprio import parse, print_text
from jetcalc.hierarchies import (ch_space, gen_cbs_family, gen_ch, gen_mcbs_family,
                                 gen_miura_relations, gen_qiao, mr_space, q_space, r_space)
from jetcalc.reduction import (JetRanking, RewriteSystem, bcbs_system, orient,
                               standard_systems)
from jetcalc.transform import (BelowDesignatedJetError, DerivationMap, TransportError,
                               UndefinedDerivationError, back_mix_map,
                               build_map, check_commutation, compose, miura_map,
                               miura_mix_map)


def test_r_ch_field_images():
    m = build_map("R_CH", 2)
    chs, rsp = ch_space(2), r_space(2)
    assert is_zero(m.jet_image(chs.jet("P")) - parse("1/X_{T0}", rsp))
    assert is_zero(m.jet_image(chs.jet("Omega", 2)) - parse("2*X_{T2}", rsp))


def test_transported_p_t_matches_hand_expansion():
    m = build_map("R_CH", 2)
    got = m.transport(ch_space(2).expr("P", T=1))
    expected = parse("-X_{T0,T1}/X_{T0}^2 + X_{T1}*X_{T0,T0}/X_{T0}^3", r_space(2))
    assert is_zero(got - expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conservative_equation_identically_satisfied(n):
    m = build_map("R_CH", n)
    assert m.transport(gen_ch(n)[0].residual).is_zero()


def test_bare_v_rejected_below_designated_jet():
    m = build_map("R_Q", 2)
    with pytest.raises(BelowDesignatedJetError):
        m.transport(q_space(2).expr("v", 1))


def test_bare_x_field_rejected_under_back_maps():
    m = build_map("B_CH", 2)
    with pytest.raises(BelowDesignatedJetError):
        m.transport(r_space(2).expr("X"))


def test_undefined_direction_under_back_maps():
    m = build_map("B_CH", 2)
    with pytest.raises(UndefinedDerivationError):
        m.transport(r_space(2).expr("X", T2=2))


def test_unknown_selector():
    with pytest.raises(ValueError):
        build_map("R_XY", 2)


def test_c_mr_u_image_reduces_to_p_when_p_x_vanishes():
    m = build_map("C_MR", 1)
    chs = ch_space(1)
    u_img = m.jet_image(q_space(1).jet("u"))
    flat = substitute_jet(u_img, chs.jet("P", X=1), RatExpr.const(0))
    assert is_zero(flat - chs.expr("P"))


def test_c_mr_w_image_halves_constant_omega():
    m = build_map("C_MR", 1)
    chs = ch_space(1)
    w_img = m.jet_image(q_space(1).jet("w", 1))
    flat = substitute_jet(w_img, chs.jet("Omega", 1, X=1), RatExpr.const(0))
    assert is_zero(flat - chs.expr("Omega", 1) / 2)


def test_c_mr_heights_identity_by_construction():
    for n in (1, 2):
        m = build_map("C_MR", n)
        chs = ch_space(n)
        u_img = m.jet_image(q_space(n).jet("u"))
        gap = chs.expr("P") - chs.expr("P", X=1)
        assert is_zero(chs.expr("P") ** 2 - u_img * gap)


MAPS = ["R_CH", "R_Q", "B_CH", "B_Q", "C_MR"]


def _derivative_law_modulus(name, n):
    """The partial inverses satisfy the derivative law only on-shell: reaching
    a mixed jet through different designated bases composes the derivation
    images in different orders, and those commute modulo the conservative-form
    equation (exactly the d^2 T0 = 0 content)."""
    if name == "B_CH":
        return standard_systems("CH", n)
    if name == "B_Q":
        qspace = q_space(n)
        rule = orient(gen_qiao(n)[0], qspace.jet("u", t=1))
        return RewriteSystem([rule], JetRanking(qspace))
    return None


@pytest.mark.parametrize("name", MAPS)
def test_transport_homomorphism_laws(name):
    # jet exponents stay at one: no hierarchy equation ever multiplies squares
    # of second-time-derivative images, and those dominate the cost otherwise
    n = 2
    m = build_map(name, n)
    modulus = _derivative_law_modulus(name, n)
    jets = transportable_jets(m, depth=2)
    rng = random.Random(sum(ord(c) for c in name))
    weight = dict(max_terms=3, max_factors=1) if name == "C_MR" else dict(max_exp=1)
    for _ in range(200):
        f = random_poly_from(jets, rng, **weight)
        g = random_poly_from(jets, rng, **weight)
        tf_, tg = m.transport(f), m.transport(g)
        assert is_zero(m.transport(f + g) - tf_ - tg)
        assert is_zero(m.transport(f * g) - tf_ * tg)
        var = rng.choice(sorted(m.op_images))
        gap = m.transport(f.total_derivative(var)) - m.derive(tf_, var)
        if modulus is not None:
            gap = modulus.reduce(gap)
        assert is_zero(gap)


def test_round_trip_through_x_derivatives_only():
    n = 2
    fwd = build_map("R_CH", n)
    back = build_map("B_CH", n)
    chs = ch_space(n)
    rng = random.Random(5)
    x_jets = [f.jet(X=k) for f in chs.fields for k in range(0, 3)]
    for _ in range(100):
        e = random_poly_from(x_jets, rng)
        assert is_zero(back.transport(fwd.transport(e)) - e)


def test_forward_maps_commute_identically():
    for name in ("R_CH", "R_Q", "C_MR"):
        m = build_map(name, 2)
        assert check_commutation(m, 25, seed=1)
    # the extended composite map commutes identically pairwise on each
    # field's dependency pair; the fused back map is on-shell only, like B_CH
    assert check_commutation(miura_mix_map(build_map("C_MR", 2), 2), 10, seed=1)
    assert not check_commutation(back_mix_map(2), 5, seed=1)


def test_back_maps_commute_only_modulo_their_hierarchy():
    n = 2
    b_ch = build_map("B_CH", n)
    assert not check_commutation(b_ch, 10, seed=3)
    assert check_commutation(b_ch, 10, seed=3, modulo=standard_systems("CH", n))
    b_q = build_map("B_Q", n)
    assert not check_commutation(b_q, 10, seed=3)
    qspace = q_space(n)
    rule = orient(gen_qiao(n)[0], qspace.jet("u", t=1))
    qiao_sys = RewriteSystem([rule], JetRanking(qspace))
    assert check_commutation(b_q, 10, seed=3, modulo=qiao_sys)


def test_corrupted_map_detected():
    n = 2
    good = build_map("R_CH", n)
    broken_ops = dict(good.op_images)
    coeff, var = broken_ops["X"][0]
    broken_ops["X"] = ((coeff + 1, var),)
    bad = DerivationMap("R_CH_corrupt", good.source, good.target,
                        good.field_images, broken_ops)
    assert not check_commutation(bad, 10, seed=2)


def test_transport_rejects_wrong_space():
    m = build_map("R_CH", 2)
    with pytest.raises(TransportError):
        m.transport(r_space(2).expr("X", T0=1))


def test_memoization_is_consistent():
    m = build_map("R_CH", 2)
    e = ch_space(2).expr("P", X=2, T=1)
    first = m.transport(e)
    second = m.transport(e)
    assert first == second
    assert print_text(first) == print_text(second)


def _composite(n):
    return compose(build_map("R_Q", n), compose(miura_map(n), build_map("B_CH", n)))


def _hand_c_mr_images(n):
    """C_MR's field images and x-derivation as they were written by hand
    before C_MR was composed from R_Q, the Miura map and B_CH."""
    qs, chs = q_space(n), ch_space(n)
    P = chs.expr("P")
    gap = P - chs.expr("P", X=1)
    images = {qs.jet("u"): (P * P).div(gap)}
    for i in range(1, n + 1):
        images[qs.jet("w", i)] = (chs.expr("Omega", i, X=1) + chs.expr("Omega", i)) / 2
        images[qs.jet("v", i, x=1)] = \
            (chs.expr("Omega", i, X=2) + chs.expr("Omega", i, X=1)).div(2 * P)
    return images, ((P.div(gap), "X"),)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_c_mr_keeps_the_hand_images_as_a_composite(n):
    images, x_op = _hand_c_mr_images(n)
    for m in (_composite(n), build_map("C_MR", n)):
        assert list(m.field_images.items()) == list(images.items())
        assert m.op_images["x"] == x_op


def _in_dict_order(field_images, op_images):
    """A map's images with their keys and every expression's terms in dict
    order."""
    def terms(e):
        return list(e.num.terms.items()), list(e.den.terms.items())

    return ([(jet, terms(image)) for jet, image in field_images.items()],
            [(var, [(terms(coeff), tv) for coeff, tv in pairs])
             for var, pairs in op_images.items()])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_mixed_miura_map_extends_c_mr_with_the_images_it_composed_itself(n):
    m = miura_mix_map(build_map("C_MR", n), n)
    assert m.source is mr_space(n) and m.target is ch_space(n)
    assert _in_dict_order(m.field_images, m.op_images) == \
        _in_dict_order(*reference_miura_mix_images(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_composite_t_derivation_holds_only_modulo_ch(n):
    # why C_MR keeps its hand t-derivation: the composite's differs from it,
    # and commutes with its x-derivation, only on solutions of CH
    composite = _composite(n)
    ch = standard_systems("CH", n)
    chs = ch_space(n)
    P = chs.expr("P")
    hand = chs.expr("P", T=1).div(P - chs.expr("P", X=1))
    assert build_map("C_MR", n).op_images["t"] == ((RatExpr.const(1), "T"), (hand, "X"))
    coeffs = {}
    for coeff, tv in composite.op_images["t"]:
        coeffs[tv] = coeffs.get(tv, 0) + coeff
    assert coeffs["T"] == RatExpr.const(1)
    assert not is_zero(coeffs["X"] - hand)
    assert is_zero(ch.reduce(coeffs["X"] - hand))
    assert not check_commutation(composite, 10, seed=1)
    assert check_commutation(composite, 10, seed=1, modulo=ch)


def test_compose_drops_directions_the_outer_map_leaves_undefined():
    n = 3
    inner = compose(miura_map(n), build_map("B_CH", n))
    assert sorted(inner.op_images) == ["T0", "T1"]
    with pytest.raises(TransportError):
        compose(build_map("B_CH", n), miura_map(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_miura_map_solves_the_height_relation(n):
    x0 = r_space(n).jet("x", T0=1)
    heights = next(e for e in gen_miura_relations(n) if e.label == "HEIGHTS_R")
    assert miura_map(n).jet_image(x0) == orient(heights, x0).rhs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_miura_map_sends_each_bmcbs_into_its_bcbs_rule(n):
    # the paper's Miura link from the mCBS to the CBS forms, one rule each
    mu = miura_map(n)
    system = bcbs_system(gen_cbs_family(n))
    for eq, rule in zip(gen_mcbs_family(n).bmcbs, system.rules, strict=True):
        image = mu.transport(eq.residual)
        assert not image.is_zero()
        assert RewriteSystem([rule], system.ranking).reduce(image).is_zero()


def _miura_map_on_mix2(n):
    """mu extended by X_{Ti} -> X_{Ti} (i = 0..n), so that it acts on MIX2_i."""
    mu = miura_map(n)
    rs = mu.source
    images = dict(mu.field_images)
    for i in range(n + 1):
        images[rs.jet("X", **{f"T{i}": 1})] = rs.expr("X", **{f"T{i}": 1})
    return DerivationMap("MU_X", rs, rs, images, mu.op_images)


def _mix2_images(n, extra=lambda rs, i: 0):
    """(i, mu(MIX2_i + extra(rs, i))) for i = 1..n-1."""
    mu = _miura_map_on_mix2(n)
    return [(eq.i, mu.transport(eq.residual + extra(mu.source, eq.i)))
            for eq in gen_miura_relations(n) if eq.label.startswith("MIX2_")]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_miura_map_sends_each_mix2_into_its_bcbs_rule_alone(n):
    system = bcbs_system(gen_cbs_family(n))
    images = _mix2_images(n)
    assert [i for i, _image in images] == list(range(1, n))
    for i, image in images:
        assert len(image.num.terms) == 7
        zero = [RewriteSystem([rule], system.ranking).reduce(image).is_zero()
                for rule in system.rules]
        assert zero == [k == i for k in range(1, n)]


@pytest.mark.parametrize("n", [2, 3])
def test_a_doubled_x_term_of_mix2_leaves_its_bcbs_rule(n):
    system = bcbs_system(gen_cbs_family(n))
    doubled = _mix2_images(n, lambda rs, i: rs.expr("X", **{f"T{i + 1}": 1})
                           / rs.expr("X", T0=1))
    for i, image in doubled:
        rule = system.rules[i - 1]
        assert not RewriteSystem([rule], system.ranking).reduce(image).is_zero()
