"""Generated equation families: counts, expanded forms, nesting."""

from fractions import Fraction

import pytest

from jetcalc.diffalg import RatExpr, is_zero, substitute_jet
from jetcalc.exprio import parse, print_text
from jetcalc.hierarchies import (ch_space, gen_cbs_family, gen_ch,
                                 gen_mcbs_family, gen_miura_relations,
                                 gen_qiao, mr_space, q_space, r_space)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_family_counts(n):
    assert len(gen_ch(n)) == n + 1
    assert len(gen_qiao(n)) == 2 * n + 1
    fam = gen_cbs_family(n)
    assert len(fam.bcbs) == n - 1
    assert len(fam.cbs) == n - 1
    assert len(gen_mcbs_family(n).bmcbs) == n - 1


def test_gen_ch_rejects_zero():
    with pytest.raises(ValueError):
        gen_ch(0)
    with pytest.raises(ValueError):
        gen_qiao(0)


def test_ch_n1_has_no_middle_equations():
    labels = [eq.label for eq in gen_ch(1)]
    assert labels == ["E_CH0", "E_CH1n"]


def test_qiao_n1_labels():
    labels = [eq.label for eq in gen_qiao(1)]
    assert labels == ["E_Q0", "E_Q1n", "E_Qw1"]


def test_ch_middle_equation_expanded_form():
    eq = gen_ch(2)[1]
    expected = parse(
        "Omega[1]_{X,X,X} - Omega[1]_{X} + P*P_{X}*Omega[2] + P^2*Omega[2]_{X}",
        ch_space(2))
    assert is_zero(eq.residual - expected)


def test_qiao_conservative_equation_expanded():
    eq = gen_qiao(2)[0]
    expected = parse("u_{t} + u_{x}*w[1] + u*w[1]_{x}", q_space(2))
    assert is_zero(eq.residual - expected)


def test_qiao_w_definition_for_n3():
    eqs = {e.label: e for e in gen_qiao(3)}
    expected = parse("w[2]_{x} - u*v[2]_{x}", q_space(3))
    assert is_zero(eqs["E_Qw2"].residual - expected)


def test_cbs_residual_matches_published_form():
    fam = gen_cbs_family(2)
    expected = parse(
        "M_{T0,T2} + M_{T0,T0,T0,T1} + 4*M_{T1}*M_{T0,T0} + 8*M_{T0}*M_{T0,T1}",
        r_space(2))
    assert is_zero(fam.cbs[0].residual - expected)


def test_cbs_family_empty_at_n1():
    fam = gen_cbs_family(1)
    assert fam.bcbs == () and fam.msys == () and fam.cbs == ()


def test_m0_equation_at_flat_point():
    # At X = T0 (X_{T0}=1, all higher jets 0) the M_0 residual with M_{T0}=0
    # is exactly 1/8: the defining right side equals -1/8 there.
    fam = gen_cbs_family(2)
    eq = [e for e in fam.msys if e.label == "msys_M0"][0]
    flat = r_space(2).jet("X", T0=1)
    got = eq.residual
    for jet in eq.residual.jets():
        got = substitute_jet(got, jet, RatExpr.const(1 if jet is flat else 0))
    assert got == RatExpr.const(Fraction(1, 8))


def test_mcbs_m0_equation_form():
    fam = gen_mcbs_family(2)
    expected = parse("m_{T0} - 1/2*x_{T0}^2", r_space(2))
    assert is_zero(fam.msys[0].residual - expected)


def test_bmcbs_empty_at_n1_but_m0_present():
    fam = gen_mcbs_family(1)
    assert fam.bmcbs == ()
    assert [e.label for e in fam.msys] == ["msys_m0"]


def test_half_x0_squared_derivative_expands():
    # the (x_0^2/2)_i part of bmcbs is the chain-rule product x_0 * x_{0i}
    from jetcalc.diffalg import total_derivative
    sp = r_space(2)
    half_sq = parse("1/2*x_{T0}^2", sp)
    assert is_zero(total_derivative(half_sq, "T1") - parse("x_{T0}*x_{T0,T1}", sp))


def test_miura_relation_forms():
    rels = {e.label: e for e in gen_miura_relations(2)}
    rsp, msp = r_space(2), mr_space(2)
    assert is_zero(rels["MIURA"].residual - parse("4*M - x_{T0} + m", rsp))
    assert is_zero(rels["HEIGHTS"].residual - parse("P^2 - u*(P - P_{X})", msp))
    assert is_zero(rels["FIELDS_1b"].residual
                   - parse("w[2] - (Omega[2]_{X} + Omega[2])/2", msp))
    assert is_zero(rels["CROSSD"].residual
                   - parse("w[1] - (Omega[1]_{X} + Omega[1])/2", msp))
    assert is_zero(rels["HEIGHTS_R"].residual
                   - parse("x_{T0} - X_{T0,T0}/X_{T0} - X_{T0}", rsp))
    assert is_zero(rels["MIX2_1"].residual
                   - parse("X_{T2}/X_{T0} + x_{T0,T1} - x_{T0,T0,T1}/x_{T0}"
                           " - x_{T2}/x_{T0}", rsp))


def test_every_residual_space_pure_and_roundtrips():
    for n in (1, 2, 3):
        fam = gen_cbs_family(n)
        mfam = gen_mcbs_family(n)
        eqs = (list(gen_ch(n)) + list(gen_qiao(n)) + list(fam.bcbs)
               + list(fam.msys) + list(fam.cbs) + list(mfam.bmcbs)
               + list(mfam.msys) + list(gen_miura_relations(n)))
        for eq in eqs:
            space = eq.residual.space()
            assert space is not None
            assert is_zero(parse(print_text(eq.residual), space) - eq.residual)
            assert eq.n == n


def test_hierarchy_nesting():
    # shared labels keep identical residuals when n grows
    for n in (1, 2, 3):
        small = {e.label: e for e in gen_ch(n)}
        large = {e.label: e for e in gen_ch(n + 1)}
        for label, eq in small.items():
            if label == f"E_CH{n}n":
                continue
            assert print_text(eq.residual) == print_text(large[label].residual)


def test_space_shapes():
    sp = r_space(3)
    assert sp.vars == ("T0", "T1", "T2", "T3")
    assert sorted({f.name for f in sp.fields}) == ["M", "X", "m", "x"]
    mixed = mr_space(2)
    assert mixed.field("u").deps == ("x", "t")
    assert mixed.field("Omega", 1).deps == ("X", "T")
    with pytest.raises(ValueError):
        r_space(0)
