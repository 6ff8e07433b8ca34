"""Grammar, round trips, LaTeX conventions, and the JSON serialization."""

import random

import pytest

from _helpers import read_json
from jetcalc.diffalg import is_zero, random_expr
from jetcalc.exprio import (ParseError, SourceSpan, parse,
                            print_expr, print_latex, print_text, to_json)
from jetcalc.hierarchies import (ch_space, gen_miura_relations, mr_space,
                                 q_space, r_space)

CH = ch_space(2)
Q = q_space(3)
R = r_space(2)


def test_two_term_example():
    e = parse("P_{X}*Omega[1] + 1/2", CH)
    assert len(e.num.terms) == 2
    assert is_zero(e - parse("1/2 + Omega[1]*P_{X}", CH))


def test_jet_quotient_building_block():
    e = parse("X_{T0,T0}/X_{T0}", R)
    assert not e.den.is_const()
    assert is_zero(e * parse("X_{T0}", R) - parse("X_{T0,T0}", R))


def test_unknown_variable_error_has_span():
    with pytest.raises(ParseError) as err:
        parse("P_{Y}", CH)
    assert "unknown variable 'Y'" in str(err.value)
    assert err.value.span.begin == 3 and err.value.span.end == 4


def test_unknown_field():
    with pytest.raises(ParseError, match="unknown field"):
        parse("Q + 1", CH)


def test_variable_is_not_a_field():
    with pytest.raises(ParseError, match="independent variable"):
        parse("X", CH)


def test_indexed_field_requires_index():
    with pytest.raises(ParseError, match="requires an index"):
        parse("Omega_{X}", CH)


def test_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("Omega[3]", CH)
    with pytest.raises(ParseError, match="out of range"):
        parse("v[0]", Q)


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse("P P", CH)


def test_empty_subscript_rejected():
    with pytest.raises(ParseError, match="empty derivative subscript"):
        parse("P_{}", CH)


@pytest.mark.parametrize("text, message, span", [
    ("1/0", "division by zero", (2, 3)),
    ("0*P/(P-P)", "division by zero", (4, 9)),
    ("P/0^2", "division by zero", (2, 5)),
    ("P/(P_{X}-P_{X})^3", "division by zero", (2, 17)),
    ("(P-P)^-1", "zero raised to a negative power", (0, 5)),
    ("1 + 0^-2", "zero raised to a negative power", (4, 5)),
], ids=["1/0", "0*P/(P-P)", "P/0^2", "P/(P_{X}-P_{X})^3", "(P-P)^-1", "1+0^-2"])
def test_division_by_zero_is_a_parse_error_at_the_zero_factor(text, message, span):
    with pytest.raises(ParseError, match=message) as err:
        parse(text, CH)
    assert tuple(err.value.span) == span


def test_a_zero_numerator_or_a_nonzero_divisor_still_parses():
    assert parse("0/P", CH).is_zero()
    assert parse("(P-P)^2", CH).is_zero()
    assert is_zero(parse("P/(P-1)^-1", CH) - parse("P^2 - P", CH))


def test_commas_in_subscripts_optional():
    assert is_zero(parse("P_{X,X,T}", CH) - parse("P_{XXT}", CH))
    assert is_zero(parse("X_{T0T1}", R) - parse("X_{T0,T1}", R))


def test_negative_exponent_literal():
    e = parse("X_{T0}^-2", R)
    assert is_zero(e * parse("X_{T0}^2", R) - 1)


def test_unary_minus_and_parens():
    assert is_zero(parse("-(P - 1) - (1 - P)", CH))


def test_span_ordering_enforced():
    with pytest.raises(ValueError):
        SourceSpan(5, 2)
    with pytest.raises(ValueError):
        SourceSpan(1, 3)._replace(end=0)


SPACES = (ch_space(2), q_space(2), r_space(3), mr_space(2))


def test_parse_print_roundtrip_1000_cases():
    rng = random.Random(97)
    for k in range(1000):
        space = SPACES[k % len(SPACES)]
        e = random_expr(space, rng, rational=(k % 3 == 0))
        text = print_text(e)
        assert is_zero(parse(text, space) - e), text


def test_json_roundtrip_is_bit_exact():
    rng = random.Random(53)
    for k in range(200):
        space = SPACES[k % len(SPACES)]
        e = random_expr(space, rng, rational=(k % 2 == 0))
        blob = to_json(e)
        again = read_json(blob, space)
        assert to_json(again) == blob
        assert is_zero(again - e)


def test_latex_derivative_subscripts():
    assert print_latex(parse("Omega[1]_{X,X,X}", CH)) == r"\Omega^{(1)}_{XXX}"
    assert print_latex(parse("w[2]_{x}", Q)) == r"\omega^{(2)}_{x}"
    assert print_latex(parse("M_{T0,T0,T1}", R)) == "M_{001}"
    assert print_latex(parse("1/2*P", CH)) == r"\frac{1}{2}P"


def test_latex_quotient_uses_frac():
    s = print_latex(parse("X_{T0,T0}/X_{T0}", R))
    assert s == r"\frac{X_{00}}{X_{0}}"


def test_miura_residual_prints_paper_form():
    miura = [e for e in gen_miura_relations(2) if e.label == "MIURA"][0]
    assert is_zero(miura.residual - parse("4*M - x_{T0} + m", r_space(2)))
    text = print_text(miura.residual)
    assert is_zero(parse(text, r_space(2)) - miura.residual)


def test_print_expr_dispatch():
    e = parse("P", CH)
    assert print_expr(e, "text") == "P"
    assert print_expr(e, "latex") == "P"
    assert "jetexpr-v1" in print_expr(e, "json")
    with pytest.raises(ValueError):
        print_expr(e, "html")
