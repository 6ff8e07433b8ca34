"""Core exact-arithmetic behavior: ring laws, derivatives, normalization."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from _helpers import reference_mono_cmp
from jetcalc import diffalg
from jetcalc.diffalg import (
    Cofactor, DiffPoly, JetVar, Monomial, RatExpr, SpaceMismatchError, TermCapError,
    UnknownVariableError, ZeroDivisionExprError, combine, equivalent, is_zero,
    proportional, random_expr, substitute_jet, total_derivative,
)
from jetcalc.exprio import from_json, parse, print_text, to_json
from jetcalc.hierarchies import ch_space, mr_space, q_space, r_space


CH = ch_space(2)
R = r_space(2)


def chx(text):
    return parse(text, CH)


def rx(text):
    return parse(text, R)


def test_additive_inverse():
    p = chx("P")
    assert is_zero(combine("add", p, p.neg()))


def test_ring_identity_example():
    p = chx("P")
    assert is_zero(combine("sub", combine("mul", p, p), chx("P^2")))


def test_multiplicative_inverse_example():
    p = chx("P")
    assert is_zero(combine("mul", combine("div", RatExpr.const(1), p), p) - 1)


def test_div_by_zero_rejected():
    with pytest.raises(ZeroDivisionExprError):
        combine("div", chx("P"), chx("P - P"))


def test_pow_zero_base_negative_exponent_rejected():
    with pytest.raises(ZeroDivisionExprError):
        combine("pow", RatExpr.const(0), -1)


def test_pow_requires_integer():
    with pytest.raises(TypeError):
        combine("pow", chx("P"), chx("P"))


def test_leibniz_example():
    got = total_derivative(chx("P*Omega[1]"), "X")
    assert is_zero(got - chx("P_{X}*Omega[1] + P*Omega[1]_{X}"))


def test_derivative_of_constant():
    assert is_zero(total_derivative(RatExpr.const(Fraction(7, 3)), "T"))


def test_power_rule_example():
    got = total_derivative(rx("X_{T0}^2"), "T0")
    assert is_zero(got - rx("2*X_{T0}*X_{T0,T0}"))


def test_mixed_space_rejected():
    with pytest.raises(SpaceMismatchError):
        combine("add", chx("P"), rx("X_{T0}"))


def test_unknown_variable_rejected():
    with pytest.raises(UnknownVariableError):
        total_derivative(chx("P"), "T0")


def test_dependency_restricted_fields():
    mixed = mr_space(2)
    u = parse("u", mixed)
    assert is_zero(total_derivative(u, "X"))
    assert not is_zero(total_derivative(u, "x"))


SPACES = (ch_space(2), q_space(2), r_space(2), mr_space(2))


def test_ring_axioms_1000_seeded_cases():
    rng = random.Random(2024)
    for k in range(1000):
        space = SPACES[k % len(SPACES)]
        a = random_expr(space, rng, rational=True)
        b = random_expr(space, rng, rational=True)
        c = random_expr(space, rng)
        assert is_zero((a + b) - (b + a))
        assert is_zero((a * b) - (b * a))
        assert is_zero(((a + b) + c) - (a + (b + c)))
        assert is_zero(((a * b) * c) - (a * (b * c)))
        assert is_zero(a * (b + c) - (a * b + a * c))


def test_leibniz_1000_random_pairs():
    rng = random.Random(7)
    for k in range(1000):
        space = SPACES[k % len(SPACES)]
        var = space.vars[k % len(space.vars)]
        f = random_expr(space, rng, rational=(k % 3 == 0))
        g = random_expr(space, rng)
        lhs = total_derivative(f * g, var)
        assert is_zero(lhs - f * total_derivative(g, var) - g * total_derivative(f, var))


def test_mixed_total_derivatives_commute():
    rng = random.Random(11)
    for k in range(300):
        space = SPACES[k % len(SPACES)]
        f = random_expr(space, rng, rational=(k % 4 == 0))
        for a in space.vars:
            for b in space.vars:
                if a >= b:
                    continue
                ab = total_derivative(total_derivative(f, a), b)
                ba = total_derivative(total_derivative(f, b), a)
                assert is_zero(ab - ba)


def test_normalize_idempotent_on_random_results():
    rng = random.Random(23)
    for k in range(400):
        space = SPACES[k % len(SPACES)]
        e = random_expr(space, rng, rational=True) * random_expr(space, rng)
        again = RatExpr.make(e.num, e.den)
        assert again == e
        # monomial factors common to num and den are fully cancelled
        if not e.num.is_zero():
            shared = set(j for j, _ in _mono_gcd(e.num)) & set(j for j, _ in _mono_gcd(e.den))
            assert not shared
        # den leading coefficient positive
        assert e.den.leading()[1] > 0


def _mono_gcd(poly):
    from jetcalc.diffalg import _monomial_gcd
    return _monomial_gcd([poly]).factors


def test_is_zero_agrees_with_cross_multiplication():
    rng = random.Random(31)
    for k in range(400):
        space = SPACES[k % len(SPACES)]
        a = random_expr(space, rng, rational=True)
        b = random_expr(space, rng, rational=True)
        if k % 5 == 0:
            b = a * 1  # force equality some of the time
        assert is_zero(a - b) == equivalent(a, b)


def test_proportional_scalar_example():
    a = chx("2*P_{X}*Omega[1]")
    b = chx("P_{X}*Omega[1]")
    cof = proportional(a, b)
    assert cof is not None and cof.coeff == 2 and not cof.powers


def test_proportional_rejects_unrelated():
    assert proportional(chx("P_{X}"), chx("Omega[1]_{X}")) is None


def test_proportional_requires_nonzero():
    with pytest.raises(ZeroDivisionExprError):
        proportional(chx("P - P"), chx("P"))


def test_proportional_recovers_random_monomial_cofactors():
    rng = random.Random(47)
    for k in range(300):
        space = SPACES[k % len(SPACES)]
        e = random_expr(space, rng, rational=(k % 2 == 0))
        if len(e.num.terms) < 2:
            continue  # lone monomials admit only rational cofactors by design
        coeff = Fraction(rng.choice([-5, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        powers = []
        m = RatExpr.const(coeff)
        for _ in range(rng.randrange(0, 3)):
            j = diffalg.random_jet(space, rng, max_order=1)
            exp = rng.choice([-2, -1, 1, 2])
            powers.append((j, exp))
            m = m * RatExpr.from_jet(j).pow(exp)
        cof = proportional(m * e, e)
        assert cof is not None
        assert is_zero(cof.as_ratexpr() - m)


def test_cofactor_text_roundtrip():
    base = rx("X_{T0,T0} + X_{T1}")
    cof = proportional(rx("2") / rx("X_{T0}^2") * base, base)
    assert cof is not None
    assert cof.text() == "2*X_{T0}^-2"
    assert is_zero(parse(cof.text(), R) - cof.as_ratexpr())


def test_term_cap_guard_is_distinct_error():
    with diffalg.term_cap(8):
        big = rx("X_{T0} + X_{T1} + X_{T0,T0} + 1")
        with pytest.raises(TermCapError):
            acc = big
            for _ in range(6):
                acc = acc * big


def test_substitute_jet_exact():
    e = chx("P_{T}^2 + P_{T}*Omega[1] + 3")
    out = substitute_jet(e, CH.jet("P", T=1), chx("Omega[1]_{X}"))
    assert is_zero(out - chx("Omega[1]_{X}^2 + Omega[1]_{X}*Omega[1] + 3"))


def test_canonical_text_is_stable():
    e = chx("P*Omega[1] - 2*P_{X} + 1/2")
    assert print_text(e) == print_text(parse(print_text(e), CH))


def test_jets_are_canonical_across_construction_routes():
    jet = CH.jet("Omega", 1, X=2, T=1)
    field = CH.field("Omega", 1)
    assert JetVar(field, (2, 1)) is jet
    assert CH.jet("Omega", 1, X=1, T=1).derived("X") is jet
    assert jet.derived("T").lowered("T") is jet
    (parsed,) = parse("Omega[1]_{X,X,T}", CH).jets()
    assert parsed is jet
    (loaded,) = from_json(to_json(RatExpr.from_jet(jet)), CH).jets()
    assert loaded is jet
    rng = random.Random(5)
    for space in SPACES:
        for _ in range(50):
            j = diffalg.random_jet(space, rng)
            assert j.field is space.field(j.field.name, j.field.index)
            assert JetVar(j.field, j.orders) is j
            assert space.jet(j.field.name, j.field.index, **j.multi_index()) is j


def _random_monomials(space, rng, count):
    monos = []
    for _ in range(count):
        pairs = [(diffalg.random_jet(space, rng), rng.randrange(1, 4))
                 for _ in range(rng.randrange(0, 4))]
        mono = Monomial.from_pairs(pairs)
        monos.append(mono)
        if mono.factors:
            # a proper prefix, and the same jets with one exponent raised
            monos.append(Monomial(mono.factors[:-1]))
            jet, exp = mono.factors[rng.randrange(len(mono.factors))]
            monos.append(mono.mul(Monomial.of(jet, exp)))
    return monos


def test_native_monomial_order_matches_reference_comparison():
    rng = random.Random(4242)
    for space in SPACES:
        monos = _random_monomials(space, rng, 150)
        rng.shuffle(monos)
        want = sorted(monos, key=cmp_to_key(reference_mono_cmp))
        assert sorted(monos, key=lambda m: m.key) == want
        for a, b in zip(monos, reversed(monos)):
            assert (a.key > b.key) - (a.key < b.key) == reference_mono_cmp(a, b)


def test_equal_polynomials_hash_equal_in_any_insertion_order():
    rng = random.Random(99)
    for space in SPACES:
        terms = [(m, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])))
                 for m in dict.fromkeys(_random_monomials(space, rng, 20))]
        shuffled = list(terms)
        rng.shuffle(shuffled)
        a, b = DiffPoly(dict(terms)), DiffPoly(dict(reversed(shuffled)))
        assert a == b
        assert hash(a) == hash(b)
