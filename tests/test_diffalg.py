"""Core exact-arithmetic behavior: ring laws, derivatives, normalization."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from _helpers import (exact_normalform_inputs, random_poly_from, read_json, reference_add,
                      reference_divexact, reference_make, reference_mono_cmp,
                      reference_mono_div, reference_mul,
                      reference_ratexpr_derivative, reference_rewrite,
                      reference_substitute_jet, reference_total_derivative,
                      transportable_jets)
from jetcalc import diffalg, reduction
from jetcalc.diffalg import (
    Cofactor, DiffAlgError, DiffPoly, JetVar, Monomial, RatExpr, SpaceMismatchError,
    TermCapError, UnknownVariableError, ZeroDivisionExprError, is_zero, prolong,
    proportional, random_expr, substitute_fraction_free, substitute_jet,
    total_derivative,
)
from jetcalc.exprio import parse, print_text, to_json
from jetcalc.hierarchies import ch_space, gen_qiao, mr_space, q_space, r_space
from jetcalc.reduction import standard_systems
from jetcalc.transform import build_map


CH = ch_space(2)
R = r_space(2)


def chx(text):
    return parse(text, CH)


def rx(text):
    return parse(text, R)


def test_additive_inverse():
    p = chx("P")
    assert is_zero(p.add(p.neg()))


def test_ring_identity_example():
    p = chx("P")
    assert is_zero(p.mul(p).sub(chx("P^2")))


def test_multiplicative_inverse_example():
    p = chx("P")
    assert is_zero(RatExpr.const(1).div(p).mul(p) - 1)


def test_div_by_zero_rejected():
    with pytest.raises(ZeroDivisionExprError):
        chx("P").div(chx("P - P"))


def test_pow_zero_base_negative_exponent_rejected():
    with pytest.raises(ZeroDivisionExprError):
        RatExpr.const(0).pow(-1)


def test_pow_requires_integer():
    with pytest.raises(TypeError):
        chx("P").pow(chx("P"))


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
        chx("P").add(rx("X_{T0}"))


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
        cross = a.num.mul(b.den).sub(b.num.mul(a.den))
        assert is_zero(a - b) == cross.is_zero()


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
    with diffalg.limits(term_cap=8):
        big = rx("X_{T0} + X_{T1} + X_{T0,T0} + 1")
        with pytest.raises(TermCapError):
            acc = big
            for _ in range(6):
                acc = acc * big


def test_limits_restore_both_defaults_after_an_exception():
    defaults = (diffalg.DEFAULT_TERM_CAP, diffalg.DEFAULT_STEP_CAP)
    with pytest.raises(RuntimeError):
        with diffalg.limits(term_cap=3, step_cap=2):
            assert diffalg._limits.get() == (3, 2)
            raise RuntimeError
    assert diffalg._limits.get() == defaults


def test_a_cap_not_given_keeps_the_enclosing_blocks_value():
    defaults = (diffalg.DEFAULT_TERM_CAP, diffalg.DEFAULT_STEP_CAP)
    with diffalg.limits(term_cap=50):
        with diffalg.limits(step_cap=1):
            assert diffalg._limits.get() == (50, 1)
            with diffalg.limits(term_cap=7):
                assert diffalg._limits.get() == (7, 1)
            assert diffalg._limits.get() == (50, 1)
        assert diffalg._limits.get() == (50, diffalg.DEFAULT_STEP_CAP)
    with diffalg.limits():
        assert diffalg._limits.get() == defaults
    assert diffalg._limits.get() == defaults


@pytest.mark.parametrize("caps", [{"term_cap": 1.9}, {"step_cap": True}],
                         ids=["float", "bool"])
def test_limits_reject_a_cap_that_is_not_an_int(caps):
    # int() would have truncated 1.9 to 1 and taken True as 1
    with pytest.raises(ValueError, match="must be ints"):
        with diffalg.limits(**caps):
            pass
    assert diffalg._limits.get() == (diffalg.DEFAULT_TERM_CAP, diffalg.DEFAULT_STEP_CAP)


def test_substitute_jet_exact():
    e = chx("P_{T}^2 + P_{T}*Omega[1] + 3")
    out = substitute_jet(e, CH.jet("P", T=1), chx("Omega[1]_{X}"))
    assert is_zero(out - chx("Omega[1]_{X}^2 + Omega[1]_{X}*Omega[1] + 3"))


def test_a_polynomial_takes_only_a_polynomial_replacement():
    poly = chx("P_{T}^2 + P_{T}*Omega[1] + 3").num
    out, mult = substitute_fraction_free(poly, CH.jet("P", T=1), chx("Omega[1]_{X}/2 + 1"))
    assert isinstance(out, DiffPoly) and mult == 4
    assert (RatExpr.make(out, DiffPoly.const(mult))
            == chx("(Omega[1]_{X}/2 + 1)^2 + (Omega[1]_{X}/2 + 1)*Omega[1] + 3"))
    with pytest.raises(ValueError, match="constant denominator"):
        substitute_fraction_free(poly, CH.jet("P", T=1), chx("1/Omega[1]_{X}"))


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
    (loaded,) = read_json(to_json(RatExpr.from_jet(jet)), CH).jets()
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


# -- the fast exact core against the reference code it replaced ---------------

def _same_poly(got, want):
    assert got == want
    assert list(got.terms) == list(want.terms)


def _same_expr(got, want):
    _same_poly(got.num, want.num)
    _same_poly(got.den, want.den)


def _monomial_denominators(space, rng, count):
    """Expressions over one-term denominators: a random numerator divided by
    a negative multiple of a product of several jets."""
    for _ in range(count):
        pairs = [(diffalg.random_jet(space, rng, 1), rng.randrange(1, 4))
                 for _ in range(rng.randrange(2, 4))]
        den = DiffPoly({Monomial.from_pairs(pairs): Fraction(-rng.choice([1, 2, 3]),
                                                             rng.choice([1, 2]))})
        yield random_expr(space, rng, max_terms=4) / RatExpr.make(den)


def test_derivatives_match_the_reference_term_for_term():
    rng = random.Random(606)
    for space in SPACES:
        exprs = [random_expr(space, rng, rational=True) for _ in range(60)]
        exprs += list(_monomial_denominators(space, rng, 60))
        for e in exprs:
            for var in space.vars:
                for poly in (e.num, e.den):
                    _same_poly(poly.total_derivative(var),
                               reference_total_derivative(poly, var))
                _same_expr(e.total_derivative(var), reference_ratexpr_derivative(e, var))


def test_monomial_denominator_with_negative_coefficient():
    # a one-term denominator c*m with several jets and c < 0, against the
    # reference quotient rule
    den = rx("-2*X_{T0}^2*X_{T1}")
    assert len(den.den.terms) == 1
    e = rx("3*X_{T0,T1}*X_{T0} - X_{T1}^2 + 5") / den
    assert len(e.den.terms) == 1 and len(list(e.den.jets())) == 2
    for var in R.vars:
        _same_expr(e.total_derivative(var), reference_ratexpr_derivative(e, var))
    assert is_zero(total_derivative(e, "T0") * den - total_derivative(e * den, "T0")
                   + e * total_derivative(den, "T0"))


def test_make_and_monomial_division_match_the_reference():
    rng = random.Random(707)
    for space in SPACES:
        for _ in range(80):
            a = random_expr(space, rng, rational=True)
            b = random_expr(space, rng, rational=True)
            c = random_expr(space, rng, max_factors=1)
            num, den = a.num.mul(b.den).mul(c.num), a.den.mul(b.num).mul(c.num)
            _same_expr(RatExpr.make(num, den), reference_make(num, den))
            # Fraction coefficients, as the parser and samplers store them
            half = num.scale(Fraction(1, 2))
            _same_expr(RatExpr.make(half, den), reference_make(half, den))
            for m in num.terms:
                for d in c.num.terms:
                    prod = m.mul(d)
                    assert prod.div(d).factors == reference_mono_div(prod, d).factors
                    if not d.divides(m):
                        with pytest.raises(ValueError):
                            m.div(d)
                        with pytest.raises(ValueError):
                            reference_mono_div(m, d)


def _counted_divexact(monkeypatch, divide, *args):
    """divide(*args) and the number of steps it took: every step divides one
    leading monomial by the divisor's."""
    steps = []
    div = Monomial.div
    monkeypatch.setattr(Monomial, "div", lambda m, other: steps.append(1) or div(m, other))
    try:
        return divide(*args), len(steps)
    finally:
        monkeypatch.setattr(Monomial, "div", div)


def test_divexact_matches_the_reference_step_for_step(monkeypatch):
    rng = random.Random(808)
    for space in SPACES:
        for _ in range(40):
            a = random_expr(space, rng, max_terms=4, rational=True).num
            b = random_expr(space, rng, max_terms=3, rational=True).num
            product = a.mul(b)
            blocked = product.add(b.mul(DiffPoly.from_jet(diffalg.random_jet(space, rng))))
            for p in (product, blocked, product.add(DiffPoly.const(1))):
                want, want_steps = _counted_divexact(monkeypatch, reference_divexact, p, b)
                got, got_steps = _counted_divexact(monkeypatch, DiffPoly.divexact, p, b)
                assert got_steps == want_steps
                if want is None:
                    assert got is None
                    continue
                _same_poly(got, want)
    # X_{T0}^100 - 1 = (X_{T0} - 1)(X_{T0}^99 + ... + 1) takes 100 steps: one
    # step short of the empty remainder, at 8*(2 + 2) + 64 = 96, both give up
    p, b = rx("X_{T0}^100 - 1").num, rx("X_{T0} - 1").num
    assert _counted_divexact(monkeypatch, reference_divexact, p, b) == (None, 96)
    assert _counted_divexact(monkeypatch, DiffPoly.divexact, p, b) == (None, 96)


def test_term_cap_fires_in_the_monomial_denominator_derivative():
    e = rx("X_{T0,T1}*X_{T1} + X_{T0,T0}^2 + X_{T1,T1}*X_{T0} + 1") / rx("X_{T0}^2*X_{T1}")
    assert len(e.den.terms) == 1
    # the numerator's derivative fits under the cap, the quotient rule's
    # numerator N'*D - N*D' does not
    cap = 9
    assert len(e.num.total_derivative("T0").terms) <= cap
    with diffalg.limits(term_cap=cap):
        with pytest.raises(TermCapError):
            e.total_derivative("T0")
    assert len(total_derivative(e, "T0").num.terms) > cap


def _derivative(jet, lower, var):
    return lower.total_derivative(var)


def test_prolong_lowers_along_the_first_excess_variable_and_memoises():
    base = R.jet("X", T0=1)
    images = {base: rx("X_{T0}^2")}
    steps = []

    def derive(jet, lower, var):
        steps.append((jet.text(), var))
        return lower.total_derivative(var)

    got = prolong(images, base, R.jet("X", T0=2, T1=1), derive)
    assert is_zero(got - rx("X_{T0}^2").total_derivative("T1").total_derivative("T0"))
    assert steps == [("X_{T0,T1}", "T1"), ("X_{T0,T0,T1}", "T0")]
    assert set(images) == {base, R.jet("X", T0=1, T1=1), R.jet("X", T0=2, T1=1)}
    assert prolong(images, base, R.jet("X", T0=2, T1=1), derive) is got
    assert len(steps) == 2


@pytest.mark.parametrize("jet", [R.jet("X", T1=1), R.jet("X"), R.jet("M", T0=1)])
def test_prolong_rejects_a_jet_that_does_not_dominate_the_base(jet):
    base = R.jet("X", T0=1)
    with pytest.raises(DiffAlgError, match=r"is not a prolongation of X_\{T0\}"):
        prolong({base: rx("X_{T0}")}, base, jet, _derivative)


# -- the monomial test before a common-denominator trial division --------------

def _guard_operands(space, rng, count):
    """Seeded nonzero polynomials (a, b): numerators and denominators of
    rational expressions, with negative and Fraction coefficients, and with a
    constant term now and then."""
    for _ in range(count):
        a, b = (random_expr(space, rng, max_terms=4, rational=True),
                random_expr(space, rng, max_terms=3, rational=True))
        a, b = rng.choice((a.num, a.den)), rng.choice((b.num, b.den))
        if rng.random() < 0.3:
            a = a.add(DiffPoly.const(rng.choice([-2, 1, 3])))
        if rng.random() < 0.3:
            b = b.add(DiffPoly.const(Fraction(rng.choice([-1, 1]), 2)))
        if not a.is_zero() and not b.is_zero():
            yield a, b


def test_the_monomial_test_rejects_only_divisions_that_fail():
    rng = random.Random(1212)
    rejected = 0
    for space in SPACES:
        for a, b in _guard_operands(space, rng, 80):
            product = a.mul(b)
            assert diffalg._may_divide(product, b)
            blocked = product.add(b.mul(DiffPoly.from_jet(diffalg.random_jet(space, rng))))
            for p in (product, blocked, a, product.add(DiffPoly.const(1))):
                if p.is_zero() or diffalg._may_divide(p, b):
                    continue
                rejected += 1
                assert p.divexact(b) is None
    assert rejected > 100


def test_the_monomial_test_raises_where_divexact_raises():
    ch = chx("P_{X}*P + 1").num
    r = rx("X_{T0}^2 - X_{T1}").num
    with pytest.raises(SpaceMismatchError) as want:
        ch.divexact(r)
    with pytest.raises(SpaceMismatchError) as got:
        diffalg._may_divide(ch, r)
    assert str(got.value) == str(want.value)


def _arithmetic(cases, substitute):
    out = []
    for a, b, jet in cases:
        out += [a.add(b), b.add(a), a.mul(b), b.mul(a), a.div(b), substitute(a, jet, b)]
    return out


def test_add_mul_div_and_substitution_match_the_unguarded_reference(monkeypatch):
    rng = random.Random(1313)
    cases = []
    for space in SPACES:
        for _ in range(50):
            a, b, c = (random_expr(space, rng, rational=True) for _ in range(3))
            # shared factors, so that both directions of add and both
            # cancellations of mul find a divisor some of the time; b's
            # numerator over 1 or 2 is a polynomial replacement, which
            # reduction.rewrite puts into a's numerator alone when a's
            # denominator is free of the jet
            for x, y in ((a, b), (a.mul(c), b.div(c)), (a.div(c), b.div(c.mul(a))),
                         (a.div(c), RatExpr.make(b.num)),
                         (a.mul(c).div(b), RatExpr.make(c.num, DiffPoly.const(2)))):
                jets = list(x.jets())
                if jets and not y.is_zero():
                    cases.append((x, y, rng.choice(jets)))
            # a numerator that the denominator divides once substituted
            jet = diffalg.random_jet(space, rng)
            if jet not in set(c.jets()):
                cases.append((RatExpr.from_jet(jet).div(c), RatExpr.make(c.num.mul(b.num)), jet))
    held = [(x, y, jet) for x, y, jet in cases
            if y.den.is_const() and jet not in set(x.den.jets())]
    assert len(cases) > 1000 and len(held) > 300
    got = _arithmetic(cases, substitute_jet)
    # the held route: the numerator alone, settled over the denominator
    got += [diffalg.settle(num, x.den, mult) for x, y, jet in held
            for num, mult in [substitute_fraction_free(x.num, jet, y)]]
    monkeypatch.setattr(RatExpr, "add", reference_add)
    monkeypatch.setattr(RatExpr, "mul", reference_mul)
    want = _arithmetic(cases, reference_substitute_jet)
    want += [reference_substitute_jet(x, jet, y) for x, y, jet in held]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_expr(g, w)


def _c9_shape():
    """C9's shape: C_MR images at n=3 reduced modulo CH; the map, the system
    and the pre-images."""
    m = build_map("C_MR", 3)
    rng = random.Random(31)
    exprs = [gen_qiao(3)[1].residual]
    exprs += [random_poly_from(transportable_jets(m), rng, max_factors=1, max_exp=1)
              for _ in range(6)]
    return m, standard_systems("CH", 3), exprs


def test_normal_forms_make_no_trial_division_the_monomial_test_rules_out(monkeypatch):
    # Every common denominator that reduction tries must pass the leading
    # and trailing monomial test; tried unguarded, 39 of these 51 trial
    # divisions fail it.
    m, system, exprs = _c9_shape()
    calls = []
    divexact = DiffPoly.divexact

    def recorded(num, den):
        calls.append((num, den))
        return divexact(num, den)

    monkeypatch.setattr(DiffPoly, "divexact", recorded)
    for e in exprs:
        system.reduce(m.transport(e))
    assert calls

    def lead(p):
        return max(p.terms, key=lambda mono: mono.key)

    def trail(p):
        return min(p.terms, key=lambda mono: mono.key)

    ruled_out = [(n, d) for n, d in calls
                 if not (lead(d).divides(lead(n)) and trail(d).divides(trail(n)))]
    assert ruled_out == []


def test_a_polynomial_image_reduce_trial_divides_once_by_its_held_denominator(monkeypatch):
    # the step-by-step loop tested every substituted numerator against the
    # denominator; the held loop tests once, when it settles
    m, system, exprs = _c9_shape()
    images = [m.transport(e) for e in exprs]
    tested, polynomial = [], []
    may_divide, substitute = diffalg._may_divide, reduction.substitute_fraction_free

    def recorded_test(num, den):
        tested.append(den)
        return may_divide(num, den)

    def recorded_substitute(num, jet, rhs):
        polynomial.append(rhs.den.is_const())
        return substitute(num, jet, rhs)

    def trials():
        out = []
        for image in images:
            tested.clear()
            system.reduce(image)
            out.append(sum(den == image.den for den in tested))
        return out

    monkeypatch.setattr(diffalg, "_may_divide", recorded_test)
    monkeypatch.setattr(reduction, "substitute_fraction_free", recorded_substitute)
    held = trials()
    assert all(polynomial) and len(polynomial) == 4
    monkeypatch.setattr(reduction, "rewrite", reference_rewrite)
    step_by_step = trials()
    # E_Q1's image (the first) reduces to zero in two steps: the old loop
    # trial-divided after the first, the held loop settles only a zero
    assert step_by_step == [1, 0, 2, 0, 0, 0, 0]
    assert held == [0, 0, 1, 0, 0, 0, 0]


def _fraction_free_cases():
    """[(poly, jet, image, K)]: seeded int polynomials whose highest exponent
    of jet is K = 0..3, and polynomial images over the denominators 1, 2, 4."""
    rng = random.Random(2029)
    pool = [CH.jet("P"), CH.jet("P", X=1), CH.jet("P", T=1), CH.jet("Omega", 1),
            CH.jet("Omega", 1, X=2), CH.jet("Omega", 2, X=1)]
    cases = []
    for _ in range(30):
        jet, *others = rng.sample(pool, 4)
        for top in range(4):
            poly = DiffPoly.zero()
            for k in sorted({top, *rng.sample(range(top + 1), rng.randrange(top + 1))}):
                rest = random_poly_from(others, rng, max_terms=3).num
                poly = poly.add(rest.mul(DiffPoly.from_jet(jet, k)) if k else rest)
            r = random_poly_from(pool, rng, max_terms=3).num.add(DiffPoly.const(1))
            cases.append((poly, jet, RatExpr.make(r, DiffPoly.const(rng.choice([1, 2, 4]))),
                          top))
    return cases


def test_fraction_free_substitution_is_substitute_jet_times_c_to_the_k():
    cases = _fraction_free_cases()
    dens = {image.den.const_value() for _, _, image, _ in cases}
    assert dens == {1, 2, 4} and {top for *_, top in cases} == {0, 1, 2, 3}
    for poly, jet, image, top in cases:
        num, mult = substitute_fraction_free(poly, jet, image)
        assert mult == image.den.const_value() ** top
        assert all(type(c) is int for c in num.terms.values())
        if top == 0:
            assert num is poly and mult == 1
        # the general route, which does not go through the helper
        general = substitute_jet(RatExpr.make(poly), jet, image)
        assert general.den.is_const()
        assert (list(num.scale(general.den.const_value()).terms.items())
                == list(general.num.scale(mult).terms.items()))


def test_every_held_numerator_of_an_exact_normalform_reduction_is_an_int_polynomial(
        monkeypatch):
    system = standard_systems("CH", 3)
    inputs = [e for seed in (1, 2, 3) for e in exact_normalform_inputs(seed)]

    def normal_forms():
        return [(list(nf.num.terms.items()), list(nf.den.terms.items()))
                for nf in (system.reduce(e, rng=rng)
                           for e in inputs for rng in (None, random.Random(5)))]

    held = []
    substitute = reduction.substitute_fraction_free

    def recorded(num, jet, rhs):
        out = substitute(num, jet, rhs)
        held.extend((num, out[0]))
        return out

    monkeypatch.setattr(reduction, "substitute_fraction_free", recorded)
    got = normal_forms()
    assert len(held) > 100
    assert all(type(c) is int for poly in held for c in poly.terms.values())
    monkeypatch.setattr(reduction, "rewrite", reference_rewrite)
    assert got == normal_forms()


def _scanned_space(poly):
    return DiffPoly(dict(poly.terms)).space()


def test_exponent_buckets_and_primitive_parts_have_the_space_a_scan_finds():
    from jetcalc.diffalg import _by_exponent, _monomial_gcd, _primitive
    MR = mr_space(2)
    rng = random.Random(41)
    jets = [MR.jet("P"), MR.jet("P", X=1), MR.jet("Omega", 1), MR.jet("u"), MR.jet("w", 2, x=1)]
    polys = [random_poly_from(jets, rng).num for _ in range(30)]
    polys += [parse("3*P + 2", CH).num, parse("P^2 - 5*P", CH).num]
    buckets = [part for poly in polys for jet in poly.jets()
               for _, part in _by_exponent(poly, jet)]
    pairs = [(parse(a, space).num, parse(b, space).num) for space, a, b in (
        (MR, "2*P*u", "4*P*u + 6*P^2*u"), (MR, "6*P*u_{x} - 3*P^2", "9*P"),
        (CH, "4*P^2", "2*P_{X}"), (CH, "P/2 + 1", "3"))]
    pairs += [(p, q) for p, q in zip(polys[::2], polys[1::2])]
    parts = [part for pair in pairs
             for part in _primitive(pair, _monomial_gcd(pair), negate=False)[2]]
    spaces = [part.space() for part in buckets + parts]
    assert None in spaces and MR in spaces and CH in spaces
    for part in buckets + parts:
        assert part.space() is _scanned_space(part)
