"""Numeric oracle: float evaluation and finite differences, and the zero and
proportionality checks modulo a prime."""

import random
from fractions import Fraction

import pytest

from _helpers import (random_poly_from, reference_confirm_zero, reference_consistent_point,
                      reference_evaluate, reference_jet_value,
                      reference_numeric_proportionality)
from jetcalc import claims, numoracle
from jetcalc.diffalg import Cofactor, DiffPoly, RatExpr, proportional, random_expr
from jetcalc.exprio import parse
from jetcalc.hierarchies import ch_space, gen_cbs_family, gen_ch, q_space, r_space
from jetcalc.numoracle import (PRIME, ZERO_TOL, NumericError, SmallDenominatorError,
                               TestFunction, confirm_zero, consistent_point, eval_expr,
                               numeric_proportionality, relative_residual, sample_value)
from jetcalc.reduction import JetRanking, RewriteRule, RewriteSystem, standard_systems
from jetcalc.transform import build_map

R2 = r_space(2)


def _at(e, values):
    """eval_expr's arguments for e where each jet takes the given value."""
    return e, values.__getitem__


def test_eval_square():
    e = parse("X_{T0}^2", R2)
    assert eval_expr(*_at(e, {R2.jet("X", T0=1): 2.0})) == 4.0


def test_eval_power_rule_example():
    e = parse("2*X_{T0}*X_{T0,T0}", R2)
    assert eval_expr(*_at(e, {R2.jet("X", T0=1): 2.0, R2.jet("X", T0=2): 3.0})) == 12.0


def test_eval_small_denominator():
    e = parse("1/X_{T0}", R2)
    with pytest.raises(SmallDenominatorError):
        eval_expr(*_at(e, {R2.jet("X", T0=1): 1e-15}))


def test_testfunction_jets_solve_their_own_derivatives():
    tf = TestFunction(R2, seed=9)
    rng = random.Random(0)
    coords = tf.sample_coords(rng)
    x1 = reference_jet_value(tf, R2.jet("X", T0=1), coords)
    h = 1e-5
    up = dict(coords)
    up["T0"] = coords["T0"] + h
    down = dict(coords)
    down["T0"] = coords["T0"] - h
    fd = (reference_jet_value(tf, R2.jet("X"), up)
          - reference_jet_value(tf, R2.jet("X"), down)) / (2 * h)
    assert abs(x1 - fd) <= 1e-8 * max(1.0, abs(x1))


def test_fd_check_detects_wrong_derivative():
    # doubling a derivative's coefficient must blow past the tolerance
    tf = TestFunction(R2, seed=2)
    e = parse("X_{T0}^2", R2)
    wrong = parse("4*X_{T0}*X_{T0,T0}", R2)  # true derivative along T0 is half
    rng = random.Random(3)
    coords = tf.sample_coords(rng)
    jets = set(e.jets()) | set(wrong.jets())

    def value(expr, coords):
        values = reference_consistent_point(None, jets, tf, coords)
        num, _, den = reference_evaluate(expr, values.__getitem__)
        return num / den

    sym = value(wrong, coords)
    h = 1e-3

    def at(offset):
        shifted = dict(coords)
        shifted["T0"] = coords["T0"] + offset
        return value(e, shifted)

    fd = (4 * (at(h / 2) - at(-h / 2)) / h - (at(h) - at(-h)) / (2 * h)) / 3
    rel = abs(sym - fd) / max(1.0, abs(sym), abs(fd))
    assert rel >= 1e-2


def test_numeric_proportionality_identity():
    e = parse("X_{T0,T0} + X_{T1}", R2)
    cof = Cofactor(1, ())
    assert numeric_proportionality(e, e, cof, trials=50, seed=4)


def test_numeric_proportionality_c2_pair():
    m = build_map("R_CH", 2)
    img = m.transport(gen_ch(2)[1].residual)
    target = gen_cbs_family(2).bcbs[0].residual
    cof = proportional(img, target)
    assert cof is not None
    assert numeric_proportionality(img, target, cof, trials=100, seed=0)


def test_numeric_proportionality_detects_perturbed_cofactor():
    m = build_map("R_CH", 2)
    img = m.transport(gen_ch(2)[1].residual)
    target = gen_cbs_family(2).bcbs[0].residual
    cof = proportional(img, target)
    from fractions import Fraction
    bad = Cofactor(cof.coeff * (1 + Fraction(1, 1000)), cof.powers)
    assert not numeric_proportionality(img, target, bad, trials=50, seed=0)


def test_confirm_zero_on_transported_conservative_equation():
    m = build_map("R_CH", 3)
    img = m.transport(gen_ch(3)[0].residual)
    assert confirm_zero(img, seed=0, points=100) == 0.0


def test_relative_residual_is_exact_mod_the_prime():
    # 10**6*X_{T0} + 1 vanishes where X_{T0} = -1/10**6 mod PRIME and
    # nowhere else; its value at any other point is a residual of 1.0
    plan = numoracle._Plan(None, (parse("1000000*X_{T0} + 1", R2),))
    root = -pow(10**6, -1, PRIME) % PRIME
    assert relative_residual(0, plan, [root]) == 0.0
    assert relative_residual(0, plan, [root + 1]) == 1.0
    with pytest.raises(SmallDenominatorError):
        relative_residual(0, numoracle._Plan(None, (parse("1/X_{T0}", R2),)), [0])


# PRIME*X_{T0} is 0 mod PRIME at every point, so no denominator is usable;
# for sample_value, X is a sum of two-variable terms, so a jet on three
# variables is 0 at every point
_PRIME_DEN = RatExpr(R2.expr("X", T1=1).num, R2.expr("X", T0=1).num.scale(PRIME))


@pytest.mark.parametrize("check, e", [
    (lambda e: confirm_zero(e, seed=0), _PRIME_DEN),
    (lambda e: numeric_proportionality(e, e, Cofactor(1, ())), _PRIME_DEN),
    (lambda e: sample_value(e, R2, 0), parse("1/X_{T0,T1,T2}", R2)),
], ids=["confirm_zero", "numeric_proportionality", "sample_value"])
def test_sampler_gives_up_without_well_conditioned_points(check, e):
    with pytest.raises(NumericError):
        check(e)


def test_numeric_proportionality_without_jets_is_exact():
    two, one = RatExpr.const(2), RatExpr.const(1)
    assert numeric_proportionality(two, one, proportional(two, one))
    assert not numeric_proportionality(two, one, Cofactor(3, ()))


class _ZeroChecks:
    """Stands in for a claim runner and keeps the expressions the claim
    hands to zero_check."""

    def __init__(self):
        self.calls = []

    def zero_check(self, label, expr, system=None):
        self.calls.append((expr, system))

    def add(self, label, ok, note=""):
        pass


def _zero_checks(claim, n):
    runner = _ZeroChecks()
    getattr(claims, "_" + claim.lower())(runner, n)
    assert runner.calls
    return runner.calls


@pytest.mark.parametrize("claim,n,on_shell", [
    ("C3", 3, True), ("C5", 3, True), ("C8", 2, True), ("C5", 2, False)])
def test_confirm_zero_is_bit_identical_to_the_reference(claim, n, on_shell):
    # C3/C5 run on-shell for BCBS and C8 for CH; off-shell, a C5 expression
    # does not vanish
    for k, (expr, system) in enumerate(_zero_checks(claim, n)):
        seed = 1000 * n + k
        system = system if on_shell else None
        got = confirm_zero(expr, seed, points=20, system=system)
        assert got == reference_confirm_zero(expr, seed, points=20, system=system)
        assert got == (0.0 if on_shell else 1.0)


@pytest.mark.parametrize("claim,n,on_shell", [("C5", 2, False), ("C3", 3, True)])
def test_residuals_do_not_depend_on_the_order_of_a_polynomials_terms(claim, n, on_shell):
    # the same expressions with their numerators' terms stored reversed and
    # shuffled give the same floats
    rng = random.Random(11)
    for k, (expr, system) in enumerate(_zero_checks(claim, n)):
        seed = 1000 * n + k
        system = system if on_shell else None
        want = confirm_zero(expr, seed, points=20, system=system)
        items = list(expr.num.terms.items())
        for order in (items[::-1], rng.sample(items, len(items))):
            permuted = RatExpr(DiffPoly(dict(order)), expr.den)
            assert permuted == expr
            assert confirm_zero(permuted, seed, points=20, system=system) == want


def test_consistent_point_is_bit_identical_to_the_reference():
    # the CH case of test_numeric_consistency_at_onshell_points
    chs = ch_space(2)
    sys2 = standard_systems("CH", 2)
    tf = TestFunction(chs, seed=5)
    rng = random.Random(5)
    jets = [chs.jet("P", X=1), chs.jet("P", T=1), chs.jet("Omega", 1, X=3),
            chs.jet("Omega", 2, X=2)]
    for _ in range(30):
        e = random_poly_from(jets, rng)
        red = sys2.reduce(e)
        coords = tf.sample_coords(rng)
        wanted = set(e.jets()) | set(red.jets())
        got = consistent_point(sys2, wanted, tf, coords)
        assert got == reference_consistent_point(sys2, wanted, tf, coords)


def test_consistent_point_without_a_system_is_bit_identical_to_the_reference():
    # the test function's own jets, including ones on three variables,
    # which are zero
    rng = random.Random(17)
    for space in (ch_space(2), q_space(2), R2):
        for seed in range(5):
            tf = TestFunction(space, seed)
            coords = tf.sample_coords(rng)
            jets = list(random_expr(space, rng, max_terms=4, max_order=3).jets())
            if space is R2:
                jets.append(R2.jet("x", T0=1, T1=2, T2=1))
            got = consistent_point(None, jets, tf, coords)
            assert got == {j: reference_jet_value(tf, j, coords) for j in jets}


def test_sample_value_is_bit_identical_to_the_reference():
    # off-shell values at the coordinates sample_value reports, with jets
    # on three variables, which are zero, in the R2 expressions
    rng = random.Random(17)
    for space in (ch_space(2), q_space(2), R2):
        for seed in range(5):
            e = random_expr(space, rng, max_terms=4, max_order=3)
            if space is R2:
                e = e + R2.expr("x", T0=1, T1=2, T2=1)
            coords, got = sample_value(e, space, seed)
            tf = TestFunction(space, seed)
            num, _, den = reference_evaluate(e, lambda j: reference_jet_value(tf, j, coords))
            assert got == num / den


def test_numeric_proportionality_is_bit_identical_to_the_reference():
    # the good and the mutated cofactor of acceptance criterion 7
    img = build_map("R_CH", 2).transport(gen_ch(2)[1].residual)
    target = gen_cbs_family(2).bcbs[0].residual
    good = proportional(img, target)
    bad = Cofactor(good.coeff * (1 + Fraction(1, 1000)), good.powers)
    for cof, expected in ((good, True), (bad, False)):
        got = numeric_proportionality(img, target, cof, trials=20, seed=0)
        assert got == reference_numeric_proportionality(img, target, cof, trials=20, seed=0)
        assert got is expected


def _record(monkeypatch, check):
    """The list to which each later call of the numoracle check appends its
    arguments and result."""
    original = getattr(numoracle, check)
    calls = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(numoracle, check, recorded)
    return calls


def _run_cell(monkeypatch, claim, n, check):
    """Run a claim cell through the real runner and record each call of the
    numoracle check it makes, with its arguments and result."""
    runner = claims._Runner(claim, n, 0)
    calls = _record(monkeypatch, check)
    getattr(claims, "_" + claim.lower())(runner, n)
    assert calls
    return runner, calls


@pytest.mark.parametrize("claim", claims.CLAIM_IDS)
def test_every_numeric_check_of_a_cell_is_bit_identical_to_the_reference(monkeypatch, claim):
    # the library evaluates lowered plans; the reference evaluates each
    # expression recursively from its terms
    zero = _record(monkeypatch, "confirm_zero")
    proportional = _record(monkeypatch, "numeric_proportionality")
    runner = claims._Runner(claim, 3, 0)
    getattr(claims, "_" + claim.lower())(runner, 3)
    assert zero or proportional
    for (expr, seed), kwargs, got in zero:
        assert got == reference_confirm_zero(expr, seed, system=kwargs["system"]) == 0.0
    for (lhs, rhs, cof), kwargs, got in proportional:
        assert got is reference_numeric_proportionality(lhs, rhs, cof, seed=kwargs["seed"])
        assert got is True


# a cell's walk is the sampler stream that its seed starts: every check of
# the cell draws its points from it
@pytest.mark.parametrize("claim", ["C3", "C5", "C7", "C9"])
def test_zero_checks_of_a_cell_share_one_walk(monkeypatch, claim):
    runner, calls = _run_cell(monkeypatch, claim, 4, "confirm_zero")
    for (expr, seed), kwargs, got in calls:
        assert seed == runner.seed
        assert got == reference_confirm_zero(expr, seed, system=kwargs["system"])


def test_proportionality_checks_of_a_cell_share_one_walk(monkeypatch):
    runner, calls = _run_cell(monkeypatch, "C4", 4, "numeric_proportionality")
    assert len(calls) == 3
    for (lhs, rhs, cof), kwargs, got in calls:
        assert kwargs["seed"] == runner.seed
        assert got is reference_numeric_proportionality(lhs, rhs, cof, seed=runner.seed)


def _vanishing_at(stream, points):
    """The product of X_{T0} - c over the values c that the given points of
    a sampler stream draw for a check's first free jet: a denominator that
    vanishes at those points, and at no other point of the first few, of
    every check whose first free jet is X_{T0}."""
    rng = random.Random(stream)
    drawn = [rng.randrange(1, PRIME) for _ in range(max(points) + 1)]
    den = RatExpr.const(1)
    for j in points:
        den = den * (R2.expr("X", T0=1) - drawn[j])
    return den


def _rule_with_denominator(den):
    """The lead X_{T0,T1} and the system with the one rule X_{T0,T1} -> 1/den."""
    lead = R2.jet("X", T0=1, T1=1)
    rule = RewriteRule(lead, RatExpr.const(1) / den, "synthetic")
    return RatExpr.from_jet(lead), RewriteSystem([rule], JetRanking(R2))


def _rule_rejecting_the_first_point(seed):
    """The lead, the denominator and the system of _rule_with_denominator,
    whose rule rejects confirm_zero's first point at seed for every check
    whose first free jet is X_{T0} and that reads X_{T0,T1}."""
    den = _vanishing_at(seed * 7919 + 13, (0,))
    lead, system = _rule_with_denominator(den)
    return lead, den, system


def _outcomes(monkeypatch, owner=numoracle, name="relative_residual"):
    """The list to which each later call of owner.name appends its result or
    the SmallDenominatorError it raises."""
    original = getattr(owner, name)
    outcomes = []

    def wrapped(*args):
        try:
            result = original(*args)
        except SmallDenominatorError as exc:
            outcomes.append(exc)
            raise
        outcomes.append(result)
        return result

    monkeypatch.setattr(owner, name, wrapped)
    return outcomes


def _rejected(outcomes):
    return [k for k, out in enumerate(outcomes) if isinstance(out, SmallDenominatorError)]


def test_a_led_jets_rejections_inside_a_batch_are_made_up_by_the_next_batch(monkeypatch):
    # points are drawn one at a time; the led jet rejects points 0 and 2,
    # so five accepted points take seven draws
    seed = 7
    den = _vanishing_at(seed * 7919 + 13, (0, 2))
    lead, system = _rule_with_denominator(den)
    runs = _outcomes(monkeypatch, numoracle._Plan, "run")
    assert confirm_zero(lead * den - 1, seed, points=5, system=system) == 0.0
    assert len(runs) == 7 and _rejected(runs) == [0, 2]


def test_proportionality_rejections_inside_a_batch_are_made_up_by_the_next_batch(monkeypatch):
    # points are drawn one at a time; points 0 and 2 are rejected, so five
    # accepted points take seven draws, and the first accepted point
    # refutes a doubled cofactor
    seed = 7
    e = 1 / _vanishing_at(seed * 31337 + 7, (0, 2))
    runs = _outcomes(monkeypatch, numoracle._Plan, "run")
    for cof, expected, drawn, rejected in ((Cofactor(1, ()), True, 7, [0, 2]),
                                           (Cofactor(2, ()), False, 2, [0])):
        runs.clear()
        assert numeric_proportionality(e, e, cof, trials=5, seed=seed) is expected
        assert len(runs) == drawn and _rejected(runs) == rejected


def test_a_led_jets_rejection_rejects_only_the_checks_that_read_it(monkeypatch):
    # both checks have X_{T0} as their only free jet; the one that reads
    # the lead rejects the first point and draws two more, the other
    # accepts the first point and stops there, since it does not vanish
    seed = 7
    lead, den, system = _rule_rejecting_the_first_point(seed)
    outcomes = _outcomes(monkeypatch)
    assert confirm_zero(lead - 1 / den, seed, system=system) == 0.0
    rejected, *accepted = outcomes
    assert isinstance(rejected, SmallDenominatorError) and accepted == [0.0, 0.0]
    outcomes.clear()
    assert confirm_zero(R2.expr("X", T0=1), seed, system=system) == 1.0
    assert outcomes == [1.0]


def test_a_led_jets_rejection_leaves_through_relative_residual(monkeypatch):
    # the plan runs inside relative_residual, so the led jet's
    # SmallDenominatorError from _Plan.run passes through that public name,
    # where a tracer wrapping it can count the rejected point
    seed = 7
    lead, den, system = _rule_rejecting_the_first_point(seed)
    outcomes = _outcomes(monkeypatch)
    got = confirm_zero(lead - 1 / den, seed, points=1, system=system)
    rejected, accepted = outcomes
    assert accepted == got == 0.0
    assert isinstance(rejected, SmallDenominatorError)
    tb, codes = rejected.__traceback__, []
    while tb is not None:
        codes.append(tb.tb_frame.f_code)
        tb = tb.tb_next
    assert numoracle._Plan.run.__code__ in codes


def test_a_jet_free_in_one_system_is_computed_from_the_rule_of_a_system_that_leads_it(
        monkeypatch):
    # a leads X_{T0,T1} and rejects the first point; b leaves it free, so
    # the same check draws it and fails at the first point
    seed = 7
    lead, den, a = _rule_rejecting_the_first_point(seed)
    squared = R2.expr("X", T0=1) * R2.expr("X", T0=1)
    b = RewriteSystem([RewriteRule(R2.jet("X", T0=2), squared, "synthetic")], JetRanking(R2))
    e = lead * den - 1
    outcomes = _outcomes(monkeypatch)
    assert confirm_zero(e, seed, system=a) == 0.0
    assert isinstance(outcomes[0], SmallDenominatorError) and outcomes[1:] == [0.0, 0.0]
    outcomes.clear()
    assert confirm_zero(e, seed, system=b) == 1.0
    assert outcomes == [1.0]


def _sub_tolerance_mutants(n):
    """Each zero-check input of run_all(n) that is not zero before reduction,
    with one of its first three numerator terms scaled by 1 + 1e-10, kept
    where it stays non-zero after reduction; as (mutant, seed, system)."""
    calls = []
    zero_check = claims._Runner.zero_check

    def recorded(self, label, expr, system=None):
        calls.append((expr, self.seed, system))
        zero_check(self, label, expr, system)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims._Runner, "zero_check", recorded)
        claims.run_all(n)
    mutants = []
    for expr, seed, system in calls:
        items = list(expr.num.terms.items())
        for mono, coeff in items[:3]:
            terms = dict(items)
            terms[mono] = coeff * (1 + Fraction(1, 10**10))
            mutant = RatExpr(DiffPoly(terms), expr.den)
            if not (mutant if system is None else system.reduce(mutant)).is_zero():
                mutants.append((mutant, seed, system))
    return mutants


def test_confirm_zero_flags_every_sub_tolerance_mutant():
    # a relative error of 1e-10 is below ZERO_TOL in floats, but not zero
    # mod PRIME
    mutants = _sub_tolerance_mutants(4)
    assert len(mutants) == 108
    for mutant, seed, system in mutants:
        assert confirm_zero(mutant, seed, system=system) > ZERO_TOL
