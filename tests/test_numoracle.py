"""Numeric oracle: evaluation, finite differences, proportionality checks."""

import math
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
from jetcalc.numoracle import (FD_TOL, ZERO_TOL, NumericError, SampleWalks,
                               SmallDenominatorError, TestFunction, confirm_zero,
                               consistent_point, eval_expr, fd_check, numeric_proportionality,
                               relative_residual, sample_value)
from jetcalc.reduction import JetRanking, RewriteRule, RewriteSystem, standard_systems
from jetcalc.transform import build_map, transport

R2 = r_space(2)


def _at(e, values):
    """e lowered for a test function on R2, and a sample of that plan at
    which every jet of e is a known free jet of the given value; a plan run
    reads known values before the test function's."""
    plan = numoracle._Plan(TestFunction(R2, 0), None, (e,))
    return plan.programs[0], numoracle._Sample(plan, None, dict(values))


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


def test_fd_check_on_200_random_triples():
    rng = random.Random(41)
    spaces = (ch_space(2), q_space(2), r_space(2))
    from jetcalc.diffalg import random_expr
    worst = 0.0
    for k in range(200):
        space = spaces[k % len(spaces)]
        tf = TestFunction(space, seed=k)
        e = random_expr(space, rng, rational=(k % 4 == 0))
        var = space.vars[k % len(space.vars)]
        worst = max(worst, fd_check(e, var, tf, sample=k))
    assert worst <= FD_TOL


def test_fd_check_constant_is_exact():
    tf = TestFunction(ch_space(1), seed=1)
    from jetcalc.diffalg import RatExpr
    assert fd_check(RatExpr.const(3), "T", tf) <= 1e-12


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
    img = transport(m, gen_ch(2)[1].residual)
    target = gen_cbs_family(2).bcbs[0].residual
    cof = proportional(img, target)
    assert cof is not None
    assert numeric_proportionality(img, target, cof, trials=100, seed=0)


def test_numeric_proportionality_detects_perturbed_cofactor():
    m = build_map("R_CH", 2)
    img = transport(m, gen_ch(2)[1].residual)
    target = gen_cbs_family(2).bcbs[0].residual
    cof = proportional(img, target)
    from fractions import Fraction
    bad = Cofactor(cof.coeff * (1 + Fraction(1, 1000)), cof.powers)
    assert not numeric_proportionality(img, target, bad, trials=50, seed=0)


def test_confirm_zero_on_transported_conservative_equation():
    m = build_map("R_CH", 3)
    img = transport(m, gen_ch(3)[0].residual)
    assert confirm_zero(img, r_space(3), seed=0, points=100) == 0.0


def test_relative_residual_scales_by_term_magnitude():
    e = parse("X_{T0} - X_{T0}", R2) + parse("X_{T1}", R2) - parse("X_{T1}", R2)
    assert e.is_zero()
    big = parse("1000000*X_{T0} + 1", R2)
    assert relative_residual(*_at(big, {R2.jet("X", T0=1): 1.0})) == pytest.approx(
        (1000000 + 1) / (1000000 + 1), rel=1e-12)


@pytest.mark.parametrize("check", [
    lambda e: confirm_zero(e, R2, seed=0),
    lambda e: numeric_proportionality(e, e, proportional(e, e)),
    lambda e: fd_check(e, "T0", TestFunction(R2, seed=0)),
], ids=["confirm_zero", "numeric_proportionality", "fd_check"])
def test_sampler_gives_up_without_well_conditioned_points(check):
    # X is a sum of two-variable terms, so a jet on three variables is 0
    # at every point and no denominator is ever usable
    with pytest.raises(NumericError):
        check(parse("1/X_{T0,T1,T2}", R2))


def test_numeric_proportionality_without_jets_is_exact():
    two, one = RatExpr.const(2), RatExpr.const(1)
    assert numeric_proportionality(two, one, proportional(two, one))
    assert not numeric_proportionality(two, one, Cofactor(3, ()))


class _ZeroChecks:
    """Stands in for a claim runner and keeps the expressions the claim
    hands to zero_check."""

    def __init__(self):
        self.calls = []

    def zero_check(self, label, expr, space, system=None):
        self.calls.append((expr, space, system))

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
    # leaves a residual of order one
    for k, (expr, space, system) in enumerate(_zero_checks(claim, n)):
        seed = 1000 * n + k
        system = system if on_shell else None
        got = confirm_zero(expr, space, seed, points=100, system=system)
        assert got == reference_confirm_zero(expr, space, seed, points=100, system=system)


@pytest.mark.parametrize("claim,n,on_shell", [("C5", 2, False), ("C3", 3, True)])
def test_residuals_do_not_depend_on_the_order_of_a_polynomials_terms(claim, n, on_shell):
    # the same expressions with their numerators' terms stored reversed and
    # shuffled give the same floats
    rng = random.Random(11)
    for k, (expr, space, system) in enumerate(_zero_checks(claim, n)):
        seed = 1000 * n + k
        system = system if on_shell else None
        want = confirm_zero(expr, space, seed, points=20, system=system)
        items = list(expr.num.terms.items())
        for order in (items[::-1], rng.sample(items, len(items))):
            permuted = RatExpr(DiffPoly(dict(order)), expr.den)
            assert permuted == expr
            assert confirm_zero(permuted, space, seed, points=20, system=system) == want


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
    img = transport(build_map("R_CH", 2), gen_ch(2)[1].residual)
    target = gen_cbs_family(2).bcbs[0].residual
    good = proportional(img, target)
    bad = Cofactor(good.coeff * (1 + Fraction(1, 1000)), good.powers)
    for cof, expected in ((good, True), (bad, False)):
        got = numeric_proportionality(img, target, cof, trials=100, seed=0)
        assert got == reference_numeric_proportionality(img, target, cof,
                                                        trials=100, seed=0)
        assert got is expected


def _run_cell(monkeypatch, claim, n, check):
    """Run a claim cell through the real runner and record each call of the
    numoracle check it makes, with its arguments and result."""
    runner = claims._Runner(claim, n, 0)
    original = getattr(numoracle, check)
    calls = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(numoracle, check, recorded)
    getattr(claims, "_" + claim.lower())(runner, n)
    assert calls
    return runner, calls


@pytest.mark.parametrize("claim", ["C3", "C5", "C7", "C9"])
def test_zero_checks_of_a_cell_share_one_walk(monkeypatch, claim):
    runner, calls = _run_cell(monkeypatch, claim, 4, "confirm_zero")
    assert len(runner.walks.walks) == 1
    for (expr, space, seed), kwargs, got in calls:
        assert seed == runner.seed and kwargs["walks"] is runner.walks
        assert got == reference_confirm_zero(expr, space, seed, points=100,
                                             system=kwargs["system"])


def test_proportionality_checks_of_a_cell_share_one_walk(monkeypatch):
    runner, calls = _run_cell(monkeypatch, "C4", 4, "numeric_proportionality")
    assert len(calls) == 3
    # C4's zero check is a symbolic zero, which samples no point
    assert len(runner.walks.walks) == 1
    for (lhs, rhs, cof), kwargs, got in calls:
        assert kwargs["seed"] == runner.seed and kwargs["walks"] is runner.walks
        assert got is reference_numeric_proportionality(lhs, rhs, cof, trials=100,
                                                        seed=runner.seed)


def _rule_rejecting_the_first_point(seed):
    """The coords of confirm_zero's first point at seed, and a system with
    the one rule X_{T0,T1} -> 1/(X_{T0} - c), where c is the value of X_{T0}
    at that point: the rule rejects the point for every check reading
    X_{T0,T1}."""
    tf = TestFunction(R2, seed)
    coords = tf.sample_coords(random.Random(seed * 7919 + 13))
    c = Fraction(reference_jet_value(tf, R2.jet("X", T0=1), coords))
    rule = RewriteRule(R2.jet("X", T0=1, T1=1),
                       RatExpr.const(1) / (R2.expr("X", T0=1) - c), "synthetic")
    return coords, RewriteSystem([rule], JetRanking(R2))


def test_a_led_jets_rejection_rejects_only_the_checks_that_read_it():
    seed = 7
    coords, system = _rule_rejecting_the_first_point(seed)
    lead = R2.jet("X", T0=1, T1=1)
    reads = R2.expr("X", T0=1, T1=1) + R2.expr("X", T1=1)
    skips = R2.expr("X", T0=1) + R2.expr("X", T1=1)
    walks = SampleWalks()
    results = [confirm_zero(e, R2, seed, points=1, system=system, walks=walks)
               for e in (reads, skips, reads)]
    (walk,) = walks.walks.values()
    assert len(walk.points) == 2
    assert R2.jet("X", T1=1) in walk.points[0][1]
    assert lead not in walk.points[0][1]
    # with points=1 each result is the residual at the first point it accepts
    for e, got in zip((reads, skips, reads), results):
        assert got == reference_confirm_zero(e, R2, seed, points=1, system=system)
    assert results[0] != results[1]
    values = reference_consistent_point(None, skips.jets(), TestFunction(R2, seed), coords)
    num, scale, _ = reference_evaluate(skips, values.__getitem__)
    assert results[1] == abs(num) / max(scale, 1e-300)


def test_a_led_jets_rejection_leaves_through_relative_residual(monkeypatch):
    # the plan runs inside relative_residual, so the led jet's
    # SmallDenominatorError from _Plan.run passes through that public name,
    # where a tracer wrapping it can count the rejected point
    seed = 7
    _, system = _rule_rejecting_the_first_point(seed)
    original = numoracle.relative_residual
    outcomes = []

    def wrapped(*args):
        try:
            result = original(*args)
        except SmallDenominatorError as exc:
            outcomes.append(exc)
            raise
        outcomes.append(result)
        return result

    monkeypatch.setattr(numoracle, "relative_residual", wrapped)
    reads = R2.expr("X", T0=1, T1=1) + R2.expr("X", T1=1)
    got = confirm_zero(reads, R2, seed, points=1, system=system)
    rejected, accepted = outcomes
    assert accepted == got
    assert isinstance(rejected, SmallDenominatorError)
    tb, codes = rejected.__traceback__, []
    while tb is not None:
        codes.append(tb.tb_frame.f_code)
        tb = tb.tb_next
    assert numoracle._Plan.run.__code__ in codes


def test_a_jet_free_in_one_system_is_computed_from_the_rule_of_a_system_that_leads_it():
    # B leaves X_{T0,T1} free, so its checks record the test function's
    # value of that jet at the walk's points; A leads it, and on the same
    # walk A's check must still compute it from A's rule
    seed = 7
    lead = R2.jet("X", T0=1, T1=1)
    rhs = R2.expr("X", T0=1) * R2.expr("X", T1=1)
    a = RewriteSystem([RewriteRule(lead, rhs, "synthetic")], JetRanking(R2))
    squared = R2.expr("X", T0=1) * R2.expr("X", T0=1)
    b = RewriteSystem([RewriteRule(R2.jet("X", T0=2), squared, "synthetic")], JetRanking(R2))
    e = R2.expr("X", T0=1, T1=1) - rhs
    walks = SampleWalks()
    off_shell = confirm_zero(e + R2.expr("X", T0=2) - squared, R2, seed,
                             points=20, system=b, walks=walks)
    (walk,) = walks.walks.values()
    assert lead in walk.points[0][1]
    on_shell = confirm_zero(e, R2, seed, points=20, system=a, walks=walks)
    assert len(walks.walks) == 1
    assert on_shell == reference_confirm_zero(e, R2, seed, points=20, system=a)
    assert on_shell <= ZERO_TOL < off_shell
