"""Orientation, prolongation, normal forms, termination, numeric consistency."""

import random

import pytest

from _helpers import (random_poly_from, reference_consistent_point, reference_evaluate,
                      reference_rewrite, transportable_jets)
from jetcalc import claims, diffalg, reduction
from jetcalc.diffalg import (DiffAlgError, DiffPoly, TermCapError, is_zero, substitute_jet,
                             total_derivative)
from jetcalc.exprio import parse
from jetcalc.hierarchies import (ch_space, gen_cbs_family, gen_ch, gen_mcbs_family,
                                 gen_miura_relations, gen_qiao, r_space)
from jetcalc.numoracle import TestFunction
from jetcalc.reduction import (JetRanking, LeadAbsentError, NonlinearLeadError,
                               RankingViolationError, RewriteSystem,
                               StepCapError, orient, reduce, standard_systems)
from jetcalc.transform import build_map

CH2 = ch_space(2)


def test_orient_conservative_equation():
    rule = orient(gen_ch(2)[0], CH2.jet("P", T=1))
    expected = parse("-1/2*P_{X}*Omega[1] - 1/2*P*Omega[1]_{X}", CH2)
    assert rule.lead == CH2.jet("P", T=1)
    assert is_zero(rule.rhs - expected)
    assert rule.origin == "E_CH0"


def test_orient_closing_equation_n1():
    ch1 = ch_space(1)
    rule = orient(gen_ch(1)[1], ch1.jet("Omega", 1, X=2))
    assert is_zero(rule.rhs - parse("P^2 + Omega[1]", ch1))


def test_orient_lead_absent():
    with pytest.raises(LeadAbsentError):
        orient(gen_ch(2)[0], CH2.jet("Omega", 2, T=1))


def test_orient_nonlinear_lead():
    eq = parse("P_{T}^2 + Omega[1]", CH2)
    with pytest.raises(NonlinearLeadError):
        orient(eq, CH2.jet("P", T=1))


def test_orient_lead_in_denominator():
    eq = parse("Omega[1]/P_{T} + P", CH2)
    with pytest.raises(NonlinearLeadError):
        orient(eq, CH2.jet("P", T=1))


def test_rewrite_system_rejects_a_rule_at_or_above_its_lead():
    # solved for the undifferentiated field, the closing CH equation has P and
    # Omega[1]_{X,X} on its right side, both ranked above the lead: orient
    # solves, the system refuses
    ch1 = ch_space(1)
    rule = orient(gen_ch(1)[1], ch1.jet("Omega", 1))
    assert is_zero(rule.rhs - parse("Omega[1]_{X,X} - P^2", ch1))
    with pytest.raises(RankingViolationError) as err:
        RewriteSystem([rule], JetRanking(ch1))
    assert str(err.value) == "rule E_CH1n: P >= lead Omega[1]"


def test_standard_ch_rule_count():
    assert len(standard_systems("CH", 2).rules) == 3
    assert len(standard_systems("CH", 4).rules) == 5


def test_bcbs_rule_matches_hand_solution():
    sys2 = standard_systems("BCBS", 2)
    rule = sys2.rules[0]
    rsp = r_space(2)
    assert rule.lead == rsp.jet("X", T0=1, T2=1)
    s_expr = parse("X_{T0,T0}/X_{T0} + X_{T0}", rsp)
    curly = total_derivative(s_expr, "T0") - s_expr * s_expr / 2
    hand = (parse("X_{T2}*X_{T0,T0}/X_{T0}", rsp)
            - parse("X_{T0}", rsp) * total_derivative(curly, "T1"))
    assert is_zero(rule.rhs - hand)


def test_bcbs_needs_n_at_least_two():
    with pytest.raises(ValueError):
        standard_systems("BCBS", 1)
    with pytest.raises(ValueError):
        standard_systems("NOPE", 2)


def test_a_jet_over_two_bcbs_leads_matches_the_higher_and_shuffles_both(monkeypatch):
    r3 = r_space(3)
    system = standard_systems("BCBS", 3)
    jet = r3.jet("X", T0=1, T2=1, T3=1)
    low, high = r3.jet("X", T0=1, T2=1), r3.jet("X", T0=1, T3=1)
    assert [rule.lead for rule in system.match_all(jet)] == [low, high]
    assert system.ranking.higher(high, low) and not system.ranking.higher(low, high)
    assert system.match(jet).lead == high
    applied = []
    prolonged_rhs = RewriteSystem.prolonged_rhs

    def recorded(self, rule, j):
        applied.append((rule.lead, j))
        return prolonged_rhs(self, rule, j)

    monkeypatch.setattr(RewriteSystem, "prolonged_rhs", recorded)
    deterministic = system.reduce(r3.expr("X", T0=1, T2=1, T3=1))
    assert applied[0] == (high, jet)
    # {lead of the rule applied to the jet: normal forms reached}
    forms = {}
    for k in range(8):
        applied.clear()
        e = system.reduce(r3.expr("X", T0=1, T2=1, T3=1), rng=random.Random(k))
        assert applied[0][1] == jet
        forms.setdefault(applied[0][0], []).append(e)
    assert set(forms) == {low, high}
    for found in forms.values():
        assert all(is_zero(e - found[0]) for e in found)
    # the first rewrite decides the normal form: the system is not coherent
    assert is_zero(forms[high][0] - deterministic)
    assert not is_zero(forms[low][0] - deterministic)
    assert not system.coherent


def test_reduce_own_residual_to_zero():
    sys2 = standard_systems("CH", 2)
    for eq in gen_ch(2):
        assert reduce(sys2, eq.residual).is_zero()
    bsys = standard_systems("BCBS", 3)
    for eq in gen_cbs_family(3).bcbs:
        assert reduce(bsys, eq.residual).is_zero()


def test_reduce_prolonged_lead():
    sys2 = standard_systems("CH", 2)
    rule = sys2.rules[0]
    got = reduce(sys2, CH2.expr("P", X=1, T=1))
    expected = reduce(sys2, rule.rhs.total_derivative("X"))
    assert is_zero(got - expected)


def test_reduce_is_idempotent_and_matches_nothing():
    sys2 = standard_systems("CH", 2)
    e = parse("P_{X,X,T} + Omega[1]_{X,X,X,X} + P*Omega[2]_{X}", CH2)
    r1 = reduce(sys2, e)
    assert is_zero(reduce(sys2, r1) - r1)
    for jet in r1.jets():
        assert sys2.match(jet) is None


def test_prolonged_rules_stay_below_their_lead():
    sys2 = standard_systems("CH", 2)
    ranking = sys2.ranking
    for rule in sys2.rules:
        jet = rule.lead
        for _ in range(3):
            jet = jet.derived("X")
            rhs = sys2.prolonged_rhs(sys2.match(jet), jet)
            for j in rhs.jets():
                assert ranking.key(j) < ranking.key(jet)


class _LeadsOnTop:
    """A ranking stub: the given jets above every other jet, the rest alike."""

    def __init__(self, *leads):
        self.leads = set(leads)

    def key(self, jet):
        return int(jet in self.leads)

    def higher(self, a, b):
        return self.key(a) > self.key(b)


def test_prolongation_checks_the_ranking_of_every_right_side():
    rule = orient(gen_ch(2)[0], CH2.jet("P", T=1))
    p_xt = rule.lead.derived("X")
    p_xxt = p_xt.derived("X")
    # the rule passes the constructor, its prolongations rank level with
    # their right sides
    system = RewriteSystem([rule], _LeadsOnTop(rule.lead, p_xxt))
    with pytest.raises(RankingViolationError, match=r"for P_\{X,T\} contains"):
        system.prolonged_rhs(rule, p_xt)
    # P_{X,X,T} itself outranks its right side; the P_{X,T} step does not
    with pytest.raises(RankingViolationError, match=r"for P_\{X,T\} contains"):
        system.prolonged_rhs(rule, p_xxt)
    assert system.prolonged_rhs(rule, rule.lead) is rule.rhs


def test_prolonging_to_a_jet_below_the_lead_is_an_engine_error():
    system = standard_systems("CH", 2)
    rule = system.match(CH2.jet("P", T=1))
    with pytest.raises(DiffAlgError):
        system.prolonged_rhs(rule, CH2.jet("P", X=2))


def test_step_cap_reported_as_nontermination():
    e = parse("P_{X,X,T} + P_{X,T}*Omega[1]_{X,X,X}", CH2)
    with diffalg.limits(step_cap=2), pytest.raises(StepCapError):
        standard_systems("CH", 2).reduce(e)


def test_step_cap_error_names_the_last_twelve_rewrites():
    # P_{X^k,T} for k = 0..15: the cap of 14 stops after P_{X^15,T} .. P_{X^2,T}
    def p_xt(k):
        return "P_{" + ",".join(["X"] * k + ["T"]) + "}"

    e = parse(" + ".join(p_xt(k) for k in range(16)), CH2)
    with diffalg.limits(step_cap=14), pytest.raises(StepCapError) as err:
        standard_systems("CH", 2).reduce(e)
    assert err.value.trace == tuple(p_xt(k) for k in range(13, 1, -1))
    assert str(err.value) == ("reduction exceeded 14 steps; last rewrites: "
                              + ", ".join(err.value.trace))


@pytest.mark.parametrize("cap,raises", [(1, True), (2, False)])
def test_step_cap_bounds_the_substitutions(monkeypatch, cap, raises):
    # the C_MR image of E_Q1 reduces to zero modulo CH in exactly 2 rewrites;
    # the cap is checked before a rewrite's prolonged right side is built
    img = build_map("C_MR", 2).transport(gen_qiao(2)[1].residual)
    calls, prolonged = [], []
    prolonged_rhs = RewriteSystem.prolonged_rhs

    def counted(e, jet, rhs):
        calls.append(jet)
        return substitute_jet(e, jet, rhs)

    def counted_rhs(self, rule, jet):
        prolonged.append(jet)
        return prolonged_rhs(self, rule, jet)

    monkeypatch.setattr(reduction, "substitute_jet", counted)
    monkeypatch.setattr(RewriteSystem, "prolonged_rhs", counted_rhs)
    system = standard_systems("CH", 2)
    with diffalg.limits(step_cap=cap):
        if raises:
            with pytest.raises(StepCapError):
                system.reduce(img)
        else:
            assert system.reduce(img).is_zero()
    assert len(calls) == min(cap, 2)
    assert len(prolonged) == min(cap, 2)


def test_shuffle_mode_agrees_with_deterministic_order():
    sys2 = standard_systems("CH", 2)
    rng_pool = random.Random(99)
    jets = [CH2.jet("P", X=1), CH2.jet("P", T=1), CH2.jet("Omega", 1, X=3),
            CH2.jet("Omega", 2, X=2), CH2.jet("Omega", 1, X=1)]
    for k in range(25):
        e = random_poly_from(jets, rng_pool)
        base = reduce(sys2, e)
        shuffled = reduce(sys2, e, rng=random.Random(k))
        assert is_zero(base - shuffled)


def test_reduction_is_additive_and_multiplicative_on_normal_forms():
    sys2 = standard_systems("CH", 2)
    rng = random.Random(17)
    jets = [CH2.jet("P", X=1), CH2.jet("P", T=1), CH2.jet("Omega", 1, X=3),
            CH2.jet("Omega", 2, X=2), CH2.jet("Omega", 1)]
    for _ in range(40):
        a = random_poly_from(jets, rng)
        b = random_poly_from(jets, rng)
        assert is_zero(reduce(sys2, a + b) - reduce(sys2, a) - reduce(sys2, b))
        prod_gap = reduce(sys2, a * b) - reduce(sys2, reduce(sys2, a) * reduce(sys2, b))
        assert is_zero(prod_gap)


def test_numeric_consistency_at_onshell_points():
    sys2 = standard_systems("CH", 2)
    tf = TestFunction(CH2, seed=5)
    rng = random.Random(5)
    jets = [CH2.jet("P", X=1), CH2.jet("P", T=1), CH2.jet("Omega", 1, X=3),
            CH2.jet("Omega", 2, X=2)]
    for k in range(30):
        e = random_poly_from(jets, rng)
        red = reduce(sys2, e)
        coords = tf.sample_coords(rng)
        values = reference_consistent_point(sys2, set(e.jets()) | set(red.jets()), tf, coords)
        num1, _, den1 = reference_evaluate(e, values.__getitem__)
        num2, _, den2 = reference_evaluate(red, values.__getitem__)
        v1, v2 = num1 / den1, num2 / den2
        assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1), abs(v2))


def test_miura_equation_not_reducible_by_ch():
    # sanity: an unrelated residual is left untouched
    sys2 = standard_systems("CH", 2)
    e = parse("P*Omega[1] + 1", CH2)
    assert is_zero(reduce(sys2, e) - e)


def test_ranking_orders_time_derivatives_first():
    ranking = JetRanking(CH2)
    assert ranking.key(CH2.jet("P", T=1)) > ranking.key(CH2.jet("Omega", 1, X=3))
    assert ranking.key(CH2.jet("P", X=1)) > ranking.key(CH2.jet("Omega", 1, X=1))
    r3 = JetRanking(r_space(3))
    assert r3.key(r_space(3).jet("X", T0=1, T3=1)) > r3.key(r_space(3).jet("X", T0=3, T2=1))


# -- the held denominator against the step-by-step loop ------------------------

def _outcome(run):
    """run()'s expression, terms in dict order, or its StepCapError trace."""
    try:
        e = run()
    except StepCapError as exc:
        return "StepCapError", exc.trace
    return list(e.num.terms.items()), list(e.den.terms.items())


def _outcomes_of_both_loops(monkeypatch, runs):
    """[(outcome with the held denominator, outcome of reference_rewrite)]."""
    got = [_outcome(run) for run in runs]
    with monkeypatch.context() as patched:
        patched.setattr(reduction, "rewrite", reference_rewrite)
        want = [_outcome(run) for run in runs]
    return list(zip(got, want))


def _both_modes(system, e, cap=None):
    """Deterministic and shuffle-mode reductions of e, under a step cap."""
    def run(rng_seed):
        with diffalg.limits(step_cap=cap or diffalg.DEFAULT_STEP_CAP):
            return system.reduce(e, rng=None if rng_seed is None else random.Random(rng_seed))
    return [lambda: run(None), lambda: run(5)]


def _c9_shape_inputs(n):
    m = build_map("C_MR", n)
    exprs = []
    for eq in gen_qiao(n):
        resid = eq.residual
        exprs.append(resid.total_derivative("x") if eq.label == f"E_Q{n}n" else resid)
    rng = random.Random(23)
    jets = transportable_jets(m)
    exprs += [random_poly_from(jets, rng, max_factors=1, max_exp=1) for _ in range(8)]
    return [m.transport(e) for e in exprs]


def _b_ch_derivative_law_gaps():
    m = build_map("B_CH", 2)
    rng = random.Random(29)
    jets = transportable_jets(m)
    gaps = []
    for _ in range(8):
        f = random_poly_from(jets, rng, max_factors=1, max_exp=1)
        var = rng.choice(sorted(m.op_images))
        gaps.append(m.transport(f.total_derivative(var)).sub(m.derive(m.transport(f), var)))
    return gaps


def test_held_denominator_matches_the_step_by_step_loop_on_c9_and_law_gaps(monkeypatch):
    runs = []
    held = []
    for system, inputs in ((standard_systems("CH", 3), _c9_shape_inputs(3)),
                           (standard_systems("CH", 2), _b_ch_derivative_law_gaps())):
        for e in inputs:
            runs += _both_modes(system, e) + _both_modes(system, e, cap=2)
    substitute = reduction.substitute_jet

    def recorded(e, jet, rhs):
        held.append(isinstance(e, DiffPoly))
        return substitute(e, jet, rhs)

    monkeypatch.setattr(reduction, "substitute_jet", recorded)
    pairs = _outcomes_of_both_loops(monkeypatch, runs)
    assert sum(held) > 100
    assert sum(want[0] == "StepCapError" for _, want in pairs) > 10
    for got, want in pairs:
        assert got == want


@pytest.mark.parametrize("n", [3, 4])
def test_held_denominator_matches_the_step_by_step_loop_on_c3_and_c5(monkeypatch, n):
    bcbs = standard_systems("BCBS", n)
    cbs, mcbs = gen_cbs_family(n), gen_mcbs_family(n)
    rels = {e.label: e for e in gen_miura_relations(n)}
    runs = []
    for i, rule in enumerate(bcbs.rules, start=1):
        one_rule = RewriteSystem([rule], bcbs.ranking)
        for substituted in (lambda i: claims._substituted_cbs(n, i, cbs),
                            lambda i: claims._miura_substituted_bmcbs(n, i, mcbs, rels)):
            runs.append(lambda substituted=substituted, i=i: substituted(i))
            e = substituted(i)
            runs += _both_modes(one_rule, e) + _both_modes(one_rule, e, cap=2)
    for got, want in _outcomes_of_both_loops(monkeypatch, runs):
        assert got == want


def _rewrite_by_priority(e, images, order):
    """rewrite with a pick that takes the first jet of order that e carries,
    so that it picks the same jet whatever order e's jets come in."""
    def pick(e):
        present = set(e.jets())
        return next(((jet, None) for jet in order if jet in present), None)

    return reduction.rewrite(e, pick, lambda _, jet: images[jet], "test")


def _with_reference(monkeypatch, run):
    with monkeypatch.context() as patched:
        patched.setattr(reduction, "rewrite", reference_rewrite)
        return run()


def _jets(*texts):
    return [parse(t, CH2).num.leading()[0].factors[0][0] for t in texts]


def _divisible_midway():
    """(P + 1) divides the numerator once Omega[1] is substituted; then the
    quotient grows, over a constant denominator of 2."""
    a, b, w = _jets("Omega[1]", "Omega[2]", "Omega[1]_{X}")
    images = {a: parse("(P + 1)*Omega[1]_{X}", CH2),
              b: parse("Omega[2]_{X} + 3", CH2),
              w: parse("(Omega[2]_{X}^2 + Omega[1]_{X,X} + Omega[2]_{X,X} + P_{X} + 1)/2", CH2)}
    e = parse("(Omega[1]*Omega[2] + Omega[1])/(P + 1)", CH2)
    return e, images, [a, b, w]


def test_a_numerator_the_denominator_divides_midway_settles_to_the_same_value(monkeypatch):
    e, images, order = _divisible_midway()
    want = _with_reference(monkeypatch, lambda: _rewrite_by_priority(e, images, order))
    got = _rewrite_by_priority(e, images, order)
    assert want.den.is_const() and got == want


def test_a_monomial_common_to_both_sides_midway_cancels_in_the_same_order(monkeypatch):
    a, c, w = _jets("Omega[1]", "Omega[2]", "Omega[1]_{X}")
    images = {a: parse("P*Omega[1]_{X}", CH2), c: parse("P*Omega[2]_{X}/2", CH2),
              w: parse("Omega[2]_{X}^2 + 1", CH2)}
    e = parse("(Omega[1] + Omega[2])/(P*Omega[2]_{X,X} + P)", CH2)

    def run():
        return _rewrite_by_priority(e, images, [a, c, w])

    want = _with_reference(monkeypatch, run)
    got = run()
    # P cancelled: the denominator is a multiple of Omega[2]_{X,X} + 1
    assert set(want.den.terms) == set(parse("Omega[2]_{X,X} + 1", CH2).num.terms)
    assert _outcome(lambda: got) == _outcome(lambda: want)


def test_a_rule_led_jet_in_the_denominator_is_substituted_as_in_the_step_by_step_loop(
        monkeypatch):
    # P_{X,T} goes into the held numerator; P_{T}, which the denominator
    # carries, settles it first
    e = parse("(P_{X,T} + Omega[1]_{X,X,X}*P)/(P_{T} + P)", CH2)
    system = standard_systems("CH", 2)
    routes = []
    substitute = reduction.substitute_jet

    def recorded(e, jet, rhs):
        routes.append("held" if isinstance(e, DiffPoly) else
                      "denominator" if jet in set(e.den.jets()) else "numerator")
        return substitute(e, jet, rhs)

    monkeypatch.setattr(reduction, "substitute_jet", recorded)
    runs = [run for cap in (None, 1, 2, 3) for run in _both_modes(system, e, cap)]
    for got, want in _outcomes_of_both_loops(monkeypatch, runs):
        assert got == want
    assert {"held", "denominator"} <= set(routes)


def test_a_settle_that_cancels_a_picked_denominator_jet_picks_again(monkeypatch):
    # once (P + 1) divides out, P is gone: the step-by-step loop never
    # substitutes it, so neither may the held loop
    a, p, w = _jets("Omega[1]", "P", "Omega[1]_{X}")
    images = {a: parse("(P + 1)*Omega[1]_{X}", CH2), p: parse("Omega[2] + 5", CH2),
              w: parse("Omega[2]_{X} + 1", CH2)}
    e = parse("Omega[1]/(P + 1)", CH2)
    for cap in (1, 2, 3):
        def run():
            with diffalg.limits(step_cap=cap):
                return _rewrite_by_priority(e, images, [a, p, w])
        assert _outcome(run) == _with_reference(monkeypatch, lambda: _outcome(run))


def test_a_term_cap_the_step_by_step_loop_meets_is_met_after_a_midway_division(monkeypatch):
    e, images, order = _divisible_midway()

    def run(cap):
        with diffalg.limits(term_cap=cap):
            return _rewrite_by_priority(e, images, order)

    def reference_passes(cap):
        try:
            _with_reference(monkeypatch, lambda: run(cap))
        except TermCapError:
            return False
        return True

    need = next(cap for cap in range(1, 100) if reference_passes(cap))
    caught = []
    substitute = reduction.substitute_jet

    def recorded(e, jet, rhs):
        try:
            return substitute(e, jet, rhs)
        except TermCapError:
            caught.append(jet)
            raise

    monkeypatch.setattr(reduction, "substitute_jet", recorded)
    assert run(need) == _with_reference(monkeypatch, lambda: run(need))
    assert caught


def test_the_bcbs_system_needs_two_components():
    with pytest.raises(ValueError, match="the transformed system needs n >= 2"):
        standard_systems("BCBS", 1)
