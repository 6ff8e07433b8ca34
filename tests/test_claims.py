"""Claim runner behavior: outcomes, vacuous cells, determinism, error paths."""

from dataclasses import replace
from fractions import Fraction

import pytest

from _helpers import reference_t0_first_image
from jetcalc import claims, numoracle, transform
from jetcalc import hierarchies as hier
from jetcalc.claims import CLAIM_IDS, CheckResult, _derivative, run_all, run_claim
from jetcalc.diffalg import RatExpr, prolong
from jetcalc.reduction import RewriteSystem, standard_systems


def test_c1_passes_at_n3():
    rep = run_claim("C1", 3)
    assert rep.status == "pass"
    assert rep.claim == "C1" and rep.n == 3


def test_c2_cofactor_at_n2():
    rep = run_claim("C2", 2)
    assert rep.status == "pass"
    assert rep.cofactor == "2*X_{T0}^-2"
    labels = [c.label for c in rep.checks]
    assert "E_CHn image (reported, not judged)" in labels


def test_c4_cofactor_and_cross_derivative():
    rep = run_claim("C4", 3)
    assert rep.status == "pass"
    assert rep.cofactor == "x_{T0}^-1"
    # bmcbs_i is defined as minus the m-system cross-derivative, so a check
    # of the one against the other would hold by construction
    assert not any(c.label.startswith("m-system cross") for c in rep.checks)


def test_c9_headline_at_n1():
    rep = run_claim("C9", 1)
    assert rep.status == "pass"
    assert len(rep.checks) == 3
    assert {c.status for c in rep.checks} == {"pass"}


def test_run_all_n1_vacuous_cells():
    reports = run_all(1)
    assert len(reports) == 9
    assert all(rep.status == "pass" for rep in reports)
    vacuous = {rep.claim for rep in reports
               if any(c.label == "vacuous" for c in rep.checks)}
    assert {"C3", "C5", "C7"} <= vacuous
    c2 = [rep for rep in reports if rep.claim == "C2"][0]
    assert any(c.label == "vacuous" for c in c2.checks)


def test_run_all_rejects_bad_input():
    with pytest.raises(ValueError):
        run_all(0)
    with pytest.raises(ValueError):
        run_all(1, claims=["C42"])
    with pytest.raises(ValueError):
        run_claim("C0", 1)


def test_reports_are_reproducible():
    a = run_claim("C2", 2).record()
    b = run_claim("C2", 2).record()
    assert a == b
    with_millis = run_claim("C2", 2).record(include_millis=True)
    assert with_millis["millis"] is not None


def test_parallel_schedule_matches_sequential():
    seq = [rep.record() for rep in run_all(2, claims=["C1", "C6", "C8"], jobs=1)]
    par = [rep.record() for rep in run_all(2, claims=["C1", "C6", "C8"], jobs=2)]
    assert seq == par


def test_engine_error_is_reported_not_raised():
    rep = run_claim("C9", 2, term_cap=6)
    assert rep.status == "error"
    assert any("TermCapError" in c.note for c in rep.checks if c.status == "error")


def test_term_cap_does_not_leak_into_later_calls():
    # nor does the step cap: both are scoped by one diffalg.limits per cell
    run_all(1, claims=["C9"], term_cap=50)
    assert run_all(2, claims=["C9"], step_cap=1)[-1].status == "error"
    assert run_claim("C3", 3).status == "pass"


@pytest.mark.parametrize("cap,error", [({"step_cap": 1}, "StepCapError"),
                                       ({"term_cap": 6}, "TermCapError")])
def test_caps_cross_the_process_pool(cap, error):
    # a pool worker does not inherit the caller's limits: each cell carries them
    seq = [rep.record() for rep in run_all(2, claims=["C9"], jobs=1, **cap)]
    par = [rep.record() for rep in run_all(2, claims=["C9"], jobs=2, **cap)]
    assert seq == par
    assert all(any(line.startswith(f"engine: error ({error}: ") for line in rec["details"])
               for rec in par)


def test_step_cap_error_is_reported():
    rep = run_claim("C9", 2, step_cap=1)
    assert rep.status == "error"
    assert any("StepCapError" in c.note for c in rep.checks if c.status == "error")


R2 = hier.r_space(2)
X0 = R2.expr("X", T0=1)


def _runner():
    return claims._Runner("C1", 2, 0)


def test_a_nonzero_reduction_fails_with_no_note():
    r = _runner()
    r.zero_check("nonzero", X0 + 1, R2)
    assert r.checks == [CheckResult("nonzero", "fail", "")]
    assert r.terms == 2


def test_only_a_coherent_system_refutes():
    # X_{T0,T2,T3} lies over two leads of the full BCBS system at n=3, which
    # is not coherent: its non-zero normal form decides nothing.  Modulo one
    # of those rules alone, a coherent system, the same input fails.
    r3 = hier.r_space(3)
    expr = r3.expr("X", T0=1, T2=1, T3=1)
    full = standard_systems("BCBS", 3)
    assert not full.coherent
    r = claims._Runner("C3", 3, 0)
    r.zero_check("full", expr, r3, system=full)
    assert r.checks == [CheckResult("full", "error", "not decided: non-zero normal "
                                    "form modulo a system not shown coherent")]
    assert r.terms == 175
    one_rule = RewriteSystem([full.rules[0]], full.ranking)
    assert one_rule.coherent
    r.zero_check("one rule", expr, r3, system=one_rule)
    assert r.checks[1] == CheckResult("one rule", "fail", "")
    assert claims._rep(r, 0.0).status == "error"


def test_a_numeric_residual_above_the_tolerance_fails(monkeypatch):
    monkeypatch.setattr(numoracle, "confirm_zero", lambda *args, **kwargs: 1e-3)
    r = _runner()
    r.zero_check("zero", RatExpr.const(0), R2)
    assert r.checks == [CheckResult("zero", "fail", "numeric residual 1.00e-03 above 1e-09")]
    rep = run_claim("C8", 2)
    assert rep.status == "fail"
    assert rep.details() == ["d^2 x = 0 cross-derivative modulo CH: fail "
                             "(numeric residual 1.00e-03 above 1e-09)"]


def test_a_residual_at_the_tolerance_passes(monkeypatch):
    monkeypatch.setattr(numoracle, "confirm_zero", lambda *args, **kwargs: 1e-9)
    r = _runner()
    r.zero_check("zero", RatExpr.const(0), R2)
    assert r.checks == [CheckResult("zero", "pass", "numeric<=1.0e-09")]


def test_inputs_that_are_not_proportional_fail():
    r = _runner()
    assert r.proportional_check("ratio", X0 + 1, X0) is None
    assert r.checks == [CheckResult("ratio", "fail", "not proportional")]
    assert r.terms == 0


def test_a_failed_numeric_spot_check_fails_with_the_cofactor(monkeypatch):
    monkeypatch.setattr(numoracle, "numeric_proportionality", lambda *args, **kwargs: False)
    r = _runner()
    assert r.proportional_check("ratio", 2 * X0, X0).text() == "2"
    assert r.checks == [CheckResult("ratio", "fail", "cofactor 2; numeric spot check failed")]
    rep = run_claim("C6", 2)
    assert rep.status == "fail"
    assert rep.details() == ["heights residual ~ P^2 - u(P - P_X): fail "
                             f"(cofactor {rep.cofactor}; numeric spot check failed)"]


@pytest.mark.parametrize("statuses,status", [
    ((), "pass"), (("pass", "pass"), "pass"), (("pass", "fail", "pass"), "fail"),
    (("fail", "error", "pass"), "error"), (("error", "fail"), "error")])
def test_cell_status_is_error_over_fail_over_pass(statuses, status):
    r = _runner()
    r.checks = [CheckResult(f"check {k}", s) for k, s in enumerate(statuses)]
    assert claims._rep(r, 0.0).status == status


def test_height_substitution_honours_the_step_cap():
    rep = run_claim("C5", 3, step_cap=3)
    assert rep.status == "error"
    (engine,) = [c for c in rep.checks if c.status == "error"]
    assert engine.note.startswith("StepCapError: height substitution exceeded 3 steps")
    assert "last rewrites: x_{" in engine.note


def test_m_substitution_honours_the_step_cap():
    rep = run_claim("C3", 3, step_cap=2)
    assert rep.status == "error"
    (engine,) = [c for c in rep.checks if c.status == "error"]
    assert engine.note.startswith("StepCapError: M substitution exceeded 2 steps")
    assert "last rewrites: M_{" in engine.note
    rep = run_claim("C3", 5, step_cap=5)
    (engine,) = [c for c in rep.checks if c.status == "error"]
    assert engine.note == ("StepCapError: M substitution exceeded 5 steps; last rewrites: "
                           "M_{T0,T2}, M_{T0,T0,T0,T1}, M_{T1}, M_{T0}, M_{T0,T0}")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_prolonged_m_and_height_images_match_the_t0_first_loop(n):
    rsp = hier.r_space(n)
    m_base, x_base = rsp.jet("M", T0=1), rsp.jet("x", T0=1)
    m_images, x_images = {m_base: hier.m0_image(n)}, {x_base: hier._r_big_s(n)}
    m_jets = {jet for eq in hier.gen_cbs_family(n).cbs for jet in eq.residual.jets()
              if jet.dominates(m_base)}
    assert m_jets
    for jet in m_jets:
        assert (prolong(m_images, m_base, jet, _derivative)
                == reference_t0_first_image(m_images[m_base], jet))
    for a in range(1, 5):
        for j in range(1, n + 1):
            jet = rsp.jet("x", T0=a, **{f"T{j}": 1})
            assert (prolong(x_images, x_base, jet, _derivative)
                    == reference_t0_first_image(x_images[x_base], jet))


def _paired_leads(n):
    """{(claim, label): the leads of the rules the check needs}."""
    x, xxx = "Omega[{}]_{{X,X}}", "Omega[{}]_{{X,X,X}}"
    paired = {("C8", "d^2 x = 0 cross-derivative modulo CH"): {"P_{T}"},
              ("C9", "E_Q0 modulo CH"): {"P_{T}"},
              ("C9", f"D_x(E_Q{n}n) modulo CH"): {x.format(n)}}
    for i in range(1, n):
        bcbs = f"X_{{T0,T{i + 1}}}"
        paired["C3", f"cbs_{i} modulo bcbs"] = {bcbs}
        paired["C5", f"bmcbs_{i} under the Miura substitutions"] = {bcbs}
        paired["C7", f"FIELDS_{i} first form modulo CH"] = {xxx.format(i)}
        paired["C9", f"E_Q{i} modulo CH"] = {xxx.format(i)}
    for i in range(1, n + 1):
        paired["C9", f"E_Qw{i} modulo CH"] = set()
    # the image of E_Q{n-1} carries Omega[n]_{X,X}, which cancels in the
    # reduction but which the numeric confirmation evaluates on-shell
    paired["C9", f"E_Q{n - 1} modulo CH"].add(x.format(n))
    return paired


@pytest.mark.parametrize("n", [4, 5])
def test_each_zero_check_applies_only_its_paired_rule(monkeypatch, n):
    # the leads of the rules that a check's reduction and its numeric
    # confirmation prolong, and the systems handed to confirm_zero
    leads, systems, applied = [], [], {}
    prolonged_rhs = RewriteSystem.prolonged_rhs
    zero_check = claims._Runner.zero_check
    confirm_zero = numoracle.confirm_zero

    def recorded_rhs(self, rule, jet):
        leads.append(rule.lead.text())
        return prolonged_rhs(self, rule, jet)

    def recorded_check(self, label, *args, **kwargs):
        leads.clear()
        zero_check(self, label, *args, **kwargs)
        applied[self.claim, label] = set(leads)

    def recorded_confirm(*args, **kwargs):
        systems.append(kwargs["system"])
        return confirm_zero(*args, **kwargs)

    monkeypatch.setattr(RewriteSystem, "prolonged_rhs", recorded_rhs)
    monkeypatch.setattr(claims._Runner, "zero_check", recorded_check)
    monkeypatch.setattr(numoracle, "confirm_zero", recorded_confirm)
    for claim in ("C3", "C5", "C7", "C8", "C9"):
        assert run_claim(claim, n).status == "pass"
    assert applied == _paired_leads(n)
    assert systems and all(s is None or s.coherent for s in systems)


def _perturb_miura_relation(monkeypatch, label, extra):
    """gen_miura_relations with extra added to the residual of label."""
    generate = hier.gen_miura_relations

    def perturbed(n):
        return [replace(eq, residual=eq.residual + extra) if eq.label == label else eq
                for eq in generate(n)]

    monkeypatch.setattr(hier, "gen_miura_relations", perturbed)


def _c5_statuses(n):
    return {c.label: c.status for c in run_claim("C5", n).checks}


@pytest.mark.parametrize("i", [1, 2])
def test_doubling_the_x_term_of_a_mixed_relation_flips_its_c5_check(monkeypatch, i):
    # MIX2_i carries X_{T(i+1)}/X_{T0} once: adding it again doubles it
    rsp = hier.r_space(3)
    _perturb_miura_relation(monkeypatch, f"MIX2_{i}",
                            rsp.expr("X", **{f"T{i + 1}": 1}) / rsp.expr("X", T0=1))
    assert _c5_statuses(3) == {f"bmcbs_{k} under the Miura substitutions":
                               "fail" if k == i else "pass" for k in (1, 2)}


def test_perturbing_the_height_relation_flips_c5(monkeypatch):
    _perturb_miura_relation(monkeypatch, "HEIGHTS_R", hier.r_space(3).expr("X", T0=1))
    assert set(_c5_statuses(3).values()) == {"fail"}


def test_perturbing_msys_m0_flips_c3(monkeypatch):
    generate = hier.gen_cbs_family
    extra = hier.r_space(3).expr("X", T0=1)

    def perturbed(n):
        fam = generate(n)
        m0 = replace(fam.msys[0], residual=fam.msys[0].residual + extra)
        return replace(fam, msys=(m0,) + fam.msys[1:])

    monkeypatch.setattr(hier, "gen_cbs_family", perturbed)
    rep = run_claim("C3", 3)
    assert {c.status for c in rep.checks} == {"fail"}


def test_a_c3_cell_generates_the_cbs_family_once(monkeypatch):
    # the family that gives the M images also gives the BCBS rules
    generate = hier.gen_cbs_family
    calls = []

    def counted(n):
        calls.append(n)
        return generate(n)

    monkeypatch.setattr(hier, "gen_cbs_family", counted)
    assert run_claim("C3", 4).status == "pass"
    assert calls == [4]


def test_scaling_the_c_mr_w_images_fails_c8(monkeypatch):
    images = transform._images

    def scaled(which, n, src, tgt):
        field_images, op_images = images(which, n, src, tgt)
        if which == "C_MR":
            for i in range(1, n + 1):
                w = src.jet("w", i)
                field_images[w] = Fraction(2, 3) * field_images[w]
        return field_images, op_images

    monkeypatch.setattr(transform, "_images", scaled)
    rep = run_claim("C8", 2)
    assert [c.status for c in rep.checks] == ["fail"]


def test_claim_ids_complete():
    assert CLAIM_IDS == ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")