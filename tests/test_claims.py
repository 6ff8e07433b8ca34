"""Claim runner behavior: outcomes, vacuous cells, determinism, error paths."""

import concurrent.futures
import pickle
from fractions import Fraction

import pytest

from _helpers import StubPool, reference_t0_first_image
from jetcalc import claims, diffalg, numoracle, reduction, transform
from jetcalc import hierarchies as hier
from jetcalc.claims import CLAIM_IDS, CheckResult, _derivative, run_all, run_claim
from jetcalc.diffalg import RatExpr, prolong
from jetcalc.reduction import RewriteRule, RewriteSystem, standard_systems


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


def test_run_all_runs_a_repeated_claim_once():
    assert [(rep.claim, rep.n) for rep in run_all(1, claims=["C1", "C1"])] == [("C1", 1)]


def test_run_all_rejects_bad_input():
    with pytest.raises(ValueError):
        run_all(0)
    with pytest.raises(ValueError):
        run_all(1, claims=["C42"])
    with pytest.raises(ValueError):
        run_claim("C0", 1)


def test_run_all_rejects_an_empty_selection():
    with pytest.raises(ValueError, match="no claim selected"):
        run_all(1, claims=[])
    assert len(run_all(1, claims=None)) == len(CLAIM_IDS)


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
    with diffalg.limits(term_cap=6):
        rep = run_claim("C9", 2)
    assert rep.status == "error"
    assert any("TermCapError" in c.note for c in rep.checks if c.status == "error")


def test_term_cap_does_not_leak_into_later_calls():
    # nor does the step cap: diffalg.limits scopes both to its block
    with diffalg.limits(term_cap=50):
        run_all(1, claims=["C9"])
    with diffalg.limits(step_cap=1):
        assert run_all(2, claims=["C9"])[-1].status == "error"
    assert run_claim("C3", 3).status == "pass"


@pytest.mark.parametrize("cap,error", [({"step_cap": 1}, "StepCapError"),
                                       ({"term_cap": 6}, "TermCapError")])
def test_caps_cross_the_process_pool(cap, error):
    # a pool worker does not inherit the caller's limits: each task carries them
    with diffalg.limits(**cap):
        seq = [rep.record() for rep in run_all(2, claims=["C9"], jobs=1)]
        par = [rep.record() for rep in run_all(2, claims=["C9"], jobs=2)]
    assert seq == par
    assert all(any(line.startswith(f"engine: error ({error}: ") for line in rec["details"])
               for rec in par)


@pytest.mark.parametrize("cap,note", [
    ({"term_cap": 6}, "TermCapError: polynomial with 9 terms exceeds the cap of 6"),
    ({"step_cap": 1}, "StepCapError: reduction exceeded 1 steps; last rewrites: P_{X,T}")],
    ids=["term_cap", "step_cap"])
def test_run_claim_and_run_all_honour_the_enclosing_limits(cap, note):
    # neither opens caps of its own over the caller's block
    with diffalg.limits(**cap):
        reports = [run_claim("C9", 2)] + run_all(2, claims=["C9"], jobs=1) \
            + run_all(2, claims=["C9"], jobs=2)
    assert [rep.n for rep in reports] == [2, 1, 2, 1, 2]
    assert all(rep.details() == [f"engine: error ({note})"] for rep in reports)


def test_step_cap_error_is_reported():
    with diffalg.limits(step_cap=1):
        rep = run_claim("C9", 2)
    assert rep.status == "error"
    assert any("StepCapError" in c.note for c in rep.checks if c.status == "error")


# the builders whose objects the cells of one size share within run_all
_SHARED = [(hier, "gen_ch"), (hier, "gen_qiao"), (hier, "gen_cbs_family"),
           (hier, "gen_mcbs_family"), (hier, "gen_miura_relations"),
           (transform, "build_map"), (transform, "back_mix_map"),
           (transform, "miura_mix_map"), (reduction, "standard_systems")]


def _count_builds(monkeypatch):
    """Wrap every shared builder; the returned list collects (name, *args),
    with a map argument given by its name, for each call not made from
    inside another builder (standard_systems generates the CH equations,
    and C_MR builds B_CH)."""
    calls, depth = [], [0]

    def counted(name, build):
        def wrapper(*args):
            if not depth[0]:
                calls.append((name, *(getattr(a, "name", a) for a in args)))
            depth[0] += 1
            try:
                return build(*args)
            finally:
                depth[0] -= 1
        return wrapper

    for module, name in _SHARED:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("n_max, selected, jobs, workers", [
    (1, ["C1"], 64, []), (1, ["C1", "C2", "C6"], 64, []), (2, ["C1"], 2, [2]),
    (2, ["C1", "C6"], 1, []), (3, ["C1", "C6"], 64, [3])])
def test_run_all_starts_no_more_workers_than_cells(monkeypatch, n_max, selected, jobs,
                                                   workers):
    # a pool task is one size: one size or one job takes the serial path,
    # which builds no pool; on either path, the cells of one size share what
    # they build
    monkeypatch.setattr(StubPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    calls = _count_builds(monkeypatch)
    reports = run_all(n_max, claims=selected, jobs=jobs)
    assert StubPool.made == workers
    assert len(calls) == len(set(calls))
    assert [rep.record() for rep in reports] == \
        [run_claim(c, n).record() for c in selected for n in range(1, n_max + 1)]


def test_run_all_builds_each_shared_object_once_per_size(monkeypatch):
    calls = _count_builds(monkeypatch)
    assert {rep.status for rep in run_all(3, jobs=1)} == {"pass"}
    assert len(calls) == len(set(calls))
    for n in (1, 2, 3):
        built = {call[:-1] for call in calls if call[-1] == n}
        assert built == {("gen_ch",), ("gen_qiao",), ("gen_cbs_family",),
                         ("gen_mcbs_family",), ("gen_miura_relations",),
                         ("build_map", "R_CH"), ("build_map", "R_Q"),
                         ("build_map", "C_MR"), ("back_mix_map",),
                         ("standard_systems", "CH")} | (
                             {("miura_mix_map", "C_MR")} if n > 1 else set())
    # cells run n-major: every object of size n is built before any of n+1
    sizes = [call[-1] for call in calls]
    assert sizes == sorted(sizes)


def test_run_all_builds_b_ch_once_per_size(monkeypatch):
    # C8 and C9 build C_MR, and with it B_CH; C7 extends that C_MR map
    built, build = [], transform.build_map

    def counted(which, n):
        built.append((which, n))
        return build(which, n)

    monkeypatch.setattr(transform, "build_map", counted)
    run_all(3, jobs=1)
    assert [n for which, n in built if which == "B_CH"] == [1, 2, 3]


def _mutate_ch_law(monkeypatch):
    monkeypatch.setitem(transform._LAWS, "CH", ("P", "Omega", Fraction(1, 3), "X"))


def _mutate_msys_m0(monkeypatch):
    # at n = 3, the size the mutant is built over
    generate = hier.gen_cbs_family
    extra = hier.r_space(3).expr("X", T0=1)

    def perturbed(n):
        fam = generate(n)
        if n != 3:
            return fam
        m0 = fam.msys[0]._replace(residual=fam.msys[0].residual + extra)
        return fam._replace(msys=(m0,) + fam.msys[1:])

    monkeypatch.setattr(hier, "gen_cbs_family", perturbed)


@pytest.mark.parametrize("claim, mutate", [("C1", _mutate_ch_law), ("C3", _mutate_msys_m0)],
                         ids=["law-behind-build_map", "gen_cbs_family"])
def test_a_run_after_a_mutation_sees_the_mutant(monkeypatch, claim, mutate):
    # nothing built in one run_all survives into the next
    assert run_all(3, claims=[claim])[-1].status == "pass"
    mutate(monkeypatch)
    assert run_all(3, claims=[claim])[-1].status == "fail"


def test_a_run_that_raises_closes_its_scope(monkeypatch):
    def broken(r, n):
        raise RuntimeError("not an engine error")

    monkeypatch.setitem(claims._CLAIM_FNS, "C2", broken)
    with pytest.raises(RuntimeError):
        run_all(2, claims=["C1", "C2"])
    assert claims._shared.get() is None
    calls = _count_builds(monkeypatch)
    run_claim("C1", 2)
    run_claim("C1", 2)
    assert calls.count(("gen_ch", 2)) == 2


R2 = hier.r_space(2)
X0 = R2.expr("X", T0=1)


def _runner():
    return claims._Runner("C1", 2, 0)


def test_a_nonzero_reduction_fails_with_no_note():
    r = _runner()
    r.zero_check("nonzero", X0 + 1)
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
    r.zero_check("full", expr, system=full)
    assert r.checks == [CheckResult("full", "error", "not decided: non-zero normal "
                                    "form modulo a system not shown coherent")]
    assert r.terms == 175
    one_rule = RewriteSystem([full.rules[0]], full.ranking)
    assert one_rule.coherent
    r.zero_check("one rule", expr, system=one_rule)
    assert r.checks[1] == CheckResult("one rule", "fail", "")
    assert claims._rep(r, 0.0).status == "error"


def test_a_numeric_residual_above_the_tolerance_fails(monkeypatch):
    monkeypatch.setattr(numoracle, "confirm_zero", lambda *args, **kwargs: 1e-3)
    r = _runner()
    r.zero_check("zero", RatExpr.const(0))
    assert r.checks == [CheckResult("zero", "fail", "numeric residual 1.00e-03 above 1e-09")]
    rep = run_claim("C8", 2)
    assert rep.status == "fail"
    assert rep.details() == ["d^2 x = 0 cross-derivative modulo CH: fail "
                             "(numeric residual 1.00e-03 above 1e-09)"]


def test_a_residual_at_the_tolerance_passes(monkeypatch):
    # confirm_zero returns only 0.0 or 1.0, so every pass carries one note
    monkeypatch.setattr(numoracle, "confirm_zero", lambda *args, **kwargs: 1e-9)
    r = _runner()
    r.zero_check("zero", RatExpr.const(0))
    assert r.checks == [CheckResult("zero", "pass", "numeric<=1e-12")]


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
    with diffalg.limits(step_cap=3):
        rep = run_claim("C5", 3)
    assert rep.status == "error"
    (engine,) = [c for c in rep.checks if c.status == "error"]
    assert engine.note.startswith("StepCapError: height substitution exceeded 3 steps")
    assert "last rewrites: x_{" in engine.note


def test_m_substitution_honours_the_step_cap():
    with diffalg.limits(step_cap=2):
        rep = run_claim("C3", 3)
    assert rep.status == "error"
    (engine,) = [c for c in rep.checks if c.status == "error"]
    assert engine.note.startswith("StepCapError: M substitution exceeded 2 steps")
    assert "last rewrites: M_{" in engine.note
    with diffalg.limits(step_cap=5):
        rep = run_claim("C3", 5)
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
        return [eq._replace(residual=eq.residual + extra) if eq.label == label else eq
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
        m0 = fam.msys[0]._replace(residual=fam.msys[0].residual + extra)
        return fam._replace(msys=(m0,) + fam.msys[1:])

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


@pytest.mark.parametrize("name", ["m0_image", "mi_image"])
def test_doubling_an_m_image_fails_c2_c3_and_c5(monkeypatch, name):
    # bcbs_i is the compatibility of the M images, so a slip in either reaches
    # the BCBS rules that C2 and C5 use as well as C3's M substitution
    image = getattr(hier, name)
    monkeypatch.setattr(hier, name, lambda *args: 2 * image(*args))
    assert {c: run_claim(c, 3).status for c in ("C2", "C3", "C5")} == \
        {"C2": "fail", "C3": "fail", "C5": "fail"}


@pytest.mark.parametrize("law, entry, failing", [
    ("CH", ("P", "Omega", Fraction(1, 3), "X"), {"C1", "C7", "C8", "C9"}),
    ("Q", ("u", "w", Fraction(1, 2), "x"), {"C4", "C7", "C8", "C9"}),
], ids=["CH-phi", "Q-phi"])
def test_a_mutated_conservation_law_fails_the_claims_of_its_maps(monkeypatch, law,
                                                                 entry, failing):
    # all four reciprocal maps of a hierarchy come from its entry in _LAWS
    monkeypatch.setitem(transform._LAWS, law, entry)
    reports = run_all(2)
    assert {rep.claim for rep in reports if rep.status == "fail"} == failing
    assert {rep.status for rep in reports if rep.claim not in failing} == {"pass"}


@pytest.mark.parametrize("n", [2, 3])
def test_the_pinned_c2_cofactor_rejects_a_mutated_ch_law(monkeypatch, n):
    # C2's verdict does not judge the cofactor's constant: with phi = 1/3 the
    # images stay proportional, with another constant, and only the paper's
    # value pinned here tells the mutant apart
    assert run_claim("C2", n).cofactor == "2*X_{T0}^-2"
    monkeypatch.setitem(transform._LAWS, "CH", ("P", "Omega", Fraction(1, 3), "X"))
    assert run_claim("C2", n).cofactor == "3*X_{T0}^-2"


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


def _double_u(field_images, n, src):
    field_images[src.jet("u")] = 2 * field_images[src.jet("u")]


def _scale_w(field_images, n, src):
    for i in range(1, n + 1):
        field_images[src.jet("w", i)] = Fraction(2, 3) * field_images[src.jet("w", i)]


def _double_x_ti(field_images, n, src):
    for i in range(1, n + 1):
        jet = src.jet("X", **{f"T{i}": 1})
        field_images[jet] = 2 * field_images[jet]


@pytest.mark.parametrize("which, edit", [("R_Q", _double_u), ("R_Q", _scale_w),
                                         ("B_CH", _double_x_ti)],
                         ids=["R_Q-u", "R_Q-w", "B_CH-X_Ti"])
def test_a_mutated_factor_of_c_mr_fails_c8_and_c9(monkeypatch, which, edit):
    # C_MR is composed from R_Q and B_CH, so C9 sees a slip in either
    images = transform._images

    def mutated(name, n, src, tgt):
        field_images, op_images = images(name, n, src, tgt)
        if name == which:
            edit(field_images, n, src)
        return field_images, op_images

    monkeypatch.setattr(transform, "_images", mutated)
    assert run_claim("C8", 2).status == "fail"
    assert run_claim("C9", 2).status == "fail"


def test_dropping_the_log_term_of_the_miura_map_fails_c9(monkeypatch):
    miura = transform.miura_map

    def bare(n):
        # x_{Ti} -> X_{Ti}, without X_{T0,Ti}/X_{T0}
        mu = miura(n)
        rs = mu.source
        images = {rs.jet("x", **{f"T{i}": 1}): rs.expr("X", **{f"T{i}": 1})
                  for i in range(n + 1)}
        return transform.DerivationMap("MU_bare", rs, rs, images, mu.op_images)

    monkeypatch.setattr(transform, "miura_map", bare)
    assert run_claim("C9", 2).status == "fail"


def test_claim_ids_complete():
    assert CLAIM_IDS == ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")


def test_the_record_types_are_immutable_values_that_survive_the_pool():
    # the records are namedtuples: equal fields make equal, equally hashed
    # values, and a pool worker's report pickles back unchanged
    assert CheckResult("zero", "pass") == CheckResult("zero", "pass", "")
    assert hash(CheckResult("zero", "pass")) == hash(CheckResult("zero", "pass", ""))
    assert CheckResult("zero", "pass") != CheckResult("zero", "fail")
    sp = hier.ch_space(2)
    rule = RewriteRule(sp.jet("P", T=1), sp.expr("P", X=1) * sp.expr("P"), "synthetic")
    again = RewriteRule(sp.jet("P", T=1), sp.expr("P") * sp.expr("P", X=1), "synthetic")
    assert rule == again and hash(rule) == hash(again)
    assert rule != rule._replace(origin="other")
    rep = run_claim("C2", 2)
    assert rep.checks
    for record, name in ((rule, "rhs"), (rep.checks[0], "note"), (rep, "status")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    copy = pickle.loads(pickle.dumps(rep))
    assert copy == rep and type(copy) is type(rep)
    assert copy.record(include_millis=True) == rep.record(include_millis=True)
    eq = hier.gen_ch(2)[0]
    with pytest.raises(ValueError, match="unknown system tag"):
        hier.Equation(eq.residual, eq.label, "NOPE", eq.i, eq.n)
    with pytest.raises(ValueError, match="unknown system tag"):
        eq._replace(system="NOPE")
    assert eq._replace(label="E") == hier.Equation(eq.residual, "E", eq.system, eq.i, eq.n)


def test_what_the_report_prints_and_counts_has_a_monomial_denominator(monkeypatch):
    # With a monomial denominator RatExpr.make's form is unique (content 1,
    # no monomial common to both sides, positive leading coefficient), so a
    # change that keeps these values keeps the report bytes.  The report
    # prints the C2/C4 closing images and counts the terms of each
    # proportional check's left side; a passing zero check counts none.
    printed, counted = [], {}
    print_text, check = claims.exprio.print_text, claims._Runner.proportional_check

    def printing(e):
        printed.append(e)
        return print_text(e)

    def checking(self, label, lhs, rhs):
        cof = check(self, label, lhs, rhs)
        if cof is not None:
            counted.setdefault((self.claim, self.n), []).append(lhs)
        return cof

    monkeypatch.setattr(claims.exprio, "print_text", printing)
    monkeypatch.setattr(claims._Runner, "proportional_check", checking)
    reports = run_all(4)
    assert all(rep.status == "pass" for rep in reports)
    assert len(printed) == 8 and counted
    for e in printed + [lhs for lhss in counted.values() for lhs in lhss]:
        assert len(e.den.terms) == 1, e
    for rep in reports:
        assert rep.terms == sum(len(lhs.num.terms) for lhs in counted.get((rep.claim, rep.n), ()))
