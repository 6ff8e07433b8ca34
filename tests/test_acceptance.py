"""Acceptance criteria, one test per numbered criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion.  The claim matrix itself is produced by the real CLI in a
subprocess (claims run in parallel worker processes there), and the
criterion tests inspect its report file plus cheap in-process re-checks.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from _helpers import random_poly_from
from jetcalc.diffalg import is_zero, random_expr, total_derivative
from jetcalc.exprio import parse, print_text
from jetcalc.hierarchies import (ch_space, gen_cbs_family, gen_ch, gen_mcbs_family,
                                 gen_miura_relations, gen_qiao, mr_space, q_space, r_space)
from jetcalc.numoracle import FD_TOL, TestFunction, fd_check, numeric_proportionality
from jetcalc.reduction import JetRanking, RewriteSystem, orient, standard_systems
from jetcalc.transform import (DerivationMap, build_map, check_commutation,
                               transport)

PER_CELL_LIMIT_S = 60.0
TOTAL_LIMIT_S = 600.0


def _run_cli(args):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "jetcalc.cli"] + args,
                          capture_output=True, text=True)
    return proc, time.perf_counter() - t0


@pytest.fixture(scope="session")
def claim_matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "report.json"
    proc, wall = _run_cli(["verify", "--claim", "all", "--n-max", "4",
                           "--seed", "0", "--timings", "--report", str(path)])
    records = json.loads(path.read_text()) if path.exists() else []
    return {"exit": proc.returncode, "wall": wall, "records": records,
            "stdout": proc.stdout, "stderr": proc.stderr}


def _cells(records, claim):
    return sorted((r for r in records if r["claim"] == claim), key=lambda r: r["n"])


def test_criterion_1_claim_suite_all_pass_within_budget(claim_matrix):
    assert claim_matrix["exit"] == 0, claim_matrix["stderr"]
    records = claim_matrix["records"]
    assert len(records) == 36
    assert all(r["status"] == "pass" for r in records)
    assert claim_matrix["wall"] <= TOTAL_LIMIT_S
    worst = max(r["millis"] for r in records)
    assert worst <= PER_CELL_LIMIT_S * 1000.0
    print(f"ACCEPTANCE 1 PASS: 36/36 cells pass, wall {claim_matrix['wall']:.1f}s, "
          f"slowest cell {worst:.0f}ms")


def test_criterion_2_conservative_equations_exactly_zero(claim_matrix):
    for rec in _cells(claim_matrix["records"], "C1"):
        assert rec["status"] == "pass"
    for n in (1, 2, 3, 4):
        assert transport(build_map("R_CH", n), gen_ch(n)[0].residual).is_zero()
        assert transport(build_map("R_Q", n), gen_qiao(n)[0].residual).is_zero()
    print("ACCEPTANCE 2 PASS: transported conservative equations are exact "
          "symbolic zeros for n=1..4")


def test_criterion_3_proportionality_cofactors(claim_matrix):
    for rec in _cells(claim_matrix["records"], "C2"):
        if rec["n"] >= 2:
            assert rec["cofactor"] == "2*X_{T0}^-2", rec
    for rec in _cells(claim_matrix["records"], "C4"):
        if rec["n"] >= 2:
            assert rec["cofactor"] == "x_{T0}^-1", rec
    print("ACCEPTANCE 3 PASS: C2 cofactor 2*X_{T0}^-2 and C4 cofactor "
          "x_{T0}^-1 for every i, n<=4")


def test_criterion_4_compatibility_and_miura_reductions(claim_matrix):
    for claim in ("C3", "C5"):
        cells = _cells(claim_matrix["records"], claim)
        assert [r["n"] for r in cells] == [1, 2, 3, 4]
        assert all(r["status"] == "pass" for r in cells)
        assert any("vacuous" in line for line in cells[0]["details"])
        for rec in cells[1:]:
            assert all("pass" in line for line in rec["details"])
    from jetcalc.claims import _miura_substituted_bmcbs, _substituted_cbs
    bsys = standard_systems("BCBS", 2)
    rels = {e.label: e for e in gen_miura_relations(2)}
    assert bsys.reduce(_substituted_cbs(2, 1, gen_cbs_family(2))).is_zero()
    assert bsys.reduce(_miura_substituted_bmcbs(2, 1, gen_mcbs_family(2), rels)).is_zero()
    print("ACCEPTANCE 4 PASS: C3/C5 reduced residuals exactly zero for "
          "n=2..4, vacuous at n=1")


def test_criterion_5_headline_identity(claim_matrix):
    cells = _cells(claim_matrix["records"], "C9")
    assert [r["n"] for r in cells] == [1, 2, 3, 4]
    assert all(r["status"] == "pass" for r in cells)
    m = build_map("C_MR", 1)
    system = standard_systems("CH", 1)
    for eq in gen_qiao(1):
        resid = eq.residual
        if eq.label == "E_Q1n":
            resid = resid.total_derivative("x")
        assert system.reduce(transport(m, resid)).is_zero()
    print("ACCEPTANCE 5 PASS: every transported Qiao equation reduces to "
          "exactly zero modulo CH for n=1..4")


def test_criterion_6_property_suites():
    spaces = (ch_space(2), q_space(2), r_space(2), mr_space(2))
    rng = random.Random(616)
    for k in range(1000):
        space = spaces[k % len(spaces)]
        a = random_expr(space, rng, rational=True)
        b = random_expr(space, rng)
        c = random_expr(space, rng)
        assert is_zero((a + b) - (b + a))
        assert is_zero(((a + b) + c) - (a + (b + c)))
        assert is_zero((a * b) - (b * a))
        assert is_zero(a * (b + c) - (a * b + a * c))
    for k in range(1000):
        space = spaces[k % len(spaces)]
        var = space.vars[k % len(space.vars)]
        f = random_expr(space, rng, rational=(k % 3 == 0))
        g = random_expr(space, rng)
        d = total_derivative
        assert is_zero(d(f * g, var) - f * d(g, var) - g * d(f, var))
    for k in range(1000):
        space = spaces[k % len(spaces)]
        f = random_expr(space, rng)
        va = space.vars[k % len(space.vars)]
        vb = space.vars[(k + 1) % len(space.vars)]
        d = total_derivative
        assert is_zero(d(d(f, va), vb) - d(d(f, vb), va))
    for k in range(1000):
        space = spaces[k % len(spaces)]
        e = random_expr(space, rng, rational=(k % 3 == 0))
        assert is_zero(parse(print_text(e), space) - e)
    n = 2
    for name in ("R_CH", "R_Q", "C_MR"):
        assert check_commutation(build_map(name, n), 25, seed=616)
    assert check_commutation(build_map("B_CH", n), 25, seed=616,
                             modulo=standard_systems("CH", n))
    qspace = q_space(n)
    qiao_rule = RewriteSystem([orient(gen_qiao(n)[0], qspace.jet("u", t=1))],
                              JetRanking(qspace))
    assert check_commutation(build_map("B_Q", n), 25, seed=616, modulo=qiao_rule)
    print("ACCEPTANCE 6 PASS: 1000-case ring/Leibniz/commutation/round-trip "
          "suites and all five map commutation checks")


def test_criterion_7_numeric_oracle_and_mutation_sensitivity(claim_matrix):
    # every symbolic zero in the claim matrix carried a <=1e-9 confirmation
    confirmed = 0
    for rec in claim_matrix["records"]:
        for line in rec["details"]:
            if "numeric<=" in line:
                assert "pass" in line
                confirmed += 1
    assert confirmed >= 40
    rng = random.Random(77)
    spaces = (ch_space(2), q_space(2), r_space(2))
    worst = 0.0
    for k in range(200):
        space = spaces[k % len(spaces)]
        tf = TestFunction(space, seed=k)
        e = random_expr(space, rng, rational=(k % 4 == 0))
        worst = max(worst, fd_check(e, space.vars[k % len(space.vars)], tf, sample=k))
    assert worst <= FD_TOL
    # mutation sensitivity: perturbed cofactor and corrupted map are caught
    from fractions import Fraction
    from jetcalc.diffalg import Cofactor, proportional
    from jetcalc.hierarchies import gen_cbs_family
    img = transport(build_map("R_CH", 2), gen_ch(2)[1].residual)
    target = gen_cbs_family(2).bcbs[0].residual
    cof = proportional(img, target)
    assert numeric_proportionality(img, target, cof, trials=100, seed=0)
    bad = Cofactor(cof.coeff * (1 + Fraction(1, 1000)), cof.powers)
    assert not numeric_proportionality(img, target, bad, trials=100, seed=0)
    good = build_map("R_CH", 2)
    broken_ops = dict(good.op_images)
    coeff, var = broken_ops["X"][0]
    broken_ops["X"] = ((coeff + 1, var),)
    corrupted = DerivationMap("corrupted", good.source, good.target,
                              good.field_images, broken_ops)
    assert not check_commutation(corrupted, 10, seed=0)
    print(f"ACCEPTANCE 7 PASS: {confirmed} numeric zero confirmations <=1e-9, "
          f"fd worst {worst:.2e} <= 1e-6, mutations detected")


def test_criterion_8_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--claim", "all", "--n-max", "4", "--seed", "0"]
    proc_a, _ = _run_cli(args + ["--report", str(a)])
    proc_b, _ = _run_cli(args + ["--report", str(b)])
    assert proc_a.returncode == 0 and proc_b.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    print("ACCEPTANCE 8 PASS: identical flags and seed give byte-identical "
          "report files")