"""Executable verification procedures for the nine transformation claims.

Each claim runs a sequence of named checks for a given hierarchy size n and
returns a VerificationReport holding only plain data (printable expression
text, cofactor strings, term counts), so reports can cross process
boundaries and serialize deterministically.  Symbolic zero results are
additionally confirmed at two seeded points modulo a prime, and every
proportionality cofactor passes a spot check at two such points (see
numoracle); engine failures are recorded as status "error", never swallowed.
A confirmation's note prints its residual, or `numeric<=1e-12` when it is at
or below that floor; a confirmation mod a prime that passes has residual 0.0.

The transported images of the closing equations (E_CHn under the reciprocal
change and D_x(E_Qn) under the Qiao one) are published in the report details
but not judged: the source text displays no target form for them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import diffalg, exprio, hierarchies as hier, numoracle, reduction, transform
from .diffalg import DiffAlgError, RatExpr, proportional, substitute_jet, total_derivative
from .numoracle import ZERO_TOL

CLAIM_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")

# a worst residual at or below this prints as the floor: below it the digits
# are rounding noise that depends on libm and on float operation order
_NOTE_FLOOR = 1e-12


@dataclass(frozen=True)
class CheckResult:
    label: str
    status: str  # pass | fail | error
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    n: int
    status: str
    cofactor: str | None
    terms: int
    duration: float
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    def details(self):
        out = []
        for c in self.checks:
            line = f"{c.label}: {c.status}"
            if c.note:
                line += f" ({c.note})"
            out.append(line)
        return out

    def record(self, include_millis=False):
        return {
            "claim": self.claim,
            "n": self.n,
            "status": self.status,
            "cofactor": self.cofactor,
            "terms": self.terms,
            "millis": round(self.duration * 1000.0, 3) if include_millis else None,
            "details": self.details(),
        }


class _Runner:
    """Collects check results for one cell; its checks draw their sample
    points from streams seeded by the cell's seed."""

    def __init__(self, claim, n, seed):
        self.claim = claim
        self.n = n
        self.seed = (numoracle.hash_stable(claim) * 131071 + n * 8191 + seed) & 0x3FFFFFFF
        self.checks = []
        self.cofactor = None
        self.terms = 0

    def add(self, label, ok, note=""):
        self.checks.append(CheckResult(label, "pass" if ok else "fail", note))

    def zero_check(self, label, expr, space, system=None):
        """Symbolic zero plus the confirmation mod a prime.  A non-zero
        normal form refutes only modulo a coherent system (or none); modulo
        one not shown coherent it decides nothing and records error."""
        reduced = expr if system is None else system.reduce(expr)
        self.terms += len(reduced.num.terms)
        if not reduced.is_zero():
            if system is None or system.coherent:
                self.add(label, False)
            else:
                self.checks.append(CheckResult(
                    label, "error", "not decided: non-zero normal form modulo "
                                    "a system not shown coherent"))
            return
        worst = numoracle.confirm_zero(expr, space, self.seed, system=system)
        if worst > ZERO_TOL:
            self.add(label, False, f"numeric residual {worst:.2e} above {ZERO_TOL:.0e}")
            return
        shown = f"{_NOTE_FLOOR:g}" if worst <= _NOTE_FLOOR else f"{worst:.1e}"
        self.add(label, True, f"numeric<={shown}")

    def proportional_check(self, label, lhs, rhs):
        cof = proportional(lhs, rhs)
        if cof is None:
            self.add(label, False, "not proportional")
            return None
        ok = numoracle.numeric_proportionality(lhs, rhs, cof, seed=self.seed)
        note = f"cofactor {cof.text()}"
        self.add(label, ok, note if ok else note + "; numeric spot check failed")
        self.terms += len(lhs.num.terms)
        return cof

    def uniform_cofactor(self, checks):
        """proportional_check over the middle equations' (label, lhs, rhs);
        one cofactor must serve every i, and it becomes the cell's cofactor."""
        if self.n == 1:
            self.add("vacuous", True, "no middle equations at n=1")
        cofs = []
        for label, lhs, rhs in checks:
            cof = self.proportional_check(label, lhs, rhs)
            if cof is not None:
                cofs.append(cof)
        if cofs:
            self.add("cofactor uniform across i", all(c == cofs[0] for c in cofs))
            self.cofactor = cofs[0].text()


def _rep(runner, t0):
    statuses = {c.status for c in runner.checks}
    status = next((s for s in ("error", "fail") if s in statuses), "pass")
    return VerificationReport(
        claim=runner.claim, n=runner.n, status=status, cofactor=runner.cofactor,
        terms=runner.terms, duration=time.perf_counter() - t0,
        checks=tuple(runner.checks))


def _c1(r, n):
    m = transform.build_map("R_CH", n)
    eq = hier.gen_ch(n)[0]
    img = m.transport(eq.residual)
    r.zero_check("transport(R_CH, E_CH0)", img, hier.r_space(n))


def _c2(r, n):
    m = transform.build_map("R_CH", n)
    eqs = hier.gen_ch(n)
    fam = hier.gen_cbs_family(n)
    r.uniform_cofactor((f"E_CH{i} ~ bcbs_{i}", m.transport(eqs[i].residual),
                        fam.bcbs[i - 1].residual) for i in range(1, n))
    closing = m.transport(eqs[n].residual)
    r.add("E_CHn image (reported, not judged)", True,
          f"{closing.term_count()} terms: {exprio.print_text(closing)}")


def _derivative(jet, lower_image, var):
    return lower_image.total_derivative(var)


def _eliminate(expr, images, base, what):
    """expr with every jet of base's field replaced by its image from images,
    prolonged from base where images lacks it; more substitutions than the
    step cap raise StepCapError."""
    def pick(e):
        return next(((jet, None) for jet in e.jets() if jet.field is base.field), None)

    return reduction.rewrite(expr, pick,
                             lambda _, jet: diffalg.prolong(images, base, jet, _derivative),
                             f"{what} substitution")


def _substituted_cbs(n, i, fam):
    """cbs_i with every M jet replaced by the corresponding T-derivatives of
    the X-expressions solved from the M equations (jets carrying a T0
    derivative come from msys_M0, bare M_j jets from msys_Mj).  fam is
    gen_cbs_family(n)."""
    rsp = hier.r_space(n)
    leads = [rsp.jet("M", T0=1)] + [rsp.jet("M", **{f"T{j}": 1}) for j in range(1, n)]
    images = {lead: reduction.orient(eq, lead).rhs for lead, eq in zip(leads, fam.msys)}
    return _eliminate(fam.cbs[i - 1].residual, images, leads[0], "M")


def _modulo_each_bcbs_rule(r, cbs, label, why, substituted):
    """One zero_check per i = 1..n-1 of substituted(i) modulo rule i alone of
    the BCBS system oriented from cbs, a gen_cbs_family(n): the one rule its
    reduction applies.  A single rule has no critical pairs, so each system
    is coherent, and the numeric oracle reads the lower rules' leads as free
    jets instead of cascading down them."""
    if not cbs.bcbs:
        r.add("vacuous", True, why)
        return
    system = reduction.bcbs_system(cbs)
    for i, rule in enumerate(system.rules, start=1):
        one_rule = reduction.RewriteSystem([rule], system.ranking)
        r.zero_check(label.format(i), substituted(i), system.ranking.space, system=one_rule)


def _c3(r, n):
    fam = hier.gen_cbs_family(n)
    _modulo_each_bcbs_rule(r, fam, "cbs_{} modulo bcbs", "no CBS equations at n=1",
                           lambda i: _substituted_cbs(n, i, fam))


def _c4(r, n):
    m = transform.build_map("R_Q", n)
    qeqs = {e.label: e for e in hier.gen_qiao(n)}
    fam = hier.gen_mcbs_family(n)
    rsp = hier.r_space(n)
    img0 = m.transport(qeqs["E_Q0"].residual)
    r.zero_check("transport(R_Q, E_Q0)", img0, rsp)
    r.uniform_cofactor((f"E_Q{i} ~ bmcbs_{i}", m.transport(qeqs[f"E_Q{i}"].residual),
                        fam.bmcbs[i - 1].residual) for i in range(1, n))
    closing = m.transport(qeqs[f"E_Q{n}n"].residual.total_derivative("x"))
    r.add("D_x(E_Qn) image (reported, not judged)", True,
          f"{closing.term_count()} terms: {exprio.print_text(closing)}")


def _miura_substituted_bmcbs(n, i, fam, rels):
    """bmcbs_i with x_{T(i+1)} solved from MIX2_i and every T0-carrying x
    jet replaced by the prolonged x_{T0} solved from HEIGHTS_R; more height
    substitutions than the step cap raise StepCapError.  fam is
    gen_mcbs_family(n) and rels maps labels to gen_miura_relations(n)."""
    rsp = hier.r_space(n)
    x_next = rsp.jet("x", **{f"T{i + 1}": 1})
    expr = substitute_jet(fam.bmcbs[i - 1].residual, x_next,
                          reduction.orient(rels[f"MIX2_{i}"], x_next).rhs)
    base = rsp.jet("x", T0=1)
    height = reduction.orient(rels["HEIGHTS_R"], base).rhs
    return _eliminate(expr, {base: height}, base, "height")


def _c5(r, n):
    fam = hier.gen_mcbs_family(n)
    rels = {e.label: e for e in hier.gen_miura_relations(n)}
    _modulo_each_bcbs_rule(r, hier.gen_cbs_family(n),
                           "bmcbs_{} under the Miura substitutions",
                           "no transformed middle equations at n=1",
                           lambda i: _miura_substituted_bmcbs(n, i, fam, rels))


def _c6(r, n):
    m = transform.back_mix_map(n)
    rels = {e.label: e for e in hier.gen_miura_relations(n)}
    img = m.transport(rels["HEIGHTS_R"].residual)
    cleared = RatExpr.make(img.num)
    cof = r.proportional_check("heights residual ~ P^2 - u(P - P_X)",
                               cleared, rels["HEIGHTS"].residual)
    if cof is not None:
        r.cofactor = cof.text()


def _c7(r, n):
    if n == 1:
        r.add("vacuous", True, "field relations range over i=1..n-1")
        return
    m = transform.miura_mix_map(n)
    system = reduction.standard_systems("CH", n)
    msp = hier.mr_space(n)
    rels = {e.label: e for e in hier.gen_miura_relations(n)}
    u = msp.expr("u")
    for i in range(1, n):
        # zero-integration-constant convention: v^(i) := v^(i)_xx + u*w^(i+1)
        v_closed = msp.expr("v", i, x=2) + u * msp.expr("w", i + 1)
        resid = substitute_jet(rels[f"FIELDS_{i}a"].residual,
                               msp.jet("v", i), v_closed)
        img = m.transport(resid)
        r.zero_check(f"FIELDS_{i} first form modulo CH", img,
                     hier.ch_space(n), system=system)
        second = m.transport(rels[f"FIELDS_{i}b"].residual)
        r.add(f"FIELDS_{i} second form follows identically", second.is_zero())


def _c8(r, n):
    m = transform.build_map("C_MR", n)
    chs = hier.ch_space(n)
    system = reduction.standard_systems("CH", n)
    x_X = chs.expr("P") / m.jet_image(m.source.jet("u"))
    x_T = m.jet_image(m.source.jet("w", 1)) - Fraction(1, 2) * chs.expr("Omega", 1) * x_X
    expr = total_derivative(x_X, "T") - total_derivative(x_T, "X")
    r.zero_check("d^2 x = 0 cross-derivative modulo CH", expr, chs, system=system)


def _c9(r, n):
    m = transform.build_map("C_MR", n)
    system = reduction.standard_systems("CH", n)
    chs = hier.ch_space(n)
    for eq in hier.gen_qiao(n):
        resid = eq.residual
        label = eq.label
        if label == f"E_Q{n}n":
            resid = resid.total_derivative("x")
            label = f"D_x(E_Q{n}n)"
        img = m.transport(resid)
        r.zero_check(f"{label} modulo CH", img, chs, system=system)


_CLAIM_FNS = {
    "C1": _c1, "C2": _c2, "C3": _c3, "C4": _c4, "C5": _c5,
    "C6": _c6, "C7": _c7, "C8": _c8, "C9": _c9,
}


def run_claim(claim, n, seed=0, step_cap=diffalg.DEFAULT_STEP_CAP,
              term_cap=diffalg.DEFAULT_TERM_CAP):
    """Run one claim at one hierarchy size under diffalg.limits(term_cap,
    step_cap); engine errors become status error."""
    if claim not in _CLAIM_FNS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIM_IDS}")
    hier._check_n(n)
    t0 = time.perf_counter()
    runner = _Runner(claim, n, seed)
    with diffalg.limits(term_cap=term_cap, step_cap=step_cap):
        try:
            _CLAIM_FNS[claim](runner, n)
        except DiffAlgError as exc:
            runner.checks.append(CheckResult("engine", "error", f"{type(exc).__name__}: {exc}"))
    return _rep(runner, t0)


def _cell(args):
    return run_claim(*args)


def run_all(n_max, claims=None, seed=0, jobs=1,
            step_cap=diffalg.DEFAULT_STEP_CAP, term_cap=diffalg.DEFAULT_TERM_CAP):
    """Run each selected claim once for n = 1..n_max; cells may run in parallel
    and are merged deterministically by (claim, n).  Each cell carries the caps,
    because a pool worker does not inherit the caller's diffalg.limits."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    selected = list(dict.fromkeys(claims)) if claims else list(CLAIM_IDS)
    for c in selected:
        if c not in _CLAIM_FNS:
            raise ValueError(f"unknown claim {c!r}")
    cells = [(c, n, seed, step_cap, term_cap)
             for c in selected for n in range(1, n_max + 1)]
    if jobs > 1:
        # imported here: serial runs and `import jetcalc.cli` do not pay for it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_cell, cells))
    else:
        reports = [_cell(args) for args in cells]
    reports.sort(key=lambda rep: (CLAIM_IDS.index(rep.claim), rep.n))
    return reports
