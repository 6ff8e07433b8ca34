"""Oriented rewrite systems and reduction to normal form.

An equation whose residual is linear in a chosen leading jet is oriented into
a rule lead -> rhs; reduction replaces every jet that dominates a rule's lead
by the rhs prolonged to that jet (total derivatives of both sides), until no
jet in the expression matches.  Prolongation goes through diffalg.prolong
with one memo per rule lead.  The jet ranking is
lexicographic on (evolution-variable derivative orders, remaining total
order, field priority, multi-index).  A RewriteSystem checks each rule, and
each prolongation of it, against its own ranking, so every rewrite strictly
lowers the ranked jets present, which gives termination; orient only solves.

A system is coherent (`RewriteSystem.coherent`) when no jet dominates the
leads of two of its rules: a single rule, or leads on distinct fields, as in
the CH system.  Such a system has no critical pairs, so its normal forms do
not depend on the order of the rewrites, and a non-zero normal form refutes
a zero.  The claims reduce only modulo coherent systems: the CH system, and
one BCBS rule per check.  The full BCBS system at n >= 3 has two or more X
leads; at n=3 the normal form of X_{T0,T2,T3} depends on which of its two
matching rules is applied first, so that system is not coherent.  The
default strategy is deterministic (highest-ranked matching jet first), and
shuffle mode reruns with a randomized pick to surface any order dependence.

All substitution runs in `rewrite`, which holds the denominator aside: while
the picked jets stay out of it and their images are polynomials, as the CH
images are, each step substitutes into the numerator alone, and the quotient
is normalized, with one trial division, only when it must be.  The
step-by-step loop it replaced normalized and trial-divided after every step.
The deterministic strategy makes the same picks and reaches the same normal
form as that loop.  Unless a factor of the held denominator cancels midway,
both strategies also see the jets in the same order and give the terms of
the result in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import hierarchies as hier
from .diffalg import (DiffAlgError, DiffPoly, JetVar, RatExpr, TermCapError, _by_exponent,
                      _limits, prolong, settle, substitute_jet)


class ReductionError(DiffAlgError):
    """Base class for orientation/reduction failures."""


class LeadAbsentError(ReductionError):
    pass


class NonlinearLeadError(ReductionError):
    pass


class RankingViolationError(ReductionError):
    """A rule's right side contains a jet ranked at or above its lead."""


class StepCapError(ReductionError):
    """A rewrite loop exceeded its step cap; reported as non-termination.

    It is built from the last substituted jets; .trace holds their text."""

    def __init__(self, message, trace):
        self.trace = tuple(jet.text() for jet in trace)
        super().__init__(message + "; last rewrites: " + ", ".join(self.trace))


def rewrite(e, pick, image, what):
    """Substitute jets into e until pick(e), which gives (jet, how) or None,
    finds none; each jet is replaced by image(how, jet).  The step cap of the
    enclosing diffalg.limits block is checked before the image is built: more
    than step_cap substitutions raise StepCapError "{what} exceeded {step_cap}
    steps".

    The denominator is held aside while it can be.  As long as each picked
    jet is absent from e.den and its image has a constant denominator, each
    step substitutes into the numerator polynomial alone, and pick sees the
    unsettled quotient RatExpr(num, e.den).  The quotient is settled
    (diffalg.settle: one trial division and one RatExpr.make) at the end,
    before a step with a rational image, when a held step leaves zero, and
    when pick picks a jet of the held denominator; if that settle cancelled
    a factor, pick picks again from the settled expression.  A held step
    that meets the term cap is settled and redone on the whole expression,
    because the step-by-step loop may have divided the denominator out
    earlier; otherwise every step is one substitute_jet call."""
    step_cap = _limits.get()[1]
    trace = []
    num = den_jets = None   # while held: the substituted numerator over e.den

    def settled():
        return e if num is e.num else settle(num, e.den)

    while True:
        picked = pick(e if num is None else RatExpr(num, e.den))
        if num is not None and (picked is None or picked[0] in den_jets):
            held_den, e, num = e.den, settled(), None
            if picked is not None and e.den.terms.keys() != held_den.terms.keys():
                picked = pick(e)
        if picked is None:
            return e
        jet, how = picked
        if len(trace) == step_cap:
            raise StepCapError(f"{what} exceeded {step_cap} steps", trace[-12:])
        rhs = image(how, jet)
        polynomial = rhs.den.is_const()
        if num is None and polynomial:
            den_jets = set(e.den.jets())
            if jet not in den_jets:
                num = e.num
        elif num is not None and not polynomial:
            e, num = settled(), None
        if num is None:
            e = substitute_jet(e, jet, rhs)
        else:
            try:
                num = substitute_jet(num, jet, rhs)
            except TermCapError:
                e, num = settled(), None
                e = substitute_jet(e, jet, rhs)
            if num is not None and not num.terms:
                # a zero has no jets: pick must not see e.den's
                e, num = settled(), None
        trace.append(jet)


class JetRanking:
    """Ranking key: (evolution orders, remaining total order, field priority,
    multi-index).  The evolution variables are the space's declaration (T on
    CH, t on Q, T_n..T_1 on the reciprocal plane)."""

    def __init__(self, space):
        self.space = space
        self.evolution = space.evolution_vars

    def key(self, jet):
        evo = tuple(jet.order_of(v) for v in self.evolution)
        rest = jet.total - sum(evo)
        return (evo, rest, -jet.field.prio, jet.orders)

    def higher(self, a, b):
        return self.key(a) > self.key(b)


@dataclass(frozen=True)
class RewriteRule:
    lead: JetVar
    rhs: RatExpr
    origin: str


def orient(eq, lead):
    """Solve eq's residual for a linearly occurring jet, yielding a rule.

    The right side may rank at or above the lead: a RewriteSystem checks its
    rules against its own ranking."""
    residual = eq.residual if isinstance(eq, hier.Equation) else RatExpr._coerce(eq)
    origin = eq.label if isinstance(eq, hier.Equation) else "<expr>"
    for jet in residual.den.jets():
        if jet is lead:
            raise NonlinearLeadError(
                f"{lead.text()} occurs in the denominator of {origin}")
    parts = dict(_by_exponent(residual.num, lead))
    k = max(parts, default=0)
    if k > 1:
        raise NonlinearLeadError(f"{lead.text()} occurs with exponent {k} in {origin}")
    if 1 not in parts:
        raise LeadAbsentError(f"{lead.text()} is absent from {origin}")
    rest = parts.get(0, DiffPoly({}))
    # the residual's denominator scales the lead coefficient and the remainder
    # identically, so the solved form is simply -rest/coeff
    return RewriteRule(lead, RatExpr.make(rest.neg(), parts[1]), origin)


class RewriteSystem:
    """Oriented rules and their ranking, with on-demand prolongation."""

    def __init__(self, rules, ranking):
        self.rules = tuple(rules)
        self.ranking = ranking
        # one memo per rule lead: {jet: rhs prolonged to jet}
        self._prolonged = {}
        for rule in self.rules:
            for jet in rule.rhs.jets():
                if ranking.key(jet) >= ranking.key(rule.lead):
                    raise RankingViolationError(
                        f"rule {rule.origin}: {jet.text()} >= lead {rule.lead.text()}")
            self._prolonged.setdefault(rule.lead, {rule.lead: rule.rhs})

    @cached_property
    def coherent(self):
        """True for one rule or leads on distinct fields: then no jet
        dominates two leads, and there are no critical pairs.  False means
        not shown coherent."""
        fields = [rule.lead.field for rule in self.rules]
        return len(set(fields)) == len(fields)

    def match_all(self, jet):
        return [rule for rule in self.rules if jet.dominates(rule.lead)]

    def match(self, jet):
        """The rule whose (prolongable) lead matches jet; highest lead wins."""
        best = None
        for rule in self.rules:
            if jet.dominates(rule.lead):
                if best is None or self.ranking.higher(rule.lead, best.lead):
                    best = rule
        return best

    def prolonged_rhs(self, rule, jet):
        """rhs of the rule prolonged so that its lead equals jet."""
        return prolong(self._prolonged[rule.lead], rule.lead, jet, self._derived_rhs)

    def _derived_rhs(self, jet, lower_rhs, var):
        """The prolonged rhs for jet; it must stay below jet in the ranking."""
        rhs = lower_rhs.total_derivative(var)
        key = self.ranking.key(jet)
        for j in rhs.jets():
            if self.ranking.key(j) >= key:
                raise RankingViolationError(
                    f"prolonged rule for {jet.text()} contains {j.text()}")
        return rhs

    def reduce(self, e, rng=None):
        """Rewrite to normal form: no jet of the result matches any rule.

        Deterministic strategy: replace all occurrences of the highest-ranked
        matching jet, repeat.  With rng given (shuffle mode), the jet and the
        rule applied to it are chosen at random instead.  More rewrites than
        the step cap of diffalg.limits raise StepCapError.
        """
        if rng is None:
            def pick(e):
                matches = [(j, r) for j in e.jets() if (r := self.match(j)) is not None]
                return max(matches, key=lambda m: self.ranking.key(m[0]), default=None)
        else:
            def pick(e):
                matches = [(j, r) for j in e.jets() for r in self.match_all(j)]
                return matches[rng.randrange(len(matches))] if matches else None
        return rewrite(RatExpr._coerce(e), pick, self.prolonged_rhs, "reduction")


def reduce(sys, e, rng=None):
    return sys.reduce(e, rng=rng)


def ch_system(n):
    """Rules P_T -> ..., Omega^(i)_XXX -> ..., Omega^(n)_XX -> ... ."""
    eqs = hier.gen_ch(n)
    space = hier.ch_space(n)
    rules = [orient(eqs[0], space.jet("P", T=1))]
    for i in range(1, n):
        rules.append(orient(eqs[i], space.jet("Omega", i, X=3)))
    rules.append(orient(eqs[n], space.jet("Omega", n, X=2)))
    return RewriteSystem(rules, JetRanking(space))


def bcbs_system(fam):
    """Rules X_{T0,T(i+1)} solved from the transformed CH equations of fam,
    a gen_cbs_family(n)."""
    if not fam.bcbs:
        raise ValueError("the transformed system needs n >= 2")
    space = hier.r_space(fam.bcbs[0].n)
    rules = []
    for i, eq in enumerate(fam.bcbs, start=1):
        lead = space.jet("X", T0=1, **{f"T{i + 1}": 1})
        rules.append(orient(eq, lead))
    return RewriteSystem(rules, JetRanking(space))


def standard_systems(which, n):
    """The two named systems the verification procedures reduce against."""
    which = which.upper()
    if which == "CH":
        return ch_system(n)
    if which == "BCBS":
        return bcbs_system(hier.gen_cbs_family(n))
    raise ValueError(f"unknown standard system {which!r}")
