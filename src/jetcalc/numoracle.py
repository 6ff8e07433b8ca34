"""Floating-point evaluation and finite-difference cross-checks.

An independent numeric route for the symbolic engine: test functions are
analytic with closed-form derivatives of every order (exp/sin factors whose
jets come from the derivative recurrence, never from differencing), so a
sample carries the internally consistent jets of a genuine function.  For
claims that hold only modulo a rewrite system, the led jets are computed from
the (prolonged) rule right sides so the sample satisfies the oriented
equations to machine precision.

A check is lowered once and then run at every sample point.  Lowering builds
a plan for a (system, jet set, test function), which lives as long as the
check: one slot per jet, in the post-order of the on-shell dependencies (a
led jet after the jets of its right side).  A free jet's slot holds the test
function's terms for that jet; their exp and sin factors, with the powers
a**k and b**k and the phase shifts k*pi/2 already in floats, are shared by
the jets of a field.  A led jet's slot holds its rule's prolonged right side
as float programs, one (coefficient, factors) per term, where a factor is a
power x**e of an earlier slot's value.  The checked expressions become
programs the same way.  So `RewriteSystem.match`, `prolonged_rhs` and every
Fraction-to-float conversion run once per check.

The checks of one claim cell share a walk per (space, test-function seed,
sampler stream): the points the stream draws, each with a dict of the
free-jet values that the cell's checks have evaluated there.  A free jet's
value is a function of the test function, the point and the jet alone, so a
plan run at a walk point reads the free values it finds and records the ones
it computes.  A led jet's value depends on the system as well, so a run
always computes it from its rule and neither reads nor records it: checks on
different systems share a walk, and a check whose system leads a jet that an
earlier check's system left free still gets its own rule's value.  A run
evaluates the test-function factors only when some free jet is missing,
fills the slots in order, and appends every power that a program uses to a
flat table of floats; the programs read their factors from that table.
Evaluation at an explicit JetPoint runs a plan without a test function or a
system, whose free jets are read from the point's values and never written.
`SampleWalks` holds a cell's walks, one per (space, seed, stream); the
claim runner creates one per cell, and confirm_zero and
numeric_proportionality build a private one when given none.

The float operations are those of evaluating each expression directly, in
the same order, so residuals and reports do not depend on the lowering or
on the interpreter: a term is its coefficient times its factors, multiplied
left to right; a free jet adds its terms left to right from 0.0; a led jet
or checked expression takes the math.fsum of its terms, and so does its
scale over the terms' magnitudes, so that no float depends on the order in
which a polynomial stores its terms; a sine's argument is
(b*w + phi) + shift.  A led jet or an expression whose denominator is below
DEN_FLOOR relative to its term magnitudes rejects the point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, islice
from math import fsum, prod
from operator import add, itemgetter

from .diffalg import DiffAlgError, RatExpr, equivalent

ZERO_TOL = 1e-9
FD_TOL = 1e-6
DEN_FLOOR = 1e-12


class NumericError(DiffAlgError):
    pass


class MissingJetError(NumericError):
    pass


class SmallDenominatorError(NumericError):
    pass


@dataclass(frozen=True)
class JetPoint:
    values: dict


class TestFunction:
    """Per-field sums of c * exp(a*w) * sin(b*w' + phi) with rational parameters.

    Every ordered variable pair of a field's dependencies gets one term, so
    any jet supported on at most two variables is generically nonzero; jets
    with broader support evaluate to zero, which is still the consistent jet
    of this function.
    """

    __test__ = False  # not a pytest class despite the name

    def __init__(self, space, seed):
        self.space = space
        self.seed = seed
        rng = random.Random((hash_stable(space.name) * 1000003 + seed) & 0x7FFFFFFF)
        self.terms = {}
        for field in space.fields:
            deps = field.deps
            terms = []
            if len(deps) == 1:
                terms.append((self._coeff(rng), {deps[0]: self._exp(rng)}))
                terms.append((self._coeff(rng), {deps[0]: self._sin(rng)}))
            else:
                for p in deps:
                    for q in deps:
                        if p == q:
                            continue
                        terms.append((self._coeff(rng),
                                      {p: self._exp(rng), q: self._sin(rng)}))
            self.terms[field] = terms
        # the same parameters in floats: (coeff, {var: (rate, phase)}), where
        # phase is None for an exp factor
        self._float_terms = {
            field: [(float(coeff), {var: (float(f[1]), None if f[0] == "exp" else float(f[2]))
                                    for var, f in factors.items()})
                    for coeff, factors in terms]
            for field, terms in self.terms.items()}

    @staticmethod
    def _coeff(rng):
        c = Fraction(rng.randrange(500, 1500), 1000)
        return c if rng.random() < 0.5 else -c

    @staticmethod
    def _exp(rng):
        a = Fraction(rng.randrange(300, 900), 1000)
        return ("exp", a if rng.random() < 0.5 else -a)

    @staticmethod
    def _sin(rng):
        b = Fraction(rng.randrange(600, 1400), 1000)
        phi = Fraction(rng.randrange(0, 6283), 1000)
        return ("sin", b, phi)

    def _jet_terms(self, jet):
        """jet's nonvanishing terms in floats, as (coeff, factors) with one
        (var, rate, rate**k, phase, k*pi/2) factor per variable the term
        depends on; phase and shift are None for an exp factor."""
        out = []
        for coeff, factors in self._float_terms[jet.field]:
            compiled = []
            for var, order in zip(jet.field.deps, jet.orders):
                f = factors.get(var)
                if f is None:
                    if order:
                        break
                    continue
                rate, phase = f
                compiled.append((var, rate, rate ** order, phase,
                                 None if phase is None else order * math.pi / 2))
            else:
                out.append((coeff, tuple(compiled)))
        return out

    def sample_coords(self, rng):
        return {v: rng.uniform(-1.0, 1.0) for v in self.space.vars}


def hash_stable(text):
    """Deterministic small hash (Python's str hash is salted per process)."""
    h = 0
    for ch in text:
        h = (h * 131 + ord(ch)) & 0x7FFFFFFF
    return h


def _lower(poly, slot):
    """poly as (coefficient, ((slot, exponent), ...)) per term."""
    return [(float(coeff), tuple((slot[jet], exp) for jet, exp in mono.factors))
            for mono, coeff in poly.terms.items()]


def _gather(indices):
    """A getter of the table entries at indices, as a sequence (itemgetter
    of a single index would return the bare entry)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0, 0))


def _terms(program, table):
    """Each term's coefficient times its factors, multiplied left to right."""
    return [prod(factors(table), start=coeff) for coeff, factors in program]


def _scale(terms):
    """Summed term magnitude, exactly rounded whatever the term order."""
    return fsum(map(abs, terms))


def _quotient(num, den, table):
    """(numerator, numerator terms, denominator) of compiled programs;
    denominators below the floor are rejected."""
    terms = _terms(den, table)
    d = fsum(terms)
    if abs(d) <= DEN_FLOOR * max(1.0, _scale(terms)):
        raise SmallDenominatorError(f"denominator {d!r} too small")
    terms = _terms(num, table)
    return fsum(terms), terms, d


class _Plan:
    """Expressions lowered once for a test function (see the module docstring).

    Slot i holds one jet, filled by steps[i]: (terms, None) for a free jet,
    whose terms read the test-function factors listed in `factors`, or the
    (num, den) programs of the rule that leads the jet.  After filling a
    slot, a run appends the powers of its value listed in powers[i] to a
    table, and programs read their factors from that table.  programs[k]
    is exprs[k]'s numerator and denominator.  Without a test function a
    free jet's step is (None, None): its value must be known.
    """

    __slots__ = ("slot", "steps", "factors", "powers", "programs")

    def __init__(self, tf, system, exprs):
        slot = self.slot = {}
        rhs = []  # per slot: None for a free jet, or its rule's lowered (num, den)

        def visit(jet):
            rule = None if system is None else system.match(jet)
            lowered = None
            if rule is not None:
                e = system.prolonged_rhs(rule, jet)
                for dep in e.jets():
                    if dep not in slot:
                        visit(dep)
                lowered = (_lower(e.num, slot), _lower(e.den, slot))
            slot[jet] = len(rhs)
            rhs.append(lowered)

        for jet in chain.from_iterable(e.jets() for e in exprs):
            if jet not in slot:
                visit(jet)
        programs = [(_lower(e.num, slot), _lower(e.den, slot)) for e in exprs]

        used = [set() for _ in rhs]
        for pair in chain(programs, filter(None, rhs)):
            for program in pair:
                for _, factors in program:
                    for s, exp in factors:
                        used[s].add(exp)
        self.powers = [sorted(exps) for exps in used]
        index = {}
        for s, exps in enumerate(self.powers):
            for exp in exps:
                index[s, exp] = len(index)

        def compiled(program):
            return [(coeff, _gather([index[f] for f in factors]))
                    for coeff, factors in program]

        self.programs = [(compiled(num), compiled(den)) for num, den in programs]
        # the jets of one field share their test-function factors
        factor = {}
        self.steps = []
        for jet, lowered in zip(slot, rhs):
            if lowered is not None:
                self.steps.append((compiled(lowered[0]), compiled(lowered[1])))
            elif tf is None:
                self.steps.append((None, None))
            else:
                self.steps.append(([(coeff, _gather([factor.setdefault(f, len(factor))
                                                     for f in fs]))
                                    for coeff, fs in tf._jet_terms(jet)], None))
        self.factors = list(factor)

    def run(self, coords, known):
        """The table of powers of the slot values at coords.  known maps
        free jets already evaluated at coords to their values; the run
        reads those and records the free values it computes.  A led slot
        is always computed from its rule and never touches known."""
        factors = None
        table = []
        for jet, (a, b), exps in zip(self.slot, self.steps, self.powers):
            if b is None:
                x = known.get(jet)
                if x is None:
                    if a is None:
                        raise MissingJetError(f"no value for jet {jet.text()}")
                    if factors is None:
                        factors = [power * math.exp(rate * coords[var]) if phase is None
                                   else power * math.sin(rate * coords[var] + phase + shift)
                                   for var, rate, power, phase, shift in self.factors]
                    x = known[jet] = reduce(add, _terms(a, factors), 0.0)
            else:
                n, _, d = _quotient(a, b, table)
                x = n / d
            for exp in exps:
                table.append(x ** exp)
        return table


class _Sample:
    """A plan at one sample's coordinates and known free-jet values.  The plan
    runs on first use, inside eval_expr or relative_residual, so a point
    rejected for a led jet's denominator leaves through those public names
    like one rejected for the checked expression's own."""

    __slots__ = ("plan", "coords", "known", "_table")

    def __init__(self, plan, coords, known):
        self.plan = plan
        self.coords = coords
        self.known = known
        self._table = None

    def table(self):
        if self._table is None:
            self._table = self.plan.run(self.coords, self.known)
        return self._table


class _Walk:
    """The points of one seeded sampler stream of a test function, drawn on
    demand; each is (coords, {free jet: value})."""

    __slots__ = ("tf", "rng", "points")

    def __init__(self, tf, stream):
        self.tf = tf
        self.rng = random.Random(stream)
        self.points = []

    def point(self, j):
        if j == len(self.points):
            self.points.append((self.tf.sample_coords(self.rng), {}))
        return self.points[j]


class SampleWalks:
    """The sample walks of one claim cell: one per (space, test-function
    seed, sampler stream), each over its own TestFunction(space, seed),
    whose values depend on (space, seed) alone.  Checks given the same
    SampleWalks share the free-jet values at the points of their walk,
    whatever their systems; drop it when the cell ends."""

    __slots__ = ("walks",)

    def __init__(self):
        self.walks = {}

    def walk(self, space, seed, stream):
        key = (space, seed, stream)
        walk = self.walks.get(key)
        if walk is None:
            walk = self.walks[key] = _Walk(TestFunction(space, seed), stream)
        return walk


def _evaluate(e, point):
    """(numerator, numerator terms, denominator) of e at a JetPoint, or of
    one of a plan's programs at a _Sample of that plan; denominators below
    the floor are rejected."""
    if not isinstance(point, _Sample):
        point = _Sample(_Plan(None, None, (RatExpr._coerce(e),)), None, point.values)
        e = point.plan.programs[0]
    num, den = e
    return _quotient(num, den, point.table())


def eval_expr(e, point):
    """Evaluate at a JetPoint; denominators below the floor are rejected."""
    num, _, den = _evaluate(e, point)
    return num / den


def relative_residual(e, point):
    """|num| relative to the summed magnitude of the numerator's terms."""
    num, terms, _ = _evaluate(e, point)
    return abs(num) / max(_scale(terms), 1e-300)


def _samples(walk, attempts, evaluate):
    """Yield evaluate(coords, known) at the walk's successive points,
    skipping the points where a denominator is too small; NumericError after
    `attempts` points."""
    for j in range(attempts):
        coords, known = walk.point(j)
        try:
            value = evaluate(coords, known)
        except SmallDenominatorError:
            continue
        yield value
    raise NumericError("could not find enough well-conditioned sample points")


def consistent_point(system, jets, tf, coords):
    """JetPoint whose led jets are computed from the system's rule right sides.

    Free jets take the test function's values; a jet matching a (prolonged)
    rule is evaluated from the rule instead, after the jets of its right
    side -- the ranking guarantees this bottoms out on free jets.  The
    point holds every jet the evaluation reached, read from one program per
    jet, since a run records only the free ones.
    """
    slots = _Plan(tf, system, [RatExpr.from_jet(j) for j in jets]).slot
    plan = _Plan(tf, system, [RatExpr.from_jet(j) for j in slots])
    sample = _Sample(plan, coords, {})
    return JetPoint({jet: eval_expr(program, sample)
                     for jet, program in zip(slots, plan.programs)})


def confirm_zero(e, space, seed, points=100, system=None, walks=None):
    """Max relative residual of e over seeded sample points (on-shell when a
    system is given); callers compare the result against ZERO_TOL.  Checks
    given the same SampleWalks share their points' free-jet values."""
    e = RatExpr._coerce(e)
    if e.is_zero():
        return 0.0
    walk = (SampleWalks() if walks is None else walks).walk(space, seed, seed * 7919 + 13)
    plan = _Plan(walk.tf, system, (e,))
    lowered = plan.programs[0]

    def residual(coords, known):
        return relative_residual(lowered, _Sample(plan, coords, known))

    worst = 0.0
    samples = _samples(walk, 40 * points, residual)
    for rel in islice(samples, points):
        worst = max(worst, rel)
    return worst


def fd_check(e, var, tf, sample=0):
    """Relative error of the symbolic total derivative against Richardson-
    extrapolated central differences (steps 1e-3 and 5e-4) along var."""
    e = RatExpr._coerce(e)
    de = e.total_derivative(var)
    plan = _Plan(tf, None, (e, de))
    le, lde = plan.programs
    h = 1e-3

    def error(coords, known):
        sym = eval_expr(lde, _Sample(plan, coords, known))

        def at(offset):
            shifted = dict(coords)
            shifted[var] = coords[var] + offset
            return eval_expr(le, _Sample(plan, shifted, {}))

        d_h = (at(h) - at(-h)) / (2 * h)
        d_h2 = (at(h / 2) - at(-h / 2)) / h
        fd = (4 * d_h2 - d_h) / 3
        return abs(sym - fd) / max(1.0, abs(sym), abs(fd))

    return next(_samples(_Walk(tf, tf.seed * 92821 + sample), 1000, error))


def sample_value(e, space, seed):
    """(coords, value) of e at the first well-conditioned sample point of
    seed's evaluation stream, as `jetcalc eval` reports it."""
    e = RatExpr._coerce(e)
    walk = _Walk(TestFunction(space, seed), seed * 65537 + 1)
    plan = _Plan(walk.tf, None, (e,))
    lowered = plan.programs[0]
    return next(_samples(walk, 1000, lambda coords, known: (
        coords, eval_expr(lowered, _Sample(plan, coords, known)))))


def numeric_proportionality(a, b, cofactor, trials=100, seed=0, walks=None):
    """True iff a evaluates to cofactor*b within ZERO_TOL at all sampled points.
    Checks given the same SampleWalks share their points' free-jet values."""
    a = RatExpr._coerce(a)
    b = RatExpr._coerce(b)
    cof = cofactor.as_ratexpr()
    space = a.space() or b.space() or cof.space()
    if space is None:
        return equivalent(a, cof.mul(b))
    walk = (SampleWalks() if walks is None else walks).walk(space, seed, seed * 31337 + 7)
    plan = _Plan(walk.tf, None, (a, cof, b))
    la, lcof, lb = plan.programs

    def values(coords, known):
        p = _Sample(plan, coords, known)
        return eval_expr(la, p), eval_expr(lcof, p) * eval_expr(lb, p)

    samples = _samples(walk, 40 * trials, values)
    return not any(abs(va - vb) > ZERO_TOL * max(1.0, abs(va), abs(vb))
                   for va, vb in islice(samples, trials))
