"""Confirmation of symbolic verdicts at sample points, and float evaluation.

Zero and cofactor checks are confirmed exactly, modulo PRIME = 2**61 - 1.  A
check is lowered once into a plan: one slot per jet, the free jets first,
then the led jets in on-shell post-order (each after the jets of its rule's
prolonged right side), with each coefficient c/d mapped to c * d**-1 mod
PRIME.  A point draws each free jet from 1..PRIME-1, in slot order, from the
check's seeded stream, and computes each led jet from its rule; a
denominator that vanishes mod PRIME rejects the point (SmallDenominatorError,
which leaves a zero check through relative_residual).

What a point proves: on-shell, a checked expression is a rational function
of the free jets.  A nonzero numerator of degree at most d vanishes at a
uniformly drawn point with probability at most d/PRIME (Schwartz 1980;
Zippel 1979), so a check that vanishes at k accepted points is wrong with
probability at most about (d/PRIME)**k, however small the error is in
floats.  A cofactor check asks a*den(cof)*den(b) == cof*b*den(a).

What stays float: sample_value (`jetcalc eval` prints a real value) and
consistent_point (real on-shell jets) have no meaning mod a prime.  They
evaluate directly, through eval_expr, over the jets of a TestFunction, a
closed-form analytic function whose jets come from the derivative
recurrence: a term is its coefficient times its factors, multiplied left to
right, and a polynomial the math.fsum of its terms, so no float depends on
the order in which it stores them.  A denominator at or
below DEN_FLOOR relative to its terms rejects the point.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from itertools import chain
from math import fsum

from .diffalg import DiffAlgError, RatExpr

ZERO_TOL = 1e-9
DEN_FLOOR = 1e-12
PRIME = 2**61 - 1


class NumericError(DiffAlgError):
    pass


class SmallDenominatorError(NumericError):
    pass


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

    def jet_value(self, jet, coords):
        """The float value of jet at coords: the terms added left to right
        from 0.0, each its coefficient times its factors' values."""
        total = 0.0
        for coeff, factors in self.terms[jet.field]:
            term = float(coeff)
            for var, order in zip(jet.field.deps, jet.orders):
                f = factors.get(var)
                if f is None:
                    if order:
                        break
                    continue
                w = coords[var]
                if f[0] == "exp":
                    a = float(f[1])
                    term *= (a ** order) * math.exp(a * w)
                else:
                    b, phi = float(f[1]), float(f[2])
                    term *= (b ** order) * math.sin(b * w + phi + order * math.pi / 2)
            else:
                total += term
        return total

    def sample_coords(self, rng):
        return {v: rng.uniform(-1.0, 1.0) for v in self.space.vars}


def hash_stable(text):
    """Deterministic small hash (Python's str hash is salted per process)."""
    h = 0
    for ch in text:
        h = (h * 131 + ord(ch)) & 0x7FFFFFFF
    return h


def _float_sum(poly, value):
    """(fsum of poly's terms, fsum of their magnitudes) under value(jet)."""
    terms = []
    for mono, coeff in poly.terms.items():
        v = float(coeff)
        for jet, exp in mono.factors:
            v *= value(jet) ** exp
        terms.append(v)
    return fsum(terms), fsum(map(abs, terms))


def eval_expr(e, value):
    """The float value of e where each jet takes value(jet); a denominator at
    or below DEN_FLOOR relative to its terms raises SmallDenominatorError."""
    num, _ = _float_sum(e.num, value)
    den, scale = _float_sum(e.den, value)
    if abs(den) <= DEN_FLOOR * max(1.0, scale):
        raise SmallDenominatorError(f"denominator {den!r} too small")
    return num / den


def consistent_point(system, jets, tf, coords):
    """{jet: value} at coords, with led jets computed from the system's rule
    right sides.

    Free jets take the test function's values; a jet matching a (prolonged)
    rule is evaluated from the rule instead, after the jets of its right
    side.  The result holds every jet the evaluation reached.  No check
    calls it; it stays while perfbench's tracer names it.
    """
    memo = {}

    def value(jet):
        v = memo.get(jet)
        if v is None:
            rule = None if system is None else system.match(jet)
            v = memo[jet] = (tf.jet_value(jet, coords) if rule is None
                             else eval_expr(system.prolonged_rhs(rule, jet), value))
        return v

    for jet in jets:
        value(jet)
    return memo


def _accepted(draw, evaluate, wanted, attempts):
    """Yield evaluate(draw()) at successive points, skipping those where a
    denominator is too small, until `wanted` are accepted; NumericError
    after `attempts` points."""
    got = 0
    for _ in range(attempts):
        try:
            value = evaluate(draw())
        except SmallDenominatorError:
            continue
        yield value
        got += 1
        if got == wanted:
            return
    raise NumericError("could not find enough well-conditioned sample points")


def sample_value(e, space, seed):
    """(coords, value) of e at the first well-conditioned sample point of
    seed's evaluation stream, as `jetcalc eval` reports it."""
    e, tf = RatExpr._coerce(e), TestFunction(space, seed)
    return next(_accepted(partial(tf.sample_coords, random.Random(seed * 65537 + 1)),
                          lambda c: (c, eval_expr(e, partial(tf.jet_value, coords=c))),
                          1, 1000))


def _lower(poly, slot):
    """poly as (coefficient mod PRIME, ((slot, exponent), ...)) per term."""
    return [(coeff.numerator * pow(coeff.denominator, -1, PRIME) % PRIME,
             tuple((slot[jet], exp) for jet, exp in mono.factors))
            for mono, coeff in poly.terms.items()]


def _at(program, x):
    """The value mod PRIME of a lowered polynomial at slot values x."""
    total = 0
    for coeff, factors in program:
        for s, exp in factors:
            coeff = coeff * pow(x[s], exp, PRIME) % PRIME
        total += coeff
    return total % PRIME


class _Plan:
    """Expressions lowered once (see the module docstring): `free` free jets
    in the first slots, then the led jets as the (num, den) programs of their
    rules in `led`; programs[k] is exprs[k]'s numerator and denominator."""

    __slots__ = ("free", "led", "programs")

    def __init__(self, system, exprs):
        free, led, seen = [], {}, set()  # led: jet -> its rule's prolonged rhs

        def visit(jet):
            seen.add(jet)
            rule = None if system is None else system.match(jet)
            if rule is None:
                free.append(jet)
                return
            e = system.prolonged_rhs(rule, jet)
            for dep in e.jets():
                if dep not in seen:
                    visit(dep)
            led[jet] = e  # after the jets of its right side

        for jet in chain.from_iterable(e.jets() for e in exprs):
            if jet not in seen:
                visit(jet)
        slot = {jet: s for s, jet in enumerate(chain(free, led))}
        self.free = len(free)
        self.led = [(_lower(e.num, slot), _lower(e.den, slot)) for e in led.values()]
        self.programs = [(_lower(e.num, slot), _lower(e.den, slot)) for e in exprs]

    def draw(self, rng):
        return [rng.randrange(1, PRIME) for _ in range(self.free)]

    def run(self, free):
        """Each program's value mod PRIME at the point whose free jets take
        the values free, the led jets computed from their rules;
        SmallDenominatorError where a denominator vanishes."""
        x = list(free)
        for num, den in chain(self.led, self.programs):
            d = _at(den, x)
            if not d:
                raise SmallDenominatorError("a denominator vanishes mod PRIME")
            x.append(_at(num, x) * pow(d, -1, PRIME) % PRIME)
        return x[len(x) - len(self.programs):]


def relative_residual(k, plan, free):
    """0.0 where the plan's program k vanishes at a point mod PRIME, else
    1.0; SmallDenominatorError where a denominator vanishes there."""
    return 1.0 if plan.run(free)[k] else 0.0


def confirm_zero(e, seed, points=2, system=None):
    """0.0 if e (on-shell when a system is given) vanishes mod PRIME at
    `points` points drawn from seed, else 1.0."""
    e = RatExpr._coerce(e)
    if e.is_zero():
        return 0.0
    plan = _Plan(system, (e,))
    residuals = _accepted(partial(plan.draw, random.Random(seed * 7919 + 13)),
                          partial(relative_residual, 0, plan), points, 40 * points)
    return 1.0 if any(residuals) else 0.0


def numeric_proportionality(a, b, cofactor, trials=2, seed=0):
    """True iff a equals cofactor*b mod PRIME at `trials` seeded points."""
    plan = _Plan(None, (RatExpr._coerce(a), cofactor.as_ratexpr(), RatExpr._coerce(b)))

    def holds(free):
        va, vc, vb = plan.run(free)
        return va == vc * vb % PRIME

    return all(_accepted(partial(plan.draw, random.Random(seed * 31337 + 7)),
                         holds, trials, 40 * trials))
