"""Floating-point evaluation and finite-difference cross-checks.

An independent numeric route for the symbolic engine: test functions are
analytic with closed-form derivatives of every order (exp/sin factors whose
jets come from the derivative recurrence, never from differencing), so a
JetPoint carries the internally consistent jets of a genuine function.  For
claims that hold only modulo a rewrite system, consistent_point computes the
led jets from the (prolonged) rule right sides so the sample satisfies the
oriented equations to machine precision.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .diffalg import DiffAlgError, RatExpr

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
    provenance: str

    def value(self, jet):
        try:
            return self.values[jet]
        except KeyError:
            raise MissingJetError(f"no value for jet {jet.text()}"
                                  f" ({self.provenance})") from None


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
        total = 0.0
        for coeff, factors in self.terms[jet.field]:
            term = float(coeff)
            dead = False
            for var, order in zip(jet.field.deps, jet.orders):
                f = factors.get(var)
                if f is None:
                    if order:
                        dead = True
                        break
                    continue
                w = coords[var]
                if f[0] == "exp":
                    a = float(f[1])
                    term *= (a ** order) * math.exp(a * w)
                else:
                    b, phi = float(f[1]), float(f[2])
                    term *= (b ** order) * math.sin(b * w + phi + order * math.pi / 2)
            if not dead:
                total += term
        return total

    def sample_coords(self, rng):
        return {v: rng.uniform(-1.0, 1.0) for v in self.space.vars}

    def point(self, jets, coords):
        values = {j: self.jet_value(j, coords) for j in jets}
        return JetPoint(values, f"TestFunction({self.space.name}, seed={self.seed})")


def hash_stable(text):
    """Deterministic small hash (Python's str hash is salted per process)."""
    h = 0
    for ch in text:
        h = (h * 131 + ord(ch)) & 0x7FFFFFFF
    return h


def _eval_poly(poly, getter):
    total = []
    scale = 0.0
    for mono, coeff in poly.terms.items():
        v = float(coeff)
        for jet, exp in mono.factors:
            v *= getter(jet) ** exp
        total.append(v)
        scale += abs(v)
    return math.fsum(total), scale


def _evaluate(e, point):
    """(numerator, summed numerator term magnitude, denominator) at a JetPoint
    or jet getter; denominators below the floor are rejected."""
    e = RatExpr._coerce(e)
    getter = point.value if isinstance(point, JetPoint) else point
    num, scale = _eval_poly(e.num, getter)
    den, dscale = _eval_poly(e.den, getter)
    if abs(den) <= DEN_FLOOR * max(1.0, dscale):
        raise SmallDenominatorError(f"denominator {den!r} too small")
    return num, scale, den


def eval_expr(e, point):
    """Evaluate at a JetPoint; denominators below the floor are rejected."""
    num, _, den = _evaluate(e, point)
    return num / den


def relative_residual(e, point):
    """|num| relative to the summed magnitude of the numerator's terms."""
    num, scale, _ = _evaluate(e, point)
    return abs(num) / max(scale, 1e-300)


def _samples(tf, rng, attempts, evaluate):
    """Yield evaluate(coords) at successive sample points of tf, skipping the
    points where a denominator is too small; NumericError after `attempts`
    draws."""
    for _ in range(attempts):
        coords = tf.sample_coords(rng)
        try:
            value = evaluate(coords)
        except SmallDenominatorError:
            continue
        yield value
    raise NumericError("could not find enough well-conditioned sample points")


def consistent_point(system, jets, tf, coords):
    """JetPoint whose led jets are computed from the system's rule right sides.

    Free jets take the test function's values; a jet matching a (prolonged)
    rule is evaluated from the rule instead, recursively -- the ranking
    guarantees the recursion bottoms out on free jets.
    """
    memo = {}

    def value(jet):
        v = memo.get(jet)
        if v is not None:
            return v
        rule = system.match(jet)
        if rule is None:
            v = tf.jet_value(jet, coords)
        else:
            v = eval_expr(system.prolonged_rhs(rule, jet), value)
        memo[jet] = v
        return v

    for j in jets:
        value(j)
    return JetPoint(dict(memo), f"consistent({tf.space.name}, seed={tf.seed})")


def confirm_zero(e, space, seed, points=100, system=None):
    """Max relative residual of e over seeded sample points (on-shell when a
    system is given); callers compare the result against ZERO_TOL."""
    e = RatExpr._coerce(e)
    if e.is_zero():
        return 0.0
    tf = TestFunction(space, seed)
    jets = list(e.jets())

    def residual(coords):
        p = consistent_point(system, jets, tf, coords) if system is not None \
            else tf.point(jets, coords)
        return relative_residual(e, p)

    worst = 0.0
    samples = _samples(tf, random.Random(seed * 7919 + 13), 40 * points, residual)
    for rel in islice(samples, points):
        worst = max(worst, rel)
    return worst


def fd_check(e, var, tf, sample=0):
    """Relative error of the symbolic total derivative against Richardson-
    extrapolated central differences (steps 1e-3 and 5e-4) along var."""
    e = RatExpr._coerce(e)
    de = e.total_derivative(var)
    jets = set(e.jets()) | set(de.jets())
    h = 1e-3

    def error(coords):
        sym = eval_expr(de, tf.point(jets, coords))

        def at(offset):
            shifted = dict(coords)
            shifted[var] = coords[var] + offset
            return eval_expr(e, tf.point(jets, shifted))

        d_h = (at(h) - at(-h)) / (2 * h)
        d_h2 = (at(h / 2) - at(-h / 2)) / h
        fd = (4 * d_h2 - d_h) / 3
        return abs(sym - fd) / max(1.0, abs(sym), abs(fd))

    return next(_samples(tf, random.Random(tf.seed * 92821 + sample), 1000, error))


def numeric_proportionality(a, b, cofactor, trials=100, seed=0, tol=ZERO_TOL):
    """True iff a evaluates to cofactor*b within tol at all sampled points."""
    a = RatExpr._coerce(a)
    b = RatExpr._coerce(b)
    space = a.space() or b.space()
    tf = TestFunction(space, seed)
    cof = cofactor.as_ratexpr()
    jets = set(a.jets()) | set(b.jets()) | set(cof.jets())

    def values(coords):
        p = tf.point(jets, coords)
        return eval_expr(a, p), eval_expr(cof, p) * eval_expr(b, p)

    samples = _samples(tf, random.Random(seed * 31337 + 7), 40 * trials, values)
    return not any(abs(va - vb) > tol * max(1.0, abs(va), abs(vb))
                   for va, vb in islice(samples, trials))
