"""Floating-point evaluation and finite-difference cross-checks.

An independent numeric route for the symbolic engine: test functions are
analytic with closed-form derivatives of every order (exp/sin factors whose
jets come from the derivative recurrence, never from differencing), so a
sample carries the internally consistent jets of a genuine function.  For
claims that hold only modulo a rewrite system, the led jets are computed from
the (prolonged) rule right sides so the sample satisfies the oriented
equations to machine precision.

A check is lowered once and then run over batches of sample points.
Lowering builds a plan for a (system, jet set, test function), which lives
as long as the check: one slot per jet, the free jets first and then the led
jets in the post-order of the on-shell dependencies (a led jet after the jets
of its right side).  A free jet's slot holds the test function's terms for
that jet, whose exp and sin factors carry the powers a**k and b**k and the
phase shifts k*pi/2 in floats.  A led jet's slot holds its rule's prolonged
right side as float programs, one (coefficient, factors) per term, where a
factor is a power x**e of an earlier slot's value.  The checked expressions
become programs the same way.  So `RewriteSystem.match`, `prolonged_rhs`
and every Fraction-to-float conversion run once per check.

A run fills each slot as a column, one float per point of its batch, and
appends the column of every power that a program uses to a table, from which
programs read their factor columns.  confirm_zero and numeric_proportionality
run over the first `points` points of their walk as one batch, then over
batches of the shortfall until enough points are accepted or 40*points have
been drawn, so they draw the points that one-by-one sampling draws; the other
entry points run batches of one.

The checks of one claim cell share a walk per (space, test-function seed,
sampler stream), held by the cell's `SampleWalks` and dropped with it: the
points the stream draws, each with a dict of the free-jet values the cell's
checks have evaluated there, and per batch a cache of the factor columns
they evaluated, where an exp factor's base exp(a*w) serves every derivative
order.  A free jet's value is a function of the test function, the point and
the jet alone, so a run reads a free jet's column from the dicts when every
point has it, and otherwise computes it from the factor columns and records
it.  A led jet's value depends on the system as well, so a run always
computes it from its rule and neither reads nor records it: checks on
different systems share a walk, and a check whose system leads a jet that an
earlier check's system left free still gets its own rule's value.

The float operations are those of evaluating each expression directly at
each point, in the same order, so residuals and reports do not depend on the
lowering, the batching or the interpreter: a term is its coefficient times
its factors, multiplied left to right; a free jet adds its terms left to
right from 0.0; a led jet or checked expression takes the math.fsum of its
terms at each point, and so does its scale over the terms' magnitudes, so
that no float depends on the order in which a polynomial stores its terms; a
sine's argument is (b*w + phi) + shift.  A led jet whose denominator is
below DEN_FLOOR relative to its term magnitudes rejects the point, which
later columns drop.  Every point leaves through eval_expr or
relative_residual: there a point a led jet rejected raises
SmallDenominatorError from _Plan.run, as one does whose checked expression
has too small a denominator.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, repeat
from math import fsum
from operator import add, itemgetter, mul, truediv

from .diffalg import DiffAlgError, RatExpr, equivalent

ZERO_TOL = 1e-9
FD_TOL = 1e-6
DEN_FLOOR = 1e-12


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
        # the same parameters in floats: (coeff, {var: (rate, phase)}), where
        # phase is None for an exp factor
        self._float_terms = {
            field: [(float(coeff), {var: (float(f[1]), None if f[0] == "exp" else float(f[2]))
                                    for var, f in factors.items()})
                    for coeff, factors in terms]
            for field, terms in self.terms.items()}
        self._jets = {}

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
        depends on; phase and shift are None for an exp factor.  Memoized
        per test function."""
        out = self._jets.get(jet)
        if out is not None:
            return out
        out = self._jets[jet] = []
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


_times = partial(map, mul)
_plus = partial(map, add)
_magnitudes = partial(map, abs)


def _rows(program, table, n):
    """Per point, the values of the program's terms over columns of n
    points; a term is its coefficient times its factors, multiplied left to
    right."""
    terms = [reduce(_times, factors(table), repeat(coeff, n)) for coeff, factors in program]
    return list(zip(*terms)) if terms else [()] * n


def _factor(f, coords, cache):
    """The column over coords of a test-function factor (var, rate, rate**k,
    phase, k*pi/2), cached; an exp factor's base exp(rate*w) is cached
    apart, since the factors of every order along var share it."""
    col = cache.get(f)
    if col is None:
        var, rate, power, phase, shift = f
        if phase is None:
            base = cache.get((var, rate))
            if base is None:
                base = cache[var, rate] = [math.exp(rate * c[var]) for c in coords]
            col = list(map(power.__mul__, base))
        else:
            col = [power * math.sin(rate * c[var] + phase + shift) for c in coords]
        cache[f] = col
    return col


class _Plan:
    """Expressions lowered once for a test function (see the module docstring).

    Slot i holds one jet: the free jets first, as (jet, its test-function
    terms) in `free`, then the led jets as the (num, den) programs of their
    rules in `led`.  After filling a slot's column, a run appends the
    columns of the powers listed in powers[i] to a table, and programs read
    their factors from that table.  programs[k] is exprs[k]'s numerator and
    denominator.
    """

    __slots__ = ("slot", "free", "led", "powers", "programs")

    def __init__(self, tf, system, exprs):
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
        slot = self.slot = {jet: s for s, jet in enumerate(chain(free, led))}
        rhs = [(_lower(e.num, slot), _lower(e.den, slot)) for e in led.values()]
        programs = [(_lower(e.num, slot), _lower(e.den, slot)) for e in exprs]

        used = [set() for _ in slot]
        for pair in chain(programs, rhs):
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
        self.led = [(compiled(num), compiled(den)) for num, den in rhs]
        self.free = [(jet, tf._jet_terms(jet)) for jet in free]

    def run(self, batch, i):
        """(numerator, its scale, denominator, its scale) per program at
        point i of batch, whose columns the first run over it fills;
        SmallDenominatorError if a led jet's denominator is too small there."""
        if batch.rows is None:
            batch.rows = self._columns(batch)
        row = batch.rows[i]
        if row is None:
            raise SmallDenominatorError(f"a led jet's denominator is too small at point {i}")
        return row

    def _columns(self, batch):
        """run's rows for every point of batch, None where a led jet rejects it."""
        points = batch.points
        n = len(points)
        coords = [c for c, _ in points]
        table = []
        for (jet, terms), exps in zip(self.free, self.powers):
            x = [known.get(jet) for _, known in points]
            if None in x:
                x = list(reduce(_plus, [
                    reduce(_times, [_factor(f, coords, batch.factors) for f in fs],
                           repeat(coeff, n)) for coeff, fs in terms], repeat(0.0, n)))
                for (_, known), v in zip(points, x):
                    known[jet] = v
            table.extend(list(map(pow, x, repeat(exp, n))) for exp in exps)
        alive = range(n)
        for (num, den), exps in zip(self.led, self.powers[len(self.free):]):
            rows = _rows(den, table, n)
            d = list(map(fsum, rows))
            small = [abs(v) <= DEN_FLOOR * max(1.0, fsum(map(abs, r))) for v, r in zip(d, rows)]
            if any(small):  # drop the rejected points from every column
                keep = [k for k, bad in enumerate(small) if not bad]
                alive, d = [alive[k] for k in keep], [d[k] for k in keep]
                table = [[col[k] for k in keep] for col in table]
                n = len(keep)
            x = list(map(truediv, map(fsum, _rows(num, table, n)), d))
            table.extend(list(map(pow, x, repeat(exp, n))) for exp in exps)
        columns = []
        for num, den in self.programs:
            nrows, drows = _rows(num, table, n), _rows(den, table, n)
            columns.append(zip(map(fsum, nrows), map(fsum, map(_magnitudes, nrows)),
                               map(fsum, drows), map(fsum, map(_magnitudes, drows))))
        rows = [None] * len(points)
        for k, row in zip(alive, zip(*columns)):
            rows[k] = row
        return rows


class _Batch:
    """Points that plans evaluate together, each (coords, {free jet:
    value}); the cache of test-function factor columns over them; and the
    rows of the one plan that runs over them, filled by its first run."""

    __slots__ = ("points", "factors", "rows")

    def __init__(self, points, factors):
        self.points = points
        self.factors = factors
        self.rows = None


class _Sample:
    """Point i of a batch that a plan runs over.  The plan runs on the
    batch's first use, inside eval_expr or relative_residual, and a point
    rejected for a led jet's denominator leaves through those public names
    like one rejected for the checked expression's own."""

    __slots__ = ("plan", "batch", "i")

    def __init__(self, plan, batch, i):
        self.plan = plan
        self.batch = batch
        self.i = i

    def quotient(self, k):
        """(numerator, numerator scale, denominator) of the plan's program
        k; denominators below the floor are rejected."""
        num, scale, den, dscale = self.plan.run(self.batch, self.i)[k]
        if abs(den) <= DEN_FLOOR * max(1.0, dscale):
            raise SmallDenominatorError(f"denominator {den!r} too small")
        return num, scale, den


class _Walk:
    """The points of one seeded sampler stream of a test function, drawn on
    demand; each is (coords, {free jet: value}).  factors maps each batch
    (lo, hi) of its points that a check evaluated to that batch's factor
    cache, which later checks over the same batch read."""

    __slots__ = ("tf", "rng", "points", "factors")

    def __init__(self, tf, stream):
        self.tf = tf
        self.rng = random.Random(stream)
        self.points = []
        self.factors = {}

    def batch(self, lo, hi):
        """A batch of the points lo..hi-1, drawing those not drawn yet."""
        while len(self.points) < hi:
            self.points.append((self.tf.sample_coords(self.rng), {}))
        return _Batch(self.points[lo:hi], self.factors.setdefault((lo, hi), {}))


class SampleWalks:
    """The sample walks of one claim cell: one per (space, test-function
    seed, sampler stream), each over its own TestFunction(space, seed),
    whose values depend on (space, seed) alone.  Checks given the same
    SampleWalks share the free-jet values and factor columns at the points
    of their walk, whatever their systems; drop it when the cell ends."""

    __slots__ = ("walks",)

    def __init__(self):
        self.walks = {}

    def walk(self, space, seed, stream):
        key = (space, seed, stream)
        walk = self.walks.get(key)
        if walk is None:
            walk = self.walks[key] = _Walk(TestFunction(space, seed), stream)
        return walk


def eval_expr(k, sample):
    """The value of a plan's program k at a _Sample of that plan;
    denominators below the floor are rejected."""
    num, _, den = sample.quotient(k)
    return num / den


def relative_residual(k, sample):
    """|num| relative to the summed magnitude of the numerator's terms."""
    num, scale, _ = sample.quotient(k)
    return abs(num) / max(scale, 1e-300)


def _accepted(plan, walk, wanted, attempts, evaluate):
    """Yield evaluate(sample) at the walk's successive points, skipping the
    points where a denominator is too small, until `wanted` are accepted.
    The first batch is the first `wanted` points and each later one the
    shortfall, so no point is drawn that one-by-one sampling would not
    draw; NumericError after `attempts` points."""
    got = drawn = 0
    while got < wanted:
        if drawn == attempts:
            raise NumericError("could not find enough well-conditioned sample points")
        hi = min(drawn + wanted - got, attempts)
        batch = walk.batch(drawn, hi)
        for i in range(hi - drawn):
            try:
                value = evaluate(_Sample(plan, batch, i))
            except SmallDenominatorError:
                continue
            got += 1
            yield value
        drawn = hi


def consistent_point(system, jets, tf, coords):
    """{jet: value} at coords, with led jets computed from the system's rule
    right sides.

    Free jets take the test function's values; a jet matching a (prolonged)
    rule is evaluated from the rule instead, after the jets of its right
    side -- the ranking guarantees this bottoms out on free jets.  The
    result holds every jet the evaluation reached, read from one program per
    jet, since a run records only the free ones.  No check calls it; it stays
    while perfbench's tracer names it.
    """
    slots = _Plan(tf, system, [RatExpr.from_jet(j) for j in jets]).slot
    plan = _Plan(tf, system, [RatExpr.from_jet(j) for j in slots])
    sample = _Sample(plan, _Batch([(coords, {})], {}), 0)
    return {jet: eval_expr(k, sample) for k, jet in enumerate(slots)}


def confirm_zero(e, space, seed, points=100, system=None, walks=None):
    """Max relative residual of e over seeded sample points (on-shell when a
    system is given); callers compare the result against ZERO_TOL.  Checks
    given the same SampleWalks share their points' free-jet values and
    factor columns."""
    e = RatExpr._coerce(e)
    if e.is_zero():
        return 0.0
    walk = (SampleWalks() if walks is None else walks).walk(space, seed, seed * 7919 + 13)
    plan = _Plan(walk.tf, system, (e,))
    residuals = _accepted(plan, walk, points, 40 * points,
                          lambda sample: relative_residual(0, sample))
    return reduce(max, residuals, 0.0)


def fd_check(e, var, tf, sample=0):
    """Relative error of the symbolic total derivative against Richardson-
    extrapolated central differences (steps 1e-3 and 5e-4) along var."""
    e = RatExpr._coerce(e)
    plan = _Plan(tf, None, (e,))
    dplan = _Plan(tf, None, (e.total_derivative(var),))
    h = 1e-3

    def error(point):
        sym = eval_expr(0, point)
        coords = point.batch.points[point.i][0]

        def at(offset):
            shifted = dict(coords)
            shifted[var] = coords[var] + offset
            return eval_expr(0, _Sample(plan, _Batch([(shifted, {})], {}), 0))

        d_h = (at(h) - at(-h)) / (2 * h)
        d_h2 = (at(h / 2) - at(-h / 2)) / h
        fd = (4 * d_h2 - d_h) / 3
        return abs(sym - fd) / max(1.0, abs(sym), abs(fd))

    return next(_accepted(dplan, _Walk(tf, tf.seed * 92821 + sample), 1, 1000, error))


def sample_value(e, space, seed):
    """(coords, value) of e at the first well-conditioned sample point of
    seed's evaluation stream, as `jetcalc eval` reports it."""
    e = RatExpr._coerce(e)
    walk = _Walk(TestFunction(space, seed), seed * 65537 + 1)
    plan = _Plan(walk.tf, None, (e,))
    return next(_accepted(plan, walk, 1, 1000,
                          lambda s: (s.batch.points[s.i][0], eval_expr(0, s))))


def numeric_proportionality(a, b, cofactor, trials=100, seed=0, walks=None):
    """True iff a evaluates to cofactor*b within ZERO_TOL at all sampled points.
    Checks given the same SampleWalks share their points' free-jet values and
    factor columns."""
    a = RatExpr._coerce(a)
    b = RatExpr._coerce(b)
    cof = cofactor.as_ratexpr()
    space = a.space() or b.space() or cof.space()
    if space is None:
        return equivalent(a, cof.mul(b))
    walk = (SampleWalks() if walks is None else walks).walk(space, seed, seed * 31337 + 7)
    plan = _Plan(walk.tf, None, (a, cof, b))

    def values(sample):
        return eval_expr(0, sample), eval_expr(1, sample) * eval_expr(2, sample)

    return not any(abs(va - vb) > ZERO_TOL * max(1.0, abs(va), abs(vb))
                   for va, vb in _accepted(plan, walk, trials, 40 * trials, values))
