"""Shared test utilities: constrained samplers for transportable expressions and
the reference numeric oracle."""

import math
import random
from fractions import Fraction

from jetcalc.diffalg import DiffPoly, Monomial, RatExpr
from jetcalc.numoracle import DEN_FLOOR, ZERO_TOL, SmallDenominatorError, TestFunction


def transportable_jets(m, depth=2, evo_cap=1):
    """Jets reachable from a map's designated images along covered directions.

    Orders along the source's evolution variables are capped (the hierarchy
    equations never carry more than one time derivative per jet), which keeps
    the transported images at realistic sizes.
    """
    evolution = m.source.evolution_vars
    pool = list(m.field_images)
    frontier = list(pool)
    for _ in range(depth):
        nxt = []
        for jet in frontier:
            for var in m.op_images:
                dj = jet.derived(var)
                if dj is None or dj in pool:
                    continue
                if sum(dj.order_of(v) for v in evolution) > evo_cap:
                    continue
                pool.append(dj)
                nxt.append(dj)
        frontier = nxt
    return pool


def random_poly_from(jets, rng, max_terms=3, max_factors=2, max_exp=2):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        pairs = {}
        for _ in range(rng.randrange(1, max_factors + 1)):
            j = rng.choice(jets)
            pairs[j] = min(pairs.get(j, 0) + 1, max_exp)
        mono = Monomial.from_pairs(pairs.items())
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    terms = {mo: c for mo, c in terms.items() if c}
    if not terms:
        return RatExpr.const(1)
    return RatExpr.make(DiffPoly(terms))



# -- reference numeric oracle ------------------------------------------------
# The recursive on-shell evaluator the library used before it lowered checks
# into float programs, kept verbatim so that tests can demand bit-identical
# floats from the library.

def reference_jet_value(tf, jet, coords):
    total = 0.0
    for coeff, factors in tf.terms[jet.field]:
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


def _reference_eval_poly(poly, getter):
    total = []
    scale = 0.0
    for mono, coeff in poly.terms.items():
        v = float(coeff)
        for jet, exp in mono.factors:
            v *= getter(jet) ** exp
        total.append(v)
        scale += abs(v)
    return math.fsum(total), scale


def reference_evaluate(e, getter):
    """(numerator, numerator scale, denominator) of e under a jet getter."""
    num, scale = _reference_eval_poly(e.num, getter)
    den, dscale = _reference_eval_poly(e.den, getter)
    if abs(den) <= DEN_FLOOR * max(1.0, dscale):
        raise SmallDenominatorError(f"denominator {den!r} too small")
    return num, scale, den


def reference_consistent_point(system, jets, tf, coords):
    """{jet: value} with led jets computed recursively from the rules."""
    memo = {}

    def value(jet):
        v = memo.get(jet)
        if v is not None:
            return v
        rule = system.match(jet) if system is not None else None
        if rule is None:
            v = reference_jet_value(tf, jet, coords)
        else:
            num, _, den = reference_evaluate(system.prolonged_rhs(rule, jet), value)
            v = num / den
        memo[jet] = v
        return v

    for j in jets:
        value(j)
    return memo


def reference_confirm_zero(e, space, seed, points=100, system=None):
    tf = TestFunction(space, seed)
    jets = list(e.jets())
    rng = random.Random(seed * 7919 + 13)
    worst, accepted = 0.0, 0
    for _ in range(40 * points):
        coords = tf.sample_coords(rng)
        try:
            values = reference_consistent_point(system, jets, tf, coords)
            num, scale, _ = reference_evaluate(e, values.__getitem__)
        except SmallDenominatorError:
            continue
        worst = max(worst, abs(num) / max(scale, 1e-300))
        accepted += 1
        if accepted == points:
            return worst
    raise AssertionError("reference sampler ran out of points")


def reference_numeric_proportionality(a, b, cofactor, trials=100, seed=0, tol=ZERO_TOL):
    tf = TestFunction(a.space() or b.space(), seed)
    cof = cofactor.as_ratexpr()
    jets = set(a.jets()) | set(b.jets()) | set(cof.jets())
    rng = random.Random(seed * 31337 + 7)
    accepted = 0
    for _ in range(40 * trials):
        coords = tf.sample_coords(rng)
        values = {j: reference_jet_value(tf, j, coords) for j in jets}
        try:
            na, _, da = reference_evaluate(a, values.__getitem__)
            nc, _, dc = reference_evaluate(cof, values.__getitem__)
            nb, _, db = reference_evaluate(b, values.__getitem__)
        except SmallDenominatorError:
            continue
        va, vb = na / da, (nc / dc) * (nb / db)
        if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
            return False
        accepted += 1
        if accepted == trials:
            return True
    raise AssertionError("reference sampler ran out of points")


# -- reference monomial order ------------------------------------------------
# The comparison function the library sorted monomials with before each
# Monomial carried a native key, kept verbatim (apart from reading the jet's
# former canonical key through reference_jet_key) so that tests can demand
# the same order from the key.

def reference_jet_key(jet):
    field = jet.field
    return (field.prio, field.index if field.index is not None else 0, jet.orders)


def reference_mono_cmp(a, b):
    """Lexicographic monomial order: the jet with the smallest canonical key is
    the most significant position.  Total order compatible with multiplication,
    so leading-term exact division is sound."""
    fa, fb = a.factors, b.factors
    i = j = 0
    while i < len(fa) and j < len(fb):
        ka, kb = reference_jet_key(fa[i][0]), reference_jet_key(fb[j][0])
        if ka < kb:
            return 1    # a has a positive exponent where b has zero
        if kb < ka:
            return -1
        if fa[i][1] != fb[j][1]:
            return 1 if fa[i][1] > fb[j][1] else -1
        i += 1
        j += 1
    if i < len(fa):
        return 1
    if j < len(fb):
        return -1
    return 0
