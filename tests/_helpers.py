"""Shared test utilities: constrained samplers for transportable expressions,
the reference float evaluator, the reference checks modulo PRIME, the
reference monomial order, the reference exact core, the reference
common-denominator search, the reference step-by-step rewrite loop, the
reference rule picks, the reference mixed Miura map, a process pool
that starts no process, a reader for to_json documents and a sympy check
of total derivatives."""

import contextvars
import json
import math
import random
from fractions import Fraction

from jetcalc import hierarchies as hier
from jetcalc import reduction, transform
from jetcalc.diffalg import (_POLY_ONE, RAT_ZERO, DiffPoly, Monomial, RatExpr,
                             ZeroDivisionExprError, _limits)
from jetcalc.numoracle import DEN_FLOOR, PRIME, SmallDenominatorError
from jetcalc.reduction import StepCapError


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


def exact_normalform_inputs(seed):
    """C_MR images at n=3 of polynomials drawn as perfbench's exact-normalform
    workload draws them."""
    m = transform.build_map("C_MR", 3)
    jets = transportable_jets(m)
    rng = random.Random(f"exact-normalform/{seed}")
    return [m.transport(random_poly_from(jets, rng, max_terms=3, max_factors=1, max_exp=1))
            for _ in range(6)]



# -- reference float evaluator -----------------------------------------------
# The recursive on-shell float evaluator, written apart from the library's, so
# that tests can demand bit-identical floats from sample_value and
# consistent_point.

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
    for mono, coeff in poly.terms.items():
        v = float(coeff)
        for jet, exp in mono.factors:
            v *= getter(jet) ** exp
        total.append(v)
    return math.fsum(total), math.fsum(map(abs, total))


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


# -- reference checks modulo PRIME -------------------------------------------
# Zero and cofactor checks evaluated recursively from the expressions' terms,
# apart from the library's lowered plans, so that tests can demand the same
# verdicts from confirm_zero and numeric_proportionality.  Free jets draw
# their values in the plans' slot order: each expression's jets in turn, the
# jets of a led jet's rule before the led jet.

def _reference_free_jets(system, exprs):
    free, seen = [], set()

    def visit(jet):
        seen.add(jet)
        rule = None if system is None else system.match(jet)
        if rule is None:
            free.append(jet)
            return
        for dep in system.prolonged_rhs(rule, jet).jets():
            if dep not in seen:
                visit(dep)

    for e in exprs:
        for jet in e.jets():
            if jet not in seen:
                visit(jet)
    return free


def reference_value_mod(system, e, values):
    """e mod PRIME where free jets take values and led jets are computed
    recursively from their rules, recorded in values."""
    def value(jet):
        if jet not in values:
            rule = system.match(jet)
            values[jet] = reference_value_mod(system, system.prolonged_rhs(rule, jet), values)
        return values[jet]

    def poly(p):
        total = 0
        for mono, coeff in p.terms.items():
            coeff = Fraction(coeff)
            term = coeff.numerator * pow(coeff.denominator, -1, PRIME)
            for jet, exp in mono.factors:
                term *= pow(value(jet), exp, PRIME)
            total += term
        return total % PRIME

    den = poly(e.den)
    if not den:
        raise SmallDenominatorError("denominator vanishes mod PRIME")
    return poly(e.num) * pow(den, -1, PRIME) % PRIME


def _reference_points(system, exprs, stream, wanted):
    """Per accepted point of the stream, the values of exprs mod PRIME."""
    free = _reference_free_jets(system, exprs)
    rng = random.Random(stream)
    for _ in range(40 * wanted):
        values = {jet: rng.randrange(1, PRIME) for jet in free}
        try:
            yield [reference_value_mod(system, e, values) for e in exprs]
        except SmallDenominatorError:
            continue
        wanted -= 1
        if not wanted:
            return
    raise AssertionError("reference sampler ran out of points")


def reference_confirm_zero(e, seed, points=2, system=None):
    values = _reference_points(system, [e], seed * 7919 + 13, points)
    return 1.0 if any(v for v, in values) else 0.0


def reference_numeric_proportionality(a, b, cofactor, trials=2, seed=0):
    values = _reference_points(None, [a, cofactor.as_ratexpr(), b], seed * 31337 + 7, trials)
    return all(va == vc * vb % PRIME for va, vc, vb in values)


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


# -- reference exact core ----------------------------------------------------
# The derivative, monomial division, exact division, normalisation and
# quotient rule the library used before it spliced monomials, kept integer
# coefficients, divided through a heap and special-cased monomial
# denominators.  They are kept verbatim (as functions of their former self
# argument, with the deleted Monomial.exp_of inlined) so that tests can
# demand the same polynomials, in the same term order, from the library.

def reference_total_derivative(poly, var):
    out = {}
    for mono, coeff in poly.terms.items():
        for idx, (jet, exp) in enumerate(mono.factors):
            dj = jet.derived(var)
            if dj is None:
                continue
            pairs = list(mono.factors)
            if exp == 1:
                del pairs[idx]
            else:
                pairs[idx] = (jet, exp - 1)
            m = Monomial.from_pairs(pairs + [(dj, 1)])
            c = coeff * exp
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return DiffPoly(out, poly.space())


def reference_mono_div(mono, other):
    """Quotient mono / other (other must divide mono)."""
    rem = {j: e for j, e in mono.factors}
    for j, e in other.factors:
        have = rem.get(j, 0)
        if have < e:
            raise ValueError("monomial division is not exact")
        if have == e:
            del rem[j]
        else:
            rem[j] = have - e
    return Monomial.from_pairs(rem.items())


def reference_divexact(poly, other):
    """Exact quotient poly/other, or None if other does not divide poly
    within 8*(len(poly.terms) + len(other.terms)) + 64 steps."""
    if other.is_zero():
        raise ZeroDivisionExprError("polynomial division by zero")
    if other.is_const():
        return poly.scale(1 / other.const_value())
    if poly.is_zero():
        return DiffPoly.zero()
    glm, glc = other.leading()
    glc = Fraction(glc)
    work = dict(poly.terms)
    quot = {}
    for _ in range(8 * (len(poly.terms) + len(other.terms)) + 64):
        if not work:
            return DiffPoly(quot, poly.space())
        lm = max(work, key=lambda m: m.key)
        if not glm.divides(lm):
            return None
        qm = lm.div(glm)
        qc = work[lm] / glc
        quot[qm] = quot.get(qm, Fraction(0)) + qc
        if quot[qm] == 0:
            del quot[qm]
        for m, c in other.terms.items():
            mm = m.mul(qm)
            s = work.get(mm, Fraction(0)) - c * qc
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return None


def _reference_monomial_gcd(polys):
    common = None
    for p in polys:
        for mono in p.terms:
            if common is None:
                common = dict(mono.factors)
                continue
            nxt = {}
            for j, e in mono.factors:
                have = common.get(j)
                if have:
                    nxt[j] = min(have, e)
            common = nxt
            if not common:
                return Monomial.unit()
    if not common:
        return Monomial.unit()
    return Monomial.from_pairs(common.items())


def _reference_divide_monomial(poly, mono):
    if not mono.factors:
        return poly
    return DiffPoly({m.div(mono): c for m, c in poly.terms.items()})


def _reference_content(polys):
    num_gcd = 0
    den_lcm = 1
    for p in polys:
        for c in p.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    if num_gcd == 0:
        return Fraction(1)
    return Fraction(num_gcd, den_lcm)


def _reference_intify(poly):
    out = {}
    changed = False
    for m, c in poly.terms.items():
        if not isinstance(c, int) and c.denominator == 1:
            out[m] = c.numerator
            changed = True
        else:
            out[m] = c
    return DiffPoly(out) if changed else poly


def reference_make(num, den):
    if den.is_zero():
        raise ZeroDivisionExprError("denominator is identically zero")
    if num.is_zero():
        return RatExpr(DiffPoly.zero(), DiffPoly.const(1))
    g = _reference_monomial_gcd([num])
    h = _reference_monomial_gcd([den])
    common = {}
    for j, e in g.factors:
        k = dict(h.factors).get(j, 0)
        if k:
            common[j] = min(e, k)
    if common:
        m = Monomial.from_pairs(common.items())
        num = _reference_divide_monomial(num, m)
        den = _reference_divide_monomial(den, m)
    content = _reference_content([num, den])
    _, dlc = den.leading()
    sign = 1 if dlc > 0 else -1
    scale = Fraction(sign) / content
    if scale != 1:
        num = num.scale(scale)
        den = den.scale(scale)
    return RatExpr(_reference_intify(num), _reference_intify(den))


def reference_ratexpr_derivative(e, var):
    """The general quotient rule, over the reference derivative and make."""
    dn = reference_total_derivative(e.num, var)
    if e.den.is_const():
        return reference_make(dn, e.den)
    dd = reference_total_derivative(e.den, var)
    if dd.is_zero():
        return reference_make(dn, e.den)
    return reference_make(dn.mul(e.den).sub(e.num.mul(dd)), e.den.mul(e.den))


# -- reference prolongation --------------------------------------------------
# The derivative loop the C3 and C5 substitutions ran before they prolonged
# through diffalg.prolong, kept verbatim (as a function of the base image
# and the target jet) so that tests can demand equal images from prolong.

def reference_t0_first_image(image, target):
    """The image of the base jet (one T0 derivative) prolonged to target:
    the remaining derivatives in declared variable order, T0 first."""
    for var, k in target.multi_index().items():
        steps = k - 1 if var == "T0" else k
        for _ in range(steps):
            image = image.total_derivative(var)
    return image


# -- reference common-denominator search -------------------------------------
# RatExpr.add and RatExpr.mul as they were before a monomial test ruled out
# trial divisions that cannot succeed, kept verbatim so that tests can
# demand the same expressions, with the terms in the same order.

def reference_add(self, other):
    other = RatExpr._coerce(other)
    if self.is_zero():
        return other
    if other.is_zero():
        return self
    if self.den == other.den:
        return RatExpr.make(self.num.add(other.num), self.den)
    q = other.den.divexact(self.den)
    if q is not None:
        return RatExpr.make(self.num.mul(q).add(other.num), other.den)
    q = self.den.divexact(other.den)
    if q is not None:
        return RatExpr.make(self.num.add(other.num.mul(q)), self.den)
    return RatExpr.make(
        self.num.mul(other.den).add(other.num.mul(self.den)),
        self.den.mul(other.den))


def reference_mul(self, other):
    other = RatExpr._coerce(other)
    if self.is_zero() or other.is_zero():
        return RAT_ZERO
    n1, d1 = self.num, self.den
    n2, d2 = other.num, other.den
    if not d2.is_const():
        q = n1.divexact(d2)
        if q is not None:
            n1, d2 = q, _POLY_ONE
    if not d1.is_const():
        q = n2.divexact(d1)
        if q is not None:
            n2, d1 = q, _POLY_ONE
    return RatExpr.make(n1.mul(n2), d1.mul(d2))


# -- reference rewrite loop --------------------------------------------------
# reduction.rewrite and diffalg.substitute_jet as they were before the rewrite
# held its denominator aside: every step substitutes into numerator and
# denominator and divides, so every intermediate expression is normalized.
# Kept verbatim so that tests can demand the same expressions, with the terms
# in the same order, and the same StepCapError traces.

def reference_substitute_jet(e, jet, replacement):
    e = RatExpr._coerce(e)
    replacement = RatExpr._coerce(replacement)

    def sub_poly(poly):
        by_exp = {}
        for mono, coeff in poly.terms.items():
            k, rest = mono.without(jet)
            by_exp.setdefault(k, {})[rest] = coeff
        out = RAT_ZERO
        for k, bucket in sorted(by_exp.items()):
            part = RatExpr.make(DiffPoly(bucket))
            if k:
                part = part.mul(replacement.pow(k))
            out = out.add(part)
        return out

    return sub_poly(e.num).div(sub_poly(e.den))


def reference_rewrite(e, pick, image, what):
    step_cap = _limits.get()[1]
    trace = []
    while True:
        picked = pick(e)
        if picked is None:
            return e
        jet, how = picked
        if len(trace) == step_cap:
            raise StepCapError(f"{what} exceeded {step_cap} steps", trace[-12:])
        e = reference_substitute_jet(e, jet, image(how, jet))
        trace.append(jet)


# -- reference rule picks ---------------------------------------------------------
# RewriteSystem.reduce's two picks as they were before a system memoised its
# per-jet lookups: every pick walks every jet of the expression over every
# rule and ranks the matches afresh.

def reference_reduce(system, e, rng=None):
    def match(jet):
        best = None
        for rule in system.rules:
            if jet.dominates(rule.lead):
                if best is None or system.ranking.higher(rule.lead, best.lead):
                    best = rule
        return best

    if rng is None:
        def pick(e):
            matches = [(j, r) for j in e.jets() if (r := match(j)) is not None]
            return max(matches, key=lambda m: system.ranking.key(m[0]), default=None)
    else:
        def pick(e):
            matches = [(j, r) for j in e.jets() for r in system.rules if j.dominates(r.lead)]
            return matches[rng.randrange(len(matches))] if matches else None
    return reduction.rewrite(RatExpr._coerce(e), pick, system.prolonged_rhs, "reduction")


# -- reference mixed Miura map ----------------------------------------------------
# transform.miura_mix_map's images as they were built before it extended a
# built C_MR map: R_Q over the mixed space, composed with the Miura map and a
# B_CH of its own.

def reference_miura_mix_images(n):
    """(field_images, op_images) of C_MR extended to mr_space(n)."""
    ms, chs, rs = hier.mr_space(n), hier.ch_space(n), hier.r_space(n)
    one = RatExpr.const(1)
    r_q = transform.DerivationMap("R_Q", ms, rs, *transform._images("R_Q", n, ms, rs))
    c_mr = transform.compose(r_q, transform.compose(transform.miura_map(n),
                                                    transform.build_map("B_CH", n)))
    gap = chs.expr("P") - chs.expr("P", X=1)
    field_images = dict(c_mr.field_images)
    field_images[ms.jet("P")] = chs.expr("P")
    for i in range(1, n + 1):
        field_images[ms.jet("Omega", i)] = chs.expr("Omega", i)
    op_images = {"x": c_mr.op_images["x"],
                 "t": ((one, "T"), (chs.expr("P", T=1).div(gap), "X")),
                 "X": ((one, "X"),), "T": ((one, "T"),)}
    return field_images, op_images


class StubPool:
    """Stands in for ProcessPoolExecutor and starts no process: its one
    worker is a copied context."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)
        self.worker = contextvars.copy_context()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells):
        return [self.worker.run(fn, cell) for cell in cells]


def read_json(text, space):
    """The expression of a to_json document over space, read back without
    checking it: the round-trip oracle for to_json."""
    tree = json.loads(text)

    def poly(items):
        return DiffPoly({
            Monomial.from_pairs([(space.field(name, index).jet(**dict(orders)), exp)
                                 for name, index, orders, exp in factors]): Fraction(coeff)
            for coeff, factors in items})

    return RatExpr.make(poly(tree["num"]), poly(tree["den"]))


def sympy_derivative_gap(e, var, claimed):
    """cn*d^2 - cd*(D(n)*d - n*D(d)) for e = n/d and claimed = cn/cd, in a
    sympy polynomial ring over QQ: zero iff claimed is D_var e.

    The ring has one generator per jet, named by its field and orders, and
    D = D_var is the chain rule through the ring's partial derivatives: D f
    is the sum over the jets j of e of (df/dj) times the jet one order
    higher than j in var (none if j's field does not depend on var).
    Nothing here calls the engine's derivatives or its arithmetic."""
    import sympy as sp

    def name(jet, step=0):
        orders = list(jet.orders)
        if step:
            orders[jet.field.deps.index(var)] += step
        return jet.field.label(), tuple(orders)

    raised = {name(j): name(j, 1) for j in e.jets() if var in j.field.deps}
    names = sorted({*map(name, e.jets()), *map(name, claimed.jets()), *raised.values()})
    ring, *gens = sp.ring([sp.Symbol(f"{label}{list(orders)}") for label, orders in names],
                          sp.QQ)
    gen = dict(zip(names, gens))

    def poly(p):
        out = ring.zero
        for mono, coeff in p.terms.items():
            term = ring(sp.QQ(coeff.numerator, coeff.denominator))
            for jet, k in mono.factors:
                term *= gen[name(jet)] ** k
            out += term
        return out

    def derivative(f):
        return sum((f.diff(gen[j]) * gen[up] for j, up in raised.items()), ring.zero)

    n, d = poly(e.num), poly(e.den)
    return poly(claimed.num) * d ** 2 - poly(claimed.den) * (derivative(n) * d - n * derivative(d))
