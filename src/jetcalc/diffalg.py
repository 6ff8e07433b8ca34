"""Exact arithmetic on differential polynomials and rational jet expressions.

The universal value type is RatExpr = DiffPoly / DiffPoly with arbitrary
precision rational coefficients.  Everything is immutable after construction
and every constructor returns a normalized value, so values can be shared
freely between tasks.  Zero testing (is_zero) is exact: normalization cancels
integer content and common monomial factors, which is enough to decide whether
the numerator is the zero polynomial.  A normalized value's coefficients are
coprime ints, and constants, scaling and exact division keep integral
coefficients as ints, so the hot loops stay off Fraction arithmetic.  There is deliberately
no multivariate polynomial GCD; addition and multiplication instead look for
exact-division common denominators to keep denominator towers like
(P - P_X)^k flat.  A trial division runs only when the divisor's leading and
trailing monomials divide the dividend's: the monomial order is compatible
with multiplication, so the leading and trailing monomials of q*d are those
of q times those of d, and a divisor that fails the test cannot divide
exactly.  reduction.rewrite holds the denominator aside for a whole run
of polynomial substitutions into the numerator alone and then settles the
quotient with one trial division.  Such a substitution is fraction-free
(substitute_fraction_free): an image r/c with the constant denominator c
goes into a polynomial whose highest power of the jet is K as c^K times
the result, so an int numerator stays on ints, and the loop keeps the
integer multiplier c^K on the held denominator (the trick of
pseudo-division, Knuth, TAOCP vol. 2, 4.6.1).  Exact division keeps its
pending terms in a heap (after Monagan & Pearce, Sparse polynomial division
using a heap); it gives the same quotient, with the terms in the same
order, as the plain max-rescanning division.

Spaces, fields and jets are canonical: a space's fields are created once,
and each field hands out one JetVar per multi-index, so equality of jets and
fields is identity.  Jets never cross a process boundary (reports are plain
data), so identity is all the equality they need.  The monomial order is
native: every Monomial carries a key whose plain tuple comparison is the
order, so sorting and leading terms need no comparison function.  A derived
monomial is spliced: the derivative of a jet sorts after the jet, so one
forward scan finds its place among the factors.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import attrgetter


DEFAULT_TERM_CAP = 200_000
DEFAULT_STEP_CAP = 10_000

# (term cap, step cap) of the innermost limits() block
_limits = ContextVar("limits", default=(DEFAULT_TERM_CAP, DEFAULT_STEP_CAP))


@contextmanager
def limits(term_cap=None, step_cap=None):
    """Scope both engine guards to a block: term_cap bounds the stored terms
    of a polynomial (TermCapError), step_cap the substitutions of one
    reduction.rewrite loop (StepCapError).  Each cap is an int of at least 1;
    a cap not given keeps the enclosing block's value."""
    outer_term_cap, outer_step_cap = _limits.get()
    term_cap = outer_term_cap if term_cap is None else term_cap
    step_cap = outer_step_cap if step_cap is None else step_cap
    if type(term_cap) is not int or type(step_cap) is not int:
        raise ValueError("term and step caps must be ints")
    if term_cap < 1 or step_cap < 1:
        raise ValueError("term and step caps must be positive")
    token = _limits.set((term_cap, step_cap))
    try:
        yield
    finally:
        _limits.reset(token)


class DiffAlgError(Exception):
    """Base class for symbolic-engine errors."""


class SpaceMismatchError(DiffAlgError):
    """An operation mixed jets from two different variable spaces."""


class ZeroDivisionExprError(DiffAlgError):
    """Division by an identically zero expression."""


class TermCapError(DiffAlgError):
    """Expression grew past the configured term-count guard."""


class UnknownVariableError(DiffAlgError):
    """A derivative direction that does not belong to the expression's space."""


# ---------------------------------------------------------------------------
# spaces, fields, jets


class VarSpace:
    """An ordered list of independent variables plus the fields living on them.

    evolution_vars picks the variables that dominate the default jet ranking
    used by the rewrite machinery (e.g. T on the CH space, T_n..T_1 on the
    reciprocal space).
    """

    __slots__ = ("name", "vars", "fields", "evolution_vars", "_by_key", "_var_pos")

    def __init__(self, name, variables, evolution_vars=()):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in space {name!r}")
        for v in evolution_vars:
            if v not in variables:
                raise ValueError(f"evolution variable {v!r} not in space {name!r}")
        self.name = name
        self.vars = variables
        self.evolution_vars = tuple(evolution_vars)
        self.fields = []
        self._by_key = {}
        self._var_pos = {v: i for i, v in enumerate(variables)}

    def add_field(self, name, index=None, deps=None):
        if name in self._var_pos:
            raise ValueError(f"field name {name!r} collides with a variable of {self.name!r}")
        deps = self.vars if deps is None else tuple(deps)
        for d in deps:
            if d not in self._var_pos:
                raise ValueError(f"dependency {d!r} not a variable of {self.name!r}")
        key = (name, index)
        if key in self._by_key:
            raise ValueError(f"field {key} already declared on {self.name!r}")
        for (other, oidx) in self._by_key:
            if other == name and (oidx is None) != (index is None):
                raise ValueError(f"field family {name!r} mixes indexed and plain symbols")
        f = FieldSymbol(name, index, self, deps, len(self.fields))
        self.fields.append(f)
        self._by_key[key] = f
        return f

    def field(self, name, index=None):
        try:
            return self._by_key[(name, index)]
        except KeyError:
            raise KeyError(f"no field {name!r}"
                           + (f"[{index}]" if index is not None else "")
                           + f" on space {self.name!r}") from None

    def has_field(self, name, index=None):
        return (name, index) in self._by_key

    def jet(self, name, index=None, **orders):
        return self.field(name, index).jet(**orders)

    def expr(self, name, index=None, **orders):
        return RatExpr.from_jet(self.jet(name, index, **orders))

    def __repr__(self):
        return f"VarSpace({self.name!r}, vars={self.vars})"


class FieldSymbol:
    """A dependent field, optionally member of an indexed family like Omega[i].

    deps lists the variables the field actually depends on; total derivatives
    along other variables of the same space annihilate its jets (used by the
    mixed space that hosts both hierarchies' fields at once).  _jets holds the
    field's one JetVar per multi-index.
    """

    __slots__ = ("name", "index", "space", "deps", "prio", "_dep_pos", "_jets")

    def __init__(self, name, index, space, deps, prio):
        self.name = name
        self.index = index
        self.space = space
        self.deps = tuple(deps)
        self.prio = prio
        self._dep_pos = {v: i for i, v in enumerate(self.deps)}
        self._jets = {}

    def jet(self, **orders):
        counts = [0] * len(self.deps)
        for v, k in orders.items():
            if v not in self._dep_pos:
                raise UnknownVariableError(f"{self.label()} does not depend on {v!r}")
            if k < 0:
                raise ValueError("derivative order must be >= 0")
            counts[self._dep_pos[v]] = k
        return JetVar(self, tuple(counts))

    def label(self):
        return self.name if self.index is None else f"{self.name}[{self.index}]"

    def __repr__(self):
        return f"FieldSymbol({self.label()} on {self.space.name})"


class JetVar:
    """A field together with a multi-index of derivative orders.

    orders is aligned with field.deps; zero entries are simply zero slots.
    JetVar(field, orders) returns the field's one jet for those orders, so
    equal jets are the same object.  rkey is the inverted canonical key
    (-field priority, -field index, -orders): monomials keep their factors
    in descending rkey, and the smallest canonical key (largest rkey) is the
    most significant position of the monomial order.
    """

    __slots__ = ("field", "orders", "total", "rkey")

    def __new__(cls, field, orders):
        jet = field._jets.get(orders)
        if jet is None:
            jet = super().__new__(cls)
            jet.field = field
            jet.orders = orders
            jet.total = sum(orders)
            jet.rkey = (-field.prio, -(field.index or 0), tuple(-k for k in orders))
            field._jets[orders] = jet
        return jet

    def order_of(self, var):
        pos = self.field._dep_pos.get(var)
        return 0 if pos is None else self.orders[pos]

    def derived(self, var):
        """Jet with one more derivative along var; None if the field does not
        depend on var (the derivative contribution is zero)."""
        pos = self.field._dep_pos.get(var)
        if pos is None:
            return None
        orders = list(self.orders)
        orders[pos] += 1
        return JetVar(self.field, tuple(orders))

    def lowered(self, var):
        pos = self.field._dep_pos[var]
        if self.orders[pos] == 0:
            raise ValueError(f"cannot lower {self.text()} along {var}")
        orders = list(self.orders)
        orders[pos] -= 1
        return JetVar(self.field, tuple(orders))

    def dominates(self, other):
        """Componentwise >= on orders; same field required."""
        return (self.field is other.field
                and all(a >= b for a, b in zip(self.orders, other.orders)))

    def multi_index(self):
        return {v: k for v, k in zip(self.field.deps, self.orders) if k}

    def text(self):
        s = self.field.label()
        subs = []
        for v, k in zip(self.field.deps, self.orders):
            subs.extend([v] * k)
        if subs:
            s += "_{" + ",".join(subs) + "}"
        return s

    def __repr__(self):
        return f"JetVar({self.text()})"


# ---------------------------------------------------------------------------
# monomials


class Monomial:
    """Product of jet variables with positive integer exponents.

    factors is a tuple of (jet, exponent) in descending jet rkey, which is
    ascending canonical jet key (field priority, field index, multi-index in
    declared variable order).  key is ((jet rkey, exponent), ...) over the
    factors: plain tuple comparison of keys is the lexicographic monomial
    order, where the jet with the smallest canonical key is the most
    significant position.  It is a total order compatible with
    multiplication, so leading-term exact division is sound.
    """

    __slots__ = ("factors", "_key", "_hash")

    def __init__(self, factors):
        self.factors = factors
        self._key = None
        self._hash = hash(factors)

    @property
    def key(self):
        # built on first use: most products are never ordered
        if self._key is None:
            self._key = tuple([(j.rkey, e) for j, e in self.factors])
        return self._key

    @staticmethod
    def unit():
        return _MONO_UNIT

    @staticmethod
    def of(jet, exp=1):
        if exp == 0:
            return _MONO_UNIT
        if exp < 0:
            raise ValueError("monomial exponents must be positive")
        return Monomial(((jet, exp),))

    @staticmethod
    def from_pairs(pairs):
        merged = {}
        for j, e in pairs:
            merged[j] = merged.get(j, 0) + e
        out = [(j, e) for j, e in merged.items() if e != 0]
        if any(e < 0 for _, e in out):
            raise ValueError("monomial exponents must be positive")
        out.sort(key=lambda p: p[0].rkey, reverse=True)
        return Monomial(tuple(out))

    def mul(self, other):
        if not self.factors:
            return other
        if not other.factors:
            return self
        out = []
        a, b = self.factors, other.factors
        i = j = 0
        while i < len(a) and j < len(b):
            ja, jb = a[i], b[j]
            ka, kb = ja[0].rkey, jb[0].rkey
            if ka > kb:
                out.append(ja)
                i += 1
            elif kb > ka:
                out.append(jb)
                j += 1
            else:
                out.append((ja[0], ja[1] + jb[1]))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial(tuple(out))

    def divides(self, other):
        j = 0
        for jet, e in self.factors:
            while j < len(other.factors) and other.factors[j][0].rkey > jet.rkey:
                j += 1
            if j >= len(other.factors) or other.factors[j][0] is not jet or other.factors[j][1] < e:
                return False
        return True

    def div(self, other):
        """Quotient self / other (other must divide self)."""
        out = []
        a = self.factors
        i = 0
        for jet, e in other.factors:
            rkey = jet.rkey
            while i < len(a) and a[i][0].rkey > rkey:
                out.append(a[i])
                i += 1
            if i == len(a) or a[i][0] is not jet or a[i][1] < e:
                raise ValueError("monomial division is not exact")
            if a[i][1] > e:
                out.append((jet, a[i][1] - e))
            i += 1
        out.extend(a[i:])
        return Monomial(tuple(out))

    def without(self, jet):
        """Split into (exponent of jet, remaining monomial); a monomial
        free of jet is its own remainder."""
        for idx, (j, k) in enumerate(self.factors):
            if j is jet:
                return k, Monomial(self.factors[:idx] + self.factors[idx + 1:])
        return 0, self

    def jets(self):
        return [j for j, _ in self.factors]

    def __eq__(self, other):
        return self is other or (isinstance(other, Monomial) and self.factors == other.factors)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.factors:
            return "Monomial(1)"
        return "Monomial(" + "*".join(
            j.text() + (f"^{e}" if e != 1 else "") for j, e in self.factors) + ")"


_MONO_UNIT = Monomial(())
_mono_key = attrgetter("key")


def _splice(factors, idx, dj):
    """factors with the exponent at idx lowered by one and dj multiplied in.

    dj is a derivative of the jet at idx, so it sorts after that jet and one
    forward scan finds its canonical position."""
    jet, exp = factors[idx]
    head = factors[:idx] + ((jet, exp - 1),) if exp > 1 else factors[:idx]
    rkey = dj.rkey
    k = idx + 1
    while k < len(factors) and factors[k][0].rkey > rkey:
        k += 1
    if k < len(factors) and factors[k][0] is dj:
        return head + factors[idx + 1:k] + ((dj, factors[k][1] + 1),) + factors[k + 1:]
    return head + factors[idx + 1:k] + ((dj, 1),) + factors[k:]


class _Pending:
    """A monomial waiting in divexact's heap, which pops the largest first."""

    __slots__ = ("key", "mono")

    def __init__(self, mono):
        self.key = mono.key
        self.mono = mono

    def __lt__(self, other):
        return self.key > other.key


# ---------------------------------------------------------------------------
# differential polynomials


_SCAN = object()


class DiffPoly:
    """Map monomial -> nonzero exact rational coefficient; zero is the empty map."""

    __slots__ = ("terms", "_space", "_hash")

    def __init__(self, terms, space=_SCAN):
        cap = _limits.get()[0]
        if len(terms) > cap:
            raise TermCapError(f"polynomial with {len(terms)} terms exceeds the cap of {cap}")
        self.terms = terms
        if not terms:
            space = None
        elif space is _SCAN:
            space = None
            for mono in terms:
                for jet in mono.jets():
                    s = jet.field.space
                    if space is None:
                        space = s
                    elif space is not s:
                        raise SpaceMismatchError(
                            f"jets from spaces {space.name!r} and {s.name!r} in one polynomial")
        self._space = space
        self._hash = None

    @staticmethod
    def zero():
        return _POLY_ZERO

    @staticmethod
    def const(c):
        c = _exact(c)
        if c == 0:
            return _POLY_ZERO
        return DiffPoly({_MONO_UNIT: c})

    @staticmethod
    def from_jet(jet, exp=1, coeff=1):
        c = _exact(coeff)
        if c == 0:
            return _POLY_ZERO
        return DiffPoly({Monomial.of(jet, exp): c})

    def space(self):
        return self._space

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _MONO_UNIT in self.terms)

    def const_value(self):
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[_MONO_UNIT])

    def jets(self):
        return _jets((self,))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].key, reverse=True)

    def leading(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lm = max(self.terms, key=_mono_key)
        return lm, self.terms[lm]

    def _check_space(self, other):
        if (self._space is not None and other._space is not None
                and self._space is not other._space):
            raise SpaceMismatchError(
                f"cannot combine spaces {self._space.name!r} and {other._space.name!r}")

    def add(self, other):
        self._check_space(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return DiffPoly(out, self._space if self._space is not None else other._space)

    def neg(self):
        return DiffPoly({m: -c for m, c in self.terms.items()}, self._space)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        c = _exact(c)
        if c == 0:
            return _POLY_ZERO
        if c == 1:
            return self
        if type(c) is int:
            return DiffPoly({m: c * q for m, q in self.terms.items()}, self._space)
        return DiffPoly({m: _exact(c * q) for m, q in self.terms.items()}, self._space)

    def mul(self, other):
        self._check_space(other)
        if not self.terms or not other.terms:
            return _POLY_ZERO
        if other.is_const():
            return self.scale(other.const_value())
        if self.is_const():
            return other.scale(self.const_value())
        out = {}
        cap = _limits.get()[0]
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
            if len(out) > cap:
                raise TermCapError(f"product exceeded the term cap of {cap}")
        return DiffPoly(out, self._space if self._space is not None else other._space)

    def total_derivative(self, var):
        out = {}
        for mono, coeff in self.terms.items():
            factors = mono.factors
            for idx, (jet, exp) in enumerate(factors):
                dj = jet.derived(var)
                if dj is None:
                    continue
                m = Monomial(_splice(factors, idx, dj))
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
        return DiffPoly(out, self._space)

    def divexact(self, other):
        """Exact quotient self/other, or None if other does not divide self
        within 8*(len(self.terms) + len(other.terms)) + 64 steps.

        The pending terms wait in a heap that pops the largest monomial
        first; a cancelled term leaves its entry behind, to be skipped when
        it surfaces.  Each step cancels the largest pending term, so the
        quotient's monomials come out distinct and in descending order."""
        if other.is_zero():
            raise ZeroDivisionExprError("polynomial division by zero")
        if other.is_const():
            return self.scale(1 / other.const_value())
        if self.is_zero():
            return _POLY_ZERO
        self._check_space(other)
        glm, glc = other.leading()
        work = dict(self.terms)
        pending = [_Pending(m) for m in work]
        heapify(pending)
        quot = {}
        for _ in range(8 * (len(self.terms) + len(other.terms)) + 64):
            if not work:
                return DiffPoly(quot, self._space)
            lm = heappop(pending).mono
            while lm not in work:
                lm = heappop(pending).mono
            if not glm.divides(lm):
                return None
            qm = lm.div(glm)
            qc, rem = divmod(work[lm], glc)
            if rem:
                qc = Fraction(work[lm], glc)
            quot[qm] = qc
            for m, c in other.terms.items():
                mm = m.mul(qm)
                s = work.get(mm)
                if s is None:
                    work[mm] = -c * qc
                    heappush(pending, _Pending(mm))
                else:
                    s = s - c * qc
                    if s:
                        work[mm] = s
                    else:
                        del work[mm]
        return None

    def __eq__(self, other):
        return self is other or (isinstance(other, DiffPoly) and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "DiffPoly(0)"
        bits = []
        for m, c in self.sorted_terms():
            bits.append(f"{c}*{m!r}")
        return "DiffPoly(" + " + ".join(bits) + ")"


_POLY_ZERO = DiffPoly({})
_POLY_ONE = DiffPoly({_MONO_UNIT: 1})


def _jets(polys):
    """The jets of polys, in order of first occurrence."""
    seen = {}
    for poly in polys:
        for mono in poly.terms:
            for jet, _ in mono.factors:
                seen[jet] = None
    return seen.keys()


def _quotient_space(terms, space):
    """The space a scanning DiffPoly(terms) finds, when each monomial of
    terms divides one of a polynomial over space: None if the only
    monomial is the unit."""
    return None if len(terms) == 1 and _MONO_UNIT in terms else space


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _may_divide(num, den):
    """False only where num.divexact(den) returns None; num is nonzero.

    If num = q*den, the leading monomial of num is lead(q)*lead(den) and its
    trailing one trail(q)*trail(den): the monomial order is compatible with
    multiplication, and over Q the coefficients of those products cannot
    cancel.  So den's leading and trailing monomials must divide num's.  The
    trailing test runs only once the leading one has passed."""
    num._check_space(den)
    if not max(den.terms, key=_mono_key).divides(max(num.terms, key=_mono_key)):
        return False
    return min(den.terms, key=_mono_key).divides(min(num.terms, key=_mono_key))


def _monomial_gcd(polys):
    """Componentwise minimum exponent over every term of every polynomial."""
    common = None
    for p in polys:
        for mono in p.terms:
            if common is None:
                common = dict(mono.factors)
            else:
                common = {j: min(e, common[j]) for j, e in mono.factors if j in common}
            if not common:
                return _MONO_UNIT
    return Monomial(tuple(common.items())) if common else _MONO_UNIT


def _primitive(polys, mono, negate):
    """Divide the polynomials by the monomial mono and by their joint content.

    Returns (k, scale, polys): the content is k/scale, negative if negate is
    set, and the new polynomials have coprime int coefficients."""
    coeffs = [c for p in polys for c in p.terms.values()]
    try:
        k, scale = gcd(*coeffs), 1
    except TypeError:
        # some coefficients are Fractions: clear their denominators first
        scale = lcm(*[c.denominator for c in coeffs])
        coeffs = [c.numerator * (scale // c.denominator) for c in coeffs]
        k = gcd(*coeffs)
    else:
        if k == 1 and not negate and not mono.factors:
            return k, scale, polys
    if negate:
        k = -k
    coeffs = iter(coeffs)
    if not mono.factors:
        return k, scale, [DiffPoly({m: next(coeffs) // k for m in p.terms}, p._space)
                          for p in polys]
    quotients = [(p, {m.div(mono): next(coeffs) // k for m in p.terms}) for p in polys]
    return k, scale, [DiffPoly(terms, _quotient_space(terms, p._space))
                      for p, terms in quotients]


# ---------------------------------------------------------------------------
# rational expressions


class RatExpr:
    """Normalized quotient of two differential polynomials.

    Invariants: den is nonzero; joint integer content of num and den is 1; the
    leading coefficient of den is positive; no monomial divides every term of
    both num and den; zero is canonically 0/1.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den):
        # use RatExpr.make; this constructor trusts its arguments
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def make(num, den=_POLY_ONE):
        if den.is_zero():
            raise ZeroDivisionExprError("denominator is identically zero")
        num._check_space(den)
        if num.is_zero():
            return RatExpr(_POLY_ZERO, _POLY_ONE)
        # the denominator goes first: a constant one ends the search at once
        common = _monomial_gcd((den, num))
        _, _, (num, den) = _primitive((num, den), common, den.leading()[1] < 0)
        return RatExpr(num, den)

    @staticmethod
    def const(c):
        c = Fraction(c)
        if c == 0:
            return RAT_ZERO
        return RatExpr(DiffPoly.const(c.numerator), DiffPoly.const(c.denominator))

    @staticmethod
    def from_jet(jet):
        return RatExpr(DiffPoly.from_jet(jet), _POLY_ONE)

    def space(self):
        return self.num.space() or self.den.space()

    def is_zero(self):
        return self.num.is_zero()

    def jets(self):
        return _jets((self.num, self.den))

    def term_count(self):
        return len(self.num.terms) + len(self.den.terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatExpr):
            return x
        if isinstance(x, (int, Fraction)):
            return RatExpr.const(x)
        if isinstance(x, JetVar):
            return RatExpr.from_jet(x)
        raise TypeError(f"cannot use {type(x).__name__} as a rational expression")

    def add(self, other):
        other = RatExpr._coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatExpr.make(self.num.add(other.num), self.den)
        if _may_divide(other.den, self.den):
            q = other.den.divexact(self.den)
            if q is not None:
                return RatExpr.make(self.num.mul(q).add(other.num), other.den)
        if _may_divide(self.den, other.den):
            q = self.den.divexact(other.den)
            if q is not None:
                return RatExpr.make(self.num.add(other.num.mul(q)), self.den)
        return RatExpr.make(
            self.num.mul(other.den).add(other.num.mul(self.den)),
            self.den.mul(other.den))

    def neg(self):
        if self.is_zero():
            return self
        return RatExpr(self.num.neg(), self.den)

    def sub(self, other):
        return self.add(RatExpr._coerce(other).neg())

    def mul(self, other):
        other = RatExpr._coerce(other)
        if self.is_zero() or other.is_zero():
            return RAT_ZERO
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not d2.is_const() and _may_divide(n1, d2):
            q = n1.divexact(d2)
            if q is not None:
                n1, d2 = q, _POLY_ONE
        if not d1.is_const() and _may_divide(n2, d1):
            q = n2.divexact(d1)
            if q is not None:
                n2, d1 = q, _POLY_ONE
        return RatExpr.make(n1.mul(n2), d1.mul(d2))

    def div(self, other):
        other = RatExpr._coerce(other)
        if other.is_zero():
            raise ZeroDivisionExprError("division by an identically zero expression")
        return self.mul(RatExpr.make(other.den, other.num))

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionExprError("inverse of the zero expression")
        return RatExpr.make(self.den, self.num)

    def pow(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k == 0:
            return RAT_ONE
        base = self
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionExprError("zero base raised to a negative power")
            base = self.inv()
            k = -k
        out = None
        acc = base
        while k:
            if k & 1:
                out = acc if out is None else out.mul(acc)
            k >>= 1
            if k:
                acc = acc.mul(acc)
        return out

    def total_derivative(self, var):
        space = self.space()
        if space is not None and var not in space._var_pos:
            raise UnknownVariableError(
                f"variable {var!r} does not belong to space {space.name!r}")
        num, den = self.num, self.den
        dn = num.total_derivative(var)
        dd = den.total_derivative(var)
        if dd.is_zero():
            return RatExpr.make(dn, den)
        return RatExpr.make(dn.mul(den).sub(num.mul(dd)), den.mul(den))

    __add__ = add
    __radd__ = add
    __sub__ = sub
    __mul__ = mul
    __rmul__ = mul
    __truediv__ = div
    __pow__ = pow
    __neg__ = neg

    def __rsub__(self, other):
        return RatExpr._coerce(other).sub(self)

    def __rtruediv__(self, other):
        return RatExpr._coerce(other).div(self)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, RatExpr)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"RatExpr({self.num!r} / {self.den!r})"


RAT_ZERO = RatExpr(_POLY_ZERO, _POLY_ONE)
RAT_ONE = RatExpr(_POLY_ONE, _POLY_ONE)


# ---------------------------------------------------------------------------
# spec operations


def total_derivative(e, var):
    return RatExpr._coerce(e).total_derivative(var)


def is_zero(e):
    return RatExpr._coerce(e).is_zero()


class Cofactor:
    """Rational multiple of a monomial with integer (possibly negative) exponents."""

    __slots__ = ("coeff", "powers")

    def __init__(self, coeff, powers):
        self.coeff = Fraction(coeff)
        self.powers = tuple(sorted(powers, key=lambda p: p[0].rkey, reverse=True))

    def as_ratexpr(self):
        out = RatExpr.const(self.coeff)
        for jet, e in self.powers:
            out = out.mul(RatExpr.from_jet(jet).pow(e))
        return out

    def text(self):
        bits = []
        if self.coeff != 1 or not self.powers:
            bits.append(str(self.coeff))
        for jet, e in self.powers:
            bits.append(jet.text() + (f"^{e}" if e != 1 else ""))
        return "*".join(bits)

    def __eq__(self, other):
        return (isinstance(other, Cofactor)
                and self.coeff == other.coeff and self.powers == other.powers)

    def __hash__(self):
        return hash((self.coeff, self.powers))

    def __repr__(self):
        return f"Cofactor({self.text()})"


def _strip(poly):
    """Split poly into (signed content, monomial gcd, primitive core)."""
    m = _monomial_gcd((poly,))
    k, scale, (core,) = _primitive((poly,), m, poly.leading()[1] < 0)
    return Fraction(k, scale), m, core


def proportional(a, b):
    """Cofactor c with a = c*b where c is rational times a monomial, else None.

    Pure-monomial inputs are proportional only by a rational factor: a lone
    jet is never reported as a monomial multiple of a different lone jet.
    """
    a = RatExpr._coerce(a)
    b = RatExpr._coerce(b)
    if a.is_zero() or b.is_zero():
        raise ZeroDivisionExprError("proportional() requires nonzero inputs")
    if a.den == b.den:
        f, g = a.num, b.num
    else:
        f = a.num.mul(b.den)
        g = b.num.mul(a.den)
    cf, mf, fcore = _strip(f)
    cg, mg, gcore = _strip(g)
    if fcore != gcore:
        return None
    if fcore.is_const() and mf != mg:
        return None
    powers = {j: e for j, e in mf.factors}
    for j, e in mg.factors:
        powers[j] = powers.get(j, 0) - e
    return Cofactor(cf / cg, [(j, e) for j, e in powers.items() if e])


def substitute_jet(e, jet, replacement):
    """Replace every occurrence of jet in e by the given expression (exactly):
    numerator and denominator are substituted and then divided."""
    replacement = RatExpr._coerce(replacement)
    e = RatExpr._coerce(e)

    def sub_poly(poly):
        out = RAT_ZERO
        for k, part in _by_exponent(poly, jet):
            part = RatExpr.make(part)
            if k:
                part = part.mul(replacement.pow(k))
            out = out.add(part)
        return out

    num = sub_poly(e.num)
    den = sub_poly(e.den)
    return num.div(den)


def _by_exponent(poly, jet):
    """[(k, the polynomial of the remainders of poly's terms with jet^k)], in
    ascending k; mono = jet^k * rest, so a remainder occurs once per k."""
    by_exp = {}
    for mono, coeff in poly.terms.items():
        k, rest = mono.without(jet)
        by_exp.setdefault(k, {})[rest] = coeff
    return [(k, DiffPoly(bucket, _quotient_space(bucket, poly._space)))
            for k, bucket in sorted(by_exp.items())]


def substitute_fraction_free(poly, jet, replacement):
    """(mult * poly[jet := r/c], mult), for a replacement r/c whose
    denominator c is constant: mult = c^K, where K is the highest exponent
    of jet in poly, so int coefficients in poly and r give int ones out.
    A poly free of jet comes back as itself, with mult 1.

    One pass over poly's terms puts a term free of jet straight into the
    result and every other term into a bucket for its exponent, keyed by
    the rest of its monomial.  Bucket k, times c^(K-k), is multiplied by
    r^k and added in ascending k, as substitute_jet's general route adds
    its buckets.  r^k is built by the products RatExpr.pow makes, so the
    result has the terms of that route's numerator in the same order."""
    if not replacement.den.is_const():
        raise ValueError("a DiffPoly takes only a replacement with a constant denominator")
    out, buckets = {}, {}
    for mono, coeff in poly.terms.items():
        k, rest = mono.without(jet)
        if k:
            buckets.setdefault(k, {})[rest] = coeff
        else:
            out[mono] = coeff
    if not buckets:
        return poly, 1
    poly._check_space(replacement.num)
    c = replacement.den.terms[_MONO_UNIT]
    top = max(buckets)
    mult = c ** top
    if mult != 1:
        out = {m: mult * q for m, q in out.items()}
    squares = [replacement.num]   # r, r^2, r^4, ...
    for k in sorted(buckets):
        power = None
        for bit in range(k.bit_length()):
            if bit == len(squares):
                squares.append(squares[-1].mul(squares[-1]))
            if k >> bit & 1:
                power = squares[bit] if power is None else power.mul(squares[bit])
        bucket, s = buckets[k], c ** (top - k)
        if s != 1:
            bucket = {m: s * q for m, q in bucket.items()}
        part = DiffPoly(bucket, _quotient_space(bucket, poly._space)).mul(power)
        for m, q in part.terms.items():
            t = out.get(m)
            if t is None:
                out[m] = q
            else:
                t += q
                if t:
                    out[m] = t
                else:
                    del out[m]
    return DiffPoly(out, _quotient_space(out, poly._space)), mult


def settle(num, den, mult=1):
    """RatExpr num/(mult*den), normalized after the one trial division of
    num by den that RatExpr.mul makes; mult is a nonzero constant."""
    if num.terms and not den.is_const() and _may_divide(num, den):
        q = num.divexact(den)
        if q is not None:
            return RatExpr.make(q, DiffPoly.const(mult))
    return RatExpr.make(num, den.scale(mult))


def prolong(images, base, jet, derive):
    """images[jet], prolonged from base by total derivatives.

    images holds base's image.  A missing jet is lowered along the first
    variable in which it exceeds base, the lower image is prolonged in turn,
    and derive(jet, lower_image, var) gives the image, which is memoised in
    images.  A jet that does not dominate base raises DiffAlgError."""
    image = images.get(jet)
    if image is not None:
        return image
    if not jet.dominates(base):
        raise DiffAlgError(f"{jet.text()} is not a prolongation of {base.text()}")
    var = next(v for v, have, want in zip(jet.field.deps, base.orders, jet.orders)
               if want > have)
    image = derive(jet, prolong(images, base, jet.lowered(var), derive), var)
    images[jet] = image
    return image


# ---------------------------------------------------------------------------
# seeded random expressions (shared by property tests and commutation checks)


def random_jet(space, rng, max_order=2):
    field = rng.choice(space.fields)
    orders = [0] * len(field.deps)
    for _ in range(rng.randrange(0, max_order + 1)):
        orders[rng.randrange(len(field.deps))] += 1
    return JetVar(field, tuple(orders))


def random_expr(space, rng, max_terms=3, max_factors=2, max_order=2, rational=False):
    """Small random expression over the given space, deterministic in rng."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        pairs = {}
        for _ in range(rng.randrange(1, max_factors + 1)):
            j = random_jet(space, rng, max_order)
            pairs[j] = pairs.get(j, 0) + rng.randrange(1, 3)
        mono = Monomial.from_pairs(pairs.items())
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    terms = {m: c for m, c in terms.items() if c}
    num = DiffPoly(terms) if terms else DiffPoly.const(rng.choice([1, 2]))
    e = RatExpr.make(num)
    if rational and rng.random() < 0.5:
        j = random_jet(space, rng, 1)
        e = e.div(RatExpr.from_jet(j).add(RatExpr.const(rng.choice([1, 2, 3]))))
    return e
