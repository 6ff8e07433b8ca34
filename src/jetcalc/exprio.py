"""Parse jet expressions from plain text; print them as text, LaTeX or JSON
trees.

Grammar:
    expr     := term (("+"|"-") term)*
    term     := factor (("*"|"/") factor)*
    factor   := base ("^" integer)?
    base     := rational | jet | "(" expr ")" | "-" factor
    jet      := name ("[" natural "]")? ("_" "{" varname ("," varname)* "}")?
    rational := integer ("/" natural)?

Derivative subscripts are explicit variable lists; commas between variable
names are optional (multi-character names like T0 are matched greedily against
the space's declared variables).  The parser is always scoped to one VarSpace,
so a letter that is a field in one space and a variable in another is never
ambiguous.  A division by a factor that is zero, or a zero base raised to a
negative power, is a ParseError at the span of that factor.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from .diffalg import RatExpr


class SourceSpan(namedtuple("SourceSpan", "begin end")):
    __slots__ = ()

    def __new__(cls, begin, end):
        if begin > end:
            raise ValueError("span begin must not exceed end")
        return super().__new__(cls, begin, end)

    @classmethod
    def _make(cls, fields):
        # _replace builds its copy through _make: check the copy's bounds too
        return cls(*fields)


class ParseError(ValueError):
    def __init__(self, message, span):
        super().__init__(f"{message} at {span.begin}..{span.end}")
        self.message = message
        self.span = span


class _Lexer:
    SYMBOLS = "+-*/^()[]{}_,"

    def __init__(self, text):
        self.text = text
        self.tokens = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("num", text[i:j], i, j))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and text[j].isalnum():
                    j += 1
                self.tokens.append(("name", text[i:j], i, j))
                i = j
                continue
            if ch in self.SYMBOLS:
                self.tokens.append((ch, ch, i, i + 1))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", SourceSpan(i, i + 1))
        self.tokens.append(("end", "", n, n))


class _Parser:
    def __init__(self, text, space):
        self.text = text
        self.space = space
        self.tokens = _Lexer(text).tokens
        self.pos = 0
        # longest-match table for subscript variable names
        self.varnames = sorted(space.vars, key=len, reverse=True)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}",
                             SourceSpan(tok[2], tok[3]))
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", SourceSpan(tok[2], tok[3]))
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = e.add(rhs) if op == "+" else e.sub(rhs)
        return e

    def since(self, tok):
        """The span from tok to the last token read."""
        return SourceSpan(tok[2], self.tokens[self.pos - 1][3])

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            first = self.peek()
            rhs = self.factor()
            if op == "*":
                e = e.mul(rhs)
            elif rhs.is_zero():
                raise ParseError("division by zero", self.since(first))
            else:
                e = e.div(rhs)
        return e

    def factor(self):
        first = self.peek()
        e = self.base()
        if self.peek()[0] == "^":
            span = self.since(first)
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.expect("num")
            if sign < 0 and e.is_zero():
                raise ParseError("zero raised to a negative power", span)
            e = e.pow(sign * int(tok[1]))
        return e

    def base(self):
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            value = Fraction(int(tok[1]))
            return RatExpr.const(value)
        if tok[0] == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok[0] == "-":
            self.next()
            return self.factor().neg()
        if tok[0] == "name":
            return self.jet()
        raise ParseError(f"expected an expression, found {tok[1]!r}",
                         SourceSpan(tok[2], tok[3]))

    def jet(self):
        tok = self.expect("name")
        name = tok[1]
        name_span = SourceSpan(tok[2], tok[3])
        index = None
        if self.peek()[0] == "[":
            self.next()
            num = self.expect("num")
            index = int(num[1])
            close = self.expect("]")
            if not self.space.has_field(name, index):
                if self.space.has_field(name, 1):
                    raise ParseError(f"index {index} out of range for field {name!r}",
                                     SourceSpan(num[2], num[3]))
                raise ParseError(f"unknown field {name!r}",
                                 SourceSpan(tok[2], close[3]))
        else:
            if not self.space.has_field(name, None):
                if self.space.has_field(name, 1):
                    raise ParseError(f"field {name!r} requires an index", name_span)
                if name in self.space.vars:
                    raise ParseError(
                        f"{name!r} is an independent variable of this space, not a field",
                        name_span)
                raise ParseError(f"unknown field {name!r}", name_span)
        field = self.space.field(name, index)
        orders = {}
        if self.peek()[0] == "_":
            self.next()
            open_tok = self.expect("{")
            # raw scan: greedy longest match over declared variable names
            start = open_tok[3]
            close = self.text.find("}", start)
            if close < 0:
                raise ParseError("unterminated derivative subscript",
                                 SourceSpan(open_tok[2], len(self.text)))
            i = start
            while i < close:
                ch = self.text[i]
                if ch.isspace() or ch == ",":
                    i += 1
                    continue
                for v in self.varnames:
                    if self.text.startswith(v, i):
                        orders[v] = orders.get(v, 0) + 1
                        i += len(v)
                        break
                else:
                    j = i
                    while j < close and self.text[j].isalnum():
                        j += 1
                    frag = self.text[i:max(j, i + 1)]
                    raise ParseError(f"unknown variable {frag!r}",
                                     SourceSpan(i, max(j, i + 1)))
            if not orders:
                raise ParseError("empty derivative subscript",
                                 SourceSpan(open_tok[2], close + 1))
            # resynchronize token stream past the closing brace
            while self.tokens[self.pos][2] < close:
                self.pos += 1
            self.expect("}")
        for v in orders:
            if v not in field._dep_pos:
                raise ParseError(
                    f"field {field.label()} does not depend on {v!r}", name_span)
        return RatExpr.from_jet(field.jet(**orders))


def parse(text, space):
    """Parse a textual expression scoped to the given space."""
    return _Parser(text, space).parse()


# ---------------------------------------------------------------------------
# printing


def _mono_text(mono):
    return "*".join(j.text() + (f"^{e}" if e != 1 else "") for j, e in mono.factors)


def _poly_str(poly, coeff_str, mono_str, joiner):
    """poly's terms in monomial order as signed coeff/monomial bodies; a unit
    magnitude is left out of a non-constant term."""
    if poly.is_zero():
        return "0"
    bits = []
    for k, (mono, coeff) in enumerate(poly.sorted_terms()):
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        if not mono.factors:
            body = coeff_str(mag)
        elif mag == 1:
            body = mono_str(mono)
        else:
            body = coeff_str(mag) + joiner + mono_str(mono)
        if k == 0:
            bits.append(body if sign == "+" else "-" + body)
        else:
            bits.append(f" {sign} {body}")
    return "".join(bits)


def _poly_text(poly):
    return _poly_str(poly, str, _mono_text, "*")


def print_text(e):
    e = RatExpr._coerce(e)
    if e.den.is_const():
        return _poly_text(e.num.scale(Fraction(1) / e.den.const_value()))
    return f"({_poly_text(e.num)})/({_poly_text(e.den)})"


_LATEX_FIELD = {"Omega": r"\Omega", "w": r"\omega"}


def _latex_var_labels(field):
    labels = []
    for v in field.deps:
        if len(v) > 1 and v[0] == "T" and v[1:].isdigit():
            labels.append(v[1:])
        else:
            labels.append(v)
    return labels


def _jet_latex(jet):
    field = jet.field
    s = _LATEX_FIELD.get(field.name, field.name)
    if field.index is not None:
        s += f"^{{({field.index})}}"
    labels = _latex_var_labels(field)
    subs = []
    for lab, k in zip(labels, jet.orders):
        subs.extend([lab] * k)
    if subs:
        sep = "," if any(len(lab) > 1 for lab in subs) else ""
        s += "_{" + sep.join(subs) + "}"
    return s


def _mono_latex(mono):
    return "".join(
        _jet_latex(j) + (f"^{{{e}}}" if e != 1 else "") for j, e in mono.factors)


def _coeff_latex(c):
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"


def _poly_latex(poly):
    return _poly_str(poly, _coeff_latex, _mono_latex, "")


def print_latex(e):
    e = RatExpr._coerce(e)
    if e.den.is_const():
        return _poly_latex(e.num.scale(Fraction(1) / e.den.const_value()))
    return rf"\frac{{{_poly_latex(e.num)}}}{{{_poly_latex(e.den)}}}"


def _poly_tree(poly):
    out = []
    for mono, coeff in poly.sorted_terms():
        factors = []
        for jet, exp in mono.factors:
            factors.append([
                jet.field.name,
                jet.field.index,
                [[v, k] for v, k in zip(jet.field.deps, jet.orders) if k],
                exp,
            ])
        out.append([str(coeff), factors])
    return out


def to_json(e):
    e = RatExpr._coerce(e)
    space = e.space()
    tree = {
        "format": "jetexpr-v1",
        "space": space.name if space is not None else None,
        "num": _poly_tree(e.num),
        "den": _poly_tree(e.den),
    }
    return json.dumps(tree, separators=(",", ":"))


def print_expr(e, fmt="text"):
    """Print in one of the formats {text, latex, json}."""
    if fmt == "text":
        return print_text(e)
    if fmt == "latex":
        return print_latex(e)
    if fmt == "json":
        return to_json(e)
    raise ValueError(f"unknown print format {fmt!r}")
