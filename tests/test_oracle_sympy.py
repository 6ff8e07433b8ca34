"""Independent oracle: re-derives the frozen values with sympy.

Nothing here reuses the package's algebra: expressions are rebuilt from sympy
Function objects and real partial derivatives, the reciprocal/composite
changes are applied by explicit chain rules, and reductions substitute solved
leading derivatives until fixpoint.  The engine's outputs are converted to
sympy and compared against these independent computations.
"""

import pytest

sympy = pytest.importorskip("sympy")
import sympy as sp

from jetcalc.diffalg import proportional
from jetcalc.hierarchies import (ch_space, gen_cbs_family, gen_ch,
                                 gen_mcbs_family, gen_qiao, r_space)
from jetcalc.reduction import standard_systems
from jetcalc.transform import build_map


def r_symbols(n):
    return sp.symbols(f"T0:{n + 1}")


def to_sympy(e, funcs, syms):
    """Convert an engine expression to sympy (funcs: field label -> function)."""

    def poly(p):
        total = sp.Integer(0)
        for mono, coeff in p.terms.items():
            term = sp.Rational(coeff.numerator, coeff.denominator)
            for jet, exp in mono.factors:
                f = funcs[jet.field.label()]
                pairs = [(syms[v], k) for v, k in zip(jet.field.deps, jet.orders) if k]
                d = sp.Derivative(f, *pairs) if pairs else f
                term *= d ** exp
            total += term
        return total

    return poly(e.num) / poly(e.den)


def r_context(n):
    T = r_symbols(n)
    syms = {f"T{k}": T[k] for k in range(n + 1)}
    funcs = {name: sp.Function(name)(*T) for name in ("X", "x", "M", "m")}
    return T, syms, funcs


def ch_context(n):
    Xv, Tv = sp.symbols("Xv Tv")
    syms = {"X": Xv, "T": Tv}
    funcs = {"P": sp.Function("P")(Xv, Tv)}
    for i in range(1, n + 1):
        funcs[f"Omega[{i}]"] = sp.Function(f"W{i}")(Xv, Tv)
    return (Xv, Tv), syms, funcs


def q_context(n):
    xv, tv = sp.symbols("xv tv")
    syms = {"x": xv, "t": tv}
    funcs = {"u": sp.Function("u")(xv, tv)}
    for i in range(1, n + 1):
        funcs[f"v[{i}]"] = sp.Function(f"v{i}")(xv, tv)
        funcs[f"w[{i}]"] = sp.Function(f"w{i}")(xv, tv)
    return (xv, tv), syms, funcs


def _assert_equal_forms(pairs):
    for engine, form in pairs:
        assert sp.expand((engine - form).doit()) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_ch_hierarchy_has_its_recursion_operator_form(n):
    # U = P^2, K = d^3 - d and J = -(1/2)(d U + U d), d = d_X: chained, the
    # identities give U_T = (J K^-1)^n U_X
    (Xv, Tv), syms, funcs = ch_context(n)
    P = funcs["P"]
    W = {i: funcs[f"Omega[{i}]"] for i in range(1, n + 1)}
    U = P ** 2

    def K(f):
        return sp.diff(f, Xv, 3) - sp.diff(f, Xv)

    def J(f):
        return -(sp.diff(U * f, Xv) + U * sp.diff(f, Xv)) / 2

    e = [to_sympy(eq.residual, funcs, syms) for eq in gen_ch(n)]
    _assert_equal_forms([(2 * P * e[0], sp.diff(U, Tv) - J(W[1]))]
                        + [(e[i], K(W[i]) - J(W[i + 1])) for i in range(1, n)]
                        + [(sp.diff(e[n], Xv), sp.diff(U, Xv) - K(W[n]))])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_qiao_hierarchy_has_its_recursion_operator_form(n):
    # k = d^3 - d and j v_i = -d(u w_i), d = d_x, with w_i realising
    # d^-1(u v_i,x) through E_Qw_i
    (xv, tv), syms, funcs = q_context(n)
    u = funcs["u"]
    v = {i: funcs[f"v[{i}]"] for i in range(1, n + 1)}
    w = {i: funcs[f"w[{i}]"] for i in range(1, n + 1)}

    def k(f):
        return sp.diff(f, xv, 3) - sp.diff(f, xv)

    def j(i):
        return -sp.diff(u * w[i], xv)

    e = {eq.label: to_sympy(eq.residual, funcs, syms) for eq in gen_qiao(n)}
    _assert_equal_forms([(e[f"E_Qw{i}"], sp.diff(w[i], xv) - u * sp.diff(v[i], xv))
                         for i in range(1, n + 1)]
                        + [(e["E_Q0"], sp.diff(u, tv) - j(1))]
                        + [(e[f"E_Q{i}"], k(v[i]) - j(i + 1)) for i in range(1, n)]
                        + [(sp.diff(e[f"E_Q{n}n"], xv), sp.diff(u, xv) - k(v[n]))])


def test_transported_p_t_against_sympy_chain_rule():
    n = 2
    T, syms, funcs = r_context(n)
    X = funcs["X"]
    X0 = sp.diff(X, T[0])
    independent = sp.diff(1 / X0, T[1]) - sp.diff(X, T[1]) / X0 * sp.diff(1 / X0, T[0])
    engine = build_map("R_CH", n).transport(ch_space(n).expr("P", T=1))
    assert sp.simplify(to_sympy(engine, funcs, syms) - independent) == 0


def test_bcbs_orientation_is_negated_paper_form():
    # the generated residual is RHS - LHS of the displayed transformed system,
    # which makes the C2 cofactor come out as +2*X0^-2
    n = 2
    T, syms, funcs = r_context(n)
    X = funcs["X"]
    X0 = sp.diff(X, T[0])
    S = sp.diff(X, T[0], 2) / X0 + X0
    paper_lhs_minus_rhs = (-sp.diff(sp.diff(X, T[2]) / X0, T[0])
                           - sp.diff(sp.diff(S, T[0]) - S ** 2 / 2, T[1]))
    engine = to_sympy(gen_cbs_family(n).bcbs[0].residual, funcs, syms)
    assert sp.simplify(engine + paper_lhs_minus_rhs) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_c2_cofactor_via_sympy_ratio(n):
    T, syms, funcs = r_context(n)
    X = funcs["X"]
    X0 = sp.diff(X, T[0])

    def DX(f):
        return sp.diff(f, T[0]) / X0

    def img_w(i):
        return 2 * sp.diff(X, T[i])

    for i in range(1, n):
        e = (DX(DX(DX(img_w(i)))) - DX(img_w(i))
             + (1 / X0) * (DX(1 / X0) * img_w(i + 1) + (1 / X0) * DX(img_w(i + 1))))
        target = to_sympy(gen_cbs_family(n).bcbs[i - 1].residual, funcs, syms)
        ratio = sp.simplify(sp.together(e) / sp.together(target))
        assert sp.simplify(ratio - 2 / X0 ** 2) == 0
        engine_cof = proportional(
            build_map("R_CH", n).transport(gen_ch(n)[i].residual),
            gen_cbs_family(n).bcbs[i - 1].residual)
        assert engine_cof is not None and engine_cof.text() == "2*X_{T0}^-2"


def test_c4_cofactor_via_sympy_ratio():
    n = 2
    T, syms, funcs = r_context(n)
    x = funcs["x"]
    x0 = sp.diff(x, T[0])

    def Dx(f):
        return sp.diff(f, T[0]) / x0

    vx = sp.diff(x, T[0], T[1])
    e = (Dx(Dx(vx)) - vx
         + Dx(1 / x0) * sp.diff(x, T[2]) + (1 / x0) * Dx(sp.diff(x, T[2])))
    target = to_sympy(gen_mcbs_family(n).bmcbs[0].residual, funcs, syms)
    ratio = sp.simplify(sp.together(e) / sp.together(target))
    assert sp.simplify(ratio - 1 / x0) == 0


def _ch_reduce_sympy(expr, P, W, Xv, Tv, n, maxiter=300):
    p_t_rhs = -sp.Rational(1, 2) * sp.diff(P * W[1], Xv)
    for _ in range(maxiter):
        expr = sp.expand(expr.doit())
        hit = False
        for d in expr.atoms(sp.Derivative):
            counts = {Xv: 0, Tv: 0}
            for v, k in d.variable_count:
                counts[v] += k
            if d.expr == P and counts[Tv] >= 1:
                rep = sp.Derivative(p_t_rhs, (Xv, counts[Xv]), (Tv, counts[Tv] - 1)).doit()
                expr = expr.subs(d, rep)
                hit = True
                break
            for i in range(1, n):
                if d.expr == W[i] and counts[Xv] >= 3:
                    rhs = sp.diff(W[i], Xv) - P * sp.diff(P * W[i + 1], Xv)
                    rep = sp.Derivative(rhs, (Xv, counts[Xv] - 3), (Tv, counts[Tv])).doit()
                    expr = expr.subs(d, rep)
                    hit = True
                    break
            if hit:
                break
            if d.expr == W[n] and counts[Xv] >= 2:
                rep = sp.Derivative(P ** 2 + W[n], (Xv, counts[Xv] - 2), (Tv, counts[Tv])).doit()
                expr = expr.subs(d, rep)
                hit = True
                break
        if not hit:
            return sp.simplify(sp.together(expr))
    raise RuntimeError("sympy reduction did not reach a fixpoint")


def _jet_derivative(jet, funcs, syms):
    f = funcs[jet.field.label()]
    pairs = [(syms[v], k) for v, k in zip(jet.field.deps, jet.orders) if k]
    return sp.Derivative(f, *pairs)


def _assert_prolongations_match(system, rule, rhs, funcs, syms, extra):
    """For each tuple of variables in extra: the rule's right side prolonged
    to its lead differentiated along them equals sympy's derivative of rhs."""
    for variables in extra:
        jet = rule.lead
        for v in variables:
            jet = jet.derived(v)
        engine = to_sympy(system.prolonged_rhs(rule, jet), funcs, syms)
        independent = sp.diff(rhs, *(syms[v] for v in variables)) if variables else rhs
        gap = sp.together((engine - independent).doit())
        assert sp.expand(sp.numer(gap)) == 0, jet.text()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ch_prolonged_right_sides_are_sympy_derivatives(n):
    (Xv, Tv), syms, funcs = ch_context(n)
    P = funcs["P"]
    W = {i: funcs[f"Omega[{i}]"] for i in range(1, n + 1)}
    solved = [-sp.Rational(1, 2) * sp.diff(P * W[1], Xv)]
    solved += [sp.diff(W[i], Xv) - P * sp.diff(P * W[i + 1], Xv) for i in range(1, n)]
    solved.append(P ** 2 + W[n])
    system = standard_systems("CH", n)
    assert len(system.rules) == len(solved)
    for rule, rhs in zip(system.rules, solved):
        _assert_prolongations_match(system, rule, rhs, funcs, syms,
                                    [(), ("X",), ("T",), ("X", "X"), ("X", "T")])


@pytest.mark.parametrize("n", [2, 3])
def test_bcbs_rule_prolonged_right_sides_are_sympy_derivatives(n):
    # the last rule, X_{T0,Tn}, solved from the transformed equation by sympy
    T, syms, funcs = r_context(n)
    X = funcs["X"]
    X0 = sp.diff(X, T[0])
    S = sp.diff(X, T[0], 2) / X0 + X0
    i = n - 1
    resid = (sp.diff(sp.diff(X, T[i + 1]) / X0, T[0])
             + sp.diff(sp.diff(S, T[0]) - S ** 2 / 2, T[i]))
    lead = sp.Derivative(X, T[0], T[i + 1])
    num = sp.expand(sp.numer(sp.together(resid.doit())))
    a = num.coeff(lead, 1)
    solved = -(num - a * lead) / a
    system = standard_systems("BCBS", n)
    rule = system.rules[i - 1]
    assert rule.lead.text() == f"X_{{T0,T{n}}}"
    _assert_prolongations_match(system, rule, solved, funcs, syms,
                                [(), ("T0",), ("T1",), (f"T{n}",)])


def test_c9_headline_fully_independent_at_n1():
    (Xv, Tv), syms, funcs = ch_context(1)
    P, W1 = funcs["P"], funcs["Omega[1]"]
    W = {1: W1}
    gap = P - sp.diff(P, Xv)
    u = P ** 2 / gap
    w1 = (sp.diff(W1, Xv) + W1) / 2
    vx = (sp.diff(W1, Xv, 2) + sp.diff(W1, Xv)) / (2 * P)

    def Dx(f):
        return P / gap * sp.diff(f, Xv)

    def Dt(f):
        return sp.diff(f, Tv) + sp.diff(P, Tv) / gap * sp.diff(f, Xv)

    q0 = Dt(u) + Dx(u) * w1 + u * Dx(w1)
    qn = Dx(u) - Dx(Dx(vx)) + vx
    qw = Dx(w1) - u * vx
    for resid in (q0, qn, qw):
        assert _ch_reduce_sympy(sp.together(resid), P, W, Xv, Tv, 1) == 0

    # cross-check: the engine's transported E_Q0 agrees with the sympy image
    engine = build_map("C_MR", 1).transport(gen_qiao(1)[0].residual)
    assert sp.simplify(to_sympy(engine, funcs, syms) - q0) == 0


def test_c3_compatibility_independent_at_n2():
    n = 2
    T, syms, funcs = r_context(n)
    X = funcs["X"]
    X0 = sp.diff(X, T[0])
    S = sp.diff(X, T[0], 2) / X0 + X0
    A = sp.Rational(1, 4) * (sp.diff(S, T[0]) - S ** 2 / 2)
    B = -sp.Rational(1, 4) * sp.diff(X, T[2]) / X0
    cbs = (sp.diff(A, T[2]) + sp.diff(A, T[0], T[0], T[1])
           + 4 * B * sp.diff(A, T[0]) + 8 * A * sp.diff(A, T[1]))
    # solve the transformed equation for X_{T0 T2} and substitute to fixpoint
    lead = sp.Derivative(X, T[0], T[2])
    resid = sp.expand((sp.together(
        -sp.diff(sp.diff(X, T[2]) / X0, T[0])
        - sp.diff(sp.diff(S, T[0]) - S ** 2 / 2, T[1])) * X0 ** 2).doit())
    a = resid.coeff(lead, 1)
    solved = sp.simplify(-(resid - a * lead) / a)
    expr = cbs
    for _ in range(200):
        expr = sp.expand(sp.together(expr).doit())
        num, den = sp.fraction(expr)
        num = sp.expand(num)
        target = None
        for d in num.atoms(sp.Derivative):
            if d.expr != X:
                continue
            counts = {v: 0 for v in T}
            for v, k in d.variable_count:
                counts[v] += k
            if counts[T[0]] >= 1 and counts[T[2]] >= 1:
                target = (d, counts)
                break
        if target is None:
            break
        d, counts = target
        rest = [(v, counts[v] - (1 if v in (T[0], T[2]) else 0)) for v in T]
        rest = [(v, k) for v, k in rest if k > 0]
        rep = sp.Derivative(solved, *rest).doit() if rest else solved
        expr = num.subs(d, rep) / den
    assert sp.simplify(expr) == 0


def test_heights_relation_from_appendix():
    # 4M_0 = x_00 - m_0 with X_0 = 1/P and x_0 = 1/u forces 1/u = (1/P)_X + 1/P
    Xv, Tv = sp.symbols("Xv Tv")
    P = sp.Function("P")(Xv, Tv)
    u = sp.Function("u")(Xv, Tv)
    lhs = 1 / u
    rhs = sp.diff(1 / P, Xv) + 1 / P
    cleared = sp.simplify(sp.together(lhs - rhs) * u * P ** 2)
    target = P ** 2 - u * (P - sp.diff(P, Xv))
    assert sp.simplify(cleared - target) == 0