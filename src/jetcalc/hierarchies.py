"""Equation families of the n-component Camassa-Holm and Qiao hierarchies.

Every generator emits fully expanded residuals (expressions asserted to
vanish) as labelled Equation values over one of four built-in spaces:

  CH space   vars (X, T),  fields P, Omega[1..n]
  Q space    vars (x, t),  fields u, v[1..n], w[1..n]
  R space    vars (T0..Tn), fields X, x, M, m      (the reciprocal plane)
  MR space   vars (X, T, x, t), CH fields depending on (X, T) and Q fields
             on (x, t) -- hosts the relations that mix both hierarchies

The generators emit the expanded systems of the compact recursion-operator
forms U_T = R^-n U_X and u_t = r^-n u_x.  The CH recursion operator is
R = K J^-1 with K = d_XXX - d_X, J = -(1/2)(d_X U + U d_X) and U = P^2; the
Qiao one is r = k j^-1 with k = d_xxx - d_x and j = -d_x u (d_x)^-1 u d_x,
where w^(i) realises (d_x)^-1 (u v^(i)_x).  tests/test_oracle_sympy.py checks
every generated equation against these operators, written in sympy:
2P E_CH0 = U_T - J Omega^(1), E_CHi = K Omega^(i) - J Omega^(i+1) and
D_X E_CH{n}n = U_X - K Omega^(n), and likewise E_Q0 = u_t - j v^(1),
E_Qi = k v^(i) - j v^(i+1) and D_x E_Q{n}n = u_x - k v^(n).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .diffalg import RatExpr, VarSpace, total_derivative


SYSTEMS = ("CH", "QIAO", "BCBS", "BMCBS", "MSYS", "MCBS_SYS", "CBS",
           "MIURA", "HEIGHTS", "FIELDS", "XREL")


class Equation(namedtuple("Equation", "residual label system i n")):
    """A labelled residual together with its family metadata."""
    __slots__ = ()

    def __new__(cls, residual, label, system, i, n):
        if system not in SYSTEMS:
            raise ValueError(f"unknown system tag {system!r}")
        return super().__new__(cls, residual, label, system, i, n)

    @classmethod
    def _make(cls, fields):
        # _replace builds its copy through _make: check the copy's tag too
        return cls(*fields)


def _check_n(n):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"hierarchy size n must be a positive integer, got {n!r}")


@lru_cache(maxsize=None)
def ch_space(n):
    _check_n(n)
    sp = VarSpace(f"CH{n}", ("X", "T"), evolution_vars=("T",))
    sp.add_field("P")
    for i in range(1, n + 1):
        sp.add_field("Omega", i)
    return sp


@lru_cache(maxsize=None)
def q_space(n):
    _check_n(n)
    sp = VarSpace(f"Q{n}", ("x", "t"), evolution_vars=("t",))
    sp.add_field("u")
    for i in range(1, n + 1):
        sp.add_field("v", i)
    for i in range(1, n + 1):
        sp.add_field("w", i)
    return sp


@lru_cache(maxsize=None)
def r_space(n):
    _check_n(n)
    variables = tuple(f"T{k}" for k in range(n + 1))
    # elimination ranking: jets carrying high-T derivatives dominate
    evolution = tuple(f"T{k}" for k in range(n, 0, -1))
    sp = VarSpace(f"R{n}", variables, evolution_vars=evolution)
    sp.add_field("X")
    sp.add_field("x")
    sp.add_field("M")
    sp.add_field("m")
    return sp


@lru_cache(maxsize=None)
def mr_space(n):
    _check_n(n)
    sp = VarSpace(f"MR{n}", ("X", "T", "x", "t"), evolution_vars=("T", "t"))
    sp.add_field("P", deps=("X", "T"))
    for i in range(1, n + 1):
        sp.add_field("Omega", i, deps=("X", "T"))
    sp.add_field("u", deps=("x", "t"))
    for i in range(1, n + 1):
        sp.add_field("v", i, deps=("x", "t"))
    for i in range(1, n + 1):
        sp.add_field("w", i, deps=("x", "t"))
    return sp


_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


def gen_ch(n):
    """E_CH0, E_CH1..E_CH{n-1}, E_CH{n}n over the CH space."""
    _check_n(n)
    sp = ch_space(n)
    P = sp.expr("P")
    W = {i: sp.expr("Omega", i) for i in range(1, n + 1)}
    eqs = []
    e0 = sp.expr("P", X=0, T=1) + _HALF * total_derivative(P * W[1], "X")
    eqs.append(Equation(e0, "E_CH0", "CH", None, n))
    for i in range(1, n):
        ei = (sp.expr("Omega", i, X=3) - sp.expr("Omega", i, X=1)
              + P * total_derivative(P * W[i + 1], "X"))
        eqs.append(Equation(ei, f"E_CH{i}", "CH", i, n))
    en = P * P - sp.expr("Omega", n, X=2) + W[n]
    eqs.append(Equation(en, f"E_CH{n}n", "CH", n, n))
    return eqs


def gen_qiao(n):
    """E_Q0, middles, closing E_Q{n}n, and the w-defining residuals E_Qw_i."""
    _check_n(n)
    sp = q_space(n)
    u = sp.expr("u")
    w = {i: sp.expr("w", i) for i in range(1, n + 1)}
    eqs = []
    e0 = sp.expr("u", t=1) + total_derivative(u * w[1], "x")
    eqs.append(Equation(e0, "E_Q0", "QIAO", None, n))
    for i in range(1, n):
        ei = (sp.expr("v", i, x=3) - sp.expr("v", i, x=1)
              + total_derivative(u * w[i + 1], "x"))
        eqs.append(Equation(ei, f"E_Q{i}", "QIAO", i, n))
    en = u - sp.expr("v", n, x=2) + sp.expr("v", n)
    eqs.append(Equation(en, f"E_Q{n}n", "QIAO", n, n))
    for i in range(1, n + 1):
        ew = sp.expr("w", i, x=1) - u * sp.expr("v", i, x=1)
        eqs.append(Equation(ew, f"E_Qw{i}", "QIAO", i, n))
    return eqs


def _r_big_s(n):
    """S = X_00/X_0 + X_0, the height building block on the reciprocal plane."""
    sp = r_space(n)
    x0 = sp.expr("X", T0=1)
    return sp.expr("X", T0=2) / x0 + x0


def m0_image(n):
    """Right side of the M_0 defining equation, as an X expression."""
    s = _r_big_s(n)
    return _QUARTER * (total_derivative(s, "T0") - _HALF * s * s)


def mi_image(n, i):
    """Right side of the M_i defining equation (i = 1..n-1)."""
    sp = r_space(n)
    return -_QUARTER * sp.expr("X", **{f"T{i + 1}": 1}) / sp.expr("X", T0=1)


def _compatibility(m0, mi, i):
    """D_T0(mi) - D_Ti(m0): what M_T0 = m0 and M_Ti = mi ask of X or x."""
    return total_derivative(mi, "T0") - total_derivative(m0, f"T{i}")


CbsFamily = namedtuple("CbsFamily", "bcbs msys cbs")


def gen_cbs_family(n):
    """The transformed CH families on the reciprocal plane; empty at n=1."""
    _check_n(n)
    if n == 1:
        return CbsFamily((), (), ())
    sp, m0 = r_space(n), m0_image(n)
    # oriented so that the transported CH middle equations come out as
    # +2*X_0^-2 times bcbs_i
    bcbs = tuple(
        Equation(-4 * _compatibility(m0, mi_image(n, i), i), f"bcbs_{i}", "BCBS", i, n)
        for i in range(1, n))
    msys = [Equation(sp.expr("M", T0=1) - m0, "msys_M0", "MSYS", None, n)]
    for i in range(1, n):
        msys.append(Equation(
            sp.expr("M", **{f"T{i}": 1}) - mi_image(n, i),
            f"msys_M{i}", "MSYS", i, n))
    cbs = []
    for i in range(1, n):
        resid = (sp.expr("M", T0=1, **{f"T{i + 1}": 1})
                 + sp.expr("M", T0=3, **{f"T{i}": 1})
                 + 4 * sp.expr("M", **{f"T{i}": 1}) * sp.expr("M", T0=2)
                 + 8 * sp.expr("M", T0=1) * sp.expr("M", T0=1, **{f"T{i}": 1}))
        cbs.append(Equation(resid, f"cbs_{i}", "CBS", i, n))
    return CbsFamily(bcbs, tuple(msys), tuple(cbs))


def m0_q_image(n):
    """Right side of the m_0 defining equation, as an x expression."""
    sp = r_space(n)
    return _HALF * sp.expr("x", T0=1) * sp.expr("x", T0=1)


def mi_q_image(n, i):
    """Right side of the m_i defining equation (i = 1..n-1)."""
    sp = r_space(n)
    x0 = sp.expr("x", T0=1)
    return (sp.expr("x", **{f"T{i + 1}": 1}) / x0
            + sp.expr("x", T0=2, **{f"T{i}": 1}) / x0)


McbsFamily = namedtuple("McbsFamily", "bmcbs msys")


def gen_mcbs_family(n):
    """The transformed Qiao families on the reciprocal plane."""
    _check_n(n)
    sp, m0 = r_space(n), m0_q_image(n)
    bmcbs = tuple(
        Equation(_compatibility(m0, mi_q_image(n, i), i), f"bmcbs_{i}", "BMCBS", i, n)
        for i in range(1, n))
    msys = [Equation(sp.expr("m", T0=1) - m0, "msys_m0", "MCBS_SYS", None, n)]
    for i in range(1, n):
        msys.append(Equation(
            sp.expr("m", **{f"T{i}": 1}) - mi_q_image(n, i),
            f"msys_m{i}", "MCBS_SYS", i, n))
    return McbsFamily(bmcbs, tuple(msys))


def gen_miura_relations(n):
    """The Miura link 4M = x_0 - m and its field/variable consequences."""
    _check_n(n)
    rsp = r_space(n)
    msp = mr_space(n)
    eqs = []
    miura = (4 * rsp.expr("M") - rsp.expr("x", T0=1) + rsp.expr("m"))
    eqs.append(Equation(miura, "MIURA", "MIURA", None, n))
    x0 = rsp.expr("x", T0=1)
    bigx0 = rsp.expr("X", T0=1)
    eqs.append(Equation(x0 - _r_big_s(n), "HEIGHTS_R", "XREL", None, n))
    for i in range(1, n):
        mix = (rsp.expr("X", **{f"T{i + 1}": 1}) / bigx0
               + rsp.expr("x", T0=1, **{f"T{i}": 1})
               - rsp.expr("x", T0=2, **{f"T{i}": 1}) / x0
               - rsp.expr("x", **{f"T{i + 1}": 1}) / x0)
        eqs.append(Equation(mix, f"MIX2_{i}", "XREL", i, n))
    P = msp.expr("P")
    u = msp.expr("u")
    heights = P * P - u * P + u * msp.expr("P", X=1)
    eqs.append(Equation(heights, "HEIGHTS", "HEIGHTS", None, n))
    for i in range(1, n):
        fa = (P * msp.expr("Omega", i + 1) - 2 * msp.expr("v", i)
              + 2 * msp.expr("v", i, x=1))
        eqs.append(Equation(fa, f"FIELDS_{i}a", "FIELDS", i, n))
        fb = (msp.expr("w", i + 1)
              - _HALF * (msp.expr("Omega", i + 1, X=1) + msp.expr("Omega", i + 1)))
        eqs.append(Equation(fb, f"FIELDS_{i}b", "FIELDS", i, n))
    crossd = (msp.expr("w", 1)
              - _HALF * (msp.expr("Omega", 1, X=1) + msp.expr("Omega", 1)))
    eqs.append(Equation(crossd, "CROSSD", "FIELDS", None, n))
    return eqs
