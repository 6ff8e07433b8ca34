"""Coordinate/field changes as derivation maps, and transport along them.

A DerivationMap sends designated source jets to target expressions and each
source direction to a derivation of the target space (a coefficient-weighted
sum of target total derivatives).  Transport is the induced differential-ring
homomorphism: higher source jets are reached by applying the derivation
images to the designated images (one memoised prolongation per map, through
diffalg.prolong), so an equation can be pushed through a reciprocal or Miura
change without ever integrating.

The four reciprocal maps come from two conservation laws (table _LAWS),
CH's P_T + ((1/2) P Omega^(1))_X = 0 and Qiao's u_t + (u w^(1))_x = 0, each
read as rho_t + (rho phi^(1))_x = 0 and changed by dT0 = rho dx - rho phi^(1) dt
and y_{Ti} = phi^(i) for a field y of the reciprocal plane:

  R_CH  CH space -> R space   reciprocal change of the CH law, y = X
  R_Q   Q space  -> R space   reciprocal change of the Qiao law, y = x
  B_CH  R space  -> CH space  partial inverse (d_{Ti}, i >= 2 undefined)
  B_Q   R space  -> Q space   partial inverse (d_{Ti}, i >= 2 undefined)
  C_MR  Q space  -> CH space  composite Miura-reciprocal change, built by
                              compose(R_Q, compose(mu, B_CH)), mu = miura_map

plus two internal composites used by the claim runner: back_mix_map (R -> MR,
both partial inverses sharing the reciprocal-plane derivations) and
miura_mix_map (MR -> CH, a built C_MR extended identically on the CH fields).

Bare v^(i) has no image under R_Q and C_MR: v enters the reciprocal picture
only through v_x = (1/u) w_x, so v^(i)_x is the designated minimal jet and
equations containing bare v must be differentiated once in x first.  The
integration constant in u w^(i+1) = v^(i) - v^(i)_xx is fixed to zero.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import hierarchies as hier
from .diffalg import DiffAlgError, RatExpr, prolong, random_expr, total_derivative


class TransportError(DiffAlgError):
    """Base class for transport failures."""


class BelowDesignatedJetError(TransportError):
    """A source jet lies below the field's designated minimal imaged jet."""


class UndefinedDerivationError(TransportError):
    """The map does not define the required source direction."""


class DerivationMap:
    """Field images plus first-order derivation images per source variable.

    field_images maps a designated JetVar (usually the order-0 jet, but e.g.
    v^(i)_x for the Qiao auxiliary fields) to a target expression.  op_images
    maps each covered source variable to a tuple of (coefficient, target
    variable) pairs defining a derivation of the target space.
    """

    def __init__(self, name, source, target, field_images, op_images):
        self.name = name
        self.source = source
        self.target = target
        self.field_images = dict(field_images)
        self.op_images = {v: tuple(pairs) for v, pairs in op_images.items()}
        for jet in self.field_images:
            if jet.field.space is not source:
                raise ValueError(f"image key {jet.text()} is not a {source.name} jet")
        for v, pairs in self.op_images.items():
            if v not in source.vars:
                raise ValueError(f"{v!r} is not a variable of {source.name}")
            for _coeff, tv in pairs:
                if tv not in target.vars:
                    raise ValueError(f"{tv!r} is not a variable of {target.name}")
        self._designated = {}
        for jet in self.field_images:
            self._designated.setdefault(jet.field, []).append(jet)
        for jets in self._designated.values():
            # prefer bases carrying the later directions, so the derivation
            # route spends its excess on the earliest variables (e.g. the
            # partial inverses reach X_{T0,Ti} from X_{Ti} via d_{T0} alone,
            # which is the route valid off-shell)
            jets.sort(key=lambda j: tuple(reversed(j.orders)), reverse=True)
        self._jet_cache = dict(self.field_images)

    def derive(self, expr, var):
        """Apply the derivation image of the source direction var."""
        pairs = self.op_images.get(var)
        if pairs is None:
            raise UndefinedDerivationError(
                f"map {self.name} does not define the direction d_{var}")
        out = RatExpr.const(0)
        for coeff, tv in pairs:
            out = out.add(coeff.mul(total_derivative(expr, tv)))
        return out

    def jet_image(self, jet):
        """Image of jet, prolonged from the first designated jet it dominates."""
        image = self._jet_cache.get(jet)
        if image is not None:
            return image
        bases = self._designated.get(jet.field)
        if not bases:
            raise BelowDesignatedJetError(
                f"map {self.name} has no image for field {jet.field.label()}")
        base = next((b for b in bases if jet.dominates(b)), None)
        if base is None:
            raise BelowDesignatedJetError(
                f"jet {jet.text()} lies below every designated jet of field "
                f"{jet.field.label()} under map {self.name}")
        return prolong(self._jet_cache, base, jet, self._derived_image)

    def _derived_image(self, jet, lower_image, var):
        return self.derive(lower_image, var)

    def transport(self, e):
        """Push e (over the source space) to the target space homomorphically."""
        e = RatExpr._coerce(e)
        space = e.space()
        if space is not None and space is not self.source:
            raise TransportError(
                f"map {self.name} transports {self.source.name} expressions, "
                f"got {space.name}")

        def poly_image(poly):
            out = RatExpr.const(0)
            for mono, coeff in poly.sorted_terms():
                part = RatExpr.const(coeff)
                for jet, exp in mono.factors:
                    part = part.mul(self.jet_image(jet).pow(exp))
                out = out.add(part)
            return out

        num = poly_image(e.num)
        den = poly_image(e.den)
        return num.div(den)

    def __repr__(self):
        return f"DerivationMap({self.name}: {self.source.name} -> {self.target.name})"


def compose(a, b):
    """b after a: a's field images and derivation coefficients transported
    through b, and each target direction of a replaced by b's derivation.
    A direction of a that needs one that b leaves undefined is dropped."""
    op_images = {var: tuple((b.transport(coeff).mul(inner), btv)
                            for coeff, tv in pairs for inner, btv in b.op_images[tv])
                 for var, pairs in a.op_images.items()
                 if all(tv in b.op_images for _coeff, tv in pairs)}
    field_images = {jet: b.transport(img) for jet, img in a.field_images.items()}
    return DerivationMap(f"{b.name}.{a.name}", a.source, b.target, field_images, op_images)


def miura_map(n):
    """The Miura map mu (R -> R) of x = X + ln X_{T0}: x_{Ti} goes to
    X_{Ti} + X_{T0,Ti}/X_{T0} for i = 0..n, and each Ti to itself."""
    rs, one = hier.r_space(n), RatExpr.const(1)
    X = [rs.expr("X", **{f"T{i}": 1}) for i in range(n + 1)]
    field_images = {rs.jet("x", **{f"T{i}": 1}): Xi + total_derivative(Xi, "T0").div(X[0])
                    for i, Xi in enumerate(X)}
    return DerivationMap("MU", rs, rs, field_images, {v: ((one, v),) for v in rs.vars})


# (source, target) space of each named map
_ENDS = {
    "R_CH": (hier.ch_space, hier.r_space),
    "R_Q": (hier.q_space, hier.r_space),
    "B_CH": (hier.r_space, hier.ch_space),
    "B_Q": (hier.r_space, hier.q_space),
    "C_MR": (hier.q_space, hier.ch_space),
}

# (density rho, flux family, phi_i per flux field, field y on the R plane)
_LAWS = {
    "CH": ("P", "Omega", Fraction(1, 2), "X"),
    "Q": ("u", "w", 1, "x"),
}


def _images(which, n, src, tgt):
    """(field_images, op_images) of a named map, keyed on jets of src and
    built over tgt; src and tgt may be the mixed space hosting the map's
    own source or target fields."""
    one = RatExpr.const(1)
    if which == "C_MR":  # B_CH . mu . R_Q, over src
        rs = hier.r_space(n)
        r_q = DerivationMap("R_Q", src, rs, *_images("R_Q", n, src, rs))
        c_mr = compose(r_q, compose(miura_map(n), build_map("B_CH", n)))
        gap = tgt.expr("P") - tgt.expr("P", X=1)
        # written out: the composite's t-derivation commutes only modulo CH
        op_images = {"x": c_mr.op_images["x"],
                     "t": ((one, "T"), (tgt.expr("P", T=1).div(gap), "X"))}
        return c_mr.field_images, op_images
    rho, flux, phi, y = _LAWS[which[2:]]
    if which[0] == "R":
        dx, dt = src.field(rho).deps
        y0 = tgt.expr(y, T0=1)
        field_images = {src.jet(rho): one.div(y0)}
        for i in range(1, n + 1):
            field_images[src.jet(flux, i)] = tgt.expr(y, **{f"T{i}": 1}) / phi
            if which == "R_Q":
                field_images[src.jet("v", i, x=1)] = tgt.expr(y, T0=1, **{f"T{i}": 1})
        op_images = {dx: ((one.div(y0), "T0"),),
                     dt: ((one, "T1"), ((-tgt.expr(y, T1=1)).div(y0), "T0"))}
    else:
        dx, dt = tgt.field(rho).deps
        inv_rho = one.div(tgt.expr(rho))
        field_images = {src.jet(y, T0=1): inv_rho}
        for i in range(1, n + 1):
            field_images[src.jet(y, **{f"T{i}": 1})] = phi * tgt.expr(flux, i)
        op_images = {"T0": ((inv_rho, dx),),
                     "T1": ((one, dt), (phi * tgt.expr(flux, 1), dx))}
    return field_images, op_images


def build_map(which, n):
    """Construct one of the five named maps for hierarchy size n."""
    hier._check_n(n)
    if which not in _ENDS:
        raise ValueError(f"unknown map selector {which!r}")
    src, tgt = (space(n) for space in _ENDS[which])
    return DerivationMap(which, src, tgt, *_images(which, n, src, tgt))


def back_mix_map(n):
    """B_CH and B_Q merged on the mixed space, sharing the R-space derivations."""
    rs, ms = hier.r_space(n), hier.mr_space(n)
    ch_fields, ch_ops = _images("B_CH", n, rs, ms)
    q_fields, q_ops = _images("B_Q", n, rs, ms)
    op_images = {v: ch_ops[v] + q_ops[v] for v in ch_ops}
    return DerivationMap("B_MIX", rs, ms, {**ch_fields, **q_fields}, op_images)


def miura_mix_map(c_mr, n):
    """C_MR extended to the mixed space, identical on the CH fields.

    c_mr is build_map("C_MR", n): its field images are keyed again on the
    mixed space's Qiao jets, and its x and t derivations are kept."""
    ms, chs = hier.mr_space(n), hier.ch_space(n)
    field_images = {ms.field(jet.field.name, jet.field.index).jet(**jet.multi_index()): image
                    for jet, image in c_mr.field_images.items()}
    field_images[ms.jet("P")] = chs.expr("P")
    for i in range(1, n + 1):
        field_images[ms.jet("Omega", i)] = chs.expr("Omega", i)
    one = RatExpr.const(1)
    op_images = {**c_mr.op_images, "X": ((one, "X"),), "T": ((one, "T"),)}
    return DerivationMap("C_MR_MIX", ms, chs, field_images, op_images)


def commutation_pairs(m):
    """Direction pairs that can ever compose on one jet: both directions must
    be defined by the map and belong to one source field's dependencies."""
    pairs = set()
    for f in m.source.fields:
        deps = [v for v in f.deps if v in m.op_images]
        for i in range(len(deps)):
            for j in range(i + 1, len(deps)):
                pairs.add((deps[i], deps[j]))
    return sorted(pairs)


def check_commutation(m, trials, seed, modulo=None):
    """True iff the derivation images commute on `trials` random target
    expressions (exact symbolic zero test) for every direction pair that can
    act on a common field.

    The partial inverse maps commute only on solutions of their hierarchy's
    conservative-form equation (the paper's d^2 T0 = 0), so callers pass the
    corresponding oriented rule via `modulo`; the forward and composite maps
    commute identically and need no modulus.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    pairs = commutation_pairs(m)
    for _ in range(trials):
        f = random_expr(m.target, rng, max_terms=3, max_factors=2, max_order=2)
        for a, b in pairs:
            comm = m.derive(m.derive(f, b), a).sub(m.derive(m.derive(f, a), b))
            if modulo is not None:
                comm = modulo.reduce(comm)
            if not comm.is_zero():
                return False
    return True
