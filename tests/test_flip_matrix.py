"""The flip matrix: every judged check of run_all(3) fails under at least one
of fourteen hand mutants of the maps, hierarchies and relations, and every
mutant fails at least one check."""

from dataclasses import replace
from fractions import Fraction

import pytest

from jetcalc import claims, transform
from jetcalc import hierarchies as hier

N_MAX = 3


def _scaled_images(which, jets, factor):
    """A patch of transform._images that scales map which's images of the
    source jets jets(n, src) by factor."""
    images = transform._images

    def mutated(name, n, src, tgt):
        field_images, op_images = images(name, n, src, tgt)
        if name == which:
            for jet in jets(n, src):
                field_images[jet] = factor * field_images[jet]
        return field_images, op_images

    return transform, "_images", mutated


def _added(generator, label, extra):
    """A patch of hierarchies.<generator> that adds extra(n) to the residual
    of the equation labelled label(n)."""
    generate = getattr(hier, generator)

    def perturbed(n):
        return [replace(eq, residual=eq.residual + extra(n)) if eq.label == label(n) else eq
                for eq in generate(n)]

    return hier, generator, perturbed


def _msys_m0_plus_x_t0():
    generate = hier.gen_cbs_family

    def perturbed(n):
        fam = generate(n)
        if not fam.msys:
            return fam
        m0 = fam.msys[0]
        m0 = replace(m0, residual=m0.residual + hier.r_space(n).expr("X", T0=1))
        return replace(fam, msys=(m0,) + fam.msys[1:])

    return hier, "gen_cbs_family", perturbed


def _w_jets(n, src):
    return [src.jet("w", i) for i in range(1, n + 1)]


MUTANTS = {
    "R_CH P x2": _scaled_images("R_CH", lambda n, src: [src.jet("P")], 2),
    "R_Q u x2": _scaled_images("R_Q", lambda n, src: [src.jet("u")], 2),
    "C_MR w x2/3": _scaled_images("C_MR", _w_jets, Fraction(2, 3)),
    "C_MR u x2": _scaled_images("C_MR", lambda n, src: [src.jet("u")], 2),
    "B_CH X_T0 x2": _scaled_images("B_CH", lambda n, src: [src.jet("X", T0=1)], 2),
    "E_Q0 + u_x": _added("gen_qiao", lambda n: "E_Q0",
                         lambda n: hier.q_space(n).expr("u", x=1)),
    "E_Qnn + v_n": _added("gen_qiao", lambda n: f"E_Q{n}n",
                          lambda n: hier.q_space(n).expr("v", n)),
    "E_CH0 + P_X": _added("gen_ch", lambda n: "E_CH0",
                          lambda n: hier.ch_space(n).expr("P", X=1)),
    "E_CHnn + P": _added("gen_ch", lambda n: f"E_CH{n}n",
                         lambda n: hier.ch_space(n).expr("P")),
    "HEIGHTS + u": _added("gen_miura_relations", lambda n: "HEIGHTS",
                          lambda n: hier.mr_space(n).expr("u")),
    "FIELDS_1a + v_1": _added("gen_miura_relations", lambda n: "FIELDS_1a",
                              lambda n: hier.mr_space(n).expr("v", 1)),
    # the C3/C5 mutants of tests/test_claims.py
    "MIX2_1 x-term x2": _added("gen_miura_relations", lambda n: "MIX2_1",
                               lambda n: hier.r_space(n).expr("X", T2=1)
                               / hier.r_space(n).expr("X", T0=1)),
    "HEIGHTS_R + X_T0": _added("gen_miura_relations", lambda n: "HEIGHTS_R",
                               lambda n: hier.r_space(n).expr("X", T0=1)),
    "msys_M0 + X_T0": _msys_m0_plus_x_t0(),
}


def _statuses():
    return {(rep.claim, rep.n, c.label): c.status
            for rep in claims.run_all(N_MAX) for c in rep.checks}


def test_every_judged_check_flips_under_a_mutant_and_every_mutant_flips_a_check():
    # reported-only images and the vacuous n=1 entries judge nothing
    base = _statuses()
    judged = {key for key in base
              if key[2] != "vacuous" and not key[2].endswith("(reported, not judged)")}
    assert len(judged) == 49 and {base[key] for key in judged} == {"pass"}
    flipped = {}
    for name, (module, attr, mutated) in MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, attr, mutated)
            got = _statuses()
        flipped[name] = {key for key in judged if got.get(key) != "pass"}
    assert [name for name, keys in flipped.items() if not keys] == []
    assert judged - set().union(*flipped.values()) == set()
