#!/usr/bin/env python3
"""Show that the benchmark's correctness gate is not vacuous.

    python3 perfbench/selftest.py

Each case runs a small slice of one workload twice: once as shipped, where
nothing may fail, and once with one fault patched into jetcalc, where the
gate must count failed operations:

  perturbed cofactor    the cofactor text of C2/C4/C6 (verify gate)
  corrupted map image   derived jet images off by one (exact-law gate)
  wrong normal form     a free jet added to each CH normal form
                        (exact-normalform gate)

Exits 0 when every fault is caught, 1 otherwise.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

from jetcalc import claims, diffalg, reduction, transform  # noqa: E402

SMALL_N_MAX = 3


@contextmanager
def patched(holder, name, make):
    original = getattr(holder, name)
    setattr(holder, name, make(original))
    try:
        yield
    finally:
        setattr(holder, name, original)


def verify_slice():
    tally = run.Tally()
    reports = claims.run_all(SMALL_N_MAX, jobs=1)
    run.gate_cells([r.record() for r in reports],
                   {(r.claim, r.n): r.duration for r in reports}, SMALL_N_MAX, tally)
    return tally


def workload_slice(cls):
    tally = run.Tally()
    wl = cls()
    wl.batch(wl.setup(seed=7), tally)
    return tally


def perturbed_cofactor(text):
    return lambda self: "3*" + text(self)


def corrupted_image(jet_image):
    def wrong(self, jet):
        image = jet_image(self, jet)
        return image if jet in self.field_images else image.add(diffalg.RatExpr.const(1))
    return wrong


def wrong_normal_form(reduce):
    def wrong(self, e, rng=None):
        out = reduce(self, e, rng=rng)
        if rng is not None:
            return out
        return out.add(self.ranking.space.expr("P", X=1))
    return wrong


CASES = (
    ("perturbed cofactor", verify_slice, diffalg.Cofactor, "text", perturbed_cofactor),
    ("corrupted map image", lambda: workload_slice(run.ExactLaw),
     transform.DerivationMap, "jet_image", corrupted_image),
    ("wrong normal form", lambda: workload_slice(run.ExactNormalform),
     reduction.RewriteSystem, "reduce", wrong_normal_form),
)


def main():
    ok = True
    for label, slice_, holder, name, fault in CASES:
        clean = slice_()
        with patched(holder, name, fault):
            broken = slice_()
        caught = clean.failed == 0 and broken.wrong > 0
        ok &= caught
        print(f"{label:<20} clean: {clean.failed}/{clean.attempted} failed; "
              f"with fault: {broken.failed}/{broken.attempted} failed -> "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        for note in broken.notes[:2]:
            print(f"    {note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
