"""Command-line interface: generate systems, verify claims, reduce, evaluate.

Exit codes: 0 success / all claims pass, 1 verification failure, 2 usage
error (a bad option or expression, a division by zero in an expression, an
unwritable report path), 3 engine error (term or step cap exceeded,
transport failure, or NumericError when `eval` finds no well-conditioned
sample point).
Report files are deterministic for fixed flags and seed; wall-clock millis
are written only with --timings (the summary table always shows them).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import claims, diffalg, exprio, hierarchies as hier, numoracle, reduction
from .diffalg import DiffAlgError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3

# the equation family that `jetcalc gen --system NAME --n N` prints
GENERATORS = {
    "ch": hier.gen_ch,
    "qiao": hier.gen_qiao,
    "bcbs": lambda n: hier.gen_cbs_family(n).bcbs,
    "bmcbs": lambda n: hier.gen_mcbs_family(n).bmcbs,
    "msys": lambda n: hier.gen_cbs_family(n).msys,
    "mcbs-sys": lambda n: hier.gen_mcbs_family(n).msys,
    "cbs": lambda n: hier.gen_cbs_family(n).cbs,
    "miura": hier.gen_miura_relations,
}

_SPACES = {
    "ch": hier.ch_space,
    "q": hier.q_space,
    "r": hier.r_space,
    "mr": hier.mr_space,
}


def cmd_gen(args):
    eqs = GENERATORS[args.system](args.n)
    if args.format == "json":
        payload = [{
            "label": eq.label,
            "system": eq.system,
            "i": eq.i,
            "n": eq.n,
            "expr": json.loads(exprio.to_json(eq.residual)),
        } for eq in eqs]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_PASS
    for eq in eqs:
        print(f"{eq.label}: {exprio.print_expr(eq.residual, args.format)}")
    return EXIT_PASS


def _select_claims(selector):
    if selector.strip().lower() == "all":
        return list(claims.CLAIM_IDS)
    out = []
    for raw in selector.split(","):
        cid = raw.strip().upper()
        if cid not in claims.CLAIM_IDS:
            raise ValueError(f"unknown claim {raw.strip()!r} (expected C1..C9 or all)")
        out.append(cid)
    return out


def cmd_verify(args):
    selected = _select_claims(args.claim)
    # the report opens before the run, so an unwritable path costs no run
    with diffalg.limits(term_cap=args.term_cap, step_cap=args.step_cap), \
            (open(args.report, "w") if args.report else nullcontext(sys.stdout)) as report:
        reports = claims.run_all(args.n_max, claims=selected, seed=args.seed, jobs=args.jobs)
        records = [rep.record(include_millis=args.timings) for rep in reports]
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"

        out = sys.stdout if args.report else sys.stderr
        print(f"{'claim':<6} {'n':>2} {'status':<6} {'cofactor':<14} {'terms':>6} {'millis':>9}",
              file=out)
        for rep in reports:
            print(f"{rep.claim:<6} {rep.n:>2} {rep.status:<6} "
                  f"{rep.cofactor or '-':<14} {rep.terms:>6} {rep.duration * 1000:>9.1f}",
                  file=out)
        npass = sum(1 for rep in reports if rep.status == "pass")
        nfail = sum(1 for rep in reports if rep.status == "fail")
        nerr = sum(1 for rep in reports if rep.status == "error")
        total = sum(rep.duration for rep in reports)
        print(f"{len(reports)} cells: {npass} pass, {nfail} fail, {nerr} error"
              f" ({total:.1f} s of cell time)", file=out)
        for rep in reports:
            if rep.status != "pass":
                for line in rep.details():
                    print(f"  {rep.claim} n={rep.n}: {line}", file=out)
        report.write(text)
    if nerr:
        return EXIT_ENGINE
    if nfail:
        return EXIT_FAIL
    return EXIT_PASS


def cmd_reduce(args):
    system = reduction.standard_systems(args.system, args.n)
    source = args.expr if args.expr is not None else sys.stdin.read()
    expr = exprio.parse(source, system.ranking.space)
    with diffalg.limits(step_cap=args.step_cap):
        result = system.reduce(expr)
    if not system.coherent:
        print(f"note: the {args.system} system at n={args.n} is not shown coherent; "
              "the normal form may depend on the rewrite order", file=sys.stderr)
    print(exprio.print_expr(result, args.format))
    return EXIT_PASS


def cmd_eval(args):
    space = _SPACES[args.space](args.n)
    expr = exprio.parse(args.expr, space)
    coords, value = numoracle.sample_value(expr, space, args.seed)
    coord_text = ", ".join(f"{v}={coords[v]:.6f}" for v in space.vars)
    print(f"{value!r}  at  {coord_text}")
    return EXIT_PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="Generate and machine-verify the Camassa-Holm/Qiao "
                    "hierarchy transformation identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print an equation family")
    gen.add_argument("--system", required=True, choices=GENERATORS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--format", default="text", choices=("text", "latex", "json"))
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="run claim verifications")
    verify.add_argument("--claim", default="all",
                        help="'all' or a comma list of C1..C9")
    verify.add_argument("--n-max", type=int, default=4)
    verify.add_argument("--report", default=None,
                        help="path for the JSON report (default: stdout)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (default 1; a pool pays for "
                             "its start-up only at large --n-max)")
    verify.add_argument("--term-cap", type=int, default=diffalg.DEFAULT_TERM_CAP,
                        help=f"expression-size guard (default {diffalg.DEFAULT_TERM_CAP})")
    verify.add_argument("--step-cap", type=int, default=diffalg.DEFAULT_STEP_CAP,
                        help="rewrite step guard per reduction and per C3 M or "
                             f"C5 height substitution (default {diffalg.DEFAULT_STEP_CAP})")
    verify.add_argument("--timings", action="store_true",
                        help="include wall-clock millis in the report file")
    verify.set_defaults(func=cmd_verify)

    red = sub.add_parser("reduce", help="reduce an expression modulo a standard system")
    red.add_argument("--system", required=True, choices=("ch", "bcbs"))
    red.add_argument("--n", type=int, required=True)
    red.add_argument("--expr", default=None, help="expression text (default: stdin)")
    red.add_argument("--format", default="text", choices=("text", "latex", "json"))
    red.add_argument("--step-cap", type=int, default=diffalg.DEFAULT_STEP_CAP,
                     help=f"rewrite step guard (default {diffalg.DEFAULT_STEP_CAP})")
    red.set_defaults(func=cmd_reduce)

    ev = sub.add_parser("eval", help="numeric evaluation at a seeded sample point")
    ev.add_argument("--space", required=True, choices=tuple(_SPACES))
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--expr", required=True)
    ev.add_argument("--seed", type=int, default=0)
    ev.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiffAlgError as exc:
        print(f"engine error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
