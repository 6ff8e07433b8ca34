#!/usr/bin/env python3
"""jetcalc benchmark: time to verdict end to end, and its split by layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-serial --seed 1 --seconds 20 --trace 0

Workloads (one client, closed loop):

  verify-serial     claims.run_all(n_max=7, all claims, jobs=1) in-process
  verify-cli        `jetcalc verify --claim all --n-max 6 --jobs 2 --report F`
                    as a subprocess
  exact-law         homomorphism and derivative laws of the five maps at n=2
  exact-normalform  CH normal forms of C_MR images at n=3

With --trace 0 the run repeats batches of the workload for --seconds and
prints the end-to-end metrics. With --trace 1 it runs one untraced batch,
then one traced batch on the same inputs (after a warm-up batch on the exact
workloads), and prints the per-layer metrics; the spans go to
.perfbench_out/. Every operation is checked; the last line
of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`, and the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# top n of the verify workloads; C3/C5 at the top n are the slowest cells, and
# n=7 keeps one serial pass near 20 s
SERIAL_N_MAX, CLI_N_MAX = 7, 6
CLI_JOBS = 2
BATCH_OPS = 100           # ops per batch on the exact workloads
LAW_N, NORMALFORM_N = 2, 3
MAPS = ("R_CH", "R_Q", "B_CH", "B_Q", "C_MR")
# one weight for every map; two jets per monomial gives C_MR law ops a tail
# of many seconds, which no seed-varied percentile survives
SAMPLER = dict(max_terms=3, max_factors=1, max_exp=1)
OP_TIMEOUT_S = 20
PASS_TIMEOUT_S = 90
SETUP_PROBES = 9
PINNED_COFACTORS = {"C2": "2*X_{T0}^-2", "C4": "x_{T0}^-1", "C6": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ops_per_s": "1/s", "tail_ms": "ms"}


class OpTimeout(Exception):
    pass


@contextmanager
def deadline(seconds):
    """Raise OpTimeout in the main thread if the block runs past seconds."""
    def fire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds} s")
    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tally:
    """Operations attempted, failed (wrong or errored) and their latencies."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.op_times = []
        self.notes = []

    @property
    def failed(self):
        return self.wrong + self.errors

    def ok(self, seconds):
        self.attempted += 1
        self.op_times.append(seconds)

    def bad(self, kind, note):
        self.attempted += 1
        if kind == "wrong":
            self.wrong += 1
        else:
            self.errors += 1
        if len(self.notes) < 20:
            self.notes.append(f"{kind}: {note}")


@contextmanager
def tracing(tracer, op):
    """Trace only the operation itself: input generation and the gate's own
    calls into jetcalc stay out of the layer times."""
    if tracer is None:
        yield
        return
    tracer.op, tracer.on = op, True
    try:
        yield
    finally:
        tracer.on = False


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# -- verify workloads ---------------------------------------------------------

def gate_cells(records, durations, n_max, tally):
    """Every cell passes with the pinned cofactors; durations in seconds."""
    expected = {(c, n) for c in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")
                for n in range(1, n_max + 1)}
    seen = set()
    for rec in records:
        key = (rec["claim"], rec["n"])
        seen.add(key)
        if rec["status"] == "error":
            tally.bad("error", f"{key}: {rec['details']}")
            continue
        want = PINNED_COFACTORS.get(rec["claim"])
        if want is not None and rec["claim"] != "C6" and rec["n"] == 1:
            want = None     # C2/C4 have no middle equations at n=1
        if rec["status"] != "pass":
            tally.bad("wrong", f"{key}: status {rec['status']}: {rec['details']}")
        elif rec["claim"] in PINNED_COFACTORS and rec["cofactor"] != want:
            tally.bad("wrong", f"{key}: cofactor {rec['cofactor']!r}, want {want!r}")
        else:
            tally.ok(durations[key])
    for key in sorted(expected - seen):
        tally.bad("error", f"{key}: cell missing from the report")


class VerifySerial:
    cells_per_batch = 9 * SERIAL_N_MAX

    def setup(self, seed):
        from jetcalc import claims
        return {"claims": claims, "seed": seed, "report": None}

    def batch(self, st, tally, tracer=None):
        claims = st["claims"]
        t0 = time.perf_counter()
        try:
            with deadline(PASS_TIMEOUT_S), tracing(tracer, "run_all"):
                reports = claims.run_all(SERIAL_N_MAX, seed=st["seed"], jobs=1)
        except OpTimeout as exc:
            reports = None
            for _ in range(self.cells_per_batch):
                tally.bad("error", str(exc))
        wall = time.perf_counter() - t0
        if reports is None:
            return wall, wall
        records = [rep.record() for rep in reports]
        gate_cells(records, {(r.claim, r.n): r.duration for r in reports},
                   SERIAL_N_MAX, tally)
        same_bytes(st, json.dumps(records, indent=2, sort_keys=True) + "\n", tally)
        return wall, wall


def same_bytes(st, text, tally):
    if st["report"] is None:
        st["report"] = text
    elif st["report"] != text:
        tally.bad("wrong", "report bytes differ between runs of one set")


_SUMMARY = re.compile(r"^(C\d)\s+(\d+)\s+(\w+)\s+(\S+)\s+(\d+)\s+([\d.]+)$")


class VerifyCli:
    cells_per_batch = 9 * CLI_N_MAX

    def setup(self, seed):
        scratch = OUT / f"cli-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "report": None, "dir": scratch, "k": 0}

    def command(self, st, report, trace_dir=None):
        head = ([sys.executable, str(BENCH / "traced_cli.py"), str(trace_dir)]
                if trace_dir else [sys.executable, "-m", "jetcalc.cli"])
        return head + ["verify", "--claim", "all", "--n-max", str(CLI_N_MAX),
                       "--jobs", str(CLI_JOBS), "--seed", str(st["seed"]),
                       "--report", str(report)]

    def batch(self, st, tally, trace_dir=None):
        st["k"] += 1
        report = st["dir"] / f"report-{st['k']}.json"
        t0 = time.perf_counter()
        # a session of its own, so that a timeout also stops the pool workers
        proc = subprocess.Popen(self.command(st, report, trace_dir), env=_env(),
                                cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            timed_out = True
        wall = time.perf_counter() - t0
        if timed_out or not report.is_file():
            why = "timed out" if timed_out else f"exit {proc.returncode}: {stderr[-500:]}"
            for _ in range(self.cells_per_batch):
                tally.bad("error", f"verify produced no report ({why})")
            return wall, wall
        text = report.read_text()
        report.unlink()
        durations = {}
        for line in stdout.splitlines():
            m = _SUMMARY.match(line.strip())
            if m:
                durations[(m.group(1), int(m.group(2)))] = float(m.group(6)) / 1000.0
        gate_cells(json.loads(text), durations, CLI_N_MAX, tally)
        if proc.returncode != 0:
            tally.bad("wrong", f"verify exited {proc.returncode}")
        same_bytes(st, text, tally)
        st["cells"] = durations
        return wall, wall

    def teardown(self, st):
        shutil.rmtree(st["dir"], ignore_errors=True)


# -- exact workloads ----------------------------------------------------------

def transportable_jets(m, depth=2, evo_cap=1):
    """Jets reachable from a map's designated images along its directions,
    with at most evo_cap derivatives along the source's evolution variables."""
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


def random_poly(jets, rng, max_terms, max_factors, max_exp):
    from jetcalc.diffalg import DiffPoly, Monomial, RatExpr
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


def _run_op(tally, label, fn, tracer):
    """Time fn(); engine errors and timeouts count as failed, not crashes."""
    from jetcalc.diffalg import DiffAlgError
    try:
        with deadline(OP_TIMEOUT_S), tracing(tracer, label):
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
    except (DiffAlgError, OpTimeout) as exc:
        tally.bad("error", f"{label}: {type(exc).__name__}: {exc}")
        return None, None
    return result, dt


class ExactLaw:
    """Transport laws on seeded pairs f, g: additive, multiplicative and
    derivative, the last modulo the conservative rule for B_CH and B_Q."""

    def setup(self, seed):
        from jetcalc import hierarchies as hier
        from jetcalc import reduction, transform
        qs = hier.q_space(LAW_N)
        moduli = {
            "B_CH": reduction.standard_systems("CH", LAW_N),
            "B_Q": reduction.RewriteSystem(
                [reduction.orient(hier.gen_qiao(LAW_N)[0], qs.jet("u", t=1))],
                reduction.JetRanking(qs)),
        }
        maps = {name: transform.build_map(name, LAW_N) for name in MAPS}
        pools = {name: transportable_jets(m) for name, m in maps.items()}
        return {"maps": maps, "moduli": moduli, "pools": pools,
                "rng": random.Random(f"exact-law/{seed}"), "k": 0}

    def batch(self, st, tally, tracer=None):
        rng, work = st["rng"], 0.0
        t0 = time.perf_counter()
        for _ in range(BATCH_OPS // len(MAPS)):
            for name in MAPS:
                m, modulus, jets = st["maps"][name], st["moduli"].get(name), st["pools"][name]
                f = random_poly(jets, rng, **SAMPLER)
                g = random_poly(jets, rng, **SAMPLER)
                var = rng.choice(sorted(m.op_images))
                st["k"] += 1
                label = f"law-{st['k']}-{name}"
                gaps, dt = _run_op(tally, label,
                                   lambda: law_gaps(m, modulus, f, g, var), tracer)
                if gaps is None:
                    continue
                work += dt
                bad = [law for law, gap in gaps.items() if not gap.is_zero()]
                if bad:
                    tally.bad("wrong", f"{label}: {', '.join(bad)} law gap is not zero")
                else:
                    tally.ok(dt)
        return time.perf_counter() - t0, work


def law_gaps(m, modulus, f, g, var):
    tf, tg = m.transport(f), m.transport(g)
    derivative = m.transport(f.total_derivative(var)).sub(m.derive(tf, var))
    if modulus is not None:
        derivative = modulus.reduce(derivative)
    return {"additive": m.transport(f.add(g)).sub(tf).sub(tg),
            "multiplicative": m.transport(f.mul(g)).sub(tf.mul(tg)),
            "derivative": derivative}


class ExactNormalform:
    """C9's shape: the CH normal form of a transported C_MR expression.
    CH's leads sit on distinct fields, so its normal forms are unique."""

    def setup(self, seed):
        from jetcalc import reduction, transform
        m = transform.build_map("C_MR", NORMALFORM_N)
        return {"map": m, "system": reduction.standard_systems("CH", NORMALFORM_N),
                "jets": transportable_jets(m),
                "rng": random.Random(f"exact-normalform/{seed}"), "k": 0}

    def batch(self, st, tally, tracer=None):
        m, system, rng, work = st["map"], st["system"], st["rng"], 0.0
        t0 = time.perf_counter()
        for _ in range(BATCH_OPS):
            f = random_poly(st["jets"], rng, **SAMPLER)
            shuffle_seed = rng.randrange(1 << 30)
            st["k"] += 1
            label = f"normalform-{st['k']}"
            out, dt = _run_op(tally, label, lambda: normal_form(m, system, f), tracer)
            if out is None:
                continue
            work += dt
            image, nf = out
            problem = check_normal_form(system, image, nf, shuffle_seed)
            if problem:
                tally.bad("wrong", f"{label}: {problem}")
            else:
                tally.ok(dt)
        return time.perf_counter() - t0, work


def normal_form(m, system, f):
    image = m.transport(f)
    return image, system.reduce(image)


def check_normal_form(system, image, nf, shuffle_seed):
    from jetcalc.diffalg import DiffAlgError
    led = [j.text() for j in nf.jets() if system.match(j) is not None]
    if led:
        return f"normal form still has led jets {led[:3]}"
    try:
        other = system.reduce(image, rng=random.Random(shuffle_seed))
    except DiffAlgError as exc:
        return f"shuffle-mode reduction failed: {exc}"
    if not nf.sub(other).is_zero():
        return "normal form differs from the shuffle-mode reduction"
    return None


WORKLOADS = {"verify-serial": VerifySerial, "verify-cli": VerifyCli,
             "exact-law": ExactLaw, "exact-normalform": ExactNormalform}


# -- measurement --------------------------------------------------------------

def setup_probe(name, seed):
    """Run in a fresh interpreter: import, then the workload's reused state."""
    t0 = time.perf_counter()
    import jetcalc.cli  # noqa: F401  (the import users pay)
    t1 = time.perf_counter()
    wl = WORKLOADS[name]()
    st = wl.setup(seed)
    t2 = time.perf_counter()
    if hasattr(wl, "teardown"):
        wl.teardown(st)
    return {"import_s": t1 - t0, "setup_s": t2 - t0}


def probe_setup(name, seed):
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--setup-probe"],
                              env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["import_s"] for r in runs))


def peak_rss_mb(include_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def end_to_end(name, seconds, seed, setup_s):
    wl = WORKLOADS[name]()
    st = wl.setup(seed)
    tally, walls, work = Tally(), [], 0.0
    start = time.perf_counter()
    try:
        # another batch only if it should still end within the budget
        while not walls or (time.perf_counter() - start
                            + statistics.median(walls) <= seconds):
            wall, busy = wl.batch(st, tally)
            walls.append(wall)
            work += busy
    finally:
        if hasattr(wl, "teardown"):
            wl.teardown(st)
    times = sorted(tally.op_times, reverse=True)
    # mean of the slowest tenth: on the verify workloads a single cell or a
    # quantile jumps between cells of unequal size and sees only a few
    # seconds of host speed, while the slowest tenth spans most of the work
    slowest = times[:max(1, math.ceil(len(times) / 10))]
    values = {
        # a mean, not a median: a batch of exact ops is a sum over
        # heavy-tailed C_MR ops, and the run's total is the steadier figure
        "wall_s": statistics.fmean(walls),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(include_children=name == "verify-cli"),
        "ops_per_s": len(times) / work if work else 0.0,
        "tail_ms": 1000.0 * statistics.fmean(slowest) if times else 0.0,
    }
    p50 = 1000.0 * statistics.median(times) if times else 0.0
    print(f"{name}: {len(walls)} batches, {len(times)} ops timed, median op "
          f"{p50:.3f} ms (seed {seed}, {seconds} s)", file=sys.stderr)
    return tally, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(name, seed, import_s):
    """One untraced batch, then a traced set-up and batch on the same inputs."""
    from tracer import LAYERS, HARNESS, Tracer, layer_metrics
    wl = WORKLOADS[name]()
    tally = Tally()

    if name.startswith("exact"):
        # a first batch fills the process-wide caches, so that the untraced
        # and traced batches below start from the same state
        warm = wl.setup(seed)
        wl.batch(warm, tally)
    t0 = time.perf_counter()
    st = wl.setup(seed)
    untraced_setup = time.perf_counter() - t0
    wall_u, busy_u = wl.batch(st, tally)
    cells_u = st.get("cells")

    tracer = Tracer()
    cell_wall = None
    if name == "verify-cli":
        run_dir = OUT / f"trace-{name}-seed{seed}-{os.getpid()}"
        run_dir.mkdir(parents=True)
        st2 = wl.setup(seed)
        st2["report"] = st["report"]
        wall_t, busy_t = wl.batch(st2, tally, trace_dir=run_dir)
        tracer.merge_worker_files(run_dir)
        shutil.rmtree(run_dir)
        traced_setup = 0.0
        if cells_u:
            cell_wall = (sum(cells_u.values()), wall_u)
        wl.teardown(st)
        wl.teardown(st2)
    else:
        tracer.install()
        try:
            tracer.op = "setup"
            t0 = time.perf_counter()
            st2 = wl.setup(seed)
            traced_setup = time.perf_counter() - t0
            if "report" in st2:
                st2["report"] = st["report"]
            tracer.on = False
            wall_t, busy_t = wl.batch(st2, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        if name == "verify-serial":
            cell_wall = (sum(tracer.cell_s.values()), wall_t)
    spans_path = OUT / f"spans-{name}-seed{seed}.tsv"
    tracer.write_spans(spans_path)

    metrics = layer_metrics(tracer, traced_setup + busy_t, untraced_setup + busy_u,
                            cell_wall=cell_wall,
                            jobs=CLI_JOBS if name == "verify-cli" else 1)
    metrics["cli.import_s"] = import_s
    print(f"{name}: traced {traced_setup + busy_t:.3f} s against untraced "
          f"{untraced_setup + busy_u:.3f} s; {len(tracer.spans)} spans written to "
          f"{spans_path.relative_to(ROOT)} ({tracer.folded} shorter than "
          f"0.5 ms folded)", file=sys.stderr)
    print(f"{'layer':<12} {'self s':>9} {'share':>7}", file=sys.stderr)
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS + (HARNESS,))
    for layer in LAYERS + (HARNESS,):
        s = metrics[f"{layer}.self_s"]
        print(f"{layer:<12} {s:>9.3f} {s / total if total else 0:>7.1%}", file=sys.stderr)
    units = {k: ("s" if k.endswith("_s") else "ratio" if "ratio" in k or "share" in k
                 or "efficiency" in k else "count") for k in metrics}
    return tally, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "jetcalc" / "__init__.py").is_file():
        print(f"error: no jetcalc sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    OUT.mkdir(exist_ok=True)
    setup_s, import_s = probe_setup(args.workload, args.seed)
    if args.trace:
        tally, metrics = traced(args.workload, args.seed, import_s)
    else:
        tally, metrics = end_to_end(args.workload, args.seconds, args.seed, setup_s)
    for note in tally.notes:
        print(note, file=sys.stderr)
    if tally.attempted == 0:
        print("error: no operation completed", file=sys.stderr)
        return 1
    correct = tally.wrong == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
