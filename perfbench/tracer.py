"""Layer tracer for jetcalc that works from outside the package.

`install()` replaces the public functions of each jetcalc module, and a few
public methods, with timing wrappers. Each replacement is made wherever a
caller looks the name up: in the defining module, in every module that
imported the name, and on the class for methods. `uninstall()` puts the
originals back. The package itself is not changed.

A call that enters a layer from another layer opens a span (name, start,
end, parent, op id). A layer's self time is the time its spans cover minus
the time their child spans cover. Calls within one layer are counted and,
for the metered names, timed at their outermost occurrence. Spans stay in
memory and are written out by `write_spans()`; spans shorter than
SPAN_MIN_S are folded into the totals only, which keeps the file small.

In forked worker processes (the CLI's `--jobs` pool) the tracer resets
itself after the fork and appends its state to a file in `worker_dir`
after each cell; `merge_worker_files()` adds those states back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

LAYERS = ("claims", "hierarchies", "transform", "reduction", "diffalg",
          "numoracle", "exprio", "cli")
HARNESS = "bench"
SPAN_MIN_S = 5e-4

# public methods worth their own name; module-level public functions are
# wrapped wholesale
METHODS = {
    "diffalg": {"DiffPoly": ("mul", "divexact"),
                "RatExpr": ("make", "add", "sub", "mul", "div", "inv", "pow",
                            "neg", "total_derivative")},
    "transform": {"DerivationMap": ("transport", "jet_image", "derive")},
    "reduction": {"RewriteSystem": ("reduce", "prolonged_rhs")},
    "numoracle": {"TestFunction": ("sample_coords",)},
}
# RatExpr binds its operators to the method objects at class creation
DUNDERS = {"__add__": "add", "__radd__": "add", "__sub__": "sub",
           "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
           "__pow__": "pow", "__neg__": "neg"}

# names whose inclusive time (outermost occurrence) feeds a metric
TIMED = {
    "numoracle.confirm_zero", "numoracle.numeric_proportionality",
    "numoracle.consistent_point", "diffalg.DiffPoly.mul",
    "diffalg.DiffPoly.divexact", "diffalg.substitute_jet",
    "diffalg.proportional", "transform.build_map", "transform.back_mix_map",
    "transform.miura_mix_map", "transform.DerivationMap.transport",
    "reduction.RewriteSystem.reduce", "exprio.print_text",
    "exprio.print_latex", "exprio.to_json",
}
# a SmallDenominatorError leaving the outermost of these rejects one point
EVAL_NAMES = {"numoracle.eval_expr", "numoracle.relative_residual",
              "numoracle.consistent_point"}
# spans always opened, even for calls within one layer, and the op id they
# give to everything below them
FRAMED = {"claims.run_claim": lambda args: f"{args[0]}-n{args[1]}"}


class _Frame:
    __slots__ = ("id", "name", "layer", "child")

    def __init__(self, id_, name, layer):
        self.id = id_
        self.name = name
        self.layer = layer
        self.child = 0.0


class Tracer:
    def __init__(self, worker_dir=None):
        self.on = False
        self.worker = False
        self.worker_dir = worker_dir
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.cell_s = defaultdict(float)
        self.count = defaultdict(int)
        self.peak_terms = 0
        self.spans = []
        self.folded = 0
        self._seen = set()
        self._active = set()
        self._eval_depth = 0
        self._next_id = 1
        self.stack = [_Frame(0, HARNESS, HARNESS)]
        self.op = "-"

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, fn, name, layer):
        T = self
        timed = name in TIMED
        op_of = FRAMED.get(name)
        is_eval = name in EVAL_NAMES
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not T.on:
                return fn(*args, **kwargs)
            T.calls[name] += 1
            top = T.stack[-1]
            outer = timed and name not in T._active
            frame = None
            if op_of is not None or top.layer != layer:
                frame = _Frame(T._next_id, name, layer)
                T._next_id += 1
                T.stack.append(frame)
            elif not outer and not is_eval and after is None:
                return fn(*args, **kwargs)
            if outer:
                T._active.add(name)
            if is_eval:
                T._eval_depth += 1
            op = T.op
            if op_of is not None:
                T.op = op_of(args)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if is_eval and T._eval_depth == 1 and isinstance(exc, T._small_den):
                    T.count["small_denominator_errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                dur = end - start
                if is_eval:
                    T._eval_depth -= 1
                span_op, T.op = T.op, op
                if outer:
                    T._active.discard(name)
                    T.incl[name] += dur
                if frame is not None:
                    T.stack.pop()
                    T.self_s[layer] += dur - frame.child
                    T.stack[-1].child += dur
                    if dur >= SPAN_MIN_S:
                        T.spans.append((frame.id, name, span_op, start, end,
                                        T.stack[-1].id, os.getpid()))
                    else:
                        T.folded += 1
                if after is not None:
                    after(T, args, result, dur)

        return traced

    def install(self):
        """Wrap every target; returns self. Safe to call once per tracer."""
        mods = {layer: importlib.import_module(f"jetcalc.{layer}") for layer in LAYERS}
        holders = list(mods.values()) + [importlib.import_module("jetcalc")]
        self._small_den = mods["numoracle"].SmallDenominatorError
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrapper(obj, f"{layer}.{attr}", layer)
                for holder in holders:
                    for hname, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._set(holder, hname, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    wrapped = self._wrapper(fn, f"{layer}.{cls_name}.{meth}", layer)
                    self._set(cls, meth, staticmethod(wrapped) if static else wrapped)
                    if cls_name == "RatExpr":
                        for dunder, target in DUNDERS.items():
                            if target == meth:
                                self._set(cls, dunder, wrapped)
        os.register_at_fork(after_in_child=self._after_fork)
        self.on = True
        return self

    def _set(self, holder, name, value):
        self._patches.append((holder, name, holder.__dict__[name]))
        setattr(holder, name, value)

    def uninstall(self):
        self.on = False
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def _after_fork(self):
        if self.on:
            self.reset()
            self.worker = True

    # -- state --------------------------------------------------------------

    def state(self):
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self_s": dict(self.self_s), "cell_s": dict(self.cell_s),
                "count": dict(self.count), "peak_terms": self.peak_terms,
                "folded": self.folded, "spans": self.spans}

    def merge(self, st):
        for key in ("calls", "incl", "self_s", "cell_s", "count"):
            mine = getattr(self, key)
            for k, v in st[key].items():
                mine[k] += v
        self.peak_terms = max(self.peak_terms, st["peak_terms"])
        self.folded += st["folded"]
        self.spans.extend(tuple(s) for s in st["spans"])

    def flush_worker(self):
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.state()) + "\n")
        self.reset()
        self.worker = True

    def merge_worker_files(self, directory):
        for entry in sorted(os.listdir(directory)):
            if entry.startswith("worker-"):
                with open(os.path.join(directory, entry)) as fh:
                    for line in fh:
                        self.merge(json.loads(line))

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\top\tstart\tend\tparent\tpid\n")
            for s in self.spans:
                fh.write("\t".join(str(v) for v in s) + "\n")


# -- per-name hooks: counts measured where the work happens --------------------

def _poly_result(T, args, result, dur):
    if result is None:
        T.count["divexact_none"] += 1
    elif len(result.terms) > T.peak_terms:
        T.peak_terms = len(result.terms)


def _jet_image(T, args, result, dur):
    key = (id(args[0]), args[1])
    if key in T._seen:
        T.count["jet_memo_hits"] += 1
    else:
        T._seen.add(key)


def _substitute(T, args, result, dur):
    if T.stack[-1].name == "reduction.RewriteSystem.reduce":
        T.count["rewrite_steps"] += 1


def _run_claim(T, args, result, dur):
    T.cell_s[args[0]] += dur
    if T.worker and T.worker_dir and len(T.stack) == 1:
        T.flush_worker()


_AFTER = {
    "diffalg.DiffPoly.mul": _poly_result,
    "diffalg.DiffPoly.divexact": _poly_result,
    "transform.DerivationMap.jet_image": _jet_image,
    "diffalg.substitute_jet": _substitute,
    "claims.run_claim": _run_claim,
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(T, traced_wall, untraced_wall, cell_wall=None, jobs=1):
    """Per-layer metric values from a tracer's merged state."""
    c, inc, cnt = T.calls, T.incl, T.count
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = T.self_s.get(layer, 0.0)
    layered = sum(T.self_s.get(layer, 0.0) for layer in LAYERS)
    m[f"{HARNESS}.self_s"] = max(traced_wall - layered, 0.0)
    m["numoracle.confirm_zero_s"] = inc["numoracle.confirm_zero"]
    m["numoracle.proportionality_s"] = inc["numoracle.numeric_proportionality"]
    m["numoracle.consistent_point_calls"] = c["numoracle.consistent_point"]
    m["numoracle.consistent_point_s"] = inc["numoracle.consistent_point"]
    tried = c["numoracle.TestFunction.sample_coords"]
    rejected = cnt["small_denominator_errors"]
    m["numoracle.points_tried"] = tried
    m["numoracle.small_denominator_errors"] = rejected
    m["numoracle.point_accept_ratio"] = _ratio(tried - rejected, tried)
    m["diffalg.mul_calls"] = c["diffalg.DiffPoly.mul"]
    m["diffalg.mul_s"] = inc["diffalg.DiffPoly.mul"]
    m["diffalg.divexact_calls"] = c["diffalg.DiffPoly.divexact"]
    m["diffalg.divexact_s"] = inc["diffalg.DiffPoly.divexact"]
    m["diffalg.divexact_fail_ratio"] = _ratio(cnt["divexact_none"],
                                              c["diffalg.DiffPoly.divexact"])
    m["diffalg.substitute_calls"] = c["diffalg.substitute_jet"]
    m["diffalg.substitute_s"] = inc["diffalg.substitute_jet"]
    m["diffalg.proportional_s"] = inc["diffalg.proportional"]
    m["diffalg.peak_terms"] = T.peak_terms
    m["transform.build_s"] = (inc["transform.build_map"] + inc["transform.back_mix_map"]
                              + inc["transform.miura_mix_map"])
    m["transform.transport_calls"] = c["transform.DerivationMap.transport"]
    m["transform.transport_s"] = inc["transform.DerivationMap.transport"]
    m["transform.jet_image_calls"] = c["transform.DerivationMap.jet_image"]
    m["transform.jet_memo_hit_ratio"] = _ratio(cnt["jet_memo_hits"],
                                               c["transform.DerivationMap.jet_image"])
    m["reduction.reduce_calls"] = c["reduction.RewriteSystem.reduce"]
    m["reduction.reduce_s"] = inc["reduction.RewriteSystem.reduce"]
    m["reduction.rewrite_steps"] = cnt["rewrite_steps"]
    m["reduction.prolong_calls"] = c["reduction.RewriteSystem.prolonged_rhs"]
    m["exprio.print_s"] = (inc["exprio.print_text"] + inc["exprio.print_latex"]
                           + inc["exprio.to_json"])
    cell_total = sum(T.cell_s.values())
    for claim in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"):
        m[f"claims.{claim}.cell_s"] = T.cell_s.get(claim, 0.0)
    m["claims.cell_s"] = cell_total
    m["claims.parallel_efficiency"] = (_ratio(cell_wall[0], jobs * cell_wall[1])
                                       if cell_wall else 0.0)
    # shares of the time the layers were asked to do: cell time on verify
    # workloads, op time on the exact workloads
    base = cell_total or traced_wall
    m["numoracle.share_of_work"] = _ratio(T.self_s.get("numoracle", 0.0), base)
    m["symbolic.share_of_work"] = _ratio(
        sum(T.self_s.get(layer, 0.0) for layer in ("diffalg", "transform", "reduction")),
        base)
    m["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall) - 1.0
    return m
