"""Per-layer tracing from outside the package.

`Tracer.install` replaces attributes of the loaded `abwscl` modules with
wrappers that count and time calls; `remove` puts the originals back.
A module-level function is replaced in every module that bound it, since
`from .engine import enabled_rules` copies the binding.  A name that no
longer exists is skipped, and the metrics built on it are left out.

Fine-grained functions, called up to millions of times a pass, only add
to a count and a sum of seconds.  Phase boundaries and whole operations
also record a span (id, parent id, operation id, name, start, end); spans
stay in memory until `write_spans`.  Self time is a call's duration minus
the time of the traced calls inside it, credited to the module the
function belongs to; time inside an operation but outside every traced
call is the harness's own.
"""
from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PERF = time.perf_counter

LAYERS = ("parser", "validate", "program", "terms", "rules", "engine", "interaction", "wsmap")

RULE_STEPS = (
    "step_request", "step_compute", "aa_send_in", "aa_send_out", "deliver_ready",
    "set_partner", "deliver_set_partner", "boundary_in", "eject", "boundary_out",
    "create_aa", "create_wso", "create_wss",
)

# (module, attribute, stat name, mode).  "span" also records spans,
# "timed" counts and times, "counted" only counts.
TARGETS = [
    ("parser", "parse_program", "parser.parse_program", "span"),
    ("parser", "tokenize", "parser.tokenize", "timed"),
    ("validate", "validate", "validate.validate", "span"),
    ("program", "initial_configuration", "program.initial_configuration", "timed"),
    ("program", "instantiate", "program.instantiate", "timed"),
    ("program", "load_method", "program.load_method", "timed"),
    ("program", "guard_accepts", "program.guard_accepts", "timed"),
    ("program", "absorb", "program.absorb", "timed"),
    ("terms", "Configuration.canon", "terms.Configuration.canon", "timed"),
    ("terms", "Fragment.make", "terms.Fragment.make", "timed"),
    ("terms", "AppMessage.canon", "terms.AppMessage.canon", "counted"),
    ("engine", "enabled_rules", "engine.enabled_rules", "timed"),
    ("engine", "apply_instance", "engine.apply_instance", "timed"),
    ("engine", "run", "engine.run", "span"),
    ("engine", "FairRoundRobin.choose", "engine.FairRoundRobin.choose", "timed"),
    ("interaction", "check_pair", "interaction.check_pair", "timed"),
    ("interaction", "composable", "interaction.composable", "timed"),
    ("interaction", "compatible", "interaction.compatible", "span"),
    ("interaction", "_solo_labels", "interaction.solo", "span"),
    ("interaction", "_greedy_witness", "interaction.witness", "span"),
    ("interaction", "_product_edges", "interaction.product_edges", "timed"),
    ("interaction", "_edges", "interaction.edges", "timed"),
    ("interaction", "_ample", "interaction.ample", "timed"),
    ("wsmap", "export", "wsmap.export", "span"),
] + [("rules", fn, "rules.step", "timed") for fn in RULE_STEPS]


_STATE_LAYER = ("states_per_s, pass_s, op_p50_s on check-corpus; the same, less, "
                "on check-mutants")
_CANON = _STATE_LAYER + "; op_p50_s only on run-trace, where canon text is only printed"
_STEP = _STATE_LAYER + "; states_per_s (run steps/s) on run-trace"
_PRODUCT = "pass_s, op_p50_s on check-mutants; nothing on check-corpus"
_RUN = "states_per_s (run steps/s), op_p50_s on run-trace only"
_SETUP = "setup_s only"

# per-layer metric -> the end-to-end metrics and workloads it should move
MOVES = {
    "terms.Configuration.canon.calls": _CANON,
    "terms.Configuration.canon.s": _CANON,
    "terms.Fragment.make.calls": _CANON,
    "terms.Fragment.make.s": _CANON,
    "terms.AppMessage.canon.calls": _CANON,
    "engine.enabled_rules.calls": _STEP,
    "engine.enabled_rules.s": _STEP,
    "engine.enabled_rules.instances_per_call": _STEP,
    "engine.apply_instance.calls": _STEP,
    "engine.apply_instance.s": _STEP,
    "rules.step.calls": _STEP,
    "rules.step.s": _STEP,
    "interaction.solo.states": "pass_s, op_tail_s on check-corpus; barely check-mutants",
    "interaction.solo.s": "pass_s, op_tail_s on check-corpus; barely check-mutants",
    "interaction.solo.states_per_s": "pass_s, op_tail_s on check-corpus; barely check-mutants",
    "interaction.product.states": _PRODUCT,
    "interaction.product.s": _PRODUCT,
    "interaction.product.states_per_s": _PRODUCT,
    "interaction.edges.calls": _PRODUCT,
    "interaction.witness.s": _PRODUCT,
    "interaction.ample.hit_ratio": "states_explored first, pass_s second, on both check "
                                   "workloads; a pure-speed change leaves it unchanged",
    "engine.run.steps": _RUN,
    "engine.run.s": _RUN,
    "engine.FairRoundRobin.choose.s": _RUN,
    "wsmap.export.calls": _RUN,
    "wsmap.export.s": _RUN,
    "parser.parse_program.s": _SETUP,
    "parser.tokens_per_s": _SETUP,
    "validate.validate.s": _SETUP,
}


def _in_product(tracer, res):
    return any(f[0] == "interaction.product_edges" for f in tracer.stack)


# stat name -> what one call adds to the stat's extra count `n`
_COUNT = {
    "parser.tokenize": lambda tracer, res: len(res),
    "engine.enabled_rules": lambda tracer, res: len(res),
    "engine.run": lambda tracer, res: len(res.steps),
    "interaction.compatible": lambda tracer, res: res.explored,
    "interaction.solo": lambda tracer, res: res[1],
    "interaction.ample": lambda tracer, res: res is not None,
    "interaction.edges": _in_product,
}


class Stat:
    __slots__ = ("calls", "total", "n")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.n = 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.stack = []  # frames [stat name, child seconds, span id]
        self.spans = []
        self.present = set()
        self._undo = []
        self._op = 0
        self._ids = itertools.count()

    # -- installing --------------------------------------------------------

    def install(self, package):
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if n == prefix or n.startswith(prefix + ".")]
        for module, attr, name, mode in TARGETS:
            owner = sys.modules.get(f"{prefix}.{module}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None:
                continue
            if isinstance(owner, type):
                raw = owner.__dict__.get(fn_name)
                if raw is None:
                    continue
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                new = self._wrap(fn, name, module, mode)
                setattr(owner, fn_name, staticmethod(new) if is_static else new)
                self._undo.append((owner, fn_name, raw))
            else:
                fn = getattr(owner, fn_name, None)
                if fn is None:
                    continue
                new = self._wrap(fn, name, module, mode)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, new)
                            self._undo.append((m, key, fn))
            self.present.add(name)

    def remove(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrap(self, fn, name, layer, mode):
        stat = self.stats[name]
        if mode == "counted":
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted
        stack = self.stack
        layer_self = self.self_s
        count = _COUNT.get(name)
        spans = self.spans if mode == "span" else None

        def timed(*args, **kwargs):
            if spans is None:
                frame = [name, 0.0, None]
            else:
                parent = self._span_parent()
                frame = [name, 0.0, next(self._ids)]
            stack.append(frame)
            t0 = PERF()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = PERF()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                stat.calls += 1
                stat.total += dt
                layer_self[layer] += dt - frame[1]
                if spans is not None:
                    spans.append((frame[2], parent, self._op, name, t0, t1))
            if count is not None:
                stat.n += count(self, res)
            return res
        return timed

    def _span_parent(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    # -- regions -------------------------------------------------------------

    @contextmanager
    def region(self, name):
        """A root span (an operation or the set-up) whose self time is the
        harness's own."""
        self._op += 1
        frame = [name, 0.0, next(self._ids)]
        self.stack.append(frame)
        t0 = PERF()
        try:
            yield
        finally:
            t1 = PERF()
            self.stack.pop()
            self.self_s["harness"] += (t1 - t0) - frame[1]
            self.spans.append((frame[2], None, self._op, name, t0, t1))

    def take(self):
        """The counts so far, as plain numbers; then start again from zero."""
        snap = {name: (s.calls, s.total, s.n) for name, s in self.stats.items()
                if name in self.present}
        self_s = dict(self.self_s)
        for s in self.stats.values():
            s.calls, s.total, s.n = 0, 0.0, 0
        self.self_s.clear()
        return snap, self_s

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, op, name, t0, t1 in sorted(self.spans):
                out.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                      "name": name, "start": t0, "end": t1}) + "\n")


def layer_metrics(setup, passes, n_passes, pass_s, untraced_pass_s):
    """Per-layer numbers: set-up figures from one traced set-up, the rest
    per traced pass.  A metric whose wrapped name is gone is left out."""
    (s_snap, s_self), (p_snap, p_self) = setup, passes
    out = {}

    def put(name, unit, value):
        out[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_pass(stat):
        if stat in p_snap:
            calls, total, _n = p_snap[stat]
            put(f"{stat}.calls", "count", calls / n_passes)
            put(f"{stat}.s", "s", total / n_passes)

    for stat in ("terms.Configuration.canon", "terms.Fragment.make",
                 "engine.enabled_rules", "engine.apply_instance", "rules.step",
                 "wsmap.export"):
        per_pass(stat)
    if "terms.AppMessage.canon" in p_snap:
        put("terms.AppMessage.canon.calls", "count", p_snap["terms.AppMessage.canon"][0] / n_passes)
    if "engine.enabled_rules" in p_snap:
        calls, _t, n = p_snap["engine.enabled_rules"]
        put("engine.enabled_rules.instances_per_call", "count", ratio(n, calls))
    if "interaction.solo" in p_snap:
        _c, total, n = p_snap["interaction.solo"]
        put("interaction.solo.states", "states", n / n_passes)
        put("interaction.solo.s", "s", total / n_passes)
        put("interaction.solo.states_per_s", "states/s", ratio(n, total))
        if "interaction.compatible" in p_snap and "interaction.witness" in p_snap:
            _c, c_total, c_n = p_snap["interaction.compatible"]
            w_total = p_snap["interaction.witness"][1]
            states, secs = c_n - n, c_total - total - w_total
            put("interaction.product.states", "states", states / n_passes)
            put("interaction.product.s", "s", secs / n_passes)
            put("interaction.product.states_per_s", "states/s", ratio(states, secs))
    if "interaction.edges" in p_snap:
        put("interaction.edges.calls", "count", p_snap["interaction.edges"][2] / n_passes)
    if "interaction.witness" in p_snap:
        put("interaction.witness.s", "s", p_snap["interaction.witness"][1] / n_passes)
    if "interaction.ample" in p_snap:
        calls, _t, hits = p_snap["interaction.ample"]
        put("interaction.ample.hit_ratio", "ratio", ratio(hits, calls))
    if "engine.run" in p_snap:
        _c, total, steps = p_snap["engine.run"]
        put("engine.run.steps", "steps", steps / n_passes)
        put("engine.run.s", "s", total / n_passes)
    if "engine.FairRoundRobin.choose" in p_snap:
        put("engine.FairRoundRobin.choose.s", "s",
            p_snap["engine.FairRoundRobin.choose"][1] / n_passes)
    if "parser.parse_program" in s_snap:
        parse_s = s_snap["parser.parse_program"][1]
        put("parser.parse_program.s", "s", parse_s)
        if "parser.tokenize" in s_snap:
            put("parser.tokens_per_s", "tokens/s", ratio(s_snap["parser.tokenize"][2], parse_s))
    if "validate.validate" in s_snap:
        put("validate.validate.s", "s", s_snap["validate.validate"][1])
    for layer in LAYERS + ("harness",):
        put(f"{layer}.self_s", "s", s_self.get(layer, 0.0) + p_self.get(layer, 0.0) / n_passes)
    put("trace.pass_s", "s", pass_s)
    put("trace.untraced_pass_s", "s", untraced_pass_s)
    put("trace.overhead_s", "s", pass_s - untraced_pass_s)
    return out
