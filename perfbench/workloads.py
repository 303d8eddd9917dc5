"""The benchmark's workloads: inputs drawn from the seed, the operations
one pass performs, and the check of every operation's output.

Each workload is closed-loop with one caller: an operation starts when
the previous one has returned.  An operation returns the number of
states it explored (for a check, `Verdict.explored`; for a run, its
steps, one configuration each) and the seconds spent searching (the
whole check, or `engine.run` alone).  A wrong answer raises `Mismatch`.
"""
from __future__ import annotations

import hashlib
import math
import re
import statistics
import time
from collections import defaultdict

import expected


class Mismatch(Exception):
    """An operation finished but its output is not the expected one."""


def _validated(abw, text):
    program = abw.Program.parse(text)
    diags = program.validate()
    if diags:
        raise RuntimeError(f"source does not validate: {diags[0]}")
    return program


def percentile_tail(op_s, pct):
    """Nearest-rank percentile of the operation times, with a description
    that states the sample count and the samples beyond it."""
    ordered = sorted(op_s)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    beyond = len(ordered) - rank
    return ordered[rank - 1], f"p{pct} of {len(ordered)} samples, {beyond} beyond it"


def _missing_key(label):
    """'right:consume-2(receivePB)' -> ('consume-2', 'receivePB')."""
    m = re.fullmatch(r"(?:left|right):([\w-]+)\((.*)\)", label)
    if m is None:
        raise Mismatch(f"unreadable missing label {label!r}")
    return (m.group(1), m.group(2))


def _check_verdict(verdict, kind, missing):
    if verdict.kind != kind:
        raise Mismatch(f"verdict {verdict.kind}, expected {kind}")
    if tuple(verdict.missing) != tuple(missing):
        raise Mismatch(f"missing {verdict.missing}, expected {tuple(missing)}")
    if missing:
        if verdict.witness is None or len(verdict.witness) == 0:
            raise Mismatch("incompatible verdict without a witness")
        last = verdict.witness[-1].key()
        if last != _missing_key(missing[0]):
            raise Mismatch(f"witness ends at {last}, not at {missing[0]}")


class _Checks:
    """`composable(check_pair(...))` on a fixed list of cases
    (key, program, pair, verdict kind, missing labels, reference states).
    A pass checks every case once, in an order drawn from the seed."""

    def __init__(self, abw, rng, cases):
        self.abw = abw
        self.rng = rng
        self.cases = cases
        self.states = {}
        self.seconds = defaultdict(list)

    def pass_ops(self):
        order = self.rng.sample(self.cases, len(self.cases))
        return [(case[0], self._op(*case)) for case in order]

    def _op(self, key, program, pair, kind, missing, _reference):
        def op():
            it = self.abw.interaction
            started = time.perf_counter()
            verdict = it.composable(*it.check_pair(program, *pair))
            elapsed = time.perf_counter() - started
            self.seconds[key].append(elapsed)
            _check_verdict(verdict, kind, missing)
            first = self.states.setdefault(key, verdict.explored)
            if first != verdict.explored:
                raise Mismatch(f"explored {verdict.explored} states, earlier {first}")
            return verdict.explored, elapsed
        return op

    def tail(self, op_s):
        return percentile_tail(op_s, self.tail_pct)

    def notes(self, states_per_pass):
        reference = sum(case[5] for case in self.cases)
        lines = [f"states per pass {states_per_pass}, reference {reference}"]
        lines += [f"states differ from reference (a behaviour change): {key} "
                  f"{self.states[key]} != {ref}"
                  for key, *_rest, ref in self.cases
                  if key in self.states and self.states[key] != ref]
        return lines


class CheckCorpus(_Checks):
    """The four pristine corpus pairs, all Composable."""

    name = "check-corpus"

    def __init__(self, abw, corpus_text, rng):
        program = _validated(abw, corpus_text)
        super().__init__(abw, rng, [
            (f"{a}/{m} {b}", program, (a, m, b), "Composable", (), states)
            for (a, m, b), states in expected.CORPUS_STATES.items()
        ])

    def tail(self, op_s):
        # A run holds 8 to 12 checks, so no percentile has ten samples
        # beyond it; the tail is the median check of the slowest pair.
        key, times = max(self.seconds.items(), key=lambda kv: statistics.median(kv[1]))
        return statistics.median(times), f"median of {len(times)} checks of {key}, the slowest pair"

    def notes(self, states_per_pass):
        wso_wso = [s for key, ss in self.seconds.items() if key.endswith("wso-wso") for s in ss]
        return super().notes(states_per_pass) + [
            "wso-wso check seconds: " + ", ".join(f"{s:.3f}" for s in wso_wso)
            + "  (the tier-1 gate is 5.0 s)"
        ]


def corpus_mutants(corpus_text):
    """Every single-line deletion of a `<-` send, keyed
    'Definition.method: send' -> mutated source text."""
    lines = corpus_text.splitlines(keepends=True)
    definition = method = None
    out = {}
    for i, line in enumerate(lines):
        d = re.match(r"(?:AA|WSO|WS|WSC)\s+([\w-]+)", line)
        if d:
            definition, method = d.group(1), None
            continue
        m = re.match(r"\s+(?:local\s+)?([\w-]+)\(", line)
        if m and line.rstrip().endswith("{"):
            method = m.group(1)
            continue
        if "<-" in line:
            key = f"{definition}.{method}: {line.strip()}"
            if key in out:
                raise RuntimeError(f"two sends read {key!r}")
            out[key] = "".join(lines[:i] + lines[i + 1:])
    return out


class CheckMutants(_Checks):
    """Single-send-deletion mutants of the corpus, each on a pair whose
    verdict turns Incompatible: every mutant in `expected.MUTANTS`."""

    name = "check-mutants"
    tail_pct = 80

    def __init__(self, abw, corpus_text, rng):
        texts = corpus_mutants(corpus_text)
        cases = []
        for key, (pair, kind, missing, states) in expected.MUTANTS.items():
            if key not in texts:
                raise RuntimeError(f"the corpus has no send {key!r}")
            cases.append((key, _validated(abw, texts[key]), pair, kind, missing, states))
        super().__init__(abw, rng, cases)


class RunTrace:
    """`engine.run` of the bundled choreography over run seeds drawn from
    the benchmark seed, with the trace printed and three documents
    exported after each run."""

    name = "run-trace"
    tail_pct = 98
    runs_per_pass = 16

    def __init__(self, abw, corpus_text, rng):
        self.abw = abw
        self.rng = rng
        self.program = _validated(abw, corpus_text)
        self.run_seeds = rng.sample(sorted(expected.TRACE_SHA256), self.runs_per_pass)

    def pass_ops(self):
        order = self.rng.sample(self.run_seeds, len(self.run_seeds))
        return [(f"seed {s}", self._op(s)) for s in order]

    def _op(self, run_seed):
        def op():
            abw = self.abw
            alloc = abw.AddressAllocator()
            config = abw.initial_configuration(self.program, expected.CHOREOGRAPHY, alloc)
            started = time.perf_counter()
            trace = abw.run(self.program, config, max_steps=expected.MAX_STEPS,
                            seed=run_seed, alloc=alloc)
            run_s = time.perf_counter() - started
            text = trace.text()
            docs = {
                (target, name): abw.export(self.program, target, name).to_text()
                for target, name in expected.EXPORT_SHA256
            }
            if not trace.quiescent:
                raise Mismatch("stopped at the step limit")
            exchanges = [m.method for m in trace.ws_exchanges()]
            if exchanges != expected.GOLDEN_EXCHANGES:
                raise Mismatch(f"exchanges {exchanges}")
            if _sha256(text) != expected.TRACE_SHA256[run_seed]:
                raise Mismatch("trace text differs from reference")
            for doc_key, doc in docs.items():
                if _sha256(doc) != expected.EXPORT_SHA256[doc_key]:
                    raise Mismatch(f"{doc_key}: export differs from reference")
            return len(trace.steps), run_s
        return op

    def tail(self, op_s):
        return percentile_tail(op_s, self.tail_pct)

    def notes(self, states_per_pass):
        return [f"run seeds {self.run_seeds}, steps per pass {states_per_pass}"]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


WORKLOADS = {w.name: w for w in (CheckCorpus, CheckMutants, RunTrace)}
