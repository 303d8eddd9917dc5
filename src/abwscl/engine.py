"""Rule enumeration, the fair scheduler, runs, and the one search kernel
every side search in `interaction` runs on.

A run repeatedly asks enabled_rules for every instance whose side
conditions hold, lets the scheduler pick one, and applies it.  Whether
a rule applies is rules.py's answer alone: enabled_rules offers what
rules.site_rule, signal_rule, message_rule and feed_rule accept, and
apply_instance reads what a step produced from the step the rule's
Fragment.derive call recorded.  All state lives in the immutable
Configuration; the engine itself only carries the allocator and the
not-yet-consumed feed messages.
"""
from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import rules
from .errors import AbwsclError, SilentDivergence
from .program import Program
from .terms import (
    Address,
    AddressAllocator,
    AppMessage,
    Configuration,
    EventMessage,
    Fragment,
    _without,
)


_CROSSING = {"Out": "out", "In": "in"}
# states one search may expand before giving up on termination
_MAX_STATES = 200_000
# the text fields only: subjects have no order
_ORDER = itemgetter(0, 1, 2)


class RuleInstance(NamedTuple):
    """One applicable rewrite: which rule, where, consuming what.

    `subject` is the term the rule consumes or acts at: the site actor's
    address for Request and the create rules, the signal for Compute,
    SendIn and SendOut, the application message for ReadyDeliver,
    SetPartner and Out, and the feed for In.  Instances order and are
    scheduled by their text alone, (rule id, site, payload)."""

    rule_id: str
    site: str
    payload: str
    subject: Union[Address, EventMessage, AppMessage]

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule_id, self.site, self.payload)

    def __str__(self) -> str:
        return f"{self.rule_id} @ {self.site}"


@dataclass(frozen=True)
class StepRecord:
    instance: RuleInstance
    produced: Tuple[str, ...]
    artifacts: Tuple
    post: Configuration


@dataclass(frozen=True)
class Trace:
    initial: Configuration
    steps: Tuple[StepRecord, ...]
    quiescent: bool

    @property
    def reached_limit(self) -> bool:
        return not self.quiescent

    @property
    def final(self) -> Configuration:
        return self.steps[-1].post if self.steps else self.initial

    def text(self) -> str:
        status = "quiescent" if self.quiescent else "step-limit"
        lines = ["abwscl-trace v1", f"steps {len(self.steps)} {status}"]
        for i, s in enumerate(self.steps):
            prod = "; ".join(s.produced) if s.produced else "-"
            lines.append(f"{i}: {s.instance.rule_id} @ {s.instance.site} -> {prod}")
        lines.append("-- final")
        lines.append(self.final.canon())
        return "\n".join(lines) + "\n"

    def ws_exchanges(self) -> Tuple[AppMessage, ...]:
        """Messages between two interface services, in emission order."""
        out: List[AppMessage] = []
        for s in self.steps:
            for a in s.artifacts:
                if (
                    isinstance(a, AppMessage)
                    and a.src is not None
                    and a.src.kind == "WS"
                    and a.dest.kind == "WS"
                ):
                    out.append(a)
        return tuple(out)

    def boundary_labels(self) -> Tuple[Tuple[str, str], ...]:
        """The ("out"|"in", method) of each boundary crossing, in step order."""
        return tuple((_CROSSING[s.instance.rule_id], s.instance.subject.method or "?")
                     for s in self.steps if s.instance.rule_id in _CROSSING)


# -- enumeration --------------------------------------------------------------


def _section_rules(program: Program, top: Fragment) -> List[RuleInstance]:
    """What the actors and signals enable, as rules.site_rule and
    rules.signal_rule decide: Request or a create rule at a running actor,
    SendIn, SendOut or Compute at a signal.  These read the actors, the
    signals and the program, and nothing else."""
    insts: List[RuleInstance] = []
    for a in top.actors:
        rid = rules.site_rule(program, a)
        if rid.__class__ is str:
            queue = a.state.queue
            payload = queue[0].canon() if queue else "ready"
            insts.append(RuleInstance(rid, a.addr.id, payload, a.addr))
    for ev in top.events:
        rid = rules.signal_rule(top, ev)
        if rid.__class__ is str:
            insts.append(RuleInstance(rid, ev.dest.id, ev.canon(), ev))
    return insts


def _message_rules(
    program: Program, top: Fragment, am: AppMessage
) -> Tuple[RuleInstance, ...]:
    """What one pending message enables, as rules.message_rule decides:
    SetPartner, ReadyDeliver or Out, or nothing while it is refused.
    Reads the message, the members, the destination actor, its ready
    signal and its guard."""
    rid = rules.message_rule(program, top, am)
    if rid.__class__ is str:
        return (RuleInstance(rid, am.dest.id, am.canon(), am),)
    return ()


def enabled_rules(
    program: Program,
    config: Configuration,
    feeds: Sequence[AppMessage] = (),
) -> Tuple[RuleInstance, ...]:
    """Every rule instance whose side conditions hold, in a deterministic
    order (rule id, then site, then consumed payload).  Copies of a
    pending message share one instance: whichever copy a step consumes,
    it reaches the same configuration."""
    top = config.top
    insts = _section_rules(program, top)
    for am in {am.canon(): am for am in top.apps}.values():
        insts += _message_rules(program, top, am)
    for f in feeds:
        if rules.feed_rule(top, f) == "In":
            insts.append(RuleInstance("In", f.dest.id, f.canon(), f))
    return tuple(sorted(insts, key=_ORDER))


# -- application ---------------------------------------------------------------


def allocator_for(config: Configuration) -> AddressAllocator:
    """The allocator a create step in this configuration draws from.

    Every address an allocator mints becomes an actor, and actors are
    never removed, so the next counter is the one past every `label#n`
    id among the actors."""
    return AddressAllocator().advance_past(a.addr.id for a in config.top.actors)


# the rules that draw fresh addresses from an allocator
_MINTS = frozenset({"CreateAA", "CreateWSO", "CreateWSs"})

# How apply_instance calls each rule with (program, config, subject,
# alloc).  Each call looks the rule up in the module, so a wrapper
# installed on a rule is the one called.
_CALLS = {
    "Request": lambda p, c, s, a: rules.step_request(p, c, s),
    "Compute": lambda p, c, s, a: rules.step_compute(p, c, s),
    "SendIn": lambda p, c, s, a: rules.aa_send_in(c, s),
    "SendOut": lambda p, c, s, a: rules.aa_send_out(c, s),
    "ReadyDeliver": lambda p, c, s, a: rules.deliver_ready(p, c, s),
    "SetPartner": lambda p, c, s, a: rules.deliver_ready(p, c, s),
    "Out": lambda p, c, s, a: rules.eject(p, c, s),
    "In": lambda p, c, s, a: rules.boundary_in(c, s),
    "CreateAA": lambda p, c, s, a: rules.create_aa(p, c, s, a),
    "CreateWSO": lambda p, c, s, a: rules.create_wso(p, c, s, a),
    "CreateWSs": lambda p, c, s, a: rules.create_wss(p, c, s, a),
}


def apply_instance(
    program: Program,
    config: Configuration,
    inst: RuleInstance,
    alloc: Optional[AddressAllocator],
) -> Tuple[Configuration, Tuple[str, ...], Tuple]:
    """Apply one enabled instance to its subject; returns (config,
    produced, artifacts), both read from the step the rule recorded.
    Only the create rules (`_MINTS`) draw on `alloc`.

    `produced` is each born actor as `actor <id>`, then the text of each
    new message; `artifacts` are the new application messages.  An
    ejection reports the message it consumed for both.  An instance
    whose subject is no longer pending raises the rule's own error.
    """
    call = _CALLS.get(inst.rule_id)
    if call is None:
        raise AbwsclError(f"unknown rule id {inst.rule_id!r}")
    subject = inst.subject
    cfg = call(program, config, subject, alloc)
    if inst.rule_id == "Out":
        return cfg, (subject.canon(),), (subject,)
    _actor, born, _gone, new, _restriction = cfg.top._step
    produced = tuple([f"actor {a.addr.canon()}" for a in born] + [m.canon() for m in new])
    return cfg, produced, tuple([m for m in new if m.__class__ is AppMessage])


def next_configuration(
    program: Program, config: Configuration, inst: RuleInstance
) -> Configuration:
    """apply_instance's configuration, a create rule minting from
    allocator_for(config), as a run from `config` would."""
    alloc = allocator_for(config) if inst.rule_id in _MINTS else None
    return apply_instance(program, config, inst, alloc)[0]


# -- schedulers ----------------------------------------------------------------


def _tie_break(seed: int, key: Tuple[str, str, str]) -> str:
    return hashlib.sha1(f"{seed}:{key}".encode("utf-8")).hexdigest()


class FairRoundRobin:
    """Oldest continuously-enabled instance first; seeded hash breaks ties.

    Age is the step at which an instance became enabled and stayed so; an
    instance that momentarily disables starts over.  This gives observation
    fairness: nothing stays enabled forever without being applied.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._ages: Dict[Tuple[str, str, str], int] = {}

    def choose(self, instances: Sequence[RuleInstance], step: int) -> RuleInstance:
        keys = {i.key for i in instances}
        self._ages = {k: s for k, s in self._ages.items() if k in keys}
        for k in keys:
            self._ages.setdefault(k, step)
        return min(
            instances, key=lambda i: (self._ages[i.key], _tie_break(self.seed, i.key))
        )


# -- search --------------------------------------------------------------------


def search(start, successors, *, phase, depth, lifo=False, stop=None):
    """Best-first walk over a graph whose edges cost 0 or 1.

    successors(node, cost) yields (next node, its cost) for every edge
    within the caller's depth bound, recording whatever the caller needs.
    A node is its own key: it is pushed only when it is new or reached
    more cheaply, and a popped node that has been reached more cheaply
    since is skipped.  FIFO order is 0-1 breadth-first (zero-cost moves
    go to the front); LIFO order is depth-first.  The walk ends when the
    frontier is empty or stop() holds.  Returns the number of nodes
    expanded; expanding more than `_MAX_STATES` raises SilentDivergence.
    """
    best = {start: 0}
    frontier = deque([(start, 0)])
    expanded = 0
    while frontier and not (stop is not None and stop()):
        node, cost = frontier.pop() if lifo else frontier.popleft()
        if best[node] < cost:
            continue
        expanded += 1
        if expanded > _MAX_STATES:
            raise SilentDivergence(
                f"{phase}: more than {_MAX_STATES} states within depth {depth}"
            )
        for nxt, c2 in successors(node, cost):
            if best.get(nxt, c2 + 1) <= c2:
                continue
            best[nxt] = c2
            if lifo or c2 != cost:
                frontier.append((nxt, c2))
            else:
                frontier.appendleft((nxt, c2))
    return expanded


# -- driving -------------------------------------------------------------------


def run(
    program: Program,
    config: Configuration,
    max_steps: int = 1000,
    *,
    seed: int = 0,
    feeds: Sequence[AppMessage] = (),
    alloc: Optional[AddressAllocator] = None,
) -> Trace:
    """Drive a configuration under `FairRoundRobin(seed)` until
    quiescence or the step limit.

    A create step mints from `alloc`, by default `allocator_for(config)`,
    which equals the allocator that minted the configuration's addresses.
    """
    sched = FairRoundRobin(seed)
    if alloc is None:
        alloc = allocator_for(config)
    remaining = tuple(feeds)
    steps: List[StepRecord] = []
    cur = config
    quiescent = False
    while len(steps) < max_steps:
        insts = enabled_rules(program, cur, feeds=remaining)
        if not insts:
            quiescent = True
            break
        inst = sched.choose(insts, len(steps))
        cur, produced, artifacts = apply_instance(program, cur, inst, alloc)
        if inst.rule_id == "In":
            remaining = _without(remaining, inst.subject)
        steps.append(StepRecord(inst, produced, artifacts, cur))
    if not quiescent:
        quiescent = not enabled_rules(program, cur, feeds=remaining)
    return Trace(initial=config, steps=tuple(steps), quiescent=quiescent)

