"""Rule enumeration, the fair scheduler, runs, and the one search kernel
every side search in `interaction` runs on.

A run keeps the instances its configuration enables, lets the scheduler
pick one, and applies it; after each step it re-asks only the terms the
step touched, read from the step the rule's Fragment.derive call
recorded, and a step that creates an actor or changes the restriction
is answered by one enabled_rules call.  Whether a rule applies is
rules.py's answer alone: enabled_rules and the run offer what
rules.site_rule, signal_rule, message_rule and feed_rule accept.  All
state lives in the immutable Configuration; the engine itself only
carries the allocator and the not-yet-consumed feed messages.
"""
from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import rules
from .errors import AbwsclError, SilentDivergence
from .program import Program
from .terms import (
    _CANON,
    ActorTerm,
    Address,
    AddressAllocator,
    AppMessage,
    Configuration,
    Event,
    EventMessage,
    Fragment,
    Record,
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


def _site_rules(program: Program, actor: ActorTerm) -> Tuple[RuleInstance, ...]:
    """What one actor enables, as rules.site_rule decides: Request or a
    create rule while it runs."""
    rid = rules.site_rule(program, actor)
    if rid.__class__ is str:
        queue = actor.state.queue
        payload = queue[0].canon() if queue else "ready"
        return (RuleInstance(rid, actor.addr.id, payload, actor.addr),)
    return ()


def _signal_rules(top: Fragment, ev: EventMessage) -> Tuple[RuleInstance, ...]:
    """What one signal enables, as rules.signal_rule decides: SendIn,
    SendOut or Compute."""
    rid = rules.signal_rule(top, ev)
    if rid.__class__ is str:
        return (RuleInstance(rid, ev.dest.id, ev.canon(), ev),)
    return ()


def _message_rules(program: Program, top: Fragment, am: AppMessage) -> Tuple[RuleInstance, ...]:
    """What one pending message enables, as rules.message_rule decides:
    SetPartner, ReadyDeliver or Out, or nothing while it is refused."""
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
    insts = [i for a in top.actors for i in _site_rules(program, a)]
    insts += [i for ev in top.events for i in _signal_rules(top, ev)]
    for am in {am.canon(): am for am in top.apps}.values():
        insts += _message_rules(program, top, am)
    for f in feeds:
        if rules.feed_rule(top, f) == "In":
            insts.append(RuleInstance("In", f.dest.id, f.canon(), f))
    return tuple(sorted(insts, key=_ORDER))


_READY, _TRANSMIT = Event.READY, Event.TRANSMIT


class _Enabled:
    """The instances one configuration of a run enables, by the term that
    enables them: an actor by its address, a pending message by (class,
    text), one instance per copy of a signal; the feeds' In instances
    apart, since a feed may read as a pending message.

    What each decision reads (README, "How the composability check
    works"): site_rule reads the actor; signal_rule reads nothing for a
    ready signal, the actors at src and dest for a transmit, and the
    actor at dest for a notification; message_rule reads the actor at
    dest, whether the members include it, its ready signal and its guard;
    feed_rule reads the receptionists.  So a step that creates no actor
    and keeps the restriction is answered by re-asking what it touched."""

    __slots__ = ("program", "terms", "feeds", "restriction")

    def __init__(self, program: Program, config: Configuration, feeds: Sequence[AppMessage]):
        self.program, self.restriction = program, config.top.restriction
        self.terms, self.feeds = {}, []
        for inst in enabled_rules(program, config, feeds):
            s = inst.subject
            if inst.rule_id == "In":
                self.feeds.append(inst)
            else:
                k = s if s.__class__ is Address else (s.__class__, s._canon)
                self.terms[k] = self.terms.get(k, ()) + (inst,)

    def update(self, inst: RuleInstance, top: Fragment) -> bool:
        """Re-ask, after the step of `inst` left `top`, the actor it
        replaced, the messages it consumed or produced, and the messages
        that read the replaced actor or the actor whose ready signal it
        consumed (a ready signal comes only with its actor, replaced by
        Request or born).  False when only enabled_rules can answer."""
        actor, born, gone, new, _ = top._step
        if born or top.restriction != self.restriction:
            return False
        if inst.rule_id == "In":
            self.feeds.remove(inst)
        terms, program, readers, touched = self.terms, self.program, set(), {}
        if actor is not None:
            touched[actor.addr] = _site_rules(program, actor)
            readers.add(actor.addr.id)
        for m in gone + new:
            touched[m.__class__, m._canon] = None
        for m in gone:
            if getattr(m, "event", None) is _READY:
                readers.add(m.src.id)
        if readers:
            for ev in top.events:
                e = ev.event
                if e is _READY:
                    continue
                if e is _TRANSMIT:
                    dest = ev.value.get("dest") if ev.value.__class__ is Record else None
                    if ev.src.id not in readers and getattr(dest, "id", None) not in readers:
                        continue
                elif ev.dest.id not in readers:
                    continue
                touched[EventMessage, ev._canon] = None
            for am in top.apps:
                if am.dest.id in readers:
                    touched[AppMessage, am._canon] = None
        for k, found in touched.items():
            if found is None:
                seq = top.events if k[0] is EventMessage else top.apps
                lo = bisect_left(seq, k[1], key=_CANON)
                copies = bisect_right(seq, k[1], lo, key=_CANON) - lo
                if not copies:
                    found = ()
                elif k[0] is EventMessage:
                    found = _signal_rules(top, seq[lo]) * copies
                else:
                    found = _message_rules(program, top, seq[lo])
            if found:
                terms[k] = found
            else:
                terms.pop(k, None)
        return True


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
    fairness: nothing stays enabled forever without being applied.  Each
    key's tie-break is hashed once per scheduler, when it first ties.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._ages: Dict[Tuple[str, str, str], int] = {}
        self._ties: Dict[Tuple[str, str, str], str] = {}

    def choose(self, instances: Sequence[RuleInstance], step: int) -> RuleInstance:
        old, ages, oldest, first = self._ages, {}, [], None
        for i in instances:
            k = i.key
            age = ages[k] = old.get(k, step)
            if first is None or age < first:
                oldest, first = [i], age
            elif age == first:
                oldest.append(i)
        self._ages = ages
        return oldest[0] if len(oldest) == 1 else min(oldest, key=self._tie)

    def _tie(self, inst: RuleInstance) -> str:
        tie = self._ties.get(inst.key)
        if tie is None:
            tie = self._ties[inst.key] = _tie_break(self.seed, inst.key)
        return tie


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
    quiescence or the step limit.  The instances offered at each step
    are enabled_rules' for that configuration and the unconsumed feeds,
    kept by `_Enabled` across the steps that leave them be.

    A create step mints from `alloc`, by default `allocator_for(config)`,
    which equals the allocator that minted the configuration's addresses.
    """
    sched = FairRoundRobin(seed)
    if alloc is None:
        alloc = allocator_for(config)
    remaining = tuple(feeds)
    steps: List[StepRecord] = []
    cur = config
    enabled = None
    while True:
        if enabled is None:
            enabled = _Enabled(program, cur, remaining)
        insts = [i for found in enabled.terms.values() for i in found] + enabled.feeds
        if not insts or len(steps) == max_steps:
            quiescent = not insts
            break
        inst = sched.choose(insts, len(steps))
        cur, produced, artifacts = apply_instance(program, cur, inst, alloc)
        if inst.rule_id == "In":
            remaining = _without(remaining, inst.subject)
        steps.append(StepRecord(inst, produced, artifacts, cur))
        if not enabled.update(inst, cur.top):
            enabled = None
    return Trace(initial=config, steps=tuple(steps), quiescent=quiescent)

