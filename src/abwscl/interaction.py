"""Boundary labelling and compositionality checking.

A partial configuration is one side of a composition: a fragment (an
orchestration with its activity actors, or an interface service alone)
together with the address it talks through.  Every move the fragment can
make is an interaction step: internal rewrites are silent, a message
leaving the fragment is an emit, a message entering from the bound peer
is a consume.  A check builds each visible step where its message
crosses: the ejection of a member's message is an emit-2, a peer call
injected at the anchor a consume-2, each carrying the call.  The
signal-level shapes (emit-1/consume-1), which also carry the event, are
only printed and dualized.

Printed labels follow one convention for every shape: the far-side
address first, the member address second, then the payload.  The dual of
a step swaps those two slots, exchanges emit with consume, and flips the
label family between wso-ws and ws-wso (ws-ws and wso-wso are their own
mirror families), so dual is an involution by construction.

Two sides are composable when their member sets are disjoint and they
are compatible: feeding each side's emissions to the other must realize
every visible step the side could take on its own.  A side alone is
explored with free consumes from the peer's call alphabet; neighbours
that are not the peer under study (a partner service behind the one
being checked, or the orchestration driving it) inject their calls
silently, once each, so the conversation is self-contained.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, List, Optional, Set, Tuple

from . import engine, rules
from . import syntax as ast
from .engine import (
    _MINTS,
    _ORDER,
    _message_rules,
    enabled_rules,
    next_configuration,
    search,
)
from .errors import (
    BoundaryMismatch,
    NotAWS,
    NotAWSO,
    UnknownName,
)
from .program import _DEFAULTS, Program, instantiate
from .terms import (
    Address,
    AddressAllocator,
    AppMessage,
    Configuration,
    Event,
    Fragment,
    Links,
    ProcessingState,
    Record,
    Value,
    birth_signals,
    call_record,
    canon_value,
    members,
    restrict,
)

BOUNDARIES = ("wso-ws", "ws-wso", "ws-ws", "wso-wso")

_FLIP = {"wso-ws": "ws-wso", "ws-wso": "wso-ws", "ws-ws": "ws-ws", "wso-wso": "wso-wso"}
_DUAL_SHAPE = {
    "silent": "silent",
    "emit-1": "consume-1",
    "emit-2": "consume-2",
    "consume-1": "emit-1",
    "consume-2": "emit-2",
}


def _payload_text(value: Value) -> str:
    if isinstance(value, Record):
        m = value.get("method")
        if isinstance(m, str):
            return m
    return canon_value(value)


@dataclass(frozen=True)
class InteractionStep:
    """One boundary-labelled move of a partial configuration."""

    boundary: str
    shape: str
    outer: Optional[Address] = None
    inner: Optional[Address] = None
    event: Optional[Event] = None
    payload: Value = None

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise BoundaryMismatch(f"unknown boundary {self.boundary!r}")
        if self.shape not in _DUAL_SHAPE:
            raise BoundaryMismatch(f"unknown step shape {self.shape!r}")

    @property
    def visible(self) -> bool:
        return self.shape != "silent"

    def key(self) -> Tuple[str, str]:
        """What compatibility matches on: shape and payload text."""
        return (self.shape, _payload_text(self.payload))

    def label(self) -> str:
        if self.shape == "silent":
            return f"{self.boundary}-silent"
        outer = self.outer.canon() if self.outer else "?"
        inner = self.inner.canon() if self.inner else "?"
        if self.shape in ("emit-1", "consume-1"):
            ev = self.event.value if self.event else "?"
            return (
                f"{self.boundary}-{self.shape}"
                f"({outer},{inner},{ev},{_payload_text(self.payload)})"
            )
        return f"{self.boundary}-{self.shape}({outer},{inner},{_payload_text(self.payload)})"

    def dual(self) -> "InteractionStep":
        return InteractionStep(
            boundary=_FLIP[self.boundary],
            shape=_DUAL_SHAPE[self.shape],
            outer=self.inner,
            inner=self.outer,
            event=self.event,
            payload=self.payload,
        )

    def __str__(self) -> str:
        return self.label()


@lru_cache(maxsize=None)
def silent(boundary: str) -> InteractionStep:
    # steps are immutable, so each boundary shares one silent marker
    return InteractionStep(boundary=boundary, shape="silent")


@dataclass(frozen=True)
class InteractionSequence:
    """Steps observed at one boundary, in order."""

    steps: Tuple[InteractionStep, ...] = ()

    def __post_init__(self):
        families = {s.boundary for s in self.steps}
        if len(families) > 1:
            raise BoundaryMismatch(f"mixed boundaries in one sequence: {families}")

    def dual(self) -> "InteractionSequence":
        return InteractionSequence(tuple(s.dual() for s in self.steps))

    def visible(self) -> "InteractionSequence":
        return InteractionSequence(tuple(s for s in self.steps if s.visible))

    def labels(self) -> Tuple[str, ...]:
        return tuple(s.label() for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, i):
        return self.steps[i]

    def __str__(self) -> str:
        return "[" + ", ".join(self.labels()) + "]"


@dataclass(frozen=True, eq=False)
class PartialConfiguration:
    """A fragment with the boundary it is observed through.

    anchor: the fragment's receptionist, named after its behaviour.
    gate:   the literal outside address its traffic moves through.
    peer:   the far side's identity as printed in labels; for virtual
            orchestration-to-orchestration boundaries this is the far
            orchestration while the gate stays the interface service.
    peer_feeds: calls the peer may send, consumed as visible steps.
    env_feeds:  calls other neighbours send, injected silently once each.
    """

    program: Program
    config: Configuration
    boundary: str
    behavior: str
    anchor: Address
    peer: Address
    gate: Address
    peer_feeds: Tuple[AppMessage, ...] = ()
    env_feeds: Tuple[AppMessage, ...] = ()

    def __post_init__(self):
        mem = members(self.config.top)
        if self.anchor not in mem:
            raise BoundaryMismatch(f"{self.anchor.canon()} is not a member")
        if self.gate in mem or self.peer in mem:
            raise BoundaryMismatch("the far side must lie outside the fragment")

    def members(self) -> FrozenSet[Address]:
        return members(self.config.top)


# -- boundary steps ------------------------------------------------------------


def _emit_visible(pc: PartialConfiguration, am: AppMessage) -> bool:
    # orchestration sides observe every ejection; service sides only
    # what crosses toward the bound peer
    if pc.boundary in ("wso-ws", "wso-wso"):
        return True
    return am.dest == pc.gate


def dual(seq: InteractionSequence) -> InteractionSequence:
    return seq.dual()


# -- building the two kinds of side -------------------------------------------


def _default_call(d: ast.BehaviorDefinition, name: str) -> Record:
    """A call of `d`'s method `name` with each parameter's default value
    (no arguments when `d` declares no such method)."""
    m = d.method(name)
    args = tuple(_DEFAULTS.get(ptype) for ptype, _pname in m.params) if m else ()
    return call_record(name, args)


def _feed_calls(
    sender: ast.BehaviorDefinition,
    kind: str,
    receiver: ast.BehaviorDefinition,
    dest: Address,
    src: Address,
) -> Tuple[AppMessage, ...]:
    """The calls `sender` sends along its `kind` references that
    `receiver` declares, each with default arguments."""
    return tuple(
        AppMessage(dest=dest, src=src, value=_default_call(receiver, name))
        for name in sender.sends(kind)
        if receiver.method(name) is not None
    )


def wso_side(
    program: Program,
    wso_name: str,
    *,
    ws_name: Optional[str] = None,
    far_wso: Optional[str] = None,
) -> PartialConfiguration:
    """One orchestration with its activity actors, bound to its service.

    With far_wso the boundary is the virtual orchestration-to-
    orchestration one: the interface service stays the gate, but labels
    name the far orchestration.
    """
    d = program.definition(wso_name)
    if d.kind != "WSO":
        raise NotAWSO(f"{wso_name} is a {d.kind}, not a WSO")
    ws_def = program.definition(ws_name) if ws_name else program.creator(wso_name, "WS")
    if ws_def is None:
        raise UnknownName(f"no interface service creates {wso_name!r}")
    if ws_def.kind != "WS":
        raise NotAWS(f"{ws_def.name} is a {ws_def.kind}, not a WS")
    anchor = Address(wso_name, "WSO")
    gate = Address(ws_def.name, "WS")
    params = d.init.params if d.init else ()
    args = [gate if ptype == "WS" else _DEFAULTS.get(ptype) for ptype, _pname in params]
    actor = instantiate(program, wso_name, args, AddressAllocator(), addr=anchor)
    fragment = restrict(Fragment.make(actors=(actor,), events=birth_signals(actor)), {anchor})
    peer = Address(far_wso, "WSO") if far_wso else gate
    return PartialConfiguration(
        program=program,
        config=Configuration(fragment),
        boundary="wso-wso" if far_wso else "wso-ws",
        behavior=wso_name,
        anchor=anchor,
        peer=peer,
        gate=gate,
        peer_feeds=_feed_calls(ws_def, "WSO", d, anchor, gate),
        env_feeds=(),
    )


def ws_side(
    program: Program,
    ws_name: str,
    *,
    facing: str,
    wso_name: Optional[str] = None,
    partner_name: Optional[str] = None,
) -> PartialConfiguration:
    """One interface service alone, its references prebound.

    facing "wso" observes the service against its orchestration; facing
    "ws" observes it against its partner service.  Whichever neighbour
    is not under observation becomes a silent feeder.
    """
    if facing not in ("wso", "ws"):
        raise BoundaryMismatch(f"facing must be 'wso' or 'ws', not {facing!r}")
    d = program.definition(ws_name)
    if d.kind != "WS":
        raise NotAWS(f"{ws_name} is a {d.kind}, not a WS")
    wso_name = wso_name or next(iter(program.creates(ws_name, "WSO")), None)
    if not partner_name:
        wsc = program.creator(ws_name, "WSC")
        partners = program.creates(wsc.name, "WS") if wsc is not None else ()
        partner_name = next((c for c in partners if c != ws_name), None)
    anchor = Address(ws_name, "WS")
    owner = Address(wso_name or f"{ws_name}-owner", "WSO")
    partner = Address(partner_name or f"{ws_name}-partner", "WS")
    args = [_DEFAULTS.get(ptype) for ptype, _pname in (d.init.params if d.init else ())]
    actor = instantiate(program, ws_name, args, AddressAllocator(), addr=anchor)
    # creation and wiring happened elsewhere: drop the birth body and
    # hand the service its references ready-made
    actor = actor.evolve(p=ProcessingState.READY, last_signal=Event.READY,
                         state=actor.state.with_queue(()),
                         links=Links("WS", owner_wso=owner, partner_ws=partner))
    fragment = restrict(Fragment.make(actors=(actor,), events=birth_signals(actor)), {anchor})

    def calls_from(name: Optional[str], src: Address) -> Tuple[AppMessage, ...]:
        return _feed_calls(program.definition(name), "WS", d, anchor, src) if name else ()

    from_wso, from_partner = calls_from(wso_name, owner), calls_from(partner_name, partner)
    gate = owner if facing == "wso" else partner
    peer_feeds, env_feeds = (
        (from_wso, from_partner) if facing == "wso" else (from_partner, from_wso)
    )
    return PartialConfiguration(
        program=program,
        config=Configuration(fragment),
        boundary="ws-wso" if facing == "wso" else "ws-ws",
        behavior=ws_name,
        anchor=anchor,
        peer=gate,
        gate=gate,
        peer_feeds=peer_feeds,
        env_feeds=env_feeds,
    )


def check_pair(
    program: Program, name_a: str, name_b: str, boundary: str
) -> Tuple[PartialConfiguration, PartialConfiguration]:
    """The two sides the named boundary puts under observation."""
    if boundary == "wso-ws":
        pc_a = wso_side(program, name_a, ws_name=name_b)
        pc_m = ws_side(program, name_b, facing="wso", wso_name=name_a)
    elif boundary == "ws-ws":
        pc_a = ws_side(program, name_a, facing="ws", partner_name=name_b)
        pc_m = ws_side(program, name_b, facing="ws", partner_name=name_a)
    elif boundary == "wso-wso":
        pc_a = wso_side(program, name_a, far_wso=name_b)
        pc_m = wso_side(program, name_b, far_wso=name_a)
    else:
        raise BoundaryMismatch(
            f"checkable boundaries are wso-ws, ws-ws, wso-wso; got {boundary!r}"
        )
    return pc_a, pc_m


# -- one side explored against a free boundary ---------------------------------


def _inject(pc: PartialConfiguration, apps, feed: AppMessage) -> Optional[InteractionStep]:
    """The consume step of a peer call arriving at a side whose pending
    messages are `apps`, or None while a call of the same method to the
    same receiver is pending."""
    for am in apps:
        if am.dest == feed.dest and am.method == feed.method:
            return None
    return InteractionStep(boundary=pc.boundary, shape="consume-2", outer=pc.peer,
                           inner=feed.dest, payload=feed.value)


def _ejection(pc: PartialConfiguration, am: AppMessage) -> InteractionStep:
    """What the side shows when `am` leaves it: an emit-2 where it
    observes the ejection, a silent step elsewhere."""
    if not _emit_visible(pc, am):
        return silent(pc.boundary)
    # a call to the gate is labelled with the peer it stands for
    far = pc.peer if am.dest == pc.gate else am.dest
    return InteractionStep(boundary=pc.boundary, shape="emit-2", outer=far,
                           inner=am.src, payload=am.value)


# silent, touch only their own site, and cannot be disabled by any other move
_COMMUTING = frozenset({"Request", "SendIn", "SendOut", "CreateAA", "CreateWSO", "CreateWSs"})


# The solo quotient.  `_solo_labels` keeps one copy of each pending
# message addressed outside the fragment (`_one_copy`); dropping the rest
# leaves every label set it computes unchanged:
# - such a message has exactly one fate, the Out rule, and the label its
#   ejection shows (or its silence) is fixed by its text;
# - nothing in the fragment reads it: `_inject` compares a peer call
#   against the pending calls to the anchor, a member, and guards read
#   actor state only, so no other move is enabled or disabled by it;
# - a later copy extrudes exactly the names the first copy extrudes;
# - so a path from the full state maps to a path from the quotient that
#   skips the ejections of later copies.  Those repeat a label already
#   on the path, so the map drops visible steps but no label, and every
#   path from the quotient is a path from the full state.  Solo label
#   sets are equal at every depth.
# Copies addressed to a member are never merged: a receiver may count
# them.  `interaction_semantics`, `admits_sequence` and the product stay
# exact, because they count sequences or copies.
def _one_copy(apps, texts, mem):
    """Pending messages `apps`, sorted by their `texts`, with one copy of
    each addressed outside the fragment, whose members are `mem`: (apps,
    texts), the given tuples when they hold no second copy of one."""
    if len(set(texts)) == len(texts):
        return apps, texts
    # copies sit next to each other
    keep = [k for k, am in enumerate(apps)
            if not (k and texts[k] == texts[k - 1] and am.dest not in mem)]
    if len(keep) == len(apps):
        return apps, texts
    return tuple([apps[k] for k in keep]), tuple([texts[k] for k in keep])


def _ample(pc: PartialConfiguration, top: Fragment, insts):
    """A silent instance whose order against every other move is inaudible.

    Local progress, signal routing, and ejections nobody observes commute
    with the rest of the configuration; running the first such instance
    alone reaches the same visible behaviour as fanning out.  Delivery
    choices and observable ejections stay branching.  `top` need only
    hold the state's actors: a guard reads its receiver alone."""
    for inst in insts:
        if inst.rule_id in _COMMUTING:
            return inst
        if inst.rule_id == "Compute":
            if sum(1 for j in insts if j.site == inst.site) == 1:
                return inst
        elif inst.rule_id == "Out":
            if not _emit_visible(pc, inst.subject):
                return inst
        elif inst.rule_id in ("ReadyDeliver", "SetPartner"):
            # an unraced delivery whose guard can never turn it away: the
            # receiving order is the one choice the boundary could hear,
            # and here there is no choice
            if sum(1 for j in insts if j.site == inst.site) != 1:
                continue
            am = inst.subject
            target = top.actor(am.dest)
            d = pc.program.definition(target.behavior)
            m = d.method(am.method)
            if m is not None and m.guard == ast.TRUE:
                return inst
    return None


# The move table's transitions.  A row is a side state split in parts:
# its section (the actors and signals), its pending messages, its
# restriction and its unconsumed feeds.  A section's first row to take an
# instance applies the rule; every later row of the section replays the
# step that application recorded.  This is exact:
# - a rule reads only its site actor or signal, its subject, and, for
#   `Out`, the restriction and the members.  Actors, signals and members
#   belong to the section, and an instance's text names its subject in
#   it.  So the section with the instance's text, and the restriction
#   ids for `Out`, fix everything the rule reads;
# - on every row of the section the rule then leaves the same actors and
#   signals (the next section), consumes and produces the same messages,
#   and keeps or sets the same restriction, which is the transition;
# - the create rules draw fresh addresses and check them against every
#   name in the fragment, pending messages included, so every row applies
#   them and none replays them.
# A feed or peer call enters as the message the In rule builds for it,
# once per feed: every feed is addressed to the anchor, a receptionist
# from the start, and an ejection only adds receptionists.
def _transition_key(inst, rids):
    """What a section keys the transition of `inst` by, on a row with
    restriction ids `rids`; None for the create rules."""
    if inst.rule_id in _MINTS:
        return None
    if inst.rule_id == "Out":
        return inst[:3], rids
    return inst[:3]  # the instance's text


class _Section:
    """The actors and signals that rows of a move table share, what they
    enable, and the transitions their rows have learned.

    When a row of the section first expands, one `enabled_rules` call on
    the section's actors and signals alone fills `rules`, the instances
    they enable, sorted.  `fates` maps a pending message text -> the
    instances the message enables (none while it is refused), filled
    lazily: a row's message text not met yet is asked of `_message_rules`
    against `top`, since a message's fate reads only the message and the
    section."""

    __slots__ = ("id", "top", "rules", "fates", "steps")

    def __init__(self, sid: int, top: Fragment):
        self.id = sid
        self.top = top  # the first fragment met with these actors and signals
        self.rules = None
        self.fates: dict = {}
        # transition key -> (next section id, texts of the messages consumed,
        # (text, message) produced, (restriction, ids) or None to keep)
        self.steps: dict = {}


class _MoveTable:
    """One side's move table for one search or one check.

    Each side state gets a small integer id and a row, keyed by its parts
    (section id, pending message texts, restriction ids, unconsumed
    feeds); every step lands on its row by an edit of them.  A row holds
    its own moves without peer calls, and the peer calls that arrive at
    it, by call text.  A move is (step, the text of the call it sends
    toward the gate or None, next id); `sent` maps each such text to the
    call's value.  In a check, the solo search
    fills rows as it expands them; the product and the witness read them
    and compute only the states the solo search never reached.  Moves
    come from the sections' transitions and edits of the row's pending
    messages; a configuration is built only to apply a rule (see README,
    "How the composability check works").
    A reduced table takes one ample move alone where `_ample` finds one;
    an unreduced one always fans out."""

    __slots__ = ("pc", "reduced", "ids", "rows", "section_ids", "sections", "calls",
                 "sent", "entering", "feeds")

    def __init__(self, pc: PartialConfiguration, *, reduced: bool = True):
        self.pc = pc
        self.reduced = reduced
        self.ids: dict = {}
        self.rows: List[_Row] = []
        # (actor texts, signal texts) -> id, an index into `sections`; a
        # transition names its next section by id, so sections hold no cycle
        self.section_ids: dict = {}
        self.sections: List[_Section] = []
        # call text -> (text, message) of what a peer call enters as
        self.calls: dict = {}
        # call text -> value of every call a move sends toward the gate
        self.sent: dict = {}
        self.entering = [self._entering(feed) for feed in pc.env_feeds]
        # (call text, value) per peer call
        self.feeds = [(canon_value(f.value), f.value) for f in pc.peer_feeds]

    def _entering(self, feed: AppMessage) -> Tuple[str, AppMessage]:
        """(text, message) of what `feed` enters the side as, built by the
        In rule."""
        am = rules.boundary_in(self.pc.config, feed).top._step[3][0]
        return am.canon(), am

    def start(self) -> int:
        """The row of the side's start state, every env feed unconsumed."""
        top = self.pc.config.top
        rids, _actors, _events, texts = top.key()
        return self._row(self._section(top), top.apps, texts, top.restriction, rids,
                         frozenset(range(len(self.pc.env_feeds))))

    def _section(self, top: Fragment) -> int:
        """The id of the section holding `top`'s actors and signals."""
        parts = top.key()[1:3]
        sid = self.section_ids.get(parts)
        if sid is None:
            sid = self.section_ids[parts] = len(self.sections)
            self.sections.append(_Section(sid, top))
        return sid

    def _row(self, sid: int, apps, texts, restriction, rids, env_left) -> int:
        key = (sid, texts, rids, env_left)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.rows)
            self.rows.append(_Row(self.sections[sid], apps, texts, restriction, rids, env_left))
        return i

    def _after(self, row: "_Row", sid: int, gone, new, rest, env_left) -> int:
        """The row a step from `row` leaves: section `sid`, the messages
        whose texts are `gone` removed (one copy each) and the (text,
        message) pairs in `new` added, the restriction `rest` or the
        row's own when it is None."""
        apps, texts = row.apps, row.texts
        for text in gone:
            k = texts.index(text)
            apps, texts = apps[:k] + apps[k + 1:], texts[:k] + texts[k + 1:]
        for text, am in new:
            k = bisect_right(texts, text)
            apps, texts = apps[:k] + (am,) + apps[k:], texts[:k] + (text,) + texts[k:]
        restriction, rids = (row.restriction, row.rids) if rest is None else rest
        return self._row(sid, apps, texts, restriction, rids, env_left)

    def instances(self, i: int):
        """The rule instances row i enables, as `enabled_rules` orders
        them: the section's, and each distinct pending message's fate."""
        row = self.rows[i]
        sec = row.section
        if sec.rules is None:
            section = Fragment(sec.top.actors, sec.top.events)
            sec.rules = enabled_rules(self.pc.program, Configuration(section))
        messages = []
        last = None
        for text, am in zip(row.texts, row.apps):
            if text == last:
                continue  # a copy: sorted texts put copies next to each other
            last = text
            fate = sec.fates.get(text)
            if fate is None:
                fate = sec.fates[text] = _message_rules(self.pc.program, sec.top, am)
            messages += fate
        if not messages:
            return sec.rules  # sorted when it was stored
        return tuple(sorted(sec.rules + tuple(messages), key=_ORDER))

    def successor(self, i: int, inst) -> int:
        """The row `inst` leads to from row i by its section's transition,
        learned on a miss from the rule applied to the row's configuration."""
        row = self.rows[i]
        sec = row.section
        key = _transition_key(inst, row.rids)
        step = sec.steps.get(key)  # None, the create rules' key, is never stored
        if step is None:
            top = next_configuration(self.pc.program, row.config, inst).top
            _actor, _born, gone, new, restriction = top._step
            step = (
                self._section(top),
                tuple([m.canon() for m in gone if m.__class__ is AppMessage]),
                tuple([(m.canon(), m) for m in new if m.__class__ is AppMessage]),
                None if restriction == "keep" else (top.restriction, top.key()[0]),
            )
            if key is not None:
                sec.steps[key] = step
        return self._after(row, *step, row.env_left)

    def moves(self, i: int):
        """The row's own moves, and whether they are one ample move alone."""
        row = self.rows[i]
        if row.moves is None:
            insts = self.instances(i)
            ample = _ample(self.pc, row.section.top, insts) if self.reduced else None
            quiet = silent(self.pc.boundary)
            moves = []
            for inst in insts if ample is None else (ample,):
                j = self.successor(i, inst)
                if inst.rule_id == "Out":
                    # a call toward the gate lands, as its text, in the other side's in-bag
                    am = inst.subject
                    sent = None
                    if am.dest == self.pc.gate:
                        sent = canon_value(am.value)
                        self.sent[sent] = am.value
                    moves.append((_ejection(self.pc, am), sent, j))
                else:
                    moves.append((quiet, None, j))
            if ample is None:
                for k in sorted(row.env_left):
                    j = self._after(row, row.section.id, (), (self.entering[k],), None,
                                    row.env_left - {k})
                    moves.append((quiet, None, j))
            row.moves, row.ample = moves, ample is not None
        return row.moves, row.ample

    def arrival(self, i: int, text: str, value: Value):
        """A peer call of this text arriving at the row: (step, next id),
        or None while `_inject` refuses it."""
        row = self.rows[i]
        if row.arrivals is None:
            row.arrivals = {}
        elif text in row.arrivals:
            return row.arrivals[text]
        feed = self.calls.get(text)
        if feed is None:
            feed = self.calls[text] = self._entering(AppMessage(dest=self.pc.anchor, value=value))
        step = _inject(self.pc, row.apps, feed[1])
        if step is not None:
            step = step, self._after(row, row.section.id, (), (feed,), None, row.env_left)
        row.arrivals[text] = step
        return step

    def one_copy(self, i: int) -> int:
        """The row of state i's solo quotient (see `_one_copy`)."""
        row = self.rows[i]
        apps, texts = _one_copy(row.apps, row.texts, members(row.section.top))
        if apps is row.apps:
            return i
        return self._row(row.section.id, apps, texts, row.restriction, row.rids, row.env_left)


class _Row:
    """One side state in a move table; `moves` and `arrivals` fill as
    they are first asked for."""

    __slots__ = ("section", "apps", "texts", "restriction", "rids", "env_left",
                 "moves", "ample", "arrivals")

    def __init__(self, section: _Section, apps, texts, restriction, rids, env_left):
        self.section = section
        self.apps = apps  # pending application messages, sorted by text
        self.texts = texts
        self.restriction = restriction
        self.rids = rids  # the restriction's sorted ids, or None
        self.env_left = env_left
        self.moves = None
        self.ample = False
        self.arrivals = None

    @property
    def config(self) -> Configuration:
        """The state's configuration, built anew from its parts."""
        top = self.section.top
        return Configuration(Fragment(top.actors, top.events, self.apps, self.restriction))


def _edges(table: _MoveTable, i: int, free_peer: bool):
    """Moves from row i, as (step, next id): the row's own moves, then,
    with `free_peer` and unless one ample move stands alone, each peer
    call `_inject` lets arrive."""
    moves, ample = table.moves(i)
    for step, _sent, j in moves:
        yield step, j
    if free_peer and not ample:
        for text, value in table.feeds:
            arrival = table.arrival(i, text, value)
            if arrival is not None:
                yield arrival


def _solo_labels(
    pc: PartialConfiguration, depth: int, table: _MoveTable
) -> Tuple[FrozenSet[Tuple[str, str]], int]:
    """Visible step keys reachable alone within depth, and states seen.
    The search runs on the one-copy quotient (see `_one_copy`) and fills
    `table`, the side's reduced move table for this check."""
    rows = table.rows
    labels: Set[Tuple[str, str]] = set()

    def quotient(i: int, j: int) -> int:
        # a step that left the pending messages alone cannot add a copy
        return j if rows[j].apps is rows[i].apps else table.one_copy(j)

    def successors(i, count):
        for step, j in _edges(table, i, count < depth):
            if not step.visible:
                yield quotient(i, j), count
            elif count < depth:
                labels.add(step.key())
                yield quotient(i, j), count + 1

    visits = search(table.one_copy(table.start()), successors,
                    phase=f"solo {pc.behavior}", depth=depth)
    return frozenset(labels), visits


def interaction_semantics(
    pc: PartialConfiguration, depth: int
) -> FrozenSet[InteractionSequence]:
    """All boundary behaviours within the given number of visible steps.

    Peer calls are consumed freely, silent neighbours feed once each.
    Runs of internal work compress to a single silent marker before the
    next visible step; a sequence never ends on a marker.  The search
    runs on an unreduced move table: every interleaving is a sequence.
    """
    found: Set[Tuple[InteractionStep, ...]] = {()}
    table = _MoveTable(pc, reduced=False)
    marker = silent(pc.boundary)

    def successors(node, visible):
        i, steps, quiet = node
        for step, j in _edges(table, i, visible < depth):
            if not step.visible:
                yield (j, steps, True), visible
            elif visible < depth:
                steps2 = steps + ((marker,) if quiet else ()) + (step,)
                found.add(steps2)
                yield (j, steps2, False), visible + 1

    search((table.start(), (), False), successors, phase="semantics", depth=depth)
    return frozenset(InteractionSequence(s) for s in found)


def admits_sequence(pc: PartialConfiguration, seq: InteractionSequence) -> bool:
    """Whether the side can produce exactly these visible steps, in
    order, with any amount of internal work in between.  The search runs
    on a reduced move table, whose ample moves keep every visible
    behaviour."""
    want = [s.key() for s in seq if s.visible]
    done = not want
    table = _MoveTable(pc)

    def successors(node, idx):
        nonlocal done
        for step, j in _edges(table, node[0], True):
            if not step.visible:
                yield (j, idx), idx
            elif step.key() == want[idx]:
                done = done or idx + 1 == len(want)
                yield (j, idx + 1), idx + 1

    search((table.start(), 0), successors, phase="admits", depth=len(want),
           stop=lambda: done)
    return done


# -- compatibility over the synchronized product --------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str  # Composable | Incompatible | MemberOverlap
    depth: int
    explored: int
    witness: Optional[InteractionSequence] = None
    missing: Tuple[str, ...] = ()
    overlap: Tuple[Address, ...] = ()


def default_depth(pc_a: PartialConfiguration, pc_m: PartialConfiguration) -> int:
    """Room for one request and one response per declared method."""
    d_a = pc_a.program.definition(pc_a.behavior)
    d_m = pc_m.program.definition(pc_m.behavior)
    return 2 * (len(d_a.methods) + len(d_m.methods))


def _bag_with(bag: Tuple[str, ...], text: str) -> Tuple[str, ...]:
    """The sorted bag of call texts with one more copy of `text`."""
    k = bisect_right(bag, text)
    return bag[:k] + (text,) + bag[k:]


def _consume_edges(table: _MoveTable, i: int, bag: Tuple[str, ...], values: dict):
    """Deliverable calls waiting in the other side's out-bag, a sorted
    tuple of call texts whose values `values` holds: (step, the bag less
    the call, next id)."""
    out = []
    for k, text in enumerate(bag):
        if k and text == bag[k - 1]:
            continue  # a copy: sorted texts put copies next to each other
        arrival = table.arrival(i, text, values[text])
        if arrival is not None:
            step, j = arrival
            out.append((step, bag[:k] + bag[k + 1:], j))
    return out


def _product_edges(table_a: _MoveTable, table_m: _MoveTable, state):
    """Moves of the two-sided product; consumes draw from the bags.

    A product state is (id A, id M, bag A->M, bag M->A), each bag the
    sorted texts of the calls in flight, so the state is its own key.  A
    call sent toward the gate lands, as its text, in the other side's
    in-bag; the receiving side reads its value from the sender's `sent`.
    A commuting silent move on either side preempts the fan-out exactly
    as it does solo: it touches nothing the other side can read."""
    a, m, bag_am, bag_ma = state
    edges_a, ample_a = table_a.moves(a)
    moves = [
        ("A", step, (j, m, _bag_with(bag_am, sent) if sent else bag_am, bag_ma))
        for step, sent, j in edges_a
    ]
    if ample_a:
        return moves
    edges_m, ample_m = table_m.moves(m)
    own_m = [
        ("M", step, (a, j, bag_am, _bag_with(bag_ma, sent) if sent else bag_ma))
        for step, sent, j in edges_m
    ]
    if ample_m:
        return own_m
    moves += own_m
    if bag_ma:
        for step, bag2, j in _consume_edges(table_a, a, bag_ma, table_m.sent):
            moves.append(("A", step, (j, m, bag_am, bag2)))
    if bag_am:
        for step, bag2, j in _consume_edges(table_m, m, bag_am, table_a.sent):
            moves.append(("M", step, (a, j, bag2, bag_ma)))
    return moves


def _greedy_witness(table_a, table_m, depth, side, missing_step):
    """A deterministic product run projected on the failing side, with
    the unmatched step appended; the move tables supply the moves."""
    state = (table_a.start(), table_m.start(), (), ())
    history: List[Tuple[str, InteractionStep]] = []
    for _ in range(engine._MAX_STATES):
        if sum(1 for _s, st in history if st.visible) >= depth:
            break
        moves = _product_edges(table_a, table_m, state)
        if not moves:
            break
        moves.sort(key=lambda m: (m[1].visible, m[0], m[1].label()))
        tag, step, state = moves[0]
        if step.visible:
            history.append((tag, step))
    prefix = tuple(st for tag, st in history if tag == side)
    return InteractionSequence(prefix + (missing_step,))


def _missing_to_step(pc: PartialConfiguration, shape: str, text: str) -> InteractionStep:
    return InteractionStep(
        boundary=pc.boundary,
        shape=shape,
        outer=pc.peer,
        inner=pc.anchor,
        payload=_default_call(pc.program.definition(pc.behavior), text),
    )


def compatible(
    pc_a: PartialConfiguration,
    pc_m: PartialConfiguration,
    depth: Optional[int] = None,
) -> Verdict:
    """Whether each side's solo behaviour survives being fed by the other.

    The two sides run in one product where every emission toward the
    gate lands in the other side's in-bag and consumes draw only from
    that bag.  The sides are compatible when every visible step either
    side can take alone is realized somewhere in the product; the
    verdict is then Composable, and Incompatible otherwise.
    """
    if _FLIP[pc_a.boundary] != pc_m.boundary:
        raise BoundaryMismatch(
            f"{pc_a.boundary} pairs with {_FLIP[pc_a.boundary]}, not {pc_m.boundary}"
        )
    if depth is None:
        depth = default_depth(pc_a, pc_m)
    # each side's move table serves all its phases in this check
    table_a = _MoveTable(pc_a)
    table_m = _MoveTable(pc_m)
    req_a, n_a = _solo_labels(pc_a, depth, table_a)
    req_m, n_m = _solo_labels(pc_m, depth, table_m)
    got_a: Set[Tuple[str, str]] = set()
    got_m: Set[Tuple[str, str]] = set()

    def successors(state, count):
        moves = _product_edges(table_a, table_m, state)
        for tag, step, nxt in moves:
            if not step.visible:
                yield nxt, count
            elif count < depth:
                (got_a if tag == "A" else got_m).add(step.key())
                yield nxt, count + 1

    def covered():
        return req_a <= got_a and req_m <= got_m

    # depth-first so a full conversation is walked before its variants
    explored = search((table_a.start(), table_m.start(), (), ()), successors,
                      phase="product", depth=depth, lifo=True, stop=covered)
    explored += n_a + n_m
    if covered():
        return Verdict(kind="Composable", depth=depth, explored=explored)
    missing = sorted(
        [("A", shape, text) for shape, text in req_a - got_a]
        + [("M", shape, text) for shape, text in req_m - got_m],
        key=lambda t: (t[2], t[1], t[0]),
    )
    side, shape, text = missing[0]
    step = _missing_to_step(pc_a if side == "A" else pc_m, shape, text)
    witness = _greedy_witness(table_a, table_m, depth, side, step)
    labels = tuple(f"{'left' if s == 'A' else 'right'}:{sh}({tx})" for s, sh, tx in missing)
    return Verdict(
        kind="Incompatible", depth=depth, explored=explored, witness=witness, missing=labels
    )


def composable(
    pc_a: PartialConfiguration,
    pc_m: PartialConfiguration,
    depth: Optional[int] = None,
) -> Verdict:
    """Disjoint members plus mutual compatibility, reported distinctly."""
    overlap = tuple(sorted(pc_a.members() & pc_m.members(), key=lambda a: a.id))
    if overlap:
        return Verdict(kind="MemberOverlap", depth=depth or 0, explored=0, overlap=overlap)
    return compatible(pc_a, pc_m, depth)
