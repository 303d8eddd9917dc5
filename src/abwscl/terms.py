"""Term algebra for actor configurations.

Actors, messages, and fragments are immutable values; every operation
returns a new term.  Fragments keep their members in a canonical order so
that structural equality coincides with multiset equality and so that any
configuration has exactly one textual form.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Optional, Union

from .errors import (
    AddressOverlap,
    InvalidRestriction,
    NoPendingMessage,
    NotBijective,
    OverlappingReceptionists,
)

KINDS = ("AA", "WSO", "WS", "WSC")


@dataclass(frozen=True)
class Address:
    """Opaque actor name.  `kind` is a hint, not an authority."""

    id: str
    kind: str = "AA"

    def __str__(self) -> str:
        return self.id

    def __hash__(self) -> int:
        # equal addresses share their id; hashing it alone skips a tuple
        return hash(self.id)

    def canon(self) -> str:
        return self.id


class Event(str, enum.Enum):
    TRANSMIT = "transmit"
    READY = "ready"
    COMPLETE = "complete"
    DELIVER = "deliver"

    def __str__(self) -> str:  # canonical text uses the lowercase word
        return self.value


# Signals pair with notifications: an actor that signalled `l` may only be
# woken by a notification `e` with (l, e) in BLOCK.
BLOCK = frozenset({(Event.TRANSMIT, Event.COMPLETE), (Event.READY, Event.DELIVER)})


def blocked(l: Event, e: Event) -> bool:
    return (l, e) in BLOCK


class ProcessingState(str, enum.Enum):
    RUNNING = "!"
    READY = "?"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Record:
    """Immutable string-keyed record; field order is canonical (sorted)."""

    items: tuple = ()

    @staticmethod
    def of(**fields) -> "Record":
        return Record(tuple(sorted(fields.items())))

    def get(self, key: str, default=None):
        for k, v in self.items:
            if k == key:
                return v
        return default

    def canon(self) -> str:
        memo = self.__dict__.get("_canon")
        if memo is None:
            inner = ", ".join(f"{k}: {canon_value(v)}" for k, v in self.items)
            memo = "{" + inner + "}"
            object.__setattr__(self, "_canon", memo)
        return memo


# A Value is one of: None (unit), bool, int, float, str, Address,
# tuple of Values, Record.
Value = Union[None, bool, int, float, str, Address, tuple, Record]


def canon_value(v: Value) -> str:
    if v is None:
        return "unit"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, Address):
        return v.canon()
    if isinstance(v, tuple):
        return "[" + ", ".join(canon_value(x) for x in v) + "]"
    if isinstance(v, Record):
        return v.canon()
    raise TypeError(f"not a Value: {v!r}")


def value_acquaintances(v: Value) -> frozenset:
    """Every Address leaf reachable inside a value."""
    out = set()
    _walk(v, out)
    return frozenset(out)


def _walk(v, out) -> None:
    if isinstance(v, Address):
        out.add(v)
    elif isinstance(v, tuple):
        for x in v:
            _walk(x, out)
    elif isinstance(v, Record):
        for _, x in v.items:
            _walk(x, out)


def call_record(method: str, args: Iterable[Value]) -> Record:
    """The payload shape every method invocation travels as."""
    return Record.of(method=method, args=tuple(args))


@dataclass(frozen=True)
class Links:
    """Kind-discriminated reference slots an actor was wired with.

    Only the slots meaningful for `kind` are ever populated:
    AA (owner_wso, interface_ws); WSO (owner_wso=self, interface_ws);
    WS (owner_wso until created, partner_ws until set); WSC (partner_1/2).
    """

    kind: str
    owner_wso: Optional[Address] = None
    interface_ws: Optional[Address] = None
    partner_ws: Optional[Address] = None
    partner_1: Optional[Address] = None
    partner_2: Optional[Address] = None

    def canon(self) -> str:
        parts = [self.kind]
        for name in ("owner_wso", "interface_ws", "partner_ws", "partner_1", "partner_2"):
            a = getattr(self, name)
            if a is not None:
                parts.append(f"{name}={a.canon()}")
        return "(" + " ".join(parts) + ")"

    def addresses(self) -> frozenset:
        return frozenset(
            a
            for a in (
                self.owner_wso,
                self.interface_ws,
                self.partner_ws,
                self.partner_1,
                self.partner_2,
            )
            if a is not None
        )


@dataclass(frozen=True)
class LocalState:
    """Behaviour name, variable store, and the queue of pending actions.

    `queue` holds parsed actions (see syntax); the head is always either a
    send/create step or the queue is empty — plain assignments are folded
    into `vars` eagerly by the engine.
    """

    behavior: str
    vars: tuple = ()  # sorted (name, Value) pairs
    queue: tuple = ()  # syntax.Action nodes

    def get(self, name: str, default=None):
        for k, v in self.vars:
            if k == name:
                return v
        return default

    def has(self, name: str) -> bool:
        return any(k == name for k, _ in self.vars)

    def set(self, name: str, value: Value) -> "LocalState":
        items = dict(self.vars)
        items[name] = value
        return LocalState(self.behavior, tuple(sorted(items.items())), self.queue)

    def with_queue(self, queue: tuple) -> "LocalState":
        return LocalState(self.behavior, self.vars, queue)

    def canon(self) -> str:
        memo = self.__dict__.get("_canon")
        if memo is None:
            vs = ", ".join(f"{k}={canon_value(v)}" for k, v in self.vars)
            qs = "; ".join(a.canon() for a in self.queue)
            memo = f"{self.behavior}[{vs}][{qs}]"
            object.__setattr__(self, "_canon", memo)
        return memo


def state_acquaintances(s: LocalState) -> frozenset:
    out = set()
    for _, v in s.vars:
        _walk(v, out)
    return frozenset(out)


@dataclass(frozen=True)
class ActorTerm:
    """One actor: p(a, links | sigma:[s] lambda:[l] tau:[t])."""

    p: ProcessingState
    addr: Address
    state: LocalState
    last_signal: Event
    tau: Address
    links: Links

    @property
    def behavior(self) -> str:
        return self.state.behavior

    @property
    def kind(self) -> str:
        return self.links.kind

    def evolve(self, *, p=None, state=None, last_signal=None, tau=None, links=None) -> "ActorTerm":
        """dataclasses.replace for the fields a step changes, none of them
        ever None, without its per-call field inspection."""
        return ActorTerm(self.p if p is None else p, self.addr,
                         self.state if state is None else state,
                         self.last_signal if last_signal is None else last_signal,
                         self.tau if tau is None else tau, self.links if links is None else links)

    def canon(self) -> str:
        memo = self.__dict__.get("_canon")
        if memo is None:
            memo = (
                f"{self.p._value_}{self.addr.id}{self.links.canon()}"
                f" s:{self.state.canon()} l:{self.last_signal._value_} t:{self.tau.id}"
            )
            object.__setattr__(self, "_canon", memo)
        return memo


@dataclass(frozen=True)
class EventMessage:
    """Signal or notification: dest <| (src, event, value)."""

    dest: Address
    src: Address
    event: Event
    value: Value = None

    def __post_init__(self) -> None:
        # every message in a fragment is sorted and keyed by this text
        object.__setattr__(
            self, "_canon",
            f"{self.dest.id}<|({self.src.id},{self.event._value_},{canon_value(self.value)})",
        )

    def canon(self) -> str:
        return self._canon


def ready_signal(actor: ActorTerm) -> EventMessage:
    """The signal an idle actor sends its handler to ask for a call."""
    return _ready_from(actor.tau, actor.addr)


@lru_cache(maxsize=4096)
def _ready_from(tau: Address, addr: Address) -> EventMessage:
    # messages are immutable, so each pair shares one ready signal, and a
    # membership test finds the pending one by identity
    return EventMessage(dest=tau, src=addr, event=Event.READY, value=Record.of())


def birth_signals(actor: ActorTerm) -> tuple:
    """What a newborn brings into its fragment besides itself: its ready
    signal when it was born with no queued work."""
    return (ready_signal(actor),) if actor.p is ProcessingState.READY else ()


@dataclass(frozen=True)
class AppMessage:
    """Application message: dest : src <- value.  src is absent only for
    messages injected over a boundary."""

    dest: Address
    value: Value
    src: Optional[Address] = None

    @property
    def method(self) -> Optional[str]:
        if isinstance(self.value, Record):
            m = self.value.get("method")
            if isinstance(m, str):
                return m
        return None

    @property
    def args(self) -> tuple:
        if isinstance(self.value, Record):
            a = self.value.get("args")
            if isinstance(a, tuple):
                return a
        return ()

    def __post_init__(self) -> None:
        # every message in a fragment is sorted and keyed by this text
        src = self.src.canon() if self.src else "_"
        object.__setattr__(self, "_canon", f"{self.dest.canon()}:{src}<-{canon_value(self.value)}")

    def canon(self) -> str:
        return self._canon


def _without(seq: tuple, item) -> tuple:
    """`seq` of messages less its first copy of `item`; NoPendingMessage
    if it has none.  Equal messages have equal texts, so a text that
    differs settles the comparison."""
    text = item._canon
    for i, x in enumerate(seq):
        if x is item or (x._canon == text and x == item):
            return seq[:i] + seq[i + 1:]
    raise NoPendingMessage(f"not in fragment: {text}")


# sort keys for Fragment.make, read per member without a Python call
_ADDR_ID = attrgetter("addr.id")
_CANON = attrgetter("_canon")


@dataclass(frozen=True)
class Fragment:
    """Flat multiset of actors and in-flight messages, with an optional
    restriction giving the externally visible addresses."""

    actors: tuple = ()
    events: tuple = ()
    apps: tuple = ()
    restriction: Optional[frozenset] = None

    @staticmethod
    def make(actors=(), events=(), apps=(), restriction=None) -> "Fragment":
        actors = tuple(sorted(actors, key=_ADDR_ID))
        events = tuple(sorted(events, key=_CANON))
        apps = tuple(sorted(apps, key=_CANON))
        if restriction is not None:
            restriction = frozenset(restriction)
        return Fragment(actors, events, apps, restriction)

    def actor(self, addr: Address) -> Optional[ActorTerm]:
        key = getattr(addr, "id", None)
        for a in self.actors:
            # equal addresses share their id; comparing it first is cheap
            if a.addr.id == key and (a.addr is addr or a.addr == addr):
                return a
        return None

    def derive(self, actor=None, born=(), gone=(), new=(), restriction="keep") -> "Fragment":
        """The fragment one step leaves: `actor` swapped in at its own
        address, the `born` actors added, one pending copy of each message
        in `gone` removed (NoPendingMessage when none is), the `new`
        messages added, and the restriction replaced unless it is "keep".

        The result records these arguments as its `_step`, which a trace
        line and a move table's transition are read from.  With nobody
        born it inherits the members.  When this fragment's key is
        built, the result inherits the key sections the step left alone,
        so a run, which builds no key, still builds none."""
        actors, events, apps, rest = self.actors, self.events, self.apps, self.restriction
        key = self.__dict__.get("_key")
        if actor is not None:
            addr = actor.addr
            # equal addresses share their id; comparing it first is cheap
            for i, a in enumerate(actors):
                if a.addr is addr or (a.addr.id == addr.id and a.addr == addr):
                    break
            else:
                raise ValueError(f"no actor at {addr.id} to replace")
            actors = actors[:i] + (actor,) + actors[i + 1:]
        if born:
            actors = tuple(sorted(actors + born, key=_ADDR_ID))
        for m in gone:
            if type(m) is EventMessage:
                events = _without(events, m)
            else:
                apps = _without(apps, m)
        if new:
            new_events = [m for m in new if type(m) is EventMessage]
            if new_events:
                events = tuple(sorted(events + tuple(new_events), key=_CANON))
            if len(new_events) < len(new):
                new_apps = tuple([m for m in new if type(m) is not EventMessage])
                apps = tuple(sorted(apps + new_apps, key=_CANON))
        if restriction != "keep":
            rest = None if restriction is None else frozenset(restriction)
        # the fields and memos at once: a step builds this many fragments
        # that the dataclass's own field-by-field __init__ shows in profiles
        f = object.__new__(Fragment)
        memo = {"actors": actors, "events": events, "apps": apps, "restriction": rest,
                "_step": (actor, born, gone, new, restriction)}
        if key is not None:
            rids, texts, event_texts, app_texts = key
            if born:
                texts = tuple([a.canon() for a in actors])
            elif actor is not None:
                texts = texts[:i] + (actor.canon(),) + texts[i + 1:]
            if events is not self.events:
                event_texts = tuple(map(_CANON, events))
            if apps is not self.apps:
                app_texts = tuple(map(_CANON, apps))
            if restriction != "keep":
                rids = None if rest is None else tuple(sorted([a.id for a in rest]))
            memo["_key"] = (rids, texts, event_texts, app_texts)
        if not born:
            memo["_members"] = members(self)
        f.__dict__.update(memo)
        return f

    def with_pending(self, apps, app_texts, restriction, rids) -> "Fragment":
        """This fragment's actors and signals with other pending messages
        and restriction.  `apps` is sorted by text; `app_texts` and `rids`
        are the new key's message and restriction sections, so the key is
        spliced from parts, as `derive` splices it."""
        key = self.key()
        f = object.__new__(Fragment)
        f.__dict__.update({"actors": self.actors, "events": self.events, "apps": apps,
                           "restriction": restriction,
                           "_key": (rids, key[1], key[2], app_texts),
                           "_members": members(self)})
        return f

    def key(self) -> tuple:
        """Identity for search: equal exactly when the canon texts are,
        built from member texts already memoised on shared terms."""
        memo = self.__dict__.get("_key")
        if memo is None:
            r = self.restriction
            memo = (
                None if r is None else tuple(sorted([a.id for a in r])),
                tuple([a.canon() for a in self.actors]),
                tuple(map(_CANON, self.events)),
                tuple(map(_CANON, self.apps)),
            )
            object.__setattr__(self, "_key", memo)
        return memo

    def canon(self) -> str:
        memo = self.__dict__.get("_canon")
        if memo is not None:
            return memo
        lines = []
        if self.restriction is not None:
            lines.append("restrict {" + ",".join(sorted(a.canon() for a in self.restriction)) + "}")
        if self.actors:
            lines.append("actor " + "\nactor ".join([a.canon() for a in self.actors]))
        if self.events:
            lines.append("event " + "\nevent ".join(map(_CANON, self.events)))
        if self.apps:
            lines.append("app   " + "\napp   ".join(map(_CANON, self.apps)))
        memo = "\n".join(lines)
        object.__setattr__(self, "_canon", memo)
        return memo


def members(f: Fragment) -> frozenset:
    """Addresses of all actors, hidden or not; restriction is ignored."""
    memo = f.__dict__.get("_members")
    if memo is None:
        memo = frozenset(a.addr for a in f.actors)
        object.__setattr__(f, "_members", memo)
    return memo


def receptionists(f: Fragment) -> frozenset:
    """Externally reachable addresses: the restriction set if present,
    otherwise every member."""
    if f.restriction is None:
        return members(f)
    return f.restriction


def restrict(f: Fragment, names: Iterable[Address]) -> Fragment:
    names = frozenset(names)
    if not names <= members(f):
        raise InvalidRestriction(f"restriction names non-members: {names - members(f)}")
    return Fragment.make(f.actors, f.events, f.apps, names)


def compose(f1: Fragment, f2: Fragment) -> Fragment:
    """Union of two fragments; defined only when receptionist sets and
    member sets are disjoint."""
    if receptionists(f1) & receptionists(f2):
        raise OverlappingReceptionists(str(receptionists(f1) & receptionists(f2)))
    if members(f1) & members(f2):
        raise AddressOverlap(str(members(f1) & members(f2)))
    if f1.restriction is None and f2.restriction is None:
        restriction = None
    else:
        r1 = f1.restriction if f1.restriction is not None else members(f1)
        r2 = f2.restriction if f2.restriction is not None else members(f2)
        restriction = r1 | r2
    return Fragment.make(
        f1.actors + f2.actors,
        f1.events + f2.events,
        f1.apps + f2.apps,
        restriction,
    )


def actor_acquaintances(a: ActorTerm) -> frozenset:
    return state_acquaintances(a.state) | a.links.addresses() | {a.tau}


def fragment_acquaintances(f: Fragment) -> frozenset:
    """Every address known anywhere in the fragment."""
    out = set()
    for a in f.actors:
        out |= actor_acquaintances(a)
        out.add(a.addr)
    for m in f.events:
        out |= {m.dest, m.src} | value_acquaintances(m.value)
    for m in f.apps:
        out |= value_acquaintances(m.value)
        out.add(m.dest)
        if m.src is not None:
            out.add(m.src)
    return frozenset(out)


def _rename_addr(a: Optional[Address], mapping: dict) -> Optional[Address]:
    if a is None:
        return None
    return mapping.get(a, a)


def _rename_value(v: Value, mapping: dict) -> Value:
    if isinstance(v, Address):
        return mapping.get(v, v)
    if isinstance(v, tuple):
        return tuple(_rename_value(x, mapping) for x in v)
    if isinstance(v, Record):
        return Record(tuple((k, _rename_value(x, mapping)) for k, x in v.items))
    return v


def rename(f: Fragment, mapping: dict) -> Fragment:
    """Apply a bijective address substitution everywhere in the fragment."""
    if len(set(mapping.values())) != len(mapping):
        raise NotBijective(str(mapping))
    clash = (set(mapping.values()) - set(mapping)) & {a for a in fragment_acquaintances(f)}
    if clash:
        raise NotBijective(f"targets collide with existing addresses: {clash}")

    def ra(a: Address) -> Address:
        return mapping.get(a, a)

    actors = []
    for a in f.actors:
        links = Links(
            kind=a.links.kind,
            owner_wso=_rename_addr(a.links.owner_wso, mapping),
            interface_ws=_rename_addr(a.links.interface_ws, mapping),
            partner_ws=_rename_addr(a.links.partner_ws, mapping),
            partner_1=_rename_addr(a.links.partner_1, mapping),
            partner_2=_rename_addr(a.links.partner_2, mapping),
        )
        state = LocalState(
            behavior=a.state.behavior,
            vars=tuple(sorted((k, _rename_value(v, mapping)) for k, v in a.state.vars)),
            queue=a.state.queue,
        )
        actors.append(
            ActorTerm(
                p=a.p,
                addr=ra(a.addr),
                state=state,
                last_signal=a.last_signal,
                tau=ra(a.tau),
                links=links,
            )
        )
    events = [
        EventMessage(ra(m.dest), ra(m.src), m.event, _rename_value(m.value, mapping))
        for m in f.events
    ]
    apps = [
        AppMessage(ra(m.dest), _rename_value(m.value, mapping), _rename_addr(m.src, mapping))
        for m in f.apps
    ]
    restriction = None
    if f.restriction is not None:
        restriction = frozenset(ra(a) for a in f.restriction)
    return Fragment.make(actors, events, apps, restriction)


@dataclass(frozen=True)
class Configuration:
    """A complete runnable term: one top-level fragment."""

    top: Fragment = field(default_factory=Fragment.make)

    def canon(self) -> str:
        return self.top.canon()


class AddressAllocator:
    """Monotone per-run source of fresh addresses: `kindhint#n`."""

    def __init__(self) -> None:
        self._n = 0

    def fresh(self, kind: str, hint: str = "") -> Address:
        label = hint or kind.lower()
        a = Address(f"{label}#{self._n}", kind)
        self._n += 1
        return a

    def advance_past(self, ids: Iterable[str]) -> "AddressAllocator":
        """Skip every counter an existing `label#n` id already uses."""
        for i in ids:
            _, _, tail = i.rpartition("#")
            if tail.isdigit():
                self._n = max(self._n, int(tail) + 1)
        return self

    def clone(self) -> "AddressAllocator":
        twin = AddressAllocator()
        twin._n = self._n
        return twin
