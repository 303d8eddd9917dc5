"""The rewrite rules, as pure functions from configuration to configuration.

Every function checks its own applicability and raises a specific error
when misapplied; engine.enabled_rules enumerates the instances that apply
cleanly.  A rule rewrites a sub-multiset of the fragment: it builds its
successor with one Fragment.derive call, naming the actor it replaces,
the actors it creates, the messages it consumes and produces, and the
restriction when an ejection publishes names.

Signals travel to an actor's handler tau; notifications travel back to the
actor.  The lifecycle of one send is:

    step_request   running actor emits (transmit, {dest, call}) to tau
    aa_send_in/out handler turns the signal into an AppMessage plus a
                   complete notification to the sender
    step_compute   sender consumes complete and resumes

and of one delivery:

    step_request   idle actor emits (ready, {}) to tau
    deliver_ready  handler pairs the ready signal with a pending message
                   and notifies (deliver, {call})
    step_compute   receiver consumes deliver and loads the method body
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from . import syntax as ast
from .errors import (
    FreshnessViolation,
    GuardRejected,
    NoPendingMessage,
    NotAReceptionist,
    NotBlockedPair,
    NotEnabledForCreate,
    NoNextEvent,
    NotRunning,
    NotSameWSO,
    PartnersAlreadyCreated,
    SelfPartner,
    TargetIsLocal,
    UnknownActor,
    UnknownMethod,
    UnknownTarget,
    WSOAlreadyBound,
)
from .program import (
    Program,
    absorb,
    eval_in_state,
    guard_accepts,
    instantiate,
    load_method,
    write_name,
)
from .terms import (
    Address,
    AddressAllocator,
    ActorTerm,
    AppMessage,
    Configuration,
    Event,
    EventMessage,
    Fragment,
    Links,
    ProcessingState,
    Record,
    birth_signals,
    blocked,
    call_record,
    fragment_acquaintances,
    members,
    ready_signal,
    receptionists,
    value_acquaintances,
)

Produced = Tuple[str, ...]


# -- fragment surgery --------------------------------------------------------


def _get_actor(config: Configuration, addr: Address) -> ActorTerm:
    a = config.top.actor(addr)
    if a is None:
        raise UnknownActor(f"no actor at {addr.canon()}")
    return a


# -- generic computation: request and compute --------------------------------


def step_request(
    program: Program, config: Configuration, site: Address
) -> Tuple[Configuration, Produced]:
    """A running actor turns its next piece of work into a signal.

    A send at the queue head becomes a transmit signal; a drained queue
    becomes a ready signal.  Either way the actor blocks on the emitted
    event.  A create at the head belongs to the create rules instead.
    """
    actor = _get_actor(config, site)
    if actor.p is not ProcessingState.RUNNING:
        raise NotRunning(f"{site.canon()} is not running")
    queue = actor.state.queue
    if not queue:
        signal = ready_signal(actor)
        new = actor.evolve(p=ProcessingState.READY, last_signal=Event.READY)
    else:
        head = queue[0]
        if isinstance(head, ast.CreateAct):
            raise NotEnabledForCreate(
                f"{site.canon()} must create via a create rule, not request"
            )
        if isinstance(head, ast.SetPartnerCall):
            method, arg_exprs = "setPartner", (head.arg,)
        elif isinstance(head, ast.SendAct):
            method, arg_exprs = head.method, head.args
        else:
            # absorb() keeps non-observable actions off the queue head
            raise NoNextEvent(f"{site.canon()} queue head is not a send")
        target = eval_in_state(program, actor, ast.Name(ident=head.target))
        if not isinstance(target, Address):
            raise UnknownTarget(
                f"{actor.behavior}.{head.target} does not hold an actor address"
            )
        args = tuple(eval_in_state(program, actor, e) for e in arg_exprs)
        signal = EventMessage(
            dest=actor.tau,
            src=site,
            event=Event.TRANSMIT,
            value=Record.of(dest=target, call=call_record(method, args)),
        )
        new = actor.evolve(
            p=ProcessingState.READY,
            last_signal=Event.TRANSMIT,
            state=actor.state.with_queue(queue[1:]),
        )
    return Configuration(config.top.derive(actor=new, new=(signal,))), (signal.canon(),)


def step_compute(
    program: Program,
    config: Configuration,
    site: Address,
    notification: EventMessage,
) -> Tuple[Configuration, Produced]:
    """A blocked actor consumes the notification its last signal awaits.

    Complete resumes the remaining queue; deliver loads the called method's
    body.  A deliver whose guard is false is refused and left pending; a
    notification that is not pending is NoPendingMessage.
    """
    if notification.dest != site or notification not in config.top.events:
        raise NoPendingMessage(
            f"notification {notification.canon()} is not pending for {site.canon()}"
        )
    actor = _get_actor(config, site)
    if actor.p is not ProcessingState.READY:
        raise NotRunning(f"{site.canon()} is not blocked on a notification")
    if not blocked(actor.last_signal, notification.event):
        raise NotBlockedPair(
            f"({actor.last_signal}, {notification.event}) not in the block relation"
        )
    if notification.event is Event.COMPLETE:
        new = absorb(program, actor.evolve(p=ProcessingState.RUNNING))
    else:  # deliver
        value = notification.value
        method = value.get("method") if isinstance(value, Record) else None
        if not isinstance(method, str):
            raise UnknownMethod(f"deliver to {site.canon()} names no method")
        args = value.get("args") or ()
        if not guard_accepts(program, actor, method, args):
            raise GuardRejected(
                f"guard of {actor.behavior}.{method} refused the call"
            )
        new = load_method(program, actor, method, args)
    return Configuration(config.top.derive(actor=new, gone=(notification,))), ()


# -- signal routing at the handler -------------------------------------------


def _signal_parts(config: Configuration, em: EventMessage):
    if em.event is not Event.TRANSMIT:
        raise NoPendingMessage(f"{em.canon()} is not a transmit signal")
    if em not in config.top.events:
        raise NoPendingMessage(f"not in fragment: {em.canon()}")
    dest = em.value.get("dest") if isinstance(em.value, Record) else None
    call = em.value.get("call") if isinstance(em.value, Record) else None
    if not isinstance(dest, Address) or not isinstance(call, Record):
        raise UnknownTarget(f"malformed transmit signal {em.canon()}")
    return dest, call


def send_route(top: Fragment, src: Address, dest: Address) -> Optional[str]:
    """The rule that routes a transmit from src to dest: "SendIn" between
    sibling AAs (same owner, same interface), "SendOut" unless both ends
    are AAs, and None between AAs of different services, whose sends
    stay stuck."""
    sender = top.actor(src)
    target = top.actor(dest)
    if sender is None or target is None or sender.kind != "AA" or target.kind != "AA":
        return "SendOut"
    if (
        sender.links.owner_wso is not None
        and sender.links.owner_wso == target.links.owner_wso
        and sender.links.interface_ws == target.links.interface_ws
    ):
        return "SendIn"
    return None


def _route(
    config: Configuration, em: EventMessage, dest: Address, call: Record
) -> Tuple[Configuration, Produced]:
    app = AppMessage(dest=dest, value=call, src=em.src)
    complete = EventMessage(
        dest=em.src, src=em.dest, event=Event.COMPLETE, value=Record.of()
    )
    # the routed message comes first: apply_instance reads it from the record
    cfg = Configuration(config.top.derive(gone=(em,), new=(app, complete)))
    return cfg, (app.canon(), complete.canon())


def aa_send_in(
    program: Program, config: Configuration, em: EventMessage
) -> Tuple[Configuration, Produced]:
    """Route a transmit between sibling AAs: same owner, same interface.

    The handler (the owning WSO) turns the signal into an AppMessage for
    the sibling and completes the sender.
    """
    dest, call = _signal_parts(config, em)
    _get_actor(config, em.src)  # a missing sender is UnknownActor
    route = send_route(config.top, em.src, dest)
    if route == "SendOut":
        raise UnknownTarget(
            f"send-in routes AA-to-AA sends only, not {em.canon()}"
        )
    if route is None:
        raise NotSameWSO(
            f"{em.src.canon()} and {dest.canon()} belong to different services"
        )
    return _route(config, em, dest, call)


def aa_send_out(
    program: Program, config: Configuration, em: EventMessage
) -> Tuple[Configuration, Produced]:
    """Route any non-sibling transmit: the handler emits the AppMessage
    toward its destination (local or boundary alike) and completes the
    sender.  Whether the message later leaves the fragment is [out]'s
    decision, keyed on membership."""
    dest, call = _signal_parts(config, em)
    if send_route(config.top, em.src, dest) != "SendOut":
        raise TargetIsLocal(
            f"{dest.canon()} is an activity actor; AA-to-AA sends route via send-in"
        )
    return _route(config, em, dest, call)


# -- delivery ----------------------------------------------------------------


def deliver_ready(
    program: Program, config: Configuration, am: AppMessage
) -> Tuple[Configuration, Produced]:
    """Pair an actor's ready signal with one pending message for it.

    Both are consumed; a deliver notification carrying the call record is
    produced.  Refused (left pending) when the method's guard is false.
    A setPartner call also wires the partner link; re-setting the same
    partner is an idempotent confirmation.
    """
    if am not in config.top.apps:
        raise NoPendingMessage(f"not in fragment: {am.canon()}")
    actor = _get_actor(config, am.dest)
    ready = ready_signal(actor)
    if ready not in config.top.events:
        raise NoPendingMessage(f"{actor.addr.canon()} has not signalled ready")
    method, args = am.method, am.args
    if method is None:
        raise UnknownMethod(f"{am.canon()} names no method")
    partnering = method == "setPartner"
    if partnering and (len(args) != 1 or not isinstance(args[0], Address)):
        raise UnknownTarget(f"setPartner takes one actor address: {am.canon()}")
    if not guard_accepts(program, actor, method, args):
        raise GuardRejected(f"guard of {actor.behavior}.{method} refused the call")
    # the ready signal and the message become one deliver notification
    deliver = EventMessage(
        dest=actor.addr, src=actor.tau, event=Event.DELIVER, value=am.value
    )
    partnered = _partnered(actor, args[0]) if partnering else None
    cfg = Configuration(config.top.derive(actor=partnered, gone=(ready, am), new=(deliver,)))
    return cfg, (deliver.canon(),)


def _partnered(actor: ActorTerm, partner: Address) -> ActorTerm:
    if partner == actor.addr:
        raise SelfPartner(f"{actor.addr.canon()} cannot partner itself")
    return actor.evolve(links=dataclasses.replace(actor.links, partner_ws=partner))


# -- boundary ----------------------------------------------------------------


def boundary_in(config: Configuration, am: AppMessage) -> Configuration:
    """Accept a message from outside.  Only receptionists are reachable;
    the external sender's identity is not retained."""
    if am.dest not in receptionists(config.top):
        raise NotAReceptionist(f"{am.dest.canon()} is not visible from outside")
    accepted = AppMessage(dest=am.dest, value=am.value, src=None)
    return Configuration(config.top.derive(new=(accepted,)))


def eject(config: Configuration, am: AppMessage) -> Tuple[Configuration, Produced]:
    """Emit one message whose destination lives outside the fragment.

    Member addresses exposed by the payload (or the sender stamp) become
    receptionists: the outside world now knows them.
    """
    if am not in config.top.apps:
        raise NoPendingMessage(f"not in fragment: {am.canon()}")
    mem = members(config.top)
    if am.dest in mem:
        raise TargetIsLocal(f"{am.dest.canon()} lives in this fragment")
    restriction = config.top.restriction
    if restriction is not None:
        exposed = value_acquaintances(am.value)
        if am.src is not None:
            exposed |= {am.src}
        restriction = restriction | (exposed & mem)
    return Configuration(config.top.derive(gone=(am,), restriction=restriction)), (am.canon(),)


# -- creation ----------------------------------------------------------------


def _check_fresh(config: Configuration, addr: Address) -> None:
    if addr in members(config.top) or addr in fragment_acquaintances(config.top):
        raise FreshnessViolation(f"address {addr.canon()} is already known")


def _create_head(
    program: Program, config: Configuration, site: Address, want_kind: str
) -> Tuple[ActorTerm, ast.CreateAct]:
    actor = _get_actor(config, site)
    queue = actor.state.queue
    if not queue or not isinstance(queue[0], ast.CreateAct):
        raise NotEnabledForCreate(f"{site.canon()} has no create pending")
    head = queue[0]
    created = program.definition(head.behavior)
    if actor.kind not in ("WSO", "WS", "WSC") or created.kind != want_kind:
        raise NotEnabledForCreate(
            f"{actor.kind} {site.canon()} cannot create {created.kind} here"
        )
    return actor, head


def _birth(
    program: Program,
    config: Configuration,
    creator: ActorTerm,
    act: ast.CreateAct,
    alloc: AddressAllocator,
    *,
    tau: Optional[Address] = None,
    links: Optional[Links] = None,
    addr: Optional[Address] = None,
) -> Tuple[ActorTerm, Tuple[EventMessage, ...]]:
    d = program.definition(act.behavior)
    if addr is None:
        addr = alloc.fresh(d.kind, hint=d.name)
    _check_fresh(config, addr)
    args = tuple(eval_in_state(program, creator, e) for e in act.args)
    newborn = instantiate(
        program, act.behavior, args, alloc, addr=addr, tau=tau, links=links
    )
    if act.role is not None:
        newborn = newborn.evolve(state=newborn.state.set("role", act.role))
    return newborn, birth_signals(newborn)


def _created(
    program: Program, config: Configuration, creator: ActorTerm,
    binds: Sequence[Tuple[str, Address]], rest: tuple,
    born: Tuple[ActorTerm, ...], signals: Tuple[EventMessage, ...],
) -> Tuple[Configuration, Produced]:
    """The creator binds each new address, drops its create acts and
    resumes on `rest`; the newborns join with their ready signals."""
    for name, addr in binds:
        creator = write_name(program, creator, name, addr)
    creator = absorb(program, creator.evolve(state=creator.state.with_queue(rest)))
    cfg = Configuration(config.top.derive(actor=creator, born=born, new=signals))
    produced = tuple(f"actor {a.addr.canon()}" for a in born)
    return cfg, produced + tuple(s.canon() for s in signals)


def create_aa(
    program: Program, config: Configuration, site: Address, alloc: AddressAllocator
) -> Tuple[Configuration, Produced]:
    """A WSO creates one of its activities.  The newborn inherits the
    creator's interface and answers to the creator; its address stays
    hidden when the fragment is restricted."""
    creator, head = _create_head(program, config, site, "AA")
    if creator.kind != "WSO":
        raise NotEnabledForCreate(f"only a WSO creates activities, not {creator.kind}")
    newborn, signals = _birth(
        program,
        config,
        creator,
        head,
        alloc,
        tau=site,
        links=Links("AA", interface_ws=creator.links.interface_ws),
    )
    binds = ((head.bind_to, newborn.addr),)
    return _created(program, config, creator, binds, creator.state.queue[1:], (newborn,), signals)


def create_wso(
    program: Program, config: Configuration, site: Address, alloc: AddressAllocator
) -> Tuple[Configuration, Produced]:
    """A WS creates the one orchestration it fronts.  The pair is bound
    both ways; a second create on the same WS is refused."""
    creator, head = _create_head(program, config, site, "WSO")
    if creator.kind != "WS":
        raise NotEnabledForCreate(f"only a WS creates its WSO, not {creator.kind}")
    if creator.links.owner_wso is not None:
        raise WSOAlreadyBound(f"{site.canon()} already fronts a WSO")
    addr = alloc.fresh("WSO", hint=head.behavior)
    newborn, signals = _birth(
        program,
        config,
        creator,
        head,
        alloc,
        tau=addr,
        links=Links("WSO", owner_wso=addr, interface_ws=site),
        addr=addr,
    )
    binds = ((head.bind_to, newborn.addr),)
    return _created(program, config, creator, binds, creator.state.queue[1:], (newborn,), signals)


def create_wss(
    program: Program, config: Configuration, site: Address, alloc: AddressAllocator
) -> Tuple[Configuration, Produced]:
    """A WSC creates both partner services in one step, partner links
    pre-wired each way; the later setPartner messages only confirm them."""
    creator, first = _create_head(program, config, site, "WS")
    if creator.kind != "WSC":
        raise NotEnabledForCreate(f"only a WSC creates services, not {creator.kind}")
    if creator.links.partner_1 is not None or creator.links.partner_2 is not None:
        raise PartnersAlreadyCreated(f"{site.canon()} already created its partners")
    queue = creator.state.queue
    if len(queue) < 2 or not isinstance(queue[1], ast.CreateAct):
        raise NotEnabledForCreate(
            f"{site.canon()} must create both partners together"
        )
    second = queue[1]
    if program.definition(second.behavior).kind != "WS":
        raise NotEnabledForCreate(f"{second.behavior} is not a service behaviour")
    a1 = alloc.fresh("WS", hint=first.behavior)
    a2 = alloc.fresh("WS", hint=second.behavior)
    if a1 == a2:
        raise FreshnessViolation(f"partner addresses collide at {a1.canon()}")
    ws1, sig1 = _birth(
        program, config, creator, first, alloc,
        tau=a1, links=Links("WS", partner_ws=a2), addr=a1,
    )
    ws2, sig2 = _birth(
        program, config, creator, second, alloc,
        tau=a2, links=Links("WS", partner_ws=a1), addr=a2,
    )
    binds = ((first.bind_to, a1), (second.bind_to, a2))
    return _created(program, config, creator, binds, queue[2:], (ws1, ws2), sig1 + sig2)
