"""The rewrite rules, as pure functions from configuration to configuration.

Which rule applies to a term is decided here and nowhere else, by one
function per kind of subject:

    site_rule      a running actor: Request, or the create rule its
                   queue head and kind allow
    signal_rule    a signal: SendIn or SendOut for a transmit, Compute
                   for the notification its blocked receiver awaits
    message_rule   a pending application message: SetPartner or
                   ReadyDeliver at a ready member that accepts it, Out
                   when its destination is no member
    feed_rule      a message from outside: In at a receptionist

Each returns the id of the rule that applies, or the error that refuses
every rule of its kind; a condition whose evaluation raises refuses with
that error.  engine.enabled_rules offers what they accept, and each rule
raises what they refuse.  A rule rewrites a sub-multiset of the fragment
and returns only its successor, built with one Fragment.derive call
naming the actor it replaces, the actors it creates, the messages it
consumes and produces, and the restriction when an ejection publishes
names; the step that call records is the rule's whole report.

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
from typing import Optional, Sequence, Tuple, Type, Union

from . import syntax as ast
from .errors import (
    AbwsclError,
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
    actor_env,
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

# The id of the rule that applies, or what refuses it: the class of the
# error the rule raises, or the error a side condition raised itself.
Verdict = Union[str, Type[AbwsclError], AbwsclError]


def _get_actor(config: Configuration, addr: Address) -> ActorTerm:
    a = config.top.actor(addr)
    if a is None:
        raise UnknownActor(f"no actor at {addr.canon()}")
    return a


def _require(verdict: Verdict, rule_id: str, subject, mismatch: Type[AbwsclError]) -> None:
    """Raise unless `verdict` is `rule_id`: the error the verdict names,
    or `mismatch` when another rule applies to `subject` instead."""
    if verdict != rule_id:
        if isinstance(verdict, AbwsclError):
            raise verdict
        if isinstance(verdict, str):
            raise mismatch(f"{rule_id} does not apply to {subject.canon()}; {verdict} does")
        raise verdict(f"{rule_id} does not apply to {subject.canon()}")


# -- which rule applies --------------------------------------------------------


def site_rule(program: Program, actor: ActorTerm) -> Verdict:
    """Request at a running actor whose queue is drained or starts with a
    send or setPartner call to an address; at a create, CreateAA for a
    WSO creating an activity, CreateWSO for a WS not yet fronting one,
    CreateWSs for a WSC creating both partners at once."""
    if actor.p is not ProcessingState.RUNNING:
        return NotRunning
    queue = actor.state.queue
    if not queue:
        return "Request"
    head = queue[0]
    if isinstance(head, (ast.SendAct, ast.SetPartnerCall)):
        try:
            target = eval_in_state(program, actor, ast.Name(ident=head.target))
        except AbwsclError as e:
            return e
        # the target name must hold an actor address
        return "Request" if isinstance(target, Address) else UnknownTarget
    if not isinstance(head, ast.CreateAct):
        # absorb() keeps non-observable actions off the queue head
        return NoNextEvent
    created = _kind_created(program, head)
    if actor.kind == "WSO" and created == "AA":
        return "CreateAA"
    if actor.kind == "WS" and created == "WSO":
        return "CreateWSO" if actor.links.owner_wso is None else WSOAlreadyBound
    if actor.kind == "WSC" and created == "WS":
        if actor.links.partner_1 is not None or actor.links.partner_2 is not None:
            return PartnersAlreadyCreated
        # both partners are created in one step
        if len(queue) > 1 and _kind_created(program, queue[1]) == "WS":
            return "CreateWSs"
    return NotEnabledForCreate


def _kind_created(program: Program, act) -> Optional[str]:
    """The kind of actor a create act makes; None for any other act."""
    d = program.by_name.get(act.behavior) if isinstance(act, ast.CreateAct) else None
    return d.kind if d is not None else None


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


def signal_rule(top: Fragment, em: EventMessage) -> Verdict:
    """SendIn or SendOut, by send_route, for a well-formed transmit
    signal; Compute for a complete or deliver notification that its
    receiver is blocked on.  A deliver's guard was decided when
    message_rule let its call be delivered, and its receiver has been
    blocked since.  A ready signal is taken only with a message, by a
    delivery."""
    event, value = em.event, em.value
    if event is Event.READY:
        return NotBlockedPair
    if event is Event.TRANSMIT:
        dest = value.get("dest") if isinstance(value, Record) else None
        call = value.get("call") if isinstance(value, Record) else None
        if not isinstance(dest, Address) or not isinstance(call, Record):
            return UnknownTarget
        # stuck between activities of different services
        return send_route(top, em.src, dest) or NotSameWSO
    actor = top.actor(em.dest)
    if actor is None:
        return UnknownActor
    if actor.p is not ProcessingState.READY:
        return NotRunning
    if not blocked(actor.last_signal, event):
        return NotBlockedPair
    return "Compute"


def message_rule(program: Program, top: Fragment, am: AppMessage) -> Verdict:
    """Out when the message's destination is no member; at a member that
    has signalled ready, SetPartner for a setPartner call naming one
    other actor's address and ReadyDeliver for any other call, when the
    method's guard accepts it."""
    actor = top.actor(am.dest)
    if actor is None:
        return "Out"
    if ready_signal(actor) not in top.events:
        return NoPendingMessage
    method, args = am.method, am.args
    if method is None:
        return UnknownMethod
    if method != "setPartner":
        return _accepts(program, actor, method, args, "ReadyDeliver")
    if len(args) != 1 or not isinstance(args[0], Address):
        return UnknownTarget
    if args[0] == actor.addr:
        return SelfPartner
    return _accepts(program, actor, method, args, "SetPartner")


def _accepts(program: Program, actor: ActorTerm, method: str, args, rule_id: str) -> Verdict:
    try:
        return rule_id if guard_accepts(program, actor, method, args) else GuardRejected
    except AbwsclError as e:
        return e


def feed_rule(top: Fragment, am: AppMessage) -> Verdict:
    """In when the message from outside is addressed to a receptionist."""
    return "In" if am.dest in receptionists(top) else NotAReceptionist


# -- generic computation: request and compute --------------------------------


def step_request(program: Program, config: Configuration, site: Address) -> Configuration:
    """A running actor turns its next piece of work into a signal.

    A send at the queue head becomes a transmit signal; a drained queue
    becomes a ready signal.  Either way the actor blocks on the emitted
    event.  A create at the head belongs to the create rules instead.
    """
    actor = _get_actor(config, site)
    _require(site_rule(program, actor), "Request", site, NotEnabledForCreate)
    queue = actor.state.queue
    if not queue:
        signal = ready_signal(actor)
        new = actor.evolve(p=ProcessingState.READY, last_signal=Event.READY)
    else:
        head = queue[0]
        if isinstance(head, ast.SetPartnerCall):
            method, arg_exprs = "setPartner", (head.arg,)
        else:
            method, arg_exprs = head.method, head.args
        env = actor_env(program, actor)
        target = ast.eval_expr(ast.Name(ident=head.target), env)
        args = tuple([ast.eval_expr(e, env) for e in arg_exprs])
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
    return Configuration(config.top.derive(actor=new, new=(signal,)))


def step_compute(
    program: Program, config: Configuration, notification: EventMessage
) -> Configuration:
    """A blocked actor consumes the notification its last signal awaits.

    Complete resumes the remaining queue; deliver loads the called method's
    body, whose guard accepted the call at delivery.  A notification that
    is not pending is NoPendingMessage.
    """
    if notification not in config.top.events:
        raise NoPendingMessage(f"notification {notification.canon()} is not pending")
    _require(signal_rule(config.top, notification), "Compute", notification, NotBlockedPair)
    actor = config.top.actor(notification.dest)
    if notification.event is Event.COMPLETE:
        new = absorb(program, actor.evolve(p=ProcessingState.RUNNING))
    else:  # deliver
        value = notification.value
        new = load_method(program, actor, value.get("method"), value.get("args") or ())
    return Configuration(config.top.derive(actor=new, gone=(notification,)))


# -- signal routing at the handler -------------------------------------------


def _route(config: Configuration, em: EventMessage) -> Configuration:
    app = AppMessage(dest=em.value.get("dest"), value=em.value.get("call"), src=em.src)
    complete = EventMessage(
        dest=em.src, src=em.dest, event=Event.COMPLETE, value=Record.of()
    )
    return Configuration(config.top.derive(gone=(em,), new=(app, complete)))


def aa_send_in(config: Configuration, em: EventMessage) -> Configuration:
    """Route a transmit between sibling AAs: same owner, same interface.

    The handler (the owning WSO) turns the signal into an AppMessage for
    the sibling and completes the sender.
    """
    if em not in config.top.events:
        raise NoPendingMessage(f"not in fragment: {em.canon()}")
    _require(signal_rule(config.top, em), "SendIn", em, NotSameWSO)
    return _route(config, em)


def aa_send_out(config: Configuration, em: EventMessage) -> Configuration:
    """Route any non-sibling transmit: the handler emits the AppMessage
    toward its destination (local or boundary alike) and completes the
    sender.  Whether the message later leaves the fragment is [out]'s
    decision, keyed on membership."""
    if em not in config.top.events:
        raise NoPendingMessage(f"not in fragment: {em.canon()}")
    _require(signal_rule(config.top, em), "SendOut", em, TargetIsLocal)
    return _route(config, em)


# -- delivery ----------------------------------------------------------------


def deliver_ready(program: Program, config: Configuration, am: AppMessage) -> Configuration:
    """Pair an actor's ready signal with one pending message for it.

    Both are consumed; a deliver notification carrying the call record is
    produced.  Refused (left pending) when the method's guard is false.
    A setPartner call also wires the partner link; re-setting the same
    partner is an idempotent confirmation.
    """
    if am not in config.top.apps:
        raise NoPendingMessage(f"not in fragment: {am.canon()}")
    partnering = am.method == "setPartner"
    _require(
        message_rule(program, config.top, am),
        "SetPartner" if partnering else "ReadyDeliver",
        am,
        UnknownActor,
    )
    actor = config.top.actor(am.dest)
    # the ready signal and the message become one deliver notification
    deliver = EventMessage(
        dest=actor.addr, src=actor.tau, event=Event.DELIVER, value=am.value
    )
    partnered = None
    if partnering:
        partnered = actor.evolve(links=dataclasses.replace(actor.links, partner_ws=am.args[0]))
    return Configuration(
        config.top.derive(actor=partnered, gone=(ready_signal(actor), am), new=(deliver,))
    )


# -- boundary ----------------------------------------------------------------


def boundary_in(config: Configuration, am: AppMessage) -> Configuration:
    """Accept a message from outside.  Only receptionists are reachable;
    the external sender's identity is not retained, so a message that
    names none enters as it is."""
    _require(feed_rule(config.top, am), "In", am, NotAReceptionist)
    accepted = am if am.src is None else AppMessage(dest=am.dest, value=am.value, src=None)
    return Configuration(config.top.derive(new=(accepted,)))


def eject(program: Program, config: Configuration, am: AppMessage) -> Configuration:
    """Emit one message whose destination lives outside the fragment.

    Member addresses exposed by the payload (or the sender stamp) become
    receptionists: the outside world now knows them.
    """
    if am not in config.top.apps:
        raise NoPendingMessage(f"not in fragment: {am.canon()}")
    # any other answer, a refusal included, is about delivering it here
    if message_rule(program, config.top, am) != "Out":
        raise TargetIsLocal(f"{am.dest.canon()} lives in this fragment")
    restriction = config.top.restriction
    if restriction is not None:
        exposed = value_acquaintances(am.value)
        if am.src is not None:
            exposed |= {am.src}
        restriction = restriction | (exposed & members(config.top))
    return Configuration(config.top.derive(gone=(am,), restriction=restriction))


# -- creation ----------------------------------------------------------------


def _creator(
    program: Program, config: Configuration, site: Address, rule_id: str
) -> Tuple[ActorTerm, ast.CreateAct]:
    actor = _get_actor(config, site)
    _require(site_rule(program, actor), rule_id, site, NotEnabledForCreate)
    return actor, actor.state.queue[0]


def _check_fresh(config: Configuration, addr: Address) -> None:
    if addr in members(config.top) or addr in fragment_acquaintances(config.top):
        raise FreshnessViolation(f"address {addr.canon()} is already known")


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
) -> Configuration:
    """The creator binds each new address, drops its create acts and
    resumes on `rest`; the newborns join with their ready signals."""
    for name, addr in binds:
        creator = write_name(program, creator, name, addr)
    creator = absorb(program, creator.evolve(state=creator.state.with_queue(rest)))
    return Configuration(config.top.derive(actor=creator, born=born, new=signals))


def create_aa(
    program: Program, config: Configuration, site: Address, alloc: AddressAllocator
) -> Configuration:
    """A WSO creates one of its activities.  The newborn inherits the
    creator's interface and answers to the creator; its address stays
    hidden when the fragment is restricted."""
    creator, head = _creator(program, config, site, "CreateAA")
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
) -> Configuration:
    """A WS creates the one orchestration it fronts.  The pair is bound
    both ways; a second create on the same WS is refused."""
    creator, head = _creator(program, config, site, "CreateWSO")
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
) -> Configuration:
    """A WSC creates both partner services in one step, partner links
    pre-wired each way; the later setPartner messages only confirm them."""
    creator, first = _creator(program, config, site, "CreateWSs")
    queue = creator.state.queue
    second = queue[1]
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
