import dataclasses

import pytest

from abwscl import Program, rules
from abwscl.engine import enabled_rules
from abwscl.errors import (
    EvalTypeError,
    FreshnessViolation,
    GuardRejected,
    NoPendingMessage,
    NotAReceptionist,
    NotBlockedPair,
    NotEnabledForCreate,
    NotRunning,
    NotSameWSO,
    PartnersAlreadyCreated,
    SelfPartner,
    TargetIsLocal,
    UnknownActor,
    WSOAlreadyBound,
)
from abwscl.program import initial_configuration, instantiate
from abwscl.terms import (
    Address,
    AddressAllocator,
    AppMessage,
    Configuration,
    Event,
    EventMessage,
    Fragment,
    Links,
    ProcessingState,
    Record,
    call_record,
    ready_signal,
    receptionists,
    restrict,
)

OUTSIDE = Address("Outside", "WS")


def wsc_start(mini_program):
    alloc = AddressAllocator()
    return initial_configuration(mini_program, "MiniWSC", alloc), alloc


def with_actor(config, new):
    """The configuration with `new` in place of the actor at its address."""
    return Configuration(config.top.derive(actor=new))


def make_aa(program, name, addr_id, owner, interface):
    alloc = AddressAllocator()
    owner_addr = Address(owner, "WSO")
    actor = instantiate(
        program, name, [owner_addr], alloc, addr=Address(addr_id, "AA")
    )
    return dataclasses.replace(
        actor,
        links=Links("AA", owner_wso=owner_addr, interface_ws=Address(interface, "WS")),
    )


def transmit(sender, target, method):
    return EventMessage(
        dest=sender.tau,
        src=sender.addr,
        event=Event.TRANSMIT,
        value=Record.of(dest=target.addr, call=call_record(method, ())),
    )


def test_request_refuses_idle_and_missing_actors(mini_program):
    config, _ = wsc_start(mini_program)
    with pytest.raises(UnknownActor):
        rules.step_request(mini_program, config, Address("ghost"))
    site = config.top.actors[0].addr
    with pytest.raises(NotEnabledForCreate):
        # the queue head is a create, which request does not consume
        rules.step_request(mini_program, config, site)
    idle = dataclasses.replace(
        config.top.actors[0],
        p=ProcessingState.READY,
        state=config.top.actors[0].state.with_queue(()),
    )
    with pytest.raises(NotRunning):
        rules.step_request(mini_program, with_actor(config, idle), idle.addr)


def test_create_rules_are_kind_directed(mini_program):
    config, alloc = wsc_start(mini_program)
    site = config.top.actors[0].addr
    with pytest.raises(NotEnabledForCreate):
        rules.create_aa(mini_program, config, site, alloc)
    with pytest.raises(NotEnabledForCreate):
        rules.create_wso(mini_program, config, site, alloc)
    after = rules.create_wss(mini_program, config, site, alloc)
    assert len(after.top.actors) == 3
    born = {a.addr for a in after.top.actors} - {site}
    assert {a.kind for a in born} == {"WS"}
    # the partner links were wired at birth, before any setPartner call
    ws1, ws2 = sorted(born, key=lambda a: a.id)
    assert after.top.actor(ws1).links.partner_ws == ws2
    assert after.top.actor(ws2).links.partner_ws == ws1
    # the recorded step names both newborns, which a trace line reports
    assert after.top._step[1] == tuple(after.top.actor(a) for a in (ws1, ws2))


def test_partners_are_created_once(mini_program):
    config, alloc = wsc_start(mini_program)
    site = config.top.actors[0].addr
    creates = config.top.actors[0].state.queue[:2]
    after = rules.create_wss(mini_program, config, site, alloc)
    rearmed = dataclasses.replace(
        after.top.actor(site),
        state=after.top.actor(site).state.with_queue(creates),
    )
    with pytest.raises(PartnersAlreadyCreated):
        rules.create_wss(mini_program, with_actor(after, rearmed), site, alloc)


def test_a_service_fronts_one_orchestration(mini_program):
    alloc = AddressAllocator()
    ws = instantiate(mini_program, "MiniWS", [], alloc, addr=Address("MiniWS", "WS"))
    config = Configuration(Fragment.make(actors=(ws,)))
    after = rules.create_wso(mini_program, config, ws.addr, alloc)
    assert after.top.actor(ws.addr).links.owner_wso is not None
    rearmed = dataclasses.replace(
        after.top.actor(ws.addr),
        state=after.top.actor(ws.addr).state.with_queue(ws.state.queue[:1]),
    )
    with pytest.raises(WSOAlreadyBound):
        rules.create_wso(mini_program, with_actor(after, rearmed), ws.addr, alloc)


class CollidingAllocator(AddressAllocator):
    def __init__(self, fixed: Address):
        super().__init__()
        self.fixed = fixed

    def fresh(self, kind, hint=""):
        return self.fixed


def test_birth_requires_a_fresh_address(mini_program):
    config, _ = wsc_start(mini_program)
    site = config.top.actors[0].addr
    with pytest.raises(FreshnessViolation):
        rules.create_wss(mini_program, config, site, CollidingAllocator(site))


def test_sibling_sends_stay_inside_one_service(program):
    a1 = make_aa(program, "RequstLBAA", "aa-1", "OwnerA", "WsA")
    a2 = make_aa(program, "ReceiveLBAA", "aa-2", "OwnerA", "WsA")
    stranger = make_aa(program, "ReceiveRBAA", "aa-3", "OwnerB", "WsB")
    em = transmit(a1, a2, "receiveLB")
    config = Configuration(
        Fragment.make(actors=(a1, a2, stranger), events=(em,))
    )
    after = rules.aa_send_in(config, em)
    assert any(am.dest == a2.addr for am in after.top.apps)
    assert any(e.event is Event.COMPLETE and e.dest == a1.addr for e in after.top.events)
    assert len(after.top._step[3]) == 2
    cross = transmit(a1, stranger, "receiveRB")
    crossed = Configuration(
        Fragment.make(actors=(a1, a2, stranger), events=(cross,))
    )
    with pytest.raises(NotSameWSO):
        rules.aa_send_in(crossed, cross)
    with pytest.raises(TargetIsLocal):
        rules.aa_send_out(config, em)


GUARDED_SOURCE = """
WSO GuardedWSO {
    WS ws-ref
    int n

    init(WS ws) {
        ws-ref := ws
    }

    maybe() if n > 0 {
        ws-ref <- pong()
    }
}
"""


def guarded_call(program):
    """GuardedWSO, ready, with one `maybe` call pending."""
    alloc = AddressAllocator()
    actor = instantiate(
        program, "GuardedWSO", [OUTSIDE], alloc, addr=Address("GuardedWSO", "WSO")
    )
    config = Configuration(
        Fragment.make(actors=(actor,), events=(ready_signal(actor),))
    )
    return rules.boundary_in(config, AppMessage(actor.addr, call_record("maybe", ())))


def test_delivery_defers_when_the_guard_refuses():
    program = Program.parse(GUARDED_SOURCE)
    config = guarded_call(program)
    actor = config.top.actors[0]
    with pytest.raises(GuardRejected):
        rules.deliver_ready(program, config, config.top.apps[0])
    # the refused call stays pending rather than vanishing
    assert len(config.top.apps) == 1
    opened = with_actor(config, dataclasses.replace(actor, state=actor.state.set("n", 1)))
    after = rules.deliver_ready(program, opened, opened.top.apps[0])
    assert after.top.apps == ()
    assert any(e.event is Event.DELIVER for e in after.top.events)

    # a guard that is not boolean refuses delivery too
    program = Program.parse(GUARDED_SOURCE.replace("if n > 0", "if n"))
    config = guarded_call(program)
    with pytest.raises(EvalTypeError):
        rules.deliver_ready(program, config, config.top.apps[0])
    assert not [i for i in enabled_rules(program, config) if i.rule_id == "ReadyDeliver"]
    assert len(config.top.apps) == 1


def test_delivery_needs_a_pending_message(mini_program):
    config, _ = wsc_start(mini_program)
    ghost = AppMessage(config.top.actors[0].addr, call_record("poke", ()))
    with pytest.raises(NoPendingMessage):
        rules.deliver_ready(mini_program, config, ghost)
    with pytest.raises(NoPendingMessage):
        rules.eject(mini_program, config, ghost)


def test_compute_pairs_signal_with_notification(mini_program):
    config, _ = wsc_start(mini_program)
    waiting = dataclasses.replace(
        config.top.actors[0],
        p=ProcessingState.READY,
        last_signal=Event.READY,
    )
    site = waiting.addr
    wrong = EventMessage(dest=site, src=site, event=Event.COMPLETE, value=Record.of())
    with pytest.raises(NotBlockedPair):
        rules.step_compute(
            mini_program,
            Configuration(Fragment.make(actors=(waiting,), events=(wrong,))),
            wrong,
        )


def test_a_ws_never_partners_itself(mini_program):
    alloc = AddressAllocator()
    ws = instantiate(mini_program, "MiniWS", [], alloc, addr=Address("MiniWS", "WS"))
    # a delivered setPartner call wires the link in the same step
    idle = ws.evolve(p=ProcessingState.READY, last_signal=Event.READY,
                     state=ws.state.with_queue(()))

    def delivering(partner):
        call = AppMessage(ws.addr, call_record("setPartner", (partner,)), src=OUTSIDE)
        frag = Fragment.make(actors=(idle,), events=(ready_signal(idle),), apps=(call,))
        return Configuration(frag), call

    with pytest.raises(SelfPartner):
        rules.deliver_ready(mini_program, *delivering(ws.addr))
    after = rules.deliver_ready(mini_program, *delivering(OUTSIDE))
    assert after.top.actor(ws.addr).links.partner_ws == OUTSIDE
    assert after.top.apps == () and after.top.events[0].event is Event.DELIVER


def test_boundary_in_respects_restriction(mini_program):
    alloc = AddressAllocator()
    ws = instantiate(mini_program, "MiniWS", [], alloc, addr=Address("MiniWS", "WS"))
    hidden = instantiate(
        mini_program, "MiniWSO", [ws.addr], alloc, addr=Address("Hidden", "WSO")
    )
    frag = restrict(Fragment.make(actors=(ws, hidden)), {ws.addr})
    config = Configuration(frag)
    with pytest.raises(NotAReceptionist):
        rules.boundary_in(config, AppMessage(hidden.addr, call_record("ping", ())))
    accepted = rules.boundary_in(config, AppMessage(ws.addr, call_record("poke", ()), src=OUTSIDE))
    assert accepted.top.apps[0].src is None


def test_ejection_publishes_carried_members(mini_program):
    alloc = AddressAllocator()
    ws = instantiate(mini_program, "MiniWS", [], alloc, addr=Address("MiniWS", "WS"))
    hidden = instantiate(
        mini_program, "MiniWSO", [ws.addr], alloc, addr=Address("Hidden", "WSO")
    )
    out = AppMessage(OUTSIDE, call_record("hello", (hidden.addr,)), src=ws.addr)
    frag = restrict(
        Fragment.make(actors=(ws, hidden), apps=(out,)), {ws.addr}
    )
    after = rules.eject(mini_program, Configuration(frag), out)
    assert receptionists(after.top) == {ws.addr, hidden.addr}
    assert after.top.apps == ()
    inside = AppMessage(hidden.addr, call_record("ping", ()), src=ws.addr)
    with pytest.raises(TargetIsLocal):
        rules.eject(
            mini_program,
            Configuration(
                Fragment.make(actors=(ws, hidden), apps=(inside,))
            ),
            inside,
        )
