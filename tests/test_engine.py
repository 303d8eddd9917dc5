import pytest

from abwscl import Program, interaction, run
from abwscl.engine import (
    FairRoundRobin,
    allocator_for,
    apply_instance,
    enabled_rules,
    explore,
)
from abwscl.errors import NoPendingMessage
from abwscl.program import initial_configuration, instantiate
from abwscl.rules import boundary_in
from abwscl.terms import (
    Address,
    AddressAllocator,
    AppMessage,
    Configuration,
    Event,
    Fragment,
    call_record,
    ready_signal,
)

from conftest import MINI_SOURCE

GOLDEN_EXCHANGES = ["requestLB", "receiveLB", "sendSB", "receivePB", "payB"]


def golden(program, seed=0, max_steps=500):
    alloc = AddressAllocator()
    config = initial_configuration(program, "BuyingBookWSC", alloc)
    return run(program, config, max_steps=max_steps, seed=seed, alloc=alloc)


def test_conversation_runs_to_quiescence(program):
    trace = golden(program)
    assert trace.quiescent
    assert not trace.reached_limit
    assert [m.method for m in trace.ws_exchanges()] == GOLDEN_EXCHANGES


def test_trace_text_shape(program):
    trace = golden(program)
    lines = trace.text().splitlines()
    assert lines[0] == "abwscl-trace v1"
    assert lines[1] == f"steps {len(trace.steps)} quiescent"
    assert lines[2].startswith("0: ")
    assert "-- final" in lines
    assert trace.final.canon() in trace.text()


def test_same_seed_same_trace(program):
    assert golden(program).text() == golden(program).text()


def test_a_run_builds_no_state_key(program, mini_program):
    """Only a search reads state keys: nothing a run calls asks for
    `Fragment.key()`, so no fragment of the trace builds one."""
    alloc = AddressAllocator()
    mini = run(mini_program, initial_configuration(mini_program, "MiniWSC", alloc), alloc=alloc)
    for trace in (golden(program), mini):
        assert trace.quiescent and len(trace.steps) > 10
        fragments = [trace.initial.top] + [s.post.top for s in trace.steps]
        assert [f for f in fragments if "_key" in f.__dict__] == []


def test_any_seed_reaches_the_same_conversation(program):
    for seed in (1, 7, 42):
        trace = golden(program, seed=seed)
        assert trace.quiescent
        assert [m.method for m in trace.ws_exchanges()] == GOLDEN_EXCHANGES


def test_step_limit_is_reported(program):
    trace = golden(program, max_steps=5)
    assert not trace.quiescent
    assert trace.reached_limit
    assert len(trace.steps) == 5
    assert "steps 5 step-limit" in trace.text()


def test_mini_conversation_labels(mini_program):
    alloc = AddressAllocator()
    config = initial_configuration(mini_program, "MiniWSC", alloc)
    trace = run(mini_program, config, max_steps=200, seed=0, alloc=alloc)
    assert trace.quiescent
    # nothing crosses until the driver is poked from outside
    assert trace.boundary_labels() == ()


def test_feeds_enter_as_in_steps(mini_program):
    alloc = AddressAllocator()
    config = initial_configuration(mini_program, "MiniWSC", alloc)
    start = run(mini_program, config, max_steps=200, seed=0, alloc=alloc)
    driver = next(
        a.addr for a in start.final.top.actors if a.behavior == "MiniDriverWS"
    )
    feed = AppMessage(driver, call_record("go", ()))
    trace = run(
        mini_program, start.final, max_steps=200, seed=0,
        feeds=(feed,), alloc=alloc,
    )
    assert trace.quiescent
    assert ("in", "go") in trace.boundary_labels()
    # the driver pokes the callee, whose service answers with a pong
    assert [m.method for m in trace.ws_exchanges()] == ["poke", "pong"]


RACE_SOURCE = """
WSO RaceWSO {
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
    }

    left() if true {
        other-local-computations
    }

    right() if true {
        other-local-computations
    }
}
"""


def test_delivery_races_are_visible_to_the_scheduler():
    program = Program.parse(RACE_SOURCE)
    alloc = AddressAllocator()
    actor = instantiate(
        program, "RaceWSO", [Address("Outside", "WS")], alloc,
        addr=Address("RaceWSO", "WSO"),
    )
    config = Configuration(
        Fragment.make(actors=(actor,), events=(ready_signal(actor),))
    )
    config = boundary_in(config, AppMessage(actor.addr, call_record("left", ())))
    config = boundary_in(config, AppMessage(actor.addr, call_record("right", ())))
    insts = enabled_rules(program, config)
    assert [i.rule_id for i in insts] == ["ReadyDeliver", "ReadyDeliver"]
    nexts = {
        apply_instance(program, config, i, alloc.clone())[0].canon()
        for i in insts
    }
    assert len(nexts) == 2


def test_instances_consume_their_subject(program):
    alloc = AddressAllocator()
    config = initial_configuration(program, "BuyingBookWSC", alloc)
    whole = run(program, config, max_steps=500, alloc=alloc)
    # one side alone: its calls to the service leave through Out
    side = interaction.wso_side(program, "UserAgentWSO", ws_name="UserAgentWS")
    part = run(
        program, side.config, max_steps=500,
        feeds=side.peer_feeds,
    )
    stale = set()
    for trace in (whole, part):
        pre = trace.initial
        for step in trace.steps:
            pending = pre.top.events + pre.top.apps
            for inst in enabled_rules(program, pre):
                subject = inst.subject
                if isinstance(subject, Address):
                    assert subject.id == inst.site
                    assert pre.top.actor(subject) is not None
                else:
                    assert any(subject is m for m in pending)
            inst, post = step.instance, step.post
            if inst.rule_id in ("Out", "ReadyDeliver", "Compute") and not any(
                inst.subject == m for m in post.top.events + post.top.apps
            ):
                # the consumed message is gone, so the instance is stale
                with pytest.raises(NoPendingMessage):
                    apply_instance(program, post, inst, AddressAllocator())
                stale.add(inst.rule_id)
            pre = post
    assert stale == {"Out", "ReadyDeliver", "Compute"}


def test_the_configuration_fixes_the_allocator(program):
    """Every address a create step mints joins as an actor, so the
    allocator derived from the actor ids mints what a threaded one would."""
    alloc = AddressAllocator()
    config = initial_configuration(program, "BuyingBookWSC", alloc)
    sched = FairRoundRobin(0)
    creates = set()
    for step in range(500):
        insts = enabled_rules(program, config)
        if not insts:
            break
        inst = sched.choose(insts, step)
        config = apply_instance(program, config, inst, alloc)[0]
        if inst.rule_id.startswith("Create"):
            creates.add(inst.rule_id)
        assert allocator_for(config).fresh("AA") == alloc.clone().fresh("AA"), inst
    assert not enabled_rules(program, config)
    assert creates == {"CreateWSs", "CreateWSO", "CreateAA"}


def test_explore_matches_single_runs(mini_program):
    alloc = AddressAllocator()
    config = initial_configuration(mini_program, "MiniWSC", alloc)
    # every configuration a run passes through, fresh addresses included
    reached, _labels = explore(mini_program, config, depth=8)
    for seed in range(8):
        prefix = run(mini_program, config, max_steps=8, seed=seed)
        assert all(step.post.canon() in reached for step in prefix.steps)
    settled = run(mini_program, config, max_steps=200, seed=0, alloc=alloc).final
    driver = next(
        a.addr for a in settled.top.actors if a.behavior == "MiniDriverWS"
    )
    feed = AppMessage(driver, call_record("go", ()))
    configs, labels = explore(mini_program, settled, depth=6, feeds=(feed,))
    assert settled.canon() in configs
    assert () in labels  # prefix closure includes the empty trace
    assert (("in", "go"),) in labels
    for seq in labels:
        for prefix_len in range(len(seq)):
            assert seq[:prefix_len] in labels


def test_fairness_bounds_service_time(program):
    # with fifteen concurrent actors the conversation still finishes:
    # nothing enabled is starved regardless of seed
    for seed in (3, 11):
        trace = golden(program, seed=seed)
        assert trace.quiescent
        assert len(trace.steps) < 400


def offered_instances_apply(program, name, seeds):
    """Run `name` once per seed.  At every state a run passes through,
    every instance enabled_rules offers applies without raising."""
    seen = set()
    for seed in seeds:
        alloc = AddressAllocator()
        trace = run(program, initial_configuration(program, name, alloc),
                    max_steps=500, seed=seed, alloc=alloc)
        for config in (trace.initial,) + tuple(s.post for s in trace.steps):
            key = config.top.key()
            if key in seen:
                continue
            seen.add(key)
            for inst in enabled_rules(program, config):
                apply_instance(program, config, inst, allocator_for(config))
    return trace


def test_offered_instances_apply_along_corpus_runs(program, mini_program):
    assert offered_instances_apply(program, "BuyingBookWSC", range(16)).quiescent
    assert offered_instances_apply(mini_program, "MiniWSC", range(16)).quiescent


def test_offered_instances_apply_along_mutant_runs(corpus_text):
    lines = corpus_text.splitlines(keepends=True)
    sends = [i for i, line in enumerate(lines) if "<-" in line]
    assert len(sends) == 32
    # each single-send deletion, the seeds 0-15 taken in turn
    for n, i in enumerate(sends):
        mutant = Program.parse("".join(lines[:i] + lines[i + 1:]))
        offered_instances_apply(mutant, "BuyingBookWSC", (n % 16,))


def test_offered_instances_apply_along_fixture_runs(
    mutant_program, request_lb_mutant_program, aa_create_mutant_text,
    no_setpartner_mutant_text,
):
    for fixture in (
        mutant_program, request_lb_mutant_program,
        Program.parse(aa_create_mutant_text), Program.parse(no_setpartner_mutant_text),
    ):
        offered_instances_apply(fixture, "BuyingBookWSC", range(4))


@pytest.mark.parametrize("partner", ["ws-ref-1", "3"])
def test_a_refused_set_partner_call_stays_pending(corpus_text, partner):
    """A setPartner call naming its own receiver, or no address, is never
    offered: it stays pending, as a call its guard refuses does."""
    call = "ws-ref-1 <- setPartner(ws-ref-2)"
    assert corpus_text.count(call) == 1
    program = Program.parse(corpus_text.replace(call, f"ws-ref-1 <- setPartner({partner})"))
    assert program.validate() == ()
    trace = offered_instances_apply(program, "BuyingBookWSC", range(4))
    assert trace.quiescent
    pending = [am for am in trace.final.top.apps if am.method == "setPartner"]
    assert [am.dest.id for am in pending] == ["UserAgentWS#1"]


def test_a_delivered_call_is_not_asked_its_guard_again():
    """A guard is decided once, at delivery.  The driver's setPartner
    guard reads the partner link that the call itself rewires: asked
    again at Compute, it would refuse the call it accepted and leave the
    driver blocked on its deliver notification."""
    driver_set_partner = "setPartner(WS ws) if true {\n        ws-ref := ws\n    }\n\n    go()"
    assert MINI_SOURCE.count(driver_set_partner) == 1
    source = MINI_SOURCE.replace(
        driver_set_partner, driver_set_partner.replace("if true", "if ws-ref != ws")
    ).replace("ws-ref-1 <- setPartner(ws-ref-2)", "ws-ref-1 <- setPartner(self)")
    program = Program.parse(source)
    assert program.validate() == ()
    for seed in range(4):
        alloc = AddressAllocator()
        trace = run(program, initial_configuration(program, "MiniWSC", alloc),
                    seed=seed, alloc=alloc)
        assert trace.quiescent
        assert [e for e in trace.final.top.events if e.event is Event.DELIVER] == []
        driver = next(a for a in trace.final.top.actors if a.behavior == "MiniDriverWS")
        assert driver.links.partner_ws.id == "MiniWSC#0"
