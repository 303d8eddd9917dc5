import random

import pytest
from hypothesis import given, strategies as st

from abwscl import Program, engine, interaction, run
from abwscl.engine import (
    FairRoundRobin,
    RuleInstance,
    allocator_for,
    apply_instance,
    enabled_rules,
)
from abwscl.errors import NoPendingMessage
from abwscl.program import initial_configuration, instantiate
from abwscl.rules import boundary_in
from abwscl.syntax import SendAct
from abwscl.terms import (
    Address,
    AddressAllocator,
    AppMessage,
    Configuration,
    Event,
    EventMessage,
    Fragment,
    ProcessingState,
    Record,
    call_record,
    ready_signal,
)

from conftest import MINI_SOURCE, _enumerate_boundary_traces
from test_acceptance import PAIR_SOURCE
from test_interaction import COUNT_SOURCE, PUBLISH_SOURCE

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
    reached, _labels = _enumerate_boundary_traces(mini_program, config, 8, ())
    for seed in range(8):
        prefix = run(mini_program, config, max_steps=8, seed=seed)
        assert all(step.post.canon() in reached for step in prefix.steps)
    settled = run(mini_program, config, max_steps=200, seed=0, alloc=alloc).final
    driver = next(
        a.addr for a in settled.top.actors if a.behavior == "MiniDriverWS"
    )
    feed = AppMessage(driver, call_record("go", ()))
    configs, labels = _enumerate_boundary_traces(mini_program, settled, 6, (feed,))
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


def offered_along_a_run(monkeypatch, program, config, feeds=(), **kw):
    """Run, and check at every step that what the run offers its scheduler
    is what a fresh enabled_rules offers for that step's configuration
    and unconsumed feeds; the run's own enumeration is incremental.
    Returns the trace and the sorted offers, one per step."""
    offers = []
    choose = FairRoundRobin.choose

    def recording(sched, instances, step):
        offers.append(tuple(sorted(instances, key=lambda i: i.key)))
        return choose(sched, instances, step)

    with monkeypatch.context() as m:
        m.setattr(FairRoundRobin, "choose", recording)
        trace = run(program, config, feeds=feeds, **kw)
    assert len(offers) == len(trace.steps)
    cur, remaining = trace.initial, list(feeds)
    for offered, step in zip(offers, trace.steps):
        assert offered == enabled_rules(program, cur, feeds=remaining), step.instance
        if step.instance.rule_id == "In":
            remaining.remove(step.instance.subject)
        cur = step.post
    assert trace.quiescent == (not enabled_rules(program, cur, feeds=remaining))
    return trace, offers


def applied(trace):
    return [s.instance.rule_id for s in trace.steps]


def test_a_run_offers_what_enabled_rules_offers(program, mini_program, monkeypatch):
    rng = random.Random(27)
    for prog, name in ((program, "BuyingBookWSC"), (mini_program, "MiniWSC")):
        for _ in range(8):
            alloc = AddressAllocator()
            config = initial_configuration(prog, name, alloc)
            offered_along_a_run(monkeypatch, prog, config, alloc=alloc,
                                seed=rng.randrange(1000), max_steps=rng.randrange(1, 250))
    # a side: In steps shrink the feeds, and Out steps leave it
    side = interaction.wso_side(program, "UserAgentWSO", ws_name="UserAgentWS")
    for seed in range(4):
        trace, _ = offered_along_a_run(monkeypatch, program, side.config,
                                       feeds=side.peer_feeds, seed=seed)
        assert {"In", "Out"} <= set(applied(trace))
    # one activity created per kick, two of the feeds equal
    pair = interaction.wso_side(Program.parse(PAIR_SOURCE), "PairWSO", ws_name="GateWS")
    for seed in range(4):
        trace, _ = offered_along_a_run(monkeypatch, pair.program, pair.config,
                                       feeds=pair.peer_feeds * 2, seed=seed)
        assert applied(trace).count("CreateAA") == 2
    # a stray complete waits at an actor about to send: Compute takes it
    # once the actor blocks on its transmit, a step that replaces the
    # actor and leaves the stray untouched
    trace = golden(program)
    for step in trace.steps:
        top = step.post.top
        sender = next((a for a in top.actors if a.p is ProcessingState.RUNNING
                       and a.state.queue and isinstance(a.state.queue[0], SendAct)), None)
        if sender is not None:
            break
    stray = EventMessage(sender.addr, sender.tau, Event.COMPLETE, Record.of())
    config = Configuration(Fragment.make(top.actors, top.events + (stray,), top.apps))
    trace, offers = offered_along_a_run(monkeypatch, program, config, max_steps=60)
    request = next(i for i, s in enumerate(trace.steps)
                   if s.instance.rule_id == "Request" and s.instance.site == sender.addr.id)
    assert any(i.rule_id == "Compute" and i.subject == stray for i in offers[request + 1])
    # an Out that publishes the helper's address lets a feed to it enter
    publish = interaction.wso_side(Program.parse(PUBLISH_SOURCE), "PublishWSO")
    ping = AppMessage(publish.config.top.actors[0].addr, call_record("ping", ()))
    first, _ = offered_along_a_run(monkeypatch, publish.program, publish.config, feeds=(ping,))
    helper = next(a.addr for a in first.final.top.actors if a.behavior == "HelperAA")
    assert helper in first.final.top.restriction
    trace, _ = offered_along_a_run(monkeypatch, publish.program, publish.config,
                                   feeds=(ping, AppMessage(helper, call_record("ping", ()))))
    assert applied(trace).count("In") == 2
    # `fin() if n == 2` waits at a ready receiver until its second tick lands
    count = interaction.wso_side(Program.parse(COUNT_SOURCE), "CountWSO")
    for seed in range(8):
        trace, _ = offered_along_a_run(monkeypatch, count.program, count.config, seed=seed)
        assert trace.quiescent and [a.method for a in trace.ws_exchanges()] == []
        assert ("out", "done") in trace.boundary_labels()


class ReferenceRoundRobin:
    """FairRoundRobin as a plain rule: the minimum of (age, tie-break)."""

    def __init__(self, seed):
        self.seed, self.ages = seed, {}

    def choose(self, instances, step):
        keys = {i.key for i in instances}
        self.ages = {k: s for k, s in self.ages.items() if k in keys}
        for k in keys:
            self.ages.setdefault(k, step)
        return min(instances,
                   key=lambda i: (self.ages[i.key], engine._tie_break(self.seed, i.key)))


_KEYS = st.tuples(st.sampled_from(["Compute", "Out", "Request"]),
                  st.sampled_from(["a#0", "b#1"]), st.sampled_from(["ready", "x", "y"]))


@given(seed=st.integers(0, 3),
       rounds=st.lists(st.tuples(st.lists(_KEYS, min_size=1, max_size=6), st.integers(0, 30)),
                       min_size=1, max_size=12))
def test_the_scheduler_picks_the_oldest_then_the_least_tie_break(seed, rounds):
    sched, reference = FairRoundRobin(seed), ReferenceRoundRobin(seed)
    for keys, step in rounds:
        insts = [RuleInstance(*k, Address(k[1])) for k in keys]
        assert sched.choose(insts, step) is reference.choose(insts, step)


def test_a_scheduler_hashes_each_key_once(program, monkeypatch):
    hashed = []
    tie_break = engine._tie_break

    def counted(seed, key):
        hashed.append(key)
        return tie_break(seed, key)

    monkeypatch.setattr(engine, "_tie_break", counted)
    trace = golden(program, seed=5)
    assert trace.quiescent and hashed
    assert len(hashed) == len(set(hashed))
