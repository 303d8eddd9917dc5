import hashlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from abwscl import Program, engine, interaction, rules
from abwscl.errors import BoundaryMismatch, SilentDivergence, UnknownName
from abwscl.interaction import (
    BOUNDARIES,
    InteractionSequence,
    InteractionStep,
    admits_sequence,
    check_pair,
    compatible,
    composable,
    default_depth,
    dual,
    interaction_semantics,
    silent,
    ws_side,
    wso_side,
)
from abwscl.terms import Address, AppMessage, Event, Fragment, call_record, canon_value, members

from test_acceptance import CORPUS_PAIRS, PAIR_SOURCE

# the benchmark's check-mutants cases, read from its own modules
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from expected import CORPUS_STATES, MUTANTS as BENCHMARK_MUTANTS
    from workloads import corpus_mutants
finally:
    sys.path.remove(PERFBENCH)

UA_WS = Address("UserAgentWS", "WS")
UA_WSO = Address("UserAgentWSO", "WSO")


def emit(method, outer=UA_WS, inner=UA_WSO, boundary="wso-ws"):
    return InteractionStep(
        boundary=boundary, shape="emit-2", outer=outer, inner=inner,
        payload=call_record(method, ()),
    )


def consume(method, outer=UA_WS, inner=UA_WSO, boundary="wso-ws"):
    return InteractionStep(
        boundary=boundary, shape="consume-2", outer=outer, inner=inner,
        payload=call_record(method, ()),
    )


GOLDEN_WSO_SIDE = InteractionSequence((
    emit("requestLB"),
    consume("receiveLB"),
    emit("sendSB"),
    consume("receivePB"),
    emit("payB"),
))


def test_step_labels_print_far_side_first():
    step = emit("requestLB")
    assert step.label() == "wso-ws-emit-2(UserAgentWS,UserAgentWSO,requestLB)"
    assert consume("receiveLB").label() == (
        "wso-ws-consume-2(UserAgentWS,UserAgentWSO,receiveLB)"
    )
    assert silent("ws-ws").label() == "ws-ws-silent"
    assert step.key() == ("emit-2", "requestLB")


def test_dual_flips_shape_boundary_and_slots():
    step = emit("requestLB")
    d = step.dual()
    assert d.boundary == "ws-wso"
    assert d.shape == "consume-2"
    assert (d.outer, d.inner) == (step.inner, step.outer)
    assert d.dual() == step
    assert silent("ws-ws").dual().boundary == "ws-ws"
    assert silent("wso-wso").dual().boundary == "wso-wso"


def test_steps_are_validated():
    with pytest.raises(BoundaryMismatch):
        InteractionStep(boundary="ws-aa", shape="silent")
    with pytest.raises(BoundaryMismatch):
        InteractionStep(boundary="ws-ws", shape="shout")
    with pytest.raises(BoundaryMismatch):
        InteractionSequence((silent("ws-ws"), silent("wso-ws")))


def test_wso_side_admits_the_golden_conversation(program):
    pc = wso_side(program, "UserAgentWSO", ws_name="UserAgentWS")
    assert pc.boundary == "wso-ws"
    assert admits_sequence(pc, GOLDEN_WSO_SIDE)
    out_of_order = InteractionSequence(tuple(reversed(GOLDEN_WSO_SIDE.steps)))
    assert not admits_sequence(pc, out_of_order)


def test_ws_side_admits_the_dual_conversation(program):
    pc = ws_side(program, "UserAgentWS", facing="wso", wso_name="UserAgentWSO")
    assert pc.boundary == "ws-wso"
    assert admits_sequence(pc, dual(GOLDEN_WSO_SIDE))
    # receiveLB comes from the partner, never from the orchestration
    not_a_wso_call = InteractionSequence(
        (consume("receiveLB", outer=UA_WSO, inner=UA_WS, boundary="ws-wso"),)
    )
    assert not admits_sequence(pc, not_a_wso_call)


def test_semantics_compress_internal_runs(mini_program):
    pc = wso_side(mini_program, "MiniWSO", ws_name="MiniWS")
    seqs = interaction_semantics(pc, 2)
    assert InteractionSequence(()) in seqs
    keys = {tuple(s.key() for s in q if s.visible) for q in seqs}
    assert (("consume-2", "ping"),) in keys
    assert (("consume-2", "ping"), ("emit-2", "pong")) in keys
    # pong needs the ping first; alone it is not a behaviour of this side
    assert (("emit-2", "pong"),) not in keys
    for q in seqs:
        if q.steps:
            assert q.steps[-1].visible
        assert not any(a.visible is False and b.visible is False
                       for a, b in zip(q.steps, q.steps[1:]))


def test_check_pair_rejects_the_service_to_orchestration_spelling(program):
    with pytest.raises(BoundaryMismatch):
        check_pair(program, "UserAgentWS", "UserAgentWSO", "ws-wso")
    with pytest.raises(UnknownName):
        check_pair(program, "NoSuchThing", "UserAgentWS", "wso-ws")


def test_default_depth_counts_both_method_lists(program):
    pc_a, pc_m = check_pair(program, "UserAgentWSO", "UserAgentWS", "wso-ws")
    assert default_depth(pc_a, pc_m) == 2 * (5 + 6)


def test_mini_pair_is_composable(mini_program):
    pc_a, pc_m = check_pair(mini_program, "MiniWSO", "MiniWS", "wso-ws")
    verdict = composable(pc_a, pc_m, 6)
    assert verdict.kind == "Composable"
    assert verdict.explored > 0


def test_unanswered_consume_is_reported_with_a_witness(mini_program):
    pc_a = wso_side(mini_program, "MiniWSO", ws_name="MiniDriverWS")
    pc_m = ws_side(
        mini_program, "MiniDriverWS", facing="wso", wso_name="MiniWSO"
    )
    outcome = compatible(pc_a, pc_m, 6)
    assert outcome.kind == "Incompatible"
    assert outcome.missing == ("right:consume-2(pong)",)
    assert outcome.witness is not None
    assert outcome.witness[-1].key() == ("consume-2", "pong")
    assert admits_sequence(pc_m, outcome.witness)


def test_ws_ws_witness_replays_on_the_failing_side(request_lb_mutant_program):
    pc_a, pc_m = check_pair(request_lb_mutant_program, "UserAgentWS", "BookStoreWS", "ws-ws")
    verdict = composable(pc_a, pc_m)
    assert verdict.kind == "Incompatible"
    assert verdict.missing == ("right:consume-2(requestLB)",)
    assert verdict.explored == 4_244
    assert verdict.witness.labels() == (
        "ws-ws-consume-2(UserAgentWS,BookStoreWS,payB)",
        "ws-ws-consume-2(UserAgentWS,BookStoreWS,sendSB)",
        "ws-ws-emit-2(UserAgentWS,BookStoreWS,receiveLB)",
        "ws-ws-emit-2(UserAgentWS,BookStoreWS,receivePB)",
        "ws-ws-consume-2(UserAgentWS,BookStoreWS,requestLB)",
    )
    assert admits_sequence(pc_m, verdict.witness)


# mutant -> sha256 prefix of its witness labels, one per line
MUTANT_WITNESS_SHA256 = {
    'BookStoreWS.requestLB: wso-ref <- requestLB()': 'a02b02d1c9635a13',
    'BookStoreWS.sendSB: wso-ref <- sendSB(selectedBooks)': '13bb7c4d5e71dff1',
    'BookStoreWSO.requestLB: sendLBAA <- sendLBFromStore(books)': 'f6f593dff4216da2',
    'BookStoreWSO.sendLB: ws-ref <- receiveLB(books)': '192771eabaa02831',
    'BookStoreWSO.sendPB: ws-ref <- receivePB(prices)': 'e896bba6b164f2b0',
    'BookStoreWSO.sendSB: sendPBAA <- sendPBFromStore()': 'e75f7c9d8fa41083',
    'PayBAA.payBFromCustomer: wso-ref <- payB()': 'b33ab20234488d40',
    'SendLBAA.sendLBFromStore: wso-ref <- sendLB(books)': 'f6f593dff4216da2',
    'SendPBAA.sendPBFromStore: wso-ref <- sendPB(price)': 'e75f7c9d8fa41083',
    'SendSBAA.receiveSBFromCustomer: wso-ref <- sendSB(selectedBooks)': '3594410bcdaf3e0d',
    'UserAgentWS.receiveLB: wso-ref <- receiveLB(books)': '8001176ee186e490',
    'UserAgentWS.receivePB: wso-ref <- receivePB(prices)': '4bc99f315b23a2ba',
    'UserAgentWSO.payB: ws-ref <- payB()': 'f7067ee3cd74a09d',
    'UserAgentWSO.receiveLB: sendSBAA <- receiveSBFromCustomer(books)': '3594410bcdaf3e0d',
    'UserAgentWSO.receivePB: payBAA <- payBFromCustomer()': 'b33ab20234488d40',
    'UserAgentWSO.requestLB: ws-ref <- requestLB()': 'e3b70603114aa940',
    'UserAgentWSO.sendSB: ws-ref <- sendSB(selectedBooks)': '9ad9ceda73a0821e',
}


@pytest.fixture(scope="module")
def benchmark_mutant_texts(corpus_text):
    return corpus_mutants(corpus_text)


@pytest.mark.parametrize(
    "mutant", sorted(BENCHMARK_MUTANTS), ids=lambda key: key.partition(":")[0]
)
def test_every_benchmark_mutant_witness_replays_on_its_failing_side(
    mutant, benchmark_mutant_texts
):
    """Each witness ends with the first missing label, and its emits and
    consumes, built where their messages cross, replay on the side that
    lacks that label."""
    pair, kind, missing, _states = BENCHMARK_MUTANTS[mutant]
    program = Program.parse(benchmark_mutant_texts[mutant])
    sides = check_pair(program, *pair)
    verdict = composable(*sides)
    assert verdict.kind == kind == "Incompatible"
    assert verdict.missing == missing
    side, _colon, label = verdict.missing[0].partition(":")
    assert verdict.witness[-1].key() == tuple(label.rstrip(")").split("("))
    assert admits_sequence(sides[side == "right"], verdict.witness)
    text = "\n".join(verdict.witness.labels())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == MUTANT_WITNESS_SHA256[mutant]


# mutant -> Verdict.explored of its check; perfbench/expected.py holds
# counts from before the one-copy solo quotient
MUTANT_EXPLORED = {
    'BookStoreWS.requestLB: wso-ref <- requestLB()': 1_749,
    'BookStoreWS.sendSB: wso-ref <- sendSB(selectedBooks)': 1_749,
    'BookStoreWSO.requestLB: sendLBAA <- sendLBFromStore(books)': 3_089,
    'BookStoreWSO.sendLB: ws-ref <- receiveLB(books)': 5_076,
    'BookStoreWSO.sendPB: ws-ref <- receivePB(prices)': 5_076,
    'BookStoreWSO.sendSB: sendPBAA <- sendPBFromStore()': 3_205,
    'PayBAA.payBFromCustomer: wso-ref <- payB()': 1_864,
    'SendLBAA.sendLBFromStore: wso-ref <- sendLB(books)': 3_385,
    'SendPBAA.sendPBFromStore: wso-ref <- sendPB(price)': 3_385,
    'SendSBAA.receiveSBFromCustomer: wso-ref <- sendSB(selectedBooks)': 1_852,
    'UserAgentWS.receiveLB: wso-ref <- receiveLB(books)': 800,
    'UserAgentWS.receivePB: wso-ref <- receivePB(prices)': 824,
    'UserAgentWSO.payB: ws-ref <- payB()': 4_244,
    'UserAgentWSO.receiveLB: sendSBAA <- receiveSBFromCustomer(books)': 1_672,
    'UserAgentWSO.receivePB: payBAA <- payBFromCustomer()': 1_720,
    'UserAgentWSO.requestLB: ws-ref <- requestLB()': 4_244,
    'UserAgentWSO.sendSB: ws-ref <- sendSB(selectedBooks)': 4_244,
}


@pytest.mark.parametrize(
    "case", [*CORPUS_STATES, *sorted(BENCHMARK_MUTANTS)],
    ids=lambda case: " ".join(case) if isinstance(case, tuple) else case.partition(":")[0],
)
def test_benchmark_checks_explore_pinned_state_counts(case, program, benchmark_mutant_texts):
    """A change that only speeds a check up leaves its work alone: every
    check-corpus and check-mutants case explores the states pinned here."""
    if case in CORPUS_STATES:
        checked, pair, want = program, case, CORPUS_PAIRS[case]
    else:
        checked = Program.parse(benchmark_mutant_texts[case])
        pair, want = BENCHMARK_MUTANTS[case][0], MUTANT_EXPLORED[case]
    assert composable(*check_pair(checked, *pair)).explored == want


def _reference_edges(pc, config, env_left, *, free_peer=True, reduced=True):
    """A side's moves from a built configuration, from the rules alone:
    ((step, ejected message or None, next configuration, next env_left),
    ...), and whether they are one ample move.  The move tables' rows are
    compared against it."""
    insts = engine.enabled_rules(pc.program, config)
    ample = interaction._ample(pc, config.top, insts) if reduced else None
    moves = []
    for inst in insts if ample is None else (ample,):
        alloc = engine.allocator_for(config) if inst.rule_id in engine._MINTS else None
        nxt = engine.apply_instance(pc.program, config, inst, alloc)[0]
        am = inst.subject if inst.rule_id == "Out" else None
        step = silent(pc.boundary) if am is None else interaction._ejection(pc, am)
        moves.append((step, am, nxt, env_left))
    if ample is not None:
        return moves, True
    for k in sorted(env_left):
        nxt = rules.boundary_in(config, pc.env_feeds[k])
        moves.append((silent(pc.boundary), None, nxt, env_left - {k}))
    for feed in pc.peer_feeds if free_peer else ():
        step = interaction._inject(pc, config.top.apps, feed)
        if step is not None:
            moves.append((step, None, rules.boundary_in(config, feed), env_left))
    return moves, False


def _consumes(pc, config, env_left):
    moves, _ample = _reference_edges(pc, config, env_left, reduced=False)
    return [(step, nxt) for step, _am, nxt, _env in moves if step.shape == "consume-2"]


def test_a_peer_call_is_injected_only_while_no_copy_is_pending(mini_program):
    """Solo and product phases inject a peer call under one rule: not
    while a call of the same method still waits at the receiver."""
    sides = check_pair(mini_program, "MiniWSO", "MiniWS", "wso-ws")
    for pc, method in zip(sides, ("ping", "pong")):
        config, env_left = pc.config, frozenset(range(len(pc.env_feeds)))
        consumes = _consumes(pc, config, env_left)
        assert [step.key() for step, _nxt in consumes] == [("consume-2", method)]
        [(step, after)] = consumes
        assert _consumes(pc, after, env_left) == []

        table = interaction._MoveTable(pc)
        call = (canon_value(step.payload), step.payload)
        bag = (call, call)
        offered = interaction._consume_edges(table, table.start(), bag)
        assert [(s.key(), rest) for s, rest, _j in offered] == [(("consume-2", method), (call,))]
        arrived = offered[0][2]
        assert table.rows[arrived].config.canon() == after.canon()
        assert interaction._consume_edges(table, arrived, bag) == []


def _table_moves(table, i):
    """A row's moves as the move table holds them, in printable terms."""
    row = table.rows[i]
    return row.ample, [
        (step.label(), sent, table.rows[j].config.canon(), table.rows[j].env_left)
        for step, sent, j in row.moves
    ]


def _fresh_moves(table, i):
    """The same row's moves computed anew from its built configuration."""
    pc, row = table.pc, table.rows[i]
    moves, ample = _reference_edges(pc, row.config, row.env_left, free_peer=False,
                                    reduced=table.reduced)
    return ample, [
        (step.label(),
         (canon_value(am.value), am.value) if am is not None and am.dest == pc.gate else None,
         nxt.canon(), env2)
        for step, am, nxt, env2 in moves
    ]


def _fresh_arrival(table, i, text):
    """A peer call arriving at the row, computed anew."""
    pc, config = table.pc, table.rows[i].config
    call = AppMessage(dest=pc.anchor, src=pc.gate, value=table.calls[text][1].value)
    step = interaction._inject(pc, config.top.apps, call)
    return None if step is None else (step.label(), rules.boundary_in(config, call).canon())


@pytest.mark.parametrize("case", ["dropped sendPB", "mini", "ws-ws requestLB"])
def test_move_table_matches_fresh_moves(
    case, monkeypatch, mutant_program, mini_program, request_lb_mutant_program
):
    """Every move-table entry the solo search filled and the product and
    the witness read is what its state, built from the row, computes
    anew with `_reference_edges`; and no side state's moves are computed
    twice in one check."""
    program, pair = {
        "dropped sendPB": (mutant_program, ("BookStoreWSO", "BookStoreWS", "wso-ws")),
        "mini": (mini_program, ("MiniWSO", "MiniWS", "wso-ws")),
        "ws-ws requestLB": (request_lb_mutant_program, ("UserAgentWS", "BookStoreWS", "ws-ws")),
    }[case]
    ample, solo_labels, product_edges = (
        interaction._ample, interaction._solo_labels, interaction._product_edges)
    computed = []  # one side per computation of a row's own moves
    after_solo = {}  # table -> rows whose moves the solo search computed
    expanded = []  # (table A, table M, product state) per product expansion

    def counting(pc, top, insts):
        computed.append(pc.behavior)  # once per expanded row
        return ample(pc, top, insts)

    def solo(pc, depth, table, **kw):
        got = solo_labels(pc, depth, table, **kw)
        after_solo[table] = {i for i, row in enumerate(table.rows) if row.moves is not None}
        return got

    def recording(table_a, table_m, state):
        expanded.append((table_a, table_m, state))
        return product_edges(table_a, table_m, state)

    monkeypatch.setattr(interaction, "_ample", counting)
    monkeypatch.setattr(interaction, "_solo_labels", solo)
    monkeypatch.setattr(interaction, "_product_edges", recording)
    verdict = compatible(*check_pair(program, *pair))
    monkeypatch.undo()
    assert verdict.kind == ("Composable" if case == "mini" else "Incompatible")
    filled = [(table, i) for table in after_solo
              for i, row in enumerate(table.rows) if row.moves is not None]
    assert len(computed) == len(filled)
    states = {(table, table.rows[i].config.top.key(), table.rows[i].env_left)
              for table, i in filled}
    assert len(states) == len(filled)

    read = set()  # (table, row) whose moves the product or the witness read
    arrivals = set()  # (table, row, call text) it drew from a bag
    for table_a, table_m, (a, m, bag_am, bag_ma) in expanded:
        read.add((table_a, a))
        if not table_a.rows[a].ample:
            read.add((table_m, m))
            if not table_m.rows[m].ample:
                arrivals |= {(table_a, a, text) for text, _v in bag_ma}
                arrivals |= {(table_m, m, text) for text, _v in bag_am}
    solo_filled = {(table, i) for table, rows in after_solo.items() for i in rows}
    assert read & solo_filled
    for table, i in read | solo_filled:
        assert _table_moves(table, i) == _fresh_moves(table, i)
    assert arrivals
    for table, i, text in arrivals:
        _check_arrival(table, i, text)


def _check_arrival(table, i, text):
    """The row's held arrival of this peer call is the one computed anew."""
    held = table.rows[i].arrivals[text]
    if held is not None:
        step, j = held
        held = (step.label(), table.rows[j].config.canon())
    assert held == _fresh_arrival(table, i, text)


# The orchestration sends its interface service the address of its
# hidden activity, then a second call: ejecting the first publishes the
# activity, and the two ejections can happen in either order.
PUBLISH_SOURCE = """
AA HelperAA {
    WSO wso-ref

    init(WSO wso) {
        wso-ref := wso
    }
}

WSO PublishWSO {
    AA helper
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
        helper := new HelperAA(self)
    }

    ping() if true {
        ws-ref <- pong(helper)
        ws-ref <- done()
    }
}

WS PublishWS {
    WSO wso-ref

    init() {
        wso-ref := new PublishWSO(self)
    }

    setPartner(WS ws) if true {
        other-local-computations
    }

    ping() if true {
        wso-ref <- ping()
    }

    pong(AA a) if true {
        other-local-computations
    }

    done() if true {
        other-local-computations
    }
}
"""


def _watch_successors(monkeypatch):
    """Check every successor a move table gives, replayed from a
    section's transition or landed after applying the rule, against the
    rule applied afresh to the row's state, and record each successor as
    (table, row, instance, next row, replayed)."""
    apply, successor = interaction.next_configuration, interaction._MoveTable.successor
    applied = []
    records = []

    def counting(*args):
        applied.append(args[2])
        return apply(*args)

    def checked(table, i, inst):
        before = len(applied)
        j = successor(table, i, inst)
        config = table.rows[i].config
        fresh = engine.apply_instance(
            table.pc.program, config, inst, engine.allocator_for(config))[0]
        got = table.rows[j].config
        assert got.top.key() == fresh.top.key()
        assert got.canon() == fresh.canon()
        assert members(got.top) == members(fresh.top)
        records.append((table, i, inst, j, len(applied) == before))
        return j

    monkeypatch.setattr(interaction, "next_configuration", counting)
    monkeypatch.setattr(interaction._MoveTable, "successor", checked)
    return records


def test_cached_successors_match_fresh_rule_applications(
    monkeypatch, program, mutant_program, mini_program
):
    """Every successor a check replays from a section's transition is the
    one the rule builds afresh (checked by `_watch_successors`); every
    check replays some, and deliveries and ejections that publish names
    replay too."""
    records = _watch_successors(monkeypatch)
    replayed = set()
    for prog, pair, boundary in [
        (mini_program, ("MiniWSO", "MiniWS"), "wso-ws"),
        (mutant_program, ("BookStoreWSO", "BookStoreWS"), "wso-ws"),
        (program, ("UserAgentWS", "BookStoreWS"), "ws-ws"),
        (Program.parse(PUBLISH_SOURCE), ("PublishWSO", "PublishWS"), "wso-ws"),
    ]:
        composable(*check_pair(prog, *pair, boundary))
        again = [(table, i, inst, j) for table, i, inst, j, r in records if r]
        assert again, pair
        for table, i, inst, j in again:
            publishes = table.rows[j].restriction != table.rows[i].restriction
            replayed.add(inst.rule_id + (" publishing" if publishes else ""))
        del records[:]
    assert {"ReadyDeliver", "Out publishing"} <= replayed, replayed


def test_cached_enabled_rules_match_fresh_enumeration(
    monkeypatch, program, mutant_program, mini_program
):
    """At every row a check's move tables expand, the instances read from
    its section are the ones a fresh enumeration finds: the same
    subjects, in the same order, with one instance per distinct pending
    message."""
    instances = interaction._MoveTable.instances
    seen = {"states": 0, "rules": set()}

    def table_checked(table, i):
        got = instances(table, i)
        assert got == engine.enabled_rules(table.pc.program, table.rows[i].config)
        seen["states"] += 1
        seen["rules"].update(inst.rule_id for inst in got)
        return got

    monkeypatch.setattr(interaction._MoveTable, "instances", table_checked)
    for prog, pair, boundary in [
        (program, ("UserAgentWS", "BookStoreWS"), "ws-ws"),
        (program, ("UserAgentWSO", "UserAgentWS"), "wso-ws"),
        (program, ("UserAgentWSO", "BookStoreWSO"), "wso-wso"),
        (mutant_program, ("BookStoreWSO", "BookStoreWS"), "wso-ws"),
        (mini_program, ("MiniWSO", "MiniWS"), "wso-ws"),
    ]:
        composable(*check_pair(prog, *pair, boundary))
    assert seen["states"] > 6000
    assert {"Request", "CreateAA", "Compute", "SendOut", "ReadyDeliver", "Out"} <= seen["rules"]


# The orchestration hands its activity `work`, two `tick` calls and a
# `fin`.  The ticks can pile up while the activity works, and it counts
# them: `done` leaves only after the second tick is delivered.
COUNT_SOURCE = """
WS CountWS {
    WSO wso-ref
    WS ws-ref

    init() {
        wso-ref := new CountWSO(self)
    }

    setPartner(WS ws) if true {
        ws-ref := ws
    }

    done() if true {
        other-local-computations
    }
}

WSO CountWSO {
    AA tickAA
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
        tickAA := new TickAA(self)
        tickAA <- work()
        tickAA <- tick()
        tickAA <- tick()
        tickAA <- fin()
    }

    ack() if true {
        other-local-computations
    }

    done() if true {
        ws-ref <- done()
    }
}

AA TickAA {
    WSO wso-ref
    int n

    init(WSO wso) {
        wso-ref := wso
    }

    work() if true {
        wso-ref <- ack()
        wso-ref <- ack()
    }

    tick() if true {
        n := n + 1
    }

    fin() if n == 2 {
        wso-ref <- done()
    }
}
"""


def test_reduced_solo_search_keeps_equal_pending_copies():
    """The reduced solo search reaches states where two equal `tick` calls
    wait at a ready member, and finds every visible step the unreduced
    semantics finds, `done` included."""
    program = Program.parse(COUNT_SOURCE)
    assert program.validate() == ()
    pc = wso_side(program, "CountWSO")
    table = interaction._MoveTable(pc)
    labels, _states = interaction._solo_labels(pc, 1, table)
    reached = []
    for row in table.rows:
        if row.moves is None:
            continue  # reached, never expanded
        top = row.config.top
        ready = {e.src for e in top.events if e.event is Event.READY}
        texts = [am.canon() for am in top.apps]
        reached.extend(
            am for am in top.apps
            if am.method == "tick" and am.dest in ready and texts.count(am.canon()) == 2
        )
    assert reached
    exact = interaction_semantics(pc, 1)
    assert labels == {step.key() for seq in exact for step in seq if step.visible}
    assert labels == {("emit-2", "done")}


def test_each_transition_is_applied_once(monkeypatch, program, request_lb_mutant_program):
    """Over the corpus checks and the dropped-`requestLB` ws-ws check, a
    move table applies a rule other than a create rule exactly once per
    transition its sections store, and every successor, applied or
    replayed, is the one the rule builds afresh (`_watch_successors`)."""
    apply = interaction.next_configuration
    applied = []

    def counting(*args):
        applied.append(args[2])
        return apply(*args)

    monkeypatch.setattr(interaction, "next_configuration", counting)
    tables = _record_tables(monkeypatch)
    records = _watch_successors(monkeypatch)
    checks = [(program, pair) for pair in CORPUS_PAIRS]
    checks.append((request_lb_mutant_program, ("UserAgentWS", "BookStoreWS", "ws-ws")))
    for prog, pair in checks:
        composable(*check_pair(prog, *pair))
        stored = sum(len(sec.steps) for table in tables for sec in table.sections)
        creates = [inst for inst in applied if inst.rule_id in engine._MINTS]
        assert stored > 0 and records, pair
        assert len(applied) - len(creates) == stored, pair
        del tables[:], applied[:], records[:]


@pytest.mark.parametrize("case", ["publish", "count", "pair", "mini", "dropped sendPB",
                                  "ws-ws requestLB"])
def test_replayed_transitions_match_fresh_rule_applications(
    case, monkeypatch, mutant_program, mini_program, request_lb_mutant_program
):
    """A transition a section learned on one row and replays on another,
    whose pending messages or restriction differ, reaches what the rule
    builds afresh there (checked by `_watch_successors`); the create
    rules are applied on every row and never replayed."""
    program, pair = {
        "publish": (Program.parse(PUBLISH_SOURCE), ("PublishWSO", "PublishWS", "wso-ws")),
        "count": (Program.parse(COUNT_SOURCE), ("CountWSO", "CountWS", "wso-ws")),
        "pair": (Program.parse(PAIR_SOURCE), ("PairWSO", "GateWS", "wso-ws")),
        "mini": (mini_program, ("MiniWSO", "MiniWS", "wso-ws")),
        "dropped sendPB": (mutant_program, ("BookStoreWSO", "BookStoreWS", "wso-ws")),
        "ws-ws requestLB": (request_lb_mutant_program, ("UserAgentWS", "BookStoreWS", "ws-ws")),
    }[case]
    records = _watch_successors(monkeypatch)
    compatible(*check_pair(program, *pair))
    monkeypatch.undo()

    learned = {}  # (table, section id, instance text) -> the row it was applied on first
    differs = {"messages": 0, "restriction": 0}
    creates = []  # (table, section id, instance text) per create applied
    for table, i, inst, _j, replayed in records:
        row = table.rows[i]
        key = (table, row.section.id, inst.key)
        if inst.rule_id in engine._MINTS:
            assert not replayed, inst
            creates.append(key)
        if not replayed:
            learned.setdefault(key, row)
            continue
        first = learned[key]
        differs["messages"] += first.texts != row.texts
        differs["restriction"] += first.rids != row.rids
    assert differs["messages"] > 0, differs
    if case == "publish":
        # ejecting `pong` publishes the helper; steps after it replay
        # what was learned before it
        assert differs["restriction"] > 0, differs
    if case == "pair":
        # each `kick` creates a doer, with another `kick` pending or not
        assert len(creates) > len(set(creates))


def _outbound_copies(config):
    """Pending messages addressed outside the fragment that equal an
    earlier pending one."""
    seen, copies = set(), []
    for am in config.top.apps:
        if am.dest in members(config.top):
            continue
        if am.canon() in seen:
            copies.append(am)
        seen.add(am.canon())
    return copies


def test_one_copy_quotient_keeps_solo_labels(
    monkeypatch, program, mutant_program, mini_program
):
    """Solo labels on the one-copy quotient are the exact solo labels, on
    every corpus side, both sides of the dropped-`sendPB` mutant, the
    counting receiver and both small fixtures; and no state the quotiented
    UserAgentWSO search expands holds two equal outbound messages."""
    pair = Program.parse(PAIR_SOURCE)
    count = Program.parse(COUNT_SOURCE)
    cases = [(program, key) for key in CORPUS_PAIRS] + [
        (mutant_program, ("BookStoreWSO", "BookStoreWS", "wso-ws")),
        (count, ("CountWSO", "CountWS", "wso-ws")),
        (pair, ("PairWSO", "GateWS", "wso-ws")),
        (mini_program, ("MiniWSO", "MiniWS", "wso-ws")),
    ]
    sides = []
    for prog, (name_a, name_m, boundary) in cases:
        pc_a, pc_m = check_pair(prog, name_a, name_m, boundary)
        depth = default_depth(pc_a, pc_m)
        sides += [(pc_a, depth), (pc_m, depth)]

    tables = [interaction._MoveTable(pc) for pc, _depth in sides]
    quotiented = [interaction._solo_labels(pc, depth, table)
                  for (pc, depth), table in zip(sides, tables)]
    copies = [am for table in tables if table.pc.behavior == "UserAgentWSO"
              for row in table.rows if row.moves is not None
              for am in _outbound_copies(row.config)]
    assert copies == []
    monkeypatch.setattr(interaction, "_one_copy", lambda apps, texts, mem: (apps, texts))
    exact = [interaction._solo_labels(pc, depth, interaction._MoveTable(pc))
             for pc, depth in sides]
    for (pc, _depth), (labels, states), (want, exact_states) in zip(sides, quotiented, exact):
        assert labels == want, pc.behavior
        assert states <= exact_states, pc.behavior
        # the exact search did hold outbound copies there
        assert pc.behavior != "UserAgentWSO" or states < exact_states


# The orchestration sends its service the same call twice.
TWICE_SOURCE = """
WS TwiceWS {
    WSO wso-ref
    WS ws-ref

    init() {
        wso-ref := new TwiceWSO(self)
    }

    setPartner(WS ws) if true {
        ws-ref := ws
    }

    ping() if true {
        other-local-computations
    }
}

WSO TwiceWSO {
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
        ws-ref <- ping()
        ws-ref <- ping()
    }
}
"""


def test_sequences_count_equal_outbound_copies():
    """The one-copy quotient is the solo phase's alone: the side still
    admits emitting the same call twice, and its semantics contain it."""
    program = Program.parse(TWICE_SOURCE)
    assert program.validate() == ()
    pc = wso_side(program, "TwiceWSO")
    twice = InteractionSequence((emit("ping", Address("TwiceWS", "WS"), pc.anchor),) * 2)
    assert admits_sequence(pc, twice)
    visible = {tuple(step.key() for step in seq if step.visible)
               for seq in interaction_semantics(pc, 2)}
    assert (("emit-2", "ping"),) * 2 in visible


def _reference_semantics(pc, depth, moves):
    """`interaction_semantics` by a plain walk over `_reference_edges`,
    unreduced.  `moves` keeps each state's moves by (key, env_left)."""
    marker = silent(pc.boundary)
    found, seen = {()}, set()
    todo = [(pc.config, frozenset(range(len(pc.env_feeds))), (), False, 0)]
    while todo:
        config, env_left, steps, quiet, visible = todo.pop()
        state = (config.top.key(), env_left)
        if (state, steps, quiet) in seen:
            continue
        seen.add((state, steps, quiet))
        if state not in moves:
            moves[state] = _reference_edges(pc, config, env_left, reduced=False)[0]
        for step, _am, nxt, env2 in moves[state]:
            if not step.visible:
                todo.append((nxt, env2, steps, True, visible))
            elif visible < depth:
                steps2 = steps + ((marker,) if quiet else ()) + (step,)
                found.add(steps2)
                todo.append((nxt, env2, steps2, False, visible + 1))
    return frozenset(InteractionSequence(s) for s in found)


@pytest.mark.parametrize("case, depths", [
    ("PairWSO", (2, 3)), ("MiniWSO", (2, 3, 4, 5, 6)), ("CountWSO", (1, 2, 3)),
    ("CountWS", (2, 3)), ("PublishWSO", (2, 3)), ("PublishWS", (2, 3)),
])
def test_table_searches_match_a_reference_search(case, depths, monkeypatch, mini_program):
    """`interaction_semantics`, on an unreduced move table, finds the
    sequences a plain search over `_reference_edges` finds; `admits_sequence`,
    on a reduced one, admits their visible steps and refuses every other
    one-step extension of them within the depth; and every row either
    table filled is its state's moves computed anew."""
    pc = {
        "PairWSO": lambda: wso_side(Program.parse(PAIR_SOURCE), "PairWSO", ws_name="GateWS"),
        "MiniWSO": lambda: wso_side(mini_program, "MiniWSO", ws_name="MiniWS"),
        "CountWSO": lambda: wso_side(Program.parse(COUNT_SOURCE), "CountWSO"),
        "CountWS": lambda: ws_side(Program.parse(COUNT_SOURCE), "CountWS", facing="wso"),
        "PublishWSO": lambda: wso_side(Program.parse(PUBLISH_SOURCE), "PublishWSO"),
        "PublishWS": lambda: ws_side(Program.parse(PUBLISH_SOURCE), "PublishWS", facing="wso"),
    }[case]()
    tables = _record_tables(monkeypatch)
    moves = {}
    for depth in depths:
        want = _reference_semantics(pc, depth, moves)
        assert interaction_semantics(pc, depth) == want
        keys = {tuple(step.key() for step in seq if step.visible) for seq in want}
        alphabet = {key for seq in keys for key in seq}
        probes = keys | {seq + (key,) for seq in keys if len(seq) < depth for key in alphabet}
        for seq in probes:
            steps = tuple(InteractionStep(boundary=pc.boundary, shape=shape, outer=pc.peer,
                                          inner=pc.anchor, payload=call_record(method, ()))
                          for shape, method in seq)
            assert admits_sequence(pc, InteractionSequence(steps)) == (seq in keys), seq
    assert {table.reduced for table in tables} == {False, True}
    for table in tables:
        if table.reduced:
            for i, row in enumerate(table.rows):
                if row.moves is not None:
                    assert _table_moves(table, i) == _fresh_moves(table, i)
                for text in row.arrivals or ():
                    _check_arrival(table, i, text)
            continue
        # an unreduced row's moves and arrivals are the reference walk's
        edges = {i: list(interaction._edges(table, i, True))
                 for i, row in enumerate(table.rows) if row.moves is not None}
        states = [(row.config.top.key(), row.env_left) for row in table.rows]
        for i, got in edges.items():
            assert [(step, states[j]) for step, j in got] == [
                (step, (nxt.top.key(), env2)) for step, _am, nxt, env2 in moves[states[i]]]


def _record_tables(monkeypatch):
    """The move tables made from here on, in order."""
    tables = []
    init = interaction._MoveTable.__init__

    def recording(table, pc, **kw):
        init(table, pc, **kw)
        tables.append(table)

    monkeypatch.setattr(interaction._MoveTable, "__init__", recording)
    return tables


def test_state_keys_agree_with_canon_text(monkeypatch, program):
    """Over every row a ws-ws check keys, solo and product, two rows share
    a key exactly when the configurations built from them share their
    text, and a built configuration's key is the one its terms give."""
    tables = _record_tables(monkeypatch)
    composable(*check_pair(program, "UserAgentWS", "BookStoreWS", "ws-ws"))
    seen = set()
    for n, table in enumerate(tables):
        for (section, texts, rids, _env_left), i in table.ids.items():
            top = table.rows[i].config.top
            assert top.key() == Fragment(top.actors, top.events, top.apps, top.restriction).key()
            seen.add(((n, section, texts, rids), (n, top.canon())))
    assert len(seen) > 1000
    assert len({k for k, _c in seen}) == len({c for _k, c in seen}) == len(seen)


def test_shared_members_preempt_compatibility(mini_program):
    pc_a = wso_side(mini_program, "MiniWSO", ws_name="MiniWS")
    pc_b = wso_side(mini_program, "MiniWSO", far_wso="MiniDriverWSO")
    verdict = composable(pc_a, pc_b)
    assert verdict.kind == "MemberOverlap"
    assert verdict.overlap == (Address("MiniWSO", "WSO"),)


def test_state_budget_is_enforced(program, request_lb_mutant_program):
    pc = wso_side(program, "UserAgentWSO", ws_name="UserAgentWS")
    with pytest.raises(SilentDivergence) as info:
        interaction_semantics(pc, 4, max_states=50)
    message = str(info.value)
    assert "semantics" in message
    assert "more than 50 states" in message
    assert "depth 4" in message

    # both solo phases fit in the budget; the product does not
    pc_a, pc_m = check_pair(request_lb_mutant_program, "UserAgentWS", "BookStoreWS", "ws-ws")
    with pytest.raises(SilentDivergence) as info:
        composable(pc_a, pc_m, max_states=1000)
    assert str(info.value) == "product: more than 1000 states within depth 24"


def steps_for(boundary):
    return st.builds(
        InteractionStep,
        boundary=st.just(boundary),
        shape=st.sampled_from(
            ["silent", "emit-1", "emit-2", "consume-1", "consume-2"]
        ),
        outer=st.sampled_from([None, Address("o1", "WS"), Address("o2", "WSO")]),
        inner=st.sampled_from([None, Address("i1", "WS"), Address("i2", "WSO")]),
        payload=st.sampled_from(
            [None, 3, call_record("m", ()), call_record("n", (1, "x"))]
        ),
    )


sequences = st.sampled_from(BOUNDARIES).flatmap(
    lambda b: st.lists(steps_for(b), max_size=8).map(
        lambda ss: InteractionSequence(tuple(ss))
    )
)


@given(sequences)
@settings(max_examples=200)
def test_dual_is_an_involution(seq):
    assert dual(dual(seq)) == seq
