"""Whole-package checks: the bundled composition must run, compose, fail
composition when a send is dropped, agree with independent enumeration
oracles, keep its structural invariants under random scheduling, flag
broken corpora, and export stable documents."""

import hashlib
import random
import sys
import time
import xml.etree.ElementTree as ET
from collections import deque
from pathlib import Path

from abwscl import Program, engine, interaction, rules, wsmap
from abwscl.interaction import InteractionSequence, InteractionStep, dual
from abwscl.program import initial_configuration
from abwscl.terms import (
    Address,
    AddressAllocator,
    AppMessage,
    BLOCK,
    Event,
    blocked,
    call_record,
    canon_value,
    members,
    receptionists,
    rename,
)

# the benchmark's reference digests, read from its own module
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import expected
finally:
    sys.path.remove(PERFBENCH)

GOLDEN_EXCHANGES = ["requestLB", "receiveLB", "sendSB", "receivePB", "payB"]

# pair -> states a check explores: a reference every optimisation keeps
CORPUS_PAIRS = {
    ("UserAgentWSO", "UserAgentWS", "wso-ws"): 1_232,
    ("BookStoreWSO", "BookStoreWS", "wso-ws"): 2_165,
    ("UserAgentWS", "BookStoreWS", "ws-ws"): 2_035,
    ("UserAgentWSO", "BookStoreWSO", "wso-wso"): 1_360,
}


def test_bundled_composition_runs_to_quiescence(program):
    alloc = AddressAllocator()
    config = initial_configuration(program, "BuyingBookWSC", alloc)
    started = time.perf_counter()
    trace = engine.run(program, config, max_steps=500, seed=0, alloc=alloc)
    elapsed = time.perf_counter() - started
    assert trace.quiescent
    assert [m.method for m in trace.ws_exchanges()] == GOLDEN_EXCHANGES
    assert elapsed < 1.0


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_reference_trace_and_export_is_byte_identical(program):
    """Each run seed the benchmark knows prints the trace text it
    recorded, and each export renders its recorded document."""
    assert len(expected.TRACE_SHA256) == 64 and len(expected.EXPORT_SHA256) == 3
    for seed, digest in sorted(expected.TRACE_SHA256.items()):
        alloc = AddressAllocator()
        config = initial_configuration(program, expected.CHOREOGRAPHY, alloc)
        trace = engine.run(program, config, max_steps=expected.MAX_STEPS, seed=seed, alloc=alloc)
        assert trace.quiescent, seed
        assert _sha256(trace.text()) == digest, seed
    for (target, name), digest in expected.EXPORT_SHA256.items():
        assert _sha256(wsmap.export(program, target, name).to_text()) == digest, (target, name)


def test_corpus_pairs_compose_within_budget(program):
    for (name_a, name_m, boundary), explored in CORPUS_PAIRS.items():
        pc_a, pc_m = interaction.check_pair(program, name_a, name_m, boundary)
        started = time.perf_counter()
        verdict = interaction.composable(pc_a, pc_m)
        elapsed = time.perf_counter() - started
        assert verdict.kind == "Composable", (name_a, name_m, verdict)
        assert verdict.explored == explored, (name_a, name_m, verdict.explored)
        assert elapsed < 5.0, (name_a, name_m, elapsed)


# -- an independent compatibility oracle ---------------------------------------
#
# Plain breadth-first search, no reduction, no priorities: every enabled
# instance fans out, every feed injects.  A side alone tells us which
# boundary labels it can reach; the two-sided product tells us which of
# them the pair actually realizes.  The only cuts are sound for label
# collection: nothing below the depth bound can add a label, and a free
# peer call is not re-injected while an identical one is still pending.

ORACLE_CAP = 2_000_000


def _allocator(config):
    """The oracle's own allocator for a start configuration: past every
    counter its actors already use.  The oracle threads it along each
    path rather than calling `engine.allocator_for`, so it shares no
    derivation with the search it checks."""
    return AddressAllocator().advance_past(a.addr.id for a in config.top.actors)


def _side_moves(pc, config, env_left, alloc, *, peer_free, memo):
    """A side's moves, computed once per (side, configuration text, feeds
    left, peer mode) in one verdict.  Exact because created actors are
    never removed and keep their `label#n` ids, so the configuration
    fixes the allocator, the moves' only other input."""
    key = (pc, config.canon(), env_left, peer_free)
    if key in memo:
        return memo[key]
    moves = memo[key] = []
    for inst in engine.enabled_rules(pc.program, config):
        a2 = alloc.clone()
        nxt, _produced, artifacts = engine.apply_instance(pc.program, config, inst, a2)
        vis, am = None, None
        if inst.rule_id == "Out":
            am = artifacts[0]
            if pc.boundary in ("wso-ws", "wso-wso") or am.dest == pc.gate:
                vis = ("emit-2", am.method)
        moves.append((vis, am, nxt, env_left, a2))
    for i in env_left:
        nxt = rules.boundary_in(config, pc.env_feeds[i])
        moves.append((None, None, nxt, env_left - {i}, alloc.clone()))
    if peer_free:
        for feed in pc.peer_feeds:
            if any(
                am.dest == feed.dest and am.method == feed.method
                for am in config.top.apps
            ):
                continue
            nxt = rules.boundary_in(config, feed)
            moves.append(
                (("consume-2", feed.method), None, nxt, env_left, alloc.clone())
            )
    return moves


def _oracle_solo(pc, depth, memo):
    labels = set()
    seen = set()
    queue = deque([(pc.config, frozenset(range(len(pc.env_feeds))), _allocator(pc.config), 0)])
    visits = 0
    while queue:
        config, env_left, alloc, used = queue.popleft()
        key = (config.canon(), env_left, used)
        if key in seen:
            continue
        seen.add(key)
        if used >= depth:
            continue
        visits += 1
        assert visits <= ORACLE_CAP
        for vis, _am, nxt, env2, a2 in _side_moves(
            pc, config, env_left, alloc, peer_free=True, memo=memo
        ):
            if vis is not None:
                labels.add(vis)
                queue.append((nxt, env2, a2, used + 1))
            else:
                queue.append((nxt, env2, a2, used))
    return labels


def _bag_key(bag):
    return tuple(sorted(canon_value(c) for c in bag))


def _oracle_product(pc_a, pc_m, depth, memo):
    got_a, got_m = set(), set()
    start = (
        pc_a.config, pc_m.config,
        frozenset(range(len(pc_a.env_feeds))), frozenset(range(len(pc_m.env_feeds))),
        (), (), _allocator(pc_a.config), _allocator(pc_m.config),
    )
    seen = set()
    queue = deque([(start, 0)])
    visits = 0
    while queue:
        state, used = queue.popleft()
        cfg_a, cfg_m, env_a, env_m, bag_am, bag_ma, al_a, al_m = state
        key = (
            cfg_a.canon(), cfg_m.canon(), env_a, env_m,
            _bag_key(bag_am), _bag_key(bag_ma), used,
        )
        if key in seen:
            continue
        seen.add(key)
        if used >= depth:
            continue
        visits += 1
        assert visits <= ORACLE_CAP
        nexts = []
        for vis, am, nxt, env2, a2 in _side_moves(
            pc_a, cfg_a, env_a, al_a, peer_free=False, memo=memo
        ):
            b2 = bag_am + (am.value,) if (am is not None and am.dest == pc_a.gate) else bag_am
            nexts.append(("A", vis, (nxt, cfg_m, env2, env_m, b2, bag_ma, a2, al_m)))
        for vis, am, nxt, env2, a2 in _side_moves(
            pc_m, cfg_m, env_m, al_m, peer_free=False, memo=memo
        ):
            b2 = bag_ma + (am.value,) if (am is not None and am.dest == pc_m.gate) else bag_ma
            nexts.append(("M", vis, (cfg_a, nxt, env_a, env2, bag_am, b2, al_a, a2)))
        for i, call in enumerate(bag_ma):
            feed = AppMessage(dest=pc_a.anchor, src=pc_a.gate, value=call)
            nxt = rules.boundary_in(cfg_a, feed)
            nexts.append((
                "A", ("consume-2", feed.method),
                (nxt, cfg_m, env_a, env_m, bag_am, bag_ma[:i] + bag_ma[i + 1:],
                 al_a.clone(), al_m),
            ))
        for i, call in enumerate(bag_am):
            feed = AppMessage(dest=pc_m.anchor, src=pc_m.gate, value=call)
            nxt = rules.boundary_in(cfg_m, feed)
            nexts.append((
                "M", ("consume-2", feed.method),
                (cfg_a, nxt, env_a, env_m, bag_am[:i] + bag_am[i + 1:], bag_ma,
                 al_a, al_m.clone()),
            ))
        for tag, vis, nxt_state in nexts:
            if vis is not None:
                (got_a if tag == "A" else got_m).add(vis)
                queue.append((nxt_state, used + 1))
            else:
                queue.append((nxt_state, used))
    return got_a, got_m


def _oracle_verdict(program, name_a, name_m, boundary, solo_depth, product_depth):
    pc_a, pc_m = interaction.check_pair(program, name_a, name_m, boundary)
    memo = {}
    req_a = _oracle_solo(pc_a, solo_depth, memo)
    req_m = _oracle_solo(pc_m, solo_depth, memo)
    got_a, got_m = _oracle_product(pc_a, pc_m, product_depth, memo)
    missing = sorted(
        [("A",) + k for k in req_a - got_a] + [("M",) + k for k in req_m - got_m]
    )
    return ("Composable" if not missing else "Incompatible"), missing, req_m


def test_dropped_send_breaks_the_bookstore_pair(program, mutant_program, mini_program):
    pc_a, pc_m = interaction.check_pair(
        mutant_program, "BookStoreWSO", "BookStoreWS", "wso-ws"
    )
    verdict = interaction.composable(pc_a, pc_m)
    assert verdict.kind == "Incompatible"
    assert verdict.missing == ("right:consume-2(receivePB)",)
    assert verdict.witness is not None
    assert verdict.witness[-1].key() == ("consume-2", "receivePB")
    assert verdict.explored == 3_385
    assert verdict.witness.labels() == (
        "ws-wso-emit-2(BookStoreWSO,BookStoreWS,payB)",
        "ws-wso-emit-2(BookStoreWSO,BookStoreWS,requestLB)",
        "ws-wso-consume-2(BookStoreWSO,BookStoreWS,receiveLB)",
        "ws-wso-emit-2(BookStoreWSO,BookStoreWS,sendSB)",
        "ws-wso-consume-2(BookStoreWSO,BookStoreWS,receivePB)",
    )
    assert interaction.admits_sequence(pc_m, verdict.witness)

    # the oracle must agree, and for the right reason: the interface
    # still expects the price message, the orchestration never sends it
    kind, missing, req_m = _oracle_verdict(
        mutant_program, "BookStoreWSO", "BookStoreWS", "wso-ws", 2, 4
    )
    assert kind == "Incompatible"
    assert missing == [("M", "consume-2", "receivePB")]
    assert ("consume-2", "receivePB") in req_m

    # and it must not reject composition wholesale
    kind, missing, _req = _oracle_verdict(
        program, "BookStoreWSO", "BookStoreWS", "wso-ws", 2, 4
    )
    assert (kind, missing) == ("Composable", [])
    kind, missing, _req = _oracle_verdict(
        mini_program, "MiniWSO", "MiniWS", "wso-ws", 2, 4
    )
    assert (kind, missing) == ("Composable", [])


# -- an independent reachability oracle ----------------------------------------

PAIR_SOURCE = """
WSO PairWSO {
    AA d-ref
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
    }

    kick() if true {
        d-ref := new DoerAA(self)
        d-ref <- act()
    }

    reply() if true {
        ws-ref <- done()
    }
}

AA DoerAA {
    WSO wso-ref

    init(WSO w) {
        wso-ref := w
    }

    act() if true {
        wso-ref <- reply()
    }
}

WS GateWS {
    WSO wso-ref
    WS ws-ref

    init() {
        wso-ref := new PairWSO(self)
    }

    setPartner(WS ws) if true {
        ws-ref := ws
    }

    push() if true {
        wso-ref <- kick()
        wso-ref <- reply()
    }
}
"""


def _enumerate_boundary_traces(program, config, depth, feeds):
    """Level-by-level unfolding with no state sharing at all; each path
    threads its own allocator, as a run does."""
    configs = {config.canon()}
    labels = {()}
    level = [(config, tuple(feeds), (), _allocator(config))]
    for _ in range(depth):
        grown = []
        for cfg, fds, seq, alloc in level:
            for inst in engine.enabled_rules(program, cfg, feeds=fds):
                alloc2 = alloc.clone()
                cfg2, _produced, artifacts = engine.apply_instance(
                    program, cfg, inst, alloc2
                )
                fds2, seq2 = fds, seq
                if inst.rule_id == "In":
                    kept = list(fds)
                    for i, f in enumerate(kept):
                        if f.canon() == inst.payload:
                            del kept[i]
                            break
                    fds2 = tuple(kept)
                if inst.rule_id in ("Out", "In"):
                    for art in artifacts:
                        if isinstance(art, AppMessage):
                            seq2 = seq2 + (
                                ("out" if inst.rule_id == "Out" else "in",
                                 art.method or "?"),
                            )
                configs.add(cfg2.canon())
                labels.add(seq2)
                grown.append((cfg2, fds2, seq2, alloc2))
        level = grown
    return frozenset(configs), frozenset(labels)


def test_exploration_matches_naive_enumeration(mini_program):
    pair = Program.parse(PAIR_SOURCE)
    side_a = interaction.wso_side(mini_program, "MiniWSO", ws_name="MiniWS")
    side_b = interaction.ws_side(mini_program, "MiniWS", facing="wso")
    side_c = interaction.wso_side(pair, "PairWSO", ws_name="GateWS")
    fixtures = [
        (mini_program, side_a.config, side_a.peer_feeds),
        (mini_program, side_b.config, side_b.peer_feeds + side_b.env_feeds),
        # every feed twice: copies of one feed text
        (mini_program, side_b.config, (side_b.peer_feeds + side_b.env_feeds) * 2),
        (pair, side_c.config, side_c.peer_feeds),
    ]
    for program, config, feeds in fixtures:
        got_configs, got_labels = engine.explore(program, config, 8, feeds=feeds)
        want_configs, want_labels = _enumerate_boundary_traces(
            program, config, 8, feeds
        )
        assert got_configs == want_configs
        assert got_labels == want_labels
        assert len(got_labels) > 1
    # a closed choreography, whose paths create actors at several steps
    whole = initial_configuration(mini_program, "MiniWSC", AddressAllocator())
    assert engine.explore(mini_program, whole, 8) == _enumerate_boundary_traces(
        mini_program, whole, 8, ()
    )


def test_dual_is_an_involution_on_generated_sequences():
    rng = random.Random(0)
    addresses = [
        Address("Alpha", "WSO"), Address("Beta", "WS"),
        Address("Gamma", "WS"), Address("delta#3", "AA"), None,
    ]
    payloads = [
        None, True, 3, "text", (1, "two"),
        call_record("ask", ()), call_record("tell", (7, False)),
    ]
    shapes = ["emit-1", "consume-1", "emit-2", "consume-2", "silent"]
    events = list(Event)
    checked = 0
    for i in range(10_000):
        boundary = interaction.BOUNDARIES[i % len(interaction.BOUNDARIES)]
        steps = []
        for _ in range(rng.randint(0, 8)):
            shape = rng.choice(shapes)
            steps.append(InteractionStep(
                boundary=boundary,
                shape=shape,
                outer=rng.choice(addresses),
                inner=rng.choice(addresses),
                event=rng.choice(events) if shape.endswith("-1") else None,
                payload=rng.choice(payloads),
            ))
        seq = InteractionSequence(tuple(steps))
        flipped = dual(seq)
        assert len(flipped) == len(seq)
        assert dual(flipped) == seq
        checked += 1
    assert checked == 10_000


CREATE_DELTA = {"CreateAA": 1, "CreateWSO": 1, "CreateWSs": 2}


def _check_structure(program, entry, seed, max_steps):
    alloc = AddressAllocator()
    config = initial_configuration(program, entry, alloc)
    trace = engine.run(program, config, max_steps=max_steps, seed=seed, alloc=alloc)

    assert {(l, e) for l in Event for e in Event if blocked(l, e)} == BLOCK

    ever = {a.addr for a in trace.initial.top.actors}
    prev = trace.initial
    for rec in trace.steps:
        cur = rec.post
        delta = len(cur.top.actors) - len(prev.top.actors)
        assert delta == CREATE_DELTA.get(rec.instance.rule_id, 0), rec.instance
        fresh = {a.addr for a in cur.top.actors} - {a.addr for a in prev.top.actors}
        if rec.instance.rule_id not in CREATE_DELTA:
            assert not fresh
        else:
            assert not fresh & ever
        ever |= fresh
        frag = cur.top
        assert receptionists(frag) <= members(frag)
        if frag.restriction is None:
            assert receptionists(frag) == members(frag)
        prev = cur

    frag = trace.final.top
    mapping = {a: Address("swap-" + a.id, a.kind) for a in members(frag)}
    back = {v: k for k, v in mapping.items()}
    renamed = rename(frag, mapping)
    assert members(renamed) == set(mapping.values())
    assert receptionists(renamed) == {mapping[a] for a in receptionists(frag)}
    assert len(renamed.actors) == len(frag.actors)
    assert rename(renamed, back) == frag


def test_structural_invariants_hold_across_randomized_runs(program, mini_program):
    rng = random.Random(2026)
    for i in range(1000):
        if i % 2:
            prog, entry = program, "BuyingBookWSC"
        else:
            prog, entry = mini_program, "MiniWSC"
        _check_structure(
            prog, entry, seed=rng.randrange(2**31), max_steps=rng.randint(50, 200)
        )


def test_validator_accepts_the_corpus_and_flags_mutants(
    program, mini_program, aa_create_mutant_text, no_setpartner_mutant_text
):
    assert program.validate() == ()
    assert mini_program.validate() == ()
    diags = Program.parse(aa_create_mutant_text).validate()
    assert [d.code for d in diags] == ["AACannotCreate"]
    diags = Program.parse(no_setpartner_mutant_text).validate()
    assert [d.code for d in diags] == ["MissingSetPartner"]


def _local(tag):
    return tag.rsplit("}", 1)[-1]


def _find_all(root, name):
    return [e for e in root.iter() if _local(e.tag) == name]


UA_CHAIN = [
    ("invoke", "opRequestLB"),
    ("receive", "opReceiveLB"),
    ("invoke", "opSendSB"),
    ("receive", "opReceivePB"),
    ("invoke", "opPayB"),
]
BS_CHAIN = [
    ("receive", "opRequestLB"),
    ("invoke", "opReceiveLB"),
    ("receive", "opSendSB"),
    ("invoke", "opReceivePB"),
    ("receive", "opPayB"),
]


def test_exports_are_well_formed_and_reproducible(program):
    targets = [
        ("wsdl", "UserAgentWS"),
        ("wsdl", "BookStoreWS"),
        ("bpel", "UserAgentWSO"),
        ("bpel", "BookStoreWSO"),
        ("cdl", "BuyingBookWSC"),
    ]
    for target, name in targets:
        body = wsmap.export(program, target, name).to_bytes()
        ET.fromstring(body)
        again = wsmap.export(program, target, name).to_bytes()
        assert again == body

    cdl = ET.fromstring(wsmap.export(program, "cdl", "BuyingBookWSC").to_bytes())
    assert len(_find_all(cdl, "interaction")) == 5
    # two roles are defined; the relationship merely refers back to them
    assert len([c for c in cdl if _local(c.tag) == "roleType"]) == 2

    for name, chain in (("UserAgentWSO", UA_CHAIN), ("BookStoreWSO", BS_CHAIN)):
        root = ET.fromstring(wsmap.export(program, "bpel", name).to_bytes())
        seq = _find_all(root, "sequence")[0]
        acts = [(_local(c.tag), c.get("operation")) for c in seq]
        assert acts == chain
        assert len(acts) == len(GOLDEN_EXCHANGES)
