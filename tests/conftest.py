import pytest

from abwscl import Program, corpus_path, engine
from abwscl.terms import AddressAllocator, AppMessage

SEND_PB_BLOCK = """    sendPBFromStore() if true {
        price := 30.0
        other-local-computations
        wso-ref <- sendPB(price)
    }"""

SEND_PB_WITHOUT_SEND = """    sendPBFromStore() if true {
        price := 30.0
        other-local-computations
    }"""


@pytest.fixture(scope="session")
def corpus_text() -> str:
    return corpus_path().read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def program(corpus_text) -> Program:
    return Program.parse(corpus_text)


@pytest.fixture(scope="session")
def mutant_text(corpus_text) -> str:
    """The book store's pricing activity forgets to forward the price."""
    assert SEND_PB_BLOCK in corpus_text
    return corpus_text.replace(SEND_PB_BLOCK, SEND_PB_WITHOUT_SEND)


@pytest.fixture(scope="session")
def mutant_program(mutant_text) -> Program:
    return Program.parse(mutant_text)


REQUEST_LB_BLOCK = """    requestLBFromCustomer() if true {
        other-local-computations
        wso-ref <- requestLB()
    }"""

REQUEST_LB_WITH_CREATE = """    requestLBFromCustomer() if true {
        helper := new ReceiveLBAA(self)
        other-local-computations
        wso-ref <- requestLB()
    }"""

SET_PARTNER_BLOCK = """    setPartner(WS ws) if true {
        ws-ref := ws
        other-local-computations
    }

"""


UA_REQUEST_LB_BLOCK = """    requestLB() if true {
        other-local-computations
        ws-ref <- requestLB()
    }"""

UA_REQUEST_LB_WITHOUT_SEND = """    requestLB() if true {
        other-local-computations
    }"""


@pytest.fixture(scope="session")
def request_lb_mutant_program(corpus_text) -> Program:
    """The user agent's orchestration never forwards the book-list request."""
    # the block also opens UserAgentWS's requestLB; the first is UserAgentWSO's
    assert corpus_text.count(UA_REQUEST_LB_BLOCK) == 2
    assert corpus_text.index(UA_REQUEST_LB_BLOCK) < corpus_text.index("WS UserAgentWS {")
    return Program.parse(corpus_text.replace(UA_REQUEST_LB_BLOCK, UA_REQUEST_LB_WITHOUT_SEND, 1))


@pytest.fixture(scope="session")
def aa_create_mutant_text(corpus_text) -> str:
    """An activity actor tries to create a sibling."""
    assert REQUEST_LB_BLOCK in corpus_text
    return corpus_text.replace(REQUEST_LB_BLOCK, REQUEST_LB_WITH_CREATE)


@pytest.fixture(scope="session")
def no_setpartner_mutant_text(corpus_text) -> str:
    """The user agent's interface service loses its setPartner method."""
    assert corpus_text.count(SET_PARTNER_BLOCK) == 2
    return corpus_text.replace(SET_PARTNER_BLOCK, "", 1)


# A one-call conversation kept small enough to enumerate exhaustively.
MINI_SOURCE = """
WSO MiniWSO {
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
    }

    ping() if true {
        ws-ref <- pong()
    }
}

WS MiniWS {
    WSO wso-ref
    WS ws-ref

    init() {
        wso-ref := new MiniWSO(self)
    }

    setPartner(WS ws) if true {
        ws-ref := ws
    }

    poke() if true {
        wso-ref <- ping()
    }

    pong() if true {
        ws-ref <- pong()
    }
}

WS MiniDriverWS {
    WSO wso-ref
    WS ws-ref

    init() {
        wso-ref := new MiniDriverWSO(self)
    }

    setPartner(WS ws) if true {
        ws-ref := ws
    }

    go() if true {
        ws-ref <- poke()
    }

    pong() if true {
        other-local-computations
    }
}

WSO MiniDriverWSO {
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
    }
}

WSC MiniWSC role caller, role callee {
    WS ws-ref-1
    WS ws-ref-2

    init() {
        ws-ref-1 := new MiniDriverWS() as caller
        ws-ref-2 := new MiniWS() as callee
        ws-ref-1 <- setPartner(ws-ref-2)
        ws-ref-2 <- setPartner(ws-ref-1)
    }
}
"""


@pytest.fixture(scope="session")
def mini_program() -> Program:
    return Program.parse(MINI_SOURCE)


# -- the unreduced enumeration that runs are checked against -------------------


def _allocator(config):
    """The oracle's own allocator for a start configuration: past every
    counter its actors already use.  The oracle threads it along each
    path rather than calling `engine.allocator_for`, so it shares no
    derivation with the search it checks."""
    return AddressAllocator().advance_past(a.addr.id for a in config.top.actors)


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
