import pytest

from abwscl import parse_program
from abwscl.parser import tokenize
from abwscl.errors import ParseError
from abwscl import syntax as ast
from abwscl.syntax import pp_program


def test_corpus_parses_to_fifteen_definitions(corpus_text):
    defs = parse_program(corpus_text)
    kinds = {}
    for d in defs:
        kinds.setdefault(d.kind, []).append(d.name)
    assert len(kinds["AA"]) == 10
    assert sorted(kinds["WSO"]) == ["BookStoreWSO", "UserAgentWSO"]
    assert sorted(kinds["WS"]) == ["BookStoreWS", "UserAgentWS"]
    assert kinds["WSC"] == ["BuyingBookWSC"]


def test_orchestration_shape(program):
    d = program.definition("UserAgentWSO")
    assert d.kind == "WSO"
    assert [l.kind for l in d.links].count("AA") == 5
    assert d.init is not None
    assert [m.name for m in d.methods] == [
        "requestLB", "receiveLB", "sendSB", "receivePB", "payB",
    ]
    assert all(m.guard == ast.TRUE for m in d.methods)
    creates = [a for a in d.init.body if isinstance(a, ast.CreateAct)]
    assert [c.behavior for c in creates] == [
        "RequstLBAA", "ReceiveLBAA", "SendSBAA", "ReceivePBAA", "PayBAA",
    ]
    send = next(a for a in d.method("requestLB").body if isinstance(a, ast.SendAct))
    assert (send.target, send.method, send.args) == ("ws-ref", "requestLB", ())


def test_choreography_roles_and_wiring(program):
    d = program.definition("BuyingBookWSC")
    assert d.roles == ("user", "seller")
    creates = [a for a in d.init.body if isinstance(a, ast.CreateAct)]
    assert [(c.behavior, c.role) for c in creates] == [
        ("UserAgentWS", "user"), ("BookStoreWS", "seller"),
    ]
    partners = [a for a in d.init.body if isinstance(a, ast.SetPartnerCall)]
    assert [(p.target, p.arg.ident) for p in partners] == [
        ("ws-ref-1", "ws-ref-2"), ("ws-ref-2", "ws-ref-1"),
    ]


def test_opaque_local_computation_is_kept(program):
    d = program.definition("RequstLBAA")
    body = d.method("requestLBFromCustomer").body
    assert isinstance(body[0], ast.OpaqueLocal)
    assert isinstance(body[1], ast.SendAct)


def test_literals_parse(program):
    d = program.definition("SendPBAA")
    assign = d.method("sendPBFromStore").body[0]
    assert isinstance(assign, ast.Assign)
    assert assign.name == "price"
    assert isinstance(assign.expr, ast.Lit)
    assert assign.expr.value == 30.0


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_program("WSO Broken {\n    init( {\n}\n")
    assert e.value.line == 2
    assert "expected" in str(e.value)


def test_unclosed_block_is_rejected():
    with pytest.raises(ParseError):
        parse_program("AA Stub {\n    init() {\n")


def test_pretty_print_round_trips(corpus_text):
    once = pp_program(parse_program(corpus_text))
    twice = pp_program(parse_program(once))
    assert once == twice


def test_mini_round_trips(mini_program):
    once = pp_program(mini_program.defs)
    twice = pp_program(parse_program(once))
    assert once == twice


def _guard_source(expr):
    return f"AA A {{\n    WSO w\n    m() if {expr} {{\n    }}\n}}\n"


def test_binary_operators_follow_the_precedence_table():
    def grouped(expr):
        (d,) = parse_program(_guard_source(expr))
        return ast.pp_expr(d.methods[0].guard)

    assert grouped("a || b && c == d + e * -f") == "(a || (b && (c == (d + (e * -f)))))"
    assert grouped("a - b - c") == "((a - b) - c)"
    # comparisons do not chain: the second one ends the guard early
    for expr, op, col in (("a < b < c", "<", 18), ("a == b == c", "==", 19)):
        with pytest.raises(ParseError) as e:
            parse_program(_guard_source(expr))
        assert (e.value.line, e.value.col) == (3, col)
        assert f"expected '{{', found '{op}'" in str(e.value)


def test_end_of_file_after_a_trailing_comment_has_its_column():
    with pytest.raises(ParseError) as e:
        parse_program("AA A { // a long trailing comment")
    assert (e.value.line, e.value.col) == (1, 34)


def test_an_escaped_newline_in_a_string_counts_its_line():
    toks = tokenize('AA A {\n  x := "a\\\nb"\n  y\n}')
    assert [(t.text, t.line, t.col) for t in toks[-3:]] == [("y", 4, 3), ("}", 5, 1), ("", 5, 2)]
    string = next(t for t in toks if t.kind == "string")
    assert (string.text, string.line, string.col) == ("a\nb", 2, 8)
