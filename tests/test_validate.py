from abwscl import Program, parse_program, validate
from abwscl.validate import Diagnostic
from test_rules import GUARDED_SOURCE


def codes(source: str):
    return [d.code for d in validate(parse_program(source))]


def test_pristine_corpus_is_accepted(program):
    assert program.validate() == ()


def test_mini_corpus_is_accepted(mini_program):
    assert mini_program.validate() == ()


def test_activity_actor_may_not_create(aa_create_mutant_text):
    diags = Program.parse(aa_create_mutant_text).validate()
    assert [d.code for d in diags] == ["AACannotCreate"]
    assert "RequstLBAA.requestLBFromCustomer" in diags[0].message


def test_interface_service_needs_set_partner(no_setpartner_mutant_text):
    diags = Program.parse(no_setpartner_mutant_text).validate()
    assert [d.code for d in diags] == ["MissingSetPartner"]
    assert "UserAgentWS" in diags[0].message


def test_duplicate_definitions():
    src = "AA X { WSO w\n init(WSO o) { w := o } }\n" * 2
    assert "DuplicateBehavior" in codes(src)


def test_duplicate_declared_names():
    src = "WSO W { WS x\n AA x\n int x\n init(WS ws) { x := ws } }"
    diags = validate(parse_program(src))
    assert [(d.code, d.line, d.col) for d in diags] == [
        ("DuplicateName", 2, 2), ("DuplicateName", 3, 2)
    ]
    assert diags[0].message == "W declares 'x' twice"
    # a variable declared before a reference of its name: the reference
    # is the second declaration
    diags = validate(parse_program("WSO V { int y\n WS y\n init() { } }"))
    assert [(d.code, d.line) for d in diags] == [("DuplicateName", 2)]
    # parameters shadow declarations by design
    assert codes("WSO P { WS a\n int n\n init(WS a, int n) { a := a } }") == []


def test_aa_reference_shape():
    assert "AAWsoLink" in codes("AA Lonely { init() { } }")
    assert "AAWsoLink" in codes(
        "AA Greedy { WSO a\n WSO b\n init(WSO o) { a := o } }"
    )


def test_create_checks():
    base = "AA Leaf { WSO w\n init(WSO o) { w := o } }\n"
    assert "UnknownBehavior" in codes(
        "WSO P { AA a\n init() { a := new Ghost(self) } }"
    )
    assert "CreateKindMismatch" in codes(
        base + "WS P { WSO w\n init() { w := new Leaf(self) }\n"
        " setPartner(WS x) if true { } }"
    )
    assert "CreateKindMismatch" in codes(
        base + "WSO P { WS a\n init() { a := new Leaf(self) } }"
    )


def test_choreography_shape():
    assert "WscLinkShape" in codes("WSC C role r1, role r2 { WS a\n init() { } }")
    assert "WscCreatePair" in codes(
        "WS S { WSO w\n init() { }\n setPartner(WS x) if true { } }\n"
        "WSC C role r1, role r2 { WS a\n WS b\n"
        " init() { a := new S() as r1 } }"
    )


def test_set_partner_is_choreography_only():
    assert "SetPartnerOutsideWSC" in codes(
        "WSO P { WS a\n init() { a <- setPartner(a) } }"
    )


def test_name_resolution():
    assert "UnresolvedSendTarget" in codes(
        "WSO P { init() { ghost <- poke() } }"
    )
    assert "UndeclaredName" in codes("WSO P { init() { ghost := 3 } }")


def test_diagnostics_render_with_position(aa_create_mutant_text):
    d = Program.parse(aa_create_mutant_text).validate()[0]
    assert isinstance(d, Diagnostic)
    assert str(d) == f"{d.line}:{d.col}: AACannotCreate: {d.message}"
    assert d.line > 0


def _guarded(guard: str) -> str:
    return (
        "WSO G { WS ws-ref\n int n\n bool ok\n init(WS ws) { ws-ref := ws }\n"
        f" maybe(int k, bool b) if {guard} {{ ws-ref <- pong() }} }}"
    )


def test_guards_that_are_never_boolean():
    diags = Program.parse(GUARDED_SOURCE.replace("if n > 0", "if n")).validate()
    assert [d.code for d in diags] == ["GuardNotBoolean"]
    assert "GuardedWSO.maybe" in diags[0].message
    for guard in ("3", '"yes"', "n", "k", "ws-ref", "self", "[1]", "-n", "n + 1",
                  "k * 2", "(n - k)", "n / 2", "!n", "n && ok", "k || b"):
        assert codes(_guarded(guard)) == ["GuardNotBoolean"], guard


def test_guards_that_may_be_boolean():
    for guard in ("true", "false", "ok", "b", "n > 0", "k == n", "n != 1",
                  "ok && b", "ok || n < 2", "!ok", "ghost"):
        assert codes(_guarded(guard)) == [], guard
