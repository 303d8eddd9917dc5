import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, strategies as st

from abwscl import Program, export, export_bpel, export_cdl, export_wsdl
from abwscl.errors import NotAWS, NotAWSC, NotAWSO, RoleCountMismatch
from abwscl.interaction import check_pair
from abwscl.terms import Address
from abwscl.wsmap import XmlSkeleton, _escape, _quoteattr, el, export_file_name
from conftest import MINI_SOURCE


def local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def tree(skeleton: XmlSkeleton) -> ET.Element:
    return ET.fromstring(skeleton.to_bytes())


def find_all(root: ET.Element, name: str):
    return [e for e in root.iter() if local(e.tag) == name]


def test_xml_writer_escapes_and_indents():
    page = XmlSkeleton(
        el("root", {"q": 'say "hi" & go'}, el("leaf", None, text="a < b")),
        namespaces={},
    )
    text = page.to_text()
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert "q='say \"hi\" &amp; go'" in text
    assert "<leaf>a &lt; b</leaf>" in text
    assert text.endswith("\n")
    ET.fromstring(page.to_bytes())


def test_wsdl_lists_the_partner_facing_operations(program):
    doc = export_wsdl(program.definition("UserAgentWS"))
    root = tree(doc)
    assert local(root.tag) == "description"
    ops = [e.get("name") for e in find_all(root, "operation")]
    # only calls the partner can place, each input-only
    assert ops == ["opReceiveLB", "opReceivePB"]
    assert find_all(root, "output") == []
    inputs = find_all(root, "input")
    assert [i.get("element") for i in inputs] == ["ghns:receiveLB", "ghns:receivePB"]
    iface = find_all(root, "interface")[0]
    assert iface.get("name") == "UserAgentWS4PartnerInterface"
    plt = find_all(root, "partnerLinkType")[0]
    assert plt.get("name") == "UserAgentWSLT"
    elements = [e.get("name") for e in find_all(root, "element")]
    assert elements == ["receiveLB", "receivePB"]


def test_wsdl_rejects_non_services(program):
    with pytest.raises(NotAWS):
        export_wsdl(program.definition("UserAgentWSO"))


def test_bpel_orders_the_activity_chain(program):
    doc = export_bpel(program, "UserAgentWSO")
    root = tree(doc)
    assert local(root.tag) == "process"
    seq = find_all(root, "sequence")[0]
    acts = [(local(c.tag), c.get("operation")) for c in seq]
    assert acts == [
        ("invoke", "opRequestLB"),
        ("receive", "opReceiveLB"),
        ("invoke", "opSendSB"),
        ("receive", "opReceivePB"),
        ("invoke", "opPayB"),
    ]
    receives = find_all(root, "receive")
    assert receives[0].get("createInstance") == "yes"
    assert receives[1].get("createInstance") is None
    link = find_all(root, "partnerLink")[0]
    assert link.get("name") == "UserAgentWSOAndUserAgentWS"
    assert link.get("myRole") == "UserAgentWSO"
    assert link.get("partnerRole") == "UserAgentWS"
    names = [v.get("name") for v in find_all(root, "variable")]
    assert names == ["books", "selectedBooks", "prices"]


def test_bpel_mirror_side_starts_with_a_receive(program):
    root = tree(export_bpel(program, "BookStoreWSO"))
    seq = find_all(root, "sequence")[0]
    acts = [(local(c.tag), c.get("operation")) for c in seq]
    assert acts == [
        ("receive", "opRequestLB"),
        ("invoke", "opReceiveLB"),
        ("receive", "opSendSB"),
        ("invoke", "opReceivePB"),
        ("receive", "opPayB"),
    ]


def test_bpel_rejects_non_orchestrations(program):
    with pytest.raises(NotAWSO):
        export_bpel(program, "UserAgentWS")


def test_empty_orchestration_yields_an_empty_sequence():
    src = """
WSO IdleWSO {
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
    }
}
"""
    root = tree(export_bpel(Program.parse(src), "IdleWSO"))
    seq = find_all(root, "sequence")[0]
    assert list(seq) == []


def test_guarded_method_becomes_an_if_placeholder():
    src = """
WSO PickyWSO {
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
    root = tree(export_bpel(Program.parse(src), "PickyWSO"))
    seq = find_all(root, "sequence")[0]
    # the guarded receive is wrapped; its reply invoke stays unconditional
    assert [local(c.tag) for c in seq] == ["if", "invoke"]
    guard = seq[0]
    assert [local(c.tag) for c in guard] == ["condition", "receive"]
    assert guard[0].text == "opaque"


# a service that creates its orchestration on a call, not at birth
LATE_SOURCE = """
WS LateWS {
    WSO wso-ref
    WS ws-ref

    init() {
        other-local-computations
    }

    setPartner(WS ws) if true {
        ws-ref := ws
    }

    start() if true {
        wso-ref := new LateWSO(self)
    }

    pong() if true {
        ws-ref <- pong()
    }
}

WSO LateWSO {
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
    }

    ping() if true {
        ws-ref <- pong()
    }
}
"""


def test_check_and_bpel_name_the_same_creating_service():
    """The service that creates an orchestration in any of its bodies is
    the one the check observes it through and the BPEL partner link names."""
    program = Program.parse(MINI_SOURCE + LATE_SOURCE)
    assert program.validate() == ()
    side, _far = check_pair(program, "LateWSO", "MiniWSO", "wso-wso")
    assert side.gate == Address("LateWS", "WS")
    [link] = find_all(tree(export_bpel(program, "LateWSO")), "partnerLink")
    assert link.get("name") == "LateWSOAndLateWS"
    assert link.get("partnerRole") == "LateWS"


def test_cyclic_activities_fall_back_to_a_flow():
    src = """
AA LoopAA {
    WSO wso-ref

    init(WSO wso) {
        wso-ref := wso
    }

    go() if true {
        wso-ref <- spin()
    }
}

WSO LoopWSO {
    AA a
    WS ws-ref

    init(WS ws) {
        ws-ref := ws
        a := new LoopAA(self)
    }

    spin() if true {
        a <- go()
    }
}
"""
    root = tree(export_bpel(Program.parse(src), "LoopWSO"))
    flows = find_all(root, "flow")
    assert len(flows) == 1
    notes = [local(c.tag) for c in flows[0]]
    assert notes[0] == "documentation"
    assert "spin" in flows[0][0].text
    assert "receive" in notes


def test_cdl_shape_matches_the_conversation(program):
    doc = export(program, "cdl", "BuyingBookWSC")
    root = tree(doc)
    assert local(root.tag) == "package"
    roles = find_all(root, "roleType")
    # two partner roles, plus one typeRef pair inside the relationship
    top_roles = [r.get("name") for r in roles if r.get("name")]
    assert top_roles == ["UserAgentWS", "BookStoreWS"]
    interactions = find_all(root, "interaction")
    assert len(interactions) == 5
    assert [i.get("name") for i in interactions] == [
        f"Interaction{n}" for n in range(1, 6)
    ]
    exchanges = [e.get("name") for e in find_all(root, "exchange")]
    assert exchanges == ["requestLB", "receiveLB", "sendSB", "receivePB", "payB"]
    froms = [
        p.get("fromRoleTypeRef") for p in find_all(root, "participate")
    ]
    assert froms == ["tns:user", "tns:seller", "tns:user", "tns:seller", "tns:user"]


def test_cdl_requires_a_two_role_contract(program, mini_program):
    with pytest.raises(NotAWSC):
        export_cdl(
            program.definition("UserAgentWS"),
            program.definition("UserAgentWS"),
            program.definition("BookStoreWS"),
        )
    src = """
WS SoloWS {
    WSO wso-ref

    init() {
    }

    setPartner(WS ws) if true {
    }
}

WSC SoloWSC role solo {
    WS a

    init() {
        a := new SoloWS() as solo
    }
}
"""
    solo = Program.parse(src)
    with pytest.raises(RoleCountMismatch):
        export(solo, "cdl", "SoloWSC")


def test_cdl_with_no_shared_methods_reports_it():
    src = """
WS LeftWS {
    WSO wso-ref
    init() { }
    setPartner(WS ws) if true { }
    only-left() if true { }
}

WS RightWS {
    WSO wso-ref
    init() { }
    setPartner(WS ws) if true { }
    only-right() if true { }
}

WSC QuietWSC role l, role r {
    WS a
    WS b

    init() {
        a := new LeftWS() as l
        b := new RightWS() as r
    }
}
"""
    prog = Program.parse(src)
    root = tree(export(prog, "cdl", "QuietWSC"))
    assert find_all(root, "interaction") == []
    docs = find_all(root, "documentation")
    assert any("no methods are exchanged" in (d.text or "") for d in docs)


def test_export_dispatch_and_file_names(program):
    assert export_file_name("wsdl", "X") == "X.wsdl"
    assert export_file_name("bpel", "X") == "X.bpel.xml"
    assert export_file_name("cdl", "X") == "X.cdl.xml"
    with pytest.raises(ValueError):
        export(program, "soap", "UserAgentWS")


def test_exports_are_byte_identical(program):
    for target, name in [
        ("wsdl", "BookStoreWS"),
        ("bpel", "BookStoreWSO"),
        ("cdl", "BuyingBookWSC"),
    ]:
        one = export(program, target, name).to_bytes()
        two = export(program, target, name).to_bytes()
        assert one == two
        assert one.decode("utf-8").splitlines()  # valid UTF-8, LF lines
        assert b"\r" not in one


@given(st.text(alphabet=st.sampled_from("ab &<>\"'\n\r\t\u00e9")))
def test_xml_escapes_match_the_standard_library(text):
    assert _escape(text) == escape(text)
    assert _quoteattr(text) == quoteattr(text)


def test_importing_the_package_loads_no_network_modules():
    """xml.sax.saxutils pulls in urllib.request and http.client; the
    package escapes XML itself and stays off them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import abwscl; "
            "print('http.client' in sys.modules)")
    # -S: no site hooks, so only the package's own imports count
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
