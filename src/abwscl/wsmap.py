"""Skeleton WSDL, WS-BPEL, and WS-CDL documents from validated definitions.

The mapping is concept-for-concept, not executable: an interface service
becomes a service description whose operations are the methods its
partner may call; an orchestration becomes a process whose activity
sequence follows the send/receive causality chain through its activity
actors; a choreography becomes a package with one roleType per declared
role and one interaction per method exchanged between the two partner
services.  Output is deterministic: attributes are written sorted, text
is UTF-8 with LF endings, and identical inputs give identical bytes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import syntax as ast
from .errors import NotAWS, NotAWSC, NotAWSO, RoleCountMismatch, UnorderableBody
from .program import Program

BASE_URI = "http://example.wscs.com/2011"


# -- carrier ---------------------------------------------------------------


@dataclass(frozen=True)
class XmlElement:
    name: str
    attrs: Tuple[Tuple[str, str], ...] = ()
    children: Tuple["XmlElement", ...] = ()
    text: Optional[str] = None


def el(name: str, attrs: Optional[Dict[str, str]] = None, *children: XmlElement,
       text: Optional[str] = None) -> XmlElement:
    return XmlElement(name, tuple((attrs or {}).items()), tuple(children), text)


@dataclass(frozen=True)
class XmlSkeleton:
    """A document root plus its namespace bindings, ready to serialize."""

    root: XmlElement
    namespaces: Tuple[Tuple[str, str], ...] = ()

    def to_text(self) -> str:
        ns = tuple((f"xmlns:{p}" if p else "xmlns", uri) for p, uri in self.namespaces)
        root = XmlElement(
            self.root.name, ns + self.root.attrs, self.root.children, self.root.text
        )
        lines = ['<?xml version="1.0" encoding="UTF-8"?>']
        _emit(root, 0, lines)
        return "\n".join(lines) + "\n"

    def to_bytes(self) -> bytes:
        return self.to_text().encode("utf-8")


# Local copies of xml.sax.saxutils.escape and quoteattr: importing that
# module loads urllib.request, http.client, email and ssl.
def _escape(text: str) -> str:
    """Character data with &, > and < escaped."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """An attribute value, escaped and quoted: double quotes unless the
    value holds one and no single quote."""
    data = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in data:
        return f'"{data}"'
    if "'" not in data:
        return f"'{data}'"
    return '"' + data.replace('"', "&quot;") + '"'


def _emit(e: XmlElement, depth: int, out: List[str]) -> None:
    pad = "  " * depth
    attrs = "".join(f" {k}={_quoteattr(v)}" for k, v in sorted(e.attrs))
    if not e.children and e.text is None:
        out.append(f"{pad}<{e.name}{attrs}/>")
        return
    if not e.children:
        out.append(f"{pad}<{e.name}{attrs}>{_escape(e.text)}</{e.name}>")
        return
    out.append(f"{pad}<{e.name}{attrs}>")
    if e.text is not None:
        out.append(f"{pad}  {_escape(e.text)}")
    for c in e.children:
        _emit(c, depth + 1, out)
    out.append(f"{pad}</{e.name}>")


# -- shared naming ----------------------------------------------------------


def _cap(name: str) -> str:
    return name[:1].upper() + name[1:]


def _op(method: str) -> str:
    return "op" + _cap(method)


def _callable_methods(d: ast.BehaviorDefinition) -> List[ast.MethodDefinition]:
    return [m for m in d.methods if not m.local and m.name != "setPartner"]


def _inward_methods(d: ast.BehaviorDefinition) -> List[ast.MethodDefinition]:
    """Methods a partner calls on this service: they forward to the owner."""
    return [m for m in _callable_methods(d) if d.sends("WSO", (m,))]


# -- service description ----------------------------------------------------


def export_wsdl(d: ast.BehaviorDefinition) -> XmlSkeleton:
    """Describe an interface service: one operation per method its
    partner may call, with an input element per call and no operations
    for the calls it only sends."""
    if d.kind != "WS":
        raise NotAWS(f"{d.name} is {d.kind}, not WS")
    schema_ns = f"{BASE_URI}/schemas/{d.name}.xsd"
    inward = _inward_methods(d)
    schema_children = []
    for m in inward:
        schema_children.append(el("xs:element", {"name": m.name, "type": f"t{_cap(m.name)}"}))
        schema_children.append(el("xs:complexType", {"name": f"t{_cap(m.name)}"}))
    operations = [
        el(
            "operation",
            {"name": _op(m.name)},
            el("input", {
                "messageLabel": f"In{_op(m.name)}",
                "element": f"ghns:{m.name}",
            }),
        )
        for m in inward
    ]
    root = el(
        "description",
        {"targetNamespace": f"{BASE_URI}/wsdl/{d.name}.wsdl"},
        el("documentation", text=f"This document describes the {d.name} Web service."),
        el(
            "types",
            None,
            el(
                "xs:schema",
                {
                    "xmlns:xs": "http://www.w3.org/2001/XMLSchema",
                    "targetNamespace": schema_ns,
                },
                *schema_children,
            ),
        ),
        el("interface", {"name": f"{d.name}4PartnerInterface"}, *operations),
        el(
            "plnk:partnerLinkType",
            {"name": f"{d.name}LT"},
            el("plnk:role", {
                "name": d.name,
                "portType": f"tns:{d.name}4PartnerInterface",
            }),
        ),
    )
    return XmlSkeleton(
        root,
        namespaces=(
            ("", "http://www.w3.org/2004/08/wsdl"),
            ("tns", f"{BASE_URI}/wsdl/{d.name}.wsdl"),
            ("ghns", schema_ns),
            ("plnk", "http://docs.oasis-open.org/wsbpel/2.0/plnktype"),
        ),
    )


# -- process ----------------------------------------------------------------


@dataclass
class _Chain:
    """Activity order mined from who causes what, one hop at a time."""

    program: Program
    wso: ast.BehaviorDefinition
    bound: Dict[str, str]
    acts: List[Tuple[str, str, bool]] = field(default_factory=list)
    visited: Set[str] = field(default_factory=set)
    walking: List[str] = field(default_factory=list)

    def body(self, owner: ast.BehaviorDefinition, actions: Sequence[ast.Action]) -> None:
        for act in actions:
            if not isinstance(act, ast.SendAct):
                continue
            link = owner.link(act.target)
            if link is None:
                continue
            if owner is self.wso and link.kind == "WS":
                self.acts.append(("invoke", act.method, False))
            elif link.kind == "AA":
                aa = self.program.definition(self.bound[act.target]) \
                    if act.target in self.bound else None
                called = aa.method(act.method) if aa is not None else None
                if called is not None:
                    self.body(aa, called.body)
            elif owner.kind == "AA" and link.kind == "WSO":
                self.wso_method(act.method)

    def wso_method(self, name: str) -> None:
        if name in self.walking:
            raise UnorderableBody(
                f"{self.wso.name}.{name} causes itself through its activities"
            )
        if name in self.visited:
            return
        m = self.wso.method(name)
        if m is None:
            return
        self.visited.add(name)
        self.walking.append(name)
        self.body(self.wso, m.body)
        self.walking.pop()


def _causality_chain(program: Program, d: ast.BehaviorDefinition) -> List[Tuple[str, str, bool]]:
    bound = {}
    if d.init is not None:
        for act in d.init.body:
            if isinstance(act, ast.CreateAct):
                bound[act.bind_to] = act.behavior
    chain = _Chain(program, d, bound)
    if d.init is not None:
        chain.body(d, d.init.body)
    for m in _callable_methods(d):
        if m.name in chain.visited:
            continue
        chain.acts.append(("receive", m.name, m.guard != ast.TRUE))
        chain.wso_method(m.name)
    return chain.acts


def export_bpel(program: Program, name: str) -> XmlSkeleton:
    """Describe an orchestration as a process whose activities follow the
    causality chain; a body that causes itself falls back to a flow."""
    d = program.definition(name)
    if d.kind != "WSO":
        raise NotAWSO(f"{name} is {d.kind}, not WSO")
    ws = program.creator(name, "WS")
    ws_name = ws.name if ws is not None else "Partner"
    plink = f"{d.name}And{ws_name}"

    def activity(kind: str, method: str, guarded: bool, first: bool) -> XmlElement:
        attrs = {"partnerLink": plink, "operation": _op(method)}
        if kind == "receive":
            attrs["variable"] = _cap(method)
            if first:
                attrs["createInstance"] = "yes"
        else:
            attrs["inputVariable"] = _cap(method)
        inner = el(kind, attrs)
        if guarded:
            return el("if", None, el("condition", text="opaque"), inner)
        return inner

    try:
        chain = _causality_chain(program, d)
        seen_receive = False
        activities = []
        for kind, method, guarded in chain:
            activities.append(activity(kind, method, guarded, kind == "receive" and not seen_receive))
            seen_receive = seen_receive or kind == "receive"
        body = el("sequence", None, *activities)
    except UnorderableBody as err:
        receives = [
            activity("receive", m.name, m.guard != ast.TRUE, False)
            for m in _callable_methods(d)
        ]
        body = el(
            "flow",
            None,
            el("documentation", text=f"unorderable: {err}"),
            *receives,
        )

    variables = [
        el("variable", {"name": v.name, "type": v.type}) for v in d.variables
    ]
    root = el(
        "process",
        {"name": d.name, "targetNamespace": f"{BASE_URI}/ws-bp/{d.name}"},
        el("documentation", text=f"This document describes the {d.name} process."),
        el(
            "partnerLinks",
            None,
            el("partnerLink", {
                "name": plink,
                "partnerLinkType": f"lns:{ws_name}LT",
                "myRole": d.name,
                "partnerRole": ws_name,
            }),
        ),
        el("variables", None, *variables),
        body,
    )
    return XmlSkeleton(
        root,
        namespaces=(
            ("", "http://docs.oasis-open.org/wsbpel/2.0/process/executable"),
            ("lns", f"{BASE_URI}/wsdl/{ws_name}.wsdl"),
        ),
    )


# -- choreography -------------------------------------------------------------


def partner_ws_names(d: ast.BehaviorDefinition) -> Tuple[str, ...]:
    """The partner services a choreography creates, in role order."""
    if d.kind != "WSC":
        raise NotAWSC(f"{d.name} is {d.kind}, not WSC")
    by_role = {}
    if d.init is not None:
        for act in d.init.body:
            if isinstance(act, ast.CreateAct) and act.role is not None:
                by_role[act.role] = act.behavior
    return tuple(by_role[r] for r in d.roles if r in by_role)


def export_cdl(
    d: ast.BehaviorDefinition, ws1: ast.BehaviorDefinition, ws2: ast.BehaviorDefinition
) -> XmlSkeleton:
    """Describe a choreography: two roleTypes, one relationship, and an
    interaction per method the two services exchange, in the order the
    first service declares them."""
    if d.kind != "WSC":
        raise NotAWSC(f"{d.name} is {d.kind}, not WSC")
    if len(d.roles) != 2:
        raise RoleCountMismatch(f"{d.name} declares {len(d.roles)} roles, needs 2")
    role1, role2 = d.roles
    rel = f"{ws1.name}And{ws2.name}Relationship"

    exchanged: List[Tuple[str, str, str, str]] = []  # method, from-role, to-role, ns
    for m in _callable_methods(ws1):
        m2 = ws2.method(m.name)
        if m2 is None:
            continue
        if ws1.sends("WS", (m,)):
            exchanged.append((m.name, role1, role2, "ns1"))
        elif ws2.sends("WS", (m2,)):
            exchanged.append((m.name, role2, role1, "ns2"))

    info_types = [
        el("informationType", {"name": f"{m}Type", "type": f"{ns}:t{_cap(m)}"})
        for m, _f, _t, ns in exchanged
    ]
    variables = [
        el("variable", {"name": m, "informationType": f"tns:{m}Type"})
        for m, _f, _t, _ns in exchanged
    ]
    interactions = [
        el(
            "interaction",
            {"name": f"Interaction{i}"},
            el("participate", {
                "relationshipType": f"tns:{rel}",
                "fromRoleTypeRef": f"tns:{f}",
                "toRoleTypeRef": f"tns:{t}",
            }),
            el(
                "exchange",
                {"name": m, "informationType": f"tns:{m}Type", "action": "request"},
                el("send", {"variable": f"cdl:getVariable('tns:{m}','','')"}),
                el("receive", {"variable": f"cdl:getVariable('tns:{m}','','')"}),
            ),
        )
        for i, (m, f, t, _ns) in enumerate(exchanged, start=1)
    ]
    diagnostic = () if exchanged else (
        el("documentation", text="no methods are exchanged between the two services"),
    )
    root = el(
        "package",
        {"name": d.name, "targetNamespace": f"{BASE_URI}/cdl/{d.name}", "version": "1.0"},
        *info_types,
        el("roleType", {"name": ws1.name},
           el("behavior", {"name": f"{ws1.name}Behavior",
                           "interface": f"ns1:{ws1.name}4PartnerInterface"})),
        el("roleType", {"name": ws2.name},
           el("behavior", {"name": f"{ws2.name}Behavior",
                           "interface": f"ns2:{ws2.name}4PartnerInterface"})),
        el(
            "relationshipType",
            {"name": rel},
            el("roleType", {"typeRef": f"tns:{role1}", "behavior": f"{ws1.name}Behavior"}),
            el("roleType", {"typeRef": f"tns:{role2}", "behavior": f"{ws2.name}Behavior"}),
        ),
        el(
            "choreography",
            {"name": d.name},
            el("relationship", {"type": f"tns:{rel}"}),
            el("variableDefinitions", None, *variables),
            el("sequence", None, *diagnostic, *interactions),
        ),
    )
    return XmlSkeleton(
        root,
        namespaces=(
            ("", "http://www.w3.org/2005/10/cdl"),
            ("cdl", "http://www.w3.org/2005/10/cdl"),
            ("tns", f"{BASE_URI}/cdl/{d.name}"),
            ("ns1", f"{BASE_URI}/wsdl/{ws1.name}.wsdl"),
            ("ns2", f"{BASE_URI}/wsdl/{ws2.name}.wsdl"),
        ),
    )


# -- files --------------------------------------------------------------------


def export_file_name(target: str, name: str) -> str:
    return {
        "wsdl": f"{name}.wsdl",
        "bpel": f"{name}.bpel.xml",
        "cdl": f"{name}.cdl.xml",
    }[target]


def export(program: Program, target: str, name: str) -> XmlSkeleton:
    """Dispatch on target, resolving whatever the document needs."""
    d = program.definition(name)
    if target == "wsdl":
        return export_wsdl(d)
    if target == "bpel":
        return export_bpel(program, name)
    if target == "cdl":
        partners = partner_ws_names(d)
        if len(partners) != 2:
            raise RoleCountMismatch(
                f"{name} wires {len(partners)} partner services, needs 2"
            )
        ws1 = program.definition(partners[0])
        ws2 = program.definition(partners[1])
        return export_cdl(d, ws1, ws2)
    raise ValueError(f"unknown export target {target!r}")
