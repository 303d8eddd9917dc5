"""Kind-constraint checks over parsed behaviour definitions.

Validation never raises: it returns a tuple of diagnostics, empty when the
program is well formed.  Each diagnostic carries a stable code so callers
can match on it without parsing the message.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import syntax as ast

# creator kind -> the one kind it may create
CREATE_PAIRS = {"WSO": "AA", "WS": "WSO", "WSC": "WS"}


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.code}: {self.message}"


def _methods(d: ast.BehaviorDefinition) -> List[ast.MethodDefinition]:
    out = list(d.methods)
    if d.init is not None:
        out.append(d.init)
    return out


def _local_names(d: ast.BehaviorDefinition, m: ast.MethodDefinition) -> set:
    names = {l.name for l in d.links}
    names |= {v.name for v in d.variables}
    names |= {p for _, p in m.params}
    for meth in _methods(d):
        for a in meth.body:
            if isinstance(a, ast.CreateAct):
                names.add(a.bind_to)
    return names


def _diag(node, code: str, message: str) -> Diagnostic:
    """A diagnostic located at the node's source position."""
    return Diagnostic(code, message, node.loc.line, node.loc.col)


def validate(defs: Tuple[ast.BehaviorDefinition, ...]) -> Tuple[Diagnostic, ...]:
    diags: List[Diagnostic] = []
    by_name: Dict[str, ast.BehaviorDefinition] = {}
    for d in defs:
        if d.name in by_name:
            diags.append(_diag(d, "DuplicateBehavior", f"behaviour {d.name!r} defined twice"))
        else:
            by_name[d.name] = d
    for d in defs:
        diags.extend(_check_definition(d, by_name))
    return tuple(diags)


def _check_definition(
    d: ast.BehaviorDefinition, by_name: Dict[str, ast.BehaviorDefinition]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []

    # readers resolve a name to a reference or a variable in different
    # orders, so one name may be declared once; parameters may shadow it
    declared = set()
    for decl in sorted(d.links + d.variables, key=lambda x: (x.loc.line, x.loc.col)):
        if decl.name in declared:
            diags.append(_diag(decl, "DuplicateName",
                               f"{d.name} declares {decl.name!r} twice"))
        declared.add(decl.name)

    if d.kind == "AA":
        wso_links = [l for l in d.links if l.kind == "WSO"]
        if len(wso_links) != 1 or len(d.links) != 1:
            diags.append(_diag(d, "AAWsoLink",
                               f"AA {d.name!r} must declare exactly one WSO reference"))
    if d.kind == "WS":
        if d.method("setPartner") is None:
            diags.append(_diag(d, "MissingSetPartner",
                               f"WS {d.name!r} must declare a setPartner method"))
    if d.kind == "WSC":
        ws_links = [l for l in d.links if l.kind == "WS"]
        if len(ws_links) != 2 or len(d.links) != 2:
            diags.append(_diag(d, "WscLinkShape",
                               f"WSC {d.name!r} must declare exactly two WS references"))
        creates = [
            a for m in _methods(d) for a in m.body if isinstance(a, ast.CreateAct)
        ]
        if creates and len(creates) != 2:
            diags.append(_diag(d, "WscCreatePair",
                               f"WSC {d.name!r} must create its two partner services together"))

    for m in _methods(d):
        names = _local_names(d, m)
        for a in m.body:
            diags.extend(_check_action(d, m, a, names, by_name))
        if _never_boolean(d, m, m.guard):
            diags.append(_diag(m, "GuardNotBoolean",
                               f"guard of {d.name}.{m.name} is not boolean: "
                               f"{ast.pp_expr(m.guard)}"))
    return diags


def _declared_type(d: ast.BehaviorDefinition, m: ast.MethodDefinition, name: str):
    """The declared type of a name as evaluation resolves it: parameters
    shadow variables, which shadow references; None when undeclared."""
    for t, p in m.params:
        if p == name:
            return t
    for v in d.variables:
        if v.name == name:
            return v.type
    link = d.link(name)
    return None if link is None else link.kind


# Binary operators whose result is a number, a string or a list: every
# level that binds tighter than the comparisons
_ARITHMETIC = frozenset(op for ops, _ in ast.BINARY_LEVELS[3:] for op in ops)


def _never_boolean(d: ast.BehaviorDefinition, m: ast.MethodDefinition, e: ast.Expr) -> bool:
    """Whether the guard expression `e` can never evaluate to a bool.  It
    yields something else when it is a literal that is not one, a name
    declared with another type, `self`, a list or record, negation or
    arithmetic; evaluation rejects `!` of such an operand, and `&&` or
    `||` with one on the left.  Comparisons may yield a bool, and so may
    `&&` and `||` whatever their right operand, which is read as `is True`."""
    if isinstance(e, ast.Lit):
        return not isinstance(e.value, bool)
    if isinstance(e, ast.Name):
        return _declared_type(d, m, e.ident) not in (None, "bool")
    if isinstance(e, ast.Binary):
        return e.op in _ARITHMETIC or (e.op in ("&&", "||") and _never_boolean(d, m, e.left))
    if isinstance(e, ast.Unary):
        return e.op == "-" or _never_boolean(d, m, e.operand)
    return isinstance(e, (ast.SelfRef, ast.ListExpr, ast.RecordExpr))


def _check_action(
    d: ast.BehaviorDefinition,
    m: ast.MethodDefinition,
    a: ast.Action,
    names: set,
    by_name: Dict[str, ast.BehaviorDefinition],
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    where = f"in {d.name}.{m.name}"

    if isinstance(a, ast.CreateAct):
        if d.kind == "AA":
            return [_diag(a, "AACannotCreate", f"AA bodies may not create actors ({where})")]
        target = by_name.get(a.behavior)
        if target is None:
            return [_diag(a, "UnknownBehavior",
                          f"create names undefined behaviour {a.behavior!r} ({where})")]
        want = CREATE_PAIRS.get(d.kind)
        if target.kind != want:
            diags.append(_diag(a, "CreateKindMismatch",
                               f"{d.kind} may create {want} actors only, "
                               f"{a.behavior!r} is {target.kind} ({where})"))
        bound = d.link(a.bind_to)
        if bound is not None and bound.kind != target.kind:
            diags.append(_diag(a, "CreateKindMismatch",
                               f"create binds {target.kind} to {bound.kind} "
                               f"reference {a.bind_to!r} ({where})"))
    elif isinstance(a, (ast.SendAct, ast.SetPartnerCall)):
        if isinstance(a, ast.SetPartnerCall) and d.kind != "WSC":
            diags.append(_diag(a, "SetPartnerOutsideWSC",
                               f"only a WSC may send setPartner ({where})"))
        if a.target not in names and a.target != "self":
            diags.append(_diag(a, "UnresolvedSendTarget",
                               f"send target {a.target!r} is not declared ({where})"))
    elif isinstance(a, ast.Assign):
        if a.name not in names:
            diags.append(_diag(a, "UndeclaredName",
                               f"assignment to undeclared name {a.name!r} ({where})"))
    return diags
