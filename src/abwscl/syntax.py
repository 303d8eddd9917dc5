"""Abstract syntax for behaviour definitions.

A behaviour is one of four kinds (AA, WSO, WS, WSC) and carries reference
declarations, variable declarations, an optional init, and guarded methods.
Expressions are side-effect free; actions are the only way state moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .errors import EvalTypeError, UnknownName
from .terms import Address, Record, Value, canon_value

ACTOR_KINDS = ("AA", "WSO", "WS", "WSC")
VALUE_TYPES = ("int", "float", "string", "bool", "list", "List", "record")


@dataclass(frozen=True)
class Loc:
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# --- expressions ----------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    loc: Loc = field(default=Loc(), compare=False)


@dataclass(frozen=True)
class Lit(Expr):
    value: Value = None


@dataclass(frozen=True)
class Name(Expr):
    ident: str = ""


@dataclass(frozen=True)
class SelfRef(Expr):
    pass


@dataclass(frozen=True)
class Unary(Expr):
    op: str = "!"
    operand: Expr = None


@dataclass(frozen=True)
class Binary(Expr):
    op: str = "=="
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class ListExpr(Expr):
    items: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class RecordExpr(Expr):
    fields: Tuple[Tuple[str, Expr], ...] = ()


TRUE = Lit(value=True)

# Binary operators by precedence, loosest first: (operators, chains).  A
# level that chains groups to the left (`a - b - c` is `(a - b) - c`); one
# that does not takes at most one operator, so `a < b < c` does not parse.
# Unary `!` and `-` bind tighter than every level.
BINARY_LEVELS = (
    (("||",), True),
    (("&&",), True),
    (("==", "!=", "<", "<=", ">", ">="), False),
    (("+", "-"), True),
    (("*", "/"), True),
)


def pp_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return canon_value(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, SelfRef):
        return "self"
    if isinstance(e, Unary):
        return f"{e.op}{pp_expr(e.operand)}"
    if isinstance(e, Binary):
        return f"({pp_expr(e.left)} {e.op} {pp_expr(e.right)})"
    if isinstance(e, ListExpr):
        return "[" + ", ".join(pp_expr(x) for x in e.items) + "]"
    if isinstance(e, RecordExpr):
        return "{" + ", ".join(f"{k}: {pp_expr(v)}" for k, v in e.fields) + "}"
    raise TypeError(f"not an expression: {e!r}")


class Env:
    """Name lookup for expression evaluation: params shadow vars shadow
    link slots.  `self` always resolves to the evaluating actor."""

    def __init__(self, self_addr: Address, scopes: Tuple[dict, ...]):
        self.self_addr = self_addr
        self.scopes = scopes

    def lookup(self, name: str) -> Value:
        for scope in self.scopes:
            if name in scope:
                return scope[name]
        raise UnknownName(name)


_NUM = (int, float)


def eval_expr(e: Expr, env: Env) -> Value:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Name):
        return env.lookup(e.ident)
    if isinstance(e, SelfRef):
        return env.self_addr
    if isinstance(e, ListExpr):
        return tuple(eval_expr(x, env) for x in e.items)
    if isinstance(e, RecordExpr):
        return Record(tuple(sorted((k, eval_expr(v, env)) for k, v in e.fields)))
    if isinstance(e, Unary):
        v = eval_expr(e.operand, env)
        if e.op == "!":
            if not isinstance(v, bool):
                raise EvalTypeError(pp_expr(e))
            return not v
        if e.op == "-":
            if not isinstance(v, _NUM) or isinstance(v, bool):
                raise EvalTypeError(pp_expr(e))
            return -v
        raise EvalTypeError(pp_expr(e))
    if isinstance(e, Binary):
        if e.op == "&&":
            l = eval_expr(e.left, env)
            if not isinstance(l, bool):
                raise EvalTypeError(pp_expr(e))
            return l and eval_expr(e.right, env) is True
        if e.op == "||":
            l = eval_expr(e.left, env)
            if not isinstance(l, bool):
                raise EvalTypeError(pp_expr(e))
            return l or eval_expr(e.right, env) is True
        l = eval_expr(e.left, env)
        r = eval_expr(e.right, env)
        if e.op == "==":
            return l == r
        if e.op == "!=":
            return l != r
        if e.op in ("<", "<=", ">", ">="):
            ok = (isinstance(l, _NUM) and isinstance(r, _NUM)) or (
                isinstance(l, str) and isinstance(r, str)
            )
            if not ok or isinstance(l, bool) or isinstance(r, bool):
                raise EvalTypeError(pp_expr(e))
            if e.op == "<":
                return l < r
            if e.op == "<=":
                return l <= r
            if e.op == ">":
                return l > r
            return l >= r
        if e.op in ("+", "-", "*", "/"):
            if e.op == "+" and isinstance(l, str) and isinstance(r, str):
                return l + r
            if e.op == "+" and isinstance(l, tuple) and isinstance(r, tuple):
                return l + r
            if not isinstance(l, _NUM) or not isinstance(r, _NUM) or isinstance(l, bool) or isinstance(r, bool):
                raise EvalTypeError(pp_expr(e))
            if e.op == "+":
                return l + r
            if e.op == "-":
                return l - r
            if e.op == "*":
                return l * r
            if r == 0:
                raise EvalTypeError(pp_expr(e))
            return l / r
    raise EvalTypeError(repr(e))


# --- actions ---------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    loc: Loc = field(default=Loc(), compare=False)


@dataclass(frozen=True)
class Assign(Action):
    name: str = ""
    expr: Expr = None

    def canon(self) -> str:
        return f"{self.name} := {pp_expr(self.expr)}"


@dataclass(frozen=True)
class SendAct(Action):
    target: str = ""
    method: str = ""
    args: Tuple[Expr, ...] = ()

    def canon(self) -> str:
        args = ", ".join(pp_expr(a) for a in self.args)
        return f"{self.target} <- {self.method}({args})"


@dataclass(frozen=True)
class SetPartnerCall(Action):
    """A send of the distinguished setPartner method; legal only in WSC
    bodies, where it confirms the wiring done at partner creation."""

    target: str = ""
    arg: Expr = None

    def canon(self) -> str:
        return f"{self.target} <- setPartner({pp_expr(self.arg)})"


@dataclass(frozen=True)
class CreateAct(Action):
    kind: str = "AA"
    behavior: str = ""
    args: Tuple[Expr, ...] = ()
    bind_to: str = ""
    role: Optional[str] = None

    def canon(self) -> str:
        args = ", ".join(pp_expr(a) for a in self.args)
        role = f" as {self.role}" if self.role else ""
        return f"{self.bind_to} := new {self.behavior}({args}){role}"


@dataclass(frozen=True)
class OpaqueLocal(Action):
    """Placeholder for local computation the calculus does not model."""

    def canon(self) -> str:
        return "other-local-computations"


# --- declarations ----------------------------------------------------------


@dataclass(frozen=True)
class LinkDecl:
    kind: str  # actor kind of the referenced actor
    name: str
    loc: Loc = field(default=Loc(), compare=False)


@dataclass(frozen=True)
class VarDecl:
    type: str
    name: str
    loc: Loc = field(default=Loc(), compare=False)


@dataclass(frozen=True)
class MethodDefinition:
    name: str
    params: Tuple[Tuple[str, str], ...] = ()  # (type, name) pairs
    guard: Expr = TRUE
    body: Tuple[Action, ...] = ()
    local: bool = False
    loc: Loc = field(default=Loc(), compare=False)


@dataclass(frozen=True)
class BehaviorDefinition:
    kind: str
    name: str
    roles: Tuple[str, ...] = ()
    links: Tuple[LinkDecl, ...] = ()
    variables: Tuple[VarDecl, ...] = ()
    init: Optional[MethodDefinition] = None
    methods: Tuple[MethodDefinition, ...] = ()
    loc: Loc = field(default=Loc(), compare=False)

    def bodies(self) -> Tuple[MethodDefinition, ...]:
        """The init body, if any, then the methods in declaration order."""
        return ((self.init,) if self.init else ()) + self.methods

    def method(self, name: str) -> Optional[MethodDefinition]:
        for m in self.methods:
            if m.name == name:
                return m
        return None

    def link(self, name: str) -> Optional[LinkDecl]:
        for l in self.links:
            if l.name == name:
                return l
        return None

    def sends(
        self, kind: str, bodies: Optional[Sequence[MethodDefinition]] = None
    ) -> Tuple[str, ...]:
        """The methods `bodies` send along references of `kind`, by default
        over every body (init first), once each in first-send order."""
        sent = {}
        for m in self.bodies() if bodies is None else bodies:
            for act in m.body:
                if isinstance(act, SendAct):
                    link = self.link(act.target)
                    if link is not None and link.kind == kind:
                        sent[act.method] = None
        return tuple(sent)


def pp_method(m: MethodDefinition, indent: str = "  ") -> str:
    params = ", ".join(f"{t} {n}" for t, n in m.params)
    head = f"{indent}{'local ' if m.local else ''}{m.name}({params}) if {pp_expr(m.guard)} {{"
    lines = [head]
    for a in m.body:
        lines.append(indent + "  " + a.canon())
    lines.append(indent + "}")
    return "\n".join(lines)


def pp_definition(d: BehaviorDefinition) -> str:
    roles = "".join(f" role {r}," for r in d.roles).rstrip(",")
    lines = [f"{d.kind} {d.name}{roles} {{"]
    for l in d.links:
        lines.append(f"  {l.kind} {l.name}")
    for v in d.variables:
        lines.append(f"  {v.type} {v.name}")
    if d.init is not None:
        params = ", ".join(f"{t} {n}" for t, n in d.init.params)
        lines.append(f"  init({params}) {{")
        for a in d.init.body:
            lines.append("    " + a.canon())
        lines.append("  }")
    for m in d.methods:
        lines.append(pp_method(m))
    lines.append("}")
    return "\n".join(lines)


def pp_program(defs) -> str:
    return "\n\n".join(pp_definition(d) for d in defs) + "\n"
