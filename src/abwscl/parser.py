"""Lexer and recursive-descent parser for `.abwscl` sources.

A source file is a sequence of behaviour definitions.  Identifiers may
contain interior hyphens (`wso-ref`, `ws-ref-1`); a hyphen is part of the
identifier exactly when it is glued between two identifier characters, so
`a-b` is one name while `a - b` subtracts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import syntax as ast
from .errors import ParseError
from .terms import KINDS

_PUNCT = ("<-", ":=", "==", "!=", "<=", ">=", "&&", "||",
          "{", "}", "(", ")", "[", "]", ",", ";", ":",
          "<", ">", "+", "-", "*", "/", "!", "=")

_OPAQUE = "other-local-computations"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | string | punct | eof
    text: str
    line: int
    col: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(src: str) -> List[Token]:
    toks: List[Token] = []
    i, line, line_start = 0, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "/" and i + 1 < n and src[i + 1] == "/":
            while i < n and src[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        if _is_ident_start(c):
            start = i
            while i < n and _is_ident_char(src[i]):
                i += 1
            # glue interior hyphens: letter '-' letter with no spaces
            while (
                i + 1 < n
                and src[i] == "-"
                and _is_ident_char(src[i + 1])
                and _is_ident_char(src[i - 1])
            ):
                i += 1
                while i < n and _is_ident_char(src[i]):
                    i += 1
            toks.append(Token("ident", src[start:i], line, col))
            continue
        if c.isdigit():
            start = i
            while i < n and (src[i].isdigit() or src[i] == "."):
                i += 1
            toks.append(Token("number", src[start:i], line, col))
            continue
        if c == '"':
            i += 1
            buf = []
            while i < n and src[i] != '"':
                if src[i] == "\n":
                    raise ParseError("unterminated string", line, col)
                if src[i] == "\\" and i + 1 < n:
                    buf.append(src[i + 1])
                    i += 2
                    continue
                buf.append(src[i])
                i += 1
            if i >= n:
                raise ParseError("unterminated string", line, col)
            i += 1
            text = "".join(buf)
            toks.append(Token("string", text, line, col))
            if "\n" in text:  # an escaped newline still ends a line
                line += text.count("\n")
                line_start = src.rindex("\n", 0, i) + 1
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, i - line_start + 1))
    return toks


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            t = self.peek()
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {t.text or t.kind!r}")
        return self.next()

    def error(self, message: str, token: Optional[Token] = None) -> ParseError:
        """A parse error located at `token`, by default the next one."""
        t = self.peek() if token is None else token
        return ParseError(message, t.line, t.col)

    def loc(self) -> ast.Loc:
        t = self.peek()
        return ast.Loc(t.line, t.col)

    # -- grammar -----------------------------------------------------------

    def program(self) -> Tuple[ast.BehaviorDefinition, ...]:
        defs = []
        while not self.at("eof"):
            defs.append(self.definition())
        if not defs:
            raise self.error("expected a behaviour definition")
        return tuple(defs)

    def definition(self) -> ast.BehaviorDefinition:
        loc = self.loc()
        kind_tok = self.expect("ident")
        if kind_tok.text not in KINDS:
            kinds = ", ".join(KINDS)
            raise self.error(f"expected one of {kinds}, found {kind_tok.text!r}", kind_tok)
        kind = kind_tok.text
        name = self.expect("ident").text
        roles: List[str] = []
        while self.at("ident", "role"):
            self.next()
            roles.append(self.expect("ident").text)
            if self.at("punct", ","):
                self.next()
        self.expect("punct", "{")
        links: List[ast.LinkDecl] = []
        variables: List[ast.VarDecl] = []
        init: Optional[ast.MethodDefinition] = None
        methods: List[ast.MethodDefinition] = []
        while not self.at("punct", "}"):
            if self.at("eof"):
                raise self.error("unterminated definition: expected '}'")
            t = self.peek()
            if t.kind != "ident":
                raise self.error(f"expected a declaration, found {t.text!r}")
            if t.text == "init" and self.peek(1).text == "(":
                if init is not None:
                    raise self.error("duplicate init")
                init = self.method(allow_guard=False)
            elif t.text in KINDS and self.peek(1).kind == "ident" and self.peek(2).text != "(":
                dloc = self.loc()
                self.next()
                links.append(ast.LinkDecl(t.text, self.expect("ident").text, dloc))
            elif t.text in ast.VALUE_TYPES and self.peek(1).kind == "ident" and self.peek(2).text != "(":
                dloc = self.loc()
                self.next()
                variables.append(ast.VarDecl(t.text, self.expect("ident").text, dloc))
            else:
                methods.append(self.method(allow_guard=True))
        self.expect("punct", "}")
        return ast.BehaviorDefinition(
            kind=kind,
            name=name,
            roles=tuple(roles),
            links=tuple(links),
            variables=tuple(variables),
            init=init,
            methods=tuple(methods),
            loc=loc,
        )

    def method(self, allow_guard: bool) -> ast.MethodDefinition:
        loc = self.loc()
        local = False
        if self.at("ident", "local") and self.peek(1).kind == "ident":
            local = True
            self.next()
        name = self.expect("ident").text
        self.expect("punct", "(")
        params: List[Tuple[str, str]] = []
        while not self.at("punct", ")"):
            if self.at("eof") or self.at("punct", "{"):
                raise self.error("unterminated parameter list: expected ')'")
            ptype = self.expect("ident").text
            pname = self.expect("ident").text
            params.append((ptype, pname))
            if self.at("punct", ","):
                self.next()
        self.expect("punct", ")")
        guard: ast.Expr = ast.TRUE
        if self.at("ident", "if"):
            if not allow_guard:
                raise self.error("init takes no guard")
            self.next()
            guard = self.expression()
        body = self.block()
        return ast.MethodDefinition(
            name=name, params=tuple(params), guard=guard, body=body, local=local, loc=loc
        )

    def block(self) -> Tuple[ast.Action, ...]:
        self.expect("punct", "{")
        actions: List[ast.Action] = []
        while not self.at("punct", "}"):
            if self.at("eof"):
                raise self.error("unterminated block: expected '}'")
            actions.append(self.action())
            if self.at("punct", ";"):
                self.next()
        self.expect("punct", "}")
        return tuple(actions)

    def action(self) -> ast.Action:
        loc = self.loc()
        t = self.expect("ident")
        if t.text == _OPAQUE:
            return ast.OpaqueLocal(loc)
        if self.at("punct", "<-"):
            self.next()
            method = self.expect("ident").text
            args = self.call_args()
            if method == "setPartner":
                if len(args) != 1:
                    raise self.error("setPartner takes exactly one argument", t)
                return ast.SetPartnerCall(loc, target=t.text, arg=args[0])
            return ast.SendAct(loc, target=t.text, method=method, args=args)
        if self.at("punct", ":="):
            self.next()
            if self.at("ident", "new"):
                self.next()
                behavior = self.expect("ident").text
                args = self.call_args()
                role = None
                if self.at("ident", "as"):
                    self.next()
                    role = self.expect("ident").text
                return ast.CreateAct(
                    loc, kind="", behavior=behavior, args=args, bind_to=t.text, role=role
                )
            return ast.Assign(loc, name=t.text, expr=self.expression())
        raise self.error(f"expected ':=' or '<-' after {t.text!r}", t)

    def call_args(self) -> Tuple[ast.Expr, ...]:
        self.expect("punct", "(")
        args: List[ast.Expr] = []
        while not self.at("punct", ")"):
            if self.at("eof") or self.at("punct", "{"):
                raise self.error("unterminated argument list: expected ')'")
            args.append(self.expression())
            if self.at("punct", ","):
                self.next()
        self.expect("punct", ")")
        return tuple(args)

    def expression(self, level: int = 0) -> ast.Expr:
        """Binary operators of `ast.BINARY_LEVELS[level:]`, then unary ones."""
        if level == len(ast.BINARY_LEVELS):
            return self.unary_expr()
        ops, chains = ast.BINARY_LEVELS[level]
        e = self.expression(level + 1)
        while self.peek().kind == "punct" and self.peek().text in ops:
            loc = self.loc()
            op = self.next().text
            e = ast.Binary(loc, op=op, left=e, right=self.expression(level + 1))
            if not chains:
                break
        return e

    def unary_expr(self) -> ast.Expr:
        if self.at("punct", "!") or self.at("punct", "-"):
            loc = self.loc()
            op = self.next().text
            return ast.Unary(loc, op=op, operand=self.unary_expr())
        return self.atom()

    def atom(self) -> ast.Expr:
        loc = self.loc()
        t = self.peek()
        if t.kind == "number":
            self.next()
            try:
                value = float(t.text) if "." in t.text else int(t.text)
            except ValueError:
                raise self.error(f"bad number {t.text!r}", t)
            return ast.Lit(loc, value=value)
        if t.kind == "string":
            self.next()
            return ast.Lit(loc, value=t.text)
        if t.kind == "ident":
            self.next()
            if t.text == "true":
                return ast.Lit(loc, value=True)
            if t.text == "false":
                return ast.Lit(loc, value=False)
            if t.text == "self":
                return ast.SelfRef(loc)
            return ast.Name(loc, ident=t.text)
        if self.at("punct", "("):
            self.next()
            e = self.expression()
            self.expect("punct", ")")
            return e
        if self.at("punct", "["):
            self.next()
            items: List[ast.Expr] = []
            while not self.at("punct", "]"):
                if self.at("eof"):
                    raise self.error("unterminated list: expected ']'", t)
                items.append(self.expression())
                if self.at("punct", ","):
                    self.next()
            self.next()
            return ast.ListExpr(loc, items=tuple(items))
        if self.at("punct", "{"):
            self.next()
            fields: List[Tuple[str, ast.Expr]] = []
            while not self.at("punct", "}"):
                if self.at("eof"):
                    raise self.error("unterminated record: expected '}'", t)
                key = self.expect("ident").text
                self.expect("punct", ":")
                fields.append((key, self.expression()))
                if self.at("punct", ","):
                    self.next()
            self.next()
            return ast.RecordExpr(loc, fields=tuple(fields))
        raise self.error(f"expected an expression, found {t.text or t.kind!r}", t)


def parse_program(src: str) -> Tuple[ast.BehaviorDefinition, ...]:
    """Parse one source text into a tuple of behaviour definitions."""
    return _Parser(tokenize(src)).program()
