"""Behaviour registry, actor instantiation, and local-state plumbing.

A Program maps behaviour names to definitions and knows how each kind's
declared references project onto the link slots of an actor term:

    AA   sole WSO reference   -> owner_wso
    WSO  WS reference         -> interface_ws (AA references are plain state)
    WS   WSO reference        -> owner_wso, WS reference -> partner_ws
    WSC  two WS references    -> partner_1, partner_2 in declaration order

Instantiation binds init parameters, then folds every leading assignment
and opaque action into the state; an actor is born Running exactly when
observable work (a send or a create) remains queued.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import syntax as ast
from .errors import ArityMismatch, EvalTypeError, UnknownMethod, UnknownName
from .parser import parse_program
from .terms import (
    Address,
    AddressAllocator,
    ActorTerm,
    Configuration,
    Event,
    Fragment,
    Links,
    LocalState,
    ProcessingState,
    Record,
    Value,
    birth_signals,
)
from .validate import Diagnostic, validate

_DEFAULTS: Dict[str, Value] = {
    "int": 0,
    "float": 0.0,
    "string": "",
    "bool": False,
    "list": (),
    "List": (),
    "record": Record.of(),
}

_OBSERVABLE = (ast.SendAct, ast.SetPartnerCall, ast.CreateAct)


def link_slots(d: ast.BehaviorDefinition) -> Dict[str, str]:
    """Map declared reference names to link-slot names for this kind."""
    slots: Dict[str, str] = {}
    if d.kind == "AA":
        for l in d.links:
            if l.kind == "WSO":
                slots[l.name] = "owner_wso"
    elif d.kind == "WSO":
        for l in d.links:
            if l.kind == "WS":
                slots[l.name] = "interface_ws"
    elif d.kind == "WS":
        for l in d.links:
            if l.kind == "WSO":
                slots[l.name] = "owner_wso"
            elif l.kind == "WS":
                slots[l.name] = "partner_ws"
    elif d.kind == "WSC":
        ws_links = [l for l in d.links if l.kind == "WS"]
        for i, l in enumerate(ws_links[:2]):
            slots[l.name] = "partner_1" if i == 0 else "partner_2"
    return slots


class Program:
    """An immutable registry of validated behaviour definitions."""

    def __init__(self, defs: Sequence[ast.BehaviorDefinition]):
        self.defs: Tuple[ast.BehaviorDefinition, ...] = tuple(defs)
        self.by_name: Dict[str, ast.BehaviorDefinition] = {d.name: d for d in self.defs}

    @classmethod
    def parse(cls, source: str) -> "Program":
        return cls(parse_program(source))

    @classmethod
    def from_files(cls, paths: Iterable) -> "Program":
        defs: List[ast.BehaviorDefinition] = []
        for p in paths:
            defs.extend(parse_program(Path(p).read_text(encoding="utf-8")))
        return cls(defs)

    def definition(self, name: str) -> ast.BehaviorDefinition:
        d = self.by_name.get(name)
        if d is None:
            raise UnknownName(f"no behaviour named {name!r}")
        return d

    def has(self, name: str) -> bool:
        return name in self.by_name

    def creates(self, name: str, kind: str) -> Tuple[str, ...]:
        """The behaviours of this kind that the named definition creates,
        in the order its bodies create them, `init` first."""
        return tuple(
            act.behavior
            for m in self.definition(name).bodies()
            for act in m.body
            if isinstance(act, ast.CreateAct)
            and act.behavior in self.by_name
            and self.by_name[act.behavior].kind == kind
        )

    def creator(self, name: str, kind: str) -> Optional[ast.BehaviorDefinition]:
        """The first definition of this kind that creates the named
        behaviour in any of its bodies."""
        created = self.definition(name).kind
        return next(
            (d for d in self.defs if d.kind == kind and name in self.creates(d.name, created)),
            None,
        )

    def validate(self) -> Tuple[Diagnostic, ...]:
        return validate(self.defs)


# -- state access ------------------------------------------------------------


def _plain_names(d: ast.BehaviorDefinition) -> Dict[str, Value]:
    """Names held in local state (not link slots) with their defaults."""
    slots = link_slots(d)
    names: Dict[str, Value] = {}
    for l in d.links:
        if l.name not in slots:
            names[l.name] = None
    for v in d.variables:
        names[v.name] = _DEFAULTS.get(v.type)
    for m in d.bodies():
        for a in m.body:
            if isinstance(a, ast.CreateAct) and a.bind_to not in slots:
                names.setdefault(a.bind_to, None)
    return names


def actor_env(program: Program, actor: ActorTerm) -> ast.Env:
    d = program.definition(actor.behavior)
    links_view = {
        name: getattr(actor.links, slot) for name, slot in link_slots(d).items()
    }
    return ast.Env(actor.addr, (dict(actor.state.vars), links_view))


def write_name(program: Program, actor: ActorTerm, name: str, value: Value) -> ActorTerm:
    d = program.definition(actor.behavior)
    slots = link_slots(d)
    if name in slots:
        if value is not None and not isinstance(value, Address):
            raise UnknownName(f"{name!r} holds an actor reference, not {value!r}")
        links = dataclasses.replace(actor.links, **{slots[name]: value})
        return actor.evolve(links=links)
    if not actor.state.has(name):
        raise UnknownName(f"{actor.behavior} has no name {name!r}")
    return actor.evolve(state=actor.state.set(name, value))


def eval_in_state(program: Program, actor: ActorTerm, expr: ast.Expr) -> Value:
    return ast.eval_expr(expr, actor_env(program, actor))


# -- instantiation and method loading ----------------------------------------


def absorb(program: Program, actor: ActorTerm) -> ActorTerm:
    """Fold leading assignments and opaque actions into the state.

    Afterwards the queue head, if any, is a send or a create.  A Running
    actor whose queue drains stays Running; signalling readiness is the
    engine's step, not a state-access side effect.
    """
    queue = actor.state.queue
    while queue:
        head = queue[0]
        if isinstance(head, _OBSERVABLE):
            break
        if isinstance(head, ast.Assign):
            actor = write_name(program, actor, head.name,
                               eval_in_state(program, actor, head.expr))
        # OpaqueLocal: no effect by construction
        queue = queue[1:]
        actor = actor.evolve(state=actor.state.with_queue(queue))
        queue = actor.state.queue
    return actor


def instantiate(
    program: Program,
    behavior_name: str,
    args: Sequence[Value],
    alloc: AddressAllocator,
    *,
    addr: Optional[Address] = None,
    tau: Optional[Address] = None,
    links: Optional[Links] = None,
) -> ActorTerm:
    """Build a fresh actor term for the named behaviour.

    The caller owns what birth implies at fragment level: the signals
    terms.birth_signals gives the newborn.
    """
    d = program.definition(behavior_name)
    n_params = len(d.init.params) if d.init else 0
    if len(args) != n_params:
        raise ArityMismatch(
            f"{behavior_name} init takes {n_params} argument(s), got {len(args)}"
        )
    if addr is None:
        addr = alloc.fresh(d.kind, hint=d.name)
    if links is None:
        links = Links(d.kind)
    state = LocalState(behavior=d.name, queue=tuple(d.init.body) if d.init else ())
    for name, default in sorted(_plain_names(d).items()):
        state = state.set(name, default)
    actor = ActorTerm(
        p=ProcessingState.RUNNING,
        addr=addr,
        state=state,
        last_signal=Event.READY,
        tau=tau if tau is not None else addr,
        links=links,
    )
    if d.init:
        for (_ptype, pname), v in zip(d.init.params, args):
            actor = actor.evolve(state=actor.state.set(pname, v))
    actor = absorb(program, actor)
    if tau is None and d.kind == "AA" and actor.links.owner_wso is not None:
        actor = actor.evolve(tau=actor.links.owner_wso)
    if not actor.state.queue:
        actor = actor.evolve(p=ProcessingState.READY, last_signal=Event.READY)
    return actor


def _method(
    program: Program, actor: ActorTerm, method_name: str, args: Sequence[Value]
) -> ast.MethodDefinition:
    """The method a call to the actor binds to, checked against its arity."""
    m = program.definition(actor.behavior).method(method_name)
    if m is None:
        raise UnknownMethod(f"{actor.behavior} has no method {method_name!r}")
    if len(args) != len(m.params):
        raise ArityMismatch(
            f"{actor.behavior}.{method_name} takes {len(m.params)} argument(s), "
            f"got {len(args)}"
        )
    return m


def _bind(actor: ActorTerm, m: ast.MethodDefinition, args: Sequence[Value]) -> LocalState:
    """The actor's state with the call's arguments in the method's parameters."""
    state = actor.state
    for (_ptype, pname), v in zip(m.params, args):
        state = state.set(pname, v)
    return state


def load_method(
    program: Program,
    actor: ActorTerm,
    method_name: str,
    args: Sequence[Value],
) -> ActorTerm:
    """Bind a delivered call's parameters and queue its body."""
    m = _method(program, actor, method_name, args)
    state = _bind(actor, m, args).with_queue(tuple(m.body))
    return absorb(program, actor.evolve(p=ProcessingState.RUNNING, state=state))


def guard_accepts(
    program: Program, actor: ActorTerm, method_name: str, args: Sequence[Value]
) -> bool:
    """Evaluate a method guard against the current state and call arguments."""
    m = _method(program, actor, method_name, args)
    if isinstance(m.guard, ast.Lit) and m.guard.value is True:
        return True  # the default guard: nothing to evaluate
    value = eval_in_state(program, actor.evolve(state=_bind(actor, m, args)), m.guard)
    if not isinstance(value, bool):
        raise EvalTypeError(f"guard of {actor.behavior}.{method_name} is not boolean")
    return value


def initial_configuration(
    program: Program, name: str, alloc: AddressAllocator
) -> Configuration:
    """A closed configuration holding one freshly instantiated actor.

    If the newborn has no queued work its ready signal is already in the
    fragment, mirroring what a create step would have produced.
    """
    actor = instantiate(program, name, [], alloc)
    return Configuration(Fragment.make(actors=[actor], events=birth_signals(actor)))
