"""Command-line front end.

Three commands over a corpus of .abwscl files: `run` instantiates a
choreography and rewrites it to quiescence, `check` decides whether two
sides compose at a named boundary, `export` writes a skeleton service
document.  Verdicts are printed twice: one JSON line for machines, then
prose.  Exit codes: 0 success/composable, 1 unparseable or invalid input
(a kind mismatch in `check`, an error raised while `run` evaluates the
program, and an `--out` path that cannot be written, such as one in a
missing directory, included), 2 unknown name, 3 step limit reached,
4 incompatible, 5 member overlap, 6 export kind mismatch.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import interaction, wsmap
from .engine import run as engine_run
from .errors import (
    AbwsclError,
    NotAWS,
    NotAWSC,
    NotAWSO,
    ParseError,
    RoleCountMismatch,
)
from .program import Program, initial_configuration
from .terms import Address, AddressAllocator

OK, INVALID, UNKNOWN, STEP_LIMIT, INCOMPATIBLE, OVERLAP, KIND_MISMATCH = range(7)


def cmd_run(program: Program, args: argparse.Namespace, out=sys.stdout, err=sys.stderr) -> int:
    try:
        config = initial_configuration(program, args.name, AddressAllocator())
        trace = engine_run(program, config, max_steps=args.max_steps, seed=args.seed)
    except AbwsclError as e:
        print(f"error: {e}", file=err)
        return INVALID
    text = trace.text()
    if args.out is None:
        out.write(text)
    else:
        args.out.write_bytes(text.encode("utf-8"))
    return OK if trace.quiescent else STEP_LIMIT


def cmd_check(program: Program, args: argparse.Namespace, out=sys.stdout, err=sys.stderr) -> int:
    name_a, name_b, boundary = args.name_a, args.name_b, args.boundary
    try:
        kind = program.definition(name_a).kind
        # one name fits both sides only at the boundary between two of its
        # kind; elsewhere check_pair's kind check refuses it
        if name_a == name_b and boundary == f"{kind}-{kind}".lower():
            # both sides are the same fragment: every member is shared
            verdict = interaction.Verdict(
                kind="MemberOverlap",
                depth=args.depth or 0,
                explored=0,
                overlap=(Address(name_a, kind),),
            )
        else:
            pc_a, pc_m = interaction.check_pair(program, name_a, name_b, boundary)
            verdict = interaction.composable(pc_a, pc_m, args.depth)
    except AbwsclError as e:
        print(f"error: {e}", file=err)
        return INVALID
    record = {
        "verdict": verdict.kind,
        "boundary": boundary,
        "depth": verdict.depth,
        "sequences-explored": verdict.explored,
    }
    if verdict.missing:
        record["missing"] = list(verdict.missing)
    if verdict.witness is not None:
        record["witness"] = [s.label() for s in verdict.witness]
    if verdict.overlap:
        record["overlap"] = [a.canon() for a in verdict.overlap]
    print(json.dumps(record, sort_keys=True), file=out)
    if verdict.kind == "Composable":
        print(f"{name_a} and {name_b} are composable at {boundary}.", file=out)
        return OK
    if verdict.kind == "MemberOverlap":
        shared = ", ".join(a.canon() for a in verdict.overlap)
        print(f"{name_a} and {name_b} share members: {shared}.", file=out)
        return OVERLAP
    print(
        f"{name_a} and {name_b} are not composable at {boundary}; "
        f"first unmet step: {verdict.missing[0]}.",
        file=out,
    )
    for s in verdict.witness or ():
        print(f"  {s.label()}", file=out)
    return INCOMPATIBLE


def cmd_export(program: Program, args: argparse.Namespace, out=sys.stdout, err=sys.stderr) -> int:
    try:
        skeleton = wsmap.export(program, args.target, args.name)
    except (NotAWS, NotAWSO, NotAWSC, RoleCountMismatch) as e:
        print(f"error: {e}", file=err)
        return KIND_MISMATCH
    path = args.out / wsmap.export_file_name(args.target, args.name)
    path.write_bytes(skeleton.to_bytes())
    print(path, file=out)
    return OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="abwscl")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="rewrite a choreography to quiescence")
    r.add_argument("name")
    r.add_argument("corpus", nargs="+", type=Path)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--max-steps", type=int, default=1000)
    r.add_argument("--out", type=Path, default=None)

    c = sub.add_parser("check", help="decide composability at a boundary")
    c.add_argument("name_a")
    c.add_argument("name_b")
    c.add_argument("boundary", choices=interaction.BOUNDARIES[:1] + interaction.BOUNDARIES[2:])
    c.add_argument("corpus", nargs="+", type=Path)
    c.add_argument("--depth", type=int, default=None)

    e = sub.add_parser("export", help="write a skeleton service document")
    e.add_argument("target", choices=("wsdl", "bpel", "cdl"))
    e.add_argument("name")
    e.add_argument("corpus", nargs="+", type=Path)
    e.add_argument("--out", type=Path, default=Path("."))
    return p


COMMANDS = {"run": cmd_run, "check": cmd_check, "export": cmd_export}


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout, err=sys.stderr) -> int:
    args = _parser().parse_args(argv)
    names = (args.name_a, args.name_b) if args.command == "check" else (args.name,)
    try:
        if args.command == "run" and args.max_steps <= 0:
            raise ValueError("max-steps must be positive")
        if args.command == "check" and args.depth is not None and args.depth <= 0:
            raise ValueError("depth must be positive")
        program = Program.from_files(args.corpus)
        diags = program.validate()
        for d in diags:
            print(f"invalid: {d}", file=err)
        if diags:
            return INVALID
        for name in names:
            if not program.has(name):
                print(f"error: no behaviour named {name!r}", file=err)
                return UNKNOWN
        return COMMANDS[args.command](program, args, out=out, err=err)
    # a file that cannot be read, decoded or parsed (the ParseError names
    # it), a flag out of range, or an output path that cannot be written
    except (OSError, ParseError, ValueError) as e:
        print(f"error: {e}", file=err)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
