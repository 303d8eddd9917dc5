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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

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


@dataclass
class RunConfig:
    corpus: Tuple[Path, ...]
    name: str
    seed: int = 0
    max_steps: int = 1000
    out: Optional[Path] = None
    depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ValueError("max-steps must be positive")
        if self.depth is not None and self.depth <= 0:
            raise ValueError("depth must be positive")


def _load(corpus: Sequence[Path], err) -> Optional[Program]:
    try:
        program = Program.from_files(corpus)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=err)
        return None
    diags = program.validate()
    if diags:
        for d in diags:
            print(f"invalid: {d}", file=err)
        return None
    return program


def _write(path: Path, data: bytes, err) -> bool:
    """Write an output file; report an error and return False when the
    path cannot be written."""
    try:
        path.write_bytes(data)
    except OSError as e:
        print(f"error: {e}", file=err)
        return False
    return True


def cmd_run(cfg: RunConfig, out=sys.stdout, err=sys.stderr) -> int:
    program = _load(cfg.corpus, err)
    if program is None:
        return INVALID
    if not program.has(cfg.name):
        print(f"error: no behaviour named {cfg.name!r}", file=err)
        return UNKNOWN
    try:
        config = initial_configuration(program, cfg.name, AddressAllocator())
        trace = engine_run(program, config, max_steps=cfg.max_steps, seed=cfg.seed)
    except AbwsclError as e:
        print(f"error: {e}", file=err)
        return INVALID
    text = trace.text()
    if cfg.out is None:
        out.write(text)
    elif not _write(cfg.out, text.encode("utf-8"), err):
        return INVALID
    return OK if trace.quiescent else STEP_LIMIT


def cmd_check(
    cfg: RunConfig, name_b: str, boundary: str, out=sys.stdout, err=sys.stderr
) -> int:
    program = _load(cfg.corpus, err)
    if program is None:
        return INVALID
    for name in (cfg.name, name_b):
        if not program.has(name):
            print(f"error: no behaviour named {name!r}", file=err)
            return UNKNOWN
    try:
        kind = program.definition(cfg.name).kind
        # one name fits both sides only at the boundary between two of its
        # kind; elsewhere check_pair's kind check refuses it
        if cfg.name == name_b and boundary == f"{kind}-{kind}".lower():
            # both sides are the same fragment: every member is shared
            verdict = interaction.Verdict(
                kind="MemberOverlap",
                depth=cfg.depth or 0,
                explored=0,
                overlap=(Address(cfg.name, kind),),
            )
        else:
            pc_a, pc_m = interaction.check_pair(program, cfg.name, name_b, boundary)
            verdict = interaction.composable(pc_a, pc_m, cfg.depth)
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
        print(f"{cfg.name} and {name_b} are composable at {boundary}.", file=out)
        return OK
    if verdict.kind == "MemberOverlap":
        shared = ", ".join(a.canon() for a in verdict.overlap)
        print(f"{cfg.name} and {name_b} share members: {shared}.", file=out)
        return OVERLAP
    print(
        f"{cfg.name} and {name_b} are not composable at {boundary}; "
        f"first unmet step: {verdict.missing[0]}.",
        file=out,
    )
    for s in verdict.witness or ():
        print(f"  {s.label()}", file=out)
    return INCOMPATIBLE


def cmd_export(
    cfg: RunConfig, target: str, out_dir: Path, out=sys.stdout, err=sys.stderr
) -> int:
    program = _load(cfg.corpus, err)
    if program is None:
        return INVALID
    if not program.has(cfg.name):
        print(f"error: no behaviour named {cfg.name!r}", file=err)
        return UNKNOWN
    try:
        skeleton = wsmap.export(program, target, cfg.name)
    except (NotAWS, NotAWSO, NotAWSC, RoleCountMismatch) as e:
        print(f"error: {e}", file=err)
        return KIND_MISMATCH
    path = out_dir / wsmap.export_file_name(target, cfg.name)
    if not _write(path, skeleton.to_bytes(), err):
        return INVALID
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


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout, err=sys.stderr) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = RunConfig(
                corpus=tuple(args.corpus), name=args.name,
                seed=args.seed, max_steps=args.max_steps, out=args.out,
            )
            return cmd_run(cfg, out=out, err=err)
        if args.command == "check":
            cfg = RunConfig(
                corpus=tuple(args.corpus), name=args.name_a, depth=args.depth
            )
            return cmd_check(cfg, args.name_b, args.boundary, out=out, err=err)
        cfg = RunConfig(corpus=tuple(args.corpus), name=args.name)
        return cmd_export(cfg, args.target, args.out, out=out, err=err)
    except ValueError as e:
        print(f"error: {e}", file=err)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
