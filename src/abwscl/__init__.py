"""An executable calculus of composing web services as actor systems.

Programs declare orchestration, interface, and choreography behaviours;
the engine rewrites configurations of actors concurrently, the
interaction module decides whether two sides compose at a boundary, and
the mapping module writes skeleton WSDL, BPEL, and CDL documents.
"""
from importlib import resources
from pathlib import Path

from .engine import FairRoundRobin, Trace, run
from .errors import AbwsclError, ParseError
from .interaction import (
    BOUNDARIES,
    InteractionSequence,
    InteractionStep,
    Verdict,
    admits_sequence,
    check_pair,
    compatible,
    composable,
    dual,
    interaction_semantics,
)
from .parser import parse_program
from .program import Program, initial_configuration
from .terms import AddressAllocator
from .validate import Diagnostic, validate
from .wsmap import export, export_bpel, export_cdl, export_wsdl

__all__ = [
    "AbwsclError",
    "AddressAllocator",
    "BOUNDARIES",
    "Diagnostic",
    "FairRoundRobin",
    "InteractionSequence",
    "InteractionStep",
    "ParseError",
    "Program",
    "Trace",
    "Verdict",
    "admits_sequence",
    "check_pair",
    "compatible",
    "composable",
    "corpus_path",
    "dual",
    "export",
    "export_bpel",
    "export_cdl",
    "export_wsdl",
    "initial_configuration",
    "interaction_semantics",
    "parse_program",
    "run",
    "validate",
]


def corpus_path() -> Path:
    """The bundled book-buying conversation, ready for Program.from_files."""
    return Path(resources.files(__package__) / "corpus" / "buying_books.abwscl")
