"""heapinv: heap-eliminating program encodings over uninterpreted
predicates, a bounded differential safety oracle, and Horn clause
emission."""

from .lang import (
    Program, SourceError, Diagnostic, assign_locations, parse_and_check,
    parse_program, pretty_print, typecheck,
)
from .interp import Bot, CompiledProgram, ObjVal, Top, Undefined
from .fixpoint import (
    InputDomain, Interpretation, check_equisafety, check_safety,
    immediate_consequence, least_fixpoint,
)
from .replay import cosim_check
from .encode import (
    EncodedProgram, EncodingConfig, enc_n, enc_r, enc_rw, enc_rwfun,
    enc_rwmem,
)
from .chc import ClauseSet, emit_smtlib, solve, to_chc
from .formula import FormulaInterpretation, load_interpretation
from .corpus import CorpusEntry, load_corpus

__version__ = "0.1.0"

__all__ = [
    "Program", "SourceError", "Diagnostic", "assign_locations",
    "parse_and_check", "parse_program", "pretty_print", "typecheck",
    "Bot", "CompiledProgram", "ObjVal", "Top", "Undefined",
    "InputDomain", "Interpretation", "check_equisafety", "check_safety",
    "cosim_check", "immediate_consequence", "least_fixpoint",
    "EncodedProgram", "EncodingConfig", "enc_n", "enc_r", "enc_rw",
    "enc_rwfun", "enc_rwmem",
    "ClauseSet", "emit_smtlib", "solve", "to_chc",
    "FormulaInterpretation", "load_interpretation",
    "CorpusEntry", "load_corpus",
    "__version__",
]
