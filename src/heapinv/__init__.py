"""heapinv: heap-eliminating program encodings over uninterpreted
predicates, a bounded differential safety oracle, and Horn clause
emission.

Each exported name is loaded from its module on first use, so that
importing the package loads none of its modules."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "lang": ("Program", "SourceError", "Diagnostic", "parse_and_check",
             "parse_program", "pretty_print", "typecheck"),
    "interp": ("Bot", "CompiledProgram", "ObjVal", "Top", "Undefined"),
    "fixpoint": ("InputDomain", "Interpretation", "check_equisafety",
                 "check_safety", "immediate_consequence", "least_fixpoint"),
    "replay": ("cosim_check",),
    "encode": ("EncodedProgram", "EncodingConfig", "enc_n", "enc_r", "enc_rw",
               "enc_rwfun", "enc_rwmem"),
    "chc": ("ClauseSet", "emit_smtlib", "solve", "to_chc"),
    "formula": ("FormulaInterpretation", "load_interpretation"),
    "corpus": ("CorpusEntry", "load_corpus"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
