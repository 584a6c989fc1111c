import argparse
import ast
import sys
from dataclasses import fields
from pathlib import Path

import heapinv
from heapinv.cli import build_parser
from heapinv.encode import EncodingConfig
from heapinv.fixpoint import InputDomain

SOURCES = sorted(Path(heapinv.__file__).parent.glob("*.py"))


def module_level_imports(tree: ast.AST):
    """The import statements run when the module is imported: those outside
    any function body.  An import inside a function (the optional z3
    bindings) runs only when the function is called."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        yield from module_level_imports(node)


def test_runtime_imports_only_the_standard_library():
    # README: the runtime has no dependencies outside the standard library
    seen, outside = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in module_level_imports(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                top = name.split(".")[0]
                seen.add(top)
                if top != "heapinv" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
    # the walk reaches the modules' imports and skips those in functions;
    # only the solver functions import subprocess, inside their bodies, so
    # that no other command pays for it at start-up
    assert "dataclasses" in seen
    assert not {"z3", "subprocess", "shlex", "shutil"} & seen


def test_every_exported_name_resolves():
    missing = [name for name in heapinv.__all__
               if not hasattr(heapinv, name)]
    assert missing == []
    assert len(set(heapinv.__all__)) == len(heapinv.__all__)


ENCODING = ("--enc", "--tag", "--cache", "--scope-vars", "--drop",
            "--assume-memsafe", "--native-havoc", "--strip-asserts",
            "--alloc-init-write")
DOMAIN = ("--in-range", "--seed-range", "--last-addr-range", "--loop-fuel",
          "--heap-op-fuel", "--iteration-cap")
# every knob of the library's configuration and of the command line
KNOBS = {
    "EncodingConfig": {"base", "tagging", "caching", "scope_vars",
                       "drop_args", "assume_memsafe", "native_havoc",
                       "strip_asserts", "alloc_init_write"},
    "InputDomain": {"in_range", "seed_range", "last_addr_range", "loop_fuel",
                    "heap_op_fuel", "iteration_cap"},
    "heapinv": {"-h", "--help"},
    "encode": {"-h", "--help", *ENCODING, "-o", "--output"},
    "run": {"-h", "--help", "--in", "--seed", "--last-addr", "--loop-fuel",
            "--heap-op-fuel", "--interp", "--trace-mode", "--all-inputs"},
    "fixpoint": {"-h", "--help", *DOMAIN, "--format"},
    "equisafe": {"-h", "--help", *ENCODING, *DOMAIN, "--cosim", "--format"},
    "emit-chc": {"-h", "--help", *ENCODING, "-o", "--output"},
    "solve": {"-h", "--help", "--solver", "--timeout"},
    "corpus": {"-h", "--help", "--enc", "--filter", *DOMAIN, "--format"},
}


def options(parser: argparse.ArgumentParser) -> set[str]:
    return {s for action in parser._actions for s in action.option_strings}


def test_no_knob_is_added_or_removed_silently():
    ap = build_parser()
    (sub,) = [a for a in ap._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {"EncodingConfig": {f.name for f in fields(EncodingConfig)},
           "InputDomain": {f.name for f in fields(InputDomain)},
           "heapinv": options(ap)}
    got.update({name: options(p) for name, p in sub.choices.items()})
    assert got == KNOBS, (
        "a new or removed option, flag or configuration field needs its "
        "justification under ROADMAP aim 2 (no new knobs) and a CHANGES.md "
        "line; then update KNOBS")
