import ast
import sys
from pathlib import Path

import heapinv

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
    # the walk reaches the modules' imports and skips those in functions
    assert {"dataclasses", "subprocess"} <= seen and "z3" not in seen


def test_every_exported_name_resolves():
    missing = [name for name in heapinv.__all__
               if not hasattr(heapinv, name)]
    assert missing == []
    assert len(set(heapinv.__all__)) == len(heapinv.__all__)
