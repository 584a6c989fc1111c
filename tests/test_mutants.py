"""Known-dangerous mutants of the library, each killed by a named check.

A mutant is a function, a text in its source, the text that replaces it and
the check that must then fail.  The source must hold the old text exactly
once, so that a refactor that moves the text fails here instead of testing
nothing.  The mutated source is compiled in the function's module and its
code is patched into the function itself, so every reference to it, a
name imported elsewhere or a recursive call included, runs the mutant.  A
mutant of a compiled closure patches the ``_Compiler`` method that builds
it, and its check compiles again.
"""

import __future__
import inspect
import textwrap

import pytest

from heapinv.fixpoint import GridExecutor, InputDomain
from heapinv.interp import _Compiler, draw_code

import test_acceptance
import test_fixpoint
import test_lang


def mutate(monkeypatch, func, old: str, new: str) -> None:
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, f"{func.__qualname__}: {old!r}"
    code = compile(src.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    scope = {}
    exec(code, vars(inspect.getmodule(func)), scope)
    monkeypatch.setattr(func, "__code__", scope[func.__name__].__code__)


def rerun_check():
    with pytest.MonkeyPatch.context() as mp:
        test_fixpoint.test_record_rerun_needs_the_undrawn_arguments(
            InputDomain(), mp)


MUTANTS = {
    # a record reruns the classes that drew the added tuple's drawn value,
    # whatever the tuple's other arguments
    "rerun-without-splice": (
        GridExecutor.rerun_blocked,
        "and v not in excluded and site.splice(args, v) == t]",
        "and v not in excluded]",
        rerun_check),
    # a heap-mode read past the heap gives the first object, not the
    # default one
    "read-past-heap-gives-first": (
        _Compiler.instr,
        "env[t] = h[a - 1] if 0 < a <= len(h) else d",
        "env[t] = h[a - 1] if 0 < a <= len(h) else h[0] if h and a else d",
        lambda: test_acceptance.check_heap_laws([2])),
    # the inverse of the draw drops the sign bit of a negative Int
    "draw-code-without-sign": (
        draw_code,
        "code, nbits = (1 if v < 0 else 0), 1",
        "code, nbits = 0, 1",
        test_lang.test_draw_code_round_trip),
}


@pytest.mark.parametrize("func,old,new,check", MUTANTS.values(),
                         ids=MUTANTS)
def test_mutant_is_killed(monkeypatch, func, old, new, check):
    check()
    mutate(monkeypatch, func, old, new)
    with pytest.raises(AssertionError):
        check()
