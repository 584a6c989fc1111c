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

from heapinv.chc import emit_smtlib
from heapinv.corpus import load_corpus
from heapinv.encode import enc_r
from heapinv.fixpoint import GridExecutor, InputDomain
from heapinv.interp import _Compiler, draw_code

import test_acceptance
import test_chc
import test_fixpoint
import test_interp
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


def address_check():
    p = enc_r(test_fixpoint.prog(test_fixpoint.NARROW_AT_ADDRESS)).program
    test_fixpoint.check_address_classing(p, InputDomain(), "narrow")


def record_offset_check():
    p = test_fixpoint.prog(test_fixpoint.SITE_AFTER_BRANCH)
    test_fixpoint.check_draw_sites(p, InputDomain(), "after-branch")


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
    # a heap-mode write at the null address changes the last object
    "write-at-null": (
        _Compiler.instr,
        "if 0 < a <= len(h):",
        "if 0 <= a <= len(h):",
        lambda: test_acceptance.check_heap_laws([2])),
    # a negated guard is rendered with an extra space
    "negated-guard-spacing": (
        emit_smtlib,
        'f"(not {guard(t[1])})"',
        'f"(not  {guard(t[1])})"',
        lambda: test_chc.test_golden_file_for_encoded_list_program(
            load_corpus())),
    # a sentinel record is kept without the explicit runs at the addresses
    # its run compared $last_addr with
    "sentinel-record-without-explicit-runs": (
        GridExecutor._run_class,
        "cell, interp, rec.compared,",
        "cell, interp, frozenset(),",
        address_check),
    # a draw site's point is taken after its first draw
    "site-point-after-the-first-draw": (
        _Compiler._havoc,
        "st.site = (st.bits, st.loop_fuel, tuple(env.values()))\n"
        "            env[target] = draw(st, env)",
        "env[target] = draw(st, env)\n"
        "            st.site = (st.bits, st.loop_fuel, tuple(env.values()))",
        test_interp.test_draw_site_point_is_the_state_before_the_draws),
    # a record's class offset is not scaled by the node's stride
    "record-class-offset-unscaled": (
        GridExecutor._classes,
        "rec.offset + (k << bits)",
        "rec.offset + k",
        record_offset_check),
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
