"""Known-dangerous mutants of the library, each killed by a named check.

A mutant is a function, a text in its source, the text that replaces it and
the check that must then fail, or a tuple of checks that must each fail.
The source must hold the old text exactly once, so that a refactor that
moves the text fails here instead of testing nothing.  The mutated source
is compiled in the function's module and its code is patched into the
function itself, so every reference to it, a name imported elsewhere or a
recursive call included, runs the mutant.  A mutant of a compiled closure
patches the ``_Compiler`` method that builds it, and its check compiles
again.
"""

import __future__
import inspect
import textwrap

import pytest

from heapinv.chc import _Translator, emit_smtlib
from heapinv.corpus import corpus_by_name, encode_variant, load_corpus
from heapinv.encode import _HeapEncoder, enc_r
from heapinv.fixpoint import (
    GridExecutor, InputDomain, _AnyAddress, check_safety,
    verdict_from_executor,
)
from heapinv.interp import _Compiler, draw_code
from heapinv.lang import (
    _tokenize, parse_and_check, query_positions, variable_uses,
    walk_statements,
)

import test_acceptance
import test_chc
import test_chc_ground
import test_chc_layout
import test_encode
import test_fixpoint
import test_front_end
import test_interp
import test_lang
import test_walks


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


def chc_layout_check():
    test_chc_layout.test_layout_translation_matches_the_contracted_reference(
        load_corpus())


def verdict_check(name, variant):
    """The entry's verdict under the variant is the manifest's."""
    entry = corpus_by_name()[name]
    p = encode_variant(entry, entry.load(), variant)
    assert check_safety(p, InputDomain()).kind == entry.expected, name


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
    # the walk visits an if's else branch before its then branch
    "walk-else-before-then": (
        walk_statements,
        "push(s.els)\n            push(s.then)",
        "push(s.then)\n            push(s.els)",
        lambda: test_walks.check_walks(test_walks.corpus_programs())),
    # a bare variable operand of != counts as a use beyond equality tests
    "ne-operand-used-loosely": (
        variable_uses,
        'if e.op == "=" or e.op == "!=":',
        'if e.op == "=":',
        lambda: test_walks.check_walks(
            test_walks.progen_programs(range(200)))),
    # encoder: a read havocs its value and assumes R whatever its address,
    # as if no read were at $last_addr
    "read-without-last-addr-test": (
        _HeapEncoder.encode,
        "out: list[Stmt] = [_if(_eq(_v(LAST_ADDR_VAR), _v(s.addr)), then, els)]",
        "out: list[Stmt] = els",
        lambda: verdict_check("single-read-wrong", "r")),
    # address classing: the probe records none of the values it is
    # compared with, so no explicit address is ever run
    "probe-records-nothing": (
        _AnyAddress.__eq__,
        "self.compared.add(other)",
        "pass",
        address_check),
    # seed classing: a leaf's class is marked (and weighed) with half its
    # stride, so it claims seeds that draw other values
    "class-marked-with-half-stride": (
        GridExecutor._run_seeds,
        "step = 1 << bits if classing else n",
        "step = (1 << bits >> 1 or 1) if classing else n",
        test_fixpoint.test_seed_classing_matches_full_enumeration),
    # CHC: a predicate assert becomes a query clause with the predicate in
    # its body instead of a clause that derives it
    "assert-pred-in-clause-body": (
        _Translator.translate,
        "self.clause(app, [PredApp(pre, self.args)], [])",
        "self.clause(None, [PredApp(pre, self.args), app], [])",
        test_chc_ground.test_ground_saturation_matches_oracle),
    # CHC: a test's condition goes on its else edge and its negation on
    # its then edge
    "branch-edges-swapped": (
        _Translator.translate,
        'self.goto(pre, post, [cond])\n'
        '            self.goto(pre, locs[els], [("not", cond)])',
        'self.goto(pre, post, [("not", cond)])\n'
        '            self.goto(pre, locs[els], [cond])',
        (chc_layout_check,
         test_chc_ground.test_ground_saturation_matches_oracle)),
    # encoder: scope variables are appended to W's applications and
    # declaration as well as to R's, so a read whose scope variable
    # changed since the write finds no tuple
    "scope-vars-on-w": (
        _HeapEncoder.__init__,
        "self.scope = {READ_PRED: config.scope_vars}",
        "self.scope = {READ_PRED: config.scope_vars,\n"
        "                  WRITE_PRED: config.scope_vars}",
        lambda: test_encode.check_scoped_verdicts("rw", seeds=())),
    # encoder: the removed positions leave an application before its scope
    # arguments are appended, so an index past the plain arguments removes
    # nothing
    "drop-before-scope": (
        _HeapEncoder._final,
        "if scope:\n"
        "        xs = xs + [of_var(nm) for nm in scope]\n"
        "    drop = self.drop.get(pred)\n"
        "    if drop:\n"
        "        xs = [x for i, x in enumerate(xs) if i not in drop]\n",
        "drop = self.drop.get(pred)\n"
        "    if drop:\n"
        "        xs = [x for i, x in enumerate(xs) if i not in drop]\n"
        "    if scope:\n"
        "        xs = xs + [of_var(nm) for nm in scope]\n",
        lambda: test_encode.check_one_pass(test_encode.one_pass_cases(
            [("single-read", parse_and_check(test_encode.SINGLE_READ))]))),
    # lexer: a gap's newlines (a comment's line end among them) advance
    # the line but leave the column counting on from the line before
    "column-not-reset-after-a-gap-newline": (
        _tokenize,
        'col = len(gap) - gap.rfind("\\n")',
        "col += len(gap)",
        lambda: test_front_end.check_tokens(test_front_end.corpus_sources())),
    # input classing: a predicate whose queries hold the input at
    # different positions still lets the least input stand for the range
    "input-positions-unchecked": (
        query_positions,
        "if positions.setdefault(s.pred, at) != at:\n"
        "                return None",
        "positions.setdefault(s.pred, at)",
        test_fixpoint.test_input_classing_keeps_the_full_grid),
    # input classing: a class of the least input that exhausted its fuel
    # counts once, not once per input of the range
    "inconclusive-not-scaled": (
        verdict_from_executor,
        "info.interp.sizes(), True, inputs)",
        "info.interp.sizes(), True)",
        test_fixpoint.test_classed_inconclusive_count_is_the_full_grid_count),
}


@pytest.mark.parametrize("func,old,new,check", MUTANTS.values(),
                         ids=MUTANTS)
def test_mutant_is_killed(monkeypatch, func, old, new, check):
    checks = check if isinstance(check, tuple) else (check,)
    for c in checks:
        c()
    mutate(monkeypatch, func, old, new)
    for c in checks:
        with pytest.raises(AssertionError):
            c()
