"""The program walks of ``heapinv.lang`` against the versions they replaced.

``walk_statements``, ``variable_uses`` and ``expr_vars`` are loops over
explicit stacks that dispatch on a node's type.  The references below are
the versions they replaced: a recursive generator that yields each
statement through one ``yield from`` per level of nesting, use analyses
built on per-node lists of children, the input's query positions from a
walk of its own (``ref_query_positions``, once ``lang.query_positions``)
and a search for draw statements.  Both must give the same statement
objects in the same order, every field of the same use record and the
same variables of every expression.
"""

import pytest

from heapinv import fixpoint, interp, lang
from heapinv.corpus import VARIANTS, encode_variant, load_corpus
from heapinv.fixpoint import InputDomain, least_fixpoint_info
from heapinv.interp import CompiledProgram
from heapinv.lang import (
    Alloc, AssertExpr, AssertPred, Assign, AssumeExpr, AssumePred, Binary,
    Block, CtorApp, HavocStmt, If, NondetStmt, SelApp, Unary, Var, While,
    Write, expr_vars, parse_and_check, variable_uses, walk_statements,
)
from heapinv.lang import TestApp as IsCtor  # a Test* name would be collected

import progen
import test_fixpoint


def ref_walk_statements(stmt):
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            yield from ref_walk_statements(s)
        return
    yield stmt
    if isinstance(stmt, If):
        yield from ref_walk_statements(stmt.then)
        yield from ref_walk_statements(stmt.els)
    elif isinstance(stmt, While):
        yield from ref_walk_statements(stmt.body)


def ref_expr_children(e):
    if isinstance(e, Unary):
        return [e.operand]
    if isinstance(e, Binary):
        return [e.left, e.right]
    if isinstance(e, CtorApp):
        return list(e.args)
    if isinstance(e, (SelApp, IsCtor)):
        return [e.arg]
    return []


def ref_expr_vars(e):
    out = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            out.add(x.name)
        stack.extend(ref_expr_children(x))
    return out


def ref_stmt_exprs(s):
    if isinstance(s, (Assign, Alloc, Write, AssumeExpr, AssertExpr)):
        return [s.expr]
    if isinstance(s, (If, While)):
        return [s.cond]
    if isinstance(s, (AssumePred, AssertPred)):
        return list(s.args)
    return []


def ref_variable_uses(program):
    read, loose = set(), set()
    stack = []
    for s in ref_walk_statements(program.body):
        target = getattr(s, "target", None)
        if target is not None:
            loose.add(target)
        addr = getattr(s, "addr", None)
        if addr is not None:
            read.add(addr)
            loose.add(addr)
        stack.extend(ref_stmt_exprs(s))
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            read.add(e.name)
            loose.add(e.name)
        elif isinstance(e, Binary) and e.op in ("=", "!="):
            for c in (e.left, e.right):
                if isinstance(c, Var):
                    read.add(c.name)
                else:
                    stack.append(c)
        else:
            stack.extend(ref_expr_children(e))
    return read, loose


COMPARISONS = frozenset(("<", "<=", ">", ">=", "=", "!="))


def ref_query_positions(program, name):
    """The argument positions at which each queried predicate's assumes
    and asserts hold the variable ``name`` itself, or None unless every
    query of a predicate holds it at the same positions and nothing else
    reads or assigns it but a comparison (``COMPARISONS``) that has it as a
    bare operand: no other expression, argument, heap address operand or
    statement target."""
    positions = {}
    exprs = []
    expr = exprs.append
    for s in ref_walk_statements(program.body):
        t = type(s)
        if t is AssumePred or t is AssertPred:
            at = []
            for i, a in enumerate(s.args):
                if type(a) is Var and a.name == name:
                    at.append(i)
                else:
                    expr(a)
            at = tuple(at)
            if positions.setdefault(s.pred, at) != at:
                return None
            continue
        if name in (getattr(s, "target", None), getattr(s, "addr", None)):
            return None
        e = s.cond if t is If or t is While else getattr(s, "expr", None)
        if e is not None:
            expr(e)
    pop, push = exprs.pop, exprs.append
    while exprs:
        e = pop()
        t = type(e)
        if t is Var:
            if e.name == name:
                return None
        elif t is Binary:
            left, right = e.left, e.right
            if e.op in COMPARISONS:
                if type(left) is not Var or left.name != name:
                    push(left)
                if type(right) is not Var or right.name != name:
                    push(right)
            else:
                push(left)
                push(right)
        else:
            exprs.extend(ref_expr_children(e))
    return positions


def ref_draws(program):
    return any(isinstance(s, (HavocStmt, NondetStmt))
               for s in ref_walk_statements(program.body))


def ref_subexpressions(program):
    stack = [e for s in ref_walk_statements(program.body)
             for e in ref_stmt_exprs(s)]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(ref_expr_children(e))


def check_walks(programs) -> tuple[int, set[bool]]:
    """Each program's walks against the references; returns the number of
    expressions compared and whether inputs with and without query
    positions were met."""
    exprs, has_positions = 0, set()
    for label, p in programs:
        got = list(walk_statements(p.body))
        want = list(ref_walk_statements(p.body))
        assert len(got) == len(want), label
        assert all(a is b for a, b in zip(got, want)), label
        uses = variable_uses(p)
        assert (uses.read, uses.loose) == ref_variable_uses(p), label
        positions = (None if p.input_var is None
                     else ref_query_positions(p, p.input_var))
        assert uses.input_positions == positions, label
        assert uses.draws == ref_draws(p), label
        has_positions.add(positions is not None)
        for e in ref_subexpressions(p):
            assert expr_vars(e) == ref_expr_vars(e), (label, e)
            exprs += 1
    return exprs, has_positions


def corpus_programs():
    for entry in load_corpus():
        source = entry.load()
        yield entry.name, source
        for variant in VARIANTS:
            p = encode_variant(entry, source, variant)
            if p is not None:
                yield f"{entry.name}/{variant}", p


def progen_programs(seeds):
    for seed in seeds:
        for havoc in (False, True):
            yield (f"progen {seed} havoc={havoc}",
                   progen.gen_program(seed, allow_havoc=havoc))


def site_programs():
    return ((name, parse_and_check(getattr(test_fixpoint, name)))
            for name in dir(test_fixpoint) if name.startswith("SITE_"))


def precondition_programs():
    """The input classing programs of ``test_fixpoint``: inputs read
    beyond queries and comparisons, only compared, and held by no query."""
    sources = {**{k: v[0] for k, v in
                  test_fixpoint.INPUT_NOT_ONLY_AN_INDEX.items()},
               **{k: v[0] for k, v in test_fixpoint.INPUT_COMPARED.items()},
               "input-free": test_fixpoint.INPUT_FREE_PREDICATE}
    return ((name, parse_and_check(src)) for name, src in sources.items())


@pytest.mark.parametrize("programs", [
    corpus_programs, lambda: progen_programs(range(200)), site_programs,
    precondition_programs],
    ids=["corpus", "progen", "sites", "preconditions"])
def test_walks_match_the_references(programs):
    exprs, has_positions = check_walks(programs())
    assert exprs > 0
    # every sample has programs whose input is seen only through queries
    # and comparisons and programs whose input is not
    assert has_positions == {True, False}


def test_one_use_walk_per_compiled_program(monkeypatch):
    # every grid saving reads the use record of the program's one
    # compilation: a fixed point walks its program once, and no statement
    # walk runs inside it
    programs = list(corpus_programs())
    calls = {"uses": 0, "compiled": 0}

    def uses(program):
        calls["uses"] += 1
        return variable_uses(program)

    def no_walk(stmt):
        raise AssertionError("a statement walk inside the fixed point")

    init = CompiledProgram.__init__

    def compile_counted(self, *args, **kwargs):
        calls["compiled"] += 1
        init(self, *args, **kwargs)

    for module in (fixpoint, interp, lang):
        for name, value in vars(module).items():
            if value is variable_uses:
                monkeypatch.setattr(module, name, uses)
            elif value is walk_statements:
                monkeypatch.setattr(module, name, no_walk)
    monkeypatch.setattr(CompiledProgram, "__init__", compile_counted)
    for label, p in programs:
        least_fixpoint_info(p, InputDomain())
    assert calls == {"uses": 242, "compiled": 242}
