"""The program walks of ``heapinv.lang`` against the versions they replaced.

``walk_statements``, ``variable_uses`` and ``expr_vars`` are loops over
explicit stacks that dispatch on a node's type.  The references below are
the versions they replaced: a recursive generator that yields each
statement through one ``yield from`` per level of nesting, and use
analyses built on per-node lists of children.  Both must give the same
statement objects in the same order, the same two use sets and the same
variables of every expression.
"""

import pytest

from heapinv.corpus import VARIANTS, encode_variant, load_corpus
from heapinv.lang import (
    Alloc, AssertExpr, AssertPred, Assign, AssumeExpr, AssumePred, Binary,
    Block, CtorApp, If, SelApp, Unary, Var, While, Write, expr_vars,
    parse_and_check, variable_uses, walk_statements,
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


def ref_subexpressions(program):
    stack = [e for s in ref_walk_statements(program.body)
             for e in ref_stmt_exprs(s)]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(ref_expr_children(e))


def check_walks(programs) -> int:
    """Each program's walks against the references; returns the number of
    expressions compared."""
    exprs = 0
    for label, p in programs:
        got = list(walk_statements(p.body))
        want = list(ref_walk_statements(p.body))
        assert len(got) == len(want), label
        assert all(a is b for a, b in zip(got, want)), label
        assert variable_uses(p) == ref_variable_uses(p), label
        for e in ref_subexpressions(p):
            assert expr_vars(e) == ref_expr_vars(e), (label, e)
            exprs += 1
    return exprs


def corpus_programs():
    for entry in load_corpus():
        source = entry.load()
        yield entry.name, source
        for variant in VARIANTS:
            p = encode_variant(entry, source, variant)
            if p is not None:
                yield f"{entry.name}/{variant}", p


def progen_programs(seeds):
    return ((f"progen {seed}", progen.gen_program(seed)) for seed in seeds)


def site_programs():
    return ((name, parse_and_check(getattr(test_fixpoint, name)))
            for name in dir(test_fixpoint) if name.startswith("SITE_"))


@pytest.mark.parametrize("programs", [
    corpus_programs, lambda: progen_programs(range(200)), site_programs],
    ids=["corpus", "progen", "sites"])
def test_walks_match_the_references(programs):
    assert check_walks(programs()) > 0
