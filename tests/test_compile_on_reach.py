"""Compiling on first reach against compiling everything up front.

The executor compiles a program's nodes region by region as runs reach
them (``interp._Compiler.code``).  The reference here is the eager
compile: every node of ``lang.layout`` in node order, then the draw
sites, before any run.  After real runs, every node a run compiled must
equal the eager compile's, and compiling the rest must give exactly the
eager list.  Instructions are compared structurally (``same``), since two
compiles build distinct closure objects.
"""

from functools import partial
from operator import itemgetter
from types import BuiltinFunctionType, FunctionType

from heapinv.fixpoint import (
    GridExecutor, InputDomain, Interpretation, least_fixpoint_info,
)
from heapinv.interp import CompiledProgram, DrawSite
from heapinv.lang import AssertPred, AssumePred, layout

import progen


def same(a, b) -> bool:
    """Structural equality of compiled instructions and what they close
    over: a function by its code object and then each cell, recursively; a
    partial by its function and arguments; an ``itemgetter`` by the items
    it gets; a builtin method by its name and the type of its object (a
    compile's own ``input_compared.add``); anything else by value."""
    if type(a) is not type(b):
        return False
    if type(a) is FunctionType:
        cells_a, cells_b = a.__closure__ or (), b.__closure__ or ()
        return (a.__code__ is b.__code__ and a.__defaults__ == b.__defaults__
                and len(cells_a) == len(cells_b)
                and all(same(x.cell_contents, y.cell_contents)
                        for x, y in zip(cells_a, cells_b)))
    if type(a) is partial:
        return (same(a.func, b.func) and same(a.args, b.args)
                and same(a.keywords, b.keywords))
    if type(a) is itemgetter:
        return a.__reduce__() == b.__reduce__()
    if type(a) is BuiltinFunctionType:
        return (a.__name__ == b.__name__
                and type(a.__self__) is type(b.__self__))
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def same_site(a: DrawSite, b: DrawSite) -> bool:
    """Draw sites by their start, their drawers and their drawn positions."""
    return (a.start == b.start and same(a._drawers, b._drawers)
            and a._drawn_args == b._drawn_args and same(a.drawn, b.drawn)
            and same(a.splice, b.splice))


def table_groups(sites: dict) -> set:
    """The partition of the sites' starts by the shape table they share."""
    groups: dict[int, set] = {}
    for k, site in sites.items():
        groups.setdefault(id(site._tables), set()).add(k)
    return {frozenset(g) for g in groups.values()}


def eager_compile(cp: CompiledProgram) -> tuple[list, dict]:
    """The program of ``cp`` compiled before any run, in its mode: every
    node of the layout in node order, then the draw sites, whose shape
    tables are shared by shape."""
    comp = CompiledProgram(cp.program, cp.mode)._compiler
    flat = layout(cp.program.body)
    code = [comp.instr(node, me, nxt) if kind == "do"
            else comp.test(kind, node, nxt, els)
            for me, (kind, node, nxt, els) in enumerate(flat)]
    shapes: dict = {}
    sites = {k: DrawSite(k, cp.program.seed_var,
                         [(flat[j][1].target, comp._drawers[j])
                          for j in range(k, q)], flat[q][1], shapes)
             for k, q in comp._spans.items()}
    return code, sites


def compiled_nodes(cp: CompiledProgram) -> list[int]:
    """The indices of the nodes compiled so far: neither untouched nor
    holding a stub."""
    stubbed = set(cp._compiler._stubbed)
    return [j for j, f in enumerate(cp.code)
            if f is not None and j not in stubbed]


def check_against_eager(cp: CompiledProgram, label,
                        rest: bool = True) -> int:
    """Every node and site the runs compiled equals the eager compile's;
    with ``rest``, compiling the rest then gives the eager list.  Returns
    the number of nodes that the runs compiled."""
    code, sites = eager_compile(cp)
    # the predicates in the order of their first query, as the eager
    # compile numbered them
    queries = [node.pred for _, node, _, _ in layout(cp.program.body)
               if type(node) in (AssumePred, AssertPred)]
    assert cp.preds == tuple(dict.fromkeys(queries)), label
    assert len(cp.code) == len(code), label
    done = compiled_nodes(cp)
    for j in done:
        assert same(cp.code[j], code[j]), (label, j)
    assert sorted(cp.sites) == [k for k in sorted(sites) if k in done], label
    for k, site in cp.sites.items():
        assert same_site(site, sites[k]), (label, k)
    if not rest:
        return len(done)
    if code:
        cp._compiler._reach(0, True)
    assert compiled_nodes(cp) == list(range(len(code))), label
    assert all(map(same, cp.code, code)), label
    assert sorted(cp.sites) == sorted(sites), label
    assert all(same_site(cp.sites[k], sites[k]) for k in sites), label
    assert table_groups(cp.sites) == table_groups(sites), label
    return len(done)


def test_compiling_on_first_reach_equals_the_eager_compile(corpus_matrix,
                                                           domain):
    fixed = []  # the matrix tasks' fixed points
    swept = []  # one application of T from the empty interpretation
    for name, row in corpus_matrix.items():
        if name == "__build_seconds__":
            continue
        for variant, info in row.fixinfo.items():
            fixed.append(((name, variant), info.executor.compiled))
            program = row.encoded.get(variant, row.program)
            ex = GridExecutor(program, domain)
            ex.run_all(Interpretation.empty())
            swept.append(((name, variant, "sweep"), ex.compiled))
    assert len(fixed) == 242
    # generated programs, with and without draws, run in both modes: the
    # sequence mode to its fixed point, the trace mode under it
    small = InputDomain(in_range=(-1, 1), seed_range=(0, 15))
    generated = []
    for seed in range(60):
        for havoc in (False, True):
            p = progen.gen_program(seed, allow_havoc=havoc)
            info = least_fixpoint_info(p, small)
            trace = CompiledProgram(p, mode="trace")
            for in_v in (-1, 0, 1):
                for s in range(4):
                    trace.run({"in": in_v, "seed": s}, interp=info.interp)
            generated += [((seed, havoc), info.executor.compiled),
                          ((seed, havoc, "trace"), trace)]
    # the session's fixed points are shared: their rest is left alone
    for label, cp in fixed:
        check_against_eager(cp, label, rest=False)
    for label, cp in generated:
        check_against_eager(cp, label)
    reached = sum(check_against_eager(cp, label) for label, cp in swept)
    nodes = sum(len(cp.code) for _, cp in swept)
    # the runs of one application from the empty interpretation stop at
    # their first predicate query, so most of the matrix stays uncompiled
    assert reached < nodes, (reached, nodes)
