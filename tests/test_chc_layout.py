"""The Horn translation over ``lang.layout`` against the recursive
translator it replaced.

``ref_to_chc`` is that translator: it walks the statement tree and gives
every statement a location after it, an ``if`` a then, an else and a join
location and a ``while`` a head, a body and an exit location, joined by
empty ``goto`` clauses.  Every location it adds beyond the layout's nodes
has one outgoing clause, an identity copy ``L_a(state) -> L_b(state)``.
Contracting those copies keeps the least model of every other predicate,
so the contracted reference must equal ``to_chc`` up to a bijective
renaming of locations, and ``to_chc`` must have no such copy left."""

import re
from collections import Counter, defaultdict

from heapinv.chc import (
    ChcError, Clause, PredApp, _sort_of, _Translator, to_chc,
)
from heapinv.corpus import VARIANTS, encode_variant
from heapinv.encode import EncodingConfig, enc_r, enc_rw
from heapinv.lang import (
    Alloc, Assign, AssertExpr, AssertPred, AssumeExpr, AssumePred, Block,
    HavocStmt, If, NondetStmt, Read, Skip, Stmt, Var, While, Write, layout,
    parse_and_check,
)

import progen
import test_chc_ground


class _RefTranslator(_Translator):
    """The recursive translator: a location after every statement."""

    def __init__(self, program):
        super().__init__(program)
        self.loc_count = 0

    def new_loc(self) -> str:
        name = f"L{self.loc_count}"
        self.loc_count += 1
        self.cs.preds[name] = self.loc_sorts
        return name

    def translate(self):
        entry = self.new_loc()
        self.cs.entry = entry
        # single entry clause: every variable starts unconstrained
        self.clause(PredApp(entry, self.args), [], [])
        self.stmt(self.p.body, entry)
        return self.cs

    def stmt(self, s: Stmt, pre: str) -> str:
        if isinstance(s, Block):
            cur = pre
            for c in s.stmts:
                cur = self.stmt(c, cur)
            return cur
        if isinstance(s, Skip):
            return pre
        if isinstance(s, Assign):
            post = self.new_loc()
            # an argument tuple of its own, also for x := x, so that no
            # statement of the program is contracted as a copy
            args = list(self.args)
            args[self.slot[s.target]] = self.term(s.expr)
            self.goto(pre, post, [], tuple(args))
            return post
        if isinstance(s, (HavocStmt, NondetStmt)):
            post = self.new_loc()
            sort = _sort_of(self.p.var_types[s.target])
            fresh = self.fresh(s.target.replace("$", "_"))
            self.goto(pre, post, [], self.assigned(s.target, fresh),
                      extra_vars=((fresh, sort),))
            return post
        if isinstance(s, If):
            cond = self.formula(s.cond)
            then_in, else_in = self.new_loc(), self.new_loc()
            self.goto(pre, then_in, [cond])
            self.goto(pre, else_in, [("not", cond)])
            then_out = self.stmt(s.then, then_in)
            else_out = self.stmt(s.els, else_in)
            join = self.new_loc()
            self.goto(then_out, join, [])
            self.goto(else_out, join, [])
            return join
        if isinstance(s, While):
            head = self.new_loc()
            self.goto(pre, head, [])
            cond = self.formula(s.cond)
            body_in = self.new_loc()
            self.goto(head, body_in, [cond])
            body_out = self.stmt(s.body, body_in)
            self.goto(body_out, head, [])
            post = self.new_loc()
            self.goto(head, post, [("not", cond)])
            return post
        if isinstance(s, AssumeExpr):
            post = self.new_loc()
            self.goto(pre, post, [self.formula(s.expr)])
            return post
        if isinstance(s, AssertExpr):
            cond = self.formula(s.expr)
            self.clause(None, [PredApp(pre, self.args)], [("not", cond)])
            post = self.new_loc()
            self.goto(pre, post, [cond])
            return post
        if isinstance(s, AssumePred):
            post = self.new_loc()
            app = PredApp(s.pred, tuple(self.term(a) for a in s.args))
            self.goto(pre, post, [], extra_body=app)
            return post
        if isinstance(s, AssertPred):
            app = PredApp(s.pred, tuple(self.term(a) for a in s.args))
            self.clause(app, [PredApp(pre, self.args)], [])
            post = self.new_loc()
            self.goto(pre, post, [])
            return post
        if isinstance(s, (Alloc, Read, Write)):
            raise ChcError("program still contains heap statements; encode it first")
        raise ChcError(f"cannot translate statement {type(s).__name__}")


def ref_to_chc(program):
    return _RefTranslator(program).translate()


is_loc = re.compile(r"L\d+").fullmatch


def locations(cs) -> set:
    return {n for n in cs.preds if is_loc(n)}


def outgoing(clauses) -> dict:
    """Location -> the clauses with it in their body."""
    out = defaultdict(list)
    for cl in clauses:
        for a in cl.body:
            if is_loc(a.name):
                out[a.name].append(cl)
    return out


def is_copy(cs, cl) -> bool:
    """``L_a(state) -> L_b(state)``: no constraint, no other body atom, no
    variable beyond the state.  Both atoms hold the shared ``state_args``
    tuple, as a translator's own jump does.  An assignment ``x := x``
    copies the state too, but it is a statement of the program, a node of
    the layout: the reference builds its own argument tuple for it, and
    ``to_chc`` holds the shared one (``self_assignments``)."""
    state = cs.state_args
    return (cl.head is not None and is_loc(cl.head.name)
            and cl.head.args is state and len(cl.body) == 1
            and is_loc(cl.body[0].name) and cl.body[0].args is state
            and not cl.constraint and cl.vars == cs.state)


def copies(cs) -> dict:
    """Location -> the location its only outgoing clause copies it to, for
    each location whose only outgoing clause is an identity copy."""
    return {a: cls[0].head.name for a, cls in outgoing(cs.clauses).items()
            if len(cls) == 1 and is_copy(cs, cls[0])}


def contract(cs):
    """(entry, location names, clauses) with every identity copy contracted:
    a location whose only outgoing clause copies it to another is replaced
    by that one wherever a clause derives it."""
    target = copies(cs)

    def final(name):
        seen = set()
        while name in target:
            assert name not in seen, f"a cycle of copies through {name}"
            seen.add(name)
            name = target[name]
        return name

    clauses = []
    for cl in cs.clauses:
        if cl.body and cl.body[0].name in target:
            continue  # the copy itself
        head = cl.head
        if head is not None and is_loc(head.name):
            head = PredApp(final(head.name), head.args)
        clauses.append(Clause(head, cl.body, cl.constraint, cl.vars))
    return final(cs.entry), locations(cs) - target.keys(), clauses


def canonical(entry, locs, clauses) -> Counter:
    """The clauses as a multiset, each location renamed by its order in a
    depth-first walk from the entry that follows each location's outgoing
    clauses in the order of their texts with every location masked.  Two
    clause sets give the same multiset exactly when one is the other up to
    a bijective renaming of locations whose outgoing clauses differ in more
    than their locations."""
    def key(cl, name):
        head = cl.head
        atoms = (None if head is None else (name(head.name), head.args),
                 *((name(a.name), a.args) for a in cl.body))
        return atoms, tuple(cl.constraint), cl.vars

    def masked(n):
        return "@" if is_loc(n) else n

    out = outgoing(clauses)
    order = {}
    stack = [entry]
    while stack:
        loc = stack.pop()
        if loc in order:
            continue
        order[loc] = f"C{len(order)}"
        succ = [cl for cl in out[loc]
                if cl.head is not None and is_loc(cl.head.name)]
        if len(succ) > 1:
            succ.sort(key=lambda cl: repr(key(cl, masked)), reverse=True)
        stack.extend(cl.head.name for cl in succ)
    assert set(order) == locs, "a location not reachable from the entry"
    return Counter(key(cl, lambda n: order.get(n, n)) for cl in clauses)


def self_assignments(program) -> set:
    """The locations of ``to_chc``'s ``x := x`` statements, the only
    identity copies it may make."""
    return {f"L{i}" for i, (kind, s, _, _) in enumerate(layout(program.body))
            if kind == "do" and type(s) is Assign
            and type(s.expr) is Var and s.expr.name == s.target}


def check_against_reference(program, label) -> None:
    cs = to_chc(program)
    assert copies(cs).keys() == self_assignments(program), label
    assert canonical(*contract(ref_to_chc(program))) == \
        canonical(cs.entry, locations(cs), cs.clauses), label


def emit_programs(corpus):
    """The emit benchmark's tasks: every corpus entry under every
    heap-eliminating variant, and list-build-traverse under r with native
    havoc."""
    for entry in corpus:
        source = entry.load()
        for variant, (encoding, _) in VARIANTS.items():
            if isinstance(encoding, EncodingConfig):
                p = encode_variant(entry, source, variant)
                if p is not None:
                    yield (entry.name, variant), p
        if entry.name == "list-build-traverse":
            yield (entry.name, "r_native"), enc_r(
                source, native_havoc=True).program


def progen_programs(seeds):
    for seed in seeds:
        for havoc in (False, True):
            p = progen.gen_program(seed, allow_havoc=havoc)
            for enc in (enc_r, enc_rw):
                yield (seed, havoc, enc.__name__), enc(p).program


def test_layout_translation_matches_the_contracted_reference(corpus):
    n = 0
    for label, p in emit_programs(corpus):
        check_against_reference(p, label)
        n += 1
    assert n == 197
    for label, p in progen_programs(range(60)):
        check_against_reference(p, label)
    for src, _ in test_chc_ground.PROGRAMS:
        check_against_reference(parse_and_check(src), src)
