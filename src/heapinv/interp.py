"""Reference executable semantics.

Two heap models are provided, chosen by ``CompiledProgram(mode=...)``:

* ``heap`` (sequence) mode: the heap is a finite list of objects,
  addresses are 1-based indices, 0 is the null address.  Allocation
  appends and returns the new length; reads outside the allocated range
  return the distinguished default object; writes outside it leave the
  heap unchanged.
* ``trace`` mode: the heap is a chronological list of (address, object)
  write events; an allocation and a write at a valid address append one,
  and a read returns the most recent event for a valid address
  (``trace_read``).  A trace-mode run also records its heap reads and seed
  draws in order, beside the writes, for replay; it never stops at a draw
  site and cannot resume.

The compiled alloc/read/write instructions are the only definition of
either model.  The test suite checks the read/write/allocate laws on them
in both modes and checks that the two modes are observably equivalent.

Every run starts from an empty heap.

Statements are compiled into a flat list of instruction closures
(Feeley & Lapalme, "Using closures for code generation", 1987), one per
node of the control-flow graph ``lang.layout`` gives, the graph the Horn
translator (``chc``) reads too.  Evaluation is a pure function of
(program, initial stack, interpretation, fuel).  Int and Addr values are
plain Python ints (Addr values are naturals), objects are ObjVal tuples.

Each instruction takes ``(state, env)`` and returns the index of the next
one: ``if`` and ``while`` become conditional jumps to fixed indices, blocks
disappear, and the run loop calls one instruction per executed statement
or test.  A run that stops at a predicate assume or assert returns a resume
point, one flat tuple: the env values, the heap, both fuels, the seed bits
consumed and the query's index.  A query computes its argument tuple and
tests membership before it changes anything, so the point is the state
just before the query, and ``run(resume=point)`` continues exactly where
the stopped run left off, under any interpretation in which the queries it
passed still hold.

Each node is compiled once, when a run first gets to it:

* the first run compiles the region of nodes reachable from the entry
  without passing a predicate query, so one application of T from the
  empty interpretation, whose runs all stop at their first query,
  compiles that region alone;
* the first run to pass a query compiles the rest, in node order;
* a draw site is built when its first havoc is compiled, with its havocs
  and its query.

Under seed classing the assume of a draw site (``DrawSite``: a run of
havoc/nondet instructions that no jump enters but at its first, followed
directly by a predicate assume whose arguments read the drawn variables
only as bare variables) stops a run with a point taken before the draws
instead: the site's first havoc stores the seed bits consumed, the loop
fuel and the env, which only the site's havocs change before the assume,
and the point holds those with its index.  Resuming there draws again, so
every seed congruent to the run's own modulo 2^bits continues it,
whatever its draws, and the site's draw table tells what each draws.

Each expression node compiles to one closure over its operands' own
closures: a binary operator is ``g(f(env), h(env))`` whatever its operands
are, and an assignment is one instruction.  Program runs take about 20% of
a corpus-matrix fixpoint pass (the seed-class bookkeeping around them,
the draw sites' inverted tables included, takes most of the rest),
so closures specialised by operand shape would save too little to pay for
their code.  What stays specialised:

* a variable is an ``itemgetter``, and a nonzero constant divisor skips the
  zero check;
* a condition (``if``, ``while``, assume, assert and the operands of ``!``,
  ``&&`` and ``||``) compiles to a closure whose truth value is the
  condition's, so comparisons are not turned into 1/0 first; ``&&`` and
  ``||`` evaluate their right operand only when the left one does not
  decide;
* the argument tuple of a predicate query whose arguments are all
  variables is built by one ``itemgetter``;
* a predicate query is a plain ``args in relation`` test on the
  interpretation's ``relation(name)`` container, bound by query index once
  per interpretation, not once per query;
* a comparison with the input variable as one bare operand adds its
  operator and other operand's value to
  ``CompiledProgram.input_compared``, by which the fixpoint oracle tells
  inputs apart.
"""

from __future__ import annotations

import weakref
from functools import partial
from operator import add, eq, ge, gt, itemgetter, le, lt, mul, ne, sub
from typing import Callable, NamedTuple

from .lang import (
    AdtDecl, Alloc, Assign, AssertExpr, AssertPred, AssumeExpr, AssumePred,
    Binary, CtorApp, DefObj, Expr, FAILURE_PRED, FrozenStruct, HavocStmt, INT,
    IntLit, NondetStmt, Null, Program, Read, SelApp, Stmt, TestApp, Type,
    Unary, Var, Write, expr_vars, layout, set_field, variable_uses,
)


class ObjVal(NamedTuple):
    """Constructor-built object value."""

    ctor: str
    fields: tuple

    def __repr__(self) -> str:
        return f"{self.ctor}({', '.join(map(repr, self.fields))})"


Value = int | ObjVal


def default_value(ty: Type, adts: dict[str, AdtDecl]) -> Value:
    if ty.kind in ("Int", "Addr"):
        return 0
    return default_obj(ty.adt, adts)


def default_obj(adt_name: str, adts: dict[str, AdtDecl]) -> ObjVal:
    """Default-constructor value with Int fields 0 and Addr fields null."""
    adt = adts[adt_name]
    ctor = adt.ctors[0]
    return ObjVal(ctor.name, tuple(default_value(fty, adts) for _, fty in ctor.fields))


# ---------------------------------------------------------------------------
# Trace-mode heap read


def trace_read(trace: list[tuple[int, ObjVal]], allocs: int, addr: int,
               def_obj: ObjVal) -> ObjVal:
    """Most recent event for the address; default object for addresses that
    were never allocated or (not possible with initialising alloc) never
    written."""
    if not (0 < addr <= allocs):
        return def_obj
    for a, o in reversed(trace):
        if a == addr:
            return o
    return def_obj


# ---------------------------------------------------------------------------
# Outcomes


class Top(FrozenStruct):
    __slots__ = ()

    def __repr__(self):
        return "Top"


class Bot(FrozenStruct):
    __slots__ = _fields = ("pred", "args")

    def __init__(self, pred: str, args: tuple):
        set_field(self, "pred", pred)
        set_field(self, "args", args)

    def __repr__(self):
        return f"Bot({self.pred}, {self.args!r})"


ASSUME_FAILED = "assume_failed"
FUEL_EXHAUSTED = "fuel_exhausted"


class Undefined(FrozenStruct):
    __slots__ = _fields = ("reason",)

    def __init__(self, reason: str):
        set_field(self, "reason", reason)  # ASSUME_FAILED | FUEL_EXHAUSTED

    def __repr__(self):
        return f"Undefined({self.reason})"


Outcome = Top | Bot | Undefined
TOP = Top()


# Truncating (C-style) integer division and remainder.

def trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def trunc_mod(a: int, b: int) -> int:
    r = abs(a) % abs(b)  # the remainder takes the sign of the dividend
    return -r if a < 0 else r


# ---------------------------------------------------------------------------
# Control-flow signals used by the compiled closures.  Both are raised with
# positional arguments only, so building one runs no Python code.  A failed
# predicate query raises nothing: it returns a stop index past the end of
# the code (see ``_Compiler.code``).


class _BotSignal(Exception):
    """``_BotSignal(pred, args)``: an expression assertion failed or a
    division by zero happened; both use the reserved predicate with
    ``()``."""


class _UndefSignal(Exception):
    """``_UndefSignal(outcome)``: the run is undefined: its fuel ran out or
    an expression assumption did not hold."""


_UNDEF_ASSUME = Undefined(ASSUME_FAILED)
_UNDEF_FUEL = Undefined(FUEL_EXHAUSTED)
_BOT_FAILURE = Bot(FAILURE_PRED, ())


class _State:
    """What a run changes besides its env.  ``heap`` holds the objects in
    sequence mode and the (addr, obj) write events in trace mode."""

    __slots__ = ("heap", "allocs", "loop_fuel", "heap_fuel", "rels", "bits",
                 "events", "blocker", "site")

    def __init__(self, heap: list, loop_fuel: int, heap_fuel: int,
                 rels: tuple, bits: int, events: list | None):
        self.heap = heap
        self.allocs = 0  # trace mode: the allocation count
        self.loop_fuel = loop_fuel
        self.heap_fuel = heap_fuel
        self.rels = rels  # the interpretation's relations, by query index
        self.bits = bits  # seed bits consumed by havoc/nondet draws
        self.events = events  # trace mode: see ``RunResult.events``
        # ``blocker``, the (pred, args) of a failed query, is set when a
        # query stops the run; ``site``, the (bits, loop fuel, env values)
        # before the draws, by a draw site's first havoc


def _spend_heap_fuel(st: _State) -> None:
    """Charge one heap statement (alloc, read or write) to the run."""
    if st.heap_fuel <= 0:
        raise _UndefSignal(_UNDEF_FUEL)
    st.heap_fuel -= 1


class RunResult(NamedTuple):
    outcome: Outcome
    env: dict
    heap: list          # sequence mode: objects; trace mode: (addr, obj) events
    heap_len: int       # allocation count in either mode
    bits_consumed: int
    blocker: tuple | None  # (pred, args) that ended the run, if any
    # trace mode: the reads and seed draws in order, ("read", addr, value)
    # and ("draw", raw bits, bit count); None in sequence mode
    events: list | None = None
    # where a sequence-mode run stopped by a predicate query continues:
    # (*env values, heap, loop fuel, heap fuel, bits consumed, pc); for a
    # draw site's query, the state before the site's draws
    resume: tuple | None = None


# ---------------------------------------------------------------------------
# Compilation of expressions
#
# Closures index ObjVal values directly: ``o[0]`` is the constructor name
# and ``o[1]`` the field tuple.


def _div(a: int, b: int) -> int:
    if b == 0:
        raise _BotSignal(FAILURE_PRED, ())
    return trunc_div(a, b)


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise _BotSignal(FAILURE_PRED, ())
    return trunc_mod(a, b)


_OPS = {"+": add, "-": sub, "*": mul, "/": _div, "%": _mod,
        "<": lt, "<=": le, ">": gt, ">=": ge, "=": eq, "!=": ne}
# a nonzero constant divisor needs no check
_UNCHECKED = {"/": trunc_div, "%": trunc_mod}
# the comparison that holds exactly when the key does not (Int and Addr
# values are totally ordered; objects are compared only with = and !=)
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}
# the comparison that holds exactly when the key does with its operands
# swapped
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}

_new_tuple = tuple.__new__  # ObjVal(ctor, fields) without its Python __new__

# the expression kinds that compile to one value
_CONSTANTS = (IntLit, Null, DefObj)


def _draw_int(seed_var: str, charge_loop_fuel: bool, st: _State,
              env: dict) -> int:
    """Extract one value from the seed variable, bit by bit; exactly the
    semantics of the expanded macro, including loop fuel use."""
    s = env[seed_var]
    x = -(s & 1)
    s >>= 1
    bits = 2  # sign bit + terminating division
    while s & 1:
        if charge_loop_fuel:
            if st.loop_fuel <= 0:
                env[seed_var] = s
                st.bits += bits
                raise _UndefSignal(_UNDEF_FUEL)
            st.loop_fuel -= 1
        s >>= 1
        x = 2 * x + (s & 1)
        s >>= 1
        bits += 2
    env[seed_var] = s >> 1
    st.bits += bits
    return x


def draw_code(v: Value, ty: Type, adts: dict) -> tuple[int, int]:
    """``(code, nbits)``: the seed bits, least significant first, under
    which a draw of type ``ty`` gives ``v``.  An Int is its sign bit, a 1
    and a digit for each bit of v below the sign, most significant first
    (``>>`` gives two's complement), then a 0; an object is its
    constructor's index, if it has several, then its fields in order."""
    if ty.kind != "Obj":
        k = (~v if v < 0 else v).bit_length()
        code, nbits = (1 if v < 0 else 0), 1
        for j in reversed(range(k)):
            code |= (1 | (v >> j & 1) << 1) << nbits
            nbits += 2
        return code, nbits + 1
    ctors = adts[ty.adt].ctors
    # ``_Compiler._drawer`` picks ctors[c] for a drawn 1 <= c < len(ctors),
    # else ctors[0], so index i draws ctors[i]
    i = next(i for i, c in enumerate(ctors) if c.name == v.ctor)
    code, nbits = draw_code(i, INT, adts) if len(ctors) > 1 else (0, 0)
    for fv, (_, fty) in zip(v.fields, ctors[i].fields):
        c, m = draw_code(fv, fty, adts)
        code |= c << nbits
        nbits += m
    return code, nbits


# more loop fuel than any draw from a seed of a finite range uses
_DRAW_FUEL = 1 << 62


class DrawSite:
    """A run of havoc/nondet instructions that no jump enters except at the
    first one, followed directly by a predicate assume whose arguments read
    the drawn variables only as bare variables.  The site's first havoc
    stores the seed bits consumed, the loop fuel and the env, and a run
    stopped by the assume returns as its resume point the state before the
    draws (pc ``start``).

    The draws read the seed variable alone, so each value ``s`` of it at
    the site makes one set of values of the assume's drawn arguments, with
    the seed bits consumed and the loop fuel used.  ``classes(s0, count)``
    inverts that draw table over a range of values, in one loop that draws
    once per class.  The table depends only on the site's shape: the drawer
    of each havoc (one per drawn type and loop fuel charge in a compiled
    program) and the draw each drawn argument takes its value from.  Sites
    of one compiled program with the same shape share one dict of tables by
    range, which lives as long as the compiled program.
    ``splice(args, values)`` puts drawn values into a blocked run's argument
    tuple at the drawn positions, and ``drawn(args)`` takes them out of an
    argument tuple of the assume's predicate."""

    __slots__ = ("start", "splice", "drawn",
                 "_seed_var", "_drawers", "_drawn_args", "_tables")

    def __init__(self, start: int, seed_var: str, drawers: list[tuple],
                 query: AssumePred, shapes: dict):
        self.start = start
        self._seed_var = seed_var
        self._drawers = drawers  # (target, the havoc instruction's drawer)
        # a drawn argument takes the value of the last draw of its variable
        last = {target: j for j, (target, _) in enumerate(drawers)}
        args = query.args
        positions = [k for k, a in enumerate(args)
                     if type(a) is Var and a.name in last]
        self.drawn = lambda args: tuple([args[k] for k in positions])
        self._drawn_args = [args[k].name for k in positions]
        picks = tuple(last[name] for name in self._drawn_args)
        # (s0, count) -> (inverted table, most loop fuel), shared by shape
        self._tables: dict[tuple, tuple] = shapes.setdefault(
            (tuple(draw for _, draw in drawers), picks), {})
        a = positions[0] if positions else 0
        b = a + len(positions)
        if positions == list(range(a, b)):
            self.splice = lambda args, values: args[:a] + values + args[b:]
        else:
            def splice(args, values):
                out = list(args)
                for k, v in zip(positions, values):
                    out[k] = v
                return tuple(out)
            self.splice = splice

    def classes(self, s0: int, count: int) -> tuple[dict, int]:
        """The draw table of the values ``s0, ..., s0 + count - 1`` of the
        seed variable, inverted: each drawn value tuple maps to its classes
        ``(k, bits, fuel)``.  A class is the values ``s0 + k + m 2^bits`` of
        the range, least first; their draws read the same ``bits`` bits,
        so they make the same values with the same loop ``fuel``.  Also
        returns the most loop fuel a class needs.  Built once per range and
        shape, with one draw per class from one state and env."""
        got = self._tables.get((s0, count))
        if got is None:
            seed_var, drawers, names = (self._seed_var, self._drawers,
                                        self._drawn_args)
            st = _State([], _DRAW_FUEL, 0, (), 0, None)
            env: dict = {}
            table: dict[tuple, list[tuple]] = {}
            seen = bytearray(count)
            most = k = 0
            while k >= 0:
                st.bits = 0
                st.loop_fuel = _DRAW_FUEL
                env[seed_var] = s0 + k
                for target, draw in drawers:
                    env[target] = draw(st, env)
                bits = st.bits
                fuel = _DRAW_FUEL - st.loop_fuel
                values = tuple([env[name] for name in names])
                classes = table.get(values)
                if classes is None:
                    table[values] = [(k, bits, fuel)]
                else:
                    classes.append((k, bits, fuel))
                if fuel > most:
                    most = fuel
                step = 1 << bits
                seen[k::step] = b"\x01" * ((count - 1 - k) // step + 1)
                k = seen.find(0, k + 1)
            got = self._tables[(s0, count)] = (table, most)
        return got


class _Compiler:
    def __init__(self, program: Program, mode: str = "heap"):
        if mode not in ("heap", "trace"):
            raise ValueError(f"unknown evaluation mode {mode!r}")
        self.program = program
        self.mode = mode
        self.adts = program.adts_by_name()
        self.def_obj = (default_obj(program.heap_adt, self.adts)
                        if program.heap_adt else None)
        self.sel_index: dict[str, tuple[str, int, Value]] = {}
        for adt in program.adts:
            for ctor in adt.ctors:
                for i, (fname, fty) in enumerate(ctor.fields):
                    self.sel_index[fname] = (
                        ctor.name, i, default_value(fty, self.adts))
        # every value of a one-constructor ADT is built by that constructor
        self.sole_ctors = {adt.ctors[0].name for adt in program.adts
                           if len(adt.ctors) == 1}
        # set by ``code``: the predicates queried by the code, in
        # query-index order
        self.preds: dict[str, int] = {}
        # the length of the code, set by ``code``: the index a run ends at
        self.end = 0
        # the draw sites by first havoc index as they are compiled (a
        # site's first havoc stores the bits, the loop fuel and the env);
        # set by ``code``: the index of each site's query by its first
        # havoc's, and the reverse; every compiled havoc's drawer
        self.sites: dict[int, DrawSite] = {}
        self._spans: dict[int, int] = {}
        self._site_of: dict[int, int] = {}
        self._drawers: dict[int, Callable] = {}
        # the sites' tables, by shape
        self._shapes: dict[tuple, dict] = {}
        # one drawer per (drawn type, whether it charges loop fuel)
        self._drawer_of: dict[tuple, Callable] = {}
        # see ``CompiledProgram.input_compared``
        self.input_compared: set[tuple] = set()

    # expressions --------------------------------------------------------

    def constant(self, e: Expr) -> Value:
        t = type(e)
        if t is IntLit:
            return e.value
        if t is Null:
            return 0
        if self.def_obj is None:
            raise ValueError("defObj used without heaptype")
        return self.def_obj

    def binary(self, op: str, left: Expr, right: Expr) -> Callable:
        g = _OPS[op]
        if (op in _UNCHECKED and type(right) is IntLit
                and right.value != 0):
            g = _UNCHECKED[op]
        f, h = self.expr(left), self.expr(right)
        name = self.program.input_var
        if op in _FLIPPED and name is not None:
            on_left = type(left) is Var and left.name == name
            if on_left != (type(right) is Var and right.name == name):
                record = self.input_compared.add
                if on_left:
                    def fleft(env):
                        v = h(env)
                        record((g, v))
                        return g(env[name], v)
                    return fleft
                flipped = _OPS[_FLIPPED[op]]

                def fright(env):
                    v = f(env)
                    record((flipped, v))
                    return g(v, env[name])
                return fright
        return lambda env: g(f(env), h(env))

    def expr(self, e: Expr) -> Callable[[dict], Value]:
        t = type(e)
        if t is Var:
            return itemgetter(e.name)
        if t in _CONSTANTS:
            v = self.constant(e)
            return lambda env: v
        if t is Binary:
            if e.op in _NEGATED or e.op in ("&&", "||"):
                c = self.cond(e)
                return lambda env: 1 if c(env) else 0
            if e.op not in _OPS:
                raise ValueError(f"unknown operator {e.op!r}")
            return self.binary(e.op, e.left, e.right)
        if t is Unary:
            if e.op == "!":
                c = self.cond(e.operand)
                return lambda env: 0 if c(env) else 1
            if type(e.operand) is Var:
                n = e.operand.name
                return lambda env: -env[n]
            f = self.expr(e.operand)
            return lambda env: -f(env)
        if t is CtorApp:
            name = e.ctor
            if all(type(a) in _CONSTANTS for a in e.args):
                v = ObjVal(name, tuple(map(self.constant, e.args)))
                return lambda env: v
            fields = self.tuple_of(e.args)
            return lambda env: _new_tuple(ObjVal, (name, fields(env)))
        if t is SelApp:
            ctor_name, idx, dflt = self.sel_index[e.sel]
            if ctor_name in self.sole_ctors and type(e.arg) is Var:
                n = e.arg.name
                return lambda env: env[n][1][idx]
            f = self.expr(e.arg)
            if ctor_name in self.sole_ctors:
                return lambda env: f(env)[1][idx]

            def fsel(env):
                o = f(env)
                # selector applied to a different constructor yields the
                # field-type default, keeping evaluation total
                return o[1][idx] if o[0] == ctor_name else dflt
            return fsel
        if t is TestApp:
            c = self.cond(e)
            return lambda env: 1 if c(env) else 0
        raise ValueError(f"cannot compile expression {e!r}")

    def cond(self, e: Expr) -> Callable[[dict], object]:
        """Closure whose truth value is the Int expression's: true when
        nonzero.  Comparisons are tested directly, and ``&&`` and ``||``
        evaluate their right operand only when the left one does not
        decide the result."""
        t = type(e)
        if t is Binary:
            if e.op in _NEGATED:
                return self.binary(e.op, e.left, e.right)
            if e.op == "&&":
                lc, rc = self.cond(e.left), self.cond(e.right)
                return lambda env: lc(env) and rc(env)
            if e.op == "||":
                lc, rc = self.cond(e.left), self.cond(e.right)
                return lambda env: lc(env) or rc(env)
        elif t is Unary and e.op == "!":
            inner = e.operand
            if type(inner) is Binary and inner.op in _NEGATED:
                return self.binary(_NEGATED[inner.op], inner.left, inner.right)
            c = self.cond(inner)
            return lambda env: not c(env)
        elif t is TestApp:
            name = e.ctor
            if type(e.arg) is Var:
                n = e.arg.name
                return lambda env: env[n][0] == name
            f = self.expr(e.arg)
            return lambda env: f(env)[0] == name
        return self.expr(e)

    def tuple_of(self, exprs) -> Callable[[dict], tuple]:
        """Closure building the tuple of the expressions' values: an
        itemgetter when there are two or more and all are variables."""
        names = [x.name for x in exprs if type(x) is Var]
        if len(exprs) >= 2 and len(names) == len(exprs):
            return itemgetter(*names)
        fs = [self.expr(x) for x in exprs]
        return lambda env: tuple([f(env) for f in fs])

    # havoc draws --------------------------------------------------------

    def _drawer(self, ty: Type, charge_loop_fuel: bool) -> Callable:
        """Closure drawing one value of the type from the seed variable."""
        draw_int = partial(_draw_int, self.program.seed_var, charge_loop_fuel)
        if ty.kind != "Obj":
            return draw_int
        ctors = [(c.name, [self._drawer(fty, charge_loop_fuel)
                           for _, fty in c.fields])
                 for c in self.adts[ty.adt].ctors]
        if len(ctors) == 1:
            ((name, ds),) = ctors
            return lambda st, env: _new_tuple(
                ObjVal, (name, tuple([d(st, env) for d in ds])))

        def draw_obj(st, env):
            c = draw_int(st, env)
            name, ds = ctors[c] if 1 <= c < len(ctors) else ctors[0]
            return _new_tuple(ObjVal, (name, tuple([d(st, env) for d in ds])))
        return draw_obj

    # statements ---------------------------------------------------------

    def code(self, body: Stmt,
             find_sites: bool = False) -> list[Callable[[_State, dict], int]]:
        """The statement as a flat list of instructions, one per node of
        ``lang.layout(body)``, entered at 0 and left at the list's length
        ``end``.  Each instruction's next index is its node's successor,
        so jumps cost nothing at run time.  A failed predicate query at
        index i records its blocker and returns the stop index ``end + 1 +
        2i`` (assume) or ``end + 2 + 2i`` (assert); with ``find_sites``,
        the assume of a draw site whose first havoc is at index k returns
        ``end + 1 + 2k`` instead.

        The nodes are compiled on first reach.  The list starts with a stub
        at 0; a stub compiles what it leads to and returns its own index,
        where the run then finds its node's instruction.  The stub at 0
        compiles the region of the nodes reachable from 0 without passing a
        predicate query, and puts a stub at the successor of each query in
        it that is not compiled; such a stub compiles every node left, in
        node order.  No other index is ever jumped to before it is
        compiled.  So a run that passes no query, as every run under the
        empty interpretation, compiles only the region it starts in.  A
        draw site's havocs and query are compiled together.  The
        predicates, bound by query index, and the draw sites' bounds are
        read from the layout up front."""
        flat = self._flat = layout(body)
        self.end = len(flat)
        preds = self.preds
        assumes = []  # the indices of the predicate assumes
        for q, (_, node, _, _) in enumerate(flat):
            t = type(node)
            if t is AssumePred:
                assumes.append(q)
            elif t is not AssertPred:
                continue
            preds.setdefault(node.pred, len(preds))
        self._spans = self._draw_sites(flat, assumes) if find_sites else {}
        self._site_of = {q: k for k, q in self._spans.items()}
        # the stubs reach the compiler by a weak reference, so that the
        # code list is in no reference cycle
        self._ref = weakref.ref(self)
        # the indices that hold a stub
        self._stubbed = [0] if flat else []
        self._code = code = [None] * self.end
        if code:
            code[0] = self._stub(0, False)
        return code

    def _stub(self, i: int, rest: bool) -> Callable[[_State, dict], int]:
        """The instruction at ``i`` until node i is compiled: it compiles
        node i's region (every node left when ``rest``) and goes on at i,
        where the run finds node i's instruction."""
        ref = self._ref

        def stub(st, env):
            ref()._reach(i, rest)
            return i
        return stub

    def _reach(self, i: int, rest: bool) -> None:
        """Compile the nodes reachable from node i without passing a
        predicate query (the stub at 0 asks this once), or when ``rest``
        every node not compiled yet, in node order; then the draw sites
        whose havocs are compiled.  Nothing is kept unless every node
        compiles, so a node that cannot be compiled raises its error at
        each run that reaches it."""
        code, flat, end, sites = self._code, self._flat, self.end, self.sites
        saved = code[:]
        for j in self._stubbed:
            code[j] = None
        stubs = []  # the successors of the queries compiled
        try:
            if rest:
                for j, (kind, node, nxt, els) in enumerate(flat):
                    if code[j] is None:
                        code[j] = (self.instr(node, j, nxt) if kind == "do"
                                   else self.test(kind, node, nxt, els))
            else:
                # a depth-first walk that follows each node's next at once
                todo = [i]
                while todo:
                    j = todo.pop()
                    while j != end and code[j] is None:
                        kind, node, nxt, els = flat[j]
                        if kind != "do":
                            code[j] = self.test(kind, node, nxt, els)
                            todo.append(els)
                        else:
                            code[j] = self.instr(node, j, nxt)
                            t = type(node)
                            if t is AssumePred or t is AssertPred:
                                stubs.append(nxt)
                                break
                        j = nxt
        except BaseException:
            code[:] = saved
            raise
        # a site's havocs and query are compiled together: no query lies
        # between them and no jump enters the site but at its first havoc
        for k, q in self._spans.items():
            if k not in sites and code[k] is not None:
                sites[k] = self._site(k, q)
        # a run that passes a query goes on at a stub
        self._stubbed = []
        for j in stubs:
            if j != end and code[j] is None:
                code[j] = self._stub(j, True)
                self._stubbed.append(j)

    def _site(self, k: int, q: int) -> DrawSite:
        """The draw site of the havocs at ``k`` up to the query at ``q``,
        once they are compiled."""
        flat = self._flat
        return DrawSite(k, self.program.seed_var,
                        [(flat[j][1].target, self._drawers[j])
                         for j in range(k, q)],
                        flat[q][1], self._shapes)

    def _draw_sites(self, flat: list[list],
                    assumes: list[int]) -> dict[int, int]:
        """The draw sites of the flat code, given the indices of its
        predicate assumes: the index of each one's query by the index of
        its first havoc.  A site is the longest run of havoc/nondet
        instructions that ends right before a predicate assume and that no
        jump enters except at its first instruction, when no argument of
        the assume but a bare variable reads a drawn variable."""
        spans = {}
        entries = None  # the number of ways into each node, once needed
        for q in assumes:
            if (not q or flat[q - 1][2] != q
                    or type(flat[q - 1][1]) not in (HavocStmt, NondetStmt)):
                continue
            node = flat[q][1]
            if entries is None:
                entries = [0] * (len(flat) + 1)
                for _, _, nxt, els in flat:
                    entries[nxt] += 1
                    if els is not None:
                        entries[els] += 1
            k = q
            while (k and entries[k] == 1 and flat[k - 1][2] == k
                   and type(flat[k - 1][1]) in (HavocStmt, NondetStmt)):
                k -= 1
            drawn = {flat[j][1].target for j in range(k, q)}
            if k < q and not any(drawn & expr_vars(a) for a in node.args
                                 if type(a) is not Var):
                spans[k] = q
        return spans

    def test(self, kind: str, cond: Expr, nxt: int,
             els: int) -> Callable[[_State, dict], int]:
        """A conditional jump: to ``nxt`` when the condition holds, else to
        ``els``.  A loop test also spends one unit of loop fuel per entry
        into the body."""
        c = self.cond(cond)
        if kind == "branch":
            def fbranch(st, env):
                return nxt if c(env) else els
            return fbranch

        def floop(st, env):
            if c(env):
                if st.loop_fuel <= 0:
                    raise _UndefSignal(_UNDEF_FUEL)
                st.loop_fuel -= 1
                return nxt
            return els
        return floop

    def instr(self, s: Stmt, me: int,
              nxt: int) -> Callable[[_State, dict], int]:
        """The instruction at index ``me`` of a simple statement, continuing
        at ``nxt``."""
        kind = type(s)
        if kind is Assign:
            t = s.target
            f = self.expr(s.expr)

            def fassign(st, env):
                env[t] = f(env)
                return nxt
            return fassign
        if kind is AssumeExpr:
            c = self.cond(s.expr)

            def fassume(st, env):
                if c(env):
                    return nxt
                raise _UndefSignal(_UNDEF_ASSUME)
            return fassume
        if kind is AssertExpr:
            c = self.cond(s.expr)

            def fassert(st, env):
                if c(env):
                    return nxt
                raise _BotSignal(FAILURE_PRED, ())
            return fassert
        if kind is AssumePred or kind is AssertPred:
            # a query changes no state before it stops the run, so the run
            # can resume at it
            name = s.pred
            k = self.preds[name]
            args_of = self.tuple_of(s.args)
            stop = (self.end + 1 + 2 * self._site_of.get(me, me)
                    + (kind is AssertPred))

            def fquery(st, env):
                args = args_of(env)
                if args in st.rels[k]:
                    return nxt
                st.blocker = (name, args)
                return stop
            return fquery
        if kind is HavocStmt or kind is NondetStmt:
            return self._havoc(s.target, me, nxt, kind is HavocStmt)
        if kind is Alloc:
            t = s.target
            f = self.expr(s.expr)
            if self.mode == "heap":
                def falloc(st, env):
                    _spend_heap_fuel(st)
                    h = st.heap
                    h.append(f(env))
                    env[t] = len(h)
                    return nxt
                return falloc

            def falloc_t(st, env):
                _spend_heap_fuel(st)
                v = f(env)
                st.allocs = a = st.allocs + 1
                st.heap.append((a, v))
                env[t] = a
                return nxt
            return falloc_t
        if kind is Read:
            t = s.target
            p = s.addr
            d = self.def_obj
            if self.mode == "heap":
                def fread(st, env):
                    _spend_heap_fuel(st)
                    a = env[p]
                    h = st.heap
                    env[t] = h[a - 1] if 0 < a <= len(h) else d
                    return nxt
                return fread

            def fread_t(st, env):
                _spend_heap_fuel(st)
                a = env[p]
                env[t] = v = trace_read(st.heap, st.allocs, a, d)
                st.events.append(("read", a, v))
                return nxt
            return fread_t
        if kind is Write:
            p = s.addr
            f = self.expr(s.expr)
            if self.mode == "heap":
                def fwrite(st, env):
                    _spend_heap_fuel(st)
                    a = env[p]
                    h = st.heap
                    if 0 < a <= len(h):
                        h[a - 1] = f(env)
                    return nxt
                return fwrite

            def fwrite_t(st, env):
                _spend_heap_fuel(st)
                a = env[p]
                # as in sequence mode, the value is evaluated only at a
                # valid address
                if 0 < a <= st.allocs:
                    st.heap.append((a, f(env)))
                return nxt
            return fwrite_t
        raise ValueError(f"cannot compile statement {type(s).__name__}")

    def _havoc(self, target: str, me: int, nxt: int, charge_loop_fuel: bool):
        """A havoc (charging loop fuel) or nondet instruction."""
        seed_var = self.program.seed_var
        if seed_var is None:
            raise ValueError("havoc/nondet requires a seed declaration")
        kind = (self.program.var_types[target], charge_loop_fuel)
        if kind not in self._drawer_of:
            self._drawer_of[kind] = self._drawer(*kind)
        draw = self._drawers[me] = self._drawer_of[kind]
        if me in self._spans:
            # the first havoc of a draw site stores the state that the
            # site's resume point restores
            def fhavoc_site(st, env):
                st.site = (st.bits, st.loop_fuel, tuple(env.values()))
                env[target] = draw(st, env)
                return nxt
            return fhavoc_site
        if self.mode == "heap":
            def fhavoc(st, env):
                env[target] = draw(st, env)
                return nxt
            return fhavoc

        def fhavoc_t(st, env):
            seed_before = env[seed_var]
            bits_before = st.bits
            env[target] = draw(st, env)
            used = st.bits - bits_before
            st.events.append(("draw", seed_before & ((1 << used) - 1), used))
            return nxt
        return fhavoc_t


_NO_RELATION = frozenset()


class CompiledProgram:
    """A program compiled to a flat instruction list, reusable across many
    runs.  ``uses`` is the program's one use analysis
    (``lang.variable_uses``), made here once: seed classing, the grid's
    input dimension, address and input classing (``fixpoint``) and the
    dimensions of ``run --all-inputs`` all read it.

    Each node is compiled when a run first reaches its region (see
    ``_Compiler.code``), so ``sites`` holds the draw sites compiled so far.
    So a program the type checker would reject, such as one built in code
    with ``defObj`` but no heap type or with a havoc but no seed, raises
    its ``ValueError`` at each run that reaches the bad node's region, not
    when it is built, and never when no run does."""

    def __init__(self, program: Program, mode: str = "heap"):
        self.program = program
        self.mode = mode
        self.seed_var = program.seed_var
        # how a run can observe each variable: the one use analysis that
        # the grid's savings and dimensions read
        self.uses = uses = variable_uses(program)
        # when the seed is touched only by draws, a run's path depends on
        # its seed only through the bits it consumed: every seed congruent
        # mod 2^bits runs alike (seed classing), and at a resume point the
        # seed variable holds ``seed >> bits``
        self.seed_classing = (self.seed_var is not None
                              and self.seed_var not in uses.read
                              and self.seed_var not in uses.loose)
        # the stubs in the code reach the compiler by a weak reference
        self._compiler = comp = _Compiler(program, mode)
        self.trace_mode = mode == "trace"
        # draw sites need seed classing: their resume point is taken before
        # the draws, when the seed variable held fewer consumed bits
        self.code = comp.code(
            program.body,
            find_sites=self.seed_classing and not self.trace_mode)
        # grows as the draw sites are compiled
        self.sites = comp.sites
        self.preds = tuple(comp.preds)
        # grows by each comparison of the input variable that a run
        # evaluates, as (operator function, other value) with the input on
        # the left, so that ``op(input, value)`` is its outcome: a run
        # at another input that gives the same outcome on each takes the
        # same path.  Whoever reads it clears it.
        self.input_compared = comp.input_compared
        self.adts = comp.adts
        self.env_template = {
            name: default_value(ty, self.adts)
            for name, ty in program.var_types.items()
        }
        self.names = tuple(self.env_template)
        # Bot outcomes by (pred, args): frozen, so one object serves every
        # run that fails the same way
        self.bots: dict[tuple, Bot] = {}
        # the interpretation the relations were last bound for (None: empty)
        self._interp = None
        self._rels = (_NO_RELATION,) * len(self.preds)

    def _bind(self, interp) -> tuple:
        """The interpretation's relation of each queried predicate.  A
        relation container lives as long as its interpretation, so the
        binding is kept while the same interpretation is passed."""
        self._interp = interp
        self._rels = tuple(_NO_RELATION if interp is None
                           else interp.relation(name) for name in self.preds)
        return self._rels

    def run(self, inputs: dict[str, Value] | None = None, interp=None,
            loop_fuel: int = 64, heap_fuel: int = 32,
            resume: tuple | None = None) -> RunResult:
        """Run from the start on the inputs (the other variables at their
        defaults) and an empty heap, or continue a stopped run from its
        ``resume`` point (sequence mode only).
        A resumed run restores every variable, the heap and both fuels from
        the point and takes nothing else from the arguments, except that
        under seed classing the seed variable becomes ``inputs[seed] >>
        bits``: any seed of the stopped run's class continues it.  ``interp``
        supplies ``relation(name)`` containers; None is the empty
        interpretation."""
        rels = self._rels if interp is self._interp else self._bind(interp)
        if resume is None:
            env = self.env_template.copy()
            if inputs:
                env.update(inputs)
                if len(env) != len(self.names):
                    unknown = next(k for k in inputs if k not in self.names)
                    raise KeyError(f"unknown input variable {unknown!r}")
            seed_var = self.seed_var
            if seed_var is not None and env[seed_var] < 0:
                raise ValueError("seed must be nonnegative")
            st = _State([], loop_fuel, heap_fuel, rels, 0,
                        [] if self.trace_mode else None)
            pc = 0
        else:
            if self.trace_mode:
                raise ValueError("a trace-mode run cannot resume")
            env = dict(zip(self.names, resume))
            heap, loop_fuel, heap_fuel, bits, pc = resume[-5:]
            if inputs and self.seed_classing:
                seed = inputs[self.seed_var]
                if seed < 0:
                    raise ValueError("seed must be nonnegative")
                env[self.seed_var] = seed >> bits
            st = _State(list(heap), loop_fuel, heap_fuel, rels, bits, None)
        code = self.code
        end = len(code)
        blocker = point = None
        try:
            while pc < end:
                pc = code[pc](st, env)
        except _BotSignal:
            outcome = _BOT_FAILURE
        except _UndefSignal as u:
            outcome = u.args[0]
        else:
            if pc == end:
                outcome = TOP
            else:
                # stopped by the query at index q >> 1: an assert when q is
                # odd, else an assume
                q = pc - end - 1
                blocker = st.blocker
                if q & 1:
                    outcome = self.bots.get(blocker)
                    if outcome is None:
                        outcome = self.bots[blocker] = Bot(*blocker)
                else:
                    outcome = _UNDEF_ASSUME
                pc = q >> 1
                if pc in self.sites:
                    # a draw site's query: the state before the draws
                    bits, fuel, values = st.site
                else:
                    values, bits, fuel = env.values(), st.bits, st.loop_fuel
                # an empty heap is kept as the shared empty tuple
                point = (*values, st.heap or (), fuel, st.heap_fuel, bits,
                         pc)
        heap = st.heap
        return _new_tuple(RunResult, (
            outcome, env, heap, st.allocs if self.trace_mode else len(heap),
            st.bits, blocker, st.events, point))
