"""Reference executable semantics.

Two heap models are provided:

* sequence mode: the heap is a finite sequence of objects, addresses are
  1-based indices, 0 is the null address.  Reads outside the allocated
  range return the distinguished default object; writes outside it leave
  the heap unchanged.
* trace mode: the heap is a chronological list of (address, object) write
  events; an allocation and a write at a valid address append one, and a
  read returns the most recent event for a valid address.  Both modes are
  observably equivalent and cross-checked in the test suite.

Statements are compiled once into Python closures (Feeley & Lapalme, "Using
closures for code generation", 1987); evaluation is a pure function of
(program, initial stack, interpretation, fuel).  Int and Addr values are
plain Python ints (Addr values are naturals), objects are ObjVal tuples.

The closures are shaped to make few Python calls per executed node:

* a binary operator gets one closure per shape of its operands (variable,
  constant or sub-expression) that calls the ``operator`` function on them
  directly;
* a condition (``if``, ``while``, assume, assert and the operands of ``!``,
  ``&&`` and ``||``) compiles to a closure whose truth value is the
  condition's, so comparisons are not turned into 1/0 first; ``&&`` and
  ``||`` evaluate their right operand only when the left one does not
  decide;
* argument tuples of predicate queries and constructors are built in one
  step (an ``itemgetter`` when every argument is a variable);
* statement closures take ``(state, env)``, and an ``if`` without ``else``
  has a one-branch closure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from operator import add, eq, ge, gt, itemgetter, le, lt, mul, ne, sub
from typing import Callable, Iterable, NamedTuple

from .lang import (
    AdtDecl, Alloc, Assign, AssertExpr, AssertPred, AssumeExpr, AssumePred,
    Binary, Block, CtorApp, DefObj, Expr, FAILURE_PRED, HavocStmt, If,
    IntLit, NondetStmt, Null, Program, Read, SelApp, Skip, Stmt, TestApp,
    Type, Unary, Var, While, Write,
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
# Heap operations (sequence model)


def heap_allocate(heap: list, obj: ObjVal) -> tuple[list, int]:
    """Append the object; the fresh address is the new length."""
    new = list(heap)
    new.append(obj)
    return new, len(new)


def heap_read(heap: list, addr: int, def_obj: ObjVal) -> ObjVal:
    if 0 < addr <= len(heap):
        return heap[addr - 1]
    return def_obj


def heap_write(heap: list, addr: int, obj: ObjVal) -> list:
    if 0 < addr <= len(heap):
        new = list(heap)
        new[addr - 1] = obj
        return new
    return heap


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


@dataclass(frozen=True)
class Top:
    def __repr__(self):
        return "Top"


@dataclass(frozen=True)
class Bot:
    pred: str
    args: tuple

    def __repr__(self):
        return f"Bot({self.pred}, {self.args!r})"


ASSUME_FAILED = "assume_failed"
FUEL_EXHAUSTED = "fuel_exhausted"


@dataclass(frozen=True)
class Undefined:
    reason: str  # ASSUME_FAILED | FUEL_EXHAUSTED

    def __repr__(self):
        return f"Undefined({self.reason})"


Outcome = Top | Bot | Undefined
TOP = Top()


@dataclass(frozen=True)
class Fuel:
    loop: int
    heap_ops: int


# Truncating (C-style) integer division and remainder.

def trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def trunc_mod(a: int, b: int) -> int:
    r = abs(a) % abs(b)  # the remainder takes the sign of the dividend
    return -r if a < 0 else r


# ---------------------------------------------------------------------------
# Control-flow signals used by the compiled closures.  Both are raised with
# positional arguments only, so building one runs no Python code.


class _BotSignal(Exception):
    """``_BotSignal(pred, args)``: an assertion failed.  Expression
    assertions and division by zero use the reserved predicate with ``()``."""


class _UndefSignal(Exception):
    """``_UndefSignal(outcome, blocker)``: the run is undefined; the blocker
    is the (pred, args) of a predicate assumption that did not hold, else
    None."""


_UNDEF_ASSUME = Undefined(ASSUME_FAILED)
_UNDEF_FUEL = Undefined(FUEL_EXHAUSTED)


class _State:
    """What a run changes besides its env.  ``heap`` holds the objects in
    sequence mode and the (addr, obj) write events in trace mode."""

    __slots__ = ("heap", "allocs", "loop_fuel", "heap_fuel", "contains",
                 "bits", "events")

    def __init__(self, heap: list, allocs: int, loop_fuel: int,
                 heap_fuel: int, contains, events: list | None):
        self.heap = heap
        self.allocs = allocs
        self.loop_fuel = loop_fuel
        self.heap_fuel = heap_fuel
        self.contains = contains  # the interpretation's membership test
        self.bits = 0  # seed bits consumed by havoc/nondet draws
        self.events = events  # ("read", addr, value) | ("draw", raw, nbits)


@dataclass
class RunResult:
    outcome: Outcome
    env: dict
    heap: list          # sequence mode: objects; trace mode: (addr, obj) events
    heap_len: int       # allocation count in either mode
    bits_consumed: int
    blocker: tuple | None  # (pred, args) that ended the run, if any
    events: list | None = None  # interleaved reads and seed draws, when recording

    @property
    def reads(self) -> list | None:
        """(addr, value) per read, when recording."""
        if self.events is None:
            return None
        return [(ev[1], ev[2]) for ev in self.events if ev[0] == "read"]


class EmptyInterpretation:
    def contains(self, name: str, args: tuple) -> bool:
        return False


EMPTY_INTERP = EmptyInterpretation()


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

# One closure per operand shape of a binary operator ``g``: V a variable,
# C a constant, F a compiled sub-expression.  An evaluation makes one call
# of ``g`` besides those of its F operands.
_SHAPES = {
    "VV": lambda g, a, b: lambda env: g(env[a], env[b]),
    "VC": lambda g, a, b: lambda env: g(env[a], b),
    "VF": lambda g, a, b: lambda env: g(env[a], b(env)),
    "CV": lambda g, a, b: lambda env: g(a, env[b]),
    "CC": lambda g, a, b: lambda env: g(a, b),
    "CF": lambda g, a, b: lambda env: g(a, b(env)),
    "FV": lambda g, a, b: lambda env: g(a(env), env[b]),
    "FC": lambda g, a, b: lambda env: g(a(env), b),
    "FF": lambda g, a, b: lambda env: g(a(env), b(env)),
}

_new_tuple = tuple.__new__  # ObjVal(ctor, fields) without its Python __new__


def _skip(st: _State, env: dict) -> None:
    pass


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
                raise _UndefSignal(_UNDEF_FUEL, None)
            st.loop_fuel -= 1
        s >>= 1
        x = 2 * x + (s & 1)
        s >>= 1
        bits += 2
    env[seed_var] = s >> 1
    st.bits += bits
    return x


class _Compiler:
    def __init__(self, program: Program, mode: str = "heap",
                 record_reads: bool = False):
        if mode not in ("heap", "trace"):
            raise ValueError(f"unknown evaluation mode {mode!r}")
        self.program = program
        self.mode = mode
        self.record_reads = record_reads
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

    # expressions --------------------------------------------------------

    def constant(self, e: Expr) -> Value:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Null):
            return 0
        if self.def_obj is None:
            raise ValueError("defObj used without heaptype")
        return self.def_obj

    def operand(self, e: Expr) -> tuple[str, object]:
        """The shape of an operand (see ``_SHAPES``) with its variable
        name, constant value or closure."""
        if isinstance(e, Var):
            return "V", e.name
        if isinstance(e, (IntLit, Null, DefObj)):
            return "C", self.constant(e)
        return "F", self.expr(e)

    def binary(self, op: str, left: Expr, right: Expr) -> Callable:
        ls, a = self.operand(left)
        rs, b = self.operand(right)
        g = _OPS[op]
        if op in _UNCHECKED and rs == "C" and b != 0:
            g = _UNCHECKED[op]
        return _SHAPES[ls + rs](g, a, b)

    def expr(self, e: Expr) -> Callable[[dict], Value]:
        if isinstance(e, Var):
            return itemgetter(e.name)
        if isinstance(e, (IntLit, Null, DefObj)):
            v = self.constant(e)
            return lambda env: v
        if isinstance(e, Binary):
            if e.op in _NEGATED or e.op in ("&&", "||"):
                c = self.cond(e)
                return lambda env: 1 if c(env) else 0
            if e.op not in _OPS:
                raise ValueError(f"unknown operator {e.op!r}")
            return self.binary(e.op, e.left, e.right)
        if isinstance(e, Unary):
            if e.op == "!":
                c = self.cond(e.operand)
                return lambda env: 0 if c(env) else 1
            if isinstance(e.operand, Var):
                n = e.operand.name
                return lambda env: -env[n]
            f = self.expr(e.operand)
            return lambda env: -f(env)
        if isinstance(e, CtorApp):
            name = e.ctor
            if all(isinstance(a, (IntLit, Null, DefObj)) for a in e.args):
                v = ObjVal(name, tuple(map(self.constant, e.args)))
                return lambda env: v
            fields = self.tuple_of(e.args)
            return lambda env: _new_tuple(ObjVal, (name, fields(env)))
        if isinstance(e, SelApp):
            ctor_name, idx, dflt = self.sel_index[e.sel]
            if ctor_name in self.sole_ctors and isinstance(e.arg, Var):
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
        if isinstance(e, TestApp):
            c = self.cond(e)
            return lambda env: 1 if c(env) else 0
        raise ValueError(f"cannot compile expression {e!r}")

    def cond(self, e: Expr) -> Callable[[dict], object]:
        """Closure whose truth value is the Int expression's: true when
        nonzero.  Comparisons are tested directly, and ``&&`` and ``||``
        evaluate their right operand only when the left one does not
        decide the result."""
        if isinstance(e, Binary):
            if e.op in _NEGATED:
                return self.binary(e.op, e.left, e.right)
            if e.op == "&&":
                lc, rc = self.cond(e.left), self.cond(e.right)
                return lambda env: lc(env) and rc(env)
            if e.op == "||":
                lc, rc = self.cond(e.left), self.cond(e.right)
                return lambda env: lc(env) or rc(env)
        elif isinstance(e, Unary) and e.op == "!":
            inner = e.operand
            if isinstance(inner, Binary) and inner.op in _NEGATED:
                return self.binary(_NEGATED[inner.op], inner.left, inner.right)
            c = self.cond(inner)
            return lambda env: not c(env)
        elif isinstance(e, TestApp):
            name = e.ctor
            if isinstance(e.arg, Var):
                n = e.arg.name
                return lambda env: env[n][0] == name
            f = self.expr(e.arg)
            return lambda env: f(env)[0] == name
        return self.expr(e)

    def tuple_of(self, exprs) -> Callable[[dict], tuple]:
        """Closure building the tuple of the expressions' values in one
        step: an itemgetter when all are variables, else a fixed-arity
        tuple display."""
        if len(exprs) >= 2 and all(isinstance(x, Var) for x in exprs):
            return itemgetter(*(x.name for x in exprs))
        if len(exprs) == 1 and isinstance(exprs[0], Var):
            n = exprs[0].name
            return lambda env: (env[n],)
        fs = [self.expr(x) for x in exprs]
        if not fs:
            return lambda env: ()
        if len(fs) == 1:
            (f0,) = fs
            return lambda env: (f0(env),)
        if len(fs) == 2:
            f0, f1 = fs
            return lambda env: (f0(env), f1(env))
        if len(fs) == 3:
            f0, f1, f2 = fs
            return lambda env: (f0(env), f1(env), f2(env))
        if len(fs) == 4:
            f0, f1, f2, f3 = fs
            return lambda env: (f0(env), f1(env), f2(env), f3(env))
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

    def stmt(self, s: Stmt) -> Callable[[_State, dict], None]:
        if isinstance(s, Block):
            fs = tuple(f for f in map(self.stmt, s.stmts) if f is not _skip)
            if not fs:
                return _skip
            if len(fs) == 1:
                return fs[0]

            def fblock(st, env):
                for f in fs:
                    f(st, env)
            return fblock
        if isinstance(s, Assign):
            t = s.target
            kind, a = self.operand(s.expr)
            if kind == "V":
                def fcopy(st, env):
                    env[t] = env[a]
                return fcopy
            if kind == "C":
                def fset(st, env):
                    env[t] = a
                return fset

            def fassign(st, env):
                env[t] = a(env)
            return fassign
        if isinstance(s, Skip):
            return _skip
        if isinstance(s, If):
            c = self.cond(s.cond)
            ft = self.stmt(s.then)
            fe = self.stmt(s.els)
            if fe is _skip:
                def fthen(st, env):
                    if c(env):
                        ft(st, env)
                return fthen

            def fif(st, env):
                if c(env):
                    ft(st, env)
                else:
                    fe(st, env)
            return fif
        if isinstance(s, While):
            c = self.cond(s.cond)
            fb = self.stmt(s.body)

            def fwhile(st, env):
                while c(env):
                    if st.loop_fuel <= 0:
                        raise _UndefSignal(_UNDEF_FUEL, None)
                    st.loop_fuel -= 1
                    fb(st, env)
            return fwhile
        if isinstance(s, AssumeExpr):
            c = self.cond(s.expr)

            def fassume(st, env):
                if not c(env):
                    raise _UndefSignal(_UNDEF_ASSUME, None)
            return fassume
        if isinstance(s, AssertExpr):
            c = self.cond(s.expr)

            def fassert(st, env):
                if not c(env):
                    raise _BotSignal(FAILURE_PRED, ())
            return fassert
        if isinstance(s, AssumePred):
            name = s.pred
            args_of = self.tuple_of(s.args)

            def fassume_p(st, env):
                args = args_of(env)
                if not st.contains(name, args):
                    raise _UndefSignal(_UNDEF_ASSUME, (name, args))
            return fassume_p
        if isinstance(s, AssertPred):
            name = s.pred
            args_of = self.tuple_of(s.args)

            def fassert_p(st, env):
                args = args_of(env)
                if not st.contains(name, args):
                    raise _BotSignal(name, args)
            return fassert_p
        if isinstance(s, HavocStmt):
            return self._havoc(s.target, charge_loop_fuel=True)
        if isinstance(s, NondetStmt):
            return self._havoc(s.target, charge_loop_fuel=False)
        if isinstance(s, Alloc):
            t = s.target
            f = self.expr(s.expr)
            if self.mode == "heap":
                def falloc(st, env):
                    if st.heap_fuel <= 0:
                        raise _UndefSignal(_UNDEF_FUEL, None)
                    st.heap_fuel -= 1
                    h = st.heap
                    h.append(f(env))
                    env[t] = len(h)
                return falloc

            def falloc_t(st, env):
                if st.heap_fuel <= 0:
                    raise _UndefSignal(_UNDEF_FUEL, None)
                st.heap_fuel -= 1
                v = f(env)
                st.allocs = a = st.allocs + 1
                st.heap.append((a, v))
                env[t] = a
            return falloc_t
        if isinstance(s, Read):
            t = s.target
            p = s.addr
            d = self.def_obj
            rec = self.record_reads
            if self.mode == "heap":
                def fread(st, env):
                    if st.heap_fuel <= 0:
                        raise _UndefSignal(_UNDEF_FUEL, None)
                    st.heap_fuel -= 1
                    a = env[p]
                    h = st.heap
                    env[t] = v = h[a - 1] if 0 < a <= len(h) else d
                    if rec:
                        st.events.append(("read", a, v))
                return fread

            def fread_t(st, env):
                if st.heap_fuel <= 0:
                    raise _UndefSignal(_UNDEF_FUEL, None)
                st.heap_fuel -= 1
                a = env[p]
                env[t] = v = trace_read(st.heap, st.allocs, a, d)
                if rec:
                    st.events.append(("read", a, v))
            return fread_t
        if isinstance(s, Write):
            p = s.addr
            f = self.expr(s.expr)
            if self.mode == "heap":
                def fwrite(st, env):
                    if st.heap_fuel <= 0:
                        raise _UndefSignal(_UNDEF_FUEL, None)
                    st.heap_fuel -= 1
                    a = env[p]
                    h = st.heap
                    if 0 < a <= len(h):
                        h[a - 1] = f(env)
                return fwrite

            def fwrite_t(st, env):
                if st.heap_fuel <= 0:
                    raise _UndefSignal(_UNDEF_FUEL, None)
                st.heap_fuel -= 1
                a = env[p]
                # as in sequence mode, the value is evaluated only at a
                # valid address
                if 0 < a <= st.allocs:
                    st.heap.append((a, f(env)))
            return fwrite_t
        raise ValueError(f"cannot compile statement {type(s).__name__}")

    def _havoc(self, target: str, charge_loop_fuel: bool):
        seed_var = self.program.seed_var
        if seed_var is None:
            raise ValueError("havoc/nondet requires a seed declaration")
        draw = self._drawer(self.program.var_types[target], charge_loop_fuel)
        if not self.record_reads:
            def fhavoc(st, env):
                env[target] = draw(st, env)
            return fhavoc

        def fhavoc_rec(st, env):
            seed_before = env[seed_var]
            bits_before = st.bits
            env[target] = draw(st, env)
            used = st.bits - bits_before
            st.events.append(("draw", seed_before & ((1 << used) - 1), used))
        return fhavoc_rec


class CompiledProgram:
    """A program compiled to closures, reusable across many runs."""

    def __init__(self, program: Program, mode: str = "heap",
                 record_reads: bool = False):
        self.program = program
        self.mode = mode
        comp = _Compiler(program, mode, record_reads)
        self.record_reads = record_reads
        self.body = comp.stmt(program.body)
        self.adts = comp.adts
        self.def_obj = comp.def_obj
        self.env_template = {
            name: default_value(ty, self.adts)
            for name, ty in program.var_types.items()
        }
        self.seed_var = program.seed_var
        self.trace_mode = mode == "trace"
        # Bot outcomes by (pred, args): frozen, so one object serves every
        # run that fails the same way
        self.bots: dict[tuple, Bot] = {}

    def run(self, inputs: dict[str, Value] | None = None,
            interp=EMPTY_INTERP, loop_fuel: int = 64, heap_fuel: int = 32,
            initial_heap: Iterable[ObjVal] = (),
            initial_trace: Iterable[tuple[int, ObjVal]] = (),
            initial_allocs: int = 0) -> RunResult:
        env = self.env_template.copy()
        if inputs:
            if not inputs.keys() <= env.keys():
                unknown = next(k for k in inputs if k not in env)
                raise KeyError(f"unknown input variable {unknown!r}")
            env.update(inputs)
        seed_var = self.seed_var
        if seed_var is not None and env[seed_var] < 0:
            raise ValueError("seed must be nonnegative")
        trace = self.trace_mode
        st = _State(list(initial_trace if trace else initial_heap),
                    initial_allocs, loop_fuel, heap_fuel, interp.contains,
                    [] if self.record_reads else None)
        outcome: Outcome = TOP
        blocker = None
        try:
            self.body(st, env)
        except _BotSignal as b:
            blocker = b.args
            outcome = self.bots.get(blocker)
            if outcome is None:
                outcome = self.bots[blocker] = Bot(*blocker)
            if blocker[0] == FAILURE_PRED:
                blocker = None
        except _UndefSignal as u:
            outcome, blocker = u.args
        heap = st.heap
        return RunResult(outcome, env, heap, st.allocs if trace else len(heap),
                         st.bits, blocker, st.events)


# ---------------------------------------------------------------------------
# Spec-level entry points


def _with_body(program: Program, stmt: Stmt) -> Program:
    """The program's declarations around a single statement."""
    return replace(program,
                   body=stmt if isinstance(stmt, Block) else Block((stmt,)))


def eval_stmt(stmt: Stmt, stack: dict, heap: list, interp, fuel: Fuel,
              program: Program) -> tuple[Outcome, dict, list]:
    """Big-step evaluation of a statement against an explicit stack & heap.

    The program supplies declarations (types, ADTs, seed variable); the
    inputs are not mutated.
    """
    cp = CompiledProgram(_with_body(program, stmt))
    res = cp.run(inputs=dict(stack), interp=interp,
                 loop_fuel=fuel.loop, heap_fuel=fuel.heap_ops,
                 initial_heap=heap)
    return res.outcome, res.env, res.heap


def eval_trace_mode(stmt: Stmt, stack: dict, trace: list, interp, fuel: Fuel,
                    program: Program,
                    allocs: int = 0) -> tuple[Outcome, dict, list]:
    """Trace-mode twin of eval_stmt; the heap is a list of write events."""
    cp = CompiledProgram(_with_body(program, stmt), mode="trace")
    res = cp.run(inputs=dict(stack), interp=interp,
                 loop_fuel=fuel.loop, heap_fuel=fuel.heap_ops,
                 initial_trace=trace, initial_allocs=allocs)
    return res.outcome, res.env, res.heap

