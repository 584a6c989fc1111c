"""Reference executable semantics.

Two heap models are provided:

* sequence mode: the heap is a finite sequence of objects, addresses are
  1-based indices, 0 is the null address.  Reads outside the allocated
  range return the distinguished default object; writes outside it leave
  the heap unchanged.
* trace mode: the heap is a chronological list of (address, object) write
  events; a read returns the most recent event for a valid address.  Both
  modes are observably equivalent and cross-checked in the test suite.

Statements are compiled once into Python closures; evaluation is a pure
function of (program, initial stack, interpretation, fuel).  Int and Addr
values are plain Python ints (Addr values are naturals), objects are
ObjVal tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    return a - b * trunc_div(a, b)


# ---------------------------------------------------------------------------
# Control-flow signals used by the compiled closures


class _BotSignal(Exception):
    def __init__(self, pred: str, args: tuple):
        self.pred = pred
        self.args = args


class _UndefSignal(Exception):
    def __init__(self, reason: str, blocker: tuple | None = None):
        self.reason = reason
        self.blocker = blocker  # (pred, args) for predicate-assume misses


class _State:
    __slots__ = ("env", "heap", "trace", "allocs", "loop_fuel", "heap_fuel",
                 "interp", "bits", "events")

    def __init__(self):
        self.env: dict = {}
        self.heap: list = []
        self.trace: list = []
        self.allocs = 0
        self.loop_fuel = 0
        self.heap_fuel = 0
        self.interp = None
        self.bits = 0  # seed bits consumed by havoc/nondet draws
        self.events: list | None = None  # ("read", addr, value) | ("draw", raw, nbits)


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

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}

_CMP = {
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "=": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}


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

    # expressions --------------------------------------------------------

    def expr(self, e: Expr) -> Callable[[dict], Value]:
        if isinstance(e, IntLit):
            v = e.value
            return lambda env: v
        if isinstance(e, Var):
            n = e.name
            return lambda env: env[n]
        if isinstance(e, Null):
            return lambda env: 0
        if isinstance(e, DefObj):
            d = self.def_obj
            if d is None:
                raise ValueError("defObj used without heaptype")
            return lambda env: d
        if isinstance(e, Unary):
            f = self.expr(e.operand)
            if e.op == "-":
                return lambda env: -f(env)
            return lambda env: 1 if f(env) == 0 else 0
        if isinstance(e, Binary):
            lf = self.expr(e.left)
            rf = self.expr(e.right)
            op = e.op
            if op in _ARITH:
                g = _ARITH[op]
                return lambda env: g(lf(env), rf(env))
            if op in _CMP:
                g = _CMP[op]
                return lambda env: g(lf(env), rf(env))
            if op == "/":
                def fdiv(env):
                    b = rf(env)
                    if b == 0:
                        raise _BotSignal(FAILURE_PRED, ())
                    return trunc_div(lf(env), b)
                return fdiv
            if op == "%":
                def fmod(env):
                    b = rf(env)
                    if b == 0:
                        raise _BotSignal(FAILURE_PRED, ())
                    return trunc_mod(lf(env), b)
                return fmod
            if op == "&&":
                # strict: both sides evaluated, nonzero means true
                return lambda env: 1 if lf(env) != 0 and rf(env) != 0 else 0
            if op == "||":
                return lambda env: 1 if lf(env) != 0 or rf(env) != 0 else 0
            raise ValueError(f"unknown operator {op!r}")
        if isinstance(e, CtorApp):
            fs = [self.expr(a) for a in e.args]
            name = e.ctor
            return lambda env: ObjVal(name, tuple(f(env) for f in fs))
        if isinstance(e, SelApp):
            ctor_name, idx, dflt = self.sel_index[e.sel]
            f = self.expr(e.arg)

            def fsel(env):
                o = f(env)
                # selector applied to a different constructor yields the
                # field-type default, keeping evaluation total
                if o.ctor == ctor_name:
                    return o.fields[idx]
                return dflt
            return fsel
        if isinstance(e, TestApp):
            name = e.ctor
            f = self.expr(e.arg)
            return lambda env: 1 if f(env).ctor == name else 0
        raise ValueError(f"cannot compile expression {e!r}")

    # havoc draws --------------------------------------------------------

    def _draw_int(self, st: _State, charge_loop_fuel: bool) -> int:
        """Extract one value from the seed variable, bit by bit; exactly the
        semantics of the expanded macro, including loop fuel use."""
        seed_var = self.program.seed_var
        s = st.env[seed_var]
        x = -(s & 1)
        s >>= 1
        st.bits += 2  # sign bit + terminating division
        while s & 1:
            if charge_loop_fuel:
                if st.loop_fuel <= 0:
                    st.env[seed_var] = s
                    raise _UndefSignal(FUEL_EXHAUSTED)
                st.loop_fuel -= 1
            s >>= 1
            x = 2 * x + (s & 1)
            s >>= 1
            st.bits += 2
        s >>= 1
        st.env[seed_var] = s
        return x

    def _draw_value(self, st: _State, ty: Type, charge: bool) -> Value:
        if ty.kind != "Obj":
            return self._draw_int(st, charge)
        adt = self.adts[ty.adt]
        if len(adt.ctors) == 1:
            ctor = adt.ctors[0]
        else:
            c = self._draw_int(st, charge)
            ctor = adt.ctors[c] if 1 <= c < len(adt.ctors) else adt.ctors[0]
        flds = tuple(self._draw_value(st, fty, charge) for _, fty in ctor.fields)
        return ObjVal(ctor.name, flds)

    # statements ---------------------------------------------------------

    def stmt(self, s: Stmt) -> Callable[[_State], None]:
        if isinstance(s, Block):
            fs = [self.stmt(c) for c in s.stmts]
            if not fs:
                return lambda st: None
            if len(fs) == 1:
                return fs[0]

            def fblock(st, fs=tuple(fs)):
                for f in fs:
                    f(st)
            return fblock
        if isinstance(s, Assign):
            t = s.target
            f = self.expr(s.expr)

            def fassign(st):
                st.env[t] = f(st.env)
            return fassign
        if isinstance(s, Skip):
            return lambda st: None
        if isinstance(s, If):
            c = self.expr(s.cond)
            ft = self.stmt(s.then)
            fe = self.stmt(s.els)

            def fif(st):
                if c(st.env) != 0:
                    ft(st)
                else:
                    fe(st)
            return fif
        if isinstance(s, While):
            c = self.expr(s.cond)
            fb = self.stmt(s.body)

            def fwhile(st):
                while c(st.env) != 0:
                    if st.loop_fuel <= 0:
                        raise _UndefSignal(FUEL_EXHAUSTED)
                    st.loop_fuel -= 1
                    fb(st)
            return fwhile
        if isinstance(s, AssumeExpr):
            f = self.expr(s.expr)

            def fassume(st):
                if f(st.env) == 0:
                    raise _UndefSignal(ASSUME_FAILED)
            return fassume
        if isinstance(s, AssertExpr):
            f = self.expr(s.expr)

            def fassert(st):
                if f(st.env) == 0:
                    raise _BotSignal(FAILURE_PRED, ())
            return fassert
        if isinstance(s, AssumePred):
            name = s.pred
            fs = [self.expr(a) for a in s.args]

            def fassume_p(st):
                args = tuple(f(st.env) for f in fs)
                if not st.interp.contains(name, args):
                    raise _UndefSignal(ASSUME_FAILED, blocker=(name, args))
            return fassume_p
        if isinstance(s, AssertPred):
            name = s.pred
            fs = [self.expr(a) for a in s.args]

            def fassert_p(st):
                args = tuple(f(st.env) for f in fs)
                if not st.interp.contains(name, args):
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
                def falloc(st):
                    if st.heap_fuel <= 0:
                        raise _UndefSignal(FUEL_EXHAUSTED)
                    st.heap_fuel -= 1
                    st.heap.append(f(st.env))
                    st.env[t] = len(st.heap)
                return falloc

            def falloc_t(st):
                if st.heap_fuel <= 0:
                    raise _UndefSignal(FUEL_EXHAUSTED)
                st.heap_fuel -= 1
                st.allocs += 1
                st.trace.append((st.allocs, f(st.env)))
                st.env[t] = st.allocs
            return falloc_t
        if isinstance(s, Read):
            t = s.target
            p = s.addr
            d = self.def_obj
            rec = self.record_reads
            if self.mode == "heap":
                def fread(st):
                    if st.heap_fuel <= 0:
                        raise _UndefSignal(FUEL_EXHAUSTED)
                    st.heap_fuel -= 1
                    a = st.env[p]
                    h = st.heap
                    v = h[a - 1] if 0 < a <= len(h) else d
                    st.env[t] = v
                    if rec:
                        st.events.append(("read", a, v))
                return fread

            def fread_t(st):
                if st.heap_fuel <= 0:
                    raise _UndefSignal(FUEL_EXHAUSTED)
                st.heap_fuel -= 1
                a = st.env[p]
                v = trace_read(st.trace, st.allocs, a, d)
                st.env[t] = v
                if rec:
                    st.events.append(("read", a, v))
            return fread_t
        if isinstance(s, Write):
            p = s.addr
            f = self.expr(s.expr)
            if self.mode == "heap":
                def fwrite(st):
                    if st.heap_fuel <= 0:
                        raise _UndefSignal(FUEL_EXHAUSTED)
                    st.heap_fuel -= 1
                    a = st.env[p]
                    if 0 < a <= len(st.heap):
                        st.heap[a - 1] = f(st.env)
                return fwrite

            def fwrite_t(st):
                if st.heap_fuel <= 0:
                    raise _UndefSignal(FUEL_EXHAUSTED)
                st.heap_fuel -= 1
                st.trace.append((st.env[p], f(st.env)))
            return fwrite_t
        raise ValueError(f"cannot compile statement {type(s).__name__}")

    def _havoc(self, target: str, charge_loop_fuel: bool):
        if self.program.seed_var is None:
            raise ValueError("havoc/nondet requires a seed declaration")
        ty = self.program.var_types[target]
        seed_var = self.program.seed_var

        def fhavoc(st):
            if st.events is None:
                st.env[target] = self._draw_value(st, ty, charge_loop_fuel)
                return
            seed_before = st.env[seed_var]
            bits_before = st.bits
            st.env[target] = self._draw_value(st, ty, charge_loop_fuel)
            used = st.bits - bits_before
            st.events.append(("draw", seed_before & ((1 << used) - 1), used))
        return fhavoc


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

    def run(self, inputs: dict[str, Value] | None = None,
            interp=EMPTY_INTERP, loop_fuel: int = 64, heap_fuel: int = 32,
            initial_heap: Iterable[ObjVal] = (),
            initial_trace: Iterable[tuple[int, ObjVal]] = (),
            initial_allocs: int = 0) -> RunResult:
        st = _State()
        st.env = dict(self.env_template)
        if inputs:
            for k, v in inputs.items():
                if k not in st.env:
                    raise KeyError(f"unknown input variable {k!r}")
                st.env[k] = v
        seed_var = self.program.seed_var
        if seed_var is not None and st.env[seed_var] < 0:
            raise ValueError("seed must be nonnegative")
        st.heap = list(initial_heap)
        st.trace = list(initial_trace)
        st.allocs = initial_allocs
        st.loop_fuel = loop_fuel
        st.heap_fuel = heap_fuel
        st.interp = interp
        if self.record_reads:
            st.events = []
        outcome: Outcome = TOP
        blocker = None
        try:
            self.body(st)
        except _BotSignal as b:
            outcome = Bot(b.pred, b.args)
            if b.pred != FAILURE_PRED:
                blocker = (b.pred, b.args)
        except _UndefSignal as u:
            outcome = Undefined(u.reason)
            blocker = u.blocker
        if self.mode == "heap":
            heap, heap_len = st.heap, len(st.heap)
        else:
            heap, heap_len = st.trace, st.allocs
        return RunResult(outcome, st.env, heap, heap_len, st.bits, blocker,
                         st.events)


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

