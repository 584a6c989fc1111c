"""Random well-typed program generation for round-trip and differential
tests.  Everything is driven by an explicit Random instance so failures
reproduce."""

from __future__ import annotations

import random

from heapinv.interp import (
    ASSUME_FAILED, Bot, FUEL_EXHAUSTED, ObjVal, TOP, Undefined,
)
from heapinv.lang import (
    ADDR, AdtDecl, Alloc, Assign, AssertExpr, AssertPred, AssumeExpr,
    AssumePred, Binary, Block, CtorApp, CtorDecl, DefObj, FAILURE_PRED,
    HavocStmt, If, INT, IntLit, NondetStmt, Null, PredDecl, Program, Read,
    SelApp, Skip, TestApp, Unary, Var, While, Write, assign_locations,
    obj_type, typecheck,
)

NODE_ADT = AdtDecl("Node", [CtorDecl("node", [("data", INT), ("next", ADDR)])])
PAIR_ADT = AdtDecl("Pair", [
    CtorDecl("mk", [("fst", INT), ("snd", INT)]),
    CtorDecl("unit", [("tag", INT)]),
])

INT_VARS = ["i", "j", "k"]
ADDR_VARS = ["p", "q"]
OBJ_VARS = ["x", "y"]

CMP_OPS = ["<", "<=", ">", ">=", "=", "!="]
ARITH_OPS = ["+", "-", "*"]
DIV_OPS = ["/", "%"]


class Gen:
    def __init__(self, rng: random.Random, allow_havoc: bool = False,
                 allow_preds: bool = True, allow_pair_adt: bool = False,
                 allow_division: bool = False, draw_then_query: bool = False):
        self.rng = rng
        self.allow_havoc = allow_havoc
        self.allow_preds = allow_preds
        self.allow_pair_adt = allow_pair_adt
        # "/" and "%" with any divisor, zero included, among the arithmetic
        self.arith_ops = ARITH_OPS + DIV_OPS if allow_division else ARITH_OPS
        # a quarter of the statements become ``havoc(v); assume/assert(P(v))``
        # so that runs block at a query after consuming seed bits; needs P
        self.draw_then_query = draw_then_query

    def pick(self, xs):
        return self.rng.choice(xs)

    # expressions

    def int_expr(self, depth: int):
        r = self.rng.random()
        if depth <= 0 or r < 0.35:
            if self.rng.random() < 0.5:
                return IntLit(self.rng.randint(-3, 3))
            return Var(self.pick(INT_VARS + ["in"]))
        if r < 0.55:
            return Binary(self.pick(self.arith_ops),
                          self.int_expr(depth - 1), self.int_expr(depth - 1))
        if r < 0.65:
            return SelApp("data", self.obj_expr(depth - 1))
        if r < 0.72:
            inner = self.int_expr(depth - 1)
            if isinstance(inner, IntLit):  # parser folds -literal
                return IntLit(-inner.value)
            return Unary("-", inner)
        if r < 0.80:
            return Binary("%", self.int_expr(depth - 1), IntLit(self.rng.randint(2, 3)))
        if r < 0.9:
            return self.cond_expr(depth - 1)
        if self.allow_pair_adt:
            return SelApp(self.pick(["fst", "snd", "tag"]), self.pair_expr(depth - 1))
        return Binary(self.pick(self.arith_ops),
                      self.int_expr(depth - 1), self.int_expr(depth - 1))

    def cond_expr(self, depth: int):
        r = self.rng.random()
        if depth <= 0 or r < 0.5:
            return Binary(self.pick(CMP_OPS),
                          self.int_expr(max(depth - 1, 0)),
                          self.int_expr(max(depth - 1, 0)))
        if r < 0.65:
            return Binary(self.pick(["&&", "||"]),
                          self.cond_expr(depth - 1), self.cond_expr(depth - 1))
        if r < 0.75:
            return Unary("!", self.cond_expr(depth - 1))
        if r < 0.85:
            return Binary("=", self.addr_expr(), self.addr_expr())
        if r < 0.95:
            return TestApp("node", self.obj_expr(depth - 1))
        return Binary("=", self.obj_expr(depth - 1), self.obj_expr(depth - 1))

    def addr_expr(self):
        return Null() if self.rng.random() < 0.3 else Var(self.pick(ADDR_VARS))

    def obj_expr(self, depth: int):
        r = self.rng.random()
        if depth <= 0 or r < 0.4:
            return Var(self.pick(OBJ_VARS)) if self.rng.random() < 0.7 else DefObj()
        return CtorApp("node", [self.int_expr(depth - 1), self.addr_expr()])

    def pair_expr(self, depth: int):
        if self.rng.random() < 0.5:
            return CtorApp("mk", [self.int_expr(depth - 1), self.int_expr(depth - 1)])
        return CtorApp("unit", [self.int_expr(depth - 1)])

    # statements

    def stmt(self, depth: int):
        if self.draw_then_query and self.rng.random() < 0.25:
            v = self.pick(INT_VARS)
            cls = AssertPred if self.rng.random() < 0.5 else AssumePred
            return Block((HavocStmt(v), cls("P", [Var(v)])))
        r = self.rng.random()
        if depth <= 0:
            r = min(r, 0.69)  # leaves only
        if r < 0.18:
            return Assign(self.pick(INT_VARS), self.int_expr(2))
        if r < 0.26:
            return Assign(self.pick(ADDR_VARS), self.addr_expr())
        if r < 0.34:
            return Assign(self.pick(OBJ_VARS), self.obj_expr(2))
        if r < 0.42:
            return Alloc(self.pick(ADDR_VARS), self.obj_expr(2))
        if r < 0.50:
            return Read(self.pick(OBJ_VARS), self.pick(ADDR_VARS))
        if r < 0.58:
            return Write(self.pick(ADDR_VARS), self.obj_expr(2))
        if r < 0.62:
            return AssertExpr(self.cond_expr(2))
        if r < 0.64:
            return AssumeExpr(self.cond_expr(1))
        if r < 0.66 and self.allow_preds:
            cls = AssertPred if self.rng.random() < 0.7 else AssumePred
            return cls("P", [self.int_expr(1)])
        if r < 0.68 and self.allow_havoc:
            return HavocStmt(self.pick(INT_VARS))
        if r < 0.70:
            return Skip()
        if r < 0.85:
            return If(self.cond_expr(2), self.block(depth - 1),
                      self.block(depth - 1) if self.rng.random() < 0.6 else Block(()))
        # counted loop: an increment keeps most runs inside the fuel budget
        v = self.pick(INT_VARS)
        body = list(self.block(depth - 1).stmts)
        body.append(Assign(v, Binary("+", Var(v), IntLit(1))))
        return Block((
            Assign(v, IntLit(0)),
            While(Binary("<", Var(v), IntLit(self.rng.randint(1, 3))),
                  Block(tuple(body))),
        ))

    def block(self, depth: int) -> Block:
        n = self.rng.randint(1, 4)
        out = []
        for _ in range(n):
            s = self.stmt(depth)
            # splice block-shaped templates: the printer flattens nesting,
            # so keeping the AST flat preserves round-trip equality
            out.extend(s.stmts if isinstance(s, Block) else (s,))
        return Block(tuple(out))

    def program(self, size: int = 6) -> Program:
        adts = [NODE_ADT] + ([PAIR_ADT] if self.allow_pair_adt else [])
        var_types = {"in": INT, "seed": INT}
        for v in INT_VARS:
            var_types[v] = INT
        for v in ADDR_VARS:
            var_types[v] = ADDR
        for v in OBJ_VARS:
            var_types[v] = obj_type("Node")
        preds = [PredDecl("P", [INT])] if self.allow_preds else []
        top = []
        for _ in range(size):
            s = self.stmt(2)
            top.extend(s.stmts if isinstance(s, Block) else (s,))
        body = Block(tuple(top))
        prog = Program(adts=adts, heap_adt="Node", preds=preds,
                       input_var="in", seed_var="seed",
                       var_types=var_types, body=body)
        assign_locations(prog)
        diags = typecheck(prog)
        assert not diags, f"generator produced ill-typed program: {diags[0]}"
        return prog


def gen_program(seed: int, **kw) -> Program:
    return Gen(random.Random(seed), **kw).program()


# ---------------------------------------------------------------------------
# Reference expression semantics


_SELECTORS = {fname: (ctor.name, i)
              for adt in (NODE_ADT, PAIR_ADT) for ctor in adt.ctors
              for i, (fname, _) in enumerate(ctor.fields)}


def eval_expr(e, env: dict):
    """Plain recursive evaluation of a generated expression, the reference
    for the interpreter's compiled closures: Int and Addr values are ints,
    objects ObjVal tuples, a condition is true when nonzero.  Raises
    ZeroDivisionError where the interpreter fails with the reserved
    predicate."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Null):
        return 0
    if isinstance(e, DefObj):
        return ObjVal("node", (0, 0))
    if isinstance(e, Unary):
        v = eval_expr(e.operand, env)
        return -v if e.op == "-" else int(v == 0)
    if isinstance(e, CtorApp):
        return ObjVal(e.ctor, tuple(eval_expr(a, env) for a in e.args))
    if isinstance(e, SelApp):
        o = eval_expr(e.arg, env)
        ctor, i = _SELECTORS[e.sel]
        return o.fields[i] if o.ctor == ctor else 0  # every field is Int or Addr
    if isinstance(e, TestApp):
        return int(eval_expr(e.arg, env).ctor == e.ctor)
    # both connectives decide on the left operand when they can
    if e.op == "&&":
        return int(eval_expr(e.left, env) != 0 and eval_expr(e.right, env) != 0)
    if e.op == "||":
        return int(eval_expr(e.left, env) != 0 or eval_expr(e.right, env) != 0)
    a, b = eval_expr(e.left, env), eval_expr(e.right, env)
    if e.op in DIV_OPS:
        if b == 0:
            raise ZeroDivisionError(e)
        q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
        return q if e.op == "/" else a - b * q
    if e.op == "=":
        return int(a == b)
    if e.op == "!=":
        return int(a != b)
    return {"+": a + b, "-": a - b, "*": a * b,
            "<": int(a < b), "<=": int(a <= b), ">": int(a > b),
            ">=": int(a >= b)}[e.op]  # Int operands only


# ---------------------------------------------------------------------------
# Reference statement semantics


class RefState:
    """What a reference run changes besides its env: the heap as a sequence
    of objects, both fuels and the seed bits drawn.  ``rels`` maps each
    predicate to its set of tuples."""

    def __init__(self, rels: dict, loop_fuel: int, heap_fuel: int,
                 seed_var: str = "seed"):
        self.rels = rels
        self.loop_fuel = loop_fuel
        self.heap_fuel = heap_fuel
        self.seed_var = seed_var
        self.heap: list = []
        self.bits = 0


class RefStop(Exception):
    """``RefStop(outcome, blocker)``: the reference run ended before the
    end of the program; the blocker is the (pred, args) of a failed
    predicate query, else None."""


def _value(e, env):
    try:
        return eval_expr(e, env)
    except ZeroDivisionError:
        raise RefStop(Bot(FAILURE_PRED, ()), None) from None


def _spend_heap_fuel(st: RefState) -> None:
    if st.heap_fuel <= 0:
        raise RefStop(Undefined(FUEL_EXHAUSTED), None)
    st.heap_fuel -= 1


def _draw_int(env: dict, st: RefState, charge_loop_fuel: bool) -> int:
    """The havoc macro on the seed: a sign bit, then (1, digit) pairs most
    significant digit first, then a 0; each pair of a havoc (not of a
    nondet) costs one unit of loop fuel."""
    seed = env[st.seed_var]
    x = -(seed & 1)
    seed >>= 1
    used = 1
    while seed & 1:
        if charge_loop_fuel:
            if st.loop_fuel <= 0:
                env[st.seed_var] = seed
                st.bits += used + 1
                raise RefStop(Undefined(FUEL_EXHAUSTED), None)
            st.loop_fuel -= 1
        x = 2 * x + ((seed >> 1) & 1)
        seed >>= 2
        used += 2
    env[st.seed_var] = seed >> 1
    st.bits += used + 1
    return x


def exec_stmt(s, env: dict, st: RefState) -> None:
    """Plain recursive execution of a generated statement in the sequence
    heap model, the reference for the interpreter's flat code: raises
    RefStop when the run ends early, with the outcome it ends in."""
    if isinstance(s, Block):
        for x in s.stmts:
            exec_stmt(x, env, st)
    elif isinstance(s, Skip):
        pass
    elif isinstance(s, Assign):
        env[s.target] = _value(s.expr, env)
    elif isinstance(s, If):
        exec_stmt(s.then if _value(s.cond, env) != 0 else s.els, env, st)
    elif isinstance(s, While):
        while _value(s.cond, env) != 0:
            if st.loop_fuel <= 0:
                raise RefStop(Undefined(FUEL_EXHAUSTED), None)
            st.loop_fuel -= 1
            exec_stmt(s.body, env, st)
    elif isinstance(s, AssumeExpr):
        if _value(s.expr, env) == 0:
            raise RefStop(Undefined(ASSUME_FAILED), None)
    elif isinstance(s, AssertExpr):
        if _value(s.expr, env) == 0:
            raise RefStop(Bot(FAILURE_PRED, ()), None)
    elif isinstance(s, (AssumePred, AssertPred)):
        args = tuple(_value(a, env) for a in s.args)
        if args not in st.rels.get(s.pred, ()):
            outcome = (Undefined(ASSUME_FAILED) if isinstance(s, AssumePred)
                       else Bot(s.pred, args))
            raise RefStop(outcome, (s.pred, args))
    elif isinstance(s, (HavocStmt, NondetStmt)):
        # generated programs havoc Int variables only
        env[s.target] = _draw_int(env, st, isinstance(s, HavocStmt))
    elif isinstance(s, Alloc):
        _spend_heap_fuel(st)
        st.heap.append(_value(s.expr, env))
        env[s.target] = len(st.heap)
    elif isinstance(s, Read):
        _spend_heap_fuel(st)
        a = env[s.addr]
        env[s.target] = (st.heap[a - 1] if 0 < a <= len(st.heap)
                         else ObjVal("node", (0, 0)))
    elif isinstance(s, Write):
        _spend_heap_fuel(st)
        a = env[s.addr]
        if 0 < a <= len(st.heap):
            st.heap[a - 1] = _value(s.expr, env)
    else:
        raise TypeError(f"no reference semantics for {type(s).__name__}")


def run_reference(program: Program, inputs: dict, rels: dict,
                  loop_fuel: int, heap_fuel: int) -> tuple:
    """(outcome, blocker, env, heap length, bits) of a reference run from
    the defaults of a generated program's variables."""
    env = {v: 0 for v in INT_VARS + ADDR_VARS + ["in", "seed"]}
    env.update({v: ObjVal("node", (0, 0)) for v in OBJ_VARS})
    env.update(inputs)
    st = RefState(rels, loop_fuel, heap_fuel)
    outcome, blocker = TOP, None
    try:
        exec_stmt(program.body, env, st)
    except RefStop as stop:
        outcome, blocker = stop.args
    return outcome, blocker, env, len(st.heap), st.bits


def random_env(rng: random.Random) -> dict:
    """Values for every variable a generated expression can read."""
    env = {v: rng.randint(-3, 3) for v in INT_VARS + ["in"]}
    env.update({v: rng.randint(0, 3) for v in ADDR_VARS})
    env.update({v: ObjVal("node", (rng.randint(-3, 3), rng.randint(0, 3)))
                for v in OBJ_VARS})
    return env


def compare_heap_and_trace(program: Program, in_values, seed_range,
                           loop_fuel=64, heap_fuel=32) -> int:
    """Run both heap models over the input grid (seeds enumerated by
    consumed-prefix classes: a run marks every seed of the range that
    shares the bits it consumed) and check observable agreement.  Returns
    the number of executions compared."""
    from heapinv.interp import CompiledProgram
    heap_cp = CompiledProgram(program, mode="heap")
    trace_cp = CompiledProgram(program, mode="trace")
    lo, hi = seed_range
    n = hi - lo + 1
    compared = 0
    for in_v in in_values:
        marked = bytearray(n)
        for i in range(n):
            if marked[i]:
                continue
            s = lo + i
            ins = {"in": in_v, "seed": s}
            rh = heap_cp.run(inputs=ins, loop_fuel=loop_fuel, heap_fuel=heap_fuel)
            rt = trace_cp.run(inputs=ins, loop_fuel=loop_fuel, heap_fuel=heap_fuel)
            assert rh.outcome == rt.outcome, (in_v, s)
            assert rh.env == rt.env, (in_v, s)
            assert rh.heap_len == rt.heap_len, (in_v, s)
            assert rh.bits_consumed == rt.bits_consumed, (in_v, s)
            compared += 1
            step = 1 << rh.bits_consumed
            marked[i::step] = b"\x01" * len(range(i, n, step))
    return compared
