"""Random well-typed program generation for round-trip and differential
tests.  Everything is driven by an explicit Random instance so failures
reproduce.  Also the tests' references and helpers that the package does
not need: the reference evaluator, the havoc macro written as plain
statements (``expand_havoc``), and small queries on programs,
interpretations and the corpus."""

from __future__ import annotations

import random

from heapinv.interp import (
    ASSUME_FAILED, Bot, FUEL_EXHAUSTED, ObjVal, TOP, Undefined,
)
from heapinv.corpus import CorpusEntry, load_corpus
from heapinv.encode import enc_rw
from heapinv.fixpoint import Interpretation
from heapinv.lang import (
    ADDR, AdtDecl, Alloc, Assign, AssertExpr, AssertPred, AssumeExpr,
    AssumePred, Binary, Block, CtorApp, CtorDecl, DefObj, Expr, FAILURE_PRED,
    HavocStmt, If, INT, IntLit, NondetStmt, Null, PredDecl, Program, Read,
    SelApp, Skip, Stmt, TestApp, Type, Unary, Var, While, Write,
    map_statements, obj_type, replace, typecheck, walk_statements,
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


# ---------------------------------------------------------------------------
# Queries on programs, interpretations and the corpus


def heap_tags(program: Program) -> list[int]:
    """The location tag that the tagging ``rw`` encoding gives each heap
    statement of the program, in pre-order: an allocation's and a write's
    on the ``W`` assertion that records it, a read's on its ``R``
    assumption."""
    q = enc_rw(program, tagging=True).program
    tags = [s.args[-1].value for s in walk_statements(q.body)
            if type(s) is AssertPred and s.pred == "W"
            or type(s) is AssumePred and s.pred == "R"]
    return tags[1:]  # the initial object's write is tagged 0


def preorder_heap_numbers(program: Program) -> list[int]:
    """The 1-based pre-order number of each heap statement among the
    statements of the program, blocks not counted."""
    return [i for i, s in enumerate(walk_statements(program.body), 1)
            if type(s) in (Alloc, Read, Write)]


def is_subset(small: Interpretation, big: Interpretation) -> bool:
    """Every tuple of ``small`` is in ``big``."""
    return all(rel <= big.rels.get(name, set())
               for name, rel in small.rels.items())


def corpus_by_name() -> dict[str, CorpusEntry]:
    return {e.name: e for e in load_corpus()}


# ---------------------------------------------------------------------------
# The havoc macro written as plain statements: the executable specification
# of the draw that ``_draw_int`` above and ``heapinv.interp`` implement


class FreshNames:
    """Allocates ``$``-prefixed names that collide with nothing in use."""

    def __init__(self, taken: set[str]):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        name = f"${base}"
        k = 0
        while name in self.taken:
            k += 1
            name = f"${base}{k}"
        self.taken.add(name)
        return name


def _int_havoc_stmts(x: str, seed: str) -> list[Stmt]:
    """The bit-extraction macro: sign bit, then pairs of (continue, digit)
    bits, then a terminating division."""
    def sv() -> Expr:
        return Var(seed)

    def mod2(e: Expr) -> Expr:
        return Binary("%", e, IntLit(2))

    def half() -> Stmt:
        return Assign(seed, Binary("/", sv(), IntLit(2)))

    return [
        Assign(x, Unary("-", mod2(sv()))),
        half(),
        While(Binary("=", mod2(sv()), IntLit(1)), Block((
            half(),
            Assign(x, Binary("+", Binary("*", IntLit(2), Var(x)), mod2(sv()))),
            half(),
        ))),
        half(),
    ]


def expand_havoc(stmt: HavocStmt, program: Program,
                 fresh: FreshNames | None = None,
                 new_vars: dict[str, Type] | None = None) -> Stmt:
    """Expand ``havoc(x)`` into plain statements reading bits from the seed.

    For Int targets this is the exact four-statement macro.  Obj targets are
    havoced field-wise through fresh Int temporaries (with a constructor
    chooser drawn first when the ADT has several constructors); the
    temporaries are reported through ``new_vars`` so callers can declare
    them.
    """
    if program.seed_var is None:
        raise ValueError("havoc expansion requires a seed declaration")
    if fresh is None:
        fresh = FreshNames(set(program.var_types))
    if new_vars is None:
        new_vars = {}
    ty = program.var_types.get(stmt.target)
    if ty is None:
        raise ValueError(f"havoc of undeclared variable {stmt.target!r}")
    if ty == INT:
        return Block(tuple(_int_havoc_stmts(stmt.target, program.seed_var)))
    if ty.kind != "Obj":
        raise ValueError(f"cannot havoc variable of type {ty}")
    stmts, final = _ObjHavoc(program, fresh, new_vars).obj(ty.adt)
    return Block(tuple(stmts + [Assign(stmt.target, final)]))


class _ObjHavoc:
    """Field-wise havoc of an ADT value: ``obj`` returns the statements that
    draw one and the expression that holds it, declaring each temporary in
    ``new_vars``."""

    def __init__(self, program: Program, fresh: FreshNames,
                 new_vars: dict[str, Type]):
        self.adts = program.adts_by_name()
        self.seed_var = program.seed_var
        self.fresh = fresh
        self.new_vars = new_vars

    def temp(self, base: str, ty: Type) -> str:
        name = self.fresh.fresh(base)
        self.new_vars[name] = ty
        return name

    def ctor(self, ctor: CtorDecl) -> tuple[list[Stmt], Expr]:
        stmts: list[Stmt] = []
        args: list[Expr] = []
        for fname, fty in ctor.fields:
            if fty == INT:
                tmp = self.temp("h", INT)
                stmts.extend(_int_havoc_stmts(tmp, self.seed_var))
                args.append(Var(tmp))
            elif fty.kind == "Obj":
                sub_stmts, sub_expr = self.obj(fty.adt)
                stmts.extend(sub_stmts)
                args.append(sub_expr)
            else:
                raise ValueError(f"cannot havoc Addr field {fname!r}")
        return stmts, CtorApp(ctor.name, args)

    def obj(self, adt_name: str) -> tuple[list[Stmt], Expr]:
        ctors = self.adts[adt_name].ctors
        if len(ctors) == 1:
            return self.ctor(ctors[0])
        # several constructors: draw a chooser int; the default constructor
        # catches every value without an explicit case, keeping totality
        chooser = self.temp("h", INT)
        tmp_obj = self.temp("ho", obj_type(adt_name))
        stmts: list[Stmt] = list(_int_havoc_stmts(chooser, self.seed_var))
        d_stmts, d_expr = self.ctor(ctors[0])
        branch: Stmt = Block(tuple(d_stmts + [Assign(tmp_obj, d_expr)]))
        for idx in range(len(ctors) - 1, 0, -1):
            c_stmts, c_expr = self.ctor(ctors[idx])
            branch = If(Binary("=", Var(chooser), IntLit(idx)),
                        Block(tuple(c_stmts + [Assign(tmp_obj, c_expr)])),
                        branch)
        stmts.append(branch)
        return stmts, Var(tmp_obj)


def expand_program_havocs(program: Program) -> Program:
    """Replace every havoc macro statement by its expansion, declaring the
    temporaries it needs.  Nondet statements are left untouched."""
    fresh = FreshNames(set(program.var_types))
    new_vars: dict[str, Type] = {}

    def tx(s: Stmt) -> list[Stmt]:
        if isinstance(s, HavocStmt):
            return [expand_havoc(s, program, fresh, new_vars)]
        return [s]

    body = map_statements(program.body, tx)
    var_types = dict(program.var_types)
    var_types.update(new_vars)
    return replace(program, var_types=var_types, body=body)
