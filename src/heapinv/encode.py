"""Heap-eliminating program transformations.

All encodings rewrite heap statements into integer bookkeeping plus
assert/assume statements over fresh uninterpreted predicates:

* ``n``  — budget instrumentation only: a counter is decremented and
  checked before every heap statement (the other encodings are proved
  against programs instrumented this way).
* ``r``  — records the value returned by every read in a predicate
  ``R(input, readCount, obj)``, using a prophecy variable ``$last_addr``
  and a history variable ``$last`` tracking the object at that address.
* ``rw`` — additionally records writes in ``W(input, opCount, obj)`` and
  resolves reads in two steps (read count -> write count -> object).  All
  bases share one read path: the ``$last_addr`` test and the ``R`` query
  of ``r`` track the object, those of ``rw*`` the write count, and only
  ``rw*`` then asks ``W`` for the object.
* ``rwfun`` — the rw variant for functional properties of memory-safe
  programs: allocation writes nothing and the initial-object assert is
  dropped.
* ``rwmem`` — the rwfun variant for memory-safety checking: validity
  asserts are added to reads and writes.

Optional extensions: location tagging, a one-element cache, scope-variable
augmentation, and argument removal (a sound abstraction).  An encoding is
one pass: the encoder builds every predicate application and declaration
with its scope arguments and without its removed positions.
"""

from __future__ import annotations

from .lang import (
    ADDR, COUNTER_VAR, INT, LAST_ADDR_VAR, AdtDecl, Alloc, Assign,
    AssertExpr, AssertPred, AssumeExpr, AssumePred, Binary, Block, CtorApp,
    CtorDecl, DefObj, Expr, FrozenStruct, HavocStmt, If, InputError, IntLit,
    NondetStmt, Null, PredDecl, Program, Read, SelApp, Skip, Stmt, Struct,
    TestApp, Type, Unary, Var, Write, assign_locations,
    contains_heap_statements, expr_vars, map_statements, obj_type, replace,
    set_field, typecheck,
)

READ_PRED = "R"
WRITE_PRED = "W"

V_CNT_ALLOC = "$cnt_alloc"
V_CNT = "$cnt"
V_LAST = "$last"
V_CNT_LAST = "$cnt_last"
V_T = "$t"
V_LAST_LOC = "$last_loc"
V_TAG_TMP = "$l"
V_TAG_TMP_W = "$lw"
V_CACHE_ADDR = "$lastc_addr"
V_CACHE_DATA = "$lastc_data"


class EncodingConfig(FrozenStruct):
    __slots__ = _fields = (
        "base", "tagging", "caching", "scope_vars", "drop_args",
        "assume_memsafe", "native_havoc", "strip_asserts", "alloc_init_write")

    def __init__(self, base: str = "r", tagging: bool = False,
                 caching: bool = False, scope_vars: tuple[str, ...] = (),
                 drop_args: tuple[tuple[str, int], ...] = (),
                 assume_memsafe: bool = False, native_havoc: bool = False,
                 strip_asserts: bool = False, alloc_init_write: bool = False):
        set_field(self, "base", base)  # "r" | "rw" | "rwfun" | "rwmem"
        set_field(self, "tagging", tagging)
        set_field(self, "caching", caching)
        set_field(self, "scope_vars", scope_vars)
        set_field(self, "drop_args", drop_args)  # (predicate, index) pairs
        set_field(self, "assume_memsafe", assume_memsafe)
        set_field(self, "native_havoc", native_havoc)
        # rwmem: drop the source assert statements
        set_field(self, "strip_asserts", strip_asserts)
        # rwfun/rwmem: record an object at alloc
        set_field(self, "alloc_init_write", alloc_init_write)


class EncodedProgram(Struct):
    __slots__ = _fields = ("program", "source", "config")

    def __init__(self, program: Program, source: Program,
                 config: EncodingConfig):
        self.program = program
        self.source = source
        self.config = config


class EncodingError(InputError):
    pass


# ---------------------------------------------------------------------------
# small AST builders

def _v(name: str) -> Var:
    return Var(name)


def _n(value: int) -> IntLit:
    return IntLit(value)


def _eq(a: Expr, b: Expr) -> Binary:
    return Binary("=", a, b)


def _and(a: Expr, b: Expr) -> Binary:
    return Binary("&&", a, b)


def _plus1(name: str) -> Assign:
    return Assign(name, Binary("+", _v(name), _n(1)))


def _block(stmts: list[Stmt]) -> Block:
    return Block(tuple(stmts))


def _if(cond: Expr, then: list[Stmt], els: list[Stmt] | None = None) -> If:
    return If(cond, _block(then), _block(els or []))


# ---------------------------------------------------------------------------
# validation and shared passes


def _validate_source(program: Program, need_heap_adt: bool = True) -> None:
    diags = typecheck(program)
    if diags:
        raise EncodingError(f"source program does not typecheck: {diags[0]}")
    if program.input_var is None:
        raise EncodingError("encoding requires an input declaration")
    if program.seed_var is None:
        raise EncodingError("encoding requires a seed declaration")
    for name in program.var_types:
        # the budget counter may already be present: the heap encodings are
        # routinely composed with the budget instrumentation
        if name.startswith("$") and name != COUNTER_VAR:
            raise EncodingError(
                f"variable {name!r}: the '$' prefix is reserved for introduced names")
    for pd in program.preds:
        if pd.name in (READ_PRED, WRITE_PRED):
            raise EncodingError(
                f"predicate name {pd.name!r} is reserved by the encoding")
    if need_heap_adt and program.heap_adt is None:
        raise EncodingError("encoding requires a heaptype declaration")


def _tx_expr(e: Expr) -> Expr:
    """Rebuild an expression with null lowered to the integer 0.  Leaves are
    shared with the source: no pass changes an expression in place."""
    if isinstance(e, Null):
        return IntLit(0, pos=e.pos)
    if isinstance(e, Unary):
        return Unary(e.op, _tx_expr(e.operand), pos=e.pos)
    if isinstance(e, Binary):
        return Binary(e.op, _tx_expr(e.left), _tx_expr(e.right), pos=e.pos)
    if isinstance(e, CtorApp):
        return CtorApp(e.ctor, [_tx_expr(a) for a in e.args], pos=e.pos)
    if isinstance(e, SelApp):
        return SelApp(e.sel, _tx_expr(e.arg), pos=e.pos)
    if isinstance(e, TestApp):
        return TestApp(e.ctor, _tx_expr(e.arg), pos=e.pos)
    if isinstance(e, (IntLit, Var, DefObj)):
        return e
    raise EncodingError(f"cannot transform expression {e!r}")


def _addr_fields_to_int(adts: list[AdtDecl]) -> list[AdtDecl]:
    out = []
    for a in adts:
        ctors = [CtorDecl(c.name, [(fn, INT if ft == ADDR else ft)
                                   for fn, ft in c.fields])
                 for c in a.ctors]
        out.append(AdtDecl(a.name, ctors))
    return out


# ---------------------------------------------------------------------------
# the budget instrumentation


def enc_n(program: Program) -> Program:
    """Insert ``$c := $c - 1; assume($c >= 0);`` before every heap
    statement.  ``$c`` is declared but not initialised; the oracle seeds it
    with the heap-operation budget."""
    _validate_source(program, need_heap_adt=False)
    prelude = lambda: [
        Assign(COUNTER_VAR, Binary("-", _v(COUNTER_VAR), _n(1))),
        AssumeExpr(Binary(">=", _v(COUNTER_VAR), _n(0))),
    ]

    def tx(s: Stmt) -> list[Stmt]:
        if isinstance(s, (Alloc, Read, Write)):
            return prelude() + [s]
        return [s]

    var_types = dict(program.var_types)
    var_types[COUNTER_VAR] = INT
    out = replace(program, var_types=var_types,
                  body=map_statements(program.body, tx))
    assign_locations(out)
    return out


# ---------------------------------------------------------------------------
# the heap-eliminating encodings


class _HeapEncoder:
    def __init__(self, program: Program, config: EncodingConfig):
        _validate_source(program)
        if config.base not in ("r", "rw", "rwfun", "rwmem"):
            raise EncodingError(f"unknown encoding base {config.base!r}")
        if config.base == "rwfun" and not config.assume_memsafe:
            raise EncodingError(
                "the rwfun encoding is only correct for memory-safe programs; "
                "pass assume_memsafe to acknowledge this")
        if config.assume_memsafe and config.base != "rwfun":
            raise EncodingError(
                "assume_memsafe applies only to the rwfun encoding")
        if config.strip_asserts and config.base != "rwmem":
            raise EncodingError(
                "strip_asserts applies only to the rwmem encoding")
        if config.alloc_init_write and config.base not in ("rwfun", "rwmem"):
            raise EncodingError(
                "alloc_init_write applies only to the rwfun and rwmem "
                "encodings")
        self.src = program
        self.cfg = config
        assign_locations(program)
        self.obj_ty = obj_type(program.heap_adt)
        self.in_var = program.input_var
        # the scope variables go on R only: a write asserts W with the
        # values at the write and a read assumes it with the values at the
        # read, so a variable changed in between would leave the read no
        # tuple to match, and the program after it unreachable
        self.scope = {READ_PRED: config.scope_vars}
        self.drop: dict[str, list[int]] = {}
        for pred, idx in config.drop_args:
            self.drop.setdefault(pred, []).append(idx)

    # havoc emission (macro by default, native statement on request)

    def _havoc(self, target: str) -> Stmt:
        if self.cfg.native_havoc:
            return NondetStmt(target)
        return HavocStmt(target)

    # predicate applications in their final form: with the tagging and
    # scope arguments, without the removed positions

    def _final(self, pred: str, xs: list, of_var=_v) -> list:
        """The arguments ``xs`` of ``pred`` (or their types), followed by
        ``of_var`` of each of its scope variables, less its removed
        positions: a removed index counts the scope arguments."""
        scope = self.scope.get(pred)
        if scope:
            xs = xs + [of_var(nm) for nm in scope]
        drop = self.drop.get(pred)
        if drop:
            xs = [x for i, x in enumerate(xs) if i not in drop]
        return xs

    def _r_args(self, third: Expr, write_loc: Expr,
                read_loc: int | None) -> list[Expr]:
        args = [_v(self.in_var), _v(V_CNT), third]
        if self.cfg.tagging:
            args.append(write_loc)
            args.append(_n(read_loc))
        return self._final(READ_PRED, args)

    def _w_args(self, cnt: Expr, obj: Expr, loc: int | None) -> list[Expr]:
        args = [_v(self.in_var), cnt, obj]
        if self.cfg.tagging:
            args.append(_n(loc) if loc is not None else _v(V_TAG_TMP_W))
        return self._final(WRITE_PRED, args)

    # statement rewriting

    def encode(self) -> EncodedProgram:
        cfg = self.cfg
        base = cfg.base

        # the history of the tracked address: its object (r) or the count of
        # the write that stored it (rw*)
        tracked = V_LAST if base == "r" else V_CNT_LAST
        # the introduced variables: name, type and initial value (None when
        # the variable starts arbitrary, like the prophecy address)
        introduced: list[tuple[str, Type, Expr | None]] = [
            (V_CNT_ALLOC, INT, _n(0)), (V_CNT, INT, _n(0))]
        if base == "r":
            introduced.append((V_LAST, self.obj_ty, DefObj()))
        else:
            introduced += [(V_CNT_LAST, INT, _n(0)), (V_T, INT, _n(0))]
        introduced.append((LAST_ADDR_VAR, INT, None))
        if cfg.tagging:
            introduced += [(V_LAST_LOC, INT, _n(0)), (V_TAG_TMP, INT, None)]
            if base != "r":
                introduced.append((V_TAG_TMP_W, INT, None))
        if cfg.caching:
            introduced += [(V_CACHE_ADDR, INT, _n(0)),
                           (V_CACHE_DATA, self.obj_ty, DefObj())]

        var_types: dict[str, Type] = {
            name: INT if ty == ADDR else ty
            for name, ty in self.src.var_types.items()}
        init: list[Stmt] = []
        for name, ty, value in introduced:
            var_types[name] = ty
            if value is not None:
                init.append(Assign(name, value))
            if name == V_T and base == "rw":
                init.append(AssertPred(
                    WRITE_PRED, self._w_args(_n(0), DefObj(), 0)))

        # the options are checked against the output's variables (a scope
        # variable of type Addr has become an Int) and the predicates'
        # arguments with R's scope arguments
        for nm in cfg.scope_vars:
            ty = var_types.get(nm)
            if ty is None:
                raise EncodingError(f"unknown scope variable {nm!r}")
            if ty != INT:
                raise EncodingError(
                    f"scope variable {nm!r} must have type Int, has {ty}")
        arg_types = {p.name: list(p.arg_types) for p in self.src.preds}
        tags = [INT, INT] if cfg.tagging else []
        # R's third argument is the history tracked for the address
        arg_types[READ_PRED] = [INT, INT, var_types[tracked]] + tags
        if base != "r":
            arg_types[WRITE_PRED] = [INT, INT, self.obj_ty] + tags[:1]
        for pred, idxs in self.drop.items():
            if pred not in arg_types:
                raise EncodingError(f"unknown predicate {pred!r}")
            arity = len(arg_types[pred]) + len(self.scope.get(pred, ()))
            for i in idxs:
                if not (0 <= i < arity):
                    raise EncodingError(
                        f"argument index {i} out of range for {pred!r}/{arity}")
        preds = [PredDecl(name, self._final(name, tys, lambda _: INT))
                 for name, tys in arg_types.items()]

        self._tmp_counter = 0

        def fresh_tmp() -> str:
            name = f"$e{self._tmp_counter}"
            self._tmp_counter += 1
            var_types[name] = self.obj_ty
            return name

        valid = lambda p: _and(Binary("<", _n(0), _v(p)),
                               Binary("<=", _v(p), _v(V_CNT_ALLOC)))

        def cache_update(addr: str, obj: Expr) -> list[Stmt]:
            return [Assign(V_CACHE_ADDR, _v(addr)),
                    Assign(V_CACHE_DATA, obj)]

        def update(value: Expr, loc: int) -> list[Stmt]:
            # the tracked address's history, and where it happened
            out = [Assign(tracked, value)]
            if cfg.tagging:
                out.append(Assign(V_LAST_LOC, _n(loc)))
            return out

        def track(addr: str, value: Expr, loc: int) -> If:
            return _if(_eq(_v(LAST_ADDR_VAR), _v(addr)), update(value, loc))

        def tx_alloc(s: Alloc) -> list[Stmt]:
            e = _tx_expr(s.expr)
            out: list[Stmt] = []
            if s.target in expr_vars(e):
                # the table overwrites the target before using the operand;
                # pre-evaluate to preserve the original evaluation order
                tmp = fresh_tmp()
                out.append(Assign(tmp, e))
                e = _v(tmp)
            out.append(_plus1(V_CNT_ALLOC))
            out.append(Assign(s.target, _v(V_CNT_ALLOC)))
            if base == "r":
                out.append(track(s.target, e, s.loc))
            elif base == "rw" or cfg.alloc_init_write:
                out.append(_plus1(V_CNT))
                out.append(AssertPred(WRITE_PRED, self._w_args(_v(V_CNT), e, s.loc)))
                out.append(track(s.target, _v(V_CNT), s.loc))
            else:
                # rwfun/rwmem without the init-write adjustment: the operand
                # is dropped, allocation is pure counter arithmetic
                return out
            if cfg.caching:
                out.extend(cache_update(s.target, e))
            return out

        def read_core(s: Read) -> list[Stmt]:
            # R holds the history read; under rw* W maps it to the object
            dest = s.target if base == "r" else V_T
            then = [AssertPred(READ_PRED, self._r_args(
                        _v(tracked), _v(V_LAST_LOC), s.loc)),
                    Assign(dest, _v(tracked))]
            els: list[Stmt] = [self._havoc(dest)]
            if cfg.tagging:
                els.append(self._havoc(V_TAG_TMP))
            els.append(AssumePred(READ_PRED, self._r_args(
                _v(dest), _v(V_TAG_TMP), s.loc)))
            out: list[Stmt] = [_if(_eq(_v(LAST_ADDR_VAR), _v(s.addr)), then, els)]
            if base != "r":
                out.append(self._havoc(s.target))
                if cfg.tagging:
                    out.append(self._havoc(V_TAG_TMP_W))
                out.append(AssumePred(WRITE_PRED, self._w_args(
                    _v(V_T), _v(s.target), None)))
            return out

        def tx_read(s: Read) -> list[Stmt]:
            out: list[Stmt] = [_plus1(V_CNT)]
            if base == "rwmem":
                # every read is validity-checked, cache hits included
                out.append(AssertExpr(valid(s.addr)))
            core = read_core(s)
            if cfg.caching:
                hit = [Assign(s.target, _v(V_CACHE_DATA))]
                miss = core + cache_update(s.addr, _v(s.target))
                out.append(_if(_eq(_v(V_CACHE_ADDR), _v(s.addr)), hit, miss))
            else:
                out.extend(core)
            return out

        def tx_write(s: Write) -> list[Stmt]:
            e = _tx_expr(s.expr)
            if base == "r":
                if cfg.caching:
                    # one validity test guards both the tracking update and
                    # the cache update (an invalid write changes nothing)
                    return [_if(valid(s.addr), [track(s.addr, e, s.loc)]
                                + cache_update(s.addr, e))]
                return [_if(_and(_eq(_v(LAST_ADDR_VAR), _v(s.addr)), valid(s.addr)),
                            update(e, s.loc))]
            then = [AssertPred(WRITE_PRED, self._w_args(_v(V_CNT), e, s.loc)),
                    track(s.addr, _v(V_CNT), s.loc)]
            if cfg.caching:
                then.extend(cache_update(s.addr, e))
            els = [AssertExpr(_n(0))] if base == "rwmem" else None
            return [_plus1(V_CNT), _if(valid(s.addr), then, els)]

        def tx(s: Stmt) -> list[Stmt]:
            if isinstance(s, Alloc):
                return tx_alloc(s)
            if isinstance(s, Read):
                return tx_read(s)
            if isinstance(s, Write):
                return tx_write(s)
            if isinstance(s, (AssertExpr, AssertPred)) and base == "rwmem" \
                    and cfg.strip_asserts:
                return []
            if isinstance(s, (Assign, AssumeExpr, AssertExpr)):
                return [replace(s, expr=_tx_expr(s.expr))]
            if isinstance(s, (AssumePred, AssertPred)):
                return [replace(s, args=self._final(
                    s.pred, [_tx_expr(a) for a in s.args]))]
            if isinstance(s, (Skip, HavocStmt, NondetStmt)):
                return [s]
            raise EncodingError(f"cannot encode statement {type(s).__name__}")

        body_stmts = init + list(map_statements(self.src.body, tx, _tx_expr).stmts)

        out = Program(
            adts=_addr_fields_to_int(self.src.adts),
            heap_adt=self.src.heap_adt,
            preds=preds,
            input_var=self.src.input_var,
            seed_var=self.src.seed_var,
            var_types=var_types,
            body=_block(body_stmts),
        )
        assign_locations(out)
        diags = typecheck(out)
        if diags:
            raise AssertionError(f"encoder produced an ill-typed program: {diags[0]}")
        return EncodedProgram(out, self.src, cfg)


def encode(program: Program, config: EncodingConfig) -> EncodedProgram:
    return _HeapEncoder(program, config).encode()


def enc_r(program: Program, **kw) -> EncodedProgram:
    return encode(program, EncodingConfig(base="r", **kw))


def enc_rw(program: Program, **kw) -> EncodedProgram:
    return encode(program, EncodingConfig(base="rw", **kw))


def enc_rwfun(program: Program, **kw) -> EncodedProgram:
    kw.setdefault("assume_memsafe", True)
    return encode(program, EncodingConfig(base="rwfun", **kw))


def enc_rwmem(program: Program, **kw) -> EncodedProgram:
    return encode(program, EncodingConfig(base="rwmem", **kw))


# ---------------------------------------------------------------------------
# structural postconditions (used by tests and the CLI)


def encoding_is_heap_free(program: Program) -> bool:
    return not contains_heap_statements(program) and all(
        ty != ADDR for ty in program.var_types.values())
