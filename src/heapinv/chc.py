"""Constrained Horn clause translation and SMT-LIB2 HORN emission.

Heap-free programs (typically encoder outputs) are translated into clauses
over one location per node of ``lang.layout``, one clause per edge: the
graph the executor compiles.  Each location predicate ranges over all
declared variables.  Predicate assertions put the uninterpreted predicate
in a clause head; predicate assumptions put it in the body alongside the
location predicate (making the clause set non-linear).  Satisfiability of
the emitted system certifies program safety.

The state is built once per program and shared: every location predicate
declares the same sort tuple, every clause without fresh variables
quantifies over the same ``ClauseSet.state`` tuple, and every location
atom whose arguments are the variables themselves holds the same
``ClauseSet.state_args`` tuple.  Everything shared is a tuple, so no
clause can change another.  ``emit_smtlib`` recognises the shared tuples
by identity and renders each once per clause set.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

from .lang import (
    ADDR, INT, Alloc, Assign, AssertExpr, AssertPred, AssumeExpr, AssumePred,
    Binary, CtorApp, DefObj, Expr, HavocStmt, IntLit, NondetStmt, Null,
    Program, Read, SelApp, TestApp, Type, Unary, Var, Write, layout,
)

Term = object  # str | tuple of Terms, rendered as S-expressions


class ChcError(Exception):
    pass


@dataclass
class PredApp:
    name: str
    args: tuple


@dataclass
class Clause:
    head: PredApp | None            # None encodes False
    body: list[PredApp]
    constraint: list                # conjunction of Bool terms
    vars: tuple[tuple[str, str], ...]  # quantified variables with sorts


@dataclass
class ClauseSet:
    adts: list                      # AdtDecl list (declaration order)
    preds: dict[str, tuple[str, ...]]  # name -> argument sorts
    clauses: list[Clause] = field(default_factory=list)
    entry: str = ""
    state: tuple[tuple[str, str], ...] = ()  # every variable with its sort
    state_args: tuple[str, ...] = ()         # the names of ``state``

    def false_clauses(self) -> list[Clause]:
        return [c for c in self.clauses if c.head is None]

    def max_body_atoms(self) -> int:
        return max((len(c.body) for c in self.clauses), default=0)


def _sort_of(ty: Type) -> str:
    if ty in (INT, ADDR):
        return "Int"
    return ty.adt


class _Translator:
    def __init__(self, program: Program):
        self.p = program
        self.adts = program.adts_by_name()
        names = tuple(program.var_types)
        self.loc_sorts = tuple(_sort_of(t) for t in program.var_types.values())
        self.slot = {n: i for i, n in enumerate(names)}
        self.cs = ClauseSet(adts=list(program.adts), preds={},
                            state=tuple(zip(names, self.loc_sorts)),
                            state_args=names)
        self.state, self.args = self.cs.state, names
        for pd in program.preds:
            self.cs.preds[pd.name] = tuple(_sort_of(t) for t in pd.arg_types)
        self.fresh_count = 0

    def assigned(self, target: str, value: Term) -> tuple:
        """The state arguments with ``target`` replaced by ``value``: the
        shared tuple itself when the value is the target variable."""
        if value == target:
            return self.args
        args = list(self.args)
        args[self.slot[target]] = value
        return tuple(args)

    def fresh(self, base: str) -> str:
        name = f"{base}!{self.fresh_count}"
        self.fresh_count += 1
        return name

    # terms

    def term(self, e: Expr) -> Term:
        if isinstance(e, IntLit):
            return str(e.value) if e.value >= 0 else ("-", str(-e.value))
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Null):
            return "0"
        if isinstance(e, DefObj):
            return self.default_term(self.p.heap_adt)
        if isinstance(e, Unary):
            if e.op == "-":
                return ("-", self.term(e.operand))
            return self.bool_to_int(("not", self.formula(e.operand)))
        if isinstance(e, Binary):
            op = e.op
            lt, rt = self.term(e.left), self.term(e.right)
            if op in ("+", "-", "*"):
                return (op, lt, rt)
            if op == "/":
                return self.trunc_div(lt, e.right)
            if op == "%":
                return self.trunc_mod(lt, e.right)
            return self.bool_to_int(self.formula(e))
        if isinstance(e, CtorApp):
            if not e.args:
                return e.ctor
            return (e.ctor, *[self.term(a) for a in e.args])
        if isinstance(e, SelApp):
            return (e.sel, self.term(e.arg))
        if isinstance(e, TestApp):
            return self.bool_to_int((("_", "is", e.ctor), self.term(e.arg)))
        raise ChcError(f"cannot translate expression {e!r}")

    def formula(self, e: Expr) -> Term:
        """Bool view of an Int-typed expression: nonzero means true."""
        if isinstance(e, Binary):
            op = e.op
            if op in ("<", "<=", ">", ">="):
                return (op, self.term(e.left), self.term(e.right))
            if op in ("=", "!="):
                eqt = ("=", self.term(e.left), self.term(e.right))
                return eqt if op == "=" else ("not", eqt)
            if op == "&&":
                return ("and", self.formula(e.left), self.formula(e.right))
            if op == "||":
                return ("or", self.formula(e.left), self.formula(e.right))
        if isinstance(e, Unary) and e.op == "!":
            return ("not", self.formula(e.operand))
        if isinstance(e, TestApp):
            return (("_", "is", e.ctor), self.term(e.arg))
        if isinstance(e, IntLit):
            return "true" if e.value != 0 else "false"
        return ("not", ("=", self.term(e), "0"))

    def bool_to_int(self, b: Term) -> Term:
        return ("ite", b, "1", "0")

    def trunc_div(self, lt: Term, divisor: Expr) -> Term:
        d = self._positive_const(divisor)
        # SMT-LIB div is Euclidean; truncation flips the sign for negative
        # dividends
        return ("ite", (">=", lt, "0"), ("div", lt, d),
                ("-", ("div", ("-", lt), d)))

    def trunc_mod(self, lt: Term, divisor: Expr) -> Term:
        d = self._positive_const(divisor)
        return ("ite", (">=", lt, "0"), ("mod", lt, d),
                ("-", ("mod", ("-", lt), d)))

    def _positive_const(self, e: Expr) -> str:
        if isinstance(e, IntLit) and e.value > 0:
            return str(e.value)
        raise ChcError(
            "division in clause translation is supported only for positive "
            "constant divisors")

    def default_term(self, adt_name: str | None) -> Term:
        if adt_name is None:
            raise ChcError("defObj without heaptype")
        adt = self.adts[adt_name]
        ctor = adt.ctors[0]
        if not ctor.fields:
            return ctor.name
        args = []
        for _, fty in ctor.fields:
            if fty.kind == "Obj":
                args.append(self.default_term(fty.adt))
            else:
                args.append("0")
        return (ctor.name, *args)

    # clauses

    def clause(self, head: PredApp | None, body: list[PredApp],
               constraint: list, extra_vars: tuple = ()) -> None:
        cvars = self.state + extra_vars if extra_vars else self.state
        self.cs.clauses.append(Clause(head, body, constraint, cvars))

    def goto(self, pre: str, post: str, constraint: list,
             head_args: tuple | None = None,
             extra_body: PredApp | None = None,
             extra_vars: tuple = ()) -> None:
        body = [PredApp(pre, self.args)]
        if extra_body is not None:
            body.append(extra_body)
        self.clause(PredApp(post, head_args or self.args), body, constraint,
                    extra_vars)

    def translate(self) -> ClauseSet:
        """One location ``L{i}`` per node i of ``lang.layout`` and ``L{end}``
        for the end, entered at ``L0``; one clause per edge, and one more
        per assertion."""
        nodes = layout(self.p.body)
        locs = [f"L{i}" for i in range(len(nodes) + 1)]
        for name in locs:
            self.cs.preds[name] = self.loc_sorts
        self.cs.entry = locs[0]
        # single entry clause: every variable starts unconstrained
        self.clause(PredApp(locs[0], self.args), [], [])
        for i, (kind, s, nxt, els) in enumerate(nodes):
            pre, post = locs[i], locs[nxt]
            if kind != "do":  # a test: s is its condition
                cond = self.formula(s)
                self.goto(pre, post, [cond])
                self.goto(pre, locs[els], [("not", cond)])
                continue
            t = type(s)
            if t is Assign:
                self.goto(pre, post, [],
                          self.assigned(s.target, self.term(s.expr)))
            elif t is HavocStmt or t is NondetStmt:
                sort = _sort_of(self.p.var_types[s.target])
                fresh = self.fresh(s.target.replace("$", "_"))
                self.goto(pre, post, [], self.assigned(s.target, fresh),
                          extra_vars=((fresh, sort),))
            elif t is AssumeExpr:
                self.goto(pre, post, [self.formula(s.expr)])
            elif t is AssertExpr:
                cond = self.formula(s.expr)
                self.clause(None, [PredApp(pre, self.args)], [("not", cond)])
                self.goto(pre, post, [cond])
            elif t is AssumePred:
                app = PredApp(s.pred, tuple(self.term(a) for a in s.args))
                self.goto(pre, post, [], extra_body=app)
            elif t is AssertPred:
                app = PredApp(s.pred, tuple(self.term(a) for a in s.args))
                self.clause(app, [PredApp(pre, self.args)], [])
                self.goto(pre, post, [])
            elif t is Alloc or t is Read or t is Write:
                raise ChcError("program still contains heap statements; "
                               "encode it first")
            else:
                raise ChcError(f"cannot translate statement {t.__name__}")
        return self.cs


def to_chc(program: Program) -> ClauseSet:
    """Translate a heap-free typed program into Horn clauses."""
    return _Translator(program).translate()


# ---------------------------------------------------------------------------
# SMT-LIB2 rendering


def _render(t: Term) -> str:
    if isinstance(t, str):
        return t
    return "(" + " ".join(_render(x) for x in t) + ")"


def _declaration_order(adts: list) -> list:
    """The adts, each after every adt its fields name: a depth-first walk in
    declaration order.  ADTs are not recursive (the typechecker rejects
    that), so the walk ends and the order exists."""
    by_name = {a.name: a for a in adts}
    out: list = []
    seen: set[str] = set()

    def visit(adt) -> None:
        if adt.name in seen:
            return
        seen.add(adt.name)
        for c in adt.ctors:
            for _, ft in c.fields:
                if ft.adt in by_name:
                    visit(by_name[ft.adt])
        out.append(adt)

    for adt in adts:
        visit(adt)
    return out


def emit_smtlib(cs: ClauseSet) -> str:
    """Byte-stable HORN-fragment rendering of a clause set.  A datatype is
    declared after the datatypes its fields name.  The shared state tuples
    are rendered once, and so is a guard that several clauses test."""
    out = ["(set-logic HORN)"]
    for adt in _declaration_order(cs.adts):
        ctors = []
        for c in adt.ctors:
            flds = " ".join(f"({fn} {_sort_of(ft)})" for fn, ft in c.fields)
            ctors.append(f"({c.name}{(' ' + flds) if flds else ''})")
        out.append(f"(declare-datatypes (({adt.name} 0)) ((" + " ".join(ctors) + ")))")
    sorts_seen = sorts_text = None
    for name, sorts in cs.preds.items():
        if sorts is not sorts_seen:  # location predicates share one tuple
            sorts_seen, sorts_text = sorts, " ".join(sorts)
        out.append(f"(declare-fun {name} ({sorts_text}) Bool)")
    state, state_args = cs.state, cs.state_args
    state_text = " ".join(state_args)
    qstate = " ".join(f"({n} {s})" for n, s in state)
    guards: dict = {}

    def atom(app: PredApp) -> str:
        args = app.args
        if not args:
            return app.name
        if args is state_args:
            return f"({app.name} {state_text})"
        try:
            return f"({app.name} {' '.join(args)})"
        except TypeError:  # an argument is a compound term
            return f"({app.name} {' '.join(map(_render, args))})"

    def guard(t: Term) -> str:
        if isinstance(t, str):
            return t
        text = guards.get(t)
        if text is None:
            if t[0] == "not":
                text = f"(not {guard(t[1])})"
            else:
                text = _render(t)
            guards[t] = text
        return text

    for cl in cs.clauses:
        head = "false" if cl.head is None else atom(cl.head)
        atoms = [atom(a) for a in cl.body]
        atoms += [guard(c) for c in cl.constraint]
        if not atoms:
            body = "true"
        elif len(atoms) == 1:
            body = atoms[0]
        else:
            body = "(and " + " ".join(atoms) + ")"
        impl = f"(=> {body} {head})"
        qvars = (qstate if cl.vars is state
                 else " ".join(f"({n} {s})" for n, s in cl.vars))
        if qvars:
            out.append(f"(assert (forall ({qvars}) {impl}))")
        else:
            out.append(f"(assert {impl})")
    out.append("(check-sat)")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# external solver driver


@dataclass(frozen=True)
class SolveResult:
    kind: str  # "sat" | "unsat" | "unknown" | "error"
    detail: str = ""

    @property
    def is_error(self) -> bool:
        return self.kind == "error"


SOLVER_ENV_VAR = "HEAPINV_SOLVER"


def default_solver_command() -> str | None:
    """Resolution order: HEAPINV_SOLVER, then a z3 binary on PATH, then the
    z3 Python bindings run as a subprocess."""
    # only the solver functions need these: importing them at module
    # level costs every command's start-up
    import shlex
    import shutil
    env = os.environ.get(SOLVER_ENV_VAR)
    if env:
        return env
    if shutil.which("z3"):
        return "z3 {file}"
    try:
        import z3  # noqa: F401
        return f"{shlex.quote(sys.executable)} -m heapinv._solver_shim {{file}}"
    except ImportError:
        return None


def solve(path: str, solver_cmd: str | None = None,
          timeout: float = 300.0) -> SolveResult:
    """Run an external Horn solver on an .smt2 file.

    The command template must contain a ``{file}`` placeholder.  sat means
    the encoded program is safe (an interpretation of the predicates
    exists).  Missing binaries, timeouts and unparseable output are
    reported as errors, never as verdicts.
    """
    import shlex
    import subprocess
    cmd = solver_cmd or default_solver_command()
    if cmd is None:
        return SolveResult("error", "no Horn solver available "
                           f"(set {SOLVER_ENV_VAR} or install z3)")
    if "{file}" not in cmd:
        return SolveResult("error", "solver command template lacks {file}")
    argv = shlex.split(cmd.replace("{file}", shlex.quote(path)))
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=timeout)
    except FileNotFoundError:
        return SolveResult("error", f"solver binary not found: {argv[0]}")
    except subprocess.TimeoutExpired:
        return SolveResult("error", f"solver timed out after {timeout}s")
    for line in proc.stdout.splitlines():
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            return SolveResult(word)
    return SolveResult("error",
                       "unrecognised solver output: "
                       f"stdout={proc.stdout[:200]!r} stderr={proc.stderr[:200]!r}")
