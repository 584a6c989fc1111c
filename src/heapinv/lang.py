"""Core language: AST, concrete syntax, type checker and printer.

The input language ("UP", file extension ``.up``) is a small deterministic
imperative language with three base types (Int, Addr, non-recursive ADT
objects), heap statements (alloc/read/write), and assert/assume statements
that may apply uninterpreted predicates.  Everything downstream (the
evaluator, the encoders, the CHC translation) consumes the typed AST
defined here.
"""

from __future__ import annotations

import re
from copy import copy
from dataclasses import dataclass, field, replace
from typing import Callable

# source positions, (line, col), are kept out of equality and printing
_META = dict(compare=False, repr=False, kw_only=True)

# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True, slots=True)
class Type:
    """Type tag: Int, Addr, or Obj(adt). Obj carries the ADT name and, when
    parsed, the position of its type name."""

    kind: str  # "Int" | "Addr" | "Obj"
    adt: str | None = None
    pos: tuple[int, int] = field(default=(0, 0), **_META)

    def __str__(self) -> str:
        if self.kind == "Obj":
            return self.adt if self.adt is not None else "Obj"
        return self.kind


INT = Type("Int")
ADDR = Type("Addr")


def obj_type(adt_name: str) -> Type:
    return Type("Obj", adt_name)


@dataclass(slots=True)
class CtorDecl:
    name: str
    fields: list[tuple[str, Type]]


@dataclass(slots=True)
class AdtDecl:
    """Non-recursive algebraic datatype; the first constructor is the default
    one (its all-defaults value serves as defObj when the ADT is the heap
    type)."""

    name: str
    ctors: list[CtorDecl]
    pos: tuple[int, int] = field(default=(0, 0), **_META)


@dataclass(slots=True)
class PredDecl:
    name: str
    arg_types: list[Type]


# ---------------------------------------------------------------------------
# Expressions


@dataclass(slots=True)
class Expr:
    pos: tuple[int, int] = field(default=(0, 0), **_META)


@dataclass(slots=True)
class IntLit(Expr):
    value: int


@dataclass(slots=True)
class Var(Expr):
    name: str


@dataclass(slots=True)
class Null(Expr):
    pass


@dataclass(slots=True)
class DefObj(Expr):
    pass


@dataclass(slots=True)
class Unary(Expr):
    op: str  # "-" | "!"
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str  # + - * / % < <= > >= = != && ||
    left: Expr
    right: Expr


@dataclass(slots=True)
class CtorApp(Expr):
    ctor: str
    args: list[Expr]


@dataclass(slots=True)
class SelApp(Expr):
    sel: str
    arg: Expr


@dataclass(slots=True)
class TestApp(Expr):
    """Constructor tester, written ``is_<ctor>(e)``; yields 0/1."""

    ctor: str
    arg: Expr


# ---------------------------------------------------------------------------
# Statements


@dataclass(slots=True)
class Stmt:
    loc: int = field(default=0, **_META)
    pos: tuple[int, int] = field(default=(0, 0), **_META)


@dataclass(slots=True)
class Assign(Stmt):
    target: str
    expr: Expr


@dataclass(slots=True)
class Alloc(Stmt):
    target: str
    expr: Expr


@dataclass(slots=True)
class Read(Stmt):
    target: str
    addr: str  # address operand must be a variable


@dataclass(slots=True)
class Write(Stmt):
    addr: str
    expr: Expr


@dataclass(slots=True)
class Skip(Stmt):
    pass


@dataclass(slots=True)
class Block(Stmt):
    """Statement sequence; carries no control location of its own."""

    stmts: tuple[Stmt, ...] = ()


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Stmt  # empty Block when the source has no else branch


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(slots=True)
class AssumeExpr(Stmt):
    expr: Expr


@dataclass(slots=True)
class AssertExpr(Stmt):
    expr: Expr


@dataclass(slots=True)
class AssumePred(Stmt):
    pred: str
    args: list[Expr]


@dataclass(slots=True)
class AssertPred(Stmt):
    pred: str
    args: list[Expr]


@dataclass(slots=True)
class HavocStmt(Stmt):
    """Macro statement ``havoc(x);``: sets x to an arbitrary value derived
    from the seed variable.  Evaluated with exactly the semantics of the
    expansion produced by :func:`expand_havoc`."""

    target: str


@dataclass(slots=True)
class NondetStmt(Stmt):
    """Native nondeterministic assignment ``nondet(x);``.  Emitted instead of
    the havoc macro when encoding for CHC back-ends that support
    unconstrained assignments."""

    target: str


# ---------------------------------------------------------------------------
# Program

# Name of the 0-ary predicate used for expression assertion failures; it can
# never be declared or applied in source programs.
FAILURE_PRED = "F"


@dataclass(slots=True)
class Program:
    adts: list[AdtDecl] = field(default_factory=list)
    heap_adt: str | None = None
    heap_pos: tuple[int, int] = field(default=(0, 0), **_META)
    preds: list[PredDecl] = field(default_factory=list)
    input_var: str | None = None
    seed_var: str | None = None
    var_types: dict[str, Type] = field(default_factory=dict)
    body: Block = field(default_factory=Block)

    def adts_by_name(self) -> dict[str, AdtDecl]:
        return {a.name: a for a in self.adts}

    def preds_by_name(self) -> dict[str, PredDecl]:
        return {p.name: p for p in self.preds}

    def heap_obj_type(self) -> Type:
        if self.heap_adt is None:
            raise ValueError("program has no heaptype declaration")
        return obj_type(self.heap_adt)


class SourceError(Exception):
    """Parse error with position, formatted ``line:col: message``."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(slots=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


# ---------------------------------------------------------------------------
# Lexer

# "input" and "seed" are contextual: they introduce declarations but remain
# usable as variable names (the macro below manipulates a variable that is
# conventionally called seed)
_KEYWORDS = {
    "prog", "adt", "heaptype", "pred", "var",
    "if", "else", "while", "skip", "assume", "assert",
    "alloc", "read", "write", "havoc", "nondet",
    "null", "defObj", "Int", "Addr", "Obj",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<num>\d+)
    | (?P<id>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<op>:=|<=|>=|!=|&&|\|\||[-+*/%<>=!;:,(){}])
    """,
    re.VERBOSE,
)


@dataclass(slots=True)
class Token:
    kind: str  # "num" | "id" | "kw" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise SourceError(line, col, f"unexpected character {text[i]!r}")
        lexeme = m.group(0)
        if m.lastgroup == "num":
            toks.append(Token("num", lexeme, line, col))
        elif m.lastgroup == "id":
            kind = "kw" if lexeme in _KEYWORDS else "id"
            toks.append(Token(kind, lexeme, line, col))
        elif m.lastgroup == "op":
            toks.append(Token("op", lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        i = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser

# binding strength, weakest first; all binary operators associate left
_BIN_LEVELS = [
    {"||"},
    {"&&"},
    {"=", "!=", "<", "<=", ">", ">="},
    {"+", "-"},
    {"*", "/", "%"},
]
_PRECEDENCE = {op: level for level, ops in enumerate(_BIN_LEVELS) for op in ops}

# Blocks, brackets and operators nest at most this deep, counted together:
# every pass over a program recurses on its nesting, and a deeper program
# would exhaust the Python stack instead of ending in a SourceError.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.prog = Program()
        self._ctors: dict[str, str] = {}  # ctor name -> adt name
        self._sels: dict[str, tuple[str, str, Type]] = {}  # sel -> (adt, ctor, type)
        self.depth = 0   # blocks, brackets and operators around the position
        self.height = 0  # operator nesting inside the last parsed expression

    # token helpers

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("op", "kw")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise SourceError(t.line, t.col, f"expected {text!r}, found {t.text!r}")
        return self.next()

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "id":
            raise SourceError(t.line, t.col, f"expected identifier, found {t.text!r}")
        return self.next()

    def err(self, tok: Token, msg: str):
        raise SourceError(tok.line, tok.col, msg)

    def check_nesting(self, tok: Token, levels: int) -> None:
        if self.depth + levels > MAX_NESTING:
            self.err(tok, f"nesting deeper than {MAX_NESTING} levels")

    def enter(self, tok: Token) -> None:
        """Open one level of nesting at ``tok``; the caller closes it."""
        self.check_nesting(tok, 1)
        self.depth += 1

    # declarations

    def at_decl(self) -> bool:
        t = self.peek()
        if t.text in ("adt", "heaptype", "pred", "var"):
            return True
        # contextual: `input x;` / `seed x;`
        return t.kind == "id" and t.text in ("input", "seed") \
            and self.toks[self.pos + 1].kind == "id"

    def parse_program(self) -> Program:
        self.expect("prog")
        self.expect("{")
        while self.at_decl():
            self.parse_decl()
        self.check_namespaces()
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        t = self.peek()
        if t.kind != "eof":
            self.err(t, f"trailing input after program: {t.text!r}")
        self.prog.body = Block(tuple(stmts))
        return self.prog

    def check_namespaces(self):
        """Call-position names must resolve unambiguously."""
        t = self.peek()
        for sel in self._sels:
            if sel.startswith("is_") and sel[3:] in self._ctors:
                self.err(t, f"selector {sel!r} collides with the tester of "
                            f"constructor {sel[3:]!r}")
        for pd in self.prog.preds:
            if pd.name in self._ctors or pd.name in self._sels:
                self.err(t, f"predicate {pd.name!r} collides with a "
                            "constructor or selector name")

    def parse_decl(self):
        if self.accept("adt"):
            name_t = self.expect_ident()
            if name_t.text in (a.name for a in self.prog.adts):
                self.err(name_t, f"duplicate adt declaration {name_t.text!r}")
            ctors = []
            self.expect("{")
            while not self.accept("}"):
                ctors.append(self.parse_ctor(name_t.text))
            if not ctors:
                self.err(name_t, f"adt {name_t.text!r} declares no constructors")
            self.prog.adts.append(AdtDecl(name_t.text, ctors,
                                          pos=(name_t.line, name_t.col)))
        elif self.accept("heaptype"):
            name_t = self.expect_ident()
            if self.prog.heap_adt is not None:
                self.err(name_t, "duplicate heaptype declaration")
            self.prog.heap_adt = name_t.text
            self.prog.heap_pos = (name_t.line, name_t.col)
            self.expect(";")
        elif self.accept("pred"):
            name_t = self.expect_ident()
            if name_t.text == FAILURE_PRED:
                self.err(name_t, f"predicate name {FAILURE_PRED!r} is reserved")
            if name_t.text in (p.name for p in self.prog.preds):
                self.err(name_t, f"duplicate predicate declaration {name_t.text!r}")
            self.expect("(")
            tys = []
            if not self.at(")"):
                tys.append(self.parse_type())
                while self.accept(","):
                    tys.append(self.parse_type())
            self.expect(")")
            self.expect(";")
            self.prog.preds.append(PredDecl(name_t.text, tys))
        elif self.accept("var"):
            name_t = self.expect_ident()
            self.expect(":")
            ty = self.parse_type()
            self.expect(";")
            self.declare_var(name_t, ty)
        elif self.peek().text in ("input", "seed"):
            which = self.next().text
            name_t = self.expect_ident()
            self.expect(";")
            if which == "input":
                if self.prog.input_var is not None:
                    self.err(name_t, "duplicate input declaration")
                self.declare_var(name_t, INT)
                self.prog.input_var = name_t.text
            else:
                if self.prog.seed_var is not None:
                    self.err(name_t, "duplicate seed declaration")
                self.declare_var(name_t, INT)
                self.prog.seed_var = name_t.text

    def declare_var(self, tok: Token, ty: Type):
        if tok.text in self.prog.var_types:
            self.err(tok, f"duplicate variable declaration {tok.text!r}")
        self.prog.var_types[tok.text] = ty

    def parse_ctor(self, adt_name: str) -> CtorDecl:
        name_t = self.expect_ident()
        if name_t.text in self._ctors:
            self.err(name_t, f"duplicate constructor {name_t.text!r}")
        flds = []
        self.expect("(")
        if not self.at(")"):
            flds.append(self.parse_field(adt_name, name_t.text))
            while self.accept(","):
                flds.append(self.parse_field(adt_name, name_t.text))
        self.expect(")")
        self.expect(";")
        self._ctors[name_t.text] = adt_name
        return CtorDecl(name_t.text, flds)

    def parse_field(self, adt_name: str, ctor_name: str) -> tuple[str, Type]:
        name_t = self.expect_ident()
        if name_t.text in self._sels:
            self.err(name_t, f"duplicate selector {name_t.text!r}")
        self.expect(":")
        ty = self.parse_type()
        self._sels[name_t.text] = (adt_name, ctor_name, ty)
        return (name_t.text, ty)

    def parse_type(self) -> Type:
        t = self.next()
        if t.text == "Int":
            return INT
        if t.text == "Addr":
            return ADDR
        if t.text == "Obj":
            # shorthand for the designated heap ADT; resolved by typecheck
            return Type("Obj", None, pos=(t.line, t.col))
        if t.kind == "id":
            return Type("Obj", t.text, pos=(t.line, t.col))
        self.err(t, f"expected a type, found {t.text!r}")

    # statements

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        p = (t.line, t.col)
        if self.accept("skip"):
            self.expect(";")
            return Skip(pos=p)
        if self.accept("write"):
            self.expect("(")
            addr_t = self.expect_ident()
            self.expect(",")
            e = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return Write(addr_t.text, e, pos=p)
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            els: Stmt = Block(())
            if self.accept("else"):
                els = self.parse_block()
            return If(cond, then, els, pos=p)
        if self.accept("while"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_block()
            return While(cond, body, pos=p)
        if self.accept("assume"):
            return self.parse_assert_assume(AssumeExpr, AssumePred, p)
        if self.accept("assert"):
            return self.parse_assert_assume(AssertExpr, AssertPred, p)
        if self.accept("havoc"):
            self.expect("(")
            x = self.expect_ident()
            self.expect(")")
            self.expect(";")
            return HavocStmt(x.text, pos=p)
        if self.accept("nondet"):
            self.expect("(")
            x = self.expect_ident()
            self.expect(")")
            self.expect(";")
            return NondetStmt(x.text, pos=p)
        if t.kind == "id":
            target = self.next()
            self.expect(":=")
            if self.accept("alloc"):
                self.expect("(")
                e = self.parse_expr()
                self.expect(")")
                self.expect(";")
                return Alloc(target.text, e, pos=p)
            if self.accept("read"):
                self.expect("(")
                addr_t = self.expect_ident()
                self.expect(")")
                self.expect(";")
                return Read(target.text, addr_t.text, pos=p)
            e = self.parse_expr()
            self.expect(";")
            return Assign(target.text, e, pos=p)
        self.err(t, f"expected a statement, found {t.text!r}")

    def parse_block(self) -> Block:
        self.enter(self.expect("{"))
        stmts = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        self.depth -= 1
        return Block(tuple(stmts))

    def parse_assert_assume(self, expr_cls, pred_cls, p) -> Stmt:
        self.expect("(")
        # a predicate application is only recognized directly under
        # assert/assume: `assert(P(e, ...))` with P a declared predicate
        t = self.peek()
        if t.kind == "id" and t.text in (pd.name for pd in self.prog.preds) \
                and self.toks[self.pos + 1].text == "(":
            self.next()
            self.enter(self.expect("("))
            args = []
            if not self.at(")"):
                args.append(self.parse_expr())
                while self.accept(","):
                    args.append(self.parse_expr())
            self.expect(")")
            self.depth -= 1
            self.expect(")")
            self.expect(";")
            return pred_cls(t.text, args, pos=p)
        e = self.parse_expr()
        self.expect(")")
        self.expect(";")
        return expr_cls(e, pos=p)

    # expressions

    def parse_expr(self, min_level: int = 0) -> Expr:
        """An expression of operators binding at least as strongly as
        ``_BIN_LEVELS[min_level]`` (precedence climbing)."""
        e = self.parse_unary()
        height = self.height
        while True:
            op_t = self.peek()
            level = _PRECEDENCE.get(op_t.text) if op_t.kind == "op" else None
            if level is None or level < min_level:
                break
            self.next()
            self.enter(op_t)
            rhs = self.parse_expr(level + 1)
            self.depth -= 1
            # the operands so far sink one level under the new operator
            height = max(height, self.height) + 1
            self.check_nesting(op_t, height)
            e = Binary(op_t.text, e, rhs, pos=(op_t.line, op_t.col))
        self.height = height
        return e

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.text in ("-", "!"):
            self.next()
            self.enter(t)
            operand = self.parse_unary()
            self.depth -= 1
            # canonical negative literals: print and reparse agree
            if t.text == "-" and isinstance(operand, IntLit):
                return IntLit(-operand.value, pos=(t.line, t.col))
            self.height += 1
            return Unary(t.text, operand, pos=(t.line, t.col))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        t = self.next()
        p = (t.line, t.col)
        self.height = 0
        if t.kind == "num":
            return IntLit(int(t.text), pos=p)
        if t.text == "null":
            return Null(pos=p)
        if t.text == "defObj":
            return DefObj(pos=p)
        if t.text == "(":
            self.enter(t)
            e = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return e
        if t.kind == "id":
            if self.at("("):
                return self.parse_call(t)
            return Var(t.text, pos=p)
        self.err(t, f"expected an expression, found {t.text!r}")

    def parse_call(self, name_t: Token) -> Expr:
        p = (name_t.line, name_t.col)
        self.enter(self.expect("("))
        args = []
        height = 0
        if not self.at(")"):
            args.append(self.parse_expr())
            height = self.height
            while self.accept(","):
                args.append(self.parse_expr())
                height = max(height, self.height)
        self.expect(")")
        self.depth -= 1
        self.height = height + 1
        name = name_t.text
        if name.startswith("is_") and name[3:] in self._ctors:
            if len(args) != 1:
                self.err(name_t, f"tester {name!r} takes one argument")
            return TestApp(name[3:], args[0], pos=p)
        if name in self._ctors:
            return CtorApp(name, args, pos=p)
        if name in self._sels:
            if len(args) != 1:
                self.err(name_t, f"selector {name!r} takes one argument")
            return SelApp(name, args[0], pos=p)
        self.err(name_t, f"unknown identifier {name!r} in call position")


def parse_program(text: str) -> Program:
    """Parse source text into a Program with assigned control locations.

    Raises SourceError on syntax errors, duplicate declarations, and unknown
    identifiers in call position.
    """
    prog = _Parser(text).parse_program()
    assign_locations(prog)
    return prog


def parse_expr_text(text: str, adts: list[AdtDecl] | None = None) -> Expr:
    """Parse a standalone expression (used for interpretation formulas);
    constructor and selector names are resolved against the given ADTs."""
    parser = _Parser(text)
    for a in adts or []:
        for c in a.ctors:
            parser._ctors[c.name] = a.name
            for fname, fty in c.fields:
                parser._sels[fname] = (a.name, c.name, fty)
    e = parser.parse_expr()
    t = parser.peek()
    if t.kind != "eof":
        raise SourceError(t.line, t.col, f"trailing input after expression: {t.text!r}")
    return e


# ---------------------------------------------------------------------------
# Control locations


def walk_statements(stmt: Stmt):
    """Pre-order traversal over statements; Block nodes are structure, not
    statements, and are not yielded.  One loop over an explicit stack of
    the statements still to visit, a block's pushed in reverse and an
    ``if``'s else part below its then part, so that each statement is
    yielded directly, not through one ``yield from`` per level of
    nesting."""
    stack = [stmt]
    pop, push = stack.pop, stack.append
    while stack:
        s = pop()
        t = type(s)
        if t is Block:
            stack.extend(reversed(s.stmts))
            continue
        yield s
        if t is If:
            push(s.els)
            push(s.then)
        elif t is While:
            push(s.body)


def assign_locations(program: Program) -> Program:
    """Assign consecutive location ids 1.. to statements in pre-order."""
    n = 0
    for s in walk_statements(program.body):
        n += 1
        s.loc = n
    return program


def statement_locations(program: Program) -> list[int]:
    return [s.loc for s in walk_statements(program.body)]


# ---------------------------------------------------------------------------
# Expression/statement utilities


def map_statements(stmt: Stmt, leaf: Callable[[Stmt], list[Stmt]],
                   cond: Callable[[Expr], Expr] = lambda e: e) -> Block:
    """Rebuild a statement tree as a Block.  Each Block, If and While gets
    a new node of the same kind, with ``cond`` applied to every If/While
    condition; every other statement is replaced by the list ``leaf``
    returns for it, spliced into the enclosing block (an If/While branch
    that is not a Block becomes one).  Positions are kept.

    A statement that ``leaf`` returns unchanged is copied: the callers
    number the locations of their output in place (``assign_locations``),
    so an output sharing a statement object with its input would renumber
    the input, or any other program built from it."""
    return _map_branch(stmt, leaf, cond)


# The two steps of ``map_statements`` are module functions, not closures
# that call each other: such closures would form a reference cycle that
# keeps ``leaf`` and everything it refers to alive until the cyclic
# collector runs.

def _map_rebuild(s: Stmt, leaf, cond) -> list[Stmt]:
    if isinstance(s, Block):
        return [Block(tuple(x for c in s.stmts
                            for x in _map_rebuild(c, leaf, cond)), pos=s.pos)]
    if isinstance(s, If):
        return [If(cond(s.cond), _map_branch(s.then, leaf, cond),
                   _map_branch(s.els, leaf, cond), pos=s.pos)]
    if isinstance(s, While):
        return [While(cond(s.cond), _map_branch(s.body, leaf, cond),
                      pos=s.pos)]
    return [copy(x) if x is s else x for x in leaf(s)]


def _map_branch(s: Stmt, leaf, cond) -> Block:
    out = _map_rebuild(s, leaf, cond)
    return out[0] if isinstance(s, Block) else Block(tuple(out))


def expr_vars(e: Expr) -> set[str]:
    """The names of the variables the expression reads: one loop over an
    explicit stack of subexpressions, each node visited once."""
    out = set()
    stack = [e]
    pop, push = stack.pop, stack.append
    while stack:
        x = pop()
        t = type(x)
        if t is Var:
            out.add(x.name)
        elif t is Binary:
            push(x.left)
            push(x.right)
        elif t is Unary:
            push(x.operand)
        elif t is SelApp or t is TestApp:
            push(x.arg)
        elif t is CtorApp:
            stack.extend(x.args)
    return out


def variable_uses(program: Program) -> tuple[set[str], set[str]]:
    """Two facts from one walk of the program: the names that some
    expression or heap address operand reads, and the names used other than
    as a direct operand of ``=`` or ``!=`` (read anywhere else, a statement
    target or a heap address operand).  A run depends on a variable outside
    the second set only through those equality tests.

    One loop over an explicit stack of statements collects their targets,
    address operands and expressions; a second loop over an explicit stack
    of subexpressions visits each node once.  Order does not matter, as
    both results are sets."""
    read: set[str] = set()
    loose: set[str] = set()
    exprs: list[Expr] = []
    stmts: list[Stmt] = [program.body]
    pop, push = stmts.pop, stmts.append
    expr = exprs.append
    while stmts:
        s = pop()
        t = type(s)
        if t is Assign or t is Alloc:
            loose.add(s.target)
            expr(s.expr)
        elif t is Block:
            stmts.extend(s.stmts)
        elif t is If:
            expr(s.cond)
            push(s.then)
            push(s.els)
        elif t is While:
            expr(s.cond)
            push(s.body)
        elif t is AssumePred or t is AssertPred:
            exprs.extend(s.args)
        elif t is AssumeExpr or t is AssertExpr:
            expr(s.expr)
        elif t is Read:
            loose.add(s.target)
            read.add(s.addr)
            loose.add(s.addr)
        elif t is Write:
            read.add(s.addr)
            loose.add(s.addr)
            expr(s.expr)
        elif t is HavocStmt or t is NondetStmt:
            loose.add(s.target)
    pop, push = exprs.pop, exprs.append
    while exprs:
        e = pop()
        t = type(e)
        if t is Var:
            read.add(e.name)
            loose.add(e.name)
        elif t is Binary:
            left, right = e.left, e.right
            if e.op == "=" or e.op == "!=":
                # a bare variable operand of an equality test is read only
                if type(left) is Var:
                    read.add(left.name)
                else:
                    push(left)
                if type(right) is Var:
                    read.add(right.name)
                else:
                    push(right)
            else:
                push(left)
                push(right)
        elif t is Unary:
            push(e.operand)
        elif t is SelApp or t is TestApp:
            push(e.arg)
        elif t is CtorApp:
            exprs.extend(e.args)
    return read, loose


def contains_heap_statements(program: Program) -> bool:
    return any(isinstance(s, (Alloc, Read, Write)) for s in walk_statements(program.body))


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


# ---------------------------------------------------------------------------
# Type checking


class TypeChecker:
    def __init__(self, program: Program):
        self.p = program
        self.diags: list[Diagnostic] = []
        self.adts = program.adts_by_name()
        self.preds = program.preds_by_name()
        # selector -> (adt name, constructor, field index)
        self.sels: dict[str, tuple[str, CtorDecl, int]] = {}
        self.ctors: dict[str, tuple[str, CtorDecl]] = {}
        for a in program.adts:
            for c in a.ctors:
                self.ctors[c.name] = (a.name, c)
                for i, (fname, _) in enumerate(c.fields):
                    self.sels[fname] = (a.name, c, i)

    def error(self, node, msg: str):
        line, col = getattr(node, "pos", (0, 0))
        self.diags.append(Diagnostic(line, col, msg))

    def run(self) -> list[Diagnostic]:
        self.check_decls()
        self.check_stmt(self.p.body)
        return self.diags

    # declarations

    def check_decls(self):
        p = self.p
        if p.heap_adt is not None and p.heap_adt not in self.adts:
            self.diags.append(Diagnostic(*p.heap_pos, f"heaptype {p.heap_adt!r} is not a declared adt"))
        for a in p.adts:
            for c in a.ctors:
                for fname, fty in c.fields:
                    self.check_type_wf(fty, f"field {fname!r} of {c.name!r}")
                c.fields = [(fname, self.resolve(fty))
                            for fname, fty in c.fields]
        # after every field is resolved: a bare Obj field can close a cycle
        for a in p.adts:
            self.check_adt_acyclic(a)
        for pd in p.preds:
            for i, ty in enumerate(pd.arg_types):
                self.check_type_wf(ty, f"argument {i} of predicate {pd.name!r}")
            pd.arg_types = [self.resolve(ty) for ty in pd.arg_types]
        for name, ty in list(p.var_types.items()):
            self.check_type_wf(ty, f"variable {name!r}")
            p.var_types[name] = self.resolve(ty)
        if p.input_var is not None and p.var_types.get(p.input_var) != INT:
            self.diags.append(Diagnostic(0, 0, "input variable must have type Int"))
        if p.seed_var is not None and p.var_types.get(p.seed_var) != INT:
            self.diags.append(Diagnostic(0, 0, "seed variable must have type Int"))

    def resolve(self, ty: Type) -> Type:
        """Resolve the bare ``Obj`` shorthand to the heap ADT."""
        if ty.kind == "Obj" and ty.adt is None:
            if self.p.heap_adt is None:
                return ty
            return obj_type(self.p.heap_adt)
        return ty

    def check_type_wf(self, ty: Type, what: str):
        if ty.kind == "Obj":
            if ty.adt is None:
                if self.p.heap_adt is None:
                    self.error(ty, f"{what}: bare Obj type needs a heaptype declaration")
            elif ty.adt not in self.adts:
                self.error(ty, f"{what}: unknown adt {ty.adt!r}")

    def check_adt_acyclic(self, adt: AdtDecl):
        # non-recursive: no constructor field may reach the declaring ADT
        seen: set[str] = set()

        def reach(name: str) -> bool:
            # a search with its own stack: a closure that called itself
            # would be a reference cycle
            stack = [name]
            while stack:
                name = stack.pop()
                if name == adt.name and seen:
                    return True
                if name in seen or name not in self.adts:
                    continue
                seen.add(name)
                stack += [fty.adt for c in self.adts[name].ctors
                          for _, fty in c.fields if fty.kind == "Obj"]
            return False

        for c in adt.ctors:
            for fname, fty in c.fields:
                if fty.kind == "Obj" and (fty.adt == adt.name or reach(fty.adt)):
                    self.error(adt, f"adt {adt.name!r} is recursive through field {fname!r}")
                    return

    # statements

    def var_type(self, name: str, node) -> Type | None:
        ty = self.p.var_types.get(name)
        if ty is None:
            self.error(node, f"undeclared variable {name!r}")
        return ty

    def check_stmt(self, s: Stmt):
        if isinstance(s, Block):
            for c in s.stmts:
                self.check_stmt(c)
        elif isinstance(s, Assign):
            tty = self.var_type(s.target, s)
            ety = self.check_expr(s.expr)
            if tty is not None and ety is not None and tty != ety:
                self.error(s, f"type mismatch: cannot assign {ety} to {s.target}: {tty}")
        elif isinstance(s, Alloc):
            tty = self.var_type(s.target, s)
            if tty is not None and tty != ADDR:
                self.error(s, f"alloc target {s.target!r} must have type Addr, has {tty}")
            ety = self.check_expr(s.expr)
            if ety is not None and (self.p.heap_adt is None or ety != obj_type(self.p.heap_adt)):
                self.error(s, "alloc operand must be a heap object")
        elif isinstance(s, Read):
            tty = self.var_type(s.target, s)
            aty = self.var_type(s.addr, s)
            if aty is not None and aty != ADDR:
                self.error(s, f"read address {s.addr!r} must have type Addr, has {aty}")
            if tty is not None and (self.p.heap_adt is None or tty != obj_type(self.p.heap_adt)):
                self.error(s, f"read target {s.target!r} must be a heap object")
        elif isinstance(s, Write):
            aty = self.var_type(s.addr, s)
            if aty is not None and aty != ADDR:
                self.error(s, f"write address {s.addr!r} must have type Addr, has {aty}")
            ety = self.check_expr(s.expr)
            if ety is not None and (self.p.heap_adt is None or ety != obj_type(self.p.heap_adt)):
                self.error(s, "write operand must be a heap object")
        elif isinstance(s, If):
            self.check_cond(s.cond)
            self.check_stmt(s.then)
            self.check_stmt(s.els)
        elif isinstance(s, While):
            self.check_cond(s.cond)
            self.check_stmt(s.body)
        elif isinstance(s, (AssumeExpr, AssertExpr)):
            self.check_cond(s.expr)
        elif isinstance(s, (AssumePred, AssertPred)):
            pd = self.preds.get(s.pred)
            if pd is None:
                self.error(s, f"undeclared predicate {s.pred!r}")
                for a in s.args:
                    self.check_expr(a)
                return
            if len(s.args) != len(pd.arg_types):
                self.error(s, f"arity mismatch: predicate {s.pred!r} expects "
                              f"{len(pd.arg_types)} arguments, got {len(s.args)}")
            for a, want in zip(s.args, pd.arg_types):
                got = self.check_expr(a)
                if got is not None and got != want:
                    self.error(s, f"type mismatch in argument of {s.pred!r}: expected {want}, got {got}")
        elif isinstance(s, (HavocStmt, NondetStmt)):
            tty = self.var_type(s.target, s)
            if tty == ADDR:
                self.error(s, f"cannot havoc Addr variable {s.target!r}")
            elif tty is not None and tty.kind == "Obj":
                if self._adt_has_addr_field(tty.adt):
                    self.error(s, f"cannot havoc {s.target!r}: adt {tty.adt!r} has Addr fields")
            if self.p.seed_var is None:
                kind = "havoc" if isinstance(s, HavocStmt) else "nondet"
                self.error(s, f"{kind} requires a seed declaration")
        elif isinstance(s, Skip):
            pass
        else:
            self.error(s, f"unknown statement {type(s).__name__}")

    def _adt_has_addr_field(self, adt_name: str | None) -> bool:
        if adt_name is None or adt_name not in self.adts:
            return False
        for c in self.adts[adt_name].ctors:
            for _, fty in c.fields:
                if fty == ADDR:
                    return True
                if fty.kind == "Obj" and self._adt_has_addr_field(fty.adt):
                    return True
        return False

    def check_cond(self, e: Expr):
        ty = self.check_expr(e)
        if ty is not None and ty != INT:
            self.error(e, f"condition must have type Int, has {ty}")

    # expressions

    def check_expr(self, e: Expr) -> Type | None:
        # every declared type is resolved by ``check_decls``, so no bare Obj
        # reaches here while a heaptype is declared
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, Var):
            return self.var_type(e.name, e)
        if isinstance(e, Null):
            return ADDR
        if isinstance(e, DefObj):
            if self.p.heap_adt is None:
                self.error(e, "defObj needs a heaptype declaration")
                return None
            return obj_type(self.p.heap_adt)
        if isinstance(e, Unary):
            oty = self.check_expr(e.operand)
            if oty is not None and oty != INT:
                self.error(e, f"arithmetic on {oty}" if oty == ADDR
                           else f"unary {e.op!r} needs an Int operand, got {oty}")
            return INT
        if isinstance(e, Binary):
            lty = self.check_expr(e.left)
            rty = self.check_expr(e.right)
            if e.op in ("=", "!="):
                if lty is not None and rty is not None and lty != rty:
                    self.error(e, f"cannot compare {lty} with {rty}")
                return INT
            for side in (lty, rty):
                if side == ADDR:
                    self.error(e, "arithmetic on Addr")
                elif side is not None and side != INT:
                    self.error(e, f"operator {e.op!r} needs Int operands, got {side}")
            return INT
        if isinstance(e, CtorApp):
            info = self.ctors.get(e.ctor)
            if info is None:
                self.error(e, f"unknown constructor {e.ctor!r}")
                return None
            adt_name, ctor = info
            if len(e.args) != len(ctor.fields):
                self.error(e, f"constructor {e.ctor!r} expects {len(ctor.fields)} arguments, got {len(e.args)}")
            for a, (fname, fty) in zip(e.args, ctor.fields):
                got = self.check_expr(a)
                if got is not None and got != fty:
                    self.error(e, f"field {fname!r} of {e.ctor!r} expects {fty}, got {got}")
            return obj_type(adt_name)
        if isinstance(e, SelApp):
            info = self.sels.get(e.sel)
            if info is None:
                self.error(e, f"unknown selector {e.sel!r}")
                return None
            adt_name, ctor, i = info
            got = self.check_expr(e.arg)
            if got is not None and got != obj_type(adt_name):
                self.error(e, f"selector {e.sel!r} applies to {adt_name}, got {got}")
            return ctor.fields[i][1]
        if isinstance(e, TestApp):
            info = self.ctors.get(e.ctor)
            if info is None:
                self.error(e, f"unknown constructor {e.ctor!r} in tester")
                return INT
            got = self.check_expr(e.arg)
            if got is not None and got != obj_type(info[0]):
                self.error(e, f"tester is_{e.ctor} applies to {info[0]}, got {got}")
            return INT
        self.error(e, f"unknown expression {type(e).__name__}")
        return None


def typecheck(program: Program) -> list[Diagnostic]:
    """Check the program and return its diagnostics; an empty list means
    the program is well-typed.  Checking continues past the first error.
    A bare ``Obj`` in a field, predicate or variable declaration is
    resolved to the heap ADT in place; expressions are left as they are.
    """
    return TypeChecker(program).run()


def parse_and_check(text: str) -> Program:
    prog = parse_program(text)
    diags = typecheck(prog)
    if diags:
        raise SourceError(diags[0].line, diags[0].col,
                          "; ".join(d.message for d in diags[:5]))
    return prog


# ---------------------------------------------------------------------------
# Pretty printer

# binary operators print at the parser's levels (``_PRECEDENCE``), and a
# unary operator binds more strongly than every one of them
_UNARY_PREC = len(_BIN_LEVELS)


def _print_expr(e: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Null):
        return "null"
    if isinstance(e, DefObj):
        return "defObj"
    if isinstance(e, Unary):
        inner = _print_expr(e.operand, _UNARY_PREC)
        return f"{e.op}{inner}"
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        left = _print_expr(e.left, prec)
        right = _print_expr(e.right, prec, right_side=True)
        text = f"{left} {e.op} {right}"
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    if isinstance(e, CtorApp):
        return f"{e.ctor}({', '.join(_print_expr(a) for a in e.args)})"
    if isinstance(e, SelApp):
        return f"{e.sel}({_print_expr(e.arg)})"
    if isinstance(e, TestApp):
        return f"is_{e.ctor}({_print_expr(e.arg)})"
    raise ValueError(f"cannot print expression {e!r}")


def _print_stmt(s: Stmt, indent: int, out: list[str]):
    pad = "  " * indent
    if isinstance(s, Block):
        for c in s.stmts:
            _print_stmt(c, indent, out)
    elif isinstance(s, Assign):
        out.append(f"{pad}{s.target} := {_print_expr(s.expr)};")
    elif isinstance(s, Alloc):
        out.append(f"{pad}{s.target} := alloc({_print_expr(s.expr)});")
    elif isinstance(s, Read):
        out.append(f"{pad}{s.target} := read({s.addr});")
    elif isinstance(s, Write):
        out.append(f"{pad}write({s.addr}, {_print_expr(s.expr)});")
    elif isinstance(s, Skip):
        out.append(f"{pad}skip;")
    elif isinstance(s, If):
        out.append(f"{pad}if ({_print_expr(s.cond)}) {{")
        _print_stmt(s.then, indent + 1, out)
        if isinstance(s.els, Block) and not s.els.stmts:
            out.append(f"{pad}}}")
        else:
            out.append(f"{pad}}} else {{")
            _print_stmt(s.els, indent + 1, out)
            out.append(f"{pad}}}")
    elif isinstance(s, While):
        out.append(f"{pad}while ({_print_expr(s.cond)}) {{")
        _print_stmt(s.body, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, AssumeExpr):
        out.append(f"{pad}assume({_print_expr(s.expr)});")
    elif isinstance(s, AssertExpr):
        out.append(f"{pad}assert({_print_expr(s.expr)});")
    elif isinstance(s, AssumePred):
        out.append(f"{pad}assume({s.pred}({', '.join(_print_expr(a) for a in s.args)}));")
    elif isinstance(s, AssertPred):
        out.append(f"{pad}assert({s.pred}({', '.join(_print_expr(a) for a in s.args)}));")
    elif isinstance(s, HavocStmt):
        out.append(f"{pad}havoc({s.target});")
    elif isinstance(s, NondetStmt):
        out.append(f"{pad}nondet({s.target});")
    else:
        raise ValueError(f"cannot print statement {s!r}")


def pretty_print(program: Program) -> str:
    """Deterministic canonical rendering; parse_program is its inverse."""
    out = ["prog {"]
    for a in program.adts:
        out.append(f"  adt {a.name} {{")
        for c in a.ctors:
            flds = ", ".join(f"{n}: {t}" for n, t in c.fields)
            out.append(f"    {c.name}({flds});")
        out.append("  }")
    if program.heap_adt is not None:
        out.append(f"  heaptype {program.heap_adt};")
    for pd in program.preds:
        out.append(f"  pred {pd.name}({', '.join(str(t) for t in pd.arg_types)});")
    if program.input_var is not None:
        out.append(f"  input {program.input_var};")
    if program.seed_var is not None:
        out.append(f"  seed {program.seed_var};")
    for name, ty in program.var_types.items():
        if name in (program.input_var, program.seed_var):
            continue
        out.append(f"  var {name}: {ty};")
    _print_stmt(program.body, 1, out)
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# The havoc macro


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
    out = replace(program, var_types=var_types, body=body)
    assign_locations(out)
    return out
