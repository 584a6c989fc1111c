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
from typing import Callable, NamedTuple

# ---------------------------------------------------------------------------
# Data classes
#
# The package's data classes are plain classes with ``__slots__`` and a
# hand-written ``__init__``: building them as dataclasses took about a third
# of the time of importing the package.


class Struct:
    """Base of the package's data classes.  ``_fields`` names the fields
    that the constructor takes first, in order, and that equality and
    ``repr`` compare and show; ``_meta`` names the keyword-only ones left
    out of both (source positions).  Equal only
    to an instance of the same class, and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _meta: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


# how the __init__ of a frozen class sets its fields
set_field = object.__setattr__


class FrozenStruct(Struct):
    """A ``Struct`` whose fields cannot be assigned or deleted once its
    ``__init__`` has set them; hashed by its compared fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle build the copy through the constructor
        return _construct, (type(self), _arguments(self))


def _arguments(obj: Struct) -> dict:
    return {f: getattr(obj, f) for f in obj._fields + obj._meta}


def _construct(cls, arguments: dict):
    return cls(**arguments)


def replace(obj: Struct, **changes) -> Struct:
    """A new instance of ``obj``'s class with ``obj``'s fields, positions
    included, except those ``changes`` names; a shallow copy without
    changes."""
    return type(obj)(**{**_arguments(obj), **changes})


# ---------------------------------------------------------------------------
# Types


class Type(FrozenStruct):
    """Type tag: Int, Addr, or Obj(adt). Obj carries the ADT name.  A parsed
    Addr or Obj type carries the position of its type name; a parsed Int is
    the shared ``INT``."""

    __slots__ = ("kind", "adt", "pos")
    _fields = ("kind", "adt")
    _meta = ("pos",)

    def __init__(self, kind: str, adt: str | None = None, *,
                 pos: tuple[int, int] = (0, 0)):
        set_field(self, "kind", kind)  # "Int" | "Addr" | "Obj"
        set_field(self, "adt", adt)
        set_field(self, "pos", pos)

    # types are compared throughout checking and encoding: no tuples built
    def __eq__(self, other):
        if other.__class__ is Type:
            return self.kind == other.kind and self.adt == other.adt
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.adt))

    def __str__(self) -> str:
        if self.kind == "Obj":
            return self.adt if self.adt is not None else "Obj"
        return self.kind


INT = Type("Int")
ADDR = Type("Addr")


def obj_type(adt_name: str) -> Type:
    return Type("Obj", adt_name)


class CtorDecl(Struct):
    __slots__ = _fields = ("name", "fields")

    def __init__(self, name: str, fields: list[tuple[str, Type]]):
        self.name = name
        self.fields = fields


class AdtDecl(Struct):
    """Non-recursive algebraic datatype; the first constructor is the default
    one (its all-defaults value serves as defObj when the ADT is the heap
    type)."""

    __slots__ = ("name", "ctors", "pos")
    _fields = ("name", "ctors")
    _meta = ("pos",)

    def __init__(self, name: str, ctors: list[CtorDecl], *,
                 pos: tuple[int, int] = (0, 0)):
        self.name = name
        self.ctors = ctors
        self.pos = pos


class PredDecl(Struct):
    __slots__ = _fields = ("name", "arg_types")

    def __init__(self, name: str, arg_types: list[Type]):
        self.name = name
        self.arg_types = arg_types


# ---------------------------------------------------------------------------
# Expressions


class Expr(Struct):
    __slots__ = ("pos",)
    _meta = ("pos",)

    def __init__(self, *, pos: tuple[int, int] = (0, 0)):
        self.pos = pos


class IntLit(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int, *, pos: tuple[int, int] = (0, 0)):
        self.value = value
        self.pos = pos


class Var(Expr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str, *, pos: tuple[int, int] = (0, 0)):
        self.name = name
        self.pos = pos


class Null(Expr):
    __slots__ = ()


class DefObj(Expr):
    __slots__ = ()


class Unary(Expr):
    __slots__ = _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr, *,
                 pos: tuple[int, int] = (0, 0)):
        self.op = op  # "-" | "!"
        self.operand = operand
        self.pos = pos


class Binary(Expr):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, *,
                 pos: tuple[int, int] = (0, 0)):
        self.op = op  # + - * / % < <= > >= = != && ||
        self.left = left
        self.right = right
        self.pos = pos


class CtorApp(Expr):
    __slots__ = _fields = ("ctor", "args")

    def __init__(self, ctor: str, args: list[Expr], *,
                 pos: tuple[int, int] = (0, 0)):
        self.ctor = ctor
        self.args = args
        self.pos = pos


class SelApp(Expr):
    __slots__ = _fields = ("sel", "arg")

    def __init__(self, sel: str, arg: Expr, *,
                 pos: tuple[int, int] = (0, 0)):
        self.sel = sel
        self.arg = arg
        self.pos = pos


class TestApp(Expr):
    """Constructor tester, written ``is_<ctor>(e)``; yields 0/1."""

    __slots__ = _fields = ("ctor", "arg")

    def __init__(self, ctor: str, arg: Expr, *,
                 pos: tuple[int, int] = (0, 0)):
        self.ctor = ctor
        self.arg = arg
        self.pos = pos


# ---------------------------------------------------------------------------
# Statements


class Stmt(Struct):
    __slots__ = ("pos",)
    _meta = ("pos",)

    def __init__(self, *, pos: tuple[int, int] = (0, 0)):
        self.pos = pos


class Assign(Stmt):
    __slots__ = _fields = ("target", "expr")

    def __init__(self, target: str, expr: Expr, *,
                 pos: tuple[int, int] = (0, 0)):
        self.target = target
        self.expr = expr
        self.pos = pos


class Alloc(Stmt):
    __slots__ = _fields = ("target", "expr")
    __init__ = Assign.__init__


class Read(Stmt):
    __slots__ = _fields = ("target", "addr")

    def __init__(self, target: str, addr: str, *,
                 pos: tuple[int, int] = (0, 0)):
        self.target = target
        self.addr = addr  # address operand must be a variable
        self.pos = pos


class Write(Stmt):
    __slots__ = _fields = ("addr", "expr")

    def __init__(self, addr: str, expr: Expr, *,
                 pos: tuple[int, int] = (0, 0)):
        self.addr = addr
        self.expr = expr
        self.pos = pos


class Skip(Stmt):
    __slots__ = ()


class Block(Stmt):
    """Statement sequence: structure, not a statement of its own, so the
    statement walks and the encoder's location tags skip it."""

    __slots__ = _fields = ("stmts",)

    def __init__(self, stmts: tuple[Stmt, ...] = (), *,
                 pos: tuple[int, int] = (0, 0)):
        self.stmts = stmts
        self.pos = pos


class If(Stmt):
    __slots__ = _fields = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Stmt, els: Stmt, *,
                 pos: tuple[int, int] = (0, 0)):
        self.cond = cond
        self.then = then
        self.els = els  # empty Block when the source has no else branch
        self.pos = pos


class While(Stmt):
    __slots__ = _fields = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, *,
                 pos: tuple[int, int] = (0, 0)):
        self.cond = cond
        self.body = body
        self.pos = pos


class AssumeExpr(Stmt):
    __slots__ = _fields = ("expr",)

    def __init__(self, expr: Expr, *, pos: tuple[int, int] = (0, 0)):
        self.expr = expr
        self.pos = pos


class AssertExpr(Stmt):
    __slots__ = _fields = ("expr",)
    __init__ = AssumeExpr.__init__


class AssumePred(Stmt):
    __slots__ = _fields = ("pred", "args")

    def __init__(self, pred: str, args: list[Expr], *,
                 pos: tuple[int, int] = (0, 0)):
        self.pred = pred
        self.args = args
        self.pos = pos


class AssertPred(Stmt):
    __slots__ = _fields = ("pred", "args")
    __init__ = AssumePred.__init__


class HavocStmt(Stmt):
    """Macro statement ``havoc(x);``: sets x to an arbitrary value derived
    from the seed variable.  Evaluated with exactly the semantics of the
    expansion produced by ``expand_havoc`` in ``tests/progen.py``."""

    __slots__ = _fields = ("target",)

    def __init__(self, target: str, *, pos: tuple[int, int] = (0, 0)):
        self.target = target
        self.pos = pos


class NondetStmt(Stmt):
    """Native nondeterministic assignment ``nondet(x);``.  Emitted instead of
    the havoc macro when encoding for CHC back-ends that support
    unconstrained assignments."""

    __slots__ = _fields = ("target",)
    __init__ = HavocStmt.__init__


# ---------------------------------------------------------------------------
# Program

# Name of the 0-ary predicate used for expression assertion failures; it can
# never be declared or applied in source programs.
FAILURE_PRED = "F"

# The inputs besides the input and seed variables that the oracle's grid
# binds, to integers, in a program that declares them: the heap-operation
# budget of the ``n`` encoding and the prophecy address of the heap
# encodings.
COUNTER_VAR = "$c"
LAST_ADDR_VAR = "$last_addr"


class Program(Struct):
    """A declaration list, variable map or body left out (None) is a new
    empty one."""

    __slots__ = ("adts", "heap_adt", "heap_pos", "preds", "input_var",
                 "seed_var", "var_types", "body")
    _fields = ("adts", "heap_adt", "preds", "input_var", "seed_var",
               "var_types", "body")
    _meta = ("heap_pos",)

    def __init__(self, adts: list[AdtDecl] | None = None,
                 heap_adt: str | None = None,
                 preds: list[PredDecl] | None = None,
                 input_var: str | None = None, seed_var: str | None = None,
                 var_types: dict[str, Type] | None = None,
                 body: Block | None = None, *,
                 heap_pos: tuple[int, int] = (0, 0)):
        self.adts = [] if adts is None else adts
        self.heap_adt = heap_adt
        self.heap_pos = heap_pos
        self.preds = [] if preds is None else preds
        self.input_var = input_var
        self.seed_var = seed_var
        self.var_types = {} if var_types is None else var_types
        self.body = Block() if body is None else body

    def adts_by_name(self) -> dict[str, AdtDecl]:
        return {a.name: a for a in self.adts}

    def preds_by_name(self) -> dict[str, PredDecl]:
        return {p.name: p for p in self.preds}

    def heap_obj_type(self) -> Type:
        if self.heap_adt is None:
            raise ValueError("program has no heaptype declaration")
        return obj_type(self.heap_adt)


class InputError(Exception):
    """A program, configuration or bound that the library cannot process as
    asked; the command line reports it as one ``error:`` line."""


class SourceError(Exception):
    """Parse error with position, formatted ``line:col: message``."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class Diagnostic(Struct):
    __slots__ = _fields = ("line", "col", "message")

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


# ---------------------------------------------------------------------------
# Lexer

# "input" and "seed" are contextual: they introduce declarations but remain
# usable as variable names (the havoc macro's expansion in tests/progen.py
# manipulates a variable that is conventionally called seed)
_KEYWORDS = {
    "prog", "adt", "heaptype", "pred", "var",
    "if", "else", "while", "skip", "assume", "assert",
    "alloc", "read", "write", "havoc", "nondet",
    "null", "defObj", "Int", "Addr", "Obj",
}

# One match per token: the gap of whitespace and comments before it, then
# the token, a character that starts none (an error), or the end of the text.
# Digits are ASCII: int() would read any Unicode decimal digit.
_TOKEN_RE = re.compile(
    r"""
      (\s*(?://[^\n]*\s*)*)
      (?: ([0-9]+)
        | ([A-Za-z_$][A-Za-z0-9_$]*)
        | (:=|<=|>=|!=|&&|\|\||[-+*/%<>=!;:,(){}])
        | (\S)
        | \Z )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "num" | "id" | "kw" | "op" | "eof"
    text: str
    line: int
    col: int


_new_tuple = tuple.__new__  # Token(...) without its Python __new__


def _tokenize(text: str) -> list[Token]:
    toks = []
    append, new, keywords = toks.append, _new_tuple, _KEYWORDS
    line, col = 1, 1
    for gap, num, ident, op, bad in _TOKEN_RE.findall(text):
        if gap:
            if gap == " ":
                col += 1
            elif "\n" in gap:
                line += gap.count("\n")
                col = len(gap) - gap.rfind("\n")
            else:
                col += len(gap)
        if ident:
            append(new(Token, (
                "kw" if ident in keywords else "id", ident, line, col)))
            col += len(ident)
        elif op:
            append(new(Token, ("op", op, line, col)))
            col += len(op)
        elif num:
            append(new(Token, ("num", num, line, col)))
            col += len(num)
        elif bad:
            raise SourceError(line, col, f"unexpected character {bad!r}")
        else:
            # the end; a text that ends in a gap matches the end twice
            break
    append(_new_tuple(Token, ("eof", "", line, col)))
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

    # token helpers; ``text`` is always an operator or a keyword, and only
    # an "op" or "kw" token can have such a text

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.toks[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.toks[self.pos]
        if t.text != text:
            raise SourceError(t.line, t.col, f"expected {text!r}, found {t.text!r}")
        self.pos += 1
        return t

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
        if self.depth >= MAX_NESTING:
            self.err(tok, f"nesting deeper than {MAX_NESTING} levels")
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
        # ``at_decl`` holds: the first token is a declaration keyword, or a
        # contextual ``input`` / ``seed``
        which = self.next().text
        if which == "var":
            name_t = self.expect_ident()
            self.expect(":")
            ty = self.parse_type()
            self.expect(";")
            self.declare_var(name_t, ty)
        elif which == "adt":
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
        elif which == "heaptype":
            name_t = self.expect_ident()
            if self.prog.heap_adt is not None:
                self.err(name_t, "duplicate heaptype declaration")
            self.prog.heap_adt = name_t.text
            self.prog.heap_pos = (name_t.line, name_t.col)
            self.expect(";")
        elif which == "pred":
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
        else:
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
            return Type("Addr", pos=(t.line, t.col))
        if t.text == "Obj":
            # shorthand for the designated heap ADT; resolved by typecheck
            return Type("Obj", None, pos=(t.line, t.col))
        if t.kind == "id":
            return Type("Obj", t.text, pos=(t.line, t.col))
        self.err(t, f"expected a type, found {t.text!r}")

    # statements

    def parse_stmt(self) -> Stmt:
        t = self.toks[self.pos]
        p = (t.line, t.col)
        text = t.text
        if t.kind == "id":
            self.pos += 1
            self.expect(":=")
            head = self.toks[self.pos].text
            if head == "alloc":
                self.pos += 1
                self.expect("(")
                e = self.parse_expr()
                self.expect(")")
                self.expect(";")
                return Alloc(text, e, pos=p)
            if head == "read":
                self.pos += 1
                self.expect("(")
                addr_t = self.expect_ident()
                self.expect(")")
                self.expect(";")
                return Read(text, addr_t.text, pos=p)
            e = self.parse_expr()
            self.expect(";")
            return Assign(text, e, pos=p)
        if text == "if":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            els: Stmt = Block(())
            if self.accept("else"):
                els = self.parse_block()
            return If(cond, then, els, pos=p)
        if text == "assert":
            self.pos += 1
            return self.parse_assert_assume(AssertExpr, AssertPred, p)
        if text == "assume":
            self.pos += 1
            return self.parse_assert_assume(AssumeExpr, AssumePred, p)
        if text == "write":
            self.pos += 1
            self.expect("(")
            addr_t = self.expect_ident()
            self.expect(",")
            e = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return Write(addr_t.text, e, pos=p)
        if text == "while":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_block()
            return While(cond, body, pos=p)
        if text == "skip":
            self.pos += 1
            self.expect(";")
            return Skip(pos=p)
        if text == "havoc" or text == "nondet":
            self.pos += 1
            self.expect("(")
            x = self.expect_ident()
            self.expect(")")
            self.expect(";")
            cls = HavocStmt if text == "havoc" else NondetStmt
            return cls(x.text, pos=p)
        self.err(t, f"expected a statement, found {text!r}")

    def parse_block(self) -> Block:
        self.enter(self.expect("{"))
        stmts = []
        toks = self.toks
        while toks[self.pos].text != "}":
            stmts.append(self.parse_stmt())
        self.pos += 1
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
        toks = self.toks
        while True:
            op_t = toks[self.pos]
            level = _PRECEDENCE.get(op_t.text)
            if level is None or level < min_level:
                break
            self.pos += 1
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
        t = self.toks[self.pos]
        if t.text in ("-", "!"):
            self.pos += 1
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
        t = self.toks[self.pos]
        self.pos += 1
        p = (t.line, t.col)
        self.height = 0
        if t.kind == "id":
            if self.toks[self.pos].text == "(":
                return self.parse_call(t)
            return Var(t.text, pos=p)
        if t.kind == "num":
            try:
                return IntLit(int(t.text), pos=p)
            except ValueError:
                # more digits than int() converts, and than str() prints
                # (sys.get_int_max_str_digits())
                self.err(t, f"integer literal of {len(t.text)} digits is "
                            "too long")
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
    """Parse source text into a Program.

    Raises SourceError on syntax errors, duplicate declarations, and unknown
    identifiers in call position.
    """
    return _Parser(text).parse_program()


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
# Statement walks


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


# ---------------------------------------------------------------------------
# Control-flow graph


def layout(body: Stmt) -> list[list]:
    """The statement's control-flow graph: one node ``[kind, node, next,
    else]`` per simple statement (``do``) and per test (``branch`` or
    ``loop``, which goes to ``next`` when its condition holds and to
    ``else`` when not), in pre-order, entered at 0.  A node's successors
    are node indices, or the end ``len(nodes)``.  Blocks and ``skip`` leave
    no node, and no jump is laid out: an ``if``'s then part exits past its
    else part, a loop body to its test.  The executor compiles these nodes
    and the Horn translator gives each one a location."""
    nodes: list[list] = []
    exits = _layout(body, nodes, [])
    end = len(nodes)
    for op, f in exits:
        op[f] = end
    return nodes


def _layout(s: Stmt, flat: list, exits: list) -> list:
    """Append the statement's nodes to ``flat``.  ``exits`` holds the
    (node, field) pairs that lead into the statement; its first node takes
    them, and the pairs that lead past it are returned."""
    t = type(s)
    if t is Block:
        for x in s.stmts:
            exits = _layout(x, flat, exits)
        return exits
    if t is Skip:
        return exits
    i = len(flat)
    for op, f in exits:
        op[f] = i
    if t is If:
        op = ["branch", s.cond, None, None]
        flat.append(op)
        then = _layout(s.then, flat, [(op, 2)])
        return then + _layout(s.els, flat, [(op, 3)])
    if t is While:
        op = ["loop", s.cond, None, None]
        flat.append(op)
        for body, f in _layout(s.body, flat, [(op, 2)]):
            body[f] = i
        return [(op, 3)]
    op = ["do", s, None, None]
    flat.append(op)
    return [(op, 2)]


# ---------------------------------------------------------------------------
# Expression/statement utilities


def map_statements(stmt: Stmt, leaf: Callable[[Stmt], list[Stmt]],
                   cond: Callable[[Expr], Expr] = lambda e: e) -> Block:
    """Rebuild a statement tree as a Block.  Each Block, If and While gets
    a new node of the same kind, with ``cond`` applied to every If/While
    condition; every other statement is replaced by the list ``leaf``
    returns for it, spliced into the enclosing block (an If/While branch
    that is not a Block becomes one).  Positions are kept.

    The calls come in pre-order, once per occurrence of a statement: an
    If's or While's ``cond`` before the calls for its branches, and
    ``leaf`` on each other statement.  What ``leaf`` returns is spliced in
    as it is, so the output shares the statements it returns unchanged."""
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
    return leaf(s)


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


COMPARISONS = frozenset(("<", "<=", ">", ">=", "=", "!="))


def query_positions(program: Program, name: str) -> dict[str, tuple] | None:
    """The argument positions at which each queried predicate's assumes
    and asserts hold the variable ``name`` itself, or None unless every
    query of a predicate holds it at the same positions and nothing else
    reads or assigns it but a comparison (``COMPARISONS``) that has it as a
    bare operand: no other expression, argument, heap address operand or
    statement target.  A run then sees the variable only through the
    tuples of its queries and the outcomes of those comparisons.  One walk
    of the statements collects their expressions; one loop over an
    explicit stack then visits each expression node once."""
    positions: dict[str, tuple] = {}
    exprs: list[Expr] = []
    expr = exprs.append
    for s in walk_statements(program.body):
        t = type(s)
        if t is AssumePred or t is AssertPred:
            at = []
            for i, a in enumerate(s.args):
                if type(a) is Var and a.name == name:
                    at.append(i)
                else:
                    expr(a)
            at = tuple(at)
            if positions.setdefault(s.pred, at) != at:
                return None
            continue
        if name in (getattr(s, "target", None), getattr(s, "addr", None)):
            return None
        e = s.cond if t is If or t is While else getattr(s, "expr", None)
        if e is not None:
            expr(e)
    pop, push = exprs.pop, exprs.append
    while exprs:
        e = pop()
        t = type(e)
        if t is Var:
            if e.name == name:
                return None
        elif t is Binary:
            left, right = e.left, e.right
            if e.op in COMPARISONS:
                if type(left) is not Var or left.name != name:
                    push(left)
                if type(right) is not Var or right.name != name:
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
    return positions


def contains_heap_statements(program: Program) -> bool:
    return any(isinstance(s, (Alloc, Read, Write)) for s in walk_statements(program.body))


# ---------------------------------------------------------------------------
# Type checking


class TypeChecker:
    def __init__(self, program: Program):
        self.p = program
        self.diags: list[Diagnostic] = []
        self.adts = program.adts_by_name()
        self.preds = program.preds_by_name()
        # each ADT's object type, built once; the heap's is None without a
        # heaptype declaration
        obj_tys = {a.name: obj_type(a.name) for a in program.adts}
        heap = program.heap_adt
        self.heap_ty = None if heap is None else obj_tys.get(heap, obj_type(heap))
        # selector -> (adt type, constructor, field index)
        self.sels: dict[str, tuple[Type, CtorDecl, int]] = {}
        self.ctors: dict[str, tuple[Type, CtorDecl]] = {}
        for a in program.adts:
            for c in a.ctors:
                self.ctors[c.name] = (obj_tys[a.name], c)
                for i, (fname, _) in enumerate(c.fields):
                    self.sels[fname] = (obj_tys[a.name], c, i)

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
        # only an Obj type can be ill-formed or need resolving, so only an
        # Obj type's check builds its message
        for a in p.adts:
            for c in a.ctors:
                for fname, fty in c.fields:
                    if fty.kind == "Obj":
                        self.check_type_wf(fty, f"field {fname!r} of {c.name!r}")
                c.fields = [(fname, self.resolve(fty))
                            for fname, fty in c.fields]
        # after every field is resolved: a bare Obj field can close a cycle
        for a in p.adts:
            self.check_adt_acyclic(a)
        for pd in p.preds:
            for i, ty in enumerate(pd.arg_types):
                if ty.kind == "Obj":
                    self.check_type_wf(ty, f"argument {i} of predicate {pd.name!r}")
            pd.arg_types = [self.resolve(ty) for ty in pd.arg_types]
        var_types = p.var_types
        for name, ty in var_types.items():
            if ty.kind == "Obj":
                self.check_type_wf(ty, f"variable {name!r}")
                if ty.adt is None:
                    var_types[name] = self.resolve(ty)
        if p.input_var is not None and p.var_types.get(p.input_var) != INT:
            self.diags.append(Diagnostic(0, 0, "input variable must have type Int"))
        if p.seed_var is not None and p.var_types.get(p.seed_var) != INT:
            self.diags.append(Diagnostic(0, 0, "seed variable must have type Int"))
        for name in (COUNTER_VAR, LAST_ADDR_VAR):
            ty = var_types.get(name, INT)
            if ty != INT:
                self.error(ty, f"variable {name!r} is a grid input and "
                               "must have type Int")

    def resolve(self, ty: Type) -> Type:
        """Resolve the bare ``Obj`` shorthand to the heap ADT."""
        if ty.kind == "Obj" and ty.adt is None and self.heap_ty is not None:
            return self.heap_ty
        return ty

    def check_type_wf(self, ty: Type, what: str):
        """``ty`` is an Obj type."""
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
    #
    # Both walks dispatch on ``type(node)``, and test two types for
    # equality by identity before ``Type.__eq__``: INT, ADDR and the
    # checker's ADT types are shared objects (a declared Addr or Obj type
    # is not: it carries its position).

    def var_type(self, name: str, node) -> Type | None:
        ty = self.p.var_types.get(name)
        if ty is None:
            self.error(node, f"undeclared variable {name!r}")
        return ty

    def check_stmt(self, s: Stmt):
        t = type(s)
        if t is Assign:
            tty = self.p.var_types.get(s.target)
            if tty is None:
                self.error(s, f"undeclared variable {s.target!r}")
            ety = self.check_expr(s.expr)
            if tty is not None and ety is not None and tty is not ety \
                    and tty != ety:
                self.error(s, f"type mismatch: cannot assign {ety} to {s.target}: {tty}")
        elif t is Block:
            for c in s.stmts:
                self.check_stmt(c)
        elif t is If:
            self.check_cond(s.cond)
            self.check_stmt(s.then)
            self.check_stmt(s.els)
        elif t is AssumeExpr or t is AssertExpr:
            self.check_cond(s.expr)
        elif t is AssumePred or t is AssertPred:
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
                if got is not None and got is not want and got != want:
                    self.error(s, f"type mismatch in argument of {s.pred!r}: expected {want}, got {got}")
        elif t is While:
            self.check_cond(s.cond)
            self.check_stmt(s.body)
        elif t is Alloc:
            tty = self.var_type(s.target, s)
            if tty is not None and tty is not ADDR and tty != ADDR:
                self.error(s, f"alloc target {s.target!r} must have type Addr, has {tty}")
            ety = self.check_expr(s.expr)
            if ety is not None and not self.is_heap_ty(ety):
                self.error(s, "alloc operand must be a heap object")
        elif t is Read:
            tty = self.var_type(s.target, s)
            aty = self.var_type(s.addr, s)
            if aty is not None and aty is not ADDR and aty != ADDR:
                self.error(s, f"read address {s.addr!r} must have type Addr, has {aty}")
            if tty is not None and not self.is_heap_ty(tty):
                self.error(s, f"read target {s.target!r} must be a heap object")
        elif t is Write:
            aty = self.var_type(s.addr, s)
            if aty is not None and aty is not ADDR and aty != ADDR:
                self.error(s, f"write address {s.addr!r} must have type Addr, has {aty}")
            ety = self.check_expr(s.expr)
            if ety is not None and not self.is_heap_ty(ety):
                self.error(s, "write operand must be a heap object")
        elif t is HavocStmt or t is NondetStmt:
            tty = self.var_type(s.target, s)
            if tty == ADDR:
                self.error(s, f"cannot havoc Addr variable {s.target!r}")
            elif tty is not None and tty.kind == "Obj":
                if self._adt_has_addr_field(tty.adt):
                    self.error(s, f"cannot havoc {s.target!r}: adt {tty.adt!r} has Addr fields")
            if self.p.seed_var is None:
                kind = "havoc" if t is HavocStmt else "nondet"
                self.error(s, f"{kind} requires a seed declaration")
        elif t is not Skip:
            self.error(s, f"unknown statement {t.__name__}")

    def is_heap_ty(self, ty: Type) -> bool:
        heap_ty = self.heap_ty
        return heap_ty is not None and (ty is heap_ty or ty == heap_ty)

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
        if ty is not None and ty is not INT and ty != INT:
            self.error(e, f"condition must have type Int, has {ty}")

    # expressions

    def check_expr(self, e: Expr) -> Type | None:
        # every declared type is resolved by ``check_decls``, so no bare Obj
        # reaches here while a heaptype is declared
        t = type(e)
        if t is Var:
            ty = self.p.var_types.get(e.name)
            if ty is None:
                self.error(e, f"undeclared variable {e.name!r}")
            return ty
        if t is IntLit:
            return INT
        if t is Binary:
            lty = self.check_expr(e.left)
            rty = self.check_expr(e.right)
            if e.op == "=" or e.op == "!=":
                if lty is not None and rty is not None and lty is not rty \
                        and lty != rty:
                    self.error(e, f"cannot compare {lty} with {rty}")
                return INT
            for side in (lty, rty):
                if side is INT or side is None:
                    continue
                if side == ADDR:
                    self.error(e, "arithmetic on Addr")
                elif side != INT:
                    self.error(e, f"operator {e.op!r} needs Int operands, got {side}")
            return INT
        if t is SelApp:
            info = self.sels.get(e.sel)
            if info is None:
                self.error(e, f"unknown selector {e.sel!r}")
                return None
            adt_ty, ctor, i = info
            got = self.check_expr(e.arg)
            if got is not None and got is not adt_ty and got != adt_ty:
                self.error(e, f"selector {e.sel!r} applies to {adt_ty}, got {got}")
            return ctor.fields[i][1]
        if t is CtorApp:
            info = self.ctors.get(e.ctor)
            if info is None:
                self.error(e, f"unknown constructor {e.ctor!r}")
                return None
            adt_ty, ctor = info
            if len(e.args) != len(ctor.fields):
                self.error(e, f"constructor {e.ctor!r} expects {len(ctor.fields)} arguments, got {len(e.args)}")
            for a, (fname, fty) in zip(e.args, ctor.fields):
                got = self.check_expr(a)
                if got is not None and got is not fty and got != fty:
                    self.error(e, f"field {fname!r} of {e.ctor!r} expects {fty}, got {got}")
            return adt_ty
        if t is Null:
            return ADDR
        if t is DefObj:
            if self.heap_ty is None:
                self.error(e, "defObj needs a heaptype declaration")
            return self.heap_ty
        if t is Unary:
            oty = self.check_expr(e.operand)
            if oty is not None and oty is not INT and oty != INT:
                self.error(e, f"arithmetic on {oty}" if oty == ADDR
                           else f"unary {e.op!r} needs an Int operand, got {oty}")
            return INT
        if t is TestApp:
            info = self.ctors.get(e.ctor)
            if info is None:
                self.error(e, f"unknown constructor {e.ctor!r} in tester")
                return INT
            adt_ty = info[0]
            got = self.check_expr(e.arg)
            if got is not None and got is not adt_ty and got != adt_ty:
                self.error(e, f"tester is_{e.ctor} applies to {adt_ty}, got {got}")
            return INT
        self.error(e, f"unknown expression {t.__name__}")
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
