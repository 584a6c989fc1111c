"""The lexer and the type checker of ``heapinv.lang`` against the versions
they replaced.

``lang._tokenize`` is one ``findall`` pass whose matches are a token and
the gap of whitespace and comments before it; ``TypeChecker`` dispatches on
``type(node)`` and tests types for equality by identity first.  The
references below are the versions they replaced: a loop of one regular
expression match per token or gap, and a checker of ``isinstance`` chains.
Both must give the same tokens, or the same ``SourceError`` text, and the
same diagnostics in the same order.  The one intended difference: a
non-ASCII decimal digit is no longer a digit, so it ends in ``unexpected
character``.
"""

import copy
import random
import re

import pytest

from heapinv.corpus import load_corpus
from heapinv.lang import (
    ADDR, INT, AdtDecl, Alloc, AssertExpr, AssertPred, Assign, AssumeExpr,
    AssumePred, Binary, Block, CtorApp, DefObj, Diagnostic, HavocStmt, If,
    IntLit, NondetStmt, Null, Read, SelApp, Skip, SourceError,
    TypeChecker, Unary, Var, While, Write, _tokenize, obj_type,
    parse_program, pretty_print,
)
from heapinv.lang import TestApp as IsCtor  # a Test* name would be collected

import progen
import test_lang
from test_walks import corpus_programs

# ---------------------------------------------------------------------------
# the reference lexer

_REF_KEYWORDS = {
    "prog", "adt", "heaptype", "pred", "var",
    "if", "else", "while", "skip", "assume", "assert",
    "alloc", "read", "write", "havoc", "nondet",
    "null", "defObj", "Int", "Addr", "Obj",
}

_REF_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<num>\d+)
    | (?P<id>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<op>:=|<=|>=|!=|&&|\|\||[-+*/%<>=!;:,(){}])
    """,
    re.VERBOSE,
)


def ref_tokenize(text):
    """(kind, text, line, col) of each token, the end included."""
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _REF_TOKEN_RE.match(text, i)
        if m is None:
            raise SourceError(line, col, f"unexpected character {text[i]!r}")
        lexeme = m.group(0)
        if m.lastgroup == "num":
            toks.append(("num", lexeme, line, col))
        elif m.lastgroup == "id":
            kind = "kw" if lexeme in _REF_KEYWORDS else "id"
            toks.append((kind, lexeme, line, col))
        elif m.lastgroup == "op":
            toks.append(("op", lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        i = m.end()
    toks.append(("eof", "", line, col))
    return toks


def lexed(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except SourceError as exc:
        return str(exc)


def non_ascii_digits(text):
    return {c for c in text if c.isdecimal() and not c.isascii()}


def check_tokens(texts) -> int:
    """Each text's tokens against the reference; returns the number of
    texts compared.  Where they differ, the text has a non-ASCII digit and
    the lexer refuses one of them."""
    n = 0
    for text in texts:
        got, want = lexed(_tokenize, text), lexed(ref_tokenize, text)
        if got != want:
            digits = non_ascii_digits(text)
            assert digits and isinstance(got, str), (text, got, want)
            assert any(got.endswith(f"unexpected character {d!r}")
                       for d in digits), (text, got)
        n += 1
    return n


def corpus_sources():
    return [entry.source() for entry in load_corpus()]


def progen_sources(seeds):
    return (pretty_print(progen.gen_program(seed)) for seed in seeds)


# the alphabet of the random texts: pieces of tokens, comments, line ends,
# tabs, characters that start no token and digits that are not ASCII
_PIECES = (list("abxyz_$AZ") + list("0123456789")
           + [":=", "<=", ">=", "!=", "&&", "||"] + list("-+*/%<>=!;:,(){}")
           + ["//", "// c ", "\n", "\r", "\r\n", "\t", " ", "  "]
           + ["prog", "var", "if", "null", "Int"]
           + list("#@.|&'\"") + ["é", " ", " ", "٣", "３"])


def random_texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 40)))


@pytest.mark.parametrize("texts", [
    corpus_sources, lambda: progen_sources(range(200)),
    lambda: random_texts(26, 20000)],
    ids=["corpus", "progen", "random"])
def test_tokens_match_the_reference(texts):
    assert check_tokens(texts()) > 0


def test_non_ascii_digit_is_refused():
    with pytest.raises(SourceError) as exc:
        _tokenize("x :=\n  ٣;")
    assert str(exc.value) == "2:3: unexpected character '٣'"
    assert lexed(ref_tokenize, "x := ٣;")[2] == ("num", "٣", 1, 6)


# ---------------------------------------------------------------------------
# the reference checker


class RefTypeChecker:
    def __init__(self, program):
        self.p = program
        self.diags = []
        self.adts = program.adts_by_name()
        self.preds = program.preds_by_name()
        self.sels = {}
        self.ctors = {}
        for a in program.adts:
            for c in a.ctors:
                self.ctors[c.name] = (a.name, c)
                for i, (fname, _) in enumerate(c.fields):
                    self.sels[fname] = (a.name, c, i)

    def error(self, node, msg):
        line, col = getattr(node, "pos", (0, 0))
        self.diags.append(Diagnostic(line, col, msg))

    def run(self):
        self.check_decls()
        self.check_stmt(self.p.body)
        return self.diags

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

    def resolve(self, ty):
        if ty.kind == "Obj" and ty.adt is None:
            if self.p.heap_adt is None:
                return ty
            return obj_type(self.p.heap_adt)
        return ty

    def check_type_wf(self, ty, what):
        if ty.kind == "Obj":
            if ty.adt is None:
                if self.p.heap_adt is None:
                    self.error(ty, f"{what}: bare Obj type needs a heaptype declaration")
            elif ty.adt not in self.adts:
                self.error(ty, f"{what}: unknown adt {ty.adt!r}")

    def check_adt_acyclic(self, adt: AdtDecl):
        seen = set()

        def reach(name):
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

    def var_type(self, name, node):
        ty = self.p.var_types.get(name)
        if ty is None:
            self.error(node, f"undeclared variable {name!r}")
        return ty

    def check_stmt(self, s):
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

    def _adt_has_addr_field(self, adt_name):
        if adt_name is None or adt_name not in self.adts:
            return False
        for c in self.adts[adt_name].ctors:
            for _, fty in c.fields:
                if fty == ADDR:
                    return True
                if fty.kind == "Obj" and self._adt_has_addr_field(fty.adt):
                    return True
        return False

    def check_cond(self, e):
        ty = self.check_expr(e)
        if ty is not None and ty != INT:
            self.error(e, f"condition must have type Int, has {ty}")

    def check_expr(self, e):
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
        if isinstance(e, IsCtor):
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


def declarations(p):
    """What checking resolves in place: field, predicate and variable
    types, with the positions equality leaves out."""
    def ty(t):
        return (t.kind, t.adt, t.pos)
    return ([(c.name, [(f, ty(t)) for f, t in c.fields])
             for a in p.adts for c in a.ctors],
            [[ty(t) for t in pd.arg_types] for pd in p.preds],
            {v: ty(t) for v, t in p.var_types.items()})


def check_diagnostics(programs) -> int:
    """Each program's diagnostics against the reference, each checker on
    its own copy; returns the number of diagnostics compared."""
    n = 0
    for label, p in programs:
        mine, ref = copy.deepcopy(p), copy.deepcopy(p)
        got = [(d.line, d.col, d.message) for d in TypeChecker(mine).run()]
        want = [(d.line, d.col, d.message)
                for d in RefTypeChecker(ref).run()]
        assert got == want, label
        assert declarations(mine) == declarations(ref), label
        n += len(want)
    return n


def progen_programs(seeds):
    return ((f"progen {seed}", progen.gen_program(seed, allow_havoc=True))
            for seed in seeds)


def ill_typed_programs():
    for label, source in test_lang.ILL_TYPED_SOURCES.items():
        yield label, parse_program(source)
    for stmt, _, _ in test_lang.EXPR_TYPE_ERRORS:
        yield stmt, parse_program(f"{test_lang.EXPR_DECLS}  {stmt}\n}}")


# the declared types a swap draws from: each base type, the bare Obj
# shorthand, each ADT of the sources and one that no source declares
_SWAP_TYPES = ["Int", "Addr", "Obj", "Node", "Pair", "Cell", "Nope"]
_VAR_OR_FIELD_TYPE = re.compile(r"(?<=: )\w+(?=[;,)])")
_PRED_DECL = re.compile(r"pred \w+\(([\w, ]*)\)")


def declared_type_spans(text):
    """Where the text names a type in a variable, field or predicate
    declaration."""
    spans = [m.span() for m in _VAR_OR_FIELD_TYPE.finditer(text)]
    for m in _PRED_DECL.finditer(text):
        spans += [(m.start(1) + a.start(), m.start(1) + a.end())
                  for a in re.finditer(r"\w+", m.group(1))]
    return spans


def type_swaps(seed, sources):
    """Each source with a few declared types swapped for others, seeded;
    a swap the parser refuses is skipped."""
    rng = random.Random(seed)
    for i, text in enumerate(sources):
        spans = declared_type_spans(text)
        for k in range(4):
            out = text
            for a, b in sorted(rng.sample(spans, min(len(spans), 1 + k)),
                               reverse=True):
                out = out[:a] + rng.choice(_SWAP_TYPES) + out[b:]
            try:
                yield f"swap {i}.{k}", parse_program(out)
            except SourceError:
                pass


def swap_programs():
    sources = corpus_sources() + [
        pretty_print(progen.gen_program(s, allow_pair_adt=True))
        for s in range(40)]
    return type_swaps(26, sources)


@pytest.mark.parametrize("programs,least", [
    (corpus_programs, 0), (lambda: progen_programs(range(200)), 0),
    (ill_typed_programs, 20), (swap_programs, 100)],
    ids=["corpus", "progen", "ill-typed", "type-swaps"])
def test_diagnostics_match_the_reference(programs, least):
    # the ill-typed sets reach the checker's errors, not only its accepts
    assert check_diagnostics(programs()) >= least
