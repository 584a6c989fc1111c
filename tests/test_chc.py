import hashlib
import json
import pathlib
import re

import pytest

from heapinv.chc import (
    ChcError, _declaration_order, _sort_of, emit_smtlib, to_chc,
)
from heapinv.corpus import VARIANTS, encode_variant
from heapinv.encode import EncodingConfig, enc_r, enc_rw, encode
from heapinv.lang import parse_and_check

import progen


def clauses(src, **enc_kw):
    p = parse_and_check(src)
    if enc_kw.pop("encode", False):
        p = enc_r(p, native_havoc=True, **enc_kw).program
    return to_chc(p)


def test_skip_program_single_entry_clause():
    cs = clauses("prog { skip; }")
    assert len(cs.clauses) == 1
    entry = cs.clauses[0]
    assert entry.head is not None and entry.head.name == cs.entry
    assert entry.body == [] and entry.constraint == []
    assert cs.false_clauses() == []


def test_assert_false_program_yields_false_clause():
    cs = clauses("prog { assert(0); }")
    assert len(cs.false_clauses()) == 1
    fc = cs.false_clauses()[0]
    assert [a.name for a in fc.body] == [cs.entry]


def test_every_assert_yields_a_false_clause():
    cs = clauses("prog { var i: Int; assert(i = 0); i := 1; assert(i = 1); }")
    assert len(cs.false_clauses()) == 2


def test_predicate_assert_in_head():
    cs = clauses("prog { pred P(Int); var i: Int; assert(P(i)); }")
    heads = [c.head.name for c in cs.clauses if c.head is not None]
    assert "P" in heads


def test_predicate_assume_in_body_nonlinear():
    cs = clauses("prog { pred P(Int); var i: Int; assume(P(i)); }")
    multi = [c for c in cs.clauses if len(c.body) == 2]
    assert len(multi) == 1
    assert {a.name for a in multi[0].body} == {cs.entry, "P"}


def test_body_atom_bound_is_two():
    for seed in range(10):
        p = progen.gen_program(seed)
        q = enc_rw(p, native_havoc=True).program
        cs = to_chc(q)
        assert cs.max_body_atoms() <= 2


@pytest.mark.parametrize("body", [
    "p := alloc(defObj);",
    "if (in > 0) { skip; } else { x := read(p); }",
    "while (in > 0) { if (in = 1) { write(p, x); } in := in - 1; }",
], ids=["alloc", "read-in-if", "write-in-while"])
def test_heap_statements_rejected(body):
    src = f"""prog {{
      adt Node {{ node(data: Int, next: Addr); }}
      heaptype Node;
      input in;
      var p: Addr; var x: Node;
      {body}
    }}"""
    with pytest.raises(ChcError, match="^program still contains heap "
                                       "statements; encode it first$"):
        to_chc(parse_and_check(src))


def test_nondet_leaves_variable_unconstrained():
    cs = clauses("prog { seed seed; var i: Int; nondet(i); }")
    hav = [c for c in cs.clauses
           if c.head is not None and any(n.startswith("i!") for n, _ in c.vars)]
    assert len(hav) == 1
    clause = hav[0]
    fresh = next(n for n, _ in clause.vars if n.startswith("i!"))
    assert fresh in clause.head.args


def test_while_produces_recursive_clause():
    cs = clauses("prog { var i: Int; while (i < 3) { i := i + 1; } }")
    # some location predicate appears in its own derivation cycle: there is
    # a clause whose head equals a body predicate of another clause chain
    heads = {c.head.name for c in cs.clauses if c.head}
    loop_heads = {c.head.name for c in cs.clauses
                  if c.head and c.body and c.head.name in
                  {b.name for cc in cs.clauses if cc.head and
                   cc.head.name == c.head.name for b in cc.body}}
    assert heads  # structure exists; the loop head receives two entries
    entries = {}
    for c in cs.clauses:
        if c.head:
            entries[c.head.name] = entries.get(c.head.name, 0) + 1
    assert max(entries.values()) >= 2  # loop head: from before and from body


# ---------------------------------------------------------------------------
# emission


def tokenize_sexprs(text):
    """Minimal S-expression reader used to sanity-check the emitted file."""
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    stack, top = [], []
    for t in toks:
        if t == "(":
            stack.append(top)
            top = []
        elif t == ")":
            done = top
            top = stack.pop()
            top.append(done)
        else:
            top.append(t)
    assert not stack, "unbalanced parentheses"
    return top


def test_emit_is_deterministic_and_retokenizes():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      var x: Node;
      p := alloc(node(5, null));
      x := read(p);
      assert(data(x) = 5);
    }"""
    p = enc_r(parse_and_check(src), native_havoc=True).program
    cs = to_chc(p)
    text = emit_smtlib(cs)
    assert emit_smtlib(cs) == text
    forms = tokenize_sexprs(text)
    assert forms[0] == ["set-logic", "HORN"]
    assert forms[-1] == ["check-sat"]
    asserts = [f for f in forms if f and f[0] == "assert"]
    assert len(asserts) == len(cs.clauses)
    datatypes = [f for f in forms if f and f[0] == "declare-datatypes"]
    assert len(datatypes) == 1


def test_empty_clause_set_header_and_checksat():
    from heapinv.chc import ClauseSet
    text = emit_smtlib(ClauseSet(adts=[], preds={}))
    assert text == "(set-logic HORN)\n(check-sat)\n"


def test_division_requires_positive_constant_divisor():
    with pytest.raises(ChcError):
        to_chc(parse_and_check("prog { var i: Int; var j: Int; i := i / j; }"))
    cs = to_chc(parse_and_check("prog { var i: Int; i := i / 2; }"))
    assert "div" in emit_smtlib(cs)


def test_division_error_names_only_the_divisor():
    with pytest.raises(ChcError) as err:
        to_chc(parse_and_check("prog { var i: Int; i := 7 % i; }"))
    assert str(err.value) == ("division in clause translation is supported "
                              "only for positive constant divisors")


@pytest.mark.parametrize("base", ["r", "rw"])
def test_native_havoc_does_not_change_the_clauses(corpus, base):
    # havoc and nondet translate to the same clauses: nothing on the
    # encode-to-emit path expands the seed macro
    pairs = 0
    for entry in corpus:
        p = entry.load()
        for ext in ({}, {"tagging": True}, {"caching": True}):
            macro, native = (
                emit_smtlib(to_chc(encode(p, EncodingConfig(
                    base=base, native_havoc=nh, **ext)).program))
                for nh in (False, True))
            assert macro == native, (entry.name, base, ext)
            pairs += 1
    assert pairs == 3 * len(corpus) == 69


def test_golden_file_for_encoded_list_program(corpus):
    import pathlib
    entry = next(e for e in corpus if e.name == "list-build-traverse")
    p = enc_r(entry.load(), native_havoc=True).program
    text = emit_smtlib(to_chc(p))
    golden = pathlib.Path(__file__).parent / "golden" / "list_encoded.smt2"
    assert text == golden.read_text(encoding="utf-8")


def undeclared_sorts(text: str) -> list[str]:
    """Sorts named in a datatype field or a ``declare-fun`` before their
    datatype is declared."""
    declared = {"Int", "Bool"}
    missing = []
    for form in tokenize_sexprs(text):
        if form[0] == "declare-datatypes":
            [[name, _]] = form[1]
            [ctors] = form[2]
            missing += [sort for ctor in ctors for _, sort in ctor[1:]
                        if sort not in declared]
            declared.add(name)
        elif form[0] == "declare-fun":
            missing += [sort for sort in form[2] if sort not in declared]
    return missing


def emitted_forms(src: str) -> list:
    """The S-expressions of the program's SMT-LIB, every sort declared."""
    text = emit_smtlib(to_chc(parse_and_check(src)))
    assert undeclared_sorts(text) == []
    return tokenize_sexprs(text)


def last_head(forms: list) -> list:
    """The head of the last ``(assert (forall (...) (=> body head)))``."""
    (_, (_, _, (_, _, head))) = [f for f in forms if f[0] == "assert"][-1]
    return head


TWO_CTORS = "adt T { a(v: Int); b(); }"


def test_tester_in_value_position_is_an_ite():
    forms = emitted_forms(f"prog {{ {TWO_CTORS} var x: T; var y: Int; "
                          "y := is_b(x); }")
    assert last_head(forms) == ["L1", "x", ["ite", [["_", "is", "b"], "x"],
                                            "1", "0"]]


def test_nullary_constructor_is_a_bare_symbol():
    forms = emitted_forms(f"prog {{ {TWO_CTORS} var x: T; x := b(); }}")
    assert last_head(forms) == ["L1", "b"]


def test_program_without_variables_has_no_quantifiers():
    forms = emitted_forms("prog { assert(0); }")
    assert [f for f in forms if f[0] == "declare-fun"] == [
        ["declare-fun", "L0", [], "Bool"], ["declare-fun", "L1", [], "Bool"]]
    asserts = [f[1] for f in forms if f[0] == "assert"]
    assert asserts[0] == ["=>", "true", "L0"]
    assert len(asserts) == 3
    assert all(a[0] == "=>" and "forall" not in str(a) for a in asserts)
    assert ["=>", ["and", "L0", ["not", "false"]], "false"] in asserts


@pytest.mark.parametrize("field", ["Node", "Obj"])
def test_datatype_declared_after_the_datatypes_it_names(field):
    src = f"""prog {{
      adt Box {{ box(v: {field}); }}
      adt Node {{ node(d: Int); }}
      heaptype Node;
      input in;
      seed seed;
      var p: Addr; var n: Node; var b: Box;
      p := alloc(node(in));
      n := read(p);
      b := box(n);
      assert(d(v(b)) = in);
    }}"""
    text = emit_smtlib(to_chc(enc_r(parse_and_check(src)).program))
    names = [f[1][0][0] for f in tokenize_sexprs(text)
             if f[0] == "declare-datatypes"]
    assert names == ["Node", "Box"]
    assert undeclared_sorts(text) == []


def test_every_sort_is_declared_before_use(corpus):
    checked = 0
    for entry in corpus:
        source = entry.load()
        for variant in VARIANTS:
            if not isinstance(VARIANTS[variant][0], EncodingConfig):
                continue  # the budget instrumentation keeps the heap
            p = encode_variant(entry, source, variant)
            if p is not None:
                text = emit_smtlib(to_chc(p))
                assert undeclared_sorts(text) == [], (entry.name, variant)
                checked += 1
    assert checked == 196


# ---------------------------------------------------------------------------
# the clause sets the emit benchmark renders, checked against a plain
# renderer and pinned byte for byte

GOLDEN_SMTLIB = pathlib.Path(__file__).parent / "golden" / "smtlib.json"


@pytest.fixture(scope="module")
def emitted(corpus):
    """``entry/variant`` -> clause set for every corpus entry under every
    heap-eliminating registry variant it is eligible for, plus
    list-build-traverse under r with native havoc (``r_native``)."""
    out = {}
    for entry in corpus:
        source = entry.load()
        for variant, (encoding, _) in VARIANTS.items():
            if isinstance(encoding, EncodingConfig):
                p = encode_variant(entry, source, variant)
                if p is not None:
                    out[f"{entry.name}/{variant}"] = to_chc(p)
        if entry.name == "list-build-traverse":
            p = enc_r(source, native_havoc=True).program
            out[f"{entry.name}/r_native"] = to_chc(p)
    return out


def plain_render(t):
    if isinstance(t, str):
        return t
    return "(" + " ".join(plain_render(x) for x in t) + ")"


def plain_atom(app):
    return app.name if not app.args else plain_render((app.name, *app.args))


def plain_emit(cs):
    """Every term rendered afresh, with nothing shared between clauses."""
    out = ["(set-logic HORN)"]
    for adt in _declaration_order(cs.adts):
        ctors = []
        for c in adt.ctors:
            flds = " ".join(f"({fn} {_sort_of(ft)})" for fn, ft in c.fields)
            ctors.append(f"({c.name}{(' ' + flds) if flds else ''})")
        out.append(f"(declare-datatypes (({adt.name} 0)) (("
                   + " ".join(ctors) + ")))")
    for name, sorts in cs.preds.items():
        out.append(f"(declare-fun {name} ({' '.join(sorts)}) Bool)")
    for cl in cs.clauses:
        head = "false" if cl.head is None else plain_atom(cl.head)
        atoms = [plain_atom(a) for a in cl.body]
        atoms += [plain_render(c) for c in cl.constraint]
        if not atoms:
            body = "true"
        elif len(atoms) == 1:
            body = atoms[0]
        else:
            body = "(and " + " ".join(atoms) + ")"
        impl = f"(=> {body} {head})"
        if cl.vars:
            qvars = " ".join(f"({n} {s})" for n, s in cl.vars)
            out.append(f"(assert (forall ({qvars}) {impl}))")
        else:
            out.append(f"(assert {impl})")
    out.append("(check-sat)")
    return "\n".join(out) + "\n"


def test_emit_matches_the_plain_renderer(emitted):
    assert len(emitted) == 197
    for key, cs in emitted.items():
        assert emit_smtlib(cs) == plain_emit(cs), key


def test_emit_matches_the_smtlib_manifest(emitted):
    # pins the rendering of every clause set above, as recorded in
    # tests/golden/smtlib.json
    want = json.loads(GOLDEN_SMTLIB.read_text(encoding="utf-8"))
    got = {key: hashlib.sha256(emit_smtlib(cs).encode("utf-8")).hexdigest()
           for key, cs in emitted.items()}
    assert got == want


def test_shared_sequences_are_tuples(emitted):
    # a consumer cannot change one clause or predicate through another
    programs = [progen.gen_program(seed) for seed in range(10)]
    sets = list(emitted.values()) + [
        to_chc(enc_rw(p, native_havoc=True).program) for p in programs]
    for cs in sets:
        assert all(type(sorts) is tuple for sorts in cs.preds.values())
        # built once: every location predicate holds the entry's sorts
        assert all(sorts is cs.preds[cs.entry]
                   for name, sorts in cs.preds.items()
                   if re.fullmatch(r"L\d+", name))
        for cl in cs.clauses:
            assert type(cl.vars) is tuple
            atoms = cl.body + ([cl.head] if cl.head is not None else [])
            assert all(type(a.args) is tuple for a in atoms)


def test_state_atoms_hold_the_shared_tuple(emitted):
    # a location atom whose arguments are the variables themselves holds
    # ClauseSet.state_args, the tuple emit_smtlib renders once: also after
    # an assignment of a variable to itself
    cs = to_chc(parse_and_check("prog { var x: Int; var y: Int; x := x; }"))
    assert cs.state_args == ("x", "y")
    assert all(a.args is cs.state_args for cl in cs.clauses
               for a in cl.body + [cl.head])
    programs = [progen.gen_program(seed) for seed in range(60)]
    sets = list(emitted.values()) + [
        to_chc(enc(p).program) for p in programs for enc in (enc_r, enc_rw)]
    for cs in sets:
        for cl in cs.clauses:
            atoms = cl.body + ([cl.head] if cl.head is not None else [])
            assert all(a.args is cs.state_args for a in atoms
                       if a.args == cs.state_args)
