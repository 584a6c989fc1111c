import gc
import hashlib
import json
import pathlib

import pytest

from heapinv.chc import emit_smtlib, to_chc
from heapinv.corpus import VARIANTS, encode_variant, load_corpus
from heapinv.encode import (
    EncodedProgram, EncodingConfig, EncodingError, enc_n, enc_r, enc_rw,
    enc_rwfun, enc_rwmem, encode, encoding_is_heap_free,
)
from heapinv.fixpoint import InputDomain, check_equisafety, check_safety
from heapinv.lang import (
    ADDR, INT, Alloc, Assign, AssertExpr, AssertPred, AssumeExpr, AssumePred,
    Binary, Block, HavocStmt, If, IntLit, NondetStmt, PredDecl, Read, Struct,
    Var, While, Write, map_statements, parse_and_check, parse_program,
    pretty_print, replace, typecheck, walk_statements,
)

import progen
from progen import expand_program_havocs

SINGLE_READ = """prog {
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


def stmts_of(program):
    return list(walk_statements(program.body))


def count(program, cls):
    return sum(isinstance(s, cls) for s in stmts_of(program))


# ---------------------------------------------------------------------------
# budget instrumentation


def test_budget_prefix_before_each_heap_statement():
    p = parse_and_check(SINGLE_READ)
    q = enc_n(p)
    assert "$c" in q.var_types
    flat = q.body.stmts
    for i, s in enumerate(flat):
        if isinstance(s, (Alloc, Read, Write)):
            dec, chk = flat[i - 2], flat[i - 1]
            assert isinstance(dec, Assign) and dec.target == "$c"
            assert dec.expr == Binary("-", Var("$c"), IntLit(1))
            assert isinstance(chk, AssumeExpr)
            assert chk.expr == Binary(">=", Var("$c"), IntLit(0))
    assert typecheck(q) == []


def test_budget_on_heap_free_program_only_declares_counter():
    p = parse_and_check("prog { input in; seed seed; var i: Int; i := in; }")
    q = enc_n(p)
    assert q.body == p.body
    assert set(q.var_types) == set(p.var_types) | {"$c"}


def test_budget_equisafety_on_sample():
    d = InputDomain()
    for seed in (0, 4, 9):
        p = progen.gen_program(seed)
        r = check_equisafety(p, enc_n(p), d)
        assert r.agree, f"seed {seed}"


# ---------------------------------------------------------------------------
# read-invariant (r) encoding


def test_r_alloc_snippet_shape():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      p := alloc(node(1, null));
    }"""
    e = enc_r(parse_and_check(src))
    # initialisation: $cnt_alloc := 0; $cnt := 0; $last := defObj
    init = e.program.body.stmts[:3]
    assert [s.target for s in init] == ["$cnt_alloc", "$cnt", "$last"]
    # the rewrite: bump the counter, assign it, conditionally track the object
    rest = e.program.body.stmts[3:]
    bump, assign, track = rest[0], rest[1], rest[2]
    assert bump == Assign("$cnt_alloc", Binary("+", Var("$cnt_alloc"), IntLit(1)))
    assert assign == Assign("p", Var("$cnt_alloc"))
    assert isinstance(track, If)
    assert track.cond == Binary("=", Var("$last_addr"), Var("p"))
    assert track.then.stmts == (Assign("$last", parse_ctor("node(1, 0)")),)


def parse_ctor(text):
    p = parse_program(
        "prog { adt Node { node(data: Int, next: Int); } heaptype Node;"
        f" var x: Node; x := {text}; }}")
    return p.body.stmts[0].expr


def test_r_read_snippet_shape():
    e = enc_r(parse_and_check(SINGLE_READ))
    reads = [s for s in stmts_of(e.program)
             if isinstance(s, If) and isinstance(s.then.stmts[0], AssertPred)]
    assert len(reads) == 1
    r = reads[0]
    assert r.cond == Binary("=", Var("$last_addr"), Var("p"))
    assert r.then.stmts[0] == AssertPred("R", [Var("in"), Var("$cnt"), Var("$last")])
    assert r.then.stmts[1] == Assign("x", Var("$last"))
    assert r.els.stmts[0] == HavocStmt("x")
    assert r.els.stmts[1] == AssumePred("R", [Var("in"), Var("$cnt"), Var("x")])


def test_r_write_guarded_by_validity():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      write(p, node(2, null));
    }"""
    e = enc_r(parse_and_check(src))
    w = e.program.body.stmts[3]
    assert isinstance(w, If)
    assert w.cond == Binary(
        "&&",
        Binary("=", Var("$last_addr"), Var("p")),
        Binary("&&", Binary("<", IntLit(0), Var("p")),
               Binary("<=", Var("p"), Var("$cnt_alloc"))))
    assert w.then.stmts == (Assign("$last", parse_ctor("node(2, 0)")),)


def test_r_output_is_heap_free_and_reparses():
    for seed in range(12):
        p = progen.gen_program(seed, allow_preds=False)
        e = enc_r(p)
        q = e.program
        assert encoding_is_heap_free(q)
        assert count(q, Alloc) == count(q, Read) == count(q, Write) == 0
        assert all(ty != ADDR for ty in q.var_types.values())
        assert typecheck(q) == []
        assert parse_program(pretty_print(q)) == q


def test_r_declares_read_predicate():
    e = enc_r(parse_and_check(SINGLE_READ))
    sig = e.program.preds_by_name()["R"].arg_types
    assert [str(t) for t in sig] == ["Int", "Int", "Node"]


def test_encoding_is_deterministic():
    p1 = enc_r(parse_and_check(SINGLE_READ)).program
    p2 = enc_r(parse_and_check(SINGLE_READ)).program
    assert p1 == p2
    assert pretty_print(p1) == pretty_print(p2)


def test_list_program_encodes_to_expected_shape(corpus):
    entry = next(e for e in corpus if e.name == "list-build-traverse")
    e = enc_r(entry.load())
    q = e.program
    assert encoding_is_heap_free(q)
    # two loops survive; reads become branch-on-prophecy blocks
    assert count(q, While) == 2
    asserts_r = [s for s in stmts_of(q)
                 if isinstance(s, AssertPred) and s.pred == "R"]
    assumes_r = [s for s in stmts_of(q)
                 if isinstance(s, AssumePred) and s.pred == "R"]
    assert len(asserts_r) == 2 and len(assumes_r) == 2  # one read per loop
    havocs = [s for s in stmts_of(q) if isinstance(s, HavocStmt)]
    assert len(havocs) == 2


def test_rejects_reserved_names():
    with pytest.raises(EncodingError):
        enc_r(parse_and_check(
            "prog { adt N { n(v: Int); } heaptype N; pred R(Int);"
            " input in; seed seed; skip; }"))
    with pytest.raises(EncodingError):
        enc_r(parse_and_check(
            "prog { adt N { n(v: Int); } heaptype N; input in; skip; }"))


def test_native_havoc_emits_nondet():
    e = enc_r(parse_and_check(SINGLE_READ), native_havoc=True)
    assert count(e.program, NondetStmt) == 1
    assert count(e.program, HavocStmt) == 0


def test_alloc_operand_using_target_pre_evaluated():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      p := alloc(node(1, p));
    }"""
    p = parse_and_check(src)
    e = enc_r(p)
    # the operand must be evaluated before the target is overwritten
    tmp_assigns = [s for s in stmts_of(e.program)
                   if isinstance(s, Assign) and s.target.startswith("$e")]
    assert len(tmp_assigns) == 1
    d = InputDomain()
    assert check_equisafety(p, e.program, d).agree


# ---------------------------------------------------------------------------
# read/write (rw) family


def test_rw_initialisation_asserts_default_write():
    e = enc_rw(parse_and_check(SINGLE_READ))
    init = e.program.body.stmts[:5]
    assert [s.target for s in init[:4]] == ["$cnt_alloc", "$cnt", "$cnt_last", "$t"]
    w0 = init[4]
    assert isinstance(w0, AssertPred) and w0.pred == "W"
    assert w0.args[1] == IntLit(0)


def test_rw_write_snippet():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      write(p, node(2, null));
    }"""
    e = enc_rw(parse_and_check(src))
    body = e.program.body.stmts[5:]
    assert body[0] == Assign("$cnt", Binary("+", Var("$cnt"), IntLit(1)))
    guard = body[1]
    assert isinstance(guard, If)
    assert guard.cond == Binary("&&", Binary("<", IntLit(0), Var("p")),
                                Binary("<=", Var("p"), Var("$cnt_alloc")))
    assert guard.then.stmts[0] == AssertPred(
        "W", [Var("in"), Var("$cnt"), parse_ctor("node(2, 0)")])
    inner = guard.then.stmts[1]
    assert isinstance(inner, If)
    assert inner.then.stmts == (Assign("$cnt_last", Var("$cnt")),)


def test_rw_read_resolves_through_both_predicates():
    e = enc_rw(parse_and_check(SINGLE_READ))
    q = e.program
    sigs = q.preds_by_name()
    assert [str(t) for t in sigs["R"].arg_types] == ["Int", "Int", "Int"]
    assert [str(t) for t in sigs["W"].arg_types] == ["Int", "Int", "Node"]
    # after the branch: havoc(x); assume(W(in, $t, x))
    flat = list(stmts_of(q))
    w_assumes = [s for s in flat if isinstance(s, AssumePred) and s.pred == "W"]
    assert len(w_assumes) == 1
    assert w_assumes[0].args == [Var("in"), Var("$t"), Var("x")]


def test_rw_alloc_also_records_write():
    e = enc_rw(parse_and_check(SINGLE_READ))
    flat = list(stmts_of(e.program))
    w_asserts = [s for s in flat if isinstance(s, AssertPred) and s.pred == "W"]
    # initialisation + the alloc record
    assert len(w_asserts) == 2


# ---------------------------------------------------------------------------
# rwfun / rwmem


def test_rwfun_requires_acknowledgement():
    p = parse_and_check(SINGLE_READ)
    with pytest.raises(EncodingError):
        encode(p, EncodingConfig(base="rwfun"))


def test_rwfun_alloc_is_counters_only():
    e = enc_rwfun(parse_and_check(SINGLE_READ))
    q = e.program
    body = q.body.stmts
    assert [s.target for s in body[:4]] == ["$cnt_alloc", "$cnt", "$cnt_last", "$t"]
    assert not any(isinstance(s, AssertPred) and s.pred == "W"
                   for s in stmts_of(q))
    # alloc encodes to exactly: bump, assign
    assert body[4] == Assign("$cnt_alloc", Binary("+", Var("$cnt_alloc"), IntLit(1)))
    assert body[5] == Assign("p", Var("$cnt_alloc"))
    assert isinstance(body[6], Assign) and body[6].target == "$cnt"


def test_rwfun_init_write_adjustment_flag():
    e = enc_rwfun(parse_and_check(SINGLE_READ), alloc_init_write=True)
    assert any(isinstance(s, AssertPred) and s.pred == "W"
               for s in stmts_of(e.program))


def test_rwmem_read_prefixed_with_validity_assert():
    e = enc_rwmem(parse_and_check(SINGLE_READ))
    flat = list(stmts_of(e.program))
    idx = next(i for i, s in enumerate(flat)
               if isinstance(s, AssertExpr)
               and isinstance(s.expr, Binary) and s.expr.op == "&&")
    a = flat[idx]
    assert a.expr == Binary("&&", Binary("<", IntLit(0), Var("p")),
                            Binary("<=", Var("p"), Var("$cnt_alloc")))


def test_rwmem_invalid_write_asserts_false():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      write(p, node(2, null));
    }"""
    e = enc_rwmem(parse_and_check(src))
    guard = next(s for s in stmts_of(e.program)
                 if isinstance(s, If) and s.els.stmts)
    assert guard.els.stmts == (AssertExpr(IntLit(0)),)


def test_rwmem_strip_asserts_drops_source_checks():
    e = enc_rwmem(parse_and_check(SINGLE_READ), strip_asserts=True)
    exprs = [s for s in stmts_of(e.program) if isinstance(s, AssertExpr)]
    # only the validity assert survives
    assert len(exprs) == 1 and isinstance(exprs[0].expr, Binary)


def test_rwmem_flags_invalid_read_rwfun_does_not(corpus, domain):
    entry = next(e for e in corpus if e.name == "null-read-default")
    p = entry.load()
    assert check_safety(enc_rwmem(p).program, domain).kind == "unsafe"
    assert check_safety(enc_rwfun(p).program, domain).kind == "safe"


# ---------------------------------------------------------------------------
# tagging


def read_at_location_seven():
    # pad with assignments so the read statement lands at location 7
    return parse_and_check("""prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      var x: Node;
      var i: Int;
      i := 1;
      i := 2;
      i := 3;
      i := 4;
      i := 5;
      p := alloc(node(1, null));
      x := read(p);
    }""")


def test_tagged_read_carries_location_arguments():
    p = read_at_location_seven()
    e = enc_r(p, tagging=True)
    assumes = [s for s in stmts_of(e.program)
               if isinstance(s, AssumePred) and s.pred == "R"]
    assert assumes[0].args == [Var("in"), Var("$cnt"), Var("x"),
                               Var("$l"), IntLit(7)]
    asserts = [s for s in stmts_of(e.program)
               if isinstance(s, AssertPred) and s.pred == "R"]
    assert asserts[0].args == [Var("in"), Var("$cnt"), Var("$last"),
                               Var("$last_loc"), IntLit(7)]


def test_tagged_write_records_location():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      var i: Int;
      i := 0;
      i := 1;
      i := 2;
      write(p, node(1, null));
    }"""
    p = parse_and_check(src)
    e = enc_r(p, tagging=True)
    track = next(s for s in stmts_of(e.program)
                 if isinstance(s, If) and any(
                     isinstance(c, Assign) and c.target == "$last_loc"
                     for c in s.then.stmts))
    locs = [c for c in track.then.stmts
            if isinstance(c, Assign) and c.target == "$last_loc"]
    assert locs == [Assign("$last_loc", IntLit(4))]


def test_each_occurrence_of_a_shared_statement_gets_its_own_tag():
    # a program built in code may hold one statement object twice: each
    # occurrence is tagged with its own location, as in the printed program
    p = parse_and_check("""prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr;
      p := alloc(node(1, null));
      write(p, node(2, null));
    }""")
    alloc, w = p.body.stmts
    q = replace(p, body=Block((alloc, w, w)))
    reparsed = parse_and_check(pretty_print(q))
    for enc in (enc_r, enc_rw):
        assert pretty_print(enc(q, tagging=True).program) == \
            pretty_print(enc(reparsed, tagging=True).program), enc
    # r records a write's location in $last_loc, rw on its W assertion
    assert [s.expr for s in stmts_of(enc_r(q, tagging=True).program)
            if isinstance(s, Assign) and s.target == "$last_loc"] == \
        [IntLit(0), IntLit(1), IntLit(2), IntLit(3)]
    assert progen.heap_tags(q) == [1, 2, 3]


def test_rw_tagging_adds_one_write_location():
    e = enc_rw(parse_and_check(SINGLE_READ), tagging=True)
    sigs = e.program.preds_by_name()
    assert len(sigs["R"].arg_types) == 5
    assert len(sigs["W"].arg_types) == 4


def test_apply_tagging_reencodes():
    e = enc_r(parse_and_check(SINGLE_READ))
    t = encode(e.source, replace(e.config, tagging=True))
    assert t.config.tagging
    assert t.program == enc_r(parse_and_check(SINGLE_READ), tagging=True).program


# ---------------------------------------------------------------------------
# caching


def test_cached_read_wraps_core_logic():
    e = enc_r(parse_and_check(SINGLE_READ), caching=True)
    q = e.program
    cache_if = next(s for s in stmts_of(q)
                    if isinstance(s, If)
                    and s.cond == Binary("=", Var("$lastc_addr"), Var("p")))
    assert cache_if.then.stmts == (Assign("x", Var("$lastc_data")),)
    tail = cache_if.els.stmts[-2:]
    assert tail == (Assign("$lastc_addr", Var("p")),
                    Assign("$lastc_data", Var("x")))


def test_cache_hit_skips_predicate_logic(corpus, domain):
    entry = next(e for e in corpus if e.name == "double-read-consistent")
    p = entry.load()
    from heapinv.fixpoint import least_fixpoint
    plain = least_fixpoint(enc_r(p).program, domain)
    cached = least_fixpoint(enc_r(p, caching=True).program, domain)
    # the second read is served by the cache: one tracked tuple per input
    lo, hi = domain.in_range
    per_input = hi - lo + 1
    assert len(plain.tuples("R")) == 2 * per_input
    assert len(cached.tuples("R")) == per_input


def test_cache_serves_written_value(corpus, domain):
    entry = next(e for e in corpus if e.name == "overwrite-last-wins")
    p = entry.load()
    v = check_safety(enc_r(p, caching=True).program, domain)
    assert v.kind == "safe"


def test_extension_order_is_immaterial():
    p = parse_and_check(SINGLE_READ)
    both = encode(p, EncodingConfig(base="r", tagging=True, caching=True))
    # adding the other extension to either single one gives the same program
    for single in (enc_r(p, tagging=True), enc_r(p, caching=True)):
        again = encode(single.source,
                       replace(single.config, tagging=True, caching=True))
        assert again.program == both.program
    d = InputDomain()
    assert check_safety(both.program, d).kind == \
        check_safety(enc_r(p).program, d).kind


# ---------------------------------------------------------------------------
# scope variables and argument removal


def test_scope_vars_appended_everywhere():
    src = SINGLE_READ.replace("var x: Node;", "var x: Node;\n  var i: Int;")
    e = enc_r(parse_and_check(src), scope_vars=("i",))
    q = e.program
    for s in stmts_of(q):
        if isinstance(s, (AssertPred, AssumePred)) and s.pred == "R":
            assert s.args[-1] == Var("i")
    assert len(q.preds_by_name()["R"].arg_types) == 4


# the scope variable k changes between the write and the read of p
SCOPE_CHANGES_AFTER_WRITE = """prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Node;
  input in; seed seed; var p: Addr; var x: Node; var k: Int;
  k := 0;
  p := alloc(node(1, null));
  k := 1;
  x := read(p);
  assert(data(x) = 2);
}"""


def scope_var_cases(seeds=(51, 106)):
    """Programs and scope variables that change between a write and a
    read: the program above, and the progen programs of the seeds (51 is
    unsafe, 106 inconclusive) with their drawn Int variables."""
    yield "changed-after-write", parse_and_check(SCOPE_CHANGES_AFTER_WRITE), \
        ("k",)
    for seed in seeds:
        p = progen.gen_program(seed, allow_havoc=True)
        drawn = {s.target for s in stmts_of(p) if isinstance(s, HavocStmt)}
        yield f"progen {seed}", p, tuple(sorted(drawn))


def check_scoped_verdicts(base: str, seeds=(51, 106)) -> None:
    for label, p, names in scope_var_cases(seeds):
        e = encode(p, EncodingConfig(base=base, scope_vars=names))
        res = check_equisafety(p, e.program, InputDomain())
        assert res.agree, (label, res.verdict_left.kind,
                           res.verdict_right.kind)


@pytest.mark.parametrize("base", ["r", "rw"])
def test_scope_vars_keep_the_verdict(base):
    # scope variables go on R only: on W, a read would look for the
    # values at the read among the tuples written with the values at the
    # write, and miss the failure after it
    check_scoped_verdicts(base)
    label, p, names = next(scope_var_cases())
    plain = encode(p, EncodingConfig(base=base)).program
    scoped = encode(p, EncodingConfig(base=base, scope_vars=names)).program
    arity = {d.name: len(d.arg_types) for d in plain.preds}
    assert {d.name: len(d.arg_types) for d in scoped.preds} == \
        dict(arity, R=arity["R"] + len(names))


# The extension passes the encoder replaced, kept as the reference for its
# one pass: each rebuilt the encoded program and checked it again.  Scope variables were appended to R, and then the
# removed positions (counting them) left R, W and the source predicates.


def ref_rewrite_pred_args(enc, preds, args, types, what):
    prog = enc.program

    def tx(s):
        if isinstance(s, (AssumePred, AssertPred)) and s.pred in preds:
            return [type(s)(s.pred, args(s.pred, s.args), pos=s.pos)]
        return [s]

    decls = [PredDecl(p.name, types(p.name, p.arg_types))
             if p.name in preds else p for p in prog.preds]
    out = replace(prog, preds=decls, body=map_statements(prog.body, tx))
    diags = typecheck(out)
    if diags:
        raise AssertionError(f"{what} broke typing: {diags[0]}")
    return EncodedProgram(out, enc.source, enc.config)


def ref_apply_scope_vars(enc, names):
    if not names:
        return enc
    prog = enc.program
    for nm in names:
        ty = prog.var_types.get(nm)
        if ty is None:
            raise EncodingError(f"unknown scope variable {nm!r}")
        if ty != INT:
            raise EncodingError(
                f"scope variable {nm!r} must have type Int, has {ty}")
    return ref_rewrite_pred_args(
        enc, {"R"},
        lambda _, xs: list(xs) + [Var(nm) for nm in names],
        lambda _, tys: list(tys) + [INT] * len(names),
        "scope augmentation")


def ref_remove_arguments(enc, drop):
    if not drop:
        return enc
    by_pred = {}
    decl = {p.name: p for p in enc.program.preds}
    for pred, idxs in drop.items():
        if pred not in decl:
            raise EncodingError(f"unknown predicate {pred!r}")
        arity = len(decl[pred].arg_types)
        for i in idxs:
            if not (0 <= i < arity):
                raise EncodingError(
                    f"argument index {i} out of range for {pred!r}/{arity}")
        by_pred[pred] = set(idxs)

    def keep(pred, xs):
        return [x for i, x in enumerate(xs) if i not in by_pred[pred]]

    return ref_rewrite_pred_args(enc, set(by_pred), keep, keep,
                                 "argument removal")


def ref_encode(program, config):
    """The encoding without its scope variables and removed positions,
    followed by the reference passes that add and remove them."""
    plain = encode(program, replace(config, scope_vars=(), drop_args=()))
    enc = EncodedProgram(plain.program, plain.source, config)
    enc = ref_apply_scope_vars(enc, list(config.scope_vars))
    drop = {}
    for pred, idx in config.drop_args:
        drop.setdefault(pred, []).append(idx)
    return ref_remove_arguments(enc, drop)


def encoding_outcome(encoder, program, config):
    """What a test can see of an encoding: its printed program and
    SMT-LIB text, every statement's position, its predicate declarations,
    variables and config; or the refusal's message."""
    try:
        enc = encoder(program, config)
    except EncodingError as exc:
        return "refused", str(exc)
    q = enc.program
    return (pretty_print(q), emit_smtlib(to_chc(q)),
            [s.pos for s in walk_statements(q.body)],
            [(d.name, d.arg_types) for d in q.preds],
            list(q.var_types.items()), enc.config)


def one_pass_programs():
    """The corpus programs, and progen programs, which declare a source
    predicate P."""
    for entry in load_corpus():
        yield entry.name, entry.load()
    for seed in range(4):
        yield f"progen {seed}", progen.gen_program(seed, allow_havoc=True)


ONE_PASS_BASES = [EncodingConfig(base="r"), EncodingConfig(base="rw"),
                  EncodingConfig(base="rwfun", assume_memsafe=True),
                  EncodingConfig(base="rwmem")]


def one_pass_cases(programs):
    """Every program under every base, with and without tagging and
    caching, with each scope set, and with the next removal set in turn:
    the n-th case takes removal set n mod 7, so across the cases each
    scope set meets each removal set under every base."""
    n = 0
    for label, program in programs:
        inp = program.input_var
        objs = [v for v, ty in program.var_types.items() if ty.kind == "Obj"]
        scopes = [(), (inp,), ("$cnt", inp), (inp, inp), ("nosuch",),
                  tuple(objs[:1])]
        for base in ONE_PASS_BASES:
            for tagging in (False, True):
                # R's first scope position, after the two tag arguments
                first_scope = 5 if tagging else 3
                drops = [(), (("R", 0),), (("R", first_scope),), (("W", 0),),
                         (("P", 0),), (("R", 9),),
                         (("R", 1), ("W", 2), ("R", 1))]
                for caching in (False, True):
                    for scope in scopes:
                        yield label, program, replace(
                            base, tagging=tagging, caching=caching,
                            scope_vars=scope, drop_args=drops[n % 7])
                        n += 1


def check_one_pass(cases):
    """One-pass ``encode`` against the plain encoding followed by the
    reference passes: the same outcome for every (program, config)."""
    for label, program, config in cases:
        assert encoding_outcome(encode, program, config) == \
            encoding_outcome(ref_encode, program, config), (label, config)


def test_one_pass_encoding_matches_the_reference_passes():
    check_one_pass(one_pass_cases(one_pass_programs()))


def test_scope_vars_empty_is_identity():
    p = parse_and_check(SINGLE_READ)
    check_one_pass(("single-read", p, replace(c, drop_args=(("R", 1),)))
                   for c in ONE_PASS_BASES)


def test_scope_vars_unknown_or_ill_typed():
    p = parse_and_check(SINGLE_READ)
    with pytest.raises(EncodingError, match="unknown scope variable"):
        enc_r(p, scope_vars=("nosuch",))
    with pytest.raises(EncodingError, match="must have type Int"):
        enc_r(p, scope_vars=("x",))  # object-typed


def test_remove_arguments_everywhere():
    q = enc_r(parse_and_check(SINGLE_READ), drop_args=(("R", 1),)).program
    assert len(q.preds_by_name()["R"].arg_types) == 2
    for s in stmts_of(q):
        if isinstance(s, (AssertPred, AssumePred)) and s.pred == "R":
            assert len(s.args) == 2
            assert s.args[0] == Var("in")


def test_remove_arguments_validates_indices():
    p = parse_and_check(SINGLE_READ)
    with pytest.raises(EncodingError,
                       match=r"argument index 7 out of range for 'R'/3"):
        enc_r(p, drop_args=(("R", 7),))
    with pytest.raises(EncodingError, match="unknown predicate 'Z'"):
        enc_r(p, drop_args=(("Z", 0),))


def test_remove_nothing_is_identity():
    p = parse_and_check(SINGLE_READ)
    check_one_pass(("single-read", p, replace(c, scope_vars=("in",)))
                   for c in ONE_PASS_BASES)


def test_removed_index_counts_the_scope_arguments():
    p = parse_and_check(SINGLE_READ)
    assert enc_r(p, scope_vars=("in",), drop_args=(("R", 3),)).program == \
        enc_r(p).program


# ---------------------------------------------------------------------------
# name hygiene


def test_no_capture_of_user_variables():
    # a user variable named like a selector or close to introduced names
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var cnt: Int;
      var last: Node;
      var p: Addr;
      cnt := 3;
      p := alloc(node(cnt, null));
      last := read(p);
      assert(data(last) = 3);
    }"""
    p = parse_and_check(src)
    e = enc_r(p)
    assert "$cnt" in e.program.var_types and "cnt" in e.program.var_types
    d = InputDomain()
    assert check_equisafety(p, e.program, d).agree


def test_determinism_precondition_demonstrated():
    # completeness needs every execution pinned down by the predicate's
    # input argument; a source-level draw that the assertion depends on
    # makes the read relation mix values across executions, producing a
    # spurious refutation in the encoding
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr; var x: Node; var k: Int;
      havoc(k);
      assume(0 <= k && k <= 1);
      p := alloc(node(k, null));
      x := read(p);
      assert(data(x) = k);
    }"""
    p = parse_and_check(src)
    d = InputDomain()
    assert check_safety(p, d).kind == "safe"
    for enc in (enc_r, enc_rw):
        assert check_safety(enc(p).program, d).kind == "unsafe", enc


def test_rwmem_with_cache_still_flags_invalid_reads(corpus, domain):
    # a cache hit must not bypass the validity check
    entry = next(e for e in corpus if e.name == "null-read-default")
    p = entry.load()
    encoded = enc_rwmem(p, caching=True).program
    assert check_safety(encoded, domain).kind == "unsafe"


# ---------------------------------------------------------------------------
# transformations build new programs


def fields_and_positions(x):
    """``x`` as nested tuples of each node's class, fields and positions,
    so that two programs compare equal only if they match field by field,
    positions included."""
    if isinstance(x, Struct):
        return (type(x).__name__,) + tuple(
            fields_and_positions(getattr(x, f)) for f in x._fields + x._meta)
    if type(x) in (list, tuple):
        return tuple(fields_and_positions(y) for y in x)
    if type(x) is dict:
        return tuple((k, fields_and_positions(v)) for k, v in x.items())
    return x


def transformed(entry, source) -> list:
    """The printed output of every transformation of the source: each
    registry variant it is eligible for (None when not), the havoc
    expansion, the budget instrumentation, and ``r`` with a scope variable
    and with a removed position."""
    out = [encode_variant(entry, source, variant) for variant in VARIANTS]
    out += [expand_program_havocs(source), enc_n(source),
            enc_r(source, scope_vars=(source.input_var,)).program,
            enc_r(source, drop_args=(("R", 0),)).program]
    return [None if p is None else pretty_print(p) for p in out]


def test_transformations_leave_their_input_alone(corpus):
    # the transformations share the statements and expressions that they
    # leave unchanged with their input: none may change one in place
    for entry in corpus:
        source = entry.load()
        printed = transformed(entry, source)
        assert fields_and_positions(source) == \
            fields_and_positions(entry.load()), entry.name
        # encoding the source again prints the same
        assert transformed(entry, source) == printed, entry.name


# A havoc of an ADT with several constructors around one with several: the
# corpus havocs Int variables only.
OBJ_HAVOC = """prog {
  adt In { a(v: Int); b(); }
  adt Out { o1(i: In); o2(w: Int); o3(); }
  heaptype Out;
  seed seed;
  var o: Out;
  havoc(o);
}"""


def test_parsing_and_encoding_leave_no_cyclic_garbage(corpus):
    # with the cyclic collector off, parsing a program and encoding it
    # under every variant leave nothing for the collector: a cycle would
    # keep each transformation's working state alive until it runs
    gc.collect()
    gc.disable()
    try:
        for entry in corpus:
            source = entry.load()
            for variant in VARIANTS:
                encode_variant(entry, source, variant)
            expand_program_havocs(source)
        expand_program_havocs(parse_and_check(OBJ_HAVOC))
        assert gc.collect() == 0
    finally:
        gc.enable()


GOLDEN_ENCODINGS = pathlib.Path(__file__).parent / "golden" / "encodings.json"


def encoding_digests() -> dict[str, str]:
    """sha256 of the printed encoding of every corpus entry under every
    registry variant it is eligible for, keyed ``entry/variant``."""
    out = {}
    for entry in load_corpus():
        for variant in VARIANTS:
            encoded = encode_variant(entry, entry.load(), variant)
            if encoded is not None:
                text = pretty_print(encoded).encode("utf-8")
                out[f"{entry.name}/{variant}"] = hashlib.sha256(text).hexdigest()
    return out


def test_encodings_match_golden():
    # pins the encoder's output for all registry variants, as recorded in
    # tests/golden/encodings.json
    want = json.loads(GOLDEN_ENCODINGS.read_text(encoding="utf-8"))
    assert encoding_digests() == want
