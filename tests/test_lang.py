import re
from functools import lru_cache, partial
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from heapinv.cli import EXIT_ERROR, main
from heapinv.lang import (
    Assign, AssertPred, Binary, Block, IntLit, Read, SourceError, Var,
    While, Write, assign_locations, parse_and_check, parse_program,
    pretty_print, typecheck,
)
from heapinv.interp import CompiledProgram, ObjVal, TOP, draw_code

import progen
from progen import expand_program_havocs, statement_locations


def test_minimal_program():
    p = parse_program("prog { var x: Int; x := 0; }")
    assert isinstance(p.body.stmts[0], Assign)
    assert p.body.stmts[0].target == "x"
    assert p.body.stmts[0].expr == IntLit(0)


def test_addr_arithmetic_rejected():
    p = parse_program("prog { var p: Addr; p := p + 1; }")
    diags = typecheck(p)
    assert any("arithmetic on Addr" in d.message for d in diags)


def test_arity_mismatch_diagnostic():
    p = parse_program("prog { pred P(Int, Int, Int); assert(P(1, 2)); }")
    diags = typecheck(p)
    assert any("arity mismatch" in d.message for d in diags)


def test_type_mismatch_assign():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var x: Int;
      x := defObj;
    }"""
    diags = typecheck(parse_program(src))
    assert any("type mismatch" in d.message for d in diags)


def test_checker_continues_past_first_error():
    src = "prog { var p: Addr; p := p + 1; p := p - 1; }"
    diags = typecheck(parse_program(src))
    assert len(diags) >= 2


def test_syntax_error_position():
    with pytest.raises(SourceError) as exc:
        parse_program("prog {\n  var x Int;\n}")
    assert exc.value.line == 2
    assert "expected" in exc.value.message


def test_duplicate_declarations_rejected():
    for src in [
        "prog { var x: Int; var x: Int; }",
        "prog { pred P(Int); pred P(Int); }",
        "prog { adt A { a(v: Int); } adt A { b(w: Int); } }",
        "prog { adt A { a(v: Int); b(v: Int); } }",
    ]:
        with pytest.raises(SourceError):
            parse_program(src)


def test_unknown_identifier_in_call():
    with pytest.raises(SourceError) as exc:
        parse_program("prog { var x: Int; x := foo(1); }")
    assert "unknown identifier" in exc.value.message


def test_reserved_failure_predicate():
    with pytest.raises(SourceError):
        parse_program("prog { pred F(); }")


def test_recursive_adt_rejected():
    src = "prog { adt N { mk(v: Int, rest: N); } }"
    diags = typecheck(parse_program(src))
    assert any("recursive" in d.message for d in diags)


MUTUALLY_RECURSIVE_ADTS = """prog {
  adt A { a(x: B); }
  adt B { b(y: A); }
}"""

# a field, a predicate argument and a variable of undeclared types
UNDECLARED_TYPES = """prog {
  adt Node { node(data: Int, next: Cell); }
  pred P(Int, Obj);
  var n: Tree;
}"""

UNDECLARED_HEAPTYPE = """prog {
  adt Node { node(data: Int); }
  heaptype Cell;
}"""

# every statement but the declarations is ill-typed
ILL_TYPED_HEAP = """prog {
  adt Node { node(data: Int, next: Addr); }
  adt Pair { pair(l: Addr); }
  heaptype Node;
  pred P(Int);
  seed seed;
  var p: Addr; var k: Int; var n: Node; var q: Pair;
  k := alloc(defObj);
  p := alloc(7);
  n := read(k);
  k := read(p);
  assert(P(p));
  havoc(q);
}"""


# recursive through the heap type, named by the bare Obj shorthand
RECURSIVE_THROUGH_BARE_OBJ = """prog {
  adt Node { node(d: Int, nx: Obj); }
  heaptype Node;
}"""

NONDET_WITHOUT_SEED = """prog {
  input in;
  var x: Int;
  nondet(x);
  assert(x = x);
}"""

# a bare Obj field of another adt is the heap type
BARE_OBJ_FIELD = """prog {
  adt Box { box(v: Obj); }
  adt Node { node(d: Int); }
  heaptype Node;
  input in;
  seed seed;
  var b: Box; var p: Addr; var n: Node;
  p := alloc(node(in));
  n := read(p);
  b := box(n);
  n := v(b);
  assert(d(n) = in);
}"""


def test_recursion_through_another_adt_rejected():
    diags = typecheck(parse_program(MUTUALLY_RECURSIVE_ADTS))
    assert [(d.line, d.message) for d in diags] == [
        (2, "adt 'A' is recursive through field 'x'"),
        (3, "adt 'B' is recursive through field 'y'")]


def test_declaration_type_errors_point_at_the_declaration():
    diags = typecheck(parse_program(UNDECLARED_TYPES))
    assert [(d.line, d.col, d.message) for d in diags] == [
        (2, 36, "field 'next' of 'node': unknown adt 'Cell'"),
        (3, 15, "argument 1 of predicate 'P': bare Obj type needs a "
                "heaptype declaration"),
        (4, 10, "variable 'n': unknown adt 'Tree'")]
    diags = typecheck(parse_program(UNDECLARED_HEAPTYPE))
    assert [(d.line, d.col, d.message) for d in diags] == [
        (3, 12, "heaptype 'Cell' is not a declared adt")]


def test_bare_obj_field_is_the_heap_type(capsys, tmp_path):
    diags = typecheck(parse_program(RECURSIVE_THROUGH_BARE_OBJ))
    assert [(d.line, d.col, d.message) for d in diags] == [
        (2, 7, "adt 'Node' is recursive through field 'nx'")]
    p = parse_and_check(BARE_OBJ_FIELD)
    assert p.adts[0].ctors[0].fields[0][1] == p.var_types["n"]
    ok = tmp_path / "box.up"
    ok.write_text(BARE_OBJ_FIELD)
    for argv in (["fixpoint", str(ok)], ["run", str(ok), "--in", "3"],
                 ["emit-chc", "--enc", "r", str(ok)]):
        assert main(argv) == 0, argv
    out, err = capsys.readouterr()
    assert err == ""
    assert "verdict: safe" in out
    assert '"b": {"ctor": "box", "fields": [{"ctor": "node", "fields": [3]}]}' in out
    assert "((box (v Node)))" in out


# declarations for one statement at line 6
EXPR_DECLS = """prog {
  adt Node { node(data: Int, next: Addr); }
  adt Pair { pair(l: Int); }
  heaptype Node;
  var p: Addr; var k: Int; var n: Node; var q: Pair;
"""


# one ill-typed statement under EXPR_DECLS: its column and its message
EXPR_TYPE_ERRORS = [
    ("k := -p;", 8, "arithmetic on Addr"),
    ("k := -n;", 8, "unary '-' needs an Int operand, got Node"),
    ("k := p + 1;", 10, "arithmetic on Addr"),
    ("k := n * 2;", 10, "operator '*' needs Int operands, got Node"),
    ("k := (k = p);", 11, "cannot compare Int with Addr"),
    ("n := node(1);", 8, "constructor 'node' expects 2 arguments, got 1"),
    ("n := node(p, null);", 8, "field 'data' of 'node' expects Int, got Addr"),
    ("k := data(q);", 8, "selector 'data' applies to Node, got Pair"),
    ("k := is_node(q);", 8, "tester is_node applies to Node, got Pair"),
    ("if (n) { skip; }", 7, "condition must have type Int, has Node"),
    ("while (q) { skip; }", 10, "condition must have type Int, has Pair"),
    ("k := z;", 8, "undeclared variable 'z'"),
]


@pytest.mark.parametrize("stmt, col, message", EXPR_TYPE_ERRORS)
def test_expression_type_errors(stmt, col, message):
    diags = typecheck(parse_program(f"{EXPR_DECLS}  {stmt}\n}}"))
    assert [(d.line, d.col, d.message) for d in diags] == [(6, col, message)]


def test_heap_statement_and_argument_types_rejected():
    diags = typecheck(parse_program(ILL_TYPED_HEAP))
    assert [(d.line, d.message) for d in diags] == [
        (8, "alloc target 'k' must have type Addr, has Int"),
        (9, "alloc operand must be a heap object"),
        (10, "read address 'k' must have type Addr, has Int"),
        (11, "read target 'k' must be a heap object"),
        (12, "type mismatch in argument of 'P': expected Int, got Addr"),
        (13, "cannot havoc 'q': adt 'Pair' has Addr fields")]


# the ill-typed programs above
ILL_TYPED_SOURCES = {
    "mutually-recursive-adts": MUTUALLY_RECURSIVE_ADTS,
    "ill-typed-heap": ILL_TYPED_HEAP,
    "undeclared-types": UNDECLARED_TYPES,
    "undeclared-heaptype": UNDECLARED_HEAPTYPE,
    "recursive-through-bare-obj": RECURSIVE_THROUGH_BARE_OBJ,
    "nondet-without-seed": NONDET_WITHOUT_SEED,
}


@pytest.mark.parametrize("src", ILL_TYPED_SOURCES.values(),
                         ids=ILL_TYPED_SOURCES)
def test_cli_lists_type_errors_with_positions(capsys, tmp_path, src):
    bad = tmp_path / "bad.up"
    bad.write_text(src)
    assert main(["fixpoint", str(bad)]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    *diags, last = err.splitlines()
    # every diagnostic has a position in the file: lines and columns
    # count from 1
    assert diags and all(
        re.match(rf"{re.escape(str(bad))}:[1-9]\d*:[1-9]\d*: ", line)
        for line in diags), err
    assert last == f"error: {bad}: {len(diags)} type error(s)"


def test_skip_prints_as_skip():
    p = parse_program("prog { skip; }")
    assert "  skip;" in pretty_print(p).splitlines()


GOLDEN = """prog {
  adt Node {
    node(data: Int, next: Addr);
  }
  heaptype Node;
  pred P(Int);
  input in;
  seed seed;
  var p: Addr;
  var x: Node;
  var i: Int;
  p := alloc(node(1, null));
  i := 0;
  while (i < in) {
    if (i % 2 = 0) {
      write(p, node(2, null));
    } else {
      x := read(p);
      assert(P(data(x)));
    }
    i := i + 1;
  }
}
"""


def test_golden_print_is_stable():
    # canonical text reproduces byte for byte through parse -> print
    assert pretty_print(parse_program(GOLDEN)) == GOLDEN


def test_print_parse_inverse_on_image():
    p = parse_program(GOLDEN)
    text = pretty_print(p)
    assert pretty_print(parse_program(text)) == text


def test_nested_indentation_two_spaces():
    lines = GOLDEN.splitlines()
    assert "    if (i % 2 = 0) {" in lines
    assert "      write(p, node(2, null));" in lines


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_structural_sample(seed):
    p = progen.gen_program(seed, allow_havoc=True, allow_pair_adt=True)
    assert parse_program(pretty_print(p)) == p


def test_roundtrip_thousand_programs():
    # the full property: parse o print is the identity on generated programs
    for seed in range(1000):
        p = progen.gen_program(seed, allow_havoc=(seed % 7 == 0),
                               allow_pair_adt=(seed % 3 == 0))
        assert parse_program(pretty_print(p)) == p, f"seed {seed}"


def test_operator_precedence_roundtrip():
    src = "prog { var i: Int; i := 1 + 2 * 3 - (4 - 5) - 6; i := (1 + 2) * 3; }"
    p = parse_program(src)
    assert parse_program(pretty_print(p)) == p
    cp = CompiledProgram(p)
    res = cp.run()
    assert res.env["i"] == 9


def test_locations_consecutive():
    p = parse_program("prog { var x: Int; x := 0; x := 1; x := 2; }")
    assert statement_locations(p) == [1, 2, 3]


def test_locations_idempotent_and_unique():
    for seed in range(30):
        p = progen.gen_program(seed)
        locs = statement_locations(p)
        assert locs == list(range(1, len(locs) + 1))
        assign_locations(p)
        assert statement_locations(p) == locs


def test_preorder_write_before_read():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var p: Addr; var x: Node;
      write(p, defObj);
      x := read(p);
    }"""
    p = parse_program(src)
    w = next(s for s in p.body.stmts if isinstance(s, Write))
    r = next(s for s in p.body.stmts if isinstance(s, Read))
    assert w.loc < r.loc


def test_blocks_carry_no_location():
    p = parse_program("prog { var i: Int; if (1) { i := 1; i := 2; } }")
    assert statement_locations(p) == [1, 2, 3]  # if, then the two assigns


def test_mutation_flips_accept_to_reject():
    # injecting a single violation into a well-typed program must be caught
    for seed in range(20):
        p = progen.gen_program(seed)
        assert typecheck(p) == []
        mutated = parse_program(pretty_print(p))
        mutated.body = Block(
            (Assign("p", Binary("+", Var("p"), IntLit(1))),) + mutated.body.stmts)
        assert typecheck(mutated), "Addr arithmetic not rejected"

        mutated2 = parse_program(pretty_print(p))
        mutated2.body = Block(
            mutated2.body.stmts + (AssertPred("P", [IntLit(1), IntLit(2)]),))
        assert typecheck(mutated2), "arity mismatch not rejected"


# ---------------------------------------------------------------------------
# the havoc macro


def expand_single_havoc():
    p = parse_and_check("prog { seed seed; var x: Int; havoc(x); }")
    return p, expand_program_havocs(p)


def test_havoc_expansion_shape():
    p, expanded = expand_single_havoc()
    stmts = expanded.body.stmts
    # x := -(seed % 2); seed := seed / 2; while (...) {...}; seed := seed / 2
    inner = stmts[0].stmts if isinstance(stmts[0], Block) else stmts
    assert isinstance(inner[0], Assign) and inner[0].target == "x"
    assert isinstance(inner[1], Assign) and inner[1].target == "seed"
    assert isinstance(inner[2], While)
    assert len(inner[2].body.stmts) == 3
    assert isinstance(inner[3], Assign) and inner[3].target == "seed"


def brute_force_macro_table(limit: int):
    """Reference value table computed by interpreting the expanded macro."""
    _, expanded = expand_single_havoc()
    cp = CompiledProgram(expanded)
    table = {}
    for s in range(limit):
        res = cp.run(inputs={"seed": s}, loop_fuel=256)
        assert res.outcome == TOP
        table[s] = (res.env["x"], res.env["seed"])
    return table


def test_havoc_seed_zero():
    table = brute_force_macro_table(1)
    assert table[0] == (0, 0)


def test_havoc_seed_table_native_matches_macro():
    table = brute_force_macro_table(64)
    p = parse_and_check("prog { seed seed; var x: Int; havoc(x); }")
    cp = CompiledProgram(p)
    for s, (x, seed_after) in table.items():
        res = cp.run(inputs={"seed": s}, loop_fuel=256)
        assert (res.env["x"], res.env["seed"]) == (x, seed_after), f"seed {s}"


def test_havoc_of_addr_rejected():
    p = parse_program("prog { seed seed; var p: Addr; havoc(p); }")
    assert typecheck(p)


def test_havoc_without_seed_rejected():
    p = parse_program("prog { var x: Int; havoc(x); }")
    assert any("seed" in d.message for d in typecheck(p))


# ADT declarations of the havoced variable ``o: Out``
HAVOC_SHAPES = {
    "single-ctor": "adt Out { mk(fst: Int, snd: Int); }",
    "multi-ctor": "adt Out { mk(fst: Int, snd: Int); unit(tag: Int); }",
    "nested-single-ctor": "adt In { inn(v: Int); } "
                          "adt Out { outer(i: In, w: Int); }",
    "nested-multi-ctor": "adt In { a(v: Int); b(); } "
                         "adt Out { outer(i: In, w: Int); }",
    "multi-around-nested-multi": "adt In { a(v: Int); b(); } "
                                 "adt Out { o1(i: In); o2(w: Int); o3(); }",
}


@pytest.mark.parametrize("adts", HAVOC_SHAPES.values(), ids=HAVOC_SHAPES)
def test_havoc_obj_multi_ctor(adts):
    # the expansion draws the same value as the native havoc, seed by seed
    src = f"""prog {{
      {adts}
      heaptype Out;
      seed seed;
      var o: Out;
      havoc(o);
    }}"""
    p = parse_and_check(src)
    expanded = expand_program_havocs(p)
    assert typecheck(expanded) == []
    cn, ce = CompiledProgram(p), CompiledProgram(expanded)
    for s in range(1024):
        rn, re_ = cn.run(inputs={"seed": s}), ce.run(inputs={"seed": s})
        assert rn.outcome == re_.outcome
        if rn.outcome == TOP:
            assert rn.env["o"] == re_.env["o"], f"seed {s}"
    ctors = {cn.run(inputs={"seed": s}).env["o"].ctor for s in range(64)}
    assert len(ctors) == len(p.adts_by_name()["Out"].ctors)


# the drawn types of the round-trip test: Int, and ``Out`` of each shape
DRAWN_TYPES = {"Int": "", **HAVOC_SHAPES}


@lru_cache(maxsize=None)
def draw_programs(shape: str, count: int):
    """A program that draws ``count`` values of the shape's type in turn,
    compiled in heap mode, in trace mode and with ``expand_havoc``'s
    expansion of its draws; and the type with its ADTs."""
    ty = "Int" if shape == "Int" else "Out"
    heaptype = "" if shape == "Int" else "heaptype Out;"
    p = parse_and_check(
        f"prog {{ {DRAWN_TYPES[shape]} {heaptype} seed seed; "
        + "".join(f"var x{i}: {ty}; " for i in range(count))
        + "".join(f"havoc(x{i}); " for i in range(count)) + "}")
    return (CompiledProgram(p), CompiledProgram(p, mode="trace"),
            CompiledProgram(expand_program_havocs(p)),
            p.var_types["x0"], p.adts_by_name())


def drawn_values(ty, adts):
    """Values of the type, Ints of any size."""
    if ty.kind != "Obj":
        return st.integers() | st.sampled_from([2 ** 40, -(2 ** 40)])
    return st.one_of([
        st.tuples(*[drawn_values(fty, adts) for _, fty in c.fields])
        .map(partial(ObjVal, c.name)) for c in adts[ty.adt].ctors])


def draw_cases(shape: str):
    *_, ty, adts = draw_programs(shape, 1)
    return st.tuples(st.just(shape),
                     st.lists(drawn_values(ty, adts), min_size=1, max_size=2))


@given(st.sampled_from(sorted(DRAWN_TYPES)).flatmap(draw_cases))
@example(("Int", [2 ** 40, -(2 ** 40)]))
def test_draw_code_round_trip(case):
    # at the seed that joins the values' codes, the native draws give the
    # values and consume exactly the codes' bits, a trace-mode run records
    # each code, and the expanded macro draws the same values
    shape, values = case
    heap, trace, expanded, ty, adts = draw_programs(shape, len(values))
    seed = nbits = 0
    events = []
    for v in values:
        code, m = draw_code(v, ty, adts)
        events.append(("draw", code, m))
        seed |= code << nbits
        nbits += m
    fuel = 4 * nbits + 8
    names = [f"x{i}" for i in range(len(values))]
    res = heap.run(inputs={"seed": seed}, loop_fuel=fuel)
    assert res.outcome == TOP
    assert [res.env[x] for x in names] == values
    assert res.bits_consumed == nbits
    assert trace.run(inputs={"seed": seed}, loop_fuel=fuel).events == events
    res = expanded.run(inputs={"seed": seed}, loop_fuel=fuel)
    assert res.outcome == TOP
    assert [res.env[x] for x in names] == values


def test_havoc_pair_coverage():
    # two consecutive draws reach every value pair in [-3..3]^2 with a seed
    # below 2^16
    p = parse_and_check(
        "prog { seed seed; var x: Int; var y: Int; havoc(x); havoc(y); }")
    cp = CompiledProgram(p)
    ty, adts = p.var_types["x"], p.adts_by_name()
    for v1, v2 in product(range(-3, 4), repeat=2):
        (c1, n1), (c2, _) = draw_code(v1, ty, adts), draw_code(v2, ty, adts)
        seed = c1 | c2 << n1
        assert seed < 2 ** 16
        res = cp.run(inputs={"seed": seed})
        assert (res.env["x"], res.env["y"]) == (v1, v2)


def test_namespace_collisions_rejected():
    with pytest.raises(SourceError):
        parse_program(
            "prog { adt A { a(v: Int); b(is_a: Int); } }")
    with pytest.raises(SourceError):
        parse_program(
            "prog { adt A { a(v: Int); } pred a(Int); }")
