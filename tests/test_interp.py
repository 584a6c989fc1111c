import random

import pytest
from hypothesis import given, strategies as st

from heapinv.fixpoint import Interpretation
from heapinv.interp import (
    ASSUME_FAILED, Bot, CompiledProgram, FUEL_EXHAUSTED, ObjVal, TOP,
    Undefined, _BotSignal, _Compiler, trunc_div, trunc_mod,
)
from heapinv.lang import TestApp as IsCtor  # a Test* name would be collected
from heapinv.lang import Var, parse_and_check, replace

import progen
from progen import expand_program_havocs

NODE = ObjVal("node", (7, 0))


# ---------------------------------------------------------------------------
# truncating division


@given(st.integers(-1000, 1000), st.integers(-20, 20).filter(lambda b: b != 0))
def test_trunc_div_matches_c_semantics(a, b):
    q, r = trunc_div(a, b), trunc_mod(a, b)
    assert a == b * q + r
    assert abs(r) < abs(b)
    assert r == 0 or (r < 0) == (a < 0)  # remainder follows the dividend


# ---------------------------------------------------------------------------
# statement evaluation


def run_src(src, inputs=None, interp=None, loop_fuel=64, heap_fuel=32):
    p = parse_and_check(src)
    return CompiledProgram(p).run(inputs=inputs or {},
                                  interp=interp or Interpretation.empty(),
                                  loop_fuel=loop_fuel, heap_fuel=heap_fuel)


def test_assert_zero_fails_with_reserved_predicate():
    res = run_src("prog { assert(0); }")
    assert res.outcome == Bot("F", ())


def test_assume_zero_is_undefined():
    res = run_src("prog { assume(0); }")
    assert res.outcome == Undefined(ASSUME_FAILED)


def test_predicate_assert_passes_under_matching_interpretation():
    res = run_src("prog { pred P(Int); assert(P(1)); }",
                  interp=Interpretation({"P": {(1,)}}))
    assert res.outcome == TOP


def test_predicate_assert_fails_with_tuple():
    res = run_src("prog { pred P(Int); var i: Int; i := 2; assert(P(i + 1)); }")
    assert res.outcome == Bot("P", (3,))


def test_predicate_assume_blocks():
    res = run_src("prog { pred P(Int); assume(P(5)); assert(0); }")
    assert res.outcome == Undefined(ASSUME_FAILED)
    assert res.blocker == ("P", (5,))


def test_bot_propagates_through_sequence_and_loop():
    res = run_src("""prog {
      var i: Int;
      i := 0;
      while (i < 10) {
        if (i = 3) { assert(0); }
        i := i + 1;
      }
      i := 99;
    }""")
    assert res.outcome == Bot("F", ())
    assert res.env["i"] == 3  # loop stopped at the failure


def test_division_by_zero_is_a_failure():
    res = run_src("prog { var i: Int; i := 1 / (i - i); }")
    assert res.outcome == Bot("F", ())
    res = run_src("prog { var i: Int; i := 5 % (i * 0); }")
    assert res.outcome == Bot("F", ())


def test_division_truncates_toward_zero():
    res = run_src("prog { var i: Int; var j: Int; i := -7 / 2; j := -7 % 2; }")
    assert res.env["i"] == -3 and res.env["j"] == -1


@pytest.mark.parametrize("cond, outcome", [
    ("x != 0 && 1 / x = 1", TOP),
    ("x = 0 || 1 / x = 1", TOP),
    ("1 / x = 1 && x != 0", Bot("F", ())),
], ids=["and-guarded", "or-guarded", "and-unguarded"])
@pytest.mark.parametrize("template", [
    "b := {};",
    "if ({}) {{ b := 1; }}",
    "while ({}) {{ x := 2; }}",
    "assume(!({}) || 1);",
], ids=["value", "if", "while", "negated"])
def test_and_or_evaluate_the_right_operand_only_when_needed(
        cond, outcome, template):
    # x = 0: the right operand of the first two would divide by zero
    src = "prog { var x: Int; var b: Int; x := 0; %s }" % template.format(cond)
    assert run_src(src, loop_fuel=1).outcome == outcome


def test_loop_fuel_exhaustion():
    res = run_src("prog { var i: Int; while (1) { i := i + 1; } }", loop_fuel=8)
    assert res.outcome == Undefined(FUEL_EXHAUSTED)
    assert res.env["i"] == 8


def test_heap_fuel_exhaustion():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var p: Addr;
      p := alloc(defObj);
      p := alloc(defObj);
    }"""
    res = run_src(src, heap_fuel=1)
    assert res.outcome == Undefined(FUEL_EXHAUSTED)
    assert res.heap_len == 1


def test_uninitialized_defaults():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var i: Int; var p: Addr; var x: Node;
      skip;
    }"""
    res = run_src(src)
    assert res.env["i"] == 0 and res.env["p"] == 0
    assert res.env["x"] == ObjVal("node", (0, 0))


def test_wrong_constructor_selector_gives_field_default():
    src = """prog {
      adt Pair { mk(fst: Int, snd: Int); unit(tag: Int); }
      heaptype Pair;
      var o: Pair; var i: Int;
      o := unit(9);
      i := fst(o);
    }"""
    res = run_src(src)
    assert res.env["i"] == 0


def test_tester_expression():
    src = """prog {
      adt Pair { mk(fst: Int, snd: Int); unit(tag: Int); }
      heaptype Pair;
      var o: Pair; var i: Int;
      o := unit(9);
      if (is_unit(o)) { i := 1; } else { i := 2; }
    }"""
    assert run_src(src).env["i"] == 1


def test_negative_seed_rejected():
    p = parse_and_check("prog { seed seed; skip; }")
    with pytest.raises(ValueError):
        CompiledProgram(p).run(inputs={"seed": -1})


def test_run_does_not_mutate_inputs():
    p = parse_and_check("""prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var p: Addr; var x: Node;
      p := alloc(node(7, null));
      x := read(p);
    }""")
    inputs = {"p": 0, "x": ObjVal("node", (0, 0))}
    res = CompiledProgram(p).run(inputs, loop_fuel=8, heap_fuel=8)
    assert res.outcome == TOP
    assert res.env["x"] == NODE and res.env["p"] == 1
    assert res.heap == [NODE] and res.heap_len == 1
    assert res.events is None  # the sequence model records nothing
    assert inputs == {"p": 0, "x": ObjVal("node", (0, 0))}


# ---------------------------------------------------------------------------
# determinism and fuel monotonicity


def result_triple(cp, inputs, loop_fuel, heap_fuel):
    r = cp.run(inputs=inputs, loop_fuel=loop_fuel, heap_fuel=heap_fuel)
    return r.outcome, r.env, r.heap


def test_evaluation_is_deterministic():
    for seed in range(25):
        p = progen.gen_program(seed, allow_havoc=True)
        cp = CompiledProgram(p)
        for in_v in (-2, 0, 3):
            ins = {"in": in_v, "seed": 19}
            assert result_triple(cp, ins, 40, 16) == result_triple(cp, ins, 40, 16)


def test_fuel_monotonicity():
    # a defined outcome is stable under any fuel increase
    rng = random.Random(3)
    checked = 0
    for seed in range(60):
        p = progen.gen_program(seed, allow_havoc=True)
        cp = CompiledProgram(p)
        for in_v in (-1, 2):
            ins = {"in": in_v, "seed": rng.randrange(256)}
            lf, hf = rng.randint(0, 12), rng.randint(0, 6)
            base = cp.run(inputs=ins, loop_fuel=lf, heap_fuel=hf)
            if isinstance(base.outcome, Undefined) \
                    and base.outcome.reason == FUEL_EXHAUSTED:
                continue
            for dlf, dhf in ((1, 0), (0, 1), (7, 9)):
                again = cp.run(inputs=ins, loop_fuel=lf + dlf, heap_fuel=hf + dhf)
                assert again.outcome == base.outcome
                assert again.env == base.env
                assert again.heap == base.heap
            checked += 1
    assert checked > 30


def test_native_havoc_equals_expanded_macro():
    for seed in range(15):
        p = progen.gen_program(seed, allow_havoc=True)
        expanded = expand_program_havocs(p)
        cn, ce = CompiledProgram(p), CompiledProgram(expanded)
        common = set(p.var_types)
        for s in range(0, 256, 7):
            ins = {"in": 1, "seed": s}
            rn, re_ = cn.run(inputs=ins), ce.run(inputs=ins)
            assert rn.outcome == re_.outcome, (seed, s)
            if not isinstance(rn.outcome, Undefined):
                assert {v: rn.env[v] for v in common} == \
                       {v: re_.env[v] for v in common}, (seed, s)
                assert rn.heap == re_.heap


# ---------------------------------------------------------------------------
# compiled expressions against the plain recursive reference


def _compiled(f, env):
    try:
        return f(env)
    except _BotSignal as b:
        assert b.args == ("F", ())
        return ZeroDivisionError


def _reference(e, env):
    try:
        return progen.eval_expr(e, env)
    except ZeroDivisionError:
        return ZeroDivisionError


def test_compiled_expressions_match_reference():
    rng = random.Random(17)
    gen = progen.Gen(rng, allow_pair_adt=True, allow_division=True)
    comp = _Compiler(gen.program(size=0))
    seen = {"value": 0, "true": 0, "false": 0, "fail": 0, "args": 0}
    for n in range(1500):
        if n % 3 == 0:
            e = gen.int_expr(3)
        elif n % 3 == 1:
            e = gen.cond_expr(3)
        else:
            e = IsCtor(gen.pick(["mk", "unit"]), gen.pair_expr(2))
        value, cond = comp.expr(e), comp.cond(e)
        k = rng.randint(0, 4)
        if n % 2:
            args = [gen.int_expr(1) for _ in range(k)]
        else:
            args = [Var(gen.pick(progen.INT_VARS)) for _ in range(k)]
        args_of = comp.tuple_of(args)
        for _ in range(4):
            env = progen.random_env(rng)
            want = _reference(e, env)
            got = _compiled(value, env)
            assert got == want and type(got) is type(want), (e, env)
            truth = _compiled(cond, env)
            if want is ZeroDivisionError:
                assert truth is ZeroDivisionError, (e, env)
                seen["fail"] += 1
            else:
                assert bool(truth) == (want != 0), (e, env)
                seen["true" if want else "false"] += 1
            seen["value"] += 1
            want = tuple(_reference(a, env) for a in args)
            if ZeroDivisionError not in want:
                got = args_of(env)
                assert got == want and type(got) is tuple, (args, env)
                seen["args"] += 1
    assert min(seen.values()) > 100, seen


# ---------------------------------------------------------------------------
# flat code against the plain recursive statement reference


def _kind(outcome, blocker) -> str:
    if isinstance(outcome, Undefined):
        return outcome.reason + ("/query" if blocker else "")
    if isinstance(outcome, Bot):
        return "bot/query" if blocker else "bot"
    return "top"


def test_flat_code_matches_statement_reference():
    # small fuels make runs also stop inside nested loops; P holds a few
    # tuples, so queries both pass and stop runs
    rng = random.Random(29)
    rels = {"P": {(-1,), (0,), (1,)}}
    interp = Interpretation(rels)
    seen = {}
    for n in range(320):
        gen = progen.Gen(random.Random(n), allow_havoc=True,
                         allow_division=True)
        p = gen.program(size=rng.randint(2, 8))
        cps = [CompiledProgram(p, mode=mode) for mode in ("heap", "trace")]
        for _ in range(4):
            inputs = {"in": rng.randint(-3, 3), "seed": rng.randint(0, 255)}
            loop_fuel, heap_fuel = rng.randint(0, 4), rng.randint(0, 4)
            want = progen.run_reference(p, inputs, rels, loop_fuel, heap_fuel)
            for cp in cps:
                r = cp.run(inputs=inputs, interp=interp, loop_fuel=loop_fuel,
                           heap_fuel=heap_fuel)
                got = (r.outcome, r.blocker, r.env, r.heap_len,
                       r.bits_consumed)
                assert got == want, (n, cp.mode, inputs, loop_fuel, heap_fuel)
            kind = _kind(want[0], want[1])
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"top", "bot", "bot/query", "assume_failed",
                         "assume_failed/query", "fuel_exhausted"}, seen
    assert min(seen.values()) >= 10, seen


def test_compile_errors_surface_at_the_runs_that_reach_the_node():
    # a program built in code that the type checker would reject (defObj
    # without a heap type, a havoc without a seed) compiles its nodes when
    # a run first reaches them: a run that stops at the query before the
    # bad node raises nothing, and each run that gets past it raises the
    # node's error
    p = parse_and_check("""prog {
      adt Node { node(val: Int, next: Addr); }
      heaptype Node;
      pred P(Int);
      input in;
      seed seed;
      var x: Int; var o: Node;
      x := in + 1;
      assume(P(x));
      o := defObj;
      havoc(x);
    }""")
    holds = Interpretation({"P": {(2,)}})
    for bad, error in ((replace(p, heap_adt=None), "defObj used without "
                        "heaptype"),
                       (replace(p, seed_var=None), "havoc/nondet requires a "
                        "seed declaration")):
        cp = CompiledProgram(bad)
        for in_v in (0, 2, 3):
            res = cp.run({"in": in_v}, interp=holds)
            assert res.outcome == Undefined(ASSUME_FAILED), in_v
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{error}$"):
                cp.run({"in": 1}, interp=holds)
        assert cp.run({"in": 0}, interp=holds).blocker == ("P", (1,))
    assert CompiledProgram(p).run({"in": 1}, interp=holds).outcome == TOP


def test_draw_site_point_is_the_state_before_the_draws():
    # a run stopped by a draw site's assume resumes before the site's
    # draws: from the point, any seed runs as from scratch, also when its
    # draws run out of loop fuel halfway, and the stopped run's own seed
    # needs no inputs to continue
    p = parse_and_check("""prog {
      pred P(Int, Int);
      seed seed;
      var x: Int; var y: Int; var c: Int;
      x := 7;
      c := 4;
      while (c > 3) { c := c - 1; }
      havoc(x);
      havoc(y);
      assume(P(x, y));
    }""")
    cp = CompiledProgram(p)
    fuel = 2  # one unit is left for the draws
    # the site is compiled when a run first reaches it
    assert cp.sites == {}
    cp.run({"seed": 0}, loop_fuel=fuel)
    (site,) = cp.sites.values()
    assert site.start == 4  # after x := 7, c := 4 and the loop
    points = []
    for seed in range(64):
        res = cp.run({"seed": seed}, loop_fuel=fuel)
        if res.resume is not None:
            point = res.resume
            assert point[-1] == site.start and point[-2] == 0, seed
            assert point[cp.names.index("x")] == 7, seed
            again = cp.run(resume=point)
            assert (again.outcome, again.blocker, again.env,
                    again.bits_consumed) == (res.outcome, res.blocker,
                                             res.env, res.bits_consumed)
            points.append(point)
    assert points
    outcomes = set()
    for seed in range(64):
        fresh = cp.run({"seed": seed}, loop_fuel=fuel)
        outcomes.add(fresh.outcome)
        for point in points[:3]:
            got = cp.run({"seed": seed}, resume=point)
            assert (got.outcome, got.blocker, got.env, got.bits_consumed) \
                == (fresh.outcome, fresh.blocker, fresh.env,
                    fresh.bits_consumed), seed
    assert Undefined(FUEL_EXHAUSTED) in outcomes
