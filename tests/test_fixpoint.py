import gc
import random
import tracemalloc
from contextlib import contextmanager

import pytest

from heapinv import interp as interp_module, replay
from heapinv.corpus import VARIANTS, encode_variant
from heapinv.encode import enc_n, enc_r, enc_rw, encode
from heapinv.fixpoint import (
    LAST_ADDR_VAR, FixpointInfo, GridExecutor, InputDomain, Interpretation,
    IterationCapExceeded, Record, check_equisafety, check_safety,
    immediate_consequence, initial_stack, input_positions, least_fixpoint,
    least_fixpoint_info, sweep_under, verdict_from_executor,
)
from heapinv.interp import (
    FUEL_EXHAUSTED, CompiledProgram, ObjVal, Undefined, draw_code,
)
from heapinv.lang import (
    Assign, AssertExpr, AssumeExpr, Binary, Block, If, IntLit, Var,
    parse_and_check, query_positions, replace, variable_uses,
)
from heapinv.replay import cosim_check

import progen


def prog(src):
    return parse_and_check(src)


def test_interpretation_order():
    a = Interpretation({"P": {(1,)}})
    b = Interpretation({"P": {(1,), (2,)}, "Q": {(0, 0)}})
    assert progen.is_subset(a, b)
    assert not progen.is_subset(b, a)
    assert a != b and a == Interpretation({"P": {(1,)}})


def test_t_adds_failing_tuple():
    p = prog("prog { pred P(Int); assert(P(1)); }")
    out = immediate_consequence(p, Interpretation.empty(), InputDomain())
    assert out.tuples("P") == {(1,)}


def test_t_blocked_by_assume_adds_nothing():
    p = prog("prog { pred P(Int); assume(P(0)); assert(P(1)); }")
    out = immediate_consequence(p, Interpretation.empty(), InputDomain())
    assert out.tuples("P") == frozenset()


def test_t_keeps_existing_tuples():
    p = prog("prog { pred P(Int); assert(P(1)); }")
    start = Interpretation({"P": {(9,)}})
    out = immediate_consequence(p, start, InputDomain())
    assert out.tuples("P") == {(9,), (1,)}


def test_expression_failures_never_join_interpretations():
    p = prog("prog { pred P(Int); assert(0); }")
    out = immediate_consequence(p, Interpretation.empty(), InputDomain())
    assert out.total_size() == 0


def test_monotonicity_sampled():
    rng = random.Random(11)
    pool = [(v,) for v in range(-3, 4)]
    d = InputDomain()
    for seed in range(24):
        p = progen.gen_program(seed)
        small = {"P": {t for t in pool if rng.random() < 0.4}}
        big = {"P": small["P"] | {t for t in pool if rng.random() < 0.4}}
        t_small = immediate_consequence(p, Interpretation(small), d)
        t_big = immediate_consequence(p, Interpretation(big), d)
        assert progen.is_subset(t_small, t_big), f"seed {seed}"


def test_lfp_no_predicates():
    p = prog("prog { var i: Int; i := 1; assert(i = 1); }")
    assert least_fixpoint(p, InputDomain()).total_size() == 0


def test_lfp_two_asserts_two_iterations():
    p = prog("prog { pred P(Int); assert(P(1)); assert(P(2)); }")
    info = least_fixpoint_info(p, InputDomain())
    assert info.interp.tuples("P") == {(1,), (2,)}
    assert info.iterations == 2


def test_lfp_is_a_fixed_point():
    p = prog("prog { pred P(Int); assert(P(1)); assert(P(2)); assume(P(3)); }")
    d = InputDomain()
    star = least_fixpoint(p, d)
    assert immediate_consequence(p, star, d) == star


def test_lfp_single_read_encoding_shape():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr; var x: Node;
      p := alloc(node(5, null));
      x := read(p);
      assert(data(x) = 5);
    }"""
    d = InputDomain()
    e = enc_r(prog(src))
    star = least_fixpoint(e.program, d)
    tuples = star.tuples("R")
    lo, hi = d.in_range
    assert tuples == {(in_v, 1, ObjVal("node", (5, 0)))
                      for in_v in range(lo, hi + 1)}


def test_iteration_cap():
    p = prog("prog { pred P(Int); assert(P(1)); assert(P(2)); assert(P(3)); }")
    d = InputDomain(iteration_cap=2)
    with pytest.raises(IterationCapExceeded):
        least_fixpoint(p, d)


def test_safety_trivial():
    assert check_safety(prog("prog { assert(1); }"), InputDomain()).kind == "safe"


def test_safety_unsafe_with_witness_replay():
    p = prog("prog { input in; assert(in != 2); }")
    d = InputDomain()
    v = check_safety(p, d)
    assert v.kind == "unsafe"
    assert v.witness.inputs["in"] == 2
    res = CompiledProgram(p).run(inputs=v.witness.inputs)
    assert res.outcome.pred == "F"


def test_witness_order_lexicographic():
    p = prog("prog { input in; assert(in != 2); assert(in != -1); }")
    v = check_safety(p, InputDomain())
    assert v.witness.inputs["in"] == -1  # smallest failing input first


def test_inconclusive_counts_fuel():
    p = prog("prog { input in; var i: Int; while (i >= 0) { i := i + 1; } }")
    v = check_safety(p, InputDomain())
    assert v.kind == "inconclusive"
    # the input is never read: one class per collapsed dimension
    assert v.inconclusive_count == InputDomain().grid_size()


def test_predicate_failure_is_an_error_only_at_the_fixed_point():
    p = prog("prog { pred P(Int); input in; assert(P(in)); }")
    d = InputDomain()
    ex = GridExecutor(p, d)
    ex.run_all(Interpretation.empty())
    # the empty interpretation is no fixed point: P(in) fails everywhere
    with pytest.raises(AssertionError, match="under the fixed point"):
        verdict_from_executor(p, d, FixpointInfo(Interpretation.empty(), 0, ex))
    v = sweep_under(p, d, Interpretation.empty())
    assert v.kind == "unsafe"
    assert (v.witness.pred, v.witness.args) == ("P", (d.in_range[0],))
    assert check_safety(p, d).kind == "safe"


def test_equisafety_agree_and_disagree():
    d = InputDomain()
    ok = check_equisafety(prog("prog { assert(1); }"),
                          prog("prog { skip; }"), d)
    assert ok.agree and ok.kind == "agree(safe)"
    bad = check_equisafety(prog("prog { assert(1); }"),
                           prog("prog { assert(0); }"), d)
    assert not bad.agree and bad.kind == "disagree"


def test_seed_classing_matches_full_enumeration():
    # classed enumeration must produce exactly the sets and verdicts of the
    # naive per-seed sweep
    src = """prog {
      pred P(Int);
      input in;
      seed seed;
      var x: Int;
      havoc(x);
      assume(x >= 0 && x <= 3);
      assert(P(x + in));
    }"""
    p = prog(src)
    # defeat classing by touching the seed variable in an expression
    p2 = prog(src.replace("havoc(x);", "havoc(x); x := x + 0 * seed;"))
    # offset ranges whose size is not a power of two catch an off-by-lo
    # error in the per-cell seed marks
    for lo, hi in [(0, 63), (5, 200), (7, 300), (3, 3)]:
        d = InputDomain(seed_range=(lo, hi))
        classed = immediate_consequence(p, Interpretation.empty(), d)
        full = immediate_consequence(p2, Interpretation.empty(), d)
        assert classed == full, (lo, hi)
        ex = GridExecutor(p, d)
        assert ex.seed_classing
        ex2 = GridExecutor(p2, d)
        assert not ex2.seed_classing
        for e in (ex, ex2):
            e.run_all(Interpretation.empty())
            for rows in rows_by_cell(e).values():
                assert sum(r.weight for r in rows) == hi - lo + 1


def test_unused_input_dimension_collapses():
    p = prog("prog { input in; seed seed; assert(1); }")
    ex = GridExecutor(p, InputDomain())
    assert not ex.enumerate_in
    ex.run_all(Interpretation.empty())
    assert len(ex.cells) == 1


def test_encode_int_bits_roundtrip_wide():
    p = prog("prog { seed seed; var x: Int; havoc(x); }")
    cp = CompiledProgram(p)
    for v in list(range(-40, 41)) + [123, -999, 2 ** 20 + 3]:
        code, _ = draw_code(v, p.var_types["x"], p.adts_by_name())
        res = cp.run(inputs={"seed": code}, loop_fuel=10 ** 6)
        assert res.env["x"] == v


def test_read_trace_interpretation_contains_grid_fixpoint():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr; var q: Addr; var x: Node;
      p := alloc(node(1, null));
      q := alloc(node(2, null));
      x := read(p);
      x := read(q);
      assert(data(x) = 2);
    }"""
    p = prog(src)
    d = InputDomain()
    # the limit of the read predicate for this deterministic program: for
    # every input, (input, k, v) where the k-th read returned v
    limit = replay._read_relation(replay._source_runs(
        CompiledProgram(p, mode="trace"), d, d.heap_op_fuel, 0))
    e = enc_r(enc_n(p))
    bounded = least_fixpoint(e.program, d)
    assert bounded.tuples("R") <= limit.tuples("R")


def test_sweep_under_fixed_interpretation():
    p = prog("prog { pred P(Int); assert(P(1)); }")
    d = InputDomain()
    assert sweep_under(p, d, Interpretation({"P": {(1,)}})).kind == "safe"
    v = sweep_under(p, d, Interpretation.empty())
    assert v.kind == "unsafe" and v.witness.pred == "P"


def test_cosim_replays_source_draws(monkeypatch):
    # a source program that itself consumes seed bits: the constructed seed
    # interleaves the original draws with the read draws
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      input in;
      seed seed;
      var p: Addr; var q: Addr; var x: Node; var k: Int;
      havoc(k);
      assume(0 <= k && k <= 2);
      p := alloc(node(k, null));
      q := alloc(node(k + 1, null));
      x := read(p);
      x := read(q);
      assert(data(x) <= 3);
    }"""
    from heapinv.encode import enc_n, enc_r
    p = parse_and_check(src)
    p_star = enc_n(p)
    encoded = enc_r(p_star).program
    compiles, runs = [], []
    init, run = CompiledProgram.__init__, CompiledProgram.run

    def counting_init(self, program, *args, **kwargs):
        compiles.append(program)
        init(self, program, *args, **kwargs)

    def counting_run(self, *args, **kwargs):
        runs.append(id(self.program))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(CompiledProgram, "__init__", counting_init)
    monkeypatch.setattr(CompiledProgram, "run", counting_run)
    rep = cosim_check(p_star, encoded, InputDomain(),
                      counter_values=(32, 0, 3), source_seeds=(0, 1, 6, 14))
    assert rep.ok, rep.failures()[:3]
    # each side is compiled once, not once per (counter value, source seed);
    # the source runs once per (counter value, source seed, input), and the
    # encoded program once per such run and prophecy address
    assert len(compiles) == 2
    assert runs.count(id(p_star)) == 3 * 4 * 7
    assert runs.count(id(encoded)) == 3 * 4 * 7 * 7


def test_cosim_counter_above_heap_budget(corpus):
    # a counter value above the heap budget bounds the read trace as it
    # bounds the source run the replay is compared with
    for name, fuel, counter in (("list-build-traverse", 2, 5),
                                ("cell-pair-indexed", 2, 5),
                                ("two-level-links", 4, 8)):
        p_star = enc_n(next(e for e in corpus if e.name == name).load())
        rep = cosim_check(p_star, enc_r(p_star).program,
                          InputDomain(heap_op_fuel=fuel),
                          counter_values=(counter,))
        assert rep.ok, (name, len(rep.failures()), rep.failures()[:1])


COSIM_SOURCE = """prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Node;
  input in;
  seed seed;
  var p: Addr; var x: Node; var k: Int;%s
  p := alloc(node(in, null));
  x := read(p);
  k := data(x)%s;
  write(p, node(%d, null));%s
}"""


def cosim_program(extra_var="", k_plus="", written=7, extra_stmt=""):
    return parse_and_check(
        COSIM_SOURCE % (extra_var, k_plus, written, extra_stmt))


@pytest.mark.parametrize("other, budget, failures", [
    # the same program: no failure
    (cosim_program(), True, []),
    # another object written to p: $last differs at p's address only
    (cosim_program(written=8), True,
     [(in_v, 1, "read tracking mismatch: heap[1]=node(7, 0) vs node(8, 0)")
      for in_v in (0, 1)]),
    # one more allocation, into a variable the source lacks (without the
    # budget counter, which would differ first)
    (cosim_program(extra_var=" var r: Addr;",
                   extra_stmt="\n  r := alloc(defObj);"), False,
     [(in_v, la, "allocation count mismatch: |heap|=1 vs 2")
      for in_v in (0, 1) for la in (0, 1, 2)]),
    # another value assigned to a common variable
    (cosim_program(k_plus=" + 1"), True,
     [(in_v, la, f"stack mismatch on 'k': {in_v} vs {in_v + 1}")
      for in_v in (0, 1) for la in (0, 1, 2)]),
    # a failing assertion
    (cosim_program(extra_stmt="\n  assert(k != in);"), True,
     [(in_v, la, "outcome mismatch: Top vs Bot(F, ())")
      for in_v in (0, 1) for la in (0, 1, 2)]),
], ids=["same", "write", "alloc", "stack", "outcome"])
def test_cosim_reports_each_mismatch(other, budget, failures):
    # co-simulation against the encoding of another program must fail at
    # exactly the points where the final states differ
    d = InputDomain(in_range=(0, 1), last_addr_range=(0, 2))
    encoded = enc_r(enc_n(other) if budget else other).program
    rep = cosim_check(enc_n(cosim_program()), encoded, d)
    assert len(rep.points) == 6
    assert [(f.in_v, f.last_addr, f.detail) for f in rep.failures()] == [
        (in_v, la, f"[c=32 seed0=0] {detail}")
        for in_v, la, detail in failures]


def naive_least_fixpoint(program, domain):
    """Reference iteration: apply the operator from the empty interpretation
    until it stabilises, re-running the whole grid each time."""
    current = Interpretation.empty()
    for _ in range(domain.cap() + 1):
        nxt = immediate_consequence(program, current, domain)
        if nxt == current:
            return current
        current = nxt
    raise AssertionError("reference iteration did not stabilise")


def full_grid_fixpoint_info(program, domain):
    """Reference: the fixpoint loop over the whole grid, every input of the
    range run, as it was before the least input stood for the others."""
    interp = Interpretation.empty()
    ex = GridExecutor(program, domain)
    ex.run_all(interp)
    iterations = 0
    cap = domain.cap()
    added = {t for t in ex.failing_tuples()
             if t[1] not in interp.relation(t[0])}
    while added:
        for pred, args in added:
            interp.add(pred, args)
        iterations += 1
        if iterations > cap:
            raise IterationCapExceeded(cap, interp.sizes())
        added = {t for t in ex.rerun_blocked(interp, added)
                 if t[1] not in interp.relation(t[0])}
    return FixpointInfo(interp, iterations, ex)


def test_memoised_fixpoint_matches_reference(corpus, domain):
    # the incremental executor must compute exactly the naive iteration
    from heapinv.encode import enc_r, enc_rw
    picks = ("cell-pair-indexed-bad", "write-read-false", "two-cells-copy",
             "branch-write")
    for name in picks:
        entry = next(e for e in corpus if e.name == name)
        p = entry.load()
        for encoded in (enc_r(p).program, enc_rw(p).program):
            assert least_fixpoint(encoded, domain) == \
                naive_least_fixpoint(encoded, domain), name


def test_memoised_fixpoint_matches_reference_generated(domain):
    for seed in (3, 11, 27, 40):
        p = progen.gen_program(seed)
        assert least_fixpoint(p, domain) == naive_least_fixpoint(p, domain)


def rows_by_cell(ex):
    """The executor's rows by (in, address), each cell's in seed order:
    rows come in no fixed order.  The sentinel address is named, since
    each executor has its own."""
    out = {}
    for row in ex.rows():
        la = "any" if row.last_addr is ex.any_address else row.last_addr
        out.setdefault((row.in_v, la), []).append(row)
    for rows in out.values():
        rows.sort(key=lambda row: row.seed)
    return out


def grid_rows(ex):
    """Each cell's (seed, outcome, blocker, weight, step, compared) rows."""
    return {key: [(r.seed, r.outcome, r.blocker, r.weight, r.step, r.compared)
                  for r in rows]
            for key, rows in rows_by_cell(ex).items()}


def fresh_grid(ex, interp):
    """A new executor for the same program and domain, run from scratch
    over the whole grid under ``interp``."""
    fresh = GridExecutor(ex.program, ex.domain)
    fresh.run_all(interp)
    return fresh


def seed_map(rows, hi):
    """Seed -> row over the classes of the rows, which must not overlap."""
    out = {}
    for row in rows:
        for s in range(row.seed, hi + 1, row.step):
            assert s not in out, s
            out[s] = row
    return out


def address_view(ex, cells, in_v, a):
    """Seed -> row at one (in, address) pair of an executor with address
    classing, from its ``rows_by_cell``: the rows of the explicit cell,
    and the sentinel rows wherever no explicit row stands.  Every sentinel
    class is wholly explicit or wholly open at the address, and every seed
    is covered."""
    lo, hi = ex.seed_range
    view = seed_map(cells.get((in_v, a), ()), hi)
    for row in cells.get((in_v, "any"), ()):
        seeds = range(row.seed, hi + 1, row.step)
        taken = {s in view for s in seeds}
        assert len(taken) == 1, (in_v, a, row.seed)
        if taken == {False}:
            view.update(dict.fromkeys(seeds, row))
    assert sorted(view) == list(range(lo, hi + 1)), (in_v, a)
    return view


def outcome_rows(view):
    return {s: (row.outcome, row.blocker) for s, row in view.items()}


def test_delta_rerun_matches_fresh_cells(corpus, domain):
    # after the per-class reruns every cell must hold exactly the rows of
    # running it from scratch under the final interpretation; with address
    # classing the explicit cells hold only the classes that compared with
    # their address, so each address is compared seed by seed instead,
    # against a grid that runs every seed at that address
    picks = ("cell-pair-indexed-bad", "write-read-false", "two-cells-copy",
             "branch-write")
    programs = []
    for name in picks:
        p = next(e for e in corpus if e.name == name).load()
        programs += [(name, enc_r(p).program), (name, enc_rw(p).program)]
    programs += [(seed, progen.gen_program(seed)) for seed in (3, 11, 27, 40)]
    for d in (domain, replace(domain, seed_range=(5, 200))):
        for name, p in programs:
            info = least_fixpoint_info(p, d)
            ex = info.executor
            if not ex.address_classing:
                fresh = fresh_grid(ex, info.interp)
                assert grid_rows(ex) == grid_rows(fresh), (name, d.seed_range)
                continue
            with plain_addresses():
                fresh = fresh_grid(ex, info.interp)
            assert not fresh.address_classing
            cells, fresh_cells = rows_by_cell(ex), rows_by_cell(fresh)
            lo, hi = d.last_addr_range
            for in_v in ex.in_values():
                for a in range(lo, hi + 1):
                    assert outcome_rows(address_view(ex, cells, in_v, a)) == \
                        outcome_rows(seed_map(fresh_cells[(in_v, a)],
                                              ex.seed_range[1])), \
                        (name, d.seed_range, in_v, a)


def test_delta_rerun_runs_only_blocked_classes():
    # the classes of the cell are blocked on two different tuples; adding
    # one of them reruns only the seeds of the classes blocked on it
    p = prog("""prog {
      pred P(Int);
      seed seed;
      var x: Int;
      havoc(x);
      assume(0 <= x && x <= 1);
      assume(P(x));
      assert(x = 0);
    }""")
    ex = GridExecutor(p, InputDomain())
    ex.run_all(Interpretation.empty())
    (cell,) = ex.cells.values()
    assert cell.blockers() == {("P", (0,)), ("P", (1,))}
    target = ("P", (0,))
    classes = [(r.seed, r.step) for r in ex.rows() if r.blocker == target]
    seeds = []
    run = ex.compiled.run

    def counting_run(*args, **kwargs):
        seeds.append(kwargs["inputs"]["seed"])
        return run(*args, **kwargs)

    ex.compiled.run = counting_run
    interp = Interpretation({"P": {(0,)}})
    assert ex.rerun_blocked(interp, {target}) == set()
    assert seeds
    for s in seeds:
        assert any(s >= seed and (s - seed) % step == 0
                   for seed, step in classes), s
    assert grid_rows(ex) == grid_rows(fresh_grid(ex, interp))


@contextmanager
def plain_addresses():
    """Make every executor built inside the context enumerate ``$last_addr``
    address by address, as for programs that fail the static check."""
    uses = interp_module.variable_uses
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp_module, "variable_uses", lambda p: (
            uses(p)[0], uses(p)[1] | {LAST_ADDR_VAR}))
        yield


def check_address_classing(p, d, label):
    """The classed fixed point, verdict and every grid point against plain
    address enumeration."""
    info = least_fixpoint_info(p, d)
    ex = info.executor
    assert ex.address_classing, label
    verdict = verdict_from_executor(p, d, info).to_json()
    with plain_addresses():
        plain = least_fixpoint_info(p, d)
        assert not plain.executor.address_classing
        assert plain.interp == info.interp, label
        assert verdict_from_executor(p, d, plain).to_json() == verdict, label
    cp = CompiledProgram(p)
    seeds = range(ex.seed_range[0], ex.seed_range[1] + 1)
    addresses = range(d.last_addr_range[0], d.last_addr_range[1] + 1)
    cells = rows_by_cell(ex)
    for in_v in ex.in_values():
        assert sum(r.weight * r.addresses for (i, _), rows in cells.items()
                   if i == in_v for r in rows) == len(seeds) * len(addresses)
        views = {a: address_view(ex, cells, in_v, a) for a in addresses}
        for row in cells.get((in_v, "any"), ()):
            mine = [a for a in addresses if views[a][row.seed] is row]
            assert mine and (row.addresses, row.least) == (len(mine), mine[0])
        for a, view in views.items():
            for s in seeds:
                res = cp.run(inputs=initial_stack(p, in_v, s, a, d.heap_op_fuel),
                             interp=info.interp, loop_fuel=d.loop_fuel,
                             heap_fuel=d.heap_op_fuel)
                assert (res.outcome, res.blocker) == \
                    (view[s].outcome, view[s].blocker), (label, in_v, a, s)


# Address 2 is first compared with in a rerun (behind Gate), when the read
# tuple it asserts already holds: a run there then draws more seed bits than
# a sentinel run that havocs ``y`` and is blocked, so an explicit class is
# narrower than its sentinel class.
NARROW_AT_ADDRESS = """prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Node;
  pred Gate(Int);
  input in;
  seed seed;
  var p: Addr; var q: Addr; var y: Node; var c: Int; var k: Int;
  p := alloc(node(0, null));
  havoc(c);
  if (c = 0) {
    y := read(p);
    assert(Gate(0));
  } else {
    assume(Gate(0));
    q := alloc(node(0, null));
    y := read(q);
    havoc(k);
    havoc(k);
    havoc(k);
    assert(k != 0);
  }
}"""


# The read havocs a value from R(in, 1, _), which holds the data of both
# draws of c, so a run that does not track address 1 can fail the assertion
# while every run that tracks it passes.
UNTRACKED_READ_FAILS = """prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Node;
  input in;
  seed seed;
  var p: Addr; var x: Node; var c: Int;
  p := alloc(defObj);
  havoc(c);
  assume(0 <= c && c <= 1);
  write(p, node(c, null));
  x := read(p);
  assert(data(x) = c);
}"""


def test_address_classing_matches_full_enumeration(corpus, domain):
    # one sentinel run per seed class stands for every address it never
    # compared $last_addr with; explicit runs cover the others
    p = next(e for e in corpus if e.name == "cell-pair-indexed-bad").load()
    programs = [("cell-pair-indexed-bad", v, encode(p, VARIANTS[v][0]))
                for v in ("r", "rw", "r_t", "rw_ct")]
    p = progen.gen_program(11)
    programs += [(11, "r", enc_r(p)), (11, "rw", enc_rw(p))]
    programs += [(name, "r", enc_r(prog(src))) for name, src in (
        ("narrow", NARROW_AT_ADDRESS), ("untracked", UNTRACKED_READ_FAILS))]
    domains = (domain, replace(domain, last_addr_range=(2, 5)),
               replace(domain, seed_range=(5, 200)),
               replace(domain, last_addr_range=(1, 1)))
    for d in domains:
        for name, variant, e in programs:
            check_address_classing(e.program, d, (name, variant, d))


def test_address_read_outside_equality_is_enumerated(corpus, domain):
    # $ names are reserved in source, so the programs are edited as trees
    p = enc_r(next(e for e in corpus if e.name == "two-cells-copy").load()
              ).program
    last = Var(LAST_ADDR_VAR)
    edits = (AssumeExpr(Binary("<=", IntLit(0), last)),
             If(Binary("=", last, IntLit(3)),
                Block((Assign(LAST_ADDR_VAR, IntLit(3)),)), Block(())))
    want = check_safety(p, domain).to_json()
    assert GridExecutor(p, domain).address_classing
    for stmt in edits:
        q = replace(p, body=Block((stmt,) + p.body.stmts))
        assert LAST_ADDR_VAR in variable_uses(q)[1]
        assert not GridExecutor(q, domain).address_classing
        assert least_fixpoint(q, domain) == least_fixpoint(p, domain)
        assert check_safety(q, domain).to_json() == want


def test_address_probe_not_equal_and_self_comparison(corpus, domain):
    # ``!=`` reaches the probe through the ``__ne__`` that inverts its
    # ``__eq__``, with the probe on either side.  The encoding compares
    # ``$last_addr`` with its two allocations only, so a ``!=`` that did not
    # record 4 would miss the failure at address 4.  The probe equals
    # itself, so the assume holds at every address.
    p = enc_r(next(e for e in corpus if e.name == "two-cells-copy").load()
              ).program
    last = Var(LAST_ADDR_VAR)
    fail = Block((AssertExpr(Binary("=", Var("in"), IntLit(5))),))
    edits = (If(Binary("!=", last, IntLit(4)), Block(()), fail),
             If(Binary("!=", IntLit(4), last), Block(()), fail),
             AssumeExpr(Binary("=", last, last)))
    domains = (domain, replace(domain, last_addr_range=(2, 5)),
               replace(domain, seed_range=(5, 200)),
               replace(domain, last_addr_range=(1, 1)))
    for stmt in edits:
        q = replace(p, body=Block((stmt,) + p.body.stmts))
        for d in domains:
            check_address_classing(q, d, (stmt, d))


def test_range_inside_every_comparison_matches_plain(corpus, domain):
    # at last_addr_range (1, 1) every sentinel run compares $last_addr with
    # 1 (the first allocation), so no sentinel leaf stands for an address
    # and the paths it took must leave no trace
    d = replace(domain, last_addr_range=(1, 1))
    sources = [(name, next(e for e in corpus if e.name == name).load())
               for name in ("list-build-traverse", "single-read-wrong")]
    sources.append(("untracked", prog(UNTRACKED_READ_FAILS)))
    for name, p in sources:
        for e in (enc_r(p), enc_rw(p)):
            info = least_fixpoint_info(e.program, d)
            ex = info.executor
            assert not any(r.last_addr is ex.any_address for r in ex.rows()), \
                name
            got = verdict_from_executor(e.program, d, info).to_json()
            with plain_addresses():
                want = check_safety(e.program, d).to_json()
            assert got == want, name


def test_sentinel_rows_repr_alike_in_every_run(corpus, domain):
    # a sentinel row holds the address probe as its cell's address and in
    # its resume point, so the probe's repr must not be its memory address
    entry = next(e for e in corpus if e.name == "list-build-traverse")
    p = enc_r(entry.load()).program

    def reprs():
        ex = least_fixpoint_info(p, domain).executor
        rows = list(ex.rows())
        assert any(r.last_addr is ex.any_address for r in rows)
        return sorted(map(repr, rows))
    assert reprs() == reprs()


# Draws before and after a query: a resumed run must draw its later values
# from the bits its own seed has left.
DRAWS_AROUND_QUERY = """prog {
  pred P(Int);
  input in;
  seed seed;
  var x: Int; var y: Int; var c: Int;
  havoc(x);
  assume(-2 <= x && x <= 2);
  c := 0;
  while (c < x) {
    c := c + 1;
  }
  assert(P(x + in));
  havoc(y);
  assume(P(y));
  assert(y != x + c);
}"""


def check_blocked_rows(ex, interp, label) -> int:
    """Every seed of each blocked row's class, resumed from the row's
    point, against a fresh run of the same seed: under ``interp`` (the run
    stops at the same query again) and with the blocker added (it gets past
    it).  Returns the number of runs compared."""
    d = ex.domain
    probe = ex.any_address

    def one(row, rels, seed, point=None, known=frozenset()):
        # one run at the row's cell as the executor makes it: a sentinel
        # run starts from the values the blocked run had compared with
        inputs = initial_stack(ex.program, row.in_v, seed, row.last_addr,
                               d.heap_op_fuel)
        probe.compared = set(known)
        res = ex.compiled.run(inputs=inputs, interp=rels,
                              loop_fuel=d.loop_fuel, heap_fuel=d.heap_op_fuel,
                              resume=point)
        compared = probe.compared if row.last_addr is probe else None
        return (res.outcome, res.blocker, res.bits_consumed, res.env,
                compared)

    checked = 0
    for row in ex.rows():
        if row.blocker is None:
            continue
        assert row.resume is not None, (label, row)
        grown = interp.copy()
        grown.add(*row.blocker)
        for rels in (interp, grown):
            for seed in range(row.seed, ex.seed_range[1] + 1, row.step):
                assert one(row, rels, seed, row.resume, row.compared) == \
                    one(row, rels, seed), \
                    (label, row.in_v, row.last_addr, seed, rels)
                checked += 1
    return checked


def check_resumed_runs(ex, label, rounds: int = 4) -> int:
    """``check_blocked_rows`` after ``run_all`` under the empty
    interpretation and after each of the first fixpoint iterations, so that
    runs also resume deep inside the program."""
    interp = Interpretation.empty()
    ex.run_all(interp)
    checked = 0
    for _ in range(rounds):
        checked += check_blocked_rows(ex, interp, label)
        added = {t for t in ex.failing_tuples()
                 if t[1] not in interp.relation(t[0])}
        if not added:
            break
        for pred, args in added:
            interp.add(pred, args)
        ex.rerun_blocked(interp, added)
    return checked


def test_resumed_rerun_matches_fresh_run(corpus, domain):
    # a rerun continues a blocked run at its query instead of replaying the
    # path to it; every variable, the heap, both fuels, the seed bits and a
    # sentinel run's compared values must come back as a fresh run has them
    d = replace(domain, in_range=(-1, 2), seed_range=(0, 127))
    programs = []
    for name in ("cell-pair-indexed-bad", "list-build-traverse"):
        p = next(e for e in corpus if e.name == name).load()
        programs.append((name, "orig", p))
        programs += [(name, v, encode(p, VARIANTS[v][0]).program)
                     for v in ("r", "rw", "rw_ct")]
        # the read encoding of the budget-instrumented program counts heap
        # operations down in $c, an input that a resume must not reset
        programs.append((name, "n+r", encode(enc_n(p), VARIANTS["r"][0])
                         .program))
    for seed in (0, 27):
        programs.append((seed, "progen",
                         progen.gen_program(seed, allow_havoc=True)))
    # the expanded havoc macro reads the seed in ordinary statements, so
    # seed classing is off and a resume keeps the point's seed value
    programs += [
        (0, "expanded", progen.expand_program_havocs(
            progen.gen_program(0, allow_havoc=True))),
        ("draws", "native", prog(DRAWS_AROUND_QUERY)),
        ("draws", "expanded", progen.expand_program_havocs(
            prog(DRAWS_AROUND_QUERY))),
    ]
    classing = set()
    checked = 0
    for name, variant, p in programs:
        ex = GridExecutor(p, d)
        classing.add((ex.seed_classing, ex.address_classing))
        checked += check_resumed_runs(ex, (name, variant))
    assert classing >= {(True, True), (True, False), (False, False)}
    assert checked > 1000, checked


def test_resumed_runs_of_generated_draws_before_queries(domain):
    # generated programs that draw a value and then query a predicate on
    # it: their runs block with seed bits consumed, so each resume must
    # shift the seed of every seed of the class
    d = replace(domain, in_range=(-1, 1), seed_range=(0, 63))
    drawn = 0
    for seed in range(40):
        ex = GridExecutor(progen.gen_program(seed, draw_then_query=True), d)
        check_resumed_runs(ex, seed)
        drawn += sum(1 for r in ex.rows()
                     if r.blocker is not None and r.weight > 1)
    assert drawn >= 150, drawn


def test_every_run_goes_through_the_class_run_method(corpus, domain,
                                                     monkeypatch):
    # the benchmark's tracer counts runs by wrapping the class attribute
    # CompiledProgram.run; resumed runs must pass through it as fresh ones
    # do, and a fixed point takes exactly as many runs as pinned here (the
    # other seeds of a draw-site node are settled from its draw table; the
    # input of two-level-links under r only indexes R, so its least input
    # stands for the 7 of the range, which took 35 runs; list-build-traverse
    # compares its input with the loop counter, so inputs -3..0 form one
    # class and 1, 2 and 3 one each, which took 95 runs over all 7)
    calls = []
    run = CompiledProgram.run

    def counting_run(self, *args, **kwargs):
        calls.append(kwargs.get("resume") is not None)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(CompiledProgram, "run", counting_run)
    for name, variant, runs in (("two-level-links", "r", 5),
                                ("list-build-traverse", "rw_ct", 77)):
        p = next(e for e in corpus if e.name == name).load()
        calls.clear()
        least_fixpoint_info(encode(p, VARIANTS[variant][0]).program, domain)
        assert len(calls) == runs and any(calls), (name, variant)


@contextmanager
def no_draw_sites():
    """Make every program compiled inside the context find no draw sites,
    so that each seed class blocked at a site's assume is run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp_module._Compiler, "_draw_sites",
                   lambda self, flat: {})
        yield


def check_draw_sites(p, d, label, info=None) -> int:
    """The fixed point, the verdict and the rows of every cell against
    the same program run with no draw sites; returns the number of
    sites.  ``info`` is the program's fixed point at ``d`` if already
    computed."""
    if info is None:
        info = least_fixpoint_info(p, d)
    verdict = verdict_from_executor(p, d, info).to_json()
    with no_draw_sites():
        plain = least_fixpoint_info(p, d)
    assert not plain.executor.compiled.sites
    assert plain.interp == info.interp, label
    assert verdict_from_executor(p, d, plain).to_json() == verdict, label
    assert grid_rows(info.executor) == grid_rows(plain.executor), label
    return len(info.executor.compiled.sites)


# A draw of a three-constructor ADT after an Int draw, in one site.
SITE_ADT_DRAW = """prog {
  adt Shape { dot(); circle(r: Int); rect(w: Int, h: Int); }
  pred P(Int, Shape);
  pred Q(Int);
  input in;
  seed seed;
  var s: Shape; var k: Int;
  havoc(s);
  assume(!is_rect(s) || w(s) < 2);
  assert(P(in, s));
  havoc(k);
  havoc(s);
  assume(P(in, s));
  assert(Q(k + in));
  assert(!is_circle(s) || r(s) != in);
}"""

# The else part's havoc falls into the next one, which the then part
# jumps to: the two are not one site, and the second alone is one.
SITE_AFTER_BRANCH = """prog {
  pred P(Int, Int);
  input in;
  seed seed;
  var x: Int; var y: Int;
  havoc(y);
  assume(-1 <= y && y <= 1);
  assert(P(in, y));
  if (in > 0) {
    x := in;
  } else {
    havoc(x);
  }
  havoc(y);
  assume(P(x, y));
  assert(x + y != 2);
}"""

# The assume reads the drawn variable inside an argument: no site.
SITE_NOT_BARE = """prog {
  pred P(Int);
  input in;
  seed seed;
  var x: Int;
  havoc(x);
  assume(-2 <= x && x <= 2);
  assert(P(x + in));
  havoc(x);
  assume(P(x + 1));
  assert(x != in);
}"""

# nondet draws use no loop fuel; the drawn arguments are not adjacent.
SITE_NONDET = """prog {
  pred P(Int, Int, Int);
  input in;
  seed seed;
  var x: Int; var y: Int;
  nondet(x);
  assume(-1 <= x && x <= 2);
  assert(P(x, in, x - 1));
  nondet(y);
  nondet(x);
  assume(P(x, in, y));
  assert(x * y != in + 3);
}"""


def test_draw_sites_match_per_seed_runs(corpus_matrix, domain, monkeypatch):
    # a run blocked at a draw site stands for its node: the node's other
    # seeds take their rows from the site's draw table, or run from the
    # point when their tuple holds or their draws need more loop fuel than
    # the point has; every leaf, the fixed point and the verdict must be
    # those of running each class
    from_point = []
    run = CompiledProgram.run

    def counting_run(self, **kwargs):
        res = run(self, **kwargs)
        point = kwargs.get("resume")
        if point is not None and point[-1] in self.sites:
            from_point.append(res.outcome.reason
                              if res.outcome == Undefined(FUEL_EXHAUSTED)
                              else None)
        return res

    monkeypatch.setattr(CompiledProgram, "run", counting_run)
    sites = 0
    # the corpus fixed points with sites are the session matrix's
    for name, row in corpus_matrix.items():
        if name == "__build_seconds__":
            continue
        for variant in ("r", "rw", "r_t", "r_c", "rw_ct"):
            sites += check_draw_sites(row.encoded[variant], domain,
                                      (name, variant), row.fixinfo[variant])
    assert sites > 100, sites
    # encoded generated heap programs: more explicit cells whose runs block
    # at a site
    for seed in range(12):
        p = progen.gen_program(seed, allow_havoc=True)
        for e in (enc_r(p), enc_rw(p)):
            check_draw_sites(e.program, domain, ("progen", seed))
    for src in (NARROW_AT_ADDRESS, UNTRACKED_READ_FAILS):
        for d in (domain, replace(domain, seed_range=(5, 200))):
            check_draw_sites(enc_r(prog(src)).program, d, src)
    small = replace(domain, in_range=(-1, 1), seed_range=(0, 63))
    for seed in range(40):
        p = progen.gen_program(seed, draw_then_query=True)
        for fuel in (0, 1, 2, 3, 64):
            check_draw_sites(p, replace(small, loop_fuel=fuel),
                             ("progen", seed, fuel))
    shapes = ((SITE_ADT_DRAW, [2]), (SITE_AFTER_BRANCH, [1]),
              (SITE_NOT_BARE, []), (SITE_NONDET, [2]))
    for src, havocs in shapes:
        p = prog(src)
        assert [len(s._drawers) for s in CompiledProgram(p).sites.values()] \
            == havocs, src
        for fuel in (0, 1, 2, 3, 64):
            check_draw_sites(p, replace(domain, loop_fuel=fuel), (src, fuel))
    # both ways out of the table were taken
    assert FUEL_EXHAUSTED in from_point and None in from_point


def reference_draw(site, s):
    """What the site's draws make of the seed value ``s``, drawn from
    scratch: the drawn arguments' values, the seed bits consumed and the
    loop fuel used."""
    st = interp_module._State([], interp_module._DRAW_FUEL, 0, (), 0, None)
    env = {site._seed_var: s}
    for target, draw in site._drawers:
        env[target] = draw(st, env)
    return (tuple([env[name] for name in site._drawn_args]), st.bits,
            interp_module._DRAW_FUEL - st.loop_fuel)


def check_draw_table(site, s0, count, label):
    """``site.classes(s0, count)`` against drawing every seed value of the
    range one at a time: the classes partition the range, every value of a
    class draws what the class says, and the table lists the classes in
    the order of their least values, with the most loop fuel of any."""
    draws = [reference_draw(site, s0 + k) for k in range(count)]
    table, most = site.classes(s0, count)
    covered = bytearray(count)
    for values, classes in table.items():
        for k, bits, fuel in classes:
            for m in range(k, count, 1 << bits):
                assert draws[m] == (values, bits, fuel), (label, s0 + m)
                assert not covered[m], (label, s0 + m)
                covered[m] = 1
    assert all(covered), label
    expected: dict[tuple, list] = {}
    for k, (values, bits, fuel) in enumerate(draws):
        if covered[k] != 2:
            expected.setdefault(values, []).append((k, bits, fuel))
            covered[k::1 << bits] = b"\x02" * len(range(k, count, 1 << bits))
    assert list(table.items()) == list(expected.items()), label
    assert most == max(fuel for _, _, fuel in draws), label


# Seven draw sites.  The first two have one shape, whatever their
# variables; the nondet draw of the third is another.  The last four draw
# twice and differ only in the draws their arguments take, the last of
# its variable's draws for each.
SITE_SHAPES = """prog {
  pred P(Int);
  pred Q(Int, Int);
  input in;
  seed seed;
  var x: Int; var y: Int;
  havoc(x);
  assume(P(x));
  x := x + 1;
  havoc(y);
  assume(Q(in, y));
  nondet(y);
  assume(P(y));
  havoc(x);
  havoc(y);
  assume(Q(x, y));
  havoc(x);
  havoc(y);
  assume(Q(y, x));
  havoc(y);
  havoc(y);
  assume(Q(in, y));
  havoc(y);
  havoc(x);
  assume(Q(in, y));
  assert(x != y + in);
}"""


def test_draw_tables_match_per_seed_draws(corpus_matrix, domain):
    # every draw table, built in one loop per shape and range, equals the
    # table made by drawing each seed value from scratch
    ranges = ((0, 256), (0, 64), (0, 1), (5, 196), (3, 100))
    sites = shared = 0
    for name, row in corpus_matrix.items():
        if name == "__build_seconds__":
            continue
        for variant, info in row.fixinfo.items():
            compiled = list(info.executor.compiled.sites.values())
            sites += len(compiled)
            for site in compiled:
                for s0, count in ranges:
                    check_draw_table(site, s0, count,
                                     (name, variant, site.start, s0))
            tables = {id(site.classes(0, 256)[0]) for site in compiled}
            shared += len(compiled) - len(tables)
    assert sites > 300 and shared > 50, (sites, shared)
    for src in (SITE_ADT_DRAW, SITE_NONDET, SITE_SHAPES):
        for site in CompiledProgram(prog(src)).sites.values():
            for s0, count in ranges:
                check_draw_table(site, s0, count, (src, site.start, s0))
    # one table per shape and range in an executor, none shared between
    # executors
    p = prog(SITE_SHAPES)
    first, second = (list(GridExecutor(p, domain).compiled.sites.values())
                     for _ in range(2))
    assert len(first) == 7
    tables = [[site.classes(0, 256)[0] for site in sites]
              for sites in (first, second)]
    for own in tables:
        assert own[0] is own[1] and len(set(map(id, own))) == 6
        assert own == tables[0]
    # a nondet draw charges no loop fuel, a havoc of the same type does
    assert first[2].classes(0, 256)[1] == 0 < first[0].classes(0, 256)[1]
    assert set(map(id, tables[0])).isdisjoint(map(id, tables[1]))


def test_leaf_order_does_not_change_the_grid(corpus_matrix, domain):
    # any seed of a class runs as its least seed does, so a class is
    # marked whole wherever a loop meets it: the order in which the seed
    # loops hand back their leaves changes no leaf, fixed point or verdict
    run_seeds = GridExecutor._run_seeds

    def reversed_leaves(self, *args, **kwargs):
        return run_seeds(self, *args, **kwargs)[::-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GridExecutor, "_run_seeds", reversed_leaves)
        for name, row in corpus_matrix.items():
            if name == "__build_seconds__":
                continue
            for variant in ("r", "rw", "r_t", "rw_ct"):
                p, seen = row.encoded[variant], row.fixinfo[variant]
                info = least_fixpoint_info(p, domain)
                label = (name, variant)
                assert grid_rows(info.executor) == grid_rows(seen.executor), \
                    label
                assert info.interp == seen.interp, label
                assert verdict_from_executor(p, domain, info).to_json() == \
                    row.verdicts[variant].to_json(), label


def memory_programs(corpus):
    """Two heap programs whose fixed points rerun through records, with
    every encoding of them."""
    programs = []
    for name in ("two-level-links", "list-indexed-data"):
        entry = next(e for e in corpus if e.name == name)
        p = entry.load()
        programs.append(p)
        programs += [q for v in VARIANTS
                     if (q := encode_variant(entry, p, v)) is not None]
    return programs


def drive_oracle(programs, domain):
    """Each program through the oracle's three entry points: a fixed point,
    one application of T alone (the sweep's path) and a sweep."""
    for p in programs:
        least_fixpoint_info(p, domain)
        GridExecutor(p, domain).run_all(Interpretation.empty())
        sweep_under(p, domain, Interpretation.empty())


def test_fixpoint_leaves_no_cyclic_garbage(corpus, domain, monkeypatch):
    # the oracle's structures free themselves by reference counting: with
    # the cyclic collector off, its entry points leave nothing for it
    programs = memory_programs(corpus)
    resumed = []
    run_class = GridExecutor._run_class

    def counting_run_class(self, cell, interp, start, stride, blocked=None):
        resumed.append(isinstance(blocked, Record))
        return run_class(self, cell, interp, start, stride, blocked)

    monkeypatch.setattr(GridExecutor, "_run_class", counting_run_class)
    gc.collect()
    gc.disable()
    try:
        drive_oracle(programs, domain)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert resumed.count(True) > 100, resumed.count(True)


def test_oracle_keeps_no_memory_between_tasks(corpus, domain):
    # nothing the oracle builds outlives its task (no cache on a module, a
    # class or a program): a second pass over the same tasks leaves as
    # much memory allocated as the first.  A full collection empties the
    # interpreter's free lists, which keep freed tuples allocated.
    programs = memory_programs(corpus)
    drive_oracle(programs, domain)
    tracemalloc.start()
    try:
        drive_oracle(programs, domain)
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        drive_oracle(programs, domain)
        gc.collect()
        second = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert abs(second - first) <= 64 * 1024, (first, second)


# One draw site, after a comparison of ``$last_addr`` once encoded: under
# the empty interpretation its node blocks on every drawn value of x.
SITE_ON_MANY_VALUES = """prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Node;
  pred P(Int);
  input in;
  seed seed;
  var p: Addr; var x: Int;
  p := alloc(node(0, null));
  havoc(x);
  assume(P(x));
  assert(x != 2);
}"""


def test_record_rerun_runs_only_the_added_value(domain, monkeypatch):
    # a record stands for every class of its node that the draw table
    # settled; adding one of its tuples reruns only the classes that drew
    # that value, and the rows are then those of a fresh grid
    source = prog(SITE_ON_MANY_VALUES)
    runs = []
    run = CompiledProgram.run

    def counting_run(self, *args, **kwargs):
        res = run(self, *args, **kwargs)
        runs.append(res.env["x"])
        return res

    monkeypatch.setattr(CompiledProgram, "run", counting_run)
    # the source has no prophecy address; encoded, its allocation compares
    # $last_addr with 1 before the site
    for p, sentinel in ((source, False), (enc_r(source).program, True)):
        ex = GridExecutor(p, domain)
        assert ex.address_classing == sentinel
        ex.run_all(Interpretation.empty())
        cells = [c for c in ex.cells.values() if c.records]
        assert all(len(c.records) == 1 for c in cells)
        assert len(cells) == (2 if sentinel else 1)
        if sentinel:
            (probe,) = [c for c in cells if c.last_addr is ex.any_address]
            assert probe.records[0].compared == {1}
        target = ("P", (1,))
        blockers = set().union(*(c.blockers() for c in cells))
        assert target in blockers and len(blockers) > 2
        classes = [r for r in ex.rows() if r.blocker == target]
        runs.clear()
        interp = Interpretation({"P": {(1,)}})
        assert ex.rerun_blocked(interp, {target}) == set()
        assert runs == [1] * len(classes), runs
        assert not any(r.blocker == target for r in ex.rows())
        assert grid_rows(ex) == grid_rows(fresh_grid(ex, interp)), sentinel


# One draw site per input: every cell's record draws the same values of x,
# and only the undrawn argument ``in`` tells the cells' tuples apart.
SITE_PER_INPUT = """prog {
  pred P(Int, Int);
  input in;
  seed seed;
  var x: Int;
  havoc(x);
  assume(P(in, x));
  assert(x != 2);
}"""


def test_record_rerun_needs_the_undrawn_arguments(domain, monkeypatch):
    # an added tuple reruns only the records whose blocked tuple, with the
    # drawn value put back, is that tuple: P(1, 1) reruns the classes of
    # in = 1 that drew 1, and no class of another input that drew 1 too
    p = prog(SITE_PER_INPUT)
    ex = GridExecutor(p, domain)
    ex.run_all(Interpretation.empty())
    lo, hi = domain.in_range
    assert sorted(ex.cells) == [(i, None) for i in range(lo, hi + 1)]
    assert all(len(c.records) == 1 and not c.leaves
               for c in ex.cells.values())
    target = ("P", (1, 1))
    classes = sorted(r.seed for r in ex.rows() if r.blocker == target)
    assert len(classes) == 3
    assert len([r for r in ex.rows() if r.blocker[1][1] == 1]) == \
        3 * len(ex.cells)
    runs = []
    run = CompiledProgram.run

    def counting_run(self, *args, **kwargs):
        res = run(self, *args, **kwargs)
        runs.append((kwargs["inputs"]["in"], kwargs["inputs"]["seed"],
                     res.env["x"]))
        return res

    monkeypatch.setattr(CompiledProgram, "run", counting_run)
    interp = Interpretation({"P": {(1, 1)}})
    assert ex.rerun_blocked(interp, {target}) == set()
    assert sorted(runs) == [(1, s, 1) for s in classes], runs
    assert grid_rows(ex) == grid_rows(fresh_grid(ex, interp))


def test_rows_partition_the_grid(corpus_matrix, domain):
    # the rows of every matrix task stand for each grid point once: every
    # seed of an (in, address) pair lies in one row, so a record that
    # dropped or double-counted seeds fails here.  The executor of an input
    # class ran the class's least input and stands for each of its inputs.
    for name, row in corpus_matrix.items():
        if name == "__build_seconds__":
            continue
        for variant, info in row.fixinfo.items():
            total = 0
            for ex, inputs in info.classes:
                lo, hi = ex.seed_range
                n = hi - lo + 1
                d = ex.domain
                every = range(d.last_addr_range[0], d.last_addr_range[1] + 1)
                marks: dict[tuple, bytearray] = {}
                points = 0
                for r in ex.rows():
                    points += r.weight * r.addresses
                    if r.last_addr is not ex.any_address:
                        addresses = [r.last_addr]
                    else:
                        addresses = [a for a in every if a not in r.compared]
                    assert len(addresses) == r.addresses, (name, variant)
                    j = r.seed - lo
                    for a in addresses:
                        seen = marks.setdefault((r.in_v, a), bytearray(n))
                        assert not any(seen[j::r.step]), (name, variant, r)
                        seen[j::r.step] = b"\x01" * r.weight
                if d != domain:
                    assert d == replace(domain, in_range=(inputs[0],) * 2)
                    points *= len(inputs)
                total += points * ex.collapsed_multiplier()
            assert total == domain.grid_size(), (name, variant)


# ---------------------------------------------------------------------------
# Input classing: each class's least input stands for the class


def renamed_rows(ex, positions, b):
    """``grid_rows`` of an executor of one input, keyed by address, with
    the input positions of every blocker set to ``b``."""
    def rename(blocker):
        if blocker is None:
            return None
        name, args = blocker
        args = list(args)
        for i in positions.get(name, ()):
            args[i] = b
        return name, tuple(args)
    return {la: [(seed, outcome, rename(blocker), weight, step, compared)
                 for seed, outcome, blocker, weight, step, compared in rows]
            for (_, la), rows in grid_rows(ex).items()}


def check_input_classing(p, d, label, info=None) -> bool:
    """The fixed point, iteration count and verdict against the full-grid
    loop; when the inputs were classed, also the full grid's rows at every
    input against the rows of its class's executor, renamed.  ``info`` is
    the program's fixed point at ``d`` if already computed.  Returns
    whether the inputs were classed."""
    if info is None:
        info = least_fixpoint_info(p, d)
    full = full_grid_fixpoint_info(p, d)
    assert info.interp == full.interp, label
    assert info.iterations == full.iterations, label
    assert verdict_from_executor(p, d, info).to_json() == \
        verdict_from_executor(p, d, full).to_json(), label
    positions = input_positions(p, d)
    classed = info.executor.domain != d
    assert classed == (positions is not None), label
    if not classed:
        assert len(info.classes) == 1, label
        return False
    lo, hi = d.in_range
    assert sorted(b for _, inputs in info.classes for b in inputs) == \
        list(range(lo, hi + 1)), label
    cells = rows_by_cell(full.executor)
    for ex, inputs in info.classes:
        least = inputs[0]
        assert ex.domain == replace(d, in_range=(least, least)), label
        assert ex.compiled is info.executor.compiled, label
        for b in inputs:
            got = {la: [(r.seed, r.outcome, r.blocker, r.weight, r.step,
                         r.compared) for r in rows]
                   for (in_v, la), rows in cells.items() if in_v == b}
            assert got == renamed_rows(ex, positions, b), (label, b)
    return True


def class_inputs(p, d):
    """The inputs of each class of the program's fixed point, in order."""
    return [list(inputs) for _, inputs in least_fixpoint_info(p, d).classes]


def test_input_classing_matches_full_grid_on_matrix(corpus_matrix, domain):
    # every matrix task whose input indexes each of its predicates and is
    # otherwise only compared is run class by class of inputs; its fixed
    # point, iteration count, verdict and rows at each input are those of
    # running every input
    classed = several = 0
    for name, row in corpus_matrix.items():
        if name == "__build_seconds__":
            continue
        for variant, info in row.fixinfo.items():
            if info.executor.domain == domain:
                assert input_positions(info.executor.program, domain) is None
                continue
            p = row.program if variant == "orig" else row.encoded[variant]
            classed += check_input_classing(p, domain, (name, variant), info)
            several += len(info.classes) > 1
    assert (classed, several) == (160, 48)


def test_input_classing_matches_full_grid_generated(domain):
    # encoded generated heap programs, with and without draws; both loops
    # are run only where the inputs are classed, since elsewhere the two
    # are one loop
    d = replace(domain, seed_range=(0, 63))
    classed = 0
    for seed in range(40):
        for havoc in (False, True):
            p = progen.gen_program(seed, allow_havoc=havoc)
            for variant in ("r", "rw", "r_t", "rw_c", "rw_ct"):
                q = encode(p, VARIANTS[variant][0]).program
                if input_positions(q, d) is not None:
                    assert check_input_classing(q, d, (seed, havoc, variant))
                    classed += 1
    assert classed == CLASSED_GENERATED, classed


# Each reads the input other than as a bare argument of a predicate query at
# one position per predicate or a bare operand of a comparison, and classing
# it would change its verdict.
INPUT_NOT_ONLY_AN_INDEX = {
    # P asserted with the input at position 0, assumed with it at 1
    "positions-differ": ("""prog {
      pred P(Int, Int);
      input in;
      assert(P(in, 0));
      assume(P(0, in));
      assert(0);
    }""", "unsafe"),
    "inside-a-constructor": ("""prog {
      adt Box { box(v: Int); }
      pred P(Box);
      input in;
      assert(P(box(in)));
      assume(P(box(0)));
      assert(0);
    }""", "unsafe"),
    "assigned": ("""prog {
      pred P(Int);
      input in;
      assert(P(in));
      in := 0;
      assume(P(in));
      assert(0);
    }""", "unsafe"),
    "havoced": ("""prog {
      pred P(Int);
      input in;
      seed seed;
      assert(P(in));
      havoc(in);
      assume(P(in));
      assert(0);
    }""", "unsafe"),
}

# The input is compared with the other value of each comparison, and P
# holds it: each class's least input stands for the class.  Each entry is
# the source, the verdict, its witness's input and the inputs of each class.
INPUT_COMPARED = {
    "read-by-assume": ("""prog {
      pred P(Int);
      input in;
      assume(in > 0);
      assert(P(in));
    }""", "safe", None, [[-3, -2, -1, 0], [1, 2, 3]]),
    # 2 is a class of one input
    "read-by-if": ("""prog {
      pred P(Int);
      input in;
      if (in = 2) { assert(0); }
      assert(P(in));
    }""", "unsafe", 2, [[-3, -2, -1, 0, 1, 3], [2]]),
    "input-on-the-right": ("""prog {
      pred P(Int);
      input in;
      assert(P(in));
      assume(P(in));
      if (0 < in) { assert(0); }
    }""", "unsafe", 1, [[-3, -2, -1, 0], [1, 2, 3]]),
    "not-equal": ("""prog {
      pred P(Int);
      input in;
      if (in != -3) { assert(P(in)); }
      assume(P(in));
      assert(0);
    }""", "unsafe", -2, [[-3], [-2, -1, 0, 1, 2, 3]]),
    # the other value is drawn, so a class is the inputs between two drawn
    # values that some run compared with
    "drawn-value": ("""prog {
      pred P(Int);
      input in;
      seed seed;
      var x: Int;
      havoc(x);
      if (in < x) { assert(P(in)); assume(P(in)); assert(0); }
    }""", "unsafe", -3, None),
}

# Every input above 0 adds P(in, 0), P(in, 1), P(in, 2) in three
# iterations after P(in, 9); the others converge after P(in, 9).
TWO_LENGTHS = """prog {
  pred P(Int, Int);
  input in;
  var i: Int;
  assert(P(in, 9));
  assume(P(in, 9));
  if (in GUARD) {
    while (i < 3) { assert(P(in, i)); assume(P(in, i)); i := i + 1; }
  }
}"""

# P(1) does not hold the input: asserted at the inputs above 0, it lets the
# run at every input past the assume
INPUT_FREE_PREDICATE = """prog {
  pred P(Int);
  input in;
  if (in > 0) { assert(P(1)); }
  assume(P(1));
  assert(0);
}"""

# Once r-encoded, the input only indexes R, and every run spins in the loop.
LOOP_AFTER_READ = """prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Node;
  input in;
  seed seed;
  var p: Addr; var x: Node; var i: Int;
  p := alloc(node(1, null));
  x := read(p);
  while (data(x) > 0) { i := i + 1; }
}"""

# encodings of generated programs classed at seed range 0..63
CLASSED_GENERATED = 122


def test_input_classing_keeps_the_full_grid():
    d = InputDomain()
    for label, (src, kind) in INPUT_NOT_ONLY_AN_INDEX.items():
        p = prog(src)
        assert query_positions(p, "in") is None, label
        assert not check_input_classing(p, d, label)
        assert check_safety(p, d).kind == kind, label
    # one input: the least input is the range
    p = prog("prog { pred P(Int); input in; assert(P(in)); assume(P(in));"
             " assert(0); }")
    assert query_positions(p, "in") == {"P": (0,)}
    assert check_input_classing(p, InputDomain(), "indexed")
    assert not check_input_classing(p, InputDomain(in_range=(0, 0)), "0:0")


def test_input_free_predicate_keeps_the_full_grid():
    # a tuple asserted at one input unblocks the runs at the others, so the
    # inputs are not independent: classed by comparison outcomes, the
    # inputs -3..0 would be safe and the witness would be in = 1
    d = InputDomain()
    p = prog(INPUT_FREE_PREDICATE)
    assert query_positions(p, "in") == {"P": ()}
    assert input_positions(p, d) is None
    assert not check_input_classing(p, d, "input-free")
    v = check_safety(p, d)
    assert (v.kind, v.witness.inputs["in"]) == ("unsafe", -3)
    assert v.to_json() == verdict_from_executor(
        p, d, full_grid_fixpoint_info(p, d)).to_json()


def test_input_classing_by_comparison_outcomes():
    d = InputDomain()
    for label, (src, kind, witness, classes) in INPUT_COMPARED.items():
        p = prog(src)
        assert check_input_classing(p, d, label)
        v = check_safety(p, d)
        assert v.kind == kind, label
        assert (v.witness and v.witness.inputs["in"]) == witness, label
        if classes is not None:
            assert class_inputs(p, d) == classes, label
    # the drawn values reach above and below the range
    assert len(class_inputs(prog(INPUT_COMPARED["drawn-value"][0]), d)) == 7


def test_classed_cap_waits_for_every_class():
    # one class needs four iterations and the other one; at each cap that
    # the first or the second class exceeds, the error is the full grid's,
    # which holds the tuples of both classes
    for guard, classes in (("> 0", [[-3, -2, -1, 0], [1, 2, 3]]),
                           ("< 1", [[-3, -2, -1, 0], [1, 2, 3]])):
        p = prog(TWO_LENGTHS.replace("GUARD", guard))
        assert class_inputs(p, InputDomain()) == classes
        assert check_input_classing(p, InputDomain(), guard)
        assert least_fixpoint_info(p, InputDomain()).iterations == 4
        for cap in (0, 1, 2, 3):
            d = InputDomain(iteration_cap=cap)
            with pytest.raises(IterationCapExceeded) as want:
                full_grid_fixpoint_info(p, d)
            with pytest.raises(IterationCapExceeded) as got:
                least_fixpoint_info(p, d)
            assert str(got.value) == str(want.value), (guard, cap)
            assert got.value.sizes == want.value.sizes


def test_classed_inconclusive_count_is_the_full_grid_count():
    # the matrix holds no inconclusive verdict: here the classes of the
    # least input that read the node exhaust their fuel, and each counts
    # once per input, as the full grid's verdict does
    d = InputDomain()
    p = enc_r(prog(LOOP_AFTER_READ)).program
    assert check_input_classing(p, d, "loop")
    v = check_safety(p, d)
    assert v.kind == "inconclusive" and v.inconclusive_count > 0


def test_classed_iteration_cap_reports_full_grid_sizes(corpus):
    # six iterations to its fixed point
    entry = next(e for e in corpus if e.name == "two-level-links")
    p = encode_variant(entry, entry.load(), "rw_c")
    for cap in (0, 2, 5):
        d = InputDomain(iteration_cap=cap)
        assert input_positions(p, d) is not None
        with pytest.raises(IterationCapExceeded) as want:
            full_grid_fixpoint_info(p, d)
        with pytest.raises(IterationCapExceeded) as got:
            least_fixpoint_info(p, d)
        assert str(got.value) == str(want.value), cap
        assert got.value.sizes == want.value.sizes
