"""Acceptance gate: one test per criterion, each printing a verdict line.

Budgets are asserted with the wall-clock bound each criterion states; the
shared corpus matrix (all fixed points and verdicts) is built once per
session and its build time is charged to the equi-safety criterion.
"""

import itertools
import random
import time
from operator import itemgetter

import pytest

from heapinv.chc import default_solver_command, emit_smtlib, solve, to_chc
from heapinv.encode import enc_n, enc_r
from heapinv.fixpoint import (
    Interpretation, check_safety, immediate_consequence, sweep_under,
)
from heapinv.formula import load_interpretation
from heapinv.interp import (
    TOP, CompiledProgram, ObjVal, Top, default_obj, draw_code,
)
from heapinv.lang import parse_and_check
from heapinv.replay import cosim_check, replay_seed

import progen


def report(number, elapsed, budget, message):
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.2f}s < {budget:.0f}s): {message}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------
# 1. heap operation laws, exhaustively up to length 4


def heap_law_program(n: int):
    """Allocate n drawn objects, read every address 0..n+2, write a drawn
    object at address ``q``, read every address again, then allocate one
    more drawn object and read it back.  The addresses ``q`` and ``a0`` ..
    ``a{n+2}`` are inputs: the language has no Int-to-Addr conversion."""
    addrs = range(n + 3)
    decls = "".join(
        [f"var p{k}: Addr;\n" for k in range(1, n + 1)]
        + [f"var a{b}: Addr; var x{b}: Bit; var y{b}: Bit;\n" for b in addrs])
    body = "".join(
        [f"havoc(o); p{k} := alloc(o);\n" for k in range(1, n + 1)]
        + [f"x{b} := read(a{b});\n" for b in addrs]
        + ["havoc(w); write(q, w);\n"]
        + [f"y{b} := read(a{b});\n" for b in addrs]
        + ["havoc(v); z := alloc(v); zr := read(z);\n"])
    return parse_and_check(
        "prog {\nadt Bit { zero(b: Int); one(c: Int); }\nheaptype Bit;\n"
        "seed seed;\nvar o: Bit; var w: Bit; var v: Bit; var zr: Bit;\n"
        "var q: Addr; var z: Addr;\n" + decls + body + "}\n")


def joined_seed(codes) -> int:
    """The seed whose draws give the ``(code, nbits)`` codes in turn."""
    seed = nbits = 0
    for code, m in codes:
        seed |= code << nbits
        nbits += m
    return seed


def check_heap_laws(lengths) -> tuple[int, int]:
    """Assert the laws on every heap of each length, in the compiled heap
    and trace models; return the (heap, address, object) cases checked and
    the runs they took."""
    objs = [ObjVal("zero", (0,)), ObjVal("zero", (1,)),
            ObjVal("one", (0,)), ObjVal("one", (1,))]
    checked = runs = 0
    for n in lengths:
        program = heap_law_program(n)
        adts = program.adts_by_name()
        def_obj = default_obj("Bit", adts)
        assert def_obj == objs[0]
        code_of = [draw_code(o, program.var_types["o"], adts) for o in objs]
        addrs = range(n + 3)
        # one tuple per run: the allocated addresses, the reads before and
        # after the write, and the final object read back
        observe = itemgetter(*[f"p{k}" for k in range(1, n + 1)], "z",
                             *[f"x{b}" for b in addrs],
                             *[f"y{b}" for b in addrs], "zr")
        inputs = {f"a{b}": b for b in addrs}
        compiled = [CompiledProgram(program, mode=mode)
                    for mode in ("heap", "trace")]
        for heap in itertools.product(range(4), repeat=n):
            # the default object outside the allocated range
            before = [objs[heap[b - 1]] if 0 < b <= n else def_obj
                      for b in addrs]
            for w in range(4):
                # the last allocation draws each object once per heap
                v = (w + 1) % 4
                inputs["seed"] = joined_seed(
                    [*(code_of[k] for k in heap), code_of[w], code_of[v]])
                for q in addrs:
                    inputs["q"] = q
                    # a write changes only its own valid address; an
                    # invalid write is a no-op
                    after = list(before)
                    if 0 < q <= n:
                        after[q] = objs[w]
                    # allocation appends: addresses 1..n+1, the count n+1,
                    # and the last object reads back
                    want = (TOP, n + 1, (*range(1, n + 2), *before, *after,
                                         objs[v]))
                    for cp in compiled:
                        res = cp.run(inputs)
                        got = (res.outcome, res.heap_len, observe(res.env))
                        assert got == want, (cp.mode, heap, q, w)
                    runs += 2
                    checked += 1
    return checked, runs


def test_criterion_1_heap_law_suite():
    # the laws are checked on the compiled runtime, the heap that every
    # oracle run uses, in both of its models
    t0 = time.time()
    checked, runs = check_heap_laws(range(5))
    elapsed = time.time() - t0
    report(1, elapsed, 1.0,
           f"read/write/allocate laws hold on all {checked} "
           "(heap, address, object) cases up to length 4 in the compiled "
           f"heap and trace models ({runs} runs)")


# ---------------------------------------------------------------------------
# 2. trace/heap bisimulation over generated programs


def test_criterion_2_trace_heap_bisimulation(domain):
    t0 = time.time()
    in_values = list(range(domain.in_range[0], domain.in_range[1] + 1))
    programs = 0
    executions = 0
    for seed in range(500):
        p = progen.gen_program(seed, allow_havoc=(seed % 10 == 0))
        executions += progen.compare_heap_and_trace(
            p, in_values, domain.seed_range,
            loop_fuel=domain.loop_fuel, heap_fuel=domain.heap_op_fuel)
        programs += 1
    elapsed = time.time() - t0
    report(2, elapsed, 60.0,
           f"{programs} generated programs agree between heap and trace "
           f"models on outcome and final stacks ({executions} executions)")


# ---------------------------------------------------------------------------
# 3. fixpoint suite


def test_criterion_3_fixpoint_suite(domain, corpus_matrix):
    t0 = time.time()
    # monotonicity on 200 sampled interpretation pairs
    rng = random.Random(2024)
    pool = [(v,) for v in range(-3, 4)]
    pairs = 0
    while pairs < 200:
        p = progen.gen_program(rng.randrange(120))
        small = {t for t in pool if rng.random() < 0.4}
        big = small | {t for t in pool if rng.random() < 0.4}
        t_small = immediate_consequence(p, Interpretation({"P": small}), domain)
        t_big = immediate_consequence(p, Interpretation({"P": big}), domain)
        assert progen.is_subset(t_small, t_big)
        pairs += 1

    # the computed interpretation really is a fixed point, and the read
    # (and write) relations are partial functions of their first arguments
    exact = 0
    functional = 0
    for name, row in corpus_matrix.items():
        if name.startswith("__"):
            continue
        for variant in ("r", "rw"):
            info = row.fixinfo[variant]
            program = row.encoded[variant]
            again = immediate_consequence(program, info.interp, domain)
            assert again == info.interp, (name, variant)
            exact += 1
            preds = ["R"] if variant == "r" else ["R", "W"]
            for pred in preds:
                seen = {}
                for tup in info.interp.tuples(pred):
                    key, value = tup[:2], tup[2:]
                    assert seen.setdefault(key, value) == value, \
                        (name, variant, pred, key)
                functional += 1
    elapsed = time.time() - t0
    report(3, elapsed, 60.0,
           f"operator monotone on {pairs} pairs; T(I*) = I* exactly on "
           f"{exact} encoded programs; {functional} relations functionally "
           "consistent")


# ---------------------------------------------------------------------------
# 4. equi-safety across the corpus and encoding variants


def test_criterion_4_equisafety_suite(corpus_matrix):
    t0 = time.time()
    agree = 0
    for name, row in corpus_matrix.items():
        if name.startswith("__"):
            continue
        entry = row.entry
        base = row.verdicts["orig"].kind
        assert base == entry.expected, f"{name}: oracle label changed"
        for variant, verdict in row.verdicts.items():
            if variant in ("orig", "rwmem"):
                continue
            assert verdict.kind == base, \
                f"{name}: {variant} gives {verdict.kind}, original {base}"
            agree += 1
        # the memory-error checker flags exactly the invalid accesses
        if "rwmem" in row.verdicts:
            expect = "unsafe" if entry.invalid_access else "safe"
            assert row.verdicts["rwmem"].kind == expect, name
            agree += 1
    build = corpus_matrix["__build_seconds__"]
    elapsed = time.time() - t0 + build
    report(4, elapsed, 300.0,
           f"{agree} encoding verdicts agree across the corpus "
           f"(fixed points built in {build:.1f}s)")


# ---------------------------------------------------------------------------
# 5. co-simulation of final states


def test_criterion_5_cosimulation(domain, corpus):
    t0 = time.time()
    points = 0
    for entry in corpus:
        p = entry.load()
        p_star = enc_n(p)
        encoded = enc_r(p_star).program
        rep = cosim_check(p_star, encoded, domain,
                          counter_values=(domain.heap_op_fuel, 0, 2))
        assert rep.ok, f"{entry.name}: {rep.failures()[:3]}"
        points += len(rep.points)
    elapsed = time.time() - t0
    report(5, elapsed, 120.0,
           f"outcome, stack, read-tracking and allocation-count "
           f"preservation hold at {points} grid points")


# ---------------------------------------------------------------------------
# 6. the solved invariant is executable and accepted


def test_criterion_6_solved_invariant_check(domain, corpus):
    t0 = time.time()
    from importlib import resources
    entry = next(e for e in corpus if e.name == "list-build-traverse")
    p = entry.load()
    enc = enc_r(p)
    fixture = str(resources.files("heapinv.fixtures")
                  .joinpath("list_invariant.json"))
    interp = load_interpretation(fixture, enc.program)
    verdict = sweep_under(enc.program, domain, interp)
    assert verdict.kind == "safe", verdict

    # construct completing seeds: every (input, prophecy address) pair has a
    # fully defined execution, and it succeeds under the invariant
    star = CompiledProgram(p, mode="trace")
    encoded = CompiledProgram(enc.program)
    tops = 0
    lo, hi = domain.in_range
    for in_v in range(lo, hi + 1):
        res1 = star.run(inputs={"in": in_v}, loop_fuel=domain.loop_fuel,
                        heap_fuel=domain.heap_op_fuel)
        for la in range(domain.last_addr_range[0],
                        domain.last_addr_range[1] + 1):
            seed, nbits = replay_seed(res1.events, la, enc.program)
            res2 = encoded.run(
                inputs={"in": in_v, "seed": seed, "$last_addr": la},
                interp=interp,
                loop_fuel=max(domain.loop_fuel, 4 * nbits + 8),
                heap_fuel=domain.heap_op_fuel)
            assert isinstance(res2.outcome, Top), (in_v, la, res2.outcome)
            tops += 1
    elapsed = time.time() - t0
    report(6, elapsed, 10.0,
           f"the four-case invariant accepts the encoded list program: "
           f"no failure on the grid, {tops} constructed executions succeed")


# ---------------------------------------------------------------------------
# 7. argument removal: sound, and incomplete exactly where predicted


def test_criterion_7_abstraction_incompleteness(domain, corpus_matrix):
    t0 = time.time()
    unsafe_kept = 0
    flipped = []
    for name, row in corpus_matrix.items():
        if name.startswith("__"):
            continue
        dropped = enc_r(row.program, drop_args=(("R", 1),))
        verdict = check_safety(dropped.program, domain)
        if row.entry.expected == "unsafe":
            assert verdict.kind == "unsafe", \
                f"{name}: dropping the counter lost the failure"
            unsafe_kept += 1
        elif verdict.kind == "unsafe":
            flipped.append(name)
    assert "cell-pair-indexed" in flipped, \
        "the read-order-sensitive program must become refutable"
    elapsed = time.time() - t0
    report(7, elapsed, 120.0,
           f"all {unsafe_kept} unsafe programs stay unsafe without the "
           f"counter argument; safe programs flipped: {sorted(flipped)}")


# ---------------------------------------------------------------------------
# 8. Horn solver smoke test (environment-gated)


def test_criterion_8_chc_smoke(tmp_path, corpus):
    if default_solver_command() is None:
        print("\nACCEPTANCE 8 SKIP: no Horn solver present "
              "(set HEAPINV_SOLVER or install z3); emitted files are "
              "checked structurally elsewhere")
        pytest.skip("no Horn solver installed")
    t0 = time.time()

    def emit(name, program):
        path = tmp_path / name
        path.write_text(emit_smtlib(to_chc(program)))
        return str(path)

    falsy = parse_and_check("prog { assert(0); }")
    res = solve(emit("false.smt2", falsy), timeout=60)
    assert res.kind == "unsat", res

    entry = next(e for e in corpus if e.name == "single-cell-roundtrip")
    safe = enc_r(entry.load(), native_havoc=True).program
    res = solve(emit("safe.smt2", safe), timeout=120)
    assert res.kind == "sat", res

    lst = next(e for e in corpus if e.name == "list-build-traverse")
    encoded = enc_r(lst.load(), native_havoc=True).program
    res = solve(emit("list.smt2", encoded), timeout=300)
    assert res.kind == "sat", res
    elapsed = time.time() - t0
    report(8, elapsed, 500.0,
           "external solver refutes the failing program and certifies the "
           "safe ones")
