"""Trace-model semantics and its equivalence with the sequence model."""

import pytest

from heapinv.interp import CompiledProgram, ObjVal, TOP, trace_read
from heapinv.lang import parse_and_check

import progen

O1 = ObjVal("node", (1, 0))
O2 = ObjVal("node", (2, 0))
DEF = ObjVal("node", (0, 0))


def test_most_recent_event_wins():
    trace = [(1, O1), (1, O2)]
    assert trace_read(trace, 1, 1, DEF) == O2


def test_read_from_empty_trace():
    assert trace_read([], 0, 1, DEF) == DEF


def test_never_allocated_address_reads_default():
    # an event exists, but the address was never handed out by an allocation
    trace = [(5, O1)]
    assert trace_read(trace, 2, 5, DEF) == DEF


def test_invalid_write_event_is_masked_until_allocation():
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var p: Addr; var q: Addr; var x: Node;
      q := alloc(defObj);
      p := alloc(defObj);
      write(p, node(7, null));
      x := read(p);
    }"""
    p = parse_and_check(src)
    heap = CompiledProgram(p, mode="heap").run()
    trace = CompiledProgram(p, mode="trace").run()
    assert heap.outcome == trace.outcome == TOP
    assert heap.env == trace.env
    assert heap.env["x"] == ObjVal("node", (7, 0))


def test_alloc_event_supersedes_earlier_invalid_write():
    # write to a not-yet-allocated address, then allocate it: the read must
    # see the allocation's object, not the stale event
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var p: Addr; var q: Addr; var x: Node;
      p := alloc(defObj);
      p := p;
      write(q, node(9, null));
      q := alloc(node(1, null));
      x := read(q);
      assert(data(x) = 1);
    }"""
    # q starts at 0 (null); make the stale write target address 2 instead
    src = src.replace("write(q, node(9, null));",
                      "q := alloc(defObj); write(q, node(9, null));")
    p = parse_and_check(src)
    heap = CompiledProgram(p, mode="heap").run()
    trace = CompiledProgram(p, mode="trace").run()
    assert heap.outcome == trace.outcome == TOP
    assert heap.env == trace.env


def test_write_value_is_evaluated_only_at_a_valid_address():
    # p is null, so the write is a no-op in both models and its value, which
    # divides by zero, is never evaluated (the encoder evaluates a written
    # value only under valid(addr) as well)
    src = """prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var p: Addr; var x: Int;
      x := 0;
      write(p, node(1 / x, null));
    }"""
    p = parse_and_check(src)
    heap = CompiledProgram(p, mode="heap").run()
    trace = CompiledProgram(p, mode="trace").run()
    assert heap.outcome == trace.outcome == TOP
    assert heap.env == trace.env
    assert heap.heap_len == trace.heap_len == 0


def test_trace_mode_run_records_writes_and_reads():
    p = parse_and_check("""prog {
      adt Node { node(data: Int, next: Addr); }
      heaptype Node;
      var p: Addr; var x: Node;
      p := null;
      p := alloc(node(3, null));
      x := read(p);
    }""")
    inputs = {"p": 0, "x": DEF}
    res = CompiledProgram(p, mode="trace").run(inputs, loop_fuel=8,
                                               heap_fuel=8)
    assert res.outcome == TOP
    assert res.env["x"] == ObjVal("node", (3, 0))
    assert res.heap == [(1, ObjVal("node", (3, 0)))]
    assert res.events == [("read", 1, ObjVal("node", (3, 0)))]
    assert inputs == {"p": 0, "x": DEF}


def test_modes_agree_on_sample():
    for seed in range(30):
        p = progen.gen_program(seed, allow_havoc=(seed % 3 == 0))
        progen.compare_heap_and_trace(p, (-2, 0, 1, 3), (0, 255))


def test_modes_agree_on_corpus(corpus, domain):
    in_values = list(range(domain.in_range[0], domain.in_range[1] + 1))
    for entry in corpus:
        progen.compare_heap_and_trace(
            entry.load(), in_values, domain.seed_range,
            loop_fuel=domain.loop_fuel, heap_fuel=domain.heap_op_fuel)


def test_trace_mode_records_draws_and_cannot_resume():
    p = parse_and_check("""prog {
      pred P(Int);
      seed seed;
      var k: Int;
      havoc(k);
      assume(P(k));
    }""")
    heap, trace = CompiledProgram(p), CompiledProgram(p, mode="trace")
    # draw sites are looked for in the sequence model only
    assert list(heap.sites) == [0] and trace.sites == {}
    stopped = heap.run({"seed": 6})
    res = trace.run({"seed": 6})
    # seed 6 = 0b0110: sign bit 0, one digit 1, then the stop bit
    assert res.env["k"] == stopped.env["k"] == 1
    assert res.events == [("draw", 6, 4)]
    assert res.blocker == stopped.blocker == ("P", (1,))
    with pytest.raises(ValueError, match="cannot resume"):
        trace.run({"seed": 6}, resume=stopped.resume)
