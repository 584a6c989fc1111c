"""Replay of recorded source runs in the read-invariant encoding.

A trace-mode run records its heap reads and its seed draws in order,
beside its heap writes; a draw as ``(code, nbits)``, the seed bits it
consumed.  ``replay_seed`` joins the draws' codes and the codes of the
values read (``interp.draw_code``, the draw's inverse) into one
``(seed, nbits)``, under which the encoding takes the same path, and
``cosim_check`` compares the final states of the two runs at every
prophecy address.
"""

from __future__ import annotations

from .encode import READ_PRED, V_CNT_ALLOC, V_LAST
from .fixpoint import InputDomain, Interpretation, initial_stack
from .interp import (
    CompiledProgram, RunResult, Undefined, default_obj, draw_code, trace_read,
)
from .lang import Program, Struct


# ---------------------------------------------------------------------------
# Seed construction for executions with known draw sequences


def replay_seed(events: list, last_addr: int,
                encoded: Program) -> tuple[int, int]:
    """``(seed, nbits)``: the seed under which the ``encoded`` program
    replays a source run with the recorded ``events`` at prophecy address
    ``last_addr``, and the seed bits that replay draws.  Each draw of the
    source takes the code it consumed, and each read of another address, a
    havoc in the encoding, takes the code that draws the value read."""
    adts = encoded.adts_by_name()
    heap_ty = encoded.heap_obj_type()
    seed = nbits = 0
    for ev in events:
        if ev[0] == "draw":
            _, code, m = ev
        elif ev[1] != last_addr:
            code, m = draw_code(ev[2], heap_ty, adts)
        else:
            continue
        seed |= code << nbits
        nbits += m
    return seed, nbits


# ---------------------------------------------------------------------------
# Read-trace interpretation and co-simulation


def _source_runs(star: CompiledProgram, domain: InputDomain, counter: int,
                 seed: int) -> list[tuple[int, RunResult]]:
    """(input, run) for every input of the range, of a program compiled in
    trace mode.  The heap fuel exceeds the counter, so that a budget
    counter, not the fuel, bounds the run's heap operations."""
    lo, hi = domain.in_range
    return [(in_v, star.run(
        inputs=initial_stack(star.program, in_v, seed, None, counter),
        loop_fuel=domain.loop_fuel,
        heap_fuel=max(domain.heap_op_fuel, counter + 1)))
        for in_v in range(lo, hi + 1)]


def _read_relation(runs: list[tuple[int, RunResult]]) -> Interpretation:
    """Tuple (input, k, v) of the read predicate for the k-th read of each
    run, which returned v."""
    interp = Interpretation.empty()
    for in_v, res in runs:
        reads = (ev[2] for ev in res.events if ev[0] == "read")
        for k, v in enumerate(reads, start=1):
            interp.add(READ_PRED, (in_v, k, v))
    return interp


class CosimPoint(Struct):
    __slots__ = _fields = ("in_v", "last_addr", "ok", "detail")

    def __init__(self, in_v: int, last_addr: int, ok: bool, detail: str = ""):
        self.in_v = in_v
        self.last_addr = last_addr
        self.ok = ok
        self.detail = detail


class CosimReport(Struct):
    __slots__ = _fields = ("points",)

    def __init__(self, points: list[CosimPoint]):
        self.points = points

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    def failures(self) -> list[CosimPoint]:
        return [p for p in self.points if not p.ok]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "points": len(self.points),
            "failures": [{"in": p.in_v, "lastAddr": p.last_addr,
                          "detail": p.detail} for p in self.failures()],
        }


def cosim_check(p_star: Program, p_encoded: Program, domain: InputDomain,
                *, counter_values: tuple[int, ...] | None = None,
                source_seeds: tuple[int, ...] = (0,)) -> CosimReport:
    """Pointwise final-state preservation between a heap program (with the
    budget counter inserted) and its read-invariant encoding.

    For every (input, prophecy address) pair, the defined execution of the
    encoded program is realised by the ``(seed, nbits)`` of
    ``replay_seed``, at enough loop fuel to draw its ``nbits`` bits.  The
    encoded program runs under the read-trace interpretation, built from
    the same source runs it is compared with:
    one per (counter value, source seed, input).  Checks: equal outcomes,
    equal final values of the common variables (the seed variable is
    excluded: the encoding consumes seed bits the original never touches),
    final ``$last`` equal to the source trace's last write at the prophecy
    address, and final ``$cnt_alloc`` equal to the source's allocation
    count.
    """
    if p_star.seed_var is None or p_encoded.seed_var is None:
        raise ValueError("co-simulation requires seed declarations")
    star = CompiledProgram(p_star, mode="trace")
    enc = CompiledProgram(p_encoded)
    def_obj = default_obj(p_star.heap_adt, p_star.adts_by_name())
    common = [v for v in p_star.var_types
              if v != p_star.seed_var and v in p_encoded.var_types]
    if counter_values is None:
        counter_values = (domain.heap_op_fuel,)
    points: list[CosimPoint] = []
    la_lo, la_hi = domain.last_addr_range
    for n in counter_values:
        for s0 in source_seeds:
            runs = _source_runs(star, domain, n, s0)
            interp = _read_relation(runs)
            for in_v, res1 in runs:
                for la in range(la_lo, la_hi + 1):
                    seed, nbits = replay_seed(res1.events, la, p_encoded)
                    inputs2 = initial_stack(p_encoded, in_v, seed, la, n)
                    res2 = enc.run(inputs=inputs2, interp=interp,
                                   loop_fuel=max(domain.loop_fuel,
                                                 4 * nbits + 8),
                                   heap_fuel=domain.heap_op_fuel)
                    detail = _compare_point(res1, res2, common, la, def_obj)
                    if detail:
                        detail = f"[c={n} seed0={s0}] {detail}"
                    points.append(CosimPoint(in_v, la, detail == "", detail))
    return CosimReport(points)


def _compare_point(res1, res2, common, la, def_obj) -> str:
    o1, o2 = res1.outcome, res2.outcome
    if isinstance(o1, Undefined) or isinstance(o2, Undefined):
        if isinstance(o1, Undefined) and isinstance(o2, Undefined):
            return ""
        return f"outcome mismatch: {o1} vs {o2}"
    if o1 != o2:
        return f"outcome mismatch: {o1} vs {o2}"
    for v in common:
        if res1.env[v] != res2.env[v]:
            return (f"stack mismatch on {v!r}: "
                    f"{res1.env[v]!r} vs {res2.env[v]!r}")
    want = trace_read(res1.heap, res1.heap_len, la, def_obj)
    if res2.env[V_LAST] != want:
        return f"read tracking mismatch: heap[{la}]={want!r} vs {res2.env[V_LAST]!r}"
    if res2.env[V_CNT_ALLOC] != res1.heap_len:
        return (f"allocation count mismatch: |heap|={res1.heap_len} vs "
                f"{res2.env[V_CNT_ALLOC]!r}")
    return ""
