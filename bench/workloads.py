"""The benchmark's workloads: their task lists, one task's work, and the
correctness checks that run after the timed passes.

A task is one (corpus program, variant) pair.  The variant list below is
the acceptance gate's matrix, kept here as the benchmark's own data so
that a change to the library's registries cannot silently change what is
measured.

Every function that touches the library receives ``lib``, a namespace of
heapinv's modules, and calls through module attributes at call time, so
the tracer's wrappers (installed on those modules) see every call.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

# name, EncodingConfig arguments (None: no heap encoding), corpus flag that
# must hold for the variant to be in the matrix
VARIANTS = (
    ("orig", None, None),
    ("n", None, None),
    ("r", {"base": "r"}, None),
    ("rw", {"base": "rw"}, None),
    ("r_t", {"base": "r", "tagging": True}, None),
    ("r_c", {"base": "r", "caching": True}, None),
    ("rw_c", {"base": "rw", "caching": True}, None),
    ("rw_ct", {"base": "rw", "caching": True, "tagging": True}, None),
    ("rwmem", {"base": "rwmem", "strip_asserts": True}, None),
    ("rw_t", {"base": "rw", "tagging": True}, "rw_tagged_visible"),
    ("rwfun", {"base": "rwfun", "assume_memsafe": True}, "memory_safe"),
    ("r_scope", {"base": "r"}, "scope_var"),
)

# the program/variant whose SMT-LIB rendering is checked in tests/golden
GOLDEN_PROGRAM = "list-build-traverse"
GOLDEN_VARIANT = "r_native"
GOLDEN_FILE = "tests/golden/list_encoded.smt2"

# programs of the short mode: one safe and one unsafe, both cheap
SHORT_PROGRAMS = ("trivially-false", "no-heap-arith")

# sweep tasks whose T(empty) is recomputed without seed classing
SWEEP_CHECK_SAMPLE = 4


@dataclass
class Task:
    id: str            # "program/variant"
    entry: object      # heapinv.corpus.CorpusEntry
    variant: str
    config: dict | None
    program: object = None   # parsed (and encoded) program, matrix/sweep
    source: str = ""         # program text, emit


def _config(entry, variant: str, cfg: dict | None) -> dict | None:
    if variant == "r_scope":
        return dict(cfg, scope_vars=(entry.scope_var,))
    return cfg


def variant_pairs(corpus):
    """(entry, variant, config) for every task of the matrix."""
    for entry in corpus:
        for variant, cfg, flag in VARIANTS:
            if flag is None or getattr(entry, flag):
                yield entry, variant, _config(entry, variant, cfg)


def _encoded(lib, program, variant, cfg):
    if variant == "orig":
        return program
    if variant == "n":
        return lib.encode.enc_n(program)
    return lib.encode.encode(program, lib.encode.EncodingConfig(**cfg)).program


def grid_tasks(lib, corpus) -> list[Task]:
    """Tasks of `matrix` and `sweep`: programs parsed and encoded up front."""
    tasks = []
    parsed = {}
    for entry, variant, cfg in variant_pairs(corpus):
        if entry.name not in parsed:
            parsed[entry.name] = entry.load()
        prog = _encoded(lib, parsed[entry.name], variant, cfg)
        tasks.append(Task(f"{entry.name}/{variant}", entry, variant, cfg, prog))
    return tasks


def emit_tasks(lib, corpus) -> list[Task]:
    """Tasks of `emit`: every heap-encoded variant plus the golden pair.
    Only the source text is prepared; parsing is part of the task."""
    tasks = []
    for entry, variant, cfg in variant_pairs(corpus):
        if cfg is not None:
            tasks.append(Task(f"{entry.name}/{variant}", entry, variant, cfg,
                              source=entry.source()))
    golden = [e for e in corpus if e.name == GOLDEN_PROGRAM]
    for entry in golden:
        tasks.append(Task(f"{entry.name}/{GOLDEN_VARIANT}", entry,
                          GOLDEN_VARIANT, {"base": "r", "native_havoc": True},
                          source=entry.source()))
    return tasks


# ---------------------------------------------------------------------------
# one task's work (the timed part)


def run_matrix(lib, domain, task: Task):
    info = lib.fixpoint.least_fixpoint_info(task.program, domain)
    verdict = lib.fixpoint.verdict_from_executor(task.program, domain, info)
    return info, verdict


def run_sweep(lib, domain, task: Task):
    ex = lib.fixpoint.GridExecutor(task.program, domain)
    ex.run_all(lib.fixpoint.Interpretation.empty())
    return ex, ex.failing_tuples()


def run_emit(lib, domain, task: Task):
    program = lib.lang.parse_and_check(task.source)
    encoded = lib.encode.encode(program, lib.encode.EncodingConfig(**task.config))
    text = lib.chc.emit_smtlib(lib.chc.to_chc(encoded.program))
    return encoded.program, text


# ---------------------------------------------------------------------------
# what a pass keeps of its results for the checks, and the checks
#
# Each check returns one bool per task of a pass, in task-list order.


def keep_matrix(result):
    return result[1].kind


def keep_sweep(result):
    return result[1]


def keep_emit(result):
    return result


def executor_stats(executor, iterations: int, tuples: int) -> dict:
    leaves = [leaf for cell in executor.cells.values() for leaf in cell.leaves]
    return {"iterations": iterations, "tuples": tuples, "leaves": len(leaves),
            "seeds": sum(leaf.weight for leaf in leaves)}


def stats_matrix(result) -> dict:
    info = result[0]
    return executor_stats(info.executor, info.iterations,
                          info.interp.total_size())


def stats_sweep(result) -> dict:
    return executor_stats(result[0], 0, len(result[1]))


def check_matrix(lib, domain, tasks, kept, root, rng) -> list[bool]:
    orig = {t.entry.name: kind for t, kind in zip(tasks, kept)
            if t.variant == "orig"}
    ok = []
    for t, kind in zip(tasks, kept):
        if t.variant == "orig":
            want = t.entry.expected
        elif t.variant == "rwmem":
            want = "unsafe" if t.entry.invalid_access else "safe"
        else:
            want = orig.get(t.entry.name)
        ok.append(kind == want)
    return ok


def reference_failing_tuples(lib, domain, program) -> set:
    """T(empty) by running every grid point with every seed: no seed
    classing and no collapsing of unread dimensions."""
    fp = lib.fixpoint
    compiled = lib.interp.CompiledProgram(program)
    in_lo, in_hi = domain.in_range
    las = (range(domain.last_addr_range[0], domain.last_addr_range[1] + 1)
           if fp.LAST_ADDR_VAR in program.var_types else (None,))
    seeds = (range(domain.seed_range[0], domain.seed_range[1] + 1)
             if program.seed_var is not None else (None,))
    out = set()
    for in_v in range(in_lo, in_hi + 1):
        for la in las:
            for seed in seeds:
                inputs = {}
                if program.input_var is not None:
                    inputs[program.input_var] = in_v
                if la is not None:
                    inputs[fp.LAST_ADDR_VAR] = la
                if seed is not None:
                    inputs[program.seed_var] = seed
                if fp.COUNTER_VAR in program.var_types:
                    inputs[fp.COUNTER_VAR] = domain.heap_op_fuel
                o = compiled.run(inputs=inputs, loop_fuel=domain.loop_fuel,
                                 heap_fuel=domain.heap_op_fuel).outcome
                if isinstance(o, lib.interp.Bot) and o.pred != lib.lang.FAILURE_PRED:
                    out.add((o.pred, o.args))
    return out


def check_sweep(lib, domain, tasks, kept, root, rng) -> list[bool]:
    sample = set(rng.sample(range(len(tasks)),
                            min(SWEEP_CHECK_SAMPLE, len(tasks))))
    return [i not in sample
            or kept[i] == reference_failing_tuples(lib, domain, t.program)
            for i, t in enumerate(tasks)]


def check_emit(lib, domain, tasks, kept, root, rng) -> list[bool]:
    golden = (root / GOLDEN_FILE).read_text(encoding="utf-8")
    ok = []
    for t, (program, text) in zip(tasks, kept):
        good = lib.encode.encoding_is_heap_free(program)
        if t.variant == GOLDEN_VARIANT:
            good = good and text == golden
        ok.append(good)
    return ok


def same_text(first, later) -> bool:
    """SMT-LIB must be byte-identical across passes."""
    return first[1] == later[1]


@dataclass(frozen=True)
class Workload:
    build: object    # (lib, corpus) -> tasks
    run: object      # (lib, domain, task) -> result
    keep: object     # result -> what the check needs
    check: object    # (lib, domain, tasks, kept, root, rng) -> [bool]
    stats: object = None       # result -> fixpoint counts, traced runs only
    # (kept by the first pass, kept by a later pass) -> same output
    repeat_ok: object = operator.eq


WORKLOADS = {
    "matrix": Workload(grid_tasks, run_matrix, keep_matrix,
                       check_matrix, stats=stats_matrix),
    "sweep": Workload(grid_tasks, run_sweep, keep_sweep, check_sweep,
                      stats=stats_sweep),
    "emit": Workload(emit_tasks, run_emit, keep_emit, check_emit,
                     repeat_ok=same_text),
}


def in_short_mode(task: Task) -> bool:
    """The short mode's tiny subset: two cheap programs and the golden pair."""
    return task.entry.name in SHORT_PROGRAMS or task.variant == GOLDEN_VARIANT


def task_order(n: int, seed: int) -> list[int]:
    """The order a pass runs its tasks in: a permutation drawn from the seed."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order
