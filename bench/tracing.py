"""Spans around heapinv's public entry points, recorded from outside.

The tracer replaces each entry point with a wrapper: on the module that
defines it, on every heapinv module that re-exports it, and on the class
for methods.  A wrapper opens a span (name, start, end, parent, task id)
and closes it when the call returns.  ``CompiledProgram.run`` is called
about a million times per matrix pass, so it adds a count and busy time to
the innermost open span instead of making spans of its own.

Work the tracer does itself (counting statements, leaves and clauses) is
timed and charged to the open span as ``excluded`` so that self times do
not include it; the rest of the wrappers' cost shows as tracing overhead.
"""

from __future__ import annotations

import sys
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "runs", "run_s",
                 "excluded", "attrs")

    def __init__(self, name, start, parent, task):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.task = task
        self.runs = 0
        self.run_s = 0.0
        self.excluded = 0.0
        self.attrs = {}

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.task,
                self.runs, self.run_s, self.excluded, self.attrs]


def _count_stmts(lib, program) -> int:
    return sum(1 for _ in lib.lang.walk_statements(program.body))


class Tracer:
    """Records spans in memory; ``install``/``uninstall`` patch the library."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.task = None
        self._patches = []   # (owner, attribute, original value)

    # spans

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, perf_counter(), parent, self.task)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    def _charge(self, t0: float) -> None:
        """Charge the tracer's own work since t0 to the open span."""
        if self.stack:
            self.spans[self.stack[-1]].excluded += perf_counter() - t0

    # wrappers

    def _span_wrapper(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                t0 = perf_counter()
                pre = before(*args, **kwargs)
                tracer._charge(t0)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            t0 = perf_counter()
            if before is not None:
                span.attrs.update(pre)
            if after is not None:
                span.attrs.update(after(result))
            tracer._charge(t0)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _run_wrapper(self, fn):
        spans, stack = self.spans, self.stack

        def run(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = spans[stack[-1]]
                span.runs += 1
                span.run_s += perf_counter() - t0
        run.__wrapped__ = fn
        return run

    def _patch_function(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "heapinv"
                                      or name.startswith("heapinv.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, lib) -> None:
        fp, interp, chc, enc, lang = (lib.fixpoint, lib.interp, lib.chc,
                                      lib.encode, lib.lang)

        def stmts_in(result):
            return {"stmts": _count_stmts(lib, result)}

        def stmts_out(result):
            program = getattr(result, "program", result)
            return {"stmts": _count_stmts(lib, program)}

        def clause_counts(cs):
            return {"predicates": len(cs.preds), "clauses": len(cs.clauses),
                    "max_arity": max((len(s) for s in cs.preds.values()),
                                     default=0)}

        def smt_bytes(text):
            return {"bytes": len(text.encode("utf-8"))}

        def rerun_leaves(executor, interp_, added):
            leaves = useful = 0
            for cell in executor.cells.values():
                if cell.blockers() & added:
                    leaves += len(cell.leaves)
                    useful += sum(1 for leaf in cell.leaves
                                  if leaf.blocker in added)
            return {"leaves": leaves, "useful": useful}

        functions = (
            (lang.parse_and_check, "lang.parse", None, stmts_in),
            (enc.enc_n, "encode", None, stmts_out),
            (enc.encode, "encode", None, stmts_out),
            (fp.least_fixpoint_info, "fixpoint.lfp", None, None),
            (fp.verdict_from_executor, "fixpoint.verdict", None, None),
            (chc.to_chc, "chc.translate", None, clause_counts),
            (chc.emit_smtlib, "chc.emit", None, smt_bytes),
        )
        for fn, name, before, after in functions:
            self._patch_function(fn, self._span_wrapper(name, fn, before, after))
        methods = (
            (interp.CompiledProgram, "__init__", "interp.compile", None),
            (fp.GridExecutor, "run_all", "fixpoint.run_all", None),
            (fp.GridExecutor, "rerun_blocked", "fixpoint.rerun", rerun_leaves),
            (fp.GridExecutor, "failing_tuples", "fixpoint.harvest", None),
        )
        for cls, attr, name, before in methods:
            self._patch_method(cls, attr, self._span_wrapper(
                name, cls.__dict__[attr], before))
        self._patch_method(interp.CompiledProgram, "run", self._run_wrapper(
            interp.CompiledProgram.__dict__["run"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # results

    def self_time(self, index: int, children: dict) -> float:
        span = self.spans[index]
        covered = sum(self.spans[c].end - self.spans[c].start
                      for c in children.get(index, ()))
        return span.end - span.start - covered - span.run_s - span.excluded

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics of one pass: totals over the traced spans
        divided by the number of traced passes."""
        children: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(i)
        time_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        attrs: dict[str, float] = {}
        runs: dict[str, int] = {}
        fixpoint_self = 0.0
        run_s = 0.0
        for i, span in enumerate(self.spans):
            time_s[span.name] = time_s.get(span.name, 0.0) + span.end - span.start
            calls[span.name] = calls.get(span.name, 0) + 1
            for key, value in span.attrs.items():
                k = f"{span.name}.{key}"
                attrs[k] = attrs.get(k, 0) + value
            runs[span.name] = runs.get(span.name, 0) + span.runs
            run_s += span.run_s
            if span.name.startswith("fixpoint."):
                fixpoint_self += self.self_time(i, children)
        max_arity = max((s.attrs["max_arity"] for s in self.spans
                         if s.name == "chc.translate"), default=0)
        total_runs = sum(runs.values())
        rerun_leaves = attrs.get("fixpoint.rerun.leaves", 0)
        leaves_final = attrs.get("task.leaves", 0)
        per = 1.0 / passes
        return {
            "lang.parse_s": time_s.get("lang.parse", 0.0) * per,
            "lang.calls": calls.get("lang.parse", 0) * per,
            "lang.stmts_in": attrs.get("lang.parse.stmts", 0) * per,
            "encode.encode_s": time_s.get("encode", 0.0) * per,
            "encode.calls": calls.get("encode", 0) * per,
            "encode.stmts_out": attrs.get("encode.stmts", 0) * per,
            "interp.compile_s": time_s.get("interp.compile", 0.0) * per,
            "interp.compiles": calls.get("interp.compile", 0) * per,
            "interp.runs": total_runs * per,
            "interp.run_s": run_s * per,
            "interp.us_per_run": run_s / total_runs * 1e6 if total_runs else 0.0,
            "fixpoint.lfp_s": time_s.get("fixpoint.lfp", 0.0) * per,
            "fixpoint.run_all_s": time_s.get("fixpoint.run_all", 0.0) * per,
            "fixpoint.rerun_s": time_s.get("fixpoint.rerun", 0.0) * per,
            "fixpoint.harvest_s": time_s.get("fixpoint.harvest", 0.0) * per,
            "fixpoint.verdict_s": time_s.get("fixpoint.verdict", 0.0) * per,
            "fixpoint.self_s": fixpoint_self * per,
            "fixpoint.iterations": attrs.get("task.iterations", 0) * per,
            "fixpoint.runs_initial": runs.get("fixpoint.run_all", 0) * per,
            "fixpoint.runs_rerun": runs.get("fixpoint.rerun", 0) * per,
            "fixpoint.rerun_leaves": rerun_leaves * per,
            "fixpoint.rerun_useful_ratio":
                attrs.get("fixpoint.rerun.useful", 0) / rerun_leaves
                if rerun_leaves else 0.0,
            "fixpoint.leaves_final": leaves_final * per,
            "fixpoint.seeds_per_run":
                attrs.get("task.seeds", 0) / leaves_final if leaves_final else 0.0,
            "fixpoint.tuples": attrs.get("task.tuples", 0) * per,
            "chc.translate_s": time_s.get("chc.translate", 0.0) * per,
            "chc.emit_s": time_s.get("chc.emit", 0.0) * per,
            "chc.predicates": attrs.get("chc.translate.predicates", 0) * per,
            "chc.clauses": attrs.get("chc.translate.clauses", 0) * per,
            "chc.max_arity": max_arity,
            "chc.bytes": attrs.get("chc.emit.bytes", 0) * per,
        }

    def to_json(self) -> list:
        return [s.to_json() for s in self.spans]
