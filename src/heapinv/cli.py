"""Command-line front end.

Subcommands wire the pipeline together: parse -> encode -> run / fixpoint /
equisafe / emit-chc / solve, plus the bundled corpus runner.  Exit codes:
0 success (or verdicts agree), 1 disagreement or corpus mismatch, 2 usage
or tool errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import chc, fixpoint as fp, replay
from .corpus import VARIANTS, encode_variant, load_corpus
from .encode import EncodingConfig, EncodingError, enc_n, encode
from .fixpoint import _value_json
from .formula import load_interpretation
from .interp import Bot, CompiledProgram, Top
from .lang import (
    Program, SourceError, parse_program, pretty_print, typecheck,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Rejects a bad command line with a ``CliError``, which ``main``
    reports as one ``error:`` line like any other bad input.  Subcommand
    parsers are made of the same class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _load_program(path: str) -> Program:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(str(exc))
    try:
        prog = parse_program(text)
    except SourceError as exc:
        raise CliError(f"{path}:{exc}")
    diags = typecheck(prog)
    if diags:
        for d in diags:
            print(f"{path}:{d}", file=sys.stderr)
        raise CliError(f"{path}: {len(diags)} type error(s)")
    return prog


def _render(render, *args, **kw) -> str:
    """``render(*args, **kw)``; an Int in the result too long to convert to
    decimal text ends in a CliError, not a traceback."""
    try:
        return render(*args, **kw)
    except ValueError:
        raise CliError("cannot print the result: it holds an Int of more "
                       f"than {sys.get_int_max_str_digits()} digits") from None


def _json(report) -> str:
    return _render(json.dumps, report, sort_keys=True)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.rpartition(":")
    if not sep:
        raise CliError(f"range must look like LO:HI, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise CliError(f"bad range {text!r}")


def _add_domain_args(p: argparse.ArgumentParser):
    d = fp.InputDomain  # its field defaults are the options'
    for flag, (lo, hi) in (("--in-range", d.in_range),
                           ("--seed-range", d.seed_range),
                           ("--last-addr-range", d.last_addr_range)):
        p.add_argument(flag, default=f"{lo}:{hi}", metavar="LO:HI")
    p.add_argument("--loop-fuel", type=int, default=d.loop_fuel)
    p.add_argument("--heap-op-fuel", type=int, default=d.heap_op_fuel)
    p.add_argument("--iteration-cap", type=int, default=d.iteration_cap)


def _input_domain(**kw) -> fp.InputDomain:
    try:
        return fp.InputDomain(**kw)
    except ValueError as exc:
        raise CliError(str(exc))


def _domain(args) -> fp.InputDomain:
    return _input_domain(
        in_range=_parse_range(args.in_range),
        seed_range=_parse_range(args.seed_range),
        last_addr_range=_parse_range(args.last_addr_range),
        loop_fuel=args.loop_fuel,
        heap_op_fuel=args.heap_op_fuel,
        iteration_cap=args.iteration_cap,
    )


# the flags that configure an r, rw, rwfun or rwmem encoding
_CONFIG_FLAGS = ("--tag", "--cache", "--scope-vars", "--drop",
                 "--assume-memsafe", "--native-havoc", "--strip-asserts",
                 "--alloc-init-write")


def _add_encoding_args(p: argparse.ArgumentParser, require: bool = True):
    p.add_argument("--enc", required=require, default=None,
                   choices=["n", "r", "rw", "rwfun", "rwmem"])
    p.add_argument("--tag", action="store_true")
    p.add_argument("--cache", action="store_true")
    p.add_argument("--scope-vars", default="", metavar="A,B")
    p.add_argument("--drop", action="append", default=[], metavar="PRED:IDX")
    p.add_argument("--assume-memsafe", action="store_true")
    p.add_argument("--native-havoc", action="store_true")
    p.add_argument("--strip-asserts", action="store_true")
    p.add_argument("--alloc-init-write", action="store_true")


def _config(args) -> EncodingConfig:
    drops = []
    for item in args.drop:
        pred, sep, idx = item.rpartition(":")
        if not sep:
            raise CliError(f"--drop expects PRED:IDX, got {item!r}")
        try:
            drops.append((pred, int(idx)))
        except ValueError:
            raise CliError(f"--drop expects PRED:IDX, got {item!r}")
    scope = tuple(args.scope_vars.split(",")) if args.scope_vars else ()
    if "" in scope:
        raise CliError("--scope-vars expects A,B,...")
    return EncodingConfig(
        base=args.enc, tagging=args.tag, caching=args.cache,
        scope_vars=scope, drop_args=tuple(drops),
        assume_memsafe=args.assume_memsafe, native_havoc=args.native_havoc,
        strip_asserts=args.strip_asserts,
        alloc_init_write=args.alloc_init_write,
    )


def _encode_program(prog: Program, args) -> Program:
    """The program under ``--enc``: unchanged without it, else encoded.  A
    configuration flag without an encoding it configures is an error."""
    if args.enc in (None, "n"):
        for flag in _CONFIG_FLAGS:
            if getattr(args, flag[2:].replace("-", "_")):
                raise CliError(
                    f"{flag} applies only with --enc r, rw, rwfun or rwmem")
        return prog if args.enc is None else enc_n(prog)
    if args.enc == "rwfun" and not args.assume_memsafe:
        # the encoder's own message names its parameter, not the flag
        raise CliError("the rwfun encoding is only correct for memory-safe "
                       "programs; pass --assume-memsafe to acknowledge this")
    return encode(prog, _config(args)).program


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_encode(args) -> int:
    prog = _load_program(args.file)
    _emit(pretty_print(_encode_program(prog, args)), args.output)
    return EXIT_OK


def _outcome_json(o):
    if isinstance(o, Top):
        return {"kind": "top"}
    if isinstance(o, Bot):
        return {"kind": "bot", "pred": o.pred, "args": [_value_json(a) for a in o.args]}
    return {"kind": "undefined", "reason": o.reason}


def cmd_run(args) -> int:
    prog = _load_program(args.file)
    # the point gets a domain's checks, also when --all-inputs replaces it
    _input_domain(in_range=(args.in_value,) * 2, seed_range=(args.seed,) * 2,
                  last_addr_range=(args.last_addr,) * 2)
    domain = _input_domain(loop_fuel=args.loop_fuel,
                           heap_op_fuel=args.heap_op_fuel)
    if args.interp == "empty":
        interp = fp.Interpretation.empty()
    elif args.interp == "fixpoint":
        interp = fp.least_fixpoint(prog, domain)
    else:
        try:
            interp = load_interpretation(args.interp, prog)
        except (OSError, ValueError, SourceError) as exc:
            raise CliError(f"cannot load interpretation: {exc}")
    mode = "trace" if args.trace_mode else "heap"
    compiled = CompiledProgram(prog, mode=mode)

    def one(in_v, seed, la) -> dict:
        inputs = fp.initial_stack(prog, in_v, seed, la, args.heap_op_fuel)
        try:
            res = compiled.run(inputs=inputs, interp=interp,
                               loop_fuel=args.loop_fuel,
                               heap_fuel=args.heap_op_fuel)
        except ValueError as exc:
            raise CliError(str(exc))
        dump = {
            "outcome": _outcome_json(res.outcome),
            "stack": {k: _value_json(v) for k, v in sorted(res.env.items())},
            "heapLen": res.heap_len,
        }
        if args.all_inputs:
            dump["inputs"] = dict(inputs)
        return dump

    if args.all_inputs:
        # one JSON line per grid execution; dimensions the program cannot
        # observe would only repeat identical lines, so they collapse
        def dim(used, rng, default):
            return range(rng[0], rng[1] + 1) if used else (default,)

        for in_v in dim(fp.program_uses_input(prog), domain.in_range,
                        args.in_value):
            for seed in dim(fp.program_uses_seed(prog), domain.seed_range,
                            args.seed):
                for la in dim(fp.LAST_ADDR_VAR in prog.var_types,
                              domain.last_addr_range, args.last_addr):
                    print(_json(one(in_v, seed, la)))
    else:
        print(_json(one(args.in_value, args.seed, args.last_addr)))
    return EXIT_OK


def cmd_fixpoint(args) -> int:
    prog = _load_program(args.file)
    verdict = fp.check_safety(prog, _domain(args))
    report = verdict.to_json()
    if args.format == "json":
        print(_json(report))
    else:
        print(f"verdict: {verdict.kind}")
        print(f"iterations: {verdict.iterations}")
        print(f"predicate sizes: {verdict.pred_sizes}")
        print(f"fuel-exhausted executions: {verdict.inconclusive_count}")
        if verdict.witness:
            w = verdict.witness
            print(_render("witness: {} -> {}{}".format,
                          w.inputs, w.pred, w.args))
    return EXIT_OK


def cmd_equisafe(args) -> int:
    prog = _load_program(args.file)
    domain = _domain(args)
    if args.cosim:
        config = _config(args)
        if args.enc != "r" or args.tag or args.cache or args.scope_vars \
                or args.drop:
            raise CliError("--cosim applies to the plain r encoding")
        p_star = enc_n(prog)
        encoded = encode(p_star, config).program
    else:
        encoded = _encode_program(prog, args)
    result = fp.check_equisafety(prog, encoded, domain)
    cosim_report = (replay.cosim_check(p_star, encoded, domain)
                    if args.cosim else None)
    if args.format == "json":
        report = result.to_json()
        if cosim_report is not None:
            report["cosim"] = cosim_report.to_json()
        print(_json(report))
    else:
        print(f"{args.file}: {result.kind}"
              f" (original={result.verdict_left.kind},"
              f" encoded={result.verdict_right.kind})")
        if not result.agree and args.enc in ("rwfun", "rwmem"):
            print("note: this variant assumes memory-safe input programs; "
                  "a disagreement usually means the precondition does not hold",
                  file=sys.stderr)
        if cosim_report is not None:
            status = "ok" if cosim_report.ok else "FAILED"
            print(f"co-simulation: {status} over {len(cosim_report.points)} points")
    ok = result.agree and (cosim_report is None or cosim_report.ok)
    return EXIT_OK if ok else EXIT_DISAGREE


def cmd_emit_chc(args) -> int:
    prog = _encode_program(_load_program(args.file), args)
    _emit(chc.emit_smtlib(chc.to_chc(prog)), args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    if not (math.isfinite(args.timeout) and args.timeout > 0):
        raise CliError("--timeout must be a finite positive number of "
                       f"seconds, got {args.timeout}")
    try:
        with open(args.file, "rb"):
            pass
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc.strerror or exc}")
    res = chc.solve(args.file, solver_cmd=args.solver, timeout=args.timeout)
    if res.is_error:
        print(f"error: {res.detail}", file=sys.stderr)
        return EXIT_ERROR
    print(res.kind)
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.filter is not None and args.filter == "":
        raise CliError("--filter needs a nonempty substring")
    variants = [v for v in args.enc.split(",") if v]
    for v in variants:
        if v not in VARIANTS:
            raise CliError(f"unknown corpus variant {v!r}; "
                           f"choose from {', '.join(sorted(VARIANTS))}")
    domain = _domain(args)
    entries = load_corpus()
    if args.filter:
        entries = [e for e in entries if args.filter in e.name]
        if not entries:
            raise CliError(f"no corpus entry matches {args.filter!r}")
    rows = []
    ok_all = True
    for entry in sorted(entries, key=lambda e: e.name):
        prog = entry.load()
        verdict = fp.check_safety(prog, domain)
        row = {"name": entry.name, "expected": entry.expected,
               "original": verdict.kind, "variants": {}, "ok": True}
        if verdict.kind != entry.expected:
            row["ok"] = False
        for vname in variants:
            encoded = encode_variant(entry, prog, vname)
            if encoded is None:
                row["variants"][vname] = "skipped"
                continue
            ev = fp.check_safety(encoded, domain)
            row["variants"][vname] = ev.kind
            if vname == "rwmem":
                expect = "unsafe" if entry.invalid_access else "safe"
                if ev.kind != expect:
                    row["ok"] = False
            elif ev.kind != verdict.kind:
                row["ok"] = False
        ok_all &= row["ok"]
        rows.append(row)
    if args.format == "json":
        print(json.dumps({"ok": ok_all, "entries": rows}, sort_keys=True))
    else:
        for row in rows:
            vs = " ".join(f"{k}={v}" for k, v in row["variants"].items())
            mark = "ok" if row["ok"] else "MISMATCH"
            print(f"{row['name']:32s} expected={row['expected']:8s} "
                  f"got={row['original']:8s} {vs} [{mark}]")
        print(f"corpus: {'all agree' if ok_all else 'MISMATCHES FOUND'} "
              f"({len(rows)} entries)")
    return EXIT_OK if ok_all else EXIT_DISAGREE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="heapinv",
        description="Heap-eliminating encodings over uninterpreted "
                    "predicates, with a bounded differential oracle")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="rewrite heap statements away")
    p.add_argument("file")
    _add_encoding_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("run", help="evaluate a program on one input")
    p.add_argument("file")
    p.add_argument("--in", dest="in_value", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--last-addr", type=int, default=0)
    p.add_argument("--loop-fuel", type=int, default=fp.InputDomain.loop_fuel)
    p.add_argument("--heap-op-fuel", type=int,
                   default=fp.InputDomain.heap_op_fuel)
    p.add_argument("--interp", default="empty",
                   help="'empty', 'fixpoint', or a formula file")
    p.add_argument("--trace-mode", action="store_true")
    p.add_argument("--all-inputs", action="store_true",
                   help="dump one JSON line per execution over the default "
                        "input grid")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fixpoint", help="bounded least fixed point + safety")
    p.add_argument("file")
    _add_domain_args(p)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_fixpoint)

    p = sub.add_parser("equisafe", help="compare a program with its encoding")
    p.add_argument("file")
    _add_encoding_args(p)
    _add_domain_args(p)
    p.add_argument("--cosim", action="store_true",
                   help="also check final-state preservation")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_equisafe)

    p = sub.add_parser("emit-chc", help="translate to Horn clauses (.smt2)")
    p.add_argument("file")
    _add_encoding_args(p, require=False)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_emit_chc)

    p = sub.add_parser("solve", help="run an external Horn solver")
    p.add_argument("file")
    p.add_argument("--solver", default=None,
                   help="command template with a {file} placeholder")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds; a finite positive number")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("corpus", help="run the bundled corpus")
    p.add_argument("--enc", default="r",
                   help="comma-separated variants "
                        f"({', '.join(sorted(VARIANTS))})")
    p.add_argument("--filter", default=None)
    _add_domain_args(p)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_corpus)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, EncodingError, chc.ChcError,
            fp.IterationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        # the grid executor allocates per input value and per seed
        print("error: out of memory; an input range may be too large",
              file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the stream
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
