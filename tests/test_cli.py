import argparse
import json
import pathlib
import pkgutil
import random
import re
import shlex
import subprocess
import sys
import types

import jsonschema
import pytest

import heapinv
import progen
from heapinv.cli import EXIT_DISAGREE, EXIT_ERROR, EXIT_OK, build_parser, main
from heapinv.corpus import VARIANTS
from heapinv.encode import enc_n, enc_r
from heapinv.lang import MAX_NESTING, pretty_print

SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "docs" / "report-schema.json")
    .read_text(encoding="utf-8"))


def corpus_path(name):
    import importlib.resources as resources
    entry = progen.corpus_by_name()[name]
    return str(resources.files("heapinv.corpus_data").joinpath(entry.file))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


def test_run_dump_schema(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("single-cell-roundtrip"),
                           "--in", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload)
    assert payload["outcome"] == {"kind": "top"}
    assert payload["heapLen"] == 1


def test_run_trace_mode_prints_the_heap_model_line(capsys):
    lines = 0
    for name in progen.corpus_by_name():
        path = corpus_path(name)
        for in_v in ("-1", "0", "2"):
            heap = run_cli(capsys, "run", path, "--in", in_v)
            trace = run_cli(capsys, "run", path, "--in", in_v, "--trace-mode")
            assert trace == heap, (name, in_v)
            assert heap[0] == EXIT_OK and heap[1].count("\n") == 1
            lines += 1
    assert lines == 69


def test_run_bot_outcome(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("trivially-false"))
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload)
    assert payload["outcome"]["kind"] == "bot"
    assert payload["outcome"]["pred"] == "F"


def test_run_fuel_zero_heap_op(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("single-cell-roundtrip"),
                           "--heap-op-fuel", "0")
    payload = json.loads(out)
    validate(payload)
    assert payload["outcome"] == {"kind": "undefined", "reason": "fuel_exhausted"}


def test_run_with_bundled_invariant(capsys, tmp_path):
    import importlib.resources as resources
    from heapinv.encode import enc_r
    from heapinv.lang import parse_and_check, pretty_print
    entry = progen.corpus_by_name()["list-build-traverse"]
    enc = enc_r(entry.load())
    enc_file = tmp_path / "encoded.up"
    enc_file.write_text(pretty_print(enc.program))
    fixture = str(resources.files("heapinv.fixtures")
                  .joinpath("list_invariant.json"))
    code, out, _ = run_cli(capsys, "run", str(enc_file), "--in", "1",
                           "--last-addr", "1", "--interp", fixture)
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload)
    assert payload["outcome"]["kind"] in ("top", "undefined")


def test_fixpoint_report_schema(capsys):
    code, out, _ = run_cli(capsys, "fixpoint", corpus_path("write-read-false"),
                           "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload)
    assert payload["verdict"] == "unsafe"
    assert payload["witnesses"]


def test_equisafe_agree_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "equisafe",
                           corpus_path("single-cell-roundtrip"),
                           "--enc", "r", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload)
    assert payload["agree"] is True


def test_equisafe_cosim_report(capsys):
    code, out, _ = run_cli(capsys, "equisafe", corpus_path("two-cells-copy"),
                           "--enc", "r", "--cosim", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload)
    assert payload["cosim"]["ok"] is True


def test_equisafe_human_cosim_line(capsys):
    # README's worked example
    path = corpus_path("list-build-traverse")
    code, out, _ = run_cli(capsys, "equisafe", path, "--enc", "r", "--cosim")
    assert code == EXIT_OK
    assert out.splitlines() == [
        f"{path}: agree(safe) (original=safe, encoded=safe)",
        "co-simulation: ok over 49 points"]


def test_fixpoint_human_report_names_the_witness(capsys):
    path = corpus_path("write-read-false")
    code, out, _ = run_cli(capsys, "fixpoint", path, "--format", "json")
    (witness,) = json.loads(out)["witnesses"]
    assert (witness["pred"], witness["args"]) == ("F", [])
    code, out, _ = run_cli(capsys, "fixpoint", path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "verdict: unsafe"
    assert lines[-1] == f"witness: {witness['inputs']} -> F()"


# P(1) is asserted before the assume that reads the input, so the fixed
# point holds it and a run at in = 1 gets past the assume
ASSERT_THEN_ASSUME = """prog {
  pred P(Int);
  input in;
  assert(P(1));
  assume(P(in));
  assert(in != 1);
}"""


def test_run_under_the_fixed_point(capsys, tmp_path):
    path = tmp_path / "assert-then-assume.up"
    path.write_text(ASSERT_THEN_ASSUME, encoding="utf-8")
    outcomes = {}
    for interp in ("empty", "fixpoint"):
        code, out, _ = run_cli(capsys, "run", str(path), "--in", "1",
                               "--interp", interp)
        assert code == EXIT_OK
        payload = json.loads(out)
        validate(payload)
        outcomes[interp] = payload["outcome"]
    assert outcomes == {
        "empty": {"kind": "bot", "pred": "P", "args": [1]},
        "fixpoint": {"kind": "bot", "pred": "F", "args": []}}


def test_equisafe_disagree_exit_one(capsys, tmp_path):
    # the functional-safety variant on a program outside its precondition
    code, out, _ = run_cli(capsys, "equisafe", corpus_path("rwfun-gap-witness"),
                           "--enc", "rwfun", "--assume-memsafe",
                           "--format", "json")
    assert code == EXIT_DISAGREE
    payload = json.loads(out)
    validate(payload)
    assert payload["agree"] is False


def test_encode_output_reparses(capsys, tmp_path):
    out_file = tmp_path / "enc.up"
    code, _, _ = run_cli(capsys, "encode", corpus_path("write-read-false"),
                         "--enc", "rw", "-o", str(out_file))
    assert code == EXIT_OK
    from heapinv.lang import parse_and_check
    parse_and_check(out_file.read_text())


def test_emit_chc_and_solve_with_stub(capsys, tmp_path):
    import stat
    smt = tmp_path / "out.smt2"
    code, _, _ = run_cli(capsys, "emit-chc", corpus_path("trivially-false"),
                         "--enc", "r", "--native-havoc", "-o", str(smt))
    assert code == EXIT_OK
    assert smt.read_text().startswith("(set-logic HORN)")
    stub = tmp_path / "stub"
    stub.write_text("#!/bin/sh\necho unsat\n")
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    code, out, _ = run_cli(capsys, "solve", str(smt),
                           "--solver", f"{stub} {{file}}")
    assert code == EXIT_OK and out.strip() == "unsat"


def test_solve_tool_error_exit_two(capsys, tmp_path):
    smt = tmp_path / "x.smt2"
    smt.write_text("(set-logic HORN)\n(check-sat)\n")
    code, _, err = run_cli(capsys, "solve", str(smt),
                           "--solver", "/missing/bin {file}")
    assert code == EXIT_ERROR and "error" in err


def stub_solver(tmp_path):
    """A solver command that answers sat and leaves a file saying it ran."""
    script = tmp_path / "stub_solver.py"
    script.write_text("import pathlib, sys\n"
                      "pathlib.Path(sys.argv[0]).with_name('ran').touch()\n"
                      "print('sat')\n")
    return (f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}",
            tmp_path / "ran")


def test_solve_runs_the_stub_solver(capsys, tmp_path):
    smt = tmp_path / "x.smt2"
    smt.write_text("(set-logic HORN)\n(check-sat)\n")
    solver, ran = stub_solver(tmp_path)
    code, out, err = run_cli(capsys, "solve", str(smt), "--solver", solver,
                             "--timeout", "0.5e2")
    assert (code, out, err) == (EXIT_OK, "sat\n", "")
    assert ran.exists()


@pytest.mark.parametrize("file,timeout,message", [
    ("x.smt2", "nan", "--timeout must be a finite positive number of "
                      "seconds, got nan"),
    ("x.smt2", "inf", "--timeout must be a finite positive number of "
                      "seconds, got inf"),
    ("x.smt2", "-inf", "--timeout must be a finite positive number of "
                       "seconds, got -inf"),
    ("x.smt2", "-1", "--timeout must be a finite positive number of "
                     "seconds, got -1.0"),
    ("x.smt2", "0", "--timeout must be a finite positive number of "
                    "seconds, got 0.0"),
    ("missing.smt2", "5", "cannot read {path}: No such file or directory"),
    (".", "5", "cannot read {path}: Is a directory"),
], ids=["nan", "inf", "minus-inf", "negative", "zero", "missing-file",
        "directory"])
def test_solve_refuses_bad_input_before_any_solver_runs(
        capsys, tmp_path, file, timeout, message):
    (tmp_path / "x.smt2").write_text("(set-logic HORN)\n(check-sat)\n")
    path = str(tmp_path / file)
    solver, ran = stub_solver(tmp_path)
    code, out, err = run_cli(capsys, "solve", path, "--solver", solver,
                             f"--timeout={timeout}")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {message.format(path=path)}\n"
    assert not ran.exists()


def test_parse_error_reported_with_position(capsys, tmp_path):
    bad = tmp_path / "bad.up"
    bad.write_text("prog { var x Int; }")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == EXIT_ERROR
    assert f"{bad}:1:" in err


def test_type_error_reported_on_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.up"
    bad.write_text("prog { var p: Addr; p := p + 1; }")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == EXIT_ERROR
    assert "arithmetic on Addr" in err


def test_corpus_filter_runs_subset(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--filter", "cell-pair",
                           "--enc", "r,rw", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload)
    assert payload["ok"] is True
    assert len(payload["entries"]) == 2


def test_corpus_empty_filter_usage_error(capsys):
    code, _, err = run_cli(capsys, "corpus", "--filter", "")
    assert code == EXIT_ERROR
    assert "filter" in err


def test_corpus_unknown_variant(capsys):
    code, _, err = run_cli(capsys, "corpus", "--enc", "bogus")
    assert code == EXIT_ERROR
    assert "unknown corpus variant" in err


def test_run_all_inputs_jsonl(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("no-heap-arith"),
                           "--all-inputs")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 7  # input values only; seed collapses (unused)
    for line in lines:
        payload = json.loads(line)
        validate(payload)
        assert payload["outcome"] == {"kind": "top"}


# ---------------------------------------------------------------------------
# exit-code contract: bad input is a one-line error and exit 2

def nested_program(kind: str, depth: int) -> str:
    """A program whose ``if`` blocks (with heap statements innermost),
    parentheses or chain of additions nest ``depth`` deep."""
    if kind == "if":
        body = ("p := alloc(defObj);\n" + "if (in < 1) {\n" * depth
                + "n := read(p);\nwrite(p, n);\n" + "}\n" * depth)
    elif kind == "paren":
        body = "x := " + "(" * depth + "in" + ")" * depth + ";\n"
    else:
        body = "x := in" + " + in" * depth + ";\n"
    return ("prog {\nadt Node { node(data: Int, next: Addr); }\n"
            "heaptype Node;\ninput in;\nseed seed;\nvar x: Int;\nvar p: Addr;\n"
            "var n: Node;\n" + body + "}\n")


# inputs written to a temporary directory; any other name is a corpus entry
BAD_INPUT_FILES = {
    "assume-p.up": "prog { pred P(Int); input in; assume(P(in)); }",
    "div-zero.json": json.dumps(
        {"preds": {"P": {"params": ["a"], "formula": "1 / (a - a)"}}}),
    "list.json": "[1, 2]",
    "string.json": '"x"',
    "null.json": "null",
    "params-string.json": json.dumps(
        {"preds": {"P": {"params": "a", "formula": "a > 0"}}}),
    "params-repeated.json": json.dumps(
        {"preds": {"P": {"params": ["a", "a"], "formula": "a > 0"}}}),
    "deep-if.up": nested_program("if", 1000),
    "deep-parens.up": nested_program("paren", 1000),
    "long-chain.up": nested_program("chain", 1000),
    # a literal past the interpreter's digit limit for int(), a product
    # past the limit for printing it, and a digit that is not ASCII
    "long-literal.up": "prog { input in; var x: Int; x := " + "9" * 5000 + "; }",
    "long-product.up": "prog { input in; var x: Int; x := "
                       + "9" * 4000 + " * " + "9" * 4000 + "; }",
    "arabic-digit.up": "prog { input in; var x: Int; x := \u0663; }",
    # declares $last_addr, an input no source program can name
    "list-r.up": pretty_print(
        enc_r(progen.corpus_by_name()["list-build-traverse"].load()).program),
}
# output paths under the temporary directory that cannot be written
BAD_OUTPUT_PATHS = {"missing-dir": "no/such/dir/out", "a-directory": "."}


@pytest.mark.parametrize("argv", [
    ("encode", "write-read-false", "--enc", "r", "--scope-vars", "nosuch"),
    ("encode", "write-read-false", "--enc", "r", "--scope-vars", ","),
    ("encode", "write-read-false", "--enc", "r", "--scope-vars", "in,,in"),
    ("encode", "write-read-false", "--enc", "r", "--scope-vars", "in,"),
    ("equisafe", "write-read-false", "--enc", "r", "--cosim",
     "--scope-vars", ","),
    ("encode", "write-read-false", "--enc", "r", "--drop", "R:9"),
    ("equisafe", "write-read-false", "--enc", "rwfun"),
    ("encode", "write-read-false", "--enc", "rwfun"),
    ("fixpoint", "write-read-false", "--seed-range", "5:1"),
    ("fixpoint", "write-read-false", "--loop-fuel", "-1"),
    ("fixpoint", "write-read-false", "--heap-op-fuel", "-1"),
    ("fixpoint", "write-read-false", "--iteration-cap", "-1"),
    ("run", "write-read-false", "--seed", "-3"),
    ("run", "list-r.up", "--last-addr", "-5"),
    ("run", "list-r.up", "--all-inputs", "--seed", "-1"),
    ("run", "list-r.up", "--all-inputs", "--last-addr", "-5"),
    ("run", "assume-p.up", "--interp", "div-zero.json"),
    ("run", "assume-p.up", "--interp", "list.json"),
    ("run", "assume-p.up", "--interp", "string.json"),
    ("run", "assume-p.up", "--interp", "null.json"),
    ("run", "assume-p.up", "--interp", "params-string.json"),
    ("run", "assume-p.up", "--interp", "params-repeated.json"),
    ("fixpoint", "deep-if.up"),
    ("fixpoint", "deep-parens.up"),
    ("fixpoint", "long-chain.up"),
    ("fixpoint", "long-literal.up"),
    ("run", "long-product.up", "--in", "0"),
    ("run", "arabic-digit.up"),
    ("fixpoint", "write-read-false", "--seed-range", "0:1000000000000000"),
    ("fixpoint", "list-build-traverse", "--in-range", "0:1000000000000000"),
    ("fixpoint", "list-build-traverse", "--seed-range", f"0:{2 ** 70}"),
    ("fixpoint", "list-build-traverse", "--in-range", f"0:{2 ** 70}"),
    ("fixpoint", "list-build-traverse", "--last-addr-range", f"0:{2 ** 70}"),
    ("corpus", None, "--filter", "trivially", "--seed-range", f"0:{2 ** 70}"),
    ("equisafe", "list-build-traverse", "--enc", "r",
     "--in-range", f"0:{2 ** 70}"),
    ("encode", "write-read-false", "--enc", "r", "-o", "missing-dir"),
    ("encode", "write-read-false", "--enc", "r", "-o", "a-directory"),
    ("emit-chc", "write-read-false", "--enc", "r", "-o", "missing-dir"),
    ("emit-chc", "write-read-false", "--enc", "r", "-o", "a-directory"),
    ("run", "write-read-false", "--in", "x"),
    ("solve", "write-read-false", "--timeout", "-inf"),
    ("fixpoint", "write-read-false", "--bogus"),
    ("encode", "write-read-false"),
    ("bogus", "write-read-false"),
], ids=["unknown-scope-var", "scope-vars-comma", "scope-vars-empty-middle",
        "scope-vars-trailing-comma", "cosim-scope-vars-comma",
        "drop-out-of-range", "rwfun-unacknowledged",
        "encode-rwfun-unacknowledged",
        "empty-seed-range", "negative-loop-fuel", "negative-heap-op-fuel",
        "negative-iteration-cap", "negative-seed", "negative-last-addr",
        "all-inputs-negative-seed", "all-inputs-negative-last-addr",
        "formula-divides-by-zero",
        "interp-list", "interp-string", "interp-null", "interp-params-string",
        "interp-params-repeated",
        "if-nested-1000-deep", "parens-nested-1000-deep",
        "chain-of-1000-additions", "literal-of-5000-digits",
        "product-of-8000-digits", "non-ascii-digit", "huge-seed-range", "huge-in-range",
        "seed-range-past-maxsize", "in-range-past-maxsize",
        "last-addr-range-past-maxsize", "corpus-seed-range-past-maxsize",
        "equisafe-in-range-past-maxsize",
        "encode-out-in-missing-dir", "encode-out-is-a-directory",
        "emit-chc-out-in-missing-dir", "emit-chc-out-is-a-directory",
        "run-in-not-an-int", "solve-timeout-minus-inf",
        "fixpoint-unknown-option", "encode-without-enc",
        "unknown-subcommand"])
def test_bad_input_is_one_line_error(capsys, tmp_path, argv):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    command, name, *rest = argv
    rest = [str(tmp_path / BAD_OUTPUT_PATHS.get(a, a))
            if a in BAD_INPUT_FILES or a in BAD_OUTPUT_PATHS else a
            for a in rest]
    # the corpus command takes no file
    paths = ([] if name is None else [str(tmp_path / name)]
             if name in BAD_INPUT_FILES else [corpus_path(name)])
    code, out, err = run_cli(capsys, command, *paths, *rest)
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if "rwfun" in rest:
        # the line names the flag that acknowledges it
        assert "--assume-memsafe" in err, err


GRID_INPUT_OF_ANOTHER_TYPE = """prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Node;
  input in;
  seed seed;
  var NAME: TYPE;
  BODY
}"""


@pytest.mark.parametrize("argv,name,ty,body", [
    (("fixpoint",), "$c", "Node", "assert(data($c) = 0);"),
    (("run",), "$c", "Node", "assert(data($c) = 0);"),
    (("fixpoint",), "$last_addr", "Node", "assert(data($last_addr) = 0);"),
    (("equisafe", "--enc", "n"), "$c", "Node",
     "var p: Addr; $c := node(1, null); p := alloc($c);"
     " assert(data($c) = 1);"),
    (("fixpoint",), "$c", "Addr", "assert($c = null);"),
    (("fixpoint",), "$last_addr", "Addr", "assert($last_addr = null);"),
], ids=["fixpoint-counter", "run-counter", "fixpoint-last-addr",
        "equisafe-n-counter", "fixpoint-addr-counter",
        "fixpoint-addr-last-addr"])
def test_grid_input_of_another_type_is_a_type_error(capsys, tmp_path, argv,
                                                     name, ty, body):
    # the grid binds $c and $last_addr to integers: declared with another
    # type they are a type error at the type, not a run that crashes
    path = tmp_path / "grid-input.up"
    path.write_text(GRID_INPUT_OF_ANOTHER_TYPE.replace("NAME", name)
                    .replace("TYPE", ty).replace("BODY", body),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.splitlines() == [
        f"{path}:6:{9 + len(name)}: variable {name!r} is a grid input and "
        "must have type Int",
        f"error: {path}: 1 type error(s)"]


@pytest.mark.parametrize("command,names", [
    ("encode", ","), ("encode", "in,,in"), ("encode", "in,"),
    ("encode", "a,,b"),
    ("equisafe", ","),
])
def test_empty_scope_var_name_is_refused(capsys, command, names):
    # an empty name is refused before any other check of the encoding
    # flags; no --scope-vars at all still means no scope variables
    extra = ["--cosim"] if command == "equisafe" else []
    code, out, err = run_cli(capsys, command, corpus_path("write-read-false"),
                             "--enc", "r", *extra, "--scope-vars", names)
    assert (code, out, err) == (EXIT_ERROR, "",
                                "error: --scope-vars expects A,B,...\n")
    code, _, err = run_cli(capsys, "encode", corpus_path("write-read-false"),
                           "--enc", "r", "--scope-vars", "")
    assert code == EXIT_OK, err


@pytest.mark.parametrize("argv,named", [
    (("encode", "write-read-false", "--enc", "n", "--tag"), "--tag"),
    (("encode", "write-read-false", "--enc", "n", "--drop", "junk"),
     "--drop"),
    (("encode", "write-read-false", "--enc", "n", "--scope-vars", ","),
     "--scope-vars"),
    (("equisafe", "write-read-false", "--enc", "n", "--cache"), "--cache"),
    (("emit-chc", "no-heap-arith", "--tag", "--drop", "junk"), "--tag"),
    (("encode", "write-read-false", "--enc", "r", "--strip-asserts"),
     "strip_asserts"),
    (("encode", "write-read-false", "--enc", "r", "--alloc-init-write"),
     "alloc_init_write"),
    (("encode", "write-read-false", "--enc", "rwmem", "--assume-memsafe"),
     "assume_memsafe"),
], ids=["n-tag", "n-drop", "n-scope-vars", "n-cache", "no-enc-tag-drop",
        "r-strip-asserts", "r-alloc-init-write", "rwmem-assume-memsafe"])
def test_flag_the_encoding_ignores_is_refused(capsys, argv, named):
    command, name, *rest = argv
    code, out, err = run_cli(capsys, command, corpus_path(name), *rest)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err


@pytest.mark.parametrize("kind", ["if", "paren", "chain"])
def test_nesting_at_the_limit_is_accepted(capsys, tmp_path, kind):
    path = tmp_path / "deep.up"
    path.write_text(nested_program(kind, MAX_NESTING))
    code, _, err = run_cli(capsys, "fixpoint", str(path), "--in-range", "0:1")
    assert code == EXIT_OK, err
    code, out, err = run_cli(capsys, "emit-chc", str(path), "--enc", "r")
    assert code == EXIT_OK and out.startswith("(set-logic HORN)"), err
    path.write_text(nested_program(kind, MAX_NESTING + 1))
    code, out, err = run_cli(capsys, "fixpoint", str(path))
    assert code == EXIT_ERROR and out == ""
    assert err.count("\n") == 1
    assert f"nesting deeper than {MAX_NESTING} levels" in err


def test_range_starting_with_a_minus_follows_its_flag(capsys):
    # README writes the domain options as ``--in-range -3:3``: a LO:HI
    # value that starts with "-" after a range flag is the flag's value
    path = corpus_path("list-build-traverse")
    default = run_cli(capsys, "fixpoint", path)
    assert default[0] == EXIT_OK
    assert run_cli(capsys, "fixpoint", path, "--in-range", "-3:3") == default
    assert run_cli(capsys, "fixpoint", path, "--in-r", "-3:3") == default
    code, out, err = run_cli(capsys, "fixpoint", path, "--in-range", "-2:-1",
                             "--format", "json")
    assert code == EXIT_OK, err
    assert json.loads(out)["verdict"] == "safe"
    for argv in (("equisafe", path, "--enc", "r"),
                 ("corpus", "--filter", "trivially")):
        code, _, err = run_cli(capsys, *argv, "--in-range", "-2:-1")
        assert code == EXIT_OK, (argv, err)
    # a negative seed or address range reaches the domain's own check
    for flag, message in (("--seed-range", "seeds must be nonnegative"),
                          ("--last-addr-range", "addresses are naturals")):
        assert run_cli(capsys, "fixpoint", path, flag, "-1:3") == \
            (EXIT_ERROR, "", f"error: {message}\n")


@pytest.mark.parametrize("flag,name", [
    ("--in-range", "input"), ("--seed-range", "seed"),
    ("--last-addr-range", "last address")])
def test_range_errors_name_the_range_and_its_value(capsys, flag, name):
    path = corpus_path("list-build-traverse")
    assert run_cli(capsys, "fixpoint", path, flag, "5:2") == \
        (EXIT_ERROR, "", f"error: empty {name} range 5:2\n")
    assert run_cli(capsys, "fixpoint", path, flag, f"0:{2 ** 70}") == \
        (EXIT_ERROR, "", f"error: {name} range 0:{2 ** 70} holds more than "
                         f"{sys.maxsize} values\n")


def test_package_exports_do_not_shadow_submodules():
    import heapinv
    submodules = {m.name for m in pkgutil.iter_modules(heapinv.__path__)}
    assert isinstance(heapinv.encode, types.ModuleType)
    assert not submodules & set(heapinv.__all__)


# ---------------------------------------------------------------------------
# the corpus variant registry


def test_corpus_help_lists_every_variant(capsys):
    # the help text is computed when it is printed
    with pytest.raises(SystemExit):
        main(["corpus", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"--enc ENC comma-separated variants " \
           f"({', '.join(sorted(VARIANTS))})" in out


SMALL_DOMAIN = ("--in-range", "0:1", "--seed-range", "0:3",
                "--last-addr-range", "0:2", "--loop-fuel", "6",
                "--heap-op-fuel", "6")


def test_corpus_accepts_every_registry_variant(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--enc", ",".join(VARIANTS),
                           "--format", "json", *SMALL_DOMAIN)
    # the domain is too small for every label to hold; only the shape and
    # the eligibility of each entry are checked here
    assert code in (EXIT_OK, EXIT_DISAGREE)
    payload = json.loads(out)
    validate(payload)
    entries = progen.corpus_by_name()
    assert len(payload["entries"]) == len(entries)
    for row in payload["entries"]:
        entry = entries[row["name"]]
        assert list(row["variants"]) == sorted(VARIANTS)
        for variant, (_, flag) in VARIANTS.items():
            eligible = flag is None or bool(getattr(entry, flag))
            skipped = row["variants"][variant] == "skipped"
            assert skipped != eligible, (entry.name, variant)


# ---------------------------------------------------------------------------
# fuzzing: generated programs and mutated arguments never crash the CLI


def _fuzz_programs(tmp_path, rng) -> list[str]:
    paths = []
    for i in range(8):
        program = progen.gen_program(rng.randrange(10 ** 6))
        text = pretty_print(program)
        if i % 3 == 0:
            text = text.replace("  seed seed;\n", "")
        paths.append(tmp_path / f"gen{i}.up")
        paths[-1].write_text(text)
    # an encoded program declares the prophecy address and the budget counter
    encoded = enc_r(enc_n(progen.gen_program(rng.randrange(10 ** 6))))
    paths.append(tmp_path / "encoded.up")
    paths[-1].write_text(pretty_print(encoded.program))
    return [str(p) for p in paths]


def _fuzz_domain(rng) -> list[str]:
    argv = list(SMALL_DOMAIN)
    if rng.random() < 0.5:
        flag = rng.choice(["--in-range", "--seed-range", "--last-addr-range",
                           "--loop-fuel", "--heap-op-fuel", "--iteration-cap"])
        if flag.endswith("-range"):
            value = rng.choice(["5:1", "", "3", "a:b", "-2:-1", "0:0"])
        else:
            value = rng.choice(["-1", "0", "x", "2"])
        argv += [flag, value]  # the last occurrence wins
    return argv


def _fuzz_encoding(rng) -> list[str]:
    argv = ["--enc", rng.choice(["n", "r", "rw", "rwfun", "rwmem", "bogus"])]
    for flag in ("--tag", "--cache", "--assume-memsafe", "--native-havoc",
                 "--strip-asserts", "--alloc-init-write"):
        if rng.random() < 0.3:
            argv.append(flag)
    if rng.random() < 0.3:
        argv += ["--scope-vars", rng.choice(["nosuch", "i", "in", "x", ""])]
    if rng.random() < 0.3:
        argv += ["--drop", rng.choice(["R:9", "R:0", "W:1", "P:0", "Q:1",
                                       "R", "R:x"])]
    return argv


def _fuzz_argv(rng, files, tmp_path) -> list[str]:
    command = rng.choice(["encode", "run", "fixpoint", "equisafe",
                          "emit-chc", "corpus"])
    if command == "corpus":
        names = list(VARIANTS) + ["bogus"]
        return [command, "--filter", rng.choice(["cell-pair", "trivially",
                                                 "nomatch", ""]),
                "--enc", ",".join(rng.sample(names, rng.randint(0, 3))),
                "--format", rng.choice(["human", "json"]),
                *_fuzz_domain(rng)]
    argv = [command, rng.choice(files)]
    if command == "encode":
        return argv + _fuzz_encoding(rng) + ["-o", str(tmp_path / "out.up")]
    if command == "emit-chc":
        enc = _fuzz_encoding(rng) if rng.random() < 0.7 else []
        return argv + enc + ["-o", str(tmp_path / "out.smt2")]
    if command == "run":
        for flag, values in (("--in", ["0", "2", "-1"]),
                             ("--seed", ["0", "5", "-3"]),
                             ("--last-addr", ["0", "2", "-1"]),
                             ("--loop-fuel", ["6", "0", "-1"]),
                             ("--heap-op-fuel", ["6", "0", "-1"])):
            if rng.random() < 0.4:
                argv += [flag, rng.choice(values)]
        if rng.random() < 0.3:
            argv.append("--trace-mode")
        return argv
    if command == "equisafe":
        argv += _fuzz_encoding(rng)
        if rng.random() < 0.2:
            argv.append("--cosim")
    return argv + _fuzz_domain(rng) + ["--format",
                                       rng.choice(["human", "json"])]


def test_cli_fuzz_exit_codes(capsys, tmp_path):
    rng = random.Random(20260417)
    files = _fuzz_programs(tmp_path, rng)
    for _ in range(1000):
        argv = _fuzz_argv(rng, files, tmp_path)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_DISAGREE, EXIT_ERROR), argv
        assert "Traceback" not in err, argv
        if code == EXIT_DISAGREE:
            assert argv[0] in ("equisafe", "corpus"), argv


def test_readme_lists_every_long_option():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    missing = sorted({
        f"{name} {opt}" for name, sub in commands.choices.items()
        for action in sub._actions for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
        and not re.search(re.escape(opt) + r"(?![\w-])", section)})
    assert missing == []


def run_module(*argv):
    """``python -m heapinv ARGV`` in a fresh interpreter that imports the
    package under test."""
    env = {"PYTHONPATH": str(pathlib.Path(heapinv.__file__).parent.parent),
           "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "heapinv", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)


def test_python_m_heapinv_runs_the_cli():
    done = run_module("--help")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("usage: heapinv ")
    done = run_module("fixpoint")
    assert done.returncode == EXIT_ERROR
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: ")
