import hashlib
import json
import pathlib

from heapinv.fixpoint import _value_json, check_safety
from heapinv.lang import parse_and_check, parse_program, pretty_print, typecheck


def test_manifest_labels_are_well_formed(corpus):
    assert len(corpus) >= 20
    assert sum(e.expected == "safe" for e in corpus) >= 12
    assert sum(e.expected == "unsafe" for e in corpus) >= 6
    names = [e.name for e in corpus]
    assert len(set(names)) == len(names)


def test_every_entry_parses_and_typechecks(corpus):
    for entry in corpus:
        prog = entry.load()
        assert typecheck(prog) == []
        assert prog.input_var is not None and prog.seed_var is not None


def test_sources_roundtrip_through_printer(corpus):
    for entry in corpus:
        prog = parse_program(entry.source())
        text = pretty_print(prog)
        assert parse_program(text) == prog
        assert pretty_print(parse_program(text)) == text


def test_scope_vars_are_declared_ints(corpus):
    from heapinv.lang import INT
    for entry in corpus:
        if entry.scope_var:
            prog = entry.load()
            assert prog.var_types.get(entry.scope_var) == INT


def test_labels_match_oracle_spot_check(corpus, domain):
    # the complete re-derivation runs in the acceptance suite
    for name in ("single-cell-roundtrip", "write-read-false",
                 "blocked-by-assume"):
        entry = next(e for e in corpus if e.name == name)
        assert check_safety(entry.load(), domain).kind == entry.expected


def test_readme_language_sketch_typechecks():
    import pathlib
    import re
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    m = re.search(r"```\nprog \{\n(.*?)```", text, re.S)
    assert m, "README language sketch not found"
    src = re.sub(r"//[^\n]*", "", "prog {\n" + m.group(1))
    parse_and_check(src)


def matrix_golden(corpus_matrix) -> dict:
    """Verdict JSON and a digest of the sorted fixed point for every task
    of the corpus matrix, keyed ``entry/variant``."""
    out = {}
    for name, row in corpus_matrix.items():
        if name == "__build_seconds__":
            continue
        for variant, info in row.fixinfo.items():
            facts = sorted(json.dumps([pred, [_value_json(v) for v in args]])
                           for pred, rel in info.interp.rels.items()
                           for args in rel)
            digest = hashlib.sha256("\n".join(facts).encode()).hexdigest()
            out[f"{name}/{variant}"] = {
                "verdict": row.verdicts[variant].to_json(),
                "fixpoint_sha256": digest,
            }
    return out


def test_matrix_matches_golden(corpus_matrix):
    # every verdict and fixed point of the acceptance matrix, as recorded
    # in tests/golden/matrix.json
    golden = pathlib.Path(__file__).parent / "golden" / "matrix.json"
    want = json.loads(golden.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(matrix_golden(corpus_matrix)))
    assert len(want) == 242
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
