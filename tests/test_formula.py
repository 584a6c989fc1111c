import pytest

from heapinv.formula import FormulaInterpretation, load_interpretation
from heapinv.interp import ObjVal
from heapinv.lang import parse_and_check

PROG = parse_and_check("""prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Node;
  pred R(Int, Int, Obj);
  pred P(Int);
  input in;
  seed seed;
  skip;
}""")


def test_formula_membership():
    fi = FormulaInterpretation(PROG, {
        "P": (["v"], "v > 0 && v % 2 = 0"),
    })
    assert (2,) in fi.relation("P")
    assert (4,) in fi.relation("P")
    assert (3,) not in fi.relation("P")
    assert (-2,) not in fi.relation("P")


def test_formula_with_selectors():
    fi = FormulaInterpretation(PROG, {
        "R": (["g", "c", "n"], "data(n) = g + c"),
    })
    assert (1, 2, ObjVal("node", (3, 0))) in fi.relation("R")
    assert (1, 2, ObjVal("node", (4, 0))) not in fi.relation("R")


def test_unknown_predicate_is_empty():
    fi = FormulaInterpretation(PROG, {"P": (["v"], "1")})
    assert (1,) not in fi.relation("Q")


def test_load_from_dict():
    fi = load_interpretation(
        {"preds": {"P": {"params": ["v"], "formula": "v = 7"}}}, PROG)
    assert (7,) in fi.relation("P") and (8,) not in fi.relation("P")


def test_validation_errors():
    with pytest.raises(ValueError):
        FormulaInterpretation(PROG, {"Z": (["v"], "1")})
    with pytest.raises(ValueError):
        FormulaInterpretation(PROG, {"P": (["a", "b"], "1")})
    with pytest.raises(ValueError):
        FormulaInterpretation(PROG, {"P": (["v"], "v + ")})
    with pytest.raises(ValueError):
        load_interpretation({"nope": {}}, PROG)


def test_repeated_parameter_is_refused():
    # binding one name twice would silently keep the last tuple component
    with pytest.raises(ValueError, match="'P'.*'a' twice"):
        load_interpretation(
            {"preds": {"P": {"params": ["a", "a"], "formula": "a > 0"}}},
            PROG)
    with pytest.raises(ValueError, match="'R'.*'n' twice"):
        FormulaInterpretation(PROG, {"R": (["n", "c", "n"], "data(n) = c")})


def test_division_by_zero_is_a_value_error():
    # a formula's division by zero must not read as an assertion failure
    fi = FormulaInterpretation(PROG, {"P": (["a"], "1 / (a - a)")})
    with pytest.raises(ValueError, match="'P'"):
        (0,) in fi.relation("P")
    fi = FormulaInterpretation(PROG, {"P": (["a"], "a % 0 = 0")})
    with pytest.raises(ValueError, match="'P'"):
        (3,) in fi.relation("P")


def test_bundled_invariant_fixture_loads(corpus):
    from importlib import resources
    from heapinv.encode import enc_r
    entry = next(e for e in corpus if e.name == "list-build-traverse")
    enc = enc_r(entry.load()).program
    path = resources.files("heapinv.fixtures").joinpath("list_invariant.json")
    fi = load_interpretation(str(path), enc)
    # spot values: the tail read of a negative input, an inner build read
    assert (-1, 1, ObjVal("node", (3, 0))) in fi.relation("R")
    assert (2, 1, ObjVal("node", (99, 2))) in fi.relation("R")  # data free
    assert (2, 1, ObjVal("node", (2, 3))) not in fi.relation("R")
