"""Interpretations given as closed formulas.

A JSON file can supply one arithmetic formula per predicate; membership of a
tuple is decided by evaluating the formula with the parameters bound to the
tuple components.  This turns a solved invariant into an executable fixture:
a program can be run under it without any fixed-point computation or
external solver.

File format::

    {
      "preds": {
        "R": {
          "params": ["in", "c", "n"],
          "formula": "(in < 0 && c = 1 && data(n) = 3) || ..."
        }
      }
    }

Selector and constructor names in formulas resolve against the ADTs of the
program the interpretation is used with.
"""

from __future__ import annotations

import json

from .interp import _BotSignal, _Compiler
from .lang import INT, Program, SourceError, TypeChecker, parse_expr_text


class _FormulaRelation:
    """The tuples that satisfy one predicate's formula, as a container."""

    __slots__ = ("name", "params", "fn")

    def __init__(self, name: str, params: list[str], fn):
        self.name = name
        self.params = params
        self.fn = fn

    def __contains__(self, args: tuple) -> bool:
        try:
            return self.fn(dict(zip(self.params, args))) != 0
        except _BotSignal:
            # the only failure of a formula is a division by zero; it must
            # not pass for an assertion failure of the program under test
            raise ValueError(f"formula for {self.name!r} divides by zero "
                             f"at {args!r}") from None


class FormulaInterpretation:
    """Predicate membership decided by evaluating per-predicate formulas."""

    def __init__(self, program: Program,
                 formulas: dict[str, tuple[list[str], str]]):
        self.rels: dict[str, _FormulaRelation] = {}
        preds = program.preds_by_name()
        for name, (params, text) in formulas.items():
            pd = preds.get(name)
            if pd is None:
                raise ValueError(f"formula for undeclared predicate {name!r}")
            repeated = next((a for k, a in enumerate(params)
                             if a in params[:k]), None)
            if repeated is not None:
                raise ValueError(f"formula for {name!r} names parameter "
                                 f"{repeated!r} twice")
            if len(params) != len(pd.arg_types):
                raise ValueError(
                    f"formula for {name!r} names {len(params)} parameters, "
                    f"predicate has arity {len(pd.arg_types)}")
            try:
                expr = parse_expr_text(text, program.adts)
            except SourceError as exc:
                raise ValueError(
                    f"formula for {name!r} does not parse: {exc}") from exc
            ctx = Program(adts=program.adts, heap_adt=program.heap_adt,
                          var_types=dict(zip(params, pd.arg_types)))
            checker = TypeChecker(ctx)
            ty = checker.check_expr(expr)
            if checker.diags:
                raise ValueError(
                    f"formula for {name!r} is ill-typed: {checker.diags[0]}")
            if ty != INT:
                raise ValueError(f"formula for {name!r} must have type Int")
            self.rels[name] = _FormulaRelation(name, list(params),
                                               _Compiler(ctx).expr(expr))

    def relation(self, name: str):
        """The predicate's tuples as a container; empty without a formula."""
        return self.rels.get(name, frozenset())


def load_interpretation(source: str | dict,
                        program: Program) -> FormulaInterpretation:
    """Build a formula interpretation from a JSON file path or a dict."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("interpretation file must hold a JSON object")
    preds = data.get("preds")
    if not isinstance(preds, dict):
        raise ValueError("interpretation file needs a 'preds' object")
    formulas = {}
    for name, spec in preds.items():
        try:
            params, formula = spec["params"], str(spec["formula"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed entry for predicate {name!r}") from exc
        if not (isinstance(params, list)
                and all(isinstance(p, str) for p in params)):
            raise ValueError(
                f"'params' of predicate {name!r} must be a list of names")
        formulas[name] = (params, formula)
    return FormulaInterpretation(program, formulas)
