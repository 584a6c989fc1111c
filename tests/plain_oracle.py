"""A plain reference oracle: the least fixed point and the safety verdict
from plain runs, with none of the oracle's savings.

The least fixed point is reached by Kleene iteration from the empty
interpretation.  Each iteration runs every grid point of the domain, from
the start, with ``CompiledProgram.run`` under the interpretation so far,
and then adds the tuple of every predicate assertion that failed.  There
is no seed, address or input class, no rerun or resume point and no draw
site record.  A grid point is an (input, seed, ``$last_addr``) triple; a
variable the program does not declare is not bound, so its dimension is
run once and stands for each value of its range.  ``$c`` holds the
domain's heap-operation fuel wherever the program declares it.

At the fixed point, the last iteration's runs give the verdict: unsafe at
the least failing grid point, in (input, seed, ``$last_addr``) order, else
inconclusive when some grid point exhausted its fuel, else safe; the
inconclusive count is the number of grid points that exhausted their
fuel, an unsafe verdict included.
"""

from __future__ import annotations

from itertools import product

from heapinv.fixpoint import (
    InputDomain, Interpretation, IterationCapExceeded, SafetyVerdict, Witness,
)
from heapinv.interp import FUEL_EXHAUSTED, Bot, CompiledProgram, Undefined
from heapinv.lang import COUNTER_VAR, FAILURE_PRED, LAST_ADDR_VAR, Program


def grid(program: Program, domain: InputDomain) -> tuple[list[dict], int]:
    """The inputs of every grid point of the variables the program
    declares, in grid order, and the number of grid points each stands
    for."""
    dims = []
    weight = 1
    for name, (lo, hi) in ((program.input_var, domain.in_range),
                           (program.seed_var, domain.seed_range),
                           (LAST_ADDR_VAR in program.var_types
                            and LAST_ADDR_VAR, domain.last_addr_range)):
        if name:
            dims.append([(name, v) for v in range(lo, hi + 1)])
        else:
            weight *= hi - lo + 1
    counter = ([(COUNTER_VAR, domain.heap_op_fuel)]
               if COUNTER_VAR in program.var_types else [])
    return [dict(list(point) + counter) for point in product(*dims)], weight


def plain_fixpoint(program: Program, domain: InputDomain
                   ) -> tuple[Interpretation, int, SafetyVerdict]:
    """The least fixed point by Kleene iteration from the empty
    interpretation, the number of iterations that grew it and the verdict
    at it (see the module docstring).  Raises ``IterationCapExceeded``
    with the sizes after the iteration past the domain's cap."""
    compiled = CompiledProgram(program)
    points, weight = grid(program, domain)
    cap = domain.cap()
    interp = Interpretation.empty()
    iterations = 0
    while True:
        outcomes = [compiled.run(inputs=inputs, interp=interp,
                                 loop_fuel=domain.loop_fuel,
                                 heap_fuel=domain.heap_op_fuel).outcome
                    for inputs in points]
        added = {(o.pred, o.args) for o in outcomes
                 if isinstance(o, Bot) and o.pred != FAILURE_PRED}
        if not added:
            break
        for pred, args in added:
            interp.add(pred, args)
        iterations += 1
        if iterations > cap:
            raise IterationCapExceeded(cap, interp.sizes())
    fuel = weight * sum(isinstance(o, Undefined)
                        and o.reason == FUEL_EXHAUSTED for o in outcomes)
    sizes = interp.sizes()
    failing = next(((inputs, o) for inputs, o in zip(points, outcomes)
                    if isinstance(o, Bot)), None)
    if failing is not None:
        inputs, o = failing
        verdict = SafetyVerdict("unsafe", Witness(inputs, o.pred, o.args),
                                fuel, iterations, sizes)
    else:
        verdict = SafetyVerdict("inconclusive" if fuel else "safe", None,
                                fuel, iterations, sizes)
    return interp, iterations, verdict
