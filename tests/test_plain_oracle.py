"""The optimised oracle against the plain one (``plain_oracle``).

``least_fixpoint_info`` with ``verdict_from_executor`` stacks every saving
of the ``fixpoint`` module: seed classing, resumed reruns, address
classing, draw-site records and input classing.  The plain oracle has none
of them, so agreeing with it checks the whole stack at once: the same
fixed point, iteration count and verdict JSON, witness and inconclusive
count included, or the same iteration cap error.
"""

from heapinv.encode import enc_r
from heapinv.fixpoint import (
    InputDomain, IterationCapExceeded, least_fixpoint_info,
    verdict_from_executor,
)
from heapinv.lang import (
    LAST_ADDR_VAR, AssertExpr, Binary, Block, If, IntLit, Var,
    contains_heap_statements, replace,
)

import test_fixpoint
from plain_oracle import plain_fixpoint
from test_walks import corpus_programs

# small enough that every grid point runs in every iteration
DOMAIN = InputDomain(seed_range=(0, 15), last_addr_range=(0, 3))

# The seed is assigned before the draw, so every seed draws what seed 1
# draws (-1) and the program is safe; a run resumed at P(0) with the seed
# variable set from its own seed would draw 0 for some seeds.
SEED_ASSIGNED = """prog {
  pred P(Int);
  seed seed;
  var y: Int;
  seed := 1;
  assert(P(0));
  assume(P(0));
  havoc(y);
  assert(y != 0);
}"""


def outcome(oracle, program, domain):
    """The fixed point, iteration count and verdict JSON of ``oracle``, or
    its iteration cap error's message and sizes."""
    try:
        interp, iterations, verdict = oracle(program, domain)
    except IterationCapExceeded as exc:
        return "cap", str(exc), exc.sizes
    return interp, iterations, verdict.to_json()


def optimised(program, domain):
    try:
        info = least_fixpoint_info(program, domain)
    except TypeError as exc:
        # the address probe of address classing has no order, so a
        # program that compares $last_addr by < must not be classed
        raise AssertionError(f"the oracle raised {exc!r}") from exc
    return (info.interp, info.iterations,
            verdict_from_executor(program, domain, info))


def check_plain(programs, domain=DOMAIN) -> int:
    """Each labelled program's optimised outcome against the plain one;
    returns the number compared."""
    n = 0
    for label, p in programs:
        assert outcome(optimised, p, domain) == \
            outcome(plain_fixpoint, p, domain), label
        n += 1
    return n


def hand_written_programs():
    """The precondition programs of ``test_fixpoint``, each source with a
    heap statement also under ``r``, and one program per classing
    precondition: an assigned seed, the input inside a constructor beside
    its bare position (in ``INPUT_NOT_ONLY_AN_INDEX``) and ``$last_addr``
    compared by ``<``."""
    sources = {name: src for name, (src, *_) in
               {**test_fixpoint.INPUT_NOT_ONLY_AN_INDEX,
                **test_fixpoint.INPUT_COMPARED}.items()}
    sources.update((name, getattr(test_fixpoint, name))
                   for name in dir(test_fixpoint) if name.startswith("SITE_"))
    sources.update(
        input_free=test_fixpoint.INPUT_FREE_PREDICATE,
        untracked=test_fixpoint.UNTRACKED_READ_FAILS,
        narrow=test_fixpoint.NARROW_AT_ADDRESS,
        draws_around_query=test_fixpoint.DRAWS_AROUND_QUERY,
        loop_after_read=test_fixpoint.LOOP_AFTER_READ,
        seed_assigned=SEED_ASSIGNED)
    for name, src in sources.items():
        p = test_fixpoint.prog(src)
        yield name, p
        if contains_heap_statements(p):
            yield f"{name}/r", enc_r(p).program
    # $ names are reserved in source, so the program is edited as a tree
    p = enc_r(test_fixpoint.prog(test_fixpoint.NARROW_AT_ADDRESS)).program
    below = If(Binary("<", Var(LAST_ADDR_VAR), IntLit(1)), Block(()),
               Block((AssertExpr(IntLit(0)),)))
    yield "address-ordered", replace(p, body=Block((below,) + p.body.stmts))


def check_hand_written():
    assert check_plain(hand_written_programs()) > 0
    # one class needs four iterations: every cap below that is exceeded
    p = test_fixpoint.prog(test_fixpoint.TWO_LENGTHS.replace("GUARD", "> 0"))
    for cap in (0, 1, 2, 3, 4):
        check_plain([(cap, p)], replace(DOMAIN, iteration_cap=cap))


def test_plain_oracle_agrees_on_the_matrix():
    # every corpus program under every variant: the 242 matrix tasks
    assert check_plain(corpus_programs()) == 242


def test_plain_oracle_agrees_on_hand_written_programs():
    check_hand_written()
