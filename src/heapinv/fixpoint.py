"""Bounded least-fixed-point oracle for uninterpreted predicates.

The strongest interpretation under which no predicate assertion fails is
computed by iterating the operator ``T``: one application runs the program
over a finite grid of inputs and adds every argument tuple whose assertion
failed.  Safety of a program over the same grid is then decided by running
it once more under the fixed point: only expression assertions can still
fail there.

Executions are deterministic given (input, seed, prophecy address, fuel),
which allows five big savings without changing the computed sets:

* when the seed variable is only touched by havoc/nondet draws
  (``CompiledProgram.seed_classing``: never read by an expression or
  assigned), a run that consumed b seed bits behaves the same for every
  seed congruent to its own mod 2^b.  Each cell keeps one mark per seed of
  its range: an unmarked seed is run and then marks every seed of its
  class in the range; marked seeds are skipped.  Any seed of a run's class
  reads the same first b bits and stops there, so the classes are disjoint
  and any seed of a class runs as its least seed does: the leaf is filed
  at the class's least seed and weighs the seeds it marked;
* between iterations only the seed classes blocked on a newly added tuple
  are rerun, and each rerun resumes at the query it was blocked on.  A run
  stops at its first negative predicate query, and predicates occur only
  in assumptions and assertions of a growing interpretation, so a leaf
  whose blocker was not added stays as it is.  A blocked leaf stands for
  the seeds ``seed, seed + step, ...`` of the range and keeps the run's
  resume point (``RunResult.resume``): the query's index and the state
  just before it.  Every seed of the class runs the same path to that
  query, because a draw reads only the b bits the class shares, and every
  query on the path held under the old interpretation and still holds
  under the larger one; the only variable that differs is the seed, which
  holds ``seed >> b`` there.  So continuing each seed of the class from
  the point, with the seed variable set to ``seed >> b`` (kept as it is
  without seed classing, where a class is one seed), gives exactly its
  fresh run, and the class is rerun with the same marking loop, restricted
  to the class.  A run that now gets past the query consumes at least b
  bits and marks a sub-class inside the class: the leaves equal those of
  rerunning the whole cell.  Every failing tuple of a kept leaf is already
  in the interpretation, so only the new leaves are harvested;
* when the prophecy variable ``$last_addr`` is read only as an operand of
  ``=`` / ``!=`` (``lang.variable_uses``), each input's seeds are run once
  with a sentinel address that equals nothing and records the set E of
  values it was compared with.  Every test was false, and a run at an
  address outside E makes the same tests, so it is the same run: the
  sentinel leaf stands for its seed class at every address of the range
  outside E, and for none when E covers the range (its path is never
  taken, so it is dropped).  At each address a of E the class is run
  explicitly, and such a run marks its own class at a, which can be wider
  than the sentinel's (a run that matches early draws fewer seed bits) or
  narrower.  All seeds of a class at a run alike, so every sentinel class
  inside a wider one compared with a too; the explicit marks at a are
  therefore unions of sentinel classes whose E holds a, and the loop over
  a sentinel class at a skips the seeds they mark.  An explicit class met
  at any of its seeds is marked whole, since any seed of a class runs as
  its least seed does.  Every sentinel leaf keeps its E
  (one object per value), which gives the addresses it stands for; a
  blocked leaf's E holds the values compared with up to the query.  A
  rerun continues the blocked run, so its E only grows: a resumed
  sentinel run starts from the leaf's E, and only the addresses newly in
  E get explicit runs.  A sentinel failure reports the least address it
  stands for, so the witness is the least failing grid point as before;
* under seed classing, a run blocked at the assume of a draw site
  (``interp.DrawSite``: havocs entered only at the first, then an assume
  that reads what they drew only as bare arguments) returns the state
  before the draws as its resume point, after b seed bits: the site's
  first havoc stores the bits, the loop fuel and the env.  Every seed
  congruent to its own mod 2^b reaches that point (the node's seeds), and
  the draws read nothing but the seed's next bits.  The site's draw table
  over the node's seeds, inverted (``DrawSite.classes``), maps each drawn
  value tuple to its seed classes, with the bits and loop fuel their draws
  use.  It is built in one loop with one draw per class, once per range
  and per shape of site in the executor's compiled program, and shared by
  every node of that shape and range.  A class whose draws fit the point's
  loop fuel, and whose tuple (the blocked run's with the drawn arguments
  replaced) is not in the relation, is blocked there as its run would be.
  A relation is a membership test, probed only when it is not empty: from
  the empty interpretation, ``run_all`` never probes.  These classes, the
  blocked run's own among them, are marked with one slice over the node
  and kept as one ``Record``: the point (which holds b, and so the node's
  stride), the site, the outcome, the blocked tuple, the compared values,
  the node's offset, the shared table, and the few value tuples of the
  table that the record leaves out.  The
  node's other unmarked seeds are run from the point, in seed order,
  before the loop that found the node goes on.  The nodes of a resumed
  call lie in its class, since a run from the class's point draws at least
  the class's bits before it reaches another site.  An explicit call takes
  the whole node: its run compared ``$last_addr`` with the cell's address
  before the site (a sentinel run that had not would have reached the site
  in the same state and blocked there without comparing, so no explicit
  run would have been made), so every seed of the node did, and each has
  its class at that address; at the sentinel a record's whole node is
  likewise run at each address of its compared values.  A rerun scans
  each cell's records for the added tuples that the blocked tuple makes
  with drawn values the record stands for, and runs from the point only
  the classes that drew them.  Records are always blocked on an assume,
  so verdicts and harvesting never look at them; ``rows`` lists their
  classes one by one.  A node's seeds can meet further nodes, and
  the depth of that nesting is bounded only by the loop and heap fuel of
  the domain, so the loops in progress are kept on an explicit stack
  rather than by recursion, which could exceed Python's recursion limit;
* when the input variable is read only as a bare argument of predicate
  queries, at the same positions in every assume and assert of each
  predicate, and as a bare operand of comparisons (``lang.query_positions``),
  and every queried predicate holds it at some position, the least fixed
  point is computed class by class of inputs.  A tuple that a run at input
  b asserts holds b at its predicate's input positions, and a query at b
  asks only for such tuples, so the runs at b see only the tuples at b,
  and each input's iterates are independent of the others'.  A predicate
  without the input breaks this: in ``if (in > 0) { assert(P(1)); }
  assume(P(1)); assert(0);`` the tuple asserted at the inputs above 0
  unblocks the runs at every input, so such a program runs the full grid.
  The compiled program records each comparison of the input that a run
  evaluates as (op, other value), with the input on the left.  A class's
  least input is the least input not yet covered; its fixed point is
  computed at that input alone, and the class is every uncovered input
  that gives each comparison its whole computation recorded the same
  outcome.  By induction over the iterations and along each run, the
  computation at such an input b is the least input's with b written into
  the input positions: the input is read nowhere else, so every other
  value is the same, every comparison has the same outcome, and each query
  holds exactly when its renaming does.  So the fixed point is every
  class's tuples written at each of its inputs; the full grid's k-th
  iterate at each input is that input's own, so its iteration count is
  the most any class takes, and with every class run to its fixed point or
  one iteration past the cap, the cap's sizes are the full grid's.  Inputs
  that no comparison tells apart form one class.  The least failing
  class's least input is the least failing input, so its least failure is
  the least failing grid point; a seed class that exhausts its fuel does
  so at each input of its class, and the verdict counts it once per input.
  The classes share one compiled program, so the draw tables are built
  once.  This holds from the empty interpretation only:
  ``GridExecutor.run_all``, ``immediate_consequence`` and ``sweep_under``
  run under an interpretation the caller chose, which need not split by
  input, so they keep the full grid.
"""

from __future__ import annotations

import sys
from typing import Iterator, NamedTuple

from .interp import (
    Bot, CompiledProgram, DrawSite, FUEL_EXHAUSTED, ObjVal, Undefined, Value,
)
from .lang import (
    COUNTER_VAR, FAILURE_PRED, LAST_ADDR_VAR, FrozenStruct, HavocStmt,
    InputError, NondetStmt, Program, Struct, query_positions, replace,
    set_field, variable_uses, walk_statements,
)


# ---------------------------------------------------------------------------
# Interpretations


class Interpretation:
    """Finite interpretation: predicate name -> set of argument tuples."""

    __slots__ = ("rels",)

    def __init__(self, rels: dict[str, set[tuple]] | None = None):
        self.rels: dict[str, set[tuple]] = {k: set(v) for k, v in (rels or {}).items()}

    @staticmethod
    def empty() -> "Interpretation":
        return Interpretation()

    def relation(self, name: str) -> set[tuple]:
        """The predicate's set of tuples, the one ``add`` grows: a query
        is ``args in relation``.  Asking for it registers the empty set."""
        return self.rels.setdefault(name, set())

    def add(self, name: str, args: tuple) -> bool:
        rel = self.rels.setdefault(name, set())
        if args in rel:
            return False
        rel.add(args)
        return True

    def tuples(self, name: str) -> frozenset:
        return frozenset(self.rels.get(name, ()))

    def copy(self) -> "Interpretation":
        return Interpretation(self.rels)

    def sizes(self) -> dict[str, int]:
        return {name: len(rel) for name, rel in sorted(self.rels.items())
                if rel}

    def total_size(self) -> int:
        return sum(len(rel) for rel in self.rels.values())

    def __eq__(self, other):
        if not isinstance(other, Interpretation):
            return NotImplemented
        names = set(self.rels) | set(other.rels)
        return all(self.rels.get(n, set()) == other.rels.get(n, set())
                   for n in names)

    def __repr__(self):
        return f"Interpretation({self.sizes()})"


# ---------------------------------------------------------------------------
# Input domain


class InputDomain(FrozenStruct):
    """Finite restriction of the space of initial stacks."""

    __slots__ = _fields = ("in_range", "seed_range", "last_addr_range",
                           "loop_fuel", "heap_op_fuel", "iteration_cap")

    def __init__(self, in_range: tuple[int, int] = (-3, 3),
                 seed_range: tuple[int, int] = (0, 255),
                 last_addr_range: tuple[int, int] = (0, 6),
                 loop_fuel: int = 64, heap_op_fuel: int = 32,
                 iteration_cap: int | None = None):
        for name, (lo, hi) in (("input", in_range), ("seed", seed_range),
                               ("last address", last_addr_range)):
            if lo > hi:
                raise ValueError(f"empty {name} range {lo}:{hi}")
            # the executor lists and marks a range's values one by one
            if hi - lo >= sys.maxsize:
                raise ValueError(f"{name} range {lo}:{hi} holds more than "
                                 f"{sys.maxsize} values")
        if seed_range[0] < 0:
            raise ValueError("seeds must be nonnegative")
        if last_addr_range[0] < 0:
            raise ValueError("addresses are naturals")
        for name, value in (("loop_fuel", loop_fuel),
                            ("heap_op_fuel", heap_op_fuel),
                            ("iteration_cap", iteration_cap)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative")
        set_field(self, "in_range", in_range)
        set_field(self, "seed_range", seed_range)
        set_field(self, "last_addr_range", last_addr_range)
        set_field(self, "loop_fuel", loop_fuel)
        set_field(self, "heap_op_fuel", heap_op_fuel)
        set_field(self, "iteration_cap", iteration_cap)

    def grid_size(self) -> int:
        return ((self.in_range[1] - self.in_range[0] + 1)
                * (self.seed_range[1] - self.seed_range[0] + 1)
                * (self.last_addr_range[1] - self.last_addr_range[0] + 1))

    def cap(self) -> int:
        return self.iteration_cap if self.iteration_cap is not None \
            else 10 * self.grid_size()


def program_uses_seed(program: Program) -> bool:
    """True when executions can depend on the seed: a draw statement exists
    or the seed variable is read by an expression."""
    if program.seed_var is None:
        return False
    if program.seed_var in variable_uses(program)[0]:
        return True
    return any(isinstance(s, (HavocStmt, NondetStmt))
               for s in walk_statements(program.body))


def program_uses_input(program: Program) -> bool:
    return (program.input_var is not None
            and program.input_var in variable_uses(program)[0])


def initial_stack(program: Program, in_v: int | None, seed: int | None,
                  last_addr: int | None, counter: int | None) -> dict:
    """The inputs of one grid point: each value that is not None is bound
    to its variable when the program declares that variable."""
    inputs = {}
    if in_v is not None and program.input_var is not None:
        inputs[program.input_var] = in_v
    if seed is not None and program.seed_var is not None:
        inputs[program.seed_var] = seed
    if last_addr is not None and LAST_ADDR_VAR in program.var_types:
        inputs[LAST_ADDR_VAR] = last_addr
    if counter is not None and COUNTER_VAR in program.var_types:
        inputs[COUNTER_VAR] = counter
    return inputs


# ---------------------------------------------------------------------------
# Grid executor


class Leaf(Struct):
    __slots__ = _fields = ("seed", "outcome", "blocker", "weight", "step",
                           "resume", "compared")

    def __init__(self, seed: int, outcome: object, blocker: tuple | None,
                 weight: int, step: int, resume: tuple | None = None,
                 compared: frozenset = frozenset()):
        self.seed = seed      # representative (smallest in class)
        self.outcome = outcome
        self.blocker = blocker
        self.weight = weight  # number of seeds in the class within range
        self.step = step      # 2^bits; the range size without seed classing
        # a blocked run's resume point (``RunResult.resume``); for a
        # sentinel run, the values it compared ``$last_addr`` with (up to
        # the query when blocked)
        self.resume = resume
        self.compared = compared


class Record(Struct):
    """The seed classes of a draw-site node that the site's draw table
    settled: the node is the offsets ``offset, offset + stride, ...`` of
    the range, ``table`` is the site's inverted draw table over the node,
    and a class stands here when its draws make a value tuple of the table
    that is not ``excluded``, within the point's loop fuel.  Each is
    blocked at the node's point, on ``blocker`` with the drawn arguments
    replaced.  The point ends with the seed bits b consumed before the
    draws, and ``stride`` is 2^b.  Equal only to itself."""

    __slots__ = _fields = ("resume", "site", "outcome", "blocker",
                           "compared", "offset", "table", "excluded")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, resume: tuple, site: DrawSite, outcome: object,
                 blocker: tuple, compared: frozenset, offset: int,
                 table: dict, excluded: frozenset = frozenset()):
        self.resume = resume  # the node's point: the state before the draws
        self.site = site
        self.outcome = outcome    # the blocked runs' outcome
        self.blocker = blocker    # (pred, args) of the run that found the node
        self.compared = compared  # as a blocked leaf's
        self.offset = offset
        self.table = table        # shared with every node of the site's shape
        # the value tuples of the table whose classes do not stand here: in
        # the relation at the visit, taken out by reruns, or with every
        # class past the point's loop fuel
        self.excluded = excluded

    def settled(self) -> Iterator[tuple]:
        """The drawn value tuples whose classes stand here."""
        excluded = self.excluded
        return (v for v in self.table if v not in excluded)


class Cell(Struct):
    __slots__ = _fields = ("in_v", "last_addr", "leaves", "records",
                           "covered")

    def __init__(self, in_v: int | None, last_addr: int | _AnyAddress | None,
                 leaves: list[Leaf] | None = None,
                 records: list[Record] | None = None,
                 covered: bytearray | None = None):
        self.in_v = in_v
        self.last_addr = last_addr
        self.leaves = [] if leaves is None else leaves
        self.records = [] if records is None else records
        # with address classing, one mark per seed that a leaf or record of
        # this (explicit-address) cell stands for
        self.covered = covered

    def blockers(self) -> set[tuple]:
        out = {l.blocker for l in self.leaves if l.blocker is not None}
        for r in self.records:
            name, args = r.blocker
            out.update((name, r.site.splice(args, v)) for v in r.settled())
        return out


class Row(NamedTuple):
    """One seed class of one cell of the grid: the seeds ``seed, seed +
    step, ...`` of the range (``weight`` of them), at ``addresses``
    prophecy addresses, the least of them ``least``.  ``last_addr`` is the
    cell's address, the executor's ``any_address`` at the sentinel;
    ``compared`` holds the values a sentinel run compared ``$last_addr``
    with, and ``resume`` is a blocked run's resume point."""
    in_v: int | None
    last_addr: object
    addresses: int
    least: int | None
    seed: int
    step: int
    weight: int
    outcome: object
    blocker: tuple | None
    compared: frozenset
    resume: tuple | None


class _AnyAddress:
    """Bound to ``$last_addr`` in a run that stands for many addresses: it
    equals no value and records every value it is compared with.
    ``operator.eq`` reaches ``__eq__`` from either side, and so does
    ``operator.ne``, through the default ``__ne__`` that inverts it (as
    the reflected call when an int is on the left)."""

    __slots__ = ("compared",)

    def __init__(self):
        self.compared: set = set()

    def __eq__(self, other):
        if other is self:
            return True
        self.compared.add(other)
        return False

    # hashed by identity: it is the address of the sentinel cells' keys
    __hash__ = object.__hash__

    # the same in every run, so that rows and resume points holding the
    # probe repr alike
    def __repr__(self):
        return "any_address"


def _unmarked(marked: bytearray, start: int, stride: int) -> Iterator[int]:
    """The offsets ``start, start + stride, ...`` that are unmarked when
    the loop over them reaches them, in order."""
    if stride == 1:
        i = marked.find(0, start)
        while i >= 0:
            yield i
            i = marked.find(0, i + 1)
        return
    k = marked[start::stride].find(0)
    while k >= 0:
        yield start + k * stride
        k = marked[start::stride].find(0, k + 1)


def _failing(leaves) -> set[tuple]:
    """(pred, args) pairs of the leaves that failed a predicate assertion."""
    return {(leaf.outcome.pred, leaf.outcome.args) for leaf in leaves
            if isinstance(leaf.outcome, Bot)
            and leaf.outcome.pred != FAILURE_PRED}


class GridExecutor:
    """Runs a compiled program over the bounded input grid with per-cell
    memoisation between fixpoint iterations."""

    def __init__(self, program: Program, domain: InputDomain,
                 compiled: CompiledProgram | None = None):
        self.program = program
        self.domain = domain
        self.compiled = compiled or CompiledProgram(program)
        self.enumerate_in = (program.input_var is not None
                             and program.input_var in self.compiled.reads)
        self.enumerate_last_addr = LAST_ADDR_VAR in program.var_types
        self.seed_var = program.seed_var
        # seed classing is sound only when the seed variable is touched by
        # draws alone; resuming relies on the same fact
        self.seed_classing = self.compiled.seed_classing
        # address classing is sound only when runs see the prophecy address
        # through equality tests alone
        self.address_classing = (
            self.enumerate_last_addr
            and LAST_ADDR_VAR not in self.compiled.used_beyond_eq)
        self.any_address = _AnyAddress()
        # a program without a seed runs once per cell, at seed 0
        self.seed_range = domain.seed_range if self.seed_var is not None \
            else (0, 0)
        self.cells: dict[tuple, Cell] = {}
        # the compared sets of sentinel leaves, one object per value
        self._compared: dict[frozenset, frozenset] = {}

    # enumeration dimensions

    def in_values(self) -> list[int | None]:
        if self.enumerate_in:
            lo, hi = self.domain.in_range
            return list(range(lo, hi + 1))
        return [None]

    def last_addr_values(self) -> list[int | None]:
        if self.enumerate_last_addr:
            lo, hi = self.domain.last_addr_range
            return list(range(lo, hi + 1))
        return [None]

    def _run_seeds(self, cell: Cell, interp, start: int, stride: int,
                   marked: bytearray | None = None,
                   blocked: Leaf | Record | None = None) -> list[Leaf]:
        """Leaves of the unmarked seeds at offsets ``start, start + stride,
        ...`` of the cell's seed range: an unmarked seed is run and marks
        its class, each seed of which it stands for, and a leaf's seed is
        its class's least seed.  ``marked`` (one mark per seed of the range)
        defaults to no seed marked.  A leaf of the address sentinel keeps
        the set of values its run compared ``$last_addr`` with.  When the
        seeds lie in a ``blocked`` class of the cell (a leaf, or a class of
        a record), every run continues from its resume point, and a
        sentinel run starts from the values the blocked run had compared
        with.

        A run blocked at a draw site stops before the draws, after b seed
        bits, and every seed congruent to its own mod 2^b reaches that point
        (its node).  The node's classes that the site's draw table settles
        are marked and filed on the cell as one ``Record``, the run's own
        class among them; the node's other unmarked seeds are then run from
        the point, in seed order, before the loop that found the node goes
        on."""
        # the runs of a cell differ only in the seed, set in place per run
        inputs = initial_stack(self.program, cell.in_v, None, cell.last_addr,
                               self.domain.heap_op_fuel)
        seed_var = self.seed_var
        lo, hi = self.seed_range
        n = hi - lo + 1
        loop_fuel, heap_fuel = self.domain.loop_fuel, self.domain.heap_op_fuel
        classing = self.seed_classing
        sites = self.compiled.sites
        probe = self.any_address
        sentinel = cell.last_addr is probe
        interned = self._compared
        run = self.compiled.run
        resume, known = ((None, frozenset()) if blocked is None
                         else (blocked.resume, blocked.compared))
        if marked is None:
            marked = bytearray(n)
        leaves = []
        append = leaves.append
        # the seed loops in progress: the call's own, then one per node that
        # a run of the loop below it blocked at, with the node's point and
        # compared values
        loops = [(_unmarked(marked, start, stride), resume, known)]
        while loops:
            seeds, point, known = loops[-1]
            for i in seeds:
                if seed_var is not None:
                    inputs[seed_var] = lo + i
                if sentinel:
                    probe.compared = set(known)
                result, _, _, _, bits, stop, _, after = run(
                    inputs=inputs, interp=interp, loop_fuel=loop_fuel,
                    heap_fuel=heap_fuel, resume=point)
                compared = known
                if sentinel:
                    compared = frozenset(probe.compared)
                    compared = interned.setdefault(compared, compared)
                site = sites.get(after[-1]) if after is not None else None
                if site is None:
                    step = 1 << bits if classing else n
                    j = i % step
                    weight = (n - 1 - j) // step + 1
                    append(Leaf(lo + j, result, stop, weight, step, after,
                                compared))
                    marked[j::step] = b"\x01" * weight
                    continue
                # visit the node before any other seed of this loop
                span = 1 << after[-2]
                offset = i % span
                table, most = site.classes((lo + offset) >> after[-2],
                                           (n - 1 - offset) // span + 1)
                cell.records.append(self._settle(
                    interp, marked, most, Record(after, site, result, stop,
                                                 compared, offset, table)))
                loops.append((_unmarked(marked, offset, span), after,
                              compared))
                break
            else:
                loops.pop()
        return leaves

    def _classes(self, rec: Record, settled) -> Iterator[tuple]:
        """The value tuple, the least offset and the step of each class of
        the record's node whose draws make a tuple of ``settled`` within
        the point's loop fuel."""
        fuel, bits = rec.resume[-4], rec.resume[-2]
        for values in settled:
            for k, used, need in rec.table[values]:
                if need <= fuel:
                    yield values, rec.offset + (k << bits), 1 << (bits + used)

    def _settle(self, interp, marked: bytearray, most: int,
                rec: Record) -> Record:
        """Exclude from the record the value tuples of its node that the
        draw table does not settle, and mark the classes of the others:
        those whose draws fit the point's loop fuel (``most`` is the most
        that a class of the table needs) and whose tuple is not in the
        relation, so that their runs would block at the point as the run
        that found the node did.  None of these classes is marked yet.
        Every seed of the node reaches the point, a node is visited once,
        and any other run of a seed of the node got past the site or ran
        out of fuel in its draws, so its class holds only seeds that draw
        what it drew.  (A class that an explicit cell marked under a
        smaller interpretation holds its seeds' classes under a larger
        one.)  So the whole node is marked, and then the other classes get
        back the marks they had."""
        table = rec.table
        name, args = rec.blocker
        rel = interp.relation(name)
        splice = rec.site.splice
        # a relation is a membership test and may be infinite (a formula's),
        # so it is never iterated; an empty one holds nothing
        held = {v for v in table if splice(args, v) in rel} if rel else set()
        fuel, bits = rec.resume[-4], rec.resume[-2]
        if most <= fuel:
            others = [table[v] for v in held]
        else:
            held.update([v for v, classes in table.items()
                         if all(need > fuel for _, _, need in classes)])
            others = [[c for c in classes if v in held or c[2] > fuel]
                      for v, classes in table.items()]
        if held:
            rec.excluded = frozenset(held)
        o, span = rec.offset, 1 << bits
        before = marked[o::span]
        marked[o::span] = b"\x01" * len(before)
        for classes in others:
            for k, used, _ in classes:
                marked[o + (k << bits)::span << used] = before[k::1 << used]
        return rec

    def run_all(self, interp):
        addresses = ([self.any_address] if self.address_classing
                     else self.last_addr_values())
        self.cells = {}
        for in_v in self.in_values():
            for la in addresses:
                cell = self.cells[(in_v, la)] = Cell(in_v, la)
                self._run_class(cell, interp, 0, 1)

    def _run_class(self, cell: Cell, interp, start: int, stride: int,
                   blocked: Leaf | Record | None = None) -> list[Leaf]:
        """Run the seeds at offsets ``start, start + stride, ...`` of the
        cell, resuming the ``blocked`` class's run if given.  At the address
        sentinel, each run's class, and each new record's node, is then run
        at every address of the range that the run compared ``$last_addr``
        with, on the seeds the explicit cell there does not mark yet.  The
        new leaves and records that stand for some grid point are filed on
        their cells; returns the new leaves of every cell."""
        first = len(cell.records)
        leaves = self._run_seeds(cell, interp, start, stride, None, blocked)
        explicit: list[Leaf] = []
        if cell.last_addr is self.any_address:
            lo = self.seed_range[0]
            leaves = [leaf for leaf in leaves if self._explicit(
                cell, interp, leaf.compared, leaf.seed - lo, leaf.step,
                explicit)]
            cell.records[first:] = [rec for rec in cell.records[first:]
                                    if self._explicit(
                                        cell, interp, rec.compared,
                                        rec.offset, 1 << rec.resume[-2],
                                        explicit)]
        cell.leaves += leaves
        return leaves + explicit

    def _explicit(self, cell: Cell, interp, compared: frozenset, start: int,
                  stride: int, explicit: list[Leaf]) -> bool:
        """Run the sentinel cell's seeds at offsets ``start, start + stride,
        ...`` at each address of the range in ``compared``, on the seeds the
        explicit cell there does not mark yet, and add the new explicit
        leaves to ``explicit``.  False when ``compared`` covers the range:
        the path the runs took is never taken, so they stand for no grid
        point."""
        in_v = cell.in_v
        lo_a, hi_a = self.domain.last_addr_range
        lo, hi = self.seed_range
        hits = 0
        for a in compared:
            if not lo_a <= a <= hi_a:
                continue
            hits += 1
            at = self.cells.get((in_v, a))
            if at is None:
                at = self.cells[(in_v, a)] = \
                    Cell(in_v, a, covered=bytearray(hi - lo + 1))
            if 0 in at.covered[start::stride]:
                new = self._run_seeds(at, interp, start, stride, at.covered)
                at.leaves += new
                explicit += new
        return hits <= hi_a - lo_a

    def rerun_blocked(self, interp, added: set[tuple]) -> set[tuple]:
        """Rerun the seed class of every leaf blocked on a tuple of ``added``
        from the leaf's resume point, and the classes of every record that
        drew an added tuple from the record's point, and return the failing
        tuples of the leaves that replace them.  A record drew ``t`` when
        the value tuple ``site.drawn(t)`` stands there and puts ``t`` back
        together from the record's blocked tuple.  A sentinel class is rerun
        at the sentinel, from the values the blocked run had compared with,
        so only the addresses it newly compares with get explicit runs."""
        lo = self.seed_range[0]
        by_pred: dict[str, list[tuple]] = {}
        for name, args in added:
            by_pred.setdefault(name, []).append(args)
        fresh: list[Leaf] = []
        # explicit cells grow while sentinel cells are rerun; their new
        # leaves and records ran under ``interp`` and are never blocked on
        # ``added``
        for cell in list(self.cells.values()):
            classes = [(leaf.seed - lo, leaf.step, leaf)
                       for leaf in cell.leaves if leaf.blocker in added]
            if classes:
                cell.leaves = [leaf for leaf in cell.leaves
                               if leaf.blocker not in added]
            for rec in cell.records:
                name, args = rec.blocker
                tuples = by_pred.get(name)
                if tuples is None:
                    continue
                site, table, excluded = rec.site, rec.table, rec.excluded
                drew = [v for t in tuples
                        if (v := site.drawn(t)) in table
                        and v not in excluded and site.splice(args, v) == t]
                if drew:
                    rec.excluded = excluded.union(drew)
                    classes += [(j, step, rec)
                                for _, j, step in self._classes(rec, drew)]
            if classes:
                cell.records = [rec for rec in cell.records
                                if len(rec.excluded) < len(rec.table)]
            for start, stride, blocked in classes:
                fresh += self._run_class(cell, interp, start, stride, blocked)
        return _failing(fresh)

    # harvesting

    def owned(self, cell: Cell, compared: frozenset) -> tuple[int, int | None]:
        """The number of prophecy addresses a class of the cell stands for,
        and the least of them: at the sentinel, the addresses of the range
        that its run never compared ``$last_addr`` with (``compared``)."""
        if cell.last_addr is not self.any_address:
            return 1, cell.last_addr
        lo, hi = self.domain.last_addr_range
        least = lo
        while least in compared:
            least += 1
        return hi - lo + 1 - sum(lo <= a <= hi for a in compared), least

    def rows(self) -> Iterator[Row]:
        """Every seed class of the grid, cell by cell, in no fixed order;
        a record gives one row per class it stands for."""
        lo, hi = self.seed_range
        for cell in self.cells.values():
            for leaf in cell.leaves:
                yield Row(cell.in_v, cell.last_addr,
                          *self.owned(cell, leaf.compared), leaf.seed,
                          leaf.step, leaf.weight, leaf.outcome, leaf.blocker,
                          leaf.compared, leaf.resume)
            for rec in cell.records:
                owned = self.owned(cell, rec.compared)
                name, args = rec.blocker
                for values, j, step in self._classes(rec, rec.settled()):
                    yield Row(cell.in_v, cell.last_addr, *owned, lo + j, step,
                              (hi - lo - j) // step + 1, rec.outcome,
                              (name, rec.site.splice(args, values)),
                              rec.compared, rec.resume)

    def failing_tuples(self) -> set[tuple]:
        """(pred, args) pairs from failed predicate assertions."""
        return _failing(leaf for cell in self.cells.values()
                        for leaf in cell.leaves)

    def collapsed_multiplier(self) -> int:
        """Grid points represented by each run through unenumerated
        dimensions (unused input, no prophecy variable, no seed)."""
        d = self.domain
        m = 1
        if not self.enumerate_in:
            m *= d.in_range[1] - d.in_range[0] + 1
        if not self.enumerate_last_addr:
            m *= d.last_addr_range[1] - d.last_addr_range[0] + 1
        if self.seed_var is None:
            m *= d.seed_range[1] - d.seed_range[0] + 1
        return m

    def witness(self, in_v, seed, la, pred: str, args: tuple) -> "Witness":
        """Witness at a grid point; a collapsed dimension reports the lowest
        value of its range."""
        d = self.domain
        inputs = initial_stack(
            self.program, d.in_range[0] if in_v is None else in_v, seed,
            d.last_addr_range[0] if la is None else la, d.heap_op_fuel)
        return Witness(inputs, pred, args)


# ---------------------------------------------------------------------------
# The operator T and its least fixed point


def immediate_consequence(program: Program, interp: Interpretation,
                          domain: InputDomain) -> Interpretation:
    """One application of T: add every tuple whose predicate assertion fails
    for some grid input, starting from the empty heap."""
    ex = GridExecutor(program, domain)
    ex.run_all(interp)
    out = interp.copy()
    for pred, args in ex.failing_tuples():
        out.add(pred, args)
    return out


class FixpointInfo(Struct):
    __slots__ = _fields = ("interp", "iterations", "executor", "classes")

    def __init__(self, interp: Interpretation, iterations: int,
                 executor: GridExecutor,
                 classes: list[tuple[GridExecutor, range | list[int]]]
                 | None = None):
        self.interp = interp
        self.iterations = iterations
        self.executor = executor  # the first class's
        # (executor, inputs) of each input class, least input first: the
        # inputs of the range the executor's runs stand for.  By default
        # the executor alone, for the inputs of its own range.
        if classes is None:
            lo, hi = executor.domain.in_range
            classes = [(executor, range(lo, hi + 1))]
        self.classes = classes


class IterationCapExceeded(InputError):
    def __init__(self, cap: int, sizes: dict[str, int]):
        super().__init__(
            f"fixpoint iteration cap {cap} exceeded; predicate sizes {sizes}")
        self.cap = cap
        self.sizes = sizes


def input_positions(program: Program,
                    domain: InputDomain) -> dict[str, tuple] | None:
    """The positions of the input in each queried predicate's tuples when
    the least fixed point is computed class by class of inputs (see the
    module docstring), else None: every queried predicate must hold the
    input, and the program must read it."""
    if program.input_var is None or domain.in_range[0] == domain.in_range[1]:
        return None
    positions = query_positions(program, program.input_var)
    if positions is None or not all(positions.values()):
        return None
    # a program without predicates may leave the input unread, and then
    # its grid has one input already
    if not positions and not program_uses_input(program):
        return None
    return positions


def _iterate(ex: GridExecutor, interp: Interpretation, limit: int) -> int:
    """Apply T over the executor's grid from ``interp`` (empty) until it
    stops growing or has grown ``limit`` times; returns how often it grew.
    The final, confirming application is performed unless the limit
    stops the loop."""
    ex.run_all(interp)
    iterations = 0
    added = {t for t in ex.failing_tuples()
             if t[1] not in interp.relation(t[0])}
    while added:
        for pred, args in added:
            interp.add(pred, args)
        iterations += 1
        if iterations == limit:
            break
        added = {t for t in ex.rerun_blocked(interp, added)
                 if t[1] not in interp.relation(t[0])}
    return iterations


def _expand(out: Interpretation, interp: Interpretation,
            positions: dict[str, tuple], inputs: list[int]) -> None:
    """Add to ``out`` every tuple of ``interp`` written at each of the
    inputs in its predicate's input positions."""
    for name, rel in interp.rels.items():
        at = positions[name]
        grown = out.relation(name)
        for args in rel:
            row = list(args)
            for b in inputs:
                for i in at:
                    row[i] = b
                grown.add(tuple(row))


def least_fixpoint_info(program: Program, domain: InputDomain) -> FixpointInfo:
    """Iterate T from the empty interpretation over the grid, or class by
    class of inputs when the input only indexes the predicates and is
    compared (``input_positions``).  A class's executor runs its least
    input; its other inputs give that input's outcome on every comparison
    of the input that the class's runs evaluated."""
    # iterations counts the applications of T that grew the interpretation
    cap = domain.cap()
    positions = input_positions(program, domain)
    if positions is None:
        ex = GridExecutor(program, domain)
        interp = Interpretation.empty()
        iterations = _iterate(ex, interp, cap + 1)
        if iterations > cap:
            raise IterationCapExceeded(cap, interp.sizes())
        return FixpointInfo(interp, iterations, ex)
    compiled = CompiledProgram(program)
    compared = compiled.input_compared
    interp = Interpretation.empty()
    iterations = 0
    classes = []
    lo, hi = domain.in_range
    uncovered = list(range(lo, hi + 1))
    while uncovered:
        least = uncovered[0]
        compared.clear()
        ex = GridExecutor(program, replace(domain, in_range=(least, least)),
                          compiled)
        part = Interpretation.empty()
        # every class runs to its fixed point or past the cap, so that the
        # cap's sizes are the full grid's
        iterations = max(iterations, _iterate(ex, part, cap + 1))
        members, uncovered = _split(uncovered, least, compared)
        classes.append((ex, members))
        _expand(interp, part, positions, members)
    if iterations > cap:
        raise IterationCapExceeded(cap, interp.sizes())
    return FixpointInfo(interp, iterations, classes[0][0], classes)


def _split(inputs: list[int], least: int,
           compared: set[tuple]) -> tuple[list[int], list[int]]:
    """The inputs (ascending) that give each comparison ``(op, value)`` of
    ``compared`` the outcome that ``least`` gives it, and the others.  An
    outcome depends only on whether the input is below, at or above the
    value, so each comparison bounds the inputs or excludes its value."""
    lo, hi, off = inputs[0], inputs[-1], set()
    for op, v in compared:
        want = op(least, v)
        if op(v - 1, v) != want:
            lo = max(lo, v)
        if op(v + 1, v) != want:
            hi = min(hi, v)
        if op(v, v) != want:
            off.add(v)
    same, other = [], []
    for b in inputs:
        (same if lo <= b <= hi and b not in off else other).append(b)
    return same, other


def least_fixpoint(program: Program, domain: InputDomain) -> Interpretation:
    """Iterate T from the empty interpretation until it stabilises."""
    return least_fixpoint_info(program, domain).interp


# ---------------------------------------------------------------------------
# Safety


class Witness(FrozenStruct):
    __slots__ = _fields = ("inputs", "pred", "args")

    def __init__(self, inputs: dict, pred: str, args: tuple):
        set_field(self, "inputs", inputs)
        set_field(self, "pred", pred)
        set_field(self, "args", args)


class SafetyVerdict(Struct):
    __slots__ = _fields = ("kind", "witness", "inconclusive_count",
                           "iterations", "pred_sizes")

    def __init__(self, kind: str, witness: Witness | None = None,
                 inconclusive_count: int = 0, iterations: int = 0,
                 pred_sizes: dict | None = None):
        self.kind = kind  # "safe" | "unsafe" | "inconclusive"
        self.witness = witness
        self.inconclusive_count = inconclusive_count
        self.iterations = iterations
        self.pred_sizes = {} if pred_sizes is None else pred_sizes

    def to_json(self) -> dict:
        return {
            "verdict": self.kind,
            "iterations": self.iterations,
            "predicateSizes": dict(self.pred_sizes),
            "inconclusiveCount": self.inconclusive_count,
            "witnesses": [] if self.witness is None else [{
                "inputs": {k: v for k, v in self.witness.inputs.items()},
                "pred": self.witness.pred,
                "args": [_value_json(v) for v in self.witness.args],
            }],
        }


def _value_json(v: Value):
    if isinstance(v, ObjVal):
        return {"ctor": v.ctor, "fields": [_value_json(f) for f in v.fields]}
    return v


def _grid_order(failure: tuple) -> tuple:
    """Sort key of an (in, seed, last_addr, ...) failure: lexicographic on
    the grid point, a collapsed dimension (None) first."""
    return tuple(-(10 ** 9) if v is None else v for v in failure[:3])


def _verdict(classes: list[tuple[GridExecutor, int]], iterations: int,
             sizes: dict, at_fixed_point: bool) -> SafetyVerdict:
    """Unsafe with a witness at the least failure of the executors, else
    inconclusive when some run exhausted its fuel, else safe.  Each
    ``(executor, inputs)`` class that exhausted its fuel stands for
    ``inputs`` inputs per input of the executor.  At the fixed point no
    predicate assertion can still fail: one that does is an error."""
    least = key = at = None
    fuel = 0
    for ex, inputs in classes:
        spent = 0
        for cell in ex.cells.values():
            for leaf in cell.leaves:
                o = leaf.outcome
                if isinstance(o, Bot):
                    failure = (cell.in_v, leaf.seed,
                               ex.owned(cell, leaf.compared)[1], o)
                    if at_fixed_point and o.pred != FAILURE_PRED:
                        raise AssertionError(
                            "predicate assertion failing under the fixed "
                            f"point: {failure}")
                    order = _grid_order(failure)
                    if least is None or order < key:
                        least, key, at = failure, order, ex
                elif isinstance(o, Undefined) and o.reason == FUEL_EXHAUSTED:
                    spent += leaf.weight * ex.owned(cell, leaf.compared)[0]
        fuel += spent * ex.collapsed_multiplier() * inputs
    if least is not None:
        in_v, seed, la, o = least
        w = at.witness(in_v, seed, la, o.pred, o.args)
        return SafetyVerdict("unsafe", w, fuel, iterations, sizes)
    if fuel:
        return SafetyVerdict("inconclusive", None, fuel, iterations, sizes)
    return SafetyVerdict("safe", None, 0, iterations, sizes)


def verdict_from_executor(program: Program, domain: InputDomain,
                          info: FixpointInfo) -> SafetyVerdict:
    """The verdict at the fixed point ``info`` over ``domain``.  The
    executor of an input class ran the class's least input and stands for
    each of its inputs: the least failure of the least failing class is
    the least grid point that fails, and each of its seed classes counts
    once per input of the class."""
    return _verdict([(ex, len(inputs) // (ex.domain.in_range[1]
                                          - ex.domain.in_range[0] + 1))
                     for ex, inputs in info.classes],
                    info.iterations, info.interp.sizes(), True)


def check_safety(program: Program, domain: InputDomain) -> SafetyVerdict:
    """Bounded safety: compute the least fixed point, then look for any
    expression assertion failure across the grid."""
    info = least_fixpoint_info(program, domain)
    return verdict_from_executor(program, domain, info)


def sweep_under(program: Program, domain: InputDomain, interp) -> SafetyVerdict:
    """Run the grid under a fixed interpretation (no fixpoint computation).
    Predicate assertion failures count as unsafe here."""
    ex = GridExecutor(program, domain)
    ex.run_all(interp)
    return _verdict([(ex, 1)], 0, {}, False)


# ---------------------------------------------------------------------------
# Equi-safety


class EquisafetyResult(Struct):
    __slots__ = _fields = ("agree", "verdict_left", "verdict_right")

    def __init__(self, agree: bool, verdict_left: SafetyVerdict,
                 verdict_right: SafetyVerdict):
        self.agree = agree
        self.verdict_left = verdict_left
        self.verdict_right = verdict_right

    @property
    def kind(self) -> str:
        if self.agree:
            return f"agree({self.verdict_left.kind})"
        return "disagree"

    def to_json(self) -> dict:
        return {
            "agree": self.agree,
            "kind": self.kind,
            "left": self.verdict_left.to_json(),
            "right": self.verdict_right.to_json(),
        }


def check_equisafety(left: Program, right: Program,
                     domain: InputDomain) -> EquisafetyResult:
    """Compare bounded safety verdicts of a program and (typically) its
    encoding; fixed points are computed per program."""
    v1 = check_safety(left, domain)
    v2 = check_safety(right, domain)
    return EquisafetyResult(v1.kind == v2.kind, v1, v2)
