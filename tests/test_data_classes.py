"""The package's data classes against the dataclasses they replaced.

The classes of ``heapinv.lang``, ``interp``, ``fixpoint``, ``encode``,
``chc`` and ``replay`` were dataclasses; they are now plain classes with
``__slots__`` and a hand-written ``__init__``.  The references below are
the dataclass definitions they replaced, with their fields and the
methods of their own that equality, hashing and ``repr`` use.  Each class
must take the same arguments, compare, hash and print the same, keep its
field order, and refuse assignment when its original was frozen.  The
instances compared are those that parsing, encoding, the oracle, the Horn
translation and the co-simulation build from the corpus and from
generated programs, each against its copy built from the reference
classes.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import random
from dataclasses import dataclass, field

import pytest

from heapinv import chc, encode, fixpoint, interp, lang, replay
from heapinv.corpus import VARIANTS, load_corpus

import progen

_META = dict(compare=False, repr=False, kw_only=True)

# heapinv.lang


@dataclass(frozen=True, slots=True)
class Type:
    kind: str
    adt: str | None = None
    pos: tuple[int, int] = field(default=(0, 0), **_META)

    def __str__(self) -> str:
        if self.kind == "Obj":
            return self.adt if self.adt is not None else "Obj"
        return self.kind


@dataclass(slots=True)
class CtorDecl:
    name: str
    fields: list[tuple[str, Type]]


@dataclass(slots=True)
class AdtDecl:
    name: str
    ctors: list[CtorDecl]
    pos: tuple[int, int] = field(default=(0, 0), **_META)


@dataclass(slots=True)
class PredDecl:
    name: str
    arg_types: list[Type]


@dataclass(slots=True)
class Expr:
    pos: tuple[int, int] = field(default=(0, 0), **_META)


@dataclass(slots=True)
class IntLit(Expr):
    value: int


@dataclass(slots=True)
class Var(Expr):
    name: str


@dataclass(slots=True)
class Null(Expr):
    pass


@dataclass(slots=True)
class DefObj(Expr):
    pass


@dataclass(slots=True)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(slots=True)
class CtorApp(Expr):
    ctor: str
    args: list[Expr]


@dataclass(slots=True)
class SelApp(Expr):
    sel: str
    arg: Expr


@dataclass(slots=True)
class TestApp(Expr):
    __test__ = False  # not a test class
    ctor: str
    arg: Expr


@dataclass(slots=True)
class Stmt:
    pos: tuple[int, int] = field(default=(0, 0), **_META)


@dataclass(slots=True)
class Assign(Stmt):
    target: str
    expr: Expr


@dataclass(slots=True)
class Alloc(Stmt):
    target: str
    expr: Expr


@dataclass(slots=True)
class Read(Stmt):
    target: str
    addr: str


@dataclass(slots=True)
class Write(Stmt):
    addr: str
    expr: Expr


@dataclass(slots=True)
class Skip(Stmt):
    pass


@dataclass(slots=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...] = ()


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Stmt


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(slots=True)
class AssumeExpr(Stmt):
    expr: Expr


@dataclass(slots=True)
class AssertExpr(Stmt):
    expr: Expr


@dataclass(slots=True)
class AssumePred(Stmt):
    pred: str
    args: list[Expr]


@dataclass(slots=True)
class AssertPred(Stmt):
    pred: str
    args: list[Expr]


@dataclass(slots=True)
class HavocStmt(Stmt):
    target: str


@dataclass(slots=True)
class NondetStmt(Stmt):
    target: str


@dataclass(slots=True)
class Program:
    adts: list[AdtDecl] = field(default_factory=list)
    heap_adt: str | None = None
    heap_pos: tuple[int, int] = field(default=(0, 0), **_META)
    preds: list[PredDecl] = field(default_factory=list)
    input_var: str | None = None
    seed_var: str | None = None
    var_types: dict[str, Type] = field(default_factory=dict)
    body: Block = field(default_factory=Block)


@dataclass(slots=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


# heapinv.interp


@dataclass(frozen=True)
class Top:
    def __repr__(self):
        return "Top"


@dataclass(frozen=True)
class Bot:
    pred: str
    args: tuple

    def __repr__(self):
        return f"Bot({self.pred}, {self.args!r})"


@dataclass(frozen=True)
class Undefined:
    reason: str

    def __repr__(self):
        return f"Undefined({self.reason})"


# heapinv.fixpoint


@dataclass(frozen=True)
class InputDomain:
    in_range: tuple[int, int] = (-3, 3)
    seed_range: tuple[int, int] = (0, 255)
    last_addr_range: tuple[int, int] = (0, 6)
    loop_fuel: int = 64
    heap_op_fuel: int = 32
    iteration_cap: int | None = None


@dataclass(slots=True)
class Leaf:
    seed: int
    outcome: object
    blocker: tuple | None
    weight: int
    step: int
    resume: tuple | None = None
    compared: frozenset = frozenset()


@dataclass(slots=True, eq=False)
class Record:
    resume: tuple
    site: DrawSite
    outcome: object
    blocker: tuple
    compared: frozenset
    offset: int
    table: dict
    excluded: frozenset = frozenset()


@dataclass
class Cell:
    in_v: int | None
    last_addr: int | _AnyAddress | None
    leaves: list[Leaf] = field(default_factory=list)
    records: list[Record] = field(default_factory=list)
    covered: bytearray | None = None


@dataclass
class FixpointInfo:
    interp: Interpretation
    iterations: int
    executor: GridExecutor
    classes: list[tuple[GridExecutor, range | list[int]]] | None = None

    def __post_init__(self):
        if self.classes is None:
            lo, hi = self.executor.domain.in_range
            self.classes = [(self.executor, range(lo, hi + 1))]


@dataclass(frozen=True)
class Witness:
    inputs: dict
    pred: str
    args: tuple


@dataclass
class SafetyVerdict:
    kind: str
    witness: Witness | None = None
    inconclusive_count: int = 0
    iterations: int = 0
    pred_sizes: dict = field(default_factory=dict)


@dataclass
class EquisafetyResult:
    agree: bool
    verdict_left: SafetyVerdict
    verdict_right: SafetyVerdict


# heapinv.encode


@dataclass(frozen=True)
class EncodingConfig:
    base: str = "r"
    tagging: bool = False
    caching: bool = False
    scope_vars: tuple[str, ...] = ()
    drop_args: tuple[tuple[str, int], ...] = ()
    assume_memsafe: bool = False
    native_havoc: bool = False
    strip_asserts: bool = False
    alloc_init_write: bool = False


@dataclass
class EncodedProgram:
    program: Program
    source: Program
    config: EncodingConfig


# heapinv.chc


@dataclass
class PredApp:
    name: str
    args: tuple


@dataclass
class Clause:
    head: PredApp | None
    body: list[PredApp]
    constraint: list
    vars: tuple[tuple[str, str], ...]


@dataclass
class ClauseSet:
    adts: list
    preds: dict[str, tuple[str, ...]]
    clauses: list[Clause] = field(default_factory=list)
    entry: str = ""
    state: tuple[tuple[str, str], ...] = ()
    state_args: tuple[str, ...] = ()


@dataclass(frozen=True)
class SolveResult:
    kind: str
    detail: str = ""


# heapinv.replay


@dataclass
class CosimPoint:
    in_v: int
    last_addr: int
    ok: bool
    detail: str = ""


@dataclass
class CosimReport:
    points: list[CosimPoint]


REFS = {name: cls for name, cls in globals().items()
        if dataclasses.is_dataclass(cls)}
MODULES = (lang, interp, fixpoint, encode, chc, replay)
CLASSES = {name: getattr(m, name) for m in MODULES for name in REFS
           if hasattr(m, name)}


def test_every_data_class_has_its_reference():
    assert set(CLASSES) == set(REFS)
    converted = {name for m in MODULES for name, cls in vars(m).items()
                 if isinstance(cls, type) and issubclass(cls, lang.Struct)
                 and cls.__module__ == m.__name__}
    converted -= {"Struct", "FrozenStruct"}
    assert converted == set(REFS)


def parameters(cls) -> list[tuple]:
    """Name, kind and default of each constructor parameter; a dataclass
    field's default factory is None."""
    return [(p.name, p.kind,
             None if repr(p.default) == "<factory>" else p.default)
            for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("name", sorted(REFS))
def test_class_matches_its_dataclass(name):
    ref, new = REFS[name], CLASSES[name]
    fs = dataclasses.fields(ref)
    assert new._fields == tuple(f.name for f in fs if f.compare)
    assert new._meta == tuple(f.name for f in fs if not f.compare)
    slots = {s for c in new.__mro__ for s in vars(c).get("__slots__", ())}
    assert slots == {f.name for f in fs}
    assert parameters(new) == parameters(ref)
    params = ref.__dataclass_params__
    assert issubclass(new, lang.FrozenStruct) == params.frozen
    assert (new.__eq__ is not object.__eq__) == params.eq
    assert (new.__hash__ is None) == (ref.__hash__ is None)


# ---------------------------------------------------------------------------
# instances


def to_ref(x, memo: dict):
    """``x`` with each instance of a converted class, in it or in the
    lists, tuples, sets and dicts it holds, built again from the
    reference class; one copy per object, so identity is kept."""
    if id(x) in memo:
        return memo[id(x)]
    if isinstance(x, lang.Struct):
        ref = REFS[type(x).__name__]
        out = ref(**{f.name: to_ref(getattr(x, f.name), memo)
                     for f in dataclasses.fields(ref)})
    elif type(x) in (list, tuple, set, frozenset):
        out = type(x)(to_ref(y, memo) for y in x)
    elif type(x) is dict:
        out = {to_ref(k, memo): to_ref(v, memo) for k, v in x.items()}
    else:
        return x
    memo[id(x)] = out
    return out


def collect(x, out: dict) -> None:
    """Every instance of a converted class in ``x``, by identity."""
    stack = [x]
    while stack:
        x = stack.pop()
        if isinstance(x, lang.Struct):
            if id(x) in out:
                continue
            out[id(x)] = x
            stack.extend(getattr(x, f) for f in x._fields + x._meta)
        elif type(x) in (list, tuple, set, frozenset):
            stack.extend(x)
        elif type(x) is dict:
            stack.extend(x)
            stack.extend(x.values())


ILL_TYPED = """prog {
  adt Node { node(data: Int, next: Addr); }
  heaptype Nosuch;
  pred P(Int);
  input in;
  var p: Addr; var x: Node;
  p := in;
  x := node(p, 1);
  assert(P(x));
}"""


@pytest.fixture(scope="module")
def instances() -> list:
    """Instances of every converted class, built by the package."""
    domain = fixpoint.InputDomain(in_range=(-1, 1), seed_range=(0, 31),
                                  last_addr_range=(0, 3))
    found: dict = {}
    entries = load_corpus()
    sources = [e.load() for e in entries]
    sources += [progen.gen_program(s, allow_havoc=True) for s in range(8)]
    sources += [progen.gen_program(s, allow_pair_adt=True) for s in range(8)]
    for i, p in enumerate(sources):
        collect(p, found)
        for config in (VARIANTS["r"][0], VARIANTS["rw_ct"][0],
                       encode.EncodingConfig("rw", native_havoc=True)):
            try:
                enc = encode.encode(p, config)
            except lang.InputError:
                continue  # a generated program without a heap type
            collect(enc, found)
            if i % 5 == 0:
                collect(chc.to_chc(enc.program), found)
        if i % 4 == 0 and p.heap_adt is not None:
            enc = encode.enc_r(p).program
            collect(fixpoint.check_equisafety(p, enc, domain), found)
            info = fixpoint.least_fixpoint_info(enc, domain)
            collect(info, found)
            for ex, _ in info.classes:
                collect([ex.domain, list(ex.cells.values())], found)
    p_star = encode.enc_n(entries[0].load())
    collect(replay.cosim_check(p_star, encode.enc_r(p_star).program, domain),
            found)
    collect(lang.typecheck(lang.parse_program(ILL_TYPED)), found)
    collect([chc.SolveResult("sat"), chc.SolveResult("error", "no solver"),
             lang.Expr(pos=(1, 2)), lang.Stmt(pos=(3, 4))], found)
    return list(found.values())


def test_instances_of_every_class(instances):
    assert {type(x).__name__ for x in instances} == set(REFS)


def hashing(x):
    """How ``x`` hashes: not at all, by identity, or to a value."""
    if type(x).__hash__ is None:
        with pytest.raises(TypeError):
            hash(x)
        return "unhashable"
    if type(x).__hash__ is object.__hash__:
        return "identity"
    try:
        return hash(x)
    except TypeError:  # a frozen instance that holds a dict
        return "unhashable value"


def test_instances_match_their_dataclass_copies(instances):
    memo: dict = {}
    refs = [to_ref(x, memo) for x in instances]
    for x, r in zip(instances, refs):
        assert not hasattr(x, "__dict__")
        assert repr(x) == repr(r)
        assert str(x) == str(r)
        assert hashing(x) == hashing(r), repr(x)
    # equality within each class, and across classes
    by_class: dict = {}
    for x, r in zip(instances, refs):
        by_class.setdefault(type(x), []).append((x, r))
    rng = random.Random(0)
    pairs = []
    for members in by_class.values():
        some = rng.sample(members, min(len(members), 25))
        pairs += [(a, b) for a in some for b in some]
    mixed = list(zip(instances, refs))
    pairs += [tuple(rng.sample(mixed, 2)) for _ in range(3000)]
    # instances of different classes with equal fields (Null and DefObj,
    # an assume and an assert of one expression, ...)
    alike: dict = {}
    for x, r in mixed:
        alike.setdefault(repr(x._values()), {}).setdefault(type(x), (x, r))
    across = [(a, b) for group in alike.values() for a in group.values()
              for b in group.values() if a is not b]
    assert len(across) > 10
    pairs += across
    equal = 0
    for (a, ra), (b, rb) in pairs:
        assert (a == b) == (ra == rb), (a, b)
        assert (a != b) == (ra != rb), (a, b)
        equal += a == b
    assert len(pairs) > equal > len(instances) // 10


def test_positions_and_locations_are_left_out_of_equality(instances):
    memo: dict = {}
    n = 0
    for x in instances:
        if not x._meta:
            continue
        moved = {m: (-1, -1) for m in x._meta}
        y, ry = lang.replace(x, **moved), dataclasses.replace(
            to_ref(x, memo), **moved)
        assert all(getattr(y, m) == v for m, v in moved.items())
        assert y == x and ry == to_ref(x, memo)
        assert repr(y) == repr(ry) == repr(x)
        n += 1
    assert n > 1000


def test_frozen_instances_refuse_assignment(instances):
    memo: dict = {}
    for x in instances:
        r = to_ref(x, memo)
        f = (x._fields + x._meta + ("anything",))[0]
        value = getattr(x, f, None)
        if isinstance(x, lang.FrozenStruct):
            for obj in (x, r):
                with pytest.raises(AttributeError):
                    setattr(obj, f, value)
                with pytest.raises(AttributeError):
                    delattr(obj, f)
            # copies are built through the constructor
            for c in (copy.copy(x), copy.deepcopy(x)):
                assert c == x and type(c) is type(x)
                assert [getattr(c, m) for m in x._meta] == \
                    [getattr(x, m) for m in x._meta]
        elif f != "anything":
            setattr(x, f, value)
            setattr(r, f, value)
