"""Independent validation of the clause translation: a bounded ground
saturation of the emitted clauses must agree with the execution oracle on
integer-only programs whose reachable values stay inside the chosen domain.

Deriving False from the clauses corresponds to unsafety; a saturated,
False-free least model corresponds to safety together with the synthesised
predicate facts."""

import itertools

from heapinv.chc import to_chc
from heapinv.fixpoint import InputDomain, check_safety, least_fixpoint
from heapinv.lang import parse_and_check

VALUES = list(range(-4, 5))


def eval_term(t, env):
    if isinstance(t, str):
        if t in env:
            return env[t]
        if t == "true":
            return True
        if t == "false":
            return False
        return int(t)
    op = t[0]
    if op == "-" and len(t) == 2:
        return -eval_term(t[1], env)
    args = [eval_term(x, env) for x in t[1:]]
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "div":
        return args[0] // args[1]
    if op == "mod":
        return args[0] % args[1]
    if op == "=":
        return args[0] == args[1]
    if op == "<":
        return args[0] < args[1]
    if op == "<=":
        return args[0] <= args[1]
    if op == ">":
        return args[0] > args[1]
    if op == ">=":
        return args[0] >= args[1]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "not":
        return not args[0]
    if op == "ite":
        return args[1] if args[0] else args[2]
    raise AssertionError(f"unhandled term {t!r}")


def saturate(clause_set, max_rounds=60):
    """Bounded least model: all predicate facts derivable with the variable
    domain VALUES.  Returns (facts, false_derived)."""
    facts = {name: set() for name in clause_set.preds}
    for _ in range(max_rounds):
        changed = False
        false_hit = False
        for cl in clause_set.clauses:
            free = [v for v, _ in cl.vars]

            def assignments():
                # drive enumeration by body facts; leftover variables range
                # over the finite domain
                if not cl.body:
                    for combo in itertools.product(VALUES, repeat=len(free)):
                        yield dict(zip(free, combo))
                    return
                first = cl.body[0]
                for fact in list(facts[first.name]):
                    env = {}
                    ok = True
                    for arg, val in zip(first.args, fact):
                        if isinstance(arg, str) and arg in env:
                            ok = env[arg] == val
                        elif isinstance(arg, str) and not arg.lstrip("-").isdigit():
                            env[arg] = val
                        else:
                            ok = eval_term(arg, env) == val
                        if not ok:
                            break
                    if not ok:
                        continue
                    rest = [v for v in free if v not in env]
                    for combo in itertools.product(VALUES, repeat=len(rest)):
                        yield {**env, **dict(zip(rest, combo))}

            for env in assignments():
                ok = True
                for atom in cl.body[1:]:
                    if tuple(eval_term(a, env) for a in atom.args) \
                            not in facts[atom.name]:
                        ok = False
                        break
                if ok:
                    for c in cl.constraint:
                        if not eval_term(c, env):
                            ok = False
                            break
                if not ok:
                    continue
                if cl.head is None:
                    false_hit = True
                    continue
                fact = tuple(eval_term(a, env) for a in cl.head.args)
                if fact not in facts[cl.head.name]:
                    facts[cl.head.name].add(fact)
                    changed = True
        if not changed:
            return facts, false_hit
    raise AssertionError("ground saturation did not stabilise")


PROGRAMS = [
    # (source, expected safety at in-range [-2..2])
    ("""prog {
      input in;
      var i: Int;
      i := in;
      if (i < 0) { i := -i; }
      assert(i >= 0);
    }""", "safe"),
    ("""prog {
      input in;
      assert(in != 1);
    }""", "unsafe"),
    ("""prog {
      pred P(Int);
      input in;
      var i: Int;
      assume(in >= 0 && in <= 1);
      assert(P(in));
      assume(P(2));
      assert(in + 1 <= 2);
    }""", "safe"),
    ("""prog {
      pred P(Int);
      input in;
      assume(P(in));
      assert(0);
    }""", "safe"),  # P can be interpreted as empty, blocking every run
    ("""prog {
      pred P(Int);
      input in;
      assert(P(in));
      assume(P(in));
      assert(in != 0);
    }""", "unsafe"),
    ("""prog {
      input in;
      var i: Int;
      var s: Int;
      i := 0;
      s := 0;
      while (i < 3) {
        s := s + 1;
        i := i + 1;
      }
      assert(s = 3);
    }""", "safe"),
    # ``!`` as a value: 1 when its operand is false, else 0
    ("""prog {
      input in;
      var b: Int;
      b := !(in < 0);
      if (in < 0) { assert(b = 0); } else { assert(b = 1); }
    }""", "safe"),
    # a bare Int condition: true when nonzero
    ("""prog {
      input in;
      var k: Int;
      k := in - 1;
      if (k) { k := 0; } else { assert(in != 1); }
    }""", "unsafe"),
    # corner cases of the control-flow graph: a loop test as the entry
    ("""prog {
      input in;
      var i: Int;
      while (i < 2) { i := i + 1; }
      assert(i >= 2);
    }""", "safe"),
    # both edges of a test go to one successor
    ("""prog {
      input in;
      if (in > 0) { } else { }
      assert(in != -1);
    }""", "unsafe"),
    # a loop that is never entered: its body edge goes back to the test
    ("""prog {
      input in;
      while (in > 5) { }
      assert(in != 1);
    }""", "unsafe"),
    # a loop body that ends in an if: its then part exits to the loop test
    ("""prog {
      input in;
      var i: Int;
      var s: Int;
      i := 0;
      s := 0;
      while (i < 3) {
        i := i + 1;
        if (i = 2) { s := s + 1; }
      }
      assert(s = 1);
    }""", "safe"),
]


def test_ground_saturation_matches_oracle():
    domain = InputDomain(in_range=(-2, 2))
    for src, expected in PROGRAMS:
        p = parse_and_check(src)
        verdict = check_safety(p, domain)
        assert verdict.kind == expected, src
        cs = to_chc(p)
        facts, false_hit = saturate(cs)
        # derivable False in the bounded model <=> bounded-oracle unsafety
        assert false_hit == (expected == "unsafe"), src


def test_ground_saturation_covers_oracle_fixpoint():
    # predicate facts discovered by the oracle are derivable from the
    # clauses (the clause model subsumes the executable fixed point)
    domain = InputDomain(in_range=(-2, 2))
    src, _ = PROGRAMS[4]
    p = parse_and_check(src)
    star = least_fixpoint(p, domain)
    facts, _ = saturate(to_chc(p))
    assert star.tuples("P") <= facts["P"]
