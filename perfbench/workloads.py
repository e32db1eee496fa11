"""Seeded request generators for the amalgamd benchmark.

Every workload is a pure function of (seed, size): the same seed gives the
same request lines, byte for byte. The daemon sees only these lines. Each
generator returns a Workload whose `timed` lines are replayed once per
round; what a round sets up before them depends on the workload (see
README.md).

The shapes of the inputs (classes, register counts, rule counts, shares of
each query type) are fixed; the seed picks guards from fixed pools, rule
order, control skeletons and the order of the requests. So two seeds load
the daemon with the same kinds of work in different concrete requests.
"""

import json
import random

# One register over the Example 1 graph schema (binary E, unary red).
ER_SCHEMA = {"relations": [["E", 2], ["red", 1]]}
ER_GUARDS = [
    "E(x_old, x_new)",
    "E(x_new, x_old)",
    "E(x_old, x_new) & red(x_new)",
    "x_old = x_new & red(x_old)",
    "E(x_old, x_new) & x_old != x_new",
    "red(x_old) & E(x_old, x_new) & red(x_new)",
]

# Two registers over a unary schema.
UNARY_SCHEMA = {"relations": [["red", 1], ["blue", 1]]}
UNARY_GUARDS = [
    "x_new = y_old & red(x_new)",
    "y_new = x_old & blue(y_new)",
    "x_old = x_new & y_old != y_new",
    "x_new = x_old & red(y_new)",
    "y_old = y_new & blue(x_new) & x_new != x_old",
    "x_new = y_old & y_new = x_old",
    "red(x_old) & x_new = y_old",
    "blue(y_old) & y_new = x_new",
]

# Three registers over a linear order / an equivalence relation; the
# relation name is substituted for REL.
ORDER_GUARDS = [
    "x_old = x_new & REL(y_old, z_new)",
    "REL(z_old, x_new)",
    "REL(x_old, x_new) & y_old = y_new",
    "REL(y_new, x_new) & z_new = z_old",
    "x_new = y_old & REL(x_old, z_new)",
    "REL(x_new, y_new) & REL(y_new, z_new)",
    "z_new = x_old & REL(y_old, y_new)",
]

# One register over the words of a mod<p> NFA (schema: a, lt).
WORD_GUARDS = [
    "lt(x_old, x_new) & a(x_new)",
    "x_old = x_new",
    "lt(x_new, x_old)",
    "lt(x_old, x_new)",
    "a(x_old) & lt(x_old, x_new)",
    "x_old != x_new & a(x_new)",
]

# One register over the trees of the `comb` automaton (a, b, desc, doc).
TREE_GUARDS = [
    "desc(x_old, x_new) & x_old != x_new",
    "x_old = x_new",
    "doc(x_old, x_new) & a(x_new)",
    "desc(x_new, x_old) & b(x_new)",
    "doc(x_new, x_old)",
    "a(x_old) & desc(x_old, x_new)",
]


class Workload:
    def __init__(self, name):
        self.name = name
        self.warm = []      # lines sent (pipelined) before the timed phase
        self.fixture = []   # lines that build the store fixture (store_churn)
        self.timed = []     # the timed sequence
        # Per timed line: "query", or store_churn's "read", "write" and
        # "maintain".
        self.kinds = []


def _line(qid, kind, registers, guards, n_states, rng, strategy=None,
          **fields):
    """One spec-described query line: `guards` in rule order over a seeded
    control skeleton of `n_states` states (s0 initial, the last accepting)."""
    states = [{"name": "s0", "initial": True}]
    states += [{"name": "s%d" % i} for i in range(1, n_states)]
    states[-1]["accepting"] = True
    rules = []
    for i, guard in enumerate(guards):
        # A spine s0 -> s1 -> ... keeps every state in play; the rest of the
        # rules land anywhere.
        src = i % n_states if i < n_states else rng.randrange(n_states)
        dst = (src + 1) % n_states if i < n_states else rng.randrange(n_states)
        rules.append({"from": "s%d" % src, "to": "s%d" % dst, "guard": guard})
    request = {"id": qid, "kind": kind}
    if strategy is not None:
        request["strategy"] = strategy
    request.update(fields)
    request["system"] = {"registers": registers, "states": states,
                         "rules": rules}
    return json.dumps(request, separators=(",", ":"))


def _rule_list(rng, pool, distinct, length):
    """`length` rules drawn from `distinct` guards of `pool`, shuffled."""
    chosen = rng.sample(pool, distinct)
    rules = [chosen[i % distinct] for i in range(length)]
    rng.shuffle(rules)
    return rules


class _KeyTemplate:
    """A graph key: class, registers and rule list. Queries over it differ
    only in their control skeletons, so they share one cached graph."""

    def __init__(self, kind, registers, guards, fields):
        self.kind = kind
        self.registers = registers
        self.guards = guards
        self.fields = fields

    def query(self, qid, rng, n_states, strategy=None):
        return _line(qid, self.kind, self.registers, self.guards, n_states,
                     rng, strategy, **self.fields)


def _er_key(rng, length):
    return _KeyTemplate("system", ["x"], _rule_list(rng, ER_GUARDS, 3, length),
                        {"class": "all", "schema": ER_SCHEMA})


def _unary_key(rng, length, distinct=3):
    return _KeyTemplate("system", ["x", "y"],
                        _rule_list(rng, UNARY_GUARDS, distinct, length),
                        {"class": "all", "schema": UNARY_SCHEMA})


def hot_replay(seed, size):
    """K warm keys (two thirds one-register E/red lists of 48 rules, one
    third two-register unary lists of 32 rules, each over 3 distinct
    guards); the timed phase replays seeded 16-64-state skeletons over
    them."""
    rng = random.Random("hot_replay/%d" % seed)
    n_keys = 24 if size == "full" else 6
    n_timed = 1600 if size == "full" else 200
    keys = [_unary_key(rng, 32) if i % 3 == 2 else _er_key(rng, 48)
            for i in range(n_keys)]
    w = Workload("hot_replay")
    w.warm = [k.query(i, rng, 2, "eager") for i, k in enumerate(keys)]
    for i in range(n_timed):
        key = keys[rng.randrange(n_keys)]
        w.timed.append(key.query(1000 + i, rng, rng.randint(16, 64)))
        w.kinds.append("query")
    return w


def _cold_query(rng, qid, qtype, strategy):
    if qtype == "unary":
        guards = [rng.choice(UNARY_GUARDS) for _ in range(12)]
        return _line(qid, "system", ["x", "y"], guards, 6, rng, strategy,
                     **{"class": "all", "schema": UNARY_SCHEMA})
    if qtype in ("orders", "equiv"):
        rel = "lt" if qtype == "orders" else "eqv"
        guards = [rng.choice(ORDER_GUARDS).replace("REL", rel)
                  for _ in range(4)]
        return _line(qid, "system", ["x", "y", "z"], guards, 4, rng, strategy,
                     **{"class": qtype,
                        "schema": {"relations": [[rel, 2]]}})
    if qtype == "words":
        guards = [rng.choice(WORD_GUARDS) for _ in range(4)]
        return _line(qid, "words", ["x"], guards, 4, rng, strategy,
                     nfa="mod5")
    guards = [rng.choice(TREE_GUARDS) for _ in range(4)]
    return _line(qid, "trees", ["x"], guards, 4, rng, strategy,
                 automaton="comb")


# Fixed shares of the cold mix, in queries per 40, cheapest type first:
# unary ~0.8 ms, equiv and words ~2 ms, orders ~3 ms, trees ~4.5 ms per
# cold eager build. The cumulative shares (30%, 65%, 82.5%) keep p50 and
# p90 inside a type rather than on the boundary between two.
COLD_MIX = [("unary", 12), ("equiv", 8), ("words", 6), ("orders", 7),
            ("trees", 7)]


def cold_build(seed, size):
    """Every timed query is a never-seen guard set of one of the COLD_MIX
    types; two thirds eager, one third on-the-fly."""
    rng = random.Random("cold_build/%d" % seed)
    n_timed = 240 if size == "full" else 40
    types = []
    while len(types) < n_timed:
        for qtype, share in COLD_MIX:
            types += [qtype] * share
    types = types[:n_timed]
    rng.shuffle(types)
    w = Workload("cold_build")
    seen = set()
    for i, qtype in enumerate(types):
        strategy = "eager" if i % 3 else None
        while True:
            line = _cold_query(rng, 1000 + i, qtype, strategy)
            key = json.loads(line)["system"]["rules"]
            key = (qtype, tuple(r["guard"] for r in key))
            if key not in seen:
                seen.add(key)
                break
        w.timed.append(line)
        w.kinds.append("query")
    return w


def store_churn(seed, size):
    """A fixture of N stored keys (N much larger than the memory cap); the
    timed phase mixes Zipf reads over them, never-seen eager writes, and a
    maintenance pass every M lines."""
    rng = random.Random("store_churn/%d" % seed)
    full = size == "full"
    n_fixture = 160 if full else 12
    n_timed = 400 if full else 80
    maintain_every = 100 if full else 20
    seen = set()

    def fresh(make):
        """A key no earlier fixture key or write has used."""
        while True:
            key = make()
            tag = (key.kind, len(key.registers)) + tuple(key.guards)
            if tag not in seen:
                seen.add(tag)
                return key

    keys = []
    while len(keys) < n_fixture:
        keys.append(fresh(lambda: _unary_key(rng, 12, 4) if len(keys) % 2
                          else _er_key(rng, 24)))
    w = Workload("store_churn")
    w.fixture = [k.query(i, rng, 2, "eager") for i, k in enumerate(keys)]
    # Zipf(1.1) popularity over a seeded ranking of the fixture keys.
    ranking = list(range(n_fixture))
    rng.shuffle(ranking)
    weights = [1.0 / (r + 1) ** 1.1 for r in range(n_fixture)]
    for i in range(n_timed):
        qid = 1000 + i
        if (i + 1) % maintain_every == 0:
            w.timed.append(json.dumps({"id": qid, "op": "maintain"},
                                      separators=(",", ":")))
            w.kinds.append("maintain")
        elif i % 4 == 3:
            key = fresh(lambda: _unary_key(rng, 12, 4) if i % 8 == 7
                        else _er_key(rng, 24))
            w.timed.append(key.query(qid, rng, rng.randint(4, 16), "eager"))
            w.kinds.append("write")
        else:
            key = keys[ranking[rng.choices(range(n_fixture), weights)[0]]]
            w.timed.append(key.query(qid, rng, rng.randint(16, 48)))
            w.kinds.append("read")
    return w


GENERATORS = {"hot_replay": hot_replay, "cold_build": cold_build,
              "store_churn": store_churn}
