"""Seeded inputs for the three workloads, and the answers they must produce.

Everything here is computed from the seed and from source text alone.  The
expected answers never come from the code under test: accepted programs
are the corpus and the generator's well-typed stream, rejected programs
carry their expected error class from the negative corpus, and run values
come from closed forms written in Python (``test_perfbench.py`` checks
each closed form against the small-step reference machine).
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Optional, Sequence, Tuple

#: The corpus programs the run workloads drive, each with an appended
#: int-returning driver (checked like any other function) and the seeded
#: ranges its two int arguments are drawn from.
DRIVERS: Dict[str, Tuple[str, str, Tuple[int, int], Tuple[int, int]]] = {
    "rbtree": (
        "bench_rbtree",
        """
def bench_rbtree(n : int, seed : int) : int {
  let t = build_tree(n, seed);
  if (rb_valid(t, 0, 65537)) { tree_size(t) } else { 0 - 1 }
}
""",
        (60, 120),
        (1, 999),
    ),
    "sll": (
        "bench_sll",
        """
def bench_sll(n : int, k : int) : int {
  let l = make_list(n);
  reverse(l);
  sum(l) + list_length(l) * k
}
""",
        (100, 200),
        (1, 9),
    ),
    "dll": (
        "bench_dll",
        """
def bench_dll(n : int, k : int) : int {
  let l = make_dll(n);
  dll_sum(l) + dll_length(l) * k
}
""",
        (100, 200),
        (1, 9),
    ),
    "queue": (
        "bench_queue",
        """
def bench_queue(n : int, k : int) : int {
  let l = new sll();
  let i = n;
  while (i > 0) {
    let d = new data(v = i * k);
    push(l, d);
    i = i - 1
  };
  let s = 0;
  let going = true;
  while (going) {
    let some(d) = pop(l) in { s = s + d.v } else { going = false }
  };
  s
}
""",
        (100, 200),
        (1, 9),
    ),
    "algorithms": (
        "bench_sort",
        """
def bench_sort(n : int, seed : int) : int {
  let l = make_list_lcg(n, seed);
  sort(l);
  if (list_is_sorted(l)) {
    let some(h) = l.hd in { list_sum(h) + list_min(h) } else { 0 }
  } else { 0 - 1 }
}
""",
        (60, 120),
        (1, 999),
    ),
    "ntree": (
        "bench_ntree",
        """
def bench_ntree(depth : int, arity : int) : int {
  let t = build(depth, arity, 1);
  size(t) + height(t) * 1000 + tag_sum(t)
}
""",
        (4, 5),
        (2, 4),
    ),
}

#: The corpus programs of the verify workload (all eight).
CORPUS = (
    "algorithms",
    "dll",
    "fuzzmin",
    "ntree",
    "queue",
    "rbtree",
    "signatures",
    "sll",
)

_DEF = re.compile(r"^def\s", re.MULTILINE)
_TOKEN = re.compile(r"//[^\n]*|/\*.*?\*/|\s+|[A-Za-z_][A-Za-z0-9_]*|\d+|.", re.S)


def count_functions(source: str) -> int:
    """Top-level ``def`` lines: every FCL function starts one."""
    return len(_DEF.findall(source))


def count_tokens(source: str) -> int:
    """A lexer-independent token count (identifiers, numbers, one-char
    punctuation), used only for the input record."""
    return sum(
        1
        for tok in _TOKEN.findall(source)
        if not tok.isspace() and not tok.startswith(("//", "/*"))
    )


def op_suffix(tag: str, index: int) -> str:
    """A well-typed function that makes a source text (and its AST)
    distinct without changing its verdict or any run value."""
    return f"\ndef perfbench_{tag}_{index}() : int {{ {index} }}\n"


# ---------------------------------------------------------------------------
# Closed forms of the drivers
# ---------------------------------------------------------------------------


def _lcg(n: int, seed: int, mod: int) -> List[int]:
    out, x = [], seed
    for _ in range(n):
        x = (x * 75 + 74) % mod
        out.append(x)
    return out


def _ntree_tags(depth: int, arity: int, base: int) -> int:
    if depth <= 1:
        return base
    return base + sum(
        _ntree_tags(depth - 1, arity, base * arity + i + 1) for i in range(arity)
    )


def expected_value(prog: str, a: int, b: int) -> int:
    """The driver's result, from arithmetic alone."""
    if prog == "rbtree":
        return len(set(_lcg(a, b, 65537)))
    if prog in ("sll", "dll"):
        return a * (a + 1) // 2 + a * b
    if prog == "queue":
        return b * a * (a + 1) // 2
    if prog == "algorithms":
        values = _lcg(a, b, 1021)
        return sum(values) + min(values)
    if prog == "ntree":
        size = sum(b**level for level in range(a))
        return size + a * 1000 + _ntree_tags(a, b, 1)
    raise KeyError(prog)


def driver_source(prog: str, corpus: Dict[str, str]) -> str:
    return corpus[prog] + DRIVERS[prog][1]


def load_corpus() -> Dict[str, str]:
    from repro.corpus.loader import load_source

    return {name: load_source(name) for name in CORPUS}


# ---------------------------------------------------------------------------
# verify-corpus
# ---------------------------------------------------------------------------

#: A verify round: every corpus and negative program ``COPIES`` times
#: (each copy a distinct text through its op suffix) and
#: ``GENERATED`` distinct generated programs, in a seeded order.  Many
#: generated programs per seed keep the cost distribution, and so the
#: percentiles, nearly the same from seed to seed.
COPIES = 4
GENERATED = 280


def verify_round(seed: int) -> List[Dict]:
    """One round of verify inputs.  Each item has an ``id``, the
    ``source`` the program receives (the loop appends an ``op_suffix``),
    and its ``expect``: ``{"ok": True, "functions": n}`` or
    ``{"ok": False, "error": class name}``."""
    from repro.corpus.negative import NEGATIVE_CASES
    from repro.fuzz.gen import ProgramGen

    corpus = load_corpus()
    items = []
    for copy in range(COPIES):
        for name in CORPUS:
            items.append({"id": f"corpus:{name}#{copy}", "prog": name, "source": corpus[name]})
        for case in NEGATIVE_CASES:
            items.append(
                {
                    "id": f"negative:{case.name}#{copy}",
                    "prog": None,
                    "source": case.source,
                    "reject": case.error.__name__,
                }
            )
    gen = ProgramGen(random.Random(seed))
    for _ in range(GENERATED):
        case = gen.generate()
        items.append({"id": f"gen:{seed}:{case.ident}", "prog": None, "source": case.source})
    random.Random(seed * 7919 + 1).shuffle(items)
    for item in items:
        reject = item.pop("reject", None)
        if reject is None:
            # The op suffix adds one function.
            item["expect"] = {
                "ok": True,
                "functions": count_functions(item["source"]) + 1,
            }
        else:
            item["expect"] = {"ok": False, "error": reject}
    return items


# ---------------------------------------------------------------------------
# run-ir
# ---------------------------------------------------------------------------

#: Seeded argument tuples per driver in one round (6 x 8 = 48 calls).
CALLS_PER_PROGRAM = 8


def draw_args(prog: str, rng: random.Random, count: int) -> List[List[int]]:
    """``count`` argument pairs, stratified: the i-th first argument is
    drawn from the i-th of ``count`` equal slices of its range, so every
    seed spans the range alike (the pairs are then shuffled)."""
    _, _, (alo, ahi), (blo, bhi) = DRIVERS[prog]

    def strata(lo: int, hi: int) -> List[int]:
        width = (hi - lo + 1) / count
        return [lo + int(width * k + rng.random() * width) for k in range(count)]

    firsts, seconds = strata(alo, ahi), strata(blo, bhi)
    rng.shuffle(seconds)
    pairs = [list(p) for p in zip(firsts, seconds)]
    rng.shuffle(pairs)
    return pairs


def run_round(seed: int) -> List[Dict]:
    """One round of warm driver calls, in a seeded order."""
    rng = random.Random(seed)
    calls = []
    for prog in DRIVERS:
        for k, args in enumerate(draw_args(prog, rng, CALLS_PER_PROGRAM)):
            calls.append(
                {
                    "id": f"run:{prog}:{k}",
                    "prog": prog,
                    "fn": DRIVERS[prog][0],
                    "args": args,
                    "expect": {"value": expected_value(prog, *args)},
                }
            )
    rng.shuffle(calls)
    return calls


#: Argument pairs per driver program for the cold leg.
COLD_PER_PROGRAM = 8


def cold_calls(seed: int, corpus: Dict[str, str]) -> List[Dict]:
    """The cold leg's calls, cycled through by the loop; call ``k`` runs
    on :func:`cold_source`, a text no earlier call used, so no compile
    or session cache helps."""
    rng = random.Random(seed * 31 + 7)
    drawn = {prog: draw_args(prog, rng, COLD_PER_PROGRAM) for prog in DRIVERS}
    calls = []
    for r in range(COLD_PER_PROGRAM):
        for prog in DRIVERS:
            args = drawn[prog][r]
            calls.append(
                {
                    "id": f"cold:{prog}:{r}",
                    "prog": prog,
                    "fn": DRIVERS[prog][0],
                    "args": args,
                    "source": driver_source(prog, corpus),
                    "expect": {"value": expected_value(prog, *args)},
                }
            )
    return calls


def cold_source(item: Dict, k: int) -> str:
    return item["source"] + op_suffix("cold", k)


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

#: Fixed open-loop arrival rate (requests/s).  It sits well below the
#: two-worker fleet's measured capacity on this mix (see README.md).
SERVE_RATE = 8.0

#: Requests per block of 20, by method and source kind.  The method mix,
#: 16 check, 3 verify, 1 run, is the one the repository's serve-load
#: harness uses (``MIX`` in ``src/repro/bench_serve.py``).  The kind mix,
#: 9 fresh, 7 edited, 4 repeated, is an assumption: the repository holds
#: no record of real daemon traffic.  It is chosen so that every path a
#: kind exercises (a new session, certificate replay after an edit, a
#: memo hit) carries a share of the load; the input record lists the
#: shares each run drew.  A schedule is these blocks, each shuffled by
#: the seed.  Every ``run`` is on a fresh source: these are the daemon's
#: cold runs (``cold_run_ms``).
MIX = {
    ("check", "fresh"): 7, ("check", "edited"): 6, ("check", "repeat"): 3,
    ("verify", "fresh"): 1, ("verify", "edited"): 1, ("verify", "repeat"): 1,
    ("run", "fresh"): 1,
}


#: Corpus programs left out of serve-mix's check/verify pool: verifying
#: one takes 150-300 ms, several times the other requests, so the p95 of
#: a run would rest on how many of these few requests it drew.  Both are
#: verified on every verify-corpus run and run on every serve-mix run.
SERVE_HEAVY = ("algorithms", "rbtree")


def _serve_pool(seed: int, corpus: Dict[str, str]) -> List[Dict]:
    """Base programs for check/verify requests: corpus programs,
    generated programs, and must-reject programs."""
    from repro.corpus.negative import NEGATIVE_CASES
    from repro.fuzz.gen import ProgramGen

    pool = [
        {"base": f"corpus:{name}", "source": corpus[name], "reject": None}
        for name in CORPUS
        if name not in SERVE_HEAVY
    ]
    gen = ProgramGen(random.Random(seed + 100_003))
    for _ in range(24):
        case = gen.generate()
        pool.append({"base": f"gen:{case.ident}", "source": case.source, "reject": None})
    for case in NEGATIVE_CASES[::4]:
        pool.append(
            {"base": f"negative:{case.name}", "source": case.source, "reject": case.error.__name__}
        )
    return pool


#: How far back (in first-sent bases) an edit or repeat reaches.
RECENT = 8


def serve_schedule(seed: int, seconds: float, corpus: Dict[str, str]) -> List[Dict]:
    """The open-loop request schedule: Poisson arrivals at
    :data:`SERVE_RATE` (``rate x seconds`` arrivals, uniform over the run,
    which is a Poisson process given its count), each request with its
    due offset ``at`` (s), method, params, kind and expected answer.

    Each (method, kind) stratum cycles through a seeded order of the base
    programs; an edit or repeat takes the latest earlier request of its
    base.  So every seed draws the programs, and the costly ones, alike.
    ``verify`` with ``--cache`` re-verifies cached certificates, so an
    edit saves the search but not the verification."""
    rng = random.Random(seed)
    count = max(1, int(round(SERVE_RATE * seconds)))
    arrivals = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    slots: List[Tuple[str, str]] = []
    while len(slots) < count:
        block = [slot for slot, n in MIX.items() for _ in range(n)]
        rng.shuffle(block)
        slots += block
    pool = {base["base"]: base for base in _serve_pool(seed, corpus)}
    order = {"check": sorted(pool), "verify": sorted(pool), "run": sorted(DRIVERS)}
    for names in order.values():
        rng.shuffle(names)
    run_args = {prog: draw_args(prog, rng, count // len(DRIVERS) + 1) for prog in DRIVERS}
    drawn = {prog: 0 for prog in DRIVERS}
    turn: Dict[Tuple[str, str], int] = {}
    latest: Dict[Tuple[str, str], Dict] = {}
    sent: Dict[str, List[str]] = {method: [] for method in order}
    schedule: List[Dict] = []
    for i, (method, kind) in enumerate(slots[:count]):
        if kind != "fresh" and not sent[method]:
            kind = "fresh"
        # Fresh requests cycle through all bases; an edit or a repeat
        # takes one of the last RECENT bases first sent, in turn, so each
        # base is edited and repeated about equally often.
        n = turn.get((method, kind), 0)
        turn[(method, kind)] = n + 1
        if kind == "fresh":
            base = order[method][n % len(order[method])]
        else:
            recent = sent[method][-RECENT:]
            base = recent[len(recent) - 1 - n % len(recent)]
        if kind == "repeat":
            req = dict(latest[(method, base)])
        elif kind == "edited":
            prior = latest[(method, base)]
            req = dict(prior, params=dict(prior["params"]))
            req["params"]["source"] += op_suffix("edit", i)
            req["params"]["filename"] = f"req{i}.fcl"
            if "functions" in req["expect"]:
                req["expect"] = dict(req["expect"], functions=req["expect"]["functions"] + 1)
        elif method == "run":
            args = run_args[base][drawn[base]]
            drawn[base] += 1
            req = {
                "base": base,
                "prog": base,
                "params": {
                    "source": driver_source(base, corpus) + op_suffix("fresh", i),
                    "function": DRIVERS[base][0],
                    "args": args,
                    "filename": f"req{i}.fcl",
                },
                "expect": {"value": expected_value(base, *args)},
            }
        else:
            entry = pool[base]
            source = entry["source"] + op_suffix("fresh", i)
            if entry["reject"] is None:
                expect = {"ok": True, "functions": count_functions(source)}
            else:
                expect = {"ok": False, "error": entry["reject"]}
            req = {
                "base": base,
                "prog": base.split(":", 1)[1] if base.startswith("corpus:") else None,
                "params": {"source": source, "filename": f"req{i}.fcl"},
                "expect": expect,
            }
        req.update(id=f"req{i}", method=method, kind=kind, at=arrivals[i])
        if kind == "fresh" and (method, base) not in latest:
            sent[method].append(base)
        if kind != "repeat":
            latest[(method, base)] = req
        schedule.append(req)
    return schedule


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


def _error_classes() -> Dict[str, type]:
    """Every type-error class by name (the negative corpus names its
    expected class; a diagnostic must be that class or a subclass)."""
    import repro.api  # noqa: F401  (imports every module that defines one)
    import repro.core.checker  # noqa: F401
    from repro.core.errors import TypeError_

    found, todo = {}, [TypeError_]
    while todo:
        cls = todo.pop()
        found[cls.__name__] = cls
        todo.extend(cls.__subclasses__())
    return found


def wrong_answer(expect: Dict, got: Dict) -> Optional[str]:
    """None when ``got`` (a result summary) matches ``expect``, else why."""
    if "value" in expect:
        if not got.get("ok"):
            return f"run failed: {got.get('codes')}"
        if got.get("value") != str(expect["value"]):
            return f"value {got.get('value')} != {expect['value']}"
        return None
    if expect["ok"]:
        if not got.get("ok"):
            return f"rejected: {got.get('codes')}"
        if got.get("functions") != expect["functions"]:
            return f"functions {got.get('functions')} != {expect['functions']}"
        return None
    if got.get("ok"):
        return f"accepted, expected {expect['error']}"
    classes = _error_classes()
    want = classes.get(expect["error"])
    codes = got.get("codes") or []
    if want is None or not codes or codes[0] not in classes:
        return f"diagnostic {codes} is not a type error"
    if not issubclass(classes[codes[0]], want):
        return f"diagnostic {codes[0]} is not a {expect['error']}"
    return None


def shares(values: Sequence[str]) -> Dict[str, float]:
    total = len(values) or 1
    out: Dict[str, float] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return {k: round(n / total, 4) for k, n in sorted(out.items())}
