"""Wall-clock benchmark harness (``repro bench`` / ``benchmarks/bench_report.py``).

Runs the speed-critical paths with plain ``time.perf_counter`` loops (no
pytest-benchmark needed) and reports a document in schema ``repro-bench/1``
(``benchmarks/bench.schema.json``):

* **corpus** — E2: prover + verifier wall-clock per corpus program, with the
  clone/copy-on-write telemetry counters of the checker run;
* **generated** — E2: checker scaling on generated ``chain``-length programs;
* **search** — E4: greedy-with-oracle vs bounded backtracking search;
* **ir** — §3.2 on the compiled bytecode engine: guarded vs erased-guard
  runtime, the exact number of reservation checks erasure elides, compile
  wall-clock and the optimizer's pass counters (calls inlined, loads
  eliminated, checks erased at lowering);
* **pipeline** — §5 at batch scale: serial vs process-pool fan-out vs
  warm certificate cache (replayed and trusted) on the corpus and on a
  generated many-function workload.  Rows record the host's
  ``cpu_count`` because fan-out speedups are meaningless without it.

``compare_docs`` diffs two such documents (same schema, any two runs) and
flags wall-clock regressions — the CI bench-smoke job compares a fresh
``--small`` run against the committed baseline report.  Rows and metrics
present in only one report are skipped, so reports from before and after
a rename (e.g. ``cow_*`` -> ``persist_*``) stay comparable.

The clone counters quantify the persistent-sharing win directly:
``clone_dicts_persist`` is what ``StaticContext.clone`` plus later
handle-side copies actually allocated, ``clone_dicts_eager`` is what the
old eager deep clone would have allocated for the same workload.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence

from . import telemetry
from .core.checker import Checker
from .core.contexts import StaticContext
from .core.regions import RegionSupply
from .core.unify import match_contexts, search_unify
from .lang import ast, parse_program
from .runtime.heap import Heap
from .runtime.machine import run_function
from .verifier import Verifier

SCHEMA = "repro-bench/1"

def generated_program(chain: int) -> str:
    """A function with ``chain`` sequential iso manipulations + branches —
    scales the number of variables and join points the checker handles
    (mirrors ``benchmarks/test_checker_speed.py``)."""
    lines = [
        "struct data { v : int; }",
        "struct box { iso inner : data?; }",
        "def fn(b : box, c : bool) : int {",
        "  let acc = 0;",
    ]
    for i in range(chain):
        lines.append(f"  let d{i} = new data(v = {i});")
        lines.append(f"  b.inner = some(d{i});")
        lines.append(
            f"  if (c) {{ let some(x{i}) = b.inner in {{ acc = acc + x{i}.v }}"
            f" else {{ acc = acc }} }} else {{ acc = acc + {i} }};"
        )
    lines.append("  acc")
    lines.append("}")
    return "\n".join(lines)


def branch_pair(width: int):
    """Two branch outputs over ``width`` variables (E4's unification
    instance): side A focused+explored every variable, side B untracked."""
    node = ast.StructType("node")
    a = StaticContext(RegionSupply())
    for i in range(width):
        region = a.fresh_region()
        a.bind(f"v{i}", node, region)
    b = a.clone()
    for i in range(width):
        a.focus(f"v{i}")
        a.explore(f"v{i}", "f")
    live = frozenset(f"v{i}" for i in range(width))
    return a, b, live


def _clone_counters(reg: telemetry.Registry) -> Dict[str, int]:
    counters = {name: c.value for name, c in reg.counters.items()}
    copies = (
        counters.get("contexts.persist.heap_copies", 0)
        + counters.get("contexts.persist.gamma_copies", 0)
        + counters.get("contexts.persist.tc_copies", 0)
        + counters.get("contexts.persist.tv_copies", 0)
    )
    return {
        "clones": counters.get("contexts.clones", 0),
        "persist_heap_copies": counters.get("contexts.persist.heap_copies", 0),
        "persist_gamma_copies": counters.get(
            "contexts.persist.gamma_copies", 0
        ),
        "persist_tc_copies": counters.get("contexts.persist.tc_copies", 0),
        "persist_tv_copies": counters.get("contexts.persist.tv_copies", 0),
        "clone_dicts_persist": copies,
        "clone_dicts_eager": counters.get("contexts.clone.dicts_eager", 0),
        "snapshot_hits": counters.get("contexts.snapshot.hits", 0),
        "snapshot_misses": counters.get("contexts.snapshot.misses", 0),
    }


def bench_corpus(names: Optional[Iterable[str]] = None) -> List[Dict]:
    """E2: per corpus program, check + verify wall-clock and CoW counters."""
    from .corpus import corpus_names, load_program

    rows = []
    for name in names if names is not None else corpus_names():
        program = load_program(name)
        reg = telemetry.Registry(enabled=True)
        with telemetry.use(reg):
            t0 = time.perf_counter()
            derivation = Checker(program).check_program()
            check_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        nodes = Verifier(program).verify_program(derivation)
        verify_ms = (time.perf_counter() - t0) * 1000
        row = {
            "name": name,
            "functions": len(program.funcs),
            "check_ms": round(check_ms, 3),
            "verify_ms": round(verify_ms, 3),
            "derivation_nodes": nodes,
        }
        row.update(_clone_counters(reg))
        rows.append(row)
    return rows


def bench_generated(chains: Sequence[int] = (5, 20, 50)) -> List[Dict]:
    """E2: checker scaling on generated programs, with CoW counters."""
    rows = []
    for chain in chains:
        program = parse_program(generated_program(chain))
        reg = telemetry.Registry(enabled=True)
        with telemetry.use(reg):
            t0 = time.perf_counter()
            Checker(program, record=False).check_program()
            check_ms = (time.perf_counter() - t0) * 1000
        row = {"chain": chain, "check_ms": round(check_ms, 3)}
        row.update(_clone_counters(reg))
        rows.append(row)
    return rows


def bench_search(widths: Sequence[int] = (1, 2, 3, 4)) -> List[Dict]:
    """E4: greedy-with-liveness-oracle vs bounded backtracking search."""
    rows = []
    for width in widths:
        a, b, live = branch_pair(width)
        t0 = time.perf_counter()
        match_contexts(a.clone(), b.clone(), live)
        greedy_ms = (time.perf_counter() - t0) * 1000
        reg = telemetry.Registry(enabled=True)
        with telemetry.use(reg):
            t0 = time.perf_counter()
            search_unify(a, b, live, max_depth=2 * width + 1)
            search_ms = (time.perf_counter() - t0) * 1000
        rows.append(
            {
                "width": width,
                "greedy_ms": round(greedy_ms, 3),
                "search_ms": round(search_ms, 3),
                "search_states": reg.counters["unify.search.states"].value
                if "unify.search.states" in reg.counters
                else 0,
            }
        )
    return rows


def many_functions_program(count: int) -> str:
    """``count`` small independent functions — the embarrassingly-parallel
    shape the per-function pipeline is built for (each function's
    derivation depends only on decls and signatures, never other bodies)."""
    lines = ["struct data { v : int; }"]
    for i in range(count):
        lines.append(
            f"def f{i}(x : int) : int {{\n"
            f"  let d = new data(v = x);\n"
            f"  let a = d.v + {i};\n"
            f"  let b = a + a;\n"
            f"  if (b > x) {{ b }} else {{ a }}\n"
            f"}}"
        )
    return "\n".join(lines)


def bench_pipeline(small: bool = False, jobs: int = 4) -> List[Dict]:
    """Serial vs fan-out vs warm-cache batch throughput.

    One untimed serial pass per workload warms the process (imports,
    interned regions) so that no timed leg pays for it; then five
    timings, all over the same program set:

    * ``serial_ms``  — ``jobs=1``, no cache;
    * ``parallel_ms`` — ``jobs=N`` process pool, no cache (includes pool
      start-up: that cost is real for a one-shot batch);
    * ``cold_ms``    — ``jobs=1`` populating a fresh cache;
    * ``warm_ms``    — ``jobs=1`` replaying every certificate through the
      verifier (the sound fast path);
    * ``trusted_ms`` — ``--trust-cache``: hash lookup only, no replay.
    """
    import os
    import tempfile

    from .corpus import corpus_names, load_source
    from .pipeline import Pipeline

    corpus = ("sll", "dll", "rbtree") if small else tuple(corpus_names())
    count = 40 if small else 120
    workloads = [
        ("corpus", [(name, load_source(name)) for name in corpus]),
        (f"many-fns-{count}", [("generated", many_functions_program(count))]),
    ]

    def timed(pipeline: "Pipeline", programs):
        t0 = time.perf_counter()
        functions = 0
        for label, source in programs:
            result = pipeline.run(label, source)
            assert result.ok, f"bench workload rejected: {label}"
            functions += len(result.functions)
        return (time.perf_counter() - t0) * 1000, functions

    rows = []
    for label, programs in workloads:
        with Pipeline() as p:
            timed(p, programs)
            serial_ms, functions = timed(p, programs)
        with Pipeline(jobs=jobs) as p:
            parallel_ms, _ = timed(p, programs)
        with tempfile.TemporaryDirectory() as cache_dir:
            with Pipeline(cache_dir=cache_dir) as p:
                cold_ms, _ = timed(p, programs)
            with Pipeline(cache_dir=cache_dir) as p:
                warm_ms, _ = timed(p, programs)
            with Pipeline(cache_dir=cache_dir, trust_cache=True) as p:
                trusted_ms, _ = timed(p, programs)
        rows.append(
            {
                "workload": label,
                "functions": functions,
                "jobs": jobs,
                "cpu_count": os.cpu_count() or 1,
                "serial_ms": round(serial_ms, 3),
                "parallel_ms": round(parallel_ms, 3),
                "cold_ms": round(cold_ms, 3),
                "warm_ms": round(warm_ms, 3),
                "trusted_ms": round(trusted_ms, 3),
                "speedup_warm": round(serial_ms / warm_ms, 2) if warm_ms else 0.0,
                "speedup_trusted": round(serial_ms / trusted_ms, 2)
                if trusted_ms
                else 0.0,
            }
        )
    return rows


def bench_server(small: bool = False) -> List[Dict]:
    """Warm ``repro serve`` check latency vs a cold ``repro check``
    process.

    ``cold_process_ms`` spawns a fresh interpreter per request (what a
    build system pays shelling out to ``repro check``); ``warm_first_ms``
    is the first RPC against a running daemon (session construction);
    ``warm_ms`` is the steady state (memoized result over a socket).
    """
    import os
    import subprocess
    import sys
    import tempfile

    from . import corpus as corpus_pkg
    from .client import Client
    from .corpus import load_source
    from .server import ServerConfig, ServerThread

    names = ("sll",) if small else ("sll", "rbtree")
    repeats = 2 if small else 3
    corpus_dir = os.path.dirname(os.path.abspath(corpus_pkg.__file__))
    src_root = os.path.dirname(os.path.dirname(corpus_dir))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    rows = []
    config = ServerConfig(
        host=None, unix_path=tempfile.mktemp(suffix=".sock")
    )
    with ServerThread(config) as handle:
        with Client(handle.address) as client:
            for name in names:
                fcl = os.path.join(corpus_dir, f"{name}.fcl")
                source = load_source(name)
                cold = float("inf")
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    proc = subprocess.run(
                        [sys.executable, "-m", "repro", "check", fcl],
                        env=env,
                        capture_output=True,
                    )
                    cold = min(cold, (time.perf_counter() - t0) * 1000)
                    assert proc.returncode == 0, proc.stderr.decode()
                t0 = time.perf_counter()
                first = client.check(source, filename=name)
                warm_first_ms = (time.perf_counter() - t0) * 1000
                assert first.ok, f"bench workload rejected: {name}"
                samples = []
                for _ in range(repeats * 3):
                    t0 = time.perf_counter()
                    client.check(source, filename=name)
                    samples.append((time.perf_counter() - t0) * 1000)
                samples.sort()
                warm = samples[0]
                p50 = samples[len(samples) // 2]
                p99 = samples[min(len(samples) - 1, int(len(samples) * 0.99))]
                rows.append(
                    {
                        "workload": name,
                        "cold_process_ms": round(cold, 3),
                        "warm_first_ms": round(warm_first_ms, 3),
                        "warm_ms": round(warm, 3),
                        "warm_p50_ms": round(p50, 3),
                        "warm_p99_ms": round(p99, 3),
                        "speedup_warm": round(cold / warm, 2) if warm else 0.0,
                    }
                )
    return rows


def bench_ir(repeats: int = 5, small: bool = False) -> List[Dict]:
    """The compiled bytecode engine on run-heavy corpus workloads.

    Each workload is timed in both guard modes (min over ``repeats``,
    after a cold compile whose wall-clock is reported separately), and the
    row carries the compile-time pass counters of the erased full-tier
    module, so a report shows both *how fast* the bytecode runs and *why*
    (calls inlined, loads eliminated, checks erased at lowering).
    ``reservation_checks_elided`` is the guarded tier's exact
    ``machine.reservation_checks`` count for one pass over the calls: the
    work erasure removes.
    """
    from .ir.bytecode import compile_program
    from .corpus import load_source

    n_tree = 40 if small else 120
    n_list = 40 if small else 100
    queries = 4 if small else 48
    sums = 4 if small else 20
    n_dll = 100 if small else 300

    def rb_build(program, heap):
        return [("build_tree", [n_tree, 7])]

    def rb_query(program, heap):
        t, _ = run_function(
            program, "build_tree", [n_tree, 7], heap=heap,
            check_reservations=False,
        )
        calls = []
        for i in range(queries):
            if i % 2 == 0:
                calls.append(("tree_size", [t]))
            else:
                calls.append(("rb_contains", [t, (i * 37) % 1000]))
        return calls

    def chain(program, heap):
        # Build once, then traverse repeatedly: the recursive sum is what
        # the chain workload measures, not the allocation-bound build.
        l, _ = run_function(
            program, "make_list", [n_list], heap=heap,
            check_reservations=False,
        )
        return [("sum", [l])] * sums

    def dll_walk(program, heap):
        d, _ = run_function(
            program, "make_dll", [n_dll], heap=heap, check_reservations=False,
        )
        return [("dll_length", [d])] * sums

    rows = []
    for label, corpus, setup in (
        ("rbtree-build", "rbtree", rb_build),
        ("rbtree-query", "rbtree", rb_query),
        ("chain-traverse", "sll", chain),
        ("dll-walk", "dll", dll_walk),
    ):
        # A fresh parse per workload guarantees the compile is cold.
        program = parse_program(load_source(corpus))
        t0 = time.perf_counter()
        compile_program(program, checked=True, observable=False)
        erased_mod = compile_program(program, checked=False, observable=False)
        compile_ms = (time.perf_counter() - t0) * 1000
        heap = Heap()
        calls = setup(program, heap)
        best: Dict = {}
        elided = 0
        for checks in (True, False):
            best[checks] = float("inf")
            for _ in range(repeats):
                performed = 0
                t0 = time.perf_counter()
                for fn, fargs in calls:
                    _, machine = run_function(
                        program, fn, fargs, heap=heap,
                        check_reservations=checks,
                    )
                    performed += machine.stats.reservation_checks
                if checks:
                    elided = performed
                best[checks] = min(
                    best[checks], (time.perf_counter() - t0) * 1000
                )
        counters = erased_mod.counters
        rows.append(
            {
                "workload": label,
                "ir_checked_ms": round(best[True], 3),
                "ir_erased_ms": round(best[False], 3),
                "compile_ms": round(compile_ms, 3),
                "reservation_checks_elided": elided,
                "inlined_calls": counters.get("inlined_calls", 0),
                "loads_eliminated": counters.get("loads_eliminated", 0),
                "checks_erased": counters.get("checks_erased", 0),
                "consts_pooled": counters.get("consts_pooled", 0),
                "dests_sunk": counters.get("dests_sunk", 0),
                "licm_hoisted": counters.get("licm_hoisted", 0),
                "tail_calls_looped": counters.get("tail_calls_looped", 0),
                "slots_coalesced": counters.get("slots_coalesced", 0),
                "instructions_emitted": counters.get(
                    "instructions_emitted", 0
                ),
            }
        )
    return rows


def collect(small: bool = False) -> Dict:
    """The full ``repro-bench/1`` document."""
    if small:
        corpus_names = ("sll", "dll", "rbtree")
        chains: Sequence[int] = (5, 20)
        widths: Sequence[int] = (1, 2, 3)
        repeats = 2
    else:
        corpus_names = None
        chains = (5, 20, 50)
        widths = (1, 2, 3, 4)
        repeats = 5
    return {
        "schema": SCHEMA,
        "label": "PR10",
        "corpus": bench_corpus(corpus_names),
        "generated": bench_generated(chains),
        "search": bench_search(widths),
        "ir": bench_ir(repeats, small),
        "pipeline": bench_pipeline(small),
        "server": bench_server(small),
    }


def render_table(doc: Dict) -> str:
    lines = []
    lines.append("E2 — corpus check + verify (persistent contexts)")
    lines.append(
        f"{'program':>8s} {'fns':>4s} {'check(ms)':>10s} {'verify(ms)':>11s} "
        f"{'clones':>7s} {'dicts(pers)':>11s} {'dicts(eager)':>13s}"
    )
    for row in doc["corpus"]:
        lines.append(
            f"{row['name']:>8s} {row['functions']:4d} {row['check_ms']:10.1f} "
            f"{row['verify_ms']:11.1f} {row['clones']:7d} "
            f"{row['clone_dicts_persist']:11d} {row['clone_dicts_eager']:13d}"
        )
    lines.append("")
    lines.append("E2 — generated-program scaling")
    lines.append(
        f"{'chain':>6s} {'check(ms)':>10s} {'clones':>7s} {'copies':>7s} "
        f"{'dicts(pers)':>11s} {'dicts(eager)':>13s} {'snap hit/miss':>14s}"
    )
    for row in doc["generated"]:
        copies = (
            row["persist_heap_copies"]
            + row["persist_gamma_copies"]
            + row["persist_tc_copies"]
            + row["persist_tv_copies"]
        )
        lines.append(
            f"{row['chain']:6d} {row['check_ms']:10.1f} {row['clones']:7d} "
            f"{copies:7d} {row['clone_dicts_persist']:11d} "
            f"{row['clone_dicts_eager']:13d} "
            f"{row['snapshot_hits']:6d}/{row['snapshot_misses']:<6d}"
        )
    lines.append("")
    lines.append("E4 — greedy + oracle vs backtracking search")
    lines.append(
        f"{'width':>6s} {'greedy(ms)':>11s} {'search(ms)':>11s} {'states':>8s}"
    )
    for row in doc["search"]:
        lines.append(
            f"{row['width']:6d} {row['greedy_ms']:11.2f} "
            f"{row['search_ms']:11.2f} {row['search_states']:8d}"
        )
    if doc.get("ir"):
        lines.append("")
        lines.append("§3.2 — bytecode engine, checked vs erased")
        lines.append(
            f"{'workload':>15s} {'ir chk':>8s} {'ir ers':>8s} "
            f"{'elided':>7s} {'compile':>8s} {'inl':>4s} {'rle':>4s} "
            f"{'licm':>5s} {'tco':>4s} {'erased':>7s}"
        )
        for row in doc["ir"]:
            lines.append(
                f"{row['workload']:>15s} {row['ir_checked_ms']:8.1f} "
                f"{row['ir_erased_ms']:8.1f} "
                f"{row.get('reservation_checks_elided', 0):7d} "
                f"{row['compile_ms']:8.1f} "
                f"{row['inlined_calls']:4d} {row['loads_eliminated']:4d} "
                f"{row.get('licm_hoisted', 0):5d} "
                f"{row.get('tail_calls_looped', 0):4d} "
                f"{row['checks_erased']:7d}"
            )
    if doc.get("pipeline"):
        lines.append("")
        lines.append("§5 — batch pipeline: serial vs fan-out vs warm cache")
        lines.append(
            f"{'workload':>14s} {'fns':>4s} {'jobs':>5s} {'serial(ms)':>11s} "
            f"{'par(ms)':>9s} {'cold(ms)':>9s} "
            f"{'warm(ms)':>9s} {'trust(ms)':>10s} {'warm x':>7s} "
            f"{'trust x':>8s}"
        )
        for row in doc["pipeline"]:
            lines.append(
                f"{row['workload']:>14s} {row['functions']:4d} "
                f"{row['jobs']:3d}/{row['cpu_count']:<1d} "
                f"{row['serial_ms']:11.1f} "
                f"{row['parallel_ms']:9.1f} "
                f"{row['cold_ms']:9.1f} {row['warm_ms']:9.1f} "
                f"{row['trusted_ms']:10.1f} {row['speedup_warm']:7.1f} "
                f"{row['speedup_trusted']:8.1f}"
            )
    if doc.get("server"):
        lines.append("")
        lines.append("repro serve — warm daemon vs cold process per check")
        lines.append(
            f"{'workload':>9s} {'cold proc(ms)':>14s} {'warm 1st(ms)':>13s} "
            f"{'warm(ms)':>9s} {'p50(ms)':>8s} {'p99(ms)':>8s} {'speedup':>8s}"
        )
        for row in doc["server"]:
            lines.append(
                f"{row['workload']:>9s} {row['cold_process_ms']:14.1f} "
                f"{row['warm_first_ms']:13.2f} {row['warm_ms']:9.3f} "
                f"{row.get('warm_p50_ms', 0.0):8.3f} "
                f"{row.get('warm_p99_ms', 0.0):8.3f} "
                f"{row['speedup_warm']:7.1f}x"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Report comparison (``repro bench --compare``)
# ---------------------------------------------------------------------------

COMPARE_SCHEMA = "repro-bench-compare/1"

#: Section name -> the row field that identifies a row across runs.
SECTION_KEYS = {
    "corpus": "name",
    "generated": "chain",
    "search": "width",
    "ir": "workload",
    "pipeline": "workload",
    "modes": "config",  # older reports only
    "server": "workload",
}


def compare_docs(
    old: Dict, new: Dict, threshold: float = 50.0, min_ms: float = 1.0
) -> Dict:
    """Diff two ``repro-bench/1`` documents metric by metric.

    Rows are matched per section by their key field (program name, chain
    length, ...); rows or sections present in only one document are
    skipped, so reports from different versions stay comparable.  Only
    wall-clock metrics (``*_ms``) can flag a regression: a metric
    regresses when it grew by more than ``threshold`` percent AND either
    side is at least ``min_ms`` (sub-millisecond rows are pure timer
    noise).  Counter-like fields are deterministic and diffed exactly,
    informationally.
    """
    for doc, tag in ((old, "old"), (new, "new")):
        if doc.get("schema") != SCHEMA:
            raise ValueError(
                f"{tag} report has schema {doc.get('schema')!r}, want {SCHEMA!r}"
            )
    metrics: List[Dict] = []
    for section, keyfield in SECTION_KEYS.items():
        old_rows = {
            str(r.get(keyfield)): r for r in old.get(section, [])
        }
        for row in new.get(section, []):
            old_row = old_rows.get(str(row.get(keyfield)))
            if old_row is None:
                continue
            for metric in sorted(row):
                if metric == keyfield or metric not in old_row:
                    continue
                new_val, old_val = row[metric], old_row[metric]
                if not isinstance(new_val, (int, float)) or not isinstance(
                    old_val, (int, float)
                ):
                    continue
                timing = metric.endswith("_ms")
                delta = (
                    (new_val - old_val) / old_val * 100.0 if old_val else 0.0
                )
                metrics.append(
                    {
                        "section": section,
                        "row": str(row.get(keyfield)),
                        "metric": metric,
                        "old": old_val,
                        "new": new_val,
                        "delta_pct": round(delta, 1),
                        "regression": bool(
                            timing
                            and delta > threshold
                            and max(old_val, new_val) >= min_ms
                        ),
                    }
                )
    return {
        "schema": COMPARE_SCHEMA,
        "old_label": old.get("label"),
        "new_label": new.get("label"),
        "threshold_pct": threshold,
        "metrics": metrics,
        "regressions": [m for m in metrics if m["regression"]],
    }


def render_compare(cmp: Dict) -> str:
    lines = [
        f"bench compare: {cmp['old_label']} -> {cmp['new_label']} "
        f"(regression threshold +{cmp['threshold_pct']:g}% on *_ms)"
    ]
    lines.append(
        f"{'section':>9s} {'row':>14s} {'metric':>16s} {'old':>10s} "
        f"{'new':>10s} {'delta':>8s}"
    )
    for m in cmp["metrics"]:
        if not m["metric"].endswith("_ms") and m["old"] == m["new"]:
            continue  # unchanged counters: noise-free, not worth a line
        flag = "  << REGRESSION" if m["regression"] else ""
        lines.append(
            f"{m['section']:>9s} {m['row']:>14s} {m['metric']:>16s} "
            f"{m['old']:10g} {m['new']:10g} {m['delta_pct']:+7.1f}%{flag}"
        )
    count = len(cmp["regressions"])
    lines.append(
        f"{count} regression(s)" if count else "no wall-clock regressions"
    )
    return "\n".join(lines)
