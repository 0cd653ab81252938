#!/usr/bin/env python3
"""Regenerate every table/figure-level result (the EXPERIMENTS.md data).

Runs the E1–E8 experiment series directly (no pytest) and prints the
tables; `python benchmarks/run_experiments.py`.

Every experiment runs inside a fresh telemetry registry and writes its
metrics as structured JSON (`E1_metrics.json`, ...) to ``--metrics-dir``
(default: ``benchmarks/metrics/``); the documents follow
``benchmarks/metrics.schema.json``.  A failing experiment no longer takes
the others down: failures are collected, reported, and turn into a
nonzero exit status.

    python benchmarks/run_experiments.py [--only E2,E4] [--metrics-dir DIR]
"""

import argparse
import sys
import time
import traceback
from pathlib import Path

sys.setrecursionlimit(100_000)
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def e1_table1():
    from repro.baselines import compare_with_paper, render_table

    print("=" * 70)
    print("E1 — Table 1: comparison with related language designs")
    print("=" * 70)
    print(render_table())
    matches = compare_with_paper()
    print(f"rows matching the paper: {sum(matches.values())}/{len(matches)}")
    print()


def e2_checker_speed():
    from repro.core.checker import Checker
    from repro.corpus import corpus_names, load_program
    from repro.verifier import Verifier

    print("=" * 70)
    print("E2 — checker performance (§5: 'checks our most complex examples "
          "in seconds')")
    print("=" * 70)
    print(f"{'program':>8s} {'functions':>10s} {'check (ms)':>11s} "
          f"{'verify (ms)':>12s} {'deriv nodes':>12s}")
    for name in corpus_names():
        program = load_program(name)
        t0 = time.perf_counter()
        derivation = Checker(program).check_program()
        check_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        nodes = Verifier(program).verify_program(derivation)
        verify_ms = (time.perf_counter() - t0) * 1000
        print(
            f"{name:>8s} {len(program.funcs):10d} {check_ms:11.1f} "
            f"{verify_ms:12.1f} {nodes:12d}"
        )
    print()


def e3_disconnected():
    from benchmarks.test_disconnected import (
        SIZES,
        build_buggy,
        build_detached,
    )
    from repro.runtime.disconnect import (
        efficient_disconnected,
        naive_disconnected,
    )

    print("=" * 70)
    print("E3 — `if disconnected` cost (objects visited; §5.2)")
    print("=" * 70)
    print(f"{'n':>6s} {'efficient':>10s} {'naive':>8s} {'buggy-eff':>10s}")
    for n in SIZES:
        heap, tail, head = build_detached(n)
        ok, eff = efficient_disconnected(heap, tail, head)
        assert ok
        _, nai = naive_disconnected(heap, tail, head)
        heap2, tail2, head2 = build_buggy(n)
        notok, bug = efficient_disconnected(heap2, tail2, head2)
        assert not notok
        print(
            f"{n:6d} {eff.objects_visited:10d} {nai.objects_visited:8d} "
            f"{bug.objects_visited:10d}"
        )
    print()


def e4_search():
    from benchmarks.test_search import _branch_pair
    from repro.core.unify import match_contexts, search_unify

    print("=" * 70)
    print("E4 — greedy + liveness oracle vs backtracking search (§4.6, §5.1)")
    print("=" * 70)
    print(f"{'width':>6s} {'greedy (ms)':>12s} {'search (ms)':>12s}")
    for width in (1, 2, 3, 4):
        a, b, live = _branch_pair(width)
        t0 = time.perf_counter()
        match_contexts(a.clone(), b.clone(), live)
        greedy = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        search_unify(a, b, live, max_depth=2 * width + 1)
        search = (time.perf_counter() - t0) * 1000
        print(f"{width:6d} {greedy:12.2f} {search:12.2f}")
    # Show the oracle keeps scaling where the search cannot go at all.
    for width in (8, 16):
        a, b, live = _branch_pair(width)
        t0 = time.perf_counter()
        match_contexts(a, b, live)
        greedy = (time.perf_counter() - t0) * 1000
        print(f"{width:6d} {greedy:12.2f} {'(intractable)':>12s}")
    print()


def e5_reservation_overhead():
    from repro.corpus import load_program
    from repro.runtime.heap import Heap
    from repro.runtime.machine import run_function

    print("=" * 70)
    print("E5 — dynamic reservation checks are erasable (§3.2)")
    print("=" * 70)
    print(f"{'workload':>14s} {'checked (ms)':>13s} {'erased (ms)':>12s} "
          f"{'overhead':>9s} {'checks':>7s}")
    for label, corpus, maker, fn, n in (
        ("sll-traverse", "sll", "make_list", "sum", 150),
        ("dll-walk", "dll", "make_dll", "dll_length", 300),
    ):
        times = {}
        performed = {}
        for checks in (True, False):
            program = load_program(corpus)
            best = float("inf")
            for _ in range(5):
                heap = Heap()
                lst, _ = run_function(
                    program, maker, [n], heap=heap, check_reservations=checks
                )
                t0 = time.perf_counter()
                _, engine = run_function(
                    program, fn, [lst], heap=heap, check_reservations=checks
                )
                best = min(best, (time.perf_counter() - t0) * 1000)
            times[checks] = best
            performed[checks] = engine.stats.reservation_checks
        assert performed[False] == 0
        overhead = (times[True] / times[False] - 1) * 100
        print(
            f"{label:>14s} {times[True]:13.2f} {times[False]:12.2f} "
            f"{overhead:8.0f}% {performed[True]:7d}"
        )
    print()


def e6_writes():
    from repro.baselines import destructive_remove_tail, fearless_remove_tail
    from repro.corpus import load_program
    from repro.runtime.heap import Heap
    from repro.runtime.machine import run_function

    print("=" * 70)
    print("E6 — remove_tail heap writes: fearless vs destructive reads (§1)")
    print("=" * 70)
    print(f"{'n':>6s} {'fearless':>9s} {'destructive':>12s}")
    for n in (4, 16, 64, 256, 1024):
        program = load_program("sll")
        heap = Heap()
        lst, _ = run_function(program, "make_list", [n], heap=heap)
        head = heap.obj(lst).fields["hd"]
        fearless = fearless_remove_tail(heap, program, head)
        heap2 = Heap()
        lst2, _ = run_function(program, "make_list", [n], heap=heap2)
        head2 = heap2.obj(lst2).fields["hd"]
        destructive = destructive_remove_tail(heap2, head2)
        print(f"{n:6d} {fearless.writes:9d} {destructive.writes:12d}")
    print()


def e7_concurrency():
    from repro.analysis import check_refcounts, check_reservations_disjoint
    from repro.corpus import load_program
    from repro.runtime.machine import Machine

    print("=" * 70)
    print("E7 — fearless concurrency under random schedules (§6–§7)")
    print("=" * 70)
    program = load_program("queue")
    schedules = 50
    violations = 0
    for seed in range(schedules):
        machine = Machine(program, seed=seed)
        machine.spawn("source", [10])
        machine.spawn("relay", [10])
        sink = machine.spawn("sink", [10])
        machine.run()
        assert sink.result == 55
        check_reservations_disjoint([t.reservation for t in machine.threads])
        check_refcounts(machine.heap)
    print(
        f"{schedules} random schedules of the 3-thread queue pipeline: "
        f"{violations} reservation violations, all results identical, "
        "reservations pairwise disjoint, refcounts exact"
    )
    print()


def e8_semantics_agreement():
    from repro.corpus import load_program
    from repro.runtime.heap import Heap
    from repro.runtime.machine import run_function
    from repro.runtime.smallstep import run_function_smallstep

    print("=" * 70)
    print("E8 — ablation: bytecode engine vs fig 7 small-step machine")
    print("=" * 70)
    print(f"{'workload':>16s} {'ir (ms)':>9s} {'small (ms)':>11s} "
          f"{'result/traffic':>15s}")
    for label, corpus, maker, n, fn in (
        ("sll sum", "sll", "make_list", 120, "sum"),
        ("rbtree build", "rbtree", None, 60, None),
        ("dll drain", "dll", "make_dll", 40, "dll_sum"),
    ):
        program = load_program(corpus)
        stats = {}
        for name, runner in (("ir", run_function), ("small", run_function_smallstep)):
            heap = Heap()
            t0 = time.perf_counter()
            if corpus == "rbtree":
                tree, _ = runner(program, "build_tree", [n, 5], heap=heap)
                result, _ = runner(program, "tree_size", [tree], heap=heap)
            else:
                lst, _ = runner(program, maker, [n], heap=heap)
                result, _ = runner(program, fn, [lst], heap=heap)
            stats[name] = ((time.perf_counter() - t0) * 1000, result,
                           heap.reads, heap.writes)
        agree = (stats["ir"][1:] == stats["small"][1:])
        print(f"{label:>16s} {stats['ir'][0]:9.2f} {stats['small'][0]:11.2f} "
              f"{'identical' if agree else 'DIVERGED':>15s}")
        assert agree
    print()


def bench_speed_report():
    """The PR-level speed report (BENCH_PR2.json); a report that fails to
    generate or validate against bench.schema.json fails like any
    experiment."""
    import bench_report

    print("=" * 70)
    print("BENCH — PR speed report (copy-on-write + erasure)")
    print("=" * 70)
    bench_report.generate()
    print()


def fuzz_campaign():
    """A fixed-seed differential-fuzzing campaign; any oracle violation
    fails the experiment, and the report must validate against
    fuzz.schema.json."""
    import json

    from repro.fuzz import FuzzConfig, run_campaign
    from repro.telemetry import validate

    print("=" * 70)
    print("FUZZ — differential soundness fuzzing (checker vs verifier vs "
          "runtime vs erasure)")
    print("=" * 70)
    report = run_campaign(FuzzConfig(seed=0, budget=100, schedules=3))
    schema = json.loads(
        (Path(__file__).resolve().parent / "fuzz.schema.json").read_text()
    )
    validate(report, schema)
    cases = report["cases"]
    print(
        f"seed {report['seed']}: {cases['generated']} programs "
        f"({cases['accepted']} accepted), {cases['mutants']} mutants, "
        f"{report['schedules']['random']} random + "
        f"{report['schedules']['enumerated']} enumerated schedules"
    )
    coverage = " ".join(
        f"{rule}={count}" for rule, count in report["coverage"].items()
    )
    print(f"vt coverage: {coverage}")
    for violation in report["violations"]:
        print(f"VIOLATION [{violation['oracle']}]: {violation['detail']}")
    assert all(report["coverage"].values()), "V1–V5 coverage incomplete"
    assert report["clean"], f"{len(report['violations'])} oracle violations"
    print("0 oracle violations")
    print()


EXPERIMENTS = (
    ("E1", e1_table1),
    ("E2", e2_checker_speed),
    ("E3", e3_disconnected),
    ("E4", e4_search),
    ("E5", e5_reservation_overhead),
    ("E6", e6_writes),
    ("E7", e7_concurrency),
    ("E8", e8_semantics_agreement),
    ("FUZZ", fuzz_campaign),
    ("BENCH", bench_speed_report),
)


def main(argv=None) -> int:
    from repro import telemetry

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        default=None,
        metavar="IDS",
        help="comma-separated experiment ids to run (e.g. E2,E4)",
    )
    parser.add_argument(
        "--metrics-dir",
        default=str(Path(__file__).resolve().parent / "metrics"),
        metavar="DIR",
        help="where to write the per-experiment *_metrics.json documents",
    )
    args = parser.parse_args(argv)

    selected = EXPERIMENTS
    if args.only:
        wanted = {ident.strip().upper() for ident in args.only.split(",")}
        unknown = wanted - {ident for ident, _fn in EXPERIMENTS}
        if unknown:
            parser.error(f"unknown experiment ids: {sorted(unknown)}")
        selected = [(i, fn) for i, fn in EXPERIMENTS if i in wanted]

    metrics_dir = Path(args.metrics_dir)
    metrics_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    for ident, experiment in selected:
        # Fresh registry per experiment so each JSON document holds one
        # experiment's metrics only.
        reg = telemetry.enable()
        t0 = time.perf_counter()
        try:
            experiment()
        except Exception:
            failures.append(ident)
            print(f"!! {ident} FAILED:", file=sys.stderr)
            traceback.print_exc()
            print()
        finally:
            telemetry.disable()
            reg.counter("experiment.wall_ms").value = int(
                (time.perf_counter() - t0) * 1000
            )
            out = metrics_dir / f"{ident}_metrics.json"
            out.write_text(telemetry.export_json(reg))

    print(f"metrics written to {metrics_dir}/")
    if failures:
        print(f"FAILED experiments: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all experiments regenerated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
