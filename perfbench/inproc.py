"""The in-process workloads, run in a child process of ``run.py``.

``python3 perfbench/inproc.py`` reads its launch time (``time.monotonic``
in the parent) and then one job (JSON) on stdin, and prints one result
(JSON) on stdout.  The child holds only the generated inputs;
``run.py`` keeps the expected answers and checks the result summaries
returned here.  A job's ``mode`` is ``setup`` (set up, then exit: a
set-up probe), ``measure`` (the untraced run: see :func:`measure`) or
``trace`` (the traced run: see :func:`trace_legs`).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import api  # noqa: E402  (the program under test, from src/)

from inputs import CORPUS, DRIVERS, cold_source, op_suffix  # noqa: E402
from spans import Spans, durations, layer_self_times  # noqa: E402

perf = time.perf_counter


def _null_span(name: str, **args):
    return nullcontext()


def _codes(diagnostics) -> List[str]:
    return [d.code for d in diagnostics]


def _summary(result) -> Dict:
    out = {"ok": result.ok, "codes": _codes(result.diagnostics)}
    if isinstance(result, api.RunResult):
        out.update(
            value=result.value,
            steps=result.steps,
            heap_reads=result.heap_reads,
            heap_writes=result.heap_writes,
        )
    else:
        out.update(functions=result.functions, nodes=result.nodes, verified=getattr(result, "verified", 0))
    return out


# ---------------------------------------------------------------------------
# Workload operations
# ---------------------------------------------------------------------------


class VerifyCorpus:
    """Cold ``api.verify(source)`` on distinct texts: no session reuse,
    no certificate cache."""

    def __init__(self, job: Dict):
        self.items = job["items"]

    def text(self, i: int) -> str:
        return self.items[i % len(self.items)]["source"] + op_suffix("op", i)

    def setup(self, job: Dict) -> None:
        warm_up(job["warmup"])

    def facade(self, i: int) -> Dict:
        return _summary(api.verify(self.text(i)))

    def decomposed(self, i: int, span: Callable, kind: str = "op") -> Dict:
        """The layers :func:`repro.api.verify` calls, one span each."""
        from repro.core.errors import TypeError_
        from repro.lang import LexError, ParseError, parse_program
        from repro.pipeline.session import ProgramSession
        from repro.verifier import VerificationError

        item = self.items[i % len(self.items)]
        text = self.text(i)
        out: Dict = {"ok": False, "codes": [], "nodes": 0, "verified": 0}
        with span("api.verify", op=i, kind=kind, prog=item.get("prog") or ""):
            try:
                with span("lang.parse"):
                    program = parse_program(text)
                with span("core.elaborate"):
                    session = ProgramSession(text, program=program)
            except (ParseError, LexError, TypeError_) as exc:
                out["codes"] = [type(exc).__name__]
                return out
            try:
                with span("check.program"):
                    derivation = session.checker.check_program()
            except TypeError_ as exc:
                out["codes"] = [type(exc).__name__]
                return out
            out["nodes"] = derivation.node_count()
            try:
                with span("verify.program"):
                    out["verified"] = session.verifier.verify_program(derivation)
            except VerificationError as exc:
                out["codes"] = [type(exc).__name__]
                return out
        out["ok"] = True
        out["functions"] = len(program.funcs)
        return out


class RunIR:
    """Warm ``Session.run(..., engine="ir", erased=True)`` driver calls."""

    def __init__(self, job: Dict):
        self.items = job["items"]
        self.sources = job["drivers"]

    def setup(self, job: Dict) -> None:
        warm_up(job["warmup"])
        self.sessions = {prog: api.Session(src, filename=f"{prog}.fcl") for prog, src in self.sources.items()}
        first = {}
        for item in self.items:
            first.setdefault(item["prog"], item)
        for item in first.values():
            self.facade_item(item)

    def facade_item(self, item: Dict) -> Dict:
        session = self.sessions[item["prog"]]
        return _summary(session.run(item["fn"], item["args"], engine="ir", erased=True))

    def facade(self, i: int) -> Dict:
        return self.facade_item(self.items[i % len(self.items)])

    def setup_layers(self) -> None:
        from repro.pipeline.session import ProgramSession

        self.layer_sessions = {prog: ProgramSession(src) for prog, src in self.sources.items()}
        self.nodes = {
            prog: session.checker.check_program().node_count()
            for prog, session in self.layer_sessions.items()
        }

    def decomposed(self, i: int, span: Callable) -> Dict:
        """The layers a warm ``Session.run`` calls: the whole-program
        re-check, the engine, and rendering."""
        from repro.runtime.heap import Heap
        from repro.runtime.machine import run_function

        item = self.items[i % len(self.items)]
        session = self.layer_sessions[item["prog"]]
        with span("api.run", op=i, kind="op", prog=item["prog"]):
            with span("check.program"):
                session.checker.check_program()
            heap = Heap()
            with span("machine.run"):
                value, interp = run_function(
                    session.program, item["fn"], item["args"], heap=heap,
                    check_reservations=False, sink_sends=True, engine="ir",
                )
            with span("api.render"):
                text = api.render_value(value, heap)
        return {
            "ok": True,
            "value": text,
            "nodes": self.nodes[item["prog"]],
            "steps": interp.stats.steps,
            "heap_reads": heap.reads,
            "heap_writes": heap.writes,
        }


def warm_up(item: Dict) -> None:
    """Import and first-call costs, paid once per process."""
    api.verify(item["source"])
    api.run(item["source"], item["fn"], item["args"], engine="ir", erased=True)


def cold_run(item: Dict) -> Dict:
    """What ``repro run`` pays: a cold ``api.run`` on a fresh source."""
    return _summary(api.run(item["source"], item["fn"], item["args"], engine="ir", erased=True))


def cold_decomposed(item: Dict, span: Callable) -> Dict:
    """The layers a cold ``api.run`` calls, one span each."""
    from repro.ir.bytecode import compile_program
    from repro.lang import parse_program
    from repro.pipeline.session import ProgramSession
    from repro.runtime.heap import Heap
    from repro.runtime.machine import run_function

    with span("api.run", kind="cold", prog=item["prog"]):
        with span("lang.parse"):
            program = parse_program(item["source"])
        with span("core.elaborate"):
            session = ProgramSession(item["source"], program=program)
        with span("check.program"):
            session.checker.check_program()
        with span("ir.compile"):
            compile_program(program, checked=False, observable=False)
        heap = Heap()
        with span("machine.run"):
            value, interp = run_function(
                program, item["fn"], item["args"], heap=heap,
                check_reservations=False, sink_sends=True, engine="ir",
            )
        with span("api.render"):
            text = api.render_value(value, heap)
    return {
        "ok": True,
        "value": text,
        "steps": interp.stats.steps,
        "heap_reads": heap.reads,
        "heap_writes": heap.writes,
    }


# ---------------------------------------------------------------------------
# Legs
# ---------------------------------------------------------------------------


#: Deterministic counts are summed over the traced run's first operations.
COUNT_OPS = 60


#: The measured loop runs one cold operation after every COLD_EVERY
#: warm ones, so both see the same machine over the whole run.
COLD_EVERY = 8


#: The measured loop times the host kernel about this often (s).
HOST_EVERY_S = 0.25


def host_kernel_ms() -> float:
    """Time (ms) of a fixed pure-Python kernel that runs none of the
    program's code: dict, tuple and string work like the program's.
    It measures the host's speed at this moment; on a shared host that
    speed drifts by 20-40% over seconds and minutes, and the kernel's
    time follows the workloads' closely (see README.md)."""
    t0 = perf()
    table: Dict[int, tuple] = {}
    for i in range(20000):
        k = (i * 7919) % 10007
        table[k] = table.get(k, ()) + (i,)
    ranked = sorted(((len(v), k) for k, v in table.items()), reverse=True)
    "".join(f"{n}-{k}" for n, k in ranked[:5000])
    return (perf() - t0) * 1000.0


def measure(work, job: Dict, out: Dict) -> None:
    """The untraced run: the workload's closed loop for ``seconds``, with
    cold ``api.run`` calls (cycling through ``job["cold"]``) interleaved
    and timed apart, and the host kernel timed about every
    :data:`HOST_EVERY_S`.  Each operation gets the mean of the two
    kernel times around it (``host_ms``, ``cold_host_ms``)."""
    samples, results, cold_ms, cold_results = [], [], [], []
    segment, cold_segment = [], []
    cold = job["cold"]
    kernel = [host_kernel_ms()]
    t_kernel = perf()
    t_end = perf() + job["seconds"]
    i = 0
    while i == 0 or perf() < t_end:
        t0 = perf()
        results.append(work.facade(i))
        samples.append((perf() - t0) * 1000.0)
        segment.append(len(kernel) - 1)
        i += 1
        if i % COLD_EVERY == 0:
            k = len(cold_ms)
            item = cold[k % len(cold)]
            t0 = perf()
            cold_results.append(cold_run(dict(item, source=cold_source(item, k))))
            cold_ms.append((perf() - t0) * 1000.0)
            cold_segment.append(len(kernel) - 1)
        if perf() - t_kernel >= HOST_EVERY_S:
            kernel.append(host_kernel_ms())
            t_kernel = perf()
    kernel.append(host_kernel_ms())
    around = [(a + b) / 2.0 for a, b in zip(kernel, kernel[1:])]
    out.update(
        samples=samples, results=results, cold_ms=cold_ms, cold_results=cold_results,
        host_ms=[around[k] for k in segment], cold_host_ms=[around[k] for k in cold_segment],
    )


def trace_legs(work, job: Dict, out: Dict) -> None:
    """The traced run.  Each operation runs five ways, in rotating order
    so that drift hits all alike: A, the facade as the untraced run calls
    it; B and C, the layers the facade calls, B without spans and C with
    them; R and T, the facade with the program's own registry, and with
    its tracer, switched on.  Then the cold leg, which the untraced run
    interleaves with the loop, runs with spans."""
    from repro import telemetry

    if isinstance(work, RunIR):
        work.setup_layers()
    spans = Spans()
    registry = telemetry.Registry()
    tracer = telemetry.Tracer(capacity=8192)

    def facade_under(scope: Callable):
        def run(i: int) -> Dict:
            with scope():
                return work.facade(i)

        return run

    variants = {
        "A": work.facade,
        "B": lambda i: work.decomposed(i, _null_span),
        "C": lambda i: work.decomposed(i, spans.span),
        "R": facade_under(lambda: telemetry.use(registry)),
        "T": facade_under(lambda: telemetry.use_tracer(tracer)),
    }
    order = list(variants)
    ms: Dict[str, List[float]] = {k: [] for k in order}
    results: Dict[str, List[Dict]] = {k: [] for k in order}
    tokens = 0
    t_end = perf() + job["seconds"] * 0.6
    i = 0
    while i < COUNT_OPS or perf() < t_end:
        if isinstance(work, VerifyCorpus):
            tokens += lex_span(spans, work.text(i))
        for key in order[i % 5:] + order[: i % 5]:
            t0 = perf()
            results[key].append(variants[key](i))
            ms[key].append((perf() - t0) * 1000.0)
        i += 1
    cold_results = []
    for k, item in enumerate(job["cold"]):
        source = cold_source(item, k)
        if isinstance(work, RunIR):
            tokens += lex_span(spans, source)
        cold_results.append(cold_decomposed(dict(item, source=source), spans.span))
    if isinstance(work, VerifyCorpus):
        # Every corpus program three times, for the per-program metrics.
        n = len(work.items)
        for index, item in enumerate(work.items):
            if item.get("prog") and item["id"].endswith("#0"):
                for rep in range(3):
                    work.decomposed(index + (i // n + 1 + rep) * n, spans.span, kind="corpus")
    out["results"] = {k: results[k] for k in ("A", "B", "R", "T")}
    out["cold_results"] = cold_results
    counters = compile_counters({item["prog"]: item["source"] for item in job["cold"]})
    out["layers"] = layer_metrics(work, spans, ms, results["B"], cold_results, tokens, counters)
    Path(job["trace_path"]).write_text(json.dumps(spans.chrome()))


def lex_span(spans: Spans, text: str) -> int:
    """Lex ``text`` under a ``lang.lex`` span; returns the token count."""
    from repro.lang import tokenize

    t0 = perf()
    count = len(tokenize(text))
    spans.add("lang.lex", t0, perf() - t0, kind="lex")
    return count


def compile_counters(sources: Dict[str, str]) -> Dict[str, int]:
    """The optimizer's counts summed over the erased compiles of the
    driver programs, which the cold leg compiles."""
    from repro.ir.bytecode import compile_program
    from repro.lang import parse_program

    total: Dict[str, int] = {}
    for source in sources.values():
        module = compile_program(parse_program(source), checked=False, observable=False)
        for key, value in module.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def layer_metrics(work, spans: Spans, ms, b_results, cold_results, tokens, counters) -> Dict[str, float]:
    """Per-layer metrics: times are mean ms per span of the traced leg C
    and of the traced cold leg; counts are summed over the first
    :data:`COUNT_OPS` operations of leg B (deterministic for a seed).

    Each layer is measured where the workload does its work: on
    verify-corpus, ``lang``, ``core`` and ``verifier`` in the loop's
    operations and ``ir`` and ``runtime`` in the cold leg; on run-ir,
    ``core`` (the re-check) and ``runtime`` in the loop's operations and
    ``lang`` and ``ir`` in the cold leg.  A metric whose spans are
    missing raises: only ``run.NOT_MEASURED`` may be left out."""
    mean, median = statistics.fmean, statistics.median
    verify = isinstance(work, VerifyCorpus)
    is_op = lambda a: a.get("kind") == "op"  # noqa: E731
    is_cold = lambda a: a.get("kind") == "cold"  # noqa: E731
    is_corpus = lambda a: a.get("kind") == "corpus"  # noqa: E731
    parse_scope = is_op if verify else is_cold
    run_scope = is_cold if verify else is_op
    run_results = cold_results if verify else b_results
    prog_scope = is_corpus if verify else is_cold
    first = b_results[:COUNT_OPS]
    m: Dict[str, float] = {}
    lex = durations(spans, "lang.lex")
    m["lang.lex_ms"] = mean(lex)
    m["lang.tokens_per_ms"] = tokens / sum(lex)
    m["lang.parse_ms"] = mean(durations(spans, "lang.parse", parse_scope))
    m["core.elaborate_ms"] = mean(durations(spans, "core.elaborate", parse_scope))
    m["core.check_ms"] = mean(durations(spans, "check.program", parse_scope))
    m["core.derivation_nodes"] = sum(r["nodes"] for r in first)
    for prog in CORPUS if verify else DRIVERS:
        scope = lambda a, p=prog: prog_scope(a) and a.get("prog") == p  # noqa: E731
        m[f"lang.parse_ms.{prog}"] = median(durations(spans, "lang.parse", scope))
        m[f"core.check_ms.{prog}"] = median(durations(spans, "check.program", scope))
        if verify:
            m[f"verifier.verify_ms.{prog}"] = median(durations(spans, "verify.program", scope))
    if verify:
        m["verifier.verify_ms"] = mean(durations(spans, "verify.program", is_op))
        m["verifier.obligations"] = sum(r["verified"] for r in first)
        m["verifier.verify_check_ratio"] = sum(durations(spans, "verify.program", is_corpus)) / sum(
            durations(spans, "check.program", is_corpus)
        )
    else:
        m["core.recheck_ms"] = mean(durations(spans, "check.program", is_op))
    m["ir.compile_ms"] = mean(durations(spans, "ir.compile", is_cold))
    m["ir.instructions"] = counters["instructions_emitted"]
    for key in ("inlined_calls", "loads_eliminated", "licm_hoisted", "tail_calls_looped", "slots_coalesced", "checks_erased"):
        m[f"ir.{key}"] = counters[key]
    executed = durations(spans, "machine.run", run_scope)
    m["runtime.execute_ms"] = mean(executed)
    m["runtime.ns_per_step"] = sum(executed) * 1e6 / sum(r["steps"] for r in run_results)
    for key in ("steps", "heap_reads", "heap_writes"):
        m[f"runtime.{key}"] = sum(r[key] for r in run_results[:COUNT_OPS])
    m["api.render_ms"] = mean(durations(spans, "api.render", run_scope))
    m["api.overhead_ms"] = mean(ms["A"]) - mean(ms["B"])
    # Self time per layer, mean ms per operation of the workload's loop;
    # a layer with no span in the loop's operations spends 0 ms there.
    ops = durations(spans, "api.verify" if verify else "api.run", is_op)
    self_s = layer_self_times(spans, is_op)
    for layer in ("lang", "core", "verifier", "ir", "runtime", "api"):
        m[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1000.0 / len(ops)
    m["bench.untraced_p50_ms"] = median(ms["A"])
    m["bench.untraced_mean_ms"] = mean(ms["A"])
    m["bench.traced_mean_ms"] = mean(ops)
    m["bench.trace_overhead"] = mean(ms["C"]) / mean(ms["B"])
    m["telemetry.counters_overhead"] = mean(ms["R"]) / mean(ms["A"])
    m["telemetry.tracer_overhead"] = mean(ms["T"]) / mean(ms["A"])
    return m


def main() -> int:
    t_launch = float(sys.stdin.readline())
    job = json.loads(sys.stdin.read())
    work = VerifyCorpus(job) if job["workload"] == "verify-corpus" else RunIR(job)
    work.setup(job)
    out: Dict = {"setup_s": time.monotonic() - t_launch}
    out["setup_host_ms"] = statistics.median(host_kernel_ms() for _ in range(3))
    if job["mode"] == "measure":
        measure(work, job, out)
    elif job["mode"] == "trace":
        trace_legs(work, job, out)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
