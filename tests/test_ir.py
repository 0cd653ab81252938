"""The bytecode engine: compile pipeline and parity.

The IR engine must be observationally indistinguishable from the fig 7
small-step reference machine: identical results and byte-identical
heap-event traces in the guarded tier and in the traced full tier, over
the whole corpus and under concurrent scheduling.  The untraced full
optimization tier may read the heap less often but must agree on results
and on the shape of the final heap.  Budgets (``max_steps``) are enforced
inside the dispatch loop itself.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.bench import bench_ir
from repro.cli import main
from repro.corpus import corpus_names, load_source
from repro.fuzz import FuzzConfig, run_campaign
from repro import telemetry as tel
from repro.ir.bytecode import (
    OP_CALL,
    OP_CALL1,
    OP_CALL2,
    OP_CHECK,
    OP_LOADV,
    OP_SENDC,
    clear_compile_cache,
    compile_cache_entries,
    compile_program,
    set_compile_cache_limit,
)
from repro.ir.disasm import disassemble
from repro.lang import ast, parse_program
from repro.runtime.heap import Heap
from repro.runtime.machine import (
    Machine,
    ScriptedScheduler,
    StepLimitExceeded,
    run_function,
)
from repro.runtime.smallstep import (
    BLOCKED_RECV,
    BLOCKED_SEND,
    DONE,
    Config,
    SmallStepMachine,
)
from repro.runtime.trace import Tracer
from repro.server import Service
from repro.server.protocol import E_INVALID, RpcError

#: The engine name the run surfaces accepted before the tree interpreter
#: was retired; every surface must now reject it.
RETIRED_ENGINE = "tree"

CORPUS = Path(__file__).parent.parent / "src" / "repro" / "corpus"

PINGPONG = """
struct data { v : int; }
struct token { iso payload : data; }

def pinger(n : int) : int {
  let last = 0;
  while (n > 0) {
    let d = new data(v = n);
    let t = new token(payload = d);
    send(t);
    let back = recv(data);
    last = back.v;
    n = n - 1
  };
  last
}

def ponger(n : int) : unit {
  while (n > 0) {
    let t = recv(token);
    let d = t.payload;
    d.v = d.v * 2;
    t.payload = new data(v = 0);
    send(d);
    n = n - 1
  }
}
"""

SPIN = """
struct counter { n : int; }
def spin(k : int) : int {
  let c = new counter(n = 0);
  while (k > 0) {
    c.n = c.n + 1;
    k = k - 1
  };
  c.n
}
"""

LOOP = """
def forever() : int {
  let x = 0;
  while (x < 1) { x = 0 };
  x
}
"""


def _int_entry_points(program):
    """Every function callable with small int arguments on one thread
    (``recv`` needs a Machine, so receiving functions are skipped)."""
    for name, fdef in program.funcs.items():
        if any(isinstance(node, ast.Recv) for node in ast.walk(fdef.body)):
            continue
        if all(p.ty == ast.INT for p in fdef.params):
            yield name, [4] * len(fdef.params)


def _run(program, fname, args, *, engine, checked, traced):
    """One single-threaded run whose sends go to an implicit sink, on the
    small-step reference (``engine="smallstep"``, always guarded) or on
    the IR engine."""
    tracer = Tracer() if traced else None
    heap = Heap(tracer=tracer)
    if engine == "smallstep":
        config = Config(program, heap, set(heap.locations()), fname,
                        list(args))
        while config.step() != DONE:
            assert config.status != BLOCKED_RECV, fname
            if config.status == BLOCKED_SEND:
                config.complete_send()
        return config.result, config, heap, tracer
    result, interp = run_function(
        program, fname, list(args), heap=heap,
        check_reservations=checked, sink_sends=True,
        max_steps=200_000, engine=engine,
    )
    return result, interp, heap, tracer


def _trace_bytes(run):
    return json.dumps(list(run[3].to_dicts()), sort_keys=True)


class TestCorpusParity:
    @pytest.mark.parametrize("name", corpus_names())
    def test_traced_runs_are_byte_identical(self, name):
        """Every entry point: the small-step reference and the IR engine's
        guarded tier and traced full tier agree on results and traces, and
        the guarded tier performs exactly the reference's check count."""
        program = parse_program(load_source(name))
        ran = 0
        for fname, args in _int_entry_points(program):
            ref = _run(program, fname, args, engine="smallstep",
                       checked=True, traced=True)
            for checked in (True, False):
                ir = _run(program, fname, args, engine="ir",
                          checked=checked, traced=True)
                assert repr(ref[0]) == repr(ir[0]), (fname, checked)
                assert _trace_bytes(ref) == _trace_bytes(ir), (fname, checked)
                if checked:
                    assert ref[1].reservation_checks == \
                        ir[1].stats.reservation_checks, fname
            ran += 1
        assert ran > 0

    @pytest.mark.parametrize("name", corpus_names())
    def test_erased_full_tier_agrees_on_results(self, name):
        """Full tier (RLE + mem2var live): results and heap shape match."""
        program = parse_program(load_source(name))
        for fname, args in _int_entry_points(program):
            ref = _run(program, fname, args, engine="smallstep",
                       checked=True, traced=False)
            ir = _run(program, fname, args, engine="ir", checked=False,
                      traced=False)
            assert repr(ref[0]) == repr(ir[0]), fname
            assert len(ref[2]) == len(ir[2]), fname


class TestBudgets:
    def test_step_limit_inside_dispatch_loop(self):
        program = parse_program(LOOP)
        with pytest.raises(StepLimitExceeded, match="step budget exceeded"):
            run_function(program, "forever", [], max_steps=1000, engine="ir")

    def test_step_limit_on_finite_work(self):
        program = parse_program(load_source("sll"))
        with pytest.raises(StepLimitExceeded):
            run_function(program, "make_list", [50], max_steps=10,
                         engine="ir", check_reservations=False)
        result, _ = run_function(program, "make_list", [50],
                                 max_steps=1_000_000, engine="ir",
                                 check_reservations=False)
        assert result is not None


class TestConcurrency:
    def test_scripted_replay_is_deterministic(self):
        program = parse_program(PINGPONG)
        results = []
        for _ in range(2):
            machine = Machine(program, scheduler=ScriptedScheduler())
            pinger = machine.spawn("pinger", [5])
            machine.spawn("ponger", [5])
            machine.run()
            results.append(pinger.result)
        assert results[0] == results[1] == 2

    def test_traced_machines_agree_across_engines(self):
        """Heap-event traces are yield-granularity-independent, so traced
        runs byte-match between the small-step machine and the IR
        ``Machine`` under the same seed."""
        traces = {}
        for engine, make in (("smallstep", SmallStepMachine), ("ir", Machine)):
            tracer = Tracer()
            program = parse_program(PINGPONG)
            machine = make(program, seed=3, tracer=tracer)
            machine.spawn("pinger", [4])
            machine.spawn("ponger", [4])
            machine.run()
            traces[engine] = json.dumps(list(tracer.to_dicts()),
                                        sort_keys=True)
        assert traces["smallstep"] == traces["ir"]


class TestCompiler:
    def test_erased_module_contains_no_check_opcodes(self):
        program = parse_program(load_source("rbtree"))
        erased = compile_program(program, checked=False, observable=False)
        opcodes = {
            ins[0] for fn in erased.funcs.values() for ins in fn.code
        }
        assert OP_CHECK not in opcodes
        assert OP_SENDC not in opcodes
        assert erased.counters["checks_erased"] > 0

    def test_checked_module_keeps_guards(self):
        program = parse_program(load_source("rbtree"))
        checked = compile_program(program, checked=True, observable=True)
        opcodes = {
            ins[0] for fn in checked.funcs.values() for ins in fn.code
        }
        assert OP_CHECK in opcodes
        assert checked.counters["checks_erased"] == 0

    def test_optimizer_counters_fire_on_rbtree(self):
        program = parse_program(load_source("rbtree"))
        module = compile_program(program, checked=False, observable=False)
        for counter in ("inlined_calls", "loads_eliminated",
                        "consts_pooled", "dests_sunk",
                        "instructions_emitted"):
            assert module.counters[counter] > 0, counter

    def test_mem2var_promotes_non_escaping_allocation(self):
        program = parse_program(SPIN)
        module = compile_program(program, checked=False, observable=False)
        assert module.counters["fields_promoted"] == 1
        assert module.counters["loads_eliminated"] > 0
        # The allocation itself stays: object counts must not change.
        ref = _run(program, "spin", [10], engine="smallstep", checked=True,
                   traced=False)
        ir = _run(program, "spin", [10], engine="ir", checked=False,
                  traced=False)
        assert ref[0] == ir[0] == 10
        assert len(ref[2]) == len(ir[2]) == 1

    def test_compile_cache_is_per_configuration(self):
        program = parse_program(SPIN)
        a = compile_program(program, checked=False, observable=False)
        b = compile_program(program, checked=False, observable=False)
        c = compile_program(program, checked=True, observable=True)
        assert a is b
        assert a is not c


class TestSurfaces:
    def test_api_run_engine_roundtrip(self):
        result = api.run(SPIN, "spin", [7], engine="ir")
        assert result.ok and result.value == "7"
        assert result.engine == "ir"
        restored = api.RunResult.from_dict(result.to_dict())
        assert restored.engine == "ir"
        # A document without the field reads as the only engine.
        legacy = dict(result.to_dict())
        del legacy["engine"]
        assert api.RunResult.from_dict(legacy).engine == "ir"

    def test_api_rejects_unknown_engine(self):
        result = api.run(SPIN, "spin", [7], engine="jit")
        assert not result.ok
        assert result.diagnostics[0].code == "MachineError"
        assert "unknown engine" in result.diagnostics[0].message

    def test_api_rejects_retired_tree_engine(self):
        import repro.runtime

        assert not hasattr(repro.runtime, "Interpreter")
        result = api.run(SPIN, "spin", [7], engine=RETIRED_ENGINE)
        assert not result.ok
        assert result.engine == RETIRED_ENGINE
        assert result.diagnostics[0].code == "MachineError"
        assert result.diagnostics[0].message == (
            "unknown engine 'tree'; expected 'ir'"
        )

    def test_service_rejects_retired_tree_engine(self):
        with pytest.raises(RpcError, match="params.engine") as rejected:
            Service().run(
                {"source": SPIN, "function": "spin", "args": [6],
                 "engine": RETIRED_ENGINE}
            )
        assert rejected.value.code == E_INVALID

    @pytest.mark.parametrize("argv", [
        ["run", "FILE", "spin", "3", "--engine", "ir"],
        ["client", "--connect", "unix:/nonexistent", "run", "FILE", "spin",
         "3", "--engine", "ir"],
    ])
    def test_cli_engine_flag_is_a_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "spin.fcl"
        path.write_text(SPIN)
        argv = [str(path) if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 64
        assert "--engine" in capsys.readouterr().err

    def test_service_run_engine(self):
        service = Service()
        reply = service.run(
            {"source": SPIN, "function": "spin", "args": [6], "engine": "ir"}
        )
        assert reply["ok"] and reply["value"] == "6"
        assert reply["engine"] == "ir"
        with pytest.raises(RpcError, match="params.engine"):
            service.run(
                {"source": SPIN, "function": "spin", "args": [6],
                 "engine": "jit"}
            )

    def test_cli_trace_json_byte_identical_across_engines(self, tmp_path):
        """The guarded and erased (traced full tier) exports are the
        small-step reference's trace, byte for byte."""
        sll = str(CORPUS / "sll.fcl")
        out = {}
        for tier in ("guarded", "erased"):
            path = tmp_path / f"{tier}.jsonl"
            extra = ["--erased"] if tier == "erased" else []
            code = main(["run", sll, "make_list", "8", *extra,
                         "--trace-json", str(path)])
            assert code == 0
            out[tier] = path.read_bytes()
        ref = _run(parse_program(load_source("sll")), "make_list", [8],
                   engine="smallstep", checked=True, traced=True)
        expected = "".join(
            json.dumps(event) + "\n" for event in ref[3].to_dicts()
        ).encode()
        assert out["guarded"] == out["erased"] == expected

    def test_cli_paranoid_cross_checks_smallstep(self, capsys):
        rb = str(CORPUS / "rbtree.fcl")
        code = main(["run", rb, "build_tree", "25", "7", "--paranoid"])
        assert code == 0
        err = capsys.readouterr().err
        assert "paranoid: small-step and ir traces identical" in err
        assert "paranoid: guarded and erased traces identical" in err

    def test_fuzz_campaign_reports_engines(self):
        report = run_campaign(FuzzConfig(seed=11, budget=8))
        assert report["engines"] == ["smallstep", "ir"]
        assert report["clean"]

    def test_bench_ir_smoke(self):
        rows = bench_ir(repeats=1, small=True)
        assert [row["workload"] for row in rows] == [
            "rbtree-build", "rbtree-query", "chain-traverse", "dll-walk",
        ]
        for row in rows:
            for key in ("ir_checked_ms", "ir_erased_ms", "compile_ms"):
                assert row[key] > 0, key
            assert row["reservation_checks_elided"] > 0
            assert not any(k.startswith(("tree_", "speedup_")) for k in row)
            assert row["checks_erased"] > 0
            assert row["instructions_emitted"] > 0


class TestSecondGen:
    """PR 9: register allocation, LICM, tail-call loops, fused opcodes,
    the shared compile cache, and the disassembler."""

    def test_optimizer_second_gen_counters_fire(self):
        program = parse_program(load_source("rbtree"))
        module = compile_program(program, checked=False, observable=False)
        for counter in ("loops_found", "licm_hoisted",
                        "slots_coalesced", "tail_calls_looped"):
            assert module.counters[counter] > 0, counter

    def test_tail_recursion_becomes_loop_in_full_tier_only(self):
        program = parse_program(load_source("rbtree"))
        erased = compile_program(program, checked=False, observable=False)
        assert erased.counters["tail_calls_looped"] >= 2
        # The looped function must not call itself anymore.
        fn = erased.funcs["contains_opt"]
        for ins in fn.code:
            assert not (
                ins[0] in (OP_CALL, OP_CALL1, OP_CALL2)
                and ins[2].name == "contains_opt"
            )
        # The checked tier keeps the calls (its step/check accounting is
        # part of the observable contract).
        checked = compile_program(program, checked=True, observable=False)
        assert checked.counters["tail_calls_looped"] == 0

    def test_fused_opcodes_present_and_results_agree(self):
        program = parse_program(load_source("rbtree"))
        module = compile_program(program, checked=False, observable=False)
        opcodes = {
            ins[0] for fn in module.funcs.values() for ins in fn.code
        }
        assert OP_LOADV in opcodes
        assert OP_CALL2 in opcodes
        ref = _run(program, "build_tree", [30, 7], engine="smallstep",
                   checked=True, traced=False)
        ir = _run(program, "build_tree", [30, 7], engine="ir",
                  checked=False, traced=False)
        assert repr(ref[0]) == repr(ir[0])
        assert len(ref[2]) == len(ir[2])

    def test_budget_binds_on_straight_line_functions(self):
        program = parse_program(
            "def add(a : int, b : int) : int { a + b }"
        )
        with pytest.raises(StepLimitExceeded):
            run_function(program, "add", [1, 2], max_steps=1, engine="ir")
        result, _ = run_function(program, "add", [1, 2], max_steps=100,
                                 engine="ir")
        assert result == 3

    def test_disasm_reports_passes_and_baseline(self):
        program = parse_program(load_source("rbtree"))
        optimized = disassemble(
            program, checked=False, optimize=True, function="contains_opt"
        )
        assert "func contains_opt" in optimized
        assert "; pass tailcall: tail_calls_looped+2" in optimized
        assert "; pass regalloc:" in optimized
        baseline = disassemble(
            program, checked=False, optimize=False, function="contains_opt"
        )
        assert "; pass" not in baseline
        assert len(baseline.splitlines()) > len(optimized.splitlines())
        with pytest.raises(KeyError):
            disassemble(program, function="no_such_function")

    def test_shared_cache_eviction_telemetry(self):
        clear_compile_cache()
        set_compile_cache_limit(2)
        reg = tel.enable()
        try:
            programs = [
                parse_program(SPIN.replace("spin", f"spin{i}"))
                for i in range(3)
            ]
            for program in programs:
                compile_program(program, checked=False, observable=False)
            assert compile_cache_entries() == 2
            assert reg.value("machine.engine.compile_cache.evictions") >= 1
            assert reg.value("machine.engine.compile_cache.misses") == 3
            # A fresh Program object for a cached source must hit the
            # shared cache instead of recompiling.
            fresh = parse_program(SPIN.replace("spin", "spin2"))
            before = reg.value("machine.engine.compile_cache.hits")
            compile_program(fresh, checked=False, observable=False)
            assert reg.value("machine.engine.compile_cache.hits") == before + 1
        finally:
            tel.disable()
            set_compile_cache_limit(64)
            clear_compile_cache()

    def test_session_eviction_survived_by_shared_cache(self):
        """Evicting a ProgramSession from the service LRU must not force a
        recompile: the next run builds a fresh Program whose fingerprint
        hits the shared compile cache."""
        clear_compile_cache()
        reg = tel.enable()
        try:
            service = Service(max_sessions=1)
            first = SPIN
            second = SPIN.replace("spin", "spun")
            reply = service.run(
                {"source": first, "function": "spin", "args": [5]}
            )
            assert reply["engine"] == "ir"
            service.run({"source": second, "function": "spun", "args": [5]})
            before = reg.value("machine.engine.compile_cache.hits")
            service.run({"source": first, "function": "spin", "args": [5]})
            assert reg.value("machine.engine.compile_cache.hits") == before + 1
            assert reg.value("machine.engine.compiles") == 2
        finally:
            tel.disable()
            clear_compile_cache()
