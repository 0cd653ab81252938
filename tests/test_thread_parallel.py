"""Concurrent in-process checking.

The persistent checker core promises that many threads can check
concurrently against one warm :class:`ProgramSession` with zero copies —
the daemon answers requests on ``--threads`` workers that share its
session LRU.  These tests cover:

* thread-vs-serial parity (results, diagnostics, telemetry) of facade
  and pipeline runs on the positive and negative corpus, and agreement
  with the process pool;
* execution selection: ``jobs=1`` runs in-process, ``jobs>1`` on the
  process pool, and the retired ``mode``/``jobs`` keywords are rejected;
* 8-thread stress: Region interning identity, concurrent check/verify
  against one shared warm session, and the shared IR compile cache;
* the ``repro.api`` facade: the ``pipeline=`` keyword and the public
  :class:`api.Session` handle.
"""

import threading

import pytest

from repro import api, telemetry
from repro.api import CheckResult, VerifyResult
from repro.core.regions import Region
from repro.corpus import load_source
from repro.corpus.negative import NEGATIVE_CASES
from repro.ir.bytecode import (
    clear_compile_cache,
    compile_cache_entries,
    compile_program,
)
from repro.lang import parse_program
from repro.pipeline import Pipeline, ProgramSession

GOOD = """
struct data { v : int; }
def add(a : int, b : int) : int { a + b }
def boxed() : data { new data(v = 9) }
"""

BAD_TYPE = """
struct data { v : int; }
def f(d : data) : unit { send(d) }
"""

THREADS = 8


@pytest.fixture(autouse=True)
def _clean_global_registry():
    yield
    telemetry.disable()


def _counters(reg):
    return {
        name: c.value
        for name, c in reg.counters.items()
        if not name.startswith("pipeline.")
    }


def _fan_out(work, n=THREADS):
    """Run ``work(i)`` on ``n`` threads behind a barrier; re-raise the
    first worker exception in the caller."""
    barrier = threading.Barrier(n)
    errors = []

    def runner(i):
        try:
            barrier.wait()
            work(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,), name=f"stress-{i}")
        for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestThreadSerialParity:
    def test_corpus_results_and_metrics_agree(self):
        source = load_source("dll")
        session = ProgramSession(source)
        api.verify(source, session=session)  # warm every lazy table
        reg = telemetry.enable()
        serial = api.verify(source, session=session).to_dict()
        telemetry.disable()
        baseline = {n: c.value for n, c in reg.counters.items()}

        rows = [None] * THREADS
        reg = telemetry.enable()

        def work(i):
            rows[i] = api.verify(source, session=session).to_dict()

        _fan_out(work)
        telemetry.disable()
        assert serial["ok"]
        assert all(row == serial for row in rows)
        assert {n: c.value for n, c in reg.counters.items()} == {
            n: THREADS * v for n, v in baseline.items()
        }

    def test_negative_corpus_diagnostics_and_metrics_agree(self):
        cases = list(NEGATIVE_CASES)
        reg = telemetry.enable()
        serial = [api.check(case.source, filename=case.name) for case in cases]
        telemetry.disable()
        baseline = _counters(reg)
        assert any(not r.ok for r in serial)

        rows = [None] * len(cases)
        reg = telemetry.enable()

        def work(i):
            for index in range(i, len(cases), THREADS):
                case = cases[index]
                rows[index] = api.check(case.source, filename=case.name)

        _fan_out(work)
        telemetry.disable()
        assert [r.to_dict() for r in rows] == [r.to_dict() for r in serial]
        assert _counters(reg) == baseline

    def test_thread_and_process_modes_agree(self):
        source = load_source("sll")
        session = ProgramSession(source)
        with Pipeline() as pipeline:
            serial = pipeline.run("sll", source)
        threaded = [None] * THREADS

        def work(i):
            threaded[i] = Pipeline().run("sll", source, session=session)

        _fan_out(work)
        with Pipeline(jobs=2) as pipeline:
            process = pipeline.run("sll", source)
        assert serial.ok
        for result in threaded + [process]:
            assert (result.nodes, result.verified) == (
                serial.nodes,
                serial.verified,
            )


class TestModeSelection:
    def test_auto_mode_defaults(self):
        # ``jobs`` alone selects the execution: 1 (the default) checks
        # in-process, more fan out over the process pool.
        with Pipeline() as one, Pipeline(jobs=2) as many:
            assert one.jobs == 1
            assert one.run("good", GOOD).ok
            assert one._executor is None
            assert many.run("good", GOOD).ok
            assert many._executor is not None

    def test_invalid_mode_rejected(self):
        # The thread/process/serial mode knob is gone everywhere.
        with pytest.raises(TypeError):
            Pipeline(mode="serial")
        with pytest.raises(TypeError):
            api.check(GOOD, mode="serial")
        with pytest.raises(TypeError):
            api.verify(GOOD, jobs=4)
        with pytest.raises(TypeError):
            api.Session(GOOD).check(jobs=4)

    def test_empty_task_list_counts_as_serial(self):
        reg = telemetry.enable()
        with Pipeline(jobs=4) as pipeline:
            result = pipeline.run("empty", "struct lonely { v : int; }")
            assert pipeline._executor is None  # no pool for no tasks
        telemetry.disable()
        assert result.ok and result.functions == []
        assert not any(
            n.startswith("pipeline.mode") or n == "pipeline.jobs"
            for n in reg.counters
        )


class TestEightThreadStress:
    def test_region_interning_identity_under_contention(self):
        # Fresh idents so every thread races the first-seen insert path.
        idents = list(range(880_000, 880_160))
        rows = [None] * THREADS

        def work(i):
            rows[i] = [Region(ident) for ident in idents]

        _fan_out(work)
        first = rows[0]
        for row in rows[1:]:
            for a, b in zip(first, row):
                assert a is b, "interning returned distinct objects"

    def test_concurrent_checks_of_one_warm_session(self):
        source = load_source("dll")
        session = ProgramSession(source)
        names = session.function_names()
        baseline = {
            name: session.check_function(name).body.node_count() for name in names
        }
        rows = [None] * THREADS

        def work(i):
            local = {}
            # Stagger the start so threads collide on different functions.
            for name in names[i % len(names):] + names[: i % len(names)]:
                fd = session.check_function(name)
                local[name] = fd.body.node_count()
                session.verify_function(fd)
            rows[i] = local

        _fan_out(work)
        assert all(row == baseline for row in rows)

    def test_concurrent_checks_across_corpus_sources(self):
        sources = ["dll", "sll", "queue", "ntree"]
        sessions = {name: ProgramSession(load_source(name)) for name in sources}
        baseline = {
            name: sum(
                session.check_function(f).body.node_count()
                for f in session.function_names()
            )
            for name, session in sessions.items()
        }
        rows = [None] * THREADS

        def work(i):
            name = sources[i % len(sources)]
            session = sessions[name]
            rows[i] = (
                name,
                sum(
                    session.check_function(f).body.node_count()
                    for f in session.function_names()
                ),
            )

        _fan_out(work)
        for name, total in rows:
            assert total == baseline[name]

    def test_shared_compile_cache_under_contention(self):
        source = load_source("sll")
        clear_compile_cache()
        programs = [parse_program(source) for _ in range(THREADS)]
        rows = [None] * THREADS

        def work(i):
            rows[i] = compile_program(programs[i], True, False)

        _fan_out(work)
        first = rows[0]
        for row in rows[1:]:
            assert set(row.funcs) == set(first.funcs)
        # The dust settles to exactly one shared entry, and fresh programs
        # from the same source hit it (identical object, no recompile).
        assert compile_cache_entries() == 1
        again_a = compile_program(parse_program(source), True, False)
        again_b = compile_program(parse_program(source), True, False)
        assert again_a is again_b
        clear_compile_cache()


class TestApiParallel:
    def test_check_thread_mode_matches_serial(self):
        session = ProgramSession(GOOD)
        serial = api.check(GOOD)
        rows = [None] * THREADS

        def work(i):
            rows[i] = api.check(GOOD, session=session)

        _fan_out(work)
        assert all(isinstance(row, CheckResult) for row in rows)
        assert all(row.to_dict() == serial.to_dict() for row in rows)

    def test_verify_thread_mode_matches_serial(self):
        session = ProgramSession(GOOD)
        serial = api.verify(GOOD)
        rows = [None] * THREADS

        def work(i):
            rows[i] = api.verify(GOOD, session=session)

        _fan_out(work)
        assert all(isinstance(row, VerifyResult) for row in rows)
        assert all(row.to_dict() == serial.to_dict() for row in rows)

    def test_check_process_pool_matches_serial(self):
        with Pipeline(jobs=2) as pipeline:
            pooled = api.check(GOOD, pipeline=pipeline)
            assert pipeline._executor is not None
        assert pooled.to_dict() == api.check(GOOD).to_dict()

    def test_verify_process_pool_matches_serial(self):
        with Pipeline(jobs=2) as pipeline:
            pooled = api.verify(GOOD, pipeline=pipeline)
        assert pooled.to_dict() == api.verify(GOOD).to_dict()

    def test_type_error_diagnostics_match_serial(self):
        serial = api.check(BAD_TYPE, filename="bad.fcl")
        with Pipeline(jobs=4) as pipeline:
            pooled = api.check(BAD_TYPE, filename="bad.fcl", pipeline=pipeline)
        assert not pooled.ok
        assert pooled.to_dict() == serial.to_dict()

    def test_syntax_error_is_diagnostic_not_exception(self):
        with Pipeline(jobs=4) as pipeline:
            result = api.check("struct {", pipeline=pipeline)
        assert not result.ok
        assert result.diagnostics[0].code == "ParseError"


class TestApiSession:
    def test_warm_session_matches_cold_calls(self):
        session = api.Session(GOOD, filename="x.fcl")
        assert session.ok
        assert session.diagnostics == []
        assert session.function_names() == ["add", "boxed"]
        assert (
            session.check().to_dict()
            == api.check(GOOD, filename="x.fcl").to_dict()
        )
        assert (
            session.verify().to_dict()
            == api.verify(GOOD, filename="x.fcl").to_dict()
        )

    def test_session_parallel_check_matches_serial(self):
        session = api.Session(GOOD)
        serial = (session.check().to_dict(), session.verify().to_dict())
        rows = [None] * THREADS

        def work(i):
            rows[i] = (session.check().to_dict(), session.verify().to_dict())

        _fan_out(work)
        assert all(row == serial for row in rows)

    def test_session_run(self):
        session = api.Session(GOOD)
        result = session.run("add", [20, 22])
        assert result.ok
        assert result.value == "42"

    def test_failed_parse_session_never_raises(self):
        session = api.Session("struct {", filename="broken.fcl")
        assert not session.ok
        assert session.diagnostics[0].code == "ParseError"
        assert session.function_names() == []
        check = session.check()
        assert not check.ok
        assert check.diagnostics[0].code == "ParseError"
        verify = session.verify()
        assert not verify.ok
        run = session.run("main")
        assert not run.ok

    def test_type_error_session_reports_via_check(self):
        session = api.Session(BAD_TYPE, filename="bad.fcl")
        result = session.check()
        assert not result.ok
        assert result.diagnostics[0].code == "SendError"
        assert result.diagnostics[0].file == "bad.fcl"

    def test_repr_mentions_state(self):
        assert "Session" in repr(api.Session(GOOD))

    def test_package_root_exports_session(self):
        import repro

        assert repro.Session is api.Session
