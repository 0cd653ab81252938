"""Tests for the stable programmatic facade (`repro.api`)."""

import json
import threading

import pytest

from repro import api, telemetry
from repro.api import CheckResult, Diagnostic, ExitCode, RunResult, VerifyResult
from repro.core.checker import Checker
from repro.corpus import load_source
from repro.pipeline import CertCache, Pipeline, ProgramSession

GOOD = """
struct data { v : int; }
def add(a : int, b : int) : int { a + b }
def boxed() : data { new data(v = 9) }
"""

BAD_TYPE = """
struct data { v : int; }
def f(d : data) : unit { send(d) }
"""

BAD_SYNTAX = "struct {"


class TestCheck:
    def test_ok(self):
        result = api.check(GOOD)
        assert result.ok
        assert result.functions == 2
        assert result.nodes > 0
        assert result.diagnostics == []
        assert result.exit_code is ExitCode.OK

    def test_type_error(self):
        result = api.check(BAD_TYPE, filename="bad.fcl")
        assert not result.ok
        assert result.exit_code is ExitCode.CHECK_REJECT
        (diag,) = result.diagnostics
        assert diag.file == "bad.fcl"
        assert diag.severity == "error"
        assert diag.code == "SendError"
        assert "send" in diag.message
        assert diag.span is not None and len(diag.span) == 4

    def test_syntax_error_is_diagnostic_not_exception(self):
        result = api.check(BAD_SYNTAX)
        assert not result.ok
        (diag,) = result.diagnostics
        assert diag.code == "ParseError"
        # str(ParseError) embeds "line:col: "; the facade strips it.
        assert not diag.message.split(" ")[0].rstrip(":").replace(
            ":", ""
        ).isdigit()

    def test_to_dict_round_trip(self):
        for source in (GOOD, BAD_TYPE, BAD_SYNTAX):
            result = api.check(source)
            again = CheckResult.from_dict(result.to_dict())
            assert again.to_dict() == result.to_dict()

    def test_session_matches_cold_path(self):
        from repro.pipeline.session import ProgramSession

        cold = api.check(GOOD, filename="x.fcl")
        warm = api.check(
            GOOD, filename="x.fcl", session=ProgramSession(GOOD)
        )
        assert warm.to_dict() == cold.to_dict()


class TestVerify:
    def test_ok(self):
        result = api.verify(GOOD)
        assert result.ok
        assert result.verified == result.nodes > 0
        assert result.exit_code is ExitCode.OK

    def test_check_reject_maps_to_exit_1(self):
        result = api.verify(BAD_TYPE)
        assert not result.ok
        assert result.exit_code is ExitCode.CHECK_REJECT

    def test_round_trip(self):
        result = api.verify(GOOD)
        assert (
            VerifyResult.from_dict(result.to_dict()).to_dict()
            == result.to_dict()
        )


class TestRun:
    def test_ok(self):
        result = api.run(GOOD, "add", [20, 22])
        assert result.ok
        assert result.value == "42"
        assert result.steps > 0
        assert result.exit_code is ExitCode.OK

    def test_struct_rendering(self):
        result = api.run(GOOD, "boxed")
        assert result.ok
        assert "data{" in result.value and "v = 9" in result.value

    def test_unknown_function(self):
        result = api.run(GOOD, "nosuch")
        assert not result.ok
        assert result.diagnostics[0].code == "MachineError"
        assert result.exit_code is ExitCode.RUNTIME_ERROR

    def test_check_first_rejects(self):
        result = api.run(BAD_TYPE, "f", [])
        assert not result.ok
        assert result.exit_code is ExitCode.CHECK_REJECT

    def test_max_steps_budget(self):
        unbounded = api.run(GOOD, "add", [1, 2])
        assert unbounded.ok
        generous = api.run(GOOD, "add", [1, 2], max_steps=10_000)
        assert generous.ok and generous.steps == unbounded.steps
        tight = api.run(GOOD, "add", [1, 2], max_steps=1)
        assert not tight.ok
        (diag,) = tight.diagnostics
        assert diag.code == "StepLimitExceeded"
        assert tight.exit_code is ExitCode.RUNTIME_ERROR

    def test_round_trip(self):
        result = api.run(GOOD, "add", [1, 2])
        assert (
            RunResult.from_dict(result.to_dict()).to_dict() == result.to_dict()
        )


def _count_checks(monkeypatch):
    """Count ``Checker.check_program`` calls made from here on."""
    calls = []
    original = Checker.check_program

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Checker, "check_program", counted)
    return calls


#: The use-after-send pair: ``bad`` differs from ``good`` by one send.
SENDS_GOOD = """
struct data { v : int; }
def f() : int { let d = new data(v = 1); d.v }
"""
SENDS_BAD = """
struct data { v : int; }
def f() : int { let d = new data(v = 1); send(d); d.v }
"""


class TestSessionChecksOnce:
    def test_accepted_program_is_checked_once(self, monkeypatch):
        calls = _count_checks(monkeypatch)
        session = api.Session(GOOD)
        results = [session.run("add", [i, 1]) for i in range(5)]
        assert [r.value for r in results] == [str(i + 1) for i in range(5)]
        assert len(calls) == 1

    def test_rejection_is_remembered_and_identical(self, monkeypatch):
        calls = _count_checks(monkeypatch)
        session = api.Session(BAD_TYPE, filename="bad.fcl")
        results = [session.run("f", [], erased=True) for _ in range(5)]
        first = results[0].to_dict()
        assert not results[0].ok
        (diag,) = results[0].diagnostics
        assert diag.code == "SendError" and diag.span is not None
        assert all(r.to_dict() == first for r in results)
        assert len(calls) == 1
        # The same failure a cold run reports.
        assert first == api.run(BAD_TYPE, "f", [], filename="bad.fcl").to_dict()

    def test_rejection_traceback_does_not_grow(self):
        session = ProgramSession(BAD_TYPE)
        depths = []
        for _ in range(4):
            try:
                session.check_once()
            except Exception as exc:  # noqa: BLE001 - the TypeError_
                depth, tb = 0, exc.__traceback__
                while tb is not None:
                    depth, tb = depth + 1, tb.tb_next
                depths.append(depth)
        assert len(depths) == 4
        assert depths[1] == depths[2] == depths[3]

    def test_other_exceptions_are_not_remembered(self, monkeypatch):
        session = ProgramSession(GOOD)

        def boom(self):
            raise RuntimeError("checker crashed")

        monkeypatch.setattr(Checker, "check_program", boom)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                session.check_once()
        monkeypatch.undo()
        calls = _count_checks(monkeypatch)
        assert api.run(GOOD, "add", [1, 2], session=session).value == "3"
        assert len(calls) == 1

    def test_check_first_false_leaves_the_verdict_unset(self, monkeypatch):
        calls = _count_checks(monkeypatch)
        session = ProgramSession(BAD_TYPE)
        api.run(BAD_TYPE, "f", [], session=session, check_first=False)
        assert calls == []
        assert not api.run(BAD_TYPE, "f", [], session=session).ok
        assert len(calls) == 1

    @pytest.mark.parametrize("trust_cache", [False, True])
    def test_cached_certificates_never_unlock_an_erased_run(
        self, tmp_path, trust_cache
    ):
        # Certificates are not bound to terms yet, so a good entry copied
        # to the bad program's key may make the verify pass.  Whatever it
        # returns, it must not mark the session checked.
        cache_dir = str(tmp_path)
        with Pipeline(cache_dir=cache_dir) as pipeline:
            assert api.verify(SENDS_GOOD, pipeline=pipeline).ok
        good, bad = ProgramSession(SENDS_GOOD), ProgramSession(SENDS_BAD)
        cache = CertCache(cache_dir)
        status, entry = cache.get(good.function_key("f"))
        assert status == "hit"
        cache.put(bad.function_key("f"), entry)
        with Pipeline(cache_dir=cache_dir, trust_cache=trust_cache) as pipeline:
            api.verify(SENDS_BAD, session=bad, pipeline=pipeline)
        result = api.run(SENDS_BAD, "f", [], session=bad, erased=True)
        assert not result.ok
        assert result.exit_code is ExitCode.CHECK_REJECT
        (diag,) = result.diagnostics
        assert diag.code == "SendError"

    @pytest.mark.parametrize("source", ["sll", "bad"])
    def test_shared_session_across_threads(self, source):
        if source == "sll":
            text, fn, args = load_source("sll"), "make_list", [20]
        else:
            text, fn, args = BAD_TYPE, "f", []
        session = api.Session(text)
        barrier = threading.Barrier(8)
        results = [None] * 8

        def one(i):
            barrier.wait()
            results[i] = session.run(fn, args, erased=True).to_dict()

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] is not None
        assert all(r == results[0] for r in results)
        assert results[0]["ok"] is (source == "sll")

    def test_verdict_reuse_is_counted(self):
        session = api.Session(GOOD)
        session.run("add", [1, 2])  # registry off: not counted
        reg = telemetry.enable()
        try:
            for _ in range(3):
                session.run("add", [1, 2])
            fresh = api.Session(GOOD)
            for _ in range(5):
                fresh.run("add", [1, 2])
        finally:
            telemetry.disable()
        assert reg.value("checker.functions") == len(fresh.function_names())
        assert reg.value("checker.verdict_reused") == 3 + 4


class TestDiagnostic:
    def test_wire_shape_has_exactly_five_keys(self):
        diag = Diagnostic(
            file="a.fcl",
            severity="error",
            code="SendError",
            message="nope",
            span=(1, 2, 3, 4),
        )
        data = diag.to_dict()
        assert sorted(data) == ["code", "file", "message", "severity", "span"]
        assert data["span"] == [1, 2, 3, 4]
        assert Diagnostic.from_dict(data) == diag
        assert json.loads(json.dumps(data)) == data

    def test_render_verification_failure_one_liner(self):
        diag = Diagnostic(
            file="p.fcl",
            severity="error",
            code="VerificationError",
            message="bad certificate",
        )
        assert diag.render() == "p.fcl: VERIFICATION FAILED: bad certificate"

    def test_render_runtime_one_liner(self):
        diag = Diagnostic(
            file="p.fcl",
            severity="error",
            code="StepLimitExceeded",
            message="step budget exceeded (9 steps)",
        )
        assert diag.render() == "runtime error: step budget exceeded (9 steps)"

    def test_render_type_error_has_caret(self):
        result = api.check(BAD_TYPE, filename="bad.fcl")
        text = result.diagnostics[0].render(BAD_TYPE)
        assert "bad.fcl:" in text and "type error" in text and "^" in text


class TestExitCode:
    def test_documented_values(self):
        assert ExitCode.OK == 0
        assert ExitCode.CHECK_REJECT == 1
        assert ExitCode.VERIFY_FAIL == 2
        assert ExitCode.RUNTIME_ERROR == 3
        assert ExitCode.BENCH_REGRESS == 3
        assert ExitCode.DIVERGENCE == 4
        assert ExitCode.FUZZ_VIOLATION == 5
        assert ExitCode.USAGE == 64


class TestRetiredShims:
    def test_check_source_shim_is_gone(self):
        import repro

        assert not hasattr(repro, "check_source")
        assert "check_source" not in repro.__all__

    def test_verify_source_shim_is_gone(self):
        import repro

        assert not hasattr(repro, "verify_source")
        assert "verify_source" not in repro.__all__

    def test_package_reexports_facade(self):
        import repro

        assert repro.CheckResult is CheckResult
        assert repro.ExitCode is ExitCode
        assert repro.Session is api.Session
        assert repro.api is api
