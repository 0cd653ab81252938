"""Pipeline tests: cache-key invalidation, certificate store round trips,
serial/parallel parity (diagnostics, exit codes, merged metrics), the
``repro batch`` CLI contract, bench report comparison, and fixed-seed fuzz
parity under ``--jobs``.
"""

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import telemetry
from repro.bench import compare_docs
from repro.cli import main
from repro.core.checker import CHECKER_VERSION, DEFAULT_PROFILE, Checker
from repro.core.errors import TypeError_
from repro.corpus import corpus_names, load_source
from repro.corpus.negative import NEGATIVE_CASES
from repro.fuzz import FuzzConfig, run_campaign
from repro.lang import parse_program
from repro.pipeline import (
    CacheEntry,
    CertCache,
    Pipeline,
    ProgramFingerprints,
    ProgramSession,
    callees_of,
    discover,
)
from repro.verifier import Verifier

CORPUS_DIR = Path(__file__).parent.parent / "src" / "repro" / "corpus"

SOURCE = """
struct data { v : int; }
def leaf(x : int) : int { x + 1 }
def mid(x : int) : int { leaf(x) + 2 }
def top(x : int) : int { mid(x) + leaf(x) }
def lone(d : data) : int { d.v }
"""


def keys_of(source: str, profile=DEFAULT_PROFILE, version=CHECKER_VERSION):
    program = parse_program(source)
    fp = ProgramFingerprints(program, profile=profile, version=version)
    return {name: fp.key(name) for name in program.funcs}


@pytest.fixture(autouse=True)
def _clean_global_registry():
    yield
    telemetry.disable()


class TestCacheKeys:
    def test_whitespace_and_comment_edits_are_noops(self):
        noisy = SOURCE.replace(
            "def leaf(x : int) : int { x + 1 }",
            "def leaf( x : int )   : int {\n  // a comment\n  x + 1\n}",
        )
        assert keys_of(SOURCE) == keys_of(noisy)

    def test_body_edit_invalidates_only_that_function(self):
        edited = SOURCE.replace("{ x + 1 }", "{ x + 2 }")
        before, after = keys_of(SOURCE), keys_of(edited)
        assert before["leaf"] != after["leaf"]
        # Callers hash the callee's *header*, which did not change.
        assert before["mid"] == after["mid"]
        assert before["top"] == after["top"]
        assert before["lone"] == after["lone"]

    def test_signature_edit_invalidates_function_and_callers(self):
        edited = SOURCE.replace(
            "def leaf(x : int) : int", "def leaf(x : int, y : int) : int"
        ).replace("leaf(x)", "leaf(x, 0)")
        before, after = keys_of(SOURCE), keys_of(edited)
        assert before["leaf"] != after["leaf"]
        assert before["mid"] != after["mid"]  # calls leaf
        assert before["top"] != after["top"]  # calls leaf and mid
        assert before["lone"] == after["lone"]  # calls nothing

    def test_struct_edit_invalidates_everything(self):
        edited = SOURCE.replace(
            "struct data { v : int; }", "struct data { v : int; w : int; }"
        )
        before, after = keys_of(SOURCE), keys_of(edited)
        assert all(before[name] != after[name] for name in before)

    def test_version_and_profile_are_key_material(self):
        base = keys_of(SOURCE)
        assert keys_of(SOURCE, version="repro-checker/other") != base
        doctored = replace(DEFAULT_PROFILE, unsound_send_keeps_region=True)
        assert keys_of(SOURCE, profile=doctored) != base

    def test_callees_are_direct_only(self):
        program = parse_program(SOURCE)
        assert callees_of(program.func("top"), program) == ["leaf", "mid"]
        assert callees_of(program.func("mid"), program) == ["leaf"]
        assert callees_of(program.func("lone"), program) == []


class TestCertCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CertCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) == ("miss", None)
        entry = CacheEntry(func="f", nodes=3, verified=4, cert="{}")
        cache.put(key, entry)
        status, got = cache.get(key)
        assert status == "hit"
        assert (got.func, got.nodes, got.verified, got.cert) == ("f", 3, 4, "{}")
        assert len(cache) == 1

    def test_corrupt_entry_is_stale(self, tmp_path):
        cache = CertCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, CacheEntry(func="f", nodes=1, verified=1, cert="{}"))
        cache.path_for(key).write_text("not json at all")
        assert cache.get(key) == ("stale", None)

    def test_version_mismatch_is_stale(self, tmp_path):
        cache = CertCache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(
            key,
            CacheEntry(
                func="f", nodes=1, verified=1, cert="{}", version="repro-checker/0"
            ),
        )
        assert cache.get(key) == ("stale", None)


class TestPipelineCache:
    def test_cold_then_warm_then_trusted(self, tmp_path):
        with Pipeline(jobs=1, cache_dir=str(tmp_path)) as pipeline:
            cold = pipeline.run("p", SOURCE)
            warm = pipeline.run("p", SOURCE)
        assert cold.ok and warm.ok
        assert cold.counts() == {"hit": 0, "miss": 4, "stale": 0}
        assert warm.counts() == {"hit": 4, "miss": 0, "stale": 0}
        assert (cold.nodes, cold.verified) == (warm.nodes, warm.verified)
        with Pipeline(
            jobs=1, cache_dir=str(tmp_path), trust_cache=True
        ) as pipeline:
            trusted = pipeline.run("p", SOURCE)
        assert trusted.ok
        assert (trusted.nodes, trusted.verified) == (cold.nodes, cold.verified)

    def test_trusted_hits_never_run_the_verifier(self, tmp_path, monkeypatch):
        with Pipeline(jobs=1, cache_dir=str(tmp_path)) as pipeline:
            assert pipeline.run("p", SOURCE).ok
        monkeypatch.setattr(
            Verifier,
            "verify_function",
            lambda self, fd: (_ for _ in ()).throw(AssertionError("verified")),
        )
        with Pipeline(
            jobs=1, cache_dir=str(tmp_path), trust_cache=True
        ) as pipeline:
            assert pipeline.run("p", SOURCE).ok

    def test_tampered_certificate_self_heals(self, tmp_path):
        cache_dir = str(tmp_path)
        with Pipeline(jobs=1, cache_dir=cache_dir) as pipeline:
            assert pipeline.run("p", SOURCE).ok
        # Corrupt one stored certificate *payload* while keeping the entry
        # envelope valid: the replay must fail and fall back to a fresh
        # derivation, not reject the program.
        session = ProgramSession(SOURCE)
        cache = CertCache(cache_dir)
        key = session.function_key("leaf")
        path = cache.path_for(key)
        data = json.loads(path.read_text())
        data["cert"] = '{"rule": "bogus"}'
        path.write_text(json.dumps(data))
        with Pipeline(jobs=1, cache_dir=cache_dir) as pipeline:
            healed = pipeline.run("p", SOURCE)
        assert healed.ok
        assert healed.counts() == {"hit": 3, "miss": 0, "stale": 1}
        # And the fresh certificate was written back: next run is all hits.
        with Pipeline(jobs=1, cache_dir=cache_dir) as pipeline:
            again = pipeline.run("p", SOURCE)
        assert again.counts() == {"hit": 4, "miss": 0, "stale": 0}

    def test_check_only_mode_reads_but_never_writes(self, tmp_path):
        with Pipeline(cache_dir=str(tmp_path)) as pipeline:
            assert pipeline.run("p", SOURCE, verify=False).ok
            # Nothing was verified, so nothing may be cached (only
            # verified certificates are sound to replay).
            assert len(CertCache(str(tmp_path))) == 0
            assert pipeline.run("p", SOURCE).ok
            result = pipeline.run("p", SOURCE, verify=False)
        assert result.counts()["hit"] == 4

    def test_cache_counters_only_with_a_cache(self, tmp_path):
        reg = telemetry.enable()
        with Pipeline() as pipeline:
            assert pipeline.run("p", SOURCE).ok
        telemetry.disable()
        assert not any(n.startswith("pipeline.cache.") for n in reg.counters)
        assert reg.value("pipeline.files") == 1
        reg = telemetry.enable()
        with Pipeline(cache_dir=str(tmp_path)) as pipeline:
            assert pipeline.run("p", SOURCE).ok
        telemetry.disable()
        assert reg.value("pipeline.cache.miss") == 4
        assert reg.value("pipeline.cache.hit") == 0

    def test_run_uses_the_callers_warm_session(self, monkeypatch):
        session = ProgramSession(SOURCE)
        built = []
        monkeypatch.setattr(
            "repro.pipeline.runner.ProgramSession",
            lambda *a, **k: built.append(a) or ProgramSession(*a, **k),
        )
        with Pipeline() as pipeline:
            result = pipeline.run("p", SOURCE, session=session)
        assert result.ok and built == []
        with Pipeline() as pipeline:
            assert pipeline.run("p", SOURCE).ok
        assert len(built) == 1


def _counters(reg):
    return {
        name: c.value
        for name, c in reg.counters.items()
        if not name.startswith("pipeline.")
    }


class TestSerialParallelParity:
    def test_corpus_results_and_metrics_agree(self):
        source = load_source("dll")
        # Ground truth: the plain checker + verifier entry points.
        reg = telemetry.enable()
        program = parse_program(source)
        derivation = Checker(program).check_program()
        nodes = Verifier(program).verify_program(derivation)
        telemetry.disable()
        baseline = {n: c.value for n, c in reg.counters.items()}

        for jobs in (1, 2):
            reg = telemetry.enable()
            with Pipeline(jobs=jobs) as pipeline:
                result = pipeline.run("dll", source)
            telemetry.disable()
            assert result.ok
            assert result.nodes == derivation.node_count()
            assert result.verified == nodes
            assert _counters(reg) == baseline

    def test_negative_corpus_diagnostics_and_metrics_agree(self):
        parsable = []
        for case in NEGATIVE_CASES:
            try:
                program = parse_program(case.source)
            except Exception:
                continue
            reg = telemetry.enable()
            try:
                Checker(program).check_program()
                serial = None
            except TypeError_ as exc:
                serial = (type(exc).__name__, exc.message, exc.span)
            finally:
                telemetry.disable()
            parsable.append(
                (case, serial, {n: c.value for n, c in reg.counters.items()})
            )
        assert parsable, "negative corpus should have parsable cases"

        with Pipeline(jobs=1) as serial_pipe, Pipeline(jobs=2) as par_pipe:
            for case, serial, counters in parsable:
                for pipeline in (serial_pipe, par_pipe):
                    reg = telemetry.enable()
                    result = pipeline.run(case.name, case.source)
                    telemetry.disable()
                    if serial is None:
                        assert result.ok
                    else:
                        cls, message, span = serial
                        error = result.error
                        assert not result.ok
                        assert error.stage == "check"
                        assert error.cls == cls
                        assert error.message == message
                        if span is not None:
                            assert error.span == (
                                span.start,
                                span.end,
                                span.line,
                                span.column,
                            )
                    assert _counters(reg) == counters


class TestPartialFailureDiscard:
    """A batch where one function fails check: worker metric documents
    past the failing function are discarded for serial parity, while
    trace events are kept (they describe what actually ran)."""

    # Sorted order: a_ok, m_bad, z_ok — serial checking stops at m_bad.
    BAD_MID = """
def a_ok(x : int) : int { x + 1 }
def m_bad(x : int) : int { missing }
def z_ok(x : int) : int { x + 2 }
"""

    def _serial_counters(self):
        reg = telemetry.enable()
        try:
            Checker(parse_program(self.BAD_MID)).check_program()
        except TypeError_:
            pass
        finally:
            telemetry.disable()
        return {n: c.value for n, c in reg.counters.items()}

    def test_metric_docs_past_failure_are_discarded(self):
        baseline = self._serial_counters()
        reg = telemetry.enable()
        with Pipeline(jobs=2) as pipeline:
            result = pipeline.run("bad-mid", self.BAD_MID)
        telemetry.disable()
        assert not result.ok and result.error.stage == "check"
        merged = _counters(reg)
        for name, value in baseline.items():
            assert merged.get(name) == value, name
        # The parallel run checked z_ok and could have verified a_ok, but
        # none of that work may leak into the merged counters.
        assert not any(n.startswith("verifier.") for n in merged)

    def test_trace_events_survive_the_metric_discard(self):
        import os

        tr = telemetry.Tracer(capacity=4096)
        with telemetry.use_tracer(tr):
            with Pipeline(jobs=2) as pipeline:
                result = pipeline.run("bad-mid", self.BAD_MID)
        assert not result.ok
        events = tr.events()
        root = next(e for e in events if e["name"] == "pipeline.program")
        worker = [e for e in events if e["name"].startswith("pipeline.func.")]
        # Worker spans from other processes stitched under this trace —
        # including work the metric merge discarded.
        assert worker, "worker spans must be ingested"
        assert all(e["pid"] != os.getpid() for e in worker)
        assert all(
            e["args"]["trace_id"] == root["args"]["trace_id"] for e in worker
        )
        assert all(
            e["args"]["parent_id"] == root["args"]["span_id"] for e in worker
        )


class TestBatchCli:
    def test_cold_and_warm_stdout_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "batch",
            str(CORPUS_DIR / "sll.fcl"),
            str(CORPUS_DIR / "dll.fcl"),
            "--jobs",
            "1",
            "--cache",
            cache,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out
        assert "OK" in cold.out and "batch: 2/2 programs OK" in cold.out
        assert "misses=19" in cold.err
        assert "hits=19" in warm.err

    def test_directory_discovery_skips_support_python(self, tmp_path):
        (tmp_path / "good.fcl").write_text(SOURCE)
        (tmp_path / "helper.py").write_text("x = 1\n")
        (tmp_path / "embedded.py").write_text(f'SOURCE = """{SOURCE}"""\n')
        found = dict(discover([str(tmp_path)]))
        assert set(found) == {
            str(tmp_path / "good.fcl"),
            str(tmp_path / "embedded.py"),
        }

    def test_rejection_exit_code_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcl"
        bad.write_text(NEGATIVE_CASES[0].source)
        assert main(["batch", str(bad), "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "batch: 0/1 programs OK" in out

    def test_trust_cache_requires_cache(self):
        with pytest.raises(SystemExit):
            main(["batch", str(CORPUS_DIR / "sll.fcl"), "--trust-cache"])


class TestCheckVerifyCliParity:
    def test_check_output_matches_legacy(self, tmp_path, capsys):
        path = tmp_path / "p.fcl"
        path.write_text(SOURCE)
        assert main(["check", str(path)]) == 0
        legacy = capsys.readouterr().out
        assert main(["check", str(path), "--jobs", "2"]) == 0
        assert capsys.readouterr().out == legacy

    def test_verify_output_matches_legacy_warm_or_cold(self, tmp_path, capsys):
        path = tmp_path / "p.fcl"
        path.write_text(SOURCE)
        assert main(["verify", str(path)]) == 0
        legacy = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        for _ in range(2):  # cold, then warm
            assert main(["verify", str(path), "--jobs", "1", "--cache", cache]) == 0
            assert capsys.readouterr().out == legacy

    def test_check_diagnostics_match_legacy(self, tmp_path, capsys):
        path = tmp_path / "bad.fcl"
        path.write_text(NEGATIVE_CASES[0].source)
        assert main(["check", str(path)]) == 1
        legacy = capsys.readouterr().err
        assert main(["check", str(path), "--jobs", "1"]) == 1
        assert capsys.readouterr().err == legacy


def _fake_bench_doc():
    return {
        "schema": "repro-bench/1",
        "label": "A",
        "corpus": [
            {"name": "sll", "functions": 11, "check_ms": 10.0, "verify_ms": 40.0}
        ],
        "generated": [{"chain": 5, "check_ms": 3.0}],
        "search": [{"width": 1, "greedy_ms": 0.08, "search_ms": 0.15}],
        "erasure": [
            {"workload": "sll-traverse", "checked_ms": 3.0, "erased_ms": 2.5}
        ],
    }


class TestBenchCompare:
    def test_identical_docs_have_no_regressions(self):
        doc = _fake_bench_doc()
        cmp = compare_docs(doc, copy.deepcopy(doc))
        assert cmp["regressions"] == []
        assert any(m["metric"] == "check_ms" for m in cmp["metrics"])

    def test_slowdown_beyond_threshold_is_flagged(self):
        old, new = _fake_bench_doc(), _fake_bench_doc()
        new["corpus"][0]["check_ms"] = 100.0
        cmp = compare_docs(old, new, threshold=50.0)
        assert len(cmp["regressions"]) == 1
        reg = cmp["regressions"][0]
        assert (reg["section"], reg["row"], reg["metric"]) == (
            "corpus",
            "sll",
            "check_ms",
        )

    def test_submillisecond_noise_is_never_flagged(self):
        old, new = _fake_bench_doc(), _fake_bench_doc()
        new["search"][0]["greedy_ms"] = 0.9  # 11x, but both sides < 1 ms
        cmp = compare_docs(old, new, threshold=50.0)
        assert cmp["regressions"] == []

    def test_rows_only_on_one_side_are_skipped(self):
        old, new = _fake_bench_doc(), _fake_bench_doc()
        new["pipeline"] = [
            {"workload": "corpus", "serial_ms": 1.0, "trusted_ms": 0.1}
        ]
        new["corpus"].append({"name": "extra", "check_ms": 5.0})
        cmp = compare_docs(old, new)
        assert all(m["row"] != "extra" for m in cmp["metrics"])
        assert all(m["section"] != "pipeline" for m in cmp["metrics"])

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError):
            compare_docs({"schema": "other"}, _fake_bench_doc())

    def test_committed_reports_compare_clean(self):
        root = Path(__file__).parent.parent
        old = json.loads((root / "BENCH_PR2.json").read_text())
        new = json.loads((root / "BENCH_PR4.json").read_text())
        # Generous threshold: this asserts comparability across versions,
        # not machine-specific speed.
        cmp = compare_docs(old, new, threshold=10_000.0)
        assert cmp["metrics"], "reports must share comparable rows"
        assert cmp["regressions"] == []

    def test_serve_load_rows_compare_by_target(self):
        root = Path(__file__).parent.parent
        old = json.loads((root / "BENCH_PR8.json").read_text())
        new = json.loads((root / "BENCH_PR10.json").read_text())
        cmp = compare_docs(old, new, threshold=25.0)
        flagged = {
            (m["row"], m["metric"])
            for m in cmp["regressions"]
            if m["section"] == "serve_load.throughput"
        }
        # fleet-1 fell 748.1 -> 523.8 rps (-30%), its p50 rose 260.5 ->
        # 355.9 ms (+37%); throughput regresses when it falls.
        assert ("fleet-1", "throughput_rps") in flagged
        assert ("fleet-1", "p50_ms") in flagged
        # single-process fell only 7% (920.9 -> 859.5 rps).
        assert ("single-process", "throughput_rps") not in flagged
        rows = {
            (m["row"], m["metric"]): m for m in cmp["metrics"]
        }
        assert rows[("fleet-1", "throughput_rps")]["delta_pct"] == -30.0


class TestFuzzJobsParity:
    def test_fixed_seed_report_identical_under_jobs(self):
        base = dict(seed=11, budget=12, schedules=1, enumerate_limit=20)
        serial = run_campaign(FuzzConfig(**base))
        pooled = run_campaign(FuzzConfig(**base, jobs=2))
        serial.pop("wall_ms")
        pooled.pop("wall_ms")
        assert serial == pooled

    def test_injected_bug_still_caught_under_jobs(self):
        report = run_campaign(
            FuzzConfig(
                seed=3,
                budget=20,
                schedules=1,
                enumerate_limit=20,
                inject_bug="send-keeps-region",
                stop_after=1,
                shrink=False,
                jobs=2,
            )
        )
        assert report["violations"]
        assert report["violations"][0]["oracle"] == "verifier"


class TestSessionSharing:
    def test_checker_and_verifier_share_the_functype_table(self):
        session = ProgramSession(SOURCE)
        assert session.verifier.functypes is session.checker.functypes

    def test_verify_source_accepts_preparsed_program(self):
        from repro.verifier.verifier import verify_source

        program = parse_program(SOURCE)
        assert verify_source(SOURCE, program=program) > 0
