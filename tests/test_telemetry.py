"""Telemetry subsystem tests: registry primitives, the disabled fast path,
the JSON exporter round trip, the schema validator, and the checker /
runtime / verifier instrumentation."""

import json

import pytest

from repro import telemetry
from repro.core.checker import Checker
from repro.lang import parse_program
from repro.pipeline import Pipeline
from repro.runtime.heap import Heap
from repro.runtime.machine import run_function
from repro.telemetry import (
    BUCKET_BOUNDS,
    Registry,
    SchemaError,
    doc_to_registry,
    export_json,
    load_json,
    merge_doc,
    registry_to_doc,
    render_prometheus,
    render_table,
    validate,
)

SOURCE = """
struct data { v : int; }
def make(n : int) : data { new data(v = n) }
def main() : int { let d = make(7); d.v }
"""


@pytest.fixture(autouse=True)
def _clean_global_registry():
    yield
    telemetry.disable()


class TestCounters:
    def test_inc_and_value(self):
        reg = Registry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.value("a") == 5
        assert reg.value("never") == 0

    def test_disabled_registry_records_nothing(self):
        reg = Registry(enabled=False)
        reg.inc("a")
        reg.observe("h", 1.0)
        with reg.time("t"):
            pass
        with reg.span("s"):
            pass
        assert not reg.counters and not reg.histograms and not reg.spans

    def test_default_global_registry_is_disabled(self):
        assert telemetry.registry().enabled is False


class TestHistograms:
    def test_observe_summary(self):
        reg = Registry()
        for v in (2.0, 8.0, 5.0):
            reg.observe("h", v)
        hist = reg.histogram("h")
        assert hist.count == 3
        assert hist.min == 2.0 and hist.max == 8.0
        assert hist.mean == pytest.approx(5.0)

    def test_timer_feeds_histogram(self):
        reg = Registry()
        with reg.time("t"):
            pass
        hist = reg.histogram("t")
        assert hist.count == 1 and hist.total >= 0.0


class TestGauges:
    def test_set_inc_dec(self):
        reg = Registry()
        reg.set_gauge("g", 5.0)
        assert reg.gauge_value("g") == 5.0
        reg.gauge("g").inc(2.0)
        reg.gauge("g").dec(4.0)
        assert reg.gauge_value("g") == 3.0
        assert reg.gauge_value("never") == 0.0

    def test_set_max_is_high_water(self):
        reg = Registry()
        reg.set_gauge_max("hw", 10.0)
        reg.set_gauge_max("hw", 3.0)
        assert reg.gauge_value("hw") == 10.0
        reg.set_gauge_max("hw", 12.0)
        assert reg.gauge_value("hw") == 12.0

    def test_disabled_registry_records_no_gauges(self):
        reg = Registry(enabled=False)
        reg.set_gauge("g", 1.0)
        reg.set_gauge_max("g", 2.0)
        assert not reg.gauges

    def test_gauges_round_trip_through_export(self):
        reg = Registry()
        reg.set_gauge("machine.seed", 13.0)
        back = load_json(export_json(reg))
        assert back.gauge_value("machine.seed") == 13.0


class TestQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        assert Registry().histogram("h").quantile(0.5) is None

    def test_bucketed_estimate_is_clamped_to_observations(self):
        reg = Registry()
        for v in (1.0, 2.0, 3.0, 4.0, 100.0):
            reg.observe("h", v)
        hist = reg.histogram("h")
        p50 = hist.quantile(0.5)
        p99 = hist.quantile(0.99)
        assert 1.0 <= p50 <= 4.0
        assert p50 <= p99 <= 100.0
        assert hist.quantile(1.0) == 100.0

    def test_bucketless_doc_falls_back_to_minmax_interpolation(self):
        # A histogram without buckets covering every observation (here
        # none at all) cannot place its quantiles: min/max line.
        doc = {
            "schema": "repro-telemetry/2",
            "counters": {},
            "histograms": {
                "h": {"count": 4, "total": 20.0, "min": 2.0, "max": 8.0,
                      "mean": 5.0},
            },
            "spans": [],
        }
        hist = doc_to_registry(doc).histogram("h")
        assert hist.quantile(0.0) == pytest.approx(2.0)
        assert hist.quantile(0.5) == pytest.approx(5.0)
        assert hist.quantile(1.0) == pytest.approx(8.0)


class TestSpans:
    def test_nesting_aggregates_per_parent(self):
        reg = Registry()
        for _ in range(2):
            with reg.span("outer"):
                with reg.span("inner"):
                    pass
        with reg.span("inner"):  # same name, no parent: separate bucket
            pass
        outer = reg.spans[("outer", None)]
        nested = reg.spans[("inner", "outer")]
        top = reg.spans[("inner", None)]
        assert outer.count == 2 and outer.depth == 0
        assert nested.count == 2 and nested.depth == 1
        assert top.count == 1 and top.depth == 0
        assert nested.total_ms <= outer.total_ms

    def test_span_stack_unwinds_on_error(self):
        reg = Registry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                raise RuntimeError("boom")
        assert reg._span_stack == []
        assert reg.spans[("outer", None)].count == 1


class TestGlobalSwap:
    def test_enable_installs_fresh_registry(self):
        first = telemetry.enable()
        first.inc("x")
        second = telemetry.enable()
        assert telemetry.registry() is second
        assert second.value("x") == 0

    def test_use_restores_previous(self):
        mine = Registry()
        with telemetry.use(mine):
            telemetry.registry().inc("k")
        assert mine.value("k") == 1
        assert telemetry.registry().enabled is False


class TestExport:
    def _populated(self):
        reg = Registry()
        reg.inc("c", 3)
        reg.set_gauge("g", 4.0)
        reg.observe("h", 1.5)
        reg.observe("h", 2.5)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        return reg

    def test_round_trip(self):
        reg = self._populated()
        back = load_json(export_json(reg))
        assert registry_to_doc(back) == registry_to_doc(reg)

    def test_doc_shape(self):
        doc = registry_to_doc(self._populated())
        assert doc["schema"] == "repro-telemetry/2"
        assert doc["counters"] == {"c": 3}
        assert doc["gauges"] == {"g": 4.0}
        assert doc["histograms"]["h"]["mean"] == pytest.approx(2.0)
        assert len(doc["histograms"]["h"]["buckets"]) == len(telemetry.BUCKET_BOUNDS) + 1
        assert sum(doc["histograms"]["h"]["buckets"]) == 2
        assert [s["name"] for s in doc["spans"]] == ["outer", "inner"]

    def test_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            doc_to_registry({"schema": "somebody-else/9"})

    def test_render_table_lists_everything(self):
        text = render_table(self._populated())
        for needle in ("counters", "c", "histograms", "h", "spans", "inner"):
            assert needle in text
        assert render_table(Registry()) == "(no metrics recorded)"


class TestMergeDoc:
    """The worker-to-parent fold used by ``--jobs N`` (satellite: edge
    cases around histogram envelopes, gauge semantics, span stitching,
    and old-schema documents)."""

    def _doc(self, **overrides):
        doc = {
            "schema": "repro-telemetry/2",
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": [],
        }
        doc.update(overrides)
        return doc

    def test_counters_add_and_gauges_take_max(self):
        reg = Registry()
        reg.inc("c", 2)
        reg.set_gauge("g", 7.0)
        merge_doc(reg, self._doc(counters={"c": 3}, gauges={"g": 5.0}))
        merge_doc(reg, self._doc(gauges={"g": 9.0}))
        assert reg.value("c") == 5
        assert reg.gauge_value("g") == 9.0

    def test_histogram_minmax_envelope(self):
        reg = Registry()
        reg.observe("h", 5.0)
        summary = {"count": 2, "total": 12.0, "min": 2.0, "max": 10.0,
                   "mean": 6.0, "buckets": [0] * (len(BUCKET_BOUNDS) + 1)}
        summary["buckets"][3] = 2
        merge_doc(reg, self._doc(histograms={"h": summary}))
        hist = reg.histogram("h")
        assert hist.count == 3
        assert hist.total == pytest.approx(17.0)
        assert hist.min == 2.0 and hist.max == 10.0
        assert sum(hist.buckets) == 3

    def test_histogram_none_minmax_does_not_clobber(self):
        reg = Registry()
        reg.observe("h", 4.0)
        summary = {"count": 0, "total": 0.0, "min": None, "max": None,
                   "mean": 0.0, "buckets": [0] * (len(BUCKET_BOUNDS) + 1)}
        merge_doc(reg, self._doc(histograms={"h": summary}))
        hist = reg.histogram("h")
        assert hist.min == 4.0 and hist.max == 4.0

    def test_v1_doc_is_rejected(self):
        # repro-telemetry/1 (no gauges, no buckets) is no longer read.
        old = {
            "schema": "repro-telemetry/1",
            "counters": {"c": 1},
            "histograms": {},
            "spans": [],
        }
        with pytest.raises(ValueError, match="repro-telemetry/1"):
            merge_doc(Registry(), old)
        with pytest.raises(ValueError, match="repro-telemetry/1"):
            doc_to_registry(old)

    def test_mismatched_bucket_layout_is_skipped(self):
        reg = Registry()
        summary = {"count": 1, "total": 1.0, "min": 1.0, "max": 1.0,
                   "mean": 1.0, "buckets": [1, 0]}  # foreign layout
        merge_doc(reg, self._doc(histograms={"h": summary}))
        hist = reg.histogram("h")
        assert hist.count == 1
        assert sum(hist.buckets) == 0  # not folded in

    def test_span_parent_stitching_across_worker_docs(self):
        """Two worker docs reporting the same (name, parent) key must
        land in one aggregate; a same-named root span stays separate."""
        reg = Registry()
        worker = self._doc(spans=[
            {"name": "check.fn.f", "parent": "check.program", "depth": 1,
             "count": 2, "total_ms": 4.0, "min_ms": 1.0, "max_ms": 3.0},
        ])
        other = self._doc(spans=[
            {"name": "check.fn.f", "parent": "check.program", "depth": 1,
             "count": 1, "total_ms": 6.0, "min_ms": 6.0, "max_ms": 6.0},
            {"name": "check.fn.f", "parent": None, "depth": 0,
             "count": 1, "total_ms": 1.0, "min_ms": 1.0, "max_ms": 1.0},
        ])
        merge_doc(reg, worker)
        merge_doc(reg, other)
        nested = reg.spans[("check.fn.f", "check.program")]
        assert nested.count == 3
        assert nested.total_ms == pytest.approx(10.0)
        assert nested.min_ms == 1.0 and nested.max_ms == 6.0
        root = reg.spans[("check.fn.f", None)]
        assert root.count == 1

    def test_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            merge_doc(Registry(), {"schema": "somebody-else/9"})


class TestPrometheus:
    def test_counter_gauge_histogram_exposition(self):
        reg = Registry()
        reg.inc("server.requests.check.ok", 3)
        reg.set_gauge("server.queue_depth", 2.0)
        reg.observe("server.latency_ms", 0.3)
        reg.observe("server.latency_ms", 40.0)
        text = render_prometheus(reg)
        assert "# TYPE repro_server_requests_check_ok counter" in text
        assert "repro_server_requests_check_ok 3" in text
        assert "# TYPE repro_server_queue_depth gauge" in text
        assert "repro_server_queue_depth 2" in text
        assert "# TYPE repro_server_latency_ms histogram" in text
        assert 'repro_server_latency_ms_bucket{le="+Inf"} 2' in text
        assert "repro_server_latency_ms_sum 40.3" in text
        assert "repro_server_latency_ms_count 2" in text

    def test_buckets_are_cumulative(self):
        reg = Registry()
        reg.observe("h", 0.02)  # first real bucket (0.025)
        reg.observe("h", 0.02)
        reg.observe("h", 9999.0)  # last bounded bucket (10000)
        text = render_prometheus(reg)
        assert 'repro_h_bucket{le="0.025"} 2' in text
        assert 'repro_h_bucket{le="10000"} 3' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(Registry()) == ""


class TestThreadSafety:
    def test_concurrent_mutation_loses_nothing(self):
        import threading

        reg = Registry()
        n_threads, n_iter = 8, 500

        def work():
            for _ in range(n_iter):
                reg.inc("c")
                reg.observe("h", 1.0)
                reg.set_gauge_max("g", 1.0)
                with reg.span("s"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("c") == n_threads * n_iter
        assert reg.histogram("h").count == n_threads * n_iter
        assert sum(reg.histogram("h").buckets) == n_threads * n_iter
        assert reg.spans[("s", None)].count == n_threads * n_iter

    def test_span_stacks_are_thread_local(self):
        import threading

        reg = Registry()
        barrier = threading.Barrier(2)

        def work(name):
            with reg.span(name):
                barrier.wait()  # both threads inside their span at once
                with reg.span("inner"):
                    pass

        threads = [
            threading.Thread(target=work, args=(f"outer{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Each inner span nests under its own thread's outer span.
        assert reg.spans[("inner", "outer0")].count == 1
        assert reg.spans[("inner", "outer1")].count == 1


class TestSchemaValidator:
    def _schema(self):
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "metrics.schema.json"
        return json.loads(path.read_text())

    def test_valid_export_passes(self):
        reg = Registry()
        reg.inc("c")
        reg.observe("h", 1.0)
        with reg.span("s"):
            pass
        validate(json.loads(export_json(reg)), self._schema())

    def test_bad_counter_type_rejected(self):
        doc = registry_to_doc(Registry())
        doc["counters"]["c"] = "three"
        with pytest.raises(SchemaError):
            validate(doc, self._schema())

    def test_missing_required_key_rejected(self):
        doc = registry_to_doc(Registry())
        del doc["spans"]
        with pytest.raises(SchemaError):
            validate(doc, self._schema())

    def test_extra_top_level_key_rejected(self):
        doc = registry_to_doc(Registry())
        doc["surprise"] = 1
        with pytest.raises(SchemaError):
            validate(doc, self._schema())


class TestParserInstrumentation:
    def test_parse_span_and_token_counter(self):
        from repro import api
        from repro.lang import tokenize

        reg = telemetry.enable()
        parse_program(SOURCE)
        assert reg.value("lang.tokens") == len(tokenize(SOURCE))
        assert reg.spans[("lang.parse", None)].count == 1
        # The facade's parse shows up as its own span too.
        api.check(SOURCE)
        assert reg.value("lang.tokens") == 2 * len(tokenize(SOURCE))
        assert sum(s.count for (name, _), s in reg.spans.items() if name == "lang.parse") == 2

    def test_disabled_parse_records_nothing(self):
        parse_program(SOURCE)
        reg = telemetry.registry()
        assert reg.counters == {} and reg.spans == {}


class TestCheckerInstrumentation:
    def test_rule_and_oracle_counters(self):
        program = parse_program(SOURCE)
        reg = telemetry.enable()
        Checker(program).check_program()
        assert reg.value("checker.functions") == 2
        assert reg.value("checker.rule.T0-Function-Definition") == 2
        assert reg.value("checker.rule.T10-New-Loc") == 1
        assert reg.value("checker.oracle.hits") >= 1
        assert reg.value("unify.greedy.calls") >= 1
        assert ("check.program", None) in reg.spans
        assert ("check.fn.main", "check.program") in reg.spans

    def test_disabled_checker_records_nothing(self):
        program = parse_program(SOURCE)
        Checker(program).check_program()
        assert telemetry.registry().counters == {}


class TestRuntimeInstrumentation:
    def test_run_function_counters(self):
        program = parse_program(SOURCE)
        reg = telemetry.enable()
        run_function(program, "main", heap=Heap())
        assert reg.value("machine.steps") > 0
        assert reg.value("machine.reservation_checks") > 0
        assert reg.value("machine.heap_reads") >= 1
        assert reg.value("machine.heap_objects") == 1
        assert ("machine.fn.main", None) in reg.spans

    def test_heap_traffic_is_a_delta(self):
        program = parse_program(SOURCE)
        heap = Heap()
        run_function(program, "main", heap=heap)  # telemetry off: warm heap
        reg = telemetry.enable()
        run_function(program, "main", heap=heap)
        # Only this run's single d.v read counted, not the warm-up's.
        assert reg.value("machine.heap_reads") == 1


class TestVerifierInstrumentation:
    def test_obligations_and_certificates(self, tmp_path):
        # The certificate-size histogram is observed where the pipeline
        # already holds the JSON, so this drives a cache-backed Pipeline.
        reg = telemetry.enable()
        with Pipeline(cache_dir=str(tmp_path)) as pipeline:
            assert pipeline.run("<test>", SOURCE).ok
        assert reg.value("verifier.certificates") == 2
        assert reg.value("verifier.obligations") > 0
        assert reg.value("verifier.steps_replayed") > 0
        cert = reg.histogram("verifier.certificate_bytes")
        assert cert.count == 2 and cert.min > 0
        assert ("verify.program", None) in reg.spans
