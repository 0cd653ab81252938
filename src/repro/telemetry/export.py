"""Structured export of a telemetry :class:`Registry`.

``registry_to_doc`` produces a plain-dict document (schema
``repro-telemetry/2``, see ``benchmarks/metrics.schema.json``);
``doc_to_registry`` reconstructs an equivalent registry, so exports round
trip.  ``doc_to_registry`` and ``merge_doc`` accept ``/2`` documents only;
the bucketless ``/1`` format is no longer read.  ``render_table`` is the
human-facing form used by ``repro stats``; ``render_prometheus`` is the
text exposition served through the daemon's ``metrics`` RPC
(``repro client metrics --prom``).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Optional, Tuple

from .registry import BUCKET_BOUNDS, Histogram, Registry, SpanStats

SCHEMA = "repro-telemetry/2"

#: Schemas ``doc_to_registry``/``merge_doc`` accept.
ACCEPTED_SCHEMAS = (SCHEMA,)


def _check_schema(doc: Dict[str, Any]) -> None:
    if doc.get("schema") not in ACCEPTED_SCHEMAS:
        raise ValueError(f"unsupported telemetry schema {doc.get('schema')!r}")


def registry_to_doc(reg: Registry) -> Dict[str, Any]:
    """A JSON-able document with every counter, gauge, histogram, span."""
    spans = []
    for (name, parent), stats in sorted(
        reg.spans.items(), key=lambda item: (item[0][1] or "", item[0][0])
    ):
        spans.append(
            {
                "name": name,
                "parent": parent,
                "depth": stats.depth,
                "count": stats.count,
                "total_ms": stats.total_ms,
                "min_ms": stats.min_ms,
                "max_ms": stats.max_ms,
            }
        )
    return {
        "schema": SCHEMA,
        "counters": {
            name: counter.value for name, counter in sorted(reg.counters.items())
        },
        "gauges": {
            name: gauge.value for name, gauge in sorted(reg.gauges.items())
        },
        "histograms": {
            name: {
                "count": hist.count,
                "total": hist.total,
                "min": hist.min,
                "max": hist.max,
                "mean": hist.mean,
                "buckets": list(hist.buckets),
            }
            for name, hist in sorted(reg.histograms.items())
        },
        "spans": spans,
    }


def doc_to_registry(doc: Dict[str, Any]) -> Registry:
    """Rebuild a registry from an exported document (inverse of
    :func:`registry_to_doc` up to histogram mean, which is derived)."""
    _check_schema(doc)
    reg = Registry(enabled=True)
    for name, value in doc.get("counters", {}).items():
        reg.counter(name).value = int(value)
    for name, value in doc.get("gauges", {}).items():
        reg.gauge(name).value = float(value)
    for name, summary in doc.get("histograms", {}).items():
        hist = reg.histogram(name)
        hist.count = int(summary["count"])
        hist.total = float(summary["total"])
        hist.min = summary["min"]
        hist.max = summary["max"]
        buckets = summary.get("buckets")
        if isinstance(buckets, list) and len(buckets) == len(hist.buckets):
            hist.buckets = [int(n) for n in buckets]
    for entry in doc.get("spans", []):
        key: Tuple[str, Optional[str]] = (entry["name"], entry.get("parent"))
        stats = SpanStats(entry["name"], entry.get("parent"), int(entry["depth"]))
        stats.count = int(entry["count"])
        stats.total_ms = float(entry["total_ms"])
        stats.min_ms = entry.get("min_ms")
        stats.max_ms = entry.get("max_ms")
        reg.spans[key] = stats
    return reg


def merge_doc(reg: Registry, doc: Dict[str, Any]) -> Registry:
    """Fold an exported document into ``reg`` in place (and return it).

    Counters add; gauges take the max envelope (every migrated gauge —
    queue depth, starvation high-water, last seed — reads correctly under
    max, and summing a level is always wrong); histograms combine
    count/total, take the min/max envelope, and add bucket counts
    elementwise (skipped when an incoming histogram has no buckets or a
    different bucket layout — quantiles then degrade to the min/max
    interpolation, summaries stay exact); span stats combine per
    ``(name, parent)`` key.  This is how the pipeline folds each worker
    process's registry back into the parent so ``--metrics-json`` stays
    truthful under ``--jobs N``: every checker/verifier counter reads the
    same as a serial run, with parallelism visible only through the
    ``pipeline.*`` metrics and the span timings.
    """
    _check_schema(doc)
    for name, value in doc.get("counters", {}).items():
        reg.counter(name).value += int(value)
    for name, value in doc.get("gauges", {}).items():
        reg.gauge(name).set_max(float(value))
    for name, summary in doc.get("histograms", {}).items():
        hist = reg.histogram(name)
        hist.count += int(summary["count"])
        hist.total += float(summary["total"])
        for attr, pick in (("min", min), ("max", max)):
            incoming = summary.get(attr)
            if incoming is None:
                continue
            current = getattr(hist, attr)
            setattr(
                hist,
                attr,
                incoming if current is None else pick(current, incoming),
            )
        buckets = summary.get("buckets")
        if isinstance(buckets, list) and len(buckets) == len(hist.buckets):
            hist.buckets = [a + int(b) for a, b in zip(hist.buckets, buckets)]
    for entry in doc.get("spans", []):
        key: Tuple[str, Optional[str]] = (entry["name"], entry.get("parent"))
        stats = reg.spans.get(key)
        if stats is None:
            stats = reg.spans[key] = SpanStats(
                entry["name"], entry.get("parent"), int(entry["depth"])
            )
        stats.count += int(entry["count"])
        stats.total_ms += float(entry["total_ms"])
        for attr, pick in (("min_ms", min), ("max_ms", max)):
            incoming = entry.get(attr)
            if incoming is None:
                continue
            current = getattr(stats, attr)
            setattr(
                stats,
                attr,
                incoming if current is None else pick(current, incoming),
            )
    return reg


def export_json(reg: Registry, indent: int = 1, failures=None) -> str:
    """Serialize ``reg`` as a ``repro-telemetry/2`` document.

    ``failures`` is an optional sequence of :class:`repro.api.Diagnostic`
    records (or their dicts); when non-empty they ride along as the
    document's ``failures`` array so machine consumers get structured
    error records instead of scraping stderr.  Failure-free exports are
    byte-identical to previous releases.
    """
    doc = registry_to_doc(reg)
    if failures:
        doc["failures"] = [
            item if isinstance(item, dict) else item.to_dict()
            for item in failures
        ]
    return json.dumps(doc, indent=indent, sort_keys=False)


def load_json(text: str) -> Registry:
    return doc_to_registry(json.loads(text))


def render_table(reg: Registry) -> str:
    """The metrics table printed by ``repro stats``."""
    lines = []
    if reg.counters:
        lines.append("counters")
        width = max(len(name) for name in reg.counters)
        for name in sorted(reg.counters):
            lines.append(f"  {name:<{width}s}  {reg.counters[name].value:>10d}")
    if reg.gauges:
        lines.append("gauges")
        width = max(len(name) for name in reg.gauges)
        for name in sorted(reg.gauges):
            lines.append(f"  {name:<{width}s}  {reg.gauges[name].value:>10g}")
    if reg.histograms:
        lines.append("histograms")
        width = max(len(name) for name in reg.histograms)
        for name in sorted(reg.histograms):
            hist = reg.histograms[name]
            lines.append(
                f"  {name:<{width}s}  n={hist.count:<6d} mean={hist.mean:10.3f} "
                f"min={_num(hist.min):>10s} max={_num(hist.max):>10s}"
            )
    if reg.spans:
        lines.append("spans")
        for (name, parent), stats in sorted(
            reg.spans.items(), key=lambda item: (item[1].depth, item[0][1] or "", item[0][0])
        ):
            indent = "  " * (stats.depth + 1)
            lines.append(
                f"{indent}{name}  n={stats.count} total={stats.total_ms:.2f}ms"
                + (f"  (under {parent})" if parent else "")
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "repro_" + _PROM_BAD.sub("_", name)


def render_prometheus(reg: Registry) -> str:
    """Prometheus text exposition (format version 0.0.4) of the registry:
    counters, gauges, and histograms with cumulative ``le`` buckets.
    Spans are aggregates with a composite key and have no natural
    Prometheus shape; scrape the JSON document for those."""
    lines = []
    for name in sorted(reg.counters):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {reg.counters[name].value}")
    for name in sorted(reg.gauges):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_num(reg.gauges[name].value)}")
    for name in sorted(reg.histograms):
        hist = reg.histograms[name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(BUCKET_BOUNDS, hist.buckets):
            cumulative += count
            lines.append(f'{prom}_bucket{{le="{_prom_num(bound)}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{prom}_sum {_prom_num(hist.total)}")
        lines.append(f"{prom}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_num(value: float) -> str:
    return f"{value:g}"


def _num(value) -> str:
    return "-" if value is None else f"{value:.3f}"
