"""In-memory spans recorded by the benchmark around its calls into each
layer, exported as a ``repro-trace/1`` Chrome trace document (the shape
``repro trace`` writes; Perfetto and chrome://tracing open it).

Span names follow the program's own where it has one (``api.verify``,
``check.program``, ``verify.program``, ``machine.run``, ``rpc.<method>``,
``server.<method>``); ``lang.parse``, ``core.elaborate``, ``ir.compile``
and ``api.render`` name the layers that have none yet.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Span name -> the layer whose self time it counts toward.
LAYER_OF = {
    "lang.parse": "lang",
    "core.elaborate": "core",
    "check.program": "core",
    "verify.program": "verifier",
    "ir.compile": "ir",
    "machine.run": "runtime",
    "api.verify": "api",
    "api.run": "api",
    "api.render": "api",
}


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    return name.split(".", 1)[0]


class Spans:
    """Spans of one process, kept in a list until :meth:`chrome`."""

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self._stack: List[int] = []
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Dict]:
        """Record ``name`` around a block; nested spans are its children.
        ``args`` of a root span (op id, kind, program) tag its subtree."""
        parent = self._stack[-1] if self._stack else None
        rec = {
            "name": name,
            "parent": parent,
            "root": self.records[parent]["root"] if parent is not None else len(self.records),
            "args": args,
            "start": 0.0,
            "dur": 0.0,
        }
        index = len(self.records)
        self.records.append(rec)
        self._stack.append(index)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["dur"] = time.perf_counter() - rec["start"]
            self._stack.pop()

    def add(self, name: str, start: float, dur: float, parent: Optional[int] = None, **args) -> int:
        """A span timed by the caller (perf_counter seconds), a root
        unless ``parent`` (a record index) is given; returns its index."""
        index = len(self.records)
        root = index if parent is None else self.records[parent]["root"]
        self.records.append(
            {"name": name, "parent": parent, "root": root, "args": args, "start": start, "dur": dur}
        )
        return index

    def self_times(self) -> List[float]:
        """Self time (s) of every record: its duration minus its
        children's."""
        own = [r["dur"] for r in self.records]
        for r in self.records:
            if r["parent"] is not None:
                own[r["parent"]] -= r["dur"]
        return own

    def chrome(self) -> Dict:
        pid, tid = os.getpid(), threading.get_ident()
        events = []
        for i, r in enumerate(self.records):
            root = self.records[r["root"]]
            events.append(
                {
                    "name": r["name"],
                    "cat": layer_of(r["name"]),
                    "ph": "X",
                    "ts": (self._wall0 + r["start"] - self._perf0) * 1e6,
                    "dur": r["dur"] * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "trace_id": f"{r['root']:016x}",
                        "span_id": f"{i:016x}",
                        "parent_id": None if r["parent"] is None else f"{r['parent']:016x}",
                        **{k: v for k, v in root["args"].items() if isinstance(v, (str, int, float))},
                    },
                }
            )
        events.sort(key=lambda e: e["ts"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": "repro-trace/1", "dropped": 0},
        }


def layer_self_times(spans: Spans, where) -> Dict[str, float]:
    """Total self time (s) per layer over the records whose root's args
    satisfy ``where``."""
    own = spans.self_times()
    out: Dict[str, float] = {}
    for i, r in enumerate(spans.records):
        if where(spans.records[r["root"]]["args"]):
            layer = layer_of(r["name"])
            out[layer] = out.get(layer, 0.0) + own[i]
    return out


def durations(spans: Spans, name: str, where=None) -> List[float]:
    """Durations (ms) of every ``name`` span whose root matches."""
    out = []
    for r in spans.records:
        if r["name"] != name:
            continue
        root = spans.records[r["root"]]
        if where is None or where(root["args"]):
            out.append(r["dur"] * 1000.0)
    return out
