"""Destructive-read baseline for singly linked lists (experiment E6).

Global-domination systems without focus (§9.1) access a unique/iso field by
*destructively reading* it: the field is implicitly nulled so the invariant
is never observed broken, and must be written back afterwards.  For the
recursively linear list this means ``remove_tail`` performs **two heap
writes per node traversed** (null on the way down, restore on the way up) —
"a write to each list node traversed" (§1) — versus the O(1) writes of the
fearless version (fig 2).

The baseline operates directly on the shared :class:`~repro.runtime.heap.Heap`
over the corpus ``sll_node`` structs so both versions are measured with the
same heap write counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime.heap import Heap
from ..runtime.values import NONE, Loc, RuntimeValue, is_loc


@dataclass
class RemoveTailResult:
    payload: Optional[Loc]
    reads: int
    writes: int


def destructive_remove_tail(heap: Heap, node: Loc) -> RemoveTailResult:
    """remove_tail under the destructive-read discipline.

    Every traversal of an iso field nulls it (one write) and repairs it on
    the way back (another write).  Returns the detached payload and the
    read/write counts incurred.
    """
    reads0, writes0 = heap.reads, heap.writes
    payload = _remove_tail_rec(heap, node)
    return RemoveTailResult(
        payload=payload,
        reads=heap.reads - reads0,
        writes=heap.writes - writes0,
    )


def _destructive_read(heap: Heap, loc: Loc, fieldname: str) -> RuntimeValue:
    value = heap.read_field(loc, fieldname)
    heap.write_field(loc, fieldname, NONE)  # implicit null
    return value


def _remove_tail_rec(heap: Heap, node: Loc) -> Optional[Loc]:
    next_value = _destructive_read(heap, node, "next")
    if not is_loc(next_value):
        # node is the tail of a size-1 list; nothing to detach.
        heap.write_field(node, "next", next_value)
        return None
    next_next = heap.read_field(next_value, "next")
    if not is_loc(next_next):
        # next is the tail: detach its payload destructively.
        payload = _destructive_read(heap, next_value, "payload")
        heap.write_field(node, "next", NONE)
        return payload if is_loc(payload) else None
    result = _remove_tail_rec(heap, next_value)
    heap.write_field(node, "next", next_value)  # repair on the way up
    return result


def fearless_remove_tail(heap: Heap, program, node: Loc) -> RemoveTailResult:
    """The fig 2 version, executed by the FCL runtime on the same heap."""
    from ..runtime.machine import run_function

    reads0, writes0 = heap.reads, heap.writes
    result, _interp = run_function(program, "remove_tail", [node], heap=heap)
    return RemoveTailResult(
        payload=result if is_loc(result) else None,
        reads=heap.reads - reads0,
        writes=heap.writes - writes0,
    )
