"""Flattening the block IR into linear bytecode, and the compile cache.

Each function becomes a list of plain tuples ``(opcode, ...)`` with
branch targets resolved to instruction indices and call targets linked to
:class:`BytecodeFunc` objects directly (so recursion works and dispatch
never does a name lookup).  Generic ``unop``/``binop`` instructions are
specialized into per-operator opcodes here, which keeps the dispatch loop
an integer-compare ladder with trivial bodies.

Compiled modules are cached per ``(checked, observable)`` on the Program
object itself: the fuzzer and the bench harness compile each program at
most four times no matter how many runs they do.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import hashlib
import threading
from collections import OrderedDict

from ..lang import ast
from ..lang.pretty import pretty_program
from ..runtime.machine import MachineError
from ..telemetry import registry as _telemetry
from .cfg import liveness
from .lower import lower_function
from .nodes import Instr, IRFunction
from .passes import IRModule, default_pipeline

# Opcodes, roughly ordered by expected dynamic frequency.
OP_MOV = 0
OP_CONST = 1
OP_LOAD = 2
OP_BR = 3
OP_JMP = 4
OP_ADD = 5
OP_SUB = 6
OP_MUL = 7
OP_DIV = 8
OP_MOD = 9
OP_LT = 10
OP_GT = 11
OP_LE = 12
OP_GE = 13
OP_EQ = 14
OP_NE = 15
OP_AND = 16
OP_OR = 17
OP_NOT = 18
OP_NEG = 19
OP_ISNONE = 20
OP_ISSOME = 21
OP_CHECK = 22
OP_ASLOC = 23
OP_STORE = 24
OP_NEW = 25
OP_CALL = 26
OP_RET = 27
OP_SEND = 28
OP_SENDC = 29
OP_RECV = 30
OP_DISC = 31
# Observable full-tier ops: emit the trace event of an optimized-away heap
# access at its original position (tload/tstore), or read the heap without
# any event (sload, the preheader priming read).  These must stay below
# OP_BRLT — the dispatch loop routes every opcode >= OP_BRLT into the
# fused-branch family.
OP_TLOAD = 32
OP_TSTORE = 33
OP_SLOAD = 34
# Checked heap access: an ``asloc`` fused into the load/store it guards
# (flatten-time peephole).  One dispatch, identical check, identical
# error.  Must also stay below OP_BRLT.
OP_LOADV = 35
OP_STOREV = 36
# Fused compare-and-branch superinstructions (flatten-time fusion of a
# comparison feeding the block's br terminator whose result is dead at
# both targets).
OP_BRLT = 37
OP_BRGT = 38
OP_BRLE = 39
OP_BRGE = 40
OP_BREQ = 41
OP_BRNE = 42
OP_BRNONE = 43
OP_BRSOME = 44
# Calls with exactly one / two arguments: skip the generic copy loop.
OP_CALL1 = 45
OP_CALL2 = 46

_BINOPS = {
    "+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV, "%": OP_MOD,
    "<": OP_LT, ">": OP_GT, "<=": OP_LE, ">=": OP_GE,
    "==": OP_EQ, "!=": OP_NE, "&&": OP_AND, "||": OP_OR,
}

_CMP_FUSE = {
    "<": OP_BRLT, ">": OP_BRGT, "<=": OP_BRLE, ">=": OP_BRGE,
    "==": OP_BREQ, "!=": OP_BRNE,
}

# Planning marker: a `!cond` feeding a br becomes a plain BR with swapped
# targets rather than a new opcode.
_BR_SWAPPED = -1

OPCODE_NAMES = {
    value: name[3:].lower()
    for name, value in sorted(globals().items())
    if name.startswith("OP_")
}


class BytecodeFunc:
    """One flattened function: executable code plus a frame prototype."""

    __slots__ = ("name", "nparams", "nslots", "code", "blank")

    def __init__(self, name: str, nparams: int, nslots: int):
        self.name = name
        self.nparams = nparams
        self.nslots = nslots
        self.code: List[Tuple] = []
        self.blank: List = [None] * nslots


class CompiledModule:
    """All functions of one program compiled for one (checked, observable)
    configuration, plus the compile-time counters."""

    def __init__(self, checked: bool, observable: bool):
        self.checked = checked
        self.observable = observable
        self.funcs: Dict[str, BytecodeFunc] = {}
        self.counters: Dict[str, int] = {}


def flatten(fn: IRFunction, program: ast.Program, checked: bool) -> BytecodeFunc:
    out = BytecodeFunc(fn.name, fn.nparams, fn.nslots)
    for slot, value in fn.const_slots.items():
        out.blank[slot] = value
    code = out.code
    blocks = fn.block_map()
    # Fusion legality: the comparison's destination must be dead at both
    # branch targets, because the fused opcode never writes it.  (A plain
    # use count is not enough after register allocation — unrelated values
    # may share the slot, but sharing is only legal when this value is
    # dead, which is exactly what liveness reports.)
    live_in, _live_out = liveness(fn)

    # Planning pass: per block, decide whether the final comparison fuses
    # into the br (skipping the compare), whether a jmp to an instruction-
    # free ret block becomes the ret itself, or whether a fall-through jmp
    # is elided entirely.  Only forward fall-throughs are ever elided, so
    # every loop back-edge still crosses a budget-checking control op.
    fused: Dict[int, Tuple] = {}
    ret_dup: Dict[int, "BasicBlock"] = {}
    elided: Dict[int, bool] = {}
    for idx, block in enumerate(fn.blocks):
        term = block.term
        elided[block.label] = False
        if term is None:
            continue
        if term.op == "br" and block.instrs:
            last = block.instrs[-1]
            cond = term.args[0]
            if (
                last.dest == cond
                and cond not in live_in.get(term.args[1], ())
                and cond not in live_in.get(term.args[2], ())
            ):
                if last.op == "binop" and last.args[0] in _CMP_FUSE:
                    fused[block.label] = (
                        _CMP_FUSE[last.args[0]], last.args[1], last.args[2]
                    )
                elif last.op == "isnone":
                    fused[block.label] = (OP_BRNONE, last.args[0])
                elif last.op == "issome":
                    fused[block.label] = (OP_BRSOME, last.args[0])
                elif last.op == "unop" and last.args[0] == "!":
                    fused[block.label] = (_BR_SWAPPED, last.args[1])
        elif term.op == "jmp":
            target = blocks.get(term.args[0])
            if (
                target is not None
                and len(target.instrs) <= 2
                and target.term is not None
                and target.term.op == "ret"
            ):
                # Duplicate the tiny returning tail in place of the jmp.
                # A ret-terminated target cannot be a loop back-edge, so no
                # budget-checking control op is lost.
                ret_dup[block.label] = target
            else:
                elided[block.label] = (
                    idx + 1 < len(fn.blocks)
                    and fn.blocks[idx + 1].label == term.args[0]
                )

    # Peephole: fuse each ``asloc`` into the load/store of the same base
    # immediately following it.  Done before the offsets pass so branch
    # targets account for the shorter blocks.
    emits: Dict[int, List] = {}
    for block in fn.blocks:
        instrs = block.instrs
        if block.label in fused:
            instrs = instrs[:-1]
        emits[block.label] = _peephole(instrs)

    # First pass: block label → starting pc.
    offsets: Dict[int, int] = {}
    pc = 0
    for block in fn.blocks:
        offsets[block.label] = pc
        pc += len(emits[block.label])
        dup = ret_dup.get(block.label)
        if dup is not None:
            pc += len(emits[dup.label])
        if not elided[block.label] and block.term is not None:
            pc += 1
    # Second pass: emit.
    for block in fn.blocks:
        for ins in emits[block.label]:
            code.append(_encode(ins, program, checked))
        term = block.term
        if term is None or elided[block.label]:
            continue
        fuse = fused.get(block.label)
        if fuse is not None:
            t, f = offsets[term.args[1]], offsets[term.args[2]]
            if fuse[0] == _BR_SWAPPED:
                code.append((OP_BR, fuse[1], f, t))
            else:
                code.append(fuse + (t, f))
        elif term.op == "jmp":
            dup = ret_dup.get(block.label)
            if dup is not None:
                for ins in emits[dup.label]:
                    code.append(_encode(ins, program, checked))
                code.append((OP_RET, dup.term.args[0]))
            else:
                code.append((OP_JMP, offsets[term.args[0]]))
        elif term.op == "br":
            code.append(
                (OP_BR, term.args[0], offsets[term.args[1]],
                 offsets[term.args[2]])
            )
        else:  # ret
            code.append((OP_RET, term.args[0]))
    return out


def _peephole(instrs: List[Instr]) -> List[Instr]:
    """Fuse ``asloc s`` into an immediately following load/store based on
    ``s``.  The fused opcode performs the identical reference check before
    touching the heap, so errors and their messages are unchanged."""
    out: List[Instr] = []
    i = 0
    n = len(instrs)
    while i < n:
        ins = instrs[i]
        if ins.op == "asloc" and i + 1 < n:
            nxt = instrs[i + 1]
            if nxt.op == "load" and nxt.args[0] == ins.args[0]:
                out.append(Instr("loadv", nxt.dest, nxt.args[0], nxt.args[1]))
                i += 2
                continue
            if nxt.op == "store" and nxt.args[0] == ins.args[0]:
                out.append(Instr("storev", None, *nxt.args))
                i += 2
                continue
        out.append(ins)
        i += 1
    return out


def _encode(ins, program: ast.Program, checked: bool) -> Tuple:
    op = ins.op
    if op == "mov":
        return (OP_MOV, ins.dest, ins.args[0])
    if op == "const":
        return (OP_CONST, ins.dest, ins.args[0])
    if op == "load":
        return (OP_LOAD, ins.dest, ins.args[0], ins.args[1])
    if op == "loadv":
        return (OP_LOADV, ins.dest, ins.args[0], ins.args[1])
    if op == "storev":
        return (OP_STOREV, ins.args[0], ins.args[1], ins.args[2])
    if op == "tload":
        return (OP_TLOAD, ins.dest, ins.args[0], ins.args[1], ins.args[2])
    if op == "tstore":
        return (OP_TSTORE, ins.dest, ins.args[0], ins.args[1], ins.args[2])
    if op == "sload":
        return (OP_SLOAD, ins.dest, ins.args[0], ins.args[1])
    if op == "binop":
        bop, l, r = ins.args
        return (_BINOPS[bop], ins.dest, l, r)
    if op == "unop":
        uop, s = ins.args
        return (OP_NOT if uop == "!" else OP_NEG, ins.dest, s)
    if op == "isnone":
        return (OP_ISNONE, ins.dest, ins.args[0])
    if op == "issome":
        return (OP_ISSOME, ins.dest, ins.args[0])
    if op == "check":
        return (OP_CHECK, ins.args[0])
    if op == "asloc":
        return (OP_ASLOC, ins.args[0])
    if op == "store":
        return (OP_STORE, ins.args[0], ins.args[1], ins.args[2])
    if op == "new":
        sdef = program.struct(ins.args[0])
        return (OP_NEW, ins.dest, sdef, ins.args[1], ins.args[2])
    if op == "call":
        # The callee name is patched to the BytecodeFunc object in _link.
        if len(ins.args[1]) == 1:
            return (OP_CALL1, ins.dest, ins.args[0], ins.args[1][0])
        if len(ins.args[1]) == 2:
            return (OP_CALL2, ins.dest, ins.args[0],
                    ins.args[1][0], ins.args[1][1])
        return (OP_CALL, ins.dest, ins.args[0], ins.args[1])
    if op == "send":
        return (OP_SENDC if checked else OP_SEND, ins.dest, ins.args[0])
    if op == "recv":
        return (OP_RECV, ins.dest, ins.args[0])
    if op == "disc":
        return (OP_DISC, ins.dest, ins.args[0], ins.args[1])
    raise MachineError(f"cannot flatten IR op {op!r}")


def _link(module: CompiledModule) -> None:
    for func in module.funcs.values():
        for idx, ins in enumerate(func.code):
            if ins[0] in (OP_CALL, OP_CALL1, OP_CALL2):
                func.code[idx] = (
                    ins[:2] + (module.funcs[ins[2]],) + ins[3:]
                )


def build_module(
    program: ast.Program, checked: bool, observable: bool,
    optimize: bool = True,
) -> IRModule:
    """Lower every function and run the pass pipeline, bypassing caches.

    The block-IR entry point ``repro disasm`` and the tests use directly;
    :func:`compile_program` builds on it.  ``optimize=False`` stops after
    lowering (the ``--no-opt`` baseline).
    """
    full = not checked
    funcs: Dict[str, IRFunction] = {}
    checks_erased = 0
    for name, fdef in program.funcs.items():
        fn, erased = lower_function(program, fdef, checked)
        funcs[name] = fn
        checks_erased += erased
    module = IRModule(program, funcs, full, observable)
    module.counters["checks_erased"] = checks_erased
    if optimize:
        default_pipeline(full, observable).run(module)
    return module


# Compiled modules shared across Program objects (and therefore across
# server sessions): two programs with the same canonical source produce
# byte-equal bytecode, so fleet workers stop recompiling per request.
# Keyed like the Service memo — a source fingerprint — plus the compile
# configuration.  Bounded LRU, guarded for the daemon's worker threads.
_SHARED_CACHE: "OrderedDict[Tuple[str, bool, bool], CompiledModule]" = (
    OrderedDict()
)
_SHARED_LOCK = threading.Lock()
_SHARED_LIMIT = 64


def set_compile_cache_limit(limit: int) -> None:
    """Resize the shared compile cache (evicting oldest entries first).
    ``0`` disables cross-program sharing entirely."""
    global _SHARED_LIMIT
    tel = _telemetry()
    with _SHARED_LOCK:
        _SHARED_LIMIT = max(0, limit)
        while len(_SHARED_CACHE) > _SHARED_LIMIT:
            _SHARED_CACHE.popitem(last=False)
            if tel.enabled:
                tel.inc("machine.engine.compile_cache.evictions")
        if tel.enabled:
            tel.set_gauge(
                "machine.engine.compile_cache.entries", len(_SHARED_CACHE)
            )


def clear_compile_cache() -> None:
    with _SHARED_LOCK:
        _SHARED_CACHE.clear()
        tel = _telemetry()
        if tel.enabled:
            tel.set_gauge("machine.engine.compile_cache.entries", 0)


def compile_cache_entries() -> int:
    with _SHARED_LOCK:
        return len(_SHARED_CACHE)


def _fingerprint(program: ast.Program) -> str:
    """Canonical source hash, cached on the program object.  Pretty-printed
    rather than raw source so structurally identical programs share."""
    fp = getattr(program, "_ir_fingerprint", None)
    if fp is None:
        fp = hashlib.sha256(
            pretty_program(program).encode("utf-8")
        ).hexdigest()
        program._ir_fingerprint = fp  # type: ignore[attr-defined]
    return fp


def compile_program(
    program: ast.Program, checked: bool, observable: bool
) -> CompiledModule:
    """Compile (or fetch from the caches) every function.

    ``observable`` means a tracer is attached: the full tier still runs
    (when ``checked`` is off) but heap-eliminating rewrites take their
    event-preserving forms, so traces stay byte-comparable with the small-step
    reference machine.  Two cache layers: a per-program dict (same Program
    object re-run, e.g. fuzz oracles) and a shared fingerprint-keyed LRU
    (distinct Program objects from the same source, e.g. serve-fleet
    requests without a session).
    """
    try:
        cache = program._ir_cache  # type: ignore[attr-defined]
    except AttributeError:
        cache = program._ir_cache = {}  # type: ignore[attr-defined]
    key = (checked, observable)
    cached = cache.get(key)
    if cached is not None:
        return cached

    tel = _telemetry()
    shared_key = (_fingerprint(program), checked, observable)
    with _SHARED_LOCK:
        hit = _SHARED_CACHE.get(shared_key)
        if hit is not None:
            _SHARED_CACHE.move_to_end(shared_key)
    if hit is not None:
        if tel.enabled:
            tel.inc("machine.engine.compile_cache.hits")
        cache[key] = hit
        return hit

    module = build_module(program, checked, observable)
    compiled = CompiledModule(checked, observable)
    for name, fn in module.funcs.items():
        compiled.funcs[name] = flatten(fn, program, checked)
    _link(compiled)
    compiled.counters = dict(module.counters)
    compiled.counters["instructions_emitted"] = sum(
        len(f.code) for f in compiled.funcs.values()
    )

    if tel.enabled:
        tel.inc("machine.engine.compiles")
        tel.inc("machine.engine.compile_cache.misses")
        tel.inc("machine.engine.inlined_calls",
                compiled.counters["inlined_calls"])
        tel.inc("machine.engine.loads_eliminated",
                compiled.counters["loads_eliminated"])
        tel.inc("machine.engine.checks_erased",
                compiled.counters["checks_erased"])
        tel.inc("machine.engine.fields_promoted",
                compiled.counters["fields_promoted"])
        tel.inc("machine.engine.licm_hoisted",
                compiled.counters["licm_hoisted"])
        tel.inc("machine.engine.tail_calls_looped",
                compiled.counters["tail_calls_looped"])
        tel.inc("machine.engine.slots_coalesced",
                compiled.counters["slots_coalesced"])
    with _SHARED_LOCK:
        if _SHARED_LIMIT > 0:
            while len(_SHARED_CACHE) >= _SHARED_LIMIT:
                _SHARED_CACHE.popitem(last=False)
                if tel.enabled:
                    tel.inc("machine.engine.compile_cache.evictions")
            _SHARED_CACHE[shared_key] = compiled
        if tel.enabled:
            tel.set_gauge(
                "machine.engine.compile_cache.entries", len(_SHARED_CACHE)
            )
    cache[key] = compiled
    return compiled
