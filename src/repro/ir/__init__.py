"""Compilation of checked FCL to a basic-block IR and bytecode.

Pipeline: ``lang/ast.py`` → :mod:`repro.ir.lower` (lowering with
lowering-time guard erasure) → :mod:`repro.ir.passes` (PassManager:
inlining, simplification, mem2var, loop optimization, global
redundant-load elimination, DCE, register allocation) →
:mod:`repro.ir.bytecode` (flat linear bytecode, cached per program and
in a shared cross-program LRU) → :mod:`repro.ir.engine` (the dispatch
loop that ``runtime.machine.run_function`` and ``Machine`` drive).

This is the only execution engine: ``repro run``, :func:`repro.api.run`,
the ``run`` RPC and the REPL's declarations all run on it, and it is
checked against the fig 7 small-step machine
(:mod:`repro.runtime.smallstep`).  ``repro disasm FILE`` dumps the
bytecode with per-pass attribution.
"""

from .bytecode import (
    CompiledModule,
    build_module,
    clear_compile_cache,
    compile_cache_entries,
    compile_program,
    set_compile_cache_limit,
)
from .engine import IREngine
from .lower import lower_function
from .nodes import BasicBlock, Instr, IRFunction, render_function
from .passes import IRModule, PassManager, default_pipeline

__all__ = [
    "BasicBlock",
    "CompiledModule",
    "IREngine",
    "IRFunction",
    "IRModule",
    "Instr",
    "PassManager",
    "build_module",
    "clear_compile_cache",
    "compile_cache_entries",
    "compile_program",
    "default_pipeline",
    "lower_function",
    "render_function",
    "set_compile_cache_limit",
]
