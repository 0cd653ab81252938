"""File discovery and the ``repro batch`` driver.

Output contract (the CI smoke job diffs it byte-for-byte between a cold
and a warm run): **stdout** carries one deterministic result line per
program — the same numbers whether a function was freshly derived or
served from the cache — plus a summary footer; everything run-dependent
(timings, hit/miss/stale counts, worker count) goes to **stderr**.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from ..corpus import read_program_source
from .runner import Pipeline, ProgramResult

#: Suffixes ``discover`` considers.  ``.py`` files participate only when
#: they embed a module-level ``SOURCE`` literal (the corpus convention).
PROGRAM_SUFFIXES = (".fcl", ".py")


def discover(paths: Iterable[str]) -> List[Tuple[str, str]]:
    """Expand files and directories into ``(label, source)`` pairs.

    Directories are walked recursively for ``*.fcl`` files and corpus-style
    ``*.py`` files with an embedded ``SOURCE`` literal (``.py`` files
    without one are silently skipped — they are support code, not
    programs).  Results are sorted by path so batch output is stable
    across filesystems.

    Raises ``OSError`` for a path that does not exist and ``ValueError``
    for an explicitly named ``.py`` file without a ``SOURCE`` literal:
    naming a file is a claim that it is a program.
    """
    out: List[Tuple[str, str]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*")):
                if child.suffix not in PROGRAM_SUFFIXES or not child.is_file():
                    continue
                try:
                    out.append((str(child), read_program_source(str(child))))
                except ValueError:
                    continue  # .py without SOURCE: not a program
        elif path.is_file():
            out.append((str(path), read_program_source(str(path))))
        else:
            raise OSError(f"no such file or directory: {raw}")
    out.sort(key=lambda pair: pair[0])
    return out


def run_batch(
    programs: List[Tuple[str, str]],
    pipeline: Pipeline,
    out=None,
    err=None,
) -> int:
    """Run every program through ``pipeline`` and report.

    Returns the process exit code: ``0`` when everything checked and
    verified, ``1`` when any program was rejected by the checker, ``2``
    when a certificate failed verification (and no check error occurred —
    check errors dominate, matching the single-file commands).
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    t0 = time.perf_counter()
    results: List[ProgramResult] = []
    for label, source in programs:
        result = pipeline.run(label, source)
        results.append(result)
        print(_result_line(result), file=out)

    ok = [r for r in results if r.ok]
    print(
        f"batch: {len(ok)}/{len(results)} programs OK — "
        f"{sum(len(r.functions) for r in ok)} functions, "
        f"{sum(r.nodes for r in ok)} derivation nodes",
        file=out,
    )

    hits = misses = stale = 0
    for r in results:
        counts = r.counts()
        hits += counts["hit"]
        misses += counts["miss"]
        stale += counts["stale"]
    wall_ms = (time.perf_counter() - t0) * 1000.0
    print(
        f"pipeline: jobs={pipeline.jobs} "
        f"hits={hits} misses={misses} "
        f"stale={stale} ({wall_ms:.0f} ms)",
        file=err,
    )

    if any(r.error is not None and r.error.stage == "check" for r in results):
        return 1
    if any(r.error is not None for r in results):
        return 2
    return 0


def _result_line(result: ProgramResult) -> str:
    if result.ok:
        return (
            f"{result.label}: OK — {len(result.functions)} functions, "
            f"{result.nodes} derivation nodes"
        )
    error = result.error
    if error is not None and error.stage == "verify":
        return f"{result.label}: VERIFICATION FAILED: {error.message}"
    detail = f"{error.cls}: {error.message}" if error is not None else "rejected"
    return f"{result.label}: REJECTED — {detail}"
