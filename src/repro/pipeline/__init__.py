"""The check/verify pipeline: the one program-level check/verify path.

Every whole-program check and verify — the :mod:`repro.api` facade, and
through it the CLI and the daemon — runs through
:meth:`Pipeline.run`: per-function jobs, in-process by default or fanned
over a process pool (``--jobs N``), and a persistent content-addressed
certificate cache that turns repeat runs into cheap certificate replays
(``--cache DIR``) or pure hash lookups (``--trust-cache``).  See
``docs/PERFORMANCE.md`` for the cache-key recipe and the determinism
contract.
"""

from .batch import discover, run_batch
from .cache import (
    CacheEntry,
    CertCache,
    ProgramFingerprints,
    callees_of,
    profile_tag,
    struct_fingerprint,
)
from .runner import ErrorInfo, FunctionResult, Pipeline, ProgramResult
from .session import ProgramSession

__all__ = [
    "CacheEntry",
    "CertCache",
    "ErrorInfo",
    "FunctionResult",
    "Pipeline",
    "ProgramFingerprints",
    "ProgramResult",
    "ProgramSession",
    "callees_of",
    "discover",
    "profile_tag",
    "run_batch",
    "struct_fingerprint",
]
