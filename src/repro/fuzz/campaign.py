"""The fuzz campaign driver: generate → oracle-check → shrink → report.

:func:`run_campaign` drives a seeded stream of generated programs (plus
mutation-derived should-reject variants) through the differential
oracles in :mod:`repro.fuzz.oracles`, shrinks any disagreement to a
minimal program and schedule, and returns a ``repro-fuzz/1`` JSON report
(the shape ``benchmarks/fuzz.schema.json`` validates).

Fault injection (``inject_bug="send-keeps-region"``) flips the
deliberately unsound :attr:`~repro.core.checker.CheckProfile.
unsound_send_keeps_region` knob so the campaign's own detection path can
be exercised end to end: the doctored checker accepts use-after-send
programs, the verifier refuses the malformed derivation, and the report
carries the shrunk witness.  A campaign with an injected bug is expected
to find violations; one without is expected to find none.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from .. import telemetry as tel
from ..core.checker import CheckProfile, DEFAULT_PROFILE
from ..lang.parser import ParseError, parse_program
from .gen import GenCase, ProgramGen, mutate
from .oracles import (
    ENUMERATE_MAX_THREADS,
    CaseOutcome,
    OracleConfig,
    StaticCheckPool,
    check_case,
)
from .shrink import count_nodes, minimal_schedule, shrink_source

SCHEMA = "repro-fuzz/1"

#: Named checker faults the campaign can inject (``--inject-bug``).
INJECTABLE_BUGS: Dict[str, CheckProfile] = {
    "send-keeps-region": replace(
        DEFAULT_PROFILE, unsound_send_keeps_region=True
    ),
}


@dataclass
class FuzzConfig:
    seed: int = 0
    #: Base cases to generate; each may additionally yield one mutant.
    budget: int = 200
    #: Random schedules per accepted case (oracle 2), on top of the
    #: bounded-exhaustive enumeration for ≤ 3-thread programs.
    schedules: int = 4
    enumerate_limit: int = 120
    fairness_bound: int = 8
    #: Probability of deriving a should-reject mutant from a base case.
    mutate_ratio: float = 0.5
    shrink: bool = True
    max_shrink_evals: int = 300
    #: Stop the campaign once this many violations have been recorded
    #: (None = exhaust the budget regardless).
    stop_after: Optional[int] = None
    inject_bug: Optional[str] = None
    #: Worker processes for the static (checker⇒verifier) oracle; None or
    #: 1 keeps it in-process.  Fixed-seed reports are identical either
    #: way (modulo ``wall_ms``): the generator and mutation RNGs are
    #: independent streams, so with no ``stop_after`` the whole case plan
    #: is derived up front and verdicts are prefetched through the pool,
    #: while with ``stop_after`` set cases go through the pool one at a
    #: time to preserve the early-exit RNG consumption exactly.
    jobs: Optional[int] = None


def run_campaign(config: FuzzConfig = FuzzConfig()) -> Dict[str, Any]:
    """Run one campaign; returns the ``repro-fuzz/1`` report dict."""
    if config.inject_bug is not None and config.inject_bug not in INJECTABLE_BUGS:
        raise ValueError(
            f"unknown injectable bug {config.inject_bug!r} "
            f"(have: {', '.join(sorted(INJECTABLE_BUGS))})"
        )
    profile = (
        INJECTABLE_BUGS[config.inject_bug]
        if config.inject_bug
        else DEFAULT_PROFILE
    )
    # Coverage accounting and fuzz.* counters need a live registry; borrow
    # the caller's if one is enabled, otherwise own a fresh one.
    owned = not tel.registry().enabled
    reg = tel.enable() if owned else tel.registry()
    started = time.time()
    pool: Optional[StaticCheckPool] = None
    try:
        oracle_config = OracleConfig(
            schedules=config.schedules,
            enumerate_limit=config.enumerate_limit,
            fairness_bound=config.fairness_bound,
        )
        if config.jobs is not None and config.jobs > 1:
            pool = StaticCheckPool(config.jobs)
            oracle_config.static_pool = pool
        gen = ProgramGen(random.Random(config.seed))
        mutation_rng = random.Random(config.seed ^ 0x9E3779B9)
        violations: List[Dict[str, Any]] = []
        def done() -> bool:
            return (
                config.stop_after is not None
                and len(violations) >= config.stop_after
            )

        def handle_case(case: GenCase, verdict=None) -> None:
            reg.inc("fuzz.cases")
            outcome = check_case(case, oracle_config, profile, verdict=verdict)
            reg.inc("fuzz.accepted" if outcome.accepted else "fuzz.rejected")
            _harvest(violations, outcome, config, oracle_config, profile, reg)

        def handle_mutant(mutant: GenCase, verdict=None) -> None:
            reg.inc("fuzz.mutants")
            outcome = check_case(mutant, oracle_config, profile, verdict=verdict)
            if outcome.accepted and outcome.violation is None:
                # The checker judged the mutation harmless and every
                # dynamic oracle agreed — a benign mutant, not a finding.
                reg.inc("fuzz.mutants.benign")
            elif not outcome.accepted:
                reg.inc("fuzz.mutants.rejected")
            _harvest(violations, outcome, config, oracle_config, profile, reg)

        if pool is not None and config.stop_after is None:
            # Pipelined mode: with no early exit, ``done()`` is always
            # False, so the per-iteration RNG consumption (one generate,
            # one mutation-gate draw, maybe one mutate) is fixed — the
            # whole plan can be derived up front and static verdicts
            # prefetched through the pool while earlier cases run their
            # dynamic oracles in-process.
            plan = []
            for _ in range(config.budget):
                case = gen.generate()
                mutant = None
                if mutation_rng.random() < config.mutate_ratio:
                    mutant = mutate(case, mutation_rng)
                plan.append(
                    (
                        case,
                        pool.submit(case.source, profile),
                        mutant,
                        pool.submit(mutant.source, profile)
                        if mutant is not None
                        else None,
                    )
                )
            for case, future, mutant, mutant_future in plan:
                handle_case(case, verdict=future.result())
                if mutant is not None:
                    handle_mutant(mutant, verdict=mutant_future.result())
        else:
            # Serial shape (also used with a pool when --stop-after is
            # set: the short-circuit in the mutation gate below must see
            # exactly the serial violation counts).
            for _ in range(config.budget):
                if done():
                    break
                case = gen.generate()
                handle_case(case)
                if done() or mutation_rng.random() >= config.mutate_ratio:
                    continue
                mutant = mutate(case, mutation_rng)
                if mutant is None:
                    continue
                handle_mutant(mutant)
        report = {
            "schema": SCHEMA,
            "seed": config.seed,
            "budget": config.budget,
            "injected_bug": config.inject_bug,
            "wall_ms": int((time.time() - started) * 1000),
            "cases": {
                "generated": reg.value("fuzz.cases"),
                "accepted": reg.value("fuzz.accepted"),
                "rejected": reg.value("fuzz.rejected"),
                "mutants": reg.value("fuzz.mutants"),
                "mutants_benign": reg.value("fuzz.mutants.benign"),
                "mutants_rejected": reg.value("fuzz.mutants.rejected"),
            },
            "schedules": {
                "random": reg.value("fuzz.schedules.random"),
                "enumerated": reg.value("fuzz.schedules.enumerated"),
            },
            # Execution engines the differential oracles cross-checked,
            # and the optimization tiers the ir legs exercised: checked
            # (guarded, traced) and full (erased, traced — the PR-9
            # event-preserving rewrites under a tracer).
            "engines": ["smallstep", "ir"],
            "tiers": ["checked", "full+traced"],
            "coverage": {
                rule: reg.value(f"checker.vt.{rule}")
                for rule in (
                    "V1-Focus",
                    "V2-Unfocus",
                    "V3-Explore",
                    "V4-Retract",
                    "V5-Attach",
                )
            },
            "violations": violations,
            "clean": not violations,
        }
        return report
    finally:
        if pool is not None:
            pool.close()
        if owned:
            tel.disable()


def _harvest(
    violations: List[Dict[str, Any]],
    outcome: CaseOutcome,
    config: FuzzConfig,
    oracle_config: OracleConfig,
    profile: CheckProfile,
    reg,
) -> None:
    """Record (and shrink) one oracle disagreement, if any."""
    violation = outcome.violation
    if violation is None:
        return
    reg.inc("fuzz.violations")
    case = outcome.case
    entry: Dict[str, Any] = {
        "case": case.ident,
        "kind": case.kind,
        "mutation": case.mutation,
        "oracle": violation.oracle,
        "detail": violation.detail,
        "schedule": violation.schedule,
        "spawns": [[name, list(args)] for name, args in case.spawns],
        "source": case.source,
        "shrunk": None,
    }
    if config.shrink:
        entry["shrunk"] = _shrink(case, violation.oracle, config,
                                  oracle_config, profile, reg)
    violations.append(entry)


def _shrink(
    case: GenCase,
    oracle: str,
    config: FuzzConfig,
    oracle_config: OracleConfig,
    profile: CheckProfile,
    reg,
) -> Optional[Dict[str, Any]]:
    def reproduces(source: str) -> bool:
        outcome = check_case(case.with_source(source), oracle_config, profile)
        return (
            outcome.violation is not None
            and outcome.violation.oracle == oracle
        )

    result = shrink_source(
        case.source, reproduces, max_evals=config.max_shrink_evals
    )
    reg.inc("fuzz.shrink.cases")
    reg.inc("fuzz.shrink.evals", result.evals)
    shrunk: Dict[str, Any] = {
        "source": result.source,
        "nodes": result.nodes,
        "evals": result.evals,
        "schedule": None,
    }
    if oracle in ("schedule", "deadlock") and len(case.spawns) <= ENUMERATE_MAX_THREADS:
        try:
            program = parse_program(result.source)
        except ParseError:
            program = None
        if program is not None:
            decisions = minimal_schedule(
                program, case.spawns, oracle, limit=oracle_config.enumerate_limit
            )
            if decisions is not None:
                shrunk["schedule"] = decisions
    return shrunk
