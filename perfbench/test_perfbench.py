"""The benchmark's own checks.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They use a held-out seed (9001) that tuning the benchmark never used.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

HELD_OUT = 9001

#: Counts that depend only on the seed's inputs, never on timing.
EXACT = (
    "core.derivation_nodes",
    "verifier.obligations",
    "ir.instructions",
    "ir.inlined_calls",
    "ir.loads_eliminated",
    "ir.licm_hoisted",
    "ir.tail_calls_looped",
    "ir.slots_coalesced",
    "ir.checks_erased",
    "runtime.steps",
    "runtime.heap_reads",
    "runtime.heap_writes",
)


def bench(*args: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


@pytest.mark.parametrize("prog", sorted(inputs.DRIVERS))
def test_closed_forms_match_the_small_step_machine(prog):
    from repro.lang import parse_program
    from repro.runtime.smallstep import run_function_smallstep

    program = parse_program(inputs.driver_source(prog, inputs.load_corpus()))
    for args in inputs.draw_args(prog, random.Random(HELD_OUT), 2):
        value, _ = run_function_smallstep(program, inputs.DRIVERS[prog][0], args)
        assert value == inputs.expected_value(prog, *args)


@pytest.mark.parametrize("workload", ["verify-corpus", "run-ir"])
def test_same_seed_gives_identical_counts(workload):
    runs = [bench("--workload", workload, "--seed", str(HELD_OUT), "--seconds", "1", "--trace", "1") for _ in range(2)]
    for code, result, err in runs:
        assert code == 0, err
        assert result["correct"] and result["failed"] == 0
    first, second = (r[1]["metrics"] for r in runs)
    counts = {name: first[name]["value"] for name in EXACT}
    assert counts == {name: second[name]["value"] for name in EXACT}
    assert counts["core.derivation_nodes"] > 0
    assert counts["runtime.steps"] > 0 and counts["ir.instructions"] > 0


def test_every_declared_metric_is_printed_and_the_trace_opens():
    from repro.telemetry import validate

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, result, err = bench("--workload", "serve-mix", "--seed", str(HELD_OUT), "--seconds", "8", "--trace", "1")
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in doc["per_layer"]]
    trace = json.loads((HERE / "out" / f"trace-serve-mix-{HELD_OUT}.json").read_text())
    validate(trace, json.loads((ROOT / "benchmarks" / "trace.schema.json").read_text()))
    code, result, err = bench("--workload", "serve-mix", "--seed", str(HELD_OUT), "--seconds", "8", "--trace", "0")
    assert code == 0, err
    assert list(result["metrics"]) == [m["name"] for m in doc["end_to_end"]]
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_a_metric_left_unmeasured_fails_the_run():
    import run

    end_to_end = dict.fromkeys(run.declared_metrics(False), 1.0)
    assert list(run.result_metrics("run-ir", False, end_to_end)) == list(end_to_end)
    with pytest.raises(RuntimeError, match="not measured.*latency_p95_ms"):
        run.result_metrics("run-ir", False, {k: v for k, v in end_to_end.items() if k != "latency_p95_ms"})
    # A traced run may leave out only the metrics NOT_MEASURED lists.
    layers = run.declared_metrics(True)
    skipped = set(run.not_measured("run-ir", layers))
    measured = {name: 1.0 for name in layers if name not in skipped}
    printed = run.result_metrics("run-ir", True, measured)
    assert {name for name, v in printed.items() if v["value"] == 0.0} == skipped
    with pytest.raises(RuntimeError, match="not measured.*runtime.steps"):
        run.result_metrics("run-ir", True, {k: v for k, v in measured.items() if k != "runtime.steps"})
    with pytest.raises(RuntimeError, match="NOT_MEASURED"):
        run.result_metrics("run-ir", True, dict(measured, **{"verifier.obligations": 1.0}))


def test_a_planted_wrong_answer_fails_the_run(monkeypatch, capsys):
    """A must-reject program labelled "accept", placed first so the
    shortest run meets it."""
    import run

    real = inputs.verify_round
    planted = []

    def verify_round(seed):
        items = real(seed)
        index = next(k for k, item in enumerate(items) if item["id"].startswith("negative:"))
        victim = items.pop(index)
        victim["expect"] = {"ok": True, "functions": 1}
        planted.append(victim["id"])
        return [victim] + items

    monkeypatch.setattr(inputs, "verify_round", verify_round)
    code = run.main(["--workload", "verify-corpus", "--seed", str(HELD_OUT), "--seconds", "0.5"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0
    assert f"WRONG {planted[0]}: rejected" in err
