"""Verified reservation-check erasure (§3.2).

Well-typed programs keep every reservation they use, so the dynamic guard
can be compiled away: the erased runtime must produce *identical*
observable behaviour (results and the full heap-event trace) on the whole
corpus.  The guard is still real — with checks on, an unauthorized access
(empty reservation, use-after-send) still raises ``ReservationViolation``
— and ``repro run --paranoid`` cross-validates both modes end to end.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus import corpus_names, load_program
from repro.lang import parse_program
from repro.runtime.heap import Heap
from repro.runtime.machine import Machine, ReservationViolation, run_function
from repro.runtime.trace import Tracer

CORPUS = Path(__file__).parent.parent / "src" / "repro" / "corpus"


class Runner:
    """Drives ``run_function`` in one guard mode, accumulating the number
    of reservation checks the engine actually performed."""

    def __init__(self, program, heap, check):
        self.program = program
        self.heap = heap
        self.check = check
        self.checks = 0

    def __call__(self, fn, args):
        result, interp = run_function(
            self.program, fn, args, heap=self.heap,
            check_reservations=self.check,
        )
        self.checks += interp.stats.reservation_checks
        return result

    def alloc(self, struct, inits):
        return self.heap.alloc(self.program.structs[struct], inits)


def _drive_sll(run):
    lst = run("make_list", [20])
    out = [run("sum", [lst]), run("list_length", [lst])]
    run("reverse", [lst])
    out.append(run("sum", [lst]))
    return out


def _drive_dll(run):
    lst = run("make_dll", [25])
    out = [run("dll_length", [lst]), run("dll_sum", [lst])]
    run("remove_tail", [lst])
    out.append(run("dll_length", [lst]))
    return out


def _drive_rbtree(run):
    tree = run("build_tree", [20, 3])
    return [run("tree_size", [tree]), run("rb_valid", [tree, -1, 1000000])]


def _drive_queue(run):
    # push/pop only: source/relay/sink need a scheduler (send/recv).
    lst = run.alloc("sll", {})
    for v in range(6):
        run("push", [lst, run.alloc("data", {"v": v})])
    popped = [run("pop", [lst]) for _ in range(3)]
    return [len(popped)]


def _drive_algorithms(run):
    lst = run("make_list_lcg", [15, 7])
    run("sort", [lst])
    return [run("list_is_sorted", [lst])]


def _drive_ntree(run):
    tree = run("build", [3, 2, 1])
    return [run("size", [tree]), run("height", [tree]), run("tag_sum", [tree])]


def _drive_signatures(run):
    d = run.alloc("data", {"v": 7})
    out = [run("reads_only", [d])]
    box = run.alloc("box", {})
    run("stash", [box, run.alloc("data", {"v": 9})])
    counter = run.alloc("counter", {"hits": 0})
    run("bump", [counter])
    out.append(run("observe", [counter]))
    return out


def _drive_fuzzmin(run):
    # send-free functions only: the pipeline threads need a Machine.
    return [
        run("attach_then_read", [5]),
        run("attach_then_focus", [9]),
        run("linked_cells", [3]),
    ]


WORKLOADS = {
    "sll": _drive_sll,
    "dll": _drive_dll,
    "rbtree": _drive_rbtree,
    "queue": _drive_queue,
    "algorithms": _drive_algorithms,
    "ntree": _drive_ntree,
    "signatures": _drive_signatures,
    "fuzzmin": _drive_fuzzmin,
}


def test_every_corpus_program_has_a_workload():
    assert set(WORKLOADS) == set(corpus_names())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_guarded_and_erased_runs_agree(name):
    """Results and the full observable heap-event stream are invariant
    under erasure — and only the guarded run pays for any checks (the
    erased module is compiled without check instructions)."""
    program = load_program(name)
    runs = {}
    for check in (True, False):
        tracer = Tracer(capacity=100_000)
        run = Runner(program, Heap(tracer=tracer), check)
        results = WORKLOADS[name](run)
        runs[check] = (results, tracer.to_dicts(), run.checks)
    guarded, erased = runs[True], runs[False]
    assert guarded[0] == erased[0], "results diverged under erasure"
    assert guarded[1] == erased[1], "heap traces diverged under erasure"
    assert guarded[1], "trace must be non-empty to mean anything"
    assert guarded[2] > 0, "guarded run performed no reservation checks"
    assert erased[2] == 0, "erased run still performed reservation checks"


class TestGuardStillGuards:
    """Erasure is *verified*: with checks on, unauthorized accesses and the
    runtime hazards the type system rules out still trip
    ``ReservationViolation``."""

    def test_empty_reservation_still_violates(self):
        program = parse_program(
            "struct data { v : int; }\ndef f(d : data) : int { d.v }"
        )
        heap = Heap()
        d = heap.alloc(program.structs["data"], {"v": 1})
        with pytest.raises(ReservationViolation):
            run_function(program, "f", [d], heap=heap, reservation=set())
        # ... and the erased dispatch skips exactly that guard:
        result, _ = run_function(
            program, "f", [d], heap=heap, reservation=set(),
            check_reservations=False,
        )
        assert result == 1

    def test_use_after_send_still_caught(self):
        src = """
        struct data { v : int; }
        def bad() : int { let d = new data(v = 1); send(d); d.v }
        def ok() : int { let d = recv(data); d.v }
        """
        program = parse_program(src)
        machine = Machine(program, seed=1)
        machine.spawn("bad")
        machine.spawn("ok")
        with pytest.raises(ReservationViolation):
            machine.run()


class TestCLI:
    def test_trace_json_byte_identical(self, tmp_path, capsys):
        guarded = tmp_path / "guarded.json"
        erased = tmp_path / "erased.json"
        sll = str(CORPUS / "sll.fcl")
        assert main(["run", sll, "make_list", "6", "--trace-json", str(guarded)]) == 0
        assert main(
            ["run", sll, "make_list", "6", "--erased", "--trace-json", str(erased)]
        ) == 0
        capsys.readouterr()
        assert guarded.read_bytes() == erased.read_bytes()
        events = [
            json.loads(line) for line in guarded.read_text().splitlines()
        ]
        assert events, "trace must be non-empty for the comparison to mean anything"
        assert events[0]["kind"] == "alloc"

    def test_paranoid_cross_validates(self, capsys):
        sll = str(CORPUS / "sll.fcl")
        assert main(["run", sll, "make_list", "4", "--paranoid"]) == 0
        err = capsys.readouterr().err
        assert "paranoid: guarded and erased traces identical" in err

    def test_paranoid_conflicts_rejected(self, capsys):
        sll = str(CORPUS / "sll.fcl")
        # Flag conflicts are usage errors: ExitCode.USAGE (64).
        assert main(["run", sll, "make_list", "2", "--paranoid", "--erased"]) == 64
        assert main(["run", sll, "make_list", "2", "--unchecked", "--erased"]) == 64
        capsys.readouterr()
