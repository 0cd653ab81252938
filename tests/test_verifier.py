"""Verifier tests: valid derivations pass; tampered ones are rejected.

The tampering tests are the point of the prover–verifier architecture: the
verifier must not trust anything the prover claims.
"""

import copy

import pytest

from repro import telemetry
from repro.core.checker import Checker
from repro.core.derivation import Derivation
from repro.core.regions import Region
from repro.core.unify import Step, apply_step
from repro.corpus import corpus_names, load_program
from repro.lang import parse_program
from repro.verifier import VerificationError, Verifier, context_from_snapshot
from repro.verifier.verifier import _CertificateCheck

SRC = """
struct data { v : int; }
struct box { iso inner : data?; }

def stash(b : box) : unit {
  let d = new data(v = 7);
  b.inner = some(d)
}

def grab(b : box) : int {
  let some(d) = b.inner in { d.v } else { 0 }
}
"""


def checked(src=SRC):
    program = parse_program(src)
    derivation = Checker(program).check_program()
    return program, derivation


def find_node(deriv: Derivation, rule: str) -> Derivation:
    if deriv.rule == rule:
        return deriv
    for child in deriv.children:
        try:
            return find_node(child, rule)
        except KeyError:
            continue
    raise KeyError(rule)


class TestAcceptance:
    def test_valid_derivations_verify(self):
        program, derivation = checked()
        assert Verifier(program).verify_program(derivation) > 0

    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_verifies(self, name):
        program = load_program(name)
        derivation = Checker(program).check_program()
        Verifier(program).verify_program(derivation)

    def test_snapshot_roundtrip(self):
        program, derivation = checked()
        node = derivation.funcs["grab"].body
        ctx = context_from_snapshot(node.pre)
        assert ctx.snapshot() == node.pre


class TestTampering:
    def _expect_rejection(self, program, derivation):
        with pytest.raises(VerificationError):
            Verifier(program).verify_program(derivation)

    def test_missing_function(self):
        program, derivation = checked()
        del derivation.funcs["grab"]
        self._expect_rejection(program, derivation)

    def test_changed_result_type(self):
        program, derivation = checked()
        derivation.funcs["grab"].body.children[0].type_ = "bool"
        self._expect_rejection(program, derivation)

    def test_forged_variable_region(self):
        # Claim a variable reference produced a different region.
        program, derivation = checked()
        node = find_node(derivation.funcs["grab"].body, "T2-Variable-Ref")
        node.region = 424242
        self._expect_rejection(program, derivation)

    def test_forged_iso_read_region(self):
        program, derivation = checked()
        node = find_node(
            derivation.funcs["grab"].body, "T5-Isolated-Field-Reference"
        )
        node.region = 424242
        self._expect_rejection(program, derivation)

    def test_dropped_focus_step(self):
        # Remove the V1-Focus step: the explore replay must then fail.
        program, derivation = checked()
        node = find_node(
            derivation.funcs["grab"].body, "T5-Isolated-Field-Reference"
        )
        node.steps = tuple(s for s in node.steps if s.rule != "V1-Focus")
        self._expect_rejection(program, derivation)

    def test_injected_capability(self):
        # Add a region capability to a node's post context out of thin air.
        program, derivation = checked()
        node = find_node(derivation.funcs["grab"].body, "T2-Variable-Ref")
        heap, gamma = node.post
        node.post = (heap + ((424242, False, ()),), gamma)
        self._expect_rejection(program, derivation)

    def test_broken_child_chain(self):
        program, derivation = checked()
        node = find_node(derivation.funcs["stash"].body, "T3-Sequence")
        heap, gamma = node.children[0].post
        node.children[0].post = (heap + ((424242, False, ()),), gamma)
        self._expect_rejection(program, derivation)

    def test_send_without_consume_step(self):
        src = (
            "struct data { v : int; }\n"
            "def f() : unit { let d = new data(v = 1); send(d) }"
        )
        program, derivation = checked(src)
        node = find_node(derivation.funcs["f"].body, "T16-Send")
        node.steps = tuple(
            s for s in node.steps if s.rule != "T16-ConsumeRegion"
        )
        self._expect_rejection(program, derivation)

    def test_interface_forgery(self):
        # Swap a consumed-away parameter back into the output snapshot.
        src = (
            "struct data { v : int; }\n"
            "def eat(d : data) : unit consumes d { send(d) }"
        )
        program, derivation = checked(src)
        fd = derivation.funcs["eat"]
        heap, gamma = fd.output_snap
        fd.output_snap = (
            heap + ((424242, False, ()),),
            gamma + (("d", "data", 424242),),
        )
        fd.body.post = fd.output_snap
        self._expect_rejection(program, derivation)

    def test_unknown_rule_rejected(self):
        program, derivation = checked()
        node = derivation.funcs["grab"].body.children[0]
        node.rule = "T99-Fabricated"
        self._expect_rejection(program, derivation)

    def test_iso_assign_mislabeled_as_plain(self):
        # Claiming an iso-field assignment was a plain T6 assignment must
        # fail the iso check.
        program, derivation = checked()
        node = find_node(
            derivation.funcs["stash"].body, "T7-Isolated-Field-Assignment"
        )
        node.rule = "T6-Field-Assignment"
        self._expect_rejection(program, derivation)


def all_nodes(deriv: Derivation):
    yield deriv
    for child in deriv.children:
        yield from all_nodes(child)


def named_snapshots(fd):
    """Every snapshot a function certificate names: the interface input
    and output plus each node's pre and post."""
    snaps = {fd.input_snap, fd.output_snap}
    for node in all_nodes(fd.body):
        snaps.add(node.pre)
        snaps.add(node.post)
    return snaps


class TestSnapshotMemo:
    """The verifier rebuilds each distinct snapshot once per certificate;
    none of that sharing may turn a reject into an accept."""

    @pytest.fixture(autouse=True)
    def _clean_global_registry(self):
        yield
        telemetry.disable()

    @pytest.mark.parametrize("name", corpus_names())
    def test_contexts_built_is_distinct_snapshots(self, name):
        program = load_program(name)
        derivation = Checker(program).check_program()
        reg = telemetry.enable()
        Verifier(program).verify_program(derivation)
        expected = sum(
            len(named_snapshots(fd)) for fd in derivation.funcs.values()
        )
        assert reg.value("verifier.contexts_built") == expected

    def test_tampered_copies_rejected_after_good_certificate(self):
        program, derivation = checked()
        verifier = Verifier(program)
        verifier.verify_program(derivation)

        def dropped_focus(pd):
            node = find_node(
                pd.funcs["grab"].body, "T5-Isolated-Field-Reference"
            )
            node.steps = tuple(s for s in node.steps if s.rule != "V1-Focus")

        def forged_region(pd):
            find_node(
                pd.funcs["grab"].body, "T5-Isolated-Field-Reference"
            ).region = 424242

        def broken_chain(pd):
            node = find_node(pd.funcs["stash"].body, "T3-Sequence")
            heap, gamma = node.children[0].post
            node.children[0].post = (heap + ((424242, False, ()),), gamma)

        for tamper in (dropped_focus, forged_region, broken_chain):
            forged = copy.deepcopy(derivation)
            tamper(forged)
            with pytest.raises(VerificationError):
                verifier.verify_program(forged)
        assert verifier.verify_program(derivation) > 0

    def test_same_certificate_twice_same_count(self):
        program = load_program("rbtree")
        derivation = Checker(program).check_program()
        verifier = Verifier(program)
        first = verifier.verify_program(derivation)
        assert verifier.verify_program(derivation) == first

    def test_shared_ill_formed_snapshot_rejected(self):
        program, derivation = checked()
        fd = derivation.funcs["stash"]
        seq = find_node(fd.body, "T3-Sequence")
        target = seq.children[0].post
        heap, gamma = target
        bad = (heap, gamma + (("zz", "int", 777),))
        uses = 0
        for node in all_nodes(fd.body):
            if node.pre == target:
                node.pre, uses = bad, uses + 1
            if node.post == target:
                node.post, uses = bad, uses + 1
        assert uses > 2
        verifier = Verifier(program)
        for _ in range(2):  # a fresh rejection each time, not a cached one
            with pytest.raises(VerificationError) as info:
                verifier.verify_function(fd)
            assert str(info.value) == (
                "T-Let [let d = new data(v = 7)]: ill-formed post context: "
                "'zz' bound in absent region r777"
            )

    def test_replayed_clone_leaves_base_unchanged(self):
        program, derivation = checked()
        node = find_node(
            derivation.funcs["grab"].body, "T5-Isolated-Field-Reference"
        )
        assert node.steps
        base = context_from_snapshot(node.pre)
        replayed = base.clone()
        for step in node.steps:
            apply_step(replayed, step)
        assert replayed.snapshot() != node.pre
        base.mark_dirty()  # recompute from structure, not the cache
        assert base.snapshot() == node.pre
        assert context_from_snapshot(node.pre).snapshot() == node.pre

    def test_certificate_table_bases_unchanged_by_replay(self):
        program = load_program("dll")
        derivation = Checker(program).check_program()
        verifier = Verifier(program)
        for fd in derivation.funcs.values():
            check = _CertificateCheck(verifier)
            check.verify(fd)
            assert set(check._bases) == named_snapshots(fd)
            for snap, (base, problem) in check._bases.items():
                assert problem is None
                base.mark_dirty()
                assert base.snapshot() == snap
