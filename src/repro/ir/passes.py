"""The optimizing pass pipeline over the basic-block IR.

Two tiers exist because optimization must not outrun observability:

* **checked tier** (reservation checks on): only passes that preserve the
  exact heap-event sequence *and* the reservation-check count run —
  inlining, constant folding / branch simplification, local copy
  propagation, dead *pure* code elimination, pure-op loop optimization,
  register allocation.
* **full tier** (erased mode): adds mem2var promotion of region-local
  primitive fields, loop-invariant load motion, and global redundant-load
  elimination, which change *how often* the heap is read but never the
  values computed.  Since PR 9 the full tier also serves **traced** runs:
  when a tracer is attached (``module.observable``), the heap-eliminating
  rewrites take event-preserving forms — ``tload``/``tstore`` emit the
  original read/write events from registers at their original positions,
  ``sload`` primes a preheader cache without any event — so
  ``--trace-json`` stays byte-identical with the small-step reference
  machine, which is exactly what ``--paranoid`` and the fuzzer's
  small-step≡ir oracle verify.

The aliasing facts that license the full tier come from the checker:
reservations are disjoint and only rendezvous transfers move locations
between them (§3.2/fig 15), so between two instructions of one thread no
*other* thread can write a field the thread may read — a cached field
value stays valid until this thread itself stores to that field name or
reaches a call/send/recv.  Mem2var additionally uses the region discipline:
an allocation whose reference never escapes the frame (never stored,
passed, sent, returned, or compared for disconnection) is invisible to
``if disconnected`` traversals and to other threads, so its primitive
fields can live in registers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..lang import ast
from ..runtime.values import NONE, UNIT, binop
from .cfg import (
    dominators,
    liveness,
    natural_loops,
    predecessors,
    remove_unreachable,
    successors,
)
from .nodes import BasicBlock, Instr, IRFunction, instr_uses, rewrite_uses


class IRModule:
    """All lowered functions of one program plus compile counters."""

    def __init__(self, program: ast.Program, funcs: Dict[str, IRFunction],
                 full: bool, observable: bool = False):
        self.program = program
        self.funcs = funcs
        #: Full tier: erased mode (see module doc).  Since PR 9 the full
        #: tier also runs under a tracer; ``observable`` selects the
        #: event-preserving rewrites (tload/tstore/sload) instead of
        #: refusing the optimizations outright.
        self.full = full
        #: A tracer is attached: every heap event must be emitted at its
        #: original position, byte-identical with the small-step machine.
        self.observable = observable
        self.counters = {
            "inlined_calls": 0,
            "loads_eliminated": 0,
            "checks_erased": 0,
            "fields_promoted": 0,
            "consts_pooled": 0,
            "dests_sunk": 0,
            "loops_found": 0,
            "licm_hoisted": 0,
            "strength_reduced": 0,
            "tail_calls_looped": 0,
            "slots_coalesced": 0,
        }
        #: Per-pass counter deltas in execution order, recorded by
        #: :class:`PassManager` — the ``repro disasm`` attribution table.
        self.pass_log: List[Tuple[str, Dict[str, int]]] = []


class Pass:
    name = "pass"

    def run(self, module: IRModule) -> None:
        raise NotImplementedError


class PassManager:
    """Runs a fixed pass sequence over a module, logging what each pass
    contributed (counter deltas) into ``module.pass_log``."""

    def __init__(self, passes: List[Pass]):
        self.passes = passes

    def run(self, module: IRModule) -> None:
        for p in self.passes:
            before = dict(module.counters)
            p.run(module)
            delta = {
                key: value - before.get(key, 0)
                for key, value in module.counters.items()
                if value != before.get(key, 0)
            }
            module.pass_log.append((p.name, delta))


def default_pipeline(full: bool, observable: bool = False) -> "PassManager":
    passes: List[Pass] = [InlinePass(), SimplifyPass()]
    if full:
        # DCE + dest sinking first, so mem2var's escape analysis sees the
        # canonical base slot instead of dead copy chains of it.  Mem2var
        # runs before the loop pass so promoted fields are already plain
        # register movs by LICM time; the global load eliminator runs last
        # so it sees hoisted preheader loads as availability sources.
        passes += [DeadCodePass(), SinkDestPass(), Mem2VarPass(),
                   LoopOptPass(), RedundantLoadPass(), SimplifyPass()]
    else:
        # Pure-op LICM and strength reduction touch no heap event and no
        # guard, so they are sound in the observable/checked tier too.
        passes += [LoopOptPass()]
    passes += [DeadCodePass(), SimplifyPass(), ConstPoolPass(),
               SinkDestPass()]
    if full:
        # After dest sinking (so the call's result slot IS the returned
        # slot) and before register allocation (so the parallel-move
        # temporaries get coalesced away).
        passes.append(TailCallPass())
    passes.append(RegAllocPass())
    return PassManager(passes)


# ---------------------------------------------------------------------------
# Function inlining
# ---------------------------------------------------------------------------


class InlinePass(Pass):
    """Inline small leaf functions into their callers.

    Sound for any FCL function: calls are by-value over slots, the callee's
    parameter-guard ``check`` instructions travel with its body, and
    ``send``/``recv`` yields work identically from spliced code.  Rounds
    iterate so that a function whose calls were all inlined away becomes a
    leaf itself (rbtree's rotation helpers chain into ``balance`` this
    way), bounded by a caller-size cap.
    """

    name = "inline"

    def __init__(self, max_callee: int = 120, max_caller: int = 2500,
                 rounds: int = 4):
        self.max_callee = max_callee
        self.max_caller = max_caller
        self.rounds = rounds

    def run(self, module: IRModule) -> None:
        for _ in range(self.rounds):
            leaves = {
                name: fn
                for name, fn in module.funcs.items()
                if self._is_leaf(fn) and fn.size() <= self.max_callee
            }
            changed = False
            for fn in module.funcs.values():
                while fn.size() < self.max_caller:
                    site = self._find_site(fn, leaves)
                    if site is None:
                        break
                    bidx, iidx = site
                    callee = leaves[fn.blocks[bidx].instrs[iidx].args[0]]
                    self._splice(fn, bidx, iidx, callee)
                    module.counters["inlined_calls"] += 1
                    changed = True
            if not changed:
                break

    @staticmethod
    def _is_leaf(fn: IRFunction) -> bool:
        return all(ins.op != "call" for ins in fn.instructions())

    @staticmethod
    def _find_site(
        fn: IRFunction, leaves: Dict[str, IRFunction]
    ) -> Optional[Tuple[int, int]]:
        for bidx, block in enumerate(fn.blocks):
            for iidx, ins in enumerate(block.instrs):
                if ins.op == "call" and ins.args[0] in leaves:
                    if ins.args[0] != fn.name:
                        return bidx, iidx
        return None

    @staticmethod
    def _splice(caller: IRFunction, bidx: int, iidx: int,
                callee: IRFunction) -> None:
        block = caller.blocks[bidx]
        call_ins = block.instrs[iidx]
        _fname, argslots = call_ins.args
        dest = call_ins.dest
        offset = caller.nslots
        caller.nslots += callee.nslots
        slot_map = {s: s + offset for s in range(callee.nslots)}
        label_map = {b.label: caller.new_label() for b in callee.blocks}
        cont = BasicBlock(caller.new_label(), block.instrs[iidx + 1:],
                          block.term)
        new_blocks: List[BasicBlock] = []
        for cb in callee.blocks:
            nb = BasicBlock(label_map[cb.label])
            for ins in cb.instrs:
                copy = Instr(
                    ins.op,
                    None if ins.dest is None else ins.dest + offset,
                    *ins.args,
                )
                rewrite_uses(copy, slot_map)
                nb.instrs.append(copy)
            term = cb.term
            if term.op == "ret":
                nb.instrs.append(Instr("mov", dest, term.args[0] + offset))
                nb.term = Instr("jmp", None, cont.label)
            elif term.op == "jmp":
                nb.term = Instr("jmp", None, label_map[term.args[0]])
            else:  # br
                nb.term = Instr(
                    "br",
                    None,
                    term.args[0] + offset,
                    label_map[term.args[1]],
                    label_map[term.args[2]],
                )
            new_blocks.append(nb)
        # Redirect the call site: bind arguments into the callee's
        # parameter slots, jump into the spliced body, resume at `cont`.
        pre = block.instrs[:iidx]
        for i, s in enumerate(argslots):
            pre.append(Instr("mov", offset + i, s))
        block.instrs = pre
        block.term = Instr("jmp", None, label_map[callee.blocks[0].label])
        caller.blocks[bidx + 1:bidx + 1] = new_blocks + [cont]


# ---------------------------------------------------------------------------
# Simplification: constant folding, copy propagation, branch/jump cleanup
# ---------------------------------------------------------------------------

_FOLDABLE = (int, bool)


class SimplifyPass(Pass):
    """Trace-preserving cleanups: per-block constant folding and copy
    propagation, constant-branch conversion, jump threading, unreachable
    block removal, and straight-line block merging."""

    name = "simplify"

    def run(self, module: IRModule) -> None:
        for fn in module.funcs.values():
            for _ in range(10):
                changed = self._local(fn)
                changed |= self._branches(fn)
                changed |= self._thread_jumps(fn)
                changed |= remove_unreachable(fn)
                changed |= self._merge_chains(fn)
                if not changed:
                    break

    # -- per-block value numbering -----------------------------------------

    @staticmethod
    def _local(fn: IRFunction) -> bool:
        changed = False
        for block in fn.blocks:
            consts: Dict[int, object] = {}
            copies: Dict[int, int] = {}
            asloced: Set[int] = set()

            def invalidate(slot: int) -> None:
                consts.pop(slot, None)
                copies.pop(slot, None)
                asloced.discard(slot)
                for d in [d for d, s in copies.items() if s == slot]:
                    del copies[d]

            new_instrs: List[Instr] = []
            for ins in block.instrs:
                if copies:
                    rewrite_uses(ins, copies)
                folded = SimplifyPass._fold(ins, consts)
                if folded is not None:
                    ins = folded
                    changed = True
                if ins.op == "asloc":
                    # A repeated assertion on an unmodified slot is a no-op
                    # (asloc has no counter, unlike check).
                    slot = ins.args[0]
                    if slot in asloced:
                        changed = True
                        continue
                    asloced.add(slot)
                dest = ins.dest
                if dest is not None:
                    invalidate(dest)
                    if ins.op == "const":
                        consts[dest] = ins.args[0]
                    elif ins.op == "mov":
                        src = ins.args[0]
                        if src in consts:
                            ins = Instr("const", dest, consts[src])
                            consts[dest] = ins.args[0]
                            changed = True
                        elif src != dest:
                            copies[dest] = copies.get(src, src)
                new_instrs.append(ins)
            block.instrs = new_instrs
            if block.term is not None and copies:
                rewrite_uses(block.term, copies)
            # Constant branch condition → unconditional jump.
            term = block.term
            if (
                term is not None
                and term.op == "br"
                and term.args[0] in consts
            ):
                taken = term.args[1] if consts[term.args[0]] else term.args[2]
                block.term = Instr("jmp", None, taken)
                changed = True
        return changed

    @staticmethod
    def _fold(ins: Instr, consts: Dict[int, object]) -> Optional[Instr]:
        op = ins.op
        if op == "binop":
            bop, l, r = ins.args
            if l in consts and r in consts:
                lv, rv = consts[l], consts[r]
                if type(lv) in _FOLDABLE and type(rv) in _FOLDABLE:
                    try:
                        return Instr("const", ins.dest, binop(bop, lv, rv))
                    except Exception:
                        return None  # e.g. division by zero: fold nothing
            return None
        if op == "unop":
            uop, s = ins.args
            if s in consts and type(consts[s]) in _FOLDABLE:
                value = consts[s]
                return Instr("const", ins.dest,
                             (not value) if uop == "!" else -value)
            return None
        if op == "isnone" and ins.args[0] in consts:
            return Instr("const", ins.dest, consts[ins.args[0]] is NONE)
        if op == "issome" and ins.args[0] in consts:
            return Instr("const", ins.dest, consts[ins.args[0]] is not NONE)
        return None

    # -- CFG cleanups ------------------------------------------------------

    @staticmethod
    def _branches(fn: IRFunction) -> bool:
        changed = False
        for block in fn.blocks:
            term = block.term
            if term is not None and term.op == "br" and term.args[1] == term.args[2]:
                block.term = Instr("jmp", None, term.args[1])
                changed = True
        return changed

    @staticmethod
    def _thread_jumps(fn: IRFunction) -> bool:
        blocks = fn.block_map()

        def final_target(label: int) -> int:
            seen = set()
            while label not in seen:
                seen.add(label)
                block = blocks.get(label)
                if (
                    block is None
                    or block.instrs
                    or block.term is None
                    or block.term.op != "jmp"
                ):
                    return label
                label = block.term.args[0]
            return label

        changed = False
        for block in fn.blocks:
            term = block.term
            if term is None:
                continue
            if term.op == "jmp":
                target = final_target(term.args[0])
                if target != term.args[0]:
                    term.args = (target,)
                    changed = True
            elif term.op == "br":
                t = final_target(term.args[1])
                f = final_target(term.args[2])
                if (t, f) != (term.args[1], term.args[2]):
                    term.args = (term.args[0], t, f)
                    changed = True
        return changed

    @staticmethod
    def _merge_chains(fn: IRFunction) -> bool:
        """Splice a block into its unique predecessor when that predecessor
        jumps straight to it — fewer jumps means fewer dispatch-loop
        iterations at run time."""
        changed = False
        while True:
            preds = predecessors(fn)
            blocks = fn.block_map()
            merged = False
            for block in fn.blocks:
                term = block.term
                if term is None or term.op != "jmp":
                    continue
                target_label = term.args[0]
                target = blocks.get(target_label)
                if (
                    target is None
                    or target is block
                    or target is fn.blocks[0]
                    or len(preds[target_label]) != 1
                ):
                    continue
                block.instrs.extend(target.instrs)
                block.term = target.term
                fn.blocks.remove(target)
                merged = True
                changed = True
                break
            if not merged:
                return changed


# ---------------------------------------------------------------------------
# Redundant load elimination (full tier)
# ---------------------------------------------------------------------------


def _effect_summaries(
    module: IRModule,
) -> Dict[str, Tuple[Optional[Set[str]], bool]]:
    """Per-function heap effects ``name → (may_store, may_sync)``.

    ``may_store`` is the set of field names the function (or anything it
    transitively calls) may write — ``None`` means unknown/everything.
    ``may_sync`` is True when the function may reach a ``send``/``recv``
    rendezvous, after which *other* threads may write fields too.  A
    call-graph fixpoint, so recursion converges to a sound overestimate.
    """
    effects: Dict[str, Tuple[Optional[Set[str]], bool]] = {}
    calls: Dict[str, Set[str]] = {}
    for name, fn in module.funcs.items():
        stores: Optional[Set[str]] = set()
        sync = False
        callees: Set[str] = set()
        for ins in fn.instructions():
            op = ins.op
            if op in ("store", "tstore"):
                stores.add(ins.args[1])
            elif op in ("send", "recv"):
                sync = True
            elif op == "call":
                callees.add(ins.args[0])
        effects[name] = (stores, sync)
        calls[name] = callees
    changed = True
    while changed:
        changed = False
        for name in module.funcs:
            stores, sync = effects[name]
            for callee in calls[name]:
                cstores, csync = effects.get(callee, (None, True))
                if cstores is None:
                    if stores is not None:
                        stores = None
                        changed = True
                elif stores is not None and not cstores <= stores:
                    stores = stores | cstores
                    changed = True
                if csync and not sync:
                    sync = True
                    changed = True
            effects[name] = (stores, sync)
    return effects


class RedundantLoadPass(Pass):
    """Global forward available-load analysis (full tier only).

    A ``load base.f`` whose value is already in a slot (from an earlier
    load or store of ``base.f`` on every path, with no intervening
    clobber) becomes a ``mov`` — or, under a tracer, a ``tload`` that
    emits the read event at the original position without touching the
    heap.  Clobbers are conservative: any store to field name ``f`` kills
    every cached ``·.f`` (two live slots may alias one object), a call
    kills the fields its effect summary says the callee may write, and
    sends/recvs kill everything (a rendezvous hands the subgraph to a
    thread that may write).  No *other* clobbers exist precisely because
    the checker keeps reservations disjoint between rendezvous points.
    """

    name = "rle"

    def run(self, module: IRModule) -> None:
        effects = _effect_summaries(module)
        for fn in module.funcs.values():
            module.counters["loads_eliminated"] += self._function(
                module, fn, effects
            )

    @classmethod
    def _function(
        cls,
        module: IRModule,
        fn: IRFunction,
        effects: Dict[str, Tuple[Optional[Set[str]], bool]],
    ) -> int:
        if not fn.blocks:
            return 0
        preds = predecessors(fn)
        entry = fn.blocks[0].label
        # Forward dataflow, meet = intersection, optimistic TOP start
        # (absent from in_states/out_states means "not yet computed").
        in_states: Dict[int, Dict[Tuple[int, str], int]] = {}
        out_states: Dict[int, Dict[Tuple[int, str], int]] = {}
        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                label = block.label
                if label == entry:
                    in_state: Dict[Tuple[int, str], int] = {}
                else:
                    met: Optional[Dict[Tuple[int, str], int]] = None
                    for p in preds[label]:
                        prev = out_states.get(p)
                        if prev is None:
                            continue
                        if met is None:
                            met = dict(prev)
                        else:
                            met = {
                                k: v for k, v in met.items()
                                if prev.get(k) == v
                            }
                    if met is None:
                        continue  # no processed predecessor yet
                    in_state = met
                in_states[label] = in_state
                out = dict(in_state)
                for ins in block.instrs:
                    cls._step(out, ins, effects)
                if out_states.get(label) != out:
                    out_states[label] = out
                    changed = True
        eliminated = 0
        for block in fn.blocks:
            avail = dict(in_states.get(block.label, {}))
            for idx, ins in enumerate(block.instrs):
                if ins.op in ("load", "sload"):
                    cached = avail.get((ins.args[0], ins.args[1]))
                    if cached is not None:
                        if ins.op == "load" and module.observable:
                            block.instrs[idx] = Instr(
                                "tload", ins.dest, ins.args[0], ins.args[1],
                                cached,
                            )
                        else:
                            block.instrs[idx] = Instr("mov", ins.dest, cached)
                        eliminated += 1
                cls._step(avail, ins, effects)
        return eliminated

    @staticmethod
    def _step(
        avail: Dict[Tuple[int, str], int],
        ins: Instr,
        effects: Dict[str, Tuple[Optional[Set[str]], bool]],
    ) -> None:
        """Transfer one instruction over the availability map (original
        pre-rewrite semantics: a rewritten load leaves its dest holding the
        field's value just the same)."""
        op = ins.op
        if op in ("store", "tstore"):
            fieldname = ins.args[1]
            for key in [k for k in avail if k[1] == fieldname]:
                del avail[key]
        elif op == "call":
            stores, sync = effects.get(ins.args[0], (None, True))
            if stores is None or sync:
                avail.clear()
            elif stores:
                for key in [k for k in avail if k[1] in stores]:
                    del avail[key]
        elif op in ("send", "recv"):
            avail.clear()
        dest = ins.dest
        if dest is not None:
            for key in [
                k for k, v in avail.items() if v == dest or k[0] == dest
            ]:
                del avail[key]
        if op in ("load", "sload"):
            avail[(ins.args[0], ins.args[1])] = ins.dest
        elif op == "store":
            avail[(ins.args[0], ins.args[1])] = ins.args[2]


# ---------------------------------------------------------------------------
# Mem2var promotion (full tier)
# ---------------------------------------------------------------------------

_PRIMS = (ast.INT, ast.BOOL, ast.UNIT)


def _promotable_field(decl: ast.FieldDecl) -> bool:
    """Primitive or maybe-of-primitive fields only: their values are never
    locations, so skipping ``write_field`` can never desynchronize the
    stored reference counts ``if disconnected`` relies on (§5.2)."""
    ty = decl.ty
    if ty in _PRIMS:
        return True
    return isinstance(ty, ast.MaybeType) and ty.inner in _PRIMS


_FIELD_DEFAULTS = {ast.INT: 0, ast.BOOL: False, ast.UNIT: UNIT}


class Mem2VarPass(Pass):
    """Promote primitive fields of non-escaping allocations to slots.

    A candidate is a slot defined exactly once, by a ``new``, and used only
    as the base of loads/stores — never stored into another object, passed
    to a call, sent, returned, branched on, or compared by ``disc``.  Such
    an object is unreachable from any other slot or heap object, so
    nothing (including disconnect traversals in other parts of the heap)
    can observe its fields; reads and writes of its primitive fields become
    register moves.  The allocation itself stays, keeping object counts,
    allocation telemetry, and reservation contents identical.

    Under a tracer the rewrites become ``tload``/``tstore`` instead of
    ``mov``: the promoted register carries exactly the value sequence the
    heap field would have held, so emitting the read/write events from the
    register at the original positions keeps the trace byte-identical (the
    heap field itself goes stale, but the object never escapes, so no
    traversal or rendered result can observe the staleness).
    """

    name = "mem2var"

    def run(self, module: IRModule) -> None:
        for fn in module.funcs.values():
            self._function(module, fn)

    @staticmethod
    def _function(module: IRModule, fn: IRFunction) -> None:
        def_count: Dict[int, int] = {}
        new_defs: Dict[int, Instr] = {}
        escaped: Set[int] = set()
        for ins in fn.instructions():
            if ins.dest is not None:
                def_count[ins.dest] = def_count.get(ins.dest, 0) + 1
                if ins.op == "new":
                    new_defs[ins.dest] = ins
            if ins.op == "load":
                continue  # base use is fine
            if ins.op == "asloc":
                continue  # asserts the base is a location; nothing leaks
            if ins.op == "store":
                escaped.add(ins.args[2])  # the stored value escapes
                continue  # base use is fine
            for slot in instr_uses(ins):
                escaped.add(slot)

        for slot, new_ins in new_defs.items():
            if def_count.get(slot) != 1 or slot in escaped:
                continue
            sdef = module.program.struct(new_ins.args[0])
            promoted = {
                decl.name: decl
                for decl in sdef.fields
                if _promotable_field(decl)
            }
            if not promoted:
                continue
            regs = {name: fn.new_slot() for name in promoted}
            module.counters["fields_promoted"] += len(regs)
            init_names, init_slots = new_ins.args[1], new_ins.args[2]
            inits = dict(zip(init_names, init_slots))
            seed: List[Instr] = []
            for name, decl in promoted.items():
                if name in inits:
                    seed.append(Instr("mov", regs[name], inits[name]))
                elif isinstance(decl.ty, ast.MaybeType):
                    seed.append(Instr("const", regs[name], NONE))
                else:
                    seed.append(Instr("const", regs[name],
                                      _FIELD_DEFAULTS[decl.ty]))
            for block in fn.blocks:
                out: List[Instr] = []
                for ins in block.instrs:
                    if ins is new_ins:
                        out.append(ins)
                        out.extend(seed)
                        continue
                    if (
                        ins.op == "load"
                        and ins.args[0] == slot
                        and ins.args[1] in regs
                    ):
                        if module.observable:
                            out.append(Instr("tload", ins.dest, slot,
                                             ins.args[1], regs[ins.args[1]]))
                        else:
                            out.append(Instr("mov", ins.dest,
                                             regs[ins.args[1]]))
                        module.counters["loads_eliminated"] += 1
                        continue
                    if (
                        ins.op == "store"
                        and ins.args[0] == slot
                        and ins.args[1] in regs
                    ):
                        if module.observable:
                            out.append(Instr("tstore", regs[ins.args[1]],
                                             slot, ins.args[1], ins.args[2]))
                        else:
                            out.append(Instr("mov", regs[ins.args[1]],
                                             ins.args[2]))
                        continue
                    out.append(ins)
                block.instrs = out


# ---------------------------------------------------------------------------
# Loop-invariant code motion and strength reduction
# ---------------------------------------------------------------------------

#: Pure ops that cannot fault at run time in a type-checked program, so
#: executing them speculatively in a preheader is safe even when the loop
#: body would have skipped them.  Division/modulo are the only excluded
#: operators (divide-by-zero).
_SPECULATABLE = ("const", "mov", "isnone", "issome", "unop")


class LoopOptPass(Pass):
    """Loop-invariant code motion plus induction-variable strength
    reduction over the natural loops of the block CFG.

    Pure invariant ops are *moved* into a fresh preheader — sound in every
    tier because they emit no heap event and no guard.  Invariant *loads*
    hoist only in the full tier, only when the loop (including everything
    it calls, per the effect summaries) stores neither the field nor
    reaches a rendezvous, and only from blocks guaranteed to execute every
    time the loop is entered (blocks dominating every exit and back edge —
    otherwise the speculated read could fault where the original program
    did not).  Under a tracer the load stays put as a ``tload`` fed by a
    silent ``sload`` in the preheader, preserving the event position.

    Strength reduction rewrites ``j = i * k`` (``i`` a basic induction
    variable ``i = i ± c``, ``k`` and ``c`` invariant) into an
    accumulator updated by ``k*c`` right after each increment — the
    multiply inside the loop becomes a register move.
    """

    name = "loopopt"

    def run(self, module: IRModule) -> None:
        effects = _effect_summaries(module) if module.full else None
        for fn in module.funcs.values():
            self._function(module, fn, effects)

    def _function(self, module: IRModule, fn: IRFunction, effects) -> None:
        module.counters["loops_found"] += len(natural_loops(fn))
        # Each successful transformation rewires the CFG (a new preheader),
        # so rediscover loops from scratch after every change.
        for _ in range(24):
            changed = False
            for loop in natural_loops(fn):
                if self._optimize_loop(module, fn, loop, effects):
                    changed = True
                    break
            if not changed:
                return

    def _optimize_loop(self, module, fn: IRFunction, loop, effects) -> bool:
        if not fn.blocks or loop.header == fn.blocks[0].label:
            return False  # no spot for a preheader before the entry block
        blocks = fn.block_map()
        body = [blocks[label] for label in sorted(loop.body)]

        defs_in_loop: Dict[int, int] = {}
        stored_fields: Set[str] = set()
        stores_unknown = False
        sync = False
        for block in body:
            for ins in block.instrs:
                if ins.dest is not None:
                    defs_in_loop[ins.dest] = defs_in_loop.get(ins.dest, 0) + 1
                op = ins.op
                if op in ("store", "tstore"):
                    stored_fields.add(ins.args[1])
                elif op in ("send", "recv"):
                    sync = True
                elif op == "call":
                    cstores, csync = (effects or {}).get(
                        ins.args[0], (None, True)
                    )
                    if cstores is None:
                        stores_unknown = True
                    else:
                        stored_fields |= cstores
                    sync = sync or csync
        loads_ok = bool(effects) and not sync and not stores_unknown

        live_in, _live_out = liveness(fn)
        banned: Set[int] = set(live_in.get(loop.header, ()))
        exit_or_tail: Set[int] = set(loop.tails)
        for block in body:
            for succ in successors(block):
                if succ not in loop.body:
                    banned |= live_in.get(succ, set())
                    exit_or_tail.add(block.label)
        dom = dominators(fn)
        # Blocks that execute on *every* entry of the loop: they dominate
        # every block that can leave the loop body (exit or back edge).
        guaranteed = {
            label for label in loop.body
            if all(label in dom.get(x, ()) for x in exit_or_tail)
        }

        hoisted: List[Instr] = []
        hoisted_dests: Set[int] = set()

        def invariant(slot: int) -> bool:
            return defs_in_loop.get(slot, 0) == 0 or slot in hoisted_dests

        scanning = True
        while scanning:
            scanning = False
            for block in body:
                kept: List[Instr] = []
                for ins in block.instrs:
                    op = ins.op
                    movable = False
                    if op in ("load", "sload"):
                        if (
                            loads_ok
                            and block.label in guaranteed
                            and ins.args[1] not in stored_fields
                            and invariant(ins.args[0])
                        ):
                            if op == "load" and module.observable:
                                # Keep the event in place; prime a silent
                                # preheader read into a fresh cache slot.
                                cache = fn.new_slot()
                                hoisted.append(Instr(
                                    "sload", cache, ins.args[0], ins.args[1]
                                ))
                                kept.append(Instr(
                                    "tload", ins.dest, ins.args[0],
                                    ins.args[1], cache,
                                ))
                                module.counters["licm_hoisted"] += 1
                                scanning = True
                                continue
                            movable = (
                                defs_in_loop.get(ins.dest, 0) == 1
                                and ins.dest not in banned
                            )
                    elif op in _SPECULATABLE or (
                        op == "binop" and ins.args[0] not in ("/", "%")
                    ):
                        movable = (
                            all(invariant(s) for s in instr_uses(ins))
                            and defs_in_loop.get(ins.dest, 0) == 1
                            and ins.dest not in banned
                        )
                    if movable:
                        hoisted.append(ins)
                        hoisted_dests.add(ins.dest)
                        module.counters["licm_hoisted"] += 1
                        scanning = True
                    else:
                        kept.append(ins)
                block.instrs = kept

        if not hoisted:
            hoisted = self._strength_reduce(module, fn, loop, body,
                                            defs_in_loop)
        if not hoisted:
            return False
        self._add_preheader(fn, loop, hoisted)
        return True

    @staticmethod
    def _strength_reduce(module, fn: IRFunction, loop, body,
                         defs_in_loop) -> List[Instr]:
        """``j = i * k`` with a basic IV ``i`` → accumulator + additions.
        Returns the preheader initializers (empty when nothing applied)."""

        def invariant(slot: int) -> bool:
            return defs_in_loop.get(slot, 0) == 0

        # slot → ("+"|"-", step-slot) for each basic induction variable.
        ivs: Dict[int, Tuple[str, int]] = {}
        increments: Dict[int, Tuple[BasicBlock, Instr]] = {}
        for block in body:
            for ins in block.instrs:
                if (
                    ins.op == "binop"
                    and ins.dest is not None
                    and defs_in_loop.get(ins.dest) == 1
                ):
                    bop, l, r = ins.args
                    i = ins.dest
                    if bop == "+" and l == i and invariant(r):
                        ivs[i] = ("+", r)
                    elif bop == "+" and r == i and invariant(l):
                        ivs[i] = ("+", l)
                    elif bop == "-" and l == i and invariant(r):
                        ivs[i] = ("-", r)
                    else:
                        continue
                    increments[i] = (block, ins)

        inits: List[Instr] = []
        for block in body:
            for idx, ins in enumerate(list(block.instrs)):
                if ins.op != "binop" or ins.args[0] != "*":
                    continue
                j = ins.dest
                if j is None or defs_in_loop.get(j) != 1 or j in ivs:
                    continue
                _bop, l, r = ins.args
                if l in ivs and invariant(r):
                    i, k = l, r
                elif r in ivs and invariant(l):
                    i, k = r, l
                else:
                    continue
                inc_op, c = ivs[i]
                acc = fn.new_slot()
                step = fn.new_slot()
                # Preheader: acc = i*k (entry value), step = c*k.
                inits.append(Instr("binop", acc, "*", l, r))
                inits.append(Instr("binop", step, "*", c, k))
                # Keep acc ≡ i*k by bumping it right after the increment.
                inc_block, inc_ins = increments[i]
                pos = inc_block.instrs.index(inc_ins)
                inc_block.instrs.insert(
                    pos + 1, Instr("binop", acc, inc_op, acc, step)
                )
                # The in-loop multiply becomes a register move.
                where = block.instrs.index(ins)
                block.instrs[where] = Instr("mov", j, acc)
                module.counters["strength_reduced"] += 1
        return inits

    @staticmethod
    def _add_preheader(fn: IRFunction, loop, instrs: List[Instr]) -> None:
        pre = BasicBlock(fn.new_label(), instrs,
                         Instr("jmp", None, loop.header))
        for block in fn.blocks:
            if block.label in loop.body:
                continue  # back-edge predecessors keep targeting the header
            term = block.term
            if term is None:
                continue
            if term.op == "jmp" and term.args[0] == loop.header:
                term.args = (pre.label,)
            elif term.op == "br":
                t = pre.label if term.args[1] == loop.header else term.args[1]
                f = pre.label if term.args[2] == loop.header else term.args[2]
                term.args = (term.args[0], t, f)
        index = next(
            i for i, b in enumerate(fn.blocks) if b.label == loop.header
        )
        fn.blocks.insert(index, pre)


# ---------------------------------------------------------------------------
# Constant pooling and destination sinking (dispatch-count reduction)
# ---------------------------------------------------------------------------


class ConstPoolPass(Pass):
    """Move single-def constants into the frame prototype.

    A ``const`` whose destination is defined exactly once always produces
    the same value, so the value can live in a dedicated pool slot that the
    frame prototype (``BytecodeFunc.blank``) pre-initializes — the
    instruction then never executes at run time.  Constants inside loop
    bodies stop costing one dispatch per iteration.  Multi-def slots
    (surface variables reassigned to literals) are left alone.
    """

    name = "constpool"

    def run(self, module: IRModule) -> None:
        for fn in module.funcs.values():
            module.counters["consts_pooled"] += self._function(fn)

    @staticmethod
    def _function(fn: IRFunction) -> int:
        def_count: Dict[int, int] = {}
        const_defs: Dict[int, Instr] = {}
        for ins in fn.instructions():
            if ins.dest is not None:
                def_count[ins.dest] = def_count.get(ins.dest, 0) + 1
                if ins.op == "const":
                    const_defs[ins.dest] = ins
        pool: Dict[Tuple[type, object], int] = {}
        mapping: Dict[int, int] = {}
        for slot, ins in const_defs.items():
            if def_count[slot] != 1:
                continue
            value = ins.args[0]
            # Key by type too: True == 1 but bool and int pool separately.
            key = (value.__class__, value)
            p = pool.get(key)
            if p is None:
                p = pool[key] = fn.new_slot()
                fn.const_slots[p] = value
            mapping[slot] = p
        if not mapping:
            return 0
        for block in fn.blocks:
            block.instrs = [
                ins for ins in block.instrs
                if not (ins.op == "const" and ins.dest in mapping)
            ]
            for ins in block.instrs:
                rewrite_uses(ins, mapping)
            if block.term is not None:
                rewrite_uses(block.term, mapping)
        return len(mapping)


class SinkDestPass(Pass):
    """Merge ``X %t, ...; mov %v, %t`` into ``X %v, ...``.

    Lowering materializes every sub-expression into a fresh temporary and
    then moves it into the surface variable's slot; when the temporary has
    no other reader the move is pure dispatch overhead.  The producing
    instruction writes its destination after reading its operands, so the
    rewrite is safe even when ``%v`` appears among them.
    """

    name = "sinkdest"

    def run(self, module: IRModule) -> None:
        for fn in module.funcs.values():
            while self._function(module, fn):
                pass

    @staticmethod
    def _function(module: IRModule, fn: IRFunction) -> bool:
        use_count: Dict[int, int] = {}
        for ins in fn.instructions():
            for slot in instr_uses(ins):
                use_count[slot] = use_count.get(slot, 0) + 1
        changed = False
        for block in fn.blocks:
            instrs = block.instrs
            out: List[Instr] = []
            i = 0
            n = len(instrs)
            while i < n:
                ins = instrs[i]
                if (
                    i + 1 < n
                    and ins.dest is not None
                    and instrs[i + 1].op == "mov"
                    and instrs[i + 1].args[0] == ins.dest
                    and instrs[i + 1].dest != ins.dest
                    and use_count.get(ins.dest, 0) == 1
                ):
                    ins.dest = instrs[i + 1].dest
                    out.append(ins)
                    module.counters["dests_sunk"] += 1
                    changed = True
                    i += 2
                    continue
                out.append(ins)
                i += 1
            block.instrs = out
        return changed


# ---------------------------------------------------------------------------
# Self-tail-call elimination
# ---------------------------------------------------------------------------


class TailCallPass(Pass):
    """Rewrite self-recursive tail calls into parameter moves plus a jump
    back to the entry block, turning the recursion into a loop.

    A tail call is a block whose last instruction calls the enclosing
    function and whose terminator returns the call's destination —
    possibly through a chain of ``jmp`` join blocks whose only
    instructions are ``mov``s forwarding the result, which is how
    lowering shapes ``if``-expression results.  Skipping those movs on
    the looping path is sound: every slot use stays dominated by a def
    on every path from entry, so the slots they would have written are
    re-defined before any use the loop can reach.  The rewrite
    copies the argument slots into fresh temporaries and the temporaries
    into the parameter slots (the two-step dance is the parallel-move
    problem: an argument may itself live in a parameter slot); register
    allocation afterwards coalesces almost every one of these moves away,
    typically leaving a bare ``jmp``.

    Sound because lowering guarantees every slot use is dominated by a
    def (FCL variables are initialized at declaration), so re-entering
    the entry block with stale non-parameter slots can never expose an
    uninitialized read; and calls emit no heap event, so traces are
    unchanged.  Runs in the full tier only, and right before register
    allocation so liveness sees the loop (pool and parameter slots pick
    up the back-edge interference automatically).
    """

    name = "tailcall"

    def run(self, module: IRModule) -> None:
        if not module.full:
            return
        for fn in module.funcs.values():
            module.counters["tail_calls_looped"] += self._function(fn)

    @staticmethod
    def _returns_dest(blocks, term, dest) -> bool:
        """Does ``term`` reach a ``ret`` of ``dest``, crossing only jmp
        blocks made of result-forwarding movs?"""
        current = dest
        seen: Set[int] = set()
        while term is not None and term.op == "jmp":
            label = term.args[0]
            if label in seen:
                return False
            seen.add(label)
            block = blocks.get(label)
            if block is None:
                return False
            for ins in block.instrs:
                if ins.op != "mov":
                    return False
                if ins.args[0] == current:
                    current = ins.dest
                elif ins.dest == current:
                    return False
            term = block.term
        return (
            term is not None and term.op == "ret" and term.args[0] == current
        )

    @staticmethod
    def _function(fn: IRFunction) -> int:
        if not fn.blocks:
            return 0
        entry = fn.blocks[0].label
        blocks = fn.block_map()
        converted = 0
        for block in fn.blocks:
            if not block.instrs:
                continue
            last = block.instrs[-1]
            if last.op != "call" or last.args[0] != fn.name:
                continue
            if not TailCallPass._returns_dest(blocks, block.term, last.dest):
                continue
            argslots = last.args[1]
            block.instrs.pop()
            temps = [fn.new_slot() for _ in argslots]
            for temp, slot in zip(temps, argslots):
                block.instrs.append(Instr("mov", temp, slot))
            for param, temp in enumerate(temps):
                block.instrs.append(Instr("mov", param, temp))
            block.term = Instr("jmp", None, entry)
            converted += 1
        return converted


# ---------------------------------------------------------------------------
# Dead code elimination
# ---------------------------------------------------------------------------

_PURE_OPS = ("const", "mov", "unop", "binop", "isnone", "issome")


class DeadCodePass(Pass):
    """Remove pure instructions whose result is never used (global slot
    liveness).  Loads join the pure set only in the *unobserved* full tier
    — under a tracer every load is a trace event, so it must execute
    (``sload`` is the exception: it is silent by definition, so a dead one
    can always go)."""

    name = "dce"

    def run(self, module: IRModule) -> None:
        removable = _PURE_OPS + (("sload",) if module.full else ())
        if module.full and not module.observable:
            removable += ("load",)
        for fn in module.funcs.values():
            while self._sweep(fn, removable):
                pass

    @staticmethod
    def _sweep(fn: IRFunction, removable: Tuple[str, ...]) -> bool:
        _live_in, live_out = liveness(fn)
        changed = False
        for block in fn.blocks:
            live = set(live_out[block.label])
            if block.term is not None:
                live.update(instr_uses(block.term))
            kept: List[Instr] = []
            for ins in reversed(block.instrs):
                dest = ins.dest
                if (
                    dest is not None
                    and dest not in live
                    and ins.op in removable
                ):
                    changed = True
                    continue
                if dest is not None:
                    live.discard(dest)
                live.update(instr_uses(ins))
                kept.append(ins)
            kept.reverse()
            block.instrs = kept
        return changed


# ---------------------------------------------------------------------------
# Register allocation (frame-slot coalescing)
# ---------------------------------------------------------------------------


class RegAllocPass(Pass):
    """Collapse the append-only slot space via liveness-based coloring.

    Lowering and inlining only ever append slots, so by the end of the
    pipeline a frame can be several times larger than the number of values
    ever simultaneously live — and every call pays for it in the
    ``blank[:]`` frame copy.  This pass builds the slot interference graph
    (two slots interfere when one is defined while the other is live),
    aggressively coalesces ``mov``-related slots that do not interfere
    (Chaitin-style, which also deletes the mov), and greedily recolors
    everything into a dense range.

    Precoloring: parameters keep slots ``0..nparams-1`` (the call protocol
    writes arguments there before the first instruction).  Constant-pool
    slots have no def, so they get explicit mutual edges plus edges to
    everything valid at entry (parameters and entry-live slots) — after
    their last use their color is reusable, the pre-initialized value
    having served its purpose.  Runs last: every later pass would have to
    reason about slot sharing.
    """

    name = "regalloc"

    def run(self, module: IRModule) -> None:
        for fn in module.funcs.values():
            module.counters["slots_coalesced"] += self._function(fn)

    @staticmethod
    def _function(fn: IRFunction) -> int:
        if not fn.blocks:
            return 0
        nparams = fn.nparams
        old_nslots = fn.nslots
        pool = set(fn.const_slots)
        live_in, live_out = liveness(fn)

        adj: Dict[int, Set[int]] = {}

        def node(s: int) -> None:
            if s not in adj:
                adj[s] = set()

        def edge(a: int, b: int) -> None:
            if a != b:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)

        for p in range(nparams):
            node(p)
        for s in pool:
            node(s)
        # Everything holding a value at function entry must stay distinct.
        entry_atoms = sorted(
            set(range(nparams)) | pool | live_in.get(fn.blocks[0].label, set())
        )
        for i, a in enumerate(entry_atoms):
            for b in entry_atoms[i + 1:]:
                edge(a, b)

        for block in fn.blocks:
            live = set(live_out[block.label])
            seq = list(block.instrs)
            if block.term is not None:
                seq.append(block.term)
            for ins in reversed(seq):
                uses = instr_uses(ins)
                for s in uses:
                    node(s)
                dest = ins.dest
                if dest is not None:
                    node(dest)
                    # A def interferes with everything live after it —
                    # except a mov's own source, whose value it carries
                    # (the coalescing opportunity).
                    skip = ins.args[0] if ins.op == "mov" else None
                    for s in live:
                        if s != skip:
                            edge(dest, s)
                    live.discard(dest)
                live.update(uses)

        # Union-find with class-level adjacency and precolor tracking.
        parent = {s: s for s in adj}

        def find(s: int) -> int:
            while parent[s] != s:
                parent[s] = parent[parent[s]]
                s = parent[s]
            return s

        members: Dict[int, Set[int]] = {s: {s} for s in adj}
        cadj: Dict[int, Set[int]] = {s: set(neigh) for s, neigh in adj.items()}
        precolor: Dict[int, Optional[int]] = {
            s: (s if s < nparams else None) for s in adj
        }

        for ins in fn.instructions():
            if ins.op != "mov":
                continue
            d, s = ins.dest, ins.args[0]
            if d is None or d not in parent or s not in parent:
                continue
            rd, rs = find(d), find(s)
            if rd == rs:
                continue
            if precolor[rd] is not None and precolor[rs] is not None:
                continue  # two different parameters can never merge
            if cadj[rd] & members[rs]:
                continue  # the classes interfere somewhere
            winner, loser = (
                (rd, rs) if precolor[rd] is not None else (rs, rd)
            )
            parent[loser] = winner
            members[winner] |= members.pop(loser)
            cadj[winner] |= cadj.pop(loser)

        # Greedy coloring: parameters keep their index; everything else
        # takes the smallest color its neighbors have not claimed.
        color: Dict[int, int] = {}
        roots = {find(s) for s in adj}
        free_roots = []
        for r in roots:
            if precolor[r] is not None:
                color[r] = precolor[r]
            else:
                free_roots.append(r)
        for r in sorted(free_roots, key=lambda root: min(members[root])):
            used = set()
            for n in cadj[r]:
                c = color.get(find(n))
                if c is not None:
                    used.add(c)
            c = 0
            while c in used:
                c += 1
            color[r] = c

        mapping = {s: color[find(s)] for s in adj}
        for block in fn.blocks:
            out: List[Instr] = []
            for ins in block.instrs:
                rewrite_uses(ins, mapping)
                if ins.dest is not None:
                    ins.dest = mapping.get(ins.dest, ins.dest)
                if ins.op == "mov" and ins.dest == ins.args[0]:
                    continue  # the coalescing payoff
                out.append(ins)
            block.instrs = out
            if block.term is not None:
                rewrite_uses(block.term, mapping)
        fn.const_slots = {
            mapping.get(s, s): value for s, value in fn.const_slots.items()
        }
        fn.nslots = max(
            nparams, max(mapping.values(), default=nparams - 1) + 1
        )
        return max(0, old_nslots - fn.nslots)
