"""Context normalization and unification (§4.6, §5.1).

Branches of a conditional (and loop bodies, and function exits) must end in
*the same* static context.  There are many virtually-transformed variants of
equivalent contexts, so the checker:

1. **prunes** each side to a liveness-guided normal form — dead variables
   are dropped, unneeded tracking is retracted/unfocused, dead regions are
   dropped (the "liveness analysis as unification oracle" of §5.1);
2. **coarsens** region partitions with V5 Attach until live variables induce
   the same partition on both sides;
3. **reconciles** remaining tracking differences (focus/explore on the
   poorer side when possible, retract/unfocus on the richer side otherwise,
   ⊥-weakening as a last resort);
4. α-renames one side's regions onto the other and demands snapshot
   equality.

When the greedy pass fails, :func:`search_unify` performs the bounded
backtracking search the paper falls back to (worst-case exponential, §4.6).

All transformations applied are returned as ``Step`` records so they can be
embedded in derivations and re-validated by the verifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..lang.parser import parse_type_text
from ..telemetry import registry as _telemetry
from .contexts import ContextError, StaticContext
from .errors import UnificationError
from .regions import Region, RegionRenaming


@dataclass(frozen=True)
class Step:
    """One virtual transformation or weakening applied to a context."""

    rule: str  # "V1-Focus", "V2-Unfocus", "V3-Explore", "V4-Retract",
    #            "V5-Attach", "W-DropVar", "W-DropRegion",
    #            "W-InvalidateField", "W-Rename"
    args: Tuple

    def __str__(self) -> str:
        return f"{self.rule}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# Step application (shared with checker and verifier)
# ---------------------------------------------------------------------------


def apply_step(ctx: StaticContext, step: Step) -> None:
    """Apply a recorded step to a context (raises ContextError on violation).

    This is the single replay semantics shared by the prover (when it needs
    to re-apply a recorded transformation) and the independent verifier.
    """
    rule, args = step.rule, step.args
    if rule == "V1-Focus":
        ctx.focus(args[0])
    elif rule == "V2-Unfocus":
        ctx.unfocus(args[0])
    elif rule == "V3-Explore":
        name, fieldname, target = args
        # Explore normally mints a fresh region; during replay the recorded
        # region is reused so downstream steps refer to the right name.
        region = ctx.tracked_region_of(name)
        if region is None:
            raise ContextError(f"explore: {name!r} not focused")
        tv = ctx.heap[region].vars[name]
        if tv.pinned:
            raise ContextError(f"explore: variable {name!r} pinned")
        if fieldname in tv.fields:
            raise ContextError(f"explore: field {name}.{fieldname} already tracked")
        ctx.add_region(target)
        ctx.own_tracked(region, name).fields[fieldname] = target
        ctx.mark_dirty()
    elif rule == "V4-Retract":
        ctx.retract(args[0], args[1])
    elif rule == "V5-Attach":
        ctx.attach(args[0], args[1])
    elif rule == "W-DropVar":
        ctx.drop_var(args[0])
    elif rule == "W-DropRegion":
        ctx.drop_region(args[0])
    elif rule == "W-InvalidateField":
        ctx.invalidate_field(args[0], args[1])
    elif rule == "W-Rename":
        ctx.rename_region(args[0], args[1])
    elif rule == "W-RenameAll":
        renaming = RegionRenaming()
        for src, dest in args[0]:
            if not renaming.bind(src, dest):
                raise ContextError("W-RenameAll mapping is not injective")
        ctx.apply_renaming(renaming)
    elif rule == "W-FreshRegion":
        ctx.add_region(args[0])
    elif rule == "W-Bind":
        name, ty_text, region = args
        ty = parse_type_text(ty_text)
        if region is not None and region not in ctx.heap:
            raise ContextError(f"W-Bind: region {region} absent")
        ctx.set_binding(name, ty, region)
    elif rule == "W-GhostRename":
        name, ghost = args
        region = ctx.tracked_region_of(name)
        if region is None:
            raise ContextError(f"W-GhostRename: {name!r} not tracked")
        if ctx.tracked_region_of(ghost) is not None:
            raise ContextError(f"W-GhostRename: {ghost!r} already tracked")
        ctx.rename_tracked(region, name, ghost)
    elif rule == "T7-SetField":
        name, fieldname, target = args
        region = ctx.tracked_region_of(name)
        if region is None:
            raise ContextError(f"T7-SetField: {name!r} not focused")
        tv = ctx.heap[region].vars[name]
        if tv.pinned:
            raise ContextError(f"T7-SetField: {name!r} is pinned")
        if target not in ctx.heap:
            raise ContextError(f"T7-SetField: target region {target} absent")
        ctx.own_tracked(region, name).fields[fieldname] = target
        ctx.mark_dirty()
    elif rule == "T16-ConsumeRegion":
        ctx.consume_region_for_send(args[0])
    else:
        raise ContextError(f"unknown step {rule}")


# ---------------------------------------------------------------------------
# Pruning: liveness-guided normal form
# ---------------------------------------------------------------------------


def prune(
    ctx: StaticContext,
    live: FrozenSet[str],
    protect: FrozenSet[Region] = frozenset(),
) -> List[Step]:
    """Reduce ``ctx`` to its normal form w.r.t. the live-variable set.

    Mutates ``ctx``; returns the steps applied.  ``protect`` lists regions
    that must survive even without live variables (e.g. non-consumed
    parameter regions at function exit).
    """
    steps: List[Step] = []

    # 0. Dead Γ bindings go first so they don't anchor regions.
    for name in sorted(ctx.gamma):
        if name not in live:
            ctx.drop_var(name)
            steps.append(Step("W-DropVar", (name,)))

    def anchored() -> Set[Region]:
        out = set(protect)
        for binding in ctx.gamma.values():
            if binding.region is not None:
                out.add(binding.region)
        return out

    # 1. Fixpoint: retract dead tracked fields, unfocus empty tracked vars.
    changed = True
    while changed:
        changed = False
        anchor = anchored()
        for region in sorted(ctx.heap):
            tc = ctx.heap.get(region)
            if tc is None or tc.pinned:
                continue
            for name in sorted(tc.vars):
                tv = tc.vars[name]
                if tv.pinned:
                    continue
                for fieldname in sorted(tv.fields):
                    target = tv.fields[fieldname]
                    if target is None or target in anchor:
                        continue
                    target_tc = ctx.heap.get(target)
                    if target_tc is None or target_tc.pinned or not target_tc.is_empty:
                        continue
                    if len(ctx.inbound_refs(target)) > 1:
                        continue
                    ctx.retract(name, fieldname)
                    steps.append(Step("V4-Retract", (name, fieldname)))
                    changed = True
                if not tv.fields and name in tc.vars:
                    ctx.unfocus(name)
                    steps.append(Step("V2-Unfocus", (name,)))
                    changed = True

    # 2. Drop unreachable regions: keep anchored regions plus everything
    #    reachable from them through remaining tracked-field mappings.
    keep = anchored()
    frontier = list(keep)
    while frontier:
        region = frontier.pop()
        tc = ctx.heap.get(region)
        if tc is None:
            continue
        for tv in tc.vars.values():
            for target in tv.fields.values():
                if target is not None and target not in keep:
                    keep.add(target)
                    frontier.append(target)
    for region in sorted(ctx.heap):
        if region not in keep and not ctx.heap[region].pinned:
            ctx.drop_region(region)
            steps.append(Step("W-DropRegion", (region,)))

    return steps


# ---------------------------------------------------------------------------
# Greedy matching of two pruned contexts
# ---------------------------------------------------------------------------


def _var_partition(ctx: StaticContext) -> Dict[str, Region]:
    return {
        name: binding.region
        for name, binding in ctx.gamma.items()
        if binding.region is not None
    }


def _coarsen_partitions(
    ctx_a: StaticContext, ctx_b: StaticContext
) -> Tuple[List[Step], List[Step]]:
    """Apply V5 Attach on both sides until live variables induce the same
    region partition (the finest common coarsening)."""
    steps_a: List[Step] = []
    steps_b: List[Step] = []

    # Union-find over variable names.
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    part_a = _var_partition(ctx_a)
    part_b = _var_partition(ctx_b)
    names = sorted(set(part_a) & set(part_b))
    for ctx_part in (part_a, part_b):
        by_region: Dict[Region, List[str]] = {}
        for name in names:
            by_region.setdefault(ctx_part[name], []).append(name)
        for group in by_region.values():
            for other in group[1:]:
                union(group[0], other)

    # For each equivalence class, attach all its regions into one per side.
    classes: Dict[str, List[str]] = {}
    for name in names:
        classes.setdefault(find(name), []).append(name)
    for members in classes.values():
        for ctx, part, steps in (
            (ctx_a, part_a, steps_a),
            (ctx_b, part_b, steps_b),
        ):
            regions = sorted({part[m] for m in members})
            dest = regions[0]
            for src in regions[1:]:
                ctx.attach(src, dest)
                steps.append(Step("V5-Attach", (src, dest)))
    return steps_a, steps_b


def _build_renaming(
    ctx_a: StaticContext, ctx_b: StaticContext
) -> Tuple[RegionRenaming, List[Tuple[Region, Region]], List[Tuple[Region, Region]]]:
    """Region correspondence B→A from variable anchors plus tracked-field
    structure.

    When two distinct regions on one side both need to correspond to a
    single region on the other, they must be *merged* (V5 Attach) on the
    finer side; such (src, dest) merge suggestions are returned for
    ``match_contexts`` to apply.
    """
    renaming = RegionRenaming()
    merges_a: List[Tuple[Region, Region]] = []
    merges_b: List[Tuple[Region, Region]] = []

    def bind_or_merge(tb: Region, ta: Region) -> bool:
        if renaming.bind(tb, ta):
            return True
        if renaming.has_source(tb) and renaming.lookup(tb) != ta:
            # tb already maps to some other A region: merge on the A side.
            merges_a.append((ta, renaming.lookup(tb)))
        if renaming.has_target(ta) and renaming.inverse(ta) != tb:
            # Some other B region already maps to ta: merge on the B side.
            merges_b.append((tb, renaming.inverse(ta)))
        return False

    part_a = _var_partition(ctx_a)
    part_b = _var_partition(ctx_b)
    for name in sorted(set(part_a) & set(part_b)):
        bind_or_merge(part_b[name], part_a[name])
    # Propagate through matching tracked fields.
    changed = True
    while changed:
        changed = False
        for region_b in sorted(ctx_b.heap):
            if not renaming.has_source(region_b):
                continue
            region_a = renaming.lookup(region_b)
            if region_a not in ctx_a.heap:
                continue
            tc_a, tc_b = ctx_a.heap[region_a], ctx_b.heap[region_b]
            for name in set(tc_a.vars) & set(tc_b.vars):
                fields_a = tc_a.vars[name].fields
                fields_b = tc_b.vars[name].fields
                for f in set(fields_a) & set(fields_b):
                    ta, tb = fields_a[f], fields_b[f]
                    if ta is None or tb is None:
                        continue
                    if not renaming.has_source(tb) or not renaming.has_target(ta):
                        if bind_or_merge(tb, ta):
                            changed = True
    return renaming, merges_a, merges_b


def _reconcile_tracking(
    ctx_a: StaticContext,
    ctx_b: StaticContext,
    renaming: RegionRenaming,
) -> Tuple[List[Step], List[Step], bool]:
    """One pass of tracking reconciliation.  Returns (steps_a, steps_b,
    progressed)."""
    steps_a: List[Step] = []
    steps_b: List[Step] = []

    def anchor_regions(ctx: StaticContext) -> Set[Region]:
        return {
            b.region for b in ctx.gamma.values() if b.region is not None
        }

    def bind_pair(in_a: Region, in_b: Region) -> None:
        renaming.bind(in_b, in_a)

    def steps_for(ctx: StaticContext) -> List[Step]:
        return steps_a if ctx is ctx_a else steps_b

    def other(ctx: StaticContext) -> StaticContext:
        return ctx_b if ctx is ctx_a else ctx_a

    def try_drop_tracking(rich: StaticContext, name: str) -> bool:
        """Retract all of ``name``'s tracked fields then unfocus, when every
        target is a droppable (dead, empty, singly-referenced) region."""
        tv = rich.tracked_var(name)
        if tv is None or tv.pinned:
            return False
        anchor = anchor_regions(rich)
        for fieldname, target in tv.fields.items():
            if target is None or target in anchor:
                return False
            target_tc = rich.heap.get(target)
            if target_tc is None or not target_tc.is_empty or target_tc.pinned:
                return False
            if len(rich.inbound_refs(target)) != 1:
                return False
        for fieldname in sorted(tv.fields):
            rich.retract(name, fieldname)
            steps_for(rich).append(Step("V4-Retract", (name, fieldname)))
        rich.unfocus(name)
        steps_for(rich).append(Step("V2-Unfocus", (name,)))
        return True

    def try_focus(poor: StaticContext, poor_region: Region, name: str) -> bool:
        if not poor.has_var(name):
            return False
        if poor.gamma[name].region != poor_region:
            return False
        if not poor.heap[poor_region].is_empty or poor.heap[poor_region].pinned:
            return False
        poor.focus(name)
        steps_for(poor).append(Step("V1-Focus", (name,)))
        return True

    def explore_on(poor: StaticContext, name: str, fieldname: str) -> Region:
        fresh = poor.supply.fresh()
        step = Step("V3-Explore", (name, fieldname, fresh))
        apply_step(poor, step)
        steps_for(poor).append(step)
        return fresh

    # Walk region pairs related by the renaming.
    for region_b in sorted(ctx_b.heap):
        if not renaming.has_source(region_b):
            continue
        region_a = renaming.lookup(region_b)
        if region_a not in ctx_a.heap:
            continue
        tc_a, tc_b = ctx_a.heap[region_a], ctx_b.heap[region_b]

        # Variables tracked on exactly one side.
        for rich, rich_region, poor, poor_region in (
            (ctx_a, region_a, ctx_b, region_b),
            (ctx_b, region_b, ctx_a, region_a),
        ):
            rich_tc = rich.heap[rich_region]
            poor_tc = poor.heap[poor_region]
            for name in sorted(set(rich_tc.vars) - set(poor_tc.vars)):
                tv = rich_tc.vars[name]
                if tv.pinned:
                    continue
                if try_drop_tracking(rich, name):
                    return steps_a, steps_b, True
                if try_focus(poor, poor_region, name):
                    for fieldname in sorted(tv.fields):
                        rich_target = tv.fields[fieldname]
                        fresh = explore_on(poor, name, fieldname)
                        if rich_target is not None:
                            if rich is ctx_a:
                                bind_pair(rich_target, fresh)
                            else:
                                bind_pair(fresh, rich_target)
                    return steps_a, steps_b, True
                # Stuck on this variable; other discrepancies may unblock it.
                continue

        # Same variable tracked on both sides: align field maps.
        for name in sorted(set(tc_a.vars) & set(tc_b.vars)):
            tv_a, tv_b = tc_a.vars[name], tc_b.vars[name]
            for f in sorted(set(tv_a.fields) ^ set(tv_b.fields)):
                rich = ctx_a if f in tv_a.fields else ctx_b
                poor = other(rich)
                rich_tv = tv_a if rich is ctx_a else tv_b
                target = rich_tv.fields[f]
                anchor = anchor_regions(rich)
                target_tc = rich.heap.get(target) if target is not None else None
                if (
                    target is not None
                    and target not in anchor
                    and target_tc is not None
                    and target_tc.is_empty
                    and not target_tc.pinned
                    and len(rich.inbound_refs(target)) == 1
                ):
                    rich.retract(name, f)
                    steps_for(rich).append(Step("V4-Retract", (name, f)))
                else:
                    fresh = explore_on(poor, name, f)
                    if target is not None:
                        if rich is ctx_a:
                            bind_pair(target, fresh)
                        else:
                            bind_pair(fresh, target)
                return steps_a, steps_b, True
            # Both track f: ⊥ on one side forces ⊥ on the other.
            for f in sorted(set(tv_a.fields) & set(tv_b.fields)):
                none_a = tv_a.fields[f] is None
                none_b = tv_b.fields[f] is None
                if none_a != none_b:
                    side = ctx_b if none_a else ctx_a
                    side.invalidate_field(name, f)
                    steps_for(side).append(Step("W-InvalidateField", (name, f)))
                    return steps_a, steps_b, True
    return steps_a, steps_b, False


def _snapshots_match(
    ctx_a: StaticContext, ctx_b: StaticContext, renaming: RegionRenaming
) -> bool:
    probe = ctx_b.clone()
    # Complete the renaming with identity for unmapped regions, avoiding
    # collisions by routing through fresh names when necessary.
    try:
        full = RegionRenaming()
        for region in probe.heap:
            target = renaming.apply(region)
            if not full.bind(region, target):
                return False
        probe.apply_renaming(full)
    except ContextError:
        return False
    return probe.snapshot() == ctx_a.snapshot()


def _finish_match(
    ctx_a: StaticContext,
    ctx_b: StaticContext,
    renaming: RegionRenaming,
    steps_b: List[Step],
) -> None:
    """Complete ``renaming`` to a total injective map on ctx_b's regions and
    apply it, making ctx_b literally equal to ctx_a.  Records a W-RenameAll
    step so the verifier can replay the alignment."""
    full = RegionRenaming()
    used_targets = {t for _s, t in renaming.items()}
    for region in sorted(ctx_b.heap):
        if renaming.has_source(region):
            full.bind(region, renaming.lookup(region))
    for region in sorted(ctx_b.heap):
        if full.has_source(region):
            continue
        if region not in used_targets and not full.has_target(region):
            full.bind(region, region)
        else:
            fresh = ctx_b.supply.fresh()
            full.bind(region, fresh)
    pairs = tuple(sorted(full.items()))
    if any(src != dest for src, dest in pairs):
        ctx_b.apply_renaming(full)
        steps_b.append(Step("W-RenameAll", (pairs,)))
    if ctx_b.snapshot() != ctx_a.snapshot():
        raise UnificationError(
            "internal: contexts diverged after renaming\n"
            f"  left : {ctx_a}\n  right: {ctx_b}"
        )


def match_contexts(
    ctx_a: StaticContext,
    ctx_b: StaticContext,
    live: FrozenSet[str],
    protect: FrozenSet[Region] = frozenset(),
) -> Tuple[RegionRenaming, List[Step], List[Step]]:
    """Transform both contexts (greedily) until ``ctx_b`` *equals* ``ctx_a``
    (a final W-RenameAll aligns region names).

    Returns the B→A renaming plus the steps applied per side.  Raises
    :class:`UnificationError` when the greedy procedure gets stuck.
    """
    tel = _telemetry()
    if tel.enabled:
        tel.inc("unify.greedy.calls")
    steps_a = prune(ctx_a, live, protect)
    steps_b = prune(ctx_b, live, protect)

    if set(ctx_a.gamma) != set(ctx_b.gamma):
        only_a = set(ctx_a.gamma) - set(ctx_b.gamma)
        only_b = set(ctx_b.gamma) - set(ctx_a.gamma)
        if tel.enabled:
            tel.inc("unify.greedy.failures")
        raise UnificationError(
            "branches disagree on live variables: "
            f"only-left={sorted(only_a)} only-right={sorted(only_b)}"
        )
    for name in ctx_a.gamma:
        if str(ctx_a.gamma[name].ty) != str(ctx_b.gamma[name].ty):
            if tel.enabled:
                tel.inc("unify.greedy.failures")
            raise UnificationError(
                f"variable {name!r} has type {ctx_a.gamma[name].ty} in one "
                f"branch and {ctx_b.gamma[name].ty} in the other"
            )

    ca, cb = _coarsen_partitions(ctx_a, ctx_b)
    steps_a.extend(ca)
    steps_b.extend(cb)

    for _ in range(64):  # progress-bounded reconciliation
        renaming, merges_a, merges_b = _build_renaming(ctx_a, ctx_b)
        if not merges_a and not merges_b and _snapshots_match(ctx_a, ctx_b, renaming):
            _finish_match(ctx_a, ctx_b, renaming, steps_b)
            if tel.enabled:
                tel.inc("unify.greedy.matches")
                tel.inc("unify.steps", len(steps_a) + len(steps_b))
            return renaming, steps_a, steps_b
        merged = False
        for ctx, merges, steps in (
            (ctx_a, merges_a, steps_a),
            (ctx_b, merges_b, steps_b),
        ):
            for src, dest in merges:
                if src == dest or src not in ctx.heap or dest not in ctx.heap:
                    continue
                try:
                    ctx.attach(src, dest)
                except ContextError:
                    continue
                steps.append(Step("V5-Attach", (src, dest)))
                merged = True
        if merged:
            continue
        ra, rb, progressed = _reconcile_tracking(ctx_a, ctx_b, renaming)
        steps_a.extend(ra)
        steps_b.extend(rb)
        if not progressed:
            break

    renaming, merges_a, merges_b = _build_renaming(ctx_a, ctx_b)
    if not merges_a and not merges_b and _snapshots_match(ctx_a, ctx_b, renaming):
        _finish_match(ctx_a, ctx_b, renaming, steps_b)
        if tel.enabled:
            tel.inc("unify.greedy.matches")
            tel.inc("unify.steps", len(steps_a) + len(steps_b))
        return renaming, steps_a, steps_b
    if tel.enabled:
        tel.inc("unify.greedy.failures")
    raise UnificationError(
        "could not unify branch contexts:\n"
        f"  left : {ctx_a}\n  right: {ctx_b}"
    )


# ---------------------------------------------------------------------------
# Backtracking fallback (§4.6): bounded search over virtual transformations
# ---------------------------------------------------------------------------


def _candidate_steps(ctx: StaticContext) -> Iterable[Step]:
    """Enumerate all virtual transformations applicable to ``ctx``."""
    for region in sorted(ctx.heap):
        tc = ctx.heap[region]
        if tc.pinned:
            continue
        if tc.is_empty:
            for name in sorted(ctx.vars_in_region(region)):
                yield Step("V1-Focus", (name,))
        for name in sorted(tc.vars):
            tv = tc.vars[name]
            if tv.pinned:
                continue
            if not tv.fields:
                yield Step("V2-Unfocus", (name,))
            for fieldname in sorted(tv.fields):
                target = tv.fields[fieldname]
                if target is None:
                    continue
                target_tc = ctx.heap.get(target)
                if target_tc is not None and target_tc.is_empty and not target_tc.pinned:
                    yield Step("V4-Retract", (name, fieldname))
    regions = sorted(ctx.heap)
    for src, dest in itertools.permutations(regions, 2):
        if not ctx.heap[src].pinned and not ctx.heap[dest].pinned:
            yield Step("V5-Attach", (src, dest))


def search_unify(
    ctx_a: StaticContext,
    ctx_b: StaticContext,
    live: FrozenSet[str],
    max_depth: int = 6,
    max_states: int = 50_000,
) -> Tuple[StaticContext, StaticContext, List[Step], List[Step]]:
    """Exhaustive bounded search for a unifying pair of transformation
    sequences — the worst-case-exponential fallback of §4.6.

    Returns transformed copies of both contexts whose snapshots α-match,
    plus the step sequences that reached them.  Used by benchmarks to
    contrast with the liveness-oracle greedy path, and by the checker as a
    fallback.
    """
    tel = _telemetry()
    if tel.enabled:
        tel.inc("unify.search.calls")
    start_a = ctx_a.clone()
    start_b = ctx_b.clone()
    steps0_a = prune(start_a, live)
    steps0_b = prune(start_b, live)

    def norm(ctx: StaticContext) -> Tuple:
        # Snapshot modulo order-preserving region renaming; cached on the
        # context and invalidated by its mutation generation counter, so
        # re-probing an unchanged state is a dict hit, not a recomputation.
        return ctx.canonical_key()

    State = Tuple[StaticContext, List[Step]]
    frontier_a: Dict[Tuple, State] = {norm(start_a): (start_a, steps0_a)}
    frontier_b: Dict[Tuple, State] = {norm(start_b): (start_b, steps0_b)}
    seen_a: Dict[Tuple, State] = dict(frontier_a)
    seen_b: Dict[Tuple, State] = dict(frontier_b)

    def finish(key: Tuple) -> Tuple[StaticContext, StaticContext, List[Step], List[Step]]:
        if tel.enabled:
            tel.inc("unify.search.matches")
            tel.inc("unify.search.states", len(seen_a) + len(seen_b))
        found_a, path_a = seen_a[key]
        found_b, path_b = seen_b[key]
        # Align region names: both normalize to `key`, so mapping each
        # region through its canonical index gives a B→A renaming.
        canon_b = _canonical_region_order(found_b)
        canon_a = _canonical_region_order(found_a)
        renaming = RegionRenaming()
        for region_b, index in canon_b.items():
            for region_a, index_a in canon_a.items():
                if index_a == index:
                    renaming.bind(region_b, region_a)
        path_b = list(path_b)
        _finish_match(found_a, found_b, renaming, path_b)
        return found_a, found_b, list(path_a), path_b

    for _ in range(max_depth):
        common = set(seen_a) & set(seen_b)
        if common:
            return finish(sorted(common)[0])
        next_a: Dict[Tuple, State] = {}
        next_b: Dict[Tuple, State] = {}
        for frontier, seen, nxt in (
            (frontier_a, seen_a, next_a),
            (frontier_b, seen_b, next_b),
        ):
            for ctx, path in list(frontier.values()):
                for step in _candidate_steps(ctx):
                    if len(seen) > max_states:
                        break
                    candidate = ctx.clone()
                    try:
                        apply_step(candidate, step)
                    except ContextError:
                        continue
                    key = norm(candidate)
                    if key not in seen:
                        state = (candidate, path + [step])
                        seen[key] = state
                        nxt[key] = state
        frontier_a, frontier_b = next_a, next_b
        if not frontier_a and not frontier_b:
            break

    common = set(seen_a) & set(seen_b)
    if common:
        return finish(sorted(common)[0])
    if tel.enabled:
        tel.inc("unify.search.failures")
        tel.inc("unify.search.states", len(seen_a) + len(seen_b))
    raise UnificationError("bounded search failed to unify branch contexts")


def _canonical_region_order(ctx: StaticContext) -> Dict[Region, int]:
    """Canonical index per region, in the same order ``norm`` assigns them."""
    mapping: Dict[Region, int] = {}

    def canon(region: Region) -> None:
        if region not in mapping:
            mapping[region] = len(mapping)

    for name in sorted(ctx.gamma):
        binding = ctx.gamma[name]
        if binding.region is not None:
            canon(binding.region)
    for region in sorted(ctx.heap):
        canon(region)
        for x in sorted(ctx.heap[region].vars):
            for f in sorted(ctx.heap[region].vars[x].fields):
                target = ctx.heap[region].vars[x].fields[f]
                if target is not None:
                    canon(target)
    return mapping
