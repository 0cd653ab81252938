"""Independent derivation verifier — the "Coq side" of the paper's
prover–verifier architecture (§5).

The prover (:mod:`repro.core.checker`) performs heuristic search; nothing it
does is trusted here.  The verifier re-validates a :class:`ProgramDerivation`
node by node:

* every node's *pre* and *post* contexts are reconstructed from their
  snapshots and checked well-formed — once per distinct snapshot of a
  function certificate: a child's *pre* is its predecessor's *post*, so
  the same snapshot recurs at many nodes, and every use after the first
  takes an O(1) persistent clone of the one reconstruction;
* children must chain: each child starts exactly where its predecessor (or
  the parent) ended;
* all recorded virtual transformations and weakenings are **replayed**
  through :func:`repro.core.unify.apply_step`, whose context operations
  raise on any violated side condition (focus of a non-empty region,
  retract of a non-empty target, use of a pinned element, …) — so a
  derivation that replays successfully respects every V-rule premise;
* rule-specific side conditions (T2's capability check, T5's tracking
  requirement, T9's separation requirement, T16's isolation requirement,
  the declared-interface shape for T0, …) are re-checked declaratively.

A verified derivation certifies that the prover's *output* is a real typing
derivation of the tempered-domination type system, independent of how the
prover found it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.contexts import (
    Binding,
    ContextError,
    ContextSnap,
    StaticContext,
    TrackedVar,
    TrackingContext,
)
from ..core.derivation import Derivation, FuncDerivation, ProgramDerivation
from ..core.functypes import FuncType, elaborate
from ..core.regions import Region, RegionSupply
from ..core.unify import Step, apply_step
from ..lang import ast
from ..lang.parser import parse_type_text
from ..telemetry import registry as _telemetry


class VerificationError(Exception):
    """The derivation is not a valid typing derivation."""

    def __init__(self, message: str, node: Optional[Derivation] = None):
        if node is not None:
            message = f"{node.rule} [{node.expr}]: {message}"
        super().__init__(message)
        self.node = node


def context_from_snapshot(snap: ContextSnap) -> StaticContext:
    """Reconstruct a full StaticContext from its canonical snapshot."""
    heap_snap, gamma_snap = snap
    max_id = -1
    ctx = StaticContext(RegionSupply())
    for rid, pinned, vars_snap in heap_snap:
        region = Region(rid)
        max_id = max(max_id, rid)
        tc = TrackingContext(pinned=pinned)
        for name, vpinned, fields in vars_snap:
            tv = TrackedVar(pinned=vpinned)
            for fname, target in fields:
                tv.fields[fname] = None if target < 0 else Region(target)
                max_id = max(max_id, target)
            tc.vars[name] = tv
        ctx.heap[region] = tc
    for name, ty_text, rid in gamma_snap:
        region = None if rid < 0 else Region(rid)
        max_id = max(max_id, rid)
        ctx.gamma[name] = Binding(parse_type_text(ty_text), region)
    ctx.supply = RegionSupply(max_id + 1)
    # The graph was assembled from scratch above; claiming ownership lets
    # a caller edit it in place without path-copying.
    ctx.claim_ownership()
    ctx.mark_dirty()
    return ctx


class Verifier:
    """Re-validates every function derivation of a program."""

    def __init__(
        self,
        program: ast.Program,
        functypes: Optional[Dict[str, FuncType]] = None,
    ):
        self.program = program
        # Batch callers (repro.pipeline) pass the checker's already
        # elaborated table so a program is elaborated once, not once per
        # tool; nothing in it is trusted — elaboration is deterministic
        # and both sides recompute from the same surface syntax.
        self.functypes: Dict[str, FuncType] = (
            functypes
            if functypes is not None
            else {
                name: elaborate(fdef, program)
                for name, fdef in program.funcs.items()
            }
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def verify_program(self, pd: ProgramDerivation) -> int:
        """Verify all function derivations; returns the node count checked."""
        tel = _telemetry()
        if not tel.enabled:
            return self._verify_program(pd)
        with tel.span("verify.program"):
            count = self._verify_program(pd)
        tel.inc("verifier.certificates", len(pd.funcs))
        return count

    def _verify_program(self, pd: ProgramDerivation) -> int:
        count = 0
        for name in self.program.funcs:
            if name not in pd.funcs:
                raise VerificationError(f"missing derivation for function {name!r}")
            count += self.verify_function(pd.funcs[name])
        return count

    def verify_function(self, fd: FuncDerivation) -> int:
        tel = _telemetry()
        if tel.enabled:
            with tel.span(f"verify.fn.{fd.name}"):
                return _CertificateCheck(self).verify(fd)
        return _CertificateCheck(self).verify(fd)


class _CertificateCheck:
    """The verification of one function certificate.  Each distinct
    snapshot is rebuilt and checked well-formed once into a base context;
    replay takes a ``clone()``, so the base never changes.  The table dies
    with the check: a long-lived :class:`Verifier` holds nothing."""

    def __init__(self, verifier: Verifier):
        self.program = verifier.program
        self.functypes = verifier.functypes
        self._bases: Dict[ContextSnap, Tuple[StaticContext, Optional[str]]] = {}

    def _entry(self, snap: ContextSnap) -> Tuple[StaticContext, Optional[str]]:
        entry = self._bases.get(snap)
        if entry is None:
            ctx = context_from_snapshot(snap)
            try:
                ctx.check_well_formed()
                problem = None
            except ContextError as exc:
                problem = str(exc)
            entry = self._bases[snap] = (ctx, problem)
            tel = _telemetry()
            if tel.enabled:
                tel.inc("verifier.contexts_built")
        return entry

    def _base(self, snap: ContextSnap) -> StaticContext:
        """The shared reconstruction of ``snap``: read it, never mutate it."""
        return self._entry(snap)[0]

    def _copy(self, snap: ContextSnap) -> StaticContext:
        """A private, mutable copy of the context ``snap`` denotes."""
        return self._base(snap).clone()

    def _checked(self, snap: ContextSnap) -> StaticContext:
        """The shared reconstruction of ``snap``, which must be well formed
        (a fresh :class:`ContextError` per use otherwise)."""
        ctx, problem = self._entry(snap)
        if problem is not None:
            raise ContextError(problem)
        return ctx

    def verify(self, fd: FuncDerivation) -> int:
        ftype = self.functypes.get(fd.name)
        if ftype is None:
            raise VerificationError(f"derivation for unknown function {fd.name!r}")
        self._check_interface(ftype, fd)
        node = fd.body
        if node.rule != "T0-Function-Definition":
            raise VerificationError("function derivation must be rooted at T0", node)
        if node.pre != fd.input_snap or node.post != fd.output_snap:
            raise VerificationError("T0 snapshots disagree with the interface", node)
        if node.type_ != fd.result_type or node.region != fd.result_region:
            raise VerificationError("T0 result type/region disagree with the interface", node)
        post = self._base(fd.output_snap)
        declared_result = post.lookup(RESULT)
        declared_region = (
            None if declared_result.region is None else declared_result.region.ident
        )
        if declared_region != fd.result_region:
            raise VerificationError(
                "interface result region disagrees with the output context", node
            )
        if len(node.children) != 1:
            raise VerificationError("T0 must have exactly the body child", node)
        body = node.children[0]
        if body.pre != node.pre:
            raise VerificationError("body does not start at the input context", node)
        count = self._verify_node(body)
        ctx = self._copy(body.post)
        ctx.bind(RESULT, parse_type_text(body.type_), _region(body.region))
        self._replay(ctx, node.steps, node)
        if ctx.snapshot() != node.post:
            raise VerificationError(
                "function-exit steps do not reach the declared output", node
            )
        return count + 1

    # ------------------------------------------------------------------
    # Interface shape
    # ------------------------------------------------------------------

    def _check_interface(self, ftype: FuncType, fd: FuncDerivation) -> None:
        pre = self._checked(fd.input_snap)
        # Params bound with the declared types; region variables realized
        # injectively; tracking contexts empty and unpinned at input.
        realized: Dict[int, Region] = {}
        for pname, pty in ftype.params:
            if not pre.has_var(pname):
                raise VerificationError(
                    f"{fd.name}: parameter {pname!r} missing from input context"
                )
            binding = pre.lookup(pname)
            if str(binding.ty) != str(pty):
                raise VerificationError(
                    f"{fd.name}: parameter {pname!r} bound at {binding.ty}, "
                    f"declared {pty}"
                )
            rv = ftype.input_region[pname]
            if rv is None:
                if binding.region is not None:
                    raise VerificationError(
                        f"{fd.name}: primitive parameter {pname!r} has a region"
                    )
                continue
            if binding.region is None:
                raise VerificationError(
                    f"{fd.name}: parameter {pname!r} lacks a region"
                )
            if rv in realized and realized[rv] != binding.region:
                raise VerificationError(
                    f"{fd.name}: region variable ρ{rv} realized inconsistently"
                )
            realized[rv] = binding.region
        if len(set(realized.values())) != len(realized):
            raise VerificationError(
                f"{fd.name}: distinct region variables share one region at input"
            )
        if len(pre.gamma) != len(ftype.params):
            raise VerificationError(f"{fd.name}: extra input bindings")
        pinned_regions = {
            pre.lookup(p).region for p in ftype.pinned if pre.has_var(p)
        }
        for region, tc in pre.heap.items():
            if not tc.is_empty:
                raise VerificationError(
                    f"{fd.name}: input region {region} is not empty"
                )
            if tc.pinned != (region in pinned_regions):
                raise VerificationError(
                    f"{fd.name}: input region {region} pin status disagrees "
                    "with the pinned-parameter declaration"
                )
        if set(pre.heap) != set(realized.values()):
            raise VerificationError(f"{fd.name}: stray input regions")

        post = self._checked(fd.output_snap)
        out_realized: Dict[int, Region] = {}
        expected_vars = set()
        for pname, pty in ftype.params:
            if pname in ftype.consumes:
                if post.has_var(pname):
                    raise VerificationError(
                        f"{fd.name}: consumed parameter {pname!r} present at output"
                    )
                continue
            expected_vars.add(pname)
            if not post.has_var(pname):
                raise VerificationError(
                    f"{fd.name}: parameter {pname!r} missing from output context"
                )
            rv = ftype.output_region.get(pname)
            binding = post.lookup(pname)
            if rv is None:
                continue
            if binding.region is None:
                raise VerificationError(
                    f"{fd.name}: output parameter {pname!r} lacks a region"
                )
            if rv in out_realized and out_realized[rv] != binding.region:
                raise VerificationError(
                    f"{fd.name}: output region variable ρ{rv} inconsistent"
                )
            out_realized[rv] = binding.region
        if not post.has_var(RESULT):
            raise VerificationError(f"{fd.name}: output lacks the result binding")
        result_binding = post.lookup(RESULT)
        if str(result_binding.ty) != str(ftype.return_type):
            raise VerificationError(
                f"{fd.name}: result type {result_binding.ty} != declared "
                f"{ftype.return_type}"
            )
        if (ftype.result_region is None) != (result_binding.region is None):
            raise VerificationError(f"{fd.name}: result region presence mismatch")
        if ftype.result_region is not None:
            rv = ftype.result_region
            if rv in out_realized and out_realized[rv] != result_binding.region:
                raise VerificationError(f"{fd.name}: result region inconsistent")
            out_realized[rv] = result_binding.region
        # Declared output tracking must be present; nothing else may be.
        declared = {
            (t.var, t.fieldname): t.target for t in ftype.output_tracking
        }
        for region, tc in post.heap.items():
            for name, tv in tc.vars.items():
                for fieldname, target in tv.fields.items():
                    key = (name, fieldname)
                    if key not in declared:
                        raise VerificationError(
                            f"{fd.name}: undeclared output tracking {name}.{fieldname}"
                        )
                    rv = declared.pop(key)
                    if target is None:
                        raise VerificationError(
                            f"{fd.name}: output tracking {name}.{fieldname} is ⊥"
                        )
                    if rv in out_realized and out_realized[rv] != target:
                        raise VerificationError(
                            f"{fd.name}: output tracking region ρ{rv} inconsistent"
                        )
                    out_realized[rv] = target
        if declared:
            missing = ", ".join(f"{v}.{f}" for v, f in declared)
            raise VerificationError(
                f"{fd.name}: declared output tracking missing: {missing}"
            )

    # ------------------------------------------------------------------
    # Node verification
    # ------------------------------------------------------------------

    def _verify_node(self, node: Derivation) -> int:
        tel = _telemetry()
        if tel.enabled:
            tel.inc("verifier.obligations")
            tel.inc(f"verifier.rule.{node.rule}")
        try:
            pre = self._checked(node.pre)
        except ContextError as exc:
            raise VerificationError(f"ill-formed pre context: {exc}", node) from exc
        handler = self._RULES.get(node.rule)
        if handler is None:
            raise VerificationError(f"unknown rule {node.rule!r}", node)
        handler(self, node, pre)
        try:
            self._checked(node.post)
        except ContextError as exc:
            raise VerificationError(f"ill-formed post context: {exc}", node) from exc
        count = 1
        for child in node.children:
            count += self._verify_node(child)
        return count

    # -- helpers ------------------------------------------------------------

    def _replay(
        self, ctx: StaticContext, steps: Iterable[Step], node: Derivation
    ) -> StaticContext:
        tel = _telemetry()
        for step in steps:
            if tel.enabled:
                tel.inc("verifier.steps_replayed")
            try:
                apply_step(ctx, step)
            except ContextError as exc:
                raise VerificationError(
                    f"step {step} violates its side conditions: {exc}", node
                ) from exc
        return ctx

    def _chain(self, node: Derivation, children: Sequence[Derivation]) -> ContextSnap:
        """Children evaluate left-to-right: each must start where the
        previous one ended.  Returns the final snapshot."""
        current = node.pre
        for child in children:
            if child.pre != current:
                raise VerificationError(
                    f"child {child.rule} does not start at its predecessor's "
                    "output context",
                    node,
                )
            current = child.post
        return current

    def _chain_and_replay(
        self, node: Derivation, children: Sequence[Derivation]
    ) -> None:
        """Default linear protocol: children chain, then node.steps run."""
        current = self._chain(node, children)
        ctx = self._copy(current)
        self._replay(ctx, node.steps, node)
        if ctx.snapshot() != node.post:
            raise VerificationError(
                "steps do not carry the context to the recorded post state", node
            )

    def _require_region_in_post(self, node: Derivation) -> None:
        if node.region is None:
            return
        if Region(node.region) not in self._base(node.post).heap:
            raise VerificationError(
                f"result region r{node.region} absent from post context", node
            )

    def _field_decl(self, node: Derivation, base_ty_text: str, fieldname: str):
        base = ast.strip_maybe(parse_type_text(base_ty_text))
        if not base.is_struct():
            raise VerificationError(f"field access on non-struct {base}", node)
        try:
            sdef = self.program.struct(base.name)
            return sdef.field_decl(fieldname)
        except KeyError as exc:
            raise VerificationError(str(exc), node) from exc

    # -- rule checks ---------------------------------------------------------

    def _rule_literal(self, node: Derivation, pre: StaticContext) -> None:
        if node.pre != node.post:
            raise VerificationError("literals must not change the context", node)
        if node.type_ not in ("int", "bool", "unit"):
            raise VerificationError(f"bad literal type {node.type_}", node)
        if node.region is not None:
            raise VerificationError("literals are region-free", node)

    def _rule_none(self, node: Derivation, pre: StaticContext) -> None:
        ty = parse_type_text(node.type_)
        if not isinstance(ty, ast.MaybeType):
            raise VerificationError("none must have a maybe type", node)
        self._chain_and_replay(node, node.children)
        if ast.strip_maybe(ty).is_struct():
            self._require_region_in_post(node)

    def _rule_var(self, node: Derivation, pre: StaticContext) -> None:
        if node.pre != node.post:
            raise VerificationError("variable reference must not change context", node)
        name = node.meta.get("var")
        if not isinstance(name, str) or not pre.has_var(name):
            raise VerificationError(f"variable {name!r} unbound in pre context", node)
        binding = pre.lookup(name)
        if str(binding.ty) != node.type_:
            raise VerificationError("variable type mismatch", node)
        region = None if binding.region is None else binding.region.ident
        if region != node.region:
            raise VerificationError("variable region mismatch", node)
        if binding.region is not None and binding.region not in pre.heap:
            raise VerificationError(
                "variable's region capability absent (consumed)", node
            )

    def _rule_linear(self, node: Derivation, pre: StaticContext) -> None:
        """Generic: children chain, steps replay."""
        self._chain_and_replay(node, node.children)
        self._require_region_in_post(node)

    def _rule_field(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        base = node.children[0]
        decl = self._field_decl(node, base.type_, node.meta["field"])
        if decl.is_iso:
            raise VerificationError("T4 applied to an iso field", node)
        if str(decl.ty) != node.type_:
            raise VerificationError("field type mismatch", node)
        if ast.strip_maybe(decl.ty).is_struct():
            if node.region != base.region:
                raise VerificationError(
                    "non-iso field must stay in its owner's region", node
                )
        elif node.region is not None:
            raise VerificationError("primitive field has a region", node)

    def _rule_iso_field(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        name = node.meta["var"]
        fieldname = node.meta["field"]
        base = node.children[0]
        decl = self._field_decl(node, base.type_, fieldname)
        if not decl.is_iso:
            raise VerificationError("T5 applied to a non-iso field", node)
        tv = self._base(node.post).tracked_var(name)
        if tv is None or fieldname not in tv.fields:
            raise VerificationError(
                f"{name}.{fieldname} not tracked in post context", node
            )
        target = tv.fields[fieldname]
        if target is None:
            raise VerificationError("read of an invalidated (⊥) iso field", node)
        if ast.strip_maybe(decl.ty).is_struct():
            if node.region != target.ident:
                raise VerificationError(
                    "iso read must produce the tracked target region", node
                )

    def _rule_field_assign(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        base = node.children[0]
        decl = self._field_decl(node, base.type_, node.meta["field"])
        if decl.is_iso:
            raise VerificationError("T6 applied to an iso field", node)
        for step in node.steps:
            if step.rule != "V5-Attach":
                raise VerificationError(
                    f"T6 may only attach regions, found {step.rule}", node
                )

    def _rule_iso_assign(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        name = node.meta["var"]
        fieldname = node.meta["field"]
        base = node.children[0]
        value = node.children[1]
        decl = self._field_decl(node, base.type_, fieldname)
        if not decl.is_iso:
            raise VerificationError("T7 applied to a non-iso field", node)
        tv = self._base(node.post).tracked_var(name)
        if tv is None or fieldname not in tv.fields:
            raise VerificationError("assigned iso field is not tracked", node)
        target = tv.fields[fieldname]
        if target is None or target.ident != value.region:
            raise VerificationError(
                "iso assignment must track the assigned value's region", node
            )

    def _rule_new(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        struct_name = node.meta.get("struct")
        if struct_name not in self.program.structs:
            raise VerificationError(f"unknown struct {struct_name!r}", node)
        sdef = self.program.struct(struct_name)
        # Iso tracking installed by new must target iso fields only.
        for step in node.steps:
            if step.rule == "T7-SetField":
                _nm, fieldname, _tg = step.args
                if not sdef.field_decl(fieldname).is_iso:
                    raise VerificationError(
                        f"new tracks non-iso field {fieldname!r}", node
                    )
        self._require_region_in_post(node)

    def _rule_call(self, node: Derivation, pre: StaticContext) -> None:
        fname = node.meta.get("function")
        ftype = self.functypes.get(fname)
        if ftype is None:
            raise VerificationError(f"call to unknown function {fname!r}", node)
        if len(node.children) != len(ftype.params):
            raise VerificationError("argument count mismatch", node)
        current = self._chain(node, node.children)
        # Argument types and region grouping (the separation condition).
        group: Dict[int, int] = {}
        arg_var: Dict[str, Optional[str]] = {}
        for child, (pname, pty) in zip(node.children, ftype.params):
            if child.type_ != str(pty):
                raise VerificationError(
                    f"argument {pname!r} has type {child.type_}, expected {pty}",
                    node,
                )
            arg_var[pname] = (
                child.meta.get("var")
                if child.rule == "T2-Variable-Ref"
                else None
            )
            rv = ftype.input_region[pname]
            if rv is None:
                continue
            if child.region is None:
                raise VerificationError(f"argument {pname!r} lacks a region", node)
            group.setdefault(rv, child.region)

        ctx = self._copy(current)
        merged: Dict[int, Region] = {
            rv: Region(region) for rv, region in group.items()
        }
        pinned_rvs = {ftype.input_region[p] for p in ftype.pinned}

        def substitute(src: Region, dest: Region) -> None:
            for rv, region in list(merged.items()):
                if region == src:
                    merged[rv] = dest

        # Phase A: call-site preparation — attaches (argument grouping) and
        # the emptying of argument tracking contexts.
        steps = list(node.steps)
        index = 0
        prep_rules = {"V5-Attach", "V2-Unfocus", "V4-Retract"}
        while index < len(steps) and steps[index].rule in prep_rules:
            step = steps[index]
            self._replay(ctx, [step], node)
            if step.rule == "V5-Attach":
                substitute(step.args[0], step.args[1])
            index += 1

        # The call's input condition (§4.8): every argument region presents
        # an empty tracking context — except pinned parameters (TS2).
        values = list(merged.values())
        if len(set(values)) != len(values):
            raise VerificationError(
                "arguments for separate parameter regions share a region", node
            )
        for rv, region in merged.items():
            if rv in pinned_rvs:
                continue
            tc = ctx.heap.get(region)
            if tc is None:
                raise VerificationError(
                    f"argument region {region} missing at the call point", node
                )
            if not tc.is_empty:
                raise VerificationError(
                    f"argument region {region} has a non-empty tracking "
                    "context at the call (only pinned parameters allow this)",
                    node,
                )

        # Phase B: consumed parameter regions are dropped.
        expected_consumed = {
            merged[ftype.input_region[p]] for p in ftype.consumes
        }
        dropped = set()
        while index < len(steps) and steps[index].rule == "W-DropRegion":
            region = steps[index].args[0]
            if region not in expected_consumed:
                raise VerificationError(
                    f"call dropped non-consumed region {region}", node
                )
            self._replay(ctx, [steps[index]], node)
            dropped.add(region)
            index += 1
        if dropped != expected_consumed:
            missing = expected_consumed - dropped
            raise VerificationError(
                f"consumed parameter regions not dropped: {sorted(missing)}",
                node,
            )

        # Phase C/D: output merges, fresh output regions, and declared
        # output-tracking installs.
        declared = {}
        for entry in ftype.output_tracking:
            var = arg_var.get(entry.var)
            if var is not None:
                declared[(var, entry.fieldname)] = entry.target
        fresh_regions = set()
        while index < len(steps):
            step = steps[index]
            if step.rule in ("V5-Attach",):
                self._replay(ctx, [step], node)
                substitute(step.args[0], step.args[1])
            elif step.rule == "W-FreshRegion":
                self._replay(ctx, [step], node)
                fresh_regions.add(step.args[0])
            elif step.rule == "V1-Focus":
                name = step.args[0]
                if name not in {v for v in arg_var.values() if v}:
                    raise VerificationError(
                        f"call focused non-argument variable {name!r}", node
                    )
                self._replay(ctx, [step], node)
            elif step.rule == "T7-SetField":
                name, fieldname, target = step.args
                key = (name, fieldname)
                if key not in declared:
                    raise VerificationError(
                        f"call installed undeclared tracking {name}.{fieldname}",
                        node,
                    )
                rv = declared[key]
                expected_region = (
                    Region(node.region)
                    if rv == ftype.result_region and node.region is not None
                    else None
                )
                if expected_region is None:
                    # A non-result output region: must be an argument region
                    # or one of this call's fresh output regions.
                    if target not in fresh_regions and target not in set(
                        merged.values()
                    ):
                        raise VerificationError(
                            "call tracking install targets a foreign region",
                            node,
                        )
                elif target != expected_region:
                    raise VerificationError(
                        "call tracking install disagrees with the declared "
                        "result region",
                        node,
                    )
                self._replay(ctx, [step], node)
            else:
                raise VerificationError(
                    f"unexpected call-site step {step.rule}", node
                )
            index += 1

        if ctx.snapshot() != node.post:
            raise VerificationError("call steps do not reach the post context", node)
        if node.type_ != str(ftype.return_type):
            raise VerificationError("call result type mismatch", node)
        if (node.region is None) != (ftype.result_region is None):
            raise VerificationError("call result region presence mismatch", node)
        self._require_region_in_post(node)

    def _rule_send(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        consumed = [s for s in node.steps if s.rule == "T16-ConsumeRegion"]
        if len(consumed) != 1:
            raise VerificationError("send must consume exactly one region", node)
        region = consumed[0].args[0]
        if region.ident != node.children[0].region:
            raise VerificationError("send consumed a different region", node)

    def _rule_recv(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        ty = parse_type_text(node.type_)
        if not ast.strip_maybe(ty).is_struct():
            raise VerificationError("recv of a non-struct type", node)
        self._require_region_in_post(node)

    def _rule_seq(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        self._require_region_in_post(node)

    def _rule_let(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        name = node.meta.get("var")
        if not self._base(node.post).has_var(name):
            raise VerificationError(f"let-bound {name!r} missing from post", node)

    def _branch_join(
        self,
        node: Derivation,
        start: ContextSnap,
        start_ctx: StaticContext,
        then_child: Derivation,
        else_child: Optional[Derivation],
        intro_steps: Tuple[Step, ...],
    ) -> None:
        """Shared validation for T13/T15/T-LetSome joins; both branches
        start from ``start_ctx``, the context of snapshot ``start``."""
        then_start = start_ctx.clone()
        self._replay(then_start, intro_steps, node)
        if then_child.pre != then_start.snapshot():
            raise VerificationError("then branch starts at the wrong context", node)
        join_then = node.meta.get("join_then", ())
        ctx = self._copy(then_child.post)
        self._replay(ctx, join_then, node)
        if ctx.snapshot() != node.post:
            raise VerificationError(
                "then-branch join steps do not reach the post context", node
            )
        join_else = node.meta.get("join_else", ())
        if else_child is not None:
            if else_child.pre != start:
                raise VerificationError(
                    "else branch starts at the wrong context", node
                )
            ctx = self._copy(else_child.post)
        else:
            ctx = start_ctx.clone()
        self._replay(ctx, join_else, node)
        if ctx.snapshot() != node.post:
            raise VerificationError(
                "else-branch join steps do not reach the post context", node
            )

    def _rule_if(self, node: Derivation, pre: StaticContext) -> None:
        cond = node.children[0]
        if cond.pre != node.pre:
            raise VerificationError("condition starts at the wrong context", node)
        if cond.type_ != "bool":
            raise VerificationError("condition must be bool", node)
        then_child = node.children[1]
        else_child = node.children[2] if node.meta.get("has_else") else None
        self._verify_join_result(node, then_child, else_child)
        self._branch_join(
            node, cond.post, self._base(cond.post), then_child, else_child, ()
        )

    def _rule_let_some(self, node: Derivation, pre: StaticContext) -> None:
        scrut = node.children[0]
        if scrut.pre != node.pre:
            raise VerificationError("scrutinee starts at the wrong context", node)
        ty = parse_type_text(scrut.type_)
        if not isinstance(ty, ast.MaybeType):
            raise VerificationError("let-some scrutinee must be a maybe", node)
        intro = tuple(node.meta.get("intro_steps", ()))
        for step in intro:
            if step.rule != "W-Bind":
                raise VerificationError("let-some intro must only bind", node)
            _name, ty_text, region = step.args
            if str(ast.strip_maybe(ty)) != ty_text:
                raise VerificationError("let-some binds the wrong type", node)
            bound_region = None if region is None else region.ident
            if bound_region != scrut.region:
                raise VerificationError("let-some binds the wrong region", node)
        then_child = node.children[1]
        else_child = node.children[2] if node.meta.get("has_else") else None
        self._verify_join_result(node, then_child, else_child)
        self._branch_join(
            node, scrut.post, self._base(scrut.post), then_child, else_child, intro
        )

    def _rule_if_disconnected(self, node: Derivation, pre: StaticContext) -> None:
        left, right = node.children[0], node.children[1]
        if left.pre != node.pre:
            raise VerificationError("left argument starts at the wrong context", node)
        if right.pre != left.post:
            raise VerificationError("right argument starts at the wrong context", node)
        if left.region is None or left.region != right.region:
            raise VerificationError(
                "if-disconnected arguments must share one region", node
            )
        base = self._copy(right.post)
        self._replay(base, node.steps, node)
        region = node.meta["region"]
        tc = base.heap.get(region)
        if tc is None or not tc.is_empty:
            raise VerificationError(
                "if-disconnected requires an empty tracking context", node
            )
        intro = tuple(node.meta.get("intro_steps", ()))
        # The split must move exactly the left variable to the fresh region,
        # drop every other alias, and ⊥ every inbound tracked field.
        split = base.clone()
        self._replay(split, intro, node)
        lname, rname = node.meta["left"], node.meta["right"]
        fresh = node.meta["split_region"]
        if split.gamma[lname].region != fresh:
            raise VerificationError("split did not move the left argument", node)
        for name in split.vars_in_region(region):
            if name != rname:
                raise VerificationError(
                    f"alias {name!r} survived the region split", node
                )
        for _r, owner, fieldname in split.inbound_refs(region):
            raise VerificationError(
                f"inbound tracked field {owner}.{fieldname} survived the split",
                node,
            )
        then_child = node.children[2]
        else_child = node.children[3] if node.meta.get("has_else") else None
        self._verify_join_result(node, then_child, else_child)
        self._branch_join(
            node, base.snapshot(), base, then_child, else_child, intro
        )

    def _verify_join_result(
        self,
        node: Derivation,
        then_child: Derivation,
        else_child: Optional[Derivation],
    ) -> None:
        if else_child is not None:
            if then_child.type_ != else_child.type_:
                raise VerificationError("branch types differ", node)
            if node.type_ != then_child.type_:
                raise VerificationError("join result type mismatch", node)
        elif node.type_ != "unit":
            raise VerificationError("if-without-else must be unit", node)
        self._require_region_in_post(node)

    def _rule_while(self, node: Derivation, pre: StaticContext) -> None:
        entry = self._copy(node.pre)
        self._replay(entry, node.steps, node)
        entry_snap = entry.snapshot()
        cond, body = node.children[0], node.children[1]
        if cond.pre != entry_snap:
            raise VerificationError("loop condition starts off-invariant", node)
        if cond.type_ != "bool":
            raise VerificationError("loop condition must be bool", node)
        if body.pre != cond.post:
            raise VerificationError("loop body starts at the wrong context", node)
        loop_steps = tuple(node.meta.get("loop_steps", ()))
        back = self._copy(body.post)
        self._replay(back, loop_steps, node)
        if back.snapshot() != entry_snap:
            raise VerificationError(
                "loop body does not re-establish the invariant", node
            )
        if node.post != cond.post:
            raise VerificationError("loop exit context mismatch", node)
        if node.type_ != "unit":
            raise VerificationError("while has unit type", node)

    def _rule_assign_var(self, node: Derivation, pre: StaticContext) -> None:
        self._chain_and_replay(node, node.children)
        name = node.meta.get("var")
        post = self._base(node.post)
        if not post.has_var(name):
            raise VerificationError("assigned variable missing from post", node)
        binding = post.lookup(name)
        value_child = node.children[0]
        if str(binding.ty) != value_child.type_:
            raise VerificationError("assignment type mismatch", node)
        region = None if binding.region is None else binding.region.ident
        if region != value_child.region:
            raise VerificationError("assignment region mismatch", node)

    _RULES = {
        "T1-Literal": _rule_literal,
        "T12-None": _rule_none,
        "T2-Variable-Ref": _rule_var,
        "T11-Some": _rule_linear,
        "T-IsNone": _rule_linear,
        "T-IsSome": _rule_linear,
        "T-Unop": _rule_linear,
        "T-Binop": _rule_linear,
        "T3-Sequence": _rule_seq,
        "T-Let": _rule_let,
        "T-LetSome": _rule_let_some,
        "T13-If-Statement": _rule_if,
        "T14-While": _rule_while,
        "T15-If-Disconnected": _rule_if_disconnected,
        "T4-Field-Reference": _rule_field,
        "T5-Isolated-Field-Reference": _rule_iso_field,
        "T6-Field-Assignment": _rule_field_assign,
        "T7-Isolated-Field-Assignment": _rule_iso_assign,
        "T8-Assign-Var": _rule_assign_var,
        "T10-New-Loc": _rule_new,
        "T9-Function-Application": _rule_call,
        "T16-Send": _rule_send,
        "T17-Receive": _rule_recv,
    }


RESULT = "$result"


def _region(ident: Optional[int]) -> Optional[Region]:
    return None if ident is None else Region(ident)


def verify_source(source: str, program: Optional[ast.Program] = None) -> int:
    """Check and then independently verify a program; returns node count.

    Pass an already parsed ``program`` to skip the re-parse; either way the
    function-type table is elaborated exactly once and shared between the
    checker and the verifier (batch callers go further and reuse
    :class:`repro.pipeline.ProgramSession` across both phases).
    """
    from ..core.checker import Checker
    from ..lang import parse_program

    if program is None:
        program = parse_program(source)
    checker = Checker(program)
    derivation = checker.check_program()
    return Verifier(program, functypes=checker.functypes).verify_program(derivation)
