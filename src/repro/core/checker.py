"""The FCL type checker — the "prover" of the paper's prover–verifier
architecture (§4, §5.1).

The checker walks each function body with a mutable :class:`StaticContext`,
applying the syntax-directed T rules and *greedily deferring* virtual
transformations (TS1) until a rule's precondition fails, exactly as §4.6
prescribes.  Branch joins, loop invariants, and function exits go through
:mod:`repro.core.unify`, whose liveness oracle implements the §5.1
heuristic; a bounded backtracking search is the completeness fallback.

Every accepted expression yields a :class:`~repro.core.derivation.Derivation`
node recording the rule and full context snapshots, so the independent
verifier can re-validate the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..lang import ast, pretty
from ..telemetry import registry as _telemetry
from .contexts import StaticContext
from .derivation import Derivation, FuncDerivation, ProgramDerivation
from .errors import (
    ArityError,
    InferenceError,
    InvalidatedField,
    IsoFieldNotTrackable,
    SendError,
    SeparationError,
    TypeError_,
    TypeMismatch,
    UnboundVariable,
    UnificationError,
    UnknownName,
)
from .functypes import FuncType, elaborate
from .analysis import ProgramAnalysis
from .regions import Region, RegionSupply
from .unify import Step, apply_step, match_contexts, prune, search_unify
from .validate import validate_program

RESULT = "$result"  # pseudo-variable anchoring result regions during joins

#: Version tag of the checker's certificate semantics.  The pipeline's
#: content-addressed certificate cache folds this into every cache key and
#: stamps it into every stored entry, so certificates minted by an older
#: (or newer) checker are never replayed: bump it whenever a change to the
#: checker, the derivation format, or the unifier could alter what a
#: derivation means.
CHECKER_VERSION = "repro-checker/4"


@dataclass(frozen=True)
class CheckProfile:
    """Feature switches.  The default profile is the paper's type system;
    restricted profiles model the related systems of Table 1 (see
    ``repro.baselines``)."""

    name: str = "fearless"
    #: V1 Focus available (False models global-domination systems such as
    #: LaCasa/OwnerJ/M#, which lack a focus mechanism, §9.1).
    allow_focus: bool = True
    #: Non-iso references between objects allowed (False models affine /
    #: tree-of-objects systems such as Rust-without-unsafe and classic
    #: unique-pointer systems, §9.2).
    allow_intra_region_refs: bool = True
    #: The ``if disconnected`` primitive available.
    allow_if_disconnected: bool = True
    #: Use the greedy + liveness-oracle unifier; when False, every join goes
    #: through the exponential backtracking search (benchmark E4).
    use_liveness_oracle: bool = True
    #: FAULT INJECTION — fuzzer self-test only.  When True, T16-Send keeps
    #: the sent region in the context (no alias invalidation, no region
    #: consumption), i.e. the checker wrongly accepts use-after-send.  The
    #: differential fuzzer (`repro fuzz --inject-bug`) must catch the
    #: resulting prover/verifier/runtime disagreement; never enable this
    #: outside that self-test.
    unsound_send_keeps_region: bool = False


DEFAULT_PROFILE = CheckProfile()


@dataclass
class Value:
    """The checked type and region of an expression (region None = primitive)."""

    ty: ast.Type
    region: Optional[Region]


def types_equal(a: ast.Type, b: ast.Type) -> bool:
    return str(a) == str(b)


class Checker:
    """Type checker for a whole program."""

    def __init__(
        self,
        program: ast.Program,
        profile: CheckProfile = DEFAULT_PROFILE,
        record: bool = True,
        functypes: Optional[Dict[str, FuncType]] = None,
        analysis: Optional[ProgramAnalysis] = None,
    ):
        self.program = program
        self.profile = profile
        self.record = record
        validate_program(program, profile)
        # Batch callers (repro.pipeline) elaborate once per program and
        # share the table between the checker and the verifier.
        self.functypes: Dict[str, FuncType] = (
            functypes
            if functypes is not None
            else {
                name: elaborate(fdef, program)
                for name, fdef in program.funcs.items()
            }
        )
        # Per-function liveness facts, built once and shared across
        # repeated checks (and checker threads) of a warm session.
        self.analysis = (
            analysis if analysis is not None else ProgramAnalysis(program)
        )

    def check_program(self) -> ProgramDerivation:
        """Check every function; raises the first type error found."""
        tel = _telemetry()
        if not tel.enabled:
            funcs = {
                name: self.check_function(name)
                for name in sorted(self.program.funcs)
            }
            return ProgramDerivation(funcs=funcs)
        with tel.span("check.program"):
            funcs = {
                name: self.check_function(name)
                for name in sorted(self.program.funcs)
            }
            tel.inc("checker.functions", len(funcs))
        return ProgramDerivation(funcs=funcs)

    def check_function(self, name: str) -> FuncDerivation:
        fdef = self.program.func(name)
        tel = _telemetry()
        try:
            if not tel.enabled:
                return _FuncChecker(self, fdef).check()
            with tel.span(f"check.fn.{name}"):
                return _FuncChecker(self, fdef).check()
        except TypeError_ as exc:
            # Every rejection gets a stable line:col anchor: errors raised
            # without a source position (function-exit unification, tracking
            # side conditions deep in the context machinery) are re-anchored
            # at the offending function's header.
            if exc.span is None or not exc.span.line:
                raise type(exc)(
                    f"{name}: {exc.message}"
                    if not exc.message.startswith(f"{name}:")
                    else exc.message,
                    fdef.span,
                ) from exc
            raise

    # Convenience predicates used by examples/baselines.

    def accepts(self) -> bool:
        try:
            self.check_program()
            return True
        except TypeError_:
            return False


class _FuncChecker:
    """Checks a single function body."""

    def __init__(self, checker: Checker, fdef: ast.FuncDef):
        self.checker = checker
        self.program = checker.program
        self.profile = checker.profile
        self.record = checker.record
        self.fdef = fdef
        self.ftype = checker.functypes[fdef.name]
        self.analysis = checker.analysis.for_function(fdef)
        self.liveness = self.analysis.liveness
        self.supply = RegionSupply()
        self._ghost_counter = 0
        self._tel = _telemetry()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _note(self, rule: str, *step_seqs: Sequence[Step]) -> None:
        """Account one rule application and every step it recorded.
        Virtual transformations (V1–V5) get their own counter family."""
        tel = self._tel
        if not tel.enabled:
            return
        tel.inc(f"checker.rule.{rule}")
        for steps in step_seqs:
            for step in steps:
                prefix = "checker.vt." if step.rule.startswith("V") else "checker.step."
                tel.inc(prefix + step.rule)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def check(self) -> FuncDerivation:
        ctx = StaticContext(self.supply)
        region_of_var: Dict[int, Region] = {
            rv: ctx.fresh_region() for rv in self.ftype.input_region_vars
        }
        pinned_rvs = {
            self.ftype.input_region[p]
            for p in self.ftype.pinned
        }
        for rv in pinned_rvs:
            ctx.set_region_pinned(region_of_var[rv], True)
        for pname, pty in self.ftype.params:
            rv = self.ftype.input_region[pname]
            ctx.bind(pname, pty, None if rv is None else region_of_var[rv])
        input_snap = ctx.snapshot()

        value, body_deriv = self.check_expr(self.fdef.body, ctx, self.fdef.return_type)
        if not types_equal(value.ty, self.fdef.return_type):
            raise TypeMismatch(
                f"{self.fdef.name}: body has type {value.ty}, declared "
                f"{self.fdef.return_type}",
                self.fdef.span,
            )

        # Build the declared output context and unify the body's final
        # context onto it.
        target = StaticContext(self.supply)
        out_map: Dict[int, Region] = {}
        for rv in self.ftype.output_region_vars:
            if rv in region_of_var and rv in self.ftype.input_region_vars:
                region = region_of_var[rv]
            else:
                region = self.supply.fresh()
            out_map[rv] = region
            target.add_region(region, pinned=rv in pinned_rvs)
        for pname, pty in self.ftype.params:
            if pname in self.ftype.consumes:
                continue
            rv = self.ftype.output_region.get(pname)
            target.bind(pname, pty, None if rv is None else out_map[rv])
        result_region = (
            None
            if self.ftype.result_region is None
            else out_map[self.ftype.result_region]
        )
        target.bind(RESULT, self.fdef.return_type, result_region)
        for entry in self.ftype.output_tracking:
            if target.tracked_region_of(entry.var) is None:
                target.focus(entry.var)
            assert target.tracked_var(entry.var) is not None
            target.install_tracked_field(
                entry.var, entry.fieldname, out_map[entry.target]
            )

        ctx.bind(RESULT, value.ty, value.region)
        live = frozenset(
            pname
            for pname, _ in self.ftype.params
            if pname not in self.ftype.consumes
        ) | {RESULT}
        steps = self._unify_onto(target, ctx, live)
        self._note("T0-Function-Definition", steps)

        output_snap = target.snapshot()
        deriv = Derivation(
            rule="T0-Function-Definition",
            expr=f"def {self.fdef.name}",
            pre=input_snap,
            post=output_snap,
            type_=str(self.fdef.return_type),
            region=None if result_region is None else result_region.ident,
            steps=tuple(steps),
            children=[body_deriv],
            meta={"function": self.fdef.name},
        )
        return FuncDerivation(
            name=self.fdef.name,
            input_snap=input_snap,
            output_snap=output_snap,
            result_type=str(self.fdef.return_type),
            result_region=None if result_region is None else result_region.ident,
            body=deriv,
        )

    def _unify_onto(
        self,
        target: StaticContext,
        ctx: StaticContext,
        live: FrozenSet[str],
    ) -> List[Step]:
        """Unify ``ctx`` onto the fixed ``target`` (function exit)."""
        declared = target.snapshot()
        tel = self._tel
        if self.profile.use_liveness_oracle:
            try:
                _renaming, _steps_t, steps_c = match_contexts(target, ctx, live)
                if target.snapshot() == declared:
                    if tel.enabled:
                        tel.inc("checker.oracle.hits")
                    return steps_c
            except UnificationError:
                pass
            if tel.enabled:
                tel.inc("checker.oracle.misses")
        try:
            if tel.enabled:
                tel.inc("checker.join.search_fallbacks")
            unified_t, _unified_c, _pa, steps_c = search_unify(target, ctx, live)
            if unified_t.snapshot() == declared:
                return steps_c
        except UnificationError:
            pass
        raise UnificationError(
            f"{self.fdef.name}: the body's final context cannot be "
            "transformed into the declared output context (is the result "
            "still reachable from a parameter?  declare the relationship "
            "with 'after: x.f ~ result', or consume the parameter)\n"
            f"  declared: {target}\n  body    : {ctx}"
        )

    # ------------------------------------------------------------------
    # Expression dispatch
    # ------------------------------------------------------------------

    def check_expr(
        self,
        node: ast.Expr,
        ctx: StaticContext,
        expected: Optional[ast.Type] = None,
    ) -> Tuple[Value, Derivation]:
        pre = ctx.snapshot() if self.record else ((), ())
        handler = self._HANDLERS.get(type(node))
        if handler is None:
            raise TypeError_(f"cannot type expression {type(node).__name__}", node.span)
        value, rule, steps, children, meta = handler(self, node, ctx, expected)
        if self._tel.enabled:
            self._note(
                rule,
                steps,
                meta.get("intro_steps", ()),
                meta.get("join_then", ()),
                meta.get("join_else", ()),
                meta.get("loop_steps", ()),
            )
        deriv = Derivation(
            rule=rule,
            expr=_short(node),
            pre=pre,
            post=ctx.snapshot() if self.record else ((), ()),
            type_=str(value.ty),
            region=None if value.region is None else value.region.ident,
            steps=tuple(steps),
            children=children,
            meta=meta,
        )
        return value, deriv

    # Each handler returns (value, rule, steps, children, meta).

    def _check_int(self, node: ast.IntLit, ctx, expected):
        return Value(ast.INT, None), "T1-Literal", [], [], {"literal": node.value}

    def _check_bool(self, node: ast.BoolLit, ctx, expected):
        return Value(ast.BOOL, None), "T1-Literal", [], [], {"literal": node.value}

    def _check_unit(self, node: ast.UnitLit, ctx, expected):
        return Value(ast.UNIT, None), "T1-Literal", [], [], {"literal": "unit"}

    def _check_none(self, node: ast.NoneLit, ctx, expected):
        if expected is None or not isinstance(expected, ast.MaybeType):
            raise InferenceError(
                "cannot infer the type of 'none' here; no maybe type expected",
                node.span,
            )
        steps: List[Step] = []
        region = None
        if ast.strip_maybe(expected).is_struct():
            region = ctx.fresh_region()
            steps.append(Step("W-FreshRegion", (region,)))
        return Value(expected, region), "T12-None", steps, [], {}

    def _check_var(self, node: ast.VarRef, ctx, expected):
        if not ctx.has_var(node.name):
            raise UnboundVariable(
                f"variable {node.name!r} is not bound (out of scope, consumed, "
                "or invalidated)",
                node.span,
            )
        binding = ctx.lookup(node.name)
        if binding.region is not None and not ctx.has_region(binding.region):
            raise UnboundVariable(
                f"variable {node.name!r}'s region was consumed", node.span
            )
        return (
            Value(binding.ty, binding.region),
            "T2-Variable-Ref",
            [],
            [],
            {"var": node.name},
        )

    def _check_some(self, node: ast.SomeExpr, ctx, expected):
        inner_expected = (
            ast.strip_maybe(expected) if isinstance(expected, ast.MaybeType) else None
        )
        value, child = self.check_expr(node.inner, ctx, inner_expected)
        if isinstance(value.ty, ast.MaybeType):
            raise TypeMismatch("some(e) of a maybe value is not allowed", node.span)
        return (
            Value(ast.MaybeType(value.ty), value.region),
            "T11-Some",
            [],
            [child],
            {},
        )

    def _check_is_none(self, node: ast.IsNone, ctx, expected):
        value, child = self.check_expr(node.inner, ctx, None)
        if not isinstance(value.ty, ast.MaybeType):
            raise TypeMismatch(
                f"is_none expects a maybe value, got {value.ty}", node.span
            )
        return Value(ast.BOOL, None), "T-IsNone", [], [child], {}

    def _check_is_some(self, node: ast.IsSome, ctx, expected):
        value, child = self.check_expr(node.inner, ctx, None)
        if not isinstance(value.ty, ast.MaybeType):
            raise TypeMismatch(
                f"is_some expects a maybe value, got {value.ty}", node.span
            )
        return Value(ast.BOOL, None), "T-IsSome", [], [child], {}

    def _check_unop(self, node: ast.Unop, ctx, expected):
        value, child = self.check_expr(node.inner, ctx, None)
        want = ast.BOOL if node.op == "!" else ast.INT
        if not types_equal(value.ty, want):
            raise TypeMismatch(
                f"operator {node.op!r} expects {want}, got {value.ty}", node.span
            )
        return Value(want, None), "T-Unop", [], [child], {"op": node.op}

    _ARITH = {"+", "-", "*", "/", "%"}
    _CMP = {"<", ">", "<=", ">="}
    _LOGIC = {"&&", "||"}

    def _check_binop(self, node: ast.Binop, ctx, expected):
        left, lchild = self.check_expr(node.left, ctx, None)
        right, rchild = self.check_expr(node.right, ctx, None)
        children = [lchild, rchild]
        if node.op in self._ARITH:
            self._want(left, ast.INT, node)
            self._want(right, ast.INT, node)
            return Value(ast.INT, None), "T-Binop", [], children, {"op": node.op}
        if node.op in self._CMP:
            self._want(left, ast.INT, node)
            self._want(right, ast.INT, node)
            return Value(ast.BOOL, None), "T-Binop", [], children, {"op": node.op}
        if node.op in self._LOGIC:
            self._want(left, ast.BOOL, node)
            self._want(right, ast.BOOL, node)
            return Value(ast.BOOL, None), "T-Binop", [], children, {"op": node.op}
        # == / != : primitives of equal type, or references of equal type.
        if not types_equal(left.ty, right.ty):
            raise TypeMismatch(
                f"cannot compare {left.ty} with {right.ty}", node.span
            )
        return Value(ast.BOOL, None), "T-Binop", [], children, {"op": node.op}

    @staticmethod
    def _want(value: Value, ty: ast.Type, node: ast.Expr) -> None:
        if not types_equal(value.ty, ty):
            raise TypeMismatch(f"expected {ty}, got {value.ty}", node.span)

    # -- blocks and bindings -------------------------------------------------

    def _check_block(self, node: ast.Block, ctx, expected):
        entry_vars = set(ctx.gamma)
        children: List[Derivation] = []
        steps: List[Step] = []
        value = Value(ast.UNIT, None)
        for index, entry in enumerate(node.body):
            is_last = index == len(node.body) - 1
            value, child = self.check_expr(entry, ctx, expected if is_last else None)
            children.append(child)
            if not is_last:
                value = Value(ast.UNIT, None)  # intermediate values are dropped
        # Close the block scope: locals disappear.
        for name in sorted(set(ctx.gamma) - entry_vars):
            steps.extend(self._release_var(ctx, name))
        if not node.body:
            value = Value(ast.UNIT, None)
        if isinstance(node.body[-1], (ast.LetBind,)) if node.body else False:
            value = Value(ast.UNIT, None)
        return value, "T3-Sequence", steps, children, {}

    def _release_var(self, ctx: StaticContext, name: str) -> List[Step]:
        """Drop a variable going out of scope, cleaning its tracking entry
        when cheaply possible (otherwise it remains a prunable ghost)."""
        steps: List[Step] = []
        if name == RESULT:
            return steps
        tracked_region = ctx.tracked_region_of(name)
        if tracked_region is not None:
            tv = ctx.heap[tracked_region].vars[name]
            if not tv.fields and not tv.pinned:
                ctx.unfocus(name)
                steps.append(Step("V2-Unfocus", (name,)))
        if ctx.has_var(name):
            ctx.drop_var(name)
            steps.append(Step("W-DropVar", (name,)))
        return steps

    def _check_let(self, node: ast.LetBind, ctx, expected):
        if ctx.has_var(node.name):
            raise TypeError_(
                f"variable {node.name!r} is already bound (shadowing is not "
                "supported)",
                node.span,
            )
        steps: List[Step] = []
        children: List[Derivation] = []
        if isinstance(node.init, ast.New):
            value, child, new_steps = self._check_new_binding(
                node.name, node.init, ctx
            )
            children.append(child)
            steps.extend(new_steps)
        else:
            value, child = self.check_expr(node.init, ctx, None)
            children.append(child)
            ctx.bind(node.name, value.ty, value.region)
            steps.append(Step("W-Bind", (node.name, str(value.ty), value.region)))
        return (
            Value(ast.UNIT, None),
            "T-Let",
            steps,
            children,
            {"var": node.name},
        )

    def _check_let_some(self, node: ast.LetSome, ctx, expected):
        value, scrut_child = self.check_expr(node.scrutinee, ctx, None)
        if not isinstance(value.ty, ast.MaybeType):
            raise TypeMismatch(
                f"let some(..) scrutinee must be a maybe value, got {value.ty}",
                node.span,
            )
        inner_ty = value.ty.inner
        then_ctx = ctx.clone()
        if then_ctx.has_var(node.name):
            raise TypeError_(
                f"variable {node.name!r} is already bound (shadowing is not "
                "supported)",
                node.span,
            )
        intro = Step("W-Bind", (node.name, str(inner_ty), value.region))
        apply_step(then_ctx, intro)

        live = self.liveness.live_after(node)
        then_value, then_deriv, then_ctx, then_steps = self._check_branch_block(
            node.then_block, then_ctx, expected, extra_drop=[node.name]
        )
        else_ctx = ctx.clone()
        if node.else_block is not None:
            else_value, else_deriv, else_ctx, else_steps = self._check_branch_block(
                node.else_block, else_ctx, expected
            )
        else:
            else_value = Value(ast.UNIT, None)
            then_value = Value(ast.UNIT, None)
            else_deriv = None
            else_steps = []

        result, ctx2, per_branch = self._join_branches(
            node,
            [
                (then_value, then_ctx, then_steps),
                (else_value, else_ctx, else_steps),
            ],
            live,
        )
        self._replace_ctx(ctx, ctx2)
        children = [scrut_child, then_deriv] + ([else_deriv] if else_deriv else [])
        return (
            result,
            "T-LetSome",
            [],
            children,
            {
                "var": node.name,
                "intro_steps": (intro,),
                "join_then": tuple(per_branch[0]),
                "join_else": tuple(per_branch[1]),
                "has_else": node.else_block is not None,
            },
        )

    def _check_branch_block(
        self,
        block: ast.Block,
        ctx: StaticContext,
        expected: Optional[ast.Type],
        extra_drop: Sequence[str] = (),
    ) -> Tuple[Value, Derivation, StaticContext, List[Step]]:
        value, deriv = self.check_expr(block, ctx, expected)
        steps: List[Step] = []
        for name in extra_drop:
            steps.extend(self._release_var(ctx, name))
        return value, deriv, ctx, steps

    def _join_branches(
        self,
        node: ast.Expr,
        branches: List[Tuple[Value, StaticContext, List[Step]]],
        live: FrozenSet[str],
    ) -> Tuple[Value, StaticContext, List[List[Step]]]:
        """Unify the (at most two) branch outputs into one context (the
        T13/T15/T-LetSome join).  Returns the result value, the unified
        context, and — per branch — the complete step sequence that carries
        that branch's final context to the unified one (replayable by the
        verifier)."""
        first_ty = branches[0][0].ty
        for value, _, _ in branches[1:]:
            if not types_equal(value.ty, first_ty):
                raise TypeMismatch(
                    f"branches produce {first_ty} vs {value.ty}", node.span
                )
        per_branch: List[List[Step]] = []
        for value, bctx, prefix in branches:
            bctx.bind(RESULT, value.ty, value.region)
            bind_step = Step(
                "W-Bind",
                (
                    RESULT,
                    str(value.ty),
                    value.region,
                ),
            )
            per_branch.append(list(prefix) + [bind_step])
        live_all = live | {RESULT}

        base_ctx = branches[0][1]
        tel = self._tel
        if len(branches) == 2:
            other_ctx = branches[1][1]
            done = False
            if self.profile.use_liveness_oracle:
                try:
                    _ren, sa, sb = match_contexts(base_ctx, other_ctx, live_all)
                    per_branch[0].extend(sa)
                    per_branch[1].extend(sb)
                    done = True
                    if tel.enabled:
                        tel.inc("checker.oracle.hits")
                except UnificationError:
                    if tel.enabled:
                        tel.inc("checker.oracle.misses")
            if not done:
                if tel.enabled:
                    tel.inc("checker.join.search_fallbacks")
                base_ctx, _other, sa, sb = search_unify(
                    base_ctx, other_ctx, live_all
                )
                per_branch[0].extend(sa)
                per_branch[1].extend(sb)
        elif len(branches) > 2:
            raise AssertionError("joins are at most binary")

        result_binding = base_ctx.lookup(RESULT)
        result = Value(result_binding.ty, result_binding.region)
        base_ctx.drop_var(RESULT)
        for steps in per_branch:
            steps.append(Step("W-DropVar", (RESULT,)))
        return result, base_ctx, per_branch

    @staticmethod
    def _replace_ctx(ctx: StaticContext, other: StaticContext) -> None:
        """Overwrite ``ctx`` in place with ``other``'s contents."""
        ctx.take_from(other)

    # -- control flow ----------------------------------------------------------

    def _check_if(self, node: ast.If, ctx, expected):
        cond, cond_child = self.check_expr(node.cond, ctx, None)
        self._want(cond, ast.BOOL, node)
        has_else = node.else_block is not None
        branch_expected = expected if has_else else None

        then_ctx = ctx.clone()
        then_value, then_deriv, then_ctx, ts = self._check_branch_block(
            node.then_block, then_ctx, branch_expected
        )
        else_ctx = ctx.clone()
        if has_else:
            else_value, else_deriv, else_ctx, es = self._check_branch_block(
                node.else_block, else_ctx, branch_expected
            )
        else:
            else_value, else_deriv, es = Value(ast.UNIT, None), None, []
        if not has_else:
            # Without an else branch the conditional's value is unit.
            then_value = Value(ast.UNIT, None)

        live = self.liveness.live_after(node)
        result, joined, per_branch = self._join_branches(
            node,
            [(then_value, then_ctx, ts), (else_value, else_ctx, es)],
            live,
        )
        self._replace_ctx(ctx, joined)
        children = [cond_child, then_deriv] + ([else_deriv] if else_deriv else [])
        return (
            result,
            "T13-If-Statement",
            [],
            children,
            {
                "join_then": tuple(per_branch[0]),
                "join_else": tuple(per_branch[1]),
                "has_else": has_else,
            },
        )

    def _check_while(self, node: ast.While, ctx, expected):
        live_loop = frozenset(
            self.liveness.live_after(node)
            | self.analysis.uses(node.cond)
            | self.analysis.uses(node.body)
        ) & set(ctx.gamma)
        steps = prune(ctx, live_loop)

        cond_deriv = body_deriv = None
        for _ in range(4):
            entry_snap = ctx.snapshot()
            trial = ctx.clone()
            cond, cond_deriv = self.check_expr(node.cond, trial, None)
            self._want(cond, ast.BOOL, node)
            body_ctx = trial.clone()
            _val, body_deriv = self.check_expr(node.body, body_ctx, None)
            # The body's final context must re-establish the entry context.
            loop_steps: List[Step] = []
            tel = self._tel
            if self.profile.use_liveness_oracle:
                try:
                    _ren, sa, sb = match_contexts(ctx, body_ctx, live_loop)
                    steps.extend(sa)
                    loop_steps = sb
                    if tel.enabled:
                        tel.inc("checker.oracle.hits")
                except UnificationError:
                    if tel.enabled:
                        tel.inc("checker.oracle.misses")
                        tel.inc("checker.join.search_fallbacks")
                    unified_a, _b, sa, sb = search_unify(ctx, body_ctx, live_loop)
                    self._replace_ctx(ctx, unified_a)
                    steps.extend(sa)
                    loop_steps = sb
            else:
                if tel.enabled:
                    tel.inc("checker.join.search_fallbacks")
                unified_a, _b, sa, sb = search_unify(ctx, body_ctx, live_loop)
                self._replace_ctx(ctx, unified_a)
                steps.extend(sa)
                loop_steps = sb
            if ctx.snapshot() == entry_snap:
                # Invariant stable: the exit context is the post-condition one.
                exit_ctx = ctx.clone()
                _cond2, cond_deriv = self.check_expr(node.cond, exit_ctx, None)
                self._replace_ctx(ctx, exit_ctx)
                return (
                    Value(ast.UNIT, None),
                    "T14-While",
                    steps,
                    [cond_deriv, body_deriv],
                    {"loop_steps": tuple(loop_steps)},
                )
        raise UnificationError(
            f"while loop at {node.span}: could not find a stable loop invariant"
        )

    def _check_if_disconnected(self, node: ast.IfDisconnected, ctx, expected):
        if not self.profile.allow_if_disconnected:
            raise TypeError_(
                f"profile {self.profile.name!r} has no 'if disconnected' primitive",
                node.span,
            )
        if not isinstance(node.left, ast.VarRef) or not isinstance(
            node.right, ast.VarRef
        ):
            raise TypeError_(
                "if disconnected arguments must be variables", node.span
            )
        left, lchild = self.check_expr(node.left, ctx, None)
        right, rchild = self.check_expr(node.right, ctx, None)
        for val, arg in ((left, node.left), (right, node.right)):
            if not ast.strip_maybe(val.ty).is_struct():
                raise TypeMismatch(
                    "if disconnected arguments must be struct references",
                    arg.span,
                )
        if left.region != right.region or left.region is None:
            raise SeparationError(
                "if disconnected arguments must come from the same region "
                f"(got {left.region} and {right.region})",
                node.span,
            )
        region = left.region
        steps = self._empty_region_tracking(ctx, region, self.liveness.live_after(node))
        if ctx.heap[region].pinned:
            raise TypeError_("if disconnected on a pinned region", node.span)

        lname, rname = node.left.name, node.right.name

        # THEN branch: the left argument's reachable subgraph forms a fresh
        # region; every other reference into the old region is unreliable —
        # aliases are dropped and inbound tracked fields invalidated (⊥),
        # reproducing "l.hd invalid at branch start" from fig 5.
        then_ctx = ctx.clone()
        fresh = then_ctx.supply.fresh()
        split_steps = [
            Step("W-FreshRegion", (fresh,)),
            Step("W-Bind", (lname, str(left.ty), fresh)),
        ]
        then_ctx.add_region(fresh)
        then_ctx.set_binding(lname, then_ctx.gamma[lname].ty, fresh)
        for name in sorted(then_ctx.vars_in_region(region)):
            if name != rname:
                then_ctx.drop_var(name)
                split_steps.append(Step("W-DropVar", (name,)))
        for _owner_region, owner, fieldname in then_ctx.inbound_refs(region):
            then_ctx.invalidate_field(owner, fieldname)
            split_steps.append(Step("W-InvalidateField", (owner, fieldname)))

        live = self.liveness.live_after(node)
        then_value, then_deriv, then_ctx, ts = self._check_branch_block(
            node.then_block, then_ctx, expected
        )
        else_ctx = ctx.clone()
        if node.else_block is not None:
            else_value, else_deriv, else_ctx, es = self._check_branch_block(
                node.else_block, else_ctx, expected
            )
        else:
            else_value, else_deriv, es = Value(ast.UNIT, None), None, []
            then_value = Value(ast.UNIT, None)

        result, joined, per_branch = self._join_branches(
            node,
            [(then_value, then_ctx, ts), (else_value, else_ctx, es)],
            live,
        )
        self._replace_ctx(ctx, joined)
        children = [lchild, rchild, then_deriv] + ([else_deriv] if else_deriv else [])
        return (
            result,
            "T15-If-Disconnected",
            steps,
            children,
            {
                "left": lname,
                "right": rname,
                "region": region,
                "split_region": fresh,
                "intro_steps": tuple(split_steps),
                "join_then": tuple(per_branch[0]),
                "join_else": tuple(per_branch[1]),
                "has_else": node.else_block is not None,
            },
        )

    # -- fields ---------------------------------------------------------------

    def _field_decl(
        self, base_ty: ast.Type, fieldname: str, node: ast.Expr
    ) -> Tuple[ast.StructDef, ast.FieldDecl]:
        stripped = ast.strip_maybe(base_ty)
        if isinstance(base_ty, ast.MaybeType):
            raise TypeMismatch(
                f"cannot access field {fieldname!r} of a maybe value; "
                "use let some(..) first",
                node.span,
            )
        if not stripped.is_struct():
            raise TypeMismatch(
                f"cannot access field {fieldname!r} of non-struct {base_ty}",
                node.span,
            )
        try:
            sdef = self.program.struct(stripped.name)
        except KeyError:
            raise UnknownName(f"unknown struct {stripped.name!r}", node.span) from None
        if not sdef.has_field(fieldname):
            raise UnknownName(
                f"struct {sdef.name} has no field {fieldname!r}", node.span
            )
        return sdef, sdef.field_decl(fieldname)

    def _ensure_tracked(
        self,
        ctx: StaticContext,
        name: str,
        fieldname: str,
        node: ast.Expr,
        live: FrozenSet[str],
    ) -> Tuple[Region, List[Step]]:
        """Make ``name.fieldname`` tracked, inserting Focus/Explore virtual
        transformations (TS1) greedily.  Returns the target region."""
        steps: List[Step] = []
        binding = ctx.lookup(name)
        assert binding.region is not None
        region = binding.region
        tracked_at = ctx.tracked_region_of(name)
        if tracked_at is not None and tracked_at != region:
            raise IsoFieldNotTrackable(
                f"{name!r} has a stale tracking entry", node.span
            )
        if tracked_at is None:
            if not self.profile.allow_focus:
                raise IsoFieldNotTrackable(
                    f"profile {self.profile.name!r} has no focus mechanism: "
                    f"cannot access iso field {name}.{fieldname} without a "
                    "destructive read or swap",
                    node.span,
                )
            tc = ctx.heap[region]
            if not tc.is_empty:
                # Try to clear other tracked variables out of the way.
                steps.extend(
                    self._empty_region_tracking(ctx, region, live, keep=name)
                )
            if not ctx.heap[region].is_empty:
                raise IsoFieldNotTrackable(
                    f"cannot focus {name!r}: region {region} already tracks "
                    f"{sorted(ctx.heap[region].vars)} (potential aliases)",
                    node.span,
                )
            ctx.focus(name)
            steps.append(Step("V1-Focus", (name,)))
        tv = ctx.tracked_var(name)
        assert tv is not None
        if fieldname not in tv.fields:
            target = self.supply.fresh()
            step = Step("V3-Explore", (name, fieldname, target))
            apply_step(ctx, step)
            steps.append(step)
            return target, steps
        target = tv.fields[fieldname]
        if target is None:
            raise InvalidatedField(
                f"iso field {name}.{fieldname} was invalidated and must be "
                "reassigned before use",
                node.span,
            )
        return target, steps

    def _empty_region_tracking(
        self,
        ctx: StaticContext,
        region: Region,
        live: FrozenSet[str],
        keep: Optional[str] = None,
    ) -> List[Step]:
        """Greedily clear a region's tracking context (unfocus/retract every
        tracked variable) — required by T15/T16/T9.  Raises when a tracked
        field's target region is still needed."""
        steps: List[Step] = []
        tc = ctx.heap[region]
        if tc.pinned:
            raise TypeError_(f"region {region} is pinned")
        for name in sorted(tc.vars):
            if name == keep:
                continue
            tv = tc.vars[name]
            if tv.pinned:
                raise TypeError_(f"tracked variable {name!r} is pinned")
            for fieldname in sorted(tv.fields):
                target = tv.fields[fieldname]
                if target is None:
                    raise InvalidatedField(
                        f"cannot release {name!r}: field {fieldname!r} is "
                        "invalidated and must be reassigned first"
                    )
                live_in_target = [
                    v for v in ctx.vars_in_region(target) if v in live
                ]
                if live_in_target:
                    raise IsoFieldNotTrackable(
                        f"cannot untrack {name}.{fieldname}: its target region "
                        f"holds live variables {live_in_target}"
                    )
                target_tc = ctx.heap[target]
                if not target_tc.is_empty:
                    steps.extend(
                        self._empty_region_tracking(ctx, target, live)
                    )
                ctx.retract(name, fieldname)
                steps.append(Step("V4-Retract", (name, fieldname)))
            ctx.unfocus(name)
            steps.append(Step("V2-Unfocus", (name,)))
        return steps

    def _check_field(self, node: ast.FieldRef, ctx, expected):
        base_value, base_child = self.check_expr(node.base, ctx, None)
        sdef, decl = self._field_decl(base_value.ty, node.fieldname, node)
        if not decl.is_iso:
            region = base_value.region if ast.strip_maybe(decl.ty).is_struct() else None
            return (
                Value(decl.ty, region),
                "T4-Field-Reference",
                [],
                [base_child],
                {"field": node.fieldname},
            )
        if not isinstance(node.base, ast.VarRef):
            raise IsoFieldNotTrackable(
                f"iso field {node.fieldname!r} may only be read from a named "
                "variable; bind the base with let first",
                node.span,
            )
        live = self.liveness.live_after(node) | self.analysis.uses(node)
        target, steps = self._ensure_tracked(
            ctx, node.base.name, node.fieldname, node, frozenset(live)
        )
        region = target if ast.strip_maybe(decl.ty).is_struct() else None
        return (
            Value(decl.ty, region),
            "T5-Isolated-Field-Reference",
            steps,
            [base_child],
            {"var": node.base.name, "field": node.fieldname},
        )

    def _check_assign(self, node: ast.Assign, ctx, expected):
        if isinstance(node.target, ast.VarRef):
            return self._check_assign_var(node, ctx)
        assert isinstance(node.target, ast.FieldRef)
        return self._check_assign_field(node, ctx)

    def _check_assign_var(self, node: ast.Assign, ctx):
        name = node.target.name
        declared_ty = ctx.lookup(name).ty
        value, child = self.check_expr(node.value, ctx, declared_ty)
        if not types_equal(value.ty, declared_ty):
            raise TypeMismatch(
                f"cannot assign {value.ty} to {name} : {declared_ty}", node.span
            )
        steps: List[Step] = []
        # Re-binding invalidates any tracking of the old referent.  (The
        # old binding may already be gone: a join inside the RHS prunes the
        # target variable, which is dead at that point — the assignment is
        # about to overwrite it.)
        tracked_at = ctx.tracked_region_of(name)
        if tracked_at is not None:
            tv = ctx.heap[tracked_at].vars[name]
            if not tv.fields:
                ctx.unfocus(name)
                steps.append(Step("V2-Unfocus", (name,)))
            else:
                ghost = self._ghost_name(name)
                ctx.rename_tracked(tracked_at, name, ghost)
                steps.append(Step("W-GhostRename", (name, ghost)))
        ctx.set_binding(name, value.ty, value.region)
        steps.append(Step("W-Bind", (name, str(value.ty), value.region)))
        return (
            Value(ast.UNIT, None),
            "T8-Assign-Var",
            steps,
            [child],
            {"var": name},
        )

    def _ghost_name(self, name: str) -> str:
        self._ghost_counter += 1
        return f"{name}$ghost{self._ghost_counter}"

    def _check_assign_field(self, node: ast.Assign, ctx):
        target: ast.FieldRef = node.target
        base_value, base_child = self.check_expr(target.base, ctx, None)
        sdef, decl = self._field_decl(base_value.ty, target.fieldname, node)
        value, value_child = self.check_expr(node.value, ctx, decl.ty)
        if not types_equal(value.ty, decl.ty):
            raise TypeMismatch(
                f"cannot assign {value.ty} to field {target.fieldname} : {decl.ty}",
                node.span,
            )
        children = [base_child, value_child]
        steps: List[Step] = []
        if not decl.is_iso:
            # T6: intra-region reference — value must live in the same region
            # (V5 Attach merges regions when needed).
            if ast.strip_maybe(decl.ty).is_struct() and value.region is not None:
                base_region = base_value.region
                if base_region is None:
                    raise TypeMismatch("field write on primitive", node.span)
                if value.region != base_region:
                    if not self.profile.allow_intra_region_refs:
                        raise SeparationError(
                            f"profile {self.profile.name!r} forbids merging "
                            "regions via non-iso references",
                            node.span,
                        )
                    ctx.attach(value.region, base_region)
                    steps.append(Step("V5-Attach", (value.region, base_region)))
            return (
                Value(ast.UNIT, None),
                "T6-Field-Assignment",
                steps,
                children,
                {"field": target.fieldname},
            )
        # T7: isolated field assignment.
        if not isinstance(target.base, ast.VarRef):
            raise IsoFieldNotTrackable(
                f"iso field {target.fieldname!r} may only be assigned through "
                "a named variable",
                node.span,
            )
        name = target.base.name
        live = self.liveness.live_after(node) | self.analysis.uses(node)
        _old_target, track_steps = self._ensure_tracked_for_write(
            ctx, name, target.fieldname, node, frozenset(live)
        )
        steps.extend(track_steps)
        if value.region is None:
            raise TypeMismatch(
                f"iso field {target.fieldname!r} cannot hold a primitive",
                node.span,
            )
        ctx.set_field_target(name, target.fieldname, value.region)
        steps.append(Step("T7-SetField", (name, target.fieldname, value.region)))
        return (
            Value(ast.UNIT, None),
            "T7-Isolated-Field-Assignment",
            steps,
            children,
            {"var": name, "field": target.fieldname},
        )

    def _ensure_tracked_for_write(
        self,
        ctx: StaticContext,
        name: str,
        fieldname: str,
        node: ast.Expr,
        live: FrozenSet[str],
    ) -> Tuple[Optional[Region], List[Step]]:
        """Like :meth:`_ensure_tracked` but tolerates an invalidated (⊥)
        field, since assignment is exactly how ⊥ fields are repaired."""
        tv = ctx.tracked_var(name)
        if tv is not None and fieldname in tv.fields and tv.fields[fieldname] is None:
            return None, []
        return self._ensure_tracked(ctx, name, fieldname, node, live)

    # -- allocation -------------------------------------------------------------

    def _check_new(self, node: ast.New, ctx, expected):
        value, children, steps = self._new_value(node, ctx, allow_iso=False)
        return value, "T10-New-Loc", steps, children, {"struct": node.struct}

    def _check_new_binding(
        self, name: str, node: ast.New, ctx: StaticContext
    ) -> Tuple[Value, Derivation, List[Step]]:
        pre = ctx.snapshot() if self.record else ((), ())
        value, children, steps, iso_inits = self._new_value_full(node, ctx)
        ctx.bind(name, value.ty, value.region)
        steps.append(Step("W-Bind", (name, str(value.ty), value.region)))
        if iso_inits:
            ctx.focus(name)
            steps.append(Step("V1-Focus", (name,)))
            assert ctx.tracked_var(name) is not None
            for fieldname, region in iso_inits:
                ctx.install_tracked_field(name, fieldname, region)
                steps.append(Step("T7-SetField", (name, fieldname, region)))
        self._note("T10-New-Loc", steps)
        deriv = Derivation(
            rule="T10-New-Loc",
            expr=_short(node),
            pre=pre,
            post=ctx.snapshot() if self.record else ((), ()),
            type_=str(value.ty),
            region=None if value.region is None else value.region.ident,
            steps=tuple(steps),
            children=children,
            meta={"struct": node.struct, "bound": name},
        )
        return value, deriv, []

    def _new_value(self, node: ast.New, ctx: StaticContext, allow_iso: bool):
        value, children, steps, iso_inits = self._new_value_full(node, ctx)
        if iso_inits and not allow_iso:
            raise TypeError_(
                "new with iso-field initializers must appear directly in a "
                "let binding (the object must be focused to track them)",
                node.span,
            )
        return value, children, steps

    def _new_value_full(self, node: ast.New, ctx: StaticContext):
        try:
            sdef = self.program.struct(node.struct)
        except KeyError:
            raise UnknownName(f"unknown struct {node.struct!r}", node.span) from None
        for fieldname in node.inits:
            if not sdef.has_field(fieldname):
                raise UnknownName(
                    f"struct {sdef.name} has no field {fieldname!r}", node.span
                )
        children: List[Derivation] = []
        steps: List[Step] = []
        init_values: Dict[str, Value] = {}
        for fieldname, init in node.inits.items():
            decl = sdef.field_decl(fieldname)
            value, child = self.check_expr(init, ctx, decl.ty)
            if not types_equal(value.ty, decl.ty):
                raise TypeMismatch(
                    f"initializer for {sdef.name}.{fieldname} has type "
                    f"{value.ty}, field is {decl.ty}",
                    node.span,
                )
            init_values[fieldname] = value
            children.append(child)
        # Defaults for uninitialized fields.
        for decl in sdef.fields:
            if decl.name in init_values:
                continue
            if isinstance(decl.ty, ast.MaybeType) or decl.ty.is_prim():
                continue  # defaults: none / 0 / false / unit
            if decl.is_iso:
                raise TypeError_(
                    f"new {sdef.name}: non-nullable iso field {decl.name!r} "
                    "must be initialized",
                    node.span,
                )
            if isinstance(decl.ty, ast.StructType) and decl.ty.name == sdef.name:
                continue  # self-reference default (the size-1 circular dll)
            raise TypeError_(
                f"new {sdef.name}: non-nullable field {decl.name!r} must be "
                "initialized",
                node.span,
            )
        region = ctx.fresh_region()
        steps.append(Step("W-FreshRegion", (region,)))
        iso_inits: List[Tuple[str, Region]] = []
        for fieldname, value in init_values.items():
            decl = sdef.field_decl(fieldname)
            if not ast.strip_maybe(decl.ty).is_struct() or value.region is None:
                continue
            if decl.is_iso:
                iso_inits.append((fieldname, value.region))
            else:
                if not self.profile.allow_intra_region_refs:
                    raise SeparationError(
                        f"profile {self.profile.name!r} forbids intra-region "
                        "references",
                        node.span,
                    )
                if value.region != region:
                    ctx.attach(value.region, region)
                    steps.append(Step("V5-Attach", (value.region, region)))
        return (
            Value(ast.StructType(sdef.name), region),
            children,
            steps,
            iso_inits,
        )

    # -- concurrency --------------------------------------------------------------

    def _check_send(self, node: ast.Send, ctx, expected):
        value, child = self.check_expr(node.value, ctx, None)
        if value.region is None:
            raise SendError(
                "send requires a struct (or maybe-of-struct) value", node.span
            )
        live = self.liveness.live_after(node)
        steps = self._empty_region_tracking(ctx, value.region, frozenset(live))
        if self.profile.unsound_send_keeps_region:
            # Seeded soundness bug (see CheckProfile): treat send as a
            # non-consuming read.  The emitted T16-Send node lacks its
            # consume step and every alias survives, so the independent
            # verifier and the guarded runtime must both disagree with us.
            return (
                Value(ast.UNIT, None),
                "T16-Send",
                steps,
                [child],
                {"region": value.region.ident, "type": str(value.ty)},
            )
        inbound = ctx.inbound_refs(value.region)
        for _owner_region, owner, fieldname in inbound:
            ctx.invalidate_field(owner, fieldname)
            steps.append(Step("W-InvalidateField", (owner, fieldname)))
        dropped = sorted(ctx.vars_in_region(value.region))
        for name in dropped:
            if name in live:
                raise SendError(
                    f"cannot send: variable {name!r} (aliasing the sent region) "
                    "is still used afterwards",
                    node.span,
                )
        ctx.consume_region_for_send(value.region)
        steps.append(Step("T16-ConsumeRegion", (value.region,)))
        return (
            Value(ast.UNIT, None),
            "T16-Send",
            steps,
            [child],
            {"region": value.region.ident, "type": str(value.ty)},
        )

    def _check_recv(self, node: ast.Recv, ctx, expected):
        if not ast.strip_maybe(node.ty).is_struct():
            raise TypeMismatch("recv type must be a struct type", node.span)
        base = ast.strip_maybe(node.ty)
        if base.name not in self.program.structs:
            raise UnknownName(f"unknown struct {base.name!r}", node.span)
        region = ctx.fresh_region()
        return (
            Value(node.ty, region),
            "T17-Receive",
            [Step("W-FreshRegion", (region,))],
            [],
            {"type": str(node.ty)},
        )

    # -- calls ----------------------------------------------------------------------

    def _check_call(self, node: ast.Call, ctx, expected):
        try:
            ftype = self.checker.functypes[node.func]
        except KeyError:
            raise UnknownName(f"unknown function {node.func!r}", node.span) from None
        if len(node.args) != len(ftype.params):
            raise ArityError(
                f"{node.func} expects {len(ftype.params)} arguments, got "
                f"{len(node.args)}",
                node.span,
            )
        children: List[Derivation] = []
        steps: List[Step] = []
        arg_values: Dict[str, Value] = {}
        arg_exprs: Dict[str, ast.Expr] = {}
        for (pname, pty), arg in zip(ftype.params, node.args):
            value, child = self.check_expr(arg, ctx, pty)
            if not types_equal(value.ty, pty):
                raise TypeMismatch(
                    f"{node.func}: argument {pname!r} expects {pty}, got {value.ty}",
                    node.span,
                )
            arg_values[pname] = value
            arg_exprs[pname] = arg
            children.append(child)

        live = frozenset(self.liveness.live_after(node))

        # Group arguments by input region variable; all members of a group
        # must share one region (attach if needed); distinct groups must be
        # provably separate (distinct regions).
        group_region: Dict[int, Region] = {}
        for pname, _ in ftype.params:
            rv = ftype.input_region[pname]
            value = arg_values[pname]
            if rv is None:
                continue
            if value.region is None:
                raise TypeMismatch(
                    f"{node.func}: argument {pname!r} must be a struct value",
                    node.span,
                )
            if rv not in group_region:
                group_region[rv] = value.region
            elif group_region[rv] != value.region:
                ctx.attach(value.region, group_region[rv])
                steps.append(Step("V5-Attach", (value.region, group_region[rv])))
        regions = list(group_region.values())
        if len(set(regions)) != len(regions):
            raise SeparationError(
                f"{node.func}: arguments in distinct parameter regions must "
                "occupy provably disjoint regions (aliasing arguments?)",
                node.span,
            )

        # Each argument region must present an empty tracking context —
        # except regions for pinned parameters: the callee takes a partial
        # (pinned) view, so the call site's tracking stays in place (TS2).
        pinned_rvs = {
            ftype.input_region[p] for p in ftype.pinned
        }
        for rv, region in group_region.items():
            if rv in pinned_rvs:
                continue
            steps.extend(self._empty_region_tracking(ctx, region, live))

        # Consumed parameters: their region capability disappears.
        for pname in sorted(ftype.consumes):
            rv = ftype.input_region[pname]
            assert rv is not None
            region = group_region[rv]
            if region in ctx.heap:
                for name in ctx.vars_in_region(region):
                    if name in live:
                        raise SeparationError(
                            f"{node.func} consumes {pname!r}, but variable "
                            f"{name!r} in the same region is used afterwards",
                            node.span,
                        )
                ctx.drop_region(region)
                steps.append(Step("W-DropRegion", (region,)))

        # Output merges: parameters whose output regions coincide force
        # attaches at the call site.
        out_region_map: Dict[int, Region] = {}
        for pname, _ in ftype.params:
            if pname in ftype.consumes:
                continue
            rv_out = ftype.output_region.get(pname)
            rv_in = ftype.input_region[pname]
            if rv_out is None or rv_in is None:
                continue
            region = group_region[rv_in]
            if rv_out in out_region_map:
                if out_region_map[rv_out] != region and region in ctx.heap:
                    ctx.attach(region, out_region_map[rv_out])
                    steps.append(
                        Step("V5-Attach", (region, out_region_map[rv_out]))
                    )
            else:
                out_region_map[rv_out] = region

        # Fresh output regions (e.g. the default result region).
        for rv in ftype.output_region_vars:
            if rv not in out_region_map:
                region = ctx.fresh_region()
                out_region_map[rv] = region
                steps.append(Step("W-FreshRegion", (region,)))

        # Declared output tracking: install onto call-site variables.
        for entry in ftype.output_tracking:
            arg = arg_exprs[entry.var]
            target = out_region_map[entry.target]
            if not isinstance(arg, ast.VarRef) or not ctx.has_var(arg.name):
                continue  # information about a temporary: weaken it away
            name = arg.name
            if ctx.tracked_region_of(name) is None:
                binding = ctx.lookup(name)
                if binding.region is not None and ctx.heap[binding.region].is_empty:
                    ctx.focus(name)
                    steps.append(Step("V1-Focus", (name,)))
            if ctx.tracked_var(name) is not None:
                ctx.install_tracked_field(name, entry.fieldname, target)
                steps.append(Step("T7-SetField", (name, entry.fieldname, target)))

        result_region = (
            None
            if ftype.result_region is None
            else out_region_map[ftype.result_region]
        )
        return (
            Value(ftype.return_type, result_region),
            "T9-Function-Application",
            steps,
            children,
            {"function": node.func},
        )

    _HANDLERS = {
        ast.IntLit: _check_int,
        ast.BoolLit: _check_bool,
        ast.UnitLit: _check_unit,
        ast.NoneLit: _check_none,
        ast.VarRef: _check_var,
        ast.SomeExpr: _check_some,
        ast.IsNone: _check_is_none,
        ast.IsSome: _check_is_some,
        ast.Unop: _check_unop,
        ast.Binop: _check_binop,
        ast.Block: _check_block,
        ast.LetBind: _check_let,
        ast.LetSome: _check_let_some,
        ast.If: _check_if,
        ast.While: _check_while,
        ast.IfDisconnected: _check_if_disconnected,
        ast.FieldRef: _check_field,
        ast.Assign: _check_assign,
        ast.New: _check_new,
        ast.Send: _check_send,
        ast.Recv: _check_recv,
        ast.Call: _check_call,
    }


def _short(node: ast.Expr, limit: int = 60) -> str:
    text = pretty.pretty_expr(node).replace("\n", " ")
    if len(text) > limit:
        text = text[: limit - 1] + "…"
    return text


def check_source(
    source: str,
    profile: CheckProfile = DEFAULT_PROFILE,
    record: bool = True,
) -> ProgramDerivation:
    """Parse and type-check an FCL program from source text."""
    from ..lang import parse_program

    return Checker(parse_program(source), profile, record).check_program()
