"""Small-step operational semantics (fig 7) as an explicit CEK machine.

This is the repository's reference semantics: it implements the paper's
own presentation of FCL's dynamic semantics, and the compiled bytecode
engine that :class:`~repro.runtime.machine.Machine` runs is checked
against it (fuzz oracle 4, ``repro run --paranoid``, and the IR parity
tests compare heap-event traces byte for byte).  A
configuration ``(d, h, s, e)`` — reservation, heap, stack, expression —
advanced one transition at a time by :meth:`Config.step`.  Continuations
are an explicit frame stack, so there is no Python recursion: million-step
executions and deeply recursive FCL functions run in constant Python stack.

Every variable use, function argument, field read, and field write performs the reservation
check of rules E2/E5A/E7A/E8 (when enabled); a failed check raises
:class:`~repro.runtime.machine.ReservationViolation` — the operational
"stuck" state.  ``send``/``recv`` yield :data:`BLOCKED_SEND` /
:data:`BLOCKED_RECV` statuses that :class:`SmallStepMachine` pairs up per
EC3 (fig 15).

:class:`SmallStepMachine` takes the same :class:`~repro.runtime.machine.
Scheduler` policies and :class:`~repro.runtime.trace.Tracer` as
``Machine``, so the two can be run over the same schedule and their
traces compared.  Tests also run invariant audits at step granularity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..lang import ast
from .disconnect import efficient_disconnected, naive_disconnected
from .heap import Heap
from .machine import (
    DeadlockError,
    MachineError,
    RandomScheduler,
    ReservationViolation,
    Scheduler,
    pick_thread,
)
from .trace import RECV as TRACE_RECV
from .trace import SEND as TRACE_SEND
from .trace import Tracer
from .values import NONE, UNIT, Loc, RuntimeValue, binop, is_loc

# Thread statuses.
RUNNING = "running"
DONE = "done"
BLOCKED_SEND = "blocked_send"
BLOCKED_RECV = "blocked_recv"


class Env:
    """A chain of block scopes within one function frame."""

    __slots__ = ("scopes",)

    def __init__(self, initial: Optional[Dict[str, RuntimeValue]] = None):
        self.scopes: List[Dict[str, RuntimeValue]] = [dict(initial or {})]

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def bind(self, name: str, value: RuntimeValue) -> None:
        self.scopes[-1][name] = value

    def lookup(self, name: str) -> RuntimeValue:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise MachineError(f"unbound variable {name!r} at run time")

    def assign(self, name: str, value: RuntimeValue) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise MachineError(f"assignment to unbound variable {name!r}")


# ---------------------------------------------------------------------------
# Continuation frames
# ---------------------------------------------------------------------------


@dataclass
class SeqK:
    """Evaluating statement ``index`` of a block; scope pops at the end."""

    block: ast.Block
    index: int


@dataclass
class ScopePopK:
    """Restore a block scope, passing the block's value through."""

    value_is_unit: bool  # blocks ending in a binding yield unit


@dataclass
class IsNoneK:
    pass


@dataclass
class IsSomeK:
    pass


@dataclass
class UnopK:
    op: str


@dataclass
class BinopLK:
    op: str
    right: ast.Expr


@dataclass
class BinopRK:
    op: str
    left: RuntimeValue


@dataclass
class LetBindK:
    name: str


@dataclass
class LetSomeK:
    node: ast.LetSome


@dataclass
class LetSomePopK:
    """Pop the scope introduced for a matched let-some binding."""


@dataclass
class AssignVarK:
    name: str


@dataclass
class FieldReadK:
    fieldname: str


@dataclass
class AssignFieldBaseK:
    fieldname: str
    value_expr: ast.Expr


@dataclass
class AssignFieldValK:
    loc: Loc
    fieldname: str


@dataclass
class IfK:
    node: ast.If


@dataclass
class IfDiscLK:
    node: ast.IfDisconnected


@dataclass
class IfDiscRK:
    node: ast.IfDisconnected
    left: Loc


@dataclass
class WhileK:
    node: ast.While


@dataclass
class CallK:
    fdef: ast.FuncDef
    args_done: List[RuntimeValue]
    remaining: List[ast.Expr]


@dataclass
class RetK:
    env: Env


@dataclass
class NewK:
    struct: str
    names: List[str]
    values: List[RuntimeValue]
    remaining: List[ast.Expr]


@dataclass
class SendK:
    pass


Frame = object


class Config:
    """One thread's small-step configuration ``(d, h, s, e)`` plus the
    continuation stack."""

    def __init__(
        self,
        program: ast.Program,
        heap: Heap,
        reservation: Set[Loc],
        func: str,
        args: Sequence[RuntimeValue],
        check_reservations: bool = True,
        disconnect: str = "efficient",
    ):
        fdef = program.func(func)
        args = list(args)
        if len(fdef.params) != len(args):
            raise MachineError(f"{func}: arity mismatch")
        env = Env({p.name: a for p, a in zip(fdef.params, args)})
        self._setup(
            program, heap, reservation, fdef.body, env, check_reservations,
            disconnect,
        )
        for value in args:
            if is_loc(value):
                self._guard(value)

    @classmethod
    def for_expression(
        cls,
        program: ast.Program,
        heap: Heap,
        reservation: Set[Loc],
        expr: ast.Expr,
        env: Env,
        check_reservations: bool = True,
        disconnect: str = "efficient",
    ) -> "Config":
        """A configuration evaluating ``expr`` under an existing ``env``
        (the REPL's session scope) instead of a function call."""
        config = cls.__new__(cls)
        config._setup(
            program, heap, reservation, expr, env, check_reservations,
            disconnect,
        )
        return config

    def _setup(
        self,
        program: ast.Program,
        heap: Heap,
        reservation: Set[Loc],
        expr: ast.Expr,
        env: Env,
        check_reservations: bool,
        disconnect: str,
    ) -> None:
        self.program = program
        self.heap = heap
        self.reservation = reservation
        self.check_reservations = check_reservations
        self._disconnected = (
            efficient_disconnected if disconnect == "efficient" else naive_disconnected
        )
        # Verified-erasure fast path (§3.2): the guard is chosen once at
        # construction, not branched on per location use.
        self._guard = self._guard_checked if check_reservations else self._guard_erased
        self.env = env
        self.kont: List[Frame] = []
        #: Either ("eval", expr) or ("apply", value).
        self.control: Tuple = ("eval", expr)
        #: Position in the owning SmallStepMachine (what schedulers see).
        self.ident = 0
        self.status = RUNNING
        self.result: Optional[RuntimeValue] = None
        self.steps = 0
        #: Dynamic reservation checks performed, counted at the same sites
        #: as the IR engine's guarded tier (one per location guarded, one
        #: per send containment check).
        self.reservation_checks = 0
        # Rendezvous scratch.
        self.pending_send: Optional[Tuple[str, Loc, Set[Loc]]] = None
        self.pending_recv_struct: Optional[str] = None

    # -- dynamic reservation checks (E2, E5A, E7A, E8) ------------------------

    def _guard_checked(self, value: RuntimeValue) -> RuntimeValue:
        if is_loc(value):
            self.reservation_checks += 1
            if value not in self.reservation:
                raise ReservationViolation(
                    f"access to {value} outside the thread's reservation"
                )
        return value

    @staticmethod
    def _guard_erased(value: RuntimeValue) -> RuntimeValue:
        return value

    # -- the transition function ------------------------------------------------

    def step(self) -> str:
        """Perform one small-step transition; returns the new status."""
        if self.status != RUNNING:
            return self.status
        self.steps += 1
        kind = self.control[0]
        if kind == "eval":
            self._step_eval(self.control[1])
        else:
            self._step_apply(self.control[1])
        return self.status

    def run(self, max_steps: Optional[int] = 10_000_000) -> RuntimeValue:
        """Drive a single thread to completion (no send/recv); with
        ``max_steps=None`` there is no transition budget."""
        budget = itertools.count() if max_steps is None else range(max_steps)
        for _ in budget:
            status = self.step()
            if status == DONE:
                return self.result
            if status in (BLOCKED_SEND, BLOCKED_RECV):
                raise MachineError(
                    "single-threaded run cannot service send/recv"
                )
        raise MachineError("step budget exhausted")

    # -- eval transitions ---------------------------------------------------------

    def _step_eval(self, node: ast.Expr) -> None:
        if isinstance(node, ast.IntLit):
            self._apply(node.value)
        elif isinstance(node, ast.BoolLit):
            self._apply(node.value)
        elif isinstance(node, ast.UnitLit):
            self._apply(UNIT)
        elif isinstance(node, ast.NoneLit):
            self._apply(NONE)
        elif isinstance(node, ast.VarRef):
            self._apply(self._guard(self.env.lookup(node.name)))  # E2
        elif isinstance(node, ast.SomeExpr):
            self.control = ("eval", node.inner)  # some(v) ≡ v
        elif isinstance(node, ast.IsNone):
            self.kont.append(IsNoneK())
            self.control = ("eval", node.inner)
        elif isinstance(node, ast.IsSome):
            self.kont.append(IsSomeK())
            self.control = ("eval", node.inner)
        elif isinstance(node, ast.Unop):
            self.kont.append(UnopK(node.op))
            self.control = ("eval", node.inner)
        elif isinstance(node, ast.Binop):
            self.kont.append(BinopLK(node.op, node.right))
            self.control = ("eval", node.left)
        elif isinstance(node, ast.Block):
            self.env.push()
            if not node.body:
                self.kont.append(ScopePopK(value_is_unit=True))
                self._apply(UNIT)
            else:
                self.kont.append(SeqK(node, 0))
                self.control = ("eval", node.body[0])
        elif isinstance(node, ast.LetBind):
            self.kont.append(LetBindK(node.name))
            self.control = ("eval", node.init)
        elif isinstance(node, ast.LetSome):
            self.kont.append(LetSomeK(node))
            self.control = ("eval", node.scrutinee)
        elif isinstance(node, ast.Assign):
            if isinstance(node.target, ast.VarRef):
                self.kont.append(AssignVarK(node.target.name))
                self.control = ("eval", node.value)
            else:
                target: ast.FieldRef = node.target
                self.kont.append(
                    AssignFieldBaseK(target.fieldname, node.value)
                )
                self.control = ("eval", target.base)
        elif isinstance(node, ast.FieldRef):
            self.kont.append(FieldReadK(node.fieldname))
            self.control = ("eval", node.base)
        elif isinstance(node, ast.If):
            self.kont.append(IfK(node))
            self.control = ("eval", node.cond)
        elif isinstance(node, ast.IfDisconnected):
            self.kont.append(IfDiscLK(node))
            self.control = ("eval", node.left)
        elif isinstance(node, ast.While):
            self.kont.append(WhileK(node))
            self.control = ("eval", node.cond)
        elif isinstance(node, ast.Call):
            fdef = self.program.func(node.func)
            if not node.args:
                self._enter_function(fdef, [])
            else:
                self.kont.append(CallK(fdef, [], list(node.args[1:])))
                self.control = ("eval", node.args[0])
        elif isinstance(node, ast.New):
            names = list(node.inits.keys())
            if not names:
                self._apply(self._allocate(node.struct, [], []))
            else:
                exprs = list(node.inits.values())
                self.kont.append(NewK(node.struct, names, [], exprs[1:]))
                self.control = ("eval", exprs[0])
        elif isinstance(node, ast.Send):
            self.kont.append(SendK())
            self.control = ("eval", node.value)
        elif isinstance(node, ast.Recv):
            self.pending_recv_struct = ast.strip_maybe(node.ty).name
            self.status = BLOCKED_RECV
        else:
            raise MachineError(f"cannot step {type(node).__name__}")

    # -- apply transitions -----------------------------------------------------------

    def _apply(self, value: RuntimeValue) -> None:
        self.control = ("apply", value)
        if not self.kont:
            self.status = DONE
            self.result = value

    def _step_apply(self, value: RuntimeValue) -> None:
        if not self.kont:
            self.status = DONE
            self.result = value
            return
        frame = self.kont.pop()

        if isinstance(frame, SeqK):
            entry = frame.block.body[frame.index]
            is_last = frame.index == len(frame.block.body) - 1
            if is_last:
                unit_block = isinstance(entry, ast.LetBind)
                self.kont.append(ScopePopK(value_is_unit=unit_block))
                self._apply(value)
            else:
                self.kont.append(SeqK(frame.block, frame.index + 1))
                self.control = ("eval", frame.block.body[frame.index + 1])
        elif isinstance(frame, ScopePopK):
            self.env.pop()
            self._apply(UNIT if frame.value_is_unit else value)
        elif isinstance(frame, IsNoneK):
            self._apply(value is NONE)
        elif isinstance(frame, IsSomeK):
            self._apply(value is not NONE)
        elif isinstance(frame, UnopK):
            self._apply((not value) if frame.op == "!" else -value)
        elif isinstance(frame, BinopLK):
            self.kont.append(BinopRK(frame.op, value))
            self.control = ("eval", frame.right)
        elif isinstance(frame, BinopRK):
            self._apply(binop(frame.op, frame.left, value))
        elif isinstance(frame, LetBindK):
            self.env.bind(frame.name, value)
            self._apply(UNIT)
        elif isinstance(frame, LetSomeK):
            node = frame.node
            if value is NONE:
                if node.else_block is None:
                    self._apply(UNIT)
                else:
                    self.control = ("eval", node.else_block)
            else:
                self.env.push()
                self.env.bind(node.name, value)
                self.kont.append(LetSomePopK())
                self.control = ("eval", node.then_block)
        elif isinstance(frame, LetSomePopK):
            self.env.pop()
            self._apply(value)
        elif isinstance(frame, AssignVarK):
            self.env.assign(frame.name, value)
            self._apply(UNIT)
        elif isinstance(frame, FieldReadK):
            loc = self._as_loc(value)
            self._guard(loc)  # E5A
            read = self.heap.read_field(loc, frame.fieldname)
            self._apply(self._guard(read) if is_loc(read) else read)
        elif isinstance(frame, AssignFieldBaseK):
            loc = self._as_loc(value)
            self.kont.append(AssignFieldValK(loc, frame.fieldname))
            self.control = ("eval", frame.value_expr)
        elif isinstance(frame, AssignFieldValK):
            self._guard(frame.loc)  # E7A
            if is_loc(value):
                self._guard(value)
            self.heap.write_field(frame.loc, frame.fieldname, value)
            self._apply(UNIT)
        elif isinstance(frame, IfK):
            node = frame.node
            if value:
                self.control = ("eval", node.then_block)
            elif node.else_block is not None:
                self.control = ("eval", node.else_block)
            else:
                self._apply(UNIT)
        elif isinstance(frame, IfDiscLK):
            self.kont.append(IfDiscRK(frame.node, self._as_loc(value)))
            self.control = ("eval", frame.node.right)
        elif isinstance(frame, IfDiscRK):
            left = frame.left
            right = self._as_loc(value)
            self._guard(left)
            self._guard(right)
            disconnected, _stats = self._disconnected(self.heap, left, right)
            node = frame.node
            if disconnected:  # E15A
                self.control = ("eval", node.then_block)
            elif node.else_block is not None:  # E15B
                self.control = ("eval", node.else_block)
            else:
                self._apply(UNIT)
        elif isinstance(frame, WhileK):
            node = frame.node
            if value:
                # Evaluate the body, then re-evaluate the condition.
                self.kont.append(WhileK(node))
                self.kont.append(_WhileBodyK(node))
                self.control = ("eval", node.body)
            else:
                self._apply(UNIT)
        elif isinstance(frame, _WhileBodyK):
            # Body finished; re-evaluate the condition (WhileK is beneath).
            self.control = ("eval", frame.node.cond)
        elif isinstance(frame, CallK):
            frame.args_done.append(value)
            if frame.remaining:
                next_arg = frame.remaining.pop(0)
                self.kont.append(frame)
                self.control = ("eval", next_arg)
            else:
                self._enter_function(frame.fdef, frame.args_done)
        elif isinstance(frame, RetK):
            self.env = frame.env
            self._apply(value)
        elif isinstance(frame, NewK):
            frame.values.append(value)
            if frame.remaining:
                next_init = frame.remaining.pop(0)
                self.kont.append(frame)
                self.control = ("eval", next_init)
            else:
                self._apply(
                    self._allocate(frame.struct, frame.names, frame.values)
                )
        elif isinstance(frame, SendK):
            root = self._as_loc(value)
            live = self.heap.live_set(root)
            if self.check_reservations:
                self.reservation_checks += 1
                if not live <= self.reservation:
                    raise ReservationViolation(
                        "send: the live set leaks outside the sender's "
                        "reservation"
                    )
            self.pending_send = (
                self.heap.obj(root).struct.name,
                root,
                live,
            )
            self.status = BLOCKED_SEND
        else:
            raise MachineError(f"unknown frame {type(frame).__name__}")

    # -- helpers -------------------------------------------------------------------------

    def _enter_function(self, fdef: ast.FuncDef, args: List[RuntimeValue]) -> None:
        if len(args) != len(fdef.params):
            raise MachineError(f"{fdef.name}: arity mismatch")
        for value in args:
            if is_loc(value):
                self._guard(value)
        self.kont.append(RetK(self.env))
        self.env = Env({p.name: a for p, a in zip(fdef.params, args)})
        self.control = ("eval", fdef.body)

    def _allocate(
        self, struct: str, names: List[str], values: List[RuntimeValue]
    ) -> Loc:
        sdef = self.program.struct(struct)
        loc = self.heap.alloc(sdef, dict(zip(names, values)))
        self.reservation.add(loc)
        return loc

    @staticmethod
    def _as_loc(value: RuntimeValue) -> Loc:
        if not is_loc(value):
            raise MachineError(
                f"expected an object reference, got {value!r}"
            )
        return value

    # -- rendezvous completion (driven by the machine) --------------------------------

    def complete_send(self) -> None:
        assert self.pending_send is not None
        _struct, _root, live = self.pending_send
        self.reservation.difference_update(live)
        self.pending_send = None
        self.status = RUNNING
        self._apply(UNIT)

    def complete_recv(self, root: Loc, live: Set[Loc]) -> None:
        self.reservation.update(live)
        self.pending_recv_struct = None
        self.status = RUNNING
        self._apply(root)


@dataclass
class _WhileBodyK:
    node: ast.While


# ---------------------------------------------------------------------------
# Concurrent small-step machine
# ---------------------------------------------------------------------------


class SmallStepMachine:
    """n-tuple of configurations over one shared heap (§7)."""

    def __init__(
        self,
        program: ast.Program,
        check_reservations: bool = True,
        disconnect: str = "efficient",
        seed: Optional[int] = None,
        audit_every: int = 0,
        scheduler: Optional[Scheduler] = None,
        tracer: Optional[Tracer] = None,
    ):
        """``audit_every=n`` re-checks the §6 invariants (pairwise-disjoint
        reservations, exact stored refcounts) every n scheduler steps —
        an executable form of preservation, used by the soundness tests.

        ``scheduler`` and ``tracer`` are the ones :class:`~repro.runtime.
        machine.Machine` takes; every transition is one scheduling point."""
        self.program = program
        self.heap = Heap(tracer=tracer)
        self.check_reservations = check_reservations
        self.disconnect = disconnect
        self.scheduler = scheduler if scheduler is not None else RandomScheduler(seed)
        self.configs: List[Config] = []
        self.waits: Dict[int, int] = {}
        self.audit_every = audit_every
        self.audits = 0

    @property
    def rng(self):
        """The default :class:`RandomScheduler`'s random stream."""
        return self.scheduler.rng

    def spawn(self, func: str, args: Sequence[RuntimeValue] = ()) -> Config:
        reservation: Set[Loc] = set()
        for value in args:
            if is_loc(value):
                reservation |= self.heap.live_set(value)
        config = Config(
            self.program,
            self.heap,
            reservation,
            func,
            args,
            check_reservations=self.check_reservations,
            disconnect=self.disconnect,
        )
        config.ident = len(self.configs)
        self.configs.append(config)
        return config

    def reservations_disjoint(self) -> bool:
        seen: Set[Loc] = set()
        for config in self.configs:
            if seen & config.reservation:
                return False
            seen |= config.reservation
        return True

    def run(self, max_steps: int = 50_000_000) -> None:
        tracer = self.heap.tracer
        for tick in range(max_steps):
            self._match_rendezvous()
            runnable = [c for c in self.configs if c.status == RUNNING]
            if not runnable:
                blocked = [
                    c
                    for c in self.configs
                    if c.status in (BLOCKED_SEND, BLOCKED_RECV)
                ]
                if not blocked:
                    return
                states = ", ".join(
                    f"config {c.ident}: {c.status}" for c in blocked
                )
                raise DeadlockError(f"all configurations blocked — {states}")
            config, _wait = pick_thread(self.scheduler, runnable, self.waits)
            if tracer is not None:
                tracer.current_thread = config.ident
            config.step()
            if self.audit_every and tick % self.audit_every == 0:
                self._audit()
        raise MachineError("scheduler step budget exhausted")

    def _audit(self) -> None:
        """Preservation, executably: the §6 invariants after a step."""
        from ..analysis.invariants import (
            InvariantViolation,
            check_refcounts,
        )

        self.audits += 1
        if not self.reservations_disjoint():
            raise InvariantViolation("reservations overlap after a step")
        check_refcounts(self.heap)

    def _match_rendezvous(self) -> None:
        senders = [c for c in self.configs if c.status == BLOCKED_SEND]
        receivers = [c for c in self.configs if c.status == BLOCKED_RECV]
        for sender in senders:
            struct, root, live = sender.pending_send
            matching = [
                r for r in receivers if r.pending_recv_struct == struct
            ]
            if not matching:
                continue
            receiver = self.scheduler.pick_receiver(sender, matching)
            receivers.remove(receiver)
            tracer = self.heap.tracer
            if tracer is not None:
                tracer.record(TRACE_SEND, root, struct=struct, thread=sender.ident)
                tracer.record(
                    TRACE_RECV, root, struct=struct, thread=receiver.ident
                )
            sender.complete_send()
            receiver.complete_recv(root, live)


def run_function_smallstep(
    program: ast.Program,
    name: str,
    args: Sequence[RuntimeValue] = (),
    heap: Optional[Heap] = None,
    check_reservations: bool = True,
    disconnect: str = "efficient",
) -> Tuple[RuntimeValue, Config]:
    """Single-threaded small-step execution to completion (a tracer on
    ``heap`` records the same events :func:`~repro.runtime.machine.
    run_function` does)."""
    heap = heap if heap is not None else Heap()
    config = Config(
        program,
        heap,
        set(heap.locations()),
        name,
        list(args),
        check_reservations=check_reservations,
        disconnect=disconnect,
    )
    return config.run(), config
