"""Basic-block IR for checked FCL functions.

The IR sits between the AST (``lang/ast.py``) and the flat bytecode the
dispatch loop executes (``ir/bytecode.py``).  A function is a list of
:class:`BasicBlock`; each block is straight-line :class:`Instr` list ended
by a single terminator (``jmp``/``br``/``ret``).  Values live in numbered
*slots* (virtual registers): parameters occupy slots ``0..nparams-1`` and
every sub-expression result gets a fresh slot, so passes can reason about
defs/uses without an environment model.

The representation is deliberately SSA-*style*, not strict SSA: a surface
variable keeps one slot for its whole scope (FCL has no closures, so a
compile-time scope map is exact), and loops re-assign slots instead of
introducing phi nodes.  The pass pipeline (``ir/passes.py``) only needs
per-block value numbering plus a global liveness analysis, both of which
work fine on this form.

Instruction set (``dest`` is a slot or ``None``; ``args`` is per-op):

======== =================================== ================================
op       args                                meaning
======== =================================== ================================
const    (value,)                            dest := literal (int/bool/unit/none)
mov      (src,)                              dest := slot src
unop     (op, src)                           dest := !src / -src
binop    (op, l, r)                          dest := l OP r (both pre-evaluated)
isnone   (src,)                              dest := src is none
issome   (src,)                              dest := src is not none
check    (src,)                              reservation guard on slot src
asloc    (src,)                              runtime object-reference assertion
load     (base, field)                       dest := heap[base].field
store    (base, field, value)                heap[base].field := value
new      (struct, fieldnames, valueslots)    dest := fresh object
call     (fname, argslots)                   dest := fname(args)
send     (src,)                              dest := unit; yields to scheduler
recv     (tyname,)                           dest := received root
disc     (l, r)                              dest := disconnected(l, r)
tload    (base, field, src)                  dest := slot src, emitting the
                                             read trace event the replaced
                                             ``load`` would have emitted
tstore   (base, field, src)                  dest := slot src, emitting the
                                             write trace event; dest is
                                             read *before* the write (it
                                             holds the event's old value)
sload    (base, field)                       dest := heap[base].field with
                                             NO trace event (hoisted-load
                                             priming read in a preheader)
jmp      (label,)                            terminator
br       (cond, tlabel, flabel)              terminator
ret      (src,)                              terminator
======== =================================== ================================

``check`` instructions exist only in checked compilations: erased mode
never emits them (guard erasure happens at lowering time, not dispatch
time), which is what makes the erased bytecode genuinely check-free.

``tload``/``tstore``/``sload`` exist only in *observable* full-tier
compilations (erased mode with a tracer attached): they are how the
optimizer eliminates heap traffic while still emitting every heap event
at its original position, keeping ``--trace-json`` byte-identical with
the small-step reference machine.  Lowering never creates them; only the passes do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

TERMINATOR_OPS = ("jmp", "br", "ret")


class Instr:
    """One IR instruction (or terminator)."""

    __slots__ = ("op", "dest", "args")

    def __init__(self, op: str, dest: Optional[int] = None, *args):
        self.op = op
        self.dest = dest
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return render_instr(self)


def instr_uses(ins: Instr) -> Tuple[int, ...]:
    """The slots an instruction reads, in evaluation order."""
    op = ins.op
    args = ins.args
    if op in ("mov", "isnone", "issome", "check", "asloc", "send", "load",
              "sload"):
        return (args[0],)
    if op == "unop":
        return (args[1],)
    if op == "binop":
        return (args[1], args[2])
    if op == "store":
        return (args[0], args[2])
    if op == "tload":
        return (args[0], args[2])
    if op == "tstore":
        # dest is read before it is written: it carries the replaced
        # store's old field value into the write trace event.
        return (args[0], args[2], ins.dest)
    if op == "new":
        return tuple(args[2])
    if op == "call":
        return tuple(args[1])
    if op == "disc":
        return (args[0], args[1])
    if op == "br":
        return (args[0],)
    if op == "ret":
        return (args[0],)
    return ()  # const, recv, jmp


def rewrite_uses(ins: Instr, mapping: Dict[int, int]) -> None:
    """Replace slot reads according to ``mapping`` (in place)."""
    op = ins.op
    args = ins.args
    get = mapping.get
    if op in ("mov", "isnone", "issome", "check", "asloc", "send"):
        ins.args = (get(args[0], args[0]),)
    elif op == "sload":
        ins.args = (get(args[0], args[0]), args[1])
    elif op in ("tload", "tstore"):
        ins.args = (get(args[0], args[0]), args[1], get(args[2], args[2]))
    elif op == "unop":
        ins.args = (args[0], get(args[1], args[1]))
    elif op == "binop":
        ins.args = (args[0], get(args[1], args[1]), get(args[2], args[2]))
    elif op == "load":
        ins.args = (get(args[0], args[0]), args[1])
    elif op == "store":
        ins.args = (get(args[0], args[0]), args[1], get(args[2], args[2]))
    elif op == "new":
        ins.args = (args[0], args[1], tuple(get(s, s) for s in args[2]))
    elif op == "call":
        ins.args = (args[0], tuple(get(s, s) for s in args[1]))
    elif op == "disc":
        ins.args = (get(args[0], args[0]), get(args[1], args[1]))
    elif op == "br":
        ins.args = (get(args[0], args[0]), args[1], args[2])
    elif op == "ret":
        ins.args = (get(args[0], args[0]),)


class BasicBlock:
    """A straight-line instruction run ended by one terminator."""

    __slots__ = ("label", "instrs", "term")

    def __init__(self, label: int, instrs: Optional[List[Instr]] = None,
                 term: Optional[Instr] = None):
        self.label = label
        self.instrs: List[Instr] = instrs if instrs is not None else []
        self.term = term


class IRFunction:
    """A lowered FCL function: parameters in slots 0..nparams-1, entry at
    ``blocks[0]``."""

    def __init__(self, name: str, nparams: int):
        self.name = name
        self.nparams = nparams
        self.nslots = nparams
        self.blocks: List[BasicBlock] = []
        self._next_label = 0
        #: Pool slots pre-initialized in the frame prototype (ConstPoolPass).
        self.const_slots: Dict[int, object] = {}

    def new_slot(self) -> int:
        slot = self.nslots
        self.nslots += 1
        return slot

    def new_label(self) -> int:
        label = self._next_label
        self._next_label += 1
        return label

    def new_block(self) -> BasicBlock:
        block = BasicBlock(self.new_label())
        self.blocks.append(block)
        return block

    def block_map(self) -> Dict[int, BasicBlock]:
        return {b.label: b for b in self.blocks}

    def size(self) -> int:
        """Instruction count including terminators."""
        return sum(len(b.instrs) + 1 for b in self.blocks)

    def instructions(self) -> Iterable[Instr]:
        for block in self.blocks:
            yield from block.instrs
            if block.term is not None:
                yield block.term


def render_instr(ins: Instr) -> str:
    head = f"%{ins.dest} = " if ins.dest is not None else ""
    return f"{head}{ins.op} {', '.join(map(repr, ins.args))}"


def render_function(fn: IRFunction) -> str:
    """Human-readable IR dump (tests and debugging)."""
    lines = [f"func {fn.name}(%0..%{fn.nparams - 1}) slots={fn.nslots}"
             if fn.nparams else f"func {fn.name}() slots={fn.nslots}"]
    for block in fn.blocks:
        lines.append(f"L{block.label}:")
        for ins in block.instrs:
            lines.append(f"  {render_instr(ins)}")
        if block.term is not None:
            lines.append(f"  {render_instr(block.term)}")
    return "\n".join(lines)
