"""Run-time values of FCL.

Struct instances live in the heap and are referenced by :class:`Loc`;
primitives are immediate.  ``maybe`` is transparent: ``none`` is the
:data:`NONE` sentinel and ``some(v)`` is just ``v`` (nested maybes are ruled
out by the type grammar), which matches the paper's nullable-field reading
of ``T?``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, order=True)
class Loc:
    """A heap location (object reference)."""

    ident: int

    def __str__(self) -> str:
        return f"ℓ{self.ident}"

    def __hash__(self) -> int:
        # Heap dict lookups key on Loc; hashing the ident directly is
        # equality-compatible and much cheaper than the generated
        # tuple-of-fields hash.
        return self.ident


class _Unit:
    _instance = None

    def __new__(cls) -> "_Unit":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unit"


class _NoneValue:
    _instance = None

    def __new__(cls) -> "_NoneValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "none"

    def __bool__(self) -> bool:
        return False


#: The unit value.
UNIT = _Unit()
#: The empty maybe.
NONE = _NoneValue()

#: Anything an FCL expression can evaluate to.
RuntimeValue = Union[int, bool, Loc, _Unit, _NoneValue]


def is_none_value(value: RuntimeValue) -> bool:
    return value is NONE


def is_loc(value: RuntimeValue) -> bool:
    return isinstance(value, Loc)


_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.floordiv,
    "%": operator.mod,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "&&": lambda left, right: bool(left) and bool(right),
    "||": lambda left, right: bool(left) or bool(right),
}


def binop(op: str, left: RuntimeValue, right: RuntimeValue) -> RuntimeValue:
    """Apply a primitive binary operator.  Shared by the small-step machine
    and IR constant folding; the bytecode engine inlines the same cases."""
    fn = _BINOPS.get(op)
    if fn is None or (op in ("/", "%") and right == 0):
        from .machine import MachineError  # machine imports this module

        if fn is None:
            raise MachineError(f"unknown operator {op!r}")
        raise MachineError(("division" if op == "/" else "modulo") + " by zero")
    return fn(left, right)
