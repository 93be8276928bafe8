"""A reference interpreter for the mini-IR.

The interpreter exists for one purpose: testing that compiler passes are
semantics-preserving.  Property-based tests execute a function before and
after a pass pipeline on random inputs and require identical results.

Pointers are modelled as ``(buffer, offset)`` pairs where ``buffer`` is a
Python list of scalars; this is enough for the array-based kernels the
workload generator emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .block import BasicBlock
from .function import Function
from .instructions import (
    Alloca,
    AtomicRMW,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
    Switch,
    Unreachable,
)
from .types import ArrayType, IntType, PointerType, Type
from .values import Argument, ConstantFloat, ConstantInt, GlobalVariable, Undef, Value


class InterpreterError(RuntimeError):
    """Raised on invalid runtime behaviour (OOB access, step overflow...)."""


@dataclass
class Pointer:
    """Runtime pointer: a buffer plus an element offset."""

    buffer: List[float]
    offset: int = 0

    def displaced(self, delta: int) -> "Pointer":
        return Pointer(self.buffer, self.offset + delta)

    def load(self) -> float:
        if not (0 <= self.offset < len(self.buffer)):
            raise InterpreterError(
                f"load out of bounds: offset {self.offset} of {len(self.buffer)}"
            )
        return self.buffer[self.offset]

    def store(self, value: float) -> None:
        if not (0 <= self.offset < len(self.buffer)):
            raise InterpreterError(
                f"store out of bounds: offset {self.offset} of {len(self.buffer)}"
            )
        self.buffer[self.offset] = value


def _scalar_count(ty: Type) -> int:
    """Number of scalar elements occupied by a value of type ``ty``."""
    if isinstance(ty, ArrayType):
        return ty.count * _scalar_count(ty.element)
    return 1


_EXTERNAL_MATH: Dict[str, Callable[..., float]] = {
    "sqrt": math.sqrt,
    "fabs": abs,
    "exp": math.exp,
    "log": lambda x: math.log(x) if x > 0 else 0.0,
    "sin": math.sin,
    "cos": math.cos,
    "pow": math.pow,
    "fmax": max,
    "fmin": min,
    "floor": math.floor,
    "ceil": math.ceil,
}


class Interpreter:
    """Executes mini-IR functions.

    Parameters
    ----------
    max_steps:
        Hard cap on executed instructions, protecting property tests from
        accidentally unrolled infinite loops.
    thread_id / num_threads:
        Values returned by the OpenMP runtime stubs ``omp_get_thread_num``
        and ``omp_get_num_threads``.
    """

    def __init__(self, max_steps: int = 2_000_000, thread_id: int = 0, num_threads: int = 1):
        self.max_steps = max_steps
        self.thread_id = thread_id
        self.num_threads = num_threads
        self.steps = 0
        self.globals: Dict[str, Pointer] = {}

    # ------------------------------------------------------------------ API
    def run(self, function: Function, args: Sequence[object]) -> Optional[object]:
        """Execute ``function`` with ``args`` and return its result.

        Arguments may be ints, floats, lists (passed as pointers to a fresh
        buffer — mutated in place) or :class:`Pointer` objects.
        """
        if function.is_declaration:
            raise InterpreterError(f"cannot execute declaration @{function.name}")
        if len(args) != len(function.arguments):
            raise InterpreterError(
                f"@{function.name} expects {len(function.arguments)} args, got {len(args)}"
            )
        env: Dict[Value, object] = {}
        for formal, actual in zip(function.arguments, args):
            env[formal] = self._coerce_argument(actual)
        return self._run_function(function, env)

    # ------------------------------------------------------------- internals
    def _coerce_argument(self, value: object) -> object:
        if isinstance(value, list):
            return Pointer(value, 0)
        return value

    def _global_pointer(self, gv: GlobalVariable) -> Pointer:
        existing = self.globals.get(gv.name)
        if existing is not None:
            return existing
        size = _scalar_count(gv.value_type)
        init = 0.0
        if isinstance(gv.initializer, ConstantFloat):
            init = gv.initializer.value
        elif isinstance(gv.initializer, ConstantInt):
            init = gv.initializer.value
        pointer = Pointer([init] * max(1, size), 0)
        self.globals[gv.name] = pointer
        return pointer

    def _value(self, value: Value, env: Dict[Value, object]) -> object:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, Undef):
            return 0
        if isinstance(value, GlobalVariable):
            return self._global_pointer(value)
        if value in env:
            return env[value]
        raise InterpreterError(f"value {value!r} has no runtime binding")

    def _run_function(self, function: Function, env: Dict[Value, object]) -> Optional[object]:
        block = function.entry_block
        if block is None:
            raise InterpreterError(f"@{function.name} has no entry block")
        previous: Optional[BasicBlock] = None
        while True:
            next_block, result, is_return = self._run_block(function, block, previous, env)
            if is_return:
                return result
            previous = block
            assert next_block is not None
            block = next_block

    def _run_block(
        self,
        function: Function,
        block: BasicBlock,
        previous: Optional[BasicBlock],
        env: Dict[Value, object],
    ):
        # Phase 1: evaluate all phis against the incoming edge simultaneously.
        phi_values: Dict[Phi, object] = {}
        for phi in block.phis():
            if previous is None:
                raise InterpreterError(f"phi %{phi.name} in entry block")
            incoming = phi.incoming_value_for(previous)
            if incoming is None:
                raise InterpreterError(
                    f"phi %{phi.name} has no incoming value for block {previous.name}"
                )
            phi_values[phi] = self._value(incoming, env)
        for phi, value in phi_values.items():
            env[phi] = value

        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue
            self.steps += 1
            if self.steps > self.max_steps:
                raise InterpreterError("maximum interpreter steps exceeded")
            if isinstance(inst, Return):
                value = self._value(inst.value, env) if inst.value is not None else None
                return None, value, True
            if isinstance(inst, Branch):
                return inst.target, None, False
            if isinstance(inst, CondBranch):
                cond = self._value(inst.condition, env)
                return (inst.if_true if cond else inst.if_false), None, False
            if isinstance(inst, Switch):
                selector = self._value(inst.value, env)
                target = inst.default
                for case_value, case_block in inst.cases:
                    if case_value == selector:
                        target = case_block
                        break
                return target, None, False
            if isinstance(inst, Unreachable):
                raise InterpreterError("executed unreachable")
            env[inst] = self._execute(function, inst, env)
        raise InterpreterError(f"block {block.name} fell through without terminator")

    # ---------------------------------------------------------- instruction
    def _execute(self, function: Function, inst: Instruction, env: Dict[Value, object]) -> object:
        if isinstance(inst, BinaryOp):
            return self._binary(inst, env)
        if isinstance(inst, ICmp):
            return int(self._compare_int(inst, env))
        if isinstance(inst, FCmp):
            return int(self._compare_float(inst, env))
        if isinstance(inst, Select):
            cond = self._value(inst.condition, env)
            return self._value(inst.true_value if cond else inst.false_value, env)
        if isinstance(inst, Cast):
            return self._cast(inst, env)
        if isinstance(inst, Alloca):
            size = _scalar_count(inst.allocated_type) * max(1, inst.array_size)
            return Pointer([0.0] * size, 0)
        if isinstance(inst, Load):
            pointer = self._value(inst.pointer, env)
            if not isinstance(pointer, Pointer):
                raise InterpreterError("load from non-pointer value")
            value = pointer.load()
            if inst.type.is_int:
                return int(value)
            return value
        if isinstance(inst, Store):
            pointer = self._value(inst.pointer, env)
            if not isinstance(pointer, Pointer):
                raise InterpreterError("store to non-pointer value")
            pointer.store(self._value(inst.value, env))
            return None
        if isinstance(inst, GetElementPtr):
            return self._gep(inst, env)
        if isinstance(inst, AtomicRMW):
            return self._atomic(inst, env)
        if isinstance(inst, Call):
            return self._call(function, inst, env)
        raise InterpreterError(f"cannot execute opcode {inst.opcode}")

    def _binary(self, inst: BinaryOp, env: Dict[Value, object]) -> object:
        lhs = self._value(inst.lhs, env)
        rhs = self._value(inst.rhs, env)
        op = inst.opcode
        if op in ("fadd", "fsub", "fmul", "fdiv", "frem"):
            lhs_f, rhs_f = float(lhs), float(rhs)
            if op == "fadd":
                return lhs_f + rhs_f
            if op == "fsub":
                return lhs_f - rhs_f
            if op == "fmul":
                return lhs_f * rhs_f
            if op == "fdiv":
                return lhs_f / rhs_f if rhs_f != 0.0 else 0.0
            return math.fmod(lhs_f, rhs_f) if rhs_f != 0.0 else 0.0
        lhs_i, rhs_i = int(lhs), int(rhs)
        ty = inst.type
        assert isinstance(ty, IntType)
        if op == "add":
            result = lhs_i + rhs_i
        elif op == "sub":
            result = lhs_i - rhs_i
        elif op == "mul":
            result = lhs_i * rhs_i
        elif op in ("sdiv", "udiv"):
            result = int(lhs_i / rhs_i) if rhs_i != 0 else 0
        elif op in ("srem", "urem"):
            result = int(math.fmod(lhs_i, rhs_i)) if rhs_i != 0 else 0
        elif op == "and":
            result = lhs_i & rhs_i
        elif op == "or":
            result = lhs_i | rhs_i
        elif op == "xor":
            result = lhs_i ^ rhs_i
        elif op == "shl":
            result = lhs_i << (rhs_i % ty.bits)
        elif op == "lshr":
            result = (lhs_i % (1 << ty.bits)) >> (rhs_i % ty.bits)
        elif op == "ashr":
            result = lhs_i >> (rhs_i % ty.bits)
        else:  # pragma: no cover - exhaustive above
            raise InterpreterError(f"unknown binary opcode {op}")
        return ty.wrap(result)

    def _compare_int(self, inst: ICmp, env: Dict[Value, object]) -> bool:
        lhs = int(self._value(inst.lhs, env))
        rhs = int(self._value(inst.rhs, env))
        pred = inst.predicate
        if pred in ("ult", "ule", "ugt", "uge"):
            bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
            mask = (1 << bits) - 1
            lhs &= mask
            rhs &= mask
            pred = {"ult": "slt", "ule": "sle", "ugt": "sgt", "uge": "sge"}[pred]
        return {
            "eq": lhs == rhs,
            "ne": lhs != rhs,
            "slt": lhs < rhs,
            "sle": lhs <= rhs,
            "sgt": lhs > rhs,
            "sge": lhs >= rhs,
        }[pred]

    def _compare_float(self, inst: FCmp, env: Dict[Value, object]) -> bool:
        lhs = float(self._value(inst.lhs, env))
        rhs = float(self._value(inst.rhs, env))
        return {
            "oeq": lhs == rhs,
            "one": lhs != rhs,
            "olt": lhs < rhs,
            "ole": lhs <= rhs,
            "ogt": lhs > rhs,
            "oge": lhs >= rhs,
        }[inst.predicate]

    def _cast(self, inst: Cast, env: Dict[Value, object]) -> object:
        value = self._value(inst.source, env)
        op = inst.opcode
        if op in ("zext", "sext", "trunc"):
            ty = inst.type
            assert isinstance(ty, IntType)
            return ty.wrap(int(value))
        if op == "fptosi":
            return int(value)
        if op in ("sitofp", "fpext", "fptrunc"):
            return float(value)
        if op == "bitcast":
            return value
        raise InterpreterError(f"unknown cast {op}")

    def _gep(self, inst: GetElementPtr, env: Dict[Value, object]) -> Pointer:
        pointer = self._value(inst.pointer, env)
        if not isinstance(pointer, Pointer):
            raise InterpreterError("gep on non-pointer value")
        ptr_type = inst.pointer.type
        assert isinstance(ptr_type, PointerType)
        current: Type = ptr_type.pointee
        indices = [int(self._value(idx, env)) for idx in inst.indices]
        offset = indices[0] * _scalar_count(current)
        for idx in indices[1:]:
            if isinstance(current, ArrayType):
                current = current.element
                offset += idx * _scalar_count(current)
            else:
                offset += idx
        return pointer.displaced(offset)

    def _atomic(self, inst: AtomicRMW, env: Dict[Value, object]) -> object:
        pointer = self._value(inst.pointer, env)
        if not isinstance(pointer, Pointer):
            raise InterpreterError("atomicrmw on non-pointer value")
        old = pointer.load()
        operand = self._value(inst.value, env)
        op = inst.operation
        if op in ("add", "fadd"):
            new = old + operand
        elif op == "max":
            new = max(old, operand)
        elif op == "min":
            new = min(old, operand)
        elif op == "and":
            new = int(old) & int(operand)
        elif op == "or":
            new = int(old) | int(operand)
        elif op == "xor":
            new = int(old) ^ int(operand)
        elif op == "xchg":
            new = operand
        else:  # pragma: no cover
            raise InterpreterError(f"unknown atomic op {op}")
        pointer.store(new)
        return old

    def _call(self, function: Function, inst: Call, env: Dict[Value, object]) -> object:
        args = [self._value(a, env) for a in inst.operands]
        callee = inst.callee
        if isinstance(callee, Function) and not callee.is_declaration:
            sub_env: Dict[Value, object] = {}
            for formal, actual in zip(callee.arguments, args):
                sub_env[formal] = actual
            return self._run_function(callee, sub_env)
        name = inst.callee_name
        if name == "omp_get_thread_num":
            return self.thread_id
        if name == "omp_get_num_threads":
            return self.num_threads
        if name in _EXTERNAL_MATH:
            try:
                return _EXTERNAL_MATH[name](*[float(a) for a in args])
            except (OverflowError, ValueError) as exc:
                raise InterpreterError(f"{name}{tuple(args)}: {exc}") from exc
        # Unknown externals behave as pure functions returning 0; they still
        # count as side-effecting for the optimizer, which is all that matters.
        return 0 if inst.type.is_int else 0.0


def run_function(function: Function, args: Sequence[object], **kwargs) -> Optional[object]:
    """One-shot helper: interpret ``function`` on ``args``."""
    return Interpreter(**kwargs).run(function, args)
