"""Constructors for the named circuit operators, bound to explicit qubit layouts.

Every operator here is either an XOR-form basis permutation (oracles,
arithmetic adders, CNOT/CCNOT) or a controlled block rotation.  Both have
real matrices, which is why the simulator stores real amplitudes.  Arithmetic
results are written two's complement modulo the result register width, which
keeps every XOR action a bijection regardless of operand range; the rotation
gates decode the same encoding when reading the register back.

Layout arguments are explicit wire index lists.  Pass-through wires sitting
between an operator's controls never appear in the layout: the simulator only
touches listed wires, so a single oracle constructor serves plain, padded,
and doubly padded placements alike.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .boolfn import BooleanFunction, Decomposition, _popcounts
from .sim import PermutationGate, RotationGate, block_rotation_gate, xor_permutation_gate


def build_oracle(
    src: Union[BooleanFunction, Decomposition],
    w: Optional[int],
    controls: Sequence[int],
    target: int,
) -> PermutationGate:
    """Oracle gate: flip the target qubit iff the function value at the control pattern is 1.

    With ``w`` given, queries subfunction f_w of a decomposition (n-t control
    wires); with ``w`` None, queries the whole function (n control wires).
    Self-inverse by construction.
    """
    if w is None:
        fn = src.base if isinstance(src, Decomposition) else src
        table = fn.table
        arity = fn.n
        name = "O_f"
    else:
        if not isinstance(src, Decomposition):
            raise ValueError("a subfunction oracle requires a decomposition")
        table = src.sub_table(w)
        arity = src.u_bits
        name = f"O_f{w:0{src.t}b}"
    if len(controls) != arity:
        raise ValueError(f"oracle expects {arity} control wires, got {len(controls)}")
    return xor_permutation_gate(controls, (target,), np.frombuffer(table, dtype=np.uint8), name=name)


def build_U(t: int, control_qubits: tuple[int, ...], result_qubits: tuple[int, ...]) -> PermutationGate:
    """Sum-difference operator: result ^= twos(2^t - 2 * sum(control bits)) over t+2 bits."""
    if len(control_qubits) != 1 << t:
        raise ValueError(f"U expects 2^{t} = {1 << t} control wires, got {len(control_qubits)}")
    if len(result_qubits) != t + 2:
        raise ValueError(f"U expects a {t + 2}-wire result register, got {len(result_qubits)}")
    sums = _popcounts(np.arange(1 << len(control_qubits)))
    values = ((1 << t) - 2 * sums) & ((1 << (t + 2)) - 1)
    return xor_permutation_gate(control_qubits, result_qubits, values, name="U")


def build_A(t: int, control_qubits: tuple[int, ...], result_qubits: tuple[int, ...]) -> PermutationGate:
    """Population-count adder: result ^= sum(control bits) over t bits.

    Controls may be non-contiguous (the multi-node circuit interleaves them
    every third wire).
    """
    return _build_adder(t, control_qubits, result_qubits, name="A")


def build_Aprime(t: int, control_qubits: tuple[int, ...], result_qubits: tuple[int, ...]) -> PermutationGate:
    """Compacted adder variant: same action as A with the controls packed together.

    Models the cross-node gate obtained by moving the control qubits next to
    each other, shrinking the operator span from 3*2^(t-1)+t-1 wires to
    2^(t-1)+t.
    """
    return _build_adder(t, control_qubits, result_qubits, name="A'")


def _build_adder(t: int, control_qubits: tuple[int, ...], result_qubits: tuple[int, ...], name: str) -> PermutationGate:
    if len(control_qubits) != 1 << (t - 1):
        raise ValueError(f"{name} expects 2^{t - 1} = {1 << (t - 1)} control wires, got {len(control_qubits)}")
    if len(result_qubits) != t:
        raise ValueError(f"{name} expects a {t}-wire result register, got {len(result_qubits)}")
    values = _popcounts(np.arange(1 << len(control_qubits)))
    return xor_permutation_gate(control_qubits, result_qubits, values, name=name)


def build_V(
    t: int,
    a_qubits: tuple[int, ...],
    b_qubits: tuple[int, ...],
    result_qubits: tuple[int, ...],
) -> PermutationGate:
    """Pair-difference operator: result ^= twos(2^(t-1) - a - 2b) over t+1 bits.

    ``a`` and ``b`` are unsigned t-bit operand registers (the XOR-sum and
    AND-sum of the subfunction pairs in the multi-node circuit).
    """
    if len(a_qubits) != t or len(b_qubits) != t:
        raise ValueError(f"V expects two {t}-wire operand registers, got {len(a_qubits)} and {len(b_qubits)}")
    if len(result_qubits) != t + 1:
        raise ValueError(f"V expects a {t + 1}-wire result register, got {len(result_qubits)}")
    pats = np.arange(1 << (2 * t))
    a, b = pats >> t, pats & ((1 << t) - 1)
    values = ((1 << (t - 1)) - a - 2 * b) & ((1 << (t + 1)) - 1)
    return xor_permutation_gate(tuple(a_qubits) + tuple(b_qubits), result_qubits, values, name="V")


def build_R(t: int, control_qubits: tuple[int, ...], target: int) -> RotationGate:
    """Rotation reading a signed t+2 bit register d: cos(theta) = clamp(d / 2^t, -1, 1)."""
    if len(control_qubits) != t + 2:
        raise ValueError(f"R expects a {t + 2}-wire control register, got {len(control_qubits)}")
    return block_rotation_gate(control_qubits, target, scale_exponent=t, name="R")


def build_Rprime(t: int, control_qubits: tuple[int, ...], target: int) -> RotationGate:
    """Rotation reading a signed t+1 bit register d: cos(theta) = clamp(d / 2^(t-1), -1, 1)."""
    if len(control_qubits) != t + 1:
        raise ValueError(f"R' expects a {t + 1}-wire control register, got {len(control_qubits)}")
    return block_rotation_gate(control_qubits, target, scale_exponent=t - 1, name="R'")


def build_x(target: int) -> PermutationGate:
    """Bit flip of a single qubit."""
    return xor_permutation_gate((), (target,), [1], name="X")


def build_cnot(control: int, target: int) -> PermutationGate:
    return xor_permutation_gate((control,), (target,), [0, 1], name="CNOT")


def build_ccnot(control_a: int, control_b: int, target: int) -> PermutationGate:
    return xor_permutation_gate((control_a, control_b), (target,), [0, 0, 0, 1], name="CCNOT")
