"""Dense statevector simulation with exact gate application and partial measurement.

Conventions:

* Qubit 0 is the topmost circuit wire and the most significant bit of the
  basis index (big-endian), so a register occupying consecutive wires is a
  contiguous bit field of the index.
* Gates come in three kinds: Hadamard layers, XOR-form basis permutations
  (classical reversible logic, including every oracle and arithmetic
  operator), and block rotations (a real 2x2 rotation of one target qubit
  selected by the bit pattern of a control register).  Pauli-Z is the only
  other operator.
* Amplitudes are real ``float64``: every operator above has a real matrix and
  the circuits start from |0...0>, so no amplitude ever gains an imaginary
  part.  A real state takes half the memory of a complex one and keeps the
  Hadamard matmul and the permutation gathers in real arithmetic.
* Signed register values are two's complement over the register width; the
  rotation gates decode them accordingly.

Apply functions mutate the passed state in place and return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

MAX_QUBITS = 26
# Full-index tables (the basis indices, bit patterns, per-gate permutation and
# rotation plans) are cached up to this register size; beyond it they are
# rebuilt per use to bound memory.
_DEST_CACHE_MAX_Q = 20
_PROB_FLOOR = 1e-15

_INDEX_CACHE: dict[int, np.ndarray] = {}
_PATTERN_CACHE: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}


def _indices(q: int) -> np.ndarray:
    idx = _INDEX_CACHE.get(q)
    if idx is None:
        idx = np.arange(1 << q, dtype=np.int64)
        if q <= _DEST_CACHE_MAX_Q:
            _INDEX_CACHE[q] = idx
    return idx


def _patterns(q: int, wires: tuple[int, ...]) -> np.ndarray:
    """Cached per-index bit patterns of a wire set (read-only)."""
    key = (q, wires)
    pat = _PATTERN_CACHE.get(key)
    if pat is None:
        pat = _extract(_indices(q), q, wires)
        if q <= _DEST_CACHE_MAX_Q and len(_PATTERN_CACHE) < 512:
            _PATTERN_CACHE[key] = pat
    return pat


def _is_contiguous(wires: Sequence[int]) -> bool:
    return all(wires[j] == wires[0] + j for j in range(len(wires)))


def _extract(idx: np.ndarray, q: int, wires: Sequence[int]) -> np.ndarray:
    """Bit pattern of the given wires for every basis index (first wire = MSB)."""
    k = len(wires)
    if k == 0:
        return np.zeros_like(idx)
    if _is_contiguous(wires):
        return (idx >> (q - wires[-1] - 1)) & ((1 << k) - 1)
    pat = np.zeros_like(idx)
    for j, w in enumerate(wires):
        pat |= ((idx >> (q - 1 - w)) & 1) << (k - 1 - j)
    return pat


def _spread(values: np.ndarray, q: int, wires: Sequence[int]) -> np.ndarray:
    """Inverse of _extract: place pattern bits back at the wire positions."""
    k = len(wires)
    if k == 0:
        return np.zeros_like(values)
    if _is_contiguous(wires):
        return values << (q - wires[-1] - 1)
    out = np.zeros_like(values)
    for j, w in enumerate(wires):
        out |= ((values >> (k - 1 - j)) & 1) << (q - 1 - w)
    return out


def decode_signed(pattern: int, width: int) -> int:
    """Two's complement decode of a register bit pattern."""
    return pattern - (1 << width) if pattern >= 1 << (width - 1) else pattern


def encode_signed(value: int, width: int) -> int:
    """Two's complement encode modulo the register size."""
    return value & ((1 << width) - 1)


class StateVector:
    """Real float64 amplitude array over q qubits, unit norm."""

    __slots__ = ("q", "amps", "_scratch")

    def __init__(self, q: int, amps: np.ndarray):
        self.q = q
        self.amps = amps
        self._scratch: Optional[np.ndarray] = None

    def copy(self) -> "StateVector":
        return StateVector(self.q, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return self.amps * self.amps


def init_zero(q: int) -> StateVector:
    """All-zeros computational basis state |0...0>."""
    if not 1 <= q <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {q}")
    amps = np.zeros(1 << q, dtype=np.float64)
    amps[0] = 1.0
    return StateVector(q, amps)


def _check_wires(q: int, wires: Sequence[int]) -> None:
    if len(set(wires)) != len(wires):
        raise ValueError(f"qubit indices must be distinct, got {tuple(wires)}")
    for w in wires:
        if not 0 <= w < q:
            raise ValueError(f"qubit index {w} out of range for {q} qubits")


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_WALSH_CACHE: dict[int, np.ndarray] = {}


def _walsh(m: int) -> np.ndarray:
    mat = _WALSH_CACHE.get(m)
    if mat is None:
        h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) * _INV_SQRT2
        mat = np.array([[1.0]])
        for _ in range(m):
            mat = np.kron(mat, h1)
        _WALSH_CACHE[m] = mat
    return mat


def apply_hadamard(state: StateVector, qubits: Sequence[int]) -> StateVector:
    """Tensor-product Hadamard on the listed qubits."""
    _check_wires(state.q, qubits)
    qubits = tuple(qubits)
    m = len(qubits)
    if m > 0 and qubits == tuple(range(m)) and m <= 12:
        # Leading contiguous block: one matrix product over the whole layer.
        scratch = state._scratch
        if scratch is None:
            scratch = np.empty_like(state.amps)
        np.matmul(_walsh(m), state.amps.reshape(1 << m, -1), out=scratch.reshape(1 << m, -1))
        state._scratch = state.amps
        state.amps = scratch
        return state
    for w in qubits:
        pre = 1 << w
        post = 1 << (state.q - w - 1)
        view = state.amps.reshape(pre, 2, post)
        x0 = view[:, 0, :].copy()
        x1 = view[:, 1, :]
        view[:, 0, :] = (x0 + x1) * _INV_SQRT2
        view[:, 1, :] = (x0 - x1) * _INV_SQRT2
    return state


def apply_pauli_z(state: StateVector, qubit: int) -> StateVector:
    """Phase flip of the |1> component of one qubit."""
    _check_wires(state.q, (qubit,))
    pre = 1 << qubit
    post = 1 << (state.q - qubit - 1)
    state.amps.reshape(pre, 2, post)[:, 1, :] *= -1.0
    return state


@dataclass(eq=False)
class PermutationGate:
    """XOR-form basis permutation on a control and a result register.

    A value looked up from the control pattern is XORed into the disjoint
    result register, which is always a self-inverse bijection.  Every oracle
    and arithmetic operator of the circuits has this form.
    """

    control_qubits: tuple[int, ...]
    result_qubits: tuple[int, ...]
    value_table: np.ndarray  # control pattern -> XOR value
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    kind = "permutation"

    @property
    def targets(self) -> tuple[int, ...]:
        return self.control_qubits + self.result_qubits

    def action_table(self) -> np.ndarray:
        """Full pattern-to-pattern lookup over the target qubits (controls then results)."""
        k = len(self.targets)
        kr = len(self.result_qubits)
        pats = np.arange(1 << k, dtype=np.int64)
        ctrl = pats >> kr
        res = pats & ((1 << kr) - 1)
        return (ctrl << kr) | (res ^ self.value_table[ctrl])

    def _source_indices(self, q: int) -> np.ndarray:
        cached = self._cache.get(q)
        if cached is not None:
            return cached
        # Spread the small value table once, then gather per index.  XOR by a
        # control-selected constant is an involution, so the gather source
        # equals the scatter destination.
        flip_table = _spread(self.value_table, q, self.result_qubits)
        src = _indices(q) ^ flip_table[_patterns(q, self.control_qubits)]
        if q <= _DEST_CACHE_MAX_Q:
            self._cache[q] = src
        return src


def xor_permutation_gate(
    control_qubits: Sequence[int],
    result_qubits: Sequence[int],
    values: Union[Sequence[int], np.ndarray],
    name: str = "",
) -> PermutationGate:
    """Build the XOR-form gate: result ^= values[control pattern]."""
    controls = tuple(control_qubits)
    results = tuple(result_qubits)
    targets = controls + results
    if len(set(targets)) != len(targets):
        raise ValueError(f"control and result registers must not overlap: {controls} vs {results}")
    table = np.asarray(values, dtype=np.int64)
    if table.shape != (1 << len(controls),):
        raise ValueError(f"value table must have one entry per control pattern (2^{len(controls)})")
    width = len(results)
    if table.min() < 0 or table.max() >= 1 << width:
        raise ValueError(f"XOR values must fit the {width}-bit result register")
    return PermutationGate(control_qubits=controls, result_qubits=results, value_table=table, name=name)


def apply_permutation(state: StateVector, gate: PermutationGate) -> StateVector:
    """Rearrange amplitudes by the gate's bijection on the target bit pattern."""
    _check_wires(state.q, gate.targets)
    return _apply_source(state, gate._source_indices(state.q))


def _apply_source(state: StateVector, src: np.ndarray) -> StateVector:
    scratch = state._scratch
    if scratch is None:
        scratch = np.empty_like(state.amps)
    np.take(state.amps, src, out=scratch)
    state._scratch = state.amps  # recycle the old buffer
    state.amps = scratch
    return state


def compose_permutation_sources(gates: Sequence[PermutationGate], q: int) -> np.ndarray:
    """Source-index array of a gate sequence applied left to right.

    Permutations compose by pure integer index arithmetic, so applying the
    composite moves amplitudes bit-identically to applying the gates one by
    one; no floating-point operation is involved.
    """
    if not gates:
        return _indices(q)
    src = gates[0]._source_indices(q)
    for gate in gates[1:]:
        _check_wires(q, gate.targets)
        src = np.take(src, gate._source_indices(q))
    return src


def apply_composed(state: StateVector, src: np.ndarray) -> StateVector:
    """Apply a composed permutation produced by compose_permutation_sources."""
    if src.shape != state.amps.shape:
        raise ValueError("composed permutation was built for a different register size")
    return _apply_source(state, src)


@dataclass(eq=False)
class RotationGate:
    """Per-control-block rotation [[cos, -sin], [sin, cos]] of one target qubit.

    The control register is decoded as a two's complement integer d and the
    angle satisfies cos(theta) = clamp(d / 2^scale_exponent, -1, 1), so the
    gate is unitary on every basis state including unreachable d values.
    """

    control_qubits: tuple[int, ...]
    target_qubit: int
    scale_exponent: int
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    kind = "rotation"

    def __post_init__(self) -> None:
        width = len(self.control_qubits)
        signed = np.array([decode_signed(p, width) for p in range(1 << width)], dtype=np.float64)
        cos = np.clip(signed / float(1 << self.scale_exponent), -1.0, 1.0)
        self.cos_table = cos
        self.sin_table = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))

    def block_matrix(self, pattern: int) -> np.ndarray:
        """The 2x2 matrix applied within the given control-pattern block."""
        c = self.cos_table[pattern]
        s = self.sin_table[pattern]
        return np.array([[c, -s], [s, c]])

    def _plan(self, q: int):
        plan = self._cache.get(q)
        if plan is None:
            idx = _indices(q)
            pat = _patterns(q, self.control_qubits)
            tmask = 1 << (q - 1 - self.target_qubit)
            partner = idx ^ tmask
            sign = np.where((idx & tmask) == 0, -1.0, 1.0)
            cos = self.cos_table[pat]
            signed_sin = sign * self.sin_table[pat]
            plan = (cos, signed_sin, partner)
            if q <= _DEST_CACHE_MAX_Q:
                self._cache[q] = plan
        return plan


def block_rotation_gate(
    control_qubits: Sequence[int], target_qubit: int, scale_exponent: int, name: str = ""
) -> RotationGate:
    controls = tuple(control_qubits)
    if target_qubit in controls:
        raise ValueError("rotation target must not be part of the control register")
    if len(set(controls)) != len(controls):
        raise ValueError(f"control qubits must be distinct, got {controls}")
    return RotationGate(control_qubits=controls, target_qubit=target_qubit, scale_exponent=scale_exponent, name=name)


def apply_block_rotation(state: StateVector, gate: RotationGate) -> StateVector:
    _check_wires(state.q, gate.control_qubits + (gate.target_qubit,))
    cos, signed_sin, partner = gate._plan(state.q)
    scratch = state._scratch
    if scratch is None:
        scratch = np.empty_like(state.amps)
    np.take(state.amps, partner, out=scratch)
    scratch *= signed_sin
    scratch += cos * state.amps
    state._scratch = state.amps
    state.amps = scratch
    return state


class MeasurementRecord:
    """Exact outcome distribution of a partial measurement, with branch access."""

    def __init__(self, state: StateVector, qubits: Sequence[int]):
        _check_wires(state.q, qubits)
        self.measured_qubits = tuple(qubits)
        self._state = state
        k = len(self.measured_qubits)
        pat = _patterns(state.q, self.measured_qubits)
        self._probs = np.bincount(pat, weights=state.probabilities(), minlength=1 << k)
        listed = np.flatnonzero(self._probs > _PROB_FLOOR)
        self.distribution = {format(int(o), f"0{k}b"): float(self._probs[o]) for o in listed}

    def probability(self, outcome: Union[int, str]) -> float:
        if isinstance(outcome, str):
            outcome = int(outcome, 2)
        return float(self._probs[outcome])

    def collapse(self, outcome: Union[int, str]) -> StateVector:
        """Renormalized post-measurement state for the given outcome."""
        if isinstance(outcome, str):
            outcome = int(outcome, 2)
        p = float(self._probs[outcome])
        if p <= _PROB_FLOOR:
            raise ValueError(f"cannot collapse onto outcome {outcome}: probability {p} is negligible")
        q = self._state.q
        pat = _patterns(q, self.measured_qubits)
        amps = np.where(pat == outcome, self._state.amps, 0.0)
        return StateVector(q, amps / math.sqrt(p))


def measure(state: StateVector, qubits: Sequence[int]) -> MeasurementRecord:
    """Exact joint distribution of the listed qubits; does not disturb the state."""
    return MeasurementRecord(state, qubits)


def probability_all_zero(state: StateVector, qubits: Sequence[int]) -> float:
    """Marginal probability that every listed qubit reads 0."""
    _check_wires(state.q, qubits)
    qubits = tuple(qubits)
    if not qubits:
        return 1.0
    if _is_contiguous(qubits):
        pre = 1 << qubits[0]
        mid = 1 << len(qubits)
        view = state.amps.reshape(pre, mid, -1)[:, 0, :]
        return float(np.sum(view * view))
    pat = _patterns(state.q, qubits)
    return float(np.sum(state.probabilities()[pat == 0]))

