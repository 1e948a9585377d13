"""Statevector simulation with exact gate application and partial measurement.

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
* A state is dense (``StateVector``: all 2^q amplitudes) or a support state
  (``SupportState``: the basis indices and amplitudes of its nonzero
  entries).  The dense form serves the circuits without work registers:
  Hadamard layers, XOR gates, Pauli-Z and measurement.  The rotation and
  ``probability_all_zero`` take support states only.  Every XOR layer is
  applied through its ``xor_plan``: the bit fields of its controls and a
  flip table of index bits.  Gates are descriptions that keep no plan:
  ``xor_layers`` compiles a circuit's fixed gates into ``FlipLayer``s once,
  and a layer composed of several gates takes support states only.
* The support kernels serve the states the circuits make: compute into work
  registers, rotate one decision qubit, uncompute.  So a support Hadamard
  needs the entries of a row to agree on every wire it does not act on, and
  the rotation needs its target wire to read 0 in every entry; each raises a
  ValueError otherwise.  The indices within a row are distinct.
* A state is a batch: a leading axis of rows, each row one independent
  state of the same circuit (``init_zero(..., batch=F)``; ``init_zero(q)`` is
  a batch of one).  Kernels act on every row and keep the shape (rows,
  entries); a flip layer (``FlipLayer``) may carry one flip table per row.
  The rows may start as copies of one start row (``init_zero(...,
  start=)``).  Sums over a row's entries run in entry order, so a row's
  probabilities are bit-identical whatever other rows share its batch.
* A measurement's outcome probabilities stay arrays, one value per row
  (``Outcomes`` keeps one row's); only a reader that prints makes bit
  strings, by ``Outcomes.key``.

Apply functions mutate the passed state in place and return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

MAX_QUBITS = 26
# A support state's basis indices are int64.
MAX_SUPPORT_QUBITS = 62
# The dense form's table of basis indices is cached up to this register
# size; beyond it, it is rebuilt per use to bound memory.  No XOR layer holds
# a 2^q-entry array.
_DEST_CACHE_MAX_Q = 20
_PROB_FLOOR = 1e-15

_INDEX_CACHE: dict[int, np.ndarray] = {}


def _indices(q: int) -> np.ndarray:
    idx = _INDEX_CACHE.get(q)
    if idx is None:
        idx = np.arange(1 << q, dtype=np.int64)
        if q <= _DEST_CACHE_MAX_Q:
            _INDEX_CACHE[q] = idx
    return idx


@lru_cache(maxsize=1024)
def _fields(q: int, wires: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The wires as maximal runs of consecutive wires: (index shift, run mask, pattern shift) each."""
    k = len(wires)
    fields = []
    start = 0
    for j in range(k):
        if j + 1 == k or wires[j + 1] != wires[j] + 1:
            fields.append((q - 1 - wires[j], (1 << (j - start + 1)) - 1, k - 1 - j))
            start = j + 1
    return tuple(fields)


def _gather(idx: np.ndarray, fields: tuple[tuple[int, int, int], ...]) -> np.ndarray:
    """Bit pattern of the wires that ``fields`` describes, for every index (first wire = MSB)."""
    if not fields:
        return np.zeros_like(idx)
    shift, mask, out = fields[0]
    pat = (idx >> shift) & mask
    if out:
        pat <<= out
    for shift, mask, out in fields[1:]:
        pat |= ((idx >> shift) & mask) << out
    return pat


def _extract(idx: np.ndarray, q: int, wires: tuple[int, ...]) -> np.ndarray:
    """Bit pattern of the given wires for every basis index (first wire = MSB)."""
    return _gather(idx, _fields(q, wires))


def _spread(values: np.ndarray, q: int, wires: tuple[int, ...]) -> np.ndarray:
    """Inverse of _extract: place pattern bits back at the wire positions."""
    fields = _fields(q, wires)
    if len(fields) == 1:
        return values << fields[0][0]
    out = np.zeros_like(values)
    for shift, mask, pos in fields:
        out |= ((values >> pos) & mask) << shift
    return out


def _lookup(table: np.ndarray, key: np.ndarray) -> np.ndarray:
    """``table[..., key]``, row by row when both carry a batch axis (one table per row)."""
    if table.ndim == 1:
        return table[key]
    if key.ndim == 1:
        return table.take(key, axis=-1)
    if len(table) == 1:
        return table[0][key]
    return table.ravel()[key + np.arange(0, table.size, table.shape[1])[:, None]]


def _outcome_totals(pat: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Per row, the weights summed by k-bit pattern in entry order: shape (rows, 2^k)."""
    count = len(weights)
    if count == 1:
        return np.bincount(pat.reshape(-1), weights=weights.reshape(-1), minlength=1 << k)[None]
    cells = pat + (np.arange(count)[:, None] << k)
    return np.bincount(cells.ravel(), weights=weights.ravel(), minlength=count << k).reshape(count, 1 << k)


def _in_any_row(mask: np.ndarray) -> np.ndarray:
    """The entries where ``mask`` holds in at least one row."""
    return mask[0] if len(mask) == 1 else np.ascontiguousarray(mask.T).any(axis=1)


def _drop_zero_columns(index: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the entries whose amplitude is exactly zero in every row."""
    keep = _in_any_row(amps != 0.0)
    if keep.all():
        return index, amps
    return index[..., keep], amps[..., keep]


def decode_signed(pattern: int, width: int) -> int:
    """Two's complement decode of a register bit pattern."""
    return pattern - (1 << width) if pattern >= 1 << (width - 1) else pattern


class StateVector:
    """Real float64 amplitudes over q qubits, one unit-norm row per state: shape (rows, 2^q)."""

    __slots__ = ("q", "amps")

    def __init__(self, q: int, amps: np.ndarray):
        self.q = q
        self.amps = amps

    def probabilities(self) -> np.ndarray:
        return self.amps * self.amps

    def patterns(self, wires: tuple[int, ...]) -> np.ndarray:
        """Bit pattern of the wires at every amplitude."""
        return _extract(_indices(self.q), self.q, wires)

    def select(self, keep: np.ndarray, norm: np.ndarray) -> "StateVector":
        """The amplitudes where ``keep`` holds, divided by ``norm`` (one per row); zero elsewhere."""
        return StateVector(self.q, np.where(keep, self.amps, 0.0) / norm)


class SupportState:
    """The nonzero amplitudes of a real state over q qubits: int64 basis indices, float64 amplitudes.

    After an input Hadamard, a circuit of XOR permutations and one rotation
    keeps at most twice the entries that Hadamard made, whatever its width: a
    permutation rewrites only the indices and the rotation at most doubles
    the entries.  Memory therefore scales with the entries, not with 2^q.

    ``index`` and ``amps`` have shape (rows, entries): a batch stays
    rectangular.  The indices within a row are distinct.  An exact zero
    is dropped only where it is zero in every row, so a row may hold zero
    amplitudes; they change no value.
    """

    __slots__ = ("q", "index", "amps")

    def __init__(self, q: int, index: np.ndarray, amps: np.ndarray):
        self.q = q
        self.index = index
        self.amps = amps

    def probabilities(self) -> np.ndarray:
        return self.amps * self.amps

    def patterns(self, wires: tuple[int, ...]) -> np.ndarray:
        return _extract(self.index, self.q, wires)

    def select(self, keep: np.ndarray, norm: np.ndarray) -> "SupportState":
        """Entries kept in no row are dropped; the others are zeroed in the rows that do not keep them."""
        entries = _in_any_row(keep)
        amps = self.amps[:, entries]
        if len(keep) > 1:
            amps = np.where(keep[:, entries], amps, 0.0)
        return SupportState(self.q, self.index[:, entries], amps / norm)

    def hadamard(self, qubits: tuple[int, ...]) -> "SupportState":
        """Walsh transform of the listed wires over each row's entries.

        The entries of a row must agree on every other wire, as they do after
        the start and after the uncompute; the transform then fills all 2^m
        patterns of the m wires.
        """
        m = len(qubits)
        cols = _spread(np.arange(1 << m, dtype=np.int64), self.q, qubits)
        count = len(self.index)
        rest = self.index & ~int(cols[-1])
        if np.count_nonzero(rest != rest[:, :1]):
            raise ValueError("a support Hadamard needs the entries of a row to agree on the wires it does not act on")
        cells = _extract(self.index, self.q, qubits)
        if count > 1:
            cells = cells + (np.arange(count)[:, None] << m)
        block = np.bincount(cells.ravel(), weights=self.amps.ravel(), minlength=count << m)
        self.index = rest[:, :1] | cols
        self.amps = _walsh_transform(block, m, tuple(range(m))).reshape(count, -1)
        return self

    def permute(self, gate: Union["PermutationGate", "FlipLayer"]) -> "SupportState":
        fields, flip = gate.xor_plan(self.q)
        self.index ^= _lookup(flip, _gather(self.index, fields))
        return self

    def rotate(self, gate: "RotationGate") -> "SupportState":
        """Each entry keeps cos times its amplitude and gives its partner, with the target set, sin times it.

        The target wire must read 0 in every entry, as the decision wire does
        before the rotation, so no partner is an entry already.
        """
        fields, tmask, cos, sin = gate.support_plan(self.q)
        idx, amps = self.index, self.amps
        if np.count_nonzero(idx & tmask):
            raise ValueError("a support rotation needs its target wire to read 0 in every entry")
        pat = _gather(idx, fields)
        index = np.concatenate((idx, idx | tmask), axis=-1)
        amps = np.concatenate((cos[pat] * amps, sin[pat] * amps), axis=-1)
        self.index, self.amps = _drop_zero_columns(index, amps)
        return self

    def probability_all_zero(self, qubits: tuple[int, ...]) -> np.ndarray:
        mask = 0
        for w in qubits:
            mask |= 1 << (self.q - 1 - w)
        a = np.where(self.index & mask, 0.0, self.amps)
        # Summed in entry order: zero entries anywhere leave a row's sum bit-identical.
        return np.add.accumulate(a * a, axis=-1)[:, -1]


State = Union[StateVector, SupportState]


def init_zero(q: int, support: bool = False, batch: int = 1, start: Optional[State] = None) -> State:
    """A batch of ``batch`` rows, each the all-zeros basis state |0...0>, dense or as a support state.

    With ``start``, a one-row state of the same width and form, each row is a
    copy of that row instead.  So a prefix of gates shared by every row runs
    once.
    """
    top = MAX_SUPPORT_QUBITS if support else MAX_QUBITS
    if not 1 <= q <= top:
        raise ValueError(f"qubit count must be in [1, {top}], got {q}")
    if start is not None:
        if start.q != q or isinstance(start, SupportState) != support or start.amps.shape[:-1] != (1,):
            raise ValueError("a start state is one row of a batch of the same width and form")
        if support:
            return SupportState(q, np.repeat(start.index, batch, axis=0), np.repeat(start.amps, batch, axis=0))
        return StateVector(q, np.repeat(start.amps, batch, axis=0))
    if support:
        return SupportState(q, np.zeros((batch, 1), dtype=np.int64), np.ones((batch, 1)))
    amps = np.zeros((batch, 1 << q), dtype=np.float64)
    amps[:, 0] = 1.0
    return StateVector(q, amps)


def _check_wires(q: int, wires: Sequence[int]) -> None:
    if len(set(wires)) != len(wires):
        raise ValueError(f"qubit indices must be distinct, got {tuple(wires)}")
    for w in wires:
        if not 0 <= w < q:
            raise ValueError(f"qubit index {w} out of range for {q} qubits")


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Widest Walsh matrix built: 64 x 64, so a slice costs 64 multiply-adds per entry.
_WALSH_SLICE = 6
# Widest union of wires one composed XOR layer covers: a 2^16-entry int64 table (512 KiB).
_XOR_RUN_WIRES = 16


@lru_cache(maxsize=_WALSH_SLICE)
def _walsh(m: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) * _INV_SQRT2
    mat = np.array([[1.0]])
    for _ in range(m):
        mat = np.kron(mat, h1)
    return mat


# One per (width, later) with width + later <= _WALSH_SLICE: 21 matrices of at most 32 KiB.
@lru_cache(maxsize=_WALSH_SLICE * (_WALSH_SLICE + 1) // 2)
def _folded_walsh(width: int, later: int) -> np.ndarray:
    """kron(Walsh(width), I_{2^later}): H on the top ``width`` of ``width + later`` index bits (symmetric)."""
    return np.kron(_walsh(width), np.eye(1 << later))


@lru_cache(maxsize=1024)
def _walsh_plan(q: int, wires: tuple[int, ...]) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
    """H on the wires of a q-qubit index as matrix products: (matrix, view shape) each.

    The Walsh matrix of a run of consecutive wires is the Kronecker product of
    those of any split of the run, so each run is applied in slices of at most
    _WALSH_SLICE wires.  A slice that spans at most _WALSH_SLICE index bits
    together with every wire after it is folded: the amplitudes are viewed as
    (-1, 2^(slice + later wires)) rows, all multiplied by one
    ``_folded_walsh`` matrix in a single product.  A wider slice views them as
    (-1, 2^slice, 2^later wires) and takes its Walsh matrix on the left of
    each block.
    """
    plan = []
    for shift, mask, _ in _fields(q, tuple(sorted(wires))):
        m = mask.bit_length()
        for low in range(0, m, _WALSH_SLICE):
            width = min(_WALSH_SLICE, m - low)
            later = m - low - width + shift
            if width + later <= _WALSH_SLICE:
                plan.append((_folded_walsh(width, later), (-1, 1 << (width + later))))
            else:
                plan.append((_walsh(width), (-1, 1 << width, 1 << later)))
    return tuple(plan)


def _walsh_transform(amps: np.ndarray, q: int, wires: tuple[int, ...]) -> np.ndarray:
    """H on the wires of a q-qubit index that runs along the last axis of ``amps``, flattened.

    Any leading axis passes through: the rows of a batch, dense or support.
    A folded slice is one product over all of them, and a row's values do not
    depend on how many rows share it: numpy hands a one-row product to gemv,
    which rounds differently from gemm, so one row is multiplied as the first
    of two.
    """
    for mat, shape in _walsh_plan(q, wires):
        view = amps.reshape(shape)
        if len(shape) == 3:
            amps = np.matmul(mat, view)
        elif len(view) > 1:
            amps = view @ mat
        else:
            amps = (np.concatenate((view, view)) @ mat)[:1]
    return amps.reshape(-1)


def apply_hadamard(state: State, qubits: Sequence[int]) -> State:
    """Tensor-product Hadamard on the listed qubits."""
    _check_wires(state.q, qubits)
    qubits = tuple(qubits)
    if isinstance(state, SupportState):
        return state.hadamard(qubits)
    state.amps = _walsh_transform(state.amps, state.q, qubits).reshape(state.amps.shape)
    return state


def apply_pauli_z(state: State, qubit: int) -> State:
    """Phase flip of the |1> component of one qubit."""
    _check_wires(state.q, (qubit,))
    if isinstance(state, SupportState):
        state.amps = np.where((state.index >> (state.q - 1 - qubit)) & 1 == 1, -state.amps, state.amps)
        return state
    post = 1 << (state.q - qubit - 1)
    amps = state.amps.reshape(-1, 2, post)  # a copy when the amplitudes are not C-ordered
    amps[:, 1, :] *= -1.0
    state.amps = amps.reshape(state.amps.shape)
    return state


@dataclass(eq=False)
class PermutationGate:
    """XOR-form basis permutation on a control and a result register.

    A value looked up from the control pattern is XORed into the disjoint
    result register, which is always a self-inverse bijection.  Every oracle
    and arithmetic operator of the circuits has this form.  A gate is a
    description: ``xor_layers`` compiles it into a ``FlipLayer``.
    """

    control_qubits: tuple[int, ...]
    result_qubits: tuple[int, ...]
    value_table: np.ndarray  # control pattern -> XOR value

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

    def xor_plan(self, q: int) -> tuple[tuple[tuple[int, int, int], ...], np.ndarray]:
        """(bit fields of the controls, value table spread onto the result wires' index bits) on q qubits."""
        _check_wires(q, self.targets)
        return _fields(q, self.control_qubits), _spread(self.value_table, q, self.result_qubits)


def xor_permutation_gate(
    control_qubits: Sequence[int],
    result_qubits: Sequence[int],
    values: Union[Sequence[int], np.ndarray],
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
    return PermutationGate(control_qubits=controls, result_qubits=results, value_table=table)


@dataclass(eq=False)
class FlipLayer:
    """An XOR layer given by its flip table: each basis index is XORed with ``flip`` at its control pattern.

    The flip table holds index bits: one table, or one per row of a batch.
    An oracle round's layer has one per row, with its wires checked once by
    ``flip_layer``.  A layer that ``xor_layers`` composes from several gates
    flips wires it also reads (``composed``), so it is not its own inverse.
    """

    control_qubits: tuple[int, ...]
    flip: np.ndarray
    composed: bool = False

    def xor_plan(self, q: int) -> tuple[tuple[tuple[int, int, int], ...], np.ndarray]:
        return _fields(q, self.control_qubits), self.flip


def flip_layer(q: int, control_qubits: tuple[int, ...], result_qubits: tuple[int, ...], flip: np.ndarray) -> FlipLayer:
    """The layer index ^= flip[control pattern] on q qubits; ``flip`` may set only the result wires' bits."""
    _check_wires(q, control_qubits + result_qubits)
    return FlipLayer(control_qubits, flip)


def xor_layers(q: int, gates: Sequence[PermutationGate]) -> list[FlipLayer]:
    """The gates as XOR layers on q qubits, cut greedily into maximal runs whose union of wires is at most _XOR_RUN_WIRES.

    A lone gate is its controls and its value table spread onto index bits.
    A longer run acts only on the union of its wires, as a function of their
    bits, so it is one flip table over their 2^k patterns.  The table is
    built by applying each gate's ``xor_plan`` to the patterns spread onto
    index bits, pure integer arithmetic, so the indices it gives are exactly
    those of gate-by-gate application.
    """
    runs: list[list[PermutationGate]] = []
    wires: set[int] = set()
    for gate in gates:
        if runs and len(wires.union(gate.targets)) <= _XOR_RUN_WIRES:
            runs[-1].append(gate)
            wires.update(gate.targets)
        else:
            runs.append([gate])
            wires = set(gate.targets)
    layers = []
    for run in runs:
        plans = [gate.xor_plan(q) for gate in run]
        if len(run) == 1:
            layers.append(FlipLayer(run[0].control_qubits, plans[0][1]))
            continue
        union = tuple(sorted({w for gate in run for w in gate.targets}))
        before = _spread(np.arange(1 << len(union), dtype=np.int64), q, union)
        after = before.copy()
        for fields, flip in plans:
            after ^= flip[_gather(after, fields)]
        layers.append(FlipLayer(union, after ^ before, composed=True))
    return layers


def apply_permutation(state: State, gate: Union[PermutationGate, FlipLayer]) -> State:
    """Move each basis index to index ^ flip[control pattern], by the gate's ``xor_plan``.

    A dense state gathers each amplitude from where it comes from through
    the same plan: a gate, or a layer of one gate or of an oracle round, is
    its own inverse.  A composed layer is not, so a dense state raises
    TypeError on one.
    """
    if isinstance(state, SupportState):
        return state.permute(gate)
    if isinstance(gate, FlipLayer) and gate.composed:
        raise TypeError("a composed XOR layer takes a support state (SupportState), not a StateVector")
    fields, flip = gate.xor_plan(state.q)
    idx = _indices(state.q)
    state.amps = _lookup(state.amps, idx ^ _lookup(flip, _gather(idx, fields)))
    return state


def _support_only(state: State, kernel: str) -> SupportState:
    if not isinstance(state, SupportState):
        raise TypeError(f"{kernel} takes a support state (SupportState), not a {type(state).__name__}")
    return state


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

    kind = "rotation"

    def __post_init__(self) -> None:
        width = len(self.control_qubits)
        signed = np.array([decode_signed(p, width) for p in range(1 << width)], dtype=np.float64)
        cos = np.clip(signed / float(1 << self.scale_exponent), -1.0, 1.0)
        self.cos_table = cos
        self.sin_table = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))

    def support_plan(self, q: int) -> tuple[tuple[tuple[int, int, int], ...], int, np.ndarray, np.ndarray]:
        """The rotation on q qubits, with its wires checked: the controls' bit fields, the target index bit, cos, sin."""
        _check_wires(q, self.control_qubits + (self.target_qubit,))
        return _fields(q, self.control_qubits), 1 << (q - 1 - self.target_qubit), self.cos_table, self.sin_table


def block_rotation_gate(control_qubits: Sequence[int], target_qubit: int, scale_exponent: int) -> RotationGate:
    controls = tuple(control_qubits)
    if target_qubit in controls:
        raise ValueError("rotation target must not be part of the control register")
    if len(set(controls)) != len(controls):
        raise ValueError(f"control qubits must be distinct, got {controls}")
    return RotationGate(control_qubits=controls, target_qubit=target_qubit, scale_exponent=scale_exponent)


def apply_block_rotation(state: SupportState, gate: RotationGate) -> SupportState:
    """The rotation on a support state; its plan checks the wires."""
    return _support_only(state, "apply_block_rotation").rotate(gate)


@dataclass(frozen=True, eq=False)
class Outcomes:
    """One state's measured outcomes above the probability floor: the register's width, indices (ascending), probabilities."""

    width: int
    outcomes: np.ndarray
    probs: np.ndarray

    @classmethod
    def of(cls, probs: np.ndarray) -> "Outcomes":
        kept = np.flatnonzero(probs > _PROB_FLOOR)
        return cls(len(probs).bit_length() - 1, kept, probs[kept])

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Outcomes) and self.width == other.width
        return same and np.array_equal(self.outcomes, other.outcomes) and np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:  # exact and whole, where NumPy's repr rounds to 8 digits and elides long arrays
        return f"Outcomes({self.width}, {self.outcomes.tolist()!r}, {self.probs.tolist()!r})"

    @property
    def key(self) -> Callable[[int], str]:
        """Formats an outcome as its bit string, first measured wire first: the one place an outcome becomes a string."""
        return f"{{:0{self.width}b}}".format

    def distribution(self) -> dict[str, float]:
        return dict(zip(map(self.key, self.outcomes.tolist()), self.probs.tolist()))


class MeasurementRecord:
    """Exact outcome distribution of a partial measurement, with branch access.

    ``probs`` holds the outcome probabilities of each row, shape (rows, 2^k);
    ``probability`` returns one value per row.  The measured wires' patterns
    are kept for ``collapse``.
    """

    def __init__(self, state: State, qubits: Sequence[int]):
        _check_wires(state.q, qubits)
        self.measured_qubits = tuple(qubits)
        self._state = state
        self._patterns = state.patterns(self.measured_qubits)
        self.probs = _outcome_totals(self._patterns, state.probabilities(), len(self.measured_qubits))

    def probability(self, outcome: int) -> np.ndarray:
        return self.probs[:, outcome]

    def collapse(self, outcome: int) -> State:
        """Renormalized post-measurement state for the given outcome.

        In a batch, a row where the outcome is negligible collapses to zero
        amplitudes; a ValueError is raised when it is negligible in every row.
        """
        p = self.probability(outcome)
        live = p > _PROB_FLOOR
        if not live.any():
            raise ValueError(f"cannot collapse onto outcome {outcome}: probability {p} is negligible")
        norm = np.sqrt(p, out=np.full_like(p, np.inf), where=live)[:, None]
        return self._state.select(self._patterns == outcome, norm)


def measure(state: State, qubits: Sequence[int]) -> MeasurementRecord:
    """Exact joint distribution of the listed qubits; does not disturb the state."""
    return MeasurementRecord(state, qubits)


def probability_all_zero(state: SupportState, qubits: Sequence[int]) -> np.ndarray:
    """Marginal probability that every listed qubit reads 0 in a support state, one value per row."""
    _support_only(state, "probability_all_zero")
    _check_wires(state.q, qubits)
    qubits = tuple(qubits)
    return state.probability_all_zero(qubits) if qubits else np.ones(len(state.amps))
