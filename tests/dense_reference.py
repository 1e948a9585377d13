"""A small dense state-vector engine that runs circuit descriptions, for the tests only.

It reads only what a description says: ``Circuit.ops`` and each op's
``build()``, the gates' ``action_table`` (permutations) and
``cos_table``/``sin_table`` (rotations), and the readout plan.  It calls no
kernel or helper of ``djsim.sim``, so a fault there cannot pass an agreement
check by being on both sides of it.

A batch of states is one array of shape (functions, 2^q).  Wire 0 is the
most significant bit of a basis index, as in ``djsim.sim``.  Each Hadamard is
the 2x2 matrix on its own wire's axis; each maximal run of fixed layers is
one permutation of the basis states, composed from its gates' action tables;
an oracle round is one permutation per function.
"""

from __future__ import annotations

import math

import numpy as np

PROB_FLOOR = 1e-15
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) * math.sqrt(0.5)
# Amplitudes per chunk of functions: 2^16 float64 values, 512 KiB an array.
_CHUNK_AMPS = 1 << 16


def pattern_of(index: np.ndarray, wires, q: int) -> np.ndarray:
    """Bit pattern of the wires at each basis index (first wire = MSB)."""
    pat = np.zeros_like(index)
    for w in wires:
        pat <<= 1
        pat |= (index >> (q - 1 - w)) & 1
    return pat


def placed(pat: np.ndarray, wires, q: int) -> np.ndarray:
    """The patterns' bits at their wires' index bits: the inverse of ``pattern_of``."""
    out = np.zeros_like(pat)
    for j, w in enumerate(wires):
        out |= ((pat >> (len(wires) - 1 - j)) & 1) << (q - 1 - w)
    return out


def destination(gates, q: int) -> np.ndarray:
    """Where each basis state goes under the permutation gates applied in order, read from their action tables.

    The gates are composed on the patterns of the wires they touch, then
    lifted onto the 2^q basis states.
    """
    wires = sorted({w for gate in gates for w in gate.targets})
    k = len(wires)
    pats = np.arange(1 << k, dtype=np.int64)
    for gate in gates:
        local = [wires.index(w) for w in gate.targets]
        others = pats & ~int(placed(np.array([-1]), local, k)[0])
        pats = others | placed(gate.action_table()[pattern_of(pats, local, k)], local, k)
    index = np.arange(1 << q, dtype=np.int64)
    others = index & ~int(placed(np.array([-1]), wires, q)[0])
    return others | placed(pats[pattern_of(index, wires, q)], wires, q)


def distribution(probs: np.ndarray) -> dict[str, float]:
    """The outcome probabilities above the floor, keyed by the outcome's bit string."""
    k = len(probs).bit_length() - 1
    return {format(o, f"0{k}b"): float(probs[o]) for o in range(len(probs)) if probs[o] > PROB_FLOOR}


class Reference:
    """One circuit's dense run: its index tables, built once, then applied to chunks of functions."""

    def __init__(self, c):
        self.c = c
        self.q = q = c.q
        self.index = np.arange(1 << q, dtype=np.int64)
        self.steps: list = []
        gates: list = []
        for op in c.ops:
            if op.kind == "fixed":
                gates.extend(op.build())
                continue
            if gates:
                self.steps.append(("move", self.source(gates)))
                gates = []
            if op.kind == "hadamard":
                self.steps.extend(("hadamard", w) for w in op.wires[0])
            elif op.kind == "oracle":
                # Subfunction w XORs its value at the pattern of the leading
                # control wires into wire target(w).
                assert list(op.wires[0]) == list(range(len(op.wires[0]))), op.wires
                shifts = np.array([q - 1 - op.target(w) for w in op.ws])
                self.steps.append(("oracle", np.array(op.ws), shifts))
            elif op.kind == "rotation":
                gate = op.build()[0]
                pat = pattern_of(self.index, gate.control_qubits, q)
                # Target 0 takes -sin times its partner's amplitude, target 1 +sin.
                sign = np.where(pattern_of(self.index, (gate.target_qubit,), q) == 1, 1.0, -1.0)
                partner = self.index ^ (1 << (q - 1 - gate.target_qubit))
                self.steps.append(("rotate", partner, gate.cos_table[pat], sign * gate.sin_table[pat]))
            else:
                self.steps.append(("z", op.wires[0][0]))
        if gates:
            self.steps.append(("move", self.source(gates)))

    def source(self, gates) -> np.ndarray:
        """The basis state from which each basis state takes its amplitude."""
        src = np.empty_like(self.index)
        src[destination(gates, self.q)] = self.index
        return src

    def hadamard(self, amps: np.ndarray, wire: int) -> np.ndarray:
        return np.matmul(_H, amps.reshape(-1, 2, 1 << (self.q - 1 - wire))).reshape(amps.shape)

    def marginal(self, amps: np.ndarray, wires) -> np.ndarray:
        """Probability of each pattern of a block of consecutive wires, shape (functions, 2^k)."""
        first, k = min(wires), len(wires)
        assert sorted(wires) == list(range(first, first + k)), wires
        # Sum the squares over the wires before the block, then over those after it.
        squares = (amps * amps).reshape(len(amps), 1 << first, -1)
        block = squares[:, 0] if first == 0 else np.ones(1 << first) @ squares
        return block.reshape(len(amps), 1 << k, -1) @ np.ones(1 << (self.q - first - k))

    def run(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """One chunk of oracle tables: (p_constant, work-register p_all_zero, branch log) per function."""
        c, count = self.c, len(rows)
        amps = np.zeros((count, 1 << self.q))
        amps[:, 0] = 1.0
        for step in self.steps:
            kind = step[0]
            if kind == "hadamard":
                amps = self.hadamard(amps, step[1])
            elif kind == "move":
                amps = amps.take(step[1], axis=1)
            elif kind == "oracle":
                # An XOR by a value of the controls is its own inverse: gather from where it sends.
                _, ws, shifts = step
                masks = np.bitwise_xor.reduce(rows[:, :, ws] << shifts, axis=2)
                src = self.index.reshape(1, len(masks[0]), -1) ^ masks[:, :, None]
                src += (np.arange(count) << self.q)[:, None, None]
                amps = amps.take(src).reshape(amps.shape)
            elif kind == "rotate":
                _, partner, cos, sin = step
                moved = amps.take(partner, axis=1)
                moved *= sin
                amps *= cos
                amps += moved
            else:
                amps.reshape(count, 1 << step[1], 2, -1)[:, :, 1] *= -1.0
        logs: list = [[] for _ in range(count)]
        anc = np.full(count, np.nan)
        if c.work:
            wires = [w for reg in c.work for w in reg]
            anc = self.marginal(amps, wires)[:, 0]
            for log, p in zip(logs, anc):
                log.append({"stage": "work_registers_after_uncompute", "qubits": wires, "p_all_zero": float(p)})
        inputs = list(c.inputs)

        def read_inputs(amps: np.ndarray, live: np.ndarray, extra: dict) -> np.ndarray:
            probs = self.marginal(amps, inputs)
            for r in np.flatnonzero(live):
                logs[r].append({"stage": "input_register", "qubits": inputs, "distribution": distribution(probs[r]), **extra})
            return probs[:, 0]

        if c.decision is None:
            return read_inputs(amps, np.ones(count, dtype=bool), {}), anc, logs
        decision = self.marginal(amps, [c.decision])
        for r, log in enumerate(logs):
            log.append({"stage": "decision_qubit", "qubits": [c.decision], "distribution": distribution(decision[r])})
        p_zero = decision[:, 0]
        live = p_zero > PROB_FLOOR
        # Collapse onto decision 0; a function where it is negligible collapses to zeros.
        view = amps.reshape(count, 1 << c.decision, 2, -1)
        view[:, :, 0] /= np.sqrt(np.where(live, p_zero, np.inf))[:, None, None]
        view[:, :, 1] = 0.0
        for w in inputs:
            amps = self.hadamard(amps, w)
        return p_zero * read_inputs(amps, live, {"conditioned_on": {"decision_qubit": 0}}), anc, logs


def run(c, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """(constant-label probability, work-register p_all_zero, branch log) of every row, read out as ``_execute`` does.

    ``rows`` holds one oracle table per function, shape (functions, control
    patterns, subfunctions).  The work-register values are NaN for a circuit
    without work registers.  The functions run in chunks of at most 2^16
    amplitudes, or one function at a time.
    """
    reference = Reference(c)
    chunk = max(1, _CHUNK_AMPS >> c.q)
    parts = [reference.run(rows[i : i + chunk]) for i in range(0, len(rows), chunk)]
    return (
        np.concatenate([p for p, _, _ in parts]),
        np.concatenate([a for _, a, _ in parts]),
        [log for _, _, logs in parts for log in logs],
    )
