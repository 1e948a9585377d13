"""The six algorithms as circuit descriptions, and the one executor that runs them.

``circuit(algorithm, n, t)`` is the one description of an algorithm at
(n, t), as data: its width, ordered layers (``Op``), readout plan and static
node-assignment log entry.  alg3 places both adders as A, on interleaved
controls; no description places the compacted A'.  ``_execute`` runs any
description, enumerating both measurement branches analytically, so reported
probabilities carry no sampling noise and exactness can be asserted at 1e-12.
A description with work registers runs on a support state
(``Circuit.support``), the others on a dense one.  ``pattern_table`` runs a
circuit narrowed to one input wire once per pattern of one row of the truth
table, at a cost that does not grow with n, which is all a sweep over the
promise family needs.  Qubit counts, gate breakdowns and
``analysis.resource_table`` are read from the description.

Gate accounting: the ops count one gate per Hadamard layer (the readout's
too), oracle call, named operator and Pauli/CNOT/CCNOT; circuits with work
registers (alg2, alg3) count their preparation as one more operation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

# compute_stats, make_function, build_oracle, build_Aprime,
# xor_permutation_gate and apply_composed are unused here; they stay
# importable from this module because perfbench/tracer.py wraps them on this
# module by name.
from .boolfn import BooleanFunction, compute_stats, make_function  # noqa: F401
from .gates import (  # noqa: F401
    build_A,
    build_Aprime,
    build_ccnot,
    build_cnot,
    build_oracle,
    build_R,
    build_Rprime,
    build_U,
    build_V,
    build_x,
)
from . import sim
from .sim import (  # noqa: F401
    _DEST_CACHE_MAX_Q,
    _PROB_FLOOR,
    _XOR_RUN_WIRES,
    MAX_QUBITS,
    MAX_SUPPORT_QUBITS,
    Outcomes,
    State,
    apply_block_rotation,
    apply_hadamard,
    apply_pauli_z,
    apply_permutation,
    flip_layer,
    init_zero,
    measure,
    probability_all_zero,
    xor_layers,
    xor_permutation_gate,
)
apply_composed = apply_permutation  # nothing calls it: see the comment above

EXACTNESS_TOL = 1e-12

ALGORITHM_NAMES = ("dj", "alg1", "alg2", "alg3", "err-multi", "err-4node")


class InvariantBreach(AssertionError):
    """An internal cross-check (closed form vs simulation) failed."""


@dataclass(frozen=True, eq=False)
class Op:
    """One circuit layer, counted as ``count`` gates of breakdown ``category``.

    Kinds: "hadamard" on ``wires[0]``; "oracle", one query round in which
    subfunction w of ``ws`` XORs its value at control pattern ``wires[0]`` into
    wire ``target(w)``; "fixed", function-independent XOR permutations from
    ``build``; "rotation", the block rotation from ``build``; "z" on
    ``wires[0]``.  ``wires`` are ascending ranges; a layer with a ``name`` is a
    named operator of the resource table, as wide as the span of its wires.
    """

    kind: str
    category: str
    count: int
    wires: tuple[range, ...]
    name: str = ""
    build: Optional[Callable[[], list]] = None
    ws: range = range(0)
    target: Optional[Callable[[int], int]] = None


@dataclass(eq=False)
class Circuit:
    """One algorithm at (n, t) as data, lazy in 2^n and 2^t so any width can be described.

    Readout: the decision qubit, if any, is measured, and on its outcome 0
    the last op, a Hadamard on the input register, runs before the input
    register is measured.  ``work`` registers must read zero after the
    uncompute.  With ``runs`` > 1 the circuit runs once per subfunction on
    its own register.  ``node_entry`` builds the static node-assignment log
    entry, afresh for each report.
    """

    t: Optional[int]
    q: int
    ops: tuple[Op, ...]
    inputs: range
    decision: Optional[int] = None
    work: tuple[range, ...] = ()
    runs: int = 1
    node_entry: Optional[Callable[[], dict]] = None
    # Executor state, which ``dataclasses.replace`` does not copy: the compiled
    # steps (each XOR step carries one ``FlipLayer``), and, made with them, the
    # start row from ``_start``, or None when none is kept.
    steps: Optional[list] = field(default=None, init=False, repr=False)
    start: Optional[tuple[int, State]] = field(default=None, init=False, repr=False)

    @property
    def support(self) -> bool:
        """Whether runs use the support state: the circuits with work registers.

        After the input Hadamard their gates are XOR permutations and one
        rotation, so at most 2^(n-t+1) of the 2^q amplitudes are nonzero.  The
        other circuits (dj, alg1, err-multi, err-4node) fill their register:
        their dense state is at most twice their support.  On support states
        alg1's readout breaks the support Hadamard's precondition (a collapsed
        batch keeps the decision-1 entries, zeroed, in every row), and with
        that relaxed their n=4 check batches ran slower: dj 0.16-0.28 against
        0.49-0.89 ms, err-multi t=1 0.35-0.63 against 1.9-2.0 ms (ROADMAP
        item 4).
        """
        return bool(self.work)

    @property
    def row_bits(self) -> int:
        """log2 of the most entries one state row holds: 2^q dense, 2^(n-t+1) on a support state."""
        return len(self.inputs) + 1 if self.support else self.q

    @cached_property
    def table_bits(self) -> int:
        """log2 of the longest array a support run builds.

        That is its 2^(n-t+1) entries; a lookup table over the control
        registers of one layer (all of its registers but the last), which is at
        least as long as the flip table of any lone gate the layer builds; or
        the flip table of a composed XOR layer, which covers at most
        _XOR_RUN_WIRES wires of the span of a maximal run of fixed layers with
        two or more gates.
        """
        bits = [len(self.inputs) + 1]
        gates = low = high = 0
        for op in self.ops:
            if op.kind in ("fixed", "rotation"):
                bits.append(sum(map(len, op.wires[:-1])))
            if op.kind != "fixed":
                gates = 0
                continue
            first, last = min(r[0] for r in op.wires), max(r[-1] for r in op.wires)
            low, high = (first, last) if not gates else (min(low, first), max(high, last))
            gates += op.count
            if gates > 1:
                bits.append(min(_XOR_RUN_WIRES, high - low + 1))
        return max(bits)

    @cached_property
    def work_wires(self) -> tuple[int, ...]:
        return tuple(w for reg in self.work for w in reg)

    @cached_property
    def gate_breakdown(self) -> dict[str, int]:
        counts = Counter()
        for op in self.ops:
            counts[op.category] += op.count
        if self.work:
            counts["workspace_prep"] += 1
        return {category: count * self.runs for category, count in counts.items()}

    @property
    def gate_count(self) -> int:
        return sum(self.gate_breakdown.values())

    @property
    def operator_widths(self) -> dict[str, int]:
        """Wire span of each named operator; one applied twice reports its first placement."""
        widths: dict[str, int] = {}
        for op in self.ops:
            if op.name:
                widths.setdefault(op.name, max(r[-1] for r in op.wires) - min(r[0] for r in op.wires) + 1)
        return widths

    @property
    def oracle_qubits(self) -> int:
        """Wires one oracle query touches: its controls and one target."""
        return len(next(op for op in self.ops if op.kind == "oracle").wires[0]) + 1


def _hadamard(wires: range) -> Op:
    return Op("hadamard", "hadamard_layers", 1, (wires,))


def _oracle_round(controls: range, ws: range, target: Callable[[int], int]) -> Op:
    return Op("oracle", "oracle_calls", len(ws), (controls,), ws=ws, target=target)


def _dj(n: int) -> Circuit:
    h = _hadamard(range(n + 1))
    x = Op("fixed", "state_prep_x", 1, (range(n, n + 1),), build=lambda: [build_x(n)])
    return Circuit(None, n + 1, (x, h, _oracle_round(range(n), range(1), lambda w: n), h), range(n))


def _shared_target(n: int, t: int, nodes: Callable[[range], dict]) -> Circuit:
    """alg1 (t=1) and err-4node (t=2): each half of the subfunctions queries one shared target, Pauli-Z between."""
    u, target, half = range(n - t), n - t, 1 << (t - 1)
    h = _hadamard(u)
    ops = (
        h,
        _oracle_round(u, range(half), lambda w: target),
        Op("z", "pauli_z", 1, (range(target, target + 1),), name="Z"),
        _oracle_round(u, range(half, 2 * half), lambda w: target),
        h,
    )
    return Circuit(t, target + 1, ops, u, decision=target, node_entry=lambda: {"nodes": nodes(u), "shared_target_wire": target})


def _mirrored(t: int, compute: list[Op], rotation: Op, work: tuple[range, ...], arithmetic: range) -> Circuit:
    """alg2 and alg3: compute (starting with the oracle round), rotate, uncompute, read out.

    The uncompute is the compute list reversed: each operator must see the
    operand registers it originally read still intact.
    """
    oracle = compute[0]
    u = oracle.wires[0]
    decision = rotation.wires[-1][0]

    def entry() -> dict:
        targets = {format(w, f"0{t}b"): {"node": w + 1, "wire": oracle.target(w)} for w in oracle.ws}
        return {
            "nodes": {
                "input_register": {"node": 1, "wires": list(u)},
                "oracle_targets": targets,
                "arithmetic_and_rotation": {"node": 1, "wires": list(arithmetic)},
            },
        }

    h = _hadamard(u)
    ops = (h, *compute, rotation, *reversed(compute), h)
    return Circuit(t, decision + 1, ops, u, decision=decision, work=work, node_entry=entry)


def _alg2(n: int, t: int) -> Circuit:
    """Sum-difference register and controlled rotation."""
    u, wires = range(n - t), range(n - t, n - t + (1 << t))
    dreg = range(wires.stop, wires.stop + t + 2)
    decision = dreg.stop
    compute = [
        _oracle_round(u, range(1 << t), wires.__getitem__),
        Op("fixed", "sum_difference_ops", 1, (wires, dreg), "U", lambda: [build_U(t, tuple(wires), tuple(dreg))]),
    ]
    rotation = Op(
        "rotation", "rotation_ops", 1, (dreg, range(decision, decision + 1)), "R",
        lambda: [build_R(t, tuple(dreg), decision)],
    )
    return _mirrored(t, compute, rotation, (wires, dreg), range(dreg.start, decision + 1))


def _alg3(n: int, t: int) -> Circuit:
    """Subfunctions paired by the low-order bit of w, three wires (value, XOR, AND) per pair.

    Two adders accumulate the XOR and AND sums, the pair-difference operator
    combines them, and the rotation reads the signed result.
    """
    pairs, base = 1 << (t - 1), n - t
    u = range(base)
    value, xor, conj = (range(base + k, base + 3 * pairs, 3) for k in range(3))
    k_reg = range(base + 3 * pairs, base + 3 * pairs + t)
    e_reg = range(k_reg.stop, k_reg.stop + t)
    c_reg = range(e_reg.stop, e_reg.stop + t + 1)
    decision = c_reg.stop

    def adder(controls: range, results: range) -> Op:
        return Op("fixed", "adder_ops", 1, (controls, results), "A", lambda: [build_A(t, tuple(controls), tuple(results))])

    compute = [
        # Subfunction w writes its pair's value wire (even w) or XOR wire (odd w).
        _oracle_round(u, range(2 * pairs), lambda w: base + 3 * (w >> 1) + (w & 1)),
        Op("fixed", "ccnot", pairs, (value, xor, conj), build=lambda: [build_ccnot(*p) for p in zip(value, xor, conj)]),
        Op("fixed", "cnot", pairs, (value, xor), build=lambda: [build_cnot(*p) for p in zip(value, xor)]),
        adder(xor, k_reg),
        adder(conj, e_reg),
        Op(
            "fixed", "pair_difference_ops", 1, (k_reg, e_reg, c_reg), "V",
            lambda: [build_V(t, tuple(k_reg), tuple(e_reg), tuple(c_reg))],
        ),
    ]
    rotation = Op(
        "rotation", "rotation_ops", 1, (c_reg, range(decision, decision + 1)), "R'",
        lambda: [build_Rprime(t, tuple(c_reg), decision)],
    )
    return _mirrored(t, compute, rotation, (value, xor, conj, k_reg, e_reg, c_reg), range(k_reg.start, decision + 1))


def _err_multi(n: int, t: int) -> Circuit:
    """The single-node circuit at n - t, run once per subfunction."""
    sub = _dj(n - t)

    def entry() -> dict:
        return {"nodes": {format(w, f"0{t}b"): {"node": w + 1} for w in range(1 << t)}}

    return Circuit(t, sub.q, sub.ops, sub.inputs, runs=1 << t, node_entry=entry)


@lru_cache(maxsize=64)
def _describe(algorithm: str, n: int, t: Optional[int]) -> Circuit:
    if algorithm == "dj":
        return _dj(n)
    if algorithm == "alg1":
        return _shared_target(n, 1, lambda u: {"node1": {"oracle": "f_0", "wires": list(u)}, "node2": {"oracle": "f_1"}})
    if algorithm == "alg2":
        return _alg2(n, t)
    if algorithm == "alg3":
        return _alg3(n, t)
    if algorithm == "err-multi":
        return _err_multi(n, t)
    return _shared_target(n, 2, lambda u: {format(w, "02b"): {"node": w + 1} for w in range(4)})


def circuit(algorithm: str, n: int, t: Optional[int] = None) -> Circuit:
    """The cached description of one algorithm at arity n and split size t.

    Raises ValueError for a configuration that has no circuit.  Allocates
    nothing that grows with 2^n or 2^t, so widths far beyond the simulator
    can be described.  ``dj`` takes no t; ``alg1`` and ``err-4node`` fix it.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHM_NAMES}")
    if n < 1:
        raise ValueError(f"arity n must be at least 1, got n={n}")
    if algorithm == "dj":
        if t is not None:
            raise ValueError("dj takes no split size t")
    elif algorithm in ("alg1", "err-4node"):
        fixed = 1 if algorithm == "alg1" else 2
        if t not in (None, fixed):
            raise ValueError(f"{algorithm} fixes t = {fixed}")
        if n < fixed + 1:
            raise ValueError(f"{algorithm} requires n >= {fixed + 1}")
        t = fixed
    else:
        if t is None:
            raise ValueError(f"{algorithm} requires a split size t")
        if not 1 <= t < n:
            raise ValueError(f"split size must satisfy 1 <= t < n, got t={t}, n={n}")
    if n > 1 << 62 or (t or 0) > 62:
        raise ValueError(f"n and 2^t must be at most 2^62, past which their wire ranges cannot be counted; got n={n}, t={t}")
    return _describe(algorithm, n, t)


def validate_run_config(algorithm: str, n: int, t: Optional[int]) -> Circuit:
    """The circuit of a run, after rejecting an invalid (algorithm, n, t) with ValueError.

    Circuits larger than their state holds are rejected before any gate or
    index table is built: a dense state holds MAX_QUBITS qubits; a support
    state holds MAX_SUPPORT_QUBITS, with arrays of at most 2^MAX_QUBITS entries.
    """
    c = circuit(algorithm, n, t)
    top = MAX_SUPPORT_QUBITS if c.support else MAX_QUBITS
    if c.q > top:
        raise ValueError(f"{algorithm} at n={n}, t={c.t} needs {c.q} qubits; the simulator holds at most {top}")
    if c.support and c.table_bits > MAX_QUBITS:
        raise ValueError(
            f"{algorithm} at n={n}, t={c.t} needs a 2^{c.table_bits}-entry array; the simulator holds at most 2^{MAX_QUBITS}"
        )
    return c


def _compile(c: Circuit) -> list:
    """The ops as executor steps, built once per circuit.

    A maximal run of fixed layers becomes ("xor", layer) steps, one per
    ``FlipLayer`` of its gates' ``xor_layers``: each a table over at most
    _XOR_RUN_WIRES wires that rewrites only the indices, exact index
    arithmetic, so the state matches gate-by-gate application bit for bit.
    A dense circuit's runs are lone gates.  An oracle round carries the
    index bit of each queried subfunction's target, so a function's bits
    shifted there and XORed together are the round's flip table.  Raises
    ValueError, naming the op, unless the last op is the readout Hadamard.
    """
    i, last = len(c.ops) - 1, c.ops[-1]
    if last.kind != "hadamard" or not set(c.inputs) <= set(last.wires[0]):
        raise ValueError(f"op {i} ({last.kind} {last.name or last.category}) is last; the readout must be a Hadamard on all inputs")
    steps: list = []
    gates: list = []  # the fixed gates since the last other op
    for op in c.ops:
        if op.kind == "fixed":
            gates.extend(op.build())
            continue
        steps.extend(("xor", layer) for layer in xor_layers(c.q, gates))
        gates = []
        if op.kind == "oracle":
            targets = [op.target(w) for w in op.ws]
            shifts = np.array([c.q - 1 - wire for wire in targets])
            steps.append(("oracle", id(op), tuple(op.wires[0]), tuple(dict.fromkeys(targets)), np.array(op.ws), shifts))
        elif op.kind == "rotation":
            steps.append(("rotation", op.build()[0]))
        elif op.kind == "hadamard":
            steps.append(("hadamard", tuple(op.wires[0])))
        else:
            steps.append(("z", op.wires[0][0]))
    steps.extend(("xor", layer) for layer in xor_layers(c.q, gates))
    return steps


def _apply(s: State, step: tuple, rows: Optional[np.ndarray], layers: dict) -> None:
    """One step on every row of ``s``; an oracle round reads each row's function from ``rows``.

    ``layers`` keeps each round's flip table for the run, so the uncompute
    reuses the compute's.
    """
    kind = step[0]
    if kind == "hadamard":
        apply_hadamard(s, step[1])
    elif kind == "oracle":
        _, key, controls, results, ws, shifts = step
        layer = layers.get(key)
        if layer is None:
            bits = rows[:, :, ws]
            if bits.min() < 0 or bits.max() > 1:
                raise ValueError("oracle tables must hold 0/1 values")
            flip = np.bitwise_xor.reduce(bits << shifts, axis=-1)
            layer = layers[key] = flip_layer(s.q, controls, results, flip)
        apply_permutation(s, layer)
    elif kind == "xor":
        apply_permutation(s, step[1])
    elif kind == "rotation":
        apply_block_rotation(s, step[1])
    else:
        apply_pauli_z(s, step[1])


def _start(c: Circuit, support: bool) -> tuple[int, State]:
    """(the number of steps before the first oracle round, the one-row state they leave on the given form).

    Those steps do not depend on the function, so each batch starts from
    copies of this row instead of running them.  Every batch shares the row,
    so its arrays are read-only.  Its state comes from ``sim.init_zero``,
    not this module's name: making it is set-up of the circuit, not one of
    its runs.
    """
    skip = next(i for i, step in enumerate(c.steps) if step[0] == "oracle")
    s = sim.init_zero(c.q, support)
    for step in c.steps[:skip]:
        _apply(s, step, None, {})
    for array in (s.amps, s.index) if support else (s.amps,):
        array.flags.writeable = False
    return skip, s


def _evolve(c: Circuit, rows: np.ndarray) -> State:
    """The batch's state before the readout Hadamard, the last step, one row per oracle table of ``rows``.

    The steps, and with them the start row, are compiled on first use.
    """
    if c.steps is None:
        c.steps = _compile(c)
        c.start = _start(c, c.support) if c.row_bits <= _DEST_CACHE_MAX_Q else None
    skip, start = c.start or (0, None)
    s = init_zero(c.q, c.support, batch=len(rows), start=start)
    layers: dict = {}
    for step in c.steps[skip:-1]:
        _apply(s, step, rows, layers)
    return s


def _execute(c: Circuit, rows: np.ndarray) -> tuple[np.ndarray, list, Optional[np.ndarray]]:
    """Run the circuit once on a batch: (constant-label probabilities, branch log of row 0, work-register p_all_zero).

    ``rows`` holds one oracle table per function, shape (functions, control
    patterns, subfunctions), int64 of 0/1; the state has one row per
    function, and only the oracle layers differ between rows.  Every row
    starts as a copy of the circuit's start row, kept when a row holds at
    most 2^_DEST_CACHE_MAX_Q entries.  The state is a support state when
    ``c.support`` holds, else dense.  Every run reads out by ``Circuit``'s
    one plan: each measurement gives every row's outcome probabilities, and
    the log keeps row 0's as arrays (``sim.Outcomes``).  A support run meets
    the support kernels' two preconditions: the decision wire reads 0 in
    every entry before the rotation, and after the uncompute a row's entries
    differ only on the input wires, which the readout Hadamard, the last
    step, acts on; a description that breaks either raises ValueError.  A
    run reaches the simulator kernels only through this module's names.
    """
    s = _evolve(c, rows)
    log: list = []
    anc = None
    if c.work:
        anc = probability_all_zero(s, c.work_wires)
        log.append({"stage": "work_registers_after_uncompute", "qubits": list(c.work_wires), "p_all_zero": float(anc[0])})
    p_zero, first, condition = 1.0, True, {}
    if c.decision is not None:
        rec = measure(s, (c.decision,))
        p_zero = rec.probability(0)
        log.append({"stage": "decision_qubit", "qubits": [c.decision], "distribution": Outcomes.of(rec.probs[0])})
        live = p_zero > _PROB_FLOOR
        if not live.any():
            return np.zeros(len(rows)), log, anc
        # A row where outcome 0 is negligible collapses to zeros, so its product
        # is 0.  The record goes first, and with it the state before the collapse.
        s, rec = rec.collapse(0), None
        first, condition = live[0], {"conditioned_on": {"decision_qubit": 0}}
    apply_hadamard(s, c.steps[-1][1])
    rec = measure(s, tuple(c.inputs))
    if first:
        log.append({"stage": "input_register", "qubits": list(c.inputs), "distribution": Outcomes.of(rec.probs[0]), **condition})
    return p_zero * rec.probability(0), log, anc


def _run(c: Circuit, rows: np.ndarray) -> tuple[np.ndarray, list, Optional[np.ndarray]]:
    """Every run of the circuit on a batch of oracle tables, as ``_execute`` reports one run.

    With ``c.runs`` > 1, independent nodes share no quantum state: the label
    is "constant" only if every node measures all zeros, and the log holds
    one entry per node.
    """
    if c.runs == 1:
        return _execute(c, rows)
    p_constant, log = np.ones(len(rows)), []
    for w in range(c.runs):
        p_w, node_log, _ = _execute(c, rows[:, :, w : w + 1])
        dist = node_log[-1]["distribution"]
        log.append({"stage": "node_measurement", "w": format(w, f"0{c.t}b"), "p_all_zero": float(p_w[0]), "distribution": dist})
        p_constant *= p_w
    return p_constant, log, None


def _check_row_patterns(c: Circuit) -> None:
    """Raise ValueError, naming the op, unless every run of c is (1/√U) Σ_u |u>|ψ(r_u)> before its readout.

    That holds when the first op on the input register is a Hadamard on all
    of it, and after it the input wires are only the controls of oracle
    rounds that read the whole register, until the last op, the readout
    Hadamard, which ``_compile`` checks.  Then row u of the function's table
    alone steers the other wires in branch u.
    """
    inputs = set(c.inputs)
    readout = len(c.ops) - 1
    opened = False
    for i, op in enumerate(c.ops):
        what = f"op {i} ({op.kind} {op.name or op.category})"
        wires = set().union(*op.wires)
        if op.kind == "hadamard" and wires & inputs and (not opened or i == readout):
            if not inputs <= wires:
                raise ValueError(f"{what} covers only part of the input register")
            if i == readout and not opened:
                raise ValueError(f"{what} is the readout, but no Hadamard opens the input register before it")
            opened = True
            continue
        if op.kind == "oracle":
            if tuple(op.wires[0]) != tuple(c.inputs) or not opened:
                raise ValueError(f"{what} must be controlled by the whole input register after its opening Hadamard")
            wires = {op.target(w) for w in op.ws}
        if wires & inputs:
            raise ValueError(f"{what} acts on input wire {min(wires & inputs)}; only oracle rounds may read the inputs")


def _narrowed(c: Circuit) -> Circuit:
    """c with its input register cut to its first wire and every later wire moved down to follow it; c if nothing is cut.

    The ops keep c's own gates, rewired: in each branch u they act on the other wires as c does.
    """
    cut = len(c.inputs) - 1
    if not cut:
        return c

    def wire(w: int) -> int:
        return w - cut if w >= c.inputs.stop else min(w, c.inputs.start)

    def wires(r: range) -> range:
        return range(wire(r.start), wire(r[-1]) + 1, r.step)

    def gate(g):
        controls = tuple(map(wire, g.control_qubits))
        if g.kind == "rotation":
            return replace(g, control_qubits=controls, target_qubit=wire(g.target_qubit))
        return replace(g, control_qubits=controls, result_qubits=tuple(map(wire, g.result_qubits)))

    def op(o: Op) -> Op:
        build = o.build and (lambda: [gate(g) for g in o.build()])
        target = o.target and (lambda w: wire(o.target(w)))
        return replace(o, wires=tuple(map(wires, o.wires)), build=build, target=target)

    ops = {o: op(o) for o in c.ops}  # an op applied twice stays one, so the uncompute reuses its oracle table
    decision = None if c.decision is None else wire(c.decision)
    inputs = range(c.inputs.start, c.inputs.start + 1)
    return Circuit(c.t, c.q - cut, tuple(map(ops.get, c.ops)), inputs, decision, tuple(map(wires, c.work)), c.runs)


# State entries per batched circuit run, as many rows as fit: at n = 4, 512
# functions for dj (2^5 entries a row), 2,048 for alg2 and alg3 (support rows
# of 2^(n-t+1) entries), and 4,096 row patterns of any pattern-table run.
_SWEEP_ENTRIES = 1 << 14


def _chunk_rows(c: Circuit) -> int:
    """Rows per batched run of c: rows of 2^c.row_bits entries filling _SWEEP_ENTRIES."""
    return max(1, _SWEEP_ENTRIES >> c.row_bits)


def pattern_table(c: Circuit) -> np.ndarray:
    """ψ(r) of every row pattern r, per node: a (nodes, 2^(2^T), K) float array, T = ``c.t or 0``.

    A run on f is (1/√U) Σ_u |u>|ψ(r_u)> before its readout (U = 2^|inputs|,
    r_u row u of f's (U, 2^T) table), so ψ does not depend on n: c narrowed
    to one input wire runs once, one batch row per pattern p read big-endian
    as ``boolfn`` packs a table, and ψ(p) is read where that wire is 0, times
    √2, over the K basis states of the other wires with the decision qubit at
    0, before the readout Hadamard.  So every table costs what it costs at
    n = T + 1, and f's p_constant is the product over nodes of
    ‖Σ_u ψ(r_u) / U‖².  With ``runs`` > 1, node w reads bit w of each
    pattern, from one run on the one-bit patterns 0 and 1.  A description
    the static check rejects raises ValueError before any state is built.
    """
    _check_row_patterns(c)
    one = _narrowed(c)
    width = 1 << (c.t or 0)
    patterns = (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    singles = patterns if c.runs == 1 else np.arange(2)[:, None]
    read = tuple(one.inputs) + (() if one.decision is None else (one.decision,))
    mask = sum(1 << (one.q - 1 - w) for w in read)
    pieces, size = [], _chunk_rows(one)
    for lo in range(0, len(singles), size):
        block = singles[lo : lo + size]
        s = _evolve(one, np.broadcast_to(block[:, None], (len(block), 2, block.shape[1])))
        index = np.broadcast_to(s.index if one.support else sim._indices(one.q), s.amps.shape)
        at_zero = (index & mask) == 0
        row = np.broadcast_to(np.arange(lo, lo + len(block))[:, None], at_zero.shape)
        pieces.append((row[at_zero], index[at_zero], s.amps[at_zero]))
    # A set, not np.unique or np.sort: they import numpy.ma or load sort
    # kernels, 10 ms and 0.3 MiB of a fresh process, for a handful of keys.
    keys = np.array(sorted(set(np.concatenate([piece[1] for piece in pieces]).tolist())), dtype=np.int64)
    psi = np.zeros((len(singles), len(keys)))
    for row, key, amps in pieces:
        psi[row, np.searchsorted(keys, key)] = amps * math.sqrt(2)
    return psi[None] if c.runs == 1 else psi[patterns.T]


@dataclass
class RunReport:
    """Outcome of one algorithm run on one function."""

    algorithm: str
    function_id: str
    n: int
    t: Optional[int]
    q_used: int
    gate_count: int
    gate_breakdown: dict[str, int]
    p_constant: float
    p_balanced: float
    verdict: str
    verdict_exact: bool
    branch_log: list = field(default_factory=list)
    ancilla_zero_prob: Optional[float] = None


def run_named(algorithm: str, f: BooleanFunction, t: Optional[int] = None) -> RunReport:
    """Run the algorithm named by the CLI selector (one of ``ALGORITHM_NAMES``) on f.

    ``t`` is the split size: dj takes none, alg1 and err-4node fix it.
    """
    c = validate_run_config(algorithm, f.n, t)
    rows = f.as_array().reshape(1, -1, 1 << (c.t or 0)).astype(np.int64)
    p_rows, log, anc_rows = _run(c, rows)
    p_constant = float(p_rows[0])
    anc = None if anc_rows is None else float(anc_rows[0])
    if c.node_entry is not None:
        log.insert(0, {"stage": "node_assignment", **c.node_entry()})
    p_balanced = 1.0 - p_constant
    return RunReport(
        algorithm=algorithm,
        function_id=f.digest(),
        n=f.n,
        t=c.t,
        q_used=c.q,
        gate_count=c.gate_count,
        gate_breakdown=dict(c.gate_breakdown),
        p_constant=p_constant,
        p_balanced=p_balanced,
        verdict="constant" if p_constant >= p_balanced else "balanced",
        verdict_exact=max(p_constant, p_balanced) >= 1.0 - EXACTNESS_TOL,
        branch_log=log,
        ancilla_zero_prob=anc,
    )


def probability_oracle(report: RunReport, f: BooleanFunction, t: Optional[int] = None, tol: float = 1e-10) -> float:
    """Recompute the report's constant-label probability from counting statistics.

    The closed forms are exact dyadic rationals (integer numerators over
    powers of two), giving an independent check of the simulated value.
    Raises InvariantBreach on disagreement beyond ``tol``.
    """
    if t is None:
        t = report.t
    elif report.t is not None and t != report.t:
        raise ValueError(f"report was produced at t={report.t}, not t={t}")
    n = f.n
    size = 1 << n
    alg = report.algorithm
    # One row per control pattern u, one column per subfunction w.
    rows = f.as_array().reshape(-1, 1 << (t or 0))
    even, odd = rows[:, 0::2], rows[:, 1::2]
    if alg == "dj":
        closed = (size - 2 * f.popcount) ** 2 / size**2
    elif alg in ("alg1", "alg3"):
        # The sum of Delta = E00 - E11: even/odd subfunction pairs that both
        # read 0, minus pairs that both read 1.  At t = 1 (alg1) it is B00 - B11.
        big_delta_sum = int(np.count_nonzero((even | odd) == 0)) - int(np.count_nonzero(even & odd))
        closed = big_delta_sum**2 / (1 << (2 * (n - t) + 2 * (t - 1)))
    elif alg == "alg2":
        delta_sum = size - 2 * int(np.count_nonzero(rows))
        closed = delta_sum**2 / (1 << (2 * (n - t) + 2 * t))
    elif alg == "err-multi":
        closed = 1.0
        for k_w in np.count_nonzero(rows, axis=0):
            closed *= ((1 << (t + 1)) * int(k_w) / size - 1.0) ** 2
    elif alg == "err-4node":
        # Patterns where the four values XOR to 0 count +1, or -1 when f_0 != f_1.
        kept = (rows[:, 0] ^ rows[:, 1] ^ rows[:, 2] ^ rows[:, 3]) == 0
        total = int(np.count_nonzero(kept)) - 2 * int(np.count_nonzero(kept & (rows[:, 0] != rows[:, 1])))
        closed = total**2 / (1 << (2 * (n - 2)))
    else:
        raise ValueError(f"no closed form registered for algorithm {alg!r}")
    if not math.isclose(closed, report.p_constant, rel_tol=0.0, abs_tol=tol):
        raise InvariantBreach(
            f"{alg} closed-form probability {closed!r} disagrees with simulated {report.p_constant!r} "
            f"for function {report.function_id}"
        )
    return closed
