"""The six algorithms as circuit descriptions, and the one executor that runs them.

``circuit(algorithm, n, t, adder_layout)`` describes an algorithm as data: its
width, ordered layers (``Op``), readout plan and static node-assignment log
entry.  ``_execute`` runs any description, enumerating both measurement
branches analytically, so reported probabilities carry no sampling noise and
exactness can be asserted at 1e-12.  A description with work registers runs
on a support state (``Circuit.support``), the others on a dense one.
``pattern_table`` runs a circuit once per pattern of one row of the truth
table, which is all a sweep over the promise family needs.  Qubit counts,
gate breakdowns and ``analysis.resource_table`` are read from the
description.

Gate accounting: each Hadamard layer, oracle call, named arithmetic or
rotation operator, and Pauli/CNOT/CCNOT counts as one gate; circuits that
allocate dedicated work registers (the two multi-node algorithms) count the
preparation of that workspace as one additional operation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

# compute_stats, make_function, build_oracle, xor_permutation_gate and
# apply_composed are unused here; they stay importable from this module
# because perfbench/tracer.py wraps them on this module by name.
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
    State,
    apply_block_rotation,
    apply_hadamard,
    apply_pauli_z,
    apply_permutation,
    flip_layer,
    init_zero,
    measure,
    outcome_distribution,
    probability_all_zero,
    xor_permutation_gate,
    xor_runs,
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

    Readout: with ``decision`` None the input register is measured; otherwise
    the decision qubit, then on outcome 0 the input register after a
    Hadamard.  ``work`` registers must read zero after the uncompute.  With
    ``runs`` > 1 the circuit runs once per subfunction on its own register.
    ``node_entry`` builds the static node-assignment log entry, afresh for
    each report.
    """

    t: Optional[int]
    q: int
    ops: tuple[Op, ...]
    inputs: range
    decision: Optional[int] = None
    work: tuple[range, ...] = ()
    runs: int = 1
    node_entry: Optional[Callable[[], dict]] = None
    # Executor state: the compiled steps (a fixed step carries its XOR runs),
    # and, made with them, the start row from ``_start``, or None when none
    # is kept.
    steps: Optional[list] = field(default=None, repr=False)
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
        least as long as the table of any gate the layer builds; or the table
        of a composed XOR run, which covers at most _XOR_RUN_WIRES wires of the
        span of a maximal run of fixed layers with two or more gates.
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
        if self.decision is not None:
            counts["hadamard_layers"] += 1  # the readout's input-register Hadamard
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
    ops = (
        _hadamard(u),
        _oracle_round(u, range(half), lambda w: target),
        Op("z", "pauli_z", 1, (range(target, target + 1),), name="Z"),
        _oracle_round(u, range(half, 2 * half), lambda w: target),
    )
    return Circuit(t, target + 1, ops, u, decision=target, node_entry=lambda: {"nodes": nodes(u), "shared_target_wire": target})


def _mirrored(t: int, compute: list[Op], rotation: Op, work: tuple[range, ...], arithmetic: range) -> Circuit:
    """alg2 and alg3: compute (starting with the oracle round), rotate, uncompute.

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

    ops = (_hadamard(u), *compute, rotation, *reversed(compute))
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


def _alg3(n: int, t: int, adder_layout: str) -> Circuit:
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
    # "compact" only renames A to A': both run on the interleaved wires.
    name = "A" if adder_layout == "interleaved" else "A'"

    def adder(controls: range, results: range) -> Op:
        build = build_A if name == "A" else build_Aprime
        return Op("fixed", "adder_ops", 1, (controls, results), name, lambda: [build(t, tuple(controls), tuple(results))])

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
def _describe(algorithm: str, n: int, t: Optional[int], adder_layout: str) -> Circuit:
    if algorithm == "dj":
        return _dj(n)
    if algorithm == "alg1":
        return _shared_target(n, 1, lambda u: {"node1": {"oracle": "f_0", "wires": list(u)}, "node2": {"oracle": "f_1"}})
    if algorithm == "alg2":
        return _alg2(n, t)
    if algorithm == "alg3":
        return _alg3(n, t, adder_layout)
    if algorithm == "err-multi":
        return _err_multi(n, t)
    return _shared_target(n, 2, lambda u: {format(w, "02b"): {"node": w + 1} for w in range(4)})


def circuit(algorithm: str, n: int, t: Optional[int] = None, adder_layout: str = "interleaved") -> Circuit:
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
    if algorithm != "alg3":
        adder_layout = "interleaved"
    elif adder_layout not in ("interleaved", "compact"):
        raise ValueError(f"adder_layout must be 'interleaved' or 'compact', got {adder_layout!r}")
    return _describe(algorithm, n, t, adder_layout)


def validate_run_config(algorithm: str, n: int, t: Optional[int], adder_layout: str = "interleaved") -> Circuit:
    """The circuit of a run, after rejecting an invalid (algorithm, n, t) with ValueError.

    Circuits larger than their state holds are rejected before any gate or
    index table is built: a dense state holds MAX_QUBITS qubits; a support
    state holds MAX_SUPPORT_QUBITS, with arrays of at most 2^MAX_QUBITS entries.
    """
    c = circuit(algorithm, n, t, adder_layout)
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

    A maximal run of fixed layers is one step: (kind, key, its gates, their
    ``xor_runs``).  Each run is one table over at most _XOR_RUN_WIRES wires
    that rewrites only the indices, exact index arithmetic, so the state
    matches gate-by-gate application bit for bit.  A run of one gate is that
    gate, the only kind of run a dense circuit has.  An oracle round carries
    the index bit of each queried subfunction's target, so a function's bits
    shifted there and XORed together are the round's flip table.
    """
    steps: list = []
    for op in c.ops:
        if op.kind == "fixed":
            if steps and steps[-1][0] == "fixed":
                steps[-1][2].extend(op.build())
            else:
                steps.append(("fixed", len(steps), op.build()))
        elif op.kind == "oracle":
            targets = [op.target(w) for w in op.ws]
            shifts = np.array([c.q - 1 - wire for wire in targets])
            steps.append(("oracle", id(op), tuple(op.wires[0]), tuple(dict.fromkeys(targets)), np.array(op.ws), shifts))
        elif op.kind == "rotation":
            steps.append(("rotation", op.build()[0]))
        elif op.kind == "hadamard":
            steps.append(("hadamard", tuple(op.wires[0])))
        else:
            steps.append(("z", op.wires[0][0]))
    return [(*step, xor_runs(step[2])) if step[0] == "fixed" else step for step in steps]


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
    elif kind == "fixed":
        for run in step[3]:
            apply_permutation(s, run)
    elif kind == "rotation":
        apply_block_rotation(s, step[1])
    else:
        apply_pauli_z(s, step[1])


def _start(c: Circuit, support: bool) -> tuple[int, State]:
    """(the number of steps before the first oracle round, the one-row state they leave on the given form).

    Those steps do not depend on the function, so each batch starts from
    this row instead of running them.  Its arrays are read-only.  Its state
    comes from ``sim.init_zero``, not this module's name: making it is
    set-up of the circuit, not one of its runs.
    """
    skip = next(i for i, step in enumerate(c.steps) if step[0] == "oracle")
    s = sim.init_zero(c.q, support, batch=1)
    for step in c.steps[:skip]:
        _apply(s, step, None, {})
    for array in (s.amps, s.index) if support else (s.amps,):
        array.flags.writeable = False
    return skip, s


def _evolve(c: Circuit, rows: np.ndarray, stop: Optional[int] = None) -> State:
    """The batch's state after the compiled steps (those before ``stop``), one row per oracle table of ``rows``.

    The steps, and with them the start row, are compiled on first use.
    """
    if c.steps is None:
        c.steps = _compile(c)
        c.start = _start(c, c.support) if c.row_bits <= _DEST_CACHE_MAX_Q else None
    skip, start = c.start or (0, None)
    s = init_zero(c.q, c.support, batch=len(rows), start=start)
    layers: dict = {}
    for step in c.steps[skip:stop]:
        _apply(s, step, rows, layers)
    return s


def _execute(c: Circuit, rows: np.ndarray) -> tuple[np.ndarray, list, Optional[np.ndarray]]:
    """Run the circuit once on a batch: (constant-label probabilities, branch log of row 0, work-register p_all_zero).

    ``rows`` holds one oracle table per function, shape (functions, control
    patterns, subfunctions), int64 of 0/1; the state has one row per
    function, and only the oracle layers differ between rows.  Every row
    starts from the circuit's start row, kept when a row holds at most
    2^_DEST_CACHE_MAX_Q entries; the first oracle round gathers from it.  The
    state is a support state when ``c.support`` holds, else dense.  The
    readout follows ``Circuit``'s plan in every row: each measurement builds
    every row's outcome distribution, and the log takes row 0's.  A support
    run meets the two preconditions of the support kernels: the decision
    wire reads 0 in every entry before the rotation, and after the uncompute
    the entries of a row differ only on the input wires, which the readout
    Hadamard acts on; a description that breaks either raises a ValueError.
    A run reaches the simulator kernels only through this module's names.
    """
    count = len(rows)
    s = _evolve(c, rows)
    log: list = []
    anc = None
    if c.work:
        anc = probability_all_zero(s, c.work_wires)
        log.append({"stage": "work_registers_after_uncompute", "qubits": list(c.work_wires), "p_all_zero": float(anc[0])})
    inputs = tuple(c.inputs)

    def input_register(rec) -> dict:
        return {"stage": "input_register", "qubits": list(inputs), "distribution": outcome_distribution(rec.probs[0])}

    if c.decision is None:
        rec = measure(s, inputs)
        p = rec.probability(0)
        log.append(input_register(rec))
        return p, log, anc
    rec = measure(s, (c.decision,))
    p_zero = rec.probability(0)
    log.append({"stage": "decision_qubit", "qubits": [c.decision], "distribution": outcome_distribution(rec.probs[0])})
    live = p_zero > _PROB_FLOOR
    if not live.any():
        return np.zeros(count), log, anc
    # A row where outcome 0 is negligible collapses to zeros, so its product
    # is 0.  The record goes first, and with it the state before the collapse.
    s, rec = rec.collapse(0), None
    apply_hadamard(s, inputs)
    rec = measure(s, inputs)
    p = rec.probability(0)
    if live[0]:
        log.append({**input_register(rec), "conditioned_on": {"decision_qubit": 0}})
    return p_zero * p, log, anc


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
    rounds that read the whole register, until the readout Hadamard: the
    last op when ``decision`` is None, else the executor's.  Then row u of
    the function's table alone steers the other wires in branch u.
    """
    inputs = set(c.inputs)
    readout = len(c.ops) - 1 if c.decision is None else None
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
    if readout is not None and (readout < 0 or c.ops[readout].kind != "hadamard"):
        raise ValueError("a circuit that measures its input register must end with the readout Hadamard on it")


# Row patterns per batched run of the pattern table: t=4 has 2^16 of them.
_TABLE_BATCH = 1 << 12


def pattern_table(c: Circuit) -> np.ndarray:
    """ψ(r) of every row pattern r, per node: a (nodes, 2^(2^T), K) float array, T = ``c.t or 0``.

    A run on f is (1/√U) Σ_u |u>|ψ(r_u)> before its readout (U = 2^|inputs|,
    r_u row u of f's (U, 2^T) table), so each circuit runs once, one batch
    row per pattern p whose every row is p, read big-endian as ``boolfn``
    packs a table.  ψ(p) is read where the inputs are 0, times √U, over the
    K basis states of the other wires with the decision qubit at 0, before
    the readout Hadamard: then f's p_constant is the product over nodes of
    ‖Σ_u ψ(r_u) / U‖².  A circuit with ``runs`` > 1 has one node per run,
    node w reading column w of each pattern.  A description the static
    check rejects raises ValueError before any state is built.
    """
    _check_row_patterns(c)
    width = 1 << (c.t or 0)
    rows = 1 << len(c.inputs)
    stop = -1 if c.decision is None else None  # the readout Hadamard is the last step, or the executor's
    patterns = (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    read = tuple(c.inputs) + (() if c.decision is None else (c.decision,))
    mask = sum(1 << (c.q - 1 - w) for w in read)
    pieces = []
    for node in range(c.runs):
        columns = patterns if c.runs == 1 else patterns[:, node : node + 1]
        for lo in range(0, len(patterns), _TABLE_BATCH):
            block = columns[lo : lo + _TABLE_BATCH]
            s = _evolve(c, np.broadcast_to(block[:, None], (len(block), rows, block.shape[1])), stop)
            index = np.broadcast_to(s.index if c.support else sim._indices(c.q), s.amps.shape)
            at_zero = (index & mask) == 0
            row = np.broadcast_to(np.arange(lo, lo + len(block))[:, None], at_zero.shape)
            pieces.append((node, row[at_zero], index[at_zero], s.amps[at_zero]))
    # A set, not np.unique or np.sort: they import numpy.ma or load sort
    # kernels, 10 ms and 0.3 MiB of a fresh process, for a handful of keys.
    keys = np.array(sorted(set(np.concatenate([piece[2] for piece in pieces]).tolist())), dtype=np.int64)
    table = np.zeros((c.runs, len(patterns), len(keys)))
    for node, row, key, amps in pieces:
        table[node, row, np.searchsorted(keys, key)] = amps * math.sqrt(rows)
    return table


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


def run_named(algorithm: str, f: BooleanFunction, t: Optional[int] = None, adder_layout: str = "interleaved") -> RunReport:
    """Run the algorithm named by the CLI selector on f."""
    c = validate_run_config(algorithm, f.n, t, adder_layout)
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


def run_dj(f: BooleanFunction) -> RunReport:
    """Single-oracle global algorithm on n+1 qubits."""
    return run_named("dj", f)


def run_algorithm1(f: BooleanFunction) -> RunReport:
    """Two-node algorithm: one query per subfunction oracle, phase flip in between."""
    return run_named("alg1", f)


def run_algorithm2(f: BooleanFunction, t: int) -> RunReport:
    """Multi-node algorithm with the sum-difference register and controlled rotation."""
    return run_named("alg2", f, t)


def run_algorithm3(f: BooleanFunction, t: int, adder_layout: str = "interleaved") -> RunReport:
    """Multi-node algorithm pairing subfunctions; ``adder_layout`` "compact" renames the adder A to A'."""
    return run_named("alg3", f, t, adder_layout)


def run_erroneous_multinode(f: BooleanFunction, t: int) -> RunReport:
    """Baseline running the single-node algorithm once per subfunction; q_used is the per-node width."""
    return run_named("err-multi", f, t)


def run_erroneous_4node_xor(f: BooleanFunction) -> RunReport:
    """Four-node baseline chaining all four oracles onto one shared target qubit."""
    return run_named("err-4node", f)


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
