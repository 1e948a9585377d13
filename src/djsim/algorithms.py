"""End-to-end circuit drivers producing exact output-label probabilities.

Every driver enumerates both measurement branches analytically (postselection
on the exact distribution), so reported probabilities carry no sampling noise
and exactness claims can be asserted at 1e-12.

Gate accounting: each Hadamard layer, oracle call, named arithmetic or
rotation operator, and Pauli/CNOT/CCNOT counts as one gate; circuits that
allocate dedicated work registers (the two multi-node algorithms) count the
preparation of that workspace as one additional operation.  The per-category
breakdown is recorded in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .boolfn import BooleanFunction, Decomposition, compute_stats, make_function
from .gates import (
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
from .sim import (
    MAX_QUBITS,
    PermutationGate,
    StateVector,
    apply_block_rotation,
    apply_composed,
    apply_hadamard,
    apply_pauli_z,
    apply_permutation,
    compose_permutation_sources,
    init_zero,
    measure,
    probability_all_zero,
    xor_permutation_gate,
)

EXACTNESS_TOL = 1e-12
_PROB_FLOOR = 1e-15

ALGORITHM_NAMES = ("dj", "alg1", "alg2", "alg3", "err-multi", "err-4node")


class InvariantBreach(AssertionError):
    """An internal cross-check (closed form vs simulation) failed."""


def circuit_qubits(algorithm: str, n: int, t: Optional[int]) -> int:
    """Register width of one driver's circuit at arity n and split size t.

    ``err-multi`` reports the width of one node's independent run; ``alg1``
    and ``err-4node`` fix t.  Assumes a configuration validate_run_config
    accepts apart from the width bound.
    """
    if algorithm == "dj":
        return n + 1
    if algorithm == "alg1":
        return n
    if algorithm == "alg2":
        return (n - t) + (1 << t) + (t + 2) + 1
    if algorithm == "alg3":
        return (n - t) + 3 * (1 << (t - 1)) + 3 * t + 2
    if algorithm == "err-multi":
        return n - t + 1
    return n - 1


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


def _finish(
    algorithm: str,
    f: BooleanFunction,
    t: Optional[int],
    q_used: int,
    breakdown: dict[str, int],
    p_constant: float,
    branch_log: list,
    ancilla_zero_prob: Optional[float] = None,
) -> RunReport:
    p_balanced = 1.0 - p_constant
    verdict = "constant" if p_constant >= p_balanced else "balanced"
    exact = max(p_constant, p_balanced) >= 1.0 - EXACTNESS_TOL
    return RunReport(
        algorithm=algorithm,
        function_id=f.digest(),
        n=f.n,
        t=t,
        q_used=q_used,
        gate_count=sum(breakdown.values()),
        gate_breakdown=breakdown,
        p_constant=p_constant,
        p_balanced=p_balanced,
        verdict=verdict,
        verdict_exact=exact,
        branch_log=branch_log,
        ancilla_zero_prob=ancilla_zero_prob,
    )


def _two_stage_constant_prob(s: StateVector, decision: int, input_wires: tuple[int, ...], log: list) -> float:
    """Shared ending: measure the decision qubit, postselect 0, transform, measure the input register.

    Returns the joint probability of the constant-labelled path (decision 0
    followed by the all-zero input outcome).
    """
    rec = measure(s, (decision,))
    log.append({"stage": "decision_qubit", "qubits": [decision], "distribution": rec.distribution})
    p_zero = rec.probability(0)
    if p_zero <= _PROB_FLOOR:
        return 0.0
    branch = rec.collapse(0)
    apply_hadamard(branch, input_wires)
    rec2 = measure(branch, input_wires)
    log.append(
        {
            "stage": "input_register",
            "qubits": list(input_wires),
            "conditioned_on": {"decision_qubit": 0},
            "distribution": rec2.distribution,
        }
    )
    return p_zero * rec2.probability(0)


def run_dj(f: BooleanFunction) -> RunReport:
    """Single-oracle global algorithm on n+1 qubits."""
    n = f.n
    q = circuit_qubits("dj", n, None)
    wires = tuple(range(q))
    inputs = tuple(range(n))
    s = init_zero(q)
    apply_permutation(s, build_x(n))
    apply_hadamard(s, wires)
    apply_permutation(s, build_oracle(f, None, inputs, n))
    apply_hadamard(s, wires)
    rec = measure(s, inputs)
    log = [{"stage": "input_register", "qubits": list(inputs), "distribution": rec.distribution}]
    breakdown = {"state_prep_x": 1, "hadamard_layers": 2, "oracle_calls": 1}
    return _finish("dj", f, None, q, breakdown, rec.probability(0), log)


def run_algorithm1(f: BooleanFunction) -> RunReport:
    """Two-node driver: one query per subfunction oracle, phase flip in between."""
    if f.n < 2:
        raise ValueError("the two-node algorithm requires n >= 2")
    d = Decomposition(f, 1)
    q = circuit_qubits("alg1", f.n, 1)
    u = tuple(range(q - 1))
    target = q - 1
    s = init_zero(q)
    apply_hadamard(s, u)
    apply_permutation(s, build_oracle(d, 0, u, target))
    apply_pauli_z(s, target)
    apply_permutation(s, build_oracle(d, 1, u, target))
    log = [
        {
            "stage": "node_assignment",
            "nodes": {"node1": {"oracle": "f_0", "wires": list(u)}, "node2": {"oracle": "f_1"}},
            "shared_target_wire": target,
        }
    ]
    p_constant = _two_stage_constant_prob(s, target, u, log)
    breakdown = {"hadamard_layers": 2, "oracle_calls": 2, "pauli_z": 1}
    return _finish("alg1", f, 1, q, breakdown, p_constant, log)


def run_algorithm2(f: BooleanFunction, t: int) -> RunReport:
    """Multi-node driver with the sum-difference register and controlled rotation."""
    d = Decomposition(f, t)  # validates 1 <= t < n
    n = f.n
    nodes = 1 << t
    q = circuit_qubits("alg2", n, t)
    u = tuple(range(n - t))
    oracle_wires = tuple(n - t + w for w in range(nodes))
    dreg = tuple(n - t + nodes + i for i in range(t + 2))
    decision = q - 1

    oracles = [build_oracle(d, w, u, oracle_wires[w]) for w in range(nodes)]
    op_u = build_U(t, oracle_wires, dreg)
    op_r = build_R(t, dreg, decision)

    s = init_zero(q)
    apply_hadamard(s, u)
    for g in oracles:
        apply_permutation(s, g)
    apply_permutation(s, op_u)
    apply_block_rotation(s, op_r)
    # Uncompute: the register must be cleared while the oracle wires still
    # hold their values, so the adder precedes the oracles here.
    apply_permutation(s, op_u)
    for g in oracles:
        apply_permutation(s, g)

    work = oracle_wires + dreg
    anc = probability_all_zero(s, work)
    log = [
        {
            "stage": "node_assignment",
            "nodes": {
                "input_register": {"node": 1, "wires": list(u)},
                "oracle_targets": {
                    format(w, f"0{t}b"): {"node": w + 1, "wire": oracle_wires[w]} for w in range(nodes)
                },
                "arithmetic_and_rotation": {"node": 1, "wires": list(dreg) + [decision]},
            },
        },
        {"stage": "work_registers_after_uncompute", "qubits": list(work), "p_all_zero": anc},
    ]
    p_constant = _two_stage_constant_prob(s, decision, u, log)
    breakdown = {
        "hadamard_layers": 2,
        "oracle_calls": 2 * nodes,
        "sum_difference_ops": 2,
        "rotation_ops": 1,
        "workspace_prep": 1,
    }
    return _finish("alg2", f, t, q, breakdown, p_constant, log, ancilla_zero_prob=anc)


class _Alg3Layout(NamedTuple):
    q: int
    u: tuple[int, ...]
    value_wires: tuple[int, ...]
    xor_wires: tuple[int, ...]
    and_wires: tuple[int, ...]
    k_reg: tuple[int, ...]
    e_reg: tuple[int, ...]
    c_reg: tuple[int, ...]
    decision: int


def _alg3_layout(n: int, t: int) -> _Alg3Layout:
    pairs = 1 << (t - 1)
    base = n - t
    q = circuit_qubits("alg3", n, t)
    return _Alg3Layout(
        q=q,
        u=tuple(range(base)),
        value_wires=tuple(base + 3 * p for p in range(pairs)),
        xor_wires=tuple(base + 3 * p + 1 for p in range(pairs)),
        and_wires=tuple(base + 3 * p + 2 for p in range(pairs)),
        k_reg=tuple(base + 3 * pairs + i for i in range(t)),
        e_reg=tuple(base + 3 * pairs + t + i for i in range(t)),
        c_reg=tuple(base + 3 * pairs + 2 * t + i for i in range(t + 1)),
        decision=q - 1,
    )


def _alg3_fixed_gates(n: int, t: int, adder_layout: str) -> tuple[list[PermutationGate], list[PermutationGate]]:
    """The function-independent gates of the pairing circuit, compute and uncompute order."""
    lay = _alg3_layout(n, t)
    pairs = 1 << (t - 1)
    build_adder = build_A if adder_layout == "interleaved" else build_Aprime
    ccnots = [build_ccnot(lay.value_wires[p], lay.xor_wires[p], lay.and_wires[p]) for p in range(pairs)]
    cnots = [build_cnot(lay.value_wires[p], lay.xor_wires[p]) for p in range(pairs)]
    adder_xor = build_adder(t, lay.xor_wires, lay.k_reg)
    adder_and = build_adder(t, lay.and_wires, lay.e_reg)
    op_v = build_V(t, lay.k_reg, lay.e_reg, lay.c_reg)
    compute: list[PermutationGate] = []
    for p in range(pairs):
        compute.extend((ccnots[p], cnots[p]))
    compute.extend((adder_xor, adder_and, op_v))
    # Uncompute mirrors the compute order: each operator must see the operand
    # registers it originally read still intact.
    uncompute: list[PermutationGate] = [op_v, adder_and, adder_xor]
    for p in range(pairs):
        uncompute.extend((cnots[p], ccnots[p]))
    return compute, uncompute


@lru_cache(maxsize=64)
def _alg3_fixed_sources(n: int, t: int, adder_layout: str):
    compute, uncompute = _alg3_fixed_gates(n, t, adder_layout)
    lay = _alg3_layout(n, t)
    return (
        compose_permutation_sources(compute, lay.q),
        compose_permutation_sources(uncompute, lay.q),
    )


def _oracle_layer(d: Decomposition, controls: tuple[int, ...], targets_by_w: tuple[int, ...]) -> PermutationGate:
    """All per-node oracles of one query round merged into a single XOR gate.

    The oracles write disjoint target wires under the same controls, so they
    commute and their product equals one XOR gate whose value table carries
    every subfunction bit at its wire position.
    """
    nodes = 1 << d.t
    rows = d.base.as_array().reshape(-1, nodes).astype(np.int64)
    width = len(targets_by_w)
    values = np.zeros(rows.shape[0], dtype=np.int64)
    for w in range(nodes):
        values |= rows[:, w] << (width - 1 - w)
    return xor_permutation_gate(controls, targets_by_w, values, name="oracle-layer")


def run_algorithm3(f: BooleanFunction, t: int, adder_layout: str = "interleaved") -> RunReport:
    """Multi-node driver pairing subfunctions by the low-order bit of w.

    Each pair occupies three wires (value, XOR, AND); two adders accumulate
    the XOR and AND sums, the pair-difference operator combines them, and the
    rotation reads the signed result.  ``adder_layout`` selects the interleaved
    adder or its compacted variant; both act identically on the statevector.

    The oracles of one query round and the fixed arithmetic block are applied
    as pre-composed permutations; composition is exact index arithmetic, so
    the state matches gate-by-gate application bit for bit.
    """
    if adder_layout not in ("interleaved", "compact"):
        raise ValueError(f"adder_layout must be 'interleaved' or 'compact', got {adder_layout!r}")
    d = Decomposition(f, t)
    n = f.n
    pairs = 1 << (t - 1)
    lay = _alg3_layout(n, t)
    q = lay.q
    u = lay.u
    value_wires, xor_wires, and_wires = lay.value_wires, lay.xor_wires, lay.and_wires
    k_reg, e_reg, c_reg = lay.k_reg, lay.e_reg, lay.c_reg
    decision = lay.decision

    # Allocating first lets init_zero's width check run before any 2^q index
    # table is built, also for callers that skip validate_run_config.
    s = init_zero(q)
    # Subfunction w targets its pair's value wire (even w) or XOR wire (odd w).
    targets_by_w = tuple(value_wires[w >> 1] if w % 2 == 0 else xor_wires[w >> 1] for w in range(2 * pairs))
    oracle_layer = _oracle_layer(d, u, targets_by_w)
    src_compute, src_uncompute = _alg3_fixed_sources(n, t, adder_layout)
    op_r = build_Rprime(t, c_reg, decision)

    apply_hadamard(s, u)
    apply_permutation(s, oracle_layer)
    apply_composed(s, src_compute)
    apply_block_rotation(s, op_r)
    apply_composed(s, src_uncompute)
    apply_permutation(s, oracle_layer)

    work = value_wires + xor_wires + and_wires + k_reg + e_reg + c_reg
    anc = probability_all_zero(s, work)
    node_info = {}
    for p in range(pairs):
        wp = format(2 * p, f"0{t}b")
        wq = format(2 * p + 1, f"0{t}b")
        node_info[wp] = {"node": 2 * p + 1, "wire": value_wires[p]}
        node_info[wq] = {"node": 2 * p + 2, "wire": xor_wires[p]}
    log = [
        {
            "stage": "node_assignment",
            "nodes": {
                "input_register": {"node": 1, "wires": list(u)},
                "oracle_targets": node_info,
                "arithmetic_and_rotation": {"node": 1, "wires": list(k_reg + e_reg + c_reg) + [decision]},
            },
        },
        {"stage": "work_registers_after_uncompute", "qubits": list(work), "p_all_zero": anc},
    ]
    p_constant = _two_stage_constant_prob(s, decision, u, log)
    breakdown = {
        "hadamard_layers": 2,
        "oracle_calls": 4 * pairs,
        "ccnot": 2 * pairs,
        "cnot": 2 * pairs,
        "adder_ops": 4,
        "pair_difference_ops": 2,
        "rotation_ops": 1,
        "workspace_prep": 1,
    }
    return _finish("alg3", f, t, q, breakdown, p_constant, log, ancilla_zero_prob=anc)


@lru_cache(maxsize=65536)
def dj_zero_probability(n_sub: int, table: bytes) -> float:
    """Simulated probability that the single-node run measures all zeros.

    Cached by truth table so ensemble sweeps simulate each distinct
    subfunction once.
    """
    return run_dj(make_function(n_sub, table)).p_constant


def run_erroneous_multinode(f: BooleanFunction, t: int) -> RunReport:
    """Baseline that runs the single-node algorithm independently per subfunction.

    Outputs "constant" only if every node measures all zeros; the nodes share
    no quantum state, so each node is its own (n-t+1)-qubit run and q_used
    reports that per-node width.
    """
    d = Decomposition(f, t)
    nodes = 1 << t
    p_constant = 1.0
    node_log = []
    for w in range(nodes):
        sub = make_function(d.u_bits, d.sub_table(w))
        rep = run_dj(sub)
        node_log.append(
            {
                "stage": "node_measurement",
                "w": format(w, f"0{t}b"),
                "p_all_zero": rep.p_constant,
                "distribution": rep.branch_log[-1]["distribution"],
            }
        )
        p_constant *= rep.p_constant
    log = [{"stage": "node_assignment", "nodes": {format(w, f"0{t}b"): {"node": w + 1} for w in range(nodes)}}]
    log.extend(node_log)
    breakdown = {"oracle_calls": nodes, "hadamard_layers": 2 * nodes, "state_prep_x": nodes}
    return _finish("err-multi", f, t, circuit_qubits("err-multi", f.n, t), breakdown, p_constant, log)


def run_erroneous_4node_xor(f: BooleanFunction) -> RunReport:
    """Four-node baseline chaining all four oracles onto one shared target qubit."""
    if f.n < 3:
        raise ValueError("the four-node baseline requires n >= 3")
    t = 2
    d = Decomposition(f, t)
    q = circuit_qubits("err-4node", f.n, t)
    u = tuple(range(q - 1))
    target = q - 1
    s = init_zero(q)
    apply_hadamard(s, u)
    apply_permutation(s, build_oracle(d, 0b00, u, target))
    apply_permutation(s, build_oracle(d, 0b01, u, target))
    apply_pauli_z(s, target)
    apply_permutation(s, build_oracle(d, 0b10, u, target))
    apply_permutation(s, build_oracle(d, 0b11, u, target))
    log = [
        {
            "stage": "node_assignment",
            "nodes": {format(w, "02b"): {"node": w + 1} for w in range(4)},
            "shared_target_wire": target,
        }
    ]
    p_constant = _two_stage_constant_prob(s, target, u, log)
    breakdown = {"hadamard_layers": 2, "oracle_calls": 4, "pauli_z": 1}
    return _finish("err-4node", f, t, q, breakdown, p_constant, log)


def validate_run_config(algorithm: str, n: int, t: Optional[int]) -> None:
    """Reject invalid (algorithm, n, t) combinations before any run starts.

    This includes circuits wider than the dense simulator holds, which are
    rejected before any gate or index table is built.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHM_NAMES}")
    if algorithm == "alg1":
        if t not in (None, 1):
            raise ValueError("alg1 is the two-node algorithm; t must be 1")
        if n < 2:
            raise ValueError("alg1 requires n >= 2")
    elif algorithm in ("alg2", "alg3", "err-multi"):
        if t is None:
            raise ValueError(f"{algorithm} requires a split size t")
        if not 1 <= t < n:
            raise ValueError(f"split size must satisfy 1 <= t < n, got t={t}, n={n}")
    elif algorithm == "err-4node":
        if t not in (None, 2):
            raise ValueError("err-4node fixes t = 2")
        if n < 3:
            raise ValueError("err-4node requires n >= 3")
    q = circuit_qubits(algorithm, n, t)
    if q > MAX_QUBITS:
        raise ValueError(f"{algorithm} at n={n}, t={t} needs {q} qubits; the simulator holds at most {MAX_QUBITS}")


def run_named(algorithm: str, f: BooleanFunction, t: Optional[int] = None, adder_layout: str = "interleaved") -> RunReport:
    """Dispatch by the CLI algorithm selector."""
    validate_run_config(algorithm, f.n, t)
    if algorithm == "dj":
        return run_dj(f)
    if algorithm == "alg1":
        return run_algorithm1(f)
    if algorithm == "alg2":
        return run_algorithm2(f, t)
    if algorithm == "alg3":
        return run_algorithm3(f, t, adder_layout=adder_layout)
    if algorithm == "err-multi":
        return run_erroneous_multinode(f, t)
    return run_erroneous_4node_xor(f)


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
    if alg == "dj":
        closed = (size - 2 * f.popcount) ** 2 / size**2
    elif alg == "alg1":
        stats = compute_stats(Decomposition(f, 1))
        closed = (stats.b00 - stats.b11) ** 2 / (1 << (2 * (n - 1)))
    elif alg == "alg2":
        stats = compute_stats(Decomposition(f, t))
        closed = stats.delta_sum**2 / (1 << (2 * (n - t) + 2 * t))
    elif alg == "alg3":
        stats = compute_stats(Decomposition(f, t))
        closed = stats.big_delta_sum**2 / (1 << (2 * (n - t) + 2 * (t - 1)))
    elif alg == "err-multi":
        d = Decomposition(f, t)
        closed = 1.0
        for w in range(1 << t):
            k_w = sum(d.sub_table(w))
            closed *= ((1 << (t + 1)) * k_w / size - 1.0) ** 2
    elif alg == "err-4node":
        d = Decomposition(f, 2)
        total = 0
        for u in range(1 << (n - 2)):
            vals = [d.value(w, u) for w in range(4)]
            if vals[0] ^ vals[1] ^ vals[2] ^ vals[3] == 0:
                total += -1 if vals[0] ^ vals[1] else 1
        closed = total**2 / (1 << (2 * (n - 2)))
    else:
        raise ValueError(f"no closed form registered for algorithm {alg!r}")
    if not math.isclose(closed, report.p_constant, rel_tol=0.0, abs_tol=tol):
        raise InvariantBreach(
            f"{alg} closed-form probability {closed!r} disagrees with simulated {report.p_constant!r} "
            f"for function {report.function_id}"
        )
    return closed
