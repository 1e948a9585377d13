"""Composed XOR runs: the support engine applies each run of fixed gates as one table.

``_compile`` cuts each fixed step's gates into ``xor_runs``: maximal runs whose
union of wires is at most ``_XOR_RUN_WIRES``.  A run's table must equal its
gates applied one by one, and ``_execute`` with the runs must give the same
bits as with the gates one by one.
"""

import dataclasses

import numpy as np
import pytest

from djsim import enumerate_promise_functions
from djsim.algorithms import ALGORITHM_NAMES, _compile, _execute, circuit, validate_run_config
from djsim.sim import _XOR_RUN_WIRES, SupportState, XorRun, apply_permutation

CIRCUITS = [("alg2", t, "interleaved") for t in (1, 2, 3, 4)] + [
    ("alg3", t, layout) for t in (1, 2, 3) for layout in ("interleaved", "compact")
]


def fixed_steps(c):
    return [step for step in _compile(c) if step[0] == "fixed"]


def sequential(gates, wires):
    """Every pattern of ``wires`` (first wire = MSB) after the gates one by one, read from each gate's action table."""
    k = len(wires)
    pats = np.arange(1 << k, dtype=np.int64)
    bit = {w: k - 1 - j for j, w in enumerate(wires)}
    for gate in gates:
        pos = [bit[w] for w in gate.targets]
        local = np.zeros_like(pats)
        for b in pos:
            local = (local << 1) | ((pats >> b) & 1)
        moved = gate.action_table()[local]
        for j, b in enumerate(reversed(pos)):
            pats = (pats & ~(1 << b)) | (((moved >> j) & 1) << b)
    return pats


def on_index_bits(pats, wires, q):
    """The patterns' bits placed at their wires' index bits (wire 0 = MSB of a q-bit index)."""
    k = len(wires)
    out = np.zeros_like(pats)
    for j, w in enumerate(wires):
        out |= ((pats >> (k - 1 - j)) & 1) << (q - 1 - w)
    return out


@pytest.mark.parametrize("alg,t,layout", CIRCUITS)
def test_each_run_table_equals_its_gates_one_by_one(alg, t, layout):
    c = circuit(alg, t + 1, t, layout)
    runs_per_step = []
    for _, _, gates, runs in fixed_steps(c):
        # The runs cut the step's gates in order, greedily: the next gate would overflow the cap.
        flat = [g for run in runs for g in (run.gates if isinstance(run, XorRun) else (run,))]
        assert flat == gates
        for run, after in zip(runs, runs[1:]):
            first = after.gates[0] if isinstance(after, XorRun) else after
            assert len(set(run.targets) | set(first.targets)) > _XOR_RUN_WIRES
        for run in runs:
            if not isinstance(run, XorRun):
                continue
            wires = run.targets
            assert len(run.gates) > 1 and len(wires) <= _XOR_RUN_WIRES
            assert wires == tuple(sorted({w for g in run.gates for w in g.targets}))
            fields, flip = run.xor_plan(c.q)
            before = on_index_bits(np.arange(1 << len(wires), dtype=np.int64), wires, c.q)
            assert np.array_equal(flip, on_index_bits(sequential(run.gates, wires), wires, c.q) ^ before)
            # Applied to support entries, with other wires set, the run moves every index as its gates do.
            rng = np.random.default_rng(len(wires))
            others = rng.integers(0, 1 << c.q, size=len(before)) & ~int(np.bitwise_or.reduce(before))
            index = np.stack([before | others, np.roll(before, 7) | others])
            by_run = apply_permutation(SupportState(c.q, index.copy(), np.ones(index.shape)), run)
            by_gates = SupportState(c.q, index.copy(), np.ones(index.shape))
            for gate in run.gates:
                apply_permutation(by_gates, gate)
            assert np.array_equal(by_run.index, by_gates.index)
        runs_per_step.append(len(runs))
    if alg == "alg2":
        # U alone: a run of one gate is that gate.
        assert runs_per_step == [1, 1]
    elif t == 3:
        # 22 wires of fixed gates: the cap splits each step.
        assert runs_per_step == [2, 2]
    else:
        assert runs_per_step == [1, 1]


def gate_by_gate(c):
    """The circuit with each fixed step applied as its ``op.build()`` gates, one apply_permutation each."""
    steps = [(*step[:3], list(step[2])) if step[0] == "fixed" else step for step in _compile(c)]
    return dataclasses.replace(c, steps=steps)


def family_rows(n, t):
    tables = np.stack([np.frombuffer(f.table, dtype=np.uint8) for f in enumerate_promise_functions(n)])
    return tables.reshape(len(tables), -1, 1 << t).astype(np.int64)


@pytest.mark.parametrize(
    "alg,t,layout",
    [("alg2", 2, "interleaved"), ("alg3", 1, "interleaved"), ("alg3", 2, "interleaved"), ("alg3", 2, "compact"), ("alg3", 3, "interleaved")],
)
def test_execute_with_runs_equals_gates_one_by_one(alg, t, layout):
    c = circuit(alg, 4, t, layout)
    reference = gate_by_gate(c)
    rows = family_rows(4, t)
    p, _, anc = _execute(c, rows)
    p_ref, _, anc_ref = _execute(reference, rows)
    assert (p == p_ref).all() and (anc == anc_ref).all()
    # The branch log is row 0's: give a spread of functions their own batch of one.
    for r in range(0, len(rows), 16):
        (p,), log, (anc,) = _execute(c, rows[r : r + 1])
        (p_ref,), log_ref, (anc_ref,) = _execute(reference, rows[r : r + 1])
        assert p == p_ref and anc == anc_ref and log == log_ref


def test_table_bits_cover_every_composed_table():
    checked = 0
    for n in range(2, 13):
        for alg in ("alg2", "alg3"):
            for t in range(1, n):
                for layout in ("interleaved", "compact") if alg == "alg3" else ("interleaved",):
                    try:
                        c = validate_run_config(alg, n, t, layout)
                    except ValueError:
                        # Rejected before anything was built.
                        assert circuit(alg, n, t, layout).steps is None
                        continue
                    for _, _, gates, runs in fixed_steps(c):
                        for run in runs:
                            fields, flip = run.xor_plan(c.q)
                            assert flip.size <= 1 << c.table_bits
                            if isinstance(run, XorRun):
                                assert flip.size == 1 << len(run.targets)
                                checked += 1
    assert checked > 50


def test_no_dense_circuit_composes_a_run():
    # A dense state refuses a composed run (TypeError), so ``run`` and
    # ``verify`` depend on every description that runs dense compiling none.
    dense = set()
    for n in range(1, 9):
        for alg in ALGORITHM_NAMES:
            for t in (None, *range(1, n)):
                for layout in ("interleaved", "compact") if alg == "alg3" else ("interleaved",):
                    try:
                        c = circuit(alg, n, t, layout)
                    except ValueError:
                        continue
                    if c.support:
                        continue
                    runs = [run for step in fixed_steps(c) for run in step[3]]
                    assert not any(isinstance(run, XorRun) for run in runs), (alg, n, t)
                    dense.add(c)
    assert len(dense) == 8 + 7 + 6 + 28  # dj, alg1, err-4node, err-multi at n <= 8
