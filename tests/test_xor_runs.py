"""Composed XOR layers: the executor applies each run of fixed gates as one ``FlipLayer``.

``_compile`` compiles each maximal run of fixed ops with ``xor_layers``:
greedy runs of gates whose union of wires is at most ``_XOR_RUN_WIRES``, one
("xor", layer) step each.  A layer's table must equal its gates applied one
by one, and ``_execute`` with the layers must give the same bits as with the
gates one by one.
"""

import dataclasses

import numpy as np
import pytest

from djsim import enumerate_promise_functions
from djsim.algorithms import ALGORITHM_NAMES, _compile, _execute, circuit, validate_run_config
from djsim.sim import _XOR_RUN_WIRES, FlipLayer, SupportState, apply_permutation

CIRCUITS = [("alg2", t) for t in (1, 2, 3, 4)] + [("alg3", t) for t in (1, 2, 3)]


def split(items, inside):
    """The runs of consecutive items for which ``inside`` holds, cut at every other item (empty runs included)."""
    runs = [[]]
    for item in items:
        if inside(item):
            runs[-1].append(item)
        else:
            runs.append([])
    return runs


def fixed_runs(c):
    """Each maximal run of fixed ops as (its gates, the layers of its compiled XOR steps), in circuit order."""
    gates = [[g for op in ops for g in op.build()] for ops in split(c.ops, lambda op: op.kind == "fixed")]
    layers = [[step[1] for step in steps] for steps in split(_compile(c), lambda step: step[0] == "xor")]
    assert len(gates) == len(layers)
    assert all(bool(g) == bool(ls) for g, ls in zip(gates, layers))
    return [(g, ls) for g, ls in zip(gates, layers) if g]


def chunks(gates, layers):
    """The gates each layer applies: a lone gate's layer has its controls, a composed one covers its gates' wires."""
    out, rest = [], list(gates)
    for layer in layers:
        assert isinstance(layer, FlipLayer) and rest
        if not layer.composed:
            assert layer.control_qubits == rest[0].control_qubits
            out.append([rest.pop(0)])
            continue
        wires = set(layer.control_qubits)
        chunk = []
        while rest and set(rest[0].targets) <= wires:
            chunk.append(rest.pop(0))
        out.append(chunk)
    assert not rest
    return out


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


@pytest.mark.parametrize("alg,t", CIRCUITS)
def test_each_run_table_equals_its_gates_one_by_one(alg, t):
    c = circuit(alg, t + 1, t)
    layers_per_run = []
    for gates, layers in fixed_runs(c):
        # The layers cut the run's gates in order, greedily: the next gate would overflow the cap.
        cut = chunks(gates, layers)
        for chunk, after in zip(cut, cut[1:]):
            assert len({w for g in chunk + after[:1] for w in g.targets}) > _XOR_RUN_WIRES
        for chunk, layer in zip(cut, layers):
            if not layer.composed:
                (gate,) = chunk
                assert np.array_equal(layer.flip, on_index_bits(gate.value_table, gate.result_qubits, c.q))
                continue
            wires = layer.control_qubits
            assert len(chunk) > 1 and len(wires) <= _XOR_RUN_WIRES
            assert wires == tuple(sorted({w for g in chunk for w in g.targets}))
            before = on_index_bits(np.arange(1 << len(wires), dtype=np.int64), wires, c.q)
            assert np.array_equal(layer.flip, on_index_bits(sequential(chunk, wires), wires, c.q) ^ before)
            # Applied to support entries, with other wires set, the layer moves every index as its gates do.
            rng = np.random.default_rng(len(wires))
            others = rng.integers(0, 1 << c.q, size=len(before)) & ~int(np.bitwise_or.reduce(before))
            index = np.stack([before | others, np.roll(before, 7) | others])
            by_layer = apply_permutation(SupportState(c.q, index.copy(), np.ones(index.shape)), layer)
            by_gates = SupportState(c.q, index.copy(), np.ones(index.shape))
            for gate in chunk:
                apply_permutation(by_gates, gate)
            assert np.array_equal(by_layer.index, by_gates.index)
        layers_per_run.append(len(layers))
    if alg == "alg2":
        # U alone: a run of one gate is that gate's layer.
        assert layers_per_run == [1, 1] and not any(layer.composed for _, ls in fixed_runs(c) for layer in ls)
    elif t == 3:
        # 22 wires of fixed gates: the cap splits each run.
        assert layers_per_run == [2, 2]
    else:
        assert layers_per_run == [1, 1]


def gate_by_gate(c):
    """The circuit with each fixed op applied as its ``op.build()`` gates, one apply_permutation each."""
    steps, compiled = [], iter([step for step in _compile(c) if step[0] != "xor"])
    for op in c.ops:
        if op.kind == "fixed":
            steps.extend(("xor", gate) for gate in op.build())
        else:
            steps.append(next(compiled))
    reference = dataclasses.replace(c)
    reference.steps = steps
    return reference


def family_rows(n, t):
    tables = np.stack([np.frombuffer(f.table, dtype=np.uint8) for f in enumerate_promise_functions(n)])
    return tables.reshape(len(tables), -1, 1 << t).astype(np.int64)


@pytest.mark.parametrize("alg,t", [("alg2", 2), ("alg3", 1), ("alg3", 2), ("alg3", 3)])
def test_execute_with_runs_equals_gates_one_by_one(alg, t):
    c = circuit(alg, 4, t)
    reference = gate_by_gate(c)
    if alg == "alg3":  # its layers compose gates
        assert sum(step[0] == "xor" for step in reference.steps) > sum(step[0] == "xor" for step in _compile(c))
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
                try:
                    c = validate_run_config(alg, n, t)
                except ValueError:
                    # Rejected before anything was built.
                    assert circuit(alg, n, t).steps is None
                    continue
                for step in _compile(c):
                    if step[0] != "xor":
                        continue
                    layer = step[1]
                    assert layer.flip.size <= 1 << c.table_bits
                    if layer.composed:
                        assert layer.flip.size == 1 << len(layer.control_qubits)
                        checked += 1
    assert checked > 50


def test_no_dense_circuit_composes_a_run():
    # A dense state refuses a composed layer (TypeError), so ``run`` and
    # ``verify`` depend on every description that runs dense compiling none.
    dense = set()
    for n in range(1, 9):
        for alg in ALGORITHM_NAMES:
            for t in (None, *range(1, n)):
                try:
                    c = circuit(alg, n, t)
                except ValueError:
                    continue
                if c.support:
                    continue
                layers = [step[1] for step in _compile(c) if step[0] == "xor"]
                assert all(isinstance(layer, FlipLayer) for layer in layers)
                assert not any(layer.composed for layer in layers), (alg, n, t)
                dense.add(c)
    assert len(dense) == 8 + 7 + 6 + 28  # dj, alg1, err-4node, err-multi at n <= 8
