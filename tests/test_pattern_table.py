"""The row-pattern table that ``verify`` checks the promise family from.

Before its readout every circuit holds (1/√U) Σ_u |u>|ψ(r_u)>, where r_u is
row u of the function's table; ``algorithms.pattern_table`` runs each circuit
once per row pattern to read ψ, and ``analysis._table_probabilities`` sums it
over a packed table's rows.  These tests pin those probabilities to the
batched circuit run of every function, hold the table, read from each circuit
narrowed to one input wire, against the same read at the circuit's own n,
check the static test that guards the table, and show that a sweep whose table
and runs disagree stops with an invariant breach.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from djsim import algorithms, analysis, cli, count_promise_functions, sim
from djsim.algorithms import Circuit, InvariantBreach, Op, _run, circuit, pattern_table
from djsim.analysis import verify_sweep
from djsim.boolfn import packed_promise_range, unpack_tables
from djsim.gates import build_x

TOL = 1e-12
LEGAL = [("dj", None), ("alg1", None), ("err-4node", None)] + [
    (alg, t) for alg in ("alg2", "alg3", "err-multi") for t in (1, 2, 3, 4)
]


def configs(ns, algorithms=None):
    for alg, t in LEGAL:
        for n in ns:
            if algorithms is not None and alg not in algorithms:
                continue
            try:
                circuit(alg, n, t)
            except ValueError:
                continue
            yield alg, n, t


def run_probabilities(c, packed, n):
    bits = unpack_tables(packed, n)
    p, _, _ = _run(c, bits.reshape(len(bits), -1, 1 << (c.t or 0)))
    return p


def assert_table_matches_runs(c, packed, n):
    p_table = analysis._table_probabilities(c, packed)
    p_run = run_probabilities(c, packed, n)
    assert np.abs(p_table - p_run).max() <= TOL
    flagged = analysis._misjudged(p_table, packed, n)[2]
    assert np.array_equal(flagged, analysis._misjudged(p_run, packed, n)[2])
    return p_run, flagged


@pytest.mark.parametrize("alg,n,t", list(configs(range(1, 5))), ids=str)
def test_table_matches_the_circuit_run_on_every_function(alg, n, t):
    packed = packed_promise_range(n, 0, count_promise_functions(n))
    p_run, flagged = assert_table_matches_runs(circuit(alg, n, t), packed, n)
    assert len(packed) == count_promise_functions(n)
    if alg.startswith("err") and n == 4:
        assert flagged.any()  # the inexact baselines have failures to agree on
        if t != 3:  # err-multi at t=3 has two-row subfunctions: every node reads 0 or 1
            assert ((p_run > TOL) & (p_run < 1 - TOL)).any()


@pytest.mark.parametrize("alg,n,t", list(configs([5], ("dj", "alg1", "alg2", "alg3"))), ids=str)
def test_table_matches_the_circuit_run_on_a_seeded_n5_slice(alg, n, t):
    rng = np.random.default_rng(2024)
    balanced = rng.random((2000, 1 << n)).argsort(axis=1) < (1 << (n - 1))
    packed = balanced.astype(np.int64) @ (1 << np.arange((1 << n) - 1, -1, -1, dtype=np.int64))
    packed = np.concatenate([[0, (1 << (1 << n)) - 1], packed])
    _, flagged = assert_table_matches_runs(circuit(alg, n, t), packed, n)
    assert not flagged.any()


def test_the_table_is_summed_once_and_kept_read_only():
    c = circuit("alg3", 3, 2)
    assert pattern_table(c).shape == (1, 16, 1)
    bits, sums = analysis._field_sums(c)
    assert analysis._field_sums(c)[1] is sums
    assert bits == 8 and sums.shape == (256, 1, 1) and not sums.flags.writeable
    # err-multi has one node per subfunction; dj's ancilla holds two components.
    assert pattern_table(circuit("err-multi", 3, 2)).shape == (4, 16, 2)


def forbid_states(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a state was allocated")

    monkeypatch.setattr(algorithms, "init_zero", refuse)
    monkeypatch.setattr(sim, "init_zero", refuse)


def with_op(op, at):
    """dj at n=3 with ``op`` inserted at position ``at``."""
    dj = circuit("dj", 3)
    ops = list(dj.ops)
    ops.insert(at, op)
    return Circuit(dj.t, dj.q, tuple(ops), dj.inputs)


@pytest.mark.parametrize(
    "op,at,named",
    [
        (Op("fixed", "state_prep_x", 1, (range(1, 2),), build=lambda: [build_x(1)]), 3, "op 3 (fixed state_prep_x)"),
        (algorithms._oracle_round(range(3), range(1), lambda w: 0), 3, "op 3 (oracle oracle_calls)"),
        (Op("z", "pauli_z", 1, (range(2, 3),), name="Z"), 2, "op 2 (z Z)"),
        (algorithms._hadamard(range(1, 2)), 3, "op 3 (hadamard hadamard_layers)"),
    ],
    ids=["fixed-on-input", "oracle-targets-input", "z-before-opening", "extra-hadamard"],
)
def test_static_check_rejects_ops_on_the_inputs_before_any_state(op, at, named, monkeypatch):
    c = with_op(op, at)
    forbid_states(monkeypatch)
    with pytest.raises(ValueError, match="^" + re.escape(named)):
        pattern_table(c)
    assert "steps" not in vars(c)


def test_static_check_needs_the_readout_hadamard(monkeypatch):
    dj = circuit("dj", 3)
    forbid_states(monkeypatch)
    with pytest.raises(ValueError, match="readout"):
        pattern_table(Circuit(dj.t, dj.q, dj.ops[:-1], dj.inputs))


def test_every_algorithm_passes_the_static_check():
    for alg, n, t in configs(range(1, 9)):
        algorithms._check_row_patterns(circuit(alg, n, t))


def test_arity_past_enumeration_fails_before_the_table(monkeypatch):
    forbid_states(monkeypatch)
    with pytest.raises(ValueError, match="full enumeration is limited"):
        verify_sweep(6, None, "dj")


def test_every_sweep_runs_one_batch_against_the_table(monkeypatch):
    # dj's table read after its readout Hadamard scales every p by U: at n=4
    # the constants read 16 and the balanced functions 0, so the table flags
    # nothing, and only the first chunk's batch can tell.
    real = analysis._table_probabilities
    monkeypatch.setattr(analysis, "_table_probabilities", lambda c, packed: real(c, packed) * 16)
    with pytest.raises(InvariantBreach, match="dj pattern table disagrees"):
        verify_sweep(4, None, "dj")
    ran = []
    monkeypatch.setattr(analysis, "_table_probabilities", real)
    monkeypatch.setattr(analysis, "_run", lambda c, bits: ran.append(len(bits)) or _run(c, bits))
    assert verify_sweep(4, None, "dj").failures == []
    assert ran == [analysis._chunk_rows(circuit("dj", 4))]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_table_that_disagrees_with_the_runs_stops_the_sweep(monkeypatch, capsys, jobs):
    # Halved table probabilities flag functions whose runs then disagree:
    # no verdict of that table can stand, serially or from a worker.
    real = analysis._table_probabilities
    monkeypatch.setattr(analysis, "_table_probabilities", lambda c, packed: real(c, packed) * 0.5)
    monkeypatch.setattr(analysis, "_SWEEP_CHUNK", 30)  # 72 functions: three chunks
    with pytest.raises(InvariantBreach, match="err-multi pattern table disagrees"):
        verify_sweep(3, 1, "err-multi", jobs=jobs)
    assert cli.main(["verify", "--n", "3", "--t", "1", "--alg", "err-multi", "--jobs", str(jobs)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invariant breach: the err-multi pattern table disagrees")


def reference_table(c):
    """ψ read from c at its own n: one batch row per pattern whose every row is p, ψ(p) where the inputs are 0, times √U."""
    width, rows = 1 << (c.t or 0), 1 << len(c.inputs)
    patterns = (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    read = tuple(c.inputs) + (() if c.decision is None else (c.decision,))
    mask = sum(1 << (c.q - 1 - w) for w in read)
    pieces = []
    for node in range(c.runs):
        columns = patterns if c.runs == 1 else patterns[:, node : node + 1]
        for lo in range(0, len(patterns), 1 << 12):
            block = columns[lo : lo + (1 << 12)]
            s = algorithms._evolve(c, np.broadcast_to(block[:, None], (len(block), rows, block.shape[1])))
            index = np.broadcast_to(s.index if c.support else sim._indices(c.q), s.amps.shape)
            at_zero = (index & mask) == 0
            row = np.broadcast_to(np.arange(lo, lo + len(block))[:, None], at_zero.shape)
            pieces.append((node, row[at_zero], index[at_zero], s.amps[at_zero]))
    keys = np.unique(np.concatenate([piece[2] for piece in pieces]))
    table = np.zeros((c.runs, len(patterns), len(keys)))
    for node, row, key, amps in pieces:
        table[node, row, np.searchsorted(keys, key)] = amps * math.sqrt(rows)
    return table


@pytest.mark.parametrize("alg,t", LEGAL, ids=str)
def test_the_narrowed_table_matches_the_table_at_the_circuits_own_n(alg, t):
    checked = 0
    for n in range(1, 9 if t != 4 else 7):
        try:
            c = circuit(alg, n, t)
        except ValueError:
            continue
        table, reference = pattern_table(c), reference_table(c)
        assert table.shape == reference.shape
        assert np.abs(table - reference).max() <= 1e-15, n
        checked += 1
    assert checked


def test_the_table_is_read_from_the_circuits_own_gates():
    # R' one scale exponent off: no circuit() call makes this description.
    c = circuit("alg3", 6, 2)

    def perturbed(op):
        if op.kind != "rotation":
            return op
        return replace(op, build=lambda: [replace(g, scale_exponent=g.scale_exponent + 1) for g in op.build()])

    off = Circuit(c.t, c.q, tuple(map(perturbed, c.ops)), c.inputs, c.decision, c.work, c.runs)
    table, reference = pattern_table(off), reference_table(off)
    assert table.shape == reference.shape and np.abs(table - reference).max() <= 1e-15
    assert np.abs(table - pattern_table(c)).max() > 0.1


def test_the_tables_states_do_not_grow_with_n(monkeypatch):
    real, entries = algorithms._evolve, []

    def recording(*args, **kwargs):
        s = real(*args, **kwargs)
        entries.append(s.amps.shape[-1])
        return s

    monkeypatch.setattr(algorithms, "_evolve", recording)
    pattern_table(circuit("alg3", 3, 2))
    at_three, entries[:] = max(entries), []
    pattern_table(circuit("alg3", 20, 2))
    assert max(entries) == at_three


def integer_scale(table, top):
    """The smallest k <= top at which 2^(k/2) times every entry of the table is an integer within TOL, or None."""
    for k in range(top + 1):
        z = table * 2 ** (k / 2)
        if np.abs(z - np.round(z)).max() <= TOL:
            return k
    return None


@pytest.mark.parametrize("alg,t", LEGAL, ids=str)
def test_one_scale_makes_the_table_an_integer_table(alg, t):
    # The premise of ROADMAP item 1: s·ψ is integer for one s² = 2^k, with
    # s² and the entries' range as measured when the item was written.
    c = circuit(alg, 5, t)
    table, top = pattern_table(c), 2 * ((c.t or 0) + 1)
    k = integer_scale(table, top)
    z = np.round(table * 2 ** (k / 2)).astype(np.int64)
    if alg in ("alg2", "alg3"):
        assert k == 2 * (t - 1) and np.abs(z).max() == 1 << (t - 1)
    else:
        want = {"dj": (1, {-1, 1}), "alg1": (0, {-1, 0, 1}), "err-4node": (0, {-1, 0, 1}), "err-multi": (1, {-1, 1})}[alg]
        assert (k, set(z.ravel().tolist())) == want


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_a_rotation_angle_off_by_a_millionth_has_no_integer_scale(t):
    class Off(sim.RotationGate):
        """R' with every angle 1e-6 larger; ``dataclasses.replace`` keeps the class, so narrowing keeps the error."""

        def __post_init__(self):
            super().__post_init__()
            angle = np.arccos(self.cos_table) + 1e-6
            self.cos_table, self.sin_table = np.cos(angle), np.sin(angle)

    c = circuit("alg3", 5, t)

    def perturbed(op):
        if op.kind != "rotation":
            return op
        return replace(op, build=lambda: [Off(g.control_qubits, g.target_qubit, g.scale_exponent) for g in op.build()])

    off = Circuit(c.t, c.q, tuple(map(perturbed, c.ops)), c.inputs, c.decision, c.work, c.runs)
    assert integer_scale(pattern_table(c), 2 * (t + 1)) == 2 * (t - 1)
    assert integer_scale(pattern_table(off), 2 * (t + 1)) is None
