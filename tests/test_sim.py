import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from djsim import sim
from djsim.sim import (
    apply_block_rotation,
    apply_hadamard,
    apply_pauli_z,
    apply_permutation,
    block_rotation_gate,
    decode_signed,
    encode_signed,
    init_zero,
    measure,
    probability_all_zero,
    StateVector,
    SupportState,
    XorRun,
    flip_layer,
    xor_permutation_gate,
)
from tests.dense_reference import rotated


def random_state(q, rng):
    amps = rng.normal(size=1 << q)
    s = init_zero(q)
    s.amps = amps / np.linalg.norm(amps)
    return s


def basis_state(q, index):
    s = init_zero(q)
    s.amps[0] = 0.0
    s.amps[index] = 1.0
    return s


def full_support(amps):
    """A support state holding every one of the 2^q amplitudes, zeros included."""
    q = int(len(amps)).bit_length() - 1
    return SupportState(q, np.arange(len(amps), dtype=np.int64), np.array(amps, dtype=np.float64))


def basis_support(q, index):
    """The basis state as a one-entry support state."""
    return SupportState(q, np.array([index], dtype=np.int64), np.ones(1))


def off_mask(q, wires):
    """The index bits of the wires not listed."""
    return ((1 << q) - 1) & ~sum(1 << (q - 1 - w) for w in wires)


def random_circuit(rng):
    """A random circuit of the paper's shape: (q, inputs, work wires, decision wire, compute gates, rotation).

    The compute gates XOR functions of the inputs and work wires into work
    wires; the rotation reads some of them into the decision wire, which no
    gate touches.  Run as a Hadamard on the inputs, the compute, the rotation
    and the compute undone, it leaves at every step a support state that the
    support kernels take.
    """
    q = int(rng.integers(3, 8))
    wires = [int(w) for w in rng.permutation(q)]
    k = int(rng.integers(1, q - 1))
    decision, inputs, work = wires[0], tuple(sorted(wires[1 : 1 + k])), tuple(wires[1 + k :])
    gates = []
    for _ in range(3):
        results = tuple(int(w) for w in rng.choice(work, size=int(rng.integers(1, min(2, len(work)) + 1)), replace=False))
        free = [w for w in inputs + work if w not in results]
        controls = tuple(int(w) for w in rng.choice(free, size=int(rng.integers(0, min(3, len(free)) + 1)), replace=False))
        gates.append(xor_permutation_gate(controls, results, rng.integers(0, 1 << len(results), size=1 << len(controls))))
    controls = tuple(int(w) for w in rng.choice(inputs + work, size=int(rng.integers(1, min(3, q - 1) + 1)), replace=False))
    rotation = block_rotation_gate(controls, decision, scale_exponent=int(rng.integers(0, 3)))
    return q, inputs, work, decision, gates, rotation


def full_amps(s):
    """All 2^q amplitudes of a support state."""
    out = np.zeros(1 << s.q)
    np.add.at(out, s.index, s.amps)
    return out


def per_wire_hadamard(amps, q, wires):
    """The 2x2 Hadamard butterfly of each wire in turn, on every row of ``amps`` (2^q amplitudes a row)."""
    out = amps.copy()
    for w in wires:
        view = out.reshape(-1, 2, 1 << (q - 1 - w))
        x0, x1 = view[:, 0].copy(), view[:, 1].copy()
        view[:, 0] = (x0 + x1) / np.sqrt(2.0)
        view[:, 1] = (x0 - x1) / np.sqrt(2.0)
    return out


class TestInitZero:
    def test_single_qubit(self):
        s = init_zero(1)
        assert np.array_equal(s.amps, [1, 0])

    def test_three_qubits(self):
        s = init_zero(3)
        assert s.amps[0] == 1.0
        assert abs(s.norm() - 1.0) < 1e-15

    @pytest.mark.parametrize("q", [0, 27])
    def test_out_of_range(self, q):
        with pytest.raises(ValueError):
            init_zero(q)


class TestHadamard:
    def test_plus_state(self):
        s = apply_hadamard(init_zero(1), (0,))
        assert np.allclose(s.amps, [2**-0.5, 2**-0.5])

    def test_involution(self):
        rng = np.random.default_rng(0)
        s = random_state(3, rng)
        before = s.amps.copy()
        apply_hadamard(s, (0, 2))
        apply_hadamard(s, (0, 2))
        assert np.allclose(s.amps, before, atol=1e-12)

    def test_uniform_superposition(self):
        s = apply_hadamard(init_zero(2), (0, 1))
        assert np.allclose(s.amps, [0.5] * 4)

    @staticmethod
    def both_forms(amps, wires):
        """(state, the amplitudes it holds): a dense state of all of them, and a support state of
        those that agree with the first nonzero one off the Hadamard's wires, the states it takes."""
        q = int(amps.size).bit_length() - 1
        dense = init_zero(q)
        dense.amps = amps.copy()
        index = np.flatnonzero(amps)
        off = off_mask(q, wires)
        index = index[(index & off) == (index[0] & off)]
        held = np.zeros_like(amps)
        held[index] = amps[index]
        return (dense, amps), (SupportState(q, index, amps[index]), held)

    @staticmethod
    def dense_amps(s):
        if isinstance(s, SupportState):
            full = np.zeros(1 << s.q)
            full[s.index] = s.amps
            return full
        return s.amps

    @pytest.mark.parametrize(
        "q, wires",
        [
            (6, (0, 1, 2)),  # leading
            (6, (2, 3, 4)),  # interior
            (6, (0, 2, 5)),  # scattered
            (6, (4, 1, 2, 0)),  # unsorted
            (6, tuple(range(6))),  # all wires
            (3, (2,)),  # last wire alone
        ],
    )
    def test_matches_kronecker_operator(self, q, wires):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        op = np.array([[1.0]])
        for w in range(q):
            op = np.kron(op, h if w in wires else np.eye(2))
        rng = np.random.default_rng(q + len(wires))
        amps = rng.normal(size=1 << q) * (rng.random(1 << q) < 0.5)
        for s, held in self.both_forms(amps, wires):
            assert np.allclose(self.dense_amps(apply_hadamard(s, wires)), op @ held, rtol=0.0, atol=1e-12)

    def test_block_path_matches_per_qubit_path(self):
        # Runs of 7 and 13 wires take two and three slices of the Walsh matrix;
        # the reference is the per-wire butterfly.
        rng = np.random.default_rng(1)
        for q, wires in ((9, tuple(range(1, 8))), (14, tuple(range(13))), (10, (9, 5, 1, 2, 3, 4, 6, 7, 0))):
            amps = rng.normal(size=1 << q) * (rng.random(1 << q) < 0.1)
            for s, held in self.both_forms(amps, wires):
                ref = per_wire_hadamard(held, q, wires)
                assert np.allclose(self.dense_amps(apply_hadamard(s, wires)), ref, rtol=0.0, atol=1e-12)

    @staticmethod
    def hadamard_rows(rows, q, wires, form):
        """H on the wires of each row, as a dense batch or as a support batch of each row's nonzero entries."""
        if form == "dense":
            s = init_zero(q, batch=len(rows))
            s.amps = rows.copy()
            return apply_hadamard(s, wires).amps
        index = np.nonzero(rows)[1].reshape(len(rows), -1)
        s = apply_hadamard(SupportState(q, index, np.take_along_axis(rows, index, axis=1)), wires)
        out = np.zeros_like(rows)
        np.put_along_axis(out, s.index, s.amps, axis=1)
        return out

    @pytest.mark.parametrize("form", ["dense", "support"])
    @pytest.mark.parametrize(
        "q, wires, counts",
        [
            (4, (0, 1, 2), (1, 2, 3, 511, 4096)),  # alg1's inputs: folded with the wire after them
            (5, (0, 1, 2, 3), (1, 2, 3, 511, 4096)),  # dj at n=4
            (6, tuple(range(6)), (1, 2, 3, 511, 4096)),  # one 64 x 64 matrix
            (2, (0, 1), (1, 2, 3, 511, 4096)),  # two wires
            (12, tuple(range(6)), (1, 2, 3, 511)),  # top wires: one Walsh matrix per block of a row
            (12, tuple(range(12)), (1, 2, 3, 511)),  # an unfolded slice, then a folded one
        ],
        ids=["alg1-q4", "dj-q5", "all-q6", "pair-q2", "top-q12", "all-q12"],
    )
    def test_rows_do_not_depend_on_their_batch(self, q, wires, counts, form):
        # A row's bits are the same whether it is alone, one of a few, or one
        # of thousands, wherever it starts in the batch; the values agree with
        # one 2x2 Hadamard per wire.
        rng = np.random.default_rng(q + len(wires))
        starts = (0, 3)
        rows = rng.normal(size=(max(counts) + max(starts), 1 << q))
        if form == "support":
            # A support row's entries agree off the wires, at a pattern of each row's own.
            off = off_mask(q, wires)
            rest = rng.integers(0, 1 << q, size=len(rows)) & off
            rows *= (np.arange(1 << q) & off) == rest[:, None]
        whole = self.hadamard_rows(rows, q, wires, form)
        assert np.allclose(whole, per_wire_hadamard(rows, q, wires), rtol=0.0, atol=1e-12)
        for count in counts:
            for start in starts:
                got = self.hadamard_rows(rows[start : start + count], q, wires, form)
                assert np.array_equal(got, whole[start : start + count]), (count, start)

    def test_dense_layer_builds_no_state_sized_matrix(self):
        # The transform works in slices of at most 64 x 64, so one Hadamard on
        # all 12 wires stays far below the 128 MiB of a 2^12 x 2^12 Walsh
        # matrix.  A fresh process, so that no matrix an earlier test cached
        # hides the build.
        code = (
            "import tracemalloc; from djsim.sim import apply_hadamard, init_zero; "
            "s = init_zero(12); tracemalloc.start(); apply_hadamard(s, range(12)); "
            "print(tracemalloc.get_traced_memory()[1])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60)
        assert int(out.stdout) < 1 << 20

    def test_bad_index(self):
        with pytest.raises(ValueError):
            apply_hadamard(init_zero(2), (2,))


class TestPermutation:
    def test_cnot_action(self):
        s = basis_state(2, 0b10)
        gate = xor_permutation_gate((0,), (1,), [0, 1], name="CNOT")
        apply_permutation(s, gate)
        assert s.amps[0b11] == 1.0

    def test_xor_constant_involution(self):
        gate = xor_permutation_gate((), (0, 1), [3])
        rng = np.random.default_rng(2)
        s = random_state(3, rng)
        before = s.amps.copy()
        apply_permutation(s, gate)
        assert not np.allclose(s.amps, before)
        apply_permutation(s, gate)
        assert np.array_equal(s.amps, before)

    def test_action_escaping_pattern_space_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            xor_permutation_gate((0,), (1,), [0, 2])
        with pytest.raises(ValueError, match="one entry per control pattern"):
            xor_permutation_gate((0,), (1,), [0, 1, 1])

    def test_overlapping_registers_rejected(self):
        with pytest.raises(ValueError):
            xor_permutation_gate((0, 1), (1,), [0, 0, 0, 1])

    def test_xor_gate_application_matches_table(self):
        # scattered controls (3, 0) and results (4, 1), idle wire 2; the action
        # table runs over the target wires in (controls, results) order
        gate = xor_permutation_gate((3, 0), (4, 1), [1, 3, 0, 2])
        table = gate.action_table()
        for index in range(1 << 5):
            bits = [(index >> (4 - w)) & 1 for w in range(5)]  # bits[w] is wire w
            pattern = int("".join(str(bits[w]) for w in gate.targets), 2)
            for w, b in zip(gate.targets, format(int(table[pattern]), "04b")):
                bits[w] = int(b)
            s = basis_state(5, index)
            apply_permutation(s, gate)
            assert s.amps[int("".join(map(str, bits)), 2)] == 1.0

    def test_non_contiguous_wires(self):
        gate = xor_permutation_gate((0, 2), (1,), [0, 0, 0, 1])  # Toffoli on scattered wires
        s = basis_state(3, 0b101)
        apply_permutation(s, gate)
        assert s.amps[0b111] == 1.0


class TestFlipLayer:
    """A layer given by its per-row flip table, and rows that start as views of one start row."""

    @staticmethod
    def forms(rows):
        """The rows as a dense batch and as a support batch holding every entry."""
        q = rows.shape[1].bit_length() - 1
        index = np.broadcast_to(np.arange(1 << q), rows.shape).copy()
        return StateVector(q, rows.copy()), SupportState(q, index, rows.copy())

    @staticmethod
    def dense(s):
        if isinstance(s, StateVector):
            return s.amps
        out = np.zeros((len(s.amps), 1 << s.q))
        np.put_along_axis(out, s.index, s.amps, axis=1)
        return out

    def test_layer_matches_the_gate_with_the_same_values(self):
        rng = np.random.default_rng(21)
        q, controls, results = 6, (4, 0), (5, 2, 1)
        values = rng.integers(0, 8, size=(7, 4))
        gate = xor_permutation_gate(controls, results, values)
        layer = flip_layer(q, controls, results, sim._spread(values, q, results))
        rows = rng.normal(size=(7, 1 << q))
        for by_gate, by_layer in zip(self.forms(rows), self.forms(rows)):
            assert np.array_equal(self.dense(apply_permutation(by_gate, gate)), self.dense(apply_permutation(by_layer, layer)))

    def test_layer_wires_are_checked(self):
        with pytest.raises(ValueError, match="distinct"):
            flip_layer(3, (0, 1), (1,), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            flip_layer(3, (0,), (3,), np.zeros(2, dtype=np.int64))

    @staticmethod
    def own_rows(start, batch):
        """The start row repeated, each row an array of its own."""
        if isinstance(start, SupportState):
            return SupportState(start.q, np.repeat(start.index, batch, axis=0), np.repeat(start.amps, batch, axis=0))
        return StateVector(start.q, np.repeat(start.amps, batch, axis=0))

    @pytest.mark.parametrize("support", [False, True], ids=["dense", "support"])
    def test_rows_of_a_start_state_are_views_that_kernels_replace(self, support):
        rng = np.random.default_rng(22)
        start = apply_hadamard(init_zero(4, support, batch=1), (0, 1, 2))
        arrays = (start.amps, start.index) if support else (start.amps,)
        for array in arrays:
            array.flags.writeable = False
        kept = [array.copy() for array in arrays]
        s = init_zero(4, support, batch=5, start=start)
        assert not s.amps.flags.writeable and s.amps.shape[0] == 5
        own = self.own_rows(start, 5)
        gate = xor_permutation_gate((0, 1, 2), (3,), rng.integers(0, 2, size=(5, 8)))
        for state in (s, own):
            apply_permutation(state, gate)
            apply_pauli_z(state, 3)
        assert np.array_equal(self.dense(s), self.dense(own))
        # Pauli-Z straight on the views: on the top wire a reshape of them stays a view.
        for batch in (1, 5):
            for wire in (0, 3):
                views = apply_pauli_z(init_zero(4, support, batch=batch, start=start), wire)
                assert np.array_equal(self.dense(views), self.dense(apply_pauli_z(self.own_rows(start, batch), wire)))
        assert all(np.array_equal(array, copy) for array, copy in zip(arrays, kept))

    def test_start_must_be_one_row_of_the_same_form_and_width(self):
        start = init_zero(3, batch=1)
        with pytest.raises(ValueError, match="start"):
            init_zero(4, batch=2, start=start)
        with pytest.raises(ValueError, match="start"):
            init_zero(3, support=True, batch=2, start=start)
        with pytest.raises(ValueError, match="start"):
            init_zero(3, batch=2, start=init_zero(3, batch=2))
        with pytest.raises(ValueError, match="start"):
            init_zero(3, start=start)


class TestBlockRotation:
    """The support kernel on states whose target wire reads 0, as the decision wire does before the rotation."""

    def test_cos_one_leaves_target(self):
        # width-3 control register, scale 2^1: pattern 010 decodes to +2
        gate = block_rotation_gate((0, 1, 2), 3, scale_exponent=1)
        s = apply_block_rotation(basis_support(4, 0b0100), gate)
        assert abs(full_amps(s)[0b0100] - 1.0) < 1e-15

    def test_zero_pattern_flips_target(self):
        gate = block_rotation_gate((0, 1, 2), 3, scale_exponent=1)
        s = apply_block_rotation(basis_support(4, 0b0000), gate)
        assert abs(full_amps(s)[0b0001] - 1.0) < 1e-15

    def test_minus_full_scale_gives_negative_amplitude(self):
        # pattern 110 decodes to -2: cos = -1, amplitude -1 on unflipped target
        gate = block_rotation_gate((0, 1, 2), 3, scale_exponent=1)
        s = apply_block_rotation(basis_support(4, 0b1100), gate)
        assert abs(full_amps(s)[0b1100] - (-1.0)) < 1e-15

    def test_block_matrices_orthogonal(self):
        # Every block at once, as the whole operator by the tests' dense
        # rotation: row i of the rotated identity is the image of basis state i.
        gate = block_rotation_gate((0, 1, 2, 3), 4, scale_exponent=2)
        m = rotated(gate, np.eye(32))
        assert np.allclose(m @ m.T, np.eye(32), rtol=0.0, atol=1e-15)

    def test_norm_preserved_on_random_states(self):
        # Wire 0 is the index's top bit: the first 8 of 16 basis states have the target clear.
        gate = block_rotation_gate((1, 3), 0, scale_exponent=1)
        rng = np.random.default_rng(5)
        for _ in range(25):
            amps = rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            s = apply_block_rotation(SupportState(4, np.arange(8, dtype=np.int64), amps.copy()), gate)
            assert abs(s.norm() - 1.0) < 1e-12
            assert np.allclose(full_amps(s), rotated(gate, np.concatenate((amps, np.zeros(8)))), rtol=0.0, atol=1e-15)

    def test_target_inside_controls_rejected(self):
        with pytest.raises(ValueError):
            block_rotation_gate((0, 1), 1, scale_exponent=1)


class TestSignedEncoding:
    @pytest.mark.parametrize("value,width,pattern", [(2, 3, 0b010), (-2, 3, 0b110), (0, 3, 0), (-1, 4, 0b1111)])
    def test_roundtrip(self, value, width, pattern):
        assert encode_signed(value, width) == pattern
        assert decode_signed(pattern, width) == value


class TestMeasurement:
    def test_plus_state_distribution(self):
        s = apply_hadamard(init_zero(1), (0,))
        rec = measure(s, (0,))
        assert rec.distribution == pytest.approx({"0": 0.5, "1": 0.5})

    def test_all_zero_state(self):
        rec = measure(init_zero(2), (0, 1))
        assert rec.distribution == {"00": 1.0}

    def test_distribution_sums_to_one_and_collapse_normalizes(self):
        rng = np.random.default_rng(8)
        s = random_state(4, rng)
        rec = measure(s, (1, 3))
        assert abs(sum(rec.distribution.values()) - 1.0) < 1e-12
        for outcome in rec.distribution:
            branch = rec.collapse(outcome)
            assert abs(branch.norm() - 1.0) < 1e-12

    def test_collapse_on_negligible_outcome_rejected(self):
        rec = measure(init_zero(2), (0,))
        with pytest.raises(ValueError):
            rec.collapse(1)

    def test_dense_outcome_zero_is_bin_zero_of_the_distribution(self):
        # Outcome 0 of each row of a batch is bin 0 of that row's own
        # distribution, a bincount of its squares alone, bit for bit, on any
        # amplitudes and any wire set; so is outcome 0 of the row on its own.
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(9, 1 << 7))
        for wires in [(0,), (6,), (1, 4), (0, 2, 3, 5), tuple(range(7)), (3, 0, 6)]:
            pattern = sum(((np.arange(1 << 7) >> (6 - w)) & 1) << (len(wires) - 1 - j) for j, w in enumerate(wires))
            zero = measure(StateVector(7, rows), wires).probability(0)
            for r, row in enumerate(rows):
                alone = np.bincount(pattern, weights=row * row, minlength=1 << len(wires))
                assert zero[r] == alone[0]
                assert measure(StateVector(7, row), wires).probability(0) == alone[0]

    def test_probability_all_zero_matches_measure(self):
        rng = np.random.default_rng(9)
        s = full_support(random_state(5, rng).amps)
        for wires in [(0, 1, 2), (1, 3), (4,), (0, 2, 4)]:
            assert probability_all_zero(s, wires) == pytest.approx(measure(s, wires).probability(0), abs=1e-13)


class TestPauliZ:
    def test_phase_flip(self):
        s = apply_hadamard(init_zero(1), (0,))
        apply_pauli_z(s, 0)
        assert np.allclose(s.amps, [2**-0.5, -(2**-0.5)])

    def test_involution(self):
        rng = np.random.default_rng(10)
        s = random_state(3, rng)
        before = s.amps.copy()
        apply_pauli_z(s, 1)
        apply_pauli_z(s, 1)
        assert np.array_equal(s.amps, before)


class TestComposition:
    """Consecutive XOR gates composed into one ``XorRun``, a table over the union of their wires."""

    def test_composed_matches_sequential(self):
        rng = np.random.default_rng(11)
        gates = [
            xor_permutation_gate((0,), (2,), [0, 1]),
            xor_permutation_gate((1, 2), (3,), [0, 0, 0, 1]),
            xor_permutation_gate((0, 1), (2, 3), [0, 1, 2, 3]),
        ]
        s1 = full_support(random_state(4, rng).amps)
        s2 = full_support(s1.amps)
        apply_permutation(s1, XorRun(tuple(gates)))
        for g in gates:
            apply_permutation(s2, g)
        assert np.array_equal(s1.index, s2.index) and np.array_equal(s1.amps, s2.amps)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_composed_run_on_a_batch_matches_sequential(self, rows):
        # Rows of different entries, so each row's indices move on their own.
        rng = np.random.default_rng(14)
        gates = [
            xor_permutation_gate((0,), (2,), [0, 1]),
            xor_permutation_gate((1, 3), (0,), [0, 1, 1, 0]),
            xor_permutation_gate((0, 2), (1, 3), [3, 0, 2, 1]),
        ]
        index = np.stack([rng.permutation(16)[:6] for _ in range(rows or 1)])
        if rows is None:
            index = index[0]
        amps = rng.normal(size=index.shape)
        s1, s2 = SupportState(4, index.copy(), amps.copy()), SupportState(4, index.copy(), amps.copy())
        apply_permutation(s1, XorRun(tuple(gates)))
        for g in gates:
            apply_permutation(s2, g)
        assert np.array_equal(s1.index, s2.index) and np.array_equal(s1.amps, amps)
        assert not np.array_equal(s1.index, index)

    def test_composed_run_on_a_dense_state_is_rejected(self):
        # A dense state gathers through the plan of the map, which is its own
        # inverse for a gate but not for a run; the run is refused untouched.
        run = XorRun((xor_permutation_gate((0,), (2,), [0, 1]), xor_permutation_gate((2,), (0,), [0, 1])))
        s = random_state(3, np.random.default_rng(15))
        before = s.amps.copy()
        with pytest.raises(TypeError, match="composed XOR run takes a support state"):
            apply_permutation(s, run)
        assert np.array_equal(s.amps, before) and not run._cache

    def test_empty_composition_is_identity(self):
        s = full_support(random_state(3, np.random.default_rng(12)).amps)
        apply_permutation(s, XorRun(()))
        assert np.array_equal(s.index, np.arange(8))

    def test_wrong_register_size_rejected(self):
        gate = xor_permutation_gate((0,), (2,), [0, 1])
        with pytest.raises(ValueError, match="out of range"):
            apply_permutation(init_zero(2, support=True), XorRun((xor_permutation_gate((), (0,), [1]), gate)))
        with pytest.raises(ValueError, match="out of range"):
            apply_permutation(init_zero(2), gate)


def test_large_register_skips_source_caching():
    # Beyond the caching bound no gate or index cache keeps a 2^q-entry
    # array: a gate keeps only its plan, and the indices are rebuilt per
    # application.
    q = sim._DEST_CACHE_MAX_Q + 1
    gate = xor_permutation_gate((0,), (q - 1,), [0, 1])
    run = XorRun((gate, xor_permutation_gate((q - 1,), (1,), [0, 1])))
    s = basis_state(q, 1 << (q - 1))
    apply_permutation(s, gate)
    assert s.amps[(1 << (q - 1)) | 1] == 1.0
    # On a support state, the run's first gate undoes the gate; its second reads wire q - 1 clear.
    support = basis_support(q, (1 << (q - 1)) | 1)
    apply_permutation(support, run)
    assert support.index.tolist() == [1 << (q - 1)]
    flips = [flip for g in (gate, run) for _, flip in g._cache.values()]
    assert flips and max(flip.size for flip in flips) < 1 << q
    assert max(sim._INDEX_CACHE, default=0) <= sim._DEST_CACHE_MAX_Q


def test_norm_preserved_by_random_gate_sequences():
    # Random circuits of the paper's shape on a support state: the work wires
    # come back clean, and each branch of the decision keeps unit norm
    # through the readout Hadamard.
    rng = np.random.default_rng(13)
    for _ in range(10):
        q, inputs, work, decision, gates, rotation = random_circuit(rng)
        s = apply_hadamard(init_zero(q, support=True), inputs)
        for gate in gates:
            apply_permutation(s, gate)
        apply_block_rotation(s, rotation)
        apply_pauli_z(s, decision)
        for gate in reversed(gates):
            apply_permutation(s, gate)
        assert abs(s.norm() - 1.0) < 1e-12
        assert probability_all_zero(s, work) == pytest.approx(1.0, abs=1e-12)
        rec = measure(s, (decision,))
        for outcome in rec.distribution:
            assert abs(apply_hadamard(rec.collapse(outcome), inputs).norm() - 1.0) < 1e-12


def test_measurement_record_floor_filters_dust():
    # probability 1e-18 sits below the 1e-15 listing floor
    s = init_zero(2)
    s.amps = np.array([1.0, 1e-9, 0.0, 0.0])
    s.amps /= np.linalg.norm(s.amps)
    rec = measure(s, (0, 1))
    assert "01" not in rec.distribution
    assert rec.distribution["00"] == pytest.approx(1.0, abs=1e-12)


def test_every_kernel_keeps_the_state_real():
    # A silent promotion to complex would double the memory of every state.
    # Only the support state takes a composed run and the rotation, of wire
    # 3, which no other step sets.
    run = XorRun((xor_permutation_gate((1, 2), (0,), [0, 1, 1, 0]), xor_permutation_gate((0,), (2,), [0, 1])))
    for s in (init_zero(4), init_zero(4, support=True)):
        assert s.amps.dtype == np.float64
        steps = [
            lambda: apply_hadamard(s, (2, 0)),  # two runs of one wire
            lambda: apply_hadamard(s, (0, 1, 2)),  # a run of three wires
            lambda: apply_permutation(s, xor_permutation_gate((0,), (2,), [0, 1])),
            lambda: apply_pauli_z(s, 2),
        ]
        if isinstance(s, SupportState):
            steps.append(lambda: apply_permutation(s, run))
            steps.append(lambda: apply_block_rotation(s, block_rotation_gate((0, 1), 3, scale_exponent=1)))
        for step in steps:
            assert step().amps.dtype == np.float64
        rec = measure(s, (0,))
        for outcome in rec.distribution:
            assert rec.collapse(outcome).amps.dtype == np.float64


class TestSupportState:
    """Each support kernel against the dense kernel on random circuits of the
    paper's shape, the states the support kernels serve; and the two
    preconditions that say so.  The rotation and ``probability_all_zero``
    have no dense kernel: they are checked against the tests' dense rotation
    and a sum over the full vector."""

    @staticmethod
    def assert_same(support, dense):
        assert len(set(support.index.tolist())) == support.index.size
        full = np.zeros(1 << support.q)
        full[support.index] = support.amps
        assert np.allclose(full, dense.amps, rtol=0.0, atol=1e-12)

    @staticmethod
    def assert_same_records(rec, ref):
        assert rec.distribution.keys() == ref.distribution.keys()
        for outcome, p in ref.distribution.items():
            assert rec.distribution[outcome] == pytest.approx(p, abs=1e-12)

    def test_kernels_match_the_dense_kernels(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            q, inputs, work, decision, gates, rotation = random_circuit(rng)
            support, dense = init_zero(q, support=True), init_zero(q)
            self.assert_same(apply_hadamard(support, inputs), apply_hadamard(dense, inputs))
            for gate in gates:
                self.assert_same(apply_permutation(support, gate), apply_permutation(dense, gate))
            dense.amps = rotated(rotation, dense.amps)
            self.assert_same(apply_block_rotation(support, rotation), dense)
            wire = int(rng.integers(0, q))
            self.assert_same(apply_pauli_z(support, wire), apply_pauli_z(dense, wire))
            # Measured on any wires, and read before and after the uncompute.
            wires = tuple(int(w) for w in rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False))
            rec, ref = measure(support, wires), measure(dense, wires)
            self.assert_same_records(rec, ref)
            for outcome in ref.distribution:
                self.assert_same(rec.collapse(outcome), ref.collapse(outcome))
            clean = np.all([(np.arange(1 << q) >> (q - 1 - w)) & 1 == 0 for w in work], axis=0)
            assert probability_all_zero(support, work) == pytest.approx(np.sum(dense.amps[clean] ** 2), abs=1e-12)
            for gate in reversed(gates):
                self.assert_same(apply_permutation(support, gate), apply_permutation(dense, gate))
            assert probability_all_zero(support, work) == pytest.approx(np.sum(dense.amps[clean] ** 2), abs=1e-12)
            # The readout: each branch of the decision, then the inputs after a Hadamard.
            rec, ref = measure(support, (decision,)), measure(dense, (decision,))
            self.assert_same_records(rec, ref)
            for outcome in ref.distribution:
                branch, ref_branch = apply_hadamard(rec.collapse(outcome), inputs), apply_hadamard(ref.collapse(outcome), inputs)
                self.assert_same(branch, ref_branch)
                self.assert_same_records(measure(branch, inputs), measure(ref_branch, inputs))

    def test_hadamard_needs_the_entries_to_agree_off_its_wires(self):
        # Wire 2 is the index's lowest bit: one row, and one row of a batch, where it differs between entries.
        amps = np.full(2, np.sqrt(0.5))
        with pytest.raises(ValueError, match="agree on the wires it does not act on"):
            apply_hadamard(SupportState(3, np.array([0b000, 0b011]), amps.copy()), (0, 1))
        with pytest.raises(ValueError, match="agree on the wires it does not act on"):
            apply_hadamard(SupportState(3, np.array([[0b000, 0b010], [0b001, 0b100]]), np.stack((amps, amps))), (0, 1))
        # Rows that each agree, at patterns of their own, are transformed.
        s = apply_hadamard(SupportState(3, np.array([[0b000, 0b010], [0b001, 0b101]]), np.stack((amps, amps))), (0, 1))
        assert s.index.tolist() == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_rotation_needs_its_target_clear_in_every_entry(self):
        gate = block_rotation_gate((0, 1), 2, scale_exponent=1)
        amps = np.full(2, np.sqrt(0.5))
        with pytest.raises(ValueError, match="target wire to read 0 in every entry"):
            apply_block_rotation(SupportState(3, np.array([0b000, 0b011]), amps.copy()), gate)
        with pytest.raises(ValueError, match="target wire to read 0 in every entry"):
            apply_block_rotation(SupportState(3, np.array([[0b000, 0b010], [0b100, 0b111]]), np.stack((amps, amps))), gate)
        # With the target clear, each entry and its partner.
        s = apply_block_rotation(SupportState(3, np.array([[0b000, 0b010], [0b100, 0b110]]), np.stack((amps, amps))), gate)
        assert s.index.tolist() == [[0b000, 0b010, 0b001, 0b011], [0b100, 0b110, 0b101, 0b111]]

    def test_rotation_drops_exact_zeros(self):
        # cos = 0 on control pattern 0: the amplitude moves to the partner and
        # the exact zero left behind is not kept
        s = apply_block_rotation(init_zero(3, support=True), block_rotation_gate((0, 1), 2, scale_exponent=0))
        assert s.index.tolist() == [1] and s.amps.tolist() == [1.0]

    def test_dense_state_rejected_by_the_support_only_kernels(self):
        s = init_zero(3)
        assert isinstance(s, StateVector)
        with pytest.raises(TypeError, match="apply_block_rotation takes a support state"):
            apply_block_rotation(s, block_rotation_gate((0, 1), 2, scale_exponent=1))
        with pytest.raises(TypeError, match="probability_all_zero takes a support state"):
            probability_all_zero(s, (0,))

    @pytest.mark.parametrize("q", [0, 63])
    def test_width_out_of_range(self, q):
        with pytest.raises(ValueError):
            init_zero(q, support=True)

    def test_wide_register_holds_only_its_entries(self):
        s = apply_hadamard(init_zero(62, support=True), (0, 1, 61))
        assert s.index.size == 8 and s.amps.nbytes == 64
        assert probability_all_zero(s, (61,)) == pytest.approx(0.5, abs=1e-15)
