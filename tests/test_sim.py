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
    xor_permutation_gate,
)


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


def rotated(amps, gate):
    """The rotation on a full amplitude vector, block by block from ``block_matrix``."""
    q = int(len(amps)).bit_length() - 1
    out = amps.copy()
    tbit = 1 << (q - 1 - gate.target_qubit)
    for index in range(len(amps)):
        if index & tbit:
            continue
        pattern = int("".join(str((index >> (q - 1 - w)) & 1) for w in gate.control_qubits), 2)
        out[index], out[index | tbit] = gate.block_matrix(pattern) @ amps[[index, index | tbit]]
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
    def both_forms(amps):
        """A dense state and a support state holding the same amplitudes."""
        q = int(amps.size).bit_length() - 1
        dense = init_zero(q)
        dense.amps = amps.copy()
        index = np.flatnonzero(amps)
        return dense, SupportState(q, index, amps[index])

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
        for s in self.both_forms(amps):
            assert np.allclose(self.dense_amps(apply_hadamard(s, wires)), op @ amps, rtol=0.0, atol=1e-12)

    def test_block_path_matches_per_qubit_path(self):
        # Runs of 7 and 13 wires take two and three slices of the Walsh matrix;
        # the reference is the per-wire butterfly.
        rng = np.random.default_rng(1)
        for q, wires in ((9, tuple(range(1, 8))), (14, tuple(range(13))), (10, (9, 5, 1, 2, 3, 4, 6, 7, 0))):
            amps = rng.normal(size=1 << q) * (rng.random(1 << q) < 0.1)
            ref = per_wire_hadamard(amps, q, wires)
            for s in self.both_forms(amps):
                assert np.allclose(self.dense_amps(apply_hadamard(s, wires)), ref, rtol=0.0, atol=1e-12)

    @staticmethod
    def hadamard_rows(rows, q, wires, form):
        """H on the wires of each row, as a dense batch or as a support batch holding every entry."""
        if form == "dense":
            s = init_zero(q, batch=len(rows))
            s.amps = rows.copy()
            return apply_hadamard(s, wires).amps
        index = np.broadcast_to(np.arange(1 << q), rows.shape).copy()
        s = apply_hadamard(SupportState(q, index, rows.copy()), wires)
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
            (2, (0, 1), (1, 2, 3, 511, 4096)),  # a support group of two wires
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


class TestBlockRotation:
    def test_cos_one_leaves_target(self):
        # width-3 control register, scale 2^1: pattern 010 decodes to +2
        gate = block_rotation_gate((0, 1, 2), 3, scale_exponent=1)
        s = apply_block_rotation(full_support(basis_state(4, 0b0100).amps), gate)
        assert abs(full_amps(s)[0b0100] - 1.0) < 1e-15

    def test_zero_pattern_flips_target(self):
        gate = block_rotation_gate((0, 1, 2), 3, scale_exponent=1)
        s = apply_block_rotation(full_support(basis_state(4, 0b0000).amps), gate)
        assert abs(full_amps(s)[0b0001] - 1.0) < 1e-15

    def test_minus_full_scale_gives_negative_amplitude(self):
        # pattern 110 decodes to -2: cos = -1, amplitude -1 on unflipped target
        gate = block_rotation_gate((0, 1, 2), 3, scale_exponent=1)
        s = apply_block_rotation(full_support(basis_state(4, 0b1100).amps), gate)
        assert abs(full_amps(s)[0b1100] - (-1.0)) < 1e-15

    def test_block_matrices_orthogonal(self):
        gate = block_rotation_gate((0, 1, 2, 3), 4, scale_exponent=2)
        for pattern in range(16):
            m = gate.block_matrix(pattern)
            assert np.allclose(m.T @ m, np.eye(2), atol=1e-15)

    def test_norm_preserved_on_random_states(self):
        gate = block_rotation_gate((1, 3), 0, scale_exponent=1)
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = apply_block_rotation(full_support(random_state(4, rng).amps), gate)
            assert abs(s.norm() - 1.0) < 1e-12

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

    def test_empty_composition_is_identity(self):
        s = full_support(random_state(3, np.random.default_rng(12)).amps)
        apply_permutation(s, XorRun(()))
        assert np.array_equal(s.index, np.arange(8))

    def test_wrong_register_size_rejected(self):
        run = XorRun((xor_permutation_gate((), (0,), [1]), xor_permutation_gate((0,), (2,), [0, 1])))
        with pytest.raises(ValueError, match="out of range"):
            apply_permutation(init_zero(2, support=True), run)


def test_large_register_skips_source_caching():
    # beyond the caching bound the source indices are rebuilt per application
    gate = xor_permutation_gate((0,), (20,), [0, 1])
    s = basis_state(21, 1 << 20)
    apply_permutation(s, gate)
    assert s.amps[(1 << 20) | 1] == 1.0
    assert gate._cache == {}
    apply_permutation(s, gate)
    assert s.amps[1 << 20] == 1.0


def test_norm_preserved_by_random_gate_sequences():
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = int(rng.integers(2, 6))
        s = full_support(random_state(q, rng).amps)
        for _ in range(8):
            kind = rng.integers(0, 3)
            if kind == 0:
                wires = rng.choice(q, size=rng.integers(1, q + 1), replace=False)
                apply_hadamard(s, tuple(int(w) for w in wires))
            elif kind == 1:
                target = int(rng.integers(0, q))
                controls = tuple(int(w) for w in range(q) if w != target and rng.random() < 0.5)
                values = rng.integers(0, 2, size=1 << len(controls))
                apply_permutation(s, xor_permutation_gate(controls, (target,), values.tolist()))
            else:
                target = int(rng.integers(0, q))
                controls = tuple(int(w) for w in range(q) if w != target)
                apply_block_rotation(s, block_rotation_gate(controls, target, scale_exponent=max(0, q - 3)))
        assert abs(s.norm() - 1.0) < 1e-12


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
    # The support state holds all 16 entries; only it takes the rotation and
    # a composed XOR run.
    run = XorRun((xor_permutation_gate((1, 2), (3,), [0, 1, 1, 0]), xor_permutation_gate((3,), (0,), [0, 1])))
    for s in (init_zero(4), full_support(init_zero(4).amps)):
        assert s.amps.dtype == np.float64
        steps = [
            lambda: apply_hadamard(s, (0, 1, 2)),  # a run of three wires
            lambda: apply_hadamard(s, (3, 1)),  # two runs of one wire
            lambda: apply_permutation(s, xor_permutation_gate((0,), (2,), [0, 1])),
            lambda: apply_pauli_z(s, 2),
        ]
        if isinstance(s, SupportState):
            steps += [
                lambda: apply_permutation(s, run),
                lambda: apply_block_rotation(s, block_rotation_gate((0, 1), 3, scale_exponent=1)),
            ]
        for step in steps:
            assert step().amps.dtype == np.float64
        rec = measure(s, (0,))
        for outcome in rec.distribution:
            assert rec.collapse(outcome).amps.dtype == np.float64


class TestSupportState:
    """Each support kernel against the dense kernel on random sparse states,
    including the cases the circuits never reach: entries that differ outside
    the Hadamard wires, and rotation partners that are both entries.  The
    rotation and ``probability_all_zero`` have no dense kernel: they are
    checked against ``block_matrix`` and a sum over the full vector."""

    @staticmethod
    def sparse_pair(q, rng, entries):
        index = rng.choice(1 << q, size=entries, replace=False).astype(np.int64)
        amps = rng.normal(size=entries)
        amps /= np.linalg.norm(amps)
        dense = init_zero(q)
        dense.amps[0] = 0.0
        dense.amps[index] = amps
        return SupportState(q, index, amps), dense

    @staticmethod
    def assert_same(support, dense):
        assert len(set(support.index.tolist())) == support.index.size
        full = np.zeros(1 << support.q)
        full[support.index] = support.amps
        assert np.allclose(full, dense.amps, rtol=0.0, atol=1e-12)

    def test_kernels_match_the_dense_kernels(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            q = int(rng.integers(3, 8))
            support, dense = self.sparse_pair(q, rng, int(rng.integers(1, 1 << (q - 1))))
            wires = tuple(int(w) for w in rng.choice(q, size=int(rng.integers(1, q)), replace=False))
            self.assert_same(apply_hadamard(support, wires), apply_hadamard(dense, wires))
            controls, results = wires[: len(wires) // 2], tuple(w for w in range(q) if w not in wires)[:2]
            if results:
                values = rng.integers(0, 1 << len(results), size=1 << len(controls))
                gate = xor_permutation_gate(controls, results, values)
                self.assert_same(apply_permutation(support, gate), apply_permutation(dense, gate))
            target = int(rng.integers(0, q))
            others = [w for w in range(q) if w != target]
            controls = tuple(int(w) for w in rng.choice(others, size=int(rng.integers(1, len(others) + 1)), replace=False))
            rot = block_rotation_gate(controls, target, scale_exponent=1)
            dense.amps = rotated(dense.amps, rot)
            self.assert_same(apply_block_rotation(support, rot), dense)
            self.assert_same(apply_pauli_z(support, target), apply_pauli_z(dense, target))
            zero = np.all([(np.arange(1 << q) >> (q - 1 - w)) & 1 == 0 for w in wires], axis=0)
            assert probability_all_zero(support, wires) == pytest.approx(np.sum(dense.amps[zero] ** 2), abs=1e-12)
            rec, ref = measure(support, wires), measure(dense, wires)
            assert rec.distribution.keys() == ref.distribution.keys()
            for outcome, p in ref.distribution.items():
                assert rec.distribution[outcome] == pytest.approx(p, abs=1e-12)
                self.assert_same(rec.collapse(outcome), ref.collapse(outcome))

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
