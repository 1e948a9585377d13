import numpy as np
import pytest

from djsim import sim
from djsim.sim import (
    apply_block_rotation,
    apply_composed,
    apply_hadamard,
    apply_pauli_z,
    apply_permutation,
    block_rotation_gate,
    compose_permutation_sources,
    decode_signed,
    encode_signed,
    init_zero,
    measure,
    probability_all_zero,
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

    def test_block_path_matches_per_qubit_path(self):
        rng = np.random.default_rng(1)
        s1 = random_state(4, rng)
        s2 = s1.copy()
        apply_hadamard(s1, (0, 1, 2))  # leading-block fast path
        for w in (2, 0, 1):  # scattered order forces the butterfly path
            apply_hadamard(s2, (w,))
        assert np.allclose(s1.amps, s2.amps, atol=1e-12)

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
        s = basis_state(4, 0b0100)
        apply_block_rotation(s, gate)
        assert abs(s.amps[0b0100] - 1.0) < 1e-15

    def test_zero_pattern_flips_target(self):
        gate = block_rotation_gate((0, 1, 2), 3, scale_exponent=1)
        s = basis_state(4, 0b0000)
        apply_block_rotation(s, gate)
        assert abs(s.amps[0b0001] - 1.0) < 1e-15

    def test_minus_full_scale_gives_negative_amplitude(self):
        # pattern 110 decodes to -2: cos = -1, amplitude -1 on unflipped target
        gate = block_rotation_gate((0, 1, 2), 3, scale_exponent=1)
        s = basis_state(4, 0b1100)
        apply_block_rotation(s, gate)
        assert abs(s.amps[0b1100] - (-1.0)) < 1e-15

    def test_block_matrices_orthogonal(self):
        gate = block_rotation_gate((0, 1, 2, 3), 4, scale_exponent=2)
        for pattern in range(16):
            m = gate.block_matrix(pattern)
            assert np.allclose(m.T @ m, np.eye(2), atol=1e-15)

    def test_norm_preserved_on_random_states(self):
        gate = block_rotation_gate((1, 3), 0, scale_exponent=1)
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = random_state(4, rng)
            apply_block_rotation(s, gate)
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
        s = random_state(5, rng)
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
    def test_composed_matches_sequential(self):
        rng = np.random.default_rng(11)
        gates = [
            xor_permutation_gate((0,), (2,), [0, 1]),
            xor_permutation_gate((1, 2), (3,), [0, 0, 0, 1]),
            xor_permutation_gate((0, 1), (2, 3), [0, 1, 2, 3]),
        ]
        src = compose_permutation_sources(gates, 4)
        s1 = random_state(4, rng)
        s2 = s1.copy()
        apply_composed(s1, src)
        for g in gates:
            apply_permutation(s2, g)
        assert np.array_equal(s1.amps, s2.amps)

    def test_empty_composition_is_identity(self):
        src = compose_permutation_sources([], 3)
        s = random_state(3, np.random.default_rng(12))
        before = s.amps.copy()
        apply_composed(s, src)
        assert np.array_equal(s.amps, before)

    def test_wrong_register_size_rejected(self):
        src = compose_permutation_sources([xor_permutation_gate((), (0,), [1])], 2)
        with pytest.raises(ValueError):
            apply_composed(init_zero(3), src)


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
        s = random_state(q, rng)
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
    s = init_zero(4)
    assert s.amps.dtype == np.float64
    steps = [
        lambda: apply_hadamard(s, (0, 1, 2)),  # leading-block matmul path
        lambda: apply_hadamard(s, (3, 1)),  # per-qubit butterfly path
        lambda: apply_permutation(s, xor_permutation_gate((0,), (2,), [0, 1])),
        lambda: apply_composed(s, compose_permutation_sources([xor_permutation_gate((1, 2), (3,), [0, 1, 1, 0])], 4)),
        lambda: apply_block_rotation(s, block_rotation_gate((0, 1), 3, scale_exponent=1)),
        lambda: apply_pauli_z(s, 2),
    ]
    for step in steps:
        assert step().amps.dtype == np.float64
    rec = measure(s, (0,))
    for outcome in rec.distribution:
        assert rec.collapse(outcome).amps.dtype == np.float64
