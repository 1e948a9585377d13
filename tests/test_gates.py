import numpy as np
import pytest

from djsim import Decomposition, make_function
from djsim.gates import (
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
from djsim.sim import apply_permutation, encode_signed, init_zero
from tests.dense_reference import destination, pattern_of, rotated


def random_state(q, rng):
    s = init_zero(q)
    amps = rng.normal(size=(1, 1 << q))
    s.amps = amps / np.linalg.norm(amps)
    return s


def basis_state(q, index):
    s = init_zero(q)
    s.amps[0, 0] = 0.0
    s.amps[0, index] = 1.0
    return s


def permuted(amps, gate):
    """The permutation gate on 2^q amplitudes, from its action table."""
    out = np.empty_like(amps)
    out[destination([gate], len(amps).bit_length() - 1)] = amps
    return out


class TestOracle:
    def test_two_node_worked_table(self, two_node_example):
        # f_0(00) = 1, so the target flips on the all-zero control pattern
        d = Decomposition(two_node_example, 1)
        gate = build_oracle(d, 0, (0, 1), 2)
        s = basis_state(3, 0b000)
        apply_permutation(s, gate)
        assert s.amps[0, 0b001] == 1.0

    def test_self_inverse(self, delta_example):
        d = Decomposition(delta_example, 2)
        gate = build_oracle(d, 3, (0, 1), 2)
        rng = np.random.default_rng(0)
        s = random_state(3, rng)
        before = s.amps.copy()
        apply_permutation(s, gate)
        apply_permutation(s, gate)
        assert np.array_equal(s.amps, before)

    def test_whole_function_oracle_of_zero_is_identity(self):
        f = make_function(2, [0, 0, 0, 0])
        gate = build_oracle(f, None, (0, 1), 2)
        s = basis_state(3, 0b010)
        apply_permutation(s, gate)
        assert s.amps[0, 0b010] == 1.0

    def test_control_count_enforced(self, delta_example):
        d = Decomposition(delta_example, 2)
        with pytest.raises(ValueError, match="control wires"):
            build_oracle(d, 0, (0, 1, 2), 3)

    def test_target_overlap_rejected(self, delta_example):
        d = Decomposition(delta_example, 2)
        with pytest.raises(ValueError):
            build_oracle(d, 0, (0, 1), 1)

    def test_whole_function_requires_no_w(self, delta_example):
        with pytest.raises(ValueError):
            build_oracle(delta_example, 1, (0, 1), 2)


class TestU:
    def test_zero_controls_write_plus_two(self):
        # t=1: both control bits 0 -> value +2 -> pattern 010 in three bits
        gate = build_U(1, (0, 1), (2, 3, 4))
        s = basis_state(5, 0)
        apply_permutation(s, gate)
        assert s.amps[0, 0b00010] == 1.0

    def test_full_controls_write_minus_two(self):
        gate = build_U(1, (0, 1), (2, 3, 4))
        s = basis_state(5, 0b11000)
        apply_permutation(s, gate)
        assert s.amps[0, 0b11110] == 1.0  # -2 encodes as 110

    def test_self_inverse_on_random_states(self):
        gate = build_U(1, (0, 1), (2, 3, 4))
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = random_state(6, rng)
            before = s.amps.copy()
            apply_permutation(s, gate)
            apply_permutation(s, gate)
            assert np.array_equal(s.amps, before)

    def test_register_width_enforced(self):
        with pytest.raises(ValueError):
            build_U(1, (0, 1), (2, 3))
        with pytest.raises(ValueError):
            build_U(2, (0, 1), (2, 3, 4, 5))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_u_and_v_value_tables_match_the_per_entry_encoding(t):
    # The tables are numpy expressions; the reference encodes each entry on its own, in Python integers.
    nodes = 1 << t
    u = build_U(t, tuple(range(nodes)), tuple(range(nodes, nodes + t + 2)))
    assert u.value_table.tolist() == [encode_signed(nodes - 2 * bin(p).count("1"), t + 2) for p in range(1 << nodes)]
    v = build_V(t, tuple(range(t)), tuple(range(t, 2 * t)), tuple(range(2 * t, 3 * t + 1)))
    want = [encode_signed((1 << (t - 1)) - (p >> t) - 2 * (p & (nodes - 1)), t + 1) for p in range(1 << (2 * t))]
    assert v.value_table.tolist() == want


class TestAdders:
    def test_sum_of_two_set_controls(self):
        gate = build_A(2, (0, 1), (2, 3))
        s = basis_state(4, 0b1100)
        apply_permutation(s, gate)
        assert s.amps[0, 0b1110] == 1.0  # sum 2 -> bits 10

    def test_interleaved_controls(self):
        gate = build_A(2, (0, 3), (4, 5))
        s = basis_state(6, 0b100100)
        apply_permutation(s, gate)
        assert s.amps[0, 0b100110] == 1.0

    def test_compact_variant_same_action(self):
        a = build_A(2, (0, 1), (2, 3))
        ap = build_Aprime(2, (0, 1), (2, 3))
        assert np.array_equal(a.action_table(), ap.action_table())
        assert (a.name, ap.name) == ("A", "A'")

    def test_control_count_enforced(self):
        with pytest.raises(ValueError):
            build_A(2, (0, 1, 2), (3, 4))


class TestV:
    def test_zero_operands(self):
        # t=2: value 2^1 - 0 - 0 = 2 -> three-bit pattern 010
        gate = build_V(2, (0, 1), (2, 3), (4, 5, 6))
        s = basis_state(7, 0)
        apply_permutation(s, gate)
        assert s.amps[0, 0b0000010] == 1.0

    def test_wraparound_stays_bijective(self):
        # a=3, b=3 gives 2-3-6 = -7, encoded mod 8
        gate = build_V(2, (0, 1), (2, 3), (4, 5, 6))
        s = basis_state(7, 0b1111000)
        apply_permutation(s, gate)
        expected = 0b1111000 | ((-7) & 0b111)
        assert s.amps[0, expected] == 1.0

    def test_layout_overlap_rejected(self):
        with pytest.raises(ValueError):
            build_V(2, (0, 1), (1, 2), (3, 4, 5))


class TestRotations:
    """The rotation gates as operators on the whole register, through the tests' dense rotation."""

    def test_full_scale_pattern_fixes_target(self):
        gate = build_R(1, (0, 1, 2), 3)
        amps = rotated(gate, basis_state(4, 0b0100).amps[0])  # register holds +2 = 2^t
        assert abs(amps[0b0100] - 1.0) < 1e-15

    def test_rprime_scale(self):
        gate = build_Rprime(2, (0, 1, 2), 3)
        assert gate.scale_exponent == 1
        # pattern 010 = +2 = 2^{t-1}: cos=1
        amps = rotated(gate, basis_state(4, 0b0100).amps[0])
        assert abs(amps[0b0100] - 1.0) < 1e-15

    def test_width_enforced(self):
        with pytest.raises(ValueError):
            build_R(2, (0, 1, 2), 3)
        with pytest.raises(ValueError):
            build_Rprime(2, (0, 1), 2)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_block_matrices_orthogonal(self, t):
        # Every block at once, as the whole operator: row i of the rotated
        # identity is the image of basis state i.
        r = build_R(t, tuple(range(t + 2)), t + 2)
        rp = build_Rprime(t, tuple(range(t + 1)), t + 1)
        for gate in (r, rp):
            dim = 1 << (len(gate.control_qubits) + 1)
            m = rotated(gate, np.eye(dim))
            assert np.allclose(m @ m.T, np.eye(dim), rtol=0.0, atol=1e-15)


class TestUncomputeIdentity:
    @pytest.mark.parametrize("t", [1, 2])
    def test_u_r_u_clears_result_register(self, t):
        # On |a>|0...0>|e>, applying U, R, U leaves the register cleared and
        # the last qubit rotated by the angle the register value selects.
        nodes = 1 << t
        q = nodes + t + 3
        controls = tuple(range(nodes))
        reg = tuple(nodes + i for i in range(t + 2))
        target = q - 1
        op_u = build_U(t, controls, reg)
        op_r = build_R(t, reg, target)
        clear = pattern_of(np.arange(1 << q), reg, q) == 0
        for a_pattern in range(nodes):
            for e in (0, 1):
                amps = permuted(rotated(op_r, permuted(basis_state(q, (a_pattern << (t + 3)) | e).amps[0], op_u)), op_u)
                assert np.sum(amps[clear] ** 2) == pytest.approx(1.0, abs=1e-12)
                delta = (nodes - 2 * bin(a_pattern).count("1")) & ((1 << (t + 2)) - 1)
                c, s = op_r.cos_table[delta], op_r.sin_table[delta]
                expected = [c, s] if e == 0 else [-s, c]  # column e of [[c, -s], [s, c]]
                amp0 = amps[(a_pattern << (t + 3)) | 0]
                amp1 = amps[(a_pattern << (t + 3)) | 1]
                assert np.allclose([amp0, amp1], expected, atol=1e-14)


class TestSmallGates:
    def test_x(self):
        s = init_zero(1)
        apply_permutation(s, build_x(0))
        assert s.amps[0, 1] == 1.0

    def test_cnot_and_ccnot(self):
        s = basis_state(3, 0b110)
        apply_permutation(s, build_ccnot(0, 1, 2))
        assert s.amps[0, 0b111] == 1.0
        apply_permutation(s, build_cnot(0, 1))
        assert s.amps[0, 0b101] == 1.0


@pytest.mark.parametrize("t", [1, 2, 3])
def test_all_gates_preserve_norm_on_random_states(t):
    nodes = 1 << t
    pairs = 1 << (t - 1)
    rng = np.random.default_rng(42 + t)
    configs = [
        (build_U(t, tuple(range(nodes)), tuple(nodes + i for i in range(t + 2))), nodes + t + 2),
        (build_A(t, tuple(3 * p for p in range(pairs)), tuple(3 * pairs + i for i in range(t))), 3 * pairs + t),
        (build_Aprime(t, tuple(range(pairs)), tuple(pairs + i for i in range(t))), pairs + t),
        (build_V(t, tuple(range(t)), tuple(t + i for i in range(t)), tuple(2 * t + i for i in range(t + 1))), 3 * t + 1),
        (build_R(t, tuple(range(t + 2)), t + 2), t + 3),
        (build_Rprime(t, tuple(range(t + 1)), t + 1), t + 2),
    ]
    for gate, q in configs:
        for _ in range(30):
            s = random_state(q, rng)
            if gate.kind == "rotation":
                s.amps = rotated(gate, s.amps)
            else:
                apply_permutation(s, gate)
            assert abs(np.linalg.norm(s.amps, axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("t", [1, 2, 3])
def test_xor_gates_are_involutions_on_the_full_basis(t):
    nodes = 1 << t
    pairs = 1 << (t - 1)
    gates = [
        build_U(t, tuple(range(nodes)), tuple(nodes + i for i in range(t + 2))),
        build_A(t, tuple(range(pairs)), tuple(pairs + i for i in range(t))),
        build_V(t, tuple(range(t)), tuple(t + i for i in range(t)), tuple(2 * t + i for i in range(t + 1))),
    ]
    for gate in gates:
        table = gate.action_table()
        assert np.array_equal(table[table], np.arange(len(table)))
