import itertools
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from djsim import Decomposition, Promise, enumerate_promise_functions, make_function, random_balanced_table
from djsim import sim
from djsim import algorithms
from djsim.algorithms import ALGORITHM_NAMES, Circuit, InvariantBreach, _execute, circuit, pattern_table, probability_oracle, run_named
from djsim.gates import build_A, build_ccnot, build_cnot, build_oracle, build_Rprime, build_V
from djsim.sim import apply_block_rotation, apply_hadamard, apply_permutation, init_zero, measure


class TestDJ:
    def test_all_zero_function(self):
        f = make_function(3, [0] * 8)
        report = run_named("dj", f)
        assert report.p_constant == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == "constant" and report.verdict_exact
        assert report.q_used == 4
        assert report.gate_breakdown["oracle_calls"] == 1

    def test_balanced_function(self, two_node_example):
        report = run_named("dj", two_node_example)
        assert report.p_constant == pytest.approx(0.0, abs=1e-12)
        assert report.verdict == "balanced" and report.verdict_exact

    def test_non_promise_quarter(self):
        f = make_function(2, [0, 0, 1, 0])
        report = run_named("dj", f)
        assert report.p_constant == pytest.approx(0.25, abs=1e-12)
        assert not report.verdict_exact

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small(self, n):
        for f in enumerate_promise_functions(n):
            report = run_named("dj", f)
            assert report.verdict == f.promise.value and report.verdict_exact
            assert report.q_used == n + 1


class TestAlgorithm1:
    def test_exhaustive_n3(self):
        for f in enumerate_promise_functions(3):
            report = run_named("alg1", f)
            assert report.verdict == f.promise.value
            assert report.verdict_exact
            assert report.q_used == 3 and report.gate_count == 5

    def test_all_ones(self):
        report = run_named("alg1", make_function(3, [1] * 8))
        decision = next(e for e in report.branch_log if e.get("stage") == "decision_qubit")
        assert decision["distribution"].distribution()["0"] == pytest.approx(1.0, abs=1e-12)
        assert report.p_constant == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_balanced(self, two_node_example):
        report = run_named("alg1", two_node_example)
        assert report.p_constant == pytest.approx(0.0, abs=1e-12)
        assert report.p_balanced == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_bits(self):
        with pytest.raises(ValueError):
            run_named("alg1", make_function(1, [0, 1]))


class TestAlgorithm2:
    def test_all_zero_function(self):
        report = run_named("alg2", make_function(4, [0] * 16), 2)
        assert report.p_constant == pytest.approx(1.0, abs=1e-12)
        assert report.q_used == 4 + 4 + 3
        assert report.gate_count == 2**3 + 6

    def test_worked_example_branch_probabilities(self, delta_example):
        # delta = (0,-2,2,0): decision qubit reads 1 with probability 7/8
        report = run_named("alg2", delta_example, 2)
        decision = next(e for e in report.branch_log if e.get("stage") == "decision_qubit")
        assert decision["distribution"].distribution()["1"] == pytest.approx(7 / 8, abs=1e-12)
        assert report.p_constant == pytest.approx(0.0, abs=1e-12)
        assert report.verdict == "balanced" and report.verdict_exact

    def test_ancilla_restoration(self, delta_example):
        report = run_named("alg2", delta_example, 2)
        assert report.ancilla_zero_prob == pytest.approx(1.0, abs=1e-12)

    def test_split_bounds(self):
        with pytest.raises(ValueError):
            run_named("alg2", make_function(3, [0] * 8), 3)

    def test_sampled_exactness_n4(self):
        functions = itertools.islice(enumerate_promise_functions(4), 200)
        for f in functions:
            for t in (1, 2, 3):
                report = run_named("alg2", f, t)
                assert report.verdict == f.promise.value and report.verdict_exact


class TestAlgorithm3:
    def test_all_ones(self):
        report = run_named("alg3", make_function(4, [1] * 16), 2)
        assert report.p_constant == pytest.approx(1.0, abs=1e-12)
        assert report.q_used == 4 + 6 + 4 + 2
        assert report.gate_count == 2**4 + 10

    def test_worked_example(self, pair_example):
        report = run_named("alg3", pair_example, 2)
        assert report.p_constant == pytest.approx(0.0, abs=1e-12)
        assert report.verdict == "balanced" and report.verdict_exact

    def test_ancilla_restoration(self, pair_example):
        report = run_named("alg3", pair_example, 2)
        assert report.ancilla_zero_prob == pytest.approx(1.0, abs=1e-12)

    def test_sampled_exactness_n4(self):
        functions = itertools.islice(enumerate_promise_functions(4), 120)
        for f in functions:
            for t in (1, 2):
                report = run_named("alg3", f, t)
                assert report.verdict == f.promise.value and report.verdict_exact

    def test_compiled_run_matches_literal_gate_sequence(self):
        # Re-derive the circuit gate by gate with an independently written
        # layout and compare the final label probabilities bit for bit.
        rng = np.random.default_rng(17)
        cases = [random_balanced_table(4, rng) for _ in range(6)]
        cases += [make_function(4, [0] * 16), make_function(4, [1] * 16)]
        for t in (1, 2):
            for f in cases:
                report = run_named("alg3", f, t)
                assert report.p_constant == pytest.approx(_literal_alg3_p_constant(f, t), abs=1e-15)


@pytest.mark.parametrize("algorithm, t", [("alg1", None), ("alg3", 2)])
def test_a_decision_readout_reads_the_measured_patterns_once_per_measurement(monkeypatch, algorithm, t):
    # The decision qubit and the input register are measured once each; the
    # collapse between them reuses the decision's patterns.
    calls = []
    for form in (sim.StateVector, sim.SupportState):
        original = form.patterns

        def counted(self, wires, original=original):
            calls.append(wires)
            return original(self, wires)

        monkeypatch.setattr(form, "patterns", counted)
    report = run_named(algorithm, make_function(4, [0] * 16), t)
    assert report.verdict == "constant" and report.branch_log[-1].get("conditioned_on") == {"decision_qubit": 0}
    assert len(calls) == 2


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_every_description_ends_with_its_readout_and_counts_its_ops(algorithm):
    # The readout Hadamard is an op like any other: the breakdown is the ops'
    # counts per category, times the runs, plus the workspace preparation.
    checked = 0
    for n, t in itertools.product((3, 4, 6, 12), (None, 1, 2, 3, 4)):
        try:
            c = circuit(algorithm, n, t)
        except ValueError:
            continue
        readout = c.ops[-1]
        assert readout.kind == "hadamard" and set(c.inputs) <= set(readout.wires[0]), (n, t)
        counts = Counter()
        for op in c.ops:
            counts[op.category] += op.count
        expected = {category: count * c.runs for category, count in counts.items()}
        if c.work:
            expected["workspace_prep"] = c.runs
        assert c.gate_breakdown == expected, (n, t)
        checked += 1
    assert checked >= 4


def _without_readout(algorithm, t, last):
    """The algorithm at n=4 with ``last`` in place of its readout Hadamard, or with no last op when ``last`` is None."""
    c = circuit(algorithm, 4, t)
    ops = c.ops[:-1] + (() if last is None else (last,))
    return replace(c, ops=ops)


@pytest.mark.parametrize(
    "algorithm,t,last,named",
    [
        ("alg1", None, None, "op 3 (oracle oracle_calls)"),
        ("alg2", 2, None, "op 5 (oracle oracle_calls)"),
        ("dj", None, algorithms._hadamard(range(1, 5)), "op 3 (hadamard hadamard_layers)"),
        ("err-4node", None, algorithms._hadamard(range(1)), "op 4 (hadamard hadamard_layers)"),
    ],
    ids=["alg1-dropped", "alg2-dropped", "dj-off-the-inputs", "err-4node-part-of-the-inputs"],
)
def test_a_description_not_ending_with_its_readout_is_refused(algorithm, t, last, named, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a state was allocated")

    monkeypatch.setattr(algorithms, "init_zero", refuse)
    monkeypatch.setattr(sim, "init_zero", refuse)
    c = _without_readout(algorithm, t, last)
    rows = np.zeros((1, 1 << (4 - (c.t or 0)), 1 << (c.t or 0)), dtype=np.int64)
    with pytest.raises(ValueError, match="^" + re.escape(named)):
        _execute(c, rows)
    with pytest.raises(ValueError, match="^" + re.escape(named)):
        pattern_table(_without_readout(algorithm, t, last))


def test_a_replaced_description_compiles_its_own_ops():
    # The compiled steps are not copied with the description: a copy cut to
    # no readout is refused after the full circuit has run and compiled.
    c = circuit("alg1", 4)
    rows = np.zeros((1, 1 << (4 - c.t), 1 << c.t), dtype=np.int64)
    (p,), _, _ = _execute(c, rows)
    assert p == pytest.approx(1.0, abs=1e-12) and "steps" in vars(c)
    with pytest.raises(ValueError, match="^" + re.escape("op 3 (oracle oracle_calls)")):
        _execute(replace(c, ops=c.ops[:-1]), rows)


def _literal_alg3_p_constant(f, t):
    d = Decomposition(f, t)
    n = f.n
    pairs = 1 << (t - 1)
    base = n - t
    q = base + 3 * pairs + 3 * t + 2
    u = tuple(range(base))
    value_w = [base + 3 * p for p in range(pairs)]
    xor_w = [base + 3 * p + 1 for p in range(pairs)]
    and_w = [base + 3 * p + 2 for p in range(pairs)]
    k_reg = tuple(base + 3 * pairs + i for i in range(t))
    e_reg = tuple(base + 3 * pairs + t + i for i in range(t))
    c_reg = tuple(base + 3 * pairs + 2 * t + i for i in range(t + 1))
    decision = q - 1

    forward = []
    for p in range(pairs):
        forward.extend(
            [
                build_oracle(d, 2 * p, u, value_w[p]),
                build_oracle(d, 2 * p + 1, u, xor_w[p]),
                build_ccnot(value_w[p], xor_w[p], and_w[p]),
                build_cnot(value_w[p], xor_w[p]),
            ]
        )
    forward += [build_A(t, tuple(xor_w), k_reg), build_A(t, tuple(and_w), e_reg), build_V(t, k_reg, e_reg, c_reg)]

    s = init_zero(q, support=True)
    apply_hadamard(s, u)
    for gate in forward:
        apply_permutation(s, gate)
    apply_block_rotation(s, build_Rprime(t, c_reg, decision))
    for gate in reversed(forward):
        apply_permutation(s, gate)

    rec = measure(s, (decision,))
    (p0,) = rec.probability(0)
    if p0 < 1e-15:
        return 0.0
    branch = rec.collapse(0)
    apply_hadamard(branch, u)
    return p0 * measure(branch, u).probability(0)[0]


def x_layer(c):
    """dj's one fixed gate, as the executor compiled it: one XOR layer."""
    (layer,) = [step[1] for step in c.steps if step[0] == "xor"]
    return layer


def test_index_caches_stay_within_the_cache_width():
    # dj at n=20 runs dense on 21 qubits, one above the cache width: neither
    # the basis-index cache nor its X gate nor a start row may keep a
    # 2^21-entry array once the run is over.
    wide = circuit("dj", 20)
    assert wide.q == 21 and not wide.support
    _execute(wide, np.zeros((1, 1 << 20, 1), dtype=np.int64))
    assert max(sim._INDEX_CACHE, default=0) <= sim._DEST_CACHE_MAX_Q
    assert wide.start is None
    # At any width the X gate's layer holds only a one-entry flip table.
    small = circuit("dj", 4)
    _execute(small, np.zeros((1, 16, 1), dtype=np.int64))
    for c in (wide, small):
        assert x_layer(c).flip.size == 1 and not x_layer(c).composed
    # Below the width the circuit keeps its start row.
    assert small.start is not None and small.start[1].amps.shape == (1, 1 << small.q)


class TestErroneousMultinode:
    def test_counterexample_product_is_zero(self, xor_kernel_example):
        # subfunction weights (2,1,2,3): two balanced subfunctions zero the product
        report = run_named("err-multi", xor_kernel_example, 2)
        assert report.p_constant == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_function(self):
        report = run_named("err-multi", make_function(4, [0] * 16), 2)
        assert report.p_constant == pytest.approx(1.0, abs=1e-12)

    def test_balanced_function_with_constant_subfunctions_fails_certainly(self):
        # f(uw) = parity of w: balanced overall, every subfunction constant
        table = [bin(x & 3).count("1") % 2 for x in range(16)]
        f = make_function(4, table)
        assert f.promise is Promise.BALANCED
        report = run_named("err-multi", f, 2)
        assert report.p_constant == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == "constant"  # wrong with certainty

    def test_per_node_log(self, xor_kernel_example):
        report = run_named("err-multi", xor_kernel_example, 2)
        nodes = [e for e in report.branch_log if e.get("stage") == "node_measurement"]
        assert [e["w"] for e in nodes] == ["00", "01", "10", "11"]
        assert report.q_used == 3  # per-node register width


class TestErroneous4NodeXor:
    def test_counterexample_quarter(self, xor_kernel_example):
        report = run_named("err-4node", xor_kernel_example)
        assert report.p_constant == pytest.approx(0.25, abs=1e-12)
        assert not report.verdict_exact

    def test_all_zero(self):
        report = run_named("err-4node", make_function(4, [0] * 16))
        assert report.p_constant == pytest.approx(1.0, abs=1e-12)

    def test_exact_on_both_constants(self):
        for bit in (0, 1):
            report = run_named("err-4node", make_function(4, [bit] * 16))
            assert report.p_constant == pytest.approx(1.0, abs=1e-12)
            assert report.verdict_exact

    def test_arity_bound(self):
        with pytest.raises(ValueError):
            run_named("err-4node", make_function(2, [0, 1, 1, 0]))

    def test_uses_reduced_register(self, xor_kernel_example):
        report = run_named("err-4node", xor_kernel_example)
        assert report.q_used == 3
        assert report.gate_count == 7


class TestProbabilityOracle:
    def test_alg2_worked_example(self, delta_example):
        report = run_named("alg2", delta_example, 2)
        assert probability_oracle(report, delta_example) == pytest.approx(0.0, abs=1e-15)

    def test_alg1_all_ones(self):
        f = make_function(3, [1] * 8)
        report = run_named("alg1", f)
        assert probability_oracle(report, f) == pytest.approx(1.0, abs=1e-15)

    def test_random_promise_functions_agree(self):
        rng = np.random.default_rng(23)
        cases = [random_balanced_table(4, rng) for _ in range(30)]
        cases += [make_function(4, [0] * 16), make_function(4, [1] * 16)]
        for f in cases:
            probability_oracle(run_named("dj", f), f)
            probability_oracle(run_named("alg1", f), f)
            for t in (1, 2):
                probability_oracle(run_named("alg2", f, t), f)
                probability_oracle(run_named("alg3", f, t), f)
                probability_oracle(run_named("err-multi", f, t), f)
            probability_oracle(run_named("err-4node", f), f)

    def test_mismatch_raises(self, delta_example):
        report = run_named("alg2", delta_example, 2)
        report.p_constant = 0.5
        with pytest.raises(InvariantBreach):
            probability_oracle(report, delta_example)

    def test_t_consistency_enforced(self, delta_example):
        report = run_named("alg2", delta_example, 2)
        with pytest.raises(ValueError):
            probability_oracle(report, delta_example, t=1)


class TestRunNamed:
    def test_dispatch(self, two_node_example):
        assert run_named("dj", two_node_example).algorithm == "dj"
        assert run_named("alg1", two_node_example).algorithm == "alg1"
        assert run_named("alg2", two_node_example, 1).algorithm == "alg2"

    @pytest.mark.parametrize(
        "name,t",
        [("alg1", 2), ("alg2", None), ("alg3", None), ("err-multi", None), ("err-4node", 1), ("nosuch", 1), ("dj", 1)],
    )
    def test_invalid_combinations(self, two_node_example, name, t):
        with pytest.raises(ValueError):
            run_named(name, two_node_example, t)

    @pytest.mark.parametrize("n", [0, -1])
    def test_arity_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"arity n must be at least 1, got n={n}"):
            circuit("dj", n)

    def test_circuit_wider_than_the_simulator_rejected(self):
        # alg3 at n=12, t=6 needs 6 + 96 + 18 + 2 = 122 qubits: no int64 index holds them
        with pytest.raises(ValueError, match="needs 122 qubits; the simulator holds at most 62"):
            run_named("alg3", make_function(12, [0] * 4096), 6)

    def test_support_table_larger_than_the_simulator_rejected(self):
        # alg2 at n=10, t=5 fits 45 qubits, but U reads 32 control wires: a 2^32-entry table
        with pytest.raises(ValueError, match="needs a 2\\^32-entry array"):
            run_named("alg2", make_function(10, [0] * 1024), 5)


def test_distributed_verdicts_agree_with_single_node():
    rng = np.random.default_rng(31)
    cases = [random_balanced_table(4, rng) for _ in range(25)]
    cases += [make_function(4, [0] * 16), make_function(4, [1] * 16)]
    for f in cases:
        expected = run_named("dj", f).verdict
        assert run_named("alg1", f).verdict == expected
        for t in (1, 2):
            assert run_named("alg2", f, t).verdict == expected
            assert run_named("alg3", f, t).verdict == expected


def test_pairing_circuit_at_three_suffix_bits():
    # 24 qubits, held as a support state of at most 2^3 entries
    report = run_named("alg3", make_function(4, [0] * 16), 3)
    assert report.q_used == 4 + 12 + 8
    assert report.p_constant == pytest.approx(1.0, abs=1e-12)
    assert report.ancilla_zero_prob == pytest.approx(1.0, abs=1e-12)


def test_probabilities_always_complementary():
    rng = np.random.default_rng(29)
    for _ in range(10):
        f = random_balanced_table(3, rng)
        for report in (run_named("dj", f), run_named("alg1", f), run_named("alg2", f, 1), run_named("alg3", f, 2)):
            assert report.p_constant + report.p_balanced == pytest.approx(1.0, abs=1e-12)
