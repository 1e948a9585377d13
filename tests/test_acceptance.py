"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The exhaustive n=4 sweeps dominate the runtime (a few minutes
on one core).
"""

import math

import numpy as np
import pytest

from djsim import (
    Decomposition,
    enumerate_promise_functions,
    make_function,
    random_balanced_table,
)
from djsim.algorithms import probability_oracle, run_named
from djsim.analysis import (
    mean_simulated_misid,
    multinode_misid_probability,
    per_node_success_prob,
    resource_table,
    two_node_misid_probability,
    verify_sweep,
)
from djsim.gates import build_A, build_Aprime, build_R, build_Rprime, build_U, build_V
from djsim.sim import apply_permutation, init_zero
from tests.conftest import PAIR_TABLE, XOR_KERNEL_TABLE
from tests.dense_reference import rotated

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-10


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_promise_functions(count: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    fns = [make_function(n, [0] * (1 << n)), make_function(n, [1] * (1 << n))]
    fns += [random_balanced_table(n, rng) for _ in range(count - 2)]
    return fns


class TestCriterion1Exactness:
    def test_two_node_sweep(self):
        summary = verify_sweep(3, 1, "alg1")
        ok = summary.functions_checked == 72 and not summary.failures
        report("1a", ok, f"alg1 n=3 t=1: {summary.passed}/{summary.functions_checked} exact")

    @pytest.mark.parametrize("t", [1, 2])
    def test_multinode_sum_sweep(self, t):
        summary = verify_sweep(4, t, "alg2")
        ok = summary.functions_checked == 12872 and not summary.failures
        report(f"1b(t={t})", ok, f"alg2 n=4 t={t}: {summary.passed}/{summary.functions_checked} exact")

    def test_pairing_sweep_t1(self):
        summary = verify_sweep(4, 1, "alg3")
        ok = summary.functions_checked == 12872 and not summary.failures
        report("1c(t=1)", ok, f"alg3 n=4 t=1: {summary.passed}/{summary.functions_checked} exact")

    def test_pairing_sweep_t2(self, alg3_t2_sweep):
        bad = [
            promise
            for promise, a, _ in alg3_t2_sweep
            if a.verdict != promise or not a.verdict_exact or max(a.p_constant, a.p_balanced) < 1 - TOL_EXACT
        ]
        ok = len(alg3_t2_sweep) == 12872 and not bad
        report("1c(t=2)", ok, f"alg3 n=4 t=2: {len(alg3_t2_sweep) - len(bad)}/{len(alg3_t2_sweep)} exact")


class TestCriterion2DJBaseline:
    def test_exhaustive_dj(self):
        checked = 0
        ok = True
        for n in (1, 2, 3, 4):
            for f in enumerate_promise_functions(n):
                r = run_named("dj", f)
                checked += 1
                if (
                    r.verdict != f.promise.value
                    or not r.verdict_exact
                    or r.gate_breakdown["oracle_calls"] != 1
                    or r.q_used != n + 1
                ):
                    ok = False
        report("2", ok, f"single-node baseline exact on {checked} functions (one query, n+1 qubits)")


class TestCriterion3Counterexample:
    def test_four_node_baseline_quarter_and_exact_recovery(self):
        f = make_function(4, XOR_KERNEL_TABLE)
        r_bad = run_named("err-4node", f)
        r2 = run_named("alg2", f, 2)
        r3 = run_named("alg3", f, 2)
        ok = (
            abs(r_bad.p_constant - 0.25) <= TOL_EXACT
            and abs(r2.p_balanced - 1.0) <= TOL_EXACT
            and abs(r3.p_balanced - 1.0) <= TOL_EXACT
        )
        report(
            "3",
            ok,
            f"4-node baseline p_constant={r_bad.p_constant:.15f} (target 0.25); "
            f"alg2/alg3 recover balanced with p={r2.p_balanced:.15f}/{r3.p_balanced:.15f}",
        )


class TestCriterion4HypergeometricOracle:
    def test_formula_equals_ensemble_mean(self):
        formula = multinode_misid_probability(4, 2)
        simulated = mean_simulated_misid(4, 2)
        ok = abs(formula - simulated) <= TOL_ORACLE
        report("4a", ok, f"misid formula {formula:.12e} vs simulated mean {simulated:.12e}")

    def test_per_node_probability_matches_simulation_for_every_weight(self):
        ok = True
        for k in range(5):
            expected = per_node_success_prob(k, 4, 2)
            for ones in _tables_of_weight(4, k):
                r = run_named("dj", make_function(2, ones))
                if abs(r.p_constant - expected) > TOL_EXACT:
                    ok = False
        report("4b", ok, "per-node all-zero probability matches simulation for every subfunction weight")


def _tables_of_weight(size, k):
    from itertools import combinations

    for positions in combinations(range(size), k):
        bits = [0] * size
        for p in positions:
            bits[p] = 1
        yield bits


class TestCriterion5TwoNodeConsistency:
    def test_specialization_and_hand_value(self):
        ok = all(
            abs(two_node_misid_probability(n) - multinode_misid_probability(n, 1)) <= TOL_EXACT for n in (2, 3, 4)
        )
        hand = abs(two_node_misid_probability(2) - 1 / 3) <= 1e-15
        report("5", ok and hand, "two-node formula equals t=1 specialization (n=2,3,4) and 1/3 at n=2")


class TestCriterion6ResourceTable:
    def test_closed_forms_and_run_reports(self):
        ok = True
        for t in (1, 2, 3):
            n = t + 2
            table = resource_table(t, n)
            a1, a2, a3 = (table.algorithms[k] for k in ("alg1", "alg2", "alg3"))
            ok &= a1["total_qubits"] == n and a1["gate_count"] == 5
            ok &= a2["total_qubits"] == n + 2**t + 3 and a2["gate_count"] == 2 ** (t + 1) + 6
            ok &= a3["total_qubits"] == n + 3 * 2 ** (t - 1) + 2 * t + 2 and a3["gate_count"] == 2 ** (t + 2) + 10
            ok &= a2["operator_widths"] == {"U": 2**t + t + 2, "R": t + 3}
            ok &= a3["operator_widths"] == {
                "A": 3 * 2 ** (t - 1) + t - 1,
                "V": 3 * t + 1,
                "R'": t + 2,
                "A'": 2 ** (t - 1) + t,
            }
            ok &= table.oracle_qubits == {"dj": n + 1, "distributed": n - t + 1}
        # executed circuits report the same numbers; runs and table both read
        # the circuit description, so the runs are checked against the
        # closed forms above, not against the table
        f = make_function(4, [0] * 16)
        r1 = run_named("alg1", f)
        ok &= (r1.q_used, r1.gate_count) == (4, 5)
        for t in (1, 2, 3):
            r2 = run_named("alg2", f, t)
            ok &= (r2.q_used, r2.gate_count) == (4 + 2**t + 3, 2 ** (t + 1) + 6)
        for t in (1, 2):
            r3 = run_named("alg3", f, t)
            ok &= (r3.q_used, r3.gate_count) == (4 + 3 * 2 ** (t - 1) + 2 * t + 2, 2 ** (t + 2) + 10)
        report("6", ok, "qubit totals, gate counts, and operator widths match the closed forms for t in {1,2,3}")


class TestCriterion7OperatorUnitarity:
    STATES_PER_GATE = 1000

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_norm_drift_and_involutions(self, t):
        nodes, pairs = 1 << t, 1 << (t - 1)
        gates = {
            "U": (build_U(t, tuple(range(nodes)), tuple(nodes + i for i in range(t + 2))), nodes + t + 2),
            "A": (
                build_A(t, tuple(3 * p for p in range(pairs)), tuple(3 * pairs + i for i in range(t))),
                3 * pairs + t,
            ),
            "A'": (build_Aprime(t, tuple(range(pairs)), tuple(pairs + i for i in range(t))), pairs + t),
            "V": (
                build_V(t, tuple(range(t)), tuple(t + i for i in range(t)), tuple(2 * t + i for i in range(t + 1))),
                3 * t + 1,
            ),
            "R": (build_R(t, tuple(range(t + 2)), t + 2), t + 3),
            "R'": (build_Rprime(t, tuple(range(t + 1)), t + 1), t + 2),
        }
        rng = np.random.default_rng(1000 + t)
        worst = 0.0
        ok = True
        for name, (gate, q) in gates.items():
            dim = 1 << q
            batch = rng.normal(size=(self.STATES_PER_GATE, dim))
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            for row in batch:
                s = init_zero(q)
                s.amps = row[None].copy()
                if gate.kind == "rotation":
                    # On any state of the register: the tests' dense rotation, from the gate's tables.
                    s.amps = rotated(gate, s.amps)
                else:
                    apply_permutation(s, gate)
                worst = max(worst, abs(np.linalg.norm(s.amps[0]) - 1.0))
            if gate.kind == "permutation":
                table = gate.action_table()
                if not np.array_equal(table[table], np.arange(len(table))):
                    ok = False
            else:
                # Row i of the rotated identity is the image of basis state i.
                m = rotated(gate, np.eye(dim))
                if not np.allclose(m @ m.T, np.eye(dim), rtol=0.0, atol=TOL_EXACT):
                    ok = False
        ok &= worst < TOL_EXACT
        report(f"7(t={t})", ok, f"1000 random states per operator, worst norm drift {worst:.2e}; involutions and rotation blocks verified")


class TestCriterion8MidCircuitRestoration:
    def test_ancillas_return_to_zero(self):
        worst = 1.0
        for f in random_promise_functions(200, 4, seed=81):
            for t in (1, 2):
                worst = min(worst, run_named("alg2", f, t).ancilla_zero_prob)
                worst = min(worst, run_named("alg3", f, t).ancilla_zero_prob)
        ok = worst >= 1.0 - TOL_EXACT
        report("8", ok, f"work registers all-zero after uncompute; worst probability {worst:.15f}")


class TestCriterion9ClosedFormOracle:
    def test_simulated_probabilities_match_counting_forms(self):
        ok = True
        for f in random_promise_functions(200, 4, seed=82):
            try:
                probability_oracle(run_named("alg1", f), f, tol=TOL_ORACLE)
                for t in (1, 2):
                    probability_oracle(run_named("alg2", f, t), f, tol=TOL_ORACLE)
                    probability_oracle(run_named("alg3", f, t), f, tol=TOL_ORACLE)
            except AssertionError:
                ok = False
        report("9", ok, "simulated p_constant matches the counting-statistic closed forms on 200 promise functions")


class TestCriterion10AdderLayoutEquivalence:
    def test_exhaustive_equivalence(self, alg3_t2_sweep):
        worst = 0.0
        for _, a, b in alg3_t2_sweep:
            worst = max(worst, abs(a.p_constant - b.p_constant), abs(a.p_balanced - b.p_balanced))
        ok = worst <= TOL_EXACT and len(alg3_t2_sweep) == 12872
        report("10", ok, f"interleaved vs compact adder identical over 12872 functions; worst gap {worst:.2e}")
