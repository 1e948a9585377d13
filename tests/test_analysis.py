import math

import numpy as np
import pytest

from djsim import analysis, make_function, random_balanced_table
from djsim.algorithms import InvariantBreach, run_dj, run_erroneous_multinode, run_named
from djsim.analysis import (
    ErrorModel,
    mean_simulated_misid,
    multinode_misid_probability,
    per_node_success_prob,
    resource_table,
    two_node_misid_probability,
    verify_sweep,
)
from djsim.boolfn import Decomposition, enumerate_promise_functions


class TestPerNodeSuccess:
    def test_constant_zero_subfunction(self):
        assert per_node_success_prob(0, 4, 2) == 1.0

    def test_balanced_subfunction(self):
        assert per_node_success_prob(2, 4, 2) == 0.0  # k = N / 2^{t+1}

    def test_quarter(self):
        assert per_node_success_prob(1, 4, 2) == pytest.approx(0.25, abs=0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            per_node_success_prob(5, 4, 2)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_matches_simulated_single_node(self, k):
        # any subfunction of weight k on 2 inputs gives the same all-zero probability
        bits = [1] * k + [0] * (4 - k)
        report = run_dj(make_function(2, bits))
        assert per_node_success_prob(k, 4, 2) == pytest.approx(report.p_constant, abs=1e-12)


class TestErrorModel:
    @pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_weights_sum_to_one(self, n, t):
        total = sum(w for _, w in ErrorModel(n, t).configurations())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_configurations_lexicographic_and_bounded(self):
        model = ErrorModel(4, 2)
        configs = [c for c, _ in model.configurations()]
        assert configs == sorted(configs)
        for c in configs:
            assert sum(c) == 8 and all(0 <= k <= 4 for k in c)

    @pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (7, 2)])
    def test_configuration_count_is_the_enumerated_count(self, n, t):
        assert ErrorModel(n, t).configuration_count == sum(1 for _ in ErrorModel(n, t).configurations())

    def test_models_at_the_bounds_are_accepted(self):
        # The largest accepted arity at t = 1, 2 and 3: n = 13, n = 9 (1,431,169
        # configurations) and n = 5 (38,165); at t >= 4 even n = t + 1 has
        # 5,196,627.  One more bit of n is rejected.
        assert ErrorModel(9, 2).configuration_count == 1_431_169 <= analysis._ERROR_MODEL_MAX_CONFIGURATIONS
        for n, t in ((13, 1), (9, 2), (5, 3)):
            analysis._check_error_model(n, t)
        for n, t in ((14, 1), (10, 2), (6, 3), (5, 4)):
            with pytest.raises(ValueError):
                analysis._check_error_model(n, t)


class TestMisidProbability:
    def test_hand_enumerated_value(self):
        # (k0,k1) in {(0,2),(1,1),(2,0)}: (1 + 0 + 1)/6 * ... = 1/3
        assert multinode_misid_probability(2, 1) == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_strictly_positive(self, n, t):
        assert multinode_misid_probability(n, t) > 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_node_specialization(self, n):
        assert two_node_misid_probability(n) == pytest.approx(multinode_misid_probability(n, 1), abs=1e-12)

    def test_two_node_exact_third(self):
        assert two_node_misid_probability(2) == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2)])
    def test_matches_ensemble_mean(self, n, t):
        assert multinode_misid_probability(n, t) == pytest.approx(mean_simulated_misid(n, t), abs=1e-10)

    @pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2)])
    def test_ensemble_mean_is_the_sequential_mean_of_the_driver(self, n, t):
        total, count = 0.0, 0
        for f in enumerate_promise_functions(n):
            if f.promise.value == "balanced":
                total += run_erroneous_multinode(f, t).p_constant
                count += 1
        assert mean_simulated_misid(n, t) == total / count

    def test_two_node_specialization_matches_n4_ensemble_mean(self):
        assert multinode_misid_probability(4, 1) == pytest.approx(mean_simulated_misid(4, 1), abs=1e-10)

    def test_two_node_matches_full_driver_mean_small(self):
        reports = [
            run_erroneous_multinode(f, 1)
            for f in enumerate_promise_functions(3)
            if f.promise.value == "balanced"
        ]
        mean = sum(r.p_constant for r in reports) / len(reports)
        assert two_node_misid_probability(3) == pytest.approx(mean, abs=1e-10)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            multinode_misid_probability(3, 3)


class TestResourceTable:
    def test_two_node_row(self):
        table = resource_table(1, 5)
        assert table.algorithms["alg1"] == {"total_qubits": 5, "gate_count": 5, "operator_widths": {"Z": 1}}

    def test_multinode_row(self):
        table = resource_table(2, 6)
        alg2 = table.algorithms["alg2"]
        assert alg2["total_qubits"] == 13 and alg2["gate_count"] == 14
        assert alg2["operator_widths"] == {"U": 8, "R": 5}

    def test_pairing_row_widths(self):
        table = resource_table(2, 6)
        alg3 = table.algorithms["alg3"]
        assert alg3["operator_widths"] == {"A": 7, "V": 7, "R'": 4, "A'": 4}

    def test_oracle_widths(self):
        table = resource_table(2, 6)
        assert table.oracle_qubits == {"dj": 7, "distributed": 5}

    @pytest.mark.parametrize("t", [1, 2])
    def test_matches_executed_runs(self, t):
        # Runs and table both read the circuit description, so the runs are
        # checked against the closed forms of the paper, written out here.
        n = 4
        f = make_function(n, [0] * 16)
        closed = {
            "alg1": (n, 5),
            "alg2": (n + 2**t + 3, 2 ** (t + 1) + 6),
            "alg3": (n + 3 * 2 ** (t - 1) + 2 * t + 2, 2 ** (t + 2) + 10),
        }
        for name, run_t in (("alg1", None), ("alg2", t), ("alg3", t)):
            if name == "alg1" and t != 1:
                continue
            report = run_named(name, f, run_t)
            assert (report.q_used, report.gate_count) == closed[name]

    def test_bounds(self):
        with pytest.raises(ValueError):
            resource_table(0, 3)
        with pytest.raises(ValueError):
            resource_table(3, 3)


class TestVerifySweep:
    def test_two_node_sweep_clean(self):
        summary = verify_sweep(3, 1, "alg1")
        assert summary.functions_checked == 72
        assert summary.failures == []
        assert summary.passed == 72
        assert summary.wall_time > 0

    def test_erroneous_sweep_finds_failures(self):
        summary = verify_sweep(3, 1, "err-multi")
        assert summary.functions_checked == 72
        assert summary.failures
        first = summary.failures[0]
        assert first["promise"] == "balanced"
        assert not first["verdict_exact"] or first["verdict"] != "balanced"

    def test_single_node_sweep_clean(self):
        summary = verify_sweep(3, None, "dj")
        assert summary.failures == []

    def test_both_erroneous_baselines_fail_at_n4(self):
        multi = verify_sweep(4, 2, "err-multi")
        xor4 = verify_sweep(4, 2, "err-4node")
        assert multi.functions_checked == xor4.functions_checked == 12872
        assert multi.failures and xor4.failures

    def test_parallel_matches_serial(self, monkeypatch):
        serial = verify_sweep(2, 1, "alg2", jobs=1)
        parallel = verify_sweep(2, 1, "alg2", jobs=2)
        assert serial.functions_checked == parallel.functions_checked == 8
        assert serial.failures == parallel.failures == []
        # A sweep with findings, cut into nine chunks: both paths must report
        # the same failures in the same order.
        from djsim import analysis

        monkeypatch.setattr(analysis, "_SWEEP_CHUNK", 8)
        serial = verify_sweep(3, 1, "err-multi", jobs=1)
        parallel = verify_sweep(3, 1, "err-multi", jobs=2)
        assert serial.functions_checked == parallel.functions_checked == 72
        assert serial.failures
        assert serial.failures == parallel.failures

    def test_no_more_workers_than_chunks(self, monkeypatch):
        # The pool records the size asked for and checks the chunks here: no process starts.
        import multiprocessing

        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        one_chunk = verify_sweep(2, None, "dj", jobs=8)
        assert sizes == [] and one_chunk.functions_checked == 8
        serial = verify_sweep(3, 1, "err-multi", jobs=1)
        monkeypatch.setattr(analysis, "_SWEEP_CHUNK", 30)  # 72 functions: three chunks
        for jobs, workers in ((8, 3), (2, 2)):
            parallel = verify_sweep(3, 1, "err-multi", jobs=jobs)
            assert sizes[-1] == workers
            assert parallel.functions_checked == 72 and parallel.failures == serial.failures
        assert sizes == [3, 2]

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_every_worker_gets_a_message(self, jobs):
        for chunks in range(1, 200):
            size = analysis._chunks_per_message(chunks, jobs)
            assert 1 <= size <= analysis._CHUNKS_PER_TASK
            if chunks >= jobs:
                assert -(-chunks // size) >= jobs

    @pytest.mark.parametrize("alg,t", [("dj", None), ("alg1", None), ("alg2", 2), ("alg3", 2)])
    def test_messages_are_sized_by_the_real_chunk_count(self, monkeypatch, alg, t):
        seen = []
        real = analysis._sweep_results

        def spy(chunks, jobs, count):
            seen.append(count)
            return real(chunks, jobs, count)

        monkeypatch.setattr(analysis, "_sweep_results", spy)
        verify_sweep(4, t, alg)
        chunks = analysis._sweep_chunks(4, analysis._SWEEP_CHUNK)
        assert seen == [sum(1 for _ in chunks)]
        assert seen[0] >= 2  # so ``--jobs 2`` at n=4 reaches two workers

    def test_record_shape(self):
        record = verify_sweep(2, 1, "alg1").to_record()
        assert record["algorithm"] == "alg1"
        assert set(record) >= {"n", "t", "functions_checked", "passed", "failure_count", "failures", "wall_time_s"}
        without_time = verify_sweep(2, 1, "alg1").to_record(include_wall_time=False)
        assert "wall_time_s" not in without_time


def test_chunk_errors_stop_the_sweep(monkeypatch):
    # verify_sweep rejects every bad configuration before the chunks, so an
    # error in a chunk's check is a fault of the program: the sweep stops,
    # naming the chunk.
    def broken_batch(*args):
        raise RuntimeError("synthetic batch failure")

    monkeypatch.setattr(analysis, "_chunk_failures", broken_batch)
    with pytest.raises(InvariantBreach, match=r"alg2 check of positions 0-7 raised RuntimeError\('synthetic batch failure'\)") as info:
        verify_sweep(2, 1, "alg2")
    assert isinstance(info.value.__cause__, RuntimeError)


def test_invalid_config_aborts_before_sweeping():
    with pytest.raises(ValueError):
        verify_sweep(3, 5, "alg2")
    with pytest.raises(ValueError):
        verify_sweep(3, 1, "nosuch")
