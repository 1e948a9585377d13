import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from djsim import analysis, cli
from djsim.analysis import VerificationSummary
from tests.conftest import DELTA_TABLE, TWO_NODE_TABLE, XOR_KERNEL_TABLE


def write_table(tmp_path, n, bits, name="fn.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "bits": "".join(map(str, bits))}))
    return str(path)


def run_cli(capsys, *args):
    status = cli.main(list(args))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *args):
    status, out = run_cli(capsys, *args, "--deterministic")
    return status, json.loads(out)


class TestClassify:
    def test_worked_delta_example(self, tmp_path, capsys):
        path = write_table(tmp_path, 4, DELTA_TABLE)
        status, payload = run_json(capsys, "classify", "--input", path, "--t", "2")
        assert status == 0
        assert payload["promise"] == "balanced"
        assert payload["delta"] == [0, -2, 2, 0]
        assert payload["verdicts"]["theorem2"] == "balanced"
        assert not payload["promise_violated"]

    def test_all_zero_table(self, tmp_path, capsys):
        path = write_table(tmp_path, 3, [0] * 8)
        status, payload = run_json(capsys, "classify", "--input", path, "--t", "1")
        assert status == 0
        assert payload["promise"] == "constant"
        assert payload["verdicts"]["theorem1"] == "constant"
        assert payload["witness"] is None

    def test_promise_violation_flagged_exit_zero(self, tmp_path, capsys):
        path = write_table(tmp_path, 2, [0, 0, 1, 0])
        status, payload = run_json(capsys, "classify", "--input", path, "--t", "1")
        assert status == 0
        assert payload["promise"] == "unknown"
        assert payload["promise_violated"] is True

    def test_hex_input(self, tmp_path, capsys):
        path = tmp_path / "hex.json"
        path.write_text(json.dumps({"n": 4, "hex": "a2b3"}))
        status, payload = run_json(capsys, "classify", "--input", str(path), "--t", "2")
        assert status == 0
        bits = format(0xA2B3, "016b")
        assert payload["function_id"] == "4:a2b3"
        assert payload["promise"] == ("balanced" if bits.count("1") == 8 else "unknown")

    @pytest.mark.parametrize("hexstr", ["0x0f", "+0ff", " 0ff", "0_ff", "0\n0f", "00f\u0663"])
    def test_non_hex_characters_rejected(self, tmp_path, capsys, hexstr):
        # int(s, 16) takes each of these, and the first four ran as 4:000f or 4:00ff.
        path = tmp_path / "hex.json"
        path.write_text(json.dumps({"n": 4, "hex": hexstr}))
        assert cli.main(["run", "--input", str(path), "--alg", "dj"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'hex' is not valid hexadecimal") and captured.err.count("\n") == 1

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        status = cli.main(["classify", "--input", str(path)])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_wrong_length_bits(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 3, "bits": "0101"}))
        assert cli.main(["classify", "--input", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("bits", ["01a0", "0 10", "01\u00e90", "012"])
    def test_non_bit_characters_rejected(self, tmp_path, bits):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "bits": bits}))
        with pytest.raises(cli.UsageError, match="'bits' must be a string of 0/1 characters"):
            cli.load_truth_table(str(path))

    def test_boolean_arity_rejected(self, tmp_path, capsys):
        # JSON true loads as Python True, which is an int equal to 1.
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"n": True, "bits": "01"}))
        assert cli.main(["run", "--input", str(path), "--alg", "dj"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'n' must be an integer in [1, 24]\n"

    def test_both_sources_rejected(self, tmp_path, capsys):
        path = write_table(tmp_path, 2, [0, 1, 1, 0])
        assert cli.main(["classify", "--input", path, "--gen", "zeros", "--n", "2"]) == 1
        capsys.readouterr()


    @pytest.mark.parametrize(
        "command,source,option",
        [
            pytest.param("classify", "input", "--n", id="classify --input --n"),
            pytest.param("run", "input", "--n", id="run --input --n"),
            pytest.param("classify", "input", "--seed", id="classify --input --seed"),
            pytest.param("classify", "zeros", "--seed", id="classify --gen zeros --seed"),
            pytest.param("classify", "ones", "--seed", id="classify --gen ones --seed"),
        ],
    )
    def test_an_option_the_source_does_not_read_is_a_usage_error(self, tmp_path, capsys, command, source, option):
        if source == "input":
            argv = [command, "--input", write_table(tmp_path, 3, [0, 1, 1, 0, 1, 0, 0, 1])]
        else:
            argv = [command, "--gen", source, "--n", "3"]
        if command == "run":
            argv += ["--alg", "dj"]
        assert cli.main([*argv, "--deterministic"]) == 0
        capsys.readouterr()
        assert cli.main([*argv, option, "7", "--deterministic"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ") and option in captured.err


class TestRun:
    def test_four_node_counterexample(self, tmp_path, capsys):
        path = write_table(tmp_path, 4, XOR_KERNEL_TABLE)
        status, payload = run_json(capsys, "run", "--input", path, "--alg", "err-4node")
        assert status == 0
        assert payload["p_constant"] == 0.25
        assert payload["verdict"] == "balanced"
        assert payload["p_constant_exact"] is False

    def test_all_zero_alg2(self, capsys):
        status, payload = run_json(capsys, "run", "--gen", "zeros", "--n", "4", "--alg", "alg2", "--t", "2")
        assert status == 0
        assert payload["p_constant"] == 1.0
        assert payload["p_constant_exact"] is True
        assert payload["gate_count"] == 14

    def test_worked_example_alg1(self, tmp_path, capsys):
        path = write_table(tmp_path, 3, TWO_NODE_TABLE)
        status, payload = run_json(capsys, "run", "--input", path, "--alg", "alg1")
        assert status == 0
        assert payload["p_balanced"] == 1.0
        assert payload["verdict"] == "balanced"

    @pytest.mark.parametrize("source", ["input", "zeros", "random"])
    def test_run_reads_seed_with_every_source(self, tmp_path, capsys, source):
        # The sampled shot reads --seed, whatever the input source.
        if source == "input":
            argv = ["--input", write_table(tmp_path, 3, [0, 1, 1, 0, 1, 0, 0, 1])]
        else:
            argv = ["--gen", source, "--n", "3"]
        status, payload = run_json(capsys, "run", *argv, "--alg", "dj", "--seed", "4")
        assert status == 0 and payload["sampled_shot"]["seed"] == 4

    def test_sampled_shot_deterministic(self, tmp_path, capsys):
        path = write_table(tmp_path, 3, TWO_NODE_TABLE)
        _, first = run_json(capsys, "run", "--input", path, "--alg", "alg1", "--seed", "9")
        _, second = run_json(capsys, "run", "--input", path, "--alg", "alg1", "--seed", "9")
        assert first["sampled_shot"] == second["sampled_shot"]
        assert first["sampled_shot"]["verdict"] == "balanced"

    @pytest.mark.parametrize(
        "alg",
        [["--alg", "dj"], ["--alg", "alg2", "--t", "1"], ["--alg", "alg3", "--t", "2"], []],
        ids=["dj", "alg2", "alg3", "no-alg"],
    )
    def test_adder_without_alg3_is_a_usage_error(self, capsys, alg):
        # --adder is no option of run, whatever the algorithm.
        argv = ["run", "--gen", "zeros", "--n", "3", *alg]
        assert cli.main([*argv, "--adder", "compact", "--deterministic"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and "--adder" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_combo(self, capsys):
        assert cli.main(["run", "--gen", "zeros", "--n", "4", "--alg", "alg2"]) == 1
        capsys.readouterr()

    @staticmethod
    def run_capped(*args: str) -> subprocess.CompletedProcess:
        """``djsim`` in a child process capped at 1 GiB of address space, so a
        run that allocates by the register width fails instead of taking GiBs."""

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        argv = [sys.executable, "-m", "djsim.cli", *args]
        return subprocess.run(argv, capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120)

    def test_oversized_circuit_fails_fast(self):
        # alg3 at n=12, t=6 needs 122 qubits, past an int64 basis index.  The
        # width check must reject it before any gate or state exists.
        proc = self.run_capped("run", "--gen", "random", "--n", "12", "--t", "6", "--alg", "alg3")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: alg3 at n=12, t=6 needs 122 qubits; the simulator holds at most 62\n"

    @pytest.mark.parametrize("command", ["run", "classify"])
    @pytest.mark.parametrize("gen", ["zeros", "ones", "random"])
    @pytest.mark.parametrize("n", ["0", "40"])
    def test_generated_arity_out_of_range_fails_fast(self, command, gen, n):
        # n=40 would ask for a 2^40-entry table; the range check comes first.
        extra = ["--alg", "dj"] if command == "run" else ["--t", "1"]
        proc = self.run_capped(command, "--gen", gen, "--n", n, *extra)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: 'n' must be an integer in [1, 24]\n"

    def test_wide_support_circuit_runs(self):
        # alg3 at n=10, t=3 needs 30 qubits, past the dense engine, but keeps
        # at most 2^8 nonzero amplitudes.
        proc = self.run_capped("run", "--gen", "random", "--n", "10", "--t", "3", "--alg", "alg3", "--deterministic")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["q_used"] == 30
        assert payload["verdict"] == "balanced" and payload["verdict_exact"] is True
        assert payload["p_balanced"] == 1.0 and payload["ancilla_zero_prob"] == 1.0

    def test_dj_rejects_a_split_size(self, capsys):
        assert cli.main(["run", "--gen", "zeros", "--n", "3", "--alg", "dj", "--t", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dj takes no split size t\n"

    def test_invariant_breach_exit_code(self, tmp_path, capsys, monkeypatch):
        from djsim.algorithms import InvariantBreach

        path = write_table(tmp_path, 3, TWO_NODE_TABLE)
        monkeypatch.setattr(cli, "probability_oracle", lambda *a, **k: (_ for _ in ()).throw(InvariantBreach("boom")))
        assert cli.main(["run", "--input", path, "--alg", "alg1"]) == 3
        assert "invariant" in capsys.readouterr().err


class TestVerify:
    def test_two_node_sweep(self, capsys):
        status, payload = run_json(capsys, "verify", "--n", "3", "--t", "1", "--alg", "alg1")
        assert status == 0
        assert payload["functions_checked"] == 72
        assert payload["failure_count"] == 0
        assert "wall_time_s" not in payload

    def test_erroneous_findings_exit_zero(self, capsys):
        status, payload = run_json(capsys, "verify", "--n", "3", "--t", "1", "--alg", "err-multi")
        assert status == 0
        assert payload["failure_count"] > 0

    @pytest.mark.parametrize("args", [("--n", "6", "--alg", "dj"), ("--n", "20", "--t", "3", "--alg", "alg3")])
    def test_arity_past_enumeration_fails_fast(self, args):
        # At n=20, t=3 the pattern table would hold 256 rows of 2^18 entries;
        # the arity check comes before it, within a 1 GiB cap.
        proc = TestRun.run_capped("verify", *args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: full enumeration is limited to n <= 5 ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_arity_below_one_rejected(self, capsys, n):
        assert cli.main(["verify", "--n", n, "--alg", "dj"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: arity n must be at least 1, got n={n}\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_chunk_check_that_raises_stops_the_sweep(self, jobs):
        # In a fresh process, so that a worker's output is seen too: one line
        # on stderr, exit 3, no traceback and no warning.
        script = (
            "import sys\n"
            "from djsim import analysis, cli\n"
            "def broken(*args):\n"
            "    raise RuntimeError('synthetic chunk failure')\n"
            "analysis._chunk_failures = broken\n"
            f"sys.exit(cli.main(['verify', '--n', '4', '--t', '2', '--alg', 'alg2', '--jobs', '{jobs}']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("invariant breach: the alg2 check of positions 0-8191 raised RuntimeError('synthetic chunk failure')")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_running_out_of_memory_is_a_usage_error_not_a_breach(self, jobs):
        # The failure records of a large inexact sweep can outgrow the host:
        # that is no fault of the program, so exit 1 with one line, from a
        # worker process too.
        script = (
            "import sys\n"
            "from djsim import analysis, cli\n"
            "def full(*args):\n"
            "    raise MemoryError\n"
            "analysis._chunk_failures = full\n"
            f"sys.exit(cli.main(['verify', '--n', '4', '--alg', 'err-4node', '--jobs', '{jobs}']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: the failure records of err-4node at n=4, t=2 did not fit in memory\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        assert cli.main(["verify", "--n", "2", "--alg", "dj", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_exact_failure_exit_two(self, capsys, monkeypatch):
        broken = VerificationSummary(n=2, t=1, algorithm="alg1", functions_checked=8)
        broken.failures.append({"function": "2:3", "promise": "balanced", "verdict": "constant",
                                "p_constant": 1.0, "verdict_exact": True})
        monkeypatch.setattr(analysis, "verify_sweep", lambda *a, **k: broken)
        status = cli.main(["verify", "--n", "2", "--t", "1", "--alg", "alg1", "--deterministic"])
        capsys.readouterr()
        assert status == 2


class TestErrorProb:
    def test_hand_enumerated_value(self, capsys):
        status, payload = run_json(capsys, "error-prob", "--n", "2", "--t", "1")
        assert status == 0
        assert payload["multinode_misid_probability"] == pytest.approx(1 / 3, rel=1e-11)
        assert payload["two_node_misid_probability"] == pytest.approx(1 / 3, rel=1e-11)

    def test_per_node_table(self, capsys):
        _, payload = run_json(capsys, "error-prob", "--n", "4", "--t", "2")
        assert payload["per_node_success_prob"]["0"] == 1.0
        assert payload["per_node_success_prob"]["2"] == 0.0

    @pytest.mark.parametrize(
        "n,t,reason",
        [
            ("64", "1", "up to n = 13"),  # overflowed math.comb
            ("16", "1", "up to n = 13"),
            ("14", "1", "up to n = 13"),  # the first models past the arity rule
            ("13", "2", "up to n = 12"),
            ("12", "9", "n=12, t=9 is positive but below the smallest double"),
        ],
    )
    def test_models_past_the_bounds_fail_fast(self, capsys, n, t, reason):
        assert cli.main(["error-prob", "--n", n, "--t", t]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("n,t", [("11", "10"), ("5", "4"), ("6", "4"), ("7", "3"), ("10", "2"), ("12", "2")])
    def test_models_once_past_the_bounds_succeed(self, capsys, n, t):
        assert cli.main(["error-prob", "--n", n, "--t", t, "--deterministic"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["multinode_misid_probability"] > 0.0

    def test_the_two_routes_agree_at_every_accepted_arity(self, capsys):
        for n in range(2, 14):
            assert cli.main(["error-prob", "--n", str(n), "--t", "1", "--deterministic"]) == 0
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("route", ["multinode_misid_probability", "two_node_misid_probability"])
    def test_routes_that_disagree_are_a_breach(self, capsys, monkeypatch, route):
        exact = getattr(analysis, route)
        monkeypatch.setattr(analysis, route, lambda *args: exact(*args) * (1 + 1e-9))
        assert cli.main(["error-prob", "--n", "5", "--t", "1", "--deterministic"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invariant breach: at n=5 the two-node sum") and captured.err.count("\n") == 1


class TestResources:
    def test_row_values(self, capsys):
        status, payload = run_json(capsys, "resources", "--t", "2", "--n", "6")
        assert status == 0
        assert payload["algorithms"]["alg2"]["total_qubits"] == 13
        assert payload["algorithms"]["alg2"]["gate_count"] == 14
        assert payload["algorithms"]["alg1"] == {"total_qubits": 6, "gate_count": 5, "operator_widths": {"Z": 1}}

    def test_requires_t(self, capsys):
        assert cli.main(["resources"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ("--t", "63"),
            ("--t", "15000"),
            ("--t", "20000"),
            ("--t", "1", "--n", "9223372036854775808"),
            ("--t", "2", "--n", "10000000000000000000"),
        ],
        ids=" ".join,
    )
    def test_widths_past_what_a_range_can_count_are_a_usage_error(self, capsys, args):
        # len() of a range past 2^63 - 1 entries overflows, and a JSON int past
        # 4,300 digits cannot be printed: circuit() refuses both widths first.
        assert cli.main(["resources", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n and 2^t must be at most 2^62") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "args", [("--t", "62"), ("--t", "62", "--n", str((1 << 62) - 1)), ("--t", "1", "--n", str(1 << 62))], ids=" ".join
    )
    def test_the_widest_countable_widths_are_described(self, capsys, args):
        status, payload = run_json(capsys, "resources", *args)
        assert status == 0 and payload["t"] == int(args[1])


class TestRendering:
    def test_deterministic_json_byte_identical(self, tmp_path, capsys):
        path = write_table(tmp_path, 3, TWO_NODE_TABLE)
        args = ("run", "--input", path, "--alg", "alg1", "--seed", "5", "--deterministic")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_timestamp_present_without_flag(self, capsys):
        status, out = run_cli(capsys, "resources", "--t", "1", "--n", "4")
        assert status == 0
        assert "timestamp" in json.loads(out)

    def test_csv_and_json_payloads_match(self, tmp_path, capsys):
        path = write_table(tmp_path, 3, TWO_NODE_TABLE)
        _, payload = run_json(capsys, "run", "--input", path, "--alg", "alg1")
        _, csv_text = run_cli(capsys, "run", "--input", path, "--alg", "alg1", "--format", "csv", "--deterministic")
        header, row = list(csv.reader(io.StringIO(csv_text)))
        flat = dict(zip(header, row))
        for key, value in cli.flatten_payload(payload):
            rendered = flat[key]
            assert rendered == (value if isinstance(value, str) else json.dumps(value))

    def test_table_format(self, capsys):
        status, out = run_cli(capsys, "resources", "--t", "1", "--n", "4", "--format", "table", "--deterministic")
        assert status == 0
        assert "algorithms.alg1.gate_count = 5" in out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command,args,option",
        [
            pytest.param("classify", ["--gen", "zeros", "--n", "3"], "--jobs", id="classify --jobs"),
            pytest.param("run", ["--gen", "zeros", "--n", "3", "--alg", "dj"], "--jobs", id="run --jobs"),
            pytest.param("verify", ["--n", "2", "--alg", "dj"], "--seed", id="verify --seed"),
            pytest.param("error-prob", ["--n", "3"], "--jobs", id="error-prob --jobs"),
            pytest.param("error-prob", ["--n", "3"], "--seed", id="error-prob --seed"),
            pytest.param("resources", ["--t", "2"], "--jobs", id="resources --jobs"),
            pytest.param("resources", ["--t", "2"], "--seed", id="resources --seed"),
        ],
    )
    def test_an_option_the_subcommand_does_not_read_is_a_usage_error(self, capsys, command, args, option):
        assert cli.main([command, *args, "--deterministic"]) == 0
        capsys.readouterr()
        assert cli.main([command, *args, option, "1", "--deterministic"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {option} 1\n"


class TestGenerators:
    def test_random_balanced_generator_deterministic(self, capsys):
        _, first = run_json(capsys, "classify", "--gen", "random", "--n", "3", "--seed", "7")
        _, second = run_json(capsys, "classify", "--gen", "random", "--n", "3", "--seed", "7")
        assert first["function_id"] == second["function_id"]
        assert first["promise"] == "balanced"

    def test_ones_generator(self, capsys):
        _, payload = run_json(capsys, "classify", "--gen", "ones", "--n", "2")
        assert payload["promise"] == "constant"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["run", "--gen", "random", "--n", "3", "--seed", "-1", "--alg", "dj"], id="run --gen random"),
            pytest.param(["classify", "--gen", "random", "--n", "3", "--seed", "-5"], id="classify --gen random"),
            pytest.param(["run", "--gen", "zeros", "--n", "3", "--seed", "-2", "--alg", "dj"], id="run sampled shot"),
        ],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        # numpy's generators raise on a negative seed; the CLI says so before drawing.
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ") and "--seed" in captured.err


def test_main_calls_in_one_process_match_separate_processes(capsys):
    # main() reuses one parser per process: a call after a usage error must
    # print the bytes, and return the code, of a fresh process.
    calls = [
        ["run", "--gen", "random", "--n", "4", "--t", "2", "--alg", "alg3", "--seed", "5", "--deterministic"],
        ["run", "--gen", "zeros", "--n", "4", "--alg", "nosuch"],
        ["verify", "--n", "3", "--t", "1", "--alg", "alg2", "--deterministic"],
    ]
    in_process = []
    for argv in calls:
        status = cli.main(argv)
        captured = capsys.readouterr()
        in_process.append((status, captured.out, captured.err))
    assert cli.build_parser() is cli.build_parser()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"}
    separate = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "djsim.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate
    assert [status for status, _, _ in in_process] == [0, 1, 0]
    assert "invalid choice: 'nosuch'" in in_process[1][2]


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # The run prints more than a pipe holds, so its write meets the closed
    # pipe: it must end with its own status and nothing on stderr.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "djsim.cli", "run", "--gen", "random", "--n", "12", "--alg", "dj"]
    whole = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert whole.returncode == 0 and len(whole.stdout) > 1 << 16
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
