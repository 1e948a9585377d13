"""The benchmark workloads: seeded inputs, warm-up ops, one op, and its check.

Inputs come from the benchmark's own ``numpy`` generator seeded by
``--seed``; djsim only ever receives truth tables (in memory or as JSON
files).  Every check compares the program's output with ground truth the
benchmark computes itself: the promise label from the generated table, the
exact 0/1 probabilities (1e-12), the function id, the qubit count, the
closed-form cross-check and the exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from djsim import algorithms, boolfn, cli

TOL = 1e-12
# Longest planned verify-n4 op stream; ops past it wrap around.
MAX_INPUTS = 1 << 16


def label(bits: np.ndarray) -> str:
    ones = int(bits.sum())
    if ones in (0, bits.size):
        return "constant"
    if 2 * ones == bits.size:
        return "balanced"
    raise ValueError("generated table is not a promise function")


def function_id(n: int, bits: np.ndarray) -> str:
    """djsim's function id (arity and big-endian hex table), computed independently."""
    packed = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)
    return f"{n}:{packed:0{(bits.size + 3) // 4}x}"


def balanced_tables(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` uniformly random balanced truth tables of arity n, one per row."""
    size = 1 << n
    ranks = rng.random((count, size)).argsort(axis=1)
    return (ranks < size // 2).astype(np.uint8)


def promise_family(n: int) -> np.ndarray:
    """Every promise function of arity n, one truth table per row: both
    constants, then all C(2^n, 2^(n-1)) balanced tables."""
    size = 1 << n
    ones = np.array(list(itertools.combinations(range(size), size // 2)))
    tables = np.zeros((2 + len(ones), size), dtype=np.uint8)
    tables[1] = 1
    tables[2 + np.arange(len(ones))[:, None], ones] = 1
    return tables


def second_branch(branch_log: list) -> bool:
    """Whether a run measured the input register after the decision qubit."""
    return any(entry.get("stage") == "input_register" for entry in branch_log)


def qubits(alg: str, n: int, t: Optional[int]) -> int:
    """Register size of each driver, from the circuit definitions (not from djsim)."""
    if alg == "dj":
        return n + 1
    if alg == "alg1":
        return n
    if alg == "alg2":
        return (n - t) + (1 << t) + (t + 2) + 1
    if alg == "alg3":
        return (n - t) + 3 * (1 << (t - 1)) + 3 * t + 2
    raise ValueError(alg)


def run_cli(argv: list[str]) -> dict:
    """One in-process ``djsim`` invocation with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check_cli_exit(result: dict) -> tuple[Optional[str], Optional[dict]]:
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()[:200]}", None
    try:
        return None, json.loads(result["stdout"])
    except json.JSONDecodeError as exc:
        return f"unparseable output: {exc}", None


@dataclass(frozen=True)
class Case:
    alg: str
    n: int
    t: Optional[int]

    @property
    def q(self) -> int:
        return qubits(self.alg, self.n, self.t)

    def t_args(self) -> list[str]:
        return [] if self.t is None else ["--t", str(self.t)]


class Workload:
    """One workload: op i runs the i-th planned input.

    Inputs repeat their kind with period ``cycle``, so a timed run can end on
    a whole cycle.
    """

    name = ""
    cycle = 1
    # Ops checked correct, and how many of them ran the second measurement
    # branch (the input register after the decision qubit); verify-n4's
    # sweeps are not counted.
    branch_ops = 0
    second_branch_ops = 0
    # Percentile reported as op_tail_ms.  A 50-second run of verify-n4
    # (~21 ops) is too short for ten samples above any percentile over p50,
    # so it reports p75, the steadiest upper percentile it has; wide (~45
    # ops) has about ten samples above p75.
    tail_percentile = 75
    cases: tuple[Case, ...] = ()

    def warm_up(self) -> None:
        """Fill the lazy caches this workload's ops use (counted in setup_s).

        One run plus closed-form check per circuit, on the all-zero function.
        """
        for case in self.cases:
            f = boolfn.make_function(case.n, bytes(1 << case.n))
            algorithms.probability_oracle(algorithms.run_named(case.alg, f, case.t), f, case.t)

    def prepare(self, seed: int, workdir: Path) -> None:
        """Generate the seeded inputs (outside every timed region)."""
        raise NotImplementedError

    def run(self, i: int) -> Any:
        """Op i; returns the raw output for check()."""
        raise NotImplementedError

    def check(self, i: int, output: Any) -> tuple[Optional[str], int]:
        """(failure message or None, promise functions checked correct)."""
        raise NotImplementedError

    def fingerprint(self, output: Any) -> str:
        """Exact rendering of an output, compared between traced and untraced runs."""
        return output["stdout"]

    def inputs_digest(self, ops: int) -> str:
        raise NotImplementedError


class VerifyN4(Workload):
    name = "verify-n4"
    cases = (Case("dj", 4, None), Case("alg1", 4, None), Case("alg2", 4, 2))
    cycle = len(cases)
    expected = 2 + math.comb(16, 8)

    def warm_up(self) -> None:
        super().warm_up()
        for case in self.cases:
            run_cli(["verify", "--n", "3", "--alg", case.alg, *case.t_args(), "--jobs", "1", "--deterministic"])

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        cycles = MAX_INPUTS // self.cycle
        self.order = rng.permuted(np.tile(np.arange(self.cycle), (cycles, 1)), axis=1).ravel()

    def case(self, i: int) -> Case:
        return self.cases[self.order[i % len(self.order)]]

    def run(self, i: int) -> dict:
        case = self.case(i)
        return run_cli(["verify", "--n", str(case.n), "--alg", case.alg, *case.t_args(), "--jobs", "1", "--deterministic"])

    def check(self, i: int, output: dict) -> tuple[Optional[str], int]:
        case = self.case(i)
        err, payload = check_cli_exit(output)
        if err:
            return err, 0
        want = {
            "command": "verify",
            "n": case.n,
            "t": case.t,
            "algorithm": case.alg,
            "functions_checked": self.expected,
            "passed": self.expected,
            "failure_count": 0,
            "failures": [],
        }
        for key, value in want.items():
            if payload.get(key) != value:
                return f"{case.alg}: {key} = {payload.get(key)!r}, expected {value!r}", 0
        if "wall_time_s" in payload:
            return "--deterministic output carries wall_time_s", 0
        return None, self.expected

    def inputs_digest(self, ops: int) -> str:
        return hashlib.sha256(self.order[:ops].astype(np.uint8).tobytes()).hexdigest()


class Alg3N4(Workload):
    """The Tier-1 ``alg3_t2_sweep`` hot loop: alg3 t=2 over the n=4 promise family.

    The op stream is a seeded order of the whole family (12,872 functions,
    two of them constant), repeated; so constants have their share of the
    family, 2 in 12,872, as in the exhaustive sweep.
    """

    name = "alg3-n4"
    cases = (Case("alg3", 4, 2),)
    tail_percentile = 99

    def prepare(self, seed: int, workdir: Path) -> None:
        self.tables = np.random.default_rng(seed).permutation(promise_family(self.cases[0].n))

    def table(self, i: int) -> np.ndarray:
        return self.tables[i % len(self.tables)]

    def run(self, i: int) -> dict:
        case = self.cases[0]
        f = boolfn.make_function(case.n, self.table(i).tobytes())
        report = algorithms.run_named(case.alg, f, case.t)
        closed = algorithms.probability_oracle(report, f, case.t)
        return {"report": report, "closed": closed}

    def check(self, i: int, output: dict) -> tuple[Optional[str], int]:
        case = self.cases[0]
        bits = self.table(i)
        report, closed = output["report"], output["closed"]
        want = label(bits)
        p_const = 1.0 if want == "constant" else 0.0
        if report.algorithm != case.alg or report.q_used != case.q:
            return f"report is for {report.algorithm} on {report.q_used} qubits", 0
        if report.function_id != function_id(case.n, bits):
            return f"function id {report.function_id} != {function_id(case.n, bits)}", 0
        if report.verdict != want or not report.verdict_exact:
            return f"verdict {report.verdict} (exact={report.verdict_exact}) for a {want} function", 0
        if abs(report.p_constant - p_const) > TOL or abs(report.p_balanced - (1.0 - p_const)) > TOL:
            return (
                f"(p_constant, p_balanced) = ({report.p_constant!r}, {report.p_balanced!r}) "
                f"not within {TOL} of ({p_const}, {1.0 - p_const})"
            ), 0
        if abs(closed - report.p_constant) > TOL:
            return f"closed form {closed!r} != simulated {report.p_constant!r}", 0
        self.branch_ops += 1
        self.second_branch_ops += second_branch(report.branch_log)
        return None, 1

    def fingerprint(self, output: dict) -> str:
        r = output["report"]
        return repr((r.p_constant, r.p_balanced, r.verdict, r.verdict_exact, r.ancilla_zero_prob, r.branch_log))

    def inputs_digest(self, ops: int) -> str:
        return hashlib.sha256(self.tables[: min(ops, len(self.tables))].tobytes()).hexdigest()


class Wide(Workload):
    """Single large circuits through the CLI on uniform draws from the promise family.

    At n >= 9 the two constants are 2 in more than 10^150 promise functions,
    so a uniform draw is balanced; the constant path is left to the tests.
    """

    name = "wide"
    cases = (Case("alg2", 10, 3), Case("alg3", 9, 2), Case("alg3", 10, 2))
    cycle = len(cases)
    # Functions per case written before timing; the op stream cycles them.
    pool = 32

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.inputs: list[tuple[Case, np.ndarray, str]] = []
        for j in range(self.pool):
            for case in self.cases:
                bits = balanced_tables(rng, case.n, 1)[0]
                path = workdir / f"{case.alg}-n{case.n}-{j}.json"
                hexstr = function_id(case.n, bits).split(":")[1]
                path.write_text(json.dumps({"n": case.n, "hex": hexstr}))
                self.inputs.append((case, bits, str(path)))

    def run(self, i: int) -> dict:
        case, _, path = self.inputs[i % len(self.inputs)]
        return run_cli(["run", "--input", path, "--alg", case.alg, *case.t_args(), "--deterministic"])

    def check(self, i: int, output: dict) -> tuple[Optional[str], int]:
        case, bits, _ = self.inputs[i % len(self.inputs)]
        err, payload = check_cli_exit(output)
        if err:
            return err, 0
        want = label(bits)
        p_const = 1.0 if want == "constant" else 0.0
        expect = {
            "command": "run",
            "algorithm": case.alg,
            "n": case.n,
            "t": case.t,
            "q_used": case.q,
            "function_id": function_id(case.n, bits),
            "verdict": want,
            "verdict_exact": True,
            "p_constant": p_const,
            "p_constant_exact": True,
            "p_balanced": 1.0 - p_const,
            "p_balanced_exact": True,
            "ancilla_zero_prob": 1.0,
        }
        for key, value in expect.items():
            if payload.get(key) != value:
                return f"{case.alg} n={case.n}: {key} = {payload.get(key)!r}, expected {value!r}", 0
        if "timestamp" in payload:
            return "--deterministic output carries a timestamp", 0
        self.branch_ops += 1
        self.second_branch_ops += second_branch(payload["branch_log"])
        return None, 1

    def inputs_digest(self, ops: int) -> str:
        h = hashlib.sha256()
        for case, bits, _ in self.inputs[: min(ops, len(self.inputs))]:
            h.update(f"{case.alg}/{case.n}/{case.t}:".encode())
            h.update(bits.tobytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (VerifyN4, Alg3N4, Wide)}
