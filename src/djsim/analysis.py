"""Closed-form error models, resource accounting, and the exhaustive verification harness."""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .algorithms import EXACTNESS_TOL, Circuit, _run, circuit, run_named, validate_run_config
# enumerate_promise_functions is unused here; it stays importable from this
# module because perfbench/tracer.py wraps it on this module by name.
from .boolfn import (  # noqa: F401
    BooleanFunction,
    count_promise_functions,
    enumerate_promise_functions,
    make_function,
    packed_promise_tables,
    unpack_tables,
)

# State entries per batched circuit run: a chunk holds as many promise
# functions as rows of this many entries fit.  At n = 4 that is 512
# functions for dj (2^5 entries a row), 1,024 for alg1 and 2,048 for alg2
# and alg3 (support rows of 2^(n-t+1) entries).
_SWEEP_ENTRIES = 1 << 14
# Most chunks per message to a sweep worker.  A message costs about 1.5 ms
# on a 2-vCPU host, about as much as one chunk's run, so one chunk per
# message leaves the workers waiting on the parent process.
_CHUNKS_PER_TASK = 16


def per_node_success_prob(k_w: int, n: int, t: int) -> float:
    """Probability that one node's run measures all zeros, given its subfunction has k_w ones.

    Equals (2^(t+1) k_w / N - 1)^2 with N = 2^n; exact in double precision
    since the ratio is dyadic.
    """
    size = 1 << n
    cap = size >> t
    if not 0 <= k_w <= cap:
        raise ValueError(f"subfunction weight must be in [0, {cap}], got {k_w}")
    return ((1 << (t + 1)) * k_w / size - 1.0) ** 2


@dataclass(frozen=True)
class ErrorModel:
    """Hypergeometric weights of subfunction weight configurations over the balanced ensemble.

    A uniformly random balanced function induces weights (k_0, ..., k_{2^t-1})
    with sum N/2 and each k_w at most N/2^t; the weight of a configuration is
    the product of per-block binomials over the central binomial.  The weights
    sum to 1 (Vandermonde).
    """

    n: int
    t: int

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def block(self) -> int:
        return self.size >> self.t

    def configurations(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Yield (configuration, weight) pairs in lexicographic configuration order."""
        nodes = 1 << self.t
        block = self.block
        denom = math.comb(self.size, self.size // 2)

        def rec(prefix: list[int], remaining: int, slots: int) -> Iterator[tuple[tuple[int, ...], float]]:
            if slots == 0:
                if remaining == 0:
                    numer = math.prod(math.comb(block, k) for k in prefix)
                    yield tuple(prefix), numer / denom
                return
            low = max(0, remaining - block * (slots - 1))
            high = min(block, remaining)
            for k in range(low, high + 1):
                prefix.append(k)
                yield from rec(prefix, remaining - k, slots - 1)
                prefix.pop()

        yield from rec([], self.size // 2, nodes)


def multinode_misid_probability(n: int, t: int) -> float:
    """Exact probability that the independent-nodes baseline labels a balanced function constant.

    Enumerates every weight configuration of the balanced ensemble and sums
    weight times the product of per-node all-zero probabilities.
    """
    if not 1 <= t < n:
        raise ValueError(f"split size must satisfy 1 <= t < n, got t={t}, n={n}")
    model = ErrorModel(n, t)
    total = 0.0
    for config, weight in model.configurations():
        product = 1.0
        for k_w in config:
            product *= per_node_success_prob(k_w, n, t)
        total += weight * product
    return total


def two_node_misid_probability(n: int) -> float:
    """Exact two-node misidentification probability, evaluated from its own sum.

    Kept as an independent enumeration (not a call into the multi-node form)
    so the two routes can be cross-checked against each other.
    """
    if n < 2:
        raise ValueError(f"the two-node model requires n >= 2, got {n}")
    size = 1 << n
    half = size // 2
    denom = math.comb(size, half)
    scale = (4.0 / size) ** 2
    total = 0.0
    for k0 in range(half + 1):
        k1 = half - k0
        weight = math.comb(half, k0) * math.comb(half, k1) / denom
        total += weight * scale * (k0 - size / 4.0) ** 2 * scale * (k1 - size / 4.0) ** 2
    return total


def mean_simulated_misid(n: int, t: int) -> float:
    """Mean simulated constant-label probability of the independent-nodes baseline over all balanced functions.

    The err-multi circuit runs once per sweep chunk of the promise family,
    the constants dropped; the per-function products are summed one by one
    in enumeration order.
    """
    c = circuit("err-multi", n, t)
    total = 0.0
    for packed in _sweep_chunks(n, _chunk_rows(c)):
        bits = unpack_tables(packed[~_is_constant(packed, n)], n)
        p_constant, _, _ = _run(c, bits.reshape(len(bits), -1, 1 << t))
        for p in p_constant.tolist():
            total += p
    return total / (count_promise_functions(n) - 2)


@dataclass(frozen=True)
class ResourceTable:
    """Qubit and gate counts per algorithm at a given (t, n), read from the circuit descriptions."""

    t: int
    n: int
    algorithms: dict[str, dict]
    oracle_qubits: dict[str, int]

    def to_record(self) -> dict:
        return {
            "t": self.t,
            "n": self.n,
            "algorithms": self.algorithms,
            "oracle_qubits": self.oracle_qubits,
        }


def resource_table(t: int, n: int) -> ResourceTable:
    """Total qubits, gate count and named-operator widths of the exact circuits at split size t, arity n."""
    if t < 1:
        raise ValueError(f"split size must be at least 1, got {t}")
    if n <= t:
        raise ValueError(f"arity must exceed the split size, got n={n}, t={t}")
    algorithms = {}
    for name in ("alg1", "alg2", "alg3"):
        c = circuit(name, n, t if name != "alg1" else 1)
        algorithms[name] = {"total_qubits": c.q, "gate_count": c.gate_count, "operator_widths": c.operator_widths}
    # The compact adder A' has no placement of its own yet: the compact
    # layout runs it on A's interleaved wires.  Its width is therefore the
    # closed form of the packed placement, 2^(t-1) controls plus t results.
    algorithms["alg3"]["operator_widths"]["A'"] = (1 << (t - 1)) + t
    oracle_qubits = {"dj": circuit("dj", n).oracle_qubits, "distributed": circuit("alg2", n, t).oracle_qubits}
    return ResourceTable(t=t, n=n, algorithms=algorithms, oracle_qubits=oracle_qubits)


@dataclass
class VerificationSummary:
    """Result of sweeping one algorithm over the full promise family."""

    n: int
    t: Optional[int]
    algorithm: str
    functions_checked: int
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> int:
        return self.functions_checked - len(self.failures)

    def to_record(self, include_wall_time: bool = True) -> dict:
        record = {
            "n": self.n,
            "t": self.t,
            "algorithm": self.algorithm,
            "functions_checked": self.functions_checked,
            "passed": self.passed,
            "failure_count": len(self.failures),
            "failures": self.failures,
        }
        if include_wall_time:
            record["wall_time_s"] = self.wall_time
        return record


def _check_one(algorithm: str, f: BooleanFunction, t: Optional[int]) -> Optional[dict]:
    try:
        report = run_named(algorithm, f, t)
    except Exception as exc:  # per-function run errors become findings, not aborts
        return {"function": f.digest(), "promise": f.promise.value, "error": str(exc)}
    if report.verdict == f.promise.value and report.verdict_exact:
        return None
    return {
        "function": f.digest(),
        "promise": f.promise.value,
        "verdict": report.verdict,
        "p_constant": report.p_constant,
        "verdict_exact": report.verdict_exact,
    }


def _chunk_rows(c: Circuit) -> int:
    """Promise functions per batched run of c: rows of 2^c.row_bits entries filling _SWEEP_ENTRIES."""
    return max(1, _SWEEP_ENTRIES >> c.row_bits)


def _sweep_chunks(n: int, size: int) -> Iterator[np.ndarray]:
    """The promise family of arity n, packed, in enumeration order, cut into work units of ``size``."""
    held: list[np.ndarray] = []
    room = size
    for block in packed_promise_tables(n):
        while len(block):
            held.append(block[:room])
            room -= len(held[-1])
            block = block[len(held[-1]) :]
            if not room:
                yield np.concatenate(held)
                held, room = [], size
    if held:
        yield np.concatenate(held)


def _is_constant(packed: np.ndarray, n: int) -> np.ndarray:
    """Which packed tables of arity n are the constants."""
    return (packed == 0) | (packed == (1 << (1 << n)) - 1)


def _chunk_failures(algorithm: str, n: int, t: Optional[int], packed: np.ndarray) -> list[dict]:
    """The failure records of one chunk, from one batched run of the circuit over all its tables.

    A record carries what ``run_named`` reports for that function, bit for bit.
    """
    c = circuit(algorithm, n, t)
    bits = unpack_tables(packed, n)
    p_constant, _, _ = _run(c, bits.reshape(len(bits), -1, 1 << (c.t or 0)))
    p_balanced = 1.0 - p_constant
    says_constant = p_constant >= p_balanced
    exact = np.maximum(p_constant, p_balanced) >= 1.0 - EXACTNESS_TOL
    is_constant = _is_constant(packed, n)
    failures = []
    for r in np.flatnonzero((says_constant != is_constant) | ~exact):
        f = make_function(n, bits[r].astype(np.uint8).tobytes())
        failures.append(
            {
                "function": f.digest(),
                "promise": f.promise.value,
                "verdict": "constant" if says_constant[r] else "balanced",
                "p_constant": float(p_constant[r]),
                "verdict_exact": bool(exact[r]),
            }
        )
    return failures


def _sweep_chunk(args: tuple[str, int, Optional[int], np.ndarray]) -> tuple[int, list[dict]]:
    algorithm, n, t, packed = args
    try:
        return len(packed), _chunk_failures(algorithm, n, t, packed)
    except Exception as exc:  # the sweep goes on: the chunk is checked as run_named checks it
        warnings.warn(f"batched check of a chunk failed ({exc!r}); checking it one function at a time", RuntimeWarning)
        # An error then becomes a finding on the function that raises it.
        functions = (make_function(n, row.astype(np.uint8).tobytes()) for row in unpack_tables(packed, n))
        return len(packed), [failure for f in functions if (failure := _check_one(algorithm, f, t)) is not None]


def _chunks_per_message(chunks: int, jobs: int) -> int:
    """Chunks per message to a worker: at most _CHUNKS_PER_TASK, and few enough that each of ``jobs`` workers gets one."""
    return max(1, min(_CHUNKS_PER_TASK, chunks // jobs))


def _sweep_results(chunks: Iterator[tuple], jobs: int, count: int) -> Iterator[tuple[int, list[dict]]]:
    """Check the ``count`` chunks in this process, or across ``jobs`` worker processes.

    Results come back in chunk order either way, so the failure list, and
    with it ``--deterministic`` output, does not depend on ``jobs``.
    """
    if jobs <= 1:
        yield from map(_sweep_chunk, chunks)
        return
    import multiprocessing  # deferred: serial sweeps never pay for the import

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(_sweep_chunk, chunks, chunksize=_chunks_per_message(count, jobs))


def verify_sweep(n: int, t: Optional[int], algorithm: str, jobs: int = 1) -> VerificationSummary:
    """Run the algorithm on every promise function of arity n and record mismatches.

    A failure is any function whose verdict differs from its promise label or
    whose winning-label probability is not 1 within tolerance.  Workers are
    stateless, so the family can be partitioned across processes; serial and
    parallel sweeps check the same chunks.
    """
    c = validate_run_config(algorithm, n, t)
    start = time.perf_counter()
    summary = VerificationSummary(n=n, t=t, algorithm=algorithm, functions_checked=0)
    rows = _chunk_rows(c)
    chunks = ((algorithm, n, t, packed) for packed in _sweep_chunks(n, rows))
    for count, failures in _sweep_results(chunks, jobs, -(-count_promise_functions(n) // rows)):
        summary.functions_checked += count
        summary.failures.extend(failures)
    summary.wall_time = time.perf_counter() - start
    return summary
