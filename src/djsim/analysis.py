"""Closed-form error models, resource accounting, and the exhaustive verification harness."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

# run_named and enumerate_promise_functions are unused here; they stay
# importable from this module because perfbench/tracer.py wraps them on this
# module by name.
from .algorithms import EXACTNESS_TOL, Circuit, InvariantBreach, _chunk_rows, _run, circuit, pattern_table, validate_run_config
from .algorithms import run_named  # noqa: F401
from .boolfn import (  # noqa: F401
    check_enumerable,
    count_promise_functions,
    enumerate_promise_functions,
    make_function,
    packed_promise_range,
    unpack_tables,
)

# Promise functions per chunk of a verify sweep, checked from the pattern
# table.  At n = 4 this cuts the 12,872 functions into two chunks, so two
# workers get one each; at n = 5 a chunk of 2^12 spent about a third more
# a function on making its tables and on numpy's per-call costs.
_SWEEP_CHUNK = 1 << 13
# Most chunks per message to a sweep worker.  A message names its chunks'
# ranges of the family, which the worker makes itself; one chunk per
# message would leave the workers waiting on the parent process.
_CHUNKS_PER_TASK = 16
# The error model is one coefficient of a polynomial power in exact
# integers (multinode_misid_probability).  On a 2-vCPU host n = 12 takes
# 0.2-0.7 s at every t; n = 13 takes 0.09 s at t = 1 but 2.3-3.4 s at
# t >= 2, whose squarings hold 4,097 coefficients of over 4,096 bits.  At
# t = 1 the two-node sum takes 0.03-0.06 s at n = 13.
_ERROR_MODEL_MAX_ARITY = 12


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


def _check_error_model(n: int, t: int) -> None:
    """Raise ValueError past _ERROR_MODEL_MAX_ARITY, or one more at t = 1, before any polynomial is built."""
    top = _ERROR_MODEL_MAX_ARITY + (t == 1)
    if n > top:
        raise ValueError(f"the error model at t={t} is computed up to n = {top}, got n={n}")


def multinode_misid_probability(n: int, t: int) -> float:
    """Exact probability that the independent-nodes baseline labels a balanced function constant.

    A uniformly random balanced function puts k_w ones in the block of
    B = N/2^t entries of node w, with k_0 + ... + k_(2^t-1) = N/2, with
    probability Π_w C(B, k_w) / C(N, N/2); node w then reads all zeros with
    probability (2 k_w - B)^2 / B^2.  So p is the coefficient of x^(N/2) in
    Q(x)^(2^t), Q(x) = Σ_k C(B, k) (2k - B)^2 x^k, over C(N, N/2) B^(2·2^t).
    Q's coefficients are packed into one integer, a slot each, and squared
    t - 1 times, each power cut past degree N/2; the coefficient is then
    read off the last product, and divided once, correctly rounded.  A
    value too small for a double raises ValueError rather than read 0.
    """
    if not 1 <= t < n:
        raise ValueError(f"split size must satisfy 1 <= t < n, got t={t}, n={n}")
    _check_error_model(n, t)
    size, half, block = 1 << n, 1 << (n - 1), (1 << n) >> t
    # Q(1)^(2^(t-1)) = 2^(N/2 + (n-t) 2^(t-1)) bounds every coefficient of
    # the powers squared, so no slot carries into the next.
    width = (half + ((n - t) << (t - 1))) // 8 + 1
    packed, binomial = bytearray(), 1
    for k in range(block + 1):
        packed += (binomial * (2 * k - block) ** 2).to_bytes(width, "little")
        binomial = binomial * (block - k) // (k + 1)
    power, mask = int.from_bytes(packed, "little"), (1 << 8 * width * (half + 1)) - 1
    for _ in range(t - 1):
        power = power * power & mask
    packed = power.to_bytes(width * (half + 1), "little")
    coefficients = [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]
    coefficient = sum(a * b for a, b in zip(coefficients, reversed(coefficients)))
    p = coefficient / (math.comb(size, half) << ((n - t) << (t + 1)))
    if p == 0.0:
        raise ValueError(f"the error model at n={n}, t={t} is positive but below the smallest double")
    return p


def two_node_misid_probability(n: int) -> float:
    """Exact two-node misidentification probability, evaluated from its own sum.

    Kept as an independent enumeration (not a call into the multi-node form)
    so the two routes can be cross-checked against each other.
    """
    if n < 2:
        raise ValueError(f"the two-node model requires n >= 2, got {n}")
    _check_error_model(n, 1)
    size = 1 << n
    half = size // 2
    denom = math.comb(size, half)
    scale = (4.0 / size) ** 2
    total, binomial = 0.0, 1
    for k0 in range(half + 1):
        k1 = half - k0
        # C(half, k0) C(half, k1) = C(half, k0)^2, each binomial built from the last.
        weight = binomial * binomial / denom
        total += weight * scale * (k0 - size / 4.0) ** 2 * scale * (k1 - size / 4.0) ** 2
        binomial = binomial * (half - k0) // (k0 + 1)
    return total


def mean_simulated_misid(n: int, t: int) -> float:
    """Mean simulated constant-label probability of the independent-nodes baseline over all balanced functions.

    The err-multi circuit runs once per sweep chunk of the promise family,
    the constants dropped; the per-function products are summed one by one
    in enumeration order.
    """
    c = circuit("err-multi", n, t)
    total = 0.0
    for chunk in _sweep_chunks(n, _chunk_rows(c)):
        packed = packed_promise_range(n, chunk.start, chunk.stop)
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
    # No description places the compacted adder A', so its width is the
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


def _sweep_chunks(n: int, size: int) -> Iterator[range]:
    """Positions in the promise family of arity n, in enumeration order, cut into work units of ``size``.

    ``packed_promise_range`` makes a unit's tables.  An arity past
    MAX_ENUMERATION_ARITY raises ValueError here, not on the first chunk.
    """
    check_enumerable(n)
    count = count_promise_functions(n)
    return (range(lo, min(lo + size, count)) for lo in range(0, count, size))


def _is_constant(packed: np.ndarray, n: int) -> np.ndarray:
    """Which packed tables of arity n are the constants."""
    return (packed == 0) | (packed == (1 << (1 << n)) - 1)


@lru_cache(maxsize=64)
def _field_sums(c: Circuit) -> tuple[int, np.ndarray]:
    """(field width b, ψ summed over the rows that each b-bit field of a packed table holds).

    A field is a byte, or one row when rows are wider; the sums have shape
    (2^b, nodes, K).  The sum over a function's rows does not depend on
    their order, so it is the sum of its fields' entries.  This cache is
    the only copy of c's pattern table a sweep keeps; its sums are read-only.
    """
    table = pattern_table(c)
    width = 1 << (c.t or 0)
    bits = max(width, min(8, width << len(c.inputs)))
    rows = (np.arange(1 << bits)[:, None] >> np.arange(0, bits, width)) & ((1 << width) - 1)
    sums = np.ascontiguousarray(table[:, rows].sum(axis=2).transpose(1, 0, 2))
    sums.flags.writeable = False
    return bits, sums


def _table_probabilities(c: Circuit, packed: np.ndarray) -> np.ndarray:
    """Each packed table's p_constant from c's pattern table: the product over nodes of ‖Σ_u ψ(r_u) / U‖².

    The few nodes and components are summed one slice at a time: numpy's
    reductions over so short an axis cost more than the gathers.
    """
    bits, sums = _field_sums(c)
    rows = 1 << len(c.inputs)
    amps = 0.0
    for shift in range(0, rows << (c.t or 0), bits):
        amps = amps + sums.take((packed >> shift) & ((1 << bits) - 1), axis=0)
    amps /= rows
    amps *= amps
    norms = amps[:, :, 0]
    for k in range(1, amps.shape[2]):
        norms = norms + amps[:, :, k]
    p = norms[:, 0]
    for node in range(1, norms.shape[1]):
        p = p * norms[:, node]
    return p


def _misjudged(p_constant: np.ndarray, packed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(says constant, exact, failed) per function: a failure's verdict differs from its promise or is not exact."""
    p_balanced = 1.0 - p_constant
    says_constant = p_constant >= p_balanced
    exact = np.maximum(p_constant, p_balanced) >= 1.0 - EXACTNESS_TOL
    return says_constant, exact, (says_constant != _is_constant(packed, n)) | ~exact


def _chunk_failures(algorithm: str, n: int, t: Optional[int], packed: np.ndarray, first: bool = False) -> list[dict]:
    """The failure records of one chunk: the pattern table flags the functions, batched runs make their records.

    The flagged functions run the circuit, in batches of _chunk_rows, so a
    record carries what ``run_named`` reports for that function, bit for
    bit.  The ``first`` chunk of a sweep also runs one batch spread over
    it, so that every sweep, even one that flags nothing, compares the
    table, read from c narrowed to one input wire, with c's own runs.  A run
    that disagrees with the table beyond EXACTNESS_TOL raises InvariantBreach.
    """
    c = circuit(algorithm, n, t)
    p_table = _table_probabilities(c, packed)
    to_run = _misjudged(p_table, packed, n)[2]
    size = _chunk_rows(c)
    if first:
        to_run[:: -(-len(packed) // size)] = True
    picked = np.flatnonzero(to_run)
    failures = []
    for lo in range(0, len(picked), size):
        rows = picked[lo : lo + size]
        bits = unpack_tables(packed[rows], n)
        p_constant, _, _ = _run(c, bits.reshape(len(bits), -1, 1 << (c.t or 0)))
        gap = np.abs(p_constant - p_table[rows]).max()
        if gap > EXACTNESS_TOL:
            raise InvariantBreach(f"the {algorithm} pattern table disagrees with its circuit run by {gap!r}")
        says_constant, exact, failed = _misjudged(p_constant, packed[rows], n)
        for r in np.flatnonzero(failed):
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


def _sweep_chunk(args: tuple[str, int, Optional[int], range]) -> tuple[int, list[dict]]:
    """(functions checked, failure records) of one chunk; any error in its check but MemoryError stops the sweep as InvariantBreach."""
    algorithm, n, t, chunk = args
    packed = packed_promise_range(n, chunk.start, chunk.stop)
    try:
        return len(packed), _chunk_failures(algorithm, n, t, packed, not chunk.start)
    except (InvariantBreach, MemoryError):  # a wrong table, with every verdict it gave; or records past the host's memory
        raise
    except Exception as exc:  # verify_sweep has rejected every bad configuration: this is a fault of the program
        raise InvariantBreach(f"the {algorithm} check of positions {chunk.start}-{chunk.stop - 1} raised {exc!r}") from exc


def _chunks_per_message(chunks: int, jobs: int) -> int:
    """Chunks per message to a worker: at most _CHUNKS_PER_TASK, and few enough that each of ``jobs`` workers gets one."""
    return max(1, min(_CHUNKS_PER_TASK, chunks // jobs))


def _sweep_results(chunks: Iterator[tuple], jobs: int, count: int) -> Iterator[tuple[int, list[dict]]]:
    """Check the ``count`` chunks in this process, or across at most ``jobs`` worker processes, one per chunk and per usable CPU at most.

    Results come back in chunk order either way, so the failure list, and
    with it ``--deterministic`` output, does not depend on ``jobs``.
    """
    workers = min(jobs, count)
    if workers > 1:
        workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if workers <= 1:
        yield from map(_sweep_chunk, chunks)
        return
    import multiprocessing  # deferred: serial sweeps never pay for the import

    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(_sweep_chunk, chunks, chunksize=_chunks_per_message(count, workers))


def verify_sweep(n: int, t: Optional[int], algorithm: str, jobs: int = 1) -> VerificationSummary:
    """Check the algorithm on every promise function of arity n and record mismatches.

    A failure is any function whose verdict differs from its promise label or
    whose winning-label probability is not 1 within tolerance.  Each chunk is
    checked from the circuit's pattern table, and only the functions it flags,
    and one batch of the first chunk, run the circuit (``_chunk_failures``);
    a run that disagrees with the table raises InvariantBreach.  An arity past MAX_ENUMERATION_ARITY
    raises ValueError before the table is built.  A chunk is a range of
    positions in the family, whose tables the worker makes itself, so the
    family can be partitioned across processes; serial and parallel sweeps
    check the same chunks.
    """
    c = validate_run_config(algorithm, n, t)
    start = time.perf_counter()
    summary = VerificationSummary(n=n, t=t, algorithm=algorithm, functions_checked=0)
    chunks = ((algorithm, n, t, chunk) for chunk in _sweep_chunks(n, _SWEEP_CHUNK))
    _field_sums(c)  # the pattern table, built before any worker starts so that each inherits it
    for count, failures in _sweep_results(chunks, jobs, -(-count_promise_functions(n) // _SWEEP_CHUNK)):
        summary.functions_checked += count
        summary.failures.extend(failures)
    summary.wall_time = time.perf_counter() - start
    return summary
