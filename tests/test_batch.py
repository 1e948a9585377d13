"""Batched sweeps: one circuit run per chunk of packed truth tables.

``verify_sweep`` streams the promise family as packed integers and runs each
circuit once per chunk, one state row per function.  These tests pin the
batched path to the per-function one (``run_named`` on each function of
``enumerate_promise_functions``), show that a row's result does not depend on
the rows that share its batch, and check the packed enumeration against the
same-popcount successor walk.
"""

import dataclasses

import numpy as np
import pytest

from djsim import analysis, cli, count_promise_functions, enumerate_promise_functions, make_function
from djsim.algorithms import _execute, _run, circuit, run_named
from djsim.analysis import verify_sweep
from djsim.boolfn import packed_promise_tables, unpack_tables
from djsim.sim import SupportState, apply_block_rotation, block_rotation_gate

TOL = 1e-12
CASES = [("dj", None), ("alg1", None), ("err-4node", None)] + [
    (alg, t) for alg in ("alg2", "alg3", "err-multi") for t in (1, 2)
]


def packed(f) -> int:
    return int("".join(map(str, f.table)), 2)


def reference_sweep(alg, n, t):
    """(functions checked, failure records) from one run_named call per function."""
    count, failures = 0, []
    for f in enumerate_promise_functions(n):
        count += 1
        report = run_named(alg, f, t)
        if report.verdict != f.promise.value or not report.verdict_exact:
            failures.append(
                {
                    "function": f.digest(),
                    "promise": f.promise.value,
                    "verdict": report.verdict,
                    "p_constant": report.p_constant,
                    "verdict_exact": report.verdict_exact,
                }
            )
    return count, failures


def sweep_configs():
    for alg, t in CASES:
        for n in range(1, 5):
            try:
                circuit(alg, n, t)
            except ValueError:
                continue
            if (alg, n, t) != ("alg3", 4, 2):  # checked below against the alg3_t2_sweep fixture
                yield alg, n, t


@pytest.mark.parametrize("alg,n,t", list(sweep_configs()), ids=lambda v: str(v))
def test_batched_sweep_matches_one_run_per_function(alg, n, t):
    summary = verify_sweep(n, t, alg, jobs=1)
    count, failures = reference_sweep(alg, n, t)
    assert summary.functions_checked == count == count_promise_functions(n)
    assert summary.failures == failures
    assert cli._clean(summary.failures) == cli._clean(failures)
    if alg.startswith("err") and n == 4:
        assert failures  # the inexact baselines have findings to compare


def test_batched_alg3_t2_sweep_matches_the_fixture_reports(alg3_t2_sweep):
    summary = verify_sweep(4, 2, "alg3", jobs=1)
    assert summary.functions_checked == len(alg3_t2_sweep) == 12872
    assert summary.failures == []
    assert all(a.verdict == promise and a.verdict_exact for promise, a, _ in alg3_t2_sweep)
    # One batch of the whole family gives each function run_named's values, bit for bit.
    c = circuit("alg3", 4, 2)
    tables = np.stack([np.frombuffer(f.table, dtype=np.uint8) for f in enumerate_promise_functions(4)])
    p, _, anc = _run(c, batch_rows(c, tables))
    assert p.tolist() == [a.p_constant for _, a, _ in alg3_t2_sweep]
    assert anc.tolist() == [a.ancilla_zero_prob for _, a, _ in alg3_t2_sweep]


def test_chunk_boundaries_do_not_change_the_failures(monkeypatch):
    whole = verify_sweep(4, 2, "err-multi", jobs=1)
    monkeypatch.setattr(analysis, "_SWEEP_CHUNK", 37)
    cut = verify_sweep(4, 2, "err-multi", jobs=1)
    assert cut.functions_checked == whole.functions_checked
    assert cut.failures == whole.failures


def mixed_tables(n, count, seed):
    """Both constants, ``count`` balanced tables and ``count`` tables off the promise, shuffled together."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    constants = np.array([[0] * size, [1] * size], dtype=np.uint8)
    balanced = (rng.random((count, size)).argsort(axis=1) < size // 2).astype(np.uint8)
    other = (rng.random((count, size)) < 0.3).astype(np.uint8)
    tables = np.concatenate([constants, balanced, other])
    return tables[rng.permutation(len(tables))]


def batch_rows(c, tables):
    return tables.reshape(len(tables), -1, 1 << (c.t or 0)).astype(np.int64)


def values(c, rows, run=_run):
    """Each row's p_constant, and its work-register p_all_zero when the circuit has work registers."""
    p, _, anc = run(c, rows)
    return np.stack([p] if anc is None else [p, anc], axis=-1)


def by_composition(c, tables, run=_run):
    """Each table's values from the whole batch, the reversed batch, uneven chunks and single rows."""
    rows = batch_rows(c, tables)
    whole = values(c, rows, run)
    reverse = values(c, rows[::-1].copy(), run)[::-1]
    cuts = np.cumsum([0, 1, 7, 2, 5])
    pieces = [values(c, rows[a:b], run) for a, b in zip(cuts[:-1], cuts[1:])] + [values(c, rows[cuts[-1] :], run)]
    chunked = np.concatenate(pieces)
    single = np.concatenate([values(c, rows[i : i + 1], run) for i in range(len(rows))])
    return whole, reverse, chunked, single


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("alg,t", [("dj", None), ("alg1", None), ("err-4node", None), ("alg2", 2), ("alg3", 2), ("err-multi", 2)])
def test_rows_are_independent_of_their_batch(alg, t, n):
    c = circuit(alg, n, t)
    tables = mixed_tables(n, 20, seed=11)
    whole, reverse, chunked, single = by_composition(c, tables)
    assert np.array_equal(whole, reverse)
    assert np.array_equal(whole, chunked)
    assert np.array_equal(whole, single)
    # Off the promise too, a row gets exactly what run_named reports for it.
    for table, row in zip(tables, whole):
        report = run_named(alg, make_function(n, table.tobytes()), t)
        assert report.p_constant == row[0]
        assert report.ancilla_zero_prob == (row[1] if c.work else None)


def test_rows_with_dirty_work_registers_keep_exact_values():
    """alg3 without its uncompute leaves the work registers entangled with the
    input register: the readout Hadamard then sees several groups per row, a
    different number in different rows."""
    full = circuit("alg3", 4, 2)
    dirty = dataclasses.replace(full, ops=full.ops[: len(full.ops) // 2 + 1], steps=None, sources={})
    tables = mixed_tables(4, 10, seed=5)
    rows = batch_rows(dirty, tables)
    p, _, anc = _execute(dirty, rows)
    p_dense, _, anc_dense = _execute(dirty, rows, dense=True)
    assert np.all(anc < 1.0 - 1e-3)
    assert np.allclose(p, p_dense, rtol=0.0, atol=TOL)
    assert np.allclose(anc, anc_dense, rtol=0.0, atol=TOL)
    whole, reverse, chunked, single = by_composition(dirty, tables, run=_execute)
    assert np.array_equal(whole, np.stack([p, anc], axis=-1))
    assert np.array_equal(whole, reverse) and np.array_equal(whole, chunked) and np.array_equal(whole, single)


def test_batched_rotation_adds_coinciding_entries_row_by_row():
    # Rows whose entries already set the target bit: each entry's partner may
    # be an entry too, in a different place in each row.
    gate = block_rotation_gate((0, 1), 2, scale_exponent=1)
    index = np.array([[0b000, 0b001, 0b011, 0b110], [0b101, 0b100, 0b010, 0b111], [0b000, 0b010, 0b100, 0b110]])
    amps = np.array([[0.5, 0.5, -0.5, 0.5], [0.5, -0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]])
    batch = apply_block_rotation(SupportState(3, index.copy(), amps.copy()), gate)
    for r in range(len(index)):
        alone = apply_block_rotation(SupportState(3, index[r].copy(), amps[r].copy()), gate)
        full = np.zeros(8)
        np.add.at(full, batch.index[r], batch.amps[r])
        assert np.array_equal(full[alone.index], alone.amps)
        assert np.count_nonzero(full) == np.count_nonzero(alone.amps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_tables_follow_the_enumeration_order(n):
    stream = np.concatenate(list(packed_promise_tables(n)))
    assert stream.tolist() == [packed(f) for f in enumerate_promise_functions(n)]
    assert np.array_equal(unpack_tables(stream, n), np.stack([np.frombuffer(f.table, dtype=np.uint8) for f in enumerate_promise_functions(n)]))


def successor(v: int) -> int:
    """The next integer with the same number of set bits."""
    c = v & -v
    r = v + c
    return (((r ^ v) >> 2) // c) | r


def test_packed_tables_at_n5_without_materialising_the_family():
    size, span = 32, 3000
    blocks = packed_promise_tables(5)
    assert next(blocks).tolist() == [0, (1 << size) - 1]
    total, head, tail = 2, [], np.zeros(0, dtype=np.int64)
    for block in blocks:
        total += len(block)
        if len(head) < span:
            head.extend(block[: span - len(head)].tolist())
        tail = np.concatenate([tail, block])[-span:]
    assert total == count_promise_functions(5)
    v, walk = (1 << (size // 2)) - 1, []
    while len(walk) < span:
        walk.append(v)
        v = successor(v)
    assert head == walk
    # From the stream's value span places before the end, the walk must
    # reproduce the tail and then leave the 32-bit range.
    v, walk = int(tail[0]), []
    while v < 1 << size:
        walk.append(v)
        v = successor(v)
    assert walk == tail.tolist()
    assert walk[-1] == ((1 << 16) - 1) << 16


def test_sweep_chunks_cut_the_stream_evenly(monkeypatch):
    monkeypatch.setattr(analysis, "_SWEEP_CHUNK", 1000)
    chunks = list(analysis._sweep_chunks(4))
    assert [len(c) for c in chunks] == [1000] * 12 + [872]
    assert np.array_equal(np.concatenate(chunks), np.concatenate(list(packed_promise_tables(4))))


@pytest.mark.parametrize(
    "alg,t,bits",
    [("dj", None, 5), ("alg1", None, 4), ("alg2", 2, 4), ("alg3", 2, 13), ("err-multi", 2, 3), ("err-4node", None, 3)],
)
def test_table_bits_of_every_algorithm(alg, t, bits):
    # alg1, err-4node, dj and err-multi have no fixed or rotation layer with
    # controls: their longest array is the input register's 2^(n-t+1) entries.
    # alg3's seven fixed gates span 13 wires: one composed XOR run over them.
    assert circuit(alg, 4, t).table_bits == bits
