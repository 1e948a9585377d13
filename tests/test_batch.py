"""Batched sweeps: one circuit run over many packed truth tables.

``verify_sweep`` streams the promise family as packed integers, flags each
chunk's failures from the circuit's row-pattern table, and runs the circuit
once per batch of flagged functions, one state row per function, to make
their records.  These tests pin the sweep to the per-function path
(``run_named`` on each function of ``enumerate_promise_functions``), show
that a row's result does not depend on the rows that share its batch, and
check the packed enumeration against the same-popcount successor walk.
"""

import dataclasses

import numpy as np
import pytest

from djsim import algorithms, analysis, cli, count_promise_functions, enumerate_promise_functions, make_function
from djsim.algorithms import _apply, _evolve, _execute, _run, circuit, run_named
from djsim.analysis import verify_sweep
from djsim.boolfn import packed_promise_range
from djsim.sim import StateVector, init_zero

TOL = 1e-12
CASES = [("dj", None), ("alg1", None), ("err-4node", None)] + [
    (alg, t) for alg in ("alg2", "alg3", "err-multi") for t in (1, 2)
]


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
    assert all(a.verdict == promise and a.verdict_exact for promise, a in alg3_t2_sweep)
    # One batch of the whole family gives each function run_named's values, bit for bit.
    c = circuit("alg3", 4, 2)
    tables = np.stack([np.frombuffer(f.table, dtype=np.uint8) for f in enumerate_promise_functions(4)])
    p, _, anc = _run(c, batch_rows(c, tables))
    assert p.tolist() == [a.p_constant for _, a in alg3_t2_sweep]
    assert anc.tolist() == [a.ancilla_zero_prob for _, a in alg3_t2_sweep]


@pytest.mark.parametrize("alg,t,rows", [("dj", None, 512), ("alg1", None, 1024), ("alg2", 2, 2048), ("alg3", 2, 2048)])
def test_chunks_hold_about_the_same_number_of_state_entries(alg, t, rows):
    # dj's dense rows hold 2^5 entries, alg1's 2^4; the support rows of alg2
    # and alg3 at most 2^(n-t+1) = 8.
    assert analysis._chunk_rows(circuit(alg, 4, t)) == rows


def test_chunk_boundaries_do_not_change_the_failures(monkeypatch):
    whole = verify_sweep(4, 2, "err-multi", jobs=1)
    # Cut both the sweep's chunks and the batched runs of their flagged functions.
    monkeypatch.setattr(analysis, "_SWEEP_CHUNK", 37)
    monkeypatch.setattr(analysis, "_chunk_rows", lambda c: 5)
    cut = verify_sweep(4, 2, "err-multi", jobs=1)
    assert cut.functions_checked == whole.functions_checked
    assert cut.failures == whole.failures


@pytest.mark.parametrize(
    "alg,t,form",
    [("dj", None, "dense"), ("alg1", None, "dense"), ("err-4node", None, "dense")]
    + [("alg2", 2, "support"), ("alg3", 2, "support"), ("err-multi", 2, "dense")],
)
def test_start_row_is_the_prefix_run_on_the_batch(alg, t, form):
    c = circuit(alg, 4, t)
    assert form == ("support" if c.support else "dense")
    skip, start = c.start
    assert skip > 0 and c.steps[skip][0] == "oracle"
    assert all(step[0] != "oracle" for step in c.steps[:skip])
    batch = init_zero(c.q, c.support, batch=5)
    for step in c.steps[:skip]:
        _apply(batch, step, None, {})
    rows = init_zero(c.q, c.support, batch=5, start=start)
    for name in ("index", "amps") if c.support else ("amps",):
        assert np.array_equal(getattr(rows, name), getattr(batch, name))


@pytest.mark.parametrize("alg,t", [("dj", None), ("alg2", 2)], ids=["dense", "support"])
def test_rows_own_their_arrays(alg, t):
    # The batch as the steps before the first oracle round leave it, copies of
    # the start row: a description cut to those steps and its readout.
    c = circuit(alg, 4, t)
    rows = np.zeros((3, 1 << (4 - (c.t or 0)), 1 << (c.t or 0)), dtype=np.int64)
    _evolve(c, rows)
    skip, start = c.start
    cut = dataclasses.replace(c)
    cut.steps, cut.start = c.steps[:skip] + c.steps[-1:], c.start
    s = _evolve(cut, rows)
    names = ("index", "amps") if c.support else ("amps",)
    kept = {name: getattr(start, name).copy() for name in names}
    for name in names:
        array = getattr(s, name)
        assert array.shape[0] == 3 and array.flags.writeable and array.flags.c_contiguous
        assert not np.shares_memory(array, getattr(start, name))
        assert not any(np.shares_memory(array[i], array[j]) for i in range(3) for j in range(i))
        array[0] += 1
        assert np.array_equal(array[1:], np.repeat(kept[name], 2, axis=0))
        assert np.array_equal(getattr(start, name), kept[name])


@pytest.mark.parametrize("alg,t", [("dj", None), ("alg1", None), ("err-multi", 2), ("err-4node", None)])
def test_dense_readout_of_outcome_zero_is_bin_zero_of_the_distribution(alg, t, monkeypatch):
    # Every dense measurement of a run over the n=4 family, and over tables
    # off the promise at n=4 and 7 (up to 64 columns a sum), in a batch and
    # alone, reads outcome 0 of each row as bin 0 of the batch's
    # distribution; it must equal, bit for bit, that row's squares at the
    # columns whose measured bits are 0, summed in column order.
    real, rows_checked = algorithms.measure, []

    def measure(s, qubits):
        rec = real(s, qubits)
        assert isinstance(s, StateVector)
        mask = sum(1 << (s.q - 1 - w) for w in qubits)
        a = s.amps[:, (np.arange(1 << s.q) & mask) == 0]
        assert np.array_equal(rec.probability(0), np.add.accumulate(a * a, axis=-1)[:, -1])
        rows_checked.append(len(a))
        return rec

    monkeypatch.setattr(algorithms, "measure", measure)
    family = np.stack([np.frombuffer(f.table, dtype=np.uint8) for f in enumerate_promise_functions(4)])
    off = {n: mixed_tables(n, 100, seed=3) for n in (4, 7)}
    runs = [(4, family)] + [(n, tables) for n in off for tables in (off[n], *off[n][:, None])]
    for n, tables in runs:
        c = circuit(alg, n, t)
        rows_checked.clear()
        p, _, _ = _run(c, batch_rows(c, tables))
        assert len(p) == len(tables)
        assert sum(rows_checked) >= len(tables) * c.runs


def test_oracle_tables_must_hold_bits():
    for alg, t in (("dj", None), ("alg2", 2)):
        c = circuit(alg, 3, t)
        rows = np.zeros((2, 1 << (3 - (c.t or 0)), 1 << (c.t or 0)), dtype=np.int64)
        rows[1, 1, 0] = 2
        with pytest.raises(ValueError, match="0/1"):
            _execute(c, rows)
        rows[1, 1, 0] = -1
        with pytest.raises(ValueError, match="0/1"):
            _execute(c, rows)


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


def test_alg3_cut_before_its_uncompute_raises_at_its_readout():
    """alg3 without its uncompute leaves the work registers entangled with the
    input register: the entries of a row then differ off the input wires, so
    the readout Hadamard refuses them, on one row and in a batch."""
    full = circuit("alg3", 4, 2)
    cut = dataclasses.replace(full, ops=full.ops[: len(full.ops) // 2 + 1] + full.ops[-1:])
    assert cut.ops[-2].kind == "rotation"
    tables = mixed_tables(4, 10, seed=5)
    rows = batch_rows(cut, tables)
    _execute(full, rows)
    assert tables[6].sum() == 8  # a balanced function, whose work values differ between inputs
    for batch in (rows[6:7], rows):
        with pytest.raises(ValueError, match="agree on the wires it does not act on"):
            _execute(cut, batch)


def successor(v: int) -> int:
    """The next integer with the same number of set bits."""
    c = v & -v
    r = v + c
    return (((r ^ v) >> 2) // c) | r


def test_packed_tables_at_n5_without_materialising_the_family():
    size, span, count = 32, 3000, count_promise_functions(5)
    assert packed_promise_range(5, 0, 2).tolist() == [0, (1 << size) - 1]
    blocks = (packed_promise_range(5, lo, min(lo + (1 << 14), count)) for lo in range(2, count, 1 << 14))
    total, head, tail = 2, [], np.zeros(0, dtype=np.int64)
    for block in blocks:
        total += len(block)
        if len(head) < span:
            head.extend(block[: span - len(head)].tolist())
        tail = np.concatenate([tail, block])[-span:]
    assert total == count
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


def test_sweep_chunks_cut_the_stream_evenly():
    chunks = list(analysis._sweep_chunks(4, 1000))
    assert [len(c) for c in chunks] == [1000] * 12 + [872]
    made = [packed_promise_range(4, c.start, c.stop) for c in chunks]
    assert np.array_equal(np.concatenate(made), packed_promise_range(4, 0, count_promise_functions(4)))


@pytest.mark.parametrize(
    "alg,t,bits",
    [("dj", None, 5), ("alg1", None, 4), ("alg2", 2, 4), ("alg3", 2, 4), ("err-multi", 2, 3), ("err-4node", None, 3)],
)
def test_table_bits_of_every_algorithm(alg, t, bits):
    # alg1, err-4node, dj and err-multi have no fixed or rotation layer with
    # controls: their longest array is the input register's 2^(n-t+1) entries.
    # alg3's longest lookup tables read 4 control wires: CCNOT's value and XOR
    # wires, and V's two operands.
    assert circuit(alg, 4, t).table_bits == bits
