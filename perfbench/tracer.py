"""Span recorder that wraps djsim's public functions at their import sites.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces module
attributes (``djsim.algorithms.apply_hadamard``, ``djsim.analysis.run_named``,
``djsim.cli.render``, ``djsim.sim.MeasurementRecord.collapse`` ...) with thin
wrappers and :meth:`Tracer.restore` puts the originals back.  Each call of a
wrapped function records one span (name, start, end, parent span, op id) in
flat in-memory arrays; :meth:`Tracer.per_layer` turns the spans into per-op
call counts and self times, where a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import djsim.algorithms
import djsim.analysis
import djsim.boolfn
import djsim.cli
import djsim.gates
import djsim.sim

# Simulator entry points as the drivers in djsim.algorithms see them.
SIM_KINDS = {
    "init_zero": "init",
    "apply_hadamard": "hadamard",
    "apply_permutation": "permutation",
    "apply_composed": "composed",
    "apply_block_rotation": "rotation",
    "apply_pauli_z": "pauli_z",
    "measure": "measure",
    "probability_all_zero": "prob_all_zero",
}
SIM_ORDER = ("init", "hadamard", "permutation", "composed", "rotation", "pauli_z", "measure", "collapse", "prob_all_zero")

# Computed (not measured) memory traffic of each kernel per amplitude of the
# state it runs on, read plus write, from the numpy operations it performs:
# (passes over the amplitude array, other bytes per amplitude).  Amplitude
# bytes use the state's own itemsize, so a change of dtype shows.
#   init: zero-fill.  hadamard: one matmul pass, read and write.
#   permutation/composed: int64 source index, gather, store.
#   rotation: int64 partner, gather + store, *sin (read, write), cos*amps
#     (read, temp write), sum (two reads, write); float64 cos and sin tables.
#   pauli_z: half the state read and written.  measure: one read for |a|^2,
#     float64 |a|^2 write, int64 pattern, bincount over both.
#   collapse: int64 pattern, bool mask, where (read, write), divide (read,
#     write).  prob_all_zero: |a|^2 over the selected slice, counted per
#     selected amplitude, with a float64 temporary.
TRAFFIC = {
    "init": (1, 0),
    "hadamard": (2, 0),
    "permutation": (2, 8),
    "composed": (2, 8),
    "rotation": (9, 24),
    "pauli_z": (1, 0),
    "measure": (1, 32),
    "collapse": (4, 9),
    "prob_all_zero": (1, 8),
}

GATE_BUILDERS = (
    "build_A",
    "build_Aprime",
    "build_ccnot",
    "build_cnot",
    "build_oracle",
    "build_R",
    "build_Rprime",
    "build_U",
    "build_V",
    "build_x",
    "xor_permutation_gate",
)

# Root span of one op, and the benchmark's own check inside it.  The op
# span's self time is what no wrapper and no check covers: unattributed.
OP_SPAN = "bench.op"
CHECK_SPAN = "bench.check"
PROBE_SPAN = "trace.probe"


def _lru_totals() -> tuple[int, int]:
    """Summed (hits, misses) of the lru_cache-wrapped builders of djsim.gates."""
    hits = misses = 0
    for fn in vars(djsim.gates).values():
        if not hasattr(fn, "cache_info"):
            continue
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    """Records spans around djsim calls; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._nid = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.support: list[float] = []
        self.max_q = 0
        self._saved: list[tuple[object, str, object]] = []
        self._lru_start = (0, 0)
        self._lru_end = (0, 0)

    # --- span recording -------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self._start)
        self._nid.append(nid)
        self._parent.append(self._stack[-1])
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    # --- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_sim(self, kind: str, fn):
        nid = self.name_id(f"sim.{kind}")
        probe = self.name_id(PROBE_SPAN)
        passes, other_bytes = TRAFFIC[kind]
        begin, end, counts = self.begin, self.end, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "measure":
                state = args[0]
                j = begin(probe)
                nonzero = np.count_nonzero(state.amps)
                end(j)
                self.support.append(nonzero / state.amps.size)
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            state = result if kind in ("init", "collapse") else args[0]
            q = state.q
            amps = 1 << q
            if kind == "prob_all_zero":
                wires = tuple(args[1])
                if wires and wires == tuple(range(wires[0], wires[0] + len(wires))):
                    amps >>= len(wires)
            counts["sim.amps_touched"] += amps
            counts["sim.bytes_moved_computed"] += (passes * state.amps.itemsize + other_bytes) * amps
            if q > self.max_q:
                self.max_q = q
            return result

        return wrapper

    def _wrap_enumerate(self, fn):
        nid = self.name_id("boolfn.enumerate")
        begin, end, counts = self.begin, self.end, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = begin(nid)
                try:
                    f = next(it)
                except StopIteration:
                    return
                finally:
                    end(idx)
                counts["boolfn.enumerate.fns"] += 1
                yield f

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced import site; pair with restore()."""
        alg, ana, bf, cli = djsim.algorithms, djsim.analysis, djsim.boolfn, djsim.cli
        counts = self.counts

        def count_fns(summary) -> None:
            counts["analysis.fns_checked"] += summary.functions_checked

        def count_bytes(text: str) -> None:
            counts["cli.output_bytes"] += len(text.encode()) + 1  # main() prints a newline

        for owner in (bf, cli, ana, alg):
            self._patch(owner, "make_function", self._wrap("boolfn.make_function", owner.make_function))
        self._patch(ana, "enumerate_promise_functions", self._wrap_enumerate(ana.enumerate_promise_functions))
        for owner in (alg, cli):
            self._patch(owner, "compute_stats", self._wrap("boolfn.compute_stats", owner.compute_stats))
        for attr in GATE_BUILDERS:
            self._patch(alg, attr, self._wrap("gates.build", getattr(alg, attr)))
        for attr, kind in SIM_KINDS.items():
            self._patch(alg, attr, self._wrap_sim(kind, getattr(alg, attr)))
        record = djsim.sim.MeasurementRecord
        self._patch(record, "collapse", self._wrap_sim("collapse", record.collapse))
        for owner in (alg, ana, cli):
            self._patch(owner, "run_named", self._wrap("algorithms.run", owner.run_named))
        for owner in (alg, cli):
            self._patch(owner, "probability_oracle", self._wrap("algorithms.probability_oracle", owner.probability_oracle))
        self._patch(ana, "verify_sweep", self._wrap("analysis.verify_sweep", ana.verify_sweep, count_fns))
        self._patch(cli, "main", self._wrap("cli.main", cli.main))
        self._patch(cli, "load_truth_table", self._wrap("cli.load_truth_table", cli.load_truth_table))
        self._patch(cli, "render", self._wrap("cli.render", cli.render, count_bytes))
        self._lru_start = _lru_totals()

    def restore(self) -> None:
        self._lru_end = _lru_totals()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, duration, self time) of every recorded span."""
        nid = np.frombuffer(self._nid, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return nid, dur, dur - child

    def accounted_frac(self, op_wall_s: float) -> float:
        """Share of the traced op wall time that a layer, the check or a probe accounts for.

        Everything but the self time of the root op spans: djsim time that no
        wrapper covers lowers it.
        """
        nid, _, selft = self.self_times()
        unattributed = selft[nid == self._ids[OP_SPAN]].sum()
        return 1.0 - float(unattributed) / op_wall_s

    def per_layer(self, ops: int, op_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics, keyed by name, as (value, unit)."""
        nid, _, selft = self.self_times()
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=selft, minlength=len(self.names))

        def c(name: str) -> float:
            i = self._ids.get(name)
            return 0.0 if i is None else float(calls[i]) / ops

        def s(name: str) -> float:
            i = self._ids.get(name)
            return 0.0 if i is None else float(self_s[i]) / ops

        hits = self._lru_end[0] - self._lru_start[0]
        lookups = hits + self._lru_end[1] - self._lru_start[1]
        m: dict[str, tuple[float, str]] = {
            "boolfn.make_function.calls": (c("boolfn.make_function"), "1/op"),
            "boolfn.make_function.self_s": (s("boolfn.make_function"), "s/op"),
            "boolfn.enumerate.fns": (self.counts["boolfn.enumerate.fns"] / ops, "1/op"),
            "boolfn.enumerate.self_s": (s("boolfn.enumerate"), "s/op"),
            "boolfn.compute_stats.calls": (c("boolfn.compute_stats"), "1/op"),
            "boolfn.compute_stats.self_s": (s("boolfn.compute_stats"), "s/op"),
            "gates.build.calls": (c("gates.build"), "1/op"),
            "gates.build.self_s": (s("gates.build"), "s/op"),
            "gates.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "gates.cache_lookups": (lookups / ops, "1/op"),
        }
        for kind in SIM_ORDER:
            m[f"sim.{kind}.calls"] = (c(f"sim.{kind}"), "1/op")
            m[f"sim.{kind}.self_s"] = (s(f"sim.{kind}"), "s/op")
        m.update(
            {
                "sim.amps_touched": (self.counts["sim.amps_touched"] / ops, "1/op"),
                "sim.bytes_moved_computed": (self.counts["sim.bytes_moved_computed"] / ops, "B/op"),
                "sim.support_frac": (float(np.mean(self.support)) if self.support else 0.0, "ratio"),
                "sim.max_q": (float(self.max_q), "qubits"),
                "algorithms.run.calls": (c("algorithms.run"), "1/op"),
                "algorithms.run.self_s": (s("algorithms.run"), "s/op"),
                "algorithms.probability_oracle.calls": (c("algorithms.probability_oracle"), "1/op"),
                "algorithms.probability_oracle.self_s": (s("algorithms.probability_oracle"), "s/op"),
                "analysis.verify_sweep.calls": (c("analysis.verify_sweep"), "1/op"),
                "analysis.verify_sweep.self_s": (s("analysis.verify_sweep"), "s/op"),
                "analysis.fns_checked": (self.counts["analysis.fns_checked"] / ops, "1/op"),
                "cli.main.calls": (c("cli.main"), "1/op"),
                "cli.main.self_s": (s("cli.main"), "s/op"),
                "cli.load_truth_table.self_s": (s("cli.load_truth_table"), "s/op"),
                "cli.render.self_s": (s("cli.render"), "s/op"),
                "cli.output_bytes": (self.counts["cli.output_bytes"] / ops, "B/op"),
                "bench.self_s": (s(CHECK_SPAN), "s/op"),
                "bench.unattributed_s": (s(OP_SPAN), "s/op"),
                "trace.overhead_frac": (op_wall_s / untraced_wall_s - 1.0, "ratio"),
                "trace.accounted_frac": (self.accounted_frac(op_wall_s), "ratio"),
            }
        )
        return m

    def save(self, path: Path) -> None:
        """Write the raw spans (and the name table) as a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self._nid, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
        )
