"""One benchmark process: import djsim, warm up, then measure or trace one workload.

Run by ``run.py`` in a fresh interpreter per call; prints one JSON object as
its last stdout line.  Modes:

* ``setup``: import plus warm-up only, reports ``setup_s``.
* ``run``: set up, then a closed loop of ops (one client) for ``--seconds``.
* ``trace``: set up, an untraced loop for a third of ``--seconds``, the
  same ops again with every layer wrapped by the span tracer, then the same
  ops untraced once more as the reference for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# numpy and djsim are imported inside main(), after the set-up clock starts.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MAX_FAILURE_MESSAGES = 5


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """(value, samples above it) of an integer op-latency percentile, inclusive method."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(x > value for x in latencies)


def run_ops(wl, seconds=None, count=None, tracer=None, corrupt=None, expect=None, fingerprint=False) -> dict:
    """Closed loop, one client: op i+1 starts when op i and its check are done.

    Stops at the first op boundary past ``seconds`` that completes a whole
    input cycle, or after exactly ``count`` ops.  ``corrupt`` rewrites an
    output before its check.  With ``fingerprint`` (implied by ``expect``)
    each correct output's fingerprint is kept, outside the op's timing;
    ``expect`` holds fingerprints that every output must reproduce.
    """
    latencies: list[float] = []
    fingerprints: list[str] = []
    messages: list[str] = []
    failed = fns = 0
    if tracer is not None:
        from tracer import CHECK_SPAN, OP_SPAN

        op_span, check_span = tracer.name_id(OP_SPAN), tracer.name_id(CHECK_SPAN)
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i == count:
                break
        elif i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op = i
            span = tracer.begin(op_span)
        check = None
        try:
            output = wl.run(i)
            if tracer is not None:
                check = tracer.begin(check_span)
            if corrupt is not None:
                output = corrupt(i, output)
            err, checked = wl.check(i, output)
        except Exception as exc:  # any exception is a failed op, counted and reported
            err, checked = f"{type(exc).__name__}: {exc}", 0
        if tracer is not None:
            if check is not None:
                tracer.end(check)
            tracer.end(span)
        latencies.append(time.perf_counter() - t0)
        if fingerprint or expect is not None:
            fp = wl.fingerprint(output) if err is None else ""
            if err is None and expect is not None and fp != expect[i]:
                err = "output differs from the first untraced run of this op"
            fingerprints.append(fp)
        if err is None:
            fns += checked
        else:
            failed += 1
            if len(messages) < MAX_FAILURE_MESSAGES:
                messages.append(f"op {i}: {err}")
        i += 1
    return {
        "ops": i,
        "failed": failed,
        "fns": fns,
        "wall_s": time.perf_counter() - start,
        "latencies": latencies,
        "fingerprints": fingerprints,
        "failure_messages": messages,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    """Page faults served without I/O so far; each first touch of a freshly
    mapped page is one, so they count buffers the allocator maps anew."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def versions() -> dict:
    import numpy as np

    info = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import djsim  # timed: part of setup_s
    import workloads

    source = (ROOT / "src").resolve()
    if source not in Path(djsim.__file__).resolve().parents:
        print(f"djsim was imported from {djsim.__file__}, not from {source}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    wl.warm_up()
    setup_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        **versions(),
        "cases": [[c.alg, c.n, c.t, c.q] for c in wl.cases],
        "max_qubits": djsim.sim.MAX_QUBITS,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        wl.prepare(args.seed, workdir)
        if args.mode == "run":
            loop = run_ops(wl, seconds=args.seconds)
            result["peak_rss_mb"] = peak_rss_mb()
        else:
            from tracer import Tracer

            loop = run_ops(wl, seconds=args.seconds / 3, fingerprint=True)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(wl, count=loop["ops"], tracer=tracer, expect=loop["fingerprints"])
            finally:
                tracer.restore()
            # The reference pass runs after the traced one: glibc's dynamic
            # mmap threshold settles over the first passes, and a reference
            # taken before them would read slower than the traced pass.
            faults = minor_faults()
            again = run_ops(wl, count=loop["ops"], expect=loop["fingerprints"])
            faults = minor_faults() - faults
            traced_wall = sum(traced["latencies"])
            result["per_layer"] = tracer.per_layer(loop["ops"], traced_wall, sum(again["latencies"]))
            result["per_layer"]["proc.minor_faults"] = (faults / loop["ops"], "1/op")
            tracer.save(OUT / f"spans-{args.workload}.npz")
            result["spans"] = len(tracer)
            for other in (traced, again):
                for key in ("failed", "fns"):
                    loop[key] += other[key]
                loop["failure_messages"] += other["failure_messages"]
            loop["ops"] *= 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tail_s, above = tail(loop["latencies"], wl.tail_percentile)
    result.update(
        {
            "ops": loop["ops"],
            "failed": loop["failed"],
            "failure_messages": loop["failure_messages"],
            "fns": loop["fns"],
            "wall_s": loop["wall_s"],
            "samples": len(loop["latencies"]),
            "op_p50_s": statistics.median(loop["latencies"]),
            "op_tail_s": tail_s,
            "tail_percentile": wl.tail_percentile,
            "samples_above_tail": above,
            "inputs_sha256": wl.inputs_digest(len(loop["latencies"])),
            "second_branch_frac": wl.second_branch_ops / wl.branch_ops if wl.branch_ops else None,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
