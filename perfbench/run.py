"""djsim benchmark: one command, one workload per call, every metric by name and unit.

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 50 --trace 0

Each call runs the workload in fresh worker processes (``worker.py``), with
one closed-loop client, ``--jobs 1`` and BLAS threads pinned to 1.  With
``--trace 0`` it reports the end-to-end metrics: ``setup_s`` is the median
of several fresh set-ups (import plus warm-up), the rest come from one timed
loop of ``--seconds``.  With ``--trace 1`` it reports the per-layer metrics
of a separate traced run (see ``tracer.py``).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record (machine, regime, seed, input digest, percentiles) goes to the
line before it and to ``perfbench/out/``.  The exit code is 1 when any op
failed its check, 2 when the checkout holds no djsim sources or a worker
process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-n4", "alg3-n4", "wide")
# Fresh set-ups per call (the measuring worker's own set-up is one of them).
# verify-n4 and alg3-n4 set up in 0.1-0.2 s, where host noise spreads a
# single sample by a third; wide's 4 s set-up is steady with three.
SETUP_SAMPLES = {"verify-n4": 15, "alg3-n4": 15, "wide": 3}
# Complex amplitude buffers alive at once: the state and its scratch buffer,
# and the collapsed branch with its own scratch buffer.
STATE_BUFFERS = 4
PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "DJSIM_JOBS": "1",
}


# Printed and recorded, but left out of the result line, so not gated by
# BENCHMARK.json.  This host runs in a fast and a slow state, each lasting
# seconds to minutes, and stalls now and then, so op latency has two modes
# and a spiky tail: a run's median falls in whichever mode holds more of its
# ops and jumps between them from run to run, and its tail follows the
# stalls, while the mean behind fns_per_s moves smoothly (README, Noise).
UNGATED = ("op_p50_ms", "op_tail_ms")


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    env = {**os.environ, **PIN}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=seconds + 120)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def machine() -> dict:
    """CPU, caches and core count, read-only from /proc and /sys."""
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            shared = _read(index / "shared_cpu_list")
            caches[f"L{level}"] = {"bytes": _size_bytes(_read(index / "size")), "shared_cpu_list": shared}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches_per_instance": caches,
        "thread_pin": PIN,
    }


def regime(cases: list, caches: dict) -> list[dict]:
    """Computed state bytes of each (algorithm, n, t, q) circuit beside the cache sizes."""
    l2 = caches.get("L2", {}).get("bytes", 0)
    l3 = caches.get("L3", {}).get("bytes", 0)
    rows = []
    for alg, n, t, q in cases:
        buffer = 16 << q
        rows.append({
            "alg": alg, "n": n, "t": t, "q": q,
            "buffer_bytes": buffer,
            "state_bytes_computed": buffer * STATE_BUFFERS,
            "buffers": STATE_BUFFERS,
            "buffer_vs_L2": buffer / l2 if l2 else None,
            "state_vs_L3": buffer * STATE_BUFFERS / l3 if l3 else None,
        })
    return rows


def regime_note(caches: dict, max_qubits: int) -> str:
    l3 = caches.get("L3", {}).get("bytes", 0)
    if not l3:
        return "last-level cache size unknown"
    q_min = math.ceil(math.log2(4 * l3 / 16))
    verdict = "so no workload is memory-bandwidth bound" if q_min > max_qubits else "so one can be"
    return f"one buffer of 4x the last-level cache needs q >= {q_min}; djsim's MAX_QUBITS is {max_qubits}, {verdict}"


def end_to_end(setups: list[float], res: dict) -> dict:
    wall = res["wall_s"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "fns_per_s": (res["fns"] / wall, "1/s"),
        "op_p50_ms": (res["op_p50_s"] * 1e3, "ms"),
        "op_tail_ms": (res["op_tail_s"] * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="djsim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "djsim" / "__init__.py").is_file():
        print(f"error: no djsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            res = worker(args.workload, args.seed, args.seconds, "trace")
            metrics = {k: tuple(v) for k, v in res["per_layer"].items()}
            setups = [res["setup_s"]]
        else:
            # Half of the extra set-ups before the measuring worker and half
            # after it, so their median spans the run, not one stretch of
            # host speed.
            extra = SETUP_SAMPLES[args.workload] - 1
            setups = [worker(args.workload, args.seed, args.seconds, "setup")["setup_s"] for _ in range(extra // 2)]
            res = worker(args.workload, args.seed, args.seconds, "run")
            setups.append(res["setup_s"])
            setups += [worker(args.workload, args.seed, args.seconds, "setup")["setup_s"]
                       for _ in range(extra - extra // 2)]
            metrics = end_to_end(setups, res)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = res["ops"], res["failed"]
    host = machine()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": res["inputs_sha256"],
        "client": "closed loop, 1 client, jobs=1",
        "samples": res["samples"],
        "tail_percentile": res["tail_percentile"],
        "samples_above_tail": res["samples_above_tail"],
        "setup_samples_s": setups,
        "fail_frac": failed / attempted,
        "second_branch_frac": res["second_branch_frac"],
        "failure_messages": res["failure_messages"],
        "machine": {**host, "python": res["python"], "numpy": res["numpy"], "blas": res["blas"]},
        "regime": regime(res["cases"], host["caches_per_instance"]),
        "regime_note": regime_note(host["caches_per_instance"], res["max_qubits"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["spans"] = res["spans"]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    if res["second_branch_frac"] is not None:
        print(f"{args.workload} second measurement branch in {res['second_branch_frac']:.4g} of correct ops")
    if not args.trace:
        print(f"{args.workload} op latency: {res['samples']} samples, tail = p{res['tail_percentile']} "
              f"with {res['samples_above_tail']} samples above it")
    for message in res["failure_messages"]:
        print(f"{args.workload} FAILED {message}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in UNGATED},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
