"""Self-test of the benchmark's own machinery (about half a minute).

    python3 perfbench/selftest.py

1. Corrupted outputs are counted: each kind of wrong output (verdict,
   exactness, closed form, function id, exit code, functions_checked) is fed
   to one op's check and must show up as exactly one failed op.
2. Tracing does not change results: the same ops run untraced and traced
   give byte-identical ``--deterministic`` CLI output and equal RunReport
   probabilities.
3. Self times add up: the per-layer self times plus the benchmark's own
   check account for at least 98% of the traced op wall time, and the same
   run with ``djsim.algorithms.run_named`` left unwrapped falls short of it.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from worker import OUT, ROOT, run_ops, tail

sys.path.insert(0, str(ROOT / "src"))

import djsim.algorithms  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def edit_stdout(**changes):
    def corrupt(i, output):
        payload = json.loads(output["stdout"])
        payload.update(changes)
        return {**output, "stdout": json.dumps(payload, sort_keys=True, indent=2)}

    return corrupt


def flip(verdict: str) -> str:
    return "balanced" if verdict == "constant" else "constant"


def flip_verdict_stdout(i, output):
    payload = json.loads(output["stdout"])
    return edit_stdout(verdict=flip(payload["verdict"]))(i, output)


def flip_verdict_report(i, output):
    report = output["report"]
    changed = dataclasses.replace(
        report, verdict=flip(report.verdict), p_constant=report.p_balanced, p_balanced=report.p_constant
    )
    return {**output, "report": changed}


def nudge_p_constant(delta: float):
    def corrupt(i, output):
        report = output["report"]
        return {**output, "report": dataclasses.replace(report, p_constant=report.p_constant + delta)}

    return corrupt


def edit_report(**changes):
    def corrupt(i, output):
        return {**output, "report": dataclasses.replace(output["report"], **changes)}

    return corrupt


def prepared(cls, workdir: Path):
    wl = cls()
    wl.warm_up()
    wl.prepare(SEED, workdir)
    return wl


def check_corruption(wl, count: int, name: str, corrupt) -> None:
    target = count - 1

    def only_last(i, output):
        return corrupt(i, output) if i == target else output

    res = run_ops(wl, count=count, corrupt=only_last)
    expect(res["failed"] == 1 and res["ops"] == count, f"{wl.name}: corrupted {name} is counted ({res['failure_messages']})")


def traced_run(wl, count: int, expect_fps=None, unwrapped: str = ""):
    """(run_ops result, tracer) of ``count`` traced ops; ``unwrapped`` names a
    ``djsim.algorithms`` function left out of the trace."""
    tracer = Tracer()
    original = getattr(djsim.algorithms, unwrapped) if unwrapped else None
    tracer.install()
    try:
        if unwrapped:
            setattr(djsim.algorithms, unwrapped, original)
        res = run_ops(wl, count=count, tracer=tracer, expect=expect_fps)
    finally:
        tracer.restore()
    return res, tracer


def check_trace_identity(wl, count: int) -> None:
    plain = run_ops(wl, count=count, fingerprint=True)
    traced, tracer = traced_run(wl, count, plain["fingerprints"])
    expect(plain["failed"] == 0 and traced["failed"] == 0, f"{wl.name}: {count} traced ops reproduce the untraced output exactly")
    frac = tracer.accounted_frac(sum(traced["latencies"]))
    expect(0.98 <= frac <= 1.0, f"{wl.name}: layers and check account for {frac:.4f} of the traced op wall time")


def check_unwrapped_time_shows(wl, count: int) -> None:
    traced, tracer = traced_run(wl, count, unwrapped="run_named")
    frac = tracer.accounted_frac(sum(traced["latencies"]))
    expect(traced["failed"] == 0 and frac < 0.98, f"{wl.name}: with run_named unwrapped only {frac:.4f} is accounted for")


def main() -> int:
    expect(tail(list(range(1000)), 99) == (989.01, 10), "tail: p99 of 1000 samples has ten above it")
    expect(tail([4.0, 1.0, 3.0, 2.0, 5.0], 75) == (4.0, 1), "tail: p75 of five samples")
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        alg3 = prepared(workloads.Alg3N4, workdir)
        check_corruption(alg3, 9, "verdict", flip_verdict_report)
        check_corruption(alg3, 9, "exactness at 1e-12", nudge_p_constant(-2e-12))
        check_corruption(alg3, 9, "function id", edit_report(function_id="4:0001"))
        check_corruption(alg3, 9, "closed form", lambda i, out: {**out, "closed": out["closed"] + 1e-9})
        check_trace_identity(alg3, 64)
        check_unwrapped_time_shows(alg3, 64)

        verify = prepared(workloads.VerifyN4, workdir)
        check_corruption(verify, 1, "functions_checked", edit_stdout(functions_checked=12871))
        check_corruption(verify, 1, "exit code", lambda i, out: {**out, "rc": 2})
        check_trace_identity(verify, 1)

        wide = prepared(workloads.Wide, workdir)
        check_corruption(wide, 2, "verdict", flip_verdict_stdout)
        check_corruption(wide, 2, "exit code", lambda i, out: {**out, "rc": 3, "stderr": "invariant breach"})
        check_trace_identity(wide, 3)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
