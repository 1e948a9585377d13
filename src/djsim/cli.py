"""Command-line front end: classify, run, verify, error-prob, resources.

Exit codes: 0 success, 1 usage error, 2 verification failure of an exact
algorithm, 3 internal invariant breach.

Truth-table file format (JSON): {"n": <int>, "bits": "<2^n chars of 0/1>"}
or {"n": <int>, "hex": "<2^n/4 hex digits, big-endian over indices>"}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import string
import sys
import time
from functools import lru_cache
from typing import Any, Optional

import numpy as np

from . import analysis, boolfn
from .algorithms import ALGORITHM_NAMES, InvariantBreach, RunReport, probability_oracle, run_named
from .boolfn import BooleanFunction, Decomposition, Verdict, compute_stats, corollary_witness, make_function
from .sim import Outcomes

EXACT_ALGORITHMS = ("dj", "alg1", "alg2", "alg3")
PROB_TOL = 1e-12
# Deletes the characters 0 and 1: what is left of a 'bits' string is not a bit.
_DROP_BITS = str.maketrans("", "", "01")
# Deletes the ASCII hex digits: int(s, 16) alone also takes a sign, 0x, _ and whitespace.
_DROP_HEX = str.maketrans("", "", string.hexdigits)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 1."""

    def error(self, message: str):
        raise UsageError(message)


def round_sig(x: float, digits: int = 12) -> float:
    """Round a float to the given number of significant digits."""
    return float(f"{x:.{digits}g}")


def render_probability(p: float) -> tuple[float, bool]:
    """Snap probabilities to exact 0/1 within tolerance; report exactness."""
    if p <= PROB_TOL:
        return 0.0, True
    if p >= 1.0 - PROB_TOL:
        return 1.0, True
    return round_sig(p), False


def _clean(value: Any) -> Any:
    """Round every float in a payload for stable rendering; a branch log's outcome arrays become {bit string: probability}."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, float):
        snapped, _ = render_probability(value) if 0.0 <= value <= 1.0 else (round_sig(value), False)
        return snapped
    if isinstance(value, Outcomes):
        return _clean(value.distribution())
    return value


def load_truth_table(path: str) -> BooleanFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read truth-table file {path}: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data:
        raise UsageError(f"truth-table file {path} must be a JSON object with an 'n' field")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= boolfn.MAX_ARITY:
        raise UsageError(f"'n' must be an integer in [1, {boolfn.MAX_ARITY}]")
    has_bits = "bits" in data
    has_hex = "hex" in data
    if has_bits == has_hex:
        raise UsageError("truth-table file must carry exactly one of 'bits' or 'hex'")
    size = 1 << n
    if has_bits:
        bits = data["bits"]
        if not isinstance(bits, str) or bits.translate(_DROP_BITS):
            raise UsageError("'bits' must be a string of 0/1 characters")
        if len(bits) != size:
            raise UsageError(f"'bits' must have length 2^{n} = {size}, got {len(bits)}")
        table = bits
    else:
        if size % 4 != 0:
            raise UsageError("hex shorthand requires n >= 2; use 'bits' instead")
        hexstr = data["hex"]
        digits = size // 4
        if not isinstance(hexstr, str) or len(hexstr) != digits:
            raise UsageError(f"'hex' must have {digits} hex digits for n = {n}")
        if hexstr.translate(_DROP_HEX):
            raise UsageError(f"'hex' is not valid hexadecimal: {hexstr!r}")
        table = format(int(hexstr, 16), f"0{size}b")
    try:
        return make_function(n, table)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_function(args) -> BooleanFunction:
    if args.seed is not None and args.seed < 0:  # numpy's generators take none
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.input and args.gen:
        raise UsageError("pass exactly one input source: --input or --gen")
    if args.input:
        if args.n is not None:
            raise UsageError("--n does not apply to --input: the file sets n")
        return load_truth_table(args.input)
    if args.gen:
        if args.n is None:
            raise UsageError("--gen requires --n")
        n = args.n
        if not 1 <= n <= boolfn.MAX_ARITY:
            raise UsageError(f"'n' must be an integer in [1, {boolfn.MAX_ARITY}]")
        if args.gen == "zeros":
            return make_function(n, bytes(1 << n))
        if args.gen == "ones":
            return make_function(n, bytes([1]) * (1 << n))
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        return boolfn.random_balanced_table(n, rng)
    raise UsageError("an input source is required: --input FILE or --gen SPEC")


def _report_payload(report: RunReport) -> dict:
    p_constant, const_exact = render_probability(report.p_constant)
    p_balanced, bal_exact = render_probability(report.p_balanced)
    payload = {
        "algorithm": report.algorithm,
        "function_id": report.function_id,
        "n": report.n,
        "t": report.t,
        "q_used": report.q_used,
        "gate_count": report.gate_count,
        "gate_breakdown": report.gate_breakdown,
        "p_constant": p_constant,
        "p_constant_exact": const_exact,
        "p_balanced": p_balanced,
        "p_balanced_exact": bal_exact,
        "verdict": report.verdict,
        "verdict_exact": report.verdict_exact,
        "branch_log": _clean(report.branch_log),
    }
    if report.ancilla_zero_prob is not None:
        payload["ancilla_zero_prob"] = _clean(report.ancilla_zero_prob)
    return payload


def _sampled_shot(report: RunReport, seed: int) -> dict:
    """One simulated shot drawn from the recorded exact branch distributions.

    Each branch-log entry with a distribution is drawn once, in order, and
    keyed by its node (``node_<w>``) or its stage.  Any 1 makes the verdict
    balanced; a 1 on the decision qubit ends the shot.
    """
    rng = np.random.default_rng(seed)
    outcomes: dict[str, str] = {}
    verdict = "constant"
    for entry in report.branch_log:
        if "distribution" not in entry:
            continue
        kept = entry["distribution"]
        z = kept.key(int(kept.outcomes[rng.choice(len(kept.outcomes), p=kept.probs / kept.probs.sum())]))
        outcomes[f"node_{entry['w']}" if "w" in entry else entry["stage"]] = z
        if "1" in z:
            verdict = "balanced"
            if entry["stage"] == "decision_qubit":
                break
    return {"seed": seed, "outcomes": outcomes, "verdict": verdict}


def cmd_classify(args) -> tuple[dict, int]:
    if args.seed is not None and args.gen != "random":
        raise UsageError("classify reads --seed only with --gen random")
    f = _resolve_function(args)
    t = args.t if args.t is not None else 1
    if not 1 <= t < f.n:
        raise UsageError(f"--t must satisfy 1 <= t < n, got t={t}, n={f.n}")
    d = Decomposition(f, t)
    stats = compute_stats(d)
    verdicts = {
        "theorem2": boolfn.classify_theorem2(stats).value,
        "theorem3": boolfn.classify_theorem3(stats).value,
    }
    if t == 1:
        verdicts["theorem1"] = boolfn.classify_theorem1(stats).value
    witness = corollary_witness(d)
    violated = f.promise == boolfn.Promise.UNKNOWN or any(
        v == Verdict.PROMISE_VIOLATED.value for v in verdicts.values()
    )
    payload = {
        "command": "classify",
        "function_id": f.digest(),
        "n": f.n,
        "t": t,
        "promise": f.promise.value,
        "promise_violated": violated,
        "verdicts": dict(sorted(verdicts.items())),
        "delta": list(stats.delta),
        "big_delta": list(stats.big_delta),
        "delta_sum": stats.delta_sum,
        "big_delta_sum": stats.big_delta_sum,
        "witness": witness,
    }
    if t == 1:
        payload["counters"] = {
            "b00": stats.b00,
            "b01": stats.b01,
            "b10": stats.b10,
            "b11": stats.b11,
            "c00": stats.c00,
            "c01": stats.c01,
            "c10": stats.c10,
            "c11": stats.c11,
            "m": stats.m,
        }
    return payload, 0


def cmd_run(args) -> tuple[dict, int]:
    if args.adder is not None and args.alg != "alg3":
        raise UsageError("run reads --adder only with --alg alg3")
    f = _resolve_function(args)
    if args.alg is None:
        raise UsageError("--alg is required for run")
    try:
        report = run_named(args.alg, f, args.t, adder_layout=args.adder or "interleaved")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    probability_oracle(report, f)  # invariant gate: closed form must match the simulation
    payload = {"command": "run", **_report_payload(report)}
    if args.seed is not None:
        payload["sampled_shot"] = _sampled_shot(report, args.seed)
    return payload, 0


def cmd_verify(args) -> tuple[dict, int]:
    if args.alg is None:
        raise UsageError("--alg is required for verify")
    if args.n is None:
        raise UsageError("--n is required for verify")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        summary = analysis.verify_sweep(args.n, args.t, args.alg, jobs=args.jobs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except MemoryError as exc:
        t = analysis.circuit(args.alg, args.n, args.t).t
        raise UsageError(f"the failure records of {args.alg} at n={args.n}, t={t} did not fit in memory") from exc
    payload = {"command": "verify", **summary.to_record(include_wall_time=not args.deterministic)}
    payload["failures"] = _clean(payload["failures"])
    if "wall_time_s" in payload:
        payload["wall_time_s"] = round_sig(payload["wall_time_s"])
    if args.alg in EXACT_ALGORITHMS and summary.failures:
        return payload, 2
    return payload, 0


def cmd_error_prob(args) -> tuple[dict, int]:
    if args.n is None:
        raise UsageError("--n is required for error-prob")
    n = args.n
    t = args.t if args.t is not None else 1
    try:
        multi = analysis.multinode_misid_probability(n, t)
        two_node = analysis.two_node_misid_probability(n) if t == 1 else None
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if t == 1 and abs(multi - two_node) > PROB_TOL * multi:
        raise InvariantBreach(f"at n={n} the two-node sum {two_node!r} disagrees with the multi-node model {multi!r}")
    cap = (1 << n) >> t
    payload = {
        "command": "error-prob",
        "n": n,
        "t": t,
        "multinode_misid_probability": round_sig(multi),
        "per_node_success_prob": {
            str(k): round_sig(analysis.per_node_success_prob(k, n, t)) for k in range(cap + 1)
        },
    }
    if t == 1:
        payload["two_node_misid_probability"] = round_sig(two_node)
    return payload, 0


def cmd_resources(args) -> tuple[dict, int]:
    if args.t is None:
        raise UsageError("--t is required for resources")
    n = args.n if args.n is not None else args.t + 1
    try:
        table = analysis.resource_table(args.t, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return {"command": "resources", **table.to_record()}, 0


def flatten_payload(payload: dict, prefix: str = "") -> list[tuple[str, Any]]:
    """Flatten nested dicts/lists into dotted-key scalar pairs (CSV view)."""
    rows: list[tuple[str, Any]] = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(flatten_payload(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            rows.extend(flatten_payload(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def render(payload: dict, fmt: str, deterministic: bool) -> str:
    if not deterministic and "timestamp" not in payload and fmt != "table":
        payload = {**payload, "timestamp": time.time()}
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        pairs = flatten_payload(payload)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([k for k, _ in pairs])
        writer.writerow([json.dumps(v) if not isinstance(v, str) else v for _, v in pairs])
        return buf.getvalue().rstrip("\n")
    lines = [f"{key} = {value}" for key, value in flatten_payload(payload)]
    return "\n".join(lines)


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The djsim argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="djsim", description="Distributed Deutsch-Jozsa simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the options it reads: any other is a usage error.
    def add_common(p: _Parser, with_input: bool = False) -> None:
        p.add_argument("--n", type=int, default=None, help="function arity")
        p.add_argument("--t", type=int, default=None, help="split size (subfunction suffix bits)")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--deterministic", action="store_true", help="suppress timestamp/wall-time fields")
        if with_input:
            p.add_argument("--input", type=str, default=None, help="truth-table JSON file")
            p.add_argument("--gen", choices=("zeros", "ones", "random"), default=None, help="generated input")
            p.add_argument("--seed", type=int, default=None, help="seed for --gen random and run's sampled shot")

    p_classify = sub.add_parser("classify", help="structural statistics and theorem verdicts")
    add_common(p_classify, with_input=True)

    p_run = sub.add_parser("run", help="run one algorithm on one function")
    add_common(p_run, with_input=True)
    p_run.add_argument("--alg", choices=ALGORITHM_NAMES, default=None)
    p_run.add_argument("--adder", choices=("interleaved", "compact"), default=None,
                       help="adder layout variant for alg3 (default: interleaved)")

    p_verify = sub.add_parser("verify", help="exhaustive sweep over all promise functions")
    add_common(p_verify)
    p_verify.add_argument("--alg", choices=ALGORITHM_NAMES, default=None)
    p_verify.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per usable CPU (default: 1)")

    p_err = sub.add_parser("error-prob", help="closed-form misidentification probabilities")
    add_common(p_err)

    p_res = sub.add_parser("resources", help="qubit/gate resource table")
    add_common(p_res)

    return parser


_COMMANDS = {
    "classify": cmd_classify,
    "run": cmd_run,
    "verify": cmd_verify,
    "error-prob": cmd_error_prob,
    "resources": cmd_resources,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, status = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    try:
        print(render(payload, args.format, args.deterministic), flush=True)
    except BrokenPipeError:
        # The reader closed stdout early: the rest of the output goes nowhere,
        # including what is still buffered when the interpreter exits.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
