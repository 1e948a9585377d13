"""Byte-for-byte pins of ``--deterministic`` CLI output.

``tests/data/golden_cli.json`` holds argv, exit status and stdout of ``run``
for all six algorithms (the four conftest tables and seeded random functions
at n = 5..6, at most 20 qubits) and of ``verify --n 3``, captured from the
simulator before its amplitudes became real; and of ``resources`` (t = 1..3
in json, csv and table, and t = 40) and ``verify --n 3`` for the two inexact
baselines with their failure lists, captured before the algorithms became
circuit descriptions; and of ``error-prob`` (t = 1 at n = 2..9, t = 2 at
n = 3..9 and t = 3 at n = 4..5 in json, two of them in csv and table),
captured while the error model still summed over weight configurations;
and of ``run`` on registers of 9 and 10 measured wires (dj at n = 10 in json
and table, alg2 t = 2 at n = 11), captured while the executor still made the
outcome strings; and of ``classify`` (the paper's Theorems 1-3 verdicts,
the delta sums and the B/C/M counters: the four conftest tables, a seeded
random function at n = 6, the zero function and the table ``off_promise``,
in json, csv and table), captured before every description ended with its
readout Hadamard.  The ``classify`` cases are pins of code that change did
not touch: they pass on both sides of it.  An ``@name`` argument stands for
a truth-table file holding ``tables[name]``.  Changes that only simplify
the engine must reproduce every byte.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from djsim import cli, random_balanced_table, run_named

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_byte_identical(case, tmp_path):
    argv = []
    for arg in case["argv"]:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(GOLDEN["tables"][arg[1:]]))
            arg = str(path)
        argv.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv + ["--deterministic"])
    assert status == case["status"]
    assert out.getvalue() == case["stdout"]


# sha256 of each command's --deterministic stdout, captured while the
# executor still made the outcome strings (172,052 bytes for dj at n = 12).
LIBRARY_RUNS = {
    ("dj", 12, None, 12): "3fc228ff51ec51bda254ec618742ec6e4851dbdc764b2816fb2ea7066b8741c9",
    ("alg3", 6, 2, 607): "1e2b3a1d06c067c4089d02743adc5f446eaeaaa710bce032cb58c74fca1af21d",
    ("err-multi", 5, 2, 508): "5314824ea6697096779358f9aed1b42abce0924bd878d7577d4738133ef13bfd",
}


@pytest.mark.parametrize("alg,n,t,seed", LIBRARY_RUNS, ids=lambda v: str(v))
def test_library_reports_keep_arrays_and_the_cli_prints_the_same_bytes(alg, n, t, seed):
    report = run_named(alg, random_balanced_table(n, np.random.default_rng(seed)), t)
    logged = [entry["distribution"] for entry in report.branch_log if "distribution" in entry]
    assert logged and not any(isinstance(d, dict) for d in logged)
    argv = ["run", "--gen", "random", "--n", str(n), "--seed", str(seed), "--alg", alg]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ([] if t is None else ["--t", str(t)]) + ["--deterministic"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == LIBRARY_RUNS[alg, n, t, seed]
