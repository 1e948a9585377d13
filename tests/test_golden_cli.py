"""Byte-for-byte pins of ``--deterministic`` CLI output.

``tests/data/golden_cli.json`` holds argv, exit status and stdout of ``run``
for all six algorithms (the four conftest tables and seeded random functions
at n = 5..6, at most 20 qubits) and of ``verify --n 3``, captured from the
simulator before its amplitudes became real; and of ``resources`` (t = 1..3
in json, csv and table, and t = 40) and ``verify --n 3`` for the two inexact
baselines with their failure lists, captured before the algorithms became
circuit descriptions; and of ``error-prob`` (t = 1 at n = 2..9, t = 2 at
n = 3..9 and t = 3 at n = 4..5 in json, two of them in csv and table),
captured while the error model still summed over weight configurations.  An ``@name`` argument stands for a truth-table file
holding ``tables[name]``.  Changes that only simplify the engine must
reproduce every byte.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from djsim import cli

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
