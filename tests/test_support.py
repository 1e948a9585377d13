"""The support state against the tests' dense reference on every promise function up to n = 4.

alg2 and alg3 run on a support state, because their descriptions have work
registers; ``tests/dense_reference.py`` runs the same description on all 2^q
amplitudes with none of ``djsim.sim``'s kernels.  Both must give the same
label probabilities and work-register probability at 1e-12, and the same
branch log once rendered.
"""

import numpy as np
import pytest

from djsim import cli, enumerate_promise_functions
from djsim.algorithms import _execute, circuit
from tests import dense_reference

TOL = 1e-12


def family_rows(n, t):
    functions = list(enumerate_promise_functions(n))
    tables = np.stack([np.frombuffer(f.table, dtype=np.uint8) for f in functions])
    return functions, tables.reshape(len(tables), -1, 1 << t).astype(np.int64)


def assert_agree(p_constant, p_balanced, anc, log, p_ref, anc_ref, log_ref):
    assert abs(p_constant - p_ref) <= TOL
    assert abs(p_balanced - (1.0 - p_ref)) <= TOL
    assert abs(anc - anc_ref) <= TOL
    assert log == log_ref or cli._clean(log) == cli._clean(log_ref)


def assert_runs_agree(c, rows, reference):
    """Each function's own support run (a batch of one) against its row of the reference."""
    for r, (p_ref, anc_ref, log_ref) in enumerate(zip(*reference)):
        (p,), log, (anc,) = _execute(c, rows[r : r + 1])
        assert_agree(p, 1.0 - p, anc, log, p_ref, anc_ref, log_ref)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_alg2_support_matches_dense(t):
    for n in range(t + 1, 5):
        c = circuit("alg2", n, t)
        assert c.support
        _, rows = family_rows(n, t)
        assert_runs_agree(c, rows, dense_reference.run(c, rows))


@pytest.mark.parametrize("t", [1, 2])
def test_alg3_support_matches_dense(t):
    # n = 4 at t = 2 is the acceptance sweep, checked below.
    for n in range(t + 1, 5 if t == 1 else 4):
        c = circuit("alg3", n, t)
        assert c.support
        _, rows = family_rows(n, t)
        assert_runs_agree(c, rows, dense_reference.run(c, rows))


def test_alg3_t2_sweep_matches_dense(alg3_t2_sweep):
    functions, rows = family_rows(4, 2)
    assert len(functions) == len(alg3_t2_sweep) == 12872
    for f, (_, report), p_ref, anc_ref, log_ref in zip(functions, alg3_t2_sweep, *dense_reference.run(circuit("alg3", 4, 2), rows)):
        assert report.function_id == f.digest()
        # branch_log[0] is the static node-assignment entry run_named adds.
        assert_agree(report.p_constant, report.p_balanced, report.ancilla_zero_prob, report.branch_log[1:], p_ref, anc_ref, log_ref)
