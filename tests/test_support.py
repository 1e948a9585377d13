"""The support state against the dense reference on every promise function up to n = 4.

alg2 and alg3 run on a support state, because their descriptions have work
registers; ``_execute(..., dense=True)`` runs the same description on the
dense engine.  Both must give the same label probabilities and work-register
probability at 1e-12, and the same branch log once rendered.
"""

import numpy as np
import pytest

from djsim import cli, enumerate_promise_functions
from djsim.algorithms import _execute, circuit

TOL = 1e-12


def one_run(c, f, dense=False):
    """``_execute`` on a batch of one: (p_constant, branch log, work-register p_all_zero)."""
    p, log, anc = _execute(c, f.as_array().reshape(1, -1, 1 << c.t).astype(np.int64), dense=dense)
    return p[0], log, anc[0]


def dense_reference(c, f):
    return one_run(c, f, dense=True)


def assert_agree(p_constant, p_balanced, anc, log, reference):
    p_ref, log_ref, anc_ref = reference
    assert abs(p_constant - p_ref) <= TOL
    assert abs(p_balanced - (1.0 - p_ref)) <= TOL
    assert abs(anc - anc_ref) <= TOL
    assert log == log_ref or cli._clean(log) == cli._clean(log_ref)


def assert_run_agrees(c, f, reference):
    p, log, anc = one_run(c, f)
    assert_agree(p, 1.0 - p, anc, log, reference)


def one_dense_run_serves_both_layouts(n, t):
    """The compact layout runs A' on A's wires: check that its dense composed
    fixed blocks equal the interleaved ones, so one dense run is the
    reference of both layouts."""
    interleaved, compact = circuit("alg3", n, t, "interleaved"), circuit("alg3", n, t, "compact")
    zeros = np.zeros((1, 1 << (n - t), 1 << t), dtype=np.int64)
    _execute(interleaved, zeros, dense=True)
    _execute(compact, zeros, dense=True)
    assert interleaved.sources.keys() == compact.sources.keys()
    for step, src in interleaved.sources.items():
        assert np.array_equal(src, compact.sources[step])
    return interleaved, compact


@pytest.mark.parametrize("t", [1, 2, 3])
def test_alg2_support_matches_dense(t):
    for n in range(t + 1, 5):
        c = circuit("alg2", n, t)
        assert c.support
        for f in enumerate_promise_functions(n):
            assert_run_agrees(c, f, dense_reference(c, f))


@pytest.mark.parametrize("t", [1, 2])
def test_alg3_support_matches_dense_for_both_adder_layouts(t):
    # n = 4 at t = 2 is the acceptance sweep, checked below.
    for n in range(t + 1, 5 if t == 1 else 4):
        interleaved, compact = one_dense_run_serves_both_layouts(n, t)
        assert interleaved.support and compact.support
        for f in enumerate_promise_functions(n):
            reference = dense_reference(interleaved, f)
            assert_run_agrees(interleaved, f, reference)
            assert_run_agrees(compact, f, reference)


def test_alg3_t2_sweep_matches_dense(alg3_t2_sweep):
    interleaved, _ = one_dense_run_serves_both_layouts(4, 2)
    functions = list(enumerate_promise_functions(4))
    assert len(functions) == len(alg3_t2_sweep) == 12872
    for f, (_, a, b) in zip(functions, alg3_t2_sweep):
        reference = dense_reference(interleaved, f)
        for report in (a, b):
            assert report.function_id == f.digest()
            # branch_log[0] is the static node-assignment entry run_named adds.
            assert_agree(report.p_constant, report.p_balanced, report.ancilla_zero_prob, report.branch_log[1:], reference)
