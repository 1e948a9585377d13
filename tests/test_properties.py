"""Property tests: the exact algorithms on random promise functions beyond the exhaustive range."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from djsim import cli, make_function
from djsim.algorithms import _execute, circuit, probability_oracle, run_named

TOL_EXACT = 1e-12


@st.composite
def promise_functions(draw):
    """A constant or balanced truth table at n = 5..8."""
    n = draw(st.integers(5, 8))
    size = 1 << n
    if draw(st.booleans()):
        table = [draw(st.integers(0, 1))] * size
    else:
        table = [0] * size
        for x in draw(st.permutations(range(size)))[: size // 2]:
            table[x] = 1
    return make_function(n, table)


# q <= 20 throughout, so the dense reference holds every circuit: alg2 uses
# n + 2^t + 3 qubits, alg3 n + 3 * 2^(t-1) + 2t + 2.  RUNS[2:] run on a
# support state.
RUNS = [("dj", None), ("alg1", None)] + [("alg2", t) for t in (1, 2, 3)] + [("alg3", t) for t in (1, 2)]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(f=promise_functions())
def test_exact_algorithms_give_the_promise_verdict(f):
    for algorithm, t in RUNS:
        report = run_named(algorithm, f, t)
        assert report.verdict == f.promise.value, (algorithm, t)
        assert max(report.p_constant, report.p_balanced) >= 1.0 - TOL_EXACT, (algorithm, t)
        probability_oracle(report, f, tol=TOL_EXACT)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(f=promise_functions())
def test_support_state_matches_the_dense_reference(f):
    for algorithm, t in RUNS[2:]:
        c = circuit(algorithm, f.n, t)
        rows = f.as_array().reshape(-1, 1 << t).astype(np.int64)
        p, log, anc = _execute(c, rows)
        p_ref, log_ref, anc_ref = _execute(c, rows, dense=True)
        assert abs(p - p_ref) <= TOL_EXACT and abs(anc - anc_ref) <= TOL_EXACT, (algorithm, t)
        assert cli._clean(log) == cli._clean(log_ref), (algorithm, t)
