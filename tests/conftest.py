import pytest

from djsim import enumerate_promise_functions, make_function
from djsim.algorithms import run_named

# Worked reference tables, flat big-endian indexing f(x) = table[x], x = u.w.
TWO_NODE_TABLE = [1, 0, 0, 0, 0, 1, 1, 1]  # n=3: f_0=(1,0,0,1), f_1=(0,0,1,1)
DELTA_TABLE = [1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0]  # n=4: delta=(0,-2,2,0)
PAIR_TABLE = [1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0]  # n=4: Delta=(0,-1,1,0)
XOR_KERNEL_TABLE = [1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0]  # n=4: 4-node counterexample


@pytest.fixture
def two_node_example():
    return make_function(3, TWO_NODE_TABLE)


@pytest.fixture
def delta_example():
    return make_function(4, DELTA_TABLE)


@pytest.fixture
def pair_example():
    return make_function(4, PAIR_TABLE)


@pytest.fixture
def xor_kernel_example():
    return make_function(4, XOR_KERNEL_TABLE)


@pytest.fixture(scope="session")
def alg3_t2_sweep():
    """Exhaustive n=4, t=2 pairing-circuit results under both adder layouts.

    Shared by the acceptance criteria and the support-versus-dense check.
    """
    rows = []
    for f in enumerate_promise_functions(4):
        a = run_named("alg3", f, 2, adder_layout="interleaved")
        b = run_named("alg3", f, 2, adder_layout="compact")
        rows.append((f.promise.value, a, b))
    return rows
