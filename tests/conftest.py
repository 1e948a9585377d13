import numpy as np
import pytest

from djsim import enumerate_promise_functions, make_function
from djsim.algorithms import circuit, run_named
from djsim.gates import build_A, build_Aprime
from djsim.sim import StateVector, apply_permutation
from tests import dense_reference

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
    """Exhaustive n=4, t=2 pairing-circuit results: (promise, report) per function.

    Shared by the acceptance criteria, the batched sweep and the
    support-versus-dense check.
    """
    return [(f.promise.value, run_named("alg3", f, 2)) for f in enumerate_promise_functions(4)]


def adder_placements(t, rng, rows):
    """(states, A as alg3 places it applied to them, A' on packed wires applied to them).

    The states are ``rows`` random ones over the k wires that the first adder
    op of ``circuit("alg3", t + 1, t)`` spans: its interleaved controls, the
    value and AND wires between them, and its result register.  A runs there
    through the tests' dense reference.  A' runs through ``djsim.sim`` on the
    states with those wires relabelled: its controls first and consecutive,
    then its results, then the other wires; its output is relabelled back.
    A state whose 2^k amplitudes differ pins where every basis state goes.
    """
    op = next(op for op in circuit("alg3", t + 1, t).ops if op.name == "A")
    controls, results = op.wires
    low, k, pairs = controls.start, results[-1] - controls.start + 1, len(controls)
    states = rng.normal(size=(rows, 1 << k))
    gate = build_A(t, tuple(w - low for w in controls), tuple(w - low for w in results))
    placed = np.empty_like(states)
    placed[:, dense_reference.destination([gate], k)] = states
    order = [w - low for w in (*controls, *results)]
    order += [w for w in range(k) if w not in order]
    shape = (len(states),) + (2,) * k
    packed = StateVector(k, states.reshape(shape).transpose(0, *(1 + w for w in order)).reshape(len(states), -1).copy())
    apply_permutation(packed, build_Aprime(t, tuple(range(pairs)), tuple(range(pairs, pairs + t))))
    back = packed.amps.reshape(shape).transpose(0, *(1 + j for j in np.argsort(order))).reshape(len(states), -1)
    return states, placed, back
