"""The benchmark's per-layer trace still sees the simulator kernels.

``perfbench/tracer.py`` attributes time by replacing names on
``djsim.algorithms`` (the kernels, the gate builders, ``run_named`` ...).  A
refactor that stops calling the kernels through those names would leave the
trace silently empty; this test fails instead.
"""

import sys
from collections import Counter
from pathlib import Path

from djsim import algorithms, make_function

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_records_the_kernels_of_every_algorithm(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    f = make_function(4, [0, 1] * 8)
    trace = tracer.Tracer()
    trace.install()
    try:
        for name, t in (("dj", None), ("alg1", None), ("alg2", 2), ("alg3", 2), ("err-multi", 2), ("err-4node", None)):
            algorithms.run_named(name, f, t)
    finally:
        trace.restore()
    nid, _, _ = trace.self_times()
    calls = Counter(trace.names[i] for i in nid)
    assert calls["algorithms.run"] == 6
    # err-multi runs its circuit once per node: 4 of the 9 runs.
    assert calls["sim.init"] == 9
    assert calls["sim.hadamard"] > 0
    assert calls["sim.measure"] > 0
