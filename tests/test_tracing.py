"""The benchmark's tracer (``perfbench/tracing.py``) patches the package at the
names its callers look up; it must install on the package as it stands, see
the selection kernels' pricing calls and leave every name as it found it."""

import os
from fractions import Fraction

import minkclust
from minkclust import Cost, DistanceOrder, SelectionInstance

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
PATCHED_MODULES = ("centroids", "cost_model", "generators", "hypergraph", "selection",
                   "simplex", "solver")


def test_tracer_installs_traces_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    modules = [minkclust] + [getattr(minkclust, name) for name in PATCHED_MODULES]
    before = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        groups = [[(0, 1), (3, 3)], [(1, 1), (4, 0)]]
        l1 = SelectionInstance.of(groups, Cost.of(1), DistanceOrder.l1())
        half = SelectionInstance.of(groups, Cost.of(1), DistanceOrder.lp(Fraction(1, 2)))
        assert minkclust.solve_selection(l1).decision
        assert minkclust.solve_selection(half).decision
    finally:
        tracer.uninstall()
    assert [dict(vars(mod)) for mod in modules] == before
    assert tracer.calls["selection.l1"] == tracer.calls["selection.lp01"] == 1
    # the tuple search prices partial tuples, and the centroid search reads its
    # float limit, through the names the tracer patches
    assert tracer.calls["centroids.l1"] > 1
    assert tracer.calls["cost_model.cost_le"] > 0
    assert tracer.counts["cost_model.cost_eval.calls"] > 0
