"""The benchmark's tracer (``perfbench/tracing.py``) patches the package at the
names its callers look up; it must install on the package as it stands, see
the selection kernels' pricing calls and leave every name as it found it."""

import os
from fractions import Fraction

import minkclust
from minkclust import CnfFormula, Cost, DistanceOrder, Graph, SelectionInstance

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
        at_l1 = minkclust.solve_selection(l1)
        assert at_l1.decision
        assert minkclust.solve_selection(half).decision
        linf = SelectionInstance.of(groups + [[(4, 4), (2, 2)]], Cost.of(4), DistanceOrder.linf())
        at_linf = minkclust.solve_selection(linf, minimize=True)
        assert at_linf.decision
    finally:
        tracer.uninstall()
    assert [dict(vars(mod)) for mod in modules] == before
    assert tracer.calls["selection.l1"] == tracer.calls["selection.lp01"] == 1
    # the centroid search prices each admitted p = 1 leaf, and reads its float
    # limit for p < 1, through the names the tracer patches
    assert tracer.calls["centroids.l1"] == at_l1.stats["centroids_tried"]
    # the max-distance tuple search prices partial tuples from its gap rows and
    # builds a cluster only for each admitted complete tuple
    assert tracer.calls["centroids.linf"] == at_linf.stats["centroids_tried"] > 1
    assert tracer.calls["cost_model.cost_le"] > 0
    assert tracer.counts["cost_model.cost_eval.calls"] > 0


def test_tracer_counts_one_generator_call_per_construction(monkeypatch):
    """Verifying a graph reduction builds its target once; the SAT chain builds
    the transversal gadget and the 2-clustering instance once each."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    triangle = Graph.of(3, [(1, 2), (1, 3), (2, 3)], colors=[1, 2, 3])
    formula = CnfFormula(3, ((1, -2, 3),))
    tracer = tracing.Tracer()
    tracer.install()
    gen_calls = {}
    try:
        for name in minkclust.generators.REDUCTION_NAMES:
            source = formula if name == "3sat-hioct-linf2" else triangle
            before = tracer.calls["generators.gen"]
            assert minkclust.verify_reduction(name, source, {"k": 3}).agree
            gen_calls[name] = tracer.calls["generators.gen"] - before
    finally:
        tracer.uninstall()
    assert gen_calls == {name: 2 if name == "3sat-hioct-linf2" else 1
                         for name in minkclust.generators.REDUCTION_NAMES}
