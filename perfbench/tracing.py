"""Span tracing of minkclust from outside the package.

The tracer replaces public functions at the names their callers look up (for
example ``minkclust.solver.solve_selection``, which the colour-coding solver
calls, rather than the definition in ``minkclust.selection``), so the program
itself is not edited.  Each call records a span (name, start, end, parent,
instance id); self time is the span's duration minus the time its child spans
cover.  Counters read from the returned stats are recorded at the same
boundaries.  Spans are kept in memory, up to ``SPAN_CAP``, and written out at
the end of the run; the per-pass aggregates are always complete.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

import minkclust
from minkclust import centroids, cost_model, generators, selection, simplex, solver

SPAN_CAP = 200_000
from workloads import order_label

REDUCTIONS = ("l0-clique", "linf-clique", "l0-mcc", "l1-mcc", "linf-mcc", "lp-mcc",
              "3sat-hioct-linf2")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.names: dict[str, int] = {}
        self.stack: list[list] = []
        self.instance = ""
        self.instances: dict[str, int] = {}
        self.passes: list[dict] = []
        self._patched: list[tuple] = []
        self._cap_seen = None
        self.begin_pass()

    # -- aggregation -------------------------------------------------------

    def begin_pass(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.bundles: set = set()
        self.passes.append({"calls": self.calls, "self_s": self.self_s,
                            "counts": self.counts, "bundles": self.bundles})

    def _span(self, name: str, fn, args, kwargs, on_result=None):
        parent = self.stack[-1][1] if self.stack else -1
        index = len(self.spans)
        if index < SPAN_CAP:
            self.spans.append(None)  # filled in at exit, so children see the index
        else:
            index = -1
            self.dropped += 1
        frame = [0.0, index]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except minkclust.EnumerationCapExceeded as exc:
            if exc is not self._cap_seen:  # count it once, in the innermost span
                self._cap_seen = exc
                self.counts["selection.cap_exceeded"] += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][0] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[0]
            if index >= 0:
                self.spans[index] = (self._id(self.names, name), start, end, parent,
                                     self._id(self.instances, self.instance))
        if on_result is not None:
            on_result(result, *args)
        return result

    @staticmethod
    def _id(table: dict, key: str) -> int:
        return table.setdefault(key, len(table))

    # -- installing the wrappers ------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def _timed(self, name_of, on_result=None):
        def wrapper(fn):
            def traced(*args, **kwargs):
                name = name_of if isinstance(name_of, str) else name_of(*args)
                return self._span(name, fn, args, kwargs, on_result)
            return traced
        return wrapper

    def _counted(self, name: str):
        def wrapper(fn):
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrapper

    def install(self) -> None:
        mk = minkclust
        cc = self._timed("solver.solve_color_coding", self._after_color_coding)
        for mod in (mk, solver):
            self._patch(mod, "solve_color_coding", cc)
        bf = self._timed("solver.solve_bruteforce", self._after_bruteforce)
        for mod in (mk, solver, generators):
            self._patch(mod, "solve_bruteforce", bf)
        by_order = lambda inst, *a: f"selection.{order_label(inst.order)}"
        self._patch(mk, "solve_selection", self._timed(by_order, self._after_selection))
        self._patch(solver, "solve_selection", self._timed(by_order, self._after_scan_call))
        sbf = self._timed("selection.select_bruteforce", self._after_select_bruteforce)
        for mod in (mk, generators):
            self._patch(mod, "select_bruteforce", sbf)
        self._patch(solver, "enumerate_cost_set", self._timed("cost_model.enumerate_cost_set"))
        le = self._timed("cost_model.cost_le")
        for mod in (solver, selection, mk.hypergraph):
            self._patch(mod, "cost_le", le)
        ev = self._counted("cost_model.cost_eval.calls")
        for mod in (cost_model, centroids, solver, selection):
            self._patch(mod, "cost_eval", ev)
        occ = self._timed(lambda order, *a: f"centroids.{order_label(order)}")
        for mod in (solver, selection):
            self._patch(mod, "optimal_cluster_cost", occ)
        self._patch(simplex, "minimize", self._timed("simplex.minimize"))
        self._patch(selection, "build_difference_hypergraph",
                    self._timed("hypergraph.build_difference_hypergraph"))
        self._patch(selection, "candidate_coordinate_sets",
                    self._timed("hypergraph.candidate_coordinate_sets",
                                self._after_candidates))
        self._patch(mk, "verify_reduction",
                    self._timed(lambda name, *a: f"generators.verify_reduction.{name}"))
        gen = self._timed("generators.gen")
        for attr in dir(generators):
            if attr.startswith("gen_"):
                self._patch(generators, attr, gen)
        src = self._timed("generators.source_oracle")
        for attr in ("graph_has_clique", "sat_satisfying_assignment", "hioct_bruteforce"):
            self._patch(generators, attr, src)
        self._patch(solver, "regularize", self._timed("core.regularize"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- counters read from results ---------------------------------------

    def _after_color_coding(self, res, inst, *rest) -> None:
        stats = res.stats
        self.counts["solver.colorings"] += stats.get("iterations", 0)
        self.counts["solver.families"] += stats.get("families", 0)
        self.counts["solver.selection_calls"] += stats.get("selection_calls", 0)
        self.counts["solver.cost_set_size"] += stats.get("cost_set_size", 0)

    def _after_bruteforce(self, res, *rest) -> None:
        self.counts["solver.bruteforce_families"] += res.stats.get("families", 0)

    def _after_selection(self, res, inst, *rest) -> None:
        self.counts[f"selection.{order_label(inst.order)}.yes"] += bool(res.decision)
        for key, name in (("centroids_tried", "centroids_tried"), ("nodes", "linf_nodes"),
                          ("pivots", "pivots"), ("candidate_sets", "candidate_sets")):
            self.counts[f"selection.{name}"] += res.stats.get(key, 0)

    def _after_scan_call(self, res, inst, *rest) -> None:
        """A selection call made by the colour-coding solver's cost-set scan."""
        self._after_selection(res, inst)
        self.counts["solver.selection_yes"] += bool(res.decision)
        self.bundles.add((self.instance, inst.groups, inst.weights))

    def _after_select_bruteforce(self, res, *rest) -> None:
        self.counts["selection.tuples"] += res.stats.get("tuples", 0)

    def _after_candidates(self, res, *rest) -> None:
        self.counts["hypergraph.candidates"] += len(res)

    # -- output -------------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        names = sorted(self.names, key=self.names.get)
        instances = sorted(self.instances, key=self.instances.get)
        doc = {"names": names, "instances": instances, "dropped_spans": self.dropped,
               "span_fields": ["name", "start_s", "end_s", "parent", "instance"],
               "spans": self.spans, **extra}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
