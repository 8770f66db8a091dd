"""Fixed-seed benchmark of minkclust.

    python3 perfbench/run.py --workload cluster-exhaustive --seed 1 --seconds 30 --trace 0

Runs one workload through the public minkclust API in a closed loop: a single
client in one process, one instance at a time, no threads.  The program is
imported from ``src/`` of the checkout that holds this file.  Set-up (imports,
seeded generation with the brute-force oracle placing each budget on the
decision boundary, and a warm-up) is timed separately: it runs once before the
timed passes and twice more after them.  Passes over the workload's instances
repeat until ``--seconds`` have elapsed, and every answer is checked against
the oracle afterwards, outside any timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the tracer installed, and reports per-layer
metrics for one pass plus the tracing overhead; the spans are written to
``.perfbench/`` in the checkout.  The last line of standard output is one JSON
object; the exit code is 0 when every check passed, 1 when one failed and 2
when the benchmark could not run.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "minkclust", "__init__.py")):
        fail(f"no minkclust sources under {SRC}")
    sys.path.insert(0, SRC)
    import minkclust

    if os.path.dirname(os.path.dirname(os.path.abspath(minkclust.__file__))) != SRC:
        fail(f"imported minkclust from {minkclust.__file__}, not from {SRC}")
    return minkclust


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cluster-exhaustive", "select-direct", "verify-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


# ---------------------------------------------------------------------------
# running and checking one case


def run_case(mk, case):
    if case.kind == "cluster":
        return mk.solve_color_coding(case.instance, mk.SolveConfig(policy="exhaustive"))
    if case.kind == "select":
        return mk.solve_selection(case.instance)
    if case.kind == "verify":
        return mk.verify_reduction(case.extra["reduction"], case.instance,
                                   case.extra["params"])
    return mk.select_bruteforce(case.instance)


def decision_ok(case, result) -> bool:
    if case.kind == "verify":
        return result.agree
    return result.decision == case.extra["expected"]


def witness_problem(mk, case, result) -> str | None:
    """Why a yes answer's witness is invalid, or None when it holds."""
    if case.kind == "verify" or not result.decision:
        return None
    inst = case.instance
    if case.kind == "cluster":
        clustering = result.clustering
        initial = {ic.representative: ic.size for ic in mk.regularize(inst.dataset)}
        members = [m for cluster in clustering.clusters for m in cluster]
        if sorted(members) != sorted(initial.items()):
            return "clusters are not a regular partition of the initial clusters"
        if len(clustering.clusters) != inst.k:
            return f"{len(clustering.clusters)} clusters, expected {inst.k}"
        total = mk.Cost.of(0)
        for cluster in clustering.clusters:
            _, cost = mk.optimal_cluster_cost(
                inst.order, mk.WeightedCluster(tuple(p for p, _ in cluster),
                                               tuple(w for _, w in cluster)))
            total = total + cost
        if not mk.cost_eq(total, clustering.total_cost):
            return "reported total differs from the recomputed cluster costs"
        if not mk.cost_le(total, inst.budget):
            return "witness costs more than the budget"
        return None
    indices = result.indices
    if len(indices) != inst.num_groups or any(
            not 0 <= i < len(g) for i, g in zip(indices, inst.groups)):
        return "selection does not pick one vector per group"
    _, cost = mk.optimal_cluster_cost(inst.order, inst.chosen_cluster(indices))
    if not mk.cost_eq(cost, result.cost):
        return "reported cost differs from the recomputed optimal cost"
    if not mk.cost_le(cost, inst.budget):
        return "witness costs more than the budget"
    return None


# ---------------------------------------------------------------------------
# set-up, the timed loop, and the checks


def set_up(mk, workloads, workload, seed):
    """One repeat of generation and warm-up: the cases, their digest and the
    seconds it took.  The warm-up decides one instance per order."""
    start = time.perf_counter()
    cases = workloads.generate(workload, seed)
    warmed = set()
    for case in cases:
        if case.order not in warmed:
            warmed.add(case.order)
            run_case(mk, case)
    return cases, workloads.digest(cases), time.perf_counter() - start


def timed_passes(mk, cases, seconds, seed, tracer=None):
    """Closed loop: passes over every case, until ``seconds`` have elapsed
    (always at least one pass).  Each pass takes the cases in a fresh seeded
    order, so that a disturbance from outside that recurs at a fixed rhythm
    does not land on the same cases in every pass.  Returns per-pass latencies
    indexed like ``cases``, and the last result and failure of every case."""
    passes, results, errors = [], {}, {}
    order = list(range(len(cases)))
    shuffle = random.Random(seed).shuffle
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and passes:
            tracer.begin_pass()
        shuffle(order)
        latencies = [0.0] * len(cases)
        for i in order:
            case = cases[i]
            if tracer is not None:
                tracer.instance = case.ident
            start = time.perf_counter()
            try:
                results[case.ident] = run_case(mk, case)
            except Exception as exc:  # a failed instance is counted, not fatal
                errors[case.ident] = f"{type(exc).__name__}: {exc}"
                results.pop(case.ident, None)
            latencies[i] = time.perf_counter() - start
        passes.append(latencies)
        if time.perf_counter() >= deadline:
            return passes, results, errors


def check(mk, cases, passes, results, errors):
    """Failed attempts and a description of every failing case.  Answers are
    deterministic, so a case whose last answer is wrong failed on every pass."""
    problems = {}
    for case in cases:
        if case.ident in errors:
            problems[case.ident] = errors[case.ident]
            continue
        result = results[case.ident]
        if not decision_ok(case, result):
            problems[case.ident] = "wrong decision"
            continue
        why = witness_problem(mk, case, result)
        if why:
            problems[case.ident] = f"invalid witness: {why}"
    return len(problems) * len(passes), problems


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(cases, passes, setup_s, peak_rss_mb):
    """Each instance's latency is its best over the passes: the work is
    deterministic and interference from other processes only adds time, so
    the minimum is the steadiest estimate of what the instance costs."""
    from workloads import ORDERS

    best = [min(p[i] for p in passes) for i in range(len(cases))]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ips": (len(cases) / sum(best), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(best), "ms"),
        "latency_p90_ms": (1000 * percentile(best, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for label in ORDERS:
        metrics[f"order_s.{label}"] = (
            sum(t for t, c in zip(best, cases) if c.order == label), "s")
    return metrics


def per_layer(tracer, traced_passes, plain_passes, cache_entries):
    """Per-pass counts (every pass does the same work, so they are exact) and
    the median per-pass self time of each traced function."""
    from tracing import REDUCTIONS
    from workloads import ORDERS

    agg = tracer.passes
    first = agg[0]
    calls, counts = first["calls"], first["counts"]

    def self_s(name):
        return statistics.median(p["self_s"].get(name, 0.0) for p in agg)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def timed(name):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")

    timed("solver.solve_color_coding")
    timed("solver.solve_bruteforce")
    for key in ("selection_calls", "colorings", "families", "cost_set_size",
                "bruteforce_families"):
        out[f"solver.{key}"] = (counts.get(f"solver.{key}", 0), "count")
    out["solver.distinct_bundles"] = (len(first["bundles"]), "count")
    out["solver.selection_yes_ratio"] = (
        ratio(counts.get("solver.selection_yes", 0), counts.get("solver.selection_calls", 0)),
        "ratio")
    for label in ORDERS:
        name = f"selection.{label}"
        timed(name)
        out[f"{name}.yes_ratio"] = (
            ratio(counts.get(f"{name}.yes", 0), calls.get(name, 0)), "ratio")
    timed("selection.select_bruteforce")
    for key in ("centroids_tried", "linf_nodes", "pivots", "candidate_sets", "tuples",
                "cap_exceeded"):
        out[f"selection.{key}"] = (counts.get(f"selection.{key}", 0), "count")
    timed("cost_model.enumerate_cost_set")
    timed("cost_model.cost_le")
    out["cost_model.cost_eval.calls"] = (counts.get("cost_model.cost_eval.calls", 0), "count")
    out["cost_model.eval_cache_entries"] = (cache_entries, "count")
    for label in ORDERS:
        timed(f"centroids.{label}")
    timed("simplex.minimize")
    timed("hypergraph.build_difference_hypergraph")
    timed("hypergraph.candidate_coordinate_sets")
    out["hypergraph.candidates"] = (counts.get("hypergraph.candidates", 0), "count")
    for name in REDUCTIONS:
        timed(f"generators.verify_reduction.{name}")
    timed("generators.gen")
    timed("generators.source_oracle")
    timed("core.regularize")
    overhead = (statistics.median(sum(p) for p in traced_passes)
                / statistics.median(sum(p) for p in plain_passes))
    out["trace.overhead_ratio"] = (overhead, "ratio")
    drift = [name for name in set(calls) | set(counts)
             if any(p["calls"].get(name, 0) != calls.get(name, 0)
                    or p["counts"].get(name, 0) != counts.get(name, 0) for p in agg)]
    return out, drift


# ---------------------------------------------------------------------------
# reporting


def environment():
    import mpmath

    sha = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file, encoding="utf-8") as fh:
                    sha = fh.read().strip()
    return {"git": sha, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "nproc": os.cpu_count()}


def profile(cases, results):
    lines = []
    orders = {}
    for case in cases:
        orders[case.order] = orders.get(case.order, 0) + 1
    lines.append("order mix: " + ", ".join(f"{o}={n}" for o, n in orders.items()))
    kinds = {}
    for case in cases:
        key = case.extra.get("reduction", case.kind)
        kinds[key] = kinds.get(key, 0) + 1
    lines.append("entry points: " + ", ".join(f"{k}={n}" for k, n in kinds.items()))
    yes = [results[c.ident].source_yes if c.kind == "verify" else c.extra["expected"]
           for c in cases if c.ident in results]
    lines.append(f"yes share: {sum(map(bool, yes))}/{len(yes)}")
    initial = [c.extra["initial"] for c in cases if "initial" in c.extra]
    if initial:
        lines.append("initial clusters: " + ", ".join(
            f"{n}:{initial.count(n)}" for n in sorted(set(initial))))
    sizes = [results[c.ident].stats.get("cost_set_size") for c in cases
             if c.kind == "cluster" and c.ident in results]
    sizes = [s for s in sizes if s is not None]
    if sizes:
        lines.append(f"cost-set sizes: min {min(sizes)}, median {statistics.median(sizes)}, "
                     f"max {max(sizes)}")
    return lines


def main() -> int:
    args = parse_args()
    mk = import_program()
    import workloads

    import_s = time.perf_counter() - T0
    cases, digest, first = set_up(mk, workloads, args.workload, args.seed)
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} instances, "
          f"digest {digest}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    tracer = None
    if args.trace:
        from tracing import Tracer

        timed_passes(mk, cases, 0, args.seed)  # one warm pass, so both halves start warm
        plain, _, _ = timed_passes(mk, cases, args.seconds / 2, args.seed)
        tracer = Tracer()
        tracer.install()
        try:
            passes, results, errors = timed_passes(mk, cases, args.seconds / 2, args.seed,
                                                   tracer)
        finally:
            tracer.uninstall()
    else:
        passes, results, errors = timed_passes(mk, cases, args.seconds, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not args.trace:
        # the other set-up repeats run now, so that they sample the machine at
        # moments far apart; every repeat must give the same instances
        setup_times = [first]
        for _ in range(SETUP_REPEATS - 1):
            _, again, seconds = set_up(mk, workloads, args.workload, args.seed)
            if again != digest:
                fail("generation is not deterministic: one seed gave two digests")
            setup_times.append(seconds)
        setup_s = import_s + statistics.median(setup_times)
        print(f"set-up: imports {import_s:.4f} s, repeats "
              + ", ".join(f"{t:.4f}" for t in setup_times) + " s")

    failed, problems = check(mk, cases, passes, results, errors)
    attempted = len(cases) * len(passes)
    for line in profile(cases, results):
        print("profile: " + line)
    for ident, why in sorted(problems.items()):
        print(f"FAILED {ident}: {why}")

    if args.trace:
        cache = len(getattr(mk.cost_model, "_EVAL_CACHE", {}))
        metrics, drift = per_layer(tracer, passes, plain, cache)
        print(f"traced passes: {len(passes)}, untraced passes: {len(plain)}; "
              "per-layer figures are per pass")
        if drift:
            print("counters that differ between passes: " + ", ".join(sorted(drift)))
        bundles = metrics["solver.distinct_bundles"][0]
        if bundles:
            calls = metrics["solver.selection_calls"][0]
            print(f"selection calls per distinct bundle: {calls}/{bundles} = "
                  f"{calls / bundles:.3f}")
        path = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "digest": digest, "environment": env,
                            "per_layer": {k: v for k, (v, _) in metrics.items()}})
        print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, written to {path}")
    else:
        metrics = end_to_end(cases, passes, setup_s, peak_rss_mb)
        print(f"passes: {len(passes)}; latency samples: {len(cases)} instances, each "
              f"the best of {len(passes)} passes; pass seconds: "
              + ", ".join(f"{sum(p):.3f}" for p in passes))

    print(f"failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted} attempts)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
