"""Command-line front end: instance I/O and the solve, select, generate and
verify commands.

Instances and graphs travel as UTF-8 JSON.  Budgets are typed strings so no
exactness is lost: plain integers, fractions "a/b", squared-denominator
rationals "z/s2:<z>/<s>", decimal literals (fractional exponents only), or
basis combinations "basis:<base>:<coeff>,...".  Exit codes: 0 for a yes
decision (or a fully agreeing verify run), 1 for no (or any disagreement),
2 for errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

from .core import Dataset, DistanceOrder
from .cost_model import Cost, cost_eval
from .generators import (
    CnfFormula,
    EmptyGroupError,
    Graph,
    REDUCTION_NAMES,
    build_reduction,
    reduction_source,
    verify_reduction,
)
from .selection import CENTROID_CAP, SelectionInstance, select_bruteforce, solve_selection
from .solver import (
    ClusteringInstance,
    SolveConfig,
    solve_bruteforce,
    solve_color_coding,
)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# budgets


def parse_budget(text: str, order: DistanceOrder) -> Cost:
    """A budget string: ``z/s2:<z>/<s>`` for z / s**2, ``basis:<base>:<coeff>,...``
    for a basis combination, or a rational literal.  A decimal literal, with a
    point or an exponent, is legal only for exponents in (0, 1)."""
    text = text.strip()
    if text.startswith("z/s2:"):
        fields = text[len("z/s2:"):].split("/")
        if len(fields) != 2:
            raise CliError(f"budget {text!r} is not of the form z/s2:<z>/<s>")
        z, s = int(fields[0]), int(fields[1])
        if s < 1:
            raise CliError("denominator root must be positive")
        return Cost.of(Fraction(z, s * s))
    if text.startswith("basis:"):
        if order.kind != "lp" or order.p == 1:
            raise CliError("basis budgets need a fractional exponent")
        mapping: dict[int, int] = {}
        for item in text[len("basis:"):].split(","):
            fields = item.split(":")
            if len(fields) != 2:
                raise CliError(f"basis budget item {item!r} is not of the form <base>:<coeff>")
            base, coeff = int(fields[0]), int(fields[1])
            mapping[base] = mapping.get(base, 0) + coeff
        return Cost.basis(mapping, order.p)
    if ("." in text or "e" in text.lower()) and not (order.kind == "lp" and order.p != 1):
        raise CliError("decimal budgets are only legal for exponents in (0, 1)")
    try:
        return Cost.of(Fraction(text))
    except ZeroDivisionError:
        raise CliError(f"budget {text!r} has a zero denominator") from None


def budget_to_string(budget: Cost, order: DistanceOrder | None = None) -> str:
    if budget.terms is not None:
        return "basis:" + ",".join(f"{a}:{c}" for a, c in budget.terms)
    val = budget.exact
    root = math.isqrt(val.denominator)
    if root * root == val.denominator and (root > 1 or order is not None and order.kind == "l2"):
        return f"z/s2:{val.numerator}/{root}"
    if val.denominator == 1:
        return str(val.numerator)
    return f"{val.numerator}/{val.denominator}"


# ---------------------------------------------------------------------------
# instance and graph files


def instance_to_obj(inst) -> dict:
    if isinstance(inst, ClusteringInstance):
        return {
            "kind": "clustering",
            "p": str(inst.order),
            "dimension": inst.dataset.dimension,
            "vectors": [list(pt) for pt in inst.dataset.points],
            "multiplicities": list(inst.dataset.multiplicities),
            "k": inst.k,
            "budget": budget_to_string(inst.budget, inst.order),
        }
    if isinstance(inst, SelectionInstance):
        vectors = []
        groups = []
        weights = []
        for g, (pts, ws) in enumerate(zip(inst.groups, inst.weights), start=1):
            for pt, w in zip(pts, ws):
                vectors.append(list(pt))
                groups.append(g)
                weights.append(w)
        return {
            "kind": "selection",
            "p": str(inst.order),
            "dimension": inst.dimension,
            "vectors": vectors,
            "groups": groups,
            "weights": weights,
            "budget": budget_to_string(inst.budget, inst.order),
        }
    raise CliError(f"cannot serialize {type(inst).__name__}")


def _integer(value, what: str) -> int:
    """An integer field of an instance file.  A boolean or a non-integral
    number is an error: ``int`` would truncate it silently."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise CliError(f"{what}: {value!r} is not an integer")
    return int(value)


def instance_from_obj(obj: dict):
    try:
        kind = obj["kind"]
        order = DistanceOrder.parse(obj["p"])
        dim = _integer(obj["dimension"], "dimension")
        vectors = [tuple(_integer(v, "vectors") for v in row) for row in obj["vectors"]]
        for row in vectors:
            if len(row) != dim:
                raise CliError("vector length does not match dimension")
        budget = parse_budget(str(obj["budget"]), order)
        if kind == "clustering":
            mults = obj.get("multiplicities") or [1] * len(vectors)
            ds = Dataset(dim, tuple(vectors), tuple(_integer(m, "multiplicities") for m in mults))
            return ClusteringInstance(ds, _integer(obj["k"], "k"), budget, order)
        if kind == "selection":
            group_ids = [_integer(g, "groups") for g in obj["groups"]]
            weights = obj.get("weights") or [1] * len(vectors)
            if not len(vectors) == len(group_ids) == len(weights):
                raise CliError("vectors, groups and weights must have the same length")
            if sorted(set(group_ids)) != list(range(1, max(group_ids) + 1)):
                raise CliError("group indices must be contiguous from 1")
            t = max(group_ids)
            groups: list[list] = [[] for _ in range(t)]
            wlists: list[list[int]] = [[] for _ in range(t)]
            for pt, g, w in zip(vectors, group_ids, weights):
                groups[g - 1].append(pt)
                wlists[g - 1].append(_integer(w, "weights"))
            return SelectionInstance(
                tuple(tuple(g) for g in groups),
                tuple(tuple(w) for w in wlists),
                dim,
                budget,
                order,
            )
        raise CliError(f"unknown instance kind {kind!r}")
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"malformed instance file: {exc}") from exc


def _read_json(path: str, what: str):
    """The parsed JSON document at ``path``; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {what}: {exc}") from exc


def load_instance(path: str):
    return instance_from_obj(_read_json(path, "instance"))


def graph_from_obj(obj: dict):
    """A graph, or a 3-CNF formula when ``kind`` is ``3sat``."""
    try:
        if obj.get("kind") == "3sat":
            clauses = tuple(tuple(_integer(l, "clauses") for l in cl) for cl in obj["clauses"])
            return CnfFormula(_integer(obj["num_vars"], "num_vars"), clauses)
        colors = obj.get("colors")
        return Graph.of(_integer(obj["n"], "n"),
                        [[_integer(v, "edges") for v in edge] for edge in obj["edges"]],
                        [_integer(c, "colors") for c in colors] if colors else None)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"malformed graph file: {exc}") from exc


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# reporting helpers


def _fmt_cost(cost: Cost | None) -> str:
    if cost is None:
        return "-"
    if cost.exact is not None:
        return str(cost.exact)
    return f"{budget_to_string(cost)} (~{float(cost_eval(cost)):.9f})"


def _fmt_point(pt) -> str:
    return "(" + ", ".join(str(v) for v in pt) + ")"


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if not isinstance(inst, ClusteringInstance):
        raise CliError("solve expects a clustering instance")
    out = []
    if args.mode == "oracle":
        res = solve_bruteforce(inst, family_cap=args.cap_families)
        decision, clustering = res.decision, res.clustering
        out.append(f"decision: {'yes' if decision else 'no'}")
        out.append(f"minimal cost: {_fmt_cost(res.min_cost)}")
        stats = res.stats
    else:
        policy, iters = args.policy, None
        if policy.startswith("iters="):
            policy, iters = "auto", int(policy.split("=", 1)[1])
        cfg = SolveConfig(seed=args.seed, policy=policy, iterations=iters,
                          centroid_cap=args.cap_centroids)
        res = solve_color_coding(inst, cfg)
        decision, clustering = res.decision, res.clustering
        stats = res.stats
        out.append(f"decision: {'yes' if decision else 'no'}")
        out.append(f"confidence: {stats.get('confidence'):.6f}")
    if decision and clustering is not None:
        out.append(f"total cost: {_fmt_cost(clustering.total_cost)}")
        for idx, (members, centroid, cost) in enumerate(
            zip(clustering.clusters, clustering.centroids, clustering.cluster_costs), 1
        ):
            desc = ", ".join(
                f"{_fmt_point(pt)}x{mult}" for pt, mult in members
            )
            out.append(
                f"cluster {idx}: cost {_fmt_cost(cost)} centroid {_fmt_point(centroid)} "
                f"members {desc}"
            )
    for key in sorted(stats):
        out.append(f"stat {key}: {stats[key]}")
    print("\n".join(out))
    return 0 if decision else 1


def cmd_select(args) -> int:
    inst = load_instance(args.instance)
    if not isinstance(inst, SelectionInstance):
        raise CliError("select expects a selection instance")
    if args.mode == "oracle":
        res = select_bruteforce(inst, cap=args.cap_tuples)
    else:
        res = solve_selection(inst, centroid_cap=args.cap_centroids)
    out = [f"decision: {'yes' if res.decision else 'no'}"]
    if res.decision:
        out.append(f"cost: {_fmt_cost(res.cost)}")
        out.append(f"centroid: {_fmt_point(res.centroid)}")
        chosen = [
            f"group {g + 1}: {_fmt_point(inst.groups[g][i])} weight {inst.weights[g][i]}"
            for g, i in enumerate(res.indices)
        ]
        out.extend(chosen)
    for key in sorted(res.stats):
        out.append(f"stat {key}: {res.stats[key]}")
    print("\n".join(out))
    return 0 if res.decision else 1


def _generate(args):
    source_obj = _read_json(args.graph, "graph file")
    source = graph_from_obj(source_obj)
    name = args.reduction
    p = Fraction(args.p) if args.p else Fraction(2)
    try:
        inst = build_reduction(name, source, args.k, p,
                               include_isolated_edges=not args.suppress_isolated_edges)
    except EmptyGroupError as exc:
        raise CliError(f"construction degenerates: {exc}") from exc
    except TypeError as exc:  # a graph where a formula is due, or the reverse
        raise CliError(str(exc)) from exc
    if not isinstance(inst, (ClusteringInstance, SelectionInstance)):
        raise CliError("this exponent has no exact instance encoding; use p=2")
    obj = instance_to_obj(inst)
    obj["provenance"] = {
        "reduction": name,
        "params": {"k": args.k, "p": str(p)},
        "source_sha256": hashlib.sha256(
            _canonical_json(source_obj).encode()
        ).hexdigest(),
    }
    return obj


def cmd_generate(args) -> int:
    obj = _generate(args)
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    params = {"k": args.k, "p": Fraction(args.p) if args.p else Fraction(2)}
    if args.sweep:
        if reduction_source(args.reduction) is not Graph:
            raise CliError(f"the sweep enumerates graphs, but {args.reduction} starts "
                           f"from a 3-CNF formula")
        try:
            import networkx as nx
        except ImportError as exc:  # pragma: no cover
            raise CliError("the sweep mode needs the optional networkx dependency") from exc
        sources = []
        for g in nx.graph_atlas_g()[1:]:
            if g.number_of_nodes() > args.sweep:
                break
            if g.number_of_edges() == 0:
                continue
            sources.append(Graph.of(
                g.number_of_nodes(),
                [(u + 1, v + 1) for u, v in g.edges()],
            ))
        if args.reduction.endswith("-mcc"):  # the colorful reductions, as in verify_reduction
            import random

            rnd = random.Random(args.seed)
            colored = []
            for g in sources:
                if g.n < args.k:
                    continue
                colors = [rnd.randrange(1, args.k + 1) for _ in range(g.n)]
                for c in range(1, args.k + 1):
                    if c not in colors:
                        colors[rnd.randrange(g.n)] = c
                if len(set(colors)) == args.k:
                    colored.append(Graph.of(g.n, g.edges, colors))
            sources = colored
    else:
        if not args.graph:
            raise CliError("verify needs a graph file or --sweep")
        sources = [graph_from_obj(_read_json(args.graph, "graph file"))]

    disagreements = errors = 0
    print("source | target | agree | detail")
    for src in sources:
        # one source that raises (a cap, a failed check) must not hide the rest
        try:
            rep = verify_reduction(args.reduction, src, params)
        except Exception as exc:
            errors += 1
            print(f"{'-':>6} | {'-':>6} | {'ERROR':>8} | {type(exc).__name__}: {exc}")
            continue
        if not rep.agree:
            disagreements += 1
        detail = rep.details.get("min_cost", rep.details.get("witness_cost", ""))
        if isinstance(detail, Cost):
            detail = _fmt_cost(detail)
        print(
            f"{'yes' if rep.source_yes else 'no':>6} | "
            f"{'yes' if rep.target_yes else 'no':>6} | "
            f"{'ok' if rep.agree else 'MISMATCH':>8} | {detail}"
        )
    print(f"checked {len(sources)} instance(s); disagreements: {disagreements}; "
          f"errors: {errors}")
    if errors:
        return 2
    return 0 if disagreements == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minkclust",
        description="Exact parameterized clustering and cluster selection "
                    "under Minkowski-type distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cap_centroids(p):
        p.add_argument("--cap-centroids", dest="cap_centroids", type=int,
                       default=CENTROID_CAP,
                       help="bound on the search nodes of each selection "
                            "call: the tuple search for squared Euclidean and "
                            "max distance, or the present-value centroid "
                            "search for p in (0, 1] and Hamming")

    p_solve = sub.add_parser("solve", help="solve a clustering instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--policy", default="auto",
                         help="auto (random colorings; a no has the printed confidence), "
                              "iters=<n> (auto with n colorings) or exhaustive (the "
                              "oracle's search, stopped at the first fit: exact)")
    p_solve.add_argument("--mode", default="solver", choices=["solver", "oracle"])
    p_solve.add_argument("--seed", type=int, default=0)
    cap_centroids(p_solve)
    p_solve.add_argument("--cap-families", dest="cap_families", type=int,
                         default=5_000_000,
                         help="bound on the merge parts the brute-force oracle "
                              "(--mode oracle) tries, cut or not; each step of "
                              "its member walk counts as a part")
    p_solve.set_defaults(func=cmd_solve)

    p_sel = sub.add_parser("select", help="solve a selection instance")
    p_sel.add_argument("instance")
    p_sel.add_argument("--mode", default="auto", choices=["auto", "oracle"])
    cap_centroids(p_sel)
    p_sel.add_argument("--cap-tuples", dest="cap_tuples", type=int, default=1_000_000)
    p_sel.set_defaults(func=cmd_select)

    p_gen = sub.add_parser("generate", help="build a reduction instance")
    p_gen.add_argument("reduction", choices=list(REDUCTION_NAMES))
    p_gen.add_argument("graph", help="source graph or 3-CNF JSON file")
    p_gen.add_argument("-o", "--out", default=None)
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--p", default=None, help="exponent for lp-mcc")
    p_gen.add_argument("--suppress-isolated-edges", action="store_true")
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="check a construction against oracles")
    p_ver.add_argument("reduction", choices=list(REDUCTION_NAMES))
    p_ver.add_argument("graph", nargs="?", default=None)
    p_ver.add_argument("--k", type=int, default=3)
    p_ver.add_argument("--p", default=None)
    p_ver.add_argument("--sweep", type=int, default=0,
                       help="sweep all graphs up to this many vertices")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # caps, malformed data
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
