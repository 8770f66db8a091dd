import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minkclust import (
    ClusteringInstance,
    Cost,
    Dataset,
    DistanceOrder,
    InitialCluster,
    WeightedCluster,
    distance,
    merge_cost_bound,
    optimal_cluster_cost,
    regularize,
    SelectionInstance,
)
from minkclust.cost_model import cost_eval

ORDERS = [
    DistanceOrder.l1(),
    DistanceOrder.lp(Fraction(1, 2)),
    DistanceOrder.l2(),
    DistanceOrder.linf(),
    DistanceOrder.l0(),
]


def test_distance_examples():
    assert distance(DistanceOrder.l1(), (0, 0), (1, 2)).exact == 3
    assert distance(DistanceOrder.l0(), (1, 2, 3), (1, 0, 3)).exact == 1
    c = distance(DistanceOrder.lp(Fraction(1, 2)), (0, 0), (4, 9))
    assert c.terms == ((4, 1), (9, 1))
    assert float(cost_eval(c)) == pytest.approx(5.0, abs=1e-12)
    assert distance(DistanceOrder.l2(), (0, 0), (1, 2)).exact == 5
    assert distance(DistanceOrder.linf(), (0, 0), (1, 2)).exact == 2


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(DistanceOrder.l1(), (0,), (1, 2))


vectors = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(x=vectors, y=vectors, idx=st.integers(min_value=0, max_value=4))
def test_distance_symmetry_identity(x, y, idx):
    order = ORDERS[idx]
    y = (y * ((len(x) // len(y)) + 1))[: len(x)]
    dxy = distance(order, tuple(x), tuple(y))
    dyx = distance(order, tuple(y), tuple(x))
    assert dxy == dyx
    zero = distance(order, tuple(x), tuple(x))
    assert zero.exact == 0


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_points_off_the_integer_lattice_are_rejected(order):
    """Both entry types take integer vectors only, since the searches' exact
    keys and per-merge cost floors hold only on the lattice: a Fraction or a
    float, integral or not, and a bool raise at construction.  Under L1 the
    points (0) and (1/2) once gave the colour-coding search an exact no at
    the optimum 1/2, a budget the brute-force oracle met."""
    for bad in (Fraction(1, 2), Fraction(3), 0.5, 1.0, True):
        with pytest.raises(ValueError, match="integer vectors"):
            ClusteringInstance(Dataset(2, ((0, 0), (bad, 1)), (1, 1)), 1, Cost.of(1), order)
        with pytest.raises(ValueError, match="integer vectors"):
            SelectionInstance.of([[(0, 0)], [(1, bad)]], Cost.of(1), order)
    # any int is a lattice coordinate, negative or past the float range
    ClusteringInstance(Dataset(2, ((0, -1), (2**1100, 1)), (1, 1)), 1, Cost.of(1), order)
    SelectionInstance.of([[(0, -1)], [(2**1100, 1)]], Cost.of(1), order)


def test_regularize_grouping():
    ds = Dataset(2, ((0, 0), (0, 0), (1, 1)), (1, 1, 1))
    assert regularize(ds) == [InitialCluster((0, 0), 2), InitialCluster((1, 1), 1)]


def test_regularize_distinct_and_empty():
    pts = tuple((i, i + 1) for i in range(5))
    ds = Dataset(2, pts, (1,) * 5)
    out = regularize(ds)
    assert len(out) == 5 and all(ic.size == 1 for ic in out)
    assert regularize(Dataset(3, (), ())) == []


@settings(max_examples=100, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8
    ),
    mults=st.lists(st.integers(1, 3), min_size=8, max_size=8),
)
def test_regularize_is_a_partition(pts, mults):
    ds = Dataset(2, tuple(pts), tuple(mults[: len(pts)]))
    out = regularize(ds)
    rebuilt: dict[tuple, int] = {}
    for ic in out:
        assert ic.representative not in rebuilt
        rebuilt[ic.representative] = ic.size
    expected: dict[tuple, int] = {}
    for pt, m in zip(ds.points, ds.multiplicities):
        expected[pt] = expected.get(pt, 0) + m
    assert rebuilt == expected
    reps = [ic.representative for ic in out]
    assert reps == sorted(reps)


def test_merge_cost_bound_values():
    assert merge_cost_bound(DistanceOrder.l1()) == 1
    assert merge_cost_bound(DistanceOrder.lp(Fraction(1, 2))) == 1
    assert merge_cost_bound(DistanceOrder.l0()) == 1
    assert merge_cost_bound(DistanceOrder.linf()) == Fraction(1, 2)
    assert merge_cost_bound(DistanceOrder.l2()) == Fraction(1, 4)


def test_order_validation_and_parse():
    with pytest.raises(ValueError):
        DistanceOrder.lp(Fraction(3, 2))
    with pytest.raises(ValueError):
        DistanceOrder.lp(0)
    with pytest.raises(ValueError):
        DistanceOrder("bogus")
    assert DistanceOrder.parse("1") == DistanceOrder.l1()
    assert DistanceOrder.parse("1/2") == DistanceOrder.lp(Fraction(1, 2))
    assert DistanceOrder.parse("inf") == DistanceOrder.linf()
    assert DistanceOrder.parse("0") == DistanceOrder.l0()
    assert DistanceOrder.parse("2") == DistanceOrder.l2()
    for o in ORDERS:
        assert DistanceOrder.parse(str(o)) == o


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_merge_cost_floor_on_random_composites(order):
    rnd = random.Random(17)
    alpha = merge_cost_bound(order)
    for _ in range(60):
        d = rnd.randint(1, 3)
        n = rnd.randint(2, min(5, 4**d))
        reps = set()
        while len(reps) < n:
            reps.add(tuple(rnd.randint(0, 3) for _ in range(d)))
        sizes = [rnd.randint(1, 3) for _ in range(n)]
        cluster = WeightedCluster(tuple(reps), tuple(sizes))
        _, cost = optimal_cluster_cost(order, cluster)
        assert float(cost_eval(cost)) >= float(alpha) * (n - 1) - 1e-9
