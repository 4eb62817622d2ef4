"""Property tests for the sparse pipeline's column reduction.

``VectorizedAssignmentEngine._match_sparse`` keeps, per order, only its
``k`` cheapest feasible drivers (tie-inclusive), where ``k`` bounds how many
orders can share a feasible driver with it, and then makes one
``match_pairs`` call on the reduced submatrix.  Hypothesis drives hotspot
batches — few orders, many drivers, duplicated driver positions (exact
distance ties) and feasibility discs that just touch — through it and
checks the result against the policy's dense ``match_pairs`` on the full
alive x idle matrix:

* greedy: the same pairs in the same order with bit-identical distances;
* POLAR optimal and LS: equal pair counts and equal objectives;
* the bound ``k`` is never below the brute-force count of orders sharing a
  feasible driver;
* the reduction itself keeps, per order, exactly the edges at or below its
  ``k``-th cheapest distance, whatever order each order's edges come in.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dispatch.engine import VectorizedAssignmentEngine, _reduced_block, _share_bounds
from repro.dispatch.ls import LSDispatcher
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.travel import TravelModel

POLICIES = {
    "polar": lambda: POLARDispatcher(),
    "polar_greedy": lambda: POLARDispatcher(use_optimal_matching=False),
    "ls": lambda: LSDispatcher(),
}


class CountingPolicy:
    """Array-kernel wrapper counting ``match_pairs`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def reposition_arrays(self, *args):
        self.inner.reposition_arrays(*args)

    def match_pairs(self, distance, feasible, revenue):
        self.calls += 1
        return self.inner.match_pairs(distance, feasible, revenue)


@st.composite
def hotspot_batches(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_orders = draw(st.integers(min_value=1, max_value=6))
    n_drivers = draw(st.integers(min_value=1, max_value=80))
    # Fewer distinct sites than drivers stacks drivers on one position, so
    # their pickup distances tie exactly.
    n_sites = draw(st.integers(min_value=1, max_value=n_drivers))
    metric = draw(st.sampled_from(["manhattan", "euclidean"]))
    touching = draw(st.booleans())
    rng = np.random.default_rng(seed)
    travel = TravelModel(width_km=12.0, height_km=9.0, metric=metric)
    center = rng.uniform(0.2, 0.8, size=2)
    orders = np.clip(center + rng.normal(0.0, 0.02, size=(n_orders, 2)), 0.0, 0.99)
    sites = np.clip(center + rng.normal(0.0, 0.03, size=(n_sites, 2)), 0.0, 0.99)
    drivers = sites[rng.integers(0, n_sites, size=n_drivers)]
    limits = rng.uniform(1.0, 8.0, size=n_orders)
    waits = rng.uniform(0.0, 1.0, size=n_orders) * limits
    revenue = rng.uniform(1.0, 20.0, size=n_orders)
    if touching and n_orders >= 2:
        # Orders 0 and 1 get discs that touch exactly at driver 0, placed on
        # their midpoint: with no wait so far, each limit is that driver's
        # pickup time computed with the engine's own feasibility arithmetic.
        drivers[0] = (orders[0] + orders[1]) / 2.0
        for row in (0, 1):
            km = travel.distance_km(
                orders[row : row + 1, 0],
                orders[row : row + 1, 1],
                drivers[:1, 0],
                drivers[:1, 1],
            )
            waits[row] = 0.0
            limits[row] = float((km / travel.speed_kmh * 60.0)[0])
    return travel, orders, drivers, waits, limits, revenue


def dense_feasible(travel, orders, drivers, waits, limits):
    distance = travel.pairwise_km(orders[:, 0], orders[:, 1], drivers[:, 0], drivers[:, 1])
    scratch = distance / travel.speed_kmh
    scratch *= 60.0
    scratch += waits[:, None]
    return distance, scratch <= limits[:, None]


def sparse_and_dense(policy_name, batch):
    travel, orders, drivers, waits, limits, revenue = batch
    policy = CountingPolicy(POLICIES[policy_name]())
    engine = VectorizedAssignmentEngine(policy, travel, sparse="always")
    sparse = engine._match_sparse(
        orders[:, 0], orders[:, 1], waits, limits, revenue, drivers[:, 0], drivers[:, 1]
    )
    distance, feasible = dense_feasible(travel, orders, drivers, waits, limits)
    rows, cols = policy.inner.match_pairs(distance, feasible, revenue)
    dense = (rows, cols, distance[rows, cols])
    # One solve per batch with a feasible edge, none otherwise.
    assert policy.calls == (1 if feasible.any() else 0)
    return sparse, dense


class TestReductionMatchesDense:
    @given(hotspot_batches())
    @settings(max_examples=150, deadline=None)
    def test_greedy_is_bit_identical(self, batch):
        (rows, cols, km), (d_rows, d_cols, d_km) = sparse_and_dense("polar_greedy", batch)
        assert rows.tolist() == d_rows.tolist()
        assert cols.tolist() == d_cols.tolist()
        assert km.tobytes() == d_km.tobytes()

    @given(hotspot_batches())
    @settings(max_examples=150, deadline=None)
    def test_polar_optimal_is_objective_equal(self, batch):
        (rows, _, km), (d_rows, _, d_km) = sparse_and_dense("polar", batch)
        assert rows.size == d_rows.size
        assert math.isclose(np.sort(km).sum(), np.sort(d_km).sum(), rel_tol=1e-12, abs_tol=1e-12)

    @given(hotspot_batches())
    @settings(max_examples=150, deadline=None)
    def test_ls_is_objective_equal(self, batch):
        revenue = batch[5]
        (rows, _, km), (d_rows, _, d_km) = sparse_and_dense("ls", batch)
        policy = LSDispatcher()
        weight = np.sort(revenue[rows] - policy.pickup_cost_per_km * km).sum()
        d_weight = np.sort(revenue[d_rows] - policy.pickup_cost_per_km * d_km).sum()
        assert rows.size == d_rows.size
        assert math.isclose(weight, d_weight, rel_tol=1e-12, abs_tol=1e-12)


class TestShareBound:
    @given(hotspot_batches())
    @settings(max_examples=150, deadline=None)
    def test_bound_covers_rows_sharing_a_feasible_driver(self, batch):
        travel, orders, drivers, waits, limits, _ = batch
        _, feasible = dense_feasible(travel, orders, drivers, waits, limits)
        shared = feasible.astype(np.intp) @ feasible.T.astype(np.intp)
        brute_force = np.count_nonzero(shared, axis=1)
        radii_km = (limits - waits) * travel.speed_kmh / 60.0
        bound = _share_bounds(travel, orders[:, 0], orders[:, 1], radii_km)
        assert np.all(bound >= brute_force)
        assert np.all(bound >= 1)

    def test_touching_discs_count_each_other(self):
        """Discs meeting at exactly one driver: the slack keeps both counted."""
        for metric in ("manhattan", "euclidean"):
            travel = TravelModel(width_km=10.0, height_km=10.0, metric=metric)
            orders = np.array([[0.3, 0.5], [0.5, 0.5], [0.9, 0.9]])
            driver = (orders[0] + orders[1]) / 2.0
            km = travel.distance_km(orders[:2, 0], orders[:2, 1], driver[0], driver[1])
            limits = np.append(km / travel.speed_kmh * 60.0, 1.0)
            radii_km = limits * travel.speed_kmh / 60.0
            bound = _share_bounds(travel, orders[:, 0], orders[:, 1], radii_km)
            assert bound.tolist() == [2, 2, 1]


@st.composite
def row_sorted_edges(draw):
    """Edge lists grouped by ascending row, with few distinct distances."""
    n_rows = draw(st.integers(min_value=1, max_value=10))
    n_cols = draw(st.integers(min_value=1, max_value=12))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_rows - 1),
                st.integers(min_value=0, max_value=n_cols - 1),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda cell: cell[:2],
        )
    )
    cells.sort(key=lambda cell: cell[0])
    rows, cols, km = (np.array(column) for column in zip(*cells))
    k_rows = np.array(
        draw(st.lists(st.integers(min_value=0, max_value=5), min_size=n_rows, max_size=n_rows))
    )
    return rows.astype(np.intp), cols.astype(np.intp), km.astype(float), k_rows


class TestReducedBlock:
    @given(row_sorted_edges())
    @settings(max_examples=150, deadline=None)
    def test_keeps_exactly_the_tie_inclusive_cut(self, case):
        edge_rows, edge_cols, edge_km, k_rows = case
        rows, cols = _reduced_block(edge_rows, edge_cols, edge_km, k_rows)
        assert rows.tolist() == sorted(set(edge_rows.tolist()))
        expected = set()
        for row in rows.tolist():
            km = edge_km[edge_rows == row]
            kth = np.sort(km)[min(max(int(k_rows[row]), 1), km.size) - 1]
            expected |= set(edge_cols[edge_rows == row][km <= kth].tolist())
        assert cols.tolist() == sorted(expected)

    @given(row_sorted_edges(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_edge_order_within_rows(self, case, random):
        edge_rows, edge_cols, edge_km, k_rows = case
        order = sorted(range(edge_rows.size), key=lambda i: (edge_rows[i], random.random()))
        shuffled = _reduced_block(edge_rows[order], edge_cols[order], edge_km[order], k_rows)
        reference = _reduced_block(edge_rows, edge_cols, edge_km, k_rows)
        assert shuffled[0].tolist() == reference[0].tolist()
        assert shuffled[1].tolist() == reference[1].tolist()
