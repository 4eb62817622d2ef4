"""Sparse matching pipeline tests: reduced solve, reduction, engine parity.

Three layers are pinned here:

1. :func:`_reduced_block` — per row, the ``k`` cheapest edges,
   tie-inclusive, and the ascending union of their columns, against a brute
   force.
2. ``VectorizedAssignmentEngine._match_sparse`` — the one reduced solve per
   batch reproduces the policy's dense ``match_pairs`` across seeded random
   batches and the degenerate shapes (no feasible edge, single cell, star
   batches, long chains, exact ties): greedy pair for pair with
   bit-identical distances, the Hungarian policies objective-equal.
3. The engine — ``sparse="always"`` replays ``sparse="never"`` (the dense
   oracle) bit-for-bit: metrics, final driver state and RNG stream position,
   for every policy, on randomized micro runs and on the committed reference
   scenarios.

Hypothesis drives the same contracts in
``tests/dispatch/test_sparse_reduction_property.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dispatch.engine import (
    SPARSE_AUTO_THRESHOLD,
    VectorizedAssignmentEngine,
    _reduced_block,
    supports_array_kernels,
)
from repro.dispatch.ls import LSDispatcher
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.scenarios import build_scenario_bundle, reference_scenario
from repro.dispatch.simulator import TaskAssignmentSimulator, spawn_drivers
from repro.dispatch.travel import TravelModel

from tests.dispatch.test_engine_equivalence import (
    TRAVEL,
    make_orders,
    make_policy,
    make_provider,
)
from tests.dispatch.test_sparse_reduction_property import sparse_and_dense

POLICIES = ("polar", "polar_greedy", "ls")

REFERENCE_CONFIGS = (("polar", "greedy"), ("polar", "optimal"), ("ls", "optimal"))


def brute_force_block(edge_rows, edge_cols, edge_km, k_rows):
    """Reference reduction: sort each row's edges, cut at the k-th, keep ties."""
    rows, kept = [], set()
    for row in sorted(set(edge_rows.tolist())):
        mine = edge_rows == row
        km = edge_km[mine]
        k = max(int(k_rows[row]), 1)
        kth = np.sort(km)[min(k, km.size) - 1]
        rows.append(row)
        kept |= set(edge_cols[mine][km <= kth].tolist())
    return rows, sorted(kept)


def objective(policy_name, revenue, rows, km):
    """The batch objective each policy optimises, summed in a fixed order."""
    if policy_name == "ls":
        return float(np.sort(revenue[rows] - LSDispatcher().pickup_cost_per_km * km).sum())
    return float(np.sort(km).sum())


def assert_matches_dense(policy_name, batch):
    """Greedy pair for pair with identical km; Hungarian objective-equal."""
    (rows, cols, km), (d_rows, d_cols, d_km) = sparse_and_dense(policy_name, batch)
    if policy_name == "polar_greedy":
        assert rows.tolist() == d_rows.tolist()
        assert cols.tolist() == d_cols.tolist()
        assert km.tobytes() == d_km.tobytes()
        return
    revenue = batch[5]
    assert rows.size == d_rows.size
    assert objective(policy_name, revenue, rows, km) == pytest.approx(
        objective(policy_name, revenue, d_rows, d_km), rel=1e-12, abs=1e-12
    )


def make_batch(orders, drivers, limits, waits=None, revenue=None, metric="manhattan"):
    orders = np.asarray(orders, dtype=float)
    limits = np.asarray(limits, dtype=float)
    travel = TravelModel(width_km=12.0, height_km=9.0, metric=metric)
    waits = np.zeros_like(limits) if waits is None else np.asarray(waits, dtype=float)
    revenue = np.full(limits.size, 10.0) if revenue is None else np.asarray(revenue, float)
    return travel, orders, np.asarray(drivers, dtype=float), waits, limits, revenue


class TestReducedBlock:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_cut(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = int(rng.integers(1, 12)), int(rng.integers(1, 15))
        feasible = rng.random((n_rows, n_cols)) < rng.uniform(0.05, 0.6)
        feasible[int(rng.integers(n_rows)), int(rng.integers(n_cols))] = True
        edge_rows, edge_cols = np.nonzero(feasible)
        # Few distinct distances, so the cut lands on ties.
        edge_km = rng.integers(0, 4, size=edge_rows.size).astype(float)
        k_rows = rng.integers(0, 5, size=n_rows)
        rows, cols = _reduced_block(edge_rows, edge_cols, edge_km, k_rows)
        expected_rows, expected_cols = brute_force_block(edge_rows, edge_cols, edge_km, k_rows)
        assert rows.tolist() == expected_rows
        assert cols.tolist() == expected_cols

    def test_rows_and_columns_ascending_untouched_dropped(self):
        # Rows 0 and 3 have no edge; row 4 keeps its cheapest column only.
        edge_rows = np.array([1, 1, 2, 4, 4])
        edge_cols = np.array([6, 2, 6, 5, 0])
        edge_km = np.array([1.0, 2.0, 1.0, 3.0, 0.5])
        rows, cols = _reduced_block(edge_rows, edge_cols, edge_km, np.array([9, 2, 1, 9, 1]))
        assert rows.tolist() == [1, 2, 4]
        assert cols.tolist() == [0, 2, 6]

    def test_cut_keeps_every_tie(self):
        edge_rows = np.zeros(4, dtype=np.intp)
        edge_cols = np.array([3, 1, 2, 0])
        edge_km = np.array([1.0, 1.0, 2.0, 1.0])
        rows, cols = _reduced_block(edge_rows, edge_cols, edge_km, np.array([1]))
        assert rows.tolist() == [0]
        assert cols.tolist() == [0, 1, 3]

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_long_chain_matches_dense(self, policy_name):
        # Orders on a line, one driver between each neighbouring pair: every
        # driver is feasible for exactly two orders, one connected chain.
        n = 40
        x = np.linspace(0.05, 0.95, n)
        orders = np.column_stack([x, np.full(n, 0.5)])
        drivers = np.column_stack([(x[:-1] + x[1:]) / 2.0, np.full(n - 1, 0.5)])
        step_minutes = (x[1] - x[0]) * 12.0 / 24.0 * 60.0
        limits = np.full(n, 0.75 * step_minutes)
        revenue = np.linspace(5.0, 15.0, n)
        batch = make_batch(orders, drivers, limits, revenue=revenue)
        assert_matches_dense(policy_name, batch)


class TestReducedSolve:
    def random_batch(self, seed):
        rng = np.random.default_rng(seed)
        n_orders, n_drivers = int(rng.integers(1, 14)), int(rng.integers(1, 18))
        orders = rng.uniform(0.3, 0.7, size=(n_orders, 2))
        drivers = rng.uniform(0.3, 0.7, size=(n_drivers, 2))
        limits = rng.uniform(1.0, 10.0, size=n_orders)
        waits = rng.uniform(0.0, 1.0, size=n_orders) * limits
        revenue = rng.uniform(1.0, 20.0, size=n_orders)
        metric = ("manhattan", "euclidean")[seed % 2]
        return make_batch(orders, drivers, limits, waits, revenue, metric=metric)

    @pytest.mark.parametrize("seed", range(12))
    def test_min_cost_equals_dense(self, seed):
        assert_matches_dense("polar", self.random_batch(seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_max_weight_equals_dense(self, seed):
        assert_matches_dense("ls", self.random_batch(seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_greedy_equals_dense(self, seed):
        assert_matches_dense("polar_greedy", self.random_batch(seed))

    def test_greedy_exact_on_ties(self):
        """Two clusters of two orders over two co-located drivers each."""
        orders = [[0.2, 0.2], [0.22, 0.2], [0.8, 0.8], [0.8, 0.82]]
        drivers = [[0.21, 0.21], [0.21, 0.21], [0.79, 0.81], [0.79, 0.81]]
        batch = make_batch(orders, drivers, limits=[3.0] * 4)
        for policy_name in POLICIES:
            assert_matches_dense(policy_name, batch)

    def test_degenerate_shapes(self):
        # No feasible edge: nothing matches and no solve is made.
        far = make_batch([[0.1, 0.1], [0.2, 0.1]], [[0.9, 0.9]], limits=[1.0, 1.0])
        # Single cell.
        one = make_batch([[0.5, 0.5]], [[0.51, 0.5]], limits=[5.0])
        for policy_name in POLICIES:
            (rows, cols, km), _ = sparse_and_dense(policy_name, far)
            assert rows.size == cols.size == km.size == 0
            (rows, cols, _), _ = sparse_and_dense(policy_name, one)
            assert (rows.tolist(), cols.tolist()) == ([0], [0])

    @pytest.mark.parametrize("seed", range(6))
    def test_star_batches(self, seed):
        """A one-order star and a one-driver star in the same batch."""
        rng = np.random.default_rng(seed)
        hub = rng.uniform(0.15, 0.25, size=2)
        spokes = hub + rng.normal(0.0, 0.01, size=(6, 2))
        driver = rng.uniform(0.75, 0.85, size=2)
        riders = driver + rng.normal(0.0, 0.01, size=(4, 2))
        orders = np.vstack([hub, riders])
        drivers = np.vstack([spokes, driver])
        revenue = rng.uniform(1.0, 20.0, size=5)
        batch = make_batch(orders, drivers, limits=np.full(5, 4.0), revenue=revenue)
        for policy_name in POLICIES:
            assert_matches_dense(policy_name, batch)


class TestSingleOrderAndDriver:
    def test_single_order_matches_dense(self):
        drivers = [[0.53, 0.5], [0.51, 0.5], [0.49, 0.5], [0.52, 0.5]]
        batch = make_batch([[0.5, 0.5]], drivers, limits=[5.0], revenue=[5.0])
        for policy_name in POLICIES:
            assert_matches_dense(policy_name, batch)
            (_, cols, _), _ = sparse_and_dense(policy_name, batch)
            # Drivers 1 and 2 tie as the nearest; the dense order picks 1.
            assert cols.tolist() == [1]
        # An unprofitable order is left unmatched by LS (min weight 0).
        (rows, _, _), _ = sparse_and_dense(
            "ls", make_batch([[0.5, 0.5]], drivers, limits=[5.0], revenue=[0.01])
        )
        assert rows.size == 0

    def test_single_driver_matches_dense(self):
        orders = [[0.53, 0.5], [0.51, 0.5], [0.48, 0.5]]
        revenue = [5.0, 5.0, 7.0]
        batch = make_batch(orders, [[0.5, 0.5]], limits=[5.0] * 3, revenue=revenue)
        for policy_name in POLICIES:
            assert_matches_dense(policy_name, batch)
            (rows, _, _), _ = sparse_and_dense(policy_name, batch)
            assert rows.size == 1
        # LS takes the richest order, POLAR the nearest.
        assert sparse_and_dense("ls", batch)[0][0].tolist() == [2]
        assert sparse_and_dense("polar", batch)[0][0].tolist() == [1]


class TestEngineSparseEquivalence:
    # The Hungarian policies promise only objective-equal batches, but every
    # run here is deterministic and replays the dense oracle exactly; a
    # change that breaks that for these fixed seeds needs a look, not a
    # re-seed.
    def run_simulator(self, policy_name, seed, sparse, fleet=20, orders=70):
        rng = np.random.default_rng(seed)
        stream = np.random.default_rng(seed + 500)
        order_list = make_orders(rng, orders)
        provider = make_provider(rng)
        drivers = spawn_drivers(fleet, np.random.default_rng(seed + 1000))
        simulator = TaskAssignmentSimulator(
            make_policy(policy_name),
            TRAVEL,
            demand=provider,
            seed=stream,
            engine="vector",
            sparse=sparse,
        )
        metrics = simulator.run(order_list, drivers, day=0, slots=[16, 17])
        state = [
            (d.x, d.y, d.available_at, d.served_orders, d.earned_revenue)
            for d in drivers
        ]
        return metrics, state, stream.random(4).tolist()

    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_always_replays_dense(self, policy_name, seed):
        dense = self.run_simulator(policy_name, seed, "never")
        sparse = self.run_simulator(policy_name, seed, "always")
        assert dense == sparse

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_auto_mode_replays_dense(self, policy_name):
        dense = self.run_simulator(policy_name, 11, "never")
        auto = self.run_simulator(policy_name, 11, "auto")
        assert dense == auto

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_single_driver_fleet(self, policy_name):
        dense = self.run_simulator(policy_name, 3, "never", fleet=1)
        sparse = self.run_simulator(policy_name, 3, "always", fleet=1)
        assert dense == sparse

    @staticmethod
    def replay_reference(bundle, sparse):
        simulator = bundle.simulator("vector", sparse=sparse)
        stream = np.random.default_rng(simulator.seed)
        simulator = replace(simulator, seed=stream)
        fleet = bundle.spawn_fleet()
        metrics = simulator.run(bundle.orders, fleet, day=0, slots=bundle.slots)
        state = [
            column.tolist()
            for column in (
                fleet.x,
                fleet.y,
                fleet.available_at,
                fleet.served_orders,
                fleet.earned_revenue,
            )
        ]
        return metrics, state, stream.random(4).tolist()

    @pytest.mark.parametrize(
        "policy, matching", REFERENCE_CONFIGS, ids=["-".join(c) for c in REFERENCE_CONFIGS]
    )
    def test_reference_scenario_replays_dense(self, policy, matching):
        """The committed reference day replays the dense oracle exactly.

        Under the former per-component solves, ls/optimal served 2118
        orders sparse against 2164 dense: one equal-objective tie resolved
        differently, then cascaded through the day.
        """
        bundle = build_scenario_bundle(reference_scenario(policy, matching))
        dense = self.replay_reference(bundle, "never")
        sparse = self.replay_reference(bundle, "always")
        assert dense[0].served_orders == sparse[0].served_orders
        assert sparse == dense

    def test_auto_threshold_switches(self):
        engine = VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL)
        assert not engine._use_sparse(4, 100)
        assert engine._use_sparse(4, SPARSE_AUTO_THRESHOLD)
        never = VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, sparse="never")
        assert not never._use_sparse(10**6, 10**6)
        always = VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, sparse="always")
        assert always._use_sparse(1, 1)

    def test_invalid_sparse_mode(self):
        with pytest.raises(ValueError):
            VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, sparse="sometimes")
        with pytest.raises(ValueError):
            TaskAssignmentSimulator(POLARDispatcher(), TRAVEL, sparse="maybe")

    def test_invalid_sparse_parameters_fail_at_construction(self):
        with pytest.raises(ValueError):
            VectorizedAssignmentEngine(POLARDispatcher(), TRAVEL, sparse_threshold=-1)

    def test_supports_array_kernels(self):
        assert supports_array_kernels(POLARDispatcher())
        assert supports_array_kernels(LSDispatcher())

        class MatchOnly:
            def match_pairs(self, distance, feasible, revenue):
                return np.empty(0, np.intp), np.empty(0, np.intp)

        assert not supports_array_kernels(MatchOnly())
        assert not supports_array_kernels(object())

    def test_any_array_kernel_policy_runs_sparse(self, monkeypatch):
        """A duck-typed array-kernel policy takes the sparse path, same metrics."""

        class Delegating:
            """Array kernels only: no POLAR base class, no extra attributes."""

            def __init__(self):
                self.inner = POLARDispatcher()

            def reposition_arrays(self, *args):
                self.inner.reposition_arrays(*args)

            def match_pairs(self, distance, feasible, revenue):
                return self.inner.match_pairs(distance, feasible, revenue)

        sparse_batches = []
        match_sparse = VectorizedAssignmentEngine._match_sparse

        def spy(engine, *args):
            sparse_batches.append(engine.sparse)
            return match_sparse(engine, *args)

        monkeypatch.setattr(VectorizedAssignmentEngine, "_match_sparse", spy)
        rng = np.random.default_rng(9)
        orders = make_orders(rng, 30)
        provider = make_provider(rng)
        metrics = {}
        for sparse in ("never", "always"):
            drivers = spawn_drivers(8, np.random.default_rng(10))
            simulator = TaskAssignmentSimulator(
                Delegating(), TRAVEL, demand=provider, seed=5, engine="vector", sparse=sparse
            )
            metrics[sparse] = simulator.run(orders, drivers, day=0, slots=[16, 17])
        assert metrics["always"] == metrics["never"]
        assert sparse_batches and set(sparse_batches) == {"always"}

