"""Pinned Hungarian tie-break divergence: full-matrix vs reduced solve.

The sparse pipeline solves one submatrix — the rows touching a feasible
edge x the columns its column reduction keeps — while the dense pipeline
solves the whole padded matrix.  When an assignment problem has several
optima of equal objective, SciPy's tie-break on the submatrix can differ
from its tie-break on the padded matrix — the pair sets diverge while the
objective is identical.  This is the documented benign divergence class (see
the tie audit in :mod:`repro.fuzz.runner`); these tests pin concrete
instances so a future SciPy or solver change that turns the tie into an
*objective* change fails loudly instead of being waved through.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dispatch.engine import _reduced_block
from repro.dispatch.matching import min_cost_pairs
from repro.fuzz.runner import TieAuditPolicy, build_policy


def reduced_pairs(cost, feasible):
    """:func:`min_cost_pairs` on the submatrix the sparse path solves.

    Rows touching an edge x kept columns, from the engine's own reduction;
    each row's bound is the exact number of rows sharing a feasible column
    with it (the tightest sound bound), mapped back to dense indices.
    """
    edge_rows, edge_cols = np.nonzero(feasible)
    mask = feasible.astype(np.intp)
    shared = np.count_nonzero(mask @ mask.T, axis=1)
    rows, cols = _reduced_block(edge_rows, edge_cols, cost[feasible], shared)
    block = np.ix_(rows, cols)
    local_rows, local_cols = min_cost_pairs(cost[block], feasible[block])
    return rows[local_rows], cols[local_cols]


def _pair_set(pairs):
    rows, cols = pairs
    return set(zip(rows.tolist(), cols.tolist()))


def _objective(cost, pairs):
    rows, cols = pairs
    return (int(rows.size), float(np.sort(cost[rows, cols]).sum()))


class TestPinnedColumnTie:
    """Padding changes which of two equal-cost columns the solver picks."""

    COST = np.array([[1.0, 1.0], [3.0, 3.0]])
    FEASIBLE = np.array([[False, False], [True, True]])

    def test_solvers_disagree_on_the_pair_set(self):
        dense = min_cost_pairs(self.COST, self.FEASIBLE)
        reduced = reduced_pairs(self.COST, self.FEASIBLE)
        # Pin the current tie-break of both paths: the padded full-matrix
        # solve assigns row 1 to column 1, the reduced solve (whose
        # submatrix is just [[3, 3]]: row 0 touches no edge, and both tied
        # columns are kept) to column 0.  If either side changes, re-pin —
        # the objective equality below is the actual contract.
        assert _pair_set(dense) == {(1, 1)}
        assert _pair_set(reduced) == {(1, 0)}

    def test_objectives_are_exactly_equal(self):
        dense = _objective(self.COST, min_cost_pairs(self.COST, self.FEASIBLE))
        reduced = _objective(self.COST, reduced_pairs(self.COST, self.FEASIBLE))
        assert dense == reduced == (1, 3.0)


class TestPinnedRowTie:
    """A tie can also change which *order* (row) gets served at all."""

    COST = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 2.0]])
    FEASIBLE = np.array([[False, True], [False, True], [False, True]])

    def test_different_rows_same_objective(self):
        dense = min_cost_pairs(self.COST, self.FEASIBLE)
        reduced = reduced_pairs(self.COST, self.FEASIBLE)
        assert _pair_set(dense) != _pair_set(reduced)
        # Both serve exactly one order at cost 2 — but not the same order,
        # which is why benign ties may legitimately change the served-order
        # set (and the downstream driver state) without being a bug.
        assert _objective(self.COST, dense) == (1, 2.0)
        assert _objective(self.COST, reduced) == (1, 2.0)


class TestTieAuditClassifier:
    """The fuzzer's audit recognises these instances as equal-objective ties."""

    @pytest.mark.parametrize(
        "cost, feasible",
        [
            (TestPinnedColumnTie.COST, TestPinnedColumnTie.FEASIBLE),
            (TestPinnedRowTie.COST, TestPinnedRowTie.FEASIBLE),
        ],
        ids=["column-tie", "row-tie"],
    )
    def test_audit_witnesses_the_tie(self, cost, feasible):
        audit = TieAuditPolicy(build_policy("polar"), "polar")
        revenue = np.full(cost.shape[0], 8.0)
        audit.match_pairs(cost, feasible, revenue)
        assert audit.ties > 0
        assert audit.objective_mismatches == 0

    def test_audit_flags_an_objective_change_as_a_mismatch(self):
        # A broken solver whose alternate solution changes the objective must
        # never be blessed: wire a probe-sensitive fake and check it lands in
        # objective_mismatches, not ties.
        class _PositionSensitive:
            """Picks column 0 of whatever matrix it is given — reversing the
            columns therefore changes the chosen cost, not just the pair."""

            def match_pairs(self, distance, feasible, revenue):
                return np.array([0]), np.array([0])

        audit = TieAuditPolicy(_PositionSensitive(), "polar")
        distance = np.array([[1.0, 5.0]])
        feasible = np.array([[True, True]])
        audit.match_pairs(distance, feasible, np.array([8.0]))
        assert audit.objective_mismatches > 0
        assert audit.ties == 0
