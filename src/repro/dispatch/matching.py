"""Bipartite matching primitives shared by the dispatchers.

All matchers consume a dense ``(orders, drivers)`` cost or weight matrix —
typically produced by :meth:`~repro.dispatch.travel.TravelModel.pairwise_km` —
and return an ``order index -> driver index`` mapping.  The mappings preserve
a deterministic iteration order (ascending rows for the matrix solvers,
ascending cost for the greedy matcher), which the vectorized engine relies on
to accumulate metrics in the same float-addition order as the scalar engine.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment


def greedy_matching(cost: np.ndarray, max_cost: float = np.inf) -> Dict[int, int]:
    """Greedy minimum-cost matching of rows (orders) to columns (drivers).

    Pairs are taken in increasing cost order; each row and column is used at
    most once and pairs with cost above ``max_cost`` are discarded.  O(E log E).

    Exact cost ties are broken by flat (row-major) matrix position — a stable
    sort rather than introsort — so the selection is fully specified by the
    matrix contents, never by NumPy's sort internals.  Tied candidate
    distances do occur at fleet scale (e.g. two drivers exactly equidistant
    from an order), and an unspecified tie order would make cached scenario
    results unstable across NumPy versions.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if cost.size == 0:
        return {}
    rows, cols = np.unravel_index(np.argsort(cost, axis=None, kind="stable"), cost.shape)
    matched_rows: set[int] = set()
    matched_cols: set[int] = set()
    assignment: Dict[int, int] = {}
    for row, col in zip(rows, cols):
        if cost[row, col] > max_cost:
            break
        if row in matched_rows or col in matched_cols:
            continue
        assignment[int(row)] = int(col)
        matched_rows.add(int(row))
        matched_cols.add(int(col))
    return assignment


def optimal_matching(cost: np.ndarray, max_cost: float = np.inf) -> Dict[int, int]:
    """Hungarian-algorithm matching minimising total cost, filtered by ``max_cost``.

    Infeasible pairs (cost above ``max_cost``) are masked with a large penalty
    and dropped from the returned assignment.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if cost.size == 0:
        return {}
    finite_max = np.nanmax(cost[np.isfinite(cost)]) if np.isfinite(cost).any() else 1.0
    penalty = max(finite_max, max_cost if np.isfinite(max_cost) else finite_max) * 10 + 1.0
    padded = np.where(np.isfinite(cost) & (cost <= max_cost), cost, penalty)
    row_indices, col_indices = linear_sum_assignment(padded)
    assignment: Dict[int, int] = {}
    for row, col in zip(row_indices, col_indices):
        if padded[row, col] < penalty:
            assignment[int(row)] = int(col)
    return assignment


def greedy_pairs(
    cost: np.ndarray, max_cost: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """Lean :func:`greedy_matching` returning ``(rows, cols)`` pair arrays.

    Produces exactly :func:`greedy_matching`'s assignment (identical stable
    argsort permutation over the identical matrix, identical acceptance rule)
    in its dict-insertion order (ascending cost), but stops scanning as soon
    as ``min(rows, cols)`` pairs are matched — every later candidate would be
    rejected anyway — instead of walking all ``R*C`` sorted pairs.
    """
    empty = np.empty(0, dtype=np.intp)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if cost.size == 0:
        return empty, empty.copy()
    n_rows, n_cols = cost.shape
    flat = cost.ravel()
    order = np.argsort(cost, axis=None, kind="stable")
    row_used = bytearray(n_rows)
    col_used = bytearray(n_cols)
    out_rows: list = []
    out_cols: list = []
    limit = min(n_rows, n_cols)
    for index in order:
        index = int(index)
        if flat[index] > max_cost:
            break
        row, col = divmod(index, n_cols)
        if row_used[row] or col_used[col]:
            continue
        row_used[row] = 1
        col_used[col] = 1
        out_rows.append(row)
        out_cols.append(col)
        if len(out_rows) == limit:
            break
    if not out_rows:
        return empty, empty.copy()
    return np.array(out_rows, dtype=np.intp), np.array(out_cols, dtype=np.intp)


def greedy_pairs_masked(
    cost: np.ndarray, feasible: np.ndarray, max_cost: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy matching that sorts only the feasible entries.

    Selection-equivalent to ``greedy_pairs(np.where(feasible, cost, np.inf),
    max_cost)`` for finite ``max_cost``: both scans visit the feasible pairs
    in ascending (cost, row-major position) order — the compressed stable
    sort preserves the dense stable sort's relative order of ties because
    ``np.nonzero`` walks the mask row-major — and the infeasible (infinite)
    tail is never reached because it exceeds ``max_cost``.  With an infinite
    ``max_cost`` the dense scan would go on to match infeasible pairs, so
    this kernel requires a finite cut-off.  ``cost`` must be finite wherever
    ``feasible`` is True.
    """
    empty = np.empty(0, dtype=np.intp)
    if cost.size == 0:
        return empty, empty.copy()
    rows_f, cols_f = np.nonzero(feasible)
    if rows_f.size == 0:
        return empty, empty.copy()
    values = cost[feasible]
    order = np.argsort(values, kind="stable")
    n_rows, n_cols = cost.shape
    row_used = bytearray(n_rows)
    col_used = bytearray(n_cols)
    out_rows: list = []
    out_cols: list = []
    limit = min(n_rows, n_cols)
    # The scan usually stops after a handful of accepted pairs, so it reads
    # the sorted candidates lazily instead of materialising Python lists of
    # every feasible entry.
    for index in order:
        if values[index] > max_cost:
            break
        row = int(rows_f[index])
        col = int(cols_f[index])
        if row_used[row] or col_used[col]:
            continue
        row_used[row] = 1
        col_used[col] = 1
        out_rows.append(row)
        out_cols.append(col)
        if len(out_rows) == limit:
            break
    if not out_rows:
        return empty, empty.copy()
    return np.array(out_rows, dtype=np.intp), np.array(out_cols, dtype=np.intp)


def min_cost_pairs(
    cost: np.ndarray, feasible: np.ndarray, max_cost: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """Lean :func:`optimal_matching` over a pre-computed feasibility mask.

    Equivalent to ``optimal_matching(np.where(feasible, cost, np.inf),
    max_cost)`` — it builds the *identical* padded matrix (same penalty value,
    same masked entries), so :func:`scipy.optimize.linear_sum_assignment`
    returns the identical solution — but skips the redundant ``isfinite``
    passes and fancy-indexed copies of the generic entry point.  ``cost`` must
    be finite wherever ``feasible`` is True.  Returns ``(rows, cols)`` index
    arrays sorted by row, matching the dict iteration order of
    :func:`optimal_matching`.
    """
    if cost.size == 0 or (not np.isfinite(max_cost) and not feasible.any()):
        # optimal_matching pads an all-infeasible matrix entirely with the
        # penalty and then filters every pair out; with a finite max_cost the
        # all-infeasible case needs no early exit because the penalty below
        # degrades to optimal_matching's value and every pair gets filtered.
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy()
    # Equals optimal_matching's nanmax over the feasible entries (and -inf
    # when none are feasible, in which case the finite max_cost alone
    # determines the penalty, exactly as the generic entry point's
    # placeholder finite_max=1.0 <= max_cost would).
    masked = np.where(feasible, cost, -np.inf)
    finite_max = float(masked.max())
    penalty = max(finite_max, max_cost if np.isfinite(max_cost) else finite_max) * 10 + 1.0
    if finite_max <= max_cost:
        # Every feasible entry already clears max_cost, so the combined mask
        # reduces to `feasible` — same padded matrix, one pass fewer.
        padded = np.where(feasible, cost, penalty)
    else:
        padded = np.where(feasible & (cost <= max_cost), cost, penalty)
    row_indices, col_indices = linear_sum_assignment(padded)
    keep = padded[row_indices, col_indices] < penalty
    return row_indices[keep].astype(np.intp, copy=False), col_indices[keep].astype(
        np.intp, copy=False
    )


def max_weight_pairs(
    weight: np.ndarray, feasible: np.ndarray, min_weight: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Lean :func:`maximum_weight_matching` over a pre-computed feasibility mask.

    Equivalent to ``maximum_weight_matching(np.where(feasible, weight,
    -np.inf), min_weight)`` — identical offset, identical cost matrix handed
    to the solver — without the extra masking passes.  ``weight`` must be
    finite wherever ``feasible`` is True.  Returns ``(rows, cols)`` sorted by
    row, matching the dict iteration order of :func:`maximum_weight_matching`.
    """
    empty = np.empty(0, dtype=np.intp)
    if weight.size == 0:
        return empty, empty.copy()
    capped_mask = feasible & (weight >= min_weight)
    capped = np.where(capped_mask, weight, -np.inf)
    best = float(capped.max())
    if best == -np.inf:  # no pair clears min_weight
        return empty, empty.copy()
    offset = best + 1.0
    cost = np.where(capped_mask, offset - weight, offset * 10)
    row_indices, col_indices = linear_sum_assignment(cost)
    keep = capped_mask[row_indices, col_indices]
    return row_indices[keep].astype(np.intp, copy=False), col_indices[keep].astype(
        np.intp, copy=False
    )


def maximum_weight_matching(weight: np.ndarray, min_weight: float = 0.0) -> Dict[int, int]:
    """Maximum-total-weight matching (used by revenue-maximising dispatchers).

    Pairs whose weight is below ``min_weight`` are never matched.
    """
    weight = np.asarray(weight, dtype=float)
    if weight.ndim != 2:
        raise ValueError("weight must be a 2-D matrix")
    if weight.size == 0:
        return {}
    capped = np.where(weight >= min_weight, weight, -np.inf)
    finite = capped[np.isfinite(capped)]
    if finite.size == 0:
        return {}
    offset = finite.max() + 1.0
    cost = np.where(np.isfinite(capped), offset - capped, offset * 10)
    row_indices, col_indices = linear_sum_assignment(cost)
    assignment: Dict[int, int] = {}
    for row, col in zip(row_indices, col_indices):
        if np.isfinite(capped[row, col]):
            assignment[int(row)] = int(col)
    return assignment
