"""Differential runner: replay one fuzz world on every engine configuration.

The scalar per-object simulator is the bit-exact oracle (see
``docs/architecture.md``).  :func:`run_differential` replays a
:class:`~repro.fuzz.generator.FuzzWorld` on

* the scalar engine (oracle),
* the vectorized engine with the dense matching pipeline (``sparse="never"``),
* the vectorized engine with the sparse pipeline forced (``sparse="always"``),
* the vectorized engine in ``sparse="auto"`` with a micro threshold, so a
  single run mixes dense and sparse batches across the auto seam,

and compares three things against the oracle, all bit-exact:

* the final :class:`~repro.dispatch.entities.DispatchMetrics`,
* the final per-driver state (position, ``available_at``, served counts,
  earned revenue),
* the RNG stream position (``bit_generator.state`` after the run) — an engine
  that consumes one extra or one fewer draw diverges here even when the
  metrics happen to agree.

Benign Hungarian ties
---------------------
One divergence class is expected: when an assignment problem has several
optima of equal objective, the full-matrix Hungarian solve (dense pipeline)
and the column-reduced solve (sparse pipeline) may pick different ones.  The
runner therefore classifies a divergence as *benign* only when all of the
following hold:

1. the dense vector run matched the scalar oracle exactly (the oracle
   contract itself is intact — scalar-vs-dense divergences are never benign),
2. the diverging mode uses the sparse pipeline under a Hungarian-matching
   policy (``polar`` with optimal matching, or ``ls``; the greedy reduction
   is exactly equivalent by construction and gets no such grace), and
3. a *tie audit* replay of the dense run proves an equal-objective tie: every
   ``match_pairs`` call is re-solved with the candidate columns (and rows)
   reversed, and some call yields a different pair set with the **same
   objective value** (pair-count-then-total-distance for POLAR, total net
   weight for LS).  Objective equality is asserted — an alternate solution
   with a different objective is a real bug and stays a hard failure.

The audit probes (column/row reversal) are a heuristic witness: they can miss
a tie, in which case the divergence conservatively stays a failure for a
human to inspect, but they can never launder a genuine objective change.

Bug injection
-------------
:data:`BUG_INJECTIONS` holds named, deliberately wrong engine mutations used
to validate the harness itself (and by ``repro fuzz --inject-bug`` in CI
smoke): each is applied to the *vector* runs only, so the scalar oracle is
untouched and the differential must trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dispatch.ls import LSDispatcher
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.simulator import TaskAssignmentSimulator
from repro.fuzz.generator import FuzzWorld

#: Engine configurations compared against the scalar oracle.  The mixed mode
#: runs ``sparse="auto"`` with a micro threshold so dense and sparse batches
#: interleave inside one replay (the auto seam itself is under test).
ENGINE_MODES: Tuple[Tuple[str, Optional[Dict]], ...] = (
    ("scalar", None),
    ("vector-dense", {"engine": "vector", "sparse": "never"}),
    ("vector-sparse", {"engine": "vector", "sparse": "always"}),
    (
        "vector-mixed",
        {"engine": "vector", "sparse": "auto", "sparse_threshold": 64},
    ),
)

#: Modes whose matching goes through the sparse pipeline (candidates for the
#: benign-tie classification).
SPARSE_MODE_NAMES = ("vector-sparse", "vector-mixed")

#: Policies whose ``match_pairs`` is a Hungarian (assignment) solve; only
#: these can exhibit the documented equal-objective tie divergence.
HUNGARIAN_POLICIES = ("polar", "ls")


def build_policy(name: str):
    """Fresh policy instance for one engine replay."""
    if name == "polar":
        return POLARDispatcher(use_optimal_matching=True)
    if name == "polar_greedy":
        return POLARDispatcher(use_optimal_matching=False)
    if name == "ls":
        return LSDispatcher()
    raise ValueError(f"unknown fuzz policy {name!r}")


# --------------------------------------------------------------------- #
# Outcome capture
# --------------------------------------------------------------------- #


def _rng_position(rng: np.random.Generator) -> Tuple:
    """Hashable canonical form of the generator's stream position."""
    state = rng.bit_generator.state
    inner = state["state"]
    return (
        state["bit_generator"],
        int(inner["state"]),
        int(inner["inc"]),
        int(state.get("has_uint32", 0)),
        int(state.get("uinteger", 0)),
    )


@dataclass(frozen=True)
class EngineOutcome:
    """Everything one engine replay is compared on."""

    mode: str
    metrics: Tuple
    drivers: Tuple[Tuple, ...]
    rng_position: Tuple

    def diff_against(self, oracle: "EngineOutcome") -> List[str]:
        """Names of the state groups that differ from the oracle."""
        kinds = []
        if self.metrics != oracle.metrics:
            kinds.append("metrics")
        if self.drivers != oracle.drivers:
            kinds.append("drivers")
        if self.rng_position != oracle.rng_position:
            kinds.append("rng")
        return kinds


def _metrics_tuple(metrics) -> Tuple:
    return (
        int(metrics.served_orders),
        int(metrics.total_orders),
        float(metrics.total_revenue),
        float(metrics.total_travel_km),
        float(metrics.unified_cost),
        int(metrics.cancelled_orders),
    )


def _fleet_tuple(fleet) -> Tuple[Tuple, ...]:
    return tuple(
        (
            float(fleet.x[i]),
            float(fleet.y[i]),
            float(fleet.available_at[i]),
            int(fleet.served_orders[i]),
            float(fleet.earned_revenue[i]),
        )
        for i in range(len(fleet))
    )


def _drivers_tuple(drivers) -> Tuple[Tuple, ...]:
    return tuple(
        (
            float(d.x),
            float(d.y),
            float(d.available_at),
            int(d.served_orders),
            float(d.earned_revenue),
        )
        for d in drivers
    )


# --------------------------------------------------------------------- #
# Bug injection (harness self-test)
# --------------------------------------------------------------------- #


class _MatchDropLastPolicy:
    """Wrong-by-construction policy wrapper: silently drops the last matched
    pair of every batch (the crudest possible matching regression)."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def match_pairs(self, distance, feasible, revenue):
        rows, cols = self._inner.match_pairs(distance, feasible, revenue)
        return rows[:-1], cols[:-1]


class _ExtraDrawPolicy:
    """Wrong-by-construction policy wrapper: consumes one extra RNG draw per
    reposition call — metrics may agree, the stream position cannot."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def reposition_arrays(self, fleet, predicted, travel, minute, rng):
        rng.random()
        return self._inner.reposition_arrays(fleet, predicted, travel, minute, rng)


def _inject_match_drop_last(policy, fleet):
    return _MatchDropLastPolicy(policy), fleet


def _inject_idle_open_boundary(policy, fleet):
    # Emulates an engine that treats the availability boundary as open
    # (``available_at < minute`` instead of ``<=``): nudging every
    # availability up one ULP excludes exactly the drivers who become free
    # precisely on a batch boundary.
    fleet.available_at[:] = np.nextafter(fleet.available_at, np.inf)
    return policy, fleet


def _inject_extra_rng_draw(policy, fleet):
    return _ExtraDrawPolicy(policy), fleet


#: name -> (policy, fleet) -> (policy, fleet), applied to vector runs only.
BUG_INJECTIONS: Dict[str, Callable] = {
    "match-drop-last": _inject_match_drop_last,
    "idle-open-boundary": _inject_idle_open_boundary,
    "reposition-extra-draw": _inject_extra_rng_draw,
}


# --------------------------------------------------------------------- #
# Tie audit
# --------------------------------------------------------------------- #


class TieAuditPolicy:
    """Policy wrapper that witnesses equal-objective assignment ties.

    Every ``match_pairs`` call is additionally solved on the column-reversed
    and row-reversed candidate matrices; a probe that returns a different
    pair set is compared on the policy's objective.  ``ties`` counts calls
    with an equal-objective alternate optimum, ``objective_mismatches``
    counts probes whose alternate solution changed the objective — which
    would mean the solver itself is broken, so the audit refuses to bless
    the divergence.
    """

    def __init__(self, inner, policy_name: str) -> None:
        self._inner = inner
        self._policy_name = policy_name
        self.ties = 0
        self.objective_mismatches = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    # -- objective ----------------------------------------------------- #

    def _objective(self, distance, revenue, rows, cols) -> Tuple[int, float]:
        if self._policy_name == "ls":
            cost = getattr(self._inner, "pickup_cost_per_km", 0.8)
            if rows.size == 0:
                return (0, 0.0)
            weight = revenue[rows] - cost * distance[rows, cols]
            # Sort before summing so permuted pair orders compare equal.
            return (0, float(np.sort(weight, kind="stable").sum()))
        if rows.size == 0:
            return (0, 0.0)
        return (int(rows.size), float(np.sort(distance[rows, cols], kind="stable").sum()))

    @staticmethod
    def _same_pairs(rows, cols, alt_rows, alt_cols) -> bool:
        return set(zip(rows.tolist(), cols.tolist())) == set(
            zip(alt_rows.tolist(), alt_cols.tolist())
        )

    @staticmethod
    def _objectives_equal(a: Tuple[int, float], b: Tuple[int, float]) -> bool:
        return a[0] == b[0] and abs(a[1] - b[1]) <= 1e-9 * max(
            1.0, abs(a[1]), abs(b[1])
        )

    def _probe(self, distance, feasible, revenue, rows, cols, axis: int) -> None:
        if distance.shape[axis] <= 1:
            return
        if axis == 1:
            alt_rows, alt_cols = self._inner.match_pairs(
                distance[:, ::-1].copy(), feasible[:, ::-1].copy(), revenue
            )
            alt_cols = distance.shape[1] - 1 - alt_cols
        else:
            alt_rows, alt_cols = self._inner.match_pairs(
                distance[::-1].copy(), feasible[::-1].copy(), revenue[::-1].copy()
            )
            alt_rows = distance.shape[0] - 1 - alt_rows
        if self._same_pairs(rows, cols, alt_rows, alt_cols):
            return
        base = self._objective(distance, revenue, rows, cols)
        alt = self._objective(distance, revenue, alt_rows, alt_cols)
        if self._objectives_equal(base, alt):
            self.ties += 1
        else:
            self.objective_mismatches += 1

    # -- wrapped kernel ------------------------------------------------ #

    def match_pairs(self, distance, feasible, revenue):
        rows, cols = self._inner.match_pairs(distance, feasible, revenue)
        self._probe(distance, feasible, revenue, rows, cols, axis=1)
        self._probe(distance, feasible, revenue, rows, cols, axis=0)
        return rows, cols


def audit_for_ties(world: FuzzWorld) -> Tuple[int, int]:
    """Replay the dense vector engine under the tie audit.

    Returns ``(ties, objective_mismatches)`` over every matching call of the
    replay.  A positive tie count with zero objective mismatches is the
    witness required to classify a sparse-vs-dense divergence as benign.
    """
    policy = TieAuditPolicy(build_policy(world.policy), world.policy)
    sim = TaskAssignmentSimulator(
        policy=policy,
        travel=world.build_travel(),
        demand=world.build_provider(),
        batch_minutes=world.batch_minutes,
        seed=world.sim_seed,
        engine="vector",
        sparse="never",
        minutes_per_slot=world.minutes_per_slot,
    )
    sim.run(world.build_order_arrays(), world.build_fleet(), slots=world.slots)
    return policy.ties, policy.objective_mismatches


# --------------------------------------------------------------------- #
# Differential execution
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Divergence:
    """One engine mode disagreeing with the scalar oracle."""

    mode: str
    kinds: Tuple[str, ...]
    benign_tie: bool
    detail: str

    def to_payload(self) -> Dict:
        return {
            "mode": self.mode,
            "kinds": list(self.kinds),
            "benign_tie": self.benign_tie,
            "detail": self.detail,
        }


@dataclass
class DifferentialResult:
    """Outcome of replaying one world across all engine modes."""

    world: FuzzWorld
    outcomes: Dict[str, EngineOutcome] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)
    tie_audit: Optional[Tuple[int, int]] = None

    @property
    def failed(self) -> bool:
        return any(not d.benign_tie for d in self.divergences)

    @property
    def verdict(self) -> str:
        if not self.divergences:
            return "ok"
        return "divergent" if self.failed else "benign-tie"


def _run_mode(
    world: FuzzWorld, mode: str, sim_kwargs: Optional[Dict], bug: Optional[str]
) -> EngineOutcome:
    policy = build_policy(world.policy)
    if mode == "scalar":
        drivers = world.build_drivers()
        sim = TaskAssignmentSimulator(
            policy=policy,
            travel=world.build_travel(),
            demand=world.build_provider(),
            batch_minutes=world.batch_minutes,
            seed=world.sim_seed,
            engine="scalar",
            minutes_per_slot=world.minutes_per_slot,
        )
        metrics = sim.run(world.build_orders(), drivers, slots=world.slots)
        return EngineOutcome(
            mode=mode,
            metrics=_metrics_tuple(metrics),
            drivers=_drivers_tuple(drivers),
            rng_position=_rng_position(sim._rng),
        )
    fleet = world.build_fleet()
    if bug is not None:
        policy, fleet = BUG_INJECTIONS[bug](policy, fleet)
    sim = TaskAssignmentSimulator(
        policy=policy,
        travel=world.build_travel(),
        demand=world.build_provider(),
        batch_minutes=world.batch_minutes,
        seed=world.sim_seed,
        minutes_per_slot=world.minutes_per_slot,
        **(sim_kwargs or {}),
    )
    metrics = sim.run(world.build_order_arrays(), fleet, slots=world.slots)
    return EngineOutcome(
        mode=mode,
        metrics=_metrics_tuple(metrics),
        drivers=_fleet_tuple(fleet),
        rng_position=_rng_position(sim._rng),
    )


def _divergence_detail(outcome: EngineOutcome, oracle: EngineOutcome) -> str:
    parts = []
    if outcome.metrics != oracle.metrics:
        parts.append(f"metrics {oracle.metrics} != {outcome.metrics}")
    if outcome.drivers != oracle.drivers:
        first = next(
            i
            for i, (a, b) in enumerate(zip(oracle.drivers, outcome.drivers))
            if a != b
        )
        parts.append(
            f"driver[{first}] {oracle.drivers[first]} != {outcome.drivers[first]}"
        )
    if outcome.rng_position != oracle.rng_position:
        parts.append("rng stream position differs")
    return "; ".join(parts)


def run_differential(
    world: FuzzWorld,
    bug: Optional[str] = None,
    modes: Sequence[Tuple[str, Optional[Dict]]] = ENGINE_MODES,
) -> DifferentialResult:
    """Replay ``world`` on every engine mode and compare against the oracle.

    ``bug`` names a :data:`BUG_INJECTIONS` entry applied to the vector runs
    (harness self-test); the scalar oracle always runs unmodified.
    """
    if bug is not None and bug not in BUG_INJECTIONS:
        raise ValueError(
            f"unknown bug injection {bug!r}; known: {sorted(BUG_INJECTIONS)}"
        )
    result = DifferentialResult(world=world)
    for mode, sim_kwargs in modes:
        result.outcomes[mode] = _run_mode(world, mode, sim_kwargs, bug)
    oracle = result.outcomes["scalar"]
    dense = result.outcomes.get("vector-dense")
    dense_matches_oracle = dense is not None and not dense.diff_against(oracle)
    for mode, _ in modes:
        if mode == "scalar":
            continue
        outcome = result.outcomes[mode]
        kinds = outcome.diff_against(oracle)
        if not kinds:
            continue
        benign = False
        if (
            bug is None
            and dense_matches_oracle
            and mode in SPARSE_MODE_NAMES
            and world.policy in HUNGARIAN_POLICIES
        ):
            if result.tie_audit is None:
                result.tie_audit = audit_for_ties(world)
            ties, mismatches = result.tie_audit
            benign = ties > 0 and mismatches == 0
        result.divergences.append(
            Divergence(
                mode=mode,
                kinds=tuple(kinds),
                benign_tie=benign,
                detail=_divergence_detail(outcome, oracle),
            )
        )
    return result
