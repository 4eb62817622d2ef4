"""Cached dispatch-scenario suite runner.

The dispatch counterpart of :class:`~repro.sweep.runner.SweepRunner`: a suite
is a batch of :class:`~repro.dispatch.scenarios.DispatchScenario` points
(city x policy x fleet size x demand scale x seed), each simulated once by
the vectorized engine.  The runner goes through the shared loop of
:mod:`repro.sweep.suite` and shares the expensive resources the same way the
OGSS sweep does:

1. **Datasets** — scenarios are grouped by their ``dataset_signature``;
   each group generates its synthetic dataset once, and scenarios with equal
   ``guidance_signature`` inside it share one demand-guidance provider.
2. **Results** — finished simulations are persisted as canonical JSON through
   :class:`~repro.utils.cache.ResultCache`.  Scenario simulations are fully
   deterministic (see the draw-order notes in :mod:`repro.dispatch.engine`),
   so a rerun with identical parameters is a byte-identical cache replay and
   does no simulation work at all.

The groups fan out across worker processes.  The matched-pair walk is Python
and holds the GIL, so threads bought nothing: on a 2-vCPU host ``repro
dispatch`` over 3 presets (``--profile small``, 24 scenarios) took 6.20 s
serially, 6.04-6.33 s with two threads and 3.15-3.31 s with two processes.

Example
-------
>>> scenarios = scenario_grid(["xian_like"], fleet_sizes=[50], seeds=[7])
>>> report = DispatchSuiteRunner(scenarios, cache_dir="/tmp/suite").run()
>>> report.outcomes[0].metrics.served_orders
42
>>> DispatchSuiteRunner(scenarios, cache_dir="/tmp/suite").run().cache_hits
2
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.dispatch.entities import DispatchMetrics
from repro.dispatch.scenarios import (
    DispatchScenario,
    build_scenario_bundle,
    build_scenario_dataset,
)
from repro.sweep.suite import run_cached
from repro.utils.cache import ResultCache
from repro.utils.timer import wall_clock

#: Bump when the serialised payload layout changes so stale entries miss.
#: Schema 2: lifecycle metrics (``cancelled_orders``) joined the payload and
#: scenarios gained fleet/order lifecycle semantics (shift windows, multi-day
#: replay), so schema-1 entries must miss rather than replay without them.
_CACHE_SCHEMA = 2


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one suite scenario, fresh or replayed from the cache."""

    scenario: DispatchScenario
    metrics: DispatchMetrics
    total_orders: int
    seconds: float
    from_cache: bool
    engine: str


@dataclass(frozen=True)
class SuiteReport:
    """All outcomes of one suite run plus aggregate bookkeeping."""

    outcomes: Tuple[ScenarioOutcome, ...]
    seconds: float

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    @property
    def cache_misses(self) -> int:
        return len(self.outcomes) - self.cache_hits

    def by_label(self) -> Dict[str, ScenarioOutcome]:
        """Mapping ``scenario label -> outcome``."""
        return {outcome.scenario.label: outcome for outcome in self.outcomes}


def _simulate_group(
    scenarios: Sequence[DispatchScenario], engine: str, sparse: str
) -> Iterator[Dict[str, Any]]:
    """Simulate scenarios sharing one dataset signature; yield their payloads."""
    dataset = build_scenario_dataset(scenarios[0])
    providers: Dict[Tuple, Any] = {}
    for scenario in scenarios:
        bundle = build_scenario_bundle(scenario, dataset=dataset, provider_cache=providers)
        metrics = bundle.run(engine=engine, sparse=sparse)
        yield {
            "served_orders": metrics.served_orders,
            "cancelled_orders": metrics.cancelled_orders,
            "total_orders": metrics.total_orders,
            "total_revenue": metrics.total_revenue,
            "total_travel_km": metrics.total_travel_km,
            "unified_cost": metrics.unified_cost,
            "suite_total_orders": bundle.total_order_count,
            "engine": engine,
        }


def _outcome(
    scenario: DispatchScenario,
    payload: Dict[str, Any],
    seconds: float,
    from_cache: bool,
) -> ScenarioOutcome:
    metrics = DispatchMetrics(
        served_orders=int(payload["served_orders"]),
        total_orders=int(payload["total_orders"]),
        total_revenue=float(payload["total_revenue"]),
        total_travel_km=float(payload["total_travel_km"]),
        unified_cost=float(payload["unified_cost"]),
        cancelled_orders=int(payload["cancelled_orders"]),
    )
    return ScenarioOutcome(
        scenario=scenario,
        metrics=metrics,
        total_orders=int(payload["suite_total_orders"]),
        seconds=seconds,
        from_cache=from_cache,
        engine=str(payload["engine"]),
    )


class DispatchSuiteRunner:
    """Run a batch of dispatch scenarios across processes with persistent caching.

    Parameters
    ----------
    scenarios:
        The scenario points to simulate.
    cache_dir:
        Directory for the persistent :class:`~repro.utils.cache.ResultCache`;
        ``None`` disables on-disk caching (everything is recomputed).
    max_workers:
        Worker processes, at least 1; defaults to ``min(groups, cpu_count)``
        where a group is the cache misses of one dataset signature.
    engine:
        ``"vector"`` (default) or ``"scalar"`` — which simulation engine runs
        cache misses.  Both produce identical metrics; the engine name is
        recorded per outcome and is part of the cache key only through the
        metrics being engine-independent (i.e. it is *not* keyed, so a
        scalar-engine run warms the cache for vector-engine reruns and vice
        versa).
    sparse:
        Matching pipeline of the vectorized engine
        (``"auto"``/``"always"``/``"never"``); an execution detail with no
        effect on metrics or cache keys.
    """

    def __init__(
        self,
        scenarios: Iterable[DispatchScenario],
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        engine: str = "vector",
        sparse: str = "auto",
    ) -> None:
        self.scenarios = list(scenarios)
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        if engine not in ("vector", "scalar"):
            raise ValueError("engine must be 'vector' or 'scalar'")
        if sparse not in ("auto", "always", "never"):
            raise ValueError("sparse must be 'auto', 'always' or 'never'")
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers
        self.engine = engine
        self.sparse = sparse

    def run(self) -> SuiteReport:
        """Simulate every scenario and return the collected report."""
        start = wall_clock()
        outcomes = run_cached(
            self.scenarios,
            self.cache,
            cache_key=self.cache_key,
            group_key=lambda scenario: scenario.dataset_signature,
            run_group=partial(_simulate_group, engine=self.engine, sparse=self.sparse),
            outcome=_outcome,
            max_workers=self.max_workers,
        )
        return SuiteReport(outcomes=outcomes, seconds=wall_clock() - start)

    @staticmethod
    def cache_key(scenario: DispatchScenario) -> str:
        """Result-cache key of one scenario."""
        return ResultCache.key_for(
            {"schema": _CACHE_SCHEMA, "scenario": scenario.cache_payload()}
        )
