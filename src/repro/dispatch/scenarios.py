"""Named dispatch scenarios: (city x policy x fleet x demand x seed) points.

A :class:`DispatchScenario` is a frozen, JSON-serialisable description of one
dispatch simulation — which synthetic city, which policy (POLAR or LS), how
many drivers, how much demand, and under which seed.  Scenarios are the unit
the suite runner in :mod:`repro.sweep.dispatch` fans out and caches: two equal
scenarios always produce byte-identical metrics, so a scenario is also a
cache key.

Determinism
-----------
Every random stream is derived from ``scenario.seed`` through
:func:`repro.utils.rng.seed_for` with a fixed label per purpose (dataset,
order jitter, driver spawn, simulator), so adding scenarios to a suite never
perturbs the streams of the others.  The simulation itself consumes its RNG
in the documented draw order of :mod:`repro.dispatch.engine`, which is why
cached scenario results replay byte-stably.

Scenario families
-----------------
* :func:`scenario_grid` — cross-product builder over cities, policies, fleet
  sizes, demand scales and seeds (Figures 6-8 style sweeps).
* :func:`stress_scenarios` — surge demand and small/large fleet variants of a
  base scenario.
* :func:`pathological_scenarios` — degenerate shapes graduated from the
  differential fuzzer (offset slot window, trailing empty slots,
  single-driver micro fleet, one-batch rider patience).
* :func:`reference_scenario` — the fixed 200-driver / 1-day scenario used by
  ``benchmarks/bench_dispatch_engine.py`` and the CI perf gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.grid import GridLayout
from repro.core.interfaces import evaluation_targets
from repro.data.dataset import EventDataset
from repro.data.presets import CITY_PRESETS, city_preset
from repro.dispatch.demand import PredictedDemandProvider, order_arrays_from_events
from repro.dispatch.entities import DAY_MINUTES, DispatchMetrics, FleetArrays, OrderArrays
from repro.dispatch.ls import LSDispatcher
from repro.dispatch.polar import POLARDispatcher
from repro.dispatch.simulator import TaskAssignmentSimulator, spawn_fleet
from repro.dispatch.travel import TravelModel
from repro.prediction.oracle import PerfectPredictor
from repro.prediction.registry import available_models, create_seeded_model
from repro.utils.rng import default_rng, seed_for
from repro.utils.timer import wall_clock
from repro.utils.validation import ensure_perfect_square

#: Bump when the scenario semantics or serialised payload change, so stale
#: cache entries miss instead of replaying incompatible results.
#: Schema 2: fleet & order lifecycle — per-driver shift windows
#: (``fleet_profile``), rider-cancellation accounting and multi-day replay
#: (``test_days``) joined the scenario vocabulary.
SCENARIO_SCHEMA = 2

#: Policies the scenario suite can instantiate.
SCENARIO_POLICIES = ("polar", "ls")

#: Fleet lifecycle profiles a scenario can spawn (see :func:`shift_windows`).
FLEET_PROFILES = ("full_day", "two_shift", "skeleton")


def shift_windows(
    profile: str, count: int
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Per-driver recurring shift windows ``(online_from, online_until)``.

    Windows are minutes of day (see
    :func:`~repro.dispatch.entities.online_mask`), assigned deterministically
    by driver index so fleet spawning consumes no extra RNG draws and every
    engine sees the identical roster.

    * ``"full_day"`` — everyone online around the clock (the pre-lifecycle
      fixed fleet); returns ``(None, None)`` so the fleet keeps the default
      windows.
    * ``"two_shift"`` — even-indexed drivers work the day shift
      (05:00-17:30), odd-indexed the overnight shift (17:00-05:00, wrapping
      midnight); the 17:00-17:30 overlap is the evening-rush shift change.
    * ``"skeleton"`` — every fourth driver is online around the clock, the
      rest only 06:00-22:00: overnight the city runs on a quarter of the
      fleet.
    """
    if profile not in FLEET_PROFILES:
        raise ValueError(f"fleet_profile must be one of {FLEET_PROFILES}")
    if profile == "full_day":
        return None, None
    index = np.arange(count)
    if profile == "two_shift":
        day_shift = index % 2 == 0
        online_from = np.where(day_shift, 300.0, 1020.0)
        online_until = np.where(day_shift, 1050.0, 300.0)
        return online_from, online_until
    skeleton = index % 4 == 0
    online_from = np.where(skeleton, 0.0, 360.0)
    online_until = np.where(skeleton, DAY_MINUTES, 1320.0)
    return online_from, online_until


@dataclass(frozen=True)
class DispatchScenario:
    """One reproducible dispatch simulation configuration.

    Attributes
    ----------
    city:
        City preset name (see :data:`repro.data.presets.CITY_PRESETS`).
    policy:
        ``"polar"`` or ``"ls"``.
    fleet_size:
        Number of drivers.
    demand_scale:
        Multiplier on the scenario's base city volume ``scale`` — ``2.0``
        doubles the simulated order stream (surge), ``0.5`` halves it.
    seed:
        Base seed every derived stream hangs off.
    scale, num_days:
        Synthetic dataset parameters (the test day provides the orders).
    slots:
        Simulated slots of the test day; ``None`` replays the whole day.
    mgrid_side:
        MGrid resolution of the predicted-demand guidance.
    hgrid_budget:
        HGrid budget the guidance is spread over.
    guidance:
        ``"oracle"`` feeds the dispatcher the realised demand (the paper's
        "real order data" series); ``"none"`` disables repositioning; any
        registered prediction model name (``"mlp"``, ``"deepst"``,
        ``"dmvst_net"``, ``"historical_average"``, ...) trains that
        predictor on the scenario's history and feeds its *predicted*
        demand to the dispatcher — the paper's actual serving pipeline, so
        prediction quality is exercised at fleet scale.
    matching:
        POLAR's assignment solver: ``"optimal"`` (Hungarian) or ``"greedy"``
        (the city-scale configuration).  Ignored by LS, which always solves
        the maximum-weight matching.
    batch_minutes, max_wait_minutes:
        Matching batch length and rider patience: an order waiting longer
        than ``max_wait_minutes`` is cancelled by its rider (counted in
        ``DispatchMetrics.cancelled_orders``).
    test_days:
        Number of consecutive test days replayed.  Fleet state — positions,
        ``available_at``, per-driver statistics — carries across the day
        boundaries, and shift windows recur daily.
    fleet_profile:
        Driver shift roster (see :func:`shift_windows`): ``"full_day"``
        (static fleet, the default), ``"two_shift"`` (day/overnight shifts
        with an evening-rush change-over) or ``"skeleton"`` (overnight
        skeleton fleet).
    name:
        Optional label used in reports; defaults to a structural name.
    """

    city: str
    policy: str = "polar"
    fleet_size: int = 200
    demand_scale: float = 1.0
    seed: int = 7
    scale: float = 0.01
    num_days: int = 8
    slots: Optional[Tuple[int, ...]] = None
    mgrid_side: int = 8
    hgrid_budget: int = 256
    guidance: str = "oracle"
    matching: str = "optimal"
    batch_minutes: float = 2.0
    max_wait_minutes: float = 10.0
    test_days: int = 1
    fleet_profile: str = "full_day"
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.city not in CITY_PRESETS:
            raise ValueError(
                f"unknown city preset {self.city!r}; available: {sorted(CITY_PRESETS)}"
            )
        if self.policy not in SCENARIO_POLICIES:
            raise ValueError(f"policy must be one of {SCENARIO_POLICIES}")
        if self.fleet_size <= 0:
            raise ValueError("fleet_size must be positive")
        if self.demand_scale <= 0:
            raise ValueError("demand_scale must be positive")
        if self.guidance not in ("oracle", "none") and self.guidance not in available_models():
            raise ValueError(
                "guidance must be 'oracle', 'none' or a registered prediction "
                f"model name (available: {available_models()})"
            )
        if self.matching not in ("optimal", "greedy"):
            raise ValueError("matching must be 'optimal' or 'greedy'")
        if self.test_days < 1:
            raise ValueError("test_days must be at least 1")
        if self.num_days < self.test_days + 3:
            # The chronological split needs >= 1 train + 2 val days ahead of
            # the test window; fail here with scenario context instead of
            # deep inside dataset generation.
            raise ValueError(
                f"num_days={self.num_days} too small for test_days="
                f"{self.test_days} (need at least test_days + 3)"
            )
        if self.fleet_profile not in FLEET_PROFILES:
            raise ValueError(f"fleet_profile must be one of {FLEET_PROFILES}")
        ensure_perfect_square(self.hgrid_budget, "hgrid_budget")

    @property
    def label(self) -> str:
        """Human-readable scenario label."""
        if self.name:
            return self.name
        return (
            f"{self.city}/{self.policy}/fleet{self.fleet_size}"
            f"/demand{self.demand_scale:g}/seed{self.seed}"
        )

    @property
    def dataset_signature(self) -> Tuple[str, float, int, int, int]:
        """Key identifying the synthetic dataset this scenario runs against.

        ``test_days`` is part of the key because it changes the dataset's
        chronological split (which days are test days), even though the
        generated events are identical.
        """
        return (
            self.city,
            self.effective_scale,
            self.num_days,
            self.test_days,
            self.dataset_seed,
        )

    @property
    def effective_scale(self) -> float:
        """City volume scale after applying ``demand_scale``."""
        return self.scale * self.demand_scale

    @property
    def dataset_seed(self) -> int:
        return seed_for(f"dispatch-scenario/{self.city}/dataset", self.seed)

    @property
    def guidance_signature(self) -> Tuple:
        """Key identifying the demand-guidance provider this scenario needs.

        Scenarios that differ only in policy, fleet size or matching share
        one provider (and therefore one predictor training when guidance is
        a model name); everything the provider's content depends on is in
        the key.
        """
        return (
            self.dataset_signature,
            self.guidance,
            self.seed,
            self.mgrid_side,
            self.hgrid_budget,
        )

    def cache_payload(self) -> Dict[str, Any]:
        """JSON-serialisable parameter mapping that keys the result cache.

        ``name`` is a display label, not an input, so it is excluded — equal
        configurations share a cache entry regardless of how they are named.
        """
        return {
            "schema": SCENARIO_SCHEMA,
            "city": self.city,
            "policy": self.policy,
            "fleet_size": self.fleet_size,
            "demand_scale": self.demand_scale,
            "seed": self.seed,
            "scale": self.scale,
            "num_days": self.num_days,
            "slots": list(self.slots) if self.slots is not None else None,
            "mgrid_side": self.mgrid_side,
            "hgrid_budget": self.hgrid_budget,
            "guidance": self.guidance,
            "matching": self.matching,
            "batch_minutes": self.batch_minutes,
            "max_wait_minutes": self.max_wait_minutes,
            "test_days": self.test_days,
            "fleet_profile": self.fleet_profile,
        }

    def make_policy(self):
        """Fresh policy instance for one simulation run."""
        if self.policy == "polar":
            return POLARDispatcher(use_optimal_matching=self.matching == "optimal")
        return LSDispatcher()


def scenario_from_payload(payload: Dict[str, Any]) -> DispatchScenario:
    """Rebuild a :class:`DispatchScenario` from its :meth:`cache_payload`.

    The inverse of :meth:`DispatchScenario.cache_payload`, used by the
    service ingest log (:mod:`repro.service.ingest`) to make recorded runs
    self-describing: the log header embeds the payload, and replaying it
    offline rebuilds the exact scenario.  Schema mismatches fail loudly
    instead of replaying under different semantics.
    """
    schema = payload.get("schema")
    if schema != SCENARIO_SCHEMA:
        raise ValueError(
            f"unsupported scenario schema {schema!r} (expected {SCENARIO_SCHEMA})"
        )
    slots = payload.get("slots")
    return DispatchScenario(
        city=payload["city"],
        policy=payload["policy"],
        fleet_size=int(payload["fleet_size"]),
        demand_scale=float(payload["demand_scale"]),
        seed=int(payload["seed"]),
        scale=float(payload["scale"]),
        num_days=int(payload["num_days"]),
        slots=tuple(int(s) for s in slots) if slots is not None else None,
        mgrid_side=int(payload["mgrid_side"]),
        hgrid_budget=int(payload["hgrid_budget"]),
        guidance=payload["guidance"],
        matching=payload["matching"],
        batch_minutes=float(payload["batch_minutes"]),
        max_wait_minutes=float(payload["max_wait_minutes"]),
        test_days=int(payload["test_days"]),
        fleet_profile=payload["fleet_profile"],
        name=payload.get("name"),
    )


@dataclass
class ScenarioBundle:
    """Materialised inputs of one scenario, ready to simulate.

    Building the bundle (dataset generation, oracle predictions) is the
    expensive part; running the simulation on it is cheap, which is why the
    suite runner shares bundles between engines and the benchmark replays the
    same bundle under both engines.

    ``orders`` is the first test day's stream (the single-day view every
    pre-lifecycle caller used); ``orders_per_day`` holds one stream per
    replayed test day, and ``minutes_per_slot`` is the dataset's exact slot
    length, passed to the simulator so offset slot windows are sized
    correctly instead of inferred.
    """

    scenario: DispatchScenario
    orders: OrderArrays
    travel: TravelModel
    provider: Optional[PredictedDemandProvider]
    slots: Tuple[int, ...]
    orders_per_day: Tuple[OrderArrays, ...] = ()
    minutes_per_slot: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.orders_per_day:
            self.orders_per_day = (self.orders,)

    @property
    def total_order_count(self) -> int:
        """Orders across every replayed day (``len(orders)`` is day 0 only)."""
        return sum(len(day_orders) for day_orders in self.orders_per_day)

    def spawn_fleet(self) -> FleetArrays:
        """Fresh driver state drawn from the scenario's spawn stream.

        The stream label is structural (city only), not the display name, so
        equally configured scenarios draw identical fleets — the property the
        result cache keys on — and POLAR/LS compare on the same fleet.  The
        scenario's ``fleet_profile`` assigns shift windows deterministically
        by driver index, consuming no RNG draws.
        """
        rng = default_rng(
            seed_for(f"dispatch-scenario/{self.scenario.city}/fleet", self.scenario.seed)
        )
        initial = None
        if self.provider is not None and self.provider.has_slot(0, self.slots[0]):
            initial = self.provider.hgrid_demand(0, self.slots[0])
        fleet = spawn_fleet(self.scenario.fleet_size, rng, demand_grid=initial)
        online_from, online_until = shift_windows(
            self.scenario.fleet_profile, self.scenario.fleet_size
        )
        if online_from is not None:
            fleet.online_from = online_from
            fleet.online_until = online_until
        return fleet

    def simulator(
        self, engine: str = "vector", sparse: str = "auto"
    ) -> TaskAssignmentSimulator:
        """A simulator for this bundle using the requested engine.

        ``sparse`` selects the vectorized engine's matching pipeline
        (``"auto"``/``"always"``/``"never"``); every mode produces identical
        metrics, so it is an execution detail, not part of the scenario (or
        its cache key).
        """
        return TaskAssignmentSimulator(
            policy=self.scenario.make_policy(),
            travel=self.travel,
            demand=self.provider,
            batch_minutes=self.scenario.batch_minutes,
            seed=seed_for(
                f"dispatch-scenario/{self.scenario.city}/{self.scenario.policy}/sim",
                self.scenario.seed,
            ),
            engine=engine,
            sparse=sparse,
            minutes_per_slot=self.minutes_per_slot,
        )

    def run(self, engine: str = "vector", sparse: str = "auto") -> DispatchMetrics:
        """Spawn a fresh fleet and simulate once (all replayed days)."""
        fleet = self.spawn_fleet()
        multi_day = len(self.orders_per_day) > 1
        if engine == "scalar":
            # The scalar oracle consumes entity objects.
            drivers = [
                _driver_from_arrays(fleet, i) for i in range(len(fleet))
            ]
            if multi_day:
                orders = [day_orders.to_orders() for day_orders in self.orders_per_day]
            else:
                orders = self.orders.to_orders()
            return self.simulator(engine).run(orders, drivers, day=0, slots=self.slots)
        orders = list(self.orders_per_day) if multi_day else self.orders
        return self.simulator(engine, sparse=sparse).run(
            orders, fleet, day=0, slots=self.slots
        )


def _driver_from_arrays(fleet: FleetArrays, index: int):
    from repro.dispatch.entities import Driver

    return Driver(
        driver_id=int(fleet.driver_id[index]),
        x=float(fleet.x[index]),
        y=float(fleet.y[index]),
        available_at=float(fleet.available_at[index]),
        served_orders=int(fleet.served_orders[index]),
        earned_revenue=float(fleet.earned_revenue[index]),
        online_from=float(fleet.online_from[index]),
        online_until=float(fleet.online_until[index]),
    )


def build_scenario_dataset(scenario: DispatchScenario) -> EventDataset:
    """Generate the scenario's synthetic dataset (the ``dataset_signature`` key)."""
    return EventDataset.from_city(
        city_preset(scenario.city, scale=scenario.effective_scale),
        num_days=scenario.num_days,
        test_days=scenario.test_days,
        seed=scenario.dataset_seed,
    )


def build_scenario_bundle(
    scenario: DispatchScenario,
    dataset: Optional[EventDataset] = None,
    provider_cache: Optional[Dict[Tuple, PredictedDemandProvider]] = None,
) -> ScenarioBundle:
    """Generate (or reuse) the dataset and derive the scenario's inputs.

    ``dataset`` lets callers (the suite runner, the benchmark) share one
    generated dataset across scenarios with equal ``dataset_signature``;
    ``provider_cache`` likewise shares the demand-guidance provider across
    scenarios with equal ``guidance_signature``, so a suite sweeping
    policies/fleet sizes over predictor guidance trains each predictor once
    instead of once per scenario.
    """
    if dataset is None:
        dataset = build_scenario_dataset(scenario)
    elif len(dataset.split.test_days) < scenario.test_days:
        # A shorter test split would silently replay empty days (both
        # engines skip them), under-reporting the scenario; fail loudly.
        raise ValueError(
            f"dataset has {len(dataset.split.test_days)} test day(s) but the "
            f"scenario replays test_days={scenario.test_days}; build it with "
            "build_scenario_dataset(scenario)"
        )
    travel = TravelModel.for_city(dataset.city)
    test_events = dataset.test_events()
    # One order stream per replayed test day.  Day 0 keeps the historical
    # stream label so pre-lifecycle scenario results replay unchanged; later
    # days hang off their own structural labels, so extending a scenario to
    # more days never perturbs the earlier days' draws.
    orders_per_day = []
    for day in range(scenario.test_days):
        label = f"dispatch-scenario/{scenario.city}/orders"
        if day > 0:
            label = f"{label}/day{day}"
        orders_per_day.append(
            order_arrays_from_events(
                test_events,
                day=day,
                slots=scenario.slots,
                max_wait_minutes=scenario.max_wait_minutes,
                seed=seed_for(label, scenario.seed),
            )
        )
    orders = orders_per_day[0]
    if scenario.slots is not None:
        slots = tuple(int(s) for s in scenario.slots)
    else:
        slots = tuple(
            sorted({int(s) for day_orders in orders_per_day for s in day_orders.slot})
        )
    provider = None
    if scenario.guidance != "none" and any(len(o) for o in orders_per_day):
        key = scenario.guidance_signature
        if provider_cache is not None and key in provider_cache:
            provider = provider_cache[key]
        else:
            provider = _guidance_provider(dataset, scenario)
            if provider_cache is not None:
                provider_cache[key] = provider
    return ScenarioBundle(
        scenario=scenario,
        orders=orders,
        travel=travel,
        provider=provider,
        slots=slots,
        orders_per_day=tuple(orders_per_day),
        minutes_per_slot=float(dataset.events.slots.minutes_per_slot),
    )


def _guidance_predictor(scenario: DispatchScenario):
    """Instantiate the scenario's guidance predictor (oracle or registry model)."""
    if scenario.guidance == "oracle":
        return PerfectPredictor()
    return create_seeded_model(
        scenario.guidance,
        seed=seed_for(
            f"dispatch-scenario/{scenario.city}/guidance/{scenario.guidance}",
            scenario.seed,
        ),
    )


def _guidance_provider(
    dataset: EventDataset, scenario: DispatchScenario
) -> PredictedDemandProvider:
    """Demand guidance at the scenario's MGrid resolution.

    ``"oracle"`` serves the realised demand; a model name trains that
    predictor on the scenario's train/validation days and serves its
    test-day predictions — so dispatch metrics directly reflect prediction
    quality.  Training draws from a structurally labelled stream, keeping
    scenario results deterministic (and therefore cacheable byte-stably).
    """
    side = scenario.mgrid_side
    layout = GridLayout.for_ogss(side * side, scenario.hgrid_budget)
    test_days = list(dataset.split.test_days)
    targets = evaluation_targets(dataset, test_days)
    predictor = _guidance_predictor(scenario)
    predictor.fit(dataset, side)
    predictions = predictor.predict(dataset, side, targets)
    # The simulator addresses test-day slots relative to replay day 0: the
    # d-th test day becomes provider day d (a multi-day replay queries days
    # 0..test_days-1 in order).
    first = int(test_days[0])
    rebased = [(int(day) - first, slot) for (day, slot) in targets]
    return PredictedDemandProvider(layout, predictions, rebased)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario simulation."""

    scenario: DispatchScenario
    metrics: DispatchMetrics
    total_orders: int
    seconds: float
    engine: str


def run_scenario(
    scenario: DispatchScenario,
    engine: str = "vector",
    dataset: Optional[EventDataset] = None,
    sparse: str = "auto",
) -> ScenarioResult:
    """Build the scenario's inputs and simulate it once."""
    bundle = build_scenario_bundle(scenario, dataset=dataset)
    start = wall_clock()
    metrics = bundle.run(engine=engine, sparse=sparse)
    return ScenarioResult(
        scenario=scenario,
        metrics=metrics,
        total_orders=bundle.total_order_count,
        seconds=wall_clock() - start,
        engine=engine,
    )


def scenario_grid(
    cities: Sequence[str],
    policies: Sequence[str] = ("polar", "ls"),
    fleet_sizes: Sequence[int] = (200,),
    demand_scales: Sequence[float] = (1.0,),
    seeds: Sequence[int] = (7,),
    **common: Any,
) -> List[DispatchScenario]:
    """Cross-product scenario builder over the suite's five axes.

    ``common`` is forwarded to every scenario (e.g. ``scale``, ``slots``,
    ``guidance``).
    """
    if not cities:
        raise ValueError("at least one city is required")
    if not policies:
        raise ValueError("at least one policy is required")
    if not fleet_sizes or not demand_scales or not seeds:
        raise ValueError("fleet_sizes, demand_scales and seeds must be non-empty")
    return [
        DispatchScenario(
            city=city,
            policy=policy,
            fleet_size=int(fleet),
            demand_scale=float(demand),
            seed=int(seed),
            **common,
        )
        for city in cities
        for policy in policies
        for fleet in fleet_sizes
        for demand in demand_scales
        for seed in seeds
    ]


def stress_scenarios(base: DispatchScenario) -> List[DispatchScenario]:
    """Stress variants of ``base``: surge demand, small fleet, large fleet."""
    return [
        replace(base, name=f"{base.label}/surge", demand_scale=base.demand_scale * 2.0),
        replace(
            base,
            name=f"{base.label}/small-fleet",
            fleet_size=max(1, base.fleet_size // 2),
        ),
        replace(base, name=f"{base.label}/large-fleet", fleet_size=base.fleet_size * 2),
    ]


def lifecycle_scenarios(base: DispatchScenario) -> List[DispatchScenario]:
    """Fleet/order lifecycle variants of ``base``.

    The churn counterpart of :func:`stress_scenarios`:

    * ``shift-change`` — the two-shift roster (day and overnight shifts with
      an evening-rush change-over), replayed on the base demand;
    * ``overnight-skeleton`` — the skeleton roster where three quarters of
      the fleet go offline overnight;
    * ``cancel-surge`` — doubled demand under an impatient-rider patience
      (the base patience capped at 3 minutes), a high-cancellation surge day;
    * ``two-day-churn`` — the two-shift roster replayed over at least two
      consecutive test days, carrying fleet state (positions,
      ``available_at``, earnings) across midnight.

    Each variant overrides the base knob it stresses (roster, patience,
    replay length); the base's other parameters are kept, so e.g. a
    ``test_days=3`` base keeps its 3-day replay in the churn variant.
    """
    return [
        replace(base, name=f"{base.label}/shift-change", fleet_profile="two_shift"),
        replace(
            base, name=f"{base.label}/overnight-skeleton", fleet_profile="skeleton"
        ),
        replace(
            base,
            name=f"{base.label}/cancel-surge",
            demand_scale=base.demand_scale * 2.0,
            max_wait_minutes=min(base.max_wait_minutes, 3.0),
        ),
        replace(
            base,
            name=f"{base.label}/two-day-churn",
            fleet_profile="two_shift",
            test_days=max(base.test_days, 2),
        ),
    ]


def pathological_scenarios(base: DispatchScenario) -> List[DispatchScenario]:
    """Pathological stress variants of ``base``, graduated from the fuzzer.

    Each variant pins one degenerate shape the differential fuzzer
    (:mod:`repro.fuzz`) found worth keeping under permanent replay because
    the engines' edge-case handling diverged there historically:

    * ``offset-window`` — an evening slot window that starts nowhere near
      slot 0 (the ``infer_minutes_per_slot`` bug class: slot lengths must
      come from the dataset, not be inferred from arrival/slot ratios);
    * ``empty-tail`` — the base window extended with the last slots of the
      day, which at suite scales carry few or no orders, so every engine
      must advance time and reposition through order-free slots;
    * ``micro-fleet`` — a single driver serving the whole window, where one
      off-by-one in idle masking or availability carry-over flips every
      subsequent match;
    * ``one-batch-patience`` — rider patience equal to one matching batch,
      so every unmatched order sits exactly on the cancellation boundary.
    """
    window = base.slots if base.slots is not None else (16, 17)
    tail = tuple(sorted(set(window) | {46, 47}))
    return [
        replace(base, name=f"{base.label}/offset-window", slots=(40, 41, 42, 43)),
        replace(base, name=f"{base.label}/empty-tail", slots=tail),
        replace(base, name=f"{base.label}/micro-fleet", fleet_size=1),
        replace(
            base,
            name=f"{base.label}/one-batch-patience",
            max_wait_minutes=base.batch_minutes,
        ),
    ]


def lifecycle_stress_scenario(
    policy: str = "polar", matching: str = "greedy"
) -> DispatchScenario:
    """Pinned lifecycle stress point for the benchmark and the CI perf gate.

    A 2000-driver two-shift fleet replays two consecutive surge test days
    under a tight 6-minute rider patience: every batch exercises the shift
    mask, the cancellation accounting and the cross-midnight carry-over of
    driver state, at a fleet scale where the vectorized engine's advantage
    over the scalar oracle is measurable.  The perf gate asserts bit-equal
    metrics between both engines on this scenario and a speedup floor; keep
    it stable or regenerate ``benchmarks/baseline_dispatch.json``.
    """
    return DispatchScenario(
        city="nyc_like",
        policy=policy,
        fleet_size=2000,
        demand_scale=6.0,
        seed=7,
        scale=0.01,
        num_days=8,
        test_days=2,
        fleet_profile="two_shift",
        max_wait_minutes=6.0,
        matching=matching,
        name=f"stress-lifecycle2000x2day-{policy}-{matching}",
    )


def predicted_demand_scenarios(
    base: DispatchScenario,
    models: Sequence[str] = ("historical_average", "mlp", "deepst", "dmvst_net"),
    surge: float = 2.0,
) -> List[DispatchScenario]:
    """Predictor-driven surge variants of ``base``: one per demand model.

    The predictor-guided counterpart of :func:`stress_scenarios`: each
    variant replays the surge day with the dispatcher repositioning on the
    named model's *predicted* demand instead of the oracle's realised
    demand, so a whole suite run compares how prediction quality translates
    into fleet-scale dispatch metrics (Figures 6-8's "predicted vs real
    order data" axis).
    """
    if surge <= 0:
        raise ValueError("surge must be positive")
    return [
        replace(
            base,
            name=f"{base.label}/surge-{model}",
            demand_scale=base.demand_scale * surge,
            guidance=model,
        )
        for model in models
    ]


def large_fleet_scenario(
    policy: str = "polar",
    matching: str = "optimal",
    fleet_size: int = 40000,
    demand_scale: float = 12.0,
    max_wait_minutes: float = 4.0,
) -> DispatchScenario:
    """City-day stress point where dense candidate matrices blow past cache.

    40k drivers (a realistic metropolitan fleet) over a surge NYC-like day
    with a tight 4-minute pickup SLA: every batch's dense
    ``(pending x idle)`` matrix holds over a million mostly-infeasible pairs
    — the tight wait tolerance caps the feasible pickup radius at ~1.6 km —
    which is exactly the regime the sparse matching pipeline targets.
    ``benchmarks/bench_dispatch_engine.py`` times the sparse engine against
    the dense vector engine on this scenario and the CI perf gate enforces
    both the speedup floor and sparse/dense metric equality (the default
    POLAR/Hungarian configuration is verified tie-free, so the equality is
    exact; see the tie note in :mod:`repro.fuzz.runner`).
    """
    return DispatchScenario(
        city="nyc_like",
        policy=policy,
        fleet_size=fleet_size,
        demand_scale=demand_scale,
        seed=7,
        scale=0.01,
        num_days=8,
        slots=None,
        matching=matching,
        max_wait_minutes=max_wait_minutes,
        name=f"stress-largefleet{fleet_size}x{demand_scale:g}-{policy}-{matching}",
    )


def reference_scenario(policy: str = "polar", matching: str = "greedy") -> DispatchScenario:
    """The fixed benchmark scenario: 200 drivers over one full NYC-like day.

    The default uses POLAR's greedy (city-scale) matching — the configuration
    where the seed's per-object loop is most scalar-bound — and is the profile
    ``benchmarks/bench_dispatch_engine.py`` times and the CI perf gate
    compares against ``benchmarks/baseline_dispatch.json``; keep it stable,
    or regenerate the baseline when changing it.
    """
    return DispatchScenario(
        city="nyc_like",
        policy=policy,
        fleet_size=200,
        demand_scale=1.0,
        seed=7,
        scale=0.01,
        num_days=8,
        slots=None,
        matching=matching,
        name=f"reference-200x1day-{policy}-{matching}",
    )
