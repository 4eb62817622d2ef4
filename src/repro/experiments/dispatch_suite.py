"""Dispatch scenario-suite experiment (Figures 6-8 replay + stress cases).

Binds the :mod:`repro.sweep.dispatch` runner to the experiment configuration
profiles, the same way :mod:`repro.experiments.multi_city` binds the OGSS
sweep.  A suite run fans (city x policy x fleet size x demand scale x seed)
scenario points out across worker processes with a persistent result cache, so
``repro dispatch`` replays Figures 6-8-style dispatch comparisons and the
stress variants (surge demand, small/large fleets) byte-stably from cache.

Example
-------
>>> report = run_dispatch_suite(["nyc"], fleet_sizes=[100], profile="tiny")
>>> {o.scenario.label: o.metrics.served_orders for o in report.outcomes}
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.dispatch.scenarios import lifecycle_scenarios, pathological_scenarios, scenario_grid
from repro.experiments.config import get_profile
from repro.experiments.multi_city import resolve_city
from repro.sweep.dispatch import DispatchSuiteRunner, SuiteReport

#: Default fleet sizes swept by the suite (per 200-driver reference fleet).
DEFAULT_FLEET_SIZES = (100, 200)

#: Default demand multipliers: normal day and surge.
DEFAULT_DEMAND_SCALES = (1.0, 2.0)

#: Scenario families ``run_dispatch_suite`` can expand: the plain
#: cross-product grid, its lifecycle/churn variants (shift change,
#: overnight skeleton fleet, high-cancellation surge, 2-day carry-over), or
#: the pathological stress variants graduated from the differential fuzzer
#: (offset slot window, trailing empty slots, single-driver micro fleet,
#: one-batch rider patience).
SCENARIO_FAMILIES = ("grid", "lifecycle", "pathological")


def run_dispatch_suite(
    cities: Sequence[str] = ("nyc",),
    policies: Sequence[str] = ("polar", "ls"),
    fleet_sizes: Iterable[int] = DEFAULT_FLEET_SIZES,
    demand_scales: Iterable[float] = DEFAULT_DEMAND_SCALES,
    seeds: Iterable[int] = (7,),
    profile: str = "tiny",
    cache_dir: Optional[str] = None,
    max_workers: Optional[int] = None,
    engine: str = "vector",
    matching: str = "optimal",
    sparse: str = "auto",
    guidance: str = "oracle",
    scenario_family: str = "grid",
    test_days: int = 1,
    fleet_profile: str = "full_day",
    max_wait_minutes: float = 10.0,
) -> SuiteReport:
    """Simulate every (city, policy, fleet, demand, seed) scenario across processes.

    The dataset scale, history length and case-study slots come from the
    named experiment ``profile`` so suite results line up with the figure
    benchmarks run at the same profile.  ``guidance`` selects the
    repositioning demand source: the realised-demand oracle, ``"none"``, or
    a registered prediction model trained per scenario (see
    :class:`~repro.dispatch.scenarios.DispatchScenario`).

    ``scenario_family="lifecycle"`` expands every grid point into its
    lifecycle/churn variants (:func:`~repro.dispatch.scenarios.lifecycle_scenarios`);
    ``scenario_family="pathological"`` expands it into the fuzzer-graduated
    stress shapes (:func:`~repro.dispatch.scenarios.pathological_scenarios`).
    ``test_days``/``fleet_profile``/``max_wait_minutes`` set the multi-day
    replay length, driver shift roster and rider patience of the grid points
    themselves.
    """
    if scenario_family not in SCENARIO_FAMILIES:
        raise ValueError(f"scenario_family must be one of {SCENARIO_FAMILIES}")
    config = get_profile(profile)
    scenarios = scenario_grid(
        [resolve_city(city) for city in cities],
        policies=list(policies),
        fleet_sizes=list(fleet_sizes),
        demand_scales=list(demand_scales),
        seeds=list(seeds),
        scale=config.city_scale,
        num_days=config.num_days,
        slots=tuple(config.case_study_slots),
        hgrid_budget=config.hgrid_budget,
        matching=matching,
        guidance=guidance,
        test_days=test_days,
        fleet_profile=fleet_profile,
        max_wait_minutes=max_wait_minutes,
    )
    if scenario_family == "lifecycle":
        scenarios = [
            variant for base in scenarios for variant in lifecycle_scenarios(base)
        ]
    elif scenario_family == "pathological":
        scenarios = [
            variant for base in scenarios for variant in pathological_scenarios(base)
        ]
    return DispatchSuiteRunner(
        scenarios,
        cache_dir=cache_dir,
        max_workers=max_workers,
        engine=engine,
        sparse=sparse,
    ).run()
