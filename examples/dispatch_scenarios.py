"""Dispatch scenario suite: fan (city x policy x fleet x demand) simulations.

Runs a small scenario grid plus the stress and lifecycle variants of one
base scenario — driver shift change, overnight skeleton fleet, a
high-cancellation surge and a 2-day carry-over replay — through the cached
suite runner, which fans its dataset groups out across processes, then
replays it to show the cache hits.  Equivalent
CLI::

    python -m repro dispatch --preset xian --fleet-sizes 30 60 --demand-scales 1 2
    python -m repro dispatch --preset xian --fleet-sizes 60 --scenario lifecycle
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dispatch.scenarios import (
    DispatchScenario,
    lifecycle_scenarios,
    scenario_grid,
    stress_scenarios,
)
from repro.sweep.dispatch import DispatchSuiteRunner


def main() -> None:
    grid = scenario_grid(
        ["xian_like"],
        policies=("polar", "ls"),
        fleet_sizes=(30, 60),
        demand_scales=(1.0, 2.0),
        seeds=(7,),
        scale=0.004,
        num_days=8,
        slots=(16, 17),
    )
    base = DispatchScenario(
        city="xian_like", policy="polar", fleet_size=60, scale=0.004, num_days=8, slots=(16, 17)
    )
    scenarios = grid + stress_scenarios(base) + lifecycle_scenarios(base)

    with tempfile.TemporaryDirectory() as cache_dir:
        report = DispatchSuiteRunner(scenarios, cache_dir=cache_dir).run()
        print(f"{len(report.outcomes)} scenarios in {report.seconds:.2f}s\n")
        for outcome in report.outcomes:
            metrics = outcome.metrics
            print(
                f"{outcome.scenario.label:55s} "
                f"served {metrics.served_orders:4d}/{metrics.total_orders:<4d} "
                f"cancelled {metrics.cancelled_orders:3d} "
                f"revenue {metrics.total_revenue:9.1f} "
                f"({'cache' if outcome.from_cache else f'{outcome.seconds * 1e3:.0f} ms'})"
            )

        replay = DispatchSuiteRunner(scenarios, cache_dir=cache_dir).run()
        print(
            f"\nreplay: {replay.cache_hits} cache hits, "
            f"{replay.cache_misses} misses in {replay.seconds:.2f}s"
        )


if __name__ == "__main__":
    main()
