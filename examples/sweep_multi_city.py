#!/usr/bin/env python3
"""Multi-city sweep: tune every (city, slot) combination.

The script runs OGSS searches over the three city presets and two morning
peak slots using the :mod:`repro.sweep` runner, persists the results in an
on-disk cache, then reruns the sweep to show that the second pass is replayed
from the cache without recomputation.

Run with:

    python examples/sweep_multi_city.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.reporting import format_table
from repro.sweep import SweepRunner, sweep_tasks


def print_report(report) -> None:
    rows = [
        [
            o.task.city,
            o.task.slot,
            f"{o.result.best_side}x{o.result.best_side}",
            round(o.upper_bound, 1),
            o.result.evaluations,
            round(o.seconds, 3),
            "hit" if o.from_cache else "miss",
        ]
        for o in report.outcomes
    ]
    print(
        format_table(
            ["city", "slot", "grid", "upper bound", "evals", "seconds", "cache"], rows
        )
    )
    print(
        f"  {len(report.outcomes)} searches in {report.seconds:.2f}s "
        f"({report.cache_hits} cache hits, {report.cache_misses} misses)"
    )


def main() -> None:
    tasks = sweep_tasks(
        cities=["nyc_like", "chengdu_like", "xian_like"],
        models=["historical_average"],
        slots=[16, 17],
        algorithm="iterative",
        hgrid_budget=256,
        scale=0.005,
        num_days=10,
        seed=7,
    )
    with tempfile.TemporaryDirectory(prefix="gridtuner-sweep-") as cache_dir:
        print(f"Sweeping {len(tasks)} (city, slot) combinations...")
        report = SweepRunner(tasks, cache_dir=cache_dir).run()
        print_report(report)

        print("\nRerunning the identical sweep (replayed from the cache)...")
        print_report(SweepRunner(tasks, cache_dir=cache_dir).run())


if __name__ == "__main__":
    main()
