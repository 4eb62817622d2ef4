"""Multi-city OGSS sweep experiment (production-scale extension).

The paper tunes each city in isolation; a deployed system re-tunes the whole
(city x model x slot) matrix regularly.  This module binds the
:mod:`repro.sweep` runner to the experiment configuration profiles so the
sweep runs at the same scales as the rest of the harness, and is what the
``repro sweep`` CLI subcommand and ``examples/sweep_multi_city.py`` call.

Example
-------
>>> report = run_city_sweep(["nyc_like", "xian_like"], profile="tiny")
>>> report.best_sides()
{('nyc_like', 'historical_average', 16): 8, ('xian_like', ...): 4}
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import get_profile
from repro.experiments.context import CITIES
from repro.sweep import SweepReport, SweepRunner, sweep_tasks

#: Short CLI-friendly aliases for the city presets.
CITY_ALIASES = {
    "nyc": "nyc_like",
    "chengdu": "chengdu_like",
    "xian": "xian_like",
}


def resolve_city(name: str) -> str:
    """Resolve a preset name or short alias (``nyc`` -> ``nyc_like``)."""
    return CITY_ALIASES.get(name, name)


def run_city_sweep(
    cities: Sequence[str] = CITIES,
    models: Sequence[str] = ("historical_average",),
    slots: Sequence[int] = (16,),
    algorithm: str = "iterative",
    profile: str = "tiny",
    cache_dir: Optional[str] = None,
) -> SweepReport:
    """Run OGSS searches for every (city, model, slot) combination.

    The dataset scale, history length, HGrid budget and seed come from the
    named experiment ``profile`` so sweep results line up with the figure
    benchmarks run at the same profile.
    """
    config = get_profile(profile)
    tasks = sweep_tasks(
        cities=[resolve_city(city) for city in cities],
        models=models,
        slots=slots,
        algorithm=algorithm,
        hgrid_budget=config.hgrid_budget,
        scale=config.city_scale,
        num_days=config.num_days,
        seed=config.seed,
    )
    return SweepRunner(tasks, cache_dir=cache_dir).run()
