"""Predictor-sweep experiment (Figure 4/5-style model comparisons at scale).

Binds the :mod:`repro.sweep.prediction` runner to the experiment
configuration profiles, the same way :mod:`repro.experiments.dispatch_suite`
binds the dispatch suite.  A suite run fans (city x model x resolution x
seed) predictor trainings through one serial loop with a
persistent result cache, so ``repro predict`` replays model-accuracy
comparisons byte-stably from cache.

Example
-------
>>> report = run_prediction_suite(["nyc"], models=["mlp"], profile="tiny")
>>> {o.scenario.label: o.mae for o in report.outcomes}
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.experiments.config import get_profile
from repro.experiments.multi_city import resolve_city
from repro.sweep.prediction import (
    PredictionSuiteReport,
    PredictionSuiteRunner,
    predictor_scenarios,
)

#: Default models swept by the suite: the paper's three neural predictors
#: plus the historical-average baseline.
DEFAULT_MODELS = ("historical_average", "mlp")

#: Default MGrid resolutions the predictors are trained at.
DEFAULT_RESOLUTIONS = (8,)


def run_prediction_suite(
    cities: Sequence[str] = ("nyc",),
    models: Sequence[str] = DEFAULT_MODELS,
    resolutions: Iterable[int] = DEFAULT_RESOLUTIONS,
    seeds: Iterable[int] = (7,),
    profile: str = "tiny",
    cache_dir: Optional[str] = None,
    hyper: Sequence[tuple] = (),
) -> PredictionSuiteReport:
    """Train/evaluate every (city, model, resolution, seed) scenario.

    The dataset scale and history length come from the named experiment
    ``profile`` so suite results line up with the figure benchmarks run at
    the same profile; ``hyper`` tuples are forwarded to every scenario (and
    applied only to models whose factory accepts them).
    """
    config = get_profile(profile)
    scenarios = predictor_scenarios(
        cities=[resolve_city(city) for city in cities],
        models=models,
        resolutions=resolutions,
        seeds=seeds,
        scale=config.city_scale,
        num_days=config.num_days,
        hyper=tuple(hyper),
    )
    return PredictionSuiteRunner(scenarios, cache_dir=cache_dir).run()
