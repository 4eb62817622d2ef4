"""Cached OGSS sweep subsystem: many (city, slot, model) searches at once.

The paper tunes one grid size for one city, one prediction model and one time
slot at a time.  A production deployment needs the whole matrix — every city
preset, every serving slot, every candidate model — re-tuned as data drifts.
This package runs those searches, the dispatch scenario suites and the
predictor suites through one loop (:func:`~repro.sweep.suite.run_cached`):
one cache lookup per item in the parent process, misses grouped by the
dataset they share, each group run by a module-level function, and fresh
results written back to a persistent on-disk cache in item order, so
repeated sweeps are nearly free.

Each runner's execution is fixed to what measured fastest on a 2-vCPU host
(see each module's docstring): the OGSS sweep and the predictor suite run
their groups serially — BLAS already uses every core — and the dispatch
suite fans its groups out across processes, because its matching walk holds
the GIL.

* :class:`~repro.sweep.runner.SweepTask` — one (city, model, slot, algorithm)
  combination plus the dataset parameters that define it.
* :func:`~repro.sweep.runner.sweep_tasks` — cross-product task builder.
* :class:`~repro.sweep.runner.SweepRunner` — runs the tasks, sharing datasets
  and model-error caches between them, and persists each
  :class:`~repro.core.search.SearchResult` through
  :class:`~repro.utils.cache.ResultCache`.
* :class:`~repro.sweep.runner.SweepReport` — the collected outcomes.

Example
-------
>>> from repro.sweep import SweepRunner, sweep_tasks
>>> tasks = sweep_tasks(
...     cities=["nyc_like", "xian_like"], slots=[16, 17], scale=0.005, num_days=8
... )
>>> report = SweepRunner(tasks, cache_dir="~/.cache/gridtuner").run()
>>> {(o.task.city, o.task.slot): o.result.best_side for o in report.outcomes}

See ``examples/sweep_multi_city.py`` for a complete runnable script and the
``repro sweep`` CLI subcommand for the command-line entry point.
"""

from repro.sweep.runner import (
    SweepOutcome,
    SweepReport,
    SweepRunner,
    SweepTask,
    sweep_tasks,
)
from repro.sweep.dispatch import (
    DispatchSuiteRunner,
    ScenarioOutcome,
    SuiteReport,
)
from repro.sweep.prediction import (
    PredictionSuiteReport,
    PredictionSuiteRunner,
    PredictorOutcome,
    PredictorScenario,
    predictor_scenarios,
)

__all__ = [
    "SweepOutcome",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "sweep_tasks",
    "DispatchSuiteRunner",
    "ScenarioOutcome",
    "SuiteReport",
    "PredictionSuiteReport",
    "PredictionSuiteRunner",
    "PredictorOutcome",
    "PredictorScenario",
    "predictor_scenarios",
]
