"""Cached OGSS sweep runner.

A sweep is a cross-product of (city preset x prediction model x time slot)
combinations, each of which runs one OGSS search (Algorithms 4/5 or brute
force) against its own :class:`~repro.core.upper_bound.UpperBoundEvaluator`.
The runner goes through the shared loop of :mod:`repro.sweep.suite` and
exploits three levels of sharing:

1. **Datasets** — tasks are grouped by their (city, scale, days, seed)
   dataset, which each group generates once.
2. **Model errors** — within a group, tasks with the same model and HGrid
   budget share one plain ``model_error_cache`` dict (see
   :attr:`repro.core.upper_bound.UpperBoundEvaluator.model_error_cache`),
   the pattern :mod:`repro.core.slotwise` uses, so a 48-slot sweep trains
   each candidate side once, not 48 times.
3. **Results** — finished searches are persisted as canonical JSON through
   :class:`~repro.utils.cache.ResultCache`; a rerun with identical parameters
   is a cache hit and does no work at all.

Groups run serially in one process: measured on a 2-vCPU host, two worker
threads were not measurably faster than one (``repro sweep`` over 3 presets
and slots 16 17: 1.28-1.40 s serial vs 1.33-1.51 s with
``historical_average``, 9.28-9.53 s vs 9.98-10.10 s with ``mlp``), and BLAS
already uses every core.

Example
-------
>>> tasks = sweep_tasks(cities=["xian_like"], slots=[16, 17], scale=0.004)
>>> report = SweepRunner(tasks, cache_dir="/tmp/gridtuner-cache").run()
>>> report.outcomes[0].result.best_side
4
>>> SweepRunner(tasks, cache_dir="/tmp/gridtuner-cache").run().cache_hits
2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.search import SearchResult, run_search
from repro.core.upper_bound import UpperBoundEvaluator
from repro.data.dataset import EventDataset
from repro.data.presets import CITY_PRESETS, city_preset
from repro.prediction.registry import available_models, model_factory
from repro.sweep.suite import run_cached
from repro.utils.cache import ResultCache
from repro.utils.timer import wall_clock
from repro.utils.validation import ensure_perfect_square

#: Bump when the serialised payload layout changes — or when result semantics
#: change — so stale entries miss.  2: the neural trainer now restores
#: best-validation weights, splits its RNG streams and defaults to larger
#: training caps, so model errors cached under schema 1 are not comparable.
_CACHE_SCHEMA = 2


@dataclass(frozen=True)
class SweepTask:
    """One OGSS search of the sweep: a (city, model, slot) combination.

    The dataset parameters (``scale``, ``num_days``, ``seed``) are part of the
    task because they determine the synthetic city and therefore the search
    result; two tasks with equal fields are interchangeable, which is exactly
    the property the result cache keys on.
    """

    city: str
    model: str = "historical_average"
    slot: int = 16
    algorithm: str = "iterative"
    hgrid_budget: int = 256
    scale: float = 0.01
    num_days: int = 10
    seed: int = 7
    min_side: int = 2
    search_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.city not in CITY_PRESETS:
            raise ValueError(
                f"unknown city preset {self.city!r}; available: {sorted(CITY_PRESETS)}"
            )
        if self.model not in available_models():
            raise ValueError(f"unknown prediction model {self.model!r}")
        ensure_perfect_square(self.hgrid_budget, "hgrid_budget")

    @property
    def dataset_signature(self) -> Tuple[str, float, int, int]:
        """Key identifying the synthetic dataset this task runs against."""
        return (self.city, self.scale, self.num_days, self.seed)

    def cache_payload(self) -> Dict[str, Any]:
        """JSON-serialisable parameter mapping that keys the result cache."""
        return {
            "schema": _CACHE_SCHEMA,
            "city": self.city,
            "model": self.model,
            "slot": self.slot,
            "algorithm": self.algorithm,
            "hgrid_budget": self.hgrid_budget,
            "scale": self.scale,
            "num_days": self.num_days,
            "seed": self.seed,
            "min_side": self.min_side,
            "search_kwargs": sorted(
                (str(name), value) for name, value in self.search_kwargs
            ),
        }


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one sweep task, fresh or replayed from the cache."""

    task: SweepTask
    result: SearchResult
    model_error: float
    expression_error: float
    mae: float
    seconds: float
    from_cache: bool

    @property
    def upper_bound(self) -> float:
        """``e(sqrt(n))`` at the selected side."""
        return self.model_error + self.expression_error


@dataclass(frozen=True)
class SweepReport:
    """All outcomes of one sweep run plus aggregate bookkeeping."""

    outcomes: Tuple[SweepOutcome, ...]
    seconds: float

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    @property
    def cache_misses(self) -> int:
        return len(self.outcomes) - self.cache_hits

    def best_sides(self) -> Dict[Tuple[str, str, int], int]:
        """Mapping ``(city, model, slot) -> selected sqrt(n)``."""
        return {
            (o.task.city, o.task.model, o.task.slot): o.result.best_side
            for o in self.outcomes
        }


def sweep_tasks(
    cities: Sequence[str],
    models: Sequence[str] = ("historical_average",),
    slots: Sequence[int] = (16,),
    **common: Any,
) -> List[SweepTask]:
    """Cross-product task builder: one task per (city, model, slot).

    ``common`` is forwarded to every :class:`SweepTask` (e.g. ``scale``,
    ``num_days``, ``hgrid_budget``, ``algorithm``).

    Example
    -------
    >>> tasks = sweep_tasks(["nyc_like", "xian_like"], slots=[16, 17])
    >>> len(tasks)
    4
    """
    if not cities:
        raise ValueError("at least one city is required")
    if not models:
        raise ValueError("at least one model is required")
    if not slots:
        raise ValueError("at least one slot is required")
    return [
        SweepTask(city=city, model=model, slot=int(slot), **common)
        for city in cities
        for model in models
        for slot in slots
    ]


def _search_group(tasks: Sequence[SweepTask]) -> Iterator[Dict[str, Any]]:
    """Run the searches of tasks sharing one dataset; yield their payloads.

    Tasks with the same model and HGrid budget share a model-error cache:
    the model error does not depend on the alpha slot, so each side is
    trained once per (model, budget), whatever the number of slots.
    """
    first = tasks[0]
    dataset = EventDataset.from_city(
        city_preset(first.city, scale=first.scale),
        num_days=first.num_days,
        seed=first.seed,
    )
    model_error_caches: Dict[Tuple[str, int], Dict[int, Tuple[float, float]]] = {}
    for task in tasks:
        evaluator = UpperBoundEvaluator(
            dataset=dataset,
            model_factory=model_factory(task.model),
            hgrid_budget=task.hgrid_budget,
            alpha_slot=task.slot,
            model_error_cache=model_error_caches.setdefault((task.model, task.hgrid_budget), {}),
        )
        result = run_search(
            task.algorithm,
            evaluator,
            task.hgrid_budget,
            min_side=task.min_side,
            **dict(task.search_kwargs),
        )
        best = evaluator.evaluate_side(result.best_side)
        yield {
            "algorithm": result.algorithm,
            "best_side": result.best_side,
            "best_value": result.best_value,
            "evaluations": result.evaluations,
            "probes": {str(side): value for side, value in sorted(result.probes.items())},
            "model_error": best.model_error,
            "expression_error": best.expression_error,
            "mae": best.mae,
        }


def _outcome(
    task: SweepTask, payload: Dict[str, Any], seconds: float, from_cache: bool
) -> SweepOutcome:
    result = SearchResult(
        algorithm=payload["algorithm"],
        best_side=int(payload["best_side"]),
        best_value=float(payload["best_value"]),
        evaluations=int(payload["evaluations"]),
        probes={int(side): float(value) for side, value in payload["probes"].items()},
    )
    return SweepOutcome(
        task=task,
        result=result,
        model_error=float(payload["model_error"]),
        expression_error=float(payload["expression_error"]),
        mae=float(payload["mae"]),
        seconds=seconds,
        from_cache=from_cache,
    )


class SweepRunner:
    """Run a batch of :class:`SweepTask` with persistent caching.

    Parameters
    ----------
    tasks:
        The sweep combinations to evaluate.
    cache_dir:
        Directory for the persistent :class:`~repro.utils.cache.ResultCache`;
        ``None`` disables on-disk caching (everything is recomputed).
    """

    def __init__(self, tasks: Iterable[SweepTask], cache_dir: Optional[str] = None) -> None:
        self.tasks = list(tasks)
        if not self.tasks:
            raise ValueError("at least one sweep task is required")
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None

    def run(self) -> SweepReport:
        """Execute every task and return the collected :class:`SweepReport`."""
        start = wall_clock()
        outcomes = run_cached(
            self.tasks,
            self.cache,
            cache_key=lambda task: ResultCache.key_for(task.cache_payload()),
            group_key=lambda task: task.dataset_signature,
            run_group=_search_group,
            outcome=_outcome,
        )
        return SweepReport(outcomes=outcomes, seconds=wall_clock() - start)
