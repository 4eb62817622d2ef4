"""Upper-bound evaluation of the real error (Algorithm 3).

``UpperBound(n, N, X, Model)`` trains the prediction model at MGrid resolution
``sqrt(n)``, estimates the total model error as ``n * MAE`` (Equation 20),
computes the analytic total expression error from the HGrid alphas
(Algorithm 2 / its equivalents in :mod:`repro.core.expression`) and returns
their sum ``e(sqrt(n))``.  :class:`UpperBoundEvaluator` wraps this with a cache
so the search algorithms never retrain a model for the same ``n`` twice, and
keeps the fitted model of its best side so far so the tuner's real-error
refit at the selected side does not train it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, MutableMapping, Optional, Sequence, Tuple

from repro.core.expression import ExpressionMethod, total_expression_error
from repro.core.grid import GridLayout
from repro.core.interfaces import (
    DaySlot,
    DemandPredictor,
    actual_counts_for_targets,
    evaluation_targets,
)
from repro.core.model_error import mean_absolute_error, total_model_error_from_mae
from repro.data.dataset import EventDataset
from repro.utils.timer import Timer
from repro.utils.validation import ensure_perfect_square


@dataclass(frozen=True)
class UpperBoundResult:
    """Breakdown of ``e(sqrt(n))`` for one candidate ``n``."""

    num_mgrids: int
    hgrids_per_mgrid: int
    model_error: float
    expression_error: float
    mae: float

    @property
    def mgrid_side(self) -> int:
        """``sqrt(n)``."""
        return int(round(self.num_mgrids**0.5))

    @property
    def total(self) -> float:
        """``e(sqrt(n))`` — the upper bound on the total real error."""
        return self.model_error + self.expression_error


@dataclass
class UpperBoundEvaluator:
    """Cached evaluator of the real-error upper bound over candidate grid sizes.

    Parameters
    ----------
    dataset:
        The event dataset (train/val/test split included).
    model_factory:
        Callable returning a *fresh* predictor; called once per evaluated ``n``.
    hgrid_budget:
        ``N`` — the total number of HGrids (perfect square).
    alpha_slot:
        Time slot whose per-HGrid mean is used for the expression error
        (the paper defaults to 08:00-08:30).
    evaluation_days:
        Days whose slots are used to measure the model MAE; defaults to the
        dataset's validation + test days.
    expression_method, expression_k:
        Passed through to :func:`repro.core.expression.total_expression_error`.
    model_error_cache:
        Optional mapping ``mgrid_side -> (model_error, mae)`` shared between
        evaluators.  The model error depends only on the dataset, the model
        and the side — not on ``alpha_slot`` — so evaluators that differ only
        in their alpha slot (e.g. the per-slot tuners in
        :mod:`repro.core.slotwise`) can share one cache and train each model
        once instead of once per slot.  Requires a deterministic
        ``model_factory``.

    Retained model
    --------------
    Of all the models it trains, the evaluator keeps exactly one: the model
    of its best side so far (lowest ``total``; an earlier side wins ties),
    available through :meth:`fitted_model`.  Holding every candidate's model
    would cost memory (an MLP at side 64 carries tens of MB of weights plus
    Adam moments).  A side whose model error came from
    ``model_error_cache`` has no model here, so when it becomes the best
    side nothing is retained.
    """

    dataset: EventDataset
    model_factory: Callable[[], DemandPredictor]
    hgrid_budget: int
    alpha_slot: int = 16
    evaluation_days: Optional[Sequence[int]] = None
    expression_method: ExpressionMethod = "auto"
    expression_k: Optional[int] = None
    model_error_cache: Optional[MutableMapping[int, Tuple[float, float]]] = None
    timer: Timer = field(default_factory=Timer)

    def __post_init__(self) -> None:
        ensure_perfect_square(self.hgrid_budget, "hgrid_budget")
        if not 0 <= self.alpha_slot < self.dataset.slots_per_day:
            raise ValueError(
                f"alpha_slot must be in [0, {self.dataset.slots_per_day}), "
                f"got {self.alpha_slot}"
            )
        if self.evaluation_days is None:
            self.evaluation_days = tuple(self.dataset.split.val_days) + tuple(
                self.dataset.split.test_days
            )
        self._cache: Dict[int, UpperBoundResult] = {}
        self._evaluation_count = 0
        self._best_side: Optional[int] = None
        self._best_total = math.inf
        self._best_model: Optional[DemandPredictor] = None

    @property
    def evaluations(self) -> int:
        """Number of distinct ``n`` values evaluated so far (cache misses)."""
        return self._evaluation_count

    def cached_results(self) -> Dict[int, UpperBoundResult]:
        """Mapping ``sqrt(n) -> UpperBoundResult`` of everything evaluated so far."""
        return dict(self._cache)

    def fitted_model(self, mgrid_side: int) -> Optional[DemandPredictor]:
        """The retained fitted model at ``mgrid_side``, or ``None``.

        Only the best side so far has a retained model (see the class
        docstring); it was trained by this evaluator's ``model_factory`` on
        its ``dataset``, exactly as a fresh refit at that side would be.
        """
        if mgrid_side == self._best_side:
            return self._best_model
        return None

    def evaluate_side(self, mgrid_side: int) -> UpperBoundResult:
        """Evaluate ``e(side)`` for ``n = side**2`` (cached)."""
        mgrid_side = int(mgrid_side)
        if mgrid_side <= 0:
            raise ValueError(f"mgrid_side must be positive, got {mgrid_side}")
        if mgrid_side in self._cache:
            return self._cache[mgrid_side]
        with self.timer.measure("upper_bound_evaluation"):
            result = self._evaluate(mgrid_side)
        self._cache[mgrid_side] = result
        self._evaluation_count += 1
        return result

    def evaluate(self, num_mgrids: int) -> UpperBoundResult:
        """Evaluate ``e(sqrt(n))`` for a perfect-square ``n`` (cached)."""
        n = ensure_perfect_square(num_mgrids, "num_mgrids")
        return self.evaluate_side(int(round(n**0.5)))

    def __call__(self, mgrid_side: int) -> float:
        """Shorthand used by the search algorithms: ``e(side)``."""
        return self.evaluate_side(mgrid_side).total

    # ------------------------------------------------------------------ #

    def _evaluate(self, mgrid_side: int) -> UpperBoundResult:
        layout = GridLayout.for_ogss(mgrid_side * mgrid_side, self.hgrid_budget)
        model_error, mae, model = self._model_error(mgrid_side)
        expression = self._expression_error(layout)
        result = UpperBoundResult(
            num_mgrids=layout.num_mgrids,
            hgrids_per_mgrid=layout.hgrids_per_mgrid,
            model_error=model_error,
            expression_error=expression,
            mae=mae,
        )
        if result.total < self._best_total:
            # Replacing the previous best releases its model.
            self._best_side, self._best_total, self._best_model = mgrid_side, result.total, model
        return result

    def _model_error(self, mgrid_side: int) -> Tuple[float, float, Optional[DemandPredictor]]:
        """Cached wrapper around :meth:`_train_and_measure`.

        Returns ``(model_error, mae, model)``; ``model`` is ``None`` when
        the entry came from ``model_error_cache``.
        """
        cache = self.model_error_cache
        if cache is None:
            return self._train_and_measure(mgrid_side)
        if mgrid_side in cache:
            model_error, mae = cache[mgrid_side]
            return model_error, mae, None
        model_error, mae, model = self._train_and_measure(mgrid_side)
        cache[mgrid_side] = (model_error, mae)
        return model_error, mae, model

    def _train_and_measure(self, mgrid_side: int) -> Tuple[float, float, DemandPredictor]:
        """Train a fresh model at this resolution and estimate ``n * MAE``."""
        model = self.model_factory()
        with self.timer.measure("model_training"):
            model.fit(self.dataset, mgrid_side)
        targets: list[DaySlot] = evaluation_targets(self.dataset, self.evaluation_days)
        predictions = model.predict(self.dataset, mgrid_side, targets)
        actual = actual_counts_for_targets(self.dataset, mgrid_side, targets)
        mae = mean_absolute_error(predictions, actual)
        return total_model_error_from_mae(mae, mgrid_side * mgrid_side), mae, model

    def _expression_error(self, layout: GridLayout) -> float:
        """Analytic total expression error for this layout."""
        alpha_fine = self.dataset.alpha(layout.fine_resolution, slot=self.alpha_slot)
        with self.timer.measure("expression_error"):
            return total_expression_error(
                alpha_fine,
                layout,
                k=self.expression_k,
                method=self.expression_method,
            )
