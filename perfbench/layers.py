"""Per-layer metrics of the traced run and the wrap targets behind them.

Each layer is measured from outside: :data:`TARGETS` names public functions
and methods of the program, and :class:`perfbench.spans.Tracer` wraps them
for the traced run only.  A target missing at some commit reports 0 calls.

Which end-to-end metric each layer metric should move, on which workload,
and where it should stay flat (0 or unchanged):

===========================================  ==================  ===================
layer metric (wrapped call)                  moves (workload)    flat on
===========================================  ==================  ===================
prediction.fit_s/fit_calls/epochs            result_s (tune)     --
  (predictor ``fit``; ``training_history``)
prediction.conv_forward_s/conv_backward_s/   result_s (tune)     ogss
  optim_step_s (Conv2D, Optimizer.step)
prediction.predict_s                         result_s (tune,     --
                                             ogss)
core.evaluations (UpperBoundEvaluator cache  result_s (tune,     --
  misses), core.expression_s                 ogss)               tune (expression)
data.alpha_s, data.counts_s (EventDataset    result_s (ogss)     tune
  .alpha, actual_counts_for_targets)
dispatch.index_builds/index_build_s,         result_s (day)      service
  candidates_s (GridBucketIndex)
dispatch.components/components_s             result_s (day)      service
  (edge_components)
dispatch.distance_s (TravelModel)            result_s (day)      --
dispatch.solves/solve_s/reposition_s         result_s (day),     --
  (policy match_pairs, reposition_arrays)    result_s (service)
dispatch.candidate_pairs/matched_pairs/      result_s (day)      --
  match_yield
dispatch.self_s (day minus child spans)      result_s (day)      --
service.submit_p50_ms/p99_ms,                http_ops            phase (c)
  http_overhead_ms (DispatchService.submit)  (service b)
service.http_ops (closed loop)               --                  --
service.http_p50_ms/p99_ms (open loop, from  p50_ms, p99_ms      --
  each order's due time to its response)     (service a)
service.stats_ms (GET /stats)                http_p99_ms         --
service.late_ms (open-loop generator)        explains http_p99   --
service.wal_append_s, wal_bytes              result_s (service   dispatch
  (IngestLogWriter.append)                   c)
service.admit_s, advance_s                   result_s (service   --
  (DispatchSession)                          c)
service.batches, batch_size                  result_s (service   --
                                             c)
service.rss_per_order_kb                     rss_mb (service c)  --
===========================================  ==================  ===================

``traced.*`` repeats the end-to-end numbers of the traced run itself, so
the tracing overhead of each workload shows against its untraced runs.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from perfbench import declared_metrics
from perfbench.spans import Target, Tracer
from perfbench.workloads import Outcome, percentile


def _after_fit(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    history = getattr(args[0], "training_history", None)
    if history is not None:
        tracer.count("prediction.epochs", history.epochs_run)


def _after_candidates(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("dispatch.candidate_pairs", len(result[0]))


def _after_components(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("dispatch.components", len(result))


def _after_match(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("dispatch.matched_pairs", len(result[0]))


def _after_single(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result >= 0:
        tracer.count("dispatch.matched_pairs")


def _side(args: tuple, kwargs: dict, result: Any) -> Any:
    return int(args[1])


def _batch_index(args: tuple, kwargs: dict, result: Any) -> Any:
    return kwargs.get("batch_index", args[2] if len(args) > 2 else 0)


def _order_id(args: tuple, kwargs: dict, result: Any) -> Any:
    return result.get("order_id") if isinstance(result, dict) else None


TARGETS: Tuple[Target, ...] = (
    # prediction
    Target("repro.prediction.base:NeuralDemandPredictor.fit", "prediction.fit", after=_after_fit),
    Target("repro.prediction.historical:HistoricalAveragePredictor.fit", "prediction.fit"),
    Target("repro.prediction.base:NeuralDemandPredictor.predict", "prediction.predict"),
    Target("repro.prediction.historical:HistoricalAveragePredictor.predict", "prediction.predict"),
    Target("repro.prediction.layers:Conv2D.forward", "prediction.conv_forward"),
    Target("repro.prediction.layers:Conv2D.backward", "prediction.conv_backward"),
    Target("repro.prediction.optim:Optimizer.step", "prediction.optim_step"),
    # core
    Target("repro.core.upper_bound:UpperBoundEvaluator.evaluate_side", "core.evaluate", rid=_side),
    Target("repro.core.expression:total_expression_error", "core.expression"),
    # data
    Target("repro.data.dataset:EventDataset.alpha", "data.alpha"),
    Target("repro.core.interfaces:actual_counts_for_targets", "data.counts"),
    # dispatch
    Target("repro.dispatch.spatial:GridBucketIndex.__init__", "dispatch.index_build"),
    Target(
        "repro.dispatch.spatial:GridBucketIndex.candidates_in_boxes",
        "dispatch.candidates",
        after=_after_candidates,
    ),
    Target(
        "repro.dispatch.matching:edge_components", "dispatch.components", after=_after_components
    ),
    Target("repro.dispatch.travel:TravelModel.distance_km", "dispatch.distance"),
    Target("repro.dispatch.travel:TravelModel.pairwise_km", "dispatch.distance"),
    Target(
        "repro.dispatch.polar:POLARDispatcher.match_pairs", "dispatch.solve", after=_after_match
    ),
    Target("repro.dispatch.ls:LSDispatcher.match_pairs", "dispatch.solve", after=_after_match),
    Target(
        "repro.dispatch.polar:POLARDispatcher.match_single_order",
        "dispatch.solve",
        after=_after_single,
    ),
    Target(
        "repro.dispatch.polar:POLARDispatcher.match_single_driver",
        "dispatch.solve",
        after=_after_single,
    ),
    Target("repro.dispatch.polar:POLARDispatcher.reposition_arrays", "dispatch.reposition"),
    Target("repro.dispatch.ls:LSDispatcher.reposition_arrays", "dispatch.reposition"),
    # service
    Target("repro.service.server:DispatchService.submit", "service.submit", rid=_order_id),
    Target("repro.service.ingest:IngestLogWriter.append", "service.wal_append", rid=_batch_index),
    Target("repro.dispatch.engine:DispatchSession.admit", "service.admit"),
    Target("repro.dispatch.engine:DispatchSession.advance", "service.advance"),
)

#: ``name -> unit`` of every per-layer metric, in report order.
PER_LAYER: Dict[str, str] = declared_metrics("per_layer")


def per_layer_metrics(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition (0 where not exercised)."""
    named = outcome.named
    marks = outcome.marks
    busy = tracer.busy
    values: Dict[str, float] = {
        "prediction.fit_s": busy("prediction.fit"),
        "prediction.fit_calls": tracer.calls("prediction.fit"),
        "prediction.epochs": tracer.counts["prediction.epochs"],
        "prediction.conv_forward_s": busy("prediction.conv_forward"),
        "prediction.conv_backward_s": busy("prediction.conv_backward"),
        "prediction.optim_step_s": busy("prediction.optim_step"),
        "prediction.predict_s": busy("prediction.predict"),
        "core.evaluations": named.get("evaluations", 0.0),
        "core.expression_s": busy("core.expression"),
        "data.alpha_s": busy("data.alpha"),
        "data.counts_s": busy("data.counts"),
        "dispatch.index_builds": tracer.calls("dispatch.index_build"),
        "dispatch.index_build_s": busy("dispatch.index_build"),
        "dispatch.candidates_s": busy("dispatch.candidates"),
        "dispatch.components": tracer.counts["dispatch.components"],
        "dispatch.components_s": busy("dispatch.components"),
        "dispatch.distance_s": busy("dispatch.distance"),
        "dispatch.solves": tracer.calls("dispatch.solve"),
        "dispatch.solve_s": busy("dispatch.solve"),
        "dispatch.reposition_s": busy("dispatch.reposition"),
        "dispatch.candidate_pairs": tracer.counts["dispatch.candidate_pairs"],
        "dispatch.matched_pairs": tracer.counts["dispatch.matched_pairs"],
        "dispatch.self_s": sum(
            tracer.self_time(i) for i, s in enumerate(tracer.spans) if s.name == "dispatch.day"
        ),
        "traced.result_s": outcome.result_s,
        "traced.ops_per_s": outcome.ops_per_s,
        "traced.p50_ms": outcome.p50_ms,
        "traced.p99_ms": outcome.p99_ms,
        "trace.spans": len(tracer.spans),
        "trace.missing_targets": len(tracer.missing),
    }
    if values["dispatch.candidate_pairs"]:
        values["dispatch.match_yield"] = (
            values["dispatch.matched_pairs"] / values["dispatch.candidate_pairs"]
        )
    if "open" in marks:
        http = {"since": marks["open"], "until": marks["closed_end"]}
        backlog = {"since": marks["backlog"], "until": marks["backlog_end"]}
        submits = [s.duration * 1000.0 for s in tracer.select("service.submit", **http)]
        values["service.submit_p50_ms"] = percentile(submits, 50)
        values["service.submit_p99_ms"] = percentile(submits, 99)
        values["service.http_overhead_ms"] = named["round_trip_p50_ms"] - percentile(submits, 50)
        values["service.wal_append_s"] = busy("service.wal_append", **backlog)
        values["service.admit_s"] = busy("service.admit", **backlog)
        values["service.advance_s"] = busy("service.advance", **backlog)
        for name in (
            "stats_ms",
            "late_ms",
            "http_ops",
            "http_p50_ms",
            "http_p99_ms",
            "drain_ops",
            "wal_bytes",
            "batches",
            "batch_size",
            "rss_per_order_kb",
        ):
            values[f"service.{name}"] = named[name]
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
