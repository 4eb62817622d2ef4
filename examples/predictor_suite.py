"""Predictor suite: fan (city x model x resolution) trainings, then dispatch on them.

Trains a small predictor grid through the cached suite runner,
replays it to show the cache hits, and finally runs one dispatch scenario
whose repositioning is guided by each model's *predicted* demand — the
paper's full predict-then-dispatch pipeline.  Equivalent CLI::

    python -m repro predict --preset xian --models historical_average,mlp --resolutions 4 8
    python -m repro dispatch --preset xian --guidance mlp
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dispatch.scenarios import DispatchScenario, run_scenario
from repro.sweep.prediction import PredictionSuiteRunner, predictor_scenarios


def main() -> None:
    scenarios = predictor_scenarios(
        ["xian_like"],
        models=("historical_average", "mlp", "deepst"),
        resolutions=(4, 8),
        seeds=(7,),
        scale=0.004,
        num_days=8,
        hyper=(("epochs", 5), ("max_train_samples", 128)),
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        report = PredictionSuiteRunner(scenarios, cache_dir=cache_dir).run()
        print(f"{len(report.outcomes)} predictors in {report.seconds:.2f}s\n")
        for outcome in report.outcomes:
            epochs = f"{outcome.epochs_run} epochs" if outcome.epochs_run else "closed form"
            print(
                f"{outcome.scenario.label:40s} "
                f"mae {outcome.mae:6.3f}  rmse {outcome.rmse:6.3f}  {epochs:12s} "
                f"({'cache' if outcome.from_cache else f'{outcome.seconds * 1e3:.0f} ms'})"
            )
        print(f"\nbest model per (city, n, seed): {report.best_models()}")

        replay = PredictionSuiteRunner(scenarios, cache_dir=cache_dir).run()
        print(
            f"replay: {replay.cache_hits} cache hits, "
            f"{replay.cache_misses} misses in {replay.seconds:.2f}s\n"
        )

    print("dispatching on predicted demand (fleet repositions on each model):")
    for guidance in ("none", "historical_average", "mlp", "oracle"):
        result = run_scenario(
            DispatchScenario(
                city="xian_like",
                fleet_size=40,
                scale=0.004,
                num_days=8,
                slots=(16, 17),
                guidance=guidance,
            )
        )
        metrics = result.metrics
        print(
            f"guidance={guidance:20s} served {metrics.served_orders:3d}/"
            f"{metrics.total_orders:<3d} revenue {metrics.total_revenue:8.1f}"
        )


if __name__ == "__main__":
    main()
