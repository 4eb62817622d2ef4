"""Tests of the benchmark itself: smoke runs, span arithmetic, refactor
survival and the reference check.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import declared_metrics  # noqa: E402
from perfbench import run as bench_run  # noqa: E402
from perfbench.layers import PER_LAYER, TARGETS  # noqa: E402
from perfbench.spans import Target, Tracer  # noqa: E402

WORKLOADS = ("tune-deepst", "ogss-ha1024", "dispatch-fleet40k", "service-ref")


def _run(*args: str):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0.1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------- #
# Smoke: every workload, untraced and traced, through the same code path


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_tiny_workload_runs_and_reports_every_metric(workload, trace):
    proc, result = _run("--workload", workload, "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace == "0":
        assert list(result["metrics"]) == list(declared_metrics("end_to_end"))
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert list(result["metrics"]) == list(PER_LAYER)
        assert result["metrics"]["trace.missing_targets"]["value"] == 0
    assert "env: " in proc.stdout and '"blas_threads": 1' in proc.stdout


def test_traced_counts_repeat_exactly():
    counted = ("dispatch.index_builds", "dispatch.components", "dispatch.candidate_pairs")
    runs = [
        _run("--workload", "dispatch-fleet40k", "--seed", "4", "--trace", "1")[1]
        for _ in range(2)
    ]
    for name in counted:
        values = [r["metrics"][name]["value"] for r in runs]
        assert values[0] > 0 and values[0] == values[1], name


def test_tune_models_train_for_the_full_epoch_budget(tmp_path):
    """With a negligible learning rate validation never improves, so early
    stopping would end the fit after ``patience + 1`` epochs."""
    from perfbench import workloads as wl
    from repro.prediction.registry import model_factory

    state = wl.setup_dataset(3, wl.SIZES["tiny"]["tune-deepst"], tmp_path)
    for factory, epochs in (
        (model_factory("deepst", learning_rate=1e-15), 5),
        (wl.full_budget(model_factory("deepst", learning_rate=1e-15)), 12),
    ):
        model = factory()
        model.fit(state["dataset"], 4)
        assert model.training_history.epochs_run == epochs


# ---------------------------------------------------------------------- #
# Span arithmetic


def test_self_time_subtracts_children_on_two_threads():
    clock = FakeClock()
    tracer = Tracer(clock)
    worker_ready = threading.Event()
    main_done = threading.Event()

    with tracer.span("outer", rid="req-1") as outer:
        clock.now = 1.0
        with tracer.span("child") as child:
            clock.now = 3.0
        clock.now = 4.0
        with tracer.span("child"):
            clock.now = 4.5

        def worker() -> None:
            # The worker's stack is its own: its span is a root, not a
            # child of ``outer`` open on the main thread.
            with tracer.span("loop", rid="batch-0") as loop:
                worker_ready.set()
                main_done.wait(5)
                with tracer.span("inner"):
                    pass
            results["loop"] = loop

        results = {}
        thread = threading.Thread(target=worker)
        thread.start()
        assert worker_ready.wait(5)
        clock.now = 6.0
    main_done.set()
    thread.join(5)
    assert not thread.is_alive()

    spans = tracer.spans
    assert spans[child].parent == outer and spans[child].rid == "req-1"
    assert tracer.self_time(outer) == pytest.approx(6.0 - 2.0 - 0.5)
    assert tracer.self_time(child) == pytest.approx(2.0)
    loop = results["loop"]
    assert spans[loop].parent is None and spans[loop].rid == "batch-0"
    inner = next(i for i, s in enumerate(spans) if s.name == "inner")
    assert spans[inner].parent == loop and spans[inner].rid == "batch-0"
    assert tracer.busy("child") == pytest.approx(2.5)


def test_overlapping_children_are_not_counted_twice():
    tracer = Tracer(FakeClock())
    parent = tracer.begin("parent")
    tracer.spans[parent].start, tracer.spans[parent].end = 0.0, 10.0
    for start, end in ((1.0, 4.0), (3.0, 5.0), (8.0, 12.0)):
        index = tracer.begin("child")
        tracer.spans[index].start, tracer.spans[index].end = start, end
        tracer.spans[index].parent = parent
        tracer._stack().pop()
    assert tracer.self_time(parent) == pytest.approx(10.0 - 4.0 - 2.0)


# ---------------------------------------------------------------------- #
# Wrapping: reentrancy, rebinding and missing targets


def test_wrapper_rebinds_imported_names_and_restores_them():
    import repro.dispatch.engine as engine
    import repro.dispatch.matching as matching

    original = matching.edge_components
    tracer = Tracer()
    tracer.install([Target("repro.dispatch.matching:edge_components", "components")])
    try:
        assert engine.edge_components is matching.edge_components is not original
    finally:
        tracer.uninstall()
    assert engine.edge_components is matching.edge_components is original


def test_reentrant_calls_record_one_span():
    class Node:
        def walk(self, depth: int) -> int:
            return 0 if depth == 0 else 1 + self.walk(depth - 1)

    module = type(sys)("perfbench_fake_module")
    module.Node = Node
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.install([Target("perfbench_fake_module:Node.walk", "walk")])
        assert Node().walk(3) == 3
        tracer.uninstall()
    finally:
        del sys.modules[module.__name__]
    assert tracer.calls("walk") == 1


def test_missing_targets_report_zero_calls():
    tracer = Tracer()
    tracer.install(
        [
            Target("repro.dispatch.matching:no_such_function", "gone"),
            Target("repro.dispatch.spatial:GridBucketIndex.no_such_method", "gone"),
            Target("repro.no_such_module:Thing.method", "gone"),
        ]
    )
    tracer.uninstall()
    assert len(tracer.missing) == 3
    assert tracer.calls("gone") == 0 and tracer.busy("gone") == 0.0


def test_traced_run_survives_a_deleted_target(monkeypatch, capsys):
    """A refactor that deletes ``edge_components`` must not crash the run."""
    import repro.dispatch.matching as matching

    monkeypatch.delattr(matching, "edge_components")
    args = ["--workload", "dispatch-fleet40k", "--size", "tiny", "--seed", "3"]
    args += ["--seconds", "0.1", "--trace", "1"]
    code = bench_run.main(args)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert result["metrics"]["dispatch.components"]["value"] == 0
    assert result["metrics"]["trace.missing_targets"]["value"] == 1
    assert result["metrics"]["dispatch.index_builds"]["value"] > 0
    assert any("repro.dispatch.matching:edge_components" in line for line in lines)


def test_every_target_exists_at_this_commit():
    tracer = Tracer()
    tracer.install(TARGETS)
    tracer.uninstall()
    assert tracer.missing == []


# ---------------------------------------------------------------------- #
# Reference check


def test_doctored_reference_fails_the_command(monkeypatch, capsys, tmp_path):
    refs = tmp_path / "refs.json"
    monkeypatch.setattr(bench_run, "REFERENCES", refs)
    args = ["--workload", "ogss-ha1024", "--size", "tiny", "--seed", "5", "--seconds", "0.1"]

    def run(*extra: str):
        code = bench_run.main([*args, *extra])
        out = capsys.readouterr().out
        return code, json.loads(out.strip().splitlines()[-1]), out

    code, result, _ = run("--record-reference")
    assert code == 0 and result["failed"] == 0
    code, result, _ = run()
    assert code == 0 and result["failed"] == 0

    stored = json.loads(refs.read_text())
    entry = stored["ogss-ha1024"]["tiny"]["5"]
    side = next(iter(entry["upper_bounds"]))
    entry["upper_bounds"][side] += 1e-9
    refs.write_text(json.dumps(stored))
    code, result, out = run()
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "reference mismatch in 'upper_bounds'" in out


def test_default_seed_references_are_stored():
    stored = json.loads(bench_run.REFERENCES.read_text())
    for workload in WORKLOADS:
        assert "7" in stored[workload]["full"], workload


def test_without_the_program_the_command_fails(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    args = ["--workload", "service-ref", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
