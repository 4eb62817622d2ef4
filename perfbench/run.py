"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload dispatch-fleet40k --seed 3 --seconds 10 --trace 0

* ``--trace 0`` measures the end-to-end metrics with nothing installed in
  the program; ``--trace 1`` runs one repetition with the per-layer wrappers
  of :mod:`perfbench.layers` installed and reports the per-layer metrics.
* The seed makes the inputs; the same seed gives the same inputs.  For
  ``DEFAULT_SEED`` the outputs are compared with ``references.json``; for
  every seed the workload's invariants are checked.
* Human-readable lines (environment record, every metric with its unit,
  each failed check) come first; the last line of standard output is one
  JSON object with the keys ``correct``, ``attempted``, ``failed`` and
  ``metrics``.  Any failed check makes the exit code 1.
* The BLAS thread count is pinned to one before NumPy loads, so GEMM
  association, and with it the reference values, cannot drift.

Set-up runs at least five times per run and ``setup_s`` is the median;
the job repeats until ``--seconds`` of measured time have passed, each
repetition on a fresh set-up unless the workload's state is reusable
(``workloads.REUSABLE_STATE``), and each metric is the median over
repetitions.
"""

from __future__ import annotations

import os

#: Pin BLAS threads before anything imports NumPy (see module docstring).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = ROOT / "perfbench" / "references.json"
#: Working directory inside the repository (WAL files, trace dumps).
WORKDIR = ROOT / ".perfbench"

#: Throwaway set-ups before the first repetition, so ``setup_s`` is a
#: median of at least five.
EXTRA_SETUPS = 4

#: Stand-in for an infinite latency in the JSON line (JSON has no inf).
INFINITE_MS = 1e12


def _git_sha() -> Optional[str]:
    """HEAD of the checkout; ``None`` when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over ``src/``: names the program when the benchmark runs in an
    exported checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _finite(value: float) -> float:
    return value if math.isfinite(value) else INFINITE_MS


def run(args: argparse.Namespace) -> int:
    from perfbench import declared_metrics
    from perfbench import workloads as wl
    from perfbench.layers import PER_LAYER, TARGETS, per_layer_metrics
    from perfbench.spans import Tracer

    params = wl.SIZES[args.size][args.workload]
    setup, measure = {
        "tune-deepst": (wl.setup_dataset, wl.measure_tune),
        "ogss-ha1024": (wl.setup_dataset, wl.measure_ogss),
        "dispatch-fleet40k": (wl.setup_dispatch, wl.measure_dispatch),
        "service-ref": (wl.setup_service, wl.measure_service),
    }[args.workload]
    clock = time.perf_counter
    WORKDIR.mkdir(exist_ok=True)

    def timed_setup() -> Any:
        start = clock()
        state = setup(args.seed, params, WORKDIR)
        setup_times.append(clock() - start)
        return state

    setup_times: List[float] = []
    for _ in range(EXTRA_SETUPS):
        wl.close_state(timed_setup())

    reusable = args.workload in wl.REUSABLE_STATE
    tracer = Tracer(clock) if args.trace else None
    outcomes = []
    measured = 0.0
    state = None
    # Repeat while another repetition fits in --seconds (at least one).
    while not outcomes or (tracer is None and measured * (1 + 1 / len(outcomes)) <= args.seconds):
        if state is None:
            state = timed_setup()
        if tracer is not None:
            tracer.install(TARGETS)
        start = clock()
        try:
            outcomes.append(measure(state, clock, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
            if not reusable:
                wl.close_state(state)
                state = None
        measured += clock() - start
    if state is not None:
        wl.close_state(state)

    # Correctness: invariants every repetition, references for their seed.
    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    key = str(args.seed)
    failures: List[str] = []
    for outcome in outcomes:
        failures += outcome.failures
        observed = json.loads(json.dumps(outcome.reference))
        expected = references.get(args.workload, {}).get(args.size, {}).get(key)
        if expected is None:
            if args.seed == wl.DEFAULT_SEED and args.size == "full" and not args.record_reference:
                failures.append(f"no reference stored for the default seed {key}")
            continue
        for name in sorted(set(expected) | set(observed)):
            if expected.get(name) != observed.get(name):
                failures.append(
                    f"reference mismatch in {name!r}: expected {expected.get(name)!r}, "
                    f"got {observed.get(name)!r}"
                )
    if args.record_reference:
        stored = references.setdefault(args.workload, {}).setdefault(args.size, {})
        stored[key] = json.loads(json.dumps(outcomes[-1].reference))
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    attempted = sum(o.attempted for o in outcomes)
    failed_requests = sum(o.failed_requests for o in outcomes)
    failed = len(failures) + failed_requests
    end_to_end = {
        "setup_s": _median(setup_times),
        "result_s": _median([o.result_s for o in outcomes]),
        "ops_per_s": _median([o.ops_per_s for o in outcomes]),
        "p50_ms": _median([o.p50_ms for o in outcomes]),
        "p99_ms": _median([o.p99_ms for o in outcomes]),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print(
        f"workload: {args.workload} ({args.size})  seed: {args.seed}  "
        f"repetitions: {len(outcomes)}  set-ups: {len(setup_times)}  "
        f"requests: {sum(o.requests for o in outcomes)}"
    )
    print("env: " + json.dumps(environment(), sort_keys=True))
    print("  result_s per repetition: " + " ".join(f"{o.result_s:.4f}" for o in outcomes))
    print("  setup_s per set-up: " + " ".join(f"{t:.4f}" for t in setup_times))
    units = declared_metrics("end_to_end")
    for name, unit in units.items():
        print(f"  {name:<28} {end_to_end[name]:>14.4f} {unit}")
    for name in sorted(outcomes[-1].named):
        print(f"  {args.workload}.{name:<20} {_median([o.named[name] for o in outcomes]):>14.4f}")
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.4f}")
    for failure in failures:
        print(f"FAILED: {failure}")
    if failed_requests:
        print(f"FAILED: {failed_requests} requests failed or were refused")

    if tracer is not None:
        layer = per_layer_metrics(tracer, outcomes[-1])
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {layer[name]:>14.4f} {unit}")
        if tracer.missing:
            print("missing wrap targets (0 calls): " + ", ".join(tracer.missing))
        tracer.dump(WORKDIR / f"trace-{args.workload}-{args.seed}.json")
        values = layer
        units = PER_LAYER
    else:
        values = end_to_end
    metrics = {name: {"value": _finite(values[name]), "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("tune-deepst", "ogss-ha1024", "dispatch-fleet40k", "service-ref"),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="input seed (default: 7, the seed with references)"
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's outputs as the reference for its seed",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
