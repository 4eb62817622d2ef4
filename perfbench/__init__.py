"""Benchmark of the repository; run it with ``python3 perfbench/run.py``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``kind`` metrics of BENCHMARK.json, in order.

    ``kind`` is ``"end_to_end"`` or ``"per_layer"``; BENCHMARK.json is the
    one place the metric names and units are declared.
    """
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}
