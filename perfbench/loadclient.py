"""HTTP load client of the service-ref workload, run in its own process.

The benchmark starts this script once per HTTP phase and waits for it:

* ``open``: sends the orders on a fixed schedule (``rate`` per second), each
  timed from its **due** time to its response, with a ``GET /stats`` after
  every 10th order so reads sit beside writes;
* ``closed``: one client sends the orders back to back.

It uses only the standard library and one new connection per request, so
the offered traffic cannot change when the program changes, and it runs in
its own interpreter, so its timing never waits on the service's lock.

Input on stdin: one JSON line ``{"mode", "port", "rate"}``, then one order
body per line.  Output on stdout: one JSON object of timings (ms) and
counts.  A failed or refused request gets an infinite latency.
"""

from __future__ import annotations

import http.client
import json
import math
import sys
import time
from typing import Dict, List, Optional

STATS_EVERY = 10


def request(port: int, method: str, path: str, body: Optional[bytes] = None) -> int:
    """Send one request on a new connection; the status, or 0 if it failed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        response.read()
        return response.status
    except (OSError, http.client.HTTPException):
        return 0
    finally:
        conn.close()


def open_loop(port: int, bodies: List[bytes], rate: float) -> Dict[str, object]:
    latency: List[float] = []
    late: List[float] = []
    round_trip: List[float] = []
    stats: List[float] = []
    failed = 0
    origin = time.perf_counter() + 0.01
    for i, body in enumerate(bodies):
        due = origin + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        ok = request(port, "POST", "/orders", body) == 200
        done = time.perf_counter()
        late.append((sent - due) * 1000.0)
        round_trip.append((done - sent) * 1000.0)
        latency.append((done - due) * 1000.0 if ok else math.inf)
        failed += not ok
        if i % STATS_EVERY == STATS_EVERY - 1:
            start = time.perf_counter()
            failed += request(port, "GET", "/stats") != 200
            stats.append((time.perf_counter() - start) * 1000.0)
    return {
        "latency_ms": latency,
        "late_ms": late,
        "round_trip_ms": round_trip,
        "stats_ms": stats,
        "requests": len(bodies) + len(stats),
        "failed": failed,
    }


def closed_loop(port: int, bodies: List[bytes]) -> Dict[str, object]:
    round_trip: List[float] = []
    failed = 0
    start = time.perf_counter()
    for body in bodies:
        sent = time.perf_counter()
        failed += request(port, "POST", "/orders", body) != 200
        round_trip.append((time.perf_counter() - sent) * 1000.0)
    return {
        "elapsed_s": time.perf_counter() - start,
        "round_trip_ms": round_trip,
        "requests": len(bodies),
        "failed": failed,
    }


def main() -> int:
    job = json.loads(sys.stdin.readline())
    bodies = [line.encode("utf-8") for line in sys.stdin.read().splitlines() if line]
    if job["mode"] == "open":
        result = open_loop(job["port"], bodies, job["rate"])
    else:
        result = closed_loop(job["port"], bodies)
    # JSON has no infinity; a failed request is reported as null.
    if "latency_ms" in result:
        result["latency_ms"] = [v if math.isfinite(v) else None for v in result["latency_ms"]]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
