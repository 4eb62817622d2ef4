"""The one cached-suite loop behind the sweep, dispatch and predictor runners.

Every runner in this package evaluates a batch of frozen, cache-keyable
items (OGSS tasks, dispatch scenarios, predictor scenarios) the same way:

1. **Lookup** — each item's canonical-JSON payload is looked up in the
   :class:`~repro.utils.cache.ResultCache` in the parent process.
2. **Group** — the misses are grouped by a runner-supplied key (in practice
   the synthetic dataset they share), so each group generates its dataset
   once.
3. **Run** — each group goes through the runner's module-level
   ``run_group(items)``, which yields one payload per item in order.  Groups
   run inline when there is one group or one worker; otherwise they fan out
   to a :class:`~concurrent.futures.ProcessPoolExecutor` (the function must
   be picklable, hence module-level).
4. **Write back** — fresh payloads are written to the cache by the parent,
   in item order, so the on-disk bytes do not depend on the worker count.

Fresh and cached outcomes are built by the same ``outcome(item, payload,
seconds, from_cache)`` function from the same payload, so a replay equals
the fresh run in every field but ``seconds`` and ``from_cache``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.utils.cache import ResultCache
from repro.utils.timer import wall_clock

Item = TypeVar("Item")
Outcome = TypeVar("Outcome")
Payload = Dict[str, Any]


def _timed(
    run_group: Callable[[List[Item]], Iterable[Payload]], items: List[Item]
) -> List[Tuple[Payload, float]]:
    """Run one group and time each payload (the first includes the group setup)."""
    timed: List[Tuple[Payload, float]] = []
    start = wall_clock()
    for payload in run_group(items):
        end = wall_clock()
        timed.append((payload, end - start))
        start = end
    return timed


def run_cached(
    items: Sequence[Item],
    cache: Optional[ResultCache],
    cache_key: Callable[[Item], str],
    group_key: Callable[[Item], Hashable],
    run_group: Callable[[List[Item]], Iterable[Payload]],
    outcome: Callable[[Item, Payload, float, bool], Outcome],
    max_workers: Optional[int] = 1,
) -> Tuple[Outcome, ...]:
    """Evaluate ``items`` through the cache; see the module docstring.

    ``max_workers`` caps the worker processes (``None``: the CPU count); the
    pool never has more workers than there are groups to run.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")
    outcomes: List[Optional[Outcome]] = [None] * len(items)
    keys = [cache_key(item) for item in items] if cache is not None else []
    groups: Dict[Hashable, List[int]] = {}
    for position, item in enumerate(items):
        if cache is not None:
            start = wall_clock()
            payload = cache.get(keys[position])
            if payload is not None:
                outcomes[position] = outcome(item, payload, wall_clock() - start, True)
                continue
        groups.setdefault(group_key(item), []).append(position)

    batches = [[items[position] for position in group] for group in groups.values()]
    workers = min(max_workers or os.cpu_count() or 1, len(batches))
    if workers <= 1:
        results = [_timed(run_group, batch) for batch in batches]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_timed, repeat(run_group), batches))

    fresh: Dict[int, Payload] = {}
    for group, timed in zip(groups.values(), results):
        for position, (payload, seconds) in zip(group, timed):
            outcomes[position] = outcome(items[position], payload, seconds, False)
            fresh[position] = payload
    if cache is not None:
        for position in sorted(fresh):
            cache.put(keys[position], fresh[position])
    return tuple(outcomes)
