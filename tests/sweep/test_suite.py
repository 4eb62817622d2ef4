"""Tests for the shared cached-suite loop of repro.sweep."""

import pytest

from repro.sweep.suite import run_cached


class RecordingCache:
    """In-memory stand-in for ResultCache that records the write order."""

    def __init__(self, entries=None):
        self.entries = dict(entries or {})
        self.puts = []

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, value):
        self.puts.append(key)
        self.entries[key] = value


def run(items, cache=None, max_workers=1):
    groups = []

    def run_group(batch):
        groups.append(list(batch))
        for item in batch:
            yield {"value": item.upper()}

    outcomes = run_cached(
        items,
        cache,
        cache_key=lambda item: f"key-{item}",
        group_key=lambda item: item[0],
        run_group=run_group,
        outcome=lambda item, payload, seconds, from_cache: (
            item,
            payload["value"],
            from_cache,
        ),
        max_workers=max_workers,
    )
    return outcomes, groups


def test_misses_are_grouped_and_outcomes_keep_item_order():
    outcomes, groups = run(["a1", "b1", "a2", "b2"])
    assert groups == [["a1", "a2"], ["b1", "b2"]]
    assert outcomes == (
        ("a1", "A1", False),
        ("b1", "B1", False),
        ("a2", "A2", False),
        ("b2", "B2", False),
    )


def test_hits_skip_their_group_and_writes_follow_item_order():
    cache = RecordingCache({"key-b2": {"value": "cached"}})
    outcomes, groups = run(["a1", "b1", "b2", "a2"], cache=cache)
    assert groups == [["a1", "a2"], ["b1"]]
    assert outcomes[2] == ("b2", "cached", True)
    assert cache.puts == ["key-a1", "key-b1", "key-a2"]
    replay, groups = run(["a1", "b1", "b2", "a2"], cache=cache)
    assert groups == []
    assert [from_cache for _, _, from_cache in replay] == [True] * 4


@pytest.mark.parametrize("workers", [0, -2])
def test_rejects_worker_counts_below_one(workers):
    with pytest.raises(ValueError, match="max_workers must be at least 1"):
        run(["a1"], max_workers=workers)
