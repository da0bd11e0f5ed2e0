"""The result cache against a dict-and-timestamps model, and under threads.

Random sequences of store / lookup / clock advance / clear must leave
the cache and the model agreeing on every return value and on the whole
LRU order after every step.
"""

import random
import threading

from hypothesis import given, settings, strategies as st

from repro.cache import FRESH, MISS, QueryResultCache

CAPACITY, TTL_MS = 3, 100


class Model:
    """What the cache should do, with nothing but a dict (insertion
    order is recency order) and timestamps."""

    def __init__(self) -> None:
        self.now = 0
        self.entries: dict[str, tuple[object, int]] = {}

    def store(self, key, value) -> int:
        self.entries.pop(key, None)
        self.entries[key] = (value, self.now)
        # Expired entries at the cold end go first; they are not victims.
        for stale in list(self.entries):
            if self.now - self.entries[stale][1] <= TTL_MS:
                break
            del self.entries[stale]
        victims = list(self.entries)[: max(len(self.entries) - CAPACITY, 0)]
        for victim in victims:
            del self.entries[victim]
        return len(victims)

    def lookup(self, key):
        if key not in self.entries:
            return None, MISS
        value, stored_at = self.entries[key]
        if self.now - stored_at <= TTL_MS:
            self.entries[key] = self.entries.pop(key)  # most recent again
            return value, FRESH
        del self.entries[key]
        return None, MISS


KEYS = ["q1", "q2", "q3", "q4"]  # one more than fits
#: Steps that land an entry inside its TTL, on its edge, or past it.
ADVANCES = [10, 60, 100, 110]


def operations(rng: random.Random) -> list[tuple]:
    """Sixty operations weighted towards a cache that is full and being
    read (hypothesis left to itself draws mostly misses on an empty one)."""
    drawn = []
    for _ in range(60):
        roll = rng.random()
        if roll < 0.35:
            drawn.append(("store", rng.choice(KEYS), rng.randrange(100)))
        elif roll < 0.70:
            drawn.append(("lookup", rng.choice(KEYS)))
        elif roll < 0.98:
            drawn.append(("advance", rng.choice(ADVANCES)))
        else:
            drawn.append(("clear",))
    return drawn


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_cache_agrees_with_the_model(seed):
    model = Model()
    cache = QueryResultCache(
        capacity=CAPACITY,
        ttl_ms=TTL_MS,
        clock=lambda: model.now,
    )
    for name, *arguments in operations(random.Random(seed)):
        if name == "advance":
            model.now += arguments[0]
        elif name == "clear":
            cache.clear()
            model.entries.clear()
        else:
            assert getattr(cache, name)(*arguments) == getattr(model, name)(*arguments)
        # Same entries in the same recency order: the next victim is the same.
        assert list(cache._entries) == list(model.entries)
        assert len(cache) == len(model.entries)


def test_eight_threads_end_within_capacity():
    cache = QueryResultCache(capacity=16, ttl_ms=5.0)
    failures: list[BaseException] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for step in range(2000):
                key = f"q{rng.randrange(64)}"
                roll = rng.random()
                if roll < 0.45:
                    cache.store(key, step)
                elif roll < 0.95:
                    value, state = cache.lookup(key)
                    assert (value is None) == (state == MISS)
                else:
                    cache.clear()
        except BaseException as error:  # surfaced on the main thread below
            failures.append(error)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert len(cache) <= 16
