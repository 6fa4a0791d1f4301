"""``BoundedLRU`` against a plain list model.

The model is a list of ``[key, value, cost]``, least recent first, plus
the three counters and the values evicted so far.  Each machine picks
its bounds first — entries, cost, both or neither — so the replay
cache's pairing of an entry bound with a cost bound is one of the cases
every run explores.  Every value put is a fresh object, so "the
callback runs exactly once per evicted value" is a comparison of two
lists.
"""

import itertools
import random
import sys
import threading

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.lru import BoundedLRU

KEYS = st.sampled_from("abcdef")
COSTS = st.integers(0, 12)


def held(lru):
    """``[(key, value, cost)]`` as the map holds them, least recent first."""
    return [(key, value, cost) for key, (value, cost) in lru._entries.items()]


class LRUMachine(RuleBasedStateMachine):
    @initialize(
        max_entries=st.none() | st.integers(0, 5),
        max_cost=st.none() | st.integers(0, 20),
    )
    def build(self, max_entries, max_cost):
        self.max_entries, self.max_cost = max_entries, max_cost
        self.evicted = []
        self.lru = BoundedLRU(
            max_entries=max_entries,
            max_cost=max_cost,
            on_evict=lambda key, value: self.evicted.append((key, value)),
        )
        self.model = []  # [key, value, cost], least recent first
        self.expect_evicted = []
        self.hits = self.misses = 0
        self.fresh = itertools.count()

    def _find(self, key):
        return next((i for i, e in enumerate(self.model) if e[0] == key), None)

    def _over(self):
        cost = sum(e[2] for e in self.model)
        return (
            self.max_entries is not None and len(self.model) > self.max_entries
        ) or (self.max_cost is not None and cost > self.max_cost)

    @rule(key=KEYS, cost=COSTS)
    def put(self, key, cost):
        value = ("v", next(self.fresh))
        i = self._find(key)
        if i is not None:
            del self.model[i]
        fits = self.max_cost is None or cost <= self.max_cost
        if fits:
            self.model.append([key, value, cost])
            while self._over():
                gone, held, _ = self.model.pop(0)
                self.expect_evicted.append((gone, held))
        self.lru.put(key, value, cost)
        # an oversize value is never kept, and the older one is gone too
        assert (key in self.lru) == (self._find(key) is not None)
        if not fits:
            assert key not in self.lru
        if self.max_cost is not None:
            assert self.lru.cost <= self.max_cost
        if self.max_entries is not None:
            assert len(self.lru) <= self.max_entries

    @rule(key=KEYS)
    def get(self, key):
        i = self._find(key)
        if i is None:
            self.misses += 1
            assert self.lru.get(key) is None
        else:
            self.hits += 1
            entry = self.model.pop(i)
            self.model.append(entry)
            assert self.lru.get(key) is entry[1]

    @rule(key=KEYS)
    def contains(self, key):
        before = (self.lru.hits, self.lru.misses, held(self.lru))
        assert (key in self.lru) == (self._find(key) is not None)
        assert (self.lru.hits, self.lru.misses, held(self.lru)) == before

    @rule(key=KEYS)
    def pop(self, key):
        i = self._find(key)
        want = None if i is None else self.model.pop(i)[1]
        assert self.lru.pop(key) is want

    @rule()
    def clear(self):
        self.model.clear()
        self.lru.clear()

    @invariant()
    def matches_the_model(self):
        assert held(self.lru) == [tuple(e) for e in self.model]
        assert len(self.lru) == len(self.model)
        assert self.lru.cost == sum(e[2] for e in self.model)
        assert (self.lru.hits, self.lru.misses) == (self.hits, self.misses)
        assert self.lru.evictions == len(self.expect_evicted)
        assert self.evicted == self.expect_evicted


# Bounded so tier-1 grows by about a second, and derandomized so the
# suite runs the same sequences every time; widen both to go hunting.
TestLRUMachine = LRUMachine.TestCase
TestLRUMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
    derandomize=True, suppress_health_check=list(HealthCheck),
)


def test_the_callback_runs_outside_the_lock():
    seen = []
    lru = BoundedLRU(max_entries=1)
    # the lock is not reentrant: a callback run under it would deadlock
    lru.on_evict = lambda key, value: seen.append((key, key in lru))
    lru.put("a", 1)
    lru.put("b", 2)
    assert seen == [("a", False)]


def test_an_entry_charged_on_completion_keeps_both_bounds():
    """The replay cache's use: a request's entry costs nothing while in
    flight and its response's length once it completes."""
    lru = BoundedLRU(max_entries=3, max_cost=10)
    for key in "abc":
        lru.put(key, key)  # in flight: three entries, no cost
    lru.put("a", "a", 6)  # completes: charged and now the most recent
    lru.put("b", "b", 6)  # completes: over the cost bound, "c" then "a" go
    assert [k for k, _, _ in held(lru)] == ["b"] and lru.cost == 6
    assert lru.evictions == 2
    lru.put("d", "d")
    lru.put("e", "e")
    lru.put("f", "f")  # over the entry bound with cost to spare
    assert [k for k, _, _ in held(lru)] == ["d", "e", "f"] and lru.cost == 0


def test_threads_lose_no_update():
    """Eight threads put, get and pop over a few keys with a short
    switch interval; a lost update shows as a cost that is not the sum
    of what is held, or a count that does not add up."""
    evicted = []
    lru = BoundedLRU(
        max_entries=6, max_cost=40,
        on_evict=lambda key, value: evicted.append(value),
    )
    gets = [0] * 8

    def work(seed):
        rng = random.Random(seed)
        for _ in range(2000):
            key, op = rng.randrange(10), rng.random()
            if op < 0.5:
                cost = rng.randrange(12)
                lru.put(key, (key, cost), cost)  # a value records its cost
            elif op < 0.9:
                gets[seed] += 1
                lru.get(key)
            else:
                lru.pop(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    entries = held(lru)
    assert lru.cost == sum(value[1] for _, value, _ in entries) <= 40
    assert lru.cost == sum(cost for _, _, cost in entries)
    assert len(entries) == len(lru) <= 6
    assert lru.hits + lru.misses == sum(gets)
    assert lru.evictions == len(evicted)
