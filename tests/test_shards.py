"""Unit tests for the shared shard machinery (repro.core.shards).

The backoff bounds here are the satellite contract: every jittered
delay drawn with a seeded RNG must stay inside
``[base, min(cap, base * 2**(attempt-1))]``, and consecutive retries
must not collapse onto a fixed cadence.
"""

import random
from collections import Counter

import pytest

from repro.core.shards import BackoffPolicy, RetryQueue, Shard
from repro.errors import ConfigurationError


def _shard(index: int, lb: float = 1.0) -> Shard:
    return Shard(index, ("state", index), lb)


# ---------------------------------------------------------------------------
# BackoffPolicy
# ---------------------------------------------------------------------------


class TestBackoffPolicy:
    def test_envelope_is_capped_exponential(self):
        policy = BackoffPolicy(base=0.1, cap=1.0)
        assert policy.envelope(1) == pytest.approx(0.1)
        assert policy.envelope(2) == pytest.approx(0.2)
        assert policy.envelope(3) == pytest.approx(0.4)
        assert policy.envelope(4) == pytest.approx(0.8)
        assert policy.envelope(5) == 1.0  # capped
        assert policy.envelope(50) == 1.0

    def test_no_rng_means_pure_exponential(self):
        policy = BackoffPolicy(base=0.05, cap=30.0, rng=None)
        for attempt in range(1, 12):
            assert policy.next_delay(attempt) == policy.envelope(attempt)

    def test_jittered_delays_respect_bounds(self):
        """Seeded-RNG bounds: base <= delay <= min(cap, base*2^(a-1))."""
        policy = BackoffPolicy(base=0.05, cap=2.0, rng=random.Random(7))
        prev = None
        for attempt in range(1, 20):
            for _ in range(200):
                delay = policy.next_delay(attempt, prev)
                assert delay >= policy.base
                assert delay <= policy.envelope(attempt) + 1e-12
            prev = policy.next_delay(attempt, prev)

    def test_decorrelated_jitter_spreads_cohorts(self):
        """Shards orphaned together must not share a retry instant."""
        policy = BackoffPolicy(base=0.05, cap=30.0, rng=random.Random(3))
        delays = [policy.next_delay(2, 0.05) for _ in range(50)]
        # With jitter on, a 50-shard cohort collapses onto at most a
        # couple of distinct delays only if something is broken.
        assert len(set(round(d, 9) for d in delays)) > 40

    def test_jitter_ceiling_tracks_previous_delay(self):
        """Decorrelated jitter: next draw is bounded by 3x the previous."""
        policy = BackoffPolicy(base=0.01, cap=100.0, rng=random.Random(11))
        for _ in range(200):
            delay = policy.next_delay(attempt=20, previous=0.02)
            assert delay <= 0.06 + 1e-12

    def test_zero_base_disables_jitter(self):
        policy = BackoffPolicy(base=0.0, cap=1.0, rng=random.Random(0))
        assert policy.next_delay(1) == 0.0
        assert policy.next_delay(5) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=-0.1)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(base=1.0, cap=0.5)


# ---------------------------------------------------------------------------
# RetryQueue
# ---------------------------------------------------------------------------


class TestRetryQueue:
    def test_fifo_pop_of_eligible_shards(self):
        q = RetryQueue()
        for i in range(3):
            q.add(_shard(i))
        assert q.pop_eligible(0.0) == (_shard(0), 1)
        assert q.pop_eligible(0.0) == (_shard(1), 1)
        assert len(q) == 1

    def test_backoff_delays_eligibility(self):
        q = RetryQueue(backoff=BackoffPolicy(base=10.0, cap=10.0, rng=None))
        shard = _shard(0)
        delay = q.requeue(shard, attempt=1, now=100.0)
        assert delay == 10.0
        assert q.pop_eligible(105.0) is None  # still backing off
        assert q.pop_eligible(110.0) == (shard, 2)

    def test_retry_skips_over_backing_off_shard(self):
        """A shard in backoff never blocks dispatch of healthy work."""
        q = RetryQueue(backoff=BackoffPolicy(base=50.0, cap=50.0, rng=None))
        q.requeue(_shard(0), attempt=1, now=0.0)
        q.add(_shard(1))
        assert q.pop_eligible(1.0) == (_shard(1), 1)

    def test_quarantine_after_max_attempts(self):
        q = RetryQueue(max_attempts=3)
        shard = _shard(9)
        assert q.requeue(shard, attempt=1, now=0.0) is not None
        assert q.requeue(shard, attempt=2, now=0.0) is not None
        assert q.requeue(shard, attempt=3, now=0.0) is None
        assert q.quarantined == [9]
        assert q.retries == 2

    def test_iteration_and_min_lower_bound(self):
        q = RetryQueue()
        q.add(_shard(0, lb=5.0))
        q.add(_shard(1, lb=2.0))
        q.add(_shard(2, lb=8.0))
        assert q.min_lower_bound() == 2.0
        entries = list(q)
        assert [s.index for s, _a, _e in entries] == [0, 1, 2]
        assert bool(q)
        assert RetryQueue().min_lower_bound() is None

    def test_per_shard_previous_delay_tracking(self):
        """Each shard's jitter chain is independent."""
        rng = random.Random(5)
        q = RetryQueue(
            max_attempts=10, backoff=BackoffPolicy(base=0.01, cap=50.0, rng=rng)
        )
        d0 = q.requeue(_shard(0), attempt=1, now=0.0)
        d1 = q.requeue(_shard(1), attempt=1, now=0.0)
        # Both first-attempt draws are bounded by the first envelope.
        for d in (d0, d1):
            assert 0.01 <= d <= 0.01 + 1e-12
        d0b = q.requeue(_shard(0), attempt=2, now=0.0)
        assert d0b <= min(0.02, 3 * d0) + 1e-12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryQueue(max_attempts=0)

    def test_counts_distinct_shards(self):
        q = RetryQueue(backoff=BackoffPolicy(base=0.0, cap=0.0))
        for i in range(5):
            q.requeue(_shard(i), attempt=1, now=0.0)
        popped = Counter()
        while True:
            task = q.pop_eligible(1.0)
            if task is None:
                break
            popped[task[0].index] += 1
        assert popped == Counter({0: 1, 1: 1, 2: 1, 3: 1, 4: 1})
