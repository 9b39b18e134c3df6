"""Tests for RetryPolicy (repro.core.policy)."""

import pytest

from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.errors import ConfigurationError, MessageDropped
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for


class CountingRng:
    """A fake rng that records every draw (must stay untouched by the
    default policy)."""

    def __init__(self):
        self.draws = 0

    def randrange(self, n):
        self.draws += 1
        return 0

    def random(self):
        self.draws += 1
        return 0.5


class FlakyOp:
    """Fails ``failures`` times with MessageDropped, then succeeds."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise MessageDropped("probe")
        return "ok"


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_hops=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_hops=-1)


class TestDefaultPolicy:
    def test_success_is_transparent(self):
        cost = OpCost()
        rng = CountingRng()
        assert DEFAULT_POLICY.call(lambda: 42, rng, cost) == 42
        assert (cost.hops, cost.timeouts, cost.retries, cost.drops) == (0, 0, 0, 0)
        assert rng.draws == 0

    def test_no_retry_and_no_rng_draw_on_drop(self):
        # The byte-identity contract: the default policy never touches
        # the RNG, even while handling a drop.
        cost = OpCost()
        rng = CountingRng()
        op = FlakyOp(failures=1)
        with pytest.raises(MessageDropped):
            DEFAULT_POLICY.call(op, rng, cost)
        assert op.calls == 1
        assert rng.draws == 0
        # The lost send is still accounted: one timeout hop + the drop.
        assert (cost.hops, cost.timeouts, cost.retries, cost.drops) == (1, 1, 0, 1)


class TestRetries:
    def test_retry_until_success(self):
        policy = RetryPolicy(max_attempts=3, backoff_hops=2, backoff_factor=2.0)
        cost = OpCost()
        op = FlakyOp(failures=2)
        assert policy.call(op, rng_for(0, "t"), cost) == "ok"
        assert op.calls == 3
        # Two drops: 2 timeout hops; two waits: 2*2**0 + 2*2**1 = 6 hops.
        assert cost.timeouts == 2
        assert cost.retries == 2
        assert cost.hops == 2 + 6
        assert cost.drops == 0

    def test_every_attempt_gets_the_callee_arguments(self):
        policy = RetryPolicy(max_attempts=3)
        seen = []

        def op(key, origin=None):
            seen.append((key, origin))
            if len(seen) < 3:
                raise MessageDropped("store")
            return key + origin

        assert policy.call(op, rng_for(0, "t"), OpCost(), 40, 2) == 42
        assert seen == [(40, 2)] * 3

    def test_exhausted_budget_reraises_and_counts_drop(self):
        policy = RetryPolicy(max_attempts=3, backoff_hops=1)
        cost = OpCost()
        op = FlakyOp(failures=99)
        with pytest.raises(MessageDropped):
            policy.call(op, rng_for(0, "t"), cost)
        assert op.calls == 3
        assert cost.timeouts == 3
        assert cost.retries == 2  # no backoff wait after the final try
        assert cost.drops == 1

    def test_backoff_cost_arithmetic(self):
        policy = RetryPolicy(max_attempts=4, backoff_hops=3, backoff_factor=2.0)
        rng = CountingRng()
        assert [policy.backoff_cost(k, rng) for k in range(3)] == [3, 6, 12]
        assert rng.draws == 0  # jitter off: still no draws

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(max_attempts=2, backoff_hops=1, jitter_hops=4)
        rng_a, rng_b = rng_for(9, "j"), rng_for(9, "j")
        a = [policy.backoff_cost(0, rng_a) for _ in range(8)]
        b = [policy.backoff_cost(0, rng_b) for _ in range(8)]
        assert a == b  # same labelled stream, same waits
        assert all(1 <= x <= 5 for x in a)
        assert len(set(a)) > 1  # jitter actually varies
