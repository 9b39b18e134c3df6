"""Retry/backoff policies for DHS operations under message loss.

The closed-form retry analysis in :mod:`repro.core.retries` (paper
eqs. 5/6) sizes probe budgets ahead of time; this module is the runtime
counterpart: when the fault layer drops a message
(:class:`~repro.errors.MessageDropped`), a :class:`RetryPolicy` decides
how many times to resend and what the waiting costs in *logical hops* —
the repo's only clock.  Backoff is exponential with optional seeded
jitter; there is no wall-clock anywhere (dhslint rule DHS601 enforces
this repo-wide).

The default policy (``max_attempts=1``) performs no retries and — by
construction — draws nothing from any RNG, so wiring it through the
insert/count paths leaves fault-free runs bit-identical to the code
before policies existed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.errors import ConfigurationError, MessageDropped
from repro.obs import runtime as obs
from repro.overlay.stats import OpCost

__all__ = ["RetryPolicy", "DEFAULT_POLICY"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How often to resend a dropped message, and what waiting costs.

    Attributes
    ----------
    max_attempts:
        Total tries per operation (1 = no retries, the default).
    backoff_hops:
        Logical-hop cost charged for the wait before retry ``k`` is
        ``backoff_hops * backoff_factor**k`` (truncated to int).
    backoff_factor:
        Exponential backoff base.
    jitter_hops:
        When positive, a seeded ``randrange(jitter_hops + 1)`` is added
        to each backoff wait.  Zero (the default) draws nothing, which
        is what keeps the default policy byte-identical.
    """

    max_attempts: int = 1
    backoff_hops: int = 0
    backoff_factor: float = 2.0
    jitter_hops: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_hops < 0:
            raise ConfigurationError(
                f"backoff_hops must be >= 0, got {self.backoff_hops}"
            )
        if self.backoff_factor <= 0:
            raise ConfigurationError(
                f"backoff_factor must be > 0, got {self.backoff_factor}"
            )
        if self.jitter_hops < 0:
            raise ConfigurationError(
                f"jitter_hops must be >= 0, got {self.jitter_hops}"
            )

    def backoff_cost(self, attempt: int, rng: random.Random) -> int:
        """Logical hops charged for the wait after failed ``attempt``."""
        delay = int(self.backoff_hops * self.backoff_factor**attempt)
        if self.jitter_hops > 0:
            delay += rng.randrange(self.jitter_hops + 1)
        return delay

    def call(
        self,
        op: Callable[..., T],
        rng: random.Random,
        cost: OpCost,
        *args: Any,
    ) -> T:
        """Run ``op(*args)`` under this policy, charging losses into ``cost``.

        The callee's arguments ride along, so a call site needs no
        closure per operation.  Each dropped message costs one timeout
        hop (the send that never came back); each retry additionally
        charges the backoff wait.  When the budget is exhausted the final
        :class:`MessageDropped` is re-raised — after recording the
        permanent loss in ``cost.drops`` — so callers can degrade
        gracefully.
        """
        last: Optional[MessageDropped] = None
        for attempt in range(self.max_attempts):
            try:
                return op(*args)
            except MessageDropped as exc:
                last = exc
                cost.hops += 1
                cost.messages += 1
                cost.timeouts += 1
                if obs.METERING:
                    obs.METRICS.inc("dhs.retry.timeouts")
                if attempt + 1 < self.max_attempts:
                    cost.retries += 1
                    backoff = self.backoff_cost(attempt, rng)
                    cost.hops += backoff
                    if obs.METERING:
                        obs.METRICS.inc("dhs.retry.retries")
                        obs.METRICS.inc("dhs.retry.backoff_hops", backoff)
                    if obs.TRACING:
                        obs.TRACER.event(
                            "msg.retry", attempt=attempt + 1, backoff_hops=backoff
                        )
        assert last is not None
        cost.drops += 1
        if obs.METERING:
            obs.METRICS.inc("dhs.retry.drops")
        if obs.TRACING:
            obs.TRACER.event("msg.dropped", attempts=self.max_attempts)
        raise last


#: Byte-identical-to-before policy: one attempt, no retries, no draws.
DEFAULT_POLICY = RetryPolicy()
