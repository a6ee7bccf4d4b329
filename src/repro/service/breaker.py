"""Circuit breaker guarding the service's worker pool.

Classic three-state breaker (Nygard, *Release It!*):

* **CLOSED** — requests flow; consecutive pool failures are counted and
  ``failure_threshold`` of them (:data:`FAILURE_THRESHOLD`) trip the
  breaker.
* **OPEN** — requests are refused outright (the daemon answers 503) so a
  crashing worker pool is not hammered while it respawns; after
  ``reset_seconds`` (:data:`RESET_SECONDS`) the breaker lets one probe
  through.
* **HALF_OPEN** — one probe request is admitted; its success closes the
  breaker again, its failure re-opens it and restarts the cool-down.

The daemon runs the defaults; the parameters exist so tests can inject a
breaker that trips sooner.

The clock is injectable so the OPEN→HALF_OPEN transition is testable
without sleeping.  All transitions happen under one lock: the daemon calls
:meth:`allow` / :meth:`record_success` / :meth:`record_failure` from
concurrent request-handler threads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive pool failures that trip the breaker.
FAILURE_THRESHOLD = 3
#: Cool-down (seconds) before a tripped breaker admits its probe.
RESET_SECONDS = 5.0


class CircuitBreaker:
    """Thread-safe circuit breaker with an injectable clock."""

    def __init__(
        self,
        failure_threshold: int = FAILURE_THRESHOLD,
        reset_seconds: float = RESET_SECONDS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_seconds <= 0:
            raise ValueError(
                f"reset_seconds must be positive, got {reset_seconds}"
            )
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_issued = False
        #: Telemetry: how often the breaker tripped (exposed via /stats).
        self.trips = 0

    @property
    def state(self) -> str:
        """Current state, re-evaluating the OPEN cool-down first."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """Whether one request may proceed to the pool right now.

        In HALF_OPEN this *consumes* the probe, so callers must follow up
        with :meth:`record_success` or :meth:`record_failure`.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probe_issued:
                self._probe_issued = True
                return True
            return False

    def record_success(self) -> None:
        """Note a pool execution that completed (however it was judged)."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED

    def record_failure(self) -> None:
        """Note a pool failure (worker crash or watchdog kill)."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self.trips += 1

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.reset_seconds
        ):
            self._state = HALF_OPEN
            self._probe_issued = False
