"""Deadline budgets and cooperative cancellation for long-running analyses.

The iteration count of the WCRT fixed point of Eq. (19) is unbounded in
practice: a wildly over-utilised task set can spend enormous
numbers of inner iterations before any estimate crosses a deadline.  Before
this module the only defence was the sweep supervisor's *chunk-level* hang
watchdog — a blunt instrument that kills a whole worker process and
bisects its chunk.  :class:`Budget` adds the in-process layer real servers
have: every iteration boundary of the analysis kernel *ticks* the budget,
and an over-budget or cancelled analysis aborts right there with a typed
:class:`~repro.errors.BudgetExceeded` / :class:`~repro.errors.Cancelled`
carrying the partial estimates instead of hanging until the watchdog fires.

Design constraints, in order:

1. **Bit-identical completions.**  A budget check must never perturb an
   analysis that finishes: ticks only count and compare, they never feed
   back into any computed value.  The differential grid in
   ``tests/test_differential.py`` pins this down with an effectively
   infinite budget threaded through the whole kernel.
2. **Deterministic abort points.**  The iteration ceiling counts *inner
   fixed-point iterations* — a quantity that is itself bit-identical
   across the production and reference kernels and warm starts — so a ceiling
   abort happens at the same boundary on every machine and every rerun.
   Wall-clock deadlines are inherently nondeterministic; tests make them
   deterministic by injecting a fake ``clock``.
3. **Cheap enough to leave on.**  A tick is an integer increment and one
   comparison; the (comparatively expensive) clock read happens only every
   ``wall_check_stride`` ticks.

Abort consistency: an aborted analysis leaves all shared state (derived
interference tables, calculator caches, warm-start seeds) exactly as
sound for the next run as a cold start — the shared tables are pure
functions of the immutable task set, and warm-start seeds are only
recorded after a fully *successful* schedulable analysis.  ``tests/test_budget.py`` asserts the
rerun-after-abort is bit-identical to a cold run at every possible abort
boundary.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import AnalysisError, BudgetExceeded, Cancelled

#: Ticks between wall-clock reads.  32 keeps the deadline detection latency
#: far below any sensible budget (an inner iteration is microseconds) while
#: making the common tick a pure integer operation.
DEFAULT_WALL_CHECK_STRIDE = 32


class CancelToken:
    """Cooperative cancellation flag, safe to share across threads.

    The requesting side calls :meth:`cancel`; the analysis side observes it
    at the next budget tick and aborts with
    :class:`~repro.errors.Cancelled`.  Built on :class:`threading.Event`
    so a service thread can cancel an analysis running in another thread
    (in-process mode) without locks of its own.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()


class Budget:
    """Wall-clock + iteration ceiling for one analysis, checked at ticks.

    Parameters:
        wall_seconds: wall-clock allowance, measured from :meth:`start`
            (``None`` = unlimited).
        max_iterations: ceiling on the number of :meth:`tick` calls
            (``None`` = unlimited).  Deterministic: the analysis kernel
            ticks once per inner fixed-point iteration, a count that is
            identical across kernel variants and reruns.
        token: optional :class:`CancelToken` observed at every check.
        clock: monotonic time source; injectable so tests drive wall-clock
            deadlines deterministically.
        wall_check_stride: ticks between wall-clock reads (>= 1).  1 reads
            the clock on every tick (tests); the default keeps the hot
            path clock-free.

    A budget is single-use state, not configuration: construct one per
    analysis (or per request) and pass it down.  :meth:`start` arms the
    wall-clock deadline and is idempotent, so nested layers may all call
    it; the first call wins.
    """

    def __init__(
        self,
        wall_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
        token: Optional[CancelToken] = None,
        clock: Callable[[], float] = time.monotonic,
        wall_check_stride: int = DEFAULT_WALL_CHECK_STRIDE,
    ) -> None:
        if wall_seconds is not None and not wall_seconds > 0:
            raise AnalysisError(
                f"budget wall_seconds must be positive, got {wall_seconds}"
            )
        if max_iterations is not None and max_iterations <= 0:
            raise AnalysisError(
                f"budget max_iterations must be positive, got {max_iterations}"
            )
        if wall_check_stride < 1:
            raise AnalysisError(
                f"wall_check_stride must be >= 1, got {wall_check_stride}"
            )
        self.wall_seconds = wall_seconds
        self.max_iterations = max_iterations
        self.token = token
        self._clock = clock
        self._stride = wall_check_stride
        #: Ticks consumed so far (inner iterations, simulator events, ...).
        self.iterations = 0
        self._checks_until_clock = 0
        self._started_at: Optional[float] = None
        #: Parent budget this one was sliced from (see :meth:`child`).
        #: Child ticks charge the parent too, so a slice can never spend
        #: resources the enclosing request does not have.
        self._parent: Optional["Budget"] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Budget":
        """Arm the wall-clock deadline (idempotent; returns ``self``)."""
        if self._started_at is None:
            self._started_at = self._clock()
        return self

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has been called."""
        return self._started_at is not None

    def child(self, fraction: float) -> "Budget":
        """Slice off a child budget covering ``fraction`` of what is left.

        The degradation ladder (:mod:`repro.analysis.ladder`) gives each
        tier a slice of the request's remaining budget so an expensive
        tier cannot starve the cheaper fallbacks behind it.  Guarantees:

        * A child can never exceed its parent: its wall allowance is a
          fraction of the parent's *remaining* seconds, its iteration
          ceiling of the parent's remaining ticks, and every child tick
          also charges the parent — so the parent's own limits fire
          inside the child the moment they are reached.
        * The cancel token, clock and stride are shared, so cancellation
          and injected test clocks behave identically at every depth.
        * An unlimited parent dimension stays unlimited in the child.

        The child is returned already started (its wall deadline is
        anchored at the slice point).  Raises
        :class:`~repro.errors.BudgetExceeded` when the parent is already
        exhausted — there is nothing left to slice.
        """
        if not 0 < fraction <= 1:
            raise AnalysisError(
                f"child fraction must be in (0, 1], got {fraction}"
            )
        self.start()
        remaining = self.remaining()
        wall: Optional[float] = None
        if remaining is not None:
            if remaining <= 0:
                raise BudgetExceeded(
                    f"cannot slice a child budget: parent exhausted its "
                    f"{self.wall_seconds}s wall-clock allowance"
                )
            wall = remaining * fraction
        ceiling: Optional[int] = None
        if self.max_iterations is not None:
            left = self.max_iterations - self.iterations
            if left <= 0:
                raise BudgetExceeded(
                    f"cannot slice a child budget: parent exhausted its "
                    f"iteration ceiling of {self.max_iterations}"
                )
            ceiling = max(1, int(left * fraction))
        child = Budget(
            wall_seconds=wall,
            max_iterations=ceiling,
            token=self.token,
            clock=self._clock,
            wall_check_stride=self._stride,
        )
        child._parent = self
        return child.start()

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 if never started)."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def remaining(self) -> Optional[float]:
        """Wall-clock seconds left, or ``None`` for an unlimited budget."""
        if self.wall_seconds is None:
            return None
        return max(0.0, self.wall_seconds - self.elapsed())

    # -- checks -------------------------------------------------------------

    def tick(self, count: int = 1) -> None:
        """Charge ``count`` iterations and abort if any limit is hit.

        Called at iteration boundaries of the analysis kernel.  Raises
        :class:`~repro.errors.Cancelled` when the token fired,
        :class:`~repro.errors.BudgetExceeded` when the iteration ceiling
        or (every ``wall_check_stride`` ticks) the wall-clock deadline is
        exceeded.  Never mutates anything an analysis result depends on.
        """
        if self._parent is not None:
            self._parent.tick(count)
        self.iterations += count
        if (
            self.max_iterations is not None
            and self.iterations > self.max_iterations
        ):
            raise BudgetExceeded(
                f"analysis exceeded its iteration ceiling of "
                f"{self.max_iterations} (at iteration {self.iterations})"
            )
        self._checks_until_clock -= 1
        if self._checks_until_clock <= 0:
            self._checks_until_clock = self._stride
            self.check()

    def check(self) -> None:
        """Abort on cancellation or wall-clock overrun, without charging.

        The no-increment variant used by coarser-grained layers (the
        decomposition, the CPRO/CRPD window folds) where iteration counts
        would not be comparable across kernel variants.
        """
        if self._parent is not None:
            self._parent.check()
        token = self.token
        if token is not None and token.cancelled:
            raise Cancelled(
                f"analysis cancelled after {self.iterations} iteration(s)"
            )
        if self.wall_seconds is not None and self._started_at is not None:
            elapsed = self._clock() - self._started_at
            if elapsed > self.wall_seconds:
                raise BudgetExceeded(
                    f"analysis exceeded its {self.wall_seconds}s wall-clock "
                    f"budget after {elapsed:.3f}s "
                    f"({self.iterations} iteration(s))"
                )
