"""Self-healing planning: retries, circuit breakers, fallback chains.

Three composable defenses against a planning pipeline that can fail:

* :func:`retry_with_backoff` — re-run a transient operation a bounded
  number of times with exponentially growing (injectable) sleeps.
* :class:`CircuitBreaker` — after repeated failures of a dependency,
  stop calling it for a cooldown window (*open*), then let one probe
  through (*half-open*) before trusting it again (*closed*).  Keeps a
  flaky LP backend from stalling every plan with a doomed attempt.
* :func:`plan_with_fallbacks` — the ``"resilient"`` planner: walk one
  row of the :data:`LADDERS` table (LP planner on the configured
  backend, the same family on the first-order backend, then LP-free
  heuristics; docs/RESILIENCE.md describes the ladder).  The first
  success wins; every attempt — successes, failures, and circuit-open
  skips — is recorded in ``PlanResult.diagnostics["fallback_chain"]``
  so a degraded plan is never silent about how it was produced.

Metrics: ``retry.attempts``, ``circuit.opened`` / ``circuit.rejected``
/ ``circuit.closed``, ``planner.fallbacks`` and
``planner.fallback.exhausted``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, TypeVar

from repro import obs
from repro.core.problem import PlacementProblem
from repro.core.strategies import PlanConfig, PlanResult, plan
from repro.exceptions import CircuitOpenError

T = TypeVar("T")


# ----------------------------------------------------------------------
# Retry with backoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a transient operation.

    Attributes:
        attempts: Total tries, including the first (must be >= 1).
        base_delay_s: Sleep before the first retry.
        multiplier: Backoff growth factor per retry.
        max_delay_s: Ceiling on any single sleep.
    """

    attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be nonnegative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry (``attempts - 1`` values)."""
        delay = self.base_delay_s
        for _ in range(self.attempts - 1):
            yield min(delay, self.max_delay_s)
            delay *= self.multiplier


def retry_with_backoff(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Call ``fn`` until it succeeds or the policy is exhausted.

    Args:
        fn: Zero-argument operation to run.
        policy: Retry budget and backoff shape (default
            :class:`RetryPolicy`).
        retry_on: Exception types that trigger a retry; anything else
            propagates immediately.
        sleep: Sleep function — injectable so tests run instantly.
        on_retry: Optional hook called as ``on_retry(attempt, exc)``
            before each sleep (attempt is 1-based).

    Returns:
        Whatever ``fn`` returns on its first success.

    Raises:
        The last exception, when every attempt failed.
    """
    policy = policy or RetryPolicy()
    delays = list(policy.delays())
    last: BaseException | None = None
    for attempt in range(policy.attempts):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt == policy.attempts - 1:
                break
            obs.counter("retry.attempts").inc()
            if on_retry is not None:
                on_retry(attempt + 1, exc)
            if delays[attempt] > 0:
                sleep(delays[attempt])
    assert last is not None
    raise last


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Classic three-state breaker around a failure-prone dependency.

    *closed* (normal): calls pass through; consecutive failures are
    counted.  *open*: after ``failure_threshold`` consecutive failures,
    calls are rejected without running for ``reset_after_s`` seconds.
    *half-open*: once the cooldown elapses, exactly one probe call is
    allowed; success closes the breaker, failure re-opens it.

    Args:
        name: Label used in metrics and error messages.
        failure_threshold: Consecutive failures that trip the breaker.
        reset_after_s: Cooldown before a half-open probe is allowed.
        clock: Monotonic time source — injectable so tests control it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        reset_after_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state, advancing *open* to *half-open* on cooldown."""
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.reset_after_s
        ):
            self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed right now."""
        return self.state != self.OPEN

    def record_success(self) -> None:
        """Note a successful call; closes the breaker."""
        if self._state != self.CLOSED:
            obs.counter("circuit.closed").inc()
            obs.record("circuit.closed", circuit=self.name)
        self._failures = 0
        self._state = self.CLOSED

    def record_failure(self) -> None:
        """Note a failed call; may trip the breaker open."""
        self._failures += 1
        if self._state == self.HALF_OPEN or self._failures >= self.failure_threshold:
            if self._state != self.OPEN:
                obs.counter("circuit.opened").inc()
                obs.record(
                    "circuit.opened",
                    circuit=self.name,
                    failures=self._failures,
                )
            self._state = self.OPEN
            self._opened_at = self._clock()

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker.

        Raises:
            CircuitOpenError: When the breaker is open.
        """
        if not self.allow():
            obs.counter("circuit.rejected").inc()
            raise CircuitOpenError(
                f"circuit {self.name!r} is open "
                f"({self._failures} consecutive failures)"
            )
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


# Shared per-backend breakers used by the resilient planner: a backend
# that keeps failing is skipped for a cooldown instead of being probed
# by every plan.
_BACKEND_BREAKERS: dict[str, CircuitBreaker] = {}


def backend_breaker(backend: str) -> CircuitBreaker:
    """The process-wide breaker guarding one LP backend."""
    if backend not in _BACKEND_BREAKERS:
        _BACKEND_BREAKERS[backend] = CircuitBreaker(f"lp.{backend}")
    return _BACKEND_BREAKERS[backend]


def reset_backend_breakers() -> None:
    """Forget all backend breaker state (test isolation hook)."""
    _BACKEND_BREAKERS.clear()


# ----------------------------------------------------------------------
# Fallback-chain planning
# ----------------------------------------------------------------------
# The ladder, one row per planner family: the LP planner, the planner
# that retries it on the first-order backend, and the LP-free tail.
# docs/RESILIENCE.md ("Self-healing planning") describes this table.
LADDERS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "exact": ("lprr", "lprr:fo", ("stream:greedy", "greedy", "hash")),
    "pg": ("lprr:pg", "lprr:pg", ("stream:greedy", "greedy", "hash")),
    "rep": ("lprr:rep", "lprr:rep", ("rep:greedy", "rep:hash")),
}


def _ladder_family(config: PlanConfig) -> str:
    """The :data:`LADDERS` row a config plans through."""
    if config.replicas > 1:
        return "rep"
    return "pg" if config.scope_spec.kind == "pg" else "exact"


@dataclass(frozen=True)
class FallbackStep:
    """One attempt in the fallback chain.

    Attributes:
        step: Chain label, e.g. ``"lprr:auto"`` or ``"greedy"``.
        outcome: ``"ok"``, ``"failed"``, or ``"skipped"``.
        detail: Error message for failures, reason for skips, empty for
            successes.
    """

    step: str
    outcome: str
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form for ``PlanResult.diagnostics``."""
        return {"step": self.step, "outcome": self.outcome, "detail": self.detail}


def plan_with_fallbacks(
    problem: PlacementProblem,
    *,
    config: PlanConfig | None = None,
    breakers: bool = True,
) -> PlanResult:
    """Plan with graceful degradation instead of failure.

    The config picks one :data:`LADDERS` row: ``rep`` when
    ``config.replicas > 1``, ``pg`` for ``PlanScope.pg`` scopes, else
    ``exact``.  The chain runs that row's LP planner on the configured
    backend (label ``<planner>:<backend>``), retries it once on the
    first-order backend (label ``<planner>:fo``, skipped when the
    configured backend already *is* ``fo``), then falls through the
    row's LP-free tail.  The first planner to succeed supplies the
    placement; the full attempt log lands in
    ``diagnostics["fallback_chain"]``, the winning planner's name in
    ``diagnostics["delegate"]``, and ``diagnostics["degraded"]`` is
    true when a tail planner won.  See docs/RESILIENCE.md.

    LP attempts run under per-backend circuit breakers (see
    :func:`backend_breaker`), so a backend that has failed repeatedly
    is skipped — and marked ``"skipped"`` in the chain — until its
    cooldown passes.

    Args:
        problem: The CCA instance to place.
        config: Planning knobs; LP time and iteration limits apply to
            the LP attempts.
        breakers: Disable to bypass the shared circuit breakers
            (attempts then always run).

    Raises:
        ReproError: Only if *every* step in the chain fails, which
            requires even the hash floor to fail.
    """
    config = config or PlanConfig()
    lp_planner, retry_planner, tail = LADDERS[_ladder_family(config)]
    steps: list[tuple[str, str | None, str, PlanConfig]] = [
        (f"{lp_planner}:{config.backend}", config.backend, lp_planner, config)
    ]
    if config.backend != "fo":
        # The first-order backend has no library dependency and no
        # LP-size ceiling, so it backstops every exact backend.
        steps.append(
            (f"{lp_planner}:fo", "fo", retry_planner, config.with_options(backend="fo"))
        )
    steps += [(name, None, name, config) for name in tail]
    chain: list[FallbackStep] = []

    def attempt(step: str, backend: str | None, run: Callable[[], PlanResult]):
        guarded = run
        if backend is not None and breakers:
            breaker = backend_breaker(backend)
            if not breaker.allow():
                chain.append(
                    FallbackStep(step, "skipped", "circuit open")
                )
                obs.record(
                    "plan.attempt", step=step, outcome="skipped",
                    detail="circuit open",
                )
                return None
            guarded = lambda: breaker.call(run)  # noqa: E731
        try:
            result = guarded()
        except Exception as exc:  # noqa: BLE001 — the chain is the handler
            chain.append(
                FallbackStep(step, "failed", f"{type(exc).__name__}: {exc}")
            )
            obs.counter("planner.fallbacks").inc()
            obs.record(
                "plan.attempt", step=step, outcome="failed",
                detail=f"{type(exc).__name__}: {exc}",
            )
            return None
        chain.append(FallbackStep(step, "ok"))
        obs.record("plan.attempt", step=step, outcome="ok", detail="")
        return result

    with obs.span("plan.resilient", objects=problem.num_objects) as span:
        result: PlanResult | None = None
        for step, backend, planner, step_config in steps:
            if result is None:
                result = attempt(
                    step, backend, lambda: plan(problem, planner, step_config)
                )
            else:
                chain.append(FallbackStep(step, "skipped", "already planned"))
        if result is None:
            obs.counter("planner.fallback.exhausted").inc()
            obs.record(
                "plan.fallback",
                delegate=None,
                degraded=True,
                chain=[s.to_dict() for s in chain],
            )
            raise chain_error(chain)
        degraded = result.planner in tail
        span.set(delegate=result.planner, attempts=len(chain))
        obs.record(
            "plan.fallback",
            delegate=result.planner,
            degraded=degraded,
            chain=[s.to_dict() for s in chain],
        )

    diagnostics: dict[str, Any] = {
        **result.diagnostics,
        "delegate": result.planner,
        "fallback_chain": [s.to_dict() for s in chain],
        "degraded": degraded,
    }
    return replace(result, planner="resilient", diagnostics=diagnostics)


def chain_error(chain: list[FallbackStep]) -> Exception:
    """The terminal error when every fallback step failed."""
    from repro.exceptions import ReproError

    summary = "; ".join(
        f"{s.step}: {s.outcome}" + (f" ({s.detail})" if s.detail else "")
        for s in chain
    )
    return ReproError(f"every planner in the fallback chain failed — {summary}")
