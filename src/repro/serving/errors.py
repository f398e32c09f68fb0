"""Failure semantics of the serving layer: typed errors and the request
lifecycle.

Fault tolerance starts with a *vocabulary*: every way a request can fail
must have exactly one typed name, so clients can program against the
failure (retry it, surface it, shed it) instead of pattern-matching
message strings.  Two families live here:

* the :class:`ServingError` exception hierarchy — **everything** the
  serving stack raises on a request path derives from it, so
  ``except ServingError`` is a complete client-side safety net (the
  regression test in ``tests/test_lifecycle.py`` holds the stack to
  this);
* the :class:`RequestState` lifecycle — each submitted request ends in
  **exactly one** terminal state, which is what makes load shedding,
  cancellation and crash recovery *accountable*: the event-driven
  simulator proves conservation (submitted == sum of terminals) per
  replay.

Request lifecycle
-----------------
::

                        submit
                          │
          ┌──────────┬────┴─────┐
          ▼          ▼          ▼
      REJECTED   THROTTLED   QUEUED ◄──────────┐
      (capacity) (rate       │                 │ retry
                  limit)     │                 │ (same request id,
          ┌──────────────────┼────────┐        │  deduplicated)
          ▼                  ▼        ▼        │
      CANCELLED          COMPLETED  FAILED ────┘
      (session closed)   (served)  (tick crash /
                                    corrupt frame)

``REJECTED`` / ``THROTTLED`` / ``FAILED`` are *retryable*
terminals: resubmitting the same request id re-enters ``QUEUED`` and the
request's final state is whatever its last attempt reached, so a request
retried to completion counts once, as ``COMPLETED``.
"""

from __future__ import annotations

import enum


class ServingError(RuntimeError):
    """Root of every error the serving stack raises on a request path.

    Clients need exactly one ``except`` clause: anything
    :meth:`~repro.serving.session.Session.submit` or
    :meth:`~repro.serving.session.Session.result` raises about a request
    derives from this class (enforced by a regression test), so no raw
    ``struct.error`` / ``ValueError`` / ``numpy`` exception ever escapes
    the wire or the tick loop.
    """


class BackpressureError(ServingError):
    """The service queue is full; the client must retry later."""


class RateLimitedError(ServingError):
    """The tenant exhausted its token bucket; retry after tokens refill.

    Raised by :meth:`InferenceService.submit` *before* any bytes are
    accounted, and counted in ``ServiceStats.throttled_requests`` — a
    per-tenant policy rejection, distinct from the capacity
    :class:`BackpressureError`.
    """


class ProtocolError(ServingError, ValueError):
    """Raised when bytes on the wire do not parse as a valid message.

    Covers malformed, truncated and checksum-failing frames.  Subclasses
    ``ValueError`` as well for backwards compatibility with pre-hierarchy
    callers that caught ``ValueError``.
    """


class UnknownSessionError(ServingError, KeyError):
    """The request names a session id the service does not know.

    Raised by :meth:`InferenceService.submit` for never-opened or
    already-closed sessions.  Subclasses ``KeyError`` as well for
    backwards compatibility with pre-hierarchy callers.
    """


class NoResultError(ServingError, KeyError):
    """No served response is waiting for the request id.

    Raised by :meth:`~repro.serving.session.Session.result` for a request
    that is still queued, was shed at admission (``REJECTED`` /
    ``THROTTLED``; resubmit it), was already consumed (results pop on
    read) or was never submitted.  Subclasses ``KeyError`` as well for
    backwards compatibility with pre-hierarchy callers.
    """


class TickFailedError(ServingError):
    """The stacked pass serving this request crashed beyond its retries.

    A failed tick (injected via :class:`~repro.serving.faults.FaultInjector`
    or a real exception out of the fused engine) re-queues its group up to
    ``ServingConfig.tick_retries`` times; a request that keeps landing in
    crashing passes becomes terminally ``FAILED`` and its
    :meth:`~repro.serving.session.Session.result` raises this.
    """


class RequestCancelledError(ServingError):
    """The request's session was closed while the request was queued.

    ``close_session`` cancels queued work exactly once (counted in
    ``ServiceStats.cancelled_requests``); asking for such a request's
    result raises this.
    """


class PrivacyExhaustedError(ServingError):
    """The session's privacy budget is spent; no further queries serve.

    Raised by :meth:`InferenceService.submit` once the session's
    :class:`~repro.privacy.budget.PrivacyBudget` reports exhaustion —
    either the cumulative Rényi ε(α) or the ``q_budget`` query cap is
    depleted — and by :meth:`~repro.serving.session.Session.result` for
    a ``REJECTED`` request of such a session.  The session is closed for
    new work on first refusal (queued requests are cancelled, counted in
    ``ServiceStats.privacy_refusals`` /
    ``ServiceStats.privacy_exhausted_sessions``) but stays registered as
    a tombstone, so later submits keep raising this error rather than
    :class:`UnknownSessionError`.  Deliberately **not** retryable: the
    budget never refills, so resubmitting can never succeed.
    """


class CheckpointError(ServingError, ValueError):
    """A session checkpoint blob failed to decode or to apply.

    Raised by :mod:`repro.serving.checkpoint` for truncated, bit-flipped,
    version-skewed or otherwise corrupt checkpoint bytes — and for a
    decoded state that contradicts the session it would restore (wrong
    selector subset, wrong session id).  A checkpoint must restore
    exactly or not at all: failover never adopts silently-wrong session
    state.
    """


class RequestState(enum.Enum):
    """Lifecycle of one submitted request (see the module diagram).

    ``QUEUED`` is the only non-terminal state; every submitted request
    ends in exactly one of the five terminal states, which is the
    conservation invariant ``SimulationReport.conservation_ok`` checks.
    """

    QUEUED = "queued"        # admitted (or in flight); not yet terminal
    COMPLETED = "completed"  # served by a tick; response delivered
    CANCELLED = "cancelled"  # session closed with the request queued
    REJECTED = "rejected"    # shed at admission/serve: capacity or privacy
    THROTTLED = "throttled"  # shed at admission: token bucket empty
    FAILED = "failed"        # corrupt frame or tick crash beyond retries

    @property
    def terminal(self) -> bool:
        """Whether this state ends the request's lifecycle."""
        return self is not RequestState.QUEUED

    @property
    def retryable(self) -> bool:
        """Whether a client may resubmit the same request id from here.

        ``CANCELLED`` is not retryable (the session is gone) and
        ``COMPLETED``/``QUEUED`` need no retry — resubmitting either is
        deduplicated service-side rather than re-queued.
        """
        return self in (RequestState.REJECTED, RequestState.THROTTLED,
                        RequestState.FAILED)


#: The terminal states, in reporting order (conservation checks sum these).
TERMINAL_STATES = tuple(s for s in RequestState if s.terminal)
