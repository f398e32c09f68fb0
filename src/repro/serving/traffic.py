"""Fleet-scale traffic: admission control and streaming trace builders.

Two halves of the same problem — load the fleet *cannot* take must be
turned away before it consumes queue slots, and load the fleet *should*
take must be generatable at 10^4–10^6 sessions without materialising a
list per request.

Admission control
-----------------
The queue-slot backpressure in
:class:`~repro.serving.service.InferenceService` protects one replica's
queue, but it fires per *request*, after framing and byte accounting,
against traffic the fleet already accepted.  The
:class:`AdmissionController` sits one layer earlier: it decides per new
**session** — at the session's first arrival, before anything is
submitted — whether the fleet has headroom for another tenant.  Three
outcomes, keyed on fleet pressure:

* ``ADMIT`` — full service;
* ``DOWNGRADE`` — best-effort service: the session's fair-share weight
  drops to 0, so weight-aware schedulers serve it only when paying
  tenants are idle and the overload ladder sheds it first;
* ``REJECT`` — the session's traffic is dropped at the door, costing
  the fleet nothing (no frame, no queue slot, no retry churn).

Streaming traces
----------------
:func:`heavy_tailed_trace` and :func:`diurnal_trace` are **generators**:
they yield :class:`~repro.serving.simulate.Arrival` objects lazily (in
vectorised chunks internally, one NumPy draw per ~8k arrivals) in
strictly non-decreasing time order, so the simulators can pull a
million-arrival trace through a bounded-memory event loop.  Both are
deterministic under ``seed`` — the same seed replays the same trace,
which the trace-determinism tests pin down.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.serving.simulate import Arrival

__all__ = [
    "ADMIT",
    "DOWNGRADE",
    "REJECT",
    "AdmissionController",
    "AdmissionPolicy",
    "diurnal_trace",
    "heavy_tailed_trace",
]

#: Admission outcomes (strings, so reports JSON-serialise trivially).
ADMIT = "admit"
DOWNGRADE = "downgrade"
REJECT = "reject"

#: Arrivals per internal vectorised draw in the streaming builders.
_CHUNK = 8192


@dataclasses.dataclass(frozen=True)
class AdmissionPolicy:
    """Pressure thresholds for admitting new sessions.

    A new session is admitted in full below ``downgrade_pressure``,
    admitted best-effort (weight 0) between the thresholds, and rejected
    at or above ``reject_pressure``.
    """

    downgrade_pressure: float = 0.6
    reject_pressure: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.downgrade_pressure <= self.reject_pressure <= 1.0:
            raise ValueError("need 0 < downgrade_pressure <= "
                             "reject_pressure <= 1")


class AdmissionController:
    """Per-session admission decisions, with running outcome counters.

    Stateless per decision (the policy thresholds do the work) but
    stateful in aggregate: ``admitted`` / ``downgraded`` / ``rejected``
    count outcomes so far.
    """

    def __init__(self, policy: AdmissionPolicy | None = None):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.admitted = 0
        self.downgraded = 0
        self.rejected = 0

    def decide(self, pressure: float) -> str:
        """Decide one new session's fate at the given fleet pressure."""
        policy = self.policy
        if pressure >= policy.reject_pressure:
            self.rejected += 1
            return REJECT
        if pressure >= policy.downgrade_pressure:
            self.downgraded += 1
            return DOWNGRADE
        self.admitted += 1
        return ADMIT

    def as_dict(self) -> dict:
        """Outcome counters as a plain dict (for benchmark records)."""
        return {"admitted": self.admitted, "downgraded": self.downgraded,
                "rejected": self.rejected}

    def __repr__(self) -> str:
        return (f"AdmissionController(admitted={self.admitted}, "
                f"downgraded={self.downgraded}, rejected={self.rejected})")


def _session_popularity(num_sessions: int, alpha: float, rng) -> np.ndarray:
    """Pareto-distributed session popularity CDF (a few whales, many mice)."""
    weights = rng.pareto(alpha, num_sessions) + 1.0
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def heavy_tailed_trace(num_sessions: int, num_requests: int,
                       rate_hz: float, *, seed: int = 0,
                       alpha: float = 1.3,
                       deadline_s: float | None = None):
    """Lazily yield Poisson arrivals with Pareto session popularity.

    Aggregate arrivals are memoryless at ``rate_hz``; each arrival is
    attributed to a session drawn from a Pareto(``alpha``) popularity
    distribution — the classic production shape where a handful of whale
    tenants dominate traffic while the long tail of mice appears once or
    twice.  Yields exactly ``num_requests`` arrivals in non-decreasing
    time order, generating in vectorised chunks so peak memory is
    O(chunk), never O(num_requests).

    Deterministic under ``seed``: equal seeds yield identical traces.
    """
    if num_sessions < 1:
        raise ValueError("num_sessions must be >= 1")
    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    if not rate_hz > 0:
        raise ValueError("rate_hz must be positive")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    popularity_cdf = _session_popularity(num_sessions, alpha, rng)
    now = 0.0
    remaining = num_requests
    while remaining > 0:
        n = min(_CHUNK, remaining)
        remaining -= n
        times = now + np.cumsum(rng.exponential(1.0 / rate_hz, size=n))
        now = float(times[-1])
        picks = np.searchsorted(popularity_cdf, rng.random(n), side="right")
        for t, sid in zip(times, picks):
            yield Arrival(time=float(t), session_index=int(sid),
                          deadline_s=deadline_s)


def diurnal_trace(num_sessions: int, num_requests: int,
                  base_rate_hz: float, *, period_s: float,
                  peak_factor: float = 4.0, seed: int = 0,
                  deadline_s: float | None = None):
    """Lazily yield arrivals under a sinusoidal day/night load curve.

    A non-homogeneous Poisson process whose instantaneous rate swings
    between ``base_rate_hz`` (trough) and ``base_rate_hz * peak_factor``
    (peak) on a cosine of period ``period_s`` — the diurnal curve an
    autoscaler must ride: spawn into the morning ramp, drain after the
    evening peak.  Sampled by thinning against the peak rate, vectorised
    per chunk, so memory stays O(chunk).  Sessions are drawn uniformly.
    Yields exactly ``num_requests`` arrivals, non-decreasing in time;
    deterministic under ``seed``.
    """
    if num_sessions < 1:
        raise ValueError("num_sessions must be >= 1")
    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    if not base_rate_hz > 0:
        raise ValueError("base_rate_hz must be positive")
    if not period_s > 0:
        raise ValueError("period_s must be positive")
    if not peak_factor >= 1.0:
        raise ValueError("peak_factor must be >= 1 (1 = flat Poisson)")
    rng = np.random.default_rng(seed)
    peak_rate = base_rate_hz * peak_factor
    omega = 2.0 * math.pi / period_s
    now = 0.0
    emitted = 0
    while emitted < num_requests:
        candidates = now + np.cumsum(
            rng.exponential(1.0 / peak_rate, size=_CHUNK))
        now = float(candidates[-1])
        # Thinning: keep a candidate at time t with probability
        # rate(t) / peak_rate, where rate(t) sweeps base..peak on a
        # cosine (trough at t = 0, peak at half-period).
        rate = base_rate_hz * (
            1.0 + (peak_factor - 1.0)
            * 0.5 * (1.0 - np.cos(omega * candidates)))
        keep = candidates[rng.random(_CHUNK) < rate / peak_rate]
        if keep.size == 0:
            continue
        keep = keep[:num_requests - emitted]
        picks = rng.integers(0, num_sessions, size=keep.size)
        emitted += keep.size
        for t, sid in zip(keep, picks):
            yield Arrival(time=float(t), session_index=int(sid),
                          deadline_s=deadline_s)
