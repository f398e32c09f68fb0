"""Pluggable admission/grouping policies for the :class:`InferenceService`.

PR 3's service hard-coded one scheduling policy: drain-the-queue FIFO with
a fixed ``max_batch`` request count per tick.  This module turns that
policy into a :class:`Scheduler` abstraction the service delegates to —
the scheduler owns the queued :class:`~repro.serving.protocol.UploadRequest`
objects and decides, per tick, which coalescible group runs as the next
stacked N-body pass.  Three built-ins cover the policy space the ROADMAP
names:

* :class:`FifoScheduler` — bit-exact with the PR-3 behaviour: the longest
  queue prefix (≤ ``max_batch``) whose per-sample feature shapes agree.
  Deterministic, never reorders, but one chatty tenant can monopolise a
  tick (and, ensemble-inversion-wise, shape every batch the semi-honest
  server observes).
* :class:`FairShareScheduler` — per-session round-robin queues: each tick
  elects a leader session (rotating), then fills the group one request
  per session per cycle, so K waiting tenants each land ~1/K of every
  stacked pass regardless of how fast one of them submits.
* :class:`WeightedFairScheduler` — deficit round-robin over payload
  *samples*: sessions negotiate a ``weight`` at open time and receive
  group slots proportional to it (a weight-2 tenant lands ~2x the samples
  of a weight-1 tenant while both have backlog).  With all weights at 1
  and single-sample requests it reduces to :class:`FairShareScheduler`.
* :class:`DeadlineScheduler` — earliest-deadline-first with *adaptive*
  group formation: requests carry ``arrival_time``/``deadline``, and a
  group grows by payload size under a latency budget (estimated pass cost
  must fit the earliest deadline's slack) instead of a fixed request
  count.  :meth:`Scheduler.next_event_time` tells an event-driven
  front-end (:mod:`repro.serving.simulate`) the latest safe moment to
  trigger the tick, so batches accumulate while slack allows.

All schedulers preserve the coalescing invariant: a group shares one
``coalesce_key`` (per-sample shape + dtype), so the service can stack it
along the batch axis into one fused pass.
"""

from __future__ import annotations

import bisect
import collections
import math

from repro.serving.protocol import UploadRequest


#: registry of scheduler policies by name.  Subclassing :class:`Scheduler`
#: with a fresh ``name`` auto-registers it, so custom policies work both by
#: instance (``InferenceService(..., scheduler=Mine())``) and — when the
#: constructor takes no required arguments — by name.  Builtin names are
#: never overridden.
SCHEDULERS: dict[str, type["Scheduler"]] = {}


class Scheduler:
    """Admission + group-formation policy behind an ``InferenceService``.

    The service calls :meth:`enqueue` at admission (after backpressure and
    byte accounting), :meth:`next_group` at each tick, and
    :meth:`cancel_session` when a tenant closes.  Subclasses own their
    queue structure; the service only observes ``pending``.
    """

    #: registry key; subclasses override.
    name = "abstract"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.name != Scheduler.name and cls.name not in SCHEDULERS:
            SCHEDULERS[cls.name] = cls

    @property
    def pending(self) -> int:
        """Queued requests not yet handed out by :meth:`next_group`."""
        raise NotImplementedError

    def enqueue(self, request: UploadRequest) -> None:
        """Admit one request into the scheduler's queue structure.

        Called by the service *after* backpressure and byte accounting;
        the request's ``arrival_time`` is already stamped.
        """
        raise NotImplementedError

    def next_group(self, max_batch: int, now: float = 0.0) -> list[UploadRequest]:
        """Pop the next coalescible group (possibly empty).

        Args:
            max_batch: the service's configured group-size cap (policies
                may ignore it — :class:`DeadlineScheduler` does).
            now: the service's virtual clock, for deadline-aware policies.

        Returns:
            Queued requests sharing one ``coalesce_key``, removed from
            the queue; an empty list when nothing is pending.
        """
        raise NotImplementedError

    def cancel_session(self, session_id: int) -> list[UploadRequest]:
        """Drop a closed tenant's queued requests; returns them.

        The service marks each returned request terminally ``CANCELLED``
        (exactly once), so callers get the requests themselves rather
        than a bare count.
        """
        raise NotImplementedError

    def set_session_weight(self, session_id: int, weight: float) -> None:
        """Record a tenant's negotiated fair-share weight.

        The service calls this when a session opens (and weights may be
        re-negotiated while a session lives).  The default is a no-op:
        only weight-aware policies (:class:`WeightedFairScheduler`) use
        it, but every policy accepts it so services can switch schedulers
        without changing session setup.
        """

    def next_event_time(self, now: float) -> float:
        """Earliest moment a tick *should* fire, given the queue.

        The default is ``now`` — serve whenever the server is free (the
        drain-the-queue policy).  Deadline-aware schedulers return a later
        time to let a group accumulate while every queued SLO still fits.
        Returns ``math.inf`` when nothing is pending.
        """
        return now if self.pending else math.inf


class FifoScheduler(Scheduler):
    """Strict arrival order, fixed ``max_batch`` cap — the PR-3 policy.

    A group is the longest FIFO prefix with one coalesce key; requests
    are never reordered, so response order, record-capture order and
    per-session byte accounting are identical to serving the queue one
    request at a time.
    """

    name = "fifo"

    def __init__(self):
        self._queue: collections.deque[UploadRequest] = collections.deque()

    @property
    def pending(self) -> int:
        return len(self._queue)

    def enqueue(self, request: UploadRequest) -> None:
        self._queue.append(request)

    def next_group(self, max_batch: int, now: float = 0.0) -> list[UploadRequest]:
        if not self._queue:
            return []
        group = [self._queue.popleft()]
        key = group[0].coalesce_key
        while self._queue and len(group) < max_batch:
            if self._queue[0].coalesce_key != key:
                break
            group.append(self._queue.popleft())
        return group

    def cancel_session(self, session_id: int) -> list[UploadRequest]:
        cancelled = [r for r in self._queue if r.session_id == session_id]
        self._queue = collections.deque(
            r for r in self._queue if r.session_id != session_id)
        return cancelled


class FairShareScheduler(Scheduler):
    """Per-session round-robin: no tenant can monopolise a stacked pass.

    Each session gets its own FIFO queue.  A tick elects a leader (the
    next session in rotation with work), then fills the group round-robin
    — one request per session per cycle, skipping sessions whose head
    request cannot coalesce with the leader's key — until ``max_batch``.
    Within a session, order is still FIFO, so per-session response order
    and byte accounting match the FIFO scheduler; only the interleaving
    *across* sessions changes.  Fairness is privacy-relevant under
    ensemble inversion: a tenant that can flood the queue can otherwise
    dictate the batches a semi-honest server observes.
    """

    name = "fair"

    def __init__(self):
        self._queues: dict[int, collections.deque[UploadRequest]] = {}
        self._rotation: collections.deque[int] = collections.deque()

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def enqueue(self, request: UploadRequest) -> None:
        if request.session_id not in self._queues:
            self._queues[request.session_id] = collections.deque()
            self._rotation.append(request.session_id)
        self._queues[request.session_id].append(request)

    def next_group(self, max_batch: int, now: float = 0.0) -> list[UploadRequest]:
        # Rotate to the next session with work; it leads this tick.
        for _ in range(len(self._rotation)):
            if self._queues[self._rotation[0]]:
                break
            self._rotation.rotate(-1)
        else:
            return []
        leader = self._rotation[0]
        group = [self._queues[leader].popleft()]
        key = group[0].coalesce_key
        self._rotation.rotate(-1)  # the leader goes to the back of the rotation
        # Fill one-request-per-session cycles (the leader rejoins at the
        # end of each cycle) until the cap or until a cycle adds nothing.
        progressed = True
        while len(group) < max_batch and progressed:
            progressed = False
            for session_id in tuple(self._rotation):
                if len(group) >= max_batch:
                    break
                queue = self._queues[session_id]
                if queue and queue[0].coalesce_key == key:
                    group.append(queue.popleft())
                    progressed = True
        return group

    def cancel_session(self, session_id: int) -> list[UploadRequest]:
        queue = self._queues.pop(session_id, None)
        if queue is None:
            return []
        try:
            self._rotation.remove(session_id)
        except ValueError:
            pass
        return list(queue)


class WeightedFairScheduler(Scheduler):
    """Deficit round-robin over payload samples: proportional tenant shares.

    Each session has a FIFO queue, a negotiated ``weight`` (via
    :meth:`set_session_weight`; unset sessions default to 1.0) and a
    *deficit* counter measured in samples.  The scheduler runs one
    *continuous* deficit-round-robin scan over the session rotation:
    each visit a session's deficit grows by ``weight`` samples
    and it pops queued requests while the deficit covers their batch
    size, then the scan moves on.  A tick's group is simply the next
    ``max_batch``-sized chunk of that service sequence — the scan
    position (including a half-spent visit) carries over between ticks,
    so proportional shares hold *whatever the group size*: while two
    tenants both have backlog, their served-sample ratio converges to
    their weight ratio even at ``max_batch=1``.  With all weights at 1
    and single-sample, shape-homogeneous requests the schedule is
    identical to :class:`FairShareScheduler`'s one-request-per-session
    cycles.

    Zero-weight sessions form a *best-effort* class: they accrue no
    deficit and are skipped while any positive-weight session has work,
    but are served round-robin (as if weight 1) whenever only
    best-effort work is queued, so they starve under contention, not
    forever.  A session's deficit resets when its queue drains — credit
    cannot be banked while idle — and is otherwise bounded by one visit
    accrual plus one request, never growing without bound.

    **Hierarchical rate classes** (:meth:`set_rate_class`) add one level
    of nesting: sessions assigned to a named class share that class's
    weight, split among the class's *backlogged* members in proportion
    to their intra-class session weights.  The class's aggregate share
    versus other classes (and versus unclassed sessions) therefore stays
    fixed no matter how many of its members are active — a tenant
    organisation buys one share and subdivides it internally, rather
    than each sub-tenant buying fleet-wide weight.  Intra-class weight 0
    still means best-effort, exactly as for unclassed sessions.
    """

    name = "weighted"

    def __init__(self):
        self._queues: dict[int, collections.deque[UploadRequest]] = {}
        self._rotation: collections.deque[int] = collections.deque()
        self._weights: dict[int, float] = {}
        self._deficits: dict[int, float] = {}
        self._classes: dict[int, str] = {}        # session -> rate class
        self._class_weights: dict[str, float] = {}  # class -> shared weight
        # Session whose DRR visit was interrupted by a full group: it
        # resumes at the rotation front next tick without a fresh accrual.
        self._open_visit: int | None = None

    @property
    def pending(self) -> int:
        """Queued requests not yet handed out by :meth:`next_group`."""
        return sum(len(q) for q in self._queues.values())

    def set_session_weight(self, session_id: int, weight: float) -> None:
        """Set a tenant's proportional share (>= 0; 0 = best-effort)."""
        weight = float(weight)
        if not math.isfinite(weight) or weight < 0:
            raise ValueError(f"weight must be finite and >= 0, got {weight}")
        self._weights[session_id] = weight

    def weight_of(self, session_id: int) -> float:
        """The session's negotiated weight (1.0 when never negotiated)."""
        return self._weights.get(session_id, 1.0)

    def set_rate_class(self, session_id: int, rate_class: str,
                       class_weight: float | None = None) -> None:
        """Place a session in a named rate class (shared class weight).

        Class members split ``class_weight`` by their intra-class
        session weights (:meth:`set_session_weight`), so the class's
        aggregate share against other tenants is fixed regardless of how
        many members are backlogged.  Passing ``class_weight`` sets (or
        resets) the class's weight — required the first time a class is
        named, optional afterwards; it must be positive.
        """
        if class_weight is not None:
            class_weight = float(class_weight)
            if not math.isfinite(class_weight) or class_weight <= 0:
                raise ValueError(
                    f"class_weight must be finite and > 0, got {class_weight}")
            self._class_weights[rate_class] = class_weight
        elif rate_class not in self._class_weights:
            raise ValueError(
                f"rate class {rate_class!r} has no weight yet; pass "
                f"class_weight on first use")
        self._classes[session_id] = rate_class

    def rate_class_of(self, session_id: int) -> str | None:
        """The session's rate class, or ``None`` if unclassed."""
        return self._classes.get(session_id)

    def _effective_weight(self, session_id: int) -> float:
        """The DRR accrual weight: the session's own weight, or — inside
        a rate class — its backlog-weighted slice of the class weight.

        Only *backlogged* positive-weight members divide the class
        weight, so an idle member's slice flows to its classmates (the
        class share stays whole) instead of leaking to other tenants.
        """
        weight = self.weight_of(session_id)
        rate_class = self._classes.get(session_id)
        if rate_class is None or weight <= 0:
            return weight
        active = sum(
            self.weight_of(sid)
            for sid, cls in self._classes.items()
            if cls == rate_class and self._queues.get(sid)
            and self.weight_of(sid) > 0)
        if active <= 0:  # sole classed arrival racing the backlog scan
            return self._class_weights[rate_class]
        return self._class_weights[rate_class] * weight / active

    def enqueue(self, request: UploadRequest) -> None:
        """Append to the tenant's FIFO queue (registering it if new)."""
        if request.session_id not in self._queues:
            self._queues[request.session_id] = collections.deque()
            self._rotation.append(request.session_id)
        self._queues[request.session_id].append(request)

    def _contended(self) -> bool:
        """True when some positive-weight session has queued work."""
        return any(self._queues[sid] and self.weight_of(sid) > 0
                   for sid in self._rotation)

    def next_group(self, max_batch: int, now: float = 0.0) -> list[UploadRequest]:
        """Pop the next ``max_batch`` samples of the continuous DRR scan.

        The first eligible session with work sets the tick's coalesce
        key; sessions whose head cannot coalesce are skipped (rotated,
        no deficit accrual) and wait for their own tick.  A visit
        interrupted by a full group resumes next tick without a fresh
        accrual, so group size never distorts the shares.
        """
        contended = self._contended()

        def eligible(session_id: int) -> bool:
            if not self._queues.get(session_id):
                return False
            return not contended or self.weight_of(session_id) > 0

        def eff_weight(session_id: int) -> float:
            weight = self._effective_weight(session_id)
            return weight if contended else max(weight, 1.0)

        if not any(eligible(session_id) for session_id in self._rotation):
            return []
        group: list[UploadRequest] = []
        key = None
        barren = 0  # consecutive scan steps that served nothing
        while len(group) < max_batch:
            session_id = self._rotation[0]
            queue = self._queues.get(session_id)
            if (not eligible(session_id)
                    or (key is not None and queue[0].coalesce_key != key)):
                if not queue:
                    self._deficits.pop(session_id, None)  # no banked credit
                if self._open_visit == session_id:
                    self._open_visit = None
                self._rotation.rotate(-1)
                barren += 1
            else:
                if key is None:
                    key = queue[0].coalesce_key
                if self._open_visit != session_id:
                    self._deficits[session_id] = (
                        self._deficits.get(session_id, 0.0)
                        + eff_weight(session_id))
                    self._open_visit = session_id
                served_any = False
                while (queue and len(group) < max_batch
                       and queue[0].coalesce_key == key
                       and queue[0].batch_size
                       <= self._deficits[session_id] + 1e-9):
                    request = queue.popleft()
                    self._deficits[session_id] -= request.batch_size
                    group.append(request)
                    served_any = True
                if served_any:
                    barren = 0
                if (not queue or queue[0].coalesce_key != key
                        or self._deficits[session_id] + 1e-9
                        < queue[0].batch_size):
                    # Visit exhausted: close it and move the scan on.
                    if not queue:
                        self._deficits.pop(session_id, None)
                    self._open_visit = None
                    self._rotation.rotate(-1)
                    if not served_any:
                        barren += 1
                # else: group filled mid-visit — the scan (front session,
                # remaining deficit) resumes exactly here next tick.
            if barren >= len(self._rotation):
                if group:
                    break
                # Group still empty: the key-setting session accrues each
                # pass, so keep scanning until it can afford its head.
                barren = 0
        return group

    def cancel_session(self, session_id: int) -> list[UploadRequest]:
        """Drop the tenant's queue, rotation slot, weight and deficit."""
        queue = self._queues.pop(session_id, None)
        try:
            self._rotation.remove(session_id)
        except ValueError:
            pass
        self._weights.pop(session_id, None)
        self._deficits.pop(session_id, None)
        self._classes.pop(session_id, None)
        if self._open_visit == session_id:
            self._open_visit = None
        return list(queue) if queue is not None else []


class DeadlineScheduler(Scheduler):
    """Earliest-deadline-first with latency-budgeted adaptive batching.

    Requests queue in deadline order (ties by arrival).  A group starts
    from the earliest-deadline request and grows — still in deadline
    order, matching coalesce keys only — while the *estimated* pass cost
    ``pass_overhead_s + samples * sample_cost_s`` keeps fitting the
    leader's remaining slack and the sample count stays under
    ``max_group_samples``.  The fixed ``max_batch`` request count is
    deliberately ignored: group size is a function of payload and
    deadline slack, which is what lets a burst collapse into one or two
    wide passes instead of many fixed-width ones.

    Requests without a ``deadline`` queue behind every deadlined
    request.  :meth:`next_event_time` returns the latest safe tick start
    — ``earliest deadline - estimated pass cost`` — so an event-driven
    front-end can idle until either the batch budget fills or slack runs
    out.
    """

    name = "deadline"

    def __init__(self, *, pass_overhead_s: float = 0.0,
                 sample_cost_s: float = 0.0,
                 max_group_samples: int = 64):
        if pass_overhead_s < 0 or sample_cost_s < 0:
            raise ValueError("cost estimates must be non-negative")
        if max_group_samples < 1:
            raise ValueError("max_group_samples must be >= 1")
        self.pass_overhead_s = pass_overhead_s
        self.sample_cost_s = sample_cost_s
        self.max_group_samples = max_group_samples
        self._items: list[tuple[float, int, UploadRequest]] = []  # sorted
        self._seq = 0

    @property
    def pending(self) -> int:
        return len(self._items)

    def enqueue(self, request: UploadRequest) -> None:
        deadline = (request.deadline if request.deadline is not None
                    else math.inf)
        bisect.insort(self._items, (deadline, self._seq, request))
        self._seq += 1

    def _estimate_pass_s(self, samples: int) -> float:
        return self.pass_overhead_s + samples * self.sample_cost_s

    def next_group(self, max_batch: int, now: float = 0.0) -> list[UploadRequest]:
        if not self._items:
            return []
        leader_deadline, _, leader = self._items.pop(0)
        group = [leader]
        key = leader.coalesce_key
        samples = leader.batch_size
        slack = leader_deadline - now  # inf for SLO-less leaders
        index = 0
        while index < len(self._items) and samples < self.max_group_samples:
            _, _, candidate = self._items[index]
            if candidate.coalesce_key != key:
                index += 1  # leave for a later tick; EDF order is preserved
                continue
            new_samples = samples + candidate.batch_size
            if new_samples > self.max_group_samples:
                break
            if math.isfinite(slack) and self._estimate_pass_s(new_samples) > slack:
                break  # growing further would blow the earliest deadline
            self._items.pop(index)
            group.append(candidate)
            samples = new_samples
        return group

    def next_event_time(self, now: float) -> float:
        if not self._items:
            return math.inf
        earliest, _, leader = self._items[0]
        if not math.isfinite(earliest):
            return now
        # How big could the group get if we served right now?
        key = leader.coalesce_key
        samples = 0
        for _, _, request in self._items:
            if request.coalesce_key != key:
                continue
            if samples + request.batch_size > self.max_group_samples:
                return now  # batch budget already full: no reason to wait
            samples += request.batch_size
        if samples >= self.max_group_samples:
            return now
        latest_safe_start = earliest - self._estimate_pass_s(samples)
        return max(now, latest_safe_start)

    def cancel_session(self, session_id: int) -> list[UploadRequest]:
        cancelled = [item[2] for item in self._items
                     if item[2].session_id == session_id]
        self._items = [item for item in self._items
                       if item[2].session_id != session_id]
        return cancelled


def make_scheduler(spec: "str | Scheduler") -> Scheduler:
    """Resolve a scheduler spec: an instance passes through, a registry
    name constructs one with its defaults."""
    if isinstance(spec, Scheduler):
        return spec
    try:
        cls = SCHEDULERS[spec]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {spec!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return cls()
