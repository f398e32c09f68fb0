"""Session checkpointing: versioned, CRC-checked state for failover.

A replica dying must not take its tenants' sessions with it.  Everything
a replacement replica needs to keep serving a session is captured in a
:class:`SessionState` — the private selector subset, the noise-map
provenance (seed/shape/sigma, enough to redraw the *bit-identical* map),
the negotiated codec and tenant weight, the rate-limiter token level,
the request-id high-water mark, and the lifecycle state of every tracked
request — and serialised to a versioned, CRC32-trailed byte blob.

The encoding follows the wire-protocol discipline of
:mod:`repro.serving.protocol`: fixed little-endian layout, explicit
magic and version, and a CRC32 over every preceding byte, so a
truncated, bit-flipped, version-skewed or plain garbage blob is rejected
with a typed :class:`~repro.serving.errors.CheckpointError` — a
checkpoint restores exactly or not at all; failover never adopts
silently-wrong session state.

Byte layout (version 2, little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
         0     4  magic ``b"ENCP"``
         4     2  version (u16) = 2
         6     2  codec wire code (u16)
         8     8  session id (u64)
        16     4  incarnation epoch (u32)
        20     8  next request id — the high-water mark (u64)
        28     8  tenant weight (f64)
        36     2  flags (u16): 1=selector, 2=noise, 4=limiter, 8=privacy
        [flag 1]  selector block: num_nets u16, count u16, count x u16
        [flag 2]  noise block: seed u64, ndim u16, sigma f64, ndim x u32
        [flag 4]  limiter block: rate f64, burst f64, tokens f64
        [flag 8]  privacy block: alpha f64, eps f64, q_budget u64,
                  spent f64, queries charged u64, rotation index u64
         ...   4  request-state count (u32)
         ...   9  per request: request id u64, state code u8
        -4     4  CRC32 over all preceding bytes (u32)

Request-state codes::

    0 QUEUED   1 COMPLETED   3 CANCELLED   4 REJECTED   5 THROTTLED
    6 FAILED

Code 2 is retired and never reused: a blob carrying it is rejected like
any unknown code.  Only version 2 decodes.  The privacy block checkpoints accounting *state*
(spent ε(α), charged queries, rotation index); ladder knobs and the
rotation policy are deployment config, re-supplied at restore time like
the model halves.

Two restore paths cover the two failover shapes:

* :meth:`SessionState.restore` builds a **fresh** session on a
  replacement replica from the checkpoint alone (plus the client-side
  head/tail modules, which are code, not state) — the bit-exact path:
  the rebuilt session selects, de-noises and decodes identically to the
  original, byte for byte.
* :meth:`SessionState.apply` **merges** a checkpoint onto a live
  session object that survived its replica (the fleet failover path):
  client-side truth that is newer than the snapshot wins, the
  checkpoint contributes the conservative limiter token level and the
  request-id floor, and the incarnation epoch bumps so the restored
  session's retry jitter decorrelates from its predecessor's.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import zlib

from repro.serving.errors import CheckpointError, RequestState
from repro.serving.protocol import Codec

#: Leading bytes of every checkpoint blob.
CHECKPOINT_MAGIC = b"ENCP"

#: Version of the layout documented in the module docstring; any other
#: version raises :class:`CheckpointError`.
CHECKPOINT_VERSION = 2

_FLAG_SELECTOR = 1
_FLAG_NOISE = 2
_FLAG_LIMITER = 4
_FLAG_PRIVACY = 8
_KNOWN_FLAGS = _FLAG_SELECTOR | _FLAG_NOISE | _FLAG_LIMITER | _FLAG_PRIVACY

_HEADER = struct.Struct("<4sHHQIQdH")
_SEL_HEAD = struct.Struct("<HH")
_NOISE_HEAD = struct.Struct("<QHd")
_LIMITER = struct.Struct("<ddd")
_PRIVACY = struct.Struct("<ddQdQQ")
_STATE_COUNT = struct.Struct("<I")
_STATE_ENTRY = struct.Struct("<QB")
_CRC = struct.Struct("<I")

#: Stable wire codes for request lifecycle states (see the module
#: docstring); a new state takes a fresh code, and code 2 stays retired.
_STATE_CODES = {
    RequestState.QUEUED: 0,
    RequestState.COMPLETED: 1,
    RequestState.CANCELLED: 3,
    RequestState.REJECTED: 4,
    RequestState.THROTTLED: 5,
    RequestState.FAILED: 6,
}
_CODE_STATES = {code: state for state, code in _STATE_CODES.items()}


class _Reader:
    """Bounds-checked cursor over a checkpoint body; typed errors only."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def unpack(self, fmt: struct.Struct) -> tuple:
        end = self.offset + fmt.size
        if end > len(self.blob):
            raise CheckpointError(
                f"checkpoint truncated: needed {fmt.size} bytes at offset "
                f"{self.offset}, only {len(self.blob) - self.offset} remain")
        values = fmt.unpack_from(self.blob, self.offset)
        self.offset = end
        return values

    def unpack_array(self, code: str, count: int) -> tuple:
        return self.unpack(struct.Struct(f"<{count}{code}"))

    @property
    def remaining(self) -> int:
        return len(self.blob) - self.offset


@dataclasses.dataclass
class SessionState:
    """Everything a replacement replica needs to keep serving a session.

    Captured from a live :class:`~repro.serving.session.Session` with
    :meth:`capture`, serialised with :meth:`to_bytes` and decoded with
    :meth:`from_bytes` (which raises
    :class:`~repro.serving.errors.CheckpointError` on any corruption).
    ``selector`` is ``(num_nets, indices)`` or ``None``; ``noise`` is
    ``(seed, shape, sigma)`` or ``None`` (unknown provenance — e.g. an
    explicit noise module — cannot checkpoint and restores noiseless);
    ``limiter`` is ``(rate_per_s, burst, tokens)`` or ``None``;
    ``privacy`` is ``(alpha, eps, q_budget, spent, queries_charged,
    rotation_index)`` or ``None`` (unmetered session — present only when
    the session carries a :class:`~repro.privacy.budget.PrivacyBudget`);
    ``states`` maps request ids to their lifecycle states at snapshot
    time.
    """

    session_id: int
    epoch: int = 0
    codec: Codec = Codec.FP32
    weight: float = 1.0
    next_request_id: int = 0
    selector: tuple[int, tuple[int, ...]] | None = None
    noise: tuple[int, tuple[int, ...], float] | None = None
    limiter: tuple[float, float, float] | None = None
    privacy: tuple[float, float, int, float, int, int] | None = None
    states: dict[int, RequestState] = dataclasses.field(default_factory=dict)

    # -- capture --------------------------------------------------------

    @classmethod
    def capture(cls, session) -> "SessionState":
        """Snapshot a live session's checkpointable state.

        The limiter's bucket is refilled up to the owning service's
        clock first, so the captured token level is the level a
        replacement replica should honour *as of the snapshot*.
        """
        selector = None
        if session.client._selector is not None:
            sel = session.client._selector
            selector = (int(sel.num_nets),
                        tuple(int(i) for i in sel.indices))
        noise = None
        if session.noise_seed is not None and session.noise_shape is not None:
            noise = (int(session.noise_seed),
                     tuple(int(d) for d in session.noise_shape),
                     float(session.noise_sigma))
        limiter = None
        if session.limiter is not None:
            lim = session.limiter
            limiter = (float(lim.limit.rate_per_s), float(lim.limit.burst),
                       float(lim.available(session._service.now)))
        privacy = None
        if getattr(session, "privacy", None) is not None:
            policy = session.privacy.policy
            rotation_index = (int(session.rotation.rotation_index)
                              if getattr(session, "rotation", None) is not None
                              else 0)
            privacy = (float(policy.alpha), float(policy.eps),
                       int(policy.q_budget), float(session.privacy.spent),
                       int(session.privacy.queries_charged), rotation_index)
        return cls(session_id=int(session.session_id),
                   epoch=int(session.epoch),
                   codec=session.codec,
                   weight=float(session.weight),
                   next_request_id=int(session._next_request_id),
                   selector=selector, noise=noise, limiter=limiter,
                   privacy=privacy, states=dict(session._states))

    # -- wire -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the versioned, CRC32-trailed layout."""
        flags = ((_FLAG_SELECTOR if self.selector is not None else 0)
                 | (_FLAG_NOISE if self.noise is not None else 0)
                 | (_FLAG_LIMITER if self.limiter is not None else 0)
                 | (_FLAG_PRIVACY if self.privacy is not None else 0))
        parts = [_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              int(self.codec), self.session_id, self.epoch,
                              self.next_request_id, self.weight, flags)]
        if self.selector is not None:
            num_nets, indices = self.selector
            parts.append(_SEL_HEAD.pack(num_nets, len(indices)))
            parts.append(struct.pack(f"<{len(indices)}H", *indices))
        if self.noise is not None:
            seed, shape, sigma = self.noise
            parts.append(_NOISE_HEAD.pack(seed, len(shape), sigma))
            parts.append(struct.pack(f"<{len(shape)}I", *shape))
        if self.limiter is not None:
            parts.append(_LIMITER.pack(*self.limiter))
        if self.privacy is not None:
            parts.append(_PRIVACY.pack(*self.privacy))
        parts.append(_STATE_COUNT.pack(len(self.states)))
        for request_id in sorted(self.states):
            parts.append(_STATE_ENTRY.pack(
                request_id, _STATE_CODES[self.states[request_id]]))
        body = b"".join(parts)
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SessionState":
        """Decode a checkpoint blob, verifying layout and checksum.

        Raises:
            CheckpointError: the blob is truncated, carries the wrong
                magic or version, fails its CRC32, names an unknown flag
                or state code, trails extra bytes, or decodes to a state
                no session could legally hold (bad weight, bad selector
                subset).  Never restores silently-wrong state.
        """
        blob = bytes(blob)
        if len(blob) < _HEADER.size + _CRC.size:
            raise CheckpointError(
                f"checkpoint truncated: {len(blob)} bytes is shorter than "
                f"the minimal header + CRC ({_HEADER.size + _CRC.size})")
        (stored_crc,) = _CRC.unpack_from(blob, len(blob) - _CRC.size)
        body = blob[:-_CRC.size]
        if zlib.crc32(body) != stored_crc:
            raise CheckpointError(
                "checkpoint checksum mismatch: CRC32 trailer does not match "
                "the body (bit flip or truncation)")
        reader = _Reader(body)
        (magic, version, codec_code, session_id, epoch, next_request_id,
         weight, flags) = reader.unpack(_HEADER)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"bad checkpoint magic {magic!r} (expected "
                f"{CHECKPOINT_MAGIC!r})")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} (this build "
                f"reads version {CHECKPOINT_VERSION})")
        if flags & ~_KNOWN_FLAGS:
            raise CheckpointError(
                f"unknown checkpoint flags 0x{flags & ~_KNOWN_FLAGS:x}")
        try:
            codec = Codec.parse(codec_code)
        except ValueError as exc:
            raise CheckpointError(str(exc)) from exc
        if not (math.isfinite(weight) and weight >= 0):
            raise CheckpointError(
                f"checkpoint weight {weight!r} is not a legal tenant weight")
        selector = None
        if flags & _FLAG_SELECTOR:
            num_nets, count = reader.unpack(_SEL_HEAD)
            indices = reader.unpack_array("H", count)
            if (count == 0 or len(set(indices)) != count
                    or any(i >= num_nets for i in indices)
                    or tuple(sorted(indices)) != indices):
                raise CheckpointError(
                    f"checkpoint selector block is not a sorted unique "
                    f"subset of [0, {num_nets}): {indices}")
            selector = (num_nets, indices)
        noise = None
        if flags & _FLAG_NOISE:
            seed, ndim, sigma = reader.unpack(_NOISE_HEAD)
            shape = reader.unpack_array("I", ndim)
            if ndim == 0 or not (math.isfinite(sigma) and sigma >= 0):
                raise CheckpointError(
                    f"checkpoint noise block is malformed: shape {shape}, "
                    f"sigma {sigma!r}")
            noise = (seed, shape, sigma)
        limiter = None
        if flags & _FLAG_LIMITER:
            rate, burst, tokens = reader.unpack(_LIMITER)
            if not (math.isfinite(rate) and rate > 0 and burst >= 1
                    and math.isfinite(tokens) and 0 <= tokens <= burst):
                raise CheckpointError(
                    f"checkpoint limiter block is not a legal token bucket: "
                    f"rate={rate!r} burst={burst!r} tokens={tokens!r}")
            limiter = (rate, burst, tokens)
        privacy = None
        if flags & _FLAG_PRIVACY:
            alpha, eps, q_budget, spent, queries, rotation_index = (
                reader.unpack(_PRIVACY))
            if not (math.isfinite(alpha) and alpha > 1.0
                    and math.isfinite(eps) and eps > 0.0 and q_budget >= 1
                    and math.isfinite(spent) and spent >= 0.0):
                raise CheckpointError(
                    f"checkpoint privacy block is not a legal budget: "
                    f"alpha={alpha!r} eps={eps!r} q_budget={q_budget!r} "
                    f"spent={spent!r}")
            privacy = (alpha, eps, q_budget, spent, queries, rotation_index)
        (count,) = reader.unpack(_STATE_COUNT)
        states: dict[int, RequestState] = {}
        for _ in range(count):
            request_id, code = reader.unpack(_STATE_ENTRY)
            state = _CODE_STATES.get(code)
            if state is None:
                raise CheckpointError(
                    f"unknown request-state code {code} for request "
                    f"{request_id}")
            if request_id in states:
                raise CheckpointError(
                    f"duplicate request id {request_id} in checkpoint")
            states[request_id] = state
        if reader.remaining:
            raise CheckpointError(
                f"checkpoint carries {reader.remaining} trailing bytes "
                f"after the request-state block")
        if states and max(states) >= next_request_id:
            raise CheckpointError(
                f"checkpoint high-water mark {next_request_id} does not "
                f"cover tracked request id {max(states)}")
        return cls(session_id=session_id, epoch=epoch, codec=codec,
                   weight=weight, next_request_id=next_request_id,
                   selector=selector, noise=noise, limiter=limiter,
                   privacy=privacy, states=states)

    # -- restore --------------------------------------------------------

    def rebuild_client(self, head, tail):
        """Rebuild the client bundle from checkpointed provenance.

        ``head`` and ``tail`` are the client-side model halves (code, not
        state — the deployment ships them to every replica); selector and
        noise are reconstructed bit-exactly from the checkpoint.
        """
        from repro.core.selector import Selector
        from repro.serving.service import build_client

        selector = None
        if self.selector is not None:
            num_nets, indices = self.selector
            try:
                selector = Selector(num_nets, indices)
            except ValueError as exc:
                raise CheckpointError(
                    f"checkpoint selector does not reconstruct: {exc}"
                ) from exc
        noise_seed = noise_shape = None
        noise_sigma = 0.1
        if self.noise is not None:
            noise_seed, noise_shape, noise_sigma = self.noise
        return build_client(head, tail, selector=selector,
                            noise_seed=noise_seed, noise_shape=noise_shape,
                            noise_sigma=noise_sigma)

    def restore(self, service, head, tail, privacy=None, rotation=None):
        """Adopt this checkpoint as a fresh session on ``service``.

        The failover path for a replica that died with its sessions: the
        replacement replica rebuilds the client bundle
        (:meth:`rebuild_client`), re-registers the session under its
        original id with the incarnation epoch bumped, restores the
        negotiated codec/weight, the limiter token level (conservatively
        capped at the checkpointed level) and the request-id high-water
        mark, and replays the tracked lifecycle states.  Requests that
        were in flight on the dead replica stay ``QUEUED`` — the
        client-side :class:`~repro.serving.faults.RetryPolicy` timeout
        recovers them, and service-side dedup guarantees none is served
        twice.

        A checkpointed privacy block restores bit-exactly: the budget's
        ``(alpha, eps, q_budget)`` policy, spent ε(α), charged-query
        count and rotation index all come from the blob.  ``privacy``
        optionally supplies deployment ladder knobs (a
        :class:`~repro.privacy.budget.PrivacyBudget` or spec whose
        *accounting* is overwritten from the checkpoint); ``rotation``
        re-supplies the deployment's rotation policy — both are config,
        not state, exactly like the model halves.
        """
        client = self.rebuild_client(head, tail)
        if (self.selector is not None
                and self.selector[0] != service.num_nets):
            raise CheckpointError(
                f"checkpoint selector spans {self.selector[0]} bodies but "
                f"the service serves {service.num_nets}")
        rate_limit = None
        if self.limiter is not None:
            rate_limit = (self.limiter[0], self.limiter[1])
        budget = None
        rotation_index = 0
        if self.privacy is not None:
            from repro.privacy.accountant import PrivacyPolicy, RenyiAccountant
            from repro.privacy.budget import PrivacyBudget
            alpha, eps, q_budget, spent, queries, rotation_index = self.privacy
            budget = PrivacyBudget.parse(privacy)
            if budget is None:
                budget = PrivacyBudget()
            budget.accountant = RenyiAccountant(
                PrivacyPolicy(alpha, eps, q_budget))
            budget.accountant.spent = spent
            budget.accountant.queries_charged = queries
        session = service.adopt_session(
            client, codec=self.codec, weight=self.weight,
            rate_limit=rate_limit, session_id=self.session_id,
            epoch=self.epoch + 1, privacy=budget, rotation=rotation)
        if self.noise is not None:
            session.noise_seed, session.noise_shape, session.noise_sigma = (
                self.noise)
        if session.limiter is not None and self.limiter is not None:
            session.limiter.tokens = min(session.limiter.tokens,
                                         self.limiter[2])
        if session.rotation is not None:
            session.rotation.rotation_index = int(rotation_index)
            session._refresh_privacy_rng()
        session._next_request_id = self.next_request_id
        session._states.update(self.states)
        for request_id, state in self.states.items():
            if not state.terminal:
                session._pending.add(request_id)
        return session

    def apply(self, session) -> None:
        """Merge this checkpoint onto a live session (fleet failover).

        When the client-side session object survived its replica, the
        live request states and stored responses are *newer* truth than
        any snapshot: they win.  The checkpoint contributes the
        request-id floor (high-water marks only ratchet), a conservative
        limiter token level (no token minting across failover) and the
        lifecycle states of requests the live side never learned about.
        The incarnation epoch bumps past both sides and the retry-jitter
        RNG reseeds, so the restored session cannot replay its
        predecessor's backoff sequence.  Privacy accounting only
        *ratchets*: spent ε(α), charged queries and the rotation index
        take the max of both sides, so failover can never mint budget
        back, and the rotation/noise RNGs re-key from the new epoch.
        """
        import numpy as np

        if session.session_id != self.session_id:
            raise CheckpointError(
                f"checkpoint is for session {self.session_id}, not "
                f"{session.session_id}")
        session._next_request_id = max(session._next_request_id,
                                       self.next_request_id)
        for request_id, state in self.states.items():
            session._states.setdefault(request_id, state)
        if session.limiter is not None and self.limiter is not None:
            now = session._service.now
            session.limiter.tokens = min(session.limiter.available(now),
                                         self.limiter[2])
        session.epoch = max(session.epoch, self.epoch) + 1
        session._retry_rng = np.random.default_rng(
            [session.session_id, session.epoch])
        if self.privacy is not None and session.privacy is not None:
            accountant = session.privacy.accountant
            accountant.spent = max(accountant.spent, self.privacy[3])
            accountant.queries_charged = max(accountant.queries_charged,
                                             self.privacy[4])
        if session.rotation is not None:
            if self.privacy is not None:
                session.rotation.rotation_index = max(
                    session.rotation.rotation_index, int(self.privacy[5]))
            session.rotation.advance_epoch(session.epoch, session)
        else:
            session._refresh_privacy_rng()


class CheckpointStore:
    """Durable-store stand-in: latest checkpoint *bytes* per session.

    Replicas snapshot through the store (the fleet drives
    :meth:`maybe_snapshot` on every tick); failover reads back with
    :meth:`load`, which decodes — and therefore CRC-verifies — the
    stored blob.  Only the newest blob per session is kept: checkpoints
    are full, not incremental.
    """

    def __init__(self, interval_s: float = 0.05):
        if not interval_s >= 0:
            raise ValueError("interval_s must be >= 0")
        self.interval_s = float(interval_s)
        self.snapshots = 0        # capture count, across all sessions
        self.bytes_written = 0    # cumulative encoded size
        self._blobs: dict[int, bytes] = {}
        self._last_snapshot: dict[int, float] = {}

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._blobs

    @property
    def session_ids(self) -> tuple[int, ...]:
        """Ids with a stored checkpoint, ascending."""
        return tuple(sorted(self._blobs))

    def snapshot(self, session) -> bytes:
        """Capture and store ``session`` now; returns the encoded blob."""
        blob = SessionState.capture(session).to_bytes()
        self._blobs[session.session_id] = blob
        self._last_snapshot[session.session_id] = session._service.now
        self.snapshots += 1
        self.bytes_written += len(blob)
        return blob

    def maybe_snapshot(self, session, now: float) -> bool:
        """Snapshot if ``interval_s`` has elapsed since the session's last.

        Returns:
            True if a snapshot was taken.  A session never snapshotted
            before is always captured.
        """
        last = self._last_snapshot.get(session.session_id)
        if last is not None and now - last < self.interval_s:
            return False
        self.snapshot(session)
        self._last_snapshot[session.session_id] = now
        return True

    def blob(self, session_id: int) -> bytes:
        """The stored raw bytes for ``session_id`` (KeyError if absent)."""
        return self._blobs[session_id]

    def load(self, session_id: int) -> SessionState:
        """Decode the stored checkpoint for ``session_id``.

        Raises:
            KeyError: no checkpoint was ever stored for the session.
            CheckpointError: the stored blob is corrupt.
        """
        return SessionState.from_bytes(self._blobs[session_id])

    def drop(self, session_id: int) -> None:
        """Forget a session's checkpoint (after close, not after crash)."""
        self._blobs.pop(session_id, None)
        self._last_snapshot.pop(session_id, None)
