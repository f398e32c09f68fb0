"""Graceful degradation under overload: the hysteresis ladder.

A service near queue capacity has two bad options — reject everything
(collapse) or serve everything late (also collapse, just slower).  The
:class:`OverloadController` gives it a third: trade *quality* for
capacity, one reversible step at a time, in the order that hurts paying
tenants least:

1. **shed best-effort** — weight-0 tenants (the explicitly best-effort
   class of the weighted scheduler) are refused at admission;
2. **narrow the codec** — downlink responses drop one codec step
   (fp32 → fp16 → int8), shrinking the dominant Table-III downlink term;
3. **shrink the ensemble** — the stacked pass runs only the first ``k``
   of N bodies and responses alias the missing maps cyclically, flagged
   ``degraded`` on the wire so clients observe the accuracy trade
   (rotating served subsets is the switching-ensemble move of Izmailov
   et al.; the noise/subset-size axis is Rezaei et al.'s
   accuracy–privacy trade-off).

Escalation and recovery are governed by *hysteresis*: queue pressure
(``pending / max_queue``) must sit above the high watermark for
``patience_ticks`` consecutive observations to climb one level, and
below the low watermark equally long to step back down — so a single
bursty tick neither degrades the fleet nor does a single quiet one
snap it back into overload.  Every transition is visible on the
controller itself (``OverloadController.level`` / ``escalations`` /
``recoveries``, reached as ``service.overload``).
"""

from __future__ import annotations

import dataclasses

from repro.serving.protocol import Codec

#: Ladder levels, mildest first.  ``LEVEL_NORMAL`` is full quality.
LEVEL_NORMAL = 0
LEVEL_SHED_BEST_EFFORT = 1
LEVEL_NARROW_CODEC = 2
LEVEL_SHRINK_ENSEMBLE = 3

#: Human-readable names for the ladder levels, in escalation order.
LADDER = ("normal", "shed-best-effort", "narrow-codec", "shrink-ensemble")

#: One-step codec narrowing used at ``LEVEL_NARROW_CODEC``.
_NARROWER = {Codec.FP32: Codec.FP16, Codec.FP16: Codec.INT8,
             Codec.INT8: Codec.INT8}


@dataclasses.dataclass(frozen=True)
class OverloadPolicy:
    """Watermarks and patience of the degradation ladder.

    ``high_watermark`` / ``low_watermark`` are queue-pressure ratios
    (``pending / max_queue``); pressure must hold past a watermark for
    ``patience_ticks`` consecutive observations before the controller
    moves — that asymmetric band is the hysteresis that keeps the ladder
    from flapping.  ``min_ensemble_fraction`` bounds the deepest ensemble
    shrink (level 3 serves ``ceil(N * fraction)`` bodies, never fewer
    than one).
    """

    high_watermark: float = 0.75
    low_watermark: float = 0.25
    patience_ticks: int = 2
    min_ensemble_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.high_watermark <= 1.0:
            raise ValueError("high_watermark must be in (0, 1]")
        if not 0.0 <= self.low_watermark < self.high_watermark:
            raise ValueError("low_watermark must be in [0, high_watermark)")
        if self.patience_ticks < 1:
            raise ValueError("patience_ticks must be >= 1")
        if not 0.0 < self.min_ensemble_fraction <= 1.0:
            raise ValueError("min_ensemble_fraction must be in (0, 1]")


class OverloadController:
    """Hysteresis state machine walking the degradation ladder.

    The service calls :meth:`observe` once per tick with its current
    queue pressure; the controller climbs or descends one
    :data:`LADDER` level at a time and the service consults
    :attr:`shed_best_effort` / :meth:`codec_for` / :meth:`num_bodies`
    on its admission and response paths.  The controller is pure policy
    state — it holds no reference to the service, so one instance can be
    unit-tested (and replayed) in isolation.
    """

    def __init__(self, policy: OverloadPolicy | None = None):
        self.policy = policy if policy is not None else OverloadPolicy()
        self.level = LEVEL_NORMAL
        self.escalations = 0   # total upward transitions
        self.recoveries = 0    # total downward transitions
        self._over = 0         # consecutive observations above high water
        self._under = 0        # consecutive observations below low water
        self._max_level = LEVEL_SHRINK_ENSEMBLE

    @property
    def max_level(self) -> int:
        """The deepest ladder level this controller may escalate to.

        A fleet caps its replicas at :data:`LEVEL_NARROW_CODEC` so each
        replica sheds and narrows on its own, and raises the cap to
        :data:`LEVEL_SHRINK_ENSEMBLE` only under *fleet-wide* pressure —
        shrinking the served ensemble is the privacy-relevant step and
        must be a last resort, not a local reflex.  Lowering the cap
        below the current level steps the controller straight down to
        the cap (counted as recoveries, so transitions stay auditable).
        """
        return self._max_level

    @max_level.setter
    def max_level(self, value: int) -> None:
        if not LEVEL_NORMAL <= value <= LEVEL_SHRINK_ENSEMBLE:
            raise ValueError(f"max_level must be in [{LEVEL_NORMAL}, "
                             f"{LEVEL_SHRINK_ENSEMBLE}], got {value}")
        self._max_level = int(value)
        if self.level > self._max_level:
            self.recoveries += self.level - self._max_level
            self.level = self._max_level

    @property
    def level_name(self) -> str:
        """The current ladder level's human-readable name."""
        return LADDER[self.level]

    @property
    def shed_best_effort(self) -> bool:
        """Whether weight-0 (best-effort) tenants are refused admission."""
        return self.level >= LEVEL_SHED_BEST_EFFORT

    @property
    def degraded(self) -> bool:
        """Whether any degradation step is currently active."""
        return self.level > LEVEL_NORMAL

    def observe(self, pending: int, max_queue: int) -> int:
        """Feed one tick's queue pressure; returns the (new) level.

        Pressure above the high watermark for ``patience_ticks``
        consecutive calls climbs one level; pressure below the low
        watermark equally long descends one.  In the hysteresis band
        between the watermarks both counters reset — the ladder holds.
        """
        pressure = pending / max_queue if max_queue > 0 else 0.0
        if pressure >= self.policy.high_watermark:
            self._over += 1
            self._under = 0
            if (self._over >= self.policy.patience_ticks
                    and self.level < min(len(LADDER) - 1, self._max_level)):
                self.level += 1
                self.escalations += 1
                self._over = 0
        elif pressure <= self.policy.low_watermark:
            self._under += 1
            self._over = 0
            if (self._under >= self.policy.patience_ticks
                    and self.level > LEVEL_NORMAL):
                self.level -= 1
                self.recoveries += 1
                self._under = 0
        else:
            self._over = 0
            self._under = 0
        return self.level

    def codec_for(self, negotiated: Codec) -> Codec:
        """The downlink codec actually served at the current level.

        At :data:`LEVEL_NARROW_CODEC` and above the session's negotiated
        codec narrows one step (fp32 → fp16 → int8); below, it is served
        as negotiated.  Narrowing is monotone — an int8 session is never
        degraded further.
        """
        if self.level >= LEVEL_NARROW_CODEC:
            return _NARROWER[negotiated]
        return negotiated

    def num_bodies(self, total: int) -> int:
        """How many of ``total`` ensemble bodies the next pass should run.

        Below :data:`LEVEL_SHRINK_ENSEMBLE` this is all of them; at the
        deepest level it is ``ceil(total * min_ensemble_fraction)``,
        never fewer than one.
        """
        if self.level < LEVEL_SHRINK_ENSEMBLE or total <= 1:
            return total
        k = -(-total * self.policy.min_ensemble_fraction // 1)  # ceil
        return max(1, min(total, int(k)))
