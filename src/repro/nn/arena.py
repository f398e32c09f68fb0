"""Tensor arena: reuse scratch buffers across fused serving passes.

Every stacked serving tick needs the same working set — the pad
canvas, im2col columns and pre-crop GEMM result of each no-grad
convolution (:func:`repro.nn.functional.batched_conv2d`, whose E = 1
case is the per-net :func:`repro.nn.functional.conv2d`), plus the staging
buffer the service copies coalesced uplink payloads into.  A
:class:`TensorArena` keeps those buffers alive between ticks and hands
them back by *slot*: a ``(tag, sequence)`` key in per-pass order for
scratch the kernels request, or a bare named key for singleton staging
buffers the service owns.

The convolution scratch is **block-sized**: the no-grad kernel lowers
and multiplies a few images at a time, so each slot holds one block
(whose columns fit in :data:`repro.nn.functional.BLOCK_BYTES`) per
thread the call runs on, not the whole batch, and its shape depends on
the layer and the thread count alone.  The kernel is
the same with or without an arena — the arena only decides where its
scratch comes from — so outputs are bit-equal either way.

One arena pass need not be one batch: ``Server.compute`` runs a large
batch as image chunks (:data:`repro.ci.pipeline.CHUNK_BYTES`) and calls
:meth:`TensorArena.begin_pass` before each, so every chunk rewinds to
the same slots and the pool is as large for many chunks as for one.

Safety model
------------
Arena buffers are only handed to kernels while no backward will be
wired (the kernels check :func:`repro.nn.tensor.is_grad_enabled` and the
operands' ``requires_grad``).  No correctness reason is left for that:
a wired conv keeps nothing but its operands (its weight gradient lowers
the input again in the backward), so its scratch is consumed inside the
op as in a no-grad pass.  The rule keeps the pool sized by the one pass
it serves: training never runs under :func:`use_arena`, and a grad pass
inside one would only add its own slots to the serving pool.
Kernels also never place an array that *escapes* the pass (layer
outputs, response payloads) in the arena: only scratch that is
provably consumed inside the op may live there, so a poisoned arena
(:meth:`TensorArena.poison`, used by the differential tests) can never
leak NaNs into served features.

Reuse rule: a slot is reused when its dtype and trailing dimensions
match the request and its leading dimension is at least the requested
one; the caller gets the leading rows.  So a tick whose batch is
smaller than an earlier one's (fewer coalesced requests) reuses the
staging buffer, and block-shaped conv slots never change with the
batch.  Any other mismatch re-allocates the slot on the spot, so a
coalesce-key change between ticks (different spatial size, dtype)
falls back to fresh memory rather than serving a stale view.

Usage::

    arena = TensorArena()
    with use_arena(arena):          # resets per-pass slot counters
        out = engine(features)      # kernels call arena.take(...)
        arena.begin_pass()          # a second pass (a chunk) rewinds
        out2 = engine(more)         # ...and reuses the same slots

The context manager is re-entrant-safe (the previously active arena is
restored on exit) but not thread-safe — the serving tier is a
single-threaded tick loop by design.  The no-grad conv kernel's helper
threads take no slots: the calling thread takes one slot per tag with a
block of rows for each thread before any helper starts, and joins the
helpers before the call returns.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

__all__ = ["TensorArena", "use_arena", "active_arena"]

#: module-global active arena; ``None`` means "allocate fresh" (the
#: default for every code path outside a serving fast-path pass).
_ACTIVE: "TensorArena | None" = None


class TensorArena:
    """A pool of reusable scratch buffers keyed by slot and shape.

    Two families of slots exist:

    * :meth:`take` — per-pass *sequence* slots: the same tag may be
      requested many times within one pass (one per conv layer, say);
      each request within a pass gets its own distinct buffer, and the
      per-tag sequence counter resets at :meth:`begin_pass`, so layer
      ``i`` of this tick reuses exactly layer ``i``'s buffer of the
      previous tick.
    * :meth:`take_named` — singleton slots for buffers with one logical
      owner per arena (the service's uplink staging buffer); no
      sequence counter, just the name.

    Both follow the module's reuse rule: a buffer with the requested
    dtype and trailing shape and at least as many leading rows is handed
    back as its leading ``shape[0]`` rows; otherwise the old buffer is
    dropped and a fresh one allocated (counted in ``misses``).
    """

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}
        self._counters: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    # -- slot lifecycle -------------------------------------------------

    def begin_pass(self) -> None:
        """Reset per-pass sequence counters (start of one fused pass)."""
        self._counters.clear()

    def take(self, tag: str, shape: tuple[int, ...],
             dtype: np.dtype) -> np.ndarray:
        """A scratch buffer for the next ``tag`` slot of this pass.

        The buffer's contents are **undefined** — callers must overwrite
        every element (the poisoning tests enforce exactly this).
        """
        seq = self._counters.get(tag, 0)
        self._counters[tag] = seq + 1
        return self._fetch(("seq", tag, seq), shape, dtype)

    def take_named(self, name: str, shape: tuple[int, ...],
                   dtype: np.dtype) -> np.ndarray:
        """The singleton buffer registered under ``name`` (see class doc)."""
        return self._fetch(("named", name), shape, dtype)

    def _fetch(self, key: tuple, shape: tuple[int, ...],
               dtype: np.dtype) -> np.ndarray:
        shape, dtype = tuple(shape), np.dtype(dtype)
        buf = self._buffers.get(key)
        if (buf is None or buf.dtype != dtype or buf.shape[1:] != shape[1:]
                or buf.shape[0] < shape[0]):
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf if buf.shape[0] == shape[0] else buf[:shape[0]]

    # -- observability / testing ---------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes currently pooled."""
        return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def num_buffers(self) -> int:
        """Number of live slots."""
        return len(self._buffers)

    def poison(self, value: float = np.nan) -> None:
        """Fill every pooled float buffer with ``value`` (NaN by default).

        The differential harness calls this between ticks: any stale
        arena byte that leaks into a served feature map then surfaces as
        a NaN instead of a silently plausible number.  Integer buffers
        are filled with their dtype's minimum for the same reason.
        """
        for buf in self._buffers.values():
            if np.issubdtype(buf.dtype, np.floating):
                buf.fill(value)
            elif np.issubdtype(buf.dtype, np.integer):
                buf.fill(np.iinfo(buf.dtype).min)

    def clear(self) -> None:
        """Drop every pooled buffer (and reset pass counters)."""
        self._buffers.clear()
        self._counters.clear()


def active_arena() -> "TensorArena | None":
    """The arena of the pass currently executing, or ``None``."""
    return _ACTIVE


@contextlib.contextmanager
def use_arena(arena: "TensorArena | None") -> Iterator["TensorArena | None"]:
    """Activate ``arena`` for the duration of one fused pass.

    Entering resets the arena's per-pass slot counters; exiting restores
    whichever arena (or ``None``) was active before.  Passing ``None``
    is allowed and simply runs the body without an arena — callers can
    thread an optional arena through unconditionally.
    """
    global _ACTIVE
    previous = _ACTIVE
    if arena is not None:
        arena.begin_pass()
    _ACTIVE = arena
    try:
        yield arena
    finally:
        _ACTIVE = previous
