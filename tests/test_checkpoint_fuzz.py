"""Fuzz tests for checkpoint decoding: no corrupt blob may restore as
anything but a typed CheckpointError (restore exactly, or not at all)."""

import struct
import zlib

import numpy as np
import pytest

from repro.serving import (
    CheckpointError,
    Codec,
    RequestState,
    SessionState,
)
from repro.serving.checkpoint import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

rng = np.random.default_rng(89)


def full_blob():
    return SessionState(
        session_id=7, epoch=2, codec=Codec.INT8, weight=2.5,
        next_request_id=11,
        selector=(5, (0, 2, 4)),
        noise=(1234, (8, 16, 16), 0.07),
        limiter=(20.0, 8.0, 3.25),
        privacy=(2.0, 4.0, 512, 1.25, 17, 3),
        states={3: RequestState.COMPLETED, 9: RequestState.QUEUED},
    ).to_bytes()


def minimal_blob():
    return SessionState(session_id=1).to_bytes()


def all_blobs():
    return [("full", full_blob()), ("minimal", minimal_blob())]


def reseal(body: bytes) -> bytes:
    """Re-trail a mutated body with a *valid* CRC32, so the corruption
    must be caught by field validation, not the checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


def assert_rejected(blob):
    with pytest.raises(CheckpointError):
        SessionState.from_bytes(blob)


@pytest.mark.parametrize("name,blob", all_blobs())
class TestMangledBlobs:
    """Every mutation of every blob shape must raise CheckpointError."""

    def test_every_truncation(self, name, blob):
        for cut in range(len(blob)):
            assert_rejected(blob[:cut])

    def test_single_bit_flips_everywhere(self, name, blob):
        for pos in range(len(blob)):
            for bit in range(8):
                mangled = bytearray(blob)
                mangled[pos] ^= 1 << bit
                assert_rejected(bytes(mangled))

    def test_multi_byte_corruption(self, name, blob):
        for trial in range(60):
            mangled = bytearray(blob)
            for pos in rng.integers(0, len(blob), size=4):
                mangled[pos] ^= int(rng.integers(1, 256))
            assert_rejected(bytes(mangled))

    def test_garbage_blobs(self, name, blob):
        for size in (0, 1, 16, len(blob), 256):
            assert_rejected(bytes(rng.integers(0, 256, size=size,
                                               dtype=np.uint8)))

    def test_extension_rejected(self, name, blob):
        assert_rejected(blob + b"\x00" * 8)
        assert_rejected(blob + blob[:9])

    def test_unmangled_blob_still_decodes(self, name, blob):
        # Sanity companion: the pristine blob parses.
        assert SessionState.from_bytes(blob).to_bytes() == blob


class TestTargetedCorruption:
    """Hand-built violations with *valid* CRCs keep their own rejection
    paths: the checksum must not be the only line of defence."""

    def body(self):
        return full_blob()[:-4]

    def test_wrong_magic_with_valid_crc(self):
        body = bytearray(self.body())
        body[:4] = b"JUNK"
        assert_rejected(reseal(bytes(body)))

    def test_version_skew_with_valid_crc(self):
        for version in (0, CHECKPOINT_VERSION + 1, 0x7FFF):
            body = bytearray(self.body())
            body[4:6] = struct.pack("<H", version)
            with pytest.raises(CheckpointError, match="version"):
                SessionState.from_bytes(reseal(bytes(body)))

    def test_unknown_flags_with_valid_crc(self):
        body = bytearray(self.body())
        flags = struct.unpack_from("<H", body, 36)[0]
        struct.pack_into("<H", body, 36, flags | 0x80)
        with pytest.raises(CheckpointError, match="flag"):
            SessionState.from_bytes(reseal(bytes(body)))

    def test_unknown_codec_with_valid_crc(self):
        body = bytearray(self.body())
        struct.pack_into("<H", body, 6, 250)
        assert_rejected(reseal(bytes(body)))

    def test_nan_weight_with_valid_crc(self):
        body = bytearray(self.body())
        struct.pack_into("<d", body, 28, float("nan"))
        with pytest.raises(CheckpointError, match="weight"):
            SessionState.from_bytes(reseal(bytes(body)))

    def test_unsorted_selector_rejected(self):
        state = SessionState(session_id=1, selector=(5, (0, 2, 4)))
        blob = bytearray(state.to_bytes()[:-4])
        # Selector indices start right after the header (38) + sel head (4).
        struct.pack_into("<HHH", blob, 42, 4, 2, 0)  # descending
        with pytest.raises(CheckpointError, match="selector"):
            SessionState.from_bytes(reseal(bytes(blob)))

    def test_out_of_range_selector_rejected(self):
        state = SessionState(session_id=1, selector=(5, (0, 2, 4)))
        blob = bytearray(state.to_bytes()[:-4])
        struct.pack_into("<HHH", blob, 42, 0, 2, 9)  # 9 >= num_nets 5
        assert_rejected(reseal(bytes(blob)))

    def test_unknown_state_code_with_valid_crc(self):
        state = SessionState(session_id=1, next_request_id=1,
                             states={0: RequestState.QUEUED})
        blob = bytearray(state.to_bytes()[:-4])
        blob[-1] = 200  # the state code is the final body byte
        with pytest.raises(CheckpointError, match="state code"):
            SessionState.from_bytes(reseal(bytes(blob)))

    def test_high_water_mark_must_cover_states(self):
        state = SessionState(session_id=1, next_request_id=5,
                             states={4: RequestState.QUEUED})
        blob = bytearray(state.to_bytes()[:-4])
        struct.pack_into("<Q", blob, 20, 2)  # hwm below tracked id 4
        with pytest.raises(CheckpointError, match="high-water"):
            SessionState.from_bytes(reseal(bytes(blob)))

    def privacy_body(self, privacy=(2.0, 4.0, 512, 1.25, 17, 3)):
        """A privacy-only blob body: the 48-byte privacy block sits
        right after the 38-byte header."""
        return SessionState(session_id=1, privacy=privacy).to_bytes()[:-4]

    def test_state_codes_pinned(self):
        # The wire codes are part of the layout: each state encodes to
        # its pinned byte, and code 2 is never reused.
        pinned = {RequestState.QUEUED: 0, RequestState.COMPLETED: 1,
                  RequestState.CANCELLED: 3, RequestState.REJECTED: 4,
                  RequestState.THROTTLED: 5, RequestState.FAILED: 6}
        assert set(pinned) == set(RequestState)
        for state, code in pinned.items():
            blob = SessionState(session_id=1, next_request_id=1,
                                states={0: state}).to_bytes()
            assert blob[-5] == code  # the state code precedes the CRC
            assert SessionState.from_bytes(blob).states == {0: state}

    def test_retired_state_code_rejected(self):
        state = SessionState(session_id=1, next_request_id=1,
                             states={0: RequestState.CANCELLED})
        blob = bytearray(state.to_bytes()[:-4])
        blob[-1] = 2  # the retired deadline-expiry code
        with pytest.raises(CheckpointError, match="state code 2"):
            SessionState.from_bytes(reseal(bytes(blob)))

    def test_v1_header_rejected_as_unsupported_version(self):
        body = bytearray(SessionState(session_id=7).to_bytes()[:-4])
        body[4:6] = struct.pack("<H", 1)
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 1"):
            SessionState.from_bytes(reseal(bytes(body)))

    def test_out_of_range_privacy_fields_rejected(self):
        # (offset-in-block, struct code, poison) for each privacy field
        # that has its own validation: alpha @0, eps @8, q_budget @16,
        # spent @24.
        poisons = [
            (0, "<d", float("nan")),   # alpha must be finite
            (0, "<d", 1.0),            # alpha must be > 1
            (8, "<d", 0.0),            # eps must be > 0
            (8, "<d", float("inf")),   # eps must be finite
            (16, "<Q", 0),             # q_budget must be >= 1
            (24, "<d", -1.0),          # spent must be >= 0
            (24, "<d", float("nan")),  # spent must be finite
        ]
        for offset, code, poison in poisons:
            body = bytearray(self.privacy_body())
            struct.pack_into(code, body, 38 + offset, poison)
            with pytest.raises(CheckpointError, match="privacy"):
                SessionState.from_bytes(reseal(bytes(body)))

    def test_trailing_bytes_inside_crc_rejected(self):
        body = self.body() + b"\x00\x00\x00"
        with pytest.raises(CheckpointError, match="trailing"):
            SessionState.from_bytes(reseal(body))

    def test_zero_filled_blob(self):
        assert_rejected(b"\x00" * 64)
        assert_rejected(b"\x00" * 256)

    def test_checkpoint_error_is_valueerror_compatible(self):
        with pytest.raises(ValueError):
            SessionState.from_bytes(b"garbage")

    def test_magic_and_version_constants(self):
        blob = minimal_blob()
        assert blob[:4] == CHECKPOINT_MAGIC
        assert struct.unpack_from("<H", blob, 4)[0] == CHECKPOINT_VERSION
