"""``python -m repro.net < captured``: the wire dump of :mod:`repro.net.framing`."""

import sys

from repro.net.framing import (
    MAX_FRAME_BYTES, FrameError, _LENGTH, _encode_json, decode_frame,
)


def _dump(stream: bytes) -> int:
    """One JSON line per frame of a captured byte stream, whatever its
    form; exit 1, naming the offset, at the first frame a receiver would
    refuse."""
    at = 0
    try:
        while at < len(stream):
            if len(stream) - at < 4:
                raise FrameError("stream ends mid-header")
            (length,) = _LENGTH.unpack_from(stream, at)
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"announced frame of {length} bytes")
            if at + 4 + length > len(stream):
                raise FrameError("stream ends mid-frame")
            print(_encode_json(decode_frame(stream, at + 4, at + 4 + length)))
            at += 4 + length
    except FrameError as exc:
        print(f"offset {at}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(_dump(sys.stdin.buffer.read()))
