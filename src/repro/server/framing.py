"""Byte framing shared by the journal and the socket front end.

Two framings, one header shape — a 4-byte big-endian payload length
followed by a 4-byte CRC32 of the payload, then the payload itself
(UTF-8 JSON with sorted keys):

* **journal records** (:func:`encode_record` / :func:`scan_records`) are
  appended to per-document files; the CRC turns every record into its
  own tamper-evident unit, so recovery can distinguish the two failure
  modes the fault harness injects — a *torn tail* (the final append was
  interrupted mid-write: fewer bytes on disk than the header promises,
  or an incomplete header) which is truncated and survived, and
  *corrupt history* (a complete record whose bytes no longer match their
  CRC) which raises :class:`~repro.errors.JournalCorruptError`;
* **wire frames** (:func:`read_frame` / :func:`write_frame`) carry the
  same header over an asyncio stream, where the CRC guards against
  framing bugs rather than disk corruption and a short read simply means
  the peer hung up mid-frame.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any

from asyncio import IncompleteReadError, LimitOverrunError, StreamReader, StreamWriter

from repro.errors import JournalCorruptError, ServerError

#: ``(payload length, payload crc32)`` — both unsigned 32-bit big-endian.
HEADER = struct.Struct(">II")

#: Hard cap on one frame/record payload (a parsed request fans out into
#: live trees; an absurd length field is a protocol error, not a malloc).
MAX_PAYLOAD = 64 * 1024 * 1024


def encode_payload(data: dict) -> bytes:
    """Canonical JSON bytes (sorted keys — stable CRCs across processes)."""
    return json.dumps(data, sort_keys=True, ensure_ascii=False).encode()


def encode_record(data: dict) -> bytes:
    """One CRC-framed record: header + canonical JSON payload."""
    payload = encode_payload(data)
    if len(payload) > MAX_PAYLOAD:
        raise ServerError(f"record of {len(payload)} bytes exceeds the "
                          f"{MAX_PAYLOAD}-byte frame limit")
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_records(blob: bytes, path: str = "") -> tuple[list[dict], int]:
    """Decode a journal file's bytes into ``(records, good_length)``.

    ``good_length`` is the byte offset of the first torn (incomplete)
    record — equal to ``len(blob)`` when the file ends cleanly.  The
    caller truncates the file to ``good_length`` and carries on; that is
    the crash-recovery contract for an append-only journal whose final
    write may have been interrupted.  A *complete* record whose payload
    fails its CRC — or is not valid JSON — is corrupt history, not a torn
    tail, and raises :class:`JournalCorruptError` naming the offset.
    """
    records: list[dict] = []
    at = 0
    total = len(blob)
    while at < total:
        if total - at < HEADER.size:
            break  # torn header
        length, crc = HEADER.unpack_from(blob, at)
        if length > MAX_PAYLOAD:
            raise JournalCorruptError(
                f"journal record at offset {at} claims {length} bytes "
                f"(limit {MAX_PAYLOAD}): corrupt length field",
                path=path, offset=at)
        start = at + HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            raise JournalCorruptError(
                f"journal record at offset {at} fails its CRC: corrupt "
                f"history (refusing to replay a silently wrong document)",
                path=path, offset=at)
        try:
            record = json.loads(payload)
        except ValueError:
            raise JournalCorruptError(
                f"journal record at offset {at} passes its CRC but is not "
                f"JSON: corrupt history", path=path, offset=at) from None
        records.append(record)
        at = end
    return records, at


# ----------------------------------------------------------------------
# Asyncio stream framing (same header, live peer)
# ----------------------------------------------------------------------
async def read_frame(reader: StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    A peer that disappears *mid-frame* (the fault harness's mid-request
    connection drop) also returns ``None`` — the connection is dead
    either way and the partial bytes carry no decodable request.  A
    complete frame that fails its CRC or JSON-decoding raises
    :class:`ServerError`: the stream is desynchronised and the
    connection must be dropped.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except (IncompleteReadError, ConnectionError):
        return None
    length, crc = HEADER.unpack(header)
    if length > MAX_PAYLOAD:
        raise ServerError(f"frame of {length} bytes exceeds the "
                          f"{MAX_PAYLOAD}-byte limit")
    try:
        payload = await reader.readexactly(length)
    except (IncompleteReadError, ConnectionError, LimitOverrunError):
        return None
    if zlib.crc32(payload) != crc:
        raise ServerError("frame fails its CRC: stream desynchronised")
    try:
        data = json.loads(payload)
    except (ValueError, RecursionError) as err:  # too deep to decode
        raise ServerError(f"frame is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ServerError(f"frame payload must be a JSON object, "
                          f"got {type(data).__name__}")
    return data


async def write_frame(writer: StreamWriter, data: dict) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_record(data))
    await writer.drain()


__all__ = [
    "HEADER", "MAX_PAYLOAD",
    "encode_payload", "encode_record", "scan_records",
    "read_frame", "write_frame",
]
