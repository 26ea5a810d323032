"""Length-prefixed datagram framing for the stream (TCP) transport.

The sans-I/O sessions (:mod:`repro.secagg.statemachine`) exchange
*datagrams*: byte strings holding one or more concatenated wire frames
that must be delivered as a unit (a client's Hello and Advertise, a
share-keys matrix, the roster).  TCP is a byte stream with no such
boundaries, so every datagram on the socket is preceded by a 4-byte
little-endian length prefix::

    0..3   payload length  uint32 (prefix excluded; never zero)
    4..    payload         one or more self-delimiting wire frames

:func:`read_datagram` reassembles exactly one datagram regardless of
how the kernel fragments it (partial reads across frame boundaries are
the normal case, not an error) and polices the boundary conditions a
hostile or broken peer can produce:

* a **zero-length prefix** is a protocol violation (no message is
  empty) and raises :class:`~repro.errors.AggregationError` rather than
  spinning on empty reads;
* an **oversized prefix** — beyond ``max_bytes`` — is rejected *before*
  any allocation, so a 4-byte header cannot commit the server to
  buffering gigabytes;
* a connection closed **mid-datagram** (between the prefix bytes, or
  between prefix and body) raises, because silently truncating a
  protocol message must never look like a clean shutdown;
* a connection closed **at a datagram boundary** returns ``None`` — the
  one legitimate end-of-stream.

The framing deliberately carries no identity: *who* sent a datagram is
the connection's business (the server binds a client id at handshake
and passes it to :meth:`ServerSession.receive
<repro.secagg.statemachine.ServerSession.receive>` — frames can claim
whatever they like, the binding wins).
"""

from __future__ import annotations

import asyncio

from repro.errors import AggregationError

#: Refuse datagrams larger than this many payload bytes (the server's
#: default; a pop-512 round's largest datagram is ~1.2 MiB, so 64 MiB
#: leaves two orders of magnitude of headroom while still bounding a
#: hostile prefix).
MAX_DATAGRAM_BYTES = 64 * 1024 * 1024

#: Bytes in the length prefix.
PREFIX_SIZE = 4


def encode_datagram(payload: bytes) -> bytes:
    """Prefix one datagram for the stream transport.

    Raises:
        AggregationError: For an empty payload (unsendable: the peer
            would reject the zero-length prefix) or one whose length
            overflows the 4-byte prefix.
    """
    size = len(payload)
    if size == 0:
        raise AggregationError("cannot send an empty datagram")
    if size >= 1 << 32:
        raise AggregationError(
            f"datagram of {size} bytes overflows the 4-byte length prefix"
        )
    return size.to_bytes(PREFIX_SIZE, "little") + payload


async def read_datagram(
    reader: asyncio.StreamReader,
    max_bytes: int = MAX_DATAGRAM_BYTES,
) -> bytes | None:
    """Read exactly one length-prefixed datagram from the stream.

    Returns:
        The payload bytes, or ``None`` when the peer closed the
        connection cleanly at a datagram boundary.

    Raises:
        AggregationError: On a zero-length or oversized prefix, or a
            connection closed mid-datagram (truncated prefix or body).
    """
    try:
        prefix = await reader.readexactly(PREFIX_SIZE)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # Clean EOF at a datagram boundary.
        raise AggregationError(
            f"connection closed mid-prefix ({len(error.partial)} of "
            f"{PREFIX_SIZE} bytes)"
        ) from None
    size = int.from_bytes(prefix, "little")
    if size == 0:
        raise AggregationError("malformed datagram: zero-length prefix")
    if size > max_bytes:
        raise AggregationError(
            f"datagram of {size} bytes exceeds the {max_bytes}-byte limit"
        )
    try:
        return await reader.readexactly(size)
    except asyncio.IncompleteReadError as error:
        raise AggregationError(
            f"connection closed mid-datagram ({len(error.partial)} of "
            f"{size} payload bytes)"
        ) from None


async def write_datagram(
    writer: asyncio.StreamWriter, payload: bytes
) -> None:
    """Send one datagram and wait for the transport buffer to drain."""
    writer.write(encode_datagram(payload))
    await writer.drain()
