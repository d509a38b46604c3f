"""Message types, quorum arithmetic and the binary wire format.

Every simulated packet is a fixed-layout little-endian frame:

    2-byte header:  kind tag (1 byte), presence flags (1 byte)
    then the field block, in this order:
        sender id (lower 32 bits)    4
        recipient id (lower 32 bits) 4
        signature placeholder       64
        transaction payload          0 or payload_size
        transaction type             4
        block reference              8
        time stamp                   4
        node id                      8
        view number                  8
        message digest               0 or 32
        client request               8
        request number (seq)         8

    The ten fixed-width fields sum to 120 bytes.  A message carries
    exactly one of a transaction payload or a digest, never both.

The body of a protocol message is therefore 120 + 32 = 152 bytes and
the body of a transaction message with the default 1000-byte payload
is 1120 bytes.  The 2-byte header sits outside that budget.

The transaction payload itself is simulated filler; its identity
travels in the fixed fields: the client request field packs
(origin << 32 | counter) and the time stamp field carries the
creation time in milliseconds (TX_BROADCAST) or the position of the
transaction inside its block (CLIENT_REQUEST relays).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain

__all__ = [
    "MsgKind",
    "Transaction",
    "Message",
    "BROADCAST",
    "WireFormatError",
    "EncodeError",
    "FrameError",
    "fault_tolerance",
    "prepare_quorum",
    "commit_quorum",
    "block_digest",
    "block_ref_from_digest",
    "encode",
    "decode",
    "HEADER_SIZE",
    "FIXED_FIELDS_SIZE",
    "DIGEST_SIZE",
    "DEFAULT_PAYLOAD_SIZE",
]


class WireFormatError(ValueError):
    """Base class for malformed messages or frames."""


class EncodeError(WireFormatError):
    """Message cannot be represented on the wire."""


class FrameError(WireFormatError):
    """Byte frame cannot be decoded."""


class MsgKind(IntEnum):
    TX_BROADCAST = 1    # a node hands a fresh transaction to the primary
    CLIENT_REQUEST = 2  # the primary relays block content to the replicas
    PRE_PREPARE = 3
    PREPARE = 4
    COMMIT = 5
    RETRY_REQUEST = 6
    VIEW_CHANGE = 7
    NEW_VIEW = 8


# Kinds that carry a transaction; all others carry a digest.
TX_KINDS = frozenset({MsgKind.TX_BROADCAST, MsgKind.CLIENT_REQUEST})

HEADER_SIZE = 2
SIGNATURE_SIZE = 64
DIGEST_SIZE = 32
DEFAULT_PAYLOAD_SIZE = 1000

# Frame segments around the two variable slots.
_HEAD = struct.Struct("<BBII64s")   # header, sender lo, recipient lo, signature
_MID = struct.Struct("<IQIQQ")      # tx type, block ref, timestamp, node id, view
_TAIL = struct.Struct("<QQ")        # client request, seq

# The fixed field block (module docstring), read off the struct
# layouts so it cannot drift from the codec: 120.
FIXED_FIELDS_SIZE = _HEAD.size + _MID.size + _TAIL.size - HEADER_SIZE

_FLAG_TX = 0x01
_FLAG_DIGEST = 0x02

_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF

# Recipient value used on the wire for broadcast copies.
BROADCAST = None
_BROADCAST_LO = _U32_MAX

_ZERO_SIG = bytes(SIGNATURE_SIZE)

# Frame sizes with the header: a digest frame, and a transaction frame
# before its payload.
_DIGEST_FRAME_SIZE = HEADER_SIZE + FIXED_FIELDS_SIZE + DIGEST_SIZE
_TX_FRAME_BASE = HEADER_SIZE + FIXED_FIELDS_SIZE


def fault_tolerance(n: int) -> int:
    """Largest f such that n replicas tolerate f byzantine faults."""
    if n < 1:
        raise ValueError(f"replica count must be >= 1, got {n}")
    return (n - 1) // 3


def prepare_quorum(n: int) -> int:
    """Matching prepares needed (own included) before commit is sent."""
    return 2 * fault_tolerance(n)


def commit_quorum(n: int) -> int:
    """Distinct commits needed (own included) before a block is final."""
    return 2 * fault_tolerance(n) + 1


@dataclass(frozen=True, slots=True)
class Transaction:
    """A simulated client transaction.

    The payload is never materialised; only its size matters to the
    network model.  ``created_us`` is when it was generated, in simulated
    microseconds; a TX_BROADCAST frame carries it in whole ms.  ``tx_id`` is
    ``(origin, counter)``, built once, so every replica's mempool and
    block id tuples share one tuple per transaction; it takes no part
    in equality or hashing.
    """

    origin: int
    counter: int
    payload_size: int = DEFAULT_PAYLOAD_SIZE
    tx_type: int = 0
    created_us: int = 0
    tx_id: tuple[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tx_id", (self.origin, self.counter))


def block_digest(height: int, tx_ids) -> bytes:
    """Deterministic digest over the height and the ordered id list:
    SHA-256 of little-endian u64 words, the height and then each id's
    origin and counter.  A word out of the u64 range raises
    ``struct.error``."""
    ids = tuple(tx_ids)
    if not ids:
        raise ValueError("a block must contain at least one transaction")
    if height < 1:
        raise ValueError(f"block height must be >= 1, got {height}")
    words = struct.pack(f"<{1 + 2 * len(ids)}Q", height,
                        *chain.from_iterable(ids))
    return hashlib.sha256(words).digest()


def block_ref_from_digest(digest: bytes) -> int:
    """Compact 8-byte block identity used in the fixed field block."""
    return int.from_bytes(digest[:8], "little")


@dataclass(slots=True)
class Message:
    """One simulated protocol message.

    ``sender`` is the protocol-level node id (the 8-byte node id
    field); the 4-byte sender/recipient ids on the wire are its lower
    32 bits, kept for the frame layout only.  ``recipient`` is a node
    id or ``BROADCAST`` (None).  ``timestamp`` is the raw 4-byte field
    (milliseconds for most kinds, block position for relays).
    ``size`` is the frame size in bytes, header included (the length
    of ``encode(msg)``), fixed when the message is built; it takes no
    part in equality.
    """

    kind: MsgKind
    sender: int
    recipient: int | None
    view: int
    seq: int
    digest: bytes | None = None
    tx: Transaction | None = None
    block_ref: int = 0
    timestamp: int = 0
    client_request: int = 0
    signature: bytes = _ZERO_SIG
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # The only place a frame is sized: header, fixed fields, then
        # the digest or the payload.
        tx = self.tx
        if tx is None:
            self.size = _DIGEST_FRAME_SIZE
            return
        # The client request field identifies the carried transaction.
        if self.client_request == 0:
            self.client_request = (tx.origin << 32) | tx.counter
        self.size = _TX_FRAME_BASE + tx.payload_size


def _check_range(name: str, value: int, maximum: int) -> None:
    if not 0 <= value <= maximum:
        raise EncodeError(f"{name} out of range: {value}")


def encode(msg: Message) -> bytes:
    """Serialise a message to its wire frame.

    A message is well formed when it carries exactly one of a
    transaction or a 32-byte digest, all integer fields fit their
    wire widths, and a transaction payload is at least 1 byte.  For
    canonical transaction messages the client request field packs the
    transaction identity, so encode derives it from the transaction.
    """
    has_tx = msg.tx is not None
    has_digest = msg.digest is not None
    if has_tx == has_digest:
        raise EncodeError(
            "message must carry exactly one of a transaction or a digest")
    if msg.kind in TX_KINDS and not has_tx:
        raise EncodeError(f"{msg.kind.name} must carry a transaction")
    if msg.kind not in TX_KINDS and has_tx:
        raise EncodeError(f"{msg.kind.name} must carry a digest")
    if has_digest and len(msg.digest) != DIGEST_SIZE:
        raise EncodeError(
            f"digest must be {DIGEST_SIZE} bytes, got {len(msg.digest)}")
    if len(msg.signature) != SIGNATURE_SIZE:
        raise EncodeError("signature placeholder must be 64 bytes")

    _check_range("view", msg.view, _U64_MAX)
    _check_range("seq", msg.seq, _U64_MAX)
    _check_range("block_ref", msg.block_ref, _U64_MAX)
    _check_range("timestamp", msg.timestamp, _U32_MAX)
    _check_range("sender", msg.sender, _U64_MAX)

    if has_tx:
        tx = msg.tx
        if tx.payload_size < 1:
            raise EncodeError(
                f"payload size must be >= 1, got {tx.payload_size}")
        _check_range("tx origin", tx.origin, _U32_MAX)
        _check_range("tx counter", tx.counter, _U32_MAX)
        _check_range("tx type", tx.tx_type, _U32_MAX)
        tx_type = tx.tx_type
        client_request = (tx.origin << 32) | tx.counter
        flags = _FLAG_TX
    else:
        _check_range("client_request", msg.client_request, _U64_MAX)
        tx_type = 0
        client_request = msg.client_request
        flags = _FLAG_DIGEST

    recipient_lo = (_BROADCAST_LO if msg.recipient is None
                    else msg.recipient & _U32_MAX)

    head = _HEAD.pack(msg.kind, flags, msg.sender & _U32_MAX,
                      recipient_lo, msg.signature)
    mid = _MID.pack(tx_type, msg.block_ref, msg.timestamp,
                    msg.sender, msg.view)
    tail = _TAIL.pack(client_request, msg.seq)
    if has_tx:
        return head + bytes(msg.tx.payload_size) + mid + tail
    return head + mid + msg.digest + tail


def decode(frame: bytes) -> Message:
    """Parse a wire frame back into a message.

    Raises FrameError on any malformed input; never raises anything
    else.  encode(decode(frame)) reproduces the frame byte for byte
    for every frame this function accepts.
    """
    if len(frame) < HEADER_SIZE + FIXED_FIELDS_SIZE + 1:
        raise FrameError(f"frame too short: {len(frame)} bytes")
    try:
        kind = MsgKind(frame[0])
    except ValueError:
        raise FrameError(f"unknown message kind tag {frame[0]}") from None
    flags = frame[1]
    if flags not in (_FLAG_TX, _FLAG_DIGEST):
        raise FrameError(f"invalid presence flags 0x{flags:02x}")
    has_tx = flags == _FLAG_TX
    if has_tx != (kind in TX_KINDS):
        raise FrameError(f"presence flags do not match kind {kind.name}")

    _, _, sender_lo, recipient_lo, signature = _HEAD.unpack_from(frame, 0)
    offset = _HEAD.size

    if has_tx:
        payload_size = len(frame) - HEADER_SIZE - FIXED_FIELDS_SIZE
        digest = None
        offset += payload_size
    else:
        expected = HEADER_SIZE + FIXED_FIELDS_SIZE + DIGEST_SIZE
        if len(frame) != expected:
            raise FrameError(
                f"protocol frame must be {expected} bytes, got {len(frame)}")
        payload_size = 0

    tx_type, block_ref, timestamp, node_id, view = _MID.unpack_from(
        frame, offset)
    offset += _MID.size
    if not has_tx:
        digest = frame[offset:offset + DIGEST_SIZE]
        offset += DIGEST_SIZE
    client_request, seq = _TAIL.unpack_from(frame, offset)
    if sender_lo != node_id & _U32_MAX:
        raise FrameError("sender id field disagrees with node id field")

    tx = None
    if has_tx:
        origin = client_request >> 32
        counter = client_request & _U32_MAX
        created_us = timestamp * 1000 if kind == MsgKind.TX_BROADCAST else 0
        tx = Transaction(origin=origin, counter=counter,
                         payload_size=payload_size, tx_type=tx_type,
                         created_us=created_us)

    recipient = None if recipient_lo == _BROADCAST_LO else recipient_lo
    return Message(kind=kind, sender=node_id, recipient=recipient,
                   view=view, seq=seq, digest=digest, tx=tx,
                   block_ref=block_ref, timestamp=timestamp,
                   client_request=client_request, signature=signature)
