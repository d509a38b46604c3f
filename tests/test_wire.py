"""Wire format, digest and quorum arithmetic tests.

Expected values are constructed independently of the module under
test: field widths are summed literally, golden frames were built
from the documented layout with struct alone (tests/data).
"""

import hashlib
import json
import random
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbftsim.wire import (
    BROADCAST,
    DIGEST_SIZE,
    FIXED_FIELDS_SIZE,
    HEADER_SIZE,
    EncodeError,
    FrameError,
    Message,
    MsgKind,
    Transaction,
    block_digest,
    block_ref_from_digest,
    commit_quorum,
    decode,
    encode,
    fault_tolerance,
    prepare_quorum,
)

GOLDENS = Path(__file__).parent / "data" / "wire_goldens.json"

# Field widths of the fixed block, summed here as an independent
# oracle for the 120-byte figure.
EXPECTED_WIDTHS = {
    "sender_lo": 4,
    "recipient_lo": 4,
    "signature": 64,
    "tx_type": 4,
    "block_ref": 8,
    "timestamp": 4,
    "node_id": 8,
    "view": 8,
    "client_request": 8,
    "seq": 8,
}
FIELDS = sum(EXPECTED_WIDTHS.values())
HEADER = 2  # kind tag and presence flags


def expected_size(msg):
    """Frame size from the documented layout: header, fixed fields,
    then the payload or the digest."""
    variable = msg.tx.payload_size if msg.tx is not None else 32
    return HEADER + FIELDS + variable


def make_protocol_msg(**overrides):
    base = dict(kind=MsgKind.PREPARE, sender=1, recipient=None,
                view=0, seq=1, digest=bytes(DIGEST_SIZE))
    base.update(overrides)
    return Message(**base)


def make_tx_msg(payload_size=1000, **overrides):
    tx = Transaction(origin=2, counter=9, payload_size=payload_size,
                     created_at=0.5)
    base = dict(kind=MsgKind.TX_BROADCAST, sender=2, recipient=0,
                view=0, seq=0, tx=tx, timestamp=500)
    base.update(overrides)
    return Message(**base)


# ---------------------------------------------------------------- quorums

def test_fault_tolerance_examples():
    assert fault_tolerance(4) == 1
    assert fault_tolerance(5) == 1
    assert fault_tolerance(7) == 2
    assert fault_tolerance(25) == 8
    assert fault_tolerance(1) == 0


def test_fault_tolerance_rejects_empty_network():
    with pytest.raises(ValueError):
        fault_tolerance(0)
    with pytest.raises(ValueError):
        fault_tolerance(-3)


def test_quorum_examples():
    assert prepare_quorum(4) == 2
    assert commit_quorum(4) == 3
    assert prepare_quorum(25) == 16
    assert commit_quorum(25) == 17
    assert prepare_quorum(1) == 0
    assert commit_quorum(1) == 1


@given(st.integers(min_value=1, max_value=200))
def test_quorum_invariants(n):
    f = fault_tolerance(n)
    assert 3 * f + 1 <= n <= 3 * f + 3
    assert prepare_quorum(n) == 2 * f
    assert commit_quorum(n) == 2 * f + 1
    assert commit_quorum(n) <= n
    if n > 1:
        assert fault_tolerance(n) >= fault_tolerance(n - 1)


# ------------------------------------------------------------ wire sizes

def test_fixed_field_block_is_120_bytes():
    assert FIXED_FIELDS_SIZE == FIELDS == 120


def test_protocol_message_body_is_152_bytes():
    msg = make_protocol_msg()
    assert msg.size - HEADER == 120 + 32 == 152
    assert msg.size == expected_size(msg) == len(encode(msg))


def test_default_transaction_body_is_1120_bytes():
    msg = make_tx_msg(payload_size=1000)
    assert msg.size - HEADER == 120 + 1000 == 1120
    assert msg.size == expected_size(msg) == len(encode(msg))


def test_short_payload_transaction_body_is_136_bytes():
    msg = make_tx_msg(payload_size=16)
    assert msg.size - HEADER == 120 + 16 == 136
    assert msg.size == expected_size(msg) == len(encode(msg))


def test_frame_adds_two_header_bytes():
    for msg, body in ((make_protocol_msg(), 152), (make_tx_msg(), 1120)):
        frame = encode(msg)
        assert len(frame) == msg.size == body + 2
        assert frame[0] == msg.kind
    assert HEADER_SIZE == HEADER


TX_CARRIERS = {MsgKind.TX_BROADCAST, MsgKind.CLIENT_REQUEST}


@pytest.mark.parametrize("payload", [16, 1000])
@pytest.mark.parametrize("carries_tx", [True, False],
                         ids=["transaction", "digest"])
@pytest.mark.parametrize("kind", list(MsgKind), ids=lambda k: k.name)
def test_cached_size_is_the_frame_size(kind, carries_tx, payload):
    if carries_tx:
        msg = make_tx_msg(payload_size=payload, kind=kind)
    else:
        msg = make_protocol_msg(kind=kind)
    assert msg.size == expected_size(msg)
    if carries_tx == (kind in TX_CARRIERS):
        assert msg.size == len(encode(msg))
    else:
        with pytest.raises(EncodeError):
            encode(msg)


# ------------------------------------------------------------- goldens

def golden_entries():
    with open(GOLDENS) as fh:
        return json.load(fh)


def message_from_golden(entry):
    tx = None
    if entry["tx"] is not None:
        tx = Transaction(**entry["tx"])
    digest = bytes.fromhex(entry["digest_hex"]) if entry["digest_hex"] else None
    return Message(
        kind=MsgKind(entry["kind"]), sender=entry["sender"],
        recipient=entry["recipient"], view=entry["view"], seq=entry["seq"],
        digest=digest, tx=tx, block_ref=entry["block_ref"],
        timestamp=entry["timestamp"], client_request=entry["client_request"])


@pytest.mark.parametrize("entry", golden_entries(),
                         ids=lambda e: e["name"])
def test_golden_encode(entry):
    msg = message_from_golden(entry)
    assert encode(msg).hex() == entry["frame_hex"]
    assert msg.size == HEADER + entry["body_size"] == len(encode(msg))
    assert msg.size == expected_size(msg)


@pytest.mark.parametrize("entry", golden_entries(),
                         ids=lambda e: e["name"])
def test_golden_decode(entry):
    msg = message_from_golden(entry)
    decoded = decode(bytes.fromhex(entry["frame_hex"]))
    assert decoded == msg
    assert decoded.size == msg.size


# ------------------------------------------------------------ round trip

def protocol_messages():
    digests = st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE)
    kinds = st.sampled_from([MsgKind.PRE_PREPARE, MsgKind.PREPARE,
                             MsgKind.COMMIT, MsgKind.RETRY_REQUEST,
                             MsgKind.VIEW_CHANGE, MsgKind.NEW_VIEW])
    return st.builds(
        Message,
        kind=kinds,
        sender=st.integers(0, 2**32 - 1),
        recipient=st.one_of(st.none(), st.integers(0, 2**32 - 2)),
        view=st.integers(0, 2**64 - 1),
        seq=st.integers(0, 2**64 - 1),
        digest=digests,
        tx=st.none(),
        block_ref=st.integers(0, 2**64 - 1),
        timestamp=st.integers(0, 2**32 - 1),
        client_request=st.integers(0, 2**64 - 1),
    )


def tx_messages():
    # Wire-canonical: creation time sits on the millisecond grid and
    # matches the timestamp field; relays zero it.
    def build(kind, sender, recipient, view, seq, origin, counter,
              payload_size, tx_type, stamp):
        created = stamp / 1000.0 if kind == MsgKind.TX_BROADCAST else 0.0
        tx = Transaction(origin=origin, counter=counter,
                         payload_size=payload_size, tx_type=tx_type,
                         created_at=created)
        return Message(kind=kind, sender=sender, recipient=recipient,
                       view=view, seq=seq, tx=tx, timestamp=stamp)

    return st.builds(
        build,
        kind=st.sampled_from([MsgKind.TX_BROADCAST, MsgKind.CLIENT_REQUEST]),
        sender=st.integers(0, 2**32 - 1),
        recipient=st.one_of(st.none(), st.integers(0, 2**32 - 2)),
        view=st.integers(0, 2**64 - 1),
        seq=st.integers(0, 2**64 - 1),
        origin=st.integers(0, 2**32 - 1),
        counter=st.integers(0, 2**32 - 1),
        payload_size=st.integers(1, 1500),
        tx_type=st.integers(0, 2**32 - 1),
        stamp=st.integers(0, 2**32 - 1),
    )


@settings(max_examples=200)
@given(st.one_of(protocol_messages(), tx_messages()))
def test_codec_round_trip(msg):
    frame = encode(msg)
    assert msg.size == expected_size(msg) == len(frame)
    copy = decode(frame)
    assert copy == msg
    assert encode(copy) == frame
    # The cached size is derived state: it takes no part in equality
    # and is not echoed by repr.
    copy.size = -1
    assert copy == msg
    assert not re.search(r"\bsize=", repr(msg))


# ---------------------------------------------------------------- errors

def test_encode_rejects_message_with_both_parts():
    msg = make_protocol_msg()
    msg.tx = Transaction(origin=1, counter=1)
    with pytest.raises(EncodeError):
        encode(msg)


def test_encode_rejects_message_with_neither_part():
    msg = make_protocol_msg()
    msg.digest = None
    with pytest.raises(EncodeError):
        encode(msg)


def test_encode_rejects_wrong_digest_length():
    with pytest.raises(EncodeError):
        encode(make_protocol_msg(digest=bytes(31)))


def test_encode_rejects_empty_payload():
    tx = Transaction(origin=1, counter=1, payload_size=0)
    msg = Message(kind=MsgKind.TX_BROADCAST, sender=1, recipient=0,
                  view=0, seq=0, tx=tx)
    with pytest.raises(EncodeError):
        encode(msg)


def test_encode_rejects_kind_payload_mismatch():
    with pytest.raises(EncodeError):
        encode(make_protocol_msg(kind=MsgKind.TX_BROADCAST))
    with pytest.raises(EncodeError):
        encode(make_tx_msg(kind=MsgKind.COMMIT))


def test_decode_rejects_corrupted_lengths():
    rng = random.Random(7)
    frame = encode(make_tx_msg())
    for _ in range(10):
        cut = rng.randrange(1, len(frame) - 1)
        mangled = frame[:cut]
        with pytest.raises(FrameError):
            decode(mangled)


def test_decode_rejects_unknown_kind():
    frame = bytearray(encode(make_protocol_msg()))
    frame[0] = 99
    with pytest.raises(FrameError):
        decode(bytes(frame))


def test_decode_rejects_bad_flags():
    frame = bytearray(encode(make_protocol_msg()))
    for flags in (0x00, 0x03, 0x04):
        frame[1] = flags
        with pytest.raises(FrameError):
            decode(bytes(frame))


def test_decode_rejects_oversized_protocol_frame():
    frame = encode(make_protocol_msg())
    with pytest.raises(FrameError):
        decode(frame + b"\x00")


def test_decode_never_panics_on_random_bytes():
    rng = random.Random(11)
    for _ in range(200):
        blob = rng.randbytes(rng.randrange(0, 300))
        try:
            decode(blob)
        except FrameError:
            pass


# ---------------------------------------------------------------- digest

def test_block_digest_is_deterministic():
    ids = [(1, 1), (2, 4)]
    assert block_digest(3, ids) == block_digest(3, ids)
    assert len(block_digest(3, ids)) == DIGEST_SIZE


def test_block_digest_depends_on_order():
    a = block_digest(5, [(1, 1), (2, 2)])
    b = block_digest(5, [(2, 2), (1, 1)])
    assert a != b


def test_block_digest_depends_on_height():
    ids = [(1, 1), (2, 2)]
    assert block_digest(5, ids) != block_digest(6, ids)


def test_block_digest_handles_large_blocks():
    ids = [(i % 25, i) for i in range(1000)]
    assert len(block_digest(1, ids)) == DIGEST_SIZE


def test_block_digest_hashes_the_documented_layout():
    # Little-endian u64 words: height 5, then (1, 2) and the id with
    # the largest origin a word holds.
    layout = bytes.fromhex(
        "0500000000000000"
        "0100000000000000" "0200000000000000"
        "ffffffffffffffff" "0807060504030201")
    ids = [(1, 2), (2**64 - 1, 0x0102030405060708)]
    assert block_digest(5, ids) == hashlib.sha256(layout).digest()


@pytest.mark.parametrize("ids", [[(2**64, 0)], [(0, 2**64)], [(-1, 0)],
                                 [(1, 1), (0, -1)]])
def test_block_digest_rejects_ids_outside_u64(ids):
    with pytest.raises(struct.error):
        block_digest(1, ids)


def test_block_digest_rejects_empty_block():
    with pytest.raises(ValueError):
        block_digest(1, [])


def test_block_digest_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        block_digest(0, [(1, 1)])


def test_tx_id_is_one_tuple_outside_equality():
    t = Transaction(origin=3, counter=9, created_at=1.5)
    assert t.tx_id == (3, 9)
    assert t.tx_id is t.tx_id
    twin = Transaction(origin=3, counter=9, created_at=1.5)
    assert t == twin and hash(t) == hash(twin)
    assert t != Transaction(origin=3, counter=9, created_at=2.0)
    assert "tx_id" not in repr(t)
    with pytest.raises(TypeError):
        Transaction(origin=3, counter=9, tx_id=(0, 0))


def test_block_ref_is_first_eight_digest_bytes():
    digest = block_digest(9, [(3, 7)])
    ref = block_ref_from_digest(digest)
    assert ref == int.from_bytes(digest[:8], "little")
    assert 0 <= ref < 2**64


def test_broadcast_sentinel_round_trips():
    msg = make_protocol_msg(recipient=BROADCAST)
    assert decode(encode(msg)).recipient is None
