import math
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmpc.errors import PeerGone, ProtocolDesync, TransportUnavailable
from asmpc.transport import (
    PROTOCOL_VERSION,
    Frame,
    SessionTranscript,
    Tag,
    decode_step,
    encode_frame,
    encode_step,
    make_inproc_pair,
    tcp_connect,
    tcp_listen_ephemeral,
)

MIXED_TAGS = (Tag.D, Tag.SIGN, Tag.E, Tag.SHARE, Tag.SIGN)
MIXED_VALUES = [0.1, 2, -3.5, 1e300, 0]


def _step(session_id, step, tags, values):
    return Frame(session_id, step, Tag.STEP, encode_step(tags, values))


def test_step_round_trip():
    payload = encode_step(MIXED_TAGS, MIXED_VALUES)
    assert decode_step(payload, MIXED_TAGS) == MIXED_VALUES
    assert encode_step((), ()) == b""
    assert decode_step(b"", ()) == []
    # The peer must send exactly the tags this party expects.
    for expected in (MIXED_TAGS[:-1], MIXED_TAGS[::-1], MIXED_TAGS + (Tag.D,)):
        with pytest.raises(ProtocolDesync):
            decode_step(payload, expected)


def test_bad_sign_byte_rejected():
    assert decode_step(encode_step((Tag.SIGN,), (2,)), (Tag.SIGN,)) == [2]
    with pytest.raises(ProtocolDesync):
        decode_step(encode_step((Tag.D, Tag.SIGN), (1.0, 3)), (Tag.D, Tag.SIGN))


def test_non_finite_scalar_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        payload = encode_step((Tag.E, Tag.D), (1.0, bad))
        with pytest.raises(ProtocolDesync):
            decode_step(payload, (Tag.E, Tag.D))


def test_wire_encoding_layout():
    f = _step(0x0102030405060708, 0x0A0B, (Tag.SIGN, Tag.E, Tag.D),
              (1, 1.0, -2.0))
    data = encode_frame(f)
    assert data[:4] == (1 + 1 + 1 + 8 + 8 + 1).to_bytes(4, "big")
    assert data[4:12] == (0x0102030405060708).to_bytes(8, "big")
    assert data[12:14] == (0x0A0B).to_bytes(2, "big")
    assert data[14] == int(Tag.STEP)
    # Tag bytes, then the scalars in order, then the sign bytes.
    assert data[15:18] == bytes([Tag.SIGN, Tag.E, Tag.D])
    assert data[18:34] == struct.pack("<dd", 1.0, -2.0)
    assert data[34:] == b"\x01"
    assert data[15:] == f.payload


SENT_TAGS = st.lists(st.sampled_from([Tag.D, Tag.E, Tag.SIGN, Tag.SHARE]),
                     max_size=6)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), sent=SENT_TAGS, expected=SENT_TAGS)
def test_decode_step_decodes_or_desyncs(data, sent, expected):
    values = [data.draw(st.integers(0, 3) if tag is Tag.SIGN else st.floats())
              for tag in sent]
    payload = encode_step(sent, values)
    edit = data.draw(st.sampled_from(["keep", "flip", "cut", "grow", "random"]))
    if edit == "flip" and payload:
        i = data.draw(st.integers(0, len(payload) - 1))
        flipped = payload[i] ^ data.draw(st.integers(1, 255))
        payload = payload[:i] + bytes([flipped]) + payload[i + 1:]
    elif edit == "cut":
        payload = payload[:data.draw(st.integers(0, len(payload)))]
    elif edit == "grow":
        payload += data.draw(st.binary(min_size=1, max_size=9))
    elif edit == "random":
        payload = data.draw(st.binary(max_size=64))
    valid = edit == "keep" and sent == expected and all(
        value <= 2 if tag is Tag.SIGN else math.isfinite(value)
        for tag, value in zip(sent, values))
    try:
        got = decode_step(payload, expected)
    except ProtocolDesync:
        assert not valid
        return
    assert len(got) == len(expected)
    if valid:
        assert got == values


def test_inproc_fifo_order():
    a, b = make_inproc_pair()
    frames = [_step(1, i % 7, (Tag.D,), (float(i),)) for i in range(1000)]
    for f in frames:
        a.send(f)
    got = [b.recv() for _ in range(1000)]
    assert got == frames


def test_inproc_close_raises_peer_gone():
    a, b = make_inproc_pair()
    a.close()
    with pytest.raises(PeerGone):
        b.recv()


def _tcp_pair(session=5, client_version=None):
    port, accept = tcp_listen_ephemeral("127.0.0.1", session)
    result = {}

    def server():
        try:
            result["server"] = accept()
        except Exception as exc:  # noqa: BLE001
            result["server_error"] = exc

    t = threading.Thread(target=server)
    t.start()
    kwargs = {} if client_version is None else {"version": client_version}
    try:
        client = tcp_connect("127.0.0.1", port, session, timeout=5.0, **kwargs)
    except Exception as exc:  # noqa: BLE001
        t.join()
        raise exc
    t.join()
    if "server_error" in result:
        client.close()
        raise result["server_error"]
    return result["server"], client


def test_tcp_round_trip():
    server, client = _tcp_pair()
    try:
        for end in (server, client):
            assert end._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        sent = _step(5, 1, MIXED_TAGS, MIXED_VALUES)
        client.send(sent)
        got = server.recv()
        assert got == sent
        assert decode_step(got.payload, MIXED_TAGS) == MIXED_VALUES
        server.send(_step(5, 2, (), ()))
        assert client.recv() == Frame(5, 2, Tag.STEP, b"")
    finally:
        server.close()
        client.close()


def test_tcp_version_gate():
    for version in (PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1):
        with pytest.raises(TransportUnavailable) as err:
            _tcp_pair(client_version=version)
        assert "version" in str(err.value)


def test_tcp_close_means_peer_gone():
    server, client = _tcp_pair()
    client.close()
    with pytest.raises(PeerGone):
        server.recv()
    server.close()


def test_tcp_connect_nobody_listening():
    with pytest.raises(TransportUnavailable):
        tcp_connect("127.0.0.1", 1, 1, timeout=0.3)


# --- accounting ---------------------------------------------------------------

def test_simultaneous_exchange_counts_one_round():
    t = SessionTranscript(1)
    t.log(1, 1, "f", Tag.D, 1.0)
    t.log(1, 2, "f", Tag.D, 2.0)
    assert t.rounds == 1
    assert t.account() == (1, 64, 64, 128)


def test_dependent_steps_count_separately():
    t = SessionTranscript(1)
    t.log(1, 1, "u", Tag.E, 1.0)
    t.log(2, 2, "u", Tag.D, 2.0)
    assert t.rounds == 2
    assert t.account() == (2, 64, 64, 128)


def test_sign_bits_and_exclusions():
    t = SessionTranscript(1)
    t.log(1, 1, "c", Tag.SIGN, 1)
    t.log(1, 2, "c", Tag.SIGN, 2)
    t.log(2, 1, "c", Tag.SHARE, 1.0)   # reveal traffic is not protocol cost
    t.log(0, 1, "c", Tag.CONTROL, b"hello")
    assert t.account() == (1, 1, 1, 2)


def test_node_costs_split_by_node():
    t = SessionTranscript(1)
    t.log(1, 1, "f", Tag.D, 1.0)
    t.log(1, 2, "f", Tag.D, 1.0)
    t.log(1, 1, "g", Tag.D, 1.0)
    t.log(1, 2, "g", Tag.D, 1.0)
    t.log(2, 1, "g", Tag.E, 1.0)
    costs = t.node_costs()
    assert costs["f"] == (1, 128)
    assert costs["g"] == (2, 192)


def test_canonical_bytes_are_order_insensitive_across_parties():
    # Party 1 logs its own sends before the peer's; party 2 the reverse.
    t1 = SessionTranscript(9)
    t1.log(1, 1, "f", Tag.D, 1.5)
    t1.log(1, 2, "f", Tag.D, 2.5)
    t2 = SessionTranscript(9)
    t2.log(1, 2, "f", Tag.D, 2.5)
    t2.log(1, 1, "f", Tag.D, 1.5)
    assert t1.canonical_bytes() == t2.canonical_bytes()


def test_transcript_rows_round_trip():
    t = SessionTranscript(3)
    t.log(1, 1, "f", Tag.D, 1.0)
    t.log(1, 2, "f", Tag.SIGN, 0)
    back = SessionTranscript.from_rows(3, t.to_rows())
    assert back.canonical_bytes() == t.canonical_bytes()
