import threading

import pytest

from asmpc.errors import PeerGone, ProtocolDesync, TransportUnavailable
from asmpc.transport import (
    Frame,
    SessionTranscript,
    Tag,
    TranscriptEntry,
    encode_frame,
    encode_payload,
    make_inproc_pair,
    tcp_connect,
    tcp_listen_ephemeral,
)


def _frame(session_id, step, tag, value):
    return Frame(session_id, step, tag, encode_payload(tag, value))


def _bits(frame):
    return TranscriptEntry(frame.step, 1, 0, "f", frame.tag, frame.payload).bits()


def test_scalar_frame_round_trip():
    f = _frame(7, 3, Tag.D, 0.1)
    assert f.scalar() == 0.1
    assert _bits(f) == 64


def test_sign_frame():
    f = _frame(7, 3, Tag.SIGN, 2)
    assert f.sign() == 2
    assert _bits(f) == 1
    with pytest.raises(ProtocolDesync):
        Frame(7, 3, Tag.SIGN, b"\x07").sign()


def test_non_finite_scalar_rejected():
    import struct

    f = Frame(1, 1, Tag.D, struct.pack("<d", float("nan")))
    with pytest.raises(ProtocolDesync):
        f.scalar()


def test_wire_encoding_layout():
    f = _frame(0x0102030405060708, 0x0A0B, Tag.E, 1.0)
    data = encode_frame(f)
    assert data[:4] == (8).to_bytes(4, "big")
    assert data[4:12] == (0x0102030405060708).to_bytes(8, "big")
    assert data[12:14] == (0x0A0B).to_bytes(2, "big")
    assert data[14] == int(Tag.E)
    assert data[15:] == f.payload


def test_inproc_fifo_order():
    a, b = make_inproc_pair()
    frames = [_frame(1, i % 7, Tag.D, float(i)) for i in range(1000)]
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
        client.send(_frame(5, 1, Tag.D, 2.5))
        assert server.recv().scalar() == 2.5
        server.send(_frame(5, 2, Tag.SIGN, 1))
        assert client.recv().sign() == 1
    finally:
        server.close()
        client.close()


def test_tcp_version_gate():
    with pytest.raises(TransportUnavailable) as err:
        _tcp_pair(client_version=2)
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
