"""Two-party message channel with framing plus the cost accountant.

Wire format (tcp): 4-byte big-endian length, 8-byte session id, 2-byte
step, 1-byte tag, payload.  Scalars travel as little-endian IEEE-754
binary64; sign messages occupy one wire byte but count as one logical bit.

Accounting counts logical payload bits only (64 per scalar, 1 per sign)
and excludes framing, session-control frames, and output-share reveals.
Rounds are dependency layers: all frames that share one step index form a
single round even when both parties send simultaneously; a message that
depends on a previously received message must carry a later step index.
"""

from __future__ import annotations

import enum
import queue
import socket
import struct
import time
from dataclasses import dataclass, field

from .errors import PeerGone, ProtocolDesync, TransportUnavailable

PROTOCOL_VERSION = 1
DEFAULT_PORT = 7420
SCALAR_BITS = 64
SIGN_BITS = 1

_HEADER = struct.Struct(">IQHB")  # length, session, step, tag
_SCALAR = struct.Struct("<d")
_HANDSHAKE = struct.Struct(">5sHQ")
_MAGIC = b"ASMPC"


class Tag(enum.IntEnum):
    D = 1        # masked-difference scalar
    E = 2        # masked-difference scalar (second lane)
    SIGN = 3     # comparison sign message
    SHARE = 4    # output share during reveal
    CONTROL = 5  # session setup / abort, excluded from accounting


SCALAR_TAGS = (Tag.D, Tag.E, Tag.SHARE)
ACCOUNTED_TAGS = (Tag.D, Tag.E, Tag.SIGN)


@dataclass(frozen=True)
class Frame:
    session_id: int
    step: int
    tag: Tag
    payload: bytes

    def scalar(self) -> float:
        if self.tag not in SCALAR_TAGS:
            raise ProtocolDesync(f"frame tag {self.tag.name} carries no scalar")
        value = _SCALAR.unpack(self.payload)[0]
        if value != value or value in (float("inf"), float("-inf")):
            raise ProtocolDesync("non-finite scalar on the wire")
        return value

    def sign(self) -> int:
        if self.tag is not Tag.SIGN:
            raise ProtocolDesync(f"frame tag {self.tag.name} carries no sign")
        state = self.payload[0]
        if state not in (0, 1, 2):
            raise ProtocolDesync(f"bad sign payload {state}")
        return state


def encode_payload(tag: Tag, value) -> bytes:
    if tag in SCALAR_TAGS:
        return _SCALAR.pack(float(value))
    if tag is Tag.SIGN:
        return bytes([int(value)])
    return bytes(value)


def encode_frame(frame: Frame) -> bytes:
    body = _HEADER.pack(len(frame.payload), frame.session_id,
                        frame.step, int(frame.tag))
    return body + frame.payload


def _decode_header(data: bytes) -> tuple[int, int, int, Tag]:
    length, session_id, step, tag = _HEADER.unpack(data)
    try:
        tag = Tag(tag)
    except ValueError:
        raise ProtocolDesync(f"unknown frame tag {tag}")
    return length, session_id, step, tag


# --- channels --------------------------------------------------------------

class Channel:
    """Ordered, reliable frame pipe between the two parties."""

    def send(self, frame: Frame) -> None:
        raise NotImplementedError

    def recv(self) -> Frame:
        raise NotImplementedError

    def close(self) -> None:
        pass


_CLOSED = object()


class InProcChannel(Channel):
    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    def send(self, frame: Frame) -> None:
        if self._closed:
            raise PeerGone("channel closed")
        self._outbox.put(frame)

    def recv(self) -> Frame:
        try:
            item = self._inbox.get(timeout=30.0)
        except queue.Empty:
            raise PeerGone("peer silent for 30s")
        if item is _CLOSED:
            raise PeerGone("peer closed the channel")
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSED)


def make_inproc_pair() -> tuple[InProcChannel, InProcChannel]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (InProcChannel(b_to_a, a_to_b), InProcChannel(a_to_b, b_to_a))


class TcpChannel(Channel):
    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, frame: Frame) -> None:
        try:
            self._sock.sendall(encode_frame(frame))
        except OSError as exc:
            raise PeerGone(f"send failed: {exc}")

    def _recv_exact(self, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError as exc:
                raise PeerGone(f"recv failed: {exc}")
            if not chunk:
                raise PeerGone("peer closed the connection")
            buf += chunk
        return buf

    def recv(self) -> Frame:
        length, session_id, step, tag = _decode_header(
            self._recv_exact(_HEADER.size))
        payload = self._recv_exact(length) if length else b""
        return Frame(session_id, step, tag, payload)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _handshake(sock: socket.socket, session_id: int, version: int) -> None:
    sock.sendall(_HANDSHAKE.pack(_MAGIC, version, session_id))
    data = b""
    while len(data) < _HANDSHAKE.size:
        chunk = sock.recv(_HANDSHAKE.size - len(data))
        if not chunk:
            raise TransportUnavailable("peer closed during handshake")
        data += chunk
    magic, peer_version, peer_session = _HANDSHAKE.unpack(data)
    if magic != _MAGIC:
        raise TransportUnavailable("peer is not speaking this protocol")
    if peer_version != version:
        raise TransportUnavailable(
            f"protocol version mismatch: ours {version}, peer {peer_version}")
    if peer_session != session_id:
        raise TransportUnavailable(
            f"session mismatch: ours {session_id}, peer {peer_session}")


def tcp_listen(host: str, port: int, session_id: int,
               version: int = PROTOCOL_VERSION, timeout: float = 30.0) -> TcpChannel:
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        server.bind((host, port))
        server.listen(1)
        server.settimeout(timeout)
        conn, _ = server.accept()
    except socket.timeout:
        raise TransportUnavailable(f"no peer connected to {host}:{port}")
    except OSError as exc:
        raise TransportUnavailable(f"cannot listen on {host}:{port}: {exc}")
    finally:
        server.close()
    conn.settimeout(timeout)
    try:
        _handshake(conn, session_id, version)
    except TransportUnavailable:
        conn.close()
        raise
    return TcpChannel(conn)


def tcp_connect(host: str, port: int, session_id: int,
                version: int = PROTOCOL_VERSION, timeout: float = 30.0) -> TcpChannel:
    deadline = time.monotonic() + timeout
    last_error = None
    while time.monotonic() < deadline:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect((host, port))
        except OSError as exc:
            sock.close()
            last_error = exc
            time.sleep(0.05)
            continue
        try:
            _handshake(sock, session_id, version)
        except TransportUnavailable:
            sock.close()
            raise
        return TcpChannel(sock)
    raise TransportUnavailable(f"cannot reach {host}:{port}: {last_error}")


def tcp_listen_ephemeral(host: str, session_id: int,
                         version: int = PROTOCOL_VERSION, timeout: float = 30.0):
    """Bind an ephemeral port; returns (port, accept_fn) for tests."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, 0))
    server.listen(1)
    server.settimeout(timeout)
    port = server.getsockname()[1]

    def accept() -> TcpChannel:
        try:
            conn, _ = server.accept()
        except socket.timeout:
            raise TransportUnavailable("no peer connected")
        finally:
            server.close()
        conn.settimeout(timeout)
        try:
            _handshake(conn, session_id, version)
        except TransportUnavailable:
            conn.close()
            raise
        return TcpChannel(conn)

    return port, accept


# --- accountant -------------------------------------------------------------

@dataclass(frozen=True)
class TranscriptEntry:
    step: int
    sender: int
    seq: int          # per-sender transmission index, fixes canonical order
    node: str
    tag: Tag
    payload: bytes

    def bits(self) -> int:
        if self.tag in SCALAR_TAGS:
            return SCALAR_BITS
        if self.tag is Tag.SIGN:
            return SIGN_BITS
        return 0


@dataclass
class SessionTranscript:
    """Ordered log of one session's frames with round and bit counters.

    Both parties log the same global frame set (own sends plus received
    frames, which arrive in the peer's send order), so canonical
    serializations agree byte for byte across parties and transports.
    """

    session_id: int
    entries: list[TranscriptEntry] = field(default_factory=list)
    _seq: dict[int, int] = field(default_factory=lambda: {1: 0, 2: 0})

    def log(self, step: int, sender: int, node: str, tag: Tag, payload) -> None:
        data = payload if isinstance(payload, bytes) else encode_payload(tag, payload)
        seq = self._seq[sender]
        self._seq[sender] = seq + 1
        self.entries.append(TranscriptEntry(step, sender, seq, node, tag, data))

    def _accounted(self):
        return [e for e in self.entries if e.tag in ACCOUNTED_TAGS]

    @property
    def rounds(self) -> int:
        return len({e.step for e in self._accounted()})

    def bits_sent(self, party: int) -> int:
        return sum(e.bits() for e in self._accounted() if e.sender == party)

    def account(self) -> tuple[int, int, int, int]:
        """(rounds, bits_p1, bits_p2, bits_total) for the whole session."""
        b1, b2 = self.bits_sent(1), self.bits_sent(2)
        return (self.rounds, b1, b2, b1 + b2)

    def node_costs(self) -> dict[str, tuple[int, int]]:
        """Per-node (rounds, bits); a node's rounds are the distinct steps
        its own frames occupy."""
        per_node: dict[str, tuple[set, int]] = {}
        for e in self._accounted():
            steps, bits = per_node.setdefault(e.node, (set(), 0))
            steps.add(e.step)
            per_node[e.node] = (steps, bits + e.bits())
        return {node: (len(steps), bits) for node, (steps, bits) in per_node.items()}

    def canonical_bytes(self) -> bytes:
        lines = []
        for e in sorted(self.entries, key=lambda e: (e.step, e.sender, e.seq)):
            lines.append(f"{e.step},{e.sender},{e.seq},{e.node},"
                         f"{e.tag.name},{e.payload.hex()}")
        rounds, b1, b2, total = self.account()
        lines.append(f"account,{rounds},{b1},{b2},{total}")
        return ("\n".join(lines) + "\n").encode("ascii")

    def to_rows(self) -> list[list]:
        return [[e.step, e.sender, e.seq, e.node, e.tag.name, e.payload.hex()]
                for e in self.entries]

    @classmethod
    def from_rows(cls, session_id: int, rows) -> "SessionTranscript":
        t = cls(session_id)
        for step, sender, seq, node, tag_name, payload_hex in rows:
            t.entries.append(TranscriptEntry(
                int(step), int(sender), int(seq), node,
                Tag[tag_name], bytes.fromhex(payload_hex)))
        return t
