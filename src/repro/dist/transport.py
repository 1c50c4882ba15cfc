"""Pluggable transports for the agent deployment.

A transport owns the mailboxes of a fixed set of named nodes and knows
how to host nodes — as objects called in turn on the caller's thread
(in-proc) or as forked OS processes (multiprocessing pipes, TCP).  Node
code is written once against the tiny :class:`Channel` interface:
``send(dst, frame)``, ``recv(timeout)``.  A node is built by a factory
from its channel and exposes ``deliver(frame)`` (take one frame without
blocking) and ``run()`` (the ``recv -> deliver`` loop of a forked
node).  Frames are JSON objects; every transport moves them as encoded
bytes, so byte-level overhead accounting is uniform and the
serialization path is exercised even by the in-proc transport.

The three implementations trade realism for speed:

* ``inproc`` — every node is an object of the calling process; a frame
  sent to it is decoded and handed to its ``deliver`` before ``send``
  returns.  Single-threaded and deterministic, still forces all state
  through serialized messages, and an error raised in a node surfaces
  on the caller's thread at once.
* ``mp`` — every node is a forked OS process; mailboxes are
  ``multiprocessing`` pipes, one receive end per node, with a lock
  serializing the many writers of each send end.
* ``tcp`` — every node is a forked OS process that dials a router
  socket in the supervisor process; the router forwards length-prefixed
  frames by destination name.  The slowest and the closest to a real
  deployment.

Delivery guarantee (all transports): frames from one sender to one
receiver arrive in order and uncorrupted; there is no global ordering
across senders.  The supervisor's round protocol is built on
count-based barriers and never relies on cross-sender ordering.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from collections import deque
from typing import Callable, Mapping, Protocol

from repro.errors import ConfigurationError

__all__ = [
    "TRANSPORTS",
    "Channel",
    "Transport",
    "make_transport",
    "trace_context_of",
    "with_trace_context",
]

#: Transport names selectable via ``dmra agents --transport``.
TRANSPORTS = ("inproc", "mp", "tcp")

_LEN = struct.Struct(">I")

#: Wire key carrying distributed-trace context on control frames.
TRACE_KEY = "trace"


def with_trace_context(
    frame: dict, trace_id: str, parent_span_ref: str
) -> dict:
    """Stamp ``(trace_id, parent_span_id)`` context onto a wire frame.

    The context rides as a plain two-element list under
    :data:`TRACE_KEY`, so it survives every transport's JSON encoding
    unchanged and costs nothing when absent.
    """
    frame[TRACE_KEY] = [trace_id, parent_span_ref]
    return frame


def trace_context_of(frame: Mapping) -> tuple[str, str] | None:
    """The ``(trace_id, parent_span_ref)`` context of a frame, if any."""
    ctx = frame.get(TRACE_KEY)
    if isinstance(ctx, (list, tuple)) and len(ctx) == 2:
        return str(ctx[0]), str(ctx[1])
    return None


def encode_frame(frame: Mapping) -> bytes:
    """Serialize a frame to compact JSON bytes (the wire form)."""
    return json.dumps(frame, separators=(",", ":")).encode()


def decode_frame(data: bytes) -> dict:
    """Inverse of :func:`encode_frame`."""
    return json.loads(data.decode())


class Channel:
    """One node's endpoint: send frames to any node, receive its own.

    Subclasses implement ``_send_bytes`` / ``_recv_bytes``; the byte
    accounting lives here so every transport reports comparable
    numbers.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def send(self, dst: str, frame: Mapping) -> int:
        """Send a frame; returns the encoded size in bytes."""
        data = encode_frame(frame)
        self._send_bytes(dst, data)
        return len(data)

    def recv(self, timeout: float | None = None) -> dict | None:
        """Receive the next frame addressed to this node; ``None`` on
        timeout."""
        data = self._recv_bytes(timeout)
        return None if data is None else decode_frame(data)

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release the endpoint (sockets override; the rest need nothing)."""

    def _send_bytes(self, dst: str, data: bytes) -> None:
        raise NotImplementedError

    def _recv_bytes(self, timeout: float | None) -> bytes | None:
        raise NotImplementedError


class Node(Protocol):
    """What a transport hosts: built once per name from its channel."""

    def deliver(self, frame: dict) -> None:
        """Take one frame addressed to this node, without blocking."""

    def run(self) -> None:
        """Receive and deliver frames until the node stops."""


NodeFactory = Callable[[Channel], Node]


class Transport:
    """Owns mailboxes for ``names`` and hosts their nodes.

    Lifecycle: construct with the full node-name set, ``spawn`` each
    node from its factory (the factory receives the node's
    :class:`Channel`), use ``channel(name)`` for nodes hosted by the
    calling thread (the supervisor), then ``shutdown()``.
    """

    name = "abstract"

    def __init__(self, names: tuple[str, ...]) -> None:
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        self.names = names

    def channel(self, name: str) -> Channel:
        """An endpoint bound to ``name``'s mailbox, for the caller's use."""
        raise NotImplementedError

    def spawn(self, name: str, factory: NodeFactory) -> None:
        """Host the node ``factory`` builds on ``name``'s mailbox."""
        raise NotImplementedError

    def shutdown(self, timeout: float = 10.0) -> None:
        """Join every spawned node; forcefully terminate stragglers."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# inproc: node objects called in turn on the caller's thread
# ----------------------------------------------------------------------


class _CallChannel(Channel):
    """Sends hand each frame straight to its receiver; ``recv`` reads
    this name's mailbox, which holds frames for names with no node."""

    def __init__(self, name: str, route, mailbox: "deque[bytes]") -> None:
        super().__init__(name)
        self._route = route
        self._mailbox = mailbox

    def _send_bytes(self, dst: str, data: bytes) -> None:
        self._route(dst, data)

    def _recv_bytes(self, timeout: float | None) -> bytes | None:
        # Every frame is in place before its send returns, so waiting
        # could never bring one more: an empty mailbox answers at once.
        return self._mailbox.popleft() if self._mailbox else None


class SyncTransport(Transport):
    """Every node is an object of the calling process, called in turn.

    ``spawn`` builds the node once; each frame later sent to it is
    decoded and handed to its ``deliver`` before ``send`` returns.  A
    name with no node (the supervisor) keeps its frames in a mailbox
    for its own channel to read.  No thread is started.
    """

    name = "inproc"

    def __init__(self, names: tuple[str, ...]) -> None:
        super().__init__(names)
        self._mailboxes: dict[str, deque[bytes]] = {
            name: deque() for name in names
        }
        self._nodes: dict[str, Node] = {}

    def channel(self, name: str) -> Channel:
        """See :meth:`Transport.channel`."""
        return _CallChannel(name, self._route, self._mailboxes[name])

    def spawn(self, name: str, factory: NodeFactory) -> None:
        node = factory(self.channel(name))
        self._nodes[name] = node
        backlog = self._mailboxes[name]
        while backlog:
            node.deliver(decode_frame(backlog.popleft()))

    def shutdown(self, timeout: float = 10.0) -> None:
        self._nodes.clear()

    def _route(self, dst: str, data: bytes) -> None:
        node = self._nodes.get(dst)
        if node is not None:
            node.deliver(decode_frame(data))
            return
        try:
            self._mailboxes[dst].append(data)
        except KeyError:
            raise ConfigurationError(f"unknown node {dst!r}") from None


# ----------------------------------------------------------------------
# mp: forked processes + per-node pipes
# ----------------------------------------------------------------------


class _PipeChannel(Channel):
    """Writers share each node's pipe send-end behind a lock; only the
    owning node reads its receive end."""

    def __init__(self, name, senders, locks, receiver):
        super().__init__(name)
        self._senders = senders
        self._locks = locks
        self._receiver = receiver

    def _send_bytes(self, dst: str, data: bytes) -> None:
        try:
            sender, lock = self._senders[dst], self._locks[dst]
        except KeyError:
            raise ConfigurationError(f"unknown node {dst!r}") from None
        with lock:
            sender.send_bytes(data)

    def _recv_bytes(self, timeout: float | None) -> bytes | None:
        if timeout is not None and not self._receiver.poll(timeout):
            return None
        return self._receiver.recv_bytes()


class MPTransport(Transport):
    """Every node is a forked OS process; mailboxes are pipes.

    Fork (not spawn) start method: node factories are closures over the
    scenario, which fork inherits for free.  One ``Lock`` per mailbox
    serializes its many writers.
    """

    name = "mp"

    def __init__(self, names: tuple[str, ...]) -> None:
        super().__init__(names)
        self._ctx = _fork_context()
        self._receivers = {}
        self._senders = {}
        self._locks = {}
        for name in names:
            receiver, sender = self._ctx.Pipe(duplex=False)
            self._receivers[name] = receiver
            self._senders[name] = sender
            self._locks[name] = self._ctx.Lock()
        self._processes = []

    def channel(self, name: str) -> Channel:
        """See :meth:`Transport.channel`."""
        return _PipeChannel(
            name, self._senders, self._locks, self._receivers[name]
        )

    def spawn(self, name: str, factory: NodeFactory) -> None:
        channel = self.channel(name)
        process = self._ctx.Process(
            target=_run_node, args=(factory, channel), name=f"dist-{name}",
            daemon=True,
        )
        process.start()
        self._processes.append(process)

    def shutdown(self, timeout: float = 10.0) -> None:
        for process in self._processes:
            process.join(timeout=timeout)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - crash cleanup
                process.terminate()
                process.join(timeout=1.0)
        self._processes.clear()


def _run_node(factory: NodeFactory, channel: Channel) -> None:
    """A forked node's whole life: build it, then receive until stop."""
    factory(channel).run()


def _fork_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        raise ConfigurationError(
            "the mp/tcp transports need the fork start method; "
            "use --transport inproc on this platform"
        ) from None


# ----------------------------------------------------------------------
# tcp: forked processes + a router socket in the supervisor process
# ----------------------------------------------------------------------


def _send_framed(sock: socket.socket, data: bytes, lock) -> None:
    with lock:
        sock.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_framed(sock: socket.socket) -> bytes | None:
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    return _recv_exact(sock, length)


class _TCPChannel(Channel):
    """A node's client connection to the router.

    Outbound frames gain a one-line envelope (``{"d": dst, "p": data}``
    … serialized as a routing prefix) — here simply: the channel wraps
    the payload with its destination so the router can forward it.
    Inbound frames arrive payload-only.
    """

    def __init__(self, name: str, port: int) -> None:
        super().__init__(name)
        self._sock = socket.create_connection(("127.0.0.1", port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()
        # Hello frame: tells the router which mailbox this conn owns.
        _send_framed(self._sock, ("H" + name).encode(), self._lock)

    def _send_bytes(self, dst: str, data: bytes) -> None:
        _send_framed(self._sock, b"M" + dst.encode() + b"\x00" + data, self._lock)

    def _recv_bytes(self, timeout: float | None) -> bytes | None:
        self._sock.settimeout(timeout)
        try:
            return _recv_framed(self._sock)
        except TimeoutError:
            return None

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


class TCPTransport(Transport):
    """Forked node processes dialing a router thread over loopback TCP.

    The router accepts one connection per node (identified by a hello
    frame), then forwards ``M<dst>\\x00<payload>`` frames to the
    destination's connection.  Frames destined for a node that has not
    connected yet are buffered.
    """

    name = "tcp"

    def __init__(self, names: tuple[str, ...]) -> None:
        super().__init__(names)
        self._ctx = _fork_context()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._conns: dict[str, socket.socket] = {}
        self._conn_locks: dict[str, threading.Lock] = {}
        self._backlog: dict[str, list[bytes]] = {}
        self._state_lock = threading.Lock()
        self._reader_threads: list[threading.Thread] = []
        self._processes = []
        self._expected = len(names)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-router-accept", daemon=True
        )
        self._accept_thread.start()

    # -- router internals ------------------------------------------------

    def _accept_loop(self) -> None:
        accepted = 0
        while accepted < self._expected:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed during shutdown
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = _recv_framed(conn)
            if hello is None or not hello.startswith(b"H"):
                conn.close()
                continue
            name = hello[1:].decode()
            with self._state_lock:
                self._conns[name] = conn
                self._conn_locks[name] = threading.Lock()
                # Flush under the state lock: a frame routed to ``name``
                # from now on must queue behind the buffered ones.
                for data in self._backlog.pop(name, []):
                    _send_framed(conn, data, self._conn_locks[name])
            reader = threading.Thread(
                target=self._reader_loop,
                args=(name, conn),
                name=f"dist-router-{name}",
                daemon=True,
            )
            reader.start()
            self._reader_threads.append(reader)
            accepted += 1

    def _reader_loop(self, name: str, conn: socket.socket) -> None:
        while True:
            try:
                frame = _recv_framed(conn)
            except OSError:
                return
            if frame is None:
                return
            if not frame.startswith(b"M"):
                continue
            sep = frame.index(b"\x00")
            dst = frame[1:sep].decode()
            self._route(dst, frame[sep + 1 :])

    def _route(self, dst: str, data: bytes) -> None:
        with self._state_lock:
            conn = self._conns.get(dst)
            if conn is None:
                self._backlog.setdefault(dst, []).append(data)
                return
            lock = self._conn_locks[dst]
        try:
            _send_framed(conn, data, lock)
        except OSError:  # pragma: no cover - receiver went away
            pass

    # -- Transport interface ---------------------------------------------

    def channel(self, name: str) -> Channel:
        """See :meth:`Transport.channel` (dials the router)."""
        return _TCPChannel(name, self.port)

    def spawn(self, name: str, factory: NodeFactory) -> None:
        port = self.port

        def _process_body() -> None:
            _run_node(factory, _TCPChannel(name, port))

        process = self._ctx.Process(
            target=_process_body, name=f"dist-{name}", daemon=True
        )
        process.start()
        self._processes.append(process)

    def shutdown(self, timeout: float = 10.0) -> None:
        for process in self._processes:
            process.join(timeout=timeout)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - crash cleanup
                process.terminate()
                process.join(timeout=1.0)
        self._processes.clear()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._state_lock:
            for conn in self._conns.values():
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._conns.clear()


def make_transport(kind: str, names: tuple[str, ...]) -> Transport:
    """Build the transport named by ``--transport``."""
    if kind == "inproc":
        return SyncTransport(names)
    if kind == "mp":
        return MPTransport(names)
    if kind == "tcp":
        return TCPTransport(names)
    raise ConfigurationError(
        f"unknown transport {kind!r}; choose one of {', '.join(TRANSPORTS)}"
    )
