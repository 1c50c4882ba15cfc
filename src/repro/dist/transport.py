"""Pluggable transports for the multi-process agent deployment.

A transport owns the mailboxes of a fixed set of named nodes and knows
how to launch node bodies — as threads (in-proc) or as forked OS
processes (multiprocessing pipes, TCP).  Node code is written once
against the tiny :class:`Channel` interface: ``send(dst, frame)``,
``recv(timeout)``.  Frames are JSON objects; every transport moves them
as encoded bytes, so byte-level overhead accounting is uniform and the
serialization path is exercised even by the in-proc transport.

The three implementations trade realism for speed:

* ``inproc`` — every node is a thread; mailboxes are ``queue.Queue``.
  Fast, single-process, still forces all state through serialized
  messages.
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
import queue
import socket
import struct
import threading
from typing import Callable, Mapping

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
        """Release the endpoint (sockets override; queues need nothing)."""

    def _send_bytes(self, dst: str, data: bytes) -> None:
        raise NotImplementedError

    def _recv_bytes(self, timeout: float | None) -> bytes | None:
        raise NotImplementedError


class Transport:
    """Owns mailboxes for ``names`` and launches node bodies.

    Lifecycle: construct with the full node-name set, ``spawn`` each
    node body (the body receives its :class:`Channel`), use
    ``channel(name)`` for nodes hosted by the calling thread (the
    supervisor), then ``shutdown()``.
    """

    name = "abstract"

    def __init__(self, names: tuple[str, ...]) -> None:
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        self.names = names

    def channel(self, name: str) -> Channel:
        """An endpoint bound to ``name``'s mailbox, for the caller's use."""
        raise NotImplementedError

    def spawn(self, name: str, body: Callable[[Channel], None]) -> None:
        """Launch a node body bound to ``name``'s mailbox."""
        raise NotImplementedError

    def shutdown(self, timeout: float = 10.0) -> None:
        """Join every spawned node; forcefully terminate stragglers."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# inproc: threads + queue.Queue
# ----------------------------------------------------------------------


class _QueueChannel(Channel):
    def __init__(self, name: str, queues: dict[str, "queue.Queue[bytes]"]):
        super().__init__(name)
        self._queues = queues

    def _send_bytes(self, dst: str, data: bytes) -> None:
        try:
            self._queues[dst].put(data)
        except KeyError:
            raise ConfigurationError(f"unknown node {dst!r}") from None

    def _recv_bytes(self, timeout: float | None) -> bytes | None:
        try:
            return self._queues[self.name].get(timeout=timeout)
        except queue.Empty:
            return None


class InProcTransport(Transport):
    """All nodes are threads of the calling process."""

    name = "inproc"

    def __init__(self, names: tuple[str, ...]) -> None:
        super().__init__(names)
        self._queues: dict[str, queue.Queue[bytes]] = {
            name: queue.Queue() for name in names
        }
        self._threads: list[threading.Thread] = []

    def channel(self, name: str) -> Channel:
        """See :meth:`Transport.channel`."""
        return _QueueChannel(name, self._queues)

    def spawn(self, name: str, body: Callable[[Channel], None]) -> None:
        channel = self.channel(name)
        thread = threading.Thread(
            target=body, args=(channel,), name=f"dist-{name}", daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def shutdown(self, timeout: float = 10.0) -> None:
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()


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

    Fork (not spawn) start method: node bodies are closures over the
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

    def spawn(self, name: str, body: Callable[[Channel], None]) -> None:
        channel = self.channel(name)
        process = self._ctx.Process(
            target=body, args=(channel,), name=f"dist-{name}", daemon=True
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

    def spawn(self, name: str, body: Callable[[Channel], None]) -> None:
        port = self.port

        def _process_body() -> None:
            body(_TCPChannel(name, port))

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
        return InProcTransport(names)
    if kind == "mp":
        return MPTransport(names)
    if kind == "tcp":
        return TCPTransport(names)
    raise ConfigurationError(
        f"unknown transport {kind!r}; choose one of {', '.join(TRANSPORTS)}"
    )
