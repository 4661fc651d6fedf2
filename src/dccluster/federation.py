"""Single-round federation: wire format, transports, and party runners.

Every institution sends exactly one share and receives exactly one result;
the analyst receives c*d shares and answers each institution once.  Frames
are self-describing: a fixed magic, a kind byte, a little-endian payload
length, then a JSON header (length-prefixed) followed by raw row-major
little-endian float64 matrices in header order.  A message's dataclass is
its schema: the ndarray fields are the matrices and every other field is a
header key.  Neither message has a slot for offsets, scales, or axes, so a
conforming peer cannot leak its private map even by accident.  Decoded
matrices are views into the frame.

Transports only move frames.  On the analyst's side both are one `Inbox`
of `(frame, route)` pairs, where `route` carries a reply back to the
frame's sender: in-process users put their frames with their own down
queue as the route, and `TcpAnalystEndpoint` is an inbox fed by one reader
thread per accepted connection, routed back over that connection; its
listener blocks in `accept()` until `close()` shuts it down.  A user
endpoint sends one frame and receives one.  Every endpoint counts frames,
so single-round accounting can be asserted, and its `close()` ends the
wait on it.  The party runners (`user_party_run`, `analyst_party_run`) own
the protocol: codec, message kinds, and routing.  A session runs each
institution on a thread and the analyst on the calling thread; the first
party to fail closes every endpoint, so the session ends with its error.
"""
from __future__ import annotations

import json
import math
import os
import queue
import socket
import struct
import threading
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .clustering import assign_nearest
from .collaboration import (ALGORITHMS, MODES, CollaborationModel,
                            analyst_cluster, build_collaboration,
                            fit_intermediate, make_clustering_representation)
from .errors import (ConfigurationError, ContractViolationError, DecodeError,
                     ProtocolError, SessionError, SessionTimeoutError)
from .numerics import as_matrix
from .seeds import derive_seed

MAGIC = b"DCC1"
KIND_USER_SHARE = 1
KIND_ANALYST_RESULT = 2
_PREFIX = struct.Struct("<4sBQ")  # magic, kind, payload length
_HEADER_LEN = struct.Struct("<I")
MAX_PAYLOAD = 1 << 31
_MISSING = object()

DEFAULT_TIMEOUT_SECS = 60.0
TIMEOUT_ENV_VAR = "DCC_TIMEOUT_SECS"


def resolve_timeout(explicit: float | None = None) -> float:
    """Explicit value wins, then the environment override, then 60 s.

    Anything but a positive, finite number of seconds raises
    ConfigurationError naming where it came from.
    """
    source, value = "timeout", explicit
    if explicit is None:
        source = TIMEOUT_ENV_VAR
        value = os.environ.get(TIMEOUT_ENV_VAR, DEFAULT_TIMEOUT_SECS)
    try:
        secs = float(value)
    except (TypeError, ValueError):
        secs = math.nan
    if not (math.isfinite(secs) and secs > 0):
        raise ConfigurationError(
            f"{source}={value!r} is not a positive, finite number of seconds")
    return secs


def check_at_least_one(settings, *names):
    """ConfigurationError naming the first of `names` whose value is below
    1.  None passes: an optional count left unset means its default."""
    for name in names:
        value = getattr(settings, name)
        if value is not None and value < 1:
            raise ConfigurationError(f"{name} must be at least 1, got {value!r}")


@dataclass(kw_only=True)
class SessionSettings:
    """The choices every party of a session shares, for the experiment spec
    and the session config; a bad value raises before any party fits."""

    algorithm: str = "kmeans"
    mode: str = "affine"
    neighbors: int = 10
    max_iter: int = 300
    m_hat: int | None = None
    scale: bool = False
    restarts: int = 10

    def __post_init__(self):
        for name, choices in (("algorithm", ALGORITHMS), ("mode", MODES)):
            if getattr(self, name) not in choices:
                raise ConfigurationError(f"{name} must be one of {choices}")
        check_at_least_one(self, "neighbors", "max_iter", "restarts", "m_hat")


@dataclass
class SessionConfig(SessionSettings):
    c: int
    d: int
    k: int
    master_seed: int = 0
    timeout: float | None = None      # seconds, resolved by resolve_timeout

    def __post_init__(self):
        super().__post_init__()
        check_at_least_one(self, "c", "d", "k")
        self.timeout = resolve_timeout(self.timeout)

    def echo(self) -> dict:
        """Every setting but the timeout, which is each party's own."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "timeout"}


def _same_fields(self, other) -> bool:
    return type(other) is type(self) and all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in ((getattr(self, f.name), getattr(other, f.name))
                     for f in fields(self)))


@dataclass
class UserShareMsg:
    """Everything an institution reveals: its party id, two transformed
    matrices and the echo of its session config.  Raw features, means,
    scales, and axes stay local by construction; no field can carry them."""

    party: tuple[int, int]
    x_tilde: np.ndarray
    anchor_tilde: np.ndarray
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.party = (int(self.party[0]), int(self.party[1]))
        if self.party[0] < 0 or self.party[1] < 0:
            raise ProtocolError(f"party indices must be nonnegative: {self.party}")
        self.x_tilde = as_matrix(self.x_tilde, "x_tilde")
        self.anchor_tilde = as_matrix(self.anchor_tilde, "anchor_tilde")
        if self.x_tilde.shape[1] != self.anchor_tilde.shape[1]:
            raise ProtocolError("x_tilde and anchor_tilde widths differ")

    __eq__ = _same_fields


@dataclass
class AnalystResultMsg:
    """Per-row-block payload the analyst returns to its institutions."""

    row_block: int
    centroids: np.ndarray
    z_block: np.ndarray
    algorithm: str
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.row_block = int(self.row_block)
        self.centroids = as_matrix(self.centroids, "centroids")
        self.z_block = as_matrix(self.z_block, "z_block")

    __eq__ = _same_fields


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


# Each header key is checked by its field's declared type.  JSON has no
# tuples, so a pair arrives as a list.
_HEADER_CHECKS = {
    int: _is_int,
    str: lambda v: isinstance(v, str),
    dict: lambda v: isinstance(v, dict),
    tuple[int, int]: lambda v: (isinstance(v, list) and len(v) == 2
                                and all(map(_is_int, v))),
}
_CLASSES = {KIND_USER_SHARE: UserShareMsg, KIND_ANALYST_RESULT: AnalystResultMsg}


def _schema(cls) -> tuple[list, dict]:
    hints = typing.get_type_hints(cls)          # in field order
    return ([name for name, hint in hints.items() if hint is np.ndarray],
            {name: _HEADER_CHECKS[hint] for name, hint in hints.items()
             if hint is not np.ndarray})


# kind, matrix names and header checks per class, derived once, not per frame
_SCHEMAS = {cls: (kind, *_schema(cls)) for kind, cls in _CLASSES.items()}


def encode_message(msg) -> bytes:
    """Serialize one message into a complete frame."""
    if type(msg) not in _SCHEMAS:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    kind, names, checks = _SCHEMAS[type(msg)]
    header = {key: getattr(msg, key) for key in checks}
    mats = [np.ascontiguousarray(getattr(msg, n), dtype="<f8") for n in names]
    header["matrices"] = [[name, *mat.shape] for name, mat in zip(names, mats)]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    head = _HEADER_LEN.pack(len(header_bytes)) + header_bytes
    size = len(head) + sum(m.nbytes for m in mats)
    # one join copies each matrix straight into the frame; it takes flat views
    return b"".join([_PREFIX.pack(MAGIC, kind, size), head, *(m.ravel() for m in mats)])


def _parse_prefix(data: bytes) -> tuple[int, int]:
    """(kind, payload length) of a frame's fixed prefix, checked."""
    if len(data) < _PREFIX.size:
        raise DecodeError("frame shorter than fixed prefix", offset=len(data))
    magic, kind, payload_len = _PREFIX.unpack_from(data, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}", offset=0)
    if kind not in _CLASSES:
        raise DecodeError(f"unknown message kind {kind}", offset=4)
    if payload_len > MAX_PAYLOAD:
        raise DecodeError(f"declared payload {payload_len} exceeds limit", offset=5)
    return kind, payload_len


def decode_message(data):
    """Parse exactly one frame (bytes, or any byte buffer such as a
    memoryview) back into a message whose matrices are views into `data`
    (read-only when `data` is).

    Raises DecodeError (with the offending byte offset) on anything
    malformed: wrong magic, unknown kind, truncation, trailing bytes, bad
    JSON, undeclared or missing matrices, missing or mistyped header keys,
    and matrices holding NaN or Inf.
    """
    kind, payload_len = _parse_prefix(data)
    end = _PREFIX.size + payload_len
    if len(data) < end:
        raise DecodeError("truncated payload", offset=len(data))
    if len(data) > end:
        raise DecodeError("trailing bytes after frame", offset=end)

    pos = _PREFIX.size
    if payload_len < _HEADER_LEN.size:
        raise DecodeError("payload too short for header length", offset=pos)
    (header_len,) = _HEADER_LEN.unpack_from(data, pos)
    pos += _HEADER_LEN.size
    if pos + header_len > end:
        raise DecodeError("header length exceeds payload", offset=pos)
    try:
        header = json.loads(str(data[pos:pos + header_len], "utf-8"))
    # ValueError covers bad UTF-8 and JSON, and integers longer than
    # Python's digit limit; RecursionError covers deeply nested brackets
    except (ValueError, RecursionError) as exc:
        raise DecodeError(f"bad JSON header: {exc}", offset=pos) from None
    pos += header_len
    if not isinstance(header, dict) or "matrices" not in header:
        raise DecodeError("header is not an object with 'matrices'", offset=pos)

    cls = _CLASSES[kind]
    _, expected, checks = _SCHEMAS[cls]
    declared = header["matrices"]
    if (not isinstance(declared, list)
            or [m[0] for m in declared if isinstance(m, list) and m] != expected):
        raise DecodeError(f"matrices must be declared as {expected}", offset=pos)
    mats = {}
    for entry in declared:
        if not isinstance(entry, list) or len(entry) != 3:
            raise DecodeError(f"matrix declaration {entry!r} is not [name, rows, cols]",
                              offset=pos)
        name, rows, cols = entry
        # numpy refuses a dimension this large even when the other is 0
        if not (_is_int(rows) and _is_int(cols)
                and 0 <= rows <= MAX_PAYLOAD and 0 <= cols <= MAX_PAYLOAD):
            raise DecodeError(f"bad shape for {name}: {rows}x{cols}", offset=pos)
        nbytes = rows * cols * 8
        if pos + nbytes > end:
            raise DecodeError(f"matrix {name} extends past payload", offset=pos)
        mats[name] = np.frombuffer(data, "<f8", count=rows * cols,
                                   offset=pos).reshape(rows, cols)
        pos += nbytes
    if pos != end:
        raise DecodeError("payload longer than declared matrices", offset=pos)

    for key, valid in checks.items():
        if key not in header:
            raise DecodeError(f"header lacks {key!r}", offset=pos)
        if not valid(header[key]):
            raise DecodeError(f"bad {key} {header[key]!r}", offset=pos)
    try:
        return cls(**mats, **{key: header[key] for key in checks})
    except (ProtocolError, ContractViolationError) as exc:
        raise DecodeError(str(exc), offset=pos) from None


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

class Inbox:
    """The analyst's side of either transport: frames in arrival order, each
    with the route that carries a reply back to whoever sent it.

    Producers put `(frame, route)` pairs; `route(frame)` sends one frame
    back.  A connection that fails mid-frame arrives as `(b"", None)`, which
    decodes to nothing and is dropped like any other bad frame.
    """

    def __init__(self):
        self._items: queue.Queue = queue.Queue()
        self.sent_count = 0
        self.received_count = 0

    def put(self, item):
        self._items.put(item)

    def recv(self, timeout: float):
        """Next (frame, route); SessionTimeoutError when none arrives."""
        try:
            item = self._items.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            raise SessionTimeoutError(f"no frame within {timeout} s") from None
        if item is None:
            self._items.put(None)       # for the next recv, too
            raise SessionError("the session was closed")
        self.received_count += 1
        return item

    def reply(self, route, frame: bytes):
        route(frame)
        self.sent_count += 1

    def close(self):
        """A pending or later `recv` raises SessionError."""
        self._items.put(None)


class InProcessUserEndpoint:
    """One institution's queue pair onto an in-process `Inbox`."""

    def __init__(self, inbox: Inbox):
        self._inbox = inbox
        self._down: queue.Queue = queue.Queue()
        self.sent_count = 0
        self.received_count = 0

    def send(self, frame: bytes):
        self._inbox.put((frame, self._down.put))
        self.sent_count += 1

    def recv(self, timeout: float) -> bytes:
        try:
            frame = self._down.get(timeout=timeout)
        except queue.Empty:
            raise SessionTimeoutError(
                f"no analyst frame within {timeout} s") from None
        self.received_count += 1
        return frame

    def close(self):
        self._down.put(b"")     # a pending or later recv gets a non-frame


def _recv_into(sock: socket.socket, view: memoryview, deadline: float) -> int:
    """Fill view from sock before the deadline; the count of bytes read,
    short only if the peer closed."""
    got = 0
    while got < len(view):
        sock.settimeout(max(deadline - time.monotonic(), 0.001))
        try:
            count = sock.recv_into(view[got:])
        except socket.timeout:
            raise SessionTimeoutError(
                f"peer sent {got} of {len(view)} bytes before timeout") from None
        if not count:
            break
        got += count
    return got


def _recv_frame(sock: socket.socket, timeout: float) -> bytes | memoryview:
    """One whole frame within timeout seconds (b"" if the peer closes first):
    each recv waits only for the time left, so a peer that trickles bytes
    cannot outlast the deadline.  The frame is read into one buffer of its
    declared size and returned as a read-only view of it; the buffer is not
    zero-filled, so its pages are committed only as bytes arrive."""
    deadline = time.monotonic() + timeout
    prefix = bytearray(_PREFIX.size)
    got = _recv_into(sock, memoryview(prefix), deadline)
    if not got:
        return b""
    if got == _PREFIX.size:
        _, payload_len = _parse_prefix(prefix)
        frame = np.empty(_PREFIX.size + payload_len, np.uint8)
        frame[:_PREFIX.size] = prefix
        got += _recv_into(sock, memoryview(frame)[_PREFIX.size:], deadline)
        if got == frame.size:
            return memoryview(frame).toreadonly()
    raise DecodeError("connection closed mid-frame", offset=got)


class TcpUserEndpoint:
    """One connection to the analyst: send a frame, wait for one back."""

    def __init__(self, host: str, port: int, *, timeout: float):
        self.sent_count = 0
        self.received_count = 0
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise SessionTimeoutError(f"cannot reach analyst at {host}:{port}: {exc}") from None

    def send(self, frame: bytes):
        self._sock.sendall(frame)
        self.sent_count += 1

    def recv(self, timeout: float) -> bytes:
        frame = _recv_frame(self._sock, timeout)
        self.received_count += 1
        return frame

    def close(self):
        self._sock.close()


class TcpAnalystEndpoint(Inbox):
    """Listening side: accepts connections concurrently and reads one frame
    from each into the inbox, routed back over the same connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float):
        super().__init__()
        self._timeout = timeout
        self._accepted: list[socket.socket] = []
        self._listener = socket.create_server((host, port))
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:             # the listener was shut down
                return
            self._accepted.append(conn)
            threading.Thread(target=self._read_one, args=(conn,), daemon=True).start()

    def _read_one(self, conn):
        try:
            frame = _recv_frame(conn, self._timeout)
        except (SessionError, DecodeError, OSError, MemoryError):
            conn.close()
            self.put((b"", None))
            return
        if not frame:
            # peer connected and left without sending anything (port probe,
            # dropped client); not this session's concern
            conn.close()
            return
        self.put((frame, conn.sendall))

    def close(self):
        """Also stop accepting and close every connection; safe to repeat."""
        super().close()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)   # wakes accept()
        except OSError:
            pass
        self._listener.close()
        self._accept_thread.join(timeout=2.0)
        for conn in self._accepted:
            try:
                conn.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# party runners
# ---------------------------------------------------------------------------

@dataclass
class AnalystReport:
    """The analyst's one answer: labels in row-block order, and their model."""

    labels: np.ndarray
    model: CollaborationModel
    frames_dropped: int = 0


def user_step(party, block, anchor_block, cfg: SessionConfig) -> UserShareMsg:
    """An institution's whole computation: fit its private map, one output
    dimension below the block width, and build the share it sends."""
    if block.shape[1] < 2:
        raise ConfigurationError(
            "blocks need at least 2 features to reduce dimension")
    _, x_tilde, anchor_tilde = fit_intermediate(
        block, anchor_block, block.shape[1] - 1, scale=cfg.scale)
    return UserShareMsg(party=party, x_tilde=x_tilde,
                        anchor_tilde=anchor_tilde, config=cfg.echo())


def analyst_step(shares, cfg: SessionConfig):
    """The analyst's whole computation: align every share, cluster once, and
    split the answer into one result per row block.

    Returns (collaboration model, results); results[i] goes to row block i.
    """
    model = build_collaboration(shares, mode=cfg.mode, m_hat=cfg.m_hat)
    z = make_clustering_representation(model, cfg.algorithm, cfg.k, cfg.neighbors)
    clusters, z_blocks = analyst_cluster(
        z, cfg.k, model.row_sizes, max_iter=cfg.max_iter,
        rng_seed=derive_seed(cfg.master_seed, "analyst"), restarts=cfg.restarts)
    echo = cfg.echo()
    return model, [AnalystResultMsg(row_block=i, centroids=clusters.centroids,
                                    z_block=z_block, algorithm=cfg.algorithm,
                                    config=echo)
                   for i, z_block in enumerate(z_blocks)]


def analyst_report(model: CollaborationModel, results,
                   frames_dropped: int = 0) -> AnalystReport:
    """Each row block's labels by nearest centroid, as its institutions
    recover them from the same result, in row-block order."""
    labels = [assign_nearest(res.z_block, res.centroids) for res in results]
    return AnalystReport(np.concatenate(labels), model, frames_dropped)


def user_party_run(party, local_block, anchor_block, cfg: SessionConfig,
                   transport) -> np.ndarray:
    """Run one institution: fit, share, wait, recover this block's labels."""
    share = user_step(party, local_block, anchor_block, cfg)
    transport.send(encode_message(share))
    try:
        frame = transport.recv(cfg.timeout)
    except SessionTimeoutError as exc:
        raise SessionTimeoutError(f"party {share.party}: {exc}") from None
    result = decode_message(frame)
    if not isinstance(result, AnalystResultMsg):
        raise ProtocolError("expected an analyst result frame")
    if result.row_block != share.party[0]:
        raise ProtocolError(
            f"result for row block {result.row_block} sent to party {share.party}")
    return assign_nearest(result.z_block, result.centroids)


def analyst_party_run(cfg: SessionConfig, inbox: Inbox) -> AnalystReport:
    """Run the analyst: collect every share, align, cluster, answer everyone.

    A frame that does not decode to a share is dropped and counted.  A
    repeated party id, a party outside the lattice, or a config echo that
    differs from the analyst's own is a protocol error; parties still
    missing when the deadline passes abort the session with the absentees
    listed.  Each party's answer goes back by the route its share came in on.
    """
    expected = {(i, j) for i in range(cfg.c) for j in range(cfg.d)}
    echo = cfg.echo()
    deadline = time.monotonic() + cfg.timeout
    shares: dict[tuple[int, int], UserShareMsg] = {}
    routes = {}
    dropped = 0

    def absent():
        return SessionError("timed out waiting for shares from "
                            f"{sorted(expected - set(shares))}")

    while len(shares) < len(expected):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise absent()
        try:
            frame, route = inbox.recv(remaining)
            msg = decode_message(frame)
        except SessionTimeoutError:
            raise absent() from None
        except DecodeError:
            msg = None
        if not isinstance(msg, UserShareMsg):
            dropped += 1
            continue
        if msg.party in shares:
            raise ProtocolError(f"duplicate share from party {msg.party}")
        if msg.party not in expected:
            raise ProtocolError(f"party {msg.party} is outside the "
                                f"{cfg.c}x{cfg.d} lattice")
        differ = sorted(key for key in echo.keys() | msg.config.keys()
                        if echo.get(key, _MISSING) != msg.config.get(key, _MISSING))
        if differ:
            raise ProtocolError(
                f"party {msg.party} echoes a different config: {differ}")
        shares[msg.party] = msg
        routes[msg.party] = route

    model, results = analyst_step([shares[p] for p in sorted(shares)], cfg)
    for res in results:
        for j in range(cfg.d):
            inbox.reply(routes[(res.row_block, j)], encode_message(res))
    return analyst_report(model, results, frames_dropped=dropped)


@dataclass
class SessionOutcome:
    report: AnalystReport
    user_labels: dict[tuple[int, int], np.ndarray]
    user_counts: dict[tuple[int, int], tuple[int, int]]
    analyst_counts: tuple[int, int]


def _run_session(cfg: SessionConfig, blocks, anchor_blocks, analyst_endpoint,
                 user_endpoint_for) -> SessionOutcome:
    """The first failure of any party closes every endpoint, which ends
    every other party's wait; the first error in time is raised."""
    errors: list[BaseException] = []
    user_labels: dict[tuple[int, int], np.ndarray] = {}
    endpoints: dict[tuple[int, int], object] = {}
    threads: list[threading.Thread] = []   # none start if an endpoint fails

    def fail(exc):
        errors.append(exc)
        for endpoint in (analyst_endpoint, *endpoints.values()):
            endpoint.close()

    def user_main(party):
        try:
            user_labels[party] = user_party_run(
                party, blocks[party], anchor_blocks[party[1]], cfg, endpoints[party])
        except BaseException as exc:
            fail(exc)

    try:
        for party in sorted(blocks):
            endpoints[party] = user_endpoint_for(party)
        threads = [threading.Thread(target=user_main, args=(p,)) for p in endpoints]
        for t in threads:
            t.start()
        report = analyst_party_run(cfg, analyst_endpoint)
    except BaseException as exc:
        fail(exc)
    for t in threads:
        t.join()
    for endpoint in endpoints.values():
        endpoint.close()
    if errors:
        raise errors[0]
    counts = {p: (ep.sent_count, ep.received_count) for p, ep in endpoints.items()}
    return SessionOutcome(report=report, user_labels=user_labels,
                          user_counts=counts,
                          analyst_counts=(analyst_endpoint.sent_count,
                                          analyst_endpoint.received_count))


def _check_lattice(cfg: SessionConfig, partition):
    if (cfg.c, cfg.d) != (partition.c, partition.d):
        raise ConfigurationError(
            f"config lattice {cfg.c}x{cfg.d} differs from the partition's "
            f"{partition.c}x{partition.d}")


def _session_inputs(x, partition, anchor, parties=None):
    """The blocks of `parties`, by default the whole lattice, and the
    anchor's columns for each of their column blocks.  A party outside the
    lattice is a ConfigurationError."""
    lattice = [(i, j) for i in range(partition.c) for j in range(partition.d)]
    outside = sorted(set(parties or ()) - set(lattice))
    if outside:
        raise ConfigurationError(f"parties {outside} are outside the "
                                 f"{partition.c}x{partition.d} lattice")
    blocks = {p: partition.block(x, *p) for p in parties or lattice}
    anchor_blocks = {j: anchor.features[:, partition.col_index_sets[j]]
                     for j in sorted({j for _, j in blocks})}
    return blocks, anchor_blocks


def run_dc_clustering(x, partition, anchor, cfg: SessionConfig) -> AnalystReport:
    """Every role played in-process by direct calls: the same user and
    analyst steps as a session, with no threads, queues or wire codec.

    Rows of the report's labels follow row-block order (partition block 0
    first); use the partition's row_order() to map back to dataset order.
    The report equals a session's on the same inputs bit for bit.
    """
    _check_lattice(cfg, partition)
    blocks, anchor_blocks = _session_inputs(as_matrix(x), partition, anchor)
    shares = [user_step(p, blocks[p], anchor_blocks[p[1]], cfg)
              for p in sorted(blocks)]
    return analyst_report(*analyst_step(shares, cfg))


def run_in_process_session(x, partition, anchor, cfg: SessionConfig) -> SessionOutcome:
    """Full session over queue transports: one thread per institution, and
    the analyst on the calling thread."""
    _check_lattice(cfg, partition)
    blocks, anchor_blocks = _session_inputs(x, partition, anchor)
    inbox = Inbox()
    return _run_session(cfg, blocks, anchor_blocks, inbox,
                        lambda p: InProcessUserEndpoint(inbox))


def run_tcp_session(x, partition, anchor, cfg: SessionConfig,
                    host: str = "127.0.0.1") -> SessionOutcome:
    """Full session over localhost sockets on an ephemeral port."""
    _check_lattice(cfg, partition)
    blocks, anchor_blocks = _session_inputs(x, partition, anchor)
    analyst = TcpAnalystEndpoint(host=host, timeout=cfg.timeout)
    try:
        return _run_session(cfg, blocks, anchor_blocks, analyst,
                            lambda p: TcpUserEndpoint(host, analyst.port,
                                                      timeout=cfg.timeout))
    finally:
        analyst.close()
