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
of `(frame, route)` pairs, and `reply(route, frame, party)` sends a party
its answer by the route its share came in on: an in-process user is itself
an inbox and puts its frames with its own `put` as the route, and
`TcpAnalystEndpoint` is an inbox fed by one thread per accepted
connection, which reads that connection's one frame and later sends its
answer back; its listener blocks in `accept()` until `close()` shuts it
down.  A user endpoint sends one frame and receives one.  A TCP endpoint
bounds each send, as each read, by its own timeout, so a peer that stops
reading fails it with a SessionTimeoutError.  Every endpoint counts
frames, so single-round accounting can be asserted, and its `close()`
ends the wait on it.  The party runners own the protocol: codec, message
kinds, and routing.  An institution runs in two halves, `user_send` and
then `user_party_run`; the analyst in one, `analyst_party_run`.  Either
session plays the round on the calling thread: every institution connects
and sends, the analyst answers, every institution recovers.  So the first
party to fail ends the session with its error, and no institution's
deadline covers the analyst's compute.
"""
from __future__ import annotations

import contextlib
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
    """Per-row-block payload the analyst returns to its institutions: only
    what they read to label their rows, and no config echo."""

    row_block: int
    centroids: np.ndarray
    z_block: np.ndarray

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
    """A queue of one party's incoming items, with a deadline, a close and a
    count of the items handed out.

    The analyst's side of either transport is an `Inbox` of `(frame, route)`
    pairs, where `route` leads back to whoever sent the frame; a connection
    that fails mid-frame arrives as `(b"", None)`, which decodes to nothing
    and is dropped like any other bad frame.  An in-process institution
    receives its answer through an `Inbox` of its own.
    """

    def __init__(self):
        self._items: queue.Queue = queue.Queue()
        self.sent_count = 0
        self.received_count = 0

    def put(self, item):
        self._items.put(item)

    def recv(self, timeout: float):
        """The next item; SessionTimeoutError when none arrives in time, and
        SessionError once the inbox is closed.  Only an item handed out is
        counted."""
        try:
            item = self._items.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            raise SessionTimeoutError(f"no frame within {timeout} s") from None
        if item is None:
            self._items.put(None)       # for the next recv, too
            raise SessionError("the session was closed")
        self.received_count += 1
        return item

    def reply(self, route, frame: bytes, party):
        """Send `party` its answer by the route its share came in on."""
        route(frame)
        self.sent_count += 1

    def close(self):
        """A pending or later `recv` raises SessionError."""
        self._items.put(None)


class InProcessUserEndpoint(Inbox):
    """One institution's end of an in-process session: it sends each frame
    into the analyst's inbox, routed back into its own, and receives its
    answer from its own under the same timeout, close and count."""

    def __init__(self, analyst: Inbox):
        super().__init__()
        self._analyst = analyst

    def send(self, frame: bytes):
        self._analyst.put((frame, self.put))
        self.sent_count += 1


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


def _send_all(sock: socket.socket, frame, timeout: float):
    """Send a whole frame within timeout seconds, or raise
    SessionTimeoutError: a peer that stops reading cannot hold it longer."""
    sock.settimeout(timeout)
    try:
        sock.sendall(frame)
    except socket.timeout:
        raise SessionTimeoutError(
            f"peer did not take a whole {len(frame)}-byte frame within "
            f"{timeout} s") from None


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
    """One connection to the analyst: send a frame within the endpoint's
    timeout, wait for one back."""

    def __init__(self, host: str, port: int, *, timeout: float):
        self.sent_count = 0
        self.received_count = 0
        self._timeout = timeout
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise SessionTimeoutError(f"cannot reach analyst at {host}:{port}: {exc}") from None

    def send(self, frame: bytes):
        _send_all(self._sock, frame, self._timeout)
        self.sent_count += 1

    def recv(self, timeout: float) -> bytes:
        """The analyst's frame; SessionError if it closes without one."""
        frame = _recv_frame(self._sock, timeout)
        if not frame:
            raise SessionError("the analyst closed the connection")
        self.received_count += 1
        return frame

    def close(self):
        self._sock.close()


class TcpAnalystEndpoint(Inbox):
    """Listening side: accepts connections concurrently, and each
    connection's thread reads its one frame into the inbox and then sends
    the answer routed back to it, each within the endpoint's own timeout.
    So `reply` never waits on a peer, and a peer that never reads holds
    only its own answer."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float):
        super().__init__()
        self._timeout = timeout
        self._lock = threading.Lock()
        self._untaken: set[tuple[int, int]] = set()
        self._connections: list[tuple] = []     # (socket, answer, thread)
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
            answer = queue.SimpleQueue()
            thread = threading.Thread(target=self._serve, args=(conn, answer),
                                      daemon=True)
            self._connections.append((conn, answer, thread))
            thread.start()

    def _serve(self, conn, answer):
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
        self.put((frame, answer.put))
        del frame                       # the inbox holds the share's frame
        handed = answer.get()           # (party, frame), or None at close
        if handed is None:
            return
        party, frame = handed
        with contextlib.suppress(SessionError, OSError):
            _send_all(conn, frame, self._timeout)
            with self._lock:
                self._untaken.discard(party)
                self.sent_count += 1

    def reply(self, route, frame: bytes, party):
        """Hand `party`'s answer to its connection's thread."""
        with self._lock:
            self._untaken.add(party)
        route((party, frame))

    def close(self):
        """Stop accepting, give the answers already handed over one timeout
        in all to be sent, and close every connection; safe to repeat.
        Raises SessionTimeoutError naming each party not sent its answer."""
        super().close()
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)   # wakes accept()
        self._listener.close()
        self._accept_thread.join(timeout=2.0)
        for conn, answer, _ in self._connections:
            answer.put(None)            # ends a wait for an answer,
            with contextlib.suppress(OSError):      # and a read, not a send
                conn.shutdown(socket.SHUT_RD)
        deadline = time.monotonic() + self._timeout
        for conn, _, thread in self._connections:
            thread.join(max(deadline - time.monotonic(), 0.0))
            conn.close()
        with self._lock:
            untaken, self._untaken = sorted(self._untaken), set()
        if untaken:
            raise SessionTimeoutError(f"timed out sending answers to {untaken}")


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
    x_tilde, anchor_tilde = fit_intermediate(
        block, anchor_block, block.shape[1] - 1, scale=cfg.scale)
    return UserShareMsg(party=party, x_tilde=x_tilde,
                        anchor_tilde=anchor_tilde, config=cfg.echo())


def analyst_step(shares, cfg: SessionConfig):
    """The analyst's whole computation: align every share, cluster once, and
    split the answer into one result per row block.

    Returns (report, results): results[i] goes to row block i, and the
    report's labels are the rows' nearest centroids, in row-block order,
    from one pass over the whole representation: a row's label depends on
    that row alone, so each row block's are those its institutions recover
    from its result.  The step lets go of `shares` once aligned, so a
    caller that keeps no reference of its own holds no share through
    clustering.
    """
    model = build_collaboration(shares, mode=cfg.mode, m_hat=cfg.m_hat)
    del shares
    z = make_clustering_representation(model, cfg.algorithm, cfg.k, cfg.neighbors)
    clusters, z_blocks = analyst_cluster(
        z, cfg.k, model.row_sizes, max_iter=cfg.max_iter,
        rng_seed=derive_seed(cfg.master_seed, "analyst"), restarts=cfg.restarts)
    results = [AnalystResultMsg(row_block=i, centroids=clusters.centroids,
                                z_block=block) for i, block in enumerate(z_blocks)]
    return AnalystReport(assign_nearest(z, clusters.centroids), model), results


def user_send(party, local_block, anchor_block, cfg: SessionConfig,
              transport) -> int:
    """An institution's first half: fit, frame and send its one share, and
    return its block's row count, which its answer must match.

    Only the share's party id outlives the frame: the share is let go once
    it is framed and the frame once it is sent.  So while its send drains,
    an institution holds its anchor image only in the frame, and while it
    waits for its reply it holds no r-row matrix at all; on blobs
    (r = 300k) each of the 20 institutions lets go of about 10 MB.
    """
    share = user_step(party, local_block, anchor_block, cfg)
    party, rows, frame = share.party, len(share.x_tilde), encode_message(share)
    del share
    try:
        transport.send(frame)
    except SessionTimeoutError as exc:
        raise SessionTimeoutError(f"party {party}: {exc}") from None
    return rows


def user_party_run(party, rows: int, cfg: SessionConfig,
                   transport) -> np.ndarray:
    """An institution's second half: wait for its answer, then recover the
    labels of its block's `rows` rows from it.

    The answer must decode, and be for the party's row block, with one
    `z_block` row per block row and `cfg.k` centroids of the rows' width;
    any other is a ProtocolError naming the party."""
    party = (int(party[0]), int(party[1]))
    try:
        result = decode_message(transport.recv(cfg.timeout))
    except SessionTimeoutError as exc:
        raise SessionTimeoutError(f"party {party}: {exc}") from None
    except DecodeError as exc:
        raise ProtocolError(f"party {party} cannot decode its answer: {exc}") from None
    if not isinstance(result, AnalystResultMsg):
        raise ProtocolError(f"party {party} expected an analyst result frame")
    if result.row_block != party[0]:
        raise ProtocolError(
            f"result for row block {result.row_block} sent to party {party}")
    if (len(result.z_block), len(result.centroids)) != (rows, cfg.k):
        raise ProtocolError(
            f"party {party} got {len(result.z_block)} rows and "
            f"{len(result.centroids)} centroids, not {rows} and k = {cfg.k}")
    widths = result.z_block.shape[1], result.centroids.shape[1]
    if widths[0] != widths[1]:
        raise ProtocolError(f"party {party} got rows of width {widths[0]} and "
                            f"centroids of width {widths[1]}")
    return assign_nearest(result.z_block, result.centroids)


def admit(share: UserShareMsg, cfg: SessionConfig, accepted: dict):
    """Add `share` to `accepted`, the session's shares by party, or raise a
    ProtocolError naming its party: every check of a share is here."""
    party, echo = share.party, cfg.echo()
    if party in accepted:
        raise ProtocolError(f"duplicate share from party {party}")
    if party[0] >= cfg.c or party[1] >= cfg.d:
        raise ProtocolError(f"party {party} is outside the {cfg.c}x{cfg.d} lattice")
    differ = sorted(key for key in echo.keys() | share.config.keys()
                    if echo.get(key, _MISSING) != share.config.get(key, _MISSING))
    if differ:
        raise ProtocolError(f"party {party} echoes a different config: {differ}")
    rows, anchor_rows = len(share.x_tilde), len(share.anchor_tilde)
    for other in accepted.values():
        if anchor_rows != len(other.anchor_tilde):
            raise ProtocolError(f"party {party} sends {anchor_rows} anchor rows, "
                                f"party {other.party} {len(other.anchor_tilde)}")
        if other.party[0] == party[0] and rows != len(other.x_tilde):
            raise ProtocolError(f"party {party} sends {rows} rows, party "
                                f"{other.party} of its row block {len(other.x_tilde)}")
    accepted[party] = share


def analyst_party_run(cfg: SessionConfig, inbox: Inbox) -> AnalystReport:
    """Run the analyst: collect every share, align, cluster, answer everyone.

    A frame that does not decode to a share is dropped.  A share `admit`
    refuses aborts the session with its ProtocolError, as do shares that
    hold fewer rows in all than k, and parties still missing at the
    deadline, listed.  Every frame the inbox hands out is either accepted
    or dropped, so the report counts as dropped all but the c*d accepted.
    The shares go to `analyst_step` with no other reference kept, so none
    outlives the alignment; on blobs that lets go of about 106 MB of frames
    before clustering.  Each party's answer goes back by the route its
    share came in on, and no reply waits on a peer: the TCP endpoint's
    `close()` names every party that did not take its answer.
    """
    expected = {(i, j) for i in range(cfg.c) for j in range(cfg.d)}
    deadline = time.monotonic() + cfg.timeout
    shares: dict[tuple[int, int], UserShareMsg] = {}
    routes = {}

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
            continue
        if not isinstance(msg, UserShareMsg):
            continue
        admit(msg, cfg, shares)
        routes[msg.party] = route
    del msg, frame
    total = sum(len(share.x_tilde) for (_, j), share in shares.items() if j == 0)
    if total < cfg.k:
        raise ProtocolError(f"k = {cfg.k} is above the shares' row count, "
                            f"{total}")

    report, results = analyst_step([shares.pop(p) for p in sorted(expected)], cfg)
    for res in results:
        for j in range(cfg.d):
            party = (res.row_block, j)
            inbox.reply(routes[party], encode_message(res), party)
    report.frames_dropped = inbox.received_count - len(expected)
    return report


@dataclass
class SessionOutcome:
    report: AnalystReport
    user_labels: dict[tuple[int, int], np.ndarray]
    user_counts: dict[tuple[int, int], tuple[int, int]]
    analyst_counts: tuple[int, int]


def _run_session(cfg: SessionConfig, blocks, anchor_blocks, analyst_endpoint,
                 user_endpoint_for) -> SessionOutcome:
    """The one round, on the calling thread: each institution in turn
    connects, right before its fit, and sends its share; the analyst
    answers; every institution recovers its labels.  The first party to
    fail raises its error.  Every endpoint is closed when the session ends,
    the analyst's last, so that it waits on no answer left unread."""
    endpoints: dict[tuple[int, int], object] = {}
    try:
        rows = {}
        for party in sorted(blocks):
            endpoints[party] = user_endpoint_for(party)
            rows[party] = user_send(party, blocks[party], anchor_blocks[party[1]],
                                    cfg, endpoints[party])
        report = analyst_party_run(cfg, analyst_endpoint)
        user_labels = {p: user_party_run(p, rows[p], cfg, endpoint)
                       for p, endpoint in endpoints.items()}
    finally:
        for endpoint in endpoints.values():
            endpoint.close()
        # each institution has read its answer or raised its own error, so
        # an answer the analyst could not deliver is no news here
        with contextlib.suppress(SessionTimeoutError):
            analyst_endpoint.close()
    return SessionOutcome(
        report=report, user_labels=user_labels,
        user_counts={p: (ep.sent_count, ep.received_count)
                     for p, ep in endpoints.items()},
        analyst_counts=(analyst_endpoint.sent_count,
                        analyst_endpoint.received_count))


def _session_inputs(x, partition, anchor, cfg: SessionConfig, parties=None):
    """The blocks of `parties`, by default the whole lattice, and the
    anchor's columns for each of their column blocks.  A config lattice
    other than the partition's, or a party outside it, is a
    ConfigurationError."""
    if (cfg.c, cfg.d) != (partition.c, partition.d):
        raise ConfigurationError(
            f"config lattice {cfg.c}x{cfg.d} differs from the partition's "
            f"{partition.c}x{partition.d}")
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
    blocks, anchor_blocks = _session_inputs(as_matrix(x), partition, anchor,
                                            cfg)
    shares = {}
    for p in sorted(blocks):
        admit(user_step(p, blocks[p], anchor_blocks[p[1]], cfg), cfg, shares)
    return analyst_step(list(shares.values()), cfg)[0]


def run_in_process_session(x, partition, anchor, cfg: SessionConfig) -> SessionOutcome:
    """Full session over queue transports: every answer is in its
    institution's inbox before any institution waits."""
    blocks, anchor_blocks = _session_inputs(x, partition, anchor, cfg)
    inbox = Inbox()
    return _run_session(cfg, blocks, anchor_blocks, inbox,
                        lambda p: InProcessUserEndpoint(inbox))


def run_tcp_session(x, partition, anchor, cfg: SessionConfig) -> SessionOutcome:
    """Full session over localhost sockets on an ephemeral port."""
    blocks, anchor_blocks = _session_inputs(x, partition, anchor, cfg)
    analyst = TcpAnalystEndpoint(timeout=cfg.timeout)
    return _run_session(cfg, blocks, anchor_blocks, analyst,
                        lambda p: TcpUserEndpoint("127.0.0.1", analyst.port,
                                                  timeout=cfg.timeout))
