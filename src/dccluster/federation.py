"""Single-round federation: wire format, transports, and party runners.

Every institution sends exactly one share and receives exactly one result;
the analyst receives c*d shares and answers each institution once.  Frames
are self-describing: a fixed magic, a kind byte, a little-endian payload
length, then a JSON header (length-prefixed) followed by raw row-major
little-endian float64 matrices in header order.  The two message schemas
have no slot for offsets, scales, or axes, so a conforming peer cannot leak
its private map even by accident.

Transports only move frames.  On the analyst's side both are one `Inbox`
of `(frame, route)` pairs, where `route` carries a reply back to the
frame's sender: in-process users put their frames with their own down
queue as the route, and `TcpAnalystEndpoint` is an inbox fed by one reader
per accepted connection, routed back over that connection.  A user
endpoint sends one frame and receives one.  Every endpoint counts frames
so single-round accounting can be asserted.  The party runners own the
protocol: `user_party_run` and `analyst_party_run` encode and decode, check
message kinds, and route each answer to the party whose share came in on
that route.
"""
from __future__ import annotations

import json
import os
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from .clustering import assign_nearest
from .collaboration import (AnalystResultMsg, UserShareMsg, analyst_cluster,
                            build_collaboration, fit_intermediate,
                            make_clustering_representation)
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
    """Explicit value wins, then the environment override, then 60 s."""
    if explicit is not None:
        return float(explicit)
    env = os.environ.get(TIMEOUT_ENV_VAR)
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise ConfigurationError(
                f"{TIMEOUT_ENV_VAR}={env!r} is not a number") from None
    return DEFAULT_TIMEOUT_SECS


@dataclass
class SessionConfig:
    c: int
    d: int
    k: int
    algorithm: str = "kmeans"
    mode: str = "affine"
    neighbors: int = 10
    max_iter: int = 300
    master_seed: int = 0
    m_hat: int | None = None
    scale: bool = False
    restarts: int = 10
    timeout: float | None = None

    def echo(self) -> dict:
        return {"c": self.c, "d": self.d, "k": self.k,
                "algorithm": self.algorithm, "mode": self.mode,
                "neighbors": self.neighbors, "max_iter": self.max_iter,
                "master_seed": self.master_seed, "m_hat": self.m_hat,
                "scale": self.scale, "restarts": self.restarts}


_SHARE_MATRICES = ("x_tilde", "anchor_tilde")
_RESULT_MATRICES = ("centroids", "z_block")


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _matrix_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def encode_message(msg) -> bytes:
    """Serialize one message into a complete frame."""
    if isinstance(msg, UserShareMsg):
        kind = KIND_USER_SHARE
        names = _SHARE_MATRICES
        header = {"party": list(msg.party), "config": msg.config}
    elif isinstance(msg, AnalystResultMsg):
        kind = KIND_ANALYST_RESULT
        names = _RESULT_MATRICES
        header = {"row_block": msg.row_block, "algorithm": msg.algorithm,
                  "config": msg.config}
    else:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    mats = [getattr(msg, name) for name in names]
    header["matrices"] = [[name, *mat.shape] for name, mat in zip(names, mats)]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join([_HEADER_LEN.pack(len(header_bytes)), header_bytes,
                        *(_matrix_bytes(m) for m in mats)])
    return _PREFIX.pack(MAGIC, kind, len(payload)) + payload


def decode_message(data: bytes):
    """Parse exactly one frame back into a message.

    Raises DecodeError (with the offending byte offset) on anything
    malformed: wrong magic, unknown kind, truncation, trailing bytes, bad
    JSON, undeclared or missing matrices, mistyped header fields, and
    matrices holding NaN or Inf.
    """
    if len(data) < _PREFIX.size:
        raise DecodeError("frame shorter than fixed prefix", offset=len(data))
    magic, kind, payload_len = _PREFIX.unpack_from(data, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}", offset=0)
    if kind not in (KIND_USER_SHARE, KIND_ANALYST_RESULT):
        raise DecodeError(f"unknown message kind {kind}", offset=4)
    if payload_len > MAX_PAYLOAD:
        raise DecodeError(f"declared payload {payload_len} exceeds limit", offset=5)
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
        header = json.loads(data[pos:pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(f"bad JSON header: {exc}", offset=pos) from None
    pos += header_len
    if not isinstance(header, dict) or "matrices" not in header:
        raise DecodeError("header is not an object with 'matrices'", offset=pos)

    expected = _SHARE_MATRICES if kind == KIND_USER_SHARE else _RESULT_MATRICES
    declared = header["matrices"]
    if (not isinstance(declared, list)
            or [m[0] for m in declared if isinstance(m, list) and m] != list(expected)):
        raise DecodeError(f"matrices must be declared as {list(expected)}", offset=pos)
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
        flat = np.frombuffer(data[pos:pos + nbytes], dtype="<f8")
        mats[name] = flat.reshape(rows, cols).astype(np.float64)
        pos += nbytes
    if pos != end:
        raise DecodeError("payload longer than declared matrices", offset=pos)

    config = header.get("config", {})
    if not isinstance(config, dict):
        raise DecodeError(f"bad config {config!r}", offset=pos)
    try:
        if kind == KIND_USER_SHARE:
            party = header.get("party")
            if (not isinstance(party, list) or len(party) != 2
                    or not all(_is_int(p) for p in party)):
                raise DecodeError("header lacks a valid party pair", offset=pos)
            return UserShareMsg(party=(party[0], party[1]),
                                x_tilde=mats["x_tilde"],
                                anchor_tilde=mats["anchor_tilde"],
                                config=config)
        row_block = header.get("row_block", -1)
        if not _is_int(row_block):
            raise DecodeError(f"bad row_block {row_block!r}", offset=pos)
        algorithm = header.get("algorithm", "")
        if not isinstance(algorithm, str):
            raise DecodeError(f"bad algorithm {algorithm!r}", offset=pos)
        return AnalystResultMsg(row_block=row_block,
                                centroids=mats["centroids"],
                                z_block=mats["z_block"],
                                algorithm=algorithm, config=config)
    except (ProtocolError, ContractViolationError) as exc:
        raise DecodeError(str(exc), offset=pos) from None


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

class Inbox:
    """The analyst's side of either transport: frames in arrival order, each
    with the route that carries a reply back to whoever sent it.

    Producers put `(frame, route)` pairs, or an exception that `recv`
    re-raises; `route(frame)` sends one frame back.
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
        if isinstance(item, Exception):
            raise item
        self.received_count += 1
        return item

    def reply(self, route, frame: bytes):
        route(frame)
        self.sent_count += 1


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
        pass


def _recv_exact(sock: socket.socket, nbytes: int, timeout: float,
                eof_ok: bool = False) -> bytes:
    chunks, got = [], 0
    while got < nbytes:
        sock.settimeout(max(timeout, 0.001))
        try:
            chunk = sock.recv(nbytes - got)
        except socket.timeout:
            raise SessionTimeoutError(
                f"peer sent {got} of {nbytes} bytes before timeout") from None
        if not chunk:
            if eof_ok and got == 0:
                return b""
            raise DecodeError("connection closed mid-frame", offset=got)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket, timeout: float,
                eof_ok: bool = False) -> bytes:
    prefix = _recv_exact(sock, _PREFIX.size, timeout, eof_ok=eof_ok)
    if not prefix:
        return b""
    magic, kind, payload_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}", offset=0)
    if payload_len > MAX_PAYLOAD:
        raise DecodeError(f"declared payload {payload_len} exceeds limit", offset=5)
    return prefix + _recv_exact(sock, payload_len, timeout)


class TcpUserEndpoint:
    """One connection to the analyst: send a frame, wait for one back."""

    def __init__(self, host: str, port: int, timeout: float | None = None):
        self._timeout = resolve_timeout(timeout)
        self.sent_count = 0
        self.received_count = 0
        try:
            self._sock = socket.create_connection((host, port), timeout=self._timeout)
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

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float | None = None):
        super().__init__()
        self._timeout = resolve_timeout(timeout)
        self._accepted: list[socket.socket] = []
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self._listener.settimeout(0.1)
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._accepted.append(conn)
            threading.Thread(target=self._read_one, args=(conn,), daemon=True).start()

    def _read_one(self, conn):
        try:
            frame = _recv_frame(conn, self._timeout, eof_ok=True)
        except (SessionError, DecodeError) as exc:
            self.put(exc)
            return
        if not frame:
            # peer connected and left without sending anything (port probe,
            # dropped client); not this session's concern
            conn.close()
            return
        self.put((frame, conn.sendall))

    def close(self):
        self._stop.set()
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
    labels: np.ndarray
    per_block_labels: list[np.ndarray]
    m_hat: int
    residual: float
    messages_received: int
    messages_sent: int
    m_hat_clamped: bool
    frames_dropped: int


def user_step(party, block, anchor_block, cfg: SessionConfig) -> UserShareMsg:
    """An institution's whole computation: fit its private map, one output
    dimension below the block width, and build the share it sends."""
    if block.shape[1] < 2:
        raise ConfigurationError(
            "blocks need at least 2 features to reduce dimension")
    _, share = fit_intermediate(block, anchor_block, block.shape[1] - 1,
                                party=party, scale=cfg.scale)
    share.config = cfg.echo()
    return share


def analyst_step(shares, cfg: SessionConfig):
    """The analyst's whole computation: align every share, cluster once, and
    split the answer into one result per row block.

    Returns (collaboration model, results); results[i] goes to row block i.
    """
    model = build_collaboration(shares, mode=cfg.mode, m_hat=cfg.m_hat)
    z = make_clustering_representation(model, cfg.algorithm, cfg.k, cfg.neighbors)
    _, results = analyst_cluster(z, cfg.k, max_iter=cfg.max_iter,
                                 rng_seed=derive_seed(cfg.master_seed, "analyst"),
                                 row_sizes=model.row_sizes,
                                 algorithm=cfg.algorithm,
                                 restarts=cfg.restarts)
    echo = cfg.echo()
    for res in results:
        res.config = echo
    return model, results


def user_party_run(party, local_block, anchor_block, cfg: SessionConfig,
                   transport) -> np.ndarray:
    """Run one institution: fit, share, wait, recover this block's labels."""
    timeout = resolve_timeout(cfg.timeout)
    share = user_step(party, local_block, anchor_block, cfg)
    transport.send(encode_message(share))
    result = decode_message(transport.recv(timeout))
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
    timeout = resolve_timeout(cfg.timeout)
    expected = {(i, j) for i in range(cfg.c) for j in range(cfg.d)}
    echo = cfg.echo()
    deadline = time.monotonic() + timeout
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
    per_block = [assign_nearest(res.z_block, res.centroids) for res in results]
    return AnalystReport(labels=np.concatenate(per_block),
                         per_block_labels=per_block, m_hat=model.m_hat,
                         residual=model.residual,
                         messages_received=len(shares),
                         messages_sent=cfg.c * cfg.d,
                         m_hat_clamped=model.m_hat_clamped,
                         frames_dropped=dropped)


@dataclass
class SessionOutcome:
    report: AnalystReport
    user_labels: dict[tuple[int, int], np.ndarray]
    user_counts: dict[tuple[int, int], tuple[int, int]]
    analyst_counts: tuple[int, int]


def _run_session(cfg: SessionConfig, blocks, anchor_blocks, analyst_endpoint,
                 user_endpoint_for) -> SessionOutcome:
    errors: list[BaseException] = []
    report_box: list[AnalystReport] = []
    user_labels: dict[tuple[int, int], np.ndarray] = {}
    endpoints: dict[tuple[int, int], object] = {}

    def analyst_main():
        try:
            report_box.append(analyst_party_run(cfg, analyst_endpoint))
        except BaseException as exc:
            errors.append(exc)

    def user_main(party):
        try:
            endpoint = user_endpoint_for(party)
            endpoints[party] = endpoint
            labels = user_party_run(party, blocks[party], anchor_blocks[party[1]],
                                    cfg, endpoint)
            user_labels[party] = labels
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=analyst_main)]
    threads += [threading.Thread(target=user_main, args=(p,)) for p in sorted(blocks)]
    for t in threads:
        t.start()
    try:
        for t in threads:
            t.join(timeout=resolve_timeout(cfg.timeout) + 10.0)
    finally:
        for endpoint in list(endpoints.values()):
            endpoint.close()
    if errors:
        raise errors[0]
    report = report_box[0]
    counts = {p: (ep.sent_count, ep.received_count) for p, ep in endpoints.items()}
    return SessionOutcome(report=report, user_labels=user_labels,
                          user_counts=counts,
                          analyst_counts=(analyst_endpoint.sent_count,
                                          analyst_endpoint.received_count))


def _session_inputs(x, partition, anchor):
    blocks = {(i, j): partition.block(x, i, j)
              for i in range(partition.c) for j in range(partition.d)}
    anchor_blocks = [anchor.features[:, cols] for cols in partition.col_index_sets]
    return blocks, anchor_blocks


def run_dc_clustering(x, partition, anchor, cfg: SessionConfig):
    """Every role played in-process by direct calls: the same user and
    analyst steps as a session, with no threads, queues or wire codec.

    Rows of the returned label vector follow row-block order (partition
    block 0 first); use the partition's row_order() to map back to dataset
    order.  Returns (labels, per_block_labels, model); the labels equal a
    session's on the same inputs bit for bit.
    """
    blocks, anchor_blocks = _session_inputs(as_matrix(x), partition, anchor)
    shares = [user_step(p, blocks[p], anchor_blocks[p[1]], cfg)
              for p in sorted(blocks)]
    model, results = analyst_step(shares, cfg)
    per_block = [assign_nearest(res.z_block, res.centroids) for res in results]
    return np.concatenate(per_block), per_block, model


def run_in_process_session(x, partition, anchor, cfg: SessionConfig) -> SessionOutcome:
    """Full session over queue transports, one thread per party."""
    blocks, anchor_blocks = _session_inputs(x, partition, anchor)
    inbox = Inbox()
    return _run_session(cfg, blocks, anchor_blocks, inbox,
                        lambda p: InProcessUserEndpoint(inbox))


def run_tcp_session(x, partition, anchor, cfg: SessionConfig,
                    host: str = "127.0.0.1") -> SessionOutcome:
    """Full session over localhost sockets on an ephemeral port."""
    blocks, anchor_blocks = _session_inputs(x, partition, anchor)
    analyst = TcpAnalystEndpoint(host=host, port=0, timeout=cfg.timeout)
    try:
        return _run_session(cfg, blocks, anchor_blocks, analyst,
                            lambda p: TcpUserEndpoint(host, analyst.port,
                                                      timeout=cfg.timeout))
    finally:
        analyst.close()
