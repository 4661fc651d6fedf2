import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from dccluster import cli, federation
from dccluster.data import (make_blobs, partition_lattice, feature_bounds,
                            generate_anchor)
from dccluster.errors import (ConfigurationError, ContractViolationError,
                              DecodeError, ProtocolError, SessionError,
                              SessionTimeoutError)
from dccluster.federation import (MAGIC, KIND_USER_SHARE, KIND_ANALYST_RESULT,
                                  DEFAULT_TIMEOUT_SECS, TIMEOUT_ENV_VAR,
                                  UserShareMsg, AnalystResultMsg,
                                  encode_message, decode_message,
                                  Inbox, InProcessUserEndpoint,
                                  TcpAnalystEndpoint, TcpUserEndpoint,
                                  SessionConfig,
                                  analyst_party_run, user_party_run,
                                  resolve_timeout, run_dc_clustering,
                                  run_in_process_session, run_tcp_session,
                                  _recv_frame, _run_session, _session_inputs)
from dccluster.metrics import ari

_PREFIX_SIZE = struct.calcsize("<4sBQ")


def sample_share(seed=0, party=(1, 0), n=7, r=5, width=3, config=None):
    rng = np.random.default_rng(seed)
    return UserShareMsg(party=party,
                        x_tilde=rng.normal(size=(n, width)),
                        anchor_tilde=rng.normal(size=(r, width)),
                        config=config or {"k": 3, "mode": "affine"})


def sample_result(seed=1, row_block=2, k=3, dim=2, n=9):
    rng = np.random.default_rng(seed)
    return AnalystResultMsg(row_block=row_block,
                            centroids=rng.normal(size=(k, dim)),
                            z_block=rng.normal(size=(n, dim)),
                            algorithm="kmeans",
                            config={"k": k})


def with_header(frame, edit):
    """Rebuild a frame after editing the text of its JSON header."""
    (header_len,) = struct.unpack_from("<I", frame, _PREFIX_SIZE)
    start = _PREFIX_SIZE + 4
    header = edit(frame[start:start + header_len].decode()).encode()
    payload = struct.pack("<I", len(header)) + header + frame[start + header_len:]
    return frame[:5] + struct.pack("<Q", len(payload)) + payload


# Headers that json.loads itself refuses with something other than a
# JSONDecodeError; each edits a frame of sample_share().  json.dumps cannot
# write these values, so they are spliced into the text.
HUGE_INT = "9" * 5000        # beyond Python's int-digit limit
DEEP_LIST = "[" * 10000 + "]" * 10000
HOSTILE_HEADERS = {
    "deep-nesting": lambda t: t.replace('"party": [1, 0]',
                                        f'"party": {DEEP_LIST}'),
    "huge-party": lambda t: t.replace('"party": [1, 0]',
                                      f'"party": [{HUGE_INT}, 0]'),
    "huge-shape": lambda t: t.replace('["x_tilde", 7, 3]',
                                      f'["x_tilde", {HUGE_INT}, 3]'),
}


def small_session_inputs(seed=0, n_per=20):
    ds = make_blobs(k=2, per_cluster=n_per, rng_seed=seed)
    part = partition_lattice(ds, c=2, d=2, assignment="iid-random",
                             rng_seed=seed + 1)
    anchor = generate_anchor(feature_bounds(ds.features),
                             r=ds.features.shape[0], rng_seed=seed + 2)
    cfg = SessionConfig(c=2, d=2, k=2, algorithm="kmeans", m_hat=2,
                        master_seed=seed, timeout=20.0)
    return ds, part, anchor, cfg


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

class TestWireRoundTrip:
    def test_share_round_trip(self):
        msg = sample_share()
        out = decode_message(encode_message(msg))
        assert isinstance(out, UserShareMsg)
        assert out.party == (1, 0)
        assert np.array_equal(out.x_tilde, msg.x_tilde)
        assert np.array_equal(out.anchor_tilde, msg.anchor_tilde)
        assert out.config == msg.config

    def test_result_round_trip(self):
        msg = sample_result()
        out = decode_message(encode_message(msg))
        assert isinstance(out, AnalystResultMsg)
        assert out.row_block == 2
        assert out.algorithm == "kmeans"
        assert np.array_equal(out.centroids, msg.centroids)
        assert np.array_equal(out.z_block, msg.z_block)
        assert out.config == msg.config

    def test_float_payload_is_bit_exact(self):
        # round-trip must preserve every bit, including awkward values
        vals = np.array([[0.1 + 0.2, -0.0, 1e-308, np.pi]])
        msg = UserShareMsg(party=(0, 0), x_tilde=vals,
                           anchor_tilde=np.zeros((0, 4)), config={})
        out = decode_message(encode_message(msg))
        assert out.x_tilde.tobytes() == vals.tobytes()

    def test_decoded_matrices_are_views_into_the_frame(self):
        out = decode_message(encode_message(sample_share()))
        for mat in (out.x_tilde, out.anchor_tilde):
            assert not mat.flags.owndata
            assert not mat.flags.writeable

    def test_empty_matrix_round_trip(self):
        msg = UserShareMsg(party=(0, 1), x_tilde=np.zeros((0, 3)),
                           anchor_tilde=np.zeros((0, 3)), config={})
        out = decode_message(encode_message(msg))
        assert out.x_tilde.shape == (0, 3)
        assert out.anchor_tilde.shape == (0, 3)

    def test_frame_layout(self):
        frame = encode_message(sample_share())
        assert frame[:4] == MAGIC
        assert frame[4] == KIND_USER_SHARE
        (payload_len,) = struct.unpack_from("<Q", frame, 5)
        assert len(frame) == _PREFIX_SIZE + payload_len
        frame2 = encode_message(sample_result())
        assert frame2[4] == KIND_ANALYST_RESULT

    def test_encoding_is_deterministic(self):
        msg = sample_share(seed=5)
        assert encode_message(msg) == encode_message(msg)

    def test_unknown_message_type_rejected(self):
        with pytest.raises(ProtocolError):
            encode_message(object())

    @pytest.mark.parametrize("make, digest", [
        (sample_share,
         "1f35bef206d6ba3ec23349f354588493b6d762446c77bfc471ea67c1b829f0f5"),
        (sample_result,
         "05d3f35d7f396600ed7964c0a0e34cc469eab961769c8ed4ec49b35e486e1619"),
    ], ids=["share", "result"])
    def test_frame_bytes_are_pinned(self, make, digest):
        # parties built from different releases must agree on every byte
        assert hashlib.sha256(encode_message(make())).hexdigest() == digest


class TestDecodeErrors:
    def test_short_frame(self):
        with pytest.raises(DecodeError) as err:
            decode_message(b"DCC1")
        assert err.value.offset == 4

    def test_bad_magic(self):
        frame = bytearray(encode_message(sample_share()))
        frame[:4] = b"XXXX"
        with pytest.raises(DecodeError) as err:
            decode_message(bytes(frame))
        assert err.value.offset == 0

    def test_unknown_kind(self):
        frame = bytearray(encode_message(sample_share()))
        frame[4] = 99
        with pytest.raises(DecodeError) as err:
            decode_message(bytes(frame))
        assert err.value.offset == 4

    def test_oversized_payload_declaration(self):
        frame = bytearray(encode_message(sample_share()))
        struct.pack_into("<Q", frame, 5, 1 << 40)
        with pytest.raises(DecodeError) as err:
            decode_message(bytes(frame))
        assert err.value.offset == 5

    def test_truncation_after_prefix(self):
        frame = encode_message(sample_share())
        cut = frame[:_PREFIX_SIZE + 3]
        with pytest.raises(DecodeError) as err:
            decode_message(cut)
        assert err.value.offset == len(cut)

    def test_trailing_bytes(self):
        frame = encode_message(sample_share())
        with pytest.raises(DecodeError) as err:
            decode_message(frame + b"\x00")
        assert err.value.offset == len(frame)

    def test_corrupt_json_header(self):
        frame = bytearray(encode_message(sample_share()))
        # first header byte is '{'; smash it
        frame[_PREFIX_SIZE + 4] = 0xFF
        with pytest.raises(DecodeError) as err:
            decode_message(bytes(frame))
        assert err.value.offset == _PREFIX_SIZE + 4

    def test_header_length_overruns_payload(self):
        frame = bytearray(encode_message(sample_share()))
        struct.pack_into("<I", frame, _PREFIX_SIZE, 1 << 30)
        with pytest.raises(DecodeError):
            decode_message(bytes(frame))

    def _reheader(self, frame, mutate):
        """Rebuild a frame after editing its parsed JSON header."""
        def edit(text):
            header = json.loads(text)
            mutate(header)
            return json.dumps(header, sort_keys=True)
        return with_header(frame, edit)

    def test_renamed_matrix_rejected(self):
        frame = encode_message(sample_share())

        def rename(h):
            h["matrices"][0][0] = "private_rows"

        with pytest.raises(DecodeError, match="matrices"):
            decode_message(self._reheader(frame, rename))

    def test_extra_matrix_rejected(self):
        # a share must carry exactly its two declared matrices, nothing else
        frame = encode_message(sample_share())

        def add(h):
            h["matrices"].append(["bonus", 1, 1])

        with pytest.raises(DecodeError, match="matrices"):
            decode_message(self._reheader(frame, add))

    def test_missing_matrix_rejected(self):
        frame = encode_message(sample_share())

        def drop(h):
            del h["matrices"][1]

        with pytest.raises(DecodeError, match="matrices"):
            decode_message(self._reheader(frame, drop))

    def test_result_schema_differs_from_share_schema(self):
        # result matrix names inside a share-kind frame must be refused
        frame = encode_message(sample_share())

        def swap(h):
            h["matrices"][0][0] = "centroids"
            h["matrices"][1][0] = "z_block"

        with pytest.raises(DecodeError, match="matrices"):
            decode_message(self._reheader(frame, swap))

    def test_matrix_overrunning_payload(self):
        frame = encode_message(sample_share())

        def inflate(h):
            h["matrices"][0][1] = 10_000

        with pytest.raises(DecodeError, match="past payload"):
            decode_message(self._reheader(frame, inflate))

    def test_undeclared_leftover_bytes(self):
        frame = encode_message(sample_share())

        def shrink(h):
            h["matrices"][0][1] -= 1

        with pytest.raises(DecodeError):
            decode_message(self._reheader(frame, shrink))

    def test_negative_shape_rejected(self):
        frame = encode_message(sample_share())

        def negate(h):
            h["matrices"][0][1] = -4

        with pytest.raises(DecodeError, match="shape"):
            decode_message(self._reheader(frame, negate))

    def test_bad_party_header(self):
        frame = encode_message(sample_share())

        def mangle(h):
            h["party"] = "not a pair"

        with pytest.raises(DecodeError, match="party"):
            decode_message(self._reheader(frame, mangle))

    @pytest.mark.parametrize("make, mutate, match", [
        # JSON true is a Python int; it must not pass as party index 1
        (sample_share, lambda h: h.update(party=[True, 0]), "party"),
        (sample_result, lambda h: h.update(row_block="x"), "row_block"),
        (sample_result, lambda h: h.update(row_block=[1]), "row_block"),
        (sample_result, lambda h: h.update(row_block=False), "row_block"),
        (sample_share, lambda h: h["matrices"].insert(1, 5), "declaration"),
        # a one-row share, so `true` would even describe the right byte count
        (lambda: sample_share(n=1),
         lambda h: h["matrices"][0].__setitem__(1, True), "shape"),
        (sample_share,
         lambda h: h["matrices"][0].__setitem__(slice(1, 3), [0, 10**30]),
         "shape"),
        (sample_share, lambda h: h.update(config=5), "config"),
        (sample_result, lambda h: h.update(config=[]), "config"),
        (sample_result, lambda h: h.update(algorithm=[1]), "algorithm"),
    ], ids=["bool-party", "str-row-block", "list-row-block", "bool-row-block",
            "int-declaration", "bool-shape", "huge-empty-shape", "int-config",
            "list-config", "list-algorithm"])
    def test_mistyped_header_field_rejected(self, make, mutate, match):
        frame = encode_message(make())
        with pytest.raises(DecodeError, match=match):
            decode_message(self._reheader(frame, mutate))

    @pytest.mark.parametrize("make, key", [
        (sample_share, "party"), (sample_share, "config"),
        (sample_result, "row_block"), (sample_result, "algorithm"),
        (sample_result, "config"),
    ], ids=["share-party", "share-config", "result-row-block",
            "result-algorithm", "result-config"])
    def test_missing_header_key_rejected(self, make, key):
        frame = encode_message(make())
        with pytest.raises(DecodeError, match=f"lacks '{key}'"):
            decode_message(self._reheader(frame, lambda h: h.pop(key)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("make", [sample_share, sample_result])
    def test_non_finite_matrix_rejected(self, make, value):
        frame = encode_message(make())
        with pytest.raises(DecodeError, match="NaN or Inf"):
            decode_message(frame[:-8] + struct.pack("<d", value))

    @pytest.mark.parametrize("edit", HOSTILE_HEADERS.values(),
                             ids=HOSTILE_HEADERS.keys())
    def test_header_json_refused_by_parser_rejected(self, edit):
        frame = encode_message(sample_share())
        hostile = with_header(frame, edit)
        assert len(hostile) > len(frame) + 4000
        with pytest.raises(DecodeError, match="bad JSON header"):
            decode_message(hostile)

    def test_header_aware_fuzz_never_escapes_decode_error(self):
        # reaches what byte damage rarely does: well-formed JSON with
        # mistyped values, inconsistent matrix declarations, and payload
        # floats whose exponent bits changed
        rng = np.random.default_rng(2024)
        frames = [encode_message(sample_share(seed=s)) for s in range(2)]
        frames += [encode_message(sample_result(seed=s)) for s in range(2)]
        pool = [0, 1, -1, 3, 2**40, 2**63, True, False, 0.5, -0.0, 1e308,
                float("nan"), float("inf"), "", "x", "kmeans", "x_tilde",
                [], [0], [0, 0], [1, [2]], ["x_tilde", 7, 3], {}, {"k": 3},
                None, "@HUGE@", "@DEEP@"]
        names = ["x_tilde", "anchor_tilde", "centroids", "z_block", "", "X"]

        def splice(header):
            return (json.dumps(header)
                    .replace('"@HUGE@"', HUGE_INT)
                    .replace('"@DEEP@"', DEEP_LIST))

        def slots(node):
            # every (container, key) pair below node, depth first
            keys = (node.keys() if isinstance(node, dict)
                    else range(len(node)) if isinstance(node, list) else ())
            for key in keys:
                yield node, key
                yield from slots(node[key])

        def pick(seq):
            return seq[int(rng.integers(len(seq)))]

        def mutate_value(header):
            container, key = pick(list(slots(header)))
            if rng.random() < 0.1:
                del container[key]
            else:
                container[key] = pick(pool)
            if rng.random() < 0.1:
                header[pick(["party", "row_block", "algorithm", "config",
                             "extra"])] = pick(pool)

        def mutate_declaration(header):
            decl = header["matrices"]
            entry = pick(decl)
            op = int(rng.integers(6))
            if op == 0:
                entry[1 + int(rng.integers(2))] *= -1
            elif op == 1:
                entry[1], entry[2] = entry[2], entry[1]
            elif op == 2:
                entry[1 + int(rng.integers(2))] += pick([-1, 1])
            elif op == 3:
                entry[0] = pick(names)
            elif op == 4:
                decl.remove(entry)
            else:
                decl.append(list(entry))

        outcomes = {"ok": 0, "rejected": 0}
        for trial in range(600):
            frame = frames[trial % len(frames)]
            op = trial % 3
            if op < 2:
                mutate = mutate_value if op == 0 else mutate_declaration

                def edit(text):
                    header = json.loads(text)
                    mutate(header)
                    return splice(header)

                frame = with_header(frame, edit)
            else:
                (header_len,) = struct.unpack_from("<I", frame, _PREFIX_SIZE)
                body = _PREFIX_SIZE + 4 + header_len
                floats = (len(frame) - body) // 8
                raw = bytearray(frame)
                for _ in range(int(rng.integers(1, 4))):
                    top = body + 8 * int(rng.integers(floats)) + 7
                    # the exponent is bits 52-62: the high byte's low 7
                    # bits and the next byte's high 4 bits; all ones
                    # makes Inf or NaN
                    if rng.random() < 0.3:
                        raw[top] |= 0x7F
                        raw[top - 1] |= 0xF0
                    else:
                        raw[top] ^= int(rng.integers(1, 128))
                        raw[top - 1] ^= int(rng.integers(0, 16)) << 4
                frame = bytes(raw)
            try:
                msg = decode_message(frame)
                assert isinstance(msg, (UserShareMsg, AnalystResultMsg))
                outcomes["ok"] += 1
            except DecodeError as exc:
                assert isinstance(exc.offset, int) and exc.offset >= 0
                outcomes["rejected"] += 1
        assert outcomes["rejected"] >= 200
        assert outcomes["ok"] >= 50

    def test_fuzzed_corruption_never_escapes_decode_error(self):
        # arbitrary damage must yield either a parsed message or DecodeError,
        # never some other exception
        frames = [encode_message(sample_share(seed=s)) for s in range(3)]
        frames += [encode_message(sample_result(seed=s)) for s in range(3)]
        rng = np.random.default_rng(42)
        outcomes = {"ok": 0, "rejected": 0}
        for trial in range(400):
            frame = bytearray(frames[trial % len(frames)])
            op = rng.integers(0, 4)
            if op == 0:
                frame[rng.integers(0, len(frame))] ^= 1 << rng.integers(0, 8)
            elif op == 1:
                frame = frame[:rng.integers(0, len(frame))]
            elif op == 2:
                frame += bytes(rng.integers(0, 256, size=rng.integers(1, 9),
                                            dtype=np.uint8))
            else:
                start = rng.integers(0, len(frame))
                stop = min(len(frame), start + int(rng.integers(1, 32)))
                frame[start:stop] = bytes(stop - start)
            try:
                msg = decode_message(bytes(frame))
                assert isinstance(msg, (UserShareMsg, AnalystResultMsg))
                outcomes["ok"] += 1
            except DecodeError as exc:
                assert isinstance(exc.offset, int) and exc.offset >= 0
                outcomes["rejected"] += 1
        # truncations and appends are always structural damage; bit flips
        # inside matrix bytes merely change values and may still parse
        assert outcomes["rejected"] >= 200
        assert outcomes["ok"] > 0


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

class TestInProcessHub:
    def test_share_travels_up(self):
        inbox = Inbox()
        user = InProcessUserEndpoint(inbox)
        frame = encode_message(sample_share(party=(1, 1)))
        user.send(frame)
        got, _ = inbox.recv(timeout=1.0)
        assert got == frame
        assert user.sent_count == 1
        assert inbox.received_count == 1

    def test_result_travels_down_to_addressee_only(self):
        inbox = Inbox()
        user_a = InProcessUserEndpoint(inbox)
        user_b = InProcessUserEndpoint(inbox)
        user_a.send(b"a")
        user_b.send(b"b")
        routes = dict(inbox.recv(timeout=1.0) for _ in range(2))
        inbox.reply(routes[b"b"], b"answer")
        assert user_b.recv(timeout=1.0) == b"answer"
        assert (inbox.sent_count, user_b.received_count) == (1, 1)
        with pytest.raises(SessionTimeoutError):
            user_a.recv(timeout=0.05)

    def test_recv_share_timeout(self):
        with pytest.raises(SessionTimeoutError):
            Inbox().recv(timeout=0.05)


class TestTcpTransport:
    def test_connect_refused_reports_unreachable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(SessionTimeoutError, match="cannot reach"):
            TcpUserEndpoint("127.0.0.1", port, timeout=0.5)

    def test_share_over_socket(self):
        analyst = TcpAnalystEndpoint(timeout=5.0)
        try:
            assert analyst.port > 0
            user = TcpUserEndpoint("127.0.0.1", analyst.port, timeout=5.0)
            share = encode_message(sample_share(party=(0, 0)))
            user.send(share)
            got, route = analyst.recv(timeout=5.0)
            assert got == share
            result = encode_message(sample_result(row_block=0))
            analyst.reply(route, result)
            assert user.recv(timeout=5.0) == result
            assert (user.sent_count, user.received_count) == (1, 1)
            assert (analyst.sent_count, analyst.received_count) == (1, 1)
            user.close()
        finally:
            analyst.close()

    def test_garbage_on_the_wire_surfaces_decode_error(self):
        analyst = TcpAnalystEndpoint(timeout=1.0)
        try:
            raw = socket.create_connection(("127.0.0.1", analyst.port),
                                           timeout=1.0)
            raw.sendall(b"XXXX" + bytes(9))        # full prefix, wrong magic
            frame, route = analyst.recv(timeout=2.0)
            assert route is None
            with pytest.raises(DecodeError):
                decode_message(frame)
            raw.close()
        finally:
            analyst.close()

    def test_silent_probe_connection_is_ignored(self):
        # a peer that connects and leaves without a frame must not
        # poison the session
        analyst = TcpAnalystEndpoint(timeout=2.0)
        try:
            probe = socket.create_connection(("127.0.0.1", analyst.port),
                                             timeout=1.0)
            probe.close()
            user = TcpUserEndpoint("127.0.0.1", analyst.port, timeout=2.0)
            share = encode_message(sample_share(party=(0, 0)))
            user.send(share)
            got, _ = analyst.recv(timeout=5.0)
            assert got == share
            user.close()
        finally:
            analyst.close()

    def test_idle_endpoint_closes_at_once(self):
        times = []
        for _ in range(5):
            analyst = TcpAnalystEndpoint(timeout=5.0)
            start = time.perf_counter()
            analyst.close()
            times.append(time.perf_counter() - start)
            analyst.close()                     # a second close is harmless
        assert sorted(times)[2] < 0.02

    def test_trickling_peer_cannot_outlast_the_frame_deadline(self):
        # a server that sends a real frame's first 30 bytes, one every 0.1 s
        frame = encode_message(sample_result(row_block=0))
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def trickle():
            conn, _ = listener.accept()
            with conn:
                for byte in frame[:30]:
                    if done.wait(0.1):
                        break
                    conn.sendall(bytes([byte]))

        server = threading.Thread(target=trickle)
        server.start()
        user = TcpUserEndpoint("127.0.0.1", listener.getsockname()[1],
                               timeout=5.0)
        try:
            start = time.monotonic()
            with pytest.raises(SessionTimeoutError):
                user.recv(0.3)
            assert time.monotonic() - start < 1.0
        finally:
            done.set()
            user.close()
            server.join(timeout=5.0)
            listener.close()
        assert not server.is_alive()

    def test_a_frame_read_off_a_socket_is_held_once(self):
        frame = encode_message(sample_share(n=450_000))
        assert len(frame) >= 10_000_000
        reader, writer = socket.socketpair()
        sender = threading.Thread(target=writer.sendall, args=(frame,))
        try:
            tracemalloc.start()
            sender.start()
            got = _recv_frame(reader, 30.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            sender.join(timeout=30.0)
            reader.close()
            writer.close()
        assert not sender.is_alive()
        assert got == frame
        assert peak <= 1.2 * len(frame)
        # the decoded matrices stay read-only views into the frame
        msg = decode_message(got)
        assert msg == sample_share(n=450_000)
        assert not msg.x_tilde.flags.writeable

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_a_declared_size_alone_commits_no_memory(self):
        # A prefix that declares a large payload and then closes must not
        # make the reader touch a buffer of that size: pages are committed
        # only as bytes arrive.  Run in a child so ru_maxrss starts fresh.
        declared = 1 << 28
        child = textwrap.dedent(f"""
            import resource, socket, struct
            from dccluster.errors import DecodeError
            from dccluster.federation import MAGIC, KIND_USER_SHARE, _recv_frame
            reader, writer = socket.socketpair()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            writer.sendall(struct.pack("<4sBQ", MAGIC, KIND_USER_SHARE, {declared}))
            writer.close()
            try:
                _recv_frame(reader, 30.0)
            except DecodeError:
                pass
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        """)
        src = str(pathlib.Path(federation.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        grown_kib = int(out.stdout)     # ru_maxrss is in KiB on Linux
        assert grown_kib * 1024 < declared // 16


# ---------------------------------------------------------------------------
# session orchestration
# ---------------------------------------------------------------------------

class TestSessionProtocol:
    def _inbox_with(self, *shares):
        inbox = Inbox()
        for share in shares:
            InProcessUserEndpoint(inbox).send(encode_message(share))
        return inbox

    def test_duplicate_share_aborts(self):
        cfg = SessionConfig(c=1, d=2, k=2, timeout=1.0)
        share = sample_share(party=(0, 0), config=cfg.echo())
        with pytest.raises(ProtocolError, match="duplicate"):
            analyst_party_run(cfg, self._inbox_with(share, share))

    def test_share_from_outside_lattice_aborts(self):
        cfg = SessionConfig(c=1, d=1, k=2, timeout=1.0)
        share = sample_share(party=(1, 1), config=cfg.echo())
        with pytest.raises(ProtocolError, match="outside"):
            analyst_party_run(cfg, self._inbox_with(share))

    def test_absent_party_times_out_with_names(self):
        cfg = SessionConfig(c=2, d=1, k=2, timeout=0.2)
        share = sample_share(party=(0, 0), width=2, config=cfg.echo())
        with pytest.raises(SessionError, match=r"\(1, 0\)"):
            analyst_party_run(cfg, self._inbox_with(share))

    def test_mismatched_config_echo_rejected(self):
        cfg = SessionConfig(c=2, d=1, k=2, timeout=1.0)
        other = SessionConfig(c=2, d=1, k=3, timeout=1.0)
        share = sample_share(party=(0, 0), config=other.echo())
        with pytest.raises(ProtocolError, match=r"\(0, 0\).*\['k'\]"):
            analyst_party_run(cfg, self._inbox_with(share))

    def test_misrouted_result_detected(self):
        class MisroutingTransport:
            def send(self, frame):
                pass

            def recv(self, timeout):
                return encode_message(sample_result(row_block=5))

        rng = np.random.default_rng(0)
        block = rng.normal(size=(12, 4))
        anchor = rng.uniform(-1, 1, size=(12, 4))
        cfg = SessionConfig(c=1, d=1, k=2, timeout=1.0)
        with pytest.raises(ProtocolError, match="row block 5"):
            user_party_run((0, 0), block, anchor, cfg, MisroutingTransport())


class TestFullSession:
    def test_in_process_accounting(self):
        ds, part, anchor, cfg = small_session_inputs()
        outcome = run_in_process_session(ds.features, part, anchor, cfg)
        # single round: every institution sends once and hears back once
        assert set(outcome.user_counts) == {(i, j) for i in range(2)
                                            for j in range(2)}
        assert all(counts == (1, 1) for counts in outcome.user_counts.values())
        assert outcome.analyst_counts == (4, 4)
        assert outcome.report.frames_dropped == 0

    def test_session_recovers_the_clustering(self):
        ds, part, anchor, cfg = small_session_inputs()
        outcome = run_in_process_session(ds.features, part, anchor, cfg)
        y = ds.labels[part.row_order()]
        assert ari(y, outcome.report.labels) > 0.99

    def test_column_parties_agree_within_a_row_block(self):
        # both institutions holding pieces of the same rows decode the same
        # labels, because the analyst answers per row block
        ds, part, anchor, cfg = small_session_inputs(seed=3)
        outcome = run_in_process_session(ds.features, part, anchor, cfg)
        ends = np.cumsum([len(rows) for rows in part.row_index_sets])
        row_blocks = np.split(outcome.report.labels, ends[:-1])
        for i in range(2):
            assert np.array_equal(outcome.user_labels[(i, 0)],
                                  outcome.user_labels[(i, 1)])
            assert np.array_equal(outcome.user_labels[(i, 0)], row_blocks[i])

    def test_tcp_session_matches_in_process_bit_for_bit(self):
        ds, part, anchor, cfg = small_session_inputs(seed=7)
        local = run_in_process_session(ds.features, part, anchor, cfg)
        wired = run_tcp_session(ds.features, part, anchor, cfg)
        assert np.array_equal(local.report.labels, wired.report.labels)
        assert local.report.model.residual == wired.report.model.residual
        assert local.report.model.m_hat == wired.report.model.m_hat
        for party, labels in local.user_labels.items():
            assert np.array_equal(labels, wired.user_labels[party])

    def test_garbage_frames_are_dropped_and_counted(self):
        # frames that are not shares, from connections that never identify
        # themselves, must not abort a session the real parties can finish
        ds, part, anchor, cfg = small_session_inputs(seed=7)
        local = run_in_process_session(ds.features, part, anchor, cfg)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor)
        analyst = TcpAnalystEndpoint(timeout=cfg.timeout)
        raws = []
        try:
            for junk in (b"XXXX" + bytes(9), encode_message(sample_result())):
                raws.append(socket.create_connection(
                    ("127.0.0.1", analyst.port), timeout=5.0))
                raws[-1].sendall(junk)
            deadline = time.monotonic() + 5.0
            while analyst._items.qsize() < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            wired = _run_session(
                cfg, blocks, anchor_blocks, analyst,
                lambda p: TcpUserEndpoint("127.0.0.1", analyst.port,
                                          timeout=cfg.timeout))
        finally:
            for raw in raws:
                raw.close()
            analyst.close()
        assert wired.report.frames_dropped == 2
        assert np.array_equal(local.report.labels, wired.report.labels)
        for party, labels in local.user_labels.items():
            assert np.array_equal(labels, wired.user_labels[party])

    def test_unparsable_headers_are_dropped_and_counted(self):
        # one hostile frame must not abort a session the real parties can
        # finish, whatever exception the JSON parser raises on it
        ds, part, anchor, cfg = small_session_inputs(seed=7)
        local = run_in_process_session(ds.features, part, anchor, cfg)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor)
        inbox = Inbox()
        frame = encode_message(sample_share())
        for edit in HOSTILE_HEADERS.values():
            InProcessUserEndpoint(inbox).send(with_header(frame, edit))
        hit = _run_session(cfg, blocks, anchor_blocks, inbox,
                           lambda p: InProcessUserEndpoint(inbox))
        assert hit.report.frames_dropped == len(HOSTILE_HEADERS)
        assert np.array_equal(local.report.labels, hit.report.labels)

    def test_stalled_peer_is_one_dropped_frame(self):
        # a peer that sends four bytes and stalls outlasts its reader's
        # deadline; the honest parties must still finish the session
        ds, part, anchor, cfg = small_session_inputs(seed=7)
        cfg = dataclasses.replace(cfg, timeout=5.0)
        local = run_in_process_session(ds.features, part, anchor, cfg)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor)
        analyst = TcpAnalystEndpoint(timeout=0.2)
        try:
            with socket.create_connection(("127.0.0.1", analyst.port),
                                          timeout=5.0) as raw:
                raw.sendall(b"DCC1")
                time.sleep(0.5)
                wired = _run_session(
                    cfg, blocks, anchor_blocks, analyst,
                    lambda p: TcpUserEndpoint("127.0.0.1", analyst.port,
                                              timeout=cfg.timeout))
        finally:
            analyst.close()
        assert wired.report.frames_dropped == 1
        assert np.array_equal(local.report.labels, wired.report.labels)
        for party, labels in local.user_labels.items():
            assert np.array_equal(labels, wired.user_labels[party])

    def test_tcp_session_closes_every_socket(self):
        ds, part, anchor, cfg = small_session_inputs(seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_tcp_session(ds.features, part, anchor, cfg)
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaked == []

    @pytest.mark.parametrize("algorithm", ["kmeans", "spectral"])
    def test_direct_pipeline_matches_session_bit_for_bit(self, algorithm):
        ds, part, anchor, cfg = small_session_inputs(seed=9)
        for mode in ("affine", "linear"):
            cfg = dataclasses.replace(cfg, algorithm=algorithm, mode=mode)
            direct = run_dc_clustering(ds.features, part, anchor, cfg)
            wired = run_in_process_session(ds.features, part, anchor,
                                           cfg).report
            assert np.array_equal(direct.labels, wired.labels)
            assert direct.model.m_hat == wired.model.m_hat
            assert direct.model.residual == wired.model.residual
            assert direct.model.m_hat_clamped == wired.model.m_hat_clamped
            assert direct.model.row_sizes == wired.model.row_sizes
            assert np.array_equal(direct.model.x_hat, wired.model.x_hat)

    def test_user_past_its_deadline_names_its_party(self, monkeypatch):
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, timeout=0.2)
        step = federation.analyst_step

        def slow_step(shares, cfg):
            time.sleep(0.6)
            return step(shares, cfg)

        monkeypatch.setattr(federation, "analyst_step", slow_step)
        with pytest.raises(SessionTimeoutError, match=r"party \(\d, \d\)"):
            run_in_process_session(ds.features, part, anchor, cfg)

    def test_in_process_session_starts_one_thread_per_institution(
            self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        ds, part, anchor, cfg = small_session_inputs()
        run_in_process_session(ds.features, part, anchor, cfg)
        assert len(started) == cfg.c * cfg.d

    @pytest.mark.parametrize("run", [run_in_process_session, run_tcp_session],
                             ids=["in-process", "tcp"])
    def test_analyst_failure_ends_the_session_at_once(self, run):
        # k above the row count is found only once the shares are in; the
        # users must hear of it then, not at their 30 s deadline
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, k=100, timeout=30.0)
        start = time.monotonic()
        with pytest.raises(ContractViolationError, match="k must be"):
            run(ds.features, part, anchor, cfg)
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("run", [run_in_process_session, run_tcp_session],
                             ids=["in-process", "tcp"])
    def test_user_failure_ends_the_session_at_once(self, run):
        # a one-feature column block cannot be reduced, so both of its
        # institutions fail to fit; the analyst and the other users must
        # hear of it then, not at their 30 s deadline
        ds, part, anchor, cfg = small_session_inputs()
        part = partition_lattice(ds, c=2, d=2, assignment="iid-random",
                                 rng_seed=1, col_index_sets=((0,), (1, 2, 3, 4, 5)))
        cfg = dataclasses.replace(cfg, timeout=30.0)
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match="at least 2 features"):
            run(ds.features, part, anchor, cfg)
        assert time.monotonic() - start < 5.0

    def test_concurrent_failures_raise_a_failed_fit(self):
        # the four institutions of column block 0 fail together while the
        # rest and the analyst wait; under rapid thread switching the error
        # raised must still be a failed fit, never a closed endpoint's
        ds, part, anchor, cfg = small_session_inputs()
        part = partition_lattice(ds, c=4, d=2, assignment="iid-random",
                                 rng_seed=1, col_index_sets=((0,), (1, 2, 3, 4, 5)))
        cfg = dataclasses.replace(cfg, c=4, timeout=30.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            for run in (run_in_process_session, run_tcp_session) * 10:
                with pytest.raises(ConfigurationError, match="at least 2 features"):
                    run(ds.features, part, anchor, cfg)
            assert time.monotonic() - start < 10.0
        finally:
            sys.setswitchinterval(interval)

    def test_analyst_failure_during_the_gather_ends_the_session_at_once(self):
        # a share echoing another k is refused before the real parties'
        # shares are read; their users must not wait out the 30 s deadline
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, timeout=30.0)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor)
        inbox = Inbox()
        other = dataclasses.replace(cfg, k=3)
        InProcessUserEndpoint(inbox).send(
            encode_message(sample_share(party=(0, 0), config=other.echo())))
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=r"\['k'\]"):
            _run_session(cfg, blocks, anchor_blocks, inbox,
                         lambda p: InProcessUserEndpoint(inbox))
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("run", [run_dc_clustering, run_in_process_session,
                                     run_tcp_session],
                             ids=["direct", "in-process", "tcp"])
    def test_config_lattice_must_match_the_partition(self, run):
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, c=3, timeout=5.0)
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match=r"3x2.*2x2"):
            run(ds.features, part, anchor, cfg)
        assert time.monotonic() - start < 1.0

    def test_session_is_deterministic(self):
        ds, part, anchor, cfg = small_session_inputs(seed=11)
        first = run_in_process_session(ds.features, part, anchor, cfg)
        second = run_in_process_session(ds.features, part, anchor, cfg)
        assert np.array_equal(first.report.labels, second.report.labels)
        assert first.report.model.residual == second.report.model.residual


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestSessionConfig:
    def test_echo_lists_every_knob(self):
        cfg = SessionConfig(c=2, d=3, k=4, algorithm="spectral", mode="linear",
                            neighbors=7, max_iter=55, master_seed=9,
                            m_hat=3, scale=True, restarts=4, timeout=12.0)
        echo = cfg.echo()
        for key in ("c", "d", "k", "algorithm", "mode", "neighbors",
                    "max_iter", "master_seed", "m_hat", "scale", "restarts"):
            assert key in echo
        assert echo["scale"] is True
        assert echo["restarts"] == 4
        assert set(echo) == {f.name for f in dataclasses.fields(cfg)} - {"timeout"}
        json.dumps(echo)                        # must survive the wire header

    def test_echo_travels_with_the_share(self):
        cfg = SessionConfig(c=1, d=1, k=2, m_hat=2)
        msg = UserShareMsg(party=(0, 0), x_tilde=np.zeros((1, 1)),
                           anchor_tilde=np.zeros((1, 1)), config=cfg.echo())
        out = decode_message(encode_message(msg))
        assert out.config["m_hat"] == 2


class TestResolveTimeout:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "5")
        assert resolve_timeout(2.5) == 2.5

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "7.5")
        assert resolve_timeout() == 7.5

    def test_default(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV_VAR, raising=False)
        assert resolve_timeout() == DEFAULT_TIMEOUT_SECS

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(ConfigurationError):
            resolve_timeout()

    def test_config_resolves_once(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "7.5")
        cfg = SessionConfig(c=1, d=1, k=2)
        assert cfg.timeout == 7.5
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "3")
        assert cfg.timeout == 7.5
        assert dataclasses.replace(cfg, timeout=2).timeout == 2.0

    @pytest.mark.parametrize("source", ["explicit", "env", "cli"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_rejects_non_positive_or_non_finite(self, monkeypatch, tmp_path,
                                                capsys, source, value):
        monkeypatch.delenv(TIMEOUT_ENV_VAR, raising=False)
        if source == "cli":
            cfg = tmp_path / "wire.cfg"
            cfg.write_text("dataset = blobs\nclusters = 2\nper_cluster = 10\n"
                           "c = 1\nd = 2\nm_hat = 2\n")
            assert cli.main(["user", str(cfg), "--connect", "127.0.0.1:9",
                             "--party", "0,0", "--timeout", value]) == 2
            assert "positive, finite" in capsys.readouterr().err
            return
        if source == "env":
            monkeypatch.setenv(TIMEOUT_ENV_VAR, value)
        explicit = float(value) if source == "explicit" else None
        with pytest.raises(ConfigurationError, match="positive, finite"):
            SessionConfig(c=1, d=1, k=2, timeout=explicit)


class TestCliAddress:
    @pytest.mark.parametrize("port", ["abc", "70000"])
    @pytest.mark.parametrize("role", ["analyst", "user"])
    def test_bad_port_is_a_configuration_error(self, tmp_path, capsys, role,
                                               port):
        cfg = tmp_path / "wire.cfg"
        cfg.write_text("dataset = blobs\nclusters = 2\nper_cluster = 10\n"
                       "c = 1\nd = 2\nm_hat = 2\n")
        argv = (["analyst", str(cfg), "--listen", f"127.0.0.1:{port}"]
                if role == "analyst" else
                ["user", str(cfg), "--connect", f"127.0.0.1:{port}",
                 "--party", "0,0"])
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and port in err
