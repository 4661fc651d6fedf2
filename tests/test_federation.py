import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import re
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from dccluster import cli, collaboration, federation
from dccluster.data import (make_blobs, partition_lattice, feature_bounds,
                            generate_anchor)
from dccluster.errors import (ConfigurationError, DecodeError,
                              ProtocolError, SessionError,
                              SessionTimeoutError)
from dccluster.experiment import load_config
from dccluster.federation import (MAGIC, KIND_USER_SHARE, KIND_ANALYST_RESULT,
                                  DEFAULT_TIMEOUT_SECS,
                                  UserShareMsg, AnalystResultMsg,
                                  encode_message, decode_message,
                                  Inbox, InProcessUserEndpoint,
                                  TcpAnalystEndpoint, TcpUserEndpoint,
                                  SessionConfig, admit,
                                  analyst_party_run, user_party_run,
                                  user_send,
                                  resolve_timeout, run_dc_clustering,
                                  run_in_process_session, run_tcp_session,
                                  _recv_frame, _run_session, _session_inputs)
from dccluster.metrics import ari
from dccluster.numerics import (leading_left_vectors, svd_left_vectors,
                                well_conditioned_gram)

_PREFIX_SIZE = struct.calcsize("<4sBQ")
# more than a localhost connection's send and receive buffers hold, so a
# frame this large stays in sendall until the peer reads it
UNREAD_FRAME_BYTES = 64 << 20


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
                            z_block=rng.normal(size=(n, dim)))


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


def stall_first_answers(monkeypatch, count):
    """The first `count` answers the analyst encodes, in party order, become
    frames too large to sit in the socket buffers; every other frame is
    real."""
    encode, big = federation.encode_message, bytes(UNREAD_FRAME_BYTES)
    stalled = iter([big] * count)

    def encode_message(msg):
        if isinstance(msg, AnalystResultMsg):
            return next(stalled, None) or encode(msg)
        return encode(msg)

    monkeypatch.setattr(federation, "encode_message", encode_message)


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
        assert np.array_equal(out.centroids, msg.centroids)
        assert np.array_equal(out.z_block, msg.z_block)

    def test_result_from_an_older_analyst_still_decodes(self):
        # an older analyst also wrote its algorithm and config echo into the
        # result header; keys a message does not declare are ignored
        msg = sample_result()

        def older(text):
            header = json.loads(text)
            assert set(header) == {"matrices", "row_block"}
            header.update(algorithm="kmeans", config={"k": 3, "mode": "affine"})
            return json.dumps(header, sort_keys=True)

        frame = with_header(encode_message(msg), older)
        assert b'"algorithm"' in frame and b'"config"' in frame
        out = decode_message(frame)
        assert isinstance(out, AnalystResultMsg)
        assert out.row_block == msg.row_block
        assert np.array_equal(out.centroids, msg.centroids)
        assert np.array_equal(out.z_block, msg.z_block)

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
         "b8bec9f693a79ca630b0ed214658d6260f0dfe5acb7e61979252d671c48a6a68"),
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

    def test_payload_too_short_for_header_length(self):
        frame = struct.pack("<4sBQ", MAGIC, KIND_USER_SHARE, 3) + b"abc"
        with pytest.raises(DecodeError, match="too short for header length"):
            decode_message(frame)

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
    ], ids=["bool-party", "str-row-block", "list-row-block", "bool-row-block",
            "int-declaration", "bool-shape", "huge-empty-shape", "int-config"])
    def test_mistyped_header_field_rejected(self, make, mutate, match):
        frame = encode_message(make())
        with pytest.raises(DecodeError, match=match):
            decode_message(self._reheader(frame, mutate))

    @pytest.mark.parametrize("make, key", [
        (sample_share, "party"), (sample_share, "config"),
        (sample_result, "row_block"),
    ], ids=["share-party", "share-config", "result-row-block"])
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
        inbox.reply(routes[b"b"], b"answer", (0, 1))
        assert user_b.recv(timeout=1.0) == b"answer"
        assert (inbox.sent_count, user_b.received_count) == (1, 1)
        with pytest.raises(SessionTimeoutError):
            user_a.recv(timeout=0.05)

    def test_recv_share_timeout(self):
        with pytest.raises(SessionTimeoutError):
            Inbox().recv(timeout=0.05)

    def test_closed_user_endpoint_raises_and_counts_nothing(self):
        user = InProcessUserEndpoint(Inbox())
        user.close()
        for _ in range(2):              # a pending or later recv alike
            with pytest.raises(SessionError, match="closed"):
                user.recv(timeout=1.0)
        assert user.received_count == 0


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
            analyst.reply(route, result, (0, 0))
            assert user.recv(timeout=5.0) == result
            assert (user.sent_count, user.received_count) == (1, 1)
            user.close()
        finally:
            analyst.close()
        # the connection's own thread sends the answer; close waits for it
        assert (analyst.sent_count, analyst.received_count) == (1, 1)

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

    def test_analyst_closing_first_is_no_received_frame(self):
        listener = socket.create_server(("127.0.0.1", 0))
        user = TcpUserEndpoint("127.0.0.1", listener.getsockname()[1],
                               timeout=5.0)
        try:
            conn, _ = listener.accept()
            conn.close()
            with pytest.raises(SessionError, match="closed"):
                user.recv(5.0)
            assert user.received_count == 0
        finally:
            user.close()
            listener.close()

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

    def test_stalled_send_names_the_party(self, monkeypatch):
        # an analyst that accepts and never reads: a share larger than the
        # socket buffers cannot drain, and the send fails in the endpoint's
        # own timeout, by party
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, timeout=0.5)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        monkeypatch.setattr(federation, "encode_message",
                            lambda msg: bytes(UNREAD_FRAME_BYTES))
        listener = socket.create_server(("127.0.0.1", 0))
        user = TcpUserEndpoint("127.0.0.1", listener.getsockname()[1],
                               timeout=cfg.timeout)
        conn, _ = listener.accept()
        try:
            start = time.monotonic()
            with pytest.raises(SessionTimeoutError, match=r"party \(0, 1\)"):
                user_send((0, 1), blocks[(0, 1)], anchor_blocks[1], cfg, user)
            assert time.monotonic() - start < 5.0
            assert user.sent_count == 0
        finally:
            user.close()
            conn.close()
            listener.close()

    def _stalled_replies(self, monkeypatch, stalled, timeout):
        """Four institutions send their shares over raw connections; the
        first `stalled` answers (party order) are too large for the socket
        buffers and their peers never read.  Every other peer reads and
        decodes its answer.  Returns the endpoint, closed, after checking
        that its close names the stalled parties within one timeout."""
        ds, part, anchor, cfg = small_session_inputs()
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        parties = sorted(blocks)
        shares = [encode_message(federation.user_step(
            p, blocks[p], anchor_blocks[p[1]], cfg)) for p in parties]
        stall_first_answers(monkeypatch, stalled)
        analyst = TcpAnalystEndpoint(timeout=timeout)
        peers = []
        try:
            for share in shares:
                peers.append(socket.create_connection(
                    ("127.0.0.1", analyst.port), timeout=5.0))
                peers[-1].sendall(share)
            analyst_party_run(cfg, analyst)
            start = time.monotonic()
            for party, peer in list(zip(parties, peers))[stalled:]:
                answer = decode_message(_recv_frame(peer, 5.0))
                assert answer.row_block == party[0]
            untaken = ", ".join(map(str, parties[:stalled]))
            with pytest.raises(SessionTimeoutError,
                               match=re.escape(f"answers to [{untaken}]")):
                analyst.close()
            assert time.monotonic() - start < timeout + 0.4
        finally:
            for peer in peers:
                peer.close()
            analyst.close()
        return analyst

    def test_stalled_reply_names_the_party(self, monkeypatch):
        # a peer that sends its share and never reads holds only its own
        # answer: the other three take theirs, and the analyst's close names
        # it within the endpoint's own timeout
        analyst = self._stalled_replies(monkeypatch, 1, timeout=0.5)
        assert analyst.sent_count == 4 - 1

    def test_two_stalled_replies_cost_one_timeout(self, monkeypatch):
        analyst = self._stalled_replies(monkeypatch, 2, timeout=1.0)
        assert analyst.sent_count == 4 - 2

    def test_answers_sent_at_once_are_each_counted(self):
        # many connection threads finish their sends together, under rapid
        # thread switching: none of the counts may be lost
        analyst = TcpAnalystEndpoint(timeout=5.0)
        peers, parties = [], [(i, 0) for i in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for party in parties:
                peers.append(socket.create_connection(
                    ("127.0.0.1", analyst.port), timeout=5.0))
                peers[-1].sendall(encode_message(sample_share(party=party)))
            routes = [analyst.recv(5.0)[1] for _ in parties]
            answer = encode_message(sample_result(row_block=0))
            for party, route in zip(parties, routes):
                analyst.reply(route, answer, party)
            assert all(_recv_frame(peer, 5.0) == answer for peer in peers)
            analyst.close()
        finally:
            sys.setswitchinterval(interval)
            for peer in peers:
                peer.close()
            analyst.close()
        assert analyst.sent_count == len(parties)

    @staticmethod
    def _wire_config(tmp_path, extra=""):
        """A 1x2 blobs config file of 20 rows with the `extra` lines, and its
        session config with a 2 s timeout, as `dc-cluster analyst --timeout
        2` derives it."""
        cfg_path = tmp_path / "wire.cfg"
        cfg_path.write_text("dataset = blobs\nclusters = 2\nper_cluster = 10\n"
                            "c = 1\nd = 2\nm_hat = 2\n" + extra)
        return cfg_path, cli._session_pieces(load_config(str(cfg_path)), 2.0)

    @staticmethod
    @contextlib.contextmanager
    def _cli_analyst(cfg_path, frames):
        """Run `dc-cluster analyst` on a free port in a thread, wait for its
        listener, and send each of `frames` on a raw connection of its own.
        Yields (exit codes, peers); on exit waits for the analyst and closes
        the peers."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        codes = []
        analyst = threading.Thread(target=lambda: codes.append(cli.main(
            ["analyst", str(cfg_path), "--listen", f"127.0.0.1:{port}",
             "--timeout", "2"])))
        analyst.start()
        peers = []
        try:
            for _ in range(50):                    # wait for the listener
                try:
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=0.2).close()
                    break
                except OSError:
                    time.sleep(0.1)
            for frame in frames:
                peers.append(socket.create_connection(("127.0.0.1", port),
                                                      timeout=5.0))
                peers[-1].sendall(frame)
            yield codes, peers
            analyst.join(timeout=10.0)
        finally:
            for peer in peers:
                peer.close()
            analyst.join(timeout=10.0)

    def test_analyst_cli_names_an_unread_answer_and_exits_3(
            self, tmp_path, capsys, monkeypatch):
        cfg_path, (ds, part, anchor, cfg) = self._wire_config(tmp_path)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        shares = [encode_message(federation.user_step(
            p, blocks[p], anchor_blocks[p[1]], cfg)) for p in sorted(blocks)]
        stall_first_answers(monkeypatch, 1)
        with self._cli_analyst(cfg_path, shares) as (codes, peers):
            # party (0, 1) takes its answer; party (0, 0) never reads
            assert decode_message(_recv_frame(peers[1], 5.0)).row_block == 0
        assert codes == [cli.EXIT_SESSION]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "answers to [(0, 0)]" in err

    def test_analyst_cli_names_a_refused_share_and_exits_3(self, tmp_path,
                                                           capsys):
        # a peer's share that the session cannot use is the peer's fault,
        # not the config's: EXIT_SESSION, with the party named
        cfg_path, (_, _, _, cfg) = self._wire_config(tmp_path)
        shares = [encode_message(sample_share(party=(0, j), n=10, r=r,
                                              width=1, config=cfg.echo()))
                  for j, r in enumerate((40, 41))]
        with self._cli_analyst(cfg_path, shares) as (codes, _):
            pass
        assert codes == [cli.EXIT_SESSION]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the connections' threads may put the two frames in either order
        assert re.search(r"party \(0, [01]\) sends 4[01] anchor rows", err)

    def test_analyst_cli_names_too_few_rows_for_k_and_exits_3(self, tmp_path,
                                                              capsys):
        # well-formed shares of one block row each, the two column halves
        # of one row: admit passes them, and one row cannot make k = 2
        # clusters
        cfg_path, (_, _, _, cfg) = self._wire_config(tmp_path)
        assert (cfg.c, cfg.d, cfg.k) == (1, 2, 2)
        shares = [encode_message(sample_share(party=(0, j), n=1, r=20,
                                              width=1, config=cfg.echo()))
                  for j in range(2)]
        with self._cli_analyst(cfg_path, shares) as (codes, _):
            pass
        assert codes == [cli.EXIT_SESSION]
        err = capsys.readouterr().err
        assert err == "error: k = 2 is above the shares' row count, 1\n"

    def test_analyst_cli_names_too_few_rows_for_neighbors_and_exits_3(
            self, tmp_path, capsys):
        # the parties' own shares of 20 rows: a kNN graph of 20 neighbours
        # per row needs 21 rows
        cfg_path, (ds, part, anchor, cfg) = self._wire_config(
            tmp_path, "algorithm = spectral\nneighbors = 20\n")
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        shares = [encode_message(federation.user_step(
            p, blocks[p], anchor_blocks[p[1]], cfg)) for p in sorted(blocks)]
        with self._cli_analyst(cfg_path, shares) as (codes, _):
            pass
        assert codes == [cli.EXIT_SESSION]
        assert capsys.readouterr().err == (
            "error: neighbors = 20 is not below the shares' row count, 20\n")

    @staticmethod
    def _cli_user(cfg_path, answer):
        """Run `dc-cluster user` as party (0, 0) against a raw analyst that
        reads its share and sends `answer` back; returns the exit code."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        shares = []

        def analyst():
            peer, _ = listener.accept()
            with peer:
                shares.append(_recv_frame(peer, 5.0))
                peer.sendall(answer)

        thread = threading.Thread(target=analyst)
        thread.start()
        try:
            return cli.main(["user", str(cfg_path), "--connect",
                             f"127.0.0.1:{port}", "--party", "0,0",
                             "--timeout", "2"])
        finally:
            thread.join(timeout=10.0)
            listener.close()
            assert decode_message(shares[0]).party == (0, 0)

    def test_user_cli_names_an_undecodable_answer_and_exits_3(self, tmp_path,
                                                              capsys):
        cfg_path, _ = self._wire_config(tmp_path)
        assert self._cli_user(cfg_path, b"garbage" + bytes(6)) == cli.EXIT_SESSION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(r"party \(0, 0\) cannot decode its answer: "
                         r"bad magic b'garb'", err)

    def test_user_cli_names_centroids_wider_than_its_rows_and_exits_3(
            self, tmp_path, capsys):
        cfg_path, (_, _, _, cfg) = self._wire_config(tmp_path)
        answer = AnalystResultMsg(row_block=0, centroids=np.zeros((cfg.k, 3)),
                                  z_block=np.zeros((20, 2)))
        assert self._cli_user(cfg_path, encode_message(answer)) == cli.EXIT_SESSION
        err = capsys.readouterr().err
        assert err == ("error: party (0, 0) got rows of width 2 and centroids "
                       "of width 3\n")

    def test_user_cli_names_a_block_too_short_to_reduce_and_exits_2(
            self, tmp_path, capsys):
        # three blobs rows over three row blocks: party (0, 0) holds one row
        # of 6 features, and its 5 principal axes need 5
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text("dataset = blobs\nclusters = 3\nper_cluster = 1\n"
                            "c = 3\nd = 1\nm_hat = 2\n")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            assert cli.main(["user", str(cfg_path), "--connect",
                             f"127.0.0.1:{port}", "--party", "0,0",
                             "--timeout", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: party (0, 0) has 1 of the 5 rows its 6-feature block "
            "needs to reduce dimension\n")

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

    def test_frames_that_keep_arriving_cannot_outlast_the_deadline(self):
        # junk arriving every 20 ms, never a timeout in recv: the analyst
        # still stops at its deadline and names the party it lacks
        cfg = SessionConfig(c=2, d=1, k=2, timeout=0.3)
        share = sample_share(party=(0, 0), width=2, config=cfg.echo())

        class Chatty(Inbox):
            def recv(self, timeout):
                if self._items.qsize():
                    return super().recv(timeout)
                time.sleep(min(timeout, 0.02))
                self.received_count += 1
                return b"junk", None

        inbox = Chatty()
        InProcessUserEndpoint(inbox).send(encode_message(share))
        start = time.monotonic()
        with pytest.raises(SessionError, match=r"^timed out waiting for shares "
                                               r"from \[\(1, 0\)\]$"):
            analyst_party_run(cfg, inbox)
        assert inbox.received_count > 2
        assert time.monotonic() - start < 2.0

    def test_mismatched_config_echo_rejected(self):
        cfg = SessionConfig(c=2, d=1, k=2, timeout=1.0)
        other = SessionConfig(c=2, d=1, k=3, timeout=1.0)
        share = sample_share(party=(0, 0), config=other.echo())
        with pytest.raises(ProtocolError, match=r"\(0, 0\).*\['k'\]"):
            analyst_party_run(cfg, self._inbox_with(share))

    @pytest.mark.parametrize("field, sizes", [("anchor_tilde", (40, 41)),
                                              ("x_tilde", (20, 21))],
                             ids=["anchor-rows", "row-block-rows"])
    def test_share_of_another_row_count_aborts(self, field, sizes):
        # refused in the gather, with the later party named, so that no
        # honest share reaches an alignment that cannot use it
        cfg = SessionConfig(c=1, d=2, k=2, timeout=1.0)
        shares = [sample_share(party=(0, j), n=20, r=40, width=1,
                               config=cfg.echo()) for j in range(2)]
        for share, rows in zip(shares, sizes):
            setattr(share, field, np.ones((rows, 1)))
        with pytest.raises(ProtocolError, match=rf"party \(0, 1\) sends "
                                                rf"{sizes[1]}.*\(0, 0\)"):
            analyst_party_run(cfg, self._inbox_with(*shares))

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
        transport = MisroutingTransport()
        rows = user_send((0, 0), block, anchor, cfg, transport)
        with pytest.raises(ProtocolError, match="row block 5"):
            user_party_run((0, 0), rows, cfg, transport)

    @pytest.mark.parametrize("n, k", [(5, 7), (5, 2), (12, 7)])
    def test_answer_of_another_shape_detected(self, n, k):
        # an answer for the party's row block whose z_block rows or
        # centroids do not fit its block and its config
        class MisshapingTransport:
            def send(self, frame):
                pass

            def recv(self, timeout):
                return encode_message(sample_result(row_block=0, k=k, n=n))

        rng = np.random.default_rng(0)
        block = rng.normal(size=(12, 4))
        anchor = rng.uniform(-1, 1, size=(12, 4))
        cfg = SessionConfig(c=1, d=1, k=2, timeout=1.0)
        transport = MisshapingTransport()
        rows = user_send((0, 0), block, anchor, cfg, transport)
        assert rows == 12
        with pytest.raises(ProtocolError,
                           match=rf"party \(0, 0\) got {n} rows and {k} "
                                 r"centroids, not 12 and k = 2"):
            user_party_run((0, 0), rows, cfg, transport)

    def test_share_frame_in_place_of_a_result_detected(self):
        class EchoingTransport:
            """Hands the institution its own share back as the reply."""

            def send(self, frame):
                self.frame = frame

            def recv(self, timeout):
                return self.frame

        rng = np.random.default_rng(0)
        block = rng.normal(size=(12, 4))
        anchor = rng.uniform(-1, 1, size=(12, 4))
        cfg = SessionConfig(c=1, d=1, k=2, timeout=1.0)
        transport = EchoingTransport()
        rows = user_send((0, 0), block, anchor, cfg, transport)
        with pytest.raises(ProtocolError, match="expected an analyst result"):
            user_party_run((0, 0), rows, cfg, transport)

    def test_the_share_is_let_go_before_it_is_sent(self, monkeypatch):
        """While an institution sends and then waits for its reply, the
        share it built is already gone; only its party id is kept, for the
        errors that name it."""
        shares, real_step = [], federation.user_step

        def step(*args):
            share = real_step(*args)
            shares.append(weakref.ref(share))
            return share

        monkeypatch.setattr(federation, "user_step", step)

        class ReleaseCheckingTransport:
            def __init__(self, reply):
                self.reply = reply
                self.sent = []

            def send(self, frame):
                assert shares[-1]() is None
                self.sent.append(len(frame))

            def recv(self, timeout):
                assert shares[-1]() is None
                if self.reply is None:
                    raise SessionTimeoutError("no analyst frame")
                return encode_message(self.reply)

        rng = np.random.default_rng(0)
        block = rng.normal(size=(12, 4))
        anchor = rng.uniform(-1, 1, size=(30, 4))
        cfg = SessionConfig(c=2, d=2, k=3, timeout=1.0)
        ok = ReleaseCheckingTransport(sample_result(row_block=1, n=12))
        rows = user_send((1, 0), block, anchor, cfg, ok)
        labels = user_party_run((1, 0), rows, cfg, ok)
        assert labels.shape == (12,) and len(ok.sent) == 1
        late = ReleaseCheckingTransport(None)
        rows = user_send((np.int64(1), 1), block, anchor, cfg, late)
        with pytest.raises(SessionTimeoutError, match=r"party \(1, 1\)"):
            user_party_run((np.int64(1), 1), rows, cfg, late)
        stray = ReleaseCheckingTransport(sample_result(row_block=0, n=12))
        rows = user_send((1, 0), block, anchor, cfg, stray)
        with pytest.raises(ProtocolError,
                           match=r"row block 0 sent to party \(1, 0\)"):
            user_party_run((1, 0), rows, cfg, stray)
        assert len(shares) == 3


class TestAdmit:
    CFG = SessionConfig(c=2, d=2, k=2, timeout=1.0)

    def _share(self, party, n=20, r=40, config=None):
        return sample_share(party=party, n=n, r=r, width=1,
                            config=config or self.CFG.echo())

    def test_admits_each_party_of_a_full_lattice(self):
        # row blocks may differ in their row count; only the anchor is
        # common to all
        accepted = {}
        for i, j in [(1, 1), (0, 0), (1, 0), (0, 1)]:
            share = self._share((i, j), n=20 + i)
            admit(share, self.CFG, accepted)
            assert accepted[(i, j)] is share
        assert sorted(accepted) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("refused, match", [
        (dict(party=(2, 0)), r"party \(2, 0\) is outside the 2x2 lattice"),
        (dict(party=(0, 2)), r"party \(0, 2\) is outside the 2x2 lattice"),
        (dict(party=(0, 0)), r"duplicate share from party \(0, 0\)"),
        (dict(party=(0, 1), config={**CFG.echo(), "k": 3}),
         r"party \(0, 1\) echoes a different config: \['k'\]"),
        (dict(party=(0, 1), config={**CFG.echo(), "extra": 1}),
         r"party \(0, 1\) echoes a different config: \['extra'\]"),
        (dict(party=(1, 0), r=41),
         r"party \(1, 0\) sends 41 anchor rows, party \(0, 0\) 40"),
        (dict(party=(1, 0), n=21),
         r"party \(1, 0\) sends 21 rows, party \(1, 1\) of its row block 20"),
    ], ids=["outside-rows", "outside-columns", "duplicate", "echo",
            "echo-extra-key", "anchor-rows", "row-block-rows"])
    def test_refuses_a_share(self, refused, match):
        accepted = {}
        for party in [(0, 0), (1, 1)]:
            admit(self._share(party), self.CFG, accepted)
        before = dict(accepted)
        with pytest.raises(ProtocolError, match=match):
            admit(self._share(**refused), self.CFG, accepted)
        assert accepted == before


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
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
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
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
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
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
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

    @pytest.mark.parametrize("cut", [5, 200], ids=["in-prefix", "in-payload"])
    def test_peer_closing_mid_frame_is_one_dropped_frame(self, cut):
        # a peer that sends part of a share and closes is one frame that
        # does not decode; the honest parties must still finish the session
        ds, part, anchor, cfg = small_session_inputs(seed=7)
        local = run_in_process_session(ds.features, part, anchor, cfg)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        analyst = TcpAnalystEndpoint(timeout=cfg.timeout)
        try:
            with socket.create_connection(("127.0.0.1", analyst.port),
                                          timeout=5.0) as raw:
                raw.sendall(encode_message(sample_share())[:cut])
            deadline = time.monotonic() + 5.0
            while analyst._items.qsize() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
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

    def test_share_of_a_negative_party_is_dropped_and_counted(self):
        # a negative party index makes a share undecodable, so it is one
        # dropped frame, not a share that aborts the session
        ds, part, anchor, cfg = small_session_inputs(seed=7)
        local = run_in_process_session(ds.features, part, anchor, cfg)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        frame = encode_message(sample_share(party=(0, 0), config=cfg.echo()))
        negative = with_header(frame, lambda text: text.replace(
            '"party": [0, 0]', '"party": [-1, 0]'))
        with pytest.raises(DecodeError, match="nonnegative"):
            decode_message(negative)
        inbox = Inbox()
        InProcessUserEndpoint(inbox).send(negative)
        hit = _run_session(cfg, blocks, anchor_blocks, inbox,
                           lambda p: InProcessUserEndpoint(inbox))
        assert hit.report.frames_dropped == 1
        assert np.array_equal(local.report.labels, hit.report.labels)

    @pytest.mark.parametrize("run", [run_in_process_session, run_tcp_session],
                             ids=["in-process", "tcp"])
    def test_no_share_outlives_the_alignment(self, run, monkeypatch):
        # only x_hat is needed after the alignment: every share, and so
        # every frame its matrices are views into, is gone by clustering
        decoded, alive = [], []
        decode = federation.decode_message
        represent = federation.make_clustering_representation

        def recording_decode(frame):
            msg = decode(frame)
            if isinstance(msg, UserShareMsg):
                decoded.append(weakref.ref(msg))
            return msg

        def checking_represent(*args):
            alive.append(sum(ref() is not None for ref in decoded))
            return represent(*args)

        monkeypatch.setattr(federation, "decode_message", recording_decode)
        monkeypatch.setattr(federation, "make_clustering_representation",
                            checking_represent)
        ds, part, anchor, cfg = small_session_inputs()
        outcome = run(ds.features, part, anchor, cfg)
        assert len(decoded) == cfg.c * cfg.d
        assert alive == [0]
        assert outcome.report.frames_dropped == 0

    def test_tcp_session_closes_every_socket(self):
        ds, part, anchor, cfg = small_session_inputs(seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_tcp_session(ds.features, part, anchor, cfg)
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaked == []

    def test_session_closes_the_analyst_endpoint(self):
        ds, part, anchor, cfg = small_session_inputs(seed=5)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        inbox = Inbox()
        _run_session(cfg, blocks, anchor_blocks, inbox,
                     lambda p: InProcessUserEndpoint(inbox))
        with pytest.raises(SessionError, match="closed"):
            inbox.recv(0.1)

    def test_features_whose_gram_overflows_cluster_without_warning(self):
        # anchor entries near 1e160 square past float64's range, so the
        # alignment's Gram matrix is not finite and no Gram route applies
        ds, part, _, cfg = small_session_inputs()
        x = ds.features * 1e160
        anchor = generate_anchor(feature_bounds(x), r=x.shape[0], rng_seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = run_in_process_session(x, part, anchor, cfg)
        assert ari(ds.labels[part.row_order()], outcome.report.labels) == 1.0

    def test_both_analyst_paths_admit_each_share_once(self, monkeypatch):
        # run_dc_clustering builds its shares without frames, and still
        # passes each through the session's one gate
        admitted, real_admit = [], federation.admit

        def counted(share, cfg, accepted):
            admitted.append(share.party)
            return real_admit(share, cfg, accepted)

        monkeypatch.setattr(federation, "admit", counted)
        ds, part, anchor, cfg = small_session_inputs()
        lattice = [(i, j) for i in range(cfg.c) for j in range(cfg.d)]
        direct = run_dc_clustering(ds.features, part, anchor, cfg)
        assert admitted == lattice
        admitted.clear()
        wired = run_in_process_session(ds.features, part, anchor, cfg)
        assert admitted == lattice
        assert np.array_equal(direct.labels, wired.report.labels)

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

    def test_user_past_its_deadline_names_its_party(self):
        # an analyst that takes the share and never answers, as one in
        # another process may: the institution's wait ends at its timeout
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, timeout=0.2)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        analyst = TcpAnalystEndpoint(timeout=5.0)
        user = TcpUserEndpoint("127.0.0.1", analyst.port, timeout=cfg.timeout)
        try:
            rows = user_send((1, 0), blocks[(1, 0)], anchor_blocks[0], cfg,
                             user)
            analyst.recv(5.0)
            start = time.monotonic()
            with pytest.raises(SessionTimeoutError, match=r"party \(1, 0\)"):
                user_party_run((1, 0), rows, cfg, user)
            assert time.monotonic() - start < 2.0
        finally:
            user.close()
            analyst.close()

    @pytest.mark.parametrize("run", [run_in_process_session, run_tcp_session],
                             ids=["in-process", "tcp"])
    def test_deadline_leaves_out_the_analysts_compute(self, run, monkeypatch):
        # every answer is on its way before any institution waits, so an
        # analyst slower than the timeout fails nobody
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, timeout=0.2)
        direct = run_dc_clustering(ds.features, part, anchor, cfg)
        step = federation.analyst_step

        def slow_step(shares, cfg):
            time.sleep(3 * cfg.timeout)
            return step(shares, cfg)

        monkeypatch.setattr(federation, "analyst_step", slow_step)
        outcome = run(ds.features, part, anchor, cfg)
        assert np.array_equal(outcome.report.labels, direct.labels)
        assert np.array_equal(
            np.concatenate([outcome.user_labels[(i, 0)] for i in range(cfg.c)]),
            direct.labels)

    @staticmethod
    def _watch_threads(monkeypatch):
        """The threads started, and the thread each institution recovered on."""
        started, recovered_on = [], []
        start, recover = threading.Thread.start, federation.user_party_run

        def counted(thread):
            started.append(thread)
            start(thread)

        def watched(*args):
            recovered_on.append(threading.get_ident())
            return recover(*args)

        monkeypatch.setattr(threading.Thread, "start", counted)
        monkeypatch.setattr(federation, "user_party_run", watched)
        return started, recovered_on

    def test_in_process_session_starts_no_thread(self, monkeypatch):
        started, recovered_on = self._watch_threads(monkeypatch)
        ds, part, anchor, cfg = small_session_inputs()
        run_in_process_session(ds.features, part, anchor, cfg)
        assert started == []
        assert recovered_on == [threading.get_ident()] * (cfg.c * cfg.d)

    def test_tcp_session_starts_one_thread_per_connection(self, monkeypatch):
        # the analyst endpoint's accept thread and one per connection; every
        # institution recovers on the calling thread
        started, recovered_on = self._watch_threads(monkeypatch)
        ds, part, anchor, cfg = small_session_inputs()
        run_tcp_session(ds.features, part, anchor, cfg)
        assert len(started) == cfg.c * cfg.d + 1
        assert recovered_on == [threading.get_ident()] * (cfg.c * cfg.d)

    def test_each_institution_connects_right_before_its_fit(self,
                                                            monkeypatch):
        # a reader's deadline starts when its connection is accepted; were
        # every institution to connect first, the last share would arrive
        # after four fits, past its reader's 0.4 s
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, timeout=0.4)
        local = run_in_process_session(ds.features, part, anchor, cfg)
        fit = federation.fit_intermediate

        def slow_fit(*args, **kwargs):
            time.sleep(0.15)
            return fit(*args, **kwargs)

        monkeypatch.setattr(federation, "fit_intermediate", slow_fit)
        wired = run_tcp_session(ds.features, part, anchor, cfg)
        assert np.array_equal(local.report.labels, wired.report.labels)
        for party, labels in local.user_labels.items():
            assert np.array_equal(labels, wired.user_labels[party])

    def test_an_institution_failing_on_its_answer_ends_the_session_at_once(
            self, monkeypatch):
        # every answer is handed over and none can be decoded: the first
        # institution fails, and its endpoint and the others' are closed
        # before the analyst's, whose connection threads then stop sending
        # at once instead of waiting out the 5 s timeout
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, timeout=5.0)
        stall_first_answers(monkeypatch, cfg.c * cfg.d)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=r"party \(0, 0\) cannot "
                                                "decode its answer: bad magic"):
            run_tcp_session(ds.features, part, anchor, cfg)
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize("run", [run_in_process_session, run_tcp_session,
                                     run_dc_clustering],
                             ids=["in-process", "tcp", "direct"])
    def test_analyst_failure_ends_the_session_at_once(self, run):
        # k above the row count is found only once the shares are in; the
        # users must hear of it then, not at their 30 s deadline, and the
        # direct pipeline refuses it as a session does
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, k=100, timeout=30.0)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="k = 100 is above the shares' "
                                                "row count, 40"):
            run(ds.features, part, anchor, cfg)
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("run", [run_in_process_session, run_tcp_session,
                                     run_dc_clustering],
                             ids=["in-process", "tcp", "direct"])
    def test_too_few_rows_for_neighbors_are_named(self, run):
        # a spectral kNN graph needs more rows than neighbours per row;
        # 39 of 40 rows is the most it can take
        ds, part, anchor, cfg = small_session_inputs()
        cfg = dataclasses.replace(cfg, algorithm="spectral", neighbors=40)
        with pytest.raises(ProtocolError, match="^neighbors = 40 is not below "
                                                "the shares' row count, 40$"):
            run(ds.features, part, anchor, cfg)
        run(ds.features, part, anchor, dataclasses.replace(cfg, neighbors=39))

    def test_a_block_too_short_to_reduce_is_named(self):
        # below max(2, width - 1) rows a fit cannot reduce the block
        rng = np.random.default_rng(0)
        anchor, cfg = rng.normal(size=(8, 6)), SessionConfig(c=1, d=1, k=2)
        for rows, width in ((1, 6), (4, 6), (1, 2)):
            need = max(2, width - 1)
            with pytest.raises(ConfigurationError,
                               match=rf"party \(0, 1\) has {rows} of the {need} rows"):
                federation.user_step((0, 1), rng.normal(size=(rows, width)),
                                     anchor[:, :width], cfg)
        share = federation.user_step((0, 1), rng.normal(size=(5, 6)), anchor, cfg)
        assert share.x_tilde.shape == (5, 5)

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
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
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

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    def test_features_in_mixed_units_take_the_factored_route(self, monkeypatch,
                                                             mode):
        # one major feature in units 100 times smaller leaves every design's
        # Gram block too ill-conditioned for the Gram route: each run takes
        # the reference route, and u1 comes from svd
        ds = make_blobs(k=3, per_cluster=200, rng_seed=0)
        ds.features[:, 0] *= 100.0
        part = partition_lattice(ds, c=2, d=2, assignment="iid-random",
                                 rng_seed=1)
        anchor = generate_anchor(feature_bounds(ds.features), r=600,
                                 rng_seed=2)
        cfg = SessionConfig(c=2, d=2, k=3, mode=mode, timeout=20.0)
        factored, routes = [], []

        def design_route(g):
            small = well_conditioned_gram(g)
            factored.append(not small)
            return small

        def stack_route(*args):
            route = leading_left_vectors(*args)
            routes.append("gram" if route else "svd")
            return route

        def svd_route(*args):
            routes.append("reference")
            return svd_left_vectors(*args)

        monkeypatch.setattr(collaboration, "well_conditioned_gram",
                            design_route)
        monkeypatch.setattr(collaboration, "leading_left_vectors",
                            stack_route)
        monkeypatch.setattr(collaboration, "svd_left_vectors", svd_route)
        direct = run_dc_clustering(ds.features, part, anchor, cfg)
        local = run_in_process_session(ds.features, part, anchor, cfg)
        wired = run_tcp_session(ds.features, part, anchor, cfg)
        assert factored and all(factored)
        assert routes == ["reference"] * 3
        assert ari(ds.labels[part.row_order()], direct.labels) == 1.0
        for run in (local, wired):
            assert np.array_equal(run.report.labels, direct.labels)
            assert np.array_equal(run.report.model.x_hat, direct.model.x_hat)
        for party, labels in local.user_labels.items():
            assert np.array_equal(labels, wired.user_labels[party])

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
    """The timeout has one home: the explicit value, else 60 s.  The
    environment is never read, DCC_TIMEOUT_SECS included."""

    def test_explicit_wins(self):
        assert resolve_timeout(2.5) == 2.5

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DCC_TIMEOUT_SECS", "7.5")
        assert resolve_timeout() == DEFAULT_TIMEOUT_SECS

    def test_default(self):
        assert resolve_timeout() == DEFAULT_TIMEOUT_SECS

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("DCC_TIMEOUT_SECS", "soon")
        assert resolve_timeout() == DEFAULT_TIMEOUT_SECS

    def test_config_resolves_once(self):
        cfg = SessionConfig(c=1, d=1, k=2)
        assert cfg.timeout == DEFAULT_TIMEOUT_SECS
        assert dataclasses.replace(cfg, timeout=2).timeout == 2.0

    @pytest.mark.parametrize("source", ["explicit", "env", "cli"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_rejects_non_positive_or_non_finite(self, monkeypatch, tmp_path,
                                                capsys, source, value):
        if source == "cli":
            cfg = tmp_path / "wire.cfg"
            cfg.write_text("dataset = blobs\nclusters = 2\nper_cluster = 10\n"
                           "c = 1\nd = 2\nm_hat = 2\n")
            assert cli.main(["user", str(cfg), "--connect", "127.0.0.1:9",
                             "--party", "0,0", "--timeout", value]) == 2
            assert "positive, finite" in capsys.readouterr().err
            return
        if source == "env":
            # not read, so not refused either
            monkeypatch.setenv("DCC_TIMEOUT_SECS", value)
            assert SessionConfig(c=1, d=1, k=2).timeout == DEFAULT_TIMEOUT_SECS
            return
        with pytest.raises(ConfigurationError, match="positive, finite"):
            SessionConfig(c=1, d=1, k=2, timeout=float(value))


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

    def test_listen_address_in_use_is_a_configuration_error(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "wire.cfg"
        cfg.write_text("dataset = blobs\nclusters = 2\nper_cluster = 10\n"
                       "c = 1\nd = 2\nm_hat = 2\n")
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            assert cli.main(["analyst", str(cfg), "--listen",
                             f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(port) in err
