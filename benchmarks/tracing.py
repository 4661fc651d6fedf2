"""In-memory spans around the public calls between dccluster's layers.

A traced run swaps a timing wrapper into the module namespace where each
caller looks a function up -- `dccluster.federation.build_collaboration`, not
`dccluster.collaboration.build_collaboration` -- and puts the original back
afterwards.  Nothing under src/ knows about it.

Every span records its name, start, end, thread and parent.  The parent is
the top of the calling thread's span stack; a party thread starts with an
empty stack, so its first span hangs under the session that is open.  The
benchmark is a closed loop with one session at a time, which is what makes
that session unambiguous.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SESSION = "session"


def _frame_facts(args, kwargs, frame):
    from dccluster.federation import KIND_USER_SHARE
    return {"bytes": len(frame), "up": frame[4] == KIND_USER_SHARE}


def _dense_facts(args, kwargs, result):
    n = args[0].shape[0]
    return {"dense_bytes": n * n * 8}


# (module, name as its callers look it up there, span name, facts to record)
HOOKS = (
    ("dccluster.federation", "run_tcp_session", SESSION, None),
    ("dccluster.federation", "run_in_process_session", SESSION, None),
    ("dccluster.experiment", "run_in_process_session", SESSION, None),
    ("dccluster.experiment", "kmeans", "experiment.baseline", None),
    ("dccluster.experiment", "spectral_cluster", "experiment.baseline", None),
    ("dccluster.experiment", "score_all", "experiment.score", None),
    ("dccluster.federation", "analyst_party_run", "federation.analyst", None),
    ("dccluster.federation", "user_party_run", "federation.user", None),
    ("dccluster.federation", "encode_message", "federation.encode",
     _frame_facts),
    ("dccluster.federation", "decode_message", "federation.decode",
     lambda args, kwargs, msg: {"bytes": len(args[0])}),
    ("dccluster.federation", "fit_intermediate", "collaboration.fit", None),
    ("dccluster.federation", "build_collaboration", "collaboration.align",
     lambda args, kwargs, model: {"residual": model.residual}),
    ("dccluster.federation", "make_clustering_representation",
     "collaboration.representation", None),
    ("dccluster.federation", "analyst_cluster", "collaboration.cluster", None),
    ("dccluster.federation", "assign_nearest", "clustering.assign", None),
    ("dccluster.collaboration", "svd", "numerics.svd", None),
    ("dccluster.collaboration", "pinv", "numerics.pinv", None),
    # pinv's own factorization
    ("dccluster.numerics", "svd", "numerics.svd", None),
    ("dccluster.collaboration", "kmeans", "clustering.kmeans",
     lambda args, kwargs, model: {"n_iter": model.n_iter}),
    ("dccluster.collaboration", "spectral_embedding", "clustering.spectral",
     None),
    ("dccluster.clustering", "build_affinity", "clustering.affinity",
     _dense_facts),
    ("dccluster.clustering", "laplacian_sym", "clustering.laplacian",
     _dense_facts),
    ("dccluster.clustering", "eig_symmetric", "clustering.eigsolve",
     _dense_facts),
    ("dccluster.clustering", "sqdist", "clustering.sqdist", None),
)


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "session",
                 "facts")

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.session = self if name == SESSION else (
            parent.session if parent is not None else None)
        self.facts = {}
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def under(self, name: str) -> bool:
        """True when some ancestor of this span is named `name`."""
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """Collects spans from the wrappers that `installed()` puts in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._session: Span | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, facts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._session
            span = Span(name, threading.get_ident(), parent)
            self.spans.append(span)
            stack.append(span)
            if name == SESSION:
                outer, self._session = self._session, span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if name == SESSION:
                    self._session = outer
            if facts is not None:
                span.facts.update(facts(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap every hook's wrapper in; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, facts in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, facts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


@contextmanager
def wire_counter():
    """Count the bytes of every frame encoded; no timing, no spans."""
    from dccluster import federation
    original = federation.encode_message
    counted = {"bytes": 0}
    lock = threading.Lock()  # party threads encode concurrently

    def encode_message(msg):
        frame = original(msg)
        with lock:
            counted["bytes"] += len(frame)
        return frame

    federation.encode_message = encode_message
    try:
        yield counted
    finally:
        federation.encode_message = original


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals for the spans of one benchmark call.

    Times and counts add up over every session in the call; `fit_max_s` adds
    up each session's slowest fit, the one that holds up its gather.
    """
    by_name = defaultdict(list)
    by_session = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.session is not None:
            by_session[span.session].append(span)

    def seconds(name, keep=lambda s: True):
        return sum(s.seconds for s in by_name[name] if keep(s))

    def count(name, keep=lambda s: True):
        return sum(1 for s in by_name[name] if keep(s))

    def fact(name, key, keep=lambda s: True):
        return sum(s.facts[key] for s in by_name[name] if keep(s))

    def under(name):
        return lambda s: s.under(name)

    def called_by(name):
        return lambda s: s.parent is not None and s.parent.name == name

    gather = reply = fit_max = blocking = session_wall = 0.0
    residuals = []
    for members in by_session.values():
        first = {}
        for span in members:
            first.setdefault(span.name, span)
        session = first[SESSION]
        align = first["collaboration.align"]
        cluster = first["collaboration.cluster"]
        users_done = max(s.end for s in members if s.name == "federation.user")
        gathered = align.start - session.start
        replied = users_done - cluster.end
        gather += gathered
        reply += replied
        fit_max += max(s.seconds for s in members
                       if s.name == "collaboration.fit")
        blocking += (gathered + align.seconds + cluster.seconds + replied
                     + first["collaboration.representation"].seconds)
        session_wall += session.seconds
        residuals.append(align.facts["residual"])

    under_align = under("collaboration.align")
    # the analyst's spectral path, not a spectral baseline in an experiment
    analyst = under("collaboration.representation")
    recover = called_by("federation.user")
    encode_s = seconds("federation.encode")
    decode_s = seconds("federation.decode")
    sent = fact("federation.encode", "bytes")
    up = fact("federation.encode", "bytes", lambda s: s.facts["up"])
    trials = [s.seconds for s in by_name[SESSION]]
    trial_q = (statistics.quantiles(trials, n=10, method="inclusive")
               if len(trials) >= 10 else [0.0] * 9)
    return {
        "federation.gather_s": gather,
        "federation.reply_s": reply,
        "federation.encode_s": encode_s,
        "federation.decode_s": decode_s,
        "federation.frames": count("federation.encode"),
        "federation.codec_mb_per_s": (
            (sent + fact("federation.decode", "bytes"))
            / (encode_s + decode_s) / 1e6 if encode_s + decode_s > 0 else 0.0),
        "federation.bytes_up": up,
        "federation.bytes_down": sent - up,
        "collaboration.fit_s": seconds("collaboration.fit"),
        "collaboration.fit_max_s": fit_max,
        "collaboration.fit_calls": count("collaboration.fit"),
        "collaboration.align_s": seconds("collaboration.align"),
        "collaboration.align_svd_s": seconds("numerics.svd", under_align),
        "collaboration.align_svd_calls": count("numerics.svd", under_align),
        "collaboration.align_pinv_s": seconds("numerics.pinv", under_align),
        "collaboration.align_pinv_calls": count("numerics.pinv", under_align),
        "collaboration.align_residual": (statistics.fmean(residuals)
                                         if residuals else 0.0),
        "collaboration.representation_s": seconds(
            "collaboration.representation"),
        "collaboration.cluster_s": seconds("collaboration.cluster"),
        "clustering.affinity_s": seconds("clustering.affinity", analyst),
        "clustering.laplacian_s": seconds("clustering.laplacian", analyst),
        "clustering.eigsolve_s": seconds("clustering.eigsolve", analyst),
        "clustering.spectral_s": seconds("clustering.spectral"),
        "clustering.dense_mb": sum(
            fact(name, "dense_bytes", analyst) for name in (
                "clustering.affinity", "clustering.laplacian",
                "clustering.eigsolve")) / 1e6,
        "clustering.kmeans_s": seconds("clustering.kmeans"),
        "clustering.lloyd_passes": count("clustering.sqdist",
                                         under("clustering.kmeans")),
        "clustering.kmeans_n_iter": fact("clustering.kmeans", "n_iter"),
        "clustering.recover_s": seconds("clustering.assign", recover),
        "clustering.recover_calls": count("clustering.assign", recover),
        "experiment.trial_s.p50": trial_q[4],
        "experiment.trial_s.p90": trial_q[8],
        "experiment.baseline_s": seconds("experiment.baseline"),
        "experiment.score_s": seconds("experiment.score"),
        "trace.blocking_share": (blocking / session_wall
                                 if session_wall > 0 else 0.0),
    }
