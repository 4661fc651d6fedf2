"""Command-line front end.

`run` executes one config (or every .cfg in a directory) with the in-process
federation and writes reports.  `analyst` and `user` run the same protocol
over TCP so the roles can live in separate processes: both sides read the
same config and derive the identical partition from the master seed, each
user then only touches its own block.  `datasets fetch` pulls the open
datasets into the local cache.

A failure the user can act on prints one `error: ...` line and exits with
EXIT_CONFIG (2) for a config, file or address that is not usable, or
EXIT_SESSION (3) for a session that could not complete: a peer that cannot
be reached, a timeout, or a peer that broke the protocol.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from . import datasets
from .errors import (ConfigurationError, IngestionError, ProtocolError,
                     SessionError)
from .experiment import (FORMAT_ALIASES, FORMATS, METRICS, ExperimentSpec,
                         load_config, run_experiment, emit_report,
                         trial_inputs, trial_seed_for)
from .federation import (TcpAnalystEndpoint, TcpUserEndpoint,
                         _session_inputs, analyst_party_run, user_party_run,
                         user_send)

EXIT_CONFIG = 2
EXIT_SESSION = 3


def _collect_configs(path: str) -> list:
    if os.path.isdir(path):
        found = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".cfg"))
        if not found:
            raise ConfigurationError(f"no .cfg files under {path}")
        return found
    return [path]


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    given = {"trials": args.trials, "master_seed": args.seed,
             "out_dir": args.out, "formats": args.format}
    return dataclasses.replace(
        spec, **{key: v for key, v in given.items() if v is not None})


@contextlib.contextmanager
def _writing(out_dir: str):
    """Turn an OSError while writing under out_dir into a
    ConfigurationError that names the path it failed on."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {exc.filename or out_dir}: "
                                 f"{exc.strerror or exc}") from exc


def _write_labels(out_dir: str, name: str, labels) -> None:
    """Write a role's labels, one per line under a `label` header, to
    out_dir/name, making out_dir if it is missing."""
    path = os.path.join(out_dir, name)
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        np.savetxt(path, labels, fmt="%d", header="label", comments="")
    print(f"wrote {path}")


def _cmd_run(args) -> int:
    status = 0
    for cfg_path in _collect_configs(args.config):
        spec = _apply_overrides(load_config(cfg_path), args)
        report = run_experiment(spec)
        with _writing(spec.out_dir):
            paths = emit_report(report)
        agg = report.aggregate()
        print(f"[{spec.name}] trials={report.completed_trials()} "
              f"aborted={len(report.aborted)} m_hat={report.extras['m_hat_used']}")
        for method in report.methods:
            cells = "  ".join(f"{m}={agg[method][m]['mean']:.3f}"
                              f"({agg[method][m]['std']:.3f})"
                              for m in METRICS)
            print(f"  {method:18s} {cells}")
        for p in paths:
            print(f"  wrote {p}")
        if report.aborted:
            status = 1
            for a in report.aborted:
                print(f"  aborted trial {a['trial']}: {a['error']}",
                      file=sys.stderr)
    return status


def _session_pieces(spec: ExperimentSpec, timeout: float | None):
    """Trial 0's inputs, which every role re-derives from the shared config,
    with `timeout` as the session's timeout unless it is None."""
    ds, part, anchor, cfg = trial_inputs(spec, trial_seed_for(spec, 0))
    if timeout is not None:
        cfg = dataclasses.replace(cfg, timeout=timeout)
    return ds, part, anchor, cfg


def _parse_hostport(text: str):
    host, _, port = text.rpartition(":")
    if not (host and port.isdecimal() and int(port) <= 65535):
        raise ConfigurationError(
            f"expected host:port with a port in 0-65535, got {text!r}")
    return host, int(port)


def _cmd_analyst(args) -> int:
    spec = load_config(args.config)
    host, port = _parse_hostport(args.listen)
    _, _, _, cfg = _session_pieces(spec, args.timeout)
    try:
        endpoint = TcpAnalystEndpoint(host=host, port=port, timeout=cfg.timeout)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot listen on {args.listen}: {exc}") from exc
    print(f"analyst listening on {host}:{endpoint.port} "
          f"({cfg.c}x{cfg.d} lattice, k={cfg.k}, {cfg.algorithm})")
    try:
        report = analyst_party_run(cfg, endpoint)
    finally:
        endpoint.close()
    print(f"session done: m_hat={report.model.m_hat} "
          f"residual={report.model.residual:.3e} "
          f"received={endpoint.received_count} sent={endpoint.sent_count} "
          f"dropped={report.frames_dropped}")
    if args.out:
        _write_labels(args.out, "analyst_labels.csv", report.labels)
    return 0


def _cmd_user(args) -> int:
    spec = load_config(args.config)
    try:
        i, j = (int(p) for p in args.party.split(","))
    except ValueError:
        raise ConfigurationError(f"--party expects i,j, got {args.party!r}")
    host, port = _parse_hostport(args.connect)
    ds, part, anchor, cfg = _session_pieces(spec, args.timeout)
    blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg,
                                            [(i, j)])
    endpoint = TcpUserEndpoint(host, port, timeout=cfg.timeout)
    try:
        rows = user_send((i, j), blocks[(i, j)], anchor_blocks[j], cfg,
                         endpoint)
        labels = user_party_run((i, j), rows, cfg, endpoint)
    finally:
        endpoint.close()
    print(f"party ({i},{j}): {labels.size} rows labeled, "
          f"{len(set(labels.tolist()))} clusters present")
    if args.out:
        _write_labels(args.out, f"labels_{i}_{j}.csv", labels)
    return 0


def _cmd_datasets(args) -> int:
    if args.name == "all":
        paths = datasets.fetch_all(data_dir=args.dest, force=args.force)
        for name, path in paths.items():
            print(f"{name}: {path}")
    else:
        print(datasets.fetch(args.name, data_dir=args.dest, force=args.force))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dc-cluster",
        description="Privacy-preserving collaborative clustering over "
                    "lattice-partitioned data.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiment config(s) in-process")
    run_p.add_argument("config", help="config file or directory of .cfg files")
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--format", nargs="+", default=None,
                       choices=sorted(FORMATS + tuple(FORMAT_ALIASES)))
    run_p.set_defaults(fn=_cmd_run)

    an_p = sub.add_parser("analyst", help="serve the analyst role over TCP")
    an_p.add_argument("config")
    an_p.add_argument("--listen", required=True, metavar="HOST:PORT")
    an_p.add_argument("--timeout", type=float, default=None)
    an_p.add_argument("--out", default=None)
    an_p.set_defaults(fn=_cmd_analyst)

    us_p = sub.add_parser("user", help="run one institution over TCP")
    us_p.add_argument("config")
    us_p.add_argument("--connect", required=True, metavar="HOST:PORT")
    us_p.add_argument("--party", required=True, metavar="I,J")
    us_p.add_argument("--timeout", type=float, default=None)
    us_p.add_argument("--out", default=None)
    us_p.set_defaults(fn=_cmd_user)

    ds_p = sub.add_parser("datasets", help="manage the open-data cache")
    ds_p.add_argument("action", choices=["fetch"])
    ds_p.add_argument("name", help="dataset name or 'all'")
    ds_p.add_argument("--dest", default=datasets.DEFAULT_DATA_DIR)
    ds_p.add_argument("--force", action="store_true")
    ds_p.set_defaults(fn=_cmd_datasets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, IngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SessionError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SESSION


if __name__ == "__main__":
    raise SystemExit(main())
