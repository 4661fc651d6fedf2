"""Command-line front end.

`run` executes one config (or every .cfg in a directory) with the in-process
federation and writes reports.  `analyst` and `user` run the same protocol
over TCP so the roles can live in separate processes: both sides read the
same config and derive the identical partition from the master seed, each
user then only touches its own block.  `datasets fetch` pulls the open
datasets into the local cache.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import datasets
from .errors import ConfigurationError, IngestionError
from .experiment import (ExperimentSpec, load_config, run_experiment,
                         emit_report, trial_inputs)
from .federation import (TcpAnalystEndpoint, TcpUserEndpoint,
                         analyst_party_run, user_party_run)
from .seeds import derive_seed

_FORMAT_ALIASES = {"md": "markdown-table", "csv": "csv", "json": "json",
                   "markdown-table": "markdown-table"}


def _collect_configs(path: str) -> list:
    if os.path.isdir(path):
        found = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".cfg"))
        if not found:
            raise ConfigurationError(f"no .cfg files under {path}")
        return found
    return [path]


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    if args.trials is not None:
        spec.trials = args.trials
    if args.seed is not None:
        spec.master_seed = args.seed
    if args.out is not None:
        spec.out_dir = args.out
    if args.format is not None:
        spec.formats = tuple(_FORMAT_ALIASES[f] for f in args.format)
    return spec


def _cmd_run(args) -> int:
    status = 0
    for cfg_path in _collect_configs(args.config):
        spec = _apply_overrides(load_config(cfg_path), args)
        report = run_experiment(spec)
        paths = emit_report(report)
        agg = report.aggregate()
        print(f"[{spec.name}] trials={report.completed_trials()} "
              f"aborted={len(report.aborted)} m_hat={report.extras['m_hat_used']}")
        for method in report.methods:
            cells = "  ".join(f"{m}={agg[method][m]['mean']:.3f}"
                              f"({agg[method][m]['std']:.3f})"
                              for m in ("ari", "nmi", "acc"))
            print(f"  {method:18s} {cells}")
        for p in paths:
            print(f"  wrote {p}")
        if report.aborted:
            status = 1
            for a in report.aborted:
                print(f"  aborted trial {a['trial']}: {a['error']}",
                      file=sys.stderr)
    return status


def _session_pieces(spec: ExperimentSpec):
    """Trial 0's inputs, which every role re-derives from the shared config."""
    return trial_inputs(spec, derive_seed(spec.master_seed, "trial", 0))


def _parse_hostport(text: str):
    host, _, port = text.rpartition(":")
    if not host:
        raise ConfigurationError(f"expected host:port, got {text!r}")
    return host, int(port)


def _cmd_analyst(args) -> int:
    spec = load_config(args.config)
    _, _, _, cfg = _session_pieces(spec)
    if args.timeout is not None:
        cfg.timeout = args.timeout
    host, port = _parse_hostport(args.listen)
    endpoint = TcpAnalystEndpoint(host=host, port=port, timeout=cfg.timeout)
    print(f"analyst listening on {host}:{endpoint.port} "
          f"({cfg.c}x{cfg.d} lattice, k={cfg.k}, {cfg.algorithm})")
    try:
        report = analyst_party_run(cfg, endpoint)
    finally:
        endpoint.close()
    print(f"session done: m_hat={report.m_hat} residual={report.residual:.3e} "
          f"received={report.messages_received} sent={report.messages_sent}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "analyst_labels.csv")
        np.savetxt(path, report.labels, fmt="%d", header="label", comments="")
        print(f"wrote {path}")
    return 0


def _cmd_user(args) -> int:
    spec = load_config(args.config)
    try:
        i, j = (int(p) for p in args.party.split(","))
    except ValueError:
        raise ConfigurationError(f"--party expects i,j, got {args.party!r}")
    ds, part, anchor, cfg = _session_pieces(spec)
    if args.timeout is not None:
        cfg.timeout = args.timeout
    block = part.block(ds.features, i, j)
    anchor_block = anchor.features[:, part.col_index_sets[j]]
    host, port = _parse_hostport(args.connect)
    endpoint = TcpUserEndpoint(host, port, timeout=cfg.timeout)
    try:
        labels = user_party_run((i, j), block, anchor_block, cfg, endpoint)
    finally:
        endpoint.close()
    print(f"party ({i},{j}): {labels.size} rows labeled, "
          f"{len(set(labels.tolist()))} clusters present")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"labels_{i}_{j}.csv")
        np.savetxt(path, labels, fmt="%d", header="label", comments="")
        print(f"wrote {path}")
    return 0


def _cmd_datasets(args) -> int:
    if args.action != "fetch":
        raise ConfigurationError(f"unknown datasets action {args.action!r}")
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
                       choices=sorted(_FORMAT_ALIASES))
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
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
