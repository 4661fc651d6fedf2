import codecs
import csv
import dataclasses
import gc
import json
import pathlib
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from dccluster import cli, data, experiment
from dccluster.data import make_blobs
from dccluster.errors import ConfigurationError
from dccluster.experiment import (METRICS, ExperimentSpec, TrialReport,
                                  run_experiment, emit_report, parse_config,
                                  load_config, trial_inputs)
from dccluster.federation import SessionConfig, SessionSettings
from dccluster.metrics import ari


def tiny_spec(**overrides):
    base = dict(name="tiny", dataset="blobs", c=2, d=2, clusters=2,
                per_cluster=15, trials=3, m_hat=2, master_seed=1,
                local="first", out_dir="unused")
    base.update(overrides)
    return ExperimentSpec(**base)


TINY_CFG = """\
# quick smoke experiment
name = smoke
dataset = blobs
clusters = 2
per_cluster = 12
c = 2
d = 2
m_hat = 2
trials = 2
local = none
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class TestParseConfig:
    def test_every_key_kind(self):
        spec = parse_config("""
            dataset = csv
            csv_path = data/iris.csv
            label_column = species          # trailing comment
            c = 10
            d = 2
            k = none
            algorithm = spectral
            neighbors = 9
            trials = 4
            scale = true
            centralized = false
            assignment = by-cluster-map
            cluster_map = 0:0 1:0,1 2:1
            col_blocks = 0,2,3|1,4,5
            formats = csv, json
            local = all
        """, name="parsed")
        assert spec.name == "parsed"
        assert spec.dataset == "csv"
        assert spec.k is None
        assert spec.scale is True
        assert spec.centralized is False
        assert spec.cluster_map == {0: (0,), 1: (0, 1), 2: (1,)}
        assert spec.col_blocks == ((0, 2, 3), (1, 4, 5))
        assert spec.formats == ("csv", "json")

    def test_later_key_wins(self):
        spec = parse_config("dataset = blobs\nc = 1\nd = 1\nc = 3\n")
        assert spec.c == 3

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config("dataset = blobs\nwidgets = 5\nc = 1\nd = 1\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("dataset blobs\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigurationError, match="true/false"):
            parse_config("dataset = blobs\nc = 1\nd = 1\nscale = yes\n")

    def test_bad_cluster_map_entry(self):
        with pytest.raises(ConfigurationError, match="cluster_map"):
            parse_config("dataset = blobs\nc = 1\nd = 1\ncluster_map = 0\n")

    @pytest.mark.parametrize("key, value, match", [
        ("col_blocks", "0,1|2|3,4,5", "col_blocks has 3 groups, expected d = 2"),
        ("col_blocks", "0,1,2,3,4,5", "col_blocks has 1 groups, expected d = 2"),
        ("cluster_map", "0:0 1:0,2", "cluster_map sends cluster 1 outside"),
        ("cluster_map", "0:-1 1:1", "cluster_map sends cluster 0 outside"),
    ])
    def test_lattice_keys_checked_when_parsed(self, key, value, match):
        # before any trial runs partition_lattice into its own error
        with pytest.raises(ConfigurationError, match=match):
            parse_config(f"dataset = blobs\nc = 2\nd = 2\n{key} = {value}\n")

    @pytest.mark.parametrize("lines, match", [
        ("cluster_map = 0:0 1:0 2:0\n",
         "cluster_map is read only by assignment = by-cluster-map, "
         "not iid-random"),
        ("assignment = contiguous\ncluster_map = 0:0 1:1 2:1\n",
         "not contiguous"),
        ("assignment = by-cluster-map\n",
         "by-cluster-map assignment needs cluster_map"),
    ], ids=["unread-under-iid", "unread-under-contiguous", "no-map-to-read"])
    def test_cluster_map_goes_with_its_assignment(self, lines, match):
        # a map no trial would read, or a map-driven split without one, is
        # refused before any trial runs
        with pytest.raises(ConfigurationError, match=match):
            parse_config(f"dataset = blobs\nc = 2\nd = 2\nclusters = 3\n{lines}")

    def test_blobs_take_at_most_the_clusters_they_can_place(self):
        bound = data.MAX_BLOB_CLUSTERS
        assert parse_config(f"dataset = blobs\nc = 1\nd = 1\n"
                            f"clusters = {bound}\n").clusters == bound
        with pytest.raises(ConfigurationError, match=f"at most {bound} "):
            parse_config(f"dataset = blobs\nc = 1\nd = 1\n"
                         f"clusters = {bound + 1}\n")
        # the bound is the blob generator's; rings take any count
        assert parse_config("dataset = circles\nc = 1\nd = 1\n"
                            "clusters = 12\n").clusters == 12

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="jsn"):
            parse_config("dataset = blobs\nc = 1\nd = 1\nformats = csv, jsn\n")

    def test_md_alias_resolved_in_the_spec(self):
        spec = parse_config("dataset = blobs\nc = 1\nd = 1\nformats = md\n")
        assert spec.formats == ("markdown-table",)

    def test_non_numeric_int(self):
        with pytest.raises(ValueError):
            parse_config("dataset = blobs\nc = lots\nd = 1\n")

    def test_spec_validation_applies(self):
        with pytest.raises(ConfigurationError, match="trials"):
            parse_config("dataset = blobs\nc = 1\nd = 1\ntrials = 0\n")
        with pytest.raises(ConfigurationError, match="dataset"):
            parse_config("dataset = parquet\nc = 1\nd = 1\n")
        with pytest.raises(ConfigurationError, match="csv_path"):
            parse_config("dataset = csv\nc = 1\nd = 1\n")
        with pytest.raises(ConfigurationError, match="local"):
            parse_config("dataset = blobs\nc = 1\nd = 1\nlocal = some\n")
        with pytest.raises(ConfigurationError, match="^assignment must be"):
            parse_config("dataset = blobs\nc = 1\nd = 1\nassignment = striped\n")
        for value in (0, -3):
            with pytest.raises(ConfigurationError, match="^anchor_size must be"):
                parse_config(f"dataset = blobs\nc = 1\nd = 1\nanchor_size = {value}\n")

    @pytest.mark.parametrize("key, value, match", [
        ("clusters", 0, "^clusters must be"),
        ("per_cluster", 0, "^per_cluster must be"),
        ("per_cluster", -2, "^per_cluster must be"),
    ])
    def test_generator_counts_checked_when_parsed(self, key, value, match):
        # before any trial runs the generator into its own error
        for dataset in ("blobs", "circles"):
            with pytest.raises(ConfigurationError, match=match):
                parse_config(f"dataset = {dataset}\nc = 1\nd = 1\n"
                             f"{key} = {value}\n")

    def test_circles_need_two_rings_when_parsed(self):
        with pytest.raises(ConfigurationError, match="circles.*2 clusters"):
            parse_config("dataset = circles\nc = 1\nd = 1\nclusters = 1\n")
        spec = parse_config("dataset = circles\nc = 1\nd = 1\nclusters = 2\n")
        assert spec.clusters == 2
        assert parse_config("dataset = blobs\nc = 1\nd = 1\nclusters = 1\n"
                            ).clusters == 1

    def test_missing_required_field(self):
        with pytest.raises(ConfigurationError):
            parse_config("dataset = blobs\n")    # no lattice shape

    def test_load_config_names_from_filename(self, tmp_path):
        path = tmp_path / "ring_study.cfg"
        path.write_text(TINY_CFG.replace("name = smoke\n", ""))
        spec = load_config(str(path))
        assert spec.name == "ring_study"

    def test_load_config_drops_a_byte_order_mark(self, tmp_path):
        text = TINY_CFG.replace("# quick smoke experiment\n", "")
        assert text.startswith("name")
        path = tmp_path / "smoke.cfg"
        path.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert load_config(str(path)) == parse_config(text)

    def test_explicit_name_beats_filename(self, tmp_path):
        path = tmp_path / "whatever.cfg"
        path.write_text(TINY_CFG)
        assert load_config(str(path)).name == "smoke"


CONFIGS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.cfg"))

# Out-of-range settings: each is a ConfigurationError as soon as the spec or
# the session config is built, before any party fits.
BAD_SETTINGS = [("algorithm", "spectrl"), ("mode", "afine"), ("neighbors", 0),
                ("max_iter", 0), ("restarts", 0), ("m_hat", 0), ("c", 0),
                ("d", 0), ("k", 0)]


class TestSessionSettings:
    @pytest.mark.parametrize("key, value", BAD_SETTINGS)
    def test_bad_value_rejected_when_built(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            SessionConfig(**{"c": 1, "d": 2, "k": 2, key: value})
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            parse_config(f"dataset = blobs\nc = 1\nd = 2\n{key} = {value}\n")

    def test_only_none_means_row_count_and_ground_truth(self):
        spec = tiny_spec(anchor_size=None, k=None)
        ds, _, anchor, cfg = trial_inputs(spec, 5)
        assert anchor.features.shape[0] == ds.features.shape[0]
        assert cfg.k == ds.n_clusters == 2
        _, _, anchor, cfg = trial_inputs(tiny_spec(anchor_size=1, k=1), 5)
        assert (anchor.features.shape[0], cfg.k) == (1, 1)

    def test_config_keys_unchanged(self):
        assert set(experiment._PARSERS) == {
            "algorithm", "anchor_size", "assignment", "c", "centralized",
            "cluster_map", "clusters", "col_blocks", "csv_path", "d",
            "dataset", "formats", "k", "label_column", "local", "m_hat",
            "master_seed", "max_iter", "mode", "name", "neighbors", "out_dir",
            "per_cluster", "restarts", "scale", "trials"}

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_trial_config_carries_the_spec_settings(self, path):
        spec = load_config(str(path))
        # a csv config reads its rows from `loaded`, not from its csv_path
        _, _, _, cfg = trial_inputs(spec, 12345, make_blobs(3, 20, rng_seed=0))
        for f in dataclasses.fields(SessionSettings):
            assert getattr(cfg, f.name) == getattr(spec, f.name), f.name
        assert cfg.master_seed == 12345

    def test_every_setting_reaches_the_session(self):
        settings = dict(algorithm="spectral", mode="linear", neighbors=7,
                        max_iter=55, m_hat=1, scale=True, restarts=4)
        _, _, _, cfg = trial_inputs(tiny_spec(**settings), 9)
        assert {key: getattr(cfg, key) for key in settings} == settings


class TestSpecEcho:
    def test_echo_is_json_ready(self):
        spec = tiny_spec(assignment="by-cluster-map",
                         cluster_map={0: (0,), 1: (0, 1)},
                         col_blocks=((0, 1), (2, 3, 4, 5)))
        echo = spec.echo()
        text = json.dumps(echo)
        back = json.loads(text)
        assert back["cluster_map"] == {"0": [0], "1": [0, 1]}
        assert back["col_blocks"] == [[0, 1], [2, 3, 4, 5]]
        assert back["m_hat"] == 2


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

class TestRunExperiment:
    def test_easy_blobs_recovered(self):
        report = run_experiment(tiny_spec())
        assert report.methods == ["proposed", "centralized", "local(0,0)"]
        assert report.aborted == []
        assert len(report.trial_seeds) == 3
        for method in report.methods:
            for metric in METRICS:
                assert len(report.values[method][metric]) == 3
        agg = report.aggregate()
        assert agg["proposed"]["ari"]["mean"] > 0.99
        assert agg["centralized"]["acc"]["mean"] > 0.99

    def test_rerun_is_identical(self):
        a = run_experiment(tiny_spec())
        b = run_experiment(tiny_spec())
        assert a == b

    def test_master_seed_changes_trials(self):
        a = run_experiment(tiny_spec(master_seed=1))
        b = run_experiment(tiny_spec(master_seed=2))
        assert a.trial_seeds != b.trial_seeds

    def test_extras_describe_the_alignment(self):
        report = run_experiment(tiny_spec())
        assert report.extras["m_hat_used"] == [2]
        assert report.extras["neighbors"] == 10
        assert 0.0 <= report.extras["mean_residual"] < 1.0

    def test_local_none(self):
        report = run_experiment(tiny_spec(local="none", trials=1))
        assert report.methods == ["proposed", "centralized"]

    def test_local_all_covers_the_lattice(self):
        report = run_experiment(tiny_spec(local="all", trials=1))
        locals_ = [m for m in report.methods if m.startswith("local")]
        assert locals_ == ["local(0,0)", "local(0,1)",
                           "local(1,0)", "local(1,1)"]

    def test_without_centralized(self):
        report = run_experiment(tiny_spec(centralized=False, local="none",
                                          trials=1))
        assert report.methods == ["proposed"]

    def test_single_trial_has_zero_std(self):
        report = run_experiment(tiny_spec(trials=1))
        agg = report.aggregate()
        assert agg["proposed"]["ari"]["std"] == 0.0

    def test_impossible_lattice_aborts_every_trial(self):
        # 4 rows cannot fill 5 row blocks; each trial fails in isolation
        spec = tiny_spec(clusters=2, per_cluster=2, c=5, d=1, trials=2,
                         m_hat=None)
        report = run_experiment(spec)
        assert report.completed_trials() == 0
        assert [a["trial"] for a in report.aborted] == [0, 1]
        assert all("error" in a and a["seed"] for a in report.aborted)
        assert report.values["proposed"]["ari"] == []

    def test_every_trial_aborted_aggregates_to_nan_without_warning(self):
        # k above the 30 rows fails the analyst once the shares are in
        report = run_experiment(tiny_spec(k=31, trials=2))
        assert report.completed_trials() == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = report.aggregate()
        for method in report.methods:
            for metric in METRICS:
                assert np.isnan(agg[method][metric]["mean"])

    def test_every_trial_aborted_reports_no_spread(self, tmp_path):
        report = run_experiment(tiny_spec(k=31, trials=2, out_dir=str(tmp_path),
                                          formats=("markdown-table",)))
        agg = report.aggregate()
        for method in report.methods:
            for metric in METRICS:
                assert np.isnan(agg[method][metric]["std"])
        (path,) = emit_report(report)
        with open(path) as fh:
            assert "(0.000)" not in fh.read()

    def test_every_trial_aborted_writes_strict_json(self, tmp_path):
        report = run_experiment(tiny_spec(k=31, trials=2, out_dir=str(tmp_path),
                                          formats=("json",)))
        (path,) = emit_report(report)
        with open(path) as fh:
            text = fh.read()

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        raw = json.loads(text, parse_constant=refuse)
        assert raw["aggregate"]["proposed"]["ari"] == {"mean": None,
                                                      "std": None}
        assert TrialReport(**{f.name: raw[f.name]
                              for f in dataclasses.fields(TrialReport)}) == report

    def test_failed_fits_abort_their_trials_at_once(self):
        # iris has 4 features, so d = 3 leaves a one-feature column block
        # whose institutions cannot fit; no trial may wait out its timeout
        root = pathlib.Path(__file__).parent.parent
        spec = dataclasses.replace(
            load_config(str(root / "configs" / "iris_kmeans.cfg")),
            csv_path=str(root / "data" / "iris.csv"), d=3, trials=2,
            local="none")
        start = time.monotonic()
        report = run_experiment(spec)
        assert time.monotonic() - start < 5.0
        assert [a["trial"] for a in report.aborted] == [0, 1]
        assert all("at least 2 features" in a["error"] for a in report.aborted)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report():
    return run_experiment(tiny_spec())


def sent_to(report, out_dir, *formats):
    """`report` with its spec sending it to `out_dir` in `formats`."""
    spec = {**report.spec, "out_dir": str(out_dir), "formats": list(formats)}
    return dataclasses.replace(report, spec=spec)


class TestEmitReport:
    def test_json_round_trip(self, report, tmp_path):
        report = sent_to(report, tmp_path, "json")
        (path,) = emit_report(report)
        with open(path) as fh:
            raw = json.load(fh)
        clone = TrialReport(**{f.name: raw[f.name]
                               for f in dataclasses.fields(TrialReport)})
        assert clone == report

    def test_trials_csv_reproduces_the_aggregate(self, report, tmp_path):
        paths = emit_report(sent_to(report, tmp_path, "csv"))
        trials_path = [p for p in paths if p.endswith("_trials.csv")][0]
        values = {}
        with open(trials_path) as fh:
            for row in csv.DictReader(fh):
                values.setdefault(row["method"], {}).setdefault(
                    row["metric"], []).append(float(row["value"]))
        agg = report.aggregate()
        for method, metrics in values.items():
            for metric, vals in metrics.items():
                arr = np.asarray(vals)
                # repr() serialization keeps every bit of each float
                assert float(arr.mean()) == agg[method][metric]["mean"]
                assert float(arr.std(ddof=1)) == agg[method][metric]["std"]

    def test_aggregate_csv_layout(self, report, tmp_path):
        paths = emit_report(sent_to(report, tmp_path, "csv"))
        agg_path = [p for p in paths if p.endswith("_aggregate.csv")][0]
        with open(agg_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "metric", "mean", "std", "trials"]
        assert len(rows) == 1 + len(report.methods) * len(METRICS)
        assert all(row[4] == "3" for row in rows[1:])

    def test_markdown_table(self, report, tmp_path):
        (path,) = emit_report(sent_to(report, tmp_path, "markdown-table"))
        with open(path) as fh:
            lines = fh.read().splitlines()
        table = [ln for ln in lines if ln.startswith("|")]
        assert len(table) == 2 + len(report.methods)
        assert "| proposed |" in table[2].replace("  ", " ")

    def test_md_alias(self, report, tmp_path):
        (path,) = emit_report(sent_to(report, tmp_path, "md"))
        assert path.endswith("tiny.md")

    def test_all_formats_at_once(self, report, tmp_path):
        paths = emit_report(sent_to(report, tmp_path, "csv", "json",
                                    "markdown-table"))
        assert len(paths) == 4
        import os
        assert all(os.path.exists(p) for p in paths)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_single_config(self, tmp_path, capsys):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(TINY_CFG + f"out_dir = {tmp_path / 'reports'}\n")
        assert cli.main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "[smoke]" in out
        assert "proposed" in out and "centralized" in out
        assert (tmp_path / "reports" / "smoke.json").exists()

    def test_run_directory_of_configs(self, tmp_path, capsys):
        for stem in ("alpha", "beta"):
            text = TINY_CFG.replace("name = smoke", f"name = {stem}")
            (tmp_path / f"{stem}.cfg").write_text(
                text + f"out_dir = {tmp_path / 'reports'}\ntrials = 1\n")
        assert cli.main(["run", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[alpha]" in out and "[beta]" in out

    def test_run_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(TINY_CFG)
        out_dir = tmp_path / "elsewhere"
        assert cli.main(["run", str(cfg), "--trials", "1", "--seed", "9",
                         "--out", str(out_dir), "--format", "md"]) == 0
        assert (out_dir / "smoke.md").exists()
        report = capsys.readouterr().out
        assert "trials=1" in report

    def test_aborted_trials_exit_1_with_one_line_each(self, tmp_path, capsys):
        # k above the 24 rows aborts both trials at the analyst
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(TINY_CFG + f"k = 31\nout_dir = {tmp_path / 'reports'}\n")
        assert cli.main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            "  aborted trial 0", "  aborted trial 1"]

    def test_directory_without_configs_exits_2(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no config here\n")
        assert cli.main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no .cfg files" in err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("dataset = blobs\nwidgets = 5\n")
        assert cli.main(["run", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"\xff\xfe"],
                             ids=["missing", "not-text"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "unread.cfg"
        if content is not None:
            cfg.write_bytes(content)
        assert cli.main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unread.cfg" in err

    @pytest.mark.parametrize("lines, csv_text", [
        ("dataset = csv\ncsv_path = {dir}/absent.csv\nlabel_column = label\n",
         None),
        ("dataset = csv\ncsv_path = {dir}/holed.csv\nlabel_column = label\n",
         "a,b,c,label\n1,2,3,x\n4,nan,6,y\n"),
        ("col_blocks = 0,1|2|3,4,5\n", None),
        ("cluster_map = 0:0 1:1\n", None),
        ("assignment = by-cluster-map\n", None),
        ("clusters = 12\n", None),
    ], ids=["missing-csv", "nan-cell", "col-blocks-count", "unread-cluster-map",
            "cluster-map-missing", "blobs-clusters-12"])
    def test_bad_inputs_exit_2_before_any_trial(self, tmp_path, capsys,
                                                monkeypatch, lines, csv_text):
        if csv_text is not None:
            (tmp_path / "holed.csv").write_text(csv_text)
        sessions = []
        monkeypatch.setattr(experiment, "run_in_process_session",
                            lambda *a: sessions.append(a))
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(TINY_CFG + lines.format(dir=tmp_path)
                       + f"out_dir = {tmp_path / 'reports'}\n")
        assert cli.main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert sessions == [] and not (tmp_path / "reports").exists()

    def test_roles_use_the_runner_trial_seed(self):
        spec = tiny_spec(trials=1)
        cfg = cli._session_pieces(spec, None)[3]
        assert cfg.master_seed == run_experiment(spec).trial_seeds[0]

    def test_unknown_dataset_fetch_exits_2(self, tmp_path, capsys):
        assert cli.main(["datasets", "fetch", "nosuch",
                         "--dest", str(tmp_path)]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_party_without_a_column_index_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(TINY_CFG)
        assert cli.main(["user", str(cfg), "--connect", "127.0.0.1:9",
                         "--party", "0", "--timeout", "1"]) == 2
        assert "--party expects i,j" in capsys.readouterr().err

    @pytest.mark.parametrize("party", ["2,0", "0,2", "-1,0"])
    def test_user_outside_the_lattice_exits_2(self, tmp_path, capsys, party):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(TINY_CFG)
        assert cli.main(["user", str(cfg), "--connect", "127.0.0.1:9",
                         f"--party={party}", "--timeout", "1"]) == 2
        assert "outside the 2x2 lattice" in capsys.readouterr().err

    def test_unreachable_analyst_exits_3(self, tmp_path, capsys):
        # a port that was free a moment ago: nothing listens there
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(TINY_CFG)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert cli.main(["user", str(cfg), "--connect", f"127.0.0.1:{port}",
                         "--party", "0,0", "--timeout", "2"]) == cli.EXIT_SESSION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cannot reach analyst" in err

    def test_tcp_roles_agree_with_in_process(self, tmp_path, capsys):
        # analyst in a thread, users in the foreground, all through main()
        cfg = tmp_path / "wire.cfg"
        cfg.write_text("dataset = blobs\nclusters = 2\nper_cluster = 10\n"
                       "c = 1\nd = 2\nm_hat = 2\ntrials = 1\n")
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        out_dir = tmp_path / "labels"

        codes = {}

        def role(tag, argv):
            codes[tag] = cli.main(argv)

        threads = [threading.Thread(target=role, args=("analyst", [
            "analyst", str(cfg), "--listen", f"127.0.0.1:{port}",
            "--timeout", "20", "--out", str(out_dir)]))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            threads[0].start()
            for _ in range(50):                    # wait for the listener
                try:
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=0.2).close()
                    break
                except OSError:
                    time.sleep(0.1)
            for party in ("0,0", "0,1"):
                threads.append(threading.Thread(target=role, args=(party, [
                    "user", str(cfg), "--connect", f"127.0.0.1:{port}",
                    "--party", party, "--timeout", "20",
                    "--out", str(out_dir)])))
                threads[-1].start()
            for t in threads:
                t.join(timeout=30)
            gc.collect()
        assert codes == {"analyst": 0, "0,0": 0, "0,1": 0}
        # every role closes its sockets
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        a = np.loadtxt(out_dir / "labels_0_0.csv", skiprows=1, dtype=int)
        b = np.loadtxt(out_dir / "labels_0_1.csv", skiprows=1, dtype=int)
        c = np.loadtxt(out_dir / "analyst_labels.csv", skiprows=1, dtype=int)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
        assert ari(a, b) == 1.0
