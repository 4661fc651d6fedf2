import codecs
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from test_acceptance import STRETCH, stretch_spec

from dccluster import datasets
from dccluster.data import (LabeledDataset, LatticePartition, make_blobs,
                            make_circles, partition_lattice, load_csv,
                            feature_bounds, generate_anchor, MINOR_FEATURES,
                            MINOR_VAR, MINOR_COV)
from dccluster.errors import (ContractViolationError, ConfigurationError,
                              IngestionError)


def blobs_ds(seed=0):
    return make_blobs(3, 500, rng_seed=seed)


class TestGenerators:
    def test_blobs_shape(self):
        ds = blobs_ds()
        assert ds.features.shape == (1500, 2 + MINOR_FEATURES)
        assert sorted(set(ds.labels.tolist())) == [0, 1, 2]
        assert np.bincount(ds.labels).tolist() == [500, 500, 500]

    def test_blobs_minor_covariance(self):
        # noise features follow the pinned covariance: diag 0.1, off-diag 0.01
        minors = blobs_ds(7).features[:, 2:]
        cov = np.cov(minors, rowvar=False)
        target = np.full((4, 4), MINOR_COV) + (MINOR_VAR - MINOR_COV) * np.eye(4)
        assert np.abs(cov - target).max() < 0.02

    def test_blobs_major_separation(self):
        ds = blobs_ds(3)
        centers = np.array([ds.features[ds.labels == c, :2].mean(axis=0)
                            for c in range(3)])
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(centers[a] - centers[b]) > 6.0

    def test_blobs_unit_cluster_variance(self):
        ds = blobs_ds(11)
        for c in range(3):
            stds = ds.features[ds.labels == c, :2].std(axis=0)
            assert np.abs(stds - 1.0).max() < 0.15

    def test_circles_shape_and_radii(self):
        ds = make_circles(3, 500, rng_seed=1)
        assert ds.features.shape == (1500, 6)
        radii = np.linalg.norm(ds.features[:, :2], axis=1)
        for ring in range(3):
            mean_r = radii[ds.labels == ring].mean()
            assert abs(mean_r - 6.0 * 0.6 ** ring) < 0.1

    def test_circles_ring_ratio(self):
        ds = make_circles(2, 300, rng_seed=2)
        radii = np.linalg.norm(ds.features[:, :2], axis=1)
        ratio = radii[ds.labels == 1].mean() / radii[ds.labels == 0].mean()
        assert abs(ratio - 0.6) < 0.02

    def test_generators_seeded(self):
        a, b = blobs_ds(5), blobs_ds(5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = blobs_ds(6)
        assert not np.array_equal(a.features, c.features)


class TestLabeledDataset:
    def test_validates_lengths(self):
        with pytest.raises(ContractViolationError):
            LabeledDataset(np.zeros((4, 2)), np.zeros(3, dtype=int))

    def test_cluster_count(self):
        ds = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 1, 2]))
        assert ds.n_clusters == 3


class TestPartition:
    def test_equal_as_possible(self):
        ds = LabeledDataset(np.arange(14.0).reshape(7, 2), np.zeros(7, int))
        part = partition_lattice(ds, 3, 2, "contiguous")
        sizes = [len(s) for s in part.row_index_sets]
        assert sorted(sizes) == [2, 2, 3] and max(sizes) - min(sizes) <= 1

    def test_iris_row_sizes(self):
        ds = load_csv("data/iris.csv", label_column="species")
        part = partition_lattice(ds, 10, 2, "iid-random", rng_seed=4)
        assert all(len(s) == 15 for s in part.row_index_sets)

    def test_rows_and_columns_are_partitions(self):
        ds = blobs_ds(9)
        part = partition_lattice(ds, 2, 2, "iid-random", rng_seed=3)
        rows = np.concatenate(part.row_index_sets)
        cols = np.concatenate(part.col_index_sets)
        assert sorted(rows.tolist()) == list(range(1500))
        assert sorted(cols.tolist()) == list(range(6))

    def test_contiguous_keeps_order(self):
        ds = LabeledDataset(np.arange(12.0).reshape(6, 2), np.zeros(6, int))
        part = partition_lattice(ds, 2, 1, "contiguous")
        assert part.row_index_sets[0].tolist() == [0, 1, 2]
        assert part.col_index_sets[0].tolist() == [0, 1]

    def test_iid_random_is_seeded(self):
        ds = blobs_ds(1)
        a = partition_lattice(ds, 2, 2, "iid-random", rng_seed=8)
        b = partition_lattice(ds, 2, 2, "iid-random", rng_seed=8)
        c = partition_lattice(ds, 2, 2, "iid-random", rng_seed=9)
        assert np.array_equal(a.row_index_sets[0], b.row_index_sets[0])
        assert not np.array_equal(a.row_index_sets[0], c.row_index_sets[0])

    def test_cluster_map_places_clusters(self):
        ds = blobs_ds(2)
        part = partition_lattice(ds, 2, 2, "by-cluster-map", rng_seed=0,
                                 cluster_map={0: [0], 1: [0, 1], 2: [1]})
        top = set(ds.labels[part.row_index_sets[0]].tolist())
        bottom = set(ds.labels[part.row_index_sets[1]].tolist())
        assert top == {0, 1} and bottom == {1, 2}

    def test_cluster_map_missing_cluster(self):
        ds = blobs_ds(2)
        with pytest.raises(ConfigurationError):
            partition_lattice(ds, 2, 2, "by-cluster-map",
                              cluster_map={0: [0], 1: [1]})

    def test_block_extraction(self):
        # a contiguous lattice, then shuffled, unsorted and empty row sets
        # with unsorted columns, from a C- and a Fortran-ordered matrix
        ds = blobs_ds(4)
        rows = np.random.default_rng(3).permutation(ds.features.shape[0])
        shuffled = LatticePartition(
            row_index_sets=[rows[:700], rows[700:], np.array([], dtype=np.int64)],
            col_index_sets=[np.array([4, 0, 2]), np.array([5, 1, 3])])
        for x in (ds.features, np.asfortranarray(ds.features)):
            for part in (partition_lattice(ds, 2, 2, "contiguous"), shuffled):
                for i, j in np.ndindex(part.c, part.d):
                    block = part.block(x, i, j)
                    manual = x[np.ix_(part.row_index_sets[i],
                                      part.col_index_sets[j])]
                    assert block.shape == manual.shape
                    assert np.array_equal(block, manual)
                    assert block.flags.c_contiguous

    def test_col_override(self):
        ds = blobs_ds(4)
        part = partition_lattice(ds, 2, 2, "iid-random",
                                 col_index_sets=[[0, 2, 3], [1, 4, 5]])
        assert part.col_index_sets[0].tolist() == [0, 2, 3]

    def test_col_override_must_cover(self):
        ds = blobs_ds(4)
        with pytest.raises(ConfigurationError):
            partition_lattice(ds, 2, 2, "iid-random",
                              col_index_sets=[[0, 2], [1, 4, 5]])

    def test_too_many_blocks(self):
        ds = LabeledDataset(np.zeros((3, 2)), np.zeros(3, int))
        with pytest.raises(ContractViolationError):
            partition_lattice(ds, 4, 1, "contiguous")
        with pytest.raises(ContractViolationError):
            partition_lattice(ds, 1, 3, "contiguous")

    def test_row_order_concatenates_blocks(self):
        ds = blobs_ds(5)
        part = partition_lattice(ds, 3, 1, "iid-random", rng_seed=12)
        order = part.row_order()
        assert np.array_equal(order, np.concatenate(part.row_index_sets))


class TestCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("a,b,label\n1.5,2.0,yes\n0.5,1.0,no\n2.5,3.0,yes\n")
        ds = load_csv(p, label_column="label")
        assert ds.features.shape == (3, 2)
        # labels encoded in order of first appearance
        assert ds.labels.tolist() == [0, 1, 0]

    def test_label_column_anywhere(self, tmp_path):
        p = tmp_path / "mid.csv"
        p.write_text("a,label,b\n1,x,2\n3,y,4\n")
        ds = load_csv(p, label_column="label")
        # the middle label column is dropped, the others keep their order
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_byte_order_mark_before_the_label_column(self, tmp_path):
        p = tmp_path / "excel.csv"
        p.write_bytes(codecs.BOM_UTF8 + b"species,a,b\nx,1,2\ny,3,4\n")
        ds = load_csv(p, label_column="species")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigurationError, match="label"):
            load_csv(p, label_column="species")

    def test_bad_value_reports_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,label\n1,2,x\n1,oops,y\n")
        with pytest.raises(IngestionError) as err:
            load_csv(p, label_column="label")
        assert "row 3" in str(err.value) and "b" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_row_and_column(self, tmp_path, cell):
        p = tmp_path / "holed.csv"
        p.write_text(f"a,b,label\n1,2,x\n3,{cell},y\n")
        with pytest.raises(IngestionError, match="finite number") as err:
            load_csv(p, label_column="label")
        assert (err.value.row, err.value.column) == (3, "b")

    @pytest.mark.parametrize("content", [None, b"a,label\n\xff,x\n"],
                             ids=["missing", "not-text"])
    def test_unreadable_file_names_its_path(self, tmp_path, content):
        p = tmp_path / "unread.csv"
        if content is not None:
            p.write_bytes(content)
        with pytest.raises(IngestionError, match="cannot read .*unread.csv"):
            load_csv(p, label_column="label")

    @pytest.mark.parametrize("text, message", [("", "is empty"),
                                               ("a,b,label\n", "no data rows")],
                             ids=["empty", "header-only"])
    def test_file_without_rows_is_refused(self, tmp_path, text, message):
        p = tmp_path / "rowless.csv"
        p.write_text(text)
        with pytest.raises(IngestionError, match=message):
            load_csv(p, label_column="label")

    def test_short_row_reports_its_row(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("a,b,label\n1,2,x\n3,y\n")
        with pytest.raises(IngestionError, match="expected 3 cells, got 2") as err:
            load_csv(p, label_column="label")
        assert err.value.row == 3

    def test_blank_line_is_skipped(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("a,b,label\n1,2,x\n\n3,4,y\n")
        ds = load_csv(p, label_column="label")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_iris_bundle(self):
        ds = load_csv("data/iris.csv", label_column="species")
        assert ds.features.shape == (150, 4)
        assert ds.n_clusters == 3
        assert np.bincount(ds.labels).tolist() == [50, 50, 50]


def fake_downloads(name):
    """A synthetic download of registry dataset `name` for each of its urls,
    in its registry format, and the features its rows hold."""
    ds = datasets.REGISTRY[name]
    (n, m), urls = ds["shape"], ds["urls"]
    features = np.random.default_rng(0).integers(0, 400, size=(n, m)) / 4
    sep = " " if ds["format"] == "space-separated" else ","
    rows = [sep.join([*map(repr, row), f"c{i % ds['clusters']}"])
            for i, row in enumerate(features.tolist())]
    if ds["format"] in ("arff-zip", "keel-zip"):
        head = "".join(f"@attribute x{i} real\n" for i in range(m))
        text = f"% synthetic\n@relation {name}\n{head}@data\n"
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr(ds["member"], text + "\n".join(rows) + "\n")
        return {urls[0]: buf.getvalue()}, features
    parts = np.array_split(np.arange(n), len(urls))
    return ({url: "".join(rows[i] + "\n" for i in part).encode()
             for url, part in zip(urls, parts)}, features)


class TestFetch:
    @pytest.mark.parametrize("name", sorted(datasets.REGISTRY))
    def test_every_format_converts_to_a_loadable_csv(self, name, tmp_path,
                                                     monkeypatch):
        payloads, features = fake_downloads(name)
        monkeypatch.setattr(datasets, "_download", payloads.__getitem__)
        ds = datasets.REGISTRY[name]
        path = datasets.fetch(name, data_dir=str(tmp_path))
        loaded = load_csv(path, ds["label_column"])
        assert loaded.features.shape == ds["shape"]
        assert np.array_equal(loaded.features, features)
        assert loaded.n_clusters == ds["clusters"]
        if name in dict(STRETCH):
            spec = stretch_spec(name, str(tmp_path))
            stretch = load_csv(spec.csv_path, spec.label_column)
            assert np.array_equal(stretch.features, features)

        with open(tmp_path / "checksums.json") as fh:
            recorded = json.load(fh)[name]
        with open(path, "rb") as fh:
            assert recorded == hashlib.sha256(fh.read()).hexdigest()
        assert datasets.fetch(name, data_dir=str(tmp_path)) == path
        with open(path, "a") as fh:
            fh.write(",".join(["0"] * ds["shape"][1] + ["c0"]) + "\n")
        with pytest.raises(IngestionError, match="checksum mismatch"):
            datasets.fetch(name, data_dir=str(tmp_path))

    def test_the_data_directory_is_set_by_dest_alone(self, tmp_path):
        # the environment is never read, DCC_DATA_DIR included, so a fresh
        # interpreter's default and `datasets fetch`'s are both "data"
        child = ("from dccluster import cli, datasets\n"
                 "args = cli.build_parser().parse_args(['datasets', 'fetch', "
                 "'iris'])\n"
                 "print(datasets.DEFAULT_DATA_DIR, args.dest)\n")
        src = str(pathlib.Path(datasets.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "DCC_DATA_DIR": str(tmp_path)}
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "data data\n"


class TestAnchor:
    def test_bounds_match_observed(self):
        x = blobs_ds(6).features
        bounds = feature_bounds(x)
        anchor = generate_anchor(bounds, 150, rng_seed=1)
        assert anchor.features.shape == (150, x.shape[1])
        assert np.all(anchor.features >= x.min(axis=0) - 1e-12)
        assert np.all(anchor.features <= x.max(axis=0) + 1e-12)

    # 12 000 rows of 6 features take three blocks, the last one short
    @pytest.mark.parametrize("x", [
        make_blobs(3, 4000, rng_seed=2).features,
        np.asfortranarray(make_blobs(3, 4000, rng_seed=3).features),
        np.array([[1.5, -2.0, 0.0]]),
        np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, -1.0], [-0.0, 3.0]]),
        np.array([[-0.0, 1.0], [0.0, 2.0]]),
        np.vstack([np.zeros((1, 6)), make_blobs(3, 4000, rng_seed=4).features,
                   [[50.0, -50.0, 50.0, -50.0, 50.0, -50.0]]]),
    ], ids=["c-order", "f-order", "one-row", "signed-zero", "zero-first",
            "extremes-last"])
    def test_bounds_are_the_row_extremes(self, x):
        mins, maxs = feature_bounds(x)
        assert np.array_equal(mins, x.min(axis=0))
        assert np.array_equal(maxs, x.max(axis=0))

    def test_uniform_spread(self):
        x = np.array([[0.0, 10.0], [1.0, 20.0]])
        anchor = generate_anchor(feature_bounds(x), 4000, rng_seed=3)
        assert abs(anchor.features[:, 0].mean() - 0.5) < 0.02
        assert abs(anchor.features[:, 1].mean() - 15.0) < 0.2

    def test_seeded(self):
        bounds = feature_bounds(blobs_ds(0).features)
        a = generate_anchor(bounds, 50, rng_seed=2)
        b = generate_anchor(bounds, 50, rng_seed=2)
        assert np.array_equal(a.features, b.features)
