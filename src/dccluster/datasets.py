"""Open-dataset registry: download, convert to one CSV shape, verify.

Every dataset lands as a single CSV with a header row, feature columns
first, and the label column last.  Checksums of the converted CSVs live in
data/checksums.json next to the files; a fetch fails loudly when a recorded
checksum stops matching, and records first-seen checksums for datasets that
could not be pinned at packaging time (the build host had no route to the
upstream repositories, so only the bundled iris copy ships pre-pinned).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import zipfile

from .errors import IngestionError

_UCI = "https://archive.ics.uci.edu/ml/machine-learning-databases"

REGISTRY = {
    "iris": {
        "urls": [f"{_UCI}/iris/iris.data"],
        "format": "plain-csv",
        "label_column": "species",
        "columns": ["sepal_length", "sepal_width", "petal_length",
                    "petal_width", "species"],
        "shape": (150, 4), "clusters": 3,
    },
    "rice": {
        "urls": ["https://archive.ics.uci.edu/static/public/545/"
                 "rice+cammeo+and+osmancik.zip"],
        "format": "arff-zip",
        "member": "Rice_Cammeo_Osmancik.arff",
        "label_column": "class",
        "shape": (3810, 7), "clusters": 2,
    },
    "pendigits": {
        "urls": [f"{_UCI}/pendigits/pendigits.tra",
                 f"{_UCI}/pendigits/pendigits.tes"],
        "format": "headerless-csv",
        "label_column": "digit",
        "shape": (10992, 16), "clusters": 10,
    },
    "heart-statlog": {
        "urls": [f"{_UCI}/statlog/heart/heart.dat"],
        "format": "space-separated",
        "label_column": "presence",
        "shape": (270, 13), "clusters": 2,
    },
    "bank": {
        "urls": [f"{_UCI}/00267/data_banknote_authentication.txt"],
        "format": "headerless-csv",
        "label_column": "authentic",
        "shape": (1372, 4), "clusters": 2,
    },
    "phoneme": {
        "urls": ["https://sci2s.ugr.es/keel/dataset/data/classification/"
                 "phoneme.zip"],
        "format": "keel-zip",
        "member": "phoneme.dat",
        "label_column": "class",
        "shape": (5404, 5), "clusters": 2,
    },
}

DEFAULT_DATA_DIR = "data"


def _download(url: str, timeout: float = 60.0) -> bytes:
    import urllib.request  # loads http, ssl and email: only a fetch needs them
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.read()
    except Exception as exc:
        raise IngestionError(
            f"could not download {url}: {exc}. If this host is offline, fetch "
            f"on a connected machine and drop the converted CSV into the data "
            f"directory.") from exc


def _rows(blobs, ds) -> list:
    """The fields of every data line of a registry entry's downloads, or of
    its archive member when it names one.  Blank lines and ARFF or KEEL
    metadata (lines starting with `%` or `@`) carry no record."""
    if "member" in ds:
        with zipfile.ZipFile(io.BytesIO(blobs[0])) as zf:
            blobs = [zf.read(ds["member"])]
    sep = None if ds["format"] == "space-separated" else ","
    lines = (line.strip() for blob in blobs
             for line in blob.decode("utf-8", errors="replace").splitlines())
    return [[v.strip() for v in line.split(sep)] for line in lines
            if line and not line.startswith(("%", "@"))]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _checksum_path(data_dir: str) -> str:
    return os.path.join(data_dir, "checksums.json")


def _load_checksums(data_dir: str) -> dict:
    path = _checksum_path(data_dir)
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {}


def _store_checksums(data_dir: str, sums: dict):
    with open(_checksum_path(data_dir), "w") as fh:
        json.dump(sums, fh, indent=2, sort_keys=True)
        fh.write("\n")


def csv_path_for(name: str, data_dir: str = DEFAULT_DATA_DIR) -> str:
    return os.path.join(data_dir, f"{name}.csv")


def fetch(name: str, data_dir: str = DEFAULT_DATA_DIR, force: bool = False):
    """Download one dataset, convert, checksum; returns the CSV path.

    An existing file is kept (and verified) unless force is set.
    """
    if name not in REGISTRY:
        raise IngestionError(f"unknown dataset {name!r}; "
                             f"choices: {', '.join(sorted(REGISTRY))}")
    ds = REGISTRY[name]
    os.makedirs(data_dir, exist_ok=True)
    path = csv_path_for(name, data_dir)

    if not os.path.exists(path) or force:
        blobs = [_download(url) for url in ds["urls"]]
        rows = _rows(blobs, ds)
        n, m = ds["shape"]
        rows = [r for r in rows if len(r) == m + 1]
        if len(rows) != n:
            raise IngestionError(
                f"{name}: expected {n} rows of {m + 1} fields, got {len(rows)}")
        header = ds.get("columns") or (
            [f"x{i}" for i in range(m)] + [ds["label_column"]])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    digest = _sha256(path)
    sums = _load_checksums(data_dir)
    known = sums.get(name)
    if known is None:
        sums[name] = digest
        _store_checksums(data_dir, sums)
    elif known != digest:
        raise IngestionError(
            f"{name}: checksum mismatch ({digest} != recorded {known}); "
            f"delete {path} and refetch, or update checksums.json if the "
            f"upstream file legitimately changed")
    return path


def fetch_all(data_dir: str = DEFAULT_DATA_DIR, force: bool = False) -> dict:
    out = {}
    for name in sorted(REGISTRY):
        out[name] = fetch(name, data_dir=data_dir, force=force)
    return out
