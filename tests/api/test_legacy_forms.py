"""Legacy stored forms: refused by every opener, read only by ``m3 convert``.

Three fixtures pin bytes that older builds wrote and nothing writes any more:

* ``v1_shards/static`` — a labelled 20 x 3 dataset in three v1 ``.m3``
  shards (7, 7, 6 rows), labels trailing each shard's rows;
* ``v1_shards/appended`` — a labelled 6 x 3 v1 dataset in 4-row shards,
  grown by two appends of 3 rows (generations 0-2): its appended shards keep
  their labels in ``.labels`` sidecars, and its last shard is an unsealed
  tail;
* ``column_layout_shards`` — a labelled 40 x 5 zlib v2 dataset whose blocks
  are column-major (16-row blocks, 24-row shards), written while writers
  still took ``layout="column"``.

Every opener refuses each of them with :class:`LegacyFormatError` naming
``m3 convert`` and changes no byte; ``convert_dataset`` turns each into an
ordinary dataset that reads back exactly, appends and scrubs clean.  So it
goes for a single v1 ``.m3`` file (the first ``v1_shards/static`` shard),
the form ``mmap://`` and bare file paths opened before ``mmap://`` became a
one-shard v2 dataset.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api.convert import convert_dataset
from repro.api.sharded import (
    LegacyFormatError,
    ShardAppender,
    open_sharded_matrix,
    verify_dataset,
)
from repro.cli import main

FIXTURES = Path(__file__).parents[1] / "data" / "fixtures"
#: form -> (fixture directory, rows, labels)
FORMS = {
    "v1-static": (
        FIXTURES / "v1_shards" / "static",
        (np.arange(20 * 3, dtype=np.float64).reshape(20, 3) % 11) / 4.0,
        (np.arange(20) % 3).astype(np.int64),
    ),
    "v1-appended": (
        FIXTURES / "v1_shards" / "appended",
        (np.arange(12 * 3, dtype=np.float64).reshape(12, 3) % 5) / 2.0 + 1.0,
        (np.arange(12) % 2).astype(np.int64),
    ),
    "column": (
        FIXTURES / "column_layout_shards",
        (np.arange(40 * 5, dtype=np.float64).reshape(40, 5) % 7) / 4.0,
        (np.arange(40) % 3).astype(np.int64),
    ),
}


@pytest.fixture(params=sorted(FORMS))
def legacy(request, tmp_path):
    """A scratch copy of one legacy fixture, with its rows and labels."""
    fixture, X, y = FORMS[request.param]
    directory = Path(shutil.copytree(fixture, tmp_path / request.param))
    return directory, X, y


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _open(directory, X, y):
    open_sharded_matrix(directory).close()


def _open_generation_0(directory, X, y):
    open_sharded_matrix(directory, generation=0).close()


def _session_open(directory, X, y):
    with Session() as session:
        session.open(f"shard://{directory}")


def _appender(directory, X, y):
    ShardAppender(directory)


def _dataset_append(directory, X, y):
    # A handle opened while the directory still held a current dataset; the
    # directory is then replaced by the legacy one, and the append that
    # follows reads the manifest afresh.
    saved = directory.with_name(directory.name + "-legacy")
    directory.rename(saved)
    convert_dataset(saved, directory, codec=None)
    with Session() as session:
        dataset = session.open(f"shard://{directory}")
        shutil.rmtree(directory)
        saved.rename(directory)
        try:
            dataset.append(X[:3], y[:3])
        finally:
            dataset.close()


def _verify(directory, X, y):
    verify_dataset(directory)


def _m3_info(directory, X, y):
    main(["info", str(directory), "--verify"])


OPENERS = {
    "open_sharded_matrix": _open,
    "open_sharded_matrix-generation": _open_generation_0,
    "Session.open": _session_open,
    "ShardAppender": _appender,
    "Dataset.append": _dataset_append,
    "verify_dataset": _verify,
    "m3-info": _m3_info,
}


def test_fixtures_hold_the_legacy_forms():
    for name, (fixture, _X, _y) in FORMS.items():
        payload = json.loads((fixture / "manifest.json").read_text())
        if name == "column":
            assert (payload["version"], payload["layout"]) == (2, "column")
        else:
            assert payload["version"] == 1 and "layout" not in payload
            assert all(s["filename"].endswith(".m3") for s in payload["shards"])
    appended = json.loads((FORMS["v1-appended"][0] / "manifest.json").read_text())
    assert appended["generation"] == 2
    assert appended["shards"][-1]["label_sidecar"] and not appended["shards"][-1]["sealed"]


@pytest.mark.parametrize("opener", sorted(OPENERS))
def test_every_opener_refuses_and_changes_no_byte(legacy, opener):
    directory, X, y = legacy
    before = _files(directory)
    with pytest.raises(LegacyFormatError, match=r"m3 convert SRC DST --codec raw\|zlib") as err:
        OPENERS[opener](directory, X, y)
    assert str(directory) in str(err.value)
    assert _files(directory) == before


@pytest.mark.parametrize("codec", [None, "zlib"], ids=["raw", "zlib"])
def test_converts_exactly_and_the_copy_appends(legacy, tmp_path, codec):
    directory, X, y = legacy
    before = _files(directory)
    manifest = convert_dataset(directory, tmp_path / "out", codec=codec)
    assert _files(directory) == before
    assert (manifest.codec, manifest.rows, manifest.has_labels) == (codec or "none", len(X), True)
    with open_sharded_matrix(tmp_path / "out") as matrix:
        assert matrix.mapped == (codec is None)
        np.testing.assert_array_equal(matrix[:], X)
        np.testing.assert_array_equal(matrix.lazy_labels[:], y)
    ShardAppender(tmp_path / "out").append(X[:7], y[:7])
    with open_sharded_matrix(tmp_path / "out") as matrix:
        np.testing.assert_array_equal(matrix[:], np.vstack([X, X[:7]]))
        np.testing.assert_array_equal(matrix.lazy_labels[:], np.concatenate([y, y[:7]]))
    assert verify_dataset(tmp_path / "out") == []


def test_truncated_v1_shard_fails_the_convert_naming_it(tmp_path):
    # Cutting a static shard's trailing labels leaves every data byte in
    # place, but the shard no longer reads; the convert must say which.
    directory = Path(shutil.copytree(FORMS["v1-static"][0], tmp_path / "static"))
    path = directory / "shard-00002.m3"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated") as err:
        convert_dataset(directory, tmp_path / "out")
    assert str(path) in str(err.value)


#: A single v1 ``.m3`` file: the first shard of ``v1_shards/static``, a
#: labelled 7 x 3 matrix — what ``mmap://`` and every bare file path opened
#: before the one stored form.
V1_FILE = FIXTURES / "v1_shards" / "static" / "shard-00000.m3"


@pytest.fixture()
def v1_file(tmp_path):
    return Path(shutil.copy(V1_FILE, tmp_path / "old.m3"))


def _session_call(method, spec):
    with Session() as session:
        getattr(session, method)(spec)


FILE_OPENERS = {
    "Session.open-path": lambda path: _session_call("open", path),
    "Session.open-mmap": lambda path: _session_call("open", f"mmap://{path}"),
    "Session.open-shard": lambda path: _session_call("open", f"shard://{path}"),
    "Session.info": lambda path: _session_call("info", str(path)),
    "ShardAppender": ShardAppender,
    "verify_dataset": verify_dataset,
    "m3-info": lambda path: main(["info", str(path)]),
    "m3-info-verify": lambda path: main(["info", str(path), "--verify"]),
    "m3-train": lambda path: main(["train", str(path), "--iterations", "1"]),
}


@pytest.mark.parametrize("opener", sorted(FILE_OPENERS))
def test_every_opener_refuses_a_v1_file_and_changes_no_byte(v1_file, opener):
    before = v1_file.read_bytes()
    with pytest.raises(LegacyFormatError, match=r"m3 convert SRC DST --codec raw\|zlib") as err:
        FILE_OPENERS[opener](v1_file)
    assert str(v1_file) in str(err.value)
    assert v1_file.read_bytes() == before


@pytest.mark.parametrize("codec", ["raw", "zlib"])
def test_m3_convert_is_the_v1_files_one_door(v1_file, tmp_path, codec, capsys):
    _fixture, X, y = FORMS["v1-static"]
    destination = tmp_path / "copy"
    assert main(["convert", str(v1_file), str(destination), "--codec", codec]) == 0
    with Session() as session:
        copy = session.open(destination)
        assert copy.matrix.backing.mapped == (codec == "raw")
        np.testing.assert_array_equal(copy[:], X[:7])
        np.testing.assert_array_equal(np.asarray(copy.labels), y[:7])
    assert main(["info", str(destination), "--verify"]) == 0
    assert "verify: OK" in capsys.readouterr().out
