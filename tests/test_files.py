"""One writer for every file: atomic replacement, verified blobs with named
errors, and a structural check that no other module writes a file."""

import ast
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from radnet import files
from radnet.data import FeatureSeries, load_dataset, save_dataset
from radnet.errors import FormatError
from radnet.graph import RoadGraph
from radnet.incidents import IncidentLabels
from radnet.nn import ParameterStore, load_checkpoint, save_checkpoint
from radnet.tensor import DiffArray
from radnet.training import write_loss_csv


def write_dataset(tmp_path) -> Path:
    data = np.random.default_rng(0).normal(size=(6, 3, 2))
    save_dataset(tmp_path / "ds", FeatureSeries(data, 0, 300, ["a", "b"]),
                 RoadGraph(3, [(0, 1)]))
    return tmp_path / "ds"


def write_checkpoint(tmp_path, value=1.0) -> Path:
    store = ParameterStore({"w": DiffArray(np.full((2, 2), value), requires_grad=True)})
    save_checkpoint(tmp_path / "model", store)
    return tmp_path / "model"


def written(kind, tmp_path):
    """The directory of a freshly written dataset or checkpoint, and its loader."""
    if kind == "dataset":
        directory = write_dataset(tmp_path)
        return directory, lambda: load_dataset(directory)
    stem = write_checkpoint(tmp_path)
    return tmp_path, lambda: load_checkpoint(stem)


class TestNamedErrors:
    @pytest.mark.parametrize("kind,name", [
        ("dataset", "meta.json"), ("dataset", "features.bin"), ("dataset", "edges.csv"),
        ("checkpoint", "model.json"), ("checkpoint", "model.bin"),
    ])
    def test_missing_file_is_named(self, tmp_path, kind, name):
        directory, load = written(kind, tmp_path)
        (directory / name).unlink()
        with pytest.raises(FormatError, match=f"no {re.escape(name)} under"):
            load()

    @pytest.mark.parametrize("text", ['{"format": 2, "names"', "[1, 2]", "", "\xff"])
    @pytest.mark.parametrize("kind,name", [("dataset", "meta.json"),
                                           ("checkpoint", "model.json")])
    def test_unparsable_manifest_is_named(self, tmp_path, kind, name, text):
        directory, load = written(kind, tmp_path)
        (directory / name).write_bytes(text.encode("latin-1"))
        with pytest.raises(FormatError, match=re.escape(str(directory / name))):
            load()

    @pytest.mark.parametrize("kind,name", [("dataset", "features.bin"),
                                           ("checkpoint", "model.bin")])
    def test_short_or_altered_blob_is_named(self, tmp_path, kind, name):
        directory, load = written(kind, tmp_path)
        blob = (directory / name).read_bytes()
        for spoiled in (blob[:-8], blob[:-1] + bytes([blob[-1] ^ 1])):
            (directory / name).write_bytes(spoiled)
            with pytest.raises(FormatError, match=re.escape(str(directory / name))):
                load()


    @pytest.mark.parametrize("field", ["names", "shapes"])
    def test_manifest_without_field_is_named(self, tmp_path, field):
        stem = write_checkpoint(tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        del manifest[field]
        stem.with_suffix(".json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"{re.escape(str(stem))}.json has no '{field}'"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("text, problem", [
        (None, "no labels.csv under"),
        ("timestep,link_id,score,threshold,label\r\n", "holds no rows"),
        ("timestep,link_id,score,label\r\n0,-1,1.5,0\r\n", "has no threshold column"),
    ], ids=["missing", "header-only", "missing-column"])
    def test_unreadable_label_file_is_named(self, tmp_path, text, problem):
        path = tmp_path / "labels.csv"
        if text is not None:
            path.write_bytes(text.encode())
        with pytest.raises(FormatError, match=problem) as info:
            IncidentLabels.from_csv(path)
        assert "labels.csv" in str(info.value) and str(tmp_path) in str(info.value)

    @pytest.mark.parametrize("rows, problem", [
        ("0,0,1.0,0.5,1\r\n", "no network row \\(link_id -1\\) at timestep 0"),
        ("0,-1,1.0,0.5,1\r\n0,0,x,0.5,1\r\n", "line 3: could not convert string to float: 'x'"),
        ("0,-1,1.0,0.5,1\r\n0,0,1.0,0.5,0\r\n0,1,1.0,0.5,0\r\n"
         "1,-1,1.0,0.5,1\r\n1,1,1.0,0.5,0\r\n", "no row for link_id 0 at timestep 1"),
    ], ids=["no-network-row", "non-numeric", "missing-link"])
    def test_bad_label_rows_are_named(self, tmp_path, rows, problem):
        path = tmp_path / "labels.csv"
        path.write_bytes(("timestep,link_id,score,threshold,label\r\n" + rows).encode())
        with pytest.raises(FormatError, match=problem) as info:
            IncidentLabels.from_csv(path)
        assert str(path) in str(info.value)


def failing_replace(monkeypatch, suffix):
    """Make os.replace fail for targets ending in `suffix`, as a full disk would."""
    real = os.replace

    def replace(src, dst):
        if str(dst).endswith(suffix):
            raise OSError("disk full")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def assert_no_temporaries(directory):
    assert not [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


class TestAtomicWrites:
    def test_failed_blob_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        stem = write_checkpoint(tmp_path, value=1.0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        failing_replace(monkeypatch, ".bin")
        with pytest.raises(OSError, match="disk full"):
            write_checkpoint(tmp_path, value=2.0)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        np.testing.assert_array_equal(load_checkpoint(stem)[0], np.ones(4))

    def test_failed_json_write_keeps_the_previous_manifest(self, tmp_path, monkeypatch):
        stem = write_checkpoint(tmp_path, value=1.0)
        manifest = stem.with_suffix(".json").read_bytes()
        failing_replace(monkeypatch, ".json")
        with pytest.raises(OSError, match="disk full"):
            write_checkpoint(tmp_path, value=2.0)
        monkeypatch.undo()
        assert stem.with_suffix(".json").read_bytes() == manifest
        assert_no_temporaries(tmp_path)
        # the new blob is in place, and the old manifest does not vouch for it
        with pytest.raises(FormatError, match="SHA-256"):
            load_checkpoint(stem)

    def test_failed_csv_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "loss_curves.csv"
        write_loss_csv(path, [(1, 0.5, 0.25)])
        before = path.read_bytes()
        failing_replace(monkeypatch, ".csv")
        with pytest.raises(OSError, match="disk full"):
            write_loss_csv(path, [(1, 0.5, 0.25), (2, 0.4, 0.2)])
        monkeypatch.undo()
        assert path.read_bytes() == before == b"epoch,train_loss,val_loss\r\n1,0.5,0.25\r\n"
        assert_no_temporaries(tmp_path)

    def test_writers_create_parent_directories(self, tmp_path):
        files.write_json(tmp_path / "a" / "b.json", {"z": 1, "a": [2]})
        files.write_text(tmp_path / "c" / "d.txt", "x\n")
        assert (tmp_path / "a" / "b.json").read_bytes() == b'{\n  "a": [\n    2\n  ],\n  "z": 1\n}\n'
        assert (tmp_path / "c" / "d.txt").read_bytes() == b"x\n"


SRC = Path(files.__file__).parent


def file_writes(path: Path) -> list[str]:
    """`line: call` for each call in `path` that writes a file itself.

    That is `open` in a mode other than reading, `write_text`, `write_bytes`
    and `os.replace`; calls into the `files` module do not count.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name) else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if owner == "files":
            continue
        if name == "open":
            # open(path, mode) or Path.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        args[0] if args else None)
            writes = mode is not None and not (
                isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
        else:
            writes = name in ("write_text", "write_bytes") or (owner, name) == ("os", "replace")
        if writes:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


class TestOneWriter:
    def test_only_the_files_module_writes(self):
        writers = {p.name: file_writes(p) for p in sorted(SRC.glob("*.py"))
                   if p.name != "files.py" and file_writes(p)}
        assert writers == {}

    def test_the_check_sees_the_files_module_write(self):
        found = " ".join(file_writes(SRC / "files.py"))
        assert "open(tmp, mode" in found and "os.replace(tmp, path)" in found
