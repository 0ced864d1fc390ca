"""Every file radnet writes, and the verified float64 blob it reads back.

A writer creates the parent directories, writes `<name>.tmp` beside the
target and moves it into place with `os.replace`, so an interrupted write
leaves the previous file or none, never a partial one. Text is UTF-8; csv
rows end in `\\r\\n`. A blob holds float64 values as little-endian bytes,
row-major; its JSON manifest records their SHA-256, which `read_blob`
checks with the length. A missing or unparsable manifest and a missing,
short or altered blob are a `FormatError` naming the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError


@contextmanager
def _replacing(path: str | Path, mode: str = "w", **kwargs):
    """An open `<path>.tmp` that replaces `path` when the block completes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path, encoding="utf-8") as fh:
        fh.write(text)


def write_json(path: str | Path, obj, indent: int | None = 2) -> None:
    write_text(path, json.dumps(obj, indent=indent, sort_keys=True) + "\n")


def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """`header`, then `rows`, which a generator may stream."""
    with _replacing(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_blob(path: str | Path, values) -> str:
    """Write `values` as a blob; returns the SHA-256 hex digest of its bytes."""
    blob = np.ascontiguousarray(values, dtype="<f8")
    with _replacing(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def read_bytes(path: str | Path, what: str) -> bytes:
    path = Path(path)
    try:
        return path.read_bytes()
    except FileNotFoundError as exc:
        raise FormatError(f"missing {what}: no {path.name} under {path.parent}") from exc


def read_json(path: str | Path, what: str) -> dict:
    raw = read_bytes(path, what)
    try:
        obj = json.loads(raw)
    except ValueError as exc:
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{what} {path} holds no JSON object")
    return obj


def read_blob(path: str | Path, n_values: int, sha256, what: str) -> np.ndarray:
    blob = read_bytes(path, what)
    if len(blob) != n_values * 8:
        raise FormatError(f"{what} {path} holds {len(blob)} bytes, its manifest declares "
                          f"{n_values * 8}")
    if hashlib.sha256(blob).hexdigest() != sha256:
        raise FormatError(f"{what} {path} fails its SHA-256 check")
    return np.frombuffer(blob, dtype="<f8").astype(np.float64)
