"""Flat binary tables with JSON headers.

A table is a pair of files: ``<stem>.bin`` holding little-endian float64
values in C order (site-major, then row-major matrix entries) and
``<stem>.json`` recording the shape and a content hash.  Loads verify the
hash so a truncated or edited table is reported as corruption rather than
as a failed numerical check.
"""

from __future__ import annotations

import hashlib
import json
import os
import reprlib
import tempfile
from pathlib import Path

import numpy as np

from .lattice import LatticeError


class IntegrityError(RuntimeError):
    """A binary table does not match its recorded hash or shape."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_hash(array: np.ndarray) -> str:
    return _sha256(np.ascontiguousarray(array, dtype="<f8").tobytes())


def atomic_write_bytes(path: Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def json_dumps(obj) -> str:
    """Canonical JSON used everywhere a file must be byte-reproducible."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), indent=2) + "\n"


#: The Python types that fit each kind of ``check_json`` that is a type, and its name.
_KINDS = {int: (int, "an integer"), float: ((int, float), "a finite number"),
          str: (str, "a string"), bool: (bool, "a boolean"), object: (object, "a value"),
          list: (list, "a list"), dict: (dict, "an object")}
#: A matrix: a number (that multiple of the identity) or rows of numbers.
MATRIX = (float, [[float]])


def check_json(value, kind, where: str) -> None:
    """Raise ``LatticeError``, naming the value ``where``, unless it is of ``kind``.

    A kind is ``int``, ``float`` (any finite number, not a bool), ``str``,
    ``bool``, ``object`` (anything), a string to equal, ``[kind]`` (a list), a
    tuple (any one of its kinds) or a dict: an object with the keys it names,
    ``?`` marking the optional ones, and the key ``str`` giving the kind of any
    other.  ``NaN`` and ``Infinity``, which ``json`` parses, are not numbers.
    """
    if isinstance(kind, tuple):
        errors = []
        for alternative in kind:
            try:
                return check_json(value, alternative, where)
            except LatticeError as exc:
                errors.append(str(exc))
        raise LatticeError("; or ".join(errors))
    if isinstance(kind, str):
        fits, name = value == kind, repr(kind)
    else:
        types, name = _KINDS[kind if isinstance(kind, type) else type(kind)]
        fits = (isinstance(value, types)
                and (kind in (bool, object) or not isinstance(value, bool))
                and (kind is not float or isinstance(value, int) or np.isfinite(value)))
    if not fits:
        raise LatticeError(f"{where} must be {name}, not {reprlib.repr(value)}")
    if isinstance(kind, list):
        for i, item in enumerate(value):
            check_json(item, kind[0], f"{where}[{i}]")
    elif isinstance(kind, dict):
        named = {key.rstrip("?"): key for key in kind if key is not str}
        for name, key in named.items():
            if name == key and name not in value:
                raise LatticeError(f"{where} requires the key {name!r}")
        for name, item in value.items():
            if name not in named and str not in kind:
                raise LatticeError(f"unknown key {name!r} in {where}")
            check_json(item, kind[named.get(name, str)], f"{where}.{name}")


def write_table(stem: Path | str, array: np.ndarray, meta: dict | None = None) -> dict:
    """Write ``<stem>.bin`` + ``<stem>.json``; returns the header dict."""
    stem = Path(stem)
    data = np.ascontiguousarray(array, dtype="<f8")
    raw = data.tobytes()
    header = {
        "format": "frdkit-table-v1",
        "dtype": "<f8",
        "order": "C",
        "shape": list(data.shape),
        "sha256": _sha256(raw),
    }
    if meta:
        header["meta"] = meta
    atomic_write_bytes(stem.with_suffix(".bin"), raw)
    atomic_write_text(stem.with_suffix(".json"), json_dumps(header))
    return header


def read_table(stem: Path | str, sha256: str | None = None) -> tuple[np.ndarray, dict]:
    """Load and verify a table; raises IntegrityError on any mismatch.

    With ``sha256`` the header's content hash must also equal it, so a table
    rewritten consistently with its own header is still caught against a hash
    recorded elsewhere.
    """
    stem = Path(stem)
    try:
        header = json.loads(stem.with_suffix(".json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"unreadable table header {stem}.json: {exc}") from exc
    try:
        raw = stem.with_suffix(".bin").read_bytes()
    except OSError as exc:
        raise IntegrityError(f"unreadable table {stem}.bin: {exc}") from exc
    if header.get("dtype") != "<f8" or header.get("order") != "C":
        raise IntegrityError(f"unsupported table encoding in {stem}.json")
    if _sha256(raw) != header.get("sha256"):
        raise IntegrityError(f"content hash mismatch for {stem}.bin")
    if sha256 is not None and header.get("sha256") != sha256:
        raise IntegrityError(f"{stem}.bin does not match its recorded hash")
    shape = tuple(header.get("shape", ()))
    expected = int(np.prod(shape)) * 8 if shape else 0
    if len(raw) != expected:
        raise IntegrityError(
            f"size mismatch for {stem}.bin: {len(raw)} bytes, header says {expected}"
        )
    array = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    return array, header
