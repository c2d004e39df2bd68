"""JSON file formats shared by the library and the CLI.

Matrices are stored as {"rows", "cols", "data"} with ``data`` a row-major
list of [re, im] pairs. Index sets (supports, selected DFT columns) are
1-based on disk and 0-based in the Python API. Floats round-trip exactly:
Python's json writer emits the shortest decimal that parses back to the
same double.

Records are written field by field, in dataclass field order: arrays as
matrices, index tuples 1-based, and ``support`` or ``row_order`` left out
when None. Readers take counts only as JSON integers and index sets only as
lists of positive integers; anything else is a DimensionError naming the
field.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import fields

import numpy as np

from .construct import ConstructedInstance, VerificationRecord
from .errors import DimensionError
from .model import BGPCInstance
from .recover import RecoveryResult

_MATRICES = ("lambda0", "X0", "A")  # lambda0 is read back as a vector
_INDEX_SETS = ("support", "selected_cols", "complement_cols", "row_order")
_OPTIONAL = ("support", "row_order")  # omitted when None


def is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` reads as a Python bool)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _one_based(idx) -> list[int] | None:
    """0-based index tuple to its 1-based on-disk list; None passes through."""
    return None if idx is None else [int(j) + 1 for j in idx]


def matrix_to_dict(M: np.ndarray) -> dict:
    M = np.ascontiguousarray(M, dtype=np.complex128)
    if M.ndim == 1:
        M = M[:, None]
    rows, cols = M.shape
    return {"rows": rows, "cols": cols,
            "data": M.view(np.float64).reshape(-1, 2).tolist()}


def matrix_from_dict(d: dict, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols, data = d["rows"], d["cols"], d["data"]
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"{name}: malformed matrix object ({exc})") from exc
    if not (is_int(rows) and is_int(cols) and rows >= 1 and cols >= 1):
        raise DimensionError(f"{name}: rows and cols must be positive integers, "
                             f"got {rows!r} and {cols!r}")
    try:
        pairs = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionError(f"{name}: data must hold [re, im] number pairs ({exc})") from exc
    if pairs.shape != (rows * cols, 2):
        raise DimensionError(f"{name}: data has shape {pairs.shape}, expected "
                             f"rows*cols = {rows * cols} [re, im] pairs")
    if not np.all(np.isfinite(pairs)):
        raise DimensionError(f"{name}: non-finite entries (null, NaN or infinity)")
    return pairs.view(np.complex128).reshape(rows, cols)


def _record_to_dict(rec) -> dict:
    d = {}
    for f in fields(rec):
        value = getattr(rec, f.name)
        if value is None and f.name in _OPTIONAL:
            continue
        if isinstance(value, np.ndarray):
            value = matrix_to_dict(value)
        elif isinstance(value, tuple):
            value = _one_based(value)
        d[f.name] = value
    return d


def _field(d: dict, name: str, what: str):
    """Field ``name`` of a record object, decoded and checked by its kind."""
    if not isinstance(d, dict):
        raise DimensionError(f"{what}: expected a JSON object, got {type(d).__name__}")
    value = d.get(name)
    if value is None and name in _OPTIONAL:
        return None
    if name not in d:
        raise DimensionError(f"{what}: missing field {name!r}")
    if name in _MATRICES:
        M = matrix_from_dict(value, name)
        return M.reshape(-1) if name == "lambda0" else M
    if name in _INDEX_SETS:
        if isinstance(value, list) and all(is_int(j) and j >= 1 for j in value):
            return tuple(j - 1 for j in value)
        raise DimensionError(f"{what}: {name} must be a list of 1-based "
                             f"positive integers, got {value!r}")
    if not is_int(value):
        raise DimensionError(f"{what}: {name} must be an integer, got {value!r}")
    return value


def _record_from_dict(cls, d: dict, what: str):
    return cls(**{f.name: _field(d, f.name, what) for f in fields(cls)})


# the record writers: every field, through one rule (see the module docstring)
instance_to_dict = constructed_to_dict = report_to_dict = _record_to_dict


def instance_from_dict(d: dict) -> BGPCInstance:
    return _record_from_dict(BGPCInstance, d, "instance")


def constructed_from_dict(d: dict) -> ConstructedInstance:
    return _record_from_dict(ConstructedInstance, d, "constructed instance")


def verification_to_dict(rec: VerificationRecord) -> dict:
    d = _record_to_dict(rec)
    d["pass"] = d.pop("passed")
    return d


def recovery_to_dict(res: RecoveryResult) -> dict:
    return {
        "status": res.status,
        "null_dim": res.null_dim,
        "lambda": None if res.lam is None else matrix_to_dict(res.lam),
        "X": None if res.X is None else matrix_to_dict(res.X),
        "support": _one_based(res.support),
    }


def dump_json(obj: dict | list, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
