"""JSON file formats shared by the library and the CLI.

Matrices are stored as {"rows", "cols", "data"} with ``data`` a row-major
list of [re, im] pairs. Index sets (supports, selected DFT columns) are
1-based on disk and 0-based in the Python API. Floats round-trip exactly:
Python's json writer emits the shortest decimal that parses back to the
same double.

Records are written field by field, in dataclass field order: arrays as
matrices, index tuples 1-based, and ``support`` or ``row_order`` left out
when None. Files hold exactly the bytes of ``json.dump(obj, fh, indent=2)``
and a newline; only the encoder differs (see :func:`_encode`). Readers take
counts only as JSON integers, index sets only as lists of positive integers
and matrix entries only as numbers; anything else is a DimensionError
naming the field.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import fields
from itertools import chain

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
    # numpy reads "1.5" and true as numbers; JSON's strings and booleans are not
    if not {*map(type, chain.from_iterable(data))}.isdisjoint((str, bool)):
        raise DimensionError(f"{name}: data must hold [re, im] number pairs, "
                             "not strings or booleans")
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


_MARK = "\x00"  # a grid's stand-in: json writes it as "\u0000"


def _is_grid(text: str, k: int) -> bool:
    """Whether ``text``, the compact JSON of a list of ``k`` lists, is a list
    of k nonempty lists of numbers (or null, true, false).

    With no '"' and no '{' the text holds no string and no object, so only
    scalars, brackets and ", " are left, and no scalar contains ", " or a
    bracket. Starting "[[" and ending "]]", with k + 1 "[" of which k - 1
    follow a "], ", every "[" after the first two opens an element right after
    the previous one closed: the k elements are flat lists, none empty."""
    return (text.startswith("[[") and text.endswith("]]")
            and '"' not in text and "{" not in text and "[]" not in text
            and text.count("[") == k + 1 and text.count("], [") == k - 1)


def _lay_out(grid: str, indent: str) -> str:
    """The compact text of a grid (see :func:`_is_grid`) as ``indent=2`` lays
    it out for a value on a line indented by ``indent``."""
    inner, leaf = indent + "  ", indent + "    "
    body = (grid[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{leaf}")
            .replace(", ", ",\n" + leaf))
    return f"[\n{inner}[\n{leaf}{body}\n{inner}]\n{indent}]"


def _encode(obj) -> str:
    """``json.dumps(obj, indent=2)``, with each grid, such as a matrix's
    ``data``, encoded by one call to json's C encoder and laid out by string
    operations; ``indent`` sends everything else through the pure-Python one.

    Both encoders write a number as its ``repr`` and the same NaN and
    Infinity words, so the bytes are the same. Each grid is swapped for
    :data:`_MARK`; if the text holds any other ``\\u0000`` (a string of
    ``obj`` had one), ``obj`` is encoded plainly, as it is when it holds a
    cycle, so that json raises its own error. The text is whole before the
    file is opened: an object that cannot be encoded leaves no file.
    """
    grids = []

    def swap(o, level):  # level: of the line o starts on, 2 spaces each
        if isinstance(o, dict):
            return {k: swap(v, level + 1) for k, v in o.items()}
        if isinstance(o, list):
            if o and isinstance(o[0], list):
                text = json.dumps(o)
                if _is_grid(text, len(o)):
                    grids.append(_lay_out(text, "  " * level))
                    return _MARK
            return [swap(v, level + 1) for v in o]
        return o

    try:
        text = json.dumps(swap(obj, 0), indent=2)
    except RecursionError:  # a cycle: json names it, or a nesting json cannot take
        return json.dumps(obj, indent=2)
    if text.count("\\u0000") != len(grids):
        return json.dumps(obj, indent=2)
    pieces = text.split(json.dumps(_MARK))
    return "".join([*chain.from_iterable(zip(pieces, grids)), pieces[-1]])


def dump_json(obj: dict | list, path) -> None:
    text = _encode(obj)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
