"""JSON file formats shared by the library and the CLI.

Matrices are stored as {"rows", "cols", "data"} with ``data`` a row-major
list of [re, im] pairs. Index sets (supports, selected DFT columns) are
1-based on disk and 0-based in the Python API. Floats round-trip exactly:
Python's json writer emits the shortest decimal that parses back to the
same double.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .certify import CertificateReport
from .construct import ConstructedInstance, VerificationRecord
from .errors import DimensionError
from .model import BGPCInstance
from .recover import RecoveryResult


def _one_based(idx) -> list[int] | None:
    """0-based index tuple to its 1-based on-disk list; None passes through."""
    return None if idx is None else [int(j) + 1 for j in idx]


def _zero_based(idx) -> tuple[int, ...] | None:
    """1-based on-disk index list to its 0-based tuple; None passes through."""
    return None if idx is None else tuple(int(j) - 1 for j in idx)


def matrix_to_dict(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim == 1:
        M = M[:, None]
    rows, cols = M.shape
    flat = M.reshape(-1)  # row-major
    return {
        "rows": rows,
        "cols": cols,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_dict(d: dict, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols, data = int(d["rows"]), int(d["cols"]), d["data"]
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"{name}: malformed matrix object ({exc})") from exc
    if rows < 1 or cols < 1:
        raise DimensionError(f"{name}: rows and cols must be positive")
    if len(data) != rows * cols:
        raise DimensionError(
            f"{name}: data length {len(data)} != rows*cols = {rows * cols}")
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if len(pair) != 2:
            raise DimensionError(f"{name}: data[{i}] is not a [re, im] pair")
        out[i] = complex(float(pair[0]), float(pair[1]))
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ValueError(f"{name}: non-finite entries")
    return out.reshape(rows, cols)


def instance_to_dict(inst: BGPCInstance) -> dict:
    d = {
        "n": inst.n,
        "m": inst.m,
        "N": inst.N,
        "lambda0": matrix_to_dict(inst.lambda0),
        "X0": matrix_to_dict(inst.X0),
        "A": matrix_to_dict(inst.A),
    }
    if inst.support is not None:
        d["support"] = _one_based(inst.support)
    return d


def instance_from_dict(d: dict) -> BGPCInstance:
    try:
        n, m, N = int(d["n"]), int(d["m"]), int(d["N"])
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"instance: missing field ({exc})") from exc
    lambda0 = matrix_from_dict(d["lambda0"], "lambda0").reshape(-1)
    X0 = matrix_from_dict(d["X0"], "X0")
    A = matrix_from_dict(d["A"], "A")
    return BGPCInstance(n=n, m=m, N=N, lambda0=lambda0, X0=X0, A=A,
                        support=_zero_based(d.get("support")))


def report_to_dict(rep: CertificateReport) -> dict:
    return {**asdict(rep), "failing_support": _one_based(rep.failing_support)}


def constructed_to_dict(ci: ConstructedInstance) -> dict:
    d = {
        "n": ci.n,
        "m": ci.m,
        "N": ci.N,
        "X0": matrix_to_dict(ci.X0),
        "A": matrix_to_dict(ci.A),
        "selected_cols": _one_based(ci.selected_cols),
        "complement_cols": _one_based(ci.complement_cols),
        "expected_left_null_dim": ci.expected_left_null_dim,
    }
    if ci.row_order is not None:
        d["row_order"] = _one_based(ci.row_order)
    return d


def constructed_from_dict(d: dict) -> ConstructedInstance:
    try:
        n, m, N = int(d["n"]), int(d["m"]), int(d["N"])
        selected = _zero_based(d["selected_cols"])
        complement = _zero_based(d["complement_cols"])
        expected = int(d["expected_left_null_dim"])
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"constructed instance: missing field ({exc})") from exc
    return ConstructedInstance(
        n=n, m=m, N=N,
        selected_cols=selected,
        complement_cols=complement,
        A=matrix_from_dict(d["A"], "A"),
        X0=matrix_from_dict(d["X0"], "X0"),
        expected_left_null_dim=expected,
        row_order=_zero_based(d.get("row_order")),
    )


def verification_to_dict(rec: VerificationRecord) -> dict:
    d = asdict(rec)
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
