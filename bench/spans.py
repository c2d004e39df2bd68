"""Spans and counters around bgpc's public functions, from outside the package.

bgpc imports functions by name (``from .cxmat import numeric_rank``), so a
wrapper on the defining module alone would miss most calls. ``Tracer``
replaces a function on every ``bgpc`` module attribute that refers to it,
which is the name each caller looks up, and wraps ``numpy.linalg.svd``
itself. Spans (name, start, end, parent, op id, thread) are kept in memory
under a lock, so the sweep's worker threads can record them, and are
written out at the end. A span that starts on a thread with no open span
(a sweep worker) takes the innermost open span of the op thread as its
parent.

Kernel counts are computed from shapes, not measured. For an SVD of an
M x N complex matrix with l = max(M, N), k = min(M, N), the real flop
count is 4x the Golub-Reinsch count of Golub & Van Loan (3rd ed.,
Fig. 5.4.1): 4(4lk^2 - 4k^3/3) for values only, 4(4l^2k + 8lk^2 + 9k^3)
with full U and V, 4(14lk^2 + 8k^3) with thin U and V. Bytes are the
input plus every output array read or written once, ignoring caches.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from itertools import count
from math import comb

import numpy as np


def _svd_counts(args, kwargs, result, dur):
    a = np.asarray(args[0])
    rows, cols = a.shape
    l, k = max(rows, cols), min(rows, cols)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    item = a.dtype.itemsize
    moved = a.nbytes + k * np.finfo(a.dtype).dtype.itemsize
    if not compute_uv:
        flops = 4 * l * k * k - 4 * k ** 3 / 3
    elif full:
        flops = 4 * l * l * k + 8 * l * k * k + 9 * k ** 3
        moved += (rows * rows + cols * cols) * item
    else:
        flops = 14 * l * k * k + 8 * k ** 3
        moved += (rows * k + k * cols) * item
    scale = 4 if np.iscomplexobj(a) else 1
    return {"cxmat.svd.flops_computed": scale * flops,
            "cxmat.svd.bytes_computed": moved}


def _load_bytes(args, kwargs, result, dur):
    return {"serialize.load_json.bytes": os.path.getsize(args[0])}


def _dump_bytes(args, kwargs, result, dur):
    return {"serialize.dump_json.bytes": os.path.getsize(args[1])}


def _matrix_bytes(key, pick):
    def hook(args, kwargs, result, dur):
        return {key: sum(np.asarray(m).size * 16 for m in pick(args, result))}
    return hook


def _workers(args, kwargs, result, dur):
    workers = kwargs.get("max_workers", args[1] if len(args) > 1 else None)
    return {"experiment.run_sweep.capacity_s": (workers or 1) * dur}


def _certify_cells(args, kwargs, result, dur):
    return {"certify.cells_per_op": result.support_cells_checked or 1}


def _recover_cells(args, kwargs, result, dur):
    return {"recover.cells_per_op": 1}


def _recover_sparse_cells(args, kwargs, result, dur):
    s = kwargs.get("s", args[2] if len(args) > 2 else None)
    return {"recover.cells_per_op": comb(np.shape(args[1])[1], s)}


def _exit_code(args, kwargs, result, dur):
    return {"cli.main.exit_nonzero": int(result != 0)}


# qualified name -> hook returning counter increments after each call
TARGETS = {
    "model.random_instance": None,
    "certify.build_stacked": None,
    "certify.build_D_stack": None,
    "certify.build_stacked_restricted": None,
    "certify.certify_subspace": _certify_cells,
    "certify.certify_joint_sparse": _certify_cells,
    "cxmat.numeric_rank": None,
    "cxmat.svd": _svd_counts,
    "construct.construct_claim1": None,
    "construct.verify_claim1_rank": None,
    "recover.recover": _recover_cells,
    "recover.recover_joint_sparse": _recover_sparse_cells,
    "recover.build_recovery_system": None,
    "experiment.run_sweep": _workers,
    "experiment.write_csv": None,
    "serialize.load_json": _load_bytes,
    "serialize.dump_json": _dump_bytes,
    "serialize.matrix_from_dict": _matrix_bytes(
        "serialize.matrix_from_dict.bytes", lambda a, r: [r]),
    "serialize.matrix_to_dict": _matrix_bytes(
        "serialize.matrix_to_dict.bytes", lambda a, r: [a[0]]),
    "serialize.instance_from_dict": _matrix_bytes(
        "serialize.instance_from_dict.bytes", lambda a, r: [r.lambda0, r.X0, r.A]),
    "cli.main": _exit_code,
}

# per-layer metrics of the traced run, all per op unless the unit says ratio
LAYER_METRICS = [
    ("model.random_instance.calls", "calls/op"),
    ("model.random_instance.busy_s", "s/op"),
    *[(f"certify.{f}.{k}", u)
      for f in ("build_stacked", "build_D_stack", "build_stacked_restricted")
      for k, u in (("calls", "calls/op"), ("busy_s", "s/op"))],
    *[(f"certify.{f}.{k}", "s/op")
      for f in ("certify_subspace", "certify_joint_sparse")
      for k in ("busy_s", "self_s")],
    ("certify.cells_per_op", "cells/op"),
    ("cxmat.numeric_rank.calls", "calls/op"),
    ("cxmat.numeric_rank.busy_s", "s/op"),
    ("cxmat.svd.calls", "calls/op"),
    ("cxmat.svd.busy_s", "s/op"),
    ("cxmat.svd.flops_computed", "flop/op"),
    ("cxmat.svd.bytes_computed", "B/op"),
    *[(f"construct.{f}.{k}", "s/op")
      for f in ("construct_claim1", "verify_claim1_rank")
      for k in ("busy_s", "self_s")],
    *[(f"recover.{f}.{k}", "s/op")
      for f in ("recover", "recover_joint_sparse")
      for k in ("busy_s", "self_s")],
    ("recover.build_recovery_system.calls", "calls/op"),
    ("recover.build_recovery_system.busy_s", "s/op"),
    ("recover.cells_per_op", "cells/op"),
    ("experiment.run_sweep.busy_s", "s/op"),
    ("experiment.write_csv.busy_s", "s/op"),
    ("experiment.pool_busy_ratio", "ratio"),
    *[(f"serialize.{f}.{k}", u)
      for f in ("load_json", "matrix_from_dict", "instance_from_dict",
                "dump_json", "matrix_to_dict")
      for k, u in (("busy_s", "s/op"), ("bytes", "B/op"))],
    ("cli.main.calls", "calls/op"),
    ("cli.main.busy_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.main.exit_nonzero", "calls/op"),
    ("trace.overhead_ratio", "ratio"),
]


def _covered(t0: float, t1: float, intervals: list) -> float:
    """Length of the union of intervals, clipped to [t0, t1]."""
    total, reach = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = count(1)
        self._op_ids = count()
        self._patches: list = []
        self._op_stack: list | None = None
        self.op = None
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, hook=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            op_stack = self._op_stack
            parent = op_stack[-1] if op_stack else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, t0, t1, parent, self.op,
                                   threading.get_ident()))
        if hook is not None:
            incs = hook(args, kwargs, result, t1 - t0)
            with self._lock:
                for key, v in incs.items():
                    self.counters[key] += v
        return result

    def run_op(self, fn, *args):
        """Run one benchmark unit under a root span named ``op``."""
        self.op = next(self._op_ids)
        self._op_stack = self._stack()
        return self.call("op", fn, args, {})

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        return wrapper

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        """Wrap every target on each bgpc module name that refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "bgpc" or k.startswith("bgpc.")]
        for name, hook in TARGETS.items():
            if name == "cxmat.svd":
                self._patch(np.linalg, "svd", self._wrap(name, np.linalg.svd, hook))
                continue
            mod, fn_name = name.split(".")
            orig = getattr(importlib.import_module(f"bgpc.{mod}"), fn_name)
            wrapper = self._wrap(name, orig, hook)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is orig]:
                    self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "thread")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op calls, busy and self time per span name, plus counters."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        sweep_busy = 0.0
        for sid, name, t0, t1, _, _, _ in self.spans:
            calls[name] += 1
            busy[name] += t1 - t0
            own[name] += t1 - t0 - _covered(t0, t1, children[sid])
            if name == "experiment.run_sweep":
                sweep_busy += sum(b - a for a, b in children[sid])
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.busy_s"] = busy[name] / n_ops
            out[f"{name}.self_s"] = own[name] / n_ops
        for key, v in self.counters.items():
            out[key] = v / n_ops
        capacity = self.counters["experiment.run_sweep.capacity_s"]
        out["experiment.pool_busy_ratio"] = sweep_busy / capacity if capacity else 0.0
        return out
