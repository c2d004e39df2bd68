"""Host-speed calibration for sparse-enum, bound by one Python loop.

The benchmark runs on a few cores of a shared host whose speed for tight
Python loops swings by 20% and more, in stretches of seconds to minutes.
sparse-enum spends nearly all its time in such a loop, the support-cell
enumeration around small complex SVDs, and whole-run wall times of
unchanged code spread up to 20-35% between runs, wider than any bound
that could resolve a real change. The probe below is a bgpc-free copy of
that kind of work: a loop over column subsets that builds a small stacked
complex matrix and takes its rank. Its time tracks the host's speed but
not the program's.

After each unit, ``measure`` runs the probe until probe time is at least
``SHARE`` of the time spent in units. A unit's scale is ``NOMINAL_S`` over
the median time of the ``WINDOW`` probes right after it, and its reported
time is its wall time times that scale: the time it would take on a host
where the probe takes ``NOMINAL_S``. A change to bgpc moves the unit's
time and not the probe's, so it shows in full.

A workload is scaled only where the probe was shown to move in step with
it. On the others this probe, and the others tried (a 128- to 256-row
complex SVD, a JSON round trip), swung about two to three times as far as
the workload did, so scaling added noise: construct-grid and
recover-large spend their time in large LAPACK calls on BLAS's threads,
and phase-sweep runs on two worker threads.
"""

import time
from itertools import combinations

import numpy as np

SHARE = 0.2
WINDOW = 15
# the probe's median time on the reference host (2-vCPU Xeon VM, Python
# 3.11, numpy 2.4 with OpenBLAS); a constant, so runs compare across time
NOMINAL_S = 4.0e-3

_rng = np.random.default_rng(20151223)
_A = _rng.standard_normal((20, 12)) + 1j * _rng.standard_normal((20, 12))
_X = _rng.standard_normal((12, 3)) + 1j * _rng.standard_normal((12, 3))


def probe() -> int:
    """Rank of a restricted stacked matrix for every pair of 12 columns."""
    total = 0
    for pair in combinations(range(12), 2):
        J = sorted({0, *pair})
        blocks = [_A[:, J] * _X[J[0], k] for k in range(_X.shape[1])]
        M = np.concatenate(blocks + [np.diag(_A[:, J[-1]])[:, :8]], axis=1)
        s = np.linalg.svd(M, compute_uv=False)
        total += int(np.count_nonzero(s > s[0] * 1e-12))
    return total


def _timed_probe() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def _scale(times: list[float]) -> float:
    return NOMINAL_S / sorted(times)[len(times) // 2]


class Calibration:
    """Probe times of one run, interleaved with its units."""

    def __init__(self):
        self.times: list[float] = []
        self.spent_s = 0.0
        self.marks: list[int] = []  # per unit, the index of the next probe

    def after_unit(self, unit_s: float) -> None:
        """Probe until probe time reaches ``SHARE`` of ``unit_s``, the time
        spent in units so far."""
        self.marks.append(len(self.times))
        while self.spent_s < SHARE * unit_s:
            self.times.append(_timed_probe())
            self.spent_s += self.times[-1]

    def scales(self) -> list[float]:
        """Per unit, ``NOMINAL_S`` over the median of the ``WINDOW`` probes
        that follow it (the last ``WINDOW`` for the final units)."""
        last = len(self.times) - WINDOW
        return [_scale(self.times[max(0, min(mark, last)):][:WINDOW])
                for mark in self.marks]


def scale_now() -> float:
    """``NOMINAL_S`` over the median of ``WINDOW`` probes run now."""
    return _scale([_timed_probe() for _ in range(WINDOW)])
