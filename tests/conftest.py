from dataclasses import replace

import numpy as np
import pytest

from bgpc import construct_claim1, random_instance


@pytest.fixture
def svd_calls(monkeypatch):
    """The positional arguments of every numpy.linalg.svd call the test makes,
    appended as each call is made."""
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(a) or svd(*a, **k))
    return calls


@pytest.fixture
def degenerate_gamma_pair():
    """Consistent (Y, A) whose only solution has gamma_0 = 0.

    Row 0 of A is replaced by a vector annihilating X0 (possible as m > N)
    and row 0 of Y by a nonzero vector; the other rows pin X to X0 up to
    scale, so a_0 @ X = 0 = gamma_0 * Y[0] forces gamma_0 = 0.
    """
    inst = random_instance(12, 5, 3, seed=13)
    A = inst.A.copy()
    A[0] = np.linalg.svd(inst.X0.T)[2][-1].conj()
    assert np.linalg.norm(A[0] @ inst.X0) < 1e-12
    Y = inst.lambda0[:, None] * (A @ inst.X0)
    Y[0] = 1.0
    return Y, A


@pytest.fixture
def duplicated_column_construction():
    """Claim-1 instance (8, 4, 2) with column 3 of A replaced by column 2.

    Rows 2 and 3 of X0 are zero, so columns t*m + 2 and t*m + 3 of the
    stacked matrix coincide for every snapshot t and rank(S) < mN.
    """
    ci = construct_claim1(8, 4, 2)
    A = ci.A.copy()
    A[:, 3] = A[:, 2]
    return replace(ci, A=A)
