import numpy as np
import pytest

from bgpc import random_instance


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
