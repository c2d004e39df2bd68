"""Acceptance gate: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything is seeded; the slowest criterion (exhaustive construction
verification) runs in well under a minute on a desktop core.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from bgpc import (IDENTIFIABLE, SweepConfig, align_scale, certify_subspace,
                  construct_claim1, forward, min_samples_joint_sparse,
                  min_samples_subspace, random_instance, recover, run_sweep,
                  verify_claim1_rank)
from bgpc.certify import SUBSPACE, build_D_stack
from bgpc.cxmat import dft_matrix
from bgpc.experiment import cells_to_csv
from bgpc.recover import UNIQUE


def _ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_construction_verification():
    """Every feasible (n, m, N) up to n = 24 verifies its exact ranks."""
    checked = 0
    for n in range(4, 25):
        for m in range(2, n):
            for N in range(2, m + 1):
                if (n - m) * N < n - 1:
                    continue
                rec = verify_claim1_rank(construct_claim1(n, m, N))
                assert rec.passed, (n, m, N, rec)
                checked += 1
    assert checked >= 1500
    _ok("1 construction rank verification", f"({checked} triples)")


def test_criterion_2_subspace_phase_transition():
    """n = 16 sweep: rate 1 at or above the threshold, hard 0 below."""
    cfg = SweepConfig(mode="Subspace", n=16, dim_range=list(range(2, 13)),
                      N_range=list(range(2, 9)), trials=50, base_seed=42,
                      record_timing=False)
    cells = run_sweep(cfg)
    assert len(cells) == 11 * 7
    for c in cells:
        threshold = min_samples_subspace(16, c.dim)
        assert c.threshold_met == (c.N >= threshold)
        if c.N >= threshold:
            assert c.rate >= 0.98, c
        else:
            assert c.rate == 0.0, c
    _ok("2 subspace phase transition", "(77 cells x 50 trials)")


def test_criterion_3_joint_sparse_phase_transition():
    """n = 16, m = 8: full support enumeration, rate 1 above the threshold."""
    cfg = SweepConfig(mode="JointSparse", n=16, m=8, dim_range=[2, 3],
                      N_range=[2, 3], trials=25, base_seed=42,
                      record_timing=False)
    cells = run_sweep(cfg)
    for c in cells:
        threshold = min_samples_joint_sparse(16, c.dim)
        assert threshold == 2
        assert c.N >= threshold
        assert c.rate >= 0.98, c
    _ok("3 joint-sparse phase transition", "(4 cells x 25 trials)")


def test_criterion_3b_joint_sparse_certificate_transition():
    """n = 16, m = 14: the certificate's rate jumps from 0 to 1 at the
    threshold ceil(15 / (16 - 2s)) = 2, 3, 4 for s = 4, 5, 6."""
    cfg = SweepConfig(mode="JointSparse", n=16, m=14, dim_range=[4, 5, 6],
                      N_range=list(range(2, 9)), trials=2, base_seed=42,
                      record_timing=False)
    cells = run_sweep(cfg)
    assert len(cells) == 3 * 7
    for c in cells:
        threshold = min_samples_joint_sparse(16, c.dim)
        assert threshold == {4: 2, 5: 3, 6: 4}[c.dim]
        assert c.threshold_met == (c.N >= threshold)
        assert c.rate == (1.0 if c.N >= threshold else 0.0), c
    _ok("3b joint-sparse certificate transition", "(21 cells x 2 trials)")


def test_criterion_3c_joint_sparse_wide_dictionary():
    """n = 10, s = 3, m = 14 and 16 > n: the certificate's rate is 0 below
    the threshold ceil(9 / (10 - 6)) = 3 and 1 at or above it."""
    for m in (14, 16):
        cfg = SweepConfig(mode="JointSparse", n=10, m=m, dim_range=[3],
                          N_range=[2, 3, 4], trials=4, base_seed=42,
                          record_timing=False)
        cells = run_sweep(cfg)
        assert [(c.N, c.threshold_met) for c in cells] == [
            (2, False), (3, True), (4, True)]
        for c in cells:
            assert c.rate == (1.0 if c.threshold_met else 0.0), c
    _ok("3c joint-sparse certificate, m > n", "(6 cells x 4 trials)")


def test_criterion_4_certificate_recovery_agreement():
    """Certificate verdict equals (recovery null dim == 1) in 400 cases."""
    cases = 0
    for m in (5, 9):
        for seed in range(200):
            inst = random_instance(12, m, 2, seed=seed)
            rep = certify_subspace(inst.A, inst.X0, inst.lambda0)
            res = recover(forward(inst), inst.A)
            assert (rep.verdict == IDENTIFIABLE) == (res.null_dim == 1), (m, seed)
            cases += 1
    assert cases == 400
    _ok("4 certificate/recovery oracle agreement", "(400 instances)")


def test_criterion_5_end_to_end_recovery_accuracy():
    """100 identifiable instances recover to 1e-8 with reciprocal scales."""
    for seed in range(100):
        inst = random_instance(10, 4, 2, seed=seed)
        res = recover(forward(inst), inst.A)
        assert res.status == UNIQUE, seed
        ax = align_scale(res.X, inst.X0)
        al = align_scale(res.lam[:, None], inst.lambda0[:, None])
        assert ax.relative_error <= 1e-8, seed
        assert al.relative_error <= 1e-8, seed
        assert abs(ax.sigma * al.sigma - 1.0) <= 1e-6, seed
    _ok("5 end-to-end recovery accuracy", "(100 instances)")


def test_criterion_6_headline_sample_complexities():
    """Two snapshots suffice at inverse-rendering scale and for s < n/4."""
    assert min_samples_subspace(65536, 9) == 2
    for n in range(5, 101):
        for s in range(1, n):
            if s < n / 4 and n > 2 * s:
                assert min_samples_joint_sparse(n, s) == 2, (n, s)
    _ok("6 headline sample complexities")


# --- criterion 7: module invariants under a property-test runner ---


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       m_big=st.booleans())
def test_criterion_7a_verdict_scaling_invariance(seed, m_big):
    n, m = (8, 6) if m_big else (8, 4)
    inst = random_instance(n, m, 2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    sigma = complex(rng.standard_normal() + 1j * rng.standard_normal())
    if abs(sigma) < 1e-3:
        sigma = 1.0 + 1.0j
    base = certify_subspace(inst.A, inst.X0, inst.lambda0)
    scaled = certify_subspace(inst.A, sigma * inst.X0, inst.lambda0 / sigma)
    assert base.verdict == scaled.verdict
    assert base.condition1_rank_full == scaled.condition1_rank_full


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       n=st.integers(4, 10), N=st.integers(2, 4))
def test_criterion_7b_block_stack_annihilates_vec(seed, n, N):
    m = max(2, n - 2)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    X0 = rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))
    D = build_D_stack(A, X0)
    scale = np.linalg.norm(D) * np.linalg.norm(X0)
    assert np.linalg.norm(D @ X0.flatten(order="F")) <= 1e-10 * max(scale, 1.0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 32), data=st.data())
def test_criterion_7c_dft_column_product(n, data):
    j1 = data.draw(st.integers(1, n - 1)) if n > 1 else 1
    j2 = data.draw(st.integers(j1 + 1, n))
    F = dft_matrix(n)
    lhs = F[:, (n + 1 - j1) - 1] * F[:, j2 - 1]
    np.testing.assert_allclose(lhs, F[:, (j2 - j1) - 1], atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       n=st.integers(4, 12), data=st.data())
def test_criterion_7d_hard_zero_below_counting_bound(seed, n, data):
    m = data.draw(st.integers(2, n - 1))
    N = data.draw(st.integers(2, max(2, m)))
    if 1 + n * (N - 1) >= m * N:
        # force a below-bound cell when possible, else nothing to check
        return
    inst = random_instance(n, m, N, seed=seed)
    rep = certify_subspace(inst.A, inst.X0, inst.lambda0)
    assert not rep.condition1_rank_full


def test_criterion_7e_csv_byte_reproducibility():
    cfg = SweepConfig(mode=SUBSPACE, n=10, dim_range=[3, 4, 5, 6, 7],
                      N_range=[2, 3, 4, 5], trials=5, base_seed=11,
                      record_timing=False)
    first = cells_to_csv(run_sweep(cfg))
    second = cells_to_csv(run_sweep(cfg))
    assert first.encode() == second.encode()
    assert sum(c.trials for c in run_sweep(cfg)) == 100


def test_criterion_7_summary():
    _ok("7 invariant property suites")
