"""Identifiability toolkit for blind gain and phase calibration.

Given measurements Y = diag(lambda) A X, this package decides whether
(lambda, X) is identifiable up to a global scale (rank certificates),
builds explicit DFT-based instances where the certificate rank is exact,
recovers (lambda, X) through a homogeneous null-space solver, and sweeps
Monte-Carlo grids to expose the sample-complexity phase transition.
"""

from .certify import (CertificateReport, IDENTIFIABLE, JOINT_SPARSE,
                      NOT_CERTIFIED, SUBSPACE, build_D_stack, build_stacked,
                      certify_joint_sparse, certify_subspace)
from .construct import (ConstructedInstance, VerificationRecord,
                        construct_claim1, construct_claim2, select_columns,
                        verify_claim1_rank)
from .cxmat import RankResult, dft_matrix, numeric_rank
from .errors import (BgpcError, BudgetExceededError, DimensionError,
                     InfeasibleConstructionError)
from .experiment import PhaseCell, SweepConfig, run_sweep, write_csv, write_json
from .model import (BGPCInstance, ScaleAlignment, align_scale, forward,
                    min_samples_joint_sparse, min_samples_subspace,
                    random_instance)
from .recover import (AMBIGUOUS, DEGENERATE_GAMMA, RecoveryResult, UNIQUE,
                      recover, recover_joint_sparse)

__all__ = [
    "AMBIGUOUS", "BGPCInstance", "BgpcError", "BudgetExceededError",
    "CertificateReport", "ConstructedInstance", "DEGENERATE_GAMMA",
    "DimensionError", "IDENTIFIABLE", "InfeasibleConstructionError",
    "JOINT_SPARSE", "NOT_CERTIFIED", "PhaseCell", "RankResult",
    "RecoveryResult", "SUBSPACE", "ScaleAlignment", "SweepConfig", "UNIQUE",
    "VerificationRecord", "align_scale",
    "build_D_stack", "build_stacked", "certify_joint_sparse", "certify_subspace",
    "construct_claim1", "construct_claim2", "dft_matrix", "forward",
    "min_samples_joint_sparse", "min_samples_subspace", "numeric_rank",
    "random_instance", "recover", "recover_joint_sparse", "run_sweep",
    "select_columns", "verify_claim1_rank", "write_csv", "write_json",
]

__version__ = "0.1.0"
