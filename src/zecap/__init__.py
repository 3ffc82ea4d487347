"""zecap: zero-error coding certificates for small multi-sender quantum channels."""

from .channels import (
    MultiUserChannel,
    apply_channel,
    apply_channel_to_ket,
    check_trace_preserving,
    extend_trivial_parties,
    make_cj_channel,
    make_e12,
    make_e21,
    make_em1,
    make_variant34,
    tensor_power,
    to_kraus,
)
from .protocols import (
    AlphaLocalCertificate,
    CodeBook,
    basis_codebook,
    build_two_use_code,
    capacity_lower_bound,
    certify_alpha_local_one,
    check_local_preparability,
    privacy_check,
    teleport_qubit,
    teleportation_decode,
    verify_orthogonal_outputs,
)
from .renyi import (
    AdditivityGapReport,
    RankSearchResult,
    additivity_gap_at_zero,
    min_output_rank_search,
    renyi_entropy,
)
from .subspaces import (
    CECertificate,
    ProductCandidate,
    Subspace,
    certify_completely_entangled,
    grid_product_overlap,
    max_product_overlap,
    symmetry_checks,
)

__version__ = "0.1.0"
