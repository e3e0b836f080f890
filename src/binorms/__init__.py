"""Bi-invariant word norms, partial quasimorphisms and asymptotic-cone
functionals on concrete group families, with exact small-instance oracles."""

from .groups import (
    FamilyMismatchError,
    FreeWord,
    GroupElement,
    GroupError,
    Heisenberg,
    HEISENBERG_A,
    HEISENBERG_B,
    LatticeVector,
    Permutation,
    commutator,
    conjugate,
    cycle_decomposition,
    decode,
)
from .kernels import ACTIVE_BACKEND
from .norms import (
    GeneratingSet,
    GroupContext,
    NormInterval,
    bfs_word_norm,
    cancellation_norm,
    conjugate_product_search,
    free_cancellation_context,
    heisenberg_context,
    integer_line_context,
    l1_norm,
    lattice_context,
    symmetric_transposition_context,
    transposition_norm,
)
from .pqm import (
    LimitScheme,
    PqmHandle,
    antisymmetrise,
    brooks_qm,
    c_trick_witness,
    defect_estimate,
    detect_undistorted,
    fekete_limit,
    homogenise,
    lipschitz_estimate,
    mcshane_extend,
    SubadditiveCorrection,
    walk_build,
)
from .cone import (
    ConePoint,
    cone_dist,
    cone_norm,
    eta,
    pullback_defect,
)

__version__ = "0.1.0"
