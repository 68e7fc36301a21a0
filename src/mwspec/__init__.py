"""Matrix-weighted tree distance matrices, block Laplacians, and the
Laplacian-perturbed inverse (D^{-1} - beta L)^{-1}, with a verification
suite for their structural properties (inertia, block positive
definiteness, negative semidefiniteness on the null space of J)."""

from .linalg import Inertia, inertia_of, is_pd_quadratic_form, pinv_psd, rank_of, sym_eigvals
from .model import (
    Instance,
    MatrixWeightedGraph,
    MatrixWeightedTree,
    WeightProfile,
    parse_instance,
    random_connected_graph,
    random_instance,
    random_tree,
    serialize_instance,
    validate,
)
from .operators import (
    BlockMatrix,
    build_distance_matrix,
    build_laplacian,
    build_U,
    distance_from_laplacian_pinv,
    distance_inverse_closed_form,
    structural_vectors,
)
from .perturbation import (
    PerturbedPencil,
    bordered,
    gx_matrix,
    haynsworth_check,
    perturbed_pencil,
    principal_block_submatrix,
)
from .verifier import (
    CampaignConfig,
    VerificationReport,
    run_campaign,
    verify_instance,
    verify_preliminaries,
    verify_theorem,
)

__version__ = "0.1.0"
