import numpy as np
import pytest

from mwspec.errors import ConfigError
from mwspec.golden import golden_instance
from mwspec.linalg import sym_eigvals
from mwspec.model import MatrixWeightedGraph, WeightProfile, random_tree
from mwspec.operators import BlockMatrix, build_distance_matrix, build_laplacian_exact
from mwspec.perturbation import gx_matrix, principal_block_submatrix
from mwspec.verifier import build_matrices


def _golden_d():
    return build_distance_matrix(golden_instance().tree)


@pytest.mark.parametrize("call", [
    lambda: random_tree(1, 2, 0),
    lambda: random_tree(3, 1, -1),
    lambda: WeightProfile(5, 1),
    lambda: principal_block_submatrix(_golden_d(), []),
    lambda: gx_matrix(_golden_d(), np.zeros(2)),
    lambda: BlockMatrix(2, 2, np.eye(3)),
    lambda: sym_eigvals(np.ones((2, 3))),
    lambda: MatrixWeightedGraph(2, 2, [(0, 1)], np.ones((1, 2, 3))),
    lambda: MatrixWeightedGraph(2, 2, [(0, 1)], np.ones((1, 1, 1))),
    lambda: MatrixWeightedGraph(3, 1, [(0, 1), (1, 2)], np.ones((1, 1, 1))),
    lambda: MatrixWeightedGraph(2, 1, [0, 1], np.ones((1, 1, 1))),
    lambda: MatrixWeightedGraph(3, 1, [(0, 1), (1, 2)], np.ones((2, 1, 1)), [[[1]]]),
    lambda: build_laplacian_exact(random_tree(3, 2, 0)),
    lambda: build_matrices(golden_instance(), corrupt=(99, 99, 2.0)),
], ids=["n", "seed", "profile", "empty-index-set", "zero-vector", "block-shape",
        "non-square", "weight-shape", "weight-order", "weight-count", "endpoint-shape",
        "partly-exact", "float-to-exact", "corrupt-entry"])
def test_bad_argument_raises_config_error(call):
    # one class for a bad argument, and it is a ValueError
    with pytest.raises(ConfigError) as exc:
        call()
    assert isinstance(exc.value, ValueError)
