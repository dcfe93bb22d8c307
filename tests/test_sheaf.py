import itertools

import numpy as np
import pytest

from mwgraph.errors import DegenerateEdgeError, ParseError
from mwgraph.graphs import MatrixWeightedGraph, lift_identity
from mwgraph.linalg import kernel_dim
from mwgraph.operators import assemble
from mwgraph.sheaf import (
    Truss,
    build_coboundary,
    global_sections,
    load_truss,
    rigid_motions,
    sqrt_factor,
    truss_to_mwg,
    verify_factorization,
)

from conftest import FRAME_A, k33_latin_mwg, k4_abc_mwg, random_mwg, unit_graph


def test_coboundary_single_edge_identity():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.eye(2))])
    delta = build_coboundary(G).matrix
    assert delta.shape == (2, 4)
    assert np.allclose(delta, np.hstack([-np.eye(2), np.eye(2)]))


def test_coboundary_single_edge_rank_one():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, FRAME_A)])
    delta = build_coboundary(G).matrix
    assert delta.shape == (1, 4)
    assert np.allclose(np.abs(delta), [[1.0, 0.0, 1.0, 0.0]])
    assert np.allclose(delta[0, :2], -delta[0, 2:])


def test_coboundary_orientation_reversal(rng):
    G = random_mwg(rng)
    default = build_coboundary(G)
    flipped = build_coboundary(G, {e: (e[1], e[0]) for e in G.base.edges})
    assert np.allclose(default.matrix, -flipped.matrix)
    assert np.allclose(default.matrix.T @ default.matrix,
                       flipped.matrix.T @ flipped.matrix)


def test_coboundary_rejects_foreign_orientation():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.eye(2))])
    with pytest.raises(ValueError):
        build_coboundary(G, {(0, 1): (0, 2)})


def test_sqrt_factor_reconstructs_weight(rng):
    from conftest import random_psd
    for _ in range(40):
        k = int(rng.integers(1, 5))
        rank = int(rng.integers(0, k + 1))
        w = random_psd(rng, k, rank) if rank else np.zeros((k, k))
        B = sqrt_factor(w)
        assert B.shape[0] == rank
        assert np.allclose(B.T @ B, w, atol=1e-10 * max(1.0, np.abs(w).max()))


def test_factorization_single_edge_machine_precision():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, FRAME_A)])
    rep = verify_factorization(G)
    assert rep.holds
    assert rep.lhs <= 1e-14


def test_factorization_k4_abc_and_random(rng):
    assert verify_factorization(k4_abc_mwg()).holds
    for _ in range(200):
        assert verify_factorization(random_mwg(rng)).holds


def test_global_sections_connected_identity():
    for k in (1, 2, 3):
        G = lift_identity(unit_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), k)
        basis = global_sections(G)
        assert basis.shape == (4 * k, k)
        # spanned by constant fields 1 (x) e_i: projector comparison
        constants = np.zeros((4 * k, k))
        for i in range(k):
            s = np.zeros(k)
            s[i] = 1.0
            constants[:, i] = np.tile(s, 4) / 2.0
        proj_basis = basis @ basis.T
        proj_const = constants @ constants.T
        assert np.allclose(proj_basis, proj_const, atol=1e-10)


def test_global_sections_two_components():
    for k in (1, 2):
        G = lift_identity(unit_graph(4, [(0, 1), (2, 3)]), k)
        assert global_sections(G).shape[1] == 2 * k


def test_global_sections_counterexample_dimension_four():
    # searched instance standing in for the unavailable figure: K_{3,3} with
    # a Latin-square assignment of the three line projections
    G = k33_latin_mwg()
    assert global_sections(G).shape[1] == 4
    assert kernel_dim(assemble(G).laplacian) == 4


def test_global_sections_rank_deficient_weights():
    # rank-1 weights on a path: ker delta has the vectors constant along
    # each weight's image and free on its kernel, dimension 6 - 2 = 4
    e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 3.0])
    G = MatrixWeightedGraph.from_weights(3, 2, [(0, 1, e1), (1, 2, e2)])
    basis = global_sections(G)
    assert basis.shape == (6, 4)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)
    assert np.allclose(build_coboundary(G).matrix @ basis, 0.0, atol=1e-12)
    assert np.allclose(assemble(G).laplacian @ basis, 0.0, atol=1e-12)
    assert kernel_dim(assemble(G).laplacian) == 4


def test_global_sections_edgeless_is_everything():
    G = MatrixWeightedGraph.from_weights(3, 2, [])
    assert np.array_equal(global_sections(G), np.eye(6))


def test_h0_dim_orientation_independent(rng):
    G = random_mwg(rng)
    base_dim = global_sections(G).shape[1]
    delta = build_coboundary(G, {e: (e[1], e[0]) for e in G.base.edges}).matrix
    sing = np.linalg.svd(delta, compute_uv=False)
    rank = int(np.sum(sing > 1e-10 * max(1.0, sing[0] if sing.size else 0.0)))
    assert delta.shape[1] - rank == base_dim


def test_h0_matches_kernel_dim(rng):
    for _ in range(50):
        G = random_mwg(rng)
        assert global_sections(G).shape[1] == kernel_dim(assemble(G).laplacian)


# --- trusses -----------------------------------------------------------------


def tetrahedron_truss():
    points = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    return Truss.make(points, [(u, v, 1.0) for u, v in itertools.combinations(range(4), 2)])


def test_truss_unit_bar_weight():
    t = Truss.make([[0, 0, 0], [1, 0, 0]], [(0, 1, 1.0)])
    G = truss_to_mwg(t)
    assert G.k == 3
    assert np.allclose(G.weights[(0, 1)], np.diag([1.0, 0.0, 0.0]))


def test_truss_degenerate_edge():
    t = Truss.make([[0, 0, 0], [0, 0, 0]], [(0, 1, 1.0)])
    with pytest.raises(DegenerateEdgeError):
        truss_to_mwg(t)


def test_truss_rejects_nonpositive_stiffness():
    with pytest.raises(ValueError):
        Truss.make([[0, 0, 0], [1, 0, 0]], [(0, 1, 0.0)])


def test_tetrahedron_kernel_exactly_six():
    L = assemble(truss_to_mwg(tetrahedron_truss())).laplacian
    # oracle: direct eigendecomposition
    values = np.linalg.eigvalsh(L)
    assert int(np.sum(values <= 1e-10 * values[-1])) == 6
    assert kernel_dim(L) == 6


def test_single_bar_kernel_five():
    t = Truss.make([[0, 0, 0], [1, 0, 0]], [(0, 1, 1.0)])
    assert kernel_dim(assemble(truss_to_mwg(t)).laplacian) == 5


def test_rigid_motions_tetrahedron_in_kernel():
    t = tetrahedron_truss()
    motions = rigid_motions(t.points)
    assert motions.shape == (12, 6)
    L = assemble(truss_to_mwg(t)).laplacian
    assert np.abs(L @ motions).max() <= 1e-8 * max(1.0, np.linalg.norm(L, 2))
    gram = motions.T @ motions
    assert np.allclose(gram, np.eye(6), atol=1e-10)


def test_rigid_motions_single_point():
    assert rigid_motions([[2.0, 3.0, 4.0]]).shape == (3, 3)


def test_rigid_motions_collinear():
    assert rigid_motions([[0, 0, 0], [1, 0, 0], [2, 0, 0]]).shape == (9, 5)
    # a skew line has the same degeneracy
    pts = np.array([[0.0, 0, 0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    assert rigid_motions(pts).shape == (9, 5)


def test_rigid_motions_in_kernel_generic(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pts = rng.normal(size=(n, 3))
        members = [(u, v, float(rng.uniform(0.5, 2.0)))
                   for u, v in itertools.combinations(range(n), 2)]
        t = Truss.make(pts, members)
        L = assemble(truss_to_mwg(t)).laplacian
        motions = rigid_motions(pts)
        assert np.abs(L @ motions).max() <= 1e-8 * max(1.0, np.linalg.norm(L, 2))


def test_load_truss_roundtrip():
    doc = b'{"points": [[0,0,0],[1,0,0]], "edges": [{"u": 0, "v": 1, "s": 2.5}]}'
    t = load_truss(doc)
    assert t.stiffness[(0, 1)] == 2.5
    assert np.allclose(truss_to_mwg(t).weights[(0, 1)], np.diag([2.5, 0, 0]))


def test_load_truss_errors():
    with pytest.raises(ParseError):
        load_truss(b'{"points": [[0,0],[1,0]], "edges": []}')
    with pytest.raises(ParseError):
        load_truss(b'{"points": [[0,0,0]], "edges": [{"u": 0}]}')
    for data in (b"not json", b"\xff", b"[1]"):
        with pytest.raises(ParseError):
            load_truss(data)
