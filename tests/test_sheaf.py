import itertools
import json
import tracemalloc

import numpy as np
import pytest

from mwgraph.errors import (DegenerateEdgeError, IndexOutOfRangeError, NotPsdError,
                            NotSymmetricError, ParseError, TooLargeError)
from mwgraph.graphs import LOAD_MAX_NK, MatrixWeightedGraph, lift_identity
from mwgraph.linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_symmetric,
    kernel_dim,
    kernel_dim_of_values,
    spectral_norm,
)
from mwgraph.operators import BoundReport, assemble
from mwgraph.sheaf import (
    Truss,
    build_coboundary,
    load_truss,
    rigid_motions,
    sheaf_analysis,
    sqrt_factor,
    truss_rigidity,
    truss_to_mwg,
)

from conftest import (
    FRAME_A,
    block_corpus_items,
    complete_graph,
    count_calls,
    k33_latin_mwg,
    k4_abc_mwg,
    random_mwg,
    random_psd,
    reference_sqrt_factor,
    unit_graph,
)


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


def test_coboundary_factors_stored_weights_as_sqrt_factor(rng, monkeypatch):
    from mwgraph import linalg, sheaf
    graphs = [k4_abc_mwg(), k33_latin_mwg()] + [random_mwg(rng) for _ in range(20)]
    expected = [{e: sqrt_factor(w) for e, w in G.weights.items()} for G in graphs]
    sym = count_calls(monkeypatch, "as_symmetric", linalg, sheaf)
    for G, factors in zip(graphs, expected):
        cob = build_coboundary(G)
        for e, B in factors.items():
            assert cob.factors[e].shape == B.shape
            assert cob.factors[e].tobytes() == B.tobytes()
    assert sym == []
    # the public entry still validates what it is given
    with pytest.raises(NotSymmetricError):
        sqrt_factor(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_factorization_single_edge_machine_precision():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, FRAME_A)])
    rep = sheaf_analysis(assemble(G))[0]
    assert rep.holds
    assert rep.lhs <= 1e-14


def test_factorization_k4_abc_and_random(rng):
    assert sheaf_analysis(assemble(k4_abc_mwg()))[0].holds
    for _ in range(200):
        assert sheaf_analysis(assemble(random_mwg(rng)))[0].holds


def test_global_sections_connected_identity():
    for k in (1, 2, 3):
        G = lift_identity(unit_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), k)
        basis = sheaf_analysis(assemble(G))[1]
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
        assert sheaf_analysis(assemble(G))[1].shape[1] == 2 * k


def test_global_sections_counterexample_dimension_four():
    # searched instance standing in for the unavailable figure: K_{3,3} with
    # a Latin-square assignment of the three line projections
    G = k33_latin_mwg()
    assert sheaf_analysis(assemble(G))[1].shape[1] == 4
    assert kernel_dim(assemble(G).laplacian) == 4


def test_global_sections_rank_deficient_weights():
    # rank-1 weights on a path: ker delta has the vectors constant along
    # each weight's image and free on its kernel, dimension 6 - 2 = 4
    e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 3.0])
    G = MatrixWeightedGraph.from_weights(3, 2, [(0, 1, e1), (1, 2, e2)])
    basis = sheaf_analysis(assemble(G))[1]
    assert basis.shape == (6, 4)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)
    assert np.allclose(build_coboundary(G).matrix @ basis, 0.0, atol=1e-12)
    assert np.allclose(assemble(G).laplacian @ basis, 0.0, atol=1e-12)
    assert kernel_dim(assemble(G).laplacian) == 4


def test_global_sections_edgeless_is_everything():
    G = MatrixWeightedGraph.from_weights(3, 2, [])
    assert np.array_equal(sheaf_analysis(assemble(G))[1], np.eye(6))


def test_h0_dim_orientation_independent(rng):
    G = random_mwg(rng)
    base_dim = sheaf_analysis(assemble(G))[1].shape[1]
    delta = build_coboundary(G, {e: (e[1], e[0]) for e in G.base.edges}).matrix
    sing = np.linalg.svd(delta, compute_uv=False)
    rank = int(np.sum(sing > 1e-10 * max(1.0, sing[0] if sing.size else 0.0)))
    assert delta.shape[1] - rank == base_dim


def test_h0_matches_kernel_dim(rng):
    for _ in range(50):
        G = random_mwg(rng)
        assert sheaf_analysis(assemble(G))[1].shape[1] == kernel_dim(assemble(G).laplacian)


def reference_sheaf(G, tol=DEFAULT_TOL):
    """The factorization check, the global sections and kernel_dim(L) as three
    separate passes, each assembling or building what it needs, as they ran
    before sheaf_analysis shared one pass between them."""
    L = assemble(G, tol).laplacian
    delta = build_coboundary(G, tol=tol).matrix
    err = spectral_norm(delta.T @ delta - L)
    bound = tol.resid_tol * max(1.0, spectral_norm(L))
    report = BoundReport.simple("sheaf_factorization", err, bound, check_tol=0.0,
                                laplacian_norm=spectral_norm(L))
    delta = build_coboundary(G, tol=tol).matrix
    if delta.shape[0] == 0:
        basis = np.eye(delta.shape[1])
    else:
        _, sigma, vt = np.linalg.svd(delta)
        basis = vt[sigma.size - kernel_dim_of_values(sigma[::-1] ** 2, tol):].T
    sym = as_symmetric(assemble(G, tol).laplacian, tol)
    again = as_symmetric(sym, tol)
    if again.size:
        values = np.linalg.eigvalsh(again)
        norm = max(abs(float(values[0])), abs(float(values[-1])))
        if float(values[0]) < -tol.psd_tol * max(1.0, norm):
            raise NotPsdError("kernel_dim requires a PSD matrix")
    kdim = kernel_dim_of_values(np.linalg.eigvalsh(sym), tol) if sym.size else 0
    return report, basis, kdim


def _sheaf_corpus(rng):
    """Random graphs (rank-deficient weights included), edgeless and
    isolated-vertex graphs, scaled copies and the frame fixtures."""
    yield k4_abc_mwg()
    yield k33_latin_mwg()
    for n, k in ((1, 1), (3, 2), (4, 3)):
        yield MatrixWeightedGraph.from_weights(n, k, [])
    yield MatrixWeightedGraph.from_weights(5, 2, [(0, 1, FRAME_A), (1, 2, random_psd(rng, 2, 1))])
    # a weak link whose sigma^2 lies under the cutoff relative to sigma_max^2
    # but above the same cutoff relative to 1
    yield MatrixWeightedGraph.from_weights(3, 2, [(0, 1, 1e6 * np.eye(2)), (1, 2, 1e-5 * np.eye(2))])
    for _ in range(60):
        G = random_mwg(rng)
        yield G
        scale = 10.0 ** float(rng.integers(-11, 12))
        yield MatrixWeightedGraph.from_weights(
            G.base.n, G.k, [(u, v, scale * w) for (u, v), w in G.weights.items()])


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(resid_tol=1e-9),
                                 Tolerances(psd_tol=1e-30), Tolerances(psd_tol=0.0)])
def test_sheaf_analysis_matches_three_pass_reference(rng, tol):
    raised = 0
    for G in _sheaf_corpus(rng):
        try:
            expected = reference_sheaf(G, tol)
        except NotPsdError as exc:
            raised += 1
            with pytest.raises(NotPsdError, match=str(exc)):
                sheaf_analysis(assemble(G, tol))
            continue
        report, basis, kdim = sheaf_analysis(assemble(G, tol))
        assert report.to_jsonable() == expected[0].to_jsonable()
        assert basis.shape == expected[1].shape
        assert basis.tobytes() == expected[1].tobytes()
        assert kdim == expected[2]
    assert (raised > 0) == (tol.psd_tol < 1e-20)


def test_sheaf_analysis_builds_once(monkeypatch):
    from mwgraph import linalg, operators, sheaf
    G = k33_latin_mwg()
    assembled = count_calls(monkeypatch, "assemble", operators, sheaf)
    built = count_calls(monkeypatch, "build_coboundary", sheaf)
    # the bundle's factorization quantity takes both norms of a stack of one
    norms = count_calls(monkeypatch, "_spectral_norms", sheaf)
    solves = count_calls(monkeypatch, "eigvalsh", np.linalg)
    sym = count_calls(monkeypatch, "as_symmetric", linalg, sheaf)
    sheaf_analysis(operators.assemble(G))
    # kernel_dim(L) reads the bundle's laplacian_values: L is assembled
    # exactly symmetric, so it needs no as_symmetric
    assert (len(assembled), len(built), len(norms), len(solves), len(sym)) == (1, 1, 2, 1, 0)


def test_global_sections_never_form_the_rows_by_rows_u():
    # K_60 with k = 1 has 1,770 coboundary rows and nk = 60: the full U of
    # its SVD is 1,770 x 1,770 (25 MB), and the analysis peaked at 24.9 MiB
    # while it formed one.  Its thin U and delta are 0.8 MB each
    ops = assemble(complete_graph(60))
    tracemalloc.start()
    try:
        report, sections, kdim = sheaf_analysis(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and sections.shape == (60, 1) and kdim == 1
    assert peak < 4 * 2 ** 20


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


@pytest.mark.parametrize("u, v", [(0, 2), (-1, 0), (0, -2)])
def test_truss_rejects_endpoint_out_of_range(u, v):
    # a negative endpoint would index the points from the end
    with pytest.raises(IndexOutOfRangeError, match=r"outside joint range \[0, 2\)"):
        Truss.make([[0, 0, 0], [1, 0, 0]], [(u, v, 1.0)])


def test_truss_size_limit():
    # 3n = 4,095 is the largest stiffness matrix allowed; no operator is formed here
    assert 3 * 1365 <= LOAD_MAX_NK < 3 * 1366
    assert len(Truss.make(np.zeros((1365, 3)), []).points) == 1365
    with pytest.raises(TooLargeError, match="3n = 4098 exceeds the limit of 4096"):
        Truss.make(np.zeros((1366, 3)), [])


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


def test_truss_rigidity_matches_its_parts():
    t = tetrahedron_truss()
    kdim, motions, residual = truss_rigidity(t)
    L = assemble(truss_to_mwg(t)).laplacian
    assert kdim == kernel_dim(L) == 6
    assert motions.tobytes() == rigid_motions(t.points).tobytes()
    assert residual == float(np.abs(L @ motions).max()) / max(1.0, np.linalg.norm(L, 2))
    # a truss with no joints has no motions, and its residual reads 0.0
    kdim, motions, residual = truss_rigidity(Truss.make(np.zeros((0, 3)), []))
    assert (kdim, motions.size, residual) == (0, 0, 0.0)


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


@pytest.mark.parametrize("points, edge", [
    ([[0, 0, 0], [1, 0, 0]], {"u": 0.9, "v": 1, "s": 1.0}),  # read as 0 by truncation
    ([[0, 0, 0], [1, 0, 0]], {"u": 0, "v": True, "s": 1.0}),
    ([[0, 0, 0], [1, 0, 0]], {"u": "0", "v": 1, "s": 1.0}),
    ([[0, 0, 0], [1, 0, 0]], {"u": 0, "v": 1, "s": "2.5"}),
    ([[0, 0, 0], [1, "0", 0]], {"u": 0, "v": 1, "s": 1.0}),
    ([[0, 0, 0], [1, 0, False]], {"u": 0, "v": 1, "s": 1.0}),
])
def test_load_truss_accepts_only_integer_joints_and_numeric_values(points, edge):
    with pytest.raises(ParseError, match="must be a JSON"):
        load_truss(json.dumps({"points": points, "edges": [edge]}))


def test_coboundary_factors_bitwise_per_edge_reference(rng):
    for n, k, items in block_corpus_items(rng):
        G = MatrixWeightedGraph.from_weights(n, k, items)
        cob = build_coboundary(G)
        assert list(cob.factors) == list(G.base.edges)
        for e, w in G.weights.items():
            B = reference_sqrt_factor(w, DEFAULT_TOL)
            assert cob.factors[e].shape == B.shape
            assert cob.factors[e].tobytes() == B.tobytes()
            assert sqrt_factor(w).tobytes() == B.tobytes()
        assert cob.matrix.shape == (sum(f.shape[0] for f in cob.factors.values()), n * k)


def test_coboundary_one_solve_per_graph(monkeypatch):
    solves = count_calls(monkeypatch, "eigh", np.linalg)
    build_coboundary(k33_latin_mwg())
    assert len(solves) == 1
