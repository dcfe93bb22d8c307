import itertools
import json
import tracemalloc

import numpy as np
import pytest

from mwgraph.acceptance import Suite
from mwgraph.errors import (DegenerateEdgeError, DimMismatchError, IndexOutOfRangeError,
                            NonFiniteError, NotPsdError, NotSymmetricError, ParseError,
                            TooLargeError)
from mwgraph.graphs import LOAD_MAX_NK, MatrixWeightedGraph, _degree_sums, lift_identity
from mwgraph.linalg import (
    DEFAULT_TOL,
    Tolerances,
    kernel_dim_of_values,
    spectral_norm,
    zero_cutoff,
)
from mwgraph.operators import _group_edges, _laplacians, assemble, solve_stacked
from mwgraph.sheaf import (
    Truss,
    _factored_weights,
    global_sections,
    load_truss,
    rigid_motions,
    sheaf_analysis,
    sheaf_check,
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
    reference_coboundary,
    reference_h0_dim,
    reference_sqrt_factor,
    unit_graph,
)

EPS = np.finfo(float).eps


def reversed_edges(G):
    return {e: (e[1], e[0]) for e in G.base.edges}


def test_coboundary_single_edge_identity():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.eye(2))])
    delta = reference_coboundary(G)
    assert delta.shape == (2, 4)
    assert np.allclose(delta, np.hstack([-np.eye(2), np.eye(2)]))


def test_coboundary_single_edge_rank_one():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, FRAME_A)])
    delta = reference_coboundary(G)
    assert delta.shape == (1, 4)
    assert np.allclose(np.abs(delta), [[1.0, 0.0, 1.0, 0.0]])
    assert np.allclose(delta[0, :2], -delta[0, 2:])


def test_coboundary_orientation_reversal(rng):
    # reversing every edge negates delta and keeps its Gram matrix, the L
    # of the factored weights that the sheaf check reads
    G = random_mwg(rng)
    default = reference_coboundary(G)
    flipped = reference_coboundary(G, reversed_edges(G))
    assert np.array_equal(default, -flipped)
    assert np.allclose(default.T @ default, flipped.T @ flipped)
    assert np.allclose(default.T @ default, assemble(G).laplacian)


def test_sqrt_factor_reconstructs_weight(rng):
    for _ in range(40):
        k = int(rng.integers(1, 5))
        rank = int(rng.integers(0, k + 1))
        w = random_psd(rng, k, rank) if rank else np.zeros((k, k))
        B = sqrt_factor(w)
        assert B.shape[0] == rank
        assert np.allclose(B.T @ B, w, atol=1e-10 * max(1.0, np.abs(w).max()))


def test_sqrt_factor_rejects_an_indefinite_matrix():
    # B^T B of the kept eigenpairs would be diag(1, 0), not W
    with pytest.raises(NotPsdError, match="^sqrt_factor requires a PSD matrix$"):
        sqrt_factor(np.diag([1.0, -1.0]))
    # within the PSD floor, a negative eigenvalue is rounding and dropped
    assert np.array_equal(sqrt_factor(np.diag([1.0, -1e-12])), [[1.0, 0.0]])


def test_coboundary_factors_stored_weights_as_sqrt_factor(rng, monkeypatch):
    # the sheaf check's factored weights are B^T B for the sqrt_factor B of
    # each stored weight, exactly symmetric, and nothing is symmetrized again
    from mwgraph import linalg, sheaf
    graphs = [k4_abc_mwg(), k33_latin_mwg()] + [random_mwg(rng) for _ in range(20)]
    expected = [[sqrt_factor(w) for w in G.weight_stack] for G in graphs]
    sym = count_calls(monkeypatch, "as_symmetric", linalg, sheaf)
    for G, factors in zip(graphs, expected):
        factored = _factored_weights(G.weight_stack, DEFAULT_TOL)
        for w_hat, B, w in zip(factored, factors, G.weight_stack):
            assert np.array_equal(w_hat, w_hat.T)
            assert np.abs(w_hat - B.T @ B).max() <= 64 * EPS * np.abs(w).max()
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
        basis = global_sections(assemble(G))
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
        assert sheaf_analysis(assemble(G))[1] == 2 * k
        assert global_sections(assemble(G)).shape == (4 * k, 2 * k)


def test_global_sections_counterexample_dimension_four():
    # searched instance standing in for the unavailable figure: K_{3,3} with
    # a Latin-square assignment of the three line projections
    G = k33_latin_mwg()
    assert sheaf_analysis(assemble(G))[1] == 4
    assert global_sections(assemble(G)).shape == (12, 4)
    assert kernel_dim_of_values(np.linalg.eigvalsh(assemble(G).laplacian)) == 4


def test_global_sections_rank_deficient_weights():
    # rank-1 weights on a path: ker delta has the vectors constant along
    # each weight's image and free on its kernel, dimension 6 - 2 = 4
    e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 3.0])
    G = MatrixWeightedGraph.from_weights(3, 2, [(0, 1, e1), (1, 2, e2)])
    assert sheaf_analysis(assemble(G))[1] == 4
    basis = global_sections(assemble(G))
    assert basis.shape == (6, 4)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)
    assert np.allclose(reference_coboundary(G) @ basis, 0.0, atol=1e-12)
    assert np.allclose(assemble(G).laplacian @ basis, 0.0, atol=1e-12)
    assert kernel_dim_of_values(np.linalg.eigvalsh(assemble(G).laplacian)) == 4


def test_global_sections_edgeless_is_everything():
    G = MatrixWeightedGraph.from_weights(3, 2, [])
    assert sheaf_analysis(assemble(G))[1] == 6
    assert np.array_equal(global_sections(assemble(G)), np.eye(6))


def test_h0_dim_orientation_independent(rng):
    G = random_mwg(rng)
    base_dim = sheaf_analysis(assemble(G))[1]
    assert reference_h0_dim(reference_coboundary(G, reversed_edges(G))) == base_dim


def test_h0_matches_kernel_dim(rng):
    for _ in range(50):
        G = random_mwg(rng)
        L = assemble(G).laplacian
        assert sheaf_analysis(assemble(G))[1] == kernel_dim_of_values(np.linalg.eigvalsh(L))


def reference_sheaf(G, tol=DEFAULT_TOL):
    """From the dense coboundary delta: ||delta^T delta - L||_2, whether it is
    within the allowance at ||L||, dim ker delta from delta's singular values
    and dim ker L, PSD check included, from eigvalsh of L."""
    L = assemble(G, tol).laplacian
    delta = reference_coboundary(G, tol=tol)
    err = spectral_norm(delta.T @ delta - L)
    values = np.linalg.eigvalsh(L) if L.size else np.zeros(0)
    norm = max(abs(float(values[0])), abs(float(values[-1]))) if values.size else 0.0
    if values.size and float(values[0]) < -tol.psd_tol * max(1.0, norm):
        raise NotPsdError("kernel_dim requires a PSD matrix")
    kdim = int(np.sum(values <= zero_cutoff(float(values[-1]), tol))) if values.size else 0
    holds = err <= tol.resid_tol * max(1.0, norm)
    return err, holds, reference_h0_dim(delta, tol), kdim


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
    # a weight whose small eigenvalue lies under the keep cutoff: its factor
    # drops it, so delta^T delta differs from L by 1e-11, well above rounding
    yield MatrixWeightedGraph.from_weights(3, 2, [(0, 1, np.diag([1.0, 1e-11])), (1, 2, np.eye(2))])
    for _ in range(60):
        G = random_mwg(rng)
        yield G
        scale = 10.0 ** float(rng.integers(-11, 12))
        yield MatrixWeightedGraph.from_weights(
            G.base.n, G.k, [(u, v, scale * w) for (u, v), w in zip(G.base.edges, G.weight_stack)])


# the Gram route's residual ||G_hat - L|| and the dense ||delta^T delta - L||
# are both rounding; they differ by at most this many ulps of ||L||
RESIDUAL_GAP = 16 * EPS


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(resid_tol=1e-9),
                                 Tolerances(psd_tol=1e-30), Tolerances(psd_tol=0.0)])
def test_sheaf_analysis_matches_three_pass_reference(rng, tol):
    raised = 0
    for G in _sheaf_corpus(rng):
        try:
            err, holds, h0, kdim = reference_sheaf(G, tol)
        except NotPsdError as exc:
            raised += 1
            with pytest.raises(NotPsdError, match=str(exc)):
                sheaf_analysis(assemble(G, tol))
            continue
        ops = assemble(G, tol)
        report, got_h0, got_kdim = sheaf_analysis(ops)
        assert (report.holds, got_h0, got_kdim) == (holds, h0, kdim)
        # orthonormal sections that delta maps to zero
        nk = G.base.n * G.k
        sections = global_sections(ops)
        assert sections.shape == (nk, h0)
        assert np.abs(sections.T @ sections - np.eye(h0)).max(initial=0.0) <= 8 * nk * EPS
        delta = reference_coboundary(G, tol=tol)
        top = np.linalg.norm(delta, 2) ** 2 if delta.size else 0.0
        image = np.linalg.norm(delta @ sections, 2) ** 2 if delta.size and h0 else 0.0
        assert image <= zero_cutoff(top, tol)
        norm = report.context["laplacian_norm"]
        assert abs(report.lhs - err) <= RESIDUAL_GAP * norm
        # orientation keeps H^0
        assert reference_h0_dim(reference_coboundary(G, reversed_edges(G), tol), tol) == h0
    assert (raised > 0) == (tol.psd_tol < 1e-20)


def test_sheaf_analysis_builds_once(monkeypatch):
    from mwgraph import linalg, operators, sheaf
    G = k33_latin_mwg()
    assembled = count_calls(monkeypatch, "assemble", operators, sheaf)
    # the bundle's sheaf check takes one eigh of the edge weights and one
    # eigvalsh each of the Gram matrix and of its residual from L, each of a
    # stack of one; ||L|| is read off the bundle's laplacian_values, the
    # third eigvalsh
    norms = count_calls(monkeypatch, "norm", np.linalg)
    factors = count_calls(monkeypatch, "eigh", np.linalg)
    solves = count_calls(monkeypatch, "eigvalsh", np.linalg)
    svds = count_calls(monkeypatch, "svd", np.linalg)
    sym = count_calls(monkeypatch, "as_symmetric", linalg, sheaf)
    sheaf_analysis(operators.assemble(G))
    # dim ker L is read off the bundle's laplacian_values: L is assembled
    # exactly symmetric, so it needs no as_symmetric
    assert (len(assembled), len(norms), len(factors), len(solves), len(svds),
            len(sym)) == (1, 0, 1, 3, 0, 0)


def test_global_sections_peak_at_a_few_operators():
    # K_60 with k = 1 has 1,770 edges and nk = 60: the check holds a few
    # 60 x 60 matrices, never a 1,770-row coboundary or its 1,770 x 1,770
    # left singular vectors (25 MB)
    ops = assemble(complete_graph(60))
    tracemalloc.start()
    try:
        report, h0, kdim = sheaf_analysis(ops)
        sections = global_sections(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and h0 == kdim == 1 and sections.shape == (60, 1)
    assert peak < 4 * 2 ** 20


def test_sheaf_check_one_eigh_per_shape_group(rng, monkeypatch):
    # a group of bundles of one shape: one eigh of all their edge weights,
    # one eigvalsh of all their Gram matrices and one of all their
    # residuals, no SVD, each member with the bits of its own read
    graphs = [random_mwg(rng, n_max=5, k_max=2) for _ in range(40)]
    shape = (graphs[0].base.n, graphs[0].k)
    group = [G for G in graphs if (G.base.n, G.k) == shape]
    assert len(group) > 1
    bundles = [assemble(G) for G in group]
    with monkeypatch.context() as mp:
        solves = count_calls(mp, "eigh", np.linalg)
        counts = count_calls(mp, "eigvalsh", np.linalg)
        svds = count_calls(mp, "svd", np.linalg)
        norms = count_calls(mp, "norm", np.linalg)
        solve_stacked(bundles, [sheaf_check])
    assert (len(solves), len(counts), len(svds), len(norms)) == (1, 2, 0, 0)
    for G, ops in zip(group, bundles):
        assert sheaf_check.of(ops) == sheaf_check.of(assemble(G))


def test_sheaf_sections_keep_no_view_of_the_groups_eigenvectors(rng):
    # the sections are columns of an (nk, nk) eigh output: a basis that
    # viewed it would keep all nk eigenvectors alive
    graphs = [random_mwg(rng, n_max=5, k_max=2) for _ in range(40)]
    shape = (graphs[0].base.n, graphs[0].k)
    bundles = [assemble(G) for G in graphs if (G.base.n, G.k) == shape]
    assert len(bundles) > 1
    solve_stacked(bundles, [sheaf_check])
    for ops in bundles:
        sections = global_sections(ops)
        assert sections.base is None and sections.flags.owndata
        assert sections.shape == (ops.n * ops.k, sheaf_check.of(ops)[1])


def test_global_sections_are_the_stacked_checks_sections(rng):
    # the basis the sheaf check once solved for every bundle: the first
    # dim H^0 eigenvectors of the Gram stack of one, from one eigh, the
    # count taken from its eigvalsh
    for G in _sheaf_corpus(rng):
        ops = assemble(G)
        ends, weights = _group_edges([ops])
        factored = _factored_weights(weights, DEFAULT_TOL)
        grams = _laplacians(_degree_sums(G.base.n, ends, factored)[None], ends, factored)
        h0 = kernel_dim_of_values(np.maximum(np.linalg.eigvalsh(grams[0]), 0.0))
        expected = np.linalg.eigh(grams)[1][0, :, :h0]
        assert global_sections(ops).tobytes() == expected.tobytes()


def test_h0_counts_as_kernel_dim_at_a_tiny_rank_tolerance():
    # at rank_rel_tol = 1e-15 the zero cutoff lies within a few ulps of
    # rounding: counted on eigh's eigenvalues of delta^T delta, dim H^0
    # differed from dim ker L on 2 members of the seed-0 and seed-1
    # corpora; counted on eigvalsh's, as dim ker L is, on none
    tol = Tolerances(rank_rel_tol=1e-15)
    mismatched = []
    for i, (_, G) in enumerate(Suite(seed=0).corpus()):
        _, h0, kdim = sheaf_analysis(assemble(G, tol))
        if h0 != kdim:
            mismatched.append((i, h0, kdim))
    assert i + 1 == 1626 and mismatched == []


# --- trusses -----------------------------------------------------------------


def tetrahedron_truss():
    points = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    return Truss.make(points, [(u, v, 1.0) for u, v in itertools.combinations(range(4), 2)])


def test_truss_unit_bar_weight():
    t = Truss.make([[0, 0, 0], [1, 0, 0]], [(0, 1, 1.0)])
    G = truss_to_mwg(t)
    assert G.k == 3
    assert np.allclose(G.weight(0, 1), np.diag([1.0, 0.0, 0.0]))


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


@pytest.mark.parametrize("points, members", [
    ([[0, 0, 0], [1, 0]], []),
    # the points are checked before any member
    ([[0, 0, 0], [1, 0]], [(0, 5, 1.0)]),
])
def test_truss_rejects_ragged_points(points, members):
    with pytest.raises(DimMismatchError) as err:
        Truss.make(points, members)
    assert type(err.value) is DimMismatchError
    assert str(err.value) == "points must be an (n, 3) array of numbers"


def test_truss_size_limit():
    # 3n = 4,095 is the largest stiffness matrix allowed; no operator is formed here
    assert 3 * 1365 <= LOAD_MAX_NK < 3 * 1366
    assert len(Truss.make(np.zeros((1365, 3)), []).points) == 1365
    with pytest.raises(TooLargeError, match="3n = 4098 exceeds the limit of 4096"):
        Truss.make(np.zeros((1366, 3)), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_truss_rejects_non_finite_points(bad):
    with pytest.raises(NonFiniteError, match="^points contain NaN or Inf coordinates$"):
        Truss.make([[bad, 0.0, 0.0], [1.0, 0.0, 0.0]], [(0, 1, 1.0)])


def test_tetrahedron_kernel_exactly_six():
    L = assemble(truss_to_mwg(tetrahedron_truss())).laplacian
    # oracle: direct eigendecomposition
    values = np.linalg.eigvalsh(L)
    assert int(np.sum(values <= 1e-10 * values[-1])) == 6
    assert kernel_dim_of_values(values) == 6


def test_single_bar_kernel_five():
    t = Truss.make([[0, 0, 0], [1, 0, 0]], [(0, 1, 1.0)])
    L = assemble(truss_to_mwg(t)).laplacian
    assert kernel_dim_of_values(np.linalg.eigvalsh(L)) == 5


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
    values = np.linalg.eigvalsh(L)
    assert kdim == kernel_dim_of_values(values) == 6
    assert motions.tobytes() == rigid_motions(t.points).tobytes()
    norm = max(abs(float(values[0])), abs(float(values[-1])))
    assert residual == float(np.abs(L @ motions).max()) / max(1.0, norm)
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
    assert np.allclose(truss_to_mwg(t).weight(0, 1), np.diag([2.5, 0, 0]))


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
    # a graph's factored weights from one stacked eigh have the bits of
    # each weight's own; sqrt_factor has the per-edge reference's
    for n, k, items in block_corpus_items(rng):
        G = MatrixWeightedGraph.from_weights(n, k, items)
        factored = _factored_weights(G.weight_stack, DEFAULT_TOL)
        assert factored.shape == (len(G.base.edges), k, k)
        for w_hat, w in zip(factored, G.weight_stack):
            assert w_hat.tobytes() == _factored_weights(w[None], DEFAULT_TOL)[0].tobytes()
            B = reference_sqrt_factor(w, DEFAULT_TOL)
            assert sqrt_factor(w).shape == B.shape
            assert sqrt_factor(w).tobytes() == B.tobytes()


def test_coboundary_one_solve_per_graph(monkeypatch):
    solves = count_calls(monkeypatch, "eigh", np.linalg)
    _factored_weights(k33_latin_mwg().weight_stack, DEFAULT_TOL)
    assert len(solves) == 1
