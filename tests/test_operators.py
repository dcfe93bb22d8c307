import itertools

import numpy as np
import pytest

from mwgraph.acceptance import Suite
from mwgraph.errors import NonFiniteError, SingularVolumeError
from mwgraph.expansion import irregular_context
from mwgraph.graphs import MatrixWeightedGraph, Regularity, all_degrees, lift_identity
from mwgraph.linalg import DEFAULT_TOL, Tolerances, kernel_dim
from mwgraph.operators import (
    BoundReport,
    assemble,
    check_adjacency_trace_bounds,
    check_laplacian_trace_bounds,
    check_normalized_bound,
)

from conftest import (
    FRAME_B,
    block_corpus_items,
    complete_graph,
    count_calls,
    cycle_graph,
    k33_latin_mwg,
    k4_abc_mwg,
    random_mwg,
    reference_normalized,
    reference_trace_adjacency,
    unit_graph,
)


def test_bound_report_simple():
    rep = BoundReport.simple("x", 1.0, 2.0)
    assert rep.holds and rep.slack == 1.0
    rep = BoundReport.simple("x", 2.0, 1.0)
    assert not rep.holds and rep.slack == -1.0
    assert BoundReport.simple("x", 1.0, 1.0 - 1e-9).holds  # within check_tol


def test_bound_report_chain():
    rep = BoundReport.chain("c", [(0.0, 1.0), (1.0, 0.5)])
    assert rep.slack == -0.5 and not rep.holds
    assert BoundReport.chain("c", []).holds


def test_assemble_single_edge_blocks():
    W = FRAME_B
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, W)])
    b = assemble(G)
    assert b.graph is G
    assert np.allclose(b.adjacency, np.block([[np.zeros((2, 2)), W], [W, np.zeros((2, 2))]]))
    assert np.allclose(b.laplacian, np.block([[W, -W], [-W, W]]))
    assert np.allclose(b.degree, np.block([[W, np.zeros((2, 2))], [np.zeros((2, 2)), W]]))


def test_assemble_empty_graph():
    G = MatrixWeightedGraph.from_weights(3, 2, [])
    b = assemble(G)
    for op in (b.adjacency, b.laplacian, b.degree, b.lap_normalized, b.adj_normalized):
        assert not np.any(op)


def test_assemble_forms_normalized_operators_on_demand(monkeypatch):
    from mwgraph import operators

    calls = count_calls(monkeypatch, "_pseudo_sqrt_inv", operators)
    G = k4_abc_mwg()
    b = assemble(G)
    assert b.adjacency.shape == b.laplacian.shape == b.degree.shape == (8, 8)
    assert calls == []
    lam = np.linalg.eigvalsh(b.lap_normalized)
    mu = np.linalg.eigvalsh(b.adj_normalized)
    assert len(calls) == 1  # every D_v^(+/2) in one stacked call, shared by both operators
    # D = 1.5 I, so the normalized operators are L / 1.5 and A / 1.5
    assert np.allclose(lam, np.linalg.eigvalsh(b.laplacian) / 1.5, atol=1e-12)
    assert np.allclose(mu, np.linalg.eigvalsh(b.adjacency) / 1.5, atol=1e-12)


def test_assemble_identity_lift_is_kronecker(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        edges = [(u, v, [[float(rng.uniform(0.1, 2.0))]])
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.7]
        if not edges:
            continue
        g = MatrixWeightedGraph.from_weights(n, 1, edges)
        L_scalar = assemble(g).laplacian
        for k in (1, 2, 3):
            G = lift_identity(g, k)
            assert np.allclose(assemble(G).laplacian, np.kron(L_scalar, np.eye(k)),
                               atol=1e-12)


def test_laplacian_spectrum_single_edge_frame_b():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, FRAME_B)])
    values = assemble(G).laplacian_values
    assert np.allclose(values, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_laplacian_spectrum_k3_lift():
    G = lift_identity(complete_graph(3), 2)
    values = assemble(G).laplacian_values
    assert np.allclose(values, [0, 0, 3, 3, 3, 3], atol=1e-12)


def test_connected_identity_weighted_kernel_is_k(rng):
    for k in (1, 2, 3):
        G = lift_identity(cycle_graph(5), k)
        values = assemble(G).laplacian_values
        assert np.allclose(values[:k], 0.0, atol=1e-10)
        assert values[k] > 0.1


def test_adjacency_spectrum_descending(rng):
    G = random_mwg(rng)
    values = assemble(G).adjacency_values[::-1]
    assert np.all(np.diff(values) <= 1e-12)


def test_regular_adjacency_reversal(rng):
    # mu_i = d - lambda_i for dI-regular graphs
    for k in (1, 2):
        G = lift_identity(complete_graph(4), k)
        reg = assemble(G).regularity
        lam = assemble(G).laplacian_values
        mu = assemble(G).adjacency_values[::-1]
        assert np.allclose(mu, reg.scalar_degree - lam, atol=1e-10)
        assert np.all(np.abs(mu) <= reg.scalar_degree + 1e-10)


def test_normalized_adjacency_complements_laplacian(rng):
    # A~ = I - L~ whenever every degree matrix is invertible
    for _ in range(20):
        G = random_mwg(rng, k_max=2)
        b = assemble(G)
        degs = [b.degree[v * G.k:(v + 1) * G.k, v * G.k:(v + 1) * G.k]
                for v in range(G.base.n)]
        if any(np.linalg.eigvalsh(d)[0] < 1e-8 for d in degs):
            continue
        identity = np.eye(G.k * G.base.n)
        assert np.allclose(b.adj_normalized, identity - b.lap_normalized, atol=1e-8)


def test_normalized_bound_attained_on_bipartite():
    G = lift_identity(unit_graph(2, [(0, 1)]), 2)
    rep = check_normalized_bound(assemble(G))
    assert rep.holds and rep.context["attained"]
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)


def test_normalized_bound_triangle():
    rep = check_normalized_bound(assemble(lift_identity(complete_graph(3), 1)))
    assert rep.lhs == pytest.approx(1.5, abs=1e-12)
    assert rep.holds and not rep.context["attained"]


def test_normalized_bound_random_suite(rng):
    for _ in range(200):
        G = random_mwg(rng)
        rep = check_normalized_bound(assemble(G))
        assert rep.holds
        values = np.linalg.eigvalsh(assemble(G).lap_normalized)
        assert values[0] >= -DEFAULT_TOL.resid_tol
        assert values[-1] <= 2.0 + DEFAULT_TOL.resid_tol


def test_laplacian_trace_bounds_k3_lift_equality():
    G = lift_identity(complete_graph(3), 2)
    rep = check_laplacian_trace_bounds(assemble(G))
    assert rep.holds
    # trace weights are 2 per edge, so L_tr = 2 L_K3 with lambda_2 = 6
    assert rep.context["sum_low"] == pytest.approx(6.0, abs=1e-12)
    assert rep.context["lambda2_trace"] == pytest.approx(6.0, abs=1e-12)
    assert rep.context["sum_high"] == pytest.approx(6.0, abs=1e-12)


def test_trace_bounds_single_edge_frame_b():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, FRAME_B)])
    lap = check_laplacian_trace_bounds(assemble(G))
    assert lap.holds
    assert lap.context["sum_low"] == pytest.approx(2.0, abs=1e-12)
    assert lap.context["lambda2_trace"] == pytest.approx(2.0, abs=1e-12)
    adj = check_adjacency_trace_bounds(assemble(G))
    assert adj.holds
    assert adj.context["sum_top"] == pytest.approx(1.0, abs=1e-12)
    assert adj.context["mu1_trace"] == pytest.approx(1.0, abs=1e-12)
    assert adj.context["mun_trace"] == pytest.approx(-1.0, abs=1e-12)
    assert adj.context["sum_bottom"] == pytest.approx(-1.0, abs=1e-12)


def test_trace_bounds_random_suite(rng):
    for _ in range(300):
        G = random_mwg(rng)
        assert check_laplacian_trace_bounds(assemble(G)).holds
        assert check_adjacency_trace_bounds(assemble(G)).holds


def test_adjacency_trace_equality_on_lifts(rng):
    for _ in range(20):
        G = random_mwg(rng, k_max=1)
        lifted = lift_identity(G, 2)
        rep = check_adjacency_trace_bounds(assemble(lifted))
        assert rep.holds
        assert rep.context["sum_top"] == pytest.approx(rep.context["mu1_trace"], abs=1e-9)
        assert rep.context["sum_bottom"] == pytest.approx(rep.context["mun_trace"], abs=1e-9)


def test_constants_in_kernel(rng):
    for _ in range(30):
        G = random_mwg(rng)
        L = assemble(G).laplacian
        k, n = G.k, G.base.n
        for i in range(k):
            s = np.zeros(k)
            s[i] = 1.0
            x = np.tile(s, n)
            assert np.abs(L @ x).max() <= 1e-10 * max(1.0, np.abs(L).max())


def test_kernel_dim_counts_components(rng):
    import networkx as nx
    for _ in range(30):
        G = random_mwg(rng)
        L = assemble(G).laplacian
        base = nx.empty_graph(G.base.n)
        base.add_edges_from(G.base.edges)
        assert kernel_dim(L) >= G.k * nx.number_connected_components(base)


def test_quadratic_form_identity(rng):
    # <x, Lx> equals the sum of edgewise quadratic forms
    for _ in range(30):
        G = random_mwg(rng)
        L = assemble(G).laplacian
        k, n = G.k, G.base.n
        x = rng.normal(size=k * n)
        direct = float(x @ L @ x)
        edgewise = 0.0
        for (u, v), w in G.weights.items():
            diff = x[v * k:(v + 1) * k] - x[u * k:(u + 1) * k]
            edgewise += float(diff @ w @ diff)
        assert direct == pytest.approx(edgewise, abs=1e-8 * max(1.0, abs(direct)))


def test_k4_abc_spectrum_structure():
    # frozen from direct eigendecomposition: L has eigenvalues {0,0,1,1,1,3,3,3}
    values = assemble(k4_abc_mwg()).laplacian_values
    assert np.allclose(values, [0, 0, 1, 1, 1, 3, 3, 3], atol=1e-12)


def test_scalar_helpers_match_lift():
    # a k = 1 graph is its own trace weighting and its own lift to k = 1
    g = complete_graph(4)
    ops = assemble(g)
    lifted = assemble(lift_identity(g, 1))
    assert np.array_equal(ops.laplacian, lifted.laplacian)
    assert np.array_equal(ops.adjacency, lifted.adjacency)
    assert np.array_equal(ops.trace_adjacency, ops.adjacency)


# --- stacked trace weighting and D^(+/2) against per-edge and per-vertex loops --


def test_trace_adjacency_bitwise_per_edge_reference(rng):
    graphs = [MatrixWeightedGraph.from_weights(n, k, items)
              for n, k, items in block_corpus_items(rng)]
    graphs += [k4_abc_mwg(), lift_identity(cycle_graph(5), 3)]
    for G in graphs:
        assert assemble(G).trace_adjacency.tobytes() == reference_trace_adjacency(G).tobytes()


def test_normalized_operators_bitwise_per_vertex_reference(rng):
    graphs = [MatrixWeightedGraph.from_weights(n, k, items)
              for n, k, items in block_corpus_items(rng)]
    graphs += [k4_abc_mwg(), lift_identity(cycle_graph(5), 3)]
    for G in graphs:
        ops = assemble(G)
        lap, adj = reference_normalized(ops)
        assert ops.lap_normalized.tobytes() == lap.tobytes()
        assert ops.adj_normalized.tobytes() == adj.tobytes()


def test_normalized_operators_reject_overflowing_degree():
    # each weight is finite; two meet at vertex 1 in a degree of 1e308, which
    # overflows (D_v + D_v^T)/2, and four make the degree itself inf
    for count in (2, 4):
        items = [(1, v, np.array([[5e307, 0.0], [0.0, 1.0]])) for v in (0, 2, 3, 4)[:count]]
        G = MatrixWeightedGraph.from_weights(5, 2, items)
        for name in ("lap_normalized", "adj_normalized"):
            with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
                getattr(assemble(G), name)
            assert str(err.value) == "matrix contains NaN or Inf entries"


# --- the bundle's regularity, degree blocks and spectra ----------------------


def reference_regularity(G, tol):
    """The regularity test as a loop over the per-vertex degree list."""
    geo = G.base.geometric_degrees()
    degs = all_degrees(G)
    if not degs:
        return Regularity("scalar", np.zeros((G.k, G.k)), 0.0, geo)
    scale = max(1.0, max(float(np.max(np.abs(d))) for d in degs))
    D0 = degs[0]
    for d in degs[1:]:
        if float(np.max(np.abs(d - D0))) > tol.resid_tol * scale:
            return Regularity("irregular", None, None, geo)
    d_scalar = float(np.trace(D0)) / G.k
    if float(np.max(np.abs(D0 - d_scalar * np.eye(G.k)))) <= tol.resid_tol * max(1.0, abs(d_scalar)):
        return Regularity("scalar", D0, d_scalar, geo)
    return Regularity("regular", D0, None, geo)


def _same_regularity(a, b):
    same_matrix = (a.degree_matrix is None and b.degree_matrix is None) or (
        a.degree_matrix is not None and b.degree_matrix is not None
        and a.degree_matrix.tobytes() == b.degree_matrix.tobytes())
    return (a.kind, a.scalar_degree, a.geometric_degrees) == (
        b.kind, b.scalar_degree, b.geometric_degrees) and same_matrix


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(resid_tol=0.0),
                                 Tolerances(resid_tol=0.5)])
def test_regularity_bitwise_on_corpus(rng, tol):
    # the verify-paper corpus (random, atlas-lift and frame-built members)
    # plus edgeless, single-vertex and empty graphs
    graphs = [G for _, G in Suite(seed=0, random_count=100).corpus()]
    graphs += [MatrixWeightedGraph.from_weights(n, k, items)
               for n, k, items in block_corpus_items(rng)]
    kinds = set()
    for G in graphs:
        expected = reference_regularity(G, tol)
        kinds.add(expected.kind)
        ops = assemble(G, tol)
        assert _same_regularity(ops.regularity, expected)
        blocks = np.array(all_degrees(G)).reshape(G.base.n, G.k, G.k)
        assert ops.degree_blocks.tobytes() == blocks.tobytes()
        if ops.regularity.kind == "irregular":
            try:
                ctx = irregular_context(ops)
            except SingularVolumeError:
                continue
            assert ctx.deg_stack.tobytes() == blocks.tobytes()
            assert ctx.vol_inv.tobytes() == np.linalg.inv(blocks.sum(axis=0)).tobytes()
    assert kinds == {"scalar", "regular", "irregular"}


def test_bundle_spectra_are_one_eigvalsh_each(monkeypatch):
    ops = assemble(k4_abc_mwg())
    solves = count_calls(monkeypatch, "eigvalsh", np.linalg)
    for _ in range(2):
        assert ops.laplacian_values.tobytes() == np.linalg.eigvalsh(ops.laplacian).tobytes()
        assert ops.adjacency_values.tobytes() == np.linalg.eigvalsh(ops.adjacency).tobytes()
    # two cached solves, plus the four made here to compare against
    assert len(solves) == 6
    assert not ops.laplacian_values.flags.writeable


def test_analyses_share_one_spectrum_of_each_operator(monkeypatch):
    # every analysis reads the bundle's cached spectra, so L and A each
    # reach eigvalsh once, however many analyses read them; a bundle solves
    # a stack of one, so each matrix of a stack counts as one solve
    from mwgraph.expansion import cheeger_analysis
    from mwgraph.frames import eta
    from mwgraph.sheaf import sheaf_analysis
    ops = assemble(k33_latin_mwg())
    solved = []
    real = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solved.append(np.array(a, copy=True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    eta(ops)
    cheeger_analysis(ops)
    sheaf_analysis(ops)
    check_laplacian_trace_bounds(ops)
    check_adjacency_trace_bounds(ops)

    def solves_of(M):
        return sum(m.shape == M.shape and m.tobytes() == M.tobytes()
                   for a in solved for m in a.reshape(-1, *a.shape[-2:]))

    assert (solves_of(ops.laplacian), solves_of(ops.adjacency)) == (1, 1)
