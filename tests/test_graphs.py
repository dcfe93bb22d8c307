import itertools

import numpy as np
import pytest

from mwgraph.errors import (
    IndexOutOfRangeError,
    MwgError,
    NonFiniteError,
    NotPsdError,
    NotSymmetricError,
    ParseError,
    TooLargeError,
)
from mwgraph.graphs import (
    LOAD_MAX_NK,
    BaseGraph,
    MatrixWeightedGraph,
    is_connected_edges,
    lift_identity,
    load,
    save,
)
from mwgraph.linalg import DEFAULT_TOL, Tolerances
from mwgraph.operators import assemble

from conftest import (
    FRAME_A,
    FRAME_B,
    block_corpus_items,
    complete_graph,
    count_calls,
    k4_abc_mwg,
    random_mwg,
    reference_weights,
    unit_graph,
)


def test_base_graph_normalizes_edges():
    g = BaseGraph.from_edges(4, [(2, 0), (1, 3), (0, 2)])
    assert g.edges == ((0, 2), (1, 3))


def test_base_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        BaseGraph.from_edges(3, [(1, 1)])


def test_base_graph_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        BaseGraph.from_edges(3, [(0, 3)])


def test_connected_components():
    edges = [(0, 1), (1, 2), (3, 4)]
    assert not is_connected_edges(5, edges)
    assert is_connected_edges(5, edges + [(2, 3)])
    assert is_connected_edges(0, []) and is_connected_edges(1, [])
    assert not is_connected_edges(2, [])


def test_from_weights_merges_duplicates():
    G = MatrixWeightedGraph.from_weights(
        2, 2, [(0, 1, FRAME_A), (1, 0, FRAME_B)])
    assert np.allclose(G.weights[(0, 1)], FRAME_A + FRAME_B)


def test_from_weights_rejects_non_psd():
    with pytest.raises(NotPsdError) as err:
        MatrixWeightedGraph.from_weights(3, 2, [(0, 2, np.diag([1.0, -1.0]))])
    assert "(0, 2)" in str(err.value)


def test_from_weights_validates_each_weight_once(monkeypatch):
    # the six weights are symmetrized as one stack and judged by one eigvalsh
    from mwgraph import linalg
    items = [(u, v, FRAME_A + FRAME_B) for u, v in itertools.combinations(range(4), 2)]
    stacked = count_calls(monkeypatch, "_symmetrize", linalg)
    sym = count_calls(monkeypatch, "as_symmetric", linalg)
    solves = count_calls(monkeypatch, "eigvalsh", np.linalg)
    MatrixWeightedGraph.from_weights(4, 2, items)
    assert (len(stacked), len(sym), len(solves)) == (1, 0, 1)


def test_from_weights_rejects_overflowing_weight():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        MatrixWeightedGraph.from_weights(2, 1, [(0, 1, np.array([[1e308]]))])


def test_weight_accessor_zero_when_absent():
    G = MatrixWeightedGraph.from_weights(3, 2, [(0, 1, np.eye(2))])
    assert np.array_equal(G.weight(0, 2), np.zeros((2, 2)))
    assert np.array_equal(G.weight(1, 0), np.eye(2))


# --- MWG-JSON ----------------------------------------------------------------


def test_load_scalar_single_edge():
    doc = b'{"k": 1, "n": 2, "edges": [{"u": 0, "v": 1, "w": [2.0]}]}'
    G = load(doc)
    assert G.k == 1 and G.base.n == 2
    assert G.weights[(0, 1)][0, 0] == 2.0


def test_load_merges_duplicate_edges():
    doc = (b'{"k": 2, "n": 2, "edges": ['
           b'{"u": 0, "v": 1, "w": [1, 0, 0, 0]},'
           b'{"u": 1, "v": 0, "w": [0.25, 0.43301270189221935, 0.43301270189221935, 0.75]}]}')
    G = load(doc)
    assert np.allclose(G.weights[(0, 1)], FRAME_A + FRAME_B)


def test_load_rejects_non_psd_weight_naming_edge():
    doc = b'{"k": 2, "n": 3, "edges": [{"u": 1, "v": 2, "w": [1, 0, 0, -1]}]}'
    with pytest.raises(NotPsdError) as err:
        load(doc)
    assert "(1, 2)" in str(err.value)


def test_load_rejects_bad_json():
    for data in (b"{nope", b"\xff{}", b"[1]"):
        with pytest.raises(ParseError):
            load(data)


def test_load_rejects_bad_weight_length():
    with pytest.raises(ParseError):
        load(b'{"k": 2, "n": 2, "edges": [{"u": 0, "v": 1, "w": [1.0]}]}')


def test_load_rejects_self_loop():
    with pytest.raises(ParseError):
        load(b'{"k": 1, "n": 2, "edges": [{"u": 1, "v": 1, "w": [1.0]}]}')


def test_load_rejects_out_of_range_vertex():
    with pytest.raises(IndexOutOfRangeError):
        load(b'{"k": 1, "n": 2, "edges": [{"u": 0, "v": 5, "w": [1.0]}]}')


@pytest.mark.parametrize("doc", [
    # read as k = 1, n = 2 and edge (0, 1) by truncation
    '{"k": 1.9, "n": 2.9, "edges": [{"u": 0.6, "v": 1.2, "w": [1.0]}]}',
    '{"k": 1, "n": 2.0, "edges": []}',
    '{"k": 1, "n": "3", "edges": []}',
    '{"k": true, "n": 2, "edges": []}',
    '{"k": 1, "n": 2, "edges": [{"u": true, "v": 0, "w": [1.0]}]}',
    '{"k": 1, "n": 2, "edges": [{"u": 0, "v": "1", "w": [1.0]}]}',
    '{"k": 1, "n": 2, "edges": [{"u": 0, "v": 1, "w": ["1.5"]}]}',
    '{"k": 1, "n": 2, "edges": [{"u": 0, "v": 1, "w": [true]}]}',
])
def test_load_accepts_only_integer_indices_and_numeric_weights(doc):
    with pytest.raises(ParseError, match="must be a JSON"):
        load(doc)
    # JSON integers stay valid weights
    G = load('{"k": 1, "n": 2, "edges": [{"u": 0, "v": 1, "w": [2]}]}')
    assert G.weights[(0, 1)][0, 0] == 2.0


def test_load_rejects_oversized_header_without_allocating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized header reached from_weights")

    monkeypatch.setattr(MatrixWeightedGraph, "from_weights", never)
    for k, n in [(1, 1_000_000_000), (1, LOAD_MAX_NK + 1), (4, LOAD_MAX_NK // 4 + 1)]:
        with pytest.raises(TooLargeError):
            load(f'{{"k": {k}, "n": {n}, "edges": []}}'.encode())


def test_load_accepts_header_at_size_limit():
    G = load(f'{{"k": 4, "n": {LOAD_MAX_NK // 4}, "edges": []}}'.encode())
    assert G.k * G.base.n == LOAD_MAX_NK


def test_save_load_roundtrip_exact(rng):
    for _ in range(20):
        G = random_mwg(rng)
        reloaded = load(save(G))
        assert reloaded.base == G.base
        assert reloaded.k == G.k
        for e in G.base.edges:
            assert np.array_equal(reloaded.weights[e], G.weights[e])


def test_save_is_canonical_fixed_point(rng):
    for _ in range(10):
        G = random_mwg(rng)
        first = save(G)
        assert save(load(first)) == first


def test_save_sorts_edges_and_drops_zero_weights():
    G = MatrixWeightedGraph.from_weights(
        3, 1, [(1, 2, [[1.0]]), (0, 1, [[np.pi]]), (0, 2, [[0.0]])])
    text = save(G).decode()
    assert text.index('"u": 0') < text.index('"u": 1')
    reloaded = load(save(G))
    assert reloaded.base.edges == ((0, 1), (1, 2))
    assert reloaded.weights[(0, 1)][0, 0] == np.pi


def test_save_load_k1_round_trip():
    g = MatrixWeightedGraph.from_weights(3, 1, [(0, 1, [[2.5]]), (1, 2, [[0.25]])])
    text = save(g)
    assert b'"k": 1' in text
    reloaded = load(text)
    assert reloaded.k == 1 and reloaded.base == g.base
    assert {e: w.tobytes() for e, w in reloaded.weights.items()} == \
        {e: w.tobytes() for e, w in g.weights.items()}


def volume(G, S):
    """vol(S), the sum of the degree blocks D_v over the vertices of S."""
    return assemble(G).degree_blocks[sorted(set(S))].sum(axis=0)


def test_degree_isolated_vertex():
    G = MatrixWeightedGraph.from_weights(3, 2, [(0, 1, np.eye(2))])
    assert np.array_equal(assemble(G).degree_blocks[2], np.zeros((2, 2)))


def test_degree_sums_incident_weights():
    G = MatrixWeightedGraph.from_weights(3, 2, [(0, 1, FRAME_A), (0, 2, FRAME_B)])
    expected = np.array([[1.25, np.sqrt(3) / 4], [np.sqrt(3) / 4, 0.75]])
    assert np.allclose(assemble(G).degree_blocks[0], expected)


def test_k4_abc_degrees_and_regularity():
    G = k4_abc_mwg()
    for block in assemble(G).degree_blocks:
        assert np.allclose(block, 1.5 * np.eye(2), atol=1e-14)
    reg = assemble(G).regularity
    assert reg.is_scalar_regular
    assert reg.scalar_degree == pytest.approx(1.5)
    assert reg.geometric_degrees == (3, 3, 3, 3)


def test_regularity_identity_lift_of_cubic():
    g = unit_graph(4, itertools.combinations(range(4), 2))
    G = lift_identity(g, 2)
    reg = assemble(G).regularity
    assert reg.is_scalar_regular and reg.scalar_degree == pytest.approx(3.0)


def test_regularity_path_is_irregular():
    g = unit_graph(3, [(0, 1), (1, 2)])
    reg = assemble(lift_identity(g, 2)).regularity
    assert reg.kind == "irregular"


def test_regularity_regular_but_not_scalar():
    W = np.diag([2.0, 1.0])
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, W)])
    reg = assemble(G).regularity
    assert reg.kind == "regular"
    assert reg.scalar_degree is None
    assert np.allclose(reg.degree_matrix, W)


def test_lift_identity_single_edge():
    g = unit_graph(2, [(0, 1)])
    G = lift_identity(g, 2)
    assert np.array_equal(G.weights[(0, 1)], np.eye(2))


def test_lift_identity_requires_k1():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.eye(2))])
    for k in (1, 2):
        with pytest.raises(ValueError, match="requires k = 1, got k = 2"):
            lift_identity(G, k)
    with pytest.raises(ValueError, match="block size"):
        lift_identity(unit_graph(2, [(0, 1)]), 0)


def test_scalarize_trace_frame_weights():
    # each K4 frame edge weight is a rank-one projection, so its trace is 1
    A = assemble(k4_abc_mwg()).trace_adjacency
    assert np.allclose(A, np.ones((4, 4)) - np.eye(4), atol=1e-15)


def test_scalarize_trace_values():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.diag([3.0, 4.0]))])
    assert assemble(G).trace_adjacency[0, 1] == pytest.approx(7.0)
    G2 = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.eye(2))])
    assert assemble(G2).trace_adjacency[0, 1] == pytest.approx(2.0)
    G3 = MatrixWeightedGraph.from_weights(3, 2, [(0, 1, np.diag([3.0, 4.0])),
                                                 (1, 2, np.eye(2))])
    assert np.array_equal(assemble(G3).trace_adjacency,
                          [[0.0, 7.0, 0.0], [7.0, 0.0, 2.0], [0.0, 2.0, 0.0]])


def test_scalarize_of_lift_scales_by_k():
    # the trace weighting of w_e * I_k is k * w_e
    g = MatrixWeightedGraph.from_weights(3, 1, [(0, 1, [[2.0]]), (1, 2, [[0.5]])])
    for k in (1, 2, 3):
        back = assemble(lift_identity(g, k)).trace_adjacency
        for (u, v), w in g.weights.items():
            assert back[u, v] == back[v, u] == pytest.approx(k * w[0, 0])


def test_lift_of_regular_is_scalar_regular():
    g = complete_graph(4)
    reg = assemble(lift_identity(g, 3)).regularity
    assert reg.is_scalar_regular and reg.scalar_degree == pytest.approx(3.0)


def test_volume_single_vertex_and_empty():
    G = k4_abc_mwg()
    assert np.array_equal(volume(G, [2, 2]), assemble(G).degree_blocks[2])
    assert np.array_equal(volume(G, []), np.zeros((2, 2)))


def test_volume_full_k4_abc():
    assert np.allclose(volume(k4_abc_mwg(), range(4)), 6.0 * np.eye(2), atol=1e-14)


def test_volume_additive_and_handshake(rng):
    for _ in range(20):
        G = random_mwg(rng)
        n = G.base.n
        split = n // 2
        left = volume(G, range(split))
        right = volume(G, range(split, n))
        assert np.allclose(left + right, volume(G, range(n)), atol=1e-12)
        twice_edges = 2 * sum(G.weights.values())
        assert np.allclose(volume(G, range(n)), twice_edges, atol=1e-12)


# --- stacked validation against the per-edge loop ------------------------------


def test_from_weights_stores_per_edge_reference_bits(rng):
    for n, k, items in block_corpus_items(rng):
        G = MatrixWeightedGraph.from_weights(n, k, items)
        expected = reference_weights(k, items, DEFAULT_TOL)
        assert list(G.weights) == list(expected) == list(G.base.edges)
        for e, w in expected.items():
            assert G.weights[e].tobytes() == w.tobytes()
            assert not G.weights[e].flags.writeable


_BAD_WEIGHTS = {
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[1.0, 0.0], [0.0, -np.inf]]),
    "asymmetric": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "huge asymmetric": np.array([[0.0, 1e308], [-1e308, 0.0]]),
    "overflow": np.array([[1e308, 0.0], [0.0, 1.0]]),
    "not psd": np.diag([1.0, -1.0]),
    "marginal": np.diag([1.0, -1e-12]),
}


def _first_error(call):
    try:
        call()
    except MwgError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("psd_tol", [1e-9, 0.0])
def test_from_weights_raises_first_failing_edge_in_sorted_order(rng, psd_tol):
    tol = Tolerances(psd_tol=psd_tol)
    edges = list(itertools.combinations(range(4), 2))
    names = list(_BAD_WEIGHTS)
    cases = [list(p) for p in itertools.permutations(names[:4], 2)]
    cases += [list(rng.permutation(names)[:int(rng.integers(1, 4))]) for _ in range(40)]
    seen = set()
    for bad in cases:
        slots = sorted(rng.choice(len(edges), size=len(bad), replace=False))
        weights = [np.eye(2)] * len(edges)
        for slot, name in zip(slots, bad):
            weights[slot] = _BAD_WEIGHTS[name]
        items = [(v, u, w) for (u, v), w in zip(edges, weights)]
        items.reverse()  # given in reverse, validated in sorted order
        with np.errstate(over="ignore"):
            expected = _first_error(lambda: reference_weights(2, items, tol))
            got = _first_error(lambda: MatrixWeightedGraph.from_weights(4, 2, items, tol))
        assert got == expected
        seen.add(expected[0] if expected else None)
    assert seen >= {NonFiniteError, NotSymmetricError, NotPsdError}
