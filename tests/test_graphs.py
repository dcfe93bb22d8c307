import json
import itertools

import numpy as np
import pytest

from mwgraph.errors import (
    DegenerateEdgeError,
    DimMismatchError,
    DomainError,
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


@pytest.mark.parametrize("build, error, message", [
    (lambda: BaseGraph.from_edges(-1, []), DomainError, "vertex count must be >= 0, got -1"),
    (lambda: BaseGraph.from_edges(-2, [(0, 1), (1, 1)]), DomainError,
     "vertex count must be >= 0, got -2"),
    # the first bad edge in sorted order is named, whatever order it came in
    (lambda: BaseGraph.from_edges(3, [(4, 4), (2, 2), (5, 1)]), IndexOutOfRangeError,
     "edge (1, 5) outside vertex range [0, 3)"),
    (lambda: BaseGraph.from_edges(3, [(5, 5), (2, 2), (0, 1)]), DegenerateEdgeError,
     "self-loop at vertex 2"),
    (lambda: BaseGraph.from_edges(3, [(0, 0), (1, -1)]), IndexOutOfRangeError,
     "edge (-1, 1) outside vertex range [0, 3)"),
    (lambda: BaseGraph.from_edges(2, [(1, 0), (0, 1), (2, 1)]), IndexOutOfRangeError,
     "edge (1, 2) outside vertex range [0, 2)"),
    # out of range before self-loop on one edge
    (lambda: BaseGraph.from_edges(3, [(3, 3)]), IndexOutOfRangeError,
     "edge (3, 3) outside vertex range [0, 3)"),
    # from_weights names the first bad item in input order
    (lambda: MatrixWeightedGraph.from_weights(-1, 1, []), DomainError,
     "vertex count must be >= 0, got -1"),
    (lambda: MatrixWeightedGraph.from_weights(-1, 1, [(0, 1, [[1.0]])]), IndexOutOfRangeError,
     "edge (0, 1) outside vertex range [0, -1)"),
    (lambda: MatrixWeightedGraph.from_weights(3, 1, [(2, 2, [[1.0]]), (0, 3, [[1.0]])]),
     DegenerateEdgeError, "self-loop at vertex 2"),
    (lambda: MatrixWeightedGraph.from_weights(3, 1, [(0, 1, [[1.0]]), (3, 3, [[1.0]])]),
     IndexOutOfRangeError, "edge (3, 3) outside vertex range [0, 3)"),
    (lambda: MatrixWeightedGraph.from_weights(-1, 0, []), DomainError,
     "block size k must be >= 1, got 0"),
    # a ragged weight is a dimension mismatch, named in the same order
    (lambda: MatrixWeightedGraph.from_weights(2, 2, [(0, 1, [[1, 0], [0]])]), DimMismatchError,
     "weight for edge (0, 1) is not a (2, 2) array of numbers"),
    (lambda: MatrixWeightedGraph.from_weights(3, 2, [(0, 1, [[1, 0], [0]]), (1, 2, np.eye(3))]),
     DimMismatchError, "weight for edge (0, 1) is not a (2, 2) array of numbers"),
    (lambda: MatrixWeightedGraph.from_weights(3, 2, [(0, 1, np.eye(3)), (1, 2, [[1, 0], [0]])]),
     DimMismatchError, "weight for edge (0, 1) has shape (3, 3), expected (2, 2)"),
    (lambda: MatrixWeightedGraph.from_weights(3, 2, [(0, 3, [[1, 0], [0]])]),
     IndexOutOfRangeError, "edge (0, 3) outside vertex range [0, 3)"),
    (lambda: MatrixWeightedGraph.from_weights(3, 2, [(1, 1, [[1, 0], [0]])]),
     DegenerateEdgeError, "self-loop at vertex 1"),
])
def test_checked_constructors_name_the_first_bad_input(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_connected_components():
    edges = [(0, 1), (1, 2), (3, 4)]
    assert not is_connected_edges(5, edges)
    assert is_connected_edges(5, edges + [(2, 3)])
    assert is_connected_edges(0, []) and is_connected_edges(1, [])
    assert not is_connected_edges(2, [])


def test_from_weights_merges_duplicates():
    G = MatrixWeightedGraph.from_weights(
        2, 2, [(0, 1, FRAME_A), (1, 0, FRAME_B)])
    assert np.allclose(G.weight(0, 1), FRAME_A + FRAME_B)


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
    assert G.weight(0, 1)[0, 0] == 2.0


def test_load_merges_duplicate_edges():
    doc = (b'{"k": 2, "n": 2, "edges": ['
           b'{"u": 0, "v": 1, "w": [1, 0, 0, 0]},'
           b'{"u": 1, "v": 0, "w": [0.25, 0.43301270189221935, 0.43301270189221935, 0.75]}]}')
    G = load(doc)
    assert np.allclose(G.weight(0, 1), FRAME_A + FRAME_B)


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
    assert G.weight(0, 1)[0, 0] == 2.0


def test_load_rejects_oversized_header_without_allocating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized header reached the graph constructor")

    monkeypatch.setattr(MatrixWeightedGraph, "_from_stack", never)
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
        assert np.array_equal(reloaded.weight_stack, G.weight_stack)


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
    assert reloaded.weight(0, 1)[0, 0] == np.pi


def test_save_load_k1_round_trip():
    g = MatrixWeightedGraph.from_weights(3, 1, [(0, 1, [[2.5]]), (1, 2, [[0.25]])])
    text = save(g)
    assert b'"k": 1' in text
    reloaded = load(text)
    assert reloaded.k == 1 and reloaded.base == g.base
    assert reloaded.weight_stack.tobytes() == g.weight_stack.tobytes()


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
    ops = assemble(G)
    assert ops.regularity.kind == "regular"
    assert ops.regularity.scalar_degree is None
    assert np.allclose(ops.degree_blocks[0], W)


def test_lift_identity_single_edge():
    g = unit_graph(2, [(0, 1)])
    G = lift_identity(g, 2)
    assert np.array_equal(G.weight(0, 1), np.eye(2))


def test_lift_identity_requires_k1():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.eye(2))])
    for k in (1, 2):
        with pytest.raises(ValueError, match="requires k = 1, got k = 2"):
            lift_identity(G, k)
    with pytest.raises(ValueError, match="block size"):
        lift_identity(unit_graph(2, [(0, 1)]), 0)


def test_lift_identity_stores_the_checked_constructor_bits():
    # the lift builds from g's checked weights without judging them again;
    # it stores what the checked constructor stores for the items w_e I_k,
    # a -0.0 as 0.0 and a weight of -1e-12, within the PSD floor, as given
    base = BaseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    raw = np.array([-0.0, -1e-12, 2.5, 0.0, np.pi]).reshape(-1, 1, 1)
    trusted = MatrixWeightedGraph(base, 1, raw)
    checked = MatrixWeightedGraph.from_weights(
        4, 1, [(u, v, w) for (u, v), w in zip(base.edges, raw)])
    for g in (trusted, checked):
        for k in (1, 2, 3):
            lifted = lift_identity(g, k)
            items = [(u, v, w[0, 0] * np.eye(k)) for (u, v), w in zip(base.edges, raw)]
            expected = reference_weights(k, items, DEFAULT_TOL)
            assert lifted.base == base and lifted.k == k
            assert lifted.weight_stack.tobytes() == b"".join(
                w.tobytes() for w in expected.values())
            assert not np.signbit(lifted.weight_stack[lifted.weight_stack == 0.0]).any()
            assert not lifted.weight_stack.flags.writeable


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
        for (u, v), w in zip(g.base.edges, g.weight_stack):
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
        twice_edges = 2 * G.weight_stack.sum(axis=0)
        assert np.allclose(volume(G, range(n)), twice_edges, atol=1e-12)


# --- stacked validation against the per-edge loop ------------------------------


def test_from_weights_stores_per_edge_reference_bits(rng):
    for n, k, items in block_corpus_items(rng):
        G = MatrixWeightedGraph.from_weights(n, k, items)
        expected = reference_weights(k, items, DEFAULT_TOL)
        assert list(expected) == list(G.base.edges)
        assert G.weight_stack.shape == (len(expected), k, k)
        assert G.weight_stack.tobytes() == b"".join(w.tobytes() for w in expected.values())
        assert not G.weight_stack.flags.writeable


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


def test_constructor_sums_duplicates_and_negative_zeros_as_the_reference(rng):
    # duplicates are summed in input order from zeros, so a -0.0 entry is
    # stored as 0.0; load hands the constructor the same arrays
    neg = np.array([[-0.0, -0.0], [-0.0, 1.0]])
    for _ in range(30):
        n = int(rng.integers(2, 7))
        items = []
        for _ in range(int(rng.integers(0, 12))):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            w = [neg, -0.0 * np.eye(2), FRAME_A, 1e-3 * FRAME_B][int(rng.integers(0, 4))]
            items.append((u, v, w))
        G = MatrixWeightedGraph.from_weights(n, 2, items)
        expected = reference_weights(2, items, DEFAULT_TOL)
        assert G.base.edges == tuple(expected)
        assert G.weight_stack.tobytes() == b"".join(w.tobytes() for w in expected.values())
        assert not np.signbit(G.weight_stack[G.weight_stack == 0.0]).any()
        doc = {"k": 2, "n": n, "edges": [{"u": u, "v": v, "w": np.ravel(w).tolist()}
                                         for u, v, w in items]}
        loaded = load(json.dumps(doc))
        assert loaded.base == G.base
        assert loaded.weight_stack.tobytes() == G.weight_stack.tobytes()


# one bad item of each kind, each on its own pair of 0..3
_BAD_ITEMS = {
    "shape": (0, 1, np.eye(3)),
    "range": (1, 7, np.eye(2)),
    "self-loop": (2, 2, np.eye(2)),
    "not psd": (0, 3, np.diag([1.0, -1.0])),
    "nan": (1, 2, np.array([[np.nan, 0.0], [0.0, 1.0]])),
}


def _raised(call):
    try:
        call()
    except (MwgError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def reference_first_error(n, k, items, tol):
    """from_weights' error as a loop gives it: each item's range, self-loop
    and shape in input order, then the merged weights in sorted pair order."""
    for u, v, w in items:
        if not (0 <= u < n and 0 <= v < n):
            return IndexOutOfRangeError, f"edge ({u}, {v}) outside vertex range [0, {n})"
        if u == v:
            return DegenerateEdgeError, f"self-loop at vertex {u}"
        shape = np.shape(w)
        if shape != (k, k):
            return DimMismatchError, f"weight for edge ({u}, {v}) has shape {shape}, expected ({k}, {k})"
    return _raised(lambda: reference_weights(k, items, tol))


def test_from_weights_first_error_over_mixed_bad_items():
    seen = set()
    for size in range(1, len(_BAD_ITEMS) + 1):
        for order in itertools.permutations(_BAD_ITEMS, size):
            items = [(0, 2, np.eye(2))] + [_BAD_ITEMS[name] for name in order]
            expected = reference_first_error(4, 2, items, DEFAULT_TOL)
            assert _raised(lambda: MatrixWeightedGraph.from_weights(4, 2, items)) == expected
            seen.add(expected[0])
    assert seen == {DegenerateEdgeError, DimMismatchError, IndexOutOfRangeError, NotPsdError,
                    NonFiniteError}


def test_load_first_error_over_mixed_bad_edges():
    # load's per-edge checks (entry count, self-loop) come first, in file
    # order, then the vertex range, in file order, then the merged weights
    # in sorted pair order: (0, 3) before (1, 2)
    bad = {
        "count": ({"u": 0, "v": 1, "w": [1.0]},
                  ParseError, "edge (0, 1) has 1 weight entries, expected 4"),
        "self-loop": ({"u": 2, "v": 2, "w": [1.0, 0.0, 0.0, 1.0]},
                      ParseError, "self-loop at vertex 2"),
        "range": ({"u": 1, "v": 7, "w": [1.0, 0.0, 0.0, 1.0]},
                  IndexOutOfRangeError, "edge (1, 7) outside vertex range [0, 4)"),
        "huge": ({"u": 2 ** 63, "v": 1, "w": [1.0, 0.0, 0.0, 1.0]},
                 IndexOutOfRangeError, f"edge ({2 ** 63}, 1) outside vertex range [0, 4)"),
        "not psd": ({"u": 3, "v": 0, "w": [1.0, 0.0, 0.0, -1.0]},
                    NotPsdError, "weight on edge (0, 3) is not PSD"),
        "nan": ({"u": 2, "v": 1, "w": [float("nan"), 0.0, 0.0, 1.0]},
                NonFiniteError, "matrix contains NaN or Inf entries"),
    }
    stages = (("count", "self-loop"), ("range", "huge"))
    for size in range(1, len(bad) + 1):
        for order in itertools.permutations(bad, size):
            doc = {"k": 2, "n": 4, "edges": [bad[name][0] for name in order]}
            present = [[name for name in order if name in stage] for stage in stages]
            present.append([name for name in ("not psd", "nan") if name in order])
            first = next(names[0] for names in present if names)
            assert _raised(lambda: load(json.dumps(doc))) == bad[first][1:]


def test_weight_reads_the_stack_by_either_orientation(rng):
    for _ in range(20):
        G = random_mwg(rng)
        rows = dict(zip(G.base.edges, G.weight_stack))
        for u, v in itertools.product(range(G.base.n), repeat=2):
            w = G.weight(u, v)
            if (min(u, v), max(u, v)) in rows:
                assert w is not None and not w.flags.writeable
                assert w.tobytes() == rows[(min(u, v), max(u, v))].tobytes()
                assert G.weight(v, u).tobytes() == w.tobytes()
            else:
                assert np.array_equal(w, np.zeros((G.k, G.k)))
    # past the last edge, before the first and on an edgeless graph
    G = MatrixWeightedGraph.from_weights(5, 2, [(1, 2, np.eye(2)), (3, 2, FRAME_A)])
    for u, v in ((3, 4), (4, 3), (0, 1), (1, 0), (1, 3)):
        assert np.array_equal(G.weight(u, v), np.zeros((2, 2)))
    assert np.array_equal(G.weight(3, 2), FRAME_A)
    assert np.array_equal(MatrixWeightedGraph.from_weights(3, 1, []).weight(2, 0), [[0.0]])
