import functools
import hashlib
import itertools
import time

import numpy as np
import pytest

from mwgraph import graphgen
from mwgraph.graphgen import (
    canonical_code,
    code_to_edges,
    edges_code,
    enumerate_regular_graphs,
    graph6_like,
    iter_proper_colorings,
)
from mwgraph.graphs import BaseGraph, is_connected_edges

from conftest import petersen_graph


def relabel(edges, perm):
    return [(perm[u], perm[v]) for u, v in edges]


def reference_canonical_code(n, edges):
    """Depth-first branch and bound over orderings, kept as an oracle."""
    adj = [0] * n
    edge_list = list(edges)
    for u, v in edge_list:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if not edge_list:
        return 0
    total_bits = n * (n - 1) // 2
    best = -1

    def extend(rest, cols, depth, code, bits):
        nonlocal best
        if not rest:
            if code > best:
                best = code
            return
        top = -1
        top_idx = []
        for i, c in enumerate(cols):
            if c > top:
                top = c
                top_idx = [i]
            elif c == top:
                top_idx.append(i)
        code = (code << depth) | top
        bits += depth
        if best >= 0 and code < (best >> (total_bits - bits)):
            return
        for i in top_idx:
            row = adj[rest[i]]
            next_rest = []
            next_cols = []
            for j, w in enumerate(rest):
                if j != i:
                    next_rest.append(w)
                    next_cols.append((cols[j] << 1) | ((row >> w) & 1))
            extend(next_rest, next_cols, depth + 1, code, bits)

    extend(list(range(n)), [0] * n, 0, 0, 0)
    return best


def reference_regular_leaves(n, r):
    """Row-wise backtracking with fresh-vertex symmetry breaking, kept as an oracle.

    Yields every connected labelled r-regular graph it reaches, as an edge
    tuple; isomorphic graphs repeat.
    """
    if n == 0 or (r and n <= r) or (n * r) % 2:
        return
    deg = [0] * n
    edges = []

    def rec(u):
        while u < n and deg[u] == r:
            u += 1
        if u == n:
            if is_connected_edges(n, edges):
                yield tuple(edges)
            return
        need = r - deg[u]
        cands = [v for v in range(u + 1, n) if deg[v] < r]
        fresh = [v for v in cands if deg[v] == 0]
        for combo in itertools.combinations(cands, need):
            chosen_fresh = [v for v in combo if deg[v] == 0]
            if chosen_fresh and chosen_fresh != fresh[:len(chosen_fresh)]:
                continue
            for v in combo:
                deg[v] += 1
                edges.append((u, v))
            deg[u] = r
            yield from rec(u + 1)
            deg[u] = r - need
            for v in combo:
                deg[v] -= 1
                edges.pop()

    yield from rec(0)


def enumerated_leaves(cases):
    """Every labelled graph the reference generator reaches."""
    return [(n, edges) for r, n_max in cases for n in range(r + 1, n_max + 1)
            for edges in reference_regular_leaves(n, r)]


@functools.cache
def reference_enumeration(n, r):
    """The reference generator's leaves, one per canonical code, sorted."""
    codes = {canonical_code(n, edges) for edges in reference_regular_leaves(n, r)}
    return [BaseGraph.from_edges(n, code_to_edges(n, code)).edges for code in sorted(codes)]


def columns(n, edges):
    """Column j of a labelled graph's code is cols[j]; cols[0] is unused."""
    code = edges_code(n, edges)
    cols = [0] * n
    for j in range(n - 1, 0, -1):
        cols[j] = code & ((1 << j) - 1)
        code >>= j
    return cols


def cube_graph():
    return BaseGraph.from_edges(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3)
                                    if u < u ^ (1 << b)])


def k66_graph():
    return BaseGraph.from_edges(12, [(i, 6 + j) for i in range(6) for j in range(6)])


def test_canonical_code_matches_reference_on_enumerated_leaves():
    leaves = enumerated_leaves([(3, 10), (4, 8)])
    assert len(leaves) > 900
    for n, edges in leaves:
        assert canonical_code(n, edges) == reference_canonical_code(n, edges)


@pytest.mark.parametrize("merge_at", [0, graphgen.MERGE_AT])
def test_canonical_code_matches_reference_on_random_graphs(rng, monkeypatch, merge_at):
    monkeypatch.setattr(graphgen, "MERGE_AT", merge_at)
    for _ in range(150):
        n = int(rng.integers(2, 10))
        p = rng.random()
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        expected = reference_canonical_code(n, edges)
        assert canonical_code(n, edges) == expected
        as_numpy = [(np.int64(u), np.int64(v)) for u, v in edges]
        assert canonical_code(n, as_numpy) == expected
        # the same search run as a canonicity test against the labelled columns
        adj = graphgen._neighbour_bits(n, edges)
        is_canonical = edges_code(n, edges) == expected
        assert (graphgen._max_code(n, adj, columns(n, edges)) >= 0) == is_canonical
        rebuilt = code_to_edges(n, expected)
        if rebuilt:
            adj = graphgen._neighbour_bits(n, rebuilt)
            assert graphgen._max_code(n, adj, columns(n, rebuilt)) == expected


def test_canonical_code_complete_graphs_are_all_ones():
    for n in range(2, 13):
        total = n * (n - 1) // 2
        assert canonical_code(n, itertools.combinations(range(n), 2)) == (1 << total) - 1


@pytest.mark.parametrize("graph", [k66_graph(), petersen_graph(), cube_graph()],
                         ids=["K6,6", "petersen", "cube"])
def test_canonical_code_symmetric_graphs(rng, graph):
    n = graph.n
    code = canonical_code(n, graph.edges)
    for _ in range(5):
        perm = list(rng.permutation(n))
        assert canonical_code(n, relabel(graph.edges, perm)) == code
    rebuilt = code_to_edges(n, code)
    assert len(rebuilt) == len(graph.edges)
    assert edges_code(n, rebuilt) == code
    assert canonical_code(n, rebuilt) == code


def test_canonical_code_trivial_cases():
    assert canonical_code(0, []) == 0
    assert canonical_code(1, []) == 0
    assert canonical_code(6, []) == 0


def test_enumerated_graphs_carry_canonical_labeling():
    for r, n_max in [(3, 10), (4, 10)]:
        for n in range(r + 1, n_max + 1):
            for g in enumerate_regular_graphs(n, r):
                assert edges_code(n, g.edges) == canonical_code(n, g.edges)


def test_canonical_code_invariant_under_relabeling(rng):
    for _ in range(40):
        n = int(rng.integers(2, 8))
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        code = canonical_code(n, edges)
        perm = list(rng.permutation(n))
        assert canonical_code(n, relabel(edges, perm)) == code


def test_canonical_code_separates_nonisomorphic():
    path = [(0, 1), (1, 2), (2, 3)]
    star = [(0, 1), (0, 2), (0, 3)]
    assert canonical_code(4, path) != canonical_code(4, star)


def test_code_to_edges_roundtrip(rng):
    for _ in range(30):
        n = int(rng.integers(2, 8))
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        code = canonical_code(n, edges)
        rebuilt = code_to_edges(n, code)
        assert canonical_code(n, rebuilt) == code
        assert len(rebuilt) == len(edges)


def test_graph6_known_strings():
    # K1, K2, the triangle, and K4 have well-known graph6 encodings
    assert graph6_like(1, canonical_code(1, [])) == "@"
    assert graph6_like(2, canonical_code(2, [(0, 1)])) == "A_"
    assert graph6_like(3, canonical_code(3, [(0, 1), (1, 2), (0, 2)])) == "Bw"
    assert graph6_like(4, canonical_code(4, list(itertools.combinations(range(4), 2)))) == "C~"


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 64, 200])
def test_graph6_matches_networkx_at_every_size(rng, n):
    # one size byte up to n = 62, "~" and three size bytes above; n = 200
    # has a code of 19,900 bits, whose decimal string Python refuses to make
    import networkx as nx
    for p in (0.0, 0.05, 0.5):
        edges = [(int(u), int(v)) for u, v in
                 rng.integers(0, max(n, 1), size=(int(p * n * n / 2), 2)) if u != v]
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        expected = nx.to_graph6_bytes(G, header=False).decode().rstrip("\n")
        assert graph6_like(n, edges_code(n, edges)) == expected


def test_graph6_is_linear_in_the_bits():
    # a cycle with chords on 1,000 vertices: 499,500 bits, which a writer
    # quadratic in the bits takes seconds over
    n = 1000
    edges = [(i, (i + step) % n) for i in range(n) for step in (1, 7)]
    start = time.perf_counter()
    text = graph6_like(n, edges_code(n, edges))
    assert time.perf_counter() - start < 1.0
    assert len(text) == 4 + (n * (n - 1) // 2 + 5) // 6


def test_enumerate_cubic_counts(monkeypatch):
    assert len(enumerate_regular_graphs(4, 3)) == 1
    assert len(enumerate_regular_graphs(5, 3)) == 0  # odd n * odd r
    assert len(enumerate_regular_graphs(6, 3)) == 2
    assert len(enumerate_regular_graphs(8, 3)) == 5
    # OEIS A002851
    assert len(enumerate_regular_graphs(10, 3)) == 19
    assert len(enumerate_regular_graphs(14, 3)) == 509
    # every canonicity test is of a partial graph whose newest vertex j
    # joined the lowest earlier vertex that was still short of edges
    tested = []
    real = graphgen._max_code

    def checking(n, adj, cols=None):
        if cols is not None:
            j = n - 1
            short = [i for i in range(j) if (adj[i] & ((1 << j) - 1)).bit_count() < 3]
            tested.append(bool(short) and bool(adj[j] >> short[0] & 1))
        return real(n, adj, cols)

    monkeypatch.setattr(graphgen, "_max_code", checking)
    assert len(enumerate_regular_graphs(12, 3)) == 85
    assert 0 < len(tested) <= 1253
    assert all(tested)


def test_enumerate_quartic_counts():
    assert len(enumerate_regular_graphs(5, 4)) == 1
    assert len(enumerate_regular_graphs(6, 4)) == 1
    assert len(enumerate_regular_graphs(7, 4)) == 2
    assert len(enumerate_regular_graphs(8, 4)) == 6
    # OEIS A006820
    assert len(enumerate_regular_graphs(9, 4)) == 16
    assert len(enumerate_regular_graphs(10, 4)) == 59
    assert len(enumerate_regular_graphs(11, 4)) == 265
    graphs = enumerate_regular_graphs(12, 4)
    assert len(graphs) == 1544
    # the graph6 codes in order, so a pruning rule that loses, adds or
    # reorders a class changes the digest
    text = "\n".join(graph6_like(12, edges_code(12, g.edges)) for g in graphs)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "4dc69dca195f2b9986da3909ce55c57d6d55be93d1c73c349700b29c419c84b7")


def test_enumerate_cycles():
    for n in (3, 4, 5, 6):
        graphs = enumerate_regular_graphs(n, 2)
        assert len(graphs) == 1
        assert len(graphs[0].edges) == n


def test_enumerate_counts_match_atlas():
    # independent oracle: the networkx atlas of all graphs on <= 7 vertices
    import networkx as nx

    atlas = nx.graph_atlas_g()
    for n, r in [(4, 3), (6, 3), (5, 4), (6, 4), (7, 4), (5, 2), (6, 2), (7, 2)]:
        count = 0
        for g in atlas:
            if g.number_of_nodes() != n or g.number_of_nodes() == 0:
                continue
            degs = [d for _, d in g.degree()]
            if degs and all(d == r for d in degs) and nx.is_connected(g):
                count += 1
        assert len(enumerate_regular_graphs(n, r)) == count


def test_enumerated_graphs_are_regular_connected_distinct():
    graphs = enumerate_regular_graphs(8, 3)
    codes = set()
    for g in graphs:
        assert all(d == 3 for d in g.geometric_degrees())
        assert is_connected_edges(8, g.edges)
        codes.add(canonical_code(8, g.edges))
    assert len(codes) == len(graphs)


@pytest.mark.parametrize("merge_at", [0, graphgen.MERGE_AT])
def test_enumeration_matches_reference_generator(monkeypatch, merge_at):
    monkeypatch.setattr(graphgen, "MERGE_AT", merge_at)
    for r, n_max in [(0, 4), (1, 6), (2, 8), (3, 12), (4, 9), (5, 8), (6, 9)]:
        for n in range(n_max + 1):
            got = [g.edges for g in enumerate_regular_graphs(n, r)]
            assert got == reference_enumeration(n, r), (n, r)


def test_enumeration_canonicalises_no_leaf(monkeypatch):
    cases = [(10, 3), (9, 4)]
    expected = [reference_enumeration(n, r) for n, r in cases]
    calls = []
    monkeypatch.setattr(graphgen, "canonical_code", lambda *args: calls.append(args))
    assert [[g.edges for g in enumerate_regular_graphs(n, r)] for n, r in cases] == expected
    assert calls == []


def test_enumeration_deterministic_order():
    first = enumerate_regular_graphs(8, 4)
    second = enumerate_regular_graphs(8, 4)
    assert [g.edges for g in first] == [g.edges for g in second]


def count_latin_squares(order):
    """Independent oracle: rows are permutations, columns all-distinct."""
    perms = list(itertools.permutations(range(order)))
    count = 0
    for rows in itertools.product(perms, repeat=order):
        if all(len({rows[i][j] for i in range(order)}) == order
               for j in range(order)):
            count += 1
    return count


def test_colorings_of_complete_bipartite_are_latin_squares():
    k33 = BaseGraph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert len(list(iter_proper_colorings(k33, 3))) == count_latin_squares(3) == 12
    k44 = BaseGraph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    assert len(list(iter_proper_colorings(k44, 4))) == count_latin_squares(4) == 576


def test_colorings_k4():
    k4 = BaseGraph.from_edges(4, itertools.combinations(range(4), 2))
    colorings = list(iter_proper_colorings(k4, 3))
    assert len(colorings) == 6  # 3! assignments of colors to perfect matchings
    for colors in colorings:
        at_vertex = {}
        for (u, v), c in zip(k4.edges, colors):
            assert c not in at_vertex.setdefault(u, set())
            assert c not in at_vertex.setdefault(v, set())
            at_vertex[u].add(c)
            at_vertex[v].add(c)


def test_colorings_odd_cycle_empty():
    c5 = BaseGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert list(iter_proper_colorings(c5, 2)) == []


def test_colorings_petersen_not_three_colorable():
    assert list(iter_proper_colorings(petersen_graph(), 3)) == []
