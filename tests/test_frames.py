import itertools

import numpy as np
import pytest

from mwgraph.errors import (
    DomainError,
    NotColorableError,
    NotProjectionError,
    NotProjectionWeightsError,
    NotProperlyColoredError,
    NotScalarRegularError,
    NotTightError,
    ParseError,
    TooLargeError,
)
from mwgraph.frames import (
    FrameExistence,
    FusionFrame,
    alon_boppana_compare,
    augment_with_identity,
    build_expander,
    equiangular_frame_2d,
    eta,
    frame_existence,
    load_frame,
    named_frame,
    proper_edge_coloring,
    ratio_inequality_holds,
    search_expanders,
    verify_tight,
)
from mwgraph.graphs import BaseGraph, lift_identity
from mwgraph.linalg import kernel_dim
from mwgraph.operators import assemble

from conftest import (
    FRAME_A,
    FRAME_B,
    FRAME_C,
    complete_graph,
    count_calls,
    k33_latin_mwg,
    petersen_graph,
    unit_graph,
)


def k4_base():
    return BaseGraph.from_edges(4, itertools.combinations(range(4), 2))


def bipartite(a, b):
    return BaseGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# --- frames ------------------------------------------------------------------


def test_fusion_frame_validates_projections():
    with pytest.raises(NotProjectionError) as err:
        FusionFrame.from_projections([np.eye(2), 2 * np.eye(2)])
    assert "#1" in str(err.value)


def test_fusion_frame_ranks():
    f = FusionFrame.from_projections([FRAME_A, np.eye(2)])
    assert f.ranks == (1, 2)


@pytest.mark.parametrize("name, r", [(f"equiangular{r}{plus}", r + bool(plus))
                                     for r in range(2, 13) for plus in ("", "+I")]
                         + [(f"identity{k}", 3) for k in range(1, 6)])
def test_projection_rank_is_trace(name, r):
    # FusionFrame and eta take a checked projection's rank from its trace
    frame = named_frame(name, r_context=r)
    assert len(frame) == r
    ranks = tuple(frame.k - kernel_dim(P) for P in frame.projections)
    assert tuple(round(float(np.trace(P))) for P in frame.projections) == ranks
    assert frame.ranks == ranks


@pytest.mark.parametrize("mats, k", [([np.eye(0)] * 3, None), ([], 0), ([], -1)])
def test_fusion_frame_needs_positive_dimension(mats, k):
    with pytest.raises(DomainError, match=f"frame dimension k must be >= 1, got k={k or 0}"):
        FusionFrame.from_projections(mats, k=k)


def test_verify_tight_basis_split():
    f = FusionFrame.from_projections([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert verify_tight(f) == pytest.approx(1.0)


def test_verify_tight_paper_frame():
    f = FusionFrame.from_projections([FRAME_A, FRAME_B, FRAME_C])
    assert verify_tight(f) == pytest.approx(1.5, abs=1e-12)


def test_verify_tight_rejects_partial_frame():
    f = FusionFrame.from_projections([FRAME_A, FRAME_B])
    with pytest.raises(NotTightError):
        verify_tight(f)


def test_equiangular_r2():
    f = equiangular_frame_2d(2)
    assert np.allclose(f.projections[0], np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(f.projections[1], np.diag([0.0, 1.0]), atol=1e-15)


def test_equiangular_r3_matches_edge_labels():
    f = equiangular_frame_2d(3)
    for P, expected in zip(f.projections, (FRAME_A, FRAME_B, FRAME_C)):
        assert np.abs(P - expected).max() <= 1e-15


def test_equiangular_r4_tight():
    assert verify_tight(equiangular_frame_2d(4)) == pytest.approx(2.0, abs=1e-12)


def test_augment_with_identity():
    f = augment_with_identity(equiangular_frame_2d(3))
    assert verify_tight(f) == pytest.approx(2.5, abs=1e-12)
    again = augment_with_identity(f)
    assert verify_tight(again) == pytest.approx(3.5, abs=1e-12)


def test_augment_empty_frame():
    f = FusionFrame.from_projections([], k=2)
    assert len(f) == 0
    out = augment_with_identity(f)
    assert len(out) == 1
    assert verify_tight(out) == pytest.approx(1.0)


def test_frame_existence_window():
    assert frame_existence(4, 1, 6) == FrameExistence.EXISTS
    assert frame_existence(4, 2, 2) == FrameExistence.NONE
    # the bounds are not sharp: equiangular_frame_2d(3) exhibits (2, 1, 3)
    assert frame_existence(2, 1, 3) == FrameExistence.UNKNOWN_BY_BOUNDS


# --- colorings ---------------------------------------------------------------


def test_proper_edge_coloring_k4():
    base = k4_base()
    coloring = proper_edge_coloring(base, 3)
    # one color per edge, aligned with base.edges; all three at every vertex
    assert isinstance(coloring, tuple) and len(coloring) == len(base.edges)
    for v in range(base.n):
        assert {c for e, c in zip(base.edges, coloring) if v in e} == {0, 1, 2}


def test_proper_edge_coloring_odd_cycle():
    c5 = BaseGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(NotColorableError):
        proper_edge_coloring(c5, 2)


def test_proper_edge_coloring_petersen():
    with pytest.raises(NotColorableError):
        proper_edge_coloring(petersen_graph(), 3)


def test_edge_coloring_validation():
    # build_expander is where a coloring is checked
    base = k4_base()
    frame = equiangular_frame_2d(3)
    faults = [((0, 0, 1, 1, 2, 2), r"color 0 repeats at an endpoint of edge \(0, 2\)"),
              ((0, 1, 2), "3 colors for 6 edges"),
              ((0, 1, 2, 2, 1, 5), r"color 5 outside \[0, 3\)")]
    for colors, message in faults:
        with pytest.raises(NotProperlyColoredError, match=f"^{message}$"):
            build_expander(base, colors, frame)


# --- build_expander ----------------------------------------------------------


def test_build_expander_k4_degree():
    base = k4_base()
    G = build_expander(base, proper_edge_coloring(base, 3), equiangular_frame_2d(3))
    reg = assemble(G).regularity
    assert reg.is_scalar_regular
    assert reg.scalar_degree == pytest.approx(1.5, abs=1e-12)


def test_build_expander_four_regular_with_identity():
    base = bipartite(4, 4)
    frame = augment_with_identity(equiangular_frame_2d(3))
    G = build_expander(base, proper_edge_coloring(base, 4), frame)
    assert assemble(G).regularity.scalar_degree == pytest.approx(2.5, abs=1e-12)


def test_build_expander_bipartite_equiangular():
    for r in (2, 3):
        base = bipartite(r, r)
        G = build_expander(base, proper_edge_coloring(base, r), equiangular_frame_2d(r))
        assert assemble(G).regularity.scalar_degree == pytest.approx(r / 2, abs=1e-12)


def test_build_expander_trace_weights_are_rank():
    base = k4_base()
    G = build_expander(base, proper_edge_coloring(base, 3), equiangular_frame_2d(3))
    A_tr = assemble(G).trace_adjacency
    assert all(A_tr[u, v] == pytest.approx(1.0) for u, v in G.base.edges)


def test_build_expander_rejects_irregular():
    base = BaseGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotProperlyColoredError):
        build_expander(base, (0, 1), equiangular_frame_2d(2))


def test_build_expander_rejects_untight_frame():
    base = k4_base()
    frame = FusionFrame.from_projections([FRAME_A, FRAME_B, FRAME_B])
    with pytest.raises(NotTightError):
        build_expander(base, proper_edge_coloring(base, 3), frame)


# --- eta ---------------------------------------------------------------------


def test_eta_complete_identity_lift():
    for n in (3, 4, 5):
        for k in (1, 2):
            G = lift_identity(complete_graph(n), k)
            rep = eta(assemble(G))
            assert rep.d == pytest.approx(n - 1)
            assert rep.eta == pytest.approx(n - 2, abs=1e-9)
            assert rep.mu_nontrivial_min == pytest.approx(-1.0, abs=1e-9)
            assert not rep.multiplicity_warning


def test_eta_disconnected_is_zero_with_warning():
    G = lift_identity(unit_graph(4, [(0, 1), (2, 3)]), 2)
    rep = eta(assemble(G))
    assert rep.eta == pytest.approx(0.0, abs=1e-12)
    assert rep.multiplicity_warning


def test_eta_c4_alternating_projections():
    base = BaseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    G = build_expander(base, proper_edge_coloring(base, 2), equiangular_frame_2d(2))
    rep = eta(assemble(G))
    assert rep.d == pytest.approx(1.0)
    assert rep.eta == pytest.approx(0.0, abs=1e-12)
    assert rep.multiplicity_warning


def test_eta_rejects_non_projection_weights():
    from mwgraph.graphs import MatrixWeightedGraph
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, 2.0 * np.eye(2))])
    with pytest.raises(NotProjectionWeightsError):
        eta(assemble(G))


def test_eta_rejects_irregular():
    G = lift_identity(unit_graph(3, [(0, 1), (1, 2)]), 1)
    with pytest.raises(NotScalarRegularError):
        eta(assemble(G))


def test_eta_irregular_fails_before_any_operator():
    # regularity is read off the degree blocks: no kn x kn operator is formed
    ops = assemble(lift_identity(unit_graph(3, [(0, 1)]), 2))
    with pytest.raises(NotScalarRegularError):
        eta(ops)
    assert not {"adjacency", "laplacian", "degree"} & set(vars(ops))


def test_eta_alon_boppana_fields():
    base = k4_base()
    G = build_expander(base, proper_edge_coloring(base, 3), equiangular_frame_2d(3))
    rep = eta(assemble(G))
    # uniform rank 1, geometric degree 3, k = 2
    assert rep.alon_boppana_matrix == pytest.approx(2 * 0.5 * np.sqrt(2.0))
    assert rep.alon_boppana_classical == pytest.approx(np.sqrt(2.0))


def test_eta_invariant_under_relabeling_and_color_swap(rng):
    G = k33_latin_mwg()
    base_eta = eta(assemble(G)).eta
    # relabel vertices
    perm = list(rng.permutation(6))
    from mwgraph.graphs import MatrixWeightedGraph
    relabeled = MatrixWeightedGraph.from_weights(
        6, 2, [(perm[u], perm[v], w) for (u, v), w in G.weights.items()])
    assert eta(assemble(relabeled)).eta == pytest.approx(base_eta, abs=1e-10)
    # swapping two frame elements across all edges permutes the weighting
    # consistently, which leaves the spectrum unchanged
    items = []
    for (u, v), w in G.weights.items():
        if np.allclose(w, FRAME_A):
            items.append((u, v, FRAME_B))
        elif np.allclose(w, FRAME_B):
            items.append((u, v, FRAME_A))
        else:
            items.append((u, v, w))
    permuted = MatrixWeightedGraph.from_weights(6, 2, items)
    assert eta(assemble(permuted)).eta == pytest.approx(base_eta, abs=1e-10)


def test_constructed_expander_trace_consistency():
    # k mu_2(A_W) >= l mu_2(A_G) for uniform-rank frame constructions
    for r, base in ((3, k4_base()), (3, bipartite(3, 3)), (2, bipartite(2, 2))):
        frame = equiangular_frame_2d(r)
        G = build_expander(base, proper_edge_coloring(base, r), frame)
        k, l = 2, 1
        mu_w = eta(assemble(G)).mu_nontrivial_max
        scalar = unit_graph(base.n, base.edges)
        mu_g = np.linalg.eigvalsh(assemble(scalar).adjacency)[::-1][1]
        assert k * mu_w >= l * mu_g - 1e-9


# --- Alon-Boppana ------------------------------------------------------------


def test_alon_boppana_example():
    bounds = alon_boppana_compare(4, 1, 2)
    assert bounds.matrix_bound == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert bounds.classical_bound == pytest.approx(2.0, abs=1e-12)


def test_alon_boppana_identity_reduction():
    # l = k collapses the matrix bound to the classical one at d = r
    bounds = alon_boppana_compare(4, 2, 2)
    assert bounds.matrix_bound == pytest.approx(bounds.classical_bound, abs=1e-12)


def test_alon_boppana_fractional_degree():
    bounds = alon_boppana_compare(3, 1, 2)
    assert bounds.matrix_bound == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert bounds.classical_bound == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_alon_boppana_domain_error():
    with pytest.raises(DomainError):
        alon_boppana_compare(2, 1, 2)  # d = 1
    with pytest.raises(DomainError):
        alon_boppana_compare(1, 1, 1)


def test_ratio_inequality():
    assert ratio_inequality_holds(3, 4) is True
    assert ratio_inequality_holds(2, 4) is None
    assert ratio_inequality_holds(4, 4) is None
    for r in range(4, 13):
        for d in range(3, r):
            assert ratio_inequality_holds(d, r) is True


# --- search ------------------------------------------------------------------


def test_search_r2_only_even_cycles():
    results = search_expanders(5, 2, equiangular_frame_2d(2))
    # C3 and C5 admit no proper 2-edge-coloring; only C4 contributes
    assert results
    assert {res.n for res in results} == {4}
    assert all(res.report.eta == pytest.approx(0.0, abs=1e-12) for res in results)


def test_search_r3_includes_k4():
    results = search_expanders(4, 3, equiangular_frame_2d(3))
    assert len(results) == 6  # the six color assignments of K4's matchings
    assert all(res.n == 4 for res in results)
    etas = [res.report.eta for res in results]
    assert max(etas) == pytest.approx(0.0, abs=1e-12)
    assert all(res.report.d == pytest.approx(1.5) for res in results)


def test_search_sorted_by_eta():
    results = search_expanders(6, 3, equiangular_frame_2d(3))
    etas = [res.report.eta for res in results]
    assert etas == sorted(etas, reverse=True)


def test_search_identity_frame_dedupes_colorings():
    frame = named_frame("identity2", r_context=2)
    results = search_expanders(4, 2, frame)
    # both proper 2-colorings of C4 give the same identity weighting
    assert len(results) == 1
    assert results[0].report.d == pytest.approx(2.0)


def test_search_keeps_colorings_of_unequal_elements():
    # the elements differ by 1e-13 in one entry: both pass as projections and
    # the frame as tight, but the weightings differ, so C4's two colorings
    # give two records.  -0.0 and 0.0 entries are equal, as == has them
    from mwgraph import frames
    nearly = FusionFrame.from_projections([np.eye(2), np.diag([1.0, 1.0 - 1e-13])])
    assert frames._projection_groups(nearly) == [0, 1]
    results = search_expanders(4, 2, nearly)
    assert sorted(res.coloring for res in results) == [(0, 1, 1, 0), (1, 0, 0, 1)]
    signed = FusionFrame.from_projections([np.eye(2), np.array([[1.0, -0.0], [-0.0, 1.0]])])
    assert frames._projection_groups(signed) == [0, 0]
    # the benchmark's frames
    assert frames._projection_groups(named_frame("equiangular3+I", 4)) == [0, 1, 2, 3]
    assert frames._projection_groups(named_frame("identity2", 3)) == [0, 0, 0]


def test_search_identity_frame_colors_each_graph_once(monkeypatch):
    # every coloring, one record per distinct weighting, which for identity
    # copies is the first coloring listed: the search draws no other
    from mwgraph import frames, jsonio
    from mwgraph.graphgen import edges_code, enumerate_regular_graphs, graph6_like
    frame = named_frame("identity2", r_context=3)
    groups = frames._projection_groups(frame)
    expected = []
    for n in range(4, 11, 2):
        for graph in enumerate_regular_graphs(n, 3):
            code = graph6_like(n, edges_code(n, graph.edges))
            seen = set()
            for coloring in frames.iter_proper_colorings(graph, 3):
                key = tuple(groups[c] for c in coloring)
                if key not in seen:
                    seen.add(key)
                    report = eta(assemble(build_expander(graph, coloring, frame)))
                    expected.append(frames.SearchResult(n, code, graph, coloring, report))
    expected.sort(key=lambda res: (-res.report.eta, res.code, res.coloring))
    drawn = []
    listing = frames.iter_proper_colorings

    def counting(graph, r):
        for coloring in listing(graph, r):
            drawn.append(coloring)
            yield coloring

    monkeypatch.setattr(frames, "iter_proper_colorings", counting)
    results = search_expanders(10, 3, frame)
    assert len(results) == 1 + 2 + 5 + 17
    assert ([jsonio.dumps(res.to_jsonable()) for res in results]
            == [jsonio.dumps(res.to_jsonable()) for res in expected])
    assert len(drawn) == len(results)


def test_search_validates_once(monkeypatch):
    # per coloring: build_expander checks the coloring once, from_weights
    # symmetrizes and judges its weights as one stack with one eigvalsh, and
    # eta solves the adjacency once; eta reads ranks off the traces of the
    # projections it checks, so nothing is symmetrized matrix by matrix
    from mwgraph import frames, graphs, linalg
    frame = augment_with_identity(equiangular_frame_2d(3))
    sym = count_calls(monkeypatch, "as_symmetric", frames, linalg)
    stacked = count_calls(monkeypatch, "_checked_psd", graphs)
    solves = count_calls(monkeypatch, "eigvalsh", np.linalg)
    builds = count_calls(monkeypatch, "build_expander", frames)
    results = search_expanders(7, 4, frame)
    assert len(results) == 48
    assert len(sym) == 0
    assert len(stacked) == len(results)
    assert len(solves) == 2 * len(results)
    assert len(builds) == len(results)


def test_search_skips_odd_n(monkeypatch):
    # r colors at every vertex make each color class a perfect matching, so
    # no odd n is enumerated and n_max = 9 gives the records of n_max = 8
    from mwgraph import frames, jsonio
    frame = named_frame("identity2", r_context=4)
    sizes = []
    real = frames.enumerate_regular_graphs

    def recording(n, r):
        sizes.append(n)
        return real(n, r)

    monkeypatch.setattr(frames, "enumerate_regular_graphs", recording)
    records = [[jsonio.dumps(res.to_jsonable()) for res in search_expanders(n_max, 4, frame)]
               for n_max in (8, 9)]
    assert records[0] and records[1] == records[0]
    assert sizes == [6, 8, 6, 8]


def test_equiangular3_expanders_have_eta_zero():
    # d = rl/k = 3/2 < 2: A + dI = sum_e (e_u + e_v)(e_u + e_v)^T (x) P_e has
    # rank <= |E| l = nrl/2 < nk, so mu = -d has multiplicity >= n(k - rl/2)
    # and eta = d - |mu_min| is 0 up to rounding
    frame = equiangular_frame_2d(3)
    r, l, k = 3, 1, 2
    results = search_expanders(10, r, frame)
    assert len(results) == 384
    for res in results:
        mu = np.linalg.eigvalsh(assemble(build_expander(res.graph, res.coloring, frame)).adjacency)
        d = res.report.d
        assert d == r * l / k
        assert abs(mu[0] + d) <= 1e-12
        assert np.sum(np.abs(mu + d) <= 1e-12) >= res.n * (k - r * l / 2)
        assert abs(res.report.eta) <= 1e-14


def test_search_caps_n_max():
    with pytest.raises(TooLargeError):
        search_expanders(13, 3, equiangular_frame_2d(3))


def test_search_frame_size_mismatch():
    with pytest.raises(ValueError):
        search_expanders(6, 4, equiangular_frame_2d(3))


def test_search_locates_known_eta_instance():
    # frozen from the exhaustive search: exactly one isomorphism class of
    # 4-regular graphs on <= 8 vertices weighted by {the three line
    # projections, I} attains eta ~ 0.0947 with nontrivial mu in
    # [-2.4053, 1.8028]; all 12 hits are colorings of that graph
    frame = augment_with_identity(equiangular_frame_2d(3))
    results = search_expanders(8, 4, frame)
    matches = [r for r in results
               if abs(r.report.eta - 0.094) <= 2e-3
               and abs(r.report.mu_nontrivial_min + 2.406) <= 2e-3
               and abs(r.report.mu_nontrivial_max - 1.803) <= 2e-3]
    assert len(matches) == 12
    assert {m.code for m in matches} == {"G}hHg{"}
    assert matches[0].report.mu_nontrivial_max == pytest.approx(np.sqrt(13) / 2, abs=1e-9)
    # best two-sided expansion found anywhere in the range
    assert results[0].report.eta == pytest.approx(0.4089301659, abs=1e-9)


def test_sample_expanders_beyond_exhaustive_cap():
    from mwgraph.frames import sample_expanders
    frame = equiangular_frame_2d(3)
    first = sample_expanders(14, 3, frame, samples=3, seed=7)
    assert len(first) == 3
    for res in first:
        assert res.n == 14
        assert res.report.d == pytest.approx(1.5, abs=1e-10)
        assert len(res.graph.edges) == 21
    second = sample_expanders(14, 3, frame, samples=3, seed=7)
    assert [(r.code, r.coloring, r.report.eta) for r in first] == \
           [(r.code, r.coloring, r.report.eta) for r in second]
    other_seed = sample_expanders(14, 3, frame, samples=3, seed=8)
    assert len(other_seed) == 3


def test_sample_expanders_rejects_impossible():
    from mwgraph.frames import sample_expanders
    with pytest.raises(ValueError):
        sample_expanders(5, 3, equiangular_frame_2d(3), samples=1)  # odd n * odd r
    with pytest.raises(NotColorableError):
        # 4-regular graphs on 21 vertices exist, proper 4-edge-colorings do not
        sample_expanders(21, 4, augment_with_identity(equiangular_frame_2d(3)), samples=1)


def test_search_workers_match_serial():
    frame = equiangular_frame_2d(3)
    serial = search_expanders(6, 3, frame, workers=1)
    parallel = search_expanders(6, 3, frame, workers=2)
    assert [(r.n, r.code, r.coloring, r.report.eta) for r in serial] == \
           [(r.n, r.code, r.coloring, r.report.eta) for r in parallel]


# --- named frames and files --------------------------------------------------


def test_named_frames():
    assert len(named_frame("equiangular3")) == 3
    assert len(named_frame("equiangular3+I")) == 4
    assert verify_tight(named_frame("identity3", r_context=2)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        named_frame("identity3")
    with pytest.raises(ValueError):
        named_frame("nonsense")


def test_load_frame_json():
    doc = b'{"k": 2, "projections": [[1, 0, 0, 0], [0, 0, 0, 1]]}'
    f = load_frame(doc)
    assert len(f) == 2 and f.k == 2
    assert verify_tight(f) == pytest.approx(1.0)


def test_load_frame_errors():
    with pytest.raises(ParseError):
        load_frame(b'{"k": 2, "projections": [[1, 0]]}')
    for data in (b"{bad", b"\xff", b"[1]"):
        with pytest.raises(ParseError):
            load_frame(data)
    with pytest.raises(NotProjectionError):
        load_frame(b'{"k": 1, "projections": [[2.0]]}')


@pytest.mark.parametrize("doc", [
    '{"k": 2.7, "projections": [[1, 0, 0, 0], [0, 0, 0, 1]]}',  # read as k = 2
    '{"k": "2", "projections": [[1, 0, 0, 0], [0, 0, 0, 1]]}',
    '{"k": true, "projections": [[1]]}',
    '{"k": 2, "projections": [[1, 0, 0, 0], [0, 0, 0, "1"]]}',
    '{"k": 2, "projections": [[1, 0, 0, 0], [0, 0, 0, true]]}',
])
def test_load_frame_accepts_only_an_integer_k_and_numeric_entries(doc):
    with pytest.raises(ParseError, match="must be a JSON"):
        load_frame(doc)
