import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from mwgraph.errors import (
    DomainError,
    MwgError,
    NotColorableError,
    NotProjectionError,
    NotProjectionWeightsError,
    NotProperlyColoredError,
    NotPsdError,
    NotScalarRegularError,
    NotTightError,
    ParseError,
    SampleShortfallError,
    TooLargeError,
)
from mwgraph.frames import (
    FusionFrame,
    alon_boppana_compare,
    augment_with_identity,
    build_expander,
    equiangular_frame_2d,
    eta,
    load_frame,
    named_frame,
    proper_edge_coloring,
    ratio_inequality_holds,
    sample_expanders,
    search_expanders,
    verify_tight,
)
from mwgraph.acceptance import regular_tetrahedron_truss
from mwgraph.graphgen import enumerate_regular_graphs, iter_proper_colorings
from mwgraph.graphs import (LOAD_MAX_NK, BaseGraph, MatrixWeightedGraph, is_connected_edges,
                            lift_identity)
from mwgraph.linalg import DEFAULT_TOL, Tolerances, kernel_dim_of_values
from mwgraph.operators import assemble
from mwgraph.sheaf import Truss

from conftest import (
    FRAME_A,
    FRAME_B,
    FRAME_C,
    complete_graph,
    count_calls,
    k33_latin_mwg,
    petersen_graph,
    reference_as_symmetric,
    reference_eta,
    reference_weights,
    same_bits,
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
    ranks = tuple(frame.k - kernel_dim_of_values(np.linalg.eigvalsh(P))
                  for P in frame.projections)
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
    # build_expander is where a coloring is checked, in this order: the
    # graph's regularity, the color count, each color's range, then its
    # repeats, and the frame's tightness last.  Each fault also carries
    # every later one, so the message shows which check comes first
    base = k4_base()
    untight = FusionFrame.from_projections([FRAME_A, FRAME_B, FRAME_B])
    path = BaseGraph.from_edges(3, [(0, 1), (1, 2)])
    faults = [(path, (5, 5), r"graph is not 3-regular \(degrees \[1, 2\]\)"),
              (base, (5, 5, 5), "3 colors for 6 edges"),
              (base, (5, 0, 0, 1, 1, 2), r"color 5 outside \[0, 3\)"),
              (base, (0, 0, 1, 1, 2, 2), r"color 0 repeats at an endpoint of edge \(0, 2\)"),
              (base, (0, 1, 2, 2, 1, 5), r"color 5 outside \[0, 3\)")]
    for graph, colors, message in faults:
        for frame in (equiangular_frame_2d(3), untight):
            with pytest.raises(NotProperlyColoredError, match=f"^{message}$"):
                build_expander(graph, colors, frame)
    with pytest.raises(NotTightError):
        build_expander(base, proper_edge_coloring(base, 3), untight)


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


def test_build_expander_rejects_nk_over_the_load_bound():
    # a 66-vertex perfect matching is 1-regular, and identity64 passes
    # named_frame's (r + 1) k <= LOAD_MAX_NK at r = 1, but n k = 4,224: the
    # size is checked before the coloring and before any operator is placed
    base = BaseGraph.from_edges(66, [(2 * i, 2 * i + 1) for i in range(33)])
    frame = named_frame("identity64", 1)
    with pytest.raises(TooLargeError, match="^n \\* k = 4224 exceeds the limit of 4096$"):
        build_expander(base, (0,) * 33, frame)
    with pytest.raises(TooLargeError):
        build_expander(base, (), frame)


def _signed_zeros(mats):
    """The matrices with every zero entry written as -0.0."""
    return [np.where(np.asarray(P) == 0.0, -0.0, P) for P in mats]


def test_build_expander_stores_the_checked_constructor_bits():
    # build_expander places rows of the frame's stack with no further check;
    # the result is what the checked constructor stores for the items
    # (u, v, P_c), P_c symmetrized as the frame's input was: -0.0 as 0.0
    from mwgraph import frames
    rng = np.random.default_rng(7)
    equi3 = list(equiangular_frame_2d(3).projections)
    inputs = [equi3, _signed_zeros(equi3), list(named_frame("equiangular3+I").projections),
              [np.eye(2)] * 4, _signed_zeros([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])]
    for mats in inputs:
        frame = FusionFrame.from_projections(mats)
        raw = [reference_as_symmetric(P, DEFAULT_TOL) for P in mats]
        for n in (6, 8, 10) * 3:
            draw = None
            while draw is None:
                draw = frames._matching_union(rng, n, len(mats))
            base = BaseGraph.from_edges(n, draw[0])
            G = build_expander(base, draw[1], frame)
            items = [(u, v, raw[c]) for (u, v), c in zip(base.edges, draw[1])]
            expected = reference_weights(frame.k, items, DEFAULT_TOL)
            assert G.base == base and tuple(expected) == base.edges
            assert G.weight_stack.tobytes() == b"".join(w.tobytes() for w in expected.values())
            assert not np.signbit(G.weight_stack[G.weight_stack == 0.0]).any()
            assert not G.weight_stack.flags.writeable


def test_frames_graphs_and_bundles_compare_and_hash_by_value():
    # equal stacks compare equal and hash alike, -0.0 read as 0.0; neither
    # == nor hash raises on the array fields, nor on a bundle holding them
    frame, again = named_frame("equiangular3"), named_frame("equiangular3")
    signed = FusionFrame(frame.k, np.where(frame.projections == 0.0, -0.0, frame.projections),
                         frame.ranks)
    assert frame is not again and frame == again == signed
    assert hash(frame) == hash(again) == hash(signed) and len({frame, again, signed}) == 1
    assert frame != named_frame("equiangular3+I") and frame != equiangular_frame_2d(4)
    assert frame != FusionFrame(frame.k, frame.projections[::-1], frame.ranks)
    assert frame != "equiangular3"
    base = k4_base()
    colors = proper_edge_coloring(base, 3)
    G, H = build_expander(base, colors, frame), build_expander(base, colors, again)
    assert G is not H and G == H and hash(G) == hash(H) and len({G, H}) == 1
    assert G != build_expander(base, tuple((c + 1) % 3 for c in colors), frame)
    assert G != lift_identity(unit_graph(4, base.edges), 2)
    ops = assemble(G)
    assert ops.laplacian_values is not None  # a filled cache is not compared
    assert ops == assemble(H) and hash(ops) == hash(assemble(H))
    assert ops != assemble(G, Tolerances(psd_tol=1e-6))


def test_regularity_and_truss_compare_and_hash_by_value():
    # dataclasses with array fields, whose generated == and hash raised
    k44 = bipartite(4, 4)
    G = build_expander(k44, proper_edge_coloring(k44, 4), named_frame("equiangular3+I"))
    reg, again = assemble(G).regularity, assemble(G).regularity
    assert reg is not again and reg == again and hash(reg) == hash(again)
    assert len({reg, again}) == 1
    assert reg != assemble(lift_identity(unit_graph(3, [(0, 1), (1, 2)]), 2)).regularity
    truss, same = regular_tetrahedron_truss(), regular_tetrahedron_truss()
    assert truss is not same and truss == same and hash(truss) == hash(same)
    assert len({truss, same}) == 1
    assert truss != Truss.make(truss.points, [(u, v, 2.0) for u, v in truss.edges])
    assert truss != Truss.make(-truss.points, [(u, v, 1.0) for u, v in truss.edges])
    assert truss != Truss.make(truss.points, [(u, v, 1.0) for u, v in truss.edges[1:]])


def test_frame_stack_is_one_read_only_array():
    frame = FusionFrame.from_projections(_signed_zeros([np.diag([1.0, 0.0]),
                                                        np.diag([0.0, 1.0])]))
    assert isinstance(frame.projections, np.ndarray)
    assert frame.projections.shape == (2, 2, 2) and not frame.projections.flags.writeable
    assert not np.signbit(frame.projections).any()
    assert FusionFrame.from_projections([], k=3).projections.shape == (0, 3, 3)


def test_near_projection_frame_is_rejected_when_built():
    # an eigenvalue of -5e-9 passes as a projection (residual 5e-9 within
    # resid_tol) but not the PSD floor (-1e-9), so the frame that would have
    # failed in build_expander fails where it is built; at -5e-10 it passes
    near = np.diag([1.0, -5e-9])
    doc = json.dumps({"k": 2, "projections": [[1.0, 0.0, 0.0, 1.0], near.ravel().tolist()]})
    with pytest.raises(NotPsdError, match="^element #1 is not PSD$"):
        FusionFrame.from_projections([np.eye(2), near])
    with pytest.raises(NotPsdError, match="^element #1 is not PSD$"):
        load_frame(doc)
    assert FusionFrame.from_projections([np.eye(2), near], Tolerances(psd_tol=1e-8)).ranks == (2, 1)
    assert FusionFrame.from_projections([np.eye(2), np.diag([1.0, -5e-10])]).ranks == (2, 1)


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
        6, 2, [(perm[u], perm[v], w) for (u, v), w in zip(G.base.edges, G.weight_stack)])
    assert eta(assemble(relabeled)).eta == pytest.approx(base_eta, abs=1e-10)
    # swapping two frame elements across all edges permutes the weighting
    # consistently, which leaves the spectrum unchanged
    items = []
    for (u, v), w in zip(G.base.edges, G.weight_stack):
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
    # the frame's tightness is checked once per search; the colorings,
    # proper as enumerated, are not checked again, and the frame's stack,
    # checked when the frame was built, is placed with no further check;
    # the colorings of one graph share one eigvalsh of their adjacencies,
    # and each weight is checked to be a projection once; ranks are read
    # off the traces, so nothing is symmetrized matrix by matrix
    from mwgraph import frames, graphs, linalg
    frame = augment_with_identity(equiangular_frame_2d(3))
    sym = count_calls(monkeypatch, "as_symmetric", frames, linalg)
    stacked = count_calls(monkeypatch, "_checked_psd", frames, graphs, linalg)
    merged = count_calls(monkeypatch, "_from_stack", graphs.MatrixWeightedGraph)
    solves = count_calls(monkeypatch, "eigvalsh", np.linalg)
    tight = count_calls(monkeypatch, "verify_tight", frames)
    projections = count_calls(monkeypatch, "is_projection", frames)
    results = search_expanders(7, 4, frame)
    assert len(results) == 48
    assert len(sym) == len(stacked) == len(merged) == 0
    assert len(solves) == len({res.code for res in results}) == 1
    assert len(projections) == sum(len(res.graph.edges) for res in results) == 576
    assert len(tight) == 1


@pytest.mark.parametrize("source", ["search_frame", "search_enum", "samples"])
def test_stacked_reports_are_eta_bitwise(source):
    # every record of both benchmark searches and five sampled draws: the
    # report solved with its graph's other colorings is eta's, solved
    # alone, and the per-graph reference's, field by field and bit by bit
    if source == "search_frame":
        frame = named_frame("equiangular3+I")
        results = search_expanders(8, 4, frame)
    elif source == "search_enum":
        frame = named_frame("identity2", 3)
        results = search_expanders(12, 3, frame)
    else:
        frame = named_frame("equiangular3+I")
        results = sample_expanders(20, 4, frame, samples=5, seed=0)
    assert len(results) == {"search_frame": 1488, "search_enum": 105, "samples": 5}[source]
    for res in results:
        G = build_expander(res.graph, res.coloring, frame)
        assert same_bits(res.report, eta(assemble(G)))
        assert same_bits(res.report, reference_eta(G))


def _expander_graphs(bad=(), at=0):
    """Four n = 8, k = 2 frame expanders, the colorings of one graph, with
    the graphs ``bad`` inserted at index ``at``."""
    frame = named_frame("equiangular3+I")
    base = enumerate_regular_graphs(8, 4)[0]
    colorings = itertools.islice(iter_proper_colorings(base, 4), 4)
    graphs = [build_expander(base, coloring, frame) for coloring in colorings]
    graphs[at:at] = bad
    return graphs


def _edges_and_weights(graphs):
    """The (N, m, 2) edges and (N, m, k, k) weights of N graphs of one shape."""
    return (np.array([G.base.edges for G in graphs], dtype=np.intp),
            np.array([G.weight_stack for G in graphs]))


def _irregular_member():
    # K_{4,4} with edge (0, 4) moved to (0, 1): 8 vertices and 16 edges, as
    # the expanders have, weighted by the frame's projections, but vertex 1
    # meets five weights and vertex 4 three
    P = named_frame("equiangular3+I").projections
    edges = [(0, 1)] + [(u, v) for u in range(4) for v in range(4, 8) if (u, v) != (0, 4)]
    return MatrixWeightedGraph.from_weights(
        8, 2, [(u, v, P[i % 4]) for i, (u, v) in enumerate(edges)])


def _non_projection_member():
    # 3/2 P_0 and I - 1/2 P_0 in place of P_0 and I keep every degree block
    # 5/2 I (up to rounding) and every weight PSD, but neither is a projection
    frame = named_frame("equiangular3+I")
    P = frame.projections
    weights_of = [1.5 * P[0], P[1], P[2], np.eye(2) - 0.5 * P[0]]
    base = enumerate_regular_graphs(8, 4)[0]
    coloring = next(iter_proper_colorings(base, 4))
    weights = [weights_of[c] for c in coloring]
    return MatrixWeightedGraph.from_weights(
        8, 2, [(u, v, w) for (u, v), w in zip(base.edges, weights)])


def _first_error(calls):
    try:
        for call in calls:
            call()
    except MwgError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("members", [["irregular"], ["non_projection"],
                                     ["irregular", "non_projection"],
                                     ["non_projection", "irregular"]],
                         ids=["irregular", "non_projection", "irregular_first",
                              "non_projection_first"])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_a_group_raises_what_eta_in_turn_raises(members, at, monkeypatch):
    # with two bad members, the first one's error: each graph's regularity
    # and then its weights are checked before the next graph's
    from mwgraph import frames
    bad = [_irregular_member() if member == "irregular" else _non_projection_member()
           for member in members]
    graphs = _expander_graphs(bad, at)
    expected = _first_error([lambda G=G: reference_eta(G) for G in graphs])
    assert expected[0] is (NotScalarRegularError if members[0] == "irregular"
                           else NotProjectionWeightsError)
    edges, weights = _edges_and_weights(graphs)
    assert _first_error([lambda: frames._expander_reports(8, 2, DEFAULT_TOL, edges,
                                                          weights)]) == expected
    assert _first_error([lambda G=G: eta(assemble(G)) for G in graphs]) == expected
    # runs of two: the error is met in the run that holds the first bad member.
    # The trusted constructor takes every weight as a frame element, so
    # graph i's coloring is the indices of its own weights
    monkeypatch.setattr(frames, "REPORT_BUDGET", 2 * 8 * (16 * 16 + (32 + 8) * 4))
    every_weight = FusionFrame(2, weights.reshape(-1, 2, 2), ())
    colorings = [tuple(range(16 * i, 16 * (i + 1))) for i in range(len(graphs))]
    assert _first_error([lambda: frames._reports(8, edges, colorings, every_weight,
                                                 DEFAULT_TOL)]) == expected


def test_eta_leaves_no_adjacency_on_the_bundle():
    for ops in [assemble(G) for G in _expander_graphs()]:
        assert same_bits(eta(ops), reference_eta(ops.graph))
        kn = ops.n * ops.k
        assert not [name for name, value in vars(ops).items()
                    if isinstance(value, np.ndarray) and value.shape[-2:] == (kn, kn)]


def test_stacked_reports_are_cut_by_the_byte_budget(monkeypatch):
    # a graph of r = 4, n = 8, k = 2 counts its 16 x 16 adjacency, its 16
    # weights twice and its 8 degree blocks: 39 fit REPORT_BUDGET; at a
    # budget of two, four colorings take two eigvalsh calls
    from mwgraph import frames
    one = 8 * (16 * 16 + (2 * 16 + 8) * 2 * 2)
    assert frames.REPORT_BUDGET // one == 39
    monkeypatch.setattr(frames, "REPORT_BUDGET", 2 * one)
    frame = named_frame("equiangular3+I")
    base = enumerate_regular_graphs(8, 4)[0]
    colorings = list(itertools.islice(iter_proper_colorings(base, 4), 4))
    edges = np.broadcast_to(np.array(base.edges, dtype=np.intp), (4, 16, 2))
    solves = count_calls(monkeypatch, "eigvalsh", np.linalg)
    reports = frames._reports(8, edges, colorings, frame, DEFAULT_TOL)
    assert len(solves) == 2
    assert all(same_bits(rep, reference_eta(G))
               for G, rep in zip(_expander_graphs(), reports))


def test_searches_place_no_graph_or_bundle_per_coloring(monkeypatch):
    # the colorings the search enumerates and the draws sampling makes are
    # proper as made: the frame is placed on them as arrays, with no
    # MatrixWeightedGraph or bundle formed for any one of them
    from mwgraph import frames

    def forbidden(*args, **kwargs):
        raise AssertionError("formed a graph or a bundle")

    monkeypatch.setattr(frames, "MatrixWeightedGraph", forbidden)
    monkeypatch.setattr(frames, "assemble", forbidden, raising=False)
    frame = named_frame("equiangular3+I")
    assert len(search_expanders(7, 4, frame)) == 48
    assert len(sample_expanders(20, 4, frame, samples=3)) == 3


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_peak_does_not_grow_with_samples():
    # an n = 4, k = 128 draw holds 1.25 MiB of weights and degree blocks
    # once solved; keeping every draw's bundle to the end held 12 MiB more
    # at 12 samples than at 2
    frame = named_frame("identity128", 3)
    few, many = (_traced_peak(lambda s=s: sample_expanders(4, 3, frame, samples=s))
                 for s in (2, 12))
    assert many < few + (1 << 20)


def test_search_peak_does_not_grow_with_colorings():
    # a tight frame of three distinct k = 64 projections gives 24 records
    # up to n = 6; identity64 gives one per graph, three.  Keeping each
    # graph's bundles to its last coloring held 5 MiB more
    k = 64
    half = np.diag([1.0] * (k // 2) + [0.0] * (k // 2))
    distinct = FusionFrame.from_projections([half, np.eye(k) - half, np.eye(k)])
    identity = named_frame("identity64", 3)
    assert [len(search_expanders(6, 3, f)) for f in (distinct, identity)] == [24, 3]
    one, many = (_traced_peak(lambda f=f: search_expanders(6, 3, f))
                 for f in (identity, distinct))
    assert many < one + (1 << 20)


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


def test_search_refuses_n_max_k_past_the_size_bound_before_enumerating(monkeypatch):
    # n_max * k = 4,800 > 4,096: an n = 12 graph would need 4,800 x 4,800
    # operators; n_max = 10 (4,000) reaches the enumeration
    from mwgraph import frames

    def forbidden(n, r):
        raise AssertionError("enumerated")

    monkeypatch.setattr(frames, "enumerate_regular_graphs", forbidden)
    frame = named_frame("identity400", 3)
    with pytest.raises(TooLargeError, match="n_max \\* k = 4800 exceeds the limit of 4096"):
        search_expanders(12, 3, frame)
    with pytest.raises(AssertionError, match="enumerated"):
        search_expanders(10, 3, frame)


def test_search_pool_is_forked(monkeypatch):
    import multiprocessing
    methods = []
    real = multiprocessing.get_context

    def recording(method=None):
        methods.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    frame = equiangular_frame_2d(3)
    serial = search_expanders(6, 3, frame)
    assert methods == []
    pooled = search_expanders(6, 3, frame, workers=2)
    assert methods == ["fork"]
    assert len(serial) == len(pooled) == 24
    assert all(a.coloring == b.coloring and same_bits(a.report, b.report)
               for a, b in zip(serial, pooled))


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


def test_sample_expanders_rejects_a_negative_seed():
    with pytest.raises(DomainError, match="^seed must be >= 0$"):
        sample_expanders(8, 3, named_frame("equiangular3"), samples=1, seed=-1)


@pytest.mark.parametrize("samples", [0, -2])
def test_sample_expanders_rejects_fewer_than_one_sample(samples):
    # checked before the frame and the size, so a bad count never reads as
    # an empty result
    with pytest.raises(DomainError, match="^samples must be >= 1$"):
        sample_expanders(20, 4, named_frame("equiangular3+I"), samples=samples)


@pytest.mark.parametrize("r", [0, -1])
def test_identity_frame_names_a_colour_count_below_one(r):
    message = f"^identity{{k}} frame needs r >= 1 colors, got r = {r}$"
    with pytest.raises(DomainError, match=message):
        named_frame("identity2", r)


@pytest.mark.parametrize("projections_pass, error", [(True, SampleShortfallError),
                                                     (False, NotProjectionWeightsError)])
def test_sampling_shortfall_comes_after_a_drawn_graphs_error(monkeypatch, projections_pass,
                                                             error):
    # one draw succeeds and every later one fails: the drawn graph is solved
    # before the shortfall is raised, so its error comes first
    from mwgraph import frames
    rng, draw = np.random.default_rng(0), None
    while draw is None:
        draw = frames._matching_union(rng, 8, 3)
    draws = []

    def once(rng, n, r):
        draws.append(1)
        return draw if len(draws) == 1 else None

    frame = named_frame("identity2", 3)
    monkeypatch.setattr(frames, "_matching_union", once)
    if not projections_pass:
        monkeypatch.setattr(frames, "is_projection", lambda P, tol: False)
    with pytest.raises(error):
        sample_expanders(8, 3, frame, samples=2)
    assert len(draws) == 2 * frames._draw_budget(3)


def test_sample_expanders_rejects_impossible():
    with pytest.raises(ValueError):
        sample_expanders(5, 3, equiangular_frame_2d(3), samples=1)  # odd n * odd r
    with pytest.raises(NotColorableError):
        # 4-regular graphs on 21 vertices exist, proper 4-edge-colorings do not
        sample_expanders(21, 4, augment_with_identity(equiangular_frame_2d(3)), samples=1)


@pytest.mark.parametrize("seed", range(10))
def test_sample_expanders_reach_r5(seed):
    # about 0.67 % of 5-matching unions are simple; 200 draws a sample fell
    # short at seeds 0, 3 and 6
    frame = named_frame("equiangular5")
    results = sample_expanders(40, 5, frame, samples=3, seed=seed)
    assert len(results) == 3 and all(res.report.d == pytest.approx(2.5) for res in results)


def test_sampling_checks_tightness_once(monkeypatch):
    # the frame's tightness is checked before the draws, not per sample
    from mwgraph import frames
    frame = augment_with_identity(equiangular_frame_2d(3))
    tight = count_calls(monkeypatch, "verify_tight", frames)
    solved = []
    real = frames._expander_reports

    def recording(n, k, tol, edges, weights):
        solved.append(len(weights))
        return real(n, k, tol, edges, weights)

    monkeypatch.setattr(frames, "_expander_reports", recording)
    assert len(sample_expanders(40, 4, frame, samples=3, seed=0)) == 3
    # each draw is placed and solved once, two in the first run
    assert (len(tight), solved) == (1, [2, 1])


def test_sample_expanders_refuse_r7_before_drawing(monkeypatch):
    # one r = 7 sample may take 726,311 draws, over MAX_SAMPLE_DRAWS; r = 6
    # (36,161 a sample) stays allowed up to 13 samples
    from mwgraph import frames

    def forbidden(*args, **kwargs):
        raise AssertionError("drew a graph")

    monkeypatch.setattr(frames, "_matching_union", forbidden)
    assert [frames._draw_budget(r) for r in (2, 3, 4, 5, 6, 7)] == \
        [200, 200, 402, 2969, 36161, 726311]
    with pytest.raises(TooLargeError, match="may take 726311 draws, over the limit of 500000"):
        sample_expanders(40, 7, named_frame("equiangular7"), samples=1)
    with pytest.raises(TooLargeError, match="may take 506254 draws"):
        sample_expanders(40, 6, named_frame("equiangular6"), samples=14)


def decode_graph6(text):
    """(n, edges) of a graph6 string whose size is one byte, or "~" and three."""
    values = [ord(ch) - 63 for ch in text]
    if values[0] == 63:
        n, values = (values[1] << 12) | (values[2] << 6) | values[3], values[4:]
    else:
        n, values = values[0], values[1:]
    bits = "".join(format(value, "06b") for value in values)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    assert len(bits) == len(pairs) + (-len(pairs) % 6) and "1" not in bits[len(pairs):]
    return n, sorted(pair for pair, bit in zip(pairs, bits) if bit == "1")


@pytest.mark.parametrize("r, n, name, d", [(4, 100, "equiangular3+I", 2.5),
                                           (3, 80, "equiangular3", 1.5)])
def test_sample_expanders_draw_coloured_graphs(monkeypatch, r, n, name, d):
    # sizes at which a backtracking colouring search stalls; each colour
    # class is drawn as a perfect matching, so no colouring is searched
    from mwgraph import frames

    def forbidden(*args, **kwargs):
        raise AssertionError("searched for a colouring")

    monkeypatch.setattr(frames, "iter_proper_colorings", forbidden)
    monkeypatch.setattr(frames, "proper_edge_coloring", forbidden)
    frame = named_frame(name, r)
    start = time.perf_counter()
    first = sample_expanders(n, r, frame, samples=3, seed=0)
    assert time.perf_counter() - start < 10.0
    assert len(first) == 3
    for res in first:
        edges = res.graph.edges
        assert res.n == res.graph.n == n and len(edges) == len(res.coloring) == n * r // 2
        for c in range(r):
            ends = sorted(x for e, col in zip(edges, res.coloring) if col == c for x in e)
            assert ends == list(range(n)), f"colour {c} is not a perfect matching"
        assert is_connected_edges(n, edges)
        assert res.report.d == pytest.approx(d, abs=1e-10)
        assert decode_graph6(res.code) == (n, list(edges))
    second = sample_expanders(n, r, frame, samples=3, seed=0)
    assert [(res.graph, res.code, res.coloring, res.report) for res in first] == \
           [(res.graph, res.code, res.coloring, res.report) for res in second]


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


@pytest.mark.parametrize("name, r_context, size", [
    # (r + 1) k = 4096, the largest n k an r-element frame can weight
    ("identity4", 1023, 1023), ("identity0001", 4095, 4095), ("equiangular2047", None, 2047),
    ("equiangular2046+I", None, 2047),
])
def test_named_frames_up_to_the_size_bound_are_built(name, r_context, size):
    assert len(named_frame(name, r_context)) == size


@pytest.mark.parametrize("name, r_context", [
    ("identity4", 1024), ("identity820", 4), ("identity100000", 4), ("identity5", 1000),
    ("equiangular2048", None), ("equiangular2047+I", None),
    ("identity" + "9" * 5000, 4), ("equiangular" + "1" * 5000, None),
], ids=["identity4-r1024", "identity820-r4", "identity100000-r4", "identity5-r1000",
        "equiangular2048", "equiangular2047+I", "identity-5000-digits",
        "equiangular-5000-digits"])
def test_named_frames_past_the_size_bound_are_refused_before_building(monkeypatch, name,
                                                                        r_context):
    from mwgraph import frames

    def forbidden(*args, **kwargs):
        raise AssertionError("built a frame")

    monkeypatch.setattr(np, "eye", forbidden)
    monkeypatch.setattr(frames, "equiangular_frame_2d", forbidden)
    with pytest.raises(TooLargeError) as err:
        named_frame(name, r_context)
    assert str(err.value) == (f"frame {name!r:.40} weights only graphs with n * k over "
                              f"the limit of {LOAD_MAX_NK}")


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
