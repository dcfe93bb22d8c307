import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from mwgraph.errors import (
    DomainError,
    EmptyOrFullSubsetError,
    NotScalarRegularError,
    SingularVolumeError,
    TooLargeError,
)
from mwgraph import expansion, jsonio
from mwgraph.expansion import (
    CHEEGER_EXHAUSTIVE_MAX_N,
    SCAN_BITS,
    SCAN_BUDGET,
    _block_bits,
    _BoundaryScan,
    _indicators,
    _mask_bits,
    _scan_boundaries,
    cheeger_analysis,
    cheeger_ratios,
    edge_count,
    eml_irregular,
    eml_irregular_exhaustive,
    eml_regular,
    eml_regular_exhaustive,
    irregular_context,
    mask_vertices,
)
from mwgraph.graphs import MatrixWeightedGraph, lift_identity
from mwgraph.linalg import DEFAULT_TOL, Tolerances
from mwgraph.operators import assemble

from conftest import (
    FRAME_A,
    complete_graph,
    cycle_graph,
    k33_latin_mwg,
    k4_abc_mwg,
    random_mwg,
    random_psd,
    unit_graph,
)


def indicator_block(mask_vertices, n, k):
    out = np.zeros((n * k, k))
    for v in mask_vertices:
        out[v * k:(v + 1) * k] = np.eye(k)
    return out


# --- edge counts -------------------------------------------------------------


def test_edge_count_single_pair():
    G = k4_abc_mwg()
    assert np.allclose(edge_count(G, [0], [1]), FRAME_A)


def test_edge_count_full_is_volume():
    G = k4_abc_mwg()
    allv = range(4)
    assert np.allclose(edge_count(G, allv, allv), assemble(G).degree_blocks.sum(axis=0))


def test_edge_count_disjoint_nonadjacent():
    G = MatrixWeightedGraph.from_weights(4, 2, [(0, 1, np.eye(2))])
    assert not np.any(edge_count(G, [2], [3]))


def test_edge_count_matches_indicator_product(rng):
    # E(S, T) = I_S^T A I_T, the identity behind the mixing-lemma proof
    for _ in range(40):
        G = random_mwg(rng)
        n, k = G.base.n, G.k
        A = assemble(G).adjacency
        S = [v for v in range(n) if rng.random() < 0.5]
        T = [v for v in range(n) if rng.random() < 0.5]
        direct = edge_count(G, S, T)
        oracle = indicator_block(S, n, k).T @ A @ indicator_block(T, n, k)
        assert np.allclose(direct, oracle, atol=1e-10)


def test_edge_count_transpose_symmetry(rng):
    G = random_mwg(rng)
    n = G.base.n
    S = [v for v in range(n) if rng.random() < 0.5]
    T = [v for v in range(n) if rng.random() < 0.5]
    assert np.allclose(edge_count(G, S, T), edge_count(G, T, S).T)
    E_SS = edge_count(G, S, S)
    assert np.linalg.eigvalsh(E_SS)[0] >= -1e-10 if len(S) else True


def test_trace_of_edge_count_matches_scalarized(rng):
    for _ in range(20):
        G = random_mwg(rng)
        n = G.base.n
        S = [v for v in range(n) if rng.random() < 0.5]
        T = [v for v in range(n) if rng.random() < 0.5]
        A_tr = assemble(G).trace_adjacency
        ind_S = np.zeros(n)
        ind_S[list(S)] = 1.0
        ind_T = np.zeros(n)
        ind_T[list(T)] = 1.0
        assert float(np.trace(edge_count(G, S, T))) == pytest.approx(
            float(ind_S @ A_tr @ ind_T), abs=1e-10)


# --- regular EML -------------------------------------------------------------


def test_eml_regular_empty_subset_equality():
    G = k4_abc_mwg()
    rep = eml_regular(assemble(G), [], [0, 1])
    assert rep.trace_check.lhs == 0.0 and rep.trace_check.rhs == 0.0
    assert rep.trace_check.holds and rep.spectral_check.holds


def test_eml_regular_full_sets_equality():
    G = k4_abc_mwg()
    rep = eml_regular(assemble(G), range(4), range(4))
    assert rep.trace_check.lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.trace_check.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.trace_check.holds


def test_eml_regular_complete_lift_closed_form():
    # K_n identity lift: tr E(S,T) = k |S||T| for disjoint..., |mu| = k
    n, k = 5, 2
    G = lift_identity(complete_graph(n), k)
    S, T = [0, 1], [2, 3]
    rep = eml_regular(assemble(G), S, T)
    # E(S,T) = |S||T| I_k for disjoint S, T in K_n
    E = edge_count(G, S, T)
    assert np.allclose(E, 4 * np.eye(2))
    assert rep.abs_mu == pytest.approx(k, abs=1e-9)
    assert rep.trace_check.holds and rep.spectral_check.holds


def test_eml_regular_reads_each_subset_once():
    # one-shot iterables give the report lists give: on unit-weight K4,
    # tr E({0, 1}, {2, 3}) = 4 against the center 1 * 2 * 2 * 3 / 4 = 3
    ops = assemble(complete_graph(4))
    expected = eml_regular(ops, [0, 1], [2, 3])
    rep = eml_regular(ops, iter([0, 1]), iter([2, 3]))
    assert rep.trace_check.lhs == 1.0 and rep.trace_check.rhs == 1.0
    assert rep.trace_check.context == {"S": [0, 1], "T": [2, 3]}
    assert rep.trace_check.to_jsonable() == expected.trace_check.to_jsonable()
    assert rep.spectral_check.to_jsonable() == expected.spectral_check.to_jsonable()


def test_eml_regular_requires_regularity(rng):
    g = unit_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotScalarRegularError):
        eml_regular(assemble(lift_identity(g, 2)), [0], [1])


def test_eml_regular_rejects_empty_graph():
    # the lemma divides by n; the n = 0 graph is scalar regular with d = 0
    ops = assemble(MatrixWeightedGraph.from_weights(0, 2, []))
    with pytest.raises(DomainError, match="n = 0"):
        eml_regular(ops, [], [])
    with pytest.raises(DomainError, match="n = 0"):
        eml_regular_exhaustive(ops)


def test_eml_regular_exhaustive_matches_pairwise():
    # cross-validate the vectorized all-pairs scan against single calls
    ops = assemble(k4_abc_mwg())
    summary = eml_regular_exhaustive(ops)
    assert summary.holds
    worst = np.inf
    n = 4
    for smask in range(1 << n):
        for tmask in range(1 << n):
            S = [v for v in range(n) if (smask >> v) & 1]
            T = [v for v in range(n) if (tmask >> v) & 1]
            rep = eml_regular(ops, S, T)
            worst = min(worst, rep.trace_check.slack, rep.spectral_check.slack)
    assert summary.slack == pytest.approx(worst, abs=1e-12)


def test_eml_regular_exhaustive_on_lifts():
    for scalar in (complete_graph(4), cycle_graph(5), cycle_graph(6)):
        for k in (1, 2):
            assert eml_regular_exhaustive(assemble(lift_identity(scalar, k))).holds


def test_eml_exhaustive_size_guard():
    G = lift_identity(cycle_graph(9), 1)
    with pytest.raises(TooLargeError):
        eml_regular_exhaustive(assemble(G))


def test_middle_terms_vanish(rng):
    # (I_S_perp)^T A I_G = 0 for dI-regular graphs, the key proof step
    G = k4_abc_mwg()
    n, k = 4, 2
    A = assemble(G).adjacency
    I_G = indicator_block(range(n), n, k)
    for smask in range(1, 1 << n):
        S = [v for v in range(n) if (smask >> v) & 1]
        I_S = indicator_block(S, n, k)
        I_S_perp = I_S - (len(S) / n) * I_G
        assert np.abs(I_S_perp.T @ A @ I_G).max() <= 1e-10


# --- irregular EML -----------------------------------------------------------


def test_eml_irregular_k2_equality():
    G = MatrixWeightedGraph.from_weights(2, 1, [(0, 1, [[1.0]])])
    rep = eml_irregular(assemble(G), [0], [1])
    assert float(rep.lhs) == pytest.approx(0.5, abs=1e-12)
    assert float(rep.rhs) == pytest.approx(0.5, abs=1e-12)
    assert rep.holds


def test_eml_irregular_full_set_zero():
    G = lift_identity(unit_graph(4, [(0, 1), (1, 2), (2, 3)]), 2)
    rep = eml_irregular(assemble(G), range(4), [1, 2])
    assert float(rep.lhs) == pytest.approx(0.0, abs=1e-9)
    assert float(rep.rhs) == pytest.approx(0.0, abs=1e-9)


def test_eml_irregular_random_suite(rng):
    checked = 0
    while checked < 100:
        G = random_mwg(rng)
        try:
            rep = eml_irregular(assemble(G), *_random_pair(rng, G.base.n))
        except SingularVolumeError:
            continue
        assert rep.holds
        checked += 1


def _random_pair(rng, n):
    S = [v for v in range(n) if rng.random() < 0.5]
    T = [v for v in range(n) if rng.random() < 0.5]
    return S, T


def test_eml_irregular_singular_volume():
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, FRAME_A)])
    with pytest.raises(SingularVolumeError):
        eml_irregular(assemble(G), [0], [1])


def test_irregular_context_reads_rank_rel_tol():
    # vol(G) = diag(2, 2e-6): singular under a cutoff of 1e-5 relative to its
    # largest eigenvalue, invertible under the default 1e-10
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.diag([1.0, 1e-6]))])
    with pytest.raises(SingularVolumeError):
        irregular_context(assemble(G, Tolerances(rank_rel_tol=1e-5)))
    with pytest.raises(SingularVolumeError):
        eml_irregular(assemble(G, Tolerances(rank_rel_tol=1e-5)), [0], [1])
    assert irregular_context(assemble(G)).vol_inv.shape == (2, 2)
    assert eml_irregular(assemble(G), [0], [1]).holds


def test_irregular_context_singular_volume_that_inv_rejects():
    # a seeded corpus member (Suite(seed=0), random family, index 562): vol(G)
    # has eigenvalues 1.08e-19 and 0.0776, so at a zero cutoff of 0 it passes
    # the cutoff test, and np.linalg.inv finds it exactly singular
    w = [0.038648151809319783, -0.0024521574174957593,
         -0.0024521574174957593, 0.00015558508540968453]
    G = MatrixWeightedGraph.from_weights(3, 2, [(1, 2, np.reshape(w, (2, 2)))])
    ops = assemble(G, Tolerances(rank_rel_tol=0.0))
    with pytest.raises(SingularVolumeError):
        irregular_context(ops)
    with pytest.raises(SingularVolumeError):
        eml_irregular(ops, [0], [1])


def test_eml_irregular_looser_than_regular_trace():
    # on dI-regular inputs the volume form holds but is weaker
    for n in (4, 5, 6):
        ops = assemble(lift_identity(complete_graph(n), 2))
        for S, T in [([0], [1]), ([0, 1], [2, 3]), ([0, 1, 2], [1, 2, 3])]:
            regular = eml_regular(ops, S, T)
            irregular = eml_irregular(ops, S, T)
            assert irregular.holds
            # same centered trace on both sides; compare the bound values
            assert float(irregular.rhs) >= float(regular.trace_check.rhs) - 1e-9
            assert float(irregular.lhs) == pytest.approx(
                float(regular.trace_check.lhs), abs=1e-9)


def test_eml_irregular_exhaustive_small(rng):
    G = lift_identity(unit_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]), 2)
    rep = eml_irregular_exhaustive(assemble(G))
    assert rep.holds and rep.context["pairs"] == 256


# --- exhaustive pair scans against the whole-table scans ----------------------


def whole_regular_exhaustive(ops):
    """The regular pair scan as one array of all 4^n pairs: (report, trace
    slack table, spectral slack table)."""
    d = float(ops.regularity.scalar_degree)
    n, k = ops.n, ops.k
    abs_mu, spec_const, _ = expansion._regular_mu_constants(ops)
    masks = list(range(1 << n))
    ind = _indicators(masks, n)
    sizes = ind.sum(axis=1)
    wt = np.ascontiguousarray(ops.adjacency.reshape(n, k, n, k).transpose(0, 2, 1, 3))
    tr_E = ind @ ops.trace_adjacency @ ind.T
    E_all = np.einsum("as,stij,bt->abij", ind, wt, ind, optimize=True)
    frac = sizes / n
    root = np.sqrt(np.maximum(np.outer(sizes, sizes) * np.outer(1 - frac, 1 - frac), 0.0))
    center = d * np.outer(sizes, sizes) / n
    trace_slack = abs_mu * root - np.abs(tr_E - k * center)
    dev = E_all - center[:, :, None, None] * np.eye(k)
    ev = np.linalg.eigvalsh(dev.reshape(-1, k, k))
    spec_lhs = np.abs(ev).max(axis=1).reshape(len(masks), len(masks))
    spec_slack = spec_const * root - spec_lhs
    worst_trace = np.unravel_index(int(np.argmin(trace_slack)), trace_slack.shape)
    worst_spec = np.unravel_index(int(np.argmin(spec_slack)), spec_slack.shape)
    slack = float(min(trace_slack.min(), spec_slack.min()))
    report = expansion.BoundReport(
        "eml_regular_exhaustive", 0.0, slack, slack, slack >= -expansion.CHECK_TOL,
        {
            "pairs": len(masks) ** 2,
            "min_trace_slack": float(trace_slack.min()),
            "min_spectral_slack": float(spec_slack.min()),
            "worst_trace_pair": [list(mask_vertices(masks[worst_trace[0]], n)),
                                 list(mask_vertices(masks[worst_trace[1]], n))],
            "worst_spectral_pair": [list(mask_vertices(masks[worst_spec[0]], n)),
                                    list(mask_vertices(masks[worst_spec[1]], n))],
            "abs_mu": abs_mu,
        })
    return report, trace_slack, spec_slack


def whole_irregular_exhaustive(ops):
    """The irregular pair scan as one array of all 4^n pairs: (report, slack
    table)."""
    ctx = irregular_context(ops)
    n = ctx.n
    masks = list(range(1 << n))
    ind = _indicators(masks, n)
    m = len(masks)
    lhs, rhs = expansion.eml_irregular_pairs(ctx, np.repeat(ind, m, axis=0),
                                             np.tile(ind, (m, 1)))
    slack = rhs - lhs
    worst = int(np.argmin(slack))
    report = expansion.BoundReport(
        "eml_irregular_exhaustive", 0.0, float(slack[worst]), float(slack[worst]),
        bool(slack[worst] >= -expansion.CHECK_TOL),
        {
            "pairs": m * m,
            "worst_pair": [list(mask_vertices(masks[worst // m], n)),
                           list(mask_vertices(masks[worst % m], n))],
            "abs_mu_tilde": ctx.abs_mu_tilde,
        })
    return report, slack.reshape(m, m)


def block_scan(scan, ops, rows):
    """scan(ops) with `rows` S rows per block (None: the budget's), and the
    slack tables of its blocks stacked in order."""
    blocks = []
    scan_pairs = expansion._scan_pairs

    def recording(n, pair_bytes, slack_tables):
        def record(a0, a1):
            blocks.append(slack_tables(a0, a1))
            return blocks[-1]
        return scan_pairs(n, pair_bytes, record)

    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(expansion, "_pair_rows", lambda m, pair_bytes: rows)
        mp.setattr(expansion, "_scan_pairs", recording)
        report = scan(ops)
    return report, [np.concatenate(tables) for tables in zip(*blocks)]


def assert_block_scan_matches(scan, whole, ops, rows):
    report, *tables = whole(ops)
    block_report, block_tables = block_scan(scan, ops, rows)
    assert jsonio.dumps(block_report.to_jsonable()) == jsonio.dumps(report.to_jsonable())
    assert [t.tobytes() for t in block_tables] == [t.tobytes() for t in tables]


def assert_both_scans_match(ops, rows):
    assert_block_scan_matches(eml_regular_exhaustive, whole_regular_exhaustive, ops, rows)
    # the irregular scan applies to a regular graph too, if vol(G) is invertible
    if ops.regularity.scalar_degree > 0:
        assert_block_scan_matches(eml_irregular_exhaustive, whole_irregular_exhaustive, ops, rows)


@pytest.fixture(scope="module")
def corpus_scalar_regular():
    from mwgraph.acceptance import Suite
    suite = Suite(seed=0)
    bundles = [assemble(G, suite.tol) for _, G in suite.corpus()]
    return [ops for ops in bundles if ops.regularity.is_scalar_regular and ops.n <= 8]


# a requested block of one S row is widened to two: numpy sends a one-row
# product to gemv, and on random n >= 7 weights its sums differ from gemm's
@pytest.mark.parametrize("rows", [1, 7, None])
def test_pair_scans_are_bitwise_the_whole_table_on_the_corpus(rows, corpus_scalar_regular):
    assert len(corpus_scalar_regular) == 125
    for ops in corpus_scalar_regular:
        assert_both_scans_match(ops, rows)


@pytest.mark.parametrize("rows", [1, 7, None])
def test_pair_scans_are_bitwise_the_whole_table_on_random_weights(rows):
    # random weights round differently in every summation order, which the
    # corpus's mostly unit-weight members do not
    rng = np.random.default_rng(1907)
    for n in range(2, 9):
        for k in (1, 2, 3, 4):
            assert_both_scans_match(assemble(random_scalar_regular(rng, n, k)), rows)
    irregular = 0
    while irregular < 4:
        ops = assemble(random_mwg(rng, n_max=8, k_max=3))
        if ops.n < 7 or ops.regularity.kind != "irregular":
            continue
        assert_block_scan_matches(eml_irregular_exhaustive, whole_irregular_exhaustive,
                                  ops, rows)
        irregular += 1


def test_small_regular_pair_scans_take_one_block(monkeypatch):
    blocks = []
    scan_pairs = expansion._scan_pairs

    def counting(n, pair_bytes, slack_tables):
        return scan_pairs(n, pair_bytes,
                          lambda a0, a1: blocks.append((a0, a1)) or slack_tables(a0, a1))

    monkeypatch.setattr(expansion, "_scan_pairs", counting)
    rng = np.random.default_rng(6)
    for k in (1, 2, 3):
        eml_regular_exhaustive(assemble(random_scalar_regular(rng, 6, k)))
    assert blocks == [(0, 64)] * 3


def pair_scan_peak(scan, ops):
    tracemalloc.start()
    try:
        scan(ops)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_scans_working_set_is_bounded():
    # the whole-table scans peaked at 15.6 MiB (regular) and 20.5 MiB
    # (irregular) on n = 8, k = 3 graphs
    rng = np.random.default_rng(8)
    regular = assemble(random_scalar_regular(rng, 8, 3))
    while True:
        irregular = assemble(random_mwg(rng, n_max=8, k_max=3))
        if (irregular.n, irregular.k, irregular.regularity.kind) == (8, 3, "irregular"):
            break
    assert pair_scan_peak(eml_regular_exhaustive, regular) < 2 * 2 ** 20
    assert pair_scan_peak(eml_irregular_exhaustive, irregular) < 2 * 2 ** 20


# --- Cheeger -----------------------------------------------------------------


def test_subsets_mod_complement_cover():
    # the scan's subsets contain vertex 0, come in increasing mask order and
    # cover each {S, complement} pair exactly once
    n = 5
    G = lift_identity(cycle_graph(n), 1)
    scan = _scan_boundaries(G, 2.0, DEFAULT_TOL, keep_per_subset=True)
    full = (1 << n) - 1
    masks = [sum(1 << v for v in S) for S in scan.per_subset]
    assert len(masks) == 2 ** (n - 1) - 1
    assert all(m & 1 for m in masks)
    assert masks == sorted(masks)
    seen = set(masks) | {full ^ m for m in masks}
    assert seen == set(range(1, full))
    assert len(seen) == 2 * len(masks)


def test_indicators_match_bit_loop():
    n = 5
    masks = [0, 1, 6, 19, 31]
    expected = np.array([[1.0 if (mask >> v) & 1 else 0.0 for v in range(n)] for mask in masks])
    out = _indicators(masks, n)
    assert out.dtype == np.float64
    assert out.tobytes() == expected.tobytes()


def test_cheeger_ratios_k2_identity():
    for k in (1, 2, 3):
        G = lift_identity(unit_graph(2, [(0, 1)]), k)
        h_tr, h_loew = cheeger_ratios(assemble(G), [0])
        assert h_tr == pytest.approx(k)
        assert np.allclose(h_loew, np.eye(k))


def test_cheeger_ratios_disconnected_component():
    G = lift_identity(unit_graph(4, [(0, 1), (2, 3)]), 2)
    h_tr, h_loew = cheeger_ratios(assemble(G), [0, 1])
    assert h_tr == 0.0
    assert not np.any(h_loew)


def test_cheeger_ratios_counterexample_full_rank():
    ops = assemble(k33_latin_mwg())
    n = 6
    for smask in range(1, (1 << n) - 1):
        S = [v for v in range(n) if (smask >> v) & 1]
        _, h_loew = cheeger_ratios(ops, S)
        assert np.linalg.eigvalsh(h_loew)[0] > 1e-6


def test_cheeger_ratios_errors():
    ops = assemble(lift_identity(unit_graph(2, [(0, 1)]), 1))
    with pytest.raises(EmptyOrFullSubsetError):
        cheeger_ratios(ops, [])
    with pytest.raises(EmptyOrFullSubsetError):
        cheeger_ratios(ops, [0, 1])
    irregular = lift_identity(unit_graph(3, [(0, 1)]), 1)
    with pytest.raises(NotScalarRegularError):
        cheeger_ratios(assemble(irregular), [0])
    empty = MatrixWeightedGraph.from_weights(3, 1, [])
    with pytest.raises(NotScalarRegularError):
        cheeger_ratios(assemble(empty), [0])


def brute_force_cheeger(G, d):
    """Independent subset loop, no Gray code, no incremental updates."""
    n = G.base.n
    best_tr = np.inf
    best_S = None
    alpha = np.inf
    for size in range(1, n):
        for S in itertools.combinations(range(n), size):
            comp = [v for v in range(n) if v not in S]
            E = edge_count(G, S, comp)
            h = E / (d * min(size, n - size))
            tr = float(np.trace(h))
            if tr < best_tr:
                best_tr, best_S = tr, S
            alpha = min(alpha, float(np.linalg.eigvalsh(h)[0]))
    return best_tr, best_S, alpha


def test_cheeger_constants_c4():
    G = lift_identity(cycle_graph(4), 1)
    report = cheeger_analysis(assemble(G))[0]
    assert report.h_trace == pytest.approx(0.5)
    # ties broken by smallest bitmask: {0, 1} beats {0, 3}
    assert report.argmin == (0, 1)


def test_cheeger_constants_k2_lift():
    for k in (1, 2):
        G = lift_identity(unit_graph(2, [(0, 1)]), k)
        report = cheeger_analysis(assemble(G))[0]
        assert report.h_trace == pytest.approx(k)
        assert report.argmin == (0,)


def test_cheeger_constants_disconnected_zero():
    for k in (1, 2):
        G = lift_identity(unit_graph(4, [(0, 1), (2, 3)]), k)
        # a zero boundary has no norm to bound it by, and raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cheeger_analysis(assemble(G))[0]
        assert report.h_trace == pytest.approx(0.0)
        assert report.h_loewner_alpha == 0.0


def _k44_frame_expander():
    from mwgraph.frames import (
        augment_with_identity,
        build_expander,
        equiangular_frame_2d,
        proper_edge_coloring,
    )
    from mwgraph.graphs import BaseGraph
    base = BaseGraph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
    frame = augment_with_identity(equiangular_frame_2d(3))
    return build_expander(base, proper_edge_coloring(base, 4), frame)


def test_cheeger_constants_match_brute_force(rng):
    cases = [
        k4_abc_mwg(),
        k33_latin_mwg(),
        lift_identity(cycle_graph(5), 2),
        lift_identity(complete_graph(5), 1),
        lift_identity(cycle_graph(6), 3),
        _k44_frame_expander(),
    ]
    for G in cases:
        d = assemble(G).regularity.scalar_degree
        report = cheeger_analysis(assemble(G))[0]
        tr, S, alpha = brute_force_cheeger(G, d)
        assert report.h_trace == pytest.approx(tr, abs=1e-10)
        assert report.h_loewner_alpha == pytest.approx(alpha, abs=1e-10)


def test_cheeger_constants_per_subset_table():
    G = lift_identity(cycle_graph(4), 1)
    report = cheeger_analysis(assemble(G), keep_per_subset=True)[0]
    assert len(report.per_subset) == 2 ** 3 - 1
    for S, h in report.per_subset.items():
        comp = [v for v in range(4) if v not in S]
        E = edge_count(G, S, comp)
        denom = 2 * min(len(S), 4 - len(S))  # C4 has d = 2
        assert np.allclose(h, E / denom, atol=1e-12)


def test_cheeger_too_large_fails_before_any_work(monkeypatch):
    # the checks read the bundle's degree blocks: no kn x kn operator is
    # formed and no boundary is scanned
    def forbidden(*args, **kwargs):
        raise AssertionError("called before the size check")

    monkeypatch.setattr(expansion, "_scan_boundaries", forbidden)
    ops = assemble(lift_identity(cycle_graph(CHEEGER_EXHAUSTIVE_MAX_N + 1), 2))
    with pytest.raises(TooLargeError):
        cheeger_analysis(ops)
    assert not {"adjacency", "laplacian", "degree"} & set(vars(ops))


def reference_scan(G, d, tol):
    """The definition, one subset at a time: cheeger_ratios on every subset
    that contains vertex 0, in increasing mask order."""
    n, k = G.base.n, G.k
    best_tr, best_mask = np.inf, None
    alpha = np.inf
    min_rank = k
    per = {}
    ops = assemble(G, tol)
    for mask in range(1, (1 << n) - 1, 2):
        S = mask_vertices(mask, n)
        tr, h = cheeger_ratios(ops, S)
        size = len(S)
        denom = d * min(size, n - size)
        values = np.linalg.eigvalsh(h)
        rank_cut = tol.rank_rel_tol * max(1.0, float(values[-1]) * denom)
        if tr < best_tr:
            best_tr, best_mask = tr, mask
        alpha = min(alpha, float(values[0]))
        min_rank = min(min_rank, int(np.sum(values * denom > rank_cut)))
        per[S] = h
    return best_tr, best_mask, alpha, min_rank, per


def random_scalar_regular(rng, n, k, eps=None):
    """Randomly relabelled circulant on n vertices whose shift classes carry
    random PSD weights, normalized so that every vertex degree is I.  With
    eps, each class's weight is I + eps R instead, R symmetric with entries
    in [-1, 1], so that every boundary is within about eps of scalar."""
    shifts = [s for s in range(1, n // 2 + 1) if s == 1 or rng.random() < 0.6]
    if eps is None:
        # shift 1 takes a full-rank weight so that the degree sum is invertible
        raw = {s: random_psd(rng, k, k if s == 1 else int(rng.integers(1, k + 1)))
               for s in shifts}
    else:
        noise = {s: rng.uniform(-1.0, 1.0, (k, k)) for s in shifts}
        raw = {s: np.eye(k) + eps * (R + R.T) / 2 for s, R in noise.items()}
    total = sum((1 if 2 * s == n else 2) * A for s, A in raw.items())
    values, vectors = np.linalg.eigh(total)
    inv_sqrt = vectors @ np.diag(values ** -0.5) @ vectors.T
    label = rng.permutation(n)
    items = []
    for s, A in raw.items():
        W = inv_sqrt @ A @ inv_sqrt
        for i in range(n if 2 * s != n else n // 2):
            items.append((int(label[i]), int(label[(i + s) % n]), W))
    return MatrixWeightedGraph.from_weights(n, k, items)


def assert_scan_matches_reference(G, tol=DEFAULT_TOL, keep_per_subset=True):
    d = assemble(G).regularity.scalar_degree
    h_trace, argmin_mask, alpha, min_rank, per = reference_scan(G, d, tol)
    scan = _scan_boundaries(G, d, tol, keep_per_subset)
    assert np.float64(scan.h_trace).tobytes() == np.float64(h_trace).tobytes()
    assert scan.argmin_mask == argmin_mask
    assert np.float64(scan.alpha).tobytes() == np.float64(alpha).tobytes()
    assert scan.min_rank == min_rank
    if keep_per_subset:
        assert list(scan.per_subset) == list(per)
        for S, h in per.items():
            assert scan.per_subset[S].tobytes() == h.tobytes()
    return scan


def scaled(G, factor):
    """G with every weight multiplied by factor."""
    return MatrixWeightedGraph.from_weights(
        G.base.n, G.k, [(u, v, factor * w) for (u, v), w in zip(G.base.edges, G.weight_stack)])


@pytest.mark.parametrize("bits", [1, 2, 4, SCAN_BITS])
def test_chunked_scan_is_bitwise_the_per_subset_loop(bits, monkeypatch):
    # weights scaled by a power of two leave every h(S) bitwise unscaled; the
    # rank rule's max(1, .) floor still sees the scale, so min_rank is checked
    # against the per-subset loop at each scale: at 2^-40 the floor zeroes
    # every rank, at 2^-34 only those of some boundaries far above alpha
    monkeypatch.setattr(expansion, "SCAN_BITS", bits)
    rng = np.random.default_rng(2009 + bits)
    for n in range(2, 11):
        for k in (1, 2, 3, 4):
            G = random_scalar_regular(rng, n, k)
            assert assemble(G).regularity.is_scalar_regular
            unscaled = assert_scan_matches_reference(G).per_subset
            for factor in (2.0 ** -40, 2.0 ** -34, 2.0 ** 40):
                per = assert_scan_matches_reference(scaled(G, factor)).per_subset
                assert all(per[S].tobytes() == h.tobytes() for S, h in unscaled.items())


@pytest.mark.parametrize("bits", [1, 2, 4, SCAN_BITS])
def test_block_scan_is_bitwise_the_per_subset_loop_at_k8(bits, monkeypatch):
    # from 8 diagonal entries on, np.trace sums a matrix's diagonal
    # pairwise, so a trace summed in row order would differ in the last bits
    monkeypatch.setattr(expansion, "SCAN_BITS", bits)
    rng = np.random.default_rng(8 + bits)
    for n in range(2, 8):
        assert_scan_matches_reference(random_scalar_regular(rng, n, 8))


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8, 1e-10, 1e-13, 0.0])
def test_near_scalar_scans_are_bitwise_the_per_subset_loop(eps):
    # near h = cI the variance ||h||_F^2 / k - t^2 is a difference of nearly
    # equal sums, whose rounding the bounds' margin must cover: a margin cut
    # to 2^-34 k skips every boundary of some of these scans, alpha included
    rng = np.random.default_rng(round(-np.log10(eps)) if eps else 99)
    for n in (6, 9, 10):
        for k in (2, 3, 4, 8):
            G = random_scalar_regular(rng, n, k, eps)
            assert assemble(G).regularity.is_scalar_regular
            for factor in (1.0, 2.0 ** -40, 2.0 ** 40):
                for tol in (DEFAULT_TOL, Tolerances(rank_rel_tol=0.0)):
                    assert_scan_matches_reference(scaled(G, factor), tol, keep_per_subset=False)


@pytest.mark.parametrize("n, k", [(13, 4), (12, 8)])
def test_default_blocks_are_bitwise_the_per_subset_loop(n, k):
    # the default width splits these scans into two blocks
    assert _block_bits(n, k) == n - 1
    assert_scan_matches_reference(random_scalar_regular(np.random.default_rng(n * k), n, k))


def scan_bytes(G, d):
    scan = _scan_boundaries(G, d, DEFAULT_TOL, keep_per_subset=True)
    return (np.float64(scan.h_trace).tobytes(), scan.argmin_mask,
            np.float64(scan.alpha).tobytes(), scan.min_rank,
            [(S, h.tobytes()) for S, h in scan.per_subset.items()])


def test_chunked_scan_is_independent_of_chunk_size(monkeypatch):
    # the n = 7 graphs have 63 subsets: blocks of 1, 2 and 8 masks split
    # them, and the default takes them all at once
    n = 7
    rng = np.random.default_rng(7)
    graphs = [random_scalar_regular(rng, n, k) for k in (1, 2, 3)]
    graphs += [k33_latin_mwg(), _k44_frame_expander()]
    for G in graphs:
        d = assemble(G).regularity.scalar_degree
        results = []
        for bits in (1, 2, 4, SCAN_BITS):
            monkeypatch.setattr(expansion, "SCAN_BITS", bits)
            results.append(scan_bytes(G, d))
        assert all(res == results[0] for res in results[1:])


SCAN_CHUNK = 1024


def chunked_scan(G, d, tol, keep_per_subset):
    """The scan as it was before blocks: every chunk rebuilds its subsets'
    bits and crossing rows, and every boundary goes to eigvalsh."""
    n, k = G.base.n, G.k
    ends = np.array(G.base.edges, dtype=np.int64).reshape(-1, 2).T
    W_flat = G.weight_stack.reshape(-1, k * k)
    count = (1 << (n - 1)) - 1
    best_tr, best_mask = np.inf, 0
    alpha = np.inf
    min_rank = k
    per: dict[tuple[int, ...], np.ndarray] | None = {} if keep_per_subset else None
    for lo in range(0, count, SCAN_CHUNK):
        masks = 2 * np.arange(lo, min(lo + SCAN_CHUNK, count), dtype=np.int64) + 1
        bits = _mask_bits(masks, n)
        crossing = bits.T[ends[0]] != bits.T[ends[1]]
        # edge-major (k*k, chunk) sums, so each add runs over contiguous rows;
        # a non-crossing edge adds +-0.0, which leaves the bits of every sum
        # alone, since a sum that starts at +0.0 never becomes -0.0
        E = np.zeros((k * k, masks.size))
        for w, cross in zip(W_flat, crossing):
            E += w[:, None] * cross
        E = E.T.reshape(-1, k, k)
        size = bits.sum(axis=1)
        denom = d * np.minimum(size, n - size)
        tr = np.trace(E, axis1=1, axis2=2) / denom
        h = E / denom[:, None, None]
        values = np.linalg.eigvalsh(h)
        rank_cut = tol.rank_rel_tol * np.maximum(1.0, values[:, -1] * denom)
        rank = np.sum(values * denom[:, None] > rank_cut[:, None], axis=1)
        # first minimum of the chunk, as the one-at-a-time min would keep it
        lam_min = values[:, 0]
        alpha = min(alpha, float(lam_min[np.argmin(lam_min)]))
        min_rank = min(min_rank, int(rank.min()))
        # masks increase, so the first minimum is the smallest tied mask
        low = int(np.argmin(tr))
        if tr[low] < best_tr:
            best_tr, best_mask = float(tr[low]), int(masks[low])
        if per is not None:
            for mask, hm in zip(masks.tolist(), h):
                per[mask_vertices(mask, n)] = hm
    return _BoundaryScan(best_tr, best_mask, float(alpha), min_rank, per)


# five random cubic graphs with a proper 3-edge-colouring each, as (edges,
# one colour per edge in sorted edge order), keyed by (n, seed).  The scan
# tests below depend on these exact graphs (seed 2's has a boundary of rank
# 1), so they are literals: sample_expanders drew them by the pairing model
# and first backtracked colouring it used before it drew matching unions.
CUBIC_SAMPLES = {
    (16, 0): ("0-2 0-10 0-13 1-4 1-7 1-9 2-14 2-15 3-5 3-9 3-15 4-6 4-12 5-7 5-15 6-11 "
              "6-13 7-13 8-9 8-11 8-14 10-12 10-14 11-12", "012021122012110010210022"),
    (16, 1): ("0-3 0-6 0-8 1-4 1-9 1-11 2-7 2-8 2-10 3-5 3-7 4-10 4-15 5-12 5-14 6-11 "
              "6-13 7-12 8-13 9-14 9-15 10-11 12-13 14-15", "012021201212110200110022"),
    (16, 2): ("0-7 0-8 0-14 1-2 1-8 1-13 2-3 2-7 3-4 3-5 4-12 4-14 5-6 5-10 6-9 6-11 "
              "7-15 8-15 9-10 9-11 10-14 11-12 12-13 13-15", "012021120221011210200102"),
    (16, 3): ("0-7 0-9 0-14 1-3 1-5 1-13 2-8 2-10 2-15 3-4 3-13 4-11 4-15 5-7 5-14 6-7 "
              "6-12 6-15 8-10 8-14 9-11 9-12 10-12 11-13", "012102102200121120202011"),
    (20, 20): ("0-11 0-13 0-19 1-5 1-7 1-14 2-6 2-10 2-12 3-8 3-15 3-19 4-6 4-12 4-19 "
               "5-8 5-17 6-15 7-11 7-13 8-14 9-12 9-15 9-16 10-17 10-18 11-17 13-18 "
               "14-16 16-18", "012012021201120122200012011210"),
}


def equiangular3_sample(n, seed):
    """A random cubic graph on n vertices, weighted by the equiangular3 frame
    on a proper 3-edge-colouring (k = 2, d = 3/2)."""
    from mwgraph.frames import build_expander, equiangular_frame_2d
    from mwgraph.graphs import BaseGraph
    edges, colours = CUBIC_SAMPLES[n, seed]
    base = BaseGraph.from_edges(n, [map(int, e.split("-")) for e in edges.split()])
    assert len(base.edges) == len(colours) == 3 * n // 2
    return build_expander(base, tuple(map(int, colours)), equiangular_frame_2d(3))


def identity3_sample(n, seed):
    """A random cubic graph on n vertices with every weight I_3."""
    base = equiangular3_sample(n, seed).base
    return MatrixWeightedGraph.from_weights(n, 3, [(u, v, np.eye(3)) for u, v in base.edges])


def assert_scan_matches_chunked_scan(G, keep_per_subset=True):
    d = assemble(G).regularity.scalar_degree
    old = chunked_scan(G, d, DEFAULT_TOL, keep_per_subset)
    new = _scan_boundaries(G, d, DEFAULT_TOL, keep_per_subset)
    assert np.float64(new.h_trace).tobytes() == np.float64(old.h_trace).tobytes()
    assert new.argmin_mask == old.argmin_mask
    assert np.float64(new.alpha).tobytes() == np.float64(old.alpha).tobytes()
    assert new.min_rank == old.min_rank
    if keep_per_subset:
        assert list(new.per_subset) == list(old.per_subset)
        for S, h in old.per_subset.items():
            assert new.per_subset[S].tobytes() == h.tobytes()
    return new


@pytest.mark.parametrize("make", [
    lambda: equiangular3_sample(16, 0),
    lambda: equiangular3_sample(16, 1),
    lambda: identity3_sample(16, 3),
    lambda: lift_identity(cycle_graph(16), 2),
], ids=["equiangular3-0", "equiangular3-1", "identity3", "cycle16"])
def test_block_scan_is_bitwise_the_chunked_scan(make):
    assert_scan_matches_chunked_scan(make())


def test_block_scan_matches_on_a_singular_boundary():
    # a boundary of rank 1 < k, whose lambda_min eigvalsh rounds below 0
    G = equiangular3_sample(16, 2)
    scan = assert_scan_matches_chunked_scan(G)
    assert scan.min_rank < G.k and scan.alpha <= 0.0


def test_block_scan_solves_few_boundaries(monkeypatch):
    # tens of the 2^15 - 1 boundaries reach eigvalsh, plus the Laplacian
    solved = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.append(a.size // (a.shape[-1] ** 2))
        return real(a, *args, **kwargs)

    graphs = [equiangular3_sample(16, 0), equiangular3_sample(16, 1), identity3_sample(16, 3)]
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for G in graphs:
        solved.clear()
        cheeger_analysis(assemble(G))[0]
        assert sum(solved) < 100


@pytest.mark.parametrize("k, most", [(4, 500), (6, 1500), (8, 1500), (12, 5000)])
def test_block_scan_solves_few_boundaries_past_k3(k, most, monkeypatch):
    # the trace-Frobenius bounds spare most boundaries of random PSD weights
    # at any k; the row-sum bound they replace solved 9,697, 30,476, 32,282
    # and 32,227 of these 32,767 boundaries
    G = random_scalar_regular(np.random.default_rng(100 + k), 16, k)
    d = assemble(G).regularity.scalar_degree
    solved = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.append(a.size // (a.shape[-1] ** 2))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    scan = _scan_boundaries(G, d, DEFAULT_TOL, keep_per_subset=False)
    assert sum(solved) <= most
    assert scan.min_rank == k and scan.alpha > 0.0


# a bound on the tracemalloc peak of one n = 16 scan: with float crossing
# rows and full k x k sums, blocks of 1,024 masks read 0.97 MiB at k = 3,
# and blocks of 4,096 masks 3.4 MiB
WORKING_SET = 1.2 * 2 ** 20


def scan_peak(G):
    d = assemble(G).regularity.scalar_degree
    tracemalloc.start()
    try:
        _scan_boundaries(G, d, DEFAULT_TOL, keep_per_subset=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_scan_working_set_is_bounded():
    G = identity3_sample(16, 3)
    assert _block_bits(16, G.k) == 13
    assert scan_peak(G) < WORKING_SET


def test_block_scan_narrows_for_large_k():
    # the blocks narrow so that each could also gather all its k x k
    # matrices for eigvalsh, as it must when every boundary is in doubt
    G = random_scalar_regular(np.random.default_rng(12), 12, 12)
    assert _block_bits(12, 12) < _block_bits(12, 3)
    assert scan_peak(G) < WORKING_SET


def test_block_scan_follows_the_budget(monkeypatch):
    # a quarter of the budget takes blocks of a quarter of the masks, the
    # same bytes, and less memory
    G = identity3_sample(16, 3)
    d = assemble(G).regularity.scalar_degree
    full = scan_bytes(G, d)
    monkeypatch.setattr(expansion, "SCAN_BUDGET", SCAN_BUDGET // 4)
    assert _block_bits(16, G.k) == 11
    assert scan_bytes(G, d) == full
    assert scan_peak(G) < WORKING_SET / 2


def test_scan_trace_is_exact_at_the_size_limit():
    # n = 20, the exhaustive limit: an equiangular3 weighting of a random
    # cubic graph, whose argmin trace must be the definition's own bits
    G = equiangular3_sample(CHEEGER_EXHAUSTIVE_MAX_N, 20)
    assert G.k == 2 and assemble(G).regularity.scalar_degree == pytest.approx(1.5)
    ops = assemble(G)
    report = cheeger_analysis(ops)[0]
    h_trace, _ = cheeger_ratios(ops, report.argmin)
    assert np.float64(report.h_trace).tobytes() == np.float64(h_trace).tobytes()
    assert_scan_matches_chunked_scan(G, keep_per_subset=False)


def test_cheeger_smallest_graph():
    for k in (1, 2, 3):
        G = lift_identity(unit_graph(2, [(0, 1)]), k)
        report = cheeger_analysis(assemble(G), keep_per_subset=True)[0]
        assert report.argmin == (0,)
        assert list(report.per_subset) == [(0,)]
        assert report.h_loewner_alpha == 1.0
        assert_scan_matches_reference(G)


def test_cheeger_lower_bounds_k2_equality():
    G = lift_identity(unit_graph(2, [(0, 1)]), 2)
    trace_rep, loewner_rep = cheeger_analysis(assemble(G))[1]
    # h_tr = 2 and (1/2d) sum lambda_{k+i} = (1/2)(2+2) = 2
    assert float(trace_rep.lhs) == pytest.approx(2.0, abs=1e-12)
    assert float(trace_rep.rhs) == pytest.approx(2.0, abs=1e-12)
    assert trace_rep.holds and loewner_rep.holds


def test_cheeger_lower_bounds_complete_lift_strict():
    G = lift_identity(complete_graph(5), 2)
    trace_rep, loewner_rep = cheeger_analysis(assemble(G))[1]
    assert trace_rep.holds and loewner_rep.holds
    assert trace_rep.slack > 0.1


def test_cheeger_lower_bounds_counterexample_trivial():
    # kernel dimension 4 = 2k makes lambda_{k+1} = 0: bounds trivially hold
    G = k33_latin_mwg()
    trace_rep, loewner_rep = cheeger_analysis(assemble(G))[1]
    assert trace_rep.holds and loewner_rep.holds
    assert float(trace_rep.lhs) == pytest.approx(0.0, abs=1e-10)
    assert float(loewner_rep.lhs) == pytest.approx(0.0, abs=1e-10)


def test_cheeger_lower_bounds_exhaustive_lifts():
    for scalar in (complete_graph(4), cycle_graph(6), complete_graph(6)):
        for k in (1, 2):
            G = lift_identity(scalar, k)
            trace_rep, loewner_rep = cheeger_analysis(assemble(G))[1]
            assert trace_rep.holds and loewner_rep.holds


# --- counterexample certificate ----------------------------------------------


def test_counterexample_k33_latin_certifies():
    cert = cheeger_analysis(assemble(k33_latin_mwg()))[2]
    assert cert.kernel_dim == 4
    assert cert.min_boundary_rank == 2
    assert cert.alpha > 0.0
    assert cert.h_trace > 0.0
    assert cert.holds


def test_counterexample_k4_abc_fails():
    # K4 with the three line projections has kernel dimension 2, not 4
    cert = cheeger_analysis(assemble(k4_abc_mwg()))[2]
    assert cert.kernel_dim == 2
    assert not cert.holds


def test_counterexample_identity_weighted_fails():
    G = lift_identity(complete_graph(4), 2)
    cert = cheeger_analysis(assemble(G))[2]
    assert cert.kernel_dim == 2  # = k < 2k
    assert not cert.holds


def test_counterexample_disconnected_fails():
    G = lift_identity(unit_graph(4, [(0, 1), (2, 3)]), 2)
    cert = cheeger_analysis(assemble(G))[2]
    assert cert.min_boundary_rank == 0
    assert not cert.holds


def test_certificate_is_decided_by_kernel_and_rank():
    # rank k on every boundary puts lambda_min above the rank cutoff, which is
    # >= 0, on each, so alpha > 0 and h_trace > 0 never change the verdict,
    # also where singular boundaries leave alpha's sign to rounding
    from mwgraph.frames import build_expander, equiangular_frame_2d, search_expanders
    frame = equiangular_frame_2d(3)
    graphs = [build_expander(res.graph, res.coloring, frame)
              for res in search_expanders(8, 3, frame)]
    rng = np.random.default_rng(576)
    graphs += [random_scalar_regular(rng, n, k)
               for _ in range(10) for n in range(3, 11) for k in (1, 2, 3)]
    certs = [cheeger_analysis(assemble(G, tol))[2]
             for G in graphs for tol in (DEFAULT_TOL, Tolerances(rank_rel_tol=0.0))]
    assert len(certs) >= 500
    assert sum(cert.alpha <= 0.0 for cert in certs) >= 10
    assert 0 < sum(cert.holds for cert in certs) < len(certs)
    for cert in certs:
        assert cert.holds == (cert.kernel_dim >= 2 * cert.k and cert.min_boundary_rank == cert.k
                              and cert.alpha > 0.0 and cert.h_trace > 0.0)
