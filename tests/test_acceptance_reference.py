"""The corpus criteria A2-A7 against their per-criterion loops.

The suite makes one pass over the corpus for A2-A7, with one assembly per
member.  The loops below are the criteria as they ran before, each walking
the corpus on its own through the public functions; the pass must report the
same details, floats equal with ==, and the same first error per criterion.
"""

import dataclasses
import importlib
import itertools

import numpy as np
import pytest

from mwgraph.acceptance import (
    CHECK_TOL,
    EXACT_TOL,
    CriterionResult,
    Suite,
    atlas_lift_graphs,
    complete_bipartite,
    random_graph,
    unit_scalar_graph,
)
from mwgraph.errors import MwgError, NotPsdError, SingularVolumeError
from mwgraph.expansion import (
    cheeger_analysis,
    eml_irregular,
    eml_irregular_pairs,
    eml_regular_exhaustive,
    irregular_context,
)
from mwgraph.graphs import BaseGraph, MatrixWeightedGraph, lift_identity
from mwgraph.linalg import Tolerances, _pseudo_sqrt_inv
from mwgraph.operators import (
    assemble,
    check_adjacency_trace_bounds,
    check_laplacian_trace_bounds,
    check_normalized_bound,
    solve_stacked,
)
from mwgraph.sheaf import build_coboundary, sheaf_analysis


def members(suite):
    """The corpus as a list, built whole before any analysis, as each
    criterion's own loop built it."""
    return [G for _, G in suite.corpus()]


def scalar_regular_members(suite):
    return [G for G in members(suite)
            if assemble(G, suite.tol).regularity.is_scalar_regular and G.base.n <= 8]


def reference_a2(suite):
    worst = -np.inf
    graphs = members(suite)
    for G in graphs:
        report = check_normalized_bound(assemble(G, suite.tol))
        worst = max(worst, float(report.lhs))
    attain = {}
    for name, base in (("k2", BaseGraph.from_edges(2, [(0, 1)])),
                       ("k33", complete_bipartite(3, 3))):
        G = lift_identity(unit_scalar_graph(base.n, base.edges), 2)
        report = check_normalized_bound(assemble(G, suite.tol))
        attain[name] = bool(report.context["attained"])
    passed = worst <= 2.0 + CHECK_TOL and attain["k2"] and attain["k33"]
    return passed, {"graphs": len(graphs), "max_lambda": worst,
                    "k2_attained": attain["k2"], "k33_attained": attain["k33"]}


def reference_a3(suite):
    worst = np.inf
    lift_equality_gap = 0.0
    corpus = list(suite.corpus())
    for source, G in corpus:
        ops = assemble(G, suite.tol)
        lap = check_laplacian_trace_bounds(ops)
        adj = check_adjacency_trace_bounds(ops)
        worst = min(worst, lap.slack, adj.slack)
        if source != "lift" or G.base.n < 2:
            continue
        gap = max(abs(lap.context["sum_low"] - lap.context["lambda2_trace"]),
                  abs(lap.context["sum_high"] - lap.context["lambdan_trace"]),
                  abs(adj.context["sum_top"] - adj.context["mu1_trace"]),
                  abs(adj.context["sum_bottom"] - adj.context["mun_trace"]))
        lift_equality_gap = max(lift_equality_gap, gap)
    passed = worst >= -CHECK_TOL and lift_equality_gap <= CHECK_TOL
    return passed, {"graphs": len(corpus), "min_slack": float(worst),
                    "lift_equality_gap": float(lift_equality_gap)}


def reference_a4(suite):
    tol = dataclasses.replace(suite.tol, resid_tol=1e-9)
    worst_ratio = 0.0
    dims_match = True
    graphs = members(suite)
    for G in graphs:
        report, sections, kdim = sheaf_analysis(assemble(G, tol))
        worst_ratio = max(worst_ratio, float(report.lhs) / float(report.rhs))
        dims_match = dims_match and sections.shape[1] == kdim
    passed = worst_ratio <= 1.0 and dims_match
    return passed, {"graphs": len(graphs), "worst_residual_ratio": worst_ratio,
                    "h0_matches_kernel": dims_match}


def reference_a5(suite):
    worst = np.inf
    count = 0
    for G in scalar_regular_members(suite):
        report = eml_regular_exhaustive(assemble(G, suite.tol))
        worst = min(worst, report.slack)
        count += 1
    passed = count > 0 and worst >= -CHECK_TOL
    return passed, {"graphs": count, "min_slack": float(worst)}


def reference_a6(suite, graphs_needed=500, pairs_each=200):
    rng = np.random.default_rng(suite.seed + 1)
    candidates = []
    fresh = (random_graph(rng) for _ in itertools.count())
    seeded = [G for _, G in itertools.islice(suite.corpus(), suite.random_count)]
    for G in itertools.chain(seeded, fresh):
        if assemble(G, suite.tol).regularity.kind != "irregular":
            continue
        try:
            ctx = irregular_context(assemble(G, suite.tol))
        except SingularVolumeError:
            continue
        candidates.append((G, ctx))
        if len(candidates) >= graphs_needed:
            break
    worst = np.inf
    for G, ctx in candidates:
        n = G.base.n
        ind_S = (rng.random((pairs_each, n)) < 0.5).astype(float)
        ind_T = (rng.random((pairs_each, n)) < 0.5).astype(float)
        lhs, rhs = eml_irregular_pairs(ctx, ind_S, ind_T)
        worst = min(worst, float(np.min(rhs - lhs)))
    k2 = MatrixWeightedGraph.from_weights(2, 1, [(0, 1, np.array([[1.0]]))])
    report = eml_irregular(assemble(k2, suite.tol), [0], [1])
    k2_gap = max(abs(float(report.lhs) - 0.5), abs(float(report.rhs) - 0.5))
    passed = worst >= -CHECK_TOL and k2_gap <= EXACT_TOL
    return passed, {"graphs": len(candidates), "pairs_each": pairs_each,
                    "min_slack": float(worst), "k2_equality_gap": float(k2_gap)}


def reference_a7(suite):
    worst = np.inf
    count = 0
    for G in scalar_regular_members(suite):
        reg = assemble(G, suite.tol).regularity
        if reg.scalar_degree <= 0 or G.base.n < 2:
            continue
        trace_report, loewner_report = cheeger_analysis(assemble(G, suite.tol))[1]
        worst = min(worst, trace_report.slack, loewner_report.slack)
        count += 1
    passed = count > 0 and worst >= -CHECK_TOL
    return passed, {"graphs": count, "min_slack": float(worst)}


REFERENCES = {"A2": reference_a2, "A3": reference_a3, "A4": reference_a4,
              "A5": reference_a5, "A6": reference_a6, "A7": reference_a7}


def outcome(fn, *args):
    """(passed, details) as Suite.run reports them, errors included."""
    try:
        result = fn(*args)
    except MwgError as exc:
        return False, {"error": f"{type(exc).__name__}: {exc}"}
    if isinstance(result, CriterionResult):
        return result.passed, result.details
    return result


@pytest.mark.parametrize("make_suite", [
    lambda: Suite(seed=0, random_count=100),
    lambda: Suite(Tolerances(psd_tol=1e-30), random_count=20),
], ids=["seed0-100", "psd_tol-1e-30"])
def test_shared_pass_matches_per_criterion_loops(make_suite):
    suite, reference_suite = make_suite(), make_suite()
    criteria = {"A2": suite.a2_normalized_bound, "A3": suite.a3_trace_bounds,
                "A4": suite.a4_sheaf_factorization, "A5": suite.a5_regular_eml,
                "A6": suite.a6_irregular_eml, "A7": suite.a7_cheeger_lower_bounds}
    for cid, criterion in criteria.items():
        assert outcome(criterion) == outcome(REFERENCES[cid], reference_suite), cid


def test_atlas_lifts_match_identity_lifts():
    # the k = 1 members are the scalar graphs themselves, not lift_identity
    # copies of them; every weight keeps its bits
    import networkx as nx
    expected = []
    for g in nx.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 6:
            scalar = unit_scalar_graph(g.number_of_nodes(), g.edges())
            expected += [lift_identity(scalar, k) for k in (1, 2, 3)]
    lifts = list(atlas_lift_graphs())
    assert len(lifts) == len(expected) == 624
    for G, H in zip(lifts, expected):
        assert (G.base, G.k) == (H.base, H.k)
        assert list(G.weights) == list(H.weights)
        assert all(G.weights[e].tobytes() == H.weights[e].tobytes() for e in G.weights)


CORPUS_CRITERIA = ("A2", "A3", "A4", "A5", "A6", "A7")


def corpus_outcomes(suite):
    criteria = (suite.a2_normalized_bound, suite.a3_trace_bounds,
                suite.a4_sheaf_factorization, suite.a5_regular_eml,
                suite.a6_irregular_eml, suite.a7_cheeger_lower_bounds)
    return {cid: outcome(criterion) for cid, criterion in zip(CORPUS_CRITERIA, criteria)}


def failing_after(items, count, message):
    """items' first `count` entries, then an MwgError."""
    yield from itertools.islice(items, count)
    raise MwgError(message)


def test_failing_random_member_stops_every_corpus_criterion(monkeypatch):
    from mwgraph import acceptance
    draws = itertools.count()
    random_graph = acceptance.random_graph

    def draw(rng):
        if next(draws) == 7:
            raise MwgError("member 7 failed")
        return random_graph(rng)

    monkeypatch.setattr(acceptance, "random_graph", draw)
    outcomes = corpus_outcomes(Suite(seed=0, random_count=20))
    error = {"error": "MwgError: member 7 failed"}
    assert outcomes == dict.fromkeys(CORPUS_CRITERIA, (False, error))


def test_failing_lift_keeps_a6_and_comes_before_earlier_errors(monkeypatch):
    # each criterion's own loop built the whole corpus before any work, so a
    # lift that fails to build outranks A4's error on an earlier random member;
    # A6 reads only the random graphs and keeps its result
    from mwgraph import acceptance
    expected_a6 = corpus_outcomes(Suite(seed=0, random_count=20))["A6"]
    lifts = acceptance.atlas_lift_graphs
    monkeypatch.setattr(acceptance, "atlas_lift_graphs",
                        lambda: failing_after(lifts(), 5, "lift 5 failed"))

    def sheaf_fails(ops):
        raise MwgError("sheaf failed")

    monkeypatch.setattr(acceptance, "sheaf_analysis", sheaf_fails)
    outcomes = corpus_outcomes(Suite(seed=0, random_count=20))
    error = (False, {"error": "MwgError: lift 5 failed"})
    assert outcomes == {"A2": error, "A3": error, "A4": error, "A5": error,
                        "A6": expected_a6, "A7": error}
    assert expected_a6[0] is True


def test_failing_built_expander_keeps_a6(monkeypatch):
    from mwgraph import acceptance
    expected_a6 = corpus_outcomes(Suite(seed=0, random_count=20))["A6"]
    monkeypatch.setattr(acceptance.Suite, "built_expanders",
                        property(lambda self: failing_after(iter([]), 0, "expander failed")))
    outcomes = corpus_outcomes(Suite(seed=0, random_count=20))
    error = (False, {"error": "MwgError: expander failed"})
    assert outcomes == {"A2": error, "A3": error, "A4": error, "A5": error,
                        "A6": expected_a6, "A7": error}


# --- the stacked solves of the shared pass -----------------------------------


def _direct(ops):
    """Each stacked quantity of ops, solved as a single matrix, as the pass
    solved it one member at a time."""
    A_tr = ops.trace_adjacency
    half = ops._block_diagonal(_pseudo_sqrt_inv(ops.degree_blocks, ops.tol))
    lap_normalized = half @ ops.laplacian @ half
    delta = build_coboundary(ops.graph, tol=ops.tol).matrix
    return (half,
            np.linalg.eigvalsh(ops.laplacian),
            np.linalg.eigvalsh(ops.adjacency),
            np.linalg.eigvalsh((lap_normalized + lap_normalized.T) / 2.0),
            np.linalg.eigvalsh(np.diag(A_tr.sum(axis=1)) - A_tr),
            np.linalg.eigvalsh(A_tr),
            (delta, np.linalg.norm(delta.T @ delta - ops.laplacian, 2)))


def _bytes(value):
    if isinstance(value, tuple):
        return tuple(np.asarray(v).tobytes() for v in value)
    return value.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_fill_is_bitwise_each_members_own(seed):
    # every quantity the pass solves per shape group of a chunk has the bits
    # of the member's own single-bundle read and of a 2-D numpy call
    from mwgraph import acceptance
    members = [G for _, G in Suite(seed=seed).corpus()]
    assert len(members) == 1626
    shapes = set()
    for start in range(0, len(members), acceptance._CHUNK):
        chunk = members[start:start + acceptance._CHUNK]
        bundles = [assemble(G) for G in chunk]
        solve_stacked(bundles, acceptance._STACKED)
        for G, ops in zip(chunk, bundles):
            shapes.add((ops.n, ops.k, len(G.weights) > 0))
            alone = assemble(G)
            for quantity, direct in zip(acceptance._STACKED, _direct(alone)):
                assert quantity.name in ops.__dict__
                filled = _bytes(quantity.of(ops))
                assert filled == _bytes(quantity.of(alone)) == _bytes(direct), quantity.name
    # n = 1 edgeless members and k = 3 members, with and without edges
    assert {(1, 1, False), (1, 3, False), (6, 3, True)} <= shapes


def _outcomes_and_references(suite, reference_suite):
    return corpus_outcomes(suite), {cid: outcome(REFERENCES[cid], reference_suite)
                                    for cid in CORPUS_CRITERIA}


@pytest.mark.parametrize("module_name, function_name, cid", [
    ("operators", "_pseudo_sqrt_inv", "A2"),
    ("sheaf", "build_coboundary", "A4"),
])
def test_stacked_solve_failing_mid_chunk_keeps_attribution(monkeypatch, module_name,
                                                           function_name, cid):
    # a stacked solve that raises for member 70, in the middle of the second
    # chunk, fills nothing for its shape group; each member of the group
    # then solves its own, so only member 70 meets the error, where the
    # criterion's own loop meets it
    chunk = [G for _, G in Suite(seed=0, random_count=100).corpus()][64:128]
    marked = chunk[70 - 64]
    assert sum((G.base.n, G.k) == (marked.base.n, marked.k) for G in chunk) > 1
    # what marks member 70 in the argument: its first degree block in the
    # stack _pseudo_sqrt_inv takes, its first edge weight in the graph
    # build_coboundary takes
    if module_name == "operators":
        marker = assemble(marked).degree_blocks[0].tobytes()
    else:
        marker = next(iter(marked.weights.values())).tobytes()
    module = importlib.import_module(f"mwgraph.{module_name}")
    real = getattr(module, function_name)

    def failing(arg, *args, **kwargs):
        blocks = arg if module_name == "operators" else arg.weights.values()
        if any(block.tobytes() == marker for block in blocks):
            raise NotPsdError("member 70 failed")
        return real(arg, *args, **kwargs)

    monkeypatch.setattr(module, function_name, failing)
    outcomes, references = _outcomes_and_references(Suite(seed=0, random_count=100),
                                                    Suite(seed=0, random_count=100))
    assert outcomes == references
    assert outcomes[cid] == (False, {"error": "NotPsdError: member 70 failed"})


@pytest.mark.parametrize("random_count", [100, 68])
def test_member_failing_to_build_mid_chunk_keeps_attribution(monkeypatch, random_count):
    # member 70 fails to build: the 6 members before it in its chunk are
    # analysed first, so when member 70 is a lift A6 keeps its result, which
    # reads random members 64-67 of that chunk
    corpus = Suite.corpus
    monkeypatch.setattr(Suite, "corpus",
                        lambda self: failing_after(corpus(self), 70, "member 70 failed"))
    outcomes, references = _outcomes_and_references(Suite(seed=0, random_count=random_count),
                                                    Suite(seed=0, random_count=random_count))
    assert outcomes == references
    error = (False, {"error": "MwgError: member 70 failed"})
    assert (outcomes["A6"] == error) == (random_count > 70)
