"""Batch verification suite behind ``mwgraph verify-paper``.

Runs every library-level guarantee on a fixed corpus: a seeded family of
randomized PSD-weighted graphs (n <= 8, k <= 3), identity-lifts of every
graph on at most 6 vertices (via the networkx graph atlas), and the two
frame-built expanders the search produces.  Each criterion reports one
pass/fail line with deterministic numeric details, so two runs with the
same seed serialize to byte-identical JSON.

The corpus criteria A2-A7 share one pass over the members, made the first
time one of them runs: each member is assembled once, its regularity read
once, and every quantity the six criteria report is taken from that one
bundle.  Each criterion still reports the first error its own loop would
meet, in member order.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import jsonio
from .errors import MwgError, SingularVolumeError
from .expansion import (
    IrregularContext,
    _cheeger_analysis,
    _cheeger_degree,
    eml_irregular,
    eml_irregular_pairs,
    eml_regular_exhaustive,
    irregular_context,
    verify_counterexample,
)
from .frames import (
    augment_with_identity,
    build_expander,
    equiangular_frame_2d,
    proper_edge_coloring,
    ratio_inequality_holds,
    alon_boppana_compare,
    search_expanders,
)
from .graphs import BaseGraph, MatrixWeightedGraph, lift_identity
from .linalg import DEFAULT_TOL, Tolerances
from .operators import (
    CHECK_TOL,
    OperatorBundle,
    assemble,
    check_adjacency_trace_bounds,
    check_laplacian_trace_bounds,
    check_normalized_bound,
)
from .sheaf import Truss, _sheaf_analysis, truss_rigidity

FRAME_TOL = 1e-12
EXACT_TOL = 1e-12
DEGREE_TOL = 1e-10
TARGET_ETA = 0.094
TARGET_MU_MIN = -2.406
TARGET_MU_MAX = 1.803
TARGET_MATCH_TOL = 2e-3
# A6 checks this many irregular graphs: the corpus's, then fresh draws
IRREGULAR_GRAPHS = 500


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {"id": self.cid, "name": self.name, "passed": self.passed,
                "details": self.details}


# --- input corpus ------------------------------------------------------------


def random_psd_matrix(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random PSD weight; occasionally rank-deficient to exercise pseudoinverses."""
    rank = k
    if k > 1 and rng.random() < 0.35:
        rank = int(rng.integers(1, k))
    B = rng.normal(size=(rank, k))
    scale = float(10.0 ** rng.uniform(-1.0, 1.0))
    return scale * (B.T @ B)


def random_graph(rng: np.random.Generator, n_max: int = 8, k_max: int = 3) -> MatrixWeightedGraph:
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    p = float(rng.uniform(0.3, 0.95))
    items = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                items.append((u, v, random_psd_matrix(rng, k)))
    if not items:
        items.append((0, 1, random_psd_matrix(rng, k)))
    return MatrixWeightedGraph.from_weights(n, k, items)


def unit_scalar_graph(n: int, edges) -> MatrixWeightedGraph:
    return MatrixWeightedGraph.from_weights(n, 1, [(u, v, np.ones((1, 1))) for u, v in edges])


def complete_bipartite(a: int, b: int) -> BaseGraph:
    return BaseGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def atlas_lift_graphs(k_values=(1, 2, 3), n_max: int = 6) -> list[MatrixWeightedGraph]:
    """Identity-lifts (unit weights) of every graph on 1..n_max vertices."""
    import networkx as nx

    lifts = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if not (1 <= n <= n_max):
            continue
        scalar = unit_scalar_graph(n, g.edges())
        for k in k_values:
            # the k = 1 lift is the scalar graph itself
            lifts.append(scalar if k == 1 else lift_identity(scalar, k))
    return lifts


def _irregular_candidate(ops: OperatorBundle) -> IrregularContext | None:
    """A6's context for an irregular graph with invertible volume, else None."""
    if ops.regularity.kind != "irregular":
        return None
    try:
        return irregular_context(ops)
    except SingularVolumeError:
        return None


class _CorpusPass:
    """What A2-A7 read of the corpus, from one walk over the members.

    Each member is assembled once and its regularity read once; each
    criterion takes what it reports from that bundle, and only scalars and
    A6's irregular contexts are kept, so no bundle outlives its member.  A
    criterion whose work on a member raises keeps that first MwgError and
    does no more work, as its own loop would have stopped there;
    ``raise_error`` re-raises it.
    """

    def __init__(self, suite: "Suite"):
        self.errors: dict[str, MwgError] = {}
        self.max_lambda = -np.inf                             # A2
        self.trace_slack, self.lift_gap = np.inf, 0.0         # A3
        self.residual_ratio, self.h0_matches = 0.0, True      # A4
        self.eml_slack, self.eml_graphs = np.inf, 0           # A5
        self.irregular: list[IrregularContext] = []           # A6
        self.cheeger_slack, self.cheeger_graphs = np.inf, 0   # A7
        # resid_tol is read only by the factorization report
        self.sheaf_tol = dataclasses.replace(suite.tol, resid_tol=1e-9)
        randoms = suite.random_graphs
        members, lifts = randoms, set()
        try:
            members = suite.members
            lifts = {id(G) for G in suite.lift_graphs}
        except MwgError as exc:
            # A6 reads only the random graphs; the others meet this error first
            self.errors = dict.fromkeys(("A2", "A3", "A4", "A5", "A7"),
                                        exc.with_traceback(None))
        for i, G in enumerate(members):
            ops = assemble(G, suite.tol)
            reg = ops.regularity
            small_scalar = reg.is_scalar_regular and ops.n <= 8
            self._run("A2", self._normalized_bound, ops)
            self._run("A3", self._trace_bounds, ops, id(G) in lifts)
            self._run("A4", self._sheaf, ops)
            if small_scalar:
                self._run("A5", self._regular_eml, ops)
            if i < len(randoms) and len(self.irregular) < IRREGULAR_GRAPHS:
                self._run("A6", self._irregular, ops)
            if small_scalar and reg.scalar_degree > 0 and ops.n >= 2:
                self._run("A7", self._cheeger, ops)

    def _run(self, cid: str, step, *args) -> None:
        if cid in self.errors:
            return
        try:
            step(*args)
        except MwgError as exc:
            # a kept traceback would keep this member's bundle alive
            self.errors[cid] = exc.with_traceback(None)

    def raise_error(self, cid: str) -> None:
        if cid in self.errors:
            raise self.errors[cid]

    def _normalized_bound(self, ops: OperatorBundle) -> None:
        self.max_lambda = max(self.max_lambda, float(check_normalized_bound(ops).lhs))

    def _trace_bounds(self, ops: OperatorBundle, is_lift: bool) -> None:
        lap = check_laplacian_trace_bounds(ops)
        adj = check_adjacency_trace_bounds(ops)
        self.trace_slack = min(self.trace_slack, lap.slack, adj.slack)
        if not is_lift or ops.n < 2:
            return
        gap = max(abs(lap.context["sum_low"] - lap.context["lambda2_trace"]),
                  abs(lap.context["sum_high"] - lap.context["lambdan_trace"]),
                  abs(adj.context["sum_top"] - adj.context["mu1_trace"]),
                  abs(adj.context["sum_bottom"] - adj.context["mun_trace"]))
        self.lift_gap = max(self.lift_gap, gap)

    def _sheaf(self, ops: OperatorBundle) -> None:
        report, sections, kdim = _sheaf_analysis(ops, self.sheaf_tol)
        self.residual_ratio = max(self.residual_ratio, float(report.lhs) / float(report.rhs))
        self.h0_matches = self.h0_matches and sections.shape[1] == kdim

    def _regular_eml(self, ops: OperatorBundle) -> None:
        self.eml_slack = min(self.eml_slack, eml_regular_exhaustive(ops).slack)
        self.eml_graphs += 1

    def _irregular(self, ops: OperatorBundle) -> None:
        ctx = _irregular_candidate(ops)
        if ctx is not None:
            self.irregular.append(ctx)

    def _cheeger(self, ops: OperatorBundle) -> None:
        _, (trace_report, loewner_report), _ = _cheeger_analysis(
            ops, _cheeger_degree(ops.regularity, ops.n))
        self.cheeger_slack = min(self.cheeger_slack, trace_report.slack, loewner_report.slack)
        self.cheeger_graphs += 1


def regular_tetrahedron_truss() -> Truss:
    points = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    members = [(u, v, 1.0) for u, v in itertools.combinations(range(4), 2)]
    return Truss.make(points, members)


class Suite:
    """Input corpus plus criterion implementations (A1..A11)."""

    def __init__(self, tol: Tolerances = DEFAULT_TOL, seed: int = 0,
                 workers: int = 1, random_count: int = 1000):
        self.tol = tol
        self.seed = seed
        self.workers = workers
        self.random_count = random_count

    @cached_property
    def frame3(self):
        return equiangular_frame_2d(3)

    @cached_property
    def frame4(self):
        return augment_with_identity(self.frame3)

    @cached_property
    def random_graphs(self) -> list[MatrixWeightedGraph]:
        rng = np.random.default_rng(self.seed)
        return [random_graph(rng) for _ in range(self.random_count)]

    @cached_property
    def lift_graphs(self) -> list[MatrixWeightedGraph]:
        return atlas_lift_graphs()

    @cached_property
    def built_expanders(self) -> list[MatrixWeightedGraph]:
        k4 = BaseGraph.from_edges(4, itertools.combinations(range(4), 2))
        k44 = complete_bipartite(4, 4)
        return [
            build_expander(k4, proper_edge_coloring(k4, 3), self.frame3, self.tol),
            build_expander(k44, proper_edge_coloring(k44, 4), self.frame4, self.tol),
        ]

    @cached_property
    def members(self) -> list[MatrixWeightedGraph]:
        return self.random_graphs + self.lift_graphs + self.built_expanders

    @cached_property
    def _corpus_pass(self) -> _CorpusPass:
        return _CorpusPass(self)

    # --- criteria ------------------------------------------------------------

    def a1_frame_identity(self) -> CriterionResult:
        s3 = np.sqrt(3.0)
        expected = [
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.25, s3 / 4], [s3 / 4, 0.75]]),
            np.array([[0.25, -s3 / 4], [-s3 / 4, 0.75]]),
        ]
        frame = self.frame3
        entry_err = max(float(np.max(np.abs(P - E)))
                        for P, E in zip(frame.projections, expected))
        total = sum(frame.projections)
        sum_err = float(np.max(np.abs(total - 1.5 * np.eye(2))))
        passed = entry_err <= FRAME_TOL and sum_err <= FRAME_TOL
        return CriterionResult("A1", "equiangular frame identity", passed,
                               {"entry_error": entry_err, "sum_error": sum_err})

    def a2_normalized_bound(self) -> CriterionResult:
        corpus = self._corpus_pass
        corpus.raise_error("A2")
        worst = corpus.max_lambda
        attain = {}
        for name, base in (("k2", BaseGraph.from_edges(2, [(0, 1)])),
                           ("k33", complete_bipartite(3, 3))):
            G = lift_identity(unit_scalar_graph(base.n, base.edges), 2)
            report = check_normalized_bound(assemble(G, self.tol))
            attain[name] = bool(report.context["attained"])
        passed = worst <= 2.0 + CHECK_TOL and attain["k2"] and attain["k33"]
        return CriterionResult("A2", "normalized Laplacian bounded by 2", passed,
                               {"graphs": len(self.members), "max_lambda": worst,
                                "k2_attained": attain["k2"], "k33_attained": attain["k33"]})

    def a3_trace_bounds(self) -> CriterionResult:
        corpus = self._corpus_pass
        corpus.raise_error("A3")
        worst, lift_equality_gap = corpus.trace_slack, corpus.lift_gap
        passed = worst >= -CHECK_TOL and lift_equality_gap <= CHECK_TOL
        return CriterionResult("A3", "Laplacian and adjacency trace bounds", passed,
                               {"graphs": len(self.members), "min_slack": float(worst),
                                "lift_equality_gap": float(lift_equality_gap)})

    def a4_sheaf_factorization(self) -> CriterionResult:
        corpus = self._corpus_pass
        corpus.raise_error("A4")
        worst_ratio, dims_match = corpus.residual_ratio, corpus.h0_matches
        passed = worst_ratio <= 1.0 and dims_match
        return CriterionResult("A4", "sheaf factorization and global sections", passed,
                               {"graphs": len(self.members),
                                "worst_residual_ratio": worst_ratio,
                                "h0_matches_kernel": dims_match})

    def a5_regular_eml(self) -> CriterionResult:
        corpus = self._corpus_pass
        corpus.raise_error("A5")
        worst, count = corpus.eml_slack, corpus.eml_graphs
        passed = count > 0 and worst >= -CHECK_TOL
        return CriterionResult("A5", "regular mixing lemma, exhaustive pairs", passed,
                               {"graphs": count, "min_slack": float(worst)})

    def a6_irregular_eml(self, pairs_each: int = 200) -> CriterionResult:
        corpus = self._corpus_pass
        corpus.raise_error("A6")
        rng = np.random.default_rng(self.seed + 1)
        # the corpus first, then fresh graphs drawn from rng only as needed
        candidates = list(corpus.irregular)
        while len(candidates) < IRREGULAR_GRAPHS:
            ctx = _irregular_candidate(assemble(random_graph(rng), self.tol))
            if ctx is not None:
                candidates.append(ctx)
        worst = np.inf
        for ctx in candidates:
            n = ctx.n
            ind_S = (rng.random((pairs_each, n)) < 0.5).astype(float)
            ind_T = (rng.random((pairs_each, n)) < 0.5).astype(float)
            lhs, rhs = eml_irregular_pairs(ctx, ind_S, ind_T)
            worst = min(worst, float(np.min(rhs - lhs)))
        k2 = MatrixWeightedGraph.from_weights(2, 1, [(0, 1, np.array([[1.0]]))])
        report = eml_irregular(assemble(k2, self.tol), [0], [1])
        k2_gap = max(abs(float(report.lhs) - 0.5), abs(float(report.rhs) - 0.5))
        passed = worst >= -CHECK_TOL and k2_gap <= EXACT_TOL
        return CriterionResult("A6", "irregular mixing lemma", passed,
                               {"graphs": len(candidates), "pairs_each": pairs_each,
                                "min_slack": float(worst), "k2_equality_gap": float(k2_gap)})

    def a7_cheeger_lower_bounds(self) -> CriterionResult:
        corpus = self._corpus_pass
        corpus.raise_error("A7")
        worst, count = corpus.cheeger_slack, corpus.cheeger_graphs
        passed = count > 0 and worst >= -CHECK_TOL
        return CriterionResult("A7", "Cheeger lower bounds, exhaustive subsets", passed,
                               {"graphs": count, "min_slack": float(worst)})

    def a8_counterexample(self) -> CriterionResult:
        results = search_expanders(8, 3, self.frame3, self.tol, workers=self.workers)
        witnesses = []
        for res in results:
            G = build_expander(res.graph, res.coloring, self.frame3, self.tol)
            cert = verify_counterexample(G, self.tol)
            if cert.kernel_dim == 4 and cert.holds:
                witnesses.append((res, cert))
        passed = len(witnesses) > 0
        details = {"pairs_searched": len(results), "witnesses": len(witnesses)}
        if witnesses:
            res, cert = witnesses[0]
            details.update({
                "witness_n": res.n,
                "witness_code": res.code,
                "witness_coloring": list(res.coloring),
                "witness_alpha": cert.alpha,
                "witness_h_trace": cert.h_trace,
            })
        return CriterionResult("A8", "Cheeger counterexample certificate", passed, details)

    def a9_expander_search(self) -> CriterionResult:
        results = search_expanders(8, 4, self.frame4, self.tol, workers=self.workers)
        # the search's eta raises unless an expander is dI-regular with
        # d > 0, and report.d is that d
        worst_degree_gap = max((abs(res.report.d - 2.5) for res in results), default=0.0)
        degree_ok = worst_degree_gap <= DEGREE_TOL
        matches = [res for res in results
                   if abs(res.report.eta - TARGET_ETA) <= TARGET_MATCH_TOL
                   and abs(res.report.mu_nontrivial_min - TARGET_MU_MIN) <= TARGET_MATCH_TOL
                   and abs(res.report.mu_nontrivial_max - TARGET_MU_MAX) <= TARGET_MATCH_TOL]
        passed = degree_ok and len(results) > 0
        details = {
            "pairs_searched": len(results),
            "degree_ok": degree_ok,
            "worst_degree_gap": float(worst_degree_gap),
            "target_mu_range_matched": len(matches) > 0,
            "target_matches": len(matches),
        }
        if results:
            best = results[0]
            details.update({
                "best_eta": best.report.eta,
                "best_n": best.n,
                "best_code": best.code,
                "best_mu_min": best.report.mu_nontrivial_min,
                "best_mu_max": best.report.mu_nontrivial_max,
            })
        return CriterionResult("A9", "4-regular expander search at degree 5/2", passed, details)

    def a10_alon_boppana(self) -> CriterionResult:
        bounds = alon_boppana_compare(4, 1, 2)
        gap = max(abs(bounds.matrix_bound - np.sqrt(3.0)), abs(bounds.classical_bound - 2.0))
        ratio_ok = True
        checked = 0
        for r in range(2, 13):
            for d in range(3, r):
                if ratio_inequality_holds(d, r) is not True:
                    ratio_ok = False
                checked += 1
        passed = gap <= EXACT_TOL and ratio_ok
        return CriterionResult("A10", "Alon-Boppana comparison", passed,
                               {"example_gap": float(gap), "ratio_pairs_checked": checked,
                                "ratio_ok": ratio_ok})

    def a11_truss(self) -> CriterionResult:
        tetra_kernel, motions, resid = truss_rigidity(regular_tetrahedron_truss(), self.tol)
        bar = Truss.make([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [(0, 1, 1.0)])
        bar_kernel, _, _ = truss_rigidity(bar, self.tol)
        passed = (tetra_kernel == 6 and motions.shape[1] == 6
                  and resid <= CHECK_TOL and bar_kernel == 5)
        return CriterionResult("A11", "truss stiffness rigidity", passed,
                               {"tetrahedron_kernel": tetra_kernel,
                                "rigid_motion_count": int(motions.shape[1]),
                                "kernel_residual": resid,
                                "bar_kernel": bar_kernel})

    def run(self) -> list[CriterionResult]:
        criteria = [
            ("A1", "equiangular frame identity", self.a1_frame_identity),
            ("A2", "normalized Laplacian bounded by 2", self.a2_normalized_bound),
            ("A3", "Laplacian and adjacency trace bounds", self.a3_trace_bounds),
            ("A4", "sheaf factorization and global sections", self.a4_sheaf_factorization),
            ("A5", "regular mixing lemma, exhaustive pairs", self.a5_regular_eml),
            ("A6", "irregular mixing lemma", self.a6_irregular_eml),
            ("A7", "Cheeger lower bounds, exhaustive subsets", self.a7_cheeger_lower_bounds),
            ("A8", "Cheeger counterexample certificate", self.a8_counterexample),
            ("A9", "4-regular expander search at degree 5/2", self.a9_expander_search),
            ("A10", "Alon-Boppana comparison", self.a10_alon_boppana),
            ("A11", "truss stiffness rigidity", self.a11_truss),
        ]
        results = []
        for cid, name, fn in criteria:
            try:
                results.append(fn())
            except MwgError as exc:
                # over-tight tolerance overrides and similar failures are
                # flagged with their cause rather than aborting the suite
                results.append(CriterionResult(cid, name, False,
                                               {"error": f"{type(exc).__name__}: {exc}"}))
        return results


def results_to_jsonable(results: list[CriterionResult]) -> dict:
    return {
        "criteria": [r.to_jsonable() for r in results],
        "all_passed": all(r.passed for r in results),
    }


def run_suite(tol: Tolerances = DEFAULT_TOL, seed: int = 0, workers: int = 1,
              random_count: int = 1000) -> list[CriterionResult]:
    return Suite(tol, seed, workers, random_count).run()


def run_suite_with_determinism(tol: Tolerances = DEFAULT_TOL, seed: int = 0,
                               workers: int = 1,
                               random_count: int = 1000) -> list[CriterionResult]:
    """A1..A11 plus an A12 row comparing two independent runs byte-for-byte."""
    first = run_suite(tol, seed, workers, random_count)
    second = run_suite(tol, seed, workers, random_count)
    text_a = jsonio.dumps(results_to_jsonable(first))
    text_b = jsonio.dumps(results_to_jsonable(second))
    identical = text_a == text_b
    first.append(CriterionResult("A12", "deterministic verification output", identical,
                                 {"bytes": len(text_a), "identical": identical}))
    return first
