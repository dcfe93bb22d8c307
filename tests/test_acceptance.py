"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line.  The shared Suite fixture builds the
graph corpus once per session; A12 runs the verify-paper command twice and
compares raw bytes.  Suite.run, which runs A9 in a second process, is
checked against the criteria called in turn in this one.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mwgraph import jsonio
from mwgraph.acceptance import CRITERIA, CriterionResult, Suite, results_to_jsonable
from mwgraph.cli import main
from mwgraph.errors import DomainError, MwgError, NotTightError
from mwgraph.linalg import Tolerances

from conftest import count_calls


@pytest.fixture(scope="module")
def suite():
    return Suite(seed=0, workers=1, random_count=1000)


def _check(result):
    print(f"{result.cid}: {'PASS' if result.passed else 'FAIL'} - {result.name} - {result.details}")
    assert result.passed, f"{result.cid} failed: {result.details}"
    return result


def test_a1_frame_identity(suite):
    result = _check(suite.a1_frame_identity())
    assert result.details["entry_error"] <= 1e-12
    assert result.details["sum_error"] <= 1e-12


def test_a2_normalized_bound(suite):
    result = _check(suite.a2_normalized_bound())
    assert result.details["graphs"] >= 1000
    assert result.details["max_lambda"] <= 2.0 + 1e-8
    assert result.details["k2_attained"] and result.details["k33_attained"]


def test_a3_trace_bounds(suite):
    result = _check(suite.a3_trace_bounds())
    assert result.details["min_slack"] >= -1e-8
    assert result.details["lift_equality_gap"] <= 1e-8


@pytest.fixture(scope="module")
def pass_calls(suite):
    """Calls made by one shared A2-A7 pass over the suite's corpus, whose
    members are built beforehand so that only their analysis is counted."""
    from mwgraph import acceptance, frames, graphs, linalg, operators, sheaf
    from mwgraph.operators import OperatorBundle
    members = list(suite.corpus())
    factored = []  # the weights of each _factored_weights call
    real_factored = sheaf._factored_weights

    def factoring(sym, *args):
        factored.append(len(sym))
        return real_factored(sym, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suite, "corpus", lambda: iter(members))
        mp.setattr(sheaf, "_factored_weights", factoring)
        calls = {
            "assemble": count_calls(mp, "assemble", acceptance, operators, sheaf),
            # every regularity test runs _regularity
            "regularity": count_calls(mp, "_regularity", graphs, operators),
            "trace_adjacency": count_calls(mp, "func",
                                           OperatorBundle.__dict__["trace_adjacency"]),
            "as_symmetric": count_calls(mp, "as_symmetric", linalg, sheaf, frames),
            **{name: count_calls(mp, name, np.linalg)
               for name in ("eigvalsh", "eigh", "norm", "svd")},
        }
        acceptance._CorpusPass(suite)
    return {"members": len(members), "edges": sum(len(G.base.edges) for _, G in members),
            "sheaf_weights": len(factored), "factored_weights": sum(factored),
            **{name: len(made) for name, made in calls.items()}}


def test_a3_one_assembly_per_graph(suite, pass_calls):
    # one assembly and one regularity test per member serve A2-A7
    assert suite.a3_trace_bounds().passed
    graphs = pass_calls["members"]
    assert (pass_calls["assemble"], pass_calls["regularity"]) == (graphs, graphs)


def test_a3_one_trace_graph_per_graph(suite, pass_calls):
    # the trace checks, A5 and A6 read the bundle's one trace adjacency
    assert suite.a3_trace_bounds().passed
    assert pass_calls["trace_adjacency"] == pass_calls["members"]


def test_corpus_and_a2_to_a7_assembly_counts(monkeypatch):
    # the pass, A2's two attainment graphs and A6's K2; at seed 0 the corpus
    # has the irregular graphs A6 needs, so A6 draws and assembles no fresh one
    from mwgraph import acceptance, graphs, operators
    assembled = count_calls(monkeypatch, "assemble", acceptance, operators)
    classified = count_calls(monkeypatch, "_regularity", graphs, operators)
    fresh = Suite(seed=0)
    for criterion in (fresh.a2_normalized_bound, fresh.a3_trace_bounds,
                      fresh.a4_sheaf_factorization, fresh.a5_regular_eml,
                      fresh.a6_irregular_eml, fresh.a7_cheeger_lower_bounds):
        assert criterion().passed
    assert sum(1 for _ in fresh.corpus()) == 1626
    assert (len(assembled), len(classified)) == (1629, 1626)


def test_corpus_pass_lapack_calls(pass_calls):
    # A2-A4's five spectra, D^(+/2) and the sheaf check are solved once per
    # shape group of a 64-member chunk (362 groups at seed 0), not once per
    # member: solved one member at a time, the pass made 11,001 eigvalsh,
    # 3,234 eigh and 3,252 norm calls.  ||L|| is read off the Laplacian's
    # eigenvalues.  Each group's eigh calls are D^(+/2)'s and the sheaf
    # check's two, of the edge weights and of the Gram matrices, whose
    # kernels it counts with one more eigvalsh; its norm call is the sheaf
    # residuals'.  No SVD is left: the per-member coboundary SVD made 1,608
    assert pass_calls["members"] == 1626
    assert (pass_calls["eigvalsh"], pass_calls["eigh"], pass_calls["norm"],
            pass_calls["svd"]) == (3420 + 362, 3 * 362, 362, 0)


def test_corpus_pass_holds_one_member_at_a_time():
    # the pass holds one 64-member chunk of bundles and their stacked
    # solves, and drops it before building the next: it peaked at 2.6 MiB.
    # Holding all 1,626 members and the parsed networkx atlas, it peaked at
    # 28.5 MiB
    from mwgraph import acceptance
    suite = Suite(seed=0)
    tracemalloc.start()
    try:
        corpus = acceptance._CorpusPass(suite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corpus.graphs == 1626 and not corpus.errors
    assert peak < 5 * 2 ** 20


def test_corpus_builds_without_networkx():
    # networkx is a test-only dependency: the corpus is built from the
    # embedded atlas table
    script = ("import sys; sys.modules['networkx'] = None\n"
              "from mwgraph.acceptance import Suite\n"
              "print(sum(1 for _ in Suite(seed=0).corpus()))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1626"]


def test_a4_sheaf_factorization(suite):
    result = _check(suite.a4_sheaf_factorization())
    assert result.details["worst_residual_ratio"] <= 1.0
    assert result.details["h0_matches_kernel"]


def test_a4_one_analysis_per_graph(suite, pass_calls):
    # the sheaf analysis reads the pass's bundle; dim ker L comes from its
    # laplacian_values and the sheaf check factors the stored weights, which
    # from_weights symmetrized already, so nothing is symmetrized again.
    # Each member's weights are factored once, in one call per shape group
    # of a chunk (362 at seed 0)
    assert suite.a4_sheaf_factorization().passed
    graphs = pass_calls["members"]
    assert (pass_calls["assemble"], pass_calls["as_symmetric"]) == (graphs, 0)
    assert (pass_calls["sheaf_weights"], pass_calls["factored_weights"]) == (
        362, pass_calls["edges"])


def test_a5_regular_eml(suite):
    result = _check(suite.a5_regular_eml())
    assert result.details["min_slack"] >= -1e-8


def test_a6_irregular_eml(suite):
    result = _check(suite.a6_irregular_eml())
    assert result.details["graphs"] >= 500
    assert result.details["min_slack"] >= -1e-8
    assert result.details["k2_equality_gap"] <= 1e-12


def test_a7_cheeger_lower_bounds(suite):
    result = _check(suite.a7_cheeger_lower_bounds())
    assert result.details["min_slack"] >= -1e-8


def test_a8_counterexample(suite):
    result = _check(suite.a8_counterexample())
    assert result.details["witnesses"] >= 1
    assert result.details["witness_alpha"] > 0.0
    assert result.details["witness_h_trace"] > 0.0


def test_a9_expander_search(suite):
    result = _check(suite.a9_expander_search())
    assert result.details["degree_ok"]
    assert result.details["worst_degree_gap"] <= 1e-10
    assert result.details["pairs_searched"] > 0
    # the search does locate the reported mu-range and expansion constant
    # (recorded, not required by the pass condition)
    assert result.details["target_mu_range_matched"] is True
    assert result.details["target_matches"] == 12


def test_a10_alon_boppana(suite):
    result = _check(suite.a10_alon_boppana())
    assert result.details["example_gap"] <= 1e-12


def test_a11_truss(suite):
    result = _check(suite.a11_truss())
    assert result.details["tetrahedron_kernel"] == 6
    assert result.details["rigid_motion_count"] == 6
    assert result.details["kernel_residual"] <= 1e-8
    assert result.details["bar_kernel"] == 5


def test_a11_builds_each_truss_once(suite, monkeypatch):
    from mwgraph import acceptance
    built = count_calls(monkeypatch, "regular_tetrahedron_truss", acceptance)
    analysed = count_calls(monkeypatch, "truss_rigidity", acceptance)
    assert suite.a11_truss().passed
    assert (len(built), len(analysed)) == (1, 2)


def test_suite_rejects_a_negative_seed():
    with pytest.raises(DomainError, match="^seed must be >= 0$"):
        Suite(seed=-1)


def test_suite_rejects_a_negative_random_count():
    with pytest.raises(DomainError, match="^random_count must be >= 0$"):
        Suite(random_count=-5)


def test_a12_verify_paper_deterministic(capsys):
    argv = ["--format", "json", "verify-paper"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    print(f"A12: {'PASS' if first == second else 'FAIL'} - verify-paper byte-identical")
    assert first == second
    report = json.loads(first)
    assert report["all_passed"] is True
    ids = [c["id"] for c in report["criteria"]]
    assert ids == [f"A{i}" for i in range(1, 13)]


# --- Suite.run's two processes -------------------------------------------------


def _criteria_in_turn(suite):
    """A1..A11, each Suite method called in turn in this process, an
    MwgError made its criterion's failure row."""
    results = []
    for cid, (name, method) in CRITERIA.items():
        try:
            results.append(getattr(suite, method)())
        except MwgError as exc:
            results.append(CriterionResult(cid, name, False,
                                           {"error": f"{type(exc).__name__}: {exc}"}))
    return results


def _assert_no_child_left():
    assert multiprocessing.active_children() == []
    # no child process at all, running or exited and unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising(exc):
    def criterion(self):
        raise exc
    return criterion


@pytest.mark.parametrize("settings", [{}, {"workers": 2}, {"tol": Tolerances(psd_tol=1e-30)}],
                         ids=["default", "workers2", "psd_tol_1e-30"])
def test_run_gives_the_bytes_of_the_criteria_in_turn(settings):
    # A9 runs in a forked child (with its own pool at workers = 2) beside
    # the rest; at psd_tol = 1e-30 six criteria are failure rows
    ran = Suite(seed=0, random_count=20, **settings).run()
    _assert_no_child_left()
    in_turn = _criteria_in_turn(Suite(seed=0, random_count=20, **settings))
    assert [result.cid for result in ran] == list(CRITERIA)
    assert jsonio.dumps(results_to_jsonable(ran)) == jsonio.dumps(results_to_jsonable(in_turn))


def test_mwg_error_in_the_search_child_is_its_failure_row(monkeypatch):
    monkeypatch.setattr(Suite, "a9_expander_search", _raising(NotTightError("injected")))
    results = Suite(seed=0, random_count=20).run()
    _assert_no_child_left()
    assert [result.cid for result in results] == list(CRITERIA)
    a9 = results[list(CRITERIA).index("A9")]
    assert (a9.name, a9.passed, a9.details) == (
        CRITERIA["A9"][0], False, {"error": "NotTightError: injected"})
    assert all(result.passed for result in results if result.cid != "A9")


@pytest.mark.parametrize("method", ["a9_expander_search", "a2_normalized_bound"])
def test_other_errors_propagate_from_either_process(monkeypatch, method):
    # A9's from the child, A2's from this process while the child searches;
    # either way the child is joined before run() raises
    monkeypatch.setattr(Suite, method, _raising(RuntimeError(f"injected into {method}")))
    with pytest.raises(RuntimeError, match=f"^injected into {method}$"):
        Suite(seed=0, random_count=20).run()
    _assert_no_child_left()
