import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mwgraph.cli import main
from mwgraph.errors import MwgError
from mwgraph.graphs import MatrixWeightedGraph, load, save
from mwgraph.frames import build_expander, equiangular_frame_2d, proper_edge_coloring
from mwgraph.graphs import BaseGraph

from conftest import complete_graph, count_calls, unit_graph


@pytest.fixture
def single_edge_file(tmp_path):
    G = MatrixWeightedGraph.from_weights(2, 2, [(0, 1, np.eye(2))])
    path = tmp_path / "k2.json"
    path.write_bytes(save(G))
    return path


@pytest.fixture
def k4_abc_file(tmp_path):
    base = BaseGraph.from_edges(4, itertools.combinations(range(4), 2))
    G = build_expander(base, proper_edge_coloring(base, 3), equiangular_frame_2d(3))
    path = tmp_path / "k4abc.json"
    path.write_bytes(save(G))
    return path


@pytest.fixture
def k4_scalar_file(tmp_path):
    g = unit_graph(4, itertools.combinations(range(4), 2))
    path = tmp_path / "k4.json"
    path.write_bytes(save(g))
    return path


def test_spectrum_single_edge(single_edge_file, capsys):
    assert main(["--format", "json", "spectrum", str(single_edge_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == [0, 0, 2, 2]
    assert report["mu"] == [1, 1, -1, -1]
    assert report["kernel_dim"] == 2
    assert report["regularity"]["kind"] == "scalar"
    assert report["normalized_bound"]["holds"] is True
    assert report["normalized_bound"]["context"]["attained"] is True


def test_spectrum_assembles_once(k4_abc_file, capsys, monkeypatch):
    from mwgraph import cli, operators
    assembled = count_calls(monkeypatch, "assemble", cli, operators)
    assert main(["--format", "json", "spectrum", str(k4_abc_file)]) == 0
    assert len(assembled) == 1


def test_spectrum_sums_degrees_once(k4_abc_file, capsys, monkeypatch):
    # assemble sums the degree blocks; the regularity report reads them back
    from mwgraph import graphs, operators
    summed = count_calls(monkeypatch, "_degree_sums", graphs, operators)
    assert main(["--format", "json", "spectrum", str(k4_abc_file)]) == 0
    assert len(summed) == 1


def test_spectrum_empty_graph(tmp_path, capsys):
    G = MatrixWeightedGraph.from_weights(3, 2, [])
    path = tmp_path / "empty.json"
    path.write_bytes(save(G))
    assert main(["--format", "json", "spectrum", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == [0] * 6
    assert report["kernel_dim"] == 6


def test_spectrum_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_spectrum_missing_file(tmp_path, capsys):
    assert main(["spectrum", str(tmp_path / "nope.json")]) == 2


def test_spectrum_oversized_header_exits_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized header reached from_weights")

    monkeypatch.setattr(MatrixWeightedGraph, "from_weights", never)
    path = tmp_path / "huge.json"
    path.write_text('{"k": 1, "n": 1000000000, "edges": []}')
    assert main(["spectrum", str(path)]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_eml_pair(k4_scalar_file, capsys):
    assert main(["--format", "json", "eml", str(k4_scalar_file),
                 "--S", "0,1", "--T", "2,3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regular"]["trace"]["holds"] is True
    assert report["regular"]["spectral"]["holds"] is True
    assert report["irregular"]["holds"] is True


def test_eml_requires_subsets(k4_scalar_file, capsys):
    assert main(["eml", str(k4_scalar_file)]) == 2


def test_eml_exhaustive(k4_abc_file, capsys):
    assert main(["--format", "json", "eml", str(k4_abc_file), "--exhaustive"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regular"]["holds"] is True
    assert report["regular"]["context"]["pairs"] == 256


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--S", "", "--T", ""]])
def test_eml_empty_graph_exits_2(tmp_path, capsys, mode):
    path = tmp_path / "empty.json"
    path.write_text('{"k": 1, "n": 0, "edges": []}')
    assert main(["--format", "json", "eml", str(path)] + mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n = 0" in captured.err


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--S", "0", "--T", "1"]])
def test_eml_assembles_once(k4_abc_file, capsys, monkeypatch, mode):
    from mwgraph import cli, graphs, operators
    assembled = count_calls(monkeypatch, "assemble", cli, operators)
    # every regularity test runs _regularity
    classified = count_calls(monkeypatch, "_regularity", graphs, operators)
    assert main(["--format", "json", "eml", str(k4_abc_file), *mode]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regular"] is not None and report["irregular"] is not None
    assert (len(assembled), len(classified)) == (1, 1)


def test_cheeger_counterexample_graph(tmp_path, capsys):
    from conftest import k33_latin_mwg
    path = tmp_path / "k33.json"
    path.write_bytes(save(k33_latin_mwg()))
    assert main(["--format", "json", "cheeger", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counterexample_certificate"]["kernel_dim"] == 4
    assert report["counterexample_certificate"]["holds"] is True
    assert report["trace_lower_bound"]["holds"] is True


def test_cheeger_scans_once(tmp_path, capsys, monkeypatch):
    from conftest import k33_latin_mwg
    from mwgraph import expansion

    scans = []
    real = expansion._scan_boundaries

    def counting(*args, **kwargs):
        scans.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(expansion, "_scan_boundaries", counting)
    path = tmp_path / "k33.json"
    path.write_bytes(save(k33_latin_mwg()))
    assert main(["--format", "json", "cheeger", str(path)]) == 0
    assert len(scans) == 1


def test_cheeger_rejects_irregular(tmp_path, capsys):
    g = unit_graph(3, [(0, 1)])
    path = tmp_path / "irr.json"
    path.write_bytes(save(g))
    assert main(["cheeger", str(path)]) == 2


def test_sheaf_check(k4_abc_file, capsys):
    assert main(["--format", "json", "sheaf-check", str(k4_abc_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["factorization"]["holds"] is True
    assert report["dims_match"] is True


def test_sheaf_check_builds_once(k4_abc_file, capsys, monkeypatch):
    # one assembly; one eigh of the edge weights and one for the Gram
    # matrix's kernel basis, and no SVD of a coboundary
    from mwgraph import cli, sheaf
    assembled = count_calls(monkeypatch, "assemble", cli, sheaf)
    factored = count_calls(monkeypatch, "eigh", np.linalg)
    svds = count_calls(monkeypatch, "svd", np.linalg)
    assert main(["--format", "json", "sheaf-check", str(k4_abc_file)]) == 0
    assert (len(assembled), len(factored), len(svds)) == (1, 2, 0)


def test_sheaf_check_k400_exits_0(tmp_path, capsys):
    # K_400 with k = 1 loads (nk = 400); its coboundary would have 79,800
    # rows, 255 MB dense, but the check holds only 400 x 400 matrices
    from mwgraph.operators import assemble
    from mwgraph.sheaf import sheaf_analysis
    G = complete_graph(400)
    path = tmp_path / "k400.json"
    path.write_bytes(save(G))
    assert main(["--format", "json", "sheaf-check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["h0_dim"], report["kernel_dim"], report["dims_match"]) == (1, 1, True)
    ops = assemble(G)
    tracemalloc.start()
    try:
        sheaf_analysis(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # L, A, D, the Gram matrix, its difference from L and eigh's vectors:
    # measured at 9.8 MiB, 8.0 arrays of 400 x 400
    assert peak < 12 * 400 * 400 * 8


# a weighted path whose lambda_2 lies within rounding of the zero cutoff at
# this rank_rel_tol: two solvers of L could count its kernel differently
P5_WEIGHTS = (6.5314237522821178e-09, 0.17480664563342632, 0.32236232564266454,
              0.20489138164808773)
P5_RANK_REL_TOL = 8.16427947e-09


def test_spectrum_and_sheaf_check_agree_on_kernel_dim(tmp_path, capsys):
    from mwgraph.linalg import Tolerances, kernel_dim_of_values
    from mwgraph.operators import assemble
    G = MatrixWeightedGraph.from_weights(
        5, 1, [(v, v + 1, [[w]]) for v, w in enumerate(P5_WEIGHTS)])
    path = tmp_path / "p5.json"
    path.write_bytes(save(G))
    tol = Tolerances(rank_rel_tol=P5_RANK_REL_TOL)
    expected = kernel_dim_of_values(assemble(load(path.read_bytes(), tol), tol).laplacian_values,
                                    tol)
    dims = []
    for command in ("spectrum", "sheaf-check"):
        main(["--rank-rel-tol", repr(P5_RANK_REL_TOL), "--format", "json", command, str(path)])
        dims.append(json.loads(capsys.readouterr().out)["kernel_dim"])
    assert dims == [expected, expected]


def test_sheaf_check_counts_h0_as_kernel_dim_counts_l(tmp_path, capsys):
    # P5's delta^T delta has L's bits, and its lambda_2 lies within rounding
    # of the zero cutoff: eigh puts it above (8.164279475758967e-09), the
    # eigvalsh kernel_dim reads below (8.164279460900914e-09).  H^0 is
    # counted on eigvalsh as well, so the two dimensions agree
    G = MatrixWeightedGraph.from_weights(
        5, 1, [(v, v + 1, [[w]]) for v, w in enumerate(P5_WEIGHTS)])
    path = tmp_path / "p5.json"
    path.write_bytes(save(G))
    assert main(["--rank-rel-tol", repr(P5_RANK_REL_TOL), "--format", "json", "sheaf-check",
                 str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["h0_dim"], report["kernel_dim"], report["dims_match"]) == (2, 2, True)


def _record_solves(monkeypatch):
    """The shape of the first argument of each numpy.linalg solve, by name."""
    made = {}
    for name in ("eigvalsh", "eigh", "svd", "norm"):
        real = getattr(np.linalg, name)

        def recording(a, *args, _real=real, _made=made.setdefault(name, []), **kwargs):
            _made.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return made


def test_commands_solve_each_operator_once(k4_abc_file, tmp_path, capsys, monkeypatch):
    # k4_abc has n = 4, k = 2 and six rank-1 weights; the tetrahedron truss
    # has a 12 x 12 stiffness matrix.  Every spectrum of an nk x nk operator
    # is one eigvalsh of a stack of one; the other solves act on k x k
    # blocks, the sheaf's Gram matrix delta^T delta (its kernel count, its
    # basis) and its residual from L, the rigid-motion generators (12 x 6)
    # and the strut vectors
    truss = tmp_path / "tetra.json"
    truss.write_text(json.dumps({
        "points": [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
        "edges": [{"u": u, "v": v, "s": 1.0} for u, v in itertools.combinations(range(4), 2)]}))
    expected = {
        # the weights' and degree blocks' PSD verdicts, then the normalized
        # Laplacian, L and A; D^(+/2) of the degree blocks
        "spectrum": {"eigvalsh": [(6, 2, 2), (4, 2, 2), (1, 8, 8), (1, 8, 8), (1, 8, 8)],
                     "eigh": [(4, 2, 2)], "svd": [], "norm": []},
        "sheaf-check": {"eigvalsh": [(6, 2, 2), (1, 8, 8), (1, 8, 8)],
                        "eigh": [(6, 2, 2), (1, 8, 8)],
                        "svd": [], "norm": [(1, 8, 8)]},
        "truss": {"eigvalsh": [(6, 3, 3), (1, 12, 12)], "eigh": [], "svd": [(12, 6)],
                  "norm": [(3,)] * 6},
    }
    for command, target in (("spectrum", k4_abc_file), ("sheaf-check", k4_abc_file),
                            ("truss", truss)):
        with monkeypatch.context() as mp:
            made = _record_solves(mp)
            assert main(["--format", "json", command, str(target)]) == 0
        capsys.readouterr()
        assert made == expected[command], command


@pytest.mark.parametrize("flag", ["--ortho-tol", "--loewner-tol"])
def test_removed_tolerance_flags_exit_2(k4_abc_file, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([f"{flag}=1e-8", "sheaf-check", str(k4_abc_file)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}=1e-8" in capsys.readouterr().err


def test_truss_tetrahedron(tmp_path, capsys):
    doc = {
        "points": [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
        "edges": [{"u": u, "v": v, "s": 1.0}
                  for u, v in itertools.combinations(range(4), 2)],
    }
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps(doc))
    assert main(["--format", "json", "truss", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kernel_dim"] == 6
    assert report["rigid_motion_count"] == 6
    assert report["rigid_motions_in_kernel"] is True


@pytest.mark.parametrize("command, doc", [
    (["spectrum"], {"k": 1.9, "n": 2.9, "edges": [{"u": 0.6, "v": 1.2, "w": [1.0]}]}),
    (["truss"], {"points": [[0, 0, 0], [1, 0, 0]], "edges": [{"u": 0.9, "v": 1, "s": 1.0}]}),
    (["search", "--r", "2", "--n-max", "4", "--frame"],
     {"k": 2.7, "projections": [[1, 0, 0, 0], [0, 0, 0, 1]]}),
])
def test_non_integer_index_or_count_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    target = f"@{path}" if command[0] == "search" else str(path)
    assert main(["--format", "json", *command, target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a JSON integer" in captured.err


@pytest.mark.parametrize("v", [5, -1])
def test_truss_endpoint_out_of_range_exits_2(tmp_path, capsys, v):
    doc = {"points": [[0, 0, 0], [1, 0, 0]], "edges": [{"u": 0, "v": v, "s": 1.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["--format", "json", "truss", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside joint range [0, 2)" in captured.err


def test_truss_oversized_exits_2(tmp_path, capsys, monkeypatch):
    from mwgraph import sheaf

    def never(*args, **kwargs):
        raise AssertionError("an oversized truss reached the stiffness matrix")

    monkeypatch.setattr(sheaf, "truss_to_mwg", never)
    doc = {"points": [[float(i), 0.0, 0.0] for i in range(1366)], "edges": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["--format", "json", "truss", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 3n = 4098 exceeds the limit of 4096\n"


def test_build_expander_k4(k4_scalar_file, tmp_path, capsys):
    out = tmp_path / "built.json"
    assert main(["--format", "json", "build-expander", str(k4_scalar_file),
                 "--frame", "equiangular3", "--output", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degree"] == pytest.approx(1.5)
    rebuilt = load(out.read_bytes())
    assert rebuilt.k == 2 and rebuilt.base.n == 4


def test_build_expander_output_into_missing_directory_exits_2(k4_scalar_file, tmp_path,
                                                             capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(["--format", "json", "build-expander", str(k4_scalar_file),
                 "--frame", "equiangular3", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


def test_build_expander_with_colors(k4_scalar_file, capsys):
    assert main(["--format", "json", "build-expander", str(k4_scalar_file),
                 "--frame", "equiangular3", "--colors", "0,1,2,2,1,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coloring"] == [0, 1, 2, 2, 1, 0]


def test_build_expander_assembles_once(k4_scalar_file, capsys, monkeypatch):
    # the regularity report and eta read one bundle
    from mwgraph import cli, frames, graphs, operators
    assembled = count_calls(monkeypatch, "assemble", cli, frames, operators)
    summed = count_calls(monkeypatch, "_degree_sums", graphs, operators)
    assert main(["--format", "json", "build-expander", str(k4_scalar_file),
                 "--frame", "equiangular3"]) == 0
    assert len(assembled) == 1
    assert len(summed) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["regularity"] == "scalar" and report["expander"]["d"] == 1.5


def test_build_expander_bad_frame(k4_scalar_file, capsys):
    assert main(["build-expander", str(k4_scalar_file), "--frame", "bogus"]) == 2


@pytest.mark.parametrize("k, projections", [(0, [[], [], []]), (-1, [[1.0], [1.0], [1.0]])])
def test_search_frame_file_needs_positive_k(tmp_path, capsys, k, projections):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"k": k, "projections": projections}))
    assert main(["search", "--r", "3", "--n-max", "6", "--frame", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: frame dimension k must be >= 1, got k={k}\n"


@pytest.mark.parametrize("command", [["search", "--r", "3", "--n-max", "6"],
                                     ["build-expander", "K4"]])
def test_identity0_frame_is_an_input_error(k4_scalar_file, capsys, command):
    argv = [str(k4_scalar_file) if arg == "K4" else arg for arg in command]
    assert main(argv + ["--frame", "identity0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: frame dimension k must be >= 1, got k=0\n"


def test_search_jsonl(capsys):
    assert main(["--format", "json", "search", "--r", "3", "--n-max", "4",
                 "--frame", "equiangular3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"n", "code", "coloring", "eta", "mu_min", "mu_max", "d"}
        assert record["d"] == pytest.approx(1.5)


def test_search_text_summary(capsys):
    assert main(["search", "--r", "2", "--n-max", "5", "--frame", "equiangular2"]) == 0
    out = capsys.readouterr().out
    assert "candidates: 2" in out


def test_json_output_deterministic(k4_abc_file, capsys):
    assert main(["--format", "json", "spectrum", str(k4_abc_file)]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "spectrum", str(k4_abc_file)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_csv_output(single_edge_file, capsys):
    assert main(["--format", "csv", "spectrum", str(single_edge_file)]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert "lambda_0" in header and "kernel_dim" in header
    assert len(header.split(",")) == len(row.split(","))


def test_search_sampling_mode(capsys):
    argv = ["--format", "json", "--seed", "3", "search", "--r", "3", "--n-max", "14",
            "--frame", "equiangular3", "--samples", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(first.strip().splitlines()) == 2
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_search_sampling_odd_n_exits_2_before_drawing(capsys, monkeypatch):
    from mwgraph import frames

    def forbidden(*args, **kwargs):
        raise AssertionError("drew a graph")

    monkeypatch.setattr(frames, "_matching_union", forbidden)
    start = time.perf_counter()
    assert main(["search", "--r", "4", "--n-max", "21", "--frame", "equiangular3+I",
                 "--samples", "1"]) == 2
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().out == ""


def test_search_sampling_over_the_size_bound_exits_2_before_drawing(capsys, monkeypatch):
    # n k = 200,000 would make a dense 200,000 x 200,000 adjacency
    from mwgraph import frames

    def forbidden(*args, **kwargs):
        raise AssertionError("drew a graph")

    monkeypatch.setattr(frames, "_matching_union", forbidden)
    assert main(["search", "--r", "4", "--n-max", "100000", "--frame", "equiangular3+I",
                 "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n * k = 200000 exceeds the limit of 4096\n"


def test_search_sampling_shortfall_exits_2(capsys, monkeypatch):
    # every draw is rejected, so both samples' budgets of 36,161 draws run out
    from mwgraph import frames
    monkeypatch.setattr(frames, "_matching_union", lambda rng, n, r: None)
    assert main(["search", "--r", "6", "--n-max", "40", "--frame", "equiangular6",
                 "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: drew 0 of the 2 requested graphs (6-regular on 40 "
                            "vertices) in 72322 attempts\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_search_samples_must_be_positive(capsys, samples):
    assert main(["search", "--r", "3", "--n-max", "6", "--frame", "equiangular3",
                 "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples must be >= 1\n"


def test_verify_paper_random_count_must_be_nonnegative(capsys, monkeypatch):
    from mwgraph import acceptance

    def forbidden(*args, **kwargs):
        raise AssertionError("ran the suite")

    monkeypatch.setattr(acceptance.Suite, "run", forbidden)
    assert main(["verify-paper", "--random-count", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: random_count must be >= 0\n"


def test_workers_must_be_positive(capsys, monkeypatch):
    import multiprocessing
    import os

    def forbidden(*args, **kwargs):
        raise AssertionError("started a pool")

    monkeypatch.setattr(multiprocessing, "Pool", forbidden)
    too_many = (os.cpu_count() or 1) + 1
    for workers in (0, too_many):
        assert main(["--workers", str(workers), "search", "--r", "3", "--n-max", "6",
                     "--frame", "equiangular3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --workers must be")


def test_verify_paper_overtight_tolerance_flags_cause(capsys):
    argv = ["--format", "json", "--psd-tol", "1e-30", "verify-paper",
            "--random-count", "20"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False
    # each criterion is flagged with its own cause; the others still pass.
    # The library's own exact projections and lifts are not judged again
    # below float rounding, so A3 (lifts), A5 and A9 (frame expanders)
    # pass; the failures left are the kernel_dim floor on Laplacians and
    # the degree blocks' PSD check
    failed = {c["id"]: c["details"]["error"].split(":")[0]
              for c in report["criteria"] if not c["passed"]}
    assert failed == {cid: "NotPsdError" for cid in
                      ("A2", "A4", "A6", "A7", "A8", "A11")}
    passed = [c["id"] for c in report["criteria"] if c["passed"]]
    assert passed == ["A1", "A3", "A5", "A9", "A10", "A12"]


def test_search_at_zero_psd_tol_gives_the_default_bytes(capsys):
    # equiangular3+I's exact projections have eigenvalues of about -3e-17;
    # the frame is checked once, when built, so the search's weights are not
    # judged again under --psd-tol 0
    argv = ["search", "--r", "4", "--n-max", "6", "--frame", "equiangular3+I"]
    default = _run_in_process(["--format", "json", *argv], capsys)
    assert default[0] == 0 and len(default[1].splitlines()) == 48
    assert _run_in_process(["--format", "json", "--psd-tol", "0", *argv], capsys) == default


def test_tolerance_override_rejects_marginal_psd(tmp_path, capsys):
    # weight with a tiny negative eigenvalue: fine at default psd_tol,
    # rejected under an over-tight override
    w = [[1.0, 1.0], [1.0, 1.0 - 1e-12]]
    doc = {"k": 2, "n": 2, "edges": [{"u": 0, "v": 1,
                                      "w": [w[0][0], w[0][1], w[1][0], w[1][1]]}]}
    path = tmp_path / "marginal.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", str(path)]) == 0
    capsys.readouterr()
    assert main(["--psd-tol", "1e-30", "spectrum", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def _run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_alone(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "mwgraph.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    return done.returncode, done.stdout, done.stderr


def test_shared_parser_carries_nothing_between_calls(k4_abc_file, tmp_path, capsys,
                                                     monkeypatch):
    # one process alternates subcommands and global flags, with usage and
    # input errors between them; each call must match its argv run alone
    monkeypatch.setenv("COLUMNS", "80")  # the usage lines wrap at the terminal width
    truss = tmp_path / "tetra.json"
    truss.write_text(json.dumps({
        "points": [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
        "edges": [{"u": u, "v": v, "s": 1.0} for u, v in itertools.combinations(range(4), 2)],
    }))
    k4, missing = str(k4_abc_file), str(tmp_path / "nope.json")
    runs = [
        ["--format", "json", "cheeger", k4],
        ["--resid-tol", "0", "truss", str(truss)],
        ["--format", "yaml", "cheeger", k4],
        ["--seed", "3", "--format", "json", "search", "--r", "3", "--n-max", "14",
         "--frame", "equiangular3", "--samples", "2"],
        ["--format", "csv", "spectrum", missing],
        ["--workers", "2", "search", "--r", "3", "--n-max", "6", "--frame", "equiangular3"],
        ["cheeger"],
        ["truss", str(truss)],
        ["--format", "json", "search", "--r", "3", "--n-max", "14", "--frame", "equiangular3",
         "--samples", "2"],
        ["cheeger", k4],
    ]
    seen = [_run_in_process(argv, capsys) for argv in runs]
    assert {code for code, _, _ in seen} == {0, 1, 2}
    for argv, got in zip(runs, seen):
        assert got == _run_alone(argv), argv


# --- the failure contract: exit 2 exactly when an MwgError is raised ---------

_HUGE = 10**400  # a valid JSON integer beyond float range
_LONG_NAME = "equiangular" + "1" * 5000  # past int()'s 4,300-digit limit
_CONTRACT_FILES = {
    "GRAPH_HUGE": json.dumps({"k": 1, "n": 2, "edges": [{"u": 0, "v": 1, "w": [_HUGE]}]}),
    "FRAME_HUGE": json.dumps({"k": 1, "projections": [[_HUGE]]}),
    "TRUSS_HUGE": json.dumps({"points": [[_HUGE, 0, 0]], "edges": []}),
    "DEEP": "[" * 100_000 + "]" * 100_000,  # past the interpreter's recursion limit
    "EDGELESS": json.dumps({"k": 2, "n": 3, "edges": []}),
    # vol(G) has eigenvalues 1.08e-19 and 0.0776: np.linalg.inv rejects it
    # when a zero cutoff of 0 lets it through
    "SINGULAR_VOL": json.dumps({"k": 2, "n": 3, "edges": [{"u": 1, "v": 2, "w": [
        0.038648151809319783, -0.0024521574174957593,
        -0.0024521574174957593, 0.00015558508540968453]}]}),
}
_SEARCH = ["search", "--n-max", "8"]


@pytest.mark.parametrize("argv, expected", [
    (["spectrum", "GRAPH_HUGE"],
     "malformed edge entry #0: w entry must fit a float, got 1" + "0" * 39),
    (["build-expander", "K4", "--frame", "@FRAME_HUGE"],
     "malformed frame JSON: projection entry must fit a float, got 1" + "0" * 39),
    (["truss", "TRUSS_HUGE"],
     "malformed truss JSON: point coordinate must fit a float, got 1" + "0" * 39),
    (["spectrum", "DEEP"], "invalid MWG-JSON: maximum recursion depth exceeded"),
    (["--seed", "-1"] + _SEARCH + ["--r", "3", "--frame", "equiangular3", "--samples", "1"],
     "--seed must be >= 0"),
    (["--seed", "-1", "verify-paper"], "--seed must be >= 0"),
    (_SEARCH + ["--r", "4", "--frame", "identity100000"],
     "frame 'identity100000' weights only graphs with n * k over the limit of 4096"),
    (_SEARCH + ["--r", "3", "--frame", _LONG_NAME],
     f"frame {_LONG_NAME!r:.40} weights only graphs with n * k over the limit of 4096"),
    (_SEARCH + ["--r", "1", "--frame", "equiangular1"], "need r >= 2, got 1"),
    (_SEARCH + ["--r", "4", "--frame", "equiangular3"], "frame has 3 elements but r = 4"),
    (["search", "--r", "3", "--n-max", "9", "--frame", "equiangular3", "--samples", "2"],
     "no 3-regular graphs on 9 vertices"),
    (["search", "--r", "4", "--n-max", "9", "--frame", "equiangular3+I", "--samples", "2"],
     "no proper 4-edge-coloring on an odd number of vertices (9)"),
    (["--psd-tol", "-1", "spectrum", "K4"], "psd_tol must be finite and >= 0, got -1.0"),
    (["--workers", "0", "spectrum", "K4"], "--workers must be >= 1"),
    (["search", "--r", "3", "--n-max", "12", "--frame", "identity400"],
     "n_max * k = 4800 exceeds the limit of 4096"),
    (_SEARCH + ["--r", "0", "--frame", "identity1"],
     "identity{k} frame needs r >= 1 colors, got r = 0"),
    (_SEARCH + ["--r", "-1", "--frame", "identity1"],
     "identity{k} frame needs r >= 1 colors, got r = -1"),
    (["build-expander", "EDGELESS", "--frame", "identity2"],
     "identity{k} frame needs r >= 1 colors, got r = 0"),
    (["--rank-rel-tol", "0", "eml", "SINGULAR_VOL", "--S", "0", "--T", "1"],
     "graph is neither dI-regular nor has invertible volume; nothing to check"),
], ids=["graph-huge", "frame-huge", "truss-huge", "deep", "seed-search", "seed-verify",
        "identity100000", "long-name", "r1", "r-mismatch", "odd-n-r3", "odd-n-r4",
        "psd-tol", "workers0", "search-nk", "identity-r0", "identity-r-1",
        "identity-edgeless", "singular-volume"])
def test_every_rejection_exits_2_with_one_error_line(k4_scalar_file, tmp_path, capsys,
                                                     argv, expected):
    paths = {"K4": str(k4_scalar_file)}
    for name, text in _CONTRACT_FILES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(text)
    paths["@FRAME_HUGE"] = "@" + paths["FRAME_HUGE"]
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {expected}") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n") and "Traceback" not in captured.err


def test_an_error_that_is_not_an_mwg_error_propagates(k4_scalar_file, capsys, monkeypatch):
    # a bare ValueError is a bug, not an input error: main does not exit 2 on it
    from mwgraph import cli

    def broken(args, tol):
        raise ValueError("a bug")

    monkeypatch.setitem(cli._HANDLERS, "spectrum", broken)
    with pytest.raises(ValueError, match="^a bug$") as err:
        main(["spectrum", str(k4_scalar_file)])
    assert not isinstance(err.value, MwgError)
    assert capsys.readouterr().err == ""
