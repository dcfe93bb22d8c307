"""The benchmark's workloads: seeded inputs, the operations of one round,
and the oracles that check their outputs.

The oracles use plain numpy, networkx and published counts; none of them
calls ``mwgraph``.  They run after the timed window.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ETA_RTOL = 1e-9          # recomputed eta, mu_min, mu_max agree to ETA_RTOL * d
TIE_RTOL = 1e-9          # Cheeger ratios within this relative gap are ties
A9_ETA, A9_MU_MIN, A9_MU_MAX, A9_TOL = 0.094, -2.406, 1.803, 2e-3
# connected cubic graphs per n = 4..12 (OEIS A002851: 1, 2, 5, 19, 85) less
# those with no proper 3-edge-colouring (2 at n = 10, 5 at n = 12), which
# the search cannot weight and so does not report
CUBIC_COLORABLE = {4: 1, 6: 2, 8: 5, 10: 17, 12: 80}
CUBIC_CLASSES = 1 + 2 + 5 + 19 + 85
CORPUS_GRAPHS = 1000 + 3 * 208 + 2   # random family, atlas lifts (k = 1..3), built expanders


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> Outcome:
    """``mwgraph.cli.main(argv)`` in-process, stdout and stderr captured."""
    from mwgraph import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return Outcome(code, out.getvalue(), err.getvalue())


# --- plain-numpy references -------------------------------------------------


def equiangular_frame(r: int) -> list[np.ndarray]:
    """Rank-1 projections onto the lines at angles i*pi/r."""
    units = [np.array([math.cos(i * math.pi / r), math.sin(i * math.pi / r)]) for i in range(r)]
    return [np.outer(u, u) for u in units]


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """graph6 string (n <= 62) to (n, sorted edge list)."""
    n = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> (5 - i) & 1 for ch in text[1:] for i in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, sorted(p for p, bit in zip(pairs, bits) if bit)


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_proper_coloring(n: int, edges, coloring, r: int) -> bool:
    """Every vertex meets each of the r colours exactly once."""
    at = [set() for _ in range(n)]
    for (u, v), c in zip(edges, coloring):
        at[u].add(c)
        at[v].add(c)
    return len(coloring) == len(edges) and all(s == set(range(r)) for s in at)


def nontrivial_extremes(adjacency: np.ndarray, k: int) -> np.ndarray:
    """(mu_max, mu_min) over all but the k largest eigenvalues, per stacked matrix."""
    mu = np.linalg.eigvalsh(adjacency)
    return np.stack([mu[:, -k - 1], mu[:, 0]], axis=1)


def check_records_eta(records, k: int, d: float, adjacency_of) -> str | None:
    """Recompute eta = d - max |nontrivial mu| per record, batched by n."""
    by_n: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        by_n.setdefault(rec["n"], []).append(i)
    for idx in by_n.values():
        ext = nontrivial_extremes(np.stack([adjacency_of(records[i]) for i in idx]), k)
        for i, (hi, lo) in zip(idx, ext):
            rec = records[i]
            expected = (d - max(abs(hi), abs(lo)), lo, hi)
            got = (rec["eta"], rec["mu_min"], rec["mu_max"])
            if max(abs(a - b) for a, b in zip(expected, got)) > ETA_RTOL * d:
                return f"record {rec['code']} {rec['coloring']}: {got} != {expected}"
    return None


def check_sorted(records) -> str | None:
    keys = [(-rec["eta"], rec["code"], rec["coloring"]) for rec in records]
    return None if keys == sorted(keys) else "records not sorted by (-eta, code, coloring)"


def random_cubic_graph(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Connected simple cubic graph from the pairing model, by rejection."""
    while True:
        pairs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        edges = sorted({(int(min(p)), int(max(p))) for p in pairs if p[0] != p[1]})
        if len(edges) == len(pairs) and is_connected(n, edges):
            return edges


def three_edge_coloring(n: int, edges, max_steps: int = 200_000) -> list[int] | None:
    """First proper 3-edge-colouring by backtracking, or None."""
    used = [0] * n
    colors = [0] * len(edges)
    steps = 0

    def rec(i: int) -> bool:
        nonlocal steps
        steps += 1
        if i == len(edges):
            return True
        if steps > max_steps:
            return False
        u, v = edges[i]
        for c in range(3):
            bit = 1 << c
            if not (used[u] | used[v]) & bit:
                used[u] |= bit
                used[v] |= bit
                colors[i] = c
                if rec(i + 1):
                    return True
                used[u] &= ~bit
                used[v] &= ~bit
        return False

    return colors if rec(0) else None


def colorable_cubic_graph(rng: np.random.Generator, n: int):
    """(edges, proper 3-edge-colouring) of the first drawn graph that has one."""
    while True:
        edges = random_cubic_graph(rng, n)
        coloring = three_edge_coloring(n, edges)
        if coloring is not None:
            return edges, coloring


def write_mwg(path: Path, n: int, k: int, edges, weights) -> None:
    doc = {"k": k, "n": n, "edges": [{"u": u, "v": v, "w": [float(x) for x in w.ravel()]}
                                     for (u, v), w in zip(edges, weights)]}
    path.write_text(json.dumps(doc))


def brute_force_cheeger(n: int, edges, traces, d: float) -> tuple[float, list[int]]:
    """Minimum of tr E(S, V-S) / (d min(|S|, |V-S|)) over nonempty proper S
    containing vertex 0, and every mask that attains it within TIE_RTOL,
    smallest first."""
    full = (1 << n) - 1
    masks = (np.arange(1 << (n - 1), dtype=np.int64) << 1) | 1
    masks = masks[masks != full]
    bits = (masks[:, None] >> np.arange(n)) & 1
    u, v = np.array(edges).T
    cut = (bits[:, u] != bits[:, v]) @ np.asarray(traces, dtype=float)
    size = bits.sum(axis=1)
    h = cut / (d * np.minimum(size, n - size))
    best = float(h.min())
    return best, sorted(int(m) for m in masks[h <= best + TIE_RTOL * abs(best)])


# --- workloads --------------------------------------------------------------


class Workload:
    name = ""
    item = ""
    items_per_round = 0

    # (span, enclosing span or None, count at the seed commit): printed by
    # the traced run to show that no rebound name escaped the wrappers
    cross_checks: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.notes: list[str] = []

    def prepare(self) -> None:
        """Generate the inputs from the seed and write any input files."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[tuple[str, Callable[[], Outcome]]]:
        raise NotImplementedError

    def check(self, label: str, outcome: Outcome) -> str | None:
        """None if the outcome is correct, else the reason it is not."""
        raise NotImplementedError


def _json_lines(outcome: Outcome):
    if outcome.code != 0:
        raise ValueError(f"exit code {outcome.code}: {outcome.stderr.strip()}")
    return [json.loads(line) for line in outcome.stdout.splitlines()]


class SearchFrame(Workload):
    name = "search-frame"
    item = "candidate record"
    items_per_round = 1488
    ARGV = ["--format", "json", "search", "--r", "4", "--n-max", "8", "--frame", "equiangular3+I"]
    cross_checks = (("linalg.as_symmetric", "frames.search_expanders", 141_696),)

    def warm_up(self) -> None:
        run_cli(["--format", "json", "search", "--r", "4", "--n-max", "6",
                 "--frame", "equiangular3+I"])

    def operations(self):
        return [("search r=4 n<=8 equiangular3+I", lambda: run_cli(self.ARGV))]

    def check(self, label, outcome):
        records = _json_lines(outcome)
        if len(records) != self.items_per_round:
            return f"{len(records)} records, expected {self.items_per_round}"
        if any(abs(rec["d"] - 2.5) > ETA_RTOL for rec in records):
            return "a record has d != 2.5"
        frame = equiangular_frame(3) + [np.eye(2)]
        for rec in records:
            n, edges = decode_graph6(rec["code"])
            if n != rec["n"] or not is_connected(n, edges) or not is_proper_coloring(
                    n, edges, rec["coloring"], 4):
                return f"record {rec['code']} {rec['coloring']} is not a 4-coloured 4-regular graph"

        def adjacency(rec):
            n, edges = decode_graph6(rec["code"])
            A = np.zeros((2 * n, 2 * n))
            for (u, v), c in zip(edges, rec["coloring"]):
                A[2 * u:2 * u + 2, 2 * v:2 * v + 2] = frame[c]
                A[2 * v:2 * v + 2, 2 * u:2 * u + 2] = frame[c]
            return A

        problem = check_sorted(records) or check_records_eta(records, 2, 2.5, adjacency)
        if problem:
            return problem
        if not any(rec["n"] == 8 and abs(rec["eta"] - A9_ETA) <= A9_TOL
                   and abs(rec["mu_min"] - A9_MU_MIN) <= A9_TOL
                   and abs(rec["mu_max"] - A9_MU_MAX) <= A9_TOL for rec in records):
            return "the eta = 0.094 expander at n = 8 is missing"
        return None


class SearchEnum(Workload):
    name = "search-enum"
    item = "isomorphism class"
    items_per_round = CUBIC_CLASSES
    ARGV = ["--format", "json", "search", "--r", "3", "--n-max", "12", "--frame", "identity2"]
    cross_checks = (("graphgen.canonical_code", None, 10_416),)

    def warm_up(self) -> None:
        run_cli(["--format", "json", "search", "--r", "3", "--n-max", "8", "--frame", "identity2"])

    def operations(self):
        return [("search r=3 n<=12 identity2", lambda: run_cli(self.ARGV))]

    def check(self, label, outcome):
        records = _json_lines(outcome)
        counts = {n: sum(rec["n"] == n for rec in records) for n in CUBIC_COLORABLE}
        if counts != CUBIC_COLORABLE or len(records) != sum(CUBIC_COLORABLE.values()):
            return f"records per n {counts}, expected {CUBIC_COLORABLE}"
        graphs = {}
        for rec in records:
            n, edges = decode_graph6(rec["code"])
            if (n != rec["n"] or abs(rec["d"] - 3.0) > ETA_RTOL or not is_connected(n, edges)
                    or not is_proper_coloring(n, edges, rec["coloring"], 3)):
                return f"record {rec['code']} is not a 3-coloured connected cubic graph"
            graphs[rec["code"]] = (n, edges)
        if len(graphs) != len(records):
            return "a graph is reported twice"

        def adjacency(rec):
            n, edges = graphs[rec["code"]]
            A = np.zeros((n, n))
            for u, v in edges:
                A[u, v] = A[v, u] = 1.0
            return A

        problem = check_sorted(records) or check_records_eta(records, 1, 3.0, adjacency)
        return problem or self._check_non_isomorphic(graphs, adjacency, records)

    @staticmethod
    def _check_non_isomorphic(graphs, adjacency, records) -> str | None:
        """Graphs with different spectra differ; cospectral pairs go to networkx."""
        by_spectrum: dict[tuple, list[str]] = {}
        for rec in records:
            spectrum = tuple(np.round(np.linalg.eigvalsh(adjacency(rec)), 8))
            by_spectrum.setdefault(spectrum, []).append(rec["code"])
        for codes in by_spectrum.values():
            if len(codes) < 2:
                continue
            import networkx as nx

            nx_graphs = [nx.Graph(graphs[c][1]) for c in codes]
            for i in range(len(codes)):
                for j in range(i + 1, len(codes)):
                    if nx.is_isomorphic(nx_graphs[i], nx_graphs[j]):
                        return f"{codes[i]} and {codes[j]} are isomorphic"
        return None


class CheegerScan(Workload):
    name = "cheeger-scan"
    item = "vertex subset"
    N = 16
    items_per_round = 3 * ((1 << (N - 1)) - 1)

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, tuple] = {}
        frame = equiangular_frame(3)
        for i in range(2):
            edges, coloring = colorable_cubic_graph(rng, self.N)
            self._write(f"equiangular3-{i}.json", 2, edges, [frame[c] for c in coloring], 1.5)
        edges = random_cubic_graph(rng, self.N)
        self._write("identity3.json", 3, edges, [np.eye(3)] * len(edges), 3.0)
        small, coloring = colorable_cubic_graph(rng, 8)
        self.warm_up_file = self.workdir / "warm-up.json"
        write_mwg(self.warm_up_file, 8, 2, small, [frame[c] for c in coloring])

    def _write(self, filename, k, edges, weights, d):
        path = self.workdir / filename
        write_mwg(path, self.N, k, edges, weights)
        self.inputs[filename] = (str(path), edges, [float(np.trace(w)) for w in weights], d)

    def warm_up(self) -> None:
        run_cli(["--format", "json", "cheeger", str(self.warm_up_file)])

    def operations(self):
        return [(name, lambda path=path: run_cli(["--format", "json", "cheeger", path]))
                for name, (path, *_) in self.inputs.items()]

    def check(self, label, outcome):
        (report,) = _json_lines(outcome)
        _, edges, traces, d = self.inputs[label]
        h, minimizers = brute_force_cheeger(self.N, edges, traces, d)
        if abs(report["h_trace"] - h) > TIE_RTOL * h:
            return f"h_trace {report['h_trace']!r}, brute force {h!r}"
        mask = sum(1 << v for v in report["argmin"])
        if mask not in minimizers:
            return f"argmin {report['argmin']} does not attain h_trace"
        if mask != minimizers[0]:
            # the scan's incremental sums drift by an ulp, so an exact tie
            # can go to a larger mask; reported, not failed (see README)
            smallest = [v for v in range(self.N) if (minimizers[0] >> v) & 1]
            self.notes.append(f"{label}: argmin {report['argmin']} ties with the smaller "
                              f"mask {smallest}")
        return None


class VerifySuite(Workload):
    name = "verify-suite"
    item = "corpus graph"
    items_per_round = CORPUS_GRAPHS

    def prepare(self) -> None:
        import networkx  # noqa: F401  (the suite's atlas corpus needs it)

    def warm_up(self) -> None:
        from mwgraph import acceptance

        suite = acceptance.Suite(seed=self.seed, random_count=4)
        suite.a1_frame_identity()
        suite.a10_alon_boppana()
        suite.a11_truss()

    def operations(self):
        return [(f"run_suite(seed={self.seed})", self._pass)]

    def _pass(self) -> Outcome:
        from mwgraph import acceptance, jsonio

        results = acceptance.run_suite(seed=self.seed)
        return Outcome(0, jsonio.dumps(acceptance.results_to_jsonable(results)), "")

    def check(self, label, outcome):
        report = json.loads(outcome.stdout)
        if not report["all_passed"]:
            failed = [c["id"] for c in report["criteria"] if not c["passed"]]
            return f"criteria failed: {failed}"
        crit = {c["id"]: c for c in report["criteria"]}
        if [c["id"] for c in report["criteria"]] != [f"A{i}" for i in range(1, 12)]:
            return "criteria are not A1..A11"
        for cid in ("A2", "A3", "A4"):
            if crit[cid]["details"]["graphs"] != CORPUS_GRAPHS:
                return f"{cid} checked {crit[cid]['details']['graphs']} graphs"
        a9 = crit["A9"]["details"]
        if a9["pairs_searched"] != SearchFrame.items_per_round or not a9["target_mu_range_matched"]:
            return "A9 did not search 1488 pairs and find the eta = 0.094 target"
        return None


WORKLOADS = {w.name: w for w in (SearchFrame, SearchEnum, CheegerScan, VerifySuite)}
