"""Tight fusion frames, edge colorings, and the frame-plus-coloring
expander construction, including the exhaustive small-graph search.

A tight fusion frame (orthogonal projections summing to c I) assigned to the
color classes of a properly r-edge-colored r-regular graph yields a
dI-regular matrix-weighted graph with d = c; when all ranks equal l the
degree is r l / k, which need not be an integer.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import jsonio
from .errors import (
    DomainError,
    NotColorableError,
    NotProjectionError,
    NotProjectionWeightsError,
    NotProperlyColoredError,
    NotTightError,
    ParseError,
    TooLargeError,
)
from .expansion import require_scalar_regular
from .graphgen import (
    edges_code,
    enumerate_regular_graphs,
    graph6_like,
    iter_proper_colorings,
)
from .graphs import BaseGraph, MatrixWeightedGraph, is_connected_edges
from .linalg import (DEFAULT_TOL, Tolerances, as_symmetric, is_projection, keep_cutoff,
                     residual_allowance, spectral_norm)
from .operators import OperatorBundle, assemble

SEARCH_MAX_N = 12
# sample_expanders gives up after this many pairing-model draws per sample
MAX_ATTEMPTS_PER_SAMPLE = 200


@dataclass(frozen=True)
class FusionFrame:
    """A list of k x k orthogonal projections (possibly tight)."""

    k: int
    projections: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]

    @classmethod
    def from_projections(cls, mats: Iterable, tol: Tolerances = DEFAULT_TOL,
                         k: int | None = None) -> "FusionFrame":
        projections = []
        ranks = []
        for i, mat in enumerate(mats):
            P = as_symmetric(mat, tol)
            if k is None:
                k = P.shape[0]
            elif P.shape[0] != k:
                raise NotProjectionError(
                    f"projection #{i} has dimension {P.shape[0]}, expected {k}")
            if not is_projection(P, tol):
                raise NotProjectionError(f"element #{i} is not an orthogonal projection")
            P.setflags(write=False)
            projections.append(P)
            # a projection's eigenvalues are 0 and 1, so its rank is its trace
            ranks.append(round(float(np.trace(P))))
        if k is None:
            raise ValueError("empty frame needs an explicit ambient dimension k")
        if k < 1:
            raise DomainError(f"frame dimension k must be >= 1, got k={k}")
        return cls(k, tuple(projections), tuple(ranks))

    def __len__(self) -> int:
        return len(self.projections)


def verify_tight(f: FusionFrame, tol: Tolerances = DEFAULT_TOL) -> float:
    """Frame constant c with sum(P_i) = c I; raises NotTight otherwise."""
    total = sum(f.projections, np.zeros((f.k, f.k)))
    c = float(np.trace(total)) / f.k
    resid = spectral_norm(total - c * np.eye(f.k))
    if resid > residual_allowance(abs(c), tol):
        raise NotTightError(f"residual {resid:.3e} from {c:.6g} * I")
    return c


def equiangular_frame_2d(r: int) -> FusionFrame:
    """r rank-1 projections onto lines at angles i*pi/r; tight with c = r/2."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    mats = []
    for i in range(r):
        theta = i * math.pi / r
        u = np.array([math.cos(theta), math.sin(theta)])
        mats.append(np.outer(u, u))
    return FusionFrame.from_projections(mats)


def augment_with_identity(f: FusionFrame) -> FusionFrame:
    """Append I_k; a tight frame with constant c becomes tight with c + 1."""
    return FusionFrame.from_projections(list(f.projections) + [np.eye(f.k)])


class FrameExistence:
    EXISTS = "exists"
    NONE = "none"
    UNKNOWN_BY_BOUNDS = "unknown_by_bounds"


def frame_existence(k: int, l: int, r: int) -> str:
    """Known existence window for tight fusion frames of r rank-l subspaces in R^k."""
    if not (1 <= l <= k) or r < 1:
        raise ValueError(f"need 1 <= l <= k and r >= 1, got k={k}, l={l}, r={r}")
    threshold = math.ceil(k / l)
    if r >= threshold + 2:
        return FrameExistence.EXISTS
    if r <= threshold:
        return FrameExistence.NONE
    return FrameExistence.UNKNOWN_BY_BOUNDS


# --- edge colorings ----------------------------------------------------------


def proper_edge_coloring(g: BaseGraph, r: int) -> tuple[int, ...]:
    """First proper r-edge-coloring by deterministic backtracking, one color
    per edge of g.edges.

    Raises NotColorable when the exhaustive search finds none.
    """
    if max(g.geometric_degrees(), default=0) > r:
        raise NotColorableError(f"maximum degree exceeds {r} colors")
    colors = next(iter_proper_colorings(g, r), None)
    if colors is None:
        raise NotColorableError(f"no proper {r}-edge-coloring exists (exhaustive search)")
    return colors


# --- expander construction and search ---------------------------------------


def build_expander(g: BaseGraph, colors: tuple[int, ...], f: FusionFrame,
                   tol: Tolerances = DEFAULT_TOL) -> MatrixWeightedGraph:
    """Assign frame element P_{colors[i]} to edge g.edges[i] of an r-regular graph.

    This is where a coloring is checked: it must be proper, with one color
    in [0, r), r = len(f), per edge, so every vertex sees all r colors.
    With a tight frame the result is then c I-regular, c the frame constant.
    """
    r = len(f)
    degrees = g.geometric_degrees()
    if any(d != r for d in degrees):
        raise NotProperlyColoredError(
            f"graph is not {r}-regular (degrees {sorted(set(degrees))})")
    if len(colors) != len(g.edges):
        raise NotProperlyColoredError(f"{len(colors)} colors for {len(g.edges)} edges")
    at_vertex: list[set[int]] = [set() for _ in range(g.n)]
    for (u, v), c in zip(g.edges, colors):
        if not (0 <= c < r):
            raise NotProperlyColoredError(f"color {c} outside [0, {r})")
        if c in at_vertex[u] or c in at_vertex[v]:
            raise NotProperlyColoredError(
                f"color {c} repeats at an endpoint of edge ({u}, {v})")
        at_vertex[u].add(c)
        at_vertex[v].add(c)
    verify_tight(f, tol)
    items = [(u, v, f.projections[c]) for (u, v), c in zip(g.edges, colors)]
    return MatrixWeightedGraph.from_weights(g.n, f.k, items, tol)


@dataclass(frozen=True)
class ExpanderReport:
    """Two-sided expansion constant of a projection-weighted regular graph.

    eta = d - max |mu| over nontrivial adjacency eigenvalues; the k trivial
    eigenvalues equal d.  Alon-Boppana comparison fields are populated only
    for uniform projection rank and regular geometric degree.
    """

    d: float
    eta: float
    mu_nontrivial_max: float
    mu_nontrivial_min: float
    alon_boppana_matrix: float | None
    alon_boppana_classical: float | None
    multiplicity_warning: bool

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "eta": self.eta,
            "mu_nontrivial_max": self.mu_nontrivial_max,
            "mu_nontrivial_min": self.mu_nontrivial_min,
            "alon_boppana_matrix": self.alon_boppana_matrix,
            "alon_boppana_classical": self.alon_boppana_classical,
            "multiplicity_warning": self.multiplicity_warning,
        }


def eta(ops: OperatorBundle) -> ExpanderReport:
    """Expansion constant: all nontrivial |mu| are at most d - eta.

    Regularity is checked on the degree blocks, before A is formed."""
    G, tol, reg = ops.graph, ops.tol, ops.regularity
    d = require_scalar_regular(reg, positive=True)
    k = G.k
    ranks = set()
    for e, w in G.weights.items():
        if not is_projection(w, tol):
            raise NotProjectionWeightsError(f"weight on edge {e} is not a projection")
        ranks.add(round(float(np.trace(w))))
    mu = ops.adjacency_values[::-1]
    cluster = int(np.sum(np.abs(mu - d) <= keep_cutoff(d, tol)))
    nontrivial = mu[k:]
    hi = float(nontrivial[0])
    lo = float(nontrivial[-1])
    eta_value = d - max(abs(hi), abs(lo))
    geo = set(reg.geometric_degrees)
    ab_matrix = ab_classical = None
    if len(ranks) == 1 and len(geo) == 1:
        l = next(iter(ranks))
        r = next(iter(geo))
        if r >= 2:
            ab_matrix = 2.0 * (l / k) * math.sqrt(r - 1)
        if d > 1:
            ab_classical = 2.0 * math.sqrt(d - 1)
    return ExpanderReport(d, float(eta_value), hi, lo, ab_matrix, ab_classical,
                          cluster != k)


class AlonBoppana(NamedTuple):
    matrix_bound: float
    classical_bound: float


def alon_boppana_compare(r: int, l: int, k: int) -> AlonBoppana:
    """(2 (l/k) sqrt(r-1), 2 sqrt(d-1)) with d = r l / k."""
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    if not (1 <= l <= k):
        raise DomainError(f"need 1 <= l <= k, got l={l}, k={k}")
    d = r * l / k
    if d <= 1:
        raise DomainError(f"classical bound needs d > 1, got d = {d}")
    return AlonBoppana(2.0 * (l / k) * math.sqrt(r - 1), 2.0 * math.sqrt(d - 1))


def ratio_inequality_holds(d: float, r: float) -> bool | None:
    """sqrt(r-1)/r <= sqrt(d-1)/d; defined for 2 < d < r, else None."""
    if not (2 < d < r):
        return None
    return math.sqrt(r - 1) / r <= math.sqrt(d - 1) / d


# --- search ------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    n: int
    code: str
    graph: BaseGraph
    coloring: tuple[int, ...]
    report: ExpanderReport

    def to_jsonable(self) -> dict:
        rep = self.report
        return {
            "n": self.n,
            "code": self.code,
            "coloring": list(self.coloring),
            "eta": rep.eta,
            "mu_min": rep.mu_nontrivial_min,
            "mu_max": rep.mu_nontrivial_max,
            "d": rep.d,
        }


def _projection_groups(f: FusionFrame) -> list[int]:
    """group id per frame element; equal projections (entry by entry, as
    ``==`` compares them, so -0.0 equals 0.0) share an id."""
    ids: dict[tuple[float, ...], int] = {}
    return [ids.setdefault(tuple(P.ravel().tolist()), len(ids)) for P in f.projections]


def _graph_results(args) -> list:
    graph, n, code_str, f, groups, tol = args
    distinct = len(set(groups))
    colorings = iter_proper_colorings(graph, len(f))
    if distinct == 1:
        # one projection (identity{k}): every coloring gives the same
        # weighting, so the first one found is the only record
        colorings = itertools.islice(colorings, 1)
    results = []
    seen_weightings: set[tuple[int, ...]] = set()
    dedupe = distinct < len(groups)
    for coloring in colorings:
        if dedupe:
            key = tuple(groups[c] for c in coloring)
            if key in seen_weightings:
                continue
            seen_weightings.add(key)
        G = build_expander(graph, coloring, f, tol)
        results.append(SearchResult(n, code_str, graph, coloring, eta(assemble(G, tol))))
    return results


def search_expanders(n_max: int, r: int, f: FusionFrame,
                     tol: Tolerances = DEFAULT_TOL,
                     workers: int = 1) -> list[SearchResult]:
    """Every (connected r-regular graph, proper r-edge-coloring) pair up to n_max.

    Graphs come from orderly generation, one per isomorphism class in its
    canonical labeling; colorings yielding identical weightings (possible
    only when the frame has repeated elements) are deduplicated.  Results
    are sorted by eta descending, then canonical code, then coloring.

    Enumeration reaches the n_max = 12 cap for r <= 4 (the 1544 classes of
    r = 4, n = 12 take about 2 s); the limit is now the per-coloring eta, one
    eigensolve for each of the 20,544 colorings at r = 4, n = 10 alone.
    Use sample_expanders beyond the cap.
    """
    if n_max > SEARCH_MAX_N:
        raise TooLargeError(f"search capped at n_max <= {SEARCH_MAX_N}")
    if r != len(f):
        raise ValueError(f"frame has {len(f)} elements but r = {r}")
    verify_tight(f, tol)
    groups = _projection_groups(f)
    tasks = []
    for n in range(r + 1, n_max + 1):
        if n % 2:
            # r colors at every vertex make each color class a perfect
            # matching, so odd n has no proper coloring
            continue
        # enumerated graphs carry their canonical labeling already
        for graph in enumerate_regular_graphs(n, r):
            code_str = graph6_like(n, edges_code(n, graph.edges))
            tasks.append((graph, n, code_str, f, groups, tol))
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_graph_results, tasks)
    else:
        chunks = [_graph_results(task) for task in tasks]
    results = [res for chunk in chunks for res in chunk]
    results.sort(key=lambda res: (-res.report.eta, res.code, res.coloring))
    return results


def _random_regular_edges(rng, n: int, r: int):
    """One pairing-model draw; None when it produces loops or multi-edges."""
    stubs = np.repeat(np.arange(n), r)
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs), 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u == v:
            return None
        key = (u, v) if u < v else (v, u)
        if key in edges:
            return None
        edges.add(key)
    return sorted(edges)


def sample_expanders(n: int, r: int, f: FusionFrame, samples: int = 10,
                     seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> list[SearchResult]:
    """Seeded random-sampling mode for sizes beyond the exhaustive cap.

    Draws connected r-regular graphs on exactly n vertices by the pairing
    model, colors each with the first proper r-edge-coloring, and reports
    the same records as search_expanders.  Graphs are not canonicalized, so
    repeats can occur; the result is deterministic for a fixed seed.
    """
    if r != len(f):
        raise ValueError(f"frame has {len(f)} elements but r = {r}")
    if n <= r or (n * r) % 2 != 0:
        raise ValueError(f"no {r}-regular graphs on {n} vertices")
    if n % 2:
        raise NotColorableError(f"no proper {r}-edge-coloring on an odd number of vertices "
                                f"({n}): each color class would be a perfect matching")
    verify_tight(f, tol)
    rng = np.random.default_rng(seed)
    results: list[SearchResult] = []
    attempts = 0
    while len(results) < samples and attempts < MAX_ATTEMPTS_PER_SAMPLE * samples:
        attempts += 1
        edges = _random_regular_edges(rng, n, r)
        if edges is None or not is_connected_edges(n, edges):
            continue
        base = BaseGraph.from_edges(n, edges)
        try:
            coloring = proper_edge_coloring(base, r)
        except NotColorableError:
            continue
        G = build_expander(base, coloring, f, tol)
        raw = edges_code(n, base.edges)
        code_str = graph6_like(n, raw) if n <= 62 else str(raw)
        results.append(SearchResult(n, code_str, base, coloring, eta(assemble(G, tol))))
    results.sort(key=lambda res: (-res.report.eta, res.code, res.coloring))
    return results


# --- named frames and frame files -------------------------------------------

_NAMED_FRAME = re.compile(r"^(equiangular(\d+)(\+I)?|identity(\d+))$")


def named_frame(name: str, r_context: int | None = None) -> FusionFrame:
    """Built-in frames: "equiangular{r}", "equiangular{r}+I", "identity{k}".

    identity{k} yields r_context copies of I_k (the trivial lift weighting),
    so it needs the regular degree from context.
    """
    m = _NAMED_FRAME.match(name)
    if not m:
        raise ValueError(f"unknown frame name {name!r}")
    if m.group(4):
        k = int(m.group(4))
        if r_context is None:
            raise ValueError("identity{k} frame needs the number of colors (r)")
        return FusionFrame.from_projections([np.eye(k)] * r_context)
    frame = equiangular_frame_2d(int(m.group(2)))
    if m.group(3):
        frame = augment_with_identity(frame)
    return frame


def load_frame(data: bytes | str, tol: Tolerances = DEFAULT_TOL) -> FusionFrame:
    """Parse frame JSON: { "k": int, "projections": [[k*k floats], ...] }."""
    doc = jsonio.loads(data, "frame JSON")
    try:
        k = jsonio.integer(doc["k"], "k")
        rows = [[jsonio.number(x, "projection entry") for x in p] for p in doc["projections"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed frame JSON: {exc}") from exc
    if k < 1:
        raise ParseError(f"frame dimension k must be >= 1, got k={k}")
    mats = []
    for i, flat in enumerate(rows):
        if len(flat) != k * k:
            raise ParseError(f"projection #{i} has {len(flat)} entries, expected {k * k}")
        mats.append(np.array(flat).reshape(k, k))
    return FusionFrame.from_projections(mats, tol)
