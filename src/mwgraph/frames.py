"""Tight fusion frames, edge colorings, and the frame-plus-coloring
expander construction, including the exhaustive small-graph search.

A tight fusion frame (orthogonal projections summing to c I) assigned to the
color classes of a properly r-edge-colored r-regular graph yields a
dI-regular matrix-weighted graph with d = c; when all ranks equal l the
degree is r l / k, which need not be an integer.

A frame is checked once, by ``FusionFrame.from_projections``: each element
a symmetric projection, the stack of them PSD.  build_expander is the one
place a (graph, coloring, frame) triple from outside the library is
checked: the graph's regularity, its coloring and the frame's tightness,
before it places that stack.  Frames and graphs compare and hash by value.

The expander report (eta, the nontrivial adjacency extremes and the
Alon-Boppana comparison) of N graphs is solved from (N, m, 2) edges and
(N, m, k, k) weights.  The searches check the frame's tightness once and
place it on the colorings they make, proper by construction, as such
arrays, with no graph, bundle or check per coloring.  ``eta`` is the
one-graph case, with the same first error.
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
    DimMismatchError,
    DomainError,
    NotColorableError,
    NotProjectionError,
    NotProjectionWeightsError,
    NotProperlyColoredError,
    NotTightError,
    ParseError,
    SampleShortfallError,
    TooLargeError,
)
from .expansion import require_scalar_regular
from .graphgen import (
    edges_code,
    enumerate_regular_graphs,
    graph6_like,
    iter_proper_colorings,
)
from .graphs import (LOAD_MAX_NK, BaseGraph, MatrixWeightedGraph, _ByValue, _degree_sums,
                     _regularity, _stack_key, is_connected_edges)
from .linalg import (DEFAULT_TOL, Tolerances, _checked_psd, as_symmetric, is_projection,
                     keep_cutoff, residual_allowance, spectral_norm)
from .operators import OperatorBundle, _adjacencies

SEARCH_MAX_N = 12
# the bytes the graphs of one stacked expander-report solve may take at
# its peak (128 KiB): 39 colourings of an r = 4, n = 8, k = 2 graph, while
# one graph past it, such as an n = 200, k = 2 draw (1.2 MiB), is solved
# alone.  Budgets from 16 KiB to 1.25 MiB searched n <= 8 equally fast
REPORT_BUDGET = 1 << 17
# sample_expanders refuses, before its first draw, a request whose draw
# budget, samples * _draw_budget(r), passes this: r = 6 up to 13 samples,
# r = 7 (726,311 draws a sample) never
MAX_SAMPLE_DRAWS = 500_000


@dataclass(frozen=True, eq=False)
class FusionFrame(_ByValue):
    """k x k orthogonal projections (possibly tight), as one read-only
    (r, k, k) stack; the constructor trusts it, from_projections checks.
    Two frames are equal, and hash alike, when their projections are equal
    value by value."""

    k: int
    projections: np.ndarray
    ranks: tuple[int, ...]

    def _key(self) -> tuple:
        return self.k, _stack_key(self.projections), self.ranks

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
            projections.append(P)
            # a projection's eigenvalues are 0 and 1, so its rank is its trace
            ranks.append(round(float(np.trace(P))))
        if k is None:
            raise DimMismatchError("empty frame needs an explicit ambient dimension k")
        if k < 1:
            raise DomainError(f"frame dimension k must be >= 1, got k={k}")
        # + 0.0 stores a -0.0 as 0.0, as a graph's checked constructors do,
        # so the stack is the weights build_expander places, bit for bit
        stack = np.array(projections).reshape(-1, k, k) + 0.0
        stack = _checked_psd(stack, tol, lambda i: f"element #{i} is not PSD")
        stack.setflags(write=False)
        return cls(k, stack, tuple(ranks))

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
        raise DomainError(f"need r >= 2, got {r}")
    mats = []
    for i in range(r):
        theta = i * math.pi / r
        u = np.array([math.cos(theta), math.sin(theta)])
        mats.append(np.outer(u, u))
    return FusionFrame.from_projections(mats)


def augment_with_identity(f: FusionFrame) -> FusionFrame:
    """Append I_k; a tight frame with constant c becomes tight with c + 1."""
    return FusionFrame.from_projections(list(f.projections) + [np.eye(f.k)])


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

    This is where a coloring from outside the library is checked: the
    graph must be r-regular, r = len(f), and the coloring proper, with one
    color in [0, r) per edge, so every vertex sees all r colors.  The frame
    must be tight, so the result is c I-regular, c the frame constant.  The
    weights are rows of the frame's checked stack, not checked again.
    Raises TooLargeError first when n * k exceeds LOAD_MAX_NK, the bound on
    a loadable graph.
    """
    if g.n * f.k > LOAD_MAX_NK:
        raise TooLargeError(f"n * k = {g.n * f.k} exceeds the limit of {LOAD_MAX_NK}")
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
    stack = f.projections[list(colors)]
    stack.setflags(write=False)
    return MatrixWeightedGraph(g, f.k, stack)


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


def _alon_boppana(r: int, l: int, k: int, d: float) -> tuple[float | None, float | None]:
    """(2 (l/k) sqrt(r-1), 2 sqrt(d-1)), each None where undefined (r < 2, d <= 1)."""
    return (2.0 * (l / k) * math.sqrt(r - 1) if r >= 2 else None,
            2.0 * math.sqrt(d - 1) if d > 1 else None)


def _expander_reports(n: int, k: int, tol: Tolerances, edges: np.ndarray,
                      weights: np.ndarray,
                      ops: OperatorBundle | None = None) -> list[ExpanderReport]:
    """The ExpanderReport of each of N graphs on n vertices, graph i the
    (m, k, k) weights[i] on the (m, 2) edges[i], raising what eta on the
    graphs in turn raises first: a graph that is not dI-regular with d > 0,
    then a weight that is not a projection.

    The degree blocks, regularity verdicts, weight traces (whose rounded
    values are the ranks) and adjacency spectra of all N come from one call
    each, on them read as one graph on N n vertices, and regularity is
    checked before any adjacency exists.  The projection check is one call
    per weight.  ``ops``, one graph's bundle, gives its cached regularity
    and spectrum, from the same calls on the same arrays, in their place."""
    count = len(weights)
    ends = (edges + n * np.arange(count)[:, None, None]).reshape(-1, 2)
    stack = weights.reshape(-1, k, k)
    if ops is None:
        geos = np.bincount(ends.ravel(), minlength=count * n).reshape(count, n).tolist()
        verdicts = _regularity(_degree_sums(count * n, ends, stack).reshape(count, n, k, k),
                               [tuple(geo) for geo in geos], tol)
    else:
        verdicts = [ops.regularity]
    traces = np.trace(weights, axis1=2, axis2=3).tolist()
    ds = []
    for i, reg in enumerate(verdicts):
        ds.append(require_scalar_regular(reg, positive=True))
        for j, w in enumerate(weights[i]):
            if not is_projection(w, tol):
                raise NotProjectionWeightsError(
                    f"weight on edge {tuple(edges[i, j].tolist())} is not a projection")
    spectra = (np.linalg.eigvalsh(_adjacencies(count, n, ends, stack)) if ops is None
               else [ops.adjacency_values])
    reports = []
    for values, d, reg, graph_traces in zip(spectra, ds, verdicts, traces):
        mu = values[::-1]
        cluster = int(np.sum(np.abs(mu - d) <= keep_cutoff(d, tol)))
        hi, lo = float(mu[k]), float(mu[-1])
        ranks, geo = {round(t) for t in graph_traces}, set(reg.geometric_degrees)
        bounds = (_alon_boppana(next(iter(geo)), next(iter(ranks)), k, d)
                  if len(ranks) == 1 and len(geo) == 1 else (None, None))
        reports.append(ExpanderReport(d, float(d - max(abs(hi), abs(lo))), hi, lo, *bounds,
                                      cluster != k))
    return reports


def eta(ops: OperatorBundle) -> ExpanderReport:
    """Expansion constant: all nontrivial |mu| are at most d - eta.

    The one-graph case of the searches' report, on the bundle's regularity
    and adjacency spectrum: regularity is checked on the degree blocks,
    before A is formed, then each weight.  The bundle keeps no operator."""
    G = ops.graph
    edges = np.array(G.base.edges, dtype=np.intp).reshape(1, -1, 2)
    return _expander_reports(ops.n, ops.k, ops.tol, edges, G.weight_stack[None], ops)[0]


def _reports(n: int, edges: np.ndarray, colorings: list, f: FusionFrame,
             tol: Tolerances) -> list[ExpanderReport]:
    """The ExpanderReports of f placed on N graphs on n vertices: edge
    edges[i, j] of an (N, m, 2) array gets f.projections[colorings[i][j]].
    The weights are placed and solved a run at a time, and only the reports
    outlive their run: a run holds REPORT_BUDGET bytes of adjacencies,
    weights and degree blocks, and at least one graph."""
    m, k = edges.shape[1], f.k
    # one graph's arrays at the peak of the solve: its kn x kn adjacency,
    # its weights counted twice, and its degree blocks
    run = max(1, REPORT_BUDGET // (8 * ((n * k) ** 2 + (2 * m + n) * k * k)))
    reports: list[ExpanderReport] = []
    for i in range(0, len(colorings), run):
        weights = f.projections[np.array(colorings[i:i + run], dtype=np.intp)]
        reports += _expander_reports(n, k, tol, edges[i:i + run], weights)
    return reports


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
    return AlonBoppana(*_alon_boppana(r, l, k, d))


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


def _search_order(res: SearchResult) -> tuple:
    """The order of search records: eta descending, then code, then coloring."""
    return (-res.report.eta, res.code, res.coloring)


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
    kept = []
    seen_weightings: set[tuple[int, ...]] = set()
    dedupe = distinct < len(groups)
    for coloring in colorings:
        if dedupe:
            key = tuple(groups[c] for c in coloring)
            if key in seen_weightings:
                continue
            seen_weightings.add(key)
        kept.append(coloring)
    # enumerated colorings are proper, so they are placed on the edges unchecked
    edges = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    reports = _reports(n, np.broadcast_to(edges, (len(kept), *edges.shape)), kept, f, tol)
    return [SearchResult(n, code_str, graph, coloring, report)
            for coloring, report in zip(kept, reports)]


def search_expanders(n_max: int, r: int, f: FusionFrame,
                     tol: Tolerances = DEFAULT_TOL,
                     workers: int = 1) -> list[SearchResult]:
    """Every (connected r-regular graph, proper r-edge-coloring) pair up to n_max.

    Graphs come from orderly generation, one per isomorphism class in its
    canonical labeling; colorings yielding identical weightings (possible
    only when the frame has repeated elements) are deduplicated.  The
    frame is placed on a graph's colorings as one weight array on its edges,
    with no graph, bundle or coloring check per coloring (build_expander
    checks one), and solved stacked, in runs cut by REPORT_BUDGET;
    ``workers`` > 1 spreads the graphs over a forked pool.  Results are
    sorted by eta descending, then canonical code, then coloring.

    Enumeration reaches the n_max = 12 cap for r <= 4 (the 1544 classes of
    r = 4, n = 12 take about 2 s); the limit is now the colorings, 20,544
    at r = 4, n = 10 alone.  Use sample_expanders beyond the cap.  Raises
    TooLarge, before enumerating, when n_max k exceeds LOAD_MAX_NK, the
    bound on one dense nk x nk operator.
    """
    if n_max > SEARCH_MAX_N:
        raise TooLargeError(f"search capped at n_max <= {SEARCH_MAX_N}")
    if r != len(f):
        raise DimMismatchError(f"frame has {len(f)} elements but r = {r}")
    if n_max * f.k > LOAD_MAX_NK:
        raise TooLargeError(f"n_max * k = {n_max * f.k} exceeds the limit of {LOAD_MAX_NK}")
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

        # fork by name: the default start method differs across platforms
        # and Python versions
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            chunks = pool.map(_graph_results, tasks)
    else:
        chunks = [_graph_results(task) for task in tasks]
    results = [res for chunk in chunks for res in chunk]
    results.sort(key=_search_order)
    return results


def _matching_union(rng, n: int, r: int):
    """r uniform perfect matchings of 0..n-1, matching c giving colour c.

    Returns (edges, colouring), the edges sorted, each (min, max), as the
    BaseGraph constructor takes them, or None when an edge repeats or the
    union is disconnected.
    """
    pairs = np.sort([rng.permutation(n).reshape(-1, 2) for _ in range(r)], axis=2)
    keys = (pairs[..., 0] * n + pairs[..., 1]).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        return None
    edges = tuple(divmod(key, n) for key in keys.tolist())
    if not is_connected_edges(n, edges):
        return None
    return edges, tuple((order // (n // 2)).tolist())


def _draw_budget(r: int) -> int:
    """Matching-union draws allowed per sample: about 20 times the mean
    e^(r(r-1)/4) that one simple union takes, and at least 200, which r = 2
    needs on large n, where few unions of two matchings are connected."""
    return max(200, math.ceil(20 * math.exp(r * (r - 1) / 4)))


def sample_expanders(n: int, r: int, f: FusionFrame, samples: int = 10,
                     seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> list[SearchResult]:
    """Seeded random-sampling mode for sizes beyond the exhaustive cap.

    Each draw is the union of r uniform perfect matchings on exactly n
    vertices, matching c holding the edges of colour c, kept only when it
    is simple and connected: a properly coloured r-regular graph with no
    colouring search.  For r >= 3 this model is contiguous to the uniform
    r-regular graph (Molloy, Robalewska, Robinson & Wormald 1997); about
    e^(-r(r-1)/4) of the draws are simple, so each sample is allowed
    _draw_budget(r) draws, which reaches r <= 6.  The records are those of
    search_expanders.  Graphs are not canonicalized, so repeats can occur;
    the result is deterministic for a fixed seed.

    The frame is placed on the draws' own edges as the search places it,
    with no graph, bundle or colouring check per draw.

    Raises Domain for a negative seed or samples < 1; TooLarge, before the
    first draw, when nk exceeds LOAD_MAX_NK, the bound on one dense nk x nk
    operator, or the draw budget exceeds MAX_SAMPLE_DRAWS (r >= 7); and
    SampleShortfall when the budget yields fewer than `samples` graphs.
    """
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if r != len(f):
        raise DimMismatchError(f"frame has {len(f)} elements but r = {r}")
    if n <= r or (n * r) % 2 != 0:
        raise DomainError(f"no {r}-regular graphs on {n} vertices")
    if n % 2:
        raise NotColorableError(f"no proper {r}-edge-coloring on an odd number of vertices "
                                f"({n}): each color class would be a perfect matching")
    if n * f.k > LOAD_MAX_NK:
        raise TooLargeError(f"n * k = {n * f.k} exceeds the limit of {LOAD_MAX_NK}")
    budget = samples * _draw_budget(r)
    if budget > MAX_SAMPLE_DRAWS:
        raise TooLargeError(f"{samples} samples at r = {r} may take {budget} draws, "
                            f"over the limit of {MAX_SAMPLE_DRAWS}")
    verify_tight(f, tol)
    rng = np.random.default_rng(seed)

    def solve() -> list[ExpanderReport]:
        edges = np.array([base.edges for base, _ in draws], dtype=np.intp)
        return _reports(n, edges.reshape(-1, n * r // 2, 2),
                        [coloring for _, coloring in draws], f, tol)

    draws: list[tuple[BaseGraph, tuple[int, ...]]] = []
    attempts = 0
    while len(draws) < samples:
        if attempts == budget:
            # a drawn graph's error comes first, as if each were solved when drawn
            solve()
            raise SampleShortfallError(
                f"drew {len(draws)} of the {samples} requested graphs "
                f"({r}-regular on {n} vertices) in {attempts} attempts")
        attempts += 1
        draw = _matching_union(rng, n, r)
        if draw is None:
            continue
        edges, coloring = draw
        draws.append((BaseGraph(n, edges), coloring))
    reports = solve()
    results = [SearchResult(n, graph6_like(n, edges_code(n, base.edges)), base, coloring, report)
               for (base, coloring), report in zip(draws, reports)]
    results.sort(key=_search_order)
    return results


# --- named frames and frame files -------------------------------------------

_NAMED_FRAME = re.compile(r"^(equiangular(\d+)(\+I)?|identity(\d+))$")


def named_frame(name: str, r_context: int | None = None) -> FusionFrame:
    """Built-in frames: "equiangular{r}", "equiangular{r}+I", "identity{k}".

    identity{k} yields r_context copies of I_k (the trivial lift weighting),
    so it needs the regular degree from context.

    An r-element frame in R^k weights only r-regular graphs, which have
    n > r vertices, so n k >= (r + 1) k.  A name whose (r + 1) k passes
    LOAD_MAX_NK, the bound on a loadable graph, raises TooLarge before
    anything is built, as does a number longer than that bound, before
    int() reads it.
    """
    m = _NAMED_FRAME.match(name)
    if not m:
        raise ParseError(f"unknown frame name {name!r}")
    identity = m.group(4) is not None
    if identity and r_context is None:
        raise DomainError("identity{k} frame needs the number of colors (r)")
    if identity and r_context < 1:
        raise DomainError(f"identity{{k}} frame needs r >= 1 colors, got r = {r_context}")
    digits = (m.group(4) or m.group(2)).lstrip("0")
    if len(digits) <= len(str(LOAD_MAX_NK)):
        size = int(digits or "0")
        r, k = (r_context, size) if identity else (size + bool(m.group(3)), 2)
        if (r + 1) * k <= LOAD_MAX_NK:
            if identity:
                return FusionFrame.from_projections([np.eye(k)] * r)
            frame = equiangular_frame_2d(size)
            return augment_with_identity(frame) if m.group(3) else frame
    raise TooLargeError(f"frame {name!r:.40} weights only graphs with n * k over "
                        f"the limit of {LOAD_MAX_NK}")


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
