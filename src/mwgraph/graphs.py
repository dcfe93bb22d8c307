"""Data model for matrix-weighted graphs and the MWG-JSON on-disk format.

A matrix-weighted graph is an undirected simple graph plus a k x k PSD
weight matrix per edge.  Multi-edges are representable because weights add;
load() merges duplicate pairs by matrix summation, so one stored matrix per
pair keeps W_uv well-defined.  A zero weight means "no edge" and is dropped
on save.  An ordinary weighted graph is the k = 1 case, with w_e = W_e[0, 0];
lift_identity turns one into the weighting w_e * I_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import jsonio
from .errors import IndexOutOfRangeError, ParseError, TooLargeError
from .linalg import DEFAULT_TOL, Tolerances, _checked_psd, residual_allowance

Edge = tuple[int, int]

# load() refuses n * k above this, and sheaf.Truss.make 3n, so that one
# dense kn x kn float64 operator, such as the Laplacian that assemble forms,
# stays within 128 MiB; sheaf.build_coboundary holds delta to the same size
LOAD_MAX_NK = 4096


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class BaseGraph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IndexOutOfRangeError(
                    f"edge ({u}, {v}) outside vertex range [0, {self.n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not normalized as (min, max)")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "BaseGraph":
        normalized = sorted({_norm_edge(int(u), int(v)) for u, v in edges})
        return cls(n, tuple(normalized))

    def geometric_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def is_connected_edges(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the graph on vertices 0..n-1 has at most one component."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0] if n else []
    while stack:
        x = stack.pop()
        if not seen[x]:
            seen[x] = True
            stack.extend(adj[x])
    return all(seen)


@dataclass(frozen=True)
class MatrixWeightedGraph:
    """Base graph plus one k x k PSD weight matrix per edge.

    Immutable after construction (weight arrays are marked read-only);
    freely shareable across threads.  An absent pair means the zero matrix.
    """

    base: BaseGraph
    k: int
    weights: Mapping[Edge, np.ndarray]

    @classmethod
    def from_weights(cls, n: int, k: int,
                     items: Iterable[tuple[int, int, np.ndarray]],
                     tol: Tolerances = DEFAULT_TOL) -> "MatrixWeightedGraph":
        """Build from (u, v, matrix) triples; duplicate pairs merge by summation."""
        if k < 1:
            raise ValueError(f"block size k must be >= 1, got {k}")
        merged: dict[Edge, np.ndarray] = {}
        for u, v, w in items:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRangeError(
                    f"edge ({u}, {v}) outside vertex range [0, {n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            arr = np.asarray(w, dtype=float)
            if arr.shape != (k, k):
                raise ValueError(
                    f"weight for edge ({u}, {v}) has shape {arr.shape}, expected ({k}, {k})")
            key = _norm_edge(u, v)
            merged[key] = merged.get(key, np.zeros((k, k))) + arr
        keys = sorted(merged)
        stack = np.array([merged[key] for key in keys]).reshape(len(keys), k, k)
        sym = _checked_psd(stack, tol, lambda i: f"weight on edge {keys[i]} is not PSD")
        sym.setflags(write=False)
        weights = dict(zip(keys, sym))
        base = BaseGraph(n, tuple(keys))
        return cls(base, k, weights)

    def weight(self, u: int, v: int) -> np.ndarray:
        """W_uv; the zero matrix when u and v are not adjacent."""
        w = self.weights.get(_norm_edge(u, v))
        if w is None:
            return np.zeros((self.k, self.k))
        return w


@dataclass(frozen=True)
class Regularity:
    """Result of the regularity test.

    kind is "irregular", "regular" (common degree matrix D), or "scalar"
    (additionally D = dI).  Geometric degrees are reported separately from
    the algebraic degree.
    """

    kind: str
    degree_matrix: np.ndarray | None
    scalar_degree: float | None
    geometric_degrees: tuple[int, ...] = field(default=())

    @property
    def is_scalar_regular(self) -> bool:
        return self.kind == "scalar"


def all_degrees(G: MatrixWeightedGraph) -> list[np.ndarray]:
    out = [np.zeros((G.k, G.k)) for _ in range(G.base.n)]
    for (a, b), w in G.weights.items():
        out[a] = out[a] + w
        out[b] = out[b] + w
    return out


def _regularity(degs: np.ndarray, geo: tuple[int, ...], tol: Tolerances) -> Regularity:
    """The regularity test on the (n, k, k) stack of degree blocks D_v."""
    k = degs.shape[1]
    if not len(degs):
        return Regularity("scalar", np.zeros((k, k)), 0.0, geo)
    allowed = residual_allowance(float(np.max(np.abs(degs))), tol)
    D0 = degs[0]
    if float(np.max(np.abs(degs[1:] - D0), initial=0.0)) > allowed:
        return Regularity("irregular", None, None, geo)
    d_scalar = float(np.trace(D0)) / k
    if float(np.max(np.abs(D0 - d_scalar * np.eye(k)))) <= residual_allowance(abs(d_scalar), tol):
        return Regularity("scalar", D0, d_scalar, geo)
    return Regularity("regular", D0, None, geo)


def lift_identity(g: MatrixWeightedGraph, k: int) -> MatrixWeightedGraph:
    """Matrix weighting W_e = w_e * I_k of a k = 1 graph; its Laplacian is L_g tensor I_k."""
    if g.k != 1:
        raise ValueError(f"lift_identity requires k = 1, got k = {g.k}")
    if k < 1:
        raise ValueError(f"block size k must be >= 1, got {k}")
    items = [(u, v, w[0, 0] * np.eye(k)) for (u, v), w in g.weights.items()]
    return MatrixWeightedGraph.from_weights(g.base.n, k, items)


# --- MWG-JSON format -------------------------------------------------------
#
# { "k": int, "n": int, "edges": [ { "u": int, "v": int,
#                                    "w": [k*k floats, row-major] }, ... ] }
# Writers emit edges sorted by (min(u, v), max(u, v)) and floats with 17
# significant digits.  Scalar graphs use k = 1.


def load(data: bytes | str, tol: Tolerances = DEFAULT_TOL) -> MatrixWeightedGraph:
    """Parse MWG-JSON; duplicate pair entries are merged by matrix summation.

    Raises TooLargeError, before reading any edge, when n * k exceeds
    LOAD_MAX_NK.
    """
    doc = jsonio.loads(data, "MWG-JSON")
    if not isinstance(doc, dict):
        raise ParseError("top-level MWG-JSON value must be an object")
    try:
        k = jsonio.integer(doc["k"], "k")
        n = jsonio.integer(doc["n"], "n")
        edge_docs = doc["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed k/n/edges: {exc}") from exc
    if k < 1 or n < 0 or not isinstance(edge_docs, list):
        raise ParseError(f"invalid header: k={doc.get('k')}, n={doc.get('n')}")
    if n * k > LOAD_MAX_NK:
        raise TooLargeError(f"n * k = {n * k} exceeds the limit of {LOAD_MAX_NK}")
    items = []
    for i, ed in enumerate(edge_docs):
        try:
            u = jsonio.integer(ed["u"], "u")
            v = jsonio.integer(ed["v"], "v")
            w = [jsonio.number(x, "w entry") for x in ed["w"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed edge entry #{i}: {exc}") from exc
        if len(w) != k * k:
            raise ParseError(
                f"edge ({u}, {v}) has {len(w)} weight entries, expected {k * k}")
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        items.append((u, v, np.array(w).reshape(k, k)))
    return MatrixWeightedGraph.from_weights(n, k, items, tol)


def save(G: MatrixWeightedGraph) -> bytes:
    """Serialize to canonical MWG-JSON (sorted edges, zero weights dropped)."""
    edges = []
    for (u, v), w in sorted(G.weights.items()):
        if not np.any(w):
            continue
        edges.append({"u": u, "v": v, "w": [float(x) for x in w.ravel()]})
    doc = {"k": G.k, "n": G.base.n, "edges": edges}
    return jsonio.dumps(doc).encode("utf-8")
