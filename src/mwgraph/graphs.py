"""Data model for matrix-weighted graphs and the MWG-JSON on-disk format.

A matrix-weighted graph is an undirected simple graph plus a k x k PSD
weight matrix per edge, stored as the sorted edges and one aligned
(m, k, k) weight stack.  Multi-edges are representable because weights add;
the checked constructors merge duplicate pairs by matrix summation, so one
stored matrix per pair keeps W_uv well-defined.  A zero weight means "no
edge" and is dropped on save.  An ordinary weighted graph is the k = 1
case, with w_e = W_e[0, 0]; lift_identity turns one into the weighting
w_e * I_k.

Input is checked once, by ``BaseGraph.from_edges``, ``from_weights`` and
``load``.  The dataclass constructors trust their arguments, so code that
holds checked parts (lift_identity, frames.build_expander) calls them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import jsonio
from .errors import (DegenerateEdgeError, DimMismatchError, DomainError, IndexOutOfRangeError,
                     ParseError, TooLargeError)
from .linalg import DEFAULT_TOL, Tolerances, _checked_psd, residual_allowance

Edge = tuple[int, int]

# load() refuses n * k above this, and sheaf.Truss.make 3n, so that one dense
# kn x kn float64 operator, such as L or delta^T delta placed to be solved (a
# bundle keeps none; a spectrum holds about three at once), stays within 128 MiB
LOAD_MAX_NK = 4096


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class BaseGraph:
    """Undirected simple graph on vertices 0..n-1, its edges sorted, each
    (min, max) and unique; the constructor trusts them, from_edges checks."""

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "BaseGraph":
        """The graph of edges in either orientation, repeats dropped; the
        first bad edge in sorted order is the error."""
        normalized = sorted({_norm_edge(int(u), int(v)) for u, v in edges})
        if n < 0:
            raise DomainError(f"vertex count must be >= 0, got {n}")
        for u, v in normalized:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRangeError(
                    f"edge ({u}, {v}) outside vertex range [0, {n})")
            if u == v:
                raise DegenerateEdgeError(f"self-loop at vertex {u}")
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


def _stack_key(stack: np.ndarray) -> tuple:
    """What == and hash read of a read-only stack: its shape and float64
    bytes, -0.0 read as 0.0, so stacks equal entry by entry share a key."""
    return stack.shape, (np.asarray(stack, dtype=float) + 0.0).tobytes()


class _ByValue:
    """== and hash through the class's _key(), for frozen dataclasses with
    array fields, declared eq=False so that dataclass adds neither."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class MatrixWeightedGraph(_ByValue):
    """Base graph plus one k x k PSD weight matrix per edge.

    ``weight_stack[i]`` is the weight on ``base.edges[i]``, so the sorted
    edges and the (m, k, k) stack are the whole graph.  Immutable after
    construction (the stack is read-only); freely shareable across threads.
    An absent pair means the zero matrix.  The constructor trusts its
    arguments; from_weights and load check theirs.  Two graphs are equal,
    and hash alike, when their edges and weights are equal value by value.
    """

    base: BaseGraph
    k: int
    weight_stack: np.ndarray

    def _key(self) -> tuple:
        return self.base, self.k, _stack_key(self.weight_stack)

    @classmethod
    def from_weights(cls, n: int, k: int,
                     items: Iterable[tuple[int, int, np.ndarray]],
                     tol: Tolerances = DEFAULT_TOL) -> "MatrixWeightedGraph":
        """Build from (u, v, matrix) triples; duplicate pairs merge by summation."""
        if k < 1:
            raise DomainError(f"block size k must be >= 1, got {k}")
        ends: list[int] = []
        weights = []
        for u, v, w in items:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRangeError(
                    f"edge ({u}, {v}) outside vertex range [0, {n})")
            if u == v:
                raise DegenerateEdgeError(f"self-loop at vertex {u}")
            try:
                arr = np.asarray(w, dtype=float)
            except ValueError as exc:  # ragged nesting, or an entry that is not a number
                raise DimMismatchError(
                    f"weight for edge ({u}, {v}) is not a ({k}, {k}) array of numbers") from exc
            if arr.shape != (k, k):
                raise DimMismatchError(
                    f"weight for edge ({u}, {v}) has shape {arr.shape}, expected ({k}, {k})")
            ends += (u, v)
            weights.append(arr)
        return cls._from_stack(n, k, ends, np.array(weights).reshape(-1, k, k), tol)

    @classmethod
    def _from_stack(cls, n: int, k: int, ends, stack: np.ndarray,
                    tol: Tolerances = DEFAULT_TOL) -> "MatrixWeightedGraph":
        """The graph with weight stack[i] on pair i of ends, an (m, 2) array
        of endpoints or anything that reshapes to one, with no self-loop:
        n < 0, then the first pair outside 0..n-1, is an error, duplicate
        pairs are summed in input order from zero, and the sums are
        validated (finite, symmetric, PSD) in sorted pair order."""
        if n < 0:
            raise DomainError(f"vertex count must be >= 0, got {n}")
        pairs = np.asarray(ends).reshape(-1, 2)
        outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if outside.any():
            # read from ends itself: an int past int64 makes pairs inexact
            u, v = np.asarray(ends, dtype=object).reshape(-1, 2)[int(np.argmax(outside))]
            raise IndexOutOfRangeError(f"edge ({u}, {v}) outside vertex range [0, {n})")
        pairs = pairs.astype(np.int64)
        keys, slot = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1), return_inverse=True)
        merged = np.zeros((len(keys), k, k))
        # unbuffered, in input order: each duplicate pair sums as a loop would
        np.add.at(merged, slot, stack)
        lo, hi = np.divmod(keys, n)
        edges = tuple(zip(lo.tolist(), hi.tolist()))
        sym = _checked_psd(merged, tol, lambda i: f"weight on edge {edges[i]} is not PSD")
        sym.setflags(write=False)
        return cls(BaseGraph(n, edges), k, sym)

    def weight(self, u: int, v: int) -> np.ndarray:
        """W_uv; the zero matrix when u and v are not adjacent."""
        edges = self.base.edges
        pair = _norm_edge(u, v)
        i = bisect.bisect_left(edges, pair)
        if i < len(edges) and edges[i] == pair:
            return self.weight_stack[i]
        return np.zeros((self.k, self.k))


@dataclass(frozen=True)
class Regularity:
    """Result of the regularity test.

    kind is "irregular", "regular" (every degree block D_v the same D), or
    "scalar" (additionally D = dI).  Geometric degrees are reported separately from
    the algebraic degree.  Compares and hashes by value.
    """

    kind: str
    scalar_degree: float | None
    geometric_degrees: tuple[int, ...] = field(default=())

    @property
    def is_scalar_regular(self) -> bool:
        return self.kind == "scalar"


def _degree_sums(n: int, edges, weights: np.ndarray) -> np.ndarray:
    """The (n, k, k) degree blocks of weights[i] on edges[i], a sequence of
    pairs or an (m, 2) array: each D_v is the sum of the weights at v, added
    in edge order."""
    out = np.zeros((n, *weights.shape[1:]))
    # unbuffered, in index order: u0, v0, u1, v1, ...
    np.add.at(out, np.array(edges, dtype=np.intp).reshape(-1), np.repeat(weights, 2, axis=0))
    return out


def _regularity(degs: np.ndarray, geos: Sequence[tuple[int, ...]],
                tol: Tolerances) -> list[Regularity]:
    """The regularity test of each graph of an (m, n, k, k) stack of degree
    blocks D_v, whose geometric degrees are geos[i]: elementwise steps on the
    whole stack, each graph's verdict bitwise what it gets alone."""
    n, k = degs.shape[1:3]
    if not n:
        return [Regularity("scalar", 0.0, geo) for geo in geos]
    D0 = degs[:, 0]
    spread = np.max(np.abs(degs[:, 1:] - D0[:, None]), axis=(1, 2, 3), initial=0.0)
    d_scalar = np.trace(D0, axis1=1, axis2=2) / k
    gap = np.max(np.abs(D0 - d_scalar[:, None, None] * np.eye(k)), axis=(1, 2))
    verdicts = []
    for top, spread_i, d, gap_i, geo in zip(np.max(np.abs(degs), axis=(1, 2, 3)).tolist(),
                                            spread.tolist(), d_scalar.tolist(),
                                            gap.tolist(), geos):
        if spread_i > residual_allowance(top, tol):
            verdicts.append(Regularity("irregular", None, geo))
        elif gap_i <= residual_allowance(abs(d), tol):
            verdicts.append(Regularity("scalar", d, geo))
        else:
            verdicts.append(Regularity("regular", None, geo))
    return verdicts


def lift_identity(g: MatrixWeightedGraph, k: int) -> MatrixWeightedGraph:
    """Matrix weighting W_e = w_e * I_k of a k = 1 graph; its Laplacian is L_g tensor I_k."""
    if g.k != 1:
        raise DimMismatchError(f"lift_identity requires k = 1, got k = {g.k}")
    if k < 1:
        raise DomainError(f"block size k must be >= 1, got {k}")
    # g's weights passed when g was built, and w I_k has w's eigenvalues;
    # + 0.0 stores a -0.0 as 0.0, as the checked constructors do
    stack = g.weight_stack[:, :1, :1] * np.eye(k) + 0.0
    stack.setflags(write=False)
    return MatrixWeightedGraph(g.base, k, stack)


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
    ends: list[int] = []
    entries: list[float] = []
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
        ends += (u, v)
        entries += w
    stack = np.array(entries, dtype=float).reshape(-1, k, k)
    return MatrixWeightedGraph._from_stack(n, k, ends, stack, tol)


def save(G: MatrixWeightedGraph) -> bytes:
    """Serialize to canonical MWG-JSON (sorted edges, zero weights dropped)."""
    flat = G.weight_stack.reshape(len(G.base.edges), G.k * G.k)
    edges = [{"u": u, "v": v, "w": w}
             for (u, v), w, nonzero in zip(G.base.edges, flat.tolist(), flat.any(axis=1))
             if nonzero]
    doc = {"k": G.k, "n": G.base.n, "edges": edges}
    return jsonio.dumps(doc).encode("utf-8")
