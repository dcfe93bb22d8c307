"""Cellular-sheaf view of a matrix-weighted graph.

Edge stalks carry orthonormal coordinates on im(W_e) scaled by the square
roots of the weight eigenvalues, so the coboundary is an ordinary real
matrix with delta^T delta equal to the Laplacian.  Also provides the
bar-and-joint (truss) construction whose Laplacian is the stiffness matrix.

The sheaf checks take an ``OperatorBundle`` and read its tolerances; the
constructors take a graph or truss and tolerances of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import jsonio
from .errors import DegenerateEdgeError, IndexOutOfRangeError, ParseError, TooLargeError
from .graphs import LOAD_MAX_NK, Edge, MatrixWeightedGraph
from .linalg import (DEFAULT_TOL, Tolerances, _spectral_norms, as_symmetric, keep_cutoff,
                     kernel_dim_of_values, residual_allowance, residual_scale)
from .operators import BoundReport, OperatorBundle, Stacked, assemble


@dataclass(frozen=True)
class Coboundary:
    """The map delta: C^0 -> C^1 whose Gram matrix is the Laplacian.

    Each edge contributes rank(W_e) rows; factors[e] is the matrix B_e with
    B_e^T B_e = W_e, placed with +B_e at the head block and -B_e at the tail.
    """

    matrix: np.ndarray
    k: int
    n: int
    edge_rows: Mapping[Edge, tuple[int, int]]
    orientation: Mapping[Edge, tuple[int, int]]
    factors: Mapping[Edge, np.ndarray]


def _sqrt_factors(sym: np.ndarray, tol: Tolerances) -> list[np.ndarray]:
    """sqrt_factor of every matrix of an (m, k, k) stack already symmetrized,
    such as a graph's stored weights, from one eigh."""
    if len(sym) == 0:
        return []
    values, vectors = np.linalg.eigh(sym)
    keep = values > keep_cutoff(values[:, -1:], tol)
    rows = np.sqrt(values[keep])[:, None] * vectors.transpose(0, 2, 1)[keep]
    return np.split(rows, np.cumsum(keep.sum(axis=1))[:-1])


def sqrt_factor(w, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """B with B^T B = W for PSD W; rows are sqrt(sigma_i) u_i^T over eigenpairs
    with sigma above the rank cutoff, in eigh's ascending order."""
    return _sqrt_factors(as_symmetric(w, tol)[None], tol)[0]


def build_coboundary(G: MatrixWeightedGraph,
                     orientation: Mapping[Edge, tuple[int, int]] | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> Coboundary:
    """Assemble delta for a given orientation (default: tail = min, head = max).

    Raises TooLargeError, before delta is allocated, when its rows x nk
    entries exceed LOAD_MAX_NK^2."""
    k, n = G.k, G.base.n
    orient: dict[Edge, tuple[int, int]] = {}
    for e in G.base.edges:
        if orientation is not None and e in orientation:
            tail, head = orientation[e]
            if {tail, head} != {e[0], e[1]}:
                raise ValueError(f"orientation {orientation[e]} does not match edge {e}")
        else:
            tail, head = e
        orient[e] = (tail, head)
    weights = np.array([G.weights[e] for e in G.base.edges]).reshape(len(G.base.edges), k, k)
    factors = dict(zip(G.base.edges, _sqrt_factors(weights, tol)))
    total = sum(f.shape[0] for f in factors.values())
    if total * k * n > LOAD_MAX_NK ** 2:
        raise TooLargeError(f"coboundary of {total} x {k * n} exceeds the limit of "
                            f"{LOAD_MAX_NK ** 2} entries")
    delta = np.zeros((total, k * n))
    edge_rows: dict[Edge, tuple[int, int]] = {}
    row = 0
    for e in G.base.edges:
        B = factors[e]
        r = B.shape[0]
        tail, head = orient[e]
        delta[row:row + r, head * k:(head + 1) * k] = B
        delta[row:row + r, tail * k:(tail + 1) * k] = -B
        edge_rows[e] = (row, row + r)
        row += r
    return Coboundary(delta, k, n, edge_rows, orient, factors)


def _factorizations(group: list[OperatorBundle]) -> list[tuple[np.ndarray, float]]:
    """Each bundle's coboundary delta and ||delta^T delta - L||_2, the norms
    from one stacked SVD norm over the group."""
    deltas = [build_coboundary(ops.graph, tol=ops.tol).matrix for ops in group]
    laplacians = np.stack([ops.laplacian for ops in group])
    errors = _spectral_norms(np.stack([delta.T @ delta for delta in deltas]) - laplacians)
    return list(zip(deltas, errors.tolist()))


# a bundle's coboundary and the residual of its factorization check
factorization = Stacked(_factorizations, "sheaf_factorization")


def _kernel_basis(delta: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Orthonormal columns spanning ker(delta).  Only the right singular
    vectors are read, so the rows x rows U is formed only when rows < nk,
    where the full V is needed and U is the smaller factor."""
    rows, cols = delta.shape
    if rows == 0:
        return np.eye(cols)
    _, sigma, vt = np.linalg.svd(delta, full_matrices=rows < cols)
    rank = sigma.size - kernel_dim_of_values(sigma[::-1] ** 2, tol)
    return vt[rank:].T


def sheaf_analysis(ops: OperatorBundle) -> tuple[BoundReport, np.ndarray, int]:
    """The factorization check, the global sections and kernel_dim(L), in
    that order, from one coboundary and the bundle's one eigensolve of L.

    The check is ||delta^T delta - L|| <= residual_allowance(||L||).  The
    global sections are an orthonormal basis of H^0 = ker(delta), as
    columns: sigma counts as zero when sigma^2 does in kernel_dim of delta^T
    delta, so their number is kernel_dim(L) exactly when ker delta = ker L.
    ||L|| and kernel_dim(L) are read off the bundle's ``laplacian_values``:
    L is assembled exactly symmetric, so this is the count, and the PSD
    check, that kernel_dim(L) gives."""
    delta, err = factorization.of(ops)
    norm = ops.laplacian_norm
    report = BoundReport.simple("sheaf_factorization", err, residual_allowance(norm, ops.tol),
                                check_tol=0.0, laplacian_norm=norm)
    return report, _kernel_basis(delta, ops.tol), kernel_dim_of_values(ops.laplacian_values, ops.tol)


# --- trusses ---------------------------------------------------------------


@dataclass(frozen=True)
class Truss:
    """Bar-and-joint structure in R^3: joint positions, struts, stiffnesses."""

    points: np.ndarray
    edges: tuple[Edge, ...]
    stiffness: Mapping[Edge, float]

    @classmethod
    def make(cls, points, members: Iterable[tuple[int, int, float]]) -> "Truss":
        """Raises TooLargeError, before reading any member, when 3n exceeds
        LOAD_MAX_NK (the stiffness matrix is dense 3n x 3n)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        if 3 * len(pts) > LOAD_MAX_NK:
            raise TooLargeError(f"3n = {3 * len(pts)} exceeds the limit of {LOAD_MAX_NK}")
        pts.setflags(write=False)
        stiffness: dict[Edge, float] = {}
        for u, v, s in members:
            u, v = int(u), int(v)
            key = (u, v) if u < v else (v, u)
            if key[0] < 0 or key[1] >= len(pts):
                raise IndexOutOfRangeError(
                    f"edge {key} outside joint range [0, {len(pts)})")
            s = float(s)
            if s <= 0:
                raise ValueError(f"stiffness on edge {key} must be positive, got {s}")
            stiffness[key] = stiffness.get(key, 0.0) + s
        return cls(pts, tuple(sorted(stiffness)), stiffness)


def load_truss(data: bytes | str) -> Truss:
    """Parse truss JSON: { "points": [[x,y,z],...], "edges": [{"u","v","s"}] }."""
    doc = jsonio.loads(data, "truss JSON")
    try:
        points = [[jsonio.number(c, "point coordinate") for c in p] for p in doc["points"]]
        members = [(jsonio.integer(e["u"], "u"), jsonio.integer(e["v"], "v"),
                    jsonio.number(e["s"], "s")) for e in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed truss JSON: {exc}") from exc
    if any(len(p) != 3 for p in points):
        raise ParseError("each point must have exactly 3 coordinates")
    try:
        return Truss.make(points, members)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def truss_to_mwg(t: Truss, tol: Tolerances = DEFAULT_TOL) -> MatrixWeightedGraph:
    """k = 3 weighting W_e = s_e * u u^T along each strut direction.

    The Laplacian of the result is the stiffness matrix of the truss.
    """
    items = []
    for (u, v) in t.edges:
        d = t.points[v] - t.points[u]
        length = float(np.linalg.norm(d))
        if length == 0.0:
            raise DegenerateEdgeError(f"edge ({u}, {v}) has zero length")
        unit = d / length
        items.append((u, v, t.stiffness[(u, v)] * np.outer(unit, unit)))
    return MatrixWeightedGraph.from_weights(len(t.points), 3, items, tol)


def truss_rigidity(t: Truss, tol: Tolerances = DEFAULT_TOL) -> tuple[int, np.ndarray, float]:
    """kernel_dim of the stiffness matrix L, the rigid motions M of the joints,
    and the residual max|L M| / max(1, ||L||_2) (0.0 when there are none)."""
    ops = assemble(truss_to_mwg(t, tol), tol)
    motions = rigid_motions(t.points, tol)
    if motions.size:
        scale = residual_scale(ops.laplacian_norm)
        residual = float(np.abs(ops.laplacian @ motions).max()) / scale
    else:
        residual = 0.0
    return kernel_dim_of_values(ops.laplacian_values, tol), motions, residual


def rigid_motions(points, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the rigid-motion fields of a point set in R^3.

    Columns are the independent vectors among 3 translations and 3
    infinitesimal rotations (taken about the centroid for conditioning).
    Degenerate configurations (collinear, coincident) yield fewer than 6.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    center = pts.mean(axis=0)
    # translations along, then rotations about, each axis
    gens = [np.tile(axis, n) for axis in np.eye(3)]
    gens += [np.cross(np.broadcast_to(axis, (n, 3)), pts - center).ravel() for axis in np.eye(3)]
    K = np.array(gens).T
    U, s, _ = np.linalg.svd(K, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((3 * n, 0))
    rank = int(np.sum(s > keep_cutoff(s[0], tol)))
    return U[:, :rank]
