"""Cellular-sheaf view of a matrix-weighted graph.

Edge stalks carry orthonormal coordinates on im(W_e) scaled by the square
roots of the weight eigenvalues: each edge's factor B_e (``sqrt_factor``)
has B_e^T B_e = W_e, and the coboundary delta places +B_e at the edge's
head block and -B_e at its tail.  Its Gram matrix is the sheaf Laplacian
delta^T delta = sum_e b_e b_e^T (x) B_e^T B_e (Hansen and Ghrist, "Toward a
spectral theory of cellular sheaves", 2019): the Laplacian of the weights
B_e^T B_e, whatever the orientation.  So the sheaf check never forms delta,
which has one row per unit of edge rank, but only a shape group's nk x nk
Gram matrices and Laplacians, solved and dropped: a bundle keeps only the
residual's norm and dim H^0; ``global_sections`` solves a basis on request.
Also provides the bar-and-joint (truss) construction whose Laplacian is the
stiffness matrix.

The sheaf check takes an ``OperatorBundle`` and reads its tolerances; the
constructors take a graph or truss and tolerances of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import jsonio
from .errors import (DegenerateEdgeError, DimMismatchError, DomainError, IndexOutOfRangeError,
                     NonFiniteError, ParseError, TooLargeError)
from .graphs import LOAD_MAX_NK, Edge, MatrixWeightedGraph, _ByValue, _degree_sums, _stack_key
from .linalg import (DEFAULT_TOL, Tolerances, _checked_psd, as_symmetric, keep_cutoff,
                     kernel_dim_of_values, residual_allowance, residual_scale)
from .operators import (BoundReport, OperatorBundle, Stacked, _group_edges, _laplacian_stack,
                        _laplacians, assemble)


def _kept_eigh(sym: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """eigh of every matrix of an (m, k, k) stack already symmetrized, with
    each eigenvalue at or below keep_cutoff(lambda_max) set to 0."""
    values, vectors = np.linalg.eigh(sym)
    return np.where(values > keep_cutoff(values[:, -1:], tol), values, 0.0), vectors


def sqrt_factor(w, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """B with B^T B = W for PSD W; rows are sqrt(sigma_i) u_i^T over eigenpairs
    with sigma above the rank cutoff, in eigh's ascending order.  Raises
    NotPsdError when W is not PSD under tol."""
    sym = _checked_psd(as_symmetric(w, tol)[None], tol,
                       lambda _: "sqrt_factor requires a PSD matrix")
    values, vectors = _kept_eigh(sym, tol)
    keep = values[0] > 0.0
    return np.sqrt(values[0, keep])[:, None] * vectors[0].T[keep]


def _factored_weights(sym: np.ndarray, tol: Tolerances) -> np.ndarray:
    """B^T B, taken exactly symmetric, for the sqrt_factor B of every matrix
    of an (m, k, k) stack already symmetrized, such as a graph's stored
    weights, from one eigh."""
    values, vectors = _kept_eigh(sym, tol)
    factors_t = vectors * np.sqrt(values)[:, None, :]
    gram = factors_t @ factors_t.transpose(0, 2, 1)
    return (gram + gram.transpose(0, 2, 1)) / 2.0


def _grams(group: list[OperatorBundle]) -> np.ndarray:
    """Each bundle's delta^T delta: the Laplacian of the factored weights
    B_e^T B_e, all the group's from one eigh, placed as its L is."""
    tol, n, k = group[0].tol, group[0].n, group[0].k
    ends, weights = _group_edges(group)
    factored = _factored_weights(weights, tol)
    degrees = _degree_sums(len(group) * n, ends, factored).reshape(len(group), n, k, k)
    return _laplacians(degrees, ends, factored)


def _sheaf_checks(group: list[OperatorBundle]) -> list[tuple[float, int]]:
    """Each bundle's ||delta^T delta - L||_2 and dim H^0 = dim ker delta.

    dim H^0 counts the eigenvalues sigma^2 of delta^T delta, clipped at 0
    (it is PSD, so a negative one is rounding), at or below the zero cutoff
    at sigma_max^2.  They come from one stacked eigvalsh, the routine dim
    ker L is read from, so where delta^T delta has L's bits the two counts
    agree.  The exactly symmetric residual's norm is its largest
    |eigenvalue|, from a second eigvalsh."""
    grams = _grams(group)
    dims = [kernel_dim_of_values(np.maximum(sigma2, 0.0), group[0].tol)
            for sigma2 in np.linalg.eigvalsh(grams)]
    grams -= _laplacian_stack(group)
    residuals = np.abs(np.linalg.eigvalsh(grams)).max(axis=-1, initial=0.0)
    return list(zip(residuals.tolist(), dims))


# a bundle's factorization residual and dim H^0
sheaf_check = Stacked(_sheaf_checks, "sheaf_check")


def sheaf_analysis(ops: OperatorBundle) -> tuple[BoundReport, int, int]:
    """The factorization check ||delta^T delta - L|| <= residual_allowance(||L||),
    dim H^0 and dim ker L, in that order, from the bundle's ``sheaf_check``
    and its one eigensolve of L: ||L|| and dim ker L, PSD check included,
    are read off its ``laplacian_values`` by ``kernel_dim_of_values``."""
    err, h0 = sheaf_check.of(ops)
    norm = ops.laplacian_norm
    report = BoundReport.simple("sheaf_factorization", err, residual_allowance(norm, ops.tol),
                                check_tol=0.0, laplacian_norm=norm)
    return report, h0, kernel_dim_of_values(ops.laplacian_values, ops.tol)


def global_sections(ops: OperatorBundle) -> np.ndarray:
    """An orthonormal basis of H^0 = ker delta, as columns: the first dim H^0
    eigenvectors of delta^T delta from one eigh, as a copy that owns its data."""
    h0 = sheaf_check.of(ops)[1]
    return np.linalg.eigh(_grams([ops])[0])[1][:, :h0].copy()


# --- trusses ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Truss(_ByValue):
    """Bar-and-joint structure in R^3: joint positions, struts, stiffnesses.
    Two trusses are equal, and hash alike, when their points, struts and
    stiffnesses are equal value by value, as frames and graphs compare."""

    points: np.ndarray
    edges: tuple[Edge, ...]
    stiffness: Mapping[Edge, float]

    def _key(self) -> tuple:
        return _stack_key(self.points), self.edges, tuple(map(self.stiffness.get, self.edges))

    @classmethod
    def make(cls, points, members: Iterable[tuple[int, int, float]]) -> "Truss":
        """Raises TooLargeError, before reading any member, when 3n exceeds
        LOAD_MAX_NK (the stiffness matrix is dense 3n x 3n), and NonFiniteError for NaN or Inf."""
        try:
            pts = np.asarray(points, dtype=float)
        except ValueError as exc:  # ragged nesting, or an entry that is not a number
            raise DimMismatchError("points must be an (n, 3) array of numbers") from exc
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DimMismatchError(f"points must have shape (n, 3), got {pts.shape}")
        if 3 * len(pts) > LOAD_MAX_NK:
            raise TooLargeError(f"3n = {3 * len(pts)} exceeds the limit of {LOAD_MAX_NK}")
        if not np.isfinite(pts).all():
            raise NonFiniteError("points contain NaN or Inf coordinates")
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
                raise DomainError(f"stiffness on edge {key} must be positive, got {s}")
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
    return Truss.make(points, members)


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
    """dim ker L of the stiffness matrix L, the rigid motions M of the joints,
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
