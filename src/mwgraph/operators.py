"""Blockwise operators A, L, D and their normalized forms, plus bound checks.

The Laplacian acts vertexwise by (Lx)_v = sum_u W_uv (x_v - x_u); the
adjacency by (Ax)_v = sum_u W_uv x_u.  The normalized adjacency is computed
directly as D^(+/2) A D^(+/2) rather than via I - Lnorm so singular-degree
vertices are handled uniformly.  The trace weighting w_e = tr(W_e), a k = 1
graph that the trace bounds compare with L_W and A_W, is read as the
bundle's n x n ``trace_adjacency``.  ``assemble`` pairs a graph with its
tolerances in an ``OperatorBundle``, which forms each operator on first read.

The bundle is the one place a graph operator is solved: the spectra of L,
A, their normalized forms and the trace weighting are its cached
eigenvalues, and dim ker L and ||L||_2 are read off them.  Elsewhere
numpy.linalg solves k x k blocks, the sheaf coboundary delta and
delta^T delta - L, and a truss's rigid-motion generators, never L or A.

Each spectrum, D^(+/2) and norm a bundle caches is a ``Stacked`` quantity:
one function solves it for a list of bundles of one shape with one LAPACK
call on their stack, and reading it on one bundle is that function's
one-element case.  numpy solves a stack one matrix at a time with the
routine it uses for a single matrix, so ``solve_stacked``, which fills many
bundles at once, gives each the bits it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import MwgError
from .graphs import MatrixWeightedGraph, Regularity, _regularity, all_degrees
from .linalg import DEFAULT_TOL, Tolerances, _pseudo_sqrt_inv

CHECK_TOL = 1e-8
ATTAIN_TOL = 1e-7  # detection threshold for "bound attained", looser than resid_tol


@dataclass(frozen=True)
class BoundReport:
    """Structured record of an inequality check.

    For chains, lhs/rhs are aligned tuples and slack is the worst pairwise
    rhs - lhs.  holds iff slack >= -check_tol.
    """

    name: str
    lhs: float | tuple[float, ...]
    rhs: float | tuple[float, ...]
    slack: float
    holds: bool
    context: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def simple(cls, name, lhs, rhs, check_tol=CHECK_TOL, **context) -> "BoundReport":
        slack = float(rhs) - float(lhs)
        return cls(name, float(lhs), float(rhs), slack, slack >= -check_tol, context)

    @classmethod
    def chain(cls, name, pairs, check_tol=CHECK_TOL, **context) -> "BoundReport":
        """pairs: sequence of (lhs_i, rhs_i) asserting lhs_i <= rhs_i."""
        pairs = [(float(a), float(b)) for a, b in pairs]
        if pairs:
            slack = min(b - a for a, b in pairs)
        else:
            slack = 0.0
        return cls(name,
                   tuple(a for a, _ in pairs),
                   tuple(b for _, b in pairs),
                   slack, slack >= -check_tol, context)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs if isinstance(self.lhs, float) else list(self.lhs),
            "rhs": self.rhs if isinstance(self.rhs, float) else list(self.rhs),
            "slack": self.slack,
            "holds": self.holds,
            "context": dict(self.context),
        }


class Stacked:
    """A bundle quantity with one implementation: ``solve`` maps a list of
    bundles of one shape (n, k) and one ``tol`` to their values, in order.

    Read on a bundle it solves the one-element list and caches the value
    there, as cached_property does; ``solve_stacked`` caches it for many
    bundles at once.  In a class body it is read as an attribute and named
    after it; elsewhere it is given a name and read with ``of``.
    """

    def __init__(self, solve: Callable[[list], list], name: str | None = None):
        self.solve = solve
        self.name = name

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, ops, owner=None):
        return self if ops is None else self.of(ops)

    def of(self, ops: "OperatorBundle"):
        cache = ops.__dict__
        if self.name not in cache:
            cache[self.name] = self.solve([ops])[0]
        return cache[self.name]


def solve_stacked(bundles: Iterable["OperatorBundle"], quantities: Sequence[Stacked]) -> None:
    """Cache each quantity, in order, on every bundle, from one ``solve`` per
    group of bundles that share n, k and tol.  A group whose solve raises
    MwgError gets nothing, so each of its members solves its own when read
    and meets its own error there."""
    groups: dict[tuple, list[OperatorBundle]] = {}
    for ops in bundles:
        groups.setdefault((ops.n, ops.k, ops.tol), []).append(ops)
    for quantity in quantities:
        for group in groups.values():
            try:
                values = quantity.solve(group)
            except MwgError:
                continue
            for ops, value in zip(group, values):
                ops.__dict__[quantity.name] = value


def _eigvalsh_rows(matrices: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Ascending eigenvalues of each matrix, read-only, from one eigvalsh."""
    values = np.linalg.eigvalsh(np.stack(list(matrices)))
    values.setflags(write=False)
    return list(values)


def _degree_pseudo_sqrt_invs(group: list["OperatorBundle"]) -> list[np.ndarray]:
    """Block-diagonal D^(+/2) of each bundle: all their D_v^(+/2) from one
    stacked pseudo_sqrt_inv."""
    halves = _pseudo_sqrt_inv(np.concatenate([ops.degree_blocks for ops in group]),
                              group[0].tol)
    n = group[0].n
    return [ops._block_diagonal(halves[i * n:(i + 1) * n]) for i, ops in enumerate(group)]


def _trace_laplacian(ops: "OperatorBundle") -> np.ndarray:
    A_tr = ops.trace_adjacency
    # row sums, not assemble's edge-order degree sums: the two differ in the last bit
    return np.diag(A_tr.sum(axis=1)) - A_tr


@dataclass(frozen=True)
class OperatorBundle:
    """The operators of a matrix-weighted graph under fixed tolerances.

    ``assemble`` fixes ``graph`` and ``tol``; every other field is formed,
    with ``tol``, the first time it is read: the degree blocks D_v (summed
    by ``all_degrees``) and ``regularity``, A, D (placed from the blocks)
    and L, the normalized operators and D^(+/2), ``trace_adjacency`` and
    the ascending spectra of L, A, both normalized forms and the trace
    weighting's Laplacian and adjacency (one ``eigvalsh`` each), from which
    ``laplacian_norm`` is read.  So
    regularity and size are checked before any kn x kn array exists.  Every
    analysis reads one bundle, so a caller assembles and solves each graph
    once.
    """

    graph: MatrixWeightedGraph
    tol: Tolerances = DEFAULT_TOL

    @property
    def k(self) -> int:
        return self.graph.k

    @property
    def n(self) -> int:
        return self.graph.base.n

    @cached_property
    def degree_blocks(self) -> np.ndarray:
        """The (n, k, k) stack of degree blocks D_v."""
        blocks = np.array(all_degrees(self.graph)).reshape(self.n, self.k, self.k)
        blocks.setflags(write=False)
        return blocks

    @cached_property
    def adjacency(self) -> np.ndarray:
        k, n = self.k, self.n
        A = np.zeros((k * n, k * n))
        for (u, v), w in self.graph.weights.items():
            A[u * k:(u + 1) * k, v * k:(v + 1) * k] = w
            A[v * k:(v + 1) * k, u * k:(u + 1) * k] = w
        return A

    @cached_property
    def degree(self) -> np.ndarray:
        return self._block_diagonal(self.degree_blocks)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return self.degree - self.adjacency

    def _block_diagonal(self, blocks: np.ndarray) -> np.ndarray:
        k, n = self.k, self.n
        out = np.zeros((k * n, k * n))
        out.reshape(n, k, n, k)[np.arange(n), :, np.arange(n), :] = blocks
        return out

    degree_pseudo_sqrt_inv = Stacked(_degree_pseudo_sqrt_invs)

    @cached_property
    def trace_adjacency(self) -> np.ndarray:
        """The n x n adjacency of the trace weighting: entry (u, v) is tr(W_uv)."""
        n, k = self.n, self.k
        return np.trace(self.adjacency.reshape(n, k, n, k), axis1=1, axis2=3)

    @cached_property
    def regularity(self) -> Regularity:
        """The graph's regularity under ``tol``, tested on ``degree_blocks``."""
        return _regularity(self.degree_blocks, self.graph.base.geometric_degrees(), self.tol)

    laplacian_values = Stacked(lambda group: _eigvalsh_rows(ops.laplacian for ops in group))
    adjacency_values = Stacked(lambda group: _eigvalsh_rows(ops.adjacency for ops in group))
    normalized_laplacian_values = Stacked(
        lambda group: _eigvalsh_rows(ops.lap_normalized for ops in group))
    normalized_adjacency_values = Stacked(
        lambda group: _eigvalsh_rows(ops.adj_normalized for ops in group))
    trace_laplacian_values = Stacked(
        lambda group: _eigvalsh_rows(_trace_laplacian(ops) for ops in group))
    trace_adjacency_values = Stacked(
        lambda group: _eigvalsh_rows(ops.trace_adjacency for ops in group))

    @property
    def laplacian_norm(self) -> float:
        """||L||_2 = max(|lambda_min|, |lambda_max|), read off ``laplacian_values``."""
        values = self.laplacian_values
        return max(abs(float(values[0])), abs(float(values[-1]))) if values.size else 0.0

    @cached_property
    def lap_normalized(self) -> np.ndarray:
        half = self.degree_pseudo_sqrt_inv
        Lnorm = half @ self.laplacian @ half
        return (Lnorm + Lnorm.T) / 2.0

    @cached_property
    def adj_normalized(self) -> np.ndarray:
        half = self.degree_pseudo_sqrt_inv
        Anorm = half @ self.adjacency @ half
        return (Anorm + Anorm.T) / 2.0


def assemble(G: MatrixWeightedGraph, tol: Tolerances = DEFAULT_TOL) -> OperatorBundle:
    """The bundle of G under ``tol``: the one place a graph meets its tolerances."""
    return OperatorBundle(G, tol)


def check_normalized_bound(ops: OperatorBundle) -> BoundReport:
    """lambda_max of the normalized Laplacian is bounded above by 2."""
    values = ops.normalized_laplacian_values
    lam_max = float(values[-1]) if values.size else 0.0
    return BoundReport.simple(
        "normalized_laplacian_upper_bound", lam_max, 2.0,
        attained=bool(abs(lam_max - 2.0) <= ATTAIN_TOL),
        lambda_max=lam_max)


def check_laplacian_trace_bounds(ops: OperatorBundle) -> BoundReport:
    """Trace-weighting control of the Laplacian spectrum.

    sum_{i=1..k} lambda_{k+i}(L_W) <= lambda_2(L_trW) <= lambda_n(L_trW)
    <= sum_{i=1..k} lambda_{(n-1)k+i}(L_W), plus the corollary
    lambda_{k+1}(L_W) <= lambda_2(L_trW)/k and lambda_{nk}(L_W) >= lambda_n(L_trW)/k.
    """
    k, n = ops.k, ops.n
    if n < 2:
        return BoundReport.chain("laplacian_trace_bounds", [], note="vacuous for n < 2")
    lam = ops.laplacian_values
    slam = ops.trace_laplacian_values
    low = float(np.sum(lam[k:2 * k]))
    high = float(np.sum(lam[(n - 1) * k:]))
    lam2_tr, lamn_tr = float(slam[1]), float(slam[-1])
    pairs = [
        (low, lam2_tr),
        (lam2_tr, lamn_tr),
        (lamn_tr, high),
        (float(lam[k]), lam2_tr / k),
        (lamn_tr / k, float(lam[-1])),
    ]
    return BoundReport.chain("laplacian_trace_bounds", pairs,
                             sum_low=low, sum_high=high,
                             lambda2_trace=lam2_tr, lambdan_trace=lamn_tr)


def check_adjacency_trace_bounds(ops: OperatorBundle) -> BoundReport:
    """sum of top-k mu(A_W) >= mu_1(A_trW) >= mu_n(A_trW) >= sum of bottom-k mu(A_W)."""
    k, n = ops.k, ops.n
    if n < 1:
        return BoundReport.chain("adjacency_trace_bounds", [], note="vacuous for n < 1")
    mu = ops.adjacency_values[::-1]
    smu = ops.trace_adjacency_values[::-1]
    top = float(np.sum(mu[:k]))
    bottom = float(np.sum(mu[(n - 1) * k:]))
    mu1_tr, mun_tr = float(smu[0]), float(smu[-1])
    pairs = [
        (mu1_tr, top),
        (mun_tr, mu1_tr),
        (bottom, mun_tr),
    ]
    return BoundReport.chain("adjacency_trace_bounds", pairs,
                             sum_top=top, sum_bottom=bottom,
                             mu1_trace=mu1_tr, mun_trace=mun_tr)


__all__ = [
    "ATTAIN_TOL",
    "CHECK_TOL",
    "BoundReport",
    "OperatorBundle",
    "Stacked",
    "assemble",
    "check_adjacency_trace_bounds",
    "check_laplacian_trace_bounds",
    "check_normalized_bound",
    "solve_stacked",
]
