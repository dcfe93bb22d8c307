"""Blockwise operators A, L, D and their normalized forms, plus bound checks.

The Laplacian acts vertexwise by (Lx)_v = sum_u W_uv (x_v - x_u); the
adjacency by (Ax)_v = sum_u W_uv x_u.  The normalized adjacency is computed
directly as D^(+/2) A D^(+/2) rather than via I - Lnorm so singular-degree
vertices are handled uniformly.  The trace weighting w_e = tr(W_e), a k = 1
graph that the trace bounds compare with L_W and A_W, is read as the
bundle's n x n ``trace_adjacency``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from .graphs import MatrixWeightedGraph, Regularity, _regularity, all_degrees
from .linalg import (DEFAULT_TOL, PSEUDO_SQRT_INV_NOT_PSD, Spectrum, Tolerances, _checked_psd,
                     _pseudo_sqrt_inv)

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


@dataclass(frozen=True)
class OperatorBundle:
    """The five kn x kn operators of a matrix-weighted graph.

    A, L and D are placed by ``assemble``; the normalized operators and
    D^(+/2) are formed, with ``tol``, the first time one of them is read, and
    so are ``trace_adjacency``, ``degree_blocks``, ``regularity`` and the
    spectra ``laplacian_values`` and ``adjacency_values`` (one ``eigvalsh``
    each, ascending).  ``graph`` is the graph they were assembled from.  The
    spectral checks below, the mixing-lemma and Cheeger checks in
    ``expansion``, the sheaf analysis and ``eta`` read one bundle, so a
    caller assembles and solves each graph once.
    """

    adjacency: np.ndarray
    laplacian: np.ndarray
    degree: np.ndarray
    k: int
    n: int
    graph: MatrixWeightedGraph
    tol: Tolerances = DEFAULT_TOL

    @cached_property
    def _degree_pseudo_sqrt_inv(self) -> np.ndarray:
        """Block-diagonal D^(+/2): every D_v^(+/2) from one stacked solve."""
        k, n = self.k, self.n
        v = np.arange(n)
        sym = _checked_psd(self.degree_blocks, self.tol, lambda _: PSEUDO_SQRT_INV_NOT_PSD)
        half = np.zeros_like(self.degree)
        half.reshape(n, k, n, k)[v, :, v, :] = _pseudo_sqrt_inv(sym, self.tol)
        return half

    @cached_property
    def degree_blocks(self) -> np.ndarray:
        """The (n, k, k) stack of degree blocks D_v, as ``assemble`` summed them."""
        k, n = self.k, self.n
        v = np.arange(n)
        blocks = np.ascontiguousarray(self.degree.reshape(n, k, n, k)[v, :, v, :])
        blocks.setflags(write=False)
        return blocks

    @cached_property
    def trace_adjacency(self) -> np.ndarray:
        """The n x n adjacency of the trace weighting: entry (u, v) is tr(W_uv)."""
        n, k = self.n, self.k
        return np.trace(self.adjacency.reshape(n, k, n, k), axis1=1, axis2=3)

    @cached_property
    def regularity(self) -> Regularity:
        """The graph's regularity under ``tol``, tested on ``degree_blocks``."""
        return _regularity(self.degree_blocks, self.graph.base.geometric_degrees(), self.tol)

    @cached_property
    def laplacian_values(self) -> np.ndarray:
        """Eigenvalues of L, ascending."""
        values = np.linalg.eigvalsh(self.laplacian)
        values.setflags(write=False)
        return values

    @cached_property
    def adjacency_values(self) -> np.ndarray:
        """Eigenvalues of A, ascending."""
        values = np.linalg.eigvalsh(self.adjacency)
        values.setflags(write=False)
        return values

    @cached_property
    def lap_normalized(self) -> np.ndarray:
        half = self._degree_pseudo_sqrt_inv
        Lnorm = half @ self.laplacian @ half
        return (Lnorm + Lnorm.T) / 2.0

    @cached_property
    def adj_normalized(self) -> np.ndarray:
        half = self._degree_pseudo_sqrt_inv
        Anorm = half @ self.adjacency @ half
        return (Anorm + Anorm.T) / 2.0


def assemble(G: MatrixWeightedGraph, tol: Tolerances = DEFAULT_TOL) -> OperatorBundle:
    k, n = G.k, G.base.n
    A = np.zeros((k * n, k * n))
    for (u, v), w in G.weights.items():
        A[u * k:(u + 1) * k, v * k:(v + 1) * k] = w
        A[v * k:(v + 1) * k, u * k:(u + 1) * k] = w
    D = np.zeros((k * n, k * n))
    for v, Dv in enumerate(all_degrees(G)):
        D[v * k:(v + 1) * k, v * k:(v + 1) * k] = Dv
    return OperatorBundle(A, D - A, D, k, n, G, tol)


def laplacian_spectrum(ops: OperatorBundle) -> Spectrum:
    """Laplacian eigenvalues lambda_i in increasing order."""
    values, vectors = np.linalg.eigh(ops.laplacian)
    return Spectrum(values, vectors)


def adjacency_spectrum(ops: OperatorBundle) -> Spectrum:
    """Adjacency eigenvalues mu_i in decreasing order."""
    values, vectors = np.linalg.eigh(ops.adjacency)
    return Spectrum(values, vectors).reversed()


def check_normalized_bound(ops: OperatorBundle) -> BoundReport:
    """lambda_max of the normalized Laplacian is bounded above by 2."""
    values = np.linalg.eigvalsh(ops.lap_normalized)
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
    A_tr = ops.trace_adjacency
    # row sums, not assemble's edge-order degree sums: the two differ in the last bit
    slam = np.linalg.eigvalsh(np.diag(A_tr.sum(axis=1)) - A_tr)
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
    smu = np.linalg.eigvalsh(ops.trace_adjacency)[::-1]
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
    "assemble",
    "adjacency_spectrum",
    "check_adjacency_trace_bounds",
    "check_laplacian_trace_bounds",
    "check_normalized_bound",
    "laplacian_spectrum",
]
