"""Matrix-valued edge counts, expander mixing lemmas, and Cheeger machinery.

Two conventions pinned here:

* The spectral mixing bound centers the edge count at (d|S||T|/n) I, the
  centering the proof actually derives.
* The Loewner Cheeger constant is never materialized as a matrix (the
  infimum may not be attained); per-subset matrices are reported together
  with the scalar summary alpha = min over S of lambda_min(h(S)).

The Cheeger scan visits each {S, V-S} pair once, as the subset S that
contains vertex 0, in increasing bitmask order, and breaks argmin ties by
smallest bitmask.  It computes every boundary E(S, V-S) directly, as the sum
of W_e over the crossing edges in edge order, so each per-subset matrix, the
trace constant, alpha and the boundary ranks are bitwise those of
cheeger_ratios on the same subset: no sum carries over from one subset to
the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    EmptyOrFullSubsetError,
    IndexOutOfRangeError,
    NotScalarRegularError,
    SingularVolumeError,
    TooLargeError,
)
from .graphs import MatrixWeightedGraph, Regularity, regularity
from .linalg import DEFAULT_TOL, Tolerances, kernel_dim_of_values
from .operators import CHECK_TOL, BoundReport, OperatorBundle, assemble

EML_EXHAUSTIVE_MAX_N = 8
CHEEGER_EXHAUSTIVE_MAX_N = 20
# subsets per batch of the Cheeger scan: big enough to amortize the numpy
# calls, small enough to keep the working arrays a few hundred KiB
SCAN_CHUNK = 1024


# --- vertex subsets ---------------------------------------------------------


def subset_mask(S: Iterable[int], n: int) -> int:
    mask = 0
    for v in S:
        v = int(v)
        if not (0 <= v < n):
            raise IndexOutOfRangeError(f"vertex {v} outside [0, {n})")
        mask |= 1 << v
    return mask


def mask_vertices(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if (mask >> v) & 1)


def _mask_bits(masks, n: int) -> np.ndarray:
    """(len(masks), n) integer array whose row i holds the 0/1 bits of masks[i]."""
    return (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1


def _indicators(masks, n: int) -> np.ndarray:
    return _mask_bits(masks, n).astype(float)


# --- edge counts ------------------------------------------------------------


def edge_count(G: MatrixWeightedGraph, S: Iterable[int], T: Iterable[int]) -> np.ndarray:
    """E(S, T) = sum over s in S, t in T of W_st (equals I_S^T A I_T)."""
    n = G.base.n
    smask = subset_mask(S, n)
    tmask = subset_mask(T, n)
    E = np.zeros((G.k, G.k))
    for (u, v), w in G.weights.items():
        if (smask >> u) & 1 and (tmask >> v) & 1:
            E = E + w
        if (smask >> v) & 1 and (tmask >> u) & 1:
            E = E + w
    return E


def require_scalar_regular(reg: Regularity, positive: bool = False) -> float:
    if not reg.is_scalar_regular:
        raise NotScalarRegularError(f"graph is {reg.kind}, need algebraic degree dI")
    d = float(reg.scalar_degree)
    if positive and d <= 0:
        raise NotScalarRegularError(f"need positive algebraic degree, got d = {d}")
    return d


# --- regular expander mixing lemma -----------------------------------------


@dataclass(frozen=True)
class EmlReport:
    """Both inequalities of the regular mixing lemma for one subset pair."""

    trace_check: BoundReport
    spectral_check: BoundReport
    abs_mu: float


def _regular_mu_constants(ops: OperatorBundle) -> tuple[float, float, np.ndarray]:
    """(|mu| for the trace bound, max(|mu_{k+1}|, |mu_{kn}|), descending mu)."""
    k, n = ops.k, ops.n
    mu = ops.adjacency_values[::-1]
    abs_mu = max(float(np.sum(mu[k:2 * k])),
                 float(np.sum(np.abs(mu[(n - 1) * k:]))))
    if mu.size > k:
        spec_const = max(abs(float(mu[k])), abs(float(mu[-1])))
    else:
        spec_const = 0.0
    return abs_mu, spec_const, mu


def eml_regular(ops: OperatorBundle, S: Iterable[int], T: Iterable[int]) -> EmlReport:
    """Expander mixing lemma for dI-regular matrix-weighted graphs.

    Trace form: |tr E(S,T) - kd|S||T|/n| <= |mu| sqrt(|S||T|(1-|S|/n)(1-|T|/n)).
    Spectral form: eigenvalues of E(S,T) - (d|S||T|/n) I bounded in magnitude
    by max(|mu_{k+1}|, |mu_{kn}|) times the same square root.
    """
    d = require_scalar_regular(ops.regularity)
    G, n, k = ops.graph, ops.n, ops.k
    abs_mu, spec_const, _ = _regular_mu_constants(ops)
    E = edge_count(G, S, T)
    s = len(set(int(v) for v in S))
    t = len(set(int(v) for v in T))
    root = float(np.sqrt(max(s * t * (1 - s / n) * (1 - t / n), 0.0)))
    center = d * s * t / n
    trace_lhs = abs(float(np.trace(E)) - k * center)
    trace = BoundReport.simple("eml_regular_trace", trace_lhs, abs_mu * root,
                               S=list(mask_vertices(subset_mask(S, n), n)),
                               T=list(mask_vertices(subset_mask(T, n), n)))
    dev = np.linalg.eigvalsh(E - center * np.eye(k))
    spec_lhs = max(abs(float(dev[0])), abs(float(dev[-1])))
    spectral = BoundReport.simple("eml_regular_spectral", spec_lhs, spec_const * root)
    return EmlReport(trace, spectral, abs_mu)


def eml_regular_exhaustive(ops: OperatorBundle) -> BoundReport:
    """Both mixing inequalities over every subset pair (vectorized, n <= 8)."""
    d = require_scalar_regular(ops.regularity)
    n, k = ops.n, ops.k
    if n > EML_EXHAUSTIVE_MAX_N:
        raise TooLargeError(f"exhaustive pair scan limited to n <= {EML_EXHAUSTIVE_MAX_N}")
    abs_mu, spec_const, _ = _regular_mu_constants(ops)
    masks = list(range(1 << n))
    ind = _indicators(masks, n)
    sizes = ind.sum(axis=1)
    # block tensor wt[u, v] = W_uv, read off the assembled adjacency
    wt = np.ascontiguousarray(ops.adjacency.reshape(n, k, n, k).transpose(0, 2, 1, 3))
    # all-pairs quantities; axis a indexes S, axis b indexes T
    tr_E = ind @ ops.trace_adjacency @ ind.T
    E_all = np.einsum("as,stij,bt->abij", ind, wt, ind, optimize=True)
    frac = sizes / n
    root = np.sqrt(np.maximum(np.outer(sizes, sizes) * np.outer(1 - frac, 1 - frac), 0.0))
    center = d * np.outer(sizes, sizes) / n
    trace_slack = abs_mu * root - np.abs(tr_E - k * center)
    dev = E_all - center[:, :, None, None] * np.eye(k)
    ev = np.linalg.eigvalsh(dev.reshape(-1, k, k))
    spec_lhs = np.abs(ev).max(axis=1).reshape(len(masks), len(masks))
    spec_slack = spec_const * root - spec_lhs
    worst_trace = np.unravel_index(int(np.argmin(trace_slack)), trace_slack.shape)
    worst_spec = np.unravel_index(int(np.argmin(spec_slack)), spec_slack.shape)
    slack = float(min(trace_slack.min(), spec_slack.min()))
    return BoundReport(
        "eml_regular_exhaustive", 0.0, slack, slack, slack >= -CHECK_TOL,
        {
            "pairs": len(masks) ** 2,
            "min_trace_slack": float(trace_slack.min()),
            "min_spectral_slack": float(spec_slack.min()),
            "worst_trace_pair": [list(mask_vertices(masks[worst_trace[0]], n)),
                                 list(mask_vertices(masks[worst_trace[1]], n))],
            "worst_spectral_pair": [list(mask_vertices(masks[worst_spec[0]], n)),
                                    list(mask_vertices(masks[worst_spec[1]], n))],
            "abs_mu": abs_mu,
        })


# --- irregular expander mixing lemma ----------------------------------------


@dataclass(frozen=True)
class IrregularContext:
    """Precomputed per-graph data for repeated irregular-EML evaluations."""

    k: int
    n: int
    deg_stack: np.ndarray    # (n, k, k)
    vol_inv: np.ndarray
    abs_mu_tilde: float      # |mu~_{k+1}|, mu~ ordered by decreasing |.|
    trace_adj: np.ndarray    # (n, n) matrix of tr(W_uv)


def irregular_context(ops: OperatorBundle) -> IrregularContext:
    tol, k, n = ops.tol, ops.k, ops.n
    degs = ops.degree_blocks
    vol_total = degs.sum(axis=0) if n else np.zeros((k, k))
    values = np.linalg.eigvalsh(vol_total)
    if values.size == 0 or float(values[0]) <= tol.rank_rel_tol * max(1.0, float(values[-1])):
        raise SingularVolumeError("vol(G) has an eigenvalue below the rank cutoff")
    vol_inv = np.linalg.inv(vol_total)
    mu = np.linalg.eigvalsh(ops.adj_normalized)
    order = np.lexsort((-mu, -np.abs(mu)))
    mu_by_abs = mu[order]
    abs_mu_tilde = abs(float(mu_by_abs[k])) if mu_by_abs.size > k else 0.0
    return IrregularContext(k, n, degs, vol_inv, abs_mu_tilde, ops.trace_adjacency)


def eml_irregular_pairs(ctx: IrregularContext, ind_S: np.ndarray,
                        ind_T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) arrays of the irregular bound for paired indicator rows."""
    vol_S = np.tensordot(ind_S, ctx.deg_stack, axes=(1, 0))
    vol_T = np.tensordot(ind_T, ctx.deg_stack, axes=(1, 0))
    tr_E = np.einsum("ms,st,mt->m", ind_S, ctx.trace_adj, ind_T)
    tr_V = np.einsum("mij,jl,mli->m", vol_S, ctx.vol_inv, vol_T)
    lhs = np.abs(tr_E - tr_V)
    self_S = np.einsum("mii->m", vol_S) - np.einsum("mij,jl,mli->m", vol_S, ctx.vol_inv, vol_S)
    self_T = np.einsum("mii->m", vol_T) - np.einsum("mij,jl,mli->m", vol_T, ctx.vol_inv, vol_T)
    rhs = ctx.abs_mu_tilde * np.sqrt(np.maximum(self_S, 0.0) * np.maximum(self_T, 0.0))
    return lhs, rhs


def eml_irregular_exhaustive(ops: OperatorBundle) -> BoundReport:
    """Irregular mixing bound over every subset pair (vectorized, n <= 8)."""
    ctx = irregular_context(ops)
    n = ctx.n
    if n > EML_EXHAUSTIVE_MAX_N:
        raise TooLargeError(f"exhaustive pair scan limited to n <= {EML_EXHAUSTIVE_MAX_N}")
    masks = list(range(1 << n))
    ind = _indicators(masks, n)
    m = len(masks)
    ind_S = np.repeat(ind, m, axis=0)
    ind_T = np.tile(ind, (m, 1))
    lhs, rhs = eml_irregular_pairs(ctx, ind_S, ind_T)
    slack = rhs - lhs
    worst = int(np.argmin(slack))
    return BoundReport(
        "eml_irregular_exhaustive", 0.0, float(slack[worst]), float(slack[worst]),
        bool(slack[worst] >= -CHECK_TOL),
        {
            "pairs": m * m,
            "worst_pair": [list(mask_vertices(masks[worst // m], n)),
                           list(mask_vertices(masks[worst % m], n))],
            "abs_mu_tilde": ctx.abs_mu_tilde,
        })


def eml_irregular(ops: OperatorBundle, S: Iterable[int], T: Iterable[int]) -> BoundReport:
    """Mixing bound for irregular graphs, in volume form.

    |tr(E(S,T) - V(S,T))| <= |mu~_{k+1}| sqrt(tr(vol S - V(S,S)) tr(vol T - V(T,T)))
    with V(A,B) = vol(A) vol(G)^{-1} vol(B).  Requires invertible vol(G).
    """
    ctx = irregular_context(ops)
    n = ctx.n
    smask = subset_mask(S, n)
    tmask = subset_mask(T, n)
    lhs, rhs = eml_irregular_pairs(ctx, _indicators([smask], n), _indicators([tmask], n))
    return BoundReport.simple("eml_irregular", float(lhs[0]), float(rhs[0]),
                              S=list(mask_vertices(smask, n)),
                              T=list(mask_vertices(tmask, n)),
                              abs_mu_tilde=ctx.abs_mu_tilde)


# --- Cheeger ratios and constants -------------------------------------------


@dataclass(frozen=True)
class CheegerReport:
    """Exhaustive Cheeger scan: trace constant, argmin, and Loewner summary.

    h_loewner_alpha = min over subsets of lambda_min(h(S)); the Loewner
    infimum itself is certified per subset, never materialized as a matrix.
    """

    h_trace: float
    argmin: tuple[int, ...]
    h_loewner_alpha: float
    per_subset: Mapping[tuple[int, ...], np.ndarray] | None = None


def cheeger_ratios(G: MatrixWeightedGraph, S: Iterable[int],
                   tol: Tolerances = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """(h_trace(S), h_loewner(S)) = tr/matrix of E(S, V-S) / (d min(|S|, |V-S|))."""
    d = require_scalar_regular(regularity(G, tol), positive=True)
    n = G.base.n
    mask = subset_mask(S, n)
    if mask == 0 or mask == (1 << n) - 1:
        raise EmptyOrFullSubsetError("S must be a nonempty proper subset")
    size = bin(mask).count("1")
    comp = [v for v in range(n) if not (mask >> v) & 1]
    E = edge_count(G, mask_vertices(mask, n), comp)
    denom = d * min(size, n - size)
    return float(np.trace(E)) / denom, E / denom


@dataclass(frozen=True)
class _BoundaryScan:
    h_trace: float
    argmin_mask: int
    alpha: float
    min_rank: int
    per_subset: dict[tuple[int, ...], np.ndarray] | None


def _scan_boundaries(G: MatrixWeightedGraph, d: float, tol: Tolerances,
                     keep_per_subset: bool) -> _BoundaryScan:
    """Scan of all subsets mod complementation: the odd masks 1, 3, ...,
    2^n - 3 in increasing order, SCAN_CHUNK at a time.

    Each boundary E(S, V-S) is the sum of W_e over the crossing edges in edge
    order, so every result is bitwise what cheeger_ratios gives for the same
    subset.
    """
    n, k = G.base.n, G.k
    ends = np.array(list(G.weights), dtype=np.int64).reshape(-1, 2).T
    W_flat = np.array(list(G.weights.values()), dtype=float).reshape(-1, k * k)
    count = (1 << (n - 1)) - 1
    best_tr, best_mask = np.inf, 0
    alpha = np.inf
    min_rank = k
    per: dict[tuple[int, ...], np.ndarray] | None = {} if keep_per_subset else None
    for lo in range(0, count, SCAN_CHUNK):
        masks = 2 * np.arange(lo, min(lo + SCAN_CHUNK, count), dtype=np.int64) + 1
        bits = _mask_bits(masks, n)
        crossing = bits.T[ends[0]] != bits.T[ends[1]]
        # edge-major (k*k, chunk) sums, so each add runs over contiguous rows;
        # a non-crossing edge adds +-0.0, which leaves the bits of every sum
        # alone, since a sum that starts at +0.0 never becomes -0.0
        E = np.zeros((k * k, masks.size))
        for w, cross in zip(W_flat, crossing):
            E += w[:, None] * cross
        E = E.T.reshape(-1, k, k)
        size = bits.sum(axis=1)
        denom = d * np.minimum(size, n - size)
        tr = np.trace(E, axis1=1, axis2=2) / denom
        h = E / denom[:, None, None]
        values = np.linalg.eigvalsh(h)
        rank_cut = tol.rank_rel_tol * np.maximum(1.0, values[:, -1] * denom)
        rank = np.sum(values * denom[:, None] > rank_cut[:, None], axis=1)
        # first minimum of the chunk, as the one-at-a-time min would keep it
        lam_min = values[:, 0]
        alpha = min(alpha, float(lam_min[np.argmin(lam_min)]))
        min_rank = min(min_rank, int(rank.min()))
        # masks increase, so the first minimum is the smallest tied mask
        low = int(np.argmin(tr))
        if tr[low] < best_tr:
            best_tr, best_mask = float(tr[low]), int(masks[low])
        if per is not None:
            for mask, hm in zip(masks.tolist(), h):
                per[mask_vertices(mask, n)] = hm
    return _BoundaryScan(best_tr, best_mask, float(alpha), min_rank, per)


def cheeger_constants(G: MatrixWeightedGraph, tol: Tolerances = DEFAULT_TOL,
                      include_per_subset: bool = False) -> CheegerReport:
    """Exhaustive minimization over nonempty proper subsets mod complementation."""
    return cheeger_analysis(G, tol, include_per_subset)[0]


def check_cheeger_lower_bounds(G: MatrixWeightedGraph, tol: Tolerances = DEFAULT_TOL
                               ) -> tuple[BoundReport, BoundReport]:
    """Spectral lower bounds on both Cheeger constants.

    h_trace >= sum_{i=1..k} lambda_{k+i} / (2d), and per subset
    (lambda_{k+1} / 2d) I precedes h(S) in the Loewner order.
    """
    return cheeger_analysis(G, tol)[1]


# --- counterexample certificate ---------------------------------------------


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Witness that spectral upper bounds on the Cheeger constants fail.

    A certifying instance has a Laplacian kernel of dimension >= 2k (so
    lambda_{2k} = 0) while every boundary E(S, V-S) is full rank, alpha > 0,
    and h_trace > 0.
    """

    k: int
    kernel_dim: int
    min_boundary_rank: int
    alpha: float
    h_trace: float

    @property
    def holds(self) -> bool:
        return (self.kernel_dim >= 2 * self.k
                and self.min_boundary_rank == self.k
                and self.alpha > 0.0
                and self.h_trace > 0.0)

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "kernel_dim": self.kernel_dim,
            "min_boundary_rank": self.min_boundary_rank,
            "alpha": self.alpha,
            "h_trace": self.h_trace,
            "holds": self.holds,
        }


def verify_counterexample(G: MatrixWeightedGraph,
                          tol: Tolerances = DEFAULT_TOL) -> CounterexampleCertificate:
    return cheeger_analysis(G, tol)[2]


def cheeger_analysis(G: MatrixWeightedGraph, tol: Tolerances = DEFAULT_TOL,
                     keep_per_subset: bool = False
                     ) -> tuple[CheegerReport, tuple[BoundReport, BoundReport],
                                CounterexampleCertificate]:
    """The Cheeger constants, their two spectral lower bounds and the
    counterexample certificate, from one boundary scan and one Laplacian
    spectrum.  The graph is checked before it is assembled."""
    d = _cheeger_degree(regularity(G, tol), G.base.n)
    return _cheeger_analysis(assemble(G, tol), d, keep_per_subset)


def _cheeger_degree(reg: Regularity, n: int) -> float:
    """The degree d of a graph that the exhaustive Cheeger scan accepts."""
    d = require_scalar_regular(reg, positive=True)
    if n > CHEEGER_EXHAUSTIVE_MAX_N:
        raise TooLargeError(f"n = {n} exceeds exhaustive limit {CHEEGER_EXHAUSTIVE_MAX_N}; "
                            "use sampling instead")
    if n < 2:
        raise EmptyOrFullSubsetError("no nonempty proper subsets for n < 2")
    return d


def _cheeger_analysis(ops: OperatorBundle, d: float, keep_per_subset: bool = False
                      ) -> tuple[CheegerReport, tuple[BoundReport, BoundReport],
                                 CounterexampleCertificate]:
    """cheeger_analysis of a bundle whose degree _cheeger_degree returned."""
    n, k, tol = ops.n, ops.k, ops.tol
    lam = ops.laplacian_values
    scan = _scan_boundaries(ops.graph, d, tol, keep_per_subset)
    argmin = mask_vertices(scan.argmin_mask, n)
    trace_bound = BoundReport.simple(
        "cheeger_trace_lower_bound",
        float(np.sum(lam[k:2 * k])) / (2 * d), scan.h_trace, argmin=list(argmin))
    loewner_bound = BoundReport.simple(
        "cheeger_loewner_lower_bound", float(lam[k]) / (2 * d), scan.alpha)
    return (CheegerReport(scan.h_trace, argmin, scan.alpha, scan.per_subset),
            (trace_bound, loewner_bound),
            CounterexampleCertificate(k, kernel_dim_of_values(lam, tol), scan.min_rank,
                                      scan.alpha, scan.h_trace))
