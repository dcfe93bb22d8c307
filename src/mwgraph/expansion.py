"""Matrix-valued edge counts, expander mixing lemmas, and Cheeger machinery.

Every analysis here takes an ``OperatorBundle`` and reads its tolerances;
only ``edge_count``, a pure graph quantity, takes the graph itself.

Two conventions pinned here:

* The spectral mixing bound centers the edge count at (d|S||T|/n) I, the
  centering the proof actually derives.
* The Loewner Cheeger constant is never materialized as a matrix (the
  infimum may not be attained); per-subset matrices are reported together
  with the scalar summary alpha = min over S of lambda_min(h(S)).

The Cheeger scan visits each {S, V-S} pair once, as the subset S that
contains vertex 0, in increasing bitmask order, and breaks argmin ties by
smallest bitmask.  It computes every boundary E(S, V-S) directly, as the sum
of W_e over the crossing edges in edge order, so each per-subset matrix and
the trace constant are bitwise those of cheeger_ratios on the same subset:
no sum carries over from one subset to the next.  Only the boundaries that
cheap eigenvalue bounds cannot rule out reach eigvalsh: those that might
set or tie alpha, or fall below rank k.  Every other boundary provably
returns, from eigvalsh, a lambda_min above alpha and rank k, so alpha and
the minimum boundary rank are still bitwise what eigvalsh on every
cheeger_ratios matrix gives (see _scan_boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DomainError,
    EmptyOrFullSubsetError,
    IndexOutOfRangeError,
    NotScalarRegularError,
    SingularVolumeError,
    TooLargeError,
)
from .graphs import MatrixWeightedGraph, Regularity
from .linalg import Tolerances, kernel_dim_of_values, zero_cutoff
from .operators import CHECK_TOL, BoundReport, OperatorBundle

EML_EXHAUSTIVE_MAX_N = 8
# the bytes the float arrays of one block of an exhaustive mixing-lemma pair
# scan may take (1.25 MiB), which keeps the regular scan of any graph with
# n <= 6 and k <= 3 in one block, and the scalar rows each pair takes there
# (sizes, centers, roots, slacks and temporaries)
EML_BUDGET = 5 << 18
_EML_ROWS = 10
CHEEGER_EXHAUSTIVE_MAX_N = 20
# the most low vertices per block of the Cheeger scan, whose up to
# 2^(SCAN_BITS - 1) subsets amortize the numpy calls, and the bytes its
# float arrays may take (1.25 MiB), which narrows the blocks as k grows
SCAN_BITS = 13
SCAN_BUDGET = 5 << 18
# the scalar rows of a block (denominators, traces, bounds and temporaries)
_SCAN_ROWS = 10


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
    n, k = ops.n, ops.k
    if n == 0:
        raise DomainError("the regular mixing lemma divides by n; got n = 0")
    abs_mu, spec_const, _ = _regular_mu_constants(ops)
    # S and T are read once, so any iterable will do
    S, T = mask_vertices(subset_mask(S, n), n), mask_vertices(subset_mask(T, n), n)
    E = edge_count(ops.graph, S, T)
    s, t = len(S), len(T)
    root = float(np.sqrt(max(s * t * (1 - s / n) * (1 - t / n), 0.0)))
    center = d * s * t / n
    trace_lhs = abs(float(np.trace(E)) - k * center)
    trace = BoundReport.simple("eml_regular_trace", trace_lhs, abs_mu * root,
                               S=list(S), T=list(T))
    dev = np.linalg.eigvalsh(E - center * np.eye(k))
    spec_lhs = max(abs(float(dev[0])), abs(float(dev[-1])))
    spectral = BoundReport.simple("eml_regular_spectral", spec_lhs, spec_const * root)
    return EmlReport(trace, spectral, abs_mu)


def _pair_rows(m: int, pair_bytes: int) -> int:
    """S rows per block of a pair scan over m masks: the most rows (at least
    one) whose m pairs each, at pair_bytes a pair, fit in EML_BUDGET."""
    return max(1, EML_BUDGET // (m * pair_bytes))


def _scan_pairs(n: int, pair_bytes: int, slack_tables) -> list[tuple[float, int, int]]:
    """(minimum, S mask, T mask) of each slack table over every subset pair.

    slack_tables(a0, a1) returns tables of shape (a1 - a0, 2^n): rows are
    the S masks a0, ..., a1 - 1 and columns every T mask.  Blocks take the S
    masks in increasing order, so each minimum and its first pair in
    row-major order are those of the whole table.  No block has a lone row:
    numpy sends a one-row product to gemv, whose sums can round differently
    from the gemm of the whole table.
    """
    m = 1 << n
    starts = list(range(0, m, max(2, _pair_rows(m, pair_bytes))))
    if len(starts) > 1 and m - starts[-1] == 1:
        del starts[-1]
    best: list[tuple[float, int, int]] = []
    for a0, a1 in zip(starts, starts[1:] + [m]):
        for i, table in enumerate(slack_tables(a0, a1)):
            j = int(np.argmin(table))
            if i == len(best):
                best.append((table.flat[j], a0 + j // m, j % m))
            elif table.flat[j] < best[i][0]:
                best[i] = (table.flat[j], a0 + j // m, j % m)
    return best


def _pair(a: int, b: int, n: int) -> list[list[int]]:
    return [list(mask_vertices(a, n)), list(mask_vertices(b, n))]


def eml_regular_exhaustive(ops: OperatorBundle) -> BoundReport:
    """Both mixing inequalities over every subset pair (vectorized, n <= 8).

    The pairs go in blocks of S rows within EML_BUDGET, so the n <= 8 cap
    limits the time of the 4^n pairs, not their memory.
    """
    d = require_scalar_regular(ops.regularity)
    n, k = ops.n, ops.k
    if n == 0:
        raise DomainError("the regular mixing lemma divides by n; got n = 0")
    if n > EML_EXHAUSTIVE_MAX_N:
        raise TooLargeError(f"exhaustive pair scan limited to n <= {EML_EXHAUSTIVE_MAX_N}")
    abs_mu, spec_const, _ = _regular_mu_constants(ops)
    m = 1 << n
    ind = _indicators(range(m), n)
    sizes = ind.sum(axis=1)
    frac = sizes / n
    # block tensor wt[u, v] = W_uv, read off the assembled adjacency
    wt = np.ascontiguousarray(ops.adjacency.reshape(n, k, n, k).transpose(0, 2, 1, 3))
    trace_rows = ind @ ops.trace_adjacency
    # the contraction order of the whole table, which a block's shapes could change
    path = np.einsum_path("as,stij,bt->abij", ind, wt, ind, optimize=True)[0]

    def slack_tables(a0: int, a1: int):
        # axis a indexes S, axis b indexes T
        tr_E = trace_rows[a0:a1] @ ind.T
        E = np.einsum("as,stij,bt->abij", ind[a0:a1], wt, ind, optimize=path)
        root = np.sqrt(np.maximum(np.outer(sizes[a0:a1], sizes)
                                  * np.outer(1 - frac[a0:a1], 1 - frac), 0.0))
        center = d * np.outer(sizes[a0:a1], sizes) / n
        trace_slack = abs_mu * root - np.abs(tr_E - k * center)
        dev = E - center[:, :, None, None] * np.eye(k)
        ev = np.linalg.eigvalsh(dev.reshape(-1, k, k))
        spec_slack = spec_const * root - np.abs(ev).max(axis=1).reshape(a1 - a0, m)
        return trace_slack, spec_slack

    # per pair: E(S, T) and its deviation, their eigenvalues and the scalar rows
    trace, spec = _scan_pairs(n, 8 * (2 * k * k + 2 * k + _EML_ROWS), slack_tables)
    slack = float(min(trace[0], spec[0]))
    return BoundReport(
        "eml_regular_exhaustive", 0.0, slack, slack, slack >= -CHECK_TOL,
        {
            "pairs": m * m,
            "min_trace_slack": float(trace[0]),
            "min_spectral_slack": float(spec[0]),
            "worst_trace_pair": _pair(trace[1], trace[2], n),
            "worst_spectral_pair": _pair(spec[1], spec[2], n),
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
    k, n = ops.k, ops.n
    degs = ops.degree_blocks
    vol_total = degs.sum(axis=0) if n else np.zeros((k, k))
    values = np.linalg.eigvalsh(vol_total)
    if values.size == 0 or float(values[0]) <= zero_cutoff(float(values[-1]), ops.tol):
        raise SingularVolumeError("vol(G) has an eigenvalue below the rank cutoff")
    vol_inv = np.linalg.inv(vol_total)
    mu = ops.normalized_adjacency_values
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
    """Irregular mixing bound over every subset pair (vectorized, n <= 8).

    The pairs go in blocks of S rows within EML_BUDGET, so the n <= 8 cap
    limits the time of the 4^n pairs, not their memory.
    """
    ctx = irregular_context(ops)
    n, k = ctx.n, ctx.k
    if n > EML_EXHAUSTIVE_MAX_N:
        raise TooLargeError(f"exhaustive pair scan limited to n <= {EML_EXHAUSTIVE_MAX_N}")
    m = 1 << n
    ind = _indicators(range(m), n)

    def slack_tables(a0: int, a1: int):
        lhs, rhs = eml_irregular_pairs(ctx, np.repeat(ind[a0:a1], m, axis=0),
                                       np.tile(ind, (a1 - a0, 1)))
        return ((rhs - lhs).reshape(a1 - a0, m),)

    # per pair: both indicator rows, vol(S) and vol(T), and the scalar rows
    ((worst, a, b),) = _scan_pairs(n, 8 * (2 * n + 2 * k * k + _EML_ROWS), slack_tables)
    return BoundReport(
        "eml_irregular_exhaustive", 0.0, float(worst), float(worst),
        bool(worst >= -CHECK_TOL),
        {
            "pairs": m * m,
            "worst_pair": _pair(a, b, n),
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


def cheeger_ratios(ops: OperatorBundle, S: Iterable[int]) -> tuple[float, np.ndarray]:
    """(h_trace(S), h_loewner(S)) = tr/matrix of E(S, V-S) / (d min(|S|, |V-S|))."""
    d = require_scalar_regular(ops.regularity, positive=True)
    G, n = ops.graph, ops.n
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


def _block_bits(n: int, k: int) -> int:
    """Low bits b of a Cheeger scan block: the most, up to min(SCAN_BITS, n),
    whose 2^(b-1) masks keep the block's float arrays within SCAN_BUDGET."""
    # per mask: two upper triangles, k diagonal or row-sum entries, a full
    # k x k matrix when every subset goes to eigvalsh, and the scalar rows
    per_mask = 8 * (2 * k * k + 2 * k + _SCAN_ROWS)
    b = min(SCAN_BITS, n)
    while b > 1 and per_mask << (b - 1) > SCAN_BUDGET:
        b -= 1
    return b


def _scan_boundaries(G: MatrixWeightedGraph, d: float, tol: Tolerances,
                     keep_per_subset: bool) -> _BoundaryScan:
    """Scan of all subsets mod complementation: the odd masks 1, 3, ...,
    2^n - 3 in increasing order, one block of 2^(b-1) masks at a time.

    In a block the b low bits vary and the high bits are fixed.  b is the
    largest value up to min(SCAN_BITS, n) whose block keeps its float
    arrays, 2k^2 + 2k + _SCAN_ROWS floats per mask, within SCAN_BUDGET
    bytes, so a block holds 4,096 masks up to k = 3 and fewer beyond.  Per
    scan, bool tables hold the bits of the block's low masks, their
    complements and, for each edge with both ends low, the exclusive or of
    its ends' rows.  An edge crosses a block's subsets along one of those
    rows, chosen by the parity of its high ends in S, along all of them or
    along none.

    Weights are stored exactly symmetric, so only the k(k+1)/2 entries of
    each boundary E(S, V-S)'s upper triangle are summed, as W_e over the
    crossing edges in edge order, into buffers allocated once per scan; the
    mirrored matrix is bitwise the full sum, so h(S) is bitwise what
    cheeger_ratios gives for the same subset.  The trace sums a contiguous
    copy of each boundary's diagonal, the same reduction np.trace makes of
    one matrix (pairwise from 8 entries on), so the trace constant keeps
    those bits too.

    alpha and the ranks come from eigvalsh on the same h(S), but only for
    the subsets whose cheap bounds, read off the triangles, leave them in
    doubt; only those are gathered into full k x k matrices, unless
    keep_per_subset asks for every one.  For eigenvalues l_1 <= ... <= l_k
    of a symmetric h, l_1 <= min_i h_ii, l_k <= min(||h||_F, max row
    abs-sum) and l_1 >= tr h - (k - 1) l_k.  Each bound is widened by a
    margin of 2^-30 k^3 ||h||_F = 2^23 k^3 u ||h||_F, with u = 2^-53.  The
    bounds' own rounding is a small multiple of k^3.5 u ||h||_F, and
    eigvalsh is backward stable, so its values lie within a modest
    polynomial in k times u ||h||_2 of the exact ones; the margin exceeds
    both by orders of magnitude for any k, so the widened bounds hold for
    the values eigvalsh would return.  A subset skips eigvalsh only when
    its lower bound exceeds an upper bound on alpha, so that it can neither
    set nor tie alpha, and when the rank rule, applied to its bounds in the
    same monotone arithmetic, gives rank k.  A subset whose ||h||_F^2 is
    near underflow, where the norm loses its relative accuracy, is always
    solved and bounds nothing.
    """
    n, k = G.base.n, G.k
    b = _block_bits(n, k)
    width = 1 << (b - 1)
    # row v holds bit v of the low masks 2i + 1: vertex 0 is in all of them
    bits = np.ones((b, width), dtype=bool)
    for v in range(1, b):
        bits[v] = (np.arange(width) >> (v - 1)) & 1
    unset = ~bits
    low_size = bits.sum(axis=0, dtype=float)
    # upper-triangle entries, the diagonal first, and the (k, tri) incidence
    # that sums a row's absolute values from them
    off_i, off_j = np.triu_indices(k, 1)
    iu = np.concatenate([np.arange(k), off_i])
    ju = np.concatenate([np.arange(k), off_j])
    incidence = np.zeros((k, iu.size))
    incidence[iu, np.arange(iu.size)] = 1.0
    incidence[ju, np.arange(iu.size)] = 1.0
    # per edge: its triangle as a column, its high ends as a mask of high
    # bits, and the subsets it crosses when an even or an odd number of
    # those ends lie in S: a bool row, all of them (True) or none (None)
    terms = []
    for (u, v), w in G.weights.items():
        if v < b:
            rows = (bits[u] ^ bits[v], None)
        elif u == 0:
            rows = (True, None)
        elif u < b:
            rows = (bits[u], unset[u])
        else:
            rows = (None, True)
        terms.append((w[iu, ju].reshape(-1, 1), (1 << u | 1 << v) >> b, rows))
    E = np.empty((iu.size, width))
    spare = np.empty_like(E)
    # the diagonals (masks, k) for the trace, then the row sums (k, masks)
    diag_rows = np.empty(k * width)
    margin_rel = 2.0 ** -30 * k ** 3
    smallest_sq = np.finfo(float).tiny / np.finfo(float).eps
    best_tr, best_mask = np.inf, 0
    alpha = np.inf
    min_rank = k
    per: dict[tuple[int, ...], np.ndarray] | None = {} if keep_per_subset else None
    blocks = 1 << (n - b)
    for hi in range(blocks):
        # the last block's last mask is V itself (its only one when b = 1)
        count = width - (hi == blocks - 1)
        if not count:
            break
        # adding +-0.0 leaves the bits of every sum alone, so an edge that
        # crosses no subset of the block is skipped, and a row's False
        # entries may add W_e * 0
        E.fill(0.0)
        for col, high, rows in terms:
            row = rows[(hi & high).bit_count() & 1]
            if row is True:
                E += col
            elif row is not None:
                np.multiply(col, row, out=spare)
                E += spare
        Eb, h = E[:, :count], spare[:, :count]
        high_size = hi.bit_count()
        denom = np.minimum(low_size[:count] + high_size, (n - high_size) - low_size[:count])
        denom *= d
        # summed along contiguous rows, the diagonals reduce as np.trace
        # reduces the diagonal of one matrix
        diag = diag_rows[:count * k].reshape(count, k)
        np.copyto(diag, Eb[:k].T)
        tr = diag.sum(axis=1)
        tr /= denom
        np.divide(Eb, denom, out=h)
        # masks increase, so the first minimum is the smallest tied mask
        first = int(np.argmin(tr))
        if tr[first] < best_tr:
            best_tr, best_mask = float(tr[first]), (hi << b) | (2 * first + 1)
        # ||h||_F^2 and the row abs-sums, from the triangle
        np.square(h, out=Eb)
        sq = Eb[:k].sum(axis=0)
        sq += 2.0 * Eb[k:].sum(axis=0)
        np.abs(h, out=Eb)
        row_sums = diag_rows[:count * k].reshape(k, count)
        np.matmul(incidence, Eb, out=row_sums)
        # a norm near underflow has lost its relative accuracy: no bounds
        sound = sq >= smallest_sq
        fro = np.sqrt(sq, out=sq)
        margin = margin_rel * fro
        top = np.minimum(fro, row_sums.max(axis=0))
        top += margin
        lower = tr - (k - 1) * top
        lower -= margin
        upper = h[:k].min(axis=0)
        upper += margin
        upper[~sound] = np.inf
        rank_cut = zero_cutoff(top * denom, tol)
        doubt = ~sound | (lower <= min(alpha, float(upper.min()))) | ~(lower * denom > rank_cut)
        solve = np.arange(count) if per is not None else np.flatnonzero(doubt)
        full = np.empty((solve.size, k, k))
        full[:, iu, ju] = h[:, solve].T
        full[:, ju, iu] = full[:, iu, ju]
        if doubt.any():
            values = np.linalg.eigvalsh(full if per is None else full[doubt])
            scale = denom[doubt]
            rank_cut = zero_cutoff(values[:, -1] * scale, tol)
            rank = np.sum(values * scale[:, None] > rank_cut[:, None], axis=1)
            # first minimum of the block, as the one-at-a-time min would keep it
            lam_min = values[:, 0]
            alpha = min(alpha, float(lam_min[np.argmin(lam_min)]))
            min_rank = min(min_rank, int(rank.min()))
        if per is not None:
            for i, hm in enumerate(full):
                per[mask_vertices((hi << b) | (2 * i + 1), n)] = hm
    return _BoundaryScan(best_tr, best_mask, float(alpha), min_rank, per)


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


def cheeger_analysis(ops: OperatorBundle, keep_per_subset: bool = False
                     ) -> tuple[CheegerReport, tuple[BoundReport, BoundReport],
                                CounterexampleCertificate]:
    """The Cheeger constants, their two spectral lower bounds and the
    counterexample certificate, from one boundary scan and one Laplacian
    spectrum.  Regularity and size are checked on the degree blocks, before
    any kn x kn operator is formed.

    The constants minimize over nonempty proper subsets mod complementation.
    The bounds are h_trace >= sum_{i=1..k} lambda_{k+i} / (2d) and, per
    subset, (lambda_{k+1} / 2d) I preceding h(S) in the Loewner order."""
    n, k, tol = ops.n, ops.k, ops.tol
    d = require_scalar_regular(ops.regularity, positive=True)
    if n > CHEEGER_EXHAUSTIVE_MAX_N:
        raise TooLargeError(f"n = {n} exceeds exhaustive limit {CHEEGER_EXHAUSTIVE_MAX_N}; "
                            "use sampling instead")
    if n < 2:
        raise EmptyOrFullSubsetError("no nonempty proper subsets for n < 2")
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
